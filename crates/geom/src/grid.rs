//! Uniform grid-bucket spatial index for near-neighbour candidate
//! generation.
//!
//! The spatial universal-tree growth (`wmcs-graph`'s `spatial` module)
//! replaces the dense "relax all n − 1 neighbours" loop with *neighbour
//! streams*: each finalised station relaxes its neighbours shell by
//! shell, in ascending distance bands, and stops early. A [`GridIndex`]
//! is the geometry half of that contract — it buckets the stations into
//! a uniform grid (~[`TARGET_PER_CELL`] points per cell) and exposes
//! **expanding shells**: the cells at Chebyshev ring `r` around a
//! station's cell, together with a lower bound
//! ([`GridIndex::shell_min_dist`]) on the distance to *every* point in
//! rings `≥ r`. The bound is exact in floating point: it is computed
//! from stored point coordinates with the operations [`PointSet::dist`]
//! applies, never from cell faces, so no computed distance to an unseen
//! point falls below it.
//!
//! The ring walk is **live**: [`GridIndex::for_live_shell`] takes a
//! caller-owned bitset over linear cell ids and visits only the ring's
//! cells whose bit is set (the growth clears a cell's bit once every
//! station in it is finalised). Along the last axis a ring's full-width
//! runs are contiguous in linear id, so the walk tests them a 64-bit word
//! at a time; the ring's other cells are single bit tests. Whole dead
//! rings are skipped with [`GridIndex::live_distance`], a two-pass raster
//! transform that gives every cell its chessboard distance, in cells, to
//! the nearest live cell: no closer ring holds a live cell.
//!
//! Determinism contract: for a fixed point set the index layout, the
//! ring enumeration order (ascending linear cell id, which is
//! lexicographic offset order, and ascending point ids within a cell)
//! and every bound are pure functions of the input and the mask —
//! nothing here can perturb the byte-identity gates the tree builders
//! are held to.
//!
//! The index borrows the stations' [`PointSet`] (flat point-major
//! coordinates, no per-point heap indirection) and keeps no copy of
//! them; distances come from [`PointSet::dist`].

use crate::point_set::PointSet;

/// Average number of points a grid cell is sized for. Two keeps each
/// shell expansion short while the cell count (≈ n / 2) stays well
/// below the point count's memory footprint.
pub const TARGET_PER_CELL: f64 = 2.0;

/// Linear id of a cell from its per-axis indices: row-major, last axis
/// fastest, so ascending ids are lexicographic offset order.
fn linear_id(res: usize, cell: &[u32]) -> usize {
    cell.iter().fold(0, |c, &x| c * res + x as usize)
}

/// A uniform grid-bucket index over a borrowed set of points in `R^d`.
///
/// Construction is `O(n)` (two counting passes); the grid has the same
/// number of cells per axis with per-axis cell widths fitted to the
/// bounding box, so skewed boxes (e.g. the d = 1 line layouts) still
/// bucket evenly. Degenerate axes (zero extent, duplicate points) fall
/// back to a single cell slab on that axis.
#[derive(Debug, Clone)]
pub struct GridIndex<'p> {
    /// The indexed points (checked finite and of one dimension by
    /// [`PointSet::new`]).
    points: &'p PointSet,
    /// Cells per axis (identical on every axis), ≥ 1.
    res: usize,
    /// Per-axis cell index of each point: `cell_idx[i * dim + a]`.
    cell_idx: Vec<u32>,
    /// `above[a * res + j]`: the least axis-`a` coordinate of any point
    /// whose axis-`a` cell index is `≥ j` (`+∞` when there is none).
    above: Vec<f64>,
    /// `below[a * res + j]`: the greatest axis-`a` coordinate of any
    /// point whose axis-`a` cell index is `≤ j` (`−∞` when there is none).
    below: Vec<f64>,
    /// CSR starts over linear cell ids; length `res^dim + 1`.
    starts: Vec<u32>,
    /// Point ids grouped by cell, ascending within each cell.
    items: Vec<u32>,
}

impl<'p> GridIndex<'p> {
    /// Build the index over `points` (at most `u32::MAX` of them).
    pub fn new(points: &'p PointSet) -> Self {
        let (n, dim) = (points.len(), points.dim());
        u32::try_from(n).expect("grid index point count fits in u32");

        // Cells per axis: aim for TARGET_PER_CELL points per cell.
        let res = ((n as f64 / TARGET_PER_CELL).powf(1.0 / dim as f64)).floor() as usize;
        let res = res.max(1);

        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for i in 0..n {
            for a in 0..dim {
                let x = points.coord(i, a);
                lo[a] = lo[a].min(x);
                hi[a] = hi[a].max(x);
            }
        }
        let cell_w: Vec<f64> = (0..dim)
            .map(|a| {
                let extent = hi[a] - lo[a];
                if extent > 0.0 {
                    extent / res as f64
                } else {
                    1.0
                }
            })
            .collect();

        // Per-point per-axis cell indices, clamped so points on the far
        // boundary land in the last cell.
        let mut cell_idx = vec![0u32; n * dim];
        for i in 0..n {
            for a in 0..dim {
                let x = points.coord(i, a);
                let raw = ((x - lo[a]) / cell_w[a]).floor();
                let idx = if raw <= 0.0 {
                    0
                } else {
                    (raw as usize).min(res - 1)
                };
                cell_idx[i * dim + a] =
                    u32::try_from(idx).expect("cell index fits in u32 (res <= n)");
            }
        }

        // Per-axis slab extents: each slab's own extremes, then the
        // suffix minima and prefix maxima over slabs.
        let mut above = vec![f64::INFINITY; dim * res];
        let mut below = vec![f64::NEG_INFINITY; dim * res];
        for i in 0..n {
            for a in 0..dim {
                let slab = a * res + cell_idx[i * dim + a] as usize;
                let x = points.coord(i, a);
                above[slab] = above[slab].min(x);
                below[slab] = below[slab].max(x);
            }
        }
        for a in 0..dim {
            let (above, below) = (
                &mut above[a * res..(a + 1) * res],
                &mut below[a * res..(a + 1) * res],
            );
            for j in (0..res - 1).rev() {
                above[j] = above[j].min(above[j + 1]);
            }
            for j in 1..res {
                below[j] = below[j].max(below[j - 1]);
            }
        }

        // CSR bucket fill (counting sort over linear cell ids); iterating
        // points in ascending id keeps each bucket's ids ascending.
        let n_cells = res.pow(u32::try_from(dim).expect("dimension fits in u32"));
        let linear = |i: usize| linear_id(res, &cell_idx[i * dim..(i + 1) * dim]);
        let mut starts = vec![0u32; n_cells + 1];
        for i in 0..n {
            starts[linear(i) + 1] += 1;
        }
        for c in 0..n_cells {
            starts[c + 1] += starts[c];
        }
        let mut cursor: Vec<u32> = starts.clone();
        let mut items = vec![0u32; n];
        for i in 0..n {
            let c = linear(i);
            items[cursor[c] as usize] = u32::try_from(i).expect("point id fits in u32");
            cursor[c] += 1;
        }

        Self {
            points,
            res,
            cell_idx,
            above,
            below,
            starts,
            items,
        }
    }

    /// Ambient dimension `d`.
    pub fn dim(&self) -> usize {
        self.points.dim()
    }

    /// Cells per axis.
    pub fn resolution(&self) -> usize {
        self.res
    }

    /// Number of cells, `resolution()^dim()`: a live mask carries one bit
    /// per cell.
    pub fn n_cells(&self) -> usize {
        self.starts.len() - 1
    }

    /// Linear id of point `i`'s cell, the id [`GridIndex::cell_points`]
    /// and the live masks use.
    pub fn cell_of(&self, i: usize) -> usize {
        let dim = self.dim();
        linear_id(self.res, &self.cell_idx[i * dim..(i + 1) * dim])
    }

    /// The point ids bucketed in the linear cell `c`, ascending.
    pub fn cell_points(&self, c: usize) -> &[u32] {
        &self.items[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// Lower bound on the distance from point `i` to any point bucketed
    /// in a cell of Chebyshev ring `≥ r` around `i`'s cell: 0 for
    /// `r = 0`, `+∞` when those rings hold no point. Monotone
    /// non-decreasing in `r`.
    ///
    /// The bound holds exactly for the computed distances of
    /// [`PointSet::dist`] (and so of `Point::dist`, which does the same
    /// float operations), not just up to rounding.
    /// A point in ring `≥ r` lies `≥ r` slabs away from `i` on some axis
    /// `a`, so its coordinate there is at least the least coordinate of
    /// the slabs `≥ c + r` (or at most the greatest of the slabs
    /// `≤ c − r`), where `c` is `i`'s slab. The bound takes the smallest
    /// such gap `g` over every axis and side and returns `√(g·g)`.
    /// Float subtraction, squaring, summing non-negative terms and `√`
    /// are each monotone, so the computed distance to that point, whose
    /// axis-`a` term alone is at least `g·g`, is at least the bound.
    /// Cell faces would not do: a point's cell comes from
    /// `⌊(x − lo)/w⌋`, and a face computed as `lo + k·w` can land an ulp
    /// past a point of the cell beyond it.
    pub fn shell_min_dist(&self, i: usize, r: usize) -> f64 {
        if r == 0 {
            return 0.0;
        }
        let mut gap = f64::INFINITY;
        let dim = self.dim();
        for a in 0..dim {
            let c = self.cell_idx[i * dim + a] as usize;
            let x = self.points.coord(i, a);
            if r < self.res - c {
                gap = gap.min(self.above[a * self.res + c + r] - x);
            }
            if c >= r {
                gap = gap.min(x - self.below[a * self.res + c - r]);
            }
        }
        let gap = gap.max(0.0);
        (gap * gap).sqrt()
    }

    /// Visit every live cell of Chebyshev ring exactly `r` around point
    /// `i`'s cell (ring 0 is `i`'s own cell), in ascending linear id —
    /// lexicographic offset order, so the visit order is a pure function
    /// of the point set and the mask. Cell `c` is live when bit `c % 64`
    /// of `live[c / 64]` is set; the mask covers [`GridIndex::n_cells`]
    /// bits. A full-width run along the last axis is tested a word at a
    /// time, every other cell of the ring with a single bit test.
    pub fn for_live_shell(&self, i: usize, r: usize, live: &[u64], mut visit: impl FnMut(usize)) {
        let dim = self.dim();
        let center = &self.cell_idx[i * dim..(i + 1) * dim];
        self.shell_runs(center, r, 0, false, 0, &mut |start, end| {
            let mut c = start;
            while c < end {
                let span = (end - c).min(64 - c % 64);
                let mut bits = live[c / 64] >> (c % 64);
                if span < 64 {
                    bits &= (1u64 << span) - 1;
                }
                while bits != 0 {
                    visit(c + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
                c += span;
            }
        });
    }

    /// Recursive ring walk reporting half-open runs `[start, end)` of
    /// linear cell ids, in ascending order: axis by axis over the clipped
    /// offsets `[-r, r]`; once the last axis is reached without any
    /// `|off| = r` axis yet, only the two extreme offsets are taken (two
    /// one-cell runs), otherwise the clipped span is one contiguous run.
    /// The walk touches the ring's surface only (O(surface), not
    /// O(volume)).
    fn shell_runs(
        &self,
        center: &[u32],
        r: usize,
        axis: usize,
        have_extreme: bool,
        prefix: usize,
        run: &mut impl FnMut(usize, usize),
    ) {
        let c = center[axis] as usize;
        let lo = c.saturating_sub(r);
        let hi = (c + r).min(self.res - 1);
        let base = prefix * self.res;
        if axis + 1 < self.dim() {
            for x in lo..=hi {
                let extreme = have_extreme || x.abs_diff(c) == r;
                self.shell_runs(center, r, axis + 1, extreme, base + x, run);
            }
        } else if have_extreme {
            run(base + lo, base + hi + 1);
        } else {
            // Must realise the ring radius on this axis.
            if c >= r {
                run(base + c - r, base + c - r + 1);
            }
            if r > 0 && c + r < self.res {
                run(base + c + r, base + c + r + 1);
            }
        }
    }

    /// Chessboard distance, in cells, from every cell to the nearest live
    /// cell of `live` (the [`GridIndex::for_live_shell`] mask), written to
    /// `near` (one slot per cell); `u32::MAX` when no cell is live. Every
    /// ring around cell `c` closer than `near[c]` holds dead cells only.
    ///
    /// Two raster passes over the `3^d − 1` neighbourhood, one code path
    /// for every `d`: the forward pass relaxes each cell from its
    /// neighbours with smaller linear ids, the backward pass from those
    /// with larger ones. The result is exact, not just a bound: a
    /// shortest chessboard path from the nearest live cell moves
    /// monotonically on every axis, so its unit steps can be reordered to
    /// take every id-increasing step (the forward pass, in order) before
    /// every id-decreasing one (the backward pass) without leaving the
    /// grid.
    pub fn live_distance(&self, live: &[u64], near: &mut [u32]) {
        let (dim, res) = (self.dim(), self.res);
        assert_eq!(near.len(), self.n_cells(), "one distance slot per cell");
        let is_live = |c: usize| (live[c / 64] >> (c % 64)) & 1 == 1;
        if res == 1 {
            // One cell and no neighbours (d may also exceed the axis
            // masks below: res ≥ 2 needs 2^d ≤ n / 2, so d < 32).
            near[0] = if is_live(0) { 0 } else { u32::MAX };
            return;
        }
        // Neighbour offsets in {-1, 0, 1}^d \ {0}, as (id distance, axes
        // stepped down, axes stepped up), split by the side of the cell
        // they lie on in linear order. With res ≥ 2 an offset's first
        // non-zero axis outweighs all later ones, so the id steps up
        // (`plus`) and down (`minus`) never cancel.
        let (mut before, mut after) = (Vec::new(), Vec::new());
        let offsets = 3usize.pow(u32::try_from(dim).expect("d < 32 when res ≥ 2"));
        for code in 0..offsets {
            let (mut rest, mut stride) = (code, 1usize);
            let (mut plus, mut minus, mut down, mut up) = (0usize, 0usize, 0u32, 0u32);
            for a in (0..dim).rev() {
                match rest % 3 {
                    0 => (minus, down) = (minus + stride, down | (1 << a)),
                    2 => (plus, up) = (plus + stride, up | (1 << a)),
                    _ => {}
                }
                rest /= 3;
                stride *= res;
            }
            match plus.cmp(&minus) {
                std::cmp::Ordering::Less => before.push((minus - plus, down, up)),
                std::cmp::Ordering::Greater => after.push((plus - minus, down, up)),
                std::cmp::Ordering::Equal => {} // the zero offset
            }
        }
        // Axes on which the cell sits at the low / high grid edge.
        let edges = |coord: &[usize]| {
            let (mut lo, mut hi) = (0u32, 0u32);
            for (a, &x) in coord.iter().enumerate() {
                if x == 0 {
                    lo |= 1 << a;
                }
                if x == res - 1 {
                    hi |= 1 << a;
                }
            }
            (lo, hi)
        };
        let mut coord = vec![0usize; dim];
        for c in 0..near.len() {
            near[c] = if is_live(c) { 0 } else { u32::MAX };
            if near[c] > 0 {
                let (lo, hi) = edges(&coord);
                for &(dist, down, up) in &before {
                    if down & lo == 0 && up & hi == 0 {
                        near[c] = near[c].min(near[c - dist].saturating_add(1));
                    }
                }
            }
            // Odometer step to cell c + 1 (wraps to all zeros at the end).
            for x in coord.iter_mut().rev() {
                *x += 1;
                if *x < res {
                    break;
                }
                *x = 0;
            }
        }
        for c in (0..near.len()).rev() {
            // Odometer step back to cell c (the wrap lands on the last cell).
            for x in coord.iter_mut().rev() {
                if *x > 0 {
                    *x -= 1;
                    break;
                }
                *x = res - 1;
            }
            if near[c] > 0 {
                let (lo, hi) = edges(&coord);
                for &(dist, down, up) in &after {
                    if down & lo == 0 && up & hi == 0 {
                        near[c] = near[c].min(near[c + dist].saturating_add(1));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn pts_2d(coords: &[(f64, f64)]) -> PointSet {
        let pts: Vec<Point> = coords.iter().map(|&(x, y)| Point::xy(x, y)).collect();
        PointSet::new(&pts)
    }

    /// Brute-force shell membership: Chebyshev cell distance exactly r.
    fn shell_brute(idx: &GridIndex, i: usize, r: usize) -> Vec<u32> {
        let d = idx.dim();
        let mut out = Vec::new();
        for j in 0..idx.points.len() {
            let cheb = (0..d)
                .map(|a| {
                    let ci = idx.cell_idx[i * d + a] as isize;
                    let cj = idx.cell_idx[j * d + a] as isize;
                    (ci - cj).abs()
                })
                .max()
                .expect("dim >= 1");
            if cheb == r as isize {
                out.push(u32::try_from(j).expect("test sizes fit"));
            }
        }
        out
    }

    /// The points of ring `r` around point `i`, walked with every cell live.
    fn shell_points(idx: &GridIndex, i: usize, r: usize) -> Vec<u32> {
        let all_live = vec![u64::MAX; idx.n_cells().div_ceil(64)];
        let mut out = Vec::new();
        idx.for_live_shell(i, r, &all_live, |c| {
            out.extend_from_slice(idx.cell_points(c))
        });
        out
    }

    /// Per-axis indices of the linear cell `c`.
    fn cell_coords(idx: &GridIndex, c: usize) -> Vec<usize> {
        let mut coords = vec![0; idx.dim()];
        let mut rest = c;
        for x in coords.iter_mut().rev() {
            *x = rest % idx.resolution();
            rest /= idx.resolution();
        }
        coords
    }

    fn chessboard(a: &[usize], b: &[usize]) -> usize {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.abs_diff(*y))
            .max()
            .expect("dim >= 1")
    }

    /// A mask with roughly `keep` of every 8 cells live, from `seed`.
    fn random_mask(idx: &GridIndex, seed: u64, keep: u64) -> Vec<u64> {
        let mut mask = vec![0u64; idx.n_cells().div_ceil(64)];
        let mut state = seed;
        for c in 0..idx.n_cells() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if (state >> 61) < keep {
                mask[c / 64] |= 1 << (c % 64);
            }
        }
        mask
    }

    fn deterministic_points(seed: u64, n: usize, dim: usize) -> PointSet {
        // SplitMix-style generator, no external RNG needed here.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64 * 10.0
        };
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new((0..dim).map(|_| next()).collect()))
            .collect();
        PointSet::new(&pts)
    }

    #[test]
    fn every_point_is_bucketed_exactly_once() {
        for dim in [1usize, 2, 3] {
            let pts = deterministic_points(7 + dim as u64, 100, dim);
            let idx = GridIndex::new(&pts);
            let mut seen = vec![0usize; pts.len()];
            for c in 0..idx.res.pow(u32::try_from(dim).expect("small")) {
                for &p in idx.cell_points(c) {
                    seen[p as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&s| s == 1), "d = {dim}");
        }
    }

    #[test]
    fn shells_partition_the_point_set() {
        for dim in [1usize, 2, 3] {
            let pts = deterministic_points(42, 80, dim);
            let idx = GridIndex::new(&pts);
            for i in [0usize, 13, 79] {
                let mut seen: Vec<u32> = Vec::new();
                for r in 0..idx.resolution() {
                    let ring = shell_points(&idx, i, r);
                    let mut brute = shell_brute(&idx, i, r);
                    let mut ring_sorted = ring.clone();
                    ring_sorted.sort_unstable();
                    brute.sort_unstable();
                    assert_eq!(ring_sorted, brute, "d = {dim}, i = {i}, r = {r}");
                    seen.extend(ring);
                }
                seen.sort_unstable();
                let all: Vec<u32> = (0..pts.len())
                    .map(|j| u32::try_from(j).expect("test sizes fit"))
                    .collect();
                assert_eq!(seen, all, "d = {dim}, i = {i}");
            }
        }
    }

    #[test]
    fn shell_min_dist_is_a_valid_monotone_lower_bound() {
        for dim in [1usize, 2, 3] {
            let pts = deterministic_points(99, 120, dim);
            let idx = GridIndex::new(&pts);
            for i in [0usize, 60, 119] {
                let mut prev = 0.0f64;
                for r in 0..idx.resolution() {
                    let bound = idx.shell_min_dist(i, r);
                    assert!(bound >= prev, "bound must be monotone in r");
                    prev = bound;
                    for later in r..idx.resolution() {
                        for p in shell_points(&idx, i, later) {
                            let d = pts.dist(i, p as usize);
                            assert!(
                                d >= bound,
                                "d = {dim}, i = {i}, r = {r}: point {p} at {d} < bound {bound}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A face computed as `lo + k·w` can round past a point that
    /// `⌊(x − lo)/w⌋` puts in the next cell. On these 52 stations on a
    /// line (26 cells of width 5/26), station 3 at x = 1.5 sits in cell
    /// 7; a face-based bound for its ring 6 read `1.0000000000000002`,
    /// while station 13, in that ring, lies at distance exactly 1.
    #[test]
    fn shell_min_dist_holds_where_cell_faces_round_past_points() {
        let xs = [
            5.0, 4.0, 5.0, 1.5, 1.5, 4.5, 4.0, 3.5, 2.0, 1.5, 4.0, 4.5, 1.5, 2.5, 1.5, 1.0, 1.5,
            3.5, 4.0, 3.5, 5.0, 4.5, 0.0, 4.5, 2.0, 0.0, 1.0, 1.0, 2.5, 1.0, 2.5, 1.5, 2.5, 0.5,
            2.0, 1.5, 5.0, 2.5, 2.0, 3.0, 2.0, 1.0, 3.0, 3.0, 0.5, 1.0, 1.0, 3.0, 1.5, 0.5, 2.0,
            5.0,
        ];
        let pts: Vec<Point> = xs.iter().map(|&x| Point::on_line(x)).collect();
        let set = PointSet::new(&pts);
        let idx = GridIndex::new(&set);
        assert_eq!((idx.resolution(), idx.cell_of(3)), (26, 7));
        let ring = idx.cell_of(13).abs_diff(idx.cell_of(3));
        assert_eq!(ring, 6);
        assert_eq!(pts[3].dist(&pts[13]), 1.0);
        assert!(idx.shell_min_dist(3, ring) <= 1.0);
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                let r = idx.cell_of(i).abs_diff(idx.cell_of(j));
                assert!(
                    pts[i].dist(&pts[j]) >= idx.shell_min_dist(i, r),
                    "{i} → {j}"
                );
                assert_eq!(set.dist(i, j).to_bits(), pts[i].dist(&pts[j]).to_bits());
            }
        }
    }

    #[test]
    fn live_walk_visits_exactly_the_live_ring_cells_in_order() {
        for dim in [1usize, 2, 3] {
            // n large enough for rings that span several mask words.
            let pts = deterministic_points(5 + dim as u64, 3000, dim);
            let idx = GridIndex::new(&pts);
            for (seed, keep) in [(1u64, 0u64), (2, 1), (3, 4), (4, 8)] {
                let mask = random_mask(&idx, seed, keep);
                for i in [0usize, 1234, 2999] {
                    let center = cell_coords(&idx, idx.cell_of(i));
                    for r in 0..idx.resolution() {
                        let mut walked = Vec::new();
                        idx.for_live_shell(i, r, &mask, |c| walked.push(c));
                        let brute: Vec<usize> = (0..idx.n_cells())
                            .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
                            .filter(|&c| chessboard(&center, &cell_coords(&idx, c)) == r)
                            .collect();
                        assert_eq!(walked, brute, "d = {dim}, mask {seed}, i = {i}, r = {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn live_distance_is_the_exact_chessboard_distance() {
        for dim in [1usize, 2, 3] {
            let pts = deterministic_points(17 + dim as u64, 2000, dim);
            let idx = GridIndex::new(&pts);
            for (seed, keep) in [(1u64, 0u64), (2, 1), (3, 3), (4, 8)] {
                let mut mask = random_mask(&idx, seed, keep);
                if seed == 2 {
                    // A single live cell, away from the grid corners.
                    mask.iter_mut().for_each(|w| *w = 0);
                    let c = idx.n_cells() / 3;
                    mask[c / 64] |= 1 << (c % 64);
                }
                let mut near = vec![0u32; idx.n_cells()];
                idx.live_distance(&mask, &mut near);
                for c in 0..idx.n_cells() {
                    let here = cell_coords(&idx, c);
                    let brute = (0..idx.n_cells())
                        .filter(|&l| (mask[l / 64] >> (l % 64)) & 1 == 1)
                        .map(|l| chessboard(&here, &cell_coords(&idx, l)))
                        .min()
                        .map_or(u32::MAX, |d| u32::try_from(d).expect("small grid"));
                    assert_eq!(near[c], brute, "d = {dim}, mask {seed}, cell {c}");
                }
            }
        }
    }

    #[test]
    fn boundary_points_land_in_edge_cells() {
        // Points exactly on the bounding-box corners and faces.
        let pts = pts_2d(&[
            (0.0, 0.0),
            (10.0, 0.0),
            (0.0, 10.0),
            (10.0, 10.0),
            (5.0, 10.0),
            (10.0, 5.0),
            (2.5, 2.5),
            (7.5, 7.5),
        ]);
        let idx = GridIndex::new(&pts);
        let r = idx.resolution();
        for i in 0..pts.len() {
            for a in 0..2 {
                let cell = idx.cell_idx[i * 2 + a] as usize;
                assert!(cell < r, "boundary point {i} axis {a} out of range");
            }
        }
        // The far corner must be clamped into the last cell, not res.
        assert_eq!(idx.cell_idx[3 * 2] as usize, r - 1);
        assert_eq!(idx.cell_idx[3 * 2 + 1] as usize, r - 1);
    }

    #[test]
    fn duplicate_points_share_a_cell_and_bound_zero() {
        let pts = pts_2d(&[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (4.0, 4.0), (9.0, 2.0)]);
        let idx = GridIndex::new(&pts);
        let ring0 = shell_points(&idx, 0, 0);
        assert!(ring0.contains(&0) && ring0.contains(&1) && ring0.contains(&2));
        assert_eq!(idx.shell_min_dist(0, 0), 0.0);
    }

    #[test]
    fn degenerate_axis_collapses_to_one_slab() {
        // All points share y: the y axis has zero extent.
        let pts = pts_2d(&[(0.0, 3.0), (2.0, 3.0), (5.0, 3.0), (9.0, 3.0)]);
        let idx = GridIndex::new(&pts);
        for i in 0..pts.len() {
            assert_eq!(idx.cell_idx[i * 2 + 1], 0);
        }
        // Shells still cover everything.
        let mut seen = Vec::new();
        for r in 0..idx.resolution() {
            seen.extend(shell_points(&idx, 0, r));
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_point_and_single_cell_work() {
        let pts = PointSet::new(&[Point::xyz(1.0, 2.0, 3.0)]);
        let idx = GridIndex::new(&pts);
        assert_eq!(idx.points.len(), 1);
        assert_eq!(idx.resolution(), 1);
        assert_eq!(shell_points(&idx, 0, 0), vec![0]);
        let mut near = [7];
        idx.live_distance(&[1], &mut near);
        assert_eq!(near, [0]);
        idx.live_distance(&[0], &mut near);
        assert_eq!(near, [u32::MAX]);
    }

    #[test]
    #[should_panic(expected = "empty point set")]
    fn empty_input_rejected() {
        let _ = GridIndex::new(&PointSet::new(&[]));
    }

    #[test]
    #[should_panic(expected = "mixed-dimension")]
    fn mixed_dimensions_rejected() {
        let _ = GridIndex::new(&PointSet::new(&[Point::on_line(0.0), Point::xy(1.0, 1.0)]));
    }
}
