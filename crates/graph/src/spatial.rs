//! Canonical universal-tree growth: a dense `O(n²)` reference and a
//! spatial-index path that is **byte-identical** to it.
//!
//! [`crate::shortest_path::dijkstra`] and [`crate::mst::prim_mst`] leave
//! their tie-breaking to heap pop order, so no sub-quadratic
//! reimplementation could promise the same parent array bit for bit.
//! This module instead fixes one *canonical* growth process per tree
//! kind and implements it twice:
//!
//! * [`grow_tree_dense`] — an `O(n²)` scan (no heap). Each step selects
//!   the non-finalised vertex minimising the lexicographic triple
//!   `(key, via, vertex)` — `key` is the tentative distance (SPT) or the
//!   connecting edge cost (MST), `via` the smallest finalised vertex
//!   achieving it — then relaxes its neighbours, preferring a smaller
//!   `via` on exact key ties.
//! * [`grow_tree_spatial`] — the same abstract process run lazily over a
//!   [`GridIndex`]. Every finalised vertex `u` owns a *neighbour stream*,
//!   which is nothing but a ring cursor: expanding it relaxes the
//!   unfinalised stations of the next grid shell around `u` into one
//!   station-indexed queue ([`IndexedMinHeap`], at most one entry per
//!   station, decrease-key) ordered by `(key, via, station)`. Each live
//!   stream keeps one *marker* in a second queue, keyed by a lower bound
//!   on every key its unexpanded shells can produce; the marker carries
//!   the ring cursor, and a stream whose marker is gone is exhausted.
//!   Keys are computed with the identical float expressions (`cost` from
//!   the same [`PowerModel::cost_of_distance`] of the same distance bits,
//!   `dist + cost` sums in the same order), so the two paths agree in
//!   every byte of the parent array — the contract experiment T13 and
//!   the `builder_props` proptests gate.
//!
//! Why lazy = scan:
//!
//! * **Relaxation.** Expanding a shell applies the dense scan's own rule
//!   to each unfinalised station `p` it meets from `u`: take key `k` when
//!   `k < key[p]`, or when `k == key[p]` and `u < via[p]`. That rule
//!   keeps the lexicographic minimum of `(k, u)` over every relaxation
//!   seen, whatever their order, so a station's queue entry is the dense
//!   scan's `(key, via)` restricted to the shells expanded so far.
//! * **Markers.** Stream `u`'s marker key is `dist[u] + cost(b)` (SPT)
//!   or `cost(b)` (MST), where `b` is [`GridIndex::shell_min_dist`] of
//!   its next ring. That bound holds exactly for the computed distance
//!   to every point in rings at or past the cursor, and
//!   [`PowerModel::cost_of_distance`] and float addition are monotone, so
//!   every key an unexpanded shell can produce for `u` is `≥` the marker
//!   key.
//! * **Selection.** The loop expands the head marker `(key_m, u)` first
//!   exactly when `(key_m, u) ≤ (key, via)` of the station queue's head,
//!   and finalises that head otherwise. When it finalises, take any
//!   unexpanded relaxation `(k', u', p)`: `k'` is at least `u'`'s marker
//!   key, and that marker orders at or after the head marker, so
//!   `(k', u') > (key, via)`. No unexpanded relaxation can lower any
//!   station to the head's triple or below it, so the head is the dense
//!   scan's selection, with the dense scan's `via`. On an exact tie the
//!   marker must win: its stream's unexpanded shells may still hold a
//!   smaller station id at the same `(key, via)`.
//!
//! The argument needs no genericity assumptions: duplicate points
//! (zero-cost edges) and exact float key ties replay identically on both
//! sides because both sides break them with the same total order.
//!
//! Two prunings keep the expansions cheap without touching that order:
//!
//! * **Finalised targets are skipped.** An expansion relaxes only
//!   unfinalised stations; a finalised one would never be selected again.
//! * **Finalised cells and rings are skipped whole.** The growth counts
//!   the unfinalised stations of every grid cell and keeps a bitset of
//!   the *live* cells (count > 0); a shell expansion walks only the
//!   ring's live cells ([`GridIndex::for_live_shell`]). Every ⌈n/32⌉
//!   finalisations a raster transform ([`GridIndex::live_distance`])
//!   refreshes each cell's chessboard distance to the nearest live cell.
//!   Before a stream keys its marker, and again when the marker reaches
//!   the head, it raises its ring cursor to that distance, or drops its
//!   marker when the distance lies past its last shell.
//!
//! Why skipping cells and rings is exact:
//!
//! * A cell with no unfinalised station contributes nothing to an
//!   expansion: skipping it applies the first pruning's per-point rule
//!   to the whole cell at once.
//! * Cells only die, so a ring whose cells are all finalised stays that
//!   way; expanding it would relax nothing, now or later. A stale
//!   distance is below the true one, so it only ever skips such rings.
//! * A higher ring cursor only raises the marker's bound, which still
//!   lower-bounds every key an unexpanded unfinalised point can get, so
//!   the selection argument above holds unchanged.
//!
//! Memory is `O(n)` on every layout: the station queue holds at most one
//! entry per station, the marker queue at most one per stream, and
//! nothing else grows with the shells.
//!
//! Measured on a 2-vCPU host (release build, free space, source 0,
//! n = 10⁵ at the density of `large_scale`'s uniform square): SPT growth
//! in ~0.26 s and MST in ~0.17 s on the square, where the per-stream
//! candidate heaps this replaced took ~0.44 s and ~0.25 s. A 10:1 strip
//! takes ~4.3 s (SPT; 18.2 s and a 172 MB peak before), four tight
//! clusters ~51 s and a 100:1 strip ~133 s, each at an ~18 MB process
//! peak; the per-stream heaps were OOM-killed on the last two. What
//! remains superlinear is the uniform grid, whose shells hold hundreds
//! of points on those layouts, and SPT keys, which make low-distance
//! streams expand far from their own cell before the frontier moves.

use crate::dense::CostMatrix;
use crate::heap::{HeapKey, IndexedMinHeap};
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use wmcs_geom::{GridIndex, PointSet, PowerModel};

/// Which universal tree to grow from the source (§2.1 discusses both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// Shortest-path universal tree (the Penna–Ventre choice): growth
    /// keys are tentative source distances.
    Spt,
    /// MST universal tree (the Wieselthier et al. broadcast heuristic
    /// \[50\] turned universal): growth keys are connecting edge costs.
    Mst,
}

/// Total-order wrapper for finite non-negative keys.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Canonical dense growth: `O(n²)` scan over a cost matrix. Returns the
/// parent array (`None` exactly at `source`). Panics if the finite-cost
/// graph does not span all vertices from `source`.
pub fn grow_tree_dense(costs: &CostMatrix, source: usize, kind: TreeKind) -> Vec<Option<usize>> {
    let n = costs.len();
    assert!(source < n, "source out of range");
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut key = vec![f64::INFINITY; n];
    let mut via = vec![usize::MAX; n];
    let mut done = vec![false; n];
    key[source] = 0.0;
    via[source] = source;
    for _ in 0..n {
        // Select the non-finalised vertex with the lexicographically
        // smallest (key, via, vertex); ascending scan makes the vertex
        // id the final tie level for free.
        let mut best: Option<usize> = None;
        for y in 0..n {
            if done[y] || !key[y].is_finite() {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => match key[y].total_cmp(&key[b]) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => via[y] < via[b],
                },
            };
            if better {
                best = Some(y);
            }
        }
        let y = best.expect("tree growth requires a graph connected from the source");
        done[y] = true;
        if y != source {
            parent[y] = Some(via[y]);
        }
        for z in 0..n {
            if done[z] || z == y {
                continue;
            }
            let c = costs.cost(y, z);
            if !c.is_finite() {
                continue;
            }
            let k = match kind {
                TreeKind::Spt => key[y] + c,
                TreeKind::Mst => c,
            };
            if k < key[z] {
                key[z] = k;
                via[z] = y;
            } else if k == key[z] && y < via[z] {
                via[z] = y;
            }
        }
    }
    parent
}

/// Which grid cells still hold an unfinalised station, and how far each
/// cell is from the nearest one that does.
#[derive(Debug)]
struct LiveCells {
    /// Unfinalised stations per cell.
    count: Vec<u32>,
    /// Bit `c` is set while `count[c] > 0`: the mask
    /// [`GridIndex::for_live_shell`] walks.
    bits: Vec<u64>,
    /// Chessboard distance, in cells, from each cell to the nearest live
    /// cell as of the last [`LiveCells::refresh`]. Cells only die, so a
    /// stale value is still a lower bound.
    near: Vec<u32>,
}

impl LiveCells {
    fn new(idx: &GridIndex) -> Self {
        let count: Vec<u32> = (0..idx.n_cells())
            .map(|c| u32::try_from(idx.cell_points(c).len()).expect("cell size fits in u32"))
            .collect();
        let mut bits = vec![0u64; count.len().div_ceil(64)];
        for (c, _) in count.iter().enumerate().filter(|(_, &k)| k > 0) {
            bits[c / 64] |= 1 << (c % 64);
        }
        let mut live = Self {
            near: vec![0; count.len()],
            count,
            bits,
        };
        live.refresh(idx);
        live
    }

    /// Station `v` was finalised: its cell dies with its last station.
    fn finalise(&mut self, idx: &GridIndex, v: usize) {
        let c = idx.cell_of(v);
        self.count[c] -= 1;
        if self.count[c] == 0 {
            self.bits[c / 64] &= !(1 << (c % 64));
        }
    }

    /// Recompute every cell's distance to the nearest live cell.
    fn refresh(&mut self, idx: &GridIndex) {
        idx.live_distance(&self.bits, &mut self.near);
    }
}

/// Work done by one spatial growth, for the tests that pin it: the
/// growth only ever updates these counts, it never reads them to decide
/// anything.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct GrowthWork {
    /// Shells expanded.
    pub(crate) expansions: u64,
    /// Points bucketed in the cells the ring walks visited, finalised
    /// ones included.
    pub(crate) points_visited: u64,
    /// The most stations the station queue ever held at once.
    pub(crate) peak_queued: u64,
    /// Marker-queue operations: pushes, re-keys of the head marker and
    /// pops.
    pub(crate) marker_ops: u64,
    /// The most markers the marker queue ever held at once.
    pub(crate) peak_markers: u64,
}

/// A station-queue entry: station `station`'s best key so far, reached
/// from the finalised station `via`. Entries order as the dense scan
/// selects, by `(key, via, station)`.
#[derive(Debug, Clone, Copy)]
struct Tentative {
    key: f64,
    via: u32,
    station: u32,
}

impl HeapKey for Tentative {
    fn precedes(&self, other: &Self) -> bool {
        self.key
            .total_cmp(&other.key)
            .then(self.via.cmp(&other.via))
            .then(self.station.cmp(&other.station))
            == Ordering::Less
    }
}

/// A live stream's marker `(key, stream, ring)`: `key` lower-bounds every
/// key the shells of `stream` from ring `ring` on can produce. Markers
/// order by `(key, stream)`; a stream has at most one, so `ring` never
/// decides.
type Marker = Reverse<(OrdF64, u32, u32)>;

/// Canonical spatial growth over a Euclidean point set: the same
/// abstract process as [`grow_tree_dense`] on the matrix of
/// `model.cost_of_distance(points.dist(i, j))`, without materialising
/// any `O(n²)` state. Returns a byte-identical parent array. The grid
/// index borrows `points`; no coordinate is copied.
pub fn grow_tree_spatial(
    points: &PointSet,
    model: &PowerModel,
    source: usize,
    kind: TreeKind,
) -> Vec<Option<usize>> {
    grow_tree_spatial_counted(points, model, source, kind).0
}

/// [`grow_tree_spatial`], also returning the work it did.
pub(crate) fn grow_tree_spatial_counted(
    points: &PointSet,
    model: &PowerModel,
    source: usize,
    kind: TreeKind,
) -> (Vec<Option<usize>>, GrowthWork) {
    let n = points.len();
    assert!(source < n, "source out of range");
    u32::try_from(n).expect("spatial growth point count fits in u32");
    let id = |v: usize| u32::try_from(v).expect("point ids and rings are below n");
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut work = GrowthWork::default();
    if n == 1 {
        return (parent, work);
    }
    let idx = GridIndex::new(points);
    let mut live = LiveCells::new(&idx);
    // Refresh the dead-ring distances 32 times over the growth. Each
    // refresh costs O(cells · 3^d); at n = 10⁵ (uniform, d = 2, 2-vCPU
    // host, medians of 5) refreshing every n/8, n/32 and n/128
    // finalisations measured 0.34, 0.30 and 0.38 s of SPT growth.
    let refresh_every = n.div_ceil(32);
    let mut dist = vec![0.0f64; n];
    let mut done = vec![false; n];
    let mut queue: IndexedMinHeap<Tentative> = IndexedMinHeap::new(n);
    let mut markers: BinaryHeap<Marker> = BinaryHeap::new();

    // Stream `u`'s marker for its shells from `ring` on, after raising
    // the cursor past rings that hold finalised stations only; `None`
    // once no unfinalised station can lie in those shells (the bound of
    // rings that hold no point at all is infinite).
    let marker = |u: usize, ring: usize, dist: &[f64], live: &LiveCells| -> Option<Marker> {
        let ring = ring.max(live.near[idx.cell_of(u)] as usize);
        let bound = idx.shell_min_dist(u, ring);
        if bound == f64::INFINITY {
            return None;
        }
        let cost = model.cost_of_distance(bound);
        let key = match kind {
            TreeKind::Spt => dist[u] + cost,
            TreeKind::Mst => cost,
        };
        Some(Reverse((OrdF64(key), id(u), id(ring))))
    };

    done[source] = true;
    live.finalise(&idx, source);
    // Queue stream `u`'s first marker, if it has one.
    let start = |u: usize,
                 markers: &mut BinaryHeap<Marker>,
                 work: &mut GrowthWork,
                 dist: &[f64],
                 live: &LiveCells| {
        if let Some(m) = marker(u, 0, dist, live) {
            markers.push(m);
            work.marker_ops += 1;
            work.peak_markers = work.peak_markers.max(markers.len() as u64);
        }
    };
    start(source, &mut markers, &mut work, &dist, &live);
    let mut finalized = 1usize;
    while finalized < n {
        let expand = match (markers.peek(), queue.peek()) {
            (Some(Reverse((OrdF64(key_m), u, _))), Some((_, head))) => {
                key_m.total_cmp(&head.key).then(u.cmp(&head.via)) != Ordering::Greater
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => {
                panic!("complete Euclidean graphs keep a station queued until spanning")
            }
        };
        if expand {
            let mut head = markers.peek_mut().expect("the head marker was just read");
            let Reverse((_, via, ring)) = *head;
            let (u, ring, du) = (via as usize, ring as usize, dist[via as usize]);
            // Rings may have died since the marker was keyed: re-key it
            // past them instead of walking them.
            if live.near[idx.cell_of(u)] as usize > ring {
                work.marker_ops += 1;
                match marker(u, ring, &dist, &live) {
                    Some(fresh) => *head = fresh,
                    None => {
                        PeekMut::pop(head);
                    }
                }
                continue;
            }
            work.expansions += 1;
            idx.for_live_shell(u, ring, &live.bits, |c| {
                let cell = idx.cell_points(c);
                work.points_visited += cell.len() as u64;
                for &p in cell {
                    if !done[p as usize] {
                        let cost = model.cost_of_distance(points.dist(u, p as usize));
                        let key = match kind {
                            TreeKind::Spt => du + cost,
                            TreeKind::Mst => cost,
                        };
                        let entry = Tentative {
                            key,
                            via,
                            station: p,
                        };
                        queue.push_or_decrease(p as usize, entry);
                    }
                }
            });
            work.peak_queued = work.peak_queued.max(queue.len() as u64);
            work.marker_ops += 1;
            match marker(u, ring + 1, &dist, &live) {
                Some(next) => *head = next,
                None => {
                    PeekMut::pop(head);
                }
            }
            continue;
        }
        let (y, head) = queue.pop().expect("the head station was just read");
        done[y] = true;
        parent[y] = Some(head.via as usize);
        dist[y] = head.key;
        finalized += 1;
        live.finalise(&idx, y);
        if finalized.is_multiple_of(refresh_every) {
            live.refresh(&idx);
        }
        start(y, &mut markers, &mut work, &dist, &live);
    }
    (parent, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mst::prim_mst;
    use crate::shortest_path::dijkstra;
    use crate::tree::RootedTree;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use wmcs_geom::{LayoutFamily, Point, Scenario};

    fn deterministic_points(seed: u64, n: usize, dim: usize) -> Vec<Point> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64 * 10.0
        };
        (0..n)
            .map(|_| Point::new((0..dim).map(|_| next()).collect()))
            .collect()
    }

    #[test]
    fn spatial_equals_dense_bit_for_bit() {
        for dim in [1usize, 2, 3] {
            for seed in 0..6u64 {
                let n = 40 + 17 * (seed as usize % 3);
                let pts = deterministic_points(seed * 77 + dim as u64, n, dim);
                let model = PowerModel::with_alpha(if seed % 2 == 0 { 2.0 } else { 4.0 });
                let m = CostMatrix::from_points(&pts, &model);
                for kind in [TreeKind::Spt, TreeKind::Mst] {
                    let dense = grow_tree_dense(&m, 0, kind);
                    let spatial = grow_tree_spatial(&PointSet::new(&pts), &model, 0, kind);
                    assert_eq!(dense, spatial, "d = {dim}, seed = {seed}, {kind:?}");
                }
            }
        }
    }

    #[test]
    fn spatial_equals_dense_with_duplicate_points() {
        // Zero-cost edges: the total order must still replay identically.
        let mut pts = deterministic_points(5, 30, 2);
        pts[7] = pts[3].clone();
        pts[19] = pts[3].clone();
        pts[11] = pts[22].clone();
        let model = PowerModel::free_space();
        let m = CostMatrix::from_points(&pts, &model);
        for kind in [TreeKind::Spt, TreeKind::Mst] {
            assert_eq!(
                grow_tree_dense(&m, 0, kind),
                grow_tree_spatial(&PointSet::new(&pts), &model, 0, kind),
                "{kind:?}"
            );
        }
    }

    /// `n` stations uniform in an `aspect`:1 rectangle of area `100·n`,
    /// the density of the pinned uniform instance below.
    fn strip_points(n: usize, aspect: f64, seed: u64) -> Vec<Point> {
        let width = (100.0 * n as f64 * aspect).sqrt();
        let height = width / aspect;
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::xy(rng.gen_range(0.0..width), rng.gen_range(0.0..height)))
            .collect()
    }

    /// `n` stations in four tight square clusters of half-width `side/50`
    /// around centres uniform in a square of side `side = √n·10`.
    fn tight_cluster_points(n: usize, seed: u64) -> Vec<Point> {
        let side = (n as f64).sqrt() * 10.0;
        let half = side / 50.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        let centres: Vec<(f64, f64)> = (0..4)
            .map(|_| (rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect();
        (0..n)
            .map(|i| {
                let (x, y) = centres[i % 4];
                Point::xy(
                    x + rng.gen_range(-half..half),
                    y + rng.gen_range(-half..half),
                )
            })
            .collect()
    }

    /// Skipping dead cells and rings only matters once the grid is large
    /// and much of it is finalised, so this pins identity well past the
    /// property suites' n ≤ 512: every registered family in each
    /// dimension it supports, both exponents, both tree kinds, a point
    /// set with duplicates, and the two layouts whose streams expand the
    /// deepest shells (a 10:1 strip and four tight clusters), so that
    /// large shells relax into a long station queue. The cases run one after
    /// another, since each dense reference holds a 33 MB matrix.
    #[test]
    fn spatial_equals_dense_at_n_2048_on_every_family() {
        let n = 2048;
        let mut cases: Vec<(String, Vec<Point>, PowerModel)> = Vec::new();
        for family in LayoutFamily::ALL {
            for dim in [1usize, 2, 3] {
                for alpha in [2.0, 4.0] {
                    let sc = Scenario::new(family, n, dim, alpha);
                    if sc.dim == dim {
                        cases.push((sc.label(), sc.points(2048 + dim as u64), sc.power_model()));
                    }
                }
            }
        }
        let mut dup = Scenario::new(LayoutFamily::UniformBox, n, 2, 2.0).points(5);
        for i in (0..n).step_by(7) {
            dup[i] = dup[(i * 31 + 3) % n].clone();
        }
        cases.push((
            "uniform n=2048 d=2 α=2 with duplicates".into(),
            dup,
            PowerModel::free_space(),
        ));
        cases.push((
            "10:1 strip n=2048 d=2 α=2".into(),
            strip_points(n, 10.0, 11),
            PowerModel::free_space(),
        ));
        cases.push((
            "4 tight clusters n=2048 d=2 α=2".into(),
            tight_cluster_points(n, 13),
            PowerModel::free_space(),
        ));
        assert_eq!(
            cases.len(),
            21,
            "9 (family, d) pairs × 2 exponents + duplicates + strip + clusters"
        );
        for (label, pts, model) in cases {
            let m = CostMatrix::from_points(&pts, &model);
            for kind in [TreeKind::Spt, TreeKind::Mst] {
                assert_eq!(
                    grow_tree_dense(&m, 0, kind),
                    grow_tree_spatial(&PointSet::new(&pts), &model, 0, kind),
                    "{label} {kind:?}"
                );
            }
        }
    }

    /// Stations on a line where a cell-face shell bound rounded past a
    /// point (see `GridIndex::shell_min_dist`): with that bound, stream 3
    /// of the first instance certified candidates that its unexpanded
    /// ring 6 beats, and stations 13, 28, 30, 32 and 37 got parent 8
    /// instead of 3; in the second, station 22 got parent 8 instead of 6.
    #[test]
    fn spatial_equals_dense_where_cell_faces_round_past_points() {
        let instances: [(usize, &[f64]); 2] = [
            (
                27,
                &[
                    5.0, 4.0, 5.0, 1.5, 1.5, 4.5, 4.0, 3.5, 2.0, 1.5, 4.0, 4.5, 1.5, 2.5, 1.5, 1.0,
                    1.5, 3.5, 4.0, 3.5, 5.0, 4.5, 0.0, 4.5, 2.0, 0.0, 1.0, 1.0, 2.5, 1.0, 2.5, 1.5,
                    2.5, 0.5, 2.0, 1.5, 5.0, 2.5, 2.0, 3.0, 2.0, 1.0, 3.0, 3.0, 0.5, 1.0, 1.0, 3.0,
                    1.5, 0.5, 2.0, 5.0,
                ],
            ),
            (
                18,
                &[
                    6.0, 6.0, 0.0, 0.0, 5.0, 0.5, 3.5, 6.0, 3.0, 3.0, 4.5, 3.5, 2.0, 1.5, 4.5, 0.5,
                    4.5, 5.5, 2.5, 6.0, 5.0, 3.5, 4.0, 0.5, 5.5, 3.0, 2.5, 0.0, 1.5, 0.5,
                ],
            ),
        ];
        let model = PowerModel::linear();
        for (source, xs) in instances {
            let pts: Vec<Point> = xs.iter().map(|&x| Point::on_line(x)).collect();
            let m = CostMatrix::from_points(&pts, &model);
            for kind in [TreeKind::Spt, TreeKind::Mst] {
                assert_eq!(
                    grow_tree_dense(&m, source, kind),
                    grow_tree_spatial(&PointSet::new(&pts), &model, source, kind),
                    "n = {}, source {source}, {kind:?}",
                    pts.len()
                );
            }
        }
    }

    /// Small layouts on a half-integer lattice, where duplicate points and
    /// exact key ties are the rule rather than the exception: 20,000
    /// layouts of n ∈ [5, 64] stations in d ∈ {1, 2}, α ∈ {1, 2, 4}, a
    /// random source, both tree kinds.
    #[test]
    fn spatial_equals_dense_on_tie_heavy_lattices() {
        let mut rng = SmallRng::seed_from_u64(0x71e_5eed);
        for case in 0..20_000 {
            let n = rng.gen_range(5..=64usize);
            let dim = rng.gen_range(1..=2usize);
            let alpha = [1.0, 2.0, 4.0][rng.gen_range(0..3usize)];
            // Lattice side, in half steps: at most 17 sites per axis, so
            // duplicate points are common.
            let steps = rng.gen_range(2..=n.min(16) as u32);
            let pts: Vec<Point> = (0..n)
                .map(|_| {
                    Point::new(
                        (0..dim)
                            .map(|_| f64::from(rng.gen_range(0..=steps)) * 0.5)
                            .collect(),
                    )
                })
                .collect();
            let source = rng.gen_range(0..n);
            let model = PowerModel::with_alpha(alpha);
            let m = CostMatrix::from_points(&pts, &model);
            for kind in [TreeKind::Spt, TreeKind::Mst] {
                assert_eq!(
                    grow_tree_dense(&m, source, kind),
                    grow_tree_spatial(&PointSet::new(&pts), &model, source, kind),
                    "case {case}: n = {n}, d = {dim}, α = {alpha}, source {source}, {kind:?}"
                );
            }
        }
    }

    /// Pins the growth's work, not its clock, on uniform stations at
    /// n = 16,384 (a square of side √n·10, α = 2, source 0, `SmallRng`
    /// seed 7): shell expansions, points visited, peak queued stations
    /// and marker-queue operations (pushes, head re-keys and pops) per
    /// station may not exceed 1.25× what this growth measures here.
    /// Measured per station:
    ///
    /// | count | SPT | MST |
    /// |---|---|---|
    /// | shell expansions | 3.326 | 2.310 |
    /// | points visited | 17.58 | 10.80 |
    /// | peak queued stations | 0.0309 | 0.1151 |
    /// | marker operations | 5.990 | 3.957 |
    ///
    /// The marker queue peaks at 16,383 markers on both kinds (not
    /// pinned): a marker is dropped only when its ring's bound is `+∞`,
    /// past the grid's edge on every axis, so on a uniform layout every
    /// finalised station keeps one until growth ends.
    ///
    /// The candidate-stream growth this replaced visited 17.72 / 10.81
    /// points and expanded 4.88 / 2.70 shells per station here (SPT /
    /// MST), with per-stream heaps whose live entries peaked at 0.53 /
    /// 3.64 per station.
    ///
    /// On a 100:1 strip and four tight clusters at n = 4,096
    /// (`strip_points` seed 17, `tight_cluster_points` seed 19), where SPT
    /// streams expand the deepest shells, the station queue may hold at
    /// most n stations and points visited per station are pinned at 1.25×
    /// the measured value:
    ///
    /// | layout | SPT | MST |
    /// |---|---|---|
    /// | 100:1 strip | 1,857.0 | 472.4 |
    /// | 4 tight clusters | 907.8 | 1,133.8 |
    ///
    /// Their peak queues read 3,784 / 1,601 (strip) and 1,892 / 1,953
    /// (clusters) stations.
    #[test]
    fn growth_work_per_station_is_pinned() {
        let n = 16_384;
        let side = (n as f64).sqrt() * 10.0;
        let mut rng = SmallRng::seed_from_u64(7);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::xy(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect();
        let model = PowerModel::free_space();
        let per_station = |count: u64, n: usize| count as f64 / n as f64;
        for (kind, expansions, visited, queued, marker_ops) in [
            (TreeKind::Spt, 3.326, 17.58, 0.0309, 5.990),
            (TreeKind::Mst, 2.310, 10.80, 0.1151, 3.957),
        ] {
            let (_, work) = grow_tree_spatial_counted(&PointSet::new(&pts), &model, 0, kind);
            let measured = [
                ("shell expansions", work.expansions, expansions),
                ("points visited", work.points_visited, visited),
                ("peak queued stations", work.peak_queued, queued),
                ("marker operations", work.marker_ops, marker_ops),
            ];
            for (what, count, pin) in measured {
                assert!(
                    per_station(count, n) <= 1.25 * pin,
                    "{kind:?}: {:.3} {what} per station, pinned at {pin}",
                    per_station(count, n)
                );
            }
        }
        let n = 4096;
        for (label, pts, pins) in [
            ("100:1 strip", strip_points(n, 100.0, 17), [1857.0, 472.4]),
            (
                "4 tight clusters",
                tight_cluster_points(n, 19),
                [907.8, 1133.8],
            ),
        ] {
            for (kind, visited) in [TreeKind::Spt, TreeKind::Mst].into_iter().zip(pins) {
                let (_, work) = grow_tree_spatial_counted(&PointSet::new(&pts), &model, 0, kind);
                assert!(
                    work.peak_queued <= n as u64,
                    "{label} {kind:?}: {} stations queued at once, over n = {n}",
                    work.peak_queued
                );
                assert!(
                    per_station(work.points_visited, n) <= 1.25 * visited,
                    "{label} {kind:?}: {:.2} points visited per station, pinned at {visited}",
                    per_station(work.points_visited, n)
                );
            }
        }
    }

    #[test]
    fn dense_spt_matches_dijkstra_distances() {
        let pts = deterministic_points(11, 60, 2);
        let model = PowerModel::free_space();
        let m = CostMatrix::from_points(&pts, &model);
        let parent = grow_tree_dense(&m, 0, TreeKind::Spt);
        let tree = RootedTree::from_parents(0, parent);
        let sp = dijkstra(&m, 0);
        for v in 0..60 {
            // Sum the canonical tree's root path; it must realise the
            // Dijkstra distance (up to fp association on the path sum).
            let path = tree.path_from_root(v);
            let mut d = 0.0;
            for w in path.windows(2) {
                d += m.cost(w[0], w[1]);
            }
            assert!((d - sp.dist[v]).abs() <= 1e-9 * (1.0 + sp.dist[v]));
        }
    }

    #[test]
    fn dense_mst_matches_prim_cost() {
        let pts = deterministic_points(23, 50, 2);
        let model = PowerModel::with_alpha(4.0);
        let m = CostMatrix::from_points(&pts, &model);
        let parent = grow_tree_dense(&m, 0, TreeKind::Mst);
        let cost: f64 = (0..50)
            .filter_map(|v| parent[v].map(|p| m.cost(p, v)))
            .sum();
        let reference = prim_mst(&m).cost;
        assert!((cost - reference).abs() <= 1e-9 * (1.0 + reference));
    }

    #[test]
    fn nonzero_source_and_tiny_inputs() {
        for n in [1usize, 2, 3] {
            let pts = deterministic_points(3, n, 2);
            let model = PowerModel::linear();
            let m = CostMatrix::from_points(&pts, &model);
            for kind in [TreeKind::Spt, TreeKind::Mst] {
                let source = n - 1;
                let dense = grow_tree_dense(&m, source, kind);
                let spatial = grow_tree_spatial(&PointSet::new(&pts), &model, source, kind);
                assert_eq!(dense, spatial);
                assert!(dense[source].is_none());
                assert_eq!(dense.iter().filter(|p| p.is_some()).count(), n - 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn dense_growth_rejects_disconnected_graphs() {
        let m = CostMatrix::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let _ = grow_tree_dense(&m, 0, TreeKind::Spt);
    }
}
