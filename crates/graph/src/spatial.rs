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
//!   [`GridIndex`]: every finalised vertex owns a *candidate stream*
//!   that emits its neighbours in ascending `(cost, id)` order by
//!   expanding grid shells, and a global priority queue of per-stream
//!   head candidates `(key, via, vertex)` replays exactly the dense
//!   selection order. Keys are computed with the identical float
//!   expressions (`cost` from the same [`PowerModel::cost`] calls,
//!   `dist + cost` sums in the same order), so the two paths agree in
//!   every byte of the parent array — the contract experiment T13 and
//!   the `builder_props` proptests gate.
//!
//! Equivalence argument (why lazy = scan): the global queue pops in
//! ascending `(key, via, vertex)` order, and a popped head immediately
//! re-arms its stream, so whenever a candidate `(k, u, y)` would be the
//! dense scan's selection, every stream candidate lexicographically
//! smaller has already been popped — in particular `u`'s stream has
//! already emitted `y`, and no unexpanded shell can hide a smaller
//! candidate because shell lower bounds are conservative
//! ([`GridIndex::shell_min_dist`]) and [`PowerModel::cost_of_distance`]
//! is monotone. The argument needs no genericity assumptions: duplicate
//! points (zero-cost edges) and exact float key ties replay identically
//! on both sides because both sides break them with the same total
//! order.
//!
//! Three prunings keep the replay cheap without touching that order:
//!
//! * **Finalised targets are skipped.** A candidate aimed at an
//!   already-finalised vertex would pop as a no-op, so streams drop
//!   such points at shell expansion and again at the local heap top.
//! * **Finalised cells and rings are skipped whole.** The growth counts
//!   the unfinalised stations of every grid cell and keeps a bitset of
//!   the *live* cells (count > 0); a shell expansion walks only the
//!   ring's live cells ([`GridIndex::for_live_shell`]). Every ⌈n/32⌉
//!   finalisations a raster transform ([`GridIndex::live_distance`])
//!   refreshes each cell's chessboard distance to the nearest live cell,
//!   and before a stream computes its bound it raises its ring cursor to
//!   that distance — or marks itself exhausted when the distance lies
//!   past its last shell.
//! * **Shell expansion is marker-driven.** When a stream cannot yet
//!   certify its local head (an unexpanded shell might contain
//!   something cheaper), it queues a *bound marker* at the shell's
//!   lower-bound key instead of expanding eagerly; the shell is
//!   expanded only when that marker reaches the global minimum.
//!   Markers sort after real candidates at an equal `(key, via)` pair
//!   (their vertex slot is `u32::MAX`), and a marker's key is a lower
//!   bound on everything its expansion can produce, so deferral never
//!   changes which candidate pops next — only how much work was spent
//!   to certify it.
//!
//! Why skipping cells and rings is exact:
//!
//! * A cell with no unfinalised station contributes nothing to an
//!   expansion: skipping it applies the first pruning's per-point rule
//!   to the whole cell at once.
//! * Cells only die, so a ring whose cells are all finalised stays that
//!   way; expanding it would insert nothing, now or later, and jumping
//!   past it leaves the stream's heap exactly as expanding it would. A
//!   stale distance is below the true one, so it only ever skips such
//!   rings.
//! * A higher ring cursor only raises the stream's
//!   [`GridIndex::shell_min_dist`] bound, which still lower-bounds every
//!   unexpanded unfinalised point. Held heads are still certified
//!   correctly and markers still sort after real candidates at an equal
//!   `(key, via)`, so the queue finalises the same `(key, via, vertex)`
//!   sequence and the parent array does not change.
//!
//! Measured on a 2-vCPU host (release build, uniform stations at
//! constant density, free space): the live walk and the ring skip cut
//! the points an SPT growth visits from ~397 to ~18 per station at
//! n = 16,384 (the pinned-work unit test), the n = 10⁵ SPT growth from
//! ~2.6 s to ~0.7 s, and the n = 10⁶ one from ~129 s to ~14–17 s. The
//! remaining superlinearity of SPT growth
//! comes from its keys: low-distance streams must certify candidates
//! far from their own cell before the frontier moves.
//!
//! Memory: a stream's local heap gives its buffer back the moment it
//! drains, and a later shell expansion allocates a fresh one, so the
//! streams together retain about twice the candidates they hold (the
//! heaps' growth slack), not their largest shells. Releasing touches no
//! key, so the finalisation order and every parent array stay the same.
//! Before, each stream kept the capacity of its largest shell until the
//! growth ended. In the pinned-work unit test (n = 16,384), the peak
//! retained entries per station fell from 15.40 to 1.23 (SPT) and from
//! 12.07 to 8.43 (MST), at a peak of 0.53 and 3.64 live entries; the
//! n = 10⁵ SPT growth's high-water mark fell from 45 to 20 MB.

use crate::dense::CostMatrix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wmcs_geom::{GridIndex, Point, PowerModel};

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

/// What a candidate stream offers the global queue next.
enum StreamStep {
    /// A concrete neighbour: the cheapest not-yet-finalised expanded
    /// candidate, certainly no worse than anything unexpanded.
    Candidate(f64, u32),
    /// No emittable candidate yet; the unexpanded shells are bounded
    /// below by this cost. The caller queues a *bound marker* and the
    /// stream only expands when that marker reaches the global minimum.
    Bound(f64),
    /// Exhausted: every other point was emitted or finalised.
    Dead,
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
    /// Entries popped from the global queue (candidates and markers).
    pub(crate) pops: u64,
    /// Shells expanded.
    pub(crate) expansions: u64,
    /// Points bucketed in the cells the ring walks visited, finalised
    /// ones included.
    pub(crate) points_visited: u64,
    /// Candidate entries the streams' local heaps hold now.
    live: u64,
    /// Entries the streams' heap buffers have room for now: `live` plus
    /// each buffer's spare capacity.
    retained: u64,
    /// The most entries `live` ever reached.
    pub(crate) peak_live: u64,
    /// The most entries `retained` ever reached.
    pub(crate) peak_retained: u64,
}

impl GrowthWork {
    /// A shell expansion pushed `entries` candidates and grew its
    /// stream's buffer by `capacity` entries.
    fn buffered(&mut self, entries: usize, capacity: usize) {
        self.live += entries as u64;
        self.retained += capacity as u64;
        self.peak_live = self.peak_live.max(self.live);
        self.peak_retained = self.peak_retained.max(self.retained);
    }
}

/// A lazy neighbour stream: emits the not-yet-finalised points in
/// ascending `(cost, id)` order by expanding grid shells on demand,
/// holding the already-expanded candidates in a local min-heap.
///
/// Finalised vertices are skipped (at insertion and again at the heap
/// top, for entries that were finalised while pending), dead cells and
/// rings are skipped whole, and a shell is only expanded when the
/// stream's lower bound is the *global* queue minimum — not eagerly
/// whenever the local head is uncertain. The heap gives its buffer back
/// the moment it drains, so a stream holds memory only while it holds
/// candidates; a later expansion allocates afresh.
#[derive(Debug)]
struct NeighborStream {
    ring: usize,
    exhausted: bool,
    heap: BinaryHeap<Reverse<(OrdF64, u32)>>,
}

impl NeighborStream {
    fn new() -> Self {
        Self {
            ring: 0,
            exhausted: false,
            heap: BinaryHeap::new(),
        }
    }

    /// Pop the local head, releasing the buffer if that drains it.
    fn pop(&mut self, work: &mut GrowthWork) {
        self.heap.pop();
        work.live -= 1;
        if self.heap.is_empty() {
            work.retained -= self.heap.capacity() as u64;
            self.heap = BinaryHeap::new();
        }
    }

    /// The stream's next move, without expanding anything (it may move
    /// its ring cursor past rings that hold only finalised stations).
    fn step(
        &mut self,
        idx: &GridIndex,
        model: &PowerModel,
        done: &[bool],
        live: &LiveCells,
        u: usize,
        work: &mut GrowthWork,
    ) -> StreamStep {
        // Rings closer than the nearest live cell hold finalised stations
        // only: expanding them would insert nothing, now or later.
        let first_live = live.near[idx.cell_of(u)] as usize;
        if !self.exhausted && first_live > self.ring {
            if first_live > idx.last_shell(u) {
                self.exhausted = true;
            } else {
                self.ring = first_live;
            }
        }
        loop {
            let top = self.heap.peek().map(|&Reverse((OrdF64(c), y))| (c, y));
            if let Some((_, y)) = top {
                // Finalised while pending in this local heap: discard.
                if done[y as usize] {
                    self.pop(work);
                    continue;
                }
            }
            if self.exhausted {
                return match top {
                    Some((c, y)) => {
                        self.pop(work);
                        StreamStep::Candidate(c, y)
                    }
                    None => StreamStep::Dead,
                };
            }
            // A held candidate may only be emitted once it is strictly
            // cheaper than anything an unexpanded shell could contain
            // (on an exact cost tie, an unseen point with a smaller id
            // could still exist — defer to the bound marker).
            let bound = model.cost_of_distance(idx.shell_min_dist(u, self.ring));
            return match top {
                Some((c, y)) if c < bound => {
                    self.pop(work);
                    StreamStep::Candidate(c, y)
                }
                _ => StreamStep::Bound(bound),
            };
        }
    }

    /// Expand the next shell, inserting the not-yet-finalised points of
    /// its live cells. Returns how many points those cells hold.
    fn expand(
        &mut self,
        idx: &GridIndex,
        points: &[Point],
        model: &PowerModel,
        done: &[bool],
        live: &LiveCells,
        u: usize,
    ) -> u64 {
        debug_assert!(!self.exhausted, "markers are only queued for live streams");
        let mut visited = 0u64;
        idx.for_live_shell(u, self.ring, &live.bits, |c| {
            let cell = idx.cell_points(c);
            visited += cell.len() as u64;
            for &p in cell {
                if p as usize != u && !done[p as usize] {
                    let c = model.cost(&points[u], &points[p as usize]);
                    self.heap.push(Reverse((OrdF64(c), p)));
                }
            }
        });
        if self.ring >= idx.last_shell(u) {
            self.exhausted = true;
        }
        self.ring += 1;
        visited
    }
}

/// Canonical spatial growth over a Euclidean point set: the same
/// abstract process as [`grow_tree_dense`] on
/// `CostMatrix::from_points(points, model)`, without materialising any
/// `O(n²)` state. Returns a byte-identical parent array.
pub fn grow_tree_spatial(
    points: &[Point],
    model: &PowerModel,
    source: usize,
    kind: TreeKind,
) -> Vec<Option<usize>> {
    grow_tree_spatial_counted(points, model, source, kind).0
}

/// [`grow_tree_spatial`], also returning the work it did.
pub(crate) fn grow_tree_spatial_counted(
    points: &[Point],
    model: &PowerModel,
    source: usize,
    kind: TreeKind,
) -> (Vec<Option<usize>>, GrowthWork) {
    let n = points.len();
    assert!(source < n, "source out of range");
    u32::try_from(n).expect("spatial growth point count fits in u32");
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut work = GrowthWork::default();
    if n == 1 {
        return (parent, work);
    }
    let idx = GridIndex::new(points);
    let mut live = LiveCells::new(&idx);
    // Refresh the dead-ring distances 32 times over the growth. Each
    // refresh costs O(cells · 3^d); at n = 10⁵ (uniform, d = 2, 2-vCPU
    // host) refreshing every n/8, n/32, n/128 and n/512 finalisations
    // measured 0.91, 0.73, 0.90 and 1.11 s of SPT growth.
    let refresh_every = n.div_ceil(32);
    let mut dist = vec![0.0f64; n];
    let mut done = vec![false; n];
    let mut streams: Vec<Option<NeighborStream>> = (0..n).map(|_| None).collect();
    // Global queue of per-stream entries (key, via, vertex): real
    // candidates carry the target's id, bound markers carry MARKER.
    // MARKER exceeds every vertex id, so at an exact (key, via) tie the
    // real candidate pops first — deferral never reorders selections.
    const MARKER: u32 = u32::MAX;
    let mut pq: BinaryHeap<Reverse<(OrdF64, u32, u32)>> = BinaryHeap::new();

    let arm = |v: usize,
               streams: &mut Vec<Option<NeighborStream>>,
               pq: &mut BinaryHeap<Reverse<(OrdF64, u32, u32)>>,
               dist: &[f64],
               done: &[bool],
               live: &LiveCells,
               work: &mut GrowthWork| {
        let s = streams[v].get_or_insert_with(NeighborStream::new);
        let (c, y) = match s.step(&idx, model, done, live, v, work) {
            StreamStep::Candidate(c, y) => (c, y),
            StreamStep::Bound(b) => (b, MARKER),
            StreamStep::Dead => return,
        };
        let k = match kind {
            TreeKind::Spt => dist[v] + c,
            TreeKind::Mst => c,
        };
        pq.push(Reverse((
            OrdF64(k),
            u32::try_from(v).expect("vertex id fits in u32"),
            y,
        )));
    };

    done[source] = true;
    live.finalise(&idx, source);
    let mut finalized = 1usize;
    arm(
        source,
        &mut streams,
        &mut pq,
        &dist,
        &done,
        &live,
        &mut work,
    );

    while finalized < n {
        let Reverse((OrdF64(k), u, y)) = pq
            .pop()
            .expect("complete Euclidean graphs keep a candidate pending until spanning");
        work.pops += 1;
        let u = u as usize;
        if y == MARKER {
            // The stream's unexpanded bound reached the global minimum:
            // now (and only now) expand the next shell and re-offer.
            let s = streams[u]
                .as_mut()
                .expect("markers come from armed streams");
            let (len, capacity) = (s.heap.len(), s.heap.capacity());
            work.expansions += 1;
            work.points_visited += s.expand(&idx, points, model, &done, &live, u);
            work.buffered(s.heap.len() - len, s.heap.capacity() - capacity);
            arm(u, &mut streams, &mut pq, &dist, &done, &live, &mut work);
            continue;
        }
        let y = y as usize;
        // Re-arm the popped stream so its next head re-enters the queue.
        arm(u, &mut streams, &mut pq, &dist, &done, &live, &mut work);
        if done[y] {
            continue;
        }
        done[y] = true;
        parent[y] = Some(u);
        dist[y] = k;
        finalized += 1;
        live.finalise(&idx, y);
        if finalized.is_multiple_of(refresh_every) {
            live.refresh(&idx);
        }
        arm(y, &mut streams, &mut pq, &dist, &done, &live, &mut work);
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
    use wmcs_geom::{LayoutFamily, Scenario};

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
                    let spatial = grow_tree_spatial(&pts, &model, 0, kind);
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
                grow_tree_spatial(&pts, &model, 0, kind),
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
    /// set with duplicates, and the two layouts whose streams buffer the
    /// deepest shells (a 10:1 strip and four tight clusters), so that
    /// buffers released mid-growth are exercised. The cases run one after
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
                    grow_tree_spatial(&pts, &model, 0, kind),
                    "{label} {kind:?}"
                );
            }
        }
    }

    /// Pins the growth's work and memory, not its clock: points visited
    /// and peak retained candidate entries per station at n = 16,384
    /// (uniform in a square of side √n·10, α = 2, source 0, `SmallRng`
    /// seed 7) may not exceed 1.25× what the live-cell walk, the dead-ring
    /// skip and the release of drained stream buffers measure here.
    /// Measured per station:
    ///
    /// | count | SPT | MST |
    /// |---|---|---|
    /// | points visited | 17.72 | 10.81 |
    /// | shell expansions | 4.88 | 2.70 |
    /// | queue pops | 7.93 | 4.89 |
    /// | peak retained entries | 1.23 | 8.43 |
    /// | peak live entries | 0.53 | 3.64 |
    ///
    /// The growth before those two mechanisms measured, on this instance,
    /// 396.5 / 49.0 points visited, 7.62 / 2.97 shell expansions and
    /// 10.67 / 5.15 queue pops per station (SPT / MST); another uniform
    /// instance of the same size measured 373.6 / 49.6, 7.40 / 2.98 and
    /// 10.45 / 5.16. Before drained buffers were released, peak retained
    /// entries read 15.40 / 12.07 per station at the same peak live.
    ///
    /// Peak retained entries may also not exceed 3× peak live ones, here
    /// and on a 10:1 strip at n = 4,096 (`strip_points`, seed 17), where
    /// SPT streams buffer the deepest shells. Released buffers measure
    /// 2.30 / 2.32 here and 2.36 / 1.55 on the strip (SPT / MST); kept
    /// ones measured 28.9 / 3.32 and 3.18 / 1.59.
    #[test]
    fn growth_work_per_station_is_pinned() {
        let n = 16_384;
        let side = (n as f64).sqrt() * 10.0;
        let mut rng = SmallRng::seed_from_u64(7);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::xy(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect();
        let model = PowerModel::free_space();
        for (kind, visited, retained) in
            [(TreeKind::Spt, 17.72, 1.23), (TreeKind::Mst, 10.81, 8.43)]
        {
            let (_, work) = grow_tree_spatial_counted(&pts, &model, 0, kind);
            let per_station = |count: u64| count as f64 / n as f64;
            assert!(
                per_station(work.points_visited) <= 1.25 * visited,
                "{kind:?}: {:.2} points visited per station, pinned at {visited} \
                 ({:.2} expansions, {:.2} pops per station)",
                per_station(work.points_visited),
                per_station(work.expansions),
                per_station(work.pops)
            );
            assert!(
                per_station(work.peak_retained) <= 1.25 * retained,
                "{kind:?}: {:.2} peak retained entries per station, pinned at {retained} \
                 ({:.2} peak live)",
                per_station(work.peak_retained),
                per_station(work.peak_live)
            );
        }
        let strip = strip_points(4096, 10.0, 17);
        for (label, pts) in [("uniform n=16384", &pts), ("10:1 strip n=4096", &strip)] {
            for kind in [TreeKind::Spt, TreeKind::Mst] {
                let (_, work) = grow_tree_spatial_counted(pts, &model, 0, kind);
                assert!(
                    work.peak_retained <= 3 * work.peak_live,
                    "{label} {kind:?}: peak retained {} entries, over 3× peak live {}",
                    work.peak_retained,
                    work.peak_live
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
                let spatial = grow_tree_spatial(&pts, &model, source, kind);
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
