//! Incremental Moulin–Shenker engine for universal-tree cost sharing.
//!
//! The Moulin–Shenker iteration over a universal tree repeatedly drops
//! receivers who cannot afford their Shapley share. The naive driver
//! rebuilds `T(R)` and redistributes every power increment from scratch
//! each round — `O(n · depth)` per round and `O(n³)` worst case per
//! mechanism run — which capped every sweep at n ≈ 8–64. This module
//! keeps the run-long state *incremental*:
//!
//! * [`IncrementalShapley`] maintains, per station, the number of active
//!   receivers in its subtree (`T(R)` membership is exactly
//!   `rb[v] > 0`), plus the active children of every station as a
//!   cost-ordered doubly-linked list. Dropping a receiver updates both
//!   in `O(path to the root)`; a round's shares are one `O(|T(R)|)`
//!   top-down pass that turns the paper's per-increment split (§2.1)
//!   into prefix sums `down[y_i] = down[x] + Σ_{j≤i} δ_j / users_j`.
//!   A full run therefore costs `O(rounds · |T(R)| + Σ dropped path
//!   lengths)` — `O(n log n + total path length)` for the typical
//!   logarithmic round count, `O(n²)` worst case, versus the naive
//!   `O(n³)`.
//! * [`NetWorthOracle`] runs the largest-efficient-set DP once and then
//!   answers the MC/VCG queries "net worth with station `x`'s utility
//!   zeroed" in `O(depth)` via per-station prefix/suffix maxima, instead
//!   of one full `O(n)` DP per receiver.
//!
//! Both structures are also **mutable in place** — the substrate of the
//! live sessions in [`crate::session`]:
//!
//! | operation | cost | invariant |
//! |---|---|---|
//! | [`IncrementalShapley::drop_receiver`] | `O(depth)` | state equals a fresh build on the shrunken set |
//! | [`IncrementalShapley::add_receiver`] | `O(depth + sibling scans)` | state equals a fresh build on the enlarged set |
//! | [`IncrementalShapley::round_shares_by_station`] | `O(\|T(R)\|)` | the paper's §2.1 split on the current set |
//! | [`IncrementalShapley::served_cost`] | `O(\|T(R)\| log \|T(R)\|)` | `UniversalTree::multicast_cost` of the current set, bit for bit |
//! | [`NetWorthOracle::set_utility`] | `O(Σ deg over the dirty path prefix)` | every stored float equals a fresh DP's |
//! | [`NetWorthOracle::net_worth_zeroing`] | `O(depth)` | agrees with a full DP on the zeroed profile |
//!
//! The "equals a fresh build" invariants are what make a warm session
//! *byte-identical* to a cold rebuild — the property suites
//! (`tests/incremental_props.rs`, `tests/session_props.rs`) and
//! experiments T10/T11 pin them.
//!
//! Both universal-tree mechanisms in `wmcs-mechanisms` delegate here,
//! and the drop loop itself is the shared index-set driver
//! [`wmcs_game::run_drop_loop`] (resumable variant:
//! [`wmcs_game::run_drop_loop_from`], used by [`shapley_drop_run_from`]
//! and the sessions of both layouts) — the same iteration the
//! mask-based [`wmcs_game::moulin_shenker`] (n ≤ 64) routes through, so
//! they cannot diverge on EPS conventions. [`reference_drop_run`]
//! preserves the naive per-round recomputation as the correctness
//! oracle; the property suite pins the incremental outcome to it byte
//! for byte.

use crate::power::PowerAssignment;
use crate::session::NetWorthQueries;
use crate::substrate::{NodeId, NO_STATION};
use crate::universal::UniversalTree;
use wmcs_game::{run_drop_loop, run_drop_loop_from, DropLoopMethod, MechanismOutcome};

/// Local alias for the dense-array sentinel shared with the substrate.
const NONE: usize = NO_STATION;

/// Run statistics of one incremental drop-loop execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropStats {
    /// Rounds executed (share recomputations), including the fixpoint
    /// round.
    pub rounds: usize,
    /// Players dropped over the whole run.
    pub dropped: usize,
}

/// Incremental state of a Moulin–Shenker run over a universal tree:
/// the active receiver set, `T(R)` membership via subtree receiver
/// counts, and the active children of every station in ascending
/// edge-cost order.
#[derive(Debug, Clone)]
pub struct IncrementalShapley {
    /// `O(1)`-clone handle on the shared substrate (parent array,
    /// cost-sorted CSR children and BFS order all live there, once).
    ut: UniversalTree,
    /// Is the station an active receiver?
    in_r: Vec<bool>,
    /// Active receivers in the station's universal-tree subtree;
    /// `rb[v] > 0` ⟺ `v ∈ T(R) \ {source}`. `u32` — counts are bounded
    /// by the substrate's `n < u32::MAX` invariant, so the warm arrays
    /// ride the same memory diet as the substrate's id state.
    rb: Vec<u32>,
    /// Intrusive cost-ordered list of each station's children with
    /// `rb > 0` (`first_child[x]` → `next_sib` chain; `prev_sib` makes
    /// unlinking O(1)). Compact [`NodeId`] links, [`NodeId::NONE`] ends
    /// a chain — half the bytes of the former `usize` layout.
    first_child: Vec<NodeId>,
    next_sib: Vec<NodeId>,
    prev_sib: Vec<NodeId>,
    /// Scratch: accumulated root-path share prefix per station.
    down: Vec<f64>,
    /// Scratch: per-station shares of the last round.
    shares: Vec<f64>,
    /// Scratch: DFS stack.
    stack: Vec<usize>,
    rounds: usize,
}

impl IncrementalShapley {
    /// Engine over `receivers` (station indices; the source is not a
    /// receiver). Construction is `O(n)`; the per-universe state (parent
    /// array, sorted children, BFS order) is borrowed from the shared
    /// substrate, so G engines over one universe allocate only their
    /// per-group vectors.
    pub fn new(ut: &UniversalTree, receivers: &[usize]) -> Self {
        let sub = ut.substrate();
        let net = ut.network();
        let n = net.n_stations();
        let s = net.source();
        let mut in_r = vec![false; n];
        for &r in receivers {
            assert!(r != s, "the source cannot be a receiver");
            in_r[r] = true;
        }
        // Subtree receiver counts, children before parents.
        let mut rb = vec![0u32; n];
        for &v in sub.bfs_order().iter().rev() {
            let v = v.index();
            let mut cnt = u32::from(in_r[v]);
            for &y in sub.sorted_children(v) {
                cnt += rb[y.index()];
            }
            rb[v] = cnt;
        }
        // Link the active children of every station in cost order.
        let mut first_child = vec![NodeId::NONE; n];
        let mut next_sib = vec![NodeId::NONE; n];
        let mut prev_sib = vec![NodeId::NONE; n];
        for v in 0..n {
            let mut prev = NodeId::NONE;
            for &y in sub.sorted_children(v) {
                if rb[y.index()] == 0 {
                    continue;
                }
                if prev.is_none() {
                    first_child[v] = y;
                } else {
                    next_sib[prev.index()] = y;
                }
                prev_sib[y.index()] = prev;
                prev = y;
            }
        }
        Self {
            ut: ut.clone(),
            in_r,
            rb,
            first_child,
            next_sib,
            prev_sib,
            down: vec![0.0; n],
            shares: vec![0.0; n],
            stack: Vec::with_capacity(n),
            rounds: 0,
        }
    }

    /// The paper's per-increment Shapley split (§2.1) for the current
    /// receiver set, as one `O(|T(R)|)` top-down pass. For station `x`
    /// with active children `y_1 … y_k` (ascending cost), increment
    /// `δ_i = c(x,y_i) − c(x,y_{i−1})` is worth `δ_i / users_i` to every
    /// receiver below `y_i … y_k`, so the accumulated prefix
    /// `down[y_i] = down[x] + Σ_{j≤i} δ_j / users_j` *is* the share of
    /// every receiver whose root path enters `x` through `y_i`.
    /// Returns per-station shares (stale entries outside the active set
    /// are not cleared; callers index by active receivers only).
    /// Each receiver's entry is [`UniversalTree::shapley_shares`]'s bit
    /// for bit — the same slices `δ_i / users_i` (`δ ≤ 0` skipped) added
    /// to `+0.0` root first — so the drop loop charges its fixpoint round.
    pub fn round_shares_by_station(&mut self) -> &[f64] {
        self.rounds += 1;
        let sub = self.ut.substrate().clone();
        let net = sub.network();
        let s = net.source();
        self.down[s] = 0.0;
        self.stack.clear();
        self.stack.push(s);
        while let Some(x) = self.stack.pop() {
            if self.in_r[x] {
                self.shares[x] = self.down[x];
            }
            // Receivers strictly below x: its own subtree count minus x.
            let mut remaining = self.rb[x] - u32::from(self.in_r[x]);
            let mut prev_cost = 0.0;
            let mut acc = self.down[x];
            let mut y = self.first_child[x];
            while !y.is_none() {
                let yi = y.index();
                // Cached tree-edge cost — bit-identical to net.cost(x, y).
                let cost = sub.parent_cost(yi);
                let delta = cost - prev_cost;
                prev_cost = cost;
                if delta > 0.0 {
                    debug_assert!(remaining > 0, "every active branch has a receiver");
                    acc += delta / remaining as f64;
                }
                self.down[yi] = acc;
                remaining -= self.rb[yi];
                self.stack.push(yi);
                y = self.next_sib[yi];
            }
        }
        &self.shares
    }

    /// Drop receiver `r`: decrement the subtree counts on its root path
    /// and unlink stations whose subtree just emptied. `O(depth of r)`.
    pub fn drop_receiver(&mut self, r: usize) {
        debug_assert!(self.in_r[r], "station {r} is not an active receiver");
        self.in_r[r] = false;
        let sub = self.ut.substrate().clone();
        let mut v = r;
        loop {
            self.rb[v] -= 1;
            let p = sub.parent_of(v);
            if p == NONE {
                break;
            }
            if self.rb[v] == 0 {
                // v left T(R): unlink it from p's active children.
                let (pr, nx) = (self.prev_sib[v], self.next_sib[v]);
                if pr.is_none() {
                    self.first_child[p] = nx;
                } else {
                    self.next_sib[pr.index()] = nx;
                }
                if !nx.is_none() {
                    self.prev_sib[nx.index()] = pr;
                }
            }
            v = p;
        }
    }

    /// Add receiver `r` (the inverse of [`IncrementalShapley::drop_receiver`],
    /// used by live sessions to serve `Join` events from warm state):
    /// increment the subtree counts on its root path and splice stations
    /// whose subtree just became non-empty into their parent's
    /// active-children list at the cost-ordered position. `O(depth of r +
    /// Σ sibling scans)`; the resulting state is identical to rebuilding
    /// the engine from scratch on the enlarged receiver set, which is what
    /// keeps a warm session byte-identical to a cold start.
    pub fn add_receiver(&mut self, r: usize) {
        debug_assert!(!self.in_r[r], "station {r} is already an active receiver");
        assert!(
            r != self.ut.network().source(),
            "the source cannot be a receiver"
        );
        let sub = self.ut.substrate().clone();
        self.in_r[r] = true;
        let mut v = r;
        loop {
            self.rb[v] += 1;
            let p = sub.parent_of(v);
            if p == NONE {
                break;
            }
            if self.rb[v] == 1 {
                // v entered T(R): splice it into p's active children just
                // after its nearest active cost-order predecessor.
                let kids = sub.sorted_children(p);
                let mut pr = NodeId::NONE;
                for &y in kids[..sub.pos_in_parent(v)].iter().rev() {
                    if self.rb[y.index()] > 0 {
                        pr = y;
                        break;
                    }
                }
                let nx = if pr.is_none() {
                    self.first_child[p]
                } else {
                    self.next_sib[pr.index()]
                };
                let vid = NodeId::from_index(v);
                self.prev_sib[v] = pr;
                self.next_sib[v] = nx;
                if pr.is_none() {
                    self.first_child[p] = vid;
                } else {
                    self.next_sib[pr.index()] = vid;
                }
                if !nx.is_none() {
                    self.prev_sib[nx.index()] = vid;
                }
            }
            v = p;
        }
    }

    /// The served cost `C_T(R)` of the current receiver set, read off the
    /// warm `T(R)`: every station with active children emits the cost of
    /// the last (costliest) one, and `PowerAssignment::total_cost_of`
    /// sums those powers in ascending station id — bit for bit
    /// [`UniversalTree::multicast_cost`] on the active stations.
    /// `O(|T(R)| log |T(R)|)`.
    pub fn served_cost(&mut self) -> f64 {
        let sub = self.ut.substrate();
        let mut powers = Vec::new();
        self.stack.clear();
        self.stack.push(sub.network().source());
        while let Some(x) = self.stack.pop() {
            let mut last = NodeId::NONE;
            let mut y = self.first_child[x];
            while !y.is_none() {
                self.stack.push(y.index());
                last = y;
                y = self.next_sib[y.index()];
            }
            if !last.is_none() {
                powers.push((x, sub.parent_cost(last.index())));
            }
        }
        PowerAssignment::total_cost_of(&mut powers)
    }

    /// Is station `v` currently an active receiver?
    pub fn is_active(&self, v: usize) -> bool {
        self.in_r[v]
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Heap bytes of this engine's per-session state. The shared
    /// substrate is *excluded*: it is allocated once per universe, not
    /// per group, which is exactly the accounting the memory-diet
    /// experiments need (`G` engines over one universe pay `G ×` this
    /// figure plus one substrate).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.in_r.capacity() * size_of::<bool>()
            + self.rb.capacity() * size_of::<u32>()
            + (self.first_child.capacity() + self.next_sib.capacity() + self.prev_sib.capacity())
                * size_of::<NodeId>()
            + (self.down.capacity() + self.shares.capacity()) * size_of::<f64>()
            + self.stack.capacity() * size_of::<usize>()
    }
}

/// Coalition-indexed [`DropLoopMethod`] over a borrowed incremental
/// engine: position `i` of the driver's coalition is station
/// `stations[i]`. Borrowing (rather than owning) the engine is what lets
/// a live session ([`crate::session::ShapleySession`]) keep the same
/// engine warm across many drop-loop runs.
pub(crate) struct PlayerAdapter<'e> {
    pub(crate) engine: &'e mut IncrementalShapley,
    pub(crate) stations: &'e [usize],
}

impl DropLoopMethod for PlayerAdapter<'_> {
    fn n_players(&self) -> usize {
        self.engine.ut.network().n_players()
    }

    fn round_shares_into(&mut self, out: &mut Vec<f64>) {
        let by_station = self.engine.round_shares_by_station();
        out.clear();
        out.extend(self.stations.iter().map(|&x| by_station[x]));
    }

    fn drop_player(&mut self, i: usize) {
        self.engine.drop_receiver(self.stations[i]);
    }

    fn served_cost(&mut self) -> f64 {
        self.engine.served_cost()
    }
}

/// Run `M(Shapley)` over a universal tree with the incremental engine.
/// Equivalent to [`reference_drop_run`] (property-tested byte for byte),
/// with no 64-player cap.
pub fn shapley_drop_run(ut: &UniversalTree, reported: &[f64]) -> MechanismOutcome {
    shapley_drop_run_with_stats(ut, reported).0
}

/// [`shapley_drop_run`], also reporting round/drop counts.
pub fn shapley_drop_run_with_stats(
    ut: &UniversalTree,
    reported: &[f64],
) -> (MechanismOutcome, DropStats) {
    // Player p's station is the p-th non-source station.
    let stations = ut.network().non_source_stations();
    let mut engine = IncrementalShapley::new(ut, &stations);
    let out = run_drop_loop(
        &mut PlayerAdapter {
            engine: &mut engine,
            stations: &stations,
        },
        reported,
    );
    let stats = DropStats {
        rounds: engine.rounds(),
        dropped: reported.len() - out.receivers.len(),
    };
    (out, stats)
}

/// Cold-start a Moulin–Shenker run from an explicit **player** subset:
/// build a fresh engine on exactly those receivers and run the drop loop
/// from them (not from `U`). This is the from-scratch reference a warm
/// [`crate::session::ShapleySession`] must match byte for byte after
/// every churn batch, and the "cold" side of the `session_churn` bench.
///
/// `players` must be strictly ascending; `reported` is full length
/// (entries outside `players` are ignored).
pub fn shapley_drop_run_from(
    ut: &UniversalTree,
    reported: &[f64],
    players: &[usize],
) -> MechanismOutcome {
    let net = ut.network();
    let stations: Vec<usize> = players.iter().map(|&p| net.station_of_player(p)).collect();
    let bids: Vec<f64> = players.iter().map(|&p| reported[p]).collect();
    let mut engine = IncrementalShapley::new(ut, &stations);
    run_drop_loop_from(
        &mut PlayerAdapter {
            engine: &mut engine,
            stations: &stations,
        },
        &bids,
        players,
    )
}

/// The naive pre-incremental driver: every round recomputes the full
/// [`UniversalTree::shapley_shares`] on the surviving station set —
/// `O(n · depth)` per round. Kept verbatim as the correctness reference
/// for the engine (tests, T10's n = 64 identity column, and the
/// `drop_engine` criterion bench).
pub fn reference_drop_run(ut: &UniversalTree, reported: &[f64]) -> MechanismOutcome {
    let net = ut.network();
    let n = net.n_players();
    assert_eq!(reported.len(), n);
    let mut in_set: Vec<bool> = vec![true; n];
    loop {
        let stations: Vec<usize> = (0..n)
            .filter(|&p| in_set[p])
            .map(|p| net.station_of_player(p))
            .collect();
        let shares_by_station = ut.shapley_shares(&stations);
        let mut dropped_any = false;
        for p in 0..n {
            if in_set[p] {
                let share = shares_by_station[net.station_of_player(p)];
                // Keep only bids ≥ share − EPS: a NaN bid is dropped.
                if reported[p].is_nan() || reported[p] < share - wmcs_geom::EPS {
                    in_set[p] = false;
                    dropped_any = true;
                }
            }
        }
        if !dropped_any {
            let receivers: Vec<usize> = (0..n).filter(|&p| in_set[p]).collect();
            let mut shares = vec![0.0; n];
            for &p in &receivers {
                shares[p] = shares_by_station[net.station_of_player(p)];
            }
            let served_cost = ut.multicast_cost(&stations);
            return MechanismOutcome {
                receivers,
                shares,
                served_cost,
            };
        }
    }
}

/// The largest-efficient-set DP (§2.1) with `O(depth)` re-query after
/// zeroing one station's utility — the inner loop of the MC/VCG
/// mechanism, which needs `NW(u_{−i})` for every receiver `i`.
///
/// The bottom-up pass stores, per station, the prefix sums
/// `val_j = Σ_{i≤j} h(y_i) − c(x, y_j)` folded into prefix maxima
/// (`pre[j] = max(0, val_0 … val_{j−1})`) and suffix maxima
/// (`suf[j] = max(val_j … val_{k−1})`). Zeroing a station shifts every
/// `val_j` of its parent with `j ≥ pos` by the same `δ = h' − h`, so the
/// parent's new best prefix is `max(pre[pos], suf[pos] + δ)` — `O(1)`
/// per ancestor instead of `O(children)`.
///
/// Value comparisons are exact (total order, larger prefix only on true
/// ties), fixing the EPS drift that could return a set disagreeing with
/// the reported net worth.
#[derive(Debug, Clone)]
pub struct NetWorthOracle {
    /// `O(1)`-clone handle on the shared substrate.
    ut: UniversalTree,
    /// Utilities by station, as given (the DP clamps at 0 on use).
    u: Vec<f64>,
    /// `h[v]`: best net worth of the subtree game rooted at `v`.
    h: Vec<f64>,
    /// The chosen best prefix value at `v` (`h[v] = own(v) + best[v]`).
    best: Vec<f64>,
    /// Chosen prefix length at `v` (0 = serve no child branch). `u32` —
    /// bounded by the station's degree, so it rides the same memory diet
    /// as the link arrays.
    choice: Vec<u32>,
    /// `pre[offset(v) + j] = max(0, val_0 … val_{j−1})` — flat per-edge
    /// array indexed through the substrate's CSR offsets (one allocation
    /// instead of a `Vec<Vec<f64>>` per oracle; the substrate refactor's
    /// memory layout applied to the DP state).
    pre: Vec<f64>,
    /// `suf[offset(v) + j] = max(val_j … val_{k−1})`, same flat layout.
    suf: Vec<f64>,
}

impl NetWorthOracle {
    /// Run the bottom-up DP once: `O(n)`.
    pub fn new(ut: &UniversalTree, u: &[f64]) -> Self {
        let sub = ut.substrate().clone();
        let n = sub.network().n_stations();
        assert_eq!(u.len(), n);
        let n_edges = sub.n_edges();
        let mut oracle = Self {
            ut: ut.clone(),
            u: u.to_vec(),
            h: vec![0.0f64; n],
            best: vec![0.0f64; n],
            choice: vec![0u32; n],
            pre: vec![0.0f64; n_edges],
            suf: vec![f64::NEG_INFINITY; n_edges],
        };
        for &v in sub.bfs_order().iter().rev() {
            oracle.recompute_station(&sub, v.index());
        }
        oracle
    }

    /// Recompute every stored DP quantity at station `v` from its
    /// children's current `h` values — the per-station kernel shared by
    /// the full bottom-up pass ([`NetWorthOracle::new`]) and the `O(path)`
    /// utility update ([`NetWorthOracle::set_utility`]). Sharing one
    /// kernel is what makes an updated oracle *byte-identical* to a
    /// freshly built one: both run the same arithmetic on the same
    /// inputs. `O(children of v)`.
    fn recompute_station(&mut self, sub: &crate::substrate::TreeSubstrate, v: usize) {
        let net = sub.network();
        let s = net.source();
        let kids = sub.sorted_children(v);
        let k = kids.len();
        let base = sub.csr_offset(v);
        let own = if v == s { 0.0 } else { self.u[v].max(0.0) };
        // Raw prefix values go into the suf slice first (it is rewritten
        // into suffix maxima in place below), so no per-call allocation.
        let mut acc = 0.0f64;
        for (j, &y) in kids.iter().enumerate() {
            let y = y.index();
            acc += self.h[y];
            // Cached tree-edge cost — bit-identical to net.cost(v, y).
            self.suf[base + j] = acc - sub.parent_cost(y);
        }
        // Exact total order on value; larger prefix on true ties.
        let mut b = 0.0f64;
        let mut bj = 0usize;
        for j in 0..k {
            let val = self.suf[base + j];
            if val >= b {
                b = val;
                bj = j + 1;
            }
        }
        // pre[j] = max(0, val_0 … val_{j−1}): running maximum.
        let mut run = 0.0f64;
        for j in 0..k {
            self.pre[base + j] = run;
            run = run.max(self.suf[base + j]);
        }
        // Fold the raw values into suffix maxima, right to left.
        for j in (0..k.saturating_sub(1)).rev() {
            self.suf[base + j] = self.suf[base + j].max(self.suf[base + j + 1]);
        }
        self.h[v] = own + b;
        self.best[v] = b;
        self.choice[v] = u32::try_from(bj).expect("child count fits u32");
    }

    /// Replace station `x`'s utility and repair the DP along `x`'s root
    /// path — the warm-state analogue of rebuilding the oracle on the
    /// modified profile, used by [`crate::session::McSession`] to absorb
    /// churn events. Costs `O(Σ children over the dirty prefix of the
    /// path)` and stops as soon as an ancestor's `h` is unchanged (its
    /// parent only sees `h`). The updated oracle equals
    /// `NetWorthOracle::new(ut, modified_u)` in every stored float.
    pub fn set_utility(&mut self, x: usize, utility: f64) {
        let sub = self.ut.substrate().clone();
        let s = sub.network().source();
        assert!(x != s, "the source has no utility");
        self.u[x] = utility;
        // x's own prefix arrays depend only on its children, which are
        // untouched — only own(x) changes.
        let old = self.h[x];
        self.h[x] = utility.max(0.0) + self.best[x];
        if self.h[x] == old {
            return;
        }
        let mut v = x;
        while v != s {
            let p = sub.parent_of(v);
            debug_assert!(p != NONE, "non-source station has a parent");
            let before = self.h[p];
            self.recompute_station(&sub, p);
            if self.h[p] == before {
                return;
            }
            v = p;
        }
    }

    /// The full station-indexed utility vector the oracle currently
    /// holds (what a cold `NetWorthOracle::new` rebuild would consume).
    pub fn utilities(&self) -> &[f64] {
        &self.u
    }

    /// Maximal net worth `NW(u)`.
    pub fn net_worth(&self) -> f64 {
        self.h[self.ut.network().source()]
    }

    /// Heap bytes of this oracle's per-session state (the shared
    /// substrate is excluded, exactly as in
    /// [`IncrementalShapley::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.u.capacity()
            + self.h.capacity()
            + self.best.capacity()
            + self.pre.capacity()
            + self.suf.capacity())
            * size_of::<f64>()
            + self.choice.capacity() * size_of::<u32>()
    }
}

impl NetWorthQueries for NetWorthOracle {
    /// Walks the chosen prefixes down from the source; each reached
    /// station emits the cost of the last child in its prefix.
    fn efficient_set(&self) -> (Vec<usize>, f64, f64) {
        let sub = self.ut.substrate();
        let s = sub.network().source();
        let mut reached = Vec::new();
        let mut stack = vec![s];
        while let Some(v) = stack.pop() {
            let mut power = 0.0;
            for y in sub.sorted_children(v).iter().take(self.choice[v] as usize) {
                power = sub.parent_cost(y.index());
                stack.push(y.index());
            }
            reached.push((v, power));
        }
        let served_cost = PowerAssignment::total_cost_of(&mut reached);
        let stations = reached
            .iter()
            .map(|&(v, _)| v)
            .filter(|&v| v != s)
            .collect();
        (stations, self.net_worth(), served_cost)
    }

    /// Agrees with a full DP on the modified profile up to float
    /// reassociation (pinned by property tests).
    fn net_worth_zeroing(&self, x: usize) -> f64 {
        let sub = self.ut.substrate();
        let s = sub.network().source();
        assert!(x != s, "the source has no utility to zero");
        // Zeroing only lowers own(x); the subtree below x is unchanged.
        let mut v = x;
        let mut hv = self.best[x];
        while v != s {
            if hv == self.h[v] {
                // Nothing changed at v, so nothing changes above it.
                return self.h[s];
            }
            let p = sub.parent_of(v);
            debug_assert!(p != NONE, "non-source station has a parent");
            let j = sub.csr_offset(p) + sub.pos_in_parent(v);
            let delta = hv - self.h[v];
            let b = self.pre[j].max(self.suf[j] + delta);
            let own_p = if p == s { 0.0 } else { self.u[p].max(0.0) };
            hv = own_p + b;
            v = p;
        }
        hv
    }

    fn utility(&self, x: usize) -> f64 {
        self.u[x]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SubstrateBuilder, TreeKind};
    use crate::network::WirelessNetwork;
    use crate::sparse::SparseShapley;
    use crate::substrate::Subframe;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_geom::{approx_eq, Point, PowerModel};
    use wmcs_graph::RootedTree;

    fn random_tree(seed: u64, n: usize) -> UniversalTree {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::xy(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        if seed.is_multiple_of(2) {
            SubstrateBuilder::new(&net)
                .tree(TreeKind::Spt)
                .build_universal()
        } else {
            SubstrateBuilder::new(&net)
                .tree(TreeKind::Mst)
                .build_universal()
        }
    }

    /// Chain 0 → 1 → 2 plus branch 1 → 3 (the universal.rs fixture).
    fn chain_tree() -> UniversalTree {
        let pts = vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
            Point::xy(2.0, 0.0),
            Point::xy(1.0, 2.0),
        ];
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        let tree = RootedTree::from_parents(0, vec![None, Some(0), Some(1), Some(1)]);
        SubstrateBuilder::from_owned(net)
            .explicit_tree(tree)
            .build_universal()
    }

    /// Both warm Shapley engines behind one station-keyed interface, so
    /// the round-pass identities below pin the dense and the frame-local
    /// layout alike.
    trait Engine {
        fn build(ut: &UniversalTree, receivers: &[usize]) -> Self;
        fn join(&mut self, station: usize);
        fn leave(&mut self, station: usize);
        /// One round pass, read back at `stations`.
        fn round_at(&mut self, stations: &[usize]) -> Vec<f64>;
    }

    impl Engine for IncrementalShapley {
        fn build(ut: &UniversalTree, receivers: &[usize]) -> Self {
            IncrementalShapley::new(ut, receivers)
        }
        fn join(&mut self, station: usize) {
            self.add_receiver(station);
        }
        fn leave(&mut self, station: usize) {
            self.drop_receiver(station);
        }
        fn round_at(&mut self, stations: &[usize]) -> Vec<f64> {
            let by_station = self.round_shares_by_station();
            stations.iter().map(|&x| by_station[x]).collect()
        }
    }

    /// The frame-local engine plus the local id of every station it has
    /// framed (stable: the frame is append-only).
    struct Sparse {
        engine: SparseShapley,
        local: Vec<u32>,
    }

    impl Engine for Sparse {
        fn build(ut: &UniversalTree, receivers: &[usize]) -> Self {
            let mut e = Sparse {
                engine: SparseShapley::new(ut),
                local: vec![Subframe::NONE; ut.network().n_stations()],
            };
            for &x in receivers {
                e.join(x);
            }
            e
        }
        fn join(&mut self, station: usize) {
            self.local[station] = self.engine.add_receiver(station);
        }
        fn leave(&mut self, station: usize) {
            self.engine.drop_receiver_local(self.local[station]);
        }
        fn round_at(&mut self, stations: &[usize]) -> Vec<f64> {
            let by_local = self.engine.round_shares_by_local();
            stations
                .iter()
                .map(|&x| by_local[self.local[x] as usize])
                .collect()
        }
    }

    /// The engine's round pass on `alive` equals the reference split
    /// [`UniversalTree::shapley_shares`] bit for bit — the identity that
    /// lets the drop loop charge its fixpoint round.
    fn assert_round_is_the_split(engine: &mut impl Engine, ut: &UniversalTree, alive: &[usize]) {
        let fast = engine.round_at(alive);
        let reference = ut.shapley_shares(alive);
        for (&r, f) in alive.iter().zip(&fast) {
            assert_eq!(
                f.to_bits(),
                reference[r].to_bits(),
                "alive {alive:?}, station {r}: {f} ≠ {}",
                reference[r]
            );
        }
    }

    fn round_split_on_the_chain<E: Engine>() {
        let ut = chain_tree();
        for receivers in [vec![1], vec![2], vec![3], vec![2, 3], vec![1, 2, 3]] {
            assert_round_is_the_split(&mut E::build(&ut, &receivers), &ut, &receivers);
        }
    }

    #[test]
    fn round_shares_match_the_reference_split() {
        round_split_on_the_chain::<IncrementalShapley>();
        round_split_on_the_chain::<Sparse>();
    }

    fn drops_against_scratch<E: Engine>() {
        for seed in 0..20 {
            let ut = random_tree(seed, 12);
            let mut alive: Vec<usize> = ut.network().non_source_stations();
            let mut engine = E::build(&ut, &alive);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xd0b);
            while alive.len() > 1 {
                let victim = alive.remove(rng.gen_range(0..alive.len()));
                engine.leave(victim);
                assert_round_is_the_split(&mut engine, &ut, &alive);
            }
        }
    }

    #[test]
    fn dropping_matches_recomputation_from_scratch() {
        drops_against_scratch::<IncrementalShapley>();
        drops_against_scratch::<Sparse>();
    }

    fn walk_against_scratch<E: Engine>() {
        for seed in 0..20 {
            let ut = random_tree(seed, 14);
            let all = ut.network().non_source_stations();
            let mut engine = E::build(&ut, &[]);
            let mut alive: Vec<usize> = Vec::new();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xadd);
            for _step in 0..60 {
                if alive.is_empty() || (alive.len() < all.len() && rng.gen_bool(0.5)) {
                    let candidates: Vec<usize> =
                        all.iter().copied().filter(|v| !alive.contains(v)).collect();
                    let v = candidates[rng.gen_range(0..candidates.len())];
                    engine.join(v);
                    alive.push(v);
                } else {
                    let v = alive.remove(rng.gen_range(0..alive.len()));
                    engine.leave(v);
                }
                if !alive.is_empty() {
                    assert_round_is_the_split(&mut engine, &ut, &alive);
                }
            }
        }
    }

    #[test]
    fn add_and_drop_walk_matches_recomputation_from_scratch() {
        // A random join/leave walk over the receiver set: after every
        // step the round shares must equal the reference split on the
        // current set, and joins must exactly invert drops.
        walk_against_scratch::<IncrementalShapley>();
        walk_against_scratch::<Sparse>();
    }

    #[test]
    fn drop_run_from_subset_matches_cold_engine_on_that_subset() {
        for seed in 0..20 {
            let ut = random_tree(seed, 11);
            let n = ut.network().n_players();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5b5e7);
            let u: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
            let players: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.6)).collect();
            let out = shapley_drop_run_from(&ut, &u, &players);
            // Every receiver came from the initial subset and affords its
            // share; the full-set run is the players == all special case.
            assert!(out.receivers.iter().all(|p| players.contains(p)));
            for &p in &out.receivers {
                assert!(u[p] >= out.shares[p] - wmcs_geom::EPS);
            }
            let all: Vec<usize> = (0..n).collect();
            let from_all = shapley_drop_run_from(&ut, &u, &all);
            let plain = shapley_drop_run(&ut, &u);
            assert_eq!(from_all.receivers, plain.receivers, "seed {seed}");
            assert_eq!(from_all.shares, plain.shares, "seed {seed}");
        }
    }

    #[test]
    fn set_utility_repairs_the_oracle_byte_for_byte() {
        for seed in 0..20 {
            let ut = random_tree(seed, 12);
            let n = ut.network().n_stations();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e7);
            let mut u: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..8.0)).collect();
            let mut warm = NetWorthOracle::new(&ut, &u);
            for _event in 0..25 {
                let x = loop {
                    let x = rng.gen_range(0..n);
                    if x != ut.network().source() {
                        break x;
                    }
                };
                let v = if rng.gen_bool(0.3) {
                    0.0
                } else {
                    rng.gen_range(0.0..8.0)
                };
                u[x] = v;
                warm.set_utility(x, v);
                let cold = NetWorthOracle::new(&ut, &u);
                assert_eq!(warm.net_worth(), cold.net_worth(), "seed {seed}");
                assert_eq!(warm.efficient_set(), cold.efficient_set(), "seed {seed}");
                for y in ut.network().non_source_stations() {
                    assert_eq!(
                        warm.net_worth_zeroing(y),
                        cold.net_worth_zeroing(y),
                        "seed {seed}, station {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_run_equals_reference_run() {
        for seed in 0..30 {
            let ut = random_tree(seed, 9);
            let n = ut.network().n_players();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xfeed);
            let u: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..12.0)).collect();
            let fast = shapley_drop_run(&ut, &u);
            let reference = reference_drop_run(&ut, &u);
            assert_eq!(fast.receivers, reference.receivers, "seed {seed}");
            assert_eq!(fast.shares, reference.shares, "seed {seed}");
            assert_eq!(fast.served_cost, reference.served_cost, "seed {seed}");
        }
    }

    #[test]
    fn stats_count_rounds_and_drops() {
        let ut = chain_tree();
        // All rich: one fixpoint round, no drops.
        let (_, stats) = shapley_drop_run_with_stats(&ut, &[100.0, 100.0, 100.0]);
        assert_eq!(
            stats,
            DropStats {
                rounds: 1,
                dropped: 0
            }
        );
        // All poor: everyone drops in round 1, empty fixpoint.
        let (out, stats) = shapley_drop_run_with_stats(&ut, &[0.0, 0.0, 0.0]);
        assert!(out.receivers.is_empty());
        assert_eq!(stats.dropped, 3);
    }

    #[test]
    fn oracle_matches_full_dp_after_zeroing() {
        for seed in 0..20 {
            let ut = random_tree(seed, 10);
            let n = ut.network().n_stations();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xace);
            let u: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..8.0)).collect();
            let oracle = NetWorthOracle::new(&ut, &u);
            assert!(
                approx_eq(oracle.net_worth(), ut.net_worth(&u)),
                "seed {seed}"
            );
            for x in (0..n).filter(|&x| x != ut.network().source()) {
                let mut u_minus = u.clone();
                u_minus[x] = 0.0;
                let full = ut.net_worth(&u_minus);
                let fast = oracle.net_worth_zeroing(x);
                assert!(
                    (full - fast).abs() < 1e-9 * (1.0 + full.abs()),
                    "seed {seed}, station {x}: full {full} ≠ fast {fast}"
                );
            }
        }
    }

    #[test]
    fn oracle_efficient_set_net_worth_is_consistent_with_its_set() {
        // The satellite invariant: the returned net worth must be the
        // welfare of the returned set (exact tie-break, no EPS drift).
        for seed in 0..20 {
            let ut = random_tree(seed, 10);
            let n = ut.network().n_stations();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xbee);
            let u: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..8.0)).collect();
            let (set, nw) = ut.largest_efficient_set(&u);
            let util: f64 = set.iter().map(|&x| u[x].max(0.0)).sum();
            let welfare = util - ut.multicast_cost(&set);
            assert!(
                (welfare - nw).abs() < 1e-9 * (1.0 + nw.abs()),
                "seed {seed}: set welfare {welfare} ≠ net worth {nw}"
            );
        }
    }
}
