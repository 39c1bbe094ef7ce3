//! The warm engines behind both §2.1 universal-tree mechanisms, over a
//! per-group frame of local ids.
//!
//! The Moulin–Shenker iteration over a universal tree repeatedly drops
//! receivers who cannot afford their Shapley share; the marginal-cost
//! (VCG) mechanism needs the largest-efficient-set DP plus one "net worth
//! with station `x`'s utility zeroed" per receiver. Both engines keep
//! that state *incremental* and *closure-sized*: every array is indexed
//! by the local ids of a [`Subframe`] — the grow-only path closure of
//! every station the engine has seen (`DESIGN.md` §2f) — so a warm
//! engine costs `O(|frame|)` bytes, never `O(n)`:
//!
//! * [`Shapley`] keeps, per local station, the number of active receivers
//!   in its subtree (`T(R)` membership is exactly `rb > 0`); a station's
//!   children in cost order are the frame's own child list. A round's
//!   shares are one top-down pass over `T(R)` that walks each station's
//!   in-frame children, skips those with `rb == 0`, and turns the
//!   paper's per-increment split (§2.1) into prefix sums
//!   `down[y_i] = down[x] + Σ_{j≤i} δ_j / users_j`.
//! * [`NetWorth`] keeps the bottom-up DP. One top-down pass recomputes,
//!   per station, the two slacks by which a change of its `h` reaches
//!   its parent's (from the flushed `h` and the edge costs; none is
//!   stored) and composes them into every station's map to the root, so
//!   each `NW(u_{−i})` is read off its own map in `O(1)` instead of a
//!   full DP. Utility changes are batched: [`NetWorth::set_utility`]
//!   only records the bid, and the next query repairs the union of the
//!   dirty root paths once.
//!
//! | operation | cost | invariant |
//! |---|---|---|
//! | [`Shapley::add_receiver`] | `O(path)` amortised (frame growth) | state equals a fresh engine on the enlarged set |
//! | [`Shapley::drop_receiver`] | `O(depth)` | state equals a fresh engine on the shrunken set |
//! | [`Shapley::round_shares_by_local`] | `O(\|T(R)\|)` + the in-frame children of `T(R)` with empty subtrees | [`UniversalTree::shapley_shares`] on the current set, bit for bit |
//! | [`Shapley::served_cost`] | `O(\|frame\|)`, no sort | [`UniversalTree::multicast_cost`] of the last round pass's set, bit for bit |
//! | [`NetWorth::set_utility`] | `O(path)` amortised (frame growth) | repair deferred to the next query |
//! | first query after a batch | one `O(frame degree)` kernel per station on the union of dirty root paths | every read float equals a fresh oracle's |
//! | [`NetWorth::vcg_outcome`] | `O(\|frame\|)` + a sort of `R*`'s out-of-frame stations + `O(1)` per bidding receiver | a fresh oracle's outcome, bit for bit |
//!
//! The "equals a fresh engine" invariants are what make a warm session
//! *byte-identical* to a cold rebuild — the property suites
//! (`tests/incremental_props.rs`, `tests/session_props.rs`) and
//! experiments T10/T11 pin them. One-shot runs are the same engines over
//! a frame grown to every station: [`shapley_drop_run`] and
//! `wmcs-mechanisms`' `UniversalMcMechanism` (via
//! [`NetWorth::from_utilities`]). The drop loop itself is the shared
//! index-set driver [`wmcs_game::run_drop_loop`] (resumable variant:
//! [`wmcs_game::run_drop_loop_from`], used by [`shapley_drop_run_from`]
//! and the sessions) — the same iteration the mask-based
//! [`wmcs_game::moulin_shenker`] (n ≤ 64) routes through, so they cannot
//! diverge on EPS conventions. [`reference_drop_run_from`] (and its
//! all-players case [`reference_drop_run`]) preserves the naive per-round
//! recomputation as the correctness oracle; the unit and property suites
//! pin the engine's and the sessions' outcomes to it byte for byte.

use crate::substrate::{
    grow_to, merge_by_key, reserve_bounded, Children, NodeId, Subframe, TreeSubstrate, NO_STATION,
};
use crate::universal::UniversalTree;
use wmcs_game::{run_drop_loop, run_drop_loop_from, DropLoopMethod, MechanismOutcome, Shares};

/// Local alias for the frame's "no local station" sentinel.
const NO_LOCAL: u32 = Subframe::NONE;

/// The local id of a frame index (frames are capped below `u32::MAX`).
fn local_id(l: usize) -> u32 {
    u32::try_from(l).expect("frame ids fit u32")
}

/// Run statistics of one incremental drop-loop execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropStats {
    /// Rounds executed (share recomputations), including the fixpoint
    /// round.
    pub rounds: usize,
    /// Players dropped over the whole run.
    pub dropped: usize,
}

/// Incremental state of a Moulin–Shenker run over a universal tree: the
/// active receiver set and `T(R)` membership via subtree receiver
/// counts, over [`Subframe`] local ids. A station's children in cost
/// order are the frame's own child list; `rb` tells which of them are in
/// `T(R)`.
///
/// Invariant (the byte-identity anchor): every active station is in the
/// frame (the frame holds every member's root path), and the frame's
/// child lists are the substrate's cost order restricted to the closure,
/// so every traversal visits the same floats in the same order as a
/// walk of the whole tree would.
#[derive(Debug, Clone)]
pub struct Shapley {
    ut: UniversalTree,
    frame: Subframe,
    /// Is the local station an active receiver?
    in_r: Vec<bool>,
    /// Active receivers in the local station's subtree; `rb[v] > 0` ⟺
    /// `v ∈ T(R)`.
    rb: Vec<u32>,
    rounds: usize,
}

/// The buffers one drop-loop run lends [`Shapley`]'s round passes, by
/// local id. They live for one run, not in the warm engine: the first
/// round sizes them to the frame and later rounds reuse them, so a
/// session keeps none of them between reprices.
#[derive(Debug, Default)]
pub struct RoundBuffers {
    /// Accumulated root-path share prefix per local station; after a
    /// round pass, an active receiver's entry is its share.
    down: Vec<f64>,
    /// Transmission power per local station as of the last round pass:
    /// the cost of its costliest child in `T(R)`, `+0.0` with none
    /// (entries outside that pass's `T(R)` are stale).
    power: Vec<f64>,
    /// DFS stack of local ids.
    stack: Vec<u32>,
}

impl Shapley {
    /// An empty engine over `ut` (nobody served; the frame is just the
    /// source). `O(1)`: no universe-sized allocation ever happens.
    pub fn new(ut: &UniversalTree) -> Self {
        Self {
            ut: ut.clone(),
            frame: Subframe::new(ut.substrate()),
            in_r: vec![false],
            rb: vec![0],
            rounds: 0,
        }
    }

    /// Grow the parallel arrays to the frame's current length (new locals
    /// start inactive: no receiver below them).
    fn sync_frame(&mut self) {
        let len = self.frame.len();
        if self.in_r.len() < len {
            grow_to(&mut self.in_r, len, false);
            grow_to(&mut self.rb, len, 0);
        }
    }

    /// Add receiver `station`, growing the frame by its out-of-frame
    /// root-path suffix if needed, and return the station's local id
    /// (stable for the engine's lifetime — the frame is append-only):
    /// increment the subtree counts on its root path. `O(path)` (plus
    /// the frame growth); the state equals a fresh engine on the
    /// enlarged set.
    pub fn add_receiver(&mut self, station: usize) -> u32 {
        assert!(
            station != self.ut.network().source(),
            "the source cannot be a receiver"
        );
        let v = self.frame.ensure(self.ut.substrate(), station);
        self.sync_frame();
        debug_assert!(
            !self.in_r[v as usize],
            "station {station} is already an active receiver"
        );
        self.in_r[v as usize] = true;
        let mut w = v;
        while w != NO_LOCAL {
            self.rb[w as usize] += 1;
            w = self.frame.parent_local(w);
        }
        v
    }

    /// Drop the receiver at local id `v` (obtained from
    /// [`Shapley::add_receiver`]): decrement the subtree counts on its
    /// root path. `O(depth)`.
    pub fn drop_receiver(&mut self, v: u32) {
        debug_assert!(self.in_r[v as usize], "local {v} is not an active receiver");
        self.in_r[v as usize] = false;
        let mut w = v;
        while w != NO_LOCAL {
            self.rb[w as usize] -= 1;
            w = self.frame.parent_local(w);
        }
    }

    /// The paper's per-increment Shapley split (§2.1) for the current
    /// receiver set, as one top-down pass over `T(R)`. For station `x`
    /// with children `y_1 … y_k` in `T(R)` (ascending cost), increment
    /// `δ_i = c(x,y_i) − c(x,y_{i−1})` is worth `δ_i / users_i` to every
    /// receiver below `y_i … y_k`, so the accumulated prefix
    /// `down[y_i] = down[x] + Σ_{j≤i} δ_j / users_j` *is* the share of
    /// every receiver whose root path enters `x` through `y_i`. The pass
    /// walks each `T(R)` station's in-frame children and skips those
    /// with an empty subtree (`rb == 0`), so it costs `O(|T(R)|)` plus
    /// those in-frame siblings. Each `T(R)` station's last increment's
    /// cost is its power, which the pass keeps in `buf` for
    /// [`Shapley::served_cost`]. Returns `down` by **local** id: an active
    /// receiver's entry is its share (entries outside the active set are
    /// stale). Each receiver's entry is
    /// [`UniversalTree::shapley_shares`]'s bit for bit — the same slices
    /// `δ_i / users_i` (`δ ≤ 0` skipped) added to `+0.0` root first — so
    /// the drop loop charges its fixpoint round.
    pub fn round_shares_by_local<'b>(&mut self, buf: &'b mut RoundBuffers) -> &'b [f64] {
        self.rounds += 1;
        self.frame.merge_links(self.ut.substrate());
        let len = self.frame.len();
        buf.down.resize(len, 0.0);
        buf.power.resize(len, 0.0);
        buf.down[Subframe::ROOT as usize] = 0.0;
        buf.stack.clear();
        buf.stack.push(Subframe::ROOT);
        while let Some(top) = buf.stack.pop() {
            // Walk down from `top`: each station's last child in `T(R)` is
            // the next station, the others wait on the stack.
            let mut x = top;
            loop {
                let xi = x as usize;
                // Receivers strictly below x: its own subtree count minus x.
                let remaining = self.rb[xi] - u32::from(self.in_r[xi]);
                let mut pass = ChildPass::new(buf.down[xi], remaining);
                match self.frame.children(x) {
                    // A run's sole child: no loop, no stack.
                    Children::Run { next: [y], len: 1 } if self.rb[y as usize] > 0 => {
                        pass.visit(y, self, &mut buf.down)
                    }
                    Children::Listed(kids) => {
                        for &y in kids {
                            if self.rb[y as usize] > 0 {
                                if pass.next != NO_LOCAL {
                                    buf.stack.push(pass.next);
                                }
                                pass.visit(y, self, &mut buf.down);
                            }
                        }
                    }
                    Children::Run { .. } => {}
                }
                buf.power[xi] = pass.prev_cost;
                if pass.next == NO_LOCAL {
                    break;
                }
                x = pass.next;
            }
        }
        &buf.down
    }

    /// The served cost `C_T(R)` of the receiver set of the last
    /// [`Shapley::round_shares_by_local`] pass into `buf` (the drop loop
    /// calls it after its fixpoint round, with nobody added or dropped
    /// since), read off the warm `T(R)` in one scan of the frame in
    /// ascending **global** station id: every station with `rb > 0` adds
    /// the power that pass kept for it — the cost of its costliest child
    /// in `T(R)`, or `+0.0` — to a sum started at `+0.0`. That is
    /// [`UniversalTree::multicast_cost`]'s ascending-id float sequence on
    /// the active stations up to exact `+0.0` terms, so the two agree bit
    /// for bit. `O(|frame|)`, no sort.
    pub fn served_cost(&mut self, buf: &RoundBuffers) -> f64 {
        self.frame.merge_by_station();
        let mut cost = 0.0;
        for &x in self.frame.by_station() {
            if self.rb[x as usize] > 0 {
                cost += buf.power[x as usize];
            }
        }
        cost
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Closure size (local stations, including the source).
    pub fn frame_len(&self) -> usize {
        self.frame.len()
    }

    /// Heap bytes of the warm state: the frame plus every local-id array
    /// (the shared substrate is excluded — it is per universe, not per
    /// group — and so are a run's [`RoundBuffers`]).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.frame.memory_bytes()
            + self.in_r.capacity() * size_of::<bool>()
            + self.rb.capacity() * size_of::<u32>()
    }
}

/// One station's fold in [`Shapley::round_shares_by_local`]: its children
/// in `T(R)`, in cost order, each add their increment's slice to the
/// running prefix.
struct ChildPass {
    /// The prefix so far: the station's own, plus each slice.
    acc: f64,
    /// Receivers below the children not yet visited.
    remaining: u32,
    /// The last visited child's edge cost (`+0.0` before the first).
    prev_cost: f64,
    /// The last visited child ([`NO_LOCAL`] before the first).
    next: u32,
}

impl ChildPass {
    fn new(acc: f64, remaining: u32) -> Self {
        Self {
            acc,
            remaining,
            prev_cost: 0.0,
            next: NO_LOCAL,
        }
    }

    /// Visit child `y` (in `T(R)`): increment `δ = c(x, y) − c(x, y_prev)`
    /// is worth `δ / users` to every receiver below `y` and its later
    /// siblings, so `down[y]` is the prefix after that slice.
    #[inline]
    fn visit(&mut self, y: u32, engine: &Shapley, down: &mut [f64]) {
        let yi = y as usize;
        // Frame-cached edge cost — bit-identical to net.cost(x, y).
        let cost = engine.frame.parent_cost(y);
        let delta = cost - self.prev_cost;
        self.prev_cost = cost;
        if delta > 0.0 {
            debug_assert!(self.remaining > 0, "every active branch has a receiver");
            self.acc += delta / self.remaining as f64;
        }
        down[yi] = self.acc;
        self.remaining -= engine.rb[yi];
        self.next = y;
    }
}

/// Coalition-indexed [`DropLoopMethod`] over a borrowed engine: position
/// `i` of the driver's coalition is local station `locals[i]`. Borrowing
/// (rather than owning) the engine is what lets a live session
/// ([`crate::session::ShapleySession`]) keep it warm across many
/// drop-loop runs; the adapter owns the run's [`RoundBuffers`], which go
/// with it.
pub(crate) struct Adapter<'e> {
    engine: &'e mut Shapley,
    locals: &'e [u32],
    buf: RoundBuffers,
}

impl<'e> Adapter<'e> {
    /// A run over `engine` whose coalition is `locals`.
    pub(crate) fn new(engine: &'e mut Shapley, locals: &'e [u32]) -> Self {
        Self {
            engine,
            locals,
            buf: RoundBuffers::default(),
        }
    }
}

impl DropLoopMethod for Adapter<'_> {
    fn n_players(&self) -> usize {
        self.engine.ut.network().n_players()
    }

    fn round_shares_into(&mut self, out: &mut Vec<f64>) {
        let by_local = self.engine.round_shares_by_local(&mut self.buf);
        out.clear();
        out.extend(self.locals.iter().map(|&l| by_local[l as usize]));
    }

    fn drop_player(&mut self, i: usize) {
        self.engine.drop_receiver(self.locals[i]);
    }

    fn served_cost(&mut self) -> f64 {
        self.engine.served_cost(&self.buf)
    }
}

/// A fresh engine with `players` joined, and each player's local id.
fn engine_on(ut: &UniversalTree, players: &[usize]) -> (Shapley, Vec<u32>) {
    let net = ut.network();
    let mut engine = Shapley::new(ut);
    let locals = players
        .iter()
        .map(|&p| engine.add_receiver(net.station_of_player(p)))
        .collect();
    (engine, locals)
}

/// Run `M(Shapley)` over a universal tree with the incremental engine
/// over a frame grown to every station. Equivalent to
/// [`reference_drop_run`] (property-tested byte for byte), with no
/// 64-player cap.
pub fn shapley_drop_run(ut: &UniversalTree, reported: &[f64]) -> MechanismOutcome {
    shapley_drop_run_with_stats(ut, reported).0
}

/// [`shapley_drop_run`], also reporting round/drop counts.
pub fn shapley_drop_run_with_stats(
    ut: &UniversalTree,
    reported: &[f64],
) -> (MechanismOutcome, DropStats) {
    let players: Vec<usize> = (0..ut.network().n_players()).collect();
    let (mut engine, locals) = engine_on(ut, &players);
    let out = run_drop_loop(&mut Adapter::new(&mut engine, &locals), reported);
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
/// every churn batch.
///
/// `players` must be strictly ascending; `reported` is full length
/// (entries outside `players` are ignored).
pub fn shapley_drop_run_from(
    ut: &UniversalTree,
    reported: &[f64],
    players: &[usize],
) -> MechanismOutcome {
    let (mut engine, locals) = engine_on(ut, players);
    let bids: Vec<f64> = players.iter().map(|&p| reported[p]).collect();
    run_drop_loop_from(&mut Adapter::new(&mut engine, &locals), &bids, players)
}

/// The naive pre-incremental driver from every player:
/// [`reference_drop_run_from`] with `players = 0..n`. Kept as the
/// correctness reference for [`shapley_drop_run`] (tests, T10's n = 64
/// identity column, and the `drop_engine` criterion bench).
pub fn reference_drop_run(ut: &UniversalTree, reported: &[f64]) -> MechanismOutcome {
    let players: Vec<usize> = (0..ut.network().n_players()).collect();
    reference_drop_run_from(ut, reported, &players)
}

/// The naive per-round driver from an explicit **player** subset, with
/// the contract of [`shapley_drop_run_from`]: every round recomputes the
/// full [`UniversalTree::shapley_shares`] on the surviving stations —
/// `O(n · depth)` per round — and drops each bid that is not
/// ≥ share − EPS. The one slow, obviously correct oracle the engines and
/// sessions are pinned to byte for byte.
///
/// `players` must be strictly ascending; `reported` is full length
/// (entries outside `players` are ignored).
pub fn reference_drop_run_from(
    ut: &UniversalTree,
    reported: &[f64],
    players: &[usize],
) -> MechanismOutcome {
    let net = ut.network();
    let n = net.n_players();
    assert_eq!(reported.len(), n);
    let mut alive = players.to_vec();
    loop {
        let stations: Vec<usize> = alive.iter().map(|&p| net.station_of_player(p)).collect();
        let shares_by_station = ut.shapley_shares(&stations);
        let share = |p: usize| shares_by_station[net.station_of_player(p)];
        // Keep only bids ≥ share − EPS: a NaN bid is dropped.
        let kept: Vec<usize> = alive
            .iter()
            .copied()
            .filter(|&p| !(reported[p].is_nan() || reported[p] < share(p) - wmcs_geom::EPS))
            .collect();
        if kept.len() == alive.len() {
            let mut shares = Shares::with_capacity(n, alive.len());
            for &p in &alive {
                shares.set(p, share(p));
            }
            return MechanismOutcome {
                receivers: alive,
                shares,
                served_cost: ut.multicast_cost(&stations),
            };
        }
        alive = kept;
    }
}

/// How a fall in one station's `h` moves the root's net worth `NW`: a
/// change `δ ≤ 0` there changes `NW` by `max(a, b + δ)`, with `a, b ≤ 0`
/// (see [`NetWorth`]'s root maps).
#[derive(Debug, Clone, Copy)]
struct RootMap {
    a: f64,
    b: f64,
}

impl RootMap {
    /// The source's map: a change there is the change of `NW`.
    const SOURCE: Self = Self {
        a: f64::NEG_INFINITY,
        b: 0.0,
    };
    /// A station whose `h` is `+0.0` cannot fall, so nothing below it
    /// moves `NW`.
    const ABSORB: Self = Self {
        a: 0.0,
        b: f64::NEG_INFINITY,
    };

    /// The edge pair of a sole in-frame child whose `h` is `h` and whose
    /// edge costs `cost`: [`NetWorth::edge_pairs`]' float expressions over
    /// one child (`val = (0.0 + h) − cost`, `b = val` if `val ≥ 0.0`, else
    /// `+0.0`), as a map of the same two-slack form.
    fn sole_edge(h: f64, cost: f64) -> Self {
        let val = (0.0 + h) - cost;
        let b = if val >= 0.0 { val } else { 0.0 };
        Self {
            a: 0.0 - b,
            b: val.max(f64::NEG_INFINITY) - b,
        }
    }

    /// The map of a child whose edge map has the slacks `(a, b)`: the
    /// edge's `δ ↦ max(a, b + δ)` followed by this map.
    fn child(self, Self { a, b }: Self) -> Self {
        Self {
            a: self.a.max(self.b + a),
            b: self.b + b,
        }
    }

    /// The change of `NW` when this station's `h` falls by `drop ≥ 0`.
    fn change(self, drop: f64) -> f64 {
        self.a.max(self.b - drop)
    }
}

/// The largest-efficient-set DP (§2.1) plus every `NW(u_{−i})` from one
/// top-down pass — the MC/VCG mechanism, which needs the net worth with
/// each receiver's utility zeroed, over a frame holding the grow-only
/// path closure of every station that ever carried a bid.
///
/// Over a station's **global** cost-sorted child slice `y_0 … y_{k−1}`
/// the DP's raw prefix values are `val_j = Σ_{i≤j} h(y_i) − c(x, y_j)`.
/// Per local station it stores `h` (best net worth of the subtree game)
/// and the chosen prefix length `choice` (one past the last `j` whose
/// value is `M = max(0, val_0 … val_{k−1})`). Each station's own edge
/// has two **slacks**, its parent's prefix maxima against `M`: `a =
/// max(0, val_0 … val_{pos−1}) − M` and `b = max(val_pos … val_{k−1}) −
/// M`, both `≤ 0`. A change `δ ≤ 0` of the station's `h` shifts every
/// `val_j` with `j ≥ pos` by `δ`, so it changes the parent's `h` by
/// `max(a, b + δ)` (the parent's own utility cancels). The slacks are not
/// stored: the forward pass recomputes them from the flushed `h` and the
/// edge costs with the kernel's fold, in one sweep for sole in-frame
/// children and one fold per linked parent's list
/// ([`Subframe::linked_lists`]). Comparisons are exact (total order,
/// larger prefix only on true ties).
///
/// **Root maps.** Those edge maps compose in closed form: a change `δ`
/// at station `w` changes `NW` by `max(A_w, B_w + δ)`, where `A_w =
/// max(A_p, B_p + a_w)` and `B_w = B_p + b_w` over `w`'s parent `p`, and
/// `(A, B) = (−∞, +0.0)` at the source. A station whose `h` is `+0.0`
/// absorbs every change below it, `(A, B) = (+0.0, −∞)`: `h` cannot fall
/// below `+0.0`. The forward selection pass composes every station's
/// map, and zeroing `v`'s utility `u` lowers `h[v]` by `u⁺ = max(u, 0)`,
/// so `NW(u_{−v}) = NW + max(A_v, B_v − u⁺)` and `v`'s VCG charge is
/// `max(0, u + max(A_v, B_v − u⁺))` — never the difference of two net
/// worths. `A ≤ 0` and `B ≤ 0` in floats too, so every charge lies in
/// `[0, max(u, 0)]` (under a `+∞` utility `B` may be NaN, which `max`
/// drops; `DESIGN.md` §2f).
///
/// **Frame-local kernel.** An out-of-frame station carries zero utility
/// and has no in-frame descendant, so its `h` is exactly `+0.0`. An
/// out-of-frame child's value `acc − c_j` is then never above the value
/// of the in-frame child before it (costs ascend and `acc` is unchanged),
/// nor above `+0.0` before the first one. So the kernel folds in-frame
/// children only, and every maximum it stores is the float the global
/// slice gives. Only the chosen *length* can reach past the last in-frame
/// winner, over out-of-frame siblings whose value ties the maximum
/// exactly: equal costs, or a cost difference that `acc − c` absorbs.
/// One static fact cached when a station is framed settles the first
/// case: the next global sibling's cost (the slice is read on only after
/// it ties). When no in-frame child reaches `+0.0`, the prefix is the
/// station's leading run of zero-cost children, which the substrate
/// gives ([`TreeSubstrate::zero_cost_children`]: empty, without a read,
/// when no tree edge costs `0.0`). So every stored `h` and `choice` is
/// the same whatever the frame holds.
///
/// **Batched repair.** [`NetWorth::set_utility`] stores the bid and marks
/// the station (and every new frame local) dirty; the first query after
/// it runs the per-station kernel once per dirty station in descending
/// local id — children before parents, because [`Subframe::ensure`]
/// appends path suffixes top-down — and marks a parent only when a
/// child's `h` changed bits. `h` is never `−0.0` or NaN (prefix sums start
/// at `+0.0`; `max` drops NaN), so the bit test agrees with `==`. Each
/// kernel is a pure function of its children's `h`, its utility and the
/// cached costs, so the flushed state equals a fresh oracle's fed the
/// same utilities. After a flush every parent's kernel has run on its
/// children's current `h`, so the slacks the forward pass recomputes are
/// the floats that kernel's fold gives (a child framed since, at `h =
/// +0.0`, moves no sibling's maximum; `DESIGN.md` §2f).
#[derive(Debug, Clone)]
pub struct NetWorth {
    ut: UniversalTree,
    frame: Subframe,
    /// Utilities by local station, as given (the DP clamps at 0 on use).
    u: Vec<f64>,
    /// `h[v]`: best net worth of the subtree game rooted at `v`.
    h: Vec<f64>,
    /// Chosen prefix length at `v` over its **global** child slice.
    choice: Vec<u32>,
    /// Static: `v`'s position in its parent's **global** cost-sorted
    /// child slice (0 for the source), read per node by the kernel, the
    /// forward pass and the selection.
    pos: Vec<u32>,
    /// Static: the cost of the global sibling right after `v` in its
    /// parent's slice (`+∞` when `v` is the last child).
    next_cost: Vec<f64>,
    /// Locals whose kernel the next query runs first.
    dirty: Vec<bool>,
    /// One past the highest dirty local (0: nothing pending).
    dirty_end: usize,
}

/// What one selection pass hands the query that ran it; dropped with
/// that query, so no reprice's buffers stay in the warm oracle.
struct Selection {
    /// The served cost `C_T(R*)`.
    cost: f64,
    /// Every local station's root map.
    maps: Vec<RootMap>,
    /// Is the local station in `{s} ∪ R*`?
    reached: Vec<bool>,
    /// The out-of-frame stations of `R*`, ascending.
    outside: Vec<NodeId>,
}

impl NetWorth {
    /// An empty oracle over `ut` (all utilities zero; the frame is just
    /// the source, whose kernel the first query runs).
    pub fn new(ut: &UniversalTree) -> Self {
        let mut oracle = Self {
            ut: ut.clone(),
            frame: Subframe::new(ut.substrate()),
            u: Vec::new(),
            h: Vec::new(),
            choice: Vec::new(),
            pos: Vec::new(),
            next_cost: Vec::new(),
            dirty: Vec::new(),
            dirty_end: 0,
        };
        oracle.sync_frame();
        oracle
    }

    /// A cold oracle over a frame grown to every station, fed the
    /// station-indexed utilities `u` (the source entry is ignored) — the
    /// one-shot MC run, and the fresh reference a warm session is pinned
    /// to.
    pub fn from_utilities(ut: &UniversalTree, u: &[f64]) -> Self {
        let s = ut.network().source();
        assert_eq!(
            u.len(),
            ut.network().n_stations(),
            "one utility per station"
        );
        let mut oracle = Self::new(ut);
        for (x, &ux) in u.iter().enumerate() {
            if x != s {
                oracle.set_utility(x, ux);
            }
        }
        oracle
    }

    /// Replace `station`'s utility. An unseen station first splices its
    /// root-path suffix into the frame; the DP repair waits for the next
    /// query, which runs each dirty kernel once.
    pub fn set_utility(&mut self, station: usize, utility: f64) {
        assert!(
            station != self.ut.network().source(),
            "the source has no utility"
        );
        let v = self.frame.ensure(self.ut.substrate(), station) as usize;
        self.sync_frame();
        self.u[v] = utility;
        self.dirty[v] = true;
        self.dirty_end = self.dirty_end.max(v + 1);
    }

    /// Grow the local arrays to the frame's length. New locals start at
    /// zero utility, cache their position and their next sibling's cost
    /// from the substrate and are dirty: their kernels run on the next
    /// query.
    fn sync_frame(&mut self) {
        let (old, len) = (self.u.len(), self.frame.len());
        if old == len {
            return;
        }
        grow_to(&mut self.u, len, 0.0);
        grow_to(&mut self.h, len, 0.0);
        grow_to(&mut self.choice, len, 0);
        grow_to(&mut self.dirty, len, true);
        reserve_bounded(&mut self.pos, len);
        reserve_bounded(&mut self.next_cost, len);
        let sub = self.ut.substrate();
        for l in old..len {
            let x = self.frame.global_of(local_id(l));
            let (p, pos) = (sub.parent_of(x), sub.pos_in_parent(x));
            let next = if p == NO_STATION {
                None
            } else {
                sub.sorted_children(p).get(pos + 1)
            };
            self.pos
                .push(u32::try_from(pos).expect("child positions fit u32"));
            self.next_cost
                .push(next.map_or(f64::INFINITY, |y| sub.parent_cost(y.index())));
        }
        self.dirty_end = len;
    }

    /// Run every pending kernel once, in descending local id — children
    /// before parents, since a parent's id is below its children's; a
    /// station whose `h` changed bits marks its parent.
    fn flush(&mut self) {
        let ut = self.ut.clone();
        self.frame.merge_links(ut.substrate());
        for v in (0..std::mem::take(&mut self.dirty_end)).rev() {
            if !std::mem::take(&mut self.dirty[v]) {
                continue;
            }
            let before = self.h[v].to_bits();
            self.recompute(ut.substrate(), local_id(v));
            if v != 0 && self.h[v].to_bits() != before {
                self.dirty[self.frame.parent_local(local_id(v)) as usize] = true;
            }
        }
    }

    /// The per-station kernel: fold local `v`'s **in-frame** children into
    /// `h[v]` and `choice[v]`. `O(frame degree of v)`; `v`'s global child
    /// slice is read only when the chosen prefix runs on over
    /// out-of-frame siblings that tie the maximum, or has no in-frame
    /// winner and the substrate has zero-cost edges.
    fn recompute(&mut self, sub: &TreeSubstrate, v: u32) {
        let vi = v as usize;
        // Raw prefix values; the running maximum `b` starts at +0.0, and
        // the larger prefix wins exact ties.
        let (mut acc, mut b) = (0.0f64, 0.0f64);
        let (mut winner, mut winner_acc) = (NO_LOCAL, 0.0f64);
        for &c in self.frame.children(v).as_slice() {
            acc += self.h[c as usize];
            let val = acc - self.frame.parent_cost(c);
            if val >= b {
                b = val;
                winner = c;
                winner_acc = acc;
            }
        }
        let end = if winner == NO_LOCAL {
            // No in-frame child reaches +0.0: the prefix is the leading
            // run of zero-cost children (`0.0 − 0.0` ties at +0.0), none
            // of which is in frame.
            sub.zero_cost_children(self.frame.global_of(v)).count()
        } else {
            // Out-of-frame siblings after the winner keep its `acc`; the
            // prefix runs on while their value still equals `b`.
            let mut end = self.pos[winner as usize] as usize + 1;
            if winner_acc - self.next_cost[winner as usize] == b {
                let kids = sub.sorted_children(self.frame.global_of(v));
                end += 1;
                while end < kids.len() && winner_acc - sub.parent_cost(kids[end].index()) == b {
                    end += 1;
                }
            }
            end
        };
        let choice = u32::try_from(end).expect("child counts fit u32");
        let own = if v == Subframe::ROOT {
            0.0
        } else {
            self.u[vi].max(0.0)
        };
        self.h[vi] = own + b;
        self.choice[vi] = choice;
    }

    /// The forward pass over the flushed DP, in local-id order (a
    /// parent's id is below its children's): returns every local
    /// station's [`RootMap`], composed from its parent's and its own
    /// edge pair, and whether it is in `{source} ∪ R*` (`reached[l] =
    /// reached[parent] && pos[l] < choice[parent]`). A pair is needed
    /// only where `h > 0`; a station at `h = +0.0` absorbs. Pairs are
    /// recomputed from the flushed `h` with the kernel's own float
    /// expressions: one branch-free sweep writes every station's pair as
    /// a sole child's ([`RootMap::sole_edge`]) into its map slot, one
    /// fold per linked station's list overwrites its children's
    /// ([`NetWorth::edge_pairs`]), and the composing loop reads each
    /// station's pair from its slot.
    fn forward(&self) -> (Vec<RootMap>, Vec<bool>) {
        let len = self.frame.len();
        // Every station's edge pair as if it were its parent's sole
        // in-frame child (one branch-free sweep), then the true pairs of
        // each linked station's children from one fold per list.
        let mut maps: Vec<RootMap> = (self.h.iter().zip(self.frame.parent_costs()))
            .map(|(&h, &cost)| RootMap::sole_edge(h, cost))
            .collect();
        for kids in self.frame.linked_lists() {
            self.edge_pairs(kids, &mut maps);
        }
        maps[0] = RootMap::SOURCE;
        let mut reached = Vec::with_capacity(len);
        reached.push(true);
        for l in 1..local_id(len) {
            let (li, p) = (l as usize, self.frame.parent_local(l) as usize);
            reached.push(reached[p] && self.pos[li] < self.choice[p]);
            maps[li] = if self.h[li] == 0.0 {
                RootMap::ABSORB
            } else {
                maps[p].child(maps[li])
            };
        }
        (maps, reached)
    }

    /// Write the edge pair of each of a linked local's children `kids`
    /// into its slot of `maps`: the kernel's fold over the in-frame
    /// children, each pair `(prefix maximum before the child − b, suffix
    /// maximum from it − b)` against the final best prefix value `b`. A
    /// lone child keeps the sole pair the sweep wrote (the same floats);
    /// two children, the most common list, take the fold unrolled (the
    /// same float sequence); longer lists fold right to left over the raw
    /// values, which wait in the slots' `b` halves.
    fn edge_pairs(&self, kids: &[u32], maps: &mut [RootMap]) {
        match *kids {
            [_] => {}
            [c0, c1] => {
                let acc = 0.0 + self.h[c0 as usize];
                let val0 = acc - self.frame.parent_cost(c0);
                let pre1 = if val0 >= 0.0 { val0 } else { 0.0 };
                let val1 = (acc + self.h[c1 as usize]) - self.frame.parent_cost(c1);
                let b = if val1 >= pre1 { val1 } else { pre1 };
                let suf1 = val1.max(f64::NEG_INFINITY);
                maps[c1 as usize] = RootMap {
                    a: pre1 - b,
                    b: suf1 - b,
                };
                maps[c0 as usize] = RootMap {
                    a: 0.0 - b,
                    b: val0.max(suf1) - b,
                };
            }
            _ => {
                let (mut acc, mut b) = (0.0f64, 0.0f64);
                for &c in kids {
                    acc += self.h[c as usize];
                    let val = acc - self.frame.parent_cost(c);
                    maps[c as usize] = RootMap { a: b, b: val };
                    if val >= b {
                        b = val;
                    }
                }
                let mut cur = f64::NEG_INFINITY;
                for &c in kids.iter().rev() {
                    let slot = &mut maps[c as usize];
                    cur = slot.b.max(cur);
                    *slot = RootMap {
                        a: slot.a - b,
                        b: cur - b,
                    };
                }
            }
        }
    }

    /// The chosen-prefix selection over the flushed DP: the
    /// [`NetWorth::forward`] pass, then gathers the out-of-frame stations
    /// of `R*` (ascending). Returns them with the served cost `C_T(R*)` —
    /// bit for bit `UniversalTree::multicast_cost(R*)` — and the forward
    /// pass's maps and reached flags.
    ///
    /// A pass in ascending station id adds each reached station's power
    /// — the cost of the last child of its prefix — to `+0.0`, and merges
    /// its in-frame children against the prefix positions: a gap is an
    /// out-of-frame child. An out-of-frame station's prefix is its
    /// leading run of zero-cost children (every `val_j = −c_j`, and only
    /// `c_j = 0` survives the exact `val ≥ 0.0` tie-break), so it and its
    /// reached subtree add exactly `+0.0`, and the sum is the reference's
    /// ascending-id float sequence minus exact `+0.0` terms. Only the
    /// out-of-frame stations are sorted.
    fn selection(&mut self) -> Selection {
        self.flush();
        let (maps, reached) = self.forward();
        self.frame.merge_by_station();
        let sub = self.ut.substrate();
        let mut outside = Vec::new();
        let mut cost = 0.0;
        for &x in self.frame.by_station() {
            let end = self.choice[x as usize] as usize;
            if !reached[x as usize] || end == 0 {
                continue;
            }
            // Prefix positions no in-frame child holds (`next..pos`, then
            // `next..end`) hold out-of-frame children.
            let (mut next, mut power) = (0, 0.0);
            for &c in self.frame.children(x).as_slice() {
                let pos = self.pos[c as usize] as usize;
                if pos >= end {
                    break;
                }
                if next < pos {
                    let kids = sub.sorted_children(self.frame.global_of(x));
                    outside.extend_from_slice(&kids[next..pos]);
                }
                next = pos + 1;
                power = self.frame.parent_cost(c);
            }
            if next < end {
                let kids = sub.sorted_children(self.frame.global_of(x));
                outside.extend_from_slice(&kids[next..end]);
                power = sub.parent_cost(kids[end - 1].index());
            }
            cost += power;
        }
        // Below an out-of-frame station everything is out of frame, and
        // its prefix is its zero-cost lead (none without zero-cost edges).
        let mut i = 0;
        while i < outside.len() {
            let x = outside[i].index();
            outside.extend(sub.zero_cost_children(x));
            i += 1;
        }
        outside.sort_unstable();
        Selection {
            cost,
            maps,
            reached,
            outside,
        }
    }

    /// The stations of `{source} ∪ R*` that `sel` reached, ascending,
    /// each with its local id ([`Subframe::NONE`] out of frame): the
    /// frame's station order, filtered by `reached`, merged with the
    /// sorted out-of-frame stations.
    fn reached_by_station<'s>(
        &'s self,
        sel: &'s Selection,
    ) -> impl Iterator<Item = (usize, u32)> + 's {
        let inside = self
            .frame
            .by_station()
            .iter()
            .filter(|&&l| sel.reached[l as usize])
            .map(|&l| (self.frame.global_of(l), l));
        let outside = sel.outside.iter().map(|x| (x.index(), NO_LOCAL));
        merge_by_key(inside, outside, |&(x, _)| x)
    }

    /// The largest efficient station set `R*` (ascending, source
    /// excluded), the maximal net worth `NW(u)`, and the served cost
    /// `C_T(R*)`.
    pub fn efficient_set(&mut self) -> (Vec<usize>, f64, f64) {
        let sel = self.selection();
        let s = self.ut.network().source();
        let stations = self
            .reached_by_station(&sel)
            .map(|(x, _)| x)
            .filter(|&x| x != s)
            .collect();
        (stations, self.h[Subframe::ROOT as usize], sel.cost)
    }

    /// The marginal-cost (VCG) outcome for the utilities the oracle holds:
    /// serve the largest efficient set, charge every receiver its
    /// externality `u_i − (NW(u) − NW(u_{−i}))`, clamped at 0 (the
    /// paper's form (3) under submodularity). The single evaluation path
    /// of the MC mechanism — one-shot runs and warm sessions both call
    /// it.
    ///
    /// A bidding receiver `v` is charged `max(0, u + max(A_v, B_v − u⁺))`
    /// off its own root map, in `O(1)`. A receiver out of frame, or whose
    /// stored utility is `+0.0` bits, is charged `+0.0`: zeroing it
    /// changes no `h`. (`−0.0` and NaN are bidders.) The outcome stores a
    /// share entry only for each *bidding* receiver; relays and other
    /// zero-bid receivers read `+0.0`, so nothing is sized by `n`. One
    /// pass over the frame counts the receivers and the bidders first,
    /// so both buffers are allocated once, at their final size.
    pub fn vcg_outcome(&mut self) -> MechanismOutcome {
        let sel = self.selection();
        let net = self.ut.network();
        // The source is reached but is no player; its utility is never
        // set, so it is no bidder.
        let (mut reached, mut bidders) = (0, 0);
        for (u, &r) in self.u.iter().zip(&sel.reached) {
            if r {
                reached += 1;
                bidders += usize::from(u.to_bits() != 0);
            }
        }
        let n_receivers = reached - 1 + sel.outside.len();
        let mut shares = Shares::with_capacity(net.n_players(), bidders);
        let mut receivers = Vec::with_capacity(n_receivers);
        for (x, l) in self.reached_by_station(&sel) {
            let Some(p) = net.player_of_station(x) else {
                continue;
            };
            receivers.push(p);
            if l != NO_LOCAL && self.u[l as usize].to_bits() != 0 {
                let u = self.u[l as usize];
                shares.set(p, (u + sel.maps[l as usize].change(u.max(0.0))).max(0.0));
            }
        }
        debug_assert_eq!(receivers.len(), n_receivers, "receivers counted exactly");
        MechanismOutcome {
            receivers,
            shares,
            served_cost: sel.cost,
        }
    }

    /// Maximal net worth `NW(u)`.
    pub fn net_worth(&mut self) -> f64 {
        self.flush();
        self.h[Subframe::ROOT as usize]
    }

    /// `NW(u_{−x})`: the maximal net worth with station `x`'s utility
    /// zeroed, `NW + max(A_x, B_x − u⁺)` off `x`'s root map — the map
    /// [`NetWorth::vcg_outcome`] charges from, so this costs one forward
    /// pass. Agrees with a full DP on the modified profile up to float
    /// reassociation (pinned by property tests). An out-of-frame station
    /// carries zero utility already, so zeroing it changes nothing.
    pub fn net_worth_zeroing(&mut self, station: usize) -> f64 {
        assert!(
            station != self.ut.network().source(),
            "the source has no utility to zero"
        );
        self.flush();
        let nw = self.h[Subframe::ROOT as usize];
        match self.frame.local_of(station) {
            Some(v) => {
                let u = self.u[v as usize];
                nw + self.forward().0[v as usize].change(u.max(0.0))
            }
            None => nw,
        }
    }

    /// The full station-indexed utility vector (what
    /// [`NetWorth::from_utilities`] would be fed for a cold rebuild) —
    /// `O(n)` transient.
    pub fn utilities(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.ut.network().n_stations()];
        for (l, &ul) in self.u.iter().enumerate() {
            out[self.frame.global_of(local_id(l))] = ul;
        }
        out
    }

    /// Closure size (local stations, including the source).
    pub fn frame_len(&self) -> usize {
        self.frame.len()
    }

    /// Heap bytes of the warm state: frame plus local arrays. A query's
    /// scratch and selection are dropped with it, so none is counted.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.frame.memory_bytes()
            + (self.u.capacity() + self.h.capacity() + self.next_cost.capacity()) * size_of::<f64>()
            + (self.choice.capacity() + self.pos.capacity()) * size_of::<u32>()
            + self.dirty.capacity() * size_of::<bool>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SubstrateBuilder;
    use crate::fixtures::{chain_tree, random_tree};
    use crate::network::WirelessNetwork;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_geom::{Point, PowerModel};
    use wmcs_graph::RootedTree;

    /// The engine plus the local id of every station it has framed
    /// (stable: the frame is append-only).
    struct Engine {
        engine: Shapley,
        local: Vec<u32>,
    }

    impl Engine {
        fn build(ut: &UniversalTree, receivers: &[usize]) -> Self {
            let mut e = Engine {
                engine: Shapley::new(ut),
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
            self.engine.drop_receiver(self.local[station]);
        }
    }

    /// The engine's round pass on `alive` equals the reference split
    /// [`UniversalTree::shapley_shares`] bit for bit — the identity that
    /// lets the drop loop charge its fixpoint round.
    fn assert_round_is_the_split(e: &mut Engine, ut: &UniversalTree, alive: &[usize]) {
        let mut buf = RoundBuffers::default();
        let by_local = e.engine.round_shares_by_local(&mut buf);
        let reference = ut.shapley_shares(alive);
        for &r in alive {
            let f = by_local[e.local[r] as usize];
            assert_eq!(
                f.to_bits(),
                reference[r].to_bits(),
                "alive {alive:?}, station {r}: {f} ≠ {}",
                reference[r]
            );
        }
    }

    #[test]
    fn round_shares_match_the_reference_split() {
        let ut = chain_tree();
        for receivers in [vec![1], vec![2], vec![3], vec![2, 3], vec![1, 2, 3]] {
            assert_round_is_the_split(&mut Engine::build(&ut, &receivers), &ut, &receivers);
        }
    }

    #[test]
    fn dropping_matches_recomputation_from_scratch() {
        for seed in 0..20 {
            let ut = random_tree(seed, 12);
            let mut alive: Vec<usize> = ut.network().non_source_stations();
            let mut engine = Engine::build(&ut, &alive);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xd0b);
            while alive.len() > 1 {
                let victim = alive.remove(rng.gen_range(0..alive.len()));
                engine.leave(victim);
                assert_round_is_the_split(&mut engine, &ut, &alive);
            }
        }
    }

    #[test]
    fn add_and_drop_walk_matches_recomputation_from_scratch() {
        // A random join/leave walk over the receiver set: after every
        // step the round shares must equal the reference split on the
        // current set, and joins must exactly invert drops.
        for seed in 0..20 {
            let ut = random_tree(seed, 14);
            let all = ut.network().non_source_stations();
            let mut engine = Engine::build(&ut, &[]);
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
        // A warm oracle absorbing random events — zeros included, several
        // per flush — equals a cold oracle fed the same utilities in
        // every query, bit for bit.
        for seed in 0..20 {
            let ut = random_tree(seed, 13);
            let n = ut.network().n_stations();
            let s = ut.network().source();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e7);
            let mut u = vec![0.0f64; n];
            let mut warm = NetWorth::new(&ut);
            for _event in 0..30 {
                let x = loop {
                    let x = rng.gen_range(0..n);
                    if x != s {
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
                if rng.gen_bool(0.4) {
                    continue; // batch this event with the next
                }
                let mut cold = NetWorth::from_utilities(&ut, &u);
                assert_eq!(warm.net_worth(), cold.net_worth(), "seed {seed}");
                assert_eq!(warm.efficient_set(), cold.efficient_set(), "seed {seed}");
                for y in (0..n).filter(|&y| y != s) {
                    assert_eq!(
                        warm.net_worth_zeroing(y).to_bits(),
                        cold.net_worth_zeroing(y).to_bits(),
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
            let mut oracle = NetWorth::from_utilities(&ut, &u);
            assert_eq!(
                oracle.net_worth().to_bits(),
                ut.net_worth(&u).to_bits(),
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

    /// Stations at `pts` (free-space costs), every one a child of the
    /// source at station 0 unless `parents` says otherwise.
    fn explicit_tree(pts: &[(f64, f64)], parents: Vec<Option<usize>>) -> UniversalTree {
        let pts = pts.iter().map(|&(x, y)| Point::xy(x, y)).collect();
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        SubstrateBuilder::from_owned(net)
            .explicit_tree(RootedTree::from_parents(0, parents))
            .build_universal()
    }

    /// A warm oracle fed only `bids` — so the stations off their root
    /// paths stay out of frame — equals a cold oracle framed on every
    /// station (no out-of-frame child, so no shortcut) and the plain DP,
    /// bit for bit: net worth, efficient set, served cost, every zeroing
    /// query and the VCG outcome. Returns the efficient set.
    fn assert_partial_frame_is_exact(ut: &UniversalTree, bids: &[(usize, f64)]) -> Vec<usize> {
        let n = ut.network().n_stations();
        let mut u = vec![0.0; n];
        let mut warm = NetWorth::new(ut);
        for &(x, bid) in bids {
            u[x] = bid;
            warm.set_utility(x, bid);
        }
        assert!(warm.frame_len() < n, "a station must stay out of frame");
        let mut cold = NetWorth::from_utilities(ut, &u);
        let (set, nw) = ut.largest_efficient_set(&u);
        let cost = ut.multicast_cost(&set);
        for oracle in [&mut warm, &mut cold] {
            let (got, got_nw, got_cost) = oracle.efficient_set();
            assert_eq!(got, set);
            assert_eq!(got_nw.to_bits(), nw.to_bits());
            assert_eq!(oracle.net_worth().to_bits(), ut.net_worth(&u).to_bits());
            assert_eq!(got_cost.to_bits(), cost.to_bits());
        }
        for x in 1..n {
            assert_eq!(
                warm.net_worth_zeroing(x).to_bits(),
                cold.net_worth_zeroing(x).to_bits(),
                "station {x}"
            );
        }
        let (w, c) = (warm.vcg_outcome(), cold.vcg_outcome());
        assert_eq!(w.receivers, c.receivers);
        let bits =
            |o: &MechanismOutcome| -> Vec<u64> { o.shares.iter().map(|s| s.to_bits()).collect() };
        assert_eq!(bits(&w), bits(&c));
        assert_eq!(w.served_cost.to_bits(), c.served_cost.to_bits());
        set
    }

    #[test]
    fn prefix_runs_on_over_an_equal_cost_sibling_out_of_frame() {
        // Source children by cost: 1 (0.25, loses), 2 (1.0, the winner),
        // 3 (1.0, never bids), 4 (4.0). Station 3's value ties the
        // winner's exactly, so the efficient set reaches it for free.
        let ut = explicit_tree(
            &[(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 2.0)],
            vec![None, Some(0), Some(0), Some(0), Some(0)],
        );
        let set = assert_partial_frame_is_exact(&ut, &[(1, 0.1), (2, 5.0)]);
        assert_eq!(set, vec![1, 2, 3]);
    }

    #[test]
    fn prefix_runs_on_over_a_sibling_the_prefix_sum_absorbs() {
        // A bid near 1e17 (one ulp is 16) makes 1e17 − 1.0 and 1e17 − 2.25
        // the same float: the costlier out-of-frame sibling ties, joins
        // the set and sets the source's power.
        let ut = explicit_tree(
            &[(0.0, 0.0), (1.0, 0.0), (0.0, 1.5)],
            vec![None, Some(0), Some(0)],
        );
        let set = assert_partial_frame_is_exact(&ut, &[(1, 1e17)]);
        assert_eq!(set, vec![1, 2]);
        assert_eq!(ut.multicast_cost(&set), 2.25);
    }

    #[test]
    fn a_duplicate_point_child_is_chosen_when_every_framed_child_loses() {
        // Station 2 sits on station 1 (cost 0.0); station 3 costs 9.0
        // from station 1 and bids too little to win. Station 1's prefix
        // is then its zero-cost lead: out-of-frame station 2 alone.
        let ut = explicit_tree(
            &[(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (4.0, 0.0)],
            vec![None, Some(0), Some(1), Some(1)],
        );
        let set = assert_partial_frame_is_exact(&ut, &[(1, 5.0), (3, 0.5)]);
        assert_eq!(set, vec![1, 2]);
    }

    #[test]
    fn oracle_efficient_set_net_worth_is_consistent_with_its_set() {
        // The returned net worth must be the welfare of the returned set
        // (exact tie-break, no EPS drift), and the oracle's selection is
        // the plain DP's.
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
            let (oracle_set, oracle_nw, _) = NetWorth::from_utilities(&ut, &u).efficient_set();
            assert_eq!(oracle_set, set, "seed {seed}");
            assert_eq!(oracle_nw.to_bits(), nw.to_bits(), "seed {seed}");
        }
    }
}
