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
//!   in its subtree (`T(R)` membership is exactly `rb > 0`) and its
//!   active children as a cost-ordered doubly-linked list. A round's
//!   shares are one `O(|T(R)|)` top-down pass that turns the paper's
//!   per-increment split (§2.1) into prefix sums
//!   `down[y_i] = down[x] + Σ_{j≤i} δ_j / users_j`.
//! * [`NetWorth`] keeps the bottom-up DP with per-station prefix/suffix
//!   maxima, so each zeroing query costs `O(depth)` instead of a full
//!   DP. Utility changes are batched: [`NetWorth::set_utility`] only
//!   records the bid, and the next query repairs the union of the dirty
//!   root paths once.
//!
//! | operation | cost | invariant |
//! |---|---|---|
//! | [`Shapley::add_receiver`] | `O(path)` amortised | state equals a fresh engine on the enlarged set |
//! | [`Shapley::drop_receiver`] | `O(depth)` | state equals a fresh engine on the shrunken set |
//! | [`Shapley::round_shares_by_local`] | `O(\|T(R)\|)` | [`UniversalTree::shapley_shares`] on the current set, bit for bit |
//! | [`Shapley::served_cost`] | `O(\|T(R)\| log \|T(R)\|)` | [`UniversalTree::multicast_cost`] of the current set, bit for bit |
//! | [`NetWorth::set_utility`] | `O(path)` amortised (frame growth) | repair deferred to the next query |
//! | first query after a batch | one kernel per station on the union of dirty root paths | every read float equals a fresh oracle's |
//! | [`NetWorth::vcg_outcome`] | `O(\|R*\| log \|R*\|)` + `O(depth)` per bidding receiver | a fresh oracle's outcome, bit for bit |
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

use crate::power::PowerAssignment;
use crate::substrate::{grow_to, Subframe, TreeSubstrate};
use crate::universal::UniversalTree;
use wmcs_game::{run_drop_loop, run_drop_loop_from, DropLoopMethod, MechanismOutcome};

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
/// active receiver set, `T(R)` membership via subtree receiver counts,
/// and the active children of every station in ascending edge-cost
/// order — all over [`Subframe`] local ids.
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
    /// Intrusive cost-ordered list of each local station's children with
    /// `rb > 0`, in local ids ([`Subframe::NONE`] ends a chain).
    first_child: Vec<u32>,
    next_sib: Vec<u32>,
    prev_sib: Vec<u32>,
    /// Accumulated root-path share prefix per local station; after a
    /// round pass, an active receiver's entry is its share.
    down: Vec<f64>,
    /// Scratch: DFS stack of local ids.
    stack: Vec<u32>,
    rounds: usize,
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
            first_child: vec![NO_LOCAL],
            next_sib: vec![NO_LOCAL],
            prev_sib: vec![NO_LOCAL],
            down: vec![0.0],
            stack: Vec::new(),
            rounds: 0,
        }
    }

    /// Grow the parallel arrays to the frame's current length (new locals
    /// start inactive and unlinked: no receiver below them).
    fn sync_frame(&mut self) {
        let len = self.frame.len();
        if self.in_r.len() < len {
            grow_to(&mut self.in_r, len, false);
            grow_to(&mut self.rb, len, 0);
            grow_to(&mut self.first_child, len, NO_LOCAL);
            grow_to(&mut self.next_sib, len, NO_LOCAL);
            grow_to(&mut self.prev_sib, len, NO_LOCAL);
            grow_to(&mut self.down, len, 0.0);
        }
    }

    /// Add receiver `station`, growing the frame by its out-of-frame
    /// root-path suffix if needed, and return the station's local id
    /// (stable for the engine's lifetime — the frame is append-only):
    /// increment the subtree counts on its root path and splice stations
    /// whose subtree just became non-empty into their parent's active
    /// children at the cost-ordered position. `O(path + Σ sibling
    /// scans)`; the state equals a fresh engine on the enlarged set.
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
        loop {
            self.rb[w as usize] += 1;
            let p = self.frame.parent_local(w);
            if p == NO_LOCAL {
                break;
            }
            if self.rb[w as usize] == 1 {
                // w entered T(R): splice it in after its nearest active
                // cost-order predecessor — the last in-frame sibling
                // before w's position with rb > 0 (active stations are
                // always in frame).
                let wpos = self.frame.pos_in_parent(w);
                let mut pr = NO_LOCAL;
                for c in self.frame.children(p) {
                    if self.frame.pos_in_parent(c) >= wpos {
                        break;
                    }
                    if self.rb[c as usize] > 0 {
                        pr = c;
                    }
                }
                let nx = if pr == NO_LOCAL {
                    self.first_child[p as usize]
                } else {
                    self.next_sib[pr as usize]
                };
                self.prev_sib[w as usize] = pr;
                self.next_sib[w as usize] = nx;
                if pr == NO_LOCAL {
                    self.first_child[p as usize] = w;
                } else {
                    self.next_sib[pr as usize] = w;
                }
                if nx != NO_LOCAL {
                    self.prev_sib[nx as usize] = w;
                }
            }
            w = p;
        }
        v
    }

    /// Drop the receiver at local id `v` (obtained from
    /// [`Shapley::add_receiver`]): decrement the subtree counts on its
    /// root path and unlink stations whose subtree just emptied.
    /// `O(depth)`.
    pub fn drop_receiver(&mut self, v: u32) {
        debug_assert!(self.in_r[v as usize], "local {v} is not an active receiver");
        self.in_r[v as usize] = false;
        let mut w = v;
        loop {
            self.rb[w as usize] -= 1;
            let p = self.frame.parent_local(w);
            if p == NO_LOCAL {
                break;
            }
            if self.rb[w as usize] == 0 {
                // w left T(R): unlink it from p's active children.
                let (pr, nx) = (self.prev_sib[w as usize], self.next_sib[w as usize]);
                if pr == NO_LOCAL {
                    self.first_child[p as usize] = nx;
                } else {
                    self.next_sib[pr as usize] = nx;
                }
                if nx != NO_LOCAL {
                    self.prev_sib[nx as usize] = pr;
                }
            }
            w = p;
        }
    }

    /// The paper's per-increment Shapley split (§2.1) for the current
    /// receiver set, as one `O(|T(R)|)` top-down pass. For station `x`
    /// with active children `y_1 … y_k` (ascending cost), increment
    /// `δ_i = c(x,y_i) − c(x,y_{i−1})` is worth `δ_i / users_i` to every
    /// receiver below `y_i … y_k`, so the accumulated prefix
    /// `down[y_i] = down[x] + Σ_{j≤i} δ_j / users_j` *is* the share of
    /// every receiver whose root path enters `x` through `y_i`. Returns
    /// `down` by **local** id: an active receiver's entry is its share
    /// (entries outside the active set are stale). Each receiver's entry
    /// is [`UniversalTree::shapley_shares`]'s bit for bit — the same
    /// slices `δ_i / users_i` (`δ ≤ 0` skipped) added to `+0.0` root first
    /// — so the drop loop charges its fixpoint round.
    pub fn round_shares_by_local(&mut self) -> &[f64] {
        self.rounds += 1;
        self.down[Subframe::ROOT as usize] = 0.0;
        self.stack.clear();
        self.stack.push(Subframe::ROOT);
        while let Some(x) = self.stack.pop() {
            let xi = x as usize;
            // Receivers strictly below x: its own subtree count minus x.
            let mut remaining = self.rb[xi] - u32::from(self.in_r[xi]);
            let mut prev_cost = 0.0;
            let mut acc = self.down[xi];
            let mut y = self.first_child[xi];
            while y != NO_LOCAL {
                let yi = y as usize;
                // Frame-cached edge cost — bit-identical to net.cost(x, y).
                let cost = self.frame.parent_cost(y);
                let delta = cost - prev_cost;
                prev_cost = cost;
                if delta > 0.0 {
                    debug_assert!(remaining > 0, "every active branch has a receiver");
                    acc += delta / remaining as f64;
                }
                self.down[yi] = acc;
                remaining -= self.rb[yi];
                self.stack.push(y);
                y = self.next_sib[yi];
            }
        }
        &self.down
    }

    /// The served cost `C_T(R)` of the current receiver set, read off the
    /// warm `T(R)`: every station with active children emits the cost of
    /// the last (costliest) one, and `PowerAssignment::total_cost_of`
    /// sums those powers in ascending **global** station id — bit for bit
    /// [`UniversalTree::multicast_cost`] on the active stations.
    /// `O(|T(R)| log |T(R)|)`.
    pub fn served_cost(&mut self) -> f64 {
        let mut powers = Vec::new();
        self.stack.clear();
        self.stack.push(Subframe::ROOT);
        while let Some(x) = self.stack.pop() {
            let mut last = NO_LOCAL;
            let mut y = self.first_child[x as usize];
            while y != NO_LOCAL {
                self.stack.push(y);
                last = y;
                y = self.next_sib[y as usize];
            }
            if last != NO_LOCAL {
                powers.push((self.frame.global_of(x), self.frame.parent_cost(last), ()));
            }
        }
        PowerAssignment::total_cost_of(&mut powers)
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
    /// group).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.frame.memory_bytes()
            + self.in_r.capacity() * size_of::<bool>()
            + (self.rb.capacity()
                + self.first_child.capacity()
                + self.next_sib.capacity()
                + self.prev_sib.capacity()
                + self.stack.capacity())
                * size_of::<u32>()
            + self.down.capacity() * size_of::<f64>()
    }
}

/// Coalition-indexed [`DropLoopMethod`] over a borrowed engine: position
/// `i` of the driver's coalition is local station `locals[i]`. Borrowing
/// (rather than owning) the engine is what lets a live session
/// ([`crate::session::ShapleySession`]) keep it warm across many
/// drop-loop runs.
pub(crate) struct Adapter<'e> {
    pub(crate) engine: &'e mut Shapley,
    pub(crate) locals: &'e [u32],
}

impl DropLoopMethod for Adapter<'_> {
    fn n_players(&self) -> usize {
        self.engine.ut.network().n_players()
    }

    fn round_shares_into(&mut self, out: &mut Vec<f64>) {
        let by_local = self.engine.round_shares_by_local();
        out.clear();
        out.extend(self.locals.iter().map(|&l| by_local[l as usize]));
    }

    fn drop_player(&mut self, i: usize) {
        self.engine.drop_receiver(self.locals[i]);
    }

    fn served_cost(&mut self) -> f64 {
        self.engine.served_cost()
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
    let out = run_drop_loop(
        &mut Adapter {
            engine: &mut engine,
            locals: &locals,
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
    run_drop_loop_from(
        &mut Adapter {
            engine: &mut engine,
            locals: &locals,
        },
        &bids,
        players,
    )
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
            let mut shares = vec![0.0; n];
            for &p in &alive {
                shares[p] = share(p);
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

/// The largest-efficient-set DP (§2.1) with `O(depth)` re-query after
/// zeroing one station's utility — the MC/VCG mechanism, which needs
/// `NW(u_{−i})` for every receiver `i`, over a frame holding the
/// grow-only path closure of every station that ever carried a bid.
///
/// Per local station the DP stores `h` (best net worth of the subtree
/// game), the chosen prefix value `best` and length `choice` over the
/// **global** cost-sorted child slice, and — at each station's own edge
/// — the prefix/suffix maxima of its parent's raw values
/// `val_j = Σ_{i≤j} h(y_i) − c(x, y_j)`: `pre = max(0, val_0 …
/// val_{pos−1})`, `suf = max(val_pos … val_{k−1})`. Zeroing a station
/// shifts every `val_j` of its parent with `j ≥ pos` by the same
/// `δ = h' − h`, so the parent's new best prefix is
/// `max(pre, suf + δ)` — `O(1)` per ancestor. Comparisons are exact
/// (total order, larger prefix only on true ties).
///
/// Out-of-frame stations carry zero utility and have no in-frame
/// descendant, so their DP state is *exactly* `h = best = 0.0`, with
/// `choice` their leading run of zero-cost children; the kernel scans all
/// global children of an in-frame station, and out-of-frame ones
/// contribute an exact `+0.0`. So every stored `h` is the same float
/// whatever the frame holds.
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
/// same utilities; a `pre`/`suf` pair goes stale only while its station's
/// `h` is `+0.0`, and the zeroing walk never reads such a pair (see the
/// argument in `DESIGN.md` §2f).
#[derive(Debug, Clone)]
pub struct NetWorth {
    ut: UniversalTree,
    frame: Subframe,
    /// Utilities by local station, as given (the DP clamps at 0 on use).
    u: Vec<f64>,
    /// `h[v]`: best net worth of the subtree game rooted at `v`.
    h: Vec<f64>,
    /// The chosen best prefix value at `v` (`h[v] = own(v) + best[v]`).
    best: Vec<f64>,
    /// Chosen prefix length at `v` over its **global** child slice.
    choice: Vec<u32>,
    /// `pre[v] = max(0, val_0 … val_{pos(v)−1})` at `v`'s own edge in its
    /// parent's slice — written by the parent's kernel.
    pre: Vec<f64>,
    /// `suf[v] = max(val_{pos(v)} … val_{k−1})`, same convention.
    suf: Vec<f64>,
    /// Locals whose kernel the next query runs first.
    dirty: Vec<bool>,
    /// One past the highest dirty local (0: nothing pending).
    dirty_end: usize,
    /// Scratch: raw prefix values over one station's global child slice.
    scratch: Vec<f64>,
    /// Scratch: one station's in-frame children (the kernel needs them
    /// indexable while it mutates `pre`/`suf`).
    fkids: Vec<u32>,
}

impl NetWorth {
    /// An empty oracle over `ut` (all utilities zero; the frame is just
    /// the source, whose kernel the first query runs).
    pub fn new(ut: &UniversalTree) -> Self {
        Self {
            ut: ut.clone(),
            frame: Subframe::new(ut.substrate()),
            u: vec![0.0],
            h: vec![0.0],
            best: vec![0.0],
            choice: vec![0],
            pre: vec![0.0],
            suf: vec![f64::NEG_INFINITY],
            dirty: vec![true],
            dirty_end: 1,
            scratch: Vec::new(),
            fkids: Vec::new(),
        }
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
        let len = self.frame.len();
        if self.u.len() < len {
            grow_to(&mut self.u, len, 0.0);
            grow_to(&mut self.h, len, 0.0);
            grow_to(&mut self.best, len, 0.0);
            grow_to(&mut self.choice, len, 0);
            grow_to(&mut self.pre, len, 0.0);
            grow_to(&mut self.suf, len, f64::NEG_INFINITY);
            // New locals run their kernel too.
            grow_to(&mut self.dirty, len, true);
            self.dirty_end = len;
        }
        self.u[v] = utility;
        self.dirty[v] = true;
        self.dirty_end = self.dirty_end.max(v + 1);
    }

    /// Run every pending kernel once, in descending local id — children
    /// before parents, since a parent's id is below its children's; a
    /// station whose `h` changed bits marks its parent.
    fn flush(&mut self) {
        let ut = self.ut.clone();
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

    /// The per-station kernel: recompute `h`/`best`/`choice` at local `v`
    /// and write the `pre`/`suf` entries of `v`'s **in-frame** children.
    /// Scans all global children of `v` — out-of-frame ones contribute
    /// their exact `h = 0.0`. `O(global degree of v)`.
    fn recompute(&mut self, sub: &TreeSubstrate, v: u32) {
        let kids_g = sub.sorted_children(self.frame.global_of(v));
        let k = kids_g.len();
        let mut fkids = std::mem::take(&mut self.fkids);
        fkids.clear();
        fkids.extend(self.frame.children(v));
        let nf = fkids.len();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        // Raw prefix values val_j = Σ_{i≤j} h(y_i) − c(v, y_j).
        let mut acc = 0.0f64;
        let mut fi = 0usize;
        for (j, &y) in kids_g.iter().enumerate() {
            let mut hy = 0.0;
            if fi < nf {
                let c = fkids[fi];
                if self.frame.pos_in_parent(c) as usize == j {
                    hy = self.h[c as usize];
                    fi += 1;
                }
            }
            acc += hy;
            scratch.push(acc - sub.parent_cost(y.index()));
        }
        debug_assert_eq!(fi, nf, "every in-frame child sits in the global slice");
        // Exact total order on value; larger prefix on true ties.
        let mut b = 0.0f64;
        let mut bj = 0usize;
        for (j, &val) in scratch.iter().enumerate() {
            if val >= b {
                b = val;
                bj = j + 1;
            }
        }
        // pre[c] = max(0, val_0 … val_{pos(c)−1}): running maximum,
        // recorded at each in-frame child's own slot.
        let mut run = 0.0f64;
        let mut fi = 0usize;
        for (j, &val) in scratch.iter().enumerate() {
            if fi < nf {
                let c = fkids[fi];
                if self.frame.pos_in_parent(c) as usize == j {
                    self.pre[c as usize] = run;
                    fi += 1;
                }
            }
            run = run.max(val);
        }
        // suf[c] = max(val_{pos(c)} … val_{k−1}), folded right to left
        // (raw value first).
        let mut cur = f64::NEG_INFINITY;
        let mut fi = nf;
        for (j, &val) in scratch.iter().enumerate().rev() {
            cur = if j + 1 == k { val } else { val.max(cur) };
            if fi > 0 {
                let c = fkids[fi - 1];
                if self.frame.pos_in_parent(c) as usize == j {
                    self.suf[c as usize] = cur;
                    fi -= 1;
                }
            }
        }
        let own = if v == Subframe::ROOT {
            0.0
        } else {
            self.u[v as usize].max(0.0)
        };
        self.h[v as usize] = own + b;
        self.best[v as usize] = b;
        self.choice[v as usize] = u32::try_from(bj).expect("child count fits u32");
        self.scratch = scratch;
        self.fkids = fkids;
    }

    /// The chosen-prefix walk from the source over the flushed DP: every
    /// station of `{source} ∪ R*` with its power (the cost of the last
    /// child in its prefix) and its local id ([`Subframe::NONE`] out of
    /// frame), sorted by station, and the served cost `C_T(R*)` that
    /// `PowerAssignment::total_cost_of` folds from those powers — bit for
    /// bit `UniversalTree::multicast_cost(R*)`. The walk carries each
    /// child's local id down by merging the frame's position-sorted child
    /// list against the chosen prefix, so it makes no global→local
    /// lookup. An out-of-frame station's prefix is its leading run of
    /// zero-cost children (every `val_j = −c_j`, and only `c_j = 0`
    /// survives the exact `val ≥ 0.0` tie-break), so it emits `+0.0`.
    fn selection(&mut self) -> (Vec<(usize, f64, u32)>, f64) {
        self.flush();
        let sub = self.ut.substrate();
        let mut reached = Vec::new();
        let mut stack = vec![(sub.network().source(), Subframe::ROOT)];
        while let Some((x, l)) = stack.pop() {
            let kids = sub.sorted_children(x);
            let mut power = 0.0;
            if l == NO_LOCAL {
                for y in kids
                    .iter()
                    .take_while(|y| sub.parent_cost(y.index()) == 0.0)
                {
                    power = sub.parent_cost(y.index());
                    stack.push((y.index(), NO_LOCAL));
                }
            } else {
                let mut framed = self.frame.children(l).peekable();
                for (j, y) in kids[..self.choice[l as usize] as usize].iter().enumerate() {
                    let yl = framed
                        .next_if(|&c| self.frame.pos_in_parent(c) as usize == j)
                        .unwrap_or(NO_LOCAL);
                    power = sub.parent_cost(y.index());
                    stack.push((y.index(), yl));
                }
            }
            reached.push((x, power, l));
        }
        let served_cost = PowerAssignment::total_cost_of(&mut reached);
        (reached, served_cost)
    }

    /// The largest efficient station set `R*` (ascending, source
    /// excluded), the maximal net worth `NW(u)`, and the served cost
    /// `C_T(R*)`.
    pub fn efficient_set(&mut self) -> (Vec<usize>, f64, f64) {
        let (reached, served_cost) = self.selection();
        let s = self.ut.network().source();
        let stations = reached
            .iter()
            .map(|&(x, _, _)| x)
            .filter(|&x| x != s)
            .collect();
        (stations, self.h[Subframe::ROOT as usize], served_cost)
    }

    /// The marginal-cost (VCG) outcome for the utilities the oracle holds:
    /// serve the largest efficient set, charge every receiver its
    /// externality `u_i − (NW(u) − NW(u_{−i}))`, clamped at 0 (the
    /// paper's form (3) under submodularity). The single evaluation path
    /// of the MC mechanism — one-shot runs and warm sessions both call
    /// it.
    ///
    /// A receiver out of frame, or whose stored utility is `+0.0` bits,
    /// is charged `+0.0` without a zeroing walk: zeroing it changes no
    /// `h`, and `(0.0 − (nw − nw)).max(0.0)` is `+0.0` even for an
    /// infinite `nw`. (`−0.0` and NaN take the full path.)
    pub fn vcg_outcome(&mut self) -> MechanismOutcome {
        let (reached, served_cost) = self.selection();
        let net = self.ut.network();
        let nw = self.h[Subframe::ROOT as usize];
        let mut shares = vec![0.0; net.n_players()];
        let mut receivers = Vec::new();
        for &(x, _, l) in &reached {
            let Some(p) = net.player_of_station(x) else {
                continue;
            };
            receivers.push(p);
            if l != NO_LOCAL && self.u[l as usize].to_bits() != 0 {
                let u = self.u[l as usize];
                shares[p] = (u - (nw - self.zeroing(l))).max(0.0);
            }
        }
        MechanismOutcome {
            receivers,
            shares,
            served_cost,
        }
    }

    /// `NW(u_{−v})` for local `v` on the flushed DP: walk up from `v`,
    /// re-deriving each ancestor's best prefix from its child's
    /// `pre`/`suf`, until an ancestor's `h` is unchanged.
    fn zeroing(&self, v: u32) -> f64 {
        let mut w = v;
        let mut hv = self.best[v as usize];
        while w != Subframe::ROOT {
            let wi = w as usize;
            if hv == self.h[wi] {
                // Nothing changed at w, so nothing changes above it.
                return self.h[Subframe::ROOT as usize];
            }
            let p = self.frame.parent_local(w);
            let delta = hv - self.h[wi];
            let b = self.pre[wi].max(self.suf[wi] + delta);
            let own_p = if p == Subframe::ROOT {
                0.0
            } else {
                self.u[p as usize].max(0.0)
            };
            hv = own_p + b;
            w = p;
        }
        hv
    }

    /// Maximal net worth `NW(u)`.
    pub fn net_worth(&mut self) -> f64 {
        self.flush();
        self.h[Subframe::ROOT as usize]
    }

    /// `NW(u_{−x})`: the maximal net worth with station `x`'s utility
    /// zeroed. Agrees with a full DP on the modified profile up to float
    /// reassociation (pinned by property tests). An out-of-frame station
    /// carries zero utility already, so zeroing it changes nothing.
    pub fn net_worth_zeroing(&mut self, station: usize) -> f64 {
        assert!(
            station != self.ut.network().source(),
            "the source has no utility to zero"
        );
        self.flush();
        match self.frame.local_of(station) {
            Some(v) => self.zeroing(v),
            None => self.h[Subframe::ROOT as usize],
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

    /// Heap bytes of the warm state: frame plus local arrays.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.frame.memory_bytes()
            + (self.u.capacity()
                + self.h.capacity()
                + self.best.capacity()
                + self.pre.capacity()
                + self.suf.capacity()
                + self.scratch.capacity())
                * size_of::<f64>()
            + (self.choice.capacity() + self.fkids.capacity()) * size_of::<u32>()
            + self.dirty.capacity() * size_of::<bool>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SubstrateBuilder, TreeKind};
    use crate::network::WirelessNetwork;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_geom::{Point, PowerModel};
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
        let by_local = e.engine.round_shares_by_local();
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
