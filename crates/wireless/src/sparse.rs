//! Sparse warm-session engines: per-group memory `O(|T(R_g)|)`, not
//! `O(n)`.
//!
//! The dense engines of [`crate::incremental`] keep ~13 universe-sized
//! arrays per session, so `G` warm groups over an `n = 10⁵` universe pay
//! `G × O(n)` bytes — ~21 GB at `G = 4096` — even though each group only
//! ever touches the path closure of its members (a few hundred stations).
//! The engines here re-base the exact same state onto a per-group
//! [`Subframe`] (see `DESIGN.md` §2f): every warm array is a `Vec` over
//! *local* ids, joins splice new path suffixes incrementally, and the
//! cost-ordered child lists / `O(path)` drop loop / `O(depth)` pre-suf
//! VCG queries carry over unchanged in local coordinates.
//!
//! # Byte-identity contract
//!
//! Sparse is a *layout*, not an approximation. Every outcome a sparse
//! session produces — receivers, every share float, the served cost —
//! is **bit-for-bit equal** to its dense counterpart's, because
//!
//! * the frame's in-frame child lists preserve the substrate's global
//!   cost order, so every local traversal replays the dense traversal
//!   on the same floats in the same order;
//! * stations outside the frame have no receivers and zero utility, so
//!   their dense DP state is *exactly* `h = 0.0` (not approximately:
//!   `own = 0`, every prefix value `≤ 0` loses to the initial `b = 0.0`),
//!   and adding `0.0` to a non-negative accumulator is a bitwise no-op —
//!   the dense pass over all `n` stations and the sparse pass over the
//!   frame run the *same* float operations;
//! * after the engine both layouts share one path: Shapley sessions run
//!   the [`wmcs_game::run_drop_loop_from`] loop and charge its fixpoint
//!   round, MC sessions evaluate [`vcg_outcome`], and every engine sums
//!   the served cost over its own `T(R)` with
//!   `PowerAssignment::total_cost_of` — the same cached edge costs,
//!   added in the same ascending **global** station order, so the frame
//!   sum equals the dense one and `UniversalTree::multicast_cost` bit
//!   for bit.
//!
//! The contract is pinned by `tests/sparse_props.rs` across all five
//! layout families × both mechanisms × churn traces, and gated at scale
//! by experiment T15.
//!
//! Per-reprice work stays inside the closure — drop-loop rounds, the VCG
//! walk and the served cost (a walk of `T(R)` plus a sort of its powers
//! by station) — except the outcome's full-length share vector, which
//! remains `O(n)` *transient*, as on the dense path. The **warm**
//! (retained) state is `O(|frame|)`, which is what the streaming SLO is
//! bound on.

use crate::power::PowerAssignment;
use crate::session::{vcg_outcome, ChurnEvent, NetWorthQueries};
use crate::substrate::{Subframe, TreeSubstrate};
use crate::universal::UniversalTree;
use wmcs_game::{run_drop_loop_from, DropLoopMethod, MechanismOutcome};

/// Local alias for the frame's "no local station" sentinel.
const NO_LOCAL: u32 = Subframe::NONE;

/// Frame-local twin of [`crate::incremental::IncrementalShapley`]: the
/// same subtree receiver counts and cost-ordered active-children lists,
/// indexed by [`Subframe`] local ids, so the warm footprint is
/// `O(|frame|)` instead of `O(n)`.
///
/// Invariant (the byte-identity anchor): for every in-frame station the
/// stored `rb`/link state equals what the dense engine stores at the
/// corresponding global station, and out-of-frame stations would be
/// all-zero densely (no receiver outside the closure — the frame
/// contains every member's root path by construction).
#[derive(Debug, Clone)]
pub struct SparseShapley {
    ut: UniversalTree,
    frame: Subframe,
    /// Is the local station an active receiver?
    in_r: Vec<bool>,
    /// Active receivers in the local station's subtree.
    rb: Vec<u32>,
    /// Intrusive cost-ordered list of each local station's children with
    /// `rb > 0`, in local ids ([`Subframe::NONE`] ends a chain).
    first_child: Vec<u32>,
    next_sib: Vec<u32>,
    prev_sib: Vec<u32>,
    /// Scratch: accumulated root-path share prefix per local station.
    down: Vec<f64>,
    /// Scratch: per-local-station shares of the last round.
    shares: Vec<f64>,
    /// Scratch: DFS stack of local ids.
    stack: Vec<u32>,
    rounds: usize,
}

impl SparseShapley {
    /// An empty engine over `ut` (nobody served; the frame is just the
    /// source). `O(1)` — this is the whole point: no universe-sized
    /// allocation ever happens on the sparse path.
    pub fn new(ut: &UniversalTree) -> Self {
        let frame = Subframe::new(ut.substrate());
        Self {
            ut: ut.clone(),
            frame,
            in_r: vec![false],
            rb: vec![0],
            first_child: vec![NO_LOCAL],
            next_sib: vec![NO_LOCAL],
            prev_sib: vec![NO_LOCAL],
            down: vec![0.0],
            shares: vec![0.0],
            stack: Vec::new(),
            rounds: 0,
        }
    }

    /// Grow the parallel arrays to the frame's current length (new
    /// locals start inactive / unlinked — exactly the dense state of a
    /// station with no receiver below it).
    fn sync_frame(&mut self) {
        let len = self.frame.len();
        if self.in_r.len() < len {
            self.in_r.resize(len, false);
            self.rb.resize(len, 0);
            self.first_child.resize(len, NO_LOCAL);
            self.next_sib.resize(len, NO_LOCAL);
            self.prev_sib.resize(len, NO_LOCAL);
            self.down.resize(len, 0.0);
            self.shares.resize(len, 0.0);
        }
    }

    /// Add receiver `station`, growing the frame by its out-of-frame
    /// root-path suffix if needed, and return the station's local id
    /// (stable for the session's lifetime — the frame is append-only).
    /// `O(path)` amortised; the resulting state equals a dense
    /// [`crate::incremental::IncrementalShapley::add_receiver`] because
    /// the nearest active cost-order predecessor is always in frame.
    pub fn add_receiver(&mut self, station: usize) -> u32 {
        let sub = self.ut.substrate().clone();
        assert!(
            station != sub.network().source(),
            "the source cannot be a receiver"
        );
        let v = self.frame.ensure(&sub, station);
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
                // w entered T(R): splice it into p's active children just
                // after its nearest active cost-order predecessor. The
                // frame's child list is the substrate's cost order
                // restricted to the closure, and active stations are
                // always in frame, so this is the dense splice verbatim.
                let wpos = self.frame.pos_in_parent(w);
                // The nearest active predecessor is the LAST in-frame
                // sibling before w's cost position with rb > 0 — a
                // forward walk of the sorted sibling list.
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
    /// [`SparseShapley::add_receiver`]): the dense
    /// [`crate::incremental::IncrementalShapley::drop_receiver`] in local
    /// coordinates. `O(depth)`.
    pub fn drop_receiver_local(&mut self, v: u32) {
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

    /// One round of the paper's §2.1 split over the frame — the dense
    /// [`crate::incremental::IncrementalShapley::round_shares_by_station`]
    /// pass replayed on local ids: same DFS order (the active-children
    /// lists preserve global cost order), same prefix-sum arithmetic,
    /// `O(|T(R)|)` instead of touching any universe-sized array. Returns
    /// per-**local** shares (stale outside the active set).
    pub fn round_shares_by_local(&mut self) -> &[f64] {
        self.rounds += 1;
        self.down[Subframe::ROOT as usize] = 0.0;
        self.stack.clear();
        self.stack.push(Subframe::ROOT);
        while let Some(x) = self.stack.pop() {
            let xi = x as usize;
            if self.in_r[xi] {
                self.shares[xi] = self.down[xi];
            }
            let mut remaining = self.rb[xi] - u32::from(self.in_r[xi]);
            let mut prev_cost = 0.0;
            let mut acc = self.down[xi];
            let mut y = self.first_child[xi];
            while y != NO_LOCAL {
                let yi = y as usize;
                // Frame-cached edge cost — bit-identical to the substrate's.
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
        &self.shares
    }

    /// The served cost `C_T(R)` over the frame — the dense
    /// [`crate::incremental::IncrementalShapley::served_cost`] walk on
    /// local ids: every local station with active children emits the
    /// cost of the last one, summed by `PowerAssignment::total_cost_of`
    /// in ascending **global** station id. `O(|T(R)| log |T(R)|)`.
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
                powers.push((self.frame.global_of(x), self.frame.parent_cost(last)));
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

    /// Heap bytes of the warm per-group state: the frame plus every
    /// local-id array. This is the figure that must scale with
    /// `|T(R_g)|`, not `n` (ISSUE 10's acceptance gate).
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
            + (self.down.capacity() + self.shares.capacity()) * size_of::<f64>()
    }

    /// Drop doubling-growth slack so steady-state warm bytes equal the
    /// exact closure footprint (called by the session at reprice time;
    /// no-op when tight).
    fn shrink_to_fit(&mut self) {
        self.frame.shrink_to_fit();
        self.in_r.shrink_to_fit();
        self.rb.shrink_to_fit();
        self.first_child.shrink_to_fit();
        self.next_sib.shrink_to_fit();
        self.prev_sib.shrink_to_fit();
        self.down.shrink_to_fit();
        self.shares.shrink_to_fit();
    }
}

/// Frame-local twin of [`NetWorthOracle`](crate::incremental::NetWorthOracle): the largest-efficient-set DP
/// with `O(depth)` zeroing queries, holding state only for the grow-only
/// path closure of every station that ever carried a bid.
///
/// Out-of-frame stations carry zero utility and have no in-frame
/// descendants (the closure is path-closed), so their dense DP state is
/// *exactly* `h = best = 0.0` with `choice` = their leading run of
/// zero-cost children — reproducible on the fly without storing
/// anything. The per-station kernel scans **all** global children of an
/// in-frame station (out-of-frame ones contribute an exact `+0.0`), so
/// every stored float is bitwise equal to the dense oracle's.
///
/// Unlike the dense flat per-edge `pre`/`suf` arrays, the sparse oracle
/// stores each station's prefix/suffix maxima **only at the station's
/// own edge** (one `f64` pair per local id): the zeroing walk only ever
/// reads the entries along a root path, and an entry is read only after
/// a utility change has forced its parent's recompute to write it (see
/// the staleness argument in `DESIGN.md` §2f).
#[derive(Debug, Clone)]
pub struct SparseNetWorth {
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
    /// parent's slice — written by the parent's recompute.
    pre: Vec<f64>,
    /// `suf[v] = max(val_{pos(v)} … val_{k−1})`, same convention.
    suf: Vec<f64>,
    /// Scratch: raw prefix values over one station's global child slice.
    scratch: Vec<f64>,
    /// Scratch: one station's in-frame children (the kernel needs them
    /// indexable while it mutates `pre`/`suf`).
    fkids: Vec<u32>,
}

impl SparseNetWorth {
    /// An empty oracle over `ut` (all utilities zero; the frame is just
    /// the source). `O(deg(source))` for the root's initial kernel run.
    pub fn new(ut: &UniversalTree) -> Self {
        let sub = ut.substrate().clone();
        let frame = Subframe::new(&sub);
        let mut oracle = Self {
            ut: ut.clone(),
            frame,
            u: vec![0.0],
            h: vec![0.0],
            best: vec![0.0],
            choice: vec![0],
            pre: vec![0.0],
            suf: vec![f64::NEG_INFINITY],
            scratch: Vec::new(),
            fkids: Vec::new(),
        };
        oracle.recompute_local(&sub, Subframe::ROOT);
        oracle
    }

    /// Grow the parallel arrays to the frame's current length and return
    /// the previous length (new locals start with the exact dense state
    /// of an all-zero subtree, pending their kernel run).
    fn sync_frame(&mut self) -> usize {
        let old = self.u.len();
        let len = self.frame.len();
        if old < len {
            self.u.resize(len, 0.0);
            self.h.resize(len, 0.0);
            self.best.resize(len, 0.0);
            self.choice.resize(len, 0);
            self.pre.resize(len, 0.0);
            self.suf.resize(len, f64::NEG_INFINITY);
        }
        old
    }

    /// The dense [`NetWorthOracle`](crate::incremental::NetWorthOracle) per-station kernel in local
    /// coordinates: recompute `h`/`best`/`choice` at local `v` and write
    /// the `pre`/`suf` entries of `v`'s **in-frame** children. Scans all
    /// global children of `v` — out-of-frame ones contribute their exact
    /// dense value `h = 0.0`, so the float stream is identical to the
    /// dense kernel's. `O(global degree of v)`.
    fn recompute_local(&mut self, sub: &TreeSubstrate, v: u32) {
        let vg = self.frame.global_of(v);
        let kids_g = sub.sorted_children(vg);
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
        // with the dense operand order (raw value first).
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

    /// Replace `station`'s utility and repair the DP along its root path
    /// — the dense [`NetWorthOracle::set_utility`](crate::incremental::NetWorthOracle::set_utility) with frame growth: an
    /// unseen station first splices its path suffix in and initialises
    /// the new locals bottom-up with the kernel (their subtrees are
    /// all-zero, so no ancestor changes until the utility lands).
    pub fn set_utility(&mut self, station: usize, utility: f64) {
        let sub = self.ut.substrate().clone();
        assert!(
            station != sub.network().source(),
            "the source has no utility"
        );
        let v = self.frame.ensure(&sub, station);
        let old_len = self.sync_frame();
        if self.frame.len() > old_len {
            // New locals were appended top-down; run the kernel deepest
            // first so each parent sees its (all-zero) child's exact h.
            for l in (old_len..self.frame.len()).rev() {
                self.recompute_local(&sub, u32::try_from(l).expect("frame ids fit u32"));
            }
        }
        let vi = v as usize;
        self.u[vi] = utility;
        // v's own prefix state depends only on its children, which are
        // untouched — only own(v) changes.
        let old = self.h[vi];
        self.h[vi] = utility.max(0.0) + self.best[vi];
        if self.h[vi] == old {
            return;
        }
        let mut w = v;
        while w != Subframe::ROOT {
            let p = self.frame.parent_local(w);
            debug_assert!(p != NO_LOCAL, "non-root local has a parent");
            let before = self.h[p as usize];
            self.recompute_local(&sub, p);
            if self.h[p as usize] == before {
                return;
            }
            w = p;
        }
    }

    /// Maximal net worth `NW(u)`.
    pub fn net_worth(&self) -> f64 {
        self.h[Subframe::ROOT as usize]
    }

    /// Closure size (local stations, including the source).
    pub fn frame_len(&self) -> usize {
        self.frame.len()
    }

    /// Heap bytes of the warm per-group state: frame plus local arrays.
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
    }

    /// Drop doubling-growth slack so steady-state warm bytes equal the
    /// exact closure footprint (called by the session at reprice time;
    /// no-op when tight).
    fn shrink_to_fit(&mut self) {
        self.frame.shrink_to_fit();
        self.u.shrink_to_fit();
        self.h.shrink_to_fit();
        self.best.shrink_to_fit();
        self.choice.shrink_to_fit();
        self.pre.shrink_to_fit();
        self.suf.shrink_to_fit();
    }
}

impl NetWorthQueries for SparseNetWorth {
    /// The dense oracle's walk, with the chosen prefix of an
    /// out-of-frame station reproduced on the fly (its leading run of
    /// zero-cost children: every `val_j = −c_j`, and only `c_j = 0`
    /// survives the exact `val ≥ 0.0` tie-break — so it emits `+0.0`).
    fn efficient_set(&self) -> (Vec<usize>, f64, f64) {
        let sub = self.ut.substrate();
        let s = sub.network().source();
        let mut reached = Vec::new();
        let mut stack = vec![s];
        while let Some(x) = stack.pop() {
            let kids = sub.sorted_children(x);
            let take = match self.frame.local_of(x) {
                Some(l) => self.choice[l as usize] as usize,
                None => kids
                    .iter()
                    .take_while(|&&y| sub.parent_cost(y.index()) == 0.0)
                    .count(),
            };
            let mut power = 0.0;
            for y in kids.iter().take(take) {
                power = sub.parent_cost(y.index());
                stack.push(y.index());
            }
            reached.push((x, power));
        }
        let served_cost = PowerAssignment::total_cost_of(&mut reached);
        let stations = reached
            .iter()
            .map(|&(x, _)| x)
            .filter(|&x| x != s)
            .collect();
        (stations, self.net_worth(), served_cost)
    }

    /// The dense oracle's walk over the frame. An out-of-frame station
    /// carries zero utility already, so zeroing it changes nothing (the
    /// dense walk exits on its first step).
    fn net_worth_zeroing(&self, station: usize) -> f64 {
        let sub = self.ut.substrate();
        let s = sub.network().source();
        assert!(station != s, "the source has no utility to zero");
        let Some(v) = self.frame.local_of(station) else {
            return self.net_worth();
        };
        let mut w = v;
        let mut hv = self.best[v as usize];
        while w != Subframe::ROOT {
            let wi = w as usize;
            if hv == self.h[wi] {
                // Nothing changed at w, so nothing changes above it.
                return self.net_worth();
            }
            let p = self.frame.parent_local(w);
            debug_assert!(p != NO_LOCAL, "non-root local has a parent");
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

    /// Zero for stations that never carried a bid — exactly the dense
    /// oracle's stored value for them.
    fn utility(&self, station: usize) -> f64 {
        match self.frame.local_of(station) {
            Some(l) => self.u[l as usize],
            None => 0.0,
        }
    }
}

/// One served member of a [`SparseShapleySession`].
#[derive(Debug, Clone, Copy)]
struct Member {
    /// Player id (fits `u32`: players are a subset of stations).
    player: u32,
    /// The member's station as a frame-local id (stable: append-only).
    local: u32,
    /// Current bid.
    bid: f64,
}

/// Coalition-indexed [`DropLoopMethod`] over a borrowed frame-local
/// engine (position `i` is `members[i]`): the sparse twin of the dense
/// `incremental::PlayerAdapter`, so both layouts run the one driver loop.
struct LocalAdapter<'e> {
    engine: &'e mut SparseShapley,
    members: &'e [Member],
}

impl DropLoopMethod for LocalAdapter<'_> {
    fn n_players(&self) -> usize {
        self.engine.ut.network().n_players()
    }

    fn round_shares_into(&mut self, out: &mut Vec<f64>) {
        let by_local = self.engine.round_shares_by_local();
        out.clear();
        out.extend(self.members.iter().map(|m| by_local[m.local as usize]));
    }

    fn drop_player(&mut self, i: usize) {
        self.engine.drop_receiver_local(self.members[i].local);
    }

    fn served_cost(&mut self) -> f64 {
        self.engine.served_cost()
    }
}

/// The sparse-layout twin of [`crate::session::ShapleySession`]: same
/// event semantics, same outcomes bit for bit, but the warm state is the
/// frame-local [`SparseShapley`] engine plus one small member list —
/// no universe-sized array survives between reprices.
#[derive(Debug, Clone)]
pub struct SparseShapleySession {
    ut: UniversalTree,
    engine: SparseShapley,
    /// Currently-served members, ascending by player.
    members: Vec<Member>,
    batches: usize,
    events: usize,
}

impl SparseShapleySession {
    /// An empty session over `ut`. `O(1)` — compare the dense session's
    /// `O(n)` construction.
    pub fn new(ut: &UniversalTree) -> Self {
        Self {
            ut: ut.clone(),
            engine: SparseShapley::new(ut),
            members: Vec::new(),
            batches: 0,
            events: 0,
        }
    }

    /// The universal tree the session prices over.
    pub fn universal_tree(&self) -> &UniversalTree {
        &self.ut
    }

    /// Absorb events without repricing — the dense
    /// [`crate::session::ShapleySession::apply_events`] total semantics
    /// on the sparse member list.
    pub fn apply_events(&mut self, events: &[ChurnEvent]) {
        for ev in events {
            self.events += 1;
            match *ev {
                ChurnEvent::Join { player, utility } => {
                    let p = u32::try_from(player).expect("player ids fit u32");
                    match self.members.binary_search_by_key(&p, |m| m.player) {
                        Ok(i) => self.members[i].bid = utility,
                        Err(i) => {
                            let station = self.ut.network().station_of_player(player);
                            let local = self.engine.add_receiver(station);
                            self.members.insert(
                                i,
                                Member {
                                    player: p,
                                    local,
                                    bid: utility,
                                },
                            );
                        }
                    }
                }
                ChurnEvent::Leave { player } => {
                    let p = u32::try_from(player).expect("player ids fit u32");
                    if let Ok(i) = self.members.binary_search_by_key(&p, |m| m.player) {
                        let m = self.members.remove(i);
                        self.engine.drop_receiver_local(m.local);
                    }
                }
                ChurnEvent::Rebid { player, utility } => {
                    let p = u32::try_from(player).expect("player ids fit u32");
                    if let Ok(i) = self.members.binary_search_by_key(&p, |m| m.player) {
                        self.members[i].bid = utility;
                    }
                }
            }
        }
    }

    /// Re-run the Moulin–Shenker drop loop from the current member set
    /// through the shared driver ([`run_drop_loop_from`], the loop the
    /// dense session runs) and charge the fixpoint round's shares, so
    /// the outcome is byte-identical to the dense session's. Evicted
    /// members leave the session (they must `Join` again).
    pub fn reprice(&mut self) -> MechanismOutcome {
        self.batches += 1;
        let initial = self.active_players();
        let bids: Vec<f64> = self.members.iter().map(|m| m.bid).collect();
        let out = run_drop_loop_from(
            &mut LocalAdapter {
                engine: &mut self.engine,
                members: &self.members,
            },
            &bids,
            &initial,
        );
        // Evictions persist: keep exactly the members the loop served
        // (both lists ascend by player).
        let mut served = out.receivers.iter().copied().peekable();
        self.members
            .retain(|m| served.next_if_eq(&(m.player as usize)).is_some());
        // The batch boundary is where warm state rests: return the
        // doubling-growth slack so the retained bytes are the exact
        // closure footprint (no-op unless the frame just grew).
        self.engine.shrink_to_fit();
        self.members.shrink_to_fit();
        out
    }

    /// Absorb one churn batch and reprice.
    pub fn apply_batch(&mut self, events: &[ChurnEvent]) -> MechanismOutcome {
        self.apply_events(events);
        self.reprice()
    }

    /// Currently-served players, ascending.
    pub fn active_players(&self) -> Vec<usize> {
        self.members.iter().map(|m| m.player as usize).collect()
    }

    /// The full-length bid profile the next reprice would use (zero for
    /// players outside the session) — `O(n)` transient, for parity
    /// checks against the dense session.
    pub fn reported_profile(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.ut.network().n_players()];
        for m in &self.members {
            out[m.player as usize] = m.bid;
        }
        out
    }

    /// Batches repriced so far.
    pub fn n_batches(&self) -> usize {
        self.batches
    }

    /// Events absorbed so far.
    pub fn n_events(&self) -> usize {
        self.events
    }

    /// Warm heap bytes retained between reprices: engine (frame +
    /// local arrays) plus the member list.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.engine.memory_bytes() + self.members.capacity() * size_of::<Member>()
    }

    /// Stations in the warm frame (the path closure of every station
    /// that ever joined) — the `|frame|` the session's memory scales
    /// with.
    pub fn frame_len(&self) -> usize {
        self.engine.frame_len()
    }
}

/// The sparse-layout twin of [`crate::session::McSession`]: the VCG
/// mechanism over a warm [`SparseNetWorth`], byte-identical outcomes,
/// `O(|frame|)` warm bytes.
#[derive(Debug, Clone)]
pub struct SparseMcSession {
    ut: UniversalTree,
    oracle: SparseNetWorth,
    /// Players with a live bid, ascending.
    members: Vec<u32>,
    batches: usize,
    events: usize,
}

impl SparseMcSession {
    /// An empty session over `ut` (all bids zero). `O(deg(source))`.
    pub fn new(ut: &UniversalTree) -> Self {
        Self {
            ut: ut.clone(),
            oracle: SparseNetWorth::new(ut),
            members: Vec::new(),
            batches: 0,
            events: 0,
        }
    }

    /// The universal tree the session prices over.
    pub fn universal_tree(&self) -> &UniversalTree {
        &self.ut
    }

    /// Absorb events — the dense
    /// [`crate::session::McSession::apply_events`] total semantics.
    pub fn apply_events(&mut self, events: &[ChurnEvent]) {
        for ev in events {
            self.events += 1;
            match *ev {
                ChurnEvent::Join { player, utility } => {
                    let p = u32::try_from(player).expect("player ids fit u32");
                    if let Err(i) = self.members.binary_search(&p) {
                        self.members.insert(i, p);
                    }
                    let station = self.ut.network().station_of_player(player);
                    self.oracle.set_utility(station, utility);
                }
                ChurnEvent::Leave { player } => {
                    let p = u32::try_from(player).expect("player ids fit u32");
                    if let Ok(i) = self.members.binary_search(&p) {
                        self.members.remove(i);
                        let station = self.ut.network().station_of_player(player);
                        self.oracle.set_utility(station, 0.0);
                    }
                }
                ChurnEvent::Rebid { player, utility } => {
                    let p = u32::try_from(player).expect("player ids fit u32");
                    if self.members.binary_search(&p).is_ok() {
                        let station = self.ut.network().station_of_player(player);
                        self.oracle.set_utility(station, utility);
                    }
                }
            }
        }
    }

    /// Recompute the VCG outcome from the warm sparse oracle through the
    /// one MC evaluation path, [`vcg_outcome`] — byte-identical to the
    /// dense session holding the same utilities.
    pub fn reprice(&mut self) -> MechanismOutcome {
        self.batches += 1;
        let out = vcg_outcome(&self.ut, &self.oracle);
        // The batch boundary is where warm state rests: return the
        // doubling-growth slack so the retained bytes are the exact
        // closure footprint (no-op unless the frame just grew).
        self.oracle.shrink_to_fit();
        self.members.shrink_to_fit();
        out
    }

    /// Absorb one churn batch and reprice.
    pub fn apply_batch(&mut self, events: &[ChurnEvent]) -> MechanismOutcome {
        self.apply_events(events);
        self.reprice()
    }

    /// Players with a live bid, ascending.
    pub fn active_players(&self) -> Vec<usize> {
        self.members.iter().map(|&p| p as usize).collect()
    }

    /// The full-length bid profile the next reprice uses — `O(n)`
    /// transient, for parity checks against the dense session.
    pub fn reported_profile(&self) -> Vec<f64> {
        let net = self.ut.network();
        (0..net.n_players())
            .map(|p| self.oracle.utility(net.station_of_player(p)))
            .collect()
    }

    /// The station-indexed utility vector a cold dense rebuild would
    /// consume — `O(n)` transient, for the byte-identity proptests.
    pub fn station_utilities(&self) -> Vec<f64> {
        let n = self.ut.network().n_stations();
        (0..n)
            .map(|x| {
                if x == self.ut.network().source() {
                    0.0
                } else {
                    self.oracle.utility(x)
                }
            })
            .collect()
    }

    /// Batches repriced so far.
    pub fn n_batches(&self) -> usize {
        self.batches
    }

    /// Events absorbed so far.
    pub fn n_events(&self) -> usize {
        self.events
    }

    /// Warm heap bytes retained between reprices.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.oracle.memory_bytes() + self.members.capacity() * size_of::<u32>()
    }

    /// Stations in the warm frame (the path closure of every station
    /// that ever had a bid) — the `|frame|` the session's memory scales
    /// with.
    pub fn frame_len(&self) -> usize {
        self.oracle.frame_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SubstrateBuilder, TreeKind};
    use crate::incremental::shapley_drop_run_from;
    use crate::network::WirelessNetwork;
    use crate::session::{ChurnProcess, McSession, ShapleySession};
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_geom::{Point, PowerModel};

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

    #[test]
    fn sparse_shapley_session_is_byte_identical_to_dense() {
        for seed in 0..10 {
            let ut = random_tree(seed, 14);
            let process = ChurnProcess::new(ut.network().n_players(), 12, 3, 20.0, seed ^ 0x5a);
            let mut dense = ShapleySession::new(&ut);
            let mut sparse = SparseShapleySession::new(&ut);
            for batch in &process.generate().batches {
                let d = dense.apply_batch(batch);
                let s = sparse.apply_batch(batch);
                assert_eq!(d.receivers, s.receivers, "seed {seed}");
                assert_eq!(d.shares, s.shares, "seed {seed}");
                assert_eq!(d.served_cost, s.served_cost, "seed {seed}");
                assert_eq!(dense.active_players(), sparse.active_players());
                assert_eq!(dense.reported_profile(), sparse.reported_profile());
            }
            // The warm footprint stays bounded by the closure, which is
            // at most the universe (and in churny traces usually less).
            assert!(sparse.memory_bytes() > 0);
        }
    }

    #[test]
    fn sparse_mc_session_is_byte_identical_to_dense() {
        for seed in 0..10 {
            let ut = random_tree(seed, 14);
            let process = ChurnProcess::new(ut.network().n_players(), 10, 4, 15.0, seed ^ 0x3c);
            let mut dense = McSession::new(&ut);
            let mut sparse = SparseMcSession::new(&ut);
            for batch in &process.generate().batches {
                let d = dense.apply_batch(batch);
                let s = sparse.apply_batch(batch);
                assert_eq!(d.receivers, s.receivers, "seed {seed}");
                assert_eq!(d.shares, s.shares, "seed {seed}");
                assert_eq!(d.served_cost, s.served_cost, "seed {seed}");
            }
        }
    }

    #[test]
    fn sparse_reprice_matches_cold_reference_on_the_member_set() {
        for seed in 0..8 {
            let ut = random_tree(seed, 12);
            let process = ChurnProcess::new(ut.network().n_players(), 10, 3, 18.0, seed ^ 0xc0);
            let mut session = SparseShapleySession::new(&ut);
            for batch in &process.generate().batches {
                session.apply_events(batch);
                let players = session.active_players();
                let bids = session.reported_profile();
                let warm = session.reprice();
                let cold = shapley_drop_run_from(&ut, &bids, &players);
                assert_eq!(warm.receivers, cold.receivers, "seed {seed}");
                assert_eq!(warm.shares, cold.shares, "seed {seed}");
                assert_eq!(warm.served_cost, cold.served_cost, "seed {seed}");
                assert_eq!(session.active_players(), warm.receivers);
            }
        }
    }

    #[test]
    fn sparse_oracle_matches_dense_oracle_state_for_state() {
        use crate::incremental::NetWorthOracle;
        for seed in 0..10 {
            let ut = random_tree(seed, 13);
            let n = ut.network().n_stations();
            let s = ut.network().source();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x0c1e);
            let mut u = vec![0.0f64; n];
            let mut sparse = SparseNetWorth::new(&ut);
            for _ in 0..30 {
                let x = loop {
                    let x = rng.gen_range(0..n);
                    if x != s {
                        break x;
                    }
                };
                let val = if rng.gen_bool(0.3) {
                    0.0
                } else {
                    rng.gen_range(0.0..8.0)
                };
                u[x] = val;
                sparse.set_utility(x, val);
                let dense = NetWorthOracle::new(&ut, &u);
                assert_eq!(sparse.net_worth(), dense.net_worth(), "seed {seed}");
                assert_eq!(sparse.efficient_set(), dense.efficient_set(), "seed {seed}");
                for y in (0..n).filter(|&y| y != s) {
                    assert_eq!(
                        sparse.net_worth_zeroing(y),
                        dense.net_worth_zeroing(y),
                        "seed {seed}, station {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_nan_bid_is_never_served_on_either_layout() {
        // Every comparison with NaN is false, so a NaN bid must be caught
        // by the drop test itself: the bidder is dropped in round 1 and
        // each layout's outcome equals the same batch without it.
        let bits = |o: &MechanismOutcome| {
            let shares: Vec<u64> = o.shares.iter().map(|x| x.to_bits()).collect();
            (o.receivers.clone(), shares, o.served_cost.to_bits())
        };
        let mut served = 0;
        for seed in 0..8 {
            let ut = random_tree(seed, 12);
            let n = ut.network().n_players();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x7a7);
            let nan_player = rng.gen_range(0..n);
            let batch: Vec<ChurnEvent> = (0..n)
                .map(|player| ChurnEvent::Join {
                    player,
                    utility: if player == nan_player {
                        f64::NAN
                    } else {
                        rng.gen_range(0.0..60.0)
                    },
                })
                .collect();
            let without: Vec<ChurnEvent> = batch
                .iter()
                .copied()
                .filter(|e| !matches!(e, ChurnEvent::Join { player, .. } if *player == nan_player))
                .collect();
            let dense = ShapleySession::new(&ut).apply_batch(&batch);
            let sparse = SparseShapleySession::new(&ut).apply_batch(&batch);
            assert!(!dense.is_receiver(nan_player), "seed {seed}");
            assert!(!sparse.is_receiver(nan_player), "seed {seed}");
            let dense_without = ShapleySession::new(&ut).apply_batch(&without);
            let sparse_without = SparseShapleySession::new(&ut).apply_batch(&without);
            assert_eq!(bits(&dense), bits(&dense_without), "seed {seed}");
            assert_eq!(bits(&sparse), bits(&sparse_without), "seed {seed}");
            served += dense.receivers.len();
        }
        assert!(served > 0, "the batches must serve someone");
    }

    #[test]
    fn sparse_memory_tracks_the_closure_not_the_universe() {
        // One small group in a larger universe: the sparse footprint
        // must be far below the dense per-session footprint.
        let ut = random_tree(2, 400);
        let mut sparse = SparseShapleySession::new(&ut);
        let mut dense = ShapleySession::new(&ut);
        let batch: Vec<ChurnEvent> = (1..5)
            .map(|p| ChurnEvent::Join {
                player: p,
                utility: 1e6,
            })
            .collect();
        let d = dense.apply_batch(&batch);
        let s = sparse.apply_batch(&batch);
        assert_eq!(d.shares, s.shares);
        assert!(
            sparse.memory_bytes() * 4 < dense.memory_bytes(),
            "sparse {} vs dense {}",
            sparse.memory_bytes(),
            dense.memory_bytes()
        );
        assert!(sparse.engine.frame_len() < 50);
    }
}
