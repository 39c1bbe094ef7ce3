//! The multi-group service layer: thousands of concurrent multicast
//! groups priced over **one** shared substrate, sharded across a worker
//! pool.
//!
//! The paper prices one group over one universal tree; the production
//! regime this workspace grows toward serves many groups over one
//! station universe concurrently (the multi-connection setting of Lun et
//! al. and the many-group capacity regime of Liu & Andrews — see
//! PAPERS.md). A [`MulticastService`] holds:
//!
//! * one `O(1)`-clone [`UniversalTree`] handle — the immutable
//!   [`crate::substrate::TreeSubstrate`] every group shares;
//! * per group, a warm session ([`ShapleySession`] or [`McSession`])
//!   whose frame-local engine state — `O(|frame|)`, the path closure of
//!   the group's members — is the only per-group allocation.
//!
//! # Batch ingestion and sharding
//!
//! A service **step** takes one churn batch per (addressed) group and
//! reprices exactly those groups. Groups are independent — no event ever
//! crosses groups — so the step shards them over a crossbeam worker pool:
//! a shared atomic cursor hands out group indices (work stealing, same
//! discipline as the sweep engine in `wmcs-bench`), each worker absorbs
//! and reprices its group, and outcomes land in per-group slots.
//!
//! # Determinism contract
//!
//! The outcome of a step is **byte-identical** regardless of thread
//! count: each group's events are applied in batch order by exactly one
//! worker, results are placed by group index, and the substrate is never
//! written after construction. [`MulticastService::with_threads`] with 1
//! is therefore the reference the sharded run is pinned against
//! (experiment T12 and `tests/service_props.rs` additionally pin every
//! group to an *independent single-group session over its own freshly
//! built substrate* — cross-group isolation down to the last float).

use crate::session::{McSession, ShapleySession};
use crate::universal::UniversalTree;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use wmcs_game::MechanismOutcome;
use wmcs_geom::churn::ChurnEvent;

/// Which §2.1 mechanism a group is priced with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupMechanism {
    /// Moulin–Shenker over Shapley shares (BB, group-strategyproof).
    Shapley,
    /// Marginal cost / VCG (efficient, strategyproof).
    MarginalCost,
}

impl GroupMechanism {
    /// The canonical alternating assignment (`Shapley` on even ids, `MC`
    /// on odd) used whenever a workload wants both mechanisms to face
    /// every shape — T12, T14, the isolation proptests and
    /// `examples/multi_group.rs` all share this one rule, so their
    /// byte-identity references cannot drift out of lockstep.
    pub fn alternating(group: usize) -> Self {
        if group.is_multiple_of(2) {
            GroupMechanism::Shapley
        } else {
            GroupMechanism::MarginalCost
        }
    }
}

/// One group's warm live session, dispatching to either §2.1 mechanism.
///
/// This is both the service's internal per-group state and the public
/// building block for *independent* reference sessions (the isolation
/// gates compare a service group against a `GroupSession` built on its
/// own substrate).
#[derive(Debug, Clone)]
pub enum GroupSession {
    /// A Moulin–Shenker Shapley session.
    Shapley(ShapleySession),
    /// A marginal-cost (VCG) session.
    Mc(McSession),
}

impl GroupSession {
    /// An empty session priced with `mechanism` over `ut`.
    pub fn new(mechanism: GroupMechanism, ut: &UniversalTree) -> Self {
        match mechanism {
            GroupMechanism::Shapley => GroupSession::Shapley(ShapleySession::new(ut)),
            GroupMechanism::MarginalCost => GroupSession::Mc(McSession::new(ut)),
        }
    }

    /// The mechanism this session prices with.
    pub fn mechanism(&self) -> GroupMechanism {
        match self {
            GroupSession::Shapley(_) => GroupMechanism::Shapley,
            GroupSession::Mc(_) => GroupMechanism::MarginalCost,
        }
    }

    /// Absorb one churn batch and reprice (dispatches to the session's
    /// `apply_batch`).
    pub fn apply_batch(&mut self, events: &[ChurnEvent]) -> MechanismOutcome {
        match self {
            GroupSession::Shapley(s) => s.apply_batch(events),
            GroupSession::Mc(s) => s.apply_batch(events),
        }
    }

    /// The full-length bid profile the next reprice would use (zero
    /// outside the session).
    pub fn reported_profile(&self) -> Vec<f64> {
        match self {
            GroupSession::Shapley(s) => s.reported_profile(),
            GroupSession::Mc(s) => s.reported_profile(),
        }
    }

    /// Warm heap bytes this session retains between reprices (the shared
    /// substrate is excluded).
    pub fn memory_bytes(&self) -> usize {
        match self {
            GroupSession::Shapley(s) => s.memory_bytes(),
            GroupSession::Mc(s) => s.memory_bytes(),
        }
    }
}

/// One group's repriced allocation after a service step.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupOutcome {
    /// The group the outcome belongs to.
    pub group: usize,
    /// The mechanism outcome on the group's current receiver set.
    pub outcome: MechanismOutcome,
}

/// A sharded multi-group serving engine over one shared substrate.
///
/// Cloning copies every group's warm per-group state (`O(G·|frame|)`)
/// but shares the substrate, so a warmed service can be replayed from
/// the same steady state more than once.
#[derive(Debug)]
pub struct MulticastService {
    ut: UniversalTree,
    /// Per-group warm sessions; each knows its own mechanism. The mutex
    /// is an ownership device, never contended: a step's work-stealing
    /// shard hands each index to exactly one worker, and a stream drive
    /// keeps at most one epoch per group in flight (`crate::stream`).
    groups: Vec<Mutex<GroupSession>>,
    /// Worker threads per step; 0 = available parallelism.
    threads: usize,
    steps: usize,
    events: usize,
}

impl Clone for MulticastService {
    fn clone(&self) -> Self {
        Self {
            ut: self.ut.clone(),
            groups: self
                .groups
                .iter()
                .map(|group| {
                    // A panicked worker poisons its group's mutex; the
                    // state itself is a plain session snapshot, so recover
                    // it rather than fabricating a second panic site.
                    Mutex::new(group.lock().unwrap_or_else(PoisonError::into_inner).clone())
                })
                .collect(),
            threads: self.threads,
            steps: self.steps,
            events: self.events,
        }
    }
}

impl MulticastService {
    /// An empty service over the shared substrate of `ut` (no groups
    /// yet). The handle is cloned (`O(1)`), never the substrate.
    pub fn new(ut: &UniversalTree) -> Self {
        Self {
            ut: ut.clone(),
            groups: Vec::new(),
            threads: 0,
            steps: 0,
            events: 0,
        }
    }

    /// Pin the worker count (1 = the single-thread reference; 0 =
    /// available parallelism, the default).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Register a new group priced with `mechanism`; returns its group
    /// id (dense, starting at 0). `O(1)`: the session's frame grows with
    /// its members, and the substrate is shared, not copied.
    pub fn add_group(&mut self, mechanism: GroupMechanism) -> usize {
        let state = GroupSession::new(mechanism, &self.ut);
        self.groups.push(Mutex::new(state));
        self.groups.len() - 1
    }

    /// Number of registered groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// The mechanism group `g` is priced with.
    pub fn mechanism(&self, g: usize) -> GroupMechanism {
        self.groups[g]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .mechanism()
    }

    /// The shared universal tree every group prices over.
    pub fn universal_tree(&self) -> &UniversalTree {
        &self.ut
    }

    /// Total warm session state across every group, in bytes (the shared
    /// substrate is excluded — it is one `Arc` for the whole service).
    /// Divide by [`Self::n_groups`] for the per-group figure.
    pub fn memory_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|group| {
                group
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .memory_bytes()
            })
            .sum()
    }

    /// The full-length bid profile group `g` would reprice with next
    /// (zero outside the group's session) — the VP gates read charges
    /// against exactly this profile.
    pub fn reported_profile(&self, g: usize) -> Vec<f64> {
        self.groups[g]
            .lock()
            .expect("a group mutex is never poisoned")
            .reported_profile()
    }

    /// Steps executed so far.
    pub fn n_steps(&self) -> usize {
        self.steps
    }

    /// Events ingested so far, across all groups.
    pub fn n_events(&self) -> usize {
        self.events
    }

    /// Panics unless every event names a player of the universe (the
    /// message names the id and the player count) and every `Join` or
    /// `Rebid` carries a finite bid that is not negative (the message
    /// names the player and the bid; `−0.0` passes). Both front doors
    /// check at entry, so [`Self::reprice`] never sees a bad id, a
    /// non-finite bid or a negative one. One `+∞` bid would otherwise
    /// make a marginal-cost group free: every externality becomes
    /// `∞ − ∞ = NaN`, which the VCG clamp turns into a share of 0.
    pub(crate) fn check_players(&self, events: &[ChurnEvent]) {
        let n_players = self.ut.network().n_players();
        for event in events {
            let player = event.player();
            assert!(
                player < n_players,
                "unknown player id {player}: the universe has {n_players} players"
            );
            if let ChurnEvent::Join { utility, .. } | ChurnEvent::Rebid { utility, .. } = *event {
                assert!(
                    utility.is_finite(),
                    "player {player} bid {utility}: a bid must be finite"
                );
                assert!(
                    utility >= 0.0,
                    "player {player} bid {utility}: a bid must not be negative"
                );
            }
        }
    }

    /// Absorb `events` into group `g`'s warm session and reprice it: the
    /// one path by which both a step's workers and a stream drive's
    /// epoch workers reach a session. The caller has checked `g` and the
    /// player ids.
    pub(crate) fn reprice(&self, g: usize, events: &[ChurnEvent]) -> MechanismOutcome {
        self.groups[g]
            .lock()
            .expect("a group mutex is never poisoned")
            .apply_batch(events)
    }

    /// One service step: absorb `batch[i] = (group, events)` and reprice
    /// exactly the addressed groups, sharded across the worker pool.
    ///
    /// Group ids must be strictly ascending (one batch per group per
    /// step — the deterministic ingestion contract). Returns one
    /// [`GroupOutcome`] per entry, in the same order, byte-identical for
    /// every thread count.
    ///
    /// # Panics
    /// On unsorted or unknown group ids, when an event's player id is not
    /// below the universe's player count, or when a `Join` or `Rebid`
    /// bid is NaN, infinite or negative. Every event is checked before
    /// any group absorbs anything, so a refused step changes no state.
    pub fn step(&mut self, batch: &[(usize, &[ChurnEvent])]) -> Vec<GroupOutcome> {
        assert!(
            batch.windows(2).all(|w| w[0].0 < w[1].0),
            "group ids must be strictly ascending (one batch per group per step)"
        );
        if let Some(&(last, _)) = batch.last() {
            assert!(last < self.groups.len(), "unknown group id {last}");
        }
        for &(_, events) in batch {
            self.check_players(events);
        }
        self.steps += 1;
        self.events += batch.iter().map(|(_, ev)| ev.len()).sum::<usize>();

        let slots: Vec<OnceLock<MechanismOutcome>> =
            (0..batch.len()).map(|_| OnceLock::new()).collect();
        let run_one = |i: usize| {
            let (g, events) = batch[i];
            slots[i]
                .set(self.reprice(g, events))
                .expect("each addressed group repriced exactly once");
        };

        let threads = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            self.threads
        }
        .clamp(1, batch.len().max(1));

        if threads <= 1 {
            for i in 0..batch.len() {
                run_one(i);
            }
        } else {
            let cursor = AtomicUsize::new(0);
            crossbeam::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|_| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= batch.len() {
                            break;
                        }
                        run_one(i);
                    });
                }
            })
            .expect("service worker panicked");
        }

        batch
            .iter()
            .zip(slots)
            .map(|(&(group, _), slot)| GroupOutcome {
                group,
                outcome: slot.into_inner().expect("all addressed groups repriced"),
            })
            .collect()
    }

    /// Convenience step addressing **every** group: `batches[g]` is group
    /// `g`'s event batch (must cover all groups).
    pub fn step_all(&mut self, batches: &[Vec<ChurnEvent>]) -> Vec<GroupOutcome> {
        assert_eq!(batches.len(), self.groups.len(), "one batch per group");
        let batch: Vec<(usize, &[ChurnEvent])> = batches
            .iter()
            .enumerate()
            .map(|(g, ev)| (g, ev.as_slice()))
            .collect();
        self.step(&batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::random_spt;
    use wmcs_geom::MultiGroupProcess;

    fn service_with_groups(ut: &UniversalTree, g: usize, threads: usize) -> MulticastService {
        let mut svc = MulticastService::new(ut).with_threads(threads);
        for i in 0..g {
            svc.add_group(GroupMechanism::alternating(i));
        }
        svc
    }

    #[test]
    fn sharded_steps_are_byte_identical_to_single_thread() {
        let ut = random_spt(11, 24);
        let trace = MultiGroupProcess::new(ut.network().n_players(), 8, 5, 12.0, 3).generate();
        let mut sharded = service_with_groups(&ut, 8, 4);
        let mut serial = service_with_groups(&ut, 8, 1);
        for b in 0..trace.n_batches() {
            let batches: Vec<Vec<_>> = trace
                .groups
                .iter()
                .map(|g| g.trace.batches[b].clone())
                .collect();
            let a = sharded.step_all(&batches);
            let s = serial.step_all(&batches);
            assert_eq!(a, s, "batch {b}: sharded and serial outcomes differ");
        }
        assert_eq!(sharded.n_steps(), trace.n_batches());
        assert_eq!(sharded.n_events(), trace.n_events());
    }

    #[test]
    fn partial_steps_touch_only_the_addressed_groups() {
        let ut = random_spt(5, 12);
        let mut svc = service_with_groups(&ut, 3, 2);
        let join = |player, utility| ChurnEvent::Join { player, utility };
        // Step only group 1.
        let events = [join(2, 50.0), join(4, 50.0)];
        let out = svc.step(&[(1, &events)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].group, 1);
        assert!(!out[0].outcome.receivers.is_empty());
        // Group 0 and 2 are untouched: an empty batch reprices an empty
        // session.
        let empty: [ChurnEvent; 0] = [];
        let out0 = svc.step(&[(0, &empty)]);
        assert!(out0[0].outcome.receivers.is_empty());
    }

    #[test]
    fn per_group_outcomes_match_independent_sessions_on_their_own_substrate() {
        // The cross-group isolation contract, unit-sized (the proptest in
        // tests/service_props.rs scales it): each group's outcome stream
        // equals an independent single-group session over its own
        // freshly-built substrate, byte for byte.
        for seed in 0..4 {
            let ut = random_spt(seed, 16);
            let g = 5;
            let trace =
                MultiGroupProcess::new(ut.network().n_players(), g, 4, 10.0, seed).generate();
            let mut svc = service_with_groups(&ut, g, 0);
            // Independent references, each over its own substrate.
            let mut refs: Vec<GroupSession> = (0..g)
                .map(|i| GroupSession::new(GroupMechanism::alternating(i), &random_spt(seed, 16)))
                .collect();
            for b in 0..trace.n_batches() {
                let batches: Vec<Vec<_>> = trace
                    .groups
                    .iter()
                    .map(|gr| gr.trace.batches[b].clone())
                    .collect();
                let outs = svc.step_all(&batches);
                for (i, out) in outs.iter().enumerate() {
                    let expect = refs[i].apply_batch(&batches[i]);
                    assert_eq!(out.outcome, expect, "seed {seed}, group {i}, batch {b}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn duplicate_group_ids_are_rejected() {
        let ut = random_spt(1, 8);
        let mut svc = service_with_groups(&ut, 2, 1);
        let empty: [ChurnEvent; 0] = [];
        let _ = svc.step(&[(0, &empty), (0, &empty)]);
    }

    #[test]
    #[should_panic(expected = "unknown group id")]
    fn out_of_range_group_ids_are_rejected() {
        let ut = random_spt(1, 8);
        let mut svc = service_with_groups(&ut, 2, 1);
        let empty: [ChurnEvent; 0] = [];
        let _ = svc.step(&[(7, &empty)]);
    }
}
