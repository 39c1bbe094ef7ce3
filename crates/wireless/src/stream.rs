//! Epoch-pipelined streaming ingestion: interleaved `(group, event)`
//! streams served over the shared substrate, byte-identical to batch
//! replay.
//!
//! [`crate::service::MulticastService`] ingests pre-materialized batches
//! with strictly ascending group ids; production multicast traffic
//! arrives as an *interleaved* event stream with bursty per-group
//! membership dynamics (the regime of the outage/capacity line of work —
//! see PAPERS.md). A [`StreamService`] closes the gap without giving up
//! the byte-identity discipline. It is a [`MulticastService`] (the
//! groups and their warm sessions) plus a [`StreamConfig`]; queues,
//! accounting and the virtual clock belong to one
//! [`StreamService::drive`] and go with it:
//!
//! * producers push `(group, ChurnEvent)` through a [`StreamHandle`]
//!   into the drive's **bounded** per-group queues (capacity
//!   [`StreamConfig::capacity`], never more);
//! * an **epoch sealer** deterministically cuts each group's stream into
//!   epochs by an event-count watermark ([`StreamConfig::watermark`]) —
//!   never by wall clock — and sends sealed epochs to a crossbeam worker
//!   pool over one bounded `sync_channel` of G slots. A group has at most
//!   one epoch queued or running, so a send never blocks; and the
//!   producer side owns the only sender, so when the producer returns or
//!   unwinds, the workers drain the channel and their `recv` ends;
//! * each epoch is absorbed by the group's warm
//!   [`GroupSession`](crate::service::GroupSession) through the same
//!   crate-private reprice path a [`MulticastService::step`] worker
//!   takes, so it prices exactly as a step of the same events as one
//!   batch; the outcome is placed in a per-epoch `OnceLock` slot (the
//!   sanctioned slot pattern — scheduling order can never reach a float).
//!   A session's retained state is frame-local — `O(|frame|)`, the path
//!   closure of the group's members — so G groups over a large universe
//!   hold G closures, not G copies of the universe.
//!
//! # Determinism contract
//!
//! A group's epoch boundaries depend only on the *per-group submission
//! order* and the config — counts, not clocks — so the epoch sequence of
//! every group equals [`epoch_plan`] applied to that group's event
//! subsequence. Each group's epochs execute in order (pipeline depth 1
//! per group, enforced by the sealer), on exactly one worker at a time,
//! over warm state only that group owns. The stream outcome is therefore
//! **byte-identical** to replaying the plan's chunks through a
//! single-threaded `MulticastService::step` (`with_threads(1)` stays the
//! pinned reference), for every worker count and queue capacity —
//! experiment T14 and `tests/stream_props.rs` gate exactly this.
//!
//! # Admission control and backpressure
//!
//! A submission that finds its group's queue at capacity is **rejected**
//! with a deterministic [`Admission::Busy`] carrying the observed depth —
//! and the rejection *saturation-seals* the backlog as a partial epoch,
//! so the immediate retry is guaranteed to be admitted (progress under
//! backpressure, no unbounded buffering anywhere: pending events are
//! bounded by `capacity` per group and at most one epoch per group is
//! ever queued or running). Rejections and retries are counted per group
//! in the [`StreamReport`]. When `capacity < watermark` every seal is a
//! saturation seal; the effective epoch size is always
//! [`StreamConfig::epoch_size`].
//!
//! # Latency
//!
//! Time is a **virtual clock**: one tick per submission attempt, no
//! `Instant`/`SystemTime` anywhere near an outcome. Each accepted event
//! records `seal_tick − submit_tick` under its event class, and each
//! epoch records a `reprice` sample (seal tick minus the epoch's first
//! submission tick) — the exact-percentile harness in
//! `wmcs-bench::latency` consumes these via [`StreamLatencies`].

use crate::service::{GroupMechanism, MulticastService};
use crate::universal::UniversalTree;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use wmcs_game::MechanismOutcome;
use wmcs_geom::churn::ChurnEvent;

/// Shape of a streaming run: seal watermark, queue bound, worker count.
///
/// The fields are private, so [`StreamConfig::new`] is the only
/// constructor and its checks always run. A literal would skip them:
/// with no worker a group's second seal waits forever, and with
/// capacity 0 [`StreamHandle::submit_blocking`] never returns. So it
/// does not compile:
///
/// ```compile_fail,E0451
/// use wmcs_wireless::StreamConfig;
///
/// let config = StreamConfig { watermark: 2, capacity: 8, threads: 0 };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    watermark: usize,
    capacity: usize,
    threads: usize,
}

impl StreamConfig {
    /// A config with the given watermark, capacity and worker count.
    ///
    /// # Panics
    /// If any of the three is zero.
    pub fn new(watermark: usize, capacity: usize, threads: usize) -> Self {
        assert!(
            watermark >= 1,
            "the seal watermark must be at least one event"
        );
        assert!(
            capacity >= 1,
            "a bounded queue needs room for at least one event"
        );
        assert!(threads >= 1, "the epoch pool needs at least one worker");
        Self {
            watermark,
            capacity,
            threads,
        }
    }

    /// Seal a group's pending events as an epoch once this many are
    /// queued (count-based — never wall clock).
    pub fn watermark(&self) -> usize {
        self.watermark
    }

    /// Bounded per-group queue capacity; a submission beyond it is
    /// rejected with [`Admission::Busy`] (and saturation-seals the
    /// backlog).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Worker threads servicing sealed epochs (≥ 1). Outcomes are
    /// byte-identical for every value — see the module docs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The effective epoch size: `min(watermark, capacity)`. With
    /// `capacity ≥ watermark` every full epoch is a watermark seal; with
    /// `capacity < watermark` every full epoch is a saturation seal of
    /// exactly `capacity` events.
    pub fn epoch_size(&self) -> usize {
        self.watermark.min(self.capacity)
    }
}

/// The deterministic admission verdict of one submission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The event was queued.
    Accepted {
        /// The addressed group.
        group: usize,
        /// Queue depth after the submission (before any seal it
        /// triggered).
        depth: usize,
        /// `Some(epoch)` when this submission reached the watermark and
        /// sealed epoch number `epoch`.
        sealed: Option<u64>,
    },
    /// The group's queue was at capacity; the event was **not** queued.
    /// The rejection saturation-seals the backlog, so an immediate retry
    /// is admitted.
    Busy {
        /// The addressed group.
        group: usize,
        /// The queue depth observed (always the configured capacity).
        depth: usize,
    },
}

/// One completed epoch: the group's mechanism outcome after absorbing
/// the epoch's events, exactly as a batch `step` would produce it.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOutcome {
    /// The group the epoch belongs to.
    pub group: usize,
    /// Epoch number within the group (dense from 0, seal order).
    pub epoch: u64,
    /// Events absorbed by this epoch.
    pub n_events: usize,
    /// The mechanism outcome on the group's receiver set after the
    /// epoch.
    pub outcome: MechanismOutcome,
}

/// Virtual-clock latency samples, one vector per event class.
///
/// Join/leave/rebid samples are `seal_tick − submit_tick` of each
/// accepted event; `reprice` samples are per-epoch residence times
/// (seal tick minus the epoch's first submission tick). Ticks count
/// submission attempts — wall clock never appears.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamLatencies {
    /// Queueing delays of accepted `Join` events.
    pub join: Vec<u64>,
    /// Queueing delays of accepted `Leave` events.
    pub leave: Vec<u64>,
    /// Queueing delays of accepted `Rebid` events.
    pub rebid: Vec<u64>,
    /// Per-epoch residence times (one sample per sealed epoch).
    pub reprice: Vec<u64>,
}

impl StreamLatencies {
    /// File `delay` under `event`'s class.
    pub fn record(&mut self, event: &ChurnEvent, delay: u64) {
        match event {
            ChurnEvent::Join { .. } => self.join.push(delay),
            ChurnEvent::Leave { .. } => self.leave.push(delay),
            ChurnEvent::Rebid { .. } => self.rebid.push(delay),
        }
    }

    /// Append all of `other`'s samples (class by class, in order).
    pub fn extend(&mut self, other: &StreamLatencies) {
        self.join.extend_from_slice(&other.join);
        self.leave.extend_from_slice(&other.leave);
        self.rebid.extend_from_slice(&other.rebid);
        self.reprice.extend_from_slice(&other.reprice);
    }

    /// Total samples across all four classes.
    pub fn n_samples(&self) -> usize {
        self.join.len() + self.leave.len() + self.rebid.len() + self.reprice.len()
    }
}

/// One group's slice of a [`StreamReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupStreamReport {
    /// The group id.
    pub group: usize,
    /// The mechanism the group is priced with.
    pub mechanism: GroupMechanism,
    /// Events admitted into the group's queue.
    pub accepted: u64,
    /// Submissions rejected with [`Admission::Busy`].
    pub rejected: u64,
    /// Successful re-submissions after a `Busy` (as counted by
    /// [`StreamHandle::submit_blocking`]).
    pub retries: u64,
    /// Virtual-clock latency samples for this group.
    pub latencies: StreamLatencies,
    /// Completed epochs, in seal order (dense epoch numbers from 0).
    pub epochs: Vec<EpochOutcome>,
}

/// The outcome of one [`StreamService::drive`]: per-group epochs,
/// admission accounting and latency samples.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Per-group reports, in group-id order.
    pub groups: Vec<GroupStreamReport>,
}

impl StreamReport {
    /// Events admitted across all groups.
    pub fn n_accepted(&self) -> u64 {
        self.groups.iter().map(|g| g.accepted).sum()
    }

    /// Submissions rejected across all groups.
    pub fn n_rejected(&self) -> u64 {
        self.groups.iter().map(|g| g.rejected).sum()
    }

    /// Successful post-`Busy` re-submissions across all groups.
    pub fn n_retries(&self) -> u64 {
        self.groups.iter().map(|g| g.retries).sum()
    }

    /// Completed epochs across all groups.
    pub fn n_epochs(&self) -> usize {
        self.groups.iter().map(|g| g.epochs.len()).sum()
    }

    /// All latency samples merged in group-id order (class by class) —
    /// the input shape of the `wmcs-bench::latency` percentile harness.
    pub fn latencies(&self) -> StreamLatencies {
        let mut merged = StreamLatencies::default();
        for g in &self.groups {
            merged.extend(&g.latencies);
        }
        merged
    }
}

/// The pure reference plan: how a group's event subsequence is cut into
/// epochs. Chunks of [`StreamConfig::epoch_size`] plus a trailing
/// partial — the streaming layer's epoch sequence equals this plan for
/// every worker count (the byte-identity gate replays these chunks
/// through a single-threaded [`MulticastService::step`]).
pub fn epoch_plan(events: &[ChurnEvent], config: &StreamConfig) -> Vec<Vec<ChurnEvent>> {
    events
        .chunks(config.epoch_size())
        .map(<[ChurnEvent]>::to_vec)
        .collect()
}

/// One group's pending queue and stream accounting within a drive
/// (behind the lane's mutex; mutated only by the producer side and the
/// in-flight flag handshake).
#[derive(Debug, Default)]
struct GroupQueue {
    /// Admitted events waiting to be sealed, with their submission
    /// ticks. Never longer than the configured capacity.
    pending: Vec<(ChurnEvent, u64)>,
    /// Epochs sealed so far (the next epoch number).
    epochs_sealed: u64,
    /// Whether a sealed epoch of this group is queued or running —
    /// pipeline depth 1 per group, the in-order execution guarantee.
    in_flight: bool,
    /// Events admitted.
    accepted: u64,
    /// Submissions rejected with `Busy`.
    rejected: u64,
    /// Successful post-`Busy` re-submissions.
    retries: u64,
    /// Per-epoch outcome slots, in seal order (the slot pattern: workers
    /// place, the post-join report folds).
    slots: Vec<Arc<OnceLock<EpochOutcome>>>,
    /// Latency samples, recorded at seal time by the producer side.
    lat: StreamLatencies,
}

/// One group's queue within a drive, with the condvar its sealer waits
/// on until the group's in-flight epoch completes (pipeline depth 1).
#[derive(Debug, Default)]
struct Lane {
    queue: Mutex<GroupQueue>,
    idle: Condvar,
}

/// A sealed epoch sent to the worker pool.
#[derive(Debug)]
struct Epoch {
    group: usize,
    epoch: u64,
    events: Vec<ChurnEvent>,
    slot: Arc<OnceLock<EpochOutcome>>,
}

/// Epoch-pipelined streaming ingestion over one shared substrate — see
/// the module docs for the determinism and backpressure contracts.
///
/// The service is a [`MulticastService`] (the groups and their warm
/// sessions) plus its [`StreamConfig`]. Queues, accounting and the
/// virtual clock belong to one [`StreamService::drive`] and go with it,
/// so cloning copies the warm sessions (`O(G·|frame|)`) and shares the
/// substrate: a warmed service can be replayed from the same steady
/// state more than once.
#[derive(Debug, Clone)]
pub struct StreamService {
    svc: MulticastService,
    config: StreamConfig,
}

impl StreamService {
    /// An empty streaming service over the shared substrate of `ut` (no
    /// groups yet). The handle is cloned (`O(1)`), never the substrate.
    pub fn new(ut: &UniversalTree, config: StreamConfig) -> Self {
        Self {
            svc: MulticastService::new(ut),
            config,
        }
    }

    /// Register a new group priced with `mechanism`; returns its group
    /// id (dense, starting at 0).
    pub fn add_group(&mut self, mechanism: GroupMechanism) -> usize {
        self.svc.add_group(mechanism)
    }

    /// Number of registered groups.
    pub fn n_groups(&self) -> usize {
        self.svc.n_groups()
    }

    /// The mechanism group `g` is priced with.
    pub fn mechanism(&self, g: usize) -> GroupMechanism {
        self.svc.mechanism(g)
    }

    /// The shared universal tree every group prices over.
    pub fn universal_tree(&self) -> &UniversalTree {
        self.svc.universal_tree()
    }

    /// The streaming configuration.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// Total warm session state across every group, in bytes (see
    /// [`MulticastService::memory_bytes`]). Divide by [`Self::n_groups`]
    /// for the per-group figure the memory SLO tracks.
    pub fn memory_bytes(&self) -> usize {
        self.svc.memory_bytes()
    }

    /// Run one streaming session: spawn the worker pool, hand the
    /// producer a [`StreamHandle`], flush the residual partial epochs
    /// when it returns, join the pool and report.
    ///
    /// Sessions stay **warm** across drives (group state carries over,
    /// mirroring a `MulticastService` stepped across multiple traces).
    /// Everything else is the drive's own: epoch numbers and the virtual
    /// clock restart, and a producer that panics takes its queues and
    /// accounting with it. Its sealed epochs stay absorbed; its pending
    /// events are dropped. `&mut self` keeps two drives from interleaving
    /// one group's epochs.
    pub fn drive<R: Send>(
        &mut self,
        producer: impl FnOnce(&StreamHandle<'_>) -> R + Send,
    ) -> (R, StreamReport) {
        let state = Drive {
            svc: &self.svc,
            config: self.config,
            lanes: (0..self.svc.n_groups()).map(|_| Lane::default()).collect(),
            clock: AtomicU64::new(0),
        };
        let drive = &state;
        // Pipeline depth 1 keeps at most one epoch per group queued or
        // running, so a channel of G slots never blocks a send.
        let (sender, receiver) = sync_channel::<Epoch>(drive.lanes.len());
        let receiver = &Mutex::new(receiver);
        let result = crossbeam::thread::scope(|scope| {
            for _ in 0..drive.config.threads() {
                scope.spawn(move |_| loop {
                    // Bound before it is matched: a `while let` scrutinee
                    // would hold the receiver lock across the epoch and
                    // serialise the workers.
                    let next = receiver
                        .lock()
                        .expect("the epoch receiver mutex is never poisoned")
                        .recv();
                    // `recv` fails once the sender is gone and every
                    // queued epoch has been taken.
                    let Ok(task) = next else { break };
                    let outcome = drive.svc.reprice(task.group, &task.events);
                    // The slot pattern: the epoch's outcome goes into its
                    // per-epoch OnceLock; the single-threaded report after
                    // the pool joins folds the slots in seal order.
                    let placed: &OnceLock<EpochOutcome> = &task.slot;
                    placed
                        .set(EpochOutcome {
                            group: task.group,
                            epoch: task.epoch,
                            n_events: task.events.len(),
                            outcome,
                        })
                        .expect("each sealed epoch is executed exactly once");
                    let lane = &drive.lanes[task.group];
                    lane.queue
                        .lock()
                        .expect("a group queue mutex is never poisoned")
                        .in_flight = false;
                    lane.idle.notify_all();
                });
            }
            // Moves the only sender into this closure: returning or
            // unwinding drops it, which releases the workers.
            let sender = sender;
            let handle = StreamHandle {
                drive,
                epochs: &sender,
            };
            let out = producer(&handle);
            for g in 0..drive.lanes.len() {
                handle.flush(g);
            }
            out
        })
        // Re-raise the original payload (a producer assertion, say)
        // instead of wrapping it.
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        (result, state.into_report())
    }
}

/// The state of one [`StreamService::drive`]: the service's groups, and
/// per group a lane of queue and accounting, plus the virtual clock.
#[derive(Debug)]
struct Drive<'a> {
    svc: &'a MulticastService,
    config: StreamConfig,
    lanes: Vec<Lane>,
    /// The virtual clock: one tick per submission attempt.
    clock: AtomicU64,
}

impl Drive<'_> {
    /// One submission attempt (see [`StreamHandle::submit`]).
    fn submit(&self, epochs: &SyncSender<Epoch>, group: usize, event: ChurnEvent) -> Admission {
        assert!(group < self.lanes.len(), "unknown group id {group}");
        self.svc.check_players(std::slice::from_ref(&event));
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let lane = &self.lanes[group];
        let mut queue = lane
            .queue
            .lock()
            .expect("a group queue mutex is never poisoned");
        if queue.pending.len() >= self.config.capacity() {
            let depth = queue.pending.len();
            queue.rejected += 1;
            // Saturation seal: the overflowing submission is rejected,
            // but it forces the backlog out as a partial epoch — the
            // immediate retry is guaranteed to be admitted.
            seal(epochs, group, lane, queue, tick);
            return Admission::Busy { group, depth };
        }
        queue.pending.push((event, tick));
        queue.accepted += 1;
        let depth = queue.pending.len();
        let sealed =
            (depth >= self.config.watermark()).then(|| seal(epochs, group, lane, queue, tick));
        Admission::Accepted {
            group,
            depth,
            sealed,
        }
    }

    /// Every group's stream accounting after the pool has joined: no
    /// worker holds a slot any more, so each one unwraps.
    fn into_report(self) -> StreamReport {
        let groups = self
            .lanes
            .into_iter()
            .enumerate()
            .map(|(g, lane)| {
                let queue = lane
                    .queue
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner);
                debug_assert!(!queue.in_flight, "an epoch is still in flight after join");
                let epochs: Vec<EpochOutcome> = queue
                    .slots
                    .into_iter()
                    .map(|slot| {
                        Arc::try_unwrap(slot)
                            .expect("no worker holds an epoch slot after the pool joins")
                            .into_inner()
                            .expect("every sealed epoch completed")
                    })
                    .collect();
                GroupStreamReport {
                    group: g,
                    mechanism: self.svc.mechanism(g),
                    accepted: queue.accepted,
                    rejected: queue.rejected,
                    retries: queue.retries,
                    latencies: queue.lat,
                    epochs,
                }
            })
            .collect();
        StreamReport { groups }
    }
}

/// Seal `lane`'s pending events as the group's next epoch: wait for the
/// previous epoch to complete (pipeline depth 1), record latency samples,
/// send the epoch to the pool. Called with the group queue locked;
/// returns the sealed epoch number.
fn seal(
    epochs: &SyncSender<Epoch>,
    group: usize,
    lane: &Lane,
    mut queue: MutexGuard<'_, GroupQueue>,
    seal_tick: u64,
) -> u64 {
    while queue.in_flight {
        queue = lane
            .idle
            .wait(queue)
            .expect("a group queue mutex is never poisoned");
    }
    debug_assert!(!queue.pending.is_empty(), "sealing an empty epoch");
    let epoch = queue.epochs_sealed;
    queue.epochs_sealed += 1;
    let pending = std::mem::take(&mut queue.pending);
    let first_tick = pending.first().map_or(seal_tick, |&(_, t)| t);
    let mut events = Vec::with_capacity(pending.len());
    for (ev, tick) in pending {
        queue.lat.record(&ev, seal_tick.saturating_sub(tick));
        events.push(ev);
    }
    queue.lat.reprice.push(seal_tick.saturating_sub(first_tick));
    let out_slot = Arc::new(OnceLock::new());
    queue.slots.push(Arc::clone(&out_slot));
    queue.in_flight = true;
    epochs
        .send(Epoch {
            group,
            epoch,
            events,
            slot: out_slot,
        })
        .expect("the epoch receiver outlives every seal");
    epoch
}

/// The producer-side handle [`StreamService::drive`] passes to its
/// producer closure. `submit` takes `&self`: multiple producer threads
/// may share one handle. Outcome byte-identity is per-group submission
/// order; with a single producer the virtual-clock latency samples are
/// deterministic too.
#[derive(Debug, Clone, Copy)]
pub struct StreamHandle<'a> {
    drive: &'a Drive<'a>,
    /// The sending end of the drive's epoch channel.
    epochs: &'a SyncSender<Epoch>,
}

impl StreamHandle<'_> {
    /// One submission attempt: admit `event` into `group`'s bounded
    /// queue, or reject it with a deterministic [`Admission::Busy`]
    /// (which saturation-seals the backlog — an immediate retry is
    /// admitted).
    ///
    /// # Panics
    /// On an unknown group id, when `event`'s player id is not below the
    /// universe's player count, or when its bid is NaN or infinite. A
    /// refused event is not queued.
    pub fn submit(&self, group: usize, event: ChurnEvent) -> Admission {
        self.drive.submit(self.epochs, group, event)
    }

    /// Submit with retry-on-busy until admitted; returns the number of
    /// `Busy` rejections absorbed (each also counted in the group's
    /// [`GroupStreamReport::retries`] accounting).
    pub fn submit_blocking(&self, group: usize, event: ChurnEvent) -> u64 {
        let mut busy = 0u64;
        loop {
            match self.submit(group, event) {
                Admission::Accepted { .. } => {
                    if busy > 0 {
                        let mut queue = self.drive.lanes[group]
                            .queue
                            .lock()
                            .expect("a group queue mutex is never poisoned");
                        queue.retries += busy;
                    }
                    return busy;
                }
                Admission::Busy { .. } => busy += 1,
            }
        }
    }

    /// Seal `group`'s pending events as a partial epoch (no-op when the
    /// queue is empty). Returns the sealed epoch number, if any.
    /// [`StreamService::drive`] flushes every group automatically when
    /// the producer returns.
    ///
    /// # Panics
    /// On an unknown group id.
    pub fn flush(&self, group: usize) -> Option<u64> {
        assert!(group < self.drive.lanes.len(), "unknown group id {group}");
        let lane = &self.drive.lanes[group];
        let queue = lane
            .queue
            .lock()
            .expect("a group queue mutex is never poisoned");
        if queue.pending.is_empty() {
            return None;
        }
        let tick = self.drive.clock.load(Ordering::Relaxed);
        Some(seal(self.epochs, group, lane, queue, tick))
    }
}

/// Replay `events` through a fresh single-threaded [`MulticastService`]
/// following [`epoch_plan`] — the pinned reference the streaming layer
/// is byte-identical to. Returns one outcome per planned epoch, in
/// order, for the addressed group only.
pub fn replay_reference(
    ut: &UniversalTree,
    mechanisms: &[GroupMechanism],
    group: usize,
    events: &[ChurnEvent],
    config: &StreamConfig,
) -> Vec<MechanismOutcome> {
    let mut svc = MulticastService::new(ut).with_threads(1);
    for &m in mechanisms {
        svc.add_group(m);
    }
    epoch_plan(events, config)
        .iter()
        .map(|chunk| {
            let mut out = svc.step(&[(group, chunk)]);
            out.pop().expect("one outcome per addressed group").outcome
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::random_spt;
    use wmcs_geom::MultiGroupProcess;

    fn stream_with_groups(ut: &UniversalTree, g: usize, config: StreamConfig) -> StreamService {
        let mut svc = StreamService::new(ut, config);
        for i in 0..g {
            svc.add_group(GroupMechanism::alternating(i));
        }
        svc
    }

    /// The interleaved stream of a multi-group trace (round-robin across
    /// groups inside each batch round) and the per-group mechanisms.
    fn workload(
        ut: &UniversalTree,
        g: usize,
        seed: u64,
    ) -> (Vec<(usize, ChurnEvent)>, Vec<GroupMechanism>) {
        let n = ut.network().n_players();
        let trace = MultiGroupProcess::new(n, g, 4, 8.0, seed).generate();
        let mechanisms = (0..g).map(GroupMechanism::alternating).collect();
        (trace.interleaved(), mechanisms)
    }

    fn per_group(stream: &[(usize, ChurnEvent)], g: usize) -> Vec<ChurnEvent> {
        stream
            .iter()
            .filter(|&&(eg, _)| eg == g)
            .map(|&(_, ev)| ev)
            .collect()
    }

    #[test]
    fn streaming_equals_single_thread_batch_replay() {
        let ut = random_spt(7, 24);
        let g = 6;
        let (stream, mechanisms) = workload(&ut, g, 3);
        for config in [StreamConfig::new(8, 64, 2), StreamConfig::new(8, 4, 3)] {
            let mut svc = stream_with_groups(&ut, g, config);
            let (_, report) = svc.drive(|h| {
                for &(group, ev) in &stream {
                    h.submit_blocking(group, ev);
                }
            });
            assert_eq!(report.n_accepted() as usize, stream.len());
            for gr in &report.groups {
                let events = per_group(&stream, gr.group);
                let reference = replay_reference(&ut, &mechanisms, gr.group, &events, &config);
                assert_eq!(gr.epochs.len(), reference.len(), "group {}", gr.group);
                for (k, (epoch, expect)) in gr.epochs.iter().zip(&reference).enumerate() {
                    assert_eq!(epoch.epoch, k as u64);
                    assert_eq!(
                        &epoch.outcome, expect,
                        "group {} epoch {k} diverges from batch replay",
                        gr.group
                    );
                }
            }
        }
    }

    #[test]
    fn busy_accounting_is_exact_under_saturation() {
        // capacity < watermark: every full epoch is a saturation seal,
        // and a group admitting m events with retry-on-busy sees exactly
        // floor((m - 1) / capacity) rejections.
        let ut = random_spt(2, 12);
        let config = StreamConfig::new(8, 4, 2);
        let mut svc = stream_with_groups(&ut, 1, config);
        let m = 9u64;
        let (_, report) = svc.drive(|h| {
            for i in 0..m {
                h.submit_blocking(
                    0,
                    ChurnEvent::Join {
                        player: (i % 11) as usize + 1,
                        utility: 1.0 + i as f64,
                    },
                );
            }
        });
        let gr = &report.groups[0];
        assert_eq!(gr.accepted, m);
        assert_eq!(gr.rejected, (m - 1) / 4);
        assert_eq!(gr.retries, gr.rejected, "every rejection retried once");
        let sizes: Vec<usize> = gr.epochs.iter().map(|e| e.n_events).collect();
        assert_eq!(sizes, vec![4, 4, 1], "saturation epochs + flushed tail");
    }

    #[test]
    fn watermark_sealing_never_rejects() {
        let ut = random_spt(4, 12);
        let config = StreamConfig::new(3, 64, 1);
        let mut svc = stream_with_groups(&ut, 2, config);
        let (admissions, report) = svc.drive(|h| {
            (0..7u64)
                .map(|i| {
                    h.submit(
                        0,
                        ChurnEvent::Join {
                            player: i as usize + 1,
                            utility: 2.0,
                        },
                    )
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(report.n_rejected(), 0);
        // Depths cycle 1, 2, 3(seal), 1, 2, 3(seal), 1 — and the seal is
        // reported on the watermark submission.
        let sealed: Vec<Option<u64>> = admissions
            .iter()
            .map(|a| match *a {
                Admission::Accepted { sealed, .. } => sealed,
                Admission::Busy { .. } => panic!("no rejection expected"),
            })
            .collect();
        assert_eq!(sealed, vec![None, None, Some(0), None, None, Some(1), None]);
        let gr = &report.groups[0];
        let sizes: Vec<usize> = gr.epochs.iter().map(|e| e.n_events).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
        // Group 1 saw no traffic: no epochs, no samples.
        assert!(report.groups[1].epochs.is_empty());
        assert_eq!(report.groups[1].latencies.n_samples(), 0);
    }

    #[test]
    fn latency_samples_follow_the_virtual_clock() {
        let ut = random_spt(9, 10);
        // Watermark 2: ticks 0,1 seal at tick 1 → delays [1, 0], reprice 1.
        let config = StreamConfig::new(2, 8, 1);
        let mut svc = stream_with_groups(&ut, 1, config);
        let (_, report) = svc.drive(|h| {
            for p in 1..=4usize {
                h.submit(
                    0,
                    ChurnEvent::Join {
                        player: p,
                        utility: 1.0,
                    },
                );
            }
        });
        let lat = &report.groups[0].latencies;
        assert_eq!(lat.join, vec![1, 0, 1, 0]);
        assert!(lat.leave.is_empty() && lat.rebid.is_empty());
        assert_eq!(lat.reprice, vec![1, 1]);
    }

    #[test]
    fn sessions_stay_warm_across_drives() {
        let ut = random_spt(5, 16);
        let config = StreamConfig::new(4, 16, 2);
        let g = 3;
        let (stream, mechanisms) = workload(&ut, g, 11);
        let half = stream.len() / 2;

        let mut split = stream_with_groups(&ut, g, config);
        let (_, first) = split.drive(|h| {
            for &(group, ev) in &stream[..half] {
                h.submit_blocking(group, ev);
            }
        });
        let (_, second) = split.drive(|h| {
            for &(group, ev) in &stream[half..] {
                h.submit_blocking(group, ev);
            }
        });

        // The reference replays each group's full subsequence in one
        // piece, but split at the same epoch boundaries: drive flushes
        // force an epoch boundary at the split point, so compare the
        // concatenated outcome streams per group against a reference
        // built from the two halves' plans.
        for group in 0..g {
            let mut reference = MulticastService::new(&ut).with_threads(1);
            for &m in &mechanisms {
                reference.add_group(m);
            }
            let mut expect = Vec::new();
            for part in [&stream[..half], &stream[half..]] {
                for chunk in epoch_plan(&per_group(part, group), &config) {
                    let mut out = reference.step(&[(group, &chunk)]);
                    expect.push(out.pop().expect("one outcome").outcome);
                }
            }
            let got: Vec<_> = first.groups[group]
                .epochs
                .iter()
                .chain(&second.groups[group].epochs)
                .map(|e| e.outcome.clone())
                .collect();
            assert_eq!(got, expect, "group {group} warm continuation diverges");
        }
        // Epoch numbers restart per drive.
        if let Some(e) = second.groups.iter().find_map(|gr| gr.epochs.first()) {
            assert_eq!(e.epoch, 0);
        }
    }

    #[test]
    fn clone_shares_substrate_and_warm_state() {
        let ut = random_spt(3, 14);
        let config = StreamConfig::new(4, 8, 2);
        let g = 2;
        let (stream, _) = workload(&ut, g, 5);
        let half = stream.len() / 2;
        let mut svc = stream_with_groups(&ut, g, config);
        let (_, _) = svc.drive(|h| {
            for &(group, ev) in &stream[..half] {
                h.submit_blocking(group, ev);
            }
        });
        let mut twin = svc.clone();
        let rest = |h: &StreamHandle<'_>| {
            for &(group, ev) in &stream[half..] {
                h.submit_blocking(group, ev);
            }
        };
        let (_, a) = svc.drive(rest);
        let (_, b) = twin.drive(rest);
        assert_eq!(a, b, "a cloned warm service must replay identically");
    }

    #[test]
    #[should_panic(expected = "unknown group id")]
    fn unknown_group_ids_are_rejected() {
        let ut = random_spt(1, 8);
        let mut svc = stream_with_groups(&ut, 2, StreamConfig::new(4, 8, 1));
        let _ = svc.drive(|h| {
            h.submit(
                7,
                ChurnEvent::Join {
                    player: 1,
                    utility: 1.0,
                },
            )
        });
    }

    #[test]
    fn epoch_plan_chunks_by_effective_epoch_size() {
        let events: Vec<ChurnEvent> = (1..=10)
            .map(|p| ChurnEvent::Join {
                player: p,
                utility: 1.0,
            })
            .collect();
        let sizes = |cfg: &StreamConfig| -> Vec<usize> {
            epoch_plan(&events, cfg).iter().map(Vec::len).collect()
        };
        assert_eq!(sizes(&StreamConfig::new(4, 64, 1)), vec![4, 4, 2]);
        assert_eq!(sizes(&StreamConfig::new(64, 3, 1)), vec![3, 3, 3, 1]);
        assert_eq!(sizes(&StreamConfig::new(10, 10, 1)), vec![10]);
        assert!(epoch_plan(&[], &StreamConfig::new(4, 4, 1)).is_empty());
    }
}
