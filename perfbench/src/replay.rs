//! The layer replay: reach inside the layers from outside.
//!
//! Each epoch the front door served is re-driven, in order, through
//!
//! * a shadow session of the type `SessionLayout::resolve(n)` picks,
//!   with spans on `apply_events` and `reprice`;
//! * `UniversalTree::shapley_shares` and `multicast_cost`, re-executed
//!   on the epoch's receiver stations;
//! * `Subframe::ensure` for each join, on a per-group shadow frame;
//! * the *other* front door: stream epochs are stepped one by one
//!   through a `MulticastService`, step batches are streamed through a
//!   `StreamService` whose watermark is the batch size.
//!
//! Every replayed outcome must equal the front door's bit for bit.

use crate::drive::{outcome_bytes, stream_drive, DriveLog, DriveStats};
use crate::trace::{now_ns, Name, Spans};
use crate::workload::{Door, Spec};
use wmcs_game::MechanismOutcome;
use wmcs_geom::ChurnEvent;
use wmcs_wireless::{
    GroupMechanism, McSession, MulticastService, SessionLayout, ShapleySession, SparseMcSession,
    SparseShapleySession, StreamConfig, StreamService, Subframe, UniversalTree,
};

/// A shadow session, of the concrete type the service would pick.
#[derive(Debug, Clone)]
enum Shadow {
    Shapley(ShapleySession),
    Mc(McSession),
    SparseShapley(SparseShapleySession),
    SparseMc(SparseMcSession),
}

impl Shadow {
    fn create(mechanism: GroupMechanism, ut: &UniversalTree) -> Self {
        let n = ut.network().n_stations();
        let sparse = SessionLayout::Auto.resolve(n) == SessionLayout::Sparse;
        match (mechanism, sparse) {
            (GroupMechanism::Shapley, false) => Shadow::Shapley(ShapleySession::new(ut)),
            (GroupMechanism::Shapley, true) => Shadow::SparseShapley(SparseShapleySession::new(ut)),
            (GroupMechanism::MarginalCost, false) => Shadow::Mc(McSession::new(ut)),
            (GroupMechanism::MarginalCost, true) => Shadow::SparseMc(SparseMcSession::new(ut)),
        }
    }

    fn shadow_absorb(&mut self, events: &[ChurnEvent]) {
        match self {
            Shadow::Shapley(s) => s.apply_events(events),
            Shadow::Mc(s) => s.apply_events(events),
            Shadow::SparseShapley(s) => s.apply_events(events),
            Shadow::SparseMc(s) => s.apply_events(events),
        }
    }

    fn shadow_reprice(&mut self) -> MechanismOutcome {
        match self {
            Shadow::Shapley(s) => s.reprice(),
            Shadow::Mc(s) => s.reprice(),
            Shadow::SparseShapley(s) => s.reprice(),
            Shadow::SparseMc(s) => s.reprice(),
        }
    }

    /// Session members (Shapley: not evicted; MC: holding a bid).
    fn shadow_members(&self) -> Vec<usize> {
        match self {
            Shadow::Shapley(s) => s.active_players(),
            Shadow::Mc(s) => s.active_players(),
            Shadow::SparseShapley(s) => s.active_players(),
            Shadow::SparseMc(s) => s.active_players(),
        }
    }
}

/// Bit-for-bit outcome equality.
fn same_bits(a: &MechanismOutcome, b: &MechanismOutcome) -> bool {
    a.receivers == b.receivers
        && a.served_cost.to_bits() == b.served_cost.to_bits()
        && a.shares.len() == b.shares.len()
        && a.shares
            .iter()
            .zip(&b.shares)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The other front door, replaying the same epochs.
#[derive(Debug)]
enum Cross {
    /// Stream epochs, stepped one at a time.
    Service(MulticastService),
    /// Step batches, streamed with watermark = batch size.
    Stream(StreamService),
}

/// Per-layer samples from the timed epochs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerSamples {
    /// `apply_events` per epoch.
    pub absorb_ns: Vec<u64>,
    /// `reprice` per epoch.
    pub reprice_ns: Vec<u64>,
    /// `reprice` minus the re-executed reference passes, per epoch.
    pub reprice_self_ns: Vec<i64>,
    /// `shapley_shares` per Shapley epoch.
    pub shapley_ns: Vec<u64>,
    /// `multicast_cost` per epoch.
    pub multicast_ns: Vec<u64>,
    /// `MulticastService::step` per step (cross replay or front door).
    pub step_ns: Vec<u64>,
    /// Step minus its replayed session spans, per step.
    pub dispatch_ns: Vec<i64>,
    /// Σ |T(R)| / n over epochs.
    pub closure_sum: f64,
    /// Σ outcome bytes over epochs.
    pub outcome_bytes_sum: u64,
    /// Epochs sampled.
    pub epochs: u64,
    /// Shapley members evicted by a reprice.
    pub evictions: u64,
    /// Events absorbed.
    pub events: u64,
    /// Events that changed the session (not a `Leave`/`Rebid` of a
    /// non-member).
    pub useful: u64,
    /// `Subframe::ensure` time over the whole replay, warm-up included.
    pub ensure_ns: u64,
    /// The cross stream's drives (steps workloads only).
    pub stream: Vec<DriveStats>,
}

/// The layer replay's state: shadows persist across drives.
#[derive(Debug)]
pub struct Replay {
    ut: UniversalTree,
    shadows: Vec<Shadow>,
    frames: Vec<Subframe>,
    cross: Cross,
    epochs_seen: Vec<usize>,
    /// Replay spans.
    pub spans: Spans,
    /// Samples from timed drives.
    pub samples: LayerSamples,
}

impl Replay {
    /// Empty shadows for every group of `spec` over `ut`.
    pub fn create(spec: &Spec, ut: &UniversalTree) -> Self {
        let shadows = (0..spec.groups)
            .map(|g| Shadow::create(spec.mechanism(g), ut))
            .collect();
        let frames = (0..spec.groups)
            .map(|_| Subframe::new(ut.substrate()))
            .collect();
        let cross = match spec.door {
            Door::Stream { .. } => {
                let mut svc = MulticastService::new(ut).with_threads(1);
                for g in 0..spec.groups {
                    svc.add_group(spec.mechanism(g));
                }
                Cross::Service(svc)
            }
            Door::Steps { .. } => {
                let config = StreamConfig::new(spec.batch, 2 * spec.batch, 1);
                let mut svc = StreamService::new(ut, config);
                for g in 0..spec.groups {
                    svc.add_group(spec.mechanism(g));
                }
                Cross::Stream(svc)
            }
        };
        Self {
            ut: ut.clone(),
            shadows,
            frames,
            cross,
            epochs_seen: vec![0; spec.groups],
            spans: Spans::new(true),
            samples: LayerSamples::default(),
        }
    }

    /// Frame nodes per group, averaged.
    pub fn frame_nodes_per_group(&self) -> f64 {
        let total: usize = self.frames.iter().map(Subframe::len).sum();
        total as f64 / self.frames.len().max(1) as f64
    }

    /// Replay every epoch of one drive, one layer per pass so each
    /// layer's calls run back to back as they do behind the front door.
    /// `timed` drives feed the samples; the warm-up is replayed only to
    /// reach the same state.
    pub fn replay_log(&mut self, log: &DriveLog, timed: bool) -> Result<(), String> {
        let epochs = &log.epochs;
        let ks: Vec<usize> = epochs
            .iter()
            .map(|e| {
                let k = self.epochs_seen[e.group];
                self.epochs_seen[e.group] += 1;
                k
            })
            .collect();

        // 1. The other front door.
        let mut step_ns = Vec::new();
        match &mut self.cross {
            Cross::Service(svc) => {
                let mut outs = Vec::with_capacity(epochs.len());
                for (e, &k) in epochs.iter().zip(&ks) {
                    let a = now_ns();
                    let out = svc.step(&[(e.group, e.events.as_slice())]);
                    let b = now_ns();
                    self.spans.log_span(Name::Step, (a, b), None, e.group, k);
                    step_ns.push(b - a);
                    outs.push(out);
                }
                for ((e, &k), out) in epochs.iter().zip(&ks).zip(&outs) {
                    if !out
                        .first()
                        .is_some_and(|o| same_bits(&o.outcome, &e.outcome))
                    {
                        return Err(format!(
                            "group {} epoch {k}: stepped replay differs",
                            e.group
                        ));
                    }
                }
            }
            Cross::Stream(svc) => {
                stream_cross(svc, log, timed, &mut self.spans, &mut self.samples)?;
                step_ns.clone_from(&log.step_ns);
            }
        }

        // 2. Shadow sessions.
        let mut outs = Vec::with_capacity(epochs.len());
        let mut session_ns = Vec::with_capacity(epochs.len());
        for (e, &k) in epochs.iter().zip(&ks) {
            let shadow = &mut self.shadows[e.group];
            let mut members = shadow.shadow_members();
            let useful = useful_events(&mut members, &e.events);
            let root = self.spans.open_span(Name::Epoch, now_ns(), e.group, k);
            let t0 = now_ns();
            shadow.shadow_absorb(&e.events);
            let t1 = now_ns();
            let out = shadow.shadow_reprice();
            let t2 = now_ns();
            self.spans
                .log_span(Name::Absorb, (t0, t1), root, e.group, k);
            self.spans
                .log_span(Name::Reprice, (t1, t2), root, e.group, k);
            self.spans.close_span(root, t2);
            let shapley = matches!(shadow, Shadow::Shapley(_) | Shadow::SparseShapley(_));
            session_ns.push(t2 - t0);
            if timed {
                let s = &mut self.samples;
                s.absorb_ns.push(t1 - t0);
                s.reprice_ns.push(t2 - t1);
                s.events += e.events.len() as u64;
                s.useful += useful;
                if shapley {
                    s.evictions += members.len().saturating_sub(out.receivers.len()) as u64;
                }
            }
            outs.push((out, shapley));
        }

        // 3. The reference passes, re-executed on the receiver stations.
        let net = self.ut.network();
        for (i, (e, &k)) in epochs.iter().zip(&ks).enumerate() {
            let (out, shapley) = &outs[i];
            if !same_bits(out, &e.outcome) {
                return Err(format!(
                    "group {} epoch {k}: shadow session differs",
                    e.group
                ));
            }
            let stations: Vec<usize> = out
                .receivers
                .iter()
                .map(|&p| net.station_of_player(p))
                .collect();
            let mut passes = 0;
            if *shapley {
                let a = now_ns();
                let by_station = self.ut.shapley_shares(&stations);
                let b = now_ns();
                self.spans
                    .log_span(Name::ShapleyShares, (a, b), None, e.group, k);
                let same = out
                    .receivers
                    .iter()
                    .zip(&stations)
                    .all(|(&p, &x)| by_station[x].to_bits() == out.shares[p].to_bits());
                if !same {
                    return Err(format!(
                        "group {} epoch {k}: shapley_shares differs",
                        e.group
                    ));
                }
                passes += b - a;
                if timed {
                    self.samples.shapley_ns.push(b - a);
                }
            }
            let a = now_ns();
            let cost = self.ut.multicast_cost(&stations);
            let b = now_ns();
            self.spans
                .log_span(Name::MulticastCost, (a, b), None, e.group, k);
            if cost.to_bits() != out.served_cost.to_bits() {
                return Err(format!(
                    "group {} epoch {k}: multicast_cost differs",
                    e.group
                ));
            }
            passes += b - a;
            if timed {
                let s = &mut self.samples;
                s.multicast_ns.push(b - a);
                let reprice = s.reprice_ns[s.reprice_ns.len() - epochs.len() + i];
                s.reprice_self_ns.push(signed(reprice) - signed(passes));
                let mut frame = Subframe::new(self.ut.substrate());
                for &x in &stations {
                    frame.ensure(self.ut.substrate(), x);
                }
                s.closure_sum += frame.len() as f64 / net.n_stations() as f64;
                s.outcome_bytes_sum += outcome_bytes(out);
                s.epochs += 1;
            }
        }

        // 4. Frame growth: each join's root path, on the group's frame.
        for (e, &k) in epochs.iter().zip(&ks) {
            let a = now_ns();
            let mut joins = 0;
            for ev in &e.events {
                if let ChurnEvent::Join { player, .. } = *ev {
                    let station = net.station_of_player(player);
                    self.frames[e.group].ensure(self.ut.substrate(), station);
                    joins += 1;
                }
            }
            let b = now_ns();
            if joins > 0 {
                self.spans.log_span(Name::Ensure, (a, b), None, e.group, k);
                self.samples.ensure_ns += b - a;
            }
        }

        // Dispatch: a step's wall time minus its replayed session spans.
        if timed {
            let mut by_step = vec![0u64; step_ns.len()];
            match self.cross {
                Cross::Service(_) => by_step.clone_from(&session_ns),
                Cross::Stream(_) => {
                    for (e, ns) in epochs.iter().zip(&session_ns) {
                        if let Some(slot) = by_step.get_mut(e.step) {
                            *slot += ns;
                        }
                    }
                }
            }
            for (&step, &session) in step_ns.iter().zip(&by_step) {
                self.samples.step_ns.push(step);
                self.samples
                    .dispatch_ns
                    .push(signed(step) - signed(session));
            }
        }
        Ok(())
    }
}

fn signed(ns: u64) -> i64 {
    i64::try_from(ns).unwrap_or(i64::MAX)
}

/// Count the events that change a session whose members are `members`
/// (ascending), updating `members` as the session would.
fn useful_events(members: &mut Vec<usize>, events: &[ChurnEvent]) -> u64 {
    let mut useful = 0;
    for ev in events {
        match *ev {
            ChurnEvent::Join { player, .. } => {
                useful += 1;
                if let Err(i) = members.binary_search(&player) {
                    members.insert(i, player);
                }
            }
            ChurnEvent::Leave { player } => {
                if let Ok(i) = members.binary_search(&player) {
                    members.remove(i);
                    useful += 1;
                }
            }
            ChurnEvent::Rebid { player, .. } => {
                if members.binary_search(&player).is_ok() {
                    useful += 1;
                }
            }
        }
    }
    useful
}

/// Stream the step batches of `log` through `svc` (watermark = batch
/// size) and require each group's epochs to equal its step outcomes.
fn stream_cross(
    svc: &mut StreamService,
    log: &DriveLog,
    timed: bool,
    spans: &mut Spans,
    samples: &mut LayerSamples,
) -> Result<(), String> {
    let submissions: Vec<(usize, ChurnEvent)> = log
        .epochs
        .iter()
        .flat_map(|e| e.events.iter().map(move |&ev| (e.group, ev)))
        .collect();
    let (streamed, stats) = stream_drive(svc, &submissions, spans, usize::MAX)?;
    let mut by_group: Vec<Vec<&MechanismOutcome>> = vec![Vec::new(); svc.n_groups()];
    for e in &streamed.epochs {
        by_group[e.group].push(&e.outcome);
    }
    let mut cursor = vec![0usize; by_group.len()];
    for e in &log.epochs {
        let k = cursor[e.group];
        cursor[e.group] += 1;
        let same = by_group[e.group]
            .get(k)
            .is_some_and(|o| same_bits(o, &e.outcome));
        if !same {
            return Err(format!(
                "group {} batch {k}: streamed replay differs from the step",
                e.group
            ));
        }
    }
    if cursor
        .iter()
        .zip(&by_group)
        .any(|(&c, epochs)| c != epochs.len())
    {
        return Err("streamed replay sealed a different number of epochs".into());
    }
    if timed {
        samples.stream.push(stats);
    }
    Ok(())
}
