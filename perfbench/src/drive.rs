//! The two public front doors, driven in a closed loop by one producer:
//! `StreamService::drive` (one epoch worker) and `MulticastService::step`
//! (one worker thread). Every call into them is timed here.

use crate::trace::{now_ns, Name, Spans};
use crate::workload::{build, standalone_costs, stations, Door, Generator, Spec};
use wmcs_game::MechanismOutcome;
use wmcs_geom::ChurnEvent;
use wmcs_wireless::{
    epoch_plan, Admission, EpochOutcome, GroupStreamReport, MulticastService, StreamConfig,
    StreamReport, StreamService, UniversalTree,
};

/// One epoch as the front door served it: a stream epoch, or one
/// group's batch within a step.
#[derive(Debug, Clone, PartialEq)]
pub struct Epoch {
    /// The group.
    pub group: usize,
    /// Step within the drive (steps door) or epoch within the drive
    /// (stream door).
    pub step: usize,
    /// The events the epoch absorbed.
    pub events: Vec<ChurnEvent>,
    /// The outcome the front door returned.
    pub outcome: MechanismOutcome,
}

/// Everything one drive returned: stream epochs in group-then-epoch
/// order, or step batches in step order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriveLog {
    /// The epochs.
    pub epochs: Vec<Epoch>,
    /// Wall nanoseconds of each step (steps door).
    pub step_ns: Vec<u64>,
}

/// What one drive measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriveStats {
    /// Wall time from the first call until the drive (or last step)
    /// returned.
    pub wall_ns: u64,
    /// Events accepted.
    pub accepted: u64,
    /// Submission attempts (stream) or steps (steps).
    pub attempts: u64,
    /// `Busy` refusals.
    pub busy: u64,
    /// Wall time of every front-door call.
    pub calls: Vec<u64>,
    /// Wall time of each `submit` that neither sealed nor was refused.
    pub submit_ns: Vec<u64>,
    /// Total wall time of `submit`s that sealed or were refused.
    pub seal_ns: u64,
    /// Producer return to `drive` return.
    pub tail_ns: u64,
    /// Epochs the drive produced.
    pub epochs: u64,
    /// Bytes held by the returned report (stream) or outcomes (steps).
    pub report_bytes: u64,
}

/// Heap and inline bytes of one outcome.
pub fn outcome_bytes(o: &MechanismOutcome) -> u64 {
    (std::mem::size_of::<MechanismOutcome>()
        + o.shares.capacity() * std::mem::size_of::<f64>()
        + o.receivers.capacity() * std::mem::size_of::<usize>()) as u64
}

fn report_bytes(report: &StreamReport) -> u64 {
    report
        .groups
        .iter()
        .map(|g| {
            let lat = &g.latencies;
            let samples = lat.join.capacity()
                + lat.leave.capacity()
                + lat.rebid.capacity()
                + lat.reprice.capacity();
            std::mem::size_of::<GroupStreamReport>() as u64
                + (samples * std::mem::size_of::<u64>()) as u64
                + g.epochs
                    .iter()
                    .map(|e| {
                        outcome_bytes(&e.outcome) + std::mem::size_of::<EpochOutcome>() as u64
                            - std::mem::size_of::<MechanismOutcome>() as u64
                    })
                    .sum::<u64>()
        })
        .sum()
}

/// One `StreamService::drive` over `submissions`, each retried until
/// admitted. Epochs are recovered per group with the public
/// `epoch_plan`, so every outcome is paired with the events it absorbed.
pub fn stream_drive(
    svc: &mut StreamService,
    submissions: &[(usize, ChurnEvent)],
    spans: &mut Spans,
    drive_no: usize,
) -> Result<(DriveLog, DriveStats), String> {
    let config: StreamConfig = svc.config();
    let groups = svc.n_groups();
    let mut stats = DriveStats::default();
    let start = now_ns();
    let root = spans.open_span(Name::Drive, start, usize::MAX, drive_no);
    let (producer_end, report) = {
        let (stats, spans) = (&mut stats, &mut *spans);
        svc.drive(move |h| {
            for &(g, ev) in submissions {
                loop {
                    let a = now_ns();
                    let admission = h.submit(g, ev);
                    let b = now_ns();
                    stats.calls.push(b - a);
                    stats.attempts += 1;
                    match admission {
                        Admission::Accepted { sealed: None, .. } => {
                            stats.submit_ns.push(b - a);
                            spans.log_span(Name::Submit, (a, b), root, g, usize::MAX);
                            break;
                        }
                        Admission::Accepted {
                            sealed: Some(k), ..
                        } => {
                            stats.seal_ns += b - a;
                            spans.log_span(Name::Seal, (a, b), root, g, k as usize);
                            break;
                        }
                        Admission::Busy { .. } => {
                            stats.busy += 1;
                            stats.seal_ns += b - a;
                            spans.log_span(Name::Seal, (a, b), root, g, usize::MAX);
                        }
                    }
                }
            }
            now_ns()
        })
    };
    let end = now_ns();
    spans.log_span(Name::Tail, (producer_end, end), root, usize::MAX, drive_no);
    spans.close_span(root, end);
    stats.wall_ns = end - start;
    stats.tail_ns = end.saturating_sub(producer_end);
    stats.accepted = report.n_accepted();
    stats.epochs = report.n_epochs() as u64;
    stats.report_bytes = report_bytes(&report);

    let mut per_group: Vec<Vec<ChurnEvent>> = vec![Vec::new(); groups];
    for &(g, ev) in submissions {
        per_group[g].push(ev);
    }
    if stats.accepted != submissions.len() as u64 {
        return Err(format!(
            "stream accepted {} of {} events",
            stats.accepted,
            submissions.len()
        ));
    }
    let mut log = DriveLog::default();
    for (g, (events, group)) in per_group.iter().zip(report.groups).enumerate() {
        let plan = epoch_plan(events, &config);
        if plan.len() != group.epochs.len() {
            return Err(format!(
                "group {g}: {} epochs sealed, the plan cuts {}",
                group.epochs.len(),
                plan.len()
            ));
        }
        for (k, (chunk, e)) in plan.into_iter().zip(group.epochs).enumerate() {
            if e.group != g || e.epoch != k as u64 || e.n_events != chunk.len() {
                return Err(format!("group {g}: epoch {k} does not match its plan"));
            }
            log.epochs.push(Epoch {
                group: g,
                step: k,
                events: chunk,
                outcome: e.outcome,
            });
        }
    }
    Ok((log, stats))
}

/// One segment of `MulticastService::step` calls.
pub fn step_segment(
    svc: &mut MulticastService,
    steps: &[Vec<(usize, Vec<ChurnEvent>)>],
    spans: &mut Spans,
    drive_no: usize,
) -> (DriveLog, DriveStats) {
    let mut stats = DriveStats::default();
    let mut outs = Vec::with_capacity(steps.len());
    let start = now_ns();
    let root = spans.open_span(Name::Segment, start, usize::MAX, drive_no);
    for (s, step) in steps.iter().enumerate() {
        let batch: Vec<(usize, &[ChurnEvent])> =
            step.iter().map(|(g, ev)| (*g, ev.as_slice())).collect();
        let a = now_ns();
        let out = svc.step(&batch);
        let b = now_ns();
        stats.calls.push(b - a);
        spans.log_span(Name::Step, (a, b), root, usize::MAX, s);
        outs.push(out);
    }
    let end = now_ns();
    spans.close_span(root, end);
    stats.wall_ns = end - start;
    stats.attempts = steps.len() as u64;
    let mut log = DriveLog {
        epochs: Vec::new(),
        step_ns: stats.calls.clone(),
    };
    for (s, (step, out)) in steps.iter().zip(outs).enumerate() {
        for ((g, events), o) in step.iter().zip(out) {
            stats.accepted += events.len() as u64;
            stats.report_bytes += outcome_bytes(&o.outcome);
            log.epochs.push(Epoch {
                group: *g,
                step: s,
                events: events.clone(),
                outcome: o.outcome,
            });
        }
    }
    stats.epochs = log.epochs.len() as u64;
    (log, stats)
}

/// A workload's front door, warmed.
#[derive(Debug, Clone)]
pub enum FrontDoor {
    /// The streaming front door.
    Stream(StreamService),
    /// The stepped front door.
    Steps(MulticastService),
}

/// One drive's pre-generated input.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// Interleaved `(group, event)` submissions.
    Stream(Vec<(usize, ChurnEvent)>),
    /// Steps, each a list of `(group, batch)`.
    Steps(Vec<Vec<(usize, Vec<ChurnEvent>)>>),
}

impl FrontDoor {
    /// Serve one drive's input.
    pub fn serve(
        &mut self,
        input: &Input,
        spans: &mut Spans,
        drive_no: usize,
    ) -> Result<(DriveLog, DriveStats), String> {
        match (self, input) {
            (FrontDoor::Stream(svc), Input::Stream(subs)) => {
                stream_drive(svc, subs, spans, drive_no)
            }
            (FrontDoor::Steps(svc), Input::Steps(steps)) => {
                Ok(step_segment(svc, steps, spans, drive_no))
            }
            _ => Err("input does not fit the front door".into()),
        }
    }

    /// Warm session bytes across every group.
    pub fn warm_bytes(&self) -> usize {
        match self {
            FrontDoor::Stream(svc) => svc.memory_bytes(),
            FrontDoor::Steps(svc) => svc.memory_bytes(),
        }
    }
}

/// A set-up workload: substrate, warmed front door, generator.
#[derive(Debug, Clone)]
pub struct Served {
    /// The shared substrate.
    pub ut: UniversalTree,
    /// The warmed front door.
    pub door: FrontDoor,
    /// The generator, past the warm-up.
    pub gen: Generator,
    /// The warm-up's epochs.
    pub warm: DriveLog,
    /// Build + registration + warm-up.
    pub setup_ns: u64,
}

/// The warm-up input: every member joins once. Streams get one
/// interleaved drive; steps get batches of `spec.batch` joins for every
/// group per step.
fn warmup_input(spec: &Spec, gen: &mut Generator) -> Input {
    let joins = gen.warmup();
    match spec.door {
        Door::Stream { .. } => Input::Stream(gen.interleave(joins)),
        Door::Steps { .. } => {
            let rounds = spec.members.div_ceil(spec.batch);
            Input::Steps(
                (0..rounds)
                    .map(|r| {
                        joins
                            .iter()
                            .enumerate()
                            .filter_map(|(g, evs)| {
                                let lo = (r * spec.batch).min(evs.len());
                                let hi = ((r + 1) * spec.batch).min(evs.len());
                                (lo < hi).then(|| (g, evs[lo..hi].to_vec()))
                            })
                            .collect()
                    })
                    .collect(),
            )
        }
    }
}

/// Build, register and warm up `spec` for `seed`. Input generation is
/// not timed.
pub fn setup(spec: &Spec, seed: u64, spans: &mut Spans) -> Result<Served, String> {
    let points = stations(spec);
    let t0 = now_ns();
    let ut = build(points);
    let t1 = now_ns();
    spans.log_span(Name::Build, (t0, t1), None, usize::MAX, usize::MAX);
    let mut gen = Generator::new(spec, seed, standalone_costs(&ut));
    let input = warmup_input(spec, &mut gen);
    let t2 = now_ns();
    let mut door = match spec.door {
        Door::Stream {
            watermark,
            capacity,
        } => {
            let config = StreamConfig::new(watermark, capacity, 1);
            let mut svc = StreamService::new(&ut, config);
            for g in 0..spec.groups {
                svc.add_group(spec.mechanism(g));
            }
            FrontDoor::Stream(svc)
        }
        Door::Steps { .. } => {
            let mut svc = MulticastService::new(&ut).with_threads(1);
            for g in 0..spec.groups {
                svc.add_group(spec.mechanism(g));
            }
            FrontDoor::Steps(svc)
        }
    };
    let (warm, _) = door.serve(&input, &mut Spans::new(false), usize::MAX)?;
    let t3 = now_ns();
    spans.log_span(Name::Warmup, (t2, t3), None, usize::MAX, usize::MAX);
    Ok(Served {
        ut,
        door,
        gen,
        warm,
        setup_ns: (t1 - t0) + (t3 - t2),
    })
}

/// Every timed drive's input, generated before timing starts.
pub fn timed_inputs(spec: &Spec, gen: &mut Generator, seconds: f64) -> Vec<Input> {
    let drives = spec.drives(seconds);
    (0..drives)
        .map(|d| match spec.door {
            Door::Stream { .. } => Input::Stream(gen.stream_drive(spec.batch)),
            Door::Steps {
                groups_per_step,
                steps_per_drive,
            } => Input::Steps(gen.step_segment(
                d * steps_per_drive,
                steps_per_drive,
                groups_per_step,
                spec.batch,
            )),
        })
        .collect()
}
