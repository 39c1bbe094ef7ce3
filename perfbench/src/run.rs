//! One benchmark run: set-up, the timed phase, checks, guards, metrics.
//!
//! An untraced run reports the end-to-end metrics. A traced run replays
//! the same seed: it first serves the timed phase untraced on a clone of
//! the warmed front door (the overhead reference), then traced, with the
//! layer replay after each drive, and reports the per-layer metrics.

use crate::check::{guards, Checker, Health};
use crate::drive::{setup, timed_inputs, DriveLog, DriveStats, FrontDoor, Input};
use crate::replay::Replay;
use crate::trace::{median, ms, percentile, secs, Name, Spans};
use crate::workload::{Door, Spec};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run prints.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// Events submitted in the timed phase.
    pub attempted: u64,
    /// Events the front door never accepted.
    pub failed: u64,
    /// Digest of every outcome, warm-up included.
    pub digest: u64,
    /// Health facts.
    pub health: Health,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Front-door spans (traced runs).
    pub spans: Spans,
    /// Layer-replay spans (traced runs).
    pub replay_spans: Spans,
}

/// The timed phase's measurements.
#[derive(Debug, Clone, Default)]
struct Phase {
    rates: Vec<f64>,
    /// Wall time of every front-door call, in ns.
    calls: Vec<u64>,
    /// Per-drive p50 and p90 of the front-door call times, in µs.
    call_p50: Vec<f64>,
    call_p90: Vec<f64>,
    drives: Vec<DriveStats>,
    /// The untraced twin's drives (traced runs).
    twin_drives: Vec<DriveStats>,
}

/// An untraced copy of the warmed front door that serves each drive
/// just before the traced one: the reference for the tracing overhead.
struct Twin {
    door: FrontDoor,
    checker: Checker,
}

/// Share of the traced phase the replayed layers must account for
/// before the per-layer table is taken to explain it.
const MIN_COVERAGE: f64 = 0.9;

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn rate(stats: &DriveStats) -> f64 {
    stats.accepted as f64 / secs(stats.wall_ns.max(1))
}

/// Accepted events ÷ wall time, per drive of the timed phase (input
/// generation, checks and replays between drives excluded), and the
/// median over the run's drives: the host's speed swings within seconds,
/// and a median of many short drives is not pulled by the slow ones.
fn phase_rate(drives: &[DriveStats]) -> f64 {
    median(&drives.iter().map(rate).collect::<Vec<_>>())
}

fn timed_phase(
    door: &mut FrontDoor,
    inputs: &[Input],
    checker: &mut Checker,
    spans: &mut Spans,
    mut replay: Option<&mut Replay>,
    mut twin: Option<&mut Twin>,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    for (d, input) in inputs.iter().enumerate() {
        if let Some(t) = twin.as_deref_mut() {
            let (log, stats) = t.door.serve(input, &mut Spans::new(false), d)?;
            t.checker.check_log(&log, true)?;
            phase.twin_drives.push(stats);
        }
        let (log, mut stats) = door.serve(input, spans, d)?;
        checker.check_log(&log, true)?;
        if let Some(r) = replay.as_deref_mut() {
            r.replay_log(&log, true)?;
        }
        phase.rates.push(rate(&stats));
        // Percentiles are taken per drive and summarised by their median
        // over the run, so one drive hit by a host stall cannot set the
        // run's tail.
        phase.calls.extend_from_slice(&stats.calls);
        phase
            .call_p50
            .push(percentile(&mut stats.calls, 0.5) as f64 / 1e3);
        phase
            .call_p90
            .push(percentile(&mut stats.calls, 0.9) as f64 / 1e3);
        stats.calls = Vec::new();
        phase.drives.push(stats);
    }
    Ok(phase)
}

fn health(checker: &Checker, phase: &Phase) -> Health {
    let (served_fraction, first_tenth, last_tenth) = checker.served();
    Health {
        served_fraction,
        first_tenth,
        last_tenth,
        evictions: checker.evictions,
        busy: phase.drives.iter().map(|d| d.busy).sum(),
    }
}

fn busy_fraction(drives: &[DriveStats], door: Door) -> f64 {
    let attempts: u64 = drives.iter().map(|d| d.attempts).sum();
    let busy: u64 = drives.iter().map(|d| d.busy).sum();
    match door {
        Door::Stream { .. } if attempts > 0 => busy as f64 / attempts as f64,
        _ => 0.0,
    }
}

/// Peak resident set of this process, in MB (10⁶ bytes), from the
/// kernel's high-water mark.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn shape_line(spec: &Spec, seed: u64, inputs: &[Input]) -> String {
    let events: usize = inputs
        .iter()
        .map(|i| match i {
            Input::Stream(s) => s.len(),
            Input::Steps(steps) => steps.iter().flatten().map(|(_, e)| e.len()).sum(),
        })
        .sum();
    format!(
        "workload {} seed {seed}: n = {}, G = {} x {} members, {:?}, {} drives, {events} timed events",
        spec.name,
        spec.stations,
        spec.groups,
        spec.members,
        spec.door,
        inputs.len()
    )
}

/// An untraced run: the end-to-end metrics.
pub fn run_untraced(spec: &Spec, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..spec.setups.max(1) {
        drop(kept.take());
        let served = setup(spec, seed, &mut Spans::new(false))?;
        setup_s.push(secs(served.setup_ns));
        let mut checker = Checker::new(spec, served.ut.network().n_players());
        checker.check_log(&served.warm, false)?;
        if let Some((_, first)) = &kept {
            let first: &Checker = first;
            if first.digest() != checker.digest() {
                return Err("two set-ups of one seed warmed up differently".into());
            }
        }
        kept = Some((served, checker));
    }
    let (mut served, mut checker) = kept.ok_or("no set-up ran")?;
    served.warm = DriveLog::default();
    let inputs = timed_inputs(spec, &mut served.gen, seconds);
    let mut phase = timed_phase(
        &mut served.door,
        &inputs,
        &mut checker,
        &mut Spans::new(false),
        None,
        None,
    )?;
    let health = health(&checker, &phase);
    guards(spec, &health)?;

    let (p50, p90) = (median(&phase.call_p50), median(&phase.call_p90));
    let call_p50 = percentile(&mut phase.calls, 0.5) as f64 / 1e3;
    let call_p99 = percentile(&mut phase.calls, 0.99) as f64 / 1e3;
    let accepted: u64 = phase.drives.iter().map(|d| d.accepted).sum();
    let busy_fraction = busy_fraction(&phase.drives, spec.door);
    let metrics = vec![
        metric("events_per_s", phase_rate(&phase.drives), "events/s"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("served_fraction", health.served_fraction, "ratio"),
    ];
    let lines = vec![
        shape_line(spec, seed, &inputs),
        format!(
            "front-door calls: {} (over the run: p50 {:.3} us, p99 {:.3} us; median over drives: p50 {p50:.3} us, p90 {p90:.3} us); set-ups: {setup_s:?} s",
            phase.calls.len(),
            call_p50,
            call_p99,
        ),
        format!(
            "drives: {:?} events/s",
            phase.rates.iter().map(|r| r.round()).collect::<Vec<_>>()
        ),
        format!(
            "health: served {:.4} (first tenth {:.4}, last tenth {:.4}), evictions {}, busy {}, busy_fraction {busy_fraction:.6}",
            health.served_fraction,
            health.first_tenth,
            health.last_tenth,
            health.evictions,
            health.busy
        ),
        format!("outcome digest {:016x}", checker.digest()),
    ];
    Ok(RunResult {
        metrics,
        attempted: accepted,
        failed: 0,
        digest: checker.digest(),
        health,
        lines,
        spans: Spans::new(false),
        replay_spans: Spans::new(false),
    })
}

/// A traced run: the per-layer metrics.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut spans = Spans::new(true);
    let mut served = setup(spec, seed, &mut spans)?;
    let n = served.ut.network().n_stations();
    let mut checker = Checker::new(spec, served.ut.network().n_players());
    checker.check_log(&served.warm, false)?;
    let inputs = timed_inputs(spec, &mut served.gen, seconds);

    let mut twin = Twin {
        door: served.door.clone(),
        checker: checker.clone(),
    };
    let mut replay = Replay::create(spec, &served.ut);
    replay.replay_log(&served.warm, false)?;
    served.warm = DriveLog::default();
    let phase = timed_phase(
        &mut served.door,
        &inputs,
        &mut checker,
        &mut spans,
        Some(&mut replay),
        Some(&mut twin),
    )?;
    if checker.digest() != twin.checker.digest() {
        return Err("the traced phase served different outcomes than the untraced twin".into());
    }
    let (traced_rate, untraced_rate) = (phase_rate(&phase.drives), phase_rate(&phase.twin_drives));
    let health = health(&checker, &phase);
    guards(spec, &health)?;
    let s = &replay.samples;
    if s.evictions != checker.evictions {
        return Err(format!(
            "shadow sessions evicted {} members, the outcomes show {}",
            s.evictions, checker.evictions
        ));
    }

    // Stream layer: the front door itself, or the streamed replay of
    // the step batches.
    let stream: &[DriveStats] = match spec.door {
        Door::Stream { .. } => &phase.drives,
        Door::Steps { .. } => &s.stream,
    };
    let mut submit: Vec<u64> = stream
        .iter()
        .flat_map(|d| d.submit_ns.iter().copied())
        .collect();
    let tails: Vec<f64> = stream.iter().map(|d| ms(d.tail_ns)).collect();
    let accepted: u64 = stream.iter().map(|d| d.accepted).sum();
    let attempts: u64 = stream.iter().map(|d| d.attempts).sum();
    let groups = spec.groups.max(1) as f64;
    let epochs = s.epochs.max(1) as f64;

    // Coverage: the replayed session calls (whose children are the
    // reference passes and, in the sparse layout, frame growth) against
    // the wall time of the traced drives they reproduce. The front door
    // runs exactly these calls one after another on its one worker, so
    // what they leave uncovered is the front door's own work: stream
    // hand-off and queueing, or service dispatch.
    let wall_ns: u64 = phase.drives.iter().map(|d| d.wall_ns).sum();
    let reprice_total: u64 = s.reprice_ns.iter().sum();
    let passes_total: u64 = s.shapley_ns.iter().chain(&s.multicast_ns).sum();
    let session_total: u64 = s.absorb_ns.iter().chain(&s.reprice_ns).sum();
    let coverage = session_total as f64 / wall_ns.max(1) as f64;
    let build_ns = spans.total_of(Name::Build);

    let mut absorb = s.absorb_ns.clone();
    let mut reprice = s.reprice_ns.clone();
    let mut step = s.step_ns.clone();
    let mut shapley = s.shapley_ns.clone();
    let mut multicast = s.multicast_ns.clone();
    let as_f64 = |v: &[i64]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
    let metrics = vec![
        metric("builder.build_s", secs(build_ns), "s"),
        metric(
            "builder.bytes_per_station",
            served.ut.substrate().memory_bytes() as f64 / n as f64,
            "B",
        ),
        metric(
            "stream.submit_ns",
            percentile(&mut submit, 0.5) as f64,
            "ns",
        ),
        metric(
            "stream.seal_wait_s",
            secs(stream.iter().map(|d| d.seal_ns).sum()),
            "s",
        ),
        metric("stream.tail_ms", median(&tails), "ms"),
        metric(
            "stream.epochs",
            stream.iter().map(|d| d.epochs).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "stream.busy",
            stream.iter().map(|d| d.busy).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "stream.admitted_fraction",
            accepted as f64 / attempts.max(1) as f64,
            "ratio",
        ),
        metric(
            "stream.report_mb",
            stream.iter().map(|d| d.report_bytes).max().unwrap_or(0) as f64 / 1e6,
            "MB",
        ),
        metric("service.step_ms_p50", ms(percentile(&mut step, 0.5)), "ms"),
        metric("service.step_ms_p90", ms(percentile(&mut step, 0.9)), "ms"),
        metric(
            "service.dispatch_ms",
            median(&as_f64(&s.dispatch_ns)) / 1e6,
            "ms",
        ),
        metric(
            "session.absorb_us_p50",
            percentile(&mut absorb, 0.5) as f64 / 1e3,
            "us",
        ),
        metric(
            "session.reprice_ms_p50",
            ms(percentile(&mut reprice, 0.5)),
            "ms",
        ),
        metric(
            "session.reprice_ms_p99",
            ms(percentile(&mut reprice, 0.99)),
            "ms",
        ),
        metric(
            "session.reprice_self_ms_p50",
            median(&as_f64(&s.reprice_self_ns)) / 1e6,
            "ms",
        ),
        metric("session.evictions", s.evictions as f64, "count"),
        metric(
            "session.useful_event_fraction",
            s.useful as f64 / s.events.max(1) as f64,
            "ratio",
        ),
        metric(
            "session.warm_bytes_per_group",
            served.door.warm_bytes() as f64 / groups,
            "B",
        ),
        metric("substrate.ensure_ms", ms(s.ensure_ns) / groups, "ms"),
        metric(
            "substrate.frame_nodes_per_group",
            replay.frame_nodes_per_group(),
            "count",
        ),
        metric(
            "universal.shapley_shares_ms_p50",
            ms(percentile(&mut shapley, 0.5)),
            "ms",
        ),
        metric(
            "universal.multicast_cost_ms_p50",
            ms(percentile(&mut multicast, 0.5)),
            "ms",
        ),
        metric(
            "universal.closure_fraction",
            s.closure_sum / epochs,
            "ratio",
        ),
        metric(
            "mechanism.outcome_bytes",
            s.outcome_bytes_sum as f64 / epochs,
            "B",
        ),
        metric(
            "trace.overhead_fraction",
            1.0 - traced_rate / untraced_rate.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        metric("trace.coverage", coverage, "ratio"),
    ];
    let mut lines = vec![
        shape_line(spec, seed, &inputs),
        format!(
            "traced {traced_rate:.1} events/s vs untraced twin {untraced_rate:.1} events/s; \
             replayed {} timed epochs bit for bit",
            s.epochs
        ),
        format!(
            "profile: reference passes are {:.1}% of reprice; replayed session calls cover {:.1}% of the traced phase wall time{}",
            100.0 * passes_total as f64 / reprice_total.max(1) as f64,
            100.0 * coverage,
            if coverage < MIN_COVERAGE {
                " (BELOW 90%: the per-layer table does not account for the phase)"
            } else {
                ""
            }
        ),
        format!("outcome digest {:016x}", checker.digest()),
        format!("{:<36} {:>18} unit", "per-layer metric", "value"),
    ];
    lines.extend(
        metrics
            .iter()
            .map(|m| format!("{:<36} {:>18.6} {}", m.name, m.value, m.unit)),
    );
    Ok(RunResult {
        metrics,
        attempted: phase.drives.iter().map(|d| d.accepted).sum(),
        failed: 0,
        digest: checker.digest(),
        health,
        lines,
        spans,
        replay_spans: replay.spans,
    })
}
