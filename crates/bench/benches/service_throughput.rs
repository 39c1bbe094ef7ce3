//! Multi-group service throughput: sharded vs single-thread vs per-group
//! cold runs (criterion).
//!
//! One deterministic [`MultiGroupProcess`] workload — G = 1024 groups
//! (alternating Shapley / MC) with Zipf sizes and overlapping member
//! sets over an n = 4096 uniform instance — is served three ways:
//!
//! * `sharded` — one [`MulticastService`] on the shared substrate, the
//!   worker pool at available parallelism;
//! * `single_thread` — the same service pinned to 1 worker (the
//!   byte-identity reference the shard is gated against in T12);
//! * `per_group_cold` — the pre-service status quo: per batch and per
//!   group, a cold rebuild on the group's current state
//!   ([`shapley_drop_run_from`] for Shapley groups, the one-shot
//!   [`NetWorth::from_utilities`] + [`NetWorth::vcg_outcome`] for MC
//!   groups), reconstructed
//!   from sparse recorded states so the recording itself stays in
//!   memory at G = 1024.
//!
//! All variants start **after** the warm-up batches (absorbed outside
//! the timers) and replay the same churn batches on identical state
//! sequences; the warm variants clone the warmed service inside the
//! timer (no `iter_batched` in the vendored shim), which counts
//! *against* them — recorded ratios are conservative. Setup prints the
//! events per iteration so timings convert to events/sec; the headline
//! numbers are recorded in EXPERIMENTS.md.
//!
//! `WMCS_BENCH_SMOKE=1` shrinks the workload (G = 32, n = 256) and the
//! measurement time so CI can compile-and-run this bench as a bit-rot
//! gate (see `.github/workflows/ci.yml`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use wmcs_bench::harness::random_euclidean;
use wmcs_geom::{ChurnEvent, MultiGroupProcess, MultiGroupTrace};
use wmcs_wireless::incremental::shapley_drop_run_from;
use wmcs_wireless::{
    GroupMechanism, GroupSession, MulticastService, NetWorth, SubstrateBuilder, TreeKind,
    UniversalTree,
};

/// Churn batches per group after the warm-up batch.
const BATCHES: usize = 4;

fn smoke() -> bool {
    std::env::var_os("WMCS_BENCH_SMOKE").is_some()
}

/// Instance + multi-group workload at (n stations, G groups).
fn setup(n: usize, g: usize) -> (UniversalTree, MultiGroupTrace) {
    let net = random_euclidean(42, n, 2.0, 10.0);
    let ut = SubstrateBuilder::new(&net)
        .tree(TreeKind::Spt)
        .build_universal();
    let broadcast = ut.multicast_cost(&ut.network().non_source_stations());
    let hi = 2.0 * broadcast / (n - 1) as f64;
    let trace = MultiGroupProcess::new(n - 1, g, BATCHES, hi, 43).generate();
    (ut, trace)
}

/// A service over `ut` with the trace's groups registered and every
/// warm-up batch (batch 0 of each group) absorbed — the steady state all
/// timed variants start from.
fn warmed_service(ut: &UniversalTree, trace: &MultiGroupTrace, threads: usize) -> MulticastService {
    let mut svc = MulticastService::new(ut).with_threads(threads);
    for i in 0..trace.groups.len() {
        svc.add_group(GroupMechanism::alternating(i));
    }
    let warmup: Vec<Vec<ChurnEvent>> = trace
        .groups
        .iter()
        .map(|gr| gr.trace.batches[0].clone())
        .collect();
    svc.step_all(&warmup);
    svc
}

/// The churn batches (after warm-up) in step form: `steps[b][g]` is
/// group g's batch b+1.
fn churn_steps(trace: &MultiGroupTrace) -> Vec<Vec<Vec<ChurnEvent>>> {
    (1..trace.n_batches())
        .map(|b| {
            trace
                .groups
                .iter()
                .map(|gr| gr.trace.batches[b].clone())
                .collect()
        })
        .collect()
}

/// Sparse per-(batch, group) state the cold variant replays: for Shapley
/// groups the candidate players and their bids, for MC groups the
/// nonzero station utilities.
enum ColdState {
    Shapley(Vec<(usize, f64)>),
    Mc(Vec<(usize, f64)>),
}

/// Replay the warm service once, recording each group's pre-reprice
/// state per churn batch (sparse, so G = 1024 × n = 4096 stays well
/// under memory).
fn record_cold_states(
    ut: &UniversalTree,
    trace: &MultiGroupTrace,
    steps: &[Vec<Vec<ChurnEvent>>],
) -> Vec<Vec<ColdState>> {
    let mut sessions: Vec<GroupSession> = (0..trace.groups.len())
        .map(|i| GroupSession::new(GroupMechanism::alternating(i), ut))
        .collect();
    for (i, s) in sessions.iter_mut().enumerate() {
        s.apply_batch(&trace.groups[i].trace.batches[0]);
    }
    steps
        .iter()
        .map(|batches| {
            sessions
                .iter_mut()
                .enumerate()
                .map(|(i, s)| match s {
                    GroupSession::Shapley(s) => {
                        s.apply_events(&batches[i]);
                        let bids = s.reported_profile();
                        let state = s
                            .active_players()
                            .into_iter()
                            .map(|p| (p, bids[p]))
                            .collect();
                        s.reprice();
                        ColdState::Shapley(state)
                    }
                    GroupSession::Mc(s) => {
                        s.apply_events(&batches[i]);
                        let state = s
                            .station_utilities()
                            .iter()
                            .enumerate()
                            .filter(|&(_, &u)| u != 0.0)
                            .map(|(x, &u)| (x, u))
                            .collect();
                        s.reprice();
                        ColdState::Mc(state)
                    }
                })
                .collect()
        })
        .collect()
}

fn service_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);
    let (n, g) = if smoke() { (256, 32) } else { (4096, 1024) };

    let (ut, trace) = setup(n, g);
    let steps = churn_steps(&trace);
    let churn_events: usize = steps
        .iter()
        .flat_map(|batches| batches.iter().map(Vec::len))
        .sum();
    eprintln!(
        "service_throughput: n={n} G={g}, {churn_events} churn events per iteration \
         ({BATCHES} batches/group)"
    );

    let warmed = warmed_service(&ut, &trace, 0);
    let warmed_serial = warmed.clone().with_threads(1);
    let label = format!("G{g}_n{n}");
    eprintln!(
        "service_throughput: warm session state {} bytes/group",
        warmed.memory_bytes() / g
    );

    group.bench_with_input(BenchmarkId::new("sharded", &label), &g, |b, _| {
        b.iter(|| {
            let mut svc = warmed.clone();
            let mut served = 0usize;
            for batches in &steps {
                served += svc
                    .step_all(batches)
                    .iter()
                    .map(|o| o.outcome.receivers.len())
                    .sum::<usize>();
            }
            served
        })
    });
    group.bench_with_input(BenchmarkId::new("single_thread", &label), &g, |b, _| {
        b.iter(|| {
            let mut svc = warmed_serial.clone();
            let mut served = 0usize;
            for batches in &steps {
                served += svc
                    .step_all(batches)
                    .iter()
                    .map(|o| o.outcome.receivers.len())
                    .sum::<usize>();
            }
            served
        })
    });

    let cold_states = record_cold_states(&ut, &trace, &steps);
    let n_players = ut.network().n_players();
    let n_stations = ut.network().n_stations();
    group.bench_with_input(BenchmarkId::new("per_group_cold", &label), &g, |b, _| {
        b.iter(|| {
            // Shared scratch vectors, filled and cleared per group.
            let mut bids = vec![0.0f64; n_players];
            let mut u_st = vec![0.0f64; n_stations];
            let mut served = 0usize;
            for step in &cold_states {
                for state in step {
                    match state {
                        ColdState::Shapley(players) => {
                            for &(p, bid) in players {
                                bids[p] = bid;
                            }
                            let ids: Vec<usize> = players.iter().map(|&(p, _)| p).collect();
                            served += shapley_drop_run_from(&ut, &bids, &ids).receivers.len();
                            for &(p, _) in players {
                                bids[p] = 0.0;
                            }
                        }
                        ColdState::Mc(stations) => {
                            for &(x, u) in stations {
                                u_st[x] = u;
                            }
                            served += NetWorth::from_utilities(&ut, &u_st)
                                .vcg_outcome()
                                .receivers
                                .len();
                            for &(x, _) in stations {
                                u_st[x] = 0.0;
                            }
                        }
                    }
                }
            }
            served
        })
    });
    group.finish();
}

fn configured() -> Criterion {
    if smoke() {
        Criterion::default()
            .measurement_time(Duration::from_millis(80))
            .warm_up_time(Duration::from_millis(20))
    } else {
        Criterion::default()
            .measurement_time(Duration::from_secs(3))
            .warm_up_time(Duration::from_millis(500))
    }
}

criterion_group! {
    name = benches;
    config = configured();
    targets = service_throughput
}
criterion_main!(benches);
