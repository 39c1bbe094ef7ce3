//! Warm live sessions vs cold rebuilds per churn batch (criterion).
//!
//! Replays one deterministic churn trace (16 batches + warm-up) through
//! three ways of serving it with `M(Shapley)`:
//!
//! * `warm` — one [`ShapleySession`]: events absorbed in `O(path)`, the
//!   drop loop restarted from the surviving set with the warm engine;
//! * `cold_from_set` — per batch, a fresh engine rebuilt from scratch on
//!   the same current receiver set (the byte-identity reference,
//!   [`shapley_drop_run_from`]);
//! * `cold_one_shot` — per batch, the pre-session status quo: the full
//!   one-shot mechanism run from `U` on the full bid vector
//!   ([`shapley_drop_run`]), which has to re-cascade every unaffordable
//!   player out on every batch.
//!
//! and the MC analogue (`warm` oracle repair vs `cold` full-DP rebuild
//! per batch). All variants start **after** the trace's warm-up batch
//! (the one-time flash crowd that joins half the universe, absorbed
//! outside the timers) and reprice once per churn batch on identical
//! state sequences, so every number is steady-state churn cost: divide
//! by the batch count for per-batch cost, by the churn event count for
//! per-event cost. The `warm` variants clone the warmed session inside
//! the timer (the vendored criterion shim has no `iter_batched` to hoist
//! it); that overhead counts *against* warm, so the recorded ratios are
//! conservative. The headline warm-vs-cold ratios are recorded in
//! EXPERIMENTS.md.
//!
//! `WMCS_BENCH_SMOKE=1` shrinks warm-up and measurement time so CI can
//! compile-and-run this bench as a bit-rot gate (see
//! `.github/workflows/ci.yml`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use wmcs_bench::harness::random_euclidean;
use wmcs_geom::{ChurnProcess, ChurnTrace};
use wmcs_wireless::incremental::{shapley_drop_run, shapley_drop_run_from};
use wmcs_wireless::session::{McSession, ShapleySession};
use wmcs_wireless::{NetWorth, SubstrateBuilder, TreeKind, UniversalTree};

/// Instance + trace shared by every variant at a given size: bids scaled
/// to the per-player broadcast cost (the T10/T11 regime).
fn setup(n: usize) -> (UniversalTree, ChurnTrace) {
    let net = random_euclidean(42, n, 2.0, 10.0);
    let ut = SubstrateBuilder::new(&net)
        .tree(TreeKind::Spt)
        .build_universal();
    let broadcast = ut.multicast_cost(&ut.network().non_source_stations());
    let hi = 2.0 * broadcast / (n - 1) as f64;
    let trace = ChurnProcess::new(n - 1, 16, ((n - 1) / 64).max(4), hi, 43).generate();
    (ut, trace)
}

/// A session with the warm-up batch (batch 0) already absorbed and
/// repriced — the steady state every timed variant starts from.
fn warmed_session(ut: &UniversalTree, trace: &ChurnTrace) -> ShapleySession {
    let mut session = ShapleySession::new(ut);
    session.apply_batch(&trace.batches[0]);
    session
}

/// Replay the churn batches (after the warm-up) once and record, per
/// batch, the candidate receiver set and bid profile the reprice ran on —
/// the exact state sequence the cold variants must reproduce.
fn record_states(ut: &UniversalTree, trace: &ChurnTrace) -> Vec<(Vec<usize>, Vec<f64>)> {
    let mut session = warmed_session(ut, trace);
    let mut states = Vec::with_capacity(trace.batches.len() - 1);
    for batch in &trace.batches[1..] {
        session.apply_events(batch);
        states.push((session.active_players(), session.reported_profile()));
        session.reprice();
    }
    states
}

fn session_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("session_churn_shapley");
    g.sample_size(10);
    for &n in &[1024usize, 4096] {
        let (ut, trace) = setup(n);
        let warmed = warmed_session(&ut, &trace);
        let states = record_states(&ut, &trace);
        g.bench_with_input(BenchmarkId::new("warm", n), &n, |b, _| {
            b.iter(|| {
                let mut s = warmed.clone();
                for batch in &trace.batches[1..] {
                    s.apply_batch(batch);
                }
                s.n_batches()
            })
        });
        g.bench_with_input(BenchmarkId::new("cold_from_set", n), &n, |b, _| {
            b.iter(|| {
                let mut served = 0usize;
                for (players, bids) in &states {
                    served += shapley_drop_run_from(&ut, bids, players).receivers.len();
                }
                served
            })
        });
        g.bench_with_input(BenchmarkId::new("cold_one_shot", n), &n, |b, _| {
            b.iter(|| {
                let mut served = 0usize;
                for (_, bids) in &states {
                    served += shapley_drop_run(&ut, bids).receivers.len();
                }
                served
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("session_churn_mc");
    g.sample_size(10);
    for &n in &[1024usize, 4096] {
        let (ut, trace) = setup(n);
        // A warmed MC session plus, per churn batch, the station-utility
        // vector it holds after that batch (the cold DP's input).
        let mut warmed = McSession::new(&ut);
        warmed.apply_batch(&trace.batches[0]);
        let mut recorder = warmed.clone();
        let mut profiles = Vec::with_capacity(trace.batches.len() - 1);
        for batch in &trace.batches[1..] {
            recorder.apply_events(batch);
            profiles.push(recorder.station_utilities());
            recorder.reprice();
        }
        g.bench_with_input(BenchmarkId::new("warm", n), &n, |b, _| {
            b.iter(|| {
                let mut s = warmed.clone();
                let mut served = 0usize;
                for batch in &trace.batches[1..] {
                    served += s.apply_batch(batch).receivers.len();
                }
                served
            })
        });
        g.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
            b.iter(|| {
                let mut served = 0usize;
                for u in &profiles {
                    served += NetWorth::from_utilities(&ut, u)
                        .vcg_outcome()
                        .receivers
                        .len();
                }
                served
            })
        });
    }
    g.finish();
}

fn configured() -> Criterion {
    if std::env::var_os("WMCS_BENCH_SMOKE").is_some() {
        // CI smoke: one short measurement per case, enough to catch the
        // bench bit-rotting without a real measurement budget.
        Criterion::default()
            .measurement_time(Duration::from_millis(80))
            .warm_up_time(Duration::from_millis(20))
    } else {
        Criterion::default()
            .measurement_time(Duration::from_secs(2))
            .warm_up_time(Duration::from_millis(500))
    }
}

criterion_group! {
    name = benches;
    config = configured();
    targets = session_churn
}
criterion_main!(benches);
