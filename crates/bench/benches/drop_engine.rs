//! Naive vs incremental Moulin–Shenker drop engine (criterion).
//!
//! Pits [`wmcs_wireless::incremental::shapley_drop_run`] (subtree
//! counts maintained across rounds over the frame's child lists) against
//! [`wmcs_wireless::incremental::reference_drop_run`] (full
//! `shapley_shares` recomputation per round) on identical instances and
//! utility profiles. The naive driver is only benched at n ≤ 256 — it
//! is the `O(n³)` reference, and beyond that it alone would dominate
//! the run; the incremental engine continues to n = 4096, the T10
//! table's largest cell.
//!
//! `WMCS_BENCH_SMOKE=1` shrinks warm-up and measurement time so CI can
//! compile-and-run this bench as a bit-rot gate without paying for a
//! full measurement (see `.github/workflows/ci.yml`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use wmcs_bench::harness::{random_euclidean, random_utilities};
use wmcs_wireless::incremental::{reference_drop_run, shapley_drop_run};
use wmcs_wireless::{SubstrateBuilder, TreeKind, UniversalTree};

/// Instance + profile shared by both drivers at a given size: utilities
/// scaled to the per-player broadcast cost so the drop loop actually
/// cascades instead of terminating in one round.
fn setup(n: usize) -> (UniversalTree, Vec<f64>) {
    let net = random_euclidean(42, n, 2.0, 10.0);
    let ut = SubstrateBuilder::new(&net)
        .tree(TreeKind::Spt)
        .build_universal();
    let broadcast = ut.multicast_cost(&ut.network().non_source_stations());
    let u = random_utilities(
        43,
        ut.network().n_players(),
        2.0 * broadcast / (n - 1) as f64,
    );
    (ut, u)
}

fn drop_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("moulin_shenker_drop_engine");
    g.sample_size(10);
    for &n in &[64usize, 256] {
        let (ut, u) = setup(n);
        g.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| reference_drop_run(&ut, &u))
        });
        g.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| shapley_drop_run(&ut, &u))
        });
    }
    for &n in &[1024usize, 4096] {
        let (ut, u) = setup(n);
        g.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| shapley_drop_run(&ut, &u))
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
    targets = drop_engine
}
criterion_main!(benches);
