//! Substrate-level criterion benches: graph algorithms, the JV share
//! computation vs the GW moat ablation, the NWST spider oracle and the
//! simplex core check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use wmcs_bench::harness::{random_euclidean, random_nwst};
use wmcs_game::{core_is_empty, ExplicitGame};
use wmcs_graph::{dijkstra, jv_steiner_shares, kmb_steiner, moat_growing, prim_mst};
use wmcs_nwst::{nwst_approximate, NwstConfig};

fn graph_basics(c: &mut Criterion) {
    let mut g = c.benchmark_group("graph_substrate");
    for &n in &[100usize, 300] {
        let net = random_euclidean(3, n, 2.0, 50.0);
        g.bench_with_input(BenchmarkId::new("prim_mst", n), &n, |b, _| {
            b.iter(|| prim_mst(net.costs()))
        });
        g.bench_with_input(BenchmarkId::new("dijkstra", n), &n, |b, _| {
            b.iter(|| dijkstra(net.costs(), 0))
        });
    }
    g.finish();
}

fn steiner_builders(c: &mut Criterion) {
    let mut g = c.benchmark_group("steiner_builders");
    g.sample_size(20);
    for &n in &[40usize, 80] {
        let net = random_euclidean(4, n, 2.0, 30.0);
        let terminals: Vec<usize> = (0..n).step_by(4).collect();
        g.bench_with_input(BenchmarkId::new("kmb", n), &n, |b, _| {
            b.iter(|| kmb_steiner(net.costs(), &terminals))
        });
        let receivers: Vec<usize> = terminals.iter().copied().filter(|&t| t != 0).collect();
        g.bench_with_input(BenchmarkId::new("jv_shares", n), &n, |b, _| {
            b.iter(|| jv_steiner_shares(net.costs(), 0, &receivers))
        });
        g.bench_with_input(BenchmarkId::new("gw_moat(ablation)", n), &n, |b, _| {
            b.iter(|| moat_growing(net.costs(), 0, &receivers))
        });
    }
    g.finish();
}

fn nwst_oracle(c: &mut Criterion) {
    let mut g = c.benchmark_group("nwst_greedy");
    g.sample_size(20);
    for &(n, k) in &[(20usize, 5usize), (40, 8)] {
        let (graph, terminals) = random_nwst(5, n, k);
        g.bench_with_input(
            BenchmarkId::new("branch_spiders", format!("{n}x{k}")),
            &n,
            |b, _| b.iter(|| nwst_approximate(&graph, &terminals, &NwstConfig::default())),
        );
        let kr = NwstConfig {
            min_spider_groups: 2,
            branch_legs: false,
            ..Default::default()
        };
        g.bench_with_input(
            BenchmarkId::new("klein_ravi(ablation)", format!("{n}x{k}")),
            &n,
            |b, _| b.iter(|| nwst_approximate(&graph, &terminals, &kr)),
        );
    }
    g.finish();
}

fn core_lp(c: &mut Criterion) {
    let mut g = c.benchmark_group("core_feasibility_lp");
    g.sample_size(10);
    for &players in &[8usize, 10] {
        // A submodular max-game: core non-empty; the LP still sweeps all
        // 2^p coalition rows.
        let game = ExplicitGame::from_fn(players, |m| {
            (0..players)
                .filter(|i| m & (1 << i) != 0)
                .map(|i| 1.0 + i as f64)
                .fold(0.0, f64::max)
        });
        g.bench_with_input(BenchmarkId::from_parameter(players), &players, |b, _| {
            b.iter(|| core_is_empty(&game))
        });
    }
    g.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = graph_basics, steiner_builders, nwst_oracle, core_lp
}
criterion_main!(benches);
