//! Substrate construction at scale: the `SubstrateBuilder`'s grid
//! growth against the dense `O(n²)` reference.
//!
//! Records, per station count and tree kind:
//!
//! * build time of a full universal-tree substrate (canonical growth +
//!   CSR assembly) through the builder on a **lazy** Euclidean network,
//!   which grows on the grid index, at n ∈ {10⁴, 10⁵, 10⁶} — the
//!   million-station headline of the spatial construction path. Growth
//!   relaxes each expanded grid shell into one station queue and skips
//!   finalised cells and rings whole. MST growth stays near-linear (Prim
//!   keys are plain edge costs, so streams stay local); SPT expands
//!   streams deeper (keys are source distances, so low-distance streams
//!   must bound far shells) and stays superlinear, though far below the
//!   dense quadratic — both are byte-identical to the dense reference
//!   (T13);
//! * the dense reference, `grow_tree_dense` over a materialised matrix,
//!   at n ∈ {10³, 4096} (above that the `O(n²)` matrix alone dominates
//!   every budget: 8 TB at n = 10⁶);
//! * resident substrate memory of the grid-grown substrates, printed as
//!   bytes/station for every size (`TreeSubstrate::memory_bytes`, which
//!   counts the SoA arrays and the stored points — and the dense matrix
//!   when one is materialised).
//!
//! `WMCS_BENCH_SMOKE=1` shrinks the sweep (spatial n = 10⁴, dense
//! n = 10³) and the measurement time so CI can compile-and-run this
//! bench as a bit-rot gate (see `.github/workflows/ci.yml`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::time::Duration;
use wmcs_geom::{Point, PowerModel};
use wmcs_graph::grow_tree_dense;
use wmcs_wireless::{SubstrateBuilder, TreeKind, WirelessNetwork};

fn smoke() -> bool {
    std::env::var_os("WMCS_BENCH_SMOKE").is_some()
}

/// Uniform stations in a square scaled with √n (constant density, the
/// regime the grid index is built for).
fn uniform_points(n: usize, seed: u64) -> Vec<Point> {
    let side = (n as f64).sqrt() * 10.0;
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::xy(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect()
}

fn spatial_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_build/spatial");
    g.sample_size(10);
    let sizes: &[usize] = if smoke() {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    for &n in sizes {
        // Lazy storage: no `O(n²)` matrix ever exists on this path.
        let net =
            WirelessNetwork::euclidean_lazy(uniform_points(n, 42), PowerModel::free_space(), 0);
        for (kind, tag) in [(TreeKind::Spt, "spt"), (TreeKind::Mst, "mst")] {
            let sub = SubstrateBuilder::new(&net).tree(kind).build();
            eprintln!(
                "substrate_build/spatial {tag} n={n}: {} bytes resident, {:.1} bytes/station",
                sub.memory_bytes(),
                sub.memory_bytes() as f64 / n as f64
            );
            drop(sub);
            g.bench_with_input(BenchmarkId::new(tag, n), &n, |b, _| {
                b.iter(|| SubstrateBuilder::new(&net).tree(kind).build())
            });
        }
    }
    g.finish();
}

fn dense_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_build/dense");
    g.sample_size(10);
    let sizes: &[usize] = if smoke() { &[1_000] } else { &[1_000, 4_096] };
    for &n in sizes {
        let net = WirelessNetwork::euclidean(uniform_points(n, 42), PowerModel::free_space(), 0);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| grow_tree_dense(net.costs(), 0, TreeKind::Spt))
        });
    }
    g.finish();
}

fn configured() -> Criterion {
    let c = Criterion::default();
    if smoke() {
        c.measurement_time(Duration::from_millis(400))
            .warm_up_time(Duration::from_millis(100))
    } else {
        c.measurement_time(Duration::from_secs(10))
            .warm_up_time(Duration::from_secs(1))
    }
}

criterion_group! {
    name = benches;
    config = configured();
    targets = spatial_build, dense_build
}
criterion_main!(benches);
