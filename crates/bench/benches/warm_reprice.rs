//! Warm reprice epochs of both §2.1 engines (criterion).
//!
//! Times what a served group pays per epoch once it is warm: one session
//! per mechanism absorbs its members' joins, then every iteration clones
//! that warm session and applies the same fixed list of epochs to the
//! clone (`apply_batch`: absorb, then reprice). Two shapes, after the
//! served-workload benchmark's two workloads:
//!
//! * `served/<mechanism>`: n = 10⁵ uniform stations (side √n·10, lazy
//!   free-space network, SPT grown on the grid), 32 members bidding
//!   U(0.5, 1.5) × their root-path cost, 40 epochs of 64 events;
//! * `crowded/<mechanism>`: n = 2,048 on the same layout rule, 512
//!   members bidding U(0.3, 1.0) × their root-path cost, 200 epochs of
//!   16 events.
//!
//! Each event draws a pool member: an absent one joins with a fresh bid;
//! a present one re-joins with a fresh bid (40%), rebids (40%) or leaves
//! (20%). Clone time is inside the timed routine (a few hundred KB per
//! iteration, well under the epochs' time). Divide a case's time by its
//! epoch count for the time per epoch.
//!
//! `WMCS_BENCH_SMOKE=1` shrinks warm-up and measurement time so CI can
//! compile-and-run this bench as a bit-rot gate (see
//! `.github/workflows/ci.yml`).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::time::Duration;
use wmcs_geom::{Point, PowerModel};
use wmcs_wireless::{
    ChurnEvent, McSession, ShapleySession, SubstrateBuilder, TreeKind, UniversalTree,
    WirelessNetwork, NO_STATION,
};

/// One session shape: universe size, members, bid factor range, epoch
/// count and events per epoch.
struct Shape {
    name: &'static str,
    stations: usize,
    members: usize,
    bid: (f64, f64),
    epochs: usize,
    events: usize,
}

const SHAPES: [Shape; 2] = [
    Shape {
        name: "served",
        stations: 100_000,
        members: 32,
        bid: (0.5, 1.5),
        epochs: 40,
        events: 64,
    },
    Shape {
        name: "crowded",
        stations: 2048,
        members: 512,
        bid: (0.3, 1.0),
        epochs: 200,
        events: 16,
    },
];

/// Uniform stations at constant density, the free-space SPT over them.
fn universe(n: usize) -> UniversalTree {
    let mut rng = SmallRng::seed_from_u64(0x5745_4154 ^ n as u64);
    let side = (n as f64).sqrt() * 10.0;
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::xy(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    let net = WirelessNetwork::euclidean_lazy(pts, PowerModel::free_space(), 0);
    SubstrateBuilder::from_owned(net)
        .tree(TreeKind::Spt)
        .build_universal()
}

/// Each player's root-path cost: its stand-alone Shapley share.
fn root_path_costs(ut: &UniversalTree) -> Vec<f64> {
    let sub = ut.substrate();
    let mut path = vec![0.0; ut.network().n_stations()];
    for v in sub.bfs_order() {
        let (v, p) = (v.index(), sub.parent_of(v.index()));
        if p != NO_STATION {
            path[v] = path[p] + sub.parent_cost(v);
        }
    }
    (0..ut.network().n_players())
        .map(|p| path[ut.network().station_of_player(p)])
        .collect()
}

/// The warm-up batch (every member joins once) and the fixed epochs.
fn events(ut: &UniversalTree, shape: &Shape) -> (Vec<ChurnEvent>, Vec<Vec<ChurnEvent>>) {
    let costs = root_path_costs(ut);
    let mut rng = SmallRng::seed_from_u64(0x0e90c5 ^ shape.stations as u64);
    let mut deck: Vec<usize> = (0..costs.len()).collect();
    for i in 0..shape.members {
        let j = rng.gen_range(i..deck.len());
        deck.swap(i, j);
    }
    let pool = &deck[..shape.members];
    let bid =
        |rng: &mut SmallRng, player: usize| rng.gen_range(shape.bid.0..shape.bid.1) * costs[player];
    let warmup = pool
        .iter()
        .map(|&player| ChurnEvent::Join {
            player,
            utility: bid(&mut rng, player),
        })
        .collect();
    let mut present = vec![true; shape.members];
    let epochs = (0..shape.epochs)
        .map(|_| {
            (0..shape.events)
                .map(|_| {
                    let i = rng.gen_range(0..shape.members);
                    let player = pool[i];
                    let roll: f64 = rng.gen_range(0.0..1.0);
                    if !present[i] || roll < 0.4 {
                        present[i] = true;
                        ChurnEvent::Join {
                            player,
                            utility: bid(&mut rng, player),
                        }
                    } else if roll < 0.8 {
                        ChurnEvent::Rebid {
                            player,
                            utility: bid(&mut rng, player),
                        }
                    } else {
                        present[i] = false;
                        ChurnEvent::Leave { player }
                    }
                })
                .collect()
        })
        .collect();
    (warmup, epochs)
}

fn warm_reprice(c: &mut Criterion) {
    let mut g = c.benchmark_group("warm_reprice");
    g.sample_size(10);
    for shape in &SHAPES {
        let ut = universe(shape.stations);
        let (warmup, epochs) = events(&ut, shape);
        let mut shapley = ShapleySession::new(&ut);
        shapley.apply_batch(&warmup);
        let mut mc = McSession::new(&ut);
        mc.apply_batch(&warmup);
        g.bench_function(format!("{}/shapley", shape.name), |b| {
            b.iter(|| {
                let mut s = shapley.clone();
                epochs
                    .iter()
                    .map(|e| s.apply_batch(e).receivers.len())
                    .sum::<usize>()
            })
        });
        g.bench_function(format!("{}/mc", shape.name), |b| {
            b.iter(|| {
                let mut s = mc.clone();
                epochs
                    .iter()
                    .map(|e| s.apply_batch(e).receivers.len())
                    .sum::<usize>()
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
    targets = warm_reprice
}
criterion_main!(benches);
