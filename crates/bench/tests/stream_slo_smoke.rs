//! Stream accounting and budget balance on a many-group drive: G Shapley
//! groups on one `StreamService` over a lazy spatial substrate, warmed by
//! a join wave, then fed a round-robin rebid stream sized so that every
//! group seals exactly one watermark epoch. Asserted: warm-up and stream
//! accounting close (every submission accepted, none rejected or
//! retried), each group seals exactly one epoch of exactly `WATERMARK`
//! events, and a sampled Shapley epoch balances its budget. Nothing here
//! is timed: served throughput is measured by the served-workload
//! benchmark (`perfbench/`), and warm bytes per group at n = 10⁵ are
//! gated by `examples/large_scale.rs`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wmcs_geom::{ChurnEvent, Point, PowerModel};
use wmcs_wireless::{
    GroupMechanism, StreamConfig, StreamService, SubstrateBuilder, TreeKind, WirelessNetwork,
};

// Capacity > watermark, so nothing saturates; EVENTS / G = WATERMARK, so
// each group seals exactly once.
const N: usize = 400;
const G: usize = 16;
const MEMBERS: usize = 8;
const WATERMARK: usize = 32;
const CAPACITY: usize = 64;
const EVENTS: usize = G * WATERMARK;

#[test]
fn stream_slo_assertions_hold_at_test_scale() {
    let side = (N as f64).sqrt() * 10.0;
    let mut rng = SmallRng::seed_from_u64(14);
    let pts: Vec<Point> = (0..N)
        .map(|_| Point::xy(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    let net = WirelessNetwork::euclidean_lazy(pts, PowerModel::free_space(), 0);
    let ut = SubstrateBuilder::from_owned(net)
        .tree(TreeKind::Spt)
        .build_universal();

    let n_players = N - 1;
    let broadcast = ut.multicast_cost(&ut.network().non_source_stations());
    let hi = 2.0 * broadcast / n_players as f64;

    let mut svc = StreamService::new(&ut, StreamConfig::new(WATERMARK, CAPACITY, 2));
    for _ in 0..G {
        svc.add_group(GroupMechanism::Shapley);
    }
    let members: Vec<Vec<usize>> = (0..G)
        .map(|g| {
            let mut r = SmallRng::seed_from_u64(0x51_0000 + g as u64);
            (0..MEMBERS).map(|_| r.gen_range(0..n_players)).collect()
        })
        .collect();

    let ((), report) = svc.drive(|h| {
        for (g, m) in members.iter().enumerate() {
            for &p in m {
                h.submit_blocking(
                    g,
                    ChurnEvent::Join {
                        player: p,
                        utility: hi,
                    },
                );
            }
        }
    });
    assert_eq!(
        report.n_accepted(),
        (G * MEMBERS) as u64,
        "warm-up accepted"
    );
    assert_eq!(report.n_rejected(), 0, "warm-up rejected");

    let mut utility = SmallRng::seed_from_u64(0x51_beef);
    let stream: Vec<(usize, ChurnEvent)> = (0..EVENTS)
        .map(|k| {
            let g = k % G;
            let p = members[g][(k / G) % MEMBERS];
            (
                g,
                ChurnEvent::Rebid {
                    player: p,
                    utility: utility.gen_range(0.0..hi),
                },
            )
        })
        .collect();
    let ((), report) = svc.drive(|h| {
        for &(g, ev) in &stream {
            h.submit_blocking(g, ev);
        }
    });

    assert_eq!(report.n_accepted(), EVENTS as u64, "all events accepted");
    assert_eq!(report.n_rejected(), 0, "no saturation seals");
    assert_eq!(report.n_retries(), 0, "no busy retries");
    assert_eq!(report.n_epochs(), G, "one watermark seal per group");
    for gr in &report.groups {
        assert_eq!(gr.epochs.len(), 1, "group {}: epoch count", gr.group);
        assert_eq!(
            gr.epochs[0].n_events, WATERMARK,
            "group {}: epoch size",
            gr.group
        );
    }

    let out = &report.groups[0].epochs[0].outcome;
    assert!(
        (out.revenue() - out.served_cost).abs() <= 1e-9 * (1.0 + out.served_cost),
        "group 0 epoch 0: revenue {} drifted from cost {}",
        out.revenue(),
        out.served_cost
    );
}
