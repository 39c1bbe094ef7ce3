//! Cross-group isolation property suite for the multi-group service
//! layer (the T12 contract, randomised): serving G overlapping groups
//! through one [`MulticastService`] on a **shared** substrate yields,
//! per group, byte-identical cost shares to an independent single-group
//! session over its **own** freshly built substrate — for all five
//! layout families and both mechanisms, after every batch — plus the
//! player-id and bid checks a step makes before any group absorbs its
//! batch, and the footprint gate on every outcome either door serves.

use proptest::prelude::*;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use wmcs_game::MechanismOutcome;
use wmcs_geom::{ChurnEvent, LayoutFamily, MultiGroupProcess, Scenario};
use wmcs_wireless::{
    GroupMechanism, GroupSession, MulticastService, StreamConfig, StreamService, SubstrateBuilder,
    TreeKind, WirelessNetwork,
};

/// The network of a scenario draw (station 0 as source; the harness's
/// line special-casing is irrelevant to the isolation property).
fn scenario_net(family: LayoutFamily, n: usize, alpha: f64, seed: u64) -> WirelessNetwork {
    let sc = Scenario::new(family, n, 2, alpha);
    WirelessNetwork::euclidean(sc.points(seed), sc.power_model(), 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// G overlapping groups, alternating mechanisms, random layout
    /// family and seed, a full service on the default worker count: the
    /// shared-substrate service is byte-identical, per group and per
    /// batch, to isolated own-substrate sessions, and its warm bytes are
    /// theirs.
    #[test]
    fn service_groups_match_isolated_single_group_sessions(
        seed in 0u64..10_000,
        family_ix in 0usize..5,
        n in 10usize..28,
        g in 2usize..7,
        alpha_ix in 0usize..2,
        tree_ix in 0usize..2,
    ) {
        let family = LayoutFamily::ALL[family_ix];
        let alpha = [2.0, 4.0][alpha_ix];
        let net = scenario_net(family, n, alpha, seed);
        let tree_mst = tree_ix == 1;
        let shared = if tree_mst {
            SubstrateBuilder::new(&net).tree(TreeKind::Mst).build_universal()
        } else {
            SubstrateBuilder::new(&net).tree(TreeKind::Spt).build_universal()
        };
        let broadcast = shared.multicast_cost(&shared.network().non_source_stations());
        let hi = (2.0 * broadcast / (n - 1) as f64).max(1e-9);
        let trace = MultiGroupProcess::new(n - 1, g, 4, hi, seed ^ 0xab5).generate();

        let mut svc = MulticastService::new(&shared).with_threads(0);
        let mut isolated: Vec<GroupSession> = (0..g)
            .map(|i| {
                let mech = GroupMechanism::alternating(i);
                svc.add_group(mech);
                // The reference's substrate is built separately from the
                // same network — its OWN allocation.
                let own = if tree_mst {
                    SubstrateBuilder::new(&net).tree(TreeKind::Mst).build_universal()
                } else {
                    SubstrateBuilder::new(&net).tree(TreeKind::Spt).build_universal()
                };
                GroupSession::new(mech, &own)
            })
            .collect();

        for b in 0..trace.n_batches() {
            let batches: Vec<Vec<_>> = trace
                .groups
                .iter()
                .map(|gr| gr.trace.batches[b].clone())
                .collect();
            let outs = svc.step_all(&batches);
            for (i, out) in outs.iter().enumerate() {
                let expect = isolated[i].apply_batch(&batches[i]);
                prop_assert_eq!(
                    &out.outcome.receivers, &expect.receivers,
                    "receivers drift: group {} batch {}", i, b
                );
                prop_assert_eq!(
                    &out.outcome.shares, &expect.shares,
                    "share drift: group {} batch {}", i, b
                );
                prop_assert_eq!(
                    out.outcome.served_cost, expect.served_cost,
                    "cost drift: group {} batch {}", i, b
                );
            }
        }
        // Sharing the substrate adds no per-group state: the service's
        // warm bytes are exactly its groups' isolated footprints.
        let isolated_bytes: usize = isolated.iter().map(GroupSession::memory_bytes).sum();
        prop_assert_eq!(svc.memory_bytes(), isolated_bytes);
        prop_assert!(isolated_bytes > 0);
    }
}

/// A step that names a player outside the universe is refused before
/// any group absorbs anything, with the id and the player count in the
/// message, on one worker or several. No group mutex is poisoned and no
/// batch half-applied: the next step equals a fresh service's.
#[test]
fn an_unknown_player_id_is_refused_before_any_group_absorbs_its_batch() {
    let net = scenario_net(LayoutFamily::UniformBox, 8, 2.0, 5);
    let ut = SubstrateBuilder::new(&net)
        .tree(TreeKind::Spt)
        .build_universal();
    let join = |player| ChurnEvent::Join {
        player,
        utility: 1e6,
    };
    let service = |threads| {
        let mut svc = MulticastService::new(&ut).with_threads(threads);
        svc.add_group(GroupMechanism::Shapley);
        svc.add_group(GroupMechanism::MarginalCost);
        svc
    };
    for threads in [1usize, 4] {
        let mut svc = service(threads);
        let refused = catch_unwind(AssertUnwindSafe(|| {
            svc.step(&[(0, &[join(1)][..]), (1, &[join(100)][..])]);
        }));
        let message = panic_text(refused.expect_err("a step naming player 100 must panic"));
        assert_eq!(
            message, "unknown player id 100: the universe has 7 players",
            "{threads} thread(s)"
        );
        let next = [join(2), join(3)];
        let batch = [(0, &next[..]), (1, &next[..])];
        assert_eq!(
            svc.step(&batch),
            service(1).step(&batch),
            "{threads} thread(s): the refused step left state behind"
        );
    }
}

/// The message of a caught panic.
fn panic_text(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// A step carrying a NaN or infinite `Join` or `Rebid` bid is refused
/// before any group absorbs anything, with the player and the bid in
/// the message, on one worker or several; the next step equals a fresh
/// service's. Admitted, one `+∞` bid made a marginal-cost group free:
/// every externality became `∞ − ∞ = NaN`, which the VCG clamp charges
/// as 0.
#[test]
fn a_non_finite_bid_is_refused_before_any_group_absorbs_its_batch() {
    let net = scenario_net(LayoutFamily::UniformBox, 8, 2.0, 5);
    let ut = SubstrateBuilder::new(&net)
        .tree(TreeKind::Spt)
        .build_universal();
    let join = |player, utility| ChurnEvent::Join { player, utility };
    let service = |threads| {
        let mut svc = MulticastService::new(&ut).with_threads(threads);
        svc.add_group(GroupMechanism::Shapley);
        svc.add_group(GroupMechanism::MarginalCost);
        svc
    };
    for bid in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let rebid = ChurnEvent::Rebid {
            player: 3,
            utility: bid,
        };
        for bad in [join(3, bid), rebid] {
            for threads in [1usize, 4] {
                let mut svc = service(threads);
                let first = [join(1, 1e6)];
                let second = [join(2, 1e6), bad];
                let refused = catch_unwind(AssertUnwindSafe(|| {
                    svc.step(&[(0, &first[..]), (1, &second[..])]);
                }));
                let message =
                    panic_text(refused.expect_err("a step carrying a non-finite bid must panic"));
                assert_eq!(
                    message,
                    format!("player 3 bid {bid}: a bid must be finite"),
                    "{bad:?}, {threads} thread(s)"
                );
                let next = [join(2, 1e6), join(3, 1e6)];
                let batch = [(0, &next[..]), (1, &next[..])];
                assert_eq!(
                    svc.step(&batch),
                    service(1).step(&batch),
                    "{bad:?}, {threads} thread(s): the refused step left state behind"
                );
            }
        }
    }
}

/// A step carrying a negative `Join` or `Rebid` bid is refused the same
/// way — before any group absorbs anything, with the player and the bid
/// in the message, on one worker or several — and the next step equals a
/// fresh service's. Admitted, a negative bid was silently never served.
#[test]
fn a_negative_bid_is_refused_before_any_group_absorbs_its_batch() {
    let net = scenario_net(LayoutFamily::UniformBox, 8, 2.0, 5);
    let ut = SubstrateBuilder::new(&net)
        .tree(TreeKind::Spt)
        .build_universal();
    let join = |player, utility| ChurnEvent::Join { player, utility };
    let service = |threads| {
        let mut svc = MulticastService::new(&ut).with_threads(threads);
        svc.add_group(GroupMechanism::Shapley);
        svc.add_group(GroupMechanism::MarginalCost);
        svc
    };
    let rebid = ChurnEvent::Rebid {
        player: 3,
        utility: -1.0,
    };
    for bad in [join(3, -1.0), rebid] {
        for threads in [1usize, 4] {
            let mut svc = service(threads);
            let first = [join(1, 1e6)];
            let second = [join(2, 1e6), bad];
            let refused = catch_unwind(AssertUnwindSafe(|| {
                svc.step(&[(0, &first[..]), (1, &second[..])]);
            }));
            let message =
                panic_text(refused.expect_err("a step carrying a negative bid must panic"));
            assert_eq!(
                message, "player 3 bid -1: a bid must not be negative",
                "{bad:?}, {threads} thread(s)"
            );
            let next = [join(2, 1e6), join(3, 1e6)];
            let batch = [(0, &next[..]), (1, &next[..])];
            assert_eq!(
                svc.step(&batch),
                service(1).step(&batch),
                "{bad:?}, {threads} thread(s): the refused step left state behind"
            );
        }
    }
}

/// No served outcome holds a buffer sized by the universe: the drop-loop
/// driver stores one share entry per receiver and the VCG pass one per
/// bidding receiver, so `shares.capacity() <= receivers.len()` on every
/// outcome of both doors, for both mechanisms, at every worker count.
#[test]
fn served_outcomes_store_no_buffer_sized_by_n() {
    const N: usize = 2_000;
    const GROUPS: usize = 4;
    const MEMBERS: usize = 16;
    let sc = Scenario::new(LayoutFamily::UniformBox, N, 2, 2.0);
    let net = WirelessNetwork::euclidean_lazy(sc.points(41), sc.power_model(), 0);
    let ut = SubstrateBuilder::from_owned(net)
        .tree(TreeKind::Spt)
        .build_universal();
    let n_players = N - 1;
    // Overlapping member sets; every third member bids too little to be
    // served alone, so Shapley groups evict some and MC groups leave some
    // members unselected.
    let member = |g: usize, k: usize| (g * 97 + k * 113) % n_players;
    let bid = |k: usize| if k.is_multiple_of(3) { 1e-3 } else { 1e9 };
    let joins: Vec<Vec<ChurnEvent>> = (0..GROUPS)
        .map(|g| {
            (0..MEMBERS)
                .map(|k| ChurnEvent::Join {
                    player: member(g, k),
                    utility: bid(k),
                })
                .collect()
        })
        .collect();
    let churn: Vec<Vec<ChurnEvent>> = (0..GROUPS)
        .map(|g| {
            (0..MEMBERS)
                .step_by(2)
                .map(|k| match k % 4 {
                    0 => ChurnEvent::Leave {
                        player: member(g, k),
                    },
                    _ => ChurnEvent::Rebid {
                        player: member(g, k),
                        utility: 1e8,
                    },
                })
                .collect()
        })
        .collect();
    let mechanism = |g: usize| GroupMechanism::alternating(g);
    let check = |door: &str, out: &MechanismOutcome| {
        assert_eq!(out.shares.len(), n_players, "{door}");
        assert!(!out.receivers.is_empty(), "{door}: a group serves nobody");
        assert!(
            out.shares.capacity() <= out.receivers.len(),
            "{door}: {} share entries for {} receivers",
            out.shares.capacity(),
            out.receivers.len()
        );
    };

    for threads in [1usize, 4] {
        let mut svc = MulticastService::new(&ut).with_threads(threads);
        for g in 0..GROUPS {
            svc.add_group(mechanism(g));
        }
        for batches in [&joins, &churn] {
            for out in svc.step_all(batches) {
                check(&format!("step, {threads} thread(s)"), &out.outcome);
            }
        }
    }
    for workers in [1usize, 2] {
        let mut svc = StreamService::new(&ut, StreamConfig::new(4, 8, workers));
        for g in 0..GROUPS {
            svc.add_group(mechanism(g));
        }
        let ((), report) = svc.drive(|h| {
            for batches in [&joins, &churn] {
                for (g, events) in batches.iter().enumerate() {
                    for &event in events {
                        h.submit_blocking(g, event);
                    }
                }
            }
        });
        assert!(report.n_epochs() > 0);
        for epoch in report.groups.iter().flat_map(|gr| &gr.epochs) {
            check(&format!("drive, {workers} worker(s)"), &epoch.outcome);
        }
    }
}
