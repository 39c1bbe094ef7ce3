//! Property suite for the live-session engines: on every registered
//! layout family, a warm [`ShapleySession`] / [`McSession`] driven by a
//! random churn trace is **byte-identical** to a cold rebuild on the
//! current receiver set after *every single event* and after every
//! multi-event batch (with its reported profile checked against a model
//! of the event semantics), and the Shapley session stays exactly budget
//! balanced after every batch at n = 1024.

use proptest::prelude::*;
use wmcs_game::MechanismOutcome;
use wmcs_geom::{ChurnEvent, ChurnProcess, LayoutFamily, Scenario};
use wmcs_wireless::incremental::shapley_drop_run_from;
use wmcs_wireless::session::{McSession, ShapleySession};
use wmcs_wireless::{NetWorth, SubstrateBuilder, TreeKind, UniversalTree, WirelessNetwork};

/// Universal tree of a scenario draw; alternates between both tree
/// constructions so the sessions are pinned on SPT and MST shapes alike.
fn scenario_tree(family: LayoutFamily, n: usize, alpha: f64, seed: u64) -> UniversalTree {
    let sc = Scenario::new(family, n, 2, alpha);
    let net = WirelessNetwork::euclidean(sc.points(seed), sc.power_model(), 0);
    if seed.is_multiple_of(2) {
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Spt)
            .build_universal()
    } else {
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Mst)
            .build_universal()
    }
}

/// Bid ceiling scaled to the per-player broadcast cost, so traces mix
/// served receivers with genuine drop cascades.
fn bid_ceiling(ut: &UniversalTree, scale: f64) -> f64 {
    let n = ut.network().n_players();
    let total = ut.multicast_cost(&ut.network().non_source_stations());
    (scale * total / n as f64).max(1e-6)
}

/// The event semantics, modelled independently of the sessions: each
/// player's live bid (`None` = absent) after `batch`.
fn apply_model(model: &mut [Option<f64>], batch: &[ChurnEvent]) {
    for ev in batch {
        match *ev {
            ChurnEvent::Join { player, utility } => model[player] = Some(utility),
            ChurnEvent::Leave { player } => model[player] = None,
            ChurnEvent::Rebid { player, utility } => {
                if let Some(bid) = &mut model[player] {
                    *bid = utility;
                }
            }
        }
    }
}

/// Receivers, every share bit and the served cost.
fn outcome_bits(o: &MechanismOutcome) -> (Vec<usize>, Vec<u64>, u64) {
    let shares = o.shares.iter().map(|x| x.to_bits()).collect();
    (o.receivers.clone(), shares, o.served_cost.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The tentpole identity: per event (batches of one), the warm
    /// Shapley session's allocation equals a cold engine rebuilt from
    /// scratch on the session's current receiver set — receivers, shares
    /// and served cost, byte for byte — on every layout family.
    #[test]
    fn warm_shapley_session_equals_cold_start_after_every_event(
        fam_idx in 0usize..5,
        n in 3usize..=48,
        alpha_idx in 0usize..2,
        seed in 0u64..10_000,
        scale in 0.5f64..4.0,
    ) {
        let family = LayoutFamily::ALL[fam_idx];
        let alpha = [2.0f64, 4.0][alpha_idx];
        let ut = scenario_tree(family, n, alpha, seed);
        let hi = bid_ceiling(&ut, scale);
        let trace = ChurnProcess {
            n_players: ut.network().n_players(),
            batches: 24,
            events_per_batch: 1, // per *event*, not per batch
            warmup: ut.network().n_players() / 2,
            join_bias: 0.5,
            utility_hi: hi,
            seed: seed ^ 0x11fe,
        }
        .generate();

        let mut session = ShapleySession::new(&ut);
        for batch in &trace.batches {
            session.apply_events(batch);
            let players = session.active_players();
            let bids = session.reported_profile();
            let warm = session.reprice();
            let cold = shapley_drop_run_from(&ut, &bids, &players);
            prop_assert_eq!(&warm.receivers, &cold.receivers,
                "{} n={} seed={}", family.name(), n, seed);
            prop_assert_eq!(&warm.shares, &cold.shares,
                "{} n={} seed={}", family.name(), n, seed);
            prop_assert_eq!(warm.served_cost, cold.served_cost,
                "{} n={} seed={}", family.name(), n, seed);
            prop_assert_eq!(session.active_players(), warm.receivers);
        }
    }

    /// The MC analogue: after every event the warm oracle's VCG outcome
    /// equals a freshly built oracle's on the same bid vector.
    #[test]
    fn warm_mc_session_equals_fresh_oracle_after_every_event(
        fam_idx in 0usize..5,
        n in 3usize..=40,
        seed in 0u64..10_000,
        scale in 0.5f64..4.0,
    ) {
        let family = LayoutFamily::ALL[fam_idx];
        let ut = scenario_tree(family, n, 2.0, seed);
        let hi = bid_ceiling(&ut, scale);
        let trace = ChurnProcess {
            n_players: ut.network().n_players(),
            batches: 20,
            events_per_batch: 1,
            warmup: ut.network().n_players() / 2,
            join_bias: 0.5,
            utility_hi: hi,
            seed: seed ^ 0x3c3c,
        }
        .generate();

        let mut session = McSession::new(&ut);
        for batch in &trace.batches {
            let warm = session.apply_batch(batch);
            let cold = NetWorth::from_utilities(&ut, &session.station_utilities()).vcg_outcome();
            prop_assert_eq!(&warm.receivers, &cold.receivers,
                "{} n={} seed={}", family.name(), n, seed);
            prop_assert_eq!(&warm.shares, &cold.shares,
                "{} n={} seed={}", family.name(), n, seed);
            prop_assert_eq!(warm.served_cost, cold.served_cost,
                "{} n={} seed={}", family.name(), n, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Multi-event batches, every family × both tree kinds × both α ×
    /// both mechanisms: after each batch of a churn trace — joins,
    /// leaves, rebids, and joins after the half-universe warm-up that
    /// splice new path suffixes into the frame — the session's reported
    /// profile and members equal a model of the event semantics, and its
    /// outcome equals the cold reference fed that model, bit for bit: a
    /// fresh engine on the members (`shapley_drop_run_from`) for Shapley,
    /// a fresh oracle on the utilities for MC.
    #[test]
    fn warm_sessions_equal_cold_references_under_multi_event_churn(
        seed in 0u64..10_000,
        family_ix in 0usize..5,
        n in 10usize..30,
        alpha_ix in 0usize..2,
        tree_ix in 0usize..2,
        mech_ix in 0usize..2,
    ) {
        let family = LayoutFamily::ALL[family_ix];
        let sc = Scenario::new(family, n, 2, [2.0, 4.0][alpha_ix]);
        let net = WirelessNetwork::euclidean(sc.points(seed), sc.power_model(), 0);
        let ut = SubstrateBuilder::new(&net)
            .tree([TreeKind::Spt, TreeKind::Mst][tree_ix])
            .build_universal();
        let trace = ChurnProcess::new(n - 1, 6, 5, bid_ceiling(&ut, 2.0), seed ^ 0x5a12).generate();
        let mut model: Vec<Option<f64>> = vec![None; n - 1];
        let mut shapley = ShapleySession::new(&ut);
        let mut mc = McSession::new(&ut);
        for (b, batch) in trace.batches.iter().enumerate() {
            apply_model(&mut model, batch);
            let profile: Vec<f64> = model.iter().map(|bid| bid.unwrap_or(0.0)).collect();
            let members: Vec<usize> = (0..n - 1).filter(|&p| model[p].is_some()).collect();
            let (warm, cold) = if mech_ix == 0 {
                shapley.apply_events(batch);
                prop_assert_eq!(shapley.active_players(), members.clone(), "batch {}", b);
                prop_assert_eq!(shapley.reported_profile(), profile.clone(), "batch {}", b);
                let warm = shapley.reprice();
                // Evictions leave the session: the model follows.
                for &p in &members {
                    if !warm.is_receiver(p) {
                        model[p] = None;
                    }
                }
                (warm, shapley_drop_run_from(&ut, &profile, &members))
            } else {
                let warm = mc.apply_batch(batch);
                prop_assert_eq!(mc.active_players(), members.clone(), "batch {}", b);
                prop_assert_eq!(mc.reported_profile(), profile.clone(), "batch {}", b);
                let mut u = vec![0.0; net.n_stations()];
                for (p, &bid) in profile.iter().enumerate() {
                    u[net.station_of_player(p)] = bid;
                }
                (warm, NetWorth::from_utilities(&ut, &u).vcg_outcome())
            };
            prop_assert_eq!(outcome_bits(&warm), outcome_bits(&cold),
                "{} n={} seed={} batch {}", family.name(), n, seed, b);
        }
    }
}

/// Budget balance at scale: at n = 1024 on a fixed seed per family, the
/// warm session's charged shares sum to the multicast cost of the served
/// subtree after **every** churn batch, and every survivor affords its
/// share (VP). The trace must actually exercise joins, leaves and
/// evictions.
#[test]
fn session_budget_balance_holds_after_every_batch_at_n_1024() {
    for family in LayoutFamily::ALL {
        let ut = scenario_tree(family, 1024, 2.0, 7);
        let hi = bid_ceiling(&ut, 2.0);
        let sc = Scenario::new(family, 1024, 2, 2.0);
        let trace = ChurnProcess::heavy(&sc, 10, hi, 7 ^ 0xbb).generate();

        let mut session = ShapleySession::new(&ut);
        let mut evicted_any = false;
        for batch in &trace.batches {
            session.apply_events(batch);
            let before = session.active_players().len();
            let out = session.reprice();
            evicted_any |= out.receivers.len() < before;
            let stations: Vec<usize> = out
                .receivers
                .iter()
                .map(|&p| ut.network().station_of_player(p))
                .collect();
            let cost = ut.multicast_cost(&stations);
            assert!(
                (out.revenue() - cost).abs() <= 1e-9 * (1.0 + cost.abs()),
                "{}: revenue {} != multicast cost {cost}",
                family.name(),
                out.revenue()
            );
            assert_eq!(out.served_cost, cost, "{}", family.name());
            let bids = session.reported_profile();
            for &p in &out.receivers {
                assert!(
                    out.shares[p] <= bids[p] + 1e-9,
                    "{}: VP violated for player {p}",
                    family.name()
                );
            }
        }
        assert!(
            session.n_events() > 600,
            "{}: heavy trace should carry >600 events",
            family.name()
        );
        assert!(
            evicted_any,
            "{}: trace never exercised an eviction",
            family.name()
        );
    }
}
