//! Frame-local ("sparse") service ≡ universe-indexed ("dense")
//! references, randomised: a [`MulticastService`], whose groups are warm
//! sessions framed over their members' path closures on one shared
//! substrate, prices every group after every batch byte-identically to
//! references indexed by the whole universe and fed an independent model
//! of the event semantics — `reference_drop_run_from`, the drop loop over
//! `UniversalTree::shapley_shares`, for Shapley groups, and for MC groups
//! the plain DP's largest efficient set and multicast cost, charged the
//! VCG shares of an oracle framed over every station.

use proptest::prelude::*;
use wmcs_game::MechanismOutcome;
use wmcs_geom::{ChurnEvent, LayoutFamily, MultiGroupProcess, Scenario};
use wmcs_wireless::{
    reference_drop_run_from, GroupMechanism, MulticastService, NetWorth, SubstrateBuilder,
    TreeKind, UniversalTree, WirelessNetwork,
};

/// The network of a scenario draw (station 0 as source).
fn scenario_net(family: LayoutFamily, n: usize, alpha: f64, seed: u64) -> WirelessNetwork {
    let sc = Scenario::new(family, n, 2, alpha);
    WirelessNetwork::euclidean(sc.points(seed), sc.power_model(), 0)
}

/// Receivers, every share bit and the served cost.
fn outcome_bits(o: &MechanismOutcome) -> (Vec<usize>, Vec<u64>, u64) {
    let shares = o.shares.iter().map(|x| x.to_bits()).collect();
    (o.receivers.clone(), shares, o.served_cost.to_bits())
}

/// The event semantics, modelled apart from the service: each player's
/// live bid (`None` = absent) after `batch`.
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

/// The MC reference on station utilities `u`: the plain DP's largest
/// efficient set and its multicast cost, charged the VCG shares of an
/// oracle whose frame is the whole universe.
fn dense_vcg(ut: &UniversalTree, u: &[f64]) -> MechanismOutcome {
    let net = ut.network();
    let (set, _) = ut.largest_efficient_set(u);
    let mut oracle = NetWorth::from_utilities(ut, u);
    assert_eq!(oracle.frame_len(), net.n_stations());
    MechanismOutcome {
        receivers: set
            .iter()
            .filter_map(|&x| net.player_of_station(x))
            .collect(),
        shares: oracle.vcg_outcome().shares,
        served_cost: ut.multicast_cost(&set),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// G overlapping groups, alternating mechanisms, a full service on
    /// the default worker count: every group's outcome after every batch
    /// is the universe-indexed reference's on the modelled bids (Shapley
    /// evictions leave the model as they leave the session).
    #[test]
    fn sparse_service_matches_dense_service(
        seed in 0u64..10_000,
        family_ix in 0usize..5,
        n in 12usize..26,
        g in 2usize..6,
    ) {
        let family = LayoutFamily::ALL[family_ix];
        let net = scenario_net(family, n, 2.0, seed);
        let ut = SubstrateBuilder::new(&net).tree(TreeKind::Spt).build_universal();
        let broadcast = ut.multicast_cost(&ut.network().non_source_stations());
        let hi = (2.0 * broadcast / (n - 1) as f64).max(1e-9);
        let trace = MultiGroupProcess::new(n - 1, g, 4, hi, seed ^ 0x15e).generate();

        let mut svc = MulticastService::new(&ut).with_threads(0);
        for i in 0..g {
            svc.add_group(GroupMechanism::alternating(i));
        }
        let mut models: Vec<Vec<Option<f64>>> = vec![vec![None; n - 1]; g];

        for b in 0..trace.n_batches() {
            let batches: Vec<Vec<_>> = trace
                .groups
                .iter()
                .map(|gr| gr.trace.batches[b].clone())
                .collect();
            let outs = svc.step_all(&batches);
            for (i, out) in outs.iter().enumerate() {
                let model = &mut models[i];
                apply_model(model, &batches[i]);
                let bids: Vec<f64> = model.iter().map(|bid| bid.unwrap_or(0.0)).collect();
                let want = match GroupMechanism::alternating(i) {
                    GroupMechanism::Shapley => {
                        let members: Vec<usize> =
                            (0..n - 1).filter(|&p| model[p].is_some()).collect();
                        let want = reference_drop_run_from(&ut, &bids, &members);
                        for &p in &members {
                            if !want.is_receiver(p) {
                                model[p] = None;
                            }
                        }
                        want
                    }
                    GroupMechanism::MarginalCost => {
                        let mut u = vec![0.0; net.n_stations()];
                        for (p, &bid) in bids.iter().enumerate() {
                            u[net.station_of_player(p)] = bid;
                        }
                        dense_vcg(&ut, &u)
                    }
                };
                prop_assert_eq!(
                    outcome_bits(&out.outcome), outcome_bits(&want),
                    "{} n={} seed={}: group {} batch {}", family.name(), n, seed, i, b
                );
            }
        }
        prop_assert!(svc.memory_bytes() > 0);
    }
}
