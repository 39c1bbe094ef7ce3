//! Edge cases and moderate-scale smoke tests across the public API.

use multicast_cost_sharing::prelude::*;

#[test]
fn two_station_network_minimal_case() {
    // One source, one player: every mechanism must behave sanely.
    let pts = vec![Point::xy(0.0, 0.0), Point::xy(2.0, 0.0)];
    let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
    let u_rich = vec![100.0];
    let u_poor = vec![0.5];

    let sh = UniversalShapleyMechanism::new(
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Spt)
            .build_universal(),
    );
    let out = sh.run(&u_rich);
    assert_eq!(out.receivers, vec![0]);
    assert!((out.shares[0] - 4.0).abs() < 1e-9); // c = 2² = 4
    assert!(sh.run(&u_poor).receivers.is_empty());

    let jv = EuclideanSteinerMechanism::new(&net);
    let out = jv.run(&u_rich);
    assert_eq!(out.receivers, vec![0]);
    assert!((out.shares[0] - 4.0).abs() < 1e-9);

    let w = WirelessMulticastMechanism::new(&net);
    let out = w.run(&u_rich);
    assert_eq!(out.receivers, vec![0]);
    assert!(out.revenue() + 1e-9 >= out.served_cost);
}

#[test]
fn coincident_stations_cost_zero_between_them() {
    // Two stations at the same point: zero-cost edge; mechanisms must not
    // divide by zero or loop.
    let pts = vec![
        Point::xy(0.0, 0.0),
        Point::xy(1.0, 1.0),
        Point::xy(1.0, 1.0),
    ];
    let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
    let (opt, pa) = memt_exact(&net, &[1, 2]);
    assert!((opt - 2.0).abs() < 1e-9); // reach the pair once; twin rides free
    assert!(pa.multicasts_to(&net, &[1, 2]));
    let sh = UniversalShapleyMechanism::new(
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Mst)
            .build_universal(),
    );
    let out = sh.run(&[10.0, 10.0]);
    assert_eq!(out.receivers.len(), 2);
    assert!((out.revenue() - out.served_cost).abs() < 1e-9);
}

#[test]
fn zero_utilities_never_produce_negative_welfare() {
    let pts = vec![
        Point::xy(0.0, 0.0),
        Point::xy(1.0, 0.0),
        Point::xy(0.0, 1.0),
        Point::xy(1.0, 1.0),
    ];
    let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
    let u = vec![0.0; 3];
    for out in [
        UniversalShapleyMechanism::new(
            SubstrateBuilder::new(&net)
                .tree(TreeKind::Mst)
                .build_universal(),
        )
        .run(&u),
        EuclideanSteinerMechanism::new(&net).run(&u),
        WirelessMulticastMechanism::new(&net).run(&u),
    ] {
        for p in 0..3 {
            assert!(out.welfare(p, &u) >= -1e-9);
        }
    }
}

#[test]
fn moderate_scale_polynomial_mechanisms_run_fast() {
    // 120 stations: the polynomial mechanisms must finish comfortably
    // inside the test budget (the exponential references are not touched).
    let cfg = InstanceConfig {
        n: 120,
        dim: 2,
        kind: InstanceKind::UniformBox { side: 50.0 },
        seed: 404,
    };
    let net = WirelessNetwork::euclidean(cfg.generate(), PowerModel::free_space(), 0);
    let n = net.n_players();
    let u: Vec<f64> = (0..n).map(|p| (p % 17) as f64 * 40.0).collect();

    let sh = UniversalShapleyMechanism::new(
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Mst)
            .build_universal(),
    );
    let out = sh.run(&u);
    assert!((out.revenue() - out.served_cost).abs() < 1e-6 * out.served_cost.max(1.0));

    let jv = EuclideanSteinerMechanism::new(&net);
    let out = jv.run(&u);
    assert!(out.revenue() + 1e-6 >= out.served_cost);

    let mc = UniversalMcMechanism::new(
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Spt)
            .build_universal(),
    );
    let out = mc.run(&u);
    assert!(out.revenue() <= out.served_cost + 1e-6);
}

#[test]
fn line_mechanisms_handle_source_at_the_edge() {
    // Source leftmost: everything is a right chain.
    let pts: Vec<Point> = [0.0, 1.0, 2.5, 4.0]
        .iter()
        .map(|&x| Point::on_line(x))
        .collect();
    let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
    let solver = LineSolver::new(&net);
    let (cost, pa) = solver.solve(&[3]);
    let (opt, _) = memt_exact(&net, &[3]);
    assert!(cost >= opt - 1e-9);
    assert!(pa.multicasts_to(&net, &[3]));
    let m = LineMcMechanism::new(LineSolver::new(&net));
    let out = m.run(&[1.0, 1.0, 100.0]);
    assert!(out.is_receiver(2));
}

#[test]
fn nwst_mechanism_with_disconnected_low_reports_is_graceful() {
    // Heavy bridge: only one terminal can afford anything.
    let mut g = NodeWeightedGraph::new(vec![0.0, 50.0, 0.0]);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    let m = NwstCostSharingMechanism::new(g, vec![0, 2]);
    // Paper drop rule: both unaffordable terminals are evicted in the same
    // restart, so nobody is served.
    let out = m.run(&[1.0, 1.0]);
    assert!(out.receivers.is_empty());
    assert_eq!(out.revenue(), 0.0);
    // Tight variant evicts one at a time: the survivor is served for free.
    let tight = m.with_tight_budgets();
    let out = tight.run(&[1.0, 1.0]);
    assert_eq!(out.receivers.len(), 1);
    assert_eq!(out.revenue(), 0.0);
}

#[test]
fn pentagon_instance_rejects_nonpositive_scale() {
    let r = std::panic::catch_unwind(|| PentagonInstance::new(0.0));
    assert!(r.is_err());
}

#[test]
fn power_model_extreme_alpha_six() {
    // The paper says α ∈ [1, 6]; exercise the upper end.
    let pts = vec![
        Point::xy(0.0, 0.0),
        Point::xy(1.5, 0.0),
        Point::xy(3.0, 0.0),
    ];
    let net = WirelessNetwork::euclidean(pts, PowerModel::with_alpha(6.0), 0);
    let (opt, pa) = memt_exact(&net, &[2]);
    // Relaying is hugely favoured at α = 6: two hops of 1.5⁶ each.
    assert!((opt - 2.0 * 1.5f64.powi(6)).abs() < 1e-6);
    assert!(pa.multicasts_to(&net, &[2]));
}

#[test]
fn a_nan_bid_is_never_served_and_prices_like_a_negative_bid() {
    // Every comparison with NaN is false, so a drop test written as
    // `bid < share − EPS` alone would serve and charge a NaN bidder. The
    // Moulin–Shenker mechanisms share one driver, which drops it in the
    // first round, exactly as it drops a bid of −1.0.
    let bits = |out: &MechanismOutcome| {
        let shares: Vec<u64> = out.shares.iter().map(|s| s.to_bits()).collect();
        (out.receivers.clone(), shares, out.served_cost.to_bits())
    };
    for seed in 0..20u64 {
        let cfg = InstanceConfig {
            n: 9,
            dim: 2,
            kind: InstanceKind::UniformBox { side: 10.0 },
            seed,
        };
        let pts = cfg.generate();
        let plane = WirelessNetwork::euclidean(pts.clone(), PowerModel::free_space(), 0);
        let linear = WirelessNetwork::euclidean(pts.clone(), PowerModel::linear(), 0);
        let line_pts = pts.iter().map(|p| Point::on_line(p.coord(0))).collect();
        let line = WirelessNetwork::euclidean(line_pts, PowerModel::free_space(), 0);
        let mechanisms: Vec<(&str, &WirelessNetwork, Box<dyn Mechanism>)> = vec![
            (
                "alpha-one Shapley",
                &linear,
                Box::new(AlphaOneShapleyMechanism::new(AlphaOneSolver::new(&linear))),
            ),
            (
                "JV Steiner",
                &plane,
                Box::new(EuclideanSteinerMechanism::new(&plane)),
            ),
            (
                "line Shapley",
                &line,
                Box::new(LineShapleyMechanism::new(LineSolver::new(&line))),
            ),
            (
                "universal-tree Shapley",
                &plane,
                Box::new(UniversalShapleyMechanism::new(
                    SubstrateBuilder::new(&plane)
                        .tree(TreeKind::Spt)
                        .build_universal(),
                )),
            ),
        ];
        for (name, net, m) in &mechanisms {
            // Bids of 0.6×, 1.2× and 3× each player's stand-alone cost, so
            // that some players are served and some dropped.
            let u: Vec<f64> = (0..net.n_players())
                .map(|p| {
                    let alone = net.cost(net.source(), net.station_of_player(p));
                    alone * [0.6, 1.2, 3.0][p % 3]
                })
                .collect();
            for p in 0..net.n_players() {
                let mut nan = u.clone();
                nan[p] = f64::NAN;
                let mut negative = u.clone();
                negative[p] = -1.0;
                let out = m.run(&nan);
                assert!(
                    !out.is_receiver(p),
                    "{name}, seed {seed}: the NaN bidder {p} is served"
                );
                assert_eq!(
                    bits(&out),
                    bits(&m.run(&negative)),
                    "{name}, seed {seed}: a NaN bid by player {p} prices unlike −1.0"
                );
            }
        }
    }
}
