//! Quickstart: run the paper's headline mechanisms on one small network
//! and assert the budget guarantee each one claims.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use multicast_cost_sharing::prelude::*;

pub fn main() {
    // A 7-station network in the unit-disk style: source in the centre.
    let pts = vec![
        Point::xy(5.0, 5.0), // source
        Point::xy(2.0, 4.0),
        Point::xy(8.0, 6.5),
        Point::xy(4.5, 8.0),
        Point::xy(6.0, 1.5),
        Point::xy(9.0, 2.0),
        Point::xy(1.0, 8.5),
    ];
    let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
    // Players are stations 1..=6; their true utilities:
    let utilities = vec![24.0, 40.0, 12.0, 2.0, 30.0, 18.0];

    println!("== Sharing the cost of multicast transmissions in wireless networks ==");
    println!("   (Bilò, Flammini, Melideo, Moscardelli, Navarra — SPAA'04 / TCS'06)\n");

    // --- Mechanism 1: universal-tree Shapley (§2.1) — budget balanced,
    //     group strategyproof.
    let shapley = UniversalShapleyMechanism::new(
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Spt)
            .build_universal(),
    );
    let out = shapley.run(&utilities);
    println!("Universal-tree Shapley (BB, group-SP):");
    report(&out, &utilities);
    assert!(
        (out.revenue() - out.served_cost).abs() < 1e-9,
        "Shapley is 1-BB"
    );

    // --- Mechanism 2: universal-tree marginal cost (§2.1) — efficient.
    let mc = UniversalMcMechanism::new(
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Spt)
            .build_universal(),
    );
    let out = mc.run(&utilities);
    println!("Universal-tree marginal cost (efficient, SP):");
    report(&out, &utilities);
    assert!(
        out.revenue() <= out.served_cost + 1e-9,
        "MC never runs a surplus"
    );

    // --- Mechanism 3: the 12-BB group-strategyproof Steiner mechanism
    //     (Theorem 3.7, d = 2).
    let steiner = EuclideanSteinerMechanism::new(&net);
    let out = steiner.run(&utilities);
    println!("Jain–Vazirani Steiner mechanism (12-BB, group-SP):");
    report(&out, &utilities);
    assert!(
        out.revenue() >= out.served_cost - 1e-9,
        "Steiner covers served cost"
    );

    // --- Mechanism 4: the 3 ln(k+1)-BB mechanism for general symmetric
    //     networks (§2.2.3).
    let wireless = WirelessMulticastMechanism::new(&net);
    let out = wireless.run(&utilities);
    println!("NWST-reduction wireless mechanism (3 ln(k+1)-BB, SP):");
    report(&out, &utilities);
    assert!(
        out.revenue() >= out.served_cost - 1e-9,
        "wireless covers served cost"
    );

    // Reference: the exact minimum-energy multicast to the stations the
    // wireless mechanism served. A subset's optimum can be below the
    // full set's, so only the served set bounds its cost from below.
    let served: Vec<usize> = out
        .receivers
        .iter()
        .map(|&p| net.station_of_player(p))
        .collect();
    let (opt, _) = memt_exact(&net, &served);
    println!("exact MEMT cost for the served stations {served:?}: {opt:.3}");
    assert!(
        out.served_cost >= opt - 1e-9,
        "no mechanism beats the optimum"
    );
}

fn report(out: &MechanismOutcome, utilities: &[f64]) {
    print!("  receivers: {:?} | shares:", out.receivers);
    for &p in &out.receivers {
        print!(" {p}→{:.3}", out.shares[p]);
    }
    println!();
    println!(
        "  revenue {:.3}  served cost {:.3}  total welfare {:.3}\n",
        out.revenue(),
        out.served_cost,
        out.receivers
            .iter()
            .map(|&p| utilities[p] - out.shares[p])
            .sum::<f64>()
    );
}
