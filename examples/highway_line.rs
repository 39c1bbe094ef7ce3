//! Highway scenario (d = 1, Lemma 3.1 / Theorem 3.2): stations strung
//! along a road receive a traffic-alert multicast from a roadside unit.
//! On a line the chain-form optimal cost function is submodular, so the
//! Shapley mechanism is exactly budget balanced and group strategyproof,
//! and the MC mechanism maximises welfare.
//!
//! ```text
//! cargo run --example highway_line
//! ```

use multicast_cost_sharing::prelude::*;

pub fn main() {
    // Mile markers along the highway; the roadside unit sits at km 6.
    let positions = [0.0, 1.5, 3.0, 4.2, 6.0, 7.1, 9.0, 12.0];
    let source = 4; // km 6.0
    let pts: Vec<Point> = positions.iter().map(|&x| Point::on_line(x)).collect();
    let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), source);
    let solver = LineSolver::new(&net);
    let n = net.n_players();

    // Drivers' willingness to pay (power budget they'd burn to relay).
    let utilities = vec![3.0, 8.0, 2.0, 10.0, 9.0, 1.0, 14.0];

    println!("== highway alert multicast (d = 1, α = 2) ==");
    println!(
        "stations at km {positions:?}, source at km {}",
        positions[source]
    );

    // Exact chain-form costs for a few receiver sets.
    for set in [vec![0usize], vec![7], vec![0, 7]] {
        let (cost, _) = solver.solve(&set);
        println!("  chain-form optimum to stations {set:?}: {cost:.2}");
    }

    // 1-BB Shapley mechanism (group strategyproof).
    let shapley = LineShapleyMechanism::new(LineSolver::new(&net));
    let out = shapley.run(&utilities);
    println!("\nShapley mechanism (1-BB w.r.t. chain-form cost):");
    println!(
        "  receivers {:?}  revenue {:.2}  cost {:.2}",
        out.receivers,
        out.revenue(),
        out.served_cost
    );
    assert!((out.revenue() - out.served_cost).abs() < 1e-9);

    // Efficient MC mechanism.
    let mc = LineMcMechanism::new(LineSolver::new(&net));
    let eff = mc.run(&utilities);
    let welfare: f64 = eff
        .receivers
        .iter()
        .map(|&p| utilities[p] - eff.shares[p])
        .sum();
    println!("\nMC mechanism (efficient):");
    println!(
        "  receivers {:?}  revenue {:.2} ≤ cost {:.2} (deficit is the price of efficiency)",
        eff.receivers,
        eff.revenue(),
        eff.served_cost
    );
    println!("  total receiver welfare {:.2}", welfare);
    assert!(
        eff.revenue() <= eff.served_cost + 1e-9,
        "MC never runs a surplus"
    );

    // Reproduction finding (DESIGN.md §3a): the chain form is an upper
    // bound; compare with the true optimum from exact MEMT.
    let all: Vec<usize> = (0..net.n_stations()).filter(|&x| x != source).collect();
    let (chain, _) = solver.solve(&all);
    let (exact, _) = memt_exact(&net, &all);
    println!(
        "\nchain-form vs true optimum for broadcasting: {:.3} vs {:.3} (gap {:.2}%)",
        chain,
        exact,
        100.0 * (chain / exact - 1.0)
    );
    assert!(n == utilities.len());
}
