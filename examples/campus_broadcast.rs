//! Campus-broadcast scenario (§2.1): a university pre-installs a
//! *universal tree* over its relay masts and prices every multicast with
//! the Shapley mechanism — budget balanced and collusion-proof — or with
//! the MC mechanism when welfare matters more than cost recovery. The
//! example sweeps a day of multicast sessions with varying demand and
//! reports how the two §2.1 mechanisms trade off revenue vs welfare.
//!
//! ```text
//! cargo run --example campus_broadcast
//! ```

use multicast_cost_sharing::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub fn main() {
    // Grid-ish campus, source at the data centre (station 0).
    let cfg = InstanceConfig {
        n: 12,
        dim: 2,
        kind: InstanceKind::Grid { spacing: 3.0 },
        seed: 7,
    };
    let pts = cfg.generate();
    let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
    let n = net.n_players();

    let shapley = UniversalShapleyMechanism::new(
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Mst)
            .build_universal(),
    );
    let mc = UniversalMcMechanism::new(
        SubstrateBuilder::new(&net)
            .tree(TreeKind::Mst)
            .build_universal(),
    );

    println!("== campus universal-tree pricing: {n} subscriber masts ==\n");
    println!("session | mechanism | served | revenue | cost | welfare");

    let mut rng = SmallRng::seed_from_u64(42);
    let mut totals = (0.0f64, 0.0f64); // (shapley deficit, mc deficit)
    for session in 1..=6 {
        let demand_scale = rng.gen_range(0.5..4.0);
        let utilities: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(0.0..10.0) * demand_scale)
            .collect();
        for (name, out) in [
            ("shapley", shapley.run(&utilities)),
            ("mc     ", mc.run(&utilities)),
        ] {
            let welfare: f64 = out
                .receivers
                .iter()
                .map(|&p| utilities[p] - out.shares[p])
                .sum();
            println!(
                "   {session}    | {name}   |  {:2}    | {:7.2} | {:6.2} | {:7.2}",
                out.receivers.len(),
                out.revenue(),
                out.served_cost,
                welfare
            );
            let deficit = out.served_cost - out.revenue();
            if name.trim() == "shapley" {
                assert!(deficit.abs() < 1e-6, "Shapley must run exactly balanced");
                totals.0 += deficit;
            } else {
                assert!(deficit >= -1e-6, "MC never runs a surplus");
                totals.1 += deficit;
            }
        }
    }
    println!(
        "\ncumulative deficit: shapley {:.4} (always 0 — budget balanced), mc {:.4}",
        totals.0, totals.1
    );
    assert!(totals.0.abs() < 1e-6, "Shapley must run exactly balanced");
    assert!(totals.1 >= -1e-6, "MC never runs a surplus");
}
