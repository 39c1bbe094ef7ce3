//! Disaster-relief scenario (the paper's §1 motivation: "ad hoc wireless
//! networks can be deployed for applications such as emergency disaster
//! relief"): a command post multicasts a situation report to field teams
//! scattered over clustered sites. Teams value the report differently and
//! behave selfishly; the provider runs the 12-BB group-strategyproof
//! mechanism so no team (or coalition of teams) gains by lying.
//!
//! ```text
//! cargo run --example disaster_relief
//! ```

use multicast_cost_sharing::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub fn main() {
    let mut rng = SmallRng::seed_from_u64(20040627); // SPAA 2004 proceedings day

    // Three incident sites (clusters) around the command post.
    let cfg = InstanceConfig {
        n: 16,
        dim: 2,
        kind: InstanceKind::Clustered {
            clusters: 3,
            spread: 1.2,
            side: 14.0,
        },
        seed: 99,
    };
    let mut pts = cfg.generate();
    pts[0] = Point::xy(7.0, 7.0); // command post in the middle
    let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
    let n = net.n_players();

    // True utilities: teams near the fire front value the report highly.
    let utilities: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..80.0)).collect();

    let mech = EuclideanSteinerMechanism::new(&net);
    let truthful = mech.run(&utilities);
    assert!(truthful.revenue() >= truthful.served_cost - 1e-9);

    println!("== disaster relief multicast: {} field teams ==", n);
    println!(
        "served {} teams | revenue {:.2} | power cost {:.2} (bound: 12x optimum)",
        truthful.receivers.len(),
        truthful.revenue(),
        truthful.served_cost
    );
    for &p in &truthful.receivers {
        println!(
            "  team {:2}  utility {:6.2}  pays {:6.2}  welfare {:6.2}",
            p,
            utilities[p],
            truthful.shares[p],
            utilities[p] - truthful.shares[p]
        );
    }
    let excluded: Vec<usize> = (0..n).filter(|p| !truthful.receivers.contains(p)).collect();
    println!("excluded (couldn't cover their share): {excluded:?}");

    // Strategyproofness in action: the highest-utility team tries to lowball.
    let &vip = truthful
        .receivers
        .iter()
        .max_by(|&&a, &&b| utilities[a].total_cmp(&utilities[b]))
        .expect("someone is served");
    let mut lie = utilities.clone();
    lie[vip] = truthful.shares[vip] * 0.5;
    let lied = mech.run(&lie);
    let welfare_truth = truthful.welfare(vip, &utilities);
    let welfare_lie = lied.welfare(vip, &utilities);
    println!(
        "\nteam {vip} lowballs ({:.2} → {:.2}): welfare {:.2} → {:.2} (never better)",
        utilities[vip], lie[vip], welfare_truth, welfare_lie
    );
    assert!(welfare_lie <= welfare_truth + 1e-9);

    // Nor does the first served team gain by bidding a twentieth of its
    // utility.
    let first = truthful.receivers[0];
    let mut lie = utilities.clone();
    lie[first] = utilities[first] / 20.0;
    let lied = mech.run(&lie);
    assert!(
        lied.welfare(first, &utilities) <= truthful.welfare(first, &utilities) + 1e-9,
        "lowballing must never be profitable"
    );

    // And the automated deviation sweep agrees.
    assert!(find_unilateral_deviation(&mech, &utilities, 1e-6).is_none());
    println!("deviation sweep: no profitable unilateral lie exists");
}
