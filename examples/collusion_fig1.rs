//! Regenerates the paper's Fig. 1 worked example (§2.2.2): the NWST
//! mechanism is strategyproof but **not group strategyproof** — a
//! coalition where x7 under-reports makes x1, x5, x6 strictly better off
//! while x7 loses nothing.
//!
//! ```text
//! cargo run --example collusion_fig1
//! ```

// Index loops over the parallel player/name arrays mirror the paper's
// x1/x5/x6/x7 notation; iterator rewrites would obscure them.
#![allow(clippy::needless_range_loop)]

use multicast_cost_sharing::prelude::*;

pub fn main() {
    let (graph, terminals, utilities) = fig1_instance();
    let mech = NwstCostSharingMechanism::new(graph, terminals);
    let names = ["x1", "x5", "x6", "x7"];

    println!("== Fig. 1: the NWST mechanism is not group strategyproof ==\n");

    // Truthful run: Sp2 (ratio 1) then the path of ratio 3/2.
    let truthful = mech.run(&utilities);
    println!("truthful reports u = (3, 3, 3, 3/2):");
    for p in 0..4 {
        println!(
            "  {}: share {:.4}  welfare {:.4}",
            names[p],
            truthful.shares[p],
            truthful.welfare(p, &utilities)
        );
    }
    println!(
        "  receivers {:?}, revenue {:.3} = tree cost {:.3}\n",
        truthful.receivers,
        truthful.revenue(),
        truthful.served_cost
    );

    // The collusion: x7 reports 3/2 − ε.
    let eps = 0.3;
    let mut lie = utilities.clone();
    lie[3] = 1.5 - eps;
    let colluded = mech.run(&lie);
    println!("collusion: x7 reports 3/2 − ε = {:.2}:", lie[3]);
    for p in 0..4 {
        println!(
            "  {}: share {:.4}  welfare {:.4}",
            names[p],
            colluded.shares[p],
            colluded.welfare(p, &utilities)
        );
    }
    println!(
        "  receivers {:?} — x7 dropped, Sp1 (ratio 4/3) bought instead\n",
        colluded.receivers
    );

    // Verify the paper's punchline mechanically.
    for p in 0..3 {
        assert!(
            colluded.welfare(p, &utilities) > truthful.welfare(p, &utilities) + 1e-9,
            "{} must strictly gain",
            names[p]
        );
    }
    assert!(colluded.welfare(3, &utilities) >= truthful.welfare(3, &utilities) - 1e-9);
    println!("x1, x5, x6 gained 3/2 → 5/3; x7 unchanged at 0: joint deviation dominates.");

    // No *unilateral* deviation exists (Theorem 2.3)…
    assert!(find_unilateral_deviation(&mech, &utilities, 1e-7).is_none());
    println!("…yet no unilateral lie is ever profitable (Theorem 2.3 verified).");

    // …and the generic coalition sweep rediscovers the collusion: two
    // colluders already suffice.
    let dev = find_group_deviation(&mech, &utilities, 2, 1e-7)
        .expect("coalition sweep must find the Fig. 1 deviation");
    println!(
        "coalition sweep found it too: players {:?} misreport {:?}",
        dev.coalition, dev.misreports
    );
}
