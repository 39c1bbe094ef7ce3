//! Regenerates the paper's Fig. 2 / Lemma 3.3: for `α > 1, d > 1` the
//! optimal multicast cost function can have an **empty core**, which rules
//! out budget-balanced group-strategyproof Moulin–Shenker mechanisms and
//! forces the β-approximate route of §3.2.
//!
//! ```text
//! cargo run --example empty_core_pentagon
//! ```

use multicast_cost_sharing::game::{core_allocation, submodularity_violation};
use multicast_cost_sharing::prelude::*;

pub fn main() {
    let m = 10.0;
    let inst = PentagonInstance::new(m);
    println!("== Fig. 2: the pentagon instance (m = {m}) ==\n");

    // The C* table over the externals.
    println!("optimal multicast costs (abstract chain graph, exact Steiner):");
    println!(
        "  C*(single external)      = {:.4}",
        inst.optimal_cost(&[0])
    );
    println!(
        "  C*(adjacent pair)        = {:.4}",
        inst.optimal_cost(&[0, 1])
    );
    println!(
        "  C*(non-adjacent pair)    = {:.4}",
        inst.optimal_cost(&[0, 2])
    );
    let full = inst.optimal_cost(&[0, 1, 2, 3, 4]);
    println!("  C*(all five externals)   = {full:.4}");

    // The paper's two key inequalities.
    let single = inst.optimal_cost(&[0]);
    let pair = inst.optimal_cost(&[0, 1]);
    println!("\nLemma 3.3's inequalities:");
    println!("  C*(x_j) = {single:.4} > C*(R)/5 = {:.4}", full / 5.0);
    println!(
        "  C*(x0, x1) = {pair:.4} < 2 C*(R)/5 = {:.4}",
        2.0 * full / 5.0
    );
    assert!(
        single > full / 5.0,
        "Lemma 3.3: a single external costs more than its full-set share"
    );
    assert!(
        pair < 2.0 * full / 5.0,
        "Lemma 3.3: an adjacent pair costs less than two full-set shares"
    );

    // Core emptiness, decided exactly by the simplex over all 31
    // coalition constraints.
    let game = inst.cost_game();
    match core_allocation(&game) {
        None => println!("\ncore(C*) is EMPTY (LP infeasible over all 2^5 coalitions) ✓"),
        Some(x) => panic!("core unexpectedly non-empty: {x:?}"),
    }

    // Consequences (§1.1): no cross-monotonic method, no submodularity.
    let v = submodularity_violation(&game).expect("supermodular witness");
    println!(
        "submodularity violated: base {:05b} + x{} / + x{} overlap gains {:.4}",
        v.base, v.i, v.j, v.gap
    );
    println!("⇒ no cross-monotonic cost sharing, no BB group-SP Moulin–Shenker mechanism;");
    println!("  the 2(3^d − 1)-BB route of Theorem 3.6 is the way out.");
}
