//! # wmcs-game — cooperative-game & mechanism-design framework
//!
//! The game-theoretic layer of the reproduction of Bilò et al. (SPAA 2004 /
//! TCS 2006): cost functions over coalitions, the exact Shapley value
//! (Eq. (4) of the paper), cost-sharing methods and the generic
//! Moulin–Shenker mechanism `M(ξ)` \[37, 38\], the marginal-cost (VCG)
//! mechanism \[38\], the game core and its LP-based emptiness oracle
//! (Lemma 3.3), and empirical verifiers for every mechanism property the
//! paper discusses: NPT, VP, CS, (β-approximate) budget balance,
//! strategyproofness and group strategyproofness.
//!
//! Conventions: a *player* is an agent index in `0..n_players` (the paper's
//! stations minus the source); a *coalition* is a `u64` bitmask over
//! players. Exhaustive routines assert `n_players ≤ 25`.

// Index loops over multiple parallel arrays are idiomatic in this
// numeric code; the iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]
// Every public item carries rustdoc: the axioms and conventions of the
// game layer (player indexing, EPS tolerances, mask semantics) must be
// readable at the definition site.
#![deny(missing_docs)]

pub mod checks;
pub mod core;
pub mod cost;
pub mod driver;
pub mod mc;
pub mod mechanism;
pub mod method;
pub mod moulin;
pub mod shapley;
pub mod shares;
pub mod subset;

pub use crate::core::{core_allocation, core_is_empty};
pub use checks::{
    cross_monotonicity_violation, is_nondecreasing, is_submodular, submodularity_violation,
};
pub use cost::{CachedCost, CostFunction, ExplicitGame};
pub use driver::{run_drop_loop, run_drop_loop_from, DropLoopMethod, Recompute};
pub use mc::{marginal_cost_mechanism, run_vcg, McOutcome};
pub use mechanism::{
    find_group_deviation, find_unilateral_deviation, verify_budget_balance,
    verify_consumer_sovereignty, verify_no_positive_transfers, verify_voluntary_participation,
    GroupDeviation, Mechanism, MechanismOutcome,
};
pub use method::{CostSharingMethod, ShapleyMethod};
pub use moulin::moulin_shenker;
pub use shapley::shapley_value;
pub use shares::Shares;
pub use subset::{mask_of, members_of, subsets_of};

#[cfg(test)]
mod integration_tests {
    use super::*;

    /// The classic 3-player airport game: runway cost = max of player needs
    /// 1, 2, 3. Submodular, so Shapley is in the core and M(Shapley) is BB.
    fn airport() -> ExplicitGame {
        ExplicitGame::from_fn(3, |mask| {
            let mut c: f64 = 0.0;
            for (i, need) in [1.0, 2.0, 3.0].iter().enumerate() {
                if mask & (1 << i) != 0 {
                    c = c.max(*need);
                }
            }
            c
        })
    }

    #[test]
    fn airport_game_is_submodular_and_has_core() {
        let g = airport();
        assert!(is_nondecreasing(&g));
        assert!(is_submodular(&g));
        assert!(!core_is_empty(&g));
    }

    #[test]
    fn shapley_on_airport_game_matches_closed_form() {
        let g = airport();
        let full = 0b111;
        let phi = shapley_value(&g, full);
        // Segment [0,1] split 3 ways, (1,2] split 2 ways, (2,3] alone.
        assert!((phi[0] - 1.0 / 3.0).abs() < 1e-9);
        assert!((phi[1] - (1.0 / 3.0 + 0.5)).abs() < 1e-9);
        assert!((phi[2] - (1.0 / 3.0 + 0.5 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn moulin_shenker_on_airport_converges_to_affordable_set() {
        let g = airport();
        let method = ShapleyMethod::new(g);
        // u = (1, 1, 1): player 2's share 11/6 > 1 → dropped; on {0, 1} the
        // shares become (1/2, 3/2), dropping player 1; player 0 then pays
        // exactly 1.0 = u_0 and stays.
        let out = moulin_shenker(&method, &[1.0, 1.0, 1.0]);
        assert_eq!(out.receivers, vec![0]);
        assert!((out.shares[0] - 1.0).abs() < 1e-9);
        assert_eq!(out.shares[1], 0.0);
        assert!((out.served_cost - 1.0).abs() < 1e-9);
    }
}
