//! The Moulin–Shenker mechanism `M(ξ)` \[37, 38\], extended to β-approximate
//! methods per Jain–Vazirani \[29\].
//!
//! Given a (cross-monotonic) cost-sharing method ξ (§1.1):
//! 1. initialise `R(u)` to all players;
//! 2. while some `x_i ∈ R(u)` has `u_i < ξ(R(u), x_i)`, drop it;
//! 3. charge `c_i(u) = ξ(R(u), x_i)` and build a solution of cost
//!    `C(R(u)) = Σ c_i(u)` (β-BB methods: `≤ Σ c_i ≤ β · C*`).
//!
//! If ξ is cross-monotonic, `M(ξ)` is group strategyproof and meets NPT,
//! VP, CS, and (β-approximate) budget balance \[29, 37, 38\]. The driver
//! drops *all* unaffordable players per round; under cross-monotonicity the
//! final set is the unique maximal affordable set regardless of drop order.
//!
//! This entry point is **mask-based and therefore capped at 64 players**
//! (it stays as the exact reference for the mask world). The iteration
//! itself lives in the shared index-set driver
//! [`crate::driver::run_drop_loop`], which has no player cap — use it
//! directly (as the universal-tree mechanisms do through the incremental
//! engine) for instances beyond 64 players.

use crate::driver::{run_drop_loop, Recompute};
use crate::mechanism::MechanismOutcome;
use crate::method::CostSharingMethod;
use crate::subset::mask_of;

/// Run `M(ξ)` on a reported utility profile.
///
/// # Panics
///
/// Panics if the method has more than 64 players: coalitions are `u64`
/// bitmasks here, and `1u64 << n` would overflow (a debug-build panic
/// and a silent wrap in release before this guard existed). Use the
/// index-set driver [`crate::driver::run_drop_loop`] beyond 64 players.
pub fn moulin_shenker(method: &impl CostSharingMethod, reported: &[f64]) -> MechanismOutcome {
    let n = method.n_players();
    assert!(
        n <= 64,
        "moulin_shenker is mask-based and supports at most 64 players (got {n}); \
         use wmcs_game::run_drop_loop with an index-set DropLoopMethod instead"
    );
    let mut adapter = Recompute::new(
        n,
        |players| method.shares(mask_of(players)),
        |players| method.served_cost(mask_of(players)),
    );
    run_drop_loop(&mut adapter, reported)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ExplicitGame;
    use crate::mechanism::{
        find_group_deviation, find_unilateral_deviation, verify_budget_balance,
        verify_consumer_sovereignty, verify_no_positive_transfers, verify_voluntary_participation,
        Mechanism,
    };
    use crate::method::ShapleyMethod;
    use proptest::prelude::*;

    fn airport_method() -> ShapleyMethod<ExplicitGame> {
        ShapleyMethod::new(ExplicitGame::from_fn(3, |m| {
            [1.0, 2.0, 3.0]
                .iter()
                .enumerate()
                .filter(|(i, _)| m & (1 << i) != 0)
                .map(|(_, &v)| v)
                .fold(0.0, f64::max)
        }))
    }

    struct MsMech {
        method: ShapleyMethod<ExplicitGame>,
    }

    impl Mechanism for MsMech {
        fn n_players(&self) -> usize {
            self.method.n_players()
        }
        fn run(&self, reported: &[f64]) -> MechanismOutcome {
            moulin_shenker(&self.method, reported)
        }
    }

    /// Beyond 64 players a `u64` coalition mask cannot exist; the guard
    /// must fire instead of a shift overflow (panic in debug, silent
    /// wrap in release). The index-set driver is the documented path.
    #[test]
    #[should_panic(expected = "at most 64 players")]
    fn more_than_64_players_is_rejected_with_a_clear_message() {
        struct Huge;
        impl crate::method::CostSharingMethod for Huge {
            fn n_players(&self) -> usize {
                65
            }
            fn shares(&self, _mask: u64) -> Vec<f64> {
                vec![0.0; 65]
            }
        }
        let _ = moulin_shenker(&Huge, &[1.0; 65]);
    }

    #[test]
    fn rich_profile_serves_everyone_budget_balanced() {
        let method = airport_method();
        let out = moulin_shenker(&method, &[10.0, 10.0, 10.0]);
        assert_eq!(out.receivers, vec![0, 1, 2]);
        // Exactly budget balanced: revenue = C(N) = 3.
        assert!((out.revenue() - 3.0).abs() < 1e-9);
        assert!((out.served_cost - 3.0).abs() < 1e-9);
        assert!(verify_budget_balance(&out, 1.0, 3.0));
    }

    #[test]
    fn poor_profile_serves_nobody() {
        let method = airport_method();
        let out = moulin_shenker(&method, &[0.1, 0.1, 0.1]);
        // Drops cascade down to the single cheapest player... whose
        // standalone Shapley share is 1.0 > 0.1, so nobody is served.
        assert!(out.receivers.is_empty());
        assert_eq!(out.revenue(), 0.0);
    }

    #[test]
    fn axioms_hold_on_sample_profiles() {
        let m = MsMech {
            method: airport_method(),
        };
        for u in [
            [10.0, 10.0, 10.0],
            [0.4, 0.9, 1.9],
            [1.0, 0.0, 5.0],
            [0.0, 0.0, 0.0],
        ] {
            let out = m.run(&u);
            assert!(verify_no_positive_transfers(&out));
            assert!(verify_voluntary_participation(&out, &u));
            assert!(verify_consumer_sovereignty(&m, &u, 1e9));
        }
    }

    #[test]
    fn group_strategyproof_on_submodular_game() {
        let m = MsMech {
            method: airport_method(),
        };
        for u in [[10.0, 10.0, 10.0], [0.5, 1.0, 2.0], [1.0, 1.0, 1.0]] {
            assert!(find_unilateral_deviation(&m, &u, 1e-7).is_none());
            assert!(find_group_deviation(&m, &u, 3, 1e-7).is_none());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn receivers_can_always_afford_their_shares(
            u in proptest::collection::vec(0.0..5.0f64, 3)
        ) {
            let method = airport_method();
            let out = moulin_shenker(&method, &u);
            for &p in &out.receivers {
                prop_assert!(out.shares[p] <= u[p] + 1e-9);
            }
            // Revenue equals the served cost for an exact method.
            prop_assert!((out.revenue() - out.served_cost).abs() < 1e-9);
        }

        #[test]
        fn monotone_utilities_grow_receiver_set(
            u in proptest::collection::vec(0.0..5.0f64, 3)
        ) {
            // Raising one player's utility can only enlarge the receiver
            // set under a cross-monotonic method.
            let method = airport_method();
            let before = moulin_shenker(&method, &u);
            let mut u2 = u.clone();
            u2[1] += 10.0;
            let after = moulin_shenker(&method, &u2);
            for p in &before.receivers {
                prop_assert!(after.receivers.contains(p),
                    "player {p} lost service when player 1 reported more");
            }
        }
    }
}
