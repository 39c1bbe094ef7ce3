//! The marginal-cost (MC/VCG) mechanism \[38\], Eq. (3) of the paper.
//!
//! For a non-decreasing submodular cost function the MC mechanism is the
//! unique efficient strategyproof mechanism meeting NPT, VP and CS (§1.1):
//! select the **largest efficient set** `R*(u)` (the union of all welfare
//! maximisers, well defined under submodularity), then charge each selected
//! player its VCG payment
//! `c_i(u) = u_i − (NW(u) − NW(u_{-i}))`,
//! where `NW(u_{-i})` is the maximal net worth when player `i`'s utility is
//! zeroed out. Under submodularity this equals the paper's form (3),
//! `C(R*(u)) − C(R*(u_{-i}))`.
//!
//! This generic driver maximises welfare by exhaustive coalition search
//! (`O(2^n)`), serving as the reference for the polynomial tree-DP
//! implementations in `wmcs-wireless`.

use crate::cost::CostFunction;
use crate::mechanism::MechanismOutcome;
use crate::subset::{contains, members_of};
use wmcs_geom::EPS;

/// MC mechanism outcome, which also exposes the efficiency data.
#[derive(Debug, Clone, PartialEq)]
pub struct McOutcome {
    /// The mechanism outcome (receivers, VCG shares, served cost).
    pub outcome: MechanismOutcome,
    /// Maximal net worth `NW(u) = max_R (u_R − C(R))`.
    pub net_worth: f64,
}

/// Welfare of coalition `mask`: `Σ_{i∈mask} u_i − C(mask)`.
fn welfare(c: &impl CostFunction, u: &[f64], mask: u64) -> f64 {
    let util: f64 = members_of(mask).iter().map(|&p| u[p]).sum();
    util - c.cost_mask(mask)
}

/// The largest efficient set and its welfare: among all welfare maximisers,
/// pick the union (a maximiser itself when C is submodular; in general we
/// fall back to the maximiser with most members, ties broken by smallest
/// mask for determinism).
fn largest_efficient_set(c: &impl CostFunction, u: &[f64]) -> (u64, f64) {
    let n = c.n_players();
    let mut best = f64::NEG_INFINITY;
    let mut maximisers: Vec<u64> = Vec::new();
    for mask in 0u64..(1 << n) {
        let w = welfare(c, u, mask);
        if w > best + EPS {
            best = w;
            maximisers.clear();
            maximisers.push(mask);
        } else if (w - best).abs() <= EPS {
            maximisers.push(mask);
        }
    }
    let union = maximisers.iter().fold(0u64, |a, &m| a | m);
    if (welfare(c, u, union) - best).abs() <= EPS * (1.0 + best.abs()) {
        (union, best)
    } else {
        // Non-submodular fallback: biggest maximiser, deterministic.
        let pick = maximisers
            .iter()
            .copied()
            .max_by_key(|&m| (m.count_ones(), std::cmp::Reverse(m)))
            .expect("at least the empty set is a maximiser");
        (pick, best)
    }
}

/// Run the MC mechanism.
pub fn marginal_cost_mechanism(c: &impl CostFunction, reported: &[f64]) -> McOutcome {
    let n = c.n_players();
    assert_eq!(reported.len(), n);
    assert!(n <= crate::subset::MAX_EXHAUSTIVE_PLAYERS);
    let (r_star, nw) = largest_efficient_set(c, reported);
    let mut shares = vec![0.0; n];
    for p in 0..n {
        if contains(r_star, p) {
            let mut u_minus = reported.to_vec();
            u_minus[p] = 0.0;
            let (_, nw_minus) = largest_efficient_set(c, &u_minus);
            // VCG: pay your externality. Clamp the −EPS noise at 0.
            shares[p] = (reported[p] - (nw - nw_minus)).max(0.0);
        }
    }
    let receivers = members_of(r_star);
    let served_cost = c.cost_mask(r_star);
    McOutcome {
        outcome: MechanismOutcome {
            receivers,
            shares: shares.into(),
            served_cost,
        },
        net_worth: nw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ExplicitGame;
    use crate::mechanism::{
        find_unilateral_deviation, verify_no_positive_transfers, verify_voluntary_participation,
        Mechanism, MechanismOutcome,
    };
    use proptest::prelude::*;

    fn airport() -> ExplicitGame {
        ExplicitGame::from_fn(3, |m| {
            [1.0, 2.0, 3.0]
                .iter()
                .enumerate()
                .filter(|(i, _)| m & (1 << i) != 0)
                .map(|(_, &v)| v)
                .fold(0.0, f64::max)
        })
    }

    #[test]
    fn efficient_set_maximises_welfare() {
        let g = airport();
        // u = (0.5, 0.5, 10): serving all three costs 3 and yields
        // 11 − 3 = 8; no other set beats it (e.g. {2} gives 10 − 3 = 7).
        let out = marginal_cost_mechanism(&g, &[0.5, 0.5, 10.0]);
        assert_eq!(out.outcome.receivers, vec![0, 1, 2]);
        assert!((out.net_worth - 8.0).abs() < 1e-9);
    }

    #[test]
    fn vcg_charges_externalities() {
        let g = airport();
        let out = marginal_cost_mechanism(&g, &[0.5, 0.5, 10.0]);
        // Players 0, 1 are free riders (cost driven by player 2): NW without
        // them stays 8 minus their utility contribution → share 0.
        assert!((out.outcome.shares[0]).abs() < 1e-9);
        assert!((out.outcome.shares[1]).abs() < 1e-9);
        // Player 2: NW(u_{-2}) = max welfare with u_2 = 0 is 0 (serving
        // {0,1} costs 2 > 1); share = 10 − (8 − 0) = 2.
        assert!((out.outcome.shares[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mc_runs_deficit_not_surplus() {
        // The MC mechanism never collects more than the cost (it can run a
        // deficit — the paper's §1.1 remark).
        let g = airport();
        for u in [[0.5, 0.5, 10.0], [2.0, 2.0, 2.0], [1.5, 0.1, 3.5]] {
            let out = marginal_cost_mechanism(&g, &u);
            assert!(out.outcome.revenue() <= out.outcome.served_cost + 1e-9);
        }
    }

    struct McMech {
        g: ExplicitGame,
    }
    impl Mechanism for McMech {
        fn n_players(&self) -> usize {
            self.g.n_players()
        }
        fn run(&self, reported: &[f64]) -> MechanismOutcome {
            marginal_cost_mechanism(&self.g, reported).outcome
        }
    }

    #[test]
    fn strategyproof_on_submodular_game() {
        let m = McMech { g: airport() };
        for u in [
            [0.5, 0.5, 10.0],
            [2.0, 2.0, 2.0],
            [0.9, 1.1, 2.9],
            [0.0, 0.0, 0.0],
        ] {
            assert!(find_unilateral_deviation(&m, &u, 1e-7).is_none());
        }
    }

    #[test]
    fn axioms_npt_vp() {
        let m = McMech { g: airport() };
        for u in [[0.5, 0.5, 10.0], [3.0, 0.2, 1.0]] {
            let out = m.run(&u);
            assert!(verify_no_positive_transfers(&out));
            assert!(verify_voluntary_participation(&out, &u));
        }
    }

    #[test]
    fn empty_when_nobody_values_service() {
        let g = airport();
        let out = marginal_cost_mechanism(&g, &[0.0, 0.0, 0.0]);
        // The *largest* efficient set at zero utilities is the set of
        // players addable at zero marginal cost — here none (every player
        // has positive standalone cost), so the empty set is selected.
        assert!(out.outcome.receivers.is_empty());
        assert_eq!(out.net_worth, 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn efficiency_dominates_every_coalition(
            u in proptest::collection::vec(0.0..6.0f64, 3)
        ) {
            let g = airport();
            let out = marginal_cost_mechanism(&g, &u);
            for mask in 0u64..8 {
                let w = welfare(&g, &u, mask);
                prop_assert!(out.net_worth >= w - 1e-9);
            }
        }

        #[test]
        fn welfare_of_receivers_is_nonnegative(
            u in proptest::collection::vec(0.0..6.0f64, 3)
        ) {
            let g = airport();
            let out = marginal_cost_mechanism(&g, &u);
            for &p in &out.outcome.receivers {
                prop_assert!(u[p] - out.outcome.shares[p] >= -1e-9);
            }
        }
    }
}
