//! Cost-sharing methods `ξ(R, x_i)`.
//!
//! A method distributes the (possibly approximate) cost of serving a
//! coalition among its members: `ξ(R, i) = 0` for `i ∉ R` and
//! `Σ_{i∈R} ξ(R, i) = C(R)` (§1.1). β-approximate methods recover the cost
//! of the *built* solution while staying within `β · C*(R)` \[29\].

use crate::cost::CostFunction;
use crate::shapley::shapley_value;

/// A cost-sharing method over `n_players` agents.
pub trait CostSharingMethod {
    /// Number of players.
    fn n_players(&self) -> usize;

    /// Shares for the coalition `mask`: full-length vector, zero outside
    /// the coalition.
    fn shares(&self, mask: u64) -> Vec<f64>;

    /// Cost of the solution the method builds for the coalition; defaults
    /// to the sum of shares (exact budget balance).
    fn served_cost(&self, mask: u64) -> f64 {
        self.shares(mask).iter().sum()
    }
}

/// The Shapley-value method of a cost function — the paper's canonical
/// budget-balanced cross-monotonic method for submodular costs (§1.1,
/// \[37, 38, 47\]).
#[derive(Debug, Clone)]
pub struct ShapleyMethod<C: CostFunction> {
    cost: C,
}

impl<C: CostFunction> ShapleyMethod<C> {
    /// Wrap a cost function.
    pub fn new(cost: C) -> Self {
        Self { cost }
    }

    /// Access the underlying cost function.
    pub fn cost_fn(&self) -> &C {
        &self.cost
    }
}

impl<C: CostFunction> CostSharingMethod for ShapleyMethod<C> {
    fn n_players(&self) -> usize {
        self.cost.n_players()
    }

    fn shares(&self, mask: u64) -> Vec<f64> {
        shapley_value(&self.cost, mask)
    }

    fn served_cost(&self, mask: u64) -> f64 {
        self.cost.cost_mask(mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ExplicitGame;
    use crate::subset::mask_of;

    #[test]
    fn shapley_method_shares_sum_to_cost() {
        let g = ExplicitGame::from_fn(3, |m| (m.count_ones() as f64) * 1.5);
        let m = ShapleyMethod::new(g);
        for mask in 0u64..8 {
            let s: f64 = m.shares(mask).iter().sum();
            assert!((s - m.served_cost(mask)).abs() < 1e-9);
        }
    }

    #[test]
    fn shapley_method_zero_outside_coalition() {
        let g = ExplicitGame::from_fn(3, |m| m.count_ones() as f64);
        let m = ShapleyMethod::new(g);
        let s = m.shares(mask_of(&[0, 2]));
        assert_eq!(s[1], 0.0);
        assert!(s[0] > 0.0 && s[2] > 0.0);
    }

    #[test]
    fn default_served_cost_is_share_sum() {
        struct Fixed;
        impl CostSharingMethod for Fixed {
            fn n_players(&self) -> usize {
                2
            }
            fn shares(&self, _mask: u64) -> Vec<f64> {
                vec![1.0, 2.5]
            }
        }
        assert_eq!(Fixed.served_cost(0b11), 3.5);
    }
}
