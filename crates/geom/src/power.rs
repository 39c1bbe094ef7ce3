//! The power-attenuation transmission-cost model.

use crate::point::Point;
use serde::{Deserialize, Serialize};

/// Euclidean power-attenuation model (paper §1):
/// `c_{α,κ}(x, y) = κ · dist(x, y)^α`.
///
/// * `alpha` — the distance–power gradient (typical values 1..6). The paper's
///   structural results split on `α = 1` (Lemma 3.1: submodular optimum) vs
///   `α > 1` (Lemma 3.3: empty core), and the approximation bounds of §3.2
///   assume `α ≥ d`.
/// * `kappa` — the receivers' common transmission-quality threshold,
///   normalised to 1 in the paper but kept explicit so experiments can vary
///   it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    alpha: f64,
    kappa: f64,
}

impl PowerModel {
    /// Create a model with gradient `alpha ≥ 1` and threshold `kappa > 0`.
    pub fn new(alpha: f64, kappa: f64) -> Self {
        assert!(alpha >= 1.0, "distance-power gradient must satisfy α ≥ 1");
        assert!(kappa > 0.0, "threshold must be positive");
        Self { alpha, kappa }
    }

    /// Model with threshold normalised to 1 (the paper's default).
    pub fn with_alpha(alpha: f64) -> Self {
        Self::new(alpha, 1.0)
    }

    /// The linear model `α = 1, κ = 1` of Lemma 3.1's first case.
    pub fn linear() -> Self {
        Self::new(1.0, 1.0)
    }

    /// The free-space model `α = 2, κ = 1`.
    pub fn free_space() -> Self {
        Self::new(2.0, 1.0)
    }

    /// Distance–power gradient α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Quality threshold κ.
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// Power required for a direct transmission between `x` and `y`.
    pub fn cost(&self, x: &Point, y: &Point) -> f64 {
        self.cost_of_distance(x.dist(y))
    }

    /// Power required to cover geometric distance `t`.
    pub fn cost_of_distance(&self, t: f64) -> f64 {
        debug_assert!(t >= 0.0);
        if self.alpha == 1.0 {
            self.kappa * t
        } else if self.alpha == 2.0 {
            self.kappa * t * t
        } else if self.alpha == 4.0 {
            // Integer-exponent fast path: the scaling sweeps (T10) build
            // dense n = 4096 cost matrices at α = 4, where `powf` would
            // dominate the cell time.
            let sq = t * t;
            self.kappa * sq * sq
        } else {
            self.kappa * t.powf(self.alpha)
        }
    }

    /// Geometric range covered by emission power `p`: the largest `t` with
    /// `cost_of_distance(t) ≤ p`.
    pub fn range_of_power(&self, p: f64) -> f64 {
        debug_assert!(p >= 0.0);
        (p / self.kappa).powf(1.0 / self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::approx_eq;
    use proptest::prelude::*;

    #[test]
    fn linear_model_is_distance() {
        let m = PowerModel::linear();
        assert!(approx_eq(
            m.cost(&Point::xy(0.0, 0.0), &Point::xy(3.0, 4.0)),
            5.0
        ));
    }

    #[test]
    fn free_space_model_is_squared_distance() {
        let m = PowerModel::free_space();
        assert!(approx_eq(
            m.cost(&Point::xy(0.0, 0.0), &Point::xy(3.0, 4.0)),
            25.0
        ));
    }

    #[test]
    fn kappa_scales_cost() {
        let m = PowerModel::new(2.0, 3.0);
        assert!(approx_eq(m.cost_of_distance(2.0), 12.0));
    }

    #[test]
    fn fractional_alpha_uses_powf() {
        let m = PowerModel::new(2.5, 1.0);
        assert!(approx_eq(m.cost_of_distance(4.0), 32.0));
    }

    #[test]
    #[should_panic(expected = "α ≥ 1")]
    fn alpha_below_one_rejected() {
        let _ = PowerModel::new(0.5, 1.0);
    }

    proptest! {
        #[test]
        fn range_inverts_cost(alpha in 1.0..6.0f64, t in 0.001..50.0f64) {
            let m = PowerModel::with_alpha(alpha);
            let p = m.cost_of_distance(t);
            prop_assert!((m.range_of_power(p) - t).abs() < 1e-6 * t.max(1.0));
        }

        #[test]
        fn cost_is_monotone_in_distance(alpha in 1.0..6.0f64, a in 0.0..20.0f64, b in 0.0..20.0f64) {
            let m = PowerModel::with_alpha(alpha);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(m.cost_of_distance(lo) <= m.cost_of_distance(hi) + 1e-12);
        }

        #[test]
        fn superadditivity_for_alpha_ge_one(alpha in 1.0..6.0f64, a in 0.0..20.0f64, b in 0.0..20.0f64) {
            // (a + b)^α ≥ a^α + b^α for α ≥ 1 — the reason single hops are
            // optimal on the line (Lemma 3.1's d = 1 case).
            let m = PowerModel::with_alpha(alpha);
            prop_assert!(m.cost_of_distance(a + b) + 1e-9
                >= m.cost_of_distance(a) + m.cost_of_distance(b));
        }
    }
}
