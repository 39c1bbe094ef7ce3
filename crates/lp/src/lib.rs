//! # wmcs-lp — dense two-phase simplex
//!
//! A small linear-programming solver (its only dependency is the shared
//! tolerance constants in [`wmcs_geom::float`]). Its single purpose in
//! this workspace is to decide **core (non-)emptiness** of cost-sharing
//! games *exactly*: Lemma 3.3 of Bilò et al. (SPAA 2004 / TCS 2006) exhibits
//! a wireless multicast instance whose optimal-cost game has an empty core,
//! which is what rules out cross-monotonic (and hence budget-balanced group
//! strategyproof Moulin–Shenker) mechanisms for `α > 1, d > 1`. The core is
//! a polytope with one inequality per coalition, so a feasibility oracle is
//! required; no LP crate is in the allowed offline set, hence this one.
//!
//! The solver is a textbook dense tableau simplex with Bland's rule
//! (guaranteeing termination) and a two-phase start, comfortably adequate
//! for the ≤ few-hundred-row systems produced by the experiments.

// Index loops over multiple parallel arrays are idiomatic in this
// numeric code; the iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]
// Every public item carries rustdoc: substrate crates feed the
// mechanism layers above them, and undocumented invariants become
// silent contract drift there.
#![deny(missing_docs)]
// Library code states its invariants with `.expect("…")` or propagates
// the error; only test code may unwrap (clippy.toml).
#![deny(clippy::unwrap_used)]

pub mod simplex;

pub use simplex::{LinearProgram, LpOutcome, Relation};

#[cfg(test)]
mod integration_tests {
    use super::*;

    #[test]
    fn textbook_production_problem() {
        // max 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → opt 36 at (2, 6).
        let mut lp = LinearProgram::new(2);
        lp.le(&[1.0, 0.0], 4.0);
        lp.le(&[0.0, 2.0], 12.0);
        lp.le(&[3.0, 2.0], 18.0);
        match lp.maximize(&[3.0, 5.0]) {
            LpOutcome::Optimal { objective, x } => {
                assert!((objective - 36.0).abs() < 1e-7);
                assert!((x[0] - 2.0).abs() < 1e-7);
                assert!((x[1] - 6.0).abs() < 1e-7);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn core_style_feasibility_system() {
        // A 3-player cost game with a non-empty core:
        // C({1}) = C({2}) = C({3}) = 2, C(pairs) = 3, C(N) = 4.
        // x = (4/3, 4/3, 4/3) lies in the core.
        let mut lp = LinearProgram::new(3);
        lp.le(&[1.0, 0.0, 0.0], 2.0);
        lp.le(&[0.0, 1.0, 0.0], 2.0);
        lp.le(&[0.0, 0.0, 1.0], 2.0);
        lp.le(&[1.0, 1.0, 0.0], 3.0);
        lp.le(&[1.0, 0.0, 1.0], 3.0);
        lp.le(&[0.0, 1.0, 1.0], 3.0);
        lp.eq(&[1.0, 1.0, 1.0], 4.0);
        assert!(lp.is_feasible());
    }

    #[test]
    fn empty_core_style_system_detected() {
        // Three players, every pair can serve itself for 1, grand coalition
        // costs 2: Σ over the three pair constraints gives 2(x1+x2+x3) ≤ 3,
        // contradicting x1+x2+x3 = 2. Classic empty core.
        let mut lp = LinearProgram::new(3);
        lp.le(&[1.0, 1.0, 0.0], 1.0);
        lp.le(&[1.0, 0.0, 1.0], 1.0);
        lp.le(&[0.0, 1.0, 1.0], 1.0);
        lp.eq(&[1.0, 1.0, 1.0], 2.0);
        assert!(!lp.is_feasible());
    }
}
