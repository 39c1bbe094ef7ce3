//! # wmcs-mechanisms — the paper's cost-sharing mechanisms
//!
//! The primary contribution of Bilò, Flammini, Melideo, Moscardelli,
//! Navarra, *"Sharing the cost of multicast transmissions in wireless
//! networks"* (SPAA 2004 / TCS 2006), implemented end to end on the
//! substrates of this workspace:
//!
//! | mechanism | paper | guarantees |
//! |---|---|---|
//! | [`UniversalShapleyMechanism`] | §2.1 | BB, group-SP, NPT, VP, CS |
//! | [`UniversalMcMechanism`] | §2.1 | efficient, SP, NPT, VP, CS |
//! | [`NwstCostSharingMechanism`] | §2.2.2, Thms 2.2–2.3 | 1.5 ln k-BB, SP (not group-SP: Fig. 1) |
//! | [`WirelessMulticastMechanism`] | §2.2.3 | 3 ln(k+1)-BB, SP |
//! | [`AlphaOneShapleyMechanism`] / [`AlphaOneMcMechanism`] | §3.1, Thm 3.2 | 1-BB group-SP / efficient SP (α = 1) |
//! | [`LineShapleyMechanism`] / [`LineMcMechanism`] | §3.1, Thm 3.2 | ditto, w.r.t. the chain-form cost (d = 1; see DESIGN.md §3a) |
//! | [`EuclideanSteinerMechanism`] | §3.2, Thms 3.6–3.7 | 2(3^d−1)-BB (12 for d = 2), group-SP |
//!
//! plus the paper's two counterexample instances ([`fig1_instance`],
//! [`PentagonInstance`]).

// Every public item carries rustdoc: substrate crates feed the
// mechanism layers above them, and undocumented invariants become
// silent contract drift there.
#![deny(missing_docs)]
// Library code states its invariants with `.expect("…")` or propagates
// the error; only test code may unwrap (clippy.toml).
#![deny(clippy::unwrap_used)]

pub mod euclidean_optimal;
pub mod euclidean_steiner;
pub mod instances;
pub mod nwst_mechanism;
pub mod universal_mc;
pub mod universal_shapley;
pub mod wireless_mechanism;

pub use euclidean_optimal::{
    AlphaOneMcMechanism, AlphaOneShapleyMechanism, LineMcMechanism, LineShapleyMechanism,
};
pub use euclidean_steiner::{EuclideanSteinerMechanism, SteinerOutcome};
pub use instances::{fig1_instance, PentagonInstance};
pub use nwst_mechanism::NwstCostSharingMechanism;
pub use universal_mc::UniversalMcMechanism;
pub use universal_shapley::UniversalShapleyMechanism;
pub use wireless_mechanism::{WirelessMulticastMechanism, WirelessOutcome};

#[cfg(test)]
mod fig1_tests {
    use super::*;
    use wmcs_game::{find_group_deviation, find_unilateral_deviation, Mechanism};
    use wmcs_geom::approx_eq;

    fn fig1_mechanism() -> NwstCostSharingMechanism {
        let (g, terminals, _) = fig1_instance();
        NwstCostSharingMechanism::new(g, terminals)
    }

    /// The worked example of §2.2.2, truthful run: Sp2 (ratio 1) then the
    /// path 1→4→6 (ratio 3/2): shares all 3/2, welfares (3/2, 3/2, 3/2, 0).
    #[test]
    fn truthful_run_matches_paper_numbers() {
        let (_, _, u) = fig1_instance();
        let m = fig1_mechanism();
        let out = m.run(&u);
        assert_eq!(out.receivers, vec![0, 1, 2, 3]);
        for p in 0..4 {
            assert!(
                approx_eq(out.shares[p], 1.5),
                "player {p}: share {}",
                out.shares[p]
            );
        }
        assert!(approx_eq(out.welfare(0, &u), 1.5));
        assert!(approx_eq(out.welfare(1, &u), 1.5));
        assert!(approx_eq(out.welfare(2, &u), 1.5));
        assert!(approx_eq(out.welfare(3, &u), 0.0));
        // Revenue covers the built tree (A = 3 + C = 3).
        assert!(approx_eq(out.revenue(), 6.0));
        assert!(approx_eq(out.served_cost, 6.0));
    }

    /// The collusion: x7 under-reports 3/2 − ε; the aggregated budget of
    /// the super-terminal fails the 3/2 path, x7 is dropped, and the
    /// restart buys Sp1 (ratio 4/3) — everyone in the coalition weakly
    /// gains, x1/x5/x6 strictly (5/3 > 3/2).
    #[test]
    fn collusion_run_matches_paper_numbers() {
        let (_, _, u) = fig1_instance();
        let m = fig1_mechanism();
        let eps = 0.3;
        let mut v = u.clone();
        v[3] = 1.5 - eps;
        let out = m.run(&v);
        assert_eq!(out.receivers, vec![0, 1, 2], "x7 must be dropped");
        for p in 0..3 {
            assert!(
                approx_eq(out.shares[p], 4.0 / 3.0),
                "player {p}: share {}",
                out.shares[p]
            );
            assert!(approx_eq(out.welfare(p, &u), 3.0 - 4.0 / 3.0));
        }
        assert!(approx_eq(out.welfare(3, &u), 0.0));
    }

    /// Theorem 2.3 + the Fig. 1 point: unilaterally strategyproof, yet a
    /// coalition (here {1, 5, 6, 7}, realised by x7's lie) profits.
    #[test]
    fn strategyproof_but_not_group_strategyproof() {
        let (_, _, u) = fig1_instance();
        let m = fig1_mechanism();
        assert!(
            find_unilateral_deviation(&m, &u, 1e-7).is_none(),
            "must be unilaterally strategyproof"
        );
        let dev =
            find_group_deviation(&m, &u, 4, 1e-7).expect("the Fig. 1 collusion must be discovered");
        // The deviation includes player 3 (x7) lying downward.
        assert!(dev.coalition.contains(&3));
    }
}
