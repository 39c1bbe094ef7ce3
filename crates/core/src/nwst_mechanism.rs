//! The 1.5 ln k-BB strategyproof mechanism for non-cooperative NWST
//! (§2.2.2, Theorems 2.2–2.3), wrapped in the common [`Mechanism`]
//! interface. Players are the instance's terminals.

use wmcs_game::{Mechanism, MechanismOutcome};
use wmcs_nwst::{nwst_mechanism, BudgetAggregation, NodeWeightedGraph, NwstConfig, NwstOutcome};

/// The NWST cost-sharing mechanism over a fixed node-weighted instance.
#[derive(Debug, Clone)]
pub struct NwstCostSharingMechanism {
    graph: NodeWeightedGraph,
    terminals: Vec<usize>,
    config: NwstConfig,
}

impl NwstCostSharingMechanism {
    /// Wrap an instance; `terminals[i]` is player `i`'s node.
    pub fn new(graph: NodeWeightedGraph, terminals: Vec<usize>) -> Self {
        Self {
            graph,
            terminals,
            config: NwstConfig::default(),
        }
    }

    /// Use a non-default oracle configuration (e.g. Klein–Ravi spiders).
    pub fn with_config(mut self, config: NwstConfig) -> Self {
        self.config = config;
        self
    }

    /// Extension (this reproduction's mitigation of DESIGN.md §3a finding
    /// 2): replace the Eq. (5) scalar aggregation with tight per-member
    /// residual checks and one-at-a-time eviction — serves weakly more
    /// agents and cuts measured SP violations ~3× (experiment T9).
    pub fn with_tight_budgets(mut self) -> Self {
        self.config.aggregation = BudgetAggregation::TightMemberResiduals;
        self
    }

    /// The underlying instance.
    pub fn graph(&self) -> &NodeWeightedGraph {
        &self.graph
    }

    /// Raw driver output (tree nodes/edges included) for a profile.
    pub fn run_raw(&self, reported: &[f64]) -> NwstOutcome {
        nwst_mechanism(&self.graph, &self.terminals, reported, None, &self.config)
    }
}

impl Mechanism for NwstCostSharingMechanism {
    fn n_players(&self) -> usize {
        self.terminals.len()
    }

    fn run(&self, reported: &[f64]) -> MechanismOutcome {
        let out = self.run_raw(reported);
        MechanismOutcome {
            receivers: out.receivers,
            shares: out.shares.into(),
            served_cost: out.cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmcs_game::{
        find_unilateral_deviation, verify_consumer_sovereignty, verify_no_positive_transfers,
        verify_voluntary_participation,
    };
    use wmcs_nwst::nwst_exact_cost;

    /// Hub-and-spoke with a decoy: see wmcs-nwst tests.
    fn star_mechanism() -> NwstCostSharingMechanism {
        let mut g = NodeWeightedGraph::new(vec![2.0, 0.0, 0.0, 0.0, 9.0]);
        for t in 1..=3 {
            g.add_edge(0, t);
            g.add_edge(4, t);
        }
        NwstCostSharingMechanism::new(g, vec![1, 2, 3])
    }

    #[test]
    fn theorem_2_2_budget_bound_on_star() {
        let m = star_mechanism();
        let out = m.run(&[5.0, 5.0, 5.0]);
        assert_eq!(out.receivers, vec![0, 1, 2]);
        let exact =
            nwst_exact_cost(m.graph(), &[1, 2, 3]).expect("star instance connects its terminals");
        // Cost recovery and the (small-k floored) ln bound.
        assert!(out.revenue() + 1e-9 >= out.served_cost);
        let bound = (1.5 * 3.0f64.ln()).max(2.0);
        assert!(out.revenue() <= bound * exact + 1e-6);
    }

    #[test]
    fn theorem_2_3_strategyproof_on_profiles() {
        let m = star_mechanism();
        for u in [
            [5.0, 5.0, 5.0],
            [0.5, 0.9, 3.0],
            [2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0],
            [0.0, 0.0, 10.0],
        ] {
            assert!(
                find_unilateral_deviation(&m, &u, 1e-7).is_none(),
                "profile {u:?} manipulable"
            );
        }
    }

    /// Reproduction finding, pinned (DESIGN.md §3a, experiment T2): the
    /// paper's Theorem 2.3 claims strategyproofness, arguing that a
    /// receiver's share is independent of its report and that VP bounds
    /// the charge by the *true* utility. The second step is not airtight:
    /// the Eq. (5) acceptance check compares the full ratio against the
    /// aggregated budget `v_t = |T_Sp| · min residual`, which undercounts
    /// the group's wealth (`|T_Sp| ≤ |N_t^+|`), so a borderline terminal
    /// can be dropped although its counterfactual charge
    /// (`ratio / |N_t^+|`) was affordable — and *inflating* the report is
    /// then profitable. On this instance player 0 (u ≈ 0.976) is dropped
    /// when truthful but, reporting ≈ 2.95, is served for ≈ 0.964 < u.
    #[test]
    fn eq5_thresholds_are_not_tight_finding() {
        let weights = vec![
            0.0,
            4.306033081975212,
            3.637937320692719,
            0.0,
            2.7015759528865204,
            3.174428980405332,
            0.0,
            1.3424116848400522,
            0.7843059593888575,
            0.5848505178702936,
        ];
        let mut g = NodeWeightedGraph::new(weights);
        for (a, b) in [
            (0, 1),
            (0, 9),
            (0, 5),
            (0, 4),
            (1, 2),
            (1, 9),
            (2, 3),
            (2, 8),
            (3, 4),
            (4, 5),
            (5, 6),
            (5, 7),
            (6, 7),
            (7, 8),
            (7, 9),
            (8, 9),
        ] {
            g.add_edge(a, b);
        }
        let m = NwstCostSharingMechanism::new(g, vec![0, 3, 6]);
        let u = [0.9760449285010226, 0.8605792307473061, 2.540302869636565];
        let truthful = m.run(&u);
        assert!(!truthful.is_receiver(0), "player 0 dropped when truthful");
        let mut v = u;
        v[0] = 2.9520898570020453;
        let lied = m.run(&v);
        assert!(lied.is_receiver(0), "inflated report gets served");
        assert!(
            lied.shares[0] < u[0],
            "served share {} is below the true utility {} — profitable lie",
            lied.shares[0],
            u[0]
        );
        // The extension fixes it: with tight per-member checks the same
        // instance admits no profitable unilateral deviation.
        let tight = m.clone().with_tight_budgets();
        assert!(
            find_unilateral_deviation(&tight, &u, 1e-7).is_none(),
            "tight aggregation must be strategyproof on the pinned instance"
        );
    }

    #[test]
    fn axioms_npt_vp_cs() {
        let m = star_mechanism();
        for u in [[5.0, 5.0, 5.0], [0.1, 0.1, 0.1], [1.0, 0.0, 1.0]] {
            let out = m.run(&u);
            assert!(verify_no_positive_transfers(&out));
            assert!(verify_voluntary_participation(&out, &u));
        }
        assert!(verify_consumer_sovereignty(&m, &[0.1, 0.1, 0.1], 1e9));
    }
}
