//! # wmcs-nwst — node-weighted Steiner trees
//!
//! The NWST substrate of §2.2: node-weighted graphs and shortest paths,
//! spider / branch-spider minimum-ratio oracles (Klein–Ravi \[33\] and a
//! Guha–Khuller-style \[28\] branch extension), the greedy shrink algorithm
//! `A_ST`, the paper's NWST cost-sharing mechanism (Theorems 2.2 / 2.3),
//! an exact exponential optimum for ratio measurements, and the
//! MEMT ↔ NWST reduction of Caragiannis et al. \[9\] that powers the
//! 3 ln(k+1)-BB wireless mechanism of §2.2.3.

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

pub mod exact;
pub mod graph;
pub mod greedy;
pub mod reduction;
pub mod spider;

pub use exact::nwst_exact_cost;
pub use graph::NodeWeightedGraph;
pub use greedy::{nwst_approximate, nwst_mechanism, BudgetAggregation, NwstConfig, NwstOutcome};
pub use reduction::{NodeKind, ReducedInstance, ReducedSolution};
pub use spider::{cheapest_connection, find_min_ratio_spider, Group, SpiderCandidate};

#[cfg(test)]
mod integration_tests {
    use super::*;

    /// A two-hub instance: four terminals; hubs h1 (weight 2, serving
    /// t0, t1, t2) and h2 (weight 3, serving t2, t3), plus a bridge node
    /// (weight 1) between the hubs.
    fn two_hubs() -> (NodeWeightedGraph, Vec<usize>) {
        // ids: 0..=3 terminals, 4 = h1, 5 = h2, 6 = bridge
        let mut g = NodeWeightedGraph::new(vec![0.0, 0.0, 0.0, 0.0, 2.0, 3.0, 1.0]);
        g.add_edge(4, 0);
        g.add_edge(4, 1);
        g.add_edge(4, 2);
        g.add_edge(5, 2);
        g.add_edge(5, 3);
        g.add_edge(4, 6);
        g.add_edge(6, 5);
        (g, vec![0, 1, 2, 3])
    }

    #[test]
    fn greedy_tree_spans_all_terminals_budget_balancedly() {
        let (g, ts) = two_hubs();
        let out = nwst_approximate(&g, &ts, &NwstConfig::default());
        assert_eq!(out.receivers, vec![0, 1, 2, 3]);
        assert!(g.is_connected_subgraph(&out.tree_nodes, &ts));
        let revenue: f64 = out.shares.iter().sum();
        assert!(revenue + 1e-9 >= out.cost);
        // Exact optimum: h1 + h2 = 5 (bridge unnecessary: t2 touches both).
        let exact = nwst_exact_cost(&g, &ts).expect("two-hub instance is connected");
        assert!((exact - 5.0).abs() < 1e-9);
        assert!(out.cost >= exact - 1e-9);
    }

    #[test]
    fn mechanism_with_tight_budgets_still_recovers_cost() {
        let (g, ts) = two_hubs();
        let out = nwst_mechanism(&g, &ts, &[1.0, 1.0, 2.0, 0.2], None, &NwstConfig::default());
        let revenue: f64 = out.shares.iter().sum();
        assert!(revenue + 1e-9 >= out.cost);
        for &r in &out.receivers {
            assert!(out.shares[r] <= [1.0, 1.0, 2.0, 0.2][r] + 1e-9);
        }
    }
}
