//! Power assignments and the transmission digraphs they induce.
//!
//! A power assignment `π : S → R_+` implements the directed edge
//! `⟨x_i, x_j⟩` iff `π(x_i) ≥ c(x_i, x_j)` (§1); its cost is
//! `Σ_x π(x)`. The *Steiner heuristic* of §3.2 turns any tree containing
//! the source into an assignment: orient the tree downward and give every
//! station the cost of its most expensive child edge — by the wireless
//! multicast advantage the assignment's cost never exceeds the tree's.

use crate::network::WirelessNetwork;
use wmcs_geom::{approx_ge, approx_le};
use wmcs_graph::RootedTree;

/// A power assignment over the stations of a network.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerAssignment {
    powers: Vec<f64>,
}

impl PowerAssignment {
    /// All-zero assignment.
    pub fn zero(n: usize) -> Self {
        Self {
            powers: vec![0.0; n],
        }
    }

    /// Assignment from explicit power levels.
    pub fn new(powers: Vec<f64>) -> Self {
        assert!(powers.iter().all(|&p| p >= 0.0), "powers are non-negative");
        Self { powers }
    }

    /// The Steiner-heuristic assignment implementing a rooted tree: each
    /// station emits the maximum cost among its child edges.
    pub fn from_tree(net: &WirelessNetwork, tree: &RootedTree) -> Self {
        let mut powers = vec![0.0_f64; net.n_stations()];
        for (parent, child) in tree.edges() {
            powers[parent] = powers[parent].max(net.cost(parent, child));
        }
        Self { powers }
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.powers.len()
    }

    /// True for an empty network.
    pub fn is_empty(&self) -> bool {
        self.powers.is_empty()
    }

    /// Power of station `x`.
    pub fn power(&self, x: usize) -> f64 {
        self.powers[x]
    }

    /// Raise station `x` to at least `p`.
    pub fn raise(&mut self, x: usize, p: f64) {
        assert!(p >= 0.0);
        if p > self.powers[x] {
            self.powers[x] = p;
        }
    }

    /// Total power consumption `cost(π) = Σ_x π(x)` (§1), summed in
    /// ascending station id — the order contract the warm engines'
    /// served cost reproduces bit for bit, scanning their frames in
    /// station order and leaving out exact `+0.0` terms
    /// (`Shapley::served_cost`, `NetWorth::vcg_outcome`).
    pub fn total_cost(&self) -> f64 {
        self.powers.iter().sum()
    }

    /// Directed edges of the induced transmission digraph `G_π`.
    pub fn digraph_edges(&self, net: &WirelessNetwork) -> Vec<(usize, usize)> {
        let n = self.len();
        let mut edges = Vec::new();
        for i in 0..n {
            if self.powers[i] <= 0.0 {
                continue;
            }
            for j in 0..n {
                if i != j && approx_ge(self.powers[i], net.cost(i, j)) {
                    edges.push((i, j));
                }
            }
        }
        edges
    }

    /// Stations reachable from the source in the transmission digraph.
    pub fn reachable_from_source(&self, net: &WirelessNetwork) -> Vec<usize> {
        let n = self.len();
        let mut seen = vec![false; n];
        seen[net.source()] = true;
        let mut queue = std::collections::VecDeque::from([net.source()]);
        while let Some(i) = queue.pop_front() {
            if self.powers[i] <= 0.0 {
                continue;
            }
            for j in 0..n {
                if !seen[j] && approx_le(net.cost(i, j), self.powers[i]) {
                    seen[j] = true;
                    queue.push_back(j);
                }
            }
        }
        (0..n).filter(|&x| seen[x]).collect()
    }

    /// True if the assignment implements a multicast from the source to all
    /// of `targets` (§1: `G_π` contains a tree rooted at `s` spanning them).
    pub fn multicasts_to(&self, net: &WirelessNetwork, targets: &[usize]) -> bool {
        let reach = self.reachable_from_source(net);
        targets.iter().all(|t| reach.binary_search(t).is_ok())
    }

    /// Extract an explicit multicast tree rooted at the source spanning
    /// `targets` from the transmission digraph, or `None` if infeasible.
    pub fn multicast_tree(&self, net: &WirelessNetwork, targets: &[usize]) -> Option<RootedTree> {
        let n = self.len();
        let s = net.source();
        let mut parent = vec![None; n];
        let mut seen = vec![false; n];
        seen[s] = true;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(i) = queue.pop_front() {
            if self.powers[i] <= 0.0 {
                continue;
            }
            for j in 0..n {
                if !seen[j] && i != j && approx_le(net.cost(i, j), self.powers[i]) {
                    seen[j] = true;
                    parent[j] = Some(i);
                    queue.push_back(j);
                }
            }
        }
        if targets.iter().all(|&t| seen[t]) {
            let full = RootedTree::from_parents(s, parent);
            Some(full.steiner_subtree(targets))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmcs_geom::{approx_eq, Point, PowerModel};

    /// Stations on a line at 0, 1, 2, 3 with α = 2; source at 0.
    fn line_net() -> WirelessNetwork {
        let pts = (0..4).map(|i| Point::on_line(i as f64)).collect();
        WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0)
    }

    #[test]
    fn zero_assignment_reaches_only_source() {
        let net = line_net();
        let pa = PowerAssignment::zero(4);
        assert_eq!(pa.reachable_from_source(&net), vec![0]);
        assert!(!pa.multicasts_to(&net, &[1]));
        assert!(pa.multicasts_to(&net, &[]));
    }

    #[test]
    fn relay_chain_reaches_everyone() {
        let net = line_net();
        // Unit hops: every station transmits power 1 (= 1²).
        let pa = PowerAssignment::new(vec![1.0, 1.0, 1.0, 0.0]);
        assert_eq!(pa.reachable_from_source(&net), vec![0, 1, 2, 3]);
        assert!(approx_eq(pa.total_cost(), 3.0));
        assert!(pa.multicasts_to(&net, &[3]));
    }

    #[test]
    fn direct_blast_is_costlier_than_relaying() {
        let net = line_net();
        let direct = PowerAssignment::new(vec![9.0, 0.0, 0.0, 0.0]);
        assert!(direct.multicasts_to(&net, &[1, 2, 3]));
        let relay = PowerAssignment::new(vec![1.0, 1.0, 1.0, 0.0]);
        assert!(relay.total_cost() < direct.total_cost());
    }

    #[test]
    fn from_tree_takes_max_child_edge() {
        let net = line_net();
        // Tree 0 → 1, 0 → 2, 2 → 3: power(0) = c(0,2) = 4, power(2) = 1.
        let tree = RootedTree::from_parents(0, vec![None, Some(0), Some(0), Some(2)]);
        let pa = PowerAssignment::from_tree(&net, &tree);
        assert!(approx_eq(pa.power(0), 4.0));
        assert!(approx_eq(pa.power(2), 1.0));
        assert_eq!(pa.power(1), 0.0);
        assert!(approx_eq(pa.total_cost(), 5.0));
        // Wireless multicast advantage: assignment cost ≤ tree cost (4+1+1).
        assert!(pa.total_cost() <= 6.0);
        assert!(pa.multicasts_to(&net, &[1, 2, 3]));
    }

    #[test]
    fn multicast_tree_extraction() {
        let net = line_net();
        let pa = PowerAssignment::new(vec![1.0, 1.0, 1.0, 0.0]);
        let tree = pa.multicast_tree(&net, &[3]).expect("reachable");
        assert_eq!(tree.path_from_root(3), vec![0, 1, 2, 3]);
        assert!(pa.multicast_tree(&net, &[3]).is_some());
        let none = PowerAssignment::zero(4).multicast_tree(&net, &[2]);
        assert!(none.is_none());
    }

    #[test]
    fn digraph_edges_respect_thresholds() {
        let net = line_net();
        let pa = PowerAssignment::new(vec![4.0, 0.0, 0.0, 0.0]);
        let edges = pa.digraph_edges(&net);
        assert!(edges.contains(&(0, 1)));
        assert!(edges.contains(&(0, 2)));
        assert!(!edges.contains(&(0, 3)));
    }

    #[test]
    fn raise_is_monotone() {
        let mut pa = PowerAssignment::zero(2);
        pa.raise(0, 2.0);
        pa.raise(0, 1.0);
        assert_eq!(pa.power(0), 2.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_rejected() {
        let _ = PowerAssignment::new(vec![-1.0]);
    }
}
