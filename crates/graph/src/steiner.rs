//! Edge-weighted Steiner trees: the KMB 2-approximation and the exact
//! Dreyfus–Wagner dynamic program.
//!
//! §3.2 of the paper builds its 2(3^d − 1)-BB mechanisms on Steiner trees in
//! the cost graph (Lemma 3.5, Theorem 3.6); \[29\]'s 2-BB methods start from
//! the classical MST-based Steiner approximation \[34\] = Kou–Markowsky–Berman.
//! The exact DP is the optimum reference for the approximation-ratio tables.

use crate::dense::CostMatrix;
use crate::mst::{kruskal, prim_mst_subset};
use crate::shortest_path::MetricClosure;

/// A Steiner tree as an undirected edge list in the original graph.
#[derive(Debug, Clone, PartialEq)]
pub struct SteinerTree {
    /// Undirected edges `(u, v)` with `u < v`.
    pub edges: Vec<(usize, usize)>,
    /// Total edge cost.
    pub cost: f64,
}

impl SteinerTree {
    /// Vertices touched by the tree.
    pub fn nodes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Kou–Markowsky–Berman 2-approximate Steiner tree spanning `terminals`.
///
/// 1. metric closure on the terminals, 2. MST of the closure, 3. expand
///    closure edges into shortest paths, 4. MST of the union subgraph,
///    5. prune non-terminal leaves.
pub fn kmb_steiner(costs: &CostMatrix, terminals: &[usize]) -> SteinerTree {
    assert!(!terminals.is_empty());
    if terminals.len() == 1 {
        return SteinerTree {
            edges: vec![],
            cost: 0.0,
        };
    }
    let n = costs.len();
    let closure = MetricClosure::of(costs);
    // MST of the terminal closure graph.
    let mut closure_edges: Vec<(usize, usize, f64)> = Vec::new();
    for (a, &u) in terminals.iter().enumerate() {
        for &v in &terminals[a + 1..] {
            let w = closure.dist[u][v];
            assert!(w.is_finite(), "terminals {u} and {v} are disconnected");
            closure_edges.push((u, v, w));
        }
    }
    // Work in terminal-index space for kruskal. A dense station → terminal
    // index table keeps the reindexing free of hashed containers (banned
    // by clippy's `disallowed_types`) and is O(n) on graphs whose cost
    // matrix is already O(n²).
    let mut tidx = vec![usize::MAX; n];
    for (i, &t) in terminals.iter().enumerate() {
        tidx[t] = i;
    }
    let reindexed: Vec<(usize, usize, f64)> = closure_edges
        .iter()
        .map(|&(u, v, w)| (tidx[u], tidx[v], w))
        .collect();
    let closure_mst = kruskal(terminals.len(), &reindexed);
    // Expand into original-graph paths; collect the union of vertices.
    let mut used = vec![false; n];
    for &(a, b) in &closure_mst.edges {
        for v in closure.expand_path(terminals[a], terminals[b]) {
            used[v] = true;
        }
    }
    let union: Vec<usize> = (0..n).filter(|&v| used[v]).collect();
    // MST of the induced union subgraph, then prune non-terminal leaves.
    let sub_mst = prim_mst_subset(costs, &union);
    prune_non_terminal_leaves(costs, sub_mst.edges, terminals)
}

/// Iteratively remove degree-1 vertices that are not terminals.
fn prune_non_terminal_leaves(
    costs: &CostMatrix,
    mut edges: Vec<(usize, usize)>,
    terminals: &[usize],
) -> SteinerTree {
    let n = costs.len();
    let mut is_terminal = vec![false; n];
    for &t in terminals {
        is_terminal[t] = true;
    }
    loop {
        let mut degree = vec![0usize; n];
        for &(u, v) in &edges {
            degree[u] += 1;
            degree[v] += 1;
        }
        let before = edges.len();
        edges.retain(|&(u, v)| {
            let u_leaf = degree[u] == 1 && !is_terminal[u];
            let v_leaf = degree[v] == 1 && !is_terminal[v];
            !(u_leaf || v_leaf)
        });
        if edges.len() == before {
            break;
        }
    }
    let cost = costs.total_cost(&edges);
    SteinerTree { edges, cost }
}

/// Exact minimum Steiner tree cost by the Dreyfus–Wagner dynamic program.
/// `O(3^k n + 2^k n^2)` — intended for `k ≤ ~12` terminals as the optimum
/// reference in the benches.
pub fn dreyfus_wagner_cost(costs: &CostMatrix, terminals: &[usize]) -> f64 {
    let k = terminals.len();
    assert!(k <= 20, "Dreyfus–Wagner is exponential in |terminals|");
    if k <= 1 {
        return 0.0;
    }
    let n = costs.len();
    let closure = MetricClosure::of(costs);
    let d = &closure.dist;
    let full: usize = (1 << k) - 1;
    // dp[mask][v] = min cost of a tree connecting terminal set `mask` ∪ {v}.
    let mut dp = vec![vec![f64::INFINITY; n]; 1 << k];
    for (i, &t) in terminals.iter().enumerate() {
        for v in 0..n {
            dp[1 << i][v] = d[t][v];
        }
    }
    for mask in 1..=full {
        if mask.count_ones() <= 1 {
            continue;
        }
        // Merge two sub-trees at v.
        for v in 0..n {
            let mut sub = (mask - 1) & mask;
            while sub > 0 {
                if sub < mask - sub {
                    break; // each unordered pair once
                }
                let a = dp[sub][v];
                let b = dp[mask ^ sub][v];
                if a + b < dp[mask][v] {
                    dp[mask][v] = a + b;
                }
                sub = (sub - 1) & mask;
            }
        }
        // Relax through the metric closure: dp[mask][v] = min_u dp[mask][u] + d(u, v).
        // One Bellman-style pass over the closure suffices because d is metric.
        let snapshot: Vec<f64> = dp[mask].clone();
        for v in 0..n {
            let mut best = snapshot[v];
            for u in 0..n {
                let c = snapshot[u] + d[u][v];
                if c < best {
                    best = c;
                }
            }
            dp[mask][v] = best;
        }
    }
    terminals
        .iter()
        .map(|&t| dp[full][t])
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_geom::{approx_eq, Point, PowerModel};

    /// The classic Steiner example: 3 terminals at corners of an equilateral
    /// triangle with a central hub vertex; the hub tree beats the MST.
    fn hub_instance() -> (CostMatrix, Vec<usize>) {
        // Terminals 0, 1, 2 pairwise distance 2; hub 3 at distance 1.1 from each.
        let m = CostMatrix::from_edges(
            4,
            &[
                (0, 1, 2.0),
                (0, 2, 2.0),
                (1, 2, 2.0),
                (0, 3, 1.1),
                (1, 3, 1.1),
                (2, 3, 1.1),
            ],
        );
        (m, vec![0, 1, 2])
    }

    #[test]
    fn exact_uses_hub() {
        let (m, t) = hub_instance();
        assert!(approx_eq(dreyfus_wagner_cost(&m, &t), 3.3));
    }

    #[test]
    fn kmb_is_within_factor_two_on_hub() {
        let (m, t) = hub_instance();
        let kmb = kmb_steiner(&m, &t);
        let opt = dreyfus_wagner_cost(&m, &t);
        assert!(kmb.cost >= opt - 1e-9);
        assert!(kmb.cost <= 2.0 * opt + 1e-9);
    }

    #[test]
    fn two_terminals_reduce_to_shortest_path() {
        let m = CostMatrix::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0), (2, 3, 1.0)]);
        let st = kmb_steiner(&m, &[0, 2]);
        assert!(approx_eq(st.cost, 2.0));
        assert!(approx_eq(dreyfus_wagner_cost(&m, &[0, 2]), 2.0));
    }

    #[test]
    fn single_terminal_is_free() {
        let (m, _) = hub_instance();
        assert_eq!(kmb_steiner(&m, &[1]).cost, 0.0);
        assert_eq!(dreyfus_wagner_cost(&m, &[1]), 0.0);
    }

    #[test]
    fn steiner_tree_nodes_contains_terminals() {
        let (m, t) = hub_instance();
        let st = kmb_steiner(&m, &t);
        let nodes = st.nodes();
        for ti in t {
            assert!(nodes.contains(&ti));
        }
    }

    #[test]
    fn pruning_removes_dangling_paths() {
        // Star: terminal 0 - hub 1 - terminal 2, plus a dangling 1-3 edge
        // that an unpruned union could retain.
        let m = CostMatrix::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (1, 3, 0.1)]);
        let st = kmb_steiner(&m, &[0, 2]);
        assert!(!st.nodes().contains(&3));
        assert!(approx_eq(st.cost, 2.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn kmb_within_2x_of_exact_on_random_euclidean(seed in 0u64..1000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(4usize..9);
            let k = rng.gen_range(2usize..=n.min(5));
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::xy(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
                .collect();
            let m = CostMatrix::from_points(&pts, &PowerModel::free_space());
            let terminals: Vec<usize> = (0..k).collect();
            let opt = dreyfus_wagner_cost(&m, &terminals);
            let apx = kmb_steiner(&m, &terminals);
            prop_assert!(apx.cost + 1e-9 >= opt,
                "approximation beat the optimum: {} < {}", apx.cost, opt);
            prop_assert!(apx.cost <= 2.0 * opt + 1e-6,
                "KMB exceeded factor 2: {} vs {}", apx.cost, opt);
        }

        #[test]
        fn exact_cost_is_monotone_in_terminal_set(seed in 0u64..200) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(4usize..8);
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::xy(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
                .collect();
            let m = CostMatrix::from_points(&pts, &PowerModel::linear());
            let small: Vec<usize> = vec![0, 1];
            let large: Vec<usize> = vec![0, 1, 2, 3];
            prop_assert!(
                dreyfus_wagner_cost(&m, &small) <= dreyfus_wagner_cost(&m, &large) + 1e-9
            );
        }
    }
}
