//! Jain–Vazirani cross-monotonic 2-budget-balanced Steiner cost shares \[29\].
//!
//! The paper's Theorem 3.6 lifts the 2-BB cross-monotonic cost-sharing
//! family of Jain and Vazirani (built on the classical MST-based Steiner
//! approximation \[34\] and Edmonds' primal–dual branching algorithm \[16\]) to
//! wireless multicast. The construction implemented here:
//!
//! 1. take the **metric closure** of the cost graph and restrict it to
//!    `R ∪ {root}`;
//! 2. grow a dual (moat) of uniform rate around every component not yet
//!    containing the root — with uniform growth, closure edge `{u, v}` goes
//!    tight exactly at time `c(u, v)`, so the merge schedule is Kruskal's;
//! 3. while a terminal's component does not contain the root, the terminal
//!    accrues share at rate `1 / |terminals in its component|` (the equal
//!    split is the canonical member of the JV family `F`, which is
//!    parameterised by one monotone mapping `f_i` per user);
//! 4. the output tree expands the used closure edges into original-graph
//!    shortest paths (pruned).
//!
//! Invariants (verified by the tests below):
//! * `Σ shares = w(MST of the closure on R ∪ {root})` — telescoping of the
//!   component-count integral over the Kruskal timeline;
//! * `tree_cost ≤ Σ shares ≤ 2 · OPT_Steiner(R ∪ {root})` — 2-approximate
//!   budget balance in the sense of \[29\];
//! * shares are **cross-monotonic**: enlarging `R` never raises the share
//!   of an existing terminal (merge times are fixed edge costs, so
//!   components only get more terminals and capture the root earlier).

use crate::dense::CostMatrix;
use crate::mst::prim_mst_subset;
use crate::shortest_path::MetricClosure;
use crate::steiner::SteinerTree;
use crate::union_find::UnionFind;

/// Result of the JV share computation for a terminal set `R`.
#[derive(Debug, Clone)]
pub struct JvShares {
    /// Steiner tree in the original graph connecting `root` to the
    /// terminals (closure MST expanded and pruned).
    pub tree: SteinerTree,
    /// Weight of the MST of the metric closure on `R ∪ {root}`; equals the
    /// sum of all shares.
    pub closure_mst_cost: f64,
    /// Per-vertex share (zero for vertices outside `R`).
    pub share: Vec<f64>,
}

/// Compute the JV cross-monotonic cost shares for `terminals` w.r.t. `root`,
/// splitting each component's growth equally among its terminals.
pub fn jv_steiner_shares(costs: &CostMatrix, root: usize, terminals: &[usize]) -> JvShares {
    let n = costs.len();
    let mut share = vec![0.0_f64; n];
    if terminals.is_empty() {
        return JvShares {
            tree: SteinerTree {
                edges: vec![],
                cost: 0.0,
            },
            closure_mst_cost: 0.0,
            share,
        };
    }
    let closure = MetricClosure::of(costs);
    let mut members: Vec<usize> = terminals.to_vec();
    members.push(root);
    members.sort_unstable();
    members.dedup();
    assert!(
        members.len() == terminals.len() + 1,
        "terminals must be distinct and different from the root"
    );
    for &t in terminals {
        assert!(
            closure.dist[root][t].is_finite(),
            "terminal {t} cannot reach the root"
        );
    }
    // Kruskal timeline over the closure restricted to `members`.
    let mut events: Vec<(f64, usize, usize)> = Vec::new();
    for (a, &u) in members.iter().enumerate() {
        for &v in &members[a + 1..] {
            events.push((closure.dist[u][v], u, v));
        }
    }
    events.sort_by(|x, y| x.0.total_cmp(&y.0).then((x.1, x.2).cmp(&(y.1, y.2))));

    let mut is_terminal = vec![false; n];
    for &t in terminals {
        is_terminal[t] = true;
    }
    let mut uf = UnionFind::new(n);
    let mut t_prev = 0.0_f64;
    let mut mst_edges: Vec<(usize, usize)> = Vec::new();
    let mut closure_mst_cost = 0.0;
    let mut joined_root = terminals.is_empty();
    for &(t_ev, u, v) in &events {
        if joined_root {
            break;
        }
        let dt = t_ev - t_prev;
        if dt > 0.0 {
            // Accrue shares over [t_prev, t_ev): every component without the
            // root splits its unit growth among its terminals.
            accrue(&mut uf, &members, &is_terminal, root, dt, &mut share);
            t_prev = t_ev;
        }
        if uf.find(u) != uf.find(v) {
            uf.union(u, v);
            mst_edges.push((u, v));
            closure_mst_cost += t_ev;
            joined_root = terminals.iter().all(|&t| uf.connected(t, root));
        }
    }
    debug_assert!(joined_root, "Kruskal must connect all terminals");

    // Expand the closure MST into an original-graph Steiner tree.
    let mut used = vec![false; n];
    for &(u, v) in &mst_edges {
        for w in closure.expand_path(u, v) {
            used[w] = true;
        }
    }
    let union: Vec<usize> = (0..n).filter(|&v| used[v]).collect();
    let sub = prim_mst_subset(costs, &union);
    let tree = prune_to_terminals(costs, sub.edges, root, terminals);
    JvShares {
        tree,
        closure_mst_cost,
        share,
    }
}

fn accrue(
    uf: &mut UnionFind,
    members: &[usize],
    is_terminal: &[bool],
    root: usize,
    dt: f64,
    share: &mut [f64],
) {
    use std::collections::BTreeMap;
    let root_rep = uf.find(root);
    let mut comp_size: BTreeMap<usize, usize> = BTreeMap::new();
    for &m in members {
        if is_terminal[m] {
            let rep = uf.find(m);
            if rep != root_rep {
                *comp_size.entry(rep).or_insert(0) += 1;
            }
        }
    }
    for &m in members {
        if is_terminal[m] {
            let rep = uf.find(m);
            if rep != root_rep {
                share[m] += dt / comp_size[&rep] as f64;
            }
        }
    }
}

fn prune_to_terminals(
    costs: &CostMatrix,
    mut edges: Vec<(usize, usize)>,
    root: usize,
    terminals: &[usize],
) -> SteinerTree {
    let n = costs.len();
    let mut keep = vec![false; n];
    keep[root] = true;
    for &t in terminals {
        keep[t] = true;
    }
    loop {
        let mut degree = vec![0usize; n];
        for &(u, v) in &edges {
            degree[u] += 1;
            degree[v] += 1;
        }
        let before = edges.len();
        edges.retain(|&(u, v)| {
            let drop_u = degree[u] == 1 && !keep[u];
            let drop_v = degree[v] == 1 && !keep[v];
            !(drop_u || drop_v)
        });
        if edges.len() == before {
            break;
        }
    }
    let cost = costs.total_cost(&edges);
    SteinerTree { edges, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steiner::dreyfus_wagner_cost;
    use crate::union_find::UnionFind;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_geom::{approx_eq, Point, PowerModel};

    fn connects(n: usize, root: usize, terminals: &[usize], edges: &[(usize, usize)]) -> bool {
        let mut uf = UnionFind::new(n);
        for &(u, v) in edges {
            uf.union(u, v);
        }
        terminals.iter().all(|&t| uf.connected(t, root))
    }

    #[test]
    fn single_terminal_pays_its_path() {
        // root -1- a -1- b: terminal b pays the 2-hop shortest path.
        let m = CostMatrix::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]);
        let r = jv_steiner_shares(&m, 0, &[2]);
        assert!(approx_eq(r.share[2], 2.0));
        assert!(approx_eq(r.closure_mst_cost, 2.0));
        assert!(approx_eq(r.tree.cost, 2.0));
        assert!(connects(3, 0, &[2], &r.tree.edges));
    }

    #[test]
    fn far_pair_splits_shared_segment() {
        // Terminals a, b mutually at distance 1, both at distance 10 from
        // the root: they merge at t = 1, then share the trek to the root.
        let m = CostMatrix::from_edges(3, &[(0, 1, 10.0), (0, 2, 10.0), (1, 2, 1.0)]);
        let r = jv_steiner_shares(&m, 0, &[1, 2]);
        // Each grows alone in [0, 1): +1 each. Merged comp in [1, 10): +4.5
        // each. Sum = 11 = MST(closure) = 1 + 10.
        assert!(approx_eq(r.share[1], 5.5));
        assert!(approx_eq(r.share[2], 5.5));
        assert!(approx_eq(r.closure_mst_cost, 11.0));
    }

    #[test]
    fn shares_sum_to_closure_mst() {
        let pts = vec![
            Point::xy(0.0, 0.0),
            Point::xy(2.0, 1.0),
            Point::xy(4.0, 0.0),
            Point::xy(1.0, 3.0),
            Point::xy(3.0, 3.0),
        ];
        let m = CostMatrix::from_points(&pts, &PowerModel::free_space());
        let terminals = [1, 2, 3, 4];
        let r = jv_steiner_shares(&m, 0, &terminals);
        let sum: f64 = r.share.iter().sum();
        assert!(approx_eq(sum, r.closure_mst_cost));
    }

    #[test]
    fn empty_terminal_set_is_free() {
        let m = CostMatrix::from_edges(2, &[(0, 1, 1.0)]);
        let r = jv_steiner_shares(&m, 0, &[]);
        assert_eq!(r.tree.cost, 0.0);
        assert!(r.share.iter().all(|&s| s == 0.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn two_approximate_budget_balance(seed in 0u64..1000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(3usize..9);
            let k = rng.gen_range(1usize..n);
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::xy(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
                .collect();
            let m = CostMatrix::from_points(&pts, &PowerModel::free_space());
            let terminals: Vec<usize> = (1..=k).collect();
            let r = jv_steiner_shares(&m, 0, &terminals);
            let sum: f64 = r.share.iter().sum();
            // Cost recovery for the built tree…
            prop_assert!(sum + 1e-6 >= r.tree.cost,
                "shares {} below tree cost {}", sum, r.tree.cost);
            // …and 2-approximate competitiveness against the true optimum.
            let mut all = terminals.clone();
            all.push(0);
            let opt = dreyfus_wagner_cost(&m, &all);
            prop_assert!(sum <= 2.0 * opt + 1e-6,
                "shares {} exceed 2 OPT = {}", sum, 2.0 * opt);
            // Feasibility.
            prop_assert!(connects(n, 0, &terminals, &r.tree.edges));
        }

        #[test]
        fn shares_are_cross_monotonic(seed in 0u64..500) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(4usize..10);
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::xy(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
                .collect();
            let m = CostMatrix::from_points(&pts, &PowerModel::free_space());
            let k = rng.gen_range(1usize..(n - 1));
            let small: Vec<usize> = (1..=k).collect();
            let large: Vec<usize> = (1..=k + 1).collect();
            let rs = jv_steiner_shares(&m, 0, &small);
            let rl = jv_steiner_shares(&m, 0, &large);
            for &t in &small {
                prop_assert!(rl.share[t] <= rs.share[t] + 1e-6,
                    "share of {} rose from {} to {}", t, rs.share[t], rl.share[t]);
            }
        }

        #[test]
        fn share_is_independent_of_terminal_order(seed in 0u64..200) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(4usize..9);
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::xy(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
                .collect();
            let m = CostMatrix::from_points(&pts, &PowerModel::free_space());
            let fwd: Vec<usize> = (1..n).collect();
            let mut rev = fwd.clone();
            rev.reverse();
            let a = jv_steiner_shares(&m, 0, &fwd);
            let b = jv_steiner_shares(&m, 0, &rev);
            for v in 0..n {
                prop_assert!(approx_eq(a.share[v], b.share[v]));
            }
        }
    }
}
