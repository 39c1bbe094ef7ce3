//! The MST broadcast/multicast heuristic of Wieselthier–Nguyen–Ephremides
//! \[50\] and the Steiner-tree heuristic of §3.2.
//!
//! * broadcast: tune powers so the transmission digraph includes an MST of
//!   the cost graph — approximation ratio at most `3^d − 1` for α ≥ d
//!   (Flammini et al. \[21\], Lemma 3.4), improved to 6 for d = 2 (Ambühl
//!   \[1\]);
//! * multicast: prune the rooted MST to the union of root→receiver paths;
//! * Steiner: orient any Steiner tree connecting `s` and `R` downward; the
//!   induced assignment costs at most the tree (Lemma 3.5 machinery).

use crate::network::WirelessNetwork;
use crate::power::PowerAssignment;
use wmcs_graph::{kmb_steiner, prim_mst, RootedTree, SteinerTree};

/// Broadcast power assignment implementing the MST of the cost graph.
pub fn mst_broadcast(net: &WirelessNetwork) -> PowerAssignment {
    let mst = prim_mst(net.costs());
    let tree = mst.rooted_at(net.n_stations(), net.source());
    PowerAssignment::from_tree(net, &tree)
}

/// Multicast power assignment: the rooted MST pruned to the receivers.
pub fn mst_multicast(net: &WirelessNetwork, receivers: &[usize]) -> PowerAssignment {
    let mst = prim_mst(net.costs());
    let tree = mst.rooted_at(net.n_stations(), net.source());
    let pruned = tree.steiner_subtree(receivers);
    PowerAssignment::from_tree(net, &pruned)
}

/// The Steiner heuristic of §3.2: build a (2-approximate, KMB) Steiner tree
/// connecting the source and the receivers in the cost graph, orient it
/// downward, and emit per-station powers. Returns the tree and assignment.
pub fn steiner_multicast(
    net: &WirelessNetwork,
    receivers: &[usize],
) -> (SteinerTree, PowerAssignment) {
    let mut terminals = receivers.to_vec();
    terminals.push(net.source());
    terminals.sort_unstable();
    terminals.dedup();
    let st = kmb_steiner(net.costs(), &terminals);
    let rooted = RootedTree::from_undirected_edges(net.n_stations(), net.source(), &st.edges);
    let pa = PowerAssignment::from_tree(net, &rooted);
    (st, pa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::random_net_alpha;
    use crate::memt::memt_exact;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn mst_broadcast_reaches_everyone() {
        let net = random_net_alpha(1, 8, 2.0);
        let pa = mst_broadcast(&net);
        let all: Vec<usize> = (1..8).collect();
        assert!(pa.multicasts_to(&net, &all));
    }

    #[test]
    fn mst_multicast_reaches_receivers_cheaper_than_broadcast() {
        let net = random_net_alpha(2, 8, 2.0);
        let receivers = vec![3, 5];
        let multicast = mst_multicast(&net, &receivers);
        let broadcast = mst_broadcast(&net);
        assert!(multicast.multicasts_to(&net, &receivers));
        assert!(multicast.total_cost() <= broadcast.total_cost() + 1e-9);
    }

    #[test]
    fn steiner_assignment_no_costlier_than_tree() {
        // Lemma 3.5's companion fact: orienting a Steiner tree yields an
        // assignment of at most the tree cost.
        for seed in 0..10 {
            let net = random_net_alpha(seed, 9, 2.0);
            let receivers = vec![2, 4, 7];
            let (tree, pa) = steiner_multicast(&net, &receivers);
            assert!(pa.multicasts_to(&net, &receivers), "seed {seed}");
            assert!(
                pa.total_cost() <= tree.cost + 1e-9,
                "seed {seed}: assignment {} > tree {}",
                pa.total_cost(),
                tree.cost
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn mst_broadcast_within_lemma_3_4_bound(seed in 0u64..300) {
            // d = 2, α = 2 ⇒ ratio ≤ 3² − 1 = 8 (and ≤ 6 by Ambühl).
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(4usize..8);
            let net = random_net_alpha(seed, n, 2.0);
            let all: Vec<usize> = (1..n).collect();
            let pa = mst_broadcast(&net);
            let (opt, _) = memt_exact(&net, &all);
            prop_assert!(pa.total_cost() <= 6.0 * opt + 1e-6,
                "ratio {} exceeds Ambühl's 6", pa.total_cost() / opt);
        }

        #[test]
        fn steiner_multicast_feasible_on_random_instances(seed in 0u64..300) {
            let mut rng = SmallRng::seed_from_u64(seed ^ 77);
            let n = rng.gen_range(4usize..10);
            let net = random_net_alpha(seed, n, 2.0);
            let receivers: Vec<usize> = (1..n).filter(|_| rng.gen_bool(0.5)).collect();
            if receivers.is_empty() {
                return Ok(());
            }
            let (_, pa) = steiner_multicast(&net, &receivers);
            prop_assert!(pa.multicasts_to(&net, &receivers));
        }
    }
}
