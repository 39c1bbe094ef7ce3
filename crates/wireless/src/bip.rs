//! Broadcast/Multicast Incremental Power (BIP/MIP) heuristics of
//! Wieselthier, Nguyen, Ephremides \[50\] — the paper's §1 cites this work
//! as the source of the MST heuristic; BIP is its companion heuristic that
//! exploits the wireless multicast advantage *during* construction instead
//! of after: grow the reached set Prim-style, but price each candidate by
//! the **incremental** power needed at some already-reached transmitter
//! (raising an existing emission is cheaper than starting a new one).
//!
//! MIP ("multicast incremental power") prunes the BIP broadcast tree to
//! the receivers and re-tightens powers — the standard \[50\] sweep.
//!
//! These serve as ablation baselines in experiment T6: BIP usually beats
//! the plain MST heuristic on broadcast because a single large emission
//! often covers several MST edges.

use crate::network::WirelessNetwork;
use crate::power::PowerAssignment;
use wmcs_graph::RootedTree;

/// BIP broadcast: returns the power assignment and the implied tree
/// (parent = the transmitter that first covered each station).
pub fn bip_broadcast(net: &WirelessNetwork) -> (PowerAssignment, RootedTree) {
    let n = net.n_stations();
    let s = net.source();
    let mut reached = vec![false; n];
    reached[s] = true;
    let mut power = vec![0.0_f64; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    // One raise can claim several stations at once (that is BIP's whole
    // point), so loop until everyone is covered rather than n − 1 times.
    while reached.iter().any(|&r| !r) {
        // Cheapest incremental addition: a reached transmitter i raising
        // its power to c(i, j) to cover an unreached j.
        let mut best: Option<(f64, usize, usize)> = None;
        for i in 0..n {
            if !reached[i] {
                continue;
            }
            for j in 0..n {
                if reached[j] {
                    continue;
                }
                let delta = (net.cost(i, j) - power[i]).max(0.0);
                let better = match best {
                    None => true,
                    Some((bd, bi, bj)) => {
                        delta < bd - wmcs_geom::EPS
                            || (wmcs_geom::approx_eq(delta, bd) && (i, j) < (bi, bj))
                    }
                };
                if better {
                    best = Some((delta, i, j));
                }
            }
        }
        let (_, i, j) = best.expect("some unreached station remains");
        power[i] = power[i].max(net.cost(i, j));
        // The raise may cover other unreached stations too; claim them all
        // (this is the "wireless advantage" BIP exploits).
        for j2 in 0..n {
            if !reached[j2] && net.cost(i, j2) <= power[i] + wmcs_geom::EPS {
                reached[j2] = true;
                parent[j2] = Some(i);
            }
        }
    }
    let tree = RootedTree::from_parents(s, parent);
    (PowerAssignment::new(power), tree)
}

/// MIP multicast: BIP tree pruned to the union of source→receiver paths,
/// powers re-tightened to the surviving children.
pub fn mip_multicast(net: &WirelessNetwork, receivers: &[usize]) -> PowerAssignment {
    let (_, tree) = bip_broadcast(net);
    let pruned = tree.steiner_subtree(receivers);
    PowerAssignment::from_tree(net, &pruned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::random_net_alpha;
    use crate::memt::memt_exact;
    use crate::mst_heuristic::mst_broadcast;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_geom::{approx_eq, Point, PowerModel};

    #[test]
    fn bip_exploits_the_wireless_advantage() {
        // Source in the middle of two opposite receivers at distance 1:
        // one emission of power 1 covers both; the MST tree would also cost
        // 1 here, but BIP must find it too.
        let pts = vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
            Point::xy(-1.0, 0.0),
        ];
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        let (pa, tree) = bip_broadcast(&net);
        assert!(approx_eq(pa.total_cost(), 1.0));
        assert_eq!(tree.parent(1), Some(0));
        assert_eq!(tree.parent(2), Some(0));
    }

    #[test]
    fn bip_beats_mst_on_the_fan_configuration() {
        // A fan: several receivers at nearly equal distance from the
        // source but spread apart from each other. The MST chains them
        // (paying inter-receiver hops); BIP emits once from the source.
        let mut pts = vec![Point::xy(0.0, 0.0)];
        for k in 0..5 {
            let theta = 0.4 * k as f64;
            pts.push(Point::xy(2.0 * theta.cos(), 2.0 * theta.sin()));
        }
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        let (bip, _) = bip_broadcast(&net);
        let mst = mst_broadcast(&net);
        assert!(bip.total_cost() <= mst.total_cost() + 1e-9);
        assert!(approx_eq(bip.total_cost(), 4.0)); // one emission of power 2²
    }

    #[test]
    fn mip_prunes_to_receivers() {
        let net = random_net_alpha(3, 8, 2.0);
        let receivers = vec![2, 5];
        let pa = mip_multicast(&net, &receivers);
        assert!(pa.multicasts_to(&net, &receivers));
        let broadcast = bip_broadcast(&net).0;
        assert!(pa.total_cost() <= broadcast.total_cost() + 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn bip_is_feasible_and_never_beats_exact(seed in 0u64..400) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(3usize..8);
            let net = random_net_alpha(seed, n, 2.0);
            let all: Vec<usize> = (1..n).collect();
            let (pa, tree) = bip_broadcast(&net);
            prop_assert!(pa.multicasts_to(&net, &all));
            prop_assert_eq!(tree.node_count(), n);
            let (opt, _) = memt_exact(&net, &all);
            prop_assert!(pa.total_cost() + 1e-9 >= opt);
        }

        #[test]
        fn mip_is_feasible_on_random_receiver_sets(seed in 0u64..200) {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xb1b);
            let n = rng.gen_range(4usize..9);
            let net = random_net_alpha(seed, n, 2.0);
            let receivers: Vec<usize> = (1..n).filter(|_| rng.gen_bool(0.5)).collect();
            let pa = mip_multicast(&net, &receivers);
            prop_assert!(pa.multicasts_to(&net, &receivers));
        }
    }
}
