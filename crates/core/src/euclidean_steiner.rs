//! The 2(3^d − 1)-BB group-strategyproof mechanisms for Euclidean networks
//! with `α ≥ d > 1` (§3.2, Theorems 3.6 and 3.7).
//!
//! Construction: the Jain–Vazirani 2-BB cross-monotonic Steiner cost
//! shares (implemented in `wmcs-graph::jv_shares`) applied to the wireless
//! cost graph, driven through the Moulin–Shenker loop. The built Steiner
//! tree is turned into a power assignment by the Steiner heuristic
//! (downward orientation), which never exceeds the tree cost; Lemmas
//! 3.4/3.5 bound the minimum Steiner tree by `(3^d − 1) · C*(R)` — so the
//! shares recover the built assignment and stay within `2(3^d − 1) · C*`
//! (12 for d = 2, via Ambühl's constant 6).

use std::cell::Cell;
use wmcs_game::{run_drop_loop, Mechanism, MechanismOutcome, Recompute};
use wmcs_graph::{jv_steiner_shares, JvSharing, RootedTree};
use wmcs_wireless::{PowerAssignment, WirelessNetwork};

/// Theorem 3.6's mechanism family (equal-split JV member).
#[derive(Debug, Clone)]
pub struct EuclideanSteinerMechanism {
    net: WirelessNetwork,
}

/// Outcome plus the built power assignment.
#[derive(Debug, Clone)]
pub struct SteinerOutcome {
    /// Receivers/shares/served cost in player space.
    pub outcome: MechanismOutcome,
    /// Power assignment implementing the multicast.
    pub assignment: PowerAssignment,
}

impl EuclideanSteinerMechanism {
    /// Wrap a Euclidean network (any dimension; the approximation *bound*
    /// requires `α ≥ d`, the mechanism itself runs for any costs).
    pub fn new(net: &WirelessNetwork) -> Self {
        Self { net: net.clone() }
    }

    /// The underlying network.
    pub fn network(&self) -> &WirelessNetwork {
        &self.net
    }

    /// The claimed budget-balance factor `2(3^d − 1)` for this network's
    /// dimension (12 for d = 2 via Ambühl \[1\]).
    pub fn bb_factor(&self) -> f64 {
        let d = self.net.points().map_or(2, |pts| pts.dim());
        if d == 2 {
            12.0
        } else {
            2.0 * (3f64.powi(i32::try_from(d).expect("scenario dimension fits i32")) - 1.0)
        }
    }

    /// Full run, also returning the built power assignment.
    pub fn run_full(&self, reported: &[f64]) -> SteinerOutcome {
        let net = &self.net;
        let (n, s) = (net.n_players(), net.source());
        let stations = |players: &[usize]| -> Vec<usize> {
            players.iter().map(|&p| net.station_of_player(p)).collect()
        };
        // Each round's JV tree; the fixpoint round's is the one built.
        let tree = Cell::new(Vec::new());
        let mut assignment = PowerAssignment::zero(net.n_stations());
        let mut adapter = Recompute::new(
            n,
            |players| {
                let jv =
                    jv_steiner_shares(net.costs(), s, &stations(players), JvSharing::Equal, None);
                tree.set(jv.tree.edges);
                (0..n).map(|p| jv.share[net.station_of_player(p)]).collect()
            },
            |players| {
                // Steiner heuristic: orient the tree downward from the source.
                let rooted = RootedTree::from_undirected_edges(net.n_stations(), s, &tree.take());
                assignment = PowerAssignment::from_tree(net, &rooted);
                debug_assert!(assignment.multicasts_to(net, &stations(players)));
                assignment.total_cost()
            },
        );
        let outcome = run_drop_loop(&mut adapter, reported);
        SteinerOutcome {
            outcome,
            assignment,
        }
    }
}

impl Mechanism for EuclideanSteinerMechanism {
    fn n_players(&self) -> usize {
        self.net.n_players()
    }

    fn run(&self, reported: &[f64]) -> MechanismOutcome {
        self.run_full(reported).outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_game::{
        find_group_deviation, find_unilateral_deviation, verify_no_positive_transfers,
        verify_voluntary_participation,
    };
    use wmcs_geom::{Point, PowerModel};
    use wmcs_wireless::memt_exact;

    fn mechanism(seed: u64, n: usize) -> EuclideanSteinerMechanism {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::xy(rng.gen_range(0.0..6.0), rng.gen_range(0.0..6.0)))
            .collect();
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        EuclideanSteinerMechanism::new(&net)
    }

    #[test]
    fn bb_factor_for_two_dimensions_is_twelve() {
        let m = mechanism(0, 4);
        assert_eq!(m.bb_factor(), 12.0);
    }

    #[test]
    fn theorem_3_6_bb_bound_on_random_instances() {
        for seed in 0..10 {
            let m = mechanism(seed, 7);
            let out = m.run_full(&[1e6; 6]);
            let stations: Vec<usize> = (1..7).collect();
            assert!(out.assignment.multicasts_to(m.network(), &stations));
            // Cost recovery...
            assert!(
                out.outcome.revenue() + 1e-6 >= out.outcome.served_cost,
                "seed {seed}"
            );
            // ...and 12-approximate competitiveness vs the exact optimum.
            let (opt, _) = memt_exact(m.network(), &stations);
            assert!(
                out.outcome.revenue() <= m.bb_factor() * opt + 1e-6,
                "seed {seed}: revenue {} vs 12·opt {}",
                out.outcome.revenue(),
                m.bb_factor() * opt
            );
        }
    }

    #[test]
    fn group_strategyproof_empirically() {
        for seed in 0..3 {
            let m = mechanism(seed, 5);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e);
            let u: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..50.0)).collect();
            assert!(
                find_unilateral_deviation(&m, &u, 1e-7).is_none(),
                "seed {seed}: unilateral"
            );
            assert!(
                find_group_deviation(&m, &u, 2, 1e-7).is_none(),
                "seed {seed}: group"
            );
        }
    }

    #[test]
    fn axioms_npt_vp_hold() {
        let m = mechanism(7, 6);
        for u in [
            vec![100.0, 0.1, 100.0, 0.1, 100.0],
            vec![0.0; 5],
            vec![2.0; 5],
        ] {
            let out = m.run(&u);
            assert!(verify_no_positive_transfers(&out));
            assert!(verify_voluntary_participation(&out, &u));
        }
    }

    #[test]
    fn unaffordable_players_get_dropped_and_rest_served() {
        let m = mechanism(11, 6);
        let rich = m.run(&[1e6; 5]);
        assert_eq!(rich.receivers.len(), 5);
        let mut u = vec![1e6; 5];
        // Make player 3 unable to pay even a sliver of its rich-case share.
        u[3] = rich.shares[3] * 1e-6;
        let out = m.run(&u);
        if rich.shares[3] > 1e-9 {
            assert!(!out.receivers.contains(&3));
        }
        assert!(out.receivers.len() >= 4);
    }
}
