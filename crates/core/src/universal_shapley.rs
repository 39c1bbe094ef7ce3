//! The universal-tree Shapley mechanism (§2.1): budget-balanced and group
//! strategyproof.
//!
//! Lemma 2.1 makes the universal-tree cost function non-decreasing and
//! submodular; the Shapley value is then a cross-monotonic method, and the
//! Moulin–Shenker mechanism `M(Shapley)` is BB, group strategyproof and
//! meets NPT, VP, CS \[37, 38\]. The run delegates to the incremental
//! engine ([`wmcs_wireless::incremental`], over a frame grown to every
//! station) through the shared index-set drop-loop driver
//! (`wmcs_game::run_drop_loop`): subtree receiver counts and
//! active-children lists are maintained across rounds, so a full run
//! costs `O(Σ path + rounds · n + total dropped path length)` instead of
//! the naive `O(n³)` — there is no 64-player cap, and n ≈ 4096 instances
//! run routinely (experiment T10).

use wmcs_game::{Mechanism, MechanismOutcome};
use wmcs_wireless::{incremental, PowerAssignment, ShapleySession, UniversalTree};

/// `M(Shapley)` over a universal broadcast tree.
#[derive(Debug, Clone)]
pub struct UniversalShapleyMechanism {
    tree: UniversalTree,
}

impl UniversalShapleyMechanism {
    /// Wrap a universal tree.
    pub fn new(tree: UniversalTree) -> Self {
        Self { tree }
    }

    /// The universal tree in use.
    pub fn universal_tree(&self) -> &UniversalTree {
        &self.tree
    }

    /// Start a live churn session over this mechanism's universal tree:
    /// the warm-state engine that re-runs the Moulin–Shenker drop loop
    /// from the surviving receiver set across `Join`/`Leave`/`Rebid`
    /// batches, byte-identical to a cold
    /// [`wmcs_wireless::shapley_drop_run_from`] on the current receiver
    /// set after every batch.
    pub fn session(&self) -> ShapleySession {
        ShapleySession::new(&self.tree)
    }

    /// The power assignment that serves the given outcome's receivers.
    pub fn power_assignment(&self, outcome: &MechanismOutcome) -> PowerAssignment {
        let stations: Vec<usize> = outcome
            .receivers
            .iter()
            .map(|&p| self.tree.network().station_of_player(p))
            .collect();
        self.tree.power_assignment(&stations)
    }
}

impl Mechanism for UniversalShapleyMechanism {
    fn n_players(&self) -> usize {
        self.tree.network().n_players()
    }

    fn run(&self, reported: &[f64]) -> MechanismOutcome {
        incremental::shapley_drop_run(&self.tree, reported)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_game::{
        find_group_deviation, find_unilateral_deviation, verify_budget_balance,
        verify_consumer_sovereignty, verify_no_positive_transfers, verify_voluntary_participation,
    };
    use wmcs_geom::{approx_eq, Point, PowerModel};
    use wmcs_wireless::{SubstrateBuilder, TreeKind, WirelessNetwork};

    fn mechanism(seed: u64, n: usize) -> UniversalShapleyMechanism {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::xy(rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0)))
            .collect();
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        UniversalShapleyMechanism::new(
            SubstrateBuilder::new(&net)
                .tree(TreeKind::Spt)
                .build_universal(),
        )
    }

    #[test]
    fn rich_profile_is_exactly_budget_balanced() {
        let m = mechanism(1, 7);
        let u = vec![100.0; 6];
        let out = m.run(&u);
        assert_eq!(out.receivers.len(), 6);
        assert!(approx_eq(out.revenue(), out.served_cost));
        assert!(verify_budget_balance(&out, 1.0, out.served_cost));
        // The assignment actually reaches everyone.
        let pa = m.power_assignment(&out);
        let stations: Vec<usize> = (1..7).collect();
        assert!(pa.multicasts_to(m.universal_tree().network(), &stations));
    }

    #[test]
    fn axioms_hold_across_profiles() {
        let m = mechanism(2, 6);
        for u in [
            vec![10.0, 0.1, 5.0, 0.0, 2.0],
            vec![0.0; 5],
            vec![3.0, 3.0, 3.0, 3.0, 3.0],
        ] {
            let out = m.run(&u);
            assert!(verify_no_positive_transfers(&out));
            assert!(verify_voluntary_participation(&out, &u));
            assert!(approx_eq(out.revenue(), out.served_cost));
        }
        assert!(verify_consumer_sovereignty(&m, &[1.0; 5], 1e9));
    }

    #[test]
    fn strategyproof_and_group_strategyproof_empirically() {
        for seed in 3..7 {
            let m = mechanism(seed, 6);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xaa);
            let u: Vec<f64> = (0..5).map(|_| rng.gen_range(0.0..30.0)).collect();
            assert!(
                find_unilateral_deviation(&m, &u, 1e-7).is_none(),
                "seed {seed}: unilateral deviation found"
            );
            assert!(
                find_group_deviation(&m, &u, 2, 1e-7).is_none(),
                "seed {seed}: group deviation found"
            );
        }
    }

    #[test]
    fn session_with_everyone_joined_matches_the_one_shot_run() {
        // A session whose only batch joins every player with the same
        // bids is exactly the one-shot mechanism: same receivers, same
        // shares, same served cost, byte for byte.
        for seed in 10..14 {
            let m = mechanism(seed, 9);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e5);
            let u: Vec<f64> = (0..8).map(|_| rng.gen_range(0.0..10.0)).collect();
            let batch: Vec<wmcs_wireless::ChurnEvent> = u
                .iter()
                .enumerate()
                .map(|(player, &utility)| wmcs_wireless::ChurnEvent::Join { player, utility })
                .collect();
            let mut session = m.session();
            let live = session.apply_batch(&batch);
            let one_shot = m.run(&u);
            assert_eq!(live.receivers, one_shot.receivers, "seed {seed}");
            assert_eq!(live.shares, one_shot.shares, "seed {seed}");
            assert_eq!(live.served_cost, one_shot.served_cost, "seed {seed}");
        }
    }

    #[test]
    fn dropped_player_prices_recompute_upward_only() {
        // Cross-monotonicity in action: when somebody drops out, the
        // remaining receivers' shares can only rise.
        let m = mechanism(5, 7);
        let rich = m.run(&[1e6; 6]);
        let mut poor_profile = vec![1e6; 6];
        poor_profile[2] = 0.0;
        let poorer = m.run(&poor_profile);
        for &p in &poorer.receivers {
            assert!(poorer.shares[p] + 1e-9 >= rich.shares[p]);
        }
    }
}
