//! The universal-tree marginal-cost (MC/VCG) mechanism (§2.1): efficient
//! and strategyproof (not group strategyproof).
//!
//! Receiver selection maximises net worth via the bottom-up tree DP
//! ([`wmcs_wireless::NetWorth`], the warm oracle the live sessions keep,
//! here over a frame grown to every station — no 64-player cap);
//! payments are the VCG externalities `c_i = u_i − (NW(u) − NW(u_{-i}))`,
//! equal under submodularity to the paper's form (3). One top-down pass
//! over the base DP composes every station's map to the root, and each
//! receiver's charge is read off its own map in `O(1)` — never formed as
//! the difference of two net worths — so a full run is `O(n log n)`
//! (ordering the frame by station id; the DP and the pass are `O(n)`)
//! instead of one `O(n)` DP per receiver.

use wmcs_game::{Mechanism, MechanismOutcome};
use wmcs_wireless::{McSession, NetWorth, UniversalTree};

/// The MC mechanism over a universal broadcast tree.
#[derive(Debug, Clone)]
pub struct UniversalMcMechanism {
    tree: UniversalTree,
}

impl UniversalMcMechanism {
    /// Wrap a universal tree.
    pub fn new(tree: UniversalTree) -> Self {
        Self { tree }
    }

    /// The universal tree in use.
    pub fn universal_tree(&self) -> &UniversalTree {
        &self.tree
    }

    /// Net worth achieved on a reported profile (`NW(u)`), read off the
    /// same [`NetWorth`] oracle [`Mechanism::run`] evaluates.
    pub fn net_worth(&self, reported: &[f64]) -> f64 {
        NetWorth::from_utilities(&self.tree, &self.utilities_by_station(reported)).net_worth()
    }

    /// Start a live churn session over this mechanism's universal tree:
    /// the warm-state engine that re-prices the VCG outcome across
    /// `Join`/`Leave`/`Rebid` batches, byte-identical to re-running
    /// [`Mechanism::run`] on the current bid vector after every batch
    /// (both evaluate [`NetWorth::vcg_outcome`]).
    pub fn session(&self) -> McSession {
        McSession::new(&self.tree)
    }

    fn utilities_by_station(&self, reported: &[f64]) -> Vec<f64> {
        let net = self.tree.network();
        let mut u = vec![0.0; net.n_stations()];
        for (p, &v) in reported.iter().enumerate() {
            u[net.station_of_player(p)] = v;
        }
        u
    }
}

impl Mechanism for UniversalMcMechanism {
    fn n_players(&self) -> usize {
        self.tree.network().n_players()
    }

    fn run(&self, reported: &[f64]) -> MechanismOutcome {
        assert_eq!(reported.len(), self.n_players());
        let u = self.utilities_by_station(reported);
        // The same evaluation path a live McSession's reprice uses, so
        // one-shot runs and warm sessions cannot diverge.
        NetWorth::from_utilities(&self.tree, &u).vcg_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_game::{
        find_unilateral_deviation, verify_no_positive_transfers, verify_voluntary_participation,
    };
    use wmcs_geom::{Point, PowerModel};
    use wmcs_wireless::{SubstrateBuilder, TreeKind, WirelessNetwork};

    fn mechanism(seed: u64, n: usize) -> UniversalMcMechanism {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::xy(rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0)))
            .collect();
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        UniversalMcMechanism::new(
            SubstrateBuilder::new(&net)
                .tree(TreeKind::Spt)
                .build_universal(),
        )
    }

    #[test]
    fn efficiency_dominates_moulin_shenker_outcomes() {
        // The MC mechanism's net worth is maximal by construction: compare
        // against the welfare of a few arbitrary receiver sets.
        let m = mechanism(1, 7);
        let mut rng = SmallRng::seed_from_u64(77);
        let u: Vec<f64> = (0..6).map(|_| rng.gen_range(0.0..10.0)).collect();
        let nw = m.net_worth(&u);
        let net = m.universal_tree().network();
        for mask in 0u64..(1 << 6) {
            let stations: Vec<usize> = (0..6)
                .filter(|&p| mask & (1 << p) != 0)
                .map(|p| net.station_of_player(p))
                .collect();
            let util: f64 = (0..6).filter(|&p| mask & (1 << p) != 0).map(|p| u[p]).sum();
            let w = util - m.universal_tree().multicast_cost(&stations);
            assert!(nw >= w - 1e-9, "mask {mask:b} beats the DP");
        }
    }

    #[test]
    fn never_collects_more_than_cost() {
        // MC runs deficits, not surpluses (§1.1).
        for seed in 0..6 {
            let m = mechanism(seed, 6);
            let mut rng = SmallRng::seed_from_u64(seed + 50);
            let u: Vec<f64> = (0..5).map(|_| rng.gen_range(0.0..20.0)).collect();
            let out = m.run(&u);
            assert!(out.revenue() <= out.served_cost + 1e-9);
        }
    }

    #[test]
    fn strategyproof_empirically() {
        for seed in 0..6 {
            let m = mechanism(seed, 6);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x11);
            let u: Vec<f64> = (0..5).map(|_| rng.gen_range(0.0..15.0)).collect();
            assert!(
                find_unilateral_deviation(&m, &u, 1e-7).is_none(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn axioms_npt_vp() {
        let m = mechanism(9, 6);
        for u in [vec![5.0; 5], vec![0.0, 9.0, 0.0, 9.0, 0.0]] {
            let out = m.run(&u);
            assert!(verify_no_positive_transfers(&out));
            assert!(verify_voluntary_participation(&out, &u));
        }
    }

    #[test]
    fn session_with_everyone_joined_matches_the_one_shot_run() {
        for seed in 20..24 {
            let m = mechanism(seed, 8);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x31c);
            let u: Vec<f64> = (0..7).map(|_| rng.gen_range(0.0..12.0)).collect();
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
    fn free_riders_pay_zero() {
        // A player whose removal does not change the efficient set's cost
        // pays 0 (its externality is its own utility contribution).
        let pts = vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
            Point::xy(2.0, 0.0),
        ];
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        let m = UniversalMcMechanism::new(
            SubstrateBuilder::new(&net)
                .tree(TreeKind::Spt)
                .build_universal(),
        );
        // Player 1 (station 2) drives the cost; player 0 (station 1) rides
        // along the chain for free.
        let out = m.run(&[0.5, 100.0]);
        assert!(out.is_receiver(0));
        assert_eq!(out.shares[0], 0.0);
        assert!(out.shares[1] > 0.0);
    }

    /// The window below which a positive charge can only be rounding.
    const RESIDUE_TOL: f64 = wmcs_geom::VP_TOL;

    #[test]
    fn no_receiver_is_charged_a_rounding_residue() {
        // A charge is read off the receiver's root map, never formed as
        // the difference of two net worths, so a receiver whose VCG
        // charge is 0 pays exactly +0.0: over 200 seeded n = 12 SPT
        // instances with bids U(50, 500), nobody pays in
        // (0, RESIDUE_TOL · (1 + NW)]. The difference form left such a
        // residue on 682 of these 2,200 receivers.
        let mut served = 0;
        for seed in 0..200 {
            let m = mechanism(seed, 12);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x7e51_d0e5);
            let u: Vec<f64> = (0..11).map(|_| rng.gen_range(50.0..500.0)).collect();
            let nw = m.net_worth(&u);
            let out = m.run(&u);
            for &p in &out.receivers {
                let share = out.shares[p];
                assert!(
                    !(share > 0.0 && share <= RESIDUE_TOL * (1.0 + nw.abs())),
                    "seed {seed}: player {p} charged the residue {share}"
                );
            }
            served += out.receivers.len();
        }
        assert_eq!(served, 2200, "every bidder affords its hop");
    }
}
