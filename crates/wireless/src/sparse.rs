//! The retired layout switch's names, and the tests that pin the
//! frame-local ("sparse") sessions to universe-indexed ("dense")
//! references.
//!
//! Every session is frame-local at every n (`DESIGN.md` §2f), so nothing
//! here selects anything: [`SessionLayout`], [`SPARSE_AUTO_THRESHOLD`] and
//! the [`SparseShapleySession`] / [`SparseMcSession`] aliases survive only
//! because the served-workload benchmark (`perfbench/`) names them. The
//! next benchmark change removes them.
//!
//! The unit tests drive the sessions and the net-worth oracle, whose
//! arrays cover only the members' path closure, and compare them bit for
//! bit with references indexed by the whole universe:
//! [`crate::incremental::reference_drop_run_from`], the drop loop over
//! [`crate::universal::UniversalTree::shapley_shares`], the plain DP
//! behind [`crate::universal::UniversalTree::largest_efficient_set`],
//! [`crate::universal::UniversalTree::multicast_cost`], and a
//! [`crate::incremental::NetWorth`] over a frame grown to every station.

use crate::session::{McSession, ShapleySession};

/// Kept only because the served-workload benchmark (`perfbench/`) names
/// it: it selects nothing — every session is frame-local at every n. The
/// next benchmark change removes it.
pub const SPARSE_AUTO_THRESHOLD: usize = 4096;

/// Kept only because the served-workload benchmark (`perfbench/`) names
/// it: no service or session takes a layout, and every session is
/// frame-local at every n. The next benchmark change removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SessionLayout {
    /// Names the retired universe-indexed layout.
    Dense,
    /// Names the frame-local layout every session uses.
    Sparse,
    /// `Sparse` from [`SPARSE_AUTO_THRESHOLD`] stations, `Dense` below.
    #[default]
    Auto,
}

impl SessionLayout {
    /// Resolve `Auto` against a concrete universe size. The answer
    /// selects nothing (see the type docs).
    pub fn resolve(self, n_stations: usize) -> SessionLayout {
        match self {
            SessionLayout::Auto => {
                if n_stations >= SPARSE_AUTO_THRESHOLD {
                    SessionLayout::Sparse
                } else {
                    SessionLayout::Dense
                }
            }
            other => other,
        }
    }
}

/// Kept only because the served-workload benchmark (`perfbench/`) names
/// it: the same type as [`ShapleySession`]. The next benchmark change
/// removes it.
pub type SparseShapleySession = ShapleySession;

/// Kept only because the served-workload benchmark (`perfbench/`) names
/// it: the same type as [`McSession`]. The next benchmark change removes
/// it.
pub type SparseMcSession = McSession;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SubstrateBuilder, TreeKind};
    use crate::incremental::{reference_drop_run_from, shapley_drop_run_from, NetWorth};
    use crate::network::WirelessNetwork;
    use crate::session::{ChurnEvent, ChurnProcess};
    use crate::universal::UniversalTree;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_game::MechanismOutcome;
    use wmcs_geom::{Point, PowerModel};

    fn random_tree(seed: u64, n: usize) -> UniversalTree {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::xy(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        if seed.is_multiple_of(2) {
            SubstrateBuilder::new(&net)
                .tree(TreeKind::Spt)
                .build_universal()
        } else {
            SubstrateBuilder::new(&net)
                .tree(TreeKind::Mst)
                .build_universal()
        }
    }

    /// Receivers, every share bit and the served cost.
    fn bits(o: &MechanismOutcome) -> (Vec<usize>, Vec<u64>, u64) {
        let shares = o.shares.iter().map(|x| x.to_bits()).collect();
        (o.receivers.clone(), shares, o.served_cost.to_bits())
    }

    /// The event semantics, modelled apart from the sessions: each
    /// player's live bid (`None` = absent) after `batch`.
    fn apply_model(model: &mut [Option<f64>], batch: &[ChurnEvent]) {
        for ev in batch {
            match *ev {
                ChurnEvent::Join { player, utility } => model[player] = Some(utility),
                ChurnEvent::Leave { player } => model[player] = None,
                ChurnEvent::Rebid { player, utility } => {
                    if let Some(bid) = &mut model[player] {
                        *bid = utility;
                    }
                }
            }
        }
    }

    /// The MC reference on station utilities `u`: the plain DP's largest
    /// efficient set and its multicast cost, charged the VCG shares of an
    /// oracle whose frame is the whole universe.
    fn dense_vcg(ut: &UniversalTree, u: &[f64]) -> MechanismOutcome {
        let net = ut.network();
        let (set, _) = ut.largest_efficient_set(u);
        let mut oracle = NetWorth::from_utilities(ut, u);
        assert_eq!(oracle.frame_len(), net.n_stations());
        MechanismOutcome {
            receivers: set
                .iter()
                .filter_map(|&x| net.player_of_station(x))
                .collect(),
            shares: oracle.vcg_outcome().shares,
            served_cost: ut.multicast_cost(&set),
        }
    }

    #[test]
    fn sparse_shapley_session_is_byte_identical_to_dense() {
        // After every batch: the universe-indexed drop loop from the
        // modelled members, and the session's evictions, members and
        // reported profile against the model.
        for seed in 0..10 {
            let ut = random_tree(seed, 14);
            let n = ut.network().n_players();
            let process = ChurnProcess::new(n, 12, 3, 20.0, seed ^ 0x5a);
            let mut model = vec![None; n];
            let mut sparse = SparseShapleySession::new(&ut);
            for batch in &process.generate().batches {
                apply_model(&mut model, batch);
                let bids: Vec<f64> = model.iter().map(|b| b.unwrap_or(0.0)).collect();
                let members: Vec<usize> = (0..n).filter(|&p| model[p].is_some()).collect();
                let dense = reference_drop_run_from(&ut, &bids, &members);
                let s = sparse.apply_batch(batch);
                assert_eq!(bits(&s), bits(&dense), "seed {seed}");
                for &p in &members {
                    if !dense.is_receiver(p) {
                        model[p] = None;
                    }
                }
                let profile: Vec<f64> = model.iter().map(|b| b.unwrap_or(0.0)).collect();
                assert_eq!(sparse.active_players(), dense.receivers, "seed {seed}");
                assert_eq!(sparse.reported_profile(), profile, "seed {seed}");
            }
            assert!(sparse.memory_bytes() > 0);
        }
    }

    #[test]
    fn sparse_mc_session_is_byte_identical_to_dense() {
        // After every batch: the session holds the modelled utilities, and
        // its outcome is the universe-indexed reference's on them. Its
        // shares are also the plain DP's externalities, up to the
        // reassociation of the O(depth) zeroing walk.
        for seed in 0..10 {
            let ut = random_tree(seed, 14);
            let net = ut.network();
            let n = net.n_players();
            let process = ChurnProcess::new(n, 10, 4, 15.0, seed ^ 0x3c);
            let mut model = vec![None; n];
            let mut sparse = SparseMcSession::new(&ut);
            for batch in &process.generate().batches {
                apply_model(&mut model, batch);
                let mut u = vec![0.0; net.n_stations()];
                for (p, bid) in model.iter().enumerate() {
                    u[net.station_of_player(p)] = bid.unwrap_or(0.0);
                }
                let s = sparse.apply_batch(batch);
                assert_eq!(sparse.station_utilities(), u, "seed {seed}");
                assert_eq!(bits(&s), bits(&dense_vcg(&ut, &u)), "seed {seed}");
                let nw = ut.net_worth(&u);
                for &p in &s.receivers {
                    let x = net.station_of_player(p);
                    let mut minus = u.clone();
                    minus[x] = 0.0;
                    let want = (u[x] - (nw - ut.net_worth(&minus))).max(0.0);
                    assert!(
                        (s.shares[p] - want).abs() <= 1e-9 * (1.0 + nw.abs()),
                        "seed {seed}, player {p}: {} ≠ {want}",
                        s.shares[p]
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_reprice_matches_cold_reference_on_the_member_set() {
        for seed in 0..8 {
            let ut = random_tree(seed, 12);
            let process = ChurnProcess::new(ut.network().n_players(), 10, 3, 18.0, seed ^ 0xc0);
            let mut session = SparseShapleySession::new(&ut);
            for batch in &process.generate().batches {
                session.apply_events(batch);
                let players = session.active_players();
                let bids = session.reported_profile();
                let warm = session.reprice();
                let cold = shapley_drop_run_from(&ut, &bids, &players);
                assert_eq!(warm.receivers, cold.receivers, "seed {seed}");
                assert_eq!(warm.shares, cold.shares, "seed {seed}");
                assert_eq!(warm.served_cost, cold.served_cost, "seed {seed}");
                assert_eq!(session.active_players(), warm.receivers);
            }
        }
    }

    #[test]
    fn sparse_oracle_matches_dense_oracle_state_for_state() {
        // After every utility change the closure-framed oracle equals the
        // plain DP on net worth, efficient set and served cost, and an
        // oracle framed over the whole universe on every zeroing query.
        for seed in 0..10 {
            let ut = random_tree(seed, 13);
            let n = ut.network().n_stations();
            let s = ut.network().source();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x0c1e);
            let mut u = vec![0.0f64; n];
            let mut sparse = NetWorth::new(&ut);
            for _ in 0..30 {
                let x = loop {
                    let x = rng.gen_range(0..n);
                    if x != s {
                        break x;
                    }
                };
                let val = if rng.gen_bool(0.3) {
                    0.0
                } else {
                    rng.gen_range(0.0..8.0)
                };
                u[x] = val;
                sparse.set_utility(x, val);
                let (set, nw) = ut.largest_efficient_set(&u);
                let cost = ut.multicast_cost(&set);
                assert_eq!(sparse.net_worth().to_bits(), nw.to_bits(), "seed {seed}");
                let (sparse_set, sparse_nw, sparse_cost) = sparse.efficient_set();
                assert_eq!(sparse_set, set, "seed {seed}");
                assert_eq!(sparse_nw.to_bits(), nw.to_bits(), "seed {seed}");
                assert_eq!(sparse_cost.to_bits(), cost.to_bits(), "seed {seed}");
                let mut dense = NetWorth::from_utilities(&ut, &u);
                assert_eq!(dense.frame_len(), n);
                for y in (0..n).filter(|&y| y != s) {
                    assert_eq!(
                        sparse.net_worth_zeroing(y).to_bits(),
                        dense.net_worth_zeroing(y).to_bits(),
                        "seed {seed}, station {y}"
                    );
                }
            }
        }
    }
}
