//! Optimal mechanisms for Euclidean networks with `α = 1` or `d = 1`
//! (§3.1, Theorem 3.2): Shapley → optimally budget balanced (1-BB) and
//! group strategyproof; MC → efficient and strategyproof.
//!
//! The `α = 1` mechanisms run on the true optimal cost function (single
//! source emission, Lemma 3.1 first case — verified against exact MEMT).
//! The `d = 1` mechanisms run on the **chain-form** cost function; see
//! `wmcs-wireless::euclidean::line` for the documented deviation of
//! Lemma 3.1's second case discovered during reproduction.

use wmcs_game::{
    moulin_shenker, run_drop_loop, run_vcg, CachedCost, Mechanism, MechanismOutcome, Recompute,
    ShapleyMethod,
};
use wmcs_wireless::{AlphaOneSolver, LineCost, LineSolver, WirelessNetwork};

/// The stations of ascending players, ascending too.
fn stations_of(net: &WirelessNetwork, players: &[usize]) -> Vec<usize> {
    players.iter().map(|&p| net.station_of_player(p)).collect()
}

/// Run a station-indexed efficient-set solver on player-indexed
/// reports: they are spread over stations (the source reads 0), and the
/// selected stations come back as players, ascending.
fn efficient_players(
    net: &WirelessNetwork,
    reported: &[f64],
    solve: impl FnOnce(&[f64]) -> (Vec<usize>, f64),
) -> (Vec<usize>, f64) {
    let mut u = vec![0.0; net.n_stations()];
    for (p, &u_p) in reported.iter().enumerate() {
        u[net.station_of_player(p)] = u_p;
    }
    let (stations, nw) = solve(&u);
    let players = stations
        .iter()
        .filter_map(|&x| net.player_of_station(x))
        .collect();
    (players, nw)
}

/// `M(Shapley)` for `α = 1` networks, using the closed-form airport-game
/// shares.
#[derive(Debug, Clone)]
pub struct AlphaOneShapleyMechanism {
    solver: AlphaOneSolver,
}

impl AlphaOneShapleyMechanism {
    /// Wrap an `α = 1` solver.
    pub fn new(solver: AlphaOneSolver) -> Self {
        Self { solver }
    }

    /// Access the solver.
    pub fn solver(&self) -> &AlphaOneSolver {
        &self.solver
    }
}

impl Mechanism for AlphaOneShapleyMechanism {
    fn n_players(&self) -> usize {
        self.solver.network().n_players()
    }

    fn run(&self, reported: &[f64]) -> MechanismOutcome {
        let net = self.solver.network();
        let n = self.n_players();
        let mut adapter = Recompute::new(
            n,
            |players| {
                let by_station = self.solver.shapley_shares(&stations_of(net, players));
                (0..n)
                    .map(|p| by_station[net.station_of_player(p)])
                    .collect()
            },
            |players| self.solver.optimal_cost(&stations_of(net, players)),
        );
        run_drop_loop(&mut adapter, reported)
    }
}

/// The MC (VCG) mechanism for `α = 1` networks.
#[derive(Debug, Clone)]
pub struct AlphaOneMcMechanism {
    solver: AlphaOneSolver,
}

impl AlphaOneMcMechanism {
    /// Wrap an `α = 1` solver.
    pub fn new(solver: AlphaOneSolver) -> Self {
        Self { solver }
    }
}

impl Mechanism for AlphaOneMcMechanism {
    fn n_players(&self) -> usize {
        self.solver.network().n_players()
    }

    fn run(&self, reported: &[f64]) -> MechanismOutcome {
        let net = self.solver.network();
        run_vcg(
            self.n_players(),
            reported,
            |u| efficient_players(net, u, |u| self.solver.largest_efficient_set(u)),
            |players| self.solver.optimal_cost(&stations_of(net, players)),
        )
        .outcome
    }
}

/// `M(Shapley)` for line networks over the chain-form cost function. Uses
/// the exact subset-formula Shapley value (cached); intended for the
/// `n ≤ ~16` instances the theory is validated on.
pub struct LineShapleyMechanism {
    cost: CachedCost<LineCost>,
}

impl LineShapleyMechanism {
    /// Wrap a line solver.
    pub fn new(solver: LineSolver) -> Self {
        Self {
            cost: CachedCost::new(LineCost::new(solver)),
        }
    }
}

impl Mechanism for LineShapleyMechanism {
    fn n_players(&self) -> usize {
        wmcs_game::CostFunction::n_players(&self.cost)
    }

    fn run(&self, reported: &[f64]) -> MechanismOutcome {
        let method = ShapleyMethod::new(&self.cost);
        moulin_shenker(&method, reported)
    }
}

/// The MC (VCG) mechanism for line networks (chain-form cost).
#[derive(Debug, Clone)]
pub struct LineMcMechanism {
    solver: LineSolver,
}

impl LineMcMechanism {
    /// Wrap a line solver.
    pub fn new(solver: LineSolver) -> Self {
        Self { solver }
    }
}

impl Mechanism for LineMcMechanism {
    fn n_players(&self) -> usize {
        self.solver.network().n_players()
    }

    fn run(&self, reported: &[f64]) -> MechanismOutcome {
        let net = self.solver.network();
        run_vcg(
            self.n_players(),
            reported,
            |u| efficient_players(net, u, |u| self.solver.largest_efficient_set(u)),
            |players| self.solver.chain_cost(&stations_of(net, players)),
        )
        .outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_game::{
        find_group_deviation, find_unilateral_deviation, verify_budget_balance,
        verify_no_positive_transfers, verify_voluntary_participation,
    };
    use wmcs_geom::{approx_eq, Point, PowerModel};
    use wmcs_wireless::WirelessNetwork;

    fn alpha_one(seed: u64, n: usize) -> AlphaOneSolver {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::xy(rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0)))
            .collect();
        AlphaOneSolver::new(&WirelessNetwork::euclidean(pts, PowerModel::linear(), 0))
    }

    fn line(seed: u64, n: usize) -> LineSolver {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut xs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..20.0)).collect();
        xs.sort_by(f64::total_cmp);
        let pts: Vec<Point> = xs.into_iter().map(Point::on_line).collect();
        LineSolver::new(&WirelessNetwork::euclidean(
            pts,
            PowerModel::free_space(),
            n / 2,
        ))
    }

    #[test]
    fn alpha_one_shapley_is_1bb_against_true_optimum() {
        for seed in 0..6 {
            let m = AlphaOneShapleyMechanism::new(alpha_one(seed, 7));
            let out = m.run(&[1e5; 6]);
            let stations: Vec<usize> = (1..7).collect();
            let opt = m.solver().optimal_cost(&stations);
            assert!(approx_eq(out.revenue(), opt), "seed {seed}");
            assert!(verify_budget_balance(&out, 1.0, opt));
        }
    }

    #[test]
    fn alpha_one_shapley_group_strategyproof() {
        for seed in 0..4 {
            let m = AlphaOneShapleyMechanism::new(alpha_one(seed, 6));
            let mut rng = SmallRng::seed_from_u64(seed + 7);
            let u: Vec<f64> = (0..5).map(|_| rng.gen_range(0.0..12.0)).collect();
            assert!(find_unilateral_deviation(&m, &u, 1e-7).is_none());
            assert!(find_group_deviation(&m, &u, 2, 1e-7).is_none());
        }
    }

    #[test]
    fn alpha_one_mc_is_efficient_and_sp() {
        for seed in 0..4 {
            let m = AlphaOneMcMechanism::new(alpha_one(seed, 6));
            let mut rng = SmallRng::seed_from_u64(seed + 17);
            let u: Vec<f64> = (0..5).map(|_| rng.gen_range(0.0..12.0)).collect();
            let out = m.run(&u);
            assert!(verify_no_positive_transfers(&out));
            assert!(verify_voluntary_participation(&out, &u));
            assert!(find_unilateral_deviation(&m, &u, 1e-7).is_none());
            // No budget surplus (MC runs deficits).
            assert!(out.revenue() <= out.served_cost + 1e-9);
        }
    }

    #[test]
    fn line_shapley_is_1bb_against_chain_cost() {
        let solver = line(3, 6);
        let chain_all = solver.chain_cost(
            &(0..6)
                .filter(|&x| x != solver.network().source())
                .collect::<Vec<_>>(),
        );
        let m = LineShapleyMechanism::new(solver);
        let out = m.run(&[1e5; 5]);
        assert!(approx_eq(out.revenue(), chain_all));
        assert!(approx_eq(out.served_cost, chain_all));
    }

    #[test]
    fn line_shapley_group_strategyproof() {
        let m = LineShapleyMechanism::new(line(5, 5));
        for u in [[4.0, 1.0, 9.0, 2.0], [20.0, 20.0, 20.0, 20.0]] {
            assert!(find_unilateral_deviation(&m, &u, 1e-7).is_none());
            assert!(find_group_deviation(&m, &u, 2, 1e-7).is_none());
        }
    }

    #[test]
    fn line_mc_strategyproof_and_efficient() {
        let solver = line(8, 6);
        let m = LineMcMechanism::new(solver);
        let mut rng = SmallRng::seed_from_u64(99);
        let u: Vec<f64> = (0..5).map(|_| rng.gen_range(0.0..15.0)).collect();
        let out = m.run(&u);
        assert!(verify_no_positive_transfers(&out));
        assert!(verify_voluntary_participation(&out, &u));
        assert!(find_unilateral_deviation(&m, &u, 1e-7).is_none());
    }
}
