//! The `d = 1` Euclidean case (Lemma 3.1, second part).
//!
//! Stations on a line, any `α ≥ 1`. The paper's construction: the source
//! emits one of ≤ n candidate powers, covering an interval `[x_f, x_l]`;
//! stations then relay outward by *adjacent* hops (justified by
//! `(a+b)^α ≥ a^α + b^α`) until the extremes `x_{f_R}, x_{l_R}` of
//! `R ∪ {s}` are reached. We call assignments of this shape **chain-form**.
//!
//! ## Reproduction finding (documented in EXPERIMENTS.md, experiment T4)
//!
//! Lemma 3.1 claims every assignment can be converted to chain form without
//! cost increase, making this solver exact and `C*` submodular. **Both
//! claims fail**: an intermediate relay's omnidirectional emission can
//! cover stations on *both* sides at once (e.g. a large leftward emission
//! that simultaneously reaches the rightmost receiver), which chain form
//! cannot express. Concretely (α = 2, pinned in the unit test
//! `chain_form_is_not_always_optimal`) the true optimum beats the
//! best chain-form assignment by ~27%, and the *true* `C*` even violates
//! submodularity (α = 3, pinned in the unit test
//! `true_line_cost_can_violate_submodularity`).
//!
//! The mechanisms of Theorem 3.2 therefore operate on the **chain-form cost
//! function** implemented here, which *is* non-decreasing and submodular
//! (the paper's interval arithmetic is valid within chain form — verified
//! exhaustively in tests). Against the chain-form cost they are exactly
//! 1-BB / efficient; against the true optimum they are β-BB with β
//! measured in experiment T4 (close to 1 in practice).

use crate::network::WirelessNetwork;
use crate::power::PowerAssignment;
use wmcs_game::CostFunction;
use wmcs_geom::EPS;

/// Polynomial solver for the paper's chain-form assignments on a line
/// (an upper bound on the true optimum — see the module docs).
#[derive(Debug, Clone)]
pub struct LineSolver {
    net: WirelessNetwork,
    /// Station indices sorted by coordinate.
    by_pos: Vec<usize>,
    /// Rank of each station in `by_pos`.
    rank: Vec<usize>,
    /// Rank of the source.
    k: usize,
}

impl LineSolver {
    /// Wrap a 1-D Euclidean network.
    pub fn new(net: &WirelessNetwork) -> Self {
        let points = net.points().expect("LineSolver needs a Euclidean network");
        assert!(points.dim() == 1, "Lemma 3.1's second case requires d = 1");
        let mut by_pos: Vec<usize> = (0..net.n_stations()).collect();
        by_pos.sort_by(|&a, &b| points.coord(a, 0).total_cmp(&points.coord(b, 0)));
        let mut rank = vec![0usize; net.n_stations()];
        for (r, &x) in by_pos.iter().enumerate() {
            rank[x] = r;
        }
        let k = rank[net.source()];
        Self {
            net: net.clone(),
            by_pos,
            rank,
            k,
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &WirelessNetwork {
        &self.net
    }

    fn station_at(&self, r: usize) -> usize {
        self.by_pos[r]
    }

    fn hop_cost(&self, r1: usize, r2: usize) -> f64 {
        self.net.cost(self.station_at(r1), self.station_at(r2))
    }

    /// Cheapest chain-form assignment for a receiver station set.
    pub fn solve(&self, receivers: &[usize]) -> (f64, PowerAssignment) {
        let n = self.net.n_stations();
        let mut pa_best = PowerAssignment::zero(n);
        if receivers.is_empty() {
            return (0.0, pa_best);
        }
        let s = self.net.source();
        let f_r = receivers
            .iter()
            .map(|&x| self.rank[x])
            .min()
            .expect("receivers is non-empty: the empty set returned early above")
            .min(self.k);
        let l_r = receivers
            .iter()
            .map(|&x| self.rank[x])
            .max()
            .expect("receivers is non-empty: the empty set returned early above")
            .max(self.k);
        let mut best = f64::INFINITY;
        // Candidate source powers: the cost to each other station.
        for cand in 0..n {
            if cand == s {
                continue;
            }
            let p = self.net.cost(s, cand);
            // Coverage interval [f, l] around the source at power p.
            let mut f = self.k;
            while f > 0 && self.net.cost(s, self.station_at(f - 1)) <= p + EPS {
                f -= 1;
            }
            let mut l = self.k;
            while l + 1 < n && self.net.cost(s, self.station_at(l + 1)) <= p + EPS {
                l += 1;
            }
            // Feasibility: each needed side must have a covered relay start.
            if f_r < self.k && f == self.k {
                continue;
            }
            if l_r > self.k && l == self.k {
                continue;
            }
            let mut cost = p;
            for r in l..l_r {
                cost += self.hop_cost(r, r + 1);
            }
            let mut fr = f;
            while fr > f_r {
                cost += self.hop_cost(fr, fr - 1);
                fr -= 1;
            }
            if cost < best - EPS {
                best = cost;
                let mut pa = PowerAssignment::zero(n);
                pa.raise(s, p);
                for r in l..l_r {
                    pa.raise(self.station_at(r), self.hop_cost(r, r + 1));
                }
                let mut fr = f;
                while fr > f_r {
                    pa.raise(self.station_at(fr), self.hop_cost(fr, fr - 1));
                    fr -= 1;
                }
                pa_best = pa;
            }
        }
        assert!(best.is_finite(), "some candidate power is always feasible");
        (best, pa_best)
    }

    /// Cheapest chain-form cost only.
    pub fn chain_cost(&self, receivers: &[usize]) -> f64 {
        self.solve(receivers).0
    }

    /// Largest efficient set (Theorem 3.2, d = 1): candidates are the
    /// ≤ n² rank intervals containing the source; intermediates ride along
    /// for free. Returns `(stations, net worth)`; utilities indexed by
    /// station (source entry ignored).
    pub fn largest_efficient_set(&self, u: &[f64]) -> (Vec<usize>, f64) {
        let n = self.net.n_stations();
        assert_eq!(u.len(), n);
        let mut best_w = 0.0f64;
        let mut best_set: Vec<usize> = Vec::new();
        for f in 0..=self.k {
            for l in self.k..n {
                if f == self.k && l == self.k {
                    continue;
                }
                let set: Vec<usize> = (f..=l)
                    .map(|r| self.station_at(r))
                    .filter(|&x| x != self.net.source())
                    .collect();
                let util: f64 = set.iter().map(|&x| u[x].max(0.0)).sum();
                let w = util - self.chain_cost(&set);
                // Exact total order on welfare; interval size breaks
                // true ties only (an EPS-tolerant tie-break here let a
                // set with welfare strictly below `best_w` win, so the
                // returned set could disagree with the returned net
                // worth consumed by VCG payments).
                if w > best_w || (w == best_w && set.len() > best_set.len()) {
                    best_w = w;
                    best_set = set;
                }
            }
        }
        best_set.sort_unstable();
        (best_set, best_w)
    }
}

/// The chain-form cost function over players for line networks —
/// non-decreasing and submodular (the object Theorem 3.2's d = 1
/// mechanisms are built on).
#[derive(Debug, Clone)]
pub struct LineCost {
    solver: LineSolver,
}

impl LineCost {
    /// Wrap a solver.
    pub fn new(solver: LineSolver) -> Self {
        Self { solver }
    }

    /// Access the solver.
    pub fn solver(&self) -> &LineSolver {
        &self.solver
    }
}

impl CostFunction for LineCost {
    fn n_players(&self) -> usize {
        self.solver.net.n_players()
    }

    fn cost_mask(&self, mask: u64) -> f64 {
        let stations = self.solver.net.stations_of_player_mask(mask);
        self.solver.chain_cost(&stations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memt::memt_exact;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_game::{is_nondecreasing, is_submodular, ExplicitGame};
    use wmcs_geom::{approx_eq, Point, PowerModel};

    fn random_line(seed: u64, n: usize, alpha: f64) -> LineSolver {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut xs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..20.0)).collect();
        xs.sort_by(f64::total_cmp);
        let pts: Vec<Point> = xs.into_iter().map(Point::on_line).collect();
        let source = rng.gen_range(0..n);
        LineSolver::new(&WirelessNetwork::euclidean(
            pts,
            PowerModel::with_alpha(alpha),
            source,
        ))
    }

    #[test]
    fn simple_right_chain() {
        // Stations at 0 (source), 1, 2, 3 with α = 2: serving {3} costs
        // 1 + 1 + 1 = 3 via unit hops.
        let pts = (0..4).map(|i| Point::on_line(i as f64)).collect();
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        let solver = LineSolver::new(&net);
        let (cost, pa) = solver.solve(&[3]);
        assert!(approx_eq(cost, 3.0));
        assert!(pa.multicasts_to(solver.network(), &[3]));
    }

    #[test]
    fn two_sided_coverage_shares_source_power() {
        // Source at 0, receivers at −2 and +1 (α = 2): source must cover one
        // side directly; candidates include p = 4 (reaches −2 and +1
        // simultaneously) vs p = 1 (+1) then no left relay exists → p = 4.
        let pts = vec![
            Point::on_line(0.0),
            Point::on_line(-2.0),
            Point::on_line(1.0),
        ];
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        let solver = LineSolver::new(&net);
        let (cost, pa) = solver.solve(&[1, 2]);
        assert!(approx_eq(cost, 4.0));
        assert!(pa.multicasts_to(solver.network(), &[1, 2]));
    }

    #[test]
    fn relay_on_the_cheap_side() {
        // Source 0; stations at 1, 2 right; receiver at 2 only: relay
        // through 1 costs 1+1=2 < direct 4.
        let pts = vec![
            Point::on_line(0.0),
            Point::on_line(1.0),
            Point::on_line(2.0),
        ];
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        let solver = LineSolver::new(&net);
        assert!(approx_eq(solver.chain_cost(&[2]), 2.0));
    }

    #[test]
    fn chain_form_upper_bounds_exact_memt() {
        for seed in 0..30 {
            let alpha = [1.0, 2.0, 4.0][seed as usize % 3];
            let solver = random_line(seed, 7, alpha);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xbeef);
            let receivers: Vec<usize> = (0..7)
                .filter(|&x| x != solver.network().source() && rng.gen_bool(0.6))
                .collect();
            let (line_cost, pa) = solver.solve(&receivers);
            let (exact, _) = memt_exact(solver.network(), &receivers);
            assert!(
                line_cost >= exact - 1e-9,
                "seed {seed} α {alpha}: chain form beat the optimum"
            );
            assert!(pa.multicasts_to(solver.network(), &receivers));
            assert!(approx_eq(pa.total_cost(), line_cost));
        }
    }

    #[test]
    fn chain_form_is_exact_for_alpha_one() {
        // With α = 1 the cross-coverage advantage vanishes (costs are
        // additive in distance), so chain form attains the optimum.
        for seed in 0..20 {
            let solver = random_line(seed, 6, 1.0);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xfeed);
            let receivers: Vec<usize> = (0..6)
                .filter(|&x| x != solver.network().source() && rng.gen_bool(0.6))
                .collect();
            let (line_cost, _) = solver.solve(&receivers);
            let (exact, _) = memt_exact(solver.network(), &receivers);
            assert!(
                approx_eq(line_cost, exact),
                "seed {seed}: {line_cost} vs {exact}"
            );
        }
    }

    /// Reproduction finding, pinned: the paper's chain-form conversion
    /// (Lemma 3.1's `π → π_R`) can *increase* cost, because a relay's
    /// omnidirectional emission may cover both directions at once. On this
    /// instance the true optimum routes left through station at 12.75,
    /// whose emission also reaches the rightmost receiver.
    #[test]
    fn chain_form_is_not_always_optimal() {
        let xs = [
            3.8028718636040804,
            5.959272936499409,
            12.750263874125656,
            14.78775546250687,
            15.061740524163438,
            15.136928125974087, // source
            19.54707614684218,
        ];
        let pts: Vec<Point> = xs.iter().map(|&x| Point::on_line(x)).collect();
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 5);
        let solver = LineSolver::new(&net);
        let receivers = vec![0, 3, 6];
        let (chain, _) = solver.solve(&receivers);
        let (exact, pa) = memt_exact(&net, &receivers);
        assert!(pa.multicasts_to(&net, &receivers));
        assert!(
            chain > exact * 1.2,
            "expected a >20% gap, got chain {chain} vs exact {exact}"
        );
        // The witness: station 2's emission covers station 1 (left) *and*
        // station 6 (right) simultaneously.
        assert!(approx_eq(pa.power(2), net.cost(2, 6)));
        assert!(net.cost(2, 1) <= pa.power(2));
    }

    /// Reproduction finding, pinned: the *true* optimal line cost function
    /// is not submodular (α = 3), so Lemma 3.1's d = 1 submodularity claim
    /// holds only for the chain-form cost. Serving the far-left receiver
    /// requires an emission that incidentally covers the mid-right
    /// receiver; so does (symmetrically) serving the far-right one — but
    /// the two free rides do not stack.
    #[test]
    fn true_line_cost_can_violate_submodularity() {
        let xs = [
            4.356527190351707,
            10.674030597699709,
            11.832764036637853,
            12.31465918377987, // source
            13.693364483533603,
            17.943075984877368,
        ];
        let pts: Vec<Point> = xs.iter().map(|&x| Point::on_line(x)).collect();
        let net = WirelessNetwork::euclidean(pts, PowerModel::with_alpha(3.0), 3);
        let c = |r: &[usize]| memt_exact(&net, r).0;
        let base = c(&[1, 4]);
        let with_i = c(&[0, 1, 4]);
        let with_j = c(&[1, 4, 5]);
        let with_ij = c(&[0, 1, 4, 5]);
        // Submodularity would require with_i + with_j ≥ with_ij + base.
        assert!(
            with_i + with_j < with_ij + base - 1.0,
            "violation vanished: {} vs {}",
            with_i + with_j,
            with_ij + base
        );
    }

    #[test]
    fn lemma_3_1_line_submodular() {
        for seed in 0..10 {
            let alpha = [1.0, 2.0, 3.0][seed as usize % 3];
            let solver = random_line(seed, 7, alpha);
            let cost = LineCost::new(solver);
            let game = ExplicitGame::tabulate(&cost);
            assert!(is_nondecreasing(&game), "seed {seed} α {alpha}");
            assert!(is_submodular(&game), "seed {seed} α {alpha}");
        }
    }

    #[test]
    fn efficient_set_matches_brute_force() {
        use wmcs_game::subset::members_of;
        for seed in 0..10 {
            let solver = random_line(seed, 6, 2.0);
            let cost = LineCost::new(solver);
            let game = ExplicitGame::tabulate(&cost);
            let n_players = game.n_players();
            let mut rng = SmallRng::seed_from_u64(seed + 4242);
            let u_players: Vec<f64> = (0..n_players).map(|_| rng.gen_range(0.0..8.0)).collect();
            let mut best = 0.0f64;
            for mask in 0u64..(1 << n_players) {
                let util: f64 = members_of(mask).iter().map(|&p| u_players[p]).sum();
                best = best.max(util - game.cost_mask(mask));
            }
            let solver = cost.solver();
            let mut u_st = vec![0.0; solver.network().n_stations()];
            for p in 0..n_players {
                u_st[solver.network().station_of_player(p)] = u_players[p];
            }
            let (set, nw) = solver.largest_efficient_set(&u_st);
            assert!((nw - best).abs() < 1e-7, "seed {seed}: {nw} vs {best}");
            let achieved: f64 = set.iter().map(|&x| u_st[x]).sum::<f64>() - solver.chain_cost(&set);
            assert!(approx_eq(achieved, nw));
        }
    }

    #[test]
    #[should_panic(expected = "d = 1")]
    fn two_dimensional_network_rejected() {
        let pts = vec![Point::xy(0.0, 0.0), Point::xy(1.0, 1.0)];
        let _ = LineSolver::new(&WirelessNetwork::euclidean(
            pts,
            PowerModel::free_space(),
            0,
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn solver_never_beats_exact_and_is_feasible(seed in 0u64..400) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(3usize..7);
            let solver = random_line(seed, n, 2.0);
            let receivers: Vec<usize> = (0..n)
                .filter(|&x| x != solver.network().source() && rng.gen_bool(0.5))
                .collect();
            let (cost, pa) = solver.solve(&receivers);
            let (exact, _) = memt_exact(solver.network(), &receivers);
            prop_assert!(cost >= exact - 1e-9, "{cost} beats optimum {exact}");
            prop_assert!(pa.multicasts_to(solver.network(), &receivers));
        }
    }
}
