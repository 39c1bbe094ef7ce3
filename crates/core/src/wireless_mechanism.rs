//! The 3 ln(k+1)-BB strategyproof mechanism for multicast in symmetric
//! wireless networks (§2.2.3).
//!
//! Pipeline per outer round, exactly as in the paper:
//! 1. reduce the MEMT instance on the active receiver set to NWST
//!    (§2.2.1), with the source's input node as a free terminal of
//!    infinite utility that never pays and never counts in ratios;
//! 2. run the NWST cost-sharing mechanism (§2.2.2) — it selects the
//!    receivers `R̂` and charges the weakly-connected tree's node weights;
//! 3. back-convert the Steiner tree by BFS numbering into a directed
//!    multicast tree and its power assignment `π`; station powers beyond
//!    the NWST-paid levels `π'` are charged *backward along the
//!    enumeration*: each such station's power is split equally among its
//!    downstream receivers, dropping (and restarting without) anyone who
//!    cannot pay.
//!
//! The outer loop re-runs on the served set until it is a fixed point, so
//! the final shares are computed on exactly the receiver set that is
//! served. (The paper's `while R' ≠ R(v)` loop, read as a fixed-point
//! iteration — re-running on an unchanged set would loop forever.)

use wmcs_game::{Mechanism, MechanismOutcome};
use wmcs_geom::EPS;
use wmcs_nwst::{nwst_mechanism, NwstConfig, ReducedInstance};
use wmcs_wireless::{PowerAssignment, WirelessNetwork};

/// The §2.2.3 mechanism over a symmetric wireless network.
#[derive(Debug, Clone)]
pub struct WirelessMulticastMechanism {
    net: WirelessNetwork,
    reduction: ReducedInstance,
}

/// Mechanism outcome plus the built power assignment.
#[derive(Debug, Clone)]
pub struct WirelessOutcome {
    /// Receivers/shares/served cost in player space.
    pub outcome: MechanismOutcome,
    /// The power assignment implementing the multicast.
    pub assignment: PowerAssignment,
}

impl WirelessMulticastMechanism {
    /// Build the mechanism (precomputing the NWST reduction graph).
    pub fn new(net: &WirelessNetwork) -> Self {
        Self {
            net: net.clone(),
            reduction: ReducedInstance::build(net),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &WirelessNetwork {
        &self.net
    }

    /// Full run, returning the power assignment as well.
    pub fn run_full(&self, reported: &[f64]) -> WirelessOutcome {
        let net = &self.net;
        let n = net.n_players();
        assert_eq!(reported.len(), n);
        let mut active: Vec<usize> = (0..n).filter(|&p| reported[p] > 0.0).collect();
        loop {
            if active.is_empty() {
                return WirelessOutcome {
                    outcome: MechanismOutcome::empty(n),
                    assignment: PowerAssignment::zero(net.n_stations()),
                };
            }
            // (1)+(2): reduction + NWST mechanism. Terminal 0 is the free
            // source input node.
            let stations: Vec<usize> = active.iter().map(|&p| net.station_of_player(p)).collect();
            let terminals = self.reduction.terminals_for(net, &stations);
            let mut budgets = vec![f64::INFINITY];
            budgets.extend(active.iter().map(|&p| reported[p]));
            let nwst_out = nwst_mechanism(
                &self.reduction.graph,
                &terminals,
                &budgets,
                Some(0),
                &NwstConfig::default(),
            );
            let served: Vec<usize> = nwst_out
                .receivers
                .iter()
                .filter(|&&t| t != 0)
                .map(|&t| active[t - 1])
                .collect();
            if served.is_empty() {
                return WirelessOutcome {
                    outcome: MechanismOutcome::empty(n),
                    assignment: PowerAssignment::zero(net.n_stations()),
                };
            }
            if served.len() < active.len() {
                // NWST dropped someone: fixed-point restart on the
                // served set, so shares are computed on it from scratch.
                active = served;
                continue;
            }
            // Shares in player space from the NWST run.
            let mut shares = vec![0.0f64; n];
            for (t, &s) in nwst_out.shares.iter().enumerate() {
                if t != 0 && s != 0.0 {
                    shares[active[t - 1]] = s;
                }
            }
            // (3): back-conversion and backward charging of extra powers.
            let sol = self
                .reduction
                .to_power_assignment(net, &nwst_out.tree_edges);
            let pi = &sol.assignment;
            let paid = &sol.nwst_paid;
            // Directed children lists and a topological (BFS) order.
            let n_st = net.n_stations();
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); n_st];
            for &(a, b) in &sol.station_edges {
                children[a].push(b);
            }
            let order = bfs_order(net.source(), &children);
            let is_served = {
                let mut v = vec![false; n_st];
                for &p in &active {
                    v[net.station_of_player(p)] = true;
                }
                v
            };
            let mut dropped: Vec<usize> = Vec::new();
            // "Following backward the enumeration": leaves first.
            for &x in order.iter().rev() {
                if pi.power(x) <= paid.power(x) + EPS {
                    continue;
                }
                let downstream = receiver_descendants(x, &children, &is_served);
                if downstream.is_empty() {
                    continue;
                }
                let slice = pi.power(x) / downstream.len() as f64;
                let can_pay = downstream.iter().all(|&st| {
                    let p = net.player_of_station(st).expect("receivers are players");
                    reported[p] - shares[p] >= slice - EPS
                });
                if can_pay {
                    for &st in &downstream {
                        let p = net.player_of_station(st).expect("receivers are players");
                        shares[p] += slice;
                    }
                } else {
                    for &st in &downstream {
                        let p = net.player_of_station(st).expect("receivers are players");
                        if reported[p] - shares[p] < slice - EPS {
                            dropped.push(p);
                        }
                    }
                    break;
                }
            }
            if !dropped.is_empty() {
                active.retain(|p| !dropped.contains(p));
                continue;
            }
            let receivers = {
                let mut r = active.clone();
                r.sort_unstable();
                r
            };
            debug_assert!(pi.multicasts_to(
                net,
                &receivers
                    .iter()
                    .map(|&p| net.station_of_player(p))
                    .collect::<Vec<_>>()
            ));
            return WirelessOutcome {
                outcome: MechanismOutcome {
                    receivers,
                    shares: shares.into(),
                    served_cost: pi.total_cost(),
                },
                assignment: sol.assignment,
            };
        }
    }
}

fn bfs_order(root: usize, children: &[Vec<usize>]) -> Vec<usize> {
    let mut order = Vec::new();
    let mut queue = std::collections::VecDeque::from([root]);
    let mut seen = vec![false; children.len()];
    seen[root] = true;
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &c in &children[v] {
            if !seen[c] {
                seen[c] = true;
                queue.push_back(c);
            }
        }
    }
    order
}

fn receiver_descendants(x: usize, children: &[Vec<usize>], is_served: &[bool]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut stack: Vec<usize> = children[x].to_vec();
    let mut seen = vec![false; children.len()];
    while let Some(v) = stack.pop() {
        if seen[v] {
            continue;
        }
        seen[v] = true;
        if is_served[v] {
            out.push(v);
        }
        stack.extend(children[v].iter().copied());
    }
    out.sort_unstable();
    out
}

impl Mechanism for WirelessMulticastMechanism {
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
        find_unilateral_deviation, verify_no_positive_transfers, verify_voluntary_participation,
    };
    use wmcs_geom::{Point, PowerModel};
    use wmcs_wireless::memt_exact;

    fn mechanism(seed: u64, n: usize) -> WirelessMulticastMechanism {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::xy(rng.gen_range(0.0..6.0), rng.gen_range(0.0..6.0)))
            .collect();
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        WirelessMulticastMechanism::new(&net)
    }

    #[test]
    fn rich_profile_serves_everyone_feasibly() {
        let m = mechanism(1, 6);
        let out = m.run_full(&[1e6; 5]);
        assert_eq!(out.outcome.receivers, vec![0, 1, 2, 3, 4]);
        let stations: Vec<usize> = (1..6).collect();
        assert!(out.assignment.multicasts_to(m.network(), &stations));
        // Cost recovery.
        assert!(out.outcome.revenue() + 1e-9 >= out.outcome.served_cost);
    }

    #[test]
    fn beta_bound_against_exact_optimum() {
        // 3 ln(k+1)-approximate competitiveness (small-k analytic floor of
        // 2·2 = 4 applied: the ln bound is asymptotic; experiment T3
        // tabulates realised ratios, far below).
        for seed in 0..8 {
            let m = mechanism(seed, 6);
            let out = m.run_full(&[1e6; 5]);
            let stations: Vec<usize> = (1..6).collect();
            let (opt, _) = memt_exact(m.network(), &stations);
            let k = 5.0f64;
            let bound = (3.0 * (k + 1.0).ln()).max(4.0);
            assert!(
                out.outcome.revenue() <= bound * opt + 1e-6,
                "seed {seed}: revenue {} vs bound {} (opt {opt})",
                out.outcome.revenue(),
                bound * opt
            );
        }
    }

    #[test]
    fn poor_players_are_dropped_not_overcharged() {
        let m = mechanism(3, 6);
        let mut u = vec![1e6; 5];
        u[2] = 1e-6;
        let out = m.run_full(&u);
        assert!(!out.outcome.receivers.contains(&2));
        assert!(verify_voluntary_participation(&out.outcome, &u));
        assert!(verify_no_positive_transfers(&out.outcome));
        // The others are still served.
        assert!(out.outcome.receivers.len() >= 3);
    }

    #[test]
    fn all_zero_profile_serves_nobody() {
        let m = mechanism(4, 5);
        let out = m.run(&[0.0; 4]);
        assert!(out.receivers.is_empty());
        assert_eq!(out.revenue(), 0.0);
    }

    #[test]
    fn strategyproof_empirically() {
        for seed in 0..4 {
            let m = mechanism(seed, 5);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x77);
            let u: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..40.0)).collect();
            assert!(
                find_unilateral_deviation(&m, &u, 1e-6).is_none(),
                "seed {seed}: profitable deviation found"
            );
        }
    }

    #[test]
    fn served_assignment_is_feasible_on_random_profiles() {
        for seed in 0..10 {
            let m = mechanism(seed + 20, 6);
            let mut rng = SmallRng::seed_from_u64(seed);
            let u: Vec<f64> = (0..5).map(|_| rng.gen_range(0.0..60.0)).collect();
            let out = m.run_full(&u);
            let stations: Vec<usize> = out
                .outcome
                .receivers
                .iter()
                .map(|&p| m.network().station_of_player(p))
                .collect();
            assert!(
                out.assignment.multicasts_to(m.network(), &stations),
                "seed {seed}"
            );
            assert!(out.outcome.revenue() + 1e-9 >= out.outcome.served_cost);
        }
    }
}
