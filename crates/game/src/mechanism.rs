//! Mechanism interface and empirical property verifiers.
//!
//! A cost-sharing mechanism (§1) maps a reported utility profile to a
//! receiver set and cost shares. The verifiers here test, on concrete
//! instances, every requirement the paper works with: NPT, VP, CS,
//! β-approximate budget balance, strategyproofness (by unilateral deviation
//! sweeps) and group strategyproofness (by coalition deviation sweeps).
//! They return *witnesses*, so failing properties produce the paper's
//! counterexamples (e.g. the Fig. 1 collusion) verbatim.

use crate::shares::Shares;
use wmcs_geom::{EPS, IDENT_TOL};

/// Outcome of running a mechanism on a reported utility profile.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismOutcome {
    /// Players selected to receive the service, ascending.
    pub receivers: Vec<usize>,
    /// Cost share per player: reads as a length-`n` vector, `+0.0` for
    /// non-receivers, and stores only the entries the mechanism charged
    /// (`O(|R|)` bytes on the serving paths; see [`Shares`]).
    pub shares: Shares,
    /// Cost `C(R(u))` of the solution actually built by the mechanism.
    pub served_cost: f64,
}

impl MechanismOutcome {
    /// The trivial outcome serving nobody over `n` players; allocates
    /// nothing.
    pub fn empty(n: usize) -> Self {
        Self {
            receivers: Vec::new(),
            shares: Shares::new(n),
            served_cost: 0.0,
        }
    }

    /// Sum of all charged shares: the dense view's `Iterator::sum`, bit
    /// for bit (an `O(n)` fold, off the serving paths).
    pub fn revenue(&self) -> f64 {
        self.shares.iter().sum()
    }

    /// True if `p` receives the service.
    pub fn is_receiver(&self, p: usize) -> bool {
        self.receivers.binary_search(&p).is_ok()
    }

    /// Welfare `w_i = u_i − c_i` of player `p` under true utilities `u`
    /// (0 for non-receivers, per VP convention).
    pub fn welfare(&self, p: usize, true_utilities: &[f64]) -> f64 {
        if self.is_receiver(p) {
            true_utilities[p] - self.shares[p]
        } else {
            0.0
        }
    }
}

/// A cost-sharing mechanism: deterministic map from reported utilities to
/// an outcome.
pub trait Mechanism {
    /// Number of players.
    fn n_players(&self) -> usize;

    /// Run the mechanism on a reported utility profile.
    fn run(&self, reported: &[f64]) -> MechanismOutcome;
}

impl<F: Fn(&[f64]) -> MechanismOutcome> Mechanism for (usize, F) {
    fn n_players(&self) -> usize {
        self.0
    }
    fn run(&self, reported: &[f64]) -> MechanismOutcome {
        (self.1)(reported)
    }
}

/// NPT: no player is paid by the mechanism (`c_i ≥ 0`).
pub fn verify_no_positive_transfers(out: &MechanismOutcome) -> bool {
    out.shares.iter().all(|&c| c >= -EPS)
}

/// VP: every receiver's charge is at most its report, and non-receivers pay
/// nothing.
pub fn verify_voluntary_participation(out: &MechanismOutcome, reported: &[f64]) -> bool {
    (0..reported.len()).all(|p| {
        if out.is_receiver(p) {
            out.shares[p] <= reported[p] + EPS
        } else {
            out.shares[p].abs() <= EPS
        }
    })
}

/// CS: reporting `huge` gets the player served, holding others fixed.
pub fn verify_consumer_sovereignty(m: &impl Mechanism, reported: &[f64], huge: f64) -> bool {
    (0..m.n_players()).all(|p| {
        let mut v = reported.to_vec();
        v[p] = huge;
        m.run(&v).is_receiver(p)
    })
}

/// β-approximate budget balance \[29\]: cost recovery
/// `Σ c_i ≥ served_cost` and competitiveness `Σ c_i ≤ β · opt_cost`.
pub fn verify_budget_balance(out: &MechanismOutcome, beta: f64, opt_cost: f64) -> bool {
    let revenue = out.revenue();
    let tol = EPS * (1.0 + revenue.abs() + out.served_cost.abs() + opt_cost.abs());
    revenue + tol >= out.served_cost && revenue <= beta * opt_cost + tol
}

/// A profitable unilateral deviation: strategyproofness counterexample.
#[derive(Debug, Clone, PartialEq)]
pub struct UnilateralDeviation {
    /// Deviating player.
    pub player: usize,
    /// The lie that paid off.
    pub misreport: f64,
    /// Welfare when truthful.
    pub truthful_welfare: f64,
    /// Welfare after the lie.
    pub deviant_welfare: f64,
}

/// Candidate misreports for a player with true utility `u`: boundary values
/// plus perturbations around the truthful report and around the observed
/// truthful charge (the only payoff-relevant thresholds for the mechanisms
/// in this workspace, whose charges are report-independent).
fn candidate_misreports(u: f64, charge: f64) -> Vec<f64> {
    let mut c = vec![
        0.0,
        u / 2.0,
        (u - 0.1).max(0.0),
        u + 0.1,
        2.0 * u + 1.0,
        1e6,
    ];
    if charge > 0.0 {
        c.extend_from_slice(&[(charge - 0.05).max(0.0), charge, charge + 0.05]);
    }
    c
}

/// Sweep unilateral deviations for every player; returns the first
/// profitable one found (None ⇒ consistent with strategyproofness on this
/// profile).
pub fn find_unilateral_deviation(
    m: &impl Mechanism,
    true_utilities: &[f64],
    tol: f64,
) -> Option<UnilateralDeviation> {
    let truthful = m.run(true_utilities);
    for p in 0..m.n_players() {
        let w_true = truthful.welfare(p, true_utilities);
        for lie in candidate_misreports(true_utilities[p], truthful.shares[p]) {
            if (lie - true_utilities[p]).abs() < IDENT_TOL {
                continue;
            }
            let mut v = true_utilities.to_vec();
            v[p] = lie;
            let out = m.run(&v);
            let w_dev = out.welfare(p, true_utilities);
            if w_dev > w_true + tol {
                return Some(UnilateralDeviation {
                    player: p,
                    misreport: lie,
                    truthful_welfare: w_true,
                    deviant_welfare: w_dev,
                });
            }
        }
    }
    None
}

/// A profitable coalition deviation: group-strategyproofness
/// counterexample — no member loses, at least one strictly gains.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDeviation {
    /// The colluding players.
    pub coalition: Vec<usize>,
    /// Their joint misreports (same order as `coalition`).
    pub misreports: Vec<f64>,
    /// Truthful welfares of the members.
    pub truthful_welfares: Vec<f64>,
    /// Post-collusion welfares of the members.
    pub deviant_welfares: Vec<f64>,
}

/// Search coalitions up to `max_size` over a small per-member misreport
/// grid; returns the first deviation where every member is weakly better
/// off and someone strictly gains (the paper's group-SP condition, §1).
pub fn find_group_deviation(
    m: &impl Mechanism,
    true_utilities: &[f64],
    max_size: usize,
    tol: f64,
) -> Option<GroupDeviation> {
    let n = m.n_players();
    let truthful = m.run(true_utilities);
    let coalitions = enumerate_coalitions(n, max_size.min(n));
    for coalition in coalitions {
        let grids: Vec<Vec<f64>> = coalition
            .iter()
            .map(|&p| {
                let mut g = candidate_misreports(true_utilities[p], truthful.shares[p]);
                g.push(true_utilities[p]); // a member may stay truthful
                g
            })
            .collect();
        let mut pick = vec![0usize; coalition.len()];
        'outer: loop {
            let misreports: Vec<f64> = pick.iter().zip(&grids).map(|(&k, g)| g[k]).collect();
            if misreports
                .iter()
                .zip(&coalition)
                .any(|(&v, &p)| (v - true_utilities[p]).abs() > IDENT_TOL)
            {
                let mut v = true_utilities.to_vec();
                for (&p, &lie) in coalition.iter().zip(&misreports) {
                    v[p] = lie;
                }
                let out = m.run(&v);
                let w_true: Vec<f64> = coalition
                    .iter()
                    .map(|&p| truthful.welfare(p, true_utilities))
                    .collect();
                let w_dev: Vec<f64> = coalition
                    .iter()
                    .map(|&p| out.welfare(p, true_utilities))
                    .collect();
                let nobody_worse = w_dev.iter().zip(&w_true).all(|(d, t)| *d >= *t - tol);
                let someone_better = w_dev.iter().zip(&w_true).any(|(d, t)| *d > *t + tol);
                if nobody_worse && someone_better {
                    return Some(GroupDeviation {
                        coalition,
                        misreports,
                        truthful_welfares: w_true,
                        deviant_welfares: w_dev,
                    });
                }
            }
            // advance the mixed-radix counter
            for k in 0..pick.len() {
                pick[k] += 1;
                if pick[k] < grids[k].len() {
                    continue 'outer;
                }
                pick[k] = 0;
            }
            break;
        }
    }
    None
}

fn enumerate_coalitions(n: usize, max_size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for mask in 1u64..(1 << n) {
        let k = mask.count_ones() as usize;
        if k >= 2 && k <= max_size {
            out.push(crate::subset::members_of(mask));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed-price mechanism: serve everyone reporting ≥ price, charge the
    /// price. Strategyproof and group-strategyproof.
    fn fixed_price(n: usize, price: f64) -> impl Mechanism {
        (n, move |reported: &[f64]| {
            let receivers: Vec<usize> = (0..n).filter(|&p| reported[p] >= price).collect();
            let mut shares = vec![0.0; n];
            for &p in &receivers {
                shares[p] = price;
            }
            let served_cost = price * receivers.len() as f64;
            MechanismOutcome {
                receivers,
                shares: shares.into(),
                served_cost,
            }
        })
    }

    /// A broken mechanism: charges each receiver its own report (first-price
    /// flavour) — trivially manipulable.
    fn first_price(n: usize) -> impl Mechanism {
        (n, move |reported: &[f64]| {
            let receivers: Vec<usize> = (0..n).filter(|&p| reported[p] > 0.0).collect();
            let mut shares = vec![0.0; n];
            for &p in &receivers {
                shares[p] = reported[p];
            }
            let served_cost = 0.0;
            MechanismOutcome {
                receivers,
                shares: shares.into(),
                served_cost,
            }
        })
    }

    #[test]
    fn outcome_helpers() {
        let out = MechanismOutcome {
            receivers: vec![0, 2],
            shares: vec![1.0, 0.0, 2.0].into(),
            served_cost: 3.0,
        };
        assert!(out.is_receiver(0));
        assert!(!out.is_receiver(1));
        assert_eq!(out.revenue(), 3.0);
        assert_eq!(out.welfare(0, &[5.0, 5.0, 5.0]), 4.0);
        assert_eq!(out.welfare(1, &[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn fixed_price_passes_all_axioms() {
        let m = fixed_price(3, 2.0);
        let u = [1.0, 2.5, 3.0];
        let out = m.run(&u);
        assert_eq!(out.receivers, vec![1, 2]);
        assert!(verify_no_positive_transfers(&out));
        assert!(verify_voluntary_participation(&out, &u));
        assert!(verify_consumer_sovereignty(&m, &u, 1e9));
        assert!(verify_budget_balance(&out, 1.0, out.served_cost));
        assert!(find_unilateral_deviation(&m, &u, 1e-9).is_none());
        assert!(find_group_deviation(&m, &u, 3, 1e-9).is_none());
    }

    #[test]
    fn first_price_mechanism_is_manipulable() {
        let m = first_price(2);
        let u = [4.0, 4.0];
        let dev = find_unilateral_deviation(&m, &u, 1e-9).expect("must be manipulable");
        // Lying downward (but above 0) raises welfare.
        assert!(dev.deviant_welfare > dev.truthful_welfare);
    }

    #[test]
    fn vp_violation_detected() {
        let out = MechanismOutcome {
            receivers: vec![0],
            shares: vec![3.0, 0.0].into(),
            served_cost: 3.0,
        };
        assert!(!verify_voluntary_participation(&out, &[2.0, 1.0]));
        assert!(verify_voluntary_participation(&out, &[3.0, 1.0]));
    }

    #[test]
    fn npt_violation_detected() {
        let out = MechanismOutcome {
            receivers: vec![0],
            shares: vec![-1.0, 0.0].into(),
            served_cost: 0.0,
        };
        assert!(!verify_no_positive_transfers(&out));
    }

    #[test]
    fn budget_balance_bands() {
        let out = MechanismOutcome {
            receivers: vec![0, 1],
            shares: vec![2.0, 2.0].into(),
            served_cost: 3.5,
        };
        // revenue 4 covers served cost 3.5 and is within 2x of opt 2.5.
        assert!(verify_budget_balance(&out, 2.0, 2.5));
        // …but not 1-BB against opt 2.5.
        assert!(!verify_budget_balance(&out, 1.0, 2.5));
    }

    #[test]
    fn group_checker_finds_collusion_in_threshold_auction() {
        // Mechanism: serve all, charge everyone the *minimum* report. A
        // coalition can jointly lower the minimum and everyone pays less —
        // flagrant collusion.
        let n = 2;
        let m = (n, move |reported: &[f64]| {
            let price = reported.iter().cloned().fold(f64::INFINITY, f64::min);
            MechanismOutcome {
                receivers: vec![0, 1],
                shares: vec![price; 2].into(),
                served_cost: 2.0 * price,
            }
        });
        let u = [4.0, 4.0];
        let dev = find_group_deviation(&m, &u, 2, 1e-9).expect("collusion expected");
        assert_eq!(dev.coalition.len(), 2);
    }
}
