//! T7 — Theorems 3.6/3.7: the Jain–Vazirani-based Euclidean Steiner
//! mechanism — budget-balance factor vs exact MEMT, cross-monotonicity and
//! group strategyproofness, across the layout families.

use crate::harness::{random_utilities, scenario_network};
use crate::registry::{all_true, count_true, fmax, mean, Experiment, Obs, RowSummary};
use wmcs_game::{find_group_deviation, find_unilateral_deviation};
use wmcs_geom::{LayoutFamily, Scenario, REL_TOL, SP_TOL_APPROX, VP_TOL};
use wmcs_graph::jv_steiner_shares;
use wmcs_mechanisms::EuclideanSteinerMechanism;
use wmcs_wireless::memt_exact;

/// The T7 experiment (registered as `"T7"`).
pub struct T7;

/// The paper's JV bound for dimension `d` (12 at d=2).
fn jv_bound(d: usize) -> f64 {
    if d == 2 {
        12.0
    } else {
        2.0 * (3f64.powi(i32::try_from(d).expect("scenario dimension fits i32")) - 1.0)
    }
}

impl Experiment for T7 {
    fn id(&self) -> &'static str {
        "T7"
    }

    fn title(&self) -> &'static str {
        "JV Euclidean Steiner mechanism (Thms 3.6/3.7)"
    }

    fn claim(&self) -> &'static str {
        "revenue ≤ 2(3^d − 1)·C* (12 for d=2); cross-monotonic shares; group strategyproof"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "scenario",
            "seeds",
            "mean Σc/C*",
            "max Σc/C*",
            "bound",
            "recovery",
            "cross-mono",
            "deviations",
        ]
    }

    fn scenarios(&self) -> Vec<Scenario> {
        vec![
            Scenario::new(LayoutFamily::UniformBox, 7, 2, 2.0),
            Scenario::new(LayoutFamily::UniformBox, 7, 2, 4.0),
            Scenario::new(LayoutFamily::Clustered, 7, 2, 2.0),
            Scenario::new(LayoutFamily::Grid, 7, 2, 2.0),
            Scenario::new(LayoutFamily::Circle, 7, 2, 2.0),
            Scenario::new(LayoutFamily::UniformBox, 6, 3, 3.0),
        ]
    }

    fn measure(&self, scenario: &Scenario, seed: u64) -> Obs {
        let n = scenario.n;
        let net = scenario_network(scenario, seed);
        let mech = EuclideanSteinerMechanism::new(&net);
        let k = net.n_players();
        let all: Vec<usize> = (1..n).collect();
        let (opt, _) = memt_exact(&net, &all);
        let out = mech.run_full(&vec![1e9; k]);
        let stations: Vec<usize> = out
            .outcome
            .receivers
            .iter()
            .map(|&p| net.station_of_player(p))
            .collect();
        let feasible = out.assignment.multicasts_to(&net, &stations);
        let ratio = out.outcome.revenue() / opt;
        let recovered = feasible && out.outcome.revenue() + VP_TOL >= out.outcome.served_cost;
        // Cross-monotonicity spot check: adding the last terminal never
        // raises anyone's JV share.
        let small: Vec<usize> = (1..n - 1).collect();
        let rs = jv_steiner_shares(net.costs(), 0, &small);
        let rl = jv_steiner_shares(net.costs(), 0, &all);
        let cross_mono_ok = small.iter().all(|&t| rl.share[t] <= rs.share[t] + REL_TOL);
        let u = random_utilities(seed ^ 0xc0ffee, k, 50.0);
        let deviation = find_unilateral_deviation(&mech, &u, SP_TOL_APPROX).is_some()
            || (k <= 5 && find_group_deviation(&mech, &u, 2, SP_TOL_APPROX).is_some());
        vec![
            ratio,
            f64::from(recovered),
            f64::from(cross_mono_ok),
            f64::from(deviation),
        ]
    }

    fn row(&self, scenario: &Scenario, obs: &[Obs]) -> RowSummary {
        let bound = jv_bound(scenario.dim);
        let max = fmax(obs, 0);
        let recovered = all_true(obs, 1);
        let cm = all_true(obs, 2);
        let devs = count_true(obs, 3);
        RowSummary::gated(
            vec![
                scenario.label(),
                obs.len().to_string(),
                format!("{:.3}", mean(obs, 0)),
                format!("{max:.3}"),
                format!("{bound:.1}"),
                recovered.to_string(),
                cm.to_string(),
                devs.to_string(),
            ],
            max <= bound + REL_TOL && recovered && cm && devs == 0,
        )
    }

    fn verdict(&self, rows: &[RowSummary]) -> String {
        if rows.iter().all(|r| r.good) {
            "12-BB / 2(3^d−1)-BB bounds hold with large slack on every layout; cross-monotone; \
             no profitable lies"
                .into()
        } else {
            "MISMATCH".into()
        }
    }
}
