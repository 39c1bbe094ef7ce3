//! T10 — scaling table: the incremental Moulin–Shenker engine drives
//! both §2.1 universal-tree mechanisms at n ∈ {64, 256, 1024, 4096}
//! across every layout family and α ∈ {2, 4}.
//!
//! The paper's mechanisms were previously swept at n ≤ 8 (T1) because
//! each drop round rebuilt `T(R)` from scratch; the related
//! minimum-energy multicast literature evaluates at hundreds to
//! thousands of nodes, and this table puts the reproduction there. Per
//! `(scenario, seed)` cell it runs `M(Shapley)` through the incremental
//! engine and the MC mechanism through the net-worth oracle, which reads
//! every receiver's `NW(u_{−i})` off one top-down pass, and gates:
//!
//! * exact budget balance of the charged Shapley shares at every n;
//! * voluntary participation of both mechanisms' payments;
//! * MC efficiency dominance (`NW(u)` ≥ the Shapley outcome's welfare);
//! * at n = 64, byte-identity of the incremental run against the naive
//!   per-round `shapley_shares` reference, and agreement of the VCG
//!   oracle with full re-runs of the DP.
//!
//! Wall-clock per cell is **not** a table column (rows must be
//! deterministic for the engine's byte-identity contract); the sweep
//! JSON records per-cell compute seconds, which is where the scaling
//! curves live — see EXPERIMENTS.md for how to read them.

use crate::harness::{random_utilities, scenario_network};
use crate::registry::{all_true, fmax, mean, Experiment, Obs, RowSummary};
use wmcs_geom::{LayoutFamily, Scenario, BB_TOL, EPS, VP_TOL};
use wmcs_wireless::incremental::{reference_drop_run, shapley_drop_run_with_stats};
use wmcs_wireless::{NetWorth, SubstrateBuilder, TreeKind};

/// The T10 experiment (registered as `"T10"`).
pub struct T10;

impl Experiment for T10 {
    fn id(&self) -> &'static str {
        "T10"
    }

    fn title(&self) -> &'static str {
        "scaling: incremental Moulin–Shenker engine (n ≤ 4096)"
    }

    fn claim(&self) -> &'static str {
        "the incremental engine runs M(Shapley) and MC at n up to 4096 with exact BB, VP and \
         MC dominance on every layout; at n = 64 it is byte-identical to the naive reference"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "scenario",
            "seeds",
            "served frac",
            "mean rounds",
            "max rel |Σφ−C|",
            "ident@64",
            "VP/MC ok",
        ]
    }

    fn scenarios(&self) -> Vec<Scenario> {
        Scenario::matrix(
            &LayoutFamily::ALL,
            &[64, 256, 1024, 4096],
            &[2],
            &[2.0, 4.0],
        )
    }

    fn measure(&self, scenario: &Scenario, seed: u64) -> Obs {
        let ut = SubstrateBuilder::from_owned(scenario_network(scenario, seed))
            .tree(TreeKind::Spt)
            .build_universal();
        let net = ut.network();
        let n_players = net.n_players();
        // Utilities scaled to the per-player broadcast cost so runs mix
        // served receivers with genuine drop cascades at every n.
        let broadcast = ut.multicast_cost(&net.non_source_stations());
        let hi = (2.0 * broadcast / n_players as f64).max(EPS);
        let u = random_utilities(seed ^ 0x5ca1e, n_players, hi);

        // M(Shapley) through the incremental engine.
        let (out, stats) = shapley_drop_run_with_stats(&ut, &u);
        let frac = out.receivers.len() as f64 / n_players as f64;
        let rel_bb = (out.revenue() - out.served_cost).abs() / out.served_cost.max(1.0);
        let vp_ok = out
            .receivers
            .iter()
            .all(|&p| out.shares[p] <= u[p] + VP_TOL);

        // Identity against the naive reference where the naive driver is
        // still tractable.
        let ident_ok = if scenario.n <= 64 {
            let naive = reference_drop_run(&ut, &u);
            naive.receivers == out.receivers
                && naive.shares == out.shares
                && naive.served_cost == out.served_cost
        } else {
            true
        };

        // MC through the net-worth oracle.
        let mut u_st = vec![0.0; net.n_stations()];
        for (p, &v) in u.iter().enumerate() {
            u_st[net.station_of_player(p)] = v;
        }
        let mut oracle = NetWorth::from_utilities(&ut, &u_st);
        let nw = oracle.net_worth();
        let mc = oracle.vcg_outcome();
        // VP: no charge exceeds its report.
        let mut mc_ok = mc
            .receivers
            .iter()
            .all(|&p| mc.shares[p] <= u[p] + VP_TOL * (1.0 + u[p].abs()));
        if scenario.n <= 64 {
            // Each receiver's NW(u_{-x}), read off its root map, must
            // agree with a full DP re-run.
            for &p in &mc.receivers {
                let x = net.station_of_player(p);
                let mut u_minus = u_st.clone();
                u_minus[x] = 0.0;
                let full = ut.net_worth(&u_minus);
                if (full - oracle.net_worth_zeroing(x)).abs() > VP_TOL * (1.0 + full.abs()) {
                    mc_ok = false;
                }
            }
        }
        // Efficiency dominance: the MC net worth bounds the Shapley
        // outcome's welfare under the same tree cost.
        let shapley_welfare: f64 =
            out.receivers.iter().map(|&p| u[p]).sum::<f64>() - out.served_cost;
        let dominance_ok =
            nw + VP_TOL * (1.0 + nw.abs() + shapley_welfare.abs()) >= shapley_welfare;

        vec![
            frac,
            stats.rounds as f64,
            rel_bb,
            f64::from(ident_ok),
            f64::from(vp_ok),
            f64::from(mc_ok && dominance_ok),
        ]
    }

    fn row(&self, scenario: &Scenario, obs: &[Obs]) -> RowSummary {
        let frac = mean(obs, 0);
        let rounds = mean(obs, 1);
        let bb = fmax(obs, 2);
        let ident = all_true(obs, 3);
        let vp = all_true(obs, 4);
        let mc = all_true(obs, 5);
        RowSummary::gated(
            vec![
                scenario.label(),
                obs.len().to_string(),
                format!("{frac:.3}"),
                format!("{rounds:.1}"),
                format!("{bb:.2e}"),
                ident.to_string(),
                format!("{vp}/{mc}"),
            ],
            bb < BB_TOL && ident && vp && mc,
        )
    }

    fn verdict(&self, rows: &[RowSummary]) -> String {
        if rows.iter().all(|r| r.good) {
            "incremental engine scales both §2.1 mechanisms to n = 4096 with exact BB on every \
             layout; naive identity holds at n = 64"
                .into()
        } else {
            "MISMATCH".into()
        }
    }
}
