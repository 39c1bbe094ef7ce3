//! T11 — churn table: the live-session engines serve both §2.1
//! universal-tree mechanisms across join/leave/rebid streams at
//! n ∈ {256, 1024, 4096} on every layout family.
//!
//! Per `(scenario, seed)` cell two deterministic churn traces run on the
//! same instance — *light* (a handful of events per batch, the stable
//! session regime) and *heavy* (a constant fraction of the universe per
//! batch, the flash-crowd regime) — through a warm
//! [`wmcs_wireless::ShapleySession`] and a warm
//! [`wmcs_wireless::McSession`], gating after **every** batch:
//!
//! * exact budget balance of the charged Shapley shares against the
//!   multicast cost of the currently served subtree;
//! * voluntary participation of both sessions' charges;
//! * at n ≤ 256, byte-identity of the warm Shapley allocation to a cold
//!   engine rebuilt from scratch on the session's current receiver set
//!   ([`shapley_drop_run_from`]), and of the warm MC outcome to a fresh
//!   [`NetWorth`] oracle on the same bid vector.
//!
//! As with T10, wall-clock is not a table column (rows must be
//! deterministic); per-cell compute seconds live in the sweep JSON, and
//! the warm sessions' per-layer costs on served workloads are measured
//! by the served-workload benchmark (`perfbench/`).

use crate::harness::scenario_network;
use crate::registry::{all_true, fmax, mean, Experiment, Obs, RowSummary};
use wmcs_geom::{ChurnProcess, LayoutFamily, Scenario, BB_TOL, EPS, VP_TOL};
use wmcs_wireless::incremental::shapley_drop_run_from;
use wmcs_wireless::session::{McSession, ShapleySession};
use wmcs_wireless::{NetWorth, SubstrateBuilder, TreeKind};

/// Batches per trace (after the warm-up batch that joins half the
/// universe).
const BATCHES: usize = 8;

/// The T11 experiment (registered as `"T11"`).
pub struct T11;

impl Experiment for T11 {
    fn id(&self) -> &'static str {
        "T11"
    }

    fn title(&self) -> &'static str {
        "churn: live sessions for both §2.1 mechanisms (n ≤ 4096)"
    }

    fn claim(&self) -> &'static str {
        "warm sessions absorb join/leave/rebid churn with exact BB and VP after every batch at \
         n up to 4096 under light and heavy churn; at n ≤ 256 every warm allocation is \
         byte-identical to a cold rebuild on the current receiver set"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "scenario",
            "seeds",
            "events l/h",
            "served frac l/h",
            "max rel |Σφ−C|",
            "ident≤256",
            "VP/MC ok",
        ]
    }

    fn scenarios(&self) -> Vec<Scenario> {
        Scenario::matrix(&LayoutFamily::ALL, &[256, 1024, 4096], &[2], &[2.0, 4.0])
    }

    fn measure(&self, scenario: &Scenario, seed: u64) -> Obs {
        let ut = SubstrateBuilder::from_owned(scenario_network(scenario, seed))
            .tree(TreeKind::Spt)
            .build_universal();
        let net = ut.network();
        let n_players = net.n_players();
        // Bids scaled to the per-player broadcast cost so traces mix
        // served receivers with genuine drop cascades (the T10 regime).
        let broadcast = ut.multicast_cost(&net.non_source_stations());
        let hi = (2.0 * broadcast / n_players as f64).max(EPS);

        let mut max_bb = 0.0f64;
        let mut vp_ok = true;
        let mut ident_ok = true;
        let mut mc_ok = true;
        let mut served = [0.0f64; 2]; // mean served fraction, per rate
        let mut events = [0.0f64; 2];

        let traces = [
            ChurnProcess::light(scenario, BATCHES, hi, seed ^ 0x11f7),
            ChurnProcess::heavy(scenario, BATCHES, hi, seed ^ 0x4eaf),
        ];
        for (rate, process) in traces.iter().enumerate() {
            let trace = process.generate();
            events[rate] = trace.n_events() as f64;
            let mut shapley = ShapleySession::new(&ut);
            let mut mc = McSession::new(&ut);
            for batch in &trace.batches {
                shapley.apply_events(batch);
                let candidates = shapley.active_players();
                let bids = shapley.reported_profile();
                let out = shapley.reprice();
                served[rate] +=
                    out.receivers.len() as f64 / (n_players as f64 * trace.batches.len() as f64);

                // Exact BB against the served subtree, every batch.
                let stations: Vec<usize> = out
                    .receivers
                    .iter()
                    .map(|&p| net.station_of_player(p))
                    .collect();
                let cost = ut.multicast_cost(&stations);
                max_bb = max_bb.max((out.revenue() - cost).abs() / cost.max(1.0));
                // VP: every survivor affords its charge.
                vp_ok &= out
                    .receivers
                    .iter()
                    .all(|&p| out.shares[p] <= bids[p] + VP_TOL);
                // Warm = cold byte-identity where the cold rebuild is
                // cheap enough to run per batch.
                if scenario.n <= 256 {
                    let cold = shapley_drop_run_from(&ut, &bids, &candidates);
                    ident_ok &= cold.receivers == out.receivers
                        && cold.shares == out.shares
                        && cold.served_cost == out.served_cost;
                }

                // The MC session: VP of the VCG charges, and warm-oracle
                // identity to a fresh DP at n ≤ 256.
                let eff = mc.apply_batch(batch);
                let mc_bids = mc.reported_profile();
                mc_ok &= eff
                    .receivers
                    .iter()
                    .all(|&p| eff.shares[p] <= mc_bids[p] + VP_TOL * (1.0 + mc_bids[p].abs()));
                if scenario.n <= 256 {
                    let cold = NetWorth::from_utilities(&ut, &mc.station_utilities()).vcg_outcome();
                    mc_ok &= cold.receivers == eff.receivers
                        && cold.shares == eff.shares
                        && cold.served_cost == eff.served_cost;
                }
            }
        }

        vec![
            served[0],
            served[1],
            max_bb,
            events[0],
            events[1],
            f64::from(ident_ok),
            f64::from(vp_ok),
            f64::from(mc_ok),
        ]
    }

    fn row(&self, scenario: &Scenario, obs: &[Obs]) -> RowSummary {
        let bb = fmax(obs, 2);
        let ident = all_true(obs, 5);
        let vp = all_true(obs, 6);
        let mc = all_true(obs, 7);
        RowSummary::gated(
            vec![
                scenario.label(),
                obs.len().to_string(),
                format!("{:.0}/{:.0}", mean(obs, 3), mean(obs, 4)),
                format!("{:.3}/{:.3}", mean(obs, 0), mean(obs, 1)),
                format!("{bb:.2e}"),
                ident.to_string(),
                format!("{vp}/{mc}"),
            ],
            bb < BB_TOL && ident && vp && mc,
        )
    }

    fn verdict(&self, rows: &[RowSummary]) -> String {
        if rows.iter().all(|r| r.good) {
            "live sessions stay exactly budget balanced with VP after every churn batch on \
             every layout up to n = 4096; warm allocations byte-identical to cold rebuilds \
             at n ≤ 256"
                .into()
        } else {
            "MISMATCH".into()
        }
    }
}
