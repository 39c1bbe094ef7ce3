//! T12 — service table: G concurrent multicast groups priced over one
//! shared substrate by the sharded multi-group service layer.
//!
//! The paper prices one group over one universal tree; the service layer
//! ([`wmcs_wireless::MulticastService`]) serves G warm per-group
//! sessions — alternating `M(Shapley)` and MC — over a **single**
//! [`wmcs_wireless::TreeSubstrate`], sharded across a worker pool. Per
//! `(scenario, seed)` cell one deterministic [`MultiGroupProcess`]
//! workload (Zipf group sizes, overlapping member sets, light/heavy
//! per-group churn) runs through three servings of the same stream:
//!
//! * the **sharded** service (2 workers);
//! * the **single-thread** service — outcomes must be byte-identical to
//!   the sharded ones (the determinism contract of the shard);
//! * per group, an **independent single-group session over its own
//!   freshly built substrate** — outcomes must again be byte-identical
//!   (cross-group isolation: no group's state ever leaks into another's
//!   prices, and sharing the substrate is observationally invisible).
//!   This is also the per-batch identity the retired T15 gated on the
//!   same scenario matrix, now that every session is frame-local.
//!
//! On top of the identities the cell gates, after **every** batch:
//! exact budget balance of each Shapley group's charges against its own
//! served subtree, and voluntary participation of every group's charges.
//!
//! The scenario matrix stays at n ≤ 256 / G ≤ 64 so the per-batch cold
//! references stay tractable at 20 seeds. Wall-clock service throughput
//! is measured by the served-workload benchmark (`perfbench/`'s
//! `crowded_steps` workload, which serves through
//! [`MulticastService::step`]), not in this table.

use crate::harness::scenario_network;
use crate::registry::{all_true, fmax, mean, Experiment, Obs, RowSummary};
use wmcs_geom::{LayoutFamily, MultiGroupProcess, Scenario, BB_TOL, EPS, VP_TOL};
use wmcs_wireless::{GroupMechanism, GroupSession, MulticastService, SubstrateBuilder, TreeKind};

/// Churn batches per group (after the per-group warm-up batch).
const BATCHES: usize = 5;

/// The T12 experiment (registered as `"T12"`).
pub struct T12;

impl Experiment for T12 {
    fn id(&self) -> &'static str {
        "T12"
    }

    fn title(&self) -> &'static str {
        "service: G concurrent groups on one shared substrate (G ≤ 64)"
    }

    fn claim(&self) -> &'static str {
        "the sharded multi-group service prices G concurrent groups over one shared substrate \
         with exact per-group BB and VP after every batch, byte-identical to a single-thread \
         serving and to independent per-group sessions on their own substrates"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "scenario",
            "seeds",
            "events",
            "served frac",
            "max rel |Σφ−C|",
            "shard≡1thr",
            "isolated/VP",
        ]
    }

    fn scenarios(&self) -> Vec<Scenario> {
        Scenario::matrix(&LayoutFamily::ALL, &[64, 256], &[2], &[2.0, 4.0])
            .into_iter()
            .map(|sc| sc.with_groups(sc.n / 4))
            .collect()
    }

    fn measure(&self, scenario: &Scenario, seed: u64) -> Obs {
        let ut = SubstrateBuilder::from_owned(scenario_network(scenario, seed))
            .tree(TreeKind::Spt)
            .build_universal();
        let net = ut.network();
        let n_players = net.n_players();
        let g = scenario.groups;
        // Bids scaled to the per-player broadcast cost (the T10/T11
        // regime): groups mix served receivers with drop cascades.
        let broadcast = ut.multicast_cost(&net.non_source_stations());
        let hi = (2.0 * broadcast / n_players as f64).max(EPS);
        let trace = MultiGroupProcess::new(n_players, g, BATCHES, hi, seed ^ 0x5e7f).generate();

        let build = |threads: usize| {
            let mut svc = MulticastService::new(&ut).with_threads(threads);
            for i in 0..g {
                svc.add_group(GroupMechanism::alternating(i));
            }
            svc
        };
        let mut sharded = build(2);
        let mut serial = build(1);
        // Independent references: one session per group over its OWN
        // freshly built substrate (same network, separate allocation).
        let mut isolated: Vec<GroupSession> = (0..g)
            .map(|i| {
                GroupSession::new(
                    GroupMechanism::alternating(i),
                    &SubstrateBuilder::new(net)
                        .tree(TreeKind::Spt)
                        .build_universal(),
                )
            })
            .collect();

        let mut max_bb = 0.0f64;
        let mut shard_ok = true;
        let mut isolated_ok = true;
        let mut vp_ok = true;
        let mut served = 0.0f64;
        let mut served_cells = 0usize;

        for b in 0..trace.n_batches() {
            let batches: Vec<Vec<_>> = trace
                .groups
                .iter()
                .map(|gr| gr.trace.batches[b].clone())
                .collect();
            let outs = sharded.step_all(&batches);
            let ref_outs = serial.step_all(&batches);
            shard_ok &= outs == ref_outs;

            for (i, out) in outs.iter().enumerate() {
                let out = &out.outcome;
                // Byte-identity to the isolated own-substrate session.
                let own = isolated[i].apply_batch(&batches[i]);
                isolated_ok &= own.receivers == out.receivers
                    && own.shares == out.shares
                    && own.served_cost == out.served_cost;

                // Exact BB for Shapley groups, against the group's own
                // served subtree.
                if isolated[i].mechanism() == GroupMechanism::Shapley {
                    let stations: Vec<usize> = out
                        .receivers
                        .iter()
                        .map(|&p| net.station_of_player(p))
                        .collect();
                    let cost = ut.multicast_cost(&stations);
                    max_bb = max_bb.max((out.revenue() - cost).abs() / cost.max(1.0));
                }
                // VP for every group: nobody is charged beyond its bid.
                let bids = isolated[i].reported_profile();
                vp_ok &= out
                    .receivers
                    .iter()
                    .all(|&p| out.shares[p] <= bids[p] + VP_TOL * (1.0 + bids[p].abs()));
                let size = trace.groups[i].members.len();
                served += out.receivers.len() as f64 / size as f64;
                served_cells += 1;
            }
        }

        vec![
            trace.n_events() as f64,
            served / served_cells.max(1) as f64,
            max_bb,
            f64::from(shard_ok),
            f64::from(isolated_ok),
            f64::from(vp_ok),
        ]
    }

    fn row(&self, scenario: &Scenario, obs: &[Obs]) -> RowSummary {
        let bb = fmax(obs, 2);
        let shard = all_true(obs, 3);
        let iso = all_true(obs, 4);
        let vp = all_true(obs, 5);
        RowSummary::gated(
            vec![
                scenario.label(),
                obs.len().to_string(),
                format!("{:.0}", mean(obs, 0)),
                format!("{:.3}", mean(obs, 1)),
                format!("{bb:.2e}"),
                shard.to_string(),
                format!("{iso}/{vp}"),
            ],
            bb < BB_TOL && shard && iso && vp,
        )
    }

    fn verdict(&self, rows: &[RowSummary]) -> String {
        if rows.iter().all(|r| r.good) {
            "the sharded service serves G ≤ 64 concurrent groups on one substrate with exact \
             per-group BB and VP after every batch; outcomes byte-identical to single-thread \
             and to isolated own-substrate sessions on every layout"
                .into()
        } else {
            "MISMATCH".into()
        }
    }
}
