//! T14 — stream table: epoch-pipelined streaming ingestion gated
//! byte-identical to single-threaded batch replay, with exact latency
//! percentiles.
//!
//! The streaming layer ([`wmcs_wireless::StreamService`]) ingests one
//! interleaved `(group, event)` stream per `(scenario, seed)` cell — the
//! round-robin interleaving of the same deterministic
//! [`MultiGroupProcess`] workload T12 serves batch-wise — under **two**
//! regimes:
//!
//! * **watermark regime** (capacity ≫ watermark): every epoch is a
//!   count-watermark seal; admission must never reject;
//! * **saturation regime** (capacity < watermark): every full epoch is a
//!   backpressure seal; with retry-on-busy submission a group admitting
//!   `m` events must see exactly `⌊(m−1)/capacity⌋` deterministic
//!   [`wmcs_wireless::Admission::Busy`] rejections, each retried once.
//!
//! Both runs are gated **byte-identical** to replaying each group's
//! [`wmcs_wireless::epoch_plan`] chunks through a fresh single-threaded
//! [`MulticastService`] (`with_threads(1)` — the pinned reference), and
//! after **every epoch** the cell gates exact budget balance of each
//! Shapley group's charges against its served subtree plus voluntary
//! participation of every group's charges against the reference bid
//! profile.
//!
//! The watermark run's virtual-clock samples feed the exact
//! nearest-rank percentile harness ([`crate::latency`]): p50/p99/p999
//! per event class (join, leave, rebid, reprice) land in the table and
//! the sweep JSON as informational cells — deterministic integer math,
//! identical on every machine and thread count. Wall-clock throughput of
//! the stream path is measured by the served-workload benchmark
//! (`perfbench/`'s `served_stream` workload), not in this table.

use crate::harness::scenario_network;
use crate::latency::{EventClass, LatencyRecorder};
use crate::registry::{all_true, fmax, mean, Experiment, Obs, RowSummary};
use wmcs_geom::{ChurnEvent, LayoutFamily, MultiGroupProcess, Scenario, BB_TOL, EPS, VP_TOL};
use wmcs_wireless::{
    epoch_plan, GroupMechanism, MulticastService, StreamConfig, StreamReport, StreamService,
    SubstrateBuilder, TreeKind, UniversalTree,
};

/// Churn batches per group (after the per-group warm-up batch).
const BATCHES: usize = 4;
/// Count watermark sealing an epoch in both regimes.
const WATERMARK: usize = 8;
/// Watermark-regime queue capacity (≫ watermark: no rejection ever).
const WIDE_CAPACITY: usize = 64;
/// Saturation-regime queue capacity (< watermark: every full epoch is a
/// backpressure seal).
const TIGHT_CAPACITY: usize = 4;

/// The T14 experiment (registered as `"T14"`).
pub struct T14;

/// Drive `stream` through a fresh streaming service under `config`.
fn run_stream(
    ut: &UniversalTree,
    mechanisms: &[GroupMechanism],
    stream: &[(usize, ChurnEvent)],
    config: StreamConfig,
) -> StreamReport {
    let mut svc = StreamService::new(ut, config);
    for &m in mechanisms {
        svc.add_group(m);
    }
    let ((), report) = svc.drive(|h| {
        for &(group, ev) in stream {
            h.submit_blocking(group, ev);
        }
    });
    report
}

impl Experiment for T14 {
    fn id(&self) -> &'static str {
        "T14"
    }

    fn title(&self) -> &'static str {
        "stream: epoch-pipelined ingestion ≡ batch replay, exact latency percentiles"
    }

    fn claim(&self) -> &'static str {
        "epoch-pipelined streaming ingestion with bounded queues and deterministic \
         count-watermark sealing is byte-identical to single-threaded batch replay of the \
         epoch plan, with exact per-epoch BB and VP, exact Busy accounting under \
         saturation, and exact virtual-clock p50/p99/p999 per event class"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "scenario",
            "seeds",
            "events",
            "epochs",
            "join p50/99/999",
            "leave p50/99/999",
            "rebid p50/99/999",
            "repr p50/99/999",
            "max rel |Σφ−C|",
            "stream≡batch",
            "busy/VP",
        ]
    }

    fn scenarios(&self) -> Vec<Scenario> {
        Scenario::matrix(&LayoutFamily::ALL, &[64, 256], &[2], &[2.0, 4.0])
            .into_iter()
            .map(|sc| sc.with_groups(sc.n / 4))
            .collect()
    }

    fn measure(&self, scenario: &Scenario, seed: u64) -> Obs {
        let net = scenario_network(scenario, seed);
        let ut = SubstrateBuilder::new(&net)
            .tree(TreeKind::Spt)
            .build_universal();
        let net = ut.network();
        let n_players = net.n_players();
        let g = scenario.groups;
        let broadcast = ut.multicast_cost(&net.non_source_stations());
        let hi = (2.0 * broadcast / n_players as f64).max(EPS);
        let trace = MultiGroupProcess::new(n_players, g, BATCHES, hi, seed ^ 0x7a14).generate();
        let stream = trace.interleaved();
        let mechanisms: Vec<GroupMechanism> = (0..g).map(GroupMechanism::alternating).collect();

        let mut stream_ok = true;
        let mut busy_ok = true;
        let mut vp_ok = true;
        let mut max_bb = 0.0f64;
        let mut epochs_watermark = 0usize;
        let mut rec = LatencyRecorder::new();

        for (wide, config) in [
            (true, StreamConfig::new(WATERMARK, WIDE_CAPACITY, 2)),
            (false, StreamConfig::new(WATERMARK, TIGHT_CAPACITY, 3)),
        ] {
            let report = run_stream(&ut, &mechanisms, &stream, config);
            if wide {
                epochs_watermark = report.n_epochs();
                rec.record_stream(&report.latencies());
            }
            // The single-threaded pinned reference, replayed per group
            // along the pure epoch plan. Groups are independent, so one
            // reference service can serve every group's chunk sequence.
            let mut reference = MulticastService::new(&ut).with_threads(1);
            for &m in &mechanisms {
                reference.add_group(m);
            }
            for gr in &report.groups {
                let events: Vec<ChurnEvent> = stream
                    .iter()
                    .filter(|&&(eg, _)| eg == gr.group)
                    .map(|&(_, ev)| ev)
                    .collect();
                // Deterministic admission accounting: everything admitted,
                // Busy exactly at the saturation boundaries (each retried
                // once by submit_blocking), nothing in the wide regime.
                busy_ok &= gr.accepted == events.len() as u64;
                let expect_busy = if config.capacity() < config.watermark() && !events.is_empty() {
                    ((events.len() - 1) / config.capacity()) as u64
                } else {
                    0
                };
                busy_ok &= gr.rejected == expect_busy && gr.retries == expect_busy;

                let plan = epoch_plan(&events, &config);
                stream_ok &= gr.epochs.len() == plan.len();
                for (k, chunk) in plan.iter().enumerate() {
                    let expect = reference
                        .step(&[(gr.group, chunk)])
                        .pop()
                        .expect("one outcome per addressed group")
                        .outcome;
                    let Some(got) = gr.epochs.get(k) else {
                        stream_ok = false;
                        continue;
                    };
                    stream_ok &= got.outcome == expect && got.n_events == chunk.len();
                    // Exact BB for Shapley groups, against the group's
                    // own served subtree, after every epoch.
                    if gr.mechanism == GroupMechanism::Shapley {
                        let stations: Vec<usize> = got
                            .outcome
                            .receivers
                            .iter()
                            .map(|&p| net.station_of_player(p))
                            .collect();
                        let cost = ut.multicast_cost(&stations);
                        max_bb = max_bb.max((got.outcome.revenue() - cost).abs() / cost.max(1.0));
                    }
                    // VP for every group after every epoch: nobody is
                    // charged beyond its reference bid.
                    let bids = reference.reported_profile(gr.group);
                    vp_ok &= got.outcome.receivers.iter().all(|&p| {
                        got.outcome.shares[p] <= bids[p] + VP_TOL * (1.0 + bids[p].abs())
                    });
                }
            }
        }

        let mut obs = vec![
            stream.len() as f64,
            epochs_watermark as f64,
            f64::from(stream_ok),
            f64::from(busy_ok),
            max_bb,
            f64::from(vp_ok),
        ];
        for class in EventClass::ALL {
            let s = rec.summary(class);
            obs.extend([s.p50 as f64, s.p99 as f64, s.p999 as f64]);
        }
        obs
    }

    fn row(&self, scenario: &Scenario, obs: &[Obs]) -> RowSummary {
        let stream = all_true(obs, 2);
        let busy = all_true(obs, 3);
        let bb = fmax(obs, 4);
        let vp = all_true(obs, 5);
        let pct = |base: usize| {
            format!(
                "{:.0}/{:.0}/{:.0}",
                fmax(obs, base),
                fmax(obs, base + 1),
                fmax(obs, base + 2)
            )
        };
        RowSummary::gated(
            vec![
                scenario.label(),
                obs.len().to_string(),
                format!("{:.0}", mean(obs, 0)),
                format!("{:.0}", mean(obs, 1)),
                pct(6),
                pct(9),
                pct(12),
                pct(15),
                format!("{bb:.2e}"),
                stream.to_string(),
                format!("{busy}/{vp}"),
            ],
            bb < BB_TOL && stream && busy && vp,
        )
    }

    fn verdict(&self, rows: &[RowSummary]) -> String {
        if rows.iter().all(|r| r.good) {
            "streaming ingestion is byte-identical to single-threaded batch replay of the \
             epoch plan on every layout, in both the watermark and the saturation regime, \
             with exact per-epoch BB and VP and exact deterministic Busy accounting"
                .into()
        } else {
            "MISMATCH".into()
        }
    }
}
