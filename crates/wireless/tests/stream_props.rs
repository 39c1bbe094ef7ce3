//! Streaming determinism property suite (the T14 contract, randomised):
//! driving an interleaved multi-group event stream through
//! [`StreamService`] yields, per group, **byte-identical** epoch
//! outcomes to replaying the same events through a fresh single-threaded
//! [`MulticastService`] along the [`epoch_plan`] — for all five layout
//! families, every worker count in {1, 2, 4, 8} and every queue
//! capacity in {1, 2, 64} (both the watermark-seal and saturation-seal
//! regimes) — plus the admission-control integration tests: the
//! rejection point is deterministic across runs and worker counts, a
//! fully saturated service (every bounded queue at capacity) never
//! deadlocks, a producer that panics — its own assertion, or an
//! unknown player id caught at `submit` — unwinds out of `drive` with
//! its own message (all three watchdog-guarded), and the next drive
//! after a caught producer panic reports its own events only.
//!
//! [`epoch_plan`]: wmcs_wireless::epoch_plan

use proptest::prelude::*;
use std::time::Duration;
use wmcs_geom::{ChurnEvent, LayoutFamily, MultiGroupProcess, Scenario};
use wmcs_wireless::{
    replay_reference, Admission, GroupMechanism, MulticastService, StreamConfig, StreamHandle,
    StreamService, SubstrateBuilder, TreeKind, WirelessNetwork,
};

/// The network of a scenario draw (station 0 as source, matching the
/// single-group suite in `service_props.rs`).
fn scenario_net(family: LayoutFamily, n: usize, alpha: f64, seed: u64) -> WirelessNetwork {
    let sc = Scenario::new(family, n, 2, alpha);
    WirelessNetwork::euclidean(sc.points(seed), sc.power_model(), 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random layout family, group count, watermark, capacity and worker
    /// count: every group's epoch sequence is byte-identical to the
    /// single-threaded batch replay of its event subsequence, and the
    /// admission accounting closes (everything submitted is eventually
    /// accepted; every `Busy` is a counted retry).
    #[test]
    fn streaming_equals_batch_replay_for_any_worker_count(
        seed in 0u64..10_000,
        family_ix in 0usize..5,
        n in 10usize..24,
        g in 2usize..6,
        threads_ix in 0usize..4,
        cap_ix in 0usize..3,
        watermark in 2usize..6,
    ) {
        let family = LayoutFamily::ALL[family_ix];
        let threads = [1usize, 2, 4, 8][threads_ix];
        let capacity = [1usize, 2, 64][cap_ix];
        let net = scenario_net(family, n, 2.0, seed);
        let ut = SubstrateBuilder::new(&net).tree(TreeKind::Spt).build_universal();
        let broadcast = ut.multicast_cost(&ut.network().non_source_stations());
        let hi = (2.0 * broadcast / (n - 1) as f64).max(1e-9);
        let trace = MultiGroupProcess::new(n - 1, g, 3, hi, seed ^ 0x57e).generate();
        let stream = trace.interleaved();
        let config = StreamConfig::new(watermark, capacity, threads);

        let mechanisms: Vec<GroupMechanism> = (0..g).map(GroupMechanism::alternating).collect();
        let mut svc = StreamService::new(&ut, config);
        for &m in &mechanisms {
            svc.add_group(m);
        }
        let ((), report) = svc.drive(|h| {
            for &(group, ev) in &stream {
                h.submit_blocking(group, ev);
            }
        });

        for gr in &report.groups {
            let events: Vec<ChurnEvent> = stream
                .iter()
                .filter(|&&(eg, _)| eg == gr.group)
                .map(|&(_, ev)| ev)
                .collect();
            prop_assert_eq!(
                gr.accepted, events.len() as u64,
                "group {}: every submission is eventually accepted", gr.group
            );
            prop_assert_eq!(
                gr.rejected, gr.retries,
                "group {}: every Busy rejection was a counted retry", gr.group
            );
            let expect = replay_reference(&ut, &mechanisms, gr.group, &events, &config);
            prop_assert_eq!(
                gr.epochs.len(), expect.len(),
                "group {}: epoch count drifts from the plan", gr.group
            );
            for (k, (epoch, exp)) in gr.epochs.iter().zip(&expect).enumerate() {
                prop_assert_eq!(epoch.epoch, k as u64, "group {}: epoch numbering", gr.group);
                prop_assert_eq!(
                    &epoch.outcome.receivers, &exp.receivers,
                    "receiver drift: group {} epoch {}", gr.group, k
                );
                prop_assert_eq!(
                    &epoch.outcome.shares, &exp.shares,
                    "share drift: group {} epoch {}", gr.group, k
                );
                prop_assert_eq!(
                    epoch.outcome.served_cost, exp.served_cost,
                    "cost drift: group {} epoch {}", gr.group, k
                );
            }
        }
    }
}

/// A small fixed instance for the integration tests below.
fn small_service(g: usize, config: StreamConfig) -> StreamService {
    let net = scenario_net(LayoutFamily::UniformBox, 12, 2.0, 99);
    let ut = SubstrateBuilder::new(&net)
        .tree(TreeKind::Spt)
        .build_universal();
    let mut svc = StreamService::new(&ut, config);
    for i in 0..g {
        svc.add_group(GroupMechanism::alternating(i));
    }
    svc
}

/// The backpressure contract: with a single producer the admission
/// verdict sequence is a pure function of the submission sequence and
/// the config's watermark/capacity — **not** of the worker count or the
/// run. Every `(threads, repeat)` combination must reproduce the exact
/// same rejection points.
#[test]
fn rejection_points_are_identical_across_runs_and_worker_counts() {
    // 11 joins per group, capacity 2, watermark out of reach: the queue
    // overflows on every third submission per group.
    let events: Vec<(usize, ChurnEvent)> = (0..22)
        .map(|i| {
            (
                i % 2,
                ChurnEvent::Join {
                    player: i / 2,
                    utility: 1.0 + i as f64 * 0.25,
                },
            )
        })
        .collect();

    let mut reference: Option<Vec<Admission>> = None;
    for threads in [1usize, 2, 4, 8] {
        for repeat in 0..2 {
            let mut svc = small_service(2, StreamConfig::new(100, 2, threads));
            let (pattern, report) = svc.drive(|h| {
                events
                    .iter()
                    .map(|&(g, ev)| h.submit(g, ev))
                    .collect::<Vec<Admission>>()
            });
            // Plain `submit` drops rejected events; the rejection itself
            // saturation-seals the backlog deterministically.
            assert_eq!(
                report.n_accepted() + report.n_rejected(),
                events.len() as u64,
                "threads {threads} repeat {repeat}: accounting must close"
            );
            assert_eq!(report.n_retries(), 0, "plain submit never retries");
            match &reference {
                None => reference = Some(pattern),
                Some(expect) => assert_eq!(
                    &pattern, expect,
                    "threads {threads} repeat {repeat}: the rejection points moved"
                ),
            }
        }
    }
    // The pinned pattern for capacity 2: per group, two accepts then a
    // Busy that seals the pair — groups interleave independently.
    let expect = &reference.expect("at least one run recorded");
    for (i, adm) in expect.iter().enumerate() {
        let per_group = i / 2; // submission index within the group
        match adm {
            Admission::Accepted { group, depth, .. } => {
                assert_eq!(*group, i % 2);
                assert_eq!(*depth, per_group % 3 + 1, "submission {i}: queue depth");
            }
            Admission::Busy { group, depth } => {
                assert_eq!(*group, i % 2);
                assert_eq!(per_group % 3, 2, "submission {i}: busy only on overflow");
                assert_eq!(*depth, 2, "busy reports the configured capacity");
            }
        }
    }
}

/// Watchdog: a service whose **every** bounded queue is repeatedly
/// driven to capacity (capacity 1, more groups than workers, retry-on-
/// busy producer) completes its drive — admission control seals the
/// backlog instead of blocking, so full queues can never deadlock the
/// producer against the pool.
#[test]
fn saturated_queues_never_deadlock() {
    const GROUPS: usize = 8;
    const ROUNDS: usize = 40;
    let (tx, rx) = std::sync::mpsc::sync_channel(1);
    let worker = std::thread::spawn(move || {
        // Capacity 1 < watermark 4: every queue is full after one event,
        // every second submission per group hits Busy and saturation-
        // seals while both workers churn through the sealed epochs.
        let mut svc = small_service(GROUPS, StreamConfig::new(4, 1, 2));
        let ((), report) = svc.drive(|h| {
            for round in 0..ROUNDS {
                for g in 0..GROUPS {
                    h.submit_blocking(
                        g,
                        ChurnEvent::Join {
                            player: (round + g) % 11,
                            utility: 1.0 + round as f64 * 0.125,
                        },
                    );
                }
            }
        });
        tx.send(report).expect("the watchdog gave up on us");
    });
    let report = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("deadlock: the saturated drive did not complete under the watchdog");
    worker.join().expect("the driving thread panicked");

    assert_eq!(report.n_accepted(), (GROUPS * ROUNDS) as u64);
    assert_eq!(
        report.n_rejected(),
        report.n_retries(),
        "every Busy was retried"
    );
    assert!(
        report.n_rejected() > 0,
        "capacity 1 must exercise the Busy path"
    );
    // Capacity 1 seals one-event epochs: one per accepted event.
    assert_eq!(report.n_epochs(), GROUPS * ROUNDS);
    for gr in &report.groups {
        assert!(
            gr.epochs.iter().all(|e| e.n_events == 1),
            "group {}: capacity-1 epochs hold exactly one event",
            gr.group
        );
    }
}

/// Drive `svc` on a thread of its own and return the service with the
/// message of the panic `drive` re-raised. The watchdog fails the test
/// if the drive neither returns nor unwinds in time: a hang surfaces as
/// a failure, not as a stuck CI job.
fn panic_message_under_watchdog(
    mut svc: StreamService,
    producer: impl FnOnce(&StreamHandle<'_>) + Send + 'static,
) -> (StreamService, String) {
    let (tx, rx) = std::sync::mpsc::sync_channel(1);
    let driver = std::thread::spawn(move || {
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            svc.drive(producer);
        }));
        let message = unwound.err().map(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        });
        tx.send((svc, message)).expect("the watchdog gave up on us");
    });
    let (svc, message) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("hang: the drive neither returned nor unwound under the watchdog");
    driver
        .join()
        .expect("the driving thread panicked outside drive");
    (
        svc,
        message.expect("the drive returned instead of panicking"),
    )
}

/// A join for a player the universe does not have is refused at
/// `submit`, in the producer: `drive` re-raises that panic. Were the id
/// admitted, the worker absorbing the epoch would panic instead, leave
/// the group in flight, and the next seal of that group would wait
/// forever.
#[test]
fn an_unknown_player_id_panics_in_the_producer_and_drive_unwinds() {
    for threads in [1usize, 2] {
        let net = scenario_net(LayoutFamily::UniformBox, 8, 2.0, 5);
        let ut = SubstrateBuilder::new(&net)
            .tree(TreeKind::Spt)
            .build_universal();
        let mut svc = StreamService::new(&ut, StreamConfig::new(1, 8, threads));
        svc.add_group(GroupMechanism::alternating(0));
        let (_, message) = panic_message_under_watchdog(svc, |h| {
            for player in [100, 3] {
                h.submit(
                    0,
                    ChurnEvent::Join {
                        player,
                        utility: 5.0,
                    },
                );
            }
        });
        assert_eq!(
            message, "unknown player id 100: the universe has 7 players",
            "{threads} worker(s)"
        );
    }
}

/// A producer that panics after sealing epochs on several groups (and
/// leaving events pending on others) releases the workers as it unwinds,
/// so `drive` re-raises the producer's own message instead of waiting
/// on the pool forever.
#[test]
fn a_panicking_producer_unwinds_out_of_drive_with_its_own_message() {
    const GROUPS: usize = 4;
    for threads in [1usize, 4] {
        let svc = small_service(GROUPS, StreamConfig::new(2, 8, threads));
        let (_, message) = panic_message_under_watchdog(svc, |h| {
            for round in 0..5 {
                for g in 0..GROUPS {
                    h.submit(
                        g,
                        ChurnEvent::Join {
                            player: (round + g) % 11,
                            utility: 2.0 + round as f64,
                        },
                    );
                }
            }
            panic!("the producer gave up mid-stream");
        });
        assert_eq!(
            message, "the producer gave up mid-stream",
            "{threads} worker(s)"
        );
    }
}

/// A drive's queues, accounting and clock go with the drive, so a
/// caller that catches a producer panic and drives again gets a report
/// of the new drive alone. The panicked drive's sealed epoch stays
/// absorbed by the warm session; its unsealed join is dropped, exactly
/// as if it had never been submitted.
#[test]
fn a_drive_after_a_caught_producer_panic_reports_only_its_own_events() {
    let join = |player| ChurnEvent::Join {
        player,
        utility: 1e6,
    };
    for threads in [1usize, 2] {
        // Group 0 is a Shapley group; watermark 2 seals players 1 and 2,
        // and player 3 is still pending when the producer panics.
        let svc = small_service(1, StreamConfig::new(2, 8, threads));
        let ut = svc.universal_tree().clone();
        let (mut svc, message) = panic_message_under_watchdog(svc, move |h| {
            for player in 1..=3 {
                h.submit(0, join(player));
            }
            panic!("the producer gave up mid-stream");
        });
        assert_eq!(message, "the producer gave up mid-stream");

        let ((), report) = svc.drive(|h| {
            h.submit(0, join(4));
        });
        let gr = &report.groups[0];
        assert_eq!(
            (gr.accepted, gr.rejected, gr.retries),
            (1, 0, 0),
            "{threads} worker(s)"
        );
        let epochs: Vec<(u64, usize)> = gr.epochs.iter().map(|e| (e.epoch, e.n_events)).collect();
        assert_eq!(epochs, [(0, 1)], "{threads} worker(s)");
        assert_eq!(gr.latencies.join, [1], "{threads} worker(s)");

        let mut reference = MulticastService::new(&ut).with_threads(1);
        reference.add_group(GroupMechanism::Shapley);
        reference.step(&[(0, &[join(1), join(2)][..])]);
        let expect = reference
            .step(&[(0, &[join(4)][..])])
            .pop()
            .expect("one outcome per addressed group")
            .outcome;
        assert_eq!(expect.receivers, [1, 2, 4], "every bid of 1e6 is served");
        assert_eq!(gr.epochs[0].outcome, expect, "{threads} worker(s)");
    }
}
