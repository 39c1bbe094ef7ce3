//! The benchmark's self-test, at tiny scale: a deterministic generator,
//! a layer replay that matches both front doors bit for bit in both
//! layouts and for both mechanisms, output checks and a replay that
//! reject tampered outcomes, and health guards that fire on degenerate
//! drives.

use wmcs_game::MechanismOutcome;
use wmcs_geom::ChurnEvent;
use wmcs_perfbench::check::{guards, Checker, Health, MAX_DRIFT};
use wmcs_perfbench::drive::{setup, timed_inputs, DriveLog};
use wmcs_perfbench::replay::Replay;
use wmcs_perfbench::run::{run_traced, run_untraced};
use wmcs_perfbench::trace::Spans;
use wmcs_perfbench::workload::{build, standalone_costs, stations, Door, Generator, Spec};
use wmcs_wireless::{GroupMechanism, SessionLayout, SPARSE_AUTO_THRESHOLD};

/// A small healthy workload on either front door, over `stations`
/// stations: the services' default layout is dense below
/// [`SPARSE_AUTO_THRESHOLD`] and sparse from it on.
fn small(door: Door, stations: usize) -> Spec {
    Spec {
        name: "selftest",
        stations,
        groups: 4,
        members: 12,
        bid: (0.5, 1.5),
        door,
        batch: match door {
            Door::Stream { .. } => 24,
            Door::Steps { .. } => 4,
        },
        // Ten drives in the half-second runs below.
        drive_seconds: 0.05,
        setups: 2,
        needs_evictions: false,
    }
}

const STREAM: Door = Door::Stream {
    watermark: 6,
    capacity: 12,
};
const STEPS: Door = Door::Steps {
    groups_per_step: 2,
    steps_per_drive: 12,
};
/// Station counts whose default session layout is dense and sparse.
const LAYOUTS: [usize; 2] = [96, SPARSE_AUTO_THRESHOLD];
const DENSE: usize = LAYOUTS[0];

#[test]
fn generator_is_deterministic_per_seed() {
    let spec = small(STREAM, DENSE);
    let ut = build(stations(&spec));
    let draw = |seed: u64| {
        let mut gen = Generator::new(&spec, seed, standalone_costs(&ut));
        let warm = gen.warmup();
        let drive = gen.stream_drive(spec.batch);
        let steps = gen.step_segment(0, 5, 2, 3);
        format!("{warm:?}{drive:?}{steps:?}")
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));
}

#[test]
fn layer_replay_matches_both_front_doors_in_both_layouts() {
    let resolved = LAYOUTS.map(|n| SessionLayout::Auto.resolve(n));
    assert_eq!(resolved, [SessionLayout::Dense, SessionLayout::Sparse]);
    for door in [STREAM, STEPS] {
        for (n, layout) in LAYOUTS.into_iter().zip(resolved) {
            let spec = small(door, n);
            let traced =
                run_traced(&spec, 3, 0.5).unwrap_or_else(|e| panic!("{door:?} {layout:?}: {e}"));
            let untraced =
                run_untraced(&spec, 3, 0.5).unwrap_or_else(|e| panic!("{door:?} {layout:?}: {e}"));
            // Both modes serve the same inputs, so the same outcomes.
            assert_eq!(traced.digest, untraced.digest, "{door:?} {layout:?}");
            let metric = |name: &str| {
                traced
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.value)
            };
            assert!(metric("session.reprice_ms_p50").is_some_and(|v| v > 0.0));
            assert!(metric("trace.coverage").is_some_and(|v| v > 0.0 && v.is_finite()));
        }
    }
}

#[test]
fn outcomes_and_served_fraction_repeat_per_seed() {
    let spec = small(STEPS, DENSE);
    let a = run_untraced(&spec, 11, 0.5).expect("healthy run");
    let b = run_untraced(&spec, 11, 0.5).expect("healthy run");
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.health, b.health);
    let c = run_untraced(&spec, 12, 0.5).expect("healthy run");
    assert_ne!(a.digest, c.digest);
}

fn fails_with(spec: &Spec, needle: &str) {
    match run_untraced(spec, 5, 0.5) {
        Ok(_) => panic!("the guard for {needle:?} did not fire"),
        Err(e) => assert!(e.contains(needle), "expected {needle:?}, got {e}"),
    }
}

#[test]
fn guards_fire_on_degenerate_drives() {
    // Bids × 0.01: nobody can afford a share.
    let mut spec = small(STREAM, DENSE);
    spec.bid = (0.005, 0.015);
    fails_with(&spec, "served fraction");

    // Bids far above every share: one drop round, no eviction.
    let mut spec = small(STEPS, DENSE);
    spec.needs_evictions = true;
    spec.bid = (100.0, 200.0);
    fails_with(&spec, "no member was evicted");

    // A queue smaller than the watermark refuses submissions.
    let spec = small(
        Door::Stream {
            watermark: 6,
            capacity: 2,
        },
        DENSE,
    );
    fails_with(&spec, "refused");

    // The served fraction moves between the first and the last tenth.
    let spec = small(STREAM, DENSE);
    let steady = Health {
        served_fraction: 0.9,
        first_tenth: 0.9,
        last_tenth: 0.9 - 0.5 * MAX_DRIFT,
        evictions: 1,
        busy: 0,
    };
    guards(&spec, &steady).expect("a drift within the limit passes");
    let drifting = Health {
        last_tenth: 0.9 - 2.0 * MAX_DRIFT,
        ..steady
    };
    let err = guards(&spec, &drifting).expect_err("the drift guard must fire");
    assert!(err.contains("drifted"), "{err}");
}

/// A warmed small workload: its checker and replay have absorbed the
/// warm-up (returned as well), and `log` is the first timed drive,
/// unchecked.
fn first_drive(door: Door, stations: usize) -> (Spec, Checker, Replay, DriveLog, DriveLog) {
    let spec = small(door, stations);
    let mut served = setup(&spec, 9, &mut Spans::new(false)).expect("set-up");
    let mut checker = Checker::new(&spec, served.ut.network().n_players());
    checker
        .check_log(&served.warm, false)
        .expect("warm-up checks");
    let mut replay = Replay::create(&spec, &served.ut);
    replay
        .replay_log(&served.warm, false)
        .expect("warm-up replays");
    let inputs = timed_inputs(&spec, &mut served.gen, 0.5);
    let (log, _) = served
        .door
        .serve(&inputs[0], &mut Spans::new(false), 0)
        .expect("drive");
    (spec, checker, replay, served.warm, log)
}

/// Check the first timed drive after `tamper` changed one epoch of the
/// given mechanism; the check must fail with `needle`. `tamper` also
/// gets the players no event of that group ever named.
fn rejects(
    mechanism: GroupMechanism,
    needle: &str,
    tamper: impl Fn(&mut MechanismOutcome, &[usize]),
) {
    let (spec, checker, _, warm, mut log) = first_drive(STREAM, DENSE);
    checker
        .clone()
        .check_log(&log, true)
        .expect("the untampered drive passes");
    let at = log
        .epochs
        .iter()
        .position(|e| spec.mechanism(e.group) == mechanism && e.outcome.receivers.len() > 1)
        .expect("an epoch with two receivers");
    let group = log.epochs[at].group;
    let named: Vec<usize> = warm
        .epochs
        .iter()
        .chain(&log.epochs)
        .filter(|e| e.group == group)
        .flat_map(|e| &e.events)
        .map(|ev| match *ev {
            ChurnEvent::Join { player, .. }
            | ChurnEvent::Leave { player }
            | ChurnEvent::Rebid { player, .. } => player,
        })
        .collect();
    let strangers: Vec<usize> = (0..log.epochs[at].outcome.shares.len())
        .filter(|p| !named.contains(p))
        .collect();
    tamper(&mut log.epochs[at].outcome, &strangers);
    let err = checker
        .clone()
        .check_log(&log, true)
        .expect_err("a tampered outcome must fail the checks");
    assert!(err.contains(needle), "expected {needle:?}, got {err}");
}

#[test]
fn output_checks_reject_tampered_outcomes() {
    // A member charged far above any bid (every Shapley receiver is a
    // member).
    rejects(GroupMechanism::Shapley, "(VP)", |o, _| {
        let r = o.receivers[0];
        o.shares[r] = 1e12;
    });
    // A player outside the receiver set charged anything at all.
    rejects(GroupMechanism::Shapley, "non-receiver", |o, strangers| {
        o.shares[strangers[0]] = 1e-9;
    });
    // Shapley revenue 1% short of the served cost.
    rejects(GroupMechanism::Shapley, "budget balance", |o, _| {
        for &r in &o.receivers {
            o.shares[r] *= 0.99;
        }
    });
    // A zero-bid relay (a receiver that never joined) charged.
    rejects(
        GroupMechanism::MarginalCost,
        "zero-bid relay",
        |o, strangers| {
            let p = strangers[0];
            let at = o.receivers.binary_search(&p).unwrap_err();
            o.receivers.insert(at, p);
            o.shares[p] = 1e-9;
        },
    );
    // A receiver id past the last player.
    rejects(GroupMechanism::MarginalCost, "out of range", |o, _| {
        o.receivers.push(o.shares.len());
    });
    // A served cost that is not a number.
    rejects(GroupMechanism::MarginalCost, "not finite", |o, _| {
        o.served_cost = f64::NAN;
    });
}

#[test]
fn layer_replay_rejects_one_flipped_share_bit() {
    for door in [STREAM, STEPS] {
        for n in LAYOUTS {
            let (_, _, mut replay, _, log) = first_drive(door, n);
            replay
                .replay_log(&log, true)
                .expect("the untampered drive replays");
            let (_, _, mut replay, _, mut log) = first_drive(door, n);
            let e = log
                .epochs
                .iter_mut()
                .find(|e| !e.outcome.receivers.is_empty())
                .expect("an epoch with a receiver");
            let r = e.outcome.receivers[0];
            e.outcome.shares[r] = f64::from_bits(e.outcome.shares[r].to_bits() ^ 1);
            let err = replay
                .replay_log(&log, true)
                .expect_err("a flipped share bit must fail the replay");
            assert!(err.contains("differs"), "{door:?} n = {n}: {err}");
        }
    }
}
