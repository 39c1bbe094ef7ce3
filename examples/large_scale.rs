//! Large-n smoke: a 100 000-station substrate grown through the grid
//! index, priced live by the universal-tree Shapley session.
//!
//! This is the release-mode CI gate for the million-station substrate
//! path (see `.github/workflows/ci.yml`): the network stays **lazy** (no
//! `O(n²)` cost matrix is ever materialised), the builder grows the SPT
//! and MST universal trees through the grid index, both parent
//! arrays must hash to their pinned digests, an SPT grown on a 10:1
//! strip of the same density must match its own digest without raising
//! the process's peak memory by more than half, warm session state must
//! stay under a per-group ceiling on a many-group [`MulticastService`]
//! for both mechanisms, every outcome that service returns must store no
//! more share entries than it has receivers (nothing sized by n), and
//! one warm churn session over the SPT must keep the paper's §2.1
//! guarantees — exact budget balance of the charged Shapley shares and
//! voluntary participation — at a station count one hundred times past
//! the seed's experiment tables.
//!
//! ```text
//! cargo run --release --example large_scale
//! ```

use multicast_cost_sharing::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const N: usize = 100_000;

/// FNV-1a digests of the n = 10⁵ parent arrays on the square (see
/// [`parent_digest`]).
/// Spatial growth replays the dense scan's selection order exactly, so
/// these change only when a change means to change trees; such a change
/// updates the pins and records why in CHANGES.md.
const SPT_DIGEST: u64 = 0x1f59_4e13_bbec_0204;
const MST_DIGEST: u64 = 0x5c42_10f8_6fbd_d6d6;
/// The same digest for the SPT over the 10:1 strip (see [`strip_points`]).
const STRIP_SPT_DIGEST: u64 = 0x7997_ea30_2495_164a;

/// Groups of each mechanism sharing the substrate in the warm-state
/// check.
const GROUPS: usize = 64;
/// Members joined per group.
const MEMBERS: usize = 32;
/// Warm bytes/group ceilings, one per mechanism, at ~1.1× what each
/// measures here (106,065 B Shapley, 285,332 B MC). Both sit below what
/// the engines held while frames copied each station's edge cost
/// (156,077 B and 334,645 B). A frame-local session
/// holds its members' path closure (SPT paths under distance² costs are
/// many-hop: ~5k stations here), never an array sized by n — one `f64`
/// per station alone is 800 KB at this n — and no buffer that lives only
/// within one reprice: the Shapley round pass's two `f64` buffers alone
/// would add ~70 KB per group here.
const SHAPLEY_WARM_CEILING: usize = 117_000;
const MC_WARM_CEILING: usize = 314_000;

/// FNV-1a over 64-bit little-endian words, one per station in id order:
/// the parent's id, or `u64::MAX` at the source (the word rule of the
/// served-workload benchmark's outcome digest).
fn parent_digest(ut: &UniversalTree) -> u64 {
    let source = ut.network().source();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in 0..ut.network().n_stations() {
        let word = if v == source {
            u64::MAX
        } else {
            ut.substrate().parent_of(v) as u64
        };
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Print `tree`'s parent digest and assert it equals `pin`.
fn assert_digest(kind: &str, tree: &UniversalTree, pin: u64) {
    let digest = parent_digest(tree);
    println!("{kind} parent digest {digest:016x}");
    assert_eq!(
        digest, pin,
        "{kind} parent digest {digest:016x} drifted from the pinned {pin:016x}"
    );
}

/// The process's peak resident set in kB, `VmHWM` in `/proc/self/status`,
/// where that file exists (Linux).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// `", VmHWM <peak resident set>"` where [`peak_rss_kb`] can read it,
/// else nothing: set-up memory for the release log.
fn peak_rss_note() -> String {
    peak_rss_kb().map_or_else(String::new, |kb| format!(", VmHWM {kb} kB"))
}

/// `N` stations uniform in a 10:1 rectangle with the area of the square
/// of side `side`, so at the same density (`SmallRng` seed 7). The grid
/// keeps one cell count per axis, so its cells here are 10:1 slivers and
/// each shell holds far more stations than on the square.
fn strip_points(side: f64) -> Vec<Point> {
    let (width, height) = (side * 10f64.sqrt(), side / 10f64.sqrt());
    let mut rng = SmallRng::seed_from_u64(7);
    (0..N)
        .map(|_| Point::xy(rng.gen_range(0.0..width), rng.gen_range(0.0..height)))
        .collect()
}

fn main() {
    // Constant-density uniform stations: the regime the grid index is
    // built for. Lazy storage — a dense matrix here would be 80 GB.
    let side = (N as f64).sqrt() * 10.0;
    let mut rng = SmallRng::seed_from_u64(7);
    let pts: Vec<Point> = (0..N)
        .map(|_| Point::xy(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    let net = WirelessNetwork::euclidean_lazy(pts, PowerModel::free_space(), 0);

    #[expect(
        clippy::disallowed_methods,
        reason = "build timing is printed, never asserted"
    )]
    let t = std::time::Instant::now();
    let ut = SubstrateBuilder::from_owned(net)
        .tree(TreeKind::Spt)
        .build_universal();
    println!(
        "built n = {N} SPT substrate on the grid in {:.2?} ({:.1} bytes/station{})",
        t.elapsed(),
        ut.substrate().memory_bytes() as f64 / N as f64,
        peak_rss_note()
    );
    assert_digest("SPT", &ut, SPT_DIGEST);
    #[expect(
        clippy::disallowed_methods,
        reason = "build timing is printed, never asserted"
    )]
    let t = std::time::Instant::now();
    let mst = SubstrateBuilder::new(ut.network())
        .tree(TreeKind::Mst)
        .build_universal();
    println!(
        "built n = {N} MST substrate on the grid in {:.2?}{}",
        t.elapsed(),
        peak_rss_note()
    );
    assert_digest("MST", &mst, MST_DIGEST);
    drop(mst);

    // Bounded growth memory: the strip's shells hold far more stations
    // than the square's, so growth that buffered each expanded shell per
    // stream would show here. Growing it may raise the process's peak
    // resident set by at most half.
    let before = peak_rss_kb();
    #[expect(
        clippy::disallowed_methods,
        reason = "build timing is printed, never asserted"
    )]
    let t = std::time::Instant::now();
    let strip = SubstrateBuilder::from_owned(WirelessNetwork::euclidean_lazy(
        strip_points(side),
        PowerModel::free_space(),
        0,
    ))
    .tree(TreeKind::Spt)
    .build_universal();
    println!(
        "built n = {N} SPT substrate for a 10:1 strip on the grid in {:.2?}{}",
        t.elapsed(),
        peak_rss_note()
    );
    if let (Some(before), Some(after)) = (before, peak_rss_kb()) {
        assert!(
            2 * after <= 3 * before,
            "growing the 10:1 strip raised the peak resident set from {before} kB to \
             {after} kB, over 1.5×"
        );
    }
    assert_digest("10:1 strip SPT", &strip, STRIP_SPT_DIGEST);
    drop(strip);

    // Bids are at most `hi`: twice the broadcast cost split over every player.
    let broadcast = ut.multicast_cost(&ut.network().non_source_stations());
    let hi = 2.0 * broadcast / (N - 1) as f64;

    // Warm-state ceiling, per mechanism: GROUPS groups on one service,
    // each joining MEMBERS players drawn from its own generator (a
    // repeated draw just re-joins) — the same joins for both mechanisms.
    // Each of the step's outcomes must hold at most one share entry per
    // receiver: a length-n share vector would be 800 KB each.
    let joins: Vec<Vec<ChurnEvent>> = (0..GROUPS)
        .map(|g| {
            let mut r = SmallRng::seed_from_u64(0x51_0000 + g as u64);
            (0..MEMBERS)
                .map(|_| ChurnEvent::Join {
                    player: r.gen_range(0..N - 1),
                    utility: hi,
                })
                .collect()
        })
        .collect();
    for (mechanism, ceiling) in [
        (GroupMechanism::Shapley, SHAPLEY_WARM_CEILING),
        (GroupMechanism::MarginalCost, MC_WARM_CEILING),
    ] {
        let mut svc = MulticastService::new(&ut);
        for _ in 0..GROUPS {
            svc.add_group(mechanism);
        }
        for out in svc.step_all(&joins) {
            let (entries, receivers) = (out.outcome.shares.capacity(), out.outcome.receivers.len());
            assert!(
                entries <= receivers,
                "{mechanism:?} group {}: {entries} share entries for {receivers} receivers \
                 (a share buffer sized by n = {N}?)",
                out.group
            );
        }
        let bytes_per_group = svc.memory_bytes() / GROUPS;
        println!(
            "warm session state: {bytes_per_group} bytes/group \
             ({GROUPS} {mechanism:?} groups × {MEMBERS} members)"
        );
        assert!(
            bytes_per_group <= ceiling,
            "{mechanism:?}: warm state {bytes_per_group} B/group exceeds the \
             {ceiling} B ceiling (a per-group array sized by n = {N}, or a \
             per-reprice buffer kept warm?)"
        );
    }

    // One warm session: an opening join wave, then a churn batch, each
    // repriced from warm state by the incremental Moulin–Shenker engine.
    let trace = ChurnProcess::new(N - 1, 2, N / 4, hi, 11).generate();
    let mech = UniversalShapleyMechanism::new(ut);
    let mut session = mech.session();

    for (i, batch) in trace.batches.iter().enumerate() {
        session.apply_events(batch);
        let bids = session.reported_profile();
        let out = session.reprice();

        // Budget balance: charged shares sum to the served tree cost.
        assert!(
            (out.revenue() - out.served_cost).abs() <= 1e-9 * (1.0 + out.served_cost),
            "batch {i}: revenue {} drifted from cost {}",
            out.revenue(),
            out.served_cost
        );
        // Voluntary participation: nobody pays above their report.
        for &p in &out.receivers {
            assert!(
                out.shares[p] <= bids[p] + 1e-9 * (1.0 + bids[p]),
                "batch {i}: player {p} charged {} above report {}",
                out.shares[p],
                bids[p]
            );
        }
        println!(
            "batch {i}: {} events, {} served, revenue {:.2} == cost {:.2} (BB ok, VP ok)",
            batch.len(),
            out.receivers.len(),
            out.revenue(),
            out.served_cost
        );
    }
    println!(
        "large-scale smoke passed: warm state within its ceiling, BB and VP hold \
         on a warm n = {N} session"
    );
}
