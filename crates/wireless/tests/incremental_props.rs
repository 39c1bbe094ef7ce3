//! Property suite for the warm engines: on every registered layout
//! family the incremental outcome — receiver set, shares, served cost —
//! is **byte-identical** to the naive per-round `shapley_shares`
//! reference, the Shapley engine's round pass *is* that reference split
//! bit for bit on any receiver set, the MC oracle's batched repair leaves
//! it equal to a cold oracle bit for bit — on lattice layouts whose
//! ties reach past the frame too — its VCG charges are the from-scratch
//! `run_vcg`'s (bit for bit where every float operation is exact, within
//! a few ulps of `1 + NW + C_T(R*)` elsewhere), and budget balance
//! survives at n = 1024.

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use wmcs_game::{run_vcg, MechanismOutcome};
use wmcs_geom::{LayoutFamily, Point, PowerModel, Scenario};
use wmcs_graph::RootedTree;
use wmcs_wireless::incremental::{reference_drop_run, shapley_drop_run};
use wmcs_wireless::{
    NetWorth, RoundBuffers, Shapley, SubstrateBuilder, TreeKind, UniversalTree, WirelessNetwork,
};

/// How far an MC charge read off a root map may sit from the
/// from-scratch VCG charge, in units of `1 + NW + C_T(R*)`: a few ulps.
/// The charge is one slack (a single rounded difference) added to the
/// bid, but the reference subtracts two net worths, each a sum of terms
/// as large as the receivers' utilities, `NW + C_T(R*)` in all. Where
/// `NW ≪ C_T(R*)` its rounding is many ulps of `NW` (up to 13 over 3,000
/// seeded instances of the five families) and at most 2 ulps of that sum.
const CHARGE_ULP_TOL: f64 = 4.0 * f64::EPSILON;

/// Universal tree of a scenario draw; alternates between both tree
/// constructions so the engine is pinned on SPT and MST shapes alike.
fn scenario_tree(family: LayoutFamily, n: usize, alpha: f64, seed: u64) -> UniversalTree {
    let kind = if seed.is_multiple_of(2) {
        TreeKind::Spt
    } else {
        TreeKind::Mst
    };
    scenario_tree_of(family, n, alpha, seed, kind)
}

/// Universal tree of a scenario draw with an explicit tree kind.
fn scenario_tree_of(
    family: LayoutFamily,
    n: usize,
    alpha: f64,
    seed: u64,
    kind: TreeKind,
) -> UniversalTree {
    let sc = Scenario::new(family, n, 2, alpha);
    let net = WirelessNetwork::euclidean(sc.points(seed), sc.power_model(), 0);
    SubstrateBuilder::new(&net).tree(kind).build_universal()
}

/// Utilities spanning the interesting regime: scaled to the per-player
/// broadcast cost so runs mix full service, cascaded drops and empty
/// outcomes.
fn utilities(ut: &UniversalTree, seed: u64, scale: f64) -> Vec<f64> {
    let n = ut.network().n_players();
    let total = ut.multicast_cost(&ut.network().non_source_stations());
    let hi = (scale * total / n as f64).max(1e-6);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x17c0_de05);
    (0..n).map(|_| rng.gen_range(0.0..hi)).collect()
}

/// Station-indexed utilities of a player-indexed profile (the source
/// carries 0).
fn station_utilities(ut: &UniversalTree, reported: &[f64]) -> Vec<f64> {
    let net = ut.network();
    let mut u = vec![0.0; net.n_stations()];
    for (p, &v) in reported.iter().enumerate() {
        u[net.station_of_player(p)] = v;
    }
    u
}

/// The from-scratch VCG reference on a player-indexed profile:
/// `run_vcg` over the plain DP behind `largest_efficient_set` (one full
/// DP per receiver) and `multicast_cost`. Also returns `NW(u)`.
fn from_scratch_vcg(ut: &UniversalTree, reported: &[f64]) -> (MechanismOutcome, f64) {
    let net = ut.network();
    let out = run_vcg(
        net.n_players(),
        reported,
        |u| {
            let (set, nw) = ut.largest_efficient_set(&station_utilities(ut, u));
            let players = set
                .iter()
                .filter_map(|&x| net.player_of_station(x))
                .collect();
            (players, nw)
        },
        |players| {
            let stations: Vec<usize> = players.iter().map(|&p| net.station_of_player(p)).collect();
            ut.multicast_cost(&stations)
        },
    );
    (out.outcome, out.net_worth)
}

/// An outcome's receivers, dense share bits and served-cost bits.
fn outcome_bits(o: &MechanismOutcome) -> (Vec<usize>, Vec<u64>, u64) {
    let shares = o.shares.iter().map(|x| x.to_bits()).collect();
    (o.receivers.clone(), shares, o.served_cost.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// The satellite identity: for every layout family at n ≤ 64 the
    /// incremental engine and the naive reference agree byte for byte.
    #[test]
    fn incremental_equals_naive_reference_on_every_family(
        fam_idx in 0usize..5,
        n in 3usize..=64,
        alpha_idx in 0usize..2,
        seed in 0u64..10_000,
        scale in 0.2f64..3.0,
    ) {
        let family = LayoutFamily::ALL[fam_idx];
        let alpha = [2.0f64, 4.0][alpha_idx];
        let ut = scenario_tree(family, n, alpha, seed);
        let u = utilities(&ut, seed, scale);
        let fast = shapley_drop_run(&ut, &u);
        let naive = reference_drop_run(&ut, &u);
        prop_assert_eq!(&fast.receivers, &naive.receivers,
            "{} n={} seed={}", family.name(), n, seed);
        prop_assert_eq!(&fast.shares, &naive.shares,
            "{} n={} seed={}", family.name(), n, seed);
        prop_assert_eq!(fast.served_cost, naive.served_cost,
            "{} n={} seed={}", family.name(), n, seed);
    }

    /// The identity the drop loop charges on: for an arbitrary receiver
    /// set — not only a fixpoint — the engine's round pass equals the
    /// reference split `shapley_shares` bit for bit, on every layout
    /// family and both tree kinds. The engine joins a superset in a
    /// shuffled order (so its frame layout varies) and drops the rest.
    #[test]
    fn round_pass_is_the_reference_split_bit_for_bit(
        fam_idx in 0usize..5,
        kind_idx in 0usize..2,
        n in 2usize..=256,
        alpha_idx in 0usize..2,
        seed in 0u64..10_000,
        keep in 0.05f64..1.0,
        leave in 0.0f64..0.5,
    ) {
        let family = LayoutFamily::ALL[fam_idx];
        let kind = [TreeKind::Spt, TreeKind::Mst][kind_idx];
        let ut = scenario_tree_of(family, n, [2.0, 4.0][alpha_idx], seed, kind);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_5e75);
        let mut joined: Vec<usize> = ut
            .network()
            .non_source_stations()
            .into_iter()
            .filter(|_| rng.gen_bool(keep))
            .collect();
        // Shuffle the join order (Fisher–Yates).
        for i in (1..joined.len()).rev() {
            joined.swap(i, rng.gen_range(0..=i));
        }
        let mut engine = Shapley::new(&ut);
        let locals: Vec<u32> = joined.iter().map(|&x| engine.add_receiver(x)).collect();
        let mut alive = Vec::new();
        for (&x, &l) in joined.iter().zip(&locals) {
            if rng.gen_bool(leave) {
                engine.drop_receiver(l);
            } else {
                alive.push((x, l));
            }
        }
        let stations: Vec<usize> = alive.iter().map(|&(x, _)| x).collect();
        let reference = ut.shapley_shares(&stations);
        let mut buf = RoundBuffers::default();
        let by_local = engine.round_shares_by_local(&mut buf);
        for &(x, l) in &alive {
            prop_assert_eq!(by_local[l as usize].to_bits(), reference[x].to_bits(),
                "{} n={} seed={} station {}", family.name(), n, seed, x);
        }
    }

    /// The served cost each warm engine sums over its own `T(R)` is the
    /// reference `multicast_cost` bit for bit, on every layout family and
    /// both tree kinds: for the Shapley engine after a round pass at every
    /// step of a join/leave walk (from the empty set, draining towards it
    /// at the end), and for the MC oracle on the set `efficient_set` returns
    /// after every `set_utility` of a random sequence (zeros included).
    #[test]
    fn served_cost_is_the_reference_multicast_cost_bit_for_bit(
        fam_idx in 0usize..5,
        kind_idx in 0usize..2,
        n in 2usize..=256,
        alpha_idx in 0usize..2,
        seed in 0u64..10_000,
        steps in 1usize..48,
        scale in 0.2f64..4.0,
    ) {
        let family = LayoutFamily::ALL[fam_idx];
        let kind = [TreeKind::Spt, TreeKind::Mst][kind_idx];
        let ut = scenario_tree_of(family, n, [2.0, 4.0][alpha_idx], seed, kind);
        let net = ut.network();
        let all = net.non_source_stations();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xc057_c057);
        let mut engine = Shapley::new(&ut);
        let mut buf = RoundBuffers::default();
        let mut local = vec![0u32; net.n_stations()];
        let mut alive: Vec<usize> = Vec::new();
        for step in 0..=steps {
            let reference = ut.multicast_cost(&alive).to_bits();
            // The served cost prices the last round pass's set.
            engine.round_shares_by_local(&mut buf);
            prop_assert_eq!(engine.served_cost(&buf).to_bits(), reference,
                "Shapley, {} n={} seed={} step {}", family.name(), n, seed, step);
            if step == steps {
                break;
            }
            let join = alive.is_empty()
                || (alive.len() < all.len() && alive.len() + step + 1 < steps && rng.gen_bool(0.6));
            if join {
                let absent: Vec<usize> =
                    all.iter().copied().filter(|x| !alive.contains(x)).collect();
                let x = absent[rng.gen_range(0..absent.len())];
                local[x] = engine.add_receiver(x);
                alive.push(x);
            } else {
                let x = alive.swap_remove(rng.gen_range(0..alive.len()));
                engine.drop_receiver(local[x]);
            }
            alive.sort_unstable();
        }
        let hi = (scale * ut.multicast_cost(&all) / all.len() as f64).max(1e-6);
        let mut oracle = NetWorth::new(&ut);
        for step in 0..=steps {
            let (set, _, cost) = oracle.efficient_set();
            prop_assert_eq!(cost.to_bits(), ut.multicast_cost(&set).to_bits(),
                "MC, {} n={} seed={} step {}", family.name(), n, seed, step);
            let x = all[rng.gen_range(0..all.len())];
            let utility = if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(0.0..hi) };
            oracle.set_utility(x, utility);
        }
    }

    /// The MC oracle's batched repair: epochs of `set_utility` calls —
    /// repeated stations within an epoch, zeros (as a `Leave` sets),
    /// `+0.0` and `−0.0` bids, and stations new to the frame — leave the
    /// warm oracle equal, after every epoch, to a cold oracle fed the same
    /// utilities: net worth, efficient set, served cost, every station's
    /// zeroing query and the VCG outcome, bit for bit. A `+0.0` bidder is
    /// charged exactly `+0.0`.
    #[test]
    fn batched_mc_repair_equals_a_cold_oracle_bit_for_bit(
        fam_idx in 0usize..5,
        kind_idx in 0usize..2,
        n in 2usize..=256,
        alpha_idx in 0usize..2,
        seed in 0u64..10_000,
        epochs in 1usize..8,
        scale in 0.2f64..4.0,
    ) {
        let family = LayoutFamily::ALL[fam_idx];
        let kind = [TreeKind::Spt, TreeKind::Mst][kind_idx];
        let ut = scenario_tree_of(family, n, [2.0, 4.0][alpha_idx], seed, kind);
        let net = ut.network();
        let all = net.non_source_stations();
        let hi = (scale * ut.multicast_cost(&all) / all.len() as f64).max(1e-6);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xba7c_4ed0);
        let mut u = vec![0.0f64; net.n_stations()];
        let mut warm = NetWorth::new(&ut);
        for epoch in 0..epochs {
            // A small pool per epoch, so stations repeat within it; the
            // pool is drawn afresh, so later epochs reach new stations.
            let pool: Vec<usize> = (0..1 + all.len() / 8)
                .map(|_| all[rng.gen_range(0..all.len())])
                .collect();
            for _ in 0..rng.gen_range(1..=2 * pool.len()) {
                let x = pool[rng.gen_range(0..pool.len())];
                let utility = match rng.gen_range(0..8) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(0.0..hi),
                };
                u[x] = utility;
                warm.set_utility(x, utility);
            }
            let mut cold = NetWorth::from_utilities(&ut, &u);
            let label = format!("{} n={} seed={} epoch {}", family.name(), n, seed, epoch);
            prop_assert_eq!(warm.net_worth().to_bits(), cold.net_worth().to_bits(), "{}", &label);
            let (wset, wnw, wcost) = warm.efficient_set();
            let (cset, cnw, ccost) = cold.efficient_set();
            prop_assert_eq!(&wset, &cset, "{}", &label);
            prop_assert_eq!(wnw.to_bits(), cnw.to_bits(), "{}", &label);
            prop_assert_eq!(wcost.to_bits(), ccost.to_bits(), "{}", &label);
            for &x in &all {
                prop_assert_eq!(warm.net_worth_zeroing(x).to_bits(),
                    cold.net_worth_zeroing(x).to_bits(), "{} station {}", &label, x);
            }
            let (w, c) = (warm.vcg_outcome(), cold.vcg_outcome());
            prop_assert_eq!(&w.receivers, &c.receivers, "{}", &label);
            let bits = |o: &wmcs_game::MechanismOutcome| -> Vec<u64> {
                o.shares.iter().map(|x| x.to_bits()).collect()
            };
            prop_assert_eq!(bits(&w), bits(&c), "{}", &label);
            prop_assert_eq!(w.served_cost.to_bits(), c.served_cost.to_bits(), "{}", &label);
            for &p in &w.receivers {
                if u[net.station_of_player(p)].to_bits() == 0 {
                    prop_assert_eq!(w.shares[p].to_bits(), 0, "{} player {}", &label, p);
                }
            }
        }
    }

    /// The MC kernel's tie path. Stations snapped to a small integer
    /// lattice collide (zero-cost children) and share costs (equal-cost
    /// siblings); bids mix exact lattice costs, which tie a prefix value
    /// at `+0.0` or at a sibling's, fractional values and bids near 1e17,
    /// whose prefix sums absorb small cost differences. Frames grow only
    /// by random partial bidder sets, over epochs of `set_utility`, so
    /// unframed siblings keep tying the framed winners. After each epoch
    /// the warm oracle equals a cold oracle framed on every station (no
    /// out-of-frame child, so no shortcut) and the plain DP — net worth,
    /// efficient set and its `multicast_cost` — bit for bit, zeroing
    /// queries and the VCG outcome included.
    #[test]
    fn frame_local_kernel_is_exact_on_lattice_ties(
        kind_idx in 0usize..2,
        n in 3usize..=72,
        side in 2u32..=6,
        alpha_idx in 0usize..2,
        seed in 0u64..10_000,
        epochs in 1usize..6,
    ) {
        let kind = [TreeKind::Spt, TreeKind::Mst][kind_idx];
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x1a77_1ce5);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::xy(f64::from(rng.gen_range(0..side)), f64::from(rng.gen_range(0..side))))
            .collect();
        let power = PowerModel::with_alpha([2.0, 4.0][alpha_idx]);
        let net = WirelessNetwork::euclidean(pts, power, 0);
        let ut = SubstrateBuilder::new(&net).tree(kind).build_universal();
        let all = net.non_source_stations();
        let mut u = vec![0.0f64; n];
        let mut warm = NetWorth::new(&ut);
        for epoch in 0..epochs {
            let bidders: Vec<usize> = all.iter().copied().filter(|_| rng.gen_bool(0.3)).collect();
            for &x in &bidders {
                let bid = match rng.gen_range(0..6) {
                    0 => 0.0,
                    1 | 2 => ut.substrate().parent_cost(x) * f64::from(rng.gen_range(1..4)),
                    3 => 1e17 + f64::from(rng.gen_range(0..64)),
                    _ => rng.gen_range(0.0..8.0),
                };
                u[x] = bid;
                warm.set_utility(x, bid);
            }
            let label = format!("{kind:?} n={n} side={side} seed={seed} epoch {epoch}");
            let mut cold = NetWorth::from_utilities(&ut, &u);
            let (set, nw) = ut.largest_efficient_set(&u);
            let cost = ut.multicast_cost(&set).to_bits();
            prop_assert_eq!(ut.net_worth(&u).to_bits(), nw.to_bits(), "{}", &label);
            for (name, oracle) in [("warm", &mut warm), ("cold", &mut cold)] {
                prop_assert_eq!(oracle.net_worth().to_bits(), nw.to_bits(), "{} {}", name, &label);
                let (got, got_nw, got_cost) = oracle.efficient_set();
                prop_assert_eq!(&got, &set, "{} {}", name, &label);
                prop_assert_eq!(got_nw.to_bits(), nw.to_bits(), "{} {}", name, &label);
                prop_assert_eq!(got_cost.to_bits(), cost, "{} {}", name, &label);
            }
            for &x in &all {
                prop_assert_eq!(warm.net_worth_zeroing(x).to_bits(),
                    cold.net_worth_zeroing(x).to_bits(), "{} station {}", &label, x);
            }
            let (w, c) = (warm.vcg_outcome(), cold.vcg_outcome());
            prop_assert_eq!(&w.receivers, &c.receivers, "{}", &label);
            let bits = |o: &wmcs_game::MechanismOutcome| -> Vec<u64> {
                o.shares.iter().map(|x| x.to_bits()).collect()
            };
            prop_assert_eq!(bits(&w), bits(&c), "{}", &label);
            prop_assert_eq!(w.served_cost.to_bits(), cost, "{}", &label);
        }
    }

    /// The exactness story where every float operation is exact:
    /// stations at integer points of a line (free-space costs are integer
    /// squares, duplicate points cost 0), a random explicit tree and
    /// integer bids, so every prefix value, slack, root map and net worth
    /// is an exact integer. The warm oracle (fed over epochs, its frame
    /// partial) and a cold one then both charge the from-scratch
    /// `run_vcg` outcome, bit for bit.
    #[test]
    fn mc_outcome_is_the_exact_vcg_on_integer_instances(
        n in 2usize..=48,
        span in 1u32..=24,
        max_bid in 1u32..=400,
        seed in 0u64..10_000,
        epochs in 1usize..5,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x1a7e_6e25);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::xy(f64::from(rng.gen_range(0..=span)), 0.0))
            .collect();
        // A random recursive tree: each station hangs off an earlier one.
        let parents: Vec<Option<usize>> =
            (0..n).map(|i| (i > 0).then(|| rng.gen_range(0..i))).collect();
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        let ut = SubstrateBuilder::from_owned(net)
            .explicit_tree(RootedTree::from_parents(0, parents))
            .build_universal();
        let net = ut.network();
        let mut reported = vec![0.0; net.n_players()];
        let mut warm = NetWorth::new(&ut);
        for epoch in 0..epochs {
            for (p, bid) in reported.iter_mut().enumerate() {
                if rng.gen_bool(0.4) {
                    *bid = if rng.gen_bool(0.2) { 0.0 } else { f64::from(rng.gen_range(1..=max_bid)) };
                    warm.set_utility(net.station_of_player(p), *bid);
                }
            }
            let (reference, _) = from_scratch_vcg(&ut, &reported);
            let want = outcome_bits(&reference);
            let mut cold = NetWorth::from_utilities(&ut, &station_utilities(&ut, &reported));
            let label = format!("n={n} span={span} seed={seed} epoch {epoch}");
            prop_assert_eq!(outcome_bits(&warm.vcg_outcome()), want.clone(), "warm {}", &label);
            prop_assert_eq!(outcome_bits(&cold.vcg_outcome()), want, "cold {}", &label);
        }
    }

    /// On general instances — every layout family, SPT and MST trees —
    /// the MC outcome serves the from-scratch `run_vcg`'s receivers at
    /// its served cost bit for bit, and each charge is its charge within
    /// [`CHARGE_ULP_TOL`]` · (1 + NW + C_T(R*))`. (Each `NW(u_{−x})` is
    /// pinned to a full DP by `net_worth_zeroing_matches_full_dp`.)
    #[test]
    fn mc_charges_are_the_from_scratch_vcg_within_ulps_of_nw(
        fam_idx in 0usize..5,
        kind_idx in 0usize..2,
        n in 3usize..=64,
        alpha_idx in 0usize..2,
        seed in 0u64..10_000,
        scale in 0.2f64..4.0,
    ) {
        let family = LayoutFamily::ALL[fam_idx];
        let kind = [TreeKind::Spt, TreeKind::Mst][kind_idx];
        let ut = scenario_tree_of(family, n, [2.0, 4.0][alpha_idx], seed, kind);
        let net = ut.network();
        let reported = utilities(&ut, seed, scale);
        let (reference, nw) = from_scratch_vcg(&ut, &reported);
        let out = NetWorth::from_utilities(&ut, &station_utilities(&ut, &reported)).vcg_outcome();
        let label = format!("{} {kind:?} n={n} seed={seed}", family.name());
        prop_assert_eq!(&out.receivers, &reference.receivers, "{}", &label);
        prop_assert_eq!(out.served_cost.to_bits(), reference.served_cost.to_bits(), "{}", &label);
        let unit = 1.0 + nw.abs() + out.served_cost;
        for p in 0..net.n_players() {
            let (got, want) = (out.shares[p], reference.shares[p]);
            prop_assert!((got - want).abs() <= CHARGE_ULP_TOL * unit,
                "{} player {}: {} vs {} (NW {}, cost {})", &label, p, got, want, nw, out.served_cost);
        }
    }

    /// The MC oracle's zeroing query agrees with a full DP on the
    /// modified profile, on every layout family.
    #[test]
    fn net_worth_zeroing_matches_full_dp(
        fam_idx in 0usize..5,
        n in 3usize..=32,
        seed in 0u64..10_000,
    ) {
        let family = LayoutFamily::ALL[fam_idx];
        let ut = scenario_tree(family, n, 2.0, seed);
        let u = utilities(&ut, seed ^ 0x7c9_0bb, 2.0);
        let mut u_st = vec![0.0; ut.network().n_stations()];
        for (p, &v) in u.iter().enumerate() {
            u_st[ut.network().station_of_player(p)] = v;
        }
        let mut oracle = NetWorth::from_utilities(&ut, &u_st);
        for x in ut.network().non_source_stations() {
            let mut u_minus = u_st.clone();
            u_minus[x] = 0.0;
            let full = ut.net_worth(&u_minus);
            let fast = oracle.net_worth_zeroing(x);
            prop_assert!((full - fast).abs() < 1e-9 * (1.0 + full.abs()),
                "{} n={} seed={} station {}: {} != {}",
                family.name(), n, seed, x, full, fast);
        }
    }
}

/// Budget balance at paper-scale-plus size: at n = 1024 on a fixed seed
/// the charged shares still sum to `C_T(R)` for every layout family —
/// on the full receiver set (a rich profile serves all 1023 players)
/// and on whatever survives a drop cascade (a scaled profile).
#[test]
fn budget_balance_holds_at_n_1024() {
    for family in LayoutFamily::ALL {
        let ut = scenario_tree(family, 1024, 2.0, 7);
        let rich = vec![1e12; ut.network().n_players()];
        let scaled = utilities(&ut, 7, 1.5);
        for (label, u) in [("rich", &rich), ("scaled", &scaled)] {
            let out = shapley_drop_run(&ut, u);
            let stations: Vec<usize> = out
                .receivers
                .iter()
                .map(|&p| ut.network().station_of_player(p))
                .collect();
            let cost = ut.multicast_cost(&stations);
            let revenue = out.revenue();
            assert!(
                (revenue - cost).abs() <= 1e-9 * (1.0 + cost.abs()),
                "{} {label}: revenue {revenue} != multicast cost {cost}",
                family.name()
            );
            assert_eq!(out.served_cost, cost, "{} {label}", family.name());
            // Voluntary participation at scale: every survivor affords
            // its share.
            for &p in &out.receivers {
                assert!(out.shares[p] <= u[p] + 1e-9, "{} {label}", family.name());
            }
        }
        // The rich run is the full-set sum check; the scaled run must
        // actually exercise the drop path.
        let full = shapley_drop_run(&ut, &rich);
        assert_eq!(full.receivers.len(), 1023, "{}", family.name());
        let cascaded = shapley_drop_run(&ut, &scaled);
        assert!(cascaded.receivers.len() < 1023, "{}", family.name());
    }
}
