//! Universal broadcast trees and their cost-sharing machinery (§2.1).
//!
//! A universal tree `T(S\{s})` spans every station; multicasting to a
//! receiver set `R` uses `T(R)`, the union of the root paths of `R`, with
//! the induced power assignment `π_R(x) = max_{(x,y) ∈ T(R)} c(x, y)`.
//! Lemma 2.1: the resulting cost function is non-decreasing and submodular,
//! so Shapley gives a BB group-strategyproof mechanism and MC an efficient
//! one.
//!
//! This module provides:
//! * [`UniversalTree`] — an `O(1)`-clone handle on a shared substrate
//!   that [`crate::builder::SubstrateBuilder`] grows as a shortest-path
//!   tree or an MST;
//! * [`UniversalTreeCost`] — the coalition cost function `C_T`;
//! * [`UniversalTree::multicast_cost`] — the reference `C_T(R)` the warm
//!   engines' served cost is pinned to bit for bit; no serving path
//!   calls it;
//! * [`UniversalTree::shapley_shares`] — the paper's *efficient* Shapley
//!   computation (per-station power increments split equally among the
//!   receivers using them, §2.1), validated against Eq. (4) in tests;
//! * [`UniversalTree::largest_efficient_set`] — the plain linear-time
//!   bottom-up DP for the welfare-maximising receiver set, the reference
//!   the MC mechanism's warm oracle is pinned to.

use crate::network::WirelessNetwork;
use crate::power::PowerAssignment;
use crate::substrate::{TreeSubstrate, NO_STATION};
use std::sync::Arc;
use wmcs_game::CostFunction;
use wmcs_graph::RootedTree;

/// A universal broadcast tree over a network — a thin, `O(1)`-clone
/// handle on a shared [`TreeSubstrate`].
///
/// The substrate (network + cost-sorted CSR children) is built **once**;
/// every clone of this handle — and every engine, session and
/// multi-group service built from it — shares that one allocation behind
/// an [`Arc`]. Per-group state (receiver sets, bids, warm engines) lives
/// in the consumers, never here.
#[derive(Debug, Clone)]
pub struct UniversalTree {
    sub: Arc<TreeSubstrate>,
}

impl UniversalTree {
    /// Handle on an existing shared substrate. All construction routes
    /// through [`crate::builder::SubstrateBuilder`]; the former
    /// free-standing constructors (`new`, `shortest_path_tree`,
    /// `mst_tree`) were removed and are enforced absent by the
    /// `forbidden-api` audit analysis.
    pub fn from_substrate(sub: Arc<TreeSubstrate>) -> Self {
        Self { sub }
    }

    /// The shared substrate this handle points at.
    pub fn substrate(&self) -> &Arc<TreeSubstrate> {
        &self.sub
    }

    /// The underlying network.
    pub fn network(&self) -> &WirelessNetwork {
        self.sub.network()
    }

    /// Children of station `x` in ascending edge-cost order — the order
    /// shared by the Shapley split, the efficient-set DP and the
    /// incremental engine. Entries are compact [`NodeId`]s
    /// (`id.index()` widens back to a station index).
    ///
    /// [`NodeId`]: crate::substrate::NodeId
    pub fn sorted_children(&self, x: usize) -> &[crate::substrate::NodeId] {
        self.sub.sorted_children(x)
    }

    /// The multicast sub-tree `T(R)` for a station set: the union of the
    /// receivers' root paths, marked through the substrate's parent
    /// array. The same tree as `steiner_subtree(receivers)` of the
    /// universal tree as a [`RootedTree`], which the substrate does not
    /// store. `O(n)` — a reference for the oracles, not the serving path.
    pub fn multicast_subtree(&self, receivers: &[usize]) -> RootedTree {
        let sub = &self.sub;
        let mut parent = vec![None; self.network().n_stations()];
        for &r in receivers {
            // Climb to the source or to a station an earlier path marked.
            let mut v = r;
            while parent[v].is_none() {
                let p = sub.parent_of(v);
                if p == NO_STATION {
                    break;
                }
                parent[v] = Some(p);
                v = p;
            }
        }
        RootedTree::from_parents(self.network().source(), parent)
    }

    /// The induced power assignment `π_R` for a receiver station set.
    pub fn power_assignment(&self, receivers: &[usize]) -> PowerAssignment {
        PowerAssignment::from_tree(self.network(), &self.multicast_subtree(receivers))
    }

    /// `C_T(R)` for a receiver station set — the slow, obviously correct
    /// reference: `T(R)` by root-path walks, the length-n Steiner power
    /// assignment, and its [`PowerAssignment::total_cost`]. No serving
    /// path calls it: the warm engines sum `C_T(R)` over their own `T(R)`
    /// (`Shapley::served_cost`, the `NetWorth` selection walk) and are
    /// pinned to this bit for bit. It stays the oracle of
    /// `reference_drop_run`, [`UniversalTreeCost`], the tests and the
    /// experiments.
    pub fn multicast_cost(&self, receivers: &[usize]) -> f64 {
        self.power_assignment(receivers).total_cost()
    }

    /// The paper's efficient Shapley computation (§2.1). For each station
    /// `x` of `T(R)` with children `y_1 … y_k` in ascending cost order, the
    /// power increment `c(x, y_i) − c(x, y_{i−1})` is split equally among
    /// the receivers of `R` whose next hop from `x` is one of `y_i … y_k`.
    /// Returns per-station shares (zero outside `R`).
    pub fn shapley_shares(&self, receivers: &[usize]) -> Vec<f64> {
        let net = self.network();
        let n = net.n_stations();
        let mut share = vec![0.0f64; n];
        if receivers.is_empty() {
            return share;
        }
        let sub = self.multicast_subtree(receivers);
        let mut in_r = vec![false; n];
        for &r in receivers {
            assert!(r != net.source(), "the source cannot be a receiver");
            in_r[r] = true;
        }
        // receivers_below[v] = receivers of R in the subtree of v (within T(R)).
        let mut receivers_below = vec![0usize; n];
        let order = sub.bfs_order();
        for &v in order.iter().rev() {
            let mut cnt = usize::from(in_r[v]);
            for &c in self.sorted_children(v) {
                let c = c.index();
                if sub.contains(c) && sub.parent(c) == Some(v) {
                    cnt += receivers_below[c];
                }
            }
            receivers_below[v] = cnt;
        }
        for &x in &order {
            // Children of x inside T(R), ascending cost (the substrate's
            // slices are pre-sorted; filter preserves order).
            let kids: Vec<usize> = self
                .sorted_children(x)
                .iter()
                .map(|c| c.index())
                .filter(|&c| sub.contains(c) && sub.parent(c) == Some(x))
                .collect();
            if kids.is_empty() {
                continue;
            }
            // Suffix receiver counts: users of increment i are receivers in
            // subtrees of y_i..y_k.
            let mut suffix = vec![0usize; kids.len() + 1];
            for i in (0..kids.len()).rev() {
                suffix[i] = suffix[i + 1] + receivers_below[kids[i]];
            }
            let mut prev_cost = 0.0;
            for (i, &y) in kids.iter().enumerate() {
                // Tree-edge cost cached at build time — bit-identical
                // to net.cost(x, y).
                let cost = self.sub.parent_cost(y);
                let delta = cost - prev_cost;
                prev_cost = cost;
                if delta <= 0.0 {
                    continue;
                }
                let users = suffix[i];
                debug_assert!(users > 0, "every tree branch leads to a receiver");
                let slice = delta / users as f64;
                // Distribute to every receiver in subtrees y_i..y_k.
                for &z in &kids[i..] {
                    distribute(&sub, self.substrate(), &in_r, z, slice, &mut share);
                }
            }
        }
        share
    }

    /// Largest efficient receiver set for utilities `u` (indexed by
    /// station; the source entry is ignored), via the bottom-up DP:
    /// `h(x) = u_x + max_j (Σ_{i≤j} h(y_i) − c(x, y_j))` over prefixes of
    /// the cost-sorted children. The comparison is an **exact** total
    /// order on value, with prefix length breaking true ties only (larger
    /// prefix wins, making the selected maximiser the largest): an
    /// EPS-tolerant tie-break here once let a prefix whose value was
    /// strictly below the maximum win, so the returned station set could
    /// disagree with the returned net worth that VCG payments consume.
    /// Returns `(stations, net_worth)`.
    ///
    /// The plain `O(n)` reference: the warm [`crate::incremental::NetWorth`]
    /// oracle runs the same per-station arithmetic over its frame and is
    /// pinned to it.
    pub fn largest_efficient_set(&self, u: &[f64]) -> (Vec<usize>, f64) {
        let sub = &self.sub;
        let s = self.network().source();
        let mut h = vec![0.0f64; self.network().n_stations()];
        let mut choice = vec![0usize; h.len()];
        for v in sub.bfs_order().into_iter().rev() {
            let v = v.index();
            let (mut acc, mut b) = (0.0f64, 0.0f64);
            for (j, &y) in sub.sorted_children(v).iter().enumerate() {
                acc += h[y.index()];
                let val = acc - sub.parent_cost(y.index());
                if val >= b {
                    b = val;
                    choice[v] = j + 1;
                }
            }
            let own = if v == s { 0.0 } else { u[v].max(0.0) };
            h[v] = own + b;
        }
        let mut stations = Vec::new();
        let mut stack = vec![s];
        while let Some(v) = stack.pop() {
            if v != s {
                stations.push(v);
            }
            stack.extend(
                sub.sorted_children(v)[..choice[v]]
                    .iter()
                    .map(|y| y.index()),
            );
        }
        stations.sort_unstable();
        (stations, h[s])
    }

    /// Maximal net worth only (used for VCG payments).
    pub fn net_worth(&self, u: &[f64]) -> f64 {
        self.largest_efficient_set(u).1
    }
}

fn distribute(
    sub: &RootedTree,
    substrate: &TreeSubstrate,
    in_r: &[bool],
    root: usize,
    slice: f64,
    share: &mut [f64],
) {
    let mut stack = vec![root];
    while let Some(v) = stack.pop() {
        if in_r[v] {
            share[v] += slice;
        }
        for &c in substrate.sorted_children(v) {
            let c = c.index();
            if sub.contains(c) && sub.parent(c) == Some(v) {
                stack.push(c);
            }
        }
    }
}

/// The coalition cost function `C_T` of a universal tree, over *players*
/// (stations except the source). Non-decreasing and submodular by
/// Lemma 2.1 — property-tested, not assumed.
#[derive(Debug, Clone)]
pub struct UniversalTreeCost {
    ut: UniversalTree,
}

impl UniversalTreeCost {
    /// Wrap a universal tree.
    pub fn new(ut: UniversalTree) -> Self {
        Self { ut }
    }

    /// Access the tree.
    pub fn universal_tree(&self) -> &UniversalTree {
        &self.ut
    }
}

impl CostFunction for UniversalTreeCost {
    fn n_players(&self) -> usize {
        self.ut.network().n_players()
    }

    fn cost_mask(&self, mask: u64) -> f64 {
        let stations = self.ut.network().stations_of_player_mask(mask);
        self.ut.multicast_cost(&stations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SubstrateBuilder, TreeKind};
    use crate::fixtures::{chain_tree, random_net};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_game::{is_nondecreasing, is_submodular, shapley_value, ExplicitGame};
    use wmcs_geom::approx_eq;

    #[test]
    fn multicast_cost_uses_max_child_edge() {
        let ut = chain_tree();
        // R = {2}: path 0 → 1 → 2; powers 1 and 1 → cost 2.
        assert!(approx_eq(ut.multicast_cost(&[2]), 2.0));
        // R = {3}: path 0 → 1 → 3; c(1,3) = 4 → cost 5.
        assert!(approx_eq(ut.multicast_cost(&[3]), 5.0));
        // R = {2, 3}: power(1) = max(1, 4) = 4 → total 5 (2 rides free).
        assert!(approx_eq(ut.multicast_cost(&[2, 3]), 5.0));
        assert!(approx_eq(ut.multicast_cost(&[]), 0.0));
    }

    #[test]
    fn shapley_shares_sum_to_cost() {
        let ut = chain_tree();
        for receivers in [vec![1], vec![2], vec![3], vec![2, 3], vec![1, 2, 3]] {
            let shares = ut.shapley_shares(&receivers);
            let total: f64 = shares.iter().sum();
            assert!(
                approx_eq(total, ut.multicast_cost(&receivers)),
                "R = {receivers:?}: {total} ≠ {}",
                ut.multicast_cost(&receivers)
            );
        }
    }

    #[test]
    fn shapley_on_chain_splits_increments() {
        let ut = chain_tree();
        // R = {2, 3}: station 0 pays edge (0,1) = 1 split between both
        // receivers (0.5 each); station 1 emits 4: increment 1 (covers
        // child 2) is used by receiver 2 and 3?? — children sorted by cost:
        // y1 = 2 (cost 1), y2 = 3 (cost 4). Increment [0,1] is used by
        // receivers below both children (2 and 3): 0.5 each. Increment
        // (1,4] = 3 only by receiver 3.
        let shares = ut.shapley_shares(&[2, 3]);
        assert!(approx_eq(shares[2], 0.5 + 0.5));
        assert!(approx_eq(shares[3], 0.5 + 0.5 + 3.0));
    }

    #[test]
    fn efficient_shapley_matches_exact_formula() {
        for seed in 0..12 {
            let net = random_net(seed, 6);
            let ut = SubstrateBuilder::new(&net)
                .tree(TreeKind::Spt)
                .build_universal();
            let cost = UniversalTreeCost::new(ut);
            let game = ExplicitGame::tabulate(&cost);
            let n_players = game.n_players();
            for mask in [0b10110u64, 0b11111, 0b00001, 0b01010] {
                let mask = mask & ((1 << n_players) - 1);
                let exact = shapley_value(&game, mask);
                let stations = cost
                    .universal_tree()
                    .network()
                    .stations_of_player_mask(mask);
                let fast = cost.universal_tree().shapley_shares(&stations);
                for p in 0..n_players {
                    let st = cost.universal_tree().network().station_of_player(p);
                    assert!(
                        (exact[p] - fast[st]).abs() < 1e-7,
                        "seed {seed} mask {mask:b} player {p}: exact {} fast {}",
                        exact[p],
                        fast[st]
                    );
                }
            }
        }
    }

    #[test]
    fn lemma_2_1_submodular_nondecreasing() {
        for seed in 0..8 {
            let net = random_net(seed, 6);
            let spt = UniversalTreeCost::new(
                SubstrateBuilder::new(&net)
                    .tree(TreeKind::Spt)
                    .build_universal(),
            );
            let mst = UniversalTreeCost::new(
                SubstrateBuilder::new(&net)
                    .tree(TreeKind::Mst)
                    .build_universal(),
            );
            for cost in [&spt, &mst] {
                let game = ExplicitGame::tabulate(cost);
                assert!(is_nondecreasing(&game), "seed {seed} not monotone");
                assert!(is_submodular(&game), "seed {seed} not submodular");
            }
        }
    }

    #[test]
    fn efficient_set_dp_matches_brute_force() {
        use wmcs_game::subset::members_of;
        for seed in 0..16 {
            let net = random_net(seed, 7);
            let ut = SubstrateBuilder::new(&net)
                .tree(TreeKind::Spt)
                .build_universal();
            let cost = UniversalTreeCost::new(ut);
            let game = ExplicitGame::tabulate(&cost);
            let n_players = game.n_players();
            let mut rng = SmallRng::seed_from_u64(seed + 1000);
            let u_players: Vec<f64> = (0..n_players).map(|_| rng.gen_range(0.0..6.0)).collect();
            // Brute force over coalitions.
            let mut best = f64::NEG_INFINITY;
            let mut best_mask = 0u64;
            for mask in 0u64..(1 << n_players) {
                let util: f64 = members_of(mask).iter().map(|&p| u_players[p]).sum();
                let w = util - game.cost_mask(mask);
                if w > best + 1e-12
                    || (approx_eq(w, best) && mask.count_ones() > best_mask.count_ones())
                {
                    best = w;
                    best_mask = mask;
                }
            }
            // DP.
            let ut = cost.universal_tree();
            let mut u_stations = vec![0.0; ut.network().n_stations()];
            for p in 0..n_players {
                u_stations[ut.network().station_of_player(p)] = u_players[p];
            }
            let (stations, nw) = ut.largest_efficient_set(&u_stations);
            assert!(
                (nw - best).abs() < 1e-7,
                "seed {seed}: DP welfare {nw} ≠ brute {best}"
            );
            let dp_mask = ut.network().player_mask_of_stations(&stations);
            let util: f64 = members_of(dp_mask).iter().map(|&p| u_players[p]).sum();
            assert!(approx_eq(util - game.cost_mask(dp_mask), best));
        }
    }

    /// Adversarial chain of EPS-spaced child costs: prefixes 2 and 3 are
    /// within EPS of the best prefix's value but strictly below it. The
    /// old EPS-tolerant tie-break let each of them "win" in turn (the
    /// drift compounding along the chain), so the returned station set
    /// had welfare EPS below the returned net worth — the value VCG
    /// payments consume. The exact total order must return a set whose
    /// welfare *is* the net worth.
    #[test]
    fn efficient_set_tie_break_is_exact_under_eps_spaced_costs() {
        use wmcs_geom::EPS;
        use wmcs_graph::CostMatrix;
        // Star: source 0, leaf children 1, 2, 3 with utilities 10 each.
        // Prefix values: val_1 = 10 − 5 = 5, val_2 = 20 − (15 + EPS/2) =
        // 5 − EPS/2, val_3 = 30 − (25 + EPS) = 5 − EPS.
        let costs = CostMatrix::from_edges(
            4,
            &[(0, 1, 5.0), (0, 2, 15.0 + EPS / 2.0), (0, 3, 25.0 + EPS)],
        );
        let net = WirelessNetwork::symmetric(costs, 0);
        let tree = RootedTree::from_parents(0, vec![None, Some(0), Some(0), Some(0)]);
        let ut = SubstrateBuilder::from_owned(net)
            .explicit_tree(tree)
            .build_universal();
        let u = [0.0, 10.0, 10.0, 10.0];
        let (set, nw) = ut.largest_efficient_set(&u);
        // The unique maximiser is prefix {1}: value exactly 5.
        assert_eq!(set, vec![1], "EPS-spaced chain must not drift the prefix");
        assert!(approx_eq(nw, 5.0));
        // The invariant the old tie-break violated: the returned net
        // worth equals the returned set's welfare, exactly.
        let util: f64 = set.iter().map(|&x| u[x]).sum();
        let welfare = util - ut.multicast_cost(&set);
        assert!(
            (welfare - nw).abs() < 1e-12,
            "set welfare {welfare} disagrees with net worth {nw}"
        );
    }

    #[test]
    #[should_panic(expected = "span all stations")]
    fn partial_tree_rejected() {
        let net = random_net(0, 4);
        let tree = RootedTree::from_parents(0, vec![None, Some(0), None, None]);
        let _ = SubstrateBuilder::from_owned(net)
            .explicit_tree(tree)
            .build_universal();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn shapley_shares_nonnegative_and_balanced(seed in 0u64..500) {
            let net = random_net(seed, 8);
            let ut = SubstrateBuilder::new(&net).tree(TreeKind::Mst).build_universal();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xabc);
            let receivers: Vec<usize> = (1..8).filter(|_| rng.gen_bool(0.6)).collect();
            let shares = ut.shapley_shares(&receivers);
            for (x, s) in shares.iter().enumerate() {
                prop_assert!(*s >= -1e-12);
                if !receivers.contains(&x) {
                    prop_assert!(s.abs() < 1e-12);
                }
            }
            let total: f64 = shares.iter().sum();
            prop_assert!(approx_eq(total, ut.multicast_cost(&receivers)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        /// `multicast_subtree` marks root paths through `parent_of`; it
        /// must equal the `steiner_subtree` of the universal tree rebuilt
        /// as a `RootedTree` from the same parents, on every layout
        /// family, both tree kinds and any source.
        #[test]
        fn multicast_subtree_equals_the_steiner_subtree_of_the_parents(
            fam_idx in 0usize..5,
            n in 2usize..=96,
            seed in 0u64..10_000,
            kind_idx in 0usize..2,
        ) {
            use wmcs_geom::{LayoutFamily, Scenario};
            let family = LayoutFamily::ALL[fam_idx];
            let kind = [TreeKind::Spt, TreeKind::Mst][kind_idx];
            let sc = Scenario::new(family, n, 2, 2.0);
            let source = (seed as usize) % n;
            let net = WirelessNetwork::euclidean(sc.points(seed), sc.power_model(), source);
            let ut = SubstrateBuilder::from_owned(net).tree(kind).build_universal();
            let parents: Vec<Option<usize>> = (0..n)
                .map(|v| Some(ut.substrate().parent_of(v)).filter(|&p| p != NO_STATION))
                .collect();
            let tree = RootedTree::from_parents(source, parents);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e7);
            for density in [0.0, 0.1, 0.5, 1.0] {
                let receivers: Vec<usize> = (0..n)
                    .filter(|&v| v != source && rng.gen_bool(density))
                    .collect();
                prop_assert_eq!(
                    ut.multicast_subtree(&receivers),
                    tree.steiner_subtree(&receivers),
                    "{} n={} {:?} R={:?}", family.name(), n, kind, &receivers
                );
            }
        }
    }
}
