//! # wmcs-wireless — the wireless networking substrate
//!
//! Everything the paper's model (§1) needs, built from scratch:
//!
//! * [`network::WirelessNetwork`] — stations, a symmetric cost graph
//!   `(S, c)`, a multicast source, and the station↔player index maps
//!   (with a lazy Euclidean regime that skips the `O(n²)` matrix);
//! * [`builder::SubstrateBuilder`] — **the** construction entry point
//!   for universal trees: one builder, dense and spatial backends
//!   (byte-identical), `Backend::Auto` switching at
//!   [`builder::SPATIAL_AUTO_THRESHOLD`] stations;
//! * [`power::PowerAssignment`] — power vectors, induced transmission
//!   digraphs, reachability, the tree→assignment Steiner heuristic;
//! * [`universal`] — universal broadcast trees (§2.1): the submodular cost
//!   function of Lemma 2.1, the paper's efficient Shapley split, and the
//!   largest-efficient-set tree DP for the MC mechanism;
//! * [`incremental`] — the warm engines of both §2.1 mechanisms: the
//!   incremental Moulin–Shenker engine and the VCG net-worth oracle,
//!   which reads every charge off one top-down pass, each over a frame
//!   of local ids
//!   ([`substrate::Subframe`]) so per-group memory is
//!   `O(|closure(R_g)|)`, not `O(n)`;
//! * [`substrate`] — the shared universal-tree substrate: network +
//!   cost-sorted CSR children behind an `Arc`, built once and shared by
//!   every engine, session and group;
//! * [`session`] — live multicast sessions: both §2.1 mechanisms served
//!   across a churn stream (join/leave/rebid) from warm state,
//!   byte-identical to a cold rebuild after every batch;
//! * [`sparse`] — names of the retired layout switch, kept only for the
//!   served-workload benchmark (they select nothing), and the tests that
//!   pin the frame-local sessions to universe-indexed references;
//! * [`service`] — the sharded multi-group service layer: G concurrent
//!   groups, each a warm session, priced over one substrate by a
//!   work-stealing worker pool with per-group byte-determinism;
//! * [`stream`] — epoch-pipelined streaming ingestion: interleaved
//!   `(group, event)` streams through bounded per-group queues with
//!   deterministic count-watermark epoch sealing and `Busy`
//!   backpressure, byte-identical to single-threaded batch replay;
//! * [`memt`] — exact minimum-energy multicast (set-state Dijkstra) and the
//!   all-subsets `C*` table, the optimum reference for every β-BB claim;
//! * [`mst_heuristic`] — the MST broadcast heuristic \[50\] and the KMB
//!   Steiner multicast heuristic of §3.2;
//! * [`bip`] — the BIP/MIP incremental-power heuristics of \[50\], ablation
//!   baselines for T6;
//! * [`euclidean`] — polynomial optimal solvers for `α = 1` and `d = 1`
//!   (Lemma 3.1), with closed-form Shapley values.

// Index loops over multiple parallel arrays are idiomatic in this
// numeric code; the iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]
// Every public item carries rustdoc: this crate is the substrate other
// layers build mechanisms on, and undocumented invariants here become
// silent contract drift there.
#![deny(missing_docs)]

pub mod bip;
pub mod builder;
pub mod euclidean;
pub mod incremental;
pub mod memt;
pub mod mst_heuristic;
pub mod network;
pub mod power;
pub mod service;
pub mod session;
pub mod sparse;
pub mod stream;
pub mod substrate;
pub mod universal;

pub use bip::{bip_broadcast, mip_multicast};
pub use builder::{Backend, SubstrateBuilder, TreeKind, SPATIAL_AUTO_THRESHOLD};
pub use euclidean::{AlphaOneCost, AlphaOneSolver, LineCost, LineSolver};
pub use incremental::{
    reference_drop_run, reference_drop_run_from, shapley_drop_run, shapley_drop_run_from,
    shapley_drop_run_with_stats, DropStats, NetWorth, RoundBuffers, Shapley,
};
pub use memt::{memt_exact, MemtCostTable, OptimalMulticastCost, MAX_EXACT_STATIONS};
pub use mst_heuristic::{mst_broadcast, mst_multicast, steiner_multicast};
pub use network::WirelessNetwork;
pub use power::PowerAssignment;
pub use service::{GroupMechanism, GroupOutcome, GroupSession, MulticastService};
pub use session::{ChurnEvent, ChurnProcess, ChurnTrace, McSession, ShapleySession};
pub use sparse::{SessionLayout, SparseMcSession, SparseShapleySession, SPARSE_AUTO_THRESHOLD};
pub use stream::{
    epoch_plan, replay_reference, Admission, EpochOutcome, GroupStreamReport, StreamConfig,
    StreamHandle, StreamLatencies, StreamReport, StreamService,
};
pub use substrate::{NodeId, Subframe, TreeSubstrate, NO_STATION};
pub use universal::{UniversalTree, UniversalTreeCost};

/// Seeded networks and trees shared by the unit tests of every module.
#[cfg(test)]
pub(crate) mod fixtures {
    use crate::{SubstrateBuilder, TreeKind, UniversalTree, WirelessNetwork};
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_geom::{Point, PowerModel};
    use wmcs_graph::RootedTree;

    /// `n` stations uniform in `[0, 10)²` under `model`, source 0.
    fn random_stations(seed: u64, n: usize, model: PowerModel) -> WirelessNetwork {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::xy(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        WirelessNetwork::euclidean(pts, model, 0)
    }

    /// A seeded free-space (`α = 2`) network.
    pub(crate) fn random_net(seed: u64, n: usize) -> WirelessNetwork {
        random_stations(seed, n, PowerModel::free_space())
    }

    /// [`random_net`]'s stations under path-loss exponent `alpha`.
    pub(crate) fn random_net_alpha(seed: u64, n: usize, alpha: f64) -> WirelessNetwork {
        random_stations(seed, n, PowerModel::with_alpha(alpha))
    }

    /// The SPT universal tree over [`random_net`].
    pub(crate) fn random_spt(seed: u64, n: usize) -> UniversalTree {
        SubstrateBuilder::new(&random_net(seed, n))
            .tree(TreeKind::Spt)
            .build_universal()
    }

    /// The universal tree over [`random_net`]: SPT on even seeds, MST on
    /// odd ones.
    pub(crate) fn random_tree(seed: u64, n: usize) -> UniversalTree {
        let kind = if seed.is_multiple_of(2) {
            TreeKind::Spt
        } else {
            TreeKind::Mst
        };
        SubstrateBuilder::new(&random_net(seed, n))
            .tree(kind)
            .build_universal()
    }

    /// Chain 0 → 1 → 2 with unit spacing, α = 2, plus a branch 1 → 3.
    pub(crate) fn chain_tree() -> UniversalTree {
        let pts = vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
            Point::xy(2.0, 0.0),
            Point::xy(1.0, 2.0),
        ];
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        let tree = RootedTree::from_parents(0, vec![None, Some(0), Some(1), Some(1)]);
        SubstrateBuilder::from_owned(net)
            .explicit_tree(tree)
            .build_universal()
    }
}

#[cfg(test)]
mod integration_tests {
    use super::*;
    use wmcs_geom::{approx_eq, Point, PowerModel};

    #[test]
    fn universal_tree_cost_upper_bounds_optimum() {
        // A universal tree is one feasible strategy; the exact optimum can
        // only be cheaper.
        let pts = vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.5),
            Point::xy(2.0, -0.5),
            Point::xy(3.0, 0.3),
            Point::xy(1.5, 2.0),
        ];
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        let ut = SubstrateBuilder::new(&net)
            .tree(TreeKind::Spt)
            .build_universal();
        for receivers in [vec![3], vec![4], vec![1, 3], vec![1, 2, 3, 4]] {
            let (opt, _) = memt_exact(&net, &receivers);
            let tree_cost = ut.multicast_cost(&receivers);
            assert!(
                opt <= tree_cost + 1e-9,
                "R = {receivers:?}: opt {opt} > tree {tree_cost}"
            );
        }
    }

    #[test]
    fn steiner_heuristic_and_universal_tree_are_feasible() {
        let pts = vec![
            Point::xy(0.0, 0.0),
            Point::xy(10.0, 0.0),
            Point::xy(0.1, 3.0),
        ];
        let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
        let (_, pa) = steiner_multicast(&net, &[1, 2]);
        assert!(pa.multicasts_to(&net, &[1, 2]));
        let ut = SubstrateBuilder::new(&net)
            .tree(TreeKind::Spt)
            .build_universal();
        assert!(ut.power_assignment(&[1, 2]).multicasts_to(&net, &[1, 2]));
        let (opt, _) = memt_exact(&net, &[1, 2]);
        assert!(opt <= pa.total_cost() + 1e-9);
    }

    #[test]
    fn line_alpha_one_agree_on_their_intersection() {
        // d = 1 with α = 1: both special-case solvers are exact, so they
        // must agree.
        let pts: Vec<Point> = [0.0, 1.0, 3.0, 7.0]
            .iter()
            .map(|&x| Point::on_line(x))
            .collect();
        let net = WirelessNetwork::euclidean(pts, PowerModel::linear(), 0);
        let line = LineSolver::new(&net);
        let alpha = AlphaOneSolver::new(&net);
        for receivers in [vec![1], vec![3], vec![1, 2], vec![1, 2, 3]] {
            assert!(approx_eq(
                line.chain_cost(&receivers),
                alpha.optimal_cost(&receivers)
            ));
        }
    }
}
