//! The one construction entry point for universal-tree substrates.
//!
//! Universal trees used to be built through four scattered constructors
//! (`UniversalTree::{new, shortest_path_tree, mst_tree}` and raw
//! `TreeSubstrate::new`), each cloning the network on its own and each
//! hard-wired to the dense `O(n²)` construction. [`SubstrateBuilder`]
//! replaces them all:
//!
//! ```
//! use wmcs_wireless::{Backend, SubstrateBuilder, TreeKind, WirelessNetwork};
//! use wmcs_geom::{Point, PowerModel};
//!
//! let pts = vec![Point::xy(0.0, 0.0), Point::xy(1.0, 0.0), Point::xy(0.0, 1.5)];
//! let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
//! let ut = SubstrateBuilder::new(&net)
//!     .tree(TreeKind::Spt)
//!     .backend(Backend::Auto)
//!     .build_universal();
//! assert_eq!(ut.network().n_stations(), 3);
//! ```
//!
//! * **Single copy point.** The builder holds the network as a
//!   [`Cow`]: [`SubstrateBuilder::new`] borrows, and the one clone (or
//!   move, via [`SubstrateBuilder::from_owned`]) happens inside
//!   [`SubstrateBuilder::build`] — the old paths cloned once into
//!   `UniversalTree::new` and again into `TreeSubstrate::new`.
//! * **Backend choice.** [`Backend::Dense`] runs the canonical `O(n²)`
//!   scan ([`wmcs_graph::grow_tree_dense`]); [`Backend::Spatial`] runs
//!   the grid-index shell growth
//!   ([`wmcs_graph::grow_tree_spatial`], Euclidean networks only); the
//!   default [`Backend::Auto`] picks spatial for Euclidean networks
//!   with `n ≥` [`SPATIAL_AUTO_THRESHOLD`]. The two backends are
//!   **byte-identical** (same parent array, same costs) by
//!   construction — experiment T13 and the `builder_props` proptests
//!   gate this across every layout family.
//! * **Explicit trees.** [`SubstrateBuilder::explicit_tree`] wraps a
//!   caller-supplied spanning tree (fixtures, reductions, non-Euclidean
//!   networks), bypassing growth entirely.

use crate::network::WirelessNetwork;
use crate::substrate::TreeSubstrate;
use crate::universal::UniversalTree;
use std::borrow::Cow;
use std::sync::Arc;
pub use wmcs_graph::TreeKind;
use wmcs_graph::{grow_tree_dense, grow_tree_spatial, CostMatrix, RootedTree};

/// Station count at and above which [`Backend::Auto`] switches a
/// Euclidean network from the dense `O(n²)` scan to the spatial
/// grid-index growth.
///
/// Rationale: below ~2k stations the dense scan's flat arrays beat the
/// stream machinery's constant factor (and a dense matrix of that size
/// is ≤ 32 MiB anyway), while at 4096 — the largest gated experiment
/// size — spatial construction is already decisively ahead; the
/// `substrate_build` criterion bench records the crossover. The exact
/// value is deliberately a power of two inside that bracket, not a
/// tuned magic number: both backends produce byte-identical trees, so
/// the threshold affects only build time, never results.
pub const SPATIAL_AUTO_THRESHOLD: usize = 2048;

/// Which construction backend grows the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Euclidean networks with `n ≥` [`SPATIAL_AUTO_THRESHOLD`] use
    /// [`Backend::Spatial`]; everything else uses [`Backend::Dense`].
    Auto,
    /// The canonical `O(n²)` scan over pairwise costs — the pinned
    /// reference, and the only backend for non-Euclidean networks.
    Dense,
    /// Grid-index shell growth: each expanded shell is relaxed into one
    /// station-indexed queue, finalised grid cells and rings are skipped
    /// whole, and memory stays `O(n)` on every layout; byte-identical to
    /// [`Backend::Dense`]. Growth measured on a 2-vCPU host with uniform
    /// stations at constant density: n = 10⁵ in ~0.26 s (SPT) /
    /// ~0.17 s (MST), n = 10⁶ in ~7.7 s / ~3.3 s. Panics on networks
    /// without Euclidean geometry.
    Spatial,
}

/// Builder for [`TreeSubstrate`] / [`UniversalTree`] — see the module
/// docs. Defaults: [`TreeKind::Spt`], [`Backend::Auto`].
#[derive(Debug, Clone)]
pub struct SubstrateBuilder<'a> {
    net: Cow<'a, WirelessNetwork>,
    kind: TreeKind,
    backend: Backend,
    explicit: Option<RootedTree>,
}

impl<'a> SubstrateBuilder<'a> {
    /// Start from a borrowed network; [`SubstrateBuilder::build`] clones
    /// it exactly once, into the substrate.
    pub fn new(net: &'a WirelessNetwork) -> Self {
        Self {
            net: Cow::Borrowed(net),
            kind: TreeKind::Spt,
            backend: Backend::Auto,
            explicit: None,
        }
    }

    /// Start from an owned network; [`SubstrateBuilder::build`] moves it
    /// into the substrate without any copy.
    pub fn from_owned(net: WirelessNetwork) -> SubstrateBuilder<'static> {
        SubstrateBuilder {
            net: Cow::Owned(net),
            kind: TreeKind::Spt,
            backend: Backend::Auto,
            explicit: None,
        }
    }

    /// Select which universal tree to grow (default [`TreeKind::Spt`]).
    pub fn tree(mut self, kind: TreeKind) -> Self {
        self.kind = kind;
        self
    }

    /// Select the construction backend (default [`Backend::Auto`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Use an explicit spanning tree (rooted at the source) instead of
    /// growing one — fixtures, reductions, non-Euclidean networks.
    /// Overrides [`SubstrateBuilder::tree`] and
    /// [`SubstrateBuilder::backend`]. [`SubstrateBuilder::build`] panics
    /// unless the tree's universe is the network's station set and every
    /// station but the source has a parent.
    pub fn explicit_tree(mut self, tree: RootedTree) -> Self {
        self.explicit = Some(tree);
        self
    }

    /// Grow (or take) the tree and build the shared substrate. This is
    /// the **only** place the network is cloned (borrowed start) or
    /// moved (owned start).
    pub fn build(self) -> Arc<TreeSubstrate> {
        let parents = match self.explicit {
            Some(tree) => (0..tree.universe()).map(|v| tree.parent(v)).collect(),
            None => canonical_parents(&self.net, self.kind, self.backend),
        };
        Arc::new(TreeSubstrate::build(self.net.into_owned(), parents))
    }

    /// [`SubstrateBuilder::build`], wrapped in the `O(1)`-clone
    /// [`UniversalTree`] handle.
    pub fn build_universal(self) -> UniversalTree {
        UniversalTree::from_substrate(self.build())
    }
}

/// Grow the canonical universal tree for `net` and return its parent
/// array (`None` exactly at the source).
fn canonical_parents(
    net: &WirelessNetwork,
    kind: TreeKind,
    backend: Backend,
) -> Vec<Option<usize>> {
    let spatial = match backend {
        Backend::Dense => false,
        Backend::Spatial => {
            assert!(
                net.points().is_some(),
                "Backend::Spatial requires a Euclidean network (points + power model); \
                 use Backend::Dense or an explicit tree for general symmetric networks"
            );
            true
        }
        Backend::Auto => net.points().is_some() && net.n_stations() >= SPATIAL_AUTO_THRESHOLD,
    };
    if spatial {
        let pts = net.points().expect("spatial backend checked for points");
        let model = net.model().expect("Euclidean networks carry a power model");
        grow_tree_spatial(pts, model, net.source(), kind)
    } else {
        match net.try_costs() {
            Some(m) => grow_tree_dense(m, net.source(), kind),
            None => {
                // Lazy Euclidean network, dense backend: materialise a
                // temporary matrix of the network's own lazy costs
                // (small-n / reference use only).
                let m = CostMatrix::from_fn(net.n_stations(), |i, j| net.cost(i, j));
                grow_tree_dense(&m, net.source(), kind)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::random_net;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_geom::{Point, PowerModel};

    #[test]
    fn backends_agree_byte_for_byte() {
        for seed in 0..6 {
            let net = random_net(seed, 48);
            for kind in [TreeKind::Spt, TreeKind::Mst] {
                let dense = SubstrateBuilder::new(&net)
                    .tree(kind)
                    .backend(Backend::Dense)
                    .build();
                let spatial = SubstrateBuilder::new(&net)
                    .tree(kind)
                    .backend(Backend::Spatial)
                    .build();
                assert_eq!(dense.bfs_order(), spatial.bfs_order(), "{kind:?}");
                for v in 0..48 {
                    assert_eq!(dense.parent_of(v), spatial.parent_of(v), "{kind:?}");
                    assert_eq!(
                        dense.parent_cost(v).to_bits(),
                        spatial.parent_cost(v).to_bits(),
                        "{kind:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lazy_networks_build_on_both_backends() {
        let mut rng = SmallRng::seed_from_u64(9);
        let pts: Vec<Point> = (0..40)
            .map(|_| Point::xy(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        let dense_net = WirelessNetwork::euclidean(pts.clone(), PowerModel::free_space(), 0);
        let lazy_net = WirelessNetwork::euclidean_lazy(pts, PowerModel::free_space(), 0);
        let reference = SubstrateBuilder::new(&dense_net)
            .backend(Backend::Dense)
            .build();
        for backend in [Backend::Dense, Backend::Spatial, Backend::Auto] {
            let sub = SubstrateBuilder::new(&lazy_net).backend(backend).build();
            for v in 0..40 {
                assert_eq!(sub.parent_of(v), reference.parent_of(v), "{backend:?}");
            }
        }
    }

    #[test]
    fn explicit_tree_bypasses_growth() {
        let net = random_net(1, 4);
        let tree = RootedTree::from_parents(0, vec![None, Some(0), Some(1), Some(2)]);
        let sub = SubstrateBuilder::new(&net).explicit_tree(tree).build();
        assert_eq!(sub.parent_of(3), 2);
        assert_eq!(sub.parent_of(2), 1);
    }

    #[test]
    fn from_owned_moves_the_network_in() {
        let net = random_net(2, 8);
        let ut = SubstrateBuilder::from_owned(net)
            .tree(TreeKind::Mst)
            .build_universal();
        assert_eq!(ut.network().n_stations(), 8);
    }

    #[test]
    #[should_panic(expected = "Euclidean")]
    fn spatial_backend_rejects_symmetric_networks() {
        let m = CostMatrix::from_fn(3, |i, j| (i + j) as f64);
        let net = WirelessNetwork::symmetric(m, 0);
        let _ = SubstrateBuilder::new(&net)
            .backend(Backend::Spatial)
            .build();
    }
}
