//! The one construction entry point for universal-tree substrates.
//!
//! Universal trees used to be built through four scattered constructors
//! (`UniversalTree::{new, shortest_path_tree, mst_tree}` and raw
//! `TreeSubstrate::new`), each cloning the network on its own and each
//! hard-wired to the dense `O(n²)` construction. [`SubstrateBuilder`]
//! replaces them all:
//!
//! ```
//! use wmcs_wireless::{SubstrateBuilder, TreeKind, WirelessNetwork};
//! use wmcs_geom::{Point, PowerModel};
//!
//! let pts = vec![Point::xy(0.0, 0.0), Point::xy(1.0, 0.0), Point::xy(0.0, 1.5)];
//! let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
//! let ut = SubstrateBuilder::new(&net)
//!     .tree(TreeKind::Spt)
//!     .build_universal();
//! assert_eq!(ut.network().n_stations(), 3);
//! ```
//!
//! * **Single copy point.** The builder holds the network as a
//!   [`Cow`]: [`SubstrateBuilder::new`] borrows, and the one clone (or
//!   move, via [`SubstrateBuilder::from_owned`]) happens inside
//!   [`SubstrateBuilder::build`] — the old paths cloned once into
//!   `UniversalTree::new` and again into `TreeSubstrate::new`.
//! * **One growth path per network.** A Euclidean network, from either
//!   constructor, grows through the grid index
//!   ([`wmcs_graph::grow_tree_spatial`]); a general symmetric network
//!   ([`WirelessNetwork::symmetric`]) has no points and grows by the
//!   canonical `O(n²)` scan over its matrix
//!   ([`wmcs_graph::grow_tree_dense`]). The grid replays the scan's
//!   selection order, so on a Euclidean network both give the same tree
//!   **byte for byte** (same parent array, same costs) — the
//!   `spatial ≡ dense` unit suite, experiment T13 and the
//!   `builder_props` proptests gate this across every layout family.
//!   The grid is the faster of the two from ~256 stations up, and costs
//!   at most ~0.05 ms more per build below that (`DESIGN.md` §2d).
//! * **Explicit trees.** [`SubstrateBuilder::explicit_tree`] wraps a
//!   caller-supplied spanning tree (fixtures, reductions, the dense
//!   reference of the identity gates), bypassing growth entirely.

use crate::network::WirelessNetwork;
use crate::substrate::TreeSubstrate;
use crate::universal::UniversalTree;
use std::borrow::Cow;
use std::sync::Arc;
pub use wmcs_graph::TreeKind;
use wmcs_graph::{grow_tree_dense, grow_tree_spatial, RootedTree};

/// Kept only because the served-workload benchmark (`perfbench/`) names
/// it: it selects nothing — every network grows on the one path its
/// storage allows (see the module docs). The next benchmark change
/// removes it, with [`SubstrateBuilder::backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Names the retired automatic choice between growth paths.
    Auto,
}

/// Builder for [`TreeSubstrate`] / [`UniversalTree`] — see the module
/// docs. Default: [`TreeKind::Spt`].
#[derive(Debug, Clone)]
pub struct SubstrateBuilder<'a> {
    net: Cow<'a, WirelessNetwork>,
    kind: TreeKind,
    explicit: Option<RootedTree>,
}

impl<'a> SubstrateBuilder<'a> {
    /// Start from a borrowed network; [`SubstrateBuilder::build`] clones
    /// it exactly once, into the substrate.
    pub fn new(net: &'a WirelessNetwork) -> Self {
        Self {
            net: Cow::Borrowed(net),
            kind: TreeKind::Spt,
            explicit: None,
        }
    }

    /// Start from an owned network; [`SubstrateBuilder::build`] moves it
    /// into the substrate without any copy.
    pub fn from_owned(net: WirelessNetwork) -> SubstrateBuilder<'static> {
        SubstrateBuilder {
            net: Cow::Owned(net),
            kind: TreeKind::Spt,
            explicit: None,
        }
    }

    /// Select which universal tree to grow (default [`TreeKind::Spt`]).
    pub fn tree(mut self, kind: TreeKind) -> Self {
        self.kind = kind;
        self
    }

    /// Kept only because the served-workload benchmark (`perfbench/`)
    /// calls it: it reads nothing (see [`Backend`]). The next benchmark
    /// change removes it.
    pub fn backend(self, _backend: Backend) -> Self {
        self
    }

    /// Use an explicit spanning tree (rooted at the source) instead of
    /// growing one — fixtures, reductions, the dense reference.
    /// Overrides [`SubstrateBuilder::tree`]. [`SubstrateBuilder::build`]
    /// panics unless the tree's universe is the network's station set and
    /// every station but the source has a parent.
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
            None => canonical_parents(&self.net, self.kind),
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
/// array (`None` exactly at the source). A network without points is
/// general symmetric and always carries its matrix.
fn canonical_parents(net: &WirelessNetwork, kind: TreeKind) -> Vec<Option<usize>> {
    match (net.points(), net.model()) {
        (Some(pts), Some(model)) => grow_tree_spatial(pts, model, net.source(), kind),
        _ => grow_tree_dense(net.costs(), net.source(), kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::random_net;
    use crate::substrate::NO_STATION;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use wmcs_geom::{Point, PowerModel};
    use wmcs_graph::{dijkstra, prim_mst, CostMatrix};

    /// The builder's grid growth equals the dense scan over the same
    /// network's matrix, byte for byte.
    #[test]
    fn backends_agree_byte_for_byte() {
        for seed in 0..6 {
            let net = random_net(seed, 48);
            for kind in [TreeKind::Spt, TreeKind::Mst] {
                let dense = SubstrateBuilder::new(&net)
                    .explicit_tree(RootedTree::from_parents(
                        0,
                        grow_tree_dense(net.costs(), 0, kind),
                    ))
                    .build();
                let grown = SubstrateBuilder::new(&net).tree(kind).build();
                assert_eq!(dense.bfs_order(), grown.bfs_order(), "{kind:?}");
                for v in 0..48 {
                    assert_eq!(dense.parent_of(v), grown.parent_of(v), "{kind:?}");
                    assert_eq!(
                        dense.parent_cost(v).to_bits(),
                        grown.parent_cost(v).to_bits(),
                        "{kind:?}"
                    );
                }
            }
        }
    }

    /// A lazy network grows the materialised network's tree, bit for bit.
    #[test]
    fn lazy_networks_build_on_both_backends() {
        let mut rng = SmallRng::seed_from_u64(9);
        let pts: Vec<Point> = (0..40)
            .map(|_| Point::xy(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        let dense_net = WirelessNetwork::euclidean(pts.clone(), PowerModel::free_space(), 0);
        let lazy_net = WirelessNetwork::euclidean_lazy(pts, PowerModel::free_space(), 0);
        for kind in [TreeKind::Spt, TreeKind::Mst] {
            let reference = SubstrateBuilder::new(&dense_net).tree(kind).build();
            let sub = SubstrateBuilder::new(&lazy_net).tree(kind).build();
            for v in 0..40 {
                assert_eq!(sub.parent_of(v), reference.parent_of(v), "{kind:?}");
                assert_eq!(
                    sub.parent_cost(v).to_bits(),
                    reference.parent_cost(v).to_bits(),
                    "{kind:?}"
                );
            }
        }
    }

    /// A general symmetric network has no points, so the builder grows
    /// it by the dense scan — on costs that often break the triangle
    /// inequality, from a non-zero source, the SPT's root paths realise
    /// Dijkstra's distances and the MST weighs what Prim's does.
    #[test]
    fn symmetric_networks_grow_the_dense_canonical_tree() {
        const N: usize = 30;
        for seed in 0..4 {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e);
            let m = CostMatrix::from_fn(N, |_, _| rng.gen_range(1.0..10.0));
            let s = 7;
            let net = WirelessNetwork::symmetric(m.clone(), s);
            for kind in [TreeKind::Spt, TreeKind::Mst] {
                let sub = SubstrateBuilder::new(&net).tree(kind).build();
                let reference = grow_tree_dense(&m, s, kind);
                for v in 0..N {
                    assert_eq!(
                        sub.parent_of(v),
                        reference[v].unwrap_or(NO_STATION),
                        "seed {seed} {kind:?} station {v}"
                    );
                }
                let mut path = vec![0.0; N];
                for v in sub.bfs_order().into_iter().skip(1) {
                    let v = v.index();
                    path[v] = path[sub.parent_of(v)] + sub.parent_cost(v);
                }
                match kind {
                    TreeKind::Spt => {
                        let dist = dijkstra(&m, s).dist;
                        for v in 0..N {
                            assert!(
                                (path[v] - dist[v]).abs() <= 1e-9 * (1.0 + dist[v]),
                                "seed {seed}: root path of {v} costs {}, Dijkstra {}",
                                path[v],
                                dist[v]
                            );
                        }
                    }
                    TreeKind::Mst => {
                        let cost: f64 = (0..N).map(|v| sub.parent_cost(v)).sum();
                        let prim = prim_mst(&m).cost;
                        assert!(
                            (cost - prim).abs() <= 1e-9 * (1.0 + prim),
                            "seed {seed}: tree weighs {cost}, Prim's MST {prim}"
                        );
                    }
                }
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
}
