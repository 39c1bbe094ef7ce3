//! Property suite for the substrate builder: on every registered layout
//! family, both [`TreeKind`]s and all station counts up to 512, the
//! builder's grid-index growth is **byte-identical** to the dense `O(n²)`
//! reference — same parent array, same cost-sorted CSR child order, same
//! cached edge-cost bits — and the lazy Euclidean regime reproduces the
//! materialised one exactly, down to every distance and cost.

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Arc;
use wmcs_geom::{LayoutFamily, PointSet, Scenario};
use wmcs_graph::{grow_tree_dense, RootedTree};
use wmcs_wireless::{SubstrateBuilder, TreeKind, TreeSubstrate, WirelessNetwork};

/// Build the scenario's network in both storage regimes.
fn scenario_nets(
    family: LayoutFamily,
    n: usize,
    dim: usize,
    alpha: f64,
    seed: u64,
) -> (WirelessNetwork, WirelessNetwork) {
    let sc = Scenario::new(family, n, dim, alpha);
    let pts = sc.points(seed);
    let dense = WirelessNetwork::euclidean(pts.clone(), sc.power_model(), 0);
    let lazy = WirelessNetwork::euclidean_lazy(pts, sc.power_model(), 0);
    (dense, lazy)
}

/// The dense scan over the materialised network's matrix, built as an
/// explicit tree: the reference the builder's growth is compared with.
fn dense_reference(net: &WirelessNetwork, kind: TreeKind) -> Arc<TreeSubstrate> {
    let s = net.source();
    SubstrateBuilder::new(net)
        .explicit_tree(RootedTree::from_parents(
            s,
            grow_tree_dense(net.costs(), s, kind),
        ))
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One distance routine: on every layout family in each dimension
    /// d ∈ {1, 2, 3} it supports, with up to eight points copied onto
    /// others, the flat set's `dist(i, j)` is `Point::dist`'s bits, and
    /// the lazy network's `cost(i, j)` is the materialised matrix's bits,
    /// which are `PowerModel::cost` of the two points.
    #[test]
    fn flat_distances_and_lazy_costs_match_point_distances_bit_for_bit(
        fam_idx in 0usize..5,
        n in 2usize..=64,
        dim in 1usize..=3,
        alpha_idx in 0usize..3,
        seed in 0u64..10_000,
        dups in 0usize..=8,
    ) {
        let family = LayoutFamily::ALL[fam_idx];
        let sc = Scenario::new(family, n, dim, [1.0, 2.0, 4.0][alpha_idx]);
        let mut pts = sc.points(seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xd1_57);
        for _ in 0..dups {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            pts[i] = pts[j].clone();
        }
        let model = sc.power_model();
        let set = PointSet::new(&pts);
        let dense = WirelessNetwork::euclidean(pts.clone(), model, 0);
        let lazy = WirelessNetwork::euclidean_lazy(pts.clone(), model, 0);
        let label = format!("{} n={} d={} α={} seed={} dups={}",
            family.name(), n, sc.dim, sc.alpha, seed, dups);
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(set.dist(i, j).to_bits(), pts[i].dist(&pts[j]).to_bits(),
                    "dist({}, {}) in {}", i, j, &label);
                prop_assert_eq!(lazy.cost(i, j).to_bits(), dense.cost(i, j).to_bits(),
                    "cost({}, {}) in {}", i, j, &label);
                if i != j {
                    prop_assert_eq!(dense.cost(i, j).to_bits(),
                        model.cost(&pts[i], &pts[j]).to_bits(),
                        "matrix entry ({}, {}) in {}", i, j, &label);
                }
            }
        }
    }

    /// The tentpole identity: spatial ≡ dense byte for byte — parents,
    /// CSR child order, cached costs, BFS order — on every layout family
    /// and both tree kinds.
    #[test]
    fn spatial_backend_equals_dense_byte_for_byte(
        fam_idx in 0usize..5,
        n in 2usize..=512,
        dim in 1usize..=3,
        alpha_idx in 0usize..2,
        seed in 0u64..10_000,
        kind_idx in 0usize..2,
    ) {
        let family = LayoutFamily::ALL[fam_idx];
        let alpha = [2.0f64, 4.0][alpha_idx];
        let kind = [TreeKind::Spt, TreeKind::Mst][kind_idx];
        let (net, _) = scenario_nets(family, n, dim, alpha, seed);
        let label = format!("{} n={} d={} α={} {:?} seed={}",
            family.name(), n, dim, alpha, kind, seed);

        let dense = dense_reference(&net, kind);
        let spatial = SubstrateBuilder::new(&net).tree(kind).build();

        prop_assert_eq!(dense.bfs_order(), spatial.bfs_order(), "bfs {}", &label);
        for v in 0..n {
            prop_assert_eq!(dense.parent_of(v), spatial.parent_of(v),
                "parent of {} in {}", v, &label);
            prop_assert_eq!(
                dense.parent_cost(v).to_bits(),
                spatial.parent_cost(v).to_bits(),
                "parent cost of {} in {}", v, &label);
            prop_assert_eq!(dense.sorted_children(v), spatial.sorted_children(v),
                "children of {} in {}", v, &label);
        }
    }

    /// The lazy Euclidean regime changes storage, never results: the
    /// builder on a lazy network reproduces the materialised network's
    /// dense reference bit for bit.
    #[test]
    fn lazy_regime_is_transparent_to_both_backends(
        fam_idx in 0usize..5,
        n in 2usize..=96,
        seed in 0u64..10_000,
        kind_idx in 0usize..2,
    ) {
        let family = LayoutFamily::ALL[fam_idx];
        let kind = [TreeKind::Spt, TreeKind::Mst][kind_idx];
        let (dense_net, lazy_net) = scenario_nets(family, n, 2, 2.0, seed);
        let reference = dense_reference(&dense_net, kind);
        let sub = SubstrateBuilder::new(&lazy_net).tree(kind).build();
        prop_assert_eq!(reference.bfs_order(), sub.bfs_order(),
            "{} n={} {:?}", family.name(), n, kind);
        for v in 0..n {
            prop_assert_eq!(
                reference.parent_cost(v).to_bits(),
                sub.parent_cost(v).to_bits(),
                "{} n={} v={} {:?}", family.name(), n, v, kind);
        }
    }
}
