//! # wmcs-graph — graph algorithm substrate
//!
//! From-scratch graph machinery for the wireless multicast cost-sharing
//! reproduction (Bilò et al., SPAA 2004 / TCS 2006):
//!
//! * [`dense::CostMatrix`] — the paper's symmetric cost graph `(S, c)`;
//! * [`union_find::UnionFind`], [`heap::IndexedMinHeap`] — classic
//!   work-horses;
//! * [`mst`] — Prim/Kruskal spanning trees (MST broadcast heuristic, KMB);
//! * [`shortest_path`] — Dijkstra, shortest-path trees, metric closure;
//! * [`spatial`] — canonical SPT/MST growth: a dense `O(n²)` reference
//!   and a grid-index shell-expansion path that matches it byte for
//!   byte while scaling to 10⁶ stations in `O(n)` memory;
//! * [`tree::RootedTree`] — rooted multicast/universal trees with the
//!   `T(R)` (union-of-root-paths) operation of §2.1;
//! * [`steiner`] — KMB 2-approximation + exact Dreyfus–Wagner reference;
//! * [`moat`] — Goemans–Williamson moat growing with per-terminal dual
//!   shares, the engine of the Jain–Vazirani 2-BB cost-sharing family used
//!   by Theorem 3.6.

// Index loops over multiple parallel arrays are idiomatic in this
// numeric code; the iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]
// Every public item carries rustdoc: substrate crates feed the
// mechanism layers above them, and undocumented invariants become
// silent contract drift there.
#![deny(missing_docs)]
// Library code states its invariants with `.expect("…")` or propagates
// the error; only test code may unwrap (clippy.toml).
#![deny(clippy::unwrap_used)]

pub mod dense;
pub mod heap;
pub mod jv_shares;
pub mod moat;
pub mod mst;
pub mod shortest_path;
pub mod spatial;
pub mod steiner;
pub mod tree;
pub mod union_find;

pub use dense::CostMatrix;
pub use heap::{HeapKey, IndexedMinHeap};
pub use jv_shares::{jv_steiner_shares, JvShares};
pub use moat::{moat_growing, MoatResult};
pub use mst::{kruskal, prim_mst, prim_mst_subset, SpanningTree};
pub use shortest_path::{dijkstra, MetricClosure, ShortestPaths};
pub use spatial::{grow_tree_dense, grow_tree_spatial, TreeKind};
pub use steiner::{dreyfus_wagner_cost, kmb_steiner, SteinerTree};
pub use tree::RootedTree;
pub use union_find::UnionFind;

#[cfg(test)]
mod integration_tests {
    use super::*;
    use wmcs_geom::{approx_eq, Point, PowerModel};

    #[test]
    fn pipeline_points_to_steiner_tree() {
        let pts = vec![
            Point::xy(0.0, 0.0),
            Point::xy(2.0, 0.0),
            Point::xy(0.0, 2.0),
            Point::xy(2.0, 2.0),
            Point::xy(1.0, 1.0),
        ];
        let m = CostMatrix::from_points(&pts, &PowerModel::linear());
        let st = kmb_steiner(&m, &[0, 1, 2, 3]);
        let opt = dreyfus_wagner_cost(&m, &[0, 1, 2, 3]);
        assert!(st.cost <= 2.0 * opt + 1e-9);
        // The central hub makes the optimal tree the 4-star through vertex 4.
        assert!(approx_eq(opt, 4.0 * std::f64::consts::SQRT_2));
    }

    #[test]
    fn mst_vs_spt_differ_on_asymmetric_instances() {
        let m = CostMatrix::from_edges(3, &[(0, 1, 2.0), (1, 2, 2.0), (0, 2, 3.0)]);
        let mst = prim_mst(&m);
        assert!(approx_eq(mst.cost, 4.0));
        let spt = dijkstra(&m, 0).tree();
        // SPT from 0 uses the direct 0-2 edge (3 < 4).
        assert_eq!(spt.parent(2), Some(0));
    }
}
