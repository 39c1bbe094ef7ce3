//! T13 — backend identity table: the spatial grid-index construction
//! behind [`SubstrateBuilder`] is **byte-identical** to the dense `O(n²)`
//! reference on every layout family, for both universal-tree kinds.
//!
//! The builder's contract (see `crates/wireless/src/builder.rs`) is that
//! [`Backend`] affects build *time*, never *results*: `Backend::Auto` may
//! switch a large Euclidean network to the spatial path and nothing
//! downstream — shares, receiver sets, session replays — may move by a
//! bit. This table pins that contract where it is cheapest to check
//! exhaustively: small-to-moderate n across all five layout families
//! (including the tie-heavy jittered `Grid`), both `TreeKind`s, α ∈
//! {2, 4}. Per `(scenario, seed)` cell it builds the substrate four ways
//! (dense/spatial × SPT/MST) and gates equality of
//!
//! * the parent array (via `parent_of`, source sentinel included),
//! * the cached tree-edge cost **bits** (`parent_cost(v).to_bits()`),
//! * the cost-sorted CSR child order (`sorted_children`), and
//! * the BFS order `bfs_order` derives from that CSR.
//!
//! The `Line` scenarios run with the mid-segment source, so the identity
//! is also pinned at a non-zero root.

use crate::harness::scenario_network;
use crate::registry::{all_true, mean, Experiment, Obs, RowSummary};
use wmcs_geom::{LayoutFamily, Scenario};
use wmcs_wireless::{Backend, SubstrateBuilder, TreeKind};

/// The T13 experiment (registered as `"T13"`).
pub struct T13;

impl Experiment for T13 {
    fn id(&self) -> &'static str {
        "T13"
    }

    fn title(&self) -> &'static str {
        "substrate backends: spatial ≡ dense, byte for byte"
    }

    fn claim(&self) -> &'static str {
        "the spatial grid-index construction produces the same universal tree as the dense \
         O(n²) reference — identical parents, edge-cost bits, CSR child order and BFS order — \
         on every layout family and both tree kinds"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "scenario",
            "seeds",
            "Σc(SPT)",
            "parents",
            "cost bits",
            "csr+bfs",
        ]
    }

    fn scenarios(&self) -> Vec<Scenario> {
        Scenario::matrix(&LayoutFamily::ALL, &[16, 64, 256], &[2], &[2.0, 4.0])
    }

    fn measure(&self, scenario: &Scenario, seed: u64) -> Obs {
        let net = scenario_network(scenario, seed);
        let n = net.n_stations();
        let mut parents_ok = true;
        let mut costs_ok = true;
        let mut order_ok = true;
        let mut spt_cost = 0.0;
        for kind in [TreeKind::Spt, TreeKind::Mst] {
            let dense = SubstrateBuilder::new(&net)
                .tree(kind)
                .backend(Backend::Dense)
                .build();
            let spatial = SubstrateBuilder::new(&net)
                .tree(kind)
                .backend(Backend::Spatial)
                .build();
            for v in 0..n {
                parents_ok &= dense.parent_of(v) == spatial.parent_of(v);
                costs_ok &= dense.parent_cost(v).to_bits() == spatial.parent_cost(v).to_bits();
                order_ok &= dense.sorted_children(v) == spatial.sorted_children(v);
            }
            order_ok &= dense.bfs_order() == spatial.bfs_order();
            if kind == TreeKind::Spt {
                spt_cost = (0..n).map(|v| dense.parent_cost(v)).sum();
            }
        }
        vec![
            spt_cost,
            f64::from(parents_ok),
            f64::from(costs_ok),
            f64::from(order_ok),
        ]
    }

    fn row(&self, scenario: &Scenario, obs: &[Obs]) -> RowSummary {
        let spt_cost = mean(obs, 0);
        let parents = all_true(obs, 1);
        let costs = all_true(obs, 2);
        let order = all_true(obs, 3);
        RowSummary::gated(
            vec![
                scenario.label(),
                obs.len().to_string(),
                format!("{spt_cost:.1}"),
                parents.to_string(),
                costs.to_string(),
                order.to_string(),
            ],
            parents && costs && order,
        )
    }

    fn verdict(&self, rows: &[RowSummary]) -> String {
        if rows.iter().all(|r| r.good) {
            "spatial and dense backends agree byte for byte — parents, cost bits, CSR and BFS \
             order — on every layout family and both tree kinds"
                .into()
        } else {
            "MISMATCH".into()
        }
    }
}
