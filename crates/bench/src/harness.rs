//! Shared harness: table rendering, and the random-instance builders the
//! experiments and criterion benches share.
//!
//! Parallelism lives in [`crate::engine`]: the sweep engine schedules flat
//! `(experiment × scenario × seed)` cells over a self-scheduling worker
//! pool instead of chunking seeds per experiment.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use wmcs_geom::{LayoutFamily, Point, PowerModel, Scenario};
use wmcs_nwst::NodeWeightedGraph;
use wmcs_wireless::WirelessNetwork;

/// A printable experiment table.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Experiment id (e.g. "T2").
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The paper's claim being validated.
    pub claim: &'static str,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
    /// One-line verdict (filled by the experiment).
    pub verdict: String,
}

impl Table {
    /// New empty table.
    pub fn new(
        id: &'static str,
        title: &'static str,
        claim: &'static str,
        columns: &[&str],
    ) -> Self {
        Self {
            id,
            title,
            claim,
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: vec![],
            verdict: String::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len());
        self.rows.push(cells);
    }

    /// Render to stdout in aligned columns.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The aligned-column rendering as a string (what [`Table::print`]
    /// writes; also what the determinism tests compare byte-for-byte).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "== {}: {} ==", self.id, self.title).expect("write! to String is infallible");
        writeln!(out, "paper claim: {}", self.claim).expect("write! to String is infallible");
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let render_row = |cells: &[String]| {
            let mut line = String::from("| ");
            for (w, cell) in widths.iter().zip(cells) {
                line.push_str(&format!("{cell:>w$} | ", w = w));
            }
            line
        };
        writeln!(out, "{}", render_row(&self.columns)).expect("write! to String is infallible");
        writeln!(
            out,
            "|{}|",
            widths
                .iter()
                .map(|w| "-".repeat(w + 2))
                .collect::<Vec<_>>()
                .join("|")
        )
        .expect("write! to String is infallible");
        for row in &self.rows {
            writeln!(out, "{}", render_row(row)).expect("write! to String is infallible");
        }
        writeln!(out, "verdict: {}\n", self.verdict).expect("write! to String is infallible");
        out
    }
}

/// Wireless network for a scenario draw: stations from the scenario's
/// generator, costs `dist^α`.
///
/// For the [`LayoutFamily::Line`] family the stations come from
/// [`wmcs_geom::gen::line_instance`] — sorted along the segment with the
/// middle station as source (the `d = 1` setting of Lemma 3.1); every
/// other family keeps station 0 as the source.
pub fn scenario_network(sc: &Scenario, seed: u64) -> WirelessNetwork {
    let (pts, source) = if sc.family == LayoutFamily::Line {
        wmcs_geom::gen::line_instance(sc.n, 2.0 * wmcs_geom::SCENARIO_SIDE, seed)
    } else {
        (sc.points(seed), 0)
    };
    WirelessNetwork::euclidean(pts, sc.power_model(), source)
}

/// Terminals per node-weighted instance at station count `n`: the seed
/// tables' `k ≈ n/2 − 1` density. Shared by T2 and its T9 ablation so
/// the two always sweep the same instance class.
pub fn nwst_terminals_for(n: usize) -> usize {
    (n / 2).saturating_sub(1).max(2)
}

/// Node-weighted Steiner instance induced by a scenario draw: the graph
/// structure follows the spatial layout, so clustered/grid/circle station
/// sets genuinely change the connectivity regime.
///
/// Stations come from the scenario generator; edges are a chain in
/// first-coordinate order (guaranteeing connectivity) plus each station's
/// two nearest neighbours; `k` zero-weight terminals are spread evenly
/// over the station indices and every other node gets a random weight in
/// `[0.2, 5)`. Degenerate draws where the terminals connect for free are
/// possible (e.g. two terminals in one tight cluster) — callers that
/// normalise by the optimum skip instances whose exact cost is ~0.
pub fn random_nwst_scenario(sc: &Scenario, seed: u64, k: usize) -> (NodeWeightedGraph, Vec<usize>) {
    let n = sc.n;
    assert!(k >= 1 && k <= n);
    let pts = sc.points(seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0115_7a9c_e5ee_d000);
    let terminals: Vec<usize> = (0..k).map(|i| i * n / k).collect();
    let weights: Vec<f64> = (0..n)
        .map(|v| {
            if terminals.contains(&v) {
                0.0
            } else {
                rng.gen_range(0.2..5.0)
            }
        })
        .collect();
    let mut g = NodeWeightedGraph::new(weights);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| pts[a].coord(0).total_cmp(&pts[b].coord(0)));
    for w in order.windows(2) {
        g.add_edge(w[0], w[1]);
    }
    for v in 0..n {
        let mut near: Vec<usize> = (0..n).filter(|&u| u != v).collect();
        near.sort_by(|&a, &b| pts[v].dist_sq(&pts[a]).total_cmp(&pts[v].dist_sq(&pts[b])));
        for &u in near.iter().take(2) {
            g.add_edge(v, u);
        }
    }
    (g, terminals)
}

/// Random 2-D Euclidean network, source 0.
pub fn random_euclidean(seed: u64, n: usize, alpha: f64, side: f64) -> WirelessNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::xy(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    WirelessNetwork::euclidean(pts, PowerModel::with_alpha(alpha), 0)
}

/// Random sorted line network with a middle source.
pub fn random_line(seed: u64, n: usize, alpha: f64, length: f64) -> WirelessNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut xs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..length)).collect();
    xs.sort_by(f64::total_cmp);
    let pts: Vec<Point> = xs.into_iter().map(Point::on_line).collect();
    let source = rng.gen_range(0..n);
    WirelessNetwork::euclidean(pts, PowerModel::with_alpha(alpha), source)
}

/// Random node-weighted graph: ring + chords, `k` zero-weight terminals
/// spread evenly around the ring (adjacent zero-weight terminals would
/// make the optimum trivially 0). Kept for the criterion benches; the
/// experiment tables use the layout-aware [`random_nwst_scenario`].
pub fn random_nwst(seed: u64, n: usize, k: usize) -> (NodeWeightedGraph, Vec<usize>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let terminals: Vec<usize> = (0..k).map(|i| i * n / k).collect();
    let weights: Vec<f64> = (0..n)
        .map(|v| {
            if terminals.contains(&v) {
                0.0
            } else {
                rng.gen_range(0.2..5.0)
            }
        })
        .collect();
    let mut g = NodeWeightedGraph::new(weights);
    for v in 0..n {
        g.add_edge(v, (v + 1) % n);
    }
    for _ in 0..n {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b && !(terminals.contains(&a) && terminals.contains(&b)) {
            g.add_edge(a, b);
        }
    }
    (g, terminals)
}

/// Random utility profile in `[0, hi)`.
pub fn random_utilities(seed: u64, n: usize, hi: f64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0.0..hi)).collect()
}
