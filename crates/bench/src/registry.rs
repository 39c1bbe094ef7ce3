//! The experiment registry: one [`Experiment`] trait object per figure
//! or table of the paper, resolved by id.
//!
//! Each experiment declares its scenario matrix ([`Experiment::scenarios`])
//! and a per-seed measurement ([`Experiment::measure`]); the sweep engine
//! in [`crate::engine`] schedules the flat `(experiment × scenario × seed)`
//! cells, then folds the observations back into table rows and a verdict
//! via [`Experiment::row`] / [`Experiment::verdict`].
//!
//! Verdict strings and the pass/fail status are **seed-count independent**
//! by contract: a run with fewer seeds per cell draws a prefix of the
//! seeds of a larger run (see [`cell_seed`]), so every gated claim must be
//! of the "for all sampled instances" kind — then a 3-seed CI run can be
//! diffed against a 20-seed committed baseline without false drift.

use crate::harness::Table;
use wmcs_geom::Scenario;

/// One per-seed measurement: a flat vector of numbers (booleans encoded
/// as 0/1). An **empty** vector marks a degenerate draw the aggregation
/// must skip (e.g. a node-weighted instance whose optimum is ~0).
pub type Obs = Vec<f64>;

/// An aggregated table row plus whether the paper's claim held on it.
///
/// `good` must be *monotone under seed subsetting*: if it holds for a
/// cell's full observation list it must hold for every prefix, so smaller
/// CI sweeps never drift against the committed baseline. Informational
/// rows (pure measurements with no gated claim) set `good = true`.
#[derive(Debug, Clone)]
pub struct RowSummary {
    /// Rendered cells, one per column.
    pub cells: Vec<String>,
    /// Did the claim hold on this row?
    pub good: bool,
}

impl RowSummary {
    /// A row that carries a gated claim.
    pub fn gated(cells: Vec<String>, good: bool) -> Self {
        Self { cells, good }
    }

    /// A purely informational row (never gates the verdict).
    pub fn info(cells: Vec<String>) -> Self {
        Self { cells, good: true }
    }
}

/// A registered experiment: a titled claim validated over a scenario
/// matrix, one measurement per `(scenario, seed)` cell.
pub trait Experiment: Sync {
    /// Stable experiment id, e.g. `"T2"`.
    fn id(&self) -> &'static str;
    /// Human title.
    fn title(&self) -> &'static str;
    /// The paper claim being validated.
    fn claim(&self) -> &'static str;
    /// Column headers shared by pinned and scenario rows.
    fn columns(&self) -> &'static [&'static str];
    /// The scenario matrix this experiment sweeps (one table row each).
    fn scenarios(&self) -> Vec<Scenario>;
    /// One measurement cell: run the experiment on `scenario` at `seed`.
    /// Return an empty vector to skip a degenerate draw.
    fn measure(&self, scenario: &Scenario, seed: u64) -> Obs;
    /// Fold a cell's (non-degenerate) per-seed observations into a row.
    fn row(&self, scenario: &Scenario, obs: &[Obs]) -> RowSummary;
    /// Pinned single-instance checks (worked examples, witnesses) that
    /// precede the scenario rows; run once per sweep.
    fn pinned(&self) -> Vec<RowSummary> {
        Vec::new()
    }
    /// Final verdict over every row (pinned first, then scenarios in
    /// order). Must be seed-count independent: derive it from the rows'
    /// `good` flags, never from random counts.
    fn verdict(&self, rows: &[RowSummary]) -> String;
}

/// Every experiment, in run (and `EXPERIMENTS.md`) order.
pub static REGISTRY: &[&dyn Experiment] = &[
    &crate::experiments::f1::F1,
    &crate::experiments::f2::F2,
    &crate::experiments::t1::T1,
    &crate::experiments::t2::T2,
    &crate::experiments::t3::T3,
    &crate::experiments::t4::T4,
    &crate::experiments::t5::T5,
    &crate::experiments::t6::T6,
    &crate::experiments::t7::T7,
    &crate::experiments::t9::T9,
    &crate::experiments::t10::T10,
    &crate::experiments::t11::T11,
    &crate::experiments::t12::T12,
    &crate::experiments::t13::T13,
    &crate::experiments::t14::T14,
];

/// Resolve an experiment by id (case-insensitive).
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    REGISTRY
        .iter()
        .copied()
        .find(|e| e.id().eq_ignore_ascii_case(id))
}

/// Deterministic seed for cell `(experiment, scenario, index)`.
///
/// FNV-1a over the experiment id and scenario label, finished with a
/// SplitMix64 round mixed with the seed index. A sweep with fewer seeds
/// per cell therefore draws a strict prefix of a larger sweep's seeds,
/// which is what keeps "for all sampled instances" verdicts comparable
/// across seed counts.
pub fn cell_seed(experiment: &str, scenario_label: &str, index: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in experiment
        .bytes()
        .chain([0xff])
        .chain(scenario_label.bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Build the finished [`Table`] for an experiment from its rows.
pub fn assemble_table(exp: &dyn Experiment, rows: &[RowSummary]) -> Table {
    let mut t = Table::new(exp.id(), exp.title(), exp.claim(), exp.columns());
    for r in rows {
        t.push_row(r.cells.clone());
    }
    t.verdict = exp.verdict(rows);
    t
}

// ---- small aggregation helpers shared by the experiment impls ----

/// The `i`-th component across observations.
pub fn col(obs: &[Obs], i: usize) -> impl Iterator<Item = f64> + '_ {
    obs.iter().map(move |o| o[i])
}

/// Mean of the `i`-th component (0 on empty input).
pub fn mean(obs: &[Obs], i: usize) -> f64 {
    if obs.is_empty() {
        0.0
    } else {
        col(obs, i).sum::<f64>() / obs.len() as f64
    }
}

/// Max of the `i`-th component (0 on empty input).
pub fn fmax(obs: &[Obs], i: usize) -> f64 {
    col(obs, i).fold(0.0, f64::max)
}

/// Min of the `i`-th component (+∞ on empty input).
pub fn fmin(obs: &[Obs], i: usize) -> f64 {
    col(obs, i).fold(f64::INFINITY, f64::min)
}

/// Does the boolean-coded `i`-th component hold on every observation?
pub fn all_true(obs: &[Obs], i: usize) -> bool {
    col(obs, i).all(|v| v > 0.5)
}

/// How many observations have the boolean-coded `i`-th component set?
pub fn count_true(obs: &[Obs], i: usize) -> usize {
    col(obs, i).filter(|&v| v > 0.5).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_resolvable() {
        let mut ids: Vec<&str> = REGISTRY.iter().map(|e| e.id()).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate experiment ids");
        for e in REGISTRY {
            assert!(find(e.id()).is_some());
            assert!(find(&e.id().to_lowercase()).is_some());
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn every_experiment_sweeps_at_least_three_layouts() {
        for e in REGISTRY {
            let mut fams: Vec<&str> = e.scenarios().iter().map(|s| s.family.name()).collect();
            fams.sort();
            fams.dedup();
            assert!(fams.len() >= 3, "{} sweeps only {:?}", e.id(), fams);
        }
    }

    #[test]
    fn cell_seeds_are_stable_and_distinct() {
        let a = cell_seed("T2", "uniform n=10 d=2 α=2", 0);
        assert_eq!(a, cell_seed("T2", "uniform n=10 d=2 α=2", 0));
        assert_ne!(a, cell_seed("T2", "uniform n=10 d=2 α=2", 1));
        assert_ne!(a, cell_seed("T3", "uniform n=10 d=2 α=2", 0));
        assert_ne!(a, cell_seed("T2", "line n=10 d=1 α=2", 0));
    }
}
