//! The sweep engine: a self-scheduling parallel executor over flat
//! `(experiment × scenario × seed)` cells.
//!
//! The old harness chunked seeds per experiment, which idled threads on
//! tail seeds of slow cells. Here every cell across the whole sweep goes
//! into one flat work list and workers steal the next cell from a shared
//! atomic cursor, so a slow experiment's tail overlaps the next
//! experiment's cells and the pool drains evenly.
//!
//! Results are placed by cell index, so the assembled tables are
//! byte-identical regardless of thread count or scheduling order (pinned
//! by the determinism tests in `tests/engine_determinism.rs`).

use crate::harness::Table;
use crate::registry::{assemble_table, cell_seed, Experiment, Obs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
// Wall-clock feeds per-cell timings reported as informational metadata only;
// verdict and share columns never read them (warm ≡ cold byte-identity gates this).
use std::time::Instant;
use wmcs_geom::Scenario;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Seeds per `(experiment, scenario)` cell.
    pub seeds_per_cell: u64,
    /// Worker threads; `None` = available parallelism.
    pub threads: Option<usize>,
}

impl SweepConfig {
    /// Sweep with `seeds_per_cell` seeds on the default thread count.
    pub fn with_seeds(seeds_per_cell: u64) -> Self {
        Self {
            seeds_per_cell,
            threads: None,
        }
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self::with_seeds(20)
    }
}

/// Aggregate timing of one `(experiment, scenario)` cell.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// The scenario's stable label.
    pub scenario: String,
    /// Summed compute seconds over the cell's seeds.
    pub seconds: f64,
}

/// One experiment's finished table plus its gate status and timings.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The rendered table (pinned rows first, then one row per scenario).
    pub table: Table,
    /// Did every gated claim hold?
    pub pass: bool,
    /// Summed compute seconds (all cells + pinned checks). A *work*
    /// metric, not wall time: it is stable under thread count, which is
    /// what makes baseline timing diffs meaningful across machines with
    /// different core counts.
    pub seconds: f64,
    /// Per-scenario timings, in scenario order.
    pub cells: Vec<CellTiming>,
}

impl ExperimentResult {
    /// `"pass"` / `"fail"` — the categorical verdict the CI gate diffs.
    pub fn status(&self) -> &'static str {
        if self.pass {
            "pass"
        } else {
            "fail"
        }
    }
}

/// A finished sweep over a set of experiments.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Seeds per cell the sweep ran with.
    pub seeds_per_cell: u64,
    /// Per-experiment results, in registry order.
    pub experiments: Vec<ExperimentResult>,
    /// Summed compute seconds across all experiments.
    pub total_seconds: f64,
}

/// One schedulable unit of work.
struct Cell {
    exp: usize,
    scenario: usize,
    seed: u64,
}

/// Run `experiments` over their scenario matrices with `cfg.seeds_per_cell`
/// seeds per cell, in parallel. Deterministic: the output depends only on
/// the experiments and the seed count, never on the thread count.
pub fn run_sweep(experiments: &[&dyn Experiment], cfg: &SweepConfig) -> SweepRun {
    assert!(cfg.seeds_per_cell >= 1, "need at least one seed per cell");
    let scenarios: Vec<Vec<Scenario>> = experiments.iter().map(|e| e.scenarios()).collect();

    // Flat work list: every (experiment, scenario, seed) across the sweep.
    let mut cells: Vec<Cell> = Vec::new();
    for (ei, e) in experiments.iter().enumerate() {
        for (si, sc) in scenarios[ei].iter().enumerate() {
            let label = sc.label();
            for i in 0..cfg.seeds_per_cell {
                cells.push(Cell {
                    exp: ei,
                    scenario: si,
                    seed: cell_seed(e.id(), &label, i),
                });
            }
        }
    }

    let results: Vec<OnceLock<(Obs, f64)>> = (0..cells.len()).map(|_| OnceLock::new()).collect();
    let run_cell = |cell: &Cell, slot: &OnceLock<(Obs, f64)>| {
        #[expect(
            clippy::disallowed_methods,
            reason = "per-cell timing is informational"
        )]
        let start = Instant::now();
        let obs = experiments[cell.exp].measure(&scenarios[cell.exp][cell.scenario], cell.seed);
        slot.set((obs, start.elapsed().as_secs_f64()))
            .expect("each cell is computed exactly once");
    };

    let threads = cfg
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .clamp(1, cells.len().max(1));
    if threads <= 1 {
        for (cell, slot) in cells.iter().zip(&results) {
            run_cell(cell, slot);
        }
    } else {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    run_cell(cell, &results[i]);
                });
            }
        });
    }

    // Fold the cells back into per-experiment tables, in declared order.
    let mut out = SweepRun {
        seeds_per_cell: cfg.seeds_per_cell,
        experiments: Vec::with_capacity(experiments.len()),
        total_seconds: 0.0,
    };
    let mut cursor = 0usize;
    for (ei, e) in experiments.iter().enumerate() {
        #[expect(
            clippy::disallowed_methods,
            reason = "pinned-row timing is informational"
        )]
        let pinned_start = Instant::now();
        let mut rows = e.pinned();
        let mut seconds = pinned_start.elapsed().as_secs_f64();
        let mut timings = Vec::with_capacity(scenarios[ei].len());
        for sc in &scenarios[ei] {
            let mut obs: Vec<Obs> = Vec::with_capacity(cfg.seeds_per_cell as usize);
            let mut cell_secs = 0.0;
            for _ in 0..cfg.seeds_per_cell {
                let (o, secs) = results[cursor].get().expect("all cells computed").clone();
                cursor += 1;
                cell_secs += secs;
                if !o.is_empty() {
                    obs.push(o);
                }
            }
            rows.push(e.row(sc, &obs));
            seconds += cell_secs;
            timings.push(CellTiming {
                scenario: sc.label(),
                seconds: cell_secs,
            });
        }
        let pass = rows.iter().all(|r| r.good);
        out.total_seconds += seconds;
        out.experiments.push(ExperimentResult {
            table: assemble_table(*e, &rows),
            pass,
            seconds,
            cells: timings,
        });
    }
    debug_assert_eq!(cursor, cells.len());
    out
}
