//! Sweep registered experiments over their full scenario matrices (the
//! complete EXPERIMENTS.md record, or any part of it).
//!
//! ```text
//! all_experiments [ID…] [SEEDS] [--json=PATH]
//! ```
//!
//! * `ID` — registry ids to sweep (`F1`, `T2`, …; case-insensitive).
//!   The picked experiments run in registry order, and with no id all of
//!   them do. Cell seeds depend only on `(id, scenario, index)`, so an
//!   experiment's table is the same whether it is swept alone or with
//!   the rest.
//! * `SEEDS` — seeds per `(experiment, scenario)` cell (default 20).
//! * `--json=PATH` — after the run, also write the versioned
//!   machine-readable sweep summary (per-experiment status, verdict,
//!   per-cell timings and full tables) to `PATH`. CI diffs its own
//!   3-seed run against the committed 20-seed baseline with
//!   `bench_compare`.
//!
//! Stdout carries the human-rendered tables; the summary file is the
//! machine-readable channel. A bad argument (unknown id or flag, empty
//! PATH, zero or repeated SEEDS) exits 2 before anything runs; a failed
//! gated claim exits 1.

use wmcs_bench::compare::summary_json;
use wmcs_bench::engine::{run_sweep, SweepConfig};
use wmcs_bench::registry::{self, REGISTRY};

const USAGE: &str = "usage: all_experiments [ID…] [SEEDS] [--json=PATH]";

/// Report a bad command line on stderr and exit with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut ids: Vec<&str> = Vec::new();
    let mut seeds: Option<u64> = None;
    let mut json_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if let Some(path) = arg.strip_prefix("--json=") {
            if path.is_empty() {
                usage_error("--json= needs a PATH");
            }
            json_path = Some(path.to_string());
        } else if let Ok(n) = arg.parse::<u64>() {
            if n == 0 {
                usage_error("SEEDS must be at least 1");
            }
            if let Some(prev) = seeds.replace(n) {
                usage_error(&format!("SEEDS given twice ({prev}, then {n})"));
            }
        } else if let Some(exp) = registry::find(&arg) {
            ids.push(exp.id());
        } else {
            let known: Vec<&str> = REGISTRY.iter().map(|e| e.id()).collect();
            usage_error(&format!(
                "unrecognised argument `{arg}` (experiment ids: {})",
                known.join(" ")
            ));
        }
    }

    let picked: Vec<_> = REGISTRY
        .iter()
        .copied()
        .filter(|e| ids.is_empty() || ids.contains(&e.id()))
        .collect();
    let run = run_sweep(&picked, &SweepConfig::with_seeds(seeds.unwrap_or(20)));
    for exp in &run.experiments {
        exp.table.print();
    }

    if let Some(path) = json_path {
        std::fs::write(&path, summary_json(&run)).expect("summary file is writable");
        eprintln!(
            "wrote {} experiments ({:.2}s compute) to {path}",
            run.experiments.len(),
            run.total_seconds
        );
    }

    if run.experiments.iter().any(|e| !e.pass) {
        eprintln!("some experiments FAILED their gated claims");
        std::process::exit(1);
    }
}
