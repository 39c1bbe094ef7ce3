//! # wmcs-bench — benchmark & experiment harness
//!
//! Regenerates every figure and theorem-backed claim of the paper
//! (per-experiment index in `DESIGN.md` §4, results recorded in
//! `EXPERIMENTS.md`) through a registry-driven sweep engine:
//!
//! * [`registry`] — one [`registry::Experiment`] per figure/table,
//!   resolved by id ([`registry::REGISTRY`]);
//! * [`engine`] — the work-stealing parallel executor over flat
//!   `(experiment × scenario × seed)` cells;
//! * [`compare`] — the versioned sweep-summary JSON schema and the
//!   baseline diff behind the `bench_compare` CI gate;
//! * [`latency`] — exact p50/p99/p999 percentiles (deterministic
//!   nearest-rank math) over the streaming layer's virtual-clock
//!   samples, per event class;
//! * table binaries: `fig1_collusion` (F1), `fig2_empty_core` (F2),
//!   `table_universal_tree` (T1), `table_nwst_bb` (T2),
//!   `table_wireless_bb` (T3), `table_euclidean_optimal` (T4),
//!   `table_submodularity_violations` (T5), `table_mst_ratio` (T6),
//!   `table_jv_bb` (T7), `table_eq5_ablation` (T9), `table_scaling`
//!   (T10, the incremental-engine n ≤ 4096 scaling table),
//!   `table_churn` (T11, the live-session churn table),
//!   `table_service` (T12, the sharded multi-group service table) and
//!   `table_stream` (T14, the streaming ≡ batch byte-identity table
//!   with exact latency percentiles) — each a thin [`cli::table_main`]
//!   shim — plus `all_experiments` to sweep the whole registry and
//!   `bench_compare` to diff two summary files;
//! * four criterion benches (`cargo bench`): `scaling` and `substrates`
//!   time every mechanism and substrate (T8), `drop_engine` pits the
//!   naive drop loop against the incremental engine, and
//!   `substrate_build` pits the spatial backend against the dense one
//!   up to n = 10⁶. The serving stack — `MulticastService::step` and
//!   `StreamService::drive` — is timed only by the served-workload
//!   benchmark (`perfbench/`, specified by `BENCHMARK.json`).

// Every public item carries rustdoc: substrate crates feed the
// mechanism layers above them, and undocumented invariants become
// silent contract drift there.
#![deny(missing_docs)]

pub mod cli;
pub mod compare;
pub mod engine;
pub mod experiments;
pub mod harness;
pub mod latency;
pub mod registry;

pub use engine::{run_sweep, SweepConfig, SweepRun};
pub use harness::{
    random_euclidean, random_line, random_nwst, random_utilities, OutputMode, Table,
};
pub use latency::LatencySummary;
pub use registry::{Experiment, REGISTRY};
