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
//! * two binaries: `all_experiments [ID…] [SEEDS] [--json=PATH]` sweeps
//!   the registry, or the experiments named by id (`F1`, `T10`, …), and
//!   `bench_compare` diffs two summary files;
//! * five criterion benches (`cargo bench`): `scaling` and `substrates`
//!   time every mechanism and substrate (T8), `drop_engine` pits the
//!   naive drop loop against the incremental engine, `substrate_build`
//!   times grid growth up to n = 10⁶ against the dense reference, and
//!   `warm_reprice` times warm epochs of one session per mechanism. The
//!   serving stack — `MulticastService::step` and `StreamService::drive`
//!   — is timed only by the served-workload benchmark (`perfbench/`,
//!   specified by `BENCHMARK.json`).

// Every public item carries rustdoc: substrate crates feed the
// mechanism layers above them, and undocumented invariants become
// silent contract drift there.
#![deny(missing_docs)]
// Library code states its invariants with `.expect("…")` or propagates
// the error; only test code may unwrap (clippy.toml).
#![deny(clippy::unwrap_used)]

pub mod compare;
pub mod engine;
pub mod experiments;
pub mod harness;
pub mod latency;
pub mod registry;

pub use engine::{run_sweep, SweepConfig, SweepRun};
pub use harness::{random_euclidean, random_line, random_nwst, random_utilities, Table};
pub use latency::LatencySummary;
pub use registry::{Experiment, REGISTRY};
