//! Served-workload benchmark for the multicast serving stack.
//!
//! Two workloads, each generated from a seed, are driven in a closed
//! loop through the public front doors (`StreamService::drive`,
//! `MulticastService::step`). Every outcome is checked (budget balance,
//! voluntary participation, zero-charged relays, finite cost) and folded
//! into a digest; health guards fail a degenerate drive. A traced run
//! replays the same seed with spans around each public call and a layer
//! replay that re-drives every epoch through shadow sessions and the
//! reference passes. See `perfbench/README.md`.

pub mod check;
pub mod drive;
pub mod replay;
pub mod run;
pub mod trace;
pub mod workload;
