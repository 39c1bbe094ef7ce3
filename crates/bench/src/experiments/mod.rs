//! One module per experiment in `EXPERIMENTS.md` (per-experiment index in
//! `DESIGN.md` §4). Each exposes a unit struct implementing
//! [`crate::registry::Experiment`]; the instances are registered in
//! [`crate::registry::REGISTRY`] and swept by [`crate::engine::run_sweep`].

pub mod f1;
pub mod f2;
pub mod t1;
pub mod t10;
pub mod t11;
pub mod t12;
pub mod t13;
pub mod t14;
pub mod t2;
pub mod t3;
pub mod t4;
pub mod t5;
pub mod t6;
pub mod t7;
pub mod t9;
