//! # wmcs-geom — geometry substrate
//!
//! Foundation layer for the wireless multicast cost-sharing reproduction
//! (Bilò et al., SPAA 2004 / TCS 2006): d-dimensional Euclidean points, the
//! power-attenuation transmission-cost model `c(x, y) = κ · dist(x, y)^α`,
//! tolerant floating-point comparisons used by every mechanism decision, and
//! deterministic random-instance generators.
//!
//! The paper's model (§1, "Wireless network model"): stations live in
//! `R^d`; the power needed for a direct transmission between stations at
//! distance `t` is `κ · t^α` where `α ≥ 1` is the distance–power gradient
//! and `κ` the transmission-quality threshold (normalised to 1 throughout
//! the paper, kept explicit here).

// Index loops over multiple parallel arrays are idiomatic in this
// numeric code; the iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]
// Every public item carries rustdoc: substrate crates feed the
// mechanism layers above them, and undocumented invariants become
// silent contract drift there.
#![deny(missing_docs)]

pub mod churn;
pub mod float;
pub mod gen;
pub mod grid;
pub mod point;
pub mod point_set;
pub mod power;
pub mod scenario;

pub use churn::{
    ChurnEvent, ChurnProcess, ChurnTrace, GroupChurn, MultiGroupProcess, MultiGroupTrace,
};
pub use float::{
    approx_eq, approx_ge, approx_le, approx_lt, total_cmp_slice, Eps, BB_TOL, EPS, FEAS_TOL,
    IDENT_TOL, REL_TOL, SP_TOL, SP_TOL_APPROX, VP_TOL,
};
pub use gen::{InstanceConfig, InstanceKind};
pub use grid::GridIndex;
pub use point::Point;
pub use point_set::PointSet;
pub use power::PowerModel;
pub use scenario::{LayoutFamily, Scenario, SCENARIO_SIDE};

#[cfg(test)]
mod integration_tests {
    use super::*;

    #[test]
    fn model_and_points_cooperate() {
        let m = PowerModel::new(2.0, 1.0);
        let a = Point::new(vec![0.0, 0.0]);
        let b = Point::new(vec![3.0, 4.0]);
        assert!(approx_eq(m.cost(&a, &b), 25.0));
    }

    #[test]
    fn generated_instances_have_requested_size() {
        for (kind, expect_dim) in [
            (InstanceKind::UniformBox { side: 10.0 }, 2),
            (InstanceKind::Line { length: 10.0 }, 1), // Line forces d = 1
            (
                InstanceKind::Clustered {
                    clusters: 3,
                    spread: 0.5,
                    side: 10.0,
                },
                2,
            ),
            (InstanceKind::Grid { spacing: 1.0 }, 2),
            (InstanceKind::Circle { radius: 5.0 }, 2),
        ] {
            let cfg = InstanceConfig {
                n: 17,
                dim: 2,
                kind,
                seed: 42,
            };
            let pts = cfg.generate();
            assert_eq!(pts.len(), 17);
            for p in &pts {
                assert_eq!(p.dim(), expect_dim);
            }
        }
    }
}
