//! Deterministic random-instance generators.
//!
//! Every experiment in `EXPERIMENTS.md` drives its workloads through
//! [`InstanceConfig`] so that each table row is reproducible from a seed.

use crate::point::Point;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Spatial layout of a generated station set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InstanceKind {
    /// Points uniform in the axis-aligned box `[0, side]^d`.
    UniformBox {
        /// Box side length.
        side: f64,
    },
    /// Points uniform on a segment of the given length (forced to `d = 1`
    /// semantics: only the first coordinate varies).
    Line {
        /// Segment length.
        length: f64,
    },
    /// `clusters` cluster centres uniform in `[0, side]^d`, points Gaussian-ish
    /// (uniform ball) around centres with the given spread.
    Clustered {
        /// Number of cluster centres.
        clusters: usize,
        /// Uniform-ball radius around each centre.
        spread: f64,
        /// Side of the box the centres are drawn from.
        side: f64,
    },
    /// Points on a jittered integer grid with the given spacing (2-D only;
    /// higher dimensions fall back to the box layout).
    Grid {
        /// Lattice spacing.
        spacing: f64,
    },
    /// Points uniform on a circle of the given radius (2-D; used by the
    /// pentagon-style constructions of §3.2).
    Circle {
        /// Circle radius.
        radius: f64,
    },
}

/// A reproducible instance: `n` stations in dimension `dim`, laid out
/// according to `kind`, driven by `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceConfig {
    /// Number of stations (including the source, by convention station 0).
    pub n: usize,
    /// Ambient dimension `d ≥ 1`.
    pub dim: usize,
    /// Spatial layout.
    pub kind: InstanceKind,
    /// RNG seed.
    pub seed: u64,
}

impl InstanceConfig {
    /// Generate the station coordinates.
    pub fn generate(&self) -> Vec<Point> {
        assert!(self.dim >= 1, "dimension must be >= 1");
        let mut rng = SmallRng::seed_from_u64(self.seed);
        match self.kind {
            InstanceKind::UniformBox { side } => uniform_box(&mut rng, self.n, self.dim, side),
            InstanceKind::Line { length } => line(&mut rng, self.n, length),
            InstanceKind::Clustered {
                clusters,
                spread,
                side,
            } => clustered(&mut rng, self.n, self.dim, clusters, spread, side),
            InstanceKind::Grid { spacing } => {
                if self.dim == 2 {
                    grid(&mut rng, self.n, spacing)
                } else {
                    uniform_box(&mut rng, self.n, self.dim, spacing * (self.n as f64).sqrt())
                }
            }
            InstanceKind::Circle { radius } => circle(&mut rng, self.n, radius),
        }
    }
}

fn uniform_box(rng: &mut SmallRng, n: usize, dim: usize, side: f64) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new((0..dim).map(|_| rng.gen_range(0.0..side)).collect()))
        .collect()
}

fn line(rng: &mut SmallRng, n: usize, length: f64) -> Vec<Point> {
    (0..n)
        .map(|_| Point::on_line(rng.gen_range(0.0..length)))
        .collect()
}

fn clustered(
    rng: &mut SmallRng,
    n: usize,
    dim: usize,
    clusters: usize,
    spread: f64,
    side: f64,
) -> Vec<Point> {
    let clusters = clusters.max(1);
    let centres = uniform_box(rng, clusters, dim, side);
    (0..n)
        .map(|_| {
            let c = &centres[rng.gen_range(0..clusters)];
            Point::new(
                (0..dim)
                    .map(|k| c.coord(k) + rng.gen_range(-spread..spread))
                    .collect(),
            )
        })
        .collect()
}

fn grid(rng: &mut SmallRng, n: usize, spacing: f64) -> Vec<Point> {
    let cols = (n as f64).sqrt().ceil() as usize;
    (0..n)
        .map(|i| {
            let jx = rng.gen_range(-0.05..0.05) * spacing;
            let jy = rng.gen_range(-0.05..0.05) * spacing;
            Point::xy(
                (i % cols) as f64 * spacing + jx,
                (i / cols) as f64 * spacing + jy,
            )
        })
        .collect()
}

fn circle(rng: &mut SmallRng, n: usize, radius: f64) -> Vec<Point> {
    (0..n)
        .map(|_| {
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            Point::xy(radius * theta.cos(), radius * theta.sin())
        })
        .collect()
}

/// Convenience: sorted station positions on a segment with the source in the
/// middle position of the sorted order — the d = 1 setting of Lemma 3.1.
pub fn line_instance(n: usize, length: f64, seed: u64) -> (Vec<Point>, usize) {
    let cfg = InstanceConfig {
        n,
        dim: 1,
        kind: InstanceKind::Line { length },
        seed,
    };
    let mut pts = cfg.generate();
    pts.sort_by(|a, b| a.coord(0).total_cmp(&b.coord(0)));
    let source = n / 2;
    (pts, source)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = InstanceConfig {
            n: 10,
            dim: 2,
            kind: InstanceKind::UniformBox { side: 5.0 },
            seed: 7,
        };
        assert_eq!(cfg.generate(), cfg.generate());
        let cfg2 = InstanceConfig { seed: 8, ..cfg };
        assert_ne!(cfg.generate(), cfg2.generate());
    }

    #[test]
    fn line_points_are_one_dimensional() {
        let cfg = InstanceConfig {
            n: 5,
            dim: 1,
            kind: InstanceKind::Line { length: 3.0 },
            seed: 1,
        };
        for p in cfg.generate() {
            assert_eq!(p.dim(), 1);
            assert!(p.coord(0) >= 0.0 && p.coord(0) <= 3.0);
        }
    }

    #[test]
    fn box_points_stay_in_box() {
        let cfg = InstanceConfig {
            n: 50,
            dim: 3,
            kind: InstanceKind::UniformBox { side: 2.0 },
            seed: 3,
        };
        for p in cfg.generate() {
            for k in 0..3 {
                assert!(p.coord(k) >= 0.0 && p.coord(k) <= 2.0);
            }
        }
    }

    #[test]
    fn circle_points_are_on_circle() {
        let cfg = InstanceConfig {
            n: 20,
            dim: 2,
            kind: InstanceKind::Circle { radius: 4.0 },
            seed: 5,
        };
        let o = Point::xy(0.0, 0.0);
        for p in cfg.generate() {
            assert!((p.dist(&o) - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn line_instance_is_sorted_with_middle_source() {
        let (pts, s) = line_instance(9, 20.0, 13);
        for w in pts.windows(2) {
            assert!(w[0].coord(0) <= w[1].coord(0));
        }
        assert_eq!(s, 4);
    }

    #[test]
    fn clustered_produces_requested_count() {
        let cfg = InstanceConfig {
            n: 33,
            dim: 2,
            kind: InstanceKind::Clustered {
                clusters: 4,
                spread: 0.3,
                side: 8.0,
            },
            seed: 2,
        };
        assert_eq!(cfg.generate().len(), 33);
    }

    #[test]
    fn grid_in_three_dims_falls_back_to_box() {
        let cfg = InstanceConfig {
            n: 8,
            dim: 3,
            kind: InstanceKind::Grid { spacing: 1.0 },
            seed: 2,
        };
        let pts = cfg.generate();
        assert_eq!(pts.len(), 8);
        assert_eq!(pts[0].dim(), 3);
    }
}
