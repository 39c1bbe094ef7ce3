//! d-dimensional Euclidean points.

use serde::{Deserialize, Serialize};

/// A point in `R^d`.
///
/// Stations in the paper's Euclidean model (§1, §3) are points; `d = 1`
/// (line networks, Lemma 3.1) up to arbitrary `d` (Theorem 3.6) are all
/// exercised, so dimension is dynamic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Point {
    coords: Vec<f64>,
}

impl Point {
    /// Create a point from its coordinates.
    pub fn new(coords: Vec<f64>) -> Self {
        assert!(!coords.is_empty(), "points must have dimension >= 1");
        Self { coords }
    }

    /// A 1-dimensional point (line networks of Lemma 3.1).
    pub fn on_line(x: f64) -> Self {
        Self { coords: vec![x] }
    }

    /// A 2-dimensional point.
    pub fn xy(x: f64, y: f64) -> Self {
        Self { coords: vec![x, y] }
    }

    /// A 3-dimensional point.
    pub fn xyz(x: f64, y: f64, z: f64) -> Self {
        Self {
            coords: vec![x, y, z],
        }
    }

    /// The origin of `R^d`.
    pub fn origin(dim: usize) -> Self {
        Self {
            coords: vec![0.0; dim],
        }
    }

    /// Dimension `d` of the ambient space.
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Coordinate accessor.
    pub fn coord(&self, i: usize) -> f64 {
        self.coords[i]
    }

    /// All coordinates.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Euclidean distance to another point.
    pub fn dist(&self, other: &Point) -> f64 {
        assert_eq!(
            self.dim(),
            other.dim(),
            "distance between points of different dimensions"
        );
        self.coords
            .iter()
            .zip(&other.coords)
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Squared Euclidean distance (avoids the square root when only
    /// comparisons are needed).
    pub fn dist_sq(&self, other: &Point) -> f64 {
        self.coords
            .iter()
            .zip(&other.coords)
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Midpoint of the segment between two points.
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new(
            self.coords
                .iter()
                .zip(&other.coords)
                .map(|(a, b)| (a + b) / 2.0)
                .collect(),
        )
    }

    /// The point `self + t * (other - self)` for `t ∈ \[0, 1\]`.
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point::new(
            self.coords
                .iter()
                .zip(&other.coords)
                .map(|(a, b)| a + t * (b - a))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::approx_eq;
    use proptest::prelude::*;

    #[test]
    fn pythagorean_distance() {
        let a = Point::xy(0.0, 0.0);
        let b = Point::xy(3.0, 4.0);
        assert!(approx_eq(a.dist(&b), 5.0));
        assert!(approx_eq(a.dist_sq(&b), 25.0));
    }

    #[test]
    fn one_dimensional_distance_is_absolute_difference() {
        let a = Point::on_line(-2.0);
        let b = Point::on_line(3.5);
        assert!(approx_eq(a.dist(&b), 5.5));
    }

    #[test]
    fn three_dimensional_distance() {
        let a = Point::xyz(1.0, 2.0, 3.0);
        let b = Point::xyz(1.0, 2.0, 3.0);
        assert!(approx_eq(a.dist(&b), 0.0));
        let c = Point::xyz(2.0, 4.0, 5.0);
        assert!(approx_eq(a.dist(&c), 3.0));
    }

    #[test]
    fn midpoint_and_lerp_agree() {
        let a = Point::xy(0.0, 0.0);
        let b = Point::xy(2.0, 4.0);
        assert_eq!(a.midpoint(&b), a.lerp(&b, 0.5));
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn mismatched_dimensions_panic() {
        let _ = Point::on_line(0.0).dist(&Point::xy(0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "dimension >= 1")]
    fn empty_point_panics() {
        let _ = Point::new(vec![]);
    }

    proptest! {
        #[test]
        fn distance_is_symmetric(ax in -100.0..100.0f64, ay in -100.0..100.0f64,
                                 bx in -100.0..100.0f64, by in -100.0..100.0f64) {
            let a = Point::xy(ax, ay);
            let b = Point::xy(bx, by);
            prop_assert!(approx_eq(a.dist(&b), b.dist(&a)));
        }

        #[test]
        fn triangle_inequality(ax in -50.0..50.0f64, ay in -50.0..50.0f64,
                               bx in -50.0..50.0f64, by in -50.0..50.0f64,
                               cx in -50.0..50.0f64, cy in -50.0..50.0f64) {
            let a = Point::xy(ax, ay);
            let b = Point::xy(bx, by);
            let c = Point::xy(cx, cy);
            prop_assert!(a.dist(&c) <= a.dist(&b) + b.dist(&c) + 1e-9);
        }

        #[test]
        fn dist_sq_is_square_of_dist(ax in -50.0..50.0f64, bx in -50.0..50.0f64) {
            let a = Point::on_line(ax);
            let b = Point::on_line(bx);
            prop_assert!(approx_eq(a.dist(&b) * a.dist(&b), a.dist_sq(&b)));
        }
    }
}
