//! A flat set of points: how a network stores its stations.

use crate::point::Point;

/// `n ≥ 1` points of one dimension `d`, stored flat: one `Vec<f64>` of
/// point-major coordinates (`coords[i * d + a]`), with no heap allocation
/// per point. At `d = 2` that is 16 B per point, where a `Vec<Point>`
/// keeps a 24 B header and a separate allocation for each (~54 B
/// resident). The spatial index and the tree growth borrow the set
/// rather than copying it.
///
/// [`PointSet::new`] is the one door for coordinates: it refuses an
/// empty set, mixed dimensions and any non-finite coordinate, naming
/// the offending point, so no cost matrix, grid or tree is ever built
/// over a NaN or an infinity.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSet {
    dim: usize,
    coords: Vec<f64>,
}

impl PointSet {
    /// Check and flatten `points`. Panics on an empty slice, on a point
    /// whose dimension differs from the first one's, and on a NaN or
    /// infinite coordinate.
    pub fn new(points: &[Point]) -> Self {
        assert!(
            !points.is_empty(),
            "empty point set: a network needs at least one station"
        );
        let dim = points[0].dim();
        let mut coords = Vec::with_capacity(points.len() * dim);
        for (i, p) in points.iter().enumerate() {
            assert!(
                p.dim() == dim,
                "mixed-dimension points: station {i} has {} coordinates, station 0 has {dim}",
                p.dim()
            );
            for (a, &x) in p.coords().iter().enumerate() {
                assert!(
                    x.is_finite(),
                    "station {i}, axis {a}: coordinate {x} is not finite"
                );
            }
            coords.extend_from_slice(p.coords());
        }
        Self { dim, coords }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// Always false: [`PointSet::new`] refuses an empty set.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Ambient dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Coordinate `a` of point `i`.
    #[inline]
    pub fn coord(&self, i: usize, a: usize) -> f64 {
        self.coords[i * self.dim + a]
    }

    /// Euclidean distance between points `i` and `j`: the float
    /// operations of [`Point::dist`] in the same order, so the two agree
    /// bit for bit.
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        let (x, y) = (
            &self.coords[i * self.dim..(i + 1) * self.dim],
            &self.coords[j * self.dim..(j + 1) * self.dim],
        );
        x.iter()
            .zip(y)
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Heap bytes of the coordinates.
    pub fn memory_bytes(&self) -> usize {
        self.coords.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_points_in_order() {
        let pts = PointSet::new(&[Point::xyz(1.0, 2.0, 3.0), Point::xyz(4.0, 6.0, 3.0)]);
        assert_eq!((pts.len(), pts.dim()), (2, 3));
        assert_eq!(pts.coord(1, 1), 6.0);
        assert_eq!(pts.dist(0, 1), 5.0);
        assert_eq!(pts.memory_bytes(), 6 * 8);
    }

    #[test]
    #[should_panic(expected = "station 1, axis 0: coordinate -inf is not finite")]
    fn infinite_coordinate_is_refused() {
        let _ = PointSet::new(&[Point::on_line(0.0), Point::on_line(f64::NEG_INFINITY)]);
    }
}
