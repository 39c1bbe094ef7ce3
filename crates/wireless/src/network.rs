//! Wireless networks: stations, a symmetric transmission-cost graph and a
//! distinguished source.
//!
//! The paper's model (§1): a network is a complete cost graph `(S, c)`;
//! stations act as selfish agents except the source `s`. Throughout the
//! workspace, *stations* are indexed `0..n` and *players* (the agents of
//! the cost-sharing games) are the stations except the source, in station
//! order.

use wmcs_geom::{Point, PointSet, PowerModel};
use wmcs_graph::CostMatrix;

/// A symmetric wireless network with a designated multicast source.
///
/// Two storage regimes share this one type:
///
/// * **materialised** — a dense [`CostMatrix`] holds every pairwise
///   cost (the default; required for general symmetric networks);
/// * **lazy Euclidean** ([`WirelessNetwork::euclidean_lazy`]) — only
///   the points and the power model are stored and [`cost`] computes
///   `κ · dist^α` on demand. The dense matrix is `O(n²)` memory
///   (≈ 4 TB at n = 10⁶), so the lazy regime is what lets the spatial
///   construction path reach million-station substrates. Both regimes
///   evaluate every cost as `model.cost_of_distance(points.dist(i, j))`,
///   so they agree bit for bit.
///
/// Euclidean stations are stored once, as a flat [`PointSet`]: both
/// Euclidean constructors take a `Vec<Point>`, check it at the door
/// ([`PointSet::new`] refuses mixed dimensions and NaN or infinite
/// coordinates, naming the station) and drop the per-point allocations.
///
/// [`cost`]: WirelessNetwork::cost
#[derive(Debug, Clone)]
pub struct WirelessNetwork {
    /// Number of stations, kept as a field: every receiver's
    /// [`WirelessNetwork::player_of_station`] check reads it.
    n: usize,
    /// `None` only in the lazy Euclidean regime, where `points` and
    /// `model` are guaranteed present.
    costs: Option<CostMatrix>,
    source: usize,
    /// Euclidean coordinates when the network was built from points
    /// (general symmetric networks have none).
    points: Option<PointSet>,
    model: Option<PowerModel>,
}

impl WirelessNetwork {
    /// Euclidean network: stations at `points`, costs `κ · dist^α`,
    /// multicast source `source`. Panics, before any cost is computed,
    /// on the inputs [`PointSet::new`] refuses.
    pub fn euclidean(points: Vec<Point>, model: PowerModel, source: usize) -> Self {
        let mut net = Self::euclidean_lazy(points, model, source);
        let costs = CostMatrix::from_fn(net.n, |i, j| net.cost(i, j));
        net.costs = Some(costs);
        net
    }

    /// Euclidean network **without** the dense `O(n²)` cost matrix:
    /// [`WirelessNetwork::cost`] computes `κ · dist^α` on demand from
    /// the stored points, bit-identical to the materialised values.
    /// Use for large n (the builder's grid growth needs nothing else);
    /// [`WirelessNetwork::costs`] panics in this regime. Panics on the
    /// inputs [`PointSet::new`] refuses.
    pub fn euclidean_lazy(points: Vec<Point>, model: PowerModel, source: usize) -> Self {
        let points = PointSet::new(&points);
        let n = points.len();
        assert!(source < n);
        Self {
            n,
            costs: None,
            source,
            points: Some(points),
            model: Some(model),
        }
    }

    /// General symmetric network from an explicit cost matrix.
    pub fn symmetric(costs: CostMatrix, source: usize) -> Self {
        assert!(source < costs.len());
        Self {
            n: costs.len(),
            costs: Some(costs),
            source,
            points: None,
            model: None,
        }
    }

    /// Number of stations (including the source).
    pub fn n_stations(&self) -> usize {
        self.n
    }

    /// Number of players (stations except the source).
    pub fn n_players(&self) -> usize {
        self.n_stations() - 1
    }

    /// The source station.
    pub fn source(&self) -> usize {
        self.source
    }

    /// The symmetric transmission cost `c(i, j)`.
    #[inline]
    pub fn cost(&self, i: usize, j: usize) -> f64 {
        match &self.costs {
            Some(m) => m.cost(i, j),
            None => {
                let pts = self
                    .points
                    .as_ref()
                    .expect("lazy networks always carry points");
                let model = self
                    .model
                    .as_ref()
                    .expect("lazy networks always carry a power model");
                model.cost_of_distance(pts.dist(i, j))
            }
        }
    }

    /// The underlying cost matrix. Panics on a lazy Euclidean network —
    /// call [`WirelessNetwork::try_costs`] first, or stay on the
    /// point-based [`WirelessNetwork::cost`] accessor.
    pub fn costs(&self) -> &CostMatrix {
        self.costs.as_ref().expect(
            "this network is lazy (euclidean_lazy): no dense cost matrix is materialised; \
             use cost(i, j) / try_costs() instead",
        )
    }

    /// The dense cost matrix, if one is materialised (`None` in the
    /// lazy Euclidean regime).
    pub fn try_costs(&self) -> Option<&CostMatrix> {
        self.costs.as_ref()
    }

    /// Station coordinates, if Euclidean.
    pub fn points(&self) -> Option<&PointSet> {
        self.points.as_ref()
    }

    /// Power model, if Euclidean.
    pub fn model(&self) -> Option<&PowerModel> {
        self.model.as_ref()
    }

    /// Station index of player `p` (players skip the source).
    pub fn station_of_player(&self, p: usize) -> usize {
        assert!(p < self.n_players());
        if p < self.source {
            p
        } else {
            p + 1
        }
    }

    /// Player index of station `x` (None for the source).
    pub fn player_of_station(&self, x: usize) -> Option<usize> {
        assert!(x < self.n_stations());
        match x.cmp(&self.source) {
            std::cmp::Ordering::Less => Some(x),
            std::cmp::Ordering::Equal => None,
            std::cmp::Ordering::Greater => Some(x - 1),
        }
    }

    /// Translate a player bitmask into the station list it denotes.
    pub fn stations_of_player_mask(&self, mask: u64) -> Vec<usize> {
        (0..self.n_players())
            .filter(|&p| mask & (1 << p) != 0)
            .map(|p| self.station_of_player(p))
            .collect()
    }

    /// Translate a station list into a player bitmask (the source is
    /// ignored).
    pub fn player_mask_of_stations(&self, stations: &[usize]) -> u64 {
        let mut mask = 0u64;
        for &x in stations {
            if let Some(p) = self.player_of_station(x) {
                mask |= 1 << p;
            }
        }
        mask
    }

    /// All stations except the source, ascending.
    pub fn non_source_stations(&self) -> Vec<usize> {
        (0..self.n_stations())
            .filter(|&x| x != self.source)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmcs_geom::approx_eq;

    fn net() -> WirelessNetwork {
        let pts = vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
            Point::xy(0.0, 2.0),
            Point::xy(3.0, 4.0),
        ];
        WirelessNetwork::euclidean(pts, PowerModel::free_space(), 1)
    }

    #[test]
    fn cost_matches_model() {
        let n = net();
        assert!(approx_eq(n.cost(0, 3), 25.0));
        assert!(approx_eq(n.cost(0, 1), 1.0));
    }

    #[test]
    fn player_station_round_trip() {
        let n = net(); // source = 1, players ↔ stations {0, 2, 3}
        assert_eq!(n.n_players(), 3);
        assert_eq!(n.station_of_player(0), 0);
        assert_eq!(n.station_of_player(1), 2);
        assert_eq!(n.station_of_player(2), 3);
        assert_eq!(n.player_of_station(0), Some(0));
        assert_eq!(n.player_of_station(1), None);
        assert_eq!(n.player_of_station(3), Some(2));
        for p in 0..n.n_players() {
            assert_eq!(n.player_of_station(n.station_of_player(p)), Some(p));
        }
    }

    #[test]
    fn mask_translations() {
        let n = net();
        let stations = n.stations_of_player_mask(0b101);
        assert_eq!(stations, vec![0, 3]);
        assert_eq!(n.player_mask_of_stations(&[0, 3]), 0b101);
        // Source is ignored in the reverse direction.
        assert_eq!(n.player_mask_of_stations(&[0, 1, 3]), 0b101);
    }

    #[test]
    fn symmetric_constructor_has_no_geometry() {
        let m = CostMatrix::from_fn(3, |i, j| (i + j) as f64);
        let n = WirelessNetwork::symmetric(m, 0);
        assert!(n.points().is_none());
        assert!(n.model().is_none());
        assert_eq!(n.non_source_stations(), vec![1, 2]);
    }

    #[test]
    fn lazy_network_costs_match_materialised_bit_for_bit() {
        let pts = vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.3, 0.4),
            Point::xy(0.7, 2.9),
            Point::xy(3.1, 4.2),
        ];
        let dense = WirelessNetwork::euclidean(pts.clone(), PowerModel::with_alpha(4.0), 0);
        let lazy = WirelessNetwork::euclidean_lazy(pts, PowerModel::with_alpha(4.0), 0);
        assert_eq!(lazy.n_stations(), 4);
        assert!(lazy.try_costs().is_none());
        assert!(dense.try_costs().is_some());
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(dense.cost(i, j).to_bits(), lazy.cost(i, j).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "lazy")]
    fn lazy_network_dense_matrix_accessor_panics() {
        let pts = vec![Point::xy(0.0, 0.0), Point::xy(1.0, 0.0)];
        let n = WirelessNetwork::euclidean_lazy(pts, PowerModel::linear(), 0);
        let _ = n.costs();
    }

    /// Three stations with one bad coordinate, station 2's `y`.
    fn with_bad_y(y: f64) -> Vec<Point> {
        vec![Point::xy(0.0, 0.0), Point::xy(1.0, 0.0), Point::xy(2.0, y)]
    }

    /// Build the tree the way a caller would, so that a refusal after
    /// construction would fail the test's expected message too.
    fn build(net: &WirelessNetwork) {
        let _ = crate::SubstrateBuilder::new(net).build();
    }

    /// "Dense" names the materialised constructor, which fills the matrix.
    #[test]
    #[should_panic(expected = "station 2, axis 1: coordinate NaN is not finite")]
    fn nan_coordinate_refused_at_the_door_on_the_dense_backend() {
        let net = WirelessNetwork::euclidean(with_bad_y(f64::NAN), PowerModel::linear(), 0);
        build(&net);
    }

    /// "Spatial" names the lazy constructor, which keeps only the points.
    #[test]
    #[should_panic(expected = "station 2, axis 1: coordinate NaN is not finite")]
    fn nan_coordinate_refused_at_the_door_on_the_spatial_backend() {
        let net = WirelessNetwork::euclidean_lazy(with_bad_y(f64::NAN), PowerModel::linear(), 0);
        build(&net);
    }

    #[test]
    #[should_panic(expected = "station 2, axis 1: coordinate inf is not finite")]
    fn infinite_coordinate_refused_at_the_door_on_the_dense_backend() {
        let net = WirelessNetwork::euclidean(with_bad_y(f64::INFINITY), PowerModel::linear(), 0);
        build(&net);
    }

    #[test]
    #[should_panic(
        expected = "mixed-dimension points: station 1 has 3 coordinates, station 0 has 2"
    )]
    fn mixed_dimensions_refused_by_the_lazy_constructor() {
        let pts = vec![Point::xy(0.0, 0.0), Point::xyz(1.0, 0.0, 0.0)];
        let _ = WirelessNetwork::euclidean_lazy(pts, PowerModel::linear(), 0);
    }

    #[test]
    #[should_panic(
        expected = "mixed-dimension points: station 1 has 3 coordinates, station 0 has 2"
    )]
    fn mixed_dimensions_refused_by_the_materialised_constructor() {
        let pts = vec![Point::xy(0.0, 0.0), Point::xyz(1.0, 0.0, 0.0)];
        let _ = WirelessNetwork::euclidean(pts, PowerModel::linear(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_source_rejected() {
        let m = CostMatrix::from_fn(2, |_, _| 1.0);
        let _ = WirelessNetwork::symmetric(m, 5);
    }
}
