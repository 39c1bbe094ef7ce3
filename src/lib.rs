//! # multicast-cost-sharing
//!
//! A complete reproduction of **Bilò, Flammini, Melideo, Moscardelli,
//! Navarra — "Sharing the cost of multicast transmissions in wireless
//! networks"** (SPAA 2004; journal version TCS 369 (2006) 269–284):
//! strategyproof and group-strategyproof cost-sharing mechanisms for
//! multicast in power-based wireless networks, together with every
//! substrate they need (geometry, graph algorithms, LP, cooperative game
//! theory, wireless power assignments, node-weighted Steiner trees).
//!
//! ## Quickstart
//!
//! ```
//! use multicast_cost_sharing::prelude::*;
//!
//! // Five stations in the plane, free-space attenuation, source = 0.
//! let pts = vec![
//!     Point::xy(0.0, 0.0),
//!     Point::xy(1.0, 0.0),
//!     Point::xy(2.0, 0.4),
//!     Point::xy(0.5, 1.5),
//!     Point::xy(2.5, 1.8),
//! ];
//! let net = WirelessNetwork::euclidean(pts, PowerModel::free_space(), 0);
//!
//! // The 12-BB group-strategyproof mechanism of Theorem 3.7.
//! let mech = EuclideanSteinerMechanism::new(&net);
//! let reported = vec![4.0, 3.0, 0.2, 5.0]; // players = stations 1..=4
//! let out = mech.run(&reported);
//! for &p in &out.receivers {
//!     println!("player {p} pays {:.3}", out.shares[p]);
//! }
//! assert!(out.revenue() >= out.served_cost - 1e-9);
//! ```
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md` for
//! the paper-vs-measured record of every figure and theorem-backed claim.

// Library code states its invariants with `.expect("…")` or propagates
// the error; only test code may unwrap (clippy.toml).
#![deny(clippy::unwrap_used)]

pub use wmcs_game as game;
pub use wmcs_geom as geom;
pub use wmcs_graph as graph;
pub use wmcs_lp as lp;
pub use wmcs_mechanisms as mechanisms;
pub use wmcs_nwst as nwst;
pub use wmcs_wireless as wireless;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use wmcs_game::{
        find_group_deviation, find_unilateral_deviation, marginal_cost_mechanism, moulin_shenker,
        shapley_value, CostFunction, ExplicitGame, Mechanism, MechanismOutcome, ShapleyMethod,
    };
    pub use wmcs_geom::{InstanceConfig, InstanceKind, MultiGroupProcess, Point, PowerModel};
    pub use wmcs_graph::{CostMatrix, RootedTree};
    pub use wmcs_mechanisms::{
        fig1_instance, AlphaOneMcMechanism, AlphaOneShapleyMechanism, EuclideanSteinerMechanism,
        LineMcMechanism, LineShapleyMechanism, NwstCostSharingMechanism, PentagonInstance,
        UniversalMcMechanism, UniversalShapleyMechanism, WirelessMulticastMechanism,
    };
    pub use wmcs_nwst::{NodeWeightedGraph, NwstConfig};
    pub use wmcs_wireless::{
        memt_exact, Admission, AlphaOneSolver, ChurnEvent, ChurnProcess, ChurnTrace,
        GroupMechanism, LineSolver, McSession, MulticastService, PowerAssignment, ShapleySession,
        StreamConfig, StreamService, SubstrateBuilder, TreeKind, UniversalTree, WirelessNetwork,
    };
}
