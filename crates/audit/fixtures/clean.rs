//! Fixture: idiomatic library code — no violations under any rule.
use wmcs_geom::float::EPS;

/// Narrowing goes through `try_from`, with the invariant stated.
pub fn node_id(raw: usize) -> u32 {
    u32::try_from(raw).expect("station ids fit in u32")
}

/// Comparisons read a named tolerance; widening casts are fine.
pub fn nearly(a: f64, b: u32) -> bool {
    (a - b as f64).abs() <= EPS
}
