//! Fixture: pragma with no justification — the pragma itself is a violation,
//! and the suppression is void so the underlying violation also fires.
// wmcs-audit: allow(float-tolerance-literal)
pub const TOL: f64 = 1e-9;
