//! Fixture: justified pragmas suppressing real violations — clean.

// wmcs-audit: allow(float-tolerance-literal): the paper's pinned constant, not a tolerance.
pub const PAPER_ALPHA_STEP: f64 = 1e-3;

pub fn scaled(x: f64) -> f64 {
    // wmcs-audit: allow(float-tolerance-literal): unit conversion (mW → W), not a tolerance.
    x * 1e-3
}
