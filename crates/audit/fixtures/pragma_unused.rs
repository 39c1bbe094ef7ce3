//! Fixture: a justified pragma that suppresses nothing — flagged as unused.

// wmcs-audit: allow(float-tolerance-literal): historical exception that no longer applies here.
pub fn nothing_to_suppress() -> u32 {
    7
}
