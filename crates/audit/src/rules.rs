//! The audit rule registry.
//!
//! Every rule is motivated by a concrete reproducibility invariant this
//! workspace gates in CI (exact budget balance, warm ≡ cold byte-identity,
//! thread-count-independent sweep tables — see DESIGN.md §5). The table
//! here is the single source of truth for the binary's `--list-rules`
//! output and for pragma validation. The rule tables in DESIGN.md §5 are
//! written by hand; `tests/audit_cli.rs` fails when their rows and
//! `--list-rules` name different rules.
//!
//! Invariants that clippy or rustc enforce at least as fully are not
//! rules here: hashed containers (`clippy::disallowed_types`),
//! wall-clock and entropy sources (`clippy::disallowed_methods`), bare
//! unwraps in library code (`clippy::unwrap_used`) and `unsafe`
//! (`unsafe_code`, forbidden workspace-wide). `tests/lint_backing.rs`
//! keeps that configuration in place.

/// One statically enforced invariant.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Rule name, as used in diagnostics and `allow(…)` pragmas.
    pub name: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
}

/// No inline `1e-9`-style epsilon literals: every tolerance is a named,
/// documented constant in `wmcs_geom::float`.
pub const FLOAT_TOLERANCE_LITERAL: &str = "float-tolerance-literal";
/// No `as` narrowing onto small integer types: use `::try_from` (or a
/// pragma proving the range) ahead of the u32 node-id memory diet.
pub const LOSSY_CAST: &str = "lossy-cast";
/// Meta rule: malformed, unjustified, unknown-rule or unused
/// `wmcs-audit:` pragmas are themselves violations.
pub const AUDIT_PRAGMA: &str = "audit-pragma";
/// No order-sensitive float accumulation reachable from an undisciplined
/// thread-spawn site (see `analyses::parallel_reduction`).
pub const PARALLEL_FLOAT_REDUCTION: &str = "parallel-float-reduction";
/// The panic surface of the service ingestion API is pinned to a
/// committed baseline (see `analyses::panic_path`).
pub const PANIC_PATH: &str = "panic-path";
/// Banned symbols, matched on alias-resolved call paths (see
/// `analyses::forbidden_api`).
pub const FORBIDDEN_API: &str = "forbidden-api";

/// The two token rules, in diagnostic order. Both scan library and
/// binary sources outside `#[cfg(test)]` modules (see `FileClass` in
/// the engine).
pub const RULES: &[Rule] = &[
    Rule {
        name: FLOAT_TOLERANCE_LITERAL,
        summary: "no inline 1e-9-style tolerance literals outside wmcs_geom::float; \
                  comparisons go through named, documented constants (EPS, VP_TOL, \
                  BB_TOL, SP_TOL, REL_TOL, FEAS_TOL)",
    },
    Rule {
        name: LOSSY_CAST,
        summary: "no `as` narrowing onto u8/u16/u32/i8/i16/i32; use ::try_from with \
                  an invariant message (the u32 node-id layer routes through the one \
                  documented NodeId::try_from helper)",
    },
];

/// The three workspace-level analysis rules, in diagnostic order. They
/// are applied over the call graph, not by the per-file token scanner;
/// file scoping is each analysis's own business (see `crate::analyses`).
/// The entries here exist so `--list-rules` and pragma validation see
/// one uniform registry.
pub const ANALYSIS_RULES: &[Rule] = &[
    Rule {
        name: PARALLEL_FLOAT_REDUCTION,
        summary: "no order-sensitive float accumulation (fold/sum/reduce, += on float \
                  or lock-guarded state) reachable from a thread-spawn site that does \
                  not place results in per-item OnceLock slots",
    },
    Rule {
        name: PANIC_PATH,
        summary: "the panic surface reachable from the public API of MulticastService, \
                  GroupSession, StreamService and StreamHandle matches \
                  crates/audit/panic_baseline.txt; regenerate with --write-panic-baseline",
    },
    Rule {
        name: FORBIDDEN_API,
        summary: "no calls to banned symbols (removed substrate constructor shims, \
                  unbounded channel constructors), matched on use-alias-resolved paths",
    },
];

/// Look a rule up by pragma name, across both token rules and analyses.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES
        .iter()
        .chain(ANALYSIS_RULES.iter())
        .find(|r| r.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        assert_eq!(RULES.len(), 2);
        assert_eq!(ANALYSIS_RULES.len(), 3);
        assert!(rule_by_name(LOSSY_CAST).is_some());
        assert!(rule_by_name(PANIC_PATH).is_some());
        assert!(rule_by_name(FORBIDDEN_API).is_some());
        assert!(rule_by_name("no-such-rule").is_none());
        // Names are kebab-case and unique across both tables.
        let all: Vec<&Rule> = RULES.iter().chain(ANALYSIS_RULES.iter()).collect();
        for (i, r) in all.iter().enumerate() {
            assert!(r.name.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            assert!(all[i + 1..].iter().all(|s| s.name != r.name));
        }
    }
}
