//! Forbidden-API enforcement at resolved-path level.
//!
//! The deprecated substrate constructors were replaced by
//! `SubstrateBuilder` and then deleted, but a text grep cannot keep them
//! out: `use wmcs_wireless::UniversalTree as UT; UT::mst_tree(…)`
//! contains neither banned string. This analysis
//! checks every call site *after* the parser has resolved `use` aliases
//! and `crate::`/`self::`/`super::` prefixes, so a renamed import still
//! matches the registry entry.
//!
//! Each [`Banned`] entry is a `::`-separated path pattern matched as a
//! **suffix** of the resolved call path (`TreeSubstrate::new` matches
//! `wmcs_wireless::substrate::TreeSubstrate::new`). Entries whose final
//! segment is a distinctive-enough method name (no collisions with
//! legitimate workspace idioms — `new` is NOT such a name) additionally
//! match bare method calls (`x.mst_tree()`), catching receivers the
//! parser cannot type.
//!
//! The registry holds the deleted substrate shims (so they can never be
//! reintroduced, under any import spelling) and the unbounded channel
//! constructors (`crossbeam`-style `channel::unbounded`,
//! `std::sync::mpsc::channel`), which would silently void the streaming
//! layer's bounded-admission contract. The std hash collections are not
//! here: `clippy::disallowed_types` bans them by resolved type, aliases
//! included.

use super::Analysis;
use crate::engine::{FileClass, Violation, Workspace};
use crate::rules::FORBIDDEN_API;

/// One banned symbol: a path pattern plus the replacement to name in the
/// diagnostic.
pub struct Banned {
    /// `::`-separated pattern, suffix-matched against resolved call paths.
    pub pattern: &'static str,
    /// Whether a bare `.method()` call on the final segment also fires
    /// (only for names distinctive enough to never collide).
    pub match_method: bool,
    /// What to use instead, quoted verbatim in the diagnostic.
    pub instead: &'static str,
}

/// The banned-symbol registry. Ordered; diagnostics cite entries verbatim.
pub const REGISTRY: &[Banned] = &[
    // Deleted substrate constructor shims. `new` collides with every
    // constructor in the workspace, so those entries are path-only; the
    // tree helpers are distinctive and also match as bare methods.
    Banned {
        pattern: "UniversalTree::new",
        match_method: false,
        instead: "SubstrateBuilder::new(&net).build_universal()",
    },
    Banned {
        pattern: "UniversalTree::shortest_path_tree",
        match_method: true,
        instead: "SubstrateBuilder::new(&net).tree(TreeKind::Spt).build_universal()",
    },
    Banned {
        pattern: "UniversalTree::mst_tree",
        match_method: true,
        instead: "SubstrateBuilder::new(&net).tree(TreeKind::Mst).build_universal()",
    },
    Banned {
        pattern: "TreeSubstrate::new",
        match_method: false,
        instead: "SubstrateBuilder::new(&net).build()",
    },
    Banned {
        pattern: "TreeSubstrate::shortest_path",
        match_method: false, // `shortest_path` is a common graph-API name
        instead: "SubstrateBuilder::new(&net).tree(TreeKind::Spt).build()",
    },
    Banned {
        pattern: "TreeSubstrate::mst",
        match_method: false, // `mst` collides with wmcs_graph free fns
        instead: "SubstrateBuilder::new(&net).tree(TreeKind::Mst).build()",
    },
    // Unbounded channel constructors: the streaming layer's admission
    // contract (PR 9) is that every queue is bounded and saturation is
    // surfaced as a deterministic `Admission::Busy` — an unbounded
    // channel anywhere in a product path silently repeals it. Note the
    // `mpsc::channel` entry does not catch `mpsc::sync_channel` (the
    // bounded constructor stays legal).
    Banned {
        pattern: "channel::unbounded",
        match_method: false,
        instead: "a bounded queue (`channel::bounded` semantics; see wmcs_wireless::stream)",
    },
    Banned {
        pattern: "mpsc::channel",
        match_method: false,
        instead: "std::sync::mpsc::sync_channel (bounded) or the stream layer's queues",
    },
];

/// The `forbidden-api` analysis (see module docs).
pub struct ForbiddenApi;

impl Analysis for ForbiddenApi {
    fn rule(&self) -> &'static str {
        FORBIDDEN_API
    }

    fn run(&self, ws: &Workspace) -> Vec<Violation> {
        let mut violations = Vec::new();
        for file in &ws.files {
            if file.class == FileClass::Test {
                // Tests may exercise adversarial spellings (fixtures do).
                continue;
            }
            for call in &file.calls {
                // `#[cfg(test)]` regions are exempt like the token rules:
                // tests may exercise adversarial spellings deliberately.
                if call.owner.is_some_and(|fi| file.fns[fi].in_cfg_test) {
                    continue;
                }
                for banned in REGISTRY {
                    let pat: Vec<&str> = banned.pattern.split("::").collect();
                    let path_hit = !call.is_method && path_suffix_eq(&call.path, &pat);
                    let method_hit = banned.match_method
                        && call.is_method
                        && pat.last().is_some_and(|last| call.name == *last);
                    if path_hit || method_hit {
                        violations.push(Violation {
                            file: file.rel.clone(),
                            line: call.line,
                            rule: FORBIDDEN_API,
                            message: format!(
                                "forbidden API `{}` (resolved from `{}`); use {} instead",
                                banned.pattern,
                                call.path.join("::"),
                                banned.instead
                            ),
                        });
                        break; // one diagnostic per call site
                    }
                }
            }
        }
        violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        violations
    }
}

/// Does resolved path `path` end with the segments of `pat`?
fn path_suffix_eq(path: &[String], pat: &[&str]) -> bool {
    pat.len() <= path.len() && path.iter().rev().zip(pat.iter().rev()).all(|(a, b)| a == b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffix_matching_ignores_leading_segments() {
        let path: Vec<String> = ["wmcs_wireless", "universal", "UniversalTree", "mst_tree"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(path_suffix_eq(&path, &["UniversalTree", "mst_tree"]));
        assert!(!path_suffix_eq(&path, &["TreeSubstrate", "mst_tree"]));
        assert!(!path_suffix_eq(&path[3..], &["UniversalTree", "mst_tree"]));
    }

    #[test]
    fn registry_entries_are_well_formed() {
        for b in REGISTRY {
            assert!(
                b.pattern.contains("::"),
                "{} lacks a type segment",
                b.pattern
            );
            assert!(!b.instead.is_empty());
            if b.match_method {
                // Method-matched names must be distinctive (long enough to
                // not collide with common idioms).
                let last = b.pattern.rsplit("::").next().unwrap_or_default();
                assert!(
                    last.len() > 4,
                    "`{last}` is too generic for method matching"
                );
            }
        }
    }
}
