//! # wmcs-audit — workspace static analysis for determinism & numeric safety
//!
//! Every guarantee this repository sells — exact budget-balance and
//! voluntary-participation gates, warm ≡ cold byte-identity,
//! thread-count-independent sweep tables — rests on determinism invariants
//! that the compiler does not enforce. PR 3's EPS tie-break drift in
//! `largest_efficient_set` was exactly such a bug: semantically invisible,
//! caught only because a byte-identity gate happened to cover it. This
//! crate enforces the invariant *class* statically, at CI time.
//!
//! Invariants that clippy or rustc can enforce are left to them (see
//! [`rules`]): hashed containers, wall-clock and entropy sources, bare
//! unwraps in library code and `unsafe`. Their exceptions are written
//! once, as `#[expect(<lint>, reason = "…")]`.
//!
//! ## How it works
//!
//! Two layers feed one diagnostic stream:
//!
//! * **Token rules** — a comment- and string-aware token scanner
//!   ([`lexer`]) walks every workspace `.rs` source; the registry
//!   ([`rules::RULES`]) defines two per-file invariants (inline tolerance
//!   literals, lossy `as` casts) applied by the [`engine`] with
//!   build-role classification (library / binary / test) and
//!   `#[cfg(test)]` exemption.
//! * **Workspace analyses** — a lightweight item parser ([`parser`])
//!   extracts every `fn`, call site and `use` alias; a cross-crate call
//!   graph ([`graph`]) joins them; the three [`analyses`] run
//!   reachability over it: `parallel-float-reduction` (order-sensitive
//!   float accumulation below an undisciplined thread-spawn),
//!   `panic-path` (the service API's panic surface, pinned to a committed
//!   baseline), and `forbidden-api` (banned symbols matched on
//!   alias-resolved paths).
//!
//! Both layers honour inline pragmas for vetted exceptions:
//!
//! ```text
//! // wmcs-audit: allow(<rule>): <justification, ≥ 10 chars>
//! ```
//!
//! A pragma covers its own line and the next. A pragma without a real
//! justification, naming an unknown rule, or suppressing nothing is itself
//! a violation (`audit-pragma`), so the exception list can never rot
//! silently.
//!
//! The `wmcs-audit` binary (`cargo run -p wmcs-audit`) exits non-zero on
//! any violation; `--json` emits the machine-readable [`AuditReport`]
//! that CI feeds through a GitHub problem matcher, and `--graph` dumps
//! the call graph for inspection. See DESIGN.md §5 for the rule table.
//!
//! ## Adding an analysis
//!
//! 1. **Name the rule.** Add a `pub const MY_RULE: &str = "my-rule"`
//!    kebab-case constant in [`rules`] and a row in
//!    [`rules::ANALYSIS_RULES`] — that one table entry makes
//!    `--list-rules` print it and `allow(my-rule)` pragmas validate. Add
//!    the matching row to DESIGN.md §5's analysis table; a test fails
//!    until the two agree.
//! 2. **Implement [`analyses::Analysis`]** in a new
//!    `src/analyses/my_rule.rs`: `rule()` returns the constant, `run()`
//!    takes the parsed [`Workspace`] (files, token streams, `fn` items,
//!    call graph) and returns raw [`Violation`]s anchored to `file:line`.
//!    Do not apply pragmas yourself — the engine suppresses and tracks
//!    unused pragmas uniformly for both layers.
//! 3. **Register it** in [`analyses::ANALYSES`]. Order there is
//!    diagnostic order.
//! 4. **Prove it fires.** Add a failing mini-workspace under
//!    `crates/audit/fixtures/` (excluded from the self-audit by
//!    [`classify`]) and a test in `tests/analyses_cli.rs` that runs the
//!    real binary with `--root` against it, asserting exit code 1 and the
//!    `file:line` diagnostic; the workspace self-audit test then proves
//!    it stays quiet on clean code.
//!
//! Analyses should over-approximate: on a reachability question, a
//! spurious edge costs a pragma with a written justification, a missing
//! edge costs a silent determinism bug in a shipped table.

#![deny(missing_docs)]
// Library code states its invariants with `.expect("…")` or propagates
// the error; only test code may unwrap (clippy.toml).
#![deny(clippy::unwrap_used)]

pub mod analyses;
pub mod engine;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;

pub use analyses::{Analysis, ANALYSES};
pub use engine::{
    audit_parsed, audit_workspace, classify, parse_workspace, scan_file, workspace_files,
    AuditReport, FileClass, Violation, Workspace,
};
pub use graph::{CallGraph, FnNode};
pub use parser::{parse_file, CallSite, FnItem, ParsedFile};
pub use rules::{rule_by_name, Rule, ANALYSIS_RULES, RULES};
