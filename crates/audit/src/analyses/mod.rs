//! The v2 workspace-level analyses: call-graph reachability checks that
//! no per-file token rule can express.
//!
//! Where the token rules ([`crate::rules`]) look at one token in one
//! file, an [`Analysis`] sees the whole parsed workspace — every
//! function, every call edge — and can therefore answer questions like
//! "is this float `fold` reachable from a thread-pool spawn?" that
//! PR 6's linter was structurally blind to. Each analysis owns one rule
//! name (usable in `wmcs-audit: allow(<rule>): …` pragmas like any token
//! rule) and returns ordinary [`Violation`]s, so diagnostics, pragmas,
//! JSON output and CI annotation are uniform across both layers.
//!
//! The three shipped analyses:
//!
//! * [`parallel_reduction`] — order-sensitive float accumulation
//!   reachable from an undisciplined thread-spawn site
//!   (`parallel-float-reduction`);
//! * [`panic_path`] — the panic surface reachable from the
//!   `MulticastService` ingestion API, gated against a committed
//!   baseline (`panic-path`);
//! * [`forbidden_api`] — banned symbols checked at resolved-path level
//!   so renamed imports cannot dodge them (`forbidden-api`).
//!
//! See the crate docs for the "adding an analysis" walkthrough.

pub mod forbidden_api;
pub mod panic_path;
pub mod parallel_reduction;

use crate::engine::{Violation, Workspace};
use crate::lexer::{Tok, TokKind};

/// One workspace-level analysis.
pub trait Analysis {
    /// The rule name used in diagnostics and `allow(…)` pragmas; its
    /// `--list-rules` summary is the matching `rules::ANALYSIS_RULES` row.
    fn rule(&self) -> &'static str;
    /// Run over the parsed workspace; return raw violations (pragma
    /// application happens in the engine, uniformly with token rules).
    fn run(&self, ws: &Workspace) -> Vec<Violation>;
}

/// The analysis registry, in diagnostic order.
pub static ANALYSES: &[&(dyn Analysis + Sync)] = &[
    &parallel_reduction::ParallelReduction,
    &panic_path::PanicPath,
    &forbidden_api::ForbiddenApi,
];

/// Indices of non-comment tokens within a body token range.
pub(crate) fn code_indices(toks: &[Tok], range: std::ops::Range<usize>) -> Vec<usize> {
    (range.start..range.end.min(toks.len()))
        .filter(|&i| !matches!(toks[i].kind, TokKind::LineComment | TokKind::BlockComment))
        .collect()
}

/// Is token `t` the punctuation `s`?
pub(crate) fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

/// Float evidence on a single token: a float-shaped number literal
/// (`0.0`, `1e3`, `2.5f64`) or the `f64`/`f32` type idents.
pub(crate) fn is_float_token(t: &Tok) -> bool {
    match t.kind {
        TokKind::Number => {
            let s = &t.text;
            if s.starts_with("0x") || s.starts_with("0X") {
                return false;
            }
            // A decimal point, an `f64`/`f32` suffix, or a real exponent
            // (`e`/`E` followed by a digit or sign — NOT the `e` inside
            // integer suffixes like `0usize`).
            s.contains('.')
                || s.ends_with("f64")
                || s.ends_with("f32")
                || s.as_bytes().windows(2).any(|w| {
                    (w[0] == b'e' || w[0] == b'E')
                        && (w[1].is_ascii_digit() || w[1] == b'+' || w[1] == b'-')
                })
        }
        TokKind::Ident => t.text == "f64" || t.text == "f32",
        _ => false,
    }
}

/// Walk back from code-index `ci` to the start of the enclosing
/// statement (`;`, `{` or `}`), returning the code-index just after it.
pub(crate) fn stmt_start(toks: &[Tok], code: &[usize], ci: usize) -> usize {
    let mut j = ci;
    while j > 0 {
        let t = &toks[code[j - 1]];
        if is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}") {
            break;
        }
        j -= 1;
    }
    j
}
