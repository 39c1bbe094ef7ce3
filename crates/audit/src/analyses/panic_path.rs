//! Panic-path reachability: the panic surface of the service ingestion
//! API, gated against a committed baseline.
//!
//! A panic inside `MulticastService::step` tears down a worker and, with
//! it, a whole batch of groups — in the production regime the roadmap
//! aims at, the ingestion path's panic surface is an availability
//! contract. This analysis computes it statically: starting from the
//! public API of the service layer (every `pub fn` of
//! [`ROOT_TYPES`]), it walks the call graph and records, per reachable
//! function, its **panic sites**:
//!
//! * slice/array indexing (`xs[i]`, `xs[a..b]`);
//! * `.expect(…)` and `.unwrap()` calls;
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!` macros;
//! * `assert!` / `assert_eq!` / `assert_ne!` macros (these stay armed in
//!   release builds; `debug_assert*` is deliberately *not* counted — it
//!   is the sanctioned invariant-check mechanism and vanishes from the
//!   release panic surface).
//!
//! Plain integer arithmetic is also a panic source under the workspace's
//! `overflow-checks = true` dev/test profile, but counting every `+`
//! would bury the signal; overflow is enforced *dynamically* by tier-1
//! running all numeric paths with checked arithmetic (see Cargo.toml).
//!
//! The surface is compared entry-by-entry against the committed baseline
//! `crates/audit/panic_baseline.txt` (`function kind count` lines,
//! sorted). A **new or grown** entry fails the audit at the offending
//! site's file:line; a **stale** entry (function shrank its surface or
//! disappeared) fails at the baseline line, so the file can never rot in
//! either direction. `wmcs-audit --write-panic-baseline` regenerates it;
//! the diff of that file in review *is* the panic-surface diff of the PR.

use super::{code_indices, is_punct, Analysis};
use crate::engine::{FileClass, Violation, Workspace};
use crate::lexer::{Tok, TokKind};
use crate::rules::PANIC_PATH;
use std::collections::BTreeMap;

/// Self-types whose `pub fn`s root the reachability walk: the service
/// ingestion API.
pub const ROOT_TYPES: &[&str] = &[
    "MulticastService",
    "GroupSession",
    "StreamService",
    "StreamHandle",
];

/// Workspace-relative path of the committed baseline.
pub const BASELINE_PATH: &str = "crates/audit/panic_baseline.txt";

/// The `panic-path` analysis (see module docs).
pub struct PanicPath;

/// Panic sites of one function: kind → (count, first line).
type Surface = BTreeMap<&'static str, (usize, u32)>;

impl Analysis for PanicPath {
    fn rule(&self) -> &'static str {
        PANIC_PATH
    }

    fn run(&self, ws: &Workspace) -> Vec<Violation> {
        let current = reachable_surface(ws);
        if current.is_empty() && !ws.root.join(BASELINE_PATH).exists() {
            // No service API in this tree and no baseline: nothing to gate
            // (fixture mini-workspaces without a service layer).
            return Vec::new();
        }
        let baseline_src = std::fs::read_to_string(ws.root.join(BASELINE_PATH)).unwrap_or_default();
        let mut baseline: BTreeMap<(String, String), (usize, u32)> = BTreeMap::new();
        for (li, line) in baseline_src.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            if let (Some(f), Some(k), Some(c)) = (parts.next(), parts.next(), parts.next()) {
                if let Ok(c) = c.parse::<usize>() {
                    let lno = u32::try_from(li + 1).unwrap_or(u32::MAX);
                    baseline.insert((f.to_string(), k.to_string()), (c, lno));
                }
            }
        }

        let mut violations = Vec::new();
        for (qual, (file_rel, surface)) in &current {
            for (kind, (count, line)) in surface {
                let base = baseline.remove(&(qual.clone(), kind.to_string()));
                let allowed = base.map_or(0, |(c, _)| c);
                if *count > allowed {
                    violations.push(Violation {
                        file: file_rel.clone(),
                        line: *line,
                        rule: PANIC_PATH,
                        message: format!(
                            "new panic site: `{qual}` now has {count} `{kind}` site(s) \
                             reachable from the service ingestion API (baseline \
                             {allowed}); remove it or regenerate {BASELINE_PATH} \
                             with --write-panic-baseline"
                        ),
                    });
                }
            }
        }
        // Entries left in the baseline are stale (shrunk or gone).
        for ((qual, kind), (count, lno)) in baseline {
            let now = current
                .get(&qual)
                .and_then(|(_, s)| s.get(kind.as_str()))
                .map_or(0, |(c, _)| *c);
            if now < count {
                violations.push(Violation {
                    file: BASELINE_PATH.to_string(),
                    line: lno,
                    rule: PANIC_PATH,
                    message: format!(
                        "stale baseline entry: `{qual}` has {now} `{kind}` site(s) \
                         reachable (baseline {count}); regenerate {BASELINE_PATH} \
                         with --write-panic-baseline"
                    ),
                });
            }
        }
        violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        violations
    }
}

/// Compute the reachable panic surface: qual → (file, kind → count/line).
fn reachable_surface(ws: &Workspace) -> BTreeMap<String, (String, Surface)> {
    let mut roots: Vec<u32> = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if file.class != FileClass::Lib {
            continue;
        }
        for (ii, item) in file.fns.iter().enumerate() {
            let rooted = !item.in_cfg_test
                && item.is_pub
                && item
                    .self_ty
                    .as_deref()
                    .is_some_and(|t| ROOT_TYPES.contains(&t));
            if rooted {
                if let Some(n) = ws.graph.node_of(fi, ii) {
                    roots.push(n);
                }
            }
        }
    }
    let mut out: BTreeMap<String, (String, Surface)> = BTreeMap::new();
    if roots.is_empty() {
        return out;
    }
    let reachable = ws.graph.reachable(&roots);
    for (ni, seen) in reachable.iter().enumerate() {
        if !seen {
            continue;
        }
        let node = &ws.graph.nodes[ni];
        let file = &ws.files[node.file];
        if file.class != FileClass::Lib {
            continue;
        }
        let item = &file.fns[node.item];
        if item.in_cfg_test {
            continue;
        }
        let surface = panic_sites(&file.toks, item.body.clone());
        if !surface.is_empty() {
            out.insert(item.qual.clone(), (file.rel.clone(), surface));
        }
    }
    out
}

/// Serialize the current reachable surface as the baseline file body.
pub fn render_baseline(ws: &Workspace) -> String {
    let mut lines = vec![
        "# Panic surface reachable from the MulticastService/GroupSession public API.".to_string(),
        "# Generated by `wmcs-audit --write-panic-baseline`; reviewed, not hand-edited."
            .to_string(),
        "# One line per (function, kind): `qualified_fn kind count`.".to_string(),
    ];
    for (qual, (_, surface)) in reachable_surface(ws) {
        for (kind, (count, _)) in surface {
            lines.push(format!("{qual} {kind} {count}"));
        }
    }
    lines.push(String::new());
    lines.join("\n")
}

/// Scan a body token range for panic sites.
fn panic_sites(toks: &[Tok], body: std::ops::Range<usize>) -> Surface {
    let code = code_indices(toks, body);
    let mut out = Surface::new();
    let mut add = |kind: &'static str, line: u32| {
        let e = out.entry(kind).or_insert((0, line));
        e.0 += 1;
    };
    for ci in 0..code.len() {
        let t = &toks[code[ci]];
        match t.kind {
            TokKind::Ident => {
                let after_dot = ci > 0 && is_punct(&toks[code[ci - 1]], ".");
                let called = code.get(ci + 1).is_some_and(|&i| is_punct(&toks[i], "("));
                let banged = code.get(ci + 1).is_some_and(|&i| is_punct(&toks[i], "!"));
                match t.text.as_str() {
                    "expect" if after_dot && called => add("expect", t.line),
                    "unwrap" if after_dot && called => add("unwrap", t.line),
                    "panic" | "unreachable" | "todo" | "unimplemented" if banged => {
                        add("panic-macro", t.line)
                    }
                    "assert" | "assert_eq" | "assert_ne" if banged => add("assert-macro", t.line),
                    _ => {}
                }
            }
            TokKind::Punct if t.text == "[" && ci > 0 => {
                let prev = &toks[code[ci - 1]];
                // Indexing: `xs[…]`, `f()[…]`, `xs[i][j]` — but not
                // attributes (`#[…]`), array types/literals (`[u8; 4]`)
                // or `vec![…]` (prev `!`).
                if prev.kind == TokKind::Ident && !is_type_like(&prev.text)
                    || is_punct(prev, ")")
                    || is_punct(prev, "]")
                {
                    add("index", t.line);
                }
            }
            _ => {}
        }
    }
    out
}

/// Idents that precede `[` without meaning indexing (type positions).
fn is_type_like(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && matches!(s, "Box" | "Vec" | "Option" | "Some" | "None" | "Ok" | "Err")
        || matches!(s, "dyn" | "mut" | "in" | "as" | "return" | "else")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn surface(src: &str) -> Vec<(String, usize)> {
        let toks = lex(src);
        let n = toks.len();
        panic_sites(&toks, 0..n)
            .into_iter()
            .map(|(k, (c, _))| (k.to_string(), c))
            .collect()
    }

    #[test]
    fn all_kinds_are_counted() {
        let s = surface(
            "fn f(xs: &[u32], i: usize) -> u32 {
                assert!(i > 0);
                let a = xs[i] + xs[i - 1];
                let b = xs.first().expect(\"non-empty\");
                if a > 10 { panic!(\"too big\") }
                *b
            }",
        );
        assert!(s.contains(&("index".into(), 2)), "{s:?}");
        assert!(s.contains(&("expect".into(), 1)), "{s:?}");
        assert!(s.contains(&("panic-macro".into(), 1)), "{s:?}");
        assert!(s.contains(&("assert-macro".into(), 1)), "{s:?}");
    }

    #[test]
    fn non_panicking_brackets_are_not_indexing() {
        assert!(surface("let v: Vec<[u8; 4]> = vec![]; #[inline] fn g() {}").is_empty());
        assert!(surface("let x: [f64; 2] = [0.0, 1.0];").is_empty());
        // Slicing an expression IS indexing (can panic).
        assert_eq!(surface("let s = &xs[1..];"), [("index".to_string(), 1)]);
    }

    #[test]
    fn debug_asserts_are_exempt() {
        assert!(surface("debug_assert!(x > 0); debug_assert_eq!(a, b);").is_empty());
    }
}
