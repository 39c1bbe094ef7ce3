//! Parallel-reduction determinism: no order-sensitive float accumulation
//! reachable from an undisciplined thread-spawn site.
//!
//! The MulticastService byte-identity contract (T11–T13) requires every
//! mechanism output to be identical across thread counts. The one
//! sanctioned way to combine parallel work is the **slot pattern**: each
//! work item's result is placed into a per-item `OnceLock` slot by index,
//! and the single-threaded fold over the slots happens after the pool
//! joins — scheduling order can then never reach a float. This analysis
//! statically enforces that shape:
//!
//! * a **spawn site** is any function that calls `.spawn(…)` (crossbeam
//!   scope or `std::thread`);
//! * a spawn site is **slot-disciplined** if its body uses `OnceLock`
//!   and places results with `.set(…)`;
//! * from every spawn site that is *not* slot-disciplined, every
//!   function reachable in the call graph is scanned for order-sensitive
//!   float accumulation: float-seeded `.fold(…)`, float-typed `.sum()` /
//!   `.product()` / `.reduce(…)`, and `+=` onto a float local or through
//!   a `lock()`-guarded target (the Mutex-accumulator anti-pattern).
//!
//! Accumulation *below a slot-disciplined spawn* is deliberately exempt:
//! each worker applies its item's events sequentially, so its internal
//! float arithmetic is order-deterministic; the dynamic byte-identity
//! gates (T12) pin exactly that. What they cannot pin is a *new* spawn
//! site someone adds without slot placement — which is exactly what this
//! rule catches, two calls deep or twenty.

use super::{code_indices, is_float_token, is_punct, stmt_start, Analysis};
use crate::engine::{FileClass, Violation, Workspace};
use crate::lexer::{Tok, TokKind};
use crate::rules::PARALLEL_FLOAT_REDUCTION;
use std::collections::BTreeSet;

/// The `parallel-float-reduction` analysis (see module docs).
pub struct ParallelReduction;

impl Analysis for ParallelReduction {
    fn rule(&self) -> &'static str {
        PARALLEL_FLOAT_REDUCTION
    }

    fn run(&self, ws: &Workspace) -> Vec<Violation> {
        let mut violations = Vec::new();
        let mut flagged: BTreeSet<(usize, u32)> = BTreeSet::new();
        // Spawn sites in result-affecting files, in deterministic order.
        for (fi, file) in ws.files.iter().enumerate() {
            if file.class == FileClass::Test {
                continue;
            }
            for (ii, item) in file.fns.iter().enumerate() {
                if item.in_cfg_test {
                    continue;
                }
                if !is_spawn_site(file, ii) || is_slot_disciplined(file, ii) {
                    continue;
                }
                let Some(root) = ws.graph.node_of(fi, ii) else {
                    continue;
                };
                let reachable = ws.graph.reachable(&[root]);
                for (ni, seen) in reachable.iter().enumerate() {
                    if !seen {
                        continue;
                    }
                    let node = &ws.graph.nodes[ni];
                    let nfile = &ws.files[node.file];
                    if nfile.class == FileClass::Test {
                        continue;
                    }
                    let nfn = &nfile.fns[node.item];
                    if nfn.in_cfg_test {
                        continue;
                    }
                    for site in accumulation_sites(&nfile.toks, nfn.body.clone()) {
                        if !flagged.insert((node.file, site.line)) {
                            continue;
                        }
                        violations.push(Violation {
                            file: nfile.rel.clone(),
                            line: site.line,
                            rule: PARALLEL_FLOAT_REDUCTION,
                            message: format!(
                                "order-sensitive float accumulation ({}) in `{}`, reachable \
                                 from thread-spawn site `{}` ({}:{}) which does not place \
                                 results in per-item OnceLock slots; use the slot pattern \
                                 or add a justified pragma",
                                site.kind, nfn.qual, item.qual, file.rel, item.line
                            ),
                        });
                    }
                }
            }
        }
        violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        violations
    }
}

/// Does function `ii` of `file` call `.spawn(…)` / `thread::spawn(…)`?
fn is_spawn_site(file: &crate::parser::ParsedFile, ii: usize) -> bool {
    file.calls.iter().any(|c| {
        c.owner == Some(ii)
            && c.name == "spawn"
            && (c.is_method || c.path.last().is_some_and(|s| s == "spawn"))
    })
}

/// Does the spawn site's body follow the slot pattern (`OnceLock` state
/// plus `.set(…)` placement)?
fn is_slot_disciplined(file: &crate::parser::ParsedFile, ii: usize) -> bool {
    let body = file.fns[ii].body.clone();
    let toks = &file.toks[body.start..body.end.min(file.toks.len())];
    let has_oncelock = toks
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == "OnceLock");
    let has_set = file
        .calls
        .iter()
        .any(|c| c.owner == Some(ii) && c.is_method && c.name == "set");
    has_oncelock && has_set
}

/// One detected accumulation site.
struct Site {
    line: u32,
    kind: &'static str,
}

/// Scan a body token range for order-sensitive float accumulation.
fn accumulation_sites(toks: &[Tok], body: std::ops::Range<usize>) -> Vec<Site> {
    let code = code_indices(toks, body);
    let mut sites = Vec::new();
    // Pass 1: float-typed locals (`let [mut] x` with float evidence in
    // the same statement).
    let mut float_vars: BTreeSet<&str> = BTreeSet::new();
    let mut ci = 0usize;
    while ci < code.len() {
        let t = &toks[code[ci]];
        if t.kind == TokKind::Ident && t.text == "let" {
            let mut j = ci + 1;
            if toks
                .get(code.get(j).copied().unwrap_or(usize::MAX))
                .is_some_and(|t| t.text == "mut")
            {
                j += 1;
            }
            let name = code
                .get(j)
                .map(|&i| &toks[i])
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.as_str());
            // Scan the statement for float evidence.
            let mut k = j;
            let mut float = false;
            while k < code.len() && !is_punct(&toks[code[k]], ";") {
                float |= is_float_token(&toks[code[k]]);
                k += 1;
            }
            if let (Some(name), true) = (name, float) {
                float_vars.insert(name);
            }
            ci = k;
            continue;
        }
        ci += 1;
    }
    // Pass 2: accumulation sites.
    for ci in 0..code.len() {
        let t = &toks[code[ci]];
        // `.fold(…)` / `.sum()` / `.product()` / `.reduce(…)`.
        if t.kind == TokKind::Ident
            && ci > 0
            && is_punct(&toks[code[ci - 1]], ".")
            && matches!(t.text.as_str(), "fold" | "sum" | "product" | "reduce")
        {
            if float_reduction_evidence(toks, &code, ci) {
                sites.push(Site {
                    line: t.line,
                    kind: match t.text.as_str() {
                        "fold" => "float `.fold(…)`",
                        "sum" => "float `.sum()`",
                        "product" => "float `.product()`",
                        _ => "float `.reduce(…)`",
                    },
                });
            }
            continue;
        }
        // `+=`: two adjacent puncts.
        if is_punct(t, "+")
            && code
                .get(ci + 1)
                .is_some_and(|&i| is_punct(&toks[i], "=") && i == code[ci] + 1)
        {
            let start = stmt_start(toks, &code, ci);
            let stmt = &code[start..];
            let stmt_end = stmt
                .iter()
                .position(|&i| is_punct(&toks[i], ";"))
                .map_or(stmt.len(), |p| p + 1);
            let stmt = &stmt[..stmt_end];
            let target_is_float = code
                .get(ci.wrapping_sub(1))
                .map(|&i| &toks[i])
                .is_some_and(|t| t.kind == TokKind::Ident && float_vars.contains(t.text.as_str()));
            let through_lock = stmt
                .iter()
                .take_while(|&&i| i < code[ci])
                .any(|&i| toks[i].kind == TokKind::Ident && toks[i].text == "lock");
            let float_rhs = stmt
                .iter()
                .skip_while(|&&i| i <= code[ci] + 1)
                .any(|&i| is_float_token(&toks[i]));
            if target_is_float || through_lock || float_rhs {
                sites.push(Site {
                    line: t.line,
                    kind: if through_lock {
                        "`+=` through a lock() guard"
                    } else {
                        "`+=` on float state"
                    },
                });
            }
        }
    }
    sites
}

/// Float evidence for a reduction method at code index `ci`: a float
/// first argument (`fold(0.0, …)`), an `::<f64>` turbofish, or float
/// typing elsewhere in the enclosing statement
/// (`let s: f64 = xs.iter().sum();`).
fn float_reduction_evidence(toks: &[Tok], code: &[usize], ci: usize) -> bool {
    // Turbofish / argument scan forward to the opening paren + 2 tokens.
    let mut j = ci + 1;
    let mut angle = 0i32;
    while j < code.len() {
        let t = &toks[code[j]];
        if is_punct(t, "<") {
            angle += 1;
        } else if is_punct(t, ">") {
            angle -= 1;
        } else if angle > 0 && is_float_token(t) {
            return true; // ::<f64>
        } else if is_punct(t, "(") {
            // First-argument evidence: `fold(0.0, …)`, `fold(f64::…, …)`.
            return code
                .get(j + 1)
                .map(|&i| &toks[i])
                .is_some_and(is_float_token)
                || stmt_has_float(toks, code, ci);
        }
        j += 1;
    }
    false
}

/// Does the statement enclosing code index `ci` carry float evidence
/// anywhere before the reduction call (type ascription, float literal)?
fn stmt_has_float(toks: &[Tok], code: &[usize], ci: usize) -> bool {
    let start = stmt_start(toks, code, ci);
    code[start..ci].iter().any(|&i| is_float_token(&toks[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn sites(src: &str) -> Vec<&'static str> {
        let toks = lex(src);
        let n = toks.len();
        accumulation_sites(&toks, 0..n)
            .into_iter()
            .map(|s| s.kind)
            .collect()
    }

    #[test]
    fn float_folds_and_sums_are_detected() {
        assert_eq!(
            sites("xs.iter().fold(0.0, |a, b| a + b)"),
            ["float `.fold(…)`"]
        );
        assert_eq!(sites("let s: f64 = xs.iter().sum();"), ["float `.sum()`"]);
        assert_eq!(sites("xs.iter().sum::<f64>()"), ["float `.sum()`"]);
        assert_eq!(
            sites("let t: f64 = v.into_iter().reduce(g).unwrap_or(0.0);"),
            ["float `.reduce(…)`"]
        );
    }

    #[test]
    fn integer_reductions_are_not() {
        assert!(sites("xs.iter().sum::<usize>()").is_empty());
        assert!(sites("xs.iter().fold(0usize, |a, b| a + b)").is_empty());
        assert!(sites("let n: usize = v.len(); xs.iter().count()").is_empty());
    }

    #[test]
    fn float_plus_eq_and_lock_accumulators_are_detected() {
        assert_eq!(
            sites("let mut acc = 0.0; for v in xs { acc += v; }"),
            ["`+=` on float state"]
        );
        assert_eq!(
            sites("*total.lock().expect(\"ok\") += partial;"),
            ["`+=` through a lock() guard"]
        );
        assert_eq!(sites("share[v] += 0.5;"), ["`+=` on float state"]);
    }

    #[test]
    fn integer_plus_eq_is_not() {
        assert!(sites("let mut n = 0usize; n += 1;").is_empty());
        assert!(sites("cursor += 1;").is_empty());
    }
}
