//! File classification, pragma handling, rule application, the workspace
//! walk, and the v2 parsed-workspace pipeline.
//!
//! Two layers feed one diagnostic stream:
//!
//! 1. **Token rules** ([`crate::rules::RULES`]) — per-file, applied by
//!    [`scan_file`] / `scan_tokens`;
//! 2. **Workspace analyses** ([`crate::analyses`]) — run over a
//!    [`Workspace`] (every file parsed by [`crate::parser`], joined by
//!    the [`crate::graph`] call graph).
//!
//! Both layers' violations flow through the same pragma machinery: a
//! `// wmcs-audit: allow(<rule>): <justification>` comment suppresses a
//! violation of that rule on its own or the next line, whichever layer
//! produced it, and an unused pragma is itself a violation. The merged,
//! sorted result is packaged as an [`AuditReport`] with graph statistics
//! and a hand-rolled JSON serialization (this crate stays
//! dependency-free) for CI consumption.

use crate::analyses::ANALYSES;
use crate::graph::CallGraph;
use crate::lexer::{has_negative_exponent, lex, Tok, TokKind};
use crate::parser::{parse_file, ParsedFile};
use crate::rules::{rule_by_name, AUDIT_PRAGMA, FLOAT_TOLERANCE_LITERAL, LOSSY_CAST};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// How a source file participates in the build, which decides the rule set
/// applied to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source: `crates/*/src/**` (minus `src/bin`) and the root
    /// facade `src/`. Result-affecting; every rule applies.
    Lib,
    /// Binary source: `src/bin/**` and `src/main.rs`. The token rules
    /// apply (bins emit the committed baselines); the panic surface is
    /// not pinned.
    Bin,
    /// Tests, benches and examples. Parsed into the call graph; no token
    /// rule or analysis reports in them.
    Test,
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (see the registry in `rules`).
    pub rule: &'static str,
    /// Human-readable diagnostic.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The whole workspace in parsed form: every auditable file with its
/// token stream and items, joined by the cross-crate call graph. This is
/// what a [`crate::analyses::Analysis`] runs over.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute workspace root (analyses may read committed baselines
    /// relative to it).
    pub root: PathBuf,
    /// Parsed files, in sorted path order.
    pub files: Vec<ParsedFile>,
    /// The call graph over `files` (node `(file, item)` indices point
    /// into it).
    pub graph: CallGraph,
}

/// The result of a full workspace audit.
#[derive(Debug)]
pub struct AuditReport {
    /// All violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of `fn` items parsed (call-graph nodes).
    pub functions: usize,
    /// Number of call-graph edges (after dedup).
    pub call_edges: usize,
}

impl AuditReport {
    /// Machine-readable form, consumed by the CI problem matcher. Schema:
    ///
    /// ```json
    /// {"schema":"wmcs-audit/v2","files_scanned":N,"functions":N,
    ///  "call_edges":N,"violations":[{"file":"…","line":N,"rule":"…",
    ///  "message":"…"}]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"wmcs-audit/v2\"");
        out.push_str(&format!(
            ",\"files_scanned\":{},\"functions\":{},\"call_edges\":{}",
            self.files_scanned, self.functions, self.call_edges
        ));
        out.push_str(",\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                json_escape(&v.file),
                v.line,
                v.rule,
                json_escape(&v.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

/// Classify a workspace-relative path, or `None` if it is outside the audit
/// surface (vendored shims, build artifacts, the audit's own fixtures).
pub fn classify(rel: &Path) -> Option<FileClass> {
    let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    if rel.extension().and_then(|e| e.to_str()) != Some("rs") {
        return None;
    }
    // Vendored shims are third-party API surface, audited upstream of
    // this workspace's invariants; target/ is build output.
    if let Some(&"vendor" | &"target" | &".git") = parts.first() {
        return None;
    }
    // The audit's own rule fixtures intentionally violate every rule.
    if parts.starts_with(&["crates", "audit", "fixtures"]) {
        return None;
    }
    if parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples"))
    {
        return Some(FileClass::Test);
    }
    if parts.contains(&"src") {
        if parts.contains(&"bin") || parts.last() == Some(&"main.rs") {
            return Some(FileClass::Bin);
        }
        return Some(FileClass::Lib);
    }
    None
}

/// A parsed `// wmcs-audit: allow(<rule>): <justification>` pragma.
#[derive(Debug, Clone)]
struct Suppression {
    rule: &'static str,
    /// Line of the pragma comment; it covers this line and the next.
    line: u32,
    used: bool,
}

/// Minimum justification length: long enough to force an actual reason,
/// not a placeholder like "ok".
const MIN_JUSTIFICATION: usize = 10;

/// The one place a pragma may name a rule that no longer exists:
/// `perfbench/` changes only together with the benchmark it defines, and
/// its three `allow(nondeterminism-source)` pragmas outlive that rule,
/// which `clippy::disallowed_methods` now enforces. They are skipped
/// there, and only there, until the next benchmark change deletes them.
const BENCHMARK_LEFTOVER: (&str, &str) = ("perfbench/", "nondeterminism-source");

/// Scan one file's source text under the given class, token rules only.
/// `rel` is the workspace-relative path used in diagnostics and per-file
/// exceptions. The workspace analyses need the whole parsed workspace and
/// run in [`audit_workspace`]; this entry point stays for single-file use
/// (`wmcs-audit --class lib FILE`).
pub fn scan_file(rel: &str, src: &str, class: FileClass) -> Vec<Violation> {
    let toks = lex(src);
    let mut violations: Vec<Violation> = Vec::new();
    let mut suppressions = collect_pragmas(rel, &toks, &mut violations);
    let raw = scan_tokens(rel, &toks, class);
    apply_suppressions(raw, &mut suppressions, &mut violations);
    flush_unused_pragmas(rel, &suppressions, &mut violations);
    violations.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    violations
}

/// Apply the token rules to a lexed file; raw violations, no pragma
/// handling. Test-class files and `#[cfg(test)]` modules are exempt.
fn scan_tokens(rel: &str, toks: &[Tok], class: FileClass) -> Vec<Violation> {
    if class == FileClass::Test {
        return Vec::new();
    }
    let in_test = test_region_mask(toks);

    // The float-tolerance home is allowed to define the constants.
    let is_float_home = rel == "crates/geom/src/float.rs";

    // Indices of non-comment tokens, for neighbour lookups.
    let code_idx: Vec<usize> = (0..toks.len())
        .filter(|&i| !matches!(toks[i].kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut raw: Vec<Violation> = Vec::new();
    for (ci, &i) in code_idx.iter().enumerate() {
        let t = &toks[i];
        if in_test[i] {
            continue;
        }
        match t.kind {
            TokKind::Ident if t.text == "as" => {
                if let Some(&next) = code_idx.get(ci + 1) {
                    let target = toks[next].text.as_str();
                    if toks[next].kind == TokKind::Ident
                        && matches!(target, "u8" | "u16" | "u32" | "i8" | "i16" | "i32")
                    {
                        raw.push(violation(
                            rel,
                            toks[next].line,
                            LOSSY_CAST,
                            format!(
                                "`as {target}` silently truncates; use \
                                 `{target}::try_from(…)` with an invariant message"
                            ),
                        ));
                    }
                }
            }
            TokKind::Number if !is_float_home && has_negative_exponent(&t.text) => {
                raw.push(violation(
                    rel,
                    t.line,
                    FLOAT_TOLERANCE_LITERAL,
                    format!(
                        "inline tolerance literal `{}`: use a named constant from \
                         wmcs_geom::float (EPS, VP_TOL, BB_TOL, SP_TOL, REL_TOL, …)",
                        t.text
                    ),
                ));
            }
            _ => {}
        }
    }
    raw
}

/// Apply suppressions: a pragma on line L covers violations on L and L+1.
fn apply_suppressions(
    raw: Vec<Violation>,
    suppressions: &mut [Suppression],
    out: &mut Vec<Violation>,
) {
    for v in raw {
        let suppressed = suppressions
            .iter_mut()
            .find(|s| s.rule == v.rule && (s.line == v.line || s.line + 1 == v.line));
        match suppressed {
            Some(s) => s.used = true,
            None => out.push(v),
        }
    }
}

/// Unused pragmas are themselves violations, so the exception list can
/// never rot silently.
fn flush_unused_pragmas(rel: &str, suppressions: &[Suppression], out: &mut Vec<Violation>) {
    for s in suppressions {
        if !s.used {
            out.push(violation(
                rel,
                s.line,
                AUDIT_PRAGMA,
                format!(
                    "pragma `allow({})` suppresses nothing on this or the next \
                     line; remove it",
                    s.rule
                ),
            ));
        }
    }
}

/// Parse `wmcs-audit:` pragmas out of the comment tokens. Malformed,
/// unknown-rule or unjustified pragmas are pushed as violations directly.
fn collect_pragmas(rel: &str, toks: &[Tok], violations: &mut Vec<Violation>) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("wmcs-audit:") else {
            continue;
        };
        let rest = rest.trim();
        let parsed = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split_once(')'))
            .map(|(name, just)| (name.trim(), just));
        let Some((name, justification)) = parsed else {
            violations.push(violation(
                rel,
                t.line,
                AUDIT_PRAGMA,
                format!(
                    "malformed pragma `{rest}`: expected \
                     `wmcs-audit: allow(<rule>): <justification>`"
                ),
            ));
            continue;
        };
        let Some(rule) = rule_by_name(name) else {
            let (dir, retired) = BENCHMARK_LEFTOVER;
            if !(rel.starts_with(dir) && name == retired) {
                violations.push(violation(
                    rel,
                    t.line,
                    AUDIT_PRAGMA,
                    format!("unknown rule `{name}` in allow(…) pragma"),
                ));
            }
            continue;
        };
        let justification = justification
            .trim_start_matches([':', '-', '—', ' '])
            .trim();
        if justification.len() < MIN_JUSTIFICATION {
            violations.push(violation(
                rel,
                t.line,
                AUDIT_PRAGMA,
                format!(
                    "pragma `allow({name})` lacks a justification: every vetted \
                     exception must say why it is safe"
                ),
            ));
            continue;
        }
        out.push(Suppression {
            rule: rule.name,
            line: t.line,
            used: false,
        });
    }
    out
}

/// Per-token flag: inside a `#[cfg(test)] mod … { … }` region.
pub(crate) fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let code = |t: &Tok| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment);
    let mut pending_cfg_test = false;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if !code(t) {
            i += 1;
            continue;
        }
        // Attribute: scan `#[…]`, noting whether it is cfg(test)-like.
        if is_punct(t, "#") {
            let mut j = i + 1;
            while j < toks.len() && !code(&toks[j]) {
                j += 1;
            }
            if j < toks.len() && is_punct(&toks[j], "[") {
                let mut depth = 0usize;
                let mut has_cfg = false;
                let mut has_test = false;
                while j < toks.len() {
                    let a = &toks[j];
                    if is_punct(a, "[") {
                        depth += 1;
                    } else if is_punct(a, "]") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if a.kind == TokKind::Ident {
                        has_cfg |= a.text == "cfg";
                        has_test |= a.text == "test";
                    }
                    j += 1;
                }
                if has_cfg && has_test {
                    pending_cfg_test = true;
                }
                i = j + 1;
                continue;
            }
        }
        if pending_cfg_test && t.kind == TokKind::Ident && t.text == "mod" {
            // Find the module body and mark it wholesale.
            let mut j = i + 1;
            while j < toks.len() && !is_punct(&toks[j], "{") && !is_punct(&toks[j], ";") {
                j += 1;
            }
            if j < toks.len() && is_punct(&toks[j], "{") {
                let mut depth = 0usize;
                let start = j;
                while j < toks.len() {
                    if is_punct(&toks[j], "{") {
                        depth += 1;
                    } else if is_punct(&toks[j], "}") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                for m in mask.iter_mut().take(j.min(toks.len() - 1) + 1).skip(start) {
                    *m = true;
                }
                i = j + 1;
            } else {
                i = j + 1;
            }
            pending_cfg_test = false;
            continue;
        }
        // Any other code token consumes a pending cfg(test) attribute
        // (e.g. `#[cfg(test)] use …`): the region heuristic only tracks
        // whole test modules, which is the convention in this workspace.
        if pending_cfg_test {
            pending_cfg_test = false;
        }
        i += 1;
    }
    mask
}

fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn violation(rel: &str, line: u32, rule: &'static str, message: String) -> Violation {
    Violation {
        file: rel.to_string(),
        line,
        rule,
        message,
    }
}

/// Collect every auditable `.rs` file under the workspace root, sorted for
/// deterministic output.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            if path.is_dir() {
                let first = rel.iter().next().and_then(|c| c.to_str());
                if matches!(first, Some("vendor" | "target" | ".git" | ".github")) {
                    continue;
                }
                stack.push(path);
            } else if classify(&rel).is_some() {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Read a crate name from a `Cargo.toml`, falling back to `fallback`,
/// normalised to identifier form (hyphens → underscores). Cached per
/// manifest path.
fn crate_name(
    root: &Path,
    manifest_rel: &Path,
    fallback: &str,
    cache: &mut BTreeMap<PathBuf, String>,
) -> String {
    if let Some(n) = cache.get(manifest_rel) {
        return n.clone();
    }
    let name = std::fs::read_to_string(root.join(manifest_rel))
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.trim()
                    .strip_prefix("name")
                    .map(str::trim_start)
                    .and_then(|r| r.strip_prefix('='))
                    .map(str::trim)
                    .and_then(|v| v.strip_prefix('"'))
                    .and_then(|v| v.split('"').next())
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| fallback.to_string())
        .replace('-', "_");
    cache.insert(manifest_rel.to_path_buf(), name.clone());
    name
}

/// Derive a file's module path (crate name first) from its workspace-
/// relative location: `crates/wireless/src/service.rs` →
/// `["wmcs_wireless", "service"]`, with `lib`/`main`/`mod` stems dropped
/// so `crate::`-relative call paths line up with qualified item paths.
fn module_path(root: &Path, rel: &Path, cache: &mut BTreeMap<PathBuf, String>) -> Vec<String> {
    let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    let (manifest, fallback, rest): (PathBuf, &str, &[&str]) =
        if parts.len() > 2 && parts[0] == "crates" {
            (
                Path::new("crates").join(parts[1]).join("Cargo.toml"),
                parts[1],
                &parts[2..],
            )
        } else {
            (PathBuf::from("Cargo.toml"), "workspace", &parts[..])
        };
    let mut out = vec![crate_name(root, &manifest, fallback, cache)];
    for (i, p) in rest.iter().enumerate() {
        let last = i + 1 == rest.len();
        if !last && *p == "src" {
            continue;
        }
        let seg = if last { p.trim_end_matches(".rs") } else { p };
        if last && matches!(seg, "lib" | "main" | "mod") {
            continue;
        }
        out.push(seg.to_string());
    }
    out
}

/// Parse every auditable file under `root` and build the call graph.
pub fn parse_workspace(root: &Path) -> std::io::Result<Workspace> {
    let files = workspace_files(root)?;
    let mut parsed: Vec<ParsedFile> = Vec::new();
    let mut cache: BTreeMap<PathBuf, String> = BTreeMap::new();
    for rel in &files {
        let class = classify(rel).expect("workspace_files only returns classified files");
        let src = std::fs::read_to_string(root.join(rel))?;
        let rel_str = rel
            .to_str()
            .expect("workspace paths are valid UTF-8")
            .replace('\\', "/");
        let module = module_path(root, rel, &mut cache);
        parsed.push(parse_file(&rel_str, lex(&src), module, class));
    }
    let graph = CallGraph::build(&parsed);
    Ok(Workspace {
        root: root.to_path_buf(),
        files: parsed,
        graph,
    })
}

/// Audit the whole workspace rooted at `root`: token rules on every file
/// plus the workspace analyses over the call graph, with uniform pragma
/// handling.
pub fn audit_workspace(root: &Path) -> std::io::Result<AuditReport> {
    let ws = parse_workspace(root)?;
    Ok(audit_parsed(&ws))
}

/// Run the full audit over an already-parsed workspace.
pub fn audit_parsed(ws: &Workspace) -> AuditReport {
    // Analysis violations, grouped per file so the owning file's pragmas
    // can suppress them. Violations against non-source files (e.g. the
    // committed panic baseline) pass through unsuppressed.
    let mut by_file: BTreeMap<String, Vec<Violation>> = BTreeMap::new();
    let mut passthrough: Vec<Violation> = Vec::new();
    for analysis in ANALYSES {
        for v in analysis.run(ws) {
            if ws.files.iter().any(|f| f.rel == v.file) {
                by_file.entry(v.file.clone()).or_default().push(v);
            } else {
                passthrough.push(v);
            }
        }
    }
    let mut violations: Vec<Violation> = Vec::new();
    for file in &ws.files {
        let mut out: Vec<Violation> = Vec::new();
        let mut suppressions = collect_pragmas(&file.rel, &file.toks, &mut out);
        let mut raw = scan_tokens(&file.rel, &file.toks, file.class);
        raw.extend(by_file.remove(&file.rel).unwrap_or_default());
        apply_suppressions(raw, &mut suppressions, &mut out);
        flush_unused_pragmas(&file.rel, &suppressions, &mut out);
        violations.extend(out);
    }
    violations.extend(passthrough);
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    AuditReport {
        violations,
        files_scanned: ws.files.len(),
        functions: ws.graph.nodes.len(),
        call_edges: ws.graph.n_edges(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn classification_matches_build_roles() {
        let c = |p: &str| classify(Path::new(p));
        assert_eq!(c("crates/game/src/cost.rs"), Some(FileClass::Lib));
        assert_eq!(c("src/lib.rs"), Some(FileClass::Lib));
        assert_eq!(
            c("crates/bench/src/bin/all_experiments.rs"),
            Some(FileClass::Bin)
        );
        assert_eq!(c("crates/audit/src/main.rs"), Some(FileClass::Bin));
        assert_eq!(
            c("crates/wireless/tests/session_props.rs"),
            Some(FileClass::Test)
        );
        assert_eq!(
            c("crates/bench/benches/drop_engine.rs"),
            Some(FileClass::Test)
        );
        assert_eq!(c("examples/quickstart.rs"), Some(FileClass::Test));
        assert_eq!(c("vendor/rand/src/lib.rs"), None);
        assert_eq!(c("crates/audit/fixtures/clean.rs"), None);
        assert_eq!(c("README.md"), None);
    }

    #[test]
    fn cfg_test_regions_are_exempt_from_scoped_rules() {
        let src = "
fn lib_code() -> usize { 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x = 1e-9;
        let _ = (x, 7usize as u32);
    }
}
";
        let vs = scan_file("crates/x/src/lib.rs", src, FileClass::Lib);
        assert!(vs.is_empty(), "test-module code must be exempt: {vs:?}");
    }

    #[test]
    fn lib_code_before_and_after_test_mod_is_still_scanned() {
        let src = "
fn before(x: usize) -> u32 { x as u32 }
#[cfg(test)]
mod tests {}
fn after() { let _ = 1e-9; }
";
        let vs = scan_file("crates/x/src/lib.rs", src, FileClass::Lib);
        let rules: Vec<&str> = vs.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"lossy-cast"), "{vs:?}");
        assert!(rules.contains(&"float-tolerance-literal"), "{vs:?}");
    }

    #[test]
    fn pragma_same_line_and_next_line_both_cover() {
        let src = "
// wmcs-audit: allow(float-tolerance-literal): pinned paper value, not a tolerance
const A: f64 = 1e-9;
const B: f64 = 2e-9; // wmcs-audit: allow(float-tolerance-literal): second pinned paper value
";
        let vs = scan_file("crates/x/src/lib.rs", src, FileClass::Lib);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn unused_and_unjustified_pragmas_are_violations() {
        let src = "
// wmcs-audit: allow(float-tolerance-literal): nothing here is a literal at all
fn fine() {}
// wmcs-audit: allow(lossy-cast)
fn cast(x: usize) -> u32 { x as u32 }
// wmcs-audit: bogus
fn also_fine() {}
";
        let vs = scan_file("crates/x/src/lib.rs", src, FileClass::Lib);
        let pragma_violations = vs.iter().filter(|v| v.rule == "audit-pragma").count();
        assert_eq!(pragma_violations, 3, "{vs:?}");
        // The unjustified allow(lossy-cast) must NOT suppress the cast.
        assert!(vs.iter().any(|v| v.rule == "lossy-cast"), "{vs:?}");
    }

    #[test]
    fn retired_rule_pragma_is_skipped_only_in_the_benchmark() {
        let src = "
// wmcs-audit: allow(nondeterminism-source): benchmark timing, never an input to outcomes.
fn f() {}
";
        assert!(scan_file("perfbench/src/trace.rs", src, FileClass::Lib).is_empty());
        let vs = scan_file("crates/x/src/lib.rs", src, FileClass::Lib);
        assert!(
            vs.len() == 1 && vs[0].rule == "audit-pragma" && vs[0].message.contains("unknown"),
            "{vs:?}"
        );
    }

    #[test]
    fn bins_get_the_token_rules_and_tests_do_not() {
        let src = "fn main() { let _ = 7usize as u32; let _ = 1e-9; }";
        let vs = scan_file("crates/bench/src/bin/x.rs", src, FileClass::Bin);
        let rules: Vec<&str> = vs.iter().map(|v| v.rule).collect();
        assert_eq!(rules, ["float-tolerance-literal", "lossy-cast"], "{vs:?}");
        assert!(scan_file("crates/bench/tests/x.rs", src, FileClass::Test).is_empty());
    }

    #[test]
    fn float_home_may_define_tolerances() {
        let src = "pub const EPS: f64 = 1e-9;";
        let vs = scan_file("crates/geom/src/float.rs", src, FileClass::Lib);
        assert!(vs.is_empty(), "{vs:?}");
        let vs = scan_file("crates/geom/src/power.rs", src, FileClass::Lib);
        assert_eq!(vs.len(), 1);
    }

    #[test]
    fn string_and_comment_content_never_trips_rules() {
        let src = r#"
// 1e-9, x as u32 — all just prose.
fn f() -> &'static str { "1e-9 as u32" }
"#;
        let vs = scan_file("crates/x/src/lib.rs", src, FileClass::Lib);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn module_paths_derive_from_location_and_manifest() {
        // No manifest on disk: fall back to the directory name.
        let mut cache = BTreeMap::new();
        let root = Path::new("/nonexistent-audit-test-root");
        assert_eq!(
            module_path(
                root,
                Path::new("crates/wireless/src/service.rs"),
                &mut cache
            ),
            ["wireless", "service"]
        );
        assert_eq!(
            module_path(root, Path::new("crates/wireless/src/lib.rs"), &mut cache),
            ["wireless"]
        );
        assert_eq!(
            module_path(root, Path::new("src/lib.rs"), &mut cache),
            ["workspace"]
        );
        assert_eq!(
            module_path(root, Path::new("crates/bench/src/bin/sweep.rs"), &mut cache),
            ["bench", "bin", "sweep"]
        );
    }

    #[test]
    fn report_json_escapes_and_round_trips_shape() {
        let report = AuditReport {
            violations: vec![Violation {
                file: "crates/x/src/lib.rs".to_string(),
                line: 3,
                rule: "lossy-cast",
                message: "say \"why\"\nplease".to_string(),
            }],
            files_scanned: 1,
            functions: 2,
            call_edges: 1,
        };
        let j = report.to_json();
        assert!(j.starts_with("{\"schema\":\"wmcs-audit/v2\""), "{j}");
        assert!(j.contains("\"files_scanned\":1"), "{j}");
        assert!(j.contains("\\\"why\\\"\\nplease"), "{j}");
        assert!(!j.contains('\n'), "JSON must be one line for CI: {j}");
    }
}
