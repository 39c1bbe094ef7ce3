//! End-to-end tests for the workspace analyses through the real binary:
//! each analysis has a fixture mini-workspace under `fixtures/ws_*` that
//! must fail with the right diagnostic at a real `file:line`, the
//! slot-pattern fixture must stay clean, and the `--json` / `--graph`
//! outputs must hold the shapes CI consumes (problem matcher, artifact).

use std::path::Path;
use std::process::{Command, Output};

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
        .display()
        .to_string()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wmcs-audit"))
        .args(args)
        .output()
        .expect("wmcs-audit binary spawns")
}

fn audit_root(name: &str, extra: &[&str]) -> (i32, String, String) {
    let root = fixture(name);
    let mut args = vec!["--root", root.as_str()];
    args.extend_from_slice(extra);
    let out = run(&args);
    (
        out.status.code().expect("binary exits normally"),
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    )
}

/// The exact shape `.github/wmcs-audit-matcher.json` captures:
/// `^(.+?):(\d+): \[([a-z-]+)\] (.+)$`. Returns the captured
/// (file, line, rule) triple, or `None` if the line does not match.
fn matcher_captures(line: &str) -> Option<(String, u32, String)> {
    let (loc, rest) = line.split_once(": [")?;
    let (rule, message) = rest.split_once("] ")?;
    let (file, lineno) = loc.rsplit_once(':')?;
    if message.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
        return None;
    }
    Some((file.to_string(), lineno.parse().ok()?, rule.to_string()))
}

/// Every non-summary stdout line must be matcher-shaped; returns the
/// captures so callers can assert on files/lines/rules.
fn diagnostics(stdout: &str) -> Vec<(String, u32, String)> {
    stdout
        .lines()
        .filter(|l| !l.starts_with("wmcs-audit:"))
        .map(|l| {
            matcher_captures(l).unwrap_or_else(|| panic!("diagnostic not matcher-shaped: {l:?}"))
        })
        .collect()
}

#[test]
fn parallel_fold_fixture_fails_two_calls_below_the_spawn() {
    let (code, stdout, _) = audit_root("ws_parallel_fold", &[]);
    assert_eq!(code, 1, "undisciplined spawn must fail:\n{stdout}");
    let caps = diagnostics(&stdout);
    assert!(
        caps.iter().all(|(f, n, r)| f == "crates/app/src/lib.rs"
            && *n > 0
            && r == "parallel-float-reduction"),
        "every diagnostic names the fixture file and rule:\n{stdout}"
    );
    // The seeded order-sensitive fold lives in `deep_fold`, two calls
    // below the crossbeam spawn — reachability, not text proximity.
    assert!(
        stdout.contains("float `.fold(") && stdout.contains("deep_fold`"),
        "the fold two calls deep must be reached:\n{stdout}"
    );
    // The Mutex-accumulator in the spawn body is flagged as well.
    assert!(
        stdout.contains("`+=` through a lock() guard"),
        "the lock-guarded accumulator must be flagged:\n{stdout}"
    );
    assert!(
        stdout.contains("does not place results in per-item OnceLock slots"),
        "diagnostic explains the sanctioned alternative:\n{stdout}"
    );
}

#[test]
fn slot_pattern_fixture_stays_clean() {
    let (code, stdout, _) = audit_root("ws_slot_placed", &[]);
    assert_eq!(
        code, 0,
        "OnceLock slot placement is the sanctioned pattern:\n{stdout}"
    );
    assert!(
        stdout.contains("wmcs-audit: clean"),
        "clean summary:\n{stdout}"
    );
}

#[test]
fn panic_path_fixture_fails_without_a_baseline() {
    let (code, stdout, _) = audit_root("ws_panic_path", &[]);
    assert_eq!(code, 1, "unbaselined panic surface must fail:\n{stdout}");
    let caps = diagnostics(&stdout);
    assert!(
        caps.iter()
            .all(|(f, n, r)| f == "crates/svc/src/lib.rs" && *n > 0 && r == "panic-path"),
        "every diagnostic names the fixture file and rule:\n{stdout}"
    );
    // All three panic kinds seeded in the fixture surface: indexing and
    // `.expect` in the root API, `panic!` one call down in `checked`.
    for needle in ["`index`", "`expect`", "`panic-macro`", "::checked`"] {
        assert!(stdout.contains(needle), "missing {needle}:\n{stdout}");
    }
    assert!(
        stdout.contains("--write-panic-baseline"),
        "diagnostic points at the regeneration flag:\n{stdout}"
    );
}

#[test]
fn forbidden_api_fixture_fails_through_a_renamed_import() {
    let (code, stdout, _) = audit_root("ws_forbidden", &[]);
    assert_eq!(code, 1, "aliased banned call must fail:\n{stdout}");
    let caps = diagnostics(&stdout);
    assert_eq!(caps.len(), 1, "exactly one banned call site:\n{stdout}");
    let (file, line, rule) = &caps[0];
    assert_eq!(file, "crates/app/src/lib.rs");
    assert!(*line > 0);
    assert_eq!(rule, "forbidden-api");
    // The fixture writes `UT::mst_tree()`; the diagnostic must name the
    // banned symbol via the alias-resolved path, not the written text.
    assert!(
        stdout.contains("UniversalTree::mst_tree"),
        "resolved path in diagnostic:\n{stdout}"
    );
    assert!(
        stdout.contains("SubstrateBuilder::new(&net).tree(TreeKind::Mst)"),
        "diagnostic names the builder call that replaces it:\n{stdout}"
    );
}

#[test]
fn unbounded_channel_fixture_fails_but_bounded_stays_legal() {
    let (code, stdout, _) = audit_root("ws_unbounded", &[]);
    assert_eq!(code, 1, "aliased unbounded channels must fail:\n{stdout}");
    let caps = diagnostics(&stdout);
    assert_eq!(
        caps.len(),
        2,
        "exactly the two unbounded constructors (sync_channel is legal):\n{stdout}"
    );
    assert!(
        caps.iter()
            .all(|(f, n, r)| f == "crates/app/src/lib.rs" && *n > 0 && r == "forbidden-api"),
        "every diagnostic names the fixture file and rule:\n{stdout}"
    );
    // The fixture writes `chan::unbounded()` / `pipe::channel()`; the
    // diagnostics must cite the registry patterns via resolved paths.
    for needle in ["channel::unbounded", "mpsc::channel", "bounded"] {
        assert!(stdout.contains(needle), "missing {needle}:\n{stdout}");
    }
    assert!(
        !stdout.contains("sync_channel()"),
        "the bounded constructor must not be flagged:\n{stdout}"
    );
}

/// The streaming verdict paths are wall-clock free, by scan not by
/// convention: the virtual-clock sources feeding T14's latency
/// percentiles (`wmcs-wireless::stream`, `wmcs-bench::latency`) must not
/// name `Instant` or `SystemTime` in code, not even under an `#[expect]`
/// that would satisfy clippy's `disallowed_methods`. Prose may name them.
#[test]
fn stream_and_latency_sources_carry_no_wall_clock() {
    use wmcs_audit::lexer::{lex, TokKind};
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for rel in [
        "crates/wireless/src/stream.rs",
        "crates/bench/src/latency.rs",
    ] {
        let src = std::fs::read_to_string(root.join(rel))
            .unwrap_or_else(|e| panic!("{rel} must exist: {e}"));
        let clocks: Vec<u32> = lex(&src)
            .iter()
            .filter(|t| {
                t.kind == TokKind::Ident && matches!(t.text.as_str(), "Instant" | "SystemTime")
            })
            .map(|t| t.line)
            .collect();
        assert!(
            clocks.is_empty(),
            "{rel} names a wall clock on lines {clocks:?}"
        );
    }
}

#[test]
fn json_report_round_trips_the_human_diagnostics() {
    let (code, human, _) = audit_root("ws_forbidden", &[]);
    assert_eq!(code, 1);
    let (jcode, json, _) = audit_root("ws_forbidden", &["--json"]);
    assert_eq!(jcode, 1, "--json keeps the failing exit code");
    let json = json.trim();
    assert!(
        json.starts_with("{\"schema\":\"wmcs-audit/v2\"") && json.ends_with('}'),
        "one-line v2 JSON object on stdout:\n{json}"
    );
    assert!(!json.contains('\n'), "JSON report is a single line");
    // Every human diagnostic (the lines the CI problem matcher lifts)
    // appears in the JSON with the same file, line and rule.
    for (file, line, rule) in diagnostics(&human) {
        for needle in [
            format!("\"file\":\"{file}\""),
            format!("\"line\":{line}"),
            format!("\"rule\":\"{rule}\""),
        ] {
            assert!(json.contains(&needle), "missing {needle} in:\n{json}");
        }
    }
}

#[test]
fn json_to_file_keeps_matcher_lines_on_stdout() {
    let dir = std::env::temp_dir().join("wmcs-audit-json-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("audit.json");
    let arg = format!("--json={}", path.display());
    let (code, stdout, _) = audit_root("ws_forbidden", &[&arg]);
    assert_eq!(code, 1);
    // This is the CI mode: human lines stay on stdout for the problem
    // matcher while the JSON artifact goes to the file.
    assert!(
        !diagnostics(&stdout).is_empty(),
        "matcher-shaped lines on stdout:\n{stdout}"
    );
    let written = std::fs::read_to_string(&path).expect("JSON file written");
    assert!(written.starts_with("{\"schema\":\"wmcs-audit/v2\""));
    assert!(written.contains("\"rule\":\"forbidden-api\""));
    std::fs::remove_file(&path).ok();
}

#[test]
fn graph_dump_exposes_the_cross_crate_edge() {
    let (code, stdout, stderr) = audit_root("ws_parallel_fold", &["--graph"]);
    assert_eq!(code, 0, "--graph is a dump, not an audit:\n{stderr}");
    // The dump must show the chain the analysis walks.
    for qual in ["run", "summarize", "deep_fold"] {
        assert!(stdout.contains(qual), "missing {qual} in dump:\n{stdout}");
    }
    assert!(
        stderr.contains("functions") && stderr.contains("call edges"),
        "stats on stderr:\n{stderr}"
    );
}

#[test]
fn timing_line_lands_on_stderr() {
    let (_, _, stderr) = audit_root("ws_slot_placed", &[]);
    assert!(
        stderr.contains("call edges") && stderr.contains(" ms"),
        "CI reads the timing diagnostic from stderr:\n{stderr}"
    );
}
