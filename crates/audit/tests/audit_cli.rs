//! End-to-end tests for the `wmcs-audit` binary: one fixture per token
//! rule must fail with the right diagnostic, clean fixtures must pass, the
//! rule table in DESIGN.md §5 must name exactly the rules the binary
//! lists, and the workspace itself must self-audit clean.

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

fn audit_lib(name: &str) -> (i32, String) {
    let out = run(&["--class", "lib", &fixture(name)]);
    let code = out.status.code().expect("binary exits normally");
    (
        code,
        String::from_utf8(out.stdout).expect("diagnostics are UTF-8"),
    )
}

#[test]
fn rule_fixtures_fail_with_their_diagnostic() {
    for (file, rule, needle) in [
        ("float_tolerance.rs", "float-tolerance-literal", "1e-9"),
        ("lossy_cast.rs", "lossy-cast", "u32"),
    ] {
        let (code, stdout) = audit_lib(file);
        assert_eq!(code, 1, "{file} must fail the audit:\n{stdout}");
        assert!(
            stdout.contains(&format!("[{rule}]")),
            "{file} must report [{rule}]:\n{stdout}"
        );
        assert!(
            stdout.contains(needle),
            "{file} diagnostic must mention {needle}:\n{stdout}"
        );
        // Diagnostics carry file:line anchors.
        assert!(
            stdout.contains(&format!("{file}:")) || stdout.contains(&fixture(file)),
            "{file} diagnostic must be file:line anchored:\n{stdout}"
        );
    }
}

#[test]
fn clean_fixtures_pass() {
    for file in ["clean.rs", "pragma_ok.rs", "test_mod.rs"] {
        let (code, stdout) = audit_lib(file);
        assert_eq!(code, 0, "{file} must audit clean:\n{stdout}");
        assert!(stdout.contains("clean"), "{stdout}");
    }
}

#[test]
fn unjustified_pragma_is_a_violation_and_suppresses_nothing() {
    let (code, stdout) = audit_lib("pragma_unjustified.rs");
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("[audit-pragma]"), "{stdout}");
    // The suppression is void, so the underlying literal violation fires too.
    assert!(stdout.contains("[float-tolerance-literal]"), "{stdout}");
}

#[test]
fn unused_pragma_is_a_violation() {
    let (code, stdout) = audit_lib("pragma_unused.rs");
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("[audit-pragma]"), "{stdout}");
    assert!(stdout.contains("suppresses nothing"), "{stdout}");
}

#[test]
fn rule_fixtures_pass_when_classed_as_test() {
    // Tests, benches and examples are exempt from the token rules.
    for file in ["float_tolerance.rs", "lossy_cast.rs"] {
        let out = run(&["--class", "test", &fixture(file)]);
        assert_eq!(out.status.code(), Some(0), "{file}");
    }
}

/// The rule names `--list-rules` prints, one per line, in order.
fn listed_rules() -> Vec<String> {
    let out = run(&["--list-rules"]);
    assert_eq!(out.status.code(), Some(0));
    String::from_utf8(out.stdout)
        .expect("UTF-8")
        .lines()
        .filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .collect()
}

#[test]
fn list_rules_names_all_five() {
    assert_eq!(
        listed_rules(),
        [
            "float-tolerance-literal",
            "lossy-cast",
            "parallel-float-reduction",
            "panic-path",
            "forbidden-api",
        ]
    );
}

/// DESIGN.md §5 documents each rule as one table row whose first cell is
/// the backticked rule name. A rule added, removed or moved to a lint
/// must change both, or this fails.
#[test]
fn design_rule_tables_match_list_rules() {
    let design = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let text = std::fs::read_to_string(&design).expect("DESIGN.md is readable");
    let section = text
        .split("\n## ")
        .find(|s| s.starts_with("§5 "))
        .expect("DESIGN.md has a §5");
    let mut documented: Vec<String> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split_once('`').map(|(name, _)| name.to_string()))
        .collect();
    let mut listed = listed_rules();
    documented.sort();
    listed.sort();
    assert_eq!(documented, listed, "DESIGN.md §5 rule rows vs --list-rules");
}

#[test]
fn bad_flags_exit_2() {
    assert_eq!(run(&["--no-such-flag"]).status.code(), Some(2));
    assert_eq!(run(&["--class", "bogus"]).status.code(), Some(2));
}

#[test]
fn workspace_self_audit_is_clean() {
    // The whole repository must satisfy its own lint pass; this is the same
    // invocation CI runs.
    let out = run(&[]);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(0), "self-audit failed:\n{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn workspace_self_audit_via_library_api() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels below the workspace root")
        .to_path_buf();
    let report = wmcs_audit::audit_workspace(&root).expect("workspace walk succeeds");
    assert!(
        report.violations.is_empty(),
        "workspace has violations: {:?}",
        report.violations
    );
    assert!(
        report.files_scanned > 100,
        "expected >100 workspace sources, got {}",
        report.files_scanned
    );
    // The parsed workspace is non-trivial: the call graph actually joined
    // the crates (a regression here would silently blind the analyses).
    assert!(
        report.functions > 500,
        "expected >500 parsed fns, got {}",
        report.functions
    );
    assert!(
        report.call_edges > 1000,
        "expected >1000 call edges, got {}",
        report.call_edges
    );
}
