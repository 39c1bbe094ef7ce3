//! The `wmcs-audit` binary: scan the workspace (or explicit files) and
//! exit non-zero on violations.
//!
//! ```text
//! wmcs-audit                       # audit the whole workspace
//! wmcs-audit --json                # machine-readable report on stdout
//! wmcs-audit --json=audit.json     # report to a file, human lines on stdout
//! wmcs-audit --graph               # dump the call graph and exit
//! wmcs-audit --root DIR            # audit a different workspace root
//! wmcs-audit --write-panic-baseline  # regenerate crates/audit/panic_baseline.txt
//! wmcs-audit --list-rules          # print the rule table
//! wmcs-audit --class lib F.rs      # token-rule audit of explicit files
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use wmcs_audit::analyses::panic_path;
use wmcs_audit::{
    audit_parsed, parse_workspace, scan_file, FileClass, Violation, ANALYSIS_RULES, RULES,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut class = FileClass::Lib;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut root_override: Option<PathBuf> = None;
    let mut json: Option<Option<PathBuf>> = None;
    let mut dump_graph = false;
    let mut write_baseline = false;
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--list-rules" => {
                for r in RULES.iter().chain(ANALYSIS_RULES.iter()) {
                    println!("{:<30} {}", r.name, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--class" => {
                i += 1;
                class = match args.get(i).map(String::as_str) {
                    // The token rules treat library and binary sources
                    // alike, so a file is either scanned or exempt.
                    Some("lib") => FileClass::Lib,
                    Some("test") => FileClass::Test,
                    other => {
                        eprintln!("wmcs-audit: bad --class {other:?} (lib|test)");
                        return ExitCode::from(2);
                    }
                };
            }
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(d) => root_override = Some(PathBuf::from(d)),
                    None => {
                        eprintln!("wmcs-audit: --root needs a directory");
                        return ExitCode::from(2);
                    }
                }
            }
            "--json" => json = Some(None),
            "--graph" => dump_graph = true,
            "--write-panic-baseline" => write_baseline = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: wmcs-audit [--list-rules] [--json[=PATH]] [--graph] [--root DIR] \
                     [--write-panic-baseline] [--class lib|test] [FILES…]"
                );
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--json=") => {
                json = Some(Some(PathBuf::from(&flag["--json=".len()..])));
            }
            flag if flag.starts_with("--") => {
                eprintln!("wmcs-audit: unknown flag {flag}");
                return ExitCode::from(2);
            }
            path => files.push(PathBuf::from(path)),
        }
        i += 1;
    }

    // Explicit-files mode: token rules only (no workspace to parse).
    if !files.is_empty() {
        let mut all: Vec<Violation> = Vec::new();
        for f in &files {
            let src = match std::fs::read_to_string(f) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("wmcs-audit: cannot read {}: {e}", f.display());
                    return ExitCode::from(2);
                }
            };
            all.extend(scan_file(&f.display().to_string(), &src, class));
        }
        for v in &all {
            println!("{v}");
        }
        return if all.is_empty() {
            println!(
                "wmcs-audit: clean ({} files scanned, {} rules)",
                files.len(),
                RULES.len()
            );
            ExitCode::SUCCESS
        } else {
            println!(
                "wmcs-audit: {} violation(s) in {} files scanned",
                all.len(),
                files.len()
            );
            ExitCode::FAILURE
        };
    }

    // Workspace mode: default root is two levels up from this crate's
    // manifest; --root overrides (used by the fixture tests).
    let root = root_override.unwrap_or_else(|| {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."))
    });
    #[expect(
        clippy::disallowed_methods,
        reason = "timing goes to stderr, never into verdicts"
    )]
    let t0 = Instant::now();
    let ws = match parse_workspace(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("wmcs-audit: workspace walk failed: {e}");
            return ExitCode::from(2);
        }
    };

    if dump_graph {
        println!("{}", ws.graph.dump());
        eprintln!(
            "wmcs-audit: {} functions, {} call edges in {} files",
            ws.graph.nodes.len(),
            ws.graph.n_edges(),
            ws.files.len()
        );
        return ExitCode::SUCCESS;
    }

    if write_baseline {
        let path = root.join(panic_path::BASELINE_PATH);
        let body = panic_path::render_baseline(&ws);
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("wmcs-audit: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wmcs-audit: wrote {}", path.display());
        return ExitCode::SUCCESS;
    }

    let report = audit_parsed(&ws);
    let elapsed_ms = t0.elapsed().as_millis();

    match &json {
        Some(None) => {
            // Pure JSON on stdout for pipeline consumption.
            println!("{}", report.to_json());
        }
        Some(Some(path)) => {
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("wmcs-audit: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            for v in &report.violations {
                println!("{v}");
            }
        }
        None => {
            for v in &report.violations {
                println!("{v}");
            }
        }
    }
    eprintln!(
        "wmcs-audit: {} files, {} functions, {} call edges, {} rule(s) + {} analyses in {} ms",
        report.files_scanned,
        report.functions,
        report.call_edges,
        RULES.len(),
        ANALYSIS_RULES.len(),
        elapsed_ms
    );
    if report.violations.is_empty() {
        if json.is_none() {
            println!(
                "wmcs-audit: clean ({} files scanned, {} rules)",
                report.files_scanned,
                RULES.len() + ANALYSIS_RULES.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        if json.is_none() {
            println!(
                "wmcs-audit: {} violation(s) in {} files scanned",
                report.violations.len(),
                report.files_scanned
            );
        }
        ExitCode::FAILURE
    }
}
