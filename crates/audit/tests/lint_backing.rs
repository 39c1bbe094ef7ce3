//! Four determinism invariants are enforced by clippy and rustc, not by
//! `wmcs-audit`: hashed containers, wall-clock reads, bare unwraps in
//! library code and `unsafe`. Deleting one configuration line would drop
//! such a rule without any failing check, so this test reads that
//! configuration back: `clippy.toml`, every package manifest and every
//! library crate root.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The `path = "…"` entries of a top-level TOML array `key = [ … ]`.
fn array_paths(toml: &str, key: &str) -> Vec<String> {
    let mut lines = toml
        .lines()
        .skip_while(|l| !l.starts_with(&format!("{key} = [")));
    lines.next();
    lines
        .take_while(|l| l.trim() != "]")
        .filter_map(|l| l.split_once("path = \""))
        .filter_map(|(_, rest)| rest.split_once('"').map(|(p, _)| p.to_string()))
        .collect()
}

/// The non-blank lines of TOML table `[name]`, up to the next table.
fn table<'a>(toml: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    toml.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// Every first-party package directory, relative to the workspace root:
/// the root facade and `crates/*` (`vendor/` holds third-party shims).
fn packages() -> Vec<String> {
    let mut dirs: Vec<String> = std::fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .map(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).expect("UTF-8 name");
            format!("crates/{name}")
        })
        .collect();
    dirs.sort();
    dirs.insert(0, ".".to_string());
    dirs
}

#[test]
fn hashed_containers_are_disallowed_types() {
    let paths = array_paths(&read("clippy.toml"), "disallowed-types");
    for ty in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(paths.iter().any(|p| p == ty), "{ty} missing from {paths:?}");
    }
}

#[test]
fn wall_clock_reads_are_disallowed_methods() {
    let paths = array_paths(&read("clippy.toml"), "disallowed-methods");
    for method in ["std::time::Instant::now", "std::time::SystemTime::now"] {
        assert!(
            paths.iter().any(|p| p == method),
            "{method} missing from {paths:?}"
        );
    }
}

#[test]
fn every_library_root_denies_unwrap_used() {
    let roots: Vec<String> = packages()
        .iter()
        .map(|dir| format!("{dir}/src/lib.rs"))
        .filter(|rel| root().join(rel).is_file())
        .collect();
    assert!(
        roots.len() >= 10,
        "ten library crate roots, found {roots:?}"
    );
    for rel in &roots {
        assert!(
            read(rel)
                .lines()
                .any(|l| l.trim() == "#![deny(clippy::unwrap_used)]"),
            "{rel} must deny clippy::unwrap_used"
        );
    }
}

#[test]
fn every_package_inherits_the_unsafe_code_ban() {
    let workspace = read("Cargo.toml");
    assert_eq!(
        table(&workspace, "workspace.lints.rust"),
        ["unsafe_code = \"forbid\""],
        "the workspace forbids unsafe_code"
    );
    let dirs = packages();
    assert!(dirs.len() >= 10, "ten first-party packages, found {dirs:?}");
    for dir in &dirs {
        let manifest = format!("{dir}/Cargo.toml");
        assert_eq!(
            table(&read(&manifest), "lints"),
            ["workspace = true"],
            "{manifest} must inherit the workspace lints"
        );
    }
}
