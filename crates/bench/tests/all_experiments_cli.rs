//! The sweep binary end to end: positional ids pick registry entries
//! (case-insensitive, swept in registry order), a picked experiment's
//! table is the one a sweep of it alone renders, `--json=PATH` writes
//! the summary `bench_compare` reads, and a bad command line exits 2
//! before anything is printed. F2 and T4 are the cheapest experiments.

use std::path::Path;
use std::process::{Command, Output};
use wmcs_bench::compare::{compare_summaries, parse_json, summary_json, Json};
use wmcs_bench::engine::{run_sweep, SweepConfig};
use wmcs_bench::registry::{self, Experiment};

/// Run `all_experiments` with `args` inside the per-target scratch
/// directory, so no run can write into the source tree.
fn all_experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("all_experiments runs")
}

fn experiment(id: &str) -> &'static dyn Experiment {
    registry::find(id).expect("registered id")
}

#[test]
fn picked_ids_print_their_tables_in_registry_order_and_write_the_summary() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("all_experiments_cli_{}.json", std::process::id()));
    let json_arg = format!("--json={}", path.display());
    let out = all_experiments(&["t4", "F2", "1", &json_arg]);
    assert!(
        out.status.success(),
        "exit {:?}, stderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&path).expect("summary written");
    let _ = std::fs::remove_file(&path);

    let cfg = SweepConfig::with_seeds(1);
    let both = run_sweep(&[experiment("F2"), experiment("T4")], &cfg);
    let rendered: String = both.experiments.iter().map(|e| e.table.render()).collect();
    assert_eq!(String::from_utf8_lossy(&out.stdout), rendered);

    // Sweeping F2 with T4 does not change F2's table.
    let alone = run_sweep(&[experiment("F2")], &cfg);
    assert_eq!(
        alone.experiments[0].table.render(),
        both.experiments[0].table.render()
    );

    let summary = parse_json(&written).expect("summary parses");
    let ids: Vec<&str> = summary
        .get("experiments")
        .and_then(Json::as_arr)
        .expect("experiments array")
        .iter()
        .filter_map(|e| e.get("id").and_then(Json::as_str))
        .collect();
    assert_eq!(ids, ["F2", "T4"]);
    let cmp = compare_summaries(&summary_json(&both), &written, None).expect("both files parse");
    assert!(cmp.ok(), "drift: {:?}", cmp.drifts);
}

#[test]
fn bad_command_lines_exit_2_and_print_nothing() {
    for args in [
        &["NOPE"][..],
        &["F2", "--json"],
        &["F2", "--json="],
        &["--tables"],
        &["0"],
        &["F2", "1", "2"],
    ] {
        let out = all_experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(!out.stderr.is_empty(), "{args:?} gave no usage message");
    }
}
