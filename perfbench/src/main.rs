//! `wmcs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a report; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when an output check or health guard fails, 2 on a
//! usage error. A traced run also writes its spans under
//! `perfbench/out/`.

use std::path::Path;
use std::process::ExitCode;
use wmcs_perfbench::run::{run_traced, run_untraced, RunResult};
use wmcs_perfbench::workload::catalog;

const USAGE: &str =
    "usage: wmcs-perfbench --workload <served_stream|crowded_steps> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn json(result: &RunResult) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &result.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = catalog().into_iter().find(|s| s.name == args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let result = if args.trace {
        run_traced(&spec, args.seed, args.seconds)
    } else {
        run_untraced(&spec, args.seed, args.seconds)
    };
    let line = result.and_then(|r| json(&r).map(|j| (r, j)));
    let (result, line) = match line {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("FAILED {}: {e}", spec.name);
            return ExitCode::from(1);
        }
    };
    for l in &result.lines {
        println!("{l}");
    }
    if args.trace {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let stem = spec.name;
        for (spans, kind) in [
            (&result.spans, "frontdoor"),
            (&result.replay_spans, "replay"),
        ] {
            let path = out.join(format!("{stem}.{kind}.spans.tsv"));
            match spans.write_tsv(&path) {
                Ok(()) => println!("spans: {} ({} spans)", path.display(), spans.spans.len()),
                Err(e) => {
                    eprintln!("FAILED {}: writing {}: {e}", spec.name, path.display());
                    return ExitCode::from(1);
                }
            }
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}
