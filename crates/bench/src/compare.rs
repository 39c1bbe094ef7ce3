//! The sweep summary schema and the baseline diff behind `bench_compare`.
//!
//! [`summary_json`] serialises a finished [`SweepRun`] into the versioned
//! machine-readable form `all_experiments --json=PATH` writes (and the
//! repo commits as `BENCH_baseline.json`); [`compare_summaries`] diffs
//! two such files:
//!
//! * **verdicts gate**: every experiment's pass/fail status and verdict
//!   string must match exactly (they are seed-count independent by the
//!   registry contract, so a 3-seed CI sweep diffs cleanly against the
//!   20-seed committed baseline);
//! * **timings inform**: per-experiment cell compute seconds (pinned
//!   once-per-sweep checks excluded) are normalised by seeds-per-cell
//!   and reported as deltas. By default they never fail
//!   the comparison; an explicit tolerance (`--tol=0.5` = +50%) turns
//!   regressions beyond it into failures.
//!
//! The vendored `serde_json` is a serializer only, so this module carries
//! its own minimal JSON reader ([`parse_json`]), sufficient for anything
//! the shim's writer emits.

use crate::engine::SweepRun;
use serde::{Serialize, Value};
use std::fmt::Write as _;

/// Schema identifier embedded in every summary file.
pub const SCHEMA: &str = "wmcs-bench-sweep";

/// Current schema version. Bump when the summary shape changes so
/// `bench_compare` refuses to diff incompatible files. v1 was PR 1's
/// ad-hoc `all_experiments --json` output (no schema field); v2 is the
/// registry-driven sweep with per-cell timings.
pub const SCHEMA_VERSION: u64 = 2;

/// Serialise a finished sweep into the versioned summary JSON.
///
/// Built as an explicit [`Value`] tree (the vendored derive macro does
/// not handle borrowed fields), so the field order here *is* the schema.
pub fn summary_json(run: &SweepRun) -> String {
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Map(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let experiments: Vec<Value> = run
        .experiments
        .iter()
        .map(|e| {
            let cells: Vec<Value> = e
                .cells
                .iter()
                .map(|c| {
                    obj(vec![
                        ("scenario", c.scenario.to_value()),
                        ("seconds", c.seconds.to_value()),
                    ])
                })
                .collect();
            obj(vec![
                ("id", e.table.id.to_value()),
                ("status", e.status().to_value()),
                ("verdict", e.table.verdict.to_value()),
                ("seconds", e.seconds.to_value()),
                ("cells", cells.to_value()),
                ("table", e.table.to_value()),
            ])
        })
        .collect();
    let summary = obj(vec![
        ("schema", SCHEMA.to_value()),
        ("schema_version", SCHEMA_VERSION.to_value()),
        ("seeds_per_cell", run.seeds_per_cell.to_value()),
        ("total_seconds", run.total_seconds.to_value()),
        ("experiments", experiments.to_value()),
    ]);
    let mut json = serde_json::to_string_pretty(&summary).expect("summary is serialisable");
    json.push('\n');
    json
}

// ---- minimal JSON reader ----

/// Parsed JSON value (the reader-side mirror of the shim's writer).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", c as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by `\uDC00..=\uDFFF`.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if (0xdc00..0xe000).contains(&low) {
                                        char::from_u32(
                                            0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00),
                                        )
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.error("bad \\u escape"))?);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar verbatim.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let c = rest
                        .chars()
                        .next()
                        .expect("Some(_) arm: at least one byte remains");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|b| std::str::from_utf8(b).ok())
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(hex)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

/// Parse a JSON document (sufficient for everything the vendored
/// `serde_json` writer emits).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing garbage"));
    }
    Ok(v)
}

// ---- the diff ----

/// One experiment's footprint in a summary file.
struct ExperimentEntry {
    id: String,
    status: String,
    verdict: String,
    /// Seconds that scale with the seed count: the sum over the
    /// per-scenario `cells` timings. The top-level `seconds` also folds
    /// in the once-per-sweep pinned checks, which would skew a
    /// per-seed-cell comparison between sweeps of different seed counts,
    /// so it is only the fallback when no cells are recorded.
    cell_seconds: f64,
}

/// A parsed-and-validated summary file.
struct ParsedSummary {
    seeds_per_cell: f64,
    experiments: Vec<ExperimentEntry>,
}

fn load_summary(label: &str, text: &str) -> Result<ParsedSummary, String> {
    let root = parse_json(text).map_err(|e| format!("{label}: {e}"))?;
    let schema = root.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != SCHEMA {
        return Err(format!(
            "{label}: schema is `{schema}`, expected `{SCHEMA}` — regenerate the file with \
             `all_experiments --json=PATH`"
        ));
    }
    let version = root
        .get("schema_version")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "{label}: schema_version {version} != supported {SCHEMA_VERSION}"
        ));
    }
    let seeds_per_cell = root
        .get("seeds_per_cell")
        .and_then(Json::as_f64)
        .filter(|&s| s >= 1.0)
        .ok_or_else(|| format!("{label}: missing seeds_per_cell"))?;
    let experiments = root
        .get("experiments")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{label}: missing experiments array"))?
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).and_then(Json::as_str).map(str::to_string);
            let cells: Vec<f64> = e
                .get("cells")
                .and_then(Json::as_arr)
                .map(|cells| {
                    cells
                        .iter()
                        .filter_map(|c| c.get("seconds").and_then(Json::as_f64))
                        .collect()
                })
                .unwrap_or_default();
            let cell_seconds = if cells.is_empty() {
                e.get("seconds").and_then(Json::as_f64).unwrap_or(0.0)
            } else {
                cells.iter().sum()
            };
            Ok(ExperimentEntry {
                id: field("id").ok_or_else(|| format!("{label}: experiment without id"))?,
                status: field("status").unwrap_or_default(),
                verdict: field("verdict").unwrap_or_default(),
                cell_seconds,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ParsedSummary {
        seeds_per_cell,
        experiments,
    })
}

/// Outcome of diffing a candidate summary against a baseline.
pub struct Comparison {
    /// Fatal verdict/status/coverage drifts (nonempty ⇒ the gate fails).
    pub drifts: Vec<String>,
    /// Per-experiment timing report (informational unless a tolerance
    /// turned an entry into a drift).
    pub timing_report: String,
}

impl Comparison {
    /// Did the candidate match the baseline on everything gated?
    pub fn ok(&self) -> bool {
        self.drifts.is_empty()
    }
}

/// Diff `candidate` against `baseline` (both summary-JSON texts).
///
/// Verdict and status drift is always fatal. Timing deltas (normalised
/// per seed-cell so sweeps with different seed counts compare) are
/// informational unless `tolerance` is given, in which case a candidate
/// experiment slower than `(1 + tolerance) ×` its baseline is fatal too.
pub fn compare_summaries(
    baseline: &str,
    candidate: &str,
    tolerance: Option<f64>,
) -> Result<Comparison, String> {
    let base = load_summary("baseline", baseline)?;
    let cand = load_summary("candidate", candidate)?;
    let mut drifts = Vec::new();
    let mut timing = String::new();

    for b in &base.experiments {
        let Some(c) = cand.experiments.iter().find(|c| c.id == b.id) else {
            drifts.push(format!(
                "{}: present in baseline, missing from candidate",
                b.id
            ));
            continue;
        };
        if c.status != b.status {
            drifts.push(format!(
                "{}: status drifted `{}` → `{}`",
                b.id, b.status, c.status
            ));
        }
        if c.verdict != b.verdict {
            drifts.push(format!(
                "{}: verdict drifted\n  baseline:  {}\n  candidate: {}",
                b.id, b.verdict, c.verdict
            ));
        }
        // Normalise to per-seed-cell compute seconds: the summed cell
        // work scales ~linearly in seeds (pinned checks are excluded —
        // they run once per sweep regardless of seed count).
        let b_norm = b.cell_seconds / base.seeds_per_cell;
        let c_norm = c.cell_seconds / cand.seeds_per_cell;
        let delta = if b_norm > 0.0 {
            100.0 * (c_norm / b_norm - 1.0)
        } else {
            0.0
        };
        writeln!(
            timing,
            "  {:>4}  {:>10.4}s → {:>10.4}s per seed-cell  ({:+.1}%)",
            b.id, b_norm, c_norm, delta
        )
        .expect("write! to String is infallible");
        if let Some(tol) = tolerance {
            if b_norm > 0.0 && c_norm > b_norm * (1.0 + tol) {
                drifts.push(format!(
                    "{}: timing regression {:+.1}% exceeds tolerance {:.0}%",
                    b.id,
                    delta,
                    100.0 * tol
                ));
            }
        }
    }
    for c in &cand.experiments {
        if !base.experiments.iter().any(|b| b.id == c.id) {
            drifts.push(format!(
                "{}: new in candidate, absent from baseline — regenerate the baseline",
                c.id
            ));
        }
    }

    Ok(Comparison {
        drifts,
        timing_report: timing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_roundtrips_writer_output() {
        let text = r#"{"id":"T1 α≤β","rows":[1,2.5,null,true,false],"nested":{"a":[],"b":{}},"esc":"a\"b\\c\nd"}"#;
        let v = parse_json(text).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("T1 α≤β"));
        let rows = v.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[1], Json::Num(2.5));
        assert_eq!(v.get("esc").and_then(Json::as_str), Some("a\"b\\c\nd"));
        assert_eq!(
            parse_json(r#""é 😀""#).unwrap(),
            Json::Str("é 😀".to_string())
        );
        assert!(parse_json("{\"a\":1,}").is_err());
        assert!(parse_json("[1 2]").is_err());
        assert!(parse_json("{} trailing").is_err());
        // Surrogate pairs: valid pair decodes, broken pairs are errors.
        assert_eq!(parse_json(r#""😀""#).unwrap(), Json::Str("😀".to_string()));
        assert!(parse_json(r#""\ud800A""#).is_err());
        assert!(parse_json(r#""\ud800\u0041""#).is_err());
        assert!(parse_json(r#""\udc00""#).is_err());
    }

    fn summary(id: &str, status: &str, verdict: &str, seconds: f64) -> String {
        format!(
            r#"{{"schema":"{SCHEMA}","schema_version":{SCHEMA_VERSION},"seeds_per_cell":2,
               "total_seconds":{seconds},
               "experiments":[{{"id":"{id}","status":"{status}","verdict":"{verdict}",
                                "seconds":{seconds},"cells":[],"table":{{}}}}]}}"#
        )
    }

    #[test]
    fn identical_summaries_compare_clean() {
        let s = summary("T2", "pass", "all good", 1.0);
        let cmp = compare_summaries(&s, &s, None).unwrap();
        assert!(cmp.ok(), "{:?}", cmp.drifts);
        assert!(cmp.timing_report.contains("T2"));
    }

    #[test]
    fn verdict_and_status_drift_is_fatal() {
        let base = summary("T2", "pass", "all good", 1.0);
        let cand = summary("T2", "fail", "MISMATCH", 1.0);
        let cmp = compare_summaries(&base, &cand, None).unwrap();
        assert_eq!(cmp.drifts.len(), 2);
    }

    #[test]
    fn coverage_drift_is_fatal_both_ways() {
        let base = summary("T2", "pass", "v", 1.0);
        let cand = summary("T3", "pass", "v", 1.0);
        let cmp = compare_summaries(&base, &cand, None).unwrap();
        assert_eq!(cmp.drifts.len(), 2);
    }

    #[test]
    fn timing_is_informational_without_tolerance_and_fatal_with() {
        let base = summary("T2", "pass", "v", 1.0);
        let cand = summary("T2", "pass", "v", 10.0);
        assert!(compare_summaries(&base, &cand, None).unwrap().ok());
        let gated = compare_summaries(&base, &cand, Some(0.5)).unwrap();
        assert!(!gated.ok());
        // A fast candidate never trips the tolerance.
        let rev = compare_summaries(&cand, &base, Some(0.5)).unwrap();
        assert!(rev.ok());
    }

    #[test]
    fn wrong_schema_is_an_error() {
        let bad = r#"{"seeds":20,"experiments":[]}"#;
        let good = summary("T2", "pass", "v", 1.0);
        assert!(compare_summaries(bad, &good, None).is_err());
        assert!(compare_summaries(&good, bad, None).is_err());
    }
}
