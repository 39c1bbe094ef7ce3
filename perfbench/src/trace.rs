//! Wall-clock timing, in-memory spans and order statistics.
//!
//! Every timestamp the benchmark takes comes from [`now_ns`]. Timings
//! are reported, never fed back into what the program is given, so the
//! outcomes and their digest repeat exactly across runs of one seed.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
// wmcs-audit: allow(nondeterminism-source): benchmark timings are reported, never fed into outcomes.
use std::time::Instant;

// wmcs-audit: allow(nondeterminism-source): the origin every benchmark timestamp is measured from.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Wall-clock nanoseconds since the first call in this process.
#[allow(clippy::disallowed_methods)]
pub fn now_ns() -> u64 {
    // wmcs-audit: allow(nondeterminism-source): benchmark timing, never an input to outcomes.
    let origin = ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Span names: one per public call the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    /// `SubstrateBuilder::build_universal`.
    Build,
    /// Group registration plus the warm-up drive.
    Warmup,
    /// One `StreamService::drive`.
    Drive,
    /// A `StreamHandle::submit` that neither sealed nor was refused.
    Submit,
    /// A `submit` that sealed an epoch or was refused with `Busy`.
    Seal,
    /// From the producer's return to `drive`'s return.
    Tail,
    /// One `MulticastService::step`.
    Step,
    /// A timed segment of steps.
    Segment,
    /// One layer-replay epoch (parent of the session spans).
    Epoch,
    /// A shadow session's `apply_events`.
    Absorb,
    /// A shadow session's `reprice`.
    Reprice,
    /// `UniversalTree::shapley_shares`, re-executed.
    ShapleyShares,
    /// `UniversalTree::multicast_cost`, re-executed.
    MulticastCost,
    /// `Subframe::ensure` on a shadow frame.
    Ensure,
}

impl Name {
    fn label(self) -> &'static str {
        match self {
            Name::Build => "builder.build",
            Name::Warmup => "setup.warmup",
            Name::Drive => "stream.drive",
            Name::Submit => "stream.submit",
            Name::Seal => "stream.seal",
            Name::Tail => "stream.tail",
            Name::Step => "service.step",
            Name::Segment => "service.segment",
            Name::Epoch => "replay.epoch",
            Name::Absorb => "session.apply_events",
            Name::Reprice => "session.reprice",
            Name::ShapleyShares => "universal.shapley_shares",
            Name::MulticastCost => "universal.multicast_cost",
            Name::Ensure => "substrate.ensure",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: Name,
    /// Start, in [`now_ns`] time.
    pub start: u64,
    /// End, in [`now_ns`] time.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The group the call served (`u32::MAX` when none).
    pub group: u32,
    /// The group's epoch (or step) number (`u32::MAX` when none).
    pub epoch: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Spans kept in memory; an untraced run keeps none.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// Whether spans are recorded at all.
    pub on: bool,
    /// The recorded spans, in completion order of their starts.
    pub spans: Vec<Span>,
}

/// A `usize` id as a span id (`u32::MAX` when it does not fit).
pub fn id32(v: usize) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

impl Spans {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: Vec::new(),
        }
    }

    /// Record a finished call under `parent`.
    pub fn log_span(
        &mut self,
        name: Name,
        (start, end): (u64, u64),
        parent: Option<u32>,
        group: usize,
        epoch: usize,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                start,
                end,
                parent,
                group: id32(group),
                epoch: id32(epoch),
            });
        }
    }

    /// Open a span that encloses later ones; returns its index for
    /// [`Spans::log_span`] and [`Spans::close_span`] (`None` when off).
    pub fn open_span(&mut self, name: Name, start: u64, group: usize, epoch: usize) -> Option<u32> {
        if !self.on {
            return None;
        }
        let idx = id32(self.spans.len());
        self.log_span(name, (start, start), None, group, epoch);
        Some(idx)
    }

    /// Close a span opened with [`Spans::open_span`].
    pub fn close_span(&mut self, idx: Option<u32>, end: u64) {
        if let Some(s) = idx.and_then(|i| self.spans.get_mut(i as usize)) {
            s.end = end;
        }
    }

    /// Total duration of spans named `name`.
    pub fn total_of(&self, name: Name) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Write the spans as tab-separated lines: index, name, start, end,
    /// parent, group, epoch (`-` for none).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tgroup\tepoch")?;
        let opt = |v: u32| {
            if v == u32::MAX {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name.label(),
                s.start,
                s.end,
                s.parent.map_or_else(|| "-".to_string(), |p| p.to_string()),
                opt(s.group),
                opt(s.epoch),
            )?;
        }
        out.flush()
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of `values` (sorted in place);
/// 0 for an empty slice.
pub fn percentile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds as seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}
