//! In-memory span recorder for the traced run.
//!
//! Each load thread owns one [`Tracer`]. A span is recorded around every
//! call the benchmark makes into a layer: name, start, end, parent span
//! and the round it belongs to. Nothing is written until the run ends;
//! [`Ledger`] then folds the spans into per-name call counts, total time
//! and self time (a span's duration minus the time its children cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub round: u32,
}

/// A per-thread span recorder. Disabled tracers record nothing and cost
/// one branch per span.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    round: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            enabled: false,
            origin,
            round: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Turns recording on or off for the rounds that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags later spans with round `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Runs `f` inside a span named `name` (a child of the innermost open
    /// span). The closure gets the tracer back so it can open children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round: self.round,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Adds `by` to the counter `name` (counted only while enabled, so
    /// counters line up with the spans of the same rounds).
    pub fn count(&mut self, name: &'static str, by: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += by;
        }
    }
}

/// Per-name totals folded from one or more tracers.
#[derive(Debug, Default)]
pub struct Ledger {
    /// name → (calls, total ns, self ns)
    pub by_name: BTreeMap<&'static str, (u64, u64, u64)>,
    pub counts: BTreeMap<&'static str, f64>,
    pub spans: usize,
}

impl Ledger {
    pub fn add(&mut self, tracer: &Tracer) {
        let spans = &tracer.spans;
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, child) in spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = self.by_name.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(*child);
        }
        for (name, v) in &tracer.counts {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
        self.spans += spans.len();
    }

    /// Mean self time per call of span `name`, in microseconds (0 when
    /// the span never ran).
    pub fn self_us(&self, name: &str) -> f64 {
        match self.by_name.get(name) {
            Some(&(calls, _, self_ns)) if calls > 0 => self_ns as f64 / calls as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Total self time of span `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.2 as f64 / 1e9)
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Prints one line per span name: calls, total and self time.
    pub fn print(&self) {
        println!("trace: {} spans", self.spans);
        println!(
            "  {:<34} {:>9} {:>12} {:>12} {:>10}",
            "span", "calls", "total_ms", "self_ms", "self_us/call"
        );
        for (name, &(calls, total, self_ns)) in &self.by_name {
            println!(
                "  {:<34} {:>9} {:>12.3} {:>12.3} {:>10.3}",
                name,
                calls,
                total as f64 / 1e6,
                self_ns as f64 / 1e6,
                self_ns as f64 / calls.max(1) as f64 / 1e3
            );
        }
    }
}

/// Most spans [`write_spans`] writes (an `analytic_fleet` run records
/// about a million).
const MAX_ROWS: usize = 200_000;

/// Writes the spans of `tracers` as CSV (`thread,name,start_ns,end_ns,
/// parent,round`), at most [`MAX_ROWS`]; the header line records how
/// many there were.
pub fn write_spans(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let total: usize = tracers.iter().map(|t| t.spans.len()).sum();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "# spans={total} written={} thread,name,start_ns,end_ns,parent,round",
        total.min(MAX_ROWS)
    )?;
    let mut rows = 0;
    'outer: for (thread, t) in tracers.iter().enumerate() {
        for s in &t.spans {
            if rows == MAX_ROWS {
                break 'outer;
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{thread},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.round
            )?;
            rows += 1;
        }
    }
    out.flush()
}
