//! What every workload shares: arguments, the seeded generator, the
//! round clock, the outcome record and the result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// splitmix64: the benchmark's only randomness, derived from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Accumulates the timed parts of a round; harness work (checks, the
/// reference computations) runs between `start` and `stop` and is not
/// counted.
#[derive(Debug, Default)]
pub struct Stopwatch {
    started: Option<Instant>,
    acc: Duration,
}

impl Stopwatch {
    pub fn start(&mut self) {
        self.started = Some(Instant::now());
    }

    pub fn stop(&mut self) {
        if let Some(t) = self.started.take() {
            self.acc += t.elapsed();
        }
    }

    pub fn take(&mut self) -> Duration {
        self.stop();
        std::mem::take(&mut self.acc)
    }
}

/// The measurement window. The first `warmup` rounds run unmeasured;
/// then rounds keep starting until `seconds` of wall time have passed
/// since the first measured one and the measured rounds are a whole
/// number of `align`-round units. In a traced run, measured rounds
/// alternate traced (even) and untraced (odd), so the two can be compared
/// on the same warm state.
#[derive(Debug)]
pub struct Window {
    opened: Instant,
    seconds: f64,
    trace: bool,
    warmup: u32,
    align: u32,
    pub round: u32,
}

impl Window {
    pub fn open(args: &Args, warmup: u32) -> Window {
        Window {
            opened: Instant::now(),
            seconds: args.seconds,
            trace: args.trace,
            warmup,
            align: 1,
            round: 0,
        }
    }

    /// Ends the window only after a multiple of `rounds` measured rounds.
    pub fn aligned(mut self, rounds: u32) -> Window {
        self.align = rounds;
        self
    }

    /// Whether another round should run; advances the round counter.
    pub fn next(&mut self) -> bool {
        if self.round == self.warmup {
            self.opened = Instant::now();
        }
        let whole = (self.round - self.warmup.min(self.round)).is_multiple_of(self.align);
        if self.round >= self.warmup && whole && self.opened.elapsed().as_secs_f64() >= self.seconds
        {
            return false;
        }
        self.round += 1;
        true
    }

    /// Whether the current round counts toward the metrics.
    pub fn measured(&self) -> bool {
        self.round > self.warmup
    }

    /// Whether the current round records spans.
    pub fn traced(&self) -> bool {
        self.trace && self.measured() && self.round.is_multiple_of(2)
    }
}

/// Everything one run measured, before it is turned into metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Timed length of each untraced measured round.
    pub round_s: Vec<f64>,
    /// Timed length of each traced measured round.
    pub traced_round_s: Vec<f64>,
    /// Curves the plane (or simulated cache) accepted in untraced rounds.
    pub curves: u64,
    /// Plans published in untraced rounds.
    pub replans: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; empty means correct.
    pub errors: Vec<String>,
    /// Per-layer metrics (trace runs print these).
    pub layer: BTreeMap<String, (f64, &'static str)>,
    /// Resident-set high-water mark when the measurement window closed
    /// (before the final checks and, in `rpc_journal`, the restart).
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// Records a failed check (kept to the first few messages).
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            if self.errors.len() < 20 {
                self.errors.push(msg());
            } else if self.errors.len() == 20 {
                self.errors.push("further check failures omitted".into());
            }
        }
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layer.insert(name.into(), (value, unit));
    }

    /// Books one measured round.
    pub fn round(&mut self, traced: bool, timed: Duration, curves: u64, replans: u64) {
        if traced {
            self.traced_round_s.push(timed.as_secs_f64());
        } else {
            self.round_s.push(timed.as_secs_f64());
            self.curves += curves;
            self.replans += replans;
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile (`q` in `[0, 1]`); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics of an untraced run. Rates are per second of
/// the median round: the mean work of a round over the median round
/// time, so a burst of slow rounds (CPU steal on a shared host) moves
/// them no more than it moves `round_p50_ms`.
pub fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let rounds = out.round_s.len().max(1) as f64;
    let busy = median(&out.round_s) * rounds;
    let round_ms: Vec<f64> = out.round_s.iter().map(|s| s * 1e3).collect();
    let m = |name: &str, value: f64, unit| Metric {
        name: name.into(),
        value,
        unit,
    };
    vec![
        m("setup_s", median(&out.setup_s), "s"),
        m("curves_per_s", out.curves as f64 / busy, "curves/s"),
        m("replans_per_s", out.replans as f64 / busy, "plans/s"),
        m("round_p50_ms", quantile(&round_ms, 0.5), "ms"),
        m("round_p90_ms", quantile(&round_ms, 0.9), "ms"),
        m("peak_rss_mb", out.peak_rss_mb, "MB"),
    ]
}

/// The result line: one JSON object, printed last on stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Where runs write: journals, span files. Relative to the checkout root
/// the benchmark runs from.
pub const OUT_DIR: &str = "perfbench/out";

/// A fresh directory under [`OUT_DIR`], removed with everything in it
/// when dropped.
#[derive(Debug)]
pub struct TempDir(std::path::PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::path::Path::new(OUT_DIR).join(format!("tmp-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }

    /// Total bytes of the regular files directly inside the directory.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter_map(|e| e.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
