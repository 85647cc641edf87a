//! `talus_sim`: the simulator and monitors, no plane. One
//! `TalusSingleCache` (an ideal two-partition LRU array with a
//! `SampledMattson` monitor, replanned every `INTERVAL` accesses) per
//! paper profile: five with cliffs and two convex ones, each sized on a
//! plateau of its LRU curve.
//!
//! A round feeds `CHUNK` simulated accesses to every profile's cache.
//! Set-up includes `WARMUP` rounds. The simulated statistics are taken
//! over the first `STATS_ROUNDS` rounds after it, so they depend on the
//! seed only. They are checked against references computed apart from the
//! cache: an exact `MattsonMonitor` on the same stream, its hull, the
//! optimal-bypass curve, and libquantum's closed-form scan hull.

use crate::bench::{Args, Outcome, Rng, Stopwatch, Window, SETUP_REPEATS};
use crate::curves::linf;
use crate::layers::QUALITY_PROFILES;
use crate::trace::{Ledger, Tracer};
use std::time::Instant;
use talus_core::bypass::optimal_bypass;
use talus_sim::monitor::{MattsonMonitor, Monitor, SampledMattson};
use talus_sim::part::{IdealPartitioned, PartitionedCacheModel};
use talus_sim::{
    mb_to_lines, AccessCtx, LineAddr, PartitionId, TalusCacheConfig, TalusSingleCache,
};
use talus_workloads::{AccessGenerator, AnalyticModel, AppProfile, Mixture};

/// Cache size per profile in full-scale MB, on a plateau of its LRU
/// curve (in `QUALITY_PROFILES` order): libquantum at half its 32 MB
/// scan, omnetpp/xalancbmk/cactusADM/perlbench below their cliffs
/// (≈2, 6, 10, 5.25 MB), mcf and astar on their convex declines.
const CACHE_MB: [f64; 7] = [16.0, 1.0, 3.0, 5.0, 3.0, 8.0, 8.0];
/// Profiles run at 1/16 of their footprint.
const SCALE: f64 = 1.0 / 16.0;
const CHUNK: usize = 8192;
const INTERVAL: u64 = 16 * CHUNK as u64;
const SAMPLING: u64 = 1;
const WARMUP: u32 = 32;
const STATS_ROUNDS: u32 = 128;
/// How far a realised miss rate may sit from its reference (hull,
/// closed-form scan hull, optimal bypassing): the 5% safety margin's
/// cost plus sampling noise.
const MARGIN: f64 = 0.05;

struct Sim {
    profile: AppProfile,
    size: u64,
    gen: Mixture,
    cache: TalusSingleCache<IdealPartitioned, SampledMattson>,
    /// Exact LRU curve of the measured stream (reference).
    exact: MattsonMonitor,
    /// The cache's monitor configuration, fed the same measured stream.
    sampled: SampledMattson,
    /// A bare LRU array of the same size, fed in traced rounds only.
    array: IdealPartitioned,
    buf: Vec<LineAddr>,
}

fn setup(args: &Args) -> Vec<Sim> {
    let mut rng = Rng::new(args.seed, 0x51);
    let mut sims: Vec<Sim> = QUALITY_PROFILES
        .iter()
        .zip(CACHE_MB)
        .map(|(&name, mb)| {
            let profile = talus_workloads::profile(name)
                .expect("paper profile exists")
                .scaled(SCALE);
            let size = mb_to_lines(mb * SCALE);
            let monitor_seed = rng.next_u64();
            let mut array = IdealPartitioned::new(size, 1);
            array.set_partition_sizes(&[size]);
            Sim {
                gen: profile.generator(rng.next_u64(), 0),
                profile,
                size,
                cache: TalusSingleCache::new(
                    IdealPartitioned::new(size, 2),
                    SampledMattson::new(4 * size, SAMPLING, monitor_seed),
                    INTERVAL,
                    TalusCacheConfig::new(),
                ),
                exact: MattsonMonitor::new(4 * size),
                sampled: SampledMattson::new(4 * size, SAMPLING, monitor_seed),
                array,
                buf: vec![LineAddr(0); CHUNK],
            }
        })
        .collect();
    // Warm-up: caches fill and reconfigure; the reference monitors learn
    // the footprints. Statistics restart afterwards (tags stay warm).
    let ctx = AccessCtx::new();
    for _ in 0..WARMUP {
        for s in &mut sims {
            s.fill();
            s.exact.record_block(&s.buf);
            s.sampled.record_block(&s.buf);
            s.cache.access_block(&s.buf, &ctx);
        }
    }
    for s in &mut sims {
        s.cache.reset_stats();
        s.exact.reset();
        s.sampled.reset();
    }
    sims
}

impl Sim {
    /// The next chunk of this profile's access stream.
    fn fill(&mut self) {
        for slot in self.buf.iter_mut() {
            *slot = self.gen.next_line();
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let mut sims = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        sims = setup(args);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let ctx = AccessCtx::new();
    let mut tracer = Tracer::new(origin);
    // Whole reconfiguration intervals only, so every run's curve and
    // replan counts are exact multiples of the profile count.
    let mut window = Window::open(args, 0).aligned((INTERVAL / CHUNK as u64) as u32);
    let mut stats_rounds = 0u32;
    let mut stats = Vec::new();
    let mut sim_rounds = WARMUP as u64;
    let mut intervals_before = sim_rounds * CHUNK as u64 / INTERVAL * sims.len() as u64;
    let mut reconfigs_before: u64 = sims.iter().map(|s| s.cache.reconfigurations()).sum();
    let mut sim_busy_s = 0.0;
    loop {
        // Rounds past the window run only to complete the statistics.
        let measured = window.next();
        if !measured && out.peak_rss_mb == 0.0 {
            out.peak_rss_mb = crate::bench::peak_rss_mb();
        }
        if !measured && stats_rounds >= STATS_ROUNDS {
            break;
        }
        let traced = measured && window.traced();
        let feed_refs = stats_rounds < STATS_ROUNDS;
        tracer.set_enabled(traced);
        tracer.set_round(window.round);
        let mut sw = Stopwatch::default();
        for s in &mut sims {
            s.fill();
            if feed_refs {
                s.exact.record_block(&s.buf);
                tracer.span("sim.monitor.record", |_| s.sampled.record_block(&s.buf));
            }
            if traced {
                tracer.span("sim.array.access", |_| {
                    s.array.access_block(PartitionId(0), &s.buf, &ctx)
                });
            }
            sw.start();
            tracer.span("sim.talus.access", |_| s.cache.access_block(&s.buf, &ctx));
            sw.stop();
        }
        let timed = sw.take();
        if feed_refs {
            stats_rounds += 1;
            if stats_rounds == STATS_ROUNDS {
                stats = sims.iter().map(|s| s.cache.stats()).collect();
            }
        }
        sim_rounds += 1;
        let intervals = sim_rounds * CHUNK as u64 / INTERVAL * sims.len() as u64;
        let reconfigs: u64 = sims.iter().map(|s| s.cache.reconfigurations()).sum();
        if measured {
            out.round(
                traced,
                timed,
                intervals - intervals_before,
                reconfigs - reconfigs_before,
            );
            if !traced {
                sim_busy_s += timed.as_secs_f64();
            }
            out.attempted += sims.len() as u64;
        }
        intervals_before = intervals;
        reconfigs_before = reconfigs;
    }
    let untraced = out.round_s.len() as f64;
    out.layer(
        "sim.accesses_per_s",
        untraced * (sims.len() * CHUNK) as f64 / sim_busy_s.max(1e-9),
        "accesses/s",
    );
    quality(&sims, &stats, &mut out);
    let mut ledger = Ledger::default();
    ledger.add(&tracer);
    out.layer(
        "sim.monitor.record_ns",
        ledger.self_us("sim.monitor.record") * 1e3 / CHUNK as f64,
        "ns",
    );
    out.layer(
        "sim.talus_access_ns",
        ledger.self_us("sim.talus.access") * 1e3 / CHUNK as f64,
        "ns",
    );
    out.layer(
        "sim.array_access_ns",
        ledger.self_us("sim.array.access") * 1e3 / CHUNK as f64,
        "ns",
    );
    crate::layers::finish(&mut out, &ledger, &[&tracer], args);
    out
}

/// The quality ledger and the simulator's checks, over the first
/// `STATS_ROUNDS` measured rounds.
fn quality(sims: &[Sim], stats: &[talus_sim::CacheStats], out: &mut Outcome) {
    let (mut misses, mut accesses) = (0u64, 0u64);
    println!(
        "quality ledger ({} rounds × {CHUNK} accesses per profile, margin {MARGIN}):",
        STATS_ROUNDS
    );
    println!(
        "  {:<11} {:>7} {:>7} {:>7} {:>7} {:>7} | {:>8} {:>8} {:>9} {:>8}",
        "profile",
        "lines",
        "lru",
        "hull",
        "talus",
        "bypass",
        "monitor",
        "model",
        "mechanism",
        "gap"
    );
    for (s, st) in sims.iter().zip(stats) {
        let name = s.profile.name;
        let size = s.size as f64;
        let exact = s.exact.curve();
        let cap = exact.max_size();
        let lru = exact.value_at(size);
        let hull = exact.convex_hull().value_at(size);
        let talus = st.miss_rate();
        let bypass = optimal_bypass(&exact, size).map_or(f64::NAN, |b| b.expected_misses);
        let monitor_err = linf(&s.sampled.curve(), &exact, cap);
        let model = AnalyticModel::from_profile(&s.profile).curve(cap as u64);
        let model_err = linf(&model, &exact, cap);
        let mechanism = talus - hull;
        let gap = lru - hull;
        println!(
            "  {name:<11} {:>7} {lru:>7.4} {hull:>7.4} {talus:>7.4} {bypass:>7.4} | {monitor_err:>8.4} {model_err:>8.4} {mechanism:>9.4} {gap:>8.4}",
            s.size
        );
        out.layer(
            format!("quality.{name}.monitor_err"),
            monitor_err,
            "miss/acc",
        );
        out.layer(format!("quality.{name}.model_err"), model_err, "miss/acc");
        out.layer(
            format!("quality.{name}.mechanism_err"),
            mechanism,
            "miss/acc",
        );
        out.layer(format!("quality.{name}.cliff_gap"), gap, "miss/acc");
        misses += st.misses();
        accesses += st.accesses();
        out.check(mechanism.abs() <= MARGIN, || {
            format!("{name}: realised {talus:.4} is not within {MARGIN} of its hull {hull:.4}")
        });
        out.check(talus <= bypass + MARGIN, || {
            format!("{name}: realised {talus:.4} worse than optimal bypassing {bypass:.4}")
        });
        if name == "libquantum" {
            let scan = mb_to_lines(32.0 * SCALE) as f64;
            let closed = 1.0 - size / scan;
            out.check(lru >= 0.95, || {
                format!("libquantum LRU rate {lru:.4} is not ≈ 1")
            });
            out.check((talus - closed).abs() <= MARGIN, || {
                format!("libquantum realised {talus:.4}, scan hull 1 − S/F = {closed:.4}")
            });
        }
    }
    let mpka = 1000.0 * misses as f64 / accesses.max(1) as f64;
    println!("  all profiles: {mpka:.3} misses per 1000 simulated accesses");
    out.layer("sim.talus_mpka", mpka, "misses/kacc");
    let reconfigs: u64 = sims.iter().map(|s| s.cache.reconfigurations()).sum();
    out.layer("sim.reconfigurations", reconfigs as f64, "count");
}
