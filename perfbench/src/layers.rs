//! The per-layer metric roster and the traced run's epilogue.
//!
//! Every traced run prints every name below; a layer a workload does not
//! exercise reads 0 there.

use crate::bench::{median, Args, Outcome, OUT_DIR};
use crate::trace::{write_spans, Ledger, Tracer};

/// The profiles of the `talus_sim` quality ledger.
pub const QUALITY_PROFILES: [&str; 7] = [
    "libquantum",
    "omnetpp",
    "xalancbmk",
    "cactusADM",
    "perlbench",
    "mcf",
    "astar",
];

/// The four parts of the quality ledger, per profile.
pub const QUALITY_PARTS: [&str; 4] = ["monitor_err", "model_err", "mechanism_err", "cliff_gap"];

/// Every per-layer metric with its unit (quality metrics are added per
/// profile by [`roster`]).
const LAYER_METRICS: [(&str, &str); 33] = [
    ("serve.wire.encode_us", "us"),
    ("serve.wire.decode_us", "us"),
    ("serve.wire.bytes_per_curve", "B"),
    ("serve.client.flush_us", "us"),
    ("serve.client.epoch_us", "us"),
    ("serve.client.report_us", "us"),
    ("serve.cluster.submit_us", "us"),
    ("serve.cluster.epoch_us", "us"),
    ("serve.cluster.report_us", "us"),
    ("serve.router.submit_us", "us"),
    ("serve.router.epoch_ms", "ms"),
    ("serve.router.snapshot_us", "us"),
    ("serve.router.dedup_skips", "count"),
    ("serve.router.useful_submit_ratio", "ratio"),
    ("partition.plan_us", "us"),
    ("partition.allocate_us", "us"),
    ("core.hull_us", "us"),
    ("core.shadow_plan_us", "us"),
    ("workloads.analytic.curve_us", "us"),
    ("workloads.analytic.redraws", "count"),
    ("store.append_bytes_per_round", "B"),
    ("store.open_ms", "ms"),
    ("store.restore_ms", "ms"),
    ("store.journal_ms_per_round", "ms"),
    ("store.restore_s", "s"),
    ("store.journal_bytes_per_curve", "B"),
    ("sim.monitor.record_ns", "ns"),
    ("sim.talus_access_ns", "ns"),
    ("sim.array_access_ns", "ns"),
    ("sim.reconfigurations", "count"),
    ("sim.accesses_per_s", "accesses/s"),
    ("sim.talus_mpka", "misses/kacc"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric name with its unit, in print order.
pub fn roster() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for p in QUALITY_PROFILES {
        for part in QUALITY_PARTS {
            all.push((format!("quality.{p}.{part}"), "miss/acc"));
        }
    }
    all
}

/// Wire and planning metrics from the replay spans.
pub fn wire_and_planning(out: &mut Outcome, ledger: &Ledger) {
    out.layer(
        "serve.wire.encode_us",
        ledger.self_us("serve.wire.encode"),
        "us",
    );
    out.layer(
        "serve.wire.decode_us",
        ledger.self_us("serve.wire.decode"),
        "us",
    );
    let curves = ledger.count("serve.wire.curves");
    out.layer(
        "serve.wire.bytes_per_curve",
        if curves > 0.0 {
            ledger.count("serve.wire.bytes") / curves
        } else {
            0.0
        },
        "B",
    );
    out.layer("partition.plan_us", ledger.self_us("partition.plan"), "us");
    out.layer(
        "partition.allocate_us",
        ledger.self_us("partition.allocate"),
        "us",
    );
    out.layer("core.hull_us", ledger.self_us("core.hull"), "us");
    out.layer(
        "core.shadow_plan_us",
        ledger.self_us("core.shadow_plan"),
        "us",
    );
}

/// The traced run's epilogue: tracing overhead (traced against untraced
/// rounds of the same run), the span table, and the span file.
pub fn finish(out: &mut Outcome, ledger: &Ledger, tracers: &[&Tracer], args: &Args) {
    if !args.trace {
        return;
    }
    let (traced, plain) = (median(&out.traced_round_s), median(&out.round_s));
    let overhead = if plain > 0.0 {
        100.0 * (traced / plain - 1.0)
    } else {
        0.0
    };
    out.layer("trace.overhead_pct", overhead, "%");
    println!(
        "trace: {} traced rounds (median {:.4} ms), {} untraced (median {:.4} ms), overhead {overhead:.2}%",
        out.traced_round_s.len(),
        traced * 1e3,
        out.round_s.len(),
        plain * 1e3
    );
    ledger.print();
    let path = std::path::Path::new(OUT_DIR)
        .join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
    match write_spans(&path, tracers) {
        Ok(()) => println!("trace: spans written to {}", path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}
