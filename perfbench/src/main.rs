//! The Talus benchmark: one closed-loop workload per run.
//!
//! ```text
//! talus-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `rpc_journal`, `cluster_ops`, `analytic_fleet`, `talus_sim`
//! (see README.md). The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod analytic_fleet;
mod bench;
mod cluster_ops;
mod curves;
mod layers;
mod rpc_journal;
mod talus_sim;
mod trace;

use bench::{end_to_end, result_line, Args, Metric, Outcome};

const WORKLOADS: [&str; 4] = ["rpc_journal", "cluster_ops", "analytic_fleet", "talus_sim"];

/// Panics of the fault `analytic_fleet` keeps (the `f64::clamp` inside
/// `apply_margin`) are counted and reported once; any other panic goes
/// to the default hook.
fn quiet_known_fault() {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEEN: AtomicU64 = AtomicU64::new(0);
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.to_string().contains("min > max") {
            if SEEN.fetch_add(1, Ordering::Relaxed) == 0 {
                eprintln!("known fault (apply_margin clamp), reported once: {info}");
            }
        } else {
            default(info);
        }
    }));
}

fn main() {
    quiet_known_fault();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: talus-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let out: Outcome = match args.workload.as_str() {
        "rpc_journal" => rpc_journal::run(&args),
        "cluster_ops" => cluster_ops::run(&args),
        "analytic_fleet" => analytic_fleet::run(&args),
        "talus_sim" => talus_sim::run(&args),
        other => {
            eprintln!(
                "error: unknown workload {other}; one of {}",
                WORKLOADS.join(", ")
            );
            std::process::exit(2);
        }
    };
    let rounds = out.round_s.len() + out.traced_round_s.len();
    println!(
        "workload {} seed {}: {} measured rounds ({} traced), setup runs {:?}",
        args.workload,
        args.seed,
        rounds,
        out.traced_round_s.len(),
        out.setup_s
    );
    if !args.trace && out.round_s.len() < 100 {
        eprintln!(
            "warning: {} untraced rounds; round_p90_ms has fewer than 10 samples beyond it",
            out.round_s.len()
        );
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    let correct = out.errors.is_empty() && rounds > 0;
    let metrics: Vec<Metric> = if args.trace {
        layers::roster()
            .into_iter()
            .map(|(name, unit)| {
                let value = out.layer.get(&name).map_or(0.0, |v| v.0);
                Metric { name, value, unit }
            })
            .collect()
    } else {
        end_to_end(&out)
    };
    for m in &metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &metrics)
    );
}
