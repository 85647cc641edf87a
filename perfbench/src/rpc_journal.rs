//! `rpc_journal`: the full remote path. Two `RpcClient` connections stage
//! and flush batches of monitor-measured curves into one `RpcServer`
//! fronting a 4-shard `ShardedReconfigService` that journals into a
//! `talus_store::Store`. Epochs and plan reads go over the wire; the run
//! ends with a warm restart from the journal.
//!
//! A round, from one load thread: each connection stages and flushes its
//! 64 caches' new curves as one batch, connection 0 runs epochs until the
//! plane is clean, and each connection reads back its caches' plans.
//! Every tenant gets a new curve every round, so no submission is a
//! bit-identical resubmission and every curve is journaled.

use crate::bench::{Args, Outcome, TempDir, Window, SETUP_REPEATS};
use crate::curves::{
    journaled_curves, monitor_pool, offline_plan, perturbed, plan_properties, replay_planning,
    summarize, MonitorPool,
};
use crate::trace::{Ledger, Tracer};
use std::sync::Arc;
use std::time::Instant;
use talus_core::MissCurve;
use talus_partition::Planner;
use talus_serve::wire::{self, Request, Response, SnapshotSummary, SubmitEntry};
use talus_serve::{CacheId, RpcClient, RpcServer, ServerHandle, ShardedReconfigService};
use talus_store::{Store, StoreSink};

const SHARDS: usize = 4;
const CACHES: usize = 128;
const TENANTS: usize = 4;
const CAPACITY: u64 = 8192;
const STREAMS: usize = 16;
const INTERVALS: usize = 8;
const INTERVAL: usize = 16_384;
const POINTS: u64 = 32;
const CONNECTIONS: usize = 2;
const WARMUP: u32 = 3;

/// Tenant `(cache, tenant)`'s curve for round `round`: a pooled monitor
/// curve, perturbed so it differs from every earlier submission.
fn curve_for(pool: &MonitorPool, cache: usize, tenant: usize, round: u64) -> MissCurve {
    let k = cache * TENANTS + tenant;
    let (stream, offset) = (k % STREAMS, k / STREAMS);
    perturbed(
        &pool.curves[stream][(round as usize + offset) % INTERVALS],
        round,
    )
}

/// One connection's share of the caches and what it last saw.
struct Conn {
    client: RpcClient,
    /// `(cache index, id)` of the caches this connection drives.
    caches: Vec<(usize, CacheId)>,
    latest: Vec<Vec<MissCurve>>,
    version: Vec<u64>,
    updates: Vec<u64>,
}

struct Setup {
    dir: TempDir,
    handle: ServerHandle,
    conns: Vec<Conn>,
    pool: MonitorPool,
    bytes_after_setup: u64,
}

fn setup(args: &Args) -> Result<Setup, String> {
    let dir = TempDir::new("rpc").map_err(|e| format!("journal dir: {e}"))?;
    let store = Arc::new(Store::open(dir.path(), SHARDS).map_err(|e| format!("store: {e}"))?);
    let plane = ShardedReconfigService::new(SHARDS).with_sink(store as Arc<dyn StoreSink>);
    let handle = RpcServer::bind("127.0.0.1:0", Arc::new(plane))
        .map_err(|e| format!("bind: {e}"))?
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let pool = monitor_pool(args.seed, STREAMS, INTERVALS, INTERVAL, CAPACITY, POINTS);
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        conns.push(Conn {
            client: RpcClient::connect(handle.local_addr()).map_err(|e| format!("connect: {e}"))?,
            caches: Vec::new(),
            latest: Vec::new(),
            version: Vec::new(),
            updates: Vec::new(),
        });
    }
    for c in 0..CACHES {
        let id = conns[0]
            .client
            .register(CAPACITY, TENANTS as u32)
            .map_err(|e| format!("register: {e}"))?;
        let conn = &mut conns[c % CONNECTIONS];
        conn.caches.push((c, id));
        conn.latest
            .push((0..TENANTS).map(|t| curve_for(&pool, c, t, 0)).collect());
        conn.version.push(0);
        conn.updates.push(0);
    }
    // Round 0: every tenant's first curve, planned and read back.
    for conn in &mut conns {
        for (i, &(_, id)) in conn.caches.iter().enumerate() {
            for t in 0..TENANTS {
                let curve = conn.latest[i][t].clone();
                conn.client
                    .stage(id, t, curve)
                    .map_err(|e| format!("stage: {e}"))?;
            }
        }
        for r in conn.client.flush().map_err(|e| format!("flush: {e}"))? {
            r.map_err(|e| format!("initial submit rejected: {e}"))?;
        }
    }
    loop {
        let report = conns[0]
            .client
            .run_epoch()
            .map_err(|e| format!("epoch: {e}"))?;
        if report.remaining_dirty == 0 {
            break;
        }
    }
    for conn in &mut conns {
        let mut reports = Vec::new();
        for &(_, id) in &conn.caches {
            reports.push(conn.client.report(id).map_err(|e| format!("report: {e}"))?);
        }
        let mut check = Outcome::default();
        verify(conn, &reports, 0, &mut check, None);
        if let Some(e) = check.errors.first() {
            return Err(format!("set-up plans: {e}"));
        }
    }
    let bytes_after_setup = dir.bytes();
    Ok(Setup {
        dir,
        handle,
        conns,
        pool,
        bytes_after_setup,
    })
}

/// Checks a connection's read-back plans against the offline planner on
/// the curves it submitted; advances its version/update book-keeping.
/// With a tracer, also replays the planning layers on the same curves.
fn verify(
    conn: &mut Conn,
    reports: &[Option<SnapshotSummary>],
    round: u64,
    out: &mut Outcome,
    mut replay: Option<&mut Tracer>,
) {
    let planner = Planner::new(CAPACITY / 64);
    for (i, report) in reports.iter().enumerate() {
        let id = conn.caches[i].1;
        let Some(summary) = report else {
            out.check(false, || {
                format!("{id}: no plan published after round {round}")
            });
            continue;
        };
        let prev = conn.version[i];
        let plan = match offline_plan(&planner, &conn.latest[i], CAPACITY, prev) {
            Ok(Some(plan)) => plan,
            other => {
                out.check(false, || format!("{id}: offline planner gave {other:?}"));
                continue;
            }
        };
        out.check(summary.version == prev + 1, || {
            format!(
                "{id} round {round}: version {} after {prev}",
                summary.version
            )
        });
        out.check(summary.updates == conn.updates[i] + TENANTS as u64, || {
            format!(
                "{id} round {round}: updates {} after {}",
                summary.updates, conn.updates[i]
            )
        });
        out.check(
            summary.round == plan.round && summary.tenants == summarize(&plan),
            || format!("{id} round {round}: published plan differs from Planner::plan"),
        );
        if let Err(e) = plan_properties(&plan, &conn.latest[i], CAPACITY, planner.grain, true) {
            out.check(false, || format!("{id} round {round}: {e}"));
        }
        conn.version[i] = summary.version;
        conn.updates[i] = summary.updates;
        if let Some(t) = replay.as_deref_mut() {
            replay_planning(t, &planner, &conn.latest[i], CAPACITY, prev);
        }
    }
}

/// Traced rounds: the round's batch through the wire codec, and its
/// curve and plan records through a scratch journal.
fn replay_wire_and_store(conn: &Conn, reports: &[Option<SnapshotSummary>], t: &mut Tracer) {
    use std::hint::black_box;
    let entries: Vec<SubmitEntry> = conn
        .caches
        .iter()
        .enumerate()
        .flat_map(|(i, &(_, id))| {
            conn.latest[i]
                .iter()
                .enumerate()
                .map(move |(tenant, curve)| SubmitEntry {
                    id: id.value(),
                    tenant: tenant as u32,
                    curve: curve.clone(),
                })
        })
        .collect();
    let n = entries.len() as f64;
    let req = Request::Submit { entries };
    let frame = t.span("serve.wire.encode", |_| {
        wire::encode_request(black_box(&req))
    });
    t.count("serve.wire.bytes", frame.len() as f64);
    t.count("serve.wire.curves", n);
    t.span("serve.wire.decode", |_| {
        black_box(wire::decode_request(black_box(&frame[4..])).ok())
    });
    let Ok(dir) = TempDir::new("replay") else {
        return;
    };
    let Ok(store) = Store::open(dir.path(), SHARDS) else {
        return;
    };
    let planner = Planner::new(CAPACITY / 64);
    let plans: Vec<_> = conn
        .latest
        .iter()
        .zip(&conn.version)
        .map(|(curves, &v)| planner.plan(curves, CAPACITY, v - 1).ok())
        .collect();
    t.span("store.journal", |_| {
        if let Request::Submit { entries } = &req {
            for e in entries {
                store.submit(e.id, e.tenant, &e.curve);
            }
        }
        for (i, &(_, id)) in conn.caches.iter().enumerate() {
            if let (Some(plan), Some(s)) = (&plans[i], &reports[i]) {
                store.plan(id.value(), s.epoch, s.version, s.updates, plan);
            }
        }
    });
}

pub fn run(args: &Args) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        match setup(args) {
            Ok(s) => {
                out.setup_s.push(t.elapsed().as_secs_f64());
                kept = Some(s); // an earlier instance is torn down here
            }
            Err(e) => {
                out.errors.push(e);
                return out;
            }
        }
    }
    let Setup {
        dir,
        handle,
        mut conns,
        pool,
        bytes_after_setup,
    } = kept.expect("set-up ran");
    let mut tracer = Tracer::new(origin);
    let mut window = Window::open(args, WARMUP);
    let (mut rounds, mut traced_rounds) = (0u64, 0u64);
    while window.next() {
        let round = window.round as u64;
        let (measured, traced) = (window.measured(), window.traced());
        rounds += 1;
        traced_rounds += traced as u64;
        // Untimed: this round's curves, per connection and cache.
        let fresh: Vec<Vec<Vec<MissCurve>>> = conns
            .iter()
            .map(|conn| {
                conn.caches
                    .iter()
                    .map(|&(c, _)| {
                        (0..TENANTS)
                            .map(|t| curve_for(&pool, c, t, round))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        tracer.set_enabled(traced);
        tracer.set_round(round as u32);
        let t0 = Instant::now();
        let (mut accepted, mut replans) = (0u64, 0u64);
        let mut errors: Vec<String> = Vec::new();
        let reports: Vec<Vec<Option<SnapshotSummary>>> = tracer.span("round", |t| {
            for (conn, curves) in conns.iter_mut().zip(&fresh) {
                let mut results = Vec::new();
                t.span("serve.client.flush", |_| {
                    for (i, &(_, id)) in conn.caches.iter().enumerate() {
                        for (tenant, curve) in curves[i].iter().enumerate() {
                            match conn.client.stage(id, tenant, curve.clone()) {
                                Ok(flushed) => results.extend(flushed.into_iter().flatten()),
                                Err(e) => errors.push(format!("stage: {e}")),
                            }
                        }
                    }
                    match conn.client.flush() {
                        Ok(r) => results.extend(r),
                        Err(e) => errors.push(format!("flush: {e}")),
                    }
                });
                for r in results {
                    match r {
                        Ok(()) => accepted += 1,
                        Err(e) => errors.push(format!("submit rejected: {e}")),
                    }
                }
            }
            loop {
                match t.span("serve.client.epoch", |_| conns[0].client.run_epoch()) {
                    Ok(report) => {
                        replans += report.planned.len() as u64;
                        if !report.failed.is_empty() || !report.quarantined.is_empty() {
                            errors.push(format!(
                                "epoch {}: failed {:?}, quarantined {:?}",
                                report.epoch, report.failed, report.quarantined
                            ));
                        }
                        if report.remaining_dirty == 0 {
                            break;
                        }
                    }
                    Err(e) => {
                        errors.push(format!("epoch: {e}"));
                        break;
                    }
                }
            }
            conns
                .iter_mut()
                .map(|conn| {
                    let Conn { client, caches, .. } = conn;
                    caches
                        .iter()
                        .map(|&(_, id)| {
                            t.span("serve.client.report", |_| client.report(id))
                                .unwrap_or_else(|e| {
                                    errors.push(format!("report: {e}"));
                                    None
                                })
                        })
                        .collect()
                })
                .collect()
        });
        let timed = t0.elapsed();
        for e in errors {
            out.check(false, || e);
        }
        let submitted = (CACHES * TENANTS) as u64;
        if measured {
            out.attempted += submitted + CACHES as u64;
            out.failed += submitted - accepted;
            out.round(traced, timed, accepted, replans);
        }
        // Untimed: checks, and in traced rounds the layer replays.
        for ((conn, curves), reports) in conns.iter_mut().zip(fresh).zip(&reports) {
            conn.latest = curves;
            tracer.span("check", |t| {
                verify(conn, reports, round, &mut out, traced.then_some(t));
            });
            if traced {
                replay_wire_and_store(conn, reports, &mut tracer);
            }
        }
    }
    out.peak_rss_mb = crate::bench::peak_rss_mb();
    let total_rounds = rounds;
    let mut ledger = Ledger::default();
    ledger.add(&tracer);
    drop(conns); // closes both connections
    let live = Arc::clone(handle.service());
    handle.shutdown();
    let journal_bytes = dir.bytes();

    // Warm restart: open the journal and restore a fresh plane from it.
    let t = Instant::now();
    let restored = Store::open(dir.path(), SHARDS).map(|store| {
        let open_s = t.elapsed().as_secs_f64();
        let plane = ShardedReconfigService::new(SHARDS);
        let r = Instant::now();
        let summary = plane.restore(&store);
        (store, plane, summary, open_s, r.elapsed().as_secs_f64())
    });
    let restore_s = t.elapsed().as_secs_f64();
    match restored {
        Ok((store, plane, summary, open_s, restore_only_s)) => {
            out.check(summary.is_ok(), || format!("restore failed: {summary:?}"));
            out.check(plane.cache_ids() == live.cache_ids(), || {
                "restored plane holds other caches".into()
            });
            for id in live.cache_ids() {
                let (a, b) = (live.snapshot(id), plane.snapshot(id));
                let bits = |s: &Option<Arc<talus_serve::PlanSnapshot>>| {
                    s.as_deref().map(|s| {
                        wire::encode_response(&Response::Snapshot(Some(SnapshotSummary::from(s))))
                    })
                };
                out.check(a == b && bits(&a) == bits(&b), || {
                    format!("{id}: restored snapshot differs from the live one")
                });
            }
            // Every submission was a new curve: the journal must hold
            // exactly one curve record per tenant per round (set-up
            // round included).
            let want = total_rounds + 1;
            match journaled_curves(&[&store]) {
                Ok(per_tenant) => out.check(
                    per_tenant.len() == CACHES * TENANTS && per_tenant.values().all(|&n| n == want),
                    || format!("journal curve records per tenant differ from {want} submissions"),
                ),
                Err(e) => out.check(false, || e),
            }
            let curves_journaled = (CACHES * TENANTS) as u64 * want;
            out.layer("store.open_ms", open_s * 1e3, "ms");
            out.layer("store.restore_ms", restore_only_s * 1e3, "ms");
            out.layer("store.restore_s", restore_s, "s");
            out.layer(
                "store.journal_bytes_per_curve",
                journal_bytes as f64 / curves_journaled as f64,
                "B",
            );
        }
        Err(e) => out.check(false, || format!("reopening the journal: {e}")),
    }
    out.layer(
        "store.append_bytes_per_round",
        (journal_bytes - bytes_after_setup) as f64 / total_rounds.max(1) as f64,
        "B",
    );
    out.layer(
        "store.journal_ms_per_round",
        ledger.self_s("store.journal") * 1e3 / traced_rounds.max(1) as f64,
        "ms",
    );
    out.layer(
        "serve.client.flush_us",
        ledger.self_us("serve.client.flush"),
        "us",
    );
    out.layer(
        "serve.client.epoch_us",
        ledger.self_us("serve.client.epoch"),
        "us",
    );
    out.layer(
        "serve.client.report_us",
        ledger.self_us("serve.client.report"),
        "us",
    );
    crate::layers::wire_and_planning(&mut out, &ledger);
    out.layer(
        "sim.monitor.record_ns",
        pool.record_s * 1e9 / pool.accesses as f64,
        "ns",
    );
    out.layer("serve.router.dedup_skips", 0.0, "count");
    out.layer("serve.router.useful_submit_ratio", 1.0, "ratio");
    crate::layers::finish(&mut out, &ledger, &[&tracer], args);
    drop(dir);
    out
}
