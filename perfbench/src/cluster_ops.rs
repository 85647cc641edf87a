//! `cluster_ops`: one `ClusterClient` drives two in-process cluster
//! members over loopback, each an `RpcServer` fronting a plane that owns
//! two of the four global shards and journals its slice. Every curve
//! travels in its own frame (one round trip per curve).
//!
//! A round: half the tenants (a seeded choice) resubmit their current
//! curve unchanged, the other half submit a new one; then epochs run
//! until clean and every plan is read back. An in-process 4-shard twin
//! fed the same stream must end bit-identical to the cluster.

use crate::bench::{Args, Outcome, Rng, Stopwatch, TempDir, Window, SETUP_REPEATS};
use crate::curves::{
    journaled_curves, monitor_pool, offline_plan, perturbed, plan_properties, replay_planning,
    MonitorPool,
};
use crate::trace::{Ledger, Tracer};
use std::sync::Arc;
use std::time::Instant;
use talus_core::{MissCurve, ShardTopology};
use talus_partition::Planner;
use talus_serve::wire::{self, Request, SnapshotSummary, SubmitEntry};
use talus_serve::{
    CacheId, CacheSpec, ClusterClient, EpochReport, RpcServer, ServerHandle, ShardedReconfigService,
};
use talus_store::{Store, StoreSink};

const TOTAL_SHARDS: usize = 4;
const MEMBERS: usize = 2;
const CACHES: usize = 128;
const TENANTS: usize = 2;
const CAPACITY: u64 = 8192;
const STREAMS: usize = 16;
const INTERVALS: usize = 8;
const INTERVAL: usize = 16_384;
const POINTS: u64 = 32;
const WARMUP: u32 = 3;

struct Member {
    dir: TempDir,
    store: Arc<Store>,
    handle: ServerHandle,
}

struct Cluster {
    members: Vec<Member>,
    client: ClusterClient,
    twin: ShardedReconfigService,
    ids: Vec<CacheId>,
    pool: MonitorPool,
    /// Latest curve per tenant (`cache * TENANTS + tenant`).
    latest: Vec<MissCurve>,
    /// New curves each tenant has submitted (picks its next pool curve).
    changes: Vec<u64>,
    version: Vec<u64>,
    /// Journaled-worthy submissions per tenant (resubmissions excluded).
    journaled: Vec<u64>,
    rng: Rng,
}

impl Cluster {
    fn journal_bytes(&self) -> u64 {
        self.members.iter().map(|m| m.dir.bytes()).sum()
    }

    fn new_curve(&self, k: usize, round: u64) -> MissCurve {
        let (stream, offset) = (k % STREAMS, k / STREAMS);
        let n = (self.changes[k] as usize + offset) % INTERVALS;
        perturbed(&self.pool.curves[stream][n], round)
    }
}

fn setup(args: &Args) -> Result<Cluster, String> {
    let mut members = Vec::with_capacity(MEMBERS);
    let per = TOTAL_SHARDS / MEMBERS;
    for m in 0..MEMBERS {
        let topology = ShardTopology::range(TOTAL_SHARDS, m * per, per);
        let dir = TempDir::new("cluster").map_err(|e| format!("journal dir: {e}"))?;
        let store = Arc::new(
            Store::open(dir.path(), per)
                .map_err(|e| format!("store: {e}"))?
                .with_topology(topology),
        );
        let plane = ShardedReconfigService::new(per)
            .with_topology(topology)
            .with_sink(Arc::clone(&store) as Arc<dyn StoreSink>);
        let handle = RpcServer::bind("127.0.0.1:0", Arc::new(plane))
            .map_err(|e| format!("bind: {e}"))?
            .spawn()
            .map_err(|e| format!("spawn: {e}"))?;
        members.push(Member { dir, store, handle });
    }
    let addrs: Vec<_> = members.iter().map(|m| m.handle.local_addr()).collect();
    let client = ClusterClient::connect(&addrs).map_err(|e| format!("cluster connect: {e}"))?;
    let twin = ShardedReconfigService::new(TOTAL_SHARDS);
    let pool = monitor_pool(
        args.seed ^ 0xC1,
        STREAMS,
        INTERVALS,
        INTERVAL,
        CAPACITY,
        POINTS,
    );
    let mut c = Cluster {
        members,
        client,
        twin,
        ids: Vec::new(),
        pool,
        latest: Vec::new(),
        changes: vec![0; CACHES * TENANTS],
        version: vec![0; CACHES],
        journaled: vec![0; CACHES * TENANTS],
        rng: Rng::new(args.seed, 0xC2),
    };
    for _ in 0..CACHES {
        let id = c
            .client
            .register(CAPACITY, TENANTS as u32)
            .map_err(|e| format!("register: {e}"))?;
        let twin_id = c.twin.register(CacheSpec::new(CAPACITY, TENANTS));
        if id != twin_id {
            return Err(format!("cluster minted {id}, twin {twin_id}"));
        }
        c.ids.push(id);
    }
    c.latest = (0..CACHES * TENANTS).map(|k| c.new_curve(k, 0)).collect();
    for k in 0..CACHES * TENANTS {
        let (id, t) = (c.ids[k / TENANTS], k % TENANTS);
        c.client
            .submit(id, t, c.latest[k].clone())
            .map_err(|e| format!("initial submit: {e}"))?;
        c.twin
            .submit(id, t, c.latest[k].clone())
            .map_err(|e| format!("twin submit: {e}"))?;
        c.changes[k] += 1;
        c.journaled[k] += 1;
    }
    let mut reports = Vec::new();
    loop {
        let r = c.client.run_epoch().map_err(|e| format!("epoch: {e}"))?;
        let done = r.report.remaining_dirty == 0;
        reports.push(r.report);
        if done {
            break;
        }
    }
    let mut summaries = Vec::with_capacity(CACHES);
    for &id in &c.ids {
        summaries.push(c.client.report(id).map_err(|e| format!("report: {e}"))?);
    }
    let mut check = Outcome::default();
    verify(
        &mut c,
        &reports,
        &summaries,
        &[true; CACHES],
        0,
        &mut check,
        None,
    );
    if let Some(e) = check.errors.first() {
        return Err(format!("set-up plans: {e}"));
    }
    Ok(c)
}

/// Replays the round on the twin (same submissions, same number of
/// epochs), then checks the cluster's epoch reports and plans against
/// the twin's, and the twin's against the offline planner.
fn verify(
    c: &mut Cluster,
    reports: &[EpochReport],
    summaries: &[Option<SnapshotSummary>],
    changed_cache: &[bool],
    round: u64,
    out: &mut Outcome,
    mut replay: Option<&mut Tracer>,
) {
    for (i, theirs) in reports.iter().enumerate() {
        let ours = c.twin.run_epoch();
        out.check(&ours == theirs, || {
            format!("round {round} epoch {i}: cluster report differs from the twin's")
        });
    }
    out.check(c.twin.pending() == 0, || {
        format!("round {round}: twin left dirty")
    });
    let planner = Planner::new(CAPACITY / 64);
    for (i, &id) in c.ids.iter().enumerate() {
        let twin = c.twin.snapshot(id);
        out.check(
            summaries[i] == twin.as_deref().map(SnapshotSummary::from),
            || format!("{id} round {round}: cluster plan differs from the twin's"),
        );
        let Some(snap) = twin else {
            out.check(false, || format!("{id}: no plan after round {round}"));
            continue;
        };
        let bump = changed_cache[i] as u64;
        out.check(snap.version == c.version[i] + bump, || {
            format!(
                "{id} round {round}: version {} after {} (changed: {})",
                snap.version, c.version[i], changed_cache[i]
            )
        });
        if changed_cache[i] {
            let curves = &c.latest[i * TENANTS..(i + 1) * TENANTS];
            match offline_plan(&planner, curves, CAPACITY, c.version[i]) {
                Ok(Some(plan)) => {
                    out.check(plan == snap.plan, || {
                        format!("{id} round {round}: plan differs from Planner::plan")
                    });
                    if let Err(e) = plan_properties(&plan, curves, CAPACITY, planner.grain, true) {
                        out.check(false, || format!("{id}: {e}"));
                    }
                }
                other => out.check(false, || format!("{id}: offline planner gave {other:?}")),
            }
            if let Some(t) = replay.as_deref_mut() {
                replay_planning(t, &planner, curves, CAPACITY, c.version[i]);
            }
        }
        c.version[i] = snap.version;
    }
}

/// Submits `batch` through the cluster client, one round trip per curve;
/// returns how many submissions were accepted.
fn submit_each(
    client: &mut ClusterClient,
    ids: &[CacheId],
    t: &mut Tracer,
    batch: &[(usize, MissCurve)],
    out: &mut Outcome,
) -> u64 {
    let mut accepted = 0;
    for (k, curve) in batch {
        let (id, tenant) = (ids[k / TENANTS], k % TENANTS);
        match t.span("serve.cluster.submit", |_| {
            client.submit(id, tenant, curve.clone())
        }) {
            Ok(()) => accepted += 1,
            Err(e) => out.check(false, || format!("submit {id}/{tenant}: {e}")),
        }
    }
    accepted
}

pub fn run(args: &Args) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        match setup(args) {
            Ok(c) => {
                out.setup_s.push(t.elapsed().as_secs_f64());
                kept = Some(c);
            }
            Err(e) => {
                out.errors.push(e);
                return out;
            }
        }
    }
    let mut c = kept.expect("set-up ran");
    let bytes_after_setup = c.journal_bytes();
    let mut tracer = Tracer::new(origin);
    let mut window = Window::open(args, WARMUP);
    let mut rounds = 0u64;
    let (mut dedup_skips, mut submissions) = (0u64, 0u64);
    let tenants = CACHES * TENANTS;
    while window.next() {
        let round = window.round as u64;
        let (measured, traced) = (window.measured(), window.traced());
        rounds += 1;
        // Untimed: pick the half of the tenants that change.
        let mut order: Vec<usize> = (0..tenants).collect();
        for i in 0..tenants / 2 {
            let j = i + c.rng.below((tenants - i) as u64) as usize;
            order.swap(i, j);
        }
        let (fresh_k, same_k) = order.split_at(tenants / 2);
        let fresh: Vec<(usize, MissCurve)> = fresh_k
            .iter()
            .map(|&k| (k, c.new_curve(k, round)))
            .collect();
        let same: Vec<(usize, MissCurve)> =
            same_k.iter().map(|&k| (k, c.latest[k].clone())).collect();
        let before = c.journal_bytes();

        tracer.set_enabled(traced);
        tracer.set_round(round as u32);
        let mut sw = Stopwatch::default();
        // Resubmissions first; the journals must not grow.
        sw.start();
        let mut accepted = tracer.span("round", |t| {
            submit_each(&mut c.client, &c.ids, t, &same, &mut out)
        });
        sw.stop();
        let after_same = c.journal_bytes();
        out.check(after_same == before, || {
            format!(
                "round {round}: resubmissions grew the journals by {} B",
                after_same - before
            )
        });
        let Cluster { client, ids, .. } = &mut c;
        let mut reports = Vec::new();
        let mut replans = 0u64;
        sw.start();
        let summaries: Vec<Option<SnapshotSummary>> = tracer.span("round", |t| {
            accepted += submit_each(client, ids, t, &fresh, &mut out);
            loop {
                match t.span("serve.cluster.epoch", |_| client.run_epoch()) {
                    Ok(r) => {
                        replans += r.report.planned.len() as u64;
                        out.check(r.unreachable.is_empty(), || "a member went dark".into());
                        let done = r.report.remaining_dirty == 0;
                        reports.push(r.report);
                        if done {
                            break;
                        }
                    }
                    Err(e) => {
                        out.check(false, || format!("epoch: {e}"));
                        break;
                    }
                }
            }
            ids.iter()
                .map(|&id| {
                    t.span("serve.cluster.report", |_| client.report(id))
                        .unwrap_or_else(|e| {
                            out.check(false, || format!("report {id}: {e}"));
                            None
                        })
                })
                .collect()
        });
        let timed = sw.take();
        if measured {
            out.attempted += (tenants + CACHES) as u64;
            out.failed += tenants as u64 - accepted;
            out.round(traced, timed, accepted, replans);
        }
        // Untimed: book-keeping, the twin, and the checks.
        let mut changed_cache = vec![false; CACHES];
        for (k, curve) in &fresh {
            changed_cache[k / TENANTS] = true;
            c.latest[*k] = curve.clone();
            c.changes[*k] += 1;
            c.journaled[*k] += 1;
        }
        for (k, curve) in fresh.iter().chain(&same) {
            let (id, tenant) = (c.ids[k / TENANTS], k % TENANTS);
            if let Err(e) = c.twin.submit(id, tenant, curve.clone()) {
                out.check(false, || format!("twin submit: {e}"));
            }
        }
        if measured {
            dedup_skips += same.len() as u64;
            submissions += tenants as u64;
        }
        tracer.span("check", |t| {
            verify(
                &mut c,
                &reports,
                &summaries,
                &changed_cache,
                round,
                &mut out,
                traced.then_some(t),
            );
        });
        if traced {
            tracer.span("replay", |t| {
                for (k, curve) in &fresh {
                    let req = Request::Submit {
                        entries: vec![SubmitEntry {
                            id: c.ids[k / TENANTS].value(),
                            tenant: (k % TENANTS) as u32,
                            curve: curve.clone(),
                        }],
                    };
                    let frame = t.span("serve.wire.encode", |_| wire::encode_request(&req));
                    t.count("serve.wire.bytes", frame.len() as f64);
                    t.count("serve.wire.curves", 1.0);
                    t.span("serve.wire.decode", |_| {
                        std::hint::black_box(wire::decode_request(&frame[4..]).ok())
                    });
                }
            });
        }
    }

    out.peak_rss_mb = crate::bench::peak_rss_mb();
    // The final state: every member's plane equals the twin's.
    for &id in &c.ids {
        let member = &c.members[c.client.member_for(id)];
        let (a, b) = (member.handle.service().snapshot(id), c.twin.snapshot(id));
        out.check(a == b, || {
            format!("{id}: final member snapshot differs from the twin's")
        });
    }
    // Journals hold one curve record per new curve, none per resubmission.
    let stores: Vec<&Store> = c.members.iter().map(|m| &*m.store).collect();
    let per_tenant = journaled_curves(&stores).unwrap_or_else(|e| {
        out.check(false, || e);
        Default::default()
    });
    for k in 0..tenants {
        let key = (c.ids[k / TENANTS].value(), (k % TENANTS) as u32);
        let got = per_tenant.get(&key).copied().unwrap_or(0);
        out.check(got == c.journaled[k], || {
            format!(
                "{key:?}: {got} curve records, {} new curves",
                c.journaled[k]
            )
        });
    }
    let journal_bytes = c.journal_bytes();
    let journaled: u64 = c.journaled.iter().sum();
    out.layer(
        "store.append_bytes_per_round",
        (journal_bytes - bytes_after_setup) as f64 / rounds.max(1) as f64,
        "B",
    );
    out.layer(
        "store.journal_bytes_per_curve",
        journal_bytes as f64 / journaled.max(1) as f64,
        "B",
    );
    let mut ledger = Ledger::default();
    ledger.add(&tracer);
    out.layer(
        "serve.cluster.submit_us",
        ledger.self_us("serve.cluster.submit"),
        "us",
    );
    out.layer(
        "serve.cluster.epoch_us",
        ledger.self_us("serve.cluster.epoch"),
        "us",
    );
    out.layer(
        "serve.cluster.report_us",
        ledger.self_us("serve.cluster.report"),
        "us",
    );
    crate::layers::wire_and_planning(&mut out, &ledger);
    out.layer("serve.router.dedup_skips", dedup_skips as f64, "count");
    out.layer(
        "serve.router.useful_submit_ratio",
        (submissions - dedup_skips) as f64 / submissions.max(1) as f64,
        "ratio",
    );
    out.layer(
        "sim.monitor.record_ns",
        c.pool.record_s * 1e9 / c.pool.accesses as f64,
        "ns",
    );
    crate::layers::finish(&mut out, &ledger, &[&tracer], args);
    drop(c.client);
    for m in c.members {
        m.handle.shutdown();
    }
    out
}
