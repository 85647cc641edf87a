//! `analytic_fleet`: an in-process 4-shard plane with about a thousand
//! 4-tenant caches on heterogeneous paper profiles; no socket, no
//! journal. Each round an eighth of the tenants (a seeded choice) get a
//! new `AnalyticModel` curve synthesised in the loop, and every other
//! tenant resubmits its previous curve unchanged, so planning and the
//! dedup path do the work.
//!
//! The fault kept here: `talus_core::apply_margin` panics when a plan's
//! ideal ρ exceeds `MAX_RHO` (an allocation just above a hull vertex).
//! A fixed set of one-tenant caches, on a curve that does not depend on
//! the seed, trips it during set-up; the plane quarantines them, and
//! every round their submissions fail. Seed-dependent curves that would
//! trip the same fault are redrawn (counted in
//! `workloads.analytic.redraws`), so the failed share is the same in
//! every run.

use crate::bench::{Args, Outcome, Rng, Stopwatch, Window, SETUP_REPEATS};
use crate::curves::{offline_plan, plan_properties, replay_planning, PROFILE_SCALE};
use crate::trace::{Ledger, Tracer};
use std::time::Instant;
use talus_core::MissCurve;
use talus_partition::{CachePlan, Planner};
use talus_serve::{CacheId, CacheSpec, ServeError, ShardedReconfigService};
use talus_workloads::{all_profiles, AnalyticModel, AppProfile};

const SHARDS: usize = 4;
const CACHES: usize = 1024;
const TENANTS: usize = 4;
const CAPACITIES: [u64; 3] = [4096, 8192, 16384];
/// Tenants given a new curve each round: one in eight.
const CHANGED: usize = CACHES * TENANTS / 8;
/// One-tenant caches on the fault's fixed curve.
const FAULT_CACHES: usize = 8;
const FAULT_CAPACITY: u64 = 8192;
const WARMUP: u32 = 3;
const MAX_REDRAWS: usize = 16;
const DP_SAMPLE: u64 = 8;

/// The fault's repro: planned at 8192 lines the allocation sits one line
/// above the vertex at 8191, ideal ρ = 16382/16383 > `MAX_RHO`, and
/// `apply_margin` panics. (At 8193 it plans fine.)
fn fault_curve() -> MissCurve {
    MissCurve::from_samples(&[0.0, 8191.0, 12000.0, 24574.0], &[0.9, 0.5, 0.5, 0.01])
        .expect("the fault curve is valid")
}

struct Tenant {
    profile: AppProfile,
    curve: MissCurve,
}

struct Fleet {
    plane: ShardedReconfigService,
    ids: Vec<CacheId>,
    capacity: Vec<u64>,
    tenants: Vec<Tenant>,
    version: Vec<u64>,
    fault_ids: Vec<CacheId>,
    rng: Rng,
    redraws: u64,
    curve_s: f64,
    curves_made: u64,
}

impl Fleet {
    /// A new curve for tenant `k`: its profile at a fresh footprint scale
    /// (a phase change), synthesised by the analytic model.
    fn synthesise(&mut self, k: usize, t: Option<&mut Tracer>) -> MissCurve {
        let factor = PROFILE_SCALE * (0.5 + 1.5 * self.rng.unit());
        let profile = self.tenants[k].profile.scaled(factor);
        let cap = self.capacity[k / TENANTS];
        let start = Instant::now();
        let curve = match t {
            Some(t) => t.span("workloads.analytic.curve", |_| {
                AnalyticModel::from_profile(&profile).curve(cap)
            }),
            None => AnalyticModel::from_profile(&profile).curve(cap),
        };
        self.curve_s += start.elapsed().as_secs_f64();
        self.curves_made += 1;
        curve
    }

    fn curves_of(&self, cache: usize) -> Vec<MissCurve> {
        self.tenants[cache * TENANTS..(cache + 1) * TENANTS]
            .iter()
            .map(|t| t.curve.clone())
            .collect()
    }

    /// The offline plan of `cache` with `fresh` replacing some tenants'
    /// curves. When it panics (the fault, on seed-dependent curves) every
    /// tenant of the cache gets a redrawn curve, since the offending
    /// vertex can sit in any tenant's hull; `fresh` then holds those that
    /// differ from the current curves. `None` if nothing changed or the
    /// redraws ran out.
    fn plan_or_redraw(
        &mut self,
        cache: usize,
        fresh: &mut Vec<(usize, MissCurve)>,
    ) -> Option<CachePlan> {
        let planner = Planner::new(self.capacity[cache] / 64);
        for _ in 0..MAX_REDRAWS {
            if fresh.is_empty() {
                return None;
            }
            let mut curves = self.curves_of(cache);
            for (k, c) in fresh.iter() {
                curves[k % TENANTS] = c.clone();
            }
            match offline_plan(&planner, &curves, self.capacity[cache], self.version[cache]) {
                Ok(plan) => return plan,
                Err(_) => {
                    self.redraws += 1;
                    fresh.clear();
                    for k in cache * TENANTS..(cache + 1) * TENANTS {
                        let c = self.synthesise(k, None);
                        if c != self.tenants[k].curve {
                            fresh.push((k, c));
                        }
                    }
                }
            }
        }
        None
    }
}

fn setup(args: &Args, out: &mut Outcome) -> Result<Fleet, String> {
    let mut sw = Stopwatch::default();
    sw.start();
    let profiles = all_profiles();
    let mut rng = Rng::new(args.seed, 0xF1);
    let plane = ShardedReconfigService::new(SHARDS);
    let mut ids = Vec::with_capacity(CACHES);
    let mut capacity = Vec::with_capacity(CACHES);
    for _ in 0..CACHES {
        let cap = CAPACITIES[rng.below(CAPACITIES.len() as u64) as usize];
        ids.push(plane.register(CacheSpec::new(cap, TENANTS)));
        capacity.push(cap);
    }
    let fault_ids: Vec<CacheId> = (0..FAULT_CACHES)
        .map(|_| plane.register(CacheSpec::new(FAULT_CAPACITY, 1)))
        .collect();
    let placeholder = MissCurve::from_samples(&[0.0, 1.0], &[1.0, 1.0]).expect("valid");
    let tenants = (0..CACHES * TENANTS)
        .map(|_| Tenant {
            profile: profiles[rng.below(profiles.len() as u64) as usize].clone(),
            curve: placeholder.clone(),
        })
        .collect();
    let mut f = Fleet {
        plane,
        ids,
        capacity,
        tenants,
        version: vec![0; CACHES],
        fault_ids,
        rng,
        redraws: 0,
        curve_s: 0.0,
        curves_made: 0,
    };
    let mut plans = Vec::with_capacity(CACHES);
    for cache in 0..CACHES {
        let mut fresh: Vec<(usize, MissCurve)> = (cache * TENANTS..(cache + 1) * TENANTS)
            .map(|k| (k, f.synthesise(k, None)))
            .collect();
        sw.stop();
        plans.push(f.plan_or_redraw(cache, &mut fresh));
        sw.start();
        for (k, curve) in fresh {
            f.tenants[k].curve = curve;
        }
    }
    for (k, t) in f.tenants.iter().enumerate() {
        f.plane
            .submit(f.ids[k / TENANTS], k % TENANTS, t.curve.clone())
            .map_err(|e| format!("initial submit: {e}"))?;
    }
    for &id in &f.fault_ids {
        f.plane
            .submit(id, 0, fault_curve())
            .map_err(|e| format!("fault-cache submit: {e}"))?;
    }
    let reports = f.plane.run_until_clean();
    sw.stop();
    // Checks: the quarantined set is exactly the set of caches whose
    // offline plan panics.
    let mut panicking: Vec<CacheId> = Vec::new();
    for cache in 0..CACHES {
        let planner = Planner::new(f.capacity[cache] / 64);
        if offline_plan(&planner, &f.curves_of(cache), f.capacity[cache], 0).is_err() {
            panicking.push(f.ids[cache]);
        }
    }
    for &id in &f.fault_ids {
        let planner = Planner::new(FAULT_CAPACITY / 64);
        if offline_plan(&planner, &[fault_curve()], FAULT_CAPACITY, 0).is_err() {
            panicking.push(id);
        }
    }
    panicking.sort_unstable();
    let quarantined: Vec<CacheId> = reports.iter().flat_map(|r| r.quarantined.clone()).collect();
    if f.plane.quarantined() != panicking || quarantined != panicking {
        return Err(format!(
            "quarantined {:?}, offline panics {panicking:?}",
            f.plane.quarantined()
        ));
    }
    if panicking != f.fault_ids {
        return Err(format!("fault caches {:?} did not all panic", f.fault_ids));
    }
    for (cache, plan) in plans.iter().enumerate() {
        check_cache(&mut f, cache, plan.as_ref(), true, 0, out);
    }
    out.setup_s.push(sw.take().as_secs_f64());
    Ok(f)
}

/// Checks one cache's published snapshot: the version bumped exactly
/// when a curve changed, and then the plan equals the offline plan. The
/// DP-optimality check runs on one changed cache in [`DP_SAMPLE`] (a
/// rotating choice), since the DP costs ~6 plans.
fn check_cache(
    f: &mut Fleet,
    cache: usize,
    expect: Option<&CachePlan>,
    changed: bool,
    round: u64,
    out: &mut Outcome,
) {
    let with_dp = (cache as u64 + round).is_multiple_of(DP_SAMPLE);
    let id = f.ids[cache];
    let Some(snap) = f.plane.snapshot(id) else {
        out.check(false, || format!("{id}: no plan after round {round}"));
        return;
    };
    out.check(snap.version == f.version[cache] + changed as u64, || {
        format!(
            "{id} round {round}: version {} after {} (changed: {changed})",
            snap.version, f.version[cache]
        )
    });
    if changed {
        match expect {
            Some(plan) => {
                out.check(*plan == snap.plan, || {
                    format!("{id} round {round}: plan differs from Planner::plan")
                });
                let cap = f.capacity[cache];
                if let Err(e) = plan_properties(plan, &f.curves_of(cache), cap, cap / 64, with_dp) {
                    out.check(false, || format!("{id}: {e}"));
                }
            }
            None => out.check(false, || format!("{id}: offline planner failed")),
        }
    }
    f.version[cache] = snap.version;
}

pub fn run(args: &Args) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        match setup(args, &mut out) {
            Ok(f) => kept = Some(f),
            Err(e) => {
                out.errors.push(e);
                return out;
            }
        }
    }
    let mut f = kept.expect("set-up ran");
    // Measure synthesis over the rounds only.
    f.curve_s = 0.0;
    f.curves_made = 0;
    f.redraws = 0;
    let mut tracer = Tracer::new(origin);
    let mut window = Window::open(args, WARMUP);
    let tenants = CACHES * TENANTS;
    let (mut dedup_skips, mut submissions) = (0u64, 0u64);
    while window.next() {
        let round = window.round as u64;
        let (measured, traced) = (window.measured(), window.traced());
        tracer.set_enabled(traced);
        tracer.set_round(round as u32);
        let mut sw = Stopwatch::default();
        // Which tenants change (untimed), then their curves (timed).
        let mut order: Vec<usize> = (0..tenants).collect();
        for i in 0..CHANGED {
            let j = i + f.rng.below((tenants - i) as u64) as usize;
            order.swap(i, j);
        }
        let mut changed: Vec<usize> = order[..CHANGED].to_vec();
        changed.sort_unstable();
        sw.start();
        let mut fresh: Vec<(usize, MissCurve)> = tracer.span("round", |t| {
            changed
                .iter()
                .map(|&k| (k, f.synthesise(k, Some(&mut *t))))
                .collect()
        });
        sw.stop();
        // Untimed: the reference plans (redrawing fault-tripping curves)
        // and the submissions, prepared so the timed loop only moves them.
        // A new curve equal to the tenant's current one (e.g. a scan wider
        // than the cache at either scale) is a resubmission.
        let mut by_cache: Vec<Vec<(usize, MissCurve)>> = vec![Vec::new(); CACHES];
        for (k, c) in fresh.drain(..) {
            if c != f.tenants[k].curve {
                by_cache[k / TENANTS].push((k, c));
            }
        }
        let mut expect: Vec<Option<CachePlan>> = vec![None; CACHES];
        for cache in 0..CACHES {
            if !by_cache[cache].is_empty() {
                let mut list = std::mem::take(&mut by_cache[cache]);
                expect[cache] = f.plan_or_redraw(cache, &mut list);
                by_cache[cache] = list;
            }
        }
        let mut batch: Vec<(CacheId, usize, MissCurve)> = f
            .tenants
            .iter()
            .enumerate()
            .map(|(k, t)| (f.ids[k / TENANTS], k % TENANTS, t.curve.clone()))
            .collect();
        for list in &by_cache {
            for (k, c) in list {
                batch[*k].2 = c.clone();
            }
        }
        batch.extend(f.fault_ids.iter().map(|&id| (id, 0, fault_curve())));
        let plane = &f.plane;
        let all_ids: Vec<CacheId> = f.ids.iter().chain(&f.fault_ids).copied().collect();
        let (mut accepted, mut failed, mut replans) = (0u64, 0u64, 0u64);
        let mut unexpected = Vec::new();
        sw.start();
        let snaps = tracer.span("round", |t| {
            for (id, tenant, curve) in batch {
                match t.span("serve.router.submit", |_| plane.submit(id, tenant, curve)) {
                    Ok(()) => accepted += 1,
                    Err(ServeError::Quarantined(q)) if f.fault_ids.contains(&q) => failed += 1,
                    Err(e) => {
                        failed += 1;
                        unexpected.push(format!("submit {id}/{tenant}: {e}"));
                    }
                }
            }
            while plane.pending() > 0 {
                let r = t.span("serve.router.epoch", |_| plane.run_epoch());
                replans += r.planned.len() as u64;
                if !r.failed.is_empty() || !r.quarantined.is_empty() {
                    unexpected.push(format!(
                        "epoch {}: failed {:?}, quarantined {:?}",
                        r.epoch, r.failed, r.quarantined
                    ));
                }
            }
            all_ids
                .iter()
                .map(|&id| t.span("serve.router.snapshot", |_| plane.snapshot(id)))
                .collect::<Vec<_>>()
        });
        let timed = sw.take();
        for e in &unexpected {
            out.check(false, || format!("round {round}: {e}"));
        }
        if measured {
            out.attempted += (tenants + FAULT_CACHES + all_ids.len()) as u64;
            out.failed += failed;
            out.round(traced, timed, accepted, replans);
            let new_curves: usize = by_cache.iter().map(Vec::len).sum();
            dedup_skips += (tenants - new_curves) as u64;
            submissions += tenants as u64;
        }
        out.check(snaps.len() == CACHES + FAULT_CACHES, || {
            "snapshot count".into()
        });
        // Untimed: book-keeping and checks.
        for list in &by_cache {
            for (k, c) in list {
                f.tenants[*k].curve = c.clone();
            }
        }
        tracer.span("check", |t| {
            for cache in 0..CACHES {
                let changed = !by_cache[cache].is_empty();
                check_cache(
                    &mut f,
                    cache,
                    expect[cache].as_ref(),
                    changed,
                    round,
                    &mut out,
                );
                if changed && t.enabled() {
                    let cap = f.capacity[cache];
                    let planner = Planner::new(cap / 64);
                    let prev = f.version[cache] - 1;
                    replay_planning(t, &planner, &f.curves_of(cache), cap, prev);
                }
            }
        });
        out.check(f.plane.quarantined() == f.fault_ids, || {
            format!("round {round}: quarantined set changed")
        });
    }
    out.peak_rss_mb = crate::bench::peak_rss_mb();
    let mut ledger = Ledger::default();
    ledger.add(&tracer);
    out.layer(
        "serve.router.submit_us",
        ledger.self_us("serve.router.submit"),
        "us",
    );
    out.layer(
        "serve.router.epoch_ms",
        ledger.self_us("serve.router.epoch") / 1e3,
        "ms",
    );
    out.layer(
        "serve.router.snapshot_us",
        ledger.self_us("serve.router.snapshot"),
        "us",
    );
    out.layer("serve.router.dedup_skips", dedup_skips as f64, "count");
    out.layer(
        "serve.router.useful_submit_ratio",
        (submissions - dedup_skips) as f64 / submissions.max(1) as f64,
        "ratio",
    );
    out.layer(
        "workloads.analytic.curve_us",
        f.curve_s * 1e6 / f.curves_made.max(1) as f64,
        "us",
    );
    out.layer("workloads.analytic.redraws", f.redraws as f64, "count");
    crate::layers::wire_and_planning(&mut out, &ledger);
    crate::layers::finish(&mut out, &ledger, &[&tracer], args);
    out
}
