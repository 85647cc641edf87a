//! Curve production and the references the plane's outputs are checked
//! against: the offline planner, the DP optimum, and curve distances.

use crate::bench::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use talus_core::MissCurve;
use talus_partition::{optimal_dp, total_misses, CachePlan, Planner};
use talus_serve::wire::{ShadowSummary, TenantSummary};
use talus_sim::monitor::{Monitor, SampledMattson};
use talus_sim::LineAddr;
use talus_workloads::{all_profiles, AccessGenerator};

/// Footprint scale applied to every paper profile (keeps working sets
/// within a few MB so a run stays short).
pub const PROFILE_SCALE: f64 = 1.0 / 64.0;

/// A pool of monitor-measured curves: `pool[stream][interval]`.
#[derive(Debug)]
pub struct MonitorPool {
    pub curves: Vec<Vec<MissCurve>>,
    /// Accesses the monitors recorded while building the pool.
    pub accesses: u64,
    /// Seconds spent inside `SampledMattson::record_block`.
    pub record_s: f64,
}

/// Measures `streams` tenant access streams with a `SampledMattson`
/// (1-in-8 sampling) for `intervals` intervals of `interval` accesses
/// each, producing one curve per interval on a `points`-point grid over
/// `[0, cap]`. Stream `i` runs paper profile `i` (in `all_profiles`
/// order), so every seed has the same mix of curve shapes and the same
/// planning work; the seed drives the access streams.
pub fn monitor_pool(
    seed: u64,
    streams: usize,
    intervals: usize,
    interval: usize,
    cap: u64,
    points: u64,
) -> MonitorPool {
    let profiles = all_profiles();
    let grid: Vec<u64> = (1..=points).map(|i| i * cap / points).collect();
    let mut rng = Rng::new(seed, 0x9001);
    let mut buf = vec![LineAddr(0); interval];
    let mut record_s = 0.0;
    let mut curves = Vec::with_capacity(streams);
    for s in 0..streams {
        let profile = profiles[s % profiles.len()].scaled(PROFILE_SCALE);
        let mut gen = profile.generator(rng.next_u64(), 0);
        let mut mon = SampledMattson::new(cap, 8, seed ^ s as u64);
        let mut list = Vec::with_capacity(intervals);
        for _ in 0..intervals {
            for slot in buf.iter_mut() {
                *slot = gen.next_line();
            }
            let t = Instant::now();
            mon.record_block(&buf);
            record_s += t.elapsed().as_secs_f64();
            list.push(mon.curve_on_grid(&grid));
            mon.reset();
        }
        curves.push(list);
    }
    MonitorPool {
        curves,
        accesses: (streams * intervals * interval) as u64,
        record_s,
    }
}

/// A copy of `curve` with every miss value scaled by `1 - k·1e-7`: a
/// distinct, still-valid curve for the `k`-th submission of a pooled
/// curve, so no submission is a bit-identical resubmission.
pub fn perturbed(curve: &MissCurve, k: u64) -> MissCurve {
    curve.scaled(1.0 - (k % 1_000_000) as f64 * 1e-7)
}

/// The plan the plane should publish, computed apart from it: `Ok(None)`
/// if `Planner::plan` returns an error, `Err` if it panics.
pub fn offline_plan(
    planner: &Planner,
    curves: &[MissCurve],
    capacity: u64,
    round: u64,
) -> Result<Option<CachePlan>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        planner.plan(curves, capacity, round).ok()
    }))
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into())
    })
}

/// Properties every published plan must have: allocations sum to the
/// capacity, and on the hulls the hill-climb total equals the exact DP
/// optimum within 1e-9 relative (hill climbing is optimal on convex
/// curves). `with_dp = false` skips the DP, the costly half.
pub fn plan_properties(
    plan: &CachePlan,
    curves: &[MissCurve],
    capacity: u64,
    grain: u64,
    with_dp: bool,
) -> Result<(), String> {
    let alloc = plan.allocations();
    let sum: u64 = alloc.iter().sum();
    if sum != capacity {
        return Err(format!("allocations sum to {sum}, capacity {capacity}"));
    }
    if !with_dp {
        return Ok(());
    }
    let hulls: Vec<MissCurve> = curves.iter().map(|c| c.convex_hull().to_curve()).collect();
    let hill = total_misses(&hulls, &alloc);
    let best = total_misses(&hulls, &optimal_dp(&hulls, capacity, grain));
    if (hill - best).abs() > 1e-9 * best.abs().max(1e-12) {
        return Err(format!("hill-climb total {hill} != DP optimum {best}"));
    }
    Ok(())
}

/// The wire summary of a plan's tenants, as a `Report` reply carries it.
pub fn summarize(plan: &CachePlan) -> Vec<TenantSummary> {
    plan.tenants
        .iter()
        .map(|t| TenantSummary {
            capacity: t.capacity,
            expected_misses: t.plan.expected_misses(),
            shadow: t.plan.shadow().map(|s| ShadowSummary {
                alpha: s.alpha,
                beta: s.beta,
                rho: s.rho,
            }),
        })
        .collect()
}

/// L∞ distance between two curves over the sizes of both grids inside
/// `[0, max]`.
pub fn linf(a: &MissCurve, b: &MissCurve, max: f64) -> f64 {
    a.points()
        .iter()
        .chain(b.points())
        .map(|p| p.size)
        .filter(|&s| s <= max)
        .map(|s| (a.value_at(s) - b.value_at(s)).abs())
        .fold(0.0, f64::max)
}

/// Replays one cache's latest curves through the planning layers outside
/// the plane, one span each: the whole `Planner::plan`, then its parts
/// (hulls, allocation, shadow plans) separately.
pub fn replay_planning(
    t: &mut crate::trace::Tracer,
    planner: &Planner,
    curves: &[MissCurve],
    capacity: u64,
    round: u64,
) {
    use std::hint::black_box;
    use talus_core::{plan_with_hull, ConvexHull};
    t.span("partition.plan", |_| {
        black_box(planner.plan(black_box(curves), capacity, round).ok())
    });
    let hulls: Vec<ConvexHull> = t.span("core.hull", |_| {
        curves
            .iter()
            .map(|c| ConvexHull::of_curve(black_box(c)))
            .collect()
    });
    let sizes = t.span("partition.allocate", |_| {
        planner.allocate(black_box(curves), capacity, round)
    });
    t.span("core.shadow_plan", |_| {
        for (hull, &size) in hulls.iter().zip(&sizes) {
            black_box(plan_with_hull(hull, size as f64, planner.options).ok());
        }
    });
}

/// Curve records per `(cache id, tenant)` across `stores`' journals: what
/// the plane journaled, to hold against what the harness submitted.
pub fn journaled_curves(
    stores: &[&talus_store::Store],
) -> Result<std::collections::HashMap<(u64, u32), u64>, String> {
    let mut per_tenant = std::collections::HashMap::new();
    for store in stores {
        for shard in 0..store.shards() {
            let scan = store
                .replay_shard(shard)
                .map_err(|e| format!("replay of journal shard {shard}: {e}"))?;
            for rec in scan.records {
                if let talus_store::Record::Curve { id, tenant, .. } = rec {
                    *per_tenant.entry((id, tenant)).or_default() += 1;
                }
            }
        }
    }
    Ok(per_tenant)
}
