//! `offline_grid`: what `fit` and every grid experiment cost.
//!
//! The grid is the paper's 11 read ratios x 6 configurations (default,
//! the other compaction method, `concurrent_writes` min and max,
//! `file_cache_size_in_mb` 32 MB — smaller than the 60 MB of user data —
//! and 512 MB — larger) = 66 points over 60,000 keys x 1,000 B with 64
//! simulated closed-loop clients. A *request* is one
//! `EvalContext::run_grid` call over one read ratio's six points; an *op*
//! is one measured simulated engine operation. Passes over the eleven
//! read ratios repeat, each the same work, until the time is up.

use crate::catalog::{fill_idle, Values};
use crate::common::{
    drive_point, eval_context, key_space, note_stolen, repeated_setup, Region, RunArgs, RunOutput,
};
use crate::spans::{self, NameTotal, Tracer};
use crate::stat;
use rafiki::{CollectionPlan, EvalContext, GridPoint};
use rafiki_workload::BenchmarkResult;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const KEYS: u64 = 60_000;
const CLIENTS: usize = 64;
/// Simulated seconds per point: long enough for several flush and
/// compaction cycles at every read ratio (a write-heavy point writes
/// ~130 MB), short enough that a pass fits the run twice.
const WARMUP_S: f64 = 0.25;
const MEASURED_S: f64 = 0.75;
const CONFIGS: usize = 6;
/// Latency is taken over the eleven calls' median walls, one per read
/// ratio: p75 is the cost of the slower read ratios, not a tail (eleven
/// values support none by the ten-beyond rule, and the run says so).
const TAIL_Q: f64 = 0.75;
/// How far a point's observed read ratio may sit from the one asked for.
const RR_TOLERANCE: f64 = 0.03;

/// One read ratio's call: the ratio and its six points.
type Call = (f64, Vec<GridPoint>);

struct Setup {
    ctx: EvalContext,
    calls: Vec<Call>,
    /// `run_grid` and `run_grid_sequential` over the check subset.
    parallel: Vec<BenchmarkResult>,
    sequential: Vec<BenchmarkResult>,
}

fn sim_seconds(smoke: bool) -> (f64, f64) {
    if smoke {
        (0.02, 0.05)
    } else {
        (WARMUP_S, MEASURED_S)
    }
}

fn setup(args: &RunArgs) -> Setup {
    let (warmup, measured) = sim_seconds(args.smoke);
    let keys = if args.smoke { 10_000 } else { KEYS };
    let ctx = eval_context(keys, CLIENTS, warmup, measured, args.seed);
    let space = key_space();
    let genomes = CollectionPlan {
        configurations: CONFIGS,
        seed: args.seed,
        ..CollectionPlan::default()
    }
    .sample_genomes(&space);
    let calls: Vec<Call> = (0..=10)
        .map(|i| {
            let rr = i as f64 / 10.0;
            let points = genomes
                .iter()
                .map(|g| (rr, space.config_from_genome(g)))
                .collect();
            (rr, points)
        })
        .collect();
    // The determinism contract on a 4-point subset (both compaction
    // layouts, write- and read-heavy), at a tenth of the simulated time.
    // Doubles as the warm-up of allocator and caches.
    let check_ctx = EvalContext {
        bench: rafiki_workload::BenchmarkSpec {
            warmup_secs: warmup / 10.0,
            duration_secs: measured / 10.0,
            sample_window_secs: measured / 10.0,
            ..ctx.bench
        },
        ..ctx.clone()
    };
    let subset: Vec<GridPoint> = [2usize, 8]
        .iter()
        .flat_map(|&c| calls[c].1[..2].to_vec())
        .collect();
    let parallel = check_ctx.run_grid(&subset);
    let sequential = check_ctx.run_grid_sequential(&subset);
    Setup {
        ctx,
        calls,
        parallel,
        sequential,
    }
}

/// Checks one point's result; returns whether it holds.
fn point_ok(out: &mut RunOutput, rr: f64, index: usize, r: &BenchmarkResult) -> bool {
    let sums = r.read_ops + r.write_ops == r.total_ops && r.total_ops > 0;
    let observed = r.observed_read_ratio();
    let ratio = (observed - rr).abs() <= RR_TOLERANCE;
    out.check(sums && ratio, || {
        format!(
            "point rr={rr} config {index}: reads {} + writes {} vs total {}, observed rr {observed:.3}",
            r.read_ops, r.write_ops, r.total_ops
        )
    });
    sums && ratio
}

pub fn run(args: &RunArgs) -> RunOutput {
    let mut out = RunOutput::default();
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);

    let (s, setup_s) = repeated_setup(|| setup(args), drop);
    out.check(s.parallel == s.sequential && s.parallel.len() == 4, || {
        "run_grid and run_grid_sequential disagree on the 4-point subset".to_string()
    });

    // Timed region: passes over the eleven calls, stopping at the first
    // call boundary past the deadline (never before one full pass).
    let n_calls = s.calls.len();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); n_calls];
    let mut cpus: Vec<Vec<f64>> = vec![Vec::new(); n_calls];
    let mut stolen: Vec<Vec<bool>> = vec![Vec::new(); n_calls];
    let mut ops_per_call = vec![0u64; n_calls];
    let mut sim_rates: Vec<f64> = Vec::new();
    let mut call_index = 0usize;
    let region = Region::start();
    loop {
        let c = call_index % n_calls;
        let (rr, points) = &s.calls[c];
        let span = tracer.open("run_grid", call_index as u64);
        let call = Region::start();
        let results = catch_unwind(AssertUnwindSafe(|| s.ctx.run_grid(points)));
        let (wall, cpu, lost) = (call.wall_s(), call.cpu_s(), call.stolen());
        tracer.close(span);
        out.attempted += points.len() as u64;
        match results {
            Ok(results) => {
                walls[c].push(wall);
                cpus[c].push(cpu);
                stolen[c].push(lost);
                let ops: u64 = results.iter().map(|r| r.total_ops).sum();
                if call_index < n_calls {
                    ops_per_call[c] = ops;
                    sim_rates.extend(results.iter().map(|r| r.avg_ops_per_sec));
                } else {
                    out.check(ops == ops_per_call[c], || {
                        format!(
                            "rr={rr}: a repeated pass measured {ops} ops, the first {}",
                            ops_per_call[c]
                        )
                    });
                }
                for (i, r) in results.iter().enumerate() {
                    if !point_ok(&mut out, *rr, i, r) {
                        out.failed += 1;
                    }
                }
            }
            Err(_) => {
                out.failed += points.len() as u64;
                out.problems.push(format!("run_grid panicked at rr={rr}"));
            }
        }
        call_index += 1;
        let stop = region.wall_s() >= args.seconds || !out.correct();
        if call_index >= n_calls && stop {
            break;
        }
    }
    if !out.correct() {
        return out;
    }

    // One pass's cost, each call at its median over the passes run: a
    // burst of interference from the host moves one sample of one call,
    // not the number.
    let median = |samples: &[Vec<f64>]| -> Vec<f64> {
        let per_call = samples.iter().zip(&stolen);
        per_call
            .map(|(x, s)| stat::median_undisturbed(x, s))
            .collect()
    };
    let mut call_wall = median(&walls);
    let pass_wall: f64 = call_wall.iter().sum();
    let pass_cpu: f64 = median(&cpus).iter().sum();
    note_stolen(&mut out, "run_grid calls", &stolen.concat());
    let pass_ops: u64 = ops_per_call.iter().sum();
    let ops_per_s = pass_ops as f64 / pass_wall;

    let v = &mut out.values;
    if !args.trace {
        v.insert("setup_s", setup_s);
        v.insert("ops_per_s", ops_per_s);
        v.insert("cpu_us_per_op", pass_cpu * 1e6 / pass_ops as f64);
        v.insert(
            "sim_ops_per_s",
            sim_rates.iter().sum::<f64>() / sim_rates.len() as f64,
        );
        stat::sort(&mut call_wall);
        v.insert("lat_p50_us", stat::quantile_sorted(&call_wall, 0.5) * 1e6);
        v.insert(
            "lat_tail_us",
            stat::quantile_sorted(&call_wall, TAIL_Q) * 1e6,
        );
        out.notes
            .push(format!("latency: {}", stat::tail_note(n_calls, TAIL_Q)));
        return out;
    }

    v.insert("bench.traced_ops_per_s", ops_per_s);
    let class_rate = |lo: f64, hi: f64| {
        let (points, wall) = s
            .calls
            .iter()
            .zip(&call_wall)
            .filter(|((rr, _), _)| *rr >= lo - 1e-9 && *rr <= hi + 1e-9)
            .fold((0usize, 0.0), |(p, w), ((_, pts), cw)| {
                (p + pts.len(), w + cw)
            });
        points as f64 / wall
    };
    v.insert("grid.write_points_per_s", class_rate(0.0, 0.2));
    v.insert("grid.mixed_points_per_s", class_rate(0.3, 0.7));
    v.insert("grid.read_points_per_s", class_rate(0.8, 1.0));
    let measured_ops = attribute(&s, &mut tracer, &mut out);

    let costs = crate::probes::run(args, None);
    let totals = spans::totals_by_name(tracer.spans());
    shares(
        &mut out.values,
        &totals,
        costs.values["stats.hist_record_ns"] * measured_ops as f64,
    );
    out.values.extend(costs.values);
    out.values
        .insert("bench.spans_recorded", tracer.spans().len() as f64);
    fill_idle(&mut out.values);
    out.trace = Some(spans::trace_json(
        "offline_grid",
        args.seed,
        &[tracer.spans()],
        &totals,
    ));
    out
}

/// The sequential attribution pass: three read ratios' points through
/// the benchmark's own driver (stage spans) and through
/// `measure_detailed_seeded_snapshot` (the reference it must equal),
/// then the same points through one `run_grid` call for the parallel
/// efficiency. Returns the operations the own driver measured.
fn attribute(s: &Setup, tracer: &mut Tracer, out: &mut RunOutput) -> u64 {
    let ctx = &s.ctx;
    let points: Vec<GridPoint> = [1usize, 5, 9]
        .iter()
        .flat_map(|&c| s.calls[c].1.clone())
        .collect();
    let snapshot = ctx.snapshot();
    // Build both layouts before timing anything against them.
    for (rr, cfg) in &points[..2] {
        ctx.measure_detailed_seeded_snapshot(*rr, cfg, 0, Some(&snapshot));
    }
    let (mut own_s, mut reference_s, mut measured_ops) = (0.0, 0.0, 0u64);
    for (i, (rr, cfg)) in points.iter().enumerate() {
        let seed = ctx.point_seed(i);
        let t = Instant::now();
        let driven = drive_point(ctx, *rr, cfg, seed, &snapshot, tracer, i as u64);
        own_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let reference = ctx.measure_detailed_seeded_snapshot(*rr, cfg, seed, Some(&snapshot));
        reference_s += t.elapsed().as_secs_f64();
        measured_ops += driven.result.total_ops;
        out.attempted += 1;
        if driven.result != reference {
            out.failed += 1;
            out.problems.push(format!(
                "own driver measured {} ops at rr={rr} point {i}, run_benchmark {}",
                driven.result.total_ops, reference.total_ops
            ));
        }
    }
    let t = Instant::now();
    let parallel = ctx.run_grid(&points);
    let parallel_s = t.elapsed().as_secs_f64();
    out.check(parallel.len() == points.len(), || {
        "short run_grid result".to_string()
    });

    let totals = spans::totals_by_name(tracer.spans());
    let total = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
    let stage_sum = (total("hydrate") + total("drive") + total("summarize")) / total("point");
    out.check((stage_sum - 1.0).abs() <= 0.05, || {
        format!("stage times sum to {stage_sum:.3} of the points' wall")
    });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let v = &mut out.values;
    v.insert("grid.stage_sum_ratio", stage_sum);
    v.insert(
        "grid.own_driver_overhead_pct",
        (own_s / reference_s - 1.0) * 100.0,
    );
    // Not reported as 1.0 on a single core: there it says nothing.
    let efficiency = if cores > 1 {
        reference_s / parallel_s / cores as f64
    } else {
        0.0
    };
    v.insert("stats.parallel_efficiency", efficiency);
    measured_ops
}

/// Layer shares of the attribution pass's wall: `workload` generates the
/// operations, `stats` is the latency histogram inside `summarize`
/// (every measured completion recorded once, at its replayed unit
/// cost), `engine` is the rest of hydrate + step + summarize, `other`
/// the driver's own glue.
fn shares(v: &mut Values, totals: &BTreeMap<&'static str, NameTotal>, hist_ns: f64) {
    let self_ns = |name: &str| totals.get(name).map_or(0, |t| t.self_ns) as f64;
    let point = totals.get("point").map_or(1, |t| t.total_ns) as f64;
    let stats = hist_ns.min(self_ns("summarize"));
    let engine = self_ns("hydrate") + self_ns("step") + self_ns("summarize") - stats;
    v.insert("share.engine", engine / point);
    v.insert("share.workload", self_ns("gen") / point);
    v.insert("share.stats", stats / point);
    v.insert("share.other", (self_ns("point") + self_ns("drive")) / point);
}
