//! `tune_job`: the paper's pipeline, fit -> search -> applied config.
//!
//! Whole jobs repeat until the time is up, job `j` on its own lane of
//! the seed. One job is five phases, timed apart:
//!
//! - `collect` — `CollectionPlan` 8 configurations x 5 read ratios on a
//!   quick context (30,000 keys, 32 clients);
//! - `train` — `SurrogateModel::fit`, the paper's 6->[14,4]->1 shape, 6
//!   networks of which 30% are pruned;
//! - `search` — per paper read ratio, `RafikiTuner::optimize` with
//!   `GaConfig::default()` (~3,351 surrogate calls) plus BestConfig,
//!   latent and random search on the same budget through
//!   `optimize_with_strategy`;
//! - `replay` — `OnlineController::observe_window` over a 4-day MG-RAST
//!   trace (384 windows), every call timed;
//! - `apply` — at rr 0.1 / 0.5 / 0.9: hydrate a default engine at
//!   experiment scale, `Engine::reconfigure` it to the GA winner, then
//!   measure winner and default on the simulated clock.
//!
//! An *op* is one job; a *request* is one `observe_window` call that
//! re-optimized (the paper's ~1.8 s search). What the tuner picked is
//! scored from job 0 alone, so it repeats exactly for a seed however
//! many jobs the host fits in.

use crate::catalog::{fill_idle, Values};
use crate::common::{eval_context, note_stolen, repeated_setup, Region, RunArgs, RunOutput};
use crate::probes;
use crate::spans::{self, Tracer};
use crate::stat;
use crate::stream::{self, lane};
use crate::tuning::{self, FitSpec};
use rafiki::{ControllerConfig, EvalContext, OnlineController, OptimizedConfig, PerfDataset};
use rafiki_engine::{Engine, EngineConfig, EngineSnapshot};
use rafiki_workload::WorkloadTrace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const APPLY_RRS: [f64; 3] = [0.1, 0.5, 0.9];
/// A job's ~125 re-optimizing calls support p90 (ten samples beyond).
const TAIL_Q: f64 = 0.90;

fn job_fit(smoke: bool) -> FitSpec {
    FitSpec {
        keys: if smoke { 5_000 } else { 30_000 },
        clients: 32,
        sim_s: if smoke { (0.01, 0.03) } else { (0.05, 0.2) },
        configurations: 8,
        read_ratios: vec![0.0, 0.25, 0.5, 0.75, 1.0],
        ensemble: 6,
        epochs: if smoke { 10 } else { 80 },
    }
}

/// What set-up builds: the experiment-scale context the `apply` phase
/// measures on, with both preload layouts already in its snapshot.
struct Shared {
    apply_ctx: EvalContext,
    snapshot: EngineSnapshot,
}

fn setup(args: &RunArgs) -> Shared {
    let apply_ctx = if args.smoke {
        eval_context(10_000, 64, 0.02, 0.05, args.seed)
    } else {
        eval_context(60_000, 64, 0.2, 0.5, args.seed)
    };
    let snapshot = apply_ctx.snapshot();
    for method in [
        rafiki_engine::CompactionMethod::SizeTiered,
        rafiki_engine::CompactionMethod::Leveled,
    ] {
        let cfg = EngineConfig {
            compaction_method: method,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(cfg, apply_ctx.server);
        engine.preload_from(&snapshot);
    }
    Shared {
        apply_ctx,
        snapshot,
    }
}

/// What one job found.
struct Job {
    wall_s: f64,
    cpu_s: f64,
    /// The hypervisor gave much of this job's time to someone else.
    stolen: bool,
    /// Wall of each `observe_window` call, by whether it re-optimized.
    reopt_s: Vec<f64>,
    hold_s: Vec<f64>,
    switches: usize,
    /// Per `APPLY_RRS`: (winner, measured winner ops/s, measured default).
    applied: Vec<(OptimizedConfig, f64, f64)>,
    data: PerfDataset,
    epochs: usize,
    kept: usize,
    /// Simulated operations measured while collecting and applying.
    sim_ops: f64,
}

fn run_job(
    args: &RunArgs,
    shared: &Shared,
    j: u64,
    tracer: &mut Tracer,
    out: &mut RunOutput,
) -> Job {
    let seed = lane(args.seed, 100 + j);
    let fit = job_fit(args.smoke);
    let whole = Region::start();
    let job = tracer.open("job", j);

    let span = tracer.open("collect", j);
    let data = fit.collect(seed);
    tracer.close(span);
    let mut sim_ops: f64 = data
        .samples
        .iter()
        .map(|s| s.throughput * fit.sim_s.1)
        .sum();

    let span = tracer.open("train", j);
    let model = fit.train(&data, seed);
    tracer.close(span);
    let epochs = model.reports().iter().map(|r| r.epochs).sum();
    let kept = model.ensemble_size();
    let tuner = fit.install(model, data.clone(), seed);
    let space = tuner.space().expect("installed").clone();

    let span = tracer.open("search", j);
    let mut ga_winners = Vec::new();
    for i in 0..=10 {
        let rr = i as f64 / 10.0;
        let mut winners = vec![tuner.optimize(rr).expect("installed")];
        for strategy in tuning::strategies(&space.to_ga_space(), seed)
            .iter_mut()
            .skip(1)
        {
            winners.push(
                tuner
                    .optimize_with_strategy(rr, strategy.as_mut())
                    .expect("installed"),
            );
        }
        for w in &winners {
            out.attempted += 1;
            // `validate` panics on an out-of-range knob.
            let valid = catch_unwind(AssertUnwindSafe(|| w.config.validate())).is_ok()
                && space.genome_of(&w.config) == w.genome;
            if !valid {
                out.failed += 1;
                out.problems
                    .push(format!("a search winner at rr={rr} is not a valid config"));
            }
        }
        ga_winners.push(winners.swap_remove(0));
    }
    tracer.close(span);

    let span = tracer.open("replay", j);
    let trace: WorkloadTrace = stream::mgrast_trace(lane(seed, 1));
    let mut controller =
        OnlineController::new(&tuner, ControllerConfig::default()).expect("installed");
    let (mut reopt_s, mut hold_s, mut switches) = (Vec::new(), Vec::new(), 0usize);
    for w in &trace.windows {
        let at = tracer.clock_ns();
        let t = Instant::now();
        let decision = controller.observe_window(w.index, w.read_ratio);
        let dt = t.elapsed();
        out.attempted += 1;
        match decision {
            Ok(d) if d.reoptimized => {
                tracer.record("decide_reopt", j, at, at + dt.as_nanos() as u64);
                reopt_s.push(dt.as_secs_f64());
                switches += d.switched as usize;
            }
            Ok(_) => {
                tracer.record("decide_hold", j, at, at + dt.as_nanos() as u64);
                hold_s.push(dt.as_secs_f64());
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("observe_window failed: {e}"));
            }
        }
    }
    tracer.close(span);

    let span = tracer.open("apply", j);
    let ctx = &shared.apply_ctx;
    let mut applied = Vec::new();
    for (k, rr) in APPLY_RRS.into_iter().enumerate() {
        let winner = ga_winners[(rr * 10.0).round() as usize].clone();
        let s = tracer.open("hydrate", j);
        let mut engine = Engine::new(EngineConfig::default(), ctx.server);
        engine.preload_from(&shared.snapshot);
        tracer.close(s);
        let s = tracer.open("reconfigure", j);
        engine.reconfigure(winner.config.clone());
        tracer.close(s);
        out.attempted += 1;
        if engine.config() != &winner.config {
            out.failed += 1;
            out.problems.push(format!(
                "the engine applied at rr={rr} does not run the winner"
            ));
        }
        let s = tracer.open("measure", j);
        let point_seed = lane(seed, 10 + k as u64);
        let measure = |cfg: &EngineConfig| {
            ctx.measure_detailed_seeded_snapshot(rr, cfg, point_seed, Some(&shared.snapshot))
        };
        let (tuned, default) = (measure(&winner.config), measure(&EngineConfig::default()));
        tracer.close(s);
        sim_ops += (tuned.total_ops + default.total_ops) as f64;
        applied.push((winner, tuned.avg_ops_per_sec, default.avg_ops_per_sec));
    }
    tracer.close(span);
    tracer.close(job);
    Job {
        wall_s: whole.wall_s(),
        cpu_s: whole.cpu_s(),
        stolen: whole.stolen(),
        reopt_s,
        hold_s,
        switches,
        applied,
        data,
        epochs,
        kept,
        sim_ops,
    }
}

pub fn run(args: &RunArgs) -> RunOutput {
    let mut out = RunOutput::default();
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let (shared, setup_s) = repeated_setup(|| setup(args), drop);

    let mut jobs: Vec<Job> = Vec::new();
    let region = Region::start();
    loop {
        let j = jobs.len() as u64;
        jobs.push(run_job(args, &shared, j, &mut tracer, &mut out));
        if region.wall_s() >= args.seconds || !out.problems.is_empty() {
            break;
        }
    }
    if !out.correct() {
        return out;
    }

    // Every number is the median over the jobs run, so a burst of
    // interference from the host moves one job, not the number.
    let first = &jobs[0];
    let stolen: Vec<bool> = jobs.iter().map(|j| j.stolen).collect();
    note_stolen(&mut out, "jobs", &stolen);
    let over_jobs = |f: &dyn Fn(&Job) -> f64| {
        stat::median_undisturbed(&jobs.iter().map(f).collect::<Vec<_>>(), &stolen)
    };
    let ops_per_s = 1.0 / over_jobs(&|j| j.wall_s);
    let tuned: Vec<f64> = first.applied.iter().map(|a| a.1).collect();
    if !args.trace {
        let quantile = |j: &Job, q: f64| {
            let mut reopt = j.reopt_s.clone();
            stat::sort(&mut reopt);
            stat::quantile_sorted(&reopt, q) * 1e6
        };
        out.notes.push(format!(
            "latency per job, median over {} jobs: {}",
            jobs.len(),
            stat::tail_note(first.reopt_s.len(), TAIL_Q)
        ));
        let v = &mut out.values;
        v.insert("setup_s", setup_s);
        v.insert("ops_per_s", ops_per_s);
        v.insert("cpu_us_per_op", over_jobs(&|j| j.cpu_s) * 1e6);
        v.insert("lat_p50_us", over_jobs(&|j| quantile(j, 0.5)));
        v.insert("lat_tail_us", over_jobs(&|j| quantile(j, TAIL_Q)));
        v.insert("sim_ops_per_s", stat::geometric_mean(&tuned));
        return out;
    }

    let ratios: Vec<f64> = first.applied.iter().map(|a| a.1 / a.2).collect();
    let errors: Vec<f64> = first
        .applied
        .iter()
        .map(|(w, measured, _)| (w.predicted_throughput - measured).abs() / measured)
        .collect();
    let windows = (first.reopt_s.len() + first.hold_s.len()) as f64;
    let v = &mut out.values;
    v.insert("bench.traced_ops_per_s", ops_per_s);
    v.insert("core.tuned_over_default", stat::geometric_mean(&ratios));
    v.insert(
        "neural.pred_abs_err",
        errors.iter().sum::<f64>() / errors.len() as f64,
    );
    v.insert(
        "core.reopt_per_window",
        first.reopt_s.len() as f64 / windows,
    );
    v.insert(
        "core.switch_per_reopt",
        first.switches as f64 / first.reopt_s.len().max(1) as f64,
    );
    v.insert("neural.train_epochs", first.epochs as f64);
    v.insert("neural.ensemble_kept", first.kept as f64);
    v.insert(
        "search.evals_per_search",
        first.applied[0].0.surrogate_evaluations as f64,
    );
    v.insert("neural.holdout_mape", holdout_mape(args, &first.data));

    let costs = probes::run(args, None);
    shares(&mut out.values, &costs, &tracer, &jobs, args.smoke);
    out.values.extend(costs.values);
    out.values
        .insert("bench.spans_recorded", tracer.spans().len() as f64);
    fill_idle(&mut out.values);
    let totals = spans::totals_by_name(tracer.spans());
    out.trace = Some(spans::trace_json(
        "tune_job",
        args.seed,
        &[tracer.spans()],
        &totals,
    ));
    out
}

/// Leave-one-configuration-out error of the job's recipe on its own
/// data: for each collected configuration, train on the others (two
/// networks, to keep eight fits cheap) and predict it. Exact for a seed.
fn holdout_mape(args: &RunArgs, data: &PerfDataset) -> f64 {
    let fit = FitSpec {
        ensemble: 2,
        ..job_fit(args.smoke)
    };
    let configs = data
        .samples
        .iter()
        .map(|s| s.config_index)
        .max()
        .map_or(0, |m| m + 1);
    let mut errors = Vec::new();
    for held in 0..configs {
        let (test, train): (Vec<_>, Vec<_>) = data
            .samples
            .iter()
            .cloned()
            .partition(|s| s.config_index == held);
        let model = fit.train(&PerfDataset { samples: train }, lane(args.seed, 200));
        let test = PerfDataset { samples: test }.to_training_data();
        errors.extend(model.percent_errors(&test).iter().map(|e| e.abs()));
    }
    errors.iter().sum::<f64>() / errors.len().max(1) as f64
}

/// Layer shares of the jobs' wall, by which crate a phase's calls go
/// into: `collect` and `apply` are the engine (less the op generation
/// and latency histogram inside them, estimated from their replayed
/// unit costs), `train` is neural, and searches split between neural
/// (inside the fitness closure) and search by the share the probes
/// measured on the same strategies.
fn shares(v: &mut Values, costs: &probes::Costs, tracer: &Tracer, jobs: &[Job], smoke: bool) {
    let totals = spans::totals_by_name(tracer.spans());
    let ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
    let job = ns("job");
    let sim_ops: f64 = jobs.iter().map(|j| j.sim_ops).sum();
    let fit = job_fit(smoke);
    // Warm-up operations are generated and stepped too.
    let generated = sim_ops * (1.0 + fit.sim_s.0 / fit.sim_s.1);
    let workload = costs.values["workload.gen_ns_per_op"] * generated;
    let stats = costs.values["stats.hist_record_ns"] * sim_ops;
    let engine = ns("collect") + ns("apply") - workload - stats;
    let reopt = ns("decide_reopt");
    let neural = ns("train")
        + ns("search") * costs.surrogate_share_all
        + reopt * costs.surrogate_share_ga
        + ns("decide_hold");
    let search =
        ns("search") * (1.0 - costs.surrogate_share_all) + reopt * (1.0 - costs.surrogate_share_ga);
    let named = [
        ("share.engine", engine),
        ("share.workload", workload),
        ("share.stats", stats),
        ("share.neural", neural),
        ("share.search", search),
    ];
    let mut explained = 0.0;
    for (name, part) in named {
        v.insert(name, part / job);
        explained += part / job;
    }
    v.insert("share.other", 1.0 - explained);
}
