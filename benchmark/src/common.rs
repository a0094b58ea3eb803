//! Pieces every workload shares: run arguments and results, the timed
//! region, repeated set-up, the five-parameter search space, and the
//! benchmark's own closed-loop engine driver.

use crate::catalog::Values;
use crate::procfs;
use crate::spans::Tracer;
use rafiki::{ConfigSearchSpace, EvalContext, TunerConfig};
use rafiki_engine::{
    param_catalog, Engine, EngineConfig, EngineMetrics, EngineSnapshot, OpCompletion, SimDuration,
    REPLICA_TOKEN,
};
use rafiki_serve::Json;
use rafiki_workload::{
    BenchmarkResult, BenchmarkSpec, Operation, OperationSource, WorkloadGenerator, WorkloadSpec,
};
use std::time::Instant;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// How long the timed region lasts.
    pub seconds: f64,
    pub trace: bool,
    /// Cut every size so the run takes about two seconds and only the
    /// checks mean anything.
    pub smoke: bool,
}

/// What one run found.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted (grid points, tuning decisions, client ops).
    pub attempted: u64,
    pub failed: u64,
    /// One line per broken check; empty on a correct run.
    pub problems: Vec<String>,
    /// Things a reader should know that are not failures.
    pub notes: Vec<String>,
    pub values: Values,
    /// The trace file's contents (traced runs only).
    pub trace: Option<Json>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Records a broken check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// How often set-up runs; its reported time is the median.
const SETUP_REPEATS: usize = 3;

/// Runs `setup` [`SETUP_REPEATS`] times, dropping each product before
/// the next is built, and returns the last product with the median
/// set-up time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let (mut times, mut stolen) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let region = Region::start();
        last = Some(setup());
        times.push(region.wall_s());
        stolen.push(region.stolen());
    }
    (
        last.expect("SETUP_REPEATS is at least one"),
        crate::stat::median_undisturbed(&times, &stolen),
    )
}

/// Share of the machine's CPU time the hypervisor may give away during
/// a repeated unit of work (a set-up, a grid call, a job, a one-second
/// slice of serving) before that unit is left out of the medians: what
/// it timed was the neighbours, not this program. A quiet host steals
/// ~0.1%.
const STEAL_LIMIT: f64 = 0.02;

/// Wall, process-CPU and stolen-CPU stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    wall: Instant,
    cpu: f64,
    steal: f64,
}

impl Region {
    pub fn start() -> Region {
        Region {
            wall: Instant::now(),
            cpu: procfs::cpu_seconds(),
            steal: procfs::steal_seconds(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_s(&self) -> f64 {
        procfs::cpu_seconds() - self.cpu
    }

    /// Whether the hypervisor took more than [`STEAL_LIMIT`] of the
    /// machine since the start.
    pub fn stolen(&self) -> bool {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stolen = procfs::steal_seconds() - self.steal;
        stolen > STEAL_LIMIT * self.wall_s() * cores as f64
    }
}

/// Notes how many repeated units the hypervisor disturbed.
pub fn note_stolen(out: &mut RunOutput, what: &str, stolen: &[bool]) {
    let n = stolen.iter().filter(|&&s| s).count();
    if n > 0 {
        out.notes.push(format!(
            "{n} of {} {what} lost CPU to the hypervisor and are left out of the medians{}",
            stolen.len(),
            if n == stolen.len() {
                " — all of them, so none is"
            } else {
                ""
            }
        ));
    }
}

/// The search space over the paper's five key parameters.
pub fn key_space() -> ConfigSearchSpace {
    let ids = TunerConfig::paper_key_params();
    let params = param_catalog()
        .into_iter()
        .filter(|p| ids.contains(&p.id))
        .collect();
    ConfigSearchSpace::new(params, EngineConfig::default())
}

/// An evaluation context over `keys` preloaded 1,000-byte rows.
pub fn eval_context(
    keys: u64,
    clients: usize,
    warmup: f64,
    measured: f64,
    seed: u64,
) -> EvalContext {
    EvalContext {
        bench: BenchmarkSpec {
            duration_secs: measured,
            warmup_secs: warmup,
            clients,
            sample_window_secs: measured,
        },
        workload: WorkloadSpec {
            initial_keys: keys,
            ..WorkloadSpec::with_read_ratio(0.5)
        },
        preload_keys: keys,
        preload_payload: 1_000,
        seed,
        ..EvalContext::default()
    }
}

/// Operations generated per block by [`drive_point`], so generation is
/// timed apart from stepping.
const GEN_BLOCK: usize = 8_192;

/// What [`drive_point`] saw.
#[derive(Debug)]
pub struct Driven {
    pub result: BenchmarkResult,
    /// Engine counters over the measured part (reset at warm-up end, as
    /// `run_benchmark` does).
    pub metrics: EngineMetrics,
    pub on_disk_bytes: u64,
    /// Calls to `Engine::step_into`, warm-up included.
    pub steps: u64,
    /// Operations submitted, warm-up included.
    pub submitted: u64,
}

/// The benchmark's own closed-loop driver over `submit` / `step_into` /
/// `next_event_time`: the same schedule as `rafiki_engine::run_benchmark`
/// (so the same seed gives the same `total_ops`), with spans around
/// `hydrate → drive{gen, step} → summarize` and operation generation
/// pre-buffered in blocks.
pub fn drive_point(
    ctx: &EvalContext,
    read_ratio: f64,
    cfg: &EngineConfig,
    workload_seed: u64,
    snapshot: &EngineSnapshot,
    tracer: &mut Tracer,
    id: u64,
) -> Driven {
    let point = tracer.open("point", id);

    let hydrate = tracer.open("hydrate", id);
    let mut engine = Engine::new(cfg.clone(), ctx.server);
    engine.preload_from(snapshot);
    tracer.close(hydrate);

    let drive = tracer.open("drive", id);
    let spec = &ctx.bench;
    let mut generator = WorkloadGenerator::new(
        WorkloadSpec {
            read_ratio,
            ..ctx.workload
        },
        workload_seed,
    );
    let mut block: Vec<Operation> = Vec::with_capacity(GEN_BLOCK);
    let mut next = 0usize;
    let mut refill = |block: &mut Vec<Operation>, next: &mut usize, tracer: &mut Tracer| {
        let gen = tracer.open("gen", id);
        block.clear();
        block.extend((0..GEN_BLOCK).map(|_| generator.next_op()));
        *next = 0;
        tracer.close(gen);
    };
    refill(&mut block, &mut next, tracer);

    let warmup_end = engine.clock() + SimDuration::from_secs_f64(spec.warmup_secs);
    let measure_end = warmup_end + SimDuration::from_secs_f64(spec.duration_secs);
    let mut step = tracer.open("step", id);
    for client in 0..spec.clients as u64 {
        engine.submit(client, block[next], engine.clock());
        next += 1;
    }
    let (mut steps, mut submitted) = (0u64, spec.clients as u64);
    let mut measured: Vec<OpCompletion> = Vec::new();
    let mut completions: Vec<OpCompletion> = Vec::new();
    let mut warmed = false;
    loop {
        if engine.next_event_time().is_none_or(|t| t > measure_end) {
            break;
        }
        if next == block.len() {
            tracer.close(step);
            refill(&mut block, &mut next, tracer);
            step = tracer.open("step", id);
        }
        completions.clear();
        steps += 1;
        if !engine.step_into(&mut completions) {
            break;
        }
        if !warmed && engine.clock() >= warmup_end {
            engine.reset_metrics();
            warmed = true;
        }
        // A step completes at most one operation, so one buffered
        // operation per step is always enough.
        for &done in &completions {
            if done.token == REPLICA_TOKEN {
                continue;
            }
            if done.completed_at >= warmup_end && done.completed_at <= measure_end {
                measured.push(done);
            }
            engine.submit(done.token, block[next], done.completed_at);
            next += 1;
            submitted += 1;
        }
    }
    tracer.close(step);
    tracer.close(drive);

    let summarize = tracer.open("summarize", id);
    let result = rafiki_engine::bench::summarize(&measured, warmup_end, spec);
    tracer.close(summarize);
    tracer.close(point);
    Driven {
        result,
        metrics: *engine.metrics(),
        on_disk_bytes: engine.on_disk_bytes(),
        steps,
        submitted,
    }
}
