//! `rafiki-tune` — command-line front-end for the Rafiki reproduction.
//!
//! ```text
//! rafiki-tune screen  [--rr 0.8] [--levels 4] [--quick]
//! rafiki-tune tune    [--rr 0.9] [--configs 8] [--quick]
//! rafiki-tune bench   [--rr 0.5] [--cm size-tiered|leveled] [--cw 32]
//!                     [--fcz 256] [--mt 0.3] [--cc 2] [--seconds 4]
//! rafiki-tune trace   [--days 4] [--seed 0]
//! rafiki-tune ycsb    [--preset A|B|C|D|F] [--seconds 3]
//! ```

mod args;

use args::{ArgError, Args};
use rafiki::{
    identify_key_parameters, ControllerConfig, EvalContext, RafikiTuner, ScreeningConfig,
    TunerConfig,
};
use rafiki_engine::{run_benchmark, CompactionMethod, Engine, EngineConfig, ServerSpec};
use rafiki_serve::{Client, ServeConfig, Server};
use rafiki_workload::{
    BenchmarkSpec, MgRastModel, Regime, WorkloadGenerator, WorkloadSpec, YcsbPreset,
};

const USAGE: &str = "\
rafiki-tune — parameter tuning for the simulated NoSQL datastore

USAGE:
  rafiki-tune screen  [--rr 0.8] [--levels 4] [--quick]
      ANOVA-screen all 30 parameters; print the ranking and key set.
  rafiki-tune tune    [--rr 0.9] [--configs 8] [--quick]
                      [--strategy ga|bestconfig|latent|random]
      Collect data, train the surrogate, search a config for --rr with
      the chosen strategy (default ga — the paper's loop).
  rafiki-tune bench   [--rr 0.5] [--cm size-tiered|leveled] [--cw 32]
                      [--fcz 256] [--mt 0.3] [--cc 2] [--seconds 4]
      One benchmark of an explicit configuration.
  rafiki-tune trace   [--days 4] [--seed 0]
      Print an MG-RAST-like read-ratio trace as CSV.
  rafiki-tune replay  --trace FILE [--window 0] [--seconds 3]
      Benchmark one window of a saved trace on the default configuration.
  rafiki-tune ycsb    [--preset A] [--seconds 3]
      Benchmark a standard YCSB preset on the default configuration.
  rafiki-tune serve   [--addr 127.0.0.1:7878] [--window 1000]
                      [--shards 1] [--lockstep] [--proactive] [--quick]
                      [--trace FILE]
                      [--log-level error|warn|info|debug|trace]
      Fit the tuner, then run the online tuning daemon until shutdown.
      --shards N runs N engine shards behind one consistent-hash
      router, each tuned independently (or together with --lockstep).
      --trace writes every event as JSONL to FILE; --log-level prints
      human-readable lines to stderr at that severity and up.
  rafiki-tune client  [--addr 127.0.0.1:7878] [--rr 0.9] [--ops 2000]
                      [--batch 64] [--inflight 1] [--seed 0]
                      | --stats | --metrics | --shutdown
      Stream generated operations at a daemon (framed --batch ops per
      request; --batch 1 sends one op per frame; --inflight N pipelines
      up to N frames on the wire) and print the latency digest, or just
      query / stop it. --metrics prints the daemon's Prometheus text
      exposition.

Boolean flags (--quick, --proactive, --lockstep, --stats, --metrics,
--shutdown, --help) take no value; --flag=value works for every flag.
";

/// Flags that take no value (`--quick` rather than `--quick true`).
const BOOL_FLAGS: &[&str] = &[
    "help",
    "quick",
    "proactive",
    "lockstep",
    "stats",
    "metrics",
    "shutdown",
];

fn main() {
    let args = match Args::parse(std::env::args().skip(1), BOOL_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.has("help") || args.command.is_none() {
        println!("{USAGE}");
        return;
    }
    let result = match args.command.as_deref() {
        Some("screen") => cmd_screen(&args),
        Some("tune") => cmd_tune(&args),
        Some("bench") => cmd_bench(&args),
        Some("trace") => cmd_trace(&args),
        Some("replay") => cmd_replay(&args),
        Some("ycsb") => cmd_ycsb(&args),
        Some("serve") => cmd_serve(&args),
        Some("client") => cmd_client(&args),
        Some(other) => Err(ArgError(format!("unknown command: {other}"))),
        None => unreachable!("handled above"),
    };
    if let Err(e) = result {
        eprintln!("error: {e}\n\n{USAGE}");
        std::process::exit(2);
    }
}

fn context(quick: bool) -> EvalContext {
    if quick {
        EvalContext::small()
    } else {
        EvalContext::default()
    }
}

fn cmd_screen(args: &Args) -> Result<(), ArgError> {
    let cfg = ScreeningConfig {
        read_ratio: args.num_or("rr", 0.8)?,
        levels: args.num_or("levels", 4usize)?,
        ..ScreeningConfig::default()
    };
    let ctx = context(args.has("quick"));
    eprintln!("screening 30 parameters at RR={:.2}…", cfg.read_ratio);
    let report = identify_key_parameters(&ctx, &cfg);
    println!("{:<4} {:<44} {:>12}", "rank", "parameter", "sd(ops/s)");
    for (i, s) in report.screens.iter().enumerate() {
        println!(
            "{:<4} {:<44} {:>12.0}",
            i + 1,
            s.info.name,
            s.effect.std_dev
        );
    }
    println!(
        "\nkey parameters: {}",
        report
            .key_parameters
            .iter()
            .map(|p| p.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}

fn cmd_tune(args: &Args) -> Result<(), ArgError> {
    let rr: f64 = args.num_or("rr", 0.9)?;
    if !(0.0..=1.0).contains(&rr) {
        return Err(ArgError(format!("--rr {rr} must be within [0, 1]")));
    }
    let mut cfg = TunerConfig::fast();
    cfg.collection.configurations = args.num_or("configs", 8usize)?;
    let ctx = context(args.has("quick"));
    eprintln!(
        "collecting {} configs x {} workloads…",
        cfg.collection.configurations,
        cfg.collection.read_ratios.len()
    );
    let mut tuner = RafikiTuner::new(ctx, cfg);
    let report = tuner
        .fit()
        .map_err(|e| ArgError(format!("tuning failed: {e}")))?;
    eprintln!(
        "trained on {} samples over [{}]",
        report.samples_collected,
        report.key_parameters.join(", ")
    );
    let strategy_name = args.get_or("strategy", "ga");
    let mut strategy = build_strategy(&tuner, strategy_name)?;
    let best = tuner
        .optimize_with_strategy(rr, strategy.as_mut())
        .map_err(|e| ArgError(format!("search failed: {e}")))?;
    eprintln!("search strategy     : {strategy_name}");
    let default_tput = tuner.context().measure(rr, &EngineConfig::default());
    let tuned_tput = tuner.context().measure(rr, &best.config);
    println!("workload read ratio : {rr:.2}");
    println!("surrogate evals     : {}", best.surrogate_evaluations);
    println!("predicted ops/s     : {:.0}", best.predicted_throughput);
    println!(
        "measured  ops/s     : {tuned_tput:.0} (default {default_tput:.0}, {:+.1}%)",
        (tuned_tput / default_tput - 1.0) * 100.0
    );
    println!(
        "compaction_method            = {:?}",
        best.config.compaction_method
    );
    println!(
        "concurrent_writes            = {}",
        best.config.concurrent_writes
    );
    println!(
        "file_cache_size_in_mb        = {}",
        best.config.file_cache_size_mb
    );
    println!(
        "memtable_cleanup_threshold   = {:.2}",
        best.config.memtable_cleanup_threshold
    );
    println!(
        "concurrent_compactors        = {}",
        best.config.concurrent_compactors
    );
    Ok(())
}

/// Builds a search strategy over the fitted tuner's space. `ga` is the
/// paper's GA on the tuner's GA config (exactly what `optimize` runs);
/// the others get a budget matching its
/// `population * (generations + 1) + 1` evaluations, so `--strategy`
/// swaps the algorithm, not the effort.
fn build_strategy(
    tuner: &RafikiTuner,
    name: &str,
) -> Result<Box<dyn rafiki_search::SearchStrategy>, ArgError> {
    let space = tuner
        .space()
        .ok_or_else(|| ArgError("tuner not fitted".to_string()))?
        .to_ga_space();
    let ga = TunerConfig::fast().ga;
    let budget = ga.population * (ga.generations + 1) + 1;
    Ok(match name {
        "ga" => Box::new(rafiki_search::GaSearch::new(space, ga)),
        "bestconfig" => Box::new(rafiki_search::BestConfigSearch::new(
            space,
            rafiki_search::BestConfigConfig {
                samples_per_round: ga.population,
                rounds: budget / ga.population,
                seed: ga.seed,
                ..rafiki_search::BestConfigConfig::default()
            },
        )),
        "latent" => {
            let design = 32;
            Box::new(rafiki_search::LatentSearch::new(
                space,
                rafiki_search::LatentConfig {
                    design_samples: design,
                    latent_dim: 4,
                    ga: rafiki_ga::GaConfig {
                        generations: ((budget - design - 1) / ga.population).saturating_sub(1),
                        ..ga
                    },
                    seed: ga.seed,
                    ..rafiki_search::LatentConfig::default()
                },
            ))
        }
        "random" => Box::new(rafiki_search::RandomSearch::new(
            space,
            budget,
            ga.population,
            ga.seed,
        )),
        other => {
            return Err(ArgError(format!(
                "--strategy {other}: use ga|bestconfig|latent|random"
            )))
        }
    })
}

fn cmd_bench(args: &Args) -> Result<(), ArgError> {
    let rr: f64 = args.num_or("rr", 0.5)?;
    let mut cfg = EngineConfig::default();
    cfg.compaction_method = match args.get_or("cm", "size-tiered") {
        "size-tiered" | "stcs" => CompactionMethod::SizeTiered,
        "leveled" | "lcs" => CompactionMethod::Leveled,
        other => return Err(ArgError(format!("--cm {other}: use size-tiered|leveled"))),
    };
    cfg.concurrent_writes = args.num_or("cw", cfg.concurrent_writes)?;
    cfg.file_cache_size_mb = args.num_or("fcz", cfg.file_cache_size_mb)?;
    cfg.memtable_cleanup_threshold = args.num_or("mt", cfg.memtable_cleanup_threshold)?;
    cfg.concurrent_compactors = args.num_or("cc", cfg.concurrent_compactors)?;

    let preload = 60_000;
    let mut engine = Engine::new(cfg, ServerSpec::default());
    engine.preload(preload, 1_000);
    let spec = WorkloadSpec {
        initial_keys: preload,
        ..WorkloadSpec::with_read_ratio(rr)
    };
    let mut workload = WorkloadGenerator::new(spec, args.num_or("seed", 0u64)?);
    let bench = BenchmarkSpec {
        duration_secs: args.num_or("seconds", 4.0)?,
        warmup_secs: 1.0,
        clients: args.num_or("clients", 64usize)?,
        sample_window_secs: 1.0,
    };
    let r = run_benchmark(&mut engine, &mut workload, &bench);
    println!("throughput : {:.0} ops/s", r.avg_ops_per_sec);
    println!("mean lat   : {:.3} ms", r.mean_latency_ms);
    println!("p99 lat    : {:.3} ms", r.p99_latency_ms);
    println!("read ratio : {:.2}", r.observed_read_ratio());
    println!("flushes    : {}", engine.metrics().flushes);
    println!("compactions: {}", engine.metrics().compactions);
    println!("sstables   : {}", engine.table_count());
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), ArgError> {
    let model = MgRastModel {
        days: args.num_or("days", 4u32)?,
        seed: args.num_or("seed", 0u64)?,
        ..MgRastModel::default()
    };
    let trace = model.generate();
    // The format `replay --trace` parses (WorkloadTrace::to_csv).
    print!("{}", trace.to_csv());
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), ArgError> {
    let path = args.get_or("trace", "");
    if path.is_empty() {
        return Err(ArgError("replay needs --trace FILE".to_string()));
    }
    let csv =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let trace = rafiki_workload::WorkloadTrace::from_csv(&csv)
        .map_err(|e| ArgError(format!("{path}: {e}")))?;
    let window = args.num_or("window", 0usize)?;
    let Some(w) = trace.windows.get(window) else {
        return Err(ArgError(format!(
            "--window {window} out of range (trace has {} windows)",
            trace.windows.len()
        )));
    };
    println!(
        "replaying window {} (RR {:.2}, regime {:?}) of {}",
        w.index,
        w.read_ratio,
        Regime::classify(w.read_ratio),
        path
    );
    let preload = 60_000;
    let mut engine = Engine::new(EngineConfig::default(), ServerSpec::default());
    engine.preload(preload, 1_000);
    let spec = WorkloadSpec {
        initial_keys: preload,
        krd_mean: trace.krd_mean,
        ..WorkloadSpec::with_read_ratio(w.read_ratio)
    };
    let mut workload = WorkloadGenerator::new(spec, args.num_or("seed", 0u64)?);
    let bench = BenchmarkSpec {
        duration_secs: args.num_or("seconds", 3.0)?,
        warmup_secs: 1.0,
        clients: 64,
        sample_window_secs: 1.0,
    };
    let r = run_benchmark(&mut engine, &mut workload, &bench);
    println!(
        "window {}: {:.0} ops/s (observed RR {:.2}, p99 {:.3} ms)",
        w.index,
        r.avg_ops_per_sec,
        r.observed_read_ratio(),
        r.p99_latency_ms
    );
    Ok(())
}

/// Installs the process-global tracing subscriber from `--trace` /
/// `--log-level`, returning whether anything was installed.
///
/// `--trace FILE` captures *everything* (trace level) as JSONL;
/// `--log-level` prints human-readable lines to stderr at that severity
/// and up. With both, the stderr branch is level-filtered while the
/// file still gets the full stream.
fn init_observability(args: &Args) -> Result<bool, ArgError> {
    use rafiki_obs::{
        set_subscriber, FilterSink, HumanSink, JsonlSink, Level, Subscriber, TeeSink,
    };
    use std::sync::Arc;

    let trace_path = args.get_or("trace", "");
    let log_level = args.get_or("log-level", "");
    let console: Option<Level> = match log_level {
        "" => None,
        s => Some(
            s.parse()
                .map_err(|e: String| ArgError(format!("--log-level {s}: {e}")))?,
        ),
    };
    let mut sinks: Vec<Arc<dyn Subscriber>> = Vec::new();
    if !trace_path.is_empty() {
        let sink = JsonlSink::create(trace_path)
            .map_err(|e| ArgError(format!("cannot create {trace_path}: {e}")))?;
        sinks.push(Arc::new(sink));
    }
    if let Some(level) = console {
        let human: Arc<dyn Subscriber> = Arc::new(HumanSink::new(std::io::stderr()));
        sinks.push(if trace_path.is_empty() {
            human
        } else {
            // The file captures everything; only stderr is filtered.
            Arc::new(FilterSink::new(level, human))
        });
    }
    // The file wants every event; otherwise produce only what stderr shows.
    let max = if trace_path.is_empty() {
        match console {
            Some(level) => level,
            None => return Ok(false),
        }
    } else {
        Level::Trace
    };
    let subscriber: Arc<dyn Subscriber> = match sinks.len() {
        1 => sinks.pop().expect("one sink"),
        _ => Arc::new(TeeSink::new(sinks)),
    };
    set_subscriber(subscriber, max);
    Ok(true)
}

fn cmd_serve(args: &Args) -> Result<(), ArgError> {
    let addr = args.get_or("addr", "127.0.0.1:7878").to_string();
    init_observability(args)?;
    let ctx = context(args.has("quick"));
    let mut tuner = RafikiTuner::new(ctx, TunerConfig::fast());
    eprintln!("fitting the tuner (data collection + surrogate training)…");
    tuner
        .fit()
        .map_err(|e| ArgError(format!("tuner fit failed: {e}")))?;
    let cfg = ServeConfig {
        window_ops: args.num_or("window", 1_000usize)?,
        controller: ControllerConfig {
            proactive: args.has("proactive"),
            ..ControllerConfig::default()
        },
        shards: args.num_or("shards", 1usize)?.max(1),
        lockstep: args.has("lockstep"),
        ..ServeConfig::default()
    };
    let server = Server::bind(addr.as_str(), tuner, cfg)
        .map_err(|e| ArgError(format!("bind {addr}: {e}")))?;
    eprintln!(
        "serving on {} — {} shard{} ({}), one window per {} ops{}; send {{\"type\":\"shutdown\"}} to stop",
        server.local_addr().map_err(|e| ArgError(e.to_string()))?,
        cfg.shards,
        if cfg.shards == 1 { "" } else { "s" },
        if cfg.lockstep {
            "lockstep tuning"
        } else {
            "independent tuning"
        },
        cfg.window_ops,
        if cfg.controller.proactive {
            ", proactive"
        } else {
            ""
        }
    );
    let report = server.run().map_err(|e| ArgError(format!("serve: {e}")))?;
    println!(
        "served {} operations over {} windows ({} reoptimizations, {} reconfigurations)",
        report.operations, report.windows_closed, report.reoptimizations, report.reconfigurations
    );
    Ok(())
}

fn cmd_client(args: &Args) -> Result<(), ArgError> {
    let addr = args.get_or("addr", "127.0.0.1:7878");
    let mut client = Client::connect(addr).map_err(|e| ArgError(format!("connect {addr}: {e}")))?;
    if args.has("shutdown") {
        client
            .shutdown()
            .map_err(|e| ArgError(format!("shutdown: {e}")))?;
        println!("daemon at {addr} acknowledged shutdown");
        return Ok(());
    }
    if args.has("metrics") {
        let report = client
            .metrics()
            .map_err(|e| ArgError(format!("metrics: {e}")))?;
        print!("{}", report.prometheus);
        return Ok(());
    }
    if !args.has("stats") {
        let rr: f64 = args.num_or("rr", 0.9)?;
        let ops: usize = args.num_or("ops", 2_000usize)?;
        let batch: usize = args.num_or("batch", rafiki_serve::client::DRIVE_BATCH)?;
        let inflight: usize = args.num_or("inflight", 1usize)?;
        let spec = WorkloadSpec {
            initial_keys: 20_000,
            ..WorkloadSpec::with_read_ratio(rr)
        };
        let mut workload = WorkloadGenerator::new(spec, args.num_or("seed", 0u64)?);
        let h = client
            .drive_pipelined(&mut workload, ops, batch, inflight)
            .map_err(|e| ArgError(format!("stream failed: {e}")))?;
        println!(
            "client     : {} ops, mean {:.0} us, p50 {} us, p99 {} us, max {} us",
            h.total(),
            h.mean().unwrap_or(0.0),
            h.quantile(0.5).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            h.max().unwrap_or(0)
        );
    }
    let stats = client
        .stats()
        .map_err(|e| ArgError(format!("stats: {e}")))?;
    println!(
        "daemon     : {} ops, RR {:.2}, KRD {}, {} windows",
        stats.operations,
        stats.read_ratio,
        stats
            .krd_mean
            .map_or("n/a".to_string(), |m| format!("{m:.0}")),
        stats.windows_closed
    );
    println!(
        "latency    : p50 {} us, p95 {} us, p99 {} us, max {} us",
        stats.latency.p50_us, stats.latency.p95_us, stats.latency.p99_us, stats.latency.max_us
    );
    if stats.shards.len() > 1 {
        for shard in &stats.shards {
            println!(
                "  shard {}  : {} ops, RR {:.2}, {} windows, {} reconfigurations, p99 {} us",
                shard.shard,
                shard.operations,
                shard.read_ratio,
                shard.windows_closed,
                shard.reconfigurations,
                shard.latency.p99_us
            );
        }
    }
    let report = client
        .config()
        .map_err(|e| ArgError(format!("config: {e}")))?;
    println!(
        "tuning     : {} reoptimizations, {} reconfigurations, active {} (cw={}, fcz={} MB)",
        stats.reoptimizations,
        stats.reconfigurations,
        report.active.compaction_method,
        report.active.concurrent_writes,
        report.active.file_cache_size_mb
    );
    Ok(())
}

fn cmd_ycsb(args: &Args) -> Result<(), ArgError> {
    let preset = match args.get_or("preset", "A") {
        "A" | "a" => YcsbPreset::A,
        "B" | "b" => YcsbPreset::B,
        "C" | "c" => YcsbPreset::C,
        "D" | "d" => YcsbPreset::D,
        "F" | "f" => YcsbPreset::F,
        other => return Err(ArgError(format!("--preset {other}: use A|B|C|D|F"))),
    };
    let preload = 60_000;
    let mut engine = Engine::new(EngineConfig::default(), ServerSpec::default());
    engine.preload(preload, 1_000);
    let mut workload = WorkloadGenerator::new(preset.spec(preload), 1);
    let bench = BenchmarkSpec {
        duration_secs: args.num_or("seconds", 3.0)?,
        warmup_secs: 1.0,
        clients: 64,
        sample_window_secs: 1.0,
    };
    let r = run_benchmark(&mut engine, &mut workload, &bench);
    println!(
        "{preset}: {:.0} ops/s (RR {:.2}, mean {:.3} ms, p99 {:.3} ms)",
        r.avg_ops_per_sec,
        r.observed_read_ratio(),
        r.mean_latency_ms,
        r.p99_latency_ms
    );
    Ok(())
}
