//! Per-layer unit costs, measured from outside: after a traced loop, the
//! same inputs are replayed in-process through each crate's public
//! functions, one crate at a time. Every traced run of every workload
//! runs all of them the same way, so each number is a fresh measurement
//! (the serve workloads hand in their own client stream; the others use
//! a stationary rr-0.9 stream made from the seed).

use crate::catalog::Values;
use crate::common::{drive_point, eval_context, Driven, RunArgs};
use crate::daemon::Daemon;
use crate::spans::{self, Tracer};
use crate::stat::median;
use crate::stream::{self, lane};
use crate::tuning::{self, FitSpec};
use rafiki::{ControllerConfig, OnlineController, RafikiTuner};
use rafiki_engine::{CompactionMethod, Engine, EngineConfig, HashRing, ServerSpec};
use rafiki_neural::{Matrix, Surrogate};
use rafiki_obs as obs;
use rafiki_serve::protocol::{decode_batch_fast, encode_batch_into};
use rafiki_serve::{BatchResult, Client, Json, Response, ServeConfig};
use rafiki_stats::{mix64, StreamingHistogram};
use rafiki_workload::{OnlineCharacterizer, Operation, OperationSource, WorkloadGenerator};
use std::hint::black_box;
use std::time::Instant;

/// Daemon settings shared with the serve workloads.
pub const SHARDS: usize = 2;
pub const WINDOW_OPS: usize = 5_000;
pub const KRD_CAPACITY: usize = 1 << 14;
pub const SERVE_KEYS: u64 = 20_000;
pub const PAYLOAD: u32 = 1_000;
pub const FRAME_OPS: usize = 64;
/// Any fixed seed gives a ring that splits the keys the way the
/// daemon's does (its own seed is private).
const RING_SEED: u64 = 0x6265_6e63_686d_6b31;

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        window_ops: WINDOW_OPS,
        krd_capacity: KRD_CAPACITY,
        controller: ControllerConfig::default(),
        preload_keys: SERVE_KEYS,
        preload_payload: PAYLOAD,
        shards: SHARDS,
        lockstep: false,
    }
}

/// The small fit the probes search and decide with: 6 configurations x
/// 5 read ratios on a tiny context, 4 networks.
fn probe_fit(smoke: bool) -> FitSpec {
    FitSpec {
        keys: 10_000,
        clients: 16,
        sim_s: if smoke { (0.01, 0.03) } else { (0.05, 0.15) },
        configurations: 6,
        read_ratios: vec![0.0, 0.25, 0.5, 0.75, 1.0],
        ensemble: 4,
        epochs: if smoke { 10 } else { 60 },
    }
}

/// Unit costs the callers turn into layer shares.
pub struct Costs {
    pub values: Values,
    /// Share of GA search wall spent inside the surrogate closure.
    pub surrogate_share_ga: f64,
    /// The same over all four strategies together.
    pub surrogate_share_all: f64,
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs every probe. `client_stream` is a serve workload's own stream.
pub fn run(args: &RunArgs, client_stream: Option<&[Operation]>) -> Costs {
    // The state every end-to-end run is in: no subscriber.
    obs::clear_subscriber();
    let cut = if args.smoke { 10 } else { 1 };
    let seed = args.seed;
    let own_stream;
    let stream: &[Operation] = match client_stream {
        Some(s) => &s[..s.len().min(204_800 / cut)],
        None => {
            own_stream = stream::steady(lane(seed, 900), SERVE_KEYS, 0.9, 204_800 / cut);
            &own_stream
        }
    };
    let mut v = Values::new();
    workload_probes(&mut v, seed, stream, cut);
    engine_grid_probes(&mut v, args);
    engine_serve_probes(&mut v, stream);
    stats_probes(&mut v, cut);
    let tuner = probe_fit(args.smoke);
    let t = Instant::now();
    let data = tuner.collect(lane(seed, 930));
    v.insert("core.collect_ms", secs_since(t) * 1e3);
    let t = Instant::now();
    let model = tuner.train(&data, lane(seed, 930));
    v.insert("neural.train_ms", secs_since(t) * 1e3);
    let tuner = tuner.install(model, data, lane(seed, 930));
    let (surrogate_share_ga, surrogate_share_all) = search_probes(&mut v, &tuner, seed, cut);
    controller_probes(&mut v, &tuner, seed);
    codec_probes(&mut v, stream);
    bench_probes(&mut v, cut);
    daemon_probes(&mut v, tuner, stream, cut);
    Costs {
        values: v,
        surrogate_share_ga,
        surrogate_share_all,
    }
}

fn workload_probes(v: &mut Values, seed: u64, stream: &[Operation], cut: usize) {
    let n = 200_000 / cut;
    let mut gen = WorkloadGenerator::new(
        rafiki_workload::WorkloadSpec {
            initial_keys: SERVE_KEYS,
            ..rafiki_workload::WorkloadSpec::with_read_ratio(0.5)
        },
        lane(seed, 901),
    );
    let t = Instant::now();
    for _ in 0..n {
        black_box(gen.next_op());
    }
    v.insert("workload.gen_ns_per_op", secs_since(t) * 1e9 / n as f64);

    let mut characterizer = OnlineCharacterizer::new(WINDOW_OPS, KRD_CAPACITY);
    let t = Instant::now();
    for op in stream {
        black_box(characterizer.observe(op));
    }
    v.insert(
        "workload.characterize_ns_per_op",
        secs_since(t) * 1e9 / stream.len() as f64,
    );
    v.insert(
        "workload.krd_tracked_keys",
        characterizer.tracked_keys() as f64,
    );
    v.insert("workload.krd_evictions", characterizer.evictions() as f64);
}

/// Hydration and closed-loop stepping at experiment scale, default
/// configuration, one write-heavy, one mixed and one read-heavy point.
fn engine_grid_probes(v: &mut Values, args: &RunArgs) {
    let (keys, sim) = if args.smoke {
        (10_000, (0.01, 0.04))
    } else {
        (60_000, (0.25, 0.75))
    };
    let ctx = eval_context(keys, 64, sim.0, sim.1, args.seed);
    let cfg = EngineConfig::default();
    let snapshot = ctx.snapshot();
    let hydrate = || {
        let t = Instant::now();
        let mut engine = Engine::new(cfg.clone(), ctx.server);
        engine.preload_from(&snapshot);
        black_box(engine.table_count());
        secs_since(t) * 1e3
    };
    let first = hydrate(); // builds the layout, then hydrates
    let hydrate_ms = median(&[hydrate(), hydrate(), hydrate()]);
    v.insert("engine.snapshot_build_ms", (first - hydrate_ms).max(0.0));
    v.insert("engine.hydrate_ms", hydrate_ms);

    let mut tracer = Tracer::new(true, Instant::now());
    let classes = [
        (
            "engine.step_ns_per_op.write",
            "engine.sim_ops_per_s.rr10",
            0.1,
        ),
        (
            "engine.step_ns_per_op.mixed",
            "engine.sim_ops_per_s.rr50",
            0.5,
        ),
        (
            "engine.step_ns_per_op.read",
            "engine.sim_ops_per_s.rr90",
            0.9,
        ),
    ];
    let mut points = Vec::new();
    for (i, (step_name, sim_name, rr)) in classes.into_iter().enumerate() {
        let seed = lane(args.seed, 910 + i as u64);
        let driven = drive_point(&ctx, rr, &cfg, seed, &snapshot, &mut tracer, i as u64);
        let step_ns: u64 = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "step" && s.id == i as u64)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        v.insert(step_name, step_ns as f64 / driven.submitted as f64);
        v.insert(sim_name, driven.result.avg_ops_per_sec);
        points.push(driven);
    }
    // Counters and ratios over the three points together.
    let of = |f: fn(&Driven) -> u64| points.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let reads = of(|p| p.metrics.reads_completed);
    let totals = spans::totals_by_name(tracer.spans());
    v.insert("engine.steps_per_op", of(|p| p.steps) / of(|p| p.submitted));
    v.insert(
        "engine.summarize_ms",
        totals["summarize"].total_ns as f64 / 1e6 / classes.len() as f64,
    );
    v.insert(
        "engine.bloom_negative_ratio",
        ratio(
            of(|p| p.metrics.bloom_negatives),
            of(|p| p.metrics.bloom_checks),
        ),
    );
    v.insert(
        "engine.candidates_per_read",
        ratio(of(|p| p.metrics.candidates_probed), reads),
    );
    v.insert(
        "engine.file_cache_hit_ratio",
        ratio(
            of(|p| p.metrics.file_cache_hits),
            of(|p| p.metrics.file_cache_hits + p.metrics.file_cache_misses),
        ),
    );
    v.insert(
        "engine.disk_reads_per_read",
        ratio(of(|p| p.metrics.disk_reads), reads),
    );
    v.insert(
        "engine.compacted_bytes_per_write_byte",
        ratio(
            of(|p| p.metrics.compacted_bytes),
            of(|p| p.metrics.writes_completed) * ctx.workload.payload.mean(),
        ),
    );
    v.insert("engine.flushes", of(|p| p.metrics.flushes));
    v.insert("engine.compactions", of(|p| p.metrics.compactions));
    v.insert(
        "engine.write_stall_sim_ms",
        of(|p| p.metrics.write_stall_ns) / 1e6,
    );
    let user_bytes = classes.len() as u64 * keys * PAYLOAD as u64;
    v.insert(
        "engine.disk_bytes_per_user_byte",
        ratio(of(|p| p.on_disk_bytes), user_bytes as f64),
    );
}

/// The daemon's engine path: ring-filtered preload, one operation
/// submitted and stepped to completion at a time, live reconfiguration.
fn engine_serve_probes(v: &mut Values, stream: &[Operation]) {
    let ring = HashRing::with_shards(SHARDS, RING_SEED);
    let t = Instant::now();
    let mut engine = Engine::new(EngineConfig::default(), ServerSpec::default());
    engine.preload_filtered(SERVE_KEYS, PAYLOAD, |k| ring.shard_of(k) == 0);
    v.insert("engine.preload_filtered_ms", secs_since(t) * 1e3);

    let mine: Vec<Operation> = stream
        .iter()
        .filter(|op| ring.shard_of(op.key.0) == 0)
        .copied()
        .collect();
    let mut completions = Vec::new();
    let t = Instant::now();
    for (token, op) in mine.iter().enumerate() {
        engine.submit(token as u64, *op, engine.clock());
        completions.clear();
        while !completions
            .iter()
            .any(|c: &rafiki_engine::OpCompletion| c.token == token as u64)
        {
            if !engine.step_into(&mut completions) {
                break;
            }
        }
    }
    v.insert(
        "engine.conc1_step_ns_per_op",
        secs_since(t) * 1e9 / mine.len().max(1) as f64,
    );

    let other = EngineConfig {
        compaction_method: CompactionMethod::Leveled,
        concurrent_writes: 64,
        file_cache_size_mb: 512,
        ..EngineConfig::default()
    };
    let mut applies = Vec::new();
    for i in 0..20 {
        let cfg = if i % 2 == 0 {
            other.clone()
        } else {
            EngineConfig::default()
        };
        let t = Instant::now();
        black_box(engine.reconfigure(cfg));
        applies.push(secs_since(t) * 1e6);
    }
    v.insert("engine.reconfigure_us", median(&applies));
}

fn stats_probes(v: &mut Values, cut: usize) {
    let n = 1_000_000 / cut as u64;
    let mut hist = StreamingHistogram::new();
    let t = Instant::now();
    for i in 0..n {
        // Latency-like values, 1 us to ~1 ms in nanoseconds.
        hist.record(1_000 + mix64(i) % 1_000_000);
    }
    v.insert("stats.hist_record_ns", secs_since(t) * 1e9 / n as f64);
    let reps = 1_000 / cut;
    let t = Instant::now();
    for _ in 0..reps {
        black_box(hist.quantile(black_box(0.99)));
    }
    v.insert("stats.hist_quantile_us", secs_since(t) * 1e6 / reps as f64);
}

/// The four strategies on one budget over the probe surrogate, the
/// fitness closure timed apart; then the tuner's own search entry point
/// and the two surrogate call shapes.
fn search_probes(v: &mut Values, tuner: &RafikiTuner, seed: u64, cut: usize) -> (f64, f64) {
    let space = tuner.space().expect("probe tuner is fitted");
    let surrogate: &dyn Surrogate = tuner.surrogate().expect("probe tuner is fitted");
    let names = [
        "search.ga_ms",
        "search.bestconfig_ms",
        "search.latent_ms",
        "search.random_ms",
    ];
    let (mut all_wall, mut all_inside) = (0.0, 0.0);
    let mut ga_share = 0.0;
    let strategies = tuning::strategies(&space.to_ga_space(), lane(seed, 940));
    for (name, mut strategy) in names.into_iter().zip(strategies) {
        let mut inside = 0.0;
        let t = Instant::now();
        let outcome = rafiki_search::run_strategy(strategy.as_mut(), |population| {
            let t = Instant::now();
            let rows: Vec<Vec<f64>> = population
                .iter()
                .map(|g| space.feature_row(0.5, g))
                .collect();
            let scores = surrogate.predict_batch(&Matrix::from_rows(&rows));
            inside += secs_since(t);
            scores
        });
        let wall = secs_since(t);
        v.insert(name, wall * 1e3);
        all_wall += wall;
        all_inside += inside;
        if name == "search.ga_ms" {
            ga_share = inside / wall;
            v.insert("search.surrogate_share", ga_share);
            v.insert(
                "ga.self_ns_per_eval",
                (wall - inside) * 1e9 / outcome.evaluations as f64,
            );
        }
    }

    let optimize: Vec<f64> = [0.1, 0.5, 0.9]
        .iter()
        .map(|&rr| {
            let t = Instant::now();
            black_box(tuner.optimize(rr).expect("probe tuner is fitted"));
            secs_since(t) * 1e3
        })
        .collect();
    v.insert("core.optimize_ms", median(&optimize));

    // One GA generation's batch, and the hold path's single row.
    let generation: Vec<Vec<f64>> = {
        let mut rng_state = lane(seed, 941);
        let ga_space = space.to_ga_space();
        (0..50)
            .map(|_| {
                ga_space
                    .genes()
                    .iter()
                    .map(|g| {
                        rng_state = mix64(rng_state);
                        let u = (rng_state >> 11) as f64 / (1u64 << 53) as f64;
                        g.lo() + u * (g.hi() - g.lo())
                    })
                    .collect()
            })
            .collect()
    };
    let reps = 400 / cut;
    let t = Instant::now();
    for _ in 0..reps {
        black_box(tuner.predict_many(0.5, &generation).expect("fitted"));
    }
    v.insert(
        "neural.predict_ns_per_row",
        secs_since(t) * 1e9 / (reps * generation.len()) as f64,
    );
    let reps = 4_000 / cut;
    let t = Instant::now();
    for _ in 0..reps {
        black_box(tuner.predict_many(0.5, &generation[..1]).expect("fitted"));
    }
    v.insert("neural.predict1_us", secs_since(t) * 1e6 / reps as f64);
    (ga_share, all_inside / all_wall)
}

/// The controller's two paths over the first day of an MG-RAST trace.
fn controller_probes(v: &mut Values, tuner: &RafikiTuner, seed: u64) {
    let trace = stream::mgrast_trace(lane(seed, 950));
    let mut controller = OnlineController::new(tuner, ControllerConfig::default()).expect("fitted");
    let (mut hold, mut reopt) = (Vec::new(), Vec::new());
    for w in &trace.windows[..96] {
        let t = Instant::now();
        let decision = controller
            .observe_window(w.index, w.read_ratio)
            .expect("fitted");
        let dt = secs_since(t);
        if decision.reoptimized {
            reopt.push(dt * 1e3);
        } else {
            hold.push(dt * 1e6);
        }
    }
    // A four-regime day always has both kinds of window.
    v.insert("core.decide_hold_us", median(&hold));
    v.insert("core.decide_reopt_ms", median(&reopt));
}

/// The frame codec in both directions and the ring, over the stream cut
/// into the frames a client sends.
fn codec_probes(v: &mut Values, stream: &[Operation]) {
    let frames: Vec<&[Operation]> = stream.chunks_exact(FRAME_OPS).take(1_000).collect();
    let ops = (frames.len() * FRAME_OPS) as f64;
    let mut requests: Vec<String> = vec![String::new(); frames.len()];
    let t = Instant::now();
    for (out, frame) in requests.iter_mut().zip(&frames) {
        encode_batch_into(frame, out);
    }
    v.insert("serve.encode_req_ns_per_op", secs_since(t) * 1e9 / ops);
    let bytes: usize = requests.iter().map(|r| r.len() + 1).sum();
    v.insert("serve.req_bytes_per_op", bytes as f64 / ops);

    let t = Instant::now();
    for line in &requests {
        black_box(decode_batch_fast(line).expect("canonical frame"));
    }
    v.insert("serve.decode_req_ns_per_op", secs_since(t) * 1e9 / ops);

    // Replies carry simulated latencies; a few hundred microseconds.
    let replies: Vec<Response> = (0..frames.len() as u64)
        .map(|f| {
            Response::Batch(
                (0..FRAME_OPS as u64)
                    .map(|i| BatchResult::Done {
                        latency_us: 80 + mix64(f * 64 + i) % 400,
                    })
                    .collect(),
            )
        })
        .collect();
    let mut lines: Vec<String> = vec![String::new(); frames.len()];
    let t = Instant::now();
    for (out, reply) in lines.iter_mut().zip(&replies) {
        reply.to_json().encode_into(out);
    }
    v.insert("serve.encode_resp_ns_per_op", secs_since(t) * 1e9 / ops);
    let bytes: usize = lines.iter().map(|r| r.len() + 1).sum();
    v.insert("serve.resp_bytes_per_op", bytes as f64 / ops);

    let t = Instant::now();
    for line in &lines {
        let json = Json::parse(line).expect("own encoding parses");
        black_box(Response::from_json(&json).expect("own encoding decodes"));
    }
    v.insert("serve.decode_resp_ns_per_op", secs_since(t) * 1e9 / ops);

    let ring = HashRing::with_shards(SHARDS, RING_SEED);
    let t = Instant::now();
    for frame in &frames {
        for op in *frame {
            black_box(ring.shard_of(op.key.0));
        }
    }
    v.insert("serve.route_ns_per_op", secs_since(t) * 1e9 / ops);
}

/// What instrumentation costs when it is off (`rafiki-obs`, the state
/// every end-to-end run is in) and when it is on (this benchmark's own
/// span recorder).
fn bench_probes(v: &mut Values, cut: usize) {
    let n = 1_000_000 / cut;
    let t = Instant::now();
    for _ in 0..n {
        let span = obs::span("benchmark", "probe", obs::Level::Info);
        black_box(obs::enabled(obs::Level::Info));
        span.close(Vec::new());
    }
    v.insert("obs.disabled_span_ns", secs_since(t) * 1e9 / n as f64);

    let mut tracer = Tracer::new(true, Instant::now());
    let t = Instant::now();
    for i in 0..n as u64 {
        let open = tracer.open("probe", i);
        tracer.close(open);
    }
    v.insert("bench.span_record_ns", secs_since(t) * 1e9 / n as f64);
    black_box(tracer.spans().len());
}

/// A fresh daemon on loopback, one idle connection: time to first reply,
/// the unloaded frame round trip (and what of it the replayed costs do
/// not explain), the introspection frames, and shutdown.
fn daemon_probes(v: &mut Values, tuner: RafikiTuner, stream: &[Operation], cut: usize) {
    let t = Instant::now();
    let daemon = Daemon::start(tuner, serve_config());
    let mut client = Client::connect(daemon.addr()).expect("connect to own daemon");
    client.stats().expect("first stats frame");
    v.insert("serve.bind_to_first_reply_ms", secs_since(t) * 1e3);

    let frames: Vec<&[Operation]> = stream.chunks_exact(FRAME_OPS).collect();
    let (warm, timed) = frames.split_at((400 / cut).min(frames.len() / 2));
    for frame in warm {
        client.batch(frame).expect("warm-up frame");
    }
    let mut round_trips: Vec<f64> = timed
        .iter()
        .take(2_000 / cut)
        .map(|frame| {
            let t = Instant::now();
            client.batch(frame).expect("probe frame");
            secs_since(t) * 1e6
        })
        .collect();
    crate::stat::sort(&mut round_trips);
    let p50 = crate::stat::quantile_sorted(&round_trips, 0.5);
    v.insert("serve.frame_p50_us", p50);
    // Both shard histograms record every op; the rest is named by layer.
    let replayed_ns_per_op: f64 = [
        "serve.encode_req_ns_per_op",
        "serve.decode_req_ns_per_op",
        "serve.encode_resp_ns_per_op",
        "serve.decode_resp_ns_per_op",
        "serve.route_ns_per_op",
        "engine.conc1_step_ns_per_op",
        "workload.characterize_ns_per_op",
    ]
    .iter()
    .map(|name| v[name])
    .sum();
    v.insert(
        "serve.wire_residual_us_per_frame",
        p50 - FRAME_OPS as f64 * replayed_ns_per_op / 1e3,
    );

    let mut timed_call = |name: &'static str, call: &mut dyn FnMut(&mut Client)| {
        let samples: Vec<f64> = (0..20)
            .map(|_| {
                let t = Instant::now();
                call(&mut client);
                secs_since(t) * 1e6
            })
            .collect();
        v.insert(name, median(&samples));
    };
    timed_call("serve.stats_frame_us", &mut |c| {
        drop(c.stats().expect("stats"))
    });
    timed_call("serve.metrics_frame_us", &mut |c| {
        drop(c.metrics().expect("metrics"))
    });
    timed_call("serve.config_frame_us", &mut |c| {
        drop(c.config().expect("config"))
    });
    drop(client);
    let t = Instant::now();
    daemon.shutdown();
    v.insert("serve.shutdown_ms", secs_since(t) * 1e3);
}
