//! `serve_steady` and `serve_mgrast`: the daemon behind its wire.
//!
//! Both run an in-process `Server` on loopback — 2 shards, windows of
//! 5,000 ops, 20,000 x 1,000 B preloaded — with a tuner fitted in
//! set-up, and drive it **closed loop**: every connection sends one
//! 64-op `batch` frame, waits for the parsed reply, sends the next. An
//! *op* is one client operation, a *request* one frame.
//!
//! `serve_steady` uses 2 connections (= cores here) at a stationary read
//! ratio of 0.9: windows close, nothing is decided. `serve_mgrast` uses
//! 1 connection — so per-shard op order, hence every window, decision
//! and reconfiguration, repeats exactly — over the MG-RAST trace, each
//! of its windows contributing 10,000 ops at that window's read ratio.

use crate::catalog::{fill_idle, Values};
use crate::common::{note_stolen, repeated_setup, Region, RunArgs, RunOutput};
use crate::daemon::{Daemon, FrameClient};
use crate::probes::{self, serve_config, FRAME_OPS, SERVE_KEYS, SHARDS, WINDOW_OPS};
use crate::spans::{self, NameTotal, Span, Tracer};
use crate::stat;
use crate::stream::{self, lane};
use crate::tuning::FitSpec;
use rafiki_obs as obs;
use rafiki_serve::{Client, ConfigReport, StatsReport};
use rafiki_workload::Operation;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Engine warm-up before anything is timed: a fresh engine spends ~4x
/// more per op over its first ~20k operations while the preload's
/// overlapping runs compact down (BENCH_serve's finding).
const WARMUP_OPS: usize = 25_600;
/// Operations each MG-RAST trace window contributes: about one
/// characterization window on each of the two shards.
const OPS_PER_TRACE_WINDOW: usize = 10_000;
/// Windows of the 4-day trace the stream is made from (its first two
/// days, ~11 s of traffic here); the stream wraps.
const TRACE_WINDOWS: usize = 192;
/// Pregenerated stationary operations per connection; the stream wraps.
const STEADY_STREAM_OPS: usize = 1 << 19;
/// On `serve_mgrast` the daemon's counters are read after exactly this
/// many client ops (128 trace windows), so they repeat run to run
/// whatever the host's speed; the run never stops before it.
const CHECKPOINT_OPS: usize = 64 * OPS_PER_TRACE_WINDOW;
/// A frame slower than this is a stall (a GA search is several ms, an
/// ordinary frame a few hundred us).
const SLOW_FRAME_S: f64 = 0.002;

/// Which of the two workloads runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Steady,
    MgRast,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Steady => "serve_steady",
            Shape::MgRast => "serve_mgrast",
        }
    }

    fn connections(self) -> usize {
        match self {
            Shape::Steady => 2,
            Shape::MgRast => 1,
        }
    }
}

/// The fit the daemon decides with: 8 configurations x 5 read ratios on
/// a context the size of the daemon's own data, 6 networks.
fn serve_fit(smoke: bool) -> FitSpec {
    FitSpec {
        keys: SERVE_KEYS,
        clients: 16,
        sim_s: if smoke { (0.01, 0.03) } else { (0.05, 0.15) },
        configurations: 6,
        read_ratios: vec![0.0, 0.5, 1.0],
        ensemble: 8,
        epochs: if smoke { 10 } else { 30 },
    }
}

struct Live {
    daemon: Daemon,
    /// One pregenerated stream per connection.
    streams: Vec<Arc<Vec<Operation>>>,
    warmup_ops: usize,
    /// The daemon's counters once warm, before anything is timed.
    before: StatsReport,
}

fn setup(args: &RunArgs, shape: Shape) -> Live {
    let cut = if args.smoke { 16 } else { 1 };
    let tuner = serve_fit(args.smoke).fit(lane(args.seed, 1));
    let daemon = Daemon::start(tuner, serve_config());
    let mut client = Client::connect(daemon.addr()).expect("connect to own daemon");
    let warmup = stream::steady(lane(args.seed, 2), SERVE_KEYS, 0.9, WARMUP_OPS / cut);
    for frame in warmup.chunks(256) {
        client.batch(frame).expect("warm-up frame");
    }
    let streams = match shape {
        Shape::Steady => (0..shape.connections() as u64)
            .map(|c| {
                stream::steady(
                    lane(args.seed, 10 + c),
                    SERVE_KEYS,
                    0.9,
                    STEADY_STREAM_OPS / cut,
                )
            })
            .collect(),
        Shape::MgRast => {
            let mut trace = stream::mgrast_trace(lane(args.seed, 3));
            trace.windows.truncate(TRACE_WINDOWS);
            vec![stream::from_trace(
                &trace,
                lane(args.seed, 4),
                SERVE_KEYS,
                OPS_PER_TRACE_WINDOW / cut,
            )]
        }
    };
    Live {
        daemon,
        streams: streams.into_iter().map(Arc::new).collect(),
        warmup_ops: warmup.len(),
        before: client.stats().expect("stats after warm-up"),
    }
}

/// What one connection did.
struct Connection {
    /// Per frame: when its reply was parsed (s since the start signal)
    /// and how long the round trip took (s).
    frames: Vec<(f64, f64)>,
    sent_ops: u64,
    failed_ops: u64,
    spans: Vec<Span>,
    /// The daemon's reports at the checkpoint (`serve_mgrast` only).
    checkpoint: Option<(StatsReport, ConfigReport)>,
}

/// One closed-loop connection: frames from `stream` (wrapping) until
/// the deadline, and not before `min_frames` of them.
fn connection(
    addr: SocketAddr,
    stream: &[Operation],
    seconds: f64,
    min_frames: usize,
    traced: bool,
    origin: Instant,
    start: &Barrier,
) -> Connection {
    let frames_in_stream = stream.len() / FRAME_OPS;
    let mut tracer = Tracer::new(traced, origin);
    let mut client = FrameClient::connect(addr, traced).expect("connect to own daemon");
    let mut c = Connection {
        frames: Vec::with_capacity(1 << 18),
        sent_ops: 0,
        failed_ops: 0,
        spans: Vec::new(),
        checkpoint: None,
    };
    start.wait();
    let t0 = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut f = 0usize;
    loop {
        let at = (f % frames_in_stream) * FRAME_OPS;
        let frame = &stream[at..at + FRAME_OPS];
        let span = tracer.open("frame", f as u64);
        let sent = t0.elapsed();
        let reply = client.batch(frame, &mut tracer, f as u64);
        let done = t0.elapsed();
        tracer.close(span);
        c.sent_ops += FRAME_OPS as u64;
        match reply {
            Ok(()) => c
                .frames
                .push((done.as_secs_f64(), (done - sent).as_secs_f64())),
            Err(_) => {
                // The frame's ops all count as failed; carry on over a
                // new connection.
                c.failed_ops += FRAME_OPS as u64;
                client = FrameClient::connect(addr, traced).expect("reconnect to own daemon");
            }
        }
        f += 1;
        if min_frames > 0 && f == min_frames {
            let mut side = Client::connect(addr).expect("checkpoint connection");
            c.checkpoint = Some((
                side.stats().expect("checkpoint stats"),
                side.config().expect("checkpoint config"),
            ));
        }
        if f >= min_frames && done >= deadline {
            break;
        }
    }
    c.spans = tracer.into_spans();
    c
}

/// The timed region cut into slices of equal length; a metric is the
/// median over the slices, so a burst of interference from the host
/// (this sandbox has them) moves a few slices, not the number.
struct Slices {
    ops_per_s: f64,
    cpu_us_per_op: f64,
    p50_us: f64,
    /// Median over the slices of each slice's `q`-quantile.
    tail_us: f64,
}

fn slices(
    connections: &[Connection],
    cpu_marks: &[f64],
    stolen: &[bool],
    slice_s: f64,
    q: f64,
) -> Slices {
    let n = stolen.len();
    let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); n];
    for frame in connections.iter().flat_map(|c| &c.frames) {
        if let Some(slot) = by_slice.get_mut((frame.0 / slice_s) as usize) {
            slot.push(frame.1);
        }
    }
    let (mut rate, mut cpu, mut p50, mut tail, mut lost) = (vec![], vec![], vec![], vec![], vec![]);
    for (k, round_trips) in by_slice.iter_mut().enumerate() {
        if round_trips.is_empty() {
            continue; // a stall longer than a slice
        }
        lost.push(stolen[k]);
        stat::sort(round_trips);
        let ops = (round_trips.len() * FRAME_OPS) as f64;
        rate.push(ops / slice_s);
        cpu.push((cpu_marks[k + 1] - cpu_marks[k]) * 1e6 / ops);
        p50.push(stat::quantile_sorted(round_trips, 0.5) * 1e6);
        tail.push(stat::quantile_sorted(round_trips, q) * 1e6);
    }
    Slices {
        ops_per_s: stat::median_undisturbed(&rate, &lost),
        cpu_us_per_op: stat::median_undisturbed(&cpu, &lost),
        p50_us: stat::median_undisturbed(&p50, &lost),
        tail_us: stat::median_undisturbed(&tail, &lost),
    }
}

pub fn run(args: &RunArgs, shape: Shape) -> RunOutput {
    let mut out = RunOutput::default();
    let origin = Instant::now();
    let sink = Arc::new(obs::MemorySink::new());
    if args.trace {
        // The daemon's existing window_close / decision / reconfigure
        // events, captured in memory for the traced run only.
        obs::set_subscriber(sink.clone(), obs::Level::Info);
    }

    let (live, setup_s) = repeated_setup(
        || setup(args, shape),
        |old| {
            old.daemon.shutdown();
        },
    );
    let addr = live.daemon.addr();
    let cut = if args.smoke { 16 } else { 1 };
    let min_frames = match shape {
        Shape::Steady => 0,
        Shape::MgRast => CHECKPOINT_OPS / cut / FRAME_OPS,
    };

    let start = Arc::new(Barrier::new(live.streams.len() + 1));
    let workers: Vec<_> = live
        .streams
        .iter()
        .map(|stream| {
            let (stream, start) = (Arc::clone(stream), Arc::clone(&start));
            let (seconds, traced) = (args.seconds, args.trace);
            std::thread::spawn(move || {
                connection(addr, &stream, seconds, min_frames, traced, origin, &start)
            })
        })
        .collect();
    start.wait();
    // While the connections run, this thread only wakes at each slice
    // boundary to note the process CPU time and what the hypervisor took.
    let region = Region::start();
    let slice_s = args.seconds.min(1.0);
    let (mut cpu_marks, mut stolen) = (vec![0.0], Vec::new());
    let mut slice = Region::start();
    for k in 1..=(args.seconds / slice_s) as usize {
        let wait = k as f64 * slice_s - region.wall_s();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        cpu_marks.push(region.cpu_s());
        stolen.push(slice.stolen());
        slice = Region::start();
    }
    let connections: Vec<Connection> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread does not panic"))
        .collect();
    let wall_s = region.wall_s();

    // The daemon's own account of the run, then shut it down.
    let mut client = Client::connect(addr).expect("connect to own daemon");
    let stats = client.stats().expect("final stats");
    let config = client.config().expect("final config");
    drop(client);
    let report = live.daemon.shutdown();
    obs::clear_subscriber();

    let sent: u64 = connections.iter().map(|c| c.sent_ops).sum();
    out.attempted = sent;
    out.failed = connections.iter().map(|c| c.failed_ops).sum();
    let executed = live.warmup_ops as u64 + sent - out.failed;
    out.check(stats.operations == executed, || {
        format!(
            "daemon executed {} ops, clients sent {executed}",
            stats.operations
        )
    });
    out.check(report.operations == stats.operations, || {
        format!(
            "ServeReport.operations {} vs stats {}",
            report.operations, stats.operations
        )
    });
    let sum = |f: fn(&rafiki_serve::ShardStats) -> u64| stats.shards.iter().map(f).sum::<u64>();
    out.check(
        stats.shards.len() == SHARDS
            && sum(|s| s.operations) == stats.operations
            && sum(|s| s.windows_closed) == stats.windows_closed
            && sum(|s| s.reoptimizations) == stats.reoptimizations
            && sum(|s| s.reconfigurations) == stats.reconfigurations,
        || "per-shard stats rows do not sum to the aggregate".to_string(),
    );
    let expected_windows = sum(|s| s.operations / WINDOW_OPS as u64);
    out.check(stats.windows_closed == expected_windows, || {
        format!(
            "{} windows closed, {expected_windows} expected",
            stats.windows_closed
        )
    });
    out.check(
        report.reconfigurations == config.events.len() as u64,
        || "reconfiguration events and ServeReport disagree".to_string(),
    );
    if shape == Shape::MgRast {
        out.check(stats.reconfigurations >= 1 || args.smoke, || {
            "the MG-RAST stream reconfigured nothing".to_string()
        });
    }

    let mut round_trips: Vec<f64> = connections
        .iter()
        .flat_map(|c| c.frames.iter().map(|f| f.1))
        .collect();
    if round_trips.is_empty() {
        out.problems
            .push("no frame succeeded; no metrics".to_string());
        return out;
    }
    stat::sort(&mut round_trips);
    let whole = |q: f64| stat::quantile_sorted(&round_trips, q) * 1e6;
    out.notes.push(format!(
        "{} frames over {wall_s:.1} s: p50 {:.1} us, p90 {:.1}, p99 {:.1}, p99.9 {:.1}",
        round_trips.len(),
        whole(0.5),
        whole(0.9),
        whole(0.99),
        whole(0.999)
    ));
    let sliced = slices(&connections, &cpu_marks, &stolen, slice_s, 0.99);
    note_stolen(&mut out, "one-second slices", &stolen);
    // On serve_steady nothing slower than p99 is the daemon's doing:
    // beyond it this sandbox's hypervisor decides and the number does not
    // repeat. On serve_mgrast the tail *is* the synchronous search: the
    // frame in the middle of the R slowest, R the re-optimizations of the
    // timed region (never beyond p99.9) — where the p99.9 itself jumps
    // between frames that waited for one search and for two.
    let searches = stats.reoptimizations - live.before.reoptimizations;
    let frames = round_trips.len();
    let (tail_us, tail_note) = match shape {
        Shape::Steady => {
            let per_slice = frames / stolen.len().max(1);
            (
                sliced.tail_us,
                stat::tail_note(per_slice, 0.99) + " per slice",
            )
        }
        Shape::MgRast => {
            let q = (1.0 - searches as f64 / (2 * frames) as f64).min(0.999);
            (whole(q), stat::tail_note(frames, q))
        }
    };
    out.notes.push(format!("latency: {tail_note}"));
    // At the checkpoint on serve_mgrast (exact), at the end otherwise.
    let (counted, counted_config) = connections
        .iter()
        .find_map(|c| c.checkpoint.as_ref())
        .map_or((&stats, &config), |(s, c)| (s, c));

    if !args.trace {
        let v = &mut out.values;
        v.insert("setup_s", setup_s);
        v.insert("ops_per_s", sliced.ops_per_s);
        v.insert("cpu_us_per_op", sliced.cpu_us_per_op);
        v.insert("lat_p50_us", sliced.p50_us);
        v.insert("lat_tail_us", tail_us);
        // Simulated clock: ops per simulated second at the daemon's
        // one-op-in-flight stepping, from its own latency account.
        v.insert("sim_ops_per_s", 1e6 / counted.latency.mean_us);
        return out;
    }

    let p50 = whole(0.5) / 1e6;
    let slow: Vec<f64> = round_trips
        .iter()
        .copied()
        .filter(|&t| t > SLOW_FRAME_S)
        .collect();
    let stalled: f64 = slow.iter().map(|t| t - p50).sum();
    // The sink saw every daemon of this run, set-up repeats included;
    // its own window_close events are the matching denominator.
    let events = sink.events();
    let closes = events.iter().filter(|e| e.name == "window_close").count();
    let v = &mut out.values;
    v.insert("bench.traced_ops_per_s", sliced.ops_per_s);
    v.insert("serve.windows_closed", counted.windows_closed as f64);
    v.insert("serve.reoptimizations", counted.reoptimizations as f64);
    v.insert("serve.reconfigurations", counted_config.events.len() as f64);
    v.insert("serve.sim_op_p50_us", counted.latency.p50_us as f64);
    v.insert("serve.sim_op_p99_us", counted.latency.p99_us as f64);
    v.insert("serve.slow_frames", slow.len() as f64);
    v.insert(
        "serve.stall_share",
        stalled / (wall_s * connections.len() as f64),
    );
    v.insert(
        "obs.events_per_window",
        events.len() as f64 / closes.max(1) as f64,
    );

    // Replay the run's own inputs through each layer's public functions.
    let costs = probes::run(args, Some(&live.streams[0]));
    let decisions = decision_cost(args, &stats, &live.before) / (sent - out.failed) as f64;
    shares(
        &mut out.values,
        &costs,
        sliced.cpu_us_per_op * 1e3,
        decisions,
    );
    out.values.extend(costs.values);

    let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for c in &connections {
        spans::merge_totals(&mut totals, &spans::totals_by_name(&c.spans));
    }
    let recorded: usize = connections.iter().map(|c| c.spans.len()).sum();
    out.values.insert("bench.spans_recorded", recorded as f64);
    fill_idle(&mut out.values);
    let threads: Vec<&[Span]> = connections.iter().map(|c| &c.spans[..]).collect();
    out.trace = Some(spans::trace_json(
        shape.name(),
        args.seed,
        &threads,
        &totals,
    ));
    out
}

/// Nanoseconds the daemon's controller took over the timed region,
/// estimated by refitting the same tuner (a fit is a pure function of
/// the seed) and timing its two paths outside the daemon.
fn decision_cost(args: &RunArgs, stats: &StatsReport, before: &StatsReport) -> f64 {
    let tuner = serve_fit(args.smoke).fit(lane(args.seed, 1));
    let space = tuner.space().expect("fitted");
    let genome = space.default_genome();
    let reopt = stat::median(&[0.1, 0.5, 0.9].map(|rr| {
        let t = Instant::now();
        std::hint::black_box(tuner.optimize(rr).expect("fitted"));
        t.elapsed().as_secs_f64()
    }));
    let t = Instant::now();
    for _ in 0..200 {
        std::hint::black_box(
            tuner
                .predict_many(0.9, std::slice::from_ref(&genome))
                .expect("fitted"),
        );
    }
    let hold = t.elapsed().as_secs_f64() / 200.0;
    let searches = stats.reoptimizations - before.reoptimizations;
    let holds = stats.windows_closed - before.windows_closed - searches;
    (searches as f64 * reopt + holds as f64 * hold) * 1e9
}

/// Layer shares of the process CPU per client op: each layer's replayed
/// unit cost over the measured total; what no replay explains —
/// syscalls, channel hops, wake-ups, the client's own loop — is `other`.
fn shares(v: &mut Values, costs: &probes::Costs, cpu_ns_per_op: f64, decision_ns_per_op: f64) {
    let c = &costs.values;
    let serve = c["serve.encode_req_ns_per_op"]
        + c["serve.decode_req_ns_per_op"]
        + c["serve.encode_resp_ns_per_op"]
        + c["serve.decode_resp_ns_per_op"]
        + c["serve.route_ns_per_op"];
    // Each op is recorded into its shard's lifetime and window histogram.
    let stats = 2.0 * c["stats.hist_record_ns"];
    let search = decision_ns_per_op * (1.0 - costs.surrogate_share_ga);
    let neural = decision_ns_per_op * costs.surrogate_share_ga;
    let named = [
        ("share.serve", serve),
        ("share.engine", c["engine.conc1_step_ns_per_op"]),
        ("share.workload", c["workload.characterize_ns_per_op"]),
        ("share.stats", stats),
        ("share.search", search),
        ("share.neural", neural),
    ];
    let mut explained = 0.0;
    for (name, ns) in named {
        v.insert(name, ns / cpu_ns_per_op);
        explained += ns / cpu_ns_per_op;
    }
    v.insert("share.other", 1.0 - explained);
}
