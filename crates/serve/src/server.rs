//! The middleware daemon: a TCP server that executes client operations
//! against a cluster of live simulated engine shards while
//! characterizing each shard's stream and retuning the shards online.
//!
//! One [`Server`] owns a fitted [`RafikiTuner`] plus the listening
//! socket. [`Server::run`] builds the live pipeline — a seeded
//! [`HashRing`], one mutex-guarded `Shard` per shard (each with its own
//! [`Engine`](rafiki_engine::Engine), `OnlineCharacterizer` and latency
//! histograms), and a shared [`rafiki::ClusterController`] — and serves
//! connections on scoped threads until a `shutdown` frame arrives.
//!
//! # Sharded execution model
//!
//! A connection thread routes each operation of a frame by consistent
//! hash into per-shard slice buffers it reuses across frames, then runs
//! every non-empty slice itself, under that shard's mutex: shards that
//! are free first (`try_lock`), then blocking on the first busy one. The
//! latencies go straight into the frame's results, so an op never
//! changes threads and a frame pays no wake-up beyond its socket I/O. A
//! shard steps each op to completion before its lock is released, so
//! its engine is quiescent whenever the lock is free; characterization
//! windows close, and
//! [`Engine::reconfigure`](rafiki_engine::Engine::reconfigure) applies,
//! per shard, without stalling the others. The price is that one
//! frame's slices run one after another: a single connection gets no
//! parallelism inside a frame, while separate connections run in
//! parallel. With `--shards 1` the observable behavior (stats, events,
//! metrics) is identical to the old single-engine daemon. See
//! `DESIGN.md` §10.

use crate::protocol::{
    BatchResult, ClusterEvent, ConfigReport, LatencySummary, MetricsHistogram, MetricsReport,
    Request, Response, ShardConfig, ShardStats, StatsReport, WindowActivity, MAX_FRAME_BYTES,
};
use crate::shard::{lock, ClusterShared, EventLog, Shard, ShardSnapshot};
use crate::wire::{write_all_vectored, Json};
use rafiki::{ClusterController, ControllerConfig, RafikiTuner, TuningMode};
use rafiki_engine::HashRing;
use rafiki_obs::{self as obs, HistogramSummary};
use rafiki_stats::StreamingHistogram;
use rafiki_workload::Operation;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Duration;

/// How often blocked reads and the accept loop wake up to check the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// How many already-buffered frames a connection drains per read before
/// writing responses back (responses for a burst leave in one
/// [`write_all_vectored`] call).
const MAX_BURST: usize = 32;
/// Seed for the cluster's consistent-hash ring. Fixed so key→shard
/// routing is deterministic across daemon restarts: a key preloaded
/// into shard 2 today is served by shard 2 tomorrow.
const RING_SEED: u64 = 0x7261_6669_6b69_3031; // "rafiki01"

/// Daemon settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Operations per characterization window (the discrete analogue of
    /// the paper's 15-minute windows). Per shard: each shard's
    /// characterizer closes its own windows.
    pub window_ops: usize,
    /// Distinct keys the streaming KRD estimator may track (per shard).
    pub krd_capacity: usize,
    /// Online-controller settings (thresholds, proactive mode).
    pub controller: ControllerConfig,
    /// Keys preloaded into the cluster before serving; each shard loads
    /// exactly the subset the hash ring routes to it.
    pub preload_keys: u64,
    /// Payload size of preloaded rows, in bytes.
    pub preload_payload: u32,
    /// Engine shards. Each shard is a full engine + characterizer +
    /// tuning loop behind its own mutex, run by whichever connection
    /// thread has ops for it. 0 is treated as 1.
    pub shards: usize,
    /// Tune shards in lockstep (one shared decision stream reconfigures
    /// every shard) instead of independently.
    pub lockstep: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            window_ops: 1_000,
            krd_capacity: 1 << 16,
            controller: ControllerConfig::default(),
            preload_keys: 20_000,
            preload_payload: 1_000,
            shards: 1,
            lockstep: false,
        }
    }
}

/// What a daemon did over its lifetime, returned by [`Server::run`].
/// Totals are summed across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Operations executed.
    pub operations: u64,
    /// Characterization windows closed.
    pub windows_closed: u64,
    /// Windows on which the controller consulted its policy table.
    pub reoptimizations: u64,
    /// Configurations applied to live engines.
    pub reconfigurations: u64,
}

/// The online tuning middleware daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    tuner: RafikiTuner,
    cfg: ServeConfig,
    stop: AtomicBool,
}

impl Server {
    /// Binds the daemon to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Fails on socket errors, or with [`io::ErrorKind::InvalidInput`]
    /// when the tuner has not been fitted.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        tuner: RafikiTuner,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        if tuner.surrogate().is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the tuner must be fitted before serving",
            ));
        }
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            tuner,
            cfg,
            stop: AtomicBool::new(false),
        })
    }

    /// The bound address (the actual port when bound to port 0).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Requests the accept loop to exit; equivalent to a `shutdown` frame.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Serves connections until a `shutdown` frame arrives (or
    /// [`Server::stop`] is called), then drains every connection and
    /// reports the lifetime totals.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop socket errors, and fails if a shard's
    /// preload panics. Per-connection I/O errors only drop that
    /// connection.
    pub fn run(&self) -> io::Result<ServeReport> {
        let shard_count = self.cfg.shards.max(1);
        let mode = if self.cfg.lockstep {
            TuningMode::Lockstep
        } else {
            TuningMode::Independent
        };
        let controller =
            ClusterController::new(&self.tuner, self.cfg.controller, shard_count, mode)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{e:?}")))?;
        let ring = HashRing::with_shards(shard_count, RING_SEED);
        let shared = ClusterShared {
            controller: Mutex::new(controller),
            log: Mutex::new(EventLog::default()),
            last_window: Mutex::new((WindowActivity::default(), 0.0)),
            decide_us: Mutex::new(StreamingHistogram::new()),
        };
        if shard_count > 1 {
            // Record the topology on the audit trail: how much of the
            // keyspace moved relative to a one-shard-smaller ring (the
            // scale-out this deployment represents).
            let prev = HashRing::with_shards(shard_count - 1, RING_SEED);
            let sample = self.cfg.preload_keys.max(1 << 16);
            let moved_fraction = prev.moved_fraction(&ring, sample);
            lock(&shared.log).cluster.push(ClusterEvent {
                kind: "scale_out".to_string(),
                window: 0,
                shards: shard_count as u64,
                moved_fraction,
                detail: format!(
                    "cluster bootstrapped at {shard_count} shards; {:.1}% of keys \
                     moved relative to a {}-shard ring",
                    moved_fraction * 100.0,
                    shard_count - 1
                ),
            });
        }
        // Per-shard preloads run in parallel, one scoped thread each.
        let shards = std::thread::scope(|scope| {
            let builders: Vec<_> = (0..shard_count)
                .map(|shard| {
                    let (ring, cfg, shared) = (&ring, &self.cfg, &shared);
                    scope.spawn(move || Shard::new(shard, ring, cfg, shared))
                })
                .collect();
            builders
                .into_iter()
                .map(|b| b.join().map(Mutex::new))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|_| io::Error::other("a shard preload panicked"))?;

        self.listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            let mut conns = Vec::new();
            let accepted = loop {
                if self.stop.load(Ordering::SeqCst) {
                    break Ok(());
                }
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let (ring, shards, shared, stop) = (&ring, &shards, &shared, &self.stop);
                        conns.push(scope.spawn(move || {
                            // I/O errors just drop this connection.
                            let _ = serve_connection(stream, ring, shards, shared, stop);
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => break Err(e),
                }
            };
            // Joined by hand: a connection that panicked mid-op (and so
            // poisoned a shard) must not take the daemon down with it.
            for conn in conns {
                let _ = conn.join();
            }
            accepted
        })?;

        let mut report = ServeReport {
            operations: 0,
            windows_closed: 0,
            reoptimizations: 0,
            reconfigurations: lock(&shared.log).events.len() as u64,
        };
        for shard in shards {
            // Every connection is gone, so only counters are read: a
            // poisoned shard never serves again, but what it did counts.
            let s = shard
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .snapshot();
            report.operations += s.operations;
            report.windows_closed += s.windows_closed;
            report.reoptimizations += s.reoptimizations;
        }
        Ok(report)
    }
}

/// A shard's mutex is poisoned: a panic mid-op may have left its engine
/// half-stepped, so the frame fails and the connection drops.
fn dead_shard() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "shard panicked mid-operation")
}

/// Locks one shard, failing on a poisoned one (see [`dead_shard`]).
fn lock_shard<'a, 't, 'c>(
    shard: &'a Mutex<Shard<'t, 'c>>,
) -> io::Result<MutexGuard<'a, Shard<'t, 'c>>> {
    shard.lock().map_err(|_| dead_shard())
}

/// Appends to `line` at most what is left of one frame's byte budget
/// (`MAX_FRAME_BYTES` plus the newline), so a client that never sends a
/// newline cannot grow the buffer without bound.
fn read_frame(reader: &mut BufReader<TcpStream>, line: &mut String) -> io::Result<usize> {
    let budget = (MAX_FRAME_BYTES + 1).saturating_sub(line.len());
    reader.take(budget as u64).read_line(line)
}

fn serve_connection(
    stream: TcpStream,
    ring: &HashRing,
    shards: &[Mutex<Shard<'_, '_>>],
    shared: &ClusterShared<'_>,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    // Scratch buffers reused across bursts: inbound frames and their
    // encoded responses (newline included).
    let mut lines: Vec<String> = vec![String::new()];
    let mut outs: Vec<String> = Vec::new();
    // One slice of `(frame index, op)` pairs per shard, reused across
    // frames (empty between them).
    let mut slices: Vec<Vec<(usize, Operation)>> = vec![Vec::new(); shards.len()];

    loop {
        lines[0].clear();
        // Accumulate one full line; a read timeout mid-frame keeps the
        // partial line and re-polls so no bytes are lost.
        let appended = loop {
            match read_frame(&mut reader, &mut lines[0]) {
                Ok(n) => break n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        if appended == 0 && lines[0].is_empty() {
            return Ok(()); // clean EOF
        }
        let eof = appended == 0;
        // A pipelining client may have more complete frames already
        // sitting in the read buffer; drain them (bounded) so their
        // responses can leave in one vectored write.
        let mut count = 1;
        while !eof && count < MAX_BURST && reader.buffer().contains(&b'\n') {
            if lines.len() == count {
                lines.push(String::new());
            }
            lines[count].clear();
            match read_frame(&mut reader, &mut lines[count]) {
                Ok(0) => break,
                Ok(_) => count += 1,
                Err(_) => break, // next blocking read surfaces the error
            }
        }

        let mut bye = false;
        let mut n_out = 0;
        for line in lines.iter().take(count) {
            let oversized = line.len() > MAX_FRAME_BYTES && !line.ends_with('\n');
            let response = if oversized {
                // There is no resyncing mid-frame: answer in band, then
                // close.
                Response::Error {
                    message: format!(
                        "frame exceeds {MAX_FRAME_BYTES} bytes without a newline; \
                         closing the connection"
                    ),
                }
            } else if line.trim().is_empty() {
                continue;
            } else {
                respond(line, ring, shards, &mut slices, shared, stop)?
            };
            bye = oversized || response == Response::Bye;
            if outs.len() == n_out {
                outs.push(String::new());
            }
            outs[n_out].clear();
            response.to_json().encode_into(&mut outs[n_out]);
            outs[n_out].push('\n');
            n_out += 1;
            if bye {
                break;
            }
        }
        match n_out {
            0 => {}
            1 => writer.write_all(outs[0].as_bytes())?,
            _ => {
                let bufs: Vec<&[u8]> = outs[..n_out].iter().map(|s| s.as_bytes()).collect();
                write_all_vectored(&mut writer, &bufs)?;
            }
        }
        if bye || eof {
            return Ok(());
        }
    }
}

fn respond(
    line: &str,
    ring: &HashRing,
    shards: &[Mutex<Shard<'_, '_>>],
    slices: &mut [Vec<(usize, Operation)>],
    shared: &ClusterShared<'_>,
    stop: &AtomicBool,
) -> io::Result<Response> {
    // Canonical batch frames (the hot path for batched load) decode
    // without building a `Json` tree; anything else — including
    // malformed or oversized batches — goes through the generic parser,
    // which produces the precise error messages.
    let request = match crate::protocol::decode_batch_fast(line.trim()) {
        Some(r) => r,
        None => {
            let parsed = match Json::parse(line.trim()) {
                Ok(v) => v,
                Err(e) => {
                    return Ok(Response::Error {
                        message: format!("malformed json: {e}"),
                    })
                }
            };
            match Request::from_json(&parsed) {
                Ok(r) => r,
                Err(message) => return Ok(Response::Error { message }),
            }
        }
    };
    Ok(match request {
        Request::Op(op) => match run_frame(vec![Ok(op)], ring, shards, slices)?.as_slice() {
            [BatchResult::Done { latency_us }] => Response::Done {
                latency_us: *latency_us,
            },
            _ => unreachable!("a decoded op always completes"),
        },
        Request::Batch(items) => Response::Batch(run_frame(items, ring, shards, slices)?),
        Request::Stats => Response::Stats(stats_of(&snapshots(shards)?, shared)),
        Request::Config => {
            let snapshots = snapshots(shards)?;
            let log = lock(&shared.log);
            Response::Config(ConfigReport {
                active: snapshots[0].active.clone(),
                events: log.events.clone(),
                shards: snapshots
                    .iter()
                    .map(|s| ShardConfig {
                        shard: s.shard as u64,
                        active: s.active.clone(),
                    })
                    .collect(),
                cluster_events: log.cluster.clone(),
            })
        }
        Request::Metrics => Response::Metrics(metrics_of(&snapshots(shards)?, shared)),
        Request::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            Response::Bye
        }
    })
}

/// Executes one frame's decoded ops on this thread and returns their
/// results in frame order. Each op is routed into its shard's slice in
/// `slices` (the connection's buffers, left empty);
/// each non-empty slice then runs under its shard's lock — every free
/// shard first, then blocking on the first busy one, until none is
/// left. The lockstep applies those slices' window closes decided for
/// peers run last, one shard lock at a time, so the frame is answered
/// only after every shard runs the configuration decided for it.
fn run_frame(
    items: Vec<Result<Operation, String>>,
    ring: &HashRing,
    shards: &[Mutex<Shard<'_, '_>>],
    slices: &mut [Vec<(usize, Operation)>],
) -> io::Result<Vec<BatchResult>> {
    let mut results = Vec::with_capacity(items.len());
    for (index, item) in items.into_iter().enumerate() {
        match item {
            Ok(op) => {
                slices[ring.shard_of(op.key.0)].push((index, op));
                // Placeholder, overwritten when the op's slice runs.
                results.push(BatchResult::Done { latency_us: 0 });
            }
            Err(message) => results.push(BatchResult::Error { message }),
        }
    }
    // Lockstep applies the slices' window closes decide for peers.
    let mut applies = Vec::new();
    loop {
        let mut busy = None;
        for (shard, slice) in slices.iter_mut().enumerate() {
            if slice.is_empty() {
                continue;
            }
            match shards[shard].try_lock() {
                Ok(mut guard) => guard.run_slice(slice, &mut results, &mut applies),
                Err(TryLockError::WouldBlock) => {
                    busy.get_or_insert(shard);
                }
                Err(TryLockError::Poisoned(_)) => return Err(dead_shard()),
            }
        }
        let Some(shard) = busy else { break };
        lock_shard(&shards[shard])?.run_slice(&mut slices[shard], &mut results, &mut applies);
    }
    for apply in applies {
        lock_shard(&shards[apply.shard])?.apply(apply);
    }
    Ok(results)
}

/// Snapshots every shard in shard order, holding one lock at a time.
fn snapshots(shards: &[Mutex<Shard<'_, '_>>]) -> io::Result<Vec<ShardSnapshot>> {
    shards
        .iter()
        .map(|s| Ok(lock_shard(s)?.snapshot()))
        .collect()
}

/// Summarizes a latency histogram into the wire form.
fn latency_of(h: &StreamingHistogram) -> LatencySummary {
    LatencySummary {
        count: h.total(),
        mean_us: h.mean().unwrap_or(0.0),
        p50_us: h.quantile(0.5).unwrap_or(0),
        p95_us: h.quantile(0.95).unwrap_or(0),
        p99_us: h.quantile(0.99).unwrap_or(0),
        max_us: h.max().unwrap_or(0),
    }
}

/// Builds the `stats` report: per-shard rows straight from the
/// snapshots, and the aggregate merged *exactly* from the same snapshots
/// — ratios from summed sufficient statistics (Σreads/Σops,
/// Σdistance_sum/Σdistance_count), latency quantiles from the merged
/// histograms — so per-shard rows always sum to the aggregate, and a
/// one-shard cluster reports exactly what the pre-sharding daemon did.
/// The aggregate `last_window` is the most recently closed window in
/// real time, whatever shard it closed on — the one field that can
/// differ between otherwise identical multi-shard runs.
fn stats_of(snapshots: &[ShardSnapshot], shared: &ClusterShared<'_>) -> StatsReport {
    let operations: u64 = snapshots.iter().map(|s| s.operations).sum();
    let reads: u64 = snapshots.iter().map(|s| s.reads).sum();
    let distance_count: u64 = snapshots.iter().map(|s| s.distance_count).sum();
    let distance_sum: f64 = snapshots.iter().map(|s| s.distance_sum).sum();
    StatsReport {
        operations,
        read_ratio: if operations == 0 {
            0.0
        } else {
            reads as f64 / operations as f64
        },
        krd_mean: (distance_count > 0).then(|| distance_sum / distance_count as f64),
        windows_closed: snapshots.iter().map(|s| s.windows_closed).sum(),
        reoptimizations: snapshots.iter().map(|s| s.reoptimizations).sum(),
        reconfigurations: snapshots.iter().map(|s| s.reconfigurations).sum(),
        latency: latency_of(&merged_latency(snapshots)),
        last_window: lock(&shared.last_window).0,
        shards: snapshots
            .iter()
            .map(|s| ShardStats {
                shard: s.shard as u64,
                operations: s.operations,
                read_ratio: s.read_ratio,
                krd_mean: s.krd_mean,
                windows_closed: s.windows_closed,
                reoptimizations: s.reoptimizations,
                reconfigurations: s.reconfigurations,
                latency: latency_of(&s.histogram),
                last_window: s.last_window,
            })
            .collect(),
    }
}

/// Every shard's lifetime latencies, merged bucket-exactly.
fn merged_latency(snapshots: &[ShardSnapshot]) -> StreamingHistogram {
    let mut merged = StreamingHistogram::new();
    for s in snapshots {
        merged.merge(&s.histogram);
    }
    merged
}

/// Builds the `metrics` report from the same shard snapshots as
/// [`stats_of`], so each event is counted once and the two frames agree
/// at all times: every series is an unlabeled aggregate (summed, or
/// merged for latency) plus one `{shard="N"}` series per shard, each
/// section sorted by name. `serve_read_ratio` is the last window closed
/// on any shard, like the aggregate `last_window`; `serve_decide_us` is
/// the cluster's one decision-time histogram.
fn metrics_of(snapshots: &[ShardSnapshot], shared: &ClusterShared<'_>) -> MetricsReport {
    /// Pushes the aggregate `name` and then each shard's series.
    fn series<T>(
        out: &mut Vec<(String, T)>,
        name: &str,
        total: T,
        snapshots: &[ShardSnapshot],
        of: impl Fn(&ShardSnapshot) -> T,
    ) {
        out.push((name.to_string(), total));
        for s in snapshots {
            let shard = s.shard.to_string();
            out.push((obs::labeled(name, &[("shard", &shard)]), of(s)));
        }
    }
    let mut snapshot = obs::Snapshot::default();
    let mut counter = |name: &str, count: fn(&ShardSnapshot) -> u64| {
        let total = snapshots.iter().map(count).sum();
        series(&mut snapshot.counters, name, total, snapshots, count);
    };
    counter("serve_controller_errors_total", |s| s.controller_errors);
    counter("serve_ops_total", |s| s.operations);
    counter("serve_reconfigurations_total", |s| s.reconfigurations);
    counter("serve_reoptimizations_total", |s| s.reoptimizations);
    counter("serve_windows_closed_total", |s| s.windows_closed);
    let last_read_ratio = lock(&shared.last_window).1;
    series(
        &mut snapshot.gauges,
        "serve_read_ratio",
        last_read_ratio,
        snapshots,
        |s| s.last_read_ratio,
    );
    let decide = HistogramSummary::of(&lock(&shared.decide_us));
    snapshot
        .histograms
        .push(("serve_decide_us".to_string(), decide));
    series(
        &mut snapshot.histograms,
        "serve_op_latency_us",
        HistogramSummary::of(&merged_latency(snapshots)),
        snapshots,
        |s| HistogramSummary::of(&s.histogram),
    );
    // Name order, as series names sort (`x{shard="10"}` before `x{shard="2"}`).
    snapshot.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snapshot.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    snapshot.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    let prometheus = snapshot.prometheus_text();
    MetricsReport {
        counters: snapshot.counters,
        gauges: snapshot.gauges,
        histograms: snapshot
            .histograms
            .into_iter()
            .map(|(name, h)| {
                (
                    name,
                    MetricsHistogram {
                        count: h.count,
                        sum: h.sum as f64,
                        min: h.min,
                        p50: h.p50,
                        p99: h.p99,
                        max: h.max,
                    },
                )
            })
            .collect(),
        prometheus,
    }
}
