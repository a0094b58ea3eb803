//! The middleware daemon: a TCP server that executes client operations
//! against a cluster of live simulated engine shards while
//! characterizing each shard's stream and retuning the shards online.
//!
//! One [`Server`] owns a fitted [`RafikiTuner`] plus the listening
//! socket. [`Server::run`] builds the live pipeline — a seeded
//! [`HashRing`], one `ShardWorker` thread per shard (each with its own
//! [`Engine`](rafiki_engine::Engine), `OnlineCharacterizer` and latency
//! histograms), and a shared [`rafiki::ClusterController`] — and serves
//! connections on scoped threads until a `shutdown` frame arrives.
//!
//! # Sharded execution model
//!
//! Connection handlers never touch an engine. They route each operation
//! by consistent hash to its owning shard's MPSC queue and wait for the
//! latency reply; a `batch` frame is partitioned per shard, scattered,
//! and gathered back into frame order. Each worker executes its queue
//! strictly sequentially, stepping every op to completion on its private
//! simulated clock — so there is **no lock on the op hot path** (the
//! pre-sharding daemon serialized every op through one daemon-wide
//! mutex), and each shard's engine is quiescent between queue messages,
//! which is when characterization windows close and
//! [`Engine::reconfigure`](rafiki_engine::Engine::reconfigure) applies —
//! per shard, without stalling the others. With `--shards 1` the
//! observable behavior (stats, events, metrics) is identical to the old
//! single-engine daemon. See `DESIGN.md` §10.

use crate::protocol::{
    BatchResult, ClusterEvent, ConfigReport, LatencySummary, MetricsHistogram, MetricsReport,
    Request, Response, ShardConfig, ShardStats, StatsReport, WindowActivity,
};
use crate::shard::{
    lock, ClusterShared, EventLog, OpsReply, ShardRequest, ShardSnapshot, ShardWorker,
};
use crate::wire::{write_all_vectored, Json};
use rafiki::{ClusterController, ControllerConfig, RafikiTuner, TuningMode};
use rafiki_engine::HashRing;
use rafiki_obs::Registry;
use rafiki_stats::StreamingHistogram;
use rafiki_workload::Operation;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Mutex;
use std::time::Duration;

/// How often blocked reads (and idle shard workers) wake up to check
/// the shutdown flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(25);
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
    /// tuning loop on its own worker thread. 0 is treated as 1.
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
    /// [`Server::stop`] is called), then drains every connection, winds
    /// down the shard workers, and reports the lifetime totals.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop socket errors. Per-connection I/O errors
    /// only drop that connection.
    pub fn run(&self) -> io::Result<ServeReport> {
        let shards = self.cfg.shards.max(1);
        let mode = if self.cfg.lockstep {
            TuningMode::Lockstep
        } else {
            TuningMode::Independent
        };
        let controller = ClusterController::new(&self.tuner, self.cfg.controller, shards, mode)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{e:?}")))?;
        let ring = HashRing::with_shards(shards, RING_SEED);
        let shared = ClusterShared {
            controller: Mutex::new(controller),
            log: Mutex::new(EventLog::default()),
            last_window: Mutex::new(WindowActivity::default()),
            registry: Registry::new(),
            worker_stop: AtomicBool::new(false),
        };
        if shards > 1 {
            // Record the topology on the audit trail: how much of the
            // keyspace moved relative to a one-shard-smaller ring (the
            // scale-out this deployment represents).
            let prev = HashRing::with_shards(shards - 1, RING_SEED);
            let sample = self.cfg.preload_keys.max(1 << 16);
            let moved_fraction = prev.moved_fraction(&ring, sample);
            lock(&shared.log).cluster.push(ClusterEvent {
                kind: "scale_out".to_string(),
                window: 0,
                shards: shards as u64,
                moved_fraction,
                detail: format!(
                    "cluster bootstrapped at {shards} shards; {:.1}% of keys \
                     moved relative to a {}-shard ring",
                    moved_fraction * 100.0,
                    shards - 1
                ),
            });
        }
        let (txs, rxs): (Vec<Sender<ShardRequest>>, Vec<Receiver<ShardRequest>>) =
            (0..shards).map(|_| mpsc::channel()).unzip();

        self.listener.set_nonblocking(true)?;
        std::thread::scope(|scope| -> io::Result<ServeReport> {
            let mut workers = Vec::with_capacity(shards);
            for (shard, rx) in rxs.into_iter().enumerate() {
                let peers = txs.clone();
                let (ring, cfg, shared) = (&ring, &self.cfg, &shared);
                workers.push(scope.spawn(move || {
                    // Built inside the thread so per-shard preloads run
                    // in parallel.
                    ShardWorker::new(shard, ring, cfg, shared, peers).run(rx)
                }));
            }

            let mut conns = Vec::new();
            let accepted = loop {
                if self.stop.load(Ordering::SeqCst) {
                    break Ok(());
                }
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let shard_txs = txs.clone();
                        let (ring, shared, stop) = (&ring, &shared, &self.stop);
                        conns.push(scope.spawn(move || {
                            // I/O errors just drop this connection.
                            let _ = serve_connection(stream, ring, shard_txs, shared, stop);
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => break Err(e),
                }
            };
            // Shutdown order matters: connections first (they may still
            // be waiting on worker replies), then the workers. Workers
            // drain any queued cross-shard applies before exiting.
            for conn in conns {
                let _ = conn.join();
            }
            drop(txs);
            shared.worker_stop.store(true, Ordering::SeqCst);
            let mut report = ServeReport {
                operations: 0,
                windows_closed: 0,
                reoptimizations: 0,
                reconfigurations: 0,
            };
            for worker in workers {
                let fin = worker.join().unwrap_or_default();
                report.operations += fin.operations;
                report.windows_closed += fin.windows_closed;
                report.reoptimizations += fin.reoptimizations;
            }
            accepted?;
            report.reconfigurations = lock(&shared.log).events.len() as u64;
            Ok(report)
        })
    }
}

/// A worker's queue or reply channel died (it panicked); the connection
/// cannot make progress.
fn dead_worker() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "shard worker exited")
}

fn serve_connection(
    stream: TcpStream,
    ring: &HashRing,
    txs: Vec<Sender<ShardRequest>>,
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

    loop {
        lines[0].clear();
        // Accumulate one full line; a read timeout mid-frame keeps the
        // partial line and re-polls so no bytes are lost.
        let appended = loop {
            match reader.read_line(&mut lines[0]) {
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
            match reader.read_line(&mut lines[count]) {
                Ok(0) => break,
                Ok(_) => count += 1,
                Err(_) => break, // next blocking read surfaces the error
            }
        }

        let mut bye = false;
        let mut n_out = 0;
        for line in lines.iter().take(count) {
            if line.trim().is_empty() {
                continue;
            }
            let response = respond(line, ring, &txs, shared, stop)?;
            bye = response == Response::Bye;
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
    txs: &[Sender<ShardRequest>],
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
        Request::Op(op) => {
            let (reply_tx, reply_rx) = mpsc::channel();
            txs[ring.shard_of(op.key.0)]
                .send(ShardRequest::Ops {
                    ops: vec![(0, op)],
                    reply: reply_tx,
                })
                .map_err(|_| dead_worker())?;
            let reply = reply_rx.recv().map_err(|_| dead_worker())?;
            Response::Done {
                latency_us: reply.latencies[0].1,
            }
        }
        Request::Batch(items) => {
            // Scatter the frame's ops to their owning shards (each
            // executes its slice sequentially, shards in parallel), then
            // gather the latencies back into frame order.
            let mut results: Vec<BatchResult> = Vec::with_capacity(items.len());
            let mut per_shard: Vec<Vec<(usize, Operation)>> = vec![Vec::new(); txs.len()];
            for (index, item) in items.into_iter().enumerate() {
                match item {
                    Ok(op) => {
                        per_shard[ring.shard_of(op.key.0)].push((index, op));
                        // Placeholder, overwritten by the shard's reply.
                        results.push(BatchResult::Done { latency_us: 0 });
                    }
                    Err(message) => results.push(BatchResult::Error { message }),
                }
            }
            let (reply_tx, reply_rx) = mpsc::channel();
            let mut expected = 0usize;
            for (shard, ops) in per_shard.into_iter().enumerate() {
                if ops.is_empty() {
                    continue;
                }
                txs[shard]
                    .send(ShardRequest::Ops {
                        ops,
                        reply: reply_tx.clone(),
                    })
                    .map_err(|_| dead_worker())?;
                expected += 1;
            }
            drop(reply_tx);
            for _ in 0..expected {
                let OpsReply { latencies } = reply_rx.recv().map_err(|_| dead_worker())?;
                for (index, latency_us) in latencies {
                    results[index] = BatchResult::Done { latency_us };
                }
            }
            Response::Batch(results)
        }
        Request::Stats => Response::Stats(stats_of(&gather_snapshots(txs)?, shared)),
        Request::Config => {
            let snapshots = gather_snapshots(txs)?;
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
        Request::Metrics => Response::Metrics(metrics_of(shared)),
        Request::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            Response::Bye
        }
    })
}

/// Asks every shard for a state snapshot and gathers the replies in
/// shard order.
fn gather_snapshots(txs: &[Sender<ShardRequest>]) -> io::Result<Vec<ShardSnapshot>> {
    let (reply_tx, reply_rx) = mpsc::channel();
    for tx in txs {
        tx.send(ShardRequest::Snapshot {
            reply: reply_tx.clone(),
        })
        .map_err(|_| dead_worker())?;
    }
    drop(reply_tx);
    let mut snapshots = Vec::with_capacity(txs.len());
    for _ in 0..txs.len() {
        snapshots.push(reply_rx.recv().map_err(|_| dead_worker())?);
    }
    snapshots.sort_by_key(|s| s.shard);
    Ok(snapshots)
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
    let mut merged = StreamingHistogram::new();
    for s in snapshots {
        merged.merge(&s.histogram);
    }
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
        latency: latency_of(&merged),
        last_window: *lock(&shared.last_window),
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

/// Snapshots the registry into the wire-level report. Includes both the
/// aggregate series and every `{shard="N"}`-labeled series.
fn metrics_of(shared: &ClusterShared<'_>) -> MetricsReport {
    let snapshot = shared.registry.snapshot();
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
