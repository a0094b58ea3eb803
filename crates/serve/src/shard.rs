//! Per-shard engine workers: each shard owns one [`Engine`], one
//! [`OnlineCharacterizer`], and its latency histograms, and processes
//! operations from an MPSC queue on a dedicated thread. Connection
//! handlers route by consistent hash and scatter/gather over these
//! queues, so no mutex sits on the op hot path.
//!
//! # Per-shard quiescence
//!
//! A worker handles exactly one queue message at a time and steps every
//! foreground op to completion before touching the next message, so its
//! engine is always quiescent *between* messages. Characterization
//! windows close between ops, and [`Engine::reconfigure`] — whether
//! triggered by the shard's own window or delivered as a cross-shard
//! [`ShardRequest::Apply`] from a lockstep decision — therefore always
//! runs on a quiescent engine. This is the same contract the pre-sharding
//! daemon enforced with its one-lock-per-frame rule, now held per shard
//! without any lock on the op path.

use crate::protocol::{ClusterEvent, ConfigSummary, ParamChange, ReconfigEvent, WindowActivity};
use crate::server::{ServeConfig, POLL_INTERVAL};
use rafiki::{ClusterController, TuningMode};
use rafiki_engine::{
    Engine, EngineConfig, EngineMetrics, HashRing, OpCompletion, ServerSpec, SimTime,
};
use rafiki_obs as obs;
use rafiki_obs::{Counter, Gauge, HistogramHandle, Registry, Value};
use rafiki_stats::StreamingHistogram;
use rafiki_workload::{OnlineCharacterizer, Operation, WindowSummary};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One message on a shard's op queue.
pub(crate) enum ShardRequest {
    /// Execute operations (already routed to this shard), tagged with
    /// their index in the originating frame, and reply with latencies.
    Ops {
        /// `(frame index, operation)` pairs, in frame order.
        ops: Vec<(usize, Operation)>,
        /// Where to send the completed latencies.
        reply: Sender<OpsReply>,
    },
    /// Reply with a point-in-time snapshot of the shard's state.
    Snapshot {
        /// Where to send the snapshot.
        reply: Sender<ShardSnapshot>,
    },
    /// Reconfigure this shard's engine (a cross-shard apply from a
    /// lockstep decision taken on another shard's window).
    Apply {
        cfg: EngineConfig,
        window: u64,
        read_ratio: f64,
        predicted_throughput: f64,
    },
}

/// Latencies for one frame's ops on one shard.
pub(crate) struct OpsReply {
    /// `(frame index, latency µs)` pairs, in execution order.
    pub latencies: Vec<(usize, u64)>,
}

/// A point-in-time copy of one shard's observable state, shipped to the
/// connection handler that assembles `stats`/`config` frames. Carries
/// the *sufficient statistics* (`reads`, `distance_sum`,
/// `distance_count`) so aggregates merge exactly, not approximately.
#[derive(Debug, Clone)]
pub(crate) struct ShardSnapshot {
    pub shard: usize,
    pub operations: u64,
    pub reads: u64,
    pub read_ratio: f64,
    pub krd_mean: Option<f64>,
    pub distance_sum: f64,
    pub distance_count: u64,
    pub windows_closed: u64,
    pub reoptimizations: u64,
    pub reconfigurations: u64,
    pub histogram: StreamingHistogram,
    pub last_window: WindowActivity,
    pub active: ConfigSummary,
}

/// A shard's lifetime totals, returned when its worker exits.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardFinal {
    pub operations: u64,
    pub windows_closed: u64,
    pub reoptimizations: u64,
}

/// The reconfiguration audit trail, shared by every shard.
#[derive(Default)]
pub(crate) struct EventLog {
    /// Per-shard engine reconfigurations, in apply order.
    pub events: Vec<ReconfigEvent>,
    /// Cluster-topology events (scale-out, lockstep reconfigure).
    pub cluster: Vec<ClusterEvent>,
}

/// Everything the shard workers share. The mutexes here are *off* the
/// op hot path: the controller lock is taken once per closed window
/// and held for a policy lookup and two surrogate predictions
/// (microseconds — no search runs under it), the log and last-window
/// locks once per window close or reconfigure.
pub(crate) struct ClusterShared<'t> {
    pub controller: Mutex<ClusterController<'t>>,
    pub log: Mutex<EventLog>,
    /// The most recently closed window's activity, across all shards
    /// (the aggregate `last_window` in `stats` frames).
    pub last_window: Mutex<WindowActivity>,
    pub registry: Registry,
    /// Tells workers to drain their queues and exit. Only set after
    /// every connection thread has been joined, so no reply is pending.
    pub worker_stop: AtomicBool,
}

/// Locks a cluster mutex, recovering from poisoning (a panicking worker
/// must not take the whole daemon down).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Cached handles for the metric series one shard updates on its hot
/// path: the unlabeled aggregate series plus this shard's
/// `{shard="N"}`-labeled series. Both are updated by the same
/// single-threaded worker in the same code path, so per-shard series
/// sum *exactly* to the aggregate at any observation point.
struct ShardMetrics {
    ops_total: Arc<Counter>,
    ops_total_shard: Arc<Counter>,
    windows_closed_total: Arc<Counter>,
    windows_closed_total_shard: Arc<Counter>,
    reoptimizations_total: Arc<Counter>,
    reoptimizations_total_shard: Arc<Counter>,
    reconfigurations_total: Arc<Counter>,
    reconfigurations_total_shard: Arc<Counter>,
    read_ratio: Arc<Gauge>,
    read_ratio_shard: Arc<Gauge>,
    controller_errors_total: Arc<Counter>,
    controller_errors_total_shard: Arc<Counter>,
    /// Completed-window latencies (the filling window merges in at close).
    latency_us: Arc<HistogramHandle>,
    latency_us_shard: Arc<HistogramHandle>,
    /// Wall time of each window close's decision: waiting for the
    /// cluster-wide controller lock plus deciding under it. One series
    /// for the cluster, like the lock it times.
    decide_us: Arc<HistogramHandle>,
}

impl ShardMetrics {
    fn new(registry: &Registry, shard: usize) -> ShardMetrics {
        let shard = shard.to_string();
        let labeled = |name: &str| obs::labeled(name, &[("shard", &shard)]);
        ShardMetrics {
            ops_total: registry.counter("serve_ops_total"),
            ops_total_shard: registry.counter(&labeled("serve_ops_total")),
            windows_closed_total: registry.counter("serve_windows_closed_total"),
            windows_closed_total_shard: registry.counter(&labeled("serve_windows_closed_total")),
            reoptimizations_total: registry.counter("serve_reoptimizations_total"),
            reoptimizations_total_shard: registry.counter(&labeled("serve_reoptimizations_total")),
            reconfigurations_total: registry.counter("serve_reconfigurations_total"),
            reconfigurations_total_shard: registry
                .counter(&labeled("serve_reconfigurations_total")),
            read_ratio: registry.gauge("serve_read_ratio"),
            read_ratio_shard: registry.gauge(&labeled("serve_read_ratio")),
            controller_errors_total: registry.counter("serve_controller_errors_total"),
            controller_errors_total_shard: registry
                .counter(&labeled("serve_controller_errors_total")),
            latency_us: registry.histogram("serve_op_latency_us"),
            latency_us_shard: registry.histogram(&labeled("serve_op_latency_us")),
            decide_us: registry.histogram("serve_decide_us"),
        }
    }
}

/// One shard: an engine preloaded with exactly the keys the hash ring
/// assigns to it, plus the characterization/tuning state scoped to it.
pub(crate) struct ShardWorker<'t, 'c> {
    shard: usize,
    engine: Engine,
    characterizer: OnlineCharacterizer,
    /// Lifetime latencies of every op this shard executed.
    histogram: StreamingHistogram,
    /// Latencies of the window currently filling; reset at each close.
    window_histogram: StreamingHistogram,
    window_start_metrics: EngineMetrics,
    window_start_clock: SimTime,
    last_window: WindowActivity,
    windows_closed: u64,
    reoptimizations: u64,
    reconfigurations: u64,
    next_token: u64,
    completions: Vec<OpCompletion>,
    /// Op-queue senders for every shard (own index included, unused),
    /// for delivering cross-shard `Apply` messages.
    peers: Vec<Sender<ShardRequest>>,
    shared: &'c ClusterShared<'t>,
    metrics: ShardMetrics,
}

impl<'t, 'c> ShardWorker<'t, 'c> {
    /// Builds the shard: a fresh engine on the controller's starting
    /// configuration, preloaded with the keys `ring` routes here.
    pub(crate) fn new(
        shard: usize,
        ring: &HashRing,
        cfg: &ServeConfig,
        shared: &'c ClusterShared<'t>,
        peers: Vec<Sender<ShardRequest>>,
    ) -> Self {
        let initial = lock(&shared.controller).active_config(shard).clone();
        let mut engine = Engine::new(initial, ServerSpec::default());
        if cfg.preload_keys > 0 {
            engine.preload_filtered(cfg.preload_keys, cfg.preload_payload, |k| {
                ring.shard_of(k) == shard
            });
        }
        let window_start_metrics = *engine.metrics();
        let window_start_clock = engine.clock();
        ShardWorker {
            shard,
            engine,
            characterizer: OnlineCharacterizer::new(cfg.window_ops, cfg.krd_capacity),
            histogram: StreamingHistogram::new(),
            window_histogram: StreamingHistogram::new(),
            window_start_metrics,
            window_start_clock,
            last_window: WindowActivity::default(),
            windows_closed: 0,
            reoptimizations: 0,
            reconfigurations: 0,
            next_token: 0,
            completions: Vec::new(),
            peers,
            metrics: ShardMetrics::new(&shared.registry, shard),
            shared,
        }
    }

    /// The worker loop: handle queue messages until `worker_stop` is
    /// set, then drain whatever is still queued (late lockstep applies
    /// from peers shutting down concurrently) and report totals.
    pub(crate) fn run(mut self, rx: Receiver<ShardRequest>) -> ShardFinal {
        loop {
            match rx.recv_timeout(POLL_INTERVAL) {
                Ok(req) => self.handle(req),
                Err(RecvTimeoutError::Timeout) => {
                    if self.shared.worker_stop.load(Ordering::SeqCst) {
                        while let Ok(req) = rx.try_recv() {
                            self.handle(req);
                        }
                        return self.finish();
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return self.finish(),
            }
        }
    }

    fn finish(self) -> ShardFinal {
        ShardFinal {
            operations: self.characterizer.operations(),
            windows_closed: self.windows_closed,
            reoptimizations: self.reoptimizations,
        }
    }

    fn handle(&mut self, req: ShardRequest) {
        match req {
            ShardRequest::Ops { ops, reply } => {
                let mut latencies = Vec::with_capacity(ops.len());
                for (index, op) in ops {
                    latencies.push((index, self.execute_op(op)));
                }
                // A vanished requester (dropped connection) is not a
                // worker error.
                let _ = reply.send(OpsReply { latencies });
            }
            ShardRequest::Snapshot { reply } => {
                let _ = reply.send(self.snapshot());
            }
            ShardRequest::Apply {
                cfg,
                window,
                read_ratio,
                predicted_throughput,
            } => {
                // The engine is quiescent between queue messages, so a
                // cross-shard apply is as safe as a window-close one.
                self.apply_config(cfg, window, read_ratio, predicted_throughput);
            }
        }
    }

    /// Runs one operation on the simulated clock to completion, feeds
    /// it to the characterizer, and closes the window when it fills.
    fn execute_op(&mut self, op: Operation) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let ready = self.engine.clock();
        self.engine.submit(token, op, ready);
        self.completions.clear();
        let latency_us = 'done: loop {
            let stepped = self.engine.step_into(&mut self.completions);
            debug_assert!(stepped, "a submitted operation always completes");
            if !stepped {
                break 0;
            }
            for c in self.completions.drain(..) {
                if c.token == token {
                    break 'done c.latency().0 / 1_000;
                }
            }
        };
        self.metrics.ops_total.inc();
        self.metrics.ops_total_shard.inc();
        self.histogram.record(latency_us);
        self.window_histogram.record(latency_us);
        if let Some(summary) = self.characterizer.observe(&op) {
            self.close_window(summary);
        }
        latency_us
    }

    fn close_window(&mut self, window: WindowSummary) {
        self.windows_closed += 1;
        self.metrics.windows_closed_total.inc();
        self.metrics.windows_closed_total_shard.inc();
        self.metrics.read_ratio.set(window.read_ratio);
        self.metrics.read_ratio_shard.set(window.read_ratio);
        let snapshot = *self.engine.metrics();
        let delta = snapshot.delta(&self.window_start_metrics);
        self.window_start_metrics = snapshot;
        self.last_window = WindowActivity {
            reads_completed: delta.reads_completed,
            writes_completed: delta.writes_completed,
            flushes: delta.flushes,
            compactions: delta.compactions,
            p50_us: self.window_histogram.quantile(0.5).unwrap_or(0),
            p99_us: self.window_histogram.quantile(0.99).unwrap_or(0),
        };
        *lock(&self.shared.last_window) = self.last_window;
        // Completed-window latencies flow into the registry histograms;
        // the per-window one restarts empty for the next window.
        self.metrics.latency_us.merge_from(&self.window_histogram);
        self.metrics
            .latency_us_shard
            .merge_from(&self.window_histogram);
        self.window_histogram = StreamingHistogram::new();
        // Observed throughput over the window on the simulated clock.
        let now = self.engine.clock();
        let elapsed_s = now.0.saturating_sub(self.window_start_clock.0) as f64 / 1e9;
        let window_ops = delta.reads_completed + delta.writes_completed;
        let observed_throughput = if elapsed_s > 0.0 {
            window_ops as f64 / elapsed_s
        } else {
            0.0
        };
        self.window_start_clock = now;
        if obs::enabled(obs::Level::Info) {
            obs::event(
                "serve",
                "window_close",
                obs::Level::Info,
                vec![
                    ("shard", Value::U64(self.shard as u64)),
                    ("window", Value::U64(window.index as u64)),
                    ("read_ratio", Value::F64(window.read_ratio)),
                    ("ops", Value::U64(window_ops)),
                    ("observed_throughput", Value::F64(observed_throughput)),
                    ("p50_us", Value::U64(self.last_window.p50_us)),
                    ("p99_us", Value::U64(self.last_window.p99_us)),
                    ("flushes", Value::U64(delta.flushes)),
                    ("compactions", Value::U64(delta.compactions)),
                ],
            );
        }
        // One controller-lock acquisition per closed window; released
        // before any engine reconfiguration is applied.
        let asked = Instant::now();
        let (outcome, mode) = {
            let mut controller = lock(&self.shared.controller);
            (
                controller.observe_window(self.shard, window.index, window.read_ratio),
                controller.mode(),
            )
        };
        self.metrics
            .decide_us
            .record(asked.elapsed().as_micros() as u64);
        let decision = match outcome {
            Ok(decision) => decision,
            // The tuner was checked at construction, so this should not
            // happen; if it does, the window stays closed and counted
            // and the shard keeps serving on its current configuration.
            Err(e) => {
                self.metrics.controller_errors_total.inc();
                self.metrics.controller_errors_total_shard.inc();
                obs::event(
                    "serve",
                    "controller_error",
                    obs::Level::Error,
                    vec![
                        ("shard", Value::U64(self.shard as u64)),
                        ("window", Value::U64(window.index as u64)),
                        ("error", Value::str(e.to_string())),
                    ],
                );
                return;
            }
        };
        if decision.decision.reoptimized {
            self.reoptimizations += 1;
            self.metrics.reoptimizations_total.inc();
            self.metrics.reoptimizations_total_shard.inc();
        }
        if mode == TuningMode::Lockstep && decision.apply.len() > 1 {
            let mut log = lock(&self.shared.log);
            log.cluster.push(ClusterEvent {
                kind: "lockstep_reconfigure".to_string(),
                window: window.index as u64,
                shards: decision.apply.len() as u64,
                moved_fraction: 0.0,
                detail: format!(
                    "shard {} window {} reconfigured all {} shards in lockstep",
                    self.shard,
                    window.index,
                    decision.apply.len()
                ),
            });
        }
        for (target, cfg) in decision.apply {
            if target == self.shard {
                self.apply_config(
                    cfg,
                    window.index as u64,
                    window.read_ratio,
                    decision.decision.predicted_throughput,
                );
            } else {
                // Peers apply between their own ops — send failure only
                // happens during shutdown, when the apply is moot.
                let _ = self.peers[target].send(ShardRequest::Apply {
                    cfg,
                    window: window.index as u64,
                    read_ratio: window.read_ratio,
                    predicted_throughput: decision.decision.predicted_throughput,
                });
            }
        }
    }

    /// Reconfigures this shard's engine (between ops, hence quiescent)
    /// and records the audit event.
    fn apply_config(
        &mut self,
        cfg: EngineConfig,
        window: u64,
        read_ratio: f64,
        predicted_throughput: f64,
    ) {
        if *self.engine.config() == cfg {
            // A lockstep follower may already run the target config
            // (e.g. it joined after an earlier identical decision).
            return;
        }
        let outcome = self.engine.reconfigure(cfg);
        self.reconfigurations += 1;
        self.metrics.reconfigurations_total.inc();
        self.metrics.reconfigurations_total_shard.inc();
        lock(&self.shared.log).events.push(ReconfigEvent {
            shard: self.shard as u64,
            window,
            read_ratio,
            predicted_throughput,
            to: ConfigSummary::from(self.engine.config()),
            diff: outcome
                .changed
                .iter()
                .map(|c| ParamChange {
                    param: c.name.to_string(),
                    from: c.from,
                    to: c.to,
                })
                .collect(),
            apply_us: outcome.apply_us,
        });
    }

    fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            shard: self.shard,
            operations: self.characterizer.operations(),
            reads: self.characterizer.reads(),
            read_ratio: self.characterizer.read_ratio(),
            krd_mean: self.characterizer.krd_mean(),
            distance_sum: self.characterizer.distance_sum(),
            distance_count: self.characterizer.distances_observed(),
            windows_closed: self.windows_closed,
            reoptimizations: self.reoptimizations,
            reconfigurations: self.reconfigurations,
            histogram: self.histogram.clone(),
            last_window: self.last_window,
            active: ConfigSummary::from(self.engine.config()),
        }
    }
}
