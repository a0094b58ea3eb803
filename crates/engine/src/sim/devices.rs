//! Hardware device models: a FCFS disk with distinct sequential/random
//! service times, worker pools, and the CPU contention model.
//!
//! All devices use *reservation semantics*: a request presented at time
//! `ready` starts at `max(ready, device_free_at)`, holds the device for its
//! service time, and the device's horizon advances. Queueing delay and
//! head-of-line blocking emerge naturally. Background jobs (flush,
//! compaction) issue bounded-size chunks so foreground operations interleave
//! rather than stalling behind multi-second transfers.

use super::clock::{SimDuration, SimTime};

/// Kind of disk request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskReq {
    /// Sequential read of `bytes`.
    SeqRead {
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// Sequential write of `bytes`.
    SeqWrite {
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// Random (seek-dominated) read of `bytes`.
    RandRead {
        /// Transfer size in bytes.
        bytes: u64,
    },
}

/// A single FCFS disk (the paper's server uses mirrored magnetic drives,
/// which behave as one logical device for writes and one fast-path device
/// for reads).
#[derive(Debug, Clone, PartialEq)]
pub struct DiskDevice {
    seq_read_mbps: f64,
    seq_write_mbps: f64,
    rand_access: SimDuration,
    free_at: SimTime,
    /// Total busy time accumulated, for utilization reporting.
    busy: SimDuration,
}

impl DiskDevice {
    /// Creates a disk with the given sequential bandwidths (MB/s) and
    /// random access time.
    ///
    /// # Panics
    ///
    /// Panics on non-positive bandwidths.
    pub fn new(seq_read_mbps: f64, seq_write_mbps: f64, rand_access: SimDuration) -> Self {
        assert!(
            seq_read_mbps > 0.0 && seq_write_mbps > 0.0,
            "bandwidths must be positive"
        );
        DiskDevice {
            seq_read_mbps,
            seq_write_mbps,
            rand_access,
            free_at: SimTime::ZERO,
            busy: SimDuration::ZERO,
        }
    }

    /// Pure service time of a request (no queueing).
    pub fn service_time(&self, req: DiskReq) -> SimDuration {
        let xfer = |bytes: u64, mbps: f64| {
            SimDuration::from_secs_f64(bytes as f64 / (mbps * 1024.0 * 1024.0))
        };
        match req {
            DiskReq::SeqRead { bytes } => xfer(bytes, self.seq_read_mbps),
            DiskReq::SeqWrite { bytes } => xfer(bytes, self.seq_write_mbps),
            DiskReq::RandRead { bytes } => self.rand_access + xfer(bytes, self.seq_read_mbps),
        }
    }

    /// Reserves the disk for a request that becomes ready at `ready`;
    /// returns the completion time.
    pub fn access(&mut self, ready: SimTime, req: DiskReq) -> SimTime {
        let start = if ready > self.free_at {
            ready
        } else {
            self.free_at
        };
        let service = self.service_time(req);
        self.busy += service;
        self.free_at = start + service;
        self.free_at
    }

    /// The earliest time a new request could start.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total time spent servicing requests.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }
}

/// A pool of identical workers (Cassandra's `concurrent_writes` /
/// `concurrent_reads` stages). A task grabs the earliest-free worker.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerPool {
    free_at: Vec<SimTime>,
}

impl WorkerPool {
    /// Creates a pool of `workers` workers.
    ///
    /// # Panics
    ///
    /// Panics when `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "worker pool needs at least one worker");
        WorkerPool {
            free_at: vec![SimTime::ZERO; workers],
        }
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.free_at.len()
    }

    /// Number of workers busy at `now`.
    pub fn busy_at(&self, now: SimTime) -> usize {
        self.free_at.iter().filter(|&&f| f > now).count()
    }

    /// Dispatches a task that becomes ready at `ready` and needs `service`
    /// time on one worker; returns `(start, completion)` and occupies the
    /// chosen worker.
    pub fn dispatch(&mut self, ready: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        let worker = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .expect("non-empty pool");
        let start = if ready > self.free_at[worker] {
            ready
        } else {
            self.free_at[worker]
        };
        let end = start + service;
        self.free_at[worker] = end;
        (start, end)
    }
}

/// CPU contention model: when the number of runnable threads exceeds the
/// core count, every thread's CPU work is stretched by a super-linear
/// factor (scheduling + cache-pollution overheads). This is what makes
/// over-sized worker pools counterproductive — the CM x CW interdependency
/// of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Physical core count.
    pub cores: usize,
    /// Linear oversubscription cost coefficient.
    pub contention_linear: f64,
    /// Quadratic oversubscription cost coefficient.
    pub contention_quadratic: f64,
}

impl CpuModel {
    /// Creates a CPU model.
    ///
    /// # Panics
    ///
    /// Panics when `cores == 0` or coefficients are negative.
    pub fn new(cores: usize, contention_linear: f64, contention_quadratic: f64) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(
            contention_linear >= 0.0 && contention_quadratic >= 0.0,
            "coefficients must be non-negative"
        );
        CpuModel {
            cores,
            contention_linear,
            contention_quadratic,
        }
    }

    /// The slowdown factor for `runnable` concurrently runnable threads:
    /// `1` up to the core count, growing super-linearly beyond it.
    pub fn slowdown(&self, runnable: usize) -> f64 {
        let x = (runnable as f64 - self.cores as f64).max(0.0) / self.cores as f64;
        1.0 + self.contention_linear * x + self.contention_quadratic * x * x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskDevice {
        DiskDevice::new(160.0, 140.0, SimDuration::from_millis_f64(2.0))
    }

    #[test]
    fn service_times_scale_with_bytes() {
        let d = disk();
        let one_mb = DiskReq::SeqWrite { bytes: 1 << 20 };
        let svc = d.service_time(one_mb);
        assert!((svc.as_secs_f64() - 1.0 / 140.0).abs() < 1e-9);
        let rr = d.service_time(DiskReq::RandRead { bytes: 64 << 10 });
        assert!(rr.as_millis_f64() > 2.0);
    }

    #[test]
    fn fcfs_queueing_emerges() {
        let mut d = disk();
        let t1 = d.access(SimTime::ZERO, DiskReq::SeqWrite { bytes: 14 << 20 }); // ~100ms
                                                                                 // Request ready immediately must wait for the first.
        let t2 = d.access(SimTime::ZERO, DiskReq::SeqWrite { bytes: 14 << 20 });
        assert!(t2 > t1);
        assert!((t2.as_secs_f64() - 2.0 * t1.as_secs_f64()).abs() < 1e-9);
        // A request ready after the queue drains starts immediately.
        let later = SimTime(10_000_000_000);
        let t3 = d.access(later, DiskReq::RandRead { bytes: 4096 });
        assert!(t3 > later);
        assert!(d.busy_time() > SimDuration::ZERO);
    }

    #[test]
    fn pool_parallelism_and_queueing() {
        let mut p = WorkerPool::new(2);
        let svc = SimDuration::from_millis_f64(10.0);
        let (_, a) = p.dispatch(SimTime::ZERO, svc);
        let (_, b) = p.dispatch(SimTime::ZERO, svc);
        // Two workers run in parallel.
        assert_eq!(a, b);
        // Third task queues behind the earliest.
        let (start, c) = p.dispatch(SimTime::ZERO, svc);
        assert_eq!(start, a);
        assert!(c > a);
        assert_eq!(p.busy_at(SimTime::ZERO), 2);
        assert_eq!(p.busy_at(c), 0);
    }

    #[test]
    fn cpu_slowdown_shape() {
        let cpu = CpuModel::new(8, 0.35, 0.06);
        assert_eq!(cpu.slowdown(1), 1.0);
        assert_eq!(cpu.slowdown(8), 1.0);
        let s16 = cpu.slowdown(16);
        let s32 = cpu.slowdown(32);
        let s64 = cpu.slowdown(64);
        assert!(s16 > 1.0 && s32 > s16 && s64 > s32);
        // Super-linear growth: marginal cost increases.
        assert!(s64 - s32 > s32 - s16);
    }

    #[test]
    #[should_panic]
    fn zero_worker_pool_rejected() {
        let _ = WorkerPool::new(0);
    }
}
