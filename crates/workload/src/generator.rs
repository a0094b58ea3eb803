//! Synthetic workload generation with controlled read ratio and key-reuse
//! distance, the two characteristics Rafiki extracts from MG-RAST traces
//! (§3.3): *Read Ratio (RR)* — fraction of read queries — and *Key Reuse
//! Distance (KRD)* — the number of queries that pass before the same key is
//! re-accessed, fit to an exponential distribution.

use crate::op::{Key, Operation, OperationSource};
use rafiki_stats::dist::Exponential;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Payload-size model for write operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadSpec {
    /// Every payload has the same size.
    Fixed(u32),
    /// Uniform sizes in `[min, max]`. MG-RAST derived-data rows mix short
    /// annotations with longer sequence fragments.
    Uniform {
        /// Minimum size in bytes.
        min: u32,
        /// Maximum size in bytes.
        max: u32,
    },
}

impl PayloadSpec {
    fn sample(&self, rng: &mut StdRng) -> u32 {
        match *self {
            PayloadSpec::Fixed(n) => n,
            PayloadSpec::Uniform { min, max } => {
                assert!(min <= max, "payload min > max");
                rng.gen_range(min..=max)
            }
        }
    }

    /// Mean payload size in bytes.
    pub fn mean(&self) -> f64 {
        match *self {
            PayloadSpec::Fixed(n) => n as f64,
            PayloadSpec::Uniform { min, max } => (min as f64 + max as f64) / 2.0,
        }
    }
}

/// Parameters of a synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Fraction of operations that are reads, in `[0, 1]`.
    pub read_ratio: f64,
    /// Mean key-reuse distance in operations (exponentially distributed).
    /// MG-RAST's KRD is "very large", which is what defeats caching.
    pub krd_mean: f64,
    /// Number of keys assumed pre-loaded in the datastore.
    pub initial_keys: u64,
    /// Fraction of writes that update existing keys (the rest insert new
    /// keys, growing the keyspace like the MG-RAST pipeline's 10x data
    /// amplification).
    pub update_fraction: f64,
    /// Probability that an access schedules a future reuse of the same key
    /// (the remainder of key choices fall back to uniform over the
    /// keyspace).
    pub reuse_probability: f64,
    /// Payload-size model.
    pub payload: PayloadSpec,
}

impl WorkloadSpec {
    /// A workload with the given read ratio and MG-RAST-like defaults for
    /// everything else.
    ///
    /// # Panics
    ///
    /// Panics when `read_ratio` is outside `[0, 1]`.
    pub fn with_read_ratio(read_ratio: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&read_ratio),
            "read_ratio must be in [0,1], got {read_ratio}"
        );
        WorkloadSpec {
            read_ratio,
            // "Key re-use distance is very large and this puts immense
            // pressure on the disk, while relieving pressure on caches"
            // (§1): most accesses are effectively cold.
            krd_mean: 200_000.0,
            initial_keys: 200_000,
            update_fraction: 0.5,
            reuse_probability: 0.5,
            payload: PayloadSpec::Uniform {
                min: 256,
                max: 2048,
            },
        }
    }

    /// Validates the specification.
    ///
    /// # Panics
    ///
    /// Panics when any field is out of range.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.read_ratio),
            "read_ratio out of range"
        );
        assert!(self.krd_mean > 0.0, "krd_mean must be positive");
        assert!(self.initial_keys > 0, "initial_keys must be positive");
        assert!(
            (0.0..=1.0).contains(&self.update_fraction),
            "update_fraction out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.reuse_probability),
            "reuse_probability out of range"
        );
    }
}

/// Maximum number of pending scheduled reuses.
const SCHEDULE_CAP: usize = 1 << 20;

/// Pending reuses a long stream settles at: each operation schedules
/// one with probability `reuse_probability`, and it stays pending for
/// `krd_mean` operations on average (Little's law), capped at
/// [`SCHEDULE_CAP`].
///
/// The schedule is reserved at this size rather than grown from empty.
/// Growth by doubling copies the heap at every step, and each
/// reallocation stays in the allocator arena of the first small block,
/// which on the calling thread may be a block freed there by another
/// thread; the buffer's placement then depends on thread scheduling.
/// Capacity the schedule never fills is never touched.
fn steady_schedule_len(spec: &WorkloadSpec) -> usize {
    ((spec.reuse_probability * spec.krd_mean).ceil() as usize).min(SCHEDULE_CAP)
}

/// A deterministic operation generator honouring a [`WorkloadSpec`].
///
/// Key selection works by *scheduling reuses*: whenever a key is accessed,
/// with probability `reuse_probability` its next access is scheduled `d`
/// operations in the future with `d ~ Exp(mean = krd_mean)`. A read or
/// update first consumes any due scheduled reuse; otherwise it picks a
/// uniformly random existing key. This produces an observed key-reuse
/// distance distribution that matches the requested exponential model.
/// Inserts mint fresh keys.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    spec: WorkloadSpec,
    krd: Exponential,
    rng: StdRng,
    /// Scheduled future accesses as a min-heap of `(due index, seq,
    /// key)`: the key is due at or after that operation index. `seq`
    /// numbers the reuses in the order they were scheduled, so several
    /// keys due at the same index are consumed one per read/update in
    /// FIFO order. One flat allocation, reserved at its steady-state
    /// size (see [`steady_schedule_len`]), so scheduling and consuming a
    /// reuse allocate nothing until the schedule outgrows it.
    scheduled: BinaryHeap<Reverse<(u64, u64, Key)>>,
    /// Reuses scheduled so far: the next `seq`.
    scheduled_seq: u64,
    next_key: u64,
    issued: u64,
}

impl WorkloadGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics when the spec fails validation.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        spec.validate();
        WorkloadGenerator {
            spec,
            krd: Exponential::new(1.0 / spec.krd_mean).expect("validated krd_mean"),
            rng: StdRng::seed_from_u64(seed),
            scheduled: BinaryHeap::with_capacity(steady_schedule_len(&spec)),
            scheduled_seq: 0,
            next_key: spec.initial_keys,
            issued: 0,
        }
    }

    /// The workload specification.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Number of operations issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Total number of keys that exist (initial + inserted).
    pub fn keyspace(&self) -> u64 {
        self.next_key
    }

    fn pick_existing_key(&mut self) -> Key {
        if let Some(&Reverse((due, _, key))) = self.scheduled.peek() {
            if due <= self.issued {
                self.scheduled.pop();
                return key;
            }
        }
        Key(self.rng.gen_range(0..self.next_key))
    }

    fn schedule_reuse(&mut self, key: Key) {
        if self.scheduled.len() >= SCHEDULE_CAP || !self.rng.gen_bool(self.spec.reuse_probability) {
            return;
        }
        let d = self
            .krd
            .sample_from_uniform(self.rng.gen::<f64>())
            .round()
            .max(1.0) as u64;
        self.scheduled
            .push(Reverse((self.issued + d, self.scheduled_seq, key)));
        self.scheduled_seq += 1;
    }
}

impl OperationSource for WorkloadGenerator {
    fn next_op(&mut self) -> Operation {
        self.issued += 1;
        let op = if self.rng.gen_bool(self.spec.read_ratio) {
            Operation::read(self.pick_existing_key())
        } else if self.rng.gen_bool(self.spec.update_fraction) {
            let key = self.pick_existing_key();
            Operation::update(key, self.spec.payload.sample(&mut self.rng))
        } else {
            let key = Key(self.next_key);
            self.next_key += 1;
            Operation::insert(key, self.spec.payload.sample(&mut self.rng))
        };
        self.schedule_reuse(op.key);
        op
    }

    fn describe(&self) -> String {
        format!(
            "synthetic RR={:.0}% KRD~Exp(mean={})",
            self.spec.read_ratio * 100.0,
            self.spec.krd_mean
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    fn count_kinds(gen: &mut WorkloadGenerator, n: usize) -> (usize, usize, usize) {
        let (mut r, mut i, mut u) = (0, 0, 0);
        for _ in 0..n {
            match gen.next_op().kind {
                OpKind::Read => r += 1,
                OpKind::Insert => i += 1,
                OpKind::Update => u += 1,
                other => panic!("generator emitted unexpected {other:?}"),
            }
        }
        (r, i, u)
    }

    #[test]
    fn read_ratio_is_respected() {
        let mut gen = WorkloadGenerator::new(WorkloadSpec::with_read_ratio(0.7), 1);
        let (r, _, _) = count_kinds(&mut gen, 20_000);
        let rr = r as f64 / 20_000.0;
        assert!((rr - 0.7).abs() < 0.02, "observed RR {rr}");
    }

    #[test]
    fn pure_read_and_pure_write_extremes() {
        let mut reads = WorkloadGenerator::new(WorkloadSpec::with_read_ratio(1.0), 2);
        let (r, i, u) = count_kinds(&mut reads, 1_000);
        assert_eq!((r, i, u), (1_000, 0, 0));
        let mut writes = WorkloadGenerator::new(WorkloadSpec::with_read_ratio(0.0), 2);
        let (r, _, _) = count_kinds(&mut writes, 1_000);
        assert_eq!(r, 0);
    }

    #[test]
    fn update_fraction_splits_writes() {
        let spec = WorkloadSpec {
            update_fraction: 0.25,
            ..WorkloadSpec::with_read_ratio(0.0)
        };
        let mut gen = WorkloadGenerator::new(spec, 3);
        let (_, i, u) = count_kinds(&mut gen, 20_000);
        let uf = u as f64 / (i + u) as f64;
        assert!((uf - 0.25).abs() < 0.02, "observed update fraction {uf}");
    }

    #[test]
    fn inserts_grow_the_keyspace() {
        let spec = WorkloadSpec {
            update_fraction: 0.0,
            ..WorkloadSpec::with_read_ratio(0.0)
        };
        let mut gen = WorkloadGenerator::new(spec, 4);
        let before = gen.keyspace();
        for _ in 0..100 {
            gen.next_op();
        }
        assert_eq!(gen.keyspace(), before + 100);
    }

    #[test]
    fn generator_is_deterministic() {
        let spec = WorkloadSpec::with_read_ratio(0.5);
        let mut a = WorkloadGenerator::new(spec, 42);
        let mut b = WorkloadGenerator::new(spec, 42);
        for _ in 0..500 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = WorkloadGenerator::new(spec, 43);
        let differs = (0..500).any(|_| a.next_op() != c.next_op());
        assert!(differs);
    }

    #[test]
    fn small_krd_produces_tight_reuse() {
        // With a tiny KRD most reads should hit very recent keys.
        let spec = WorkloadSpec {
            krd_mean: 4.0,
            ..WorkloadSpec::with_read_ratio(1.0)
        };
        let mut gen = WorkloadGenerator::new(spec, 5);
        let mut last_seen: std::collections::HashMap<Key, usize> = Default::default();
        let mut distances = Vec::new();
        for t in 0..20_000usize {
            let op = gen.next_op();
            if let Some(&prev) = last_seen.get(&op.key) {
                distances.push((t - prev) as f64);
            }
            last_seen.insert(op.key, t);
        }
        // The bulk of reuses comes from the scheduled exponential with
        // mean 4 (median ~2.8); rare uniform-fallback re-hits add a long
        // tail, so assert on the median, which the tail cannot move.
        let median = rafiki_stats::descriptive::percentile(&distances, 50.0);
        assert!(median < 10.0, "median observed reuse distance {median}");
    }

    #[test]
    fn reads_stay_within_keyspace() {
        let spec = WorkloadSpec {
            initial_keys: 100,
            ..WorkloadSpec::with_read_ratio(1.0)
        };
        let mut gen = WorkloadGenerator::new(spec, 6);
        for _ in 0..1_000 {
            let op = gen.next_op();
            assert!(op.key.0 < 100);
        }
    }

    /// A [`rafiki_stats::mix64`] fold of `(kind, key, payload_len)` over
    /// the first `n` operations, and the largest number of reuses that
    /// were pending at once.
    fn stream_fold(spec: WorkloadSpec, seed: u64, n: usize) -> (u64, usize) {
        let mut gen = WorkloadGenerator::new(spec, seed);
        let (mut h, mut peak) = (0u64, 0usize);
        for _ in 0..n {
            let op = gen.next_op();
            for word in [op.kind as u64, op.key.0, op.payload_len as u64] {
                h = rafiki_stats::mix64(h ^ word);
            }
            peak = peak.max(gen.scheduled.len());
        }
        (h, peak)
    }

    #[test]
    fn schedule_is_reserved_at_its_steady_state_size() {
        // Default spec: p 0.5 x KRD mean 200,000 = 100,000 pending
        // reuses. A stream that stays below that never reallocates.
        let mut gen = WorkloadGenerator::new(WorkloadSpec::with_read_ratio(0.5), 3);
        let reserved = gen.scheduled.capacity();
        assert!(reserved >= 100_000, "reserved {reserved}");
        for _ in 0..100_000 {
            gen.next_op();
        }
        assert!(gen.scheduled.len() > 10_000);
        assert_eq!(gen.scheduled.capacity(), reserved, "the schedule grew");
    }

    #[test]
    fn op_streams_match_their_golden_folds() {
        // Pinned op streams: any change to how reuses are scheduled or
        // consumed — including the FIFO order among reuses due at the
        // same index — changes a fold. The cases cover the default
        // spec, dense same-index collisions (reuse probability 1 at a
        // KRD of 4 and of 1), and a KRD long enough that the schedule
        // fills to `SCHEDULE_CAP` and further reuses are dropped.
        let dense = |krd_mean, read_ratio| WorkloadSpec {
            krd_mean,
            reuse_probability: 1.0,
            ..WorkloadSpec::with_read_ratio(read_ratio)
        };
        let cases = [
            (
                WorkloadSpec::with_read_ratio(0.5),
                200_000,
                0xf848_4640_0f1d_e1fd,
            ),
            (dense(4.0, 0.5), 200_000, 0x1b85_e883_a566_96df),
            (dense(1.0, 1.0), 200_000, 0x0f7b_446a_9c88_484d),
            (dense(5e6, 0.5), 1_300_000, 0x41a1_5a7e_5bb3_8c77),
        ];
        for (i, &(spec, n, want)) in cases.iter().enumerate() {
            let (fold, peak) = stream_fold(spec, 20_171_211, n);
            assert_eq!(fold, want, "case {i}: op stream diverged ({fold:#018x})");
            if i == 3 {
                assert_eq!(peak, SCHEDULE_CAP, "case 3 must fill the schedule");
            }
        }
    }

    #[test]
    #[should_panic]
    fn invalid_read_ratio_rejected() {
        let _ = WorkloadSpec::with_read_ratio(1.5);
    }
}
