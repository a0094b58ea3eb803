//! Client operation streams, made from the run's seed and nothing else.

use rafiki_stats::mix64;
use rafiki_workload::{
    MgRastModel, Operation, OperationSource, WorkloadGenerator, WorkloadSpec, WorkloadTrace,
};

/// Sub-seed `lane` of a run's seed. Every generator of a run draws from
/// its own lane, so streams are independent of each other but a pure
/// function of `--seed`.
pub fn lane(seed: u64, lane: u64) -> u64 {
    mix64(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn spec(keys: u64, read_ratio: f64) -> WorkloadSpec {
    WorkloadSpec {
        initial_keys: keys,
        ..WorkloadSpec::with_read_ratio(read_ratio)
    }
}

/// `ops` operations at one stationary read ratio over `keys` preloaded
/// keys.
pub fn steady(seed: u64, keys: u64, read_ratio: f64, ops: usize) -> Vec<Operation> {
    let mut gen = WorkloadGenerator::new(spec(keys, read_ratio), seed);
    (0..ops).map(|_| gen.next_op()).collect()
}

/// The MG-RAST-like 4-day trace for `seed`.
pub fn mgrast_trace(seed: u64) -> WorkloadTrace {
    MgRastModel {
        seed,
        ..MgRastModel::default()
    }
    .generate()
}

/// The dynamic stream: every window of `trace` contributes exactly
/// `ops_per_window` operations at that window's read ratio, in trace
/// order. Each window draws from its own lane of `seed`.
pub fn from_trace(
    trace: &WorkloadTrace,
    seed: u64,
    keys: u64,
    ops_per_window: usize,
) -> Vec<Operation> {
    let mut ops = Vec::with_capacity(trace.windows.len() * ops_per_window);
    for w in &trace.windows {
        let mut gen = WorkloadGenerator::new(spec(keys, w.read_ratio), lane(seed, w.index as u64));
        ops.extend((0..ops_per_window).map(|_| gen.next_op()));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use rafiki_workload::OpKind;

    fn bytes(ops: &[Operation]) -> Vec<u8> {
        let mut out = String::new();
        for chunk in ops.chunks(64) {
            rafiki_serve::protocol::encode_batch_into(chunk, &mut out);
        }
        out.into_bytes()
    }

    #[test]
    fn every_window_has_exactly_n_ops_at_its_read_ratio() {
        const N: usize = 4_000;
        let trace = mgrast_trace(11);
        assert_eq!(trace.windows.len(), 384);
        let short = WorkloadTrace {
            windows: trace.windows[..24].to_vec(),
            ..trace
        };
        let ops = from_trace(&short, 11, 20_000, N);
        assert_eq!(ops.len(), 24 * N);
        for (w, chunk) in short.windows.iter().zip(ops.chunks(N)) {
            let reads = chunk.iter().filter(|o| o.kind == OpKind::Read).count();
            let rr = reads as f64 / N as f64;
            // Binomial sampling error: 4 sigma of sqrt(p(1-p)/N) <= 0.032.
            assert!(
                (rr - w.read_ratio).abs() < 0.035,
                "window {}: asked {:.3}, got {rr:.3}",
                w.index,
                w.read_ratio
            );
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_streams_and_another_seed_does_not() {
        assert_eq!(
            bytes(&steady(5, 20_000, 0.9, 10_000)),
            bytes(&steady(5, 20_000, 0.9, 10_000))
        );
        assert_ne!(
            bytes(&steady(5, 20_000, 0.9, 10_000)),
            bytes(&steady(6, 20_000, 0.9, 10_000))
        );
        let short = |seed| {
            let trace = mgrast_trace(seed);
            let head = WorkloadTrace {
                windows: trace.windows[..6].to_vec(),
                ..trace
            };
            bytes(&from_trace(&head, seed, 20_000, 2_000))
        };
        assert_eq!(short(21), short(21));
        assert_ne!(short(21), short(22));
        // Lanes of one seed are distinct, and distinct across seeds.
        assert_ne!(lane(1, 0), lane(1, 1));
        assert_ne!(lane(1, 3), lane(2, 3));
    }
}
