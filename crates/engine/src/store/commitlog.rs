//! Commit-log accounting (§2.2.1: "when a write request arrives, it is
//! appended to Cassandra's CommitLog, a disk-based file where uncommitted
//! queries are saved for recovery/replay").
//!
//! Two durability modes are modelled after Cassandra's `commitlog_sync`:
//!
//! - **Periodic** (default): appends land in the OS buffer; a background
//!   sequential write is charged whenever a segment's worth of bytes has
//!   accumulated or the sync period elapses. Writers do not wait.
//! - **Batch**: writers block until their group's fsync completes; groups
//!   close every `batch_window`.

use crate::sim::{DiskDevice, DiskReq, SimDuration, SimTime};

/// Commit-log durability mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitlogSync {
    /// Fsync on a timer; writes never wait (Cassandra's default).
    Periodic,
    /// Group-commit: each write waits for its batch's fsync.
    Batch,
}

/// The commit log: tracks buffered bytes and charges the disk.
#[derive(Debug, Clone)]
pub struct CommitLog {
    sync: CommitlogSync,
    segment_bytes: u64,
    sync_period: SimDuration,
    batch_window: SimDuration,
    pending_bytes: u64,
    last_background_sync: SimTime,
    /// Total bytes ever appended.
    appended: u64,
}

impl CommitLog {
    /// Creates a commit log.
    ///
    /// # Panics
    ///
    /// Panics when `segment_bytes == 0`.
    pub fn new(
        sync: CommitlogSync,
        segment_bytes: u64,
        sync_period: SimDuration,
        batch_window: SimDuration,
    ) -> Self {
        assert!(segment_bytes > 0, "segment size must be positive");
        CommitLog {
            sync,
            segment_bytes,
            sync_period,
            batch_window,
            pending_bytes: 0,
            last_background_sync: SimTime::ZERO,
            appended: 0,
        }
    }

    /// Appends `bytes` at time `now`. Returns the time at which the write
    /// may be acknowledged: `now` for periodic mode, the batch fsync
    /// completion for batch mode. Disk charges go through `disk`.
    pub fn append(&mut self, now: SimTime, bytes: u64, disk: &mut DiskDevice) -> SimTime {
        self.appended += bytes;
        self.pending_bytes += bytes;
        match self.sync {
            CommitlogSync::Periodic => {
                // Background flush when a segment fills or the period laps.
                if self.pending_bytes >= self.segment_bytes
                    || now.since(self.last_background_sync) >= self.sync_period
                {
                    disk.access(
                        now,
                        DiskReq::SeqWrite {
                            bytes: self.pending_bytes,
                        },
                    );
                    self.pending_bytes = 0;
                    self.last_background_sync = now;
                }
                now
            }
            CommitlogSync::Batch => {
                // The write joins the batch that closes at the next window
                // boundary, then waits for its fsync.
                let window_ns = self.batch_window.0.max(1);
                let boundary = SimTime(now.0.div_ceil(window_ns) * window_ns);
                let done = disk.access(
                    boundary,
                    DiskReq::SeqWrite {
                        bytes: self.pending_bytes,
                    },
                );
                self.pending_bytes = 0;
                done
            }
        }
    }

    /// Total bytes appended over the log's lifetime.
    pub fn appended_bytes(&self) -> u64 {
        self.appended
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskDevice {
        DiskDevice::new(160.0, 140.0, SimDuration::from_millis_f64(2.0))
    }

    fn log(sync: CommitlogSync) -> CommitLog {
        CommitLog::new(
            sync,
            32 << 20,
            SimDuration::from_secs_f64(10.0),
            SimDuration::from_millis_f64(2.0),
        )
    }

    #[test]
    fn periodic_mode_never_blocks_writers() {
        let mut d = disk();
        let mut cl = log(CommitlogSync::Periodic);
        let now = SimTime(5_000);
        assert_eq!(cl.append(now, 1024, &mut d), now);
        assert_eq!(cl.appended_bytes(), 1024);
    }

    #[test]
    fn periodic_mode_charges_disk_per_segment() {
        let mut d = disk();
        let mut cl = log(CommitlogSync::Periodic);
        let before = d.busy_time();
        // Fill just under a segment: no charge.
        cl.append(SimTime(1), (32 << 20) - 1, &mut d);
        assert_eq!(d.busy_time(), before);
        // Crossing the segment boundary triggers a sequential write.
        cl.append(SimTime(2), 2, &mut d);
        assert!(d.busy_time() > before);
    }

    #[test]
    fn periodic_mode_syncs_on_timer() {
        let mut d = disk();
        let mut cl = log(CommitlogSync::Periodic);
        cl.append(SimTime(0), 10, &mut d);
        let before = d.busy_time();
        // 11 simulated seconds later the period has lapsed.
        cl.append(SimTime(11_000_000_000), 10, &mut d);
        assert!(d.busy_time() > before);
    }

    #[test]
    fn batch_mode_blocks_until_fsync() {
        let mut d = disk();
        let mut cl = log(CommitlogSync::Batch);
        let now = SimTime(500_000); // 0.5 ms into a 2 ms window
        let ack = cl.append(now, 4096, &mut d);
        // Acknowledged no earlier than the 2 ms boundary.
        assert!(ack.0 >= 2_000_000, "ack at {ack}");
    }

    #[test]
    fn batch_ack_includes_disk_service() {
        let mut d = disk();
        let mut cl = log(CommitlogSync::Batch);
        let a1 = cl.append(SimTime(100), 1 << 20, &mut d);
        // Service of 1 MiB at 140 MB/s is ~7 ms on top of the boundary.
        assert!(a1.as_secs_f64() > 0.002);
    }
}
