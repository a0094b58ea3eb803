//! Allocation guard: building an engine must not pay for memory that no
//! simulated operation has touched yet.
//!
//! The caches are sized in entries from megabyte knobs (the default key
//! cache alone holds 1.6 M entries), so an index reserved up front would
//! cost tens of MiB per engine — per grid point, per collect point, per
//! shard. A counting global allocator measures what `Engine::new`
//! requests on this thread.

use rafiki_engine::{Engine, EngineConfig, ServerSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator and adds every byte requested by
/// the calling thread (allocations and reallocations alike) to
/// `REQUESTED`.
struct Counting;

fn count(bytes: usize) {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes the current thread requests while running `f`.
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

#[test]
fn default_engine_allocates_under_one_mib() {
    let (engine, bytes) =
        requested_by(|| Engine::new(EngineConfig::default(), ServerSpec::default()));
    assert!(
        bytes < 1 << 20,
        "Engine::new requested {bytes} bytes ({:.1} MiB)",
        bytes as f64 / (1 << 20) as f64
    );
    drop(engine);
}
