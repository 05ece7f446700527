//! Allocation tripwire for the histogram record path.
//!
//! The enumeration tripwires (`tuple_allocs == 0` in the benches and
//! differential tests) assert the hot loop never allocates; the
//! observability layer must not break that contract by allocating on
//! `record`. This test installs a counting global allocator and asserts
//! that recording into an [`AtomicHistogram`] (shared, atomic) and a
//! [`LocalHistogram`] (per-cursor) performs **zero** allocations once the
//! instrument exists. Lock-freedom is by construction — the record path
//! is a single relaxed `fetch_add` — so allocation is the only way it
//! could ever block or take a fault-prone slow path.

use re_obs::{AtomicHistogram, LocalHistogram};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Per thread: the test harness runs tests on parallel threads, and a
    // process-wide count would charge one test with another's (and the
    // harness's own) allocations. A const-initialised `Cell` needs no
    // allocation or destructor, so the allocator may touch it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: during thread teardown the slot may already be gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn record_is_allocation_free() {
    // Instruments are created up front, as production code does (resolve
    // once, record many).
    let shared = AtomicHistogram::new();
    let mut local = LocalHistogram::new();

    let before = allocs();
    for i in 0..10_000u64 {
        shared.record(i * 31);
        local.record(i * 17);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "histogram record path allocated {} times",
        after - before
    );
    assert_eq!(shared.snapshot().count(), 10_000);
}

#[test]
fn span_timing_record_is_allocation_free_after_entry() {
    // Span::enter resolves the registry histogram (may allocate); the
    // recording on drop must not.
    let hist = re_obs::global().histogram("test.tripwire.span_ns");
    let before = allocs();
    for i in 0..1_000u64 {
        hist.record(i);
    }
    assert_eq!(allocs() - before, 0);
}
