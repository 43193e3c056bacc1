//! Heap held by a finished campaign, measured by a global allocator. A
//! campaign should hold each cell's record and whatever its caller kept,
//! not every cell's tuning trace until the grid ends.
//!
//! This file is its own test binary because the allocator is global, and
//! it holds one test so no other test allocates on the measured thread's
//! behalf. The runner is `CampaignRunner::serial()`, so every cell runs
//! on the calling thread and the measurement does not depend on
//! `TUNA_WORKERS`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tuna_core::campaign::{Campaign, CampaignResult, CampaignRunner, ResultStore};
use tuna_core::experiment::{Method, RunSummary};

/// Tracks the bytes that a thread inside [`held_by`] allocates and has
/// not freed; everything else passes straight through.
struct LiveBytes;

thread_local! {
    static LIVE: Cell<Option<i64>> = const { Cell::new(None) };
}

fn note(delta: i64) {
    // `try_with`: the allocator also serves thread start-up and teardown.
    let _ = LIVE.try_with(|c| c.set(c.get().map(|n| n + delta)));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; tracking touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for LiveBytes {
    // SAFETY: forwards to `System.alloc` under the same contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc(layout)
    }

    // SAFETY: forwards to `System.alloc_zeroed` under the same contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    // SAFETY: forwards to `System.realloc` under the same contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwards to `System.dealloc` under the same contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Runs `f` and returns its result with the heap bytes still held when
/// it returns: what `f` allocated and did not free, the result included.
fn held_by<R>(f: impl FnOnce() -> R) -> (R, i64) {
    LIVE.with(|c| c.set(Some(0)));
    let out = f();
    let held = LIVE.with(|c| c.replace(None)).expect("tracking");
    (out, held)
}

/// A grid of `runs` TUNA protocol cells on TPC-C.
fn grid(runs: usize) -> Campaign {
    Campaign::protocol(
        "memory",
        3,
        vec![tuna_workloads::tpcc()],
        &[("TUNA", Method::Tuna)],
    )
    .with_runs(runs)
    .with_rounds(20)
}

/// Heap held, once the run returns, by a serial run of `grid(runs)`
/// into an in-memory store, the store and the result included.
fn held_after_run<K>(
    runs: usize,
    run: impl FnOnce(&Campaign, &mut ResultStore) -> CampaignResult<K>,
) -> i64 {
    let campaign = grid(runs);
    let ((store, result), held) = held_by(|| {
        let mut store = ResultStore::in_memory(&campaign);
        let result = run(&campaign, &mut store);
        (store, result)
    });
    assert!(result.complete && result.executed == runs);
    drop((store, result));
    held
}

/// Heap held per extra cell between a grid of `runs` cells and one four
/// times as large.
fn held_per_extra_cell<K>(run: impl Fn(&Campaign, &mut ResultStore) -> CampaignResult<K>) -> i64 {
    let small = held_after_run(2, &run);
    let large = held_after_run(8, &run);
    (large - small) / 6
}

#[test]
fn a_finished_campaign_holds_records_not_traces() {
    // Registers the process-global metrics and warms every lazy static,
    // so neither grid below pays for them.
    held_after_run(1, |c, s| CampaignRunner::serial().run(c, s));

    let per_cell = held_per_extra_cell(|c, s| CampaignRunner::serial().run(c, s));
    assert!(
        per_cell <= 2_048,
        "a finished campaign holds {per_cell} bytes per extra cell"
    );

    // The bound is tight enough to catch a runner that keeps each cell's
    // summary (its tuning trace) until the grid ends.
    let keeping_summaries = held_per_extra_cell(|c, s| {
        CampaignRunner::serial().run_keeping(c, s, |_, p: &RunSummary| p.clone())
    });
    assert!(
        keeping_summaries > 2_048,
        "keeping every summary holds only {keeping_summaries} bytes per extra cell"
    );
}
