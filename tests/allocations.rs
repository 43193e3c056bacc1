//! Heap-allocation budgets of the simulated trial path, counted by a
//! global allocator. A simulated run should allocate only what its
//! caller keeps.
//!
//! This file is its own test binary because the allocator is global, and
//! it holds one test so no other test allocates on the counted thread's
//! behalf. Everything runs in `ExecutionMode::Serial`, on the calling
//! thread, so the counts do not depend on `TUNA_WORKERS`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tuna_cloudsim::components::ComponentVec;
use tuna_cloudsim::{Cluster, Machine, Region, VmSku};
use tuna_core::campaign::Campaign;
use tuna_core::executor::{execute_batch, ExecutionMode, RunRequest};
use tuna_core::experiment::{Method, SolverId};
use tuna_stats::rng::Rng;
use tuna_sut::postgres::Postgres;
use tuna_sut::SystemUnderTest;

/// Counts allocations (and reallocations) made on a thread that is
/// inside [`allocations`]; everything else passes straight through.
struct Counting;

thread_local! {
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note() {
    // `try_with`: the allocator also serves thread start-up and teardown.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards to `System.alloc` under the same contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    // SAFETY: forwards to `System.alloc_zeroed` under the same contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    // SAFETY: forwards to `System.realloc` under the same contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwards to `System.dealloc` under the same contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).expect("counting");
    (out, n)
}

/// Runs the executor has made in this process.
fn executor_runs() -> u64 {
    tuna_obs::global()
        .counter("tuna_executor_runs_total", "trial runs executed")
        .get()
}

#[test]
fn simulated_runs_allocate_within_budget() {
    // An unread guest-metric vector is not allocated at all.
    let mut machine =
        Machine::provision(0, &VmSku::d8s_v5(), &Region::westus2(), &Rng::seed_from(1));
    let demand = ComponentVec::new(0.5, 0.8, 0.4, 0.3, 0.2);
    let snap = machine.observe(&demand);
    let mut rng = Rng::seed_from(2);
    let (metrics, n) = allocations(|| tuna_metrics::generate(&snap, &demand, 1.0, &mut rng));
    assert_eq!(n, 0, "an unread generate allocated");
    let (_, n) = allocations(|| metrics.values().len());
    assert_eq!(n, 0, "a first read allocated");

    // A one-request batch: the outcome slots, the lane permutation, the
    // lane list and the lane stats.
    let pg = Postgres::new();
    let workload = tuna_workloads::tpcc();
    let config = pg.default_config();
    let mut cluster = Cluster::new(4, VmSku::d8s_v5(), Region::westus2(), 3);
    let base = Rng::seed_from(4);
    let request = [RunRequest {
        config: &config,
        machine: 2,
        stream: 5,
    }];
    let batch = |cluster: &mut Cluster| {
        execute_batch(
            ExecutionMode::Serial,
            &pg,
            &workload,
            cluster,
            &base,
            &request,
        )
    };
    batch(&mut cluster); // Registers the executor's metrics.
    let ((outcomes, _), n) = allocations(|| batch(&mut cluster));
    assert_eq!(outcomes.len(), 1);
    assert!(n <= 4, "a one-request batch made {n} allocations");

    // The TUNA arm of a random-search protocol grid, per simulated run
    // (tuning, crash-penalty profiling and deployment all run through
    // the executor).
    let campaign = Campaign::protocol(
        "allocations",
        0,
        vec![
            tuna_workloads::tpcc(),
            tuna_workloads::ycsb_c(),
            tuna_workloads::wikipedia(),
        ],
        &[("TUNA", Method::Tuna)],
    )
    .with_optimizer(SolverId::random());
    let (mut allocs, mut runs) = (0, 0);
    for w in 0..3 {
        let exp = campaign.experiment(w, ExecutionMode::Serial);
        let before = executor_runs();
        let (summary, n) = allocations(|| exp.run(Method::Tuna, 7));
        assert!(summary.tuning.is_some());
        allocs += n;
        runs += executor_runs() - before;
    }
    let per_run = allocs as f64 / runs as f64;
    assert!(
        per_run <= 10.0,
        "the TUNA arm made {per_run:.2} allocations per simulated run ({allocs} over {runs} runs)"
    );
}
