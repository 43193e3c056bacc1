//! Worker threads change wall-clock, never results: the same tuning run
//! serially and with N threads.
//!
//! ```text
//! cargo run --release --example parallel_tuning
//! TUNA_WORKERS=4 cargo run --release --example parallel_tuning
//! ```
//!
//! Trials run in plan order on the calling thread, each from its own
//! forked RNG; `TUNA_WORKERS` buys threads for the forests of SMAC's
//! surrogate and the noise adjuster, whose trees each grow from their own
//! fork. So serial and parallel tuning are bit-identical: this example
//! runs both and verifies that.

use std::time::Instant;

use tuna_core::executor::ExecutionMode;
use tuna_core::experiment::{Experiment, Method};

fn main() {
    let workers = match ExecutionMode::from_env() {
        ExecutionMode::Serial => 4,
        mode => mode.workers(),
    };

    // Experiment level: tuning + deployment under both modes.
    println!("tuning PostgreSQL / TPC-C serially and with {workers} forest threads...");
    let mut exp = Experiment::quick_demo();
    exp.exec = ExecutionMode::Serial;
    // lint:allow(wall-clock): demonstrating the serial-vs-parallel
    // speedup is this example's point; results are asserted identical.
    let t0 = Instant::now();
    let serial = exp.run(Method::Tuna, 42);
    let serial_wall = t0.elapsed();

    exp.exec = ExecutionMode::Parallel { workers };
    // lint:allow(wall-clock): same — wall time is displayed, not used.
    let t1 = Instant::now();
    let parallel = exp.run(Method::Tuna, 42);
    let parallel_wall = t1.elapsed();

    assert_eq!(
        serial.best_config, parallel.best_config,
        "execution mode must not change the chosen config"
    );
    assert_eq!(
        serial.deployment.values, parallel.deployment.values,
        "execution mode must not change the measured distribution"
    );
    println!("  serial:   {:>8.1} ms", serial_wall.as_secs_f64() * 1e3);
    println!(
        "  parallel: {:>8.1} ms ({} threads, bit-identical results)",
        parallel_wall.as_secs_f64() * 1e3,
        workers
    );
    println!("  best config: {}", parallel.best_config);
}
