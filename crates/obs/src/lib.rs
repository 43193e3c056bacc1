//! Deterministic observability for the TUNA stack.
//!
//! TUNA's premise is that cloud performance signals are noisy and must
//! be *explained*; this crate makes the fleet itself explainable
//! without ever perturbing the results it observes. Three layers:
//!
//! - [`clock`] / [`wall`]: the **two-clock rule**. Every telemetry
//!   timestamp is to flow through the [`clock::Clock`] seam:
//!   deterministic paths (the simulator, campaign execution, the serve
//!   state machine) take [`clock::TickClock`], whose readings are a
//!   pure function of the event sequence, and only the daemon may take
//!   [`wall::WallClock`]; `crates/obs/src/wall.rs` is the one file in
//!   this crate on the `wall-clock` lint allowlist (see
//!   `docs/LINTS.md`). Neither clock has a caller yet: the seam is kept
//!   for the per-layer `Stopwatch` that ROADMAP item 8 builds on it.
//! - [`metrics`]: a registry of named counters, gauges and fixed-bucket
//!   histograms over atomics — hot paths never take a lock to record —
//!   rendered in Prometheus text exposition format with p50/p99
//!   derived from the bucket counts.
//! - [`trace`]: the per-study convergence trace (best-cost-so-far
//!   series per arm, per cell) and its one-line rendering, which rides
//!   in the study's result journal so a killed daemon resumes with an
//!   identical trace.
//!
//! # The observer effect, pinned
//!
//! Instrumentation must not change what it measures. Every hook in the
//! workspace is an atomic side channel: metric writes never feed
//! scheduling decisions, response bytes, or results. The perf gate's
//! `obs/overhead` scenario enforces the cost (< 3% on the `serve/c10k`
//! path) and every pre-existing scenario checksum pins that behaviour
//! is bit-unchanged.

pub mod clock;
pub mod metrics;
pub mod trace;
pub mod wall;

pub use clock::{Clock, TickClock};
pub use metrics::{global, Counter, Gauge, Histogram, MetricsRegistry};
pub use trace::{ArmTrace, CellTrace, StudyTrace};
pub use wall::WallClock;
