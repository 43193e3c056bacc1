//! TUNA — Tuning Unstable and Noisy Cloud Applications.
//!
//! The paper's sampling methodology (EuroSys '25), reproduced end to end:
//! TUNA sits between a black-box optimizer and a cluster of workers and
//! changes *what data the optimizer sees*:
//!
//! 1. [`scheduler`] — multi-fidelity task placement: a config's budget is
//!    the number of distinct nodes it has been measured on; samples taken
//!    at lower budgets are reused and new samples land on nodes the config
//!    has not visited (§4.1, §5.1).
//! 2. [`outlier`] — the unstable-configuration detector: relative range
//!    above 30% marks a config unstable; its reported performance is
//!    penalized so the optimizer avoids the region (§4.2).
//! 3. [`adjuster`] — the noise-adjuster model: a random forest over guest
//!    metrics + one-hot machine id predicts each sample's relative error
//!    and divides it out (Algorithms 1-2, §4.3).
//! 4. [`aggregate`] — the min (worst-case) aggregation policy (§4.4).
//!
//! [`executor`] turns each round's `(config, machine)` plan into trial
//! runs — serially or on the workspace pool ([`tuna_stats::pool`]) with
//! one lane per simulated worker, bit-identically (forked per-run RNGs, disjoint
//! machine lanes). [`pipeline`] wires these into the ask/run/tell loop of
//! Figure 7/10,
//! [`baselines`] implements the paper's comparison points (traditional
//! single-node sampling, extended traditional, naive distributed), and
//! [`deploy`]/[`experiment`] reproduce the evaluation protocol: tune, then
//! deploy the best config on ten fresh VMs and report the distribution.
//! [`campaign`] lifts that protocol into a declarative study grid:
//! (workload × method × seed) cells executed by a work-stealing runner
//! and streamed into a checksummed, resumable result store.
//!
//! # Examples
//!
//! ```
//! use tuna_core::experiment::{Experiment, Method};
//!
//! let exp = Experiment::quick_demo();
//! let summary = exp.run(Method::Tuna, 0);
//! assert!(summary.deployment.mean > 0.0);
//! ```

pub mod adjuster;
pub mod aggregate;
pub mod baselines;
pub mod campaign;
pub mod deploy;
pub mod executor;
pub mod experiment;
pub mod outlier;
pub mod pipeline;
pub mod report;
pub mod sample;
pub mod scheduler;

pub use adjuster::NoiseAdjuster;
pub use aggregate::AggregationPolicy;
pub use campaign::{Campaign, CampaignRunner, ResultStore};
pub use executor::{ExecStats, ExecutionMode};
pub use outlier::{OutlierDetector, Stability};
pub use pipeline::{TunaConfig, TunaPipeline};
