//! Arrival-pattern generators: how a workload's offered load moves over
//! time.
//!
//! The §6 evaluation tunes under a *steady* offered load; production
//! traffic is anything but. An [`ArrivalPattern`] is a deterministic
//! load-factor series — a multiplier on the workload's nominal
//! resource demand per 5-minute epoch — used to study tuning under
//! diurnal swings and bursty arrivals:
//!
//! - [`ArrivalPattern::Steady`]: the paper's flat 1.0× load.
//! - [`ArrivalPattern::Diurnal`]: a day-shaped sinusoid (mean 1.0 by
//!   construction), peaking mid-period — the classic follow-the-sun
//!   interactive profile.
//! - [`ArrivalPattern::Bursty`]: a baseline trough punctuated by
//!   deterministic pseudo-random bursts (hash-derived from the epoch
//!   index, so the series is reproducible without threading an RNG).
//!
//! Generators are pure functions of `(pattern, epoch)`; campaigns stay
//! bit-reproducible under any pattern. [`ArrivalPattern::modulate_peak`]
//! applies a pattern's peak load factor to a [`Workload`]'s demand vector
//! (clamped to the simulator's `[0, 1]` utilization domain), which is
//! how `tuna figures --only fig11 --pattern ...` tunes for the peak hour
//! instead of the average one.

use crate::Workload;
use tuna_stats::rng::hash_combine;

/// A deterministic offered-load series, in multiples of nominal demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Flat 1.0× load (the paper's evaluation regime).
    Steady,
    /// A sinusoidal day: `1 + amplitude * sin(2π epoch / period)`.
    /// Mean 1.0 over any whole number of periods.
    Diurnal {
        /// Epochs per day (288 five-minute epochs = 24h).
        period: usize,
        /// Peak swing above/below nominal, in `(0, 1)`.
        amplitude: f64,
    },
    /// A `trough`-level baseline with deterministic pseudo-random
    /// bursts of `peak`× load.
    Bursty {
        /// Baseline load factor between bursts (≤ 1).
        trough: f64,
        /// Load factor inside a burst (≥ 1).
        peak: f64,
        /// Probability of an epoch bursting, in 1/1024ths.
        burst_per_1024: u32,
        /// Seed for the burst schedule.
        seed: u64,
    },
}

impl ArrivalPattern {
    /// The default diurnal day: 288 five-minute epochs, ±40% swing.
    pub fn diurnal_default() -> Self {
        ArrivalPattern::Diurnal {
            period: 288,
            amplitude: 0.4,
        }
    }

    /// The default bursty profile: 0.7× baseline, 1.8× bursts, ~12.5%
    /// of epochs bursting.
    pub fn bursty_default() -> Self {
        ArrivalPattern::Bursty {
            trough: 0.7,
            peak: 1.8,
            burst_per_1024: 128,
            seed: 0xB04,
        }
    }

    /// Parses a CLI pattern name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "steady" => Some(ArrivalPattern::Steady),
            "diurnal" => Some(ArrivalPattern::diurnal_default()),
            "bursty" => Some(ArrivalPattern::bursty_default()),
            _ => None,
        }
    }

    /// CLI display name.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalPattern::Steady => "steady",
            ArrivalPattern::Diurnal { .. } => "diurnal",
            ArrivalPattern::Bursty { .. } => "bursty",
        }
    }

    /// The load factor at `epoch`. Always finite and non-negative.
    pub fn load_factor(&self, epoch: usize) -> f64 {
        match *self {
            ArrivalPattern::Steady => 1.0,
            ArrivalPattern::Diurnal { period, amplitude } => {
                let period = period.max(1) as f64;
                let phase = 2.0 * std::f64::consts::PI * (epoch as f64 / period);
                (1.0 + amplitude * phase.sin()).max(0.0)
            }
            ArrivalPattern::Bursty {
                trough,
                peak,
                burst_per_1024,
                seed,
            } => {
                let draw = hash_combine(seed, epoch as u64) % 1024;
                if (draw as u32) < burst_per_1024 {
                    peak
                } else {
                    trough
                }
            }
        }
    }

    /// The first `epochs` load factors.
    pub fn profile(&self, epochs: usize) -> Vec<f64> {
        (0..epochs).map(|e| self.load_factor(e)).collect()
    }

    /// The largest load factor over one representative window (a
    /// diurnal period, or 1024 epochs for the other shapes) — the
    /// peak-hour multiplier a capacity planner would size for.
    pub fn peak_factor(&self) -> f64 {
        let window = match *self {
            ArrivalPattern::Diurnal { period, .. } => period.max(1),
            _ => 1024,
        };
        self.profile(window)
            .into_iter()
            .fold(0.0f64, |acc, x| acc.max(x))
    }

    /// A copy of `workload` under this pattern's peak load
    /// ([`ArrivalPattern::peak_factor`]) — tuning for the worst hour of
    /// the day rather than the average one. Every demand component is
    /// scaled and clamped to the simulator's `[0, 1]` utilization
    /// domain. The workload keeps its name — callers that persist
    /// results should fold the pattern into their campaign name instead.
    pub fn modulate_peak(&self, workload: &Workload) -> Workload {
        self.scale(workload, self.peak_factor())
    }

    fn scale(&self, workload: &Workload, factor: f64) -> Workload {
        let mut out = workload.clone();
        out.demand = tuna_cloudsim::components::ComponentVec::new(
            (workload.demand.cpu * factor).clamp(0.0, 1.0),
            (workload.demand.disk * factor).clamp(0.0, 1.0),
            (workload.demand.memory * factor).clamp(0.0, 1.0),
            (workload.demand.cache * factor).clamp(0.0, 1.0),
            (workload.demand.os * factor).clamp(0.0, 1.0),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc;

    #[test]
    fn steady_is_flat_unity() {
        let p = ArrivalPattern::Steady;
        assert!(p.profile(100).iter().all(|&x| x == 1.0));
        assert_eq!(p.peak_factor(), 1.0);
    }

    #[test]
    fn diurnal_has_mean_one_and_period() {
        let p = ArrivalPattern::diurnal_default();
        let profile = p.profile(288);
        let mean = profile.iter().sum::<f64>() / profile.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9, "mean {mean}");
        // Periodic: epoch and epoch+period agree.
        for e in 0..16 {
            assert!((p.load_factor(e) - p.load_factor(e + 288)).abs() < 1e-9);
        }
        // Peak sits at nominal + amplitude.
        assert!((p.peak_factor() - 1.4).abs() < 1e-3, "{}", p.peak_factor());
        // The trough is amplitude below nominal, not negative.
        let min = profile.iter().fold(f64::INFINITY, |a, &x| a.min(x));
        assert!((min - 0.6).abs() < 1e-3, "min {min}");
    }

    #[test]
    fn bursty_is_deterministic_two_level_and_rarely_bursts() {
        let p = ArrivalPattern::bursty_default();
        let a = p.profile(2048);
        assert_eq!(a, p.profile(2048), "same pattern, same series");
        assert!(a.iter().all(|&x| x == 0.7 || x == 1.8));
        let bursts = a.iter().filter(|&&x| x == 1.8).count();
        // ~12.5% of 2048 = 256; allow generous slack for the hash draw.
        assert!((150..400).contains(&bursts), "bursts {bursts}");
        // A different seed reshuffles the schedule.
        let other = ArrivalPattern::Bursty {
            trough: 0.7,
            peak: 1.8,
            burst_per_1024: 128,
            seed: 0x5EED,
        };
        assert_ne!(a, other.profile(2048));
    }

    #[test]
    fn parse_roundtrips_names() {
        for name in ["steady", "diurnal", "bursty"] {
            let p = ArrivalPattern::parse(name).unwrap();
            assert_eq!(p.name(), name);
        }
        assert!(ArrivalPattern::parse("lunar").is_none());
    }

    #[test]
    fn modulate_scales_and_clamps_demand() {
        let w = tpcc();
        let p = ArrivalPattern::diurnal_default();
        let peak = p.modulate_peak(&w);
        // Scaled by 1.4 but clamped into [0, 1]: disk 0.85 saturates.
        assert_eq!(peak.demand.disk, 1.0);
        assert!((peak.demand.cpu - 0.55 * 1.4).abs() < 1e-9);
        assert!(peak.demand.iter().all(|(_, v)| (0.0..=1.0).contains(&v)));
        // Steady modulation is the identity.
        assert_eq!(ArrivalPattern::Steady.modulate_peak(&w), w);
        // Name survives so stores stay compatible with the base naming.
        assert_eq!(peak.name, w.name);
    }
}
