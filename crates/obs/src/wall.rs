//! The wall-clock implementation of [`Clock`] — the **only** file in
//! `crates/obs` where reading real time is legal.
//!
//! The determinism contract (docs/ARCHITECTURE.md) bans `Instant::now`
//! on every result-bearing path; the `wall-clock` lint enforces the ban
//! tree-wide with a short allowlist, and this file is the sole obs
//! entry on it. Everything else in the crate takes time through the
//! [`Clock`] seam, so the choice of clock is made exactly once, at the
//! composition root: `tunad` is to hand its instrumentation a
//! [`WallClock`], the simulator a [`crate::TickClock`], and no other
//! code can tell the difference. No composition root does so yet —
//! the seam waits for the per-layer `Stopwatch` of ROADMAP item 8.

use std::time::Instant;

use crate::clock::Clock;

/// Real elapsed time, in nanoseconds since the clock was created.
///
/// Readings are relative (a *duration* is meaningful, an absolute
/// value is not), which keeps rendered telemetry free of wall-time
/// epochs that would differ run-to-run even on identical hardware.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}
