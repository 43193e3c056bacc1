//! The clock seam: every telemetry timestamp is a `u64` read through
//! [`Clock`], so the *source* of time is a property of the call site,
//! not of the instrumentation.
//!
//! Two implementations exist. [`TickClock`] (here) is the deterministic
//! one: it only moves when the surrounding state machine advances it,
//! so every reading taken from it is a pure function of the event
//! sequence. [`crate::wall::WallClock`] is the real-time one, legal
//! only where the `wall-clock` lint allows it (the daemon and its
//! client). Neither has a caller yet; the seam is kept for the
//! per-layer `Stopwatch` planned in ROADMAP item 8.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone source of `u64` timestamps. The unit is the caller's
/// business (ticks for the simulator, nanoseconds for the daemon);
/// consumers must treat readings as opaque ordinals.
pub trait Clock: Send + Sync {
    /// The current reading. Must be monotone non-decreasing.
    fn now(&self) -> u64;
}

/// A deterministic clock: reads whatever the owner last stored.
///
/// The simulator and the study manager advance it explicitly (one tick
/// per scheduling decision / simulated round), which makes every
/// timestamp recorded against it reproducible bit-for-bit across
/// worker counts and restarts.
#[derive(Debug, Default)]
pub struct TickClock {
    ticks: AtomicU64,
}

impl TickClock {
    /// A clock at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared clock at tick 0, ready to hand to any `Arc<dyn Clock>`
    /// consumer.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Advance by `n` ticks.
    pub fn advance(&self, n: u64) {
        self.ticks.fetch_add(n, Ordering::Relaxed);
    }

    /// Jump to an absolute reading (used when resuming a persisted
    /// logical clock). Never moves backwards.
    pub fn set_at_least(&self, t: u64) {
        self.ticks.fetch_max(t, Ordering::Relaxed);
    }
}

impl Clock for TickClock {
    fn now(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_clock_is_explicit() {
        let c = TickClock::new();
        assert_eq!(c.now(), 0);
        c.advance(3);
        assert_eq!(c.now(), 3);
        c.set_at_least(2); // never backwards
        assert_eq!(c.now(), 3);
        c.set_at_least(10);
        assert_eq!(c.now(), 10);
    }

    #[test]
    fn tick_clock_is_object_safe() {
        let c: Arc<dyn Clock> = TickClock::shared();
        assert_eq!(c.now(), 0);
    }
}
