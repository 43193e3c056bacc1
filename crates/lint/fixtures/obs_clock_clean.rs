// Clean twin of the obs clock fixture: telemetry takes time only
// through a caller-supplied clock, so the same code renders
// byte-identically under a tick count and carries real durations when
// an allowlisted caller (the daemon, the perf gate) supplies wall time.
pub trait Clock {
    fn now(&self) -> u64;
}

pub struct SeamedRecorder<C: Clock> {
    clock: C,
}

impl<C: Clock> SeamedRecorder<C> {
    pub fn stamp(&self) -> u64 {
        self.clock.now()
    }
}
