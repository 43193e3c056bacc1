// Clean twin of the obs two-clock fixture: telemetry takes time only
// through a caller-supplied clock seam, so the same code renders
// byte-identically under a tick clock and carries real durations under
// the (allowlisted, wall.rs-only) wall clock.
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
