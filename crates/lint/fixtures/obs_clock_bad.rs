// Seeded violation of the obs two-clock rule: telemetry code reading
// real time directly instead of taking it through the `Clock` seam.
// Checked against a `crates/obs/src/...` path that is NOT the
// allowlisted wall.rs — the rule must still fire there.
use std::time::Instant;

pub struct EagerRecorder {
    origin: Instant,
}

impl EagerRecorder {
    pub fn stamp(&self) -> u64 {
        // A recorder stamping itself from the wall clock renders
        // differently every run — exactly what the seam prevents.
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn event_at_now(&self) -> u64 {
        Instant::now().elapsed().as_nanos() as u64
    }
}
