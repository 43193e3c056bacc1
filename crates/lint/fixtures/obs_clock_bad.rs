// Seeded violation of the obs clock rule: telemetry code reading real
// time directly instead of taking it from its caller. Checked against
// `crates/obs/src/...` paths — no file there is allowlisted, so the rule
// must fire at every one.
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
