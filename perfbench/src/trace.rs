//! Span recording and the tracing wrappers around the three public trait
//! seams: [`Solver`], SMAC's [`Proposer`] and [`SystemUnderTest`].
//!
//! Spans (name, start, end, parent) stay in memory until the run ends. A
//! span's parent is the innermost span open on the same thread, so each
//! thread builds its own tree. The SuT wrapper keeps atomic counters
//! instead of spans: executor lanes call it from two threads at once.
//!
//! Every wrapper forwards each call unchanged, so a traced run produces
//! bit-identical results; the workloads check that.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use tuna_cloudsim::machine::Machine;
use tuna_optimizer::multifidelity::Proposer;
use tuna_optimizer::{History, Objective, Solver, Suggestion};
use tuna_space::{Config, ConfigId, ConfigSpace};
use tuna_stats::rng::Rng;
use tuna_sut::{RunOutcome, SystemUnderTest};
use tuna_workloads::Workload;

use crate::Outcome;

/// Reads the monotonic wall clock.
pub fn now() -> Instant {
    // lint:allow(wall-clock): the benchmark only reports elapsed time;
    // no reading ever feeds a result that the output checks compare.
    Instant::now()
}

/// Nanoseconds elapsed since `t`.
pub fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One recorded span, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        epoch: now(),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span when dropped.
pub struct SpanGuard {
    idx: usize,
}

/// Opens a span named `name` as a child of this thread's innermost open
/// span.
pub fn span(name: &'static str) -> SpanGuard {
    let rec = recorder();
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let start = nanos_since(rec.epoch);
    let idx = {
        let mut spans = rec.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        spans.len() - 1
    };
    OPEN.with(|open| open.borrow_mut().push(idx));
    SpanGuard { idx }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let rec = recorder();
        let end = nanos_since(rec.epoch);
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
        // Never panic in drop: a poisoned recorder only loses this end.
        if let Ok(mut spans) = rec.spans.lock() {
            spans[self.idx].end = end;
        }
    }
}

/// Takes every span recorded so far.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut *recorder().spans.lock().expect("span recorder poisoned"))
}

/// Per-name totals over a span forest.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    /// Span time minus the time its child spans cover.
    pub self_ns: i128,
    /// Every span's duration, for percentiles.
    pub durs: Vec<u64>,
}

impl Layer {
    pub fn busy_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }

    /// The `q`-quantile of span durations, in seconds.
    pub fn quantile_s(&self, q: f64) -> f64 {
        let secs: Vec<f64> = self.durs.iter().map(|&d| d as f64 / 1e9).collect();
        quantile(&secs, q)
    }
}

/// Groups spans by name. Children nest inside their parent on one
/// thread, so a span's children never overlap and their durations sum
/// to the time they cover.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur();
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let layer = out.entry(s.name).or_default();
        layer.calls += 1;
        layer.total_ns += s.dur();
        layer.self_ns += i128::from(s.dur()) - i128::from(children);
        layer.durs.push(s.dur());
    }
    out
}

/// Checks that the self times of `layers` sum to at most `wall_ns`, in
/// exact integer nanoseconds: spans that tile a root sum to exactly its
/// duration, which float rounding could push over.
pub fn check_self_sum<'a>(
    out: &mut Outcome,
    layers: impl Iterator<Item = &'a Layer>,
    wall_ns: u64,
) {
    let sum_ns: i128 = layers.map(|l| l.self_ns).sum();
    out.check(
        sum_ns <= i128::from(wall_ns),
        format!("layer self times sum to {sum_ns} ns > {wall_ns} ns of traced threads"),
    );
}

/// Whether span `idx` has an ancestor named `name`.
pub fn has_ancestor(spans: &[Span], idx: usize, name: &str) -> bool {
    let mut cur = spans[idx].parent;
    while let Some(p) = cur {
        if spans[p].name == name {
            return true;
        }
        cur = spans[p].parent;
    }
    false
}

/// Linear-interpolated quantile (the `n - 1` basis); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A [`Solver`] that records `optimizer.ask` and `optimizer.tell` spans.
pub struct TracedSolver {
    inner: Box<dyn Solver>,
}

impl TracedSolver {
    pub fn new(inner: Box<dyn Solver>) -> Self {
        TracedSolver { inner }
    }
}

impl Solver for TracedSolver {
    fn ask(&mut self, rng: &mut Rng) -> Suggestion {
        let _span = span("optimizer.ask");
        self.inner.ask(rng)
    }

    fn tell(&mut self, config: &Config, raw_value: f64, budget: usize) {
        let _span = span("optimizer.tell");
        self.inner.tell(config, raw_value, budget);
    }

    fn best(&self) -> Option<(Config, f64)> {
        self.inner.best()
    }

    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    fn objective(&self) -> Objective {
        self.inner.objective()
    }

    fn n_observations(&self) -> usize {
        self.inner.n_observations()
    }
}

/// Histories captured by [`TracedProposer`] for the surrogate replay.
#[derive(Debug, Default)]
pub struct Captured {
    pub histories: Mutex<Vec<History>>,
}

/// A [`Proposer`] that records `optimizer.propose` spans and keeps every
/// `every`-th history on which the surrogate may fit (at least `n_init`
/// configs observed).
pub struct TracedProposer<P> {
    inner: P,
    n_init: usize,
    every: usize,
    eligible: usize,
    captured: Arc<Captured>,
}

impl<P: Proposer> TracedProposer<P> {
    pub fn new(inner: P, n_init: usize, every: usize, captured: Arc<Captured>) -> Self {
        TracedProposer {
            inner,
            n_init,
            every: every.max(1),
            eligible: 0,
            captured,
        }
    }
}

impl<P: Proposer> Proposer for TracedProposer<P> {
    fn propose(&mut self, history: &History, space: &ConfigSpace, rng: &mut Rng) -> Config {
        if history.n_configs() >= self.n_init {
            if self.eligible % self.every == 0 {
                self.captured
                    .histories
                    .lock()
                    .expect("capture list poisoned")
                    .push(history.clone());
            }
            self.eligible += 1;
        }
        let _span = span("optimizer.propose");
        self.inner.propose(history, space, rng)
    }
}

/// Call count and busy time of [`SystemUnderTest::run`], over atomics.
#[derive(Debug, Default)]
pub struct SutCounters {
    pub calls: AtomicU64,
    pub nanos: AtomicU64,
}

/// One [`SystemUnderTest::run`] call, kept for the noise-adjuster replay.
#[derive(Debug, Clone)]
pub struct SutRun {
    pub config: ConfigId,
    /// The machine's id; its index in the tuning cluster until a
    /// replacement is provisioned.
    pub machine: u64,
    pub outcome: RunOutcome,
}

/// A [`SystemUnderTest`] that counts runs and their busy time, and keeps
/// every run when built with [`TracedSut::capturing`].
pub struct TracedSut {
    inner: Box<dyn SystemUnderTest>,
    counters: Arc<SutCounters>,
    runs: Option<Mutex<Vec<SutRun>>>,
}

impl TracedSut {
    pub fn new(inner: Box<dyn SystemUnderTest>, counters: Arc<SutCounters>) -> Self {
        TracedSut {
            inner,
            counters,
            runs: None,
        }
    }

    /// Keeps every run from now on; lanes push in completion order.
    pub fn capturing(mut self) -> Self {
        self.runs = Some(Mutex::new(Vec::new()));
        self
    }

    /// The runs kept so far (empty unless capturing).
    pub fn take_runs(&self) -> Vec<SutRun> {
        self.runs.as_ref().map_or_else(Vec::new, |runs| {
            std::mem::take(&mut *runs.lock().expect("run list poisoned"))
        })
    }
}

impl SystemUnderTest for TracedSut {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    fn default_config(&self) -> Config {
        self.inner.default_config()
    }

    fn supports(&self, workload: &Workload) -> bool {
        self.inner.supports(workload)
    }

    fn run(
        &self,
        config: &Config,
        workload: &Workload,
        machine: &mut Machine,
        rng: &mut Rng,
    ) -> RunOutcome {
        let t = now();
        let out = self.inner.run(config, workload, machine, rng);
        // Relaxed: plain statistics, read after the threads are joined.
        self.counters
            .nanos
            .fetch_add(nanos_since(t), Ordering::Relaxed);
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        if let Some(runs) = &self.runs {
            runs.lock().expect("run list poisoned").push(SutRun {
                config: config.id(),
                machine: machine.id().0,
                outcome: out.clone(),
            });
        }
        out
    }
}
