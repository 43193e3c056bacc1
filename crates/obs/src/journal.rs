//! The span/event journal: *why* the fleet did what it did.
//!
//! Spans are hierarchical — study → cell → trial-round — and events
//! are discrete facts attached to a span (or to the journal root).
//! Both are stamped through the [`Clock`] seam, so a journal driven by
//! a [`crate::TickClock`] renders byte-identically across worker
//! counts and restarts, while `tunad`'s journal carries real
//! durations.
//!
//! The journal is bounded: past capacity it stops *storing* spans and
//! events but keeps *counting* them (per-kind totals and a dropped
//! counter), so a long-lived daemon cannot leak memory through its own
//! telemetry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::Clock;

/// Discrete event vocabulary. The slugs (see [`EventKind::label`]) are
/// the wire/metric names; `docs/OBSERVABILITY.md` is the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A cell was handed to a worker by the fair-share scheduler.
    Scheduled,
    /// A cell completed and its record was journaled.
    Completed,
    /// A connection was shed with `408 Request Timeout`.
    Shed408,
    /// A request was shed with `429 Too Many Requests`.
    Shed429,
    /// A connection was refused with `503 Service Unavailable`.
    Shed503,
    /// A non-finite cost was quarantined before reaching a model fit.
    QuarantinedNan,
    /// A torn result journal was repaired on open.
    JournalRepaired,
    /// A result-journal append failed; the cell was abandoned.
    JournalAppendFailed,
    /// A batch-lane study was held back in favour of interactive work.
    Preempted,
    /// A submit was refused by admission control (budget or auth).
    AdmissionRefused,
}

impl EventKind {
    /// Every kind, in rendering order.
    pub const ALL: [EventKind; 10] = [
        EventKind::Scheduled,
        EventKind::Completed,
        EventKind::Shed408,
        EventKind::Shed429,
        EventKind::Shed503,
        EventKind::QuarantinedNan,
        EventKind::JournalRepaired,
        EventKind::JournalAppendFailed,
        EventKind::Preempted,
        EventKind::AdmissionRefused,
    ];

    /// The stable slug used in rendered journals and metric names.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Scheduled => "scheduled",
            EventKind::Completed => "completed",
            EventKind::Shed408 => "shed-408",
            EventKind::Shed429 => "shed-429",
            EventKind::Shed503 => "shed-503",
            EventKind::QuarantinedNan => "quarantined-nan",
            EventKind::JournalRepaired => "journal-repaired",
            EventKind::JournalAppendFailed => "journal-append-failed",
            EventKind::Preempted => "preempted",
            EventKind::AdmissionRefused => "admission-refused",
        }
    }

    fn index(self) -> usize {
        EventKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("every kind is in ALL")
    }
}

/// Opaque handle to a span in one journal. Handles from different
/// journals must not be mixed (they are plain indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(usize);

impl SpanId {
    /// The sentinel returned when the journal is full; children of a
    /// dropped span are attached to the root instead.
    const DROPPED: SpanId = SpanId(usize::MAX);

    /// The raw index (rendering only).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One interval of work. `end == None` while still open.
#[derive(Debug, Clone)]
pub struct Span {
    /// Display name, e.g. `study:default/alpha` or `cell:3`.
    pub name: String,
    /// Parent span, if any.
    pub parent: Option<SpanId>,
    /// Clock reading when the span opened.
    pub start: u64,
    /// Clock reading when the span closed.
    pub end: Option<u64>,
}

/// One discrete fact, attached to a span or to the journal root.
#[derive(Debug, Clone)]
pub struct Event {
    /// Clock reading when the event was recorded.
    pub at: u64,
    /// The span it happened in, if any.
    pub span: Option<SpanId>,
    /// What happened.
    pub kind: EventKind,
    /// Free-form detail, e.g. `cell=3` or `reason=study-budget`.
    pub detail: String,
}

struct State {
    spans: Vec<Span>,
    events: Vec<Event>,
}

/// A bounded, thread-safe span/event journal.
pub struct Journal {
    clock: Arc<dyn Clock>,
    state: Mutex<State>,
    capacity: usize,
    counts: [AtomicU64; EventKind::ALL.len()],
    dropped: AtomicU64,
}

/// Default bound on stored spans and on stored events (each).
pub const DEFAULT_CAPACITY: usize = 16 * 1024;

impl Journal {
    /// A journal with the default capacity.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Self::with_capacity(clock, DEFAULT_CAPACITY)
    }

    /// A journal storing at most `capacity` spans and `capacity`
    /// events; per-kind counts keep running past the bound.
    pub fn with_capacity(clock: Arc<dyn Clock>, capacity: usize) -> Self {
        Self {
            clock,
            state: Mutex::new(State {
                spans: Vec::new(),
                events: Vec::new(),
            }),
            capacity,
            counts: Default::default(),
            dropped: AtomicU64::new(0),
        }
    }

    /// Open a span now. Returns a sentinel (and counts a drop) when the
    /// journal is full.
    pub fn begin_span(&self, parent: Option<SpanId>, name: &str) -> SpanId {
        let start = self.clock.now();
        self.push_span(Span {
            name: name.to_string(),
            parent,
            start,
            end: None,
        })
    }

    /// Close an open span now. Closing a sentinel or already-closed
    /// span is a no-op.
    pub fn end_span(&self, id: SpanId) {
        let now = self.clock.now();
        let mut state = self.state.lock().expect("journal lock");
        if let Some(span) = state.spans.get_mut(id.0) {
            if span.end.is_none() {
                span.end = Some(now);
            }
        }
    }

    /// Retro-record a closed span with explicit bounds (used for
    /// trial-round spans reconstructed from a completed cell's trace).
    pub fn span_at(&self, parent: Option<SpanId>, name: &str, start: u64, end: u64) -> SpanId {
        self.push_span(Span {
            name: name.to_string(),
            parent,
            start,
            end: Some(end),
        })
    }

    fn push_span(&self, span: Span) -> SpanId {
        let mut state = self.state.lock().expect("journal lock");
        if state.spans.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return SpanId::DROPPED;
        }
        state.spans.push(span);
        SpanId(state.spans.len() - 1)
    }

    /// Record an event now. The per-kind count always advances, even
    /// when the stored event is dropped for capacity.
    pub fn event(&self, span: Option<SpanId>, kind: EventKind, detail: &str) {
        self.counts[kind.index()].fetch_add(1, Ordering::Relaxed);
        let at = self.clock.now();
        let span = span.filter(|s| *s != SpanId::DROPPED);
        let mut state = self.state.lock().expect("journal lock");
        if state.events.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        state.events.push(Event {
            at,
            span,
            kind,
            detail: detail.to_string(),
        });
    }

    /// Total times `kind` was recorded (including dropped events).
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()].load(Ordering::Relaxed)
    }

    /// Spans and events dropped for capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The clock this journal stamps with.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Snapshot of stored spans (rendering/tests).
    pub fn spans(&self) -> Vec<Span> {
        self.state.lock().expect("journal lock").spans.clone()
    }

    /// Snapshot of stored events (rendering/tests).
    pub fn events(&self) -> Vec<Event> {
        self.state.lock().expect("journal lock").events.clone()
    }

    /// Deterministic plain-text rendering: one line per span in open
    /// order, then one line per event in record order. Under a
    /// [`crate::TickClock`] this is byte-identical for identical event
    /// sequences.
    pub fn render(&self) -> String {
        let state = self.state.lock().expect("journal lock");
        let mut out = String::new();
        for (i, s) in state.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => p.0.to_string(),
                None => "-".to_string(),
            };
            let end = match s.end {
                Some(e) => e.to_string(),
                None => "open".to_string(),
            };
            out.push_str(&format!(
                "span {i} {} parent={parent} [{}..{end}]\n",
                s.name, s.start
            ));
        }
        for e in &state.events {
            let span = match e.span {
                Some(s) => s.0.to_string(),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "event @{} {} span={span} {}\n",
                e.at,
                e.kind.label(),
                e.detail
            ));
        }
        for kind in EventKind::ALL {
            let n = self.count(kind);
            if n > 0 {
                out.push_str(&format!("count {} {n}\n", kind.label()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TickClock;

    fn tick_journal() -> (Arc<TickClock>, Journal) {
        let clock = TickClock::shared();
        let journal = Journal::new(Arc::clone(&clock) as Arc<dyn Clock>);
        (clock, journal)
    }

    #[test]
    fn spans_nest_and_close() {
        let (clock, j) = tick_journal();
        let study = j.begin_span(None, "study:default/alpha");
        clock.advance(1);
        let cell = j.begin_span(Some(study), "cell:0");
        clock.advance(2);
        j.end_span(cell);
        j.end_span(study);
        let spans = j.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start, 0);
        assert_eq!(spans[0].end, Some(3));
        assert_eq!(spans[1].parent, Some(study));
        assert_eq!(spans[1].start, 1);
        assert_eq!(spans[1].end, Some(3));
    }

    #[test]
    fn events_count_even_past_capacity() {
        let clock = TickClock::shared();
        let j = Journal::with_capacity(clock as Arc<dyn Clock>, 2);
        for _ in 0..5 {
            j.event(None, EventKind::Shed429, "reason=pipeline-depth");
        }
        assert_eq!(j.count(EventKind::Shed429), 5);
        assert_eq!(j.events().len(), 2);
        assert_eq!(j.dropped(), 3);
    }

    #[test]
    fn render_is_deterministic_for_identical_sequences() {
        let run = || {
            let (clock, j) = tick_journal();
            let s = j.begin_span(None, "study:default/a");
            clock.advance(1);
            j.event(Some(s), EventKind::Scheduled, "cell=0");
            clock.advance(1);
            j.event(Some(s), EventKind::Completed, "cell=0");
            j.end_span(s);
            j.render()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.contains("event @1 scheduled span=0 cell=0"));
        assert!(a.contains("count completed 1"));
    }

    #[test]
    fn full_journal_returns_sentinel_span() {
        let clock = TickClock::shared();
        let j = Journal::with_capacity(clock as Arc<dyn Clock>, 1);
        let a = j.begin_span(None, "a");
        let b = j.begin_span(None, "b");
        assert_ne!(a, SpanId::DROPPED);
        assert_eq!(b, SpanId::DROPPED);
        j.end_span(b); // no-op, must not panic
                       // Events against a dropped span attach to the root.
        j.event(Some(b), EventKind::Preempted, "");
        assert_eq!(j.events()[0].span, None);
    }
}
