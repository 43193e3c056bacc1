//! The per-connection state machine behind both `tunad` and the
//! loopback simulator.
//!
//! [`Engine`] is sans-IO: it never touches a socket or a clock. A
//! *driver* owns the transport and the time source and narrates events
//! to the engine — [`Engine::connect`] on accept, [`Engine::recv`] on
//! readable bytes, [`Engine::on_eof`] on peer close, [`Engine::on_tick`]
//! as time passes — then drains [`Engine::pending_output`] back onto the
//! wire and reaps connections once [`Engine::wants_close`]. `tunad`
//! drives it from a readiness loop over non-blocking sockets with
//! milliseconds for time; `serve::sim` drives the *same* engine from a
//! virtual listener with scheduler ticks for time. One state machine,
//! two transports — which is what keeps the simulator's determinism
//! tests honest about the production path.
//!
//! Each connection walks read-header → read-body → dispatch →
//! write-response, with HTTP/1.1 keep-alive and pipelining on top:
//! parsed requests queue per-connection and are answered in order, and
//! responses always come out in request order (errors included — a
//! malformed frame's error response queues *behind* the valid requests
//! that preceded it).
//!
//! Budgets, and the structured shed responses they produce, live here
//! too ([`EngineConfig`]):
//!
//! - connection slots are bounded: past `max_connections` a new peer
//!   gets a JSON `503` and an immediate close;
//! - the per-connection pipeline queue is bounded: past `max_pending`
//!   undispatched requests the connection gets a `429` and closes;
//! - each request has a time budget from its first byte: a peer that
//!   stalls mid-frame (the slowloris) gets a `408` and closes instead
//!   of pinning the slot forever;
//! - total request bytes per connection are bounded (`429`), as is the
//!   number of requests served per connection (the last response simply
//!   closes).

use std::collections::VecDeque;
use std::sync::OnceLock;

use crate::daemon;
use crate::http::{Request, RequestParser, Response};
use crate::manager::StudyManager;

/// Cached handles into the process-global metrics registry — the same
/// relaxed-atomics-only discipline as the executor's instrumentation:
/// registration locks once, the hot path never does. All values are
/// u64 counts in the driver's clock units, so nothing here can perturb
/// a result byte (`instrument: false` exists purely so the perfgate
/// can prove that claim by measuring the overhead).
struct EngineMetrics {
    requests: tuna_obs::Counter,
    dispatch_latency: tuna_obs::Histogram,
    pipeline_depth: tuna_obs::Histogram,
    shed_503_capacity: tuna_obs::Counter,
    shed_429_depth: tuna_obs::Counter,
    shed_429_bytes: tuna_obs::Counter,
    shed_408_timeout: tuna_obs::Counter,
}

fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = tuna_obs::global();
        let shed = |class: &str| {
            reg.counter(
                &format!("tuna_serve_shed_total{{class=\"{class}\"}}"),
                "requests/connections shed, by shed class",
            )
        };
        EngineMetrics {
            requests: reg.counter("tuna_serve_requests_total", "requests dispatched"),
            dispatch_latency: reg.histogram(
                "tuna_serve_dispatch_latency",
                "decode-to-dispatch latency in driver clock units (ms under tunad, \
                 scheduler ticks under the simulator)",
                &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
            ),
            pipeline_depth: reg.histogram(
                "tuna_serve_pipeline_depth",
                "per-connection queued requests at enqueue time",
                &[1, 2, 4, 8, 16, 32, 64],
            ),
            shed_503_capacity: shed("503-capacity"),
            shed_429_depth: shed("429-depth"),
            shed_429_bytes: shed("429-bytes"),
            shed_408_timeout: shed("408-timeout"),
        }
    })
}

/// Budgets and limits for an [`Engine`]. All time quantities are in the
/// driver's clock unit: milliseconds under `tunad`, scheduler ticks
/// under the simulator.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Connection slots; peers past this are shed with a `503`.
    pub max_connections: usize,
    /// Parsed-but-undispatched requests per connection; past this the
    /// connection is shed with a `429`.
    pub max_pending: usize,
    /// Requests served per connection before the engine closes it (the
    /// final response is framed `connection: close`).
    pub max_requests_per_conn: u64,
    /// Time budget from a request's first byte to its last; a
    /// connection stalled mid-frame past this gets a `408`.
    pub request_time_budget: u64,
    /// Keep-alive idle budget: a connection with no traffic and no
    /// buffered frame for this long is closed silently.
    pub idle_time_budget: u64,
    /// Total request bytes accepted per connection (`429` past it).
    pub conn_byte_budget: u64,
    /// Record decode-to-dispatch latencies (for the perfgate).
    pub record_latency: bool,
    /// Feed the process-global metrics registry (latency/depth
    /// histograms, shed counters). On by default; the perfgate's
    /// `obs/overhead` scenario turns it off for its control pass to
    /// measure the cost of instrumentation.
    pub instrument: bool,
}

impl EngineConfig {
    /// Budgets for the real daemon (milliseconds).
    pub fn daemon_default() -> Self {
        EngineConfig {
            max_connections: 1024,
            max_pending: 64,
            max_requests_per_conn: 4096,
            request_time_budget: 10_000,
            idle_time_budget: 60_000,
            conn_byte_budget: 64 * 1024 * 1024,
            record_latency: false,
            instrument: true,
        }
    }

    /// Budgets for the simulator (scheduler ticks).
    pub fn sim_default() -> Self {
        EngineConfig {
            max_connections: 4096,
            max_pending: 64,
            max_requests_per_conn: 4096,
            request_time_budget: 50,
            idle_time_budget: 1_000,
            conn_byte_budget: 64 * 1024 * 1024,
            record_latency: false,
            instrument: true,
        }
    }
}

/// An ordered unit of work on a connection: either a request awaiting
/// dispatch (stamped with when it finished decoding) or an
/// already-decided terminal response (parse error, shed). Keeping both
/// in one queue is what guarantees responses leave in request order.
#[derive(Debug)]
enum PendingItem {
    Request(Request, u64),
    Terminal(Response),
}

/// One connection's state.
#[derive(Debug)]
struct Conn {
    parser: RequestParser,
    pending: VecDeque<PendingItem>,
    out: Vec<u8>,
    /// Requests answered so far.
    served: u64,
    /// Request bytes received so far.
    bytes_in: u64,
    /// No further input is parsed (error answered, budget blown, EOF).
    input_closed: bool,
    /// Close once `pending` and `out` drain.
    close_after_flush: bool,
    /// When the currently-buffered partial frame started arriving.
    request_started: Option<u64>,
    /// Last time bytes arrived or a response was queued.
    last_activity: u64,
}

impl Conn {
    fn new(now: u64) -> Self {
        Conn {
            parser: RequestParser::new(),
            pending: VecDeque::new(),
            out: Vec::new(),
            served: 0,
            bytes_in: 0,
            input_closed: false,
            close_after_flush: false,
            request_started: None,
            last_activity: now,
        }
    }

    /// Queue a terminal response: it is answered in order, after the
    /// valid requests already pending, and then the connection closes.
    fn shed(&mut self, resp: Response) {
        self.pending.push_back(PendingItem::Terminal(resp));
        self.input_closed = true;
        self.request_started = None;
    }
}

/// The connection engine. See the module docs for the driver contract.
pub struct Engine {
    cfg: EngineConfig,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    open: usize,
    latencies: Vec<u64>,
}

impl Engine {
    /// An engine with the given budgets and no connections.
    pub fn new(cfg: EngineConfig) -> Self {
        Engine {
            cfg,
            conns: Vec::new(),
            free: Vec::new(),
            open: 0,
            latencies: Vec::new(),
        }
    }

    /// Registers a new connection, returning its id. When all
    /// `max_connections` slots are taken the connection is *accepted
    /// then shed*: its only output will be a structured `503` and
    /// [`Engine::wants_close`] goes true once that flushes — a visible
    /// refusal instead of a silent drop.
    pub fn connect(&mut self, now: u64) -> usize {
        let mut conn = Conn::new(now);
        if self.open >= self.cfg.max_connections {
            conn.shed(Response::error(
                503,
                "server at connection capacity; retry later",
            ));
            if self.cfg.instrument {
                engine_metrics().shed_503_capacity.inc();
            }
        }
        self.open += 1;
        match self.free.pop() {
            Some(id) => {
                self.conns[id] = Some(conn);
                id
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        }
    }

    /// Feeds received transport bytes into a connection's parser,
    /// queueing every complete request (and, on a framing error or a
    /// blown budget, the terminal error response).
    pub fn recv(&mut self, id: usize, bytes: &[u8], now: u64) {
        let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
            return;
        };
        if conn.input_closed {
            return;
        }
        conn.last_activity = now;
        conn.bytes_in += bytes.len() as u64;
        if conn.bytes_in > self.cfg.conn_byte_budget {
            conn.shed(Response::error(
                429,
                "connection byte budget exhausted; reconnect",
            ));
            if self.cfg.instrument {
                engine_metrics().shed_429_bytes.inc();
            }
            return;
        }
        conn.parser.feed(bytes);
        loop {
            match conn.parser.next_request() {
                Ok(Some(req)) => {
                    conn.request_started = None;
                    if conn.pending.len() >= self.cfg.max_pending {
                        conn.shed(Response::error(429, "pipeline depth exceeded; slow down"));
                        if self.cfg.instrument {
                            engine_metrics().shed_429_depth.inc();
                        }
                        return;
                    }
                    conn.pending.push_back(PendingItem::Request(req, now));
                    if self.cfg.instrument {
                        engine_metrics()
                            .pipeline_depth
                            .observe(conn.pending.len() as u64);
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    conn.shed(Response::of_http_error(&e));
                    return;
                }
            }
        }
        if conn.parser.mid_request() {
            conn.request_started.get_or_insert(now);
        }
    }

    /// Peer closed its write side. Mid-frame this queues the truncation
    /// error; between frames it is a clean close.
    pub fn on_eof(&mut self, id: usize) {
        let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
            return;
        };
        if conn.input_closed {
            conn.close_after_flush = true;
            return;
        }
        match conn.parser.eof_error() {
            Some(e) => conn.shed(Response::of_http_error(&e)),
            None => conn.input_closed = true,
        }
        conn.close_after_flush = true;
    }

    /// Dispatches every queued request (in connection-id order, then
    /// request order — deterministic) against the manager and
    /// serializes the responses into each connection's output buffer.
    /// Returns how many requests were dispatched.
    ///
    /// The driver calls this with the manager lock held; everything the
    /// engine does here is pure in-memory routing, so the lock is held
    /// only for the cheap part (cell execution happens on the worker
    /// pool, never here).
    pub fn dispatch(&mut self, mgr: &mut StudyManager, now: u64) -> usize {
        let mut dispatched = 0;
        for slot in &mut self.conns {
            let Some(conn) = slot.as_mut() else { continue };
            while let Some(item) = conn.pending.pop_front() {
                let (resp, close) = match item {
                    PendingItem::Request(req, decoded_at) => {
                        if self.cfg.record_latency {
                            self.latencies.push(now.saturating_sub(decoded_at));
                        }
                        if self.cfg.instrument {
                            let m = engine_metrics();
                            m.requests.inc();
                            m.dispatch_latency.observe(now.saturating_sub(decoded_at));
                        }
                        dispatched += 1;
                        conn.served += 1;
                        let close = req.close || conn.served >= self.cfg.max_requests_per_conn;
                        (daemon::handle(mgr, &req), close)
                    }
                    PendingItem::Terminal(resp) => (resp, true),
                };
                let keep = !close && !conn.close_after_flush;
                conn.out.extend_from_slice(&resp.to_wire(keep));
                conn.last_activity = now;
                if !keep {
                    conn.close_after_flush = true;
                    conn.input_closed = true;
                    // Anything still queued behind a close is dropped:
                    // the peer asked to end the conversation.
                    conn.pending.clear();
                    break;
                }
            }
        }
        dispatched
    }

    /// Advances time: stalled mid-frame connections past their request
    /// budget are shed with a `408`; idle keep-alive connections past
    /// the idle budget are closed silently.
    pub fn on_tick(&mut self, now: u64) {
        for slot in &mut self.conns {
            let Some(conn) = slot.as_mut() else { continue };
            if conn.input_closed {
                continue;
            }
            if let Some(started) = conn.request_started {
                if now.saturating_sub(started) > self.cfg.request_time_budget {
                    conn.shed(Response::error(
                        408,
                        "request did not complete within its time budget",
                    ));
                    if self.cfg.instrument {
                        engine_metrics().shed_408_timeout.inc();
                    }
                }
            } else if conn.pending.is_empty()
                && conn.out.is_empty()
                && now.saturating_sub(conn.last_activity) > self.cfg.idle_time_budget
            {
                conn.input_closed = true;
                conn.close_after_flush = true;
            }
        }
    }

    /// Bytes queued for the wire on `id`.
    pub fn pending_output(&self, id: usize) -> &[u8] {
        self.conns
            .get(id)
            .and_then(Option::as_ref)
            .map_or(&[], |c| &c.out)
    }

    /// Marks `n` output bytes as written (a partial non-blocking write
    /// consumes a prefix).
    pub fn consume_output(&mut self, id: usize, n: usize) {
        if let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) {
            conn.out.drain(..n.min(conn.out.len()));
        }
    }

    /// Takes the full output buffer of `id` (the simulator's read).
    pub fn take_output(&mut self, id: usize) -> Vec<u8> {
        self.conns
            .get_mut(id)
            .and_then(Option::as_mut)
            .map(|c| std::mem::take(&mut c.out))
            .unwrap_or_default()
    }

    /// Whether the driver should close the transport: the engine has
    /// decided to end the connection and everything owed to the peer
    /// has been handed over.
    pub fn wants_close(&self, id: usize) -> bool {
        self.conns
            .get(id)
            .and_then(Option::as_ref)
            .is_some_and(|c| c.close_after_flush && c.pending.is_empty() && c.out.is_empty())
    }

    /// Whether the connection accepts further input (false once an
    /// error was answered, a budget blew, or EOF arrived).
    pub fn accepts_input(&self, id: usize) -> bool {
        self.conns
            .get(id)
            .and_then(Option::as_ref)
            .is_some_and(|c| !c.input_closed)
    }

    /// Frees a connection slot after the driver closed the transport.
    pub fn disconnect(&mut self, id: usize) {
        if let Some(slot) = self.conns.get_mut(id) {
            if slot.take().is_some() {
                self.open -= 1;
                self.free.push(id);
            }
        }
    }

    /// Drains the recorded decode-to-dispatch latencies (clock units).
    pub fn take_latencies(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.latencies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{request_bytes_with, split_responses};
    use crate::tenant::TenantRegistry;

    fn tiny_cfg() -> EngineConfig {
        EngineConfig {
            max_connections: 2,
            max_pending: 3,
            max_requests_per_conn: 16,
            request_time_budget: 10,
            idle_time_budget: 100,
            conn_byte_budget: 4096,
            record_latency: true,
            instrument: true,
        }
    }

    fn drive(engine: &mut Engine, mgr: &mut StudyManager, id: usize, bytes: &[u8], now: u64) {
        engine.recv(id, bytes, now);
        engine.dispatch(mgr, now);
    }

    #[test]
    fn keep_alive_answers_many_requests_on_one_connection() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        let mut engine = Engine::new(tiny_cfg());
        let id = engine.connect(0);
        for t in 0..3u64 {
            drive(
                &mut engine,
                &mut mgr,
                id,
                &request_bytes_with("GET", "/healthz", "", true),
                t,
            );
        }
        let parts = split_responses(&engine.take_output(id)).unwrap();
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|(s, _)| *s == 200));
        assert!(!engine.wants_close(id), "keep-alive stays open");
    }

    #[test]
    fn pipelined_requests_answered_in_order_then_close_honored() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        let mut engine = Engine::new(tiny_cfg());
        let id = engine.connect(0);
        let mut bytes = request_bytes_with("GET", "/healthz", "", true);
        bytes.extend(request_bytes_with("GET", "/nope", "", true));
        bytes.extend(request_bytes_with("GET", "/healthz", "", false));
        drive(&mut engine, &mut mgr, id, &bytes, 1);
        let parts = split_responses(&engine.take_output(id)).unwrap();
        let statuses: Vec<u16> = parts.iter().map(|(s, _)| *s).collect();
        assert_eq!(statuses, vec![200, 404, 200]);
        assert!(engine.wants_close(id), "connection: close ends it");
    }

    #[test]
    fn malformed_frame_answers_valid_prefix_then_structured_error() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        let mut engine = Engine::new(tiny_cfg());
        let id = engine.connect(0);
        let mut bytes = request_bytes_with("GET", "/healthz", "", true);
        bytes.extend_from_slice(b"BROKEN FRAME\r\n\r\n");
        bytes.extend(request_bytes_with("GET", "/healthz", "", true));
        drive(&mut engine, &mut mgr, id, &bytes, 1);
        let parts = split_responses(&engine.take_output(id)).unwrap();
        assert_eq!(parts.len(), 2, "valid prefix + one error, suffix dropped");
        assert_eq!(parts[0].0, 200);
        assert_eq!(parts[1].0, 400);
        assert!(parts[1].1.contains("\"error\""));
        assert!(engine.wants_close(id));
    }

    #[test]
    fn connection_capacity_sheds_with_503() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        let mut engine = Engine::new(tiny_cfg());
        let a = engine.connect(0);
        let b = engine.connect(0);
        let c = engine.connect(0);
        engine.dispatch(&mut mgr, 0);
        assert!(!engine.wants_close(a) && !engine.wants_close(b));
        let parts = split_responses(&engine.take_output(c)).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0, 503);
        assert!(parts[0].1.contains("capacity"));
        assert!(engine.wants_close(c));
        assert!(
            engine.take_output(a).is_empty() && engine.take_output(b).is_empty(),
            "only the connection over capacity is shed"
        );

        // Reaping a slot frees capacity.
        engine.disconnect(c);
        engine.disconnect(a);
        let d = engine.connect(1);
        engine.dispatch(&mut mgr, 1);
        assert!(engine.take_output(d).is_empty(), "slot freed, no shed");
    }

    #[test]
    fn pipeline_depth_sheds_with_429() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        let mut engine = Engine::new(tiny_cfg());
        let id = engine.connect(0);
        let one = request_bytes_with("GET", "/healthz", "", true);
        let mut bytes = Vec::new();
        for _ in 0..5 {
            bytes.extend_from_slice(&one);
        }
        // No dispatch between frames: the queue must absorb all five.
        engine.recv(id, &bytes, 1);
        engine.dispatch(&mut mgr, 1);
        let parts = split_responses(&engine.take_output(id)).unwrap();
        assert_eq!(parts.len(), 4, "three served, then the 429");
        assert!(parts[..3].iter().all(|(s, _)| *s == 200));
        assert_eq!(parts[3].0, 429);
        assert!(engine.wants_close(id));
    }

    #[test]
    fn stalled_half_request_gets_408_after_budget() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        let mut engine = Engine::new(tiny_cfg());
        let id = engine.connect(0);
        engine.recv(id, b"POST /v1/studies HTTP/1.1\r\ncontent-le", 1);
        engine.dispatch(&mut mgr, 1);
        assert!(engine.take_output(id).is_empty(), "no frame yet");
        for now in 2..=11 {
            engine.on_tick(now);
        }
        engine.dispatch(&mut mgr, 11);
        assert!(engine.take_output(id).is_empty(), "budget not yet exceeded");
        assert!(!engine.wants_close(id));
        engine.on_tick(12);
        engine.dispatch(&mut mgr, 12);
        let parts = split_responses(&engine.take_output(id)).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0, 408);
        assert!(engine.wants_close(id));
    }

    #[test]
    fn idle_keep_alive_connection_closes_silently() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        let mut engine = Engine::new(tiny_cfg());
        let id = engine.connect(0);
        drive(
            &mut engine,
            &mut mgr,
            id,
            &request_bytes_with("GET", "/healthz", "", true),
            1,
        );
        let _ = engine.take_output(id);
        engine.on_tick(101);
        assert!(!engine.wants_close(id), "within idle budget");
        engine.on_tick(102);
        assert!(engine.wants_close(id), "past idle budget");
        assert!(engine.pending_output(id).is_empty(), "idle close is silent");
    }

    #[test]
    fn byte_budget_sheds_with_429() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        let mut engine = Engine::new(tiny_cfg());
        let id = engine.connect(0);
        let big = vec![b'x'; 5000];
        engine.recv(id, &big, 1);
        engine.dispatch(&mut mgr, 1);
        let parts = split_responses(&engine.take_output(id)).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0, 429);
        assert!(parts[0].1.contains("byte budget"));
    }

    #[test]
    fn eof_mid_frame_is_truncation_between_frames_is_clean() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        let mut engine = Engine::new(tiny_cfg());
        let a = engine.connect(0);
        engine.recv(a, b"GET /healthz HTTP/1.1\r\nhos", 1);
        engine.on_eof(a);
        engine.dispatch(&mut mgr, 1);
        let parts = split_responses(&engine.take_output(a)).unwrap();
        assert_eq!(parts[0].0, 400);
        assert!(parts[0].1.contains("mid-line"), "{}", parts[0].1);

        let b = engine.connect(0);
        drive(
            &mut engine,
            &mut mgr,
            b,
            &request_bytes_with("GET", "/healthz", "", true),
            1,
        );
        let _ = engine.take_output(b);
        engine.on_eof(b);
        assert!(engine.wants_close(b));
        assert!(engine.pending_output(b).is_empty(), "clean close is silent");
    }

    #[test]
    fn latencies_measure_decode_to_dispatch() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        let mut engine = Engine::new(tiny_cfg());
        let id = engine.connect(0);
        engine.recv(id, &request_bytes_with("GET", "/healthz", "", true), 3);
        engine.dispatch(&mut mgr, 7);
        assert_eq!(engine.take_latencies(), vec![4]);
        let parts = split_responses(&engine.take_output(id)).unwrap();
        assert_eq!(parts.len(), 1, "one request served");
        assert_eq!(parts[0].0, 200);
    }
}
