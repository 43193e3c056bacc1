//! Deterministic loopback mode: the whole daemon —
//! accept→read→parse→schedule→execute→respond — without sockets,
//! threads or wall-clock.
//!
//! [`SimServer`] holds the same [`StudyManager`] the real daemon locks
//! and the same connection [`Engine`] the real daemon drives — the
//! only things simulated are the transport (in-memory byte buffers
//! instead of sockets) and the clock (scheduler ticks instead of
//! milliseconds). Requests travel as real wire bytes through the exact
//! parse/route/serialize state machine `tunad` uses, including
//! keep-alive, pipelining and the budget/shed behavior.
//! [`SimServer::step`] models one scheduling quantum: advance the
//! clock, claim up to `workers` fair-share assignments, execute them
//! (serially, in assignment order — cells are pure functions, so this
//! is bit-identical to any interleaving), and record the results.
//! Dropping a `SimServer` between steps *is* the kill: whatever the
//! journal holds survives, and a new `SimServer` over the same data
//! directory resumes exactly there.

use std::path::PathBuf;

use crate::engine::{Engine, EngineConfig};
use crate::http::{self, HttpError, Response};
use crate::manager::StudyManager;
use crate::tenant::TenantRegistry;
use tuna_core::campaign::execute_cell;
use tuna_core::executor::ExecutionMode;

/// Deterministic wall-time charge per executed cell under the
/// simulator: virtual nanoseconds proportional to the rows produced, so
/// usage accounting is reproducible (and restart-stable) on the sim
/// clock.
pub const SIM_NS_PER_ROW: u64 = 1000;

/// The in-process daemon with deterministic listener, clock and worker
/// pool.
pub struct SimServer {
    mgr: StudyManager,
    engine: Engine,
    workers: usize,
    ticks: u64,
}

impl SimServer {
    /// A simulator with `workers` virtual workers over `registry`'s
    /// tenant table (pass [`TenantRegistry::loopback`] for the single
    /// default tenant), persistent under `data_dir` or fully in memory
    /// when `None`. Persisted studies are reloaded exactly like a
    /// restarted `tunad`. The engine runs [`EngineConfig::sim_default`]
    /// budgets; install other budgets with
    /// `*sim.engine_mut() = Engine::new(cfg)` before the first
    /// [`SimServer::connect`].
    ///
    /// # Errors
    ///
    /// Propagates [`StudyManager::new`] failures.
    pub fn with_tenants(
        data_dir: Option<PathBuf>,
        workers: usize,
        registry: TenantRegistry,
    ) -> Result<Self, String> {
        Ok(SimServer {
            mgr: StudyManager::new(data_dir, registry)?,
            engine: Engine::new(EngineConfig::sim_default()),
            workers: workers.max(1),
            ticks: 0,
        })
    }

    // --- Virtual listener: connection-level API. ---------------------

    /// Accepts a new virtual connection (may be shed with a `503` once
    /// the engine is at capacity — exactly like the real listener).
    pub fn connect(&mut self) -> usize {
        self.engine.connect(self.ticks)
    }

    /// Feeds bytes into a connection without dispatching — the "peer
    /// wrote to the socket" half, so tests can control when dispatch
    /// happens relative to the clock.
    pub fn feed(&mut self, conn: usize, bytes: &[u8]) {
        self.engine.recv(conn, bytes, self.ticks);
    }

    /// Dispatches every queued request against the manager (the "event
    /// loop ran" half). Returns how many requests were answered.
    pub fn dispatch(&mut self) -> usize {
        self.engine.dispatch(&mut self.mgr, self.ticks)
    }

    /// Feeds bytes and dispatches — the common case.
    pub fn send(&mut self, conn: usize, bytes: &[u8]) {
        self.feed(conn, bytes);
        self.dispatch();
    }

    /// Drains a connection's buffered response bytes.
    pub fn recv(&mut self, conn: usize) -> Vec<u8> {
        self.engine.take_output(conn)
    }

    /// Signals peer EOF on a connection.
    pub fn finish(&mut self, conn: usize) {
        self.engine.on_eof(conn);
        self.dispatch();
    }

    /// Whether the engine has decided to close this connection (all
    /// owed bytes already readable via [`SimServer::recv`]).
    pub fn wants_close(&self, conn: usize) -> bool {
        self.engine.wants_close(conn)
    }

    /// Advances the virtual clock by one tick *without* running the
    /// scheduler — models wall-time passing on an otherwise idle
    /// daemon, which is what trips time budgets (`408`, idle closes).
    pub fn tick(&mut self) {
        self.ticks += 1;
        self.engine.on_tick(self.ticks);
    }

    /// Direct engine access for assertions.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access (latency draining in the perf gate).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    // --- One-shot request helpers (the historical API). --------------

    /// Feeds raw request bytes through the full wire path on a fresh
    /// one-shot connection; returns raw response bytes.
    pub fn request_bytes(&mut self, raw: &[u8]) -> Vec<u8> {
        let conn = self.connect();
        self.send(conn, raw);
        self.engine.on_eof(conn);
        self.dispatch();
        let mut out = self.engine.take_output(conn);
        if out.is_empty() {
            // The frame never completed and EOF landed between requests
            // from the parser's point of view — the one-shot contract
            // still owes the peer an answer.
            out = Response::of_http_error(&HttpError::Truncated(
                "connection closed mid-request".into(),
            ))
            .to_bytes();
        }
        self.engine.disconnect(conn);
        out
    }

    /// Convenience request: builds the wire bytes (with a bearer
    /// `token` when given), runs them through
    /// [`SimServer::request_bytes`], and splits the response into
    /// `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        token: Option<&str>,
    ) -> (u16, String) {
        let raw = self.request_bytes(&http::request_bytes_auth(method, path, body, false, token));
        http::parse_response(&raw).unwrap_or_else(|e| (500, Response::error(500, &e).body))
    }

    // --- Virtual worker pool. ----------------------------------------

    /// One scheduling quantum: advances the clock, claims up to
    /// `workers` assignments under weighted fair share, executes them
    /// all, records the results (charging [`SIM_NS_PER_ROW`] virtual
    /// wall-ns per produced row to the owning tenant's meter). Returns
    /// the `(tenant, study, cell)` triples that completed this tick.
    pub fn step(&mut self) -> Vec<(String, String, usize)> {
        self.tick();
        let mut claimed = Vec::new();
        for _ in 0..self.workers {
            match self.mgr.next_assignment() {
                Some(a) => claimed.push(a),
                None => break,
            }
        }
        let mut done = Vec::with_capacity(claimed.len());
        for a in claimed {
            let (record, payload) = execute_cell(&a.campaign, a.cell, ExecutionMode::Serial);
            let wall_ns = SIM_NS_PER_ROW * record.rows.len() as u64;
            let trace = tuna_core::campaign::cell_trace(&a.campaign, a.cell, &payload);
            self.mgr
                .complete_traced(&a.tenant, &a.study, record, wall_ns, Some(trace))
                .expect("sim completion of a just-claimed cell");
            done.push((a.tenant, a.study, a.cell));
        }
        done
    }

    /// Steps until no study has pending work. Returns total cells
    /// executed.
    pub fn run_to_completion(&mut self) -> usize {
        let mut total = 0;
        while self.mgr.has_pending() {
            total += self.step().len();
        }
        total
    }

    /// Whether the scheduler has nothing left to hand out.
    pub fn idle(&self) -> bool {
        !self.mgr.has_pending()
    }

    /// Virtual clock: elapsed ticks.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Virtual worker-pool width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Direct manager access for assertions.
    pub fn manager(&self) -> &StudyManager {
        &self.mgr
    }

    /// Mutable manager access (synthetic completions in the perf gate).
    pub fn manager_mut(&mut self) -> &mut StudyManager {
        &mut self.mgr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{request_bytes_with, split_responses};

    fn spec_body(name: &str, runs: usize) -> String {
        format!(
            r#"{{"name": "{name}", "seed": 9, "runs": {runs}, "rounds": 2,
                "workloads": ["tpcc"],
                "arms": [{{"label": "Default", "method": "default"}}]}}"#
        )
    }

    #[test]
    fn submit_step_results_loop() {
        let mut sim = SimServer::with_tenants(None, 2, TenantRegistry::loopback()).unwrap();
        let (status, _) = sim.request("POST", "/v1/studies", &spec_body("a", 3), None);
        assert_eq!(status, 201);
        assert!(!sim.idle());
        let done = sim.step();
        assert_eq!(done.len(), 2, "two workers claim two cells");
        sim.run_to_completion();
        let (status, body) = sim.request("GET", "/v1/studies/a", "", None);
        assert_eq!(status, 200);
        assert!(body.contains("\"state\": \"done\""), "{body}");
        let (_, results) = sim.request("GET", "/v1/studies/a/results", "", None);
        assert!(results.contains("\"completed\": 3"), "{results}");
    }

    #[test]
    fn two_studies_share_the_pool_per_tick() {
        let mut sim = SimServer::with_tenants(None, 4, TenantRegistry::loopback()).unwrap();
        sim.request("POST", "/v1/studies", &spec_body("a", 6), None);
        sim.request("POST", "/v1/studies", &spec_body("b", 6), None);
        let done = sim.step();
        let a_count = done.iter().filter(|(_, s, _)| s == "a").count();
        let b_count = done.iter().filter(|(_, s, _)| s == "b").count();
        assert_eq!((a_count, b_count), (2, 2), "fair share within one tick");
    }

    #[test]
    fn worker_width_changes_pacing_not_results() {
        let run = |workers: usize| -> String {
            let mut sim =
                SimServer::with_tenants(None, workers, TenantRegistry::loopback()).unwrap();
            sim.request("POST", "/v1/studies", &spec_body("x", 4), None);
            sim.run_to_completion();
            sim.request("GET", "/v1/studies/x/results", "", None).1
        };
        let serial = run(1);
        assert_eq!(serial, run(4));
        assert_eq!(serial, run(7));
    }

    #[test]
    fn keep_alive_connection_spans_scheduler_ticks() {
        let mut sim = SimServer::with_tenants(None, 1, TenantRegistry::loopback()).unwrap();
        let conn = sim.connect();
        sim.send(
            conn,
            &request_bytes_with("POST", "/v1/studies", &spec_body("k", 2), true),
        );
        let submit = split_responses(&sim.recv(conn)).unwrap();
        assert_eq!(submit.len(), 1);
        assert_eq!(submit[0].0, 201);

        sim.run_to_completion();

        // Same connection, later tick: still open, still answering.
        sim.send(conn, &request_bytes_with("GET", "/v1/studies/k", "", true));
        let status = split_responses(&sim.recv(conn)).unwrap();
        assert_eq!(status[0].0, 200);
        assert!(status[0].1.contains("\"state\": \"done\""));
        assert!(!sim.wants_close(conn));
    }
}
