//! Tuning-as-a-service: the TUNA §6 tune-then-deploy loop behind a
//! long-lived daemon instead of one-shot batch binaries.
//!
//! The crate has six layers, leaf first:
//!
//! - [`http`]: a hand-rolled, hardened HTTP/1.1 subset (keep-alive and
//!   pipelining, `Content-Length` framing, explicit limits). The parser
//!   is incremental and sans-IO, so sockets, in-memory buffers and fuzz
//!   inputs share one byte-level code path.
//! - [`api`]: the JSON study schema — a validated [`api::StudySpec`]
//!   maps 1:1 onto a [`tuna_core::campaign::Campaign`], and its
//!   canonical serialization is the durable identity the daemon
//!   persists and resumes from.
//! - [`tenant`]: the multi-tenant layer — the tenant table (bearer
//!   tokens, fair-share weights, admission budgets) and the per-tenant
//!   usage meter. Loopback daemons run a single implicit default
//!   tenant with no auth; non-loopback binds require a configured
//!   table.
//! - [`manager`]: the multi-tenant, multi-study scheduler. Weighted
//!   fair share across tenants (with an `interactive` lane preempting
//!   batch work at cell boundaries), then fair-share capacity
//!   accounting within a tenant, hands campaign *cells* to workers so
//!   many concurrent studies share the trial pool; every study streams
//!   through a checksummed [`tuna_core::campaign::ResultStore`], which
//!   is what makes a killed daemon resume byte-identically.
//! - [`engine`]: the per-connection state machine (read-header →
//!   read-body → dispatch → write-response) with keep-alive,
//!   pipelining, per-connection byte/time budgets, and bounded
//!   connection/pipeline queues that shed load with structured
//!   `408`/`429`/`503` responses.
//! - [`daemon`] / [`sim`]: request routing shared by the real `tunad`
//!   binary (a single-threaded readiness loop over non-blocking
//!   sockets, plus worker threads for cell execution) and the
//!   deterministic loopback [`sim::SimServer`] (virtual listener, clock
//!   and worker pool) that integration tests and the perf gate drive —
//!   both driving the *same* [`engine::Engine`].
//!
//! # Determinism contract
//!
//! A study's results depend only on its declaration: cells are pure
//! functions of `(campaign digest, cell index)`, the scheduler decides
//! only *when* a cell runs, and the results document is serialized from
//! the cell-ordered store. Therefore the document fetched from a
//! daemon that was killed and restarted mid-study is byte-identical to
//! an uninterrupted run *and* to the `.json` mirror of the equivalent
//! batch campaign — at any worker count. The loopback tests and the CI
//! smoke job pin all three equalities.

pub mod api;
pub mod daemon;
pub mod engine;
pub mod http;
pub mod manager;
pub mod sim;
pub mod tenant;

#[cfg(test)]
mod robustness {
    //! Fuzz-style hardening tests: the daemon loop must answer every
    //! malformed, truncated or corrupted frame with a structured JSON
    //! error — and never panic.

    use crate::daemon::handle_bytes;
    use crate::http::{parse_response, request_bytes};
    use crate::manager::StudyManager;
    use crate::tenant::TenantRegistry;
    use tuna_stats::json;
    use tuna_stats::rng::Rng;

    /// Feeds raw bytes to a fresh manager; asserts the reply is valid
    /// HTTP with a JSON body, and that an error status carries the
    /// structured error object.
    fn assert_structured(raw: &[u8]) {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        let reply = handle_bytes(&mut mgr, raw);
        let (status, body) = parse_response(&reply).expect("reply is well-formed HTTP");
        let v = json::parse(&body).expect("reply body is valid JSON");
        if status >= 400 {
            let err = v.get("error").expect("error replies carry an error object");
            assert_eq!(
                err.get("status").and_then(json::Value::as_f64),
                Some(status as f64)
            );
            assert!(err
                .get("message")
                .and_then(json::Value::as_str)
                .is_some_and(|m| !m.is_empty()));
        }
    }

    #[test]
    fn hand_written_malformed_frames() {
        let cases: &[&[u8]] = &[
            b"",
            b"\r\n",
            b"GET\r\n\r\n",
            b"GET /healthz\r\n\r\n",
            b"GET /healthz SPDY/9\r\n\r\n",
            b"GET healthz HTTP/1.1\r\n\r\n",
            b"G\xffT /x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header line\r\n\r\n",
            b"POST /v1/studies HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
            b"POST /v1/studies HTTP/1.1\r\ncontent-length: -5\r\n\r\n",
            b"POST /v1/studies HTTP/1.1\r\ncontent-length: 10\r\ncontent-length: 20\r\n\r\n",
            b"POST /v1/studies HTTP/1.1\r\ncontent-length: 999999999999999999999\r\n\r\n",
            b"POST /v1/studies HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
            // Truncated frames: body shorter than declared.
            b"POST /v1/studies HTTP/1.1\r\ncontent-length: 400\r\n\r\n{\"name\":",
            b"POST /v1/studies HTTP/1.1\r\ncontent-length: 4\r\n\r\n",
            // Header block cut off before the blank line.
            b"GET /healthz HTTP/1.1\r\nhost: x",
            // Valid framing, hostile bodies.
            b"POST /v1/studies HTTP/1.1\r\ncontent-length: 9\r\n\r\nnot json!",
            b"POST /v1/studies HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}",
            b"POST /v1/studies HTTP/1.1\r\ncontent-length: 4\r\n\r\nnull",
            b"POST /v1/studies HTTP/1.1\r\ncontent-length: 8\r\n\r\n[1,2,3,]",
            // Body bytes that are not UTF-8.
            b"POST /v1/studies HTTP/1.1\r\ncontent-length: 3\r\n\r\n\xff\xfe\xfd",
        ];
        for raw in cases {
            assert_structured(raw);
        }
    }

    #[test]
    fn deep_nesting_and_huge_lines_are_bounded() {
        let deep = format!("{}{}", "[".repeat(4096), "]".repeat(4096));
        assert_structured(&request_bytes("POST", "/v1/studies", &deep));
        let long_path = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100_000));
        assert_structured(long_path.as_bytes());
        let many_headers = format!("GET /healthz HTTP/1.1\r\n{}\r\n", "x-h: y\r\n".repeat(500));
        assert_structured(many_headers.as_bytes());
    }

    #[test]
    fn truncations_of_a_valid_request_never_panic() {
        let valid = request_bytes(
            "POST",
            "/v1/studies",
            r#"{"name": "t", "runs": 1, "rounds": 2, "workloads": ["tpcc"],
               "arms": [{"label": "Default", "method": "default"}]}"#,
        );
        // Every prefix of a valid request is either truncated or (once
        // the body start fits the declared length... it never does) bad.
        for cut in 0..valid.len() {
            assert_structured(&valid[..cut]);
        }
    }

    #[test]
    fn random_byte_corruptions_never_panic() {
        let valid = request_bytes(
            "POST",
            "/v1/studies",
            r#"{"name": "t", "runs": 1, "rounds": 2, "workloads": ["tpcc"],
               "arms": [{"label": "Default", "method": "default"}]}"#,
        );
        let mut rng = Rng::seed_from(0xF422);
        for _ in 0..300 {
            let mut corrupted = valid.clone();
            let flips = 1 + (rng.next_u64() % 4) as usize;
            for _ in 0..flips {
                let at = (rng.next_u64() as usize) % corrupted.len();
                corrupted[at] ^= (rng.next_u64() % 255) as u8 + 1;
            }
            assert_structured(&corrupted);
        }
    }

    #[test]
    fn random_garbage_never_panics() {
        let mut rng = Rng::seed_from(0x6A4B);
        for _ in 0..200 {
            let len = (rng.next_u64() % 600) as usize;
            let garbage: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
            assert_structured(&garbage);
        }
    }

    /// Pipelined variant of the frame fuzzing: N valid keep-alive
    /// requests with a malformed frame spliced in at every position.
    /// The engine must answer the valid prefix in order, answer the
    /// malformed frame with a structured error, drop the unanswerable
    /// suffix, and close — never panic — at 1 and 4 workers.
    #[test]
    fn pipelined_malformed_frame_at_every_position() {
        use crate::http::request_bytes_with;
        use crate::sim::SimServer;

        // Frames whose head is malformed outright, so they fail the
        // same way at any pipeline position (a *truncated* frame, by
        // contrast, would swallow the next frame's bytes as body — that
        // is correct framing behavior, not an error case).
        let malformed: &[&[u8]] = &[
            b"BROKEN\r\n\r\n",
            b"GET /healthz SPDY/9\r\n\r\n",
            b"GET healthz HTTP/1.1\r\n\r\n",
            b"POST /v1/studies HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
            b"POST /v1/studies HTTP/1.1\r\ncontent-length: 10\r\ncontent-length: 20\r\n\r\n",
            b"POST /v1/studies HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        ];
        let spec = r#"{"name": "p", "seed": 5, "runs": 1, "rounds": 2,
                       "workloads": ["tpcc"],
                       "arms": [{"label": "Default", "method": "default"}]}"#;
        let valid: Vec<Vec<u8>> = vec![
            request_bytes_with("GET", "/healthz", "", true),
            request_bytes_with("POST", "/v1/studies", spec, true),
            request_bytes_with("GET", "/v1/studies/p", "", true),
            request_bytes_with("GET", "/v1/studies", "", true),
        ];
        for workers in [1usize, 4] {
            for bad in malformed {
                for pos in 0..=valid.len() {
                    // A fresh server per splice keeps the expected
                    // statuses independent of submission history.
                    let mut sim =
                        SimServer::with_tenants(None, workers, TenantRegistry::loopback()).unwrap();
                    let conn = sim.connect();
                    let mut bytes = Vec::new();
                    for frame in &valid[..pos] {
                        bytes.extend_from_slice(frame);
                    }
                    bytes.extend_from_slice(bad);
                    for frame in &valid[pos..] {
                        bytes.extend_from_slice(frame);
                    }
                    sim.send(conn, &bytes);
                    let raw = sim.recv(conn);
                    let replies = crate::http::split_responses(&raw)
                        .expect("every reply is well-formed HTTP");
                    assert_eq!(
                        replies.len(),
                        pos + 1,
                        "valid prefix + one error (workers={workers}, pos={pos})"
                    );
                    for (status, body) in &replies[..pos] {
                        assert!(
                            *status == 200 || *status == 201,
                            "prefix reply {status}: {body}"
                        );
                        json::parse(body).expect("prefix reply body is valid JSON");
                    }
                    let (status, body) = replies.last().expect("error reply");
                    assert_eq!(*status, 400, "{body}");
                    let err = json::parse(body)
                        .expect("error body is valid JSON")
                        .get("error")
                        .cloned()
                        .expect("structured error object");
                    assert!(err
                        .get("message")
                        .and_then(json::Value::as_str)
                        .is_some_and(|m| !m.is_empty()));
                    assert!(sim.wants_close(conn), "connection closes after the error");
                }
            }
        }
    }
}
