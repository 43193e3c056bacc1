//! Request routing — everything `tunad` and the loopback simulator
//! have in common.
//!
//! # Endpoints
//!
//! | Method | Path                         | Reply |
//! |--------|------------------------------|-------|
//! | GET    | `/healthz`                   | `{"ok": true, "studies": N}` (never requires auth) |
//! | GET    | `/metrics`                   | Prometheus text exposition (never requires auth) |
//! | POST   | `/v1/studies`                | accepted study status (201), idempotent on identical re-submit (200) |
//! | GET    | `/v1/studies`                | `{"studies": [status, ...]}` — the caller's tenant only |
//! | GET    | `/v1/studies/<name>`         | study status |
//! | GET    | `/v1/studies/<name>/results` | the study's canonical results document (partial while running) |
//! | GET    | `/v1/studies/<name>/trace`   | per-cell convergence trace (best-cost-so-far series per arm) |
//! | POST   | `/v1/studies/<name>/cancel`  | status after cancelling |
//! | GET    | `/v1/tenants`                | every tenant's weight, budgets and usage meter |
//!
//! # Authentication
//!
//! Every route except `/healthz` authenticates first. Against a
//! loopback registry (no `--tenants` table) every request resolves to
//! the default tenant and tokens are ignored — the pre-tenant behavior,
//! unchanged. Against a configured table, requests must carry
//! `authorization: Bearer <token>`: missing token → `401
//! missing-token`, unknown token → `403 bad-token`. Study routes are
//! namespaced to the authenticated tenant: listing shows only its
//! studies, and `<name>` lookups cannot reach another tenant's study
//! (they 404, indistinguishable from "no such study").
//!
//! Every error — framing, JSON, auth, admission, validation, routing —
//! is a structured JSON body (`{"error": {"status": S, "message":
//! "..."}}`, plus a machine-readable `"reason"` slug for auth and
//! admission refusals); the daemon loop never panics on client input.
//!
//! Connection-level behavior (keep-alive, pipelining, budgets, load
//! shedding) lives in [`crate::engine`]; this module is the pure
//! request→response function the engine dispatches through.

use crate::api::StudySpec;
use crate::http::{parse_request_bytes, Request, Response};
use crate::manager::{Refusal, Study, StudyManager};

/// Routes one parsed request against the manager.
pub fn handle(mgr: &mut StudyManager, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    // Health stays unauthenticated: probes and load balancers carry no
    // tenant tokens, and the reply leaks only a global count.
    if let ("GET", ["healthz"]) = (req.method.as_str(), segments.as_slice()) {
        return Response::json(
            200,
            format!("{{\"ok\": true, \"studies\": {}}}\n", mgr.studies().count()),
        );
    }
    // Metrics stay unauthenticated for the same reason: Prometheus
    // scrapers carry no tenant tokens. The exposition labels tenants
    // (fair-share lag gauges) but carries no study payloads or costs;
    // operators who consider tenant names sensitive should firewall the
    // port, as they would for any exporter.
    if let ("GET", ["metrics"]) = (req.method.as_str(), segments.as_slice()) {
        return Response::text(200, mgr.metrics_text());
    }
    let tenant = match mgr.authenticate(req.bearer.as_deref()) {
        Ok(t) => t,
        Err(r) => return refusal_response(&r),
    };
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["v1", "studies"]) => match StudySpec::parse(&req.body) {
            Err(e) => Response::error(400, &e),
            // Attach-or-report-existing is a single manager call under
            // whatever lock the caller holds: two racing identical
            // submissions cannot both observe "absent", so exactly one
            // reply is a 201 and the rest are idempotent 200s.
            Ok(mut spec) => {
                // A spec may declare its tenant, but only the one the
                // token proves.
                if let Some(declared) = spec.tenant.as_deref() {
                    if declared != tenant {
                        return Response::refusal(
                            403,
                            "tenant-mismatch",
                            &format!(
                                "spec declares tenant '{declared}' but the token \
                                 authenticates '{tenant}'"
                            ),
                        );
                    }
                }
                spec.tenant = Some(tenant.clone());
                match mgr.submit(spec) {
                    Ok((study, created)) => status_response(if created { 201 } else { 200 }, study),
                    Err(r) => refusal_response(&r),
                }
            }
        },
        ("GET", ["v1", "studies"]) => {
            let statuses: Vec<String> = mgr.studies_of(&tenant).map(Study::status_json).collect();
            Response::json(200, format!("{{\"studies\": [{}]}}\n", statuses.join(", ")))
        }
        ("GET", ["v1", "tenants"]) => Response::json(200, mgr.tenants_json()),
        ("GET", ["v1", "studies", name]) => match mgr.get(&tenant, name) {
            Some(study) => status_response(200, study),
            None => unknown_study(name),
        },
        ("GET", ["v1", "studies", name, "results"]) => match mgr.results_json(&tenant, name) {
            Some(doc) => Response::json(200, doc),
            None => unknown_study(name),
        },
        ("GET", ["v1", "studies", name, "trace"]) => match mgr.trace_json(&tenant, name) {
            Some(doc) => Response::json(200, doc),
            None => unknown_study(name),
        },
        ("POST", ["v1", "studies", name, "cancel"]) => match mgr.cancel(&tenant, name) {
            Ok(study) => status_response(200, study),
            Err(_) => unknown_study(name),
        },
        ("GET" | "POST", _) => Response::error(404, &format!("no route for {}", req.path)),
        (method, _) => Response::error(405, &format!("method {method} not allowed")),
    }
}

fn refusal_response(r: &Refusal) -> Response {
    Response::refusal(r.status, r.reason, &r.message)
}

fn status_response(status: u16, study: &Study) -> Response {
    Response::json(status, format!("{}\n", study.status_json()))
}

fn unknown_study(name: &str) -> Response {
    // The name is echoed through the JSON quoter, so a hostile path
    // segment cannot break the error document's structure.
    Response::error(404, &format!("unknown study '{name}'"))
}

/// Routes one complete request frame: parse → route, with framing
/// errors becoming structured JSON error responses. The one-shot
/// (single request, `connection: close`) counterpart of the engine's
/// streaming path — both sit on the same [`crate::http::RequestParser`]
/// byte-level code.
pub fn route_bytes(mgr: &mut StudyManager, raw: &[u8]) -> Response {
    match parse_request_bytes(raw) {
        Ok(req) => handle(mgr, &req),
        Err(e) => Response::of_http_error(&e),
    }
}

/// Convenience used by the fuzz tests and the perf gate: feed raw
/// request bytes through the full parse→route→serialize path and return
/// raw response bytes.
pub fn handle_bytes(mgr: &mut StudyManager, raw: &[u8]) -> Vec<u8> {
    route_bytes(mgr, raw).to_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{request_bytes, request_bytes_auth};
    use crate::tenant::TenantRegistry;

    fn spec_body(name: &str) -> String {
        format!(
            r#"{{"name": "{name}", "seed": 3, "runs": 1, "rounds": 2,
                "workloads": ["tpcc"],
                "arms": [{{"label": "Default", "method": "default"}}]}}"#
        )
    }

    fn call(mgr: &mut StudyManager, method: &str, path: &str, body: &str) -> (u16, String) {
        let raw = handle_bytes(mgr, &request_bytes(method, path, body));
        crate::http::parse_response(&raw).unwrap()
    }

    fn call_as(
        mgr: &mut StudyManager,
        method: &str,
        path: &str,
        body: &str,
        token: Option<&str>,
    ) -> (u16, String) {
        let raw = handle_bytes(mgr, &request_bytes_auth(method, path, body, false, token));
        crate::http::parse_response(&raw).unwrap()
    }

    fn authed_manager() -> StudyManager {
        StudyManager::new(
            None,
            TenantRegistry::parse(
                r#"{"tenants": [
                    {"name": "alice", "token": "alice-secret", "weight": 3},
                    {"name": "bob", "token": "bob-secret"}
                ]}"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn submit_status_results_cancel_flow() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        let (status, body) = call(&mut mgr, "POST", "/v1/studies", &spec_body("s1"));
        assert_eq!(status, 201, "{body}");
        assert!(body.contains("\"state\": \"running\""), "{body}");

        // Idempotent re-submit.
        let (status, _) = call(&mut mgr, "POST", "/v1/studies", &spec_body("s1"));
        assert_eq!(status, 200);

        let (status, body) = call(&mut mgr, "GET", "/v1/studies/s1", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"cells\": 1"), "{body}");

        let (status, body) = call(&mut mgr, "GET", "/v1/studies", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"s1\""), "{body}");

        let (status, body) = call(&mut mgr, "GET", "/v1/studies/s1/results", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"completed\": 0"), "{body}");

        let (status, body) = call(&mut mgr, "POST", "/v1/studies/s1/cancel", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"state\": \"cancelled\""), "{body}");
    }

    #[test]
    fn routing_errors_are_structured() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        let (status, body) = call(&mut mgr, "GET", "/v1/studies/nope", "");
        assert_eq!(status, 404);
        assert!(body.contains("\"error\""), "{body}");

        let (status, _) = call(&mut mgr, "GET", "/v1/frobnicate", "");
        assert_eq!(status, 404);

        let (status, _) = call(&mut mgr, "DELETE", "/v1/studies/s1", "");
        assert_eq!(status, 405);

        let (status, body) = call(&mut mgr, "POST", "/v1/studies", "{\"broken\"");
        assert_eq!(status, 400);
        assert!(body.contains("invalid JSON"), "{body}");
    }

    #[test]
    fn healthz_counts_studies() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        let (_, body) = call(&mut mgr, "GET", "/healthz", "");
        assert!(body.contains("\"studies\": 0"), "{body}");
        call(&mut mgr, "POST", "/v1/studies", &spec_body("a"));
        let (_, body) = call(&mut mgr, "GET", "/healthz", "");
        assert!(body.contains("\"studies\": 1"), "{body}");
    }

    #[test]
    fn metrics_endpoint_is_unauthenticated_text() {
        let mut mgr = authed_manager();
        // No token required, unlike every /v1 route.
        let raw = handle_bytes(&mut mgr, &request_bytes("GET", "/metrics", ""));
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("content-type: text/plain"), "{text}");
        assert!(text.contains("# TYPE tuna_studies gauge"), "{text}");
    }

    #[test]
    fn trace_endpoint_serves_convergence_document() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        call(&mut mgr, "POST", "/v1/studies", &spec_body("s1"));
        // Run the study's single cell through the manager.
        let a = mgr.next_assignment().unwrap();
        let (record, summary) = tuna_core::campaign::execute_cell(
            &a.campaign,
            a.cell,
            tuna_core::executor::ExecutionMode::Serial,
        );
        let trace = tuna_core::campaign::cell_trace(&a.campaign, a.cell, &summary);
        mgr.complete_traced(&a.tenant, &a.study, record, 0, Some(trace))
            .unwrap();
        let (status, body) = call(&mut mgr, "GET", "/v1/studies/s1/trace", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"study\":\"s1\""), "{body}");
        assert!(body.contains("\"n_cells\":1"), "{body}");
        assert!(body.contains("\"cell\":0"), "{body}");
        // Unknown studies 404 like every other study route.
        let (status, _) = call(&mut mgr, "GET", "/v1/studies/nope/trace", "");
        assert_eq!(status, 404);
    }

    #[test]
    fn auth_gates_every_route_but_healthz() {
        let mut mgr = authed_manager();
        // No token: 401 with the structured reason slug.
        let (status, body) = call(&mut mgr, "POST", "/v1/studies", &spec_body("s"));
        assert_eq!(status, 401, "{body}");
        assert!(body.contains("\"reason\": \"missing-token\""), "{body}");
        // Wrong token: 403.
        let (status, body) = call_as(&mut mgr, "GET", "/v1/studies", "", Some("nope"));
        assert_eq!(status, 403, "{body}");
        assert!(body.contains("\"reason\": \"bad-token\""), "{body}");
        // Health needs none.
        let (status, _) = call(&mut mgr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        // A good token submits.
        let (status, body) = call_as(
            &mut mgr,
            "POST",
            "/v1/studies",
            &spec_body("s"),
            Some("alice-secret"),
        );
        assert_eq!(status, 201, "{body}");
        assert!(body.contains("\"tenant\": \"alice\""), "{body}");
    }

    #[test]
    fn tenants_are_namespaced_on_the_wire() {
        let mut mgr = authed_manager();
        let alice = Some("alice-secret");
        let bob = Some("bob-secret");
        call_as(&mut mgr, "POST", "/v1/studies", &spec_body("job"), alice);
        // Bob's listing is empty and alice's study 404s for him.
        let (_, body) = call_as(&mut mgr, "GET", "/v1/studies", "", bob);
        assert_eq!(body, "{\"studies\": []}\n");
        let (status, _) = call_as(&mut mgr, "GET", "/v1/studies/job", "", bob);
        assert_eq!(status, 404);
        let (status, _) = call_as(&mut mgr, "POST", "/v1/studies/job/cancel", "", bob);
        assert_eq!(status, 404);
        // Bob can reuse the name; declaring someone else's tenant is refused.
        let (status, _) = call_as(&mut mgr, "POST", "/v1/studies", &spec_body("job"), bob);
        assert_eq!(status, 201);
        let mismatched =
            spec_body("other").replace("{\"name\"", "{\"tenant\": \"alice\", \"name\"");
        let (status, body) = call_as(&mut mgr, "POST", "/v1/studies", &mismatched, bob);
        assert_eq!(status, 403, "{body}");
        assert!(body.contains("\"reason\": \"tenant-mismatch\""), "{body}");
    }

    #[test]
    fn tenants_endpoint_reports_weights_and_usage() {
        let mut mgr = authed_manager();
        call_as(
            &mut mgr,
            "POST",
            "/v1/studies",
            &spec_body("job"),
            Some("alice-secret"),
        );
        let (status, body) = call_as(&mut mgr, "GET", "/v1/tenants", "", Some("bob-secret"));
        assert_eq!(status, 200);
        assert!(
            body.contains("\"name\": \"alice\", \"weight\": 3, \"running\": 1"),
            "{body}"
        );
        assert!(body.contains("\"studies\": 1"), "{body}");
        assert!(
            body.contains("\"name\": \"bob\", \"weight\": 1, \"running\": 0"),
            "{body}"
        );
    }
}
