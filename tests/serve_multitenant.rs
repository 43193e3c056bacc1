//! Integration tests for the multi-tenant scheduler's determinism
//! contract: a fixed tenant mix on the sim clock schedules
//! bit-identically at any worker width, and a kill/restart preserves
//! the per-tenant usage meters byte-for-byte.
//!
//! Everything runs through the loopback [`SimServer`] with a configured
//! tenant table: requests travel as real wire bytes — bearer token and
//! all — through the daemon's parse→auth→route→serialize path, and
//! scheduling happens in deterministic ticks.

use tuna::serve::manager::USAGE_FILE;
use tuna::serve::sim::SimServer;
use tuna::serve::tenant::TenantRegistry;

/// An 8-cell study (1 workload x 1 arm x 8 runs). The daemon stamps
/// the submitting tenant onto the spec, so the same body serves both
/// tenants.
const JOB: &str = r#"{
  "name": "job",
  "seed": 5,
  "runs": 8,
  "rounds": 2,
  "workloads": ["tpcc"],
  "arms": [{"label": "Default", "method": "default"}]
}"#;

/// The golden deterministic schedule for alice (weight 3) vs bob
/// (weight 1) racing equal 8-cell studies: weighted fair share gives
/// alice 3 of every 4 grants while both compete, then bob drains the
/// remainder. Hand-derivable from the virtual-time rule (pick the
/// tenant minimizing scheduled/weight, ties to least recently
/// scheduled, then name) and locked in by `serve/multitenant` in the
/// perf gate.
const GOLDEN: [&str; 16] = [
    "alice", "bob", "alice", "alice", "bob", "alice", "alice", "alice", "bob", "alice", "alice",
    "bob", "bob", "bob", "bob", "bob",
];

fn registry() -> TenantRegistry {
    TenantRegistry::parse(
        r#"{"tenants": [
            {"name": "alice", "token": "alice-secret", "weight": 3},
            {"name": "bob", "token": "bob-secret", "weight": 1}
        ]}"#,
    )
    .unwrap()
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tuna-mt-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn submit_as(sim: &mut SimServer, token: &str) {
    let (status, body) = sim.request("POST", "/v1/studies", JOB, Some(token));
    assert!(
        status == 201 || status == 200,
        "submit replied {status}: {body}"
    );
}

/// Runs the two-tenant mix to completion and returns the tenant of
/// every grant in execution order plus each tenant's results document.
fn run_mix(workers: usize) -> (Vec<String>, String, String) {
    let mut sim = SimServer::with_tenants(None, workers, registry()).unwrap();
    submit_as(&mut sim, "alice-secret");
    submit_as(&mut sim, "bob-secret");
    let mut grants = Vec::new();
    while !sim.idle() {
        for (tenant, _, _) in sim.step() {
            grants.push(tenant);
        }
    }
    let results = |sim: &mut SimServer, token: &str| {
        let (status, body) = sim.request("GET", "/v1/studies/job/results", "", Some(token));
        assert_eq!(status, 200, "{body}");
        body
    };
    let alice = results(&mut sim, "alice-secret");
    let bob = results(&mut sim, "bob-secret");
    (grants, alice, bob)
}

/// The acceptance criterion: a fixed tenant mix on the sim clock
/// schedules bit-identically at 1 and 4 workers — the full grant
/// sequence (not just per-tenant counts) matches the golden schedule,
/// and every result byte agrees across widths.
#[test]
fn golden_weighted_schedule_is_identical_across_worker_widths() {
    let (serial_grants, serial_alice, serial_bob) = run_mix(1);
    assert_eq!(serial_grants, GOLDEN, "workers=1 diverged from golden");

    let (par_grants, par_alice, par_bob) = run_mix(4);
    assert_eq!(par_grants, GOLDEN, "workers=4 diverged from golden");

    assert_eq!(serial_alice, par_alice, "alice results differ by width");
    assert_eq!(serial_bob, par_bob, "bob results differ by width");
    // Same declaration, same seed: the namespaces isolate the studies
    // but the cells compute the same pure function.
    assert_eq!(serial_alice, serial_bob);
}

/// Kill/restart mid-run: the usage meter file survives byte-identically
/// through the restart (reload never rewrites it), idempotent
/// re-submission does not double-count studies, and the finished run's
/// meters are byte-identical to an uninterrupted run's.
#[test]
fn kill_restart_preserves_usage_counters_byte_identically() {
    // --- Uninterrupted reference. ------------------------------------
    let ref_dir = fresh_dir("usage-ref");
    let mut sim = SimServer::with_tenants(Some(ref_dir.clone()), 2, registry()).unwrap();
    submit_as(&mut sim, "alice-secret");
    submit_as(&mut sim, "bob-secret");
    sim.run_to_completion();
    drop(sim);
    let ref_usage = std::fs::read_to_string(ref_dir.join(USAGE_FILE)).unwrap();

    // --- Killed mid-run. ---------------------------------------------
    let dir = fresh_dir("usage-kill");
    let mut sim = SimServer::with_tenants(Some(dir.clone()), 2, registry()).unwrap();
    submit_as(&mut sim, "alice-secret");
    submit_as(&mut sim, "bob-secret");
    let mut done = 0;
    while done < 5 {
        done += sim.step().len();
    }
    assert!(done < 16, "the kill must land mid-run");
    drop(sim); // the kill

    let at_kill = std::fs::read_to_string(dir.join(USAGE_FILE)).unwrap();
    let mut sim = SimServer::with_tenants(Some(dir.clone()), 2, registry()).unwrap();
    assert_eq!(
        std::fs::read_to_string(dir.join(USAGE_FILE)).unwrap(),
        at_kill,
        "reload must not rewrite the usage file"
    );
    // Clients re-submit after a daemon restart; the idempotent path
    // must not charge a second study to either meter.
    submit_as(&mut sim, "alice-secret");
    submit_as(&mut sim, "bob-secret");
    assert_eq!(
        std::fs::read_to_string(dir.join(USAGE_FILE)).unwrap(),
        at_kill,
        "idempotent re-submission must not move the meters"
    );
    sim.run_to_completion();
    drop(sim);

    assert_eq!(
        std::fs::read_to_string(dir.join(USAGE_FILE)).unwrap(),
        ref_usage,
        "resumed run's meters differ from the uninterrupted run's"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Auth and namespacing over the wire: no token is a structured `401`,
/// a wrong token a `403`, tenants cannot see each other's studies, and
/// `GET /v1/tenants` reports weights and live meters.
#[test]
fn wire_auth_and_namespacing_against_a_configured_table() {
    let mut sim = SimServer::with_tenants(None, 1, registry()).unwrap();

    let (status, body) = sim.request("POST", "/v1/studies", JOB, None);
    assert_eq!(status, 401, "{body}");
    assert!(body.contains("\"reason\": \"missing-token\""), "{body}");

    let (status, body) = sim.request("POST", "/v1/studies", JOB, Some("wrong"));
    assert_eq!(status, 403, "{body}");
    assert!(body.contains("\"reason\": \"bad-token\""), "{body}");

    // Health stays unauthenticated — probes need no credentials.
    let (status, _) = sim.request("GET", "/healthz", "", None);
    assert_eq!(status, 200);

    submit_as(&mut sim, "alice-secret");
    let (status, body) = sim.request("GET", "/v1/studies/job", "", Some("bob-secret"));
    assert_eq!(status, 404, "bob must not see alice's study: {body}");

    sim.run_to_completion();
    let (status, body) = sim.request("GET", "/v1/tenants", "", Some("bob-secret"));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"name\": \"alice\""), "{body}");
    assert!(body.contains("\"weight\": 3"), "{body}");
    assert!(body.contains("\"cells\": 8"), "{body}");
}
