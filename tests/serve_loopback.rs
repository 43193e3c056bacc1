//! Integration tests for the serve subsystem's determinism contract:
//! results fetched from a daemon that was killed and restarted
//! mid-study are byte-identical to an uninterrupted daemon run *and*
//! to the equivalent batch campaign — at 1 and 4 workers.
//!
//! Everything runs through the loopback [`SimServer`]: requests travel
//! as real wire bytes through the daemon's parse→route→serialize path,
//! scheduling happens in deterministic ticks, and dropping the server
//! between ticks is the kill.

use tuna::core::campaign::{CampaignRunner, ResultStore};
use tuna::serve::api::StudySpec;
use tuna::serve::sim::SimServer;
use tuna::serve::tenant::TenantRegistry;

const ALPHA: &str = r#"{
  "name": "alpha",
  "seed": 11,
  "runs": 2,
  "rounds": 2,
  "workloads": ["tpcc"],
  "arms": [
    {"label": "TUNA", "method": "tuna"},
    {"label": "Default", "method": "default"}
  ]
}"#;

const BETA: &str = r#"{
  "name": "beta",
  "seed": 12,
  "runs": 2,
  "rounds": 2,
  "workloads": ["ycsb-c"],
  "arms": [
    {"label": "Traditional", "method": "traditional"},
    {"label": "Default", "method": "default"}
  ]
}"#;

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tuna-serve-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn submit(sim: &mut SimServer, spec: &str) {
    let (status, body) = sim.request("POST", "/v1/studies", spec, None);
    assert!(
        status == 201 || status == 200,
        "submit replied {status}: {body}"
    );
}

fn results(sim: &mut SimServer, name: &str) -> String {
    let (status, body) = sim.request("GET", &format!("/v1/studies/{name}/results"), "", None);
    assert_eq!(status, 200, "{body}");
    body
}

fn state(sim: &mut SimServer, name: &str) -> String {
    let (status, body) = sim.request("GET", &format!("/v1/studies/{name}"), "", None);
    assert_eq!(status, 200, "{body}");
    tuna::stats::json::parse(&body)
        .unwrap()
        .get("state")
        .and_then(|s| s.as_str().map(String::from))
        .expect("status has a state")
}

/// The batch equivalent of a spec: the same campaign through
/// `CampaignRunner` with a file-backed store, returning the finalized
/// `.json` mirror's bytes.
fn batch_results(spec_text: &str, dir: &std::path::Path, workers: usize) -> String {
    let spec = StudySpec::parse(spec_text).expect("valid spec");
    let campaign = spec.to_campaign();
    let path = dir.join(format!("{}.csv", spec.name));
    let mut store = ResultStore::open(&path, &campaign).expect("open batch store");
    let runner = if workers > 1 {
        CampaignRunner::with_workers(workers)
    } else {
        CampaignRunner::serial()
    };
    let result = runner.run(&campaign, &mut store);
    assert!(result.complete);
    std::fs::read_to_string(path.with_extension("json")).expect("finalized mirror")
}

#[test]
fn kill_restart_resume_is_byte_identical_across_workers_and_batch() {
    // One batch reference per study (serial); the 4-worker batch runner
    // must agree with it before it anchors the daemon comparisons.
    let batch_dir = fresh_dir("batch");
    let batch_alpha = batch_results(ALPHA, &batch_dir.join("serial"), 1);
    let batch_beta = batch_results(BETA, &batch_dir.join("serial"), 1);
    assert_eq!(batch_alpha, batch_results(ALPHA, &batch_dir.join("par"), 4));
    assert_eq!(batch_beta, batch_results(BETA, &batch_dir.join("par"), 4));

    for workers in [1usize, 4] {
        // --- Uninterrupted daemon run. -------------------------------
        let ref_dir = fresh_dir(&format!("ref-w{workers}"));
        let mut sim =
            SimServer::with_tenants(Some(ref_dir.clone()), workers, TenantRegistry::loopback())
                .unwrap();
        submit(&mut sim, ALPHA);
        submit(&mut sim, BETA);
        // Both studies execute concurrently: after one tick at 4
        // workers each study holds half the pool.
        let first_tick = sim.step();
        if workers == 4 {
            let alpha_cells = first_tick.iter().filter(|(_, s, _)| s == "alpha").count();
            let beta_cells = first_tick.iter().filter(|(_, s, _)| s == "beta").count();
            assert_eq!(
                (alpha_cells, beta_cells),
                (2, 2),
                "fair share splits the pool"
            );
        }
        sim.run_to_completion();
        assert_eq!(state(&mut sim, "alpha"), "done");
        assert_eq!(state(&mut sim, "beta"), "done");
        let ref_alpha = results(&mut sim, "alpha");
        let ref_beta = results(&mut sim, "beta");
        drop(sim);

        // --- Killed mid-study, restarted, resumed. -------------------
        let kill_dir = fresh_dir(&format!("kill-w{workers}"));
        let mut sim =
            SimServer::with_tenants(Some(kill_dir.clone()), workers, TenantRegistry::loopback())
                .unwrap();
        submit(&mut sim, ALPHA);
        submit(&mut sim, BETA);
        let mut done_before_kill = 0;
        while done_before_kill < 3 {
            done_before_kill += sim.step().len();
        }
        assert!(done_before_kill < 8, "the kill must land mid-study");
        assert!(
            state(&mut sim, "alpha") == "running" || state(&mut sim, "beta") == "running",
            "at least one study must still be running at the kill"
        );
        drop(sim); // the kill

        let mut sim =
            SimServer::with_tenants(Some(kill_dir.clone()), workers, TenantRegistry::loopback())
                .unwrap();
        // The restarted daemon reloaded both studies from disk with
        // their pre-kill progress intact.
        let reloaded: usize = sim
            .manager()
            .studies()
            .map(tuna::serve::manager::Study::completed)
            .sum();
        assert_eq!(reloaded, done_before_kill, "progress survived the kill");
        // A client re-submitting the same declarations is idempotent.
        submit(&mut sim, ALPHA);
        submit(&mut sim, BETA);
        let executed_after = sim.run_to_completion();
        assert_eq!(
            done_before_kill + executed_after,
            8,
            "resume executes only the missing cells"
        );

        // --- The contract: all three sources agree byte-for-byte. ----
        let resumed_alpha = results(&mut sim, "alpha");
        let resumed_beta = results(&mut sim, "beta");
        assert_eq!(
            resumed_alpha, ref_alpha,
            "workers={workers}: resumed != uninterrupted (alpha)"
        );
        assert_eq!(
            resumed_beta, ref_beta,
            "workers={workers}: resumed != uninterrupted (beta)"
        );
        assert_eq!(
            resumed_alpha, batch_alpha,
            "workers={workers}: daemon != batch campaign (alpha)"
        );
        assert_eq!(
            resumed_beta, batch_beta,
            "workers={workers}: daemon != batch campaign (beta)"
        );
        // The finalized on-disk mirror is the same document the wire
        // serves.
        let disk = std::fs::read_to_string(kill_dir.join("alpha.json")).unwrap();
        assert_eq!(disk, resumed_alpha);

        let _ = std::fs::remove_dir_all(&ref_dir);
        let _ = std::fs::remove_dir_all(&kill_dir);
    }
    let _ = std::fs::remove_dir_all(&batch_dir);
}

fn trace(sim: &mut SimServer, name: &str) -> String {
    let (status, body) = sim.request("GET", &format!("/v1/studies/{name}/trace"), "", None);
    assert_eq!(status, 200, "{body}");
    body
}

/// The convergence-trace endpoint inherits the results contract: the
/// document a killed-and-restarted daemon serves is byte-identical to
/// an uninterrupted run's, at 1 and 4 workers — and identical *across*
/// worker counts, because cells are sorted and no clock values appear.
/// The trace is assembled from the `<study>.trace` sidecar (never the
/// row store), so the sidecar's reload path is what this test pins.
#[test]
fn trace_endpoint_is_byte_identical_across_kill_restart_and_workers() {
    let mut reference: Option<(String, String)> = None;
    for workers in [1usize, 4] {
        // --- Uninterrupted daemon run. -------------------------------
        let ref_dir = fresh_dir(&format!("trace-ref-w{workers}"));
        let mut sim =
            SimServer::with_tenants(Some(ref_dir.clone()), workers, TenantRegistry::loopback())
                .unwrap();
        submit(&mut sim, ALPHA);
        submit(&mut sim, BETA);
        sim.run_to_completion();
        let ref_alpha = trace(&mut sim, "alpha");
        let ref_beta = trace(&mut sim, "beta");
        // The TUNA arm tunes: its trace must carry a non-empty series.
        assert!(ref_alpha.contains("\"label\":\"TUNA\""), "{ref_alpha}");
        assert!(ref_alpha.contains("\"n_cells\":4"), "{ref_alpha}");
        drop(sim);

        // --- Killed mid-study, restarted, resumed. -------------------
        let kill_dir = fresh_dir(&format!("trace-kill-w{workers}"));
        let mut sim =
            SimServer::with_tenants(Some(kill_dir.clone()), workers, TenantRegistry::loopback())
                .unwrap();
        submit(&mut sim, ALPHA);
        submit(&mut sim, BETA);
        let mut done_before_kill = 0;
        while done_before_kill < 3 {
            done_before_kill += sim.step().len();
        }
        assert!(done_before_kill < 8, "the kill must land mid-study");
        drop(sim); // the kill

        let mut sim =
            SimServer::with_tenants(Some(kill_dir.clone()), workers, TenantRegistry::loopback())
                .unwrap();
        submit(&mut sim, ALPHA);
        submit(&mut sim, BETA);
        sim.run_to_completion();
        assert_eq!(
            trace(&mut sim, "alpha"),
            ref_alpha,
            "workers={workers}: resumed trace != uninterrupted (alpha)"
        );
        assert_eq!(
            trace(&mut sim, "beta"),
            ref_beta,
            "workers={workers}: resumed trace != uninterrupted (beta)"
        );
        // The sidecar is the on-disk source of the document.
        assert!(
            kill_dir.join("alpha.trace").exists(),
            "trace sidecar missing"
        );

        // --- Identical across worker counts too. ---------------------
        match &reference {
            None => reference = Some((ref_alpha, ref_beta)),
            Some((a, b)) => {
                assert_eq!(&ref_alpha, a, "trace differs across worker counts");
                assert_eq!(&ref_beta, b, "trace differs across worker counts");
            }
        }

        let _ = std::fs::remove_dir_all(&ref_dir);
        let _ = std::fs::remove_dir_all(&kill_dir);
    }
}

/// A slowloris peer — half a request, then silence — must not pin its
/// connection slot forever: once the per-connection time budget lapses
/// the daemon answers a structured `408` and closes the slot, while
/// other clients keep being served throughout.
#[test]
fn stalled_half_request_is_shed_with_408() {
    let mut sim = SimServer::with_tenants(None, 1, TenantRegistry::loopback()).unwrap();
    let loris = sim.connect();
    sim.send(
        loris,
        b"POST /v1/studies HTTP/1.1\r\ncontent-length: 999\r\n\r\n{\"na",
    );
    assert!(sim.recv(loris).is_empty(), "no complete frame, no reply");

    // A healthy client is unaffected while the slowloris stalls.
    let budget = tuna::serve::engine::EngineConfig::sim_default().request_time_budget;
    for _ in 0..=budget {
        sim.tick();
        let ok = sim.connect();
        sim.send(ok, &tuna::serve::http::request_bytes("GET", "/healthz", ""));
        let (status, _) = tuna::serve::http::parse_response(&sim.recv(ok)).expect("healthz reply");
        assert_eq!(status, 200);
    }
    sim.dispatch();

    let raw = sim.recv(loris);
    let replies = tuna::serve::http::split_responses(&raw).unwrap();
    assert_eq!(replies.len(), 1);
    let (status, body) = &replies[0];
    assert_eq!(*status, 408, "{body}");
    assert!(body.contains("time budget"), "{body}");
    assert!(sim.wants_close(loris), "the stalled slot is reclaimed");
}

/// Two clients racing identical submissions: attach-or-report-existing
/// is atomic under the manager, so exactly one gets `201 Created`, the
/// other the idempotent `200`, and exactly one store lands on disk.
#[test]
fn racing_identical_submissions_create_exactly_once() {
    let dir = fresh_dir("race");
    let mut sim =
        SimServer::with_tenants(Some(dir.clone()), 1, TenantRegistry::loopback()).unwrap();
    let first = sim.connect();
    let second = sim.connect();
    // Both requests are fully buffered before either dispatches — the
    // tightest interleaving the wire allows.
    sim.feed(
        first,
        &tuna::serve::http::request_bytes("POST", "/v1/studies", ALPHA),
    );
    sim.feed(
        second,
        &tuna::serve::http::request_bytes("POST", "/v1/studies", ALPHA),
    );
    sim.dispatch();
    let reply = |raw: Vec<u8>| tuna::serve::http::parse_response(&raw).expect("reply").0;
    let statuses = (reply(sim.recv(first)), reply(sim.recv(second)));
    assert_eq!(statuses, (201, 200), "one creation, one idempotent attach");

    // One spec, one journal — not two studies' worth of files.
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("alpha"))
        .collect();
    assert!(files.contains(&"alpha.spec.json".to_string()), "{files:?}");
    assert_eq!(
        files.iter().filter(|n| n.ends_with(".spec.json")).count(),
        1,
        "{files:?}"
    );
    sim.run_to_completion();
    let body = results(&mut sim, "alpha");
    assert!(body.contains("\"completed\": 4"), "{body}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon killed mid-append leaves a torn journal tail; the restarted
/// daemon must repair it (drop the torn cell, keep the rest) and still
/// finish byte-identical to an uninterrupted run.
#[test]
fn torn_journal_tail_is_repaired_on_restart() {
    let ref_dir = fresh_dir("torn-ref");
    let mut sim =
        SimServer::with_tenants(Some(ref_dir.clone()), 1, TenantRegistry::loopback()).unwrap();
    submit(&mut sim, ALPHA);
    sim.run_to_completion();
    let reference = results(&mut sim, "alpha");
    drop(sim);

    let dir = fresh_dir("torn-kill");
    let mut sim =
        SimServer::with_tenants(Some(dir.clone()), 1, TenantRegistry::loopback()).unwrap();
    submit(&mut sim, ALPHA);
    sim.step();
    sim.step();
    drop(sim); // the kill...

    // ...landed mid-append: tear the journal's final line.
    let journal = dir.join("alpha.csv");
    let text = std::fs::read_to_string(&journal).unwrap();
    std::fs::write(&journal, &text.as_bytes()[..text.len() - 9]).unwrap();

    let mut sim =
        SimServer::with_tenants(Some(dir.clone()), 1, TenantRegistry::loopback()).unwrap();
    let reloaded: usize = sim
        .manager()
        .studies()
        .map(tuna::serve::manager::Study::completed)
        .sum();
    assert_eq!(reloaded, 1, "torn cell dropped, intact cell kept");
    submit(&mut sim, ALPHA); // idempotent re-attach, as a client would
    let executed = sim.run_to_completion();
    assert_eq!(executed, 3, "the torn cell and the remaining cells");
    assert_eq!(
        results(&mut sim, "alpha"),
        reference,
        "repaired resume is byte-identical to uninterrupted"
    );
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_daemon_refuses_conflicting_resubmission() {
    let dir = fresh_dir("conflict");
    let mut sim =
        SimServer::with_tenants(Some(dir.clone()), 1, TenantRegistry::loopback()).unwrap();
    submit(&mut sim, ALPHA);
    drop(sim);

    let mut sim =
        SimServer::with_tenants(Some(dir.clone()), 1, TenantRegistry::loopback()).unwrap();
    let conflicting = ALPHA.replace("\"seed\": 11", "\"seed\": 99");
    let (status, body) = sim.request("POST", "/v1/studies", &conflicting, None);
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("different declaration"), "{body}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_study_stops_scheduling_but_serves_partial_results() {
    let mut sim = SimServer::with_tenants(None, 1, TenantRegistry::loopback()).unwrap();
    submit(&mut sim, ALPHA);
    sim.step();
    let (status, _) = sim.request("POST", "/v1/studies/alpha/cancel", "", None);
    assert_eq!(status, 200);
    assert_eq!(state(&mut sim, "alpha"), "cancelled");
    assert!(sim.idle(), "cancel drops pending cells");
    let body = results(&mut sim, "alpha");
    assert!(body.contains("\"completed\": 1"), "{body}");
}
