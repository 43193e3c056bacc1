//! `serve_fleet`: a two-tenant `SimServer`. Two keep-alive connections
//! (one per bearer-token tenant, weights 3:1) submit 3,000 one-cell
//! Default studies and list them, then a closed loop drains the fleet:
//! scheduler steps on 2 virtual workers, one results fetch per finished
//! study, and a status poll per client at `tuna-ctl watch`'s cadence.
//! Each client lists again after the drain. The measured fleets run in
//! memory; the traced run also drains the fleet over an on-disk data dir,
//! drops the server and reopens it, and drains a stress fleet with far
//! more reads. The scheduler and persistence dominate; no surrogate runs.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use tuna_core::campaign::{cell_trace, execute_cell};
use tuna_core::executor::ExecutionMode;
use tuna_serve::http;
use tuna_serve::manager::StudyPhase;
use tuna_serve::sim::{SimServer, SIM_NS_PER_ROW};
use tuna_serve::tenant::TenantRegistry;

use crate::trace::{self, nanos_since, now, span};
use crate::{dir_bytes, fastest_setup, median, passes, Args, Outcome, WorkDir};

/// Studies submitted up front, alternating between the two tenants.
const STUDIES: usize = 3000;

/// Virtual workers (cells claimed per scheduler step).
const WORKERS: usize = 2;

/// The reads a client sends beside its submits and results fetches.
#[derive(Clone, Copy)]
struct Mix {
    /// Scheduler steps between two status polls by one client.
    poll_every: usize,
    /// Scheduler steps between two listings by one client, if any
    /// besides the one after submitting and the one after the drain.
    list_every: Option<usize>,
}

/// The measured mix. `tuna-ctl watch` polls a study's status every
/// 250 ms; one scheduler step of this fleet takes about 1 ms of wall time
/// on the 2-core benchmark machine (printed as `ms_per_step`), so a
/// watching client polls once per 250 steps. Counted in steps, not read
/// from the clock, so every run sends the same requests. `tuna-ctl list`
/// is a one-shot command with no cadence; each client lists once after
/// submitting and once after the drain, as a batch script would.
const WATCH_MIX: Mix = Mix {
    poll_every: 250,
    list_every: None,
};

/// A read-heavy mix, run only in the traced run to show the profile
/// does not hinge on the mix: each client polls every step and lists
/// every 250 steps, 250 times `WATCH_MIX`'s polls.
const STRESS_MIX: Mix = Mix {
    poll_every: 1,
    list_every: Some(250),
};

/// Nominal seconds per in-memory fleet on the 2-core benchmark machine.
const PASS_S: f64 = 1.8;

const REGISTRY: &str = "{\"tenants\": [\
     {\"name\": \"alice\", \"token\": \"alice-token\", \"weight\": 3}, \
     {\"name\": \"bob\", \"token\": \"bob-token\", \"weight\": 1}]}";

const TENANTS: [(&str, &str); 2] = [("alice", "alice-token"), ("bob", "bob-token")];

const WORKLOADS: [&str; 3] = ["tpcc", "ycsb-c", "wikipedia-top500"];

fn registry() -> TenantRegistry {
    TenantRegistry::parse(REGISTRY).expect("the benchmark tenant table is valid")
}

fn study_body(seed: u64, i: usize) -> String {
    format!(
        "{{\"name\": \"s{i}\", \"seed\": {}, \"runs\": 1, \"rounds\": 2, \
         \"workloads\": [\"{}\"], \"arms\": [{{\"label\": \"Default\", \"method\": \"default\"}}]}}",
        seed * 1_000_000 + i as u64,
        WORKLOADS[i % WORKLOADS.len()]
    )
}

/// Request kinds, with the span their dispatch is recorded under.
#[derive(Clone, Copy)]
enum Kind {
    Submit,
    Status,
    Results,
    List,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Submit => "serve.dispatch.submit",
            Kind::Status => "serve.dispatch.status",
            Kind::Results => "serve.dispatch.results",
            Kind::List => "serve.dispatch.list",
        }
    }
}

/// One closed-loop client on its own keep-alive connection.
#[derive(Clone, Copy)]
struct Client {
    conn: usize,
    token: &'static str,
}

/// Everything one fleet pass measured and produced.
#[derive(Default)]
struct Pass {
    /// Send-to-readable time of every request, in nanoseconds.
    latencies: Vec<u64>,
    /// Submit of the first study to results of the last, in seconds.
    fleet_s: f64,
    /// Scheduler steps that drained the fleet.
    steps: usize,
    restart_s: f64,
    /// Results document of every study, fetched when it finished.
    results: BTreeMap<String, String>,
    /// The same documents, fetched again after the reopen.
    reopened: BTreeMap<String, String>,
    persist_bytes: u64,
    open_s: f64,
}

struct Fleet<'a> {
    sim: SimServer,
    clients: [Client; 2],
    traced: bool,
    out: &'a mut Outcome,
    pass: Pass,
}

impl Fleet<'_> {
    /// Client `c` sends one request and waits for its reply; an
    /// unexpected status counts as a failed operation. When the server
    /// ends the keep-alive connection (its per-connection request
    /// budget), the client reconnects, as `tuna-ctl` does. A request of
    /// no `kind` (the health probe after a restart) is never traced.
    fn request(
        &mut self,
        c: usize,
        kind: Option<Kind>,
        method: &str,
        path: &str,
        body: &str,
        expect: u16,
    ) -> Option<String> {
        let Client { conn, token } = self.clients[c];
        let raw = http::request_bytes_auth(method, path, body, true, Some(token));
        self.out.attempted += 1;
        let t = now();
        if let (true, Some(kind)) = (self.traced, kind) {
            {
                let _s = span("serve.engine.recv");
                self.sim.feed(conn, &raw);
            }
            let _s = span(kind.span());
            self.sim.dispatch();
        } else {
            self.sim.feed(conn, &raw);
            self.sim.dispatch();
        }
        let reply = self.sim.recv(conn);
        self.pass.latencies.push(nanos_since(t));
        if self.sim.wants_close(conn) {
            self.sim.engine_mut().disconnect(conn);
            self.clients[c].conn = self.sim.connect();
        }
        match http::split_responses(&reply) {
            Ok(mut replies) if replies.len() == 1 && replies[0].0 == expect => {
                Some(replies.remove(0).1)
            }
            _ => {
                self.out.failed += 1;
                None
            }
        }
    }

    /// Each client lists every study of the fleet.
    fn list_all(&mut self) {
        for c in 0..self.clients.len() {
            self.request(c, Some(Kind::List), "GET", "/v1/studies", "", 200);
        }
    }

    fn has_pending(&self) -> bool {
        if self.traced {
            let _s = span("serve.manager.has_pending");
            self.sim.manager().has_pending()
        } else {
            self.sim.manager().has_pending()
        }
    }

    /// `SimServer::step`, reproduced from outside with spans.
    fn traced_step(&mut self) -> Vec<(String, String, usize)> {
        self.sim.tick();
        let mut claimed = Vec::new();
        for _ in 0..WORKERS {
            let next = {
                let _s = span("serve.manager.next_assignment");
                self.sim.manager_mut().next_assignment()
            };
            match next {
                Some(a) => claimed.push(a),
                None => break,
            }
        }
        let mut done = Vec::with_capacity(claimed.len());
        for a in claimed {
            let (record, trace) = {
                let _s = span("core.campaign.cell");
                let (record, payload) = execute_cell(&a.campaign, a.cell, ExecutionMode::Serial);
                let trace = cell_trace(&a.campaign, a.cell, &payload);
                (record, trace)
            };
            let wall_ns = SIM_NS_PER_ROW * record.rows.len() as u64;
            let completed = {
                let _s = span("serve.manager.complete");
                self.sim.manager_mut().complete_traced(
                    &a.tenant,
                    &a.study,
                    record,
                    wall_ns,
                    Some(trace),
                )
            };
            if completed.is_err() {
                self.out.failed += 1;
            }
            done.push((a.tenant, a.study, a.cell));
        }
        done
    }
}

/// Opens a server (in memory, or over `dir`) with two connected clients.
fn open(dir: Option<&Path>) -> Result<(SimServer, [Client; 2]), String> {
    let mut sim = SimServer::with_tenants(dir.map(Path::to_path_buf), WORKERS, registry())?;
    let clients = TENANTS.map(|(_, token)| Client {
        conn: sim.connect(),
        token,
    });
    Ok((sim, clients))
}

fn setup() -> Result<f64, String> {
    let t = now();
    let (sim, clients) = open(None)?;
    std::hint::black_box((sim.workers(), clients.len()));
    Ok(nanos_since(t) as f64 / 1e9)
}

/// One fleet: submit and drain; when on disk, then drop the server,
/// reopen the data dir and fetch every results document again.
fn fleet(
    out: &mut Outcome,
    seed: u64,
    mix: Mix,
    dir: Option<&Path>,
    traced: bool,
) -> Result<Pass, String> {
    let (sim, clients) = open(dir)?;
    let mut f = Fleet {
        sim,
        clients,
        traced,
        out,
        pass: Pass::default(),
    };
    let root = traced.then(|| span("bench.serve_fleet"));
    let t = now();
    for i in 0..STUDIES {
        let body = study_body(seed, i);
        f.request(i % 2, Some(Kind::Submit), "POST", "/v1/studies", &body, 201);
    }
    f.list_all();

    let mut step = 0usize;
    let mut poll = [0usize; 2];
    while f.has_pending() {
        let done = if traced {
            f.traced_step()
        } else {
            f.sim.step()
        };
        f.out.attempted += done.len() as u64;
        for (tenant, study, _) in done {
            let c = usize::from(tenant != TENANTS[0].0);
            let path = format!("/v1/studies/{study}/results");
            if let Some(doc) = f.request(c, Some(Kind::Results), "GET", &path, "", 200) {
                f.pass.results.insert(study, doc);
            }
        }
        step += 1;
        if step % mix.poll_every == 0 {
            for (c, next) in poll.iter_mut().enumerate() {
                // Each client polls its own studies round-robin.
                let path = format!("/v1/studies/s{}", 2 * *next + c);
                *next = (*next + 1) % (STUDIES / 2);
                f.request(c, Some(Kind::Status), "GET", &path, "", 200);
            }
        }
        if mix.list_every.is_some_and(|n| step % n == 0) {
            f.list_all();
        }
    }
    f.list_all();
    f.pass.fleet_s = nanos_since(t) as f64 / 1e9;
    f.pass.steps = step;
    drop(root);

    let all_done = f.sim.manager().studies().count() == STUDIES
        && f.sim
            .manager()
            .studies()
            .all(|s| s.phase() == StudyPhase::Done);
    f.out.check(all_done, "not every study ended done");
    f.out.check(
        f.pass.results.len() == STUDIES,
        format!("{} of {STUDIES} results fetched", f.pass.results.len()),
    );
    let Some(dir) = dir else {
        return Ok(f.pass);
    };
    f.pass.persist_bytes = dir_bytes(dir);

    // Restart: drop the server, reopen the data dir, wait for /healthz.
    let Fleet {
        sim, out, mut pass, ..
    } = f;
    drop(sim);
    let t = now();
    let (sim, clients) = {
        let _s = traced.then(|| span("serve.manager.open"));
        open(Some(dir))?
    };
    pass.open_s = nanos_since(t) as f64 / 1e9;
    let mut f = Fleet {
        sim,
        clients,
        traced: false,
        out,
        pass,
    };
    f.request(0, None, "GET", "/healthz", "", 200);
    f.pass.restart_s = nanos_since(t) as f64 / 1e9;
    // Results after the reopen, outside the measured fleet.
    let latencies = f.pass.latencies.len();
    for i in 0..STUDIES {
        let path = format!("/v1/studies/s{i}/results");
        if let Some(doc) = f.request(i % 2, Some(Kind::Results), "GET", &path, "", 200) {
            f.pass.reopened.insert(format!("s{i}"), doc);
        }
    }
    f.pass.latencies.truncate(latencies);
    f.out.check(
        f.pass.reopened == f.pass.results,
        "results documents differ after the reopen",
    );
    Ok(f.pass)
}

/// A fleet pass whose panic fails the pass instead of the process.
fn guarded_fleet(
    out: &mut Outcome,
    seed: u64,
    mix: Mix,
    dir: Option<&Path>,
    traced: bool,
) -> Option<Pass> {
    let pass = catch_unwind(AssertUnwindSafe(|| fleet(out, seed, mix, dir, traced)));
    match pass {
        Ok(Ok(p)) => Some(p),
        Ok(Err(e)) => {
            out.check(false, format!("fleet pass failed: {e}"));
            None
        }
        Err(_) => {
            out.failed += 1;
            None
        }
    }
}

fn ns_quantile_ms(ns: &[u64], q: f64) -> f64 {
    let ms: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
    trace::quantile(&ms, q)
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    // Measured fleets run on the in-memory manager: on a shared disk the
    // per-completion file rewrites make on-disk fleet time swing by 2x
    // between runs (see README), which no bound could hold.
    let mut first: Option<Pass> = None;
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..passes(args, PASS_S) {
        setups.push(fastest_setup(setup)?);
        let Some(pass) = guarded_fleet(&mut out, args.seed, WATCH_MIX, None, false) else {
            break;
        };
        rates.push(STUDIES as f64 / pass.fleet_s);
        p50s.push(ns_quantile_ms(&pass.latencies, 0.5));
        p99s.push(ns_quantile_ms(&pass.latencies, 0.99));
        match &first {
            None => first = Some(pass),
            Some(f) => out.check(
                pass.results == f.results,
                "fleet passes disagree on a results document",
            ),
        }
    }
    out.set(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
    );
    let Some(first) = first else {
        out.check(false, "no fleet pass completed");
        return Ok(out);
    };
    // The fleet is memory-bound, and other tenants of the machine slow
    // whole passes, within a run and across runs (1,190 to 2,210
    // studies/s measured for the same work). Interference only ever
    // slows, so the fastest pass is the steadiest estimate of the
    // program's own speed; the median is printed beside it.
    let best = rates.iter().copied().fold(0.0, f64::max);
    out.set("throughput_per_s", best);
    out.note("studies_per_s", best, "1/s");
    out.note("studies_per_s_median", median(&rates), "1/s");
    out.note("request_p50_ms", median(&p50s), "ms");
    out.note("request_p99_ms", median(&p99s), "ms");
    out.note("fleet_passes", rates.len() as f64, "count");
    // Every fleet takes the same steps; time them in the fastest.
    out.note(
        "ms_per_step",
        STUDIES as f64 * 1e3 / best / first.steps.max(1) as f64,
        "ms",
    );

    if args.trace {
        let untraced_s = first.fleet_s;
        let reference = first.results.clone();
        trace::take_spans();
        if let Some(pass) = guarded_fleet(&mut out, args.seed, WATCH_MIX, None, true) {
            out.check(
                pass.results == reference,
                "traced fleet results differ from the untraced fleet",
            );
            traced_metrics(&mut out, &pass, untraced_s);
        }
        // The same fleet over an on-disk data dir, traced on its own,
        // then the restart.
        let dir = work.sub("fleet-disk");
        trace::take_spans();
        if let Some(pass) = guarded_fleet(&mut out, args.seed, WATCH_MIX, Some(&dir), true) {
            out.check(
                pass.results == reference,
                "on-disk fleet results differ from the in-memory fleet",
            );
            disk_metrics(&mut out, &pass);
        }
        // The read-heavy fleet, traced on its own.
        trace::take_spans();
        if let Some(pass) = guarded_fleet(&mut out, args.seed, STRESS_MIX, None, true) {
            out.check(
                pass.results == reference,
                "stress fleet results differ from the measured fleet",
            );
            let layers = trace::layers(&trace::take_spans());
            let share = next_assignment_profile(&mut out, &layers, "stress fleet");
            out.set("serve.manager.next_assignment.share_of_stress_fleet", share);
            // The read path's percentiles: the watch fleet polls a dozen
            // times, the stress fleet thousands.
            let get = |name: &str| layers.get(name).cloned().unwrap_or_default();
            out.set(
                "serve.dispatch.status.p99_us",
                get("serve.dispatch.status").quantile_s(0.99) * 1e6,
            );
            out.set(
                "serve.dispatch.list.p99_ms",
                get("serve.dispatch.list").quantile_s(0.99) * 1e3,
            );
        }
    }
    out.note(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    Ok(out)
}

/// Persistence layers and the restart, from the on-disk fleet.
fn disk_metrics(out: &mut Outcome, pass: &Pass) {
    let layers = trace::layers(&trace::take_spans());
    let complete = layers
        .get("serve.manager.complete")
        .cloned()
        .unwrap_or_default();
    out.set("serve.persist.complete.busy_s", complete.busy_s());
    out.set(
        "serve.persist.complete.p99_us",
        complete.quantile_s(0.99) * 1e6,
    );
    out.set("serve.persist.bytes", pass.persist_bytes as f64);
    out.set("serve.manager.open_s", pass.open_s);
    out.note("disk_studies_per_s", STUDIES as f64 / pass.fleet_s, "1/s");
    out.note("restart_s", pass.restart_s, "s");
}

fn traced_metrics(out: &mut Outcome, pass: &Pass, untraced_s: f64) {
    let spans = trace::take_spans();
    let layers = trace::layers(&spans);
    let get = |name: &str| layers.get(name).cloned().unwrap_or_default();
    out.set(
        "serve.engine.recv.busy_s",
        get("serve.engine.recv").busy_s(),
    );
    for (metric, name) in [
        ("serve.dispatch.submit.p99_us", "serve.dispatch.submit"),
        ("serve.dispatch.results.p99_us", "serve.dispatch.results"),
    ] {
        out.set(metric, get(name).quantile_s(0.99) * 1e6);
    }
    let next = get("serve.manager.next_assignment");
    out.set("serve.manager.next_assignment.calls", next.calls as f64);
    out.set("serve.manager.next_assignment.busy_s", next.busy_s());
    out.set(
        "serve.manager.next_assignment.p50_us",
        next.quantile_s(0.5) * 1e6,
    );
    out.set(
        "serve.manager.next_assignment.p99_us",
        next.quantile_s(0.99) * 1e6,
    );
    out.set(
        "serve.manager.has_pending.busy_s",
        get("serve.manager.has_pending").busy_s(),
    );
    let complete = get("serve.manager.complete");
    out.set("serve.manager.complete.busy_s", complete.busy_s());
    out.set(
        "serve.manager.complete.p99_us",
        complete.quantile_s(0.99) * 1e6,
    );
    let cell = get("core.campaign.cell");
    out.set("core.campaign.cell.calls", cell.calls as f64);
    out.set("core.campaign.cell.busy_s", cell.busy_s());
    out.set("core.campaign.cell.p50_ms", cell.quantile_s(0.5) * 1e3);
    out.set("core.campaign.cell.p99_ms", cell.quantile_s(0.99) * 1e3);

    let share = next_assignment_profile(out, &layers, "fleet");
    out.set("serve.manager.next_assignment.share_of_fleet", share);

    let traced_s = pass.fleet_s;
    out.set("trace.traced_s", traced_s);
    out.set("trace.untraced_s", untraced_s);
    out.set("trace.overhead_s", traced_s - untraced_s);
}

/// Self-checks of one traced fleet: one thread opens spans, so the self
/// times inside the fleet's root span sum to at most its wall; and the
/// scheduler grant is the largest layer (the ROADMAP's profile finding).
/// Returns `next_assignment`'s share of the fleet's wall.
fn next_assignment_profile(
    out: &mut Outcome,
    layers: &BTreeMap<&'static str, trace::Layer>,
    fleet: &str,
) -> f64 {
    let root = layers.get("bench.serve_fleet").cloned().unwrap_or_default();
    trace::check_self_sum(out, layers.values(), root.total_ns);
    let mut ranked: Vec<(&str, f64)> = Vec::new();
    for (name, layer) in layers {
        let s = layer.self_s();
        out.check(s >= 0.0, format!("layer {name} has negative self time {s}"));
        if !name.starts_with("bench.") {
            ranked.push((name, s));
        }
    }
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let largest = ranked.first().map_or("none", |(n, _)| *n);
    out.notes
        .push(format!("largest_self_time_layer ({fleet}) = {largest}"));
    out.check(
        largest == "serve.manager.next_assignment",
        format!(
            "largest self-time layer of the {fleet} is {largest}, \
             expected serve.manager.next_assignment"
        ),
    );
    let next = layers
        .get("serve.manager.next_assignment")
        .map_or(0.0, trace::Layer::self_s);
    next / root.busy_s()
}
