//! `tunad` — the tuning-as-a-service daemon.
//!
//! ```text
//! tunad [--addr 127.0.0.1:4917] [--data DIR] [--workers N] [--tenants FILE]
//! ```
//!
//! Accepts studies over the HTTP/1.1+JSON wire protocol (see
//! `tuna_serve::daemon` for the endpoint table), multiplexes them
//! across `N` worker threads under weighted fair-share scheduling, and
//! persists every study under `--data` so a killed daemon resumes
//! exactly where the journal left off. `--workers` defaults to the
//! `TUNA_WORKERS` environment variable (the workspace-wide knob), then
//! to 1. Binding port 0 picks an ephemeral port; the chosen address is
//! printed on stderr either way (`tunad: listening on ...`), so
//! harnesses can scrape it.
//!
//! `--tenants FILE` loads a tenant table (see `tuna_serve::tenant` for
//! the format): bearer tokens, fair-share weights and admission
//! budgets. With a table, every request must authenticate. Without
//! one, the daemon runs a single anonymous default tenant — and it
//! refuses to bind any non-loopback address, because an unauthenticated
//! daemon must not be reachable off-host.
//!
//! # Architecture
//!
//! All connection IO happens on **one** thread: a readiness loop over
//! non-blocking sockets (`poll(2)` on Linux, a short-sleep fallback
//! elsewhere) drives the shared `tuna_serve::engine::Engine` state
//! machine — accept → read → parse → dispatch → write — with HTTP/1.1
//! keep-alive and pipelining, per-connection byte/time budgets, and
//! bounded queues that shed load with structured `408`/`429`/`503`
//! responses. A stalled or hostile client can therefore pin at most its
//! own connection slot, and only until its time budget expires. Cell
//! *execution* — the expensive, pure part — stays on the `N`-thread
//! worker pool, which shares the `StudyManager` with the loop through
//! one mutex; the loop holds that lock only for in-memory routing.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use tuna_core::campaign::execute_cell;
use tuna_core::executor::ExecutionMode;
use tuna_serve::engine::{Engine, EngineConfig};
use tuna_serve::manager::StudyManager;
use tuna_serve::tenant::TenantRegistry;

/// How long the loop sleeps waiting for socket readiness before it
/// wakes anyway to advance time budgets.
const POLL_TIMEOUT_MS: i32 = 100;

struct Shared {
    mgr: Mutex<StudyManager>,
    /// Signalled whenever new work may exist (a submit landed).
    work: Condvar,
}

fn usage() -> ! {
    eprintln!("usage: tunad [--addr HOST:PORT] [--data DIR] [--workers N] [--tenants FILE]");
    std::process::exit(2);
}

/// Whether every address `addr` resolves to is loopback — the only kind
/// an unauthenticated (no `--tenants`) daemon may bind.
fn addr_is_loopback(addr: &str) -> bool {
    use std::net::ToSocketAddrs;
    match addr.to_socket_addrs() {
        Ok(mut addrs) => {
            let mut any = false;
            let all = addrs.all(|a| {
                any = true;
                a.ip().is_loopback()
            });
            any && all
        }
        // Unresolvable: let bind() report the real error later.
        Err(_) => true,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:4917".to_string();
    let mut data = "tuna-serve-data".to_string();
    let mut workers = ExecutionMode::from_env().workers();
    let mut tenants: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--addr" => addr = value(&mut i),
            "--data" => data = value(&mut i),
            "--workers" => workers = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--tenants" => tenants = Some(value(&mut i)),
            _ => usage(),
        }
        i += 1;
    }
    let workers = workers.max(1);

    let registry = match &tenants {
        Some(path) => TenantRegistry::load(path).unwrap_or_else(|e| {
            eprintln!("tunad: {e}");
            std::process::exit(1);
        }),
        None => {
            if !addr_is_loopback(&addr) {
                eprintln!(
                    "tunad: refusing to bind non-loopback address {addr} without --tenants: \
                     an unauthenticated daemon must not be reachable off-host"
                );
                std::process::exit(1);
            }
            TenantRegistry::loopback()
        }
    };

    let mgr = StudyManager::new(Some(data.clone().into()), registry).unwrap_or_else(|e| {
        eprintln!("tunad: {e}");
        std::process::exit(1);
    });
    let resumed = mgr.studies().count();
    let shared = Arc::new(Shared {
        mgr: Mutex::new(mgr),
        work: Condvar::new(),
    });

    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("tunad: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    let local = listener
        .local_addr()
        .expect("bound listener has an address");
    eprintln!(
        "tunad: listening on {local} (data {data}, {workers} workers, {resumed} studies resumed)"
    );

    for w in 0..workers {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name(format!("tunad-worker-{w}"))
            .spawn(move || worker_loop(&shared))
            .expect("spawn worker");
    }
    // Resumed studies may already have pending cells.
    shared.work.notify_all();

    event_loop(&shared, &listener);
}

/// The single-threaded readiness loop: every connection's bytes flow
/// through the shared [`Engine`] state machine; the loop never blocks
/// on any one peer.
fn event_loop(shared: &Shared, listener: &TcpListener) -> ! {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let mut engine = Engine::new(EngineConfig::daemon_default());
    let mut streams: BTreeMap<usize, TcpStream> = BTreeMap::new();
    let started = Instant::now();
    let mut buf = [0u8; 16 * 1024];

    loop {
        wait_ready(listener, &streams, &engine);
        let now = started.elapsed().as_millis() as u64;

        // Accept every pending connection. Past capacity the engine
        // queues a structured 503 and the slot closes after the flush —
        // a visible refusal, never a silent drop.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let id = engine.connect(now);
                    streams.insert(id, stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => {
                    eprintln!("tunad: accept failed: {e}");
                    break;
                }
            }
        }

        // Read whatever every readable peer sent.
        let mut broken: Vec<usize> = Vec::new();
        for (&id, stream) in &mut streams {
            if !engine.accepts_input(id) {
                continue;
            }
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => {
                        engine.on_eof(id);
                        break;
                    }
                    Ok(n) => engine.recv(id, &buf[..n], now),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken.push(id);
                        break;
                    }
                }
            }
        }

        // Dispatch queued requests under the manager lock (cheap,
        // in-memory routing only) and wake the pool if submits landed.
        {
            let mut mgr = shared.mgr.lock().expect("manager lock");
            if engine.dispatch(&mut mgr, now) > 0 {
                shared.work.notify_all();
            }
        }
        engine.on_tick(now);

        // Flush response bytes; tolerate partial writes.
        for (&id, stream) in &mut streams {
            let pending = engine.pending_output(id).to_vec();
            if pending.is_empty() {
                continue;
            }
            match stream.write(&pending) {
                Ok(n) => {
                    engine.consume_output(id, n);
                    let _ = stream.flush();
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(_) => broken.push(id),
            }
        }

        // Reap: transport failures and engine-decided closes.
        for id in broken {
            streams.remove(&id);
            engine.disconnect(id);
        }
        let closing: Vec<usize> = streams
            .keys()
            .copied()
            .filter(|&id| engine.wants_close(id))
            .collect();
        for id in closing {
            streams.remove(&id);
            engine.disconnect(id);
        }
    }
}

/// Blocks until the listener or any connection is ready (or the timeout
/// elapses, so time budgets still advance on an idle daemon).
#[cfg(target_os = "linux")]
fn wait_ready(listener: &TcpListener, streams: &BTreeMap<usize, TcpStream>, engine: &Engine) {
    use std::os::fd::{AsRawFd, RawFd};

    #[repr(C)]
    struct PollFd {
        fd: RawFd,
        events: i16,
        revents: i16,
    }
    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    let mut fds = Vec::with_capacity(streams.len() + 1);
    fds.push(PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    });
    for (&id, stream) in streams {
        let mut events = POLLIN;
        if !engine.pending_output(id).is_empty() {
            events |= POLLOUT;
        }
        fds.push(PollFd {
            fd: stream.as_raw_fd(),
            events,
            revents: 0,
        });
    }
    // A failed poll degrades to the timeout path: the loop's reads are
    // non-blocking either way, so readiness is an optimization, never a
    // correctness requirement.
    //
    // SAFETY: `fds` outlives the call and `fds.len()` is its exact
    // element count, so the kernel reads/writes only within the
    // allocation; `PollFd` is `#[repr(C)]` field-for-field identical to
    // `struct pollfd`, and every fd comes from a live `TcpListener`/
    // `TcpStream` borrowed for the duration of the call. poll(2) has no
    // other preconditions, and its only side effect is filling
    // `revents`.
    unsafe {
        poll(fds.as_mut_ptr(), fds.len() as u64, POLL_TIMEOUT_MS);
    }
}

#[cfg(not(target_os = "linux"))]
fn wait_ready(_listener: &TcpListener, _streams: &BTreeMap<usize, TcpStream>, _engine: &Engine) {
    std::thread::sleep(std::time::Duration::from_millis(
        POLL_TIMEOUT_MS as u64 / 10,
    ));
}

fn worker_loop(shared: &Shared) {
    loop {
        let assignment = {
            let mut mgr = shared.mgr.lock().expect("manager lock");
            loop {
                if let Some(a) = mgr.next_assignment() {
                    break a;
                }
                mgr = shared.work.wait(mgr).expect("manager lock");
            }
        };
        // Execute outside the lock: this is the expensive part, and the
        // cell is a pure function of the declaration. A panicking cell
        // (a declaration bug the validation missed) must not kill the
        // worker or leave the cell in flight forever — catch it and
        // cancel the study instead of wedging the pool.
        let started = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_cell(&assignment.campaign, assignment.cell, ExecutionMode::Serial)
        }));
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut mgr = shared.mgr.lock().expect("manager lock");
        let result = match outcome {
            Ok((record, payload)) => {
                let trace = tuna_core::campaign::cell_trace(
                    &assignment.campaign,
                    assignment.cell,
                    &payload,
                );
                mgr.complete_traced(
                    &assignment.tenant,
                    &assignment.study,
                    record,
                    wall_ns,
                    Some(trace),
                )
            }
            Err(_) => {
                eprintln!(
                    "tunad: study '{}' cell {} panicked during execution; cancelling the study",
                    assignment.study, assignment.cell
                );
                mgr.abandon(&assignment.tenant, &assignment.study, assignment.cell)
            }
        };
        if let Err(e) = result {
            eprintln!("tunad: {e}");
        }
    }
}
