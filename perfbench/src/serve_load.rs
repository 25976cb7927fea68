//! The `serve-evaluate` workload: an in-process `mccm serve` daemon
//! driven by two closed-loop clients, each holding one persistent
//! `Client` over loopback TCP.

use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpStream;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mccm::json::Json;
use mccm::serve::{read_frame, write_frame, Client, FaultPlan, ServeConfig, ServeStats, Server};
use mccm::{Error, Scenario, Session};

use crate::inputs::{Blocks, Catalog};
use crate::stats::{self, Ledger};
use crate::trace::Tracer;
use crate::{Measured, Plan};

const CLIENTS: usize = 2;
const SESSION_CAPACITY: usize = 8;
const SETUP_REPEATS: usize = 3;
/// Requests per client the traced run re-sends through a raw-stream
/// frame probe, and through a fresh connection, after its timed loop.
const FRAME_PROBES: usize = 48;
const CONNECT_PROBES: usize = 16;

/// Fixed daemon settings. Built field by field: `ServeConfig::default()`
/// reads `MCCM_FAULTS`, and a stray variable would inject faults.
fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 16,
        retry_after_ms: 50,
        session_capacity: SESSION_CAPACITY,
        stall_ms: 200,
        faults: FaultPlan::none(),
    }
}

struct Daemon {
    addr: String,
    handle: JoinHandle<Result<ServeStats, Error>>,
}

impl Daemon {
    /// Binds, spawns and waits for the first `stats` reply.
    fn start() -> Self {
        let server = Server::bind("127.0.0.1:0", config()).expect("binding a loopback port");
        let addr = server.addr().to_string();
        let handle = server.spawn();
        Client::connect(&addr)
            .and_then(|mut c| c.stats())
            .expect("daemon answers stats");
        Self { addr, handle }
    }

    /// Drains the daemon and returns its final accounting.
    fn stop(self) -> ServeStats {
        Client::connect(&self.addr)
            .and_then(|mut c| c.shutdown())
            .expect("daemon drains");
        self.handle
            .join()
            .expect("daemon thread does not panic")
            .expect("daemon exits cleanly")
    }
}

/// Starts the daemon, opens one connection per client and warms every
/// context on both workers: the two clients send one request per context
/// in lockstep, so each worker builds each context. Returns the daemon
/// and the warmed connections.
fn set_up(cat: &Catalog) -> (Daemon, Vec<Client>) {
    let daemon = Daemon::start();
    let barrier = Barrier::new(CLIENTS);
    let clients = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect(&daemon.addr).expect("connecting");
                    for c in 0..cat.contexts() {
                        barrier.wait();
                        let req = &cat.requests[cat.index(c, 0)];
                        client
                            .run(&req.scenario, None)
                            .expect("warm-up request succeeds");
                    }
                    client
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread"))
            .collect()
    });
    (daemon, clients)
}

/// What one client thread observed.
#[derive(Default)]
struct ClientLog {
    /// Round trip of each completed request.
    latency_ms: Vec<f64>,
    /// (catalog index, hash of the pretty outcome) of each completed
    /// request, in the order of `latency_ms`.
    seen: Vec<(usize, u64)>,
    attempted: u64,
    failed: u64,
}

/// One request on the client's persistent connection. Returns the
/// outcome JSON, or `None` (reported on stderr) on any failure.
fn send(client: &mut Client, addr: &str, scenario: &Scenario) -> Option<Json> {
    match client.run(scenario, None) {
        Ok(r) if !r.degraded => Some(r.outcome),
        Ok(_) => {
            eprintln!("degraded reply: {}", scenario.to_json_string());
            None
        }
        Err(e) => {
            eprintln!("request failed: {e}: {}", scenario.to_json_string());
            // The connection may be broken: reconnect for the next op.
            if let Ok(fresh) = Client::connect(addr) {
                *client = fresh;
            }
            None
        }
    }
}

fn client_loop(
    cat: &Catalog,
    addr: &str,
    client: &mut Client,
    seed: u64,
    deadline: Instant,
    max_ops: u64,
) -> ClientLog {
    let mut blocks = Blocks::new(cat.requests.len(), seed);
    let mut log = ClientLog::default();
    while Instant::now() < deadline && log.attempted < max_ops {
        let index = blocks.draw();
        log.attempted += 1;
        let t = Instant::now();
        let outcome = send(client, addr, &cat.requests[index].scenario);
        let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
        let Some(outcome) = outcome else {
            log.failed += 1;
            continue;
        };
        log.latency_ms.push(elapsed_ms);
        log.seen
            .push((index, stats::fnv1a(outcome.to_string_pretty().as_bytes())));
    }
    log
}

/// The request envelope the daemon receives for `scenario`.
fn envelope(id: usize, scenario: &Scenario) -> Json {
    let mut envelope = Json::object();
    envelope.push("id", id);
    envelope.push("run", scenario.to_json());
    envelope
}

/// Sends one request on a raw stream through the public framing
/// functions, timing the write and the read of the reply.
fn frame_probe(stream: &mut TcpStream, envelope: &Json, ledger: &mut Ledger) {
    let t = Instant::now();
    write_frame(stream, envelope).expect("writing a frame");
    ledger.record("serve.write_frame_us", t.elapsed().as_secs_f64() * 1e6);
    let t = Instant::now();
    let reply = read_frame(stream)
        .expect("reading a frame")
        .expect("a reply frame");
    ledger.record("serve.read_frame_ms", t.elapsed().as_secs_f64() * 1e3);
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "raw request failed"
    );
}

/// The traced run's per-layer probes of one client's stream, taken after
/// the timed loop so they do not change its pacing: every completed
/// request replayed in process against its measured round trip, the
/// first few re-sent through a raw-stream frame probe, and a few on a
/// fresh connection each (the path `mccm run --connect` takes).
fn trace_client(cat: &Catalog, addr: &str, log: &ClientLog) -> Ledger {
    let mut tracer = Tracer::new(SESSION_CAPACITY);
    for (id, (&(index, _), &round_trip_ms)) in log.seen.iter().zip(&log.latency_ms).enumerate() {
        let envelope = envelope(id, &cat.requests[index].scenario);
        tracer.replay_served(&envelope.to_string_compact(), round_trip_ms);
    }
    let mut raw = TcpStream::connect(addr).expect("raw connection");
    for (id, &(index, _)) in log.seen.iter().take(FRAME_PROBES).enumerate() {
        let envelope = envelope(id, &cat.requests[index].scenario);
        frame_probe(&mut raw, &envelope, &mut tracer.ledger);
    }
    for &(index, _) in log.seen.iter().take(CONNECT_PROBES) {
        let t = Instant::now();
        let mut client = Client::connect(addr).expect("connecting");
        tracer
            .ledger
            .record("serve.connect_ms", t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        client
            .run(&cat.requests[index].scenario, None)
            .expect("fresh-connection request succeeds");
        tracer
            .ledger
            .record("serve.fresh_round_trip_ms", t.elapsed().as_secs_f64() * 1e3);
    }
    tracer.finish()
}

/// Local reference bytes (pretty outcome hash) of every catalog index
/// in `indices`, computed on fresh sessions split over the clients'
/// threads.
fn reference_hashes(cat: &Catalog, indices: &BTreeSet<usize>) -> BTreeMap<usize, (u64, String)> {
    let all: Vec<usize> = indices.iter().copied().collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = all
            .chunks(all.len().div_ceil(CLIENTS).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    let mut session = Session::with_capacity(64);
                    chunk
                        .iter()
                        .map(|&i| {
                            let text = session
                                .run(&cat.requests[i].scenario)
                                .map(|o| o.to_json_string())
                                .unwrap_or_else(|e| format!("local run failed: {e}"));
                            (i, (stats::fnv1a(text.as_bytes()), text))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

pub fn run(plan: &Plan) -> Measured {
    let cat = Catalog::serve_evaluate();

    let mut setup_s = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((daemon, _)) = fixture.take() {
            Daemon::stop(daemon);
        }
        let t = Instant::now();
        fixture = Some(set_up(&cat));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (daemon, mut clients) = fixture.expect("at least one set-up");
    let addr = daemon.addr.as_str();

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(plan.seconds);
    let per_client_ops = plan.max_ops.div_ceil(CLIENTS as u64);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let cat = &cat;
                let seed = plan.seed.wrapping_mul(0x100).wrapping_add(i as u64);
                s.spawn(move || client_loop(cat, addr, client, seed, deadline, per_client_ops))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = stats::peak_rss_mb();

    // Fixed probe requests, split over the clients, on the daemon as the
    // timed phase left it.
    let probes = cat.probes();
    let probe_out: Vec<(usize, Option<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (cat, probes) = (&cat, &probes);
                s.spawn(move || {
                    probes
                        .iter()
                        .skip(i)
                        .step_by(CLIENTS)
                        .map(|&p| {
                            let out = send(client, addr, &cat.requests[p].scenario);
                            (p, out.map(|o| o.to_string_pretty()))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("probe thread"))
            .collect()
    });

    let mut ledger = Ledger::default();
    if plan.trace {
        let ledgers: Vec<Ledger> = std::thread::scope(|s| {
            let handles: Vec<_> = logs
                .iter()
                .map(|log| {
                    let cat = &cat;
                    s.spawn(move || trace_client(cat, addr, log))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("trace thread"))
                .collect()
        });
        ledgers.into_iter().for_each(|l| ledger.absorb(l));
        let stats = Client::connect(addr)
            .and_then(|mut c| c.stats())
            .expect("daemon answers stats");
        for (key, name) in [
            ("rejected_busy", "serve.rejected_busy"),
            ("failed", "serve.failed"),
            ("degraded", "serve.degraded"),
        ] {
            let count = stats
                .get("stats")
                .and_then(|s| s.get(key))
                .and_then(Json::as_u64);
            ledger.record(name, count.unwrap_or(0) as f64);
        }
    }
    drop(clients);
    let final_stats = daemon.stop();
    let balanced = final_stats.received
        == final_stats.admitted + final_stats.rejected_busy + final_stats.rejected_draining
        && final_stats.admitted
            == final_stats.completed + final_stats.degraded + final_stats.failed;

    // Output check: every served outcome must equal a local run.
    let mut wanted: BTreeSet<usize> = logs
        .iter()
        .flat_map(|l| l.seen.iter().map(|s| s.0))
        .collect();
    wanted.extend(probes.iter().copied());
    let reference = reference_hashes(&cat, &wanted);
    let mismatched = logs
        .iter()
        .flat_map(|l| &l.seen)
        .filter(|(i, h)| reference[i].0 != *h)
        .inspect(|(i, _)| {
            eprintln!(
                "served outcome differs from local: {}",
                cat.requests[*i].text
            )
        })
        .count() as u64;
    let mut probes_ok = probe_out.len() == probes.len();
    let mut digest_pairs = Vec::new();
    for (p, out) in probe_out {
        let expected = &reference[&p].1;
        probes_ok &= out.as_ref() == Some(expected);
        digest_pairs.push((cat.requests[p].text.clone(), out.unwrap_or_default()));
    }

    let mut measured = Measured {
        wall_s,
        setup_s: stats::median(&setup_s),
        peak_rss_mb,
        digest: stats::set_digest(&digest_pairs),
        checks_ok: balanced && probes_ok,
        mismatched,
        ledger,
        ..Measured::default()
    };
    for log in logs {
        // Every request is an evaluate: one design each.
        measured.designs += log.latency_ms.len() as u64;
        measured.latency_ms.extend(log.latency_ms);
        measured.attempted += log.attempted;
        measured.failed += log.failed;
    }
    measured
}
