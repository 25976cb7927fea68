//! The in-process `calibrate` workload: two callers, each on a
//! long-lived `Session` as each of the daemon's two workers holds one,
//! sending calibrate requests in a closed loop.

use std::time::{Duration, Instant};

use mccm::{Outcome, Session};

use crate::inputs::{calibrate_request, Blocks, Request, Rng, CALIBRATE_PAIRS};
use crate::stats::{self, Ledger};
use crate::trace::Tracer;
use crate::{Measured, Plan};

/// One caller per core. A single caller stays on one vCPU for the whole
/// run, so its figures carried that vCPU's contention from the host;
/// two callers spread over both.
const CALLERS: usize = 2;
const SESSION_CAPACITY: usize = 8;
const SETUP_REPEATS: usize = 9;
/// Operations per caller the traced run replays against the layers
/// after its timed loop.
const TRACED_OPS: usize = 64;

/// The outcome invariants every calibrate request must satisfy. The
/// optimizer may stop short of its budget once no island makes progress
/// (`GuidedFront::evaluations` is documented as at most the budget), so
/// the budget is an upper bound, not an exact count.
fn holds_invariants(outcome: &Outcome) -> bool {
    let Outcome::Calibrated(o) = outcome else {
        return false;
    };
    0 < o.feasible
        && o.feasible <= o.evaluations
        && o.evaluations <= o.budget
        && !o.front.is_empty()
        && o.promoted.len() == o.top_k.min(o.front.len())
}

/// One operation: `Session::run` plus rendering the outcome. Failures
/// are reported on stderr with the request that caused them.
fn operate(session: &mut Session, request: &Request) -> (Option<Outcome>, String, f64) {
    let t = Instant::now();
    let result = session.run(&request.scenario);
    let text = result
        .as_ref()
        .map(Outcome::to_json_string)
        .unwrap_or_default();
    let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(outcome) => (Some(outcome), text, elapsed_ms),
        Err(e) => {
            eprintln!("request failed: {e}: {}", request.text);
            (None, text, elapsed_ms)
        }
    }
}

/// Creates one session per caller and warms every context in each with
/// one request per (model, board) pair under seed 2, the callers in
/// parallel.
fn set_up() -> Vec<Session> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                s.spawn(|| {
                    let mut session = Session::with_capacity(SESSION_CAPACITY);
                    for pair in 0..CALIBRATE_PAIRS.len() {
                        let (outcome, _, _) = operate(&mut session, &calibrate_request(pair, 2));
                        assert!(
                            outcome.as_ref().is_some_and(holds_invariants),
                            "warm-up request failed"
                        );
                    }
                    session
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread"))
            .collect()
    })
}

/// What one caller observed.
#[derive(Default)]
struct CallerLog {
    latency_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    mismatched: u64,
    designs: u64,
    /// The first operations' (request, outcome, host time), kept for the
    /// traced run's replay.
    kept: Vec<(String, Outcome, f64)>,
}

fn caller_loop(session: &mut Session, seed: u64, deadline: Instant, plan: &Plan) -> CallerLog {
    let mut blocks = Blocks::new(CALIBRATE_PAIRS.len(), seed);
    let mut rng = Rng::new(!seed);
    let max_ops = plan.max_ops.div_ceil(CALLERS as u64);
    let mut log = CallerLog::default();
    while Instant::now() < deadline && log.attempted < max_ops {
        let request = calibrate_request(blocks.draw(), 1000 + rng.next_u64() % 1_000_000_000);
        log.attempted += 1;
        let (outcome, _, elapsed_ms) = operate(session, &request);
        let Some(outcome) = outcome else {
            log.failed += 1;
            continue;
        };
        log.latency_ms.push(elapsed_ms);
        if !holds_invariants(&outcome) {
            eprintln!("outcome invariant broken: {}", request.text);
            log.mismatched += 1;
        }
        if let Outcome::Calibrated(o) = &outcome {
            log.designs += o.evaluations;
        }
        if plan.trace && log.kept.len() < TRACED_OPS {
            log.kept.push((request.text, outcome, elapsed_ms));
        }
    }
    log
}

pub fn run(plan: &Plan) -> Measured {
    let mut setup_s = Vec::new();
    let mut sessions = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(std::mem::take(&mut sessions));
        let t = Instant::now();
        sessions = set_up();
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(plan.seconds);
    let logs: Vec<CallerLog> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .enumerate()
            .map(|(i, session)| {
                let seed = plan.seed.wrapping_mul(0x100).wrapping_add(i as u64);
                s.spawn(move || caller_loop(session, seed, deadline, plan))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = stats::peak_rss_mb();

    // Fixed probes (seed 1, one per pair) on every long-lived session
    // must match a fresh session.
    let mut probes_ok = true;
    let mut digest_pairs = Vec::new();
    for pair in 0..CALIBRATE_PAIRS.len() {
        let request = calibrate_request(pair, 1);
        let (_, fresh, _) = operate(&mut Session::new(), &request);
        for session in &mut sessions {
            let (_, warm, _) = operate(session, &request);
            probes_ok &= !warm.is_empty() && warm == fresh;
        }
        digest_pairs.push((request.text, fresh));
    }

    let mut ledger = Ledger::default();
    if plan.trace {
        let mut tracer = Tracer::new(SESSION_CAPACITY);
        for pair in 0..CALIBRATE_PAIRS.len() {
            tracer.time_context_build(&calibrate_request(pair, 2).scenario);
        }
        for (text, outcome, op_ms) in logs.iter().flat_map(|l| &l.kept) {
            tracer.replay_calibrate(text, outcome, *op_ms);
        }
        ledger = tracer.finish();
    }
    for session in &sessions {
        let s = session.stats();
        ledger.record("session.hits", s.hits as f64);
        ledger.record("session.misses", s.misses as f64);
        ledger.record("session.evictions", s.evictions as f64);
    }

    let mut measured = Measured {
        wall_s,
        setup_s: stats::median(&setup_s),
        peak_rss_mb,
        digest: stats::set_digest(&digest_pairs),
        checks_ok: probes_ok,
        ledger,
        ..Measured::default()
    };
    for log in logs {
        measured.latency_ms.extend(log.latency_ms);
        measured.attempted += log.attempted;
        measured.failed += log.failed;
        measured.mismatched += log.mismatched;
        measured.designs += log.designs;
    }
    measured
}
