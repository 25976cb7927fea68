//! MCCM benchmark: end-to-end metrics of two workloads through the
//! public `mccm` APIs, plus a separate traced run that times each
//! layer's public functions from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-evaluate|calibrate> \
//!     --seed <n> --seconds <s> --trace <0|1> [--max-ops <n>]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`). The line before it carries the
//! run's outcome digest, operation count and error rate.

mod calibrate;
mod inputs;
mod serve_load;
mod stats;
mod trace;

use mccm::json::Json;

use crate::stats::Ledger;

/// What a run is asked to do.
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Cap on operations (the self-check's short runs); unbounded
    /// otherwise.
    pub max_ops: u64,
}

/// What a workload run measured.
#[derive(Default)]
pub struct Measured {
    /// Host time of each completed operation.
    pub latency_ms: Vec<f64>,
    pub attempted: u64,
    /// Failed or rejected operations.
    pub failed: u64,
    /// Completed operations whose output failed its check.
    pub mismatched: u64,
    /// Cost-model design evaluations the outcomes report.
    pub designs: u64,
    /// Wall-clock time of the timed closed loop.
    pub wall_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// Order-independent digest of the fixed probe requests' outcomes.
    pub digest: String,
    /// Probe outcomes matched their references and the daemon's
    /// accounting identities balanced.
    pub checks_ok: bool,
    pub ledger: Ledger,
}

const WORKLOADS: [&str; 2] = ["serve-evaluate", "calibrate"];

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--max-ops <n>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value for {flag}: {value}")))
}

fn parse_args() -> (String, Plan) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut plan = Plan {
        seed: 1,
        seconds: 10.0,
        trace: false,
        max_ops: u64::MAX,
    };
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => plan.seed = parsed(flag, value),
            "--seconds" => plan.seconds = parsed(flag, value),
            "--trace" => plan.trace = parsed::<u8>(flag, value) == 1,
            "--max-ops" => plan.max_ops = parsed(flag, value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    (workload, plan)
}

fn metric(metrics: &mut Json, name: &str, value: f64, unit: &str) {
    let mut m = Json::object();
    m.push("value", value);
    m.push("unit", unit);
    metrics.push(name, m);
}

fn main() {
    let (workload, plan) = parse_args();
    let m = match workload.as_str() {
        "serve-evaluate" => serve_load::run(&plan),
        _ => calibrate::run(&plan),
    };

    let completed = m.latency_ms.len() as f64;
    let failed = m.failed + m.mismatched;
    let error_rate = failed as f64 / m.attempted.max(1) as f64;
    let p50 = stats::median(&m.latency_ms);
    let p99 = stats::quantile(&m.latency_ms, 0.99);
    let beyond_p99 = m.latency_ms.iter().filter(|&&l| l > p99).count();

    let mut metrics = Json::object();
    if plan.trace {
        let mut ledger = m.ledger;
        ledger.record("trace.latency_p50_ms", p50);
        ledger.record("trace.operations", completed);
        for (name, unit) in trace::PER_LAYER {
            metric(
                &mut metrics,
                name,
                trace::per_layer_value(&ledger, name),
                unit,
            );
        }
    } else {
        metric(&mut metrics, "latency_p50_ms", p50, "ms");
        metric(&mut metrics, "latency_p99_ms", p99, "ms");
        metric(&mut metrics, "ops_per_s", completed / m.wall_s, "1/s");
        metric(
            &mut metrics,
            "designs_per_s",
            m.designs as f64 / m.wall_s,
            "1/s",
        );
        metric(&mut metrics, "success_rate", 1.0 - error_rate, "ratio");
        metric(&mut metrics, "setup_s", m.setup_s, "s");
        metric(&mut metrics, "peak_rss_mb", m.peak_rss_mb, "MiB");
    }

    let mut info = Json::object();
    info.push("workload", workload.as_str());
    info.push("seed", plan.seed);
    info.push("trace", plan.trace);
    info.push("digest", m.digest.as_str());
    info.push("operations", m.attempted);
    info.push("error_rate", error_rate);
    info.push("mismatched", m.mismatched);
    info.push("beyond_p99", beyond_p99);
    info.push("checks_ok", m.checks_ok);
    println!("{}", info.to_string_compact());

    let mut result = Json::object();
    result.push("correct", m.checks_ok && failed == 0);
    result.push("attempted", m.attempted);
    result.push("failed", failed);
    result.push("metrics", metrics);
    println!("{}", result.to_string_compact());
}
