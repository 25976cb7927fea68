//! The traced run's per-layer probes. Each probe times a call into one
//! layer's public API from outside the program, on the same request or
//! design the timed operation just used; nothing inside the program is
//! instrumented, so the untraced runs execute exactly the shipped code.

use std::collections::HashMap;
use std::time::Instant;

use mccm::arch::{AcceleratorSpec, MultipleCeBuilder};
use mccm::calib::{fit_corrections, metric_pairs, promote_top_k, CalibStore, CALIBRATED_METRICS};
use mccm::core::{CostModel, EvalScratch, EvalSummary, ModelConfig};
use mccm::dse::{DeltaContext, Explorer, SegCache};
use mccm::fpga::FpgaBoard;
use mccm::json::Json;
use mccm::scenario::{Action, DesignSpec};
use mccm::sim::{SimConfig, Simulator};
use mccm::{Outcome, Scenario, Session};

use crate::stats::Ledger;

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// A warmed (model, board) context the probes build and evaluate in.
struct Context {
    explorer: Explorer,
    board: FpgaBoard,
}

/// Per-thread probe state: the ledger, a shadow session for replaying
/// served requests, and warmed contexts for the design probes.
pub struct Tracer {
    pub ledger: Ledger,
    shadow: Session,
    contexts: HashMap<String, Context>,
    scratch: EvalScratch,
}

impl Tracer {
    /// `shadow_capacity` matches the daemon's per-worker session
    /// capacity, so the shadow session sees the same hits and misses a
    /// worker fed this client's stream would.
    pub fn new(shadow_capacity: usize) -> Self {
        Self {
            ledger: Ledger::default(),
            shadow: Session::with_capacity(shadow_capacity),
            contexts: HashMap::new(),
            scratch: EvalScratch::default(),
        }
    }

    /// Times one context build exactly as a session miss performs it:
    /// `ModelSpec::build` + `BoardSpec::build` + the builder and
    /// explorer construction.
    pub fn time_context_build(&mut self, scenario: &Scenario) {
        let t = Instant::now();
        let model = scenario.model.build().expect("benchmark model builds");
        let board = scenario.board.build().expect("benchmark board builds");
        let builder = MultipleCeBuilder::new(&model, &board).with_precision(scenario.precision);
        std::hint::black_box(Explorer::from_parts(model, builder));
        self.ledger.record("session.context_build_ms", ms(t));
    }

    fn context(&mut self, scenario: &Scenario) -> &Context {
        let key = format!(
            "{}|{}|{:?}",
            scenario.model.cache_token(),
            scenario.board.cache_token(),
            scenario.precision
        );
        self.contexts.entry(key).or_insert_with(|| {
            let model = scenario.model.build().expect("benchmark model builds");
            let board = scenario.board.build().expect("benchmark board builds");
            let builder = MultipleCeBuilder::new(&model, &board).with_precision(scenario.precision);
            Context {
                explorer: Explorer::from_parts(model, builder),
                board,
            }
        })
    }

    /// Replays a served request in process, stage by stage, the way the
    /// daemon handles it: `Json::parse` → `Scenario::from_json` →
    /// `Session::run` → `Outcome::to_json` → `to_string_compact`. The
    /// round trip minus these stages is the serve layer's overhead.
    pub fn replay_served(&mut self, envelope: &str, round_trip_ms: f64) {
        let t = Instant::now();
        let request = Json::parse(envelope).expect("request envelope parses");
        let parse_us = us(t);
        let t = Instant::now();
        let scenario =
            Scenario::from_json(request.get("run").expect("envelope has run")).expect("scenario");
        let from_json_us = us(t);
        let misses = self.shadow.stats().misses;
        let t = Instant::now();
        let outcome = self
            .shadow
            .run(&scenario)
            .expect("replayed request succeeds");
        let run_us = us(t);
        if self.shadow.stats().misses > misses {
            self.time_context_build(&scenario);
        }
        let t = Instant::now();
        let outcome_json = outcome.to_json();
        let to_json_us = us(t);
        let mut response = Json::object();
        response.push("id", request.get("id").and_then(Json::as_u64).unwrap_or(0));
        response.push("ok", true);
        response.push("degraded", false);
        response.push("outcome", outcome_json);
        let t = Instant::now();
        let bytes = response.to_string_compact();
        let render_us = us(t);

        let l = &mut self.ledger;
        l.record("json.parse_us", parse_us);
        l.record("scenario.from_json_us", from_json_us);
        l.record("session.outcome_to_json_us", to_json_us);
        l.record("json.render_us", render_us);
        l.record("json.response_bytes", bytes.len() as f64);
        let in_process_ms = (parse_us + from_json_us + run_us + to_json_us + render_us) / 1e3;
        l.record("serve.overhead_ms", round_trip_ms - in_process_ms);
        l.record("serve.round_trip_ms", round_trip_ms);

        if let Action::Evaluate { design } = &scenario.action {
            self.evaluate_self_time(&scenario, design, run_us);
        }
    }

    /// `Session::run` of an evaluate minus the arch build and core
    /// evaluate of the same design. Designs with schedule overrides are
    /// skipped: the override step is private to the session, so the
    /// probe could not rebuild the same design.
    fn evaluate_self_time(&mut self, scenario: &Scenario, design: &DesignSpec, run_us: f64) {
        if scenario.schedule.is_some() || !scenario.ces.is_empty() {
            return;
        }
        let spec = design
            .instantiate(self.context(scenario).explorer.model())
            .expect("benchmark design instantiates");
        let (build_us, eval_us) = self.probe_design(scenario, &spec);
        self.ledger
            .record("session.run_self_us", run_us - build_us - eval_us);
    }

    /// Times the arch and core layers on one design: a cold and a warm
    /// `MultipleCeBuilder::build`, both evaluation lanes, and the
    /// segment-cost/recombine split of the summary lane. Returns the
    /// warm build and rich-lane evaluate times.
    pub fn probe_design(&mut self, scenario: &Scenario, spec: &AcceleratorSpec) -> (f64, f64) {
        let ctx = self.context(scenario);
        let cold = MultipleCeBuilder::new(ctx.explorer.model(), &ctx.board)
            .with_precision(scenario.precision);
        let t = Instant::now();
        let built = cold.build(spec);
        let cold_us = us(t);
        std::hint::black_box(built.expect("benchmark design builds"));
        let warm = ctx.explorer.builder();
        warm.build(spec).expect("benchmark design builds");
        let t = Instant::now();
        let acc = warm.build(spec).expect("benchmark design builds");
        let warm_us = us(t);

        let t = Instant::now();
        std::hint::black_box(CostModel::evaluate(&acc));
        let eval_us = us(t);
        let scratch = &mut self.scratch;
        let t = Instant::now();
        std::hint::black_box(CostModel::evaluate_summary(&acc, scratch));
        let summary_us = us(t);
        let config = ModelConfig::default();
        let t = Instant::now();
        let costs: Vec<_> = (0..acc.segments.len())
            .map(|i| CostModel::segment_cost(&acc, i, &config, scratch))
            .collect();
        let segment_us = us(t) / costs.len().max(1) as f64;
        let coupling = CostModel::design_coupling(&acc, &config);
        let t = Instant::now();
        std::hint::black_box(CostModel::recombine(coupling, &costs, scratch));
        let recombine_us = us(t);

        let l = &mut self.ledger;
        l.record("arch.build_cold_us", cold_us);
        l.record("arch.build_warm_us", warm_us);
        l.record("core.evaluate_us", eval_us);
        l.record("core.evaluate_summary_us", summary_us);
        l.record("core.segment_cost_us", segment_us);
        l.record("core.recombine_us", recombine_us);
        (warm_us, eval_us)
    }

    /// Per-layer probes of one calibrate operation that took `op_ms`:
    /// rendering, the optimizer replayed on this tracer's own explorer,
    /// the delta path on its front, the promotion, simulator runs and
    /// correction fit.
    pub fn replay_calibrate(&mut self, request_text: &str, outcome: &Outcome, op_ms: f64) {
        let t = Instant::now();
        let parsed = Json::parse(request_text).expect("request parses");
        self.ledger.record("json.parse_us", us(t));
        let t = Instant::now();
        let scenario = Scenario::from_json(&parsed).expect("request is a scenario");
        self.ledger.record("scenario.from_json_us", us(t));
        let t = Instant::now();
        let outcome_json = outcome.to_json();
        self.ledger.record("session.outcome_to_json_us", us(t));
        let t = Instant::now();
        let bytes = outcome_json.to_string_compact();
        self.ledger.record("json.render_us", us(t));
        self.ledger
            .record("json.response_bytes", bytes.len() as f64);

        let config = scenario.optimizer_config().expect("calibrate action");
        let t = Instant::now();
        let guided = self
            .context(&scenario)
            .explorer
            .optimize_par(&config, scenario.workers)
            .expect("replayed optimization succeeds");
        self.ledger.record("dse.optimize_ms", ms(t));
        let cache = guided.cache;
        let l = &mut self.ledger;
        l.record("dse.seg_hits", cache.seg_hits as f64);
        l.record("dse.seg_misses", cache.seg_misses as f64);
        l.record("dse.delta_recombines", cache.delta_recombines as f64);
        l.record("dse.memo_hits", cache.memo_hits as f64);
        l.record("dse.feasible", guided.feasible as f64);
        l.record("dse.evaluations", guided.evaluations as f64);

        // The delta path with every segment already cached: the first
        // call per design fills the cache, the second is timed.
        let ctx = self.context(&scenario);
        let explorer = &ctx.explorer;
        let delta = DeltaContext::new(explorer);
        let mut seg_cache = SegCache::new();
        let mut scratch = EvalScratch::default();
        let mut delta_us = Vec::new();
        for point in guided.points.iter().take(4) {
            explorer
                .custom_summary_delta(&point.design, &delta, &mut seg_cache, &mut scratch)
                .expect("front design evaluates");
            let t = Instant::now();
            std::hint::black_box(explorer.custom_summary_delta(
                &point.design,
                &delta,
                &mut seg_cache,
                &mut scratch,
            ))
            .expect("front design evaluates");
            delta_us.push(us(t));
        }
        let specs: Vec<AcceleratorSpec> = guided
            .points
            .iter()
            .map(|p| {
                p.design
                    .to_spec(explorer.model())
                    .expect("front design has a spec")
            })
            .collect();
        for v in delta_us {
            self.ledger.record("dse.delta_eval_us", v);
        }
        if let Some(spec) = specs.first() {
            self.probe_design(&scenario, spec);
        }

        let Action::Calibrate { top_k, .. } = scenario.action else {
            return;
        };
        let front: Vec<EvalSummary> = guided.points.iter().map(|p| p.summary.clone()).collect();
        let t = Instant::now();
        let promoted = promote_top_k(&front, &guided.metrics, top_k);
        self.ledger.record("calib.promote_us", us(t));
        let ctx = self.context(&scenario);
        let builder = ctx.explorer.builder();
        let board = builder.board().name.clone();
        let precision = scenario.precision.name().unwrap_or("custom").to_string();
        let model = ctx.explorer.model().name().to_string();
        let mut store = CalibStore::new();
        let mut sim_ms = Vec::new();
        let mut events = Vec::new();
        for &i in &promoted {
            let acc = builder.build(&specs[i]).expect("promoted design builds");
            let eval = CostModel::evaluate(&acc);
            let t = Instant::now();
            let sim = Simulator::new(SimConfig::default()).run_with_eval(&acc, &eval);
            sim_ms.push(ms(t));
            events.push(sim.events as f64);
            store.record(
                &board,
                &precision,
                &model,
                scenario.batch,
                &eval.notation,
                &metric_pairs(&eval, &sim),
            );
        }
        let metrics: Vec<_> = guided
            .metrics
            .iter()
            .copied()
            .filter(|m| CALIBRATED_METRICS.contains(m))
            .collect();
        let t = Instant::now();
        std::hint::black_box(fit_corrections(&store, &board, &precision, &metrics));
        let fit_us = us(t);
        let l = &mut self.ledger;
        l.record("calib.fit_us", fit_us);
        l.record("sim.share", sim_ms.iter().sum::<f64>() / op_ms);
        l.record("sim.seconds", sim_ms.iter().sum::<f64>() / 1e3);
        l.record("sim.events_total", events.iter().sum());
        for (t, e) in sim_ms.into_iter().zip(events) {
            l.record("sim.run_ms", t);
            l.record("sim.events", e);
        }
    }

    /// Folds this thread's shadow-session accounting into the ledger.
    pub fn finish(mut self) -> Ledger {
        let s = *self.shadow.stats();
        self.ledger.record("session.hits", s.hits as f64);
        self.ledger.record("session.misses", s.misses as f64);
        self.ledger.record("session.evictions", s.evictions as f64);
        self.ledger
    }
}

/// Every per-layer metric the traced run prints: name, unit.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("serve.overhead_ms", "ms"),
    ("serve.overhead_share", "ratio"),
    ("serve.connect_ms", "ms"),
    ("serve.fresh_round_trip_ms", "ms"),
    ("serve.write_frame_us", "us"),
    ("serve.read_frame_ms", "ms"),
    ("serve.rejected_busy", "count"),
    ("serve.failed", "count"),
    ("serve.degraded", "count"),
    ("json.parse_us", "us"),
    ("json.render_us", "us"),
    ("json.response_bytes", "bytes"),
    ("scenario.from_json_us", "us"),
    ("session.outcome_to_json_us", "us"),
    ("session.run_self_us", "us"),
    ("session.hit_ratio", "ratio"),
    ("session.evictions", "count"),
    ("session.context_build_ms", "ms"),
    ("arch.build_cold_us", "us"),
    ("arch.build_warm_us", "us"),
    ("core.evaluate_us", "us"),
    ("core.evaluate_summary_us", "us"),
    ("core.segment_cost_us", "us"),
    ("core.recombine_us", "us"),
    ("dse.optimize_ms", "ms"),
    ("dse.delta_eval_us", "us"),
    ("dse.seg_hit_ratio", "ratio"),
    ("dse.delta_recombine_ratio", "ratio"),
    ("dse.memo_hits", "count"),
    ("dse.feasible_ratio", "ratio"),
    ("sim.run_ms", "ms"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.share", "ratio"),
    ("calib.promote_us", "us"),
    ("calib.fit_us", "us"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.operations", "count"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The value of per-layer metric `name` from a finished ledger. Timings
/// are medians of their samples; ratios are formed from summed counts;
/// a layer the workload never reaches reads 0.
pub fn per_layer_value(l: &Ledger, name: &str) -> f64 {
    match name {
        "serve.overhead_share" => ratio(
            l.median("serve.overhead_ms"),
            l.median("serve.round_trip_ms"),
        ),
        "serve.rejected_busy"
        | "serve.failed"
        | "serve.degraded"
        | "session.evictions"
        | "trace.operations" => l.sum(name),
        "session.hit_ratio" => ratio(
            l.sum("session.hits"),
            l.sum("session.hits") + l.sum("session.misses"),
        ),
        "dse.seg_hit_ratio" => ratio(
            l.sum("dse.seg_hits"),
            l.sum("dse.seg_hits") + l.sum("dse.seg_misses"),
        ),
        "dse.delta_recombine_ratio" => ratio(l.sum("dse.delta_recombines"), l.sum("dse.feasible")),
        "dse.feasible_ratio" => ratio(l.sum("dse.feasible"), l.sum("dse.evaluations")),
        "sim.events_per_s" => ratio(l.sum("sim.events_total"), l.sum("sim.seconds")),
        _ => l.median(name),
    }
}
