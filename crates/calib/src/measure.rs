//! Running promoted designs through the simulator and extracting
//! calibration pairs.

use std::collections::HashMap;

use mccm_arch::BuiltAccelerator;
use mccm_core::{CancelToken, Evaluation, Metric};
use mccm_json::Json;
use mccm_sim::{SimConfig, SimResult, Simulator};

/// The metrics the simulator can referee, in the paper's Table IV order.
/// Energy is analytical-only and never calibrated.
pub const CALIBRATED_METRICS: [Metric; 4] = [
    Metric::Latency,
    Metric::Throughput,
    Metric::OnChipBuffers,
    Metric::OffChipAccesses,
];

/// Simulates one built accelerator under `config`, honoring `cancel`.
/// Returns `None` if the token fired mid-run (the caller reports a
/// degraded partial with the pairs it already has).
pub fn simulate(
    acc: &BuiltAccelerator,
    eval: &Evaluation,
    config: SimConfig,
    cancel: &CancelToken,
) -> Option<SimResult> {
    Simulator::new(config).run_with_eval_cancellable(acc, eval, cancel)
}

/// (metric, analytical, simulated) triples of one design's measurement,
/// in [`CALIBRATED_METRICS`] order.
pub fn metric_pairs(eval: &Evaluation, sim: &SimResult) -> Vec<(Metric, f64, f64)> {
    sim.accuracy_records(eval)
        .into_iter()
        .map(|r| (r.metric, r.estimated, r.reference))
        .collect()
}

/// Designs a [`MeasureMemo`] holds at most. Past the cap new
/// measurements are dropped, not inserted: lookups stay exact and memory
/// stays bounded (a few hundred bytes per entry).
const MEASURE_MEMO_CAP: usize = 1024;

/// Bounded, exact memo of [`metric_pairs`] results keyed by design
/// notation, for one warmed (model, board, precision, batch) context.
///
/// A design's build, evaluation and simulation under a fixed
/// [`SimConfig`] are pure functions of its spec and the context, and the
/// notation round-trips to the spec, so a hit returns exactly the pairs
/// a fresh measurement would. Callers must keep one memo per context
/// and simulate under one config.
#[derive(Debug, Default)]
pub struct MeasureMemo {
    pairs: HashMap<String, Vec<(Metric, f64, f64)>>,
    hits: u64,
    misses: u64,
}

impl MeasureMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized pairs of `notation`, counting a hit or a miss.
    pub fn get(&mut self, notation: &str) -> Option<&[(Metric, f64, f64)]> {
        let found = self.pairs.get(notation);
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found.map(Vec::as_slice)
    }

    /// Records a completed measurement; dropped once the memo is full.
    pub fn insert(&mut self, notation: &str, pairs: &[(Metric, f64, f64)]) {
        if self.pairs.len() < MEASURE_MEMO_CAP {
            self.pairs.insert(notation.to_string(), pairs.to_vec());
        }
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing (each one a fresh measurement).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Deterministic JSON form of a [`SimResult`] — the byte-level identity
/// the simulator-determinism regression test and pair provenance rest
/// on. Field order is fixed; no wall-clock data appears.
pub fn sim_result_json(sim: &SimResult) -> Json {
    let mut j = Json::object();
    j.push("latency_s", sim.latency_s);
    j.push("throughput_fps", sim.throughput_fps);
    j.push("offchip_bytes", sim.offchip_bytes);
    j.push("offchip_weight_bytes", sim.offchip_weight_bytes);
    j.push("offchip_fm_bytes", sim.offchip_fm_bytes);
    j.push("implemented_buffer_bytes", sim.implemented_buffer_bytes);
    let windows: Vec<Json> = sim
        .segment_windows
        .iter()
        .map(|&(a, b)| Json::Array(vec![Json::Num(a), Json::Num(b)]))
        .collect();
    j.push("segment_windows", windows);
    j.push("dma_utilization", sim.dma_utilization);
    j.push("events", sim.events);
    j.push("images", sim.images);
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccm_arch::{templates, MultipleCeBuilder};
    use mccm_cnn::zoo;
    use mccm_core::CostModel;
    use mccm_fpga::FpgaBoard;

    #[test]
    fn pairs_cover_the_calibrated_metrics() {
        let model = zoo::mobilenet_v2();
        let builder = MultipleCeBuilder::new(&model, &FpgaBoard::zc706());
        let acc = builder
            .build(&templates::hybrid(&model, 3).unwrap())
            .unwrap();
        let eval = CostModel::evaluate(&acc);
        let sim = simulate(&acc, &eval, SimConfig::default(), &CancelToken::new()).unwrap();
        let pairs = metric_pairs(&eval, &sim);
        let metrics: Vec<Metric> = pairs.iter().map(|p| p.0).collect();
        assert_eq!(metrics, CALIBRATED_METRICS.to_vec());
        // Off-chip traffic is architecturally deterministic: the pair is
        // exact, anchoring the fit.
        let access = pairs
            .iter()
            .find(|p| p.0 == Metric::OffChipAccesses)
            .unwrap();
        assert_eq!(access.1, access.2);
    }

    #[test]
    fn cancelled_simulation_returns_none() {
        let model = zoo::mobilenet_v2();
        let builder = MultipleCeBuilder::new(&model, &FpgaBoard::zc706());
        let acc = builder
            .build(&templates::hybrid(&model, 3).unwrap())
            .unwrap();
        let eval = CostModel::evaluate(&acc);
        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(simulate(&acc, &eval, SimConfig::default(), &cancel).is_none());
    }

    #[test]
    fn memo_counts_lookups_and_drops_inserts_past_its_cap() {
        let pairs = [(Metric::Latency, 1.0, 1.5)];
        let mut memo = MeasureMemo::new();
        assert!(memo.get("{L1-Last: CE1}").is_none());
        memo.insert("{L1-Last: CE1}", &pairs);
        assert_eq!(memo.get("{L1-Last: CE1}"), Some(&pairs[..]));
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        for i in 0..2 * MEASURE_MEMO_CAP {
            memo.insert(&format!("design {i}"), &pairs);
        }
        assert_eq!(memo.pairs.len(), MEASURE_MEMO_CAP);
        assert!(memo.get("{L1-Last: CE1}").is_some(), "early entries stay");
        assert!(memo.get(&format!("design {MEASURE_MEMO_CAP}")).is_none());
    }

    #[test]
    fn sim_result_json_is_byte_stable() {
        let model = zoo::mobilenet_v2();
        let builder = MultipleCeBuilder::new(&model, &FpgaBoard::zc706());
        let acc = builder
            .build(&templates::hybrid(&model, 3).unwrap())
            .unwrap();
        let eval = CostModel::evaluate(&acc);
        let cancel = CancelToken::new();
        let a = simulate(&acc, &eval, SimConfig::default(), &cancel).unwrap();
        let b = simulate(&acc, &eval, SimConfig::default(), &cancel).unwrap();
        assert_eq!(
            sim_result_json(&a).to_string_compact(),
            sim_result_json(&b).to_string_compact()
        );
    }
}
