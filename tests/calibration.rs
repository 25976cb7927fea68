//! Calibration subsystem integration: simulator determinism at the byte
//! level, worker-count invariance of calibrate outcomes, persistent
//! store fixed points, and honest degradation under cancellation.

use mccm::arch::{templates, MultipleCeBuilder};
use mccm::calib::{sim_result_json, simulate, CalibStore, CALIBRATED_METRICS};
use mccm::cnn::zoo;
use mccm::core::CostModel;
use mccm::dse::CancelToken;
use mccm::fpga::FpgaBoard;
use mccm::scenario::Scenario;
use mccm::session::{Outcome, Session};
use mccm::sim::SimConfig;

fn calibrate_scenario(store: Option<&str>) -> Scenario {
    let store_field = store
        .map(|s| format!(", \"store\": \"{s}\""))
        .unwrap_or_default();
    Scenario::from_json_str(&format!(
        r#"{{"model": {{"zoo": "mobilenetv2"}}, "board": {{"builtin": "zc706"}},
            "action": {{"calibrate": {{"budget": 300, "top_k": 3{store_field}}}}}}}"#
    ))
    .unwrap()
}

/// A scratch path under the system temp dir, unique per test name so
/// parallel test binaries never collide.
fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mccm-calib-{name}-{}", std::process::id()))
}

#[test]
fn simulator_results_are_byte_identical_across_runs() {
    let model = zoo::mobilenet_v2();
    let builder = MultipleCeBuilder::new(&model, &FpgaBoard::zc706());
    let acc = builder
        .build(&templates::hybrid(&model, 4).unwrap())
        .unwrap();
    let eval = CostModel::evaluate(&acc);
    let cancel = CancelToken::new();
    let baseline = sim_result_json(&simulate(&acc, &eval, SimConfig::default(), &cancel).unwrap())
        .to_string_compact();
    for _ in 0..3 {
        let again = sim_result_json(&simulate(&acc, &eval, SimConfig::default(), &cancel).unwrap())
            .to_string_compact();
        assert_eq!(again, baseline);
    }
}

#[test]
fn calibrate_outcome_is_identical_across_worker_counts() {
    let cancel = CancelToken::new();
    let texts: Vec<String> = [1usize, 4]
        .iter()
        .map(|&workers| {
            let mut scenario = calibrate_scenario(None);
            scenario.workers = workers;
            let mut session = Session::new();
            let (outcome, degraded) = session.run_cancellable(&scenario, &cancel).unwrap();
            assert!(!degraded);
            outcome.to_json_string()
        })
        .collect();
    assert_eq!(texts[0], texts[1]);
}

#[test]
fn calibrate_covers_the_four_sim_metrics_with_error_bars() {
    let mut session = Session::new();
    let outcome = session.run(&calibrate_scenario(None)).unwrap();
    let Outcome::Calibrated(o) = &outcome else {
        panic!("expected calibrated outcome, got {}", outcome.action())
    };
    assert_eq!(o.promoted.len(), 3);
    for p in &o.promoted {
        let metrics: Vec<_> = p.pairs.iter().map(|&(m, _, _)| m).collect();
        assert_eq!(metrics, CALIBRATED_METRICS.to_vec());
    }
    // Default metrics include energy; only the four sim-refereed ones
    // get corrections, each fitted from the promoted pairs.
    assert_eq!(o.corrections.len(), CALIBRATED_METRICS.len());
    for (_, c) in &o.corrections {
        assert_eq!(c.pairs, 3);
        assert!(c.error_bar().is_finite());
    }
    // The rendered JSON surfaces calibration envelopes on front rows.
    let text = outcome.to_json_string();
    assert!(text.contains("\"error_bar\""), "{text}");
    assert!(text.contains("\"calibration\""), "{text}");
}

#[test]
fn persistent_store_reaches_a_fixed_point() {
    let path = scratch("fixed-point");
    let _ = std::fs::remove_file(&path);
    let scenario = calibrate_scenario(Some(path.to_str().unwrap()));
    let mut session = Session::new();

    session.run(&scenario).unwrap();
    let first = std::fs::read(&path).unwrap();
    let second_outcome = session.run(&scenario).unwrap();
    let second = std::fs::read(&path).unwrap();
    assert_eq!(first, second, "second run must not change the store");

    let Outcome::Calibrated(o) = &second_outcome else {
        panic!("expected calibrated outcome")
    };
    assert_eq!(o.new_pairs, 0, "rerun re-measures the same designs");
    assert!(o.store_pairs > 0);

    // The persisted bytes round-trip through the store codec exactly.
    let store = CalibStore::load(&path).unwrap();
    assert_eq!(store.to_json_string().into_bytes(), first);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cancelled_calibration_degrades_honestly() {
    let cancel = CancelToken::new();
    cancel.cancel();
    let mut session = Session::new();
    let (outcome, degraded) = session
        .run_cancellable(&calibrate_scenario(None), &cancel)
        .unwrap();
    assert!(degraded, "a fired token must mark the outcome degraded");
    let Outcome::Calibrated(o) = &outcome else {
        panic!("expected calibrated outcome")
    };
    // Cancellation before any simulation: no pairs, identity fits.
    assert!(o.promoted.is_empty());
    assert!(o.corrections.iter().all(|(_, c)| c.pairs == 0));
}

fn calibrate_on(model: &str, board: &str, seed: u64) -> Scenario {
    Scenario::from_json_str(&format!(
        r#"{{"model": {{"zoo": "{model}"}}, "board": {{"builtin": "{board}"}}, "seed": {seed},
            "action": {{"calibrate": {{"budget": 200, "top_k": 6}}}}}}"#
    ))
    .unwrap()
}

#[test]
fn memoized_measurements_match_fresh_sessions() {
    let mut warm = Session::new();
    for seed in 1..=6 {
        for (model, board) in [("mobilenetv2", "zc706"), ("mobilenetv2", "vcu108")] {
            let scenario = calibrate_on(model, board, seed);
            let memoized = warm.run(&scenario).unwrap().to_json_string();
            let fresh = Session::new().run(&scenario).unwrap().to_json_string();
            assert_eq!(memoized, fresh, "{model}/{board} seed {seed}");
        }
    }
    let stats = warm.stats();
    assert!(stats.measure_hits > 0, "{stats:?}");
    assert!(stats.measure_misses > 0, "{stats:?}");
}

#[test]
fn memoized_store_runs_match_fresh_sessions() {
    let warm_path = scratch("memo-warm");
    let fresh_path = scratch("memo-fresh");
    let _ = std::fs::remove_file(&warm_path);
    let _ = std::fs::remove_file(&fresh_path);

    let warm_scenario = calibrate_scenario(Some(warm_path.to_str().unwrap()));
    let mut warm = Session::new();
    warm.run(&warm_scenario).unwrap();
    warm.run(&warm_scenario).unwrap();
    assert!(warm.stats().measure_hits > 0, "{:?}", warm.stats());

    let fresh_scenario = calibrate_scenario(Some(fresh_path.to_str().unwrap()));
    Session::new().run(&fresh_scenario).unwrap();
    Session::new().run(&fresh_scenario).unwrap();

    assert_eq!(
        std::fs::read(&warm_path).unwrap(),
        std::fs::read(&fresh_path).unwrap()
    );
    let _ = std::fs::remove_file(&warm_path);
    let _ = std::fs::remove_file(&fresh_path);
}

#[test]
fn cancelled_calibration_memoizes_nothing() {
    let scenario = calibrate_scenario(None);
    let cancel = CancelToken::new();
    cancel.cancel();
    let mut session = Session::new();
    let (_, degraded) = session.run_cancellable(&scenario, &cancel).unwrap();
    assert!(degraded);
    assert_eq!(session.stats().measure_misses, 0);

    session.run(&scenario).unwrap();
    let stats = *session.stats();
    assert_eq!(stats.measure_hits, 0, "{stats:?}");
    assert!(stats.measure_misses > 0, "{stats:?}");
}

#[test]
fn evicting_contexts_drops_their_measurements() {
    let scenario = calibrate_scenario(None);
    let mut session = Session::new();
    session.run(&scenario).unwrap();
    let measured = session.stats().measure_misses;
    assert!(measured > 0);
    session.run(&scenario).unwrap();
    assert_eq!(session.stats().measure_hits, measured);

    session.evict_all();
    session.run(&scenario).unwrap();
    let stats = *session.stats();
    assert_eq!(stats.measure_misses, 2 * measured, "{stats:?}");
    assert_eq!(stats.measure_hits, measured, "{stats:?}");
}
