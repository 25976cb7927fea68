//! Simulator-in-the-loop calibration for the MCCM analytical model.
//!
//! The analytical lanes evaluate ~10⁵ designs per minute; the
//! event-driven simulator referees one zoo design in about half a
//! millisecond (0.45–0.54 ms per run in the calibrate benchmark's trace,
//! release build on a 2-core x86-64 Xeon).
//! This crate closes the loop between them:
//!
//! 1. **Promotion** ([`promote_top_k`]) — a deterministic top-K slice of
//!    an optimized Pareto front (per-metric extremes + crowding-spread
//!    fill) earns simulator runs.
//! 2. **Measurement** ([`simulate`], [`metric_pairs`]) — each promoted
//!    design is run through the cancellable simulator, producing one
//!    (analytical, simulated) pair per Table IV metric. A per-context
//!    [`MeasureMemo`] answers designs already measured, exactly.
//! 3. **Store** ([`CalibStore`]) — pairs persist in a deterministic,
//!    insertion-ordered, bounded JSON store keyed by `(board, precision,
//!    metric)`, with idempotent merge semantics.
//! 4. **Fit** ([`Correction`]) — per-key least-squares linear
//!    corrections turn raw analytical predictions into calibrated ones
//!    with ± residual error bars.
//!
//! Calibration is *additive envelope data*: it never mutates an
//! analytical result, it annotates it. Consumers (the facade's
//! `calibrate` action, `mccm serve stats`, the bench harness) attach the
//! calibrated predictions next to the raw ones, so the uncalibrated
//! path stays byte-identical.
//!
//! ```
//! use mccm_calib::{CalibStore, Correction, fit_corrections};
//! use mccm_core::Metric;
//!
//! let mut store = CalibStore::new();
//! // Two designs measured on one platform (normally via `metric_pairs`).
//! store.record("zc706", "w8a8", "mobilenetv2", 1, "{L1-L20: CE1}",
//!              &[(Metric::Latency, 0.010, 0.0112)]);
//! store.record("zc706", "w8a8", "mobilenetv2", 1, "{L1-L20: CE2}",
//!              &[(Metric::Latency, 0.020, 0.0221)]);
//! let fits = fit_corrections(&store, "zc706", "w8a8", &[Metric::Latency]);
//! let (metric, correction) = fits[0];
//! assert_eq!(metric, Metric::Latency);
//! // The calibrated prediction lands on the simulator's trend line.
//! assert!((correction.apply(0.015) - 0.01665).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

mod fit;
mod measure;
mod promote;
mod store;

pub use fit::{fit_corrections, Correction};
pub use measure::{metric_pairs, sim_result_json, simulate, MeasureMemo, CALIBRATED_METRICS};
pub use promote::promote_top_k;
pub use store::{
    metric_token, CalibError, CalibStore, Pair, StoreKey, DEFAULT_MAX_PAIRS_PER_KEY, STORE_VERSION,
};
