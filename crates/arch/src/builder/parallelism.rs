//! Per-CE parallelism-strategy selection.
//!
//! Given a CE's PE budget and the set of layers it processes, the builder
//! searches 3-D `(p_f, p_oh, p_ow)` configurations (filters × OFM height ×
//! OFM width — the strategy found best on average by Ma et al. \[23\]) and
//! picks the one minimizing the CE's total Eq. (1) latency over its layers.
//! 1-D and 2-D strategies fall out naturally when a factor is 1, which the
//! search prefers automatically for layers whose dimensions don't divide
//! well (§II-B).
//!
//! The more diverse the layers a CE processes, the harder it is to avoid
//! PE underutilization (§IV-A1) — that trade-off is exactly what this
//! search surfaces: a CE serving one layer gets factors that divide that
//! layer perfectly, while a CE serving many gets a compromise.
//!
//! The search is the dominant per-design cost of design-space sweeps, so
//! it is engineered for the hot path: the candidate table is computed once
//! per builder (per-PE-budget views are prefixes of it, see
//! [`candidate_prefix`]), and the per-layer `ceil(extent / factor)` terms
//! of Eq. (1) are precomputed over the candidate grid instead of being
//! re-derived inside the triple loop. [`MultipleCeBuilder`] additionally
//! memoizes whole search results per `(canonical budget, layer set)`
//! ([`canonical_budget`]) — see `builder/mod.rs`.
//!
//! [`MultipleCeBuilder`]: crate::MultipleCeBuilder

use mccm_cnn::ConvInfo;
use mccm_quantity::Cycles;

use crate::engine::Parallelism;

/// Candidate per-dimension factors: small integers, powers of two, and
/// 3·2^k / 7·2^k families, covering the divisors of common CNN dimension
/// extents (64, 112, 149, 224, 728, …).
///
/// The table is ascending and duplicate-free, so the candidate set for any
/// smaller budget `p < max` is exactly the prefix of values `≤ p`
/// ([`candidate_prefix`]) — which is what lets the builder compute this
/// once for the board's full DSP budget and reuse it for every CE.
pub(crate) fn candidates(max: u32) -> Vec<u32> {
    let mut c: Vec<u32> = (1..=8).collect();
    let mut p = 16u32;
    while p <= max {
        c.push(p);
        p *= 2;
    }
    for base in [3u32, 7] {
        let mut v = base * 2;
        while v <= max {
            c.push(v);
            v *= 2;
        }
    }
    // Odd extents appearing in the zoo (Xception valid-padding chain,
    // DenseNet transitions).
    c.extend([5, 9, 10, 13, 19, 37, 74, 149].iter().copied());
    c.retain(|&v| v <= max);
    c.sort_unstable();
    c.dedup();
    c
}

/// The prefix of an ascending candidate `table` usable under a PE budget
/// of `pes` — identical to `candidates(pes)` when `table` was built for
/// any budget `≥ pes`.
pub(crate) fn candidate_prefix(table: &[u32], pes: u32) -> &[u32] {
    &table[..table.partition_point(|&v| v <= pes)]
}

/// Every PE count a factor configuration drawn from `cand` can occupy:
/// the distinct products `p_f·p_oh·p_ow ≤ max` (`p_f·p_ow` when
/// `allow_rows` is off), ascending. Always starts at 1.
///
/// The search's feasible triples and its [`candidate_prefix`] depend on a
/// budget `pes ≤ max` only through [`canonical_budget`] (the largest
/// product `≤ pes`), so searching at the canonical budget returns exactly
/// the result of searching at `pes`.
pub(crate) fn budget_products(cand: &[u32], max: u32, allow_rows: bool) -> Vec<u32> {
    let max = max as usize;
    let row_cand = if allow_rows {
        cand
    } else {
        &cand[..cand.len().min(1)]
    };
    let mut seen = vec![false; max + 1];
    for &pf in cand {
        let pf = pf as usize;
        for &poh in row_cand {
            let pfoh = pf * poh as usize;
            if pfoh > max {
                break;
            }
            for &pow in cand {
                let p = pfoh * pow as usize;
                if p > max {
                    break;
                }
                seen[p] = true;
            }
        }
    }
    (1..=max)
        .filter(|&p| seen[p])
        .map(|p| u32::try_from(p).expect("bounded by a u32 budget"))
        .collect()
}

/// The largest entry of ascending `products` ([`budget_products`]) not
/// above `pes` — the budget the search actually sees. Budgets below the
/// first product (0) map to themselves.
pub(crate) fn canonical_budget(products: &[u32], pes: u32) -> u32 {
    match products.partition_point(|&p| p <= pes) {
        0 => pes,
        i => products[i - 1],
    }
}

/// Selects the 3-D parallelism for a CE with `pes` PEs processing
/// `layers`, minimizing total Eq. (1) cycles (ties: higher filter
/// parallelism, then higher row parallelism, for weight-reuse-friendly
/// configurations).
///
/// Returns scalar parallelism for an empty layer set.
pub fn select_parallelism(pes: u32, layers: &[&ConvInfo]) -> Parallelism {
    select_parallelism_dims(pes, layers, true)
}

/// Parallelism selection for row-pipelined engines: tile-grained pipelines
/// (TGPA \[41\], DNNBuilder \[49\]) process one OFM row per stage, so their
/// engines parallelize across filters and within the row (`p_oh = 1`).
pub fn select_row_parallelism(pes: u32, layers: &[&ConvInfo]) -> Parallelism {
    select_parallelism_dims(pes, layers, false)
}

fn select_parallelism_dims(pes: u32, layers: &[&ConvInfo], allow_rows: bool) -> Parallelism {
    if layers.is_empty() || pes <= 1 {
        return Parallelism::scalar();
    }
    let table = candidates(pes);
    let dims: Vec<[u32; 6]> = layers.iter().map(|l| l.dims).collect();
    search_parallelism(&table, pes, allow_rows, &dims)
}

/// The factor search itself, over a candidate table already restricted to
/// `≤ pes` and the layers' raw loop extents.
///
/// Iteration order and tie-breaking are load-bearing: results must be
/// identical to the historical nested `total_cycles` search, so sweeps
/// stay deterministic across the memoized and unmemoized paths. The only
/// changes here are algebraic: Eq. (1)'s per-layer product is factored as
/// `(C·KH·KW) · ceil(F/p_f) · ceil(OH/p_oh) · ceil(OW/p_ow)` with the
/// invariant part and the two outer `ceil` terms hoisted out of the inner
/// loops, and the per-candidate `ceil` grids precomputed once.
///
/// On top of that, a work bound prunes whole subtrees: every `ceil` term
/// is at least `extent / factor`, so a layer set's remaining work divided
/// by the largest factor product still available bounds the cost from
/// below. Subtrees whose bound lies strictly above the incumbent are
/// skipped; they can neither win nor tie, and the surviving triples are
/// visited in the original order, so the tie-breaks are untouched.
pub(crate) fn search_parallelism(
    cand: &[u32],
    pes: u32,
    allow_rows: bool,
    dims: &[[u32; 6]],
) -> Parallelism {
    debug_assert!(!dims.is_empty() && pes > 1);
    let n = dims.len();
    // Per-layer Eq. (1) factor invariant under the 3-D search: C·KH·KW.
    let rest: Vec<u64> = dims
        .iter()
        .map(|d| u64::from(d[1]) * u64::from(d[4]) * u64::from(d[5]))
        .collect();
    let area: Vec<u128> = dims
        .iter()
        .map(|d| u128::from(d[2]) * u128::from(d[3]))
        .collect();
    // ceil(extent / candidate) grids, candidate-major.
    let nc = cand.len();
    let mut cf = vec![0u64; nc * n];
    let mut coh = vec![0u64; nc * n];
    let mut cow = vec![0u64; nc * n];
    for (i, &c) in cand.iter().enumerate() {
        for (l, d) in dims.iter().enumerate() {
            cf[i * n + l] = u64::from(d[0]).div_ceil(u64::from(c));
            coh[i * n + l] = u64::from(d[2]).div_ceil(u64::from(c));
            cow[i * n + l] = u64::from(d[3]).div_ceil(u64::from(c));
        }
    }
    // Row-pipelined engines fix p_oh = 1; `cand` always starts at 1.
    let row_cand = if allow_rows { cand } else { &cand[..1] };

    let mut best = Parallelism::scalar();
    // Scalar baseline: Σ_l rest · F · OH · OW (all ceil terms at factor 1).
    // The running cost is a cycle count — typed, so a traffic or MAC total
    // can never leak into the comparison.
    let mut best_cost: Cycles = dims
        .iter()
        .zip(&rest)
        .map(|(d, &r)| Cycles::new(r * u64::from(d[0]) * u64::from(d[2]) * u64::from(d[3])))
        .sum();
    let mut a = vec![0u64; n];
    let mut b = vec![0u64; n];
    for (i, &pf) in cand.iter().enumerate() {
        if pf > pes {
            break;
        }
        let max_oh = pes / pf;
        // Work bound: p_oh·p_ow ≤ max_oh, so cost ≥ Σ a·OH·OW / max_oh.
        let mut work = 0u128;
        for (l, av) in a.iter_mut().enumerate() {
            *av = rest[l] * cf[i * n + l];
            work += u128::from(*av) * area[l];
        }
        if work > u128::from(best_cost.get()) * u128::from(max_oh) {
            continue;
        }
        for (j, &poh) in row_cand.iter().enumerate() {
            if poh > max_oh {
                break;
            }
            let max_ow = max_oh / poh;
            // Work bound: cost ≥ Σ b·OW / p_ow for every p_ow ≤ max_ow.
            let mut work = 0u128;
            for (l, bv) in b.iter_mut().enumerate() {
                *bv = a[l] * coh[j * n + l];
                work += u128::from(*bv) * u128::from(dims[l][3]);
            }
            let best_raw = u128::from(best_cost.get());
            if work > best_raw * u128::from(max_ow) {
                continue;
            }
            // Every p_ow with p_ow·best < work is strictly worse.
            let start = cand.partition_point(|&p| u128::from(p) * best_raw < work);
            for (k, &pow) in cand.iter().enumerate().skip(start) {
                if pow > max_ow {
                    break;
                }
                // Partial-sum abort: once the running cost exceeds the
                // incumbent it can never win (and can never tie, since the
                // abort only fires strictly above `best_cost`).
                //
                // The partial sum stays raw `u64` inside this cubic loop:
                // `Cycles`' saturating add costs an extra compare per term,
                // measurable across the whole search. Terms are products of
                // in-range layer extents, so plain addition cannot overflow
                // where saturation would have engaged; the typed comparison
                // happens once per candidate at the boundary below.
                let best_raw = best_cost.get();
                let mut raw = 0u64;
                for (l, &bv) in b.iter().enumerate() {
                    raw += bv * cow[k * n + l];
                    if raw > best_raw {
                        break;
                    }
                }
                let cost = Cycles::new(raw);
                if cost < best_cost
                    || (cost == best_cost
                        && (pf, poh, pow) > (best.dims[0], best.dims[2], best.dims[3]))
                {
                    best = Parallelism::spatial(pf, poh, pow);
                    best_cost = cost;
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccm_cnn::zoo;

    fn layer_refs(convs: &[ConvInfo], idx: &[usize]) -> Vec<ConvInfo> {
        idx.iter().map(|&i| convs[i].clone()).collect()
    }

    /// The historical reference implementation: the literal nested search
    /// re-deriving Eq. (1) per configuration. Kept as the oracle for the
    /// optimized `search_parallelism`.
    fn reference_search(pes: u32, layers: &[&ConvInfo], allow_rows: bool) -> Parallelism {
        if layers.is_empty() || pes <= 1 {
            return Parallelism::scalar();
        }
        let cand = candidates(pes);
        let row_cand = if allow_rows { cand.clone() } else { vec![1u32] };
        let dims: Vec<[u32; 6]> = layers.iter().map(|l| l.dims).collect();
        let total = |p: &Parallelism| -> Cycles {
            dims.iter().map(|&d| Cycles::new(p.latency_cycles(d))).sum()
        };
        let mut best = Parallelism::scalar();
        let mut best_cost = total(&best);
        for &pf in &cand {
            if pf > pes {
                break;
            }
            let max_oh = pes / pf;
            for &poh in &row_cand {
                if poh > max_oh {
                    break;
                }
                let max_ow = max_oh / poh;
                for &pow in &cand {
                    if pow > max_ow {
                        break;
                    }
                    let p = Parallelism::spatial(pf, poh, pow);
                    let cost = total(&p);
                    if cost < best_cost
                        || (cost == best_cost
                            && (p.dims[0], p.dims[2], p.dims[3])
                                > (best.dims[0], best.dims[2], best.dims[3]))
                    {
                        best = p;
                        best_cost = cost;
                    }
                }
            }
        }
        best
    }

    #[test]
    fn optimized_search_matches_reference_exactly() {
        for model in [zoo::resnet50(), zoo::xception(), zoo::mobilenet_v2()] {
            let convs = model.conv_view();
            let sets: Vec<Vec<&ConvInfo>> = vec![
                vec![&convs[0]],
                convs.iter().take(5).collect(),
                convs.iter().skip(10).take(20).collect(),
                convs.iter().collect(),
            ];
            for layers in &sets {
                for pes in [2u32, 7, 100, 513, 2520] {
                    for allow_rows in [true, false] {
                        let fast = if allow_rows {
                            select_parallelism(pes, layers)
                        } else {
                            select_row_parallelism(pes, layers)
                        };
                        let slow = reference_search(pes, layers, allow_rows);
                        assert_eq!(fast, slow, "{} pes={pes} rows={allow_rows}", model.name());
                    }
                }
            }
        }
    }

    #[test]
    fn canonical_budget_search_matches_reference_at_raw_budget() {
        // Searching at the canonical budget (what the builder's memo keys
        // hold) must reproduce the reference search at the raw budget for
        // every budget of a 2520-DSP board (sampled every 11th budget to
        // keep debug-mode test time low, plus the maximum).
        const MAX: u32 = 2520;
        let table = candidates(MAX);
        let (resnet, xception, densenet) = (zoo::resnet50(), zoo::xception(), zoo::densenet121());
        let (r, x, d) = (
            resnet.conv_view(),
            xception.conv_view(),
            densenet.conv_view(),
        );
        let sets: [Vec<&ConvInfo>; 3] = [
            r.iter().take(6).collect(),
            x.iter().skip(4).take(6).collect(),
            d.iter().skip(30).take(6).collect(),
        ];
        for allow_rows in [true, false] {
            let products = budget_products(&table, MAX, allow_rows);
            assert_eq!(products.len(), if allow_rows { 362 } else { 184 });
            for pes in (2..=MAX).step_by(11).chain([MAX]) {
                let canon = canonical_budget(&products, pes);
                assert!(canon <= pes);
                for layers in &sets {
                    let dims: Vec<[u32; 6]> = layers.iter().map(|l| l.dims).collect();
                    let cand = candidate_prefix(&table, canon);
                    let fast = search_parallelism(cand, canon, allow_rows, &dims);
                    let slow = reference_search(pes, layers, allow_rows);
                    assert_eq!(fast, slow, "pes={pes} canon={canon} rows={allow_rows}");
                }
            }
        }
    }

    #[test]
    fn budget_products_are_the_feasible_factor_products() {
        let table = candidates(300);
        for allow_rows in [true, false] {
            let products = budget_products(&table, 300, allow_rows);
            let rows: &[u32] = if allow_rows { &table } else { &[1] };
            let mut direct = Vec::new();
            for &f in &table {
                for &h in rows {
                    for &w in &table {
                        if f * h * w <= 300 {
                            direct.push(f * h * w);
                        }
                    }
                }
            }
            direct.sort_unstable();
            direct.dedup();
            assert_eq!(products, direct);
            assert_eq!(canonical_budget(&products, 0), 0);
            assert_eq!(canonical_budget(&products, 1), 1);
        }
    }

    #[test]
    fn candidate_prefix_matches_direct_candidates() {
        let table = candidates(4096);
        for pes in [1u32, 2, 8, 100, 149, 150, 1024, 4096] {
            assert_eq!(
                candidate_prefix(&table, pes),
                candidates(pes).as_slice(),
                "pes {pes}"
            );
        }
    }

    #[test]
    fn single_layer_gets_dividing_factors() {
        let m = zoo::resnet50();
        let convs = m.conv_view();
        // conv1: [64, 3, 112, 112, 7, 7]; 256 PEs should divide perfectly.
        let layers = layer_refs(&convs, &[0]);
        let refs: Vec<&ConvInfo> = layers.iter().collect();
        let p = select_parallelism(256, &refs);
        let dims = convs[0].dims;
        // Perfect division -> utilization equals engaged/allocated ratio.
        let cycles = Cycles::new(p.latency_cycles(dims));
        let macs: u64 = dims.iter().map(|&d| u64::from(d)).product();
        #[allow(clippy::cast_precision_loss)] // layer MACs ≪ 2^53
        let util = macs as f64 / (cycles.as_f64() * 256.0);
        assert!(util > 0.95, "util {util}, p {p}");
    }

    #[test]
    fn respects_pe_budget() {
        let m = zoo::xception();
        let convs = m.conv_view();
        let layers: Vec<ConvInfo> = convs.iter().take(20).cloned().collect();
        let refs: Vec<&ConvInfo> = layers.iter().collect();
        for pes in [1u32, 7, 64, 300, 1800] {
            let p = select_parallelism(pes, &refs);
            assert!(p.total() <= u64::from(pes), "{pes} PEs, chose {p}");
        }
    }

    #[test]
    fn diverse_layers_yield_lower_utilization_than_single() {
        let m = zoo::resnet50();
        let convs = m.conv_view();
        let all: Vec<ConvInfo> = convs.to_vec();
        let refs_all: Vec<&ConvInfo> = all.iter().collect();
        let p_all = select_parallelism(512, &refs_all);
        // Average utilization across all layers under the compromise config.
        #[allow(clippy::cast_precision_loss)] // layer count ≪ 2^53
        let layers = all.len() as f64;
        let avg_all: f64 = all
            .iter()
            .map(|l| p_all.utilization(l.dims, 512))
            .sum::<f64>()
            / layers;

        // Per-layer specialized engines do at least as well on their layer.
        let mut better = 0;
        for l in all.iter().take(10) {
            let refs = [l];
            let p = select_parallelism(512, &refs);
            if p.utilization(l.dims, 512) >= p_all.utilization(l.dims, 512) {
                better += 1;
            }
        }
        assert_eq!(better, 10);
        assert!(
            avg_all > 0.2,
            "compromise config should still be usable: {avg_all}"
        );
    }

    #[test]
    fn empty_layers_scalar() {
        assert_eq!(select_parallelism(128, &[]), Parallelism::scalar());
    }

    #[test]
    fn deterministic() {
        let m = zoo::mobilenet_v2();
        let convs = m.conv_view();
        let layers: Vec<ConvInfo> = convs.to_vec();
        let refs: Vec<&ConvInfo> = layers.iter().collect();
        assert_eq!(
            select_parallelism(900, &refs),
            select_parallelism(900, &refs)
        );
    }

    #[test]
    fn candidates_are_sorted_unique() {
        let c = candidates(1024);
        let mut sorted = c.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(c, sorted);
        assert!(c.contains(&7) && c.contains(&112) && c.contains(&149));
    }
}
