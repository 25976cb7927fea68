//! Sample statistics, the order-independent digest, and peak memory.

use std::collections::BTreeMap;

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// 64-bit FNV-1a: a stable hash, identical across runs and platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a set of (request, outcome) pairs that does not depend on
/// the order concurrent clients completed them in.
pub fn set_digest(pairs: &[(String, String)]) -> String {
    let mut hashes: Vec<(u64, u64)> = pairs
        .iter()
        .map(|(req, out)| (fnv1a(req.as_bytes()), fnv1a(out.as_bytes())))
        .collect();
    hashes.sort_unstable();
    let bytes: Vec<u8> = hashes
        .iter()
        .flat_map(|(a, b)| a.to_le_bytes().into_iter().chain(b.to_le_bytes()))
        .collect();
    format!("{:016x}", fnv1a(&bytes))
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named per-layer samples gathered by a traced run.
#[derive(Default)]
pub struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Ledger {
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn absorb(&mut self, other: Ledger) {
        for (name, mut values) in other.samples {
            self.samples.entry(name).or_default().append(&mut values);
        }
    }

    /// Median of a metric's samples (0 when the layer never ran).
    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| v.iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
    }

    #[test]
    fn digest_ignores_order() {
        let a = vec![("x".to_string(), "1".to_string()), ("y".into(), "2".into())];
        let b = vec![a[1].clone(), a[0].clone()];
        assert_eq!(set_digest(&a), set_digest(&b));
        assert_ne!(set_digest(&a), set_digest(&a[..1]));
    }
}
