//! Mergeable streaming quantile sketch (t-digest).
//!
//! P² quantile sketches (Jain & Chlamtac, CACM 1985) are O(1) but do
//! **not** merge: two P² states cannot be combined into the state a
//! single pass over the union would have produced, so a sharded grid had
//! to round-trip raw JSONL samples to aggregate across shards. The
//! t-digest (Dunning & Ertl) closes that gap: it keeps a compressed list
//! of weighted centroids whose sizes shrink toward the distribution
//! tails, supports O(1) amortized insertion through a small buffer, and
//! — the point — **merges**: combining two digests and compressing is a
//! valid digest of the union stream, so shards can ship sketches instead
//! of samples.
//!
//! This is the *merging* variant: incoming points accumulate in a
//! buffer; when it fills (or on [`TDigest::compress`] / [`TDigest::merge`]),
//! buffer and centroids are sorted together and re-clustered greedily
//! under the scale function `k(q) = δ/2π · asin(2q − 1)`, which bounds
//! the centroid count by O(δ) and keeps tail centroids small (accurate
//! extreme quantiles). Everything is deterministic: same push/merge
//! sequence, same centroids, bit for bit — no RNG, no time dependence.
//!
//! ## Accuracy (the documented tolerance)
//!
//! With the default compression δ = 100, on continuous distributions the
//! mid/tail quantiles the benchmark reports (p50, p95) land within
//! **5 % relative error of the exact sample percentile, or within 1 % of
//! the sample range (`max − min`), whichever bound is looser** — and
//! this holds for a digest built in one pass *and* for any sharded
//! merge of sub-digests. `min`/`max` (hence q = 0 and q = 1) are always
//! exact, and while every observation is still its own centroid (small
//! samples, n ≲ δ/2 — including merges of small shards) quantiles are
//! **bit-exact** against the batch type-7 percentile. The property tests
//! in this module pin that contract over hundreds of seeded
//! stream/shard combinations.

use serde::{Deserialize, Serialize};

/// One cluster of the digest: `weight` observations summarized by their
/// `mean`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Centroid {
    /// Mean of the clustered observations.
    pub mean: f64,
    /// Number of observations in the cluster (integral-valued).
    pub weight: f64,
}

/// Mergeable quantile sketch. See the module docs for the accuracy
/// contract.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TDigest {
    /// Compression parameter δ: the centroid count is bounded by ~2δ.
    compression: f64,
    /// Compressed clusters, ascending by mean.
    centroids: Vec<Centroid>,
    /// Unmerged raw observations (re-clustered on the next compress).
    buffer: Vec<f64>,
    /// Exact minimum observation.
    min: f64,
    /// Exact maximum observation.
    max: f64,
    /// Total observations (centroids + buffer).
    count: u64,
}

impl Default for TDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl TDigest {
    /// Default compression (δ = 100): ≲ 200 centroids, ~1 % tail error.
    pub const DEFAULT_COMPRESSION: f64 = 100.0;

    /// Digest with the default compression.
    pub fn new() -> Self {
        Self::with_compression(Self::DEFAULT_COMPRESSION)
    }

    /// Digest with compression `delta` (≥ 10; larger = more centroids =
    /// more accurate).
    pub fn with_compression(delta: f64) -> Self {
        assert!(delta >= 10.0, "compression must be >= 10, got {delta}");
        Self {
            compression: delta,
            centroids: Vec::new(),
            // Amortize compression: re-cluster every ~4δ points.
            buffer: Vec::new(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            count: 0,
        }
    }

    /// Observations absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum (panics if empty).
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "min of empty digest");
        self.min
    }

    /// Exact maximum (panics if empty).
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "max of empty digest");
        self.max
    }

    /// The compression parameter δ.
    pub fn compression(&self) -> f64 {
        self.compression
    }

    fn buffer_cap(&self) -> usize {
        (4.0 * self.compression) as usize
    }

    /// Add one observation. NaN is rejected (the benchmark's losses are
    /// always finite; a NaN would silently poison every quantile).
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot push NaN into a t-digest");
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.count += 1;
        self.buffer.push(x);
        if self.buffer.len() >= self.buffer_cap() {
            self.compress();
        }
    }

    /// Scale function `k(q) = δ/2π · asin(2q − 1)`; adjacent centroids
    /// may fuse while their k-span stays ≤ 1.
    fn k(&self, q: f64) -> f64 {
        self.compression / (2.0 * std::f64::consts::PI) * (2.0 * q - 1.0).clamp(-1.0, 1.0).asin()
    }

    /// Re-cluster buffer + centroids into a fresh compressed centroid
    /// list. Idempotent once the buffer is empty… in the sense that the
    /// centroid list it produces is stable under repeated calls with no
    /// intervening pushes.
    pub fn compress(&mut self) {
        if self.buffer.is_empty() && self.centroids.len() <= 1 {
            return;
        }
        let mut items: Vec<Centroid> = Vec::with_capacity(self.centroids.len() + self.buffer.len());
        items.append(&mut self.centroids);
        items.extend(self.buffer.drain(..).map(|x| Centroid {
            mean: x,
            weight: 1.0,
        }));
        // total_cmp gives a deterministic order even for ±0 ties.
        items.sort_by(|a, b| {
            a.mean
                .total_cmp(&b.mean)
                .then(a.weight.total_cmp(&b.weight))
        });
        let total: f64 = items.iter().map(|c| c.weight).sum();
        let mut out: Vec<Centroid> = Vec::new();
        let mut iter = items.into_iter();
        let mut cur = iter.next().expect("non-empty by the guard above");
        // Cumulative weight fraction strictly before `cur`.
        let mut q_left = 0.0;
        for c in iter {
            let q_right = q_left + (cur.weight + c.weight) / total;
            if self.k(q_right) - self.k(q_left) <= 1.0 {
                // Fuse: weighted mean keeps the list sorted because both
                // inputs are adjacent in mean order.
                let w = cur.weight + c.weight;
                cur.mean = (cur.mean * cur.weight + c.mean * c.weight) / w;
                cur.weight = w;
            } else {
                q_left += cur.weight / total;
                out.push(cur);
                cur = c;
            }
        }
        out.push(cur);
        self.centroids = out;
    }

    /// Absorb another digest: afterwards `self` summarizes the union of
    /// both streams (exact count/min/max; quantiles within the module's
    /// documented tolerance). Deterministic in the merge order.
    pub fn merge(&mut self, other: &TDigest) {
        if other.count == 0 {
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.centroids.extend_from_slice(&other.centroids);
        self.buffer.extend_from_slice(&other.buffer);
        self.compress();
    }

    /// Quantile estimate for `q ∈ [0, 1]`: piecewise-linear interpolation
    /// across centroid midpoints, anchored at the exact min and max.
    /// Panics if the digest is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.count > 0, "quantile of empty digest");
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.buffer.is_empty() {
            return Self::quantile_over(&self.centroids, self.min, self.max, q);
        }
        // Rare read-while-buffered path (the sink compresses before
        // reporting): cluster a scratch copy.
        let mut flushed = self.clone();
        flushed.compress();
        Self::quantile_over(&flushed.centroids, flushed.min, flushed.max, q)
    }

    fn quantile_over(cs: &[Centroid], min: f64, max: f64, q: f64) -> f64 {
        let total: f64 = cs.iter().map(|c| c.weight).sum();
        if q <= 0.0 {
            return min;
        }
        if q >= 1.0 {
            return max;
        }
        if cs.iter().all(|c| c.weight == 1.0) {
            // Small-sample exactness: while every observation is still
            // its own centroid (n ≲ δ/2 — the scale function admits no
            // fusion at that mass), the digest holds the full sorted
            // sample and reproduces the batch percentile exactly (the
            // same type-7 rule as `describe::percentile`). This also
            // holds for merges of small shards.
            let rank = q * (cs.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            return if lo == hi {
                cs[lo].mean
            } else {
                cs[lo].mean * (1.0 - frac) + cs[hi].mean * frac
            };
        }
        let target = q * total;
        // Each centroid sits at its weight midpoint; interpolate between
        // successive midpoints, with min/max as the outermost anchors.
        let mut cum = 0.0;
        for (i, c) in cs.iter().enumerate() {
            let mid = cum + c.weight / 2.0;
            if target < mid {
                let (lo_v, lo_p) = if i == 0 {
                    (min, 0.0)
                } else {
                    (cs[i - 1].mean, cum - cs[i - 1].weight / 2.0)
                };
                if mid <= lo_p {
                    return c.mean;
                }
                return lo_v + (target - lo_p) / (mid - lo_p) * (c.mean - lo_v);
            }
            cum += c.weight;
        }
        let last = cs[cs.len() - 1];
        let lo_p = total - last.weight / 2.0;
        if total <= lo_p {
            return max;
        }
        last.mean + (target - lo_p) / (total - lo_p) * (max - last.mean)
    }

    /// Compress and expose the centroid list (ascending by mean) — the
    /// serializable state, together with min/max/compression.
    pub fn centroids(&mut self) -> &[Centroid] {
        self.compress();
        &self.centroids
    }

    /// Rebuild a digest from serialized parts. `count` is recomputed from
    /// the centroid weights (they are integral by construction).
    pub fn from_parts(compression: f64, min: f64, max: f64, centroids: Vec<Centroid>) -> Self {
        let count = centroids.iter().map(|c| c.weight).sum::<f64>().round() as u64;
        Self {
            compression,
            centroids,
            buffer: Vec::new(),
            min,
            max,
            count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::percentile;

    /// Deterministic SplitMix64 stream in [0, 1).
    fn stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                (z ^ (z >> 31)) as f64 / u64::MAX as f64
            })
            .collect()
    }

    /// The module's documented tolerance: within 5 % of the exact value
    /// or 1 % of the sample range, whichever is looser.
    fn within_tolerance(est: f64, exact: f64, lo: f64, hi: f64) -> bool {
        let err = (est - exact).abs();
        err <= (0.05 * exact.abs()).max(0.01 * (hi - lo))
    }

    fn digest_of(xs: &[f64]) -> TDigest {
        let mut d = TDigest::new();
        xs.iter().for_each(|&x| d.push(x));
        d
    }

    #[test]
    fn exact_count_min_max() {
        let xs = stream(3, 1234);
        let d = digest_of(&xs);
        assert_eq!(d.count(), 1234);
        assert_eq!(d.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(
            d.max(),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
        assert_eq!(d.quantile(0.0), d.min());
        assert_eq!(d.quantile(1.0), d.max());
    }

    #[test]
    fn single_stream_tracks_exact_percentiles() {
        for (i, seed) in [11_u64, 22, 33, 44].into_iter().enumerate() {
            // Alternate distributions: uniform / squared (benchmark-like
            // heavy mass near zero).
            let xs: Vec<f64> = stream(seed, 5_000)
                .into_iter()
                .map(|x| if i % 2 == 0 { x } else { x * x })
                .collect();
            let d = digest_of(&xs);
            let (lo, hi) = (d.min(), d.max());
            for q in [0.05, 0.25, 0.5, 0.75, 0.95, 0.99] {
                let exact = percentile(&xs, q * 100.0);
                assert!(
                    within_tolerance(d.quantile(q), exact, lo, hi),
                    "seed {seed} q {q}: est {} vs exact {exact}",
                    d.quantile(q)
                );
            }
        }
    }

    #[test]
    fn exact_at_small_sample_counts() {
        // While every observation remains its own centroid the digest
        // reproduces the batch percentile bit for bit — including across
        // shard merges (the AggregatingSink regime for paper-scale trial
        // counts).
        for n in [1_usize, 2, 5, 6, 10, 25] {
            let xs = stream(100 + n as u64, n);
            let single = digest_of(&xs);
            let mut merged = TDigest::new();
            for shard in 0..3.min(n) {
                let mut part = TDigest::new();
                xs.iter()
                    .enumerate()
                    .filter(|(i, _)| i % 3.min(n) == shard)
                    .for_each(|(_, &x)| part.push(x));
                merged.merge(&part);
            }
            for q in [0.05, 0.5, 0.95] {
                let exact = percentile(&xs, q * 100.0);
                assert_eq!(single.quantile(q).to_bits(), exact.to_bits(), "n={n} q={q}");
                assert_eq!(merged.quantile(q).to_bits(), exact.to_bits(), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn deterministic_for_identical_streams() {
        let xs = stream(5, 3000);
        let (a, b) = (digest_of(&xs), digest_of(&xs));
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.quantile(0.95).to_bits(), b.quantile(0.95).to_bits());
    }

    #[test]
    fn centroid_count_stays_bounded() {
        let mut d = TDigest::new();
        stream(9, 100_000).iter().for_each(|&x| d.push(x));
        d.compress();
        assert!(
            d.centroids.len() <= 2 * TDigest::DEFAULT_COMPRESSION as usize,
            "{} centroids",
            d.centroids.len()
        );
    }

    #[test]
    fn sorted_and_reverse_sorted_inputs() {
        for reverse in [false, true] {
            let mut xs: Vec<f64> = (0..5000).map(|i| i as f64).collect();
            if reverse {
                xs.reverse();
            }
            let d = digest_of(&xs);
            let exact = percentile(&xs, 95.0);
            assert!(
                within_tolerance(d.quantile(0.95), exact, 0.0, 4999.0),
                "reverse={reverse}: {} vs {exact}",
                d.quantile(0.95)
            );
        }
    }

    #[test]
    fn constant_stream_collapses() {
        let mut d = TDigest::new();
        (0..1000).for_each(|_| d.push(4.5));
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(d.quantile(q), 4.5);
        }
    }

    #[test]
    fn merge_of_empty_is_identity() {
        let xs = stream(17, 500);
        let mut d = digest_of(&xs);
        d.compress();
        let before = d.centroids.clone();
        d.merge(&TDigest::new());
        assert_eq!(d.centroids, before);
        let mut empty = TDigest::new();
        empty.merge(&digest_of(&xs));
        assert_eq!(empty.count(), 500);
    }

    #[test]
    fn parts_roundtrip() {
        let mut d = digest_of(&stream(23, 2000));
        let cents = d.centroids().to_vec();
        let rebuilt = TDigest::from_parts(d.compression(), d.min(), d.max(), cents);
        assert_eq!(rebuilt.count(), d.count());
        for q in [0.05, 0.5, 0.95] {
            assert_eq!(rebuilt.quantile(q).to_bits(), d.quantile(q).to_bits());
        }
    }

    /// The ISSUE's property test: ≥ 200 seeded (stream, shard-count)
    /// cases — a sharded merge must agree with the single-stream sketch
    /// and with the exact percentile within the documented tolerance.
    #[test]
    fn property_sharded_merge_matches_single_stream_and_exact() {
        let mut cases = 0;
        for seed in 0..36_u64 {
            let n = 400 + (seed as usize * 211) % 4600;
            let xs: Vec<f64> = stream(seed.wrapping_mul(0x9E37) + 1, n)
                .into_iter()
                .map(|x| match seed % 3 {
                    0 => x,                     // uniform
                    1 => x * x,                 // front-loaded
                    _ => -(1.0 - x).ln() * 0.1, // exponential-ish tail
                })
                .collect();
            let single = digest_of(&xs);
            let (lo, hi) = (single.min(), single.max());
            for k in [2_usize, 3, 5] {
                // Round-robin deal, like RunManifest::shard.
                let mut merged = TDigest::new();
                for shard in 0..k {
                    let mut part = TDigest::new();
                    xs.iter()
                        .enumerate()
                        .filter(|(i, _)| i % k == shard)
                        .for_each(|(_, &x)| part.push(x));
                    merged.merge(&part);
                }
                assert_eq!(merged.count(), single.count());
                assert_eq!(merged.min(), single.min());
                assert_eq!(merged.max(), single.max());
                for q in [0.5, 0.95] {
                    let exact = percentile(&xs, q * 100.0);
                    let m = merged.quantile(q);
                    let s = single.quantile(q);
                    assert!(
                        within_tolerance(m, exact, lo, hi),
                        "seed {seed} k {k} q {q}: merged {m} vs exact {exact}"
                    );
                    assert!(
                        within_tolerance(s, exact, lo, hi),
                        "seed {seed} k {k} q {q}: single {s} vs exact {exact}"
                    );
                    // Merged and single-stream sketches agree with each
                    // other at least as tightly.
                    assert!(
                        within_tolerance(m, s, lo, hi),
                        "seed {seed} k {k} q {q}: merged {m} vs single {s}"
                    );
                    cases += 1;
                }
            }
        }
        assert!(cases >= 200, "only {cases} property cases ran");
    }
}
