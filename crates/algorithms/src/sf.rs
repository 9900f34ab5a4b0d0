//! SF (StructureFirst) — differentially private histogram publication
//! (Xu, Zhang, Xiao, Yang, Yu, Winslett; VLDBJ 2013).
//!
//! SF first commits to a histogram *structure*: the V-optimal partition of
//! the domain into `k = ⌈n/10⌉` buckets (minimum total within-bucket
//! squared error), computed by dynamic programming on the true data and
//! then *perturbed* by sampling each bucket boundary backward through the
//! DP table with the exponential mechanism (per-boundary budget
//! `ε₁/(k−1)`, score sensitivity `2F + 1` where `F` bounds a cell count —
//! scale-derived side information, as flagged in Table 1). The remaining
//! ε₂ then measures the buckets.
//!
//! Two measurement variants:
//! * [`StructureFirst::mean_based`]: noisy bucket totals spread uniformly
//!   — **inconsistent** (paper Theorem 7: with `k < n` fixed, bucket bias
//!   persists as ε → ∞);
//! * [`StructureFirst::new`] (default): the Sec.-6.2 modification the
//!   benchmark evaluates — an H hierarchy *inside* each bucket (disjoint
//!   buckets → parallel composition), which restores consistency.
//!
//! SF is **not** scale-ε exchangeable (Theorem 10: the SSE score is
//! quadratic in scale) though it behaves so empirically.
//!
//! Width cap: the exact DP is O(n²k); we cap bucket widths at
//! `w = 16·⌈n/k⌉` — transitions the V-optimal solution essentially never
//! takes at `k = n/10` — so [`VOptDp::build`] costs O(n·k·w): 242M
//! feasible candidate transitions at n = 4096, k = 410, w = 160. The build
//! is 97% of SF's time, so its inner loop is a branch-free min over each
//! cell's feasible window, compiled once portably and once for AVX2
//! (picked at run time). It returns the same table bit for bit as the
//! plain loop.
//!
//! Speedups that were rejected:
//! * Monotone-argmin methods (divide-and-conquer, Knuth, SMAWK) are
//!   unsound here: they need the SSE cost to satisfy the quadrangle
//!   inequality, and counts `[0, 10, 0]` violate it
//!   (`sse[0,2) + sse[1,3) = 100 > sse[0,3) + sse[1,2) ≈ 66.7`). A
//!   divide-and-conquer DP ran 11× faster at n = 4096 but got table cells
//!   wrong by up to 75 (relative error, normalized by `max(|value|, 1)`)
//!   over 8 catalog shapes × 3 scales.
//! * Exact lower-bound pruning of candidates gave only 1.0–2.5×,
//!   depending on the data.

use crate::hierarchy::Hierarchy;
use dpbench_core::mechanism::{fingerprint_words, DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::primitives::{exponential_mechanism, laplace};
use dpbench_core::{BudgetLedger, DataVector, Domain, MechError, MechInfo, Mechanism, Workload};
use rand::RngCore;

/// Bucket measurement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SfMeasurement {
    /// Noisy bucket totals, uniform within (the base algorithm).
    Mean,
    /// H hierarchy within each bucket (the consistency modification of
    /// Xu et al. Sec. 6.2, used by the benchmark).
    Hierarchical,
}

/// The SF mechanism (1-D only).
#[derive(Debug, Clone, Copy)]
pub struct StructureFirst {
    /// Budget fraction for boundary selection (default 0.5).
    pub rho: f64,
    /// Bucket-width cap as a multiple of the average width `n/k`.
    pub width_factor: usize,
    /// Measurement variant.
    pub measurement: SfMeasurement,
    /// Scale used to derive the count bound `F`: `None` = true scale as
    /// side information; `Some(v)` = externally supplied (`Rside` repair).
    pub scale_hint: Option<f64>,
}

impl Default for StructureFirst {
    fn default() -> Self {
        Self {
            rho: 0.5,
            width_factor: 16,
            measurement: SfMeasurement::Hierarchical,
            scale_hint: None,
        }
    }
}

impl StructureFirst {
    /// SF with the consistency modification (the benchmark's variant).
    pub fn new() -> Self {
        Self::default()
    }

    /// The base mean-based SF (inconsistent; used to demonstrate
    /// Theorem 7).
    pub fn mean_based() -> Self {
        Self {
            measurement: SfMeasurement::Mean,
            ..Self::default()
        }
    }

    /// Xu et al.'s recommended bucket count `k = ⌈n/10⌉`.
    pub fn bucket_count(n: usize) -> usize {
        n.div_ceil(10).max(1)
    }
}

impl Mechanism for StructureFirst {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new("SF", DimSupport::OneD);
        info.data_dependent = true;
        info.partitioning = true;
        info.side_info = Some("scale".into());
        info.consistent = self.measurement == SfMeasurement::Hierarchical;
        info.scale_eps_exchangeable = false; // Theorem 10
        info
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        if domain.dims() != 1 {
            return Err(MechError::Unsupported {
                mechanism: "SF".into(),
                reason: "1-D only".into(),
            });
        }
        let mech = *self;
        Ok(FnPlan::boxed(
            *domain,
            PlanDiagnostics::data_dependent("SF"),
            move |x, budget, rng| mech.partition_and_measure(x, budget, rng),
        ))
    }

    fn config_fingerprint(&self) -> u64 {
        fingerprint_words(&[
            self.rho.to_bits(),
            self.width_factor as u64,
            matches!(self.measurement, SfMeasurement::Hierarchical) as u64,
            self.scale_hint.map_or(0, f64::to_bits),
        ])
    }
}

impl StructureFirst {
    /// The private pipeline: V-optimal boundary sampling (ε₁) then bucket
    /// measurement (ε₂).
    fn partition_and_measure(
        &self,
        x: &DataVector,
        budget: &mut BudgetLedger,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, MechError> {
        let n = x.n_cells();
        let counts = x.counts();
        let k = Self::bucket_count(n).min(n);
        let eps1 = budget.spend_fraction_as("boundaries", self.rho)?;
        let eps2 = budget.spend_all_as("buckets");

        // V-optimal DP with capped widths.
        let width = (n.div_ceil(k) * self.width_factor).clamp(1, n);
        let dp = VOptDp::build(counts, k, width);

        // Backward boundary sampling via the exponential mechanism. The
        // SSE score's per-record sensitivity is bounded by 2F + 1, with F
        // an upper bound on a cell count derived from the scale (side
        // information): F = max(1, 2·m/k).
        let scale = self.scale_hint.unwrap_or_else(|| x.scale());
        let f_bound = (2.0 * scale / k as f64).max(1.0);
        let sensitivity = 2.0 * f_bound + 1.0;
        let eps_boundary = if k > 1 { eps1 / (k - 1) as f64 } else { eps1 };

        let mut boundaries = vec![n]; // right edges, built backward
        let mut right = n;
        for j in (2..=k).rev() {
            // Candidate left edges s for the bucket ending at `right`.
            let lo = right.saturating_sub(width).max(j - 1);
            let hi = right - 1;
            if lo > hi {
                break;
            }
            let scores: Vec<f64> = (lo..=hi)
                .map(|s| {
                    let structure = dp.table[j - 1][s];
                    if structure.is_finite() {
                        -(structure + dp.sse(s, right))
                    } else {
                        f64::NEG_INFINITY
                    }
                })
                .collect();
            let chosen = lo + exponential_mechanism(&scores, sensitivity, eps_boundary, rng);
            boundaries.push(chosen);
            right = chosen;
            if right == j - 1 {
                // Forced: remaining buckets are singletons.
                for s in (1..j - 1).rev() {
                    boundaries.push(s);
                }
                break;
            }
        }
        boundaries.push(0);
        boundaries.sort_unstable();
        boundaries.dedup();

        // Measure buckets.
        let mut est = vec![0.0; n];
        for w in boundaries.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            match self.measurement {
                SfMeasurement::Mean => {
                    let total: f64 = counts[lo..hi].iter().sum();
                    let noisy = total + laplace(1.0 / eps2, rng);
                    let share = noisy / (hi - lo) as f64;
                    for e in est[lo..hi].iter_mut() {
                        *e = share;
                    }
                }
                SfMeasurement::Hierarchical => {
                    // Disjoint buckets → parallel composition: each bucket
                    // runs a full-ε₂ H hierarchy.
                    let len = hi - lo;
                    let sub = DataVector::new(counts[lo..hi].to_vec(), Domain::D1(len));
                    let hier = Hierarchy::build(Domain::D1(len), 2, usize::MAX);
                    let level_eps = vec![eps2 / hier.height() as f64; hier.height()];
                    let sub_est = hier.measure_and_infer(&sub, &level_eps, rng);
                    est[lo..hi].copy_from_slice(&sub_est);
                }
            }
        }
        Ok(est)
    }
}

/// V-optimal dynamic program with width-capped transitions.
pub struct VOptDp {
    /// `table[j][i]` = minimum SSE partitioning the first `i` cells into
    /// `j` buckets (∞ when infeasible under the width cap).
    pub table: Vec<Vec<f64>>,
    prefix: Vec<f64>,
    prefix_sq: Vec<f64>,
    /// Maximum bucket width used in the transitions.
    pub width: usize,
}

impl VOptDp {
    /// Build the DP for `k` buckets with the given width cap.
    pub fn build(counts: &[f64], k: usize, width: usize) -> Self {
        let n = counts.len();
        let mut prefix = vec![0.0; n + 1];
        let mut prefix_sq = vec![0.0; n + 1];
        for (i, &c) in counts.iter().enumerate() {
            prefix[i + 1] = prefix[i] + c;
            prefix_sq[i + 1] = prefix_sq[i] + c * c;
        }
        let mut table = vec![vec![f64::INFINITY; n + 1]; k + 1];
        table[0][0] = 0.0;
        fill_table(&mut table, &prefix, &prefix_sq, width);
        Self {
            table,
            prefix,
            prefix_sq,
            width,
        }
    }

    /// Within-bucket squared error of `counts[lo..hi)` around its mean.
    #[inline]
    pub fn sse(&self, lo: usize, hi: usize) -> f64 {
        let len = (hi - lo) as f64;
        let sum = self.prefix[hi] - self.prefix[lo];
        let sum_sq = self.prefix_sq[hi] - self.prefix_sq[lo];
        bucket_sse(sum, sum_sq, len)
    }

    /// Optimal total SSE with all `k` buckets over the full domain.
    pub fn optimal_cost(&self) -> f64 {
        *self
            .table
            .last()
            .and_then(|row| row.last())
            .expect("non-empty table")
    }
}

/// Fills rows `1..` of `table` from row 0 with the fastest kernel the CPU
/// supports, chosen once per build. Both kernels return identical bits.
fn fill_table(table: &mut [Vec<f64>], prefix: &[f64], prefix_sq: &[f64], width: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked just above.
        unsafe { fill_table_avx2(table, prefix, prefix_sq, width) };
        return;
    }
    fill_rows(table, prefix, prefix_sq, width);
}

/// [`fill_rows`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_table_avx2(table: &mut [Vec<f64>], prefix: &[f64], prefix_sq: &[f64], width: usize) {
    fill_rows(table, prefix, prefix_sq, width);
}

/// The DP recurrence `table[j][i] = min_s table[j−1][s] + sse(s, i)` over
/// `s ∈ [i − width, i)`. Row `j − 1` is finite exactly on
/// `s ∈ [j − 1, (j − 1)·width]`, so each window is clipped to that range
/// and every remaining candidate is finite; cells past `j·width` have an
/// empty window and stay ∞.
#[inline(always)]
fn fill_rows(table: &mut [Vec<f64>], prefix: &[f64], prefix_sq: &[f64], width: usize) {
    // Cell indices as f64: `i as f64 − s as f64` is exactly `(i − s) as f64`.
    let cells: Vec<f64> = (0..prefix.len()).map(|s| s as f64).collect();
    for j in 1..table.len() {
        let (done, rest) = table.split_at_mut(j);
        let (prev, row) = (&done[j - 1], &mut rest[0]);
        let reach = (j - 1).saturating_mul(width);
        let last = (row.len() - 1).min(j.saturating_mul(width));
        for i in j..=last {
            let lo = i.saturating_sub(width).max(j - 1);
            let hi = i.min(reach + 1);
            row[i] = window_min(
                &prev[lo..hi],
                &prefix[lo..hi],
                &prefix_sq[lo..hi],
                &cells[lo..hi],
                (prefix[i], prefix_sq[i], cells[i]),
            );
        }
    }
}

/// `min_s prev[s] + sse(s, i)` over one window. The min runs in independent
/// lanes over fixed-size chunks so LLVM vectorizes it; costs are never
/// NaN, so the order in which they are compared does not change the result.
#[inline(always)]
fn window_min(
    prev: &[f64],
    prefix: &[f64],
    prefix_sq: &[f64],
    cells: &[f64],
    end: (f64, f64, f64),
) -> f64 {
    const LANES: usize = 8;
    let (prev_c, prev_t) = prev.as_chunks::<LANES>();
    let (prefix_c, prefix_t) = prefix.as_chunks::<LANES>();
    let (sq_c, sq_t) = prefix_sq.as_chunks::<LANES>();
    let (cells_c, cells_t) = cells.as_chunks::<LANES>();
    let mut acc = [f64::INFINITY; LANES];
    for (((p, a), q), c) in prev_c.iter().zip(prefix_c).zip(sq_c).zip(cells_c) {
        for l in 0..LANES {
            acc[l] = min(acc[l], cost(p[l], a[l], q[l], c[l], end));
        }
    }
    let tail = prev_t.iter().zip(prefix_t).zip(sq_t).zip(cells_t);
    for (((&p, &a), &q), &c) in tail {
        acc[0] = min(acc[0], cost(p, a, q, c, end));
    }
    acc.into_iter().fold(f64::INFINITY, min)
}

/// `prev + sse(s, i)` from the prefix values at `s` and at `i` (`end`).
#[inline(always)]
fn cost(prev: f64, prefix: f64, prefix_sq: f64, cell: f64, end: (f64, f64, f64)) -> f64 {
    let (sum_i, sq_i, cell_i) = end;
    prev + bucket_sse(sum_i - prefix, sq_i - prefix_sq, cell_i - cell)
}

/// A bucket's squared error around its mean from its sum, sum of squares
/// and length. [`VOptDp::sse`] and the DP kernel both call it, so the
/// boundary sampling scores the same bits the table was built from.
#[inline(always)]
fn bucket_sse(sum: f64, sum_sq: f64, len: f64) -> f64 {
    (sum_sq - sum * sum / len).max(0.0)
}

/// The smaller of two non-NaN values (one `minpd` lane, unlike `f64::min`).
#[inline(always)]
fn min(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::Loss;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sse_known_values() {
        let dp = VOptDp::build(&[1.0, 3.0, 5.0], 1, 3);
        // Mean 3, SSE = 4 + 0 + 4 = 8.
        assert!((dp.sse(0, 3) - 8.0).abs() < 1e-9);
        assert_eq!(dp.sse(1, 2), 0.0);
    }

    #[test]
    fn dp_finds_obvious_partition() {
        // Two flat halves, k = 2 → zero cost.
        let mut counts = vec![5.0; 16];
        for c in counts[8..].iter_mut() {
            *c = 100.0;
        }
        let dp = VOptDp::build(&counts, 2, 16);
        assert!(dp.optimal_cost() < 1e-9);
    }

    #[test]
    fn capped_dp_matches_uncapped() {
        // On clustered data the V-optimal partition never uses very wide
        // buckets, so the width cap is lossless.
        let mut counts = vec![0.0; 128];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = match i / 16 {
                0 => 10.0,
                1 => 50.0,
                2 => 10.0,
                3 => 200.0,
                4 => 0.0,
                5 => 75.0,
                6 => 30.0,
                _ => 5.0,
            };
        }
        let k = 13; // ceil(128/10)
        let capped = VOptDp::build(&counts, k, 16 * (128_usize.div_ceil(k)));
        let uncapped = VOptDp::build(&counts, k, 128);
        assert!(
            (capped.optimal_cost() - uncapped.optimal_cost()).abs() < 1e-9,
            "capped {} vs uncapped {}",
            capped.optimal_cost(),
            uncapped.optimal_cost()
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernel_matches_portable_kernel() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipped: this CPU lacks AVX2");
            return;
        }
        let mut rng = StdRng::seed_from_u64(133);
        for n in [1, 2, 7, 9, 33, 100, 257, 600] {
            let counts: Vec<f64> = (0..n)
                .map(|i| match i % 4 {
                    0 => 0.0,
                    1 => rng.gen_range(0.0..1e4),
                    _ => (i % 13) as f64,
                })
                .collect();
            let mut prefix = vec![0.0; n + 1];
            let mut prefix_sq = vec![0.0; n + 1];
            for (i, &c) in counts.iter().enumerate() {
                prefix[i + 1] = prefix[i] + c;
                prefix_sq[i + 1] = prefix_sq[i] + c * c;
            }
            let k = StructureFirst::bucket_count(n);
            for width in [1, 3, 16 * n.div_ceil(k), n + 1] {
                let mut portable = vec![vec![f64::INFINITY; n + 1]; k + 1];
                portable[0][0] = 0.0;
                let mut avx2 = portable.clone();
                fill_rows(&mut portable, &prefix, &prefix_sq, width);
                // SAFETY: AVX2 support was checked at the top of the test.
                unsafe { fill_table_avx2(&mut avx2, &prefix, &prefix_sq, width) };
                let bits = |t: &[Vec<f64>]| -> Vec<u64> {
                    t.iter().flatten().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&portable), bits(&avx2), "n={n} width={width}");
            }
        }
    }

    #[test]
    fn bucket_count_rule() {
        assert_eq!(StructureFirst::bucket_count(4096), 410);
        assert_eq!(StructureFirst::bucket_count(5), 1);
    }

    #[test]
    fn mean_variant_is_inconsistent() {
        // Strictly increasing data: k = n/10 buckets cannot represent n
        // distinct values → bias persists at ε → ∞ (Theorem 7).
        let counts: Vec<f64> = (0..100).map(|i| i as f64 * 10.0).collect();
        let x = DataVector::new(counts, Domain::D1(100));
        let w = Workload::identity(Domain::D1(100));
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(130);
        let est = StructureFirst::mean_based()
            .run_eps(&x, &w, 1e9, &mut rng)
            .unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err > 1.0, "bias should persist: err {err}");
    }

    #[test]
    fn hierarchical_variant_is_consistent() {
        let counts: Vec<f64> = (0..100).map(|i| i as f64 * 10.0).collect();
        let x = DataVector::new(counts, Domain::D1(100));
        let w = Workload::identity(Domain::D1(100));
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(131);
        let est = StructureFirst::new()
            .run_eps(&x, &w, 1e10, &mut rng)
            .unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err < 1.0, "modified SF should be consistent: err {err}");
    }

    #[test]
    fn runs_at_realistic_settings() {
        let mut rng = StdRng::seed_from_u64(132);
        let counts: Vec<f64> = (0..256).map(|i| ((i * 31) % 17) as f64).collect();
        let x = DataVector::new(counts, Domain::D1(256));
        let w = Workload::prefix_1d(256);
        let est = StructureFirst::new()
            .run_eps(&x, &w, 0.1, &mut rng)
            .unwrap();
        assert_eq!(est.len(), 256);
        assert!(est.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rejects_2d() {
        assert!(!StructureFirst::new().supports(&Domain::D2(8, 8)));
    }
}
