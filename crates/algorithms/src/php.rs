//! PHP (P-HP) — histogram publication through private recursive bisection
//! (Ács, Castelluccia, Chen; ICDM 2012).
//!
//! PHP spends ε₁ = ρ·ε on structure: for `log₂(n)` iterations it picks the
//! current bucket/split-point pair that most reduces the within-bucket L1
//! deviation, using the exponential mechanism (deviation cost has
//! sensitivity 2 per record, improvements sensitivity 4). The remaining
//! ε₂ measures each final bucket's count (sensitivity 1), spread uniformly
//! within buckets.
//!
//! Because the iteration count is capped at `log₂(n)`, PHP produces at
//! most `log₂(n) + 1` buckets — so on data with more than `log₂(n) + 1`
//! distinct levels the uniform-within-bucket approximation keeps a bias
//! that never vanishes: PHP is **inconsistent** (paper Theorem 6), the
//! property the benchmark's Finding 9 exposes at large scales.
//!
//! Scoring every split of a bucket costs O(len²). Each bucket's scores are
//! computed once and reused until it is split, and consecutive splits are
//! scored in lockstep lanes; the scores, and so the releases, are bit for
//! bit those of the plain per-iteration rescoring.

use dpbench_core::mechanism::{fingerprint_words, DimSupport, FnPlan, Plan, PlanDiagnostics};
use dpbench_core::primitives::{exponential_mechanism, laplace};
use dpbench_core::{BudgetLedger, DataVector, Domain, MechError, MechInfo, Mechanism, Workload};
use rand::RngCore;

/// The PHP mechanism (1-D only, like the original).
#[derive(Debug, Clone, Copy)]
pub struct Php {
    /// Fraction of ε spent on partition structure (paper default ρ = 0.5).
    pub rho: f64,
}

impl Default for Php {
    fn default() -> Self {
        Self { rho: 0.5 }
    }
}

impl Php {
    /// PHP with the paper's default ρ = 0.5.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A contiguous bucket `[lo, hi)` with its L1-deviation cost.
#[derive(Debug)]
struct Bucket {
    lo: usize,
    hi: usize,
    cost: f64,
    /// Improvement of splitting at each `s ∈ (lo, hi)`, in order of `s`;
    /// computed the first time the bucket is a candidate, then reused for
    /// every later iteration it survives unsplit.
    scores: Option<Vec<f64>>,
}

impl Bucket {
    fn new(counts: &[f64], lo: usize, hi: usize) -> Self {
        Self {
            lo,
            hi,
            cost: l1_deviation(counts, lo, hi),
            scores: None,
        }
    }

    /// Number of split points `s ∈ (lo, hi)`.
    fn splits(&self) -> usize {
        self.hi - self.lo - 1
    }

    fn scores(&mut self, counts: &[f64]) -> &[f64] {
        let (lo, hi, cost) = (self.lo, self.hi, self.cost);
        self.scores
            .get_or_insert_with(|| split_scores(counts, lo, hi, cost))
    }
}

impl Mechanism for Php {
    fn info(&self) -> MechInfo {
        let mut info = MechInfo::new("PHP", DimSupport::OneD);
        info.data_dependent = true;
        info.partitioning = true;
        info.consistent = false; // Theorem 6
        info
    }

    fn plan(&self, domain: &Domain, _workload: &Workload) -> Result<Box<dyn Plan>, MechError> {
        if !self.supports(domain) {
            return Err(MechError::Unsupported {
                mechanism: "PHP".into(),
                reason: format!("domain {domain} is not 1-D"),
            });
        }
        let mech = *self;
        Ok(FnPlan::boxed(
            *domain,
            PlanDiagnostics::data_dependent("PHP"),
            move |x, budget, rng| mech.bisect_and_measure(x, budget, rng),
        ))
    }

    fn config_fingerprint(&self) -> u64 {
        fingerprint_words(&[self.rho.to_bits()])
    }
}

impl Php {
    /// The private pipeline: recursive bisection (ε₁) then bucket
    /// measurement (ε₂).
    fn bisect_and_measure(
        &self,
        x: &DataVector,
        budget: &mut BudgetLedger,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, MechError> {
        let n = x.n_cells();
        let counts = x.counts();
        let iterations = (n as f64).log2().ceil().max(1.0) as usize;
        let eps1 = budget.spend_fraction_as("structure", self.rho)?;
        let eps2 = budget.spend_all_as("buckets");
        let eps_per_iter = eps1 / iterations as f64;

        let mut buckets = vec![Bucket::new(counts, 0, n)];
        let mut scores: Vec<f64> = Vec::new();
        for _ in 0..iterations {
            // Candidate splits: every bucket's split scores, in bucket order.
            scores.clear();
            for b in buckets.iter_mut() {
                scores.extend_from_slice(b.scores(counts));
            }
            if scores.is_empty() {
                break; // every bucket is a single cell
            }
            // Improvement = difference of deviation costs, each with
            // per-record sensitivity 2 → score sensitivity 4.
            let mut chosen = exponential_mechanism(&scores, 4.0, eps_per_iter, rng);
            let mut bi = 0;
            while chosen >= buckets[bi].splits() {
                chosen -= buckets[bi].splits();
                bi += 1;
            }
            let (lo, hi) = (buckets[bi].lo, buckets[bi].hi);
            let s = lo + 1 + chosen;
            buckets[bi] = Bucket::new(counts, lo, s);
            buckets.push(Bucket::new(counts, s, hi));
        }

        // Measure bucket totals (partition → sensitivity 1) and expand.
        let mut est = vec![0.0; n];
        for b in &buckets {
            let total: f64 = counts[b.lo..b.hi].iter().sum();
            let noisy = total + laplace(1.0 / eps2, rng);
            let share = noisy / (b.hi - b.lo) as f64;
            for e in est[b.lo..b.hi].iter_mut() {
                *e = share;
            }
        }
        Ok(est)
    }
}

/// The improvement `cost − l1(lo, s) − l1(s, hi)` of each split
/// `s ∈ (lo, hi)` of a bucket whose own deviation is `cost`, bit-identical
/// to calling [`l1_deviation`] per split: every sum still adds its terms in
/// index order, but `LANES` consecutive splits run in lockstep, so their
/// independent sums overlap instead of waiting on one another. (A lane
/// starting from +0.0 where `Iterator::sum` may start from −0.0 can change
/// only the sign of a zero sum, which `|c − mean|` erases.)
fn split_scores(counts: &[f64], lo: usize, hi: usize, cost: f64) -> Vec<f64> {
    const LANES: usize = 16;
    let mut scores = Vec::with_capacity(hi - lo - 1);
    // Σ counts[lo..s0), carried forward in index order.
    let mut left_sum: f64 = counts[lo..lo + 1].iter().sum();
    let mut s0 = lo + 1;
    while s0 + LANES <= hi {
        // Lane g scores the split at s0 + g.
        let mut left_mean = [0.0; LANES];
        for (g, mean) in left_mean.iter_mut().enumerate() {
            *mean = left_sum / (s0 + g - lo) as f64;
            left_sum += counts[s0 + g];
        }
        let mut left = [0.0; LANES];
        for &c in &counts[lo..s0] {
            for (dev, mean) in left.iter_mut().zip(&left_mean) {
                *dev += (c - mean).abs();
            }
        }
        for (g, (dev, mean)) in left.iter_mut().zip(&left_mean).enumerate() {
            for &c in &counts[s0..s0 + g] {
                *dev += (c - mean).abs();
            }
        }

        let shared = &counts[s0 + LANES..hi];
        let mut right_sum = [0.0; LANES];
        for (g, sum) in right_sum.iter_mut().enumerate() {
            for &c in &counts[s0 + g..s0 + LANES] {
                *sum += c;
            }
        }
        for &c in shared {
            for sum in right_sum.iter_mut() {
                *sum += c;
            }
        }
        let right_mean: [f64; LANES] = std::array::from_fn(|g| right_sum[g] / (hi - s0 - g) as f64);
        let mut right = [0.0; LANES];
        for (g, (dev, mean)) in right.iter_mut().zip(&right_mean).enumerate() {
            for &c in &counts[s0 + g..s0 + LANES] {
                *dev += (c - mean).abs();
            }
        }
        for &c in shared {
            for (dev, mean) in right.iter_mut().zip(&right_mean) {
                *dev += (c - mean).abs();
            }
        }

        scores.extend(left.iter().zip(&right).map(|(l, r)| cost - l - r));
        s0 += LANES;
    }
    scores
        .extend((s0..hi).map(|s| cost - l1_deviation(counts, lo, s) - l1_deviation(counts, s, hi)));
    scores
}

/// `Σ |x_i − mean|` over `counts[lo..hi)`.
fn l1_deviation(counts: &[f64], lo: usize, hi: usize) -> f64 {
    debug_assert!(lo < hi);
    let len = (hi - lo) as f64;
    let mean: f64 = counts[lo..hi].iter().sum::<f64>() / len;
    counts[lo..hi].iter().map(|&c| (c - mean).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_core::{Domain, Loss};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bucket_count_bounded_by_iterations() {
        // PHP on n=64 runs 6 iterations → at most 7 buckets, so at most 7
        // distinct estimate values.
        let counts: Vec<f64> = (0..64).map(|i| (i * i) as f64).collect();
        let x = DataVector::new(counts, Domain::D1(64));
        let w = Workload::identity(Domain::D1(64));
        let mut rng = StdRng::seed_from_u64(70);
        let est = Php::new().run_eps(&x, &w, 1e8, &mut rng).unwrap();
        let mut distinct: Vec<u64> = est.iter().map(|v| v.to_bits()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= 7, "{} distinct values", distinct.len());
    }

    #[test]
    fn inconsistent_on_rich_data() {
        // More distinct levels than buckets → persistent bias at ε → ∞.
        let counts: Vec<f64> = (0..64).map(|i| (i as f64) * 100.0).collect();
        let x = DataVector::new(counts, Domain::D1(64));
        let w = Workload::identity(Domain::D1(64));
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(71);
        let est = Php::new().run_eps(&x, &w, 1e9, &mut rng).unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err > 10.0, "bias should persist, err = {err}");
    }

    #[test]
    fn near_exact_on_piecewise_constant_data() {
        // Two flat regions: one split suffices; bias → 0 at high ε.
        let mut counts = vec![10.0; 32];
        for c in counts[16..].iter_mut() {
            *c = 500.0;
        }
        let x = DataVector::new(counts, Domain::D1(32));
        let w = Workload::identity(Domain::D1(32));
        let y = w.evaluate(&x);
        let mut rng = StdRng::seed_from_u64(72);
        let est = Php::new().run_eps(&x, &w, 1e8, &mut rng).unwrap();
        let err = Loss::L2.eval(&y, &w.evaluate_cells(&est));
        assert!(err < 1.0, "err {err}");
    }

    #[test]
    fn estimates_cover_domain() {
        let x = DataVector::new(vec![5.0; 128], Domain::D1(128));
        let w = Workload::identity(Domain::D1(128));
        let mut rng = StdRng::seed_from_u64(73);
        let est = Php::new().run_eps(&x, &w, 0.5, &mut rng).unwrap();
        assert_eq!(est.len(), 128);
        assert!(est.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn split_scores_match_per_split_deviations_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(74);
        let counts: Vec<f64> = (0..300)
            .map(|i| match i % 3 {
                0 => rng.gen_range(0.0..1e3),
                1 => 0.0,
                _ => rng.gen_range(0.0..1.0),
            })
            .collect();
        for (lo, hi) in [(0, 300), (0, 2), (5, 21), (5, 22), (17, 250), (290, 300)] {
            let cost = l1_deviation(&counts, lo, hi);
            let got: Vec<u64> = split_scores(&counts, lo, hi, cost)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u64> = (lo + 1..hi)
                .map(|s| {
                    let score = cost - l1_deviation(&counts, lo, s) - l1_deviation(&counts, s, hi);
                    score.to_bits()
                })
                .collect();
            assert_eq!(got, want, "bucket [{lo}, {hi})");
        }
    }

    #[test]
    fn l1_deviation_known() {
        assert_eq!(l1_deviation(&[1.0, 3.0], 0, 2), 2.0);
        assert_eq!(l1_deviation(&[5.0, 5.0, 5.0], 0, 3), 0.0);
    }

    #[test]
    fn is_1d_only() {
        assert!(!Php::new().supports(&Domain::D2(8, 8)));
    }
}
