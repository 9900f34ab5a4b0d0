//! Hot-path integration tests: the O(n log² n) DAWA partition must return
//! exactly the partition of the retained O(n²) DP, the vectorized SF
//! V-optimal DP and the score-caching PHP must match their plain loops bit
//! for bit, MWEM's lane-parallel update must stay within 1e-9·total of its
//! serial loop, and executions drawing scratch from a reused [`Workspace`]
//! must be bit-identical to executions with fresh scratch.

use dpbench_algorithms::dawa::{l1_partition, l1_partition_naive};
use dpbench_algorithms::mwem::{default_star_schedule, Mwem};
use dpbench_algorithms::php::Php;
use dpbench_algorithms::registry::mechanism_by_name;
use dpbench_algorithms::sf::{StructureFirst, VOptDp};
use dpbench_core::mechanism::execute_eps_with;
use dpbench_core::primitives::{exponential_mechanism, laplace};
use dpbench_core::rng::rng_for;
use dpbench_core::{BudgetLedger, DataVector, Domain, Mechanism, RangeQuery, Workload, Workspace};
use dpbench_datasets::{catalog, DataGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Property-style equivalence suite: ≥ 200 random vectors across varied
/// domain sizes and (ε₁, ε₂) pairs. The fast partition must return
/// *identical buckets* — same count, same boundaries — as the naive DP,
/// because both visit candidate lengths in the same order with the same
/// strict-improvement rule and the clamped-to-zero cost ties are exact in
/// both.
#[test]
fn fast_partition_equals_naive_on_random_vectors() {
    let mut rng = StdRng::seed_from_u64(0xDA3A);
    let eps_pairs = [(0.05, 0.5), (0.5, 0.05), (1.0, 1.0), (10.0, 0.1)];
    let mut cases = 0;
    for round in 0..60 {
        // Mix of sizes: mostly small/medium, a few larger; both
        // powers of two and awkward odd lengths.
        let n = match round % 6 {
            0 => rng.gen_range(2..=16),
            1 => rng.gen_range(17..=64),
            2 => 1 << rng.gen_range(5_usize..=8), // 32..256
            3 => rng.gen_range(65_usize..=200) | 1,
            4 => rng.gen_range(200..=384),
            _ => rng.gen_range(16..=128),
        };
        // Piecewise-constant signal + heavy noise: the regime DAWA's
        // partition actually faces (noisy counts), plus occasional
        // all-zero and constant vectors for the exact-tie paths.
        let noisy: Vec<f64> = match round % 5 {
            0 => vec![0.0; n],
            1 => vec![rng.gen_range(0.0..50.0); n],
            _ => {
                let level = rng.gen_range(0.0..200.0);
                (0..n)
                    .map(|i| {
                        let step = if (i / 16) % 2 == 0 { level } else { 0.0 };
                        step + rng.gen_range(-30.0..30.0)
                    })
                    .collect()
            }
        };
        for &(e1, e2) in &eps_pairs {
            let fast = l1_partition(&noisy, e1, e2);
            let naive = l1_partition_naive(&noisy, e1, e2);
            assert_eq!(fast, naive, "n={n} ε₁={e1} ε₂={e2} round={round}");
            cases += 1;
        }
    }
    assert!(cases >= 200, "suite must cover ≥ 200 cases, ran {cases}");
}

/// Executing any mechanism with a freshly created workspace per trial and
/// with one workspace reused across trials (and across mechanisms) must
/// produce bit-identical releases: pooled buffers are zero-filled on take,
/// so recycled scratch can never leak state into results.
#[test]
fn workspace_reuse_is_bit_identical_to_fresh_scratch() {
    let domain = Domain::D1(256);
    let workload = Workload::prefix_1d(256);
    let mut data_rng = StdRng::seed_from_u64(7);
    let counts: Vec<f64> = (0..256)
        .map(|i| {
            let base = if i > 100 && i < 140 { 80.0 } else { 4.0 };
            base + data_rng.gen_range(0.0_f64..8.0).floor()
        })
        .collect();
    let x = DataVector::new(counts, domain);

    let mut reused = Workspace::new();
    for name in [
        "IDENTITY", "H", "HB", "GREEDY_H", "PRIVELET", "UNIFORM", "DAWA", "PHP", "EFPA", "MWEM",
    ] {
        let mech = mechanism_by_name(name).unwrap();
        let plan = mech.plan(&domain, &workload).unwrap();
        for trial in 0..3_u64 {
            let mut fresh = Workspace::new();
            let a = execute_eps_with(
                plan.as_ref(),
                &x,
                0.1,
                &mut fresh,
                &mut rng_for(name, &[trial]),
            )
            .unwrap();
            let b = execute_eps_with(
                plan.as_ref(),
                &x,
                0.1,
                &mut reused,
                &mut rng_for(name, &[trial]),
            )
            .unwrap();
            assert_eq!(
                a.estimate, b.estimate,
                "{name} trial {trial} diverges under workspace reuse"
            );
            assert_eq!(a.budget_trace, b.budget_trace);
        }
    }
}

/// 2-D spot check of the same property (exercises the Hilbert flatten
/// buffers DAWA and GREEDY_H draw from the workspace).
#[test]
fn workspace_reuse_is_bit_identical_in_2d() {
    let domain = Domain::D2(32, 32);
    let mut wrng = StdRng::seed_from_u64(21);
    let workload = Workload::random_ranges(domain, 200, &mut wrng);
    let mut counts = vec![1.0; 32 * 32];
    counts[40] = 500.0;
    counts[700] = 300.0;
    let x = DataVector::new(counts, domain);

    let mut reused = Workspace::new();
    for name in ["DAWA", "GREEDY_H", "QUADTREE", "HB"] {
        let mech = mechanism_by_name(name).unwrap();
        let plan = mech.plan(&domain, &workload).unwrap();
        for trial in 0..2_u64 {
            let mut fresh = Workspace::new();
            let a = execute_eps_with(
                plan.as_ref(),
                &x,
                0.1,
                &mut fresh,
                &mut rng_for(name, &[trial]),
            )
            .unwrap();
            let b = execute_eps_with(
                plan.as_ref(),
                &x,
                0.1,
                &mut reused,
                &mut rng_for(name, &[trial]),
            )
            .unwrap();
            assert_eq!(a.estimate, b.estimate, "{name} 2-D trial {trial}");
        }
    }
}

/// The plain V-optimal DP loop: every candidate `s ∈ [i − width, i)` with
/// a finite predecessor, compared in order. [`VOptDp::build`] must return
/// this table bit for bit.
fn vopt_table_reference(counts: &[f64], k: usize, width: usize) -> Vec<Vec<f64>> {
    let n = counts.len();
    let mut prefix = vec![0.0; n + 1];
    let mut prefix_sq = vec![0.0; n + 1];
    for (i, &c) in counts.iter().enumerate() {
        prefix[i + 1] = prefix[i] + c;
        prefix_sq[i + 1] = prefix_sq[i] + c * c;
    }
    let sse = |lo: usize, hi: usize| {
        let len = (hi - lo) as f64;
        let sum = prefix[hi] - prefix[lo];
        let sum_sq = prefix_sq[hi] - prefix_sq[lo];
        (sum_sq - sum * sum / len).max(0.0)
    };
    let mut table = vec![vec![f64::INFINITY; n + 1]; k + 1];
    table[0][0] = 0.0;
    for j in 1..=k {
        for i in j..=n {
            let lo = i.saturating_sub(width).max(j - 1);
            let mut best = f64::INFINITY;
            for (s, &prev) in table[j - 1].iter().enumerate().take(i).skip(lo) {
                if prev.is_finite() {
                    let cost = prev + sse(s, i);
                    if cost < best {
                        best = cost;
                    }
                }
            }
            table[j][i] = best;
        }
    }
    table
}

fn assert_vopt_matches_reference(counts: &[f64], k: usize, width: usize, what: &str) {
    let fast = VOptDp::build(counts, k, width).table;
    let reference = vopt_table_reference(counts, k, width);
    assert_eq!(fast.len(), reference.len(), "{what}: row count");
    for (j, (a, b)) in fast.iter().zip(&reference).enumerate() {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: table[{j}][{i}] = {x} vs reference {y} (n={}, k={k}, w={width})",
                counts.len()
            );
        }
    }
}

/// SF's own bucket count and width cap for a domain of `n` cells.
fn sf_shape(n: usize) -> (usize, usize) {
    let k = StructureFirst::bucket_count(n).min(n);
    (
        k,
        (n.div_ceil(k) * StructureFirst::new().width_factor).clamp(1, n),
    )
}

/// A catalog dataset's shape sampled at `scale` over `n` cells (`n` must
/// divide the 4096-cell base domain).
fn catalog_counts(name: &str, n: usize, scale: u64, seed: u64) -> Vec<f64> {
    catalog_vector(name, Domain::D1(n), scale, seed).into_counts()
}

/// A catalog dataset's shape sampled at `scale` over `domain` (which must
/// coarsen the dataset's base domain).
fn catalog_vector(name: &str, domain: Domain, scale: u64, seed: u64) -> DataVector {
    let dataset = catalog::by_name(name).expect("catalog dataset");
    DataGenerator::new().generate(&dataset, domain, scale, &mut StdRng::seed_from_u64(seed))
}

/// Property-style equivalence suite for the vectorized V-optimal DP: ≥ 200
/// seeded vectors, n from 2 to 1024 (n < 10 means k = 1), SF's own width
/// cap plus tight caps and caps ≥ n, over all-zero data, single spikes,
/// non-integer counts and catalog shapes at three scales.
#[test]
fn vopt_dp_equals_reference_loop_on_seeded_vectors() {
    let mut rng = StdRng::seed_from_u64(0x5F);
    let shapes = ["ADULT", "PATENT", "HEPTH", "TRACE"];
    let mut cases = 0;
    for round in 0..220_usize {
        let n = match round % 5 {
            0 => rng.gen_range(2..10),
            1 => rng.gen_range(10..=64),
            2 => rng.gen_range(65..=300),
            // Powers of two divide the 4096-cell base domain: 16..256,
            // 512 three times and 1024 once (the debug build is slow).
            3 if round == 13 => 1024,
            3 if round % 70 == 28 => 512,
            3 => 1 << (4 + (round / 5) % 5),
            _ => rng.gen_range(2..=200),
        };
        let counts: Vec<f64> = if round % 5 == 3 {
            let scale = [1_000, 100_000, 10_000_000][(round / 5) % 3];
            let shape = shapes[(round / 15) % shapes.len()];
            catalog_counts(shape, n, scale, round as u64)
        } else {
            match (round / 5) % 4 {
                0 => vec![0.0; n],
                1 => {
                    let mut v = vec![0.0; n];
                    v[rng.gen_range(0..n)] = rng.gen_range(1.0..1e6_f64).floor();
                    v
                }
                2 => (0..n).map(|_| rng.gen_range(0.0..50.0)).collect(),
                _ => (0..n)
                    .map(|_| (rng.gen_range(0_u32..20) * rng.gen_range(0_u32..2)) as f64)
                    .collect(),
            }
        };
        let (k, width) = sf_shape(n);
        let tight = rng.gen_range(1..=n.min(200));
        let wide = n + rng.gen_range(0_usize..3); // cap at or past the domain
        let k_alt = rng.gen_range(1..=n.min(if n > 300 { 4 } else { 24 }));
        for (k, w) in [(k, width), (k, tight), (k_alt, wide)] {
            assert_vopt_matches_reference(&counts, k, w, &format!("round {round}"));
            cases += 1;
        }
    }
    assert!(cases >= 200, "suite must cover ≥ 200 cases, ran {cases}");
}

/// Edge shapes of the column sweep's ring of past columns: every bucket a
/// singleton (`k = n`), too few buckets to cover the domain (`k·width < n`,
/// so the last row stays ∞) and one bucket spanning the whole domain.
#[test]
fn vopt_dp_equals_reference_loop_on_ring_edges() {
    let mut rng = StdRng::seed_from_u64(0x5F13);
    let mut counts = |n: usize| -> Vec<f64> {
        (0..n)
            .map(|i| match i % 3 {
                0 => 0.0,
                1 => rng.gen_range(0.0..1e3),
                _ => (i % 7) as f64,
            })
            .collect()
    };
    for n in [1, 2, 3, 17, 64] {
        let x = counts(n);
        for width in [1, 2, n, n + 2] {
            assert_vopt_matches_reference(&x, n, width, &format!("k = n = {n}"));
        }
    }
    for (n, k, width) in [(2, 1, 1), (17, 3, 5), (64, 7, 9), (64, 31, 2), (100, 40, 2)] {
        assert!(k * width < n);
        let x = counts(n);
        let table = VOptDp::build(&x, k, width).table;
        assert_eq!(table[k][n], f64::INFINITY, "n={n} k={k} w={width}");
        assert_vopt_matches_reference(&x, k, width, &format!("k·w < n = {n}"));
    }
    for n in [1, 2, 3, 17, 64, 200] {
        let x = counts(n);
        assert_vopt_matches_reference(&x, 1, n, &format!("k = 1, w = n = {n}"));
    }
}

/// Paper-scale equivalence: catalog shapes at n = 4096 with SF's own k and
/// width cap (242M candidates per build). Too slow for a debug
/// build; run with `cargo test --release --test hot_path -- --ignored`.
#[test]
#[ignore]
fn vopt_dp_equals_reference_loop_at_paper_scale() {
    let (k, width) = sf_shape(4096);
    for (seed, name) in ["ADULT", "PATENT", "INCOME", "BIDS-FJ"].iter().enumerate() {
        for scale in [1_000, 100_000, 10_000_000] {
            let counts = catalog_counts(name, 4096, scale, seed as u64);
            assert_vopt_matches_reference(&counts, k, width, &format!("{name} @ {scale}"));
        }
    }
}

/// The uncached PHP pipeline: every iteration rescores every split of
/// every bucket from scratch. [`Php`] must release the same bits for the
/// same RNG stream.
fn php_reference(counts: &[f64], rho: f64, eps: f64, rng: &mut StdRng) -> Vec<f64> {
    let l1 = |lo: usize, hi: usize| {
        let len = (hi - lo) as f64;
        let mean: f64 = counts[lo..hi].iter().sum::<f64>() / len;
        counts[lo..hi]
            .iter()
            .map(|&c| (c - mean).abs())
            .sum::<f64>()
    };
    let n = counts.len();
    let iterations = (n as f64).log2().ceil().max(1.0) as usize;
    let eps1 = rho * eps;
    let eps2 = eps - eps1;
    let eps_per_iter = eps1 / iterations as f64;
    let mut buckets = vec![(0, n, l1(0, n))];
    for _ in 0..iterations {
        let mut candidates = Vec::new();
        let mut scores = Vec::new();
        for (bi, &(lo, hi, cost)) in buckets.iter().enumerate() {
            for s in lo + 1..hi {
                candidates.push((bi, s));
                scores.push(cost - l1(lo, s) - l1(s, hi));
            }
        }
        if candidates.is_empty() {
            break;
        }
        let (bi, s) = candidates[exponential_mechanism(&scores, 4.0, eps_per_iter, rng)];
        let (lo, hi, _) = buckets[bi];
        buckets[bi] = (lo, s, l1(lo, s));
        buckets.push((s, hi, l1(s, hi)));
    }
    let mut est = vec![0.0; n];
    for &(lo, hi, _) in &buckets {
        let total: f64 = counts[lo..hi].iter().sum();
        let share = (total + laplace(1.0 / eps2, rng)) / (hi - lo) as f64;
        est[lo..hi].fill(share);
    }
    est
}

/// PHP with cached split scores releases exactly what the uncached
/// pipeline releases: n = 1 and 2, flat data (all scores tied), spiky
/// catalog shapes and non-integer counts, at ε ∈ {0.01, 0.1, 10}.
#[test]
fn php_equals_uncached_reference() {
    let mut data_rng = StdRng::seed_from_u64(0x9B9);
    let mut vectors: Vec<(String, Vec<f64>)> = vec![
        ("n=1".into(), vec![7.0]),
        ("n=2".into(), vec![3.0, 40.0]),
        ("flat".into(), vec![12.0; 100]),
        ("zeros".into(), vec![0.0; 64]),
        (
            "non-integer".into(),
            (0..150).map(|_| data_rng.gen_range(0.0..30.0)).collect(),
        ),
    ];
    vectors.push((
        "odd length".into(),
        (0..37).map(|i| ((i * 7) % 5) as f64 * 1.5).collect(),
    ));
    for (name, n, scale) in [
        ("ADULT", 256, 1_000),
        ("PATENT", 256, 100_000),
        ("HEPTH", 256, 10_000_000),
        ("TRACE", 1024, 100_000),
    ] {
        vectors.push((
            format!("{name}@{scale} n={n}"),
            catalog_counts(name, n, scale, 3),
        ));
    }
    let php = Php::new();
    for (what, counts) in &vectors {
        let n = counts.len();
        let x = DataVector::new(counts.clone(), Domain::D1(n));
        let w = Workload::identity(Domain::D1(n));
        for eps in [0.01, 0.1, 10.0] {
            for seed in 0..3_u64 {
                let got = php
                    .run_eps(&x, &w, eps, &mut StdRng::seed_from_u64(seed))
                    .unwrap();
                let want = php_reference(counts, php.rho, eps, &mut StdRng::seed_from_u64(seed));
                let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{what} ε={eps} seed={seed}");
            }
        }
    }
}

/// MWEM's select–measure–update loop as it ran before its update went
/// lane-parallel: every update sums its query serially and renormalises
/// the whole domain. `star` selects MWEM*'s scale estimate and tuned
/// schedule; otherwise it is the original MWEM (T = 10, true scale).
/// Returns the estimate and the total it was normalised to.
fn mwem_reference(
    x: &DataVector,
    workload: &Workload,
    eps: f64,
    star: bool,
    rng: &mut StdRng,
) -> (Vec<f64>, f64) {
    let domain = x.domain();
    let mut budget = BudgetLedger::new(eps);
    let total = if star {
        let eps_scale = budget.spend_fraction_as("scale-estimate", 0.05).unwrap();
        (x.scale() + laplace(1.0 / eps_scale, rng)).max(1.0)
    } else {
        x.scale()
    };
    let eps = budget.spend_all_as("rounds");
    let t_rounds = if star {
        let schedule = default_star_schedule();
        let signal = eps * total;
        schedule
            .iter()
            .find(|(bound, _)| signal <= *bound)
            .or(schedule.last())
            .unwrap()
            .1
    } else {
        10
    };
    let eps_round = eps / t_rounds as f64;
    let y_true = workload.evaluate(x);
    let queries = workload.queries();
    let mut est = vec![total / x.n_cells() as f64; x.n_cells()];
    let mut history: Vec<(RangeQuery, f64)> = Vec::new();
    for _ in 0..t_rounds {
        let answers = workload.evaluate_cells(&est);
        let scores: Vec<f64> = y_true
            .iter()
            .zip(&answers)
            .map(|(t, e)| (t - e).abs())
            .collect();
        let chosen = exponential_mechanism(&scores, 1.0, eps_round / 2.0, rng);
        let measured = y_true[chosen] + laplace(2.0 / eps_round, rng);
        history.push((queries[chosen], measured));
        for _ in 0..3 {
            for &(q, m) in &history {
                let mut cur = 0.0;
                for r in q.lo.0..=q.hi.0 {
                    for c in q.lo.1..=q.hi.1 {
                        cur += est[domain.index((r, c))];
                    }
                }
                let factor = ((m - cur) / (2.0 * total)).clamp(-20.0, 20.0).exp();
                for r in q.lo.0..=q.hi.0 {
                    for c in q.lo.1..=q.hi.1 {
                        est[domain.index((r, c))] *= factor;
                    }
                }
                let sum: f64 = est.iter().sum();
                if sum > 0.0 {
                    let scale = total / sum;
                    for e in est.iter_mut() {
                        *e *= scale;
                    }
                }
            }
        }
    }
    (est, total)
}

/// A seeded MWEM (or MWEM*) release stays within 1e-9·total of the serial
/// reference in every cell, and sums to the same total within 1e-9
/// relative. A different selected query would move cells by far more.
fn assert_mwem_matches_reference(x: &DataVector, workload: &Workload, star: bool, seed: u64) {
    let eps = 0.1;
    let mech = if star { Mwem::star() } else { Mwem::original() };
    let got = mech
        .run_eps(x, workload, eps, &mut StdRng::seed_from_u64(seed))
        .unwrap();
    let (want, total) = mwem_reference(x, workload, eps, star, &mut StdRng::seed_from_u64(seed));
    let what = format!(
        "{} on {} cells, scale {}, seed {seed}",
        mech.info().name,
        x.domain(),
        x.scale()
    );
    let linf = got
        .iter()
        .zip(&want)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(linf <= 1e-9 * total, "{what}: L∞ {linf} vs total {total}");
    let sum: f64 = got.iter().sum();
    assert!(
        (sum - total).abs() <= 1e-9 * total,
        "{what}: Σ {sum} vs total {total}"
    );
}

/// MWEM and MWEM* at n ≤ 512 on Prefix and random-range workloads and on
/// a 32×32 grid: three scales span MWEM*'s schedule from T = 5 to T = 100.
#[test]
fn mwem_matches_serial_reference() {
    for (name, n, scales) in [
        ("ADULT", 64, &[1_000, 100_000, 10_000_000][..]),
        ("PATENT", 256, &[1_000, 100_000][..]),
        ("PATENT", 512, &[10_000_000][..]),
    ] {
        for &scale in scales {
            let x = catalog_vector(name, Domain::D1(n), scale, scale);
            let ranges =
                Workload::random_ranges(Domain::D1(n), 200, &mut StdRng::seed_from_u64(n as u64));
            for workload in [Workload::prefix_1d(n), ranges] {
                for star in [false, true] {
                    assert_mwem_matches_reference(&x, &workload, star, 11);
                }
            }
        }
    }
    let domain = Domain::D2(32, 32);
    let workload = Workload::random_ranges(domain, 300, &mut StdRng::seed_from_u64(32));
    for (name, scale) in [("BJ-CABS-E", 10_000), ("GOWALLA", 1_000_000)] {
        let x = catalog_vector(name, domain, scale, 5);
        for star in [false, true] {
            for seed in 0..2 {
                assert_mwem_matches_reference(&x, &workload, star, seed);
            }
        }
    }
}

/// Paper-scale MWEM equivalence: MWEM* on `grid-1d`'s cells (ADULT and
/// PATENT at n = 4096, scales 10³, 10⁵, 10⁷, five seeds each) and MWEM on
/// `grid-2d`'s (BJ-CABS-E and GOWALLA at 256×256, RandomRanges(2000),
/// scales 10⁴, 10⁶, 10⁸). Run with `cargo test --release --test hot_path
/// -- --ignored`.
#[test]
#[ignore]
fn mwem_matches_serial_reference_at_paper_scale() {
    let prefix = Workload::prefix_1d(4096);
    for name in ["ADULT", "PATENT"] {
        for scale in [1_000, 100_000, 10_000_000] {
            let x = catalog_vector(name, Domain::D1(4096), scale, 1);
            for seed in 0..5 {
                assert_mwem_matches_reference(&x, &prefix, true, seed);
            }
        }
    }
    let domain = Domain::D2(256, 256);
    let ranges = Workload::random_ranges(domain, 2000, &mut StdRng::seed_from_u64(256));
    for name in ["BJ-CABS-E", "GOWALLA"] {
        for scale in [10_000, 1_000_000, 100_000_000] {
            let x = catalog_vector(name, domain, scale, 2);
            assert_mwem_matches_reference(&x, &ranges, false, 3);
        }
    }
}
