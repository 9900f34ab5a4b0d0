//! Percentiles, open-loop accounting, and metric naming.
//!
//! Latencies are kept in milliseconds. A request that failed, was refused
//! or timed out is recorded as `f64::INFINITY`, so it misses every
//! latency limit and pushes every percentile it reaches to infinity.

use rand::Rng;

/// Percentiles the tail report may use, highest first.
const TAIL_PCTS: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Median and tail of one sample of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The highest of [`TAIL_PCTS`] with at least ten samples beyond it
    /// (50 when the sample is too small for any).
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

/// Nearest-rank percentile of an ascending slice (`pct` in 0..=100).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank `pct` position.
fn beyond(n: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// Median plus the highest percentile with at least ten samples beyond
/// it; `None` for an empty sample.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_pct = TAIL_PCTS
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0);
    Some(Summary {
        count: n,
        p50: percentile(&sorted, 50.0),
        tail_pct,
        tail: percentile(&sorted, tail_pct),
    })
}

/// Median of a sample (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    summarize(values).map(|s| s.p50)
}

/// Seeded arrival times (seconds from phase start) of a Poisson process
/// conditioned on `n` arrivals in `duration` seconds: `n` sorted uniform
/// draws. Fixing the count keeps the work of a phase equal across seeds.
pub fn poisson_arrivals<R: Rng>(n: usize, duration: f64, rng: &mut R) -> Vec<f64> {
    assert!(duration > 0.0, "duration must be positive");
    let mut out: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * duration).collect();
    out.sort_by(f64::total_cmp);
    out
}

/// What happened to one open-loop request, in seconds from phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the generator actually sent it (`None`: never sent).
    pub sent: Option<f64>,
    /// When its response completed (`None`: no response).
    pub done: Option<f64>,
    /// Whether the response was a success (HTTP 200 with a valid body).
    pub ok: bool,
}

impl Outcome {
    /// Latency from the due time, in ms; infinite for a failure, a
    /// refusal or a timeout.
    pub fn latency_ms(&self) -> f64 {
        match (self.ok, self.done) {
            (true, Some(done)) => (done - self.due) * 1e3,
            _ => f64::INFINITY,
        }
    }

    /// How late the generator sent it, in ms (`None`: never sent).
    pub fn lag_ms(&self) -> Option<f64> {
        self.sent.map(|s| (s - self.due).max(0.0) * 1e3)
    }
}

/// Accounting of one open-loop phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Requests scheduled.
    pub attempted: usize,
    /// Requests that failed, were refused or timed out.
    pub failed: usize,
    /// Latency from due time (failures infinite).
    pub latency: Option<Summary>,
    /// Generator lag (send time minus due time).
    pub lag: Option<Summary>,
    /// True when the last quarter's median latency exceeds twice the
    /// first quarter's plus 2 ms: the queue grew during the phase.
    pub backlog_growing: bool,
}

/// Account one phase's outcomes (any order).
pub fn account(outcomes: &[Outcome]) -> PhaseStats {
    let latencies: Vec<f64> = outcomes.iter().map(Outcome::latency_ms).collect();
    let lags: Vec<f64> = outcomes.iter().filter_map(Outcome::lag_ms).collect();
    let failed = outcomes.iter().filter(|o| !o.ok).count();
    let mut by_due: Vec<&Outcome> = outcomes.iter().collect();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    let quarter = by_due.len() / 4;
    let backlog_growing = quarter >= 8 && {
        let med = |part: &[&Outcome]| {
            let v: Vec<f64> = part.iter().map(|o| o.latency_ms()).collect();
            median(&v).expect("quarter is non-empty")
        };
        let first = med(&by_due[..quarter]);
        let last = med(&by_due[by_due.len() - quarter..]);
        last > 2.0 * first + 2.0
    };
    PhaseStats {
        attempted: outcomes.len(),
        failed,
        latency: summarize(&latencies),
        lag: summarize(&lags),
        backlog_growing,
    }
}

/// A phase meets the SLO when nothing failed, the queue did not grow,
/// and p99 latency from due time is within `limit_ms`.
pub fn meets_slo(outcomes: &[Outcome], limit_ms: f64) -> bool {
    let stats = account(outcomes);
    if stats.failed > 0 || stats.backlog_growing || outcomes.is_empty() {
        return false;
    }
    let mut lat: Vec<f64> = outcomes.iter().map(Outcome::latency_ms).collect();
    lat.sort_by(f64::total_cmp);
    percentile(&lat, 99.0) <= limit_ms
}

/// Metric-name form of a mechanism name: `*` (the paper's "star"
/// variants) becomes `_star`, keeping names within `[A-Za-z0-9_.-]`.
pub fn metric_name(mechanism: &str) -> String {
    mechanism.replace('*', "_star")
}

#[cfg(test)]
/// True when `name` is a legal metric name: starts with a letter or a
/// digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn is_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench::prelude::{NAMES_1D, NAMES_2D};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn star_variants_map_to_the_metric_alphabet() {
        assert_eq!(metric_name("MWEM*"), "MWEM_star");
        assert_eq!(metric_name("AHP*"), "AHP_star");
        assert_eq!(metric_name("DAWA"), "DAWA");
        let mut seen = HashSet::new();
        for m in NAMES_1D.iter().chain(NAMES_2D) {
            let name = format!("algorithms.execute_ms.{}", metric_name(m));
            assert!(is_metric_name(&name), "{name}");
            seen.insert(name);
        }
        // 15 1-D names plus the 2-D-only QUADTREE, UGRID, AGRID; no two
        // mechanisms collapse onto one metric.
        assert_eq!(seen.len(), 18);
        assert!(!is_metric_name("algorithms.execute_ms.MWEM*"));
        assert!(!is_metric_name("_leading"));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.count, s.tail_pct, s.tail), (1000, 99.0, 990.0));
        // 200 samples: p95 leaves 10 beyond, p98 only 4.
        let s = summarize(&v[..200]).unwrap();
        assert_eq!((s.tail_pct, s.tail), (95.0, 190.0));
        // Too few for any tail: fall back to the median.
        let s = summarize(&v[..12]).unwrap();
        assert_eq!((s.tail_pct, s.tail, s.p50), (50.0, 6.0, 6.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Sent 30 ms late, answered 5 ms after sending: 35 ms, not 5.
        let o = Outcome {
            due: 1.0,
            sent: Some(1.030),
            done: Some(1.035),
            ok: true,
        };
        assert!((o.latency_ms() - 35.0).abs() < 1e-9);
        assert!((o.lag_ms().unwrap() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn failures_refusals_and_timeouts_miss_every_limit() {
        let ok = |due: f64| Outcome {
            due,
            sent: Some(due),
            done: Some(due + 0.001),
            ok: true,
        };
        let refused = Outcome {
            due: 0.5,
            sent: Some(0.5),
            done: Some(0.501),
            ok: false,
        };
        let timed_out = Outcome {
            due: 0.6,
            sent: Some(0.6),
            done: None,
            ok: false,
        };
        let never_sent = Outcome {
            due: 0.7,
            sent: None,
            done: None,
            ok: false,
        };
        for bad in [refused, timed_out, never_sent] {
            assert_eq!(bad.latency_ms(), f64::INFINITY);
        }
        let mut all: Vec<Outcome> = (0..100).map(|i| ok(f64::from(i) * 0.01)).collect();
        assert!(meets_slo(&all, 5.0));
        all.push(refused);
        let stats = account(&all);
        assert_eq!((stats.attempted, stats.failed), (101, 1));
        assert!(!meets_slo(&all, 1e9), "one failure must fail the SLO");
        all.extend([timed_out, never_sent]);
        // 3 of 103 infinite: the p98 sample is infinite.
        let lat: Vec<f64> = all.iter().map(Outcome::latency_ms).collect();
        let mut sorted = lat.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(percentile(&sorted, 98.0), f64::INFINITY);
        assert_eq!(account(&all).lag.unwrap().count, 102);
    }

    #[test]
    fn growing_backlog_is_detected() {
        // Latency rises linearly with due time: the queue grows.
        let growing: Vec<Outcome> = (0..400)
            .map(|i| {
                let due = f64::from(i) * 0.005;
                Outcome {
                    due,
                    sent: Some(due),
                    done: Some(due + 0.001 + due * 0.05),
                    ok: true,
                }
            })
            .collect();
        assert!(account(&growing).backlog_growing);
        assert!(!meets_slo(&growing, 1e9));
        let steady: Vec<Outcome> = (0..400)
            .map(|i| {
                let due = f64::from(i) * 0.005;
                Outcome {
                    due,
                    sent: Some(due),
                    done: Some(due + 0.002 + f64::from(i % 7) * 1e-4),
                    ok: true,
                }
            })
            .collect();
        assert!(!account(&steady).backlog_growing);
    }

    #[test]
    fn poisson_arrivals_are_seeded_sorted_and_at_rate() {
        let a = poisson_arrivals(10_000, 20.0, &mut StdRng::seed_from_u64(3));
        let b = poisson_arrivals(10_000, 20.0, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
        assert_ne!(
            a,
            poisson_arrivals(10_000, 20.0, &mut StdRng::seed_from_u64(4))
        );
        assert_eq!(a.len(), 10_000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..20.0).contains(&t)));
        // Inter-arrival gaps are exponential: mean 1/rate, and about
        // e^-1 of them exceed the mean.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.002).abs() < 1e-4, "{mean}");
        let over = gaps.iter().filter(|&&g| g > mean).count() as f64 / gaps.len() as f64;
        assert!((over - (-1.0_f64).exp()).abs() < 0.02, "{over}");
    }
}
