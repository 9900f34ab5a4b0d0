//! The dataset suite `D`: 27 recipes reproducing the paper's Table 2.
//!
//! Each entry records the **original scale** and the **fraction of zero
//! cells at the maximum domain size** exactly as reported in Table 2, plus
//! a shape builder reproducing the qualitative distribution family of the
//! underlying source (documented per builder). Shapes are deterministic:
//! the builder RNG is seeded from the dataset name, so every run of the
//! benchmark sees identical shapes.
//!
//! Substitution note: the raw sources (Census, Kaggle,
//! Maryland payroll, Lending Club, GPS traces, GOWALLA, the International
//! Stroke Trial) are not redistributable; these calibrated synthetic shapes
//! exercise the same algorithm code paths because mechanism error depends
//! on the input only through shape, scale, and domain size.

use crate::shapes::*;
use dpbench_core::rng::rng_for;
use dpbench_core::{DataVector, Domain};
use rand::rngs::StdRng;

/// Base domain for all 1-D recipes (paper: maximum 1-D domain size 4096).
pub const BASE_1D: usize = 4096;
/// Base side for all 2-D recipes (paper: maximum 2-D domain 256 × 256).
pub const BASE_2D_SIDE: usize = 256;

type Builder = fn(&mut StdRng, &mut [f64]);

/// One benchmark dataset: Table 2 metadata plus its shape recipe.
#[derive(Clone)]
pub struct Dataset {
    /// Name as used in the paper (e.g. `"ADULT"`, `"BJ-CABS-E"`).
    pub name: &'static str,
    /// Original number of tuples (Table 2 "Original Scale").
    pub original_scale: u64,
    /// Fraction of zero cells at the base domain (Table 2 "% Zero Counts").
    pub zero_fraction: f64,
    /// Base (maximum) domain of the recipe.
    pub base_domain: Domain,
    builder: Builder,
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("name", &self.name)
            .field("original_scale", &self.original_scale)
            .field("zero_fraction", &self.zero_fraction)
            .field("base_domain", &self.base_domain)
            .finish()
    }
}

impl Dataset {
    /// Dimensionality of the dataset (1 or 2).
    pub fn dims(&self) -> usize {
        self.base_domain.dims()
    }

    /// The dataset's shape at its base domain: deterministic, non-negative,
    /// sums to 1, with exactly `round((1 − zero_fraction)·n)` non-zero
    /// cells.
    pub fn base_shape(&self) -> Vec<f64> {
        let n = self.base_domain.n_cells();
        let mut rng = rng_for(self.name, &[0xD5]);
        let mut buf = vec![0.0; n];
        (self.builder)(&mut rng, &mut buf);
        let keep = (((1.0 - self.zero_fraction) * n as f64).round() as usize).clamp(1, n);
        trim_to_support(&mut buf, keep);
        buf
    }

    /// The dataset's shape coarsened to `domain` (which must evenly divide
    /// the base domain; paper Section 6.1 derives smaller domains by
    /// grouping adjacent buckets).
    pub fn shape(&self, domain: Domain) -> Vec<f64> {
        let base = DataVector::new(self.base_shape(), self.base_domain);
        if domain == self.base_domain {
            return base.into_counts();
        }
        base.coarsen(domain).into_counts()
    }

    /// Number of non-zero cells in the base shape.
    pub fn support_size(&self) -> usize {
        let n = self.base_domain.n_cells();
        (((1.0 - self.zero_fraction) * n as f64).round() as usize).clamp(1, n)
    }
}

// ---------------------------------------------------------------------------
// 1-D builders (base domain 4096)
// ---------------------------------------------------------------------------

/// ADULT — Census capital-gain: one dominant zero-value cell plus a thin
/// scattered tail (97.8 % zeros).
fn build_adult(rng: &mut StdRng, buf: &mut [f64]) {
    buf[0] += 0.85;
    add_spikes_1d(buf, 150, 0.96, 0.10, rng);
    add_lognormal_1d(buf, 0.04, 1.1, 0.05);
}

/// HEPTH — arXiv HEP citation histogram: smooth, heavy-tailed, mostly
/// dense (21 % zeros).
fn build_hepth(_rng: &mut StdRng, buf: &mut [f64]) {
    add_lognormal_1d(buf, 0.12, 0.75, 0.75);
    add_power_law_1d(buf, 0.9, 0.25);
}

/// INCOME — IPUMS personal income: right-skewed log-normal with round-value
/// spikes (45 % zeros).
fn build_income(_rng: &mut StdRng, buf: &mut [f64]) {
    add_lognormal_1d(buf, 0.22, 0.65, 0.9);
    add_periodic_spikes_1d(buf, 64, 0.1);
}

/// MEDCOST — medical patient cost: sharply concentrated at low values
/// (75 % zeros).
fn build_medcost(_rng: &mut StdRng, buf: &mut [f64]) {
    add_lognormal_1d(buf, 0.07, 0.85, 1.0);
}

/// TRACE (a.k.a. NETTRACE) — external hosts contacting an internal network:
/// very sparse isolated spikes (96.6 % zeros).
fn build_trace(rng: &mut StdRng, buf: &mut [f64]) {
    add_spikes_1d(buf, 220, 0.97, 0.7, rng);
    add_power_law_1d(buf, 2.2, 0.3);
}

/// PATENT — patent citation histogram: dense and smooth (6.2 % zeros).
fn build_patent(_rng: &mut StdRng, buf: &mut [f64]) {
    add_lognormal_1d(buf, 0.3, 0.55, 0.8);
    add_uniform(buf, 0.15);
    add_power_law_1d(buf, 0.7, 0.05);
}

/// SEARCH — search-query frequencies: rank-style power law with scattered
/// bursts (51 % zeros).
fn build_search(rng: &mut StdRng, buf: &mut [f64]) {
    add_power_law_1d(buf, 1.05, 0.6);
    add_spikes_1d(buf, 400, 0.99, 0.25, rng);
    add_lognormal_1d(buf, 0.15, 1.0, 0.15);
}

/// BIDS-FJ — auction bids per IP, jewelry subset: fully dense, smooth
/// multi-modal (0 % zeros).
fn build_bids_fj(_rng: &mut StdRng, buf: &mut [f64]) {
    add_gaussian_1d(buf, 0.28, 0.11, 0.45);
    add_gaussian_1d(buf, 0.66, 0.18, 0.35);
    add_uniform(buf, 0.20);
}

/// BIDS-FM — auction bids per IP, mobile subset: fully dense, different
/// modes than BIDS-FJ (0 % zeros).
fn build_bids_fm(_rng: &mut StdRng, buf: &mut [f64]) {
    add_gaussian_1d(buf, 0.45, 0.2, 0.5);
    add_power_law_1d(buf, 0.35, 0.25);
    add_uniform(buf, 0.25);
}

/// BIDS-ALL — all auction bids per IP: fully dense mixture of the subsets
/// (0 % zeros).
fn build_bids_all(_rng: &mut StdRng, buf: &mut [f64]) {
    add_gaussian_1d(buf, 0.3, 0.12, 0.3);
    add_gaussian_1d(buf, 0.5, 0.2, 0.25);
    add_gaussian_1d(buf, 0.75, 0.1, 0.15);
    add_uniform(buf, 0.30);
}

/// MD-SAL — Maryland state-employee YTD gross pay: log-normal salary curve
/// (83.1 % zeros: most of the 4096-cell pay range is unused).
fn build_md_sal(_rng: &mut StdRng, buf: &mut [f64]) {
    add_lognormal_1d(buf, 0.11, 0.4, 0.95);
    add_periodic_spikes_1d(buf, 128, 0.05);
}

/// MD-SAL-FA — Maryland salaries filtered to annual pay type: slightly
/// tighter salary band (83.2 % zeros).
fn build_md_sal_fa(_rng: &mut StdRng, buf: &mut [f64]) {
    add_lognormal_1d(buf, 0.13, 0.3, 1.0);
}

/// LC-REQ-F1 — Lending Club requested amount, employment 0–5 years:
/// strong round-number spikes over a log-normal base (61.6 % zeros).
fn build_lc_req_f1(_rng: &mut StdRng, buf: &mut [f64]) {
    add_periodic_spikes_1d(buf, 8, 0.5);
    add_lognormal_1d(buf, 0.18, 0.6, 0.5);
}

/// LC-REQ-F2 — requested amount, employment 5–10 years (67.7 % zeros).
fn build_lc_req_f2(_rng: &mut StdRng, buf: &mut [f64]) {
    add_periodic_spikes_1d(buf, 10, 0.55);
    add_lognormal_1d(buf, 0.22, 0.55, 0.45);
}

/// LC-REQ-ALL — all requested amounts (60.2 % zeros).
fn build_lc_req_all(_rng: &mut StdRng, buf: &mut [f64]) {
    add_periodic_spikes_1d(buf, 8, 0.45);
    add_lognormal_1d(buf, 0.19, 0.62, 0.55);
}

/// LC-DTIR-F1 — Lending Club debt-to-income ratio, employment 0–5 years:
/// dense unimodal curve (0 % zeros).
fn build_lc_dtir_f1(_rng: &mut StdRng, buf: &mut [f64]) {
    add_gaussian_1d(buf, 0.3, 0.13, 0.7);
    add_lognormal_1d(buf, 0.35, 0.5, 0.2);
    add_uniform(buf, 0.10);
}

/// LC-DTIR-F2 — debt-to-income ratio, employment 5–10 years: mostly dense
/// (11.9 % zeros).
fn build_lc_dtir_f2(_rng: &mut StdRng, buf: &mut [f64]) {
    add_gaussian_1d(buf, 0.27, 0.1, 0.75);
    add_lognormal_1d(buf, 0.3, 0.45, 0.25);
}

/// LC-DTIR-ALL — all debt-to-income ratios: dense (0 % zeros).
fn build_lc_dtir_all(_rng: &mut StdRng, buf: &mut [f64]) {
    add_gaussian_1d(buf, 0.29, 0.12, 0.72);
    add_lognormal_1d(buf, 0.33, 0.5, 0.18);
    add_uniform(buf, 0.10);
}

// ---------------------------------------------------------------------------
// 2-D builders (base domain 256 × 256)
// ---------------------------------------------------------------------------

const R: usize = BASE_2D_SIDE;
const C: usize = BASE_2D_SIDE;

/// BJ-CABS-S — Beijing taxi trip start points: dense downtown hot spots
/// plus suburban clusters (78.2 % zeros).
fn build_bj_cabs_s(rng: &mut StdRng, buf: &mut [f64]) {
    add_gaussian_2d(buf, R, C, 0.5, 0.5, 0.12, 0.16, 0.2, 0.45);
    add_clusters_2d(buf, R, C, 45, 0.01, 0.07, 0.55, rng);
}

/// BJ-CABS-E — Beijing taxi trip end points: similar hot spots, slightly
/// more dispersed (76.8 % zeros).
fn build_bj_cabs_e(rng: &mut StdRng, buf: &mut [f64]) {
    add_gaussian_2d(buf, R, C, 0.48, 0.55, 0.15, 0.18, -0.1, 0.4);
    add_clusters_2d(buf, R, C, 50, 0.015, 0.08, 0.60, rng);
}

/// GOWALLA — location check-ins: many small, widely scattered clusters
/// (88.9 % zeros).
fn build_gowalla(rng: &mut StdRng, buf: &mut [f64]) {
    add_clusters_2d(buf, R, C, 90, 0.005, 0.04, 1.0, rng);
}

/// ADULT-2D — Census capital-gain × capital-loss: nearly all mass on the
/// two axes because gains and losses are mutually exclusive (99.3 % zeros).
fn build_adult_2d(_rng: &mut StdRng, buf: &mut [f64]) {
    add_axis_mass_2d(buf, R, C, 1.1, 0.6, 1.0);
}

/// SF-CABS-S — San Francisco taxi start points: tight coastal clusters
/// (95.0 % zeros).
fn build_sf_cabs_s(rng: &mut StdRng, buf: &mut [f64]) {
    add_gaussian_2d(buf, R, C, 0.35, 0.4, 0.05, 0.07, 0.4, 0.35);
    add_clusters_2d(buf, R, C, 25, 0.004, 0.03, 0.65, rng);
}

/// SF-CABS-E — San Francisco taxi end points: even tighter concentration
/// (97.3 % zeros).
fn build_sf_cabs_e(rng: &mut StdRng, buf: &mut [f64]) {
    add_gaussian_2d(buf, R, C, 0.36, 0.42, 0.035, 0.05, 0.45, 0.4);
    add_clusters_2d(buf, R, C, 18, 0.003, 0.02, 0.60, rng);
}

/// MD-SAL-2D — Maryland annual salary × overtime earnings: a correlated
/// band near the origin (97.9 % zeros).
fn build_md_sal_2d(_rng: &mut StdRng, buf: &mut [f64]) {
    add_gaussian_2d(buf, R, C, 0.10, 0.06, 0.06, 0.035, 0.55, 0.75);
    add_axis_mass_2d(buf, R, C, 1.4, 0.2, 0.25);
}

/// LC-2D — Lending Club funded amount × annual income: a positively
/// correlated diagonal cloud (92.7 % zeros).
fn build_lc_2d(_rng: &mut StdRng, buf: &mut [f64]) {
    add_gaussian_2d(buf, R, C, 0.2, 0.18, 0.09, 0.07, 0.7, 0.6);
    add_gaussian_2d(buf, R, C, 0.42, 0.35, 0.12, 0.1, 0.65, 0.4);
}

/// STROKE — International Stroke Trial, age × systolic blood pressure:
/// one broad elliptical blob (79.0 % zeros).
fn build_stroke(_rng: &mut StdRng, buf: &mut [f64]) {
    add_gaussian_2d(buf, R, C, 0.68, 0.55, 0.12, 0.14, 0.25, 1.0);
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

macro_rules! ds1 {
    ($name:literal, $scale:expr, $zeros:expr, $builder:ident) => {
        Dataset {
            name: $name,
            original_scale: $scale,
            zero_fraction: $zeros,
            base_domain: Domain::D1(BASE_1D),
            builder: $builder,
        }
    };
}

macro_rules! ds2 {
    ($name:literal, $scale:expr, $zeros:expr, $builder:ident) => {
        Dataset {
            name: $name,
            original_scale: $scale,
            zero_fraction: $zeros,
            base_domain: Domain::D2(BASE_2D_SIDE, BASE_2D_SIDE),
            builder: $builder,
        }
    };
}

/// The 18 one-dimensional datasets of Table 2.
pub fn datasets_1d() -> Vec<Dataset> {
    vec![
        ds1!("ADULT", 32_558, 0.9780, build_adult),
        ds1!("HEPTH", 347_414, 0.2117, build_hepth),
        ds1!("INCOME", 20_787_122, 0.4497, build_income),
        ds1!("MEDCOST", 9_415, 0.7480, build_medcost),
        ds1!("TRACE", 25_714, 0.9661, build_trace),
        ds1!("PATENT", 27_948_226, 0.0620, build_patent),
        ds1!("SEARCH", 335_889, 0.5103, build_search),
        ds1!("BIDS-FJ", 1_901_799, 0.0, build_bids_fj),
        ds1!("BIDS-FM", 2_126_344, 0.0, build_bids_fm),
        ds1!("BIDS-ALL", 7_655_502, 0.0, build_bids_all),
        ds1!("MD-SAL", 135_727, 0.8312, build_md_sal),
        ds1!("MD-SAL-FA", 100_534, 0.8317, build_md_sal_fa),
        ds1!("LC-REQ-F1", 3_737_472, 0.6157, build_lc_req_f1),
        ds1!("LC-REQ-F2", 198_045, 0.6769, build_lc_req_f2),
        ds1!("LC-REQ-ALL", 3_999_425, 0.6015, build_lc_req_all),
        ds1!("LC-DTIR-F1", 3_336_740, 0.0, build_lc_dtir_f1),
        ds1!("LC-DTIR-F2", 189_827, 0.1191, build_lc_dtir_f2),
        ds1!("LC-DTIR-ALL", 3_589_119, 0.0, build_lc_dtir_all),
    ]
}

/// The 9 two-dimensional datasets of Table 2.
pub fn datasets_2d() -> Vec<Dataset> {
    vec![
        ds2!("BJ-CABS-S", 4_268_780, 0.7817, build_bj_cabs_s),
        ds2!("BJ-CABS-E", 4_268_780, 0.7683, build_bj_cabs_e),
        ds2!("GOWALLA", 6_442_863, 0.8892, build_gowalla),
        ds2!("ADULT-2D", 32_561, 0.9930, build_adult_2d),
        ds2!("SF-CABS-S", 464_040, 0.9504, build_sf_cabs_s),
        ds2!("SF-CABS-E", 464_040, 0.9731, build_sf_cabs_e),
        ds2!("MD-SAL-2D", 70_526, 0.9789, build_md_sal_2d),
        ds2!("LC-2D", 550_559, 0.9266, build_lc_2d),
        ds2!("STROKE", 19_435, 0.7902, build_stroke),
    ]
}

/// All 27 datasets.
pub fn all_datasets() -> Vec<Dataset> {
    let mut all = datasets_1d();
    all.extend(datasets_2d());
    all
}

/// Look up a dataset by its paper name.
pub fn by_name(name: &str) -> Option<Dataset> {
    all_datasets().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_table2() {
        assert_eq!(datasets_1d().len(), 18);
        assert_eq!(datasets_2d().len(), 9);
        assert_eq!(all_datasets().len(), 27);
    }

    #[test]
    fn names_unique() {
        let all = all_datasets();
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 27);
    }

    #[test]
    fn shapes_are_valid_distributions() {
        for d in all_datasets() {
            let p = d.base_shape();
            assert_eq!(p.len(), d.base_domain.n_cells(), "{}", d.name);
            assert!(p.iter().all(|&v| v >= 0.0), "{}", d.name);
            assert!(
                (p.iter().sum::<f64>() - 1.0).abs() < 1e-9,
                "{} does not sum to 1",
                d.name
            );
        }
    }

    #[test]
    fn zero_fractions_exact_at_base_domain() {
        for d in all_datasets() {
            let p = d.base_shape();
            let zeros = p.iter().filter(|&&v| v == 0.0).count();
            let frac = zeros as f64 / p.len() as f64;
            assert!(
                (frac - d.zero_fraction).abs() < 1.0 / p.len() as f64 + 1e-9,
                "{}: built zero fraction {frac} vs target {}",
                d.name,
                d.zero_fraction
            );
        }
    }

    #[test]
    fn shapes_deterministic() {
        let d = by_name("TRACE").unwrap();
        assert_eq!(d.base_shape(), d.base_shape());
    }

    #[test]
    fn coarsening_preserves_mass() {
        let d = by_name("ADULT").unwrap();
        let p = d.shape(Domain::D1(256));
        assert_eq!(p.len(), 256);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let d2 = by_name("GOWALLA").unwrap();
        let p2 = d2.shape(Domain::D2(32, 32));
        assert_eq!(p2.len(), 1024);
        assert!((p2.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shapes_differ_across_datasets() {
        let a = by_name("BIDS-FJ").unwrap().base_shape();
        let b = by_name("BIDS-FM").unwrap().base_shape();
        assert_ne!(a, b);
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("DAWA-DATA").is_none());
        assert_eq!(by_name("STROKE").unwrap().original_scale, 19_435);
    }

    #[test]
    fn dense_datasets_have_full_support() {
        for name in [
            "BIDS-FJ",
            "BIDS-FM",
            "BIDS-ALL",
            "LC-DTIR-F1",
            "LC-DTIR-ALL",
        ] {
            let d = by_name(name).unwrap();
            let p = d.base_shape();
            assert!(
                p.iter().all(|&v| v > 0.0),
                "{name} should have no zero cells"
            );
        }
    }
}
