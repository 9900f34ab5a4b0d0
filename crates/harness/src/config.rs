//! Experiment-grid configuration (the cross product the paper evaluates:
//! datasets × scales × domain sizes × ε × algorithms × samples × trials).

use dpbench_core::rng::rng_for;
use dpbench_core::{Domain, Fingerprint, Loss, Workload};
use dpbench_datasets::Dataset;
use serde::{Deserialize, Serialize};

/// How workload queries are generated for each domain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The 1-D Prefix workload (paper Section 6.2).
    Prefix,
    /// The Identity workload (one query per cell).
    Identity,
    /// `count` uniformly random ranges with a fixed seed per domain — the
    /// paper's 2-D workload uses `count = 2000`.
    RandomRanges(usize),
}

impl WorkloadSpec {
    /// Mix this spec into a content fingerprint (variant tag + parameters).
    pub fn mix_fingerprint(&self, f: Fingerprint) -> Fingerprint {
        match *self {
            WorkloadSpec::Prefix => f.word(1),
            WorkloadSpec::Identity => f.word(2),
            WorkloadSpec::RandomRanges(count) => f.word(3).word(count as u64),
        }
    }

    /// Materialize the workload for a domain (deterministic: random-range
    /// workloads are seeded from the domain so every algorithm sees the
    /// same queries).
    pub fn build(&self, domain: Domain) -> Workload {
        match *self {
            WorkloadSpec::Prefix => match domain {
                Domain::D1(n) => Workload::prefix_1d(n),
                d => panic!("Prefix workload is 1-D only, got {d}"),
            },
            WorkloadSpec::Identity => Workload::identity(domain),
            WorkloadSpec::RandomRanges(count) => {
                let mut rng = rng_for("workload", &[domain.n_cells() as u64, count as u64]);
                Workload::random_ranges(domain, count, &mut rng)
            }
        }
    }
}

/// One experimental setting: the paper varies these four inputs while
/// holding everything else fixed (Principles 1–4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Setting {
    /// Dataset (shape source) name.
    pub dataset: String,
    /// Target scale `m`.
    pub scale: u64,
    /// Target domain.
    pub domain: Domain,
    /// Privacy budget ε.
    pub epsilon: f64,
}

impl Setting {
    /// Mix this setting's coordinates into a content fingerprint.
    pub fn mix_fingerprint(&self, f: Fingerprint) -> Fingerprint {
        let (dims, a, b) = match self.domain {
            Domain::D1(n) => (1, n as u64, 0),
            Domain::D2(r, c) => (2, r as u64, c as u64),
        };
        f.str(&self.dataset)
            .word(self.scale)
            .word(dims)
            .word(a)
            .word(b)
            .f64(self.epsilon)
    }
}

impl std::fmt::Display for Setting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} scale={} domain={} eps={}",
            self.dataset, self.scale, self.domain, self.epsilon
        )
    }
}

/// The full experiment grid.
#[derive(Clone)]
pub struct ExperimentConfig {
    /// Datasets to draw shapes from.
    pub datasets: Vec<Dataset>,
    /// Scales `m` (paper: 10³…10⁸).
    pub scales: Vec<u64>,
    /// Domains (paper 1-D: 256…4096; 2-D: 32²…256²).
    pub domains: Vec<Domain>,
    /// Privacy budgets (paper default ε = 0.1; by scale-ε exchangeability
    /// a scale sweep doubles as an ε sweep).
    pub epsilons: Vec<f64>,
    /// Algorithm names (resolved via `dpbench_algorithms::registry`).
    pub algorithms: Vec<String>,
    /// Data vectors sampled per setting (paper: 5).
    pub n_samples: usize,
    /// Mechanism runs per data vector (paper: 10).
    pub n_trials: usize,
    /// Workload generator.
    pub workload: WorkloadSpec,
    /// Loss function (paper: L2).
    pub loss: Loss,
}

/// True when `s` is a plain identifier (`[A-Za-z0-9_*-]+`) — the only
/// names the JSONL ledger templates can write (they interpolate names
/// verbatim, so a quote or backslash would produce an unreadable file,
/// and a comma or separator character a corrupt header summary). `*` is
/// admitted solely for the paper's starred variants (`MWEM*`, `AHP*`);
/// it is JSONL- and summary-safe.
pub fn is_valid_identifier(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'*')
}

impl ExperimentConfig {
    /// The paper's 1-D defaults: Prefix workload, L2 loss, 5 samples × 10
    /// trials (callers shrink those for quick runs).
    pub fn defaults_1d(datasets: Vec<Dataset>, algorithms: Vec<String>) -> Self {
        Self {
            datasets,
            scales: vec![1_000, 100_000, 10_000_000],
            domains: vec![Domain::D1(4096)],
            epsilons: vec![0.1],
            algorithms,
            n_samples: 5,
            n_trials: 10,
            workload: WorkloadSpec::Prefix,
            loss: Loss::L2,
        }
    }

    /// The paper's 2-D defaults: 2000 random ranges, 128×128 domain.
    pub fn defaults_2d(datasets: Vec<Dataset>, algorithms: Vec<String>) -> Self {
        Self {
            datasets,
            scales: vec![10_000, 1_000_000, 100_000_000],
            domains: vec![Domain::D2(128, 128)],
            epsilons: vec![0.1],
            algorithms,
            n_samples: 5,
            n_trials: 10,
            workload: WorkloadSpec::RandomRanges(2000),
            loss: Loss::L2,
        }
    }

    /// All settings in the grid.
    pub fn settings(&self) -> Vec<Setting> {
        let mut out = Vec::new();
        for d in &self.datasets {
            for &scale in &self.scales {
                for &domain in &self.domains {
                    if domain.dims() != d.dims() {
                        continue;
                    }
                    for &epsilon in &self.epsilons {
                        out.push(Setting {
                            dataset: d.name.to_string(),
                            scale,
                            domain,
                            epsilon,
                        });
                    }
                }
            }
        }
        out
    }

    /// Total number of mechanism runs the grid will execute.
    pub fn total_runs(&self) -> usize {
        self.settings().len() * self.algorithms.len() * self.n_samples * self.n_trials
    }

    /// Fail fast on names the JSONL ledger cannot represent: dataset and
    /// algorithm identifiers must match `[A-Za-z0-9_*-]+` (see
    /// [`is_valid_identifier`]). Called by the runner and the JSONL sink
    /// before any ledger byte is written.
    pub fn validate(&self) -> Result<(), String> {
        for d in &self.datasets {
            if !is_valid_identifier(d.name) {
                return Err(format!(
                    "invalid dataset name {:?}: ledger identifiers must match [A-Za-z0-9_*-]+",
                    d.name
                ));
            }
        }
        for a in &self.algorithms {
            if !is_valid_identifier(a) {
                return Err(format!(
                    "invalid algorithm name {a:?}: ledger identifiers must match [A-Za-z0-9_*-]+"
                ));
            }
        }
        Ok(())
    }

    /// Human-readable one-line summary of every grid input, recorded in
    /// the ledger header (`"cfg"`). `;` separates fields, `+` separates
    /// values within a field — neither appears in validated identifiers,
    /// numbers, or the fixed workload/loss tokens, so the string needs no
    /// escaping and [`summary_diff`] can compare two of them field by
    /// field to explain a fingerprint mismatch.
    pub fn summary(&self) -> String {
        let datasets: Vec<&str> = self.datasets.iter().map(|d| d.name).collect();
        let scales: Vec<String> = self.scales.iter().map(|s| s.to_string()).collect();
        let domains: Vec<String> = self.domains.iter().map(|d| d.to_string()).collect();
        let epsilons: Vec<String> = self.epsilons.iter().map(|e| e.to_string()).collect();
        let workload = match self.workload {
            WorkloadSpec::Prefix => "prefix".to_string(),
            WorkloadSpec::Identity => "identity".to_string(),
            WorkloadSpec::RandomRanges(n) => format!("random:{n}"),
        };
        let loss = match self.loss {
            Loss::L1 => "l1",
            Loss::L2 => "l2",
            Loss::LInf => "linf",
        };
        format!(
            "datasets={};scales={};domains={};eps={};algorithms={};samples={};trials={};workload={workload};loss={loss}",
            datasets.join("+"),
            scales.join("+"),
            domains.join("+"),
            epsilons.join("+"),
            self.algorithms.join("+"),
            self.n_samples,
            self.n_trials,
        )
    }

    /// Content fingerprint of the whole grid definition: every input that
    /// determines the result set (datasets, scales, domains, ε values,
    /// algorithms, sample/trial counts, workload, loss). Two configs with
    /// the same fingerprint produce bit-identical grids, so run ledgers
    /// (checkpoints) and shards are only ever merged under a matching
    /// fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new().str("dpbench-run-v1");
        f = f.word(self.datasets.len() as u64);
        for d in &self.datasets {
            f = f.str(d.name);
        }
        f = f.word(self.scales.len() as u64).words(&self.scales);
        f = f.word(self.domains.len() as u64);
        for d in &self.domains {
            let (dims, a, b) = match *d {
                Domain::D1(n) => (1, n as u64, 0),
                Domain::D2(r, c) => (2, r as u64, c as u64),
            };
            f = f.word(dims).word(a).word(b);
        }
        f = f.word(self.epsilons.len() as u64);
        for &e in &self.epsilons {
            f = f.f64(e);
        }
        f = f.word(self.algorithms.len() as u64);
        for a in &self.algorithms {
            f = f.str(a);
        }
        f = f.word(self.n_samples as u64).word(self.n_trials as u64);
        f = self.workload.mix_fingerprint(f);
        f = f.word(match self.loss {
            Loss::L1 => 1,
            Loss::L2 => 2,
            Loss::LInf => 3,
        });
        f.finish()
    }
}

/// Parse one CLI flag value strictly, naming the flag in the error.
///
/// The CLI's numeric flags used to fall back to their defaults on
/// unparseable input (`--trials abc` silently ran 5 trials; `--retries
/// x` silently retried twice), which turns an operator typo into a
/// benchmark that *runs* but measures the wrong grid. Every flag value
/// now goes through here: malformed input is an error, absence (handled
/// by the caller) is the only way to get a default.
pub fn parse_flag_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad --{flag} value {value:?}"))
}

/// Compare two [`ExperimentConfig::summary`] strings field by field and
/// name what diverged — the diagnostic a `--resume` fingerprint mismatch
/// prints instead of a bare hash inequality. Unknown/missing fields are
/// reported too (e.g. a ledger written by an older binary).
pub fn summary_diff(ledger: &str, current: &str) -> Vec<String> {
    let parse = |s: &str| -> Vec<(String, String)> {
        s.split(';')
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    let (a, b) = (parse(ledger), parse(current));
    let mut out = Vec::new();
    for (k, vb) in &b {
        match a.iter().find(|(ka, _)| ka == k) {
            Some((_, va)) if va == vb => {}
            Some((_, va)) => out.push(format!("{k}: ledger={va} current={vb}")),
            None => out.push(format!("{k}: ledger=<absent> current={vb}")),
        }
    }
    for (k, va) in &a {
        if !b.iter().any(|(kb, _)| kb == k) {
            out.push(format!("{k}: ledger={va} current=<absent>"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench_datasets::catalog;

    #[test]
    fn settings_cross_product() {
        let cfg = ExperimentConfig {
            datasets: vec![
                catalog::by_name("ADULT").unwrap(),
                catalog::by_name("TRACE").unwrap(),
            ],
            scales: vec![1000, 2000],
            domains: vec![Domain::D1(256), Domain::D1(512)],
            epsilons: vec![0.1, 1.0],
            algorithms: vec!["IDENTITY".into()],
            n_samples: 2,
            n_trials: 3,
            workload: WorkloadSpec::Prefix,
            loss: Loss::L2,
        };
        assert_eq!(cfg.settings().len(), 2 * 2 * 2 * 2);
        assert_eq!(cfg.total_runs(), 16 * 2 * 3);
    }

    #[test]
    fn settings_skip_mismatched_dims() {
        let cfg = ExperimentConfig {
            datasets: vec![catalog::by_name("STROKE").unwrap()], // 2-D
            scales: vec![1000],
            domains: vec![Domain::D1(256)], // 1-D domain: incompatible
            epsilons: vec![0.1],
            algorithms: vec![],
            n_samples: 1,
            n_trials: 1,
            workload: WorkloadSpec::Identity,
            loss: Loss::L2,
        };
        assert!(cfg.settings().is_empty());
    }

    #[test]
    fn workload_spec_deterministic() {
        let a = WorkloadSpec::RandomRanges(50).build(Domain::D2(32, 32));
        let b = WorkloadSpec::RandomRanges(50).build(Domain::D2(32, 32));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "1-D only")]
    fn prefix_rejects_2d() {
        WorkloadSpec::Prefix.build(Domain::D2(4, 4));
    }

    #[test]
    fn identifier_validation_rejects_ledger_breaking_names() {
        assert!(is_valid_identifier("MEDCOST"));
        assert!(is_valid_identifier("GREEDY_H"));
        assert!(is_valid_identifier("t-digest2"));
        assert!(
            is_valid_identifier("MWEM*"),
            "starred paper variants are legal"
        );
        for bad in ["", "a b", "a\"b", "a\\b", "a,b", "päter", "a;b", "a+b"] {
            assert!(!is_valid_identifier(bad), "{bad:?} accepted");
        }
        let mut cfg = ExperimentConfig {
            datasets: vec![catalog::by_name("ADULT").unwrap()],
            scales: vec![1000],
            domains: vec![Domain::D1(256)],
            epsilons: vec![0.1],
            algorithms: vec!["IDENTITY".into()],
            n_samples: 1,
            n_trials: 1,
            workload: WorkloadSpec::Prefix,
            loss: Loss::L2,
        };
        assert!(cfg.validate().is_ok());
        cfg.algorithms = vec!["IDENT\"ITY".into()];
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("algorithm"), "{err}");
        assert!(err.contains("[A-Za-z0-9_*-]+"), "{err}");
    }

    #[test]
    fn flag_values_parse_strictly() {
        assert_eq!(parse_flag_value::<usize>("trials", "7"), Ok(7));
        assert_eq!(parse_flag_value::<f64>("eps", "0.5"), Ok(0.5));
        let err = parse_flag_value::<usize>("trials", "abc").unwrap_err();
        assert!(err.contains("--trials"), "{err}");
        assert!(err.contains("abc"), "{err}");
        assert!(parse_flag_value::<u64>("scale", "-3").is_err());
        assert!(parse_flag_value::<usize>("retries", "2x").is_err());
    }

    #[test]
    fn summary_names_every_field_and_diffs_precisely() {
        let base = ExperimentConfig {
            datasets: vec![catalog::by_name("ADULT").unwrap()],
            scales: vec![1000, 2000],
            domains: vec![Domain::D1(256)],
            epsilons: vec![0.1],
            algorithms: vec!["IDENTITY".into(), "DAWA".into()],
            n_samples: 2,
            n_trials: 3,
            workload: WorkloadSpec::Prefix,
            loss: Loss::L2,
        };
        let s = base.summary();
        assert_eq!(
            s,
            "datasets=ADULT;scales=1000+2000;domains=256;eps=0.1;\
             algorithms=IDENTITY+DAWA;samples=2;trials=3;workload=prefix;loss=l2"
        );
        assert!(summary_diff(&s, &s).is_empty());
        let mut other = base.clone();
        other.scales = vec![1000];
        other.loss = Loss::L1;
        let diff = summary_diff(&s, &other.summary());
        assert_eq!(
            diff,
            vec![
                "scales: ledger=1000+2000 current=1000".to_string(),
                "loss: ledger=l2 current=l1".to_string(),
            ]
        );
    }

    #[test]
    fn fingerprint_tracks_every_grid_input() {
        let base = ExperimentConfig {
            datasets: vec![catalog::by_name("ADULT").unwrap()],
            scales: vec![1000],
            domains: vec![Domain::D1(256)],
            epsilons: vec![0.1],
            algorithms: vec!["IDENTITY".into()],
            n_samples: 2,
            n_trials: 3,
            workload: WorkloadSpec::Prefix,
            loss: Loss::L2,
        };
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        let mut variants = Vec::new();
        let mut v = base.clone();
        v.scales = vec![2000];
        variants.push(v);
        let mut v = base.clone();
        v.epsilons = vec![0.5];
        variants.push(v);
        let mut v = base.clone();
        v.algorithms = vec!["UNIFORM".into()];
        variants.push(v);
        let mut v = base.clone();
        v.n_trials = 4;
        variants.push(v);
        let mut v = base.clone();
        v.workload = WorkloadSpec::Identity;
        variants.push(v);
        let mut v = base.clone();
        v.loss = Loss::L1;
        variants.push(v);
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(v.fingerprint(), base.fingerprint(), "variant {i}");
        }
    }
}
