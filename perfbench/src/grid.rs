//! The `grid-1d` and `grid-2d` workloads: the paper's evaluation grids,
//! run the way a DPBench user runs them, plus a one-thread traced replay
//! through the same public entry points the runner calls.

use crate::stats::summarize;
use crate::trace::{self, SpanId, Tracer};
use crate::{sys, Ctx, RunOutput};
use dpbench::core::mechanism::execute_eps_with;
use dpbench::core::rng::{hash_str, rng_for};
use dpbench::core::{
    scaled_per_query_error, DataVector, Domain, Loss, Mechanism, Workload, Workspace,
};
use dpbench::datasets::{catalog, DataGenerator};
use dpbench::harness::config::WorkloadSpec;
use dpbench::harness::runner::PlanCache;
use dpbench::harness::sink::{self, JsonlSink, ResultSink};
use dpbench::harness::{ErrorSample, ExperimentConfig, ManifestUnit, RunManifest, Runner, UnitId};
use dpbench::prelude::{mechanism_by_name, NAMES_1D, NAMES_2D};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Privacy budget of every grid cell (the paper's headline ε).
const EPSILON: f64 = 0.1;
/// Runner threads of `grid-1d`; fleet processes of `grid-2d`.
pub const THREADS: usize = 2;
/// Launches of `dpbench run` per `grid-1d` run whose median is its
/// `setup_s`.
const SETUP_PROBES: usize = 30;
/// Passes over the `grid-2d` cells per run.
const PASSES_2D: usize = 4;
/// 2-D mechanisms left out of `grid-2d`: MWEM* and AHP* took 67% of a
/// 14-mechanism sample and would hide DAWA, data generation and process
/// sharding; their inner loops run in `grid-1d`.
const SKIP_2D: [&str; 2] = ["MWEM*", "AHP*"];

/// One grid: shapes × scales at one domain, ε = 0.1.
#[derive(Debug, Clone)]
pub struct GridSpec {
    datasets: [&'static str; 2],
    scales: [u64; 3],
    domain: Domain,
    algorithms: Vec<String>,
    samples: usize,
    trials: usize,
    workload: WorkloadSpec,
}

/// Scale `base` by a seeded factor in [0.8, 1.25).
fn jitter(base: u64, rng: &mut StdRng) -> u64 {
    let factor: f64 = rng.gen_range(0.8..1.25);
    (base as f64 * factor).round() as u64
}

impl GridSpec {
    /// The paper's 1-D grid: all 15 mechanisms, n = 4096, Prefix, two
    /// shapes × three scales. One sample is about 4 s of work on two
    /// threads, so a run of `seconds` replicates it `seconds / 4` times.
    pub fn grid_1d(seed: u64, seconds: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ hash_str("grid-1d"));
        Self {
            datasets: ["ADULT", "PATENT"],
            scales: [1_000, 100_000, 10_000_000].map(|b| jitter(b, &mut rng)),
            domain: Domain::D1(4096),
            algorithms: NAMES_1D.iter().map(|s| s.to_string()).collect(),
            samples: (seconds as usize).div_ceil(4).max(1),
            trials: 1,
            workload: WorkloadSpec::Prefix,
        }
    }

    /// The paper's 2-D grid on the fleet path: 256×256, RandomRanges(2000),
    /// BJ-CABS-E and GOWALLA × three scales, `NAMES_2D` without MWEM* and
    /// AHP*. One pass over the cells at two trials per unit is about 4 s
    /// of work, and a run makes [`PASSES_2D`] passes, so trials per unit
    /// grow as `seconds / 10`.
    pub fn grid_2d(seed: u64, seconds: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ hash_str("grid-2d"));
        Self {
            datasets: ["BJ-CABS-E", "GOWALLA"],
            scales: [10_000, 1_000_000, 100_000_000].map(|b| jitter(b, &mut rng)),
            domain: Domain::D2(256, 256),
            algorithms: NAMES_2D
                .iter()
                .filter(|n| !SKIP_2D.contains(n))
                .map(|s| s.to_string())
                .collect(),
            samples: 2,
            trials: (seconds as usize).div_ceil(10).max(1),
            workload: WorkloadSpec::RandomRanges(2000),
        }
    }

    /// The grid restricted to the given shapes and scales.
    fn config_for(&self, datasets: &[&str], scales: &[u64]) -> ExperimentConfig {
        ExperimentConfig {
            datasets: datasets
                .iter()
                .map(|d| catalog::by_name(d).expect("grid shapes are catalog datasets"))
                .collect(),
            scales: scales.to_vec(),
            domains: vec![self.domain],
            epsilons: vec![EPSILON],
            algorithms: self.algorithms.clone(),
            n_samples: self.samples,
            n_trials: self.trials,
            workload: self.workload,
            loss: Loss::L2,
        }
    }

    /// The whole grid as one configuration.
    fn config(&self) -> ExperimentConfig {
        self.config_for(&self.datasets, &self.scales)
    }

    /// The (shape, scale) cells, in the order a CLI user would run them.
    fn cells(&self) -> Vec<(&'static str, u64)> {
        self.datasets
            .iter()
            .flat_map(|d| self.scales.iter().map(move |s| (*d, *s)))
            .collect()
    }

    fn describe(&self) -> String {
        format!(
            "{{\"datasets\":[\"{}\",\"{}\"],\"scales\":[{},{},{}],\"domain\":\"{}\",\"mechanisms\":{},\"samples\":{},\"trials\":{},\"eps\":{EPSILON}}}",
            self.datasets[0],
            self.datasets[1],
            self.scales[0],
            self.scales[1],
            self.scales[2],
            self.domain,
            self.algorithms.len(),
            self.samples,
            self.trials
        )
    }
}

/// A sink wrapper that timestamps `begin` (the moment workers may claim
/// units) and every unit's arrival in the ledger.
struct TimedSink<S> {
    inner: S,
    begun: Option<Instant>,
    done: Vec<Instant>,
}

impl<S: ResultSink> ResultSink for TimedSink<S> {
    fn begin(&mut self, manifest: &RunManifest) -> io::Result<()> {
        self.inner.begin(manifest)?;
        self.begun = Some(Instant::now());
        Ok(())
    }

    fn unit_complete(&mut self, unit: &ManifestUnit, samples: &[ErrorSample]) -> io::Result<()> {
        self.inner.unit_complete(unit, samples)?;
        self.done.push(Instant::now());
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
}

/// One in-process pass of the runner over the whole grid.
struct Pass {
    setup_s: f64,
    /// Wall time from `begin` to the end of the run.
    wall_s: f64,
    /// Seconds from `begin` to each unit's ledger append.
    unit_done_s: Vec<f64>,
    trials: usize,
}

/// Launch the runner (config, runner, manifest, ledger) and run it.
fn runner_pass(spec: &GridSpec, ledger: &Path) -> io::Result<Pass> {
    let t0 = Instant::now();
    let mut runner = Runner::new(spec.config());
    runner.threads = THREADS;
    let manifest = runner.manifest();
    let mut sink = TimedSink {
        inner: JsonlSink::create(ledger)?,
        begun: None,
        done: Vec::new(),
    };
    let stats = runner.run_with_sink(&manifest, &mut sink)?;
    let end = Instant::now();
    let begun = sink.begun.expect("run_with_sink calls begin");
    Ok(Pass {
        setup_s: (begun - t0).as_secs_f64(),
        wall_s: (end - begun).as_secs_f64(),
        unit_done_s: sink
            .done
            .iter()
            .map(|t| (*t - begun).as_secs_f64())
            .collect(),
        trials: stats.samples,
    })
}

/// Strict output check of one ledger against the manifest it claims to
/// cover: every unit done, every trial present, every error finite.
fn check_ledger(path: &Path, manifest: &RunManifest, problems: &mut Vec<String>) -> io::Result<()> {
    let name = path.display();
    let ledger = sink::read_ledger(path)?;
    if ledger.fingerprint != manifest.fingerprint || ledger.n_trials != manifest.n_trials {
        problems.push(format!("{name}: header does not match the grid"));
    }
    let want: HashSet<UnitId> = manifest.units.iter().map(|u| u.id).collect();
    if ledger.done != want {
        problems.push(format!(
            "{name}: {} of {} units done, {} foreign",
            ledger.done.intersection(&want).count(),
            want.len(),
            ledger.done.difference(&want).count()
        ));
    }
    let samples = sink::read_samples(path)?;
    if samples.len() != manifest.len() * manifest.n_trials {
        problems.push(format!(
            "{name}: {} samples, expected {}",
            samples.len(),
            manifest.len() * manifest.n_trials
        ));
    }
    if let Some((_, _, s)) = samples.iter().find(|(_, _, s)| !s.error.is_finite()) {
        problems.push(format!(
            "{name}: non-finite error for {} sample {}",
            s.algorithm, s.sample
        ));
    }
    Ok(())
}

/// Due-time latencies of units that were all due at `begin`, ms.
fn unit_latencies_ms(done_s: &[f64]) -> Vec<f64> {
    done_s.iter().map(|s| s * 1e3).collect()
}

/// End-to-end metrics shared by both grids. `lat_ms` holds the unit
/// latencies of each pass over the grid; the latency metrics are the
/// medians over passes of each pass's p50 and tail.
fn grid_metrics(
    out: &mut RunOutput,
    setups: &[f64],
    trials: usize,
    busy_s: f64,
    lat_ms: &[Vec<f64>],
    cpu_s: f64,
    rss_mb: f64,
) {
    let setup = crate::stats::median(setups).expect("at least one set-up");
    let lat: Vec<_> = lat_ms
        .iter()
        .map(|pass| summarize(pass).expect("grids complete units"))
        .collect();
    let over_passes = |f: fn(&crate::stats::Summary) -> f64| {
        crate::stats::median(&lat.iter().map(f).collect::<Vec<_>>()).expect("at least one pass")
    };
    out.report("setup_samples_s", crate::json::nums(setups));
    out.metric("setup_s", setup);
    out.metric("runs_per_s", trials as f64 / busy_s);
    out.metric("peak_rss_mb", rss_mb);
    out.metric("latency_p50_ms", over_passes(|s| s.p50));
    out.metric("latency_tail_ms", over_passes(|s| s.tail));
    out.metric("cpu_ms_per_run", cpu_s * 1e3 / trials as f64);
    out.note("unit_latency_tail_pct", lat[0].tail_pct);
    out.note("units", lat.iter().map(|s| s.count).sum::<usize>() as f64);
    out.note("trials", trials as f64);
    out.note("setup_samples", setups.len() as f64);
    out.named("setup_s", setup, "s");
    out.named("runs_per_s", trials as f64 / busy_s, "1/s");
    out.named("peak_rss_mb", rss_mb, "MB");
}

/// Run length the grid's replication is sized to. A traced run sizes it
/// to a third: it also replays the grid twice on one thread (and, for
/// `grid-2d`, runs each shard alone), and must end within its time.
fn replication_seconds(ctx: &Ctx) -> u64 {
    if ctx.trace {
        (ctx.seconds / 3).max(1)
    } else {
        ctx.seconds
    }
}

/// Time one launch of `dpbench run` on a grid cell: from spawn until the
/// runner announces its manifest (`running N units`), its last step
/// before the workers claim units. The probe is then killed with its
/// process group.
fn run_setup_probe(ctx: &Ctx, spec: &GridSpec, dataset: &str, scale: u64) -> io::Result<f64> {
    let mut args: Vec<String> = vec!["run".into()];
    args.extend(grid_flags(spec, dataset, scale));
    args.extend([
        "--threads".into(),
        THREADS.to_string(),
        "--out".into(),
        ctx.tmp.join("setup-probe.jsonl").display().to_string(),
    ]);
    let t0 = Instant::now();
    let mut child = sys::GroupChild::spawn(
        Command::new(&ctx.dpbench)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null()),
    )?;
    let mut line = String::new();
    BufReader::new(child.0.stdout.take().expect("stdout is piped")).read_line(&mut line)?;
    let setup_s = t0.elapsed().as_secs_f64();
    if !line.starts_with("running ") {
        return Err(io::Error::other(format!(
            "dpbench run did not start: {line:?}"
        )));
    }
    Ok(setup_s)
}

/// `grid-1d`: in-process `Runner::run_with_sink` into a `JsonlSink` with
/// two runner threads, as one fixed batch.
pub fn run_grid_1d(ctx: &Ctx, out: &mut RunOutput) -> io::Result<()> {
    let spec = GridSpec::grid_1d(ctx.seed, replication_seconds(ctx));
    out.report("grid", spec.describe());
    // Half the set-up probes run before the measured pass and half after
    // it, so the median spans the run's stretch of machine time.
    let cells = spec.cells();
    let probes = |range: std::ops::Range<usize>| {
        range
            .map(|i| {
                let (dataset, scale) = cells[i % cells.len()];
                run_setup_probe(ctx, &spec, dataset, scale)
            })
            .collect::<io::Result<Vec<f64>>>()
    };
    let mut setups = probes(0..SETUP_PROBES / 2)?;
    let ledger = ctx.tmp.join("grid-1d.jsonl");
    let cpu0 = sys::self_usage().cpu_s;
    let pass = runner_pass(&spec, &ledger)?;
    let cpu_s = sys::self_usage().cpu_s - cpu0;
    setups.extend(probes(SETUP_PROBES / 2..SETUP_PROBES)?);
    out.note("runner_setup_s", pass.setup_s);
    let manifest = RunManifest::from_config(&spec.config());
    out.attempted += manifest.len() as u64;
    out.failed += manifest.len().saturating_sub(pass.unit_done_s.len()) as u64;
    check_ledger(&ledger, &manifest, &mut out.problems)?;
    let rss = sys::self_usage().maxrss_mb;
    grid_metrics(
        out,
        &setups,
        pass.trials,
        pass.wall_s,
        &[unit_latencies_ms(&pass.unit_done_s)],
        cpu_s,
        rss,
    );
    out.named(
        "failed_ratio",
        out.failed as f64 / out.attempted as f64,
        "ratio",
    );

    if ctx.trace {
        let layers = replay_pair(&spec.config(), &ctx.tmp.join("replay"), &ledger, out, ctx)?;
        layers.finish(out, THREADS as f64 * pass.wall_s);
    }
    Ok(())
}

/// One `dpbench fleet` invocation (one shape × scale cell).
struct FleetCell {
    out: PathBuf,
    manifest: RunManifest,
    config: ExperimentConfig,
    setup_s: f64,
    wall_s: f64,
    /// Seconds from launch until each unit first appears in a ledger.
    unit_done_s: Vec<f64>,
    /// Tails the fleet re-dealt to an idle slot (work stealing).
    steals: usize,
}

/// The `run`/`fleet` grid flags of one cell.
fn grid_flags(spec: &GridSpec, dataset: &str, scale: u64) -> Vec<String> {
    let workload = match spec.workload {
        WorkloadSpec::RandomRanges(n) => format!("random:{n}"),
        WorkloadSpec::Prefix => "prefix".into(),
        WorkloadSpec::Identity => "identity".into(),
    };
    [
        "--dataset",
        dataset,
        "--algorithms",
        &spec.algorithms.join(","),
        "--scale",
        &scale.to_string(),
        "--domain",
        &spec.domain.to_string(),
        "--eps",
        &EPSILON.to_string(),
        "--trials",
        &spec.trials.to_string(),
        "--samples",
        &spec.samples.to_string(),
        "--workload",
        &workload,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Per-shard and stolen-range ledgers the fleet wrote next to `out`.
fn part_ledgers(out: &Path) -> io::Result<Vec<PathBuf>> {
    let stem = out
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.strip_suffix(".jsonl"))
        .expect("cell ledgers are named *.jsonl")
        .to_string();
    let dir = out
        .parent()
        .expect("cell ledgers live in the run directory");
    let mut parts = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(rest) = name.strip_prefix(&stem).and_then(|r| r.strip_prefix('.')) else {
            continue;
        };
        if (rest.starts_with("shard") || rest.starts_with("steal"))
            && rest.ends_with(".jsonl")
            && !rest.contains(".agg")
        {
            parts.push(path);
        }
    }
    parts.sort();
    Ok(parts)
}

/// Run one cell through the real `dpbench fleet` binary, polling the
/// shard ledgers for the set-up point and unit completions.
fn fleet_cell(
    ctx: &Ctx,
    spec: &GridSpec,
    tag: &str,
    dataset: &'static str,
    scale: u64,
) -> io::Result<FleetCell> {
    let out = ctx.tmp.join(format!("{tag}.jsonl"));
    // A repeated cell starts from nothing: the fleet would resume from
    // leftover shard ledgers.
    for stale in part_ledgers(&out)?.into_iter().chain([out.clone()]) {
        if stale.exists() {
            std::fs::remove_file(stale)?;
        }
    }
    let log = std::fs::File::create(ctx.tmp.join(format!("{tag}.log")))?;
    let mut args: Vec<String> = ["fleet", "--procs", "2", "--threads", "2"]
        .map(String::from)
        .to_vec();
    args.extend(grid_flags(spec, dataset, scale));
    args.extend(["--out".to_string(), out.display().to_string()]);
    let config = spec.config_for(&[dataset], &[scale]);
    let manifest = RunManifest::from_config(&config);

    let t0 = Instant::now();
    let mut child = sys::GroupChild::spawn(
        Command::new(&ctx.dpbench)
            .args(&args)
            .stdout(Stdio::null())
            .stderr(log),
    )?;
    let mut offsets: HashMap<PathBuf, u64> = HashMap::new();
    let mut seen: HashMap<UnitId, f64> = HashMap::new();
    let mut setup: Option<f64> = None;
    let mut poll = |setup: &mut Option<f64>| -> io::Result<()> {
        let parts = part_ledgers(&out)?;
        if setup.is_none() && !parts.is_empty() {
            *setup = Some(t0.elapsed().as_secs_f64());
        }
        for p in parts {
            let off = offsets.entry(p.clone()).or_insert(0);
            let probe = match sink::probe_ledger(&p, *off) {
                Ok(probe) => probe,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            *off = probe.offset;
            let now = t0.elapsed().as_secs_f64();
            for id in probe.units {
                seen.entry(id).or_insert(now);
            }
        }
        Ok(())
    };
    let status = loop {
        if let Some(status) = child.0.try_wait()? {
            break status;
        }
        if t0.elapsed() > Duration::from_secs(150) {
            return Err(io::Error::other(format!("fleet {tag} exceeded 150 s")));
        }
        poll(&mut setup)?;
        // Fine polling until the shards start, then coarse.
        std::thread::sleep(if setup.is_none() {
            Duration::from_micros(200)
        } else {
            Duration::from_millis(2)
        });
    };
    let wall_s = t0.elapsed().as_secs_f64();
    poll(&mut setup)?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "dpbench fleet failed on {tag}: {status}"
        )));
    }
    let steals = part_ledgers(&out)?
        .iter()
        .filter(|p| p.to_string_lossy().contains(".steal"))
        .count();
    Ok(FleetCell {
        steals,
        out,
        setup_s: setup.unwrap_or(wall_s),
        wall_s,
        unit_done_s: seen.into_values().collect(),
        manifest,
        config,
    })
}

/// `grid-2d`: the paper's 2-D grid through `dpbench fleet --procs 2
/// --threads 2` (one thread per shard), one invocation per cell.
pub fn run_grid_2d(ctx: &Ctx, out: &mut RunOutput) -> io::Result<()> {
    let spec = GridSpec::grid_2d(ctx.seed, replication_seconds(ctx));
    out.report("grid", spec.describe());
    // Whole passes over the cells run one after another, so a burst of
    // machine noise or a work-stealing race lands in one pass of a cell,
    // and the totals average over all passes.
    let grid_cells = spec.cells();
    let mut per_cell: Vec<Vec<FleetCell>> = grid_cells.iter().map(|_| Vec::new()).collect();
    let mut lat = Vec::new();
    let mut cpu_s = 0.0;
    for pass in 0..PASSES_2D {
        let mut pass_lat = Vec::new();
        for (i, (dataset, scale)) in grid_cells.iter().enumerate() {
            let before = sys::children_usage().cpu_s;
            let cell = fleet_cell(ctx, &spec, &format!("cell{i}p{pass}"), dataset, *scale)?;
            cpu_s += sys::children_usage().cpu_s - before;
            pass_lat.extend(unit_latencies_ms(&cell.unit_done_s));
            per_cell[i].push(cell);
        }
        lat.push(pass_lat);
    }
    let usage = sys::children_usage();
    let busy_s = |c: &FleetCell| c.wall_s - c.setup_s;
    let (mut setups, mut cells, mut busy_report) = (Vec::new(), Vec::new(), Vec::new());
    let (mut trials, mut busy, mut cells_steals) = (0, 0.0, 0);
    for mut runs in per_cell {
        for c in &runs {
            out.attempted += c.manifest.len() as u64;
            out.failed += c.manifest.len().saturating_sub(c.unit_done_s.len()) as u64;
            check_ledger(&c.out, &c.manifest, &mut out.problems)?;
            for part in part_ledgers(&c.out)? {
                sink::read_ledger(&part)?;
            }
            setups.push(c.setup_s);
            cells_steals += c.steals;
            trials += c.manifest.len() * c.manifest.n_trials;
            busy += busy_s(c);
        }
        busy_report.push(crate::json::nums(
            &runs.iter().map(busy_s).collect::<Vec<_>>(),
        ));
        // The cell's median pass stands for it in the traced replay.
        runs.sort_by(|a, b| busy_s(a).total_cmp(&busy_s(b)));
        cells.push(runs.swap_remove(runs.len() / 2));
    }
    out.report("cell_busy_s", format!("[{}]", busy_report.join(",")));
    out.note("fleet_steals", cells_steals as f64);
    grid_metrics(out, &setups, trials, busy, &lat, cpu_s, usage.maxrss_mb);
    out.named(
        "failed_ratio",
        out.failed as f64 / out.attempted as f64,
        "ratio",
    );

    if ctx.trace {
        trace_fleet(ctx, &spec, &cells, out)?;
        let mut total = ReplayLayers::default();
        for (i, c) in cells.iter().enumerate() {
            let layers = replay_pair(
                &c.config,
                &ctx.tmp.join(format!("replay{i}")),
                &c.out,
                out,
                ctx,
            )?;
            total.absorb(layers);
        }
        let wall: f64 = cells.iter().map(|c| c.wall_s).sum();
        total.finish(out, THREADS as f64 * wall);
    }
    Ok(())
}

/// The fleet layers: overhead over the slowest shard run alone, ledger
/// validation, merge, ledger bytes, and data-generation redundancy.
fn trace_fleet(
    ctx: &Ctx,
    spec: &GridSpec,
    cells: &[FleetCell],
    out: &mut RunOutput,
) -> io::Result<()> {
    let mut overhead_ms = 0.0;
    let (mut validate_ms, mut merge_ms, mut bytes) = (0.0, 0.0, 0_u64);
    let (mut cells_in_shards, mut cells_total) = (0_usize, 0_usize);
    for (i, c) in cells.iter().enumerate() {
        let (dataset, scale) = spec.cells()[i];
        let mut slowest: f64 = 0.0;
        for shard in 0..THREADS {
            let alone = ctx.tmp.join(format!("alone{i}-{shard}.jsonl"));
            let mut args: Vec<String> = vec!["run".into()];
            args.extend(grid_flags(spec, dataset, scale));
            args.extend(
                [
                    "--threads",
                    "1",
                    "--shard",
                    &format!("{shard}/{THREADS}"),
                    "--out",
                    &alone.display().to_string(),
                ]
                .map(String::from),
            );
            let t = Instant::now();
            let status = Command::new(&ctx.dpbench)
                .args(&args)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()?;
            if !status.success() {
                return Err(io::Error::other(format!(
                    "dpbench run --shard failed: {status}"
                )));
            }
            slowest = slowest.max(t.elapsed().as_secs_f64());
        }
        overhead_ms += (c.wall_s - slowest) * 1e3;

        let parts = part_ledgers(&c.out)?;
        let t = Instant::now();
        for p in &parts {
            sink::read_ledger(p)?;
        }
        validate_ms += t.elapsed().as_secs_f64() * 1e3;
        let merged = ctx.tmp.join(format!("merged{i}.jsonl"));
        let t = Instant::now();
        let mut w = io::BufWriter::new(std::fs::File::create(&merged)?);
        sink::merge_jsonl(&parts, &mut w)?;
        io::Write::flush(&mut w)?;
        drop(w);
        merge_ms += t.elapsed().as_secs_f64() * 1e3;
        if std::fs::read(&merged)? != std::fs::read(&c.out)? {
            out.problems.push(format!(
                "cell {i}: merge_jsonl of the shard ledgers differs from the fleet output"
            ));
        }
        for p in &parts {
            bytes += std::fs::metadata(p)?.len();
        }
        let cell_key = |u: &ManifestUnit| (u.setting.dataset.clone(), u.setting.scale, u.sample);
        let overall: HashSet<_> = c.manifest.units.iter().map(cell_key).collect();
        cells_total += overall.len();
        for shard in 0..THREADS {
            let s = c.manifest.shard(shard, THREADS);
            cells_in_shards += s.units.iter().map(cell_key).collect::<HashSet<_>>().len();
        }
    }
    out.metric("fleet.overhead_ms", overhead_ms);
    out.metric("fleet.validate_ms", validate_ms);
    out.metric("fleet.merge_ms", merge_ms);
    out.metric("fleet.ledger_bytes", bytes as f64);
    out.metric(
        "fleet.datagen_redundancy",
        cells_in_shards as f64 / cells_total as f64,
    );
    Ok(())
}

/// Layer totals of one or more traced replays.
#[derive(Default)]
struct ReplayLayers {
    layers: trace::Layers,
    lookup_us: Vec<f64>,
    queries_scored: u64,
    sink_bytes: u64,
    plain_s: f64,
    traced_s: f64,
}

impl ReplayLayers {
    fn absorb(&mut self, other: ReplayLayers) {
        for (name, l) in other.layers {
            let e = self.layers.entry(name).or_default();
            e.self_ms += l.self_ms;
            e.calls += l.calls;
        }
        self.lookup_us.extend(other.lookup_us);
        self.queries_scored += other.queries_scored;
        self.sink_bytes += other.sink_bytes;
        self.plain_s += other.plain_s;
        self.traced_s += other.traced_s;
    }

    /// Emit the per-layer metrics; `capacity_s` is threads × the
    /// untraced wall time.
    fn finish(self, out: &mut RunOutput, capacity_s: f64) {
        let get = |name: &str| self.layers.get(name).copied().unwrap_or_default();
        trace::report_layers(
            out,
            &self.layers,
            "unit",
            (self.plain_s, self.traced_s),
            capacity_s * 1e3,
        );
        let generate = get("datasets.generate");
        out.metric("datasets.generate_ms", generate.self_ms);
        out.metric("datasets.vectors", generate.calls as f64);
        out.metric("workload.build_ms", get("workload.build").self_ms);
        out.metric("workload.y_true_ms", get("workload.y_true").self_ms);
        out.metric("workload.score_ms", get("workload.score").self_ms);
        out.metric("workload.queries_scored", self.queries_scored as f64);
        out.metric("sink.append_ms", get("sink.append").self_ms);
        out.metric("sink.bytes", self.sink_bytes as f64);
        let (builds, hits) = (get("runner.plan_build"), get("runner.plan_lookup").calls);
        out.metric("runner.plan_build_ms", builds.self_ms);
        out.metric("runner.plan_builds", builds.calls as f64);
        out.metric(
            "runner.plan_hit_ratio",
            hits as f64 / (hits + builds.calls).max(1) as f64,
        );
        out.metric(
            "runner.plan_lookup_us",
            crate::stats::median(&self.lookup_us).unwrap_or(0.0),
        );
    }
}

/// Replay `config` on one thread twice — untraced, then traced — and
/// check both ledgers are byte-identical to the measured run's.
fn replay_pair(
    config: &ExperimentConfig,
    base: &Path,
    reference: &Path,
    out: &mut RunOutput,
    ctx: &Ctx,
) -> io::Result<ReplayLayers> {
    let plain_path = base.with_extension("plain.jsonl");
    let traced_path = base.with_extension("traced.jsonl");
    let mut plain = Tracer::new(false);
    let t = Instant::now();
    replay(config, &plain_path, &mut plain)?;
    let plain_s = t.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(true);
    let t = Instant::now();
    let (queries_scored, sink_bytes) = replay(config, &traced_path, &mut tracer)?;
    let traced_s = t.elapsed().as_secs_f64();
    let want = std::fs::read(reference)?;
    for p in [&plain_path, &traced_path] {
        if std::fs::read(p)? != want {
            out.problems.push(format!(
                "{}: replay ledger differs from the measured run",
                p.display()
            ));
        }
    }
    tracer.write_jsonl(
        &ctx.spans_path(
            base.file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("replay"),
        ),
    )?;
    Ok(ReplayLayers {
        layers: tracer.layers(),
        lookup_us: tracer
            .samples("runner.plan_lookup")
            .iter()
            .map(|ms| ms * 1e3)
            .collect(),
        queries_scored,
        sink_bytes,
        plain_s,
        traced_s,
    })
}

/// Generated data of one (setting, sample) cell.
struct CellData {
    x: DataVector,
    workload: Arc<Workload>,
    y_true: Vec<f64>,
}

/// Run every unit of `config` on this thread through the entry points
/// `Runner::run_trials` uses, in its order, with the runner's per-unit
/// RNG coordinates, into a JSONL ledger. Returns (queries scored, ledger
/// bytes).
fn replay(config: &ExperimentConfig, ledger: &Path, tr: &mut Tracer) -> io::Result<(u64, u64)> {
    let manifest = RunManifest::from_config(config);
    let mechs: HashMap<&str, Box<dyn Mechanism>> = config
        .algorithms
        .iter()
        .map(|n| {
            (
                n.as_str(),
                mechanism_by_name(n).expect("grid mechanisms are registered"),
            )
        })
        .collect();
    let plans = PlanCache::new();
    let mut ws = Workspace::new();
    let mut workloads: HashMap<Domain, Arc<Workload>> = HashMap::new();
    let mut cells: HashMap<(String, u64, usize), Arc<CellData>> = HashMap::new();
    let mut sink = JsonlSink::create(ledger)?;
    sink.begin(&manifest)?;
    let mut queries = 0_u64;
    let mut y_hat = Vec::new();
    for unit in &manifest.units {
        let root: Option<SpanId> = tr.begin("unit", None);
        let setting = &unit.setting;
        let key = (setting.dataset.clone(), setting.scale, unit.sample);
        let data = match cells.get(&key) {
            Some(d) => Arc::clone(d),
            None => {
                let dataset = config
                    .datasets
                    .iter()
                    .find(|d| d.name == setting.dataset)
                    .expect("unit names a configured dataset");
                let mut rng = rng_for(
                    "datagen",
                    &[
                        hash_str(dataset.name),
                        setting.scale,
                        setting.domain.n_cells() as u64,
                        unit.sample as u64,
                    ],
                );
                let x = tr.span("datasets.generate", root, || {
                    DataGenerator::new().generate(dataset, setting.domain, setting.scale, &mut rng)
                });
                let workload = match workloads.get(&setting.domain) {
                    Some(w) => Arc::clone(w),
                    None => {
                        let w = Arc::new(tr.span("workload.build", root, || {
                            config.workload.build(setting.domain)
                        }));
                        workloads.insert(setting.domain, Arc::clone(&w));
                        w
                    }
                };
                let y_true = tr.span("workload.y_true", root, || workload.evaluate(&x));
                let d = Arc::new(CellData {
                    x,
                    workload,
                    y_true,
                });
                cells.insert(key, Arc::clone(&d));
                d
            }
        };
        let name = unit.algorithm.as_str();
        let mech = &mechs[name];
        let id = tr.begin("runner.plan_lookup", root);
        let (plan, hit) = plans
            .plan_for_traced(mech.as_ref(), &setting.domain, &data.workload)
            .map_err(|e| io::Error::other(format!("{name} failed to plan: {e}")))?;
        tr.end_as(
            id,
            if hit {
                "runner.plan_lookup"
            } else {
                "runner.plan_build"
            },
        );
        let exec_span = trace::execute_span(name);
        let mut samples = Vec::with_capacity(config.n_trials);
        for trial in 0..config.n_trials {
            let mut rng = rng_for(
                name,
                &[
                    hash_str(&setting.dataset),
                    setting.scale,
                    setting.domain.n_cells() as u64,
                    setting.epsilon.to_bits(),
                    unit.sample as u64,
                    trial as u64,
                ],
            );
            let release = tr
                .span(exec_span, root, || {
                    execute_eps_with(plan.as_ref(), &data.x, setting.epsilon, &mut ws, &mut rng)
                })
                .map_err(|e| io::Error::other(format!("{name} failed: {e}")))?;
            let error = tr.span("workload.score", root, || {
                data.workload
                    .evaluate_cells_into(&release.estimate, &mut ws, &mut y_hat);
                scaled_per_query_error(&data.y_true, &y_hat, data.x.scale(), config.loss)
            });
            queries += y_hat.len() as u64;
            ws.give_f64(release.into_estimate());
            samples.push(ErrorSample {
                algorithm: unit.algorithm.clone(),
                setting: setting.clone(),
                sample: unit.sample,
                trial,
                error,
            });
        }
        tr.span("sink.append", root, || sink.unit_complete(unit, &samples))?;
        tr.end(root);
    }
    sink.finish()?;
    drop(sink);
    Ok((queries, std::fs::metadata(ledger)?.len()))
}
