//! `perfbench` — the repeatable end-to-end and per-layer benchmark of
//! dpbench.
//!
//! ```text
//! bash perfbench/run.sh --workload grid-1d|grid-2d|serve-mix|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run makes its inputs from `--seed`, measures for about
//! `--seconds`, checks the program's outputs, writes a full report
//! (machine facts, every metric with its sample count, layer shares and
//! spans when traced) under `.perfbench_runs/`, prints a human summary to
//! stderr, and prints one JSON line last on stdout:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the
//! end-to-end metrics untraced (`--trace 0`), the per-layer metrics
//! traced (`--trace 1`). A failed output check exits non-zero.

mod grid;
mod json;
mod serve;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics every workload reports untraced: (name, unit).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_run", "ms"),
];

/// Per-layer metrics besides the per-mechanism execute times; every
/// workload reports all of them traced, 0 for a layer it does not run.
const PER_LAYER: [(&str, &str); 33] = [
    ("algorithms.execute_ms", "ms"),
    ("algorithms.execute_us.IDENTITY", "us"),
    ("algorithms.execute_us.HB", "us"),
    ("algorithms.execute_us.DAWA", "us"),
    ("algorithms.execute_us.GREEDY_H", "us"),
    ("datasets.generate_ms", "ms"),
    ("datasets.vectors", "count"),
    ("workload.build_ms", "ms"),
    ("workload.y_true_ms", "ms"),
    ("workload.score_ms", "ms"),
    ("workload.queries_scored", "count"),
    ("sink.append_ms", "ms"),
    ("sink.bytes", "bytes"),
    ("runner.plan_build_ms", "ms"),
    ("runner.plan_builds", "count"),
    ("runner.plan_hit_ratio", "ratio"),
    ("runner.plan_lookup_us", "us"),
    ("runner.parallel_efficiency", "ratio"),
    ("runner.unattributed_ms", "ms"),
    ("fleet.overhead_ms", "ms"),
    ("fleet.validate_ms", "ms"),
    ("fleet.merge_ms", "ms"),
    ("fleet.ledger_bytes", "bytes"),
    ("fleet.datagen_redundancy", "ratio"),
    ("http.parse_us", "us"),
    ("accountant.reserve_us", "us"),
    ("workload.slo_us", "us"),
    ("mechanism.serialize_us", "us"),
    ("http.frame_us", "us"),
    ("http.response_bytes", "bytes"),
    ("server.unattributed_us", "us"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric: the per-mechanism execute times, then
/// [`PER_LAYER`].
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = trace::mechanisms()
        .map(|m| {
            (
                format!("algorithms.execute_ms.{}", stats::metric_name(m)),
                "ms",
            )
        })
        .collect();
    out.extend(PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

/// The benchmark's workloads.
const WORKLOADS: [&str; 3] = ["grid-1d", "grid-2d", "serve-mix"];

/// Run context shared by the workloads.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement length the run is sized to.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
    /// The `dpbench` binary built next to this one.
    pub dpbench: PathBuf,
    /// Temporary directory of this run (removed at the end).
    pub tmp: PathBuf,
    /// Where reports and spans are written.
    pub out_dir: PathBuf,
    /// Workload name.
    pub workload: &'static str,
    /// CPUs of the machine.
    pub nproc: usize,
}

impl Ctx {
    /// Path of a span file of this run.
    pub fn spans_path(&self, part: &str) -> PathBuf {
        self.out_dir.join(format!(
            "{}-seed{}.{part}.spans.jsonl",
            self.workload, self.seed
        ))
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct RunOutput {
    /// Operations attempted (grid units; serve requests at `lo` and `hi`).
    pub attempted: u64,
    /// Operations that failed, were refused or timed out.
    pub failed: u64,
    /// Failed output checks; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Contract metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Metrics under the names the workload definitions use, with units.
    pub named: Vec<(String, f64, &'static str)>,
    /// Extra numbers for the report (sample counts, percentiles used).
    pub notes: Vec<(String, f64)>,
    /// Raw JSON fields for the report.
    pub report: Vec<(String, String)>,
}

impl RunOutput {
    /// Record a contract metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a metric under its workload-definition name.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_string(), value, unit));
    }

    /// Record an extra number for the report.
    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), value));
    }

    /// Record a raw JSON field for the report.
    pub fn report(&mut self, key: &str, raw_json: String) {
        self.report.push((key.to_string(), raw_json));
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        let key = pair[0]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {}", pair[0]))?;
        let value = pair
            .get(1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        if !["workload", "seed", "seconds", "trace"].contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        flags.insert(key, value);
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = get("workload")?.to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (grid-1d|grid-2d|serve-mix|all)"
        ));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed needs an unsigned integer")?;
    let seconds: u64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds needs a positive integer")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Refuse to run when any thread or connection count of `workload`
/// exceeds the machine's CPUs.
fn check_cores(workload: &str, nproc: usize) -> Result<(), String> {
    let needs: &[(&str, usize)] = match workload {
        "grid-1d" => &[("runner threads", grid::THREADS)],
        "grid-2d" => &[("fleet procs x threads per shard", grid::THREADS)],
        _ => &[
            ("client connections", serve::CONNS),
            ("client threads", serve::CLIENT_THREADS),
            ("server threads", serve::SERVER_THREADS),
        ],
    };
    for (what, n) in needs {
        if *n > nproc {
            return Err(format!(
                "{workload} needs {n} {what} but this machine has {nproc} CPUs"
            ));
        }
    }
    Ok(())
}

/// Run one workload in its own temporary directory.
fn run_workload(args: &Args, workload: &'static str, facts: &sys::Facts) -> io::Result<RunOutput> {
    let out_dir = PathBuf::from(".perfbench_runs");
    let tmp = out_dir.join(format!("tmp-{workload}-{}", std::process::id()));
    if tmp.exists() {
        std::fs::remove_dir_all(&tmp)?;
    }
    std::fs::create_dir_all(&tmp)?;
    let dpbench = std::env::current_exe()?.with_file_name("dpbench");
    if !dpbench.is_file() {
        return Err(io::Error::other(format!(
            "{} not found: build it first",
            dpbench.display()
        )));
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dpbench,
        tmp,
        out_dir,
        workload,
        nproc: facts.nproc,
    };
    let mut out = RunOutput::default();
    let (busy0, steal0) = sys::cpu_ticks();
    let started = std::time::Instant::now();
    let result = match workload {
        "grid-1d" => grid::run_grid_1d(&ctx, &mut out),
        "grid-2d" => grid::run_grid_2d(&ctx, &mut out),
        _ => serve::run_serve_mix(&ctx, &mut out),
    };
    let (busy1, steal1) = sys::cpu_ticks();
    let capacity_ticks = started.elapsed().as_secs_f64() * 100.0 * facts.nproc as f64;
    out.note(
        "machine.busy_pct",
        (busy1 - busy0) as f64 / capacity_ticks * 100.0,
    );
    out.note(
        "machine.steal_pct",
        (steal1 - steal0) as f64 / capacity_ticks * 100.0,
    );
    std::fs::remove_dir_all(&ctx.tmp)?;
    result?;
    if args.trace {
        // A traced run also makes the untraced pass its layer figures
        // need; its end-to-end numbers go to the report, not the result.
        for (name, _) in END_TO_END {
            if let Some(v) = out.metrics.remove(name) {
                out.note(&format!("untraced.{name}"), v);
            }
        }
    }
    // Exactly the declared metrics: a missing end-to-end metric is an
    // error, a per-layer metric a workload does not exercise reads 0.
    let declared: Vec<(String, &str)> = if args.trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    for name in out.metrics.keys() {
        if !declared.iter().any(|(n, _)| n == name) {
            out.problems.push(format!("undeclared metric {name}"));
        }
    }
    for (name, _) in &declared {
        if !out.metrics.contains_key(name) {
            if args.trace {
                out.metrics.insert(name.clone(), 0.0);
            } else {
                out.problems.push(format!("metric {name} missing"));
            }
        }
    }
    write_report(&ctx, facts, &out, &declared)?;
    Ok(out)
}

/// The report file: facts, metrics with units, named metrics, notes.
fn write_report(
    ctx: &Ctx,
    facts: &sys::Facts,
    out: &RunOutput,
    declared: &[(String, &str)],
) -> io::Result<()> {
    let mut fields = vec![
        ("workload".to_string(), json::str(ctx.workload)),
        ("seed".to_string(), ctx.seed.to_string()),
        ("seconds".to_string(), ctx.seconds.to_string()),
        ("trace".to_string(), ctx.trace.to_string()),
        (
            "machine".to_string(),
            format!(
                "{{\"nproc\":{},\"cpu_model\":{},\"git_sha\":{},\"rustc\":{}}}",
                facts.nproc,
                json::str(&facts.cpu_model),
                json::str(&facts.git_sha),
                json::str(&facts.rustc)
            ),
        ),
        ("correct".to_string(), out.problems.is_empty().to_string()),
        (
            "problems".to_string(),
            format!(
                "[{}]",
                out.problems
                    .iter()
                    .map(|p| json::str(p))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("attempted".to_string(), out.attempted.to_string()),
        ("failed".to_string(), out.failed.to_string()),
        ("metrics".to_string(), metrics_json(out, declared)),
        (
            "named".to_string(),
            format!(
                "{{{}}}",
                out.named
                    .iter()
                    .map(|(n, v, u)| format!(
                        "{}:{{\"value\":{},\"unit\":{}}}",
                        json::str(n),
                        json::num(*v),
                        json::str(u)
                    ))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        (
            "notes".to_string(),
            format!(
                "{{{}}}",
                out.notes
                    .iter()
                    .map(|(n, v)| format!("{}:{}", json::str(n), json::num(*v)))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    fields.extend(out.report.iter().cloned());
    let body = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json::str(k)))
        .collect::<Vec<_>>()
        .join(",");
    let path = ctx.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    ));
    std::fs::write(path, format!("{{{body}}}\n"))
}

/// `{"name":{"value":…,"unit":…},…}` over the declared metrics.
fn metrics_json(out: &RunOutput, declared: &[(String, &str)]) -> String {
    let items: Vec<String> = declared
        .iter()
        .filter_map(|(n, u)| {
            out.metrics.get(n).map(|v| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::str(n),
                    json::num(*v),
                    json::str(u)
                )
            })
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload grid-1d|grid-2d|serve-mix|all --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let facts = sys::Facts::gather();
    let workloads: Vec<&'static str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w => vec![WORKLOADS.into_iter().find(|x| *x == w).expect("validated")],
    };
    for w in &workloads {
        if let Err(e) = check_cores(w, facts.nproc) {
            eprintln!("perfbench: refusing to run: {e}");
            return ExitCode::from(2);
        }
    }
    eprintln!(
        "perfbench: nproc {} | {} | git {} | {} | seed {}",
        facts.nproc, facts.cpu_model, facts.git_sha, facts.rustc, args.seed
    );
    let declared: Vec<(String, &str)> = if args.trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut results = Vec::new();
    for w in &workloads {
        let out = match run_workload(&args, w, &facts) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: {w} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "== {w} (seed {}, {}) ==",
            args.seed,
            if args.trace { "traced" } else { "untraced" }
        );
        for (n, v, u) in out
            .named
            .iter()
            .filter(|(n, _, _)| !out.metrics.contains_key(n))
        {
            eprintln!("  {n:<28} {v:>14.4} {u}");
        }
        for (n, u) in &declared {
            eprintln!(
                "  {n:<28} {:>14.4} {u}",
                out.metrics.get(n).copied().unwrap_or(f64::NAN)
            );
        }
        for p in &out.problems {
            eprintln!("  CHECK FAILED: {p}");
        }
        results.push((*w, out));
    }
    let correct = results.iter().all(|(_, o)| o.problems.is_empty());
    let (attempted, failed) = results
        .iter()
        .fold((0, 0), |(a, f), (_, o)| (a + o.attempted, f + o.failed));
    let metrics = if let [(_, only)] = results.as_slice() {
        metrics_json(only, &declared)
    } else {
        let items: Vec<String> = results
            .iter()
            .flat_map(|(w, o)| {
                declared.iter().filter_map(move |(n, u)| {
                    o.metrics.get(n).map(|v| {
                        format!(
                            "{}:{{\"value\":{},\"unit\":{}}}",
                            json::str(&format!("{w}.{n}")),
                            json::num(*v),
                            json::str(u)
                        )
                    })
                })
            })
            .collect();
        format!("{{{}}}", items.join(","))
    };
    println!("{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root must declare exactly the
    /// metrics this program emits, with the same units.
    #[test]
    fn benchmark_json_matches_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(json::Value::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k: &str| {
                            m.get(k)
                                .and_then(json::Value::str)
                                .unwrap_or_default()
                                .to_string()
                        };
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks {key}"),
            }
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(list("per_layer"), layers);
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        for (n, _) in per_layer_metrics() {
            assert!(stats::is_metric_name(&n), "{n}");
        }
    }

    #[test]
    fn refuses_more_threads_than_cpus() {
        assert!(check_cores("grid-1d", 1).is_err());
        assert!(check_cores("serve-mix", 1).is_err());
        assert!(check_cores("grid-2d", 2).is_ok());
    }
}
