//! In-memory span recorder for the traced replays.
//!
//! The benchmark records a span around each call it makes into a
//! layer's public entry point: name, start, end, and the span that
//! caused it. Spans stay in memory and are written out when the run
//! ends. A layer's self time is its spans' durations minus the parts of
//! those intervals their child spans cover.

use crate::json;
use crate::stats::metric_name;
use crate::RunOutput;
use dpbench::prelude::{NAMES_1D, NAMES_2D};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds from the tracer's epoch.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Summed self time, ms.
    pub self_ms: f64,
    /// Number of spans.
    pub calls: usize,
}

/// Span recorder. A disabled tracer records nothing and runs the same
/// calls, which is how the replay measures the tracing overhead.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only passes calls through.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`] or [`Tracer::end_as`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Close a span under a name known only after the call (a plan
    /// lookup that turned out to be a build).
    pub fn end_as(&mut self, id: Option<SpanId>, name: &'static str) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            self.spans[id].name = name;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of every span, ms, in recording order.
    fn self_ms(&self) -> Vec<f64> {
        let mut child_ns = vec![0_u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Per-layer self time and call counts.
    pub fn layers(&self) -> Layers {
        let mut out = Layers::new();
        for (s, ms) in self.spans.iter().zip(self.self_ms()) {
            let e = out.entry(s.name).or_default();
            e.self_ms += ms;
            e.calls += 1;
        }
        out
    }

    /// Self times (ms) of every span named `name`.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ms())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ms)| ms)
            .collect()
    }

    /// Write every span as one JSON line: id, name, start/end (ns from
    /// the epoch), parent.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer self times, keyed by span name.
pub type Layers = BTreeMap<&'static str, LayerTime>;

/// Every registered mechanism once: the 1-D suite, then the 2-D-only
/// ones.
pub fn mechanisms() -> impl Iterator<Item = &'static str> {
    NAMES_1D
        .iter()
        .chain(NAMES_2D.iter().filter(|n| !NAMES_1D.contains(n)))
        .copied()
}

/// Span name of a mechanism's execute layer (interned once per name).
pub fn execute_span(mech: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut map = NAMES
        .get_or_init(Default::default)
        .lock()
        .expect("span names poisoned");
    map.entry(mech.to_string()).or_insert_with(|| {
        Box::leak(format!("algorithms.execute.{}", metric_name(mech)).into_boxed_str())
    })
}

/// What every traced workload reports from its replay: each mechanism's
/// execute time and their total; every layer's share of the replay's
/// layer time (all spans but the `root` ones, whose self time is the
/// replay's own remainder); the tracing overhead (traced against
/// untraced replay wall); and parallel efficiency and unattributed time
/// against `capacity_ms`, the threads × untraced wall of the measured
/// run.
pub fn report_layers(
    out: &mut RunOutput,
    layers: &Layers,
    root: &str,
    (plain_s, traced_s): (f64, f64),
    capacity_ms: f64,
) {
    let self_ms = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ms);
    let mut execute_ms = 0.0;
    for m in mechanisms() {
        let ms = self_ms(execute_span(m));
        out.metric(&format!("algorithms.execute_ms.{}", metric_name(m)), ms);
        execute_ms += ms;
    }
    out.metric("algorithms.execute_ms", execute_ms);
    let layer_ms: f64 = layers
        .iter()
        .filter(|(n, _)| **n != root)
        .map(|(_, l)| l.self_ms)
        .sum();
    out.metric("runner.parallel_efficiency", layer_ms / capacity_ms);
    out.metric("runner.unattributed_ms", capacity_ms - layer_ms);
    out.metric("trace.overhead_pct", (traced_s - plain_s) / plain_s * 100.0);
    let shares: Vec<String> = layers
        .iter()
        .filter(|(n, _)| **n != root)
        .map(|(n, l)| {
            format!(
                "{{\"layer\":\"{n}\",\"self_ms\":{},\"calls\":{},\"share\":{}}}",
                json::num(l.self_ms),
                l.calls,
                json::num(l.self_ms / layer_ms)
            )
        })
        .collect();
    out.report("layer_shares", format!("[{}]", shares.join(",")));
    out.report("replay_unattributed_ms", json::num(self_ms(root)));
    out.report(
        "replay_wall_ms",
        format!(
            "{{\"untraced\":{},\"traced\":{}}}",
            json::num(plain_s * 1e3),
            json::num(traced_s * 1e3)
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("unit", None);
        t.span("leaf", root, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.end(root);
        let layers = t.layers();
        let (unit, leaf) = (layers["unit"], layers["leaf"]);
        assert_eq!((unit.calls, leaf.calls), (1, 1));
        assert!(leaf.self_ms >= 20.0);
        assert!(unit.self_ms < leaf.self_ms, "{unit:?} vs {leaf:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_call() {
        let mut t = Tracer::new(false);
        let root = t.begin("unit", None);
        assert_eq!(t.span("leaf", root, || 7), 7);
        t.end_as(root, "other");
        assert!(t.layers().is_empty());
    }
}
