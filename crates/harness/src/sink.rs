//! Sink-based result pipeline: where a grid's error samples go.
//!
//! The runner no longer accumulates results and returns a store at the
//! end of the grid; its workers stream each completed unit through a
//! bounded channel to a single consumer that feeds a [`ResultSink`].
//! Sinks decide what to keep:
//!
//! * [`MemorySink`] — everything, in an index-backed
//!   [`ResultStore`] (the old behavior; what the figure binaries use);
//! * [`JsonlSink`] — append-only records on disk for larger-than-memory
//!   grids. Each completed unit writes its samples followed by a
//!   completion marker, and the file doubles as the **resume ledger**:
//!   [`read_ledger`] recovers the set of finished units after a crash;
//! * [`AggregatingSink`] — O(δ) state per (algorithm, setting) via the
//!   streaming Welford/t-digest [`StreamingSummary`] in `dpbench-stats`;
//!   its summaries **merge** across shards ([`AggregatingSink::merge_from`])
//!   and serialize to a compact sketch file, so a fleet aggregates
//!   without re-reading raw samples;
//! * [`Tee`] — fan out to several sinks at once.
//!
//! ## The JSONL format
//!
//! One self-describing JSON object per line, written by this module's
//! `format!` templates (fixed field order) and read back through
//! [`dpbench_core::json`]:
//!
//! ```text
//! {"t":"run","fp":"<16 hex>","n_trials":3,"cfg":"datasets=…;…"}  ← header
//! {"t":"s","unit":"<16 hex>","pos":7,"alg":"DAWA","dataset":"MEDCOST",
//!  "scale":100000,"domain":"4096","eps":0.1,"sample":0,"trial":2,
//!  "err":0.00123}                                      ← one sample
//! {"t":"u","unit":"<16 hex>","pos":7}                  ← unit completed
//! ```
//!
//! Floats are written with Rust's shortest round-trip formatting, so
//! parse → re-format reproduces the bytes exactly. Because the runner
//! emits units in manifest order, a fresh single-process run, a
//! cleanly interrupted-then-resumed run (append to the same file), and
//! [`merge_jsonl`]-combined shard files all yield **byte-identical**
//! JSONL — `diff` is a complete correctness check.
//!
//! ## Corruption policy
//!
//! A dirty crash can tear the **final** line of the file mid-write; that
//! single case is recoverable by construction (the per-unit flush
//! discipline means a torn line's unit has no completion marker and is
//! re-run on resume), so the readers tolerate an unparseable line *only
//! as the last content of the file* — and [`JsonlSink::append`]
//! truncates it before resuming, keeping the healed file fully valid.
//! A malformed line **followed by more records** can only be real
//! mid-file corruption (bit rot, manual edits, interleaved writers);
//! every reader turns it into a hard `InvalidData` error carrying the
//! line number instead of silently skipping it — a benchmark must never
//! convert corruption into plausible numbers.

use crate::config::{is_valid_identifier, Setting};
use crate::manifest::{ManifestUnit, RunManifest, UnitId};
use crate::results::{parse_domain, ErrorSample, ResultStore};
use dpbench_core::json::{self, Value};
use dpbench_stats::{Centroid, StreamingSummary, Summary, TDigest, Welford};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Consumer of a run's results, fed one completed unit at a time by the
/// runner's sink thread (single-threaded: implementations need no
/// internal locking, `Send` only because the consumer runs on a worker).
pub trait ResultSink: Send {
    /// Called once before any unit, with the manifest being executed
    /// (already shard/resume-filtered).
    fn begin(&mut self, manifest: &RunManifest) -> io::Result<()> {
        let _ = manifest;
        Ok(())
    }

    /// All trials of one completed unit, in trial order. Units arrive in
    /// manifest order regardless of worker scheduling.
    fn unit_complete(&mut self, unit: &ManifestUnit, samples: &[ErrorSample]) -> io::Result<()>;

    /// Called once after the last unit (also on early stop).
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// MemorySink
// ---------------------------------------------------------------------------

/// Keeps every sample in an index-backed [`ResultStore`].
#[derive(Debug, Default)]
pub struct MemorySink {
    store: ResultStore,
    completed: Vec<UnitId>,
}

impl MemorySink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated store.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Ids of completed units, in completion (= manifest) order.
    pub fn completed(&self) -> &[UnitId] {
        &self.completed
    }

    /// Consume into the store.
    pub fn into_store(self) -> ResultStore {
        self.store
    }
}

impl ResultSink for MemorySink {
    fn unit_complete(&mut self, unit: &ManifestUnit, samples: &[ErrorSample]) -> io::Result<()> {
        self.completed.push(unit.id);
        self.store.extend(samples.iter().cloned());
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// JsonlSink
// ---------------------------------------------------------------------------

/// Append-only JSONL writer; the file is both the result stream and the
/// resume ledger. Flushes after every unit so a crash loses at most the
/// unit in flight (whose samples, lacking a completion marker, are
/// ignored by the readers).
pub struct JsonlSink<W: Write + Send> {
    out: W,
    /// Write the `{"t":"run",…}` header on `begin` (false when appending
    /// to an existing ledger).
    write_header: bool,
}

impl JsonlSink<BufWriter<File>> {
    /// Create (truncate) `path`; `begin` writes a fresh header.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self {
            out: BufWriter::new(File::create(path)?),
            write_header: true,
        })
    }

    /// Open `path` for append without a new header — the resume mode,
    /// continuing a ledger whose header was validated by the caller.
    ///
    /// If a crash tore the final line mid-write, it is **truncated**
    /// first: the torn record's unit has no completion marker (per-unit
    /// flush writes the marker last), so dropping the fragment loses
    /// nothing, and the healed file stays fully parseable — which is what
    /// lets the readers treat any *mid-file* malformed line as hard
    /// corruption. A complete final record merely missing its newline is
    /// terminated instead.
    pub fn append<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        repair_tail(path.as_ref())?;
        Ok(Self {
            out: BufWriter::new(OpenOptions::new().append(true).open(path)?),
            write_header: false,
        })
    }
}

/// Truncate a torn (unparseable) final line; newline-terminate a valid
/// final record that lost its newline in a crash.
fn repair_tail(path: &Path) -> io::Result<()> {
    repair_tail_with(path, |line| !matches!(classify(line), Line::Malformed(_)))
}

/// [`repair_tail`] parametrized on what "well-formed" means, so other
/// strict JSONL ledgers (e.g. the serve spend journal) can heal their own
/// torn tails with their own line grammar. `is_valid` must accept exactly
/// the lines the matching reader accepts — anything else gets truncated
/// when it is the final line.
pub(crate) fn repair_tail_with(path: &Path, is_valid: impl Fn(&str) -> bool) -> io::Result<()> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut offset: u64 = 0;
    let mut last_start: u64 = 0;
    let mut last_line: Vec<u8> = Vec::new();
    let mut ends_with_newline = true; // vacuously, for an empty file
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let n = reader.read_until(b'\n', &mut buf)?;
        if n == 0 {
            break;
        }
        ends_with_newline = buf.last() == Some(&b'\n');
        let content = if ends_with_newline {
            &buf[..n - 1]
        } else {
            &buf[..]
        };
        if !content.iter().all(u8::is_ascii_whitespace) {
            last_start = offset;
            last_line = content.to_vec();
        }
        offset += n as u64;
    }
    if last_line.is_empty() {
        return Ok(()); // empty (or all-blank) file: nothing to repair
    }
    let torn = !is_valid(&String::from_utf8_lossy(&last_line));
    if torn {
        OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(last_start)
    } else if !ends_with_newline {
        OpenOptions::new().append(true).open(path)?.write_all(b"\n")
    } else {
        Ok(())
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wrap any writer (headers on `begin`); for tests and pipes.
    pub fn from_writer(out: W) -> Self {
        Self {
            out,
            write_header: true,
        }
    }
}

/// Serialize one sample to its canonical JSONL line (no trailing newline).
pub fn format_sample(unit: UnitId, pos: usize, s: &ErrorSample) -> String {
    format!(
        "{{\"t\":\"s\",\"unit\":\"{unit}\",\"pos\":{pos},\"alg\":\"{}\",\"dataset\":\"{}\",\"scale\":{},\"domain\":\"{}\",\"eps\":{},\"sample\":{},\"trial\":{},\"err\":{}}}",
        s.algorithm, s.setting.dataset, s.setting.scale, s.setting.domain, s.setting.epsilon,
        s.sample, s.trial, s.error
    )
}

fn format_unit_done(unit: UnitId, pos: usize) -> String {
    format!("{{\"t\":\"u\",\"unit\":\"{unit}\",\"pos\":{pos}}}")
}

fn format_header(fingerprint: u64, n_trials: usize, cfg: Option<&str>) -> String {
    match cfg {
        Some(cfg) => format!(
            "{{\"t\":\"run\",\"fp\":\"{fingerprint:016x}\",\"n_trials\":{n_trials},\"cfg\":\"{cfg}\"}}"
        ),
        None => format!("{{\"t\":\"run\",\"fp\":\"{fingerprint:016x}\",\"n_trials\":{n_trials}}}"),
    }
}

/// Reject a manifest whose identifiers (or config summary) the ledger
/// templates cannot represent — fail before the first ledger byte instead
/// of producing an unreadable file. The templates interpolate names
/// verbatim, with no escaping, because they are the byte-level spec that
/// resume, sharding and merge compare with `diff`; an identifier that
/// would need escaping therefore has no ledger form at all.
fn validate_manifest_for_jsonl(manifest: &RunManifest) -> io::Result<()> {
    let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidInput, what);
    if manifest
        .config_summary
        .bytes()
        .any(|b| b == b'"' || b == b'\\' || b.is_ascii_control())
    {
        return Err(invalid(format!(
            "config summary {:?} contains characters the ledger cannot escape",
            manifest.config_summary
        )));
    }
    let mut seen: HashSet<&str> = HashSet::new();
    for u in &manifest.units {
        for name in [u.algorithm.as_str(), u.setting.dataset.as_str()] {
            if seen.insert(name) && !is_valid_identifier(name) {
                return Err(invalid(format!(
                    "cannot write ledger: invalid identifier {name:?} \
                     (dataset/algorithm names must match [A-Za-z0-9_*-]+)"
                )));
            }
        }
    }
    Ok(())
}

impl<W: Write + Send> ResultSink for JsonlSink<W> {
    fn begin(&mut self, manifest: &RunManifest) -> io::Result<()> {
        validate_manifest_for_jsonl(manifest)?;
        if self.write_header {
            writeln!(
                self.out,
                "{}",
                format_header(
                    manifest.fingerprint,
                    manifest.n_trials,
                    Some(&manifest.config_summary)
                )
            )?;
        }
        Ok(())
    }

    fn unit_complete(&mut self, unit: &ManifestUnit, samples: &[ErrorSample]) -> io::Result<()> {
        for s in samples {
            writeln!(self.out, "{}", format_sample(unit.id, unit.pos, s))?;
        }
        writeln!(self.out, "{}", format_unit_done(unit.id, unit.pos))?;
        // Per-unit durability: the ledger is only as crash-safe as its
        // last flushed marker.
        self.out.flush()
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

// ---------------------------------------------------------------------------
// AggregatingSink
// ---------------------------------------------------------------------------

/// O(δ)-per-group aggregation: one mergeable [`StreamingSummary`] per
/// (algorithm, setting). The sink for grids whose raw sample set exceeds
/// memory but whose report is per-setting statistics. Shard summaries
/// serialize ([`AggregatingSink::write_summary`]) and combine
/// ([`AggregatingSink::merge_from`]) without touching raw samples.
#[derive(Debug, Default)]
pub struct AggregatingSink {
    groups: BTreeMap<(String, String), (Setting, StreamingSummary)>,
    samples_seen: u64,
    /// Fingerprint of the run being aggregated (captured in `begin`),
    /// guarding cross-run merges the way ledger headers do.
    fingerprint: Option<u64>,
    n_trials: usize,
}

impl AggregatingSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total samples consumed.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Fingerprint of the aggregated run (None before `begin`).
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// Per-group streaming summaries, ordered by algorithm then setting
    /// key. Percentiles are t-digest estimates within the documented
    /// tolerance (see `dpbench_stats::tdigest`).
    pub fn summaries(&self) -> Vec<(String, Setting, Summary)> {
        self.groups
            .iter()
            .map(|((alg, _), (setting, s))| (alg.clone(), setting.clone(), s.to_summary()))
            .collect()
    }

    /// Iterate the live per-group streaming summaries (algorithm,
    /// setting, summary), ordered by algorithm then setting key. Unlike
    /// [`AggregatingSink::summaries`] this exposes the mergeable state
    /// itself, so consumers (the selector's profile builder) can pool
    /// groups across runs with different fingerprints — a combination
    /// [`AggregatingSink::merge_from`] deliberately refuses.
    pub fn groups(&self) -> impl Iterator<Item = (&str, &Setting, &StreamingSummary)> {
        self.groups
            .iter()
            .map(|((alg, _), (setting, s))| (alg.as_str(), setting, s))
    }

    /// Streaming mean of one (algorithm, setting) group (NaN if absent).
    pub fn mean_error(&self, algorithm: &str, setting: &Setting) -> f64 {
        self.groups
            .get(&(algorithm.to_string(), setting.to_string()))
            .map(|(_, s)| s.mean())
            .unwrap_or(f64::NAN)
    }

    /// Absorb another sink's aggregation: afterwards every group
    /// summarizes the union of both sample streams (exact counts and
    /// moments, digest-tolerance quantiles). Errors when the two sinks
    /// aggregated different runs.
    pub fn merge_from(&mut self, other: &AggregatingSink) -> io::Result<()> {
        if let (Some(a), Some(b)) = (self.fingerprint, other.fingerprint) {
            if a != b {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "cannot merge summaries from different runs (fingerprint mismatch)",
                ));
            }
            if self.n_trials != other.n_trials {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "cannot merge summaries that disagree on n_trials",
                ));
            }
        }
        if self.fingerprint.is_none() {
            self.fingerprint = other.fingerprint;
            self.n_trials = other.n_trials;
        }
        self.samples_seen += other.samples_seen;
        for (key, (setting, summary)) in &other.groups {
            match self.groups.entry(key.clone()) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().1.merge(summary);
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert((setting.clone(), summary.clone()));
                }
            }
        }
        Ok(())
    }

    /// Serialize the aggregation state as compact JSONL: an `agg` header
    /// followed by one `g` record per (algorithm, setting) group carrying
    /// exact moments (Welford n/mean/M2, min/max) and the t-digest
    /// centroid list. Round-trips exactly through [`read_summary`]
    /// (floats use shortest round-trip formatting).
    pub fn write_summary<W: Write>(&mut self, out: &mut W) -> io::Result<()> {
        let fp = self.fingerprint.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "summary has no run fingerprint (the sink never began a run)",
            )
        })?;
        writeln!(
            out,
            "{{\"t\":\"agg\",\"fp\":\"{fp:016x}\",\"n_trials\":{},\"samples\":{}}}",
            self.n_trials, self.samples_seen
        )?;
        for ((alg, _), entry) in self.groups.iter_mut() {
            let (setting, summary) = entry;
            let w = *summary.welford();
            let (min, max) = (summary.min(), summary.max());
            let digest = summary.digest_mut();
            let comp = digest.compression();
            let cent: Vec<String> = digest
                .centroids()
                .iter()
                .map(|c| format!("[{},{}]", c.mean, c.weight))
                .collect();
            writeln!(
                out,
                "{{\"t\":\"g\",\"alg\":\"{alg}\",\"dataset\":\"{}\",\"scale\":{},\"domain\":\"{}\",\"eps\":{},\"n\":{},\"mean\":{},\"m2\":{},\"min\":{min},\"max\":{max},\"comp\":{comp},\"cent\":[{}]}}",
                setting.dataset,
                setting.scale,
                setting.domain,
                setting.epsilon,
                w.count(),
                w.mean(),
                w.m2(),
                cent.join(",")
            )?;
        }
        out.flush()
    }

    /// Convenience: [`AggregatingSink::write_summary`] to a file —
    /// atomically ([`atomic_write`]), so a concurrent reader (the fleet
    /// driver fetching summaries, a dashboard) never observes a torn
    /// half-written summary.
    pub fn write_summary_file<P: AsRef<Path>>(&mut self, path: P) -> io::Result<()> {
        let mut buf = Vec::new();
        self.write_summary(&mut buf)?;
        atomic_write(path.as_ref(), &buf)
    }

    /// Fold one sample into its (algorithm, setting) group — the
    /// rebuild path for [`summary_from_ledger`].
    fn push_sample(&mut self, s: &ErrorSample) {
        let group = self
            .groups
            .entry((s.algorithm.clone(), s.setting.to_string()))
            .or_insert_with(|| (s.setting.clone(), StreamingSummary::new()));
        self.samples_seen += 1;
        group.1.push(s.error);
    }
}

/// Rebuild an [`AggregatingSink`] from a JSONL ledger's completed
/// samples. This is how a **resumed** shard produces its summary file:
/// the streaming sink only saw the units run after the crash, but the
/// ledger holds the union, and one local pass recovers the full
/// aggregation (the cross-shard path still never touches raw samples).
pub fn summary_from_ledger<P: AsRef<Path>>(path: P) -> io::Result<AggregatingSink> {
    let path = path.as_ref();
    let ledger = read_ledger(path)?;
    let mut sink = AggregatingSink::new();
    sink.fingerprint = Some(ledger.fingerprint);
    sink.n_trials = ledger.n_trials;
    // Two passes total: the validating ledger read above plus one sample
    // pass (`read_samples` would re-read the ledger a second time).
    let mut keyed = collect_samples(path, &ledger.done)?;
    keyed.sort_by_key(|(_, pos, s)| (*pos, s.trial));
    for (_, _, s) in &keyed {
        sink.push_sample(s);
    }
    Ok(sink)
}

/// Write `bytes` to `path` via a sibling temp file and an atomic
/// rename, so a polling reader can never observe a torn or half-written
/// file — the producer-side dual of the strict readers' corruption
/// policy. Used for every small per-round JSON the fleet driver emits
/// (the `--status-file` feed, merged summaries); the append-only ledgers
/// keep their flush-per-unit discipline instead, because their readers
/// are torn-tail-aware by design.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_file_name(format!(
        "{}.tmp",
        path.file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default()
    ));
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.flush()?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// A [`ResultSink`] wrapper that sleeps for a fixed duration before
/// forwarding each completed unit — the slow-machine simulator behind
/// `dpbench run --unit-delay-ms` and the fleet's straggler drills. The
/// sleep happens in small increments so an optional cancel flag (a kill
/// from the fleet driver) interrupts promptly; a cancelled unit is *not*
/// forwarded, exactly like a worker killed mid-computation.
pub struct Throttle<'a> {
    inner: &'a mut dyn ResultSink,
    per_unit: std::time::Duration,
    cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl<'a> Throttle<'a> {
    /// Wrap `inner`, delaying each unit by `per_unit`.
    pub fn new(inner: &'a mut dyn ResultSink, per_unit: std::time::Duration) -> Self {
        Self {
            inner,
            per_unit,
            cancel: None,
        }
    }

    /// Abort (with an `Interrupted` error) when the flag goes true
    /// mid-sleep.
    pub fn with_cancel(mut self, cancel: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

impl ResultSink for Throttle<'_> {
    fn begin(&mut self, manifest: &RunManifest) -> io::Result<()> {
        self.inner.begin(manifest)
    }

    fn unit_complete(&mut self, unit: &ManifestUnit, samples: &[ErrorSample]) -> io::Result<()> {
        let mut remaining = self.per_unit;
        let slice = std::time::Duration::from_millis(5);
        while !remaining.is_zero() {
            if let Some(cancel) = &self.cancel {
                if cancel.load(std::sync::atomic::Ordering::Relaxed) {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "throttled unit cancelled",
                    ));
                }
            }
            let step = remaining.min(slice);
            std::thread::sleep(step);
            remaining -= step;
        }
        self.inner.unit_complete(unit, samples)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
}

/// True when `path` holds no well-formed record at all — only blank
/// lines and/or a torn fragment. This distinguishes "a writer died
/// before its first flush completed" (safe to start fresh) from a file
/// with real content whose header is damaged (corruption, surfaced as
/// an error by [`read_ledger`]).
pub fn ledger_is_effectively_empty<P: AsRef<Path>>(path: P) -> io::Result<bool> {
    for line in BufReader::new(File::open(path)?).lines() {
        if !matches!(classify(&line?), Line::Blank | Line::Malformed(_)) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Merge per-shard summary files into one [`AggregatingSink`] — the
/// cross-shard aggregation path that ships sketches instead of samples.
pub fn merge_summary_files<P: AsRef<Path>>(inputs: &[P]) -> io::Result<AggregatingSink> {
    if inputs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "no summary files to merge",
        ));
    }
    let mut merged = AggregatingSink::new();
    for path in inputs {
        merged.merge_from(&read_summary(path)?)?;
    }
    Ok(merged)
}

impl ResultSink for AggregatingSink {
    fn begin(&mut self, manifest: &RunManifest) -> io::Result<()> {
        if let Some(fp) = self.fingerprint {
            if fp != manifest.fingerprint {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "aggregating sink already holds a different run's summaries",
                ));
            }
        }
        self.fingerprint = Some(manifest.fingerprint);
        self.n_trials = manifest.n_trials;
        Ok(())
    }

    fn unit_complete(&mut self, unit: &ManifestUnit, samples: &[ErrorSample]) -> io::Result<()> {
        // Every sample of a unit shares its (algorithm, setting): one key
        // build and one map lookup per unit, then O(1) pushes.
        let group = self
            .groups
            .entry((unit.algorithm.clone(), unit.setting.to_string()))
            .or_insert_with(|| (unit.setting.clone(), StreamingSummary::new()));
        for s in samples {
            self.samples_seen += 1;
            group.1.push(s.error);
        }
        Ok(())
    }
}

/// Parse a summary file written by [`AggregatingSink::write_summary`].
/// Summary files are rewritten whole (not appended), so *any* malformed
/// line is an `InvalidData` error — there is no torn-tail tolerance here.
pub fn read_summary<P: AsRef<Path>>(path: P) -> io::Result<AggregatingSink> {
    let mut sink = AggregatingSink::new();
    let mut group_count: u64 = 0;
    for (i, line) in BufReader::new(File::open(path)?).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let rec = json::parse(&line).map_err(|e| bad(i, &e.to_string()))?;
        match rec.get("t").and_then(Value::as_str) {
            Some("agg") => {
                let fp = rec
                    .get("fp")
                    .and_then(Value::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| bad(i, "bad summary header fingerprint"))?;
                if sink.fingerprint.is_some() {
                    return Err(bad(i, "duplicate summary header"));
                }
                sink.fingerprint = Some(fp);
                sink.n_trials = rec
                    .get("n_trials")
                    .and_then(Value::as_num)
                    .ok_or_else(|| bad(i, "bad summary header n_trials"))?;
                sink.samples_seen = rec
                    .get("samples")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| bad(i, "bad summary header sample count"))?;
            }
            Some("g") => {
                if sink.fingerprint.is_none() {
                    return Err(bad(i, "group record before summary header"));
                }
                let (alg, setting, summary) =
                    parse_group(&rec).ok_or_else(|| bad(i, "malformed group record"))?;
                group_count += summary.count();
                if sink
                    .groups
                    .insert((alg, setting.to_string()), (setting, summary))
                    .is_some()
                {
                    return Err(bad(i, "duplicate group record"));
                }
            }
            _ => return Err(bad(i, "unrecognized summary record")),
        }
    }
    if sink.fingerprint.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "summary file has no header",
        ));
    }
    if group_count != sink.samples_seen {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "summary header claims {} samples but groups hold {group_count}",
                sink.samples_seen
            ),
        ));
    }
    Ok(sink)
}

/// Parse one `{"t":"g",…}` summary group record.
fn parse_group(rec: &Value) -> Option<(String, Setting, StreamingSummary)> {
    let float = |key| rec.get(key).and_then(Value::as_f64);
    let alg = rec.get("alg")?.as_str()?.to_string();
    let setting = parse_setting(rec)?;
    let n = rec.get("n")?.as_u64()?;
    let (min, max) = (float("min")?, float("max")?);
    let centroids = rec
        .get("cent")?
        .as_array()?
        .iter()
        .map(|pair| match pair.as_array()? {
            [mean, weight] => Some(Centroid {
                mean: mean.as_f64()?,
                weight: weight.as_f64()?,
            }),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    let digest = TDigest::from_parts(float("comp")?, min, max, centroids);
    if digest.count() != n {
        return None; // weights disagree with the moment count
    }
    Some((
        alg,
        setting,
        StreamingSummary::from_parts(
            Welford::from_parts(n, float("mean")?, float("m2")?),
            min,
            max,
            digest,
        ),
    ))
}

// ---------------------------------------------------------------------------
// Tee
// ---------------------------------------------------------------------------

/// Fan a run out to several sinks (e.g. a summary table in memory plus a
/// JSONL ledger on disk).
#[derive(Default)]
pub struct Tee<'a> {
    sinks: Vec<&'a mut dyn ResultSink>,
}

impl<'a> Tee<'a> {
    /// Tee over the given sinks.
    pub fn new(sinks: Vec<&'a mut dyn ResultSink>) -> Self {
        Self { sinks }
    }
}

impl ResultSink for Tee<'_> {
    fn begin(&mut self, manifest: &RunManifest) -> io::Result<()> {
        self.sinks.iter_mut().try_for_each(|s| s.begin(manifest))
    }

    fn unit_complete(&mut self, unit: &ManifestUnit, samples: &[ErrorSample]) -> io::Result<()> {
        self.sinks
            .iter_mut()
            .try_for_each(|s| s.unit_complete(unit, samples))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.sinks.iter_mut().try_for_each(|s| s.finish())
    }
}

// ---------------------------------------------------------------------------
// JSONL readers
// ---------------------------------------------------------------------------

/// What a ledger (JSONL file) knows about a partially- or fully-completed
/// run.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Run fingerprint from the header.
    pub fingerprint: u64,
    /// Trials per unit from the header.
    pub n_trials: usize,
    /// Config summary from the header (absent in pre-`cfg` ledgers) —
    /// lets a fingerprint mismatch name the diverging field via
    /// [`crate::config::summary_diff`].
    pub cfg: Option<String>,
    /// Units with a completion marker.
    pub done: HashSet<UnitId>,
}

pub(crate) fn bad(line_no: usize, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("jsonl line {}: {what}", line_no + 1),
    )
}

/// One fully-validated ledger line.
pub(crate) enum Line {
    /// `{"t":"run",…}` file header.
    Header {
        fingerprint: u64,
        n_trials: usize,
        cfg: Option<String>,
    },
    /// `{"t":"u",…}` unit-completion marker.
    UnitDone { id: UnitId, pos: usize },
    /// `{"t":"s",…}` sample record.
    Sample {
        id: UnitId,
        pos: usize,
        sample: ErrorSample,
    },
    /// Whitespace only.
    Blank,
    /// Anything that fails to parse completely — tolerable only as the
    /// torn final line of a crashed file.
    Malformed(&'static str),
}

/// Classify (and fully parse) one line. Every reader shares this, so
/// "well-formed" means the same thing to the resume path, the sample
/// loader, the merge, the fleet's header probe and the tail-repair in
/// [`JsonlSink::append`]. A crash tear always fails the strict parse,
/// even one that cuts a trailing number to a shorter valid one
/// (`"pos":15}` → `"pos":1`), because the closing brace goes with it.
pub(crate) fn classify(line: &str) -> Line {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Line::Blank;
    }
    let rec = match json::parse(trimmed) {
        Ok(rec) => rec,
        Err(e) => return Line::Malformed(e.msg),
    };
    let unit = || rec.get("unit")?.as_str().and_then(UnitId::parse);
    let pos = || rec.get("pos")?.as_num();
    match rec.get("t").and_then(Value::as_str) {
        Some("run") => {
            let fp = rec
                .get("fp")
                .and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok());
            let n_trials = rec.get("n_trials").and_then(Value::as_num);
            match (fp, n_trials) {
                (Some(fingerprint), Some(n_trials)) => Line::Header {
                    fingerprint,
                    n_trials,
                    cfg: rec.get("cfg").and_then(Value::as_str).map(str::to_string),
                },
                _ => Line::Malformed("malformed run header"),
            }
        }
        Some("u") => match (unit(), pos()) {
            (Some(id), Some(pos)) => Line::UnitDone { id, pos },
            _ => Line::Malformed("malformed unit marker"),
        },
        Some("s") => match (unit(), pos(), parse_sample(&rec)) {
            (Some(id), Some(pos), Some(sample)) => Line::Sample { id, pos, sample },
            _ => Line::Malformed("malformed sample record"),
        },
        _ => Line::Malformed("unrecognized record"),
    }
}

/// The deferred-error state of the torn-tail rule: a malformed line is
/// held here and only becomes a hard error if another record follows it.
pub(crate) struct TornTail(Option<io::Error>);

impl TornTail {
    pub(crate) fn new() -> Self {
        Self(None)
    }

    /// A well-formed record arrived: any held malformed line was
    /// mid-file, i.e. real corruption.
    pub(crate) fn check(&mut self) -> io::Result<()> {
        match self.0.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    pub(crate) fn defer(&mut self, line_no: usize, what: &str) {
        self.0 = Some(bad(
            line_no,
            &format!("{what} followed by further records (mid-file corruption; only a torn final line is tolerated)"),
        ));
    }
}

/// Parse a ledger/result file: header plus the set of completed units.
///
/// Every line is fully validated. A torn (crash-truncated) **final** line
/// is tolerated, matching the per-unit flush discipline of [`JsonlSink`];
/// a malformed line anywhere else is an `InvalidData` error naming the
/// line — mid-file corruption must never be silently skipped.
pub fn read_ledger<P: AsRef<Path>>(path: P) -> io::Result<Ledger> {
    let mut header: Option<(u64, usize, Option<String>)> = None;
    let mut done = HashSet::new();
    let mut torn = TornTail::new();
    for (i, line) in BufReader::new(File::open(path)?).lines().enumerate() {
        let line = line?;
        let cls = classify(&line);
        if matches!(cls, Line::Blank) {
            continue;
        }
        torn.check()?;
        match cls {
            Line::Header {
                fingerprint,
                n_trials,
                cfg,
            } => match &header {
                Some((fp, nt, _)) if *fp != fingerprint || *nt != n_trials => {
                    return Err(bad(i, "conflicting run headers"));
                }
                _ => header = Some((fingerprint, n_trials, cfg)),
            },
            Line::UnitDone { id, .. } => {
                done.insert(id);
            }
            Line::Sample { .. } | Line::Blank => {}
            Line::Malformed(what) => torn.defer(i, what),
        }
    }
    let (fingerprint, n_trials, cfg) = header
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "ledger has no run header"))?;
    Ok(Ledger {
        fingerprint,
        n_trials,
        cfg,
        done,
    })
}

/// Read every sample belonging to a **completed** unit, keyed by
/// `(unit id, manifest position)` for canonical ordering.
///
/// Crash tolerance: samples of units without a completion marker
/// (in-flight at a crash) are dropped — they will be re-run on resume.
/// But a crash can also leave *orphans of units that later complete*: a
/// `BufWriter` auto-flush can land part of a unit's samples on disk
/// before the crash, and the resume re-runs the unit and appends a
/// second (complete) copy plus the marker. Duplicates are resolved by
/// `(unit, sample-index, trial)` with the **last** occurrence winning —
/// the resume's authoritative rewrite supersedes any pre-crash orphan
/// (per-coordinate RNG makes the values bit-identical anyway;
/// deduplication fixes the *count*). A torn line is tolerated only as
/// the file's final content, exactly as in [`read_ledger`].
pub fn read_samples<P: AsRef<Path>>(path: P) -> io::Result<Vec<(UnitId, usize, ErrorSample)>> {
    let path = path.as_ref();
    // First pass validates structure (torn-tail rule included).
    let done = read_ledger(path)?.done;
    collect_samples(path, &done)
}

/// The sample pass of [`read_samples`], reusing an already-read ledger
/// (callers that hold a [`Ledger`] skip one full parse of the file).
fn collect_samples(
    path: &Path,
    done: &HashSet<UnitId>,
) -> io::Result<Vec<(UnitId, usize, ErrorSample)>> {
    // (unit, sample index, trial) → slot in `out`; last occurrence wins.
    let mut seen: HashMap<(UnitId, usize, usize), usize> = HashMap::new();
    let mut out: Vec<(UnitId, usize, ErrorSample)> = Vec::new();
    for line in BufReader::new(File::open(path)?).lines() {
        let line = line?;
        // A malformed line here can only be the tolerated torn tail —
        // the first pass already rejected mid-file corruption.
        let Line::Sample { id, pos, sample } = classify(&line) else {
            continue;
        };
        if !done.contains(&id) {
            continue;
        }
        match seen.entry((id, sample.sample, sample.trial)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                out[*e.get()] = (id, pos, sample);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(out.len());
                out.push((id, pos, sample));
            }
        }
    }
    Ok(out)
}

/// Result of one incremental [`probe_ledger`] pass.
#[derive(Debug, Clone, Default)]
pub struct LedgerProbe {
    /// Byte offset just past the last complete line consumed — pass it
    /// back as `from_offset` next time.
    pub offset: u64,
    /// Completed-unit ids seen in the newly consumed lines (duplicates
    /// possible across probes after a rewind; callers accumulate into a
    /// set).
    pub units: Vec<UnitId>,
    /// The file was shorter than `from_offset` (truncated, healed, or
    /// recreated since the last probe) and the scan restarted from 0.
    pub rewound: bool,
}

/// Incremental progress probe over a ledger that may be **live** (a
/// shard is appending to it right now) or a **partial copy** (a fetched
/// snapshot of a remote shard's ledger, possibly torn anywhere).
///
/// Reads complete lines starting at `from_offset` and reports the
/// completion markers among them. Deliberately *lenient* where
/// [`read_ledger`] is strict: a probe races the writer by design, so an
/// incomplete trailing line is simply left unconsumed (the returned
/// offset stops before it) and a malformed line is skipped rather than
/// fatal — progress reporting must never abort a healthy fleet. The
/// strict readers remain the arbiters of ledger validity at merge time.
pub fn probe_ledger(path: &Path, from_offset: u64) -> io::Result<LedgerProbe> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let (start, rewound) = if len < from_offset {
        (0, true)
    } else {
        (from_offset, false)
    };
    if start > 0 {
        file.seek(SeekFrom::Start(start))?;
    }
    let mut reader = BufReader::new(file.take(len - start));
    let mut probe = LedgerProbe {
        offset: start,
        units: Vec::new(),
        rewound,
    };
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let n = reader.read_until(b'\n', &mut buf)?;
        if n == 0 {
            break;
        }
        if buf.last() != Some(&b'\n') {
            // Incomplete tail (mid-append or torn copy): leave it for a
            // later probe; the offset stops before it.
            break;
        }
        if let Line::UnitDone { id, .. } = classify(&String::from_utf8_lossy(&buf)) {
            probe.units.push(id);
        }
        probe.offset += n as u64;
    }
    Ok(probe)
}

/// Parse the setting fields shared by sample and summary-group records.
fn parse_setting(rec: &Value) -> Option<Setting> {
    Some(Setting {
        dataset: rec.get("dataset")?.as_str()?.to_string(),
        scale: rec.get("scale")?.as_num()?,
        domain: parse_domain(rec.get("domain")?.as_str()?)?,
        epsilon: rec.get("eps")?.as_f64()?,
    })
}

/// The sample of one `{"t":"s",…}` record; `None` when any field is
/// missing or malformed.
fn parse_sample(rec: &Value) -> Option<ErrorSample> {
    Some(ErrorSample {
        algorithm: rec.get("alg")?.as_str()?.to_string(),
        setting: parse_setting(rec)?,
        sample: rec.get("sample")?.as_num()?,
        trial: rec.get("trial")?.as_num()?,
        error: rec.get("err")?.as_f64()?,
    })
}

/// Load the completed samples of a JSONL file into a [`ResultStore`]
/// (canonical — manifest — order).
pub fn read_store<P: AsRef<Path>>(path: P) -> io::Result<ResultStore> {
    let mut keyed = read_samples(path)?;
    keyed.sort_by_key(|(_, pos, s)| (*pos, s.trial));
    let mut store = ResultStore::new();
    store.extend(keyed.into_iter().map(|(_, _, s)| s));
    Ok(store)
}

// ---------------------------------------------------------------------------
// Streaming k-way merge
// ---------------------------------------------------------------------------

/// One input of the k-way merge: yields completed units in ascending
/// manifest position, holding in memory only the samples of units whose
/// completion marker has not streamed past yet (normally exactly one
/// unit; more only for pre-crash orphans).
struct UnitStream {
    lines: std::iter::Enumerate<std::io::Lines<BufReader<File>>>,
    /// Completed units of this file (from the validating first pass).
    done: HashSet<UnitId>,
    /// Samples (with their claimed manifest position) awaiting their
    /// unit's completion marker.
    pending: HashMap<UnitId, Vec<(usize, ErrorSample)>>,
    /// Position of the last emitted unit (ascending-order guard — also
    /// rejects duplicate markers).
    last_pos: Option<usize>,
    /// Display name for error messages.
    label: String,
    /// Lookahead: the next completed unit, if any.
    head: Option<(usize, UnitId, Vec<ErrorSample>)>,
}

impl UnitStream {
    fn open(path: &Path, done: HashSet<UnitId>) -> io::Result<Self> {
        let mut s = Self {
            lines: BufReader::new(File::open(path)?).lines().enumerate(),
            done,
            pending: HashMap::new(),
            last_pos: None,
            label: path.display().to_string(),
            head: None,
        };
        s.head = s.next_unit()?;
        Ok(s)
    }

    fn corrupt(&self, line_no: usize, what: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: jsonl line {}: {what}", self.label, line_no + 1),
        )
    }

    /// Advance to the next completed unit: `(pos, id, samples)` with
    /// samples deduplicated (last occurrence wins) and in trial order.
    fn next_unit(&mut self) -> io::Result<Option<(usize, UnitId, Vec<ErrorSample>)>> {
        for (i, line) in self.lines.by_ref() {
            let line = line?;
            match classify(&line) {
                Line::Blank | Line::Header { .. } => {}
                // Mid-file malformed lines were rejected by the header
                // pass; anything left is the tolerated torn tail.
                Line::Malformed(_) => {}
                Line::Sample { id, pos, sample } => {
                    if !self.done.contains(&id) {
                        continue; // in-flight at a crash; re-run elsewhere
                    }
                    self.pending.entry(id).or_default().push((pos, sample));
                }
                Line::UnitDone { id, pos } => {
                    if self.last_pos.is_some_and(|last| pos <= last) {
                        return Err(self.corrupt(
                            i,
                            "unit markers out of ascending manifest order \
                             (corrupt or hand-concatenated file)",
                        ));
                    }
                    self.last_pos = Some(pos);
                    let samples = self.pending.remove(&id).unwrap_or_default();
                    // Dedup (sample, trial) last-wins; BTreeMap iteration
                    // restores canonical trial order. A sample claiming a
                    // different manifest slot than its unit's marker is
                    // corruption.
                    let mut dedup: BTreeMap<(usize, usize), ErrorSample> = BTreeMap::new();
                    for (sample_pos, s) in samples {
                        if sample_pos != pos {
                            return Err(self.corrupt(
                                i,
                                "sample and completion marker disagree on \
                                 manifest position",
                            ));
                        }
                        dedup.insert((s.sample, s.trial), s);
                    }
                    return Ok(Some((pos, id, dedup.into_values().collect())));
                }
            }
        }
        // EOF: leftover pending samples belong to units that never
        // completed in this file (in-flight at a crash) — dropped, the
        // completing copy lives in another input or a future resume.
        Ok(None)
    }

    /// Pop the lookahead and refill it.
    fn take(&mut self) -> io::Result<Option<(usize, UnitId, Vec<ErrorSample>)>> {
        let head = self.head.take();
        if head.is_some() {
            self.head = self.next_unit()?;
        }
        Ok(head)
    }
}

/// Merge shard (or partial-run) JSONL files into one canonical file:
/// header, then each completed unit's samples (trial order) followed by
/// its completion marker, units ascending by manifest position — exactly
/// the byte stream a fresh single-process run writes. All inputs must
/// share one run fingerprint **and** `n_trials` header; duplicated units
/// (e.g. overlapping resumes) must agree on every `(sample, trial)`
/// coordinate and error bit, and are emitted once.
///
/// Memory: this is a **streaming k-way merge** — each input holds only
/// its ledger id set and the samples of the unit currently in flight, so
/// fleets scale to grids whose raw sample stream never fits in memory;
/// the rendered output streams to `out` directly.
pub fn merge_jsonl<P: AsRef<Path>, W: Write>(inputs: &[P], out: &mut W) -> io::Result<()> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if inputs.is_empty() {
        return Err(invalid("no input files to merge".into()));
    }
    // Validating first pass: headers must agree on fingerprint, trial
    // count, and (when recorded) config summary.
    let mut header: Option<(u64, usize, Option<String>)> = None;
    let mut streams: Vec<UnitStream> = Vec::with_capacity(inputs.len());
    for path in inputs {
        let path = path.as_ref();
        let ledger = read_ledger(path)?;
        match &header {
            None => header = Some((ledger.fingerprint, ledger.n_trials, ledger.cfg.clone())),
            Some((fp, _, _)) if *fp != ledger.fingerprint => {
                return Err(invalid(format!(
                    "{}: inputs come from different runs (fingerprint mismatch)",
                    path.display()
                )));
            }
            Some((_, nt, _)) if *nt != ledger.n_trials => {
                return Err(invalid(format!(
                    "{}: inputs disagree on n_trials ({} vs {nt})",
                    path.display(),
                    ledger.n_trials
                )));
            }
            Some((_, _, cfg)) if *cfg != ledger.cfg => {
                return Err(invalid(format!(
                    "{}: inputs disagree on the recorded config summary",
                    path.display()
                )));
            }
            Some(_) => {}
        }
        streams.push(UnitStream::open(path, ledger.done)?);
    }
    let (fingerprint, n_trials, cfg) = header.expect("checked non-empty");
    writeln!(
        out,
        "{}",
        format_header(fingerprint, n_trials, cfg.as_deref())
    )?;

    // K-way interleave by manifest position. k is small (one stream per
    // shard), so a linear min-scan beats heap bookkeeping.
    while let Some(min_pos) = streams
        .iter()
        .filter_map(|s| s.head.as_ref().map(|(p, _, _)| *p))
        .min()
    {
        let mut chosen: Option<(UnitId, Vec<ErrorSample>)> = None;
        for stream in &mut streams {
            if stream.head.as_ref().map(|(p, _, _)| *p) != Some(min_pos) {
                continue;
            }
            let label = stream.label.clone();
            let (_, id, samples) = stream.take()?.expect("head checked above");
            match &chosen {
                None => chosen = Some((id, samples)),
                Some((first_id, first)) => {
                    // Duplicated unit (overlapping resumes): must agree
                    // on identity, count, every (sample, trial)
                    // coordinate, and every error bit.
                    let agree = *first_id == id
                        && first.len() == samples.len()
                        && first.iter().zip(&samples).all(|(a, b)| {
                            a.sample == b.sample
                                && a.trial == b.trial
                                && a.error.to_bits() == b.error.to_bits()
                        });
                    if !agree {
                        return Err(invalid(format!(
                            "{label}: duplicated unit {id} at pos {min_pos} \
                             disagrees across inputs"
                        )));
                    }
                }
            }
        }
        let (id, samples) = chosen.expect("some stream held min_pos");
        for s in &samples {
            writeln!(out, "{}", format_sample(id, min_pos, s))?;
        }
        writeln!(out, "{}", format_unit_done(id, min_pos))?;
    }
    Ok(())
}
