//! The fleet driver: launch, watch, copy back, steal, retry, merge.
//!
//! [`run_fleet_with`] conducts `k` shards over any [`ShardTransport`]:
//!
//! 1. expand the manifest **once** and deal it into `k` round-robin
//!    shards ([`RunManifest::shard`]);
//! 2. each round, **fetch** every unfinished shard's ledger back from
//!    the transport (a no-op for local transports, an offset-based
//!    incremental fetch where the transport supports ranging) and
//!    validate it with the strict readers — the copy-back protocol: a
//!    torn, empty, or missing artifact just means the shard is
//!    re-dispatched (or, when the remote ledger was already complete,
//!    relaunched into a cheap resume no-op and re-fetched), while a
//!    ledger from a *different run* is a hard error. A fetch that merely
//!    *failed* defers the shard without burning one of its launch
//!    attempts;
//! 3. launch every shard that is not yet complete and **poll** the
//!    handles: exit status is advisory (the ledger is the truth), a
//!    shard that stops making ledger progress for longer than
//!    [`FleetOptions::stall_timeout`] is killed and retried, and
//!    [`FleetOptions::progress`] tails the (fetched) ledgers into live
//!    per-shard `done/total` lines. When some shards finish while a
//!    straggler is still grinding, the driver **steals** the
//!    straggler's unfinished tail — re-dealing it to the idle slots as
//!    fresh sub-shard launches (`shard(victim, k).span(from, until)`) —
//!    and releases the victim once its units are covered;
//! 4. once every shard's units are covered (by its own ledger and/or
//!    steal ledgers), stream-merge the ledgers into the canonical
//!    output ([`merge_jsonl`]), verify the merged ledger covers the
//!    manifest exactly, then let the transport clean up its remote
//!    scratch space.
//!
//! Because per-trial RNG streams derive from unit coordinates, the merged
//! fleet output is **byte-identical** to an uninterrupted single-process
//! run — even when shards crashed, hung, had their copy-backs torn, or
//! had their tails re-dealt along the way (duplicated units are verified
//! bit-exact and emitted once by the merge). `diff` against a one-shot
//! file is a complete correctness check; CI's fleet smoke jobs and the
//! fault matrix in `tests/fleet_faults.rs` run exactly that.
//!
//! Local shard ledgers are left in place after a successful merge: they
//! are the fleet's crash record. Re-running a fleet over them is a cheap
//! no-op for shards that completed on their own; a shard whose tail was
//! stolen holds only its own units, so a re-run recomputes the stolen
//! tail (the merged output of the first run is still the canonical
//! artifact).

use super::progress::ProgressTailer;
use super::transport::{
    Artifact, FetchOutcome, LaunchSpec, LocalTransport, RangedFetch, ShardHandle, ShardLauncher,
    ShardStatus, ShardTransport, StealSpec,
};
use crate::manifest::{RunManifest, UnitId};
use crate::sink::{atomic_write, merge_jsonl, read_ledger};
use std::collections::HashSet;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How a fleet run is conducted.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Number of shard processes (`k` in `--shard i/k`).
    pub procs: usize,
    /// Launch attempts allowed **per shard** (first attempt + retries).
    /// Rounds in which a shard is merely deferred (its copy-back failed)
    /// do not count against this budget.
    pub max_attempts: usize,
    /// Print per-shard lifecycle lines to stderr.
    pub verbose: bool,
    /// Print live per-shard `done/total` progress lines to stderr,
    /// tailing local ledgers (or periodically fetched copies for remote
    /// transports).
    pub progress: bool,
    /// How often running handles are polled.
    pub poll_interval: Duration,
    /// How often ledgers are probed (and, for remote transports,
    /// re-fetched) for progress, stall detection, and steal decisions.
    pub progress_interval: Duration,
    /// Kill and retry a shard whose ledger shows no new completed unit
    /// for this long. `None` (the default) never kills: a shard with
    /// genuinely slow units must not be mistaken for a hang.
    ///
    /// The kill terminates the transport's **local handle** (the child
    /// process, or the wrapper — `sh`, `ssh`, `docker` — for command
    /// transports). A wrapper that does not propagate termination to
    /// the remote worker (plain `ssh` without a tty) can leave the
    /// remote shard running; if its writes interleave with the
    /// relaunched attempt's, the strict ledger readers surface that as
    /// a hard error rather than merging corrupt data. For such
    /// transports, prefer a remote-side bound (e.g.
    /// `ssh worker{index} 'timeout 3600 {cmd}'`) over — or alongside —
    /// this driver-side timeout.
    ///
    /// A shard the driver *cannot observe* (failing progress fetches)
    /// keeps accruing stall time — otherwise a hang behind a dead
    /// network could evade the timeout forever — so set the timeout
    /// above the worst transient unreachability window as well as above
    /// the slowest unit.
    pub stall_timeout: Option<Duration>,
    /// After completion, copy each shard's `--agg` summary back next to
    /// its ledger (remote transports; local summaries are written in
    /// place).
    pub fetch_summaries: bool,
    /// Re-deal a straggler's unfinished tail to idle slots (work
    /// stealing). On by default: any deal merges byte-identically, so
    /// stealing only changes wall clock, never output.
    pub steal: bool,
    /// Minimum uncovered units a straggler must hold before its tail is
    /// worth re-dealing (stealing a single in-flight unit only
    /// duplicates work).
    pub steal_min_units: usize,
    /// Consecutive rounds one shard may defer (failed copy-back) before
    /// the fleet gives up on it. Distinct from `max_attempts`: deferral
    /// means the remote may be fine and we simply cannot look.
    pub max_defer_rounds: usize,
    /// Write an atomically-updated (temp + rename, never torn) fleet
    /// status JSON here on every probe tick — the pollable dashboard
    /// feed behind `fleet --status-file`.
    pub status_file: Option<PathBuf>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            procs: 2,
            max_attempts: 3,
            verbose: false,
            progress: false,
            poll_interval: Duration::from_millis(25),
            progress_interval: Duration::from_millis(500),
            stall_timeout: None,
            fetch_summaries: false,
            steal: true,
            steal_min_units: 2,
            max_defer_rounds: 20,
            status_file: None,
        }
    }
}

/// What happened to one shard.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Shard index in `0..procs`.
    pub index: usize,
    /// The shard's (driver-side) ledger file.
    pub ledger: PathBuf,
    /// Launch attempts used (0 when a pre-existing ledger was already
    /// complete). Steal launches are counted separately, in
    /// [`FleetReport::steal_launches`].
    pub attempts: usize,
    /// True when any attempt resumed from a partial ledger.
    pub resumed: bool,
    /// Units this shard was responsible for.
    pub units: usize,
    /// Attempts killed by the stall timeout.
    pub stall_kills: usize,
    /// Steal launches that re-dealt part of this shard's tail.
    pub tails_stolen: usize,
}

/// One tail re-deal, as reported by [`FleetReport::steals`].
#[derive(Debug, Clone)]
pub struct StealEvent {
    /// Fleet-wide steal sequence number.
    pub seq: usize,
    /// The straggler shard the units were taken from.
    pub victim: usize,
    /// The idle slot that ran the stolen tail.
    pub slot: usize,
    /// First full-run position of the stolen range (inclusive).
    pub from_pos: usize,
    /// End of the stolen range (exclusive).
    pub until_pos: usize,
    /// Victim units inside the range.
    pub units: usize,
}

/// What the whole fleet did.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-shard outcomes, by shard index.
    pub shards: Vec<ShardOutcome>,
    /// Units in the merged output (= the full manifest).
    pub merged_units: usize,
    /// Total primary shard launches across all rounds.
    pub launches: usize,
    /// Total steal (tail re-deal) launches.
    pub steal_launches: usize,
    /// Every tail re-deal, in launch order.
    pub steals: Vec<StealEvent>,
    /// Bytes moved by whole-artifact copy-backs.
    pub fetch_full_bytes: u64,
    /// Bytes moved by offset-based incremental copy-backs.
    pub fetch_ranged_bytes: u64,
    /// Bytes moved per probe tick, in order — the steady-state traffic
    /// trajectory (O(new bytes) when the transport ranges, O(ledger)
    /// otherwise).
    pub probe_fetch_bytes: Vec<u64>,
}

/// Canonical shard-ledger path for a merged output path: `out.jsonl` →
/// `out.shard3.jsonl` (the `.jsonl` suffix stays last so every ledger
/// tool recognizes the file).
pub fn shard_ledger_path(out: &Path, index: usize) -> PathBuf {
    let name = out
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let base = name.strip_suffix(".jsonl").unwrap_or(&name);
    out.with_file_name(format!("{base}.shard{index}.jsonl"))
}

/// Canonical shard *summary* (mergeable sketch) path: `out.jsonl` →
/// `out.shard3.agg.jsonl`.
pub fn shard_summary_path(out: &Path, index: usize) -> PathBuf {
    let ledger = shard_ledger_path(out, index);
    let name = ledger
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let base = name.strip_suffix(".jsonl").unwrap_or(&name);
    ledger.with_file_name(format!("{base}.agg.jsonl"))
}

/// Canonical steal-ledger path: `out.jsonl` → `out.steal4.jsonl`.
pub fn steal_ledger_path(out: &Path, seq: usize) -> PathBuf {
    let name = out
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let base = name.strip_suffix(".jsonl").unwrap_or(&name);
    out.with_file_name(format!("{base}.steal{seq}.jsonl"))
}

/// Fingerprint of a ledger's header line, if the file starts with a
/// complete well-formed one. A one-line read — the probe-path guard
/// that keeps a foreign ledger delivered into our shard path from being
/// silently observed (and later healed over by a clean re-fetch)
/// instead of erroring like every other validation site.
fn header_fingerprint(path: &Path) -> Option<u64> {
    use std::io::BufRead;
    let f = std::fs::File::open(path).ok()?;
    let mut line = String::new();
    std::io::BufReader::new(f).read_line(&mut line).ok()?;
    if !line.ends_with('\n') {
        return None;
    }
    match crate::sink::classify(&line) {
        crate::sink::Line::Header { fingerprint, .. } => Some(fingerprint),
        _ => None,
    }
}

/// Where one shard stands before (re)launching.
enum ShardState {
    /// No usable ledger — launch fresh.
    Fresh,
    /// A matching partial ledger exists — launch with resume.
    Partial,
    /// Every unit of the shard is already in the ledger.
    Complete,
}

/// Inspect a shard ledger. Corruption and foreign-run ledgers are hard
/// errors (the fleet never silently discards or overwrites data that
/// does not belong to this run); an empty/absent file means fresh.
fn shard_state(path: &Path, shard: &RunManifest) -> io::Result<ShardState> {
    match std::fs::metadata(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(ShardState::Fresh),
        Err(e) => return Err(e),
        Ok(m) if m.len() == 0 => return Ok(ShardState::Fresh),
        Ok(_) => {}
    }
    let ledger = match read_ledger(path) {
        Ok(l) => l,
        // A child killed while its very first write was in flight leaves
        // a non-empty file holding only a torn fragment (no well-formed
        // record). That is a fresh shard — relaunch and let the child's
        // `JsonlSink::create` truncate it — not corruption to abort on.
        Err(_) if crate::sink::ledger_is_effectively_empty(path)? => return Ok(ShardState::Fresh),
        Err(e) => {
            return Err(io::Error::new(
                e.kind(),
                format!("shard ledger {} is unreadable: {e}", path.display()),
            ))
        }
    };
    if ledger.fingerprint != shard.fingerprint {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "shard ledger {} belongs to a different run (fingerprint mismatch); \
                 move it aside before launching this fleet",
                path.display()
            ),
        ));
    }
    let complete = shard.units.iter().all(|u| ledger.done.contains(&u.id));
    Ok(if complete {
        ShardState::Complete
    } else {
        ShardState::Partial
    })
}

/// One copy-back, ranged when the transport supports it.
enum Synced {
    /// The artifact was delivered (possibly zero new bytes).
    Delivered {
        /// Bytes actually transferred.
        bytes: u64,
        /// True when the ranged path delivered it.
        ranged: bool,
    },
    /// Confirmed absence of the remote artifact.
    Missing,
}

/// Fetch one artifact, preferring the transport's ranged path (from the
/// caller's validated complete-line offset) and falling back to a full
/// copy when the transport cannot range.
fn sync_artifact(
    transport: &dyn ShardTransport,
    slot: usize,
    artifact: Artifact,
    dest: &Path,
    from: u64,
) -> io::Result<Synced> {
    match transport.fetch_ranged(slot, artifact, dest, from)? {
        RangedFetch::Unsupported => match transport.fetch(slot, artifact, dest)? {
            FetchOutcome::Missing => Ok(Synced::Missing),
            FetchOutcome::InPlace => Ok(Synced::Delivered {
                bytes: 0,
                ranged: false,
            }),
            FetchOutcome::Copied => Ok(Synced::Delivered {
                bytes: std::fs::metadata(dest).map(|m| m.len()).unwrap_or(0),
                ranged: false,
            }),
        },
        RangedFetch::Missing => Ok(Synced::Missing),
        RangedFetch::Unchanged => Ok(Synced::Delivered {
            bytes: 0,
            ranged: true,
        }),
        RangedFetch::Appended { bytes } | RangedFetch::Rewound { bytes } => Ok(Synced::Delivered {
            bytes,
            ranged: true,
        }),
    }
}

/// What the round loop should do with one shard after a copy-back.
enum Refresh {
    /// The shard's units are covered (own ledger and/or steal ledgers)
    /// — nothing to launch.
    Complete,
    /// Launch (fresh or resuming).
    Launch {
        /// Resume from the partial local ledger.
        resume: bool,
    },
    /// The fetch *failed* (as opposed to confirming absence): the
    /// remote is unobservable right now. Neither resuming (maybe
    /// nothing to resume from) nor restarting fresh (maybe discarding
    /// finished remote work) is safe — wait a round and re-fetch,
    /// **without** burning a launch attempt.
    Defer(io::Error),
}

/// One launched attempt (primary shard or stolen tail) being watched by
/// the poll loop.
struct Running {
    /// `None` — primary shard `slot`; `Some(i)` — index into the steal
    /// records.
    steal: Option<usize>,
    slot: usize,
    handle: Box<dyn ShardHandle>,
    exited: bool,
    /// Finalized after exit: last fetch + observe done.
    reaped: bool,
    /// When the attempt's units-done count last moved (or the attempt
    /// started) — the stall clock.
    last_change: Instant,
    /// Whether this attempt was killed (stall or release) — kill once.
    killed: bool,
}

/// Bookkeeping for one steal launch.
struct StealRec {
    spec: StealSpec,
    slot: usize,
    ledger: PathBuf,
    tailer: ProgressTailer,
    /// The victim units inside the stolen range.
    unit_ids: Vec<UnitId>,
    /// Exited and finally fetched.
    finalized: bool,
    /// Exited without covering its range — the range is eligible again.
    dead: bool,
}

/// Everything the status-file serializer needs for one snapshot.
struct StatusInput<'a> {
    fingerprint: u64,
    elapsed_ms: u128,
    units_total: usize,
    units_done: usize,
    launches: usize,
    steal_launches: usize,
    deferred: usize,
    complete: bool,
    shards: &'a [ShardOutcome],
    shard_done: &'a [usize],
    steals: &'a [StealRec],
}

/// Render the single-line fleet-status JSON; the template is the feed's
/// byte-level spec.
fn render_status(s: &StatusInput) -> String {
    let mut out = String::with_capacity(256);
    out.push_str(&format!(
        "{{\"t\":\"fleet-status\",\"fp\":\"{:016x}\",\"elapsed_ms\":{},\
         \"units_total\":{},\"units_done\":{},\"launches\":{},\
         \"steal_launches\":{},\"stall_kills\":{},\"deferred\":{},\
         \"complete\":{},\"shards\":[",
        s.fingerprint,
        s.elapsed_ms,
        s.units_total,
        s.units_done,
        s.launches,
        s.steal_launches,
        s.shards.iter().map(|o| o.stall_kills).sum::<usize>(),
        s.deferred,
        s.complete,
    ));
    for (i, o) in s.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"index\":{},\"units\":{},\"done\":{},\"attempts\":{},\"stall_kills\":{}}}",
            o.index, o.units, s.shard_done[i], o.attempts, o.stall_kills
        ));
    }
    out.push_str("],\"steals\":[");
    for (i, r) in s.steals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"seq\":{},\"victim\":{},\"slot\":{},\"from_pos\":{},\"until_pos\":{},\
             \"units\":{},\"done\":{},\"active\":{}}}",
            r.spec.seq,
            r.spec.victim,
            r.slot,
            r.spec.from_pos,
            r.spec.until_pos,
            r.unit_ids.len(),
            r.tailer.count(),
            !r.finalized,
        ));
    }
    out.push_str("]}\n");
    out
}

/// Run a fleet of local child processes — the PR 4 entry point, now a
/// thin wrapper that adapts `launcher` into a [`LocalTransport`].
pub fn run_fleet(
    manifest: &RunManifest,
    launcher: &dyn ShardLauncher,
    out: &Path,
    opts: &FleetOptions,
) -> io::Result<FleetReport> {
    run_fleet_with(manifest, &LocalTransport { launcher }, out, opts)
}

/// Run the whole fleet over an arbitrary transport: launch `k` shards,
/// poll them, fetch their ledgers back (incrementally when the transport
/// ranges), steal straggler tails onto idle slots, retry/resume
/// failures, then stream-merge the shard and steal ledgers into `out`
/// and verify the merged ledger covers the manifest. See the module docs
/// for the exact protocol.
pub fn run_fleet_with(
    manifest: &RunManifest,
    transport: &dyn ShardTransport,
    out: &Path,
    opts: &FleetOptions,
) -> io::Result<FleetReport> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    if opts.procs == 0 {
        return Err(invalid("fleet needs at least one process".into()));
    }
    if opts.max_attempts == 0 {
        return Err(invalid("fleet needs at least one launch attempt".into()));
    }
    let procs = opts.procs;
    let shards: Vec<RunManifest> = (0..procs).map(|i| manifest.shard(i, procs)).collect();
    let paths: Vec<PathBuf> = (0..procs).map(|i| shard_ledger_path(out, i)).collect();
    let ids: Vec<HashSet<UnitId>> = shards
        .iter()
        .map(|s| s.units.iter().map(|u| u.id).collect())
        .collect();
    let mut outcomes: Vec<ShardOutcome> = (0..procs)
        .map(|i| ShardOutcome {
            index: i,
            ledger: paths[i].clone(),
            attempts: 0,
            resumed: false,
            units: shards[i].len(),
            stall_kills: 0,
            tails_stolen: 0,
        })
        .collect();
    let mut tailers: Vec<ProgressTailer> = shards
        .iter()
        .map(|s| ProgressTailer::new(s.len()))
        .collect();
    // Unioned coverage per shard: own ledger observations plus every
    // steal ledger targeting it. Sets only grow, which is what keeps the
    // fleet-level progress count (and the status file's `units_done`)
    // monotone across steals and relaunches.
    let mut covered: Vec<HashSet<UnitId>> = vec![HashSet::new(); procs];
    let mut complete = vec![false; procs];
    let mut defers = vec![0usize; procs];
    let mut launches = 0usize;
    let mut steals: Vec<StealRec> = Vec::new();
    let mut fetch_full_bytes = 0u64;
    let mut fetch_ranged_bytes = 0u64;
    let mut probe_fetch_bytes: Vec<u64> = Vec::new();
    let mut fleet_done_floor = 0usize;
    let started = Instant::now();

    // The merged output (and the shard ledgers beside it) may live in a
    // directory that does not exist yet.
    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }

    // Union of every *valid* steal ledger targeting shard `i` — the
    // strict-read inclusion rule shared by the completeness check and
    // the final merge, so they can never disagree.
    let steal_done_for = |i: usize, steals: &[StealRec]| -> HashSet<UnitId> {
        let mut done = HashSet::new();
        for r in steals.iter().filter(|r| r.spec.victim == i) {
            if let Ok(l) = read_ledger(&r.ledger) {
                if l.fingerprint == manifest.fingerprint {
                    done.extend(l.done);
                }
            }
        }
        done
    };

    let count_covered = |ids: &HashSet<UnitId>, covered: &HashSet<UnitId>| -> usize {
        ids.iter().filter(|id| covered.contains(*id)).count()
    };

    // The probe-path twin of `shard_state`'s fingerprint check: a fetch
    // that delivers a *foreign* ledger mid-poll is the same stale-scratch
    // hard error, not something to observe and quietly heal over.
    let foreign = |dest: &Path| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "shard ledger {} belongs to a different run (fingerprint mismatch); \
                 move it aside before launching this fleet",
                dest.display()
            ),
        )
    };

    let mut round = 0usize;
    loop {
        round += 1;
        // Which shards still need work? (Re-fetched and re-checked every
        // round: a child that died *after* finishing its ledger counts
        // as complete, and a torn copy-back just means fetch again.)
        let mut pending: Vec<(usize, bool)> = Vec::new(); // (shard, resume)
        let mut any_defer = false;
        for i in 0..procs {
            if complete[i] {
                continue;
            }
            let steal_done = steal_done_for(i, &steals);
            let all_covered = |own: &HashSet<UnitId>| {
                ids[i]
                    .iter()
                    .all(|id| own.contains(id) || steal_done.contains(id))
            };
            let refresh = match sync_artifact(
                transport,
                i,
                Artifact::Ledger,
                &paths[i],
                tailers[i].offset(),
            ) {
                Err(e) => match shard_state(&paths[i], &shards[i])? {
                    // A validated local copy needs no fetch to merge.
                    ShardState::Complete => Refresh::Complete,
                    // Nothing anywhere we can see: nothing to lose by
                    // launching (this is also round 0 of a fetch
                    // template that errors on a not-yet-created file).
                    ShardState::Fresh => Refresh::Launch { resume: false },
                    ShardState::Partial => {
                        let own = read_ledger(&paths[i]).map(|l| l.done).unwrap_or_default();
                        if all_covered(&own) {
                            // Steals finished the tail; the unreachable
                            // victim no longer blocks the fleet.
                            Refresh::Complete
                        } else {
                            Refresh::Defer(e)
                        }
                    }
                },
                Ok(synced) => {
                    let (missing, was_ranged) = match synced {
                        Synced::Delivered { bytes, ranged } => {
                            if ranged {
                                fetch_ranged_bytes += bytes;
                            } else {
                                fetch_full_bytes += bytes;
                            }
                            (false, ranged)
                        }
                        Synced::Missing => (true, false),
                    };
                    let state = match shard_state(&paths[i], &shards[i]) {
                        // Defensive: if a ranged splice diverged (a
                        // relaunch raced the offset), one full re-fetch
                        // repairs it before we give up.
                        Err(_) if was_ranged => {
                            if let Ok(FetchOutcome::Copied) =
                                transport.fetch(i, Artifact::Ledger, &paths[i])
                            {
                                fetch_full_bytes +=
                                    std::fs::metadata(&paths[i]).map(|m| m.len()).unwrap_or(0);
                            }
                            shard_state(&paths[i], &shards[i])?
                        }
                        other => other?,
                    };
                    match state {
                        ShardState::Complete => Refresh::Complete,
                        ShardState::Fresh if all_covered(&HashSet::new()) => Refresh::Complete,
                        ShardState::Fresh => Refresh::Launch { resume: false },
                        ShardState::Partial => {
                            let own = read_ledger(&paths[i]).map(|l| l.done).unwrap_or_default();
                            if all_covered(&own) {
                                Refresh::Complete
                            } else if missing {
                                // Confirmed-absent remote downgrades a
                                // leftover Partial local copy to fresh:
                                // resuming would be doomed, and
                                // deterministic units make the rerun
                                // identical.
                                Refresh::Launch { resume: false }
                            } else {
                                Refresh::Launch { resume: true }
                            }
                        }
                    }
                }
            };
            match refresh {
                Refresh::Complete => {
                    complete[i] = true;
                    covered[i].extend(ids[i].iter().copied());
                    defers[i] = 0;
                }
                Refresh::Launch { resume } => {
                    defers[i] = 0;
                    if outcomes[i].attempts >= opts.max_attempts {
                        return Err(io::Error::other(format!(
                            "shard {i} did not complete after {} attempt(s); its partial \
                             ledger is at {} (re-run the fleet to continue from it)",
                            outcomes[i].attempts,
                            paths[i].display()
                        )));
                    }
                    pending.push((i, resume));
                }
                Refresh::Defer(e) => {
                    defers[i] += 1;
                    any_defer = true;
                    if defers[i] > opts.max_defer_rounds {
                        return Err(io::Error::other(format!(
                            "shard {i}: copy-back failed {} consecutive round(s) \
                             (last error: {e}); its remote ledger is unreachable",
                            defers[i]
                        )));
                    }
                    if opts.verbose {
                        eprintln!("[fleet] shard {i}: copy-back failed ({e}); will retry");
                    }
                }
            }
        }
        if pending.is_empty() && !any_defer {
            break; // every shard covered
        }
        if pending.is_empty() {
            // Every remaining shard is waiting on fetch recovery; give
            // the transport a beat (a deferral burns time, never a
            // launch attempt).
            if let Some(sf) = &opts.status_file {
                let shard_done: Vec<usize> = (0..procs)
                    .map(|i| count_covered(&ids[i], &covered[i]))
                    .collect();
                let done_now: usize = shard_done.iter().sum();
                fleet_done_floor = fleet_done_floor.max(done_now);
                let _ = atomic_write(
                    sf,
                    render_status(&StatusInput {
                        fingerprint: manifest.fingerprint,
                        elapsed_ms: started.elapsed().as_millis(),
                        units_total: manifest.len(),
                        units_done: fleet_done_floor,
                        launches,
                        steal_launches: steals.len(),
                        deferred: defers.iter().filter(|d| **d > 0).count(),
                        complete: false,
                        shards: &outcomes,
                        shard_done: &shard_done,
                        steals: &steals,
                    })
                    .as_bytes(),
                );
            }
            std::thread::sleep(opts.progress_interval);
            continue;
        }

        let mut running: Vec<Running> = Vec::with_capacity(pending.len());
        for &(i, resume) in &pending {
            if opts.verbose {
                eprintln!(
                    "[fleet] round {round}: launching shard {i}/{} ({} units{})",
                    procs,
                    shards[i].len(),
                    if resume { ", resuming" } else { "" }
                );
            }
            let spec = LaunchSpec {
                index: i,
                procs,
                ledger: paths[i].clone(),
                resume,
                attempt: outcomes[i].attempts,
                steal: None,
            };
            outcomes[i].attempts += 1;
            outcomes[i].resumed |= resume;
            launches += 1;
            running.push(Running {
                steal: None,
                slot: i,
                handle: transport.launch(&spec)?,
                exited: false,
                reaped: false,
                last_change: Instant::now(),
                killed: false,
            });
        }

        // Poll every attempt to completion. Exit status is advisory (the
        // next round's fetch + strict read decides); stalls are killed
        // and land in the retry path like any other failure. Probe ticks
        // also drive steal decisions and the status feed, so the loop
        // watches whenever any of those features is on.
        let watch = opts.progress
            || opts.stall_timeout.is_some()
            || opts.status_file.is_some()
            || opts.steal;
        let mut last_probe: Option<Instant> = None;
        loop {
            let mut all_exited = true;
            for r in &mut running {
                if !r.exited {
                    match r.handle.poll()? {
                        ShardStatus::Exited { success } => {
                            r.exited = true;
                            if opts.verbose && !success {
                                match r.steal {
                                    None => eprintln!(
                                        "[fleet] shard {} exited abnormally; will verify its ledger",
                                        r.slot
                                    ),
                                    Some(si) => eprintln!(
                                        "[fleet] steal {} exited abnormally; will verify its ledger",
                                        steals[si].spec.seq
                                    ),
                                }
                            }
                        }
                        ShardStatus::Running => all_exited = false,
                    }
                }
                if r.exited && !r.reaped {
                    // Finalize on exit: one last fetch + observe, so the
                    // coverage sets (which gate idleness, release kills,
                    // and steal deadness) see the attempt's full ledger
                    // even when it outran the probe interval.
                    r.reaped = true;
                    match r.steal {
                        None => {
                            let i = r.slot;
                            if let Ok(Synced::Delivered { bytes, ranged }) = sync_artifact(
                                transport,
                                i,
                                Artifact::Ledger,
                                &paths[i],
                                tailers[i].offset(),
                            ) {
                                if ranged {
                                    fetch_ranged_bytes += bytes;
                                } else {
                                    fetch_full_bytes += bytes;
                                }
                            }
                            if header_fingerprint(&paths[i])
                                .is_some_and(|fp| fp != manifest.fingerprint)
                            {
                                return Err(foreign(&paths[i]));
                            }
                            let _ = tailers[i].observe(&paths[i]);
                            covered[i].extend(tailers[i].done().iter().copied());
                        }
                        Some(si) => {
                            let rec = &mut steals[si];
                            if let Ok(Synced::Delivered { bytes, ranged }) = sync_artifact(
                                transport,
                                r.slot,
                                Artifact::Steal { seq: rec.spec.seq },
                                &rec.ledger,
                                rec.tailer.offset(),
                            ) {
                                if ranged {
                                    fetch_ranged_bytes += bytes;
                                } else {
                                    fetch_full_bytes += bytes;
                                }
                            }
                            if header_fingerprint(&rec.ledger)
                                .is_some_and(|fp| fp != manifest.fingerprint)
                            {
                                return Err(foreign(&rec.ledger));
                            }
                            let _ = rec.tailer.observe(&rec.ledger);
                            covered[rec.spec.victim].extend(rec.tailer.done().iter().copied());
                            rec.finalized = true;
                            rec.dead =
                                !rec.unit_ids.iter().all(|id| rec.tailer.done().contains(id));
                            if rec.dead && opts.verbose {
                                eprintln!(
                                    "[fleet] steal {} died before covering its range; \
                                     the range is eligible again",
                                    rec.spec.seq
                                );
                            }
                        }
                    }
                }
            }
            if all_exited {
                break;
            }
            if watch && last_probe.is_none_or(|t| t.elapsed() >= opts.progress_interval) {
                last_probe = Some(Instant::now());
                let mut tick_bytes = 0u64;
                // Probe every running attempt: fetch (ranged when the
                // transport supports it), observe, update coverage,
                // stall-kill. Progress is advisory: a failed mid-run
                // fetch or probe must not abort the fleet. An errored
                // probe leaves the stall clock exactly as it was — it
                // neither counts as progress (resetting it would let a
                // hung shard behind a dead network evade the timeout
                // forever) nor accelerates the kill.
                for r in &mut running {
                    if r.exited {
                        continue;
                    }
                    let (artifact, before) = match r.steal {
                        None => (Artifact::Ledger, tailers[r.slot].count()),
                        Some(si) => (
                            Artifact::Steal {
                                seq: steals[si].spec.seq,
                            },
                            steals[si].tailer.count(),
                        ),
                    };
                    let (dest, from) = match r.steal {
                        None => (paths[r.slot].clone(), tailers[r.slot].offset()),
                        Some(si) => (steals[si].ledger.clone(), steals[si].tailer.offset()),
                    };
                    match sync_artifact(transport, r.slot, artifact, &dest, from) {
                        Ok(Synced::Delivered { bytes, ranged }) => {
                            if ranged {
                                fetch_ranged_bytes += bytes;
                            } else {
                                fetch_full_bytes += bytes;
                            }
                            tick_bytes += bytes;
                            if header_fingerprint(&dest)
                                .is_some_and(|fp| fp != manifest.fingerprint)
                            {
                                return Err(foreign(&dest));
                            }
                            let observed = match r.steal {
                                None => tailers[r.slot].observe(&dest).map(|n| {
                                    covered[r.slot].extend(tailers[r.slot].done().iter().copied());
                                    (n, tailers[r.slot].total())
                                }),
                                Some(si) => {
                                    let rec = &mut steals[si];
                                    rec.tailer.observe(&dest).map(|n| {
                                        covered[rec.spec.victim]
                                            .extend(rec.tailer.done().iter().copied());
                                        (n, rec.tailer.total())
                                    })
                                }
                            };
                            if let Ok((now_done, total)) = observed {
                                if now_done > before {
                                    r.last_change = Instant::now();
                                    if opts.progress {
                                        match r.steal {
                                            None => eprintln!(
                                                "[fleet] shard {}: {now_done}/{total} units",
                                                r.slot
                                            ),
                                            Some(si) => eprintln!(
                                                "[fleet] steal {}: {now_done}/{total} units \
                                                 (shard {} tail on slot {})",
                                                steals[si].spec.seq, steals[si].spec.victim, r.slot
                                            ),
                                        }
                                    }
                                }
                            }
                        }
                        Ok(Synced::Missing) | Err(_) => {}
                    }
                    if let Some(limit) = opts.stall_timeout {
                        if !r.killed && r.last_change.elapsed() >= limit {
                            match r.steal {
                                None => {
                                    eprintln!(
                                        "[fleet] shard {}: no ledger progress for {:.1}s; \
                                         killing for retry",
                                        r.slot,
                                        limit.as_secs_f64()
                                    );
                                    outcomes[r.slot].stall_kills += 1;
                                }
                                Some(si) => eprintln!(
                                    "[fleet] steal {}: no ledger progress for {:.1}s; killing",
                                    steals[si].spec.seq,
                                    limit.as_secs_f64()
                                ),
                            }
                            r.handle.kill()?;
                            r.killed = true;
                        }
                    }
                }
                // Release victims whose remaining tail is fully covered
                // by steals: their in-flight unit would only duplicate
                // work the merge already has. Not a stall kill.
                for r in &mut running {
                    if r.exited || r.killed || r.steal.is_some() {
                        continue;
                    }
                    let v = r.slot;
                    if !ids[v].is_empty() && count_covered(&ids[v], &covered[v]) == ids[v].len() {
                        eprintln!("[fleet] shard {v}: released — remaining tail covered by steals");
                        r.handle.kill()?;
                        r.killed = true;
                    }
                }
                // Steal decision: re-deal the biggest uncovered tail of
                // a still-running shard across every idle slot.
                if opts.steal && steals.len() < procs * opts.max_attempts {
                    let busy: HashSet<usize> = running
                        .iter()
                        .filter(|r| !r.exited)
                        .map(|r| r.slot)
                        .collect();
                    let idle: Vec<usize> = (0..procs)
                        .filter(|j| {
                            !busy.contains(j)
                                && (complete[*j]
                                    || count_covered(&ids[*j], &covered[*j]) == ids[*j].len())
                        })
                        .collect();
                    let mut victim: Option<(usize, Vec<usize>)> = None;
                    for r in &running {
                        if r.exited || r.steal.is_some() || complete[r.slot] {
                            continue;
                        }
                        let v = r.slot;
                        let active: Vec<(usize, usize)> = steals
                            .iter()
                            .filter(|s| s.spec.victim == v && !s.dead)
                            .map(|s| (s.spec.from_pos, s.spec.until_pos))
                            .collect();
                        let eligible: Vec<usize> = shards[v]
                            .units
                            .iter()
                            .filter(|u| !covered[v].contains(&u.id))
                            .filter(|u| !active.iter().any(|(f, ul)| u.pos >= *f && u.pos < *ul))
                            .map(|u| u.pos)
                            .collect();
                        if eligible.len() >= opts.steal_min_units.max(1)
                            && victim
                                .as_ref()
                                .is_none_or(|(_, b)| eligible.len() > b.len())
                        {
                            victim = Some((v, eligible));
                        }
                    }
                    if let (Some((v, eligible)), false) = (victim, idle.is_empty()) {
                        // Split the whole eligible tail into contiguous
                        // position ranges, one per idle slot.
                        let n = idle.len().min(eligible.len());
                        let per = eligible.len() / n;
                        let extra = eligible.len() % n;
                        let mut start = 0usize;
                        for (k, &slot) in idle.iter().take(n).enumerate() {
                            let take = per + usize::from(k < extra);
                            let chunk = &eligible[start..start + take];
                            start += take;
                            let seq = steals.len();
                            let spec = StealSpec {
                                victim: v,
                                from_pos: chunk[0],
                                until_pos: chunk[chunk.len() - 1] + 1,
                                seq,
                            };
                            let ledger = steal_ledger_path(out, seq);
                            let _ = std::fs::remove_file(&ledger);
                            let unit_ids: Vec<UnitId> = shards[v]
                                .units
                                .iter()
                                .filter(|u| u.pos >= spec.from_pos && u.pos < spec.until_pos)
                                .map(|u| u.id)
                                .collect();
                            eprintln!(
                                "[fleet] steal {seq}: re-dealing {} unit(s) of shard {v} \
                                 (pos {}..{}) to slot {slot}",
                                unit_ids.len(),
                                spec.from_pos,
                                spec.until_pos
                            );
                            let lspec = LaunchSpec {
                                index: slot,
                                procs,
                                ledger: ledger.clone(),
                                resume: false,
                                attempt: 0,
                                steal: Some(spec),
                            };
                            // Steals are opportunistic: a failed steal
                            // launch is a warning, never a failed fleet.
                            match transport.launch(&lspec) {
                                Ok(handle) => {
                                    let units = unit_ids.len();
                                    steals.push(StealRec {
                                        spec,
                                        slot,
                                        ledger,
                                        tailer: ProgressTailer::new(units),
                                        unit_ids,
                                        finalized: false,
                                        dead: false,
                                    });
                                    outcomes[v].tails_stolen += 1;
                                    running.push(Running {
                                        steal: Some(seq),
                                        slot,
                                        handle,
                                        exited: false,
                                        reaped: false,
                                        last_change: Instant::now(),
                                        killed: false,
                                    });
                                }
                                Err(e) => {
                                    eprintln!("[fleet] warning: steal {seq} failed to launch: {e}");
                                }
                            }
                        }
                    }
                }
                // Fleet-level progress: the floor only rises (sets only
                // grow, and the max-clamp absorbs any tailer rewind).
                let shard_done: Vec<usize> = (0..procs)
                    .map(|i| count_covered(&ids[i], &covered[i]))
                    .collect();
                let done_now: usize = shard_done.iter().sum();
                if done_now > fleet_done_floor {
                    fleet_done_floor = done_now;
                    if opts.progress {
                        eprintln!(
                            "[fleet] progress: {fleet_done_floor}/{} units",
                            manifest.len()
                        );
                    }
                }
                if let Some(sf) = &opts.status_file {
                    let _ = atomic_write(
                        sf,
                        render_status(&StatusInput {
                            fingerprint: manifest.fingerprint,
                            elapsed_ms: started.elapsed().as_millis(),
                            units_total: manifest.len(),
                            units_done: fleet_done_floor,
                            launches,
                            steal_launches: steals.len(),
                            deferred: defers.iter().filter(|d| **d > 0).count(),
                            complete: false,
                            shards: &outcomes,
                            shard_done: &shard_done,
                            steals: &steals,
                        })
                        .as_bytes(),
                    );
                }
                probe_fetch_bytes.push(tick_bytes);
            }
            std::thread::sleep(opts.poll_interval);
        }
        // Round epilogue: report final per-shard counts, so even a run
        // faster than the probe interval prints a final line.
        if opts.progress {
            for r in &running {
                match r.steal {
                    None => eprintln!(
                        "[fleet] shard {}: {}/{} units",
                        r.slot,
                        tailers[r.slot].count(),
                        tailers[r.slot].total()
                    ),
                    Some(si) => eprintln!(
                        "[fleet] steal {}: {}/{} units (shard {} tail on slot {})",
                        steals[si].spec.seq,
                        steals[si].tailer.count(),
                        steals[si].tailer.total(),
                        steals[si].spec.victim,
                        r.slot
                    ),
                }
            }
        }
    }

    // Copy back the mergeable `--agg` summaries. Best-effort: a shard
    // whose ledger predates this fleet may have none, and the CLI
    // rebuilds stale/missing summaries from the (fetched) ledger.
    if opts.fetch_summaries {
        for i in 0..procs {
            match transport.fetch(i, Artifact::Summary, &shard_summary_path(out, i)) {
                Ok(_) => {}
                Err(e) if opts.verbose => {
                    eprintln!("[fleet] shard {i}: summary copy-back failed ({e}); will rebuild")
                }
                Err(_) => {}
            }
        }
    }

    // Stream-merge the shard ledgers and every valid steal ledger into
    // the canonical output, then prove coverage. Inclusion rule matches
    // the completeness check exactly: a ledger merges iff it strict-reads
    // with this run's fingerprint (a dead steal's partial ledger still
    // contributes the units it did finish).
    let mut inputs: Vec<PathBuf> = paths
        .iter()
        .filter(|p| match read_ledger(p) {
            Ok(l) => l.fingerprint == manifest.fingerprint && !l.done.is_empty(),
            Err(_) => false,
        })
        .cloned()
        .collect();
    inputs.extend(
        steals
            .iter()
            .filter(|r| match read_ledger(&r.ledger) {
                Ok(l) => l.fingerprint == manifest.fingerprint && !l.done.is_empty(),
                Err(_) => false,
            })
            .map(|r| r.ledger.clone()),
    );
    let mut writer = std::io::BufWriter::new(std::fs::File::create(out)?);
    merge_jsonl(&inputs, &mut writer)?;
    writer.flush()?;
    let merged = read_ledger(out)?;
    if merged.fingerprint != manifest.fingerprint {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "merged fleet output carries the wrong fingerprint",
        ));
    }
    let missing: Vec<String> = manifest
        .units
        .iter()
        .filter(|u| !merged.done.contains(&u.id))
        .map(|u| u.id.to_string())
        .collect();
    if !missing.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "merged fleet output is missing {} unit(s): {}",
                missing.len(),
                missing.join(", ")
            ),
        ));
    }
    // Paranoia: the merge must not have invented units either.
    let known: HashSet<_> = manifest.units.iter().map(|u| u.id).collect();
    if merged.done.iter().any(|id| !known.contains(id)) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "merged fleet output contains units outside the manifest",
        ));
    }
    // Only now, with the merged output verified on disk, may the
    // transport drop its remote scratch space. Failure to clean up is a
    // warning, not a failed fleet.
    for i in 0..procs {
        if let Err(e) = transport.cleanup(i) {
            eprintln!("[fleet] warning: cleanup of shard {i} failed: {e}");
        }
    }
    for r in &steals {
        if let Err(e) = transport.cleanup_steal(r.spec.seq, r.slot) {
            eprintln!(
                "[fleet] warning: cleanup of steal {} failed: {e}",
                r.spec.seq
            );
        }
    }
    // Final status snapshot: complete, with the full unit count.
    if let Some(sf) = &opts.status_file {
        let shard_done: Vec<usize> = outcomes.iter().map(|o| o.units).collect();
        let _ = atomic_write(
            sf,
            render_status(&StatusInput {
                fingerprint: manifest.fingerprint,
                elapsed_ms: started.elapsed().as_millis(),
                units_total: manifest.len(),
                units_done: manifest.len(),
                launches,
                steal_launches: steals.len(),
                deferred: 0,
                complete: true,
                shards: &outcomes,
                shard_done: &shard_done,
                steals: &steals,
            })
            .as_bytes(),
        );
    }
    Ok(FleetReport {
        shards: outcomes,
        merged_units: manifest.len(),
        launches,
        steal_launches: steals.len(),
        steals: steals
            .iter()
            .map(|r| StealEvent {
                seq: r.spec.seq,
                victim: r.spec.victim,
                slot: r.slot,
                from_pos: r.spec.from_pos,
                until_pos: r.spec.until_pos,
                units: r.unit_ids.len(),
            })
            .collect(),
        fetch_full_bytes,
        fetch_ranged_bytes,
        probe_fetch_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, WorkloadSpec};
    use dpbench_core::{Domain, Loss};
    use dpbench_datasets::catalog;
    use std::process::Child;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            datasets: vec![catalog::by_name("MEDCOST").unwrap()],
            scales: vec![10_000],
            domains: vec![Domain::D1(128)],
            epsilons: vec![0.5],
            algorithms: vec!["IDENTITY".into(), "UNIFORM".into()],
            n_samples: 1,
            n_trials: 2,
            workload: WorkloadSpec::Prefix,
            loss: Loss::L2,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dpbench-fleet-mod-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn shard_ledger_paths_keep_the_jsonl_suffix() {
        let out = PathBuf::from("/tmp/results/fleet.jsonl");
        assert_eq!(
            shard_ledger_path(&out, 0),
            PathBuf::from("/tmp/results/fleet.shard0.jsonl")
        );
        assert_eq!(
            shard_ledger_path(Path::new("run"), 3),
            PathBuf::from("run.shard3.jsonl")
        );
        assert_eq!(
            steal_ledger_path(&out, 4),
            PathBuf::from("/tmp/results/fleet.steal4.jsonl")
        );
    }

    #[test]
    fn status_json_is_one_line_and_parses_structurally() {
        let outcomes = vec![ShardOutcome {
            index: 0,
            ledger: PathBuf::from("x.shard0.jsonl"),
            attempts: 1,
            resumed: false,
            units: 4,
            stall_kills: 0,
            tails_stolen: 0,
        }];
        let s = render_status(&StatusInput {
            fingerprint: 0xabcd,
            elapsed_ms: 12,
            units_total: 4,
            units_done: 2,
            launches: 1,
            steal_launches: 0,
            deferred: 0,
            complete: false,
            shards: &outcomes,
            shard_done: &[2],
            steals: &[],
        });
        assert!(s.ends_with('\n'));
        assert_eq!(s.trim_end().lines().count(), 1);
        let v = dpbench_core::json::parse(&s).expect("status line is JSON");
        let str_at = |key| v.get(key).and_then(|x| x.as_str());
        assert_eq!(str_at("t"), Some("fleet-status"));
        assert_eq!(str_at("fp"), Some("000000000000abcd"));
        assert_eq!(v.get("units_done").and_then(|x| x.as_u64()), Some(2));
        let shards = v.get("shards").and_then(|x| x.as_array()).unwrap();
        assert_eq!(shards.len(), 1);
        for (key, want) in [("index", 0), ("units", 4), ("done", 2), ("attempts", 1)] {
            assert_eq!(
                shards[0].get(key).and_then(|x| x.as_u64()),
                Some(want),
                "{key}"
            );
        }
        assert_eq!(v.get("steals").and_then(|x| x.as_array()), Some(&[][..]));
        assert_eq!(v.get("complete").and_then(|x| x.as_bool()), Some(false));
    }

    /// A launcher that never spawns anything — exercises the driver's
    /// completeness handling around pre-built ledgers.
    struct NoopLauncher;

    impl ShardLauncher for NoopLauncher {
        fn launch(&self, _spec: &LaunchSpec) -> io::Result<Child> {
            // A no-op child: `true` exits 0 immediately without touching
            // the ledger, modeling a worker that dies before any unit.
            std::process::Command::new("true").spawn()
        }
    }

    #[test]
    fn fleet_over_prebuilt_ledgers_merges_without_launching() {
        use crate::runner::Runner;
        use crate::sink::JsonlSink;
        let out = tmp("prebuilt.jsonl");
        let manifest = Runner::new(tiny_config()).manifest();
        for i in 0..2 {
            let path = shard_ledger_path(&out, i);
            let _ = std::fs::remove_file(&path);
            let runner = Runner::new(tiny_config());
            let mut sink = JsonlSink::create(&path).unwrap();
            runner
                .run_with_sink(&manifest.shard(i, 2), &mut sink)
                .unwrap();
        }
        let opts = FleetOptions {
            procs: 2,
            max_attempts: 1,
            ..FleetOptions::default()
        };
        let report = run_fleet(&manifest, &NoopLauncher, &out, &opts).unwrap();
        assert_eq!(report.launches, 0, "complete shards must not relaunch");
        assert_eq!(report.merged_units, manifest.len());
        assert_eq!(report.steal_launches, 0);
        assert!(report.shards.iter().all(|s| s.attempts == 0));
        // Merged output equals a one-shot run byte for byte.
        let ref_path = tmp("prebuilt-ref.jsonl");
        let _ = std::fs::remove_file(&ref_path);
        let runner = Runner::new(tiny_config());
        let mut reference = JsonlSink::create(&ref_path).unwrap();
        runner.run_with_sink(&manifest, &mut reference).unwrap();
        drop(reference);
        assert_eq!(
            std::fs::read(&out).unwrap(),
            std::fs::read(&ref_path).unwrap()
        );
        for p in [&out, &ref_path] {
            let _ = std::fs::remove_file(p);
        }
        for i in 0..2 {
            let _ = std::fs::remove_file(shard_ledger_path(&out, i));
        }
    }

    #[test]
    fn fleet_reports_a_shard_that_never_completes() {
        let out = tmp("stuck.jsonl");
        for i in 0..2 {
            let _ = std::fs::remove_file(shard_ledger_path(&out, i));
        }
        let manifest = crate::manifest::RunManifest::from_config(&tiny_config());
        let opts = FleetOptions {
            procs: 2,
            max_attempts: 2,
            ..FleetOptions::default()
        };
        let err = run_fleet(&manifest, &NoopLauncher, &out, &opts).unwrap_err();
        assert!(
            err.to_string()
                .contains("did not complete after 2 attempt(s)"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn torn_header_only_ledger_counts_as_fresh_not_corrupt() {
        use std::io::Write;
        let manifest = crate::manifest::RunManifest::from_config(&tiny_config());
        let shard = manifest.shard(0, 2);
        // A child killed during its very first write: the file holds
        // only a torn header fragment. The fleet must relaunch fresh.
        let path = tmp("torn-header.jsonl");
        let mut f = std::fs::File::create(&path).unwrap();
        write!(f, "{{\"t\":\"run\",\"fp\":\"5b51").unwrap();
        drop(f);
        assert!(matches!(
            shard_state(&path, &shard).unwrap(),
            ShardState::Fresh
        ));
        // But a ledger with real content and a damaged header stays a
        // hard error — that is corruption, not a clean first-write kill.
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "NOT A HEADER").unwrap();
        writeln!(
            f,
            "{{\"t\":\"u\",\"unit\":\"{}\",\"pos\":{}}}",
            shard.units[0].id, shard.units[0].pos
        )
        .unwrap();
        drop(f);
        assert!(shard_state(&path, &shard).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fleet_refuses_a_foreign_shard_ledger() {
        use crate::runner::Runner;
        use crate::sink::JsonlSink;
        let out = tmp("foreign.jsonl");
        let shard0 = shard_ledger_path(&out, 0);
        let _ = std::fs::remove_file(&shard0);
        // Shard 0's path holds a ledger from a *different* grid.
        let mut other = tiny_config();
        other.epsilons = vec![0.9];
        let other_runner = Runner::new(other);
        let mut sink = JsonlSink::create(&shard0).unwrap();
        other_runner
            .run_with_sink(&other_runner.manifest(), &mut sink)
            .unwrap();
        drop(sink);
        let manifest = crate::manifest::RunManifest::from_config(&tiny_config());
        let err = run_fleet(&manifest, &NoopLauncher, &out, &FleetOptions::default()).unwrap_err();
        assert!(
            err.to_string().contains("different run"),
            "unexpected error: {err}"
        );
        let _ = std::fs::remove_file(&shard0);
    }
}
