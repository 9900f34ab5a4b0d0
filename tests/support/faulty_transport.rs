//! Deterministic fault-injection transport for the fleet driver's test
//! matrix (`tests/fleet_faults.rs`). It lives with the tests, not in the
//! library, so release builds carry none of it.

use dpbench::harness::fleet::{
    ranged_copy, Artifact, FetchOutcome, LaunchSpec, RangedFetch, ShardHandle, ShardStatus,
    ShardTransport,
};
use dpbench::harness::sink::{read_ledger, JsonlSink, Throttle};
use dpbench::harness::{ExperimentConfig, Runner};
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A launch-time fault, keyed by `(shard, attempt)`.
#[derive(Debug, Clone, Copy)]
pub enum LaunchFault {
    /// Complete `after_units` units, then die with a failing exit; with
    /// `torn_tail`, the crash additionally tears the remote ledger's
    /// final line mid-write.
    Crash {
        /// Units completed before the simulated crash.
        after_units: usize,
        /// Leave a torn (unparseable) trailing fragment in the ledger.
        torn_tail: bool,
    },
    /// Never make progress: the handle reports `Running` until the
    /// driver's stall timeout kills it.
    Hang,
    /// Do all the work, then report a failing exit status anyway — the
    /// "exit status is advisory, the ledger is truth" drill.
    LieAboutExit,
}

/// A copy-back fault, keyed by `(shard, nth ledger fetch that found a
/// remote artifact)`.
#[derive(Debug, Clone, Copy)]
pub enum FetchFault {
    /// Deliver only a prefix, dropping the last `drop_bytes` bytes (a
    /// torn copy).
    TornCopy {
        /// Bytes missing from the end of the delivered file.
        drop_bytes: u64,
    },
    /// Deliver a zero-byte artifact.
    EmptyArtifact,
    /// Deliver a ledger belonging to a different run (stale scratch
    /// space from an earlier fleet) — the driver must hard-error, never
    /// merge it.
    StaleLedger,
    /// The fetch fails outright (unreachable host / transport error):
    /// an `Err`, not a `Missing` claim. The driver must *defer* the
    /// shard — retry the fetch next round without burning one of its
    /// launch attempts, since the remote work may be fine.
    Unreachable,
}

/// **Test-only** transport that executes shards in-process (no child
/// processes, no machines) and injects failures deterministically: the
/// fault matrix in `tests/fleet_faults.rs` drives the driver through
/// every remote failure mode and asserts the merged output stays
/// byte-identical to a one-shot run in every survivable case.
///
/// The "remote" side is a local workdir: shard `i` writes
/// `<workdir>/shard<i>.jsonl`, and `fetch` copies it back — faithfully,
/// torn, empty, or stale, per the configured fault script.
pub struct FaultyTransport {
    config: ExperimentConfig,
    workdir: PathBuf,
    launch_faults: Mutex<HashMap<(usize, usize), LaunchFault>>,
    fetch_faults: Mutex<HashMap<(usize, usize), FetchFault>>,
    /// Ledger-fetch occurrence counter per shard (only fetches that
    /// found a remote artifact count, so fault scripts stay independent
    /// of how many early-round fetches saw nothing).
    fetch_seen: Mutex<HashMap<usize, usize>>,
    /// Shard indexes whose scratch space was cleaned up, in call order.
    cleanups: Mutex<Vec<usize>>,
    /// Per-unit delay by *slot* — a property of the (simulated) machine,
    /// so it applies to every launch on that slot: primary attempts and
    /// steals alike. Delayed launches run on a background thread (a
    /// synchronous slow launch would serialize the whole fleet), which
    /// is exactly what lets the driver observe them mid-flight and
    /// steal their tails.
    slow_slots: Mutex<HashMap<usize, Duration>>,
    /// When true, [`ShardTransport::fetch_ranged`] ranges natively
    /// (seek + append) instead of reporting `Unsupported`. The ranged
    /// path bypasses the fetch-fault script and its occurrence counters.
    ranged: bool,
}

impl FaultyTransport {
    /// New fault-free transport over `config`, with remote scratch space
    /// under `workdir` (created on demand).
    pub fn new(config: ExperimentConfig, workdir: impl Into<PathBuf>) -> Self {
        Self {
            config,
            workdir: workdir.into(),
            launch_faults: Mutex::new(HashMap::new()),
            fetch_faults: Mutex::new(HashMap::new()),
            fetch_seen: Mutex::new(HashMap::new()),
            cleanups: Mutex::new(Vec::new()),
            slow_slots: Mutex::new(HashMap::new()),
            ranged: false,
        }
    }

    /// Make every launch on `slot` (primary or steal) take `per_unit`
    /// per completed unit — the straggler simulator.
    pub fn slow_slot(self, slot: usize, per_unit: Duration) -> Self {
        self.slow_slots.lock().unwrap().insert(slot, per_unit);
        self
    }

    /// Enable native offset-based [`ShardTransport::fetch_ranged`].
    pub fn with_ranged(mut self) -> Self {
        self.ranged = true;
        self
    }

    /// Script a launch fault for `(shard, attempt)`.
    pub fn fail_launch(self, shard: usize, attempt: usize, fault: LaunchFault) -> Self {
        self.launch_faults
            .lock()
            .unwrap()
            .insert((shard, attempt), fault);
        self
    }

    /// Script a copy-back fault for the `occurrence`-th ledger fetch of
    /// `shard` that finds a remote artifact (0-based).
    pub fn fail_fetch(self, shard: usize, occurrence: usize, fault: FetchFault) -> Self {
        self.fetch_faults
            .lock()
            .unwrap()
            .insert((shard, occurrence), fault);
        self
    }

    /// Shard indexes cleaned up so far (call order).
    pub fn cleanups(&self) -> Vec<usize> {
        self.cleanups.lock().unwrap().clone()
    }

    fn remote_ledger(&self, index: usize) -> PathBuf {
        self.workdir.join(format!("shard{index}.jsonl"))
    }

    fn remote_steal_ledger(&self, seq: usize) -> PathBuf {
        self.workdir.join(format!("steal{seq}.jsonl"))
    }

    fn remote_ledger_for(&self, spec: &LaunchSpec) -> PathBuf {
        match &spec.steal {
            Some(st) => self.remote_steal_ledger(st.seq),
            None => self.remote_ledger(spec.index),
        }
    }
}

/// Execute one attempt in-process, honoring resume and the crash fault's
/// unit budget — the same observable behavior as `dpbench run --shard
/// i/k [--resume] [--fail-after N] [--from-pos/--until-pos]
/// [--unit-delay-ms]`. A free function (not a method) so slow-slot
/// launches can run it on a background thread with owned state.
fn execute_faulty_shard(
    config: &ExperimentConfig,
    spec: &LaunchSpec,
    remote: &Path,
    fault: Option<LaunchFault>,
    delay: Option<Duration>,
    cancel: Option<Arc<AtomicBool>>,
) -> io::Result<bool> {
    let mut runner = Runner::new(config.clone());
    runner.threads = 1;
    let mut crash = false;
    let mut torn_tail = false;
    match fault {
        Some(LaunchFault::Crash {
            after_units,
            torn_tail: torn,
        }) => {
            runner.max_units = Some(after_units);
            crash = true;
            torn_tail = torn;
        }
        Some(LaunchFault::LieAboutExit) => crash = true, // work done, exit lies
        Some(LaunchFault::Hang) => unreachable!("hangs never reach run_shard"),
        None => {}
    }
    let shard = match &spec.steal {
        Some(st) => runner
            .manifest()
            .shard(st.victim, spec.procs)
            .span(st.from_pos, st.until_pos),
        None => runner.manifest().shard(spec.index, spec.procs),
    };
    if spec.resume {
        // Mirror the real child: resume over an unreadable ledger is
        // a failed attempt, not silent data loss.
        let ledger = match read_ledger(remote) {
            Ok(l) => l,
            Err(_) => return Ok(false),
        };
        let mut sink = JsonlSink::append(remote)?;
        match delay {
            Some(d) => {
                let mut slow = Throttle::new(&mut sink, d);
                if let Some(flag) = cancel {
                    slow = slow.with_cancel(flag);
                }
                runner.resume(&shard, &ledger.done, &mut slow)?;
            }
            None => {
                runner.resume(&shard, &ledger.done, &mut sink)?;
            }
        }
    } else {
        let mut sink = JsonlSink::create(remote)?;
        match delay {
            Some(d) => {
                let mut slow = Throttle::new(&mut sink, d);
                if let Some(flag) = cancel {
                    slow = slow.with_cancel(flag);
                }
                runner.run_with_sink(&shard, &mut slow)?;
            }
            None => {
                runner.run_with_sink(&shard, &mut sink)?;
            }
        }
    }
    if torn_tail {
        // A kill mid-write: a fragment with no newline and no
        // closing brace. `JsonlSink::append` heals it on resume.
        let mut f = std::fs::OpenOptions::new().append(true).open(remote)?;
        write!(f, "{{\"t\":\"s\",\"unit\":\"00")?;
    }
    Ok(!crash)
}

/// Handle of an attempt that already finished (the faulty transport runs
/// shards synchronously inside `launch`).
struct CompletedHandle {
    success: bool,
}

impl ShardHandle for CompletedHandle {
    fn poll(&mut self) -> io::Result<ShardStatus> {
        Ok(ShardStatus::Exited {
            success: self.success,
        })
    }

    fn kill(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Handle of a hung attempt: `Running` until killed.
struct HangHandle {
    killed: bool,
}

impl ShardHandle for HangHandle {
    fn poll(&mut self) -> io::Result<ShardStatus> {
        Ok(if self.killed {
            ShardStatus::Exited { success: false }
        } else {
            ShardStatus::Running
        })
    }

    fn kill(&mut self) -> io::Result<()> {
        self.killed = true;
        Ok(())
    }
}

/// Handle of a slow-slot attempt running on a background thread.
struct ThreadHandle {
    done: Arc<AtomicBool>,
    success: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
}

impl ShardHandle for ThreadHandle {
    fn poll(&mut self) -> io::Result<ShardStatus> {
        Ok(if self.done.load(Ordering::SeqCst) {
            ShardStatus::Exited {
                success: self.success.load(Ordering::SeqCst),
            }
        } else {
            ShardStatus::Running
        })
    }

    fn kill(&mut self) -> io::Result<()> {
        // The throttle's cancel check notices within one sleep slice;
        // poll reports Exited once the thread winds down (the "after a
        // kill, poll must eventually report Exited" contract).
        self.kill.store(true, Ordering::SeqCst);
        Ok(())
    }
}

impl ShardTransport for FaultyTransport {
    fn launch(&self, spec: &LaunchSpec) -> io::Result<Box<dyn ShardHandle>> {
        std::fs::create_dir_all(&self.workdir)?;
        // Launch faults script *primary* attempts; steals inherit only
        // the slot's speed (a machine property), never the victim's
        // scripted faults.
        let fault = if spec.steal.is_none() {
            self.launch_faults
                .lock()
                .unwrap()
                .get(&(spec.index, spec.attempt))
                .copied()
        } else {
            None
        };
        if matches!(fault, Some(LaunchFault::Hang)) {
            return Ok(Box::new(HangHandle { killed: false }));
        }
        let remote = self.remote_ledger_for(spec);
        let delay = self.slow_slots.lock().unwrap().get(&spec.index).copied();
        if delay.is_none() && spec.steal.is_none() {
            // Fast primary launches run synchronously inside launch — the
            // original behavior every pre-existing fault drill relies on
            // (the driver never observes them mid-flight, so no steals).
            let success = execute_faulty_shard(&self.config, spec, &remote, fault, None, None)?;
            return Ok(Box::new(CompletedHandle { success }));
        }
        // Slow slots — and every steal, even on a fast slot — run on a
        // background thread so the driver's probe loop sees them
        // mid-flight (synchronous steals would serialize inside one
        // probe tick and block the loop).
        let done = Arc::new(AtomicBool::new(false));
        let success = Arc::new(AtomicBool::new(false));
        let kill = Arc::new(AtomicBool::new(false));
        let handle = ThreadHandle {
            done: Arc::clone(&done),
            success: Arc::clone(&success),
            kill: Arc::clone(&kill),
        };
        let config = self.config.clone();
        let spec = spec.clone();
        std::thread::spawn(move || {
            let ok = execute_faulty_shard(
                &config,
                &spec,
                &remote,
                fault,
                delay,
                Some(Arc::clone(&kill)),
            )
            .unwrap_or(false);
            success.store(ok, Ordering::SeqCst);
            done.store(true, Ordering::SeqCst);
        });
        Ok(Box::new(handle))
    }

    fn fetch(&self, index: usize, artifact: Artifact, dest: &Path) -> io::Result<FetchOutcome> {
        if artifact == Artifact::Summary {
            return Ok(FetchOutcome::Missing); // fault tests never use --agg
        }
        // Steal ledgers fetch plainly — the fault script (and its
        // occurrence counters) stays keyed to primary shard ledgers.
        if let Artifact::Steal { seq } = artifact {
            let src = self.remote_steal_ledger(seq);
            if !src.exists() {
                return Ok(FetchOutcome::Missing);
            }
            std::fs::copy(&src, dest)?;
            return Ok(FetchOutcome::Copied);
        }
        let src = self.remote_ledger(index);
        if !src.exists() {
            return Ok(FetchOutcome::Missing);
        }
        let occurrence = {
            let mut seen = self.fetch_seen.lock().unwrap();
            let n = seen.entry(index).or_insert(0);
            let occ = *n;
            *n += 1;
            occ
        };
        let fault = self
            .fetch_faults
            .lock()
            .unwrap()
            .get(&(index, occurrence))
            .copied();
        match fault {
            None => {
                std::fs::copy(&src, dest)?;
            }
            Some(FetchFault::TornCopy { drop_bytes }) => {
                let bytes = std::fs::read(&src)?;
                let keep = bytes.len().saturating_sub(drop_bytes as usize);
                std::fs::write(dest, &bytes[..keep])?;
            }
            Some(FetchFault::EmptyArtifact) => {
                std::fs::write(dest, b"")?;
            }
            Some(FetchFault::StaleLedger) => {
                std::fs::write(
                    dest,
                    b"{\"t\":\"run\",\"fp\":\"00000000deadbeef\",\"n_trials\":1}\n",
                )?;
            }
            Some(FetchFault::Unreachable) => {
                // A transport failure, not an absence claim: dest is
                // untouched and the driver must defer, not relaunch.
                return Err(io::Error::other(format!(
                    "injected fault: shard {index} unreachable"
                )));
            }
        }
        Ok(FetchOutcome::Copied)
    }

    fn fetch_ranged(
        &self,
        index: usize,
        artifact: Artifact,
        dest: &Path,
        from: u64,
    ) -> io::Result<RangedFetch> {
        if !self.ranged {
            return Ok(RangedFetch::Unsupported);
        }
        let src = match artifact {
            Artifact::Summary => return Ok(RangedFetch::Missing),
            Artifact::Steal { seq } => self.remote_steal_ledger(seq),
            Artifact::Ledger => self.remote_ledger(index),
        };
        ranged_copy(&src, dest, from)
    }

    fn cleanup(&self, index: usize) -> io::Result<()> {
        self.cleanups.lock().unwrap().push(index);
        Ok(())
    }
}
