//! Deterministic fault injection for the spend journal, used by the
//! crash-consistency matrix in `tests/serve_faults.rs`. It lives with
//! the tests, not in the library, so release builds carry none of it.
//!
//! [`FaultyIo`] is an in-memory `JournalIo` whose failures are scheduled
//! by operation index, mirroring the fleet tests' `FaultyTransport`: a
//! test declares *exactly* which append tears at which byte and which
//! fsync fails, so every crash-consistency scenario is a seeded,
//! replayable case rather than a race.
//!
//! The backing "disk" is an `Arc<Mutex<Vec<u8>>>` handed out via
//! [`FaultyIo::disk_handle`]. Simulating a crash is therefore just:
//! snapshot the bytes (optionally tearing the tail at byte *k*), build a
//! fresh `FaultyIo` over the snapshot, and reopen the accountant — the
//! same reopen path production takes after a real power loss.

use dpbench::harness::serve::JournalIo;
use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::{Arc, Mutex};

/// How a scheduled append fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendFault {
    /// A short write: the first `keep` bytes land, then the write errors
    /// (what a crash or full disk mid-`write(2)` leaves behind).
    Short {
        /// Bytes that reach the disk before the failure.
        keep: usize,
    },
    /// Out of space before any byte lands.
    Enospc,
}

/// In-memory journal storage with scheduled failures.
pub struct FaultyIo {
    disk: Arc<Mutex<Vec<u8>>>,
    appends: u64,
    syncs: u64,
    append_faults: HashMap<u64, AppendFault>,
    sync_faults: HashSet<u64>,
    truncate_fails: bool,
}

impl FaultyIo {
    /// Fresh empty disk, no faults scheduled.
    pub fn new() -> Self {
        Self::over(Arc::new(Mutex::new(Vec::new())))
    }

    /// IO over an existing disk image (e.g. a post-crash snapshot).
    pub fn over(disk: Arc<Mutex<Vec<u8>>>) -> Self {
        Self {
            disk,
            appends: 0,
            syncs: 0,
            append_faults: HashMap::new(),
            sync_faults: HashSet::new(),
            truncate_fails: false,
        }
    }

    /// Schedule the `idx`-th append (0-based, counting every call
    /// including `open_with`'s header/newline writes) to fail as `fault`.
    pub fn fail_append(mut self, idx: u64, fault: AppendFault) -> Self {
        self.append_faults.insert(idx, fault);
        self
    }

    /// Schedule the `idx`-th sync (0-based) to fail.
    pub fn fail_sync(mut self, idx: u64) -> Self {
        self.sync_faults.insert(idx);
        self
    }

    /// Make every truncate fail — a dead disk, forcing the journal's
    /// wedge path when an append repair is attempted.
    pub fn fail_truncate(mut self) -> Self {
        self.truncate_fails = true;
        self
    }

    /// Shared handle to the backing bytes (survives dropping the IO —
    /// the "disk" outliving the "process").
    pub fn disk_handle(&self) -> Arc<Mutex<Vec<u8>>> {
        Arc::clone(&self.disk)
    }
}

impl Default for FaultyIo {
    fn default() -> Self {
        Self::new()
    }
}

impl JournalIo for FaultyIo {
    fn read(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.disk.lock().expect("disk lock").clone())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        if self.truncate_fails {
            return Err(io::Error::other("injected truncate failure (dead disk)"));
        }
        let mut disk = self.disk.lock().expect("disk lock");
        if (len as usize) <= disk.len() {
            disk.truncate(len as usize);
        }
        Ok(())
    }

    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let idx = self.appends;
        self.appends += 1;
        match self.append_faults.get(&idx) {
            Some(AppendFault::Short { keep }) => {
                let keep = (*keep).min(data.len());
                self.disk
                    .lock()
                    .expect("disk lock")
                    .extend_from_slice(&data[..keep]);
                Err(io::Error::other(format!(
                    "injected short write: {keep}/{} bytes",
                    data.len()
                )))
            }
            Some(AppendFault::Enospc) => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC: no space left on device",
            )),
            None => {
                self.disk.lock().expect("disk lock").extend_from_slice(data);
                Ok(())
            }
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let idx = self.syncs;
        self.syncs += 1;
        if self.sync_faults.contains(&idx) {
            return Err(io::Error::other("injected fsync failure"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbench::harness::serve::{JournalOp, SpendJournal};

    #[test]
    fn short_write_is_repaired_by_truncate() {
        // Append 0 is the header; append 1 tears after 7 bytes.
        let io = FaultyIo::new().fail_append(1, AppendFault::Short { keep: 7 });
        let disk = io.disk_handle();
        let (mut j, _) = SpendJournal::open_with(Box::new(io)).unwrap();
        let err = j.append("a", JournalOp::Spend, 0.5).unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        assert!(!j.is_wedged(), "repair succeeded, journal stays usable");
        // The torn bytes were truncated away; the next append lands clean.
        j.append("a", JournalOp::Spend, 0.25).unwrap();
        let bytes = disk.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2, "header + one record:\n{text}");
        assert!(text.contains("\"eps\":0.25"));
        assert!(!text.contains("0.5"), "torn record fully gone:\n{text}");
    }

    #[test]
    fn failed_repair_wedges_the_journal() {
        let io = FaultyIo::new()
            .fail_append(1, AppendFault::Short { keep: 3 })
            .fail_truncate();
        let disk = io.disk_handle();
        let (mut j, _) = SpendJournal::open_with(Box::new(io)).unwrap();
        let err = j.append("a", JournalOp::Spend, 0.5).unwrap_err();
        assert!(err.to_string().contains("wedged"), "{err}");
        assert!(j.is_wedged());
        let err2 = j.append("a", JournalOp::Spend, 0.1).unwrap_err();
        assert!(err2.to_string().contains("wedged"), "{err2}");
        // Crash + reopen: the torn 3 bytes are the final line, healed by
        // the open-time truncate (a fresh IO whose truncate works).
        let (_, replayed) = SpendJournal::open_with(Box::new(FaultyIo::over(disk))).unwrap();
        assert!(replayed.is_empty(), "no record survived, none invented");
    }

    #[test]
    fn enospc_leaves_disk_untouched() {
        let io = FaultyIo::new().fail_append(1, AppendFault::Enospc);
        let disk = io.disk_handle();
        let (mut j, _) = SpendJournal::open_with(Box::new(io)).unwrap();
        let before = disk.lock().unwrap().clone();
        let err = j.append("a", JournalOp::Spend, 0.5).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(*disk.lock().unwrap(), before, "nothing landed");
        assert!(!j.is_wedged());
        j.append("a", JournalOp::Spend, 0.25).unwrap();
    }
}
