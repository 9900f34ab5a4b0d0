//! Machine facts and process accounting from `/proc` and `getrusage`.

use std::io;
use std::path::Path;
use std::time::Duration;

/// Facts recorded with every result.
#[derive(Debug, Clone)]
pub struct Facts {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Commit of the checkout (`unknown` outside a git checkout).
    pub git_sha: String,
    /// Compiler the benchmark was built with.
    pub rustc: String,
}

impl Facts {
    /// Gather the facts without spawning a process (a child would
    /// count in the children's peak-RSS figure).
    pub fn gather() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            git_sha: git_sha(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
        }
    }
}

/// Resolve `HEAD` by reading the git directory (loose or packed ref).
fn git_sha(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const EINTR: i32 = 4;

/// Wait up to `timeout` (microsecond precision) until any of `fds`
/// is readable, or writable for those marked `true`. Returns which are
/// readable (errors and hang-ups count as readable, so the next read
/// reports them). A negative fd is ignored.
pub fn wait_fds(fds: &[(i32, bool)], timeout: Duration) -> io::Result<Vec<bool>> {
    let mut pfds: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, want_write)| PollFd {
            fd,
            events: POLLIN | if want_write { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        sec: timeout.as_secs() as i64,
        nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfds` holds `pfds.len()` valid entries and `ts` is valid
    // for the call; a null signal mask leaves the mask unchanged.
    let rc = unsafe { ppoll(pfds.as_mut_ptr(), pfds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        return if e.raw_os_error() == Some(EINTR) {
            Ok(vec![false; fds.len()])
        } else {
            Err(e)
        };
    }
    Ok(pfds.iter().map(|p| p.revents & !POLLOUT != 0).collect())
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const SIGTERM: i32 = 15;

/// CPU seconds (user + system) and peak RSS (MB) from `getrusage`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
    /// Peak resident set size, MB (for children: the largest waited-for
    /// descendant).
    pub maxrss_mb: f64,
}

fn rusage(who: i32) -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage` for 64-bit Linux
    // and `who` is one of the two documented selectors.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage cannot fail for RUSAGE_SELF/CHILDREN");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        maxrss_mb: ru.maxrss_kb as f64 / 1024.0,
    }
}

/// This process's CPU time and peak RSS.
pub fn self_usage() -> Usage {
    rusage(RUSAGE_SELF)
}

/// CPU time and largest peak RSS of every waited-for descendant.
pub fn children_usage() -> Usage {
    rusage(RUSAGE_CHILDREN)
}

/// Peak RSS (`VmHWM`) of a live process, MB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
}

/// CPU seconds (user + system) of a live process from `/proc/<pid>/stat`.
pub fn proc_cpu_s(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15, i.e. 11 and 12 after the state field.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad stat"))?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> io::Result<f64> {
        f.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad stat field"))
    };
    // The kernel reports in USER_HZ, which is 100 on Linux.
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// Machine-wide (busy, steal) CPU ticks from `/proc/stat`: time the
/// hypervisor ran something else while this machine wanted the CPU is
/// steal, a measure of noise from outside the machine.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    let get = |i: usize| f.get(i).copied().unwrap_or(0);
    (get(0) + get(1) + get(2) + get(5) + get(6), get(7))
}

/// Steal above this share of the machine's CPU makes a measurement
/// segment noisy enough to repeat.
pub const STEAL_LIMIT_PCT: f64 = 3.0;
/// Most attempts at one segment.
pub const QUIET_ATTEMPTS: usize = 3;

/// A measurement made while the machine was quiet enough.
pub struct Quiet<T> {
    /// The result of the attempt with the least steal.
    pub value: T,
    /// Steal during that attempt, % of the machine's CPU.
    pub steal_pct: f64,
    /// Attempts made.
    pub attempts: usize,
}

/// Run `f` until the hypervisor steals less than [`STEAL_LIMIT_PCT`] of
/// the machine's CPU during it, at most [`QUIET_ATTEMPTS`] times and
/// never starting a repeat after `retry_until`, and keep the attempt
/// with the least steal. Steal is time this machine wanted the CPU
/// while the host ran someone else's work; a segment hit by it measures
/// the neighbours, not the program.
pub fn quiet<T>(
    nproc: usize,
    retry_until: std::time::Instant,
    mut f: impl FnMut() -> io::Result<T>,
) -> io::Result<Quiet<T>> {
    let mut best: Option<Quiet<T>> = None;
    let mut made = 0;
    for _ in 0..QUIET_ATTEMPTS {
        made += 1;
        let (_, steal0) = cpu_ticks();
        let t = std::time::Instant::now();
        let value = f()?;
        let (_, steal1) = cpu_ticks();
        let capacity = t.elapsed().as_secs_f64() * 100.0 * nproc as f64;
        let steal_pct = (steal1 - steal0) as f64 / capacity.max(1.0) * 100.0;
        if best.as_ref().is_none_or(|b| steal_pct < b.steal_pct) {
            best = Some(Quiet {
                value,
                steal_pct,
                attempts: 0,
            });
        }
        if steal_pct < STEAL_LIMIT_PCT || std::time::Instant::now() > retry_until {
            break;
        }
    }
    let mut best = best.expect("at least one attempt");
    best.attempts = made;
    Ok(best)
}

const SIGKILL: i32 = 9;

/// A child started in a process group of its own. Dropping it while the
/// child still runs (an error path) kills the whole group — the child
/// and every process it started — and waits for the child, so no run
/// leaves processes behind.
pub struct GroupChild(pub std::process::Child);

impl GroupChild {
    /// Spawn `cmd` as the leader of a new process group.
    pub fn spawn(cmd: &mut std::process::Command) -> io::Result<GroupChild> {
        use std::os::unix::process::CommandExt;
        Ok(GroupChild(cmd.process_group(0).spawn()?))
    }
}

impl Drop for GroupChild {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            // SAFETY: kill(2) takes plain integers; the group id is the
            // unreaped child's pid, so it names this group alone.
            unsafe {
                kill(-(self.0.id() as i32), SIGKILL);
            }
            let _ = self.0.wait();
        }
    }
}

/// Ask a child to shut down gracefully (SIGTERM).
pub fn terminate(pid: u32) {
    // SAFETY: kill(2) takes plain integers; a stale pid is reported as
    // an error, which the caller observes when it waits.
    unsafe {
        kill(pid as i32, SIGTERM);
    }
}

/// Wait for a child with a deadline; kill it if the deadline passes.
pub fn wait_with_deadline(
    child: &mut std::process::Child,
    deadline: Duration,
) -> io::Result<std::process::ExitStatus> {
    let start = std::time::Instant::now();
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(status);
        }
        if start.elapsed() > deadline {
            child.kill()?;
            return child.wait();
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    /// Members of process group `group` that are still running (a
    /// killed orphan may linger as a zombie until it is reaped).
    fn live_members(group: i32) -> usize {
        std::fs::read_dir("/proc")
            .expect("/proc is readable")
            .filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("stat")).ok())
            .filter(|stat| {
                let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
                let f: Vec<&str> = rest.split_whitespace().collect();
                // state, ppid, pgrp
                f.get(2).and_then(|g| g.parse::<i32>().ok()) == Some(group) && f[0] != "Z"
            })
            .count()
    }

    #[test]
    fn dropping_a_running_group_child_kills_its_whole_group() {
        let child = GroupChild::spawn(Command::new("sh").args(["-c", "sleep 30 & sleep 30"]))
            .expect("sh spawns");
        let group = child.0.id() as i32;
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            live_members(group) >= 2,
            "the shell and its background sleep run"
        );
        drop(child);
        let gone = (0..100).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            live_members(group) == 0
        });
        assert!(gone, "process group {group} outlived its guard");
    }
}
