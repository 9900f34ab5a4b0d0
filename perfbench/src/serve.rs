//! The `serve-mix` workload: seeded Poisson arrivals of independent
//! users, over at most two keep-alive connections, against the real
//! `dpbench serve` binary; plus a one-thread traced replay of the same
//! requests through the entry points `handle_release` calls.

use crate::json::{self, Value};
use crate::stats::{self, account, meets_slo, metric_name, poisson_arrivals, Outcome, Summary};
use crate::trace::{self, Tracer};
use crate::{sys, Ctx, RunOutput};
use dpbench::core::mechanism::execute_eps_with;
use dpbench::core::rng::{hash_str, rng_for};
use dpbench::core::{
    scaled_per_query_error, BudgetLedger, DataVector, Domain, Loss, Workload, Workspace,
};
use dpbench::datasets::{catalog, DataGenerator};
use dpbench::harness::config::WorkloadSpec;
use dpbench::harness::runner::PlanCache;
use dpbench::harness::serve::{http, journal, JournalOp, TenantAccountant};
use dpbench::prelude::mechanism_by_name;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client keep-alive connections.
pub const CONNS: usize = 2;
/// Client threads driving them.
pub const CLIENT_THREADS: usize = 1;
/// Server worker threads.
pub const SERVER_THREADS: usize = 2;
/// Served 1-D domain.
const DOMAIN: usize = 1024;
/// Scale every served dataset is generated at.
const SCALE: u64 = 100_000;
/// Served datasets.
const DATASETS: [&str; 2] = ["MEDCOST", "HEPTH"];
/// Tenants and the fixed ε each spends per release. One ε per tenant
/// makes the client's tally order-independent, so it must equal the
/// server's balance bit for bit.
const TENANTS: [(&str, f64); 4] = [("t0", 0.1), ("t1", 0.05), ("t2", 0.2), ("t3", 0.01)];
/// Lifetime grant of every tenant: never runs out in a run.
const GRANT: f64 = 1e9;
/// Mechanisms of the warm set.
const MECHS: [&str; 4] = ["IDENTITY", "HB", "DAWA", "GREEDY_H"];
/// Workloads of the warm set.
const WORKLOADS: [&str; 2] = ["prefix", "random:2000"];
/// One request in this many reads a tenant's budget.
const READ_EVERY: usize = 10;
/// One request in this many is a cold release (a `random:N` workload not
/// seen earlier in the run).
const COLD_EVERY: usize = 100;
/// The `lo` and `hi` open-loop rates (requests per second): well below
/// and near the knee of this mix on a 2-core machine.
pub const LO_RPS: f64 = 200.0;
/// See [`LO_RPS`].
pub const HI_RPS: f64 = 800.0;
/// The fixed rate ladder behind `max_rps_at_slo`.
pub const LADDER: [f64; 12] = [
    1000.0, 1200.0, 1400.0, 1600.0, 1800.0, 2000.0, 2200.0, 2400.0, 2600.0, 2800.0, 3000.0, 3200.0,
];
/// p99 latency limit (from due time) a ladder rung must meet.
pub const SLO_P99_MS: f64 = 100.0;
/// Spawns timed for `setup_s`, the measured server included.
const SETUP_SPAWNS: usize = 31;
/// Segments the `hi` phase is split into, each followed by a saturation
/// burst.
const HI_SEGMENTS: usize = 8;
/// Requests in flight per connection in the saturation phase.
const SAT_DEPTH: usize = 8;
/// Saturation-phase requests per second of run length.
const SAT_PER_SECOND: usize = 400;
/// How long a phase waits for outstanding responses after its last send.
const DRAIN: Duration = Duration::from_secs(10);

/// What a request is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// A release over the warm (mechanism, workload) set.
    Warm,
    /// A release with a never-seen `random:N` workload.
    Cold,
    /// `GET /v1/tenants/:id/budget`.
    Read,
}

/// One generated request.
#[derive(Debug, Clone)]
struct Req {
    kind: Kind,
    tenant: usize,
    mechanism: &'static str,
    dataset: &'static str,
    workload: String,
    /// The request as sent on the wire.
    wire: Vec<u8>,
}

impl Req {
    fn eps(&self) -> f64 {
        TENANTS[self.tenant].1
    }
}

/// Seeded request generator; cold workloads are unique across the run.
/// Kinds come at fixed positions (every tenth request a budget read,
/// one in a hundred cold, cold mechanisms in turn), so every seed sends
/// the same amount of each kind of work.
struct Mix {
    rng: StdRng,
    next_cold: usize,
    issued: usize,
}

impl Mix {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ hash_str("serve-mix"));
        let next_cold = 2_500 + rng.gen_range(0..500_usize);
        Self {
            rng,
            next_cold,
            issued: 0,
        }
    }

    fn release(&mut self, kind: Kind) -> Req {
        let tenant = self.rng.gen_range(0..TENANTS.len());
        let mut mechanism = MECHS[self.rng.gen_range(0..MECHS.len())];
        let dataset = DATASETS[self.rng.gen_range(0..DATASETS.len())];
        let workload = if kind == Kind::Cold {
            mechanism = MECHS[self.next_cold % MECHS.len()];
            self.next_cold += 1;
            format!("random:{}", self.next_cold)
        } else {
            WORKLOADS[self.rng.gen_range(0..WORKLOADS.len())].to_string()
        };
        let body = format!(
            "{{\"tenant\":\"{}\",\"dataset\":\"{dataset}\",\"mechanism\":\"{mechanism}\",\"workload\":\"{workload}\",\"eps\":{}}}",
            TENANTS[tenant].0,
            json::num(TENANTS[tenant].1)
        );
        let wire = format!(
            "POST /v1/release HTTP/1.1\r\nHost: serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        Req {
            kind,
            tenant,
            mechanism,
            dataset,
            workload,
            wire: wire.into_bytes(),
        }
    }

    fn next(&mut self) -> Req {
        self.issued += 1;
        if self.issued.is_multiple_of(READ_EVERY) {
            let tenant = self.rng.gen_range(0..TENANTS.len());
            let wire = format!(
                "GET /v1/tenants/{}/budget HTTP/1.1\r\nHost: serve\r\nContent-Length: 0\r\n\r\n",
                TENANTS[tenant].0
            );
            Req {
                kind: Kind::Read,
                tenant,
                mechanism: "",
                dataset: "",
                workload: String::new(),
                wire: wire.into_bytes(),
            }
        } else if self.issued % COLD_EVERY == 1 {
            self.release(Kind::Cold)
        } else {
            self.release(Kind::Warm)
        }
    }

    /// A saturation phase: per connection, `n / CONNS` requests all due
    /// at once (sent closed-loop, [`SAT_DEPTH`] in flight at a time).
    fn burst(&mut self, n: usize) -> Vec<(Vec<f64>, Vec<Req>)> {
        (0..CONNS)
            .map(|_| {
                let reqs: Vec<Req> = (0..n / CONNS).map(|_| self.next()).collect();
                (vec![0.0; reqs.len()], reqs)
            })
            .collect()
    }

    /// One open-loop phase: per connection, Poisson arrivals at
    /// `rate / CONNS` and their requests.
    fn phase(&mut self, rate: f64, seconds: f64) -> Vec<(Vec<f64>, Vec<Req>)> {
        let per_conn = (rate * seconds / CONNS as f64).round() as usize;
        (0..CONNS)
            .map(|_| {
                let sched = poisson_arrivals(per_conn, seconds, &mut self.rng);
                let reqs = sched.iter().map(|_| self.next()).collect();
                (sched, reqs)
            })
            .collect()
    }
}

/// A running `dpbench serve` child.
struct Server {
    child: sys::GroupChild,
    /// Held so the server's stdout stays open.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    setup_s: f64,
}

impl Server {
    /// Spawn the server and wait until `/v1/readyz` answers 200.
    fn spawn(ctx: &Ctx, journal: &Path, log: &Path) -> io::Result<Server> {
        let tenants: Vec<String> = TENANTS
            .iter()
            .map(|(t, _)| format!("{t}={GRANT}"))
            .collect();
        let t0 = Instant::now();
        let mut child = sys::GroupChild::spawn(
            Command::new(&ctx.dpbench)
                .args(["serve", "--port", "0", "--datasets", &DATASETS.join(",")])
                .args([
                    "--domain",
                    &DOMAIN.to_string(),
                    "--scale",
                    &SCALE.to_string(),
                ])
                .args([
                    "--tenants",
                    &tenants.join(","),
                    "--threads",
                    &SERVER_THREADS.to_string(),
                ])
                .args(["--seed", &ctx.seed.to_string(), "--slo", "--journal"])
                .arg(journal)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(std::fs::File::create(log)?),
        )?;
        let mut stdout = BufReader::new(child.0.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|r| r.split_whitespace().next())
            .map(str::to_string);
        let Some(addr) = addr else {
            return Err(io::Error::other(format!(
                "dpbench serve did not start: {line:?}"
            )));
        };
        loop {
            if let Ok((200, _)) = http::request(&addr, "GET", "/v1/readyz", None) {
                break;
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err(io::Error::other("dpbench serve never became ready"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(Server {
            setup_s: t0.elapsed().as_secs_f64(),
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Graceful stop (SIGTERM); the server drains and syncs its journal
    /// and exits with 130.
    fn stop(mut self) -> io::Result<bool> {
        sys::terminate(self.child.0.id());
        let status = sys::wait_with_deadline(&mut self.child.0, Duration::from_secs(20))?;
        Ok(status.code() == Some(130))
    }
}

/// Split one complete HTTP response off the front of `buf`:
/// (status, body range, bytes consumed).
fn take_response(buf: &[u8]) -> Result<Option<(u16, std::ops::Range<usize>, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let len: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or("response without Content-Length")?;
    let start = head_end + 4;
    if buf.len() < start + len {
        return Ok(None);
    }
    Ok(Some((status, start..start + len, start + len)))
}

/// Check one 200 body: a release must parse and carry the requested ε
/// and a full finite estimate; a budget read must name the tenant.
fn check_body(req: &Req, body: &[u8]) -> Result<Option<f64>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 body".to_string())?;
    let v = json::parse(text)?;
    let tenant = TENANTS[req.tenant].0;
    if v.get("tenant").and_then(Value::str) != Some(tenant) {
        return Err(format!("response names the wrong tenant (want {tenant})"));
    }
    if req.kind == Kind::Read {
        return match v.get("remaining").and_then(Value::num) {
            Some(r) if r.is_finite() => Ok(None),
            _ => Err("budget read without a finite remaining".into()),
        };
    }
    if v.get("eps").and_then(Value::num) != Some(req.eps()) {
        return Err(format!(
            "release does not carry the requested eps {}",
            req.eps()
        ));
    }
    if v.get("mechanism").and_then(Value::str) != Some(req.mechanism) {
        return Err("release names the wrong mechanism".into());
    }
    let estimate = v.get("release").and_then(|r| r.get("estimate"));
    match estimate {
        Some(Value::Arr(xs))
            if xs.len() == DOMAIN && xs.iter().all(|x| x.num().is_some_and(f64::is_finite)) => {}
        _ => return Err("release without a finite estimate over the domain".into()),
    }
    match v
        .get("slo")
        .and_then(|s| s.get("scaled_l2"))
        .and_then(Value::num)
    {
        Some(e) if e.is_finite() => Ok(v.get("latency_ms").and_then(Value::num)),
        _ => Err("release without a finite SLO error".into()),
    }
}

/// What one connection saw in one phase.
#[derive(Default)]
struct ConnResult {
    outcomes: Vec<(Kind, Outcome)>,
    /// Per tenant: releases answered 200 with a valid body.
    spent_ok: [u64; TENANTS.len()],
    /// Per tenant: releases sent whose outcome is unknown (no response).
    spent_unknown: [u64; TENANTS.len()],
    problems: Vec<String>,
    /// Server-reported handling latency (`latency_ms`) of each release.
    server_ms: Vec<f64>,
}

impl ConnResult {
    /// Add another result's spend tallies and problems (not outcomes).
    fn absorb(&mut self, other: &ConnResult) {
        for t in 0..TENANTS.len() {
            self.spent_ok[t] += other.spent_ok[t];
            self.spent_unknown[t] += other.spent_unknown[t];
        }
        self.problems.extend(other.problems.iter().cloned());
    }
}

/// One nonblocking keep-alive connection with its pipelined requests.
struct Conn {
    stream: TcpStream,
    /// Request bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// Response bytes not yet matched to a request.
    rbuf: Vec<u8>,
    /// Requests sent and not yet answered, oldest first.
    inflight: VecDeque<usize>,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            wbuf: Vec::new(),
            rbuf: Vec::with_capacity(1 << 16),
            inflight: VecDeque::new(),
        })
    }

    /// Write as much of `wbuf` as the socket takes now.
    fn flush(&mut self) -> io::Result<()> {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read everything available; `Ok(false)` when the peer closed.
    fn fill(&mut self, chunk: &mut [u8]) -> io::Result<bool> {
        loop {
            match self.stream.read(chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) => return Err(e),
            }
        }
    }
}

/// One connection's schedule, requests and socket within a phase.
struct Lane<'a> {
    sched: &'a [f64],
    reqs: &'a [Req],
    /// Index of the lane's first request in the phase's outcomes.
    base: usize,
    /// Next request to send.
    next: usize,
    /// Most requests in flight at once (unbounded for an open loop).
    depth: usize,
    conn: Option<Conn>,
}

impl Lane<'_> {
    fn idle(&self) -> bool {
        self.next == self.sched.len() && self.conn.as_ref().is_none_or(|c| c.inflight.is_empty())
    }

    /// Drop the connection; its in-flight requests stay unanswered and
    /// their spends become unknown.
    fn drop_conn(&mut self, res: &mut ConnResult) {
        if let Some(c) = self.conn.take() {
            for i in c.inflight {
                if self.reqs[i].kind != Kind::Read {
                    res.spent_unknown[self.reqs[i].tenant] += 1;
                }
            }
        }
    }

    /// Send every request that is due, opening the connection if needed.
    fn send_due(&mut self, addr: &str, t0: Instant, res: &mut ConnResult) {
        while self.next < self.sched.len()
            && self.sched[self.next] <= t0.elapsed().as_secs_f64()
            && self
                .conn
                .as_ref()
                .is_none_or(|c| c.inflight.len() < self.depth)
        {
            let slot = self.base + self.next;
            if self.conn.is_none() {
                match Conn::open(addr) {
                    Ok(c) => self.conn = Some(c),
                    Err(_) => {
                        // Refused: this request fails; retry on the next.
                        res.outcomes[slot].1.sent = Some(t0.elapsed().as_secs_f64());
                        self.next += 1;
                        continue;
                    }
                }
            }
            let c = self.conn.as_mut().expect("connected above");
            c.wbuf.extend_from_slice(&self.reqs[self.next].wire);
            c.inflight.push_back(self.next);
            res.outcomes[slot].1.sent = Some(t0.elapsed().as_secs_f64());
            self.next += 1;
        }
        if let Some(c) = self.conn.as_mut() {
            if c.flush().is_err() {
                self.drop_conn(res);
            }
        }
    }

    /// Read what arrived and match complete responses to requests.
    fn receive(&mut self, t0: Instant, chunk: &mut [u8], res: &mut ConnResult) {
        let Some(c) = self.conn.as_mut() else {
            return;
        };
        let open = c.fill(chunk).unwrap_or(false);
        let mut consumed = 0;
        let mut broken = !open;
        loop {
            match take_response(&c.rbuf[consumed..]) {
                Ok(Some((status, body, used))) => {
                    let done = t0.elapsed().as_secs_f64();
                    let Some(i) = c.inflight.pop_front() else {
                        res.problems.push("response without a request".into());
                        broken = true;
                        break;
                    };
                    let req = &self.reqs[i];
                    let body = &c.rbuf[consumed + body.start..consumed + body.end];
                    let ok = status == 200
                        && match check_body(req, body) {
                            Ok(server_ms) => {
                                res.server_ms.extend(server_ms);
                                true
                            }
                            Err(e) => {
                                res.problems
                                    .push(format!("{} {}: {e}", req.mechanism, req.workload));
                                false
                            }
                        };
                    if req.kind != Kind::Read && status == 200 {
                        // A 200 spent ε even if its body failed the check.
                        res.spent_ok[req.tenant] += 1;
                    }
                    let o = &mut res.outcomes[self.base + i].1;
                    o.done = Some(done);
                    o.ok = ok;
                    consumed += used;
                }
                Ok(None) => break,
                Err(e) => {
                    res.problems.push(format!("unparseable response: {e}"));
                    broken = true;
                    break;
                }
            }
        }
        c.rbuf.drain(..consumed);
        if broken {
            self.drop_conn(res);
        }
    }
}

/// Run one open-loop phase: [`CONNS`] keep-alive connections driven by
/// this one thread. Each request is sent when it is due (pipelined,
/// never waiting for earlier responses) and responses are matched in
/// order. Waits use `ppoll`, whose timeout is precise to microseconds,
/// so the generator is not late by a scheduler tick. Times are seconds
/// from the phase start.
fn run_phase(addr: &str, plan: &[(Vec<f64>, Vec<Req>)], depth: usize) -> ConnResult {
    let mut res = ConnResult::default();
    let mut lanes = Vec::new();
    for (sched, reqs) in plan {
        lanes.push(Lane {
            sched,
            reqs,
            base: res.outcomes.len(),
            next: 0,
            depth,
            conn: None,
        });
        res.outcomes.extend(sched.iter().zip(reqs).map(|(&due, r)| {
            (
                r.kind,
                Outcome {
                    due,
                    sent: None,
                    done: None,
                    ok: false,
                },
            )
        }));
    }
    let last_due = plan
        .iter()
        .filter_map(|(s, _)| s.last())
        .fold(0.0_f64, |a, &b| a.max(b));
    let deadline = last_due + DRAIN.as_secs_f64();
    let mut chunk = vec![0_u8; 1 << 16];
    let t0 = Instant::now();
    loop {
        if lanes.iter().all(Lane::idle) {
            break;
        }
        if t0.elapsed().as_secs_f64() > deadline {
            for lane in &mut lanes {
                lane.drop_conn(&mut res);
            }
            break;
        }
        for lane in &mut lanes {
            lane.send_due(addr, t0, &mut res);
        }
        let now = t0.elapsed().as_secs_f64();
        let next_due = lanes
            .iter()
            .filter(|l| l.conn.as_ref().is_none_or(|c| c.inflight.len() < l.depth))
            .filter_map(|l| l.sched.get(l.next))
            .fold(f64::INFINITY, |a, &b| a.min(b));
        let wait = Duration::from_secs_f64((next_due - now).clamp(0.0, 0.005));
        let fds: Vec<(i32, bool)> = lanes
            .iter()
            .map(|l| {
                l.conn
                    .as_ref()
                    .map_or((-1, false), |c| (c.stream.as_raw_fd(), !c.wbuf.is_empty()))
            })
            .collect();
        let ready = match sys::wait_fds(&fds, wait) {
            Ok(r) => r,
            Err(e) => {
                res.problems.push(format!("ppoll failed: {e}"));
                for lane in &mut lanes {
                    lane.drop_conn(&mut res);
                }
                break;
            }
        };
        for (lane, readable) in lanes.iter_mut().zip(ready) {
            if readable {
                lane.receive(t0, &mut chunk, &mut res);
            }
        }
    }
    res
}

/// Outcomes of the given kinds.
fn of_kind(r: &ConnResult, kinds: &[Kind]) -> Vec<Outcome> {
    r.outcomes
        .iter()
        .filter(|(k, _)| kinds.contains(k))
        .map(|(_, o)| *o)
        .collect()
}

/// Latency summary, with infinite values (failures) reported as the
/// drain limit so the JSON stays finite.
fn finite(s: Option<Summary>) -> Summary {
    let cap = DRAIN.as_secs_f64() * 1e3;
    let s = s.expect("phase has requests");
    Summary {
        p50: s.p50.min(cap),
        tail: s.tail.min(cap),
        ..s
    }
}

/// CPU time the server and the client spend in the `lo` and `hi` phases.
#[derive(Default)]
struct PhaseUsage {
    server_cpu_s: f64,
    client_cpu_s: f64,
}

/// The measured server and everything the client has seen of it.
struct Session {
    addr: String,
    pid: u32,
    nproc: usize,
    /// No segment is repeated after this instant (bounds the run time).
    retry_until: Instant,
    /// Spends of every attempt, kept or repeated.
    tally: ConnResult,
    /// CPU of the kept `lo` and `hi` segments.
    usage: PhaseUsage,
    /// `lo`/`hi` requests of every attempt, and those that failed.
    attempted: u64,
    failed: u64,
    /// (steal %, attempts) of every segment.
    segments: Vec<(f64, usize)>,
}

impl Session {
    /// One open-loop segment, repeated while the machine is noisy;
    /// `counted` segments (`lo`, `hi`) count in attempted/failed and CPU.
    fn open_loop(
        &mut self,
        plan: &[(Vec<f64>, Vec<Req>)],
        counted: bool,
    ) -> io::Result<ConnResult> {
        let q = sys::quiet(self.nproc, self.retry_until, || {
            let (server0, client0) = (sys::proc_cpu_s(self.pid)?, sys::self_usage().cpu_s);
            let r = run_phase(&self.addr, plan, usize::MAX);
            let server = sys::proc_cpu_s(self.pid)? - server0;
            let client = sys::self_usage().cpu_s - client0;
            self.tally.absorb(&r);
            if counted {
                self.attempted += r.outcomes.len() as u64;
                self.failed += r.outcomes.iter().filter(|(_, o)| !o.ok).count() as u64;
            }
            Ok((r, server, client))
        })?;
        self.segments.push((q.steal_pct, q.attempts));
        let (r, server, client) = q.value;
        if counted {
            self.usage.server_cpu_s += server;
            self.usage.client_cpu_s += client;
        }
        Ok(r)
    }

    /// One closed-loop saturation burst, repeated while the machine is
    /// noisy.
    fn saturate(&mut self, plan: &[(Vec<f64>, Vec<Req>)]) -> io::Result<ConnResult> {
        let q = sys::quiet(self.nproc, self.retry_until, || {
            let r = run_phase(&self.addr, plan, SAT_DEPTH);
            self.tally.absorb(&r);
            Ok(r)
        })?;
        self.segments.push((q.steal_pct, q.attempts));
        Ok(q.value)
    }
}

/// Completions per second of a saturation burst over the middle 80% of
/// its completions (ramp-up and drain excluded); a failure is a problem.
fn saturation_rps(sat: &ConnResult, out: &mut RunOutput) -> f64 {
    let failed = sat.outcomes.iter().filter(|(_, o)| !o.ok).count();
    if failed > 0 {
        out.problems
            .push(format!("{failed} requests failed at saturation"));
    }
    let mut done: Vec<f64> = sat.outcomes.iter().filter_map(|(_, o)| o.done).collect();
    done.sort_by(f64::total_cmp);
    let (a, b) = (done.len() / 10, done.len() * 9 / 10);
    if b <= a || done[b] <= done[a] {
        out.problems
            .push("a saturation burst completed too few requests".into());
        return 0.0;
    }
    (b - a) as f64 / (done[b] - done[a])
}

/// Phase lengths: 15% of the run for `lo`, 40% for `hi`, and 5% for
/// each ladder rung.
fn phase_seconds(seconds: u64) -> (f64, f64, f64) {
    let s = seconds as f64;
    (s * 0.15, s * 0.4, s * 0.05)
}

/// `serve-mix`, untraced: set-up, warm-up, `lo`, `hi`, the rate ladder,
/// and the end-of-run budget and journal checks.
pub fn run_serve_mix(ctx: &Ctx, out: &mut RunOutput) -> io::Result<()> {
    let (lo_s, hi_s, rung_s) = phase_seconds(ctx.seconds);
    out.report(
        "serve",
        format!(
            "{{\"lo_rps\":{LO_RPS},\"hi_rps\":{HI_RPS},\"lo_s\":{lo_s},\"hi_s\":{hi_s},\"rung_s\":{rung_s},\"slo_p99_ms\":{SLO_P99_MS},\"conns\":{CONNS},\"server_threads\":{SERVER_THREADS}}}"
        ),
    );
    let mut setups = Vec::new();
    for i in 0..SETUP_SPAWNS - 1 {
        let probe = Server::spawn(
            ctx,
            &ctx.tmp.join(format!("probe{i}.journal")),
            &ctx.tmp.join(format!("probe{i}.log")),
        )?;
        setups.push(probe.setup_s);
        if !probe.stop()? {
            out.problems
                .push("set-up probe server did not exit cleanly".into());
        }
    }
    let journal_path = ctx.tmp.join("serve.journal");
    let server = Server::spawn(ctx, &journal_path, &ctx.tmp.join("serve.log"))?;
    setups.push(server.setup_s);
    let pid = server.child.0.id();
    let mut mix = Mix::new(ctx.seed);
    // The client's own tally of spends, folded in from every phase.
    let mut tally = ConnResult::default();

    // Warm-up (closed loop, one request each): build the warm plans.
    let mut conn = http::ClientConn::connect(&server.addr)?;
    for dataset in DATASETS {
        for mechanism in MECHS {
            for workload in WORKLOADS {
                let body = format!(
                    "{{\"tenant\":\"t0\",\"dataset\":\"{dataset}\",\"mechanism\":\"{mechanism}\",\"workload\":\"{workload}\",\"eps\":{}}}",
                    TENANTS[0].1
                );
                let (status, _) = conn.request("POST", "/v1/release", Some(&body))?;
                if status != 200 {
                    out.problems
                        .push(format!("warm-up {mechanism} {workload}: HTTP {status}"));
                } else {
                    tally.spent_ok[0] += 1;
                }
            }
        }
    }
    drop(conn);

    // `lo`, then `hi` in segments interleaved with saturation bursts, so
    // a slow spell of the machine hits a minority of the bursts whose
    // median is reported. Every segment runs while the machine is quiet
    // (see `sys::quiet`).
    let mut session = Session {
        addr: server.addr.clone(),
        pid,
        nproc: ctx.nproc,
        retry_until: Instant::now() + Duration::from_secs_f64(0.8 * ctx.seconds as f64),
        tally,
        usage: PhaseUsage::default(),
        attempted: 0,
        failed: 0,
        segments: Vec::new(),
    };
    let lo_plan = mix.phase(LO_RPS, lo_s);
    let lo = session.open_loop(&lo_plan, true)?;
    let mut hi = ConnResult::default();
    let mut hi_plans = Vec::new();
    let mut sat_rates = Vec::new();
    for k in 0..HI_SEGMENTS {
        let plan = mix.phase(HI_RPS, hi_s / HI_SEGMENTS as f64);
        let seg = session.open_loop(&plan, true)?;
        // Place the segment after the earlier ones on one time axis.
        let shift = k as f64 * hi_s / HI_SEGMENTS as f64;
        hi.outcomes.extend(seg.outcomes.iter().map(|(kind, o)| {
            let at = |t: f64| t + shift;
            (
                *kind,
                Outcome {
                    due: at(o.due),
                    sent: o.sent.map(at),
                    done: o.done.map(at),
                    ok: o.ok,
                },
            )
        }));
        hi.server_ms.extend_from_slice(&seg.server_ms);
        hi_plans.push(plan);
        let burst = mix.burst(SAT_PER_SECOND * ctx.seconds as usize / HI_SEGMENTS);
        let sat = session.saturate(&burst)?;
        sat_rates.push(saturation_rps(&sat, out));
    }
    // Peak RSS before the ladder: the ladder's length depends on where
    // the knee falls, and every cold release it sends grows the server.
    let rss = sys::peak_rss_mb(pid)?;
    let releases = [Kind::Warm, Kind::Cold];
    let lo_rel = account(&of_kind(&lo, &releases));
    let hi_rel = account(&of_kind(&hi, &releases));
    let hi_read = account(&of_kind(&hi, &[Kind::Read]));
    let hi_all = account(&of_kind(&hi, &[Kind::Warm, Kind::Cold, Kind::Read]));
    let lo_all = account(&of_kind(&lo, &[Kind::Warm, Kind::Cold, Kind::Read]));
    let sat_rps = stats::median(&sat_rates).expect("several saturation bursts");

    // The ladder: climb until a rung misses the SLO twice in a row (one
    // retry keeps a single stall of the machine from ending the climb).
    let mut max_rps = 0.0;
    let mut rungs = Vec::new();
    'climb: for &rate in &LADDER {
        for _attempt in 0..2 {
            let plan = mix.phase(rate, rung_s);
            let r = run_phase(&session.addr, &plan, usize::MAX);
            session.tally.absorb(&r);
            let all = of_kind(&r, &[Kind::Warm, Kind::Cold, Kind::Read]);
            let pass = meets_slo(&all, SLO_P99_MS);
            let a = account(&all);
            let mut lat: Vec<f64> = all.iter().map(Outcome::latency_ms).collect();
            lat.sort_by(f64::total_cmp);
            rungs.push(format!(
                "{{\"rps\":{rate},\"pass\":{pass},\"n\":{},\"failed\":{},\"p99_ms\":{},\"backlog_growing\":{}}}",
                a.attempted,
                a.failed,
                json::num(stats::percentile(&lat, 99.0)),
                a.backlog_growing
            ));
            if pass {
                max_rps = rate;
                continue 'climb;
            }
        }
        break;
    }
    out.report("ladder", format!("[{}]", rungs.join(",")));

    // End of run: every tenant's balance against the client's tally,
    // then against a bit-exact replay of the journal.
    let mut endpoint = Vec::new();
    for (tenant, _) in TENANTS {
        let (status, body) = http::request(
            &server.addr,
            "GET",
            &format!("/v1/tenants/{tenant}/budget"),
            None,
        )?;
        let v = json::parse(&body).map_err(io::Error::other)?;
        let field = |k: &str| v.get(k).and_then(Value::num);
        match (
            status,
            field("remaining"),
            field("spent"),
            field("releases"),
        ) {
            (200, Some(rem), Some(spent), Some(n)) => endpoint.push((rem, spent, n as u64)),
            _ => {
                return Err(io::Error::other(format!(
                    "budget read for {tenant} failed: {status} {body}"
                )))
            }
        }
    }
    if !server.stop()? {
        out.problems
            .push("server did not drain and exit with 130".into());
    }
    let tally = &session.tally;
    out.problems.extend(tally.problems.iter().take(5).cloned());
    check_budgets(
        &endpoint,
        &tally.spent_ok,
        &tally.spent_unknown,
        &journal_path,
        out,
    )?;
    out.attempted += session.attempted;
    out.failed += session.failed;
    let steals: Vec<String> = session
        .segments
        .iter()
        .map(|(s, a)| format!("[{},{a}]", json::num(*s)))
        .collect();
    out.report(
        "segments_steal_pct_attempts",
        format!("[{}]", steals.join(",")),
    );

    let setup = stats::median(&setups).expect("several set-ups");
    out.report("setup_samples_s", crate::json::nums(&setups));
    let served = (lo_all.attempted - lo_all.failed + hi_all.attempted - hi_all.failed).max(1);
    let lo_lat = finite(lo_rel.latency);
    let hi_lat = finite(hi_rel.latency);
    // The gated latencies are the server's own `latency_ms` per release
    // (handler start to response build): the client-side ones below
    // track the hypervisor's wake-up latency on this machine more than
    // the program. Throughput is the capacity of the worker threads at
    // the measured server CPU cost per request.
    let mut server_lo = lo.server_ms.clone();
    let mut server_hi = hi.server_ms.clone();
    server_lo.sort_by(f64::total_cmp);
    server_hi.sort_by(f64::total_cmp);
    let cpu_ms = session.usage.server_cpu_s * 1e3 / served as f64;
    let capacity_rps = SERVER_THREADS as f64 * 1e3 / cpu_ms;
    let server_p50_lo = stats::percentile(&server_lo, 50.0);
    let server_p90_hi = stats::percentile(&server_hi, 90.0);
    let read_lat = finite(hi_read.latency);
    out.metric("setup_s", setup);
    out.metric("runs_per_s", capacity_rps);
    out.metric("peak_rss_mb", rss);
    out.metric("latency_p50_ms", server_p50_lo);
    out.metric("latency_tail_ms", server_p90_hi);
    out.metric("cpu_ms_per_run", cpu_ms);
    let lag = finite(hi_all.lag);
    out.note("loadgen_lag_p99_ms", lag.tail);
    out.note(
        "client_cpu_ms_per_request",
        session.usage.client_cpu_s * 1e3 / served as f64,
    );
    out.note(
        "server_release_p99_ms.hi",
        stats::percentile(&server_hi, 99.0),
    );
    out.note(
        "cold_releases",
        of_kind(&lo, &[Kind::Cold]).len() as f64 + of_kind(&hi, &[Kind::Cold]).len() as f64,
    );
    for (label, kind) in [("warm", Kind::Warm), ("cold", Kind::Cold)] {
        let lat: Vec<f64> = of_kind(&hi, &[kind])
            .iter()
            .map(Outcome::latency_ms)
            .collect();
        if let Some(s) = stats::summarize(&lat) {
            out.note(&format!("release_{label}_p50_ms.hi"), s.p50);
            out.note(&format!("release_{label}_p{}_ms.hi", s.tail_pct), s.tail);
        }
    }
    out.named("setup_s", setup, "s");
    out.named("peak_rss_mb", rss, "MB");
    out.named(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.named("release_p50_ms.lo", lo_lat.p50, "ms");
    out.named(
        &format!("release_p{}_ms.lo", lo_lat.tail_pct),
        lo_lat.tail,
        "ms",
    );
    out.named("release_p50_ms.hi", hi_lat.p50, "ms");
    out.named(
        &format!("release_p{}_ms.hi", hi_lat.tail_pct),
        hi_lat.tail,
        "ms",
    );
    out.named("max_rps_at_slo", max_rps, "1/s");
    out.named("saturation_rps", sat_rps, "1/s");
    out.named("server_release_p50_ms.lo", server_p50_lo, "ms");
    out.named("server_release_p90_ms.hi", server_p90_hi, "ms");
    out.named("server_capacity_rps", capacity_rps, "1/s");
    out.named(
        &format!("budget_read_p{}_ms.hi", read_lat.tail_pct),
        read_lat.tail,
        "ms",
    );
    out.note("release_count.lo", lo_lat.count as f64);
    out.note("release_count.hi", hi_lat.count as f64);
    out.note("budget_read_count.hi", read_lat.count as f64);

    if ctx.trace {
        // Phases in order; within a phase, both connections' requests
        // by due time.
        let mut reqs: Vec<(f64, Req)> = Vec::new();
        for (k, plan) in std::iter::once(&lo_plan).chain(&hi_plans).enumerate() {
            for (sched, rs) in plan {
                reqs.extend(
                    sched
                        .iter()
                        .map(|t| t + k as f64 * 1e3)
                        .zip(rs.iter().cloned()),
                );
            }
        }
        reqs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let reqs: Vec<Req> = reqs.into_iter().map(|(_, r)| r).collect();
        trace_replay(ctx, &reqs, lo_lat.p50, lag.tail, lo_s + hi_s, out)?;
    }
    Ok(())
}

/// Compare every tenant's endpoint balance with the client's tally and
/// with a replay of the journal; both must agree bit for bit.
fn check_budgets(
    endpoint: &[(f64, f64, u64)],
    ok: &[u64; TENANTS.len()],
    unknown: &[u64; TENANTS.len()],
    journal_path: &Path,
    out: &mut RunOutput,
) -> io::Result<()> {
    let records = journal::replay(journal_path)?;
    let mut replayed: HashMap<&str, BudgetLedger> = TENANTS
        .iter()
        .map(|(t, _)| (*t, BudgetLedger::new(GRANT)))
        .collect();
    for rec in &records {
        let Some(ledger) = replayed.get_mut(rec.tenant.as_str()) else {
            out.problems
                .push(format!("journal names unknown tenant {}", rec.tenant));
            continue;
        };
        match rec.op {
            JournalOp::Spend => {
                if ledger.reserve(rec.eps).is_err() {
                    ledger.spend_all_as("replay-clamp");
                }
            }
            JournalOp::Refund => {
                let eps = rec.eps.min(ledger.spent());
                if eps > 0.0 {
                    ledger.refund_as("refund", eps);
                }
            }
        }
    }
    let mut drift = 0_usize;
    for (t, &(remaining, spent, releases)) in endpoint.iter().enumerate() {
        let (name, eps) = TENANTS[t];
        if releases < ok[t] || releases > ok[t] + unknown[t] {
            out.problems.push(format!(
                "{name}: server counts {releases} releases, client saw {} (+{} unknown)",
                ok[t], unknown[t]
            ));
        }
        // The client's tally: grant minus its own successful spends.
        let mut tally = BudgetLedger::new(GRANT);
        for _ in 0..releases {
            tally
                .reserve(eps)
                .map_err(|e| io::Error::other(format!("{e:?}")))?;
        }
        if tally.remaining().to_bits() != remaining.to_bits() {
            out.problems.push(format!(
                "{name}: endpoint remaining {remaining} != grant - tally {}",
                tally.remaining()
            ));
        }
        let j = &replayed[name];
        if j.remaining().to_bits() != remaining.to_bits() || j.spent().to_bits() != spent.to_bits()
        {
            drift += 1;
            out.problems.push(format!(
                "{name}: journal replay gives remaining {} spent {}, endpoint {remaining} {spent}",
                j.remaining(),
                j.spent()
            ));
        }
    }
    out.note("journal_records", records.len() as f64);
    out.note("journal_drift_tenants", drift as f64);
    Ok(())
}

/// Replay the `lo` + `hi` requests in-process on one thread through the
/// entry points `handle_release` calls, in its order — twice, untraced
/// and traced — and emit the per-layer metrics.
fn trace_replay(
    ctx: &Ctx,
    reqs: &[Req],
    lo_p50_ms: f64,
    lag_p99_ms: f64,
    wall_s: f64,
    out: &mut RunOutput,
) -> io::Result<()> {
    let mut plain = Tracer::new(false);
    let t = Instant::now();
    replay(ctx, reqs, &ctx.tmp.join("replay-plain.journal"), &mut plain)?;
    let plain_s = t.elapsed().as_secs_f64();
    let mut tr = Tracer::new(true);
    let t = Instant::now();
    let bytes = replay(ctx, reqs, &ctx.tmp.join("replay-traced.journal"), &mut tr)?;
    let traced_s = t.elapsed().as_secs_f64();
    tr.write_jsonl(&ctx.spans_path("replay"))?;

    let med_us = |name: &str| stats::median(&tr.samples(name)).map_or(0.0, |ms| ms * 1e3);
    let layers = tr.layers();
    let total = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ms);
    let calls = |name: &str| layers.get(name).map_or(0, |l| l.calls);
    trace::report_layers(
        out,
        &layers,
        "request",
        (plain_s, traced_s),
        SERVER_THREADS as f64 * wall_s * 1e3,
    );
    let mut exec_all_us = Vec::new();
    for m in MECHS {
        let samples = tr.samples(trace::execute_span(m));
        out.metric(
            &format!("algorithms.execute_us.{}", metric_name(m)),
            stats::median(&samples).map_or(0.0, |ms| ms * 1e3),
        );
        exec_all_us.extend(samples.iter().map(|ms| ms * 1e3));
    }
    let parse = med_us("http.parse");
    let reserve = med_us("accountant.reserve");
    let lookup = med_us("runner.plan_lookup");
    let slo = med_us("workload.slo");
    let serialize = med_us("mechanism.serialize");
    let frame = med_us("http.frame");
    let execute = stats::median(&exec_all_us).unwrap_or(0.0);
    out.metric("http.parse_us", parse);
    out.metric("accountant.reserve_us", reserve);
    out.metric("runner.plan_lookup_us", lookup);
    out.metric("workload.slo_us", slo);
    out.metric("mechanism.serialize_us", serialize);
    out.metric("http.frame_us", frame);
    out.metric(
        "http.response_bytes",
        bytes as f64 / calls("http.frame").max(1) as f64,
    );
    out.metric("runner.plan_build_ms", total("runner.plan_build"));
    out.metric("runner.plan_builds", calls("runner.plan_build") as f64);
    let (hits, builds) = (calls("runner.plan_lookup"), calls("runner.plan_build"));
    out.metric(
        "runner.plan_hit_ratio",
        hits as f64 / (hits + builds).max(1) as f64,
    );
    out.metric("workload.build_ms", total("workload.build"));
    out.metric("workload.y_true_ms", total("workload.y_true"));
    out.metric(
        "server.unattributed_us",
        lo_p50_ms * 1e3 - (parse + reserve + lookup + execute + slo + serialize + frame),
    );
    out.metric("loadgen.lag_p99_ms", lag_p99_ms);
    Ok(())
}

/// The served datasets, generated exactly as `dpbench serve` does.
fn served_data(seed: u64) -> HashMap<&'static str, DataVector> {
    let domain = Domain::D1(DOMAIN);
    DATASETS
        .iter()
        .map(|&name| {
            let ds = catalog::by_name(name).expect("served datasets are catalog datasets");
            let mut rng = rng_for("serve-data", &[hash_str(name), SCALE, DOMAIN as u64, seed]);
            (
                name,
                DataGenerator::new().generate(&ds, domain, SCALE, &mut rng),
            )
        })
        .collect()
}

/// One replay pass; returns the response bytes framed.
fn replay(ctx: &Ctx, reqs: &[Req], journal_path: &Path, tr: &mut Tracer) -> io::Result<u64> {
    let grants: Vec<(String, f64)> = TENANTS
        .iter()
        .map(|(t, _)| (t.to_string(), GRANT))
        .collect();
    let accountant = TenantAccountant::new(&grants, Some(journal_path))?;
    let data = served_data(ctx.seed);
    let domain = Domain::D1(DOMAIN);
    let plans = PlanCache::new();
    let mut ws = Workspace::new();
    let mut workloads: HashMap<String, Arc<Workload>> = HashMap::new();
    let mut y_true: HashMap<(&str, u64), Arc<Vec<f64>>> = HashMap::new();
    let mechs: HashMap<&str, Box<dyn dpbench::core::Mechanism>> = MECHS
        .iter()
        .map(|m| (*m, mechanism_by_name(m).expect("registered")))
        .collect();
    let mut body = String::new();
    let mut wire: Vec<u8> = Vec::new();
    let mut framed = 0_u64;
    for (i, req) in reqs.iter().enumerate() {
        let root = tr.begin("request", None);
        let mut buf = req.wire.clone();
        let fields = tr.span("http.parse", root, || {
            let parsed = http::try_parse(&mut buf).ok().flatten()?;
            if req.kind == Kind::Read {
                return Some(HashMap::new());
            }
            std::str::from_utf8(&parsed.body)
                .ok()
                .and_then(|b| http::parse_object(b).ok())
        });
        let Some(fields) = fields else {
            return Err(io::Error::other("replayed request did not parse"));
        };
        if req.kind == Kind::Read {
            tr.end(root);
            continue;
        }
        let eps = fields
            .get("eps")
            .and_then(|v| v.as_f64())
            .expect("replayed bodies carry eps");
        let tenant = TENANTS[req.tenant].0;
        tr.span("accountant.reserve", root, || {
            accountant.reserve(tenant, eps)
        })
        .map_err(|e| io::Error::other(format!("{e:?}")))?;
        let workload = match workloads.get(&req.workload) {
            Some(w) => Arc::clone(w),
            None => {
                let spec = match req.workload.strip_prefix("random:") {
                    Some(n) => {
                        WorkloadSpec::RandomRanges(n.parse().expect("generated counts parse"))
                    }
                    None => WorkloadSpec::Prefix,
                };
                let w = Arc::new(tr.span("workload.build", root, || spec.build(domain)));
                workloads.insert(req.workload.clone(), Arc::clone(&w));
                w
            }
        };
        let mech = &mechs[req.mechanism];
        let id = tr.begin("runner.plan_lookup", root);
        let (plan, hit) = plans
            .plan_for_traced(mech.as_ref(), &domain, &workload)
            .map_err(|e| io::Error::other(e.to_string()))?;
        tr.end_as(
            id,
            if hit {
                "runner.plan_lookup"
            } else {
                "runner.plan_build"
            },
        );
        let x = &data[req.dataset];
        let mut rng = rng_for("serve-replay", &[ctx.seed, i as u64]);
        let release = tr
            .span(trace::execute_span(req.mechanism), root, || {
                execute_eps_with(plan.as_ref(), x, eps, &mut ws, &mut rng)
            })
            .map_err(|e| io::Error::other(e.to_string()))?;
        let key = (req.dataset, workload.fingerprint());
        let truth = match y_true.get(&key) {
            Some(y) => Arc::clone(y),
            None => {
                let y = Arc::new(tr.span("workload.y_true", root, || workload.evaluate(x)));
                y_true.insert(key, Arc::clone(&y));
                y
            }
        };
        let (l1, l2) = tr.span("workload.slo", root, || {
            let y_hat = workload.evaluate_cells(&release.estimate);
            (
                scaled_per_query_error(&truth, &y_hat, SCALE as f64, Loss::L1),
                scaled_per_query_error(&truth, &y_hat, SCALE as f64, Loss::L2),
            )
        });
        let remaining = accountant.snapshot(tenant).map_or(0.0, |s| s.remaining);
        tr.span("mechanism.serialize", root, || {
            body.clear();
            body.push_str(&format!(
                "{{\"tenant\":\"{tenant}\",\"dataset\":\"{}\",\"mechanism\":\"{}\",\"requested_mechanism\":\"{}\",\"eps\":{},\"remaining\":{},\"plan_cache_hit\":{hit},\"batched\":false,\"latency_ms\":0.1,\"slo\":{{\"scaled_l1\":{},\"scaled_l2\":{}}},\"release\":",
                req.dataset,
                req.mechanism,
                req.mechanism,
                json::num(eps),
                json::num(remaining),
                json::num(l1),
                json::num(l2)
            ));
            release.to_json_into(&mut body);
            body.push('}');
        });
        tr.span("http.frame", root, || {
            wire.clear();
            http::write_response_into(&mut wire, 200, &body, false, None);
        });
        framed += wire.len() as u64;
        ws.give_f64(release.into_estimate());
        tr.end(root);
    }
    accountant.sync()?;
    Ok(framed)
}
