//! The release server: datasets loaded at startup, an event-driven
//! worker pool over the hand-rolled HTTP layer, and six endpoints.
//!
//! | Endpoint | Semantics |
//! |---|---|
//! | `POST /v1/release` | shed check → rate limit → reserve ε → (batched) `Plan::execute` → JSON release |
//! | `GET /v1/tenants/:id/budget` | the tenant's live balance |
//! | `GET /v1/status` | uptime, per-mechanism counts, plan-cache/batcher/poller/robustness counters |
//! | `GET /v1/healthz` | liveness: 200 whenever the process can answer |
//! | `GET /v1/readyz` | readiness: 503 while draining, at the connection cap, or overloaded |
//! | `POST /v1/admin/reload` | re-read `--tenant-config` and apply grants without restart |
//!
//! ## Scheduling
//!
//! Workers do not own connections; connections are **parked** on a
//! readiness [`Poller`] (`epoll`; see [`super::poller`] — the server is
//! Linux-only). The listener and every parked socket register
//! one-shot read/write interest; workers block on `poller.wait()` and
//! each delivered event hands exactly one connection to exactly one
//! worker, which drains arrived bytes, serves any complete requests,
//! queues response bytes for nonblocking flush, and re-parks. A
//! slowloris client dribbling one byte a second therefore costs one
//! wakeup per byte — never a pinned worker, never a polling cadence —
//! and its 408 fires from the [`TimerWheel`]: every parked connection
//! arms a deadline (write/partial/idle) keyed by the next-expiry
//! instant, so reaping is exact rather than cadence-quantized.
//! Deadlines and caps live in [`Limits`]; violations answer with clean
//! 408/413/429/431/503 per the error contract in the README.
//!
//! Release flow: load shedding and rate limiting run **before**
//! admission ([`TenantAccountant::reserve`] — atomic check-and-reserve,
//! journaled), so a shed request costs zero ε. A mechanism failure
//! refunds, and the response's remaining balance is read back after
//! settlement. Plans come from one [`PlanCache`] shared by all workers;
//! executions of the same (mechanism, domain, workload, dataset, ε)
//! arriving within the batch window share one noise draw through the
//! [`Batcher`]. Per-connection buffers (read, body, response, output)
//! are pooled across keep-alive requests, so the steady-state request
//! path allocates only inside the mechanism itself.

use super::accountant::{parse_tenant_grants, AdmissionError, ReloadOutcome, TenantAccountant};
use super::batcher::Batcher;
use super::http::{self, Request};
use super::limits::{Limits, RateLimiter};
use super::poller::{Event, Interest, Poller, TimerWheel};
use super::shutdown;
use crate::config::WorkloadSpec;
use crate::runner::PlanCache;
use crate::selector::{Confidence, SelectionProfile, SelectorQuery, ShapeClass};
use dpbench_algorithms::registry::mechanism_by_name;
use dpbench_core::json::{self, Value, F64};
use dpbench_core::mechanism::execute_eps_with;
use dpbench_core::rng::{hash_str, rng_for};
use dpbench_core::{
    scaled_per_query_error, DataVector, Domain, Fingerprint, Loss, Release, Workload, Workspace,
};
use dpbench_datasets::{catalog, DataGenerator};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The listener's poller token; connection tokens start above it.
const LISTENER_TOKEN: u64 = 0;

/// Cap on any single `poller.wait` so workers notice the stop flag and
/// process signals promptly even when no deadline is near.
const STOP_POLL: Duration = Duration::from_millis(50);

/// Server configuration (the CLI builds this from `dpbench serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (tests).
    pub addr: String,
    /// Catalog names of the datasets to load at startup.
    pub datasets: Vec<String>,
    /// Scale every dataset is generated at.
    pub scale: u64,
    /// Domain every dataset is generated over (and every plan runs on).
    pub domain: Domain,
    /// `(tenant, lifetime ε)` grants.
    pub tenants: Vec<(String, f64)>,
    /// Tenant-config file the grants came from; kept so SIGHUP or
    /// `POST /v1/admin/reload` can re-read it without restart.
    pub tenant_config: Option<PathBuf>,
    /// Spend journal path; `None` serves from memory only.
    pub journal: Option<PathBuf>,
    /// Worker threads handling connections.
    pub threads: usize,
    /// Same-strategy request batching window (zero disables).
    pub batch_window: Duration,
    /// Connection caps, deadlines, and rate limits.
    pub limits: Limits,
    /// Seed stirred into data generation and release noise.
    pub seed: u64,
    /// Operator opt-in: include the SLO error block (scaled L1/L2 vs the
    /// true workload answers) in release responses.
    pub slo: bool,
    /// Selection-profile file (`dpbench recommend --profile`); when set,
    /// `"mechanism":"auto"` resolves through the profile per request and
    /// SIGHUP / `POST /v1/admin/reload` re-reads it without restart.
    pub profile: Option<PathBuf>,
    /// Log one line per request to stderr.
    pub verbose: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8787".into(),
            datasets: vec!["MEDCOST".into()],
            scale: 100_000,
            domain: Domain::D1(1024),
            tenants: Vec::new(),
            tenant_config: None,
            journal: None,
            threads: 4,
            batch_window: Duration::ZERO,
            limits: Limits::default(),
            seed: 0,
            slo: false,
            profile: None,
            verbose: false,
        }
    }
}

/// One dataset materialized at startup.
struct LoadedDataset {
    x: DataVector,
    /// Shape class of the catalog base shape — the selector's lookup key
    /// component that depends on *which* data is being released.
    shape: ShapeClass,
}

/// Memo of true workload answers, keyed by (dataset, workload
/// fingerprint) — the SLO block evaluates `W x` once per pair.
type YTrueMemo = Mutex<HashMap<(String, u64), Arc<Vec<f64>>>>;

/// Robustness counters — every shed, timeout, and reject is counted so
/// the chaos tests (and operators) can see exactly where hostile traffic
/// went. All monotonic; exposed in `/v1/status` under `"robustness"`.
#[derive(Default)]
pub struct Robustness {
    /// Connects refused at the concurrent-connection cap.
    pub shed_conns: AtomicU64,
    /// Connects refused because the parked-connection set was full.
    pub shed_queue: AtomicU64,
    /// Releases shed because the estimated queue wait was too long.
    pub shed_wait: AtomicU64,
    /// 408s: connections that dribbled a partial request past the
    /// header deadline (slowloris).
    pub timeouts: AtomicU64,
    /// 429s from the token bucket (NOT budget exhaustion).
    pub rate_limited: AtomicU64,
    /// Idle keep-alive connections reaped silently.
    pub reaped_idle: AtomicU64,
    /// Parser rejects (4xx from hostile bytes).
    pub rejects: AtomicU64,
}

/// One live connection, either parked in the readiness map or being
/// serviced by exactly one worker. All buffers are pooled across the
/// connection's keep-alive lifetime.
struct Conn {
    stream: TcpStream,
    /// The poller/timer token (unique for the server's lifetime — fd
    /// reuse after close can never alias a stale event to a new conn).
    token: u64,
    /// Accumulated inbound bytes not yet parsed.
    buf: Vec<u8>,
    /// Recycled request-body allocation (see [`http::try_parse_with`]).
    body_scratch: Vec<u8>,
    /// Recycled response-body build buffer.
    resp_body: String,
    /// Serialized response bytes not yet written to the socket.
    out: Vec<u8>,
    /// How much of `out` has been written.
    out_pos: usize,
    /// Last time bytes arrived or a request was served (idle reaping).
    last_activity: Instant,
    /// Set while an incomplete request sits in `buf` (408 deadline).
    partial_since: Option<Instant>,
    /// Set while a response is stuck behind a slow-reading peer.
    write_since: Option<Instant>,
    /// Close once `out` is fully flushed.
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream, token: u64) -> Self {
        Self {
            stream,
            token,
            buf: Vec::new(),
            body_scratch: Vec::new(),
            resp_body: String::new(),
            out: Vec::new(),
            out_pos: 0,
            last_activity: Instant::now(),
            partial_since: None,
            write_since: None,
            close_after_flush: false,
        }
    }

    /// Unwritten response bytes pending on this connection.
    fn pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// The earliest deadline this connection is on: flush-to-peer, then
    /// partial-request (408), then keep-alive idle.
    fn next_deadline(&self, limits: &Limits) -> Instant {
        if self.pending_out() {
            self.write_since.unwrap_or_else(Instant::now) + limits.write_timeout
        } else if let Some(t) = self.partial_since {
            t + limits.header_timeout
        } else {
            self.last_activity + limits.idle_timeout
        }
    }

    /// The readiness the connection is waiting on.
    fn interest(&self) -> Interest {
        if self.pending_out() {
            Interest::WRITE
        } else {
            Interest::READ
        }
    }
}

#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(s: &T) -> i32 {
    s.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_s: &T) -> i32 {
    unreachable!("Poller::new refuses to start off Linux")
}

/// Shared state of a running server — exposed through
/// [`ServerHandle::state`] so tests can assert on counters directly.
pub struct ServerState {
    /// Per-tenant budgets (public: the CLI prints balances at shutdown).
    pub accountant: TenantAccountant,
    /// The shared cross-request plan cache.
    pub plan_cache: PlanCache,
    /// Robustness counters (sheds, timeouts, rejects).
    pub robust: Robustness,
    /// The caps and deadlines this server enforces.
    pub limits: Limits,
    datasets: HashMap<String, LoadedDataset>,
    batcher: Batcher<Release>,
    rate_limiter: Option<RateLimiter>,
    tenant_config: Option<PathBuf>,
    /// The readiness poller every worker blocks on.
    poller: Poller,
    /// Deadline timers for every parked connection.
    wheel: TimerWheel,
    /// Parked connections by token; taking one out of the map is the
    /// exclusive claim to service it.
    parked: Mutex<HashMap<u64, Conn>>,
    /// Monotonic token source (never reused; starts above the listener).
    next_token: AtomicU64,
    listener: TcpListener,
    domain: Domain,
    scale: u64,
    threads: usize,
    seed: u64,
    slo: bool,
    verbose: bool,
    started: Instant,
    requests: AtomicU64,
    release_seq: AtomicU64,
    /// Live connections (accepted, not yet closed).
    conn_count: AtomicUsize,
    /// Releases currently executing (the shed estimator's input).
    inflight: AtomicUsize,
    /// EWMA of successful release service time, microseconds.
    ewma_us: AtomicU64,
    stopping: AtomicBool,
    mech_counts: Mutex<HashMap<String, u64>>,
    workload_memo: Mutex<HashMap<(u8, usize), Arc<Workload>>>,
    y_true_memo: YTrueMemo,
    /// Profile file `auto` routing resolves through; kept for hot reload.
    profile_path: Option<PathBuf>,
    /// The loaded selection profile (swapped atomically on reload).
    selector: Mutex<Option<Arc<SelectionProfile>>>,
    /// Auto-routing counters (also in `/v1/status`).
    pub selector_stats: SelectorStats,
}

/// Counters for profile-driven `auto` routing.
#[derive(Default)]
pub struct SelectorStats {
    /// Requests that asked for `"mechanism":"auto"`.
    pub auto_requests: AtomicU64,
    /// Auto requests answered from an exactly-matching profile cell.
    pub exact: AtomicU64,
    /// Auto requests answered from a nearest-cell fallback.
    pub near: AtomicU64,
    /// Auto requests that fell through to the built-in default (no
    /// profile loaded, or no cell for this domain).
    pub fallback_default: AtomicU64,
    /// Successful profile (re)loads, including the one at startup.
    pub reloads: AtomicU64,
}

impl ServerState {
    /// Estimated queue wait for a newly-arriving release, in ms: releases
    /// beyond the worker count, times the smoothed service time.
    fn est_wait_ms(&self) -> f64 {
        let inflight = self.inflight.load(Ordering::Relaxed);
        let waiting = (inflight + 1).saturating_sub(self.threads.max(1));
        waiting as f64 * self.ewma_us.load(Ordering::Relaxed) as f64 / 1e3
    }

    /// Fold one successful release's service time into the EWMA.
    fn observe_service_us(&self, us: u64) {
        let old = self.ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 { us } else { old - old / 8 + us / 8 };
        self.ewma_us.store(new, Ordering::Relaxed);
    }

    fn parked_len(&self) -> usize {
        self.parked.lock().expect("parked map poisoned").len()
    }

    /// Live readiness-poller counters (also in `/v1/status`).
    pub fn poller_stats(&self) -> super::poller::PollerStats {
        self.poller.stats()
    }

    /// Read and parse the tenant-config file without applying anything
    /// — the commit half is [`TenantAccountant::reload`].
    fn stage_tenants(&self) -> io::Result<Vec<(String, f64)>> {
        let Some(path) = &self.tenant_config else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no --tenant-config file to reload from",
            ));
        };
        let text = std::fs::read_to_string(path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        parse_tenant_grants(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Read and parse the selection-profile file without applying
    /// anything — the commit half is [`apply_profile`](Self::apply_profile).
    fn stage_profile(&self) -> io::Result<SelectionProfile> {
        let Some(path) = &self.profile_path else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no --profile file to reload from",
            ));
        };
        SelectionProfile::read_file(path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    }

    /// Swap a staged profile in.
    fn apply_profile(&self, profile: SelectionProfile) {
        *self.selector.lock().expect("selector poisoned") = Some(Arc::new(profile));
        self.selector_stats.reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Re-read the tenant-config file and apply the grants (see
    /// [`TenantAccountant::reload`]).
    pub fn reload_tenants(&self) -> io::Result<ReloadOutcome> {
        let grants = self.stage_tenants()?;
        self.accountant.reload(&grants)
    }

    /// Re-read the selection-profile file and swap it in. Errors leave
    /// the previously-loaded profile serving.
    pub fn reload_profile(&self) -> io::Result<()> {
        let profile = self.stage_profile()?;
        self.apply_profile(profile);
        Ok(())
    }

    /// The currently-loaded selection profile, if any.
    fn current_profile(&self) -> Option<Arc<SelectionProfile>> {
        self.selector.lock().expect("selector poisoned").clone()
    }
}

/// Handle to a started server: address, state, and shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    joins: Vec<JoinHandle<()>>,
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live server state (counters, accountant, plan cache).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// True once shutdown has been requested.
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Hot-reload from the configured files (the SIGHUP handler path):
    /// tenant grants if `--tenant-config` was given, and the selection
    /// profile if `--profile` was. Both files are parsed before either
    /// is applied, so an error from one aborts the whole reload without
    /// leaving the other half-committed.
    pub fn reload(&self) -> io::Result<ReloadOutcome> {
        if self.state.tenant_config.is_none() && self.state.profile_path.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "nothing to reload: neither --tenant-config nor --profile configured",
            ));
        }
        let grants = match self.state.tenant_config {
            Some(_) => Some(self.state.stage_tenants()?),
            None => None,
        };
        let profile = match self.state.profile_path {
            Some(_) => Some(self.state.stage_profile()?),
            None => None,
        };
        let outcome = match grants {
            Some(g) => self.state.accountant.reload(&g)?,
            None => ReloadOutcome::default(),
        };
        if let Some(p) = profile {
            self.state.apply_profile(p);
        }
        Ok(outcome)
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests, join
    /// every thread, then flush + fsync the spend journal.
    pub fn shutdown(self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        self.state.stopping.store(true, Ordering::SeqCst);
        self.state.poller.wake();
        for join in self.joins {
            let _ = join.join();
        }
        self.state.accountant.sync()
    }
}

/// Start the server; returns once the listener is bound and the worker
/// pool is running. Shut down via [`ServerHandle::shutdown`] (or a
/// process signal — workers also poll [`shutdown::requested`]).
pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
    if config.tenants.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "serve needs at least one tenant (--tenants name=eps,... or --tenant-config)",
        ));
    }
    if config.datasets.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "serve needs at least one dataset",
        ));
    }
    let mut datasets = HashMap::new();
    for name in &config.datasets {
        let ds = catalog::by_name(name).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown dataset {name} (see `dpbench list-datasets`)"),
            )
        })?;
        let mut rng = rng_for(
            "serve-data",
            &[
                hash_str(name),
                config.scale,
                config.domain.n_cells() as u64,
                config.seed,
            ],
        );
        let x = DataGenerator::new().generate(&ds, config.domain, config.scale, &mut rng);
        let shape = ShapeClass::of_dataset(name);
        datasets.insert(name.clone(), LoadedDataset { x, shape });
    }
    let selector = match &config.profile {
        Some(path) => {
            let profile = SelectionProfile::read_file(path)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
            Some(Arc::new(profile))
        }
        None => None,
    };
    let accountant = TenantAccountant::new(&config.tenants, config.journal.as_deref())?;
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.register(raw_fd(&listener), LISTENER_TOKEN, Interest::READ)?;

    let state = Arc::new(ServerState {
        accountant,
        plan_cache: PlanCache::new(),
        robust: Robustness::default(),
        rate_limiter: config.limits.rate_limit.map(RateLimiter::new),
        limits: config.limits.clone(),
        tenant_config: config.tenant_config.clone(),
        poller,
        wheel: TimerWheel::new(),
        parked: Mutex::new(HashMap::new()),
        next_token: AtomicU64::new(LISTENER_TOKEN + 1),
        listener,
        datasets,
        batcher: Batcher::new(config.batch_window),
        domain: config.domain,
        scale: config.scale,
        threads: config.threads.max(1),
        seed: config.seed,
        slo: config.slo,
        verbose: config.verbose,
        started: Instant::now(),
        requests: AtomicU64::new(0),
        release_seq: AtomicU64::new(0),
        conn_count: AtomicUsize::new(0),
        inflight: AtomicUsize::new(0),
        ewma_us: AtomicU64::new(0),
        stopping: AtomicBool::new(false),
        mech_counts: Mutex::new(HashMap::new()),
        workload_memo: Mutex::new(HashMap::new()),
        y_true_memo: Mutex::new(HashMap::new()),
        profile_path: config.profile.clone(),
        selector: Mutex::new(selector),
        selector_stats: SelectorStats::default(),
    });
    if state.current_profile().is_some() {
        state.selector_stats.reloads.fetch_add(1, Ordering::Relaxed);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut joins = Vec::with_capacity(state.threads);
    for _ in 0..state.threads {
        let stop = Arc::clone(&stop);
        let state = Arc::clone(&state);
        joins.push(std::thread::spawn(move || worker_loop(&state, &stop)));
    }

    Ok(ServerHandle {
        addr,
        stop,
        joins,
        state,
    })
}

/// One event-driven worker: block on the poller (timeout capped at the
/// next timer-wheel deadline), service whatever readiness or expiry it
/// is handed, re-park or close, repeat. There is no accept thread and no
/// rotation cadence — an idle server makes zero syscalls between
/// wakeups.
fn worker_loop(state: &ServerState, stop: &AtomicBool) {
    // Per-worker scratch, reused across every request this worker serves
    // (same discipline as the grid runner's workers).
    let mut ws = Workspace::new();
    let mut events: Vec<Event> = Vec::with_capacity(64);
    let mut due: Vec<u64> = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) || shutdown::requested() {
            state.stopping.store(true, Ordering::SeqCst);
            // Cascade the stop to the other blocked workers, then drain.
            state.poller.wake();
            drain_on_stop(state, &mut ws);
            break;
        }
        let timeout = state
            .wheel
            .next_deadline()
            .map(|at| at.saturating_duration_since(Instant::now()))
            .unwrap_or(STOP_POLL)
            .min(STOP_POLL);
        events.clear();
        if state.poller.wait(&mut events, timeout).is_err() {
            // A broken wait must not become a hot loop.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        let mut handled = 0_usize;
        // One wait can harvest many ready connections. Claim at most one
        // to service inline; re-arm the rest so idle workers pick them
        // up concurrently — servicing a whole harvest serially here
        // would head-of-line block every later connection behind the
        // first slow request (e.g. a batch-window leader's sleep).
        let mut claimed: Option<Conn> = None;
        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                accept_ready(state);
                handled += 1;
            } else if claimed.is_none() {
                // A map miss is a stale event (conn closed or already
                // claimed via its timer) — drop it.
                if let Some(conn) = take_parked(state, ev.token) {
                    claimed = Some(conn);
                    handled += 1;
                }
            } else {
                requeue_ready(state, ev.token);
                handled += 1;
            }
        }
        if let Some(conn) = claimed {
            dispatch(state, conn, &mut ws);
        }
        due.clear();
        state.wheel.pop_due(Instant::now(), &mut due);
        if !due.is_empty() {
            state.poller.note_timer_fires(due.len() as u64);
        }
        for &token in &due {
            if let Some(conn) = take_parked(state, token) {
                // The service slice re-checks the deadline against live
                // state: bytes that raced the expiry simply get served.
                dispatch(state, conn, &mut ws);
                handled += 1;
            }
        }
        if handled == 0 {
            state.poller.note_spurious();
        }
    }
}

/// Remove a connection from the parked map, claiming it exclusively;
/// cancels its pending deadline.
fn take_parked(state: &ServerState, token: u64) -> Option<Conn> {
    let conn = state
        .parked
        .lock()
        .expect("parked map poisoned")
        .remove(&token)?;
    state.wheel.cancel(token);
    Some(conn)
}

/// Hand a ready-but-unclaimed connection back to the poller: the conn
/// stays parked with its deadline armed, and re-arming its one-shot
/// interest (still satisfied) re-fires immediately for whichever worker
/// waits next — instead of queueing behind this worker's inline request.
fn requeue_ready(state: &ServerState, token: u64) {
    let armed = {
        let parked = state.parked.lock().expect("parked map poisoned");
        // A map miss is a stale event — drop it.
        parked
            .get(&token)
            .map(|conn| (raw_fd(&conn.stream), conn.interest()))
    };
    if let Some((fd, interest)) = armed {
        if state.poller.rearm(fd, token, interest).is_err() {
            // Unwatchable connection: nothing will ever wake it — close it.
            if let Some(conn) = take_parked(state, token) {
                close_conn(state, conn);
            }
        }
    }
}

/// Service one claimed connection, then re-park or close it.
fn dispatch(state: &ServerState, mut conn: Conn, ws: &mut Workspace) {
    let stopping = state.stopping.load(Ordering::SeqCst);
    match service_conn(&mut conn, state, stopping, ws) {
        Fate::Keep => park(state, conn),
        Fate::Close => close_conn(state, conn),
    }
}

/// Park a serviced connection: into the map first (so a delivered event
/// always finds it), deadline armed second, readiness re-armed last —
/// this ordering is what makes a wakeup between any two steps harmless.
fn park(state: &ServerState, conn: Conn) {
    let token = conn.token;
    let fd = raw_fd(&conn.stream);
    let interest = conn.interest();
    let deadline = conn.next_deadline(&state.limits);
    state
        .parked
        .lock()
        .expect("parked map poisoned")
        .insert(token, conn);
    state.wheel.arm(token, deadline);
    if state.poller.rearm(fd, token, interest).is_err() {
        // Unwatchable connection: nothing will ever wake it — close it.
        if let Some(conn) = take_parked(state, token) {
            close_conn(state, conn);
        }
    }
}

/// Close a claimed connection and release its resources.
fn close_conn(state: &ServerState, conn: Conn) {
    state.poller.deregister(raw_fd(&conn.stream));
    state.conn_count.fetch_sub(1, Ordering::Relaxed);
    // The stream drops (and the fd closes) here.
}

/// Accept every pending connect, then re-arm the listener. Any worker
/// can handle the listener's readiness event; one-shot delivery means
/// exactly one does.
fn accept_ready(state: &ServerState) {
    loop {
        match state.listener.accept() {
            Ok((stream, _)) => admit_conn(stream, state),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    if !state.stopping.load(Ordering::SeqCst) {
        let _ = state
            .poller
            .rearm(raw_fd(&state.listener), LISTENER_TOKEN, Interest::READ);
    }
}

/// Admit (or shed) one freshly-accepted connection.
fn admit_conn(stream: TcpStream, state: &ServerState) {
    let limits = &state.limits;
    let over_conns = state.conn_count.load(Ordering::Relaxed) >= limits.max_conns;
    let over_queue = state.parked_len() >= limits.max_queue;
    if over_conns || over_queue {
        if over_conns {
            state.robust.shed_conns.fetch_add(1, Ordering::Relaxed);
        } else {
            state.robust.shed_queue.fetch_add(1, Ordering::Relaxed);
        }
        // Best-effort one-shot 503: a short write deadline so a client
        // that refuses to read can't stall the accepting worker.
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let mut s = &stream;
        let _ = http::write_response_ex(
            &mut s,
            503,
            &error_json(
                "overloaded",
                if over_conns {
                    "connection cap reached"
                } else {
                    "admission queue full"
                },
            ),
            true,
            Some(1),
        );
        return; // dropped, never parked
    }
    state.conn_count.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_nonblocking(true);
    let token = state.next_token.fetch_add(1, Ordering::Relaxed);
    let conn = Conn::new(stream, token);
    let fd = raw_fd(&conn.stream);
    let deadline = conn.next_deadline(&state.limits);
    state
        .parked
        .lock()
        .expect("parked map poisoned")
        .insert(token, conn);
    state.wheel.arm(token, deadline);
    if state.poller.register(fd, token, Interest::READ).is_err() {
        if let Some(conn) = take_parked(state, token) {
            close_conn(state, conn);
        }
    }
}

/// Shutdown drain: claim every parked connection, serve whatever
/// complete requests it already buffered, flush (bounded, blocking —
/// the last response must not be torn by shutdown), and close.
fn drain_on_stop(state: &ServerState, ws: &mut Workspace) {
    loop {
        let token = {
            let parked = state.parked.lock().expect("parked map poisoned");
            parked.keys().next().copied()
        };
        let Some(token) = token else { break };
        let Some(mut conn) = take_parked(state, token) else {
            continue; // another draining worker got it first
        };
        if matches!(service_conn(&mut conn, state, true, ws), Fate::Keep) {
            // Response bytes still pending for a live peer.
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn
                .stream
                .set_write_timeout(Some(state.limits.write_timeout));
            let mut s = &conn.stream;
            let _ = s.write_all(&conn.out[conn.out_pos..]);
        }
        close_conn(state, conn);
    }
}

/// What a worker should do with a connection after one service slice.
enum Fate {
    /// Re-park on the poller until readiness or a deadline.
    Keep,
    /// Drop the connection (the caller closes and decrements the count).
    Close,
}

/// One service slice: flush pending output, drain arrived bytes, serve
/// every complete request into the pooled buffers, flush again, enforce
/// deadlines. Never blocks — a slow peer costs exactly one wakeup.
fn service_conn(conn: &mut Conn, state: &ServerState, stopping: bool, ws: &mut Workspace) -> Fate {
    let limits = &state.limits;

    // 0. Finish any response the peer stalled on before reading more.
    match try_flush(conn) {
        Flush::Done => {}
        Flush::Pending => {
            if conn
                .write_since
                .is_some_and(|t| t.elapsed() > limits.write_timeout)
            {
                return Fate::Close; // peer stopped reading: cut it loose
            }
            return Fate::Keep;
        }
        Flush::Error => return Fate::Close,
    }
    if conn.close_after_flush {
        return Fate::Close;
    }

    // 1. Drain whatever bytes have arrived (nonblocking).
    let mut eof = false;
    let mut progressed = false;
    let mut chunk = [0_u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Fate::Close,
        }
    }
    if progressed {
        conn.last_activity = Instant::now();
    }

    // 2. Serve every complete request already buffered (including, on a
    // half-closed connection, requests that arrived before the FIN).
    // Responses accumulate in `out` — pipelined requests flush as one
    // write.
    loop {
        match http::try_parse_with(&mut conn.buf, &mut conn.body_scratch) {
            Ok(Some(mut req)) => {
                conn.partial_since = None;
                conn.last_activity = Instant::now();
                let close = req.wants_close() || stopping;
                conn.resp_body.clear();
                let meta = route(state, &req, ws, stopping, &mut conn.resp_body);
                if state.verbose {
                    eprintln!("[serve] {} {} -> {}", req.method, req.path, meta.status);
                }
                // Hand the body allocation back for the next request.
                conn.body_scratch = std::mem::take(&mut req.body);
                http::write_response_into(
                    &mut conn.out,
                    meta.status,
                    &conn.resp_body,
                    close,
                    meta.retry_after,
                );
                if close {
                    conn.close_after_flush = true;
                    break;
                }
            }
            Ok(None) => break,
            Err(rej) => {
                state.robust.rejects.fetch_add(1, Ordering::Relaxed);
                conn.resp_body.clear();
                error_json_into(rej.code, &rej.detail, &mut conn.resp_body);
                http::write_response_into(&mut conn.out, rej.status, &conn.resp_body, true, None);
                conn.close_after_flush = true;
                break;
            }
        }
    }

    // 3. Push the accumulated responses out.
    match try_flush(conn) {
        Flush::Done => {
            if conn.close_after_flush {
                return Fate::Close;
            }
        }
        Flush::Pending => return Fate::Keep, // parks with WRITE interest
        Flush::Error => return Fate::Close,
    }

    // 4. Deadlines. A partial request is on the 408 clock (slow headers
    // and slow bodies alike); an empty buffer is on the idle clock.
    if eof || stopping {
        return Fate::Close;
    }
    if conn.buf.is_empty() {
        conn.partial_since = None;
        if conn.last_activity.elapsed() > limits.idle_timeout {
            state.robust.reaped_idle.fetch_add(1, Ordering::Relaxed);
            return Fate::Close;
        }
    } else {
        let since = *conn.partial_since.get_or_insert_with(Instant::now);
        if since.elapsed() > limits.header_timeout {
            state.robust.timeouts.fetch_add(1, Ordering::Relaxed);
            conn.resp_body.clear();
            error_json_into(
                "request_timeout",
                "request not completed in time",
                &mut conn.resp_body,
            );
            http::write_response_into(&mut conn.out, 408, &conn.resp_body, true, None);
            conn.close_after_flush = true;
            return match try_flush(conn) {
                Flush::Done | Flush::Error => Fate::Close,
                Flush::Pending => Fate::Keep,
            };
        }
    }
    Fate::Keep
}

/// Result of a nonblocking flush attempt.
enum Flush {
    /// Everything written; `out` is reset.
    Done,
    /// The socket backed up; remaining bytes stay queued.
    Pending,
    /// The peer is gone.
    Error,
}

/// Write as much of `out` as the socket accepts right now.
fn try_flush(conn: &mut Conn) -> Flush {
    while conn.pending_out() {
        match (&conn.stream).write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Flush::Error,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // The write deadline starts when the peer first stalls.
                conn.write_since.get_or_insert_with(Instant::now);
                return Flush::Pending;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Flush::Error,
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    conn.write_since = None;
    Flush::Done
}

/// Status and retry hint of one routed response; the body is built in
/// the connection's pooled buffer.
struct RespMeta {
    status: u16,
    retry_after: Option<u64>,
}

impl RespMeta {
    fn new(status: u16) -> Self {
        Self {
            status,
            retry_after: None,
        }
    }

    fn retry(status: u16, after_s: u64) -> Self {
        Self {
            status,
            retry_after: Some(after_s),
        }
    }
}

/// Replace `out` with a `{"error":code,...}` body and return the status.
fn err_meta(out: &mut String, status: u16, code: &str, detail: &str) -> RespMeta {
    out.clear();
    error_json_into(code, detail, out);
    RespMeta::new(status)
}

/// Dispatch one request to its endpoint; the response body is written
/// into `out` (cleared by the caller).
fn route(
    state: &ServerState,
    req: &Request,
    ws: &mut Workspace,
    stopping: bool,
    out: &mut String,
) -> RespMeta {
    state.requests.fetch_add(1, Ordering::Relaxed);
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/release") => handle_release(state, &req.body, ws, out),
        ("POST", "/v1/admin/reload") => handle_reload(state, out),
        ("GET", "/v1/status") => {
            out.push_str(&status_json(state));
            RespMeta::new(200)
        }
        ("GET", "/v1/healthz") => {
            out.push_str("{\"ok\":true}");
            RespMeta::new(200)
        }
        ("GET", "/v1/readyz") => handle_readyz(state, stopping, out),
        ("GET", path) => {
            if let Some(tenant) = path
                .strip_prefix("/v1/tenants/")
                .and_then(|rest| rest.strip_suffix("/budget"))
            {
                match state.accountant.snapshot(tenant) {
                    Some(snap) => {
                        let _ = write!(
                            out,
                            "{{\"tenant\":\"{tenant}\",\"total\":{},\"spent\":{},\"remaining\":{},\"releases\":{}}}",
                            F64(snap.total),
                            F64(snap.spent),
                            F64(snap.remaining),
                            snap.releases
                        );
                        RespMeta::new(200)
                    }
                    None => err_meta(out, 404, "unknown_tenant", tenant),
                }
            } else {
                err_meta(out, 404, "not_found", path)
            }
        }
        ("POST", path) => err_meta(out, 404, "not_found", path),
        (method, _) => err_meta(out, 405, "method_not_allowed", method),
    }
}

/// `GET /v1/readyz`: degrade *before* collapse — a load balancer pulls
/// this node while it still answers health checks.
fn handle_readyz(state: &ServerState, stopping: bool, out: &mut String) -> RespMeta {
    if stopping || state.stopping.load(Ordering::SeqCst) {
        return err_meta(out, 503, "draining", "shutting down");
    }
    let conns = state.conn_count.load(Ordering::Relaxed);
    if conns >= state.limits.max_conns {
        let meta = err_meta(out, 503, "at_connection_cap", "connection cap reached");
        return RespMeta::retry(meta.status, 1);
    }
    let est_wait_ms = state.est_wait_ms();
    if est_wait_ms > state.limits.max_wait.as_secs_f64() * 1e3 {
        err_meta(
            out,
            503,
            "overloaded",
            "estimated wait exceeds --max-wait-ms",
        );
        return RespMeta::retry(503, retry_after_s(est_wait_ms));
    }
    let _ = write!(
        out,
        "{{\"ready\":true,\"conns\":{conns},\"est_wait_ms\":{}}}",
        F64(est_wait_ms)
    );
    RespMeta::new(200)
}

/// `POST /v1/admin/reload`: parse the tenant-config file and the
/// selection profile (whichever are configured), then apply both —
/// staging before applying so a bad profile can't leave freshly
/// committed tenant grants behind as a partial reload.
fn handle_reload(state: &ServerState, out: &mut String) -> RespMeta {
    if state.tenant_config.is_none() && state.profile_path.is_none() {
        return err_meta(
            out,
            409,
            "no_tenant_config",
            "server was started without --tenant-config or --profile; nothing to reload",
        );
    }
    let grants = if state.tenant_config.is_some() {
        match state.stage_tenants() {
            Ok(grants) => Some(grants),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return err_meta(out, 400, "bad_tenant_config", &e.to_string())
            }
            Err(e) => return err_meta(out, 500, "reload_failed", &e.to_string()),
        }
    } else {
        None
    };
    let profile = if state.profile_path.is_some() {
        match state.stage_profile() {
            Ok(profile) => Some(profile),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return err_meta(out, 400, "bad_profile", &e.to_string())
            }
            Err(e) => return err_meta(out, 500, "reload_failed", &e.to_string()),
        }
    } else {
        None
    };
    let outcome = match grants {
        Some(grants) => match state.accountant.reload(&grants) {
            Ok(outcome) => outcome,
            Err(e) => return err_meta(out, 500, "reload_failed", &e.to_string()),
        },
        None => ReloadOutcome::default(),
    };
    let mut profile_cells = None;
    if let Some(profile) = profile {
        profile_cells = Some(profile.cells.len());
        state.apply_profile(profile);
    }
    let _ = write!(
        out,
        "{{\"reloaded\":true,\"added\":{},\"extended\":{},\"shrunk\":{},\"unchanged\":{},\"tenants\":{}",
        outcome.added,
        outcome.extended,
        outcome.shrunk,
        outcome.unchanged,
        state.accountant.len()
    );
    if let Some(cells) = profile_cells {
        let _ = write!(out, ",\"profile_cells\":{cells}");
    }
    out.push('}');
    RespMeta::new(200)
}

/// Ceiling of `ms` in whole seconds, floored at 1 — `Retry-After` is an
/// integer header and "retry immediately" defeats the point of shedding.
fn retry_after_s(ms: f64) -> u64 {
    (ms / 1e3).ceil().max(1.0) as u64
}

/// `POST /v1/release`.
fn handle_release(
    state: &ServerState,
    body: &[u8],
    ws: &mut Workspace,
    out: &mut String,
) -> RespMeta {
    let t0 = Instant::now();
    let parsed = std::str::from_utf8(body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(http::parse_object);
    let fields = match parsed {
        Ok(f) => f,
        Err(e) => return err_meta(out, 400, "bad_request", &e),
    };
    let str_field = |key: &str| fields.get(key).and_then(Value::as_str);

    let Some(tenant) = str_field("tenant") else {
        return err_meta(out, 400, "bad_request", "missing \"tenant\"");
    };
    let Some(dataset_name) = str_field("dataset") else {
        return err_meta(out, 400, "bad_request", "missing \"dataset\"");
    };
    let Some(eps) = fields.get("eps").and_then(Value::as_f64) else {
        return err_meta(out, 400, "bad_request", "missing numeric \"eps\"");
    };
    if !(eps.is_finite() && eps > 0.0) {
        return err_meta(out, 400, "bad_request", "eps must be positive and finite");
    }
    if let Some(domain) = str_field("domain") {
        match crate::results::parse_domain(domain) {
            Some(d) if d == state.domain => {}
            _ => {
                return err_meta(
                    out,
                    400,
                    "bad_request",
                    &format!(
                        "domain {domain} does not match the served domain {}",
                        state.domain
                    ),
                )
            }
        }
    }
    let Some(data) = state.datasets.get(dataset_name) else {
        return err_meta(out, 404, "unknown_dataset", dataset_name);
    };

    // Overload control — runs BEFORE any ε is charged, so a shed or
    // rate-limited request costs the tenant nothing.
    let est_wait_ms = state.est_wait_ms();
    if est_wait_ms > state.limits.max_wait.as_secs_f64() * 1e3 {
        state.robust.shed_wait.fetch_add(1, Ordering::Relaxed);
        let _ = write!(
            out,
            "{{\"error\":\"overloaded\",\"detail\":\"estimated wait {}ms exceeds limit\",\"est_wait_ms\":{}}}",
            est_wait_ms.round(),
            F64(est_wait_ms)
        );
        return RespMeta::retry(503, retry_after_s(est_wait_ms));
    }
    if let Some(rl) = &state.rate_limiter {
        // Resolve the tenant first: a bucket is never minted for a name
        // without a grant, so a ghost tenant answers 404, never 429.
        if !state.accountant.contains(tenant) {
            return err_meta(out, 404, "unknown_tenant", tenant);
        }
        if let Err(wait_s) = rl.admit(tenant, Instant::now()) {
            state.robust.rate_limited.fetch_add(1, Ordering::Relaxed);
            error_json_into("rate_limited", "per-tenant request rate exceeded", out);
            return RespMeta::retry(429, retry_after_s(wait_s * 1e3));
        }
    }

    // Mechanism: explicit name, or `auto` resolved through the loaded
    // selection profile per request (nearest-cell fallback), falling
    // back to the paper's overall winner — DAWA where supported,
    // IDENTITY otherwise — only when no profile covers this request.
    let requested_mech = str_field("mechanism").unwrap_or("auto");
    let mut selection: Option<String> = None;
    // The selector counter an `auto` request bumps once it is admitted.
    let mut routed_by: Option<&AtomicU64> = None;
    let mech_name = if requested_mech == "auto" {
        let routed = state.current_profile().and_then(|profile| {
            let q = SelectorQuery {
                domain: state.domain,
                shape: Some(data.shape),
                scale: state.scale,
                epsilon: eps,
            };
            let rec = profile.lookup(&q)?;
            // First ranked mechanism the served domain supports: a 1-D
            // profile entry can name a mechanism without a 2-D plan.
            let chosen = rec.cell.ranked.iter().find(|r| {
                mechanism_by_name(&r.mechanism)
                    .map(|m| m.supports(&state.domain))
                    .unwrap_or(false)
            })?;
            routed_by = Some(match rec.confidence {
                Confidence::Exact => &state.selector_stats.exact,
                Confidence::Near => &state.selector_stats.near,
            });
            selection = Some(format!(
                "{{\"source\":\"profile\",\"confidence\":\"{}\",\"regret\":{},\"reason\":\"{}\"}}",
                rec.confidence.as_str(),
                F64(chosen.regret),
                rec.reason()
            ));
            Some(chosen.mechanism.clone())
        });
        routed.unwrap_or_else(|| {
            routed_by = Some(&state.selector_stats.fallback_default);
            let dawa = mechanism_by_name("DAWA").expect("registry always has DAWA");
            let name = if dawa.supports(&state.domain) {
                "DAWA"
            } else {
                "IDENTITY"
            };
            selection = Some(
                "{\"source\":\"default\",\"confidence\":\"none\",\"reason\":\"no profile cell covers this request\"}"
                    .to_string(),
            );
            name.to_string()
        })
    } else {
        requested_mech.to_string()
    };
    let Some(mech) = mechanism_by_name(&mech_name) else {
        return err_meta(out, 400, "unknown_mechanism", &mech_name);
    };
    if !mech.supports(&state.domain) {
        return err_meta(
            out,
            400,
            "bad_request",
            &format!("{mech_name} does not support domain {}", state.domain),
        );
    }

    let workload = match workload_for(state, str_field("workload")) {
        Ok(w) => w,
        Err(e) => return err_meta(out, 400, "bad_request", &e),
    };

    // Admission control: atomic check-and-reserve, durable before any
    // noise is drawn.
    match state.accountant.reserve(tenant, eps) {
        Ok(()) => {}
        Err(AdmissionError::UnknownTenant(t)) => return err_meta(out, 404, "unknown_tenant", &t),
        Err(AdmissionError::Exhausted {
            requested,
            remaining,
        }) => {
            let _ = write!(
                out,
                "{{\"error\":\"budget_exhausted\",\"requested\":{},\"remaining\":{}}}",
                F64(requested),
                F64(remaining)
            );
            return RespMeta::new(429);
        }
        Err(AdmissionError::Journal(e)) => return err_meta(out, 503, "journal_unavailable", &e),
    }
    // Count the release only once it is admitted: a refused request
    // (unknown tenant, exhausted budget, bad workload) is not a release.
    if let Some(counter) = routed_by {
        state
            .selector_stats
            .auto_requests
            .fetch_add(1, Ordering::Relaxed);
        counter.fetch_add(1, Ordering::Relaxed);
    }
    *state
        .mech_counts
        .lock()
        .expect("counts poisoned")
        .entry(mech_name.clone())
        .or_insert(0) += 1;

    // Everything below owes the tenant a refund on failure.
    let refund = || {
        if let Err(e) = state.accountant.refund(tenant, eps) {
            eprintln!("[serve] refund journal write failed for {tenant}: {e}");
        }
    };

    state.inflight.fetch_add(1, Ordering::Relaxed);
    let _inflight = Gauge(&state.inflight);

    let (plan, cache_hit) =
        match state
            .plan_cache
            .plan_for_traced(mech.as_ref(), &state.domain, &workload)
        {
            Ok(pair) => pair,
            Err(e) => {
                refund();
                return err_meta(out, 500, "plan_failed", &e.to_string());
            }
        };

    let (dims, da, db) = match state.domain {
        Domain::D1(n) => (1, n as u64, 0),
        Domain::D2(r, c) => (2, r as u64, c as u64),
    };
    let batch_key = Fingerprint::new()
        .str(&mech_name)
        .word(mech.config_fingerprint())
        .word(dims)
        .word(da)
        .word(db)
        .word(workload.fingerprint())
        .str(dataset_name)
        .f64(eps)
        .finish();
    let executed = state.batcher.run(batch_key, || {
        let seq = state.release_seq.fetch_add(1, Ordering::Relaxed);
        let mut rng = rng_for("serve", &[state.seed, batch_key, seq]);
        execute_eps_with(plan.as_ref(), &data.x, eps, ws, &mut rng).map_err(|e| e.to_string())
    });
    let (release, batched) = match executed {
        Ok(pair) => pair,
        Err(e) => {
            refund();
            return err_meta(out, 500, "mechanism_failed", &e);
        }
    };

    // Optional SLO block (operator opt-in): scaled per-query L1/L2 error
    // of this very release against the true workload answers.
    let slo = state.slo.then(|| {
        let y_true = y_true_for(state, dataset_name, &workload, &data.x);
        let y_hat = workload.evaluate_cells(&release.estimate);
        let scale = state.scale as f64;
        (
            scaled_per_query_error(&y_true, &y_hat, scale, Loss::L1),
            scaled_per_query_error(&y_true, &y_hat, scale, Loss::L2),
        )
    });

    let remaining = state
        .accountant
        .snapshot(tenant)
        .map(|s| s.remaining)
        .unwrap_or(0.0);
    let elapsed = t0.elapsed();
    state.observe_service_us(elapsed.as_micros() as u64);
    let latency_ms = elapsed.as_secs_f64() * 1e3;
    out.reserve(256 + 16 * release.estimate.len());
    let _ = write!(
        out,
        "{{\"tenant\":\"{tenant}\",\"dataset\":\"{dataset_name}\",\"mechanism\":\"{mech_name}\",\"requested_mechanism\":\"{requested_mech}\",\"eps\":{},\"remaining\":{},\"plan_cache_hit\":{cache_hit},\"batched\":{batched},\"latency_ms\":{}",
        F64(eps),
        F64(remaining),
        F64(latency_ms)
    );
    if let Some(sel) = &selection {
        let _ = write!(out, ",\"selection\":{sel}");
    }
    if let Some((l1, l2)) = slo {
        let _ = write!(
            out,
            ",\"slo\":{{\"scaled_l1\":{},\"scaled_l2\":{}}}",
            F64(l1),
            F64(l2)
        );
    }
    out.push_str(",\"release\":");
    release.to_json_into(out);
    out.push('}');
    RespMeta::new(200)
}

/// Decrement-on-drop guard for the inflight gauge (covers every early
/// return between reserve and response).
struct Gauge<'a>(&'a AtomicUsize);

impl Drop for Gauge<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Resolve (and memoize) the workload for a request's `workload` field.
fn workload_for(state: &ServerState, spec: Option<&str>) -> Result<Arc<Workload>, String> {
    let spec = match spec {
        None => {
            if state.domain.dims() == 1 {
                WorkloadSpec::Prefix
            } else {
                WorkloadSpec::RandomRanges(2000)
            }
        }
        Some("prefix") => {
            if state.domain.dims() != 1 {
                return Err("prefix workload is 1-D only".into());
            }
            WorkloadSpec::Prefix
        }
        Some("identity") => WorkloadSpec::Identity,
        Some(s) if s.starts_with("random:") => WorkloadSpec::RandomRanges(
            s["random:".len()..]
                .parse()
                .map_err(|_| format!("bad workload {s:?}"))?,
        ),
        Some(s) => return Err(format!("unknown workload {s:?} (prefix|identity|random:N)")),
    };
    let key = match spec {
        WorkloadSpec::Prefix => (1_u8, 0_usize),
        WorkloadSpec::Identity => (2, 0),
        WorkloadSpec::RandomRanges(n) => (3, n),
    };
    let mut memo = state.workload_memo.lock().expect("workload memo poisoned");
    if let Some(w) = memo.get(&key) {
        return Ok(Arc::clone(w));
    }
    let w = Arc::new(spec.build(state.domain));
    memo.insert(key, Arc::clone(&w));
    Ok(w)
}

/// True workload answers for the SLO block, memoized per (dataset,
/// workload) — evaluating `W x` once per pair, not per request.
fn y_true_for(
    state: &ServerState,
    dataset: &str,
    workload: &Workload,
    x: &DataVector,
) -> Arc<Vec<f64>> {
    let key = (dataset.to_string(), workload.fingerprint());
    let mut memo = state.y_true_memo.lock().expect("y_true memo poisoned");
    if let Some(y) = memo.get(&key) {
        return Arc::clone(y);
    }
    let y = Arc::new(workload.evaluate(x));
    memo.insert(key, Arc::clone(&y));
    y
}

/// `GET /v1/status`.
fn status_json(state: &ServerState) -> String {
    let plan = state.plan_cache.stats();
    let batches = state.batcher.stats();
    let poll = state.poller.stats();
    let mut mechs: Vec<(String, u64)> = {
        let counts = state.mech_counts.lock().expect("counts poisoned");
        counts.iter().map(|(k, v)| (k.clone(), *v)).collect()
    };
    mechs.sort();
    let mech_json = mechs
        .iter()
        .map(|(name, count)| format!("\"{name}\":{count}"))
        .collect::<Vec<_>>()
        .join(",");
    let r = &state.robust;
    let sel = &state.selector_stats;
    let (profile_loaded, profile_cells) = match state.current_profile() {
        Some(p) => (true, p.cells.len()),
        None => (false, 0),
    };
    format!(
        "{{\"uptime_s\":{},\"requests\":{},\"queue_depth\":{},\"tenants\":{},\"mechanisms\":{{{mech_json}}},\"plan_cache\":{{\"hits\":{},\"misses\":{},\"built\":{}}},\"batches\":{{\"led\":{},\"followed\":{}}},\"conns\":{},\"poller\":{{\"backend\":\"epoll\",\"wakeups\":{},\"events\":{},\"spurious\":{},\"timer_fires\":{},\"registered\":{}}},\"robustness\":{{\"shed_conns\":{},\"shed_queue\":{},\"shed_wait\":{},\"timeouts\":{},\"rate_limited\":{},\"reaped_idle\":{},\"rejects\":{}}},\"selector\":{{\"profile_loaded\":{profile_loaded},\"cells\":{profile_cells},\"auto_requests\":{},\"exact\":{},\"near\":{},\"default\":{},\"reloads\":{}}}}}",
        F64(state.started.elapsed().as_secs_f64()),
        state.requests.load(Ordering::Relaxed),
        state.parked_len(),
        state.accountant.len(),
        plan.hits,
        plan.misses,
        state.plan_cache.len(),
        batches.led,
        batches.followed,
        state.conn_count.load(Ordering::Relaxed),
        poll.wakeups,
        poll.events,
        poll.spurious,
        poll.timer_fires,
        poll.registered,
        r.shed_conns.load(Ordering::Relaxed),
        r.shed_queue.load(Ordering::Relaxed),
        r.shed_wait.load(Ordering::Relaxed),
        r.timeouts.load(Ordering::Relaxed),
        r.rate_limited.load(Ordering::Relaxed),
        r.reaped_idle.load(Ordering::Relaxed),
        r.rejects.load(Ordering::Relaxed),
        sel.auto_requests.load(Ordering::Relaxed),
        sel.exact.load(Ordering::Relaxed),
        sel.near.load(Ordering::Relaxed),
        sel.fallback_default.load(Ordering::Relaxed),
        sel.reloads.load(Ordering::Relaxed),
    )
}

/// `{"error": code, "detail": detail}`; `detail` may echo client bytes
/// (a path, a field name), so it goes through [`json::push_str`].
fn error_json(code: &str, detail: &str) -> String {
    let mut out = String::with_capacity(32 + detail.len());
    error_json_into(code, detail, &mut out);
    out
}

/// Append the [`error_json`] body to `out` (the pooled-buffer path).
fn error_json_into(code: &str, detail: &str, out: &mut String) {
    let _ = write!(out, "{{\"error\":\"{code}\",\"detail\":\"");
    json::push_str(out, detail);
    out.push_str("\"}");
}
