//! `dpbench serve` — an online DP release server with per-tenant budget
//! accounting.
//!
//! The paper evaluates mechanisms in batch, but its framing — many users
//! each spending a small privacy budget on range-query workloads — is an
//! online service. This module is that service, built entirely on the
//! batch machinery the harness already trusts:
//!
//! - [`http`] — a hand-rolled HTTP/1.1 layer over `std::net::TcpListener`
//!   (the workspace is offline-vendored; no tokio/hyper): request
//!   parsing, keep-alive, and the flat-object rule for JSON bodies.
//! - [`accountant`] — [`TenantAccountant`], per-tenant ε budgets on the
//!   existing `BudgetLedger` with atomic check-and-reserve before
//!   `Plan::execute`, refund on mechanism error, and 429-style admission
//!   control once a tenant's ε is exhausted.
//! - [`journal`] — a persistent JSONL spend journal with the sink
//!   module's strict-reader discipline (mid-file corruption is a hard
//!   error; only a torn final line is healed), so a restarted server
//!   recovers **bit-exact** balances by replaying the same float ops in
//!   the same order. Its storage sits behind the [`journal::JournalIo`]
//!   seam, which the test suite's deterministic fault injector
//!   (`tests/support/faulty_io.rs`: short writes, fsync errors, torn
//!   tails, ENOSPC) uses to make crash consistency a seeded test matrix.
//! - [`batcher`] — groups same-strategy, same-ε requests arriving within
//!   a short window into one `Plan::execute`; every joiner still reserves
//!   its own ε (sharing one released value with more recipients is
//!   post-processing and costs nothing extra against the data).
//! - [`poller`] — the readiness layer: a raw `extern "C"` epoll binding
//!   (one-shot events, any worker can wait), a dependency-free timer
//!   wheel for connection deadlines, and a self-pipe wakeup. The server
//!   is Linux-only; elsewhere `Poller::new` returns `Unsupported`.
//! - [`server`] — the event-driven worker pool, router, and endpoints:
//!   `POST /v1/release`, `GET /v1/tenants/:id/budget`, `GET /v1/status`,
//!   `GET /v1/healthz`, `GET /v1/readyz`, `POST /v1/admin/reload`.
//!   Connections park on the poller between requests, so a slow or idle
//!   peer costs a wakeup per byte — never a pinned worker or a scan
//!   cadence.
//! - [`limits`] — the hostile-world knobs: connection caps, header/idle/
//!   write deadlines, admission-queue bounds, and per-tenant token-bucket
//!   rate limits. Violations answer with clean 408/413/429/431/503 (see
//!   the README's "Failure modes & error contract" table).
//! - [`shutdown`] — process-wide SIGINT/SIGTERM flag (no deps: a plain
//!   `extern "C"` binding to `signal(2)`), polled by the accept loop and
//!   by `dpbench run`'s cancel hook so both drain and flush before exit;
//!   plus the SIGHUP → tenant-reload flag for `dpbench serve`.
//!
//! The `PlanCache` is shared across requests (it was already concurrent
//! and keyed by content), so a repeated release request skips strategy
//! construction entirely — the response carries a per-request
//! `plan_cache_hit` bit.

pub mod accountant;
pub mod batcher;
pub mod http;
pub mod journal;
pub mod limits;
pub mod poller;
pub mod server;
pub mod shutdown;

pub use accountant::{
    parse_tenant_grants, AdmissionError, BudgetSnapshot, ReloadOutcome, TenantAccountant,
};
pub use batcher::Batcher;
pub use journal::{FileIo, JournalIo, JournalOp, JournalRecord, SpendJournal};
pub use limits::{Limits, RateLimit, RateLimiter};
pub use poller::{Poller, TimerWheel};
pub use server::{start, ServeConfig, ServerHandle};
