//! Per-tenant budget accounting on the existing [`BudgetLedger`].
//!
//! Each tenant owns one ledger with its configured lifetime ε. A release
//! request performs an **atomic check-and-reserve** before
//! `Plan::execute`: under the tenant's lock, the ε is spent on the ledger
//! and appended to the [`SpendJournal`] — so concurrent requests can
//! never jointly overdraw, and the journal's per-tenant record order is
//! exactly the order the in-memory f64 ops ran in. Replaying the journal
//! on restart therefore reproduces every balance **bit-exactly**.
//!
//! A mechanism error refunds the reservation (typed `refund` record, not
//! a negative spend). An exhausted tenant gets [`AdmissionError::Exhausted`]
//! — the server maps it to HTTP 429 with the remaining budget, which is
//! safe to reveal: the budget state depends only on granted requests, not
//! on the private data.
//!
//! Grants can be **hot-reloaded** ([`TenantAccountant::reload`]): new
//! tenants appear, existing totals grow or shrink, and shrinking below
//! the already-spent ε clamps the tenant to exhausted — the *identical*
//! state a journal replay against the new grants would produce, so a
//! reload followed by a crash recovers to the same balances.

use super::journal::{JournalIo, JournalOp, JournalRecord, SpendJournal};
use crate::config::is_valid_identifier;
use dpbench_core::BudgetLedger;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

/// Why a reservation was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// No tenant with this id is configured.
    UnknownTenant(String),
    /// The tenant's remaining ε cannot cover the request — the 429 case.
    Exhausted {
        /// ε the request asked for.
        requested: f64,
        /// ε the tenant still has.
        remaining: f64,
    },
    /// The spend journal could not be written; the reservation was rolled
    /// back (a release must never outrun its durable record).
    Journal(String),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            AdmissionError::Exhausted {
                requested,
                remaining,
            } => write!(
                f,
                "budget exhausted: requested ε={requested}, remaining ε={remaining}"
            ),
            AdmissionError::Journal(e) => write!(f, "journal write failed: {e}"),
        }
    }
}

/// A point-in-time view of one tenant's budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSnapshot {
    /// Lifetime ε granted by configuration.
    pub total: f64,
    /// ε spent (reservations minus refunds).
    pub spent: f64,
    /// ε still available.
    pub remaining: f64,
    /// Successful releases charged so far.
    pub releases: u64,
}

/// What a [`TenantAccountant::reload`] changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// Tenants that did not exist before.
    pub added: usize,
    /// Existing tenants whose grant grew.
    pub extended: usize,
    /// Existing tenants whose grant shrank (possibly clamping to
    /// exhausted when the new total is below the spent ε).
    pub shrunk: usize,
    /// Existing tenants whose grant is unchanged.
    pub unchanged: usize,
}

/// Parse tenant grants from config text: the TOML subset of `name = eps`
/// lines, with `#` comments and an optional `[tenants]` section header.
/// Strict like every other config path — an unrecognized line is an
/// error, not a silently skipped grant. Shared by the CLI at startup and
/// the hot-reload path (SIGHUP / `POST /v1/admin/reload`), so a reload
/// reads the file exactly as a restart would.
pub fn parse_tenant_grants(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut tenants = Vec::new();
    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() || line == "[tenants]" {
            continue;
        }
        let (name, eps) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected name = eps", line_no + 1))?;
        let eps: f64 = eps
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad epsilon {:?}", line_no + 1, eps.trim()))?;
        tenants.push((name.trim().trim_matches('"').to_string(), eps));
    }
    Ok(tenants)
}

struct TenantState {
    ledger: BudgetLedger,
    releases: u64,
}

type TenantMap = HashMap<String, Arc<Mutex<TenantState>>>;

/// The per-tenant budget authority of the release server.
pub struct TenantAccountant {
    tenants: RwLock<TenantMap>,
    journal: Option<Mutex<SpendJournal>>,
}

/// Validate one `(tenant, ε)` grant.
fn check_grant(name: &str, eps: f64) -> io::Result<()> {
    if !is_valid_identifier(name) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("tenant name {name:?} is not a plain identifier"),
        ));
    }
    if !(eps.is_finite() && eps > 0.0) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("tenant {name}: budget must be positive and finite, got {eps}"),
        ));
    }
    Ok(())
}

impl TenantAccountant {
    /// Build the accountant from `(tenant, lifetime ε)` pairs, optionally
    /// backed by a spend journal at `journal_path`. An existing journal
    /// is replayed first (healing a torn tail), so a restarted server
    /// resumes with the exact pre-crash balances.
    pub fn new(budgets: &[(String, f64)], journal_path: Option<&Path>) -> io::Result<Self> {
        match journal_path {
            None => Self::build(budgets, None),
            Some(path) => Self::build(budgets, Some(SpendJournal::open(path)?)),
        }
    }

    /// Like [`Self::new`] but journaling through an arbitrary
    /// [`JournalIo`] — the entry point for the crash-consistency tests'
    /// fault-injecting disk (`tests/support/faulty_io.rs`).
    pub fn new_with_io(budgets: &[(String, f64)], io: Box<dyn JournalIo>) -> io::Result<Self> {
        Self::build(budgets, Some(SpendJournal::open_with(io)?))
    }

    fn build(
        budgets: &[(String, f64)],
        journal: Option<(SpendJournal, Vec<JournalRecord>)>,
    ) -> io::Result<Self> {
        let mut tenants: TenantMap = HashMap::new();
        for (name, eps) in budgets {
            check_grant(name, *eps)?;
            let prior = tenants.insert(
                name.clone(),
                Arc::new(Mutex::new(TenantState {
                    ledger: BudgetLedger::new(*eps),
                    releases: 0,
                })),
            );
            if prior.is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("tenant {name} configured twice"),
                ));
            }
        }
        let journal = match journal {
            None => None,
            Some((journal, records)) => {
                apply_records(&tenants, &records)?;
                Some(Mutex::new(journal))
            }
        };
        Ok(Self {
            tenants: RwLock::new(tenants),
            journal,
        })
    }

    /// Look up one tenant's state handle.
    fn tenant(&self, name: &str) -> Option<Arc<Mutex<TenantState>>> {
        self.tenants
            .read()
            .expect("tenant map poisoned")
            .get(name)
            .cloned()
    }

    /// Atomically check-and-reserve `eps` for `tenant`; on success the ε
    /// is spent on the ledger **and** durable in the journal before this
    /// returns. Call before `Plan::execute`; pair with
    /// [`TenantAccountant::refund`] if the mechanism then fails.
    pub fn reserve(&self, tenant: &str, eps: f64) -> Result<(), AdmissionError> {
        assert!(
            eps.is_finite() && eps > 0.0,
            "requested ε must be positive and finite (validated by the router)"
        );
        let state = self
            .tenant(tenant)
            .ok_or_else(|| AdmissionError::UnknownTenant(tenant.to_string()))?;
        let mut state = state.lock().expect("tenant state poisoned");
        state
            .ledger
            .reserve(eps)
            .map_err(|e| AdmissionError::Exhausted {
                requested: e.requested,
                remaining: e.remaining,
            })?;
        if let Some(journal) = &self.journal {
            let mut journal = journal.lock().expect("journal poisoned");
            if let Err(e) = journal.append(tenant, JournalOp::Spend, eps) {
                // Roll back: a spend that is not durable must not stand.
                state.ledger.refund_as("journal-error", eps);
                return Err(AdmissionError::Journal(e.to_string()));
            }
        }
        state.releases += 1;
        Ok(())
    }

    /// Return a reservation after a mechanism error. The live refund is
    /// clamped to the spent ε — a no-op normally, engaged only when a
    /// hot-reload clamped the tenant to exhausted mid-flight — exactly
    /// mirroring the replay path's clamp, so live and recovered balances
    /// stay bit-identical. A journal write failure here leaves the
    /// persisted balance *more* spent than the live one — the
    /// conservative direction — and is surfaced to the caller for
    /// logging.
    pub fn refund(&self, tenant: &str, eps: f64) -> io::Result<()> {
        let state = self
            .tenant(tenant)
            .unwrap_or_else(|| panic!("refund for unknown tenant {tenant} (reserve admitted it)"));
        let mut state = state.lock().expect("tenant state poisoned");
        let clamped = eps.min(state.ledger.spent());
        if clamped > 0.0 {
            state.ledger.refund_as("refund", clamped);
        }
        state.releases = state.releases.saturating_sub(1);
        if let Some(journal) = &self.journal {
            let mut journal = journal.lock().expect("journal poisoned");
            journal.append(tenant, JournalOp::Refund, eps)?;
        }
        Ok(())
    }

    /// Hot-reload tenant grants without a restart: new tenants are added,
    /// existing totals are adjusted in place (shrinking below the spent ε
    /// clamps to exhausted — identical to what replaying the journal
    /// against the new grants produces), and tenants absent from `grants`
    /// are left untouched (removal requires a fresh journal, as before).
    /// Nothing is journaled — grants are configuration, not spend.
    pub fn reload(&self, grants: &[(String, f64)]) -> io::Result<ReloadOutcome> {
        let mut seen = std::collections::HashSet::new();
        for (name, eps) in grants {
            check_grant(name, *eps)?;
            if !seen.insert(name.as_str()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("tenant {name} configured twice"),
                ));
            }
        }
        let mut outcome = ReloadOutcome::default();
        let mut tenants = self.tenants.write().expect("tenant map poisoned");
        for (name, eps) in grants {
            match tenants.get(name) {
                Some(state) => {
                    let mut state = state.lock().expect("tenant state poisoned");
                    let old = state.ledger.total();
                    if *eps > old {
                        outcome.extended += 1;
                    } else if *eps < old {
                        outcome.shrunk += 1;
                    } else {
                        outcome.unchanged += 1;
                        continue;
                    }
                    state.ledger.adjust_total(*eps);
                }
                None => {
                    tenants.insert(
                        name.clone(),
                        Arc::new(Mutex::new(TenantState {
                            ledger: BudgetLedger::new(*eps),
                            releases: 0,
                        })),
                    );
                    outcome.added += 1;
                }
            }
        }
        Ok(outcome)
    }

    /// Whether `tenant` has a grant.
    pub(crate) fn contains(&self, tenant: &str) -> bool {
        self.tenant(tenant).is_some()
    }

    /// Current budget state of one tenant.
    pub fn snapshot(&self, tenant: &str) -> Option<BudgetSnapshot> {
        let state = self.tenant(tenant)?;
        let state = state.lock().expect("tenant state poisoned");
        Some(BudgetSnapshot {
            total: state.ledger.total(),
            spent: state.ledger.spent(),
            remaining: state.ledger.remaining(),
            releases: state.releases,
        })
    }

    /// Snapshot every tenant, sorted by name (fault-matrix invariant
    /// checks compare full maps).
    pub fn snapshot_all(&self) -> Vec<(String, BudgetSnapshot)> {
        let names: Vec<String> = {
            let tenants = self.tenants.read().expect("tenant map poisoned");
            tenants.keys().cloned().collect()
        };
        let mut out: Vec<(String, BudgetSnapshot)> = names
            .into_iter()
            .filter_map(|n| self.snapshot(&n).map(|s| (n, s)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Number of configured tenants.
    pub fn len(&self) -> usize {
        self.tenants.read().expect("tenant map poisoned").len()
    }

    /// True when no tenant is configured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the journal refuses all appends until restart.
    pub fn journal_wedged(&self) -> bool {
        self.journal
            .as_ref()
            .is_some_and(|j| j.lock().expect("journal poisoned").is_wedged())
    }

    /// Flush and fsync the journal — the graceful-shutdown barrier.
    pub fn sync(&self) -> io::Result<()> {
        if let Some(journal) = &self.journal {
            journal.lock().expect("journal poisoned").sync()?;
        }
        Ok(())
    }
}

/// Apply replayed journal records to freshly-configured tenants —
/// the identical ledger ops the live path ran, in the identical
/// per-tenant order, so balances come back bit-exact.
fn apply_records(tenants: &TenantMap, records: &[JournalRecord]) -> io::Result<()> {
    for rec in records {
        let Some(state) = tenants.get(&rec.tenant) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "journal names tenant {:?} which is not configured \
                     (tenant removal requires a fresh journal)",
                    rec.tenant
                ),
            ));
        };
        let mut state = state.lock().expect("tenant state poisoned");
        match rec.op {
            JournalOp::Spend => {
                state.releases += 1;
                if state.ledger.reserve(rec.eps).is_err() {
                    // The configured total shrank below the recorded
                    // spend: clamp to fully exhausted — the conservative
                    // reading of a journal that outspends the new grant.
                    state.ledger.spend_all_as("replay-clamp");
                }
            }
            JournalOp::Refund => {
                state.releases = state.releases.saturating_sub(1);
                // Under an unchanged configuration the refund can never
                // exceed the spend it undoes; the clamp only engages
                // after a replay-clamp above already distorted balances.
                let eps = rec.eps.min(state.ledger.spent());
                if eps > 0.0 {
                    state.ledger.refund_as("refund", eps);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dpbench-accountant-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("spend.jsonl")
    }

    #[test]
    fn reserve_counts_down_and_refuses_past_zero() {
        let acct =
            TenantAccountant::new(&[("alice".into(), 1.0), ("bob".into(), 0.5)], None).unwrap();
        acct.reserve("alice", 0.6).unwrap();
        let err = acct.reserve("alice", 0.6).unwrap_err();
        match err {
            AdmissionError::Exhausted {
                requested,
                remaining,
            } => {
                assert_eq!(requested, 0.6);
                assert!((remaining - 0.4).abs() < 1e-12);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        // Bob's budget is untouched by Alice's spending.
        acct.reserve("bob", 0.5).unwrap();
        assert!(matches!(
            acct.reserve("carol", 0.1).unwrap_err(),
            AdmissionError::UnknownTenant(_)
        ));
        let snap = acct.snapshot("alice").unwrap();
        assert_eq!(snap.releases, 1);
        assert!((snap.remaining - 0.4).abs() < 1e-12);
    }

    #[test]
    fn refund_restores_budget_and_release_count() {
        let acct = TenantAccountant::new(&[("a".into(), 1.0)], None).unwrap();
        acct.reserve("a", 0.7).unwrap();
        acct.refund("a", 0.7).unwrap();
        let snap = acct.snapshot("a").unwrap();
        assert_eq!(snap.releases, 0);
        assert!(snap.remaining > 0.99);
        acct.reserve("a", 0.9).unwrap();
    }

    #[test]
    fn journal_replay_restores_balances_bit_exactly() {
        let path = tmpfile("replay");
        let _ = std::fs::remove_file(&path);
        let budgets = vec![("alice".to_string(), 1.0), ("bob".to_string(), 2.0)];
        let live = {
            let acct = TenantAccountant::new(&budgets, Some(&path)).unwrap();
            acct.reserve("alice", 0.1).unwrap();
            acct.reserve("bob", 0.3).unwrap();
            acct.reserve("alice", 0.25).unwrap();
            acct.refund("alice", 0.25).unwrap();
            acct.reserve("alice", 1.0 / 3.0).unwrap();
            acct.sync().unwrap();
            (
                acct.snapshot("alice").unwrap(),
                acct.snapshot("bob").unwrap(),
            )
        };
        let acct = TenantAccountant::new(&budgets, Some(&path)).unwrap();
        let alice = acct.snapshot("alice").unwrap();
        let bob = acct.snapshot("bob").unwrap();
        assert_eq!(alice.spent.to_bits(), live.0.spent.to_bits());
        assert_eq!(bob.spent.to_bits(), live.1.spent.to_bits());
        assert_eq!(alice.releases, live.0.releases);
        // And the recovered accountant keeps enforcing from that state.
        assert!(matches!(
            acct.reserve("alice", 0.9),
            Err(AdmissionError::Exhausted { .. })
        ));
    }

    #[test]
    fn journal_for_unconfigured_tenant_is_rejected() {
        let path = tmpfile("unknown");
        let _ = std::fs::remove_file(&path);
        {
            let acct = TenantAccountant::new(&[("gone".into(), 1.0)], Some(&path)).unwrap();
            acct.reserve("gone", 0.5).unwrap();
            acct.sync().unwrap();
        }
        let err = TenantAccountant::new(&[("other".into(), 1.0)], Some(&path))
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("gone"), "{err}");
    }

    #[test]
    fn shrunken_grant_clamps_to_exhausted_on_replay() {
        let path = tmpfile("shrunk");
        let _ = std::fs::remove_file(&path);
        {
            let acct = TenantAccountant::new(&[("a".into(), 1.0)], Some(&path)).unwrap();
            acct.reserve("a", 0.8).unwrap();
            acct.sync().unwrap();
        }
        // Operator lowers the grant below the recorded spend.
        let acct = TenantAccountant::new(&[("a".into(), 0.5)], Some(&path)).unwrap();
        let snap = acct.snapshot("a").unwrap();
        assert_eq!(snap.remaining, 0.0, "over-spent journal clamps to zero");
        assert!(matches!(
            acct.reserve("a", 0.01),
            Err(AdmissionError::Exhausted { .. })
        ));
    }

    #[test]
    fn reload_adds_extends_and_clamps_like_replay() {
        let path = tmpfile("reload");
        let _ = std::fs::remove_file(&path);
        let acct = TenantAccountant::new(&[("a".into(), 1.0)], Some(&path)).unwrap();
        acct.reserve("a", 0.8).unwrap();
        // Shrink a below spent, add b.
        let outcome = acct
            .reload(&[("a".into(), 0.5), ("b".into(), 2.0)])
            .unwrap();
        assert_eq!(
            outcome,
            ReloadOutcome {
                added: 1,
                shrunk: 1,
                ..Default::default()
            }
        );
        let a = acct.snapshot("a").unwrap();
        assert_eq!(a.remaining, 0.0, "shrink below spent clamps to exhausted");
        assert_eq!(a.spent.to_bits(), 0.5_f64.to_bits(), "spent == new total");
        acct.reserve("b", 1.5).unwrap();
        acct.sync().unwrap();
        // The live clamp must equal the replay clamp bit-for-bit: restart
        // against the *new* grants and compare.
        let live: Vec<_> = acct.snapshot_all();
        let reopened =
            TenantAccountant::new(&[("a".into(), 0.5), ("b".into(), 2.0)], Some(&path)).unwrap();
        for (name, snap) in &live {
            let re = reopened.snapshot(name).unwrap();
            assert_eq!(re.spent.to_bits(), snap.spent.to_bits(), "tenant {name}");
            assert_eq!(re.total.to_bits(), snap.total.to_bits(), "tenant {name}");
        }
    }

    #[test]
    fn refund_after_live_clamp_matches_replay() {
        let path = tmpfile("clamp-refund");
        let _ = std::fs::remove_file(&path);
        let acct = TenantAccountant::new(&[("a".into(), 1.0)], Some(&path)).unwrap();
        acct.reserve("a", 0.8).unwrap();
        acct.reload(&[("a".into(), 0.5)]).unwrap();
        // The in-flight release now fails and refunds its 0.8 — more than
        // the clamped spent of 0.5. The live clamp keeps the ledger sane.
        acct.refund("a", 0.8).unwrap();
        acct.sync().unwrap();
        let live = acct.snapshot("a").unwrap();
        assert_eq!(live.spent, 0.0, "full refund of the clamped spend");
        let reopened = TenantAccountant::new(&[("a".into(), 0.5)], Some(&path)).unwrap();
        let re = reopened.snapshot("a").unwrap();
        assert_eq!(re.spent.to_bits(), live.spent.to_bits());
        assert_eq!(re.remaining.to_bits(), live.remaining.to_bits());
    }
}
