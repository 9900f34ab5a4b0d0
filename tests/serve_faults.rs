//! Crash-consistency torture for the spend journal and tenant
//! accountant, driven through the deterministic `FaultyIo` layer.
//!
//! The contract under test (the ISSUE 7 acceptance bar): every injected
//! crash or I/O fault either **replays to bit-exact tenant balances** or
//! **refuses loudly** — never a silent ε overspend. Two invariants are
//! asserted throughout:
//!
//! 1. `journal-sum == ledger-spent`: replaying the surviving records as
//!    a sequential f64 fold reproduces the recovered ledger's spent
//!    value to the bit.
//! 2. Conservatism: the recovered spend is never *less* than the ε the
//!    live server acknowledged spending (a lost refund record costs the
//!    tenant budget; it never mints free budget).

#[path = "support/faulty_io.rs"]
mod faulty_io;

use dpbench::harness::serve::{
    AdmissionError, JournalOp, JournalRecord, SpendJournal, TenantAccountant,
};
use dpbench_core::rng::rng_for;
use faulty_io::{AppendFault, FaultyIo};
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

type Disk = Arc<Mutex<Vec<u8>>>;

/// Simulate a crash: clone the disk bytes, optionally tearing the tail
/// at byte `cut`, and hand back a fresh "device" for the reopen.
fn crash(disk: &Disk, cut: Option<usize>) -> Disk {
    let mut bytes = disk.lock().unwrap().clone();
    if let Some(k) = cut {
        bytes.truncate(k);
    }
    Arc::new(Mutex::new(bytes))
}

/// Reopen an accountant from a (possibly torn) disk image.
fn reopen(budgets: &[(String, f64)], disk: Disk) -> std::io::Result<TenantAccountant> {
    TenantAccountant::new_with_io(budgets, Box::new(FaultyIo::over(disk)))
}

/// The records a reopen would replay from a disk image.
fn surviving_records(disk: &Disk) -> Vec<JournalRecord> {
    let (_, records) = SpendJournal::open_with(Box::new(FaultyIo::over(crash(disk, None))))
        .expect("scan surviving records");
    records
}

/// Invariant 1: fold the surviving records per tenant in order — the
/// identical f64 op sequence the replay performs — and compare against
/// the recovered ledgers bit-for-bit.
fn assert_journal_sum_matches(acct: &TenantAccountant, records: &[JournalRecord]) {
    let mut spent: HashMap<&str, f64> = HashMap::new();
    for rec in records {
        let acc = spent.entry(rec.tenant.as_str()).or_insert(0.0);
        match rec.op {
            JournalOp::Spend => *acc += rec.eps,
            JournalOp::Refund => *acc -= rec.eps.min(*acc),
        }
    }
    for (name, snap) in acct.snapshot_all() {
        let expected = spent.get(name.as_str()).copied().unwrap_or(0.0);
        assert_eq!(
            snap.spent.to_bits(),
            expected.to_bits(),
            "tenant {name}: ledger spent {} != journal sum {expected}",
            snap.spent
        );
    }
}

fn budget(name: &str, eps: f64) -> (String, f64) {
    (name.to_string(), eps)
}

/// Case 1 (sweep): a crash tears the final journal line at *every* byte
/// offset; each tear must replay to exactly the pre-final-record
/// balances — the torn op is gone, everything durable survives.
#[test]
fn torn_tail_at_every_byte_offset_replays_to_durable_prefix() {
    let budgets = vec![budget("a", 10.0), budget("b", 10.0)];
    let io = FaultyIo::new();
    let disk = io.disk_handle();
    let acct = TenantAccountant::new_with_io(&budgets, Box::new(io)).unwrap();
    acct.reserve("a", 0.5).unwrap();
    acct.reserve("b", 0.25).unwrap();
    let spent_before_last = acct.snapshot("a").unwrap().spent;
    let len_before_last = disk.lock().unwrap().len();
    acct.reserve("a", 1.0 / 3.0).unwrap();
    let full_len = disk.lock().unwrap().len();
    let full_spent = acct.snapshot("a").unwrap().spent;

    for k in len_before_last..=full_len {
        let recovered = reopen(&budgets, crash(&disk, Some(k))).unwrap();
        let snap = recovered.snapshot("a").unwrap();
        if k + 1 >= full_len {
            // k == full_len: untouched. k == full_len − 1: only the
            // newline is lost — a complete, valid unterminated record,
            // which the heal policy keeps and re-terminates.
            assert_eq!(snap.spent.to_bits(), full_spent.to_bits(), "cut at {k}");
        } else {
            assert_eq!(
                snap.spent.to_bits(),
                spent_before_last.to_bits(),
                "cut at {k}: torn record must vanish cleanly"
            );
        }
        assert_eq!(
            recovered.snapshot("b").unwrap().spent.to_bits(),
            0.25_f64.to_bits(),
            "cut at {k}: tenant b's durable record survives"
        );
        assert_journal_sum_matches(&recovered, &surviving_records(&crash(&disk, Some(k))));
    }
}

/// Case 2: a crash exactly at a line boundary (newline included) loses
/// nothing at all.
#[test]
fn crash_at_exact_line_boundary_loses_nothing() {
    let budgets = vec![budget("a", 5.0)];
    let io = FaultyIo::new();
    let disk = io.disk_handle();
    let acct = TenantAccountant::new_with_io(&budgets, Box::new(io)).unwrap();
    acct.reserve("a", 0.7).unwrap();
    let k = disk.lock().unwrap().len();
    acct.reserve("a", 0.2).unwrap();
    let recovered = reopen(&budgets, crash(&disk, Some(k))).unwrap();
    assert_eq!(
        recovered.snapshot("a").unwrap().spent.to_bits(),
        0.7_f64.to_bits()
    );
}

/// Case 3: a failed fsync at shutdown is surfaced loudly, and the
/// already-appended records still replay in full (append means the bytes
/// reached the OS; the fsync only hardens against power loss).
#[test]
fn failed_shutdown_fsync_is_loud_and_records_survive() {
    let budgets = vec![budget("a", 5.0)];
    // Sync 0 happens at open (header); fail the *next* one.
    let io = FaultyIo::new().fail_sync(1);
    let disk = io.disk_handle();
    let acct = TenantAccountant::new_with_io(&budgets, Box::new(io)).unwrap();
    acct.reserve("a", 0.5).unwrap();
    acct.reserve("a", 0.25).unwrap();
    let err = acct.sync().unwrap_err();
    assert!(err.to_string().contains("fsync"), "{err}");
    let recovered = reopen(&budgets, crash(&disk, None)).unwrap();
    assert_eq!(
        recovered.snapshot("a").unwrap().spent.to_bits(),
        0.75_f64.to_bits()
    );
}

/// Case 4: a short write on an append refuses that reservation (rolled
/// back, no ε charged), self-repairs via truncate, and the journal stays
/// fully usable for the next request.
#[test]
fn short_write_refuses_rolls_back_and_recovers() {
    let budgets = vec![budget("a", 5.0)];
    // Append 0 = header; append 1 = first spend, torn after 9 bytes.
    let io = FaultyIo::new().fail_append(1, AppendFault::Short { keep: 9 });
    let disk = io.disk_handle();
    let acct = TenantAccountant::new_with_io(&budgets, Box::new(io)).unwrap();
    match acct.reserve("a", 0.5) {
        Err(AdmissionError::Journal(e)) => assert!(e.contains("short write"), "{e}"),
        other => panic!("expected Journal error, got {other:?}"),
    }
    assert_eq!(
        acct.snapshot("a").unwrap().spent.to_bits(),
        0.0_f64.to_bits(),
        "failed reservation must roll back"
    );
    // The journal healed itself: the next reservation lands cleanly.
    acct.reserve("a", 0.25).unwrap();
    let recovered = reopen(&budgets, crash(&disk, None)).unwrap();
    assert_eq!(
        recovered.snapshot("a").unwrap().spent.to_bits(),
        0.25_f64.to_bits()
    );
    assert_journal_sum_matches(&recovered, &surviving_records(&disk));
}

/// Case 5: a short write whose truncate-repair ALSO fails wedges the
/// journal — every later reservation refuses loudly (no release without
/// a durable record) — and a restart heals the tear and serves again.
#[test]
fn unrepairable_short_write_wedges_until_restart() {
    let budgets = vec![budget("a", 5.0)];
    let io = FaultyIo::new()
        .fail_append(1, AppendFault::Short { keep: 4 })
        .fail_truncate();
    let disk = io.disk_handle();
    let acct = TenantAccountant::new_with_io(&budgets, Box::new(io)).unwrap();
    match acct.reserve("a", 0.5) {
        Err(AdmissionError::Journal(e)) => assert!(e.contains("wedged"), "{e}"),
        other => panic!("expected Journal error, got {other:?}"),
    }
    assert!(acct.journal_wedged());
    // Wedged: even a tiny reservation refuses; nothing is charged.
    match acct.reserve("a", 0.01) {
        Err(AdmissionError::Journal(e)) => assert!(e.contains("wedged"), "{e}"),
        other => panic!("expected Journal error, got {other:?}"),
    }
    assert_eq!(acct.snapshot("a").unwrap().spent, 0.0);
    // Restart: the 4 torn bytes are the final line; reopen truncates
    // them and the tenant is fully unspent.
    let recovered = reopen(&budgets, crash(&disk, None)).unwrap();
    assert!(!recovered.journal_wedged());
    assert_eq!(recovered.snapshot("a").unwrap().spent, 0.0);
    recovered.reserve("a", 0.5).unwrap();
}

/// Case 6: ENOSPC refuses the reservation with nothing written and
/// nothing charged; once space "returns", service resumes.
#[test]
fn enospc_refuses_cleanly_and_resumes() {
    let budgets = vec![budget("a", 5.0)];
    let io = FaultyIo::new().fail_append(1, AppendFault::Enospc);
    let disk = io.disk_handle();
    let acct = TenantAccountant::new_with_io(&budgets, Box::new(io)).unwrap();
    let before = disk.lock().unwrap().clone();
    match acct.reserve("a", 0.5) {
        Err(AdmissionError::Journal(e)) => assert!(e.contains("space"), "{e}"),
        other => panic!("expected Journal error, got {other:?}"),
    }
    assert_eq!(*disk.lock().unwrap(), before, "ENOSPC must write nothing");
    assert_eq!(acct.snapshot("a").unwrap().spent, 0.0);
    acct.reserve("a", 0.25).unwrap();
    let recovered = reopen(&budgets, crash(&disk, None)).unwrap();
    assert_eq!(
        recovered.snapshot("a").unwrap().spent.to_bits(),
        0.25_f64.to_bits()
    );
}

/// Case 7: crash *between* reserve and append (nothing reached the
/// disk): the op was refused live, and after restart the tenant is
/// exactly as unspent as the refusal promised.
#[test]
fn crash_between_reserve_and_append_charges_nothing() {
    let budgets = vec![budget("a", 5.0)];
    let io = FaultyIo::new().fail_append(2, AppendFault::Short { keep: 0 });
    let disk = io.disk_handle();
    let acct = TenantAccountant::new_with_io(&budgets, Box::new(io)).unwrap();
    acct.reserve("a", 0.5).unwrap();
    assert!(matches!(
        acct.reserve("a", 0.25),
        Err(AdmissionError::Journal(_))
    ));
    // Crash now. Only the first (durable) spend exists anywhere.
    let recovered = reopen(&budgets, crash(&disk, None)).unwrap();
    assert_eq!(
        recovered.snapshot("a").unwrap().spent.to_bits(),
        0.5_f64.to_bits()
    );
}

/// Case 8: crash after a successful append but before the response went
/// out: the spend replays — the tenant paid for a release it never saw,
/// which is the conservative direction (never the reverse).
#[test]
fn crash_after_append_before_response_replays_the_spend() {
    let budgets = vec![budget("a", 5.0)];
    let io = FaultyIo::new();
    let disk = io.disk_handle();
    let acct = TenantAccountant::new_with_io(&budgets, Box::new(io)).unwrap();
    acct.reserve("a", 0.5).unwrap(); // journaled; "response" never sent
    let recovered = reopen(&budgets, crash(&disk, None)).unwrap();
    assert_eq!(
        recovered.snapshot("a").unwrap().spent.to_bits(),
        0.5_f64.to_bits(),
        "an unacknowledged spend still counts — conservative"
    );
}

/// Case 9: a refund whose journal record is torn by a crash: the
/// recovered balance is MORE spent than the live one was — budget lost
/// to the tenant, never ε leaked past its grant.
#[test]
fn torn_refund_record_is_conservative() {
    let budgets = vec![budget("a", 5.0)];
    let io = FaultyIo::new();
    let disk = io.disk_handle();
    let acct = TenantAccountant::new_with_io(&budgets, Box::new(io)).unwrap();
    acct.reserve("a", 0.5).unwrap();
    let len_before_refund = disk.lock().unwrap().len();
    acct.refund("a", 0.5).unwrap();
    let live_spent = acct.snapshot("a").unwrap().spent; // 0.0
                                                        // Crash tears the refund line in half.
    let torn_at = len_before_refund + 10;
    let recovered = reopen(&budgets, crash(&disk, Some(torn_at))).unwrap();
    let snap = recovered.snapshot("a").unwrap();
    assert_eq!(snap.spent.to_bits(), 0.5_f64.to_bits());
    assert!(
        snap.spent >= live_spent,
        "a lost refund must cost the tenant, not the privacy budget"
    );
}

/// Case 10: mid-file garbage (bit rot, concurrent writer, truncate-then-
/// reuse) is a hard, loud error — the server must refuse to start rather
/// than guess at balances.
#[test]
fn mid_file_corruption_refuses_loudly() {
    let budgets = vec![budget("a", 5.0)];
    let io = FaultyIo::new();
    let disk = io.disk_handle();
    let acct = TenantAccountant::new_with_io(&budgets, Box::new(io)).unwrap();
    acct.reserve("a", 0.5).unwrap();
    acct.reserve("a", 0.25).unwrap();
    {
        let mut bytes = disk.lock().unwrap();
        let text = String::from_utf8(bytes.clone()).unwrap();
        let corrupted = text.replacen("\"eps\":0.5", "\"eps\":@@@", 1);
        *bytes = corrupted.into_bytes();
    }
    match reopen(&budgets, crash(&disk, None)) {
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData),
        Ok(_) => panic!("mid-file corruption must refuse to open"),
    }
}

/// Case 11: a journal error mid-traffic never poisons *other* tenants:
/// the failed tenant's op rolls back while concurrent bookkeeping for
/// everyone else stays exact.
#[test]
fn fault_on_one_tenants_append_leaves_others_exact() {
    let budgets = vec![budget("a", 5.0), budget("b", 5.0)];
    let io = FaultyIo::new().fail_append(2, AppendFault::Enospc);
    let disk = io.disk_handle();
    let acct = TenantAccountant::new_with_io(&budgets, Box::new(io)).unwrap();
    acct.reserve("a", 0.5).unwrap(); // append 1: ok
    assert!(acct.reserve("b", 0.25).is_err()); // append 2: ENOSPC
    acct.reserve("b", 0.125).unwrap(); // append 3: ok
    let recovered = reopen(&budgets, crash(&disk, None)).unwrap();
    assert_eq!(
        recovered.snapshot("a").unwrap().spent.to_bits(),
        0.5_f64.to_bits()
    );
    assert_eq!(
        recovered.snapshot("b").unwrap().spent.to_bits(),
        0.125_f64.to_bits()
    );
    assert_journal_sum_matches(&recovered, &surviving_records(&disk));
}

/// Case 12 (seeded sweep): random op sequences with a randomly-placed
/// fault, crashed at a random tear point. Every outcome must satisfy
/// both invariants: journal-sum == ledger-spent, and recovered spend ≥
/// the ε acknowledged live (minus refunds the journal kept) — i.e. no
/// sequence of faults ever mints budget back.
#[test]
fn seeded_random_fault_sweep_never_overspends() {
    let budgets = vec![budget("a", 1e6), budget("b", 1e6)];
    for seed in 0..24_u64 {
        let mut rng = rng_for("serve-fault-sweep", &[seed]);
        let n_ops = rng.gen_range(4..20);
        let fault_at = rng.gen_range(1..=n_ops as u64);
        let fault = if rng.gen_bool(0.5) {
            AppendFault::Enospc
        } else {
            AppendFault::Short {
                keep: rng.gen_range(0..30),
            }
        };
        let io = FaultyIo::new().fail_append(fault_at, fault);
        let disk = io.disk_handle();
        let acct = TenantAccountant::new_with_io(&budgets, Box::new(io)).unwrap();

        // Acknowledged net spend per tenant: ops the live server
        // reported as successful (reserve Ok minus refund Ok). Track the
        // durable length before the final successful record so a "real"
        // crash (which can only tear the in-flight tail) is simulable.
        let mut acked: HashMap<&str, f64> = HashMap::new();
        let mut prev_len = disk.lock().unwrap().len();
        let mut cur_len = prev_len;
        let advance = |disk: &Disk, prev: &mut usize, cur: &mut usize| {
            *prev = *cur;
            *cur = disk.lock().unwrap().len();
        };
        for _ in 0..n_ops {
            let tenant = if rng.gen_bool(0.5) { "a" } else { "b" };
            let eps = rng.gen_range(0.001..0.9);
            if acct.reserve(tenant, eps).is_ok() {
                *acked.entry(tenant).or_insert(0.0) += eps;
                advance(&disk, &mut prev_len, &mut cur_len);
                if rng.gen_bool(0.25) && acct.refund(tenant, eps).is_ok() {
                    *acked.entry(tenant).or_insert(0.0) -= eps;
                    advance(&disk, &mut prev_len, &mut cur_len);
                }
            }
        }
        let len = disk.lock().unwrap().len();

        // Crash A: arbitrary tail loss (lost chunk past the last sync).
        // The recovered state must be a consistent replay of whatever
        // records survive — journal-sum == ledger-spent, bit for bit.
        let cut = rng.gen_range(22..=len); // the 22-byte header survives
        let snap_disk = crash(&disk, Some(cut));
        let recovered = match reopen(&budgets, snap_disk.clone()) {
            Ok(a) => a,
            Err(e) => panic!("seed {seed}: tear at {cut}/{len} must heal, got {e}"),
        };
        assert_journal_sum_matches(&recovered, &surviving_records(&snap_disk));

        // Crash B: a realistic crash mid-final-append — at most the last
        // record is torn. The recovered spend sits within one op of the
        // acknowledged balance, and only in the conservative direction:
        // a torn spend (< 0.9 ε) lowers it, a torn refund raises it.
        let cut = rng.gen_range(prev_len..=len);
        let snap_disk = crash(&disk, Some(cut));
        let recovered = match reopen(&budgets, snap_disk.clone()) {
            Ok(a) => a,
            Err(e) => panic!("seed {seed}: tail tear at {cut}/{len} must heal, got {e}"),
        };
        assert_journal_sum_matches(&recovered, &surviving_records(&snap_disk));
        for (name, snap) in recovered.snapshot_all() {
            let live = acked.get(name.as_str()).copied().unwrap_or(0.0);
            assert!(
                snap.spent >= live - 0.9 - 1e-12,
                "seed {seed}: tenant {name} recovered {} far below acknowledged {live}",
                snap.spent
            );
        }
    }
}
