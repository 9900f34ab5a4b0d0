//! Conformance of the shared JSON codec (`dpbench::core::json`) and the
//! guarantee it backs: every line or body a writer in this workspace
//! emits parses under the strict reader, and the getters recover the
//! values that were written.

use dpbench::core::json::{self, Value, MAX_DEPTH};
use dpbench::harness::fleet::{run_fleet, shard_ledger_path, FleetOptions};
use dpbench::harness::serve::{self, http, JournalOp, ServeConfig, SpendJournal};
use dpbench::harness::sink::{self, AggregatingSink, JsonlSink, ResultSink};
use dpbench::harness::{LaunchSpec, SelectionProfile, ShardLauncher};
use dpbench::prelude::*;
use std::borrow::Cow;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpbench-json-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn err_at(text: &str) -> usize {
    json::parse(text)
        .expect_err(&format!("{text:?} must be refused"))
        .offset
}

fn str_at<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string {key:?} in {v:?}"))
}

fn u64_at(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no integer {key:?} in {v:?}"))
}

fn f64_at(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no number {key:?} in {v:?}"))
}

// ---------------------------------------------------------------------------
// Reader conformance
// ---------------------------------------------------------------------------

#[test]
fn escapes_decode_and_plain_strings_borrow() {
    let v = json::parse(r#"{"k":"a\"b\\c\/d\b\f\n\r\t\u0041Aé"}"#).unwrap();
    assert_eq!(str_at(&v, "k"), "a\"b\\c/d\u{8}\u{c}\n\r\tAAé");
    // No escapes: the value borrows the input instead of allocating.
    match json::parse(r#""plain é""#).unwrap() {
        Value::Str(Cow::Borrowed(s)) => assert_eq!(s, "plain é"),
        other => panic!("expected a borrowed string, got {other:?}"),
    }
    for bad in [
        r#""\x""#,
        r#""\u12""#,
        r#""\u12g4""#,
        r#""\u+123""#,
        "\"a\u{1}b\"",
        r#""open"#,
    ] {
        assert!(json::parse(bad).is_err(), "{bad:?}");
    }
}

#[test]
fn surrogate_pairs_decode_and_lone_surrogates_are_refused() {
    let v = json::parse(r#""\ud83d\ude00 😀""#).unwrap();
    assert_eq!(v.as_str(), Some("😀 😀"));
    for bad in [
        r#""\ud83d""#,       // high surrogate at the end
        r#""\ud83dx""#,      // high surrogate, then a plain character
        r#""\ud83d\u0041""#, // high surrogate, then a non-surrogate escape
        r#""\ud83d\ud83d""#, // two high surrogates
        r#""\ude00""#,       // lone low surrogate
    ] {
        let e = json::parse(bad).expect_err(bad);
        assert!(e.msg.contains("surrogate"), "{bad}: {e}");
        assert_eq!(e.offset, 1, "{bad}: the error points at the escape");
    }
}

#[test]
fn nesting_is_capped_without_overflowing_the_stack() {
    let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
    assert!(json::parse(&nested(MAX_DEPTH)).is_ok());
    assert_eq!(err_at(&nested(MAX_DEPTH + 1)), MAX_DEPTH);
    let objects = format!(
        "{}1{}",
        "{\"a\":".repeat(MAX_DEPTH + 1),
        "}".repeat(MAX_DEPTH + 1)
    );
    assert!(json::parse(&objects).is_err());
    // A 1 MiB hostile body fails fast at the cap.
    let hostile = "[".repeat(1 << 20);
    let e = json::parse(&hostile).unwrap_err();
    assert_eq!(e.offset, MAX_DEPTH, "{e}");
}

#[test]
fn duplicate_keys_are_errors_at_any_size_and_depth() {
    assert_eq!(
        err_at(r#"{"tenant":"a","dataset":"MEDCOST","eps":0.1,"eps":5}"#),
        0
    );
    assert_eq!(err_at(r#"[1,{"k":1,"k":1}]"#), 3);
    // Past the linear-scan size the sorted check still finds it.
    let many: Vec<String> = (0..40).map(|i| format!("\"k{i}\":{i}")).collect();
    let ok = format!("{{{}}}", many.join(","));
    assert!(json::parse(&ok).is_ok());
    let dup = format!("{{{},\"k17\":0}}", many.join(","));
    assert!(json::parse(&dup).is_err());
    // Equal keys in different objects are fine; keys compare decoded.
    assert!(json::parse(r#"{"a":{"k":1},"b":{"k":2}}"#).is_ok());
    assert!(json::parse(r#"{"k":1,"\u006b":2}"#).is_err());
}

#[test]
fn number_grammar_is_json_and_values_stay_exact() {
    for ok in [
        "0", "-0", "7", "-12", "1.5", "0.25", "1e5", "1E+5", "-1.25e-3", "5e-324",
    ] {
        let v = json::parse(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        assert_eq!(v, Value::Num(Cow::Borrowed(ok)), "source text is kept");
    }
    for bad in [
        ".5", "5.", "+5", "01", "-01", "-", "1e", "1e+", "1.e5", "NaN", "inf", "-inf", "0x10",
        "--1", "1_000",
    ] {
        assert!(json::parse(bad).is_err(), "{bad:?} is not a JSON number");
    }
    // Integers above 2^53 and full-width u64s are exact.
    let v = json::parse("[9007199254740993,18446744073709551615,18446744073709551616]").unwrap();
    let items = v.as_array().unwrap();
    assert_eq!(items[0].as_u64(), Some(9_007_199_254_740_993));
    assert_eq!(items[1].as_u64(), Some(u64::MAX));
    assert_eq!(items[2].as_u64(), None, "overflow is not wrapped");
    assert_eq!(json::parse("1.0").unwrap().as_u64(), None);
    assert_eq!(json::parse("-3").unwrap().as_num::<i32>(), Some(-3));
    // Floats are bit-exact through the shortest round-trip form.
    for x in [0.1, 1.0 / 3.0, 0.30000000000000004, 5e-324, f64::MAX, -0.0] {
        let mut text = String::new();
        json::push_f64(&mut text, x);
        let back = json::parse(&text).unwrap().as_f64().unwrap();
        assert_eq!(back.to_bits(), x.to_bits(), "{text}");
    }
}

#[test]
fn errors_carry_byte_offsets() {
    assert_eq!(err_at(r#"{"k":}"#), 5);
    assert_eq!(err_at(r#"{"a":1,}"#), 7);
    assert_eq!(err_at("[1 2]"), 3);
    assert_eq!(err_at(r#"{"k":1} extra"#), 8);
    assert_eq!(err_at(r#"{"k" 1}"#), 5);
    assert_eq!(err_at(r#"{k:1}"#), 1);
    assert_eq!(err_at("\"ab"), 3);
    assert_eq!(err_at("\"a\u{7}\""), 2);
    assert_eq!(err_at(""), 0);
    assert_eq!(err_at("   "), 3);
    assert_eq!(err_at("tru"), 0);
    let e = json::parse("[1,2,.5]").unwrap_err();
    assert_eq!(e.to_string(), "expected a value at byte 5");
}

#[test]
fn scalars_literals_and_whitespace() {
    let v = json::parse(" {\n\t\"a\" : [ true , false , null ] ,\r\n \"b\" : { } } ").unwrap();
    let a = v.get("a").and_then(Value::as_array).unwrap();
    assert_eq!(a[0].as_bool(), Some(true));
    assert_eq!(a[1].as_bool(), Some(false));
    assert_eq!(a[2], Value::Null);
    assert_eq!(v.get("b"), Some(&Value::Obj(Vec::new())));
    assert!(v.get("missing").is_none());
    assert!(json::parse("[1,]").is_err());
    assert!(json::parse("[,1]").is_err());
    assert!(json::parse("nul").is_err());
}

/// Keys are members, not substrings: a key-looking pattern inside a
/// string never shadows the real field, and commas inside a quoted value
/// do not end it.
#[test]
fn keys_are_matched_structurally() {
    let v = json::parse(r#"{"t":"cell","note":"fake \"dims\": 9,","dims":2}"#).unwrap();
    assert_eq!(u64_at(&v, "dims"), 2);
    assert_eq!(str_at(&v, "note"), "fake \"dims\": 9,");
    let v = json::parse(r#"{"m":"AHP*","n":64,"params":"rho=0.85,eta=1.5"}"#).unwrap();
    assert_eq!(u64_at(&v, "n"), 64);
    assert_eq!(str_at(&v, "params"), "rho=0.85,eta=1.5");
}

#[test]
fn encoders_escape_and_round_trip() {
    let nasty = "q\"b\\s/\n\t\u{1}é😀";
    let mut text = String::from("\"");
    json::push_str(&mut text, nasty);
    text.push('"');
    assert_eq!(text, "\"q\\\"b\\\\s/\\u000a\\u0009\\u0001é😀\"");
    assert_eq!(json::parse(&text).unwrap().as_str(), Some(nasty));
    let mut out = String::new();
    for x in [1.5, f64::NAN, f64::INFINITY, -f64::INFINITY, 1e21] {
        json::push_f64(&mut out, x);
        out.push(' ');
    }
    assert_eq!(out, "1.5 null null null 1000000000000000000000 ");
    assert_eq!(
        format!("{}|{}", json::F64(0.1), json::F64(f64::NAN)),
        "0.1|null"
    );
}

// ---------------------------------------------------------------------------
// Every writer's output parses
// ---------------------------------------------------------------------------

fn grid(algorithms: &[&str]) -> ExperimentConfig {
    ExperimentConfig {
        datasets: vec![dpbench::datasets::catalog::by_name("MEDCOST").unwrap()],
        scales: vec![1_000],
        domains: vec![Domain::D1(128)],
        epsilons: vec![0.1],
        algorithms: algorithms.iter().map(|a| a.to_string()).collect(),
        n_samples: 1,
        n_trials: 2,
        workload: WorkloadSpec::Prefix,
        loss: dpbench_core::Loss::L2,
    }
}

/// Each proper prefix of a record is a torn write and must be refused —
/// including `"pos":15}` torn to the shorter valid-looking `"pos":1`.
fn assert_every_prefix_is_refused(line: &str) {
    for cut in 1..line.len() {
        if line.is_char_boundary(cut) {
            assert!(
                json::parse(&line[..cut]).is_err(),
                "torn prefix parsed: {:?}",
                &line[..cut]
            );
        }
    }
}

#[test]
fn ledger_lines_parse_and_torn_lines_do_not() {
    let runner = Runner::new(grid(&["IDENTITY", "UNIFORM"]));
    let manifest = runner.manifest();
    let mut bytes = Vec::new();
    let mut jsonl = JsonlSink::from_writer(&mut bytes);
    runner.run_with_sink(&manifest, &mut jsonl).unwrap();
    jsonl.finish().unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let lines: Vec<&str> = text.lines().collect();

    let header = json::parse(lines[0]).unwrap();
    assert_eq!(str_at(&header, "t"), "run");
    assert_eq!(
        u64::from_str_radix(str_at(&header, "fp"), 16).unwrap(),
        manifest.fingerprint
    );
    assert_eq!(u64_at(&header, "n_trials"), 2);
    assert_eq!(str_at(&header, "cfg"), manifest.config_summary);

    let dir = tmp_dir("ledger");
    let path = dir.join("ledger.jsonl");
    std::fs::write(&path, &text).unwrap();
    let samples = sink::read_samples(&path).unwrap();
    let (mut n_samples, mut n_units) = (0, 0);
    for line in &lines[1..] {
        let rec = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let unit = str_at(&rec, "unit");
        assert_eq!(unit.len(), 16);
        match str_at(&rec, "t") {
            "s" => {
                let (_, pos, s) = &samples[n_samples];
                assert_eq!(u64_at(&rec, "pos") as usize, *pos);
                assert_eq!(str_at(&rec, "alg"), s.algorithm);
                assert_eq!(str_at(&rec, "dataset"), "MEDCOST");
                assert_eq!(u64_at(&rec, "scale"), 1_000);
                assert_eq!(str_at(&rec, "domain"), "128");
                assert_eq!(f64_at(&rec, "eps"), 0.1);
                assert_eq!(u64_at(&rec, "trial") as usize, s.trial);
                assert_eq!(f64_at(&rec, "err").to_bits(), s.error.to_bits());
                n_samples += 1;
            }
            "u" => n_units += 1,
            other => panic!("unexpected record type {other}"),
        }
    }
    assert_eq!(n_units, manifest.len());
    assert_eq!(n_samples, samples.len());

    // Torn lines: every prefix of each record kind is refused by the
    // reader, and the ledger readers keep only a torn *final* line.
    for line in [lines[0], lines[1], lines[lines.len() - 1]] {
        assert_every_prefix_is_refused(line);
    }
    let last = lines[lines.len() - 1];
    let torn_at = last.rfind(':').unwrap() + 2;
    let torn = format!(
        "{}\n{}",
        lines[..lines.len() - 1].join("\n"),
        &last[..torn_at]
    );
    std::fs::write(&path, &torn).unwrap();
    let ledger = sink::read_ledger(&path).unwrap();
    assert_eq!(
        ledger.done.len(),
        manifest.len() - 1,
        "torn marker is not a unit"
    );
    std::fs::write(&path, format!("{torn}\n{}\n", lines[1])).unwrap();
    let err = sink::read_ledger(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn summary_and_profile_lines_parse() {
    let runner = Runner::new(grid(&["AHP*", "IDENTITY"]));
    let mut agg = AggregatingSink::new();
    runner.run_with_sink(&runner.manifest(), &mut agg).unwrap();

    let mut bytes = Vec::new();
    agg.write_summary(&mut bytes).unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let mut lines = text.lines();
    let head = json::parse(lines.next().unwrap()).unwrap();
    assert_eq!(str_at(&head, "t"), "agg");
    assert_eq!(u64_at(&head, "samples"), agg.samples_seen());
    let mut groups = 0;
    for line in lines {
        let g = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(str_at(&g, "t"), "g");
        let cent = g.get("cent").and_then(Value::as_array).unwrap();
        assert!(!cent.is_empty());
        let mut weight = 0.0;
        for pair in cent {
            let pair = pair.as_array().unwrap();
            assert_eq!(pair.len(), 2, "centroids are [mean,weight] pairs");
            assert!(pair[0].as_f64().is_some());
            weight += pair[1].as_f64().unwrap();
        }
        assert_eq!(weight as u64, u64_at(&g, "n"));
        assert!(f64_at(&g, "min") <= f64_at(&g, "max"));
        groups += 1;
    }
    assert_eq!(groups, 2);

    let profile = SelectionProfile::build(std::slice::from_ref(&agg));
    let mut bytes = Vec::new();
    profile.write(&mut bytes).unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let mut lines = text.lines();
    let head = json::parse(lines.next().unwrap()).unwrap();
    assert_eq!(str_at(&head, "t"), "dpbench-profile");
    assert_eq!(u64_at(&head, "v"), 1);
    assert_eq!(u64_at(&head, "cells") as usize, profile.cells.len());
    let cell = json::parse(lines.next().unwrap()).unwrap();
    assert_eq!(str_at(&cell, "t"), "cell");
    let ranked = cell.get("ranked").and_then(Value::as_array).unwrap();
    let ahp = ranked
        .iter()
        .find(|m| str_at(m, "m") == "AHP*")
        .expect("AHP* ranked");
    let params = str_at(ahp, "params");
    assert!(
        params.contains(','),
        "AHP params are comma-joined: {params}"
    );
    assert!(ranked
        .iter()
        .all(|m| m.get("comp").and_then(Value::as_bool).is_some()));
}

#[test]
fn journal_records_parse() {
    let dir = tmp_dir("journal");
    let path = dir.join("spend.jsonl");
    {
        let (mut journal, _) = SpendJournal::open(&path).unwrap();
        journal.append("alice", JournalOp::Spend, 0.1).unwrap();
        journal
            .append("alice", JournalOp::Refund, 1.0 / 3.0)
            .unwrap();
        journal.sync().unwrap();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let recs: Vec<Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
    assert_eq!(str_at(&recs[0], "t"), "tenants");
    assert_eq!(u64_at(&recs[0], "v"), 1);
    assert_eq!(str_at(&recs[1], "t"), "spend");
    assert_eq!(str_at(&recs[2], "t"), "refund");
    assert_eq!(str_at(&recs[2], "tenant"), "alice");
    assert_eq!(f64_at(&recs[2], "eps").to_bits(), (1.0_f64 / 3.0).to_bits());
    assert_eq!(u64_at(&recs[2], "seq"), 2);
    for line in text.lines() {
        assert_every_prefix_is_refused(line);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Never launches: both shard ledgers are prebuilt and complete.
struct NoLaunch;

impl ShardLauncher for NoLaunch {
    fn launch(&self, _spec: &LaunchSpec) -> std::io::Result<std::process::Child> {
        panic!("complete shards must not launch");
    }
}

#[test]
fn fleet_status_line_parses() {
    let dir = tmp_dir("fleet");
    let out = dir.join("fleet.jsonl");
    let status = dir.join("status.json");
    let runner = Runner::new(grid(&["IDENTITY", "UNIFORM"]));
    let manifest = runner.manifest();
    for i in 0..2 {
        let mut jsonl = JsonlSink::create(shard_ledger_path(&out, i)).unwrap();
        runner
            .run_with_sink(&manifest.shard(i, 2), &mut jsonl)
            .unwrap();
    }
    let opts = FleetOptions {
        procs: 2,
        status_file: Some(status.clone()),
        ..FleetOptions::default()
    };
    run_fleet(&manifest, &NoLaunch, &out, &opts).unwrap();
    let line = std::fs::read_to_string(&status).unwrap();
    assert_eq!(line.lines().count(), 1);
    let v = json::parse(&line).unwrap();
    assert_eq!(str_at(&v, "t"), "fleet-status");
    assert_eq!(
        u64::from_str_radix(str_at(&v, "fp"), 16).unwrap(),
        manifest.fingerprint
    );
    assert_eq!(v.get("complete").and_then(Value::as_bool), Some(true));
    assert_eq!(u64_at(&v, "units_done") as usize, manifest.len());
    let shards = v.get("shards").and_then(Value::as_array).unwrap();
    assert_eq!(shards.len(), 2);
    let done: u64 = shards.iter().map(|s| u64_at(s, "done")).sum();
    assert_eq!(done as usize, manifest.len());
    assert!(v.get("steals").and_then(Value::as_array).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every body the release server writes parses, and the getters read
/// back the fields clients rely on: an explicit release, an `auto`
/// release (nested `selection` and `slo` blocks), status, budget,
/// readiness and an error body.
#[test]
fn server_response_bodies_parse() {
    let dir = tmp_dir("serve");
    let runner = Runner::new(ExperimentConfig {
        scales: vec![10_000],
        domains: vec![Domain::D1(256)],
        epsilons: vec![1.0],
        ..grid(&["IDENTITY", "DAWA"])
    });
    let mut agg = AggregatingSink::new();
    runner.run_with_sink(&runner.manifest(), &mut agg).unwrap();
    let profile = dir.join("profile.json");
    SelectionProfile::build(std::slice::from_ref(&agg))
        .write_file(&profile)
        .unwrap();
    let handle = serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        datasets: vec!["MEDCOST".into()],
        scale: 10_000,
        domain: Domain::D1(256),
        tenants: vec![("alice".into(), 10.0)],
        threads: 2,
        seed: 7,
        slo: true,
        profile: Some(profile),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let get = |path: &str| {
        let (status, body) = http::request(&addr, "GET", path, None).unwrap();
        assert_eq!(status, 200, "{path}: {body}");
        body
    };
    let release = |mech: &str| {
        let body = format!(
            "{{\"tenant\":\"alice\",\"dataset\":\"MEDCOST\",\"mechanism\":\"{mech}\",\"eps\":0.5}}"
        );
        let (status, resp) = http::request(&addr, "POST", "/v1/release", Some(&body)).unwrap();
        assert_eq!(status, 200, "{resp}");
        resp
    };

    let explicit = release("IDENTITY");
    let v = json::parse(&explicit).unwrap_or_else(|e| panic!("{e}: {explicit}"));
    assert_eq!(str_at(&v, "tenant"), "alice");
    assert_eq!(str_at(&v, "mechanism"), "IDENTITY");
    assert_eq!(f64_at(&v, "eps"), 0.5);
    assert_eq!(f64_at(&v, "remaining"), 9.5);
    assert!(v.get("selection").is_none());
    let rel = v.get("release").unwrap();
    assert_eq!(str_at(rel, "mechanism"), "IDENTITY");
    let estimate = rel.get("estimate").and_then(Value::as_array).unwrap();
    assert_eq!(estimate.len(), 256);
    assert!(estimate
        .iter()
        .all(|x| x.as_f64().is_some_and(f64::is_finite)));
    let slo = v.get("slo").unwrap();
    assert!(f64_at(slo, "scaled_l1") >= 0.0 && f64_at(slo, "scaled_l2") >= 0.0);

    let auto = release("auto");
    let v = json::parse(&auto).unwrap_or_else(|e| panic!("{e}: {auto}"));
    assert_eq!(str_at(&v, "requested_mechanism"), "auto");
    let sel = v.get("selection").unwrap();
    assert_eq!(str_at(sel, "source"), "profile");
    assert!(!str_at(sel, "reason").is_empty());
    assert!(f64_at(sel, "regret") >= 1.0);
    assert!(v.get("slo").is_some());
    assert_eq!(
        str_at(v.get("release").unwrap(), "mechanism"),
        str_at(&v, "mechanism")
    );

    let status = get("/v1/status");
    let v = json::parse(&status).unwrap_or_else(|e| panic!("{e}: {status}"));
    let Some(Value::Obj(mechanisms)) = v.get("mechanisms") else {
        panic!("no mechanisms object in {status}");
    };
    let served: u64 = mechanisms.iter().map(|(_, n)| n.as_u64().unwrap()).sum();
    assert_eq!(served, 2);
    let selector = v.get("selector").unwrap();
    assert_eq!(
        selector.get("profile_loaded").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(u64_at(selector, "auto_requests"), 1);
    assert!(u64_at(v.get("plan_cache").unwrap(), "built") >= 1);
    assert!(!str_at(v.get("poller").unwrap(), "backend").is_empty());

    let budget = get("/v1/tenants/alice/budget");
    let budget = json::parse(&budget).unwrap();
    assert_eq!(str_at(&budget, "tenant"), "alice");
    assert_eq!(f64_at(&budget, "total"), 10.0);
    assert_eq!(f64_at(&budget, "spent"), 1.0);
    assert_eq!(u64_at(&budget, "releases"), 2);

    let ready = get("/v1/readyz");
    let ready = json::parse(&ready).unwrap();
    assert_eq!(ready.get("ready").and_then(Value::as_bool), Some(true));
    assert!(f64_at(&ready, "est_wait_ms") >= 0.0);

    // The error body echoes client bytes (here a path with a quote and a
    // backslash), escaped.
    let (status, body) = http::request(&addr, "GET", "/v1/\"odd\\path", None).unwrap();
    assert_eq!(status, 404);
    let err = json::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
    assert_eq!(str_at(&err, "error"), "not_found");
    assert_eq!(str_at(&err, "detail"), "/v1/\"odd\\path");

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
