//! Hostile-client cases that first pinned the `poll(2)` fallback
//! backend, kept under their original names now that the server has one
//! readiness backend (epoll). Each differs in detail from its
//! `serve_hostile` counterpart: a malformed-request matrix behind a
//! backend check, a slowloris dribble whose 408 must show in the
//! `timeouts` counter, an idle reap with no byte ever sent, and a
//! two-connection cap that must recover once the held connections drop.

use dpbench::harness::serve::{self, http, Limits, ServeConfig};
use dpbench::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn server_on(limits: Limits) -> serve::ServerHandle {
    serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        datasets: vec!["MEDCOST".into()],
        scale: 10_000,
        domain: Domain::D1(256),
        tenants: vec![("t".into(), 10.0)],
        threads: 2,
        seed: 7,
        limits,
        ..ServeConfig::default()
    })
    .unwrap()
}

fn raw_exchange(addr: &str, payload: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(payload).unwrap();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    let text = String::from_utf8_lossy(&resp).into_owned();
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    (status, text)
}

/// The server reports `"backend":"epoll"` and answers the malformed-byte
/// matrix with the documented 4xx codes.
#[test]
fn poll_backend_rejects_malformed_requests_cleanly() {
    let handle = server_on(Limits::default());
    let addr = handle.addr().to_string();

    let (status, body) = http::request(&addr, "GET", "/v1/status", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        body.contains("\"backend\":\"epoll\""),
        "status must name the backend: {body}"
    );

    let cases: Vec<(Vec<u8>, u16, &str)> = vec![
        (b"GARBAGE\r\n\r\n".to_vec(), 400, "bad_request_line"),
        (
            b"POST /v1/release HTTP/1.1\r\nContent-Length: -5\r\n\r\n".to_vec(),
            400,
            "bad_content_length",
        ),
        (
            b"POST /v1/release HTTP/1.1\r\nNoColonHere\r\n\r\n".to_vec(),
            400,
            "bad_header",
        ),
    ];
    for (payload, want_status, want_code) in cases {
        let (status, text) = raw_exchange(&addr, &payload);
        assert_eq!(status, want_status, "{text}");
        assert!(text.contains(want_code), "{text}");
    }
    handle.shutdown().unwrap();
}

/// Slowloris dribble: 408 from the timer wheel, and
/// the `timeouts` + `timer_fires` counters move.
#[test]
fn poll_backend_times_out_a_slowloris_dribble() {
    let limits = Limits {
        header_timeout: Duration::from_millis(300),
        ..Limits::default()
    };
    let handle = server_on(limits);
    let addr = handle.addr().to_string();

    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"POST /v1/release HT").unwrap();
    std::thread::sleep(Duration::from_millis(120));
    s.write_all(b"TP/1.1\r\nContent-").unwrap();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    let text = String::from_utf8_lossy(&resp);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");
    assert!(text.contains("request_timeout"), "{text}");

    assert_eq!(
        handle
            .state()
            .robust
            .timeouts
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    let (_, body) = http::request(&addr, "GET", "/v1/status", None).unwrap();
    assert!(body.contains("\"timeouts\":1"), "{body}");
    handle.shutdown().unwrap();
}

/// Idle keep-alive connections are reaped silently.
#[test]
fn poll_backend_reaps_idle_connections() {
    let limits = Limits {
        idle_timeout: Duration::from_millis(250),
        ..Limits::default()
    };
    let handle = server_on(limits);
    let addr = handle.addr().to_string();

    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Never send a byte: the idle clock runs from accept.
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    assert!(buf.is_empty(), "idle reap must be silent, got {buf:?}");

    let (_, body) = http::request(&addr, "GET", "/v1/status", None).unwrap();
    assert!(body.contains("\"reaped_idle\":1"), "{body}");
    handle.shutdown().unwrap();
}

/// The connection cap sheds with 503 + Retry-After, and capacity returns once a held connection drops.
#[test]
fn poll_backend_sheds_at_the_connection_cap_and_recovers() {
    let limits = Limits {
        max_conns: 2,
        ..Limits::default()
    };
    let handle = server_on(limits);
    let addr = handle.addr().to_string();

    let held: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(&addr).unwrap()).collect();
    // Accept registration is asynchronous; poll until a connect is shed.
    // The shed 503 arrives unsolicited, so read without writing.
    let mut shed = None;
    for _ in 0..100 {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut resp = Vec::new();
        if s.read_to_end(&mut resp).is_ok() && !resp.is_empty() {
            shed = Some(String::from_utf8_lossy(&resp).into_owned());
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let text = shed.expect("no connect was ever shed at the cap");
    assert!(text.starts_with("HTTP/1.1 503"), "{text}");
    assert!(text.contains("\"error\":\"overloaded\""), "{text}");
    assert!(text.contains("Retry-After:"), "{text}");

    drop(held);
    // The poller sees the EOFs and frees the slots.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok((200, _)) = http::request(&addr, "GET", "/v1/healthz", None) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "capacity never recovered after held connections dropped"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown().unwrap();
}
