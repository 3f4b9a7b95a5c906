//! Adversarial loopback tests: a real server on an ephemeral port under
//! deliberately hostile clients.
//!
//! The resilience contract under test:
//!
//! 1. **Panic isolation** — a panicking handler costs its own request a
//!    500 (and a `panics_total` tick); the pool keeps serving.
//! 2. **Worker respawn** — a worker thread that dies outright is replaced
//!    by the supervisor; capacity is restored, `workers_respawned` ticks,
//!    and `/healthz` reports `degraded` instead of lying.
//! 3. **Slowloris shedding** — a drip-feeding client is cut off with a
//!    408 close to the configured request deadline, not held for an
//!    unbounded sequence of per-read timeouts.
//! 4. **Garbage tolerance** — truncated bodies, immediate disconnects,
//!    and binary junk never wedge or kill the server.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use spark_serve::http::client_request;
use spark_serve::{ServeConfig, Server};
use spark_util::json::parse;

fn start_chaos(workers: usize, deadline: Duration) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_depth: 16,
        request_deadline: deadline,
        chaos_endpoints: true,
        ..ServeConfig::default()
    })
    .unwrap()
}

fn metric(addr: &str, section: &str, name: &str) -> f64 {
    let (status, body) = client_request(addr, "GET", "/metrics", "", b"").unwrap();
    assert_eq!(status, 200);
    parse(std::str::from_utf8(&body).unwrap())
        .unwrap()
        .get(section)
        .and_then(|v| v.get(name))
        .and_then(|v| v.as_f64())
        .unwrap_or(f64::NAN)
}

fn healthz_status(addr: &str) -> String {
    let (status, body) = client_request(addr, "GET", "/healthz", "", b"").unwrap();
    assert_eq!(status, 200);
    parse(std::str::from_utf8(&body).unwrap())
        .unwrap()
        .get("status")
        .and_then(|v| v.as_str())
        .unwrap_or("missing")
        .to_string()
}

#[test]
fn handler_panic_is_a_500_not_an_outage() {
    let server = start_chaos(2, Duration::from_secs(10));
    let addr = server.addr().to_string();

    // Inject a panic; the connection must still get a JSON 500.
    let (status, body) = client_request(&addr, "POST", "/__chaos/panic", "", b"").unwrap();
    assert_eq!(status, 500, "{body:?}");
    let v = parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert!(
        v.get("error").and_then(|e| e.as_str()).unwrap_or("").contains("panic"),
        "{v:?}"
    );

    // The pool survived: real work still gets served, on every worker.
    for _ in 0..8 {
        let (status, _) = client_request(
            &addr,
            "POST",
            "/v1/analyze",
            "application/json",
            b"{\"values\": [0.5, -0.25, 0.125, 0.75]}",
        )
        .unwrap();
        assert_eq!(status, 200);
    }

    assert_eq!(metric(&addr, "resilience", "panics_total"), 1.0);
    assert_eq!(healthz_status(&addr), "degraded");

    server.shutdown();
    server.join();
}

#[test]
fn dead_worker_is_respawned_and_capacity_restored() {
    let server = start_chaos(2, Duration::from_secs(10));
    let addr = server.addr().to_string();
    assert_eq!(healthz_status(&addr), "ok");

    // Kill both original workers (each request rides one worker thread).
    for _ in 0..2 {
        let (status, body) = client_request(&addr, "POST", "/__chaos/exit-worker", "", b"").unwrap();
        assert_eq!(status, 200, "{body:?}");
    }

    // The supervisor polls every 25 ms; give it a bounded window to
    // restore the pool, then prove the server still answers real work.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if metric(&addr, "resilience", "workers_respawned") >= 2.0 {
            break;
        }
        assert!(Instant::now() < deadline, "supervisor never respawned both workers");
        std::thread::sleep(Duration::from_millis(25));
    }
    for _ in 0..4 {
        let (status, _) = client_request(
            &addr,
            "POST",
            "/v1/encode",
            "application/json",
            b"{\"values\": [0.1, 0.2, 0.3, 0.4]}",
        )
        .unwrap();
        assert_eq!(status, 200);
    }
    assert_eq!(healthz_status(&addr), "degraded");

    server.shutdown();
    server.join();
}

#[test]
fn slowloris_client_is_shed_within_the_deadline() {
    let deadline = Duration::from_millis(300);
    let server = start_chaos(1, deadline);
    let addr = server.addr().to_string();

    let started = Instant::now();
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(b"POST /v1/encode HTTP/1.1\r\nContent-Le").unwrap();
    // Drip a byte every 50 ms — each gap is far below IO_TIMEOUT, so only
    // the overall deadline can cut this off.
    let mut reply = Vec::new();
    for _ in 0..40 {
        std::thread::sleep(Duration::from_millis(50));
        if s.write_all(b"x").is_err() {
            break;
        }
        s.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
        let mut buf = [0u8; 1024];
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                reply.extend_from_slice(&buf[..n]);
                if reply.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => {}
        }
    }
    // Collect whatever is left of the response.
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut rest = Vec::new();
    let _ = s.read_to_end(&mut rest);
    reply.extend_from_slice(&rest);
    let elapsed = started.elapsed();

    let text = String::from_utf8_lossy(&reply);
    assert!(text.starts_with("HTTP/1.1 408"), "expected 408, got {text:?}");
    assert!(
        elapsed < deadline + Duration::from_secs(3),
        "shedding took {elapsed:?} against a {deadline:?} deadline"
    );
    assert!(metric(&addr, "resilience", "deadline_408") >= 1.0);

    // The lone worker is free again: a healthy request goes straight through.
    let (status, _) = client_request(&addr, "GET", "/metrics", "", b"").unwrap();
    assert_eq!(status, 200);

    server.shutdown();
    server.join();
}

#[test]
fn garbage_and_disconnects_never_wedge_the_server() {
    let server = start_chaos(2, Duration::from_millis(500));
    let addr = server.addr().to_string();

    // Immediate disconnect, raw binary junk, truncated body, each a few
    // times over — then the server must still answer cleanly.
    for round in 0..3 {
        drop(TcpStream::connect(&addr).unwrap());
        {
            let mut s = TcpStream::connect(&addr).unwrap();
            let junk: Vec<u8> = (0..64u16).map(|i| (i * 37 + round) as u8).collect();
            let _ = s.write_all(&junk);
        }
        {
            let mut s = TcpStream::connect(&addr).unwrap();
            let _ = s.write_all(b"POST /v1/encode HTTP/1.1\r\nContent-Length: 999\r\n\r\nshort");
            // Drop without finishing the body: the read deadline reaps it.
        }
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client_request(&addr, "GET", "/healthz", "", b"") {
            Ok((200, _)) => break,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            other => panic!("server wedged after garbage: {other:?}"),
        }
    }
    assert_eq!(metric(&addr, "resilience", "panics_total"), 0.0);

    server.shutdown();
    server.join();
}

#[test]
fn chaos_endpoints_are_404_when_disabled() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 8,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    for path in ["/__chaos/panic", "/__chaos/exit-worker"] {
        let (status, _) = client_request(&addr, "POST", path, "", b"").unwrap();
        assert_eq!(status, 404, "{path} must not exist without chaos_endpoints");
    }
    server.shutdown();
    server.join();
}
