//! Loopback integration tests: a real server on an ephemeral port, real
//! TCP clients, and the library as the reference implementation.
//!
//! The three properties the serving layer must never lose:
//!
//! 1. **Bit identity** — a server response is byte-for-byte what
//!    the direct library call produces for the same input.
//! 2. **Accounting** — every request shows up in `/metrics`; nothing is
//!    double- or under-counted, concurrency notwithstanding.
//! 3. **Loud overload** — when the bounded queue is full, the peer gets
//!    an explicit 503 body, never a dropped or hanging connection.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use spark_codec::{decode_stream, encode_tensor};
use spark_serve::api;
use spark_serve::http::client_request;
use spark_serve::{ServeConfig, Server};
use spark_util::json::parse;

fn start(workers: usize, queue_depth: usize) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_depth,
        ..ServeConfig::default()
    })
    .unwrap()
}

fn payload(seed: usize, n: usize) -> Vec<f32> {
    (0..n).map(|i| (((i * 31 + seed * 97) % 211) as f32 - 105.0) / 50.0).collect()
}

fn raw_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// The reference body for `/v1/encode`: the direct library pipeline run
/// through the same serializer.
fn reference_encode_body(values: &[f32]) -> String {
    let codes = api::quantize_codes(values).unwrap();
    let encoded = encode_tensor(&codes.codes);
    api::encode_response(&encoded, codes.scale).to_string_compact()
}

#[test]
fn concurrent_clients_get_bit_identical_batched_responses() {
    let server = start(4, 64);
    let addr = server.addr().to_string();

    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 4;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                for r in 0..REQUESTS_PER_CLIENT {
                    let values = payload(c * 100 + r, 1000 + c * 37 + r);
                    let (status, body) = client_request(
                        &addr,
                        "POST",
                        "/v1/encode",
                        "application/octet-stream",
                        &raw_bytes(&values),
                    )
                    .unwrap();
                    assert_eq!(status, 200);
                    let got = String::from_utf8(body).unwrap();
                    assert_eq!(
                        got,
                        reference_encode_body(&values),
                        "client {c} request {r}: server response diverged from library"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Accounting: every request counted, and every encode is one
    // library call, recorded as a batch of one.
    let (status, body) = client_request(&addr, "GET", "/metrics", "", b"").unwrap();
    assert_eq!(status, 200);
    let m = parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as f64;
    let encode = m.get("endpoints").unwrap().get("encode").unwrap();
    assert_eq!(encode.get("hits").unwrap().as_f64(), Some(total));
    assert_eq!(encode.get("errors").unwrap().as_f64(), Some(0.0));
    let batching = m.get("batching").unwrap();
    let batches = batching.get("batches").unwrap().as_f64().unwrap();
    assert_eq!(batches, total);
    let batch_size = batching.get("batch_size").unwrap();
    assert_eq!(batch_size.get("count").unwrap().as_f64(), Some(total));
    assert_eq!(batch_size.get("max").unwrap().as_f64(), Some(1.0));
    // accepted = all encodes, plus possibly this in-flight /metrics
    // request (its own accept tick races with the snapshot).
    let accepted = m.get("queue").unwrap().get("accepted").unwrap().as_f64().unwrap();
    assert!(accepted >= total && accepted <= total + 1.0, "accepted = {accepted}");
    assert!(m.get("latency_us").unwrap().get("count").unwrap().as_f64().unwrap() >= total);

    server.shutdown();
    server.join();
}

#[test]
fn decode_round_trip_matches_library_decode() {
    let server = start(2, 16);
    let addr = server.addr().to_string();
    let values = payload(7, 1500);
    let codes = api::quantize_codes(&values).unwrap();
    let encoded = encode_tensor(&codes.codes);
    let hex = api::stream_to_hex(&encoded.stream);

    let (status, body) = client_request(
        &addr,
        "POST",
        "/v1/decode",
        "application/json",
        format!("{{\"stream_hex\": \"{hex}\"}}").as_bytes(),
    )
    .unwrap();
    assert_eq!(status, 200);
    let v = parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let got: Vec<u8> = v
        .get("codes")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|x| x.as_f64().unwrap() as u8)
        .collect();
    // Identical to the library's own decode. (Not to the original codes:
    // SPARK's encoding is deliberately lossy on ~5% of values.)
    assert_eq!(got, decode_stream(&encoded.stream).unwrap());

    server.shutdown();
    server.join();
}

#[test]
fn concurrent_decodes_batch_and_stay_bit_identical() {
    // Concurrent decodes each run on a shard worker, each response
    // byte-identical to the direct library pipeline, and a malformed
    // stream in the mix fails alone with its own 400.
    let server = start(4, 64);
    let addr = server.addr().to_string();

    const CLIENTS: usize = 6;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let values = payload(c * 11 + 1, 900 + c * 53);
                let codes = api::quantize_codes(&values).unwrap();
                let encoded = encode_tensor(&codes.codes);
                let hex = api::stream_to_hex(&encoded.stream);
                let (status, body) = client_request(
                    &addr,
                    "POST",
                    "/v1/decode",
                    "application/json",
                    format!("{{\"stream_hex\": \"{hex}\"}}").as_bytes(),
                )
                .unwrap();
                assert_eq!(status, 200);
                assert_eq!(
                    String::from_utf8(body).unwrap(),
                    api::decode_response(&hex).unwrap().to_string_compact(),
                    "client {c}: server decode diverged from library"
                );
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // A truncated long code (lone prev nibble "8") is this request's own
    // 400, reported by the codec with the typed error message.
    let (status, body) = client_request(
        &addr,
        "POST",
        "/v1/decode",
        "application/json",
        b"{\"stream_hex\": \"8\"}",
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(String::from_utf8(body).unwrap().contains("long code"));

    // Bad hex is a 400 before the codec runs.
    let (status, body) = client_request(
        &addr,
        "POST",
        "/v1/decode",
        "application/json",
        b"{\"stream_hex\": \"zz\"}",
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(String::from_utf8(body).unwrap().contains("invalid hex digit"));

    // Accounting: all decode requests counted, two errors; the malformed
    // stream reached the codec and counts as a library call, the bad hex
    // did not.
    let (status, body) = client_request(&addr, "GET", "/metrics", "", b"").unwrap();
    assert_eq!(status, 200);
    let m = parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let decode = m.get("endpoints").unwrap().get("decode").unwrap();
    assert_eq!(decode.get("hits").unwrap().as_f64(), Some((CLIENTS + 2) as f64));
    assert_eq!(decode.get("errors").unwrap().as_f64(), Some(2.0));
    let batches = m.get("batching").unwrap().get("batches").unwrap().as_f64().unwrap();
    assert_eq!(batches, (CLIENTS + 1) as f64);

    server.shutdown();
    server.join();
}

#[test]
fn analyze_and_simulate_match_shared_serializers() {
    let server = start(2, 16);
    let addr = server.addr().to_string();

    let values = payload(3, 2000);
    let (status, body) = client_request(
        &addr,
        "POST",
        "/v1/analyze",
        "application/octet-stream",
        &raw_bytes(&values),
    )
    .unwrap();
    assert_eq!(status, 200);
    let got = String::from_utf8(body).unwrap();
    assert_eq!(got, api::analyze_response(&values).unwrap().to_string_compact());

    let (status, body) = client_request(
        &addr,
        "POST",
        "/v1/simulate",
        "application/json",
        b"{\"model\": \"resnet18\"}",
    )
    .unwrap();
    assert_eq!(status, 200);
    let v = parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(v.get("model").unwrap().as_str(), Some("ResNet18"));
    assert_eq!(v.get("accelerator").unwrap().as_str(), Some("SPARK"));
    assert!(v.get("latency_ms").unwrap().as_f64().unwrap() > 0.0);

    server.shutdown();
    server.join();
}

/// Reads whatever response a raw socket eventually produces.
fn read_raw_response(stream: &mut TcpStream) -> String {
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn overload_answers_503_loudly_and_recovers() {
    // One worker, queue of one: the third concurrent connection must
    // overflow deterministically.
    let server = start(1, 1);
    let addr = server.addr().to_string();

    // Occupy the only worker: a request whose body never quite arrives.
    let mut stall = TcpStream::connect(&addr).unwrap();
    stall
        .write_all(b"POST /v1/analyze HTTP/1.1\r\nContent-Type: application/octet-stream\r\nContent-Length: 8\r\n\r\nhalf")
        .unwrap();
    stall.flush().unwrap();
    // Let the worker dequeue it and block on the body read.
    std::thread::sleep(Duration::from_millis(300));

    // Fills the queue (will be served once the stall resolves).
    let queued = std::thread::spawn({
        let addr = addr.clone();
        let values = payload(1, 64);
        move || client_request(&addr, "GET", "/healthz", "", &raw_bytes(&values)[..0]).unwrap()
    });
    std::thread::sleep(Duration::from_millis(300));

    // Queue is now full: these must all get explicit 503 JSON bodies.
    let mut saw_503 = 0;
    for _ in 0..3 {
        let mut conn = TcpStream::connect(&addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let reply = read_raw_response(&mut conn);
        assert!(!reply.is_empty(), "overflow connection was silently dropped");
        assert!(reply.starts_with("HTTP/1.1 503"), "expected 503, got {reply:?}");
        assert!(reply.contains("\"error\""), "503 carried no JSON body: {reply:?}");
        saw_503 += 1;
    }
    assert_eq!(saw_503, 3);

    // Release the stalled worker; both in-flight requests now finish.
    stall.write_all(b"more").unwrap();
    stall.flush().unwrap();
    let stall_reply = read_raw_response(&mut stall);
    assert!(stall_reply.starts_with("HTTP/1.1 200"), "{stall_reply:?}");
    let (status, _) = queued.join().unwrap();
    assert_eq!(status, 200);

    // The rejections are on the books.
    let (status, body) = client_request(&addr, "GET", "/metrics", "", b"").unwrap();
    assert_eq!(status, 200);
    let m = parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let rejected = m.get("queue").unwrap().get("rejected_503").unwrap().as_f64().unwrap();
    assert_eq!(rejected, 3.0);
    let peak = m.get("queue").unwrap().get("peak_depth").unwrap().as_f64().unwrap();
    assert!(peak >= 1.0);

    server.shutdown();
    server.join();
}

#[test]
fn shutdown_drains_then_refuses_new_connections() {
    let server = start(2, 16);
    let addr = server.addr().to_string();

    // A couple of real requests first.
    for seed in 0..2 {
        let values = payload(seed, 256);
        let (status, _) = client_request(
            &addr,
            "POST",
            "/v1/encode",
            "application/octet-stream",
            &raw_bytes(&values),
        )
        .unwrap();
        assert_eq!(status, 200);
    }

    let (status, body) = client_request(&addr, "POST", "/shutdown", "", b"").unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8(body).unwrap().contains("shutting down"));
    server.join();

    // Listener is gone: connecting now must fail outright.
    assert!(TcpStream::connect(&addr).is_err(), "listener survived shutdown");
}

/// JSON bodies work on the encode path too, and malformed ones error
/// without dropping the connection.
#[test]
fn json_encode_body_and_error_paths() {
    let server = start(2, 16);
    let addr = server.addr().to_string();

    let (status, body) = client_request(
        &addr,
        "POST",
        "/v1/encode",
        "application/json",
        b"{\"values\": [0.5, -0.25, 0.125, 1.0]}",
    )
    .unwrap();
    assert_eq!(status, 200);
    let expected = reference_encode_body(&[0.5, -0.25, 0.125, 1.0]);
    assert_eq!(String::from_utf8(body).unwrap(), expected);

    // Deeply nested hostile JSON: parser must refuse, server must answer.
    let bomb = format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000));
    let (status, body) =
        client_request(&addr, "POST", "/v1/encode", "application/json", bomb.as_bytes()).unwrap();
    assert_eq!(status, 400);
    assert!(String::from_utf8(body).unwrap().contains("error"));

    server.shutdown();
    server.join();
}
