//! spark-serve — a hermetic, sharded request-serving subsystem over the
//! SPARK codec, quantizer, and accelerator simulator.
//!
//! Everything is std-only: the HTTP/1.1 front end is hand-rolled on
//! `std::net::TcpListener`, JSON goes through `spark_util::json`, and
//! concurrency uses the in-tree bounded channel and histogram. The crate
//! exists so the encode/decode/analyze/simulate/infer pipelines can be
//! driven as a long-lived, sharded service. Each request runs its whole
//! pipeline inline on one shard worker thread: the codec works one value
//! at a time on the operand stream, so there is nothing to gain from
//! coalescing requests.
//!
//! Layout:
//!
//! - [`http`] — request parsing, response writing, a tiny test client.
//! - [`io`] — streaming raw-f32 input shared with the CLI.
//! - [`api`] — JSON schemas shared with the CLI's `--json` mode.
//! - [`load`] — the deterministic open-loop load harness.
//! - [`metrics`] — lock-free counters and latency histograms.
//! - [`shard`] — consistent-hash tenant routing and token-bucket quotas.
//! - [`server`] — acceptor, shard worker pools, routing, graceful shutdown.
//! - [`router`] — the fleet front: circuit breakers, retry budget, and
//!   health probing over N independent backend processes.
//!
//! ```no_run
//! let server = spark_serve::Server::start(spark_serve::ServeConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! server.join(); // returns after POST /shutdown
//! ```

pub mod api;
pub mod http;
pub mod io;
pub mod load;
pub mod metrics;
pub mod router;
pub mod server;
pub mod shard;

pub use metrics::Metrics;
pub use router::{Router, RouterConfig};
pub use server::{ServeConfig, Server};

use spark_util::json::parse;

fn expect_200(
    addr: &str,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> Result<spark_util::Value, String> {
    let (status, reply) = http::client_request(addr, method, path, content_type, body)?;
    let text = String::from_utf8(reply).map_err(|e| format!("{method} {path}: {e}"))?;
    if status != 200 {
        return Err(format!("{method} {path}: status {status}: {text}"));
    }
    parse(&text).map_err(|e| format!("{method} {path}: bad JSON: {e}"))
}

/// One-shot self-test used by `spark serve --smoke` and the CI smoke
/// stage: boots an ephemeral server, exercises every endpoint once,
/// checks the metrics add up, and shuts down cleanly.
///
/// # Errors
///
/// A description of the first check that failed.
pub fn smoke() -> Result<(), String> {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("start: {e}"))?;
    let addr = server.addr().to_string();

    let health = expect_200(&addr, "GET", "/healthz", "", b"")?;
    if health.get("status").and_then(|v| v.as_str()) != Some("ok") {
        return Err(format!("healthz: unexpected body {health:?}"));
    }

    let values: Vec<f32> = (0..4096).map(|i| ((i * 37) % 100) as f32 / 100.0 - 0.5).collect();
    let raw: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    let encoded = expect_200(&addr, "POST", "/v1/encode", "application/octet-stream", &raw)?;
    if encoded.get("elements").and_then(|v| v.as_f64()) != Some(values.len() as f64) {
        return Err(format!("encode: wrong element count in {encoded:?}"));
    }
    let hex = encoded
        .get("stream_hex")
        .and_then(|v| v.as_str())
        .ok_or("encode: missing stream_hex")?
        .to_string();

    let decode_body = format!("{{\"stream_hex\": \"{hex}\"}}");
    let decoded =
        expect_200(&addr, "POST", "/v1/decode", "application/json", decode_body.as_bytes())?;
    if decoded.get("elements").and_then(|v| v.as_f64()) != Some(values.len() as f64) {
        return Err(format!("decode: wrong element count in {decoded:?}"));
    }

    let analyzed = expect_200(&addr, "POST", "/v1/analyze", "application/octet-stream", &raw)?;
    if analyzed.get("spark_bits").and_then(|v| v.as_f64()).unwrap_or(0.0) < 4.0 {
        return Err(format!("analyze: implausible spark_bits in {analyzed:?}"));
    }

    let simulated = expect_200(
        &addr,
        "POST",
        "/v1/simulate",
        "application/json",
        b"{\"model\": \"resnet18\", \"accelerator\": \"spark\"}",
    )?;
    if simulated.get("total_cycles").and_then(|v| v.as_f64()).unwrap_or(0.0) <= 0.0 {
        return Err(format!("simulate: implausible cycles in {simulated:?}"));
    }

    let infer_values: Vec<f32> =
        (0..api::INFER_INPUTS).map(|i| (i as f32 * 0.11).sin()).collect();
    let infer_body = format!(
        "{{\"values\": [{}]}}",
        infer_values.iter().map(f32::to_string).collect::<Vec<_>>().join(", ")
    );
    let inferred =
        expect_200(&addr, "POST", "/v1/infer", "application/json", infer_body.as_bytes())?;
    let outputs = inferred.get("outputs").and_then(|v| v.as_array()).map_or(0, |a| a.len());
    if outputs != api::INFER_OUTPUTS {
        return Err(format!("infer: expected {} outputs in {inferred:?}", api::INFER_OUTPUTS));
    }
    let ratio = inferred.get("weight_bytes_ratio").and_then(|v| v.as_f64()).unwrap_or(1.0);
    if ratio >= 0.55 {
        return Err(format!("infer: encoded weights not resident (ratio {ratio})"));
    }

    let metrics = expect_200(&addr, "GET", "/metrics", "", b"")?;
    let hits = |endpoint: &str| {
        metrics
            .get("endpoints")
            .and_then(|v| v.get(endpoint))
            .and_then(|v| v.get("hits"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    for endpoint in ["encode", "decode", "analyze", "simulate", "infer"] {
        if hits(endpoint) < 1.0 {
            return Err(format!("metrics: no hits recorded for {endpoint}: {metrics:?}"));
        }
    }

    let bye = expect_200(&addr, "POST", "/shutdown", "", b"")?;
    if bye.get("status").and_then(|v| v.as_str()) != Some("shutting down") {
        return Err(format!("shutdown: unexpected body {bye:?}"));
    }
    server.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_passes_end_to_end() {
        super::smoke().unwrap();
    }
}
