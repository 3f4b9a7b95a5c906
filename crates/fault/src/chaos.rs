//! Scripted adversarial scenario against a live loopback server.
//!
//! Unlike the codec sweep (pure computation), this plane drives a real
//! `spark-serve` instance over TCP through its failure modes in a fixed
//! order: handler panic, hard worker death, slowloris drip-feed, raw
//! garbage. The *sequence* is scripted rather than randomized so the
//! resulting report is deterministic — every field is a status code or a
//! monotonic metric with exactly one correct value, never a timing.
//!
//! The scenario proves the PR's serving resilience contract end to end:
//! panics become 500s (`panics_total` ticks, pool intact), dead workers
//! are respawned (`workers_respawned` ticks, capacity restored),
//! drip-feeders are shed with 408 at the configured deadline, and
//! `/healthz` downgrades to `"degraded"` instead of lying about scars.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use spark_serve::http::{client_request, client_request_with_headers};
use spark_serve::shard::HashRing;
use spark_serve::{ServeConfig, Server};
use spark_util::json::{parse, Value};

/// Per-request deadline used by the scenario server: short enough that
/// the slowloris step resolves quickly, long enough that healthy
/// loopback requests never trip it.
const CHAOS_DEADLINE: Duration = Duration::from_millis(250);

/// Upper bound on waiting for the supervisor's respawn tick.
const RESPAWN_WAIT: Duration = Duration::from_secs(10);

fn metric(addr: &str, name: &str) -> Result<f64, String> {
    let (status, body) = client_request(addr, "GET", "/metrics", "", b"")?;
    if status != 200 {
        return Err(format!("GET /metrics: status {status}"));
    }
    parse(std::str::from_utf8(&body).map_err(|e| e.to_string())?)
        .map_err(|e| format!("metrics JSON: {e}"))?
        .get("resilience")
        .and_then(|v| v.get(name))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("metrics missing resilience.{name}"))
}

fn healthz(addr: &str) -> Result<String, String> {
    let (status, body) = client_request(addr, "GET", "/healthz", "", b"")?;
    if status != 200 {
        return Err(format!("GET /healthz: status {status}"));
    }
    Ok(parse(std::str::from_utf8(&body).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?
        .get("status")
        .and_then(Value::as_str)
        .unwrap_or("missing")
        .to_string())
}

/// One drip-feeding connection: a valid header prefix, then silence past
/// the server's request deadline. Returns the status line's code.
fn slowloris(addr: &str) -> Result<u16, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.write_all(b"POST /v1/encode HTTP/1.1\r\nContent-Le")
        .map_err(|e| format!("send: {e}"))?;
    // Outlive the deadline without ever closing our side.
    std::thread::sleep(CHAOS_DEADLINE + Duration::from_millis(150));
    s.set_read_timeout(Some(Duration::from_secs(5))).map_err(|e| e.to_string())?;
    let mut reply = Vec::new();
    let _ = s.read_to_end(&mut reply);
    let text = String::from_utf8_lossy(&reply);
    text.split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("no status line in slowloris reply {text:?}"))
}

/// Runs the scripted chaos scenario against a fresh loopback server and
/// returns the deterministic report.
///
/// # Errors
///
/// A description of the first step that did not match the resilience
/// contract (which also means the report would not be reproducible).
pub fn serve_chaos() -> Result<Value, String> {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
        request_deadline: CHAOS_DEADLINE,
        chaos_endpoints: true,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("start: {e}"))?;
    let addr = server.addr().to_string();

    let initial_health = healthz(&addr)?;

    // 1. Injected handler panic → 500, worker survives.
    let (panic_status, _) = client_request(&addr, "POST", "/__chaos/panic", "", b"")?;
    let after_panic = client_request(
        &addr,
        "POST",
        "/v1/analyze",
        "application/json",
        b"{\"values\": [0.5, -0.25, 0.125]}",
    )?
    .0;

    // 2. Hard worker death → supervisor respawns, capacity restored.
    let (exit_status, _) = client_request(&addr, "POST", "/__chaos/exit-worker", "", b"")?;
    let respawn_deadline = Instant::now() + RESPAWN_WAIT;
    loop {
        if metric(&addr, "workers_respawned")? >= 1.0 {
            break;
        }
        if Instant::now() >= respawn_deadline {
            return Err("supervisor never respawned the killed worker".into());
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let after_respawn = client_request(
        &addr,
        "POST",
        "/v1/encode",
        "application/json",
        b"{\"values\": [0.1, 0.2, 0.3, 0.4]}",
    )?
    .0;

    // 3. Slowloris → shed with 408 at the deadline.
    let slowloris_status = slowloris(&addr)?;

    // 4. Raw garbage and an instant disconnect → shrugged off.
    drop(TcpStream::connect(&addr).map_err(|e| format!("connect: {e}"))?);
    {
        let mut s = TcpStream::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        let _ = s.write_all(&[0x00, 0xFF, 0x13, 0x37, 0x00, 0x7F]);
    }
    let final_health = healthz(&addr)?;

    let panics_total = metric(&addr, "panics_total")?;
    let workers_respawned = metric(&addr, "workers_respawned")?;
    let deadline_408 = metric(&addr, "deadline_408")?;

    server.shutdown();
    server.join();

    let report = Value::object([
        ("initial_health", Value::Str(initial_health.clone())),
        ("panic_status", Value::Num(f64::from(panic_status))),
        ("request_after_panic", Value::Num(f64::from(after_panic))),
        ("exit_worker_status", Value::Num(f64::from(exit_status))),
        ("request_after_respawn", Value::Num(f64::from(after_respawn))),
        ("slowloris_status", Value::Num(f64::from(slowloris_status))),
        ("final_health", Value::Str(final_health.clone())),
        ("panics_total", Value::Num(panics_total)),
        ("workers_respawned", Value::Num(workers_respawned)),
        ("deadline_408", Value::Num(deadline_408)),
    ]);

    // The contract check doubles as the determinism check: every field
    // has exactly one passing value.
    let expect = [
        ("initial_health", initial_health == "ok"),
        ("panic_status", panic_status == 500),
        ("request_after_panic", after_panic == 200),
        ("exit_worker_status", exit_status == 200),
        ("request_after_respawn", after_respawn == 200),
        ("slowloris_status", slowloris_status == 408),
        ("final_health", final_health == "degraded"),
        ("panics_total", panics_total == 1.0),
        ("workers_respawned", workers_respawned == 1.0),
        ("deadline_408", deadline_408 == 1.0),
    ];
    for (field, ok) in expect {
        if !ok {
            return Err(format!(
                "chaos contract violated at {field}: {}",
                report.to_string_compact()
            ));
        }
    }
    Ok(report)
}

/// Reads a per-shard counter out of the `/metrics` snapshot.
fn shard_metric(addr: &str, shard: usize, name: &str) -> Result<f64, String> {
    let (status, body) = client_request(addr, "GET", "/metrics", "", b"")?;
    if status != 200 {
        return Err(format!("GET /metrics: status {status}"));
    }
    let snapshot = parse(std::str::from_utf8(&body).map_err(|e| e.to_string())?)
        .map_err(|e| format!("metrics JSON: {e}"))?;
    let shards = snapshot
        .get("shards")
        .and_then(Value::as_array)
        .ok_or("metrics missing shards array")?;
    shards
        .iter()
        .find(|s| s.get("shard").and_then(Value::as_f64) == Some(shard as f64))
        .and_then(|s| s.get(name))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("metrics missing shards[{shard}].{name}"))
}

/// First tenant id of the form `ct-<n>` that the ring maps to `shard`.
fn probe_tenant(ring: &HashRing, shard: usize) -> Result<String, String> {
    (0..10_000)
        .map(|n| format!("ct-{n}"))
        .find(|t| ring.shard_for(t) == shard)
        .ok_or_else(|| format!("no probe tenant found for shard {shard}"))
}

fn tenant_request(addr: &str, tenant: &str) -> Result<u16, String> {
    Ok(client_request_with_headers(
        addr,
        "POST",
        "/v1/analyze",
        "application/json",
        &[("X-Spark-Tenant", tenant)],
        b"{\"values\": [0.5, -0.25, 0.125, 0.75]}",
    )?
    .0)
}

/// Scripted shard-loss scenario: kill every worker of one shard while
/// the other shard keeps taking traffic, then watch the supervisor
/// restore the dead pool.
///
/// Like [`serve_chaos`], every report field is a status code, an exact
/// counter, or an invariant bool — never a timing — so two runs are
/// byte-identical.
///
/// # Errors
///
/// A description of the first step that violated the isolation or
/// respawn contract.
pub fn shard_chaos() -> Result<Value, String> {
    const SHARDS: usize = 2;
    const WORKERS_PER_SHARD: usize = 2;
    /// Requests the surviving shard serves while its neighbor is dead.
    const SURVIVOR_REQUESTS: usize = 8;
    /// The "bounded tail" bar for the surviving shard during the outage:
    /// generous against scheduler noise, damning if the dead shard's
    /// work were leaking over.
    const SURVIVOR_LATENCY_BOUND: Duration = Duration::from_secs(2);

    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        shards: SHARDS,
        shard_workers: WORKERS_PER_SHARD,
        queue_depth: 32,
        shard_queue: 16,
        chaos_endpoints: true,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("start: {e}"))?;
    let addr = server.addr().to_string();

    // The server derives shard placement from the same ring construction,
    // so probing a standalone ring tells us which tenant lands where.
    let ring = HashRing::new(SHARDS);
    let victim_tenant = probe_tenant(&ring, 0)?;
    let survivor_tenant = probe_tenant(&ring, 1)?;

    let initial_health = healthz(&addr)?;
    let victim_before = tenant_request(&addr, &victim_tenant)?;
    let survivor_before = tenant_request(&addr, &survivor_tenant)?;

    // Kill the whole victim pool: each exit-worker request answers 200
    // and then takes its worker down, so two requests empty the pool.
    let mut kill_statuses = Vec::new();
    for _ in 0..WORKERS_PER_SHARD {
        let (status, _) = client_request_with_headers(
            &addr,
            "POST",
            "/__chaos/exit-worker",
            "",
            &[("X-Spark-Tenant", victim_tenant.as_str())],
            b"",
        )?;
        kill_statuses.push(status);
    }

    // The surviving shard must not notice: every request lands 200 and
    // stays far under the latency bound.
    let mut survivor_ok = 0usize;
    let mut survivor_bounded = true;
    for _ in 0..SURVIVOR_REQUESTS {
        let t0 = Instant::now();
        if tenant_request(&addr, &survivor_tenant)? == 200 {
            survivor_ok += 1;
        }
        survivor_bounded &= t0.elapsed() < SURVIVOR_LATENCY_BOUND;
    }

    // A victim-tenant request queues until the supervisor refills the
    // pool — delayed, never lost.
    let victim_during = tenant_request(&addr, &victim_tenant)?;

    let respawn_deadline = Instant::now() + RESPAWN_WAIT;
    loop {
        if shard_metric(&addr, 0, "workers_respawned")? >= WORKERS_PER_SHARD as f64 {
            break;
        }
        if Instant::now() >= respawn_deadline {
            return Err("supervisor never refilled the dead shard pool".into());
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let victim_after = tenant_request(&addr, &victim_tenant)?;
    let final_health = healthz(&addr)?;

    let panics_total = metric(&addr, "panics_total")?;
    let victim_respawned = shard_metric(&addr, 0, "workers_respawned")?;
    let survivor_respawned = shard_metric(&addr, 1, "workers_respawned")?;

    server.shutdown();
    server.join();

    let report = Value::object([
        ("initial_health", Value::Str(initial_health.clone())),
        ("victim_tenant", Value::Str(victim_tenant)),
        ("survivor_tenant", Value::Str(survivor_tenant)),
        ("victim_before", Value::Num(f64::from(victim_before))),
        ("survivor_before", Value::Num(f64::from(survivor_before))),
        (
            "kill_statuses",
            Value::Array(kill_statuses.iter().map(|&s| Value::Num(f64::from(s))).collect()),
        ),
        ("survivor_ok_during_outage", Value::Num(survivor_ok as f64)),
        ("survivor_latency_bounded", Value::Bool(survivor_bounded)),
        ("victim_during_outage", Value::Num(f64::from(victim_during))),
        ("victim_after_respawn", Value::Num(f64::from(victim_after))),
        ("final_health", Value::Str(final_health.clone())),
        ("panics_total", Value::Num(panics_total)),
        ("victim_workers_respawned", Value::Num(victim_respawned)),
        ("survivor_workers_respawned", Value::Num(survivor_respawned)),
    ]);

    let expect = [
        ("initial_health", initial_health == "ok"),
        ("victim_before", victim_before == 200),
        ("survivor_before", survivor_before == 200),
        ("kill_statuses", kill_statuses.iter().all(|&s| s == 200)),
        ("survivor_ok_during_outage", survivor_ok == SURVIVOR_REQUESTS),
        ("survivor_latency_bounded", survivor_bounded),
        ("victim_during_outage", victim_during == 200),
        ("victim_after_respawn", victim_after == 200),
        ("final_health", final_health == "degraded"),
        ("panics_total", panics_total == 0.0),
        ("victim_workers_respawned", victim_respawned == WORKERS_PER_SHARD as f64),
        ("survivor_workers_respawned", survivor_respawned == 0.0),
    ];
    for (field, ok) in expect {
        if !ok {
            return Err(format!(
                "shard chaos contract violated at {field}: {}",
                report.to_string_compact()
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_scenario_meets_the_contract_reproducibly() {
        let a = serve_chaos().unwrap();
        let b = serve_chaos().unwrap();
        assert_eq!(a.to_string_compact(), b.to_string_compact());
    }

    #[test]
    fn shard_loss_is_isolated_and_healed_reproducibly() {
        let a = shard_chaos().unwrap();
        let b = shard_chaos().unwrap();
        assert_eq!(a.to_string_compact(), b.to_string_compact());
    }
}
