//! Fleet router: a standalone process that fronts N independent
//! `spark serve --store` backends and keeps answering while any one of
//! them dies.
//!
//! The router is deliberately *thin* — it parses one request, picks an
//! admitted backend, forwards, and relays the answer. All the machinery
//! is about what happens when a backend stops answering:
//!
//! - **Circuit breaker per backend** (Closed → Open → HalfOpen →
//!   Closed): `breaker_failures` consecutive transport failures eject a
//!   backend in O(failures); after `breaker_cooldown` the prober moves
//!   it to HalfOpen and sends real `/healthz` probes — only a probe that
//!   comes back `200 {"status":"ok"}` re-admits it. Traffic never races
//!   the probe: HalfOpen backends receive probes, not requests.
//! - **Retry budget**: a global token bucket ([`shard::TokenBucket`])
//!   caps the *fleet-wide* retry rate. A degraded fleet under open-loop
//!   load would otherwise see every failure fan out into `max_attempts`
//!   more requests — the classic retry storm that turns one dead
//!   backend into three. When the budget is dry, the client gets its
//!   503 immediately instead of amplifying.
//! - **Capped exponential backoff with seeded jitter**: retries wait
//!   `backoff_base · 2^attempt` (capped at `backoff_cap`) plus a jitter
//!   drawn from a per-worker PRNG seeded from [`RouterConfig::seed`], so
//!   retry timing is reproducible under a fixed seed and synchronized
//!   retry herds cannot form.
//! - **Active + passive health accounting**: the prober probes *every*
//!   backend each tick (active), and the forwarding path feeds
//!   successes/failures into the same counters (passive) — a backend
//!   can be ejected by failing traffic before the prober ever notices.
//!
//! The forwarding path is on the no-unwrap/no-panic contract: every
//! lock uses the poison-recovering idiom and every I/O error is typed
//! or relayed, never unwrapped.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spark_util::json::Value;
use spark_util::par::{channel, Receiver, TrySendError};
use spark_util::Rng;

use crate::http::{self, ClientError, ClientResponse};
use crate::shard::TokenBucket;

/// Knobs for one router process.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Backend addresses (`host:port`), the replica set.
    pub backends: Vec<String>,
    /// Forwarding worker threads.
    pub workers: usize,
    /// Prober cadence; each backend is probed once per tick.
    pub probe_interval: Duration,
    /// Overall per-request deadline across all retry attempts.
    pub request_deadline: Duration,
    /// Maximum forward attempts per request (1 = no retries).
    pub max_attempts: usize,
    /// Retry budget refill rate, retries/second, fleet-wide.
    pub retry_budget_rps: f64,
    /// Retry budget burst capacity.
    pub retry_budget_burst: f64,
    /// Consecutive transport failures that open a backend's breaker.
    pub breaker_failures: u32,
    /// How long an open breaker waits before allowing a half-open probe.
    pub breaker_cooldown: Duration,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Request body cap relayed to clients as 413.
    pub max_body_bytes: usize,
    /// Seed for retry jitter and probe scheduling.
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            workers: 4,
            probe_interval: Duration::from_millis(200),
            request_deadline: Duration::from_secs(10),
            max_attempts: 3,
            retry_budget_rps: 50.0,
            retry_budget_burst: 25.0,
            breaker_failures: 3,
            breaker_cooldown: Duration::from_millis(500),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(100),
            max_body_bytes: 8 * 1024 * 1024,
            seed: 0x51AB_0007,
        }
    }
}

/// Breaker states. Traffic flows only to `Closed` backends; `HalfOpen`
/// backends receive health probes until one passes or fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    /// Healthy: receives traffic.
    Closed,
    /// Ejected: no traffic, no probes until the cooldown elapses.
    Open,
    /// Cooldown elapsed: probing; one good probe re-admits.
    HalfOpen,
}

impl Breaker {
    fn name(self) -> &'static str {
        match self {
            Breaker::Closed => "closed",
            Breaker::Open => "open",
            Breaker::HalfOpen => "half_open",
        }
    }
}

/// One backend's registry entry: address, breaker, and counters.
struct Backend {
    addr: String,
    /// `(state, open_until)` — `open_until` is meaningful in `Open`.
    state: Mutex<(Breaker, Instant)>,
    consecutive_failures: AtomicU32,
    forwarded: AtomicU64,
    errors: AtomicU64,
    ejections: AtomicU64,
    readmissions: AtomicU64,
}

impl Backend {
    fn new(addr: String, now: Instant) -> Self {
        Self {
            addr,
            state: Mutex::new((Breaker::Closed, now)),
            consecutive_failures: AtomicU32::new(0),
            forwarded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            ejections: AtomicU64::new(0),
            readmissions: AtomicU64::new(0),
        }
    }

    fn breaker(&self) -> Breaker {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).0
    }

    fn admitted(&self) -> bool {
        self.breaker() == Breaker::Closed
    }

    /// Traffic or probe success: failures reset; a half-open backend is
    /// re-admitted.
    fn note_success(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.0 == Breaker::HalfOpen {
            s.0 = Breaker::Closed;
            self.readmissions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Traffic or probe transport failure: counts toward ejection; a
    /// half-open backend goes straight back to Open.
    fn note_failure(&self, threshold: u32, cooldown: Duration) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        let fails = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match s.0 {
            Breaker::Closed if fails >= threshold => {
                s.0 = Breaker::Open;
                s.1 = Instant::now() + cooldown;
                self.ejections.fetch_add(1, Ordering::Relaxed);
            }
            Breaker::HalfOpen => {
                s.0 = Breaker::Open;
                s.1 = Instant::now() + cooldown;
            }
            _ => {}
        }
    }

    /// Prober tick: move an expired Open to HalfOpen. Returns whether
    /// this backend wants a probe this tick.
    fn tick(&self, now: Instant) -> bool {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match s.0 {
            Breaker::Open if now >= s.1 => {
                s.0 = Breaker::HalfOpen;
                true
            }
            Breaker::Open => false,
            // Closed and HalfOpen are both actively probed.
            _ => true,
        }
    }
}

/// Shared router state.
struct RouterCtx {
    cfg: RouterConfig,
    addr: SocketAddr,
    backends: Vec<Backend>,
    shutdown: AtomicBool,
    next_rr: AtomicU64,
    retry_budget: TokenBucket,
    forwarded_total: AtomicU64,
    retries_total: AtomicU64,
    retry_budget_denied: AtomicU64,
    no_backend_503: AtomicU64,
    panics_total: AtomicU64,
}

impl RouterCtx {
    /// Round-robin pick over currently admitted backends.
    fn pick(&self) -> Option<&Backend> {
        let admitted: Vec<&Backend> =
            self.backends.iter().filter(|b| b.admitted()).collect();
        if admitted.is_empty() {
            return None;
        }
        let n = self.next_rr.fetch_add(1, Ordering::Relaxed) as usize;
        admitted.get(n % admitted.len()).copied()
    }
}

/// A running router; mirrors [`crate::Server`]'s lifecycle.
pub struct Router {
    addr: SocketAddr,
    ctx: Arc<RouterCtx>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    prober: JoinHandle<()>,
}

impl Router {
    /// Binds and starts accepting. Backends are assumed healthy until
    /// probes or traffic prove otherwise.
    ///
    /// # Errors
    ///
    /// Bind/spawn failures, or an empty backend list.
    pub fn start(cfg: RouterConfig) -> std::io::Result<Router> {
        if cfg.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let now = Instant::now();
        let backends: Vec<Backend> =
            cfg.backends.iter().map(|a| Backend::new(a.clone(), now)).collect();
        let retry_budget = TokenBucket::new(cfg.retry_budget_rps, cfg.retry_budget_burst, now);
        let ctx = Arc::new(RouterCtx {
            addr,
            backends,
            shutdown: AtomicBool::new(false),
            next_rr: AtomicU64::new(0),
            retry_budget,
            forwarded_total: AtomicU64::new(0),
            retries_total: AtomicU64::new(0),
            retry_budget_denied: AtomicU64::new(0),
            no_backend_503: AtomicU64::new(0),
            panics_total: AtomicU64::new(0),
            cfg,
        });

        let (conn_tx, conn_rx) = channel::<TcpStream>(64);
        let workers = (0..ctx.cfg.workers.max(1))
            .map(|id| {
                let rx = conn_rx.clone();
                let ctx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name(format!("spark-router-fwd-{id}"))
                    .spawn(move || worker_loop(id, rx, ctx))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        drop(conn_rx);

        let prober = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("spark-router-prober".into())
                .spawn(move || prober_loop(ctx))?
        };

        let acceptor = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("spark-router-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if ctx.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let stream = match stream {
                            Ok(s) => s,
                            Err(_) => continue,
                        };
                        match conn_tx.try_send(stream) {
                            Ok(()) => {}
                            Err(TrySendError::Full(mut stream)) => {
                                let _ = stream.set_write_timeout(Some(http::IO_TIMEOUT));
                                let _ = http::write_json(
                                    &mut stream,
                                    503,
                                    "Service Unavailable",
                                    &error_body("router overloaded: connection queue full"),
                                );
                            }
                            Err(TrySendError::Disconnected(_)) => break,
                        }
                    }
                })?
        };

        Ok(Router { addr, ctx, acceptor, workers, prober })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Flips the shutdown flag and wakes the acceptor. Idempotent.
    pub fn shutdown(&self) {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.ctx.addr);
    }

    /// Drains: acceptor, then workers, then the prober.
    pub fn join(self) {
        let Router { ctx, acceptor, workers, prober, .. } = self;
        acceptor.join().ok();
        for w in workers {
            w.join().ok();
        }
        drop(ctx);
        prober.join().ok();
    }
}

fn error_body(message: &str) -> Value {
    Value::object([("error", Value::Str(message.into()))])
}

/// Canonical reason phrases for relayed statuses; anything unlisted
/// relays with a neutral phrase (clients key on the code).
fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

fn worker_loop(id: usize, rx: Receiver<TcpStream>, ctx: Arc<RouterCtx>) {
    // Per-worker jitter PRNG: reproducible under a fixed seed, but
    // decorrelated across workers so retry herds cannot synchronize.
    let mut rng = Rng::seed_from_u64(ctx.cfg.seed ^ (id as u64).wrapping_mul(0x9E37_79B9));
    while let Some(mut stream) = rx.recv() {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(&mut stream, &ctx, &mut rng);
        }));
        if outcome.is_err() {
            ctx.panics_total.fetch_add(1, Ordering::Relaxed);
            let _ = http::write_json(
                &mut stream,
                500,
                "Internal Server Error",
                &error_body("router worker panicked; request aborted"),
            );
        }
    }
}

fn handle_connection(stream: &mut TcpStream, ctx: &RouterCtx, rng: &mut Rng) {
    let req = match http::read_request(stream, ctx.cfg.max_body_bytes, http::REQUEST_DEADLINE) {
        Ok(r) => r,
        Err(http::HttpError::Io(_)) => return,
        Err(e) => {
            let (status, reason, message) = e.status();
            let _ = http::write_json(stream, status, reason, &error_body(&message));
            return;
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let admitted = ctx.backends.iter().filter(|b| b.admitted()).count();
            let status = if admitted == ctx.backends.len() {
                "ok"
            } else if admitted > 0 {
                "degraded"
            } else {
                "unavailable"
            };
            let body = Value::object([
                ("status", Value::Str(status.into())),
                ("backends", Value::Num(ctx.backends.len() as f64)),
                ("admitted", Value::Num(admitted as f64)),
            ]);
            let _ = http::write_json(stream, 200, "OK", &body);
        }
        ("GET", "/metrics") => {
            let _ = http::write_json(stream, 200, "OK", &metrics_body(ctx));
        }
        ("POST", "/shutdown") => {
            let _ = http::write_json(
                stream,
                200,
                "OK",
                &Value::object([("status", Value::Str("shutting down".into()))]),
            );
            ctx.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(ctx.addr);
        }
        _ => forward(stream, &req, ctx, rng),
    }
}

fn metrics_body(ctx: &RouterCtx) -> Value {
    let backends = Value::object(ctx.backends.iter().map(|b| {
        (
            b.addr.as_str(),
            Value::object([
                ("state", Value::Str(b.breaker().name().into())),
                ("forwarded", Value::Num(b.forwarded.load(Ordering::Relaxed) as f64)),
                ("errors", Value::Num(b.errors.load(Ordering::Relaxed) as f64)),
                ("ejections", Value::Num(b.ejections.load(Ordering::Relaxed) as f64)),
                (
                    "readmissions",
                    Value::Num(b.readmissions.load(Ordering::Relaxed) as f64),
                ),
            ]),
        )
    }));
    Value::object([
        (
            "router",
            Value::object([
                ("forwarded", Value::Num(ctx.forwarded_total.load(Ordering::Relaxed) as f64)),
                ("retries", Value::Num(ctx.retries_total.load(Ordering::Relaxed) as f64)),
                (
                    "retry_budget_denied",
                    Value::Num(ctx.retry_budget_denied.load(Ordering::Relaxed) as f64),
                ),
                (
                    "no_backend_503",
                    Value::Num(ctx.no_backend_503.load(Ordering::Relaxed) as f64),
                ),
                ("panics_total", Value::Num(ctx.panics_total.load(Ordering::Relaxed) as f64)),
            ]),
        ),
        ("backends", backends),
    ])
}

/// The forwarding path: pick → forward → relay, with bounded retries on
/// transport failure only. HTTP-level errors (4xx/5xx) from a backend
/// are *relayed*, never retried: the backend answered, and replaying a
/// non-idempotent request against a second replica is how you get
/// duplicate effects.
fn forward(stream: &mut TcpStream, req: &http::Request, ctx: &RouterCtx, rng: &mut Rng) {
    let started = Instant::now();
    let target = if req.query.is_empty() {
        req.path.clone()
    } else {
        format!("{}?{}", req.path, req.query)
    };
    // Forward tenant identity and content type; everything else is
    // hop-local (Content-Length is recomputed, Connection is close).
    let mut fwd_headers: Vec<(&str, &str)> = Vec::new();
    if let Some(tenant) = req.header("x-spark-tenant") {
        fwd_headers.push(("X-Spark-Tenant", tenant));
    }
    let mut attempt = 0usize;
    loop {
        let Some(backend) = ctx.pick() else {
            ctx.no_backend_503.fetch_add(1, Ordering::Relaxed);
            let _ = http::write_json(
                stream,
                503,
                "Service Unavailable",
                &error_body("no admitted backends"),
            );
            return;
        };
        match http::client_call(
            &backend.addr,
            &req.method,
            &target,
            req.content_type(),
            &fwd_headers,
            &req.body,
        ) {
            Ok(resp) => {
                backend.note_success();
                backend.forwarded.fetch_add(1, Ordering::Relaxed);
                ctx.forwarded_total.fetch_add(1, Ordering::Relaxed);
                relay(stream, &resp);
                return;
            }
            Err(err) => {
                backend.note_failure(ctx.cfg.breaker_failures, ctx.cfg.breaker_cooldown);
                attempt += 1;
                let out_of_time = started.elapsed() >= ctx.cfg.request_deadline;
                if attempt >= ctx.cfg.max_attempts.max(1) || out_of_time {
                    let _ = http::write_json(
                        stream,
                        503,
                        "Service Unavailable",
                        &error_body(&format!(
                            "backend unavailable after {attempt} attempt(s): {err}"
                        )),
                    );
                    return;
                }
                // A retry is *extra* load on a degraded fleet; it must
                // fit the global budget or the client eats the 503 now.
                if ctx.retry_budget.try_take(Instant::now(), 1.0).is_err() {
                    ctx.retry_budget_denied.fetch_add(1, Ordering::Relaxed);
                    let _ = http::write_json(
                        stream,
                        503,
                        "Service Unavailable",
                        &error_body(&format!("retry budget exhausted after: {err}")),
                    );
                    return;
                }
                ctx.retries_total.fetch_add(1, Ordering::Relaxed);
                let shift = (attempt - 1).min(16) as u32;
                let backoff = ctx
                    .cfg
                    .backoff_base
                    .saturating_mul(1u32 << shift)
                    .min(ctx.cfg.backoff_cap);
                let jitter_us = if ctx.cfg.backoff_base.as_micros() > 0 {
                    rng.gen_below(ctx.cfg.backoff_base.as_micros() as u64)
                } else {
                    0
                };
                let wait = backoff + Duration::from_micros(jitter_us);
                let remaining = ctx.cfg.request_deadline.saturating_sub(started.elapsed());
                std::thread::sleep(wait.min(remaining));
            }
        }
    }
}

/// Relays a backend response verbatim: status, content type, the
/// `Retry-After` hint when present, and the body bytes untouched —
/// byte-transparency is what makes the cross-replica differential
/// oracle (identical bodies from identical replicas) meaningful.
fn relay(stream: &mut TcpStream, resp: &ClientResponse) {
    let content_type = resp.header("content-type").unwrap_or("application/json");
    let mut extra: Vec<(&str, String)> = Vec::new();
    if let Some(ra) = resp.header("retry-after") {
        extra.push(("Retry-After", ra.to_string()));
    }
    let _ = http::write_response_with_headers(
        stream,
        resp.status,
        reason_for(resp.status),
        content_type,
        &extra,
        &resp.body,
    );
}

/// The prober: every tick, each backend that wants a probe gets a real
/// `GET /healthz`; a half-open backend that answers `200 {"status":"ok"}`
/// is re-admitted, any probe transport failure counts toward (or
/// renews) ejection. A backend that answers but reports `degraded` is
/// left as-is: it is alive (keep traffic if Closed) but not proven
/// healed (no half-open re-admission).
fn prober_loop(ctx: Arc<RouterCtx>) {
    let mut rng = Rng::seed_from_u64(ctx.cfg.seed ^ 0x9120_BE57);
    while !ctx.shutdown.load(Ordering::SeqCst) {
        // Jittered tick so N routers probing one fleet cannot phase-lock.
        let base = ctx.cfg.probe_interval.as_micros() as u64;
        let tick = base + rng.gen_below(base.max(1) / 4 + 1);
        std::thread::sleep(Duration::from_micros(tick));
        let now = Instant::now();
        for b in &ctx.backends {
            if !b.tick(now) {
                continue;
            }
            match http::client_call(&b.addr, "GET", "/healthz", "", &[], b"") {
                Ok(resp) if resp.status == 200 => {
                    let healthy = std::str::from_utf8(&resp.body)
                        .ok()
                        .and_then(|t| spark_util::json::parse(t).ok())
                        .and_then(|v| {
                            v.get("status").and_then(|s| s.as_str().map(String::from))
                        })
                        .map(|s| s == "ok")
                        .unwrap_or(false);
                    if healthy {
                        b.note_success();
                    }
                    // Alive but degraded: leave the breaker where it is.
                }
                Ok(_) => {
                    // An HTTP error from /healthz is a sick backend.
                    b.note_failure(ctx.cfg.breaker_failures, ctx.cfg.breaker_cooldown);
                }
                Err(ClientError::Connect(_))
                | Err(ClientError::Timeout(_))
                | Err(ClientError::ShortBody(_))
                | Err(ClientError::Protocol(_)) => {
                    b.note_failure(ctx.cfg.breaker_failures, ctx.cfg.breaker_cooldown);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, Server};

    fn backend() -> Server {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            shards: 1,
            shard_workers: 2,
            queue_depth: 64,
            shard_queue: 32,
            max_batch: 8,
            ..ServeConfig::default()
        })
        .unwrap()
    }

    fn quick_router(backends: Vec<String>) -> Router {
        Router::start(RouterConfig {
            backends,
            probe_interval: Duration::from_millis(30),
            breaker_cooldown: Duration::from_millis(120),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            ..RouterConfig::default()
        })
        .unwrap()
    }

    fn get(addr: &str, path: &str) -> (u16, Value) {
        let resp = http::client_call(addr, "GET", path, "", &[], b"").unwrap();
        let v = spark_util::json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        (resp.status, v)
    }

    #[test]
    fn router_forwards_and_reports_fleet_health() {
        let b1 = backend();
        let b2 = backend();
        let router =
            quick_router(vec![b1.addr().to_string(), b2.addr().to_string()]);
        let addr = router.addr().to_string();

        let (status, health) = get(&addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(health.get("admitted").unwrap().as_f64(), Some(2.0));

        // Real work forwards: encode via the router, round-robin spreads.
        let raw: Vec<u8> = (0..512u32).flat_map(|i| (i as f32 * 0.1).to_le_bytes()).collect();
        for _ in 0..6 {
            let resp = http::client_call(
                &addr,
                "POST",
                "/v1/encode",
                "application/octet-stream",
                &[],
                &raw,
            )
            .unwrap();
            assert_eq!(resp.status, 200);
            let v =
                spark_util::json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            assert_eq!(v.get("elements").unwrap().as_f64(), Some(512.0));
        }
        let (_, m) = get(&addr, "/metrics");
        assert_eq!(
            m.get("router").unwrap().get("forwarded").unwrap().as_f64(),
            Some(6.0)
        );
        let backends = m.get("backends").unwrap();
        for b in [&b1, &b2] {
            let fwd = backends
                .get(&b.addr().to_string())
                .unwrap()
                .get("forwarded")
                .unwrap()
                .as_f64()
                .unwrap();
            assert!(fwd >= 2.0, "round robin must spread, got {fwd}");
        }

        router.shutdown();
        router.join();
        b1.shutdown();
        b1.join();
        b2.shutdown();
        b2.join();
    }

    #[test]
    fn dead_backend_is_ejected_and_traffic_keeps_flowing() {
        let b1 = backend();
        let b2 = backend();
        let dead_addr = b2.addr().to_string();
        let router =
            quick_router(vec![b1.addr().to_string(), dead_addr.clone()]);
        let addr = router.addr().to_string();
        // Kill b2 before any traffic: half the picks hit a corpse.
        b2.shutdown();
        b2.join();

        for _ in 0..12 {
            let resp = http::client_call(&addr, "GET", "/v1/tensors/none", "", &[], b"");
            // Every request must get an HTTP answer (404 from the live
            // backend's store, or a 503 only if retries were exhausted —
            // never a transport error surfaced to the client).
            let resp = resp.expect("router must always answer");
            assert!(resp.status == 404 || resp.status == 503, "status {}", resp.status);
        }
        // The breaker must have ejected the dead backend by now.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (_, m) = get(&addr, "/metrics");
            let state = m
                .get("backends")
                .unwrap()
                .get(&dead_addr)
                .unwrap()
                .get("state")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            if state != "closed" {
                break;
            }
            assert!(Instant::now() < deadline, "breaker never opened");
            std::thread::sleep(Duration::from_millis(20));
        }
        // With the corpse ejected, requests are clean first-try 404s.
        let resp = http::client_call(&addr, "GET", "/v1/tensors/none", "", &[], b"").unwrap();
        assert_eq!(resp.status, 404);

        router.shutdown();
        router.join();
        b1.shutdown();
        b1.join();
    }

    #[test]
    fn restarted_backend_is_readmitted_via_half_open_probes() {
        let b1 = backend();
        let b2 = backend();
        let port = b2.addr().port();
        let dead_addr = b2.addr().to_string();
        let router =
            quick_router(vec![b1.addr().to_string(), dead_addr.clone()]);
        let addr = router.addr().to_string();
        b2.shutdown();
        b2.join();

        // Let the prober eject the corpse.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (_, m) = get(&addr, "/metrics");
            let ejections = m
                .get("backends")
                .unwrap()
                .get(&dead_addr)
                .unwrap()
                .get("ejections")
                .unwrap()
                .as_f64()
                .unwrap();
            if ejections >= 1.0 {
                break;
            }
            assert!(Instant::now() < deadline, "prober never ejected the corpse");
            std::thread::sleep(Duration::from_millis(20));
        }

        // Resurrect a backend on the same port; half-open probes must
        // re-admit it without any traffic help.
        let revived = Server::start(ServeConfig {
            addr: format!("127.0.0.1:{port}"),
            workers: 2,
            shards: 1,
            shard_workers: 2,
            queue_depth: 64,
            shard_queue: 32,
            max_batch: 8,
            ..ServeConfig::default()
        })
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (_, m) = get(&addr, "/metrics");
            let entry = m.get("backends").unwrap().get(&dead_addr).unwrap().clone();
            let state = entry.get("state").unwrap().as_str().unwrap().to_string();
            let readmissions = entry.get("readmissions").unwrap().as_f64().unwrap();
            if state == "closed" && readmissions >= 1.0 {
                break;
            }
            assert!(Instant::now() < deadline, "healed backend never re-admitted");
            std::thread::sleep(Duration::from_millis(30));
        }
        let (_, health) = get(&addr, "/healthz");
        assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));

        router.shutdown();
        router.join();
        b1.shutdown();
        b1.join();
        revived.shutdown();
        revived.join();
    }

    #[test]
    fn retry_budget_bounds_the_retry_storm() {
        // Every backend is a corpse; with a zero-refill, tiny-burst
        // budget, total retries across many failing requests must not
        // exceed the burst — the storm is capped, clients fail fast.
        let doomed = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead = doomed.local_addr().unwrap().to_string();
        drop(doomed);
        let router = Router::start(RouterConfig {
            backends: vec![dead],
            retry_budget_rps: 0.0001, // effectively no refill over the test
            retry_budget_burst: 3.0,
            breaker_failures: 1_000_000, // keep the corpse admitted
            probe_interval: Duration::from_secs(30),
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(1),
            ..RouterConfig::default()
        })
        .unwrap();
        let addr = router.addr().to_string();
        for _ in 0..20 {
            let resp = http::client_call(&addr, "GET", "/v1/tensors/x", "", &[], b"").unwrap();
            assert_eq!(resp.status, 503);
        }
        let (_, m) = get(&addr, "/metrics");
        let retries = m.get("router").unwrap().get("retries").unwrap().as_f64().unwrap();
        let denied =
            m.get("router").unwrap().get("retry_budget_denied").unwrap().as_f64().unwrap();
        assert!(retries <= 3.0, "budget burst of 3 but {retries} retries happened");
        assert!(denied >= 10.0, "most requests must be denied retries, got {denied}");
        router.shutdown();
        router.join();
    }
}
