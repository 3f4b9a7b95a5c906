//! The serving core: acceptor, router pool, sharded worker pools,
//! endpoints, metrics, graceful shutdown.
//!
//! Thread topology (all plain `std::thread`, sized at startup, no spawn
//! per request):
//!
//! ```text
//! acceptor ──try_send──▶ conn queue ──recv──▶ routers (config.workers)
//!     │ full → 503                              │ read + parse request
//!                                               │ control endpoints inline
//!                                               │ tenant → token bucket → 429
//!                                               │ ring.shard_for(tenant)
//!                                               ├─try_send─▶ shard 0 queue ─▶ shard workers
//!                                               ├─try_send─▶ shard 1 queue ─▶ shard workers
//!                                               │ full → 503 + per-shard metric
//! ```
//!
//! Requests are assigned to a *tenant* (the `X-Spark-Tenant` header, or
//! `"default"`) and consistent-hashed onto one of `config.shards`
//! independent shard pools, each with its own bounded queue, workers
//! and metrics. A shard worker runs its request's whole pipeline inline:
//! the codec, simulator and model calls work one request at a time, so
//! there is nothing to coalesce. Isolation is the point: a tenant that
//! floods its shard's queue gets that shard's 503s (and, with quotas on,
//! its own 429s before even reaching the queue) while tenants hashed to
//! other shards keep their latency.
//!
//! Backpressure is explicit at both tiers: the conn queue and every
//! shard queue are bounded with `try_send`, so overload turns into an
//! immediate typed 503/429 rather than an unbounded backlog. Control
//! endpoints (`/healthz`, `/metrics`, `/shutdown`) are answered by the
//! routers themselves — observability stays responsive however deep the
//! shard queues are.
//!
//! Shutdown is a cascade with no special-case signaling beyond one
//! atomic flag: `shutdown()` sets the flag and self-connects to wake
//! `accept()`; the acceptor exits, dropping the conn queue's only
//! sender; routers drain the conn queue and exit, dropping the shard
//! queue senders; shard workers drain their queues and exit, and
//! [`Server::join`] returns. Every request accepted before the flag
//! flipped gets a full response.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spark_sim::{Accelerator, SimConfig};
use spark_store::{BlockStore, StoreError};
use spark_util::json::Value;
use spark_util::par::{Receiver, Sender, TrySendError};

use crate::api;
use crate::http::{self, HttpError, Request};
use crate::io::f32_from_bytes;
use crate::metrics::{EndpointStats, Metrics};
use crate::shard::{validate_tenant, TenantState, Tenants, DEFAULT_TENANT};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Router threads reading and dispatching connections.
    pub workers: usize,
    /// Bound of the accepted-connection queue; overflow answers 503.
    pub queue_depth: usize,
    /// Number of independent shard worker pools tenants hash onto.
    pub shards: usize,
    /// Worker threads per shard pool.
    pub shard_workers: usize,
    /// Bound of each shard's job queue; overflow answers 503.
    pub shard_queue: usize,
    /// Per-tenant sustained admission rate in cost units/second (a cheap
    /// request charges 1 unit; see [`endpoint_cost`]); `0` disables
    /// quotas entirely.
    pub quota_rps: f64,
    /// Per-tenant banked cost units on top of `quota_rps`.
    pub quota_burst: f64,
    /// Request body cap in bytes.
    pub max_body_bytes: usize,
    /// Overall wall-clock budget for reading one request (slowloris
    /// shedding); the per-read [`http::IO_TIMEOUT`] still bounds idle gaps.
    pub request_deadline: Duration,
    /// Enables the `POST /__chaos/*` fault-injection endpoints (panic a
    /// handler, kill a shard worker). Off by default; chaos tests and
    /// `spark chaos` turn it on for loopback servers only.
    pub chaos_endpoints: bool,
    /// Directory of a persistent [`BlockStore`]. When set, the server
    /// recovers the store at startup, exposes the `/v1/tensors` CRUD
    /// plane over it, and cold-loads the `/v1/infer` model from the
    /// reserved keys ([`api::STORE_MODEL_KEYS`]) when all are present.
    pub store_dir: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            workers: 4,
            queue_depth: 64,
            shards: 1,
            shard_workers: 4,
            shard_queue: 32,
            quota_rps: 0.0,
            quota_burst: 16.0,
            max_body_bytes: 16 * 1024 * 1024,
            request_deadline: http::REQUEST_DEADLINE,
            chaos_endpoints: false,
            store_dir: None,
        }
    }
}

/// Shared state every router and shard worker holds an `Arc` of.
struct Ctx {
    metrics: Arc<Metrics>,
    tenants: Tenants,
    shutdown: AtomicBool,
    addr: SocketAddr,
    max_body: usize,
    deadline: Duration,
    chaos: bool,
    /// Number of shard pools.
    shards: usize,
    /// The `/v1/infer` model, weights resident as SPARK nibble streams.
    /// One immutable copy serves every shard worker without a lock.
    infer: api::InferModel,
    /// The persistent tensor store behind `/v1/tensors`, when attached.
    /// All shards share it — the store does its own locking and group
    /// commit, so CRUD traffic from any shard interleaves safely.
    store: Option<Arc<BlockStore>>,
}

/// A parsed request in flight from a router to a shard worker.
struct ShardJob {
    stream: TcpStream,
    req: Request,
    tenant: Arc<TenantState>,
    /// When the router started reading the request — latency is
    /// end-to-end from here, queueing included.
    started: Instant,
}

/// What a shard worker does with its thread after one job.
enum JobOutcome {
    /// Keep serving.
    Done,
    /// Exit the worker thread (chaos-injected hard death; the supervisor
    /// respawns a replacement).
    ExitWorker,
}

/// A running server. Dropping it does NOT stop the threads — call
/// [`Server::shutdown`] + [`Server::join`] (or let `POST /shutdown` set
/// the flag and just `join`).
pub struct Server {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    metrics: Arc<Metrics>,
    acceptor: JoinHandle<()>,
    routers: Arc<Mutex<Vec<Option<JoinHandle<()>>>>>,
    shard_pools: Arc<Mutex<Vec<Vec<Option<JoinHandle<()>>>>>>,
    supervisor: JoinHandle<()>,
}

impl Server {
    /// Binds, spawns the acceptor, routers, shard pools and supervisor,
    /// and returns.
    ///
    /// # Errors
    ///
    /// Bind or thread-spawn failures.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shard_count = config.shards.max(1);
        let metrics = Arc::new(Metrics::with_shards(shard_count));

        // Optional persistent tensor store: recovered before any shard
        // spins up so the cold-start model load (below) and the first
        // `/v1/tensors` request both see a consistent directory.
        let store = match &config.store_dir {
            Some(dir) => {
                Some(Arc::new(BlockStore::open(dir).map_err(std::io::Error::other)?))
            }
            None => None,
        };
        // Cold start: when the store holds the complete serving model
        // under the reserved keys, the server loads those exact nibble
        // streams instead of re-encoding from the seed. A partial model
        // is refused outright — serving half-stale weights silently would
        // break the bit-identity contract.
        let stored_model = match &store {
            Some(s) => {
                let present =
                    api::STORE_MODEL_KEYS.iter().filter(|k| s.kind_of(k).is_some()).count();
                if present == api::STORE_MODEL_KEYS.len() {
                    let mats = api::STORE_MODEL_KEYS
                        .iter()
                        .map(|k| s.get_matrix(k))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(std::io::Error::other)?;
                    Some(mats)
                } else if present > 0 {
                    return Err(std::io::Error::other(format!(
                        "store holds a partial serving model ({present} of {} reserved keys)",
                        api::STORE_MODEL_KEYS.len()
                    )));
                } else {
                    None
                }
            }
            None => None,
        };
        let infer = match stored_model {
            Some(mats) => api::InferModel::from_matrices(mats),
            None => api::InferModel::new(),
        }
        .map_err(std::io::Error::other)?;

        let ctx = Arc::new(Ctx {
            metrics: Arc::clone(&metrics),
            tenants: Tenants::new(shard_count, config.quota_rps, config.quota_burst),
            shutdown: AtomicBool::new(false),
            addr,
            max_body: config.max_body_bytes,
            deadline: config.request_deadline,
            chaos: config.chaos_endpoints,
            shards: shard_count,
            infer,
            store,
        });

        let (conn_tx, conn_rx) = spark_util::channel::<TcpStream>(config.queue_depth.max(1));

        // Shard job channels. Senders live with the routers (and the
        // supervisor, for respawns) — NOT in Ctx, so shard workers never
        // hold a sender to their own queue and the drain cascade can
        // close the channels.
        let mut shard_txs = Vec::with_capacity(shard_count);
        let mut shard_rxs = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (tx, rx) = spark_util::channel::<ShardJob>(config.shard_queue.max(1));
            shard_txs.push(tx);
            shard_rxs.push(rx);
        }
        let shard_txs: Arc<Vec<Sender<ShardJob>>> = Arc::new(shard_txs);

        let shard_pools: Arc<Mutex<Vec<Vec<Option<JoinHandle<()>>>>>> = Arc::new(Mutex::new(
            shard_rxs
                .iter()
                .enumerate()
                .map(|(sid, rx)| {
                    (0..config.shard_workers.max(1))
                        .map(|w| {
                            spawn_shard_worker(sid, w, rx.clone(), Arc::clone(&ctx)).map(Some)
                        })
                        .collect::<std::io::Result<Vec<_>>>()
                })
                .collect::<std::io::Result<Vec<_>>>()?,
        ));

        let router_count = config.workers.max(1);
        let routers: Arc<Mutex<Vec<Option<JoinHandle<()>>>>> = Arc::new(Mutex::new(
            (0..router_count)
                .map(|i| {
                    spawn_router(i, conn_rx.clone(), Arc::clone(&shard_txs), Arc::clone(&ctx))
                        .map(Some)
                })
                .collect::<std::io::Result<_>>()?,
        ));

        // The supervisor watches both tiers for threads that died (a
        // panic outside the catch boundary, or a chaos-injected exit) and
        // respawns replacements so no pool ever shrinks. It holds
        // receiver clones plus the shard sender set (needed to re-arm
        // routers); its own exit on the shutdown flag releases them
        // before `join()` waits on the shard workers.
        let supervisor = {
            let ctx = Arc::clone(&ctx);
            let routers = Arc::clone(&routers);
            let shard_pools = Arc::clone(&shard_pools);
            let conn_rx = conn_rx.clone();
            let shard_txs = Arc::clone(&shard_txs);
            let shard_rxs = shard_rxs.clone();
            std::thread::Builder::new()
                .name("spark-supervisor".into())
                .spawn(move || {
                    let mut next_id = router_count + ctx.shards;
                    while !ctx.shutdown.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(25));
                        if ctx.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        {
                            let mut pool = routers.lock().unwrap_or_else(|e| e.into_inner());
                            for slot in pool.iter_mut() {
                                if !slot
                                    .as_ref()
                                    .is_some_and(std::thread::JoinHandle::is_finished)
                                    || ctx.shutdown.load(Ordering::SeqCst)
                                {
                                    continue;
                                }
                                if let Some(dead) = slot.take() {
                                    dead.join().ok();
                                    if let Ok(h) = spawn_router(
                                        next_id,
                                        conn_rx.clone(),
                                        Arc::clone(&shard_txs),
                                        Arc::clone(&ctx),
                                    ) {
                                        *slot = Some(h);
                                        ctx.metrics
                                            .workers_respawned
                                            .fetch_add(1, Ordering::Relaxed);
                                        ctx.metrics.note_incident();
                                        next_id += 1;
                                    }
                                }
                            }
                        }
                        let mut pools = shard_pools.lock().unwrap_or_else(|e| e.into_inner());
                        for (sid, pool) in pools.iter_mut().enumerate() {
                            for slot in pool.iter_mut() {
                                // During shutdown workers finish normally
                                // as the queues drain; never respawn then.
                                if !slot
                                    .as_ref()
                                    .is_some_and(std::thread::JoinHandle::is_finished)
                                    || ctx.shutdown.load(Ordering::SeqCst)
                                {
                                    continue;
                                }
                                if let Some(dead) = slot.take() {
                                    dead.join().ok();
                                    let rx = match shard_rxs.get(sid) {
                                        Some(rx) => rx.clone(),
                                        None => continue,
                                    };
                                    if let Ok(h) =
                                        spawn_shard_worker(sid, next_id, rx, Arc::clone(&ctx))
                                    {
                                        *slot = Some(h);
                                        ctx.metrics
                                            .workers_respawned
                                            .fetch_add(1, Ordering::Relaxed);
                                        ctx.metrics.note_incident();
                                        if let Some(s) = ctx.metrics.shards.get(sid) {
                                            s.workers_respawned
                                                .fetch_add(1, Ordering::Relaxed);
                                        }
                                        next_id += 1;
                                    }
                                }
                            }
                        }
                    }
                })?
        };
        drop(conn_rx);
        drop(shard_rxs);
        drop(shard_txs);

        let acceptor = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("spark-acceptor".into())
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
                            Ok(()) => ctx.metrics.note_accept(conn_tx.len() as u64),
                            Err(TrySendError::Full(mut stream)) => {
                                ctx.metrics.rejected_503.fetch_add(1, Ordering::Relaxed);
                                let _ = stream.set_write_timeout(Some(http::IO_TIMEOUT));
                                let _ = http::write_json(
                                    &mut stream,
                                    503,
                                    "Service Unavailable",
                                    &error_body("server overloaded: connection queue full"),
                                );
                            }
                            Err(TrySendError::Disconnected(_)) => break,
                        }
                    }
                    // conn_tx drops here; routers drain the queue and exit.
                })?
        };

        Ok(Server {
            addr,
            ctx,
            metrics,
            acceptor,
            routers,
            shard_pools,
            supervisor,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Flips the shutdown flag and wakes the acceptor. Idempotent;
    /// returns immediately — pair with [`Server::join`] to drain.
    pub fn shutdown(&self) {
        request_shutdown(&self.ctx);
    }

    /// Waits for the full drain cascade: acceptor, then routers, then
    /// shard workers. Blocks until a shutdown has been
    /// requested (via [`Server::shutdown`] or `POST /shutdown`) and every
    /// accepted request has been answered.
    pub fn join(self) {
        let Server { acceptor, routers, shard_pools, supervisor, .. } = self;
        acceptor.join().ok();
        // The acceptor only exits with the shutdown flag set, so the
        // supervisor's next poll tick sees it and returns — releasing its
        // conn receiver and shard senders, which the cascade below needs.
        supervisor.join().ok();
        let pool = std::mem::take(&mut *routers.lock().unwrap_or_else(|e| e.into_inner()));
        for r in pool.into_iter().flatten() {
            r.join().ok();
        }
        // Routers and supervisor are gone: every shard sender has
        // dropped, so shard workers drain their queues and exit.
        let pools =
            std::mem::take(&mut *shard_pools.lock().unwrap_or_else(|e| e.into_inner()));
        for w in pools.into_iter().flatten().flatten() {
            w.join().ok();
        }
    }
}

fn request_shutdown(ctx: &Ctx) {
    ctx.shutdown.store(true, Ordering::SeqCst);
    // accept() has no timeout; a throwaway local connection wakes it so
    // it can observe the flag. Errors are fine — if the listener is
    // already gone there is nothing to wake.
    let _ = TcpStream::connect(ctx.addr);
}

fn error_body(message: &str) -> Value {
    Value::object([("error", Value::Str(message.into()))])
}

/// Spawns one router. The `catch_unwind` boundary is the server's
/// panic-isolation contract: a panicking parse or dispatch costs its own
/// request a 500 (plus a `panics_total` tick), never the process or the
/// pool — the stream stays owned out here so the error response is still
/// writable after the unwind.
fn spawn_router(
    id: usize,
    rx: Receiver<TcpStream>,
    shard_txs: Arc<Vec<Sender<ShardJob>>>,
    ctx: Arc<Ctx>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(format!("spark-router-{id}")).spawn(move || {
        while let Some(mut stream) = rx.recv() {
            ctx.metrics.note_dequeue(rx.len() as u64);
            match catch_unwind(AssertUnwindSafe(|| {
                route_connection(&ctx, &shard_txs, &mut stream)
            })) {
                Ok(()) => {}
                Err(_) => {
                    ctx.metrics.panics_total.fetch_add(1, Ordering::Relaxed);
                    ctx.metrics.note_incident();
                    let _ = http::write_json(
                        &mut stream,
                        500,
                        "Internal Server Error",
                        &error_body("handler panicked; worker recovered"),
                    );
                }
            }
        }
    })
}

/// The router phase of one connection: read + parse, answer control
/// endpoints and every rejection (400/408/429/503) inline, hand real
/// work to the owning shard. Requests the router terminates get their
/// latency recorded here; forwarded ones are recorded by the shard
/// worker that writes the response.
fn route_connection(ctx: &Ctx, shard_txs: &[Sender<ShardJob>], stream: &mut TcpStream) {
    let started = Instant::now();
    let req = match http::read_request(stream, ctx.max_body, ctx.deadline) {
        Ok(req) => req,
        Err(HttpError::Io(_)) => {
            // Peer vanished or stalled out; nothing to write, count it
            // against the unrouted bucket so it is not silent.
            ctx.metrics.unrouted.hit();
            ctx.metrics.unrouted.error();
            ctx.metrics.latency_us.record(elapsed_us(started));
            return;
        }
        Err(e) => {
            if matches!(e, HttpError::Deadline(_)) {
                ctx.metrics.deadline_408.fetch_add(1, Ordering::Relaxed);
            }
            ctx.metrics.unrouted.hit();
            ctx.metrics.unrouted.error();
            let (status, reason, message) = e.status();
            let _ = http::write_json(stream, status, reason, &error_body(&message));
            ctx.metrics.latency_us.record(elapsed_us(started));
            return;
        }
    };

    // Control endpoints answer from the router so observability and
    // shutdown stay responsive no matter how deep the shard queues are.
    if let Some(routed) = control_route(ctx, &req) {
        finish(ctx, stream, started, &routed);
        return;
    }

    // Tenant extraction + admission. The quota is charged before the
    // shard queue: a flooding tenant burns router time only.
    let tenant_id = req.header("x-spark-tenant").unwrap_or(DEFAULT_TENANT);
    if let Err(msg) = validate_tenant(tenant_id) {
        let routed = Routed {
            status: 400,
            reason: "Bad Request",
            body: error_body(&format!("bad X-Spark-Tenant: {msg}")),
            stats: &ctx.metrics.unrouted,
            raw: None,
        };
        finish(ctx, stream, started, &routed);
        return;
    }
    let tenant = ctx.tenants.get(tenant_id);
    if let Err(retry_after_ms) = tenant.bucket.try_take(Instant::now(), endpoint_cost(&req.path))
    {
        tenant.rejected_429.fetch_add(1, Ordering::Relaxed);
        ctx.metrics.rejected_429.fetch_add(1, Ordering::Relaxed);
        // The hint rides both channels: `retry_after_ms` in the body for
        // our own JSON clients, and a real `Retry-After` header (whole
        // seconds, rounded up, never 0) for standard HTTP clients and the
        // fleet router's backoff.
        let retry_after_s = retry_after_ms.div_ceil(1000).max(1);
        let stats = endpoint_stats(&ctx.metrics, &req.path);
        stats.hit();
        stats.error();
        let body = Value::object([
            ("error", Value::Str("tenant quota exceeded".into())),
            ("tenant", Value::Str(tenant.id.clone())),
            ("retry_after_ms", Value::Num(retry_after_ms as f64)),
        ]);
        let _ = http::write_json_with_headers(
            stream,
            429,
            "Too Many Requests",
            &[("Retry-After", retry_after_s.to_string())],
            &body,
        );
        ctx.metrics.latency_us.record(elapsed_us(started));
        return;
    }
    tenant.hits.fetch_add(1, Ordering::Relaxed);

    let shard = tenant.shard.min(shard_txs.len().saturating_sub(1));
    let Some(tx) = shard_txs.get(shard) else {
        return;
    };
    // `stream` is owned by this function's caller as a `&mut`; the job
    // needs ownership, so swap in a cheap placeholder is not possible —
    // instead clone the handle. `try_clone` shares the underlying socket.
    let Ok(owned) = stream.try_clone() else {
        let routed = Routed {
            status: 500,
            reason: "Internal Server Error",
            body: error_body("connection handle unavailable"),
            stats: endpoint_stats(&ctx.metrics, &req.path),
            raw: None,
        };
        finish(ctx, stream, started, &routed);
        return;
    };
    let job = ShardJob { stream: owned, req, tenant, started };
    match tx.try_send(job) {
        Ok(()) => {
            if let Some(s) = ctx.metrics.shards.get(shard) {
                s.note_queue(tx.len() as u64);
            }
        }
        Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => {
            ctx.metrics.rejected_503.fetch_add(1, Ordering::Relaxed);
            if let Some(s) = ctx.metrics.shards.get(shard) {
                s.rejected_503.fetch_add(1, Ordering::Relaxed);
            }
            let routed = Routed {
                status: 503,
                reason: "Service Unavailable",
                body: Value::object([
                    ("error", Value::Str(format!("shard {shard} overloaded: queue full"))),
                    ("shard", Value::Num(shard as f64)),
                ]),
                stats: endpoint_stats(&ctx.metrics, &job.req.path),
                raw: None,
            };
            finish(ctx, stream, started, &routed);
        }
    }
}

/// Writes a router-terminated response and records its metrics.
fn finish(ctx: &Ctx, stream: &mut TcpStream, started: Instant, routed: &Routed<'_>) {
    routed.stats.hit();
    if routed.status >= 400 {
        routed.stats.error();
    }
    let _ = http::write_json(stream, routed.status, routed.reason, &routed.body);
    ctx.metrics.latency_us.record(elapsed_us(started));
}

fn elapsed_us(started: Instant) -> u64 {
    (started.elapsed().as_micros() as u64).max(1)
}

/// Admission cost of one request, in quota tokens. Cheap pipeline calls
/// charge 1; the cycle-accurate simulator charges its measured CPU
/// multiple, so a tenant's quota tracks the *work* it demands rather
/// than its request count — a low-rate flood of expensive requests
/// drains its bucket as fast as a high-rate flood of cheap ones.
pub fn endpoint_cost(path: &str) -> f64 {
    match path {
        "/v1/simulate" => 16.0,
        "/v1/infer" => 2.0,
        // Tensor CRUD hits the durable store (encode + fsync on PUT).
        p if p.starts_with("/v1/tensors") => 2.0,
        _ => 1.0,
    }
}

/// The endpoint counter a rejection on `path` is charged to.
fn endpoint_stats<'a>(m: &'a Metrics, path: &str) -> &'a EndpointStats {
    match path {
        "/v1/encode" => &m.encode,
        "/v1/decode" => &m.decode,
        "/v1/analyze" => &m.analyze,
        "/v1/simulate" => &m.simulate,
        "/v1/infer" => &m.infer,
        p if p.starts_with("/v1/tensors") => &m.tensors,
        _ => &m.unrouted,
    }
}

/// Routes the three control endpoints inline at the router; `None` means
/// the request belongs to a shard.
fn control_route<'a>(ctx: &'a Ctx, req: &Request) -> Option<Routed<'a>> {
    let m = &ctx.metrics;
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            // Still serving, but be honest about scars: a caught panic or
            // a respawned worker downgrades the status.
            let status = if m.degraded() { "degraded" } else { "ok" };
            Some(ok(
                &m.control,
                Value::object([
                    ("status", Value::Str(status.into())),
                    ("shards", Value::Num(ctx.shards as f64)),
                ]),
            ))
        }
        ("GET", "/metrics") => {
            let mut snapshot = m.to_json();
            if let Value::Object(members) = &mut snapshot {
                members.push(("tenants".into(), ctx.tenants.to_json(16)));
            }
            Some(ok(&m.control, snapshot))
        }
        ("POST", "/shutdown") => {
            request_shutdown(ctx);
            Some(ok(&m.control, Value::object([("status", Value::Str("shutting down".into()))])))
        }
        _ => None,
    }
}

/// Spawns one shard worker. Same panic-isolation contract as the router:
/// a panicking handler costs its own request a 500, never the pool — the
/// supervisor additionally replaces workers that exit outright.
fn spawn_shard_worker(
    shard_id: usize,
    worker_id: usize,
    rx: Receiver<ShardJob>,
    ctx: Arc<Ctx>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("spark-shard-{shard_id}-{worker_id}"))
        .spawn(move || {
            while let Some(job) = rx.recv() {
                if let Some(s) = ctx.metrics.shards.get(shard_id) {
                    s.note_queue(rx.len() as u64);
                }
                if let JobOutcome::ExitWorker = handle_job(&ctx, shard_id, job) {
                    return;
                }
            }
        })
}

fn handle_job(ctx: &Ctx, shard_id: usize, job: ShardJob) -> JobOutcome {
    let ShardJob { mut stream, req, tenant: _tenant, started } = job;
    let mut outcome = JobOutcome::Done;

    // Chaos-injected hard worker death: answer first, then tell the
    // worker loop to exit its thread (the supervisor will respawn).
    // Handled here, not in route(), because it changes the worker's
    // control flow, not just the response.
    if ctx.chaos && req.method == "POST" && req.path == "/__chaos/exit-worker" {
        ctx.metrics.control.hit();
        let _ = http::write_json(
            &mut stream,
            200,
            "OK",
            &Value::object([
                ("status", Value::Str("worker exiting".into())),
                ("shard", Value::Num(shard_id as f64)),
            ]),
        );
        outcome = JobOutcome::ExitWorker;
    } else {
        match catch_unwind(AssertUnwindSafe(|| route(ctx, &req))) {
            Ok(routed) => {
                routed.stats.hit();
                if routed.status >= 400 {
                    routed.stats.error();
                    if let Some(s) = ctx.metrics.shards.get(shard_id) {
                        s.errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Raw payloads (stored container images) go out verbatim
                // as octet-stream; everything else is JSON.
                let _ = match &routed.raw {
                    Some(bytes) => http::write_response(
                        &mut stream,
                        routed.status,
                        routed.reason,
                        "application/octet-stream",
                        bytes,
                    ),
                    None => {
                        http::write_json(&mut stream, routed.status, routed.reason, &routed.body)
                    }
                };
            }
            Err(_) => {
                ctx.metrics.panics_total.fetch_add(1, Ordering::Relaxed);
                ctx.metrics.note_incident();
                if let Some(s) = ctx.metrics.shards.get(shard_id) {
                    s.errors.fetch_add(1, Ordering::Relaxed);
                }
                let _ = http::write_json(
                    &mut stream,
                    500,
                    "Internal Server Error",
                    &error_body("handler panicked; worker recovered"),
                );
            }
        }
    }

    let us = elapsed_us(started);
    ctx.metrics.latency_us.record(us);
    if let Some(s) = ctx.metrics.shards.get(shard_id) {
        s.hits.fetch_add(1, Ordering::Relaxed);
        s.latency_us.record(us);
    }
    outcome
}

/// Outcome of routing: status triple plus which endpoint counter it hits.
struct Routed<'a> {
    status: u16,
    reason: &'static str,
    body: Value,
    stats: &'a EndpointStats,
    /// When set, the response is this exact byte payload served as
    /// `application/octet-stream` and `body` is ignored — how `GET
    /// /v1/tensors/<name>` streams a stored container image verbatim.
    raw: Option<Vec<u8>>,
}

fn route<'a>(ctx: &'a Ctx, req: &Request) -> Routed<'a> {
    let m = &ctx.metrics;
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/__chaos/panic") if ctx.chaos => {
            // Deliberate unwind through the handler stack; the worker's
            // catch boundary turns this into a 500 + panics_total tick.
            // (panic_any, not the panic! macro, so the message reads as
            // injected rather than as a code defect.)
            std::panic::panic_any("chaos: injected handler panic")
        }
        ("POST", "/v1/encode") => match parse_values(req) {
            Ok(values) => encode_endpoint(ctx, &values),
            Err(msg) => bad_request(&m.encode, &msg),
        },
        ("POST", "/v1/analyze") => match parse_values(req) {
            Ok(values) => match api::analyze_response(&values) {
                Ok(body) => ok(&m.analyze, body),
                Err(msg) => bad_request(&m.analyze, &msg),
            },
            Err(msg) => bad_request(&m.analyze, &msg),
        },
        ("POST", "/v1/decode") => match decode_input(req) {
            Ok(hex) => decode_endpoint(ctx, &hex),
            Err(msg) => bad_request(&m.decode, &msg),
        },
        ("POST", "/v1/simulate") => simulate_endpoint(ctx, req),
        ("POST", "/v1/infer") => match parse_values(req) {
            Ok(values) => infer_endpoint(ctx, &values),
            Err(msg) => bad_request(&m.infer, &msg),
        },
        ("GET", "/v1/tensors") => tensors_list(ctx),
        (_, p) if p.starts_with("/v1/tensors/") => tensors_endpoint(ctx, req),
        (_, "/healthz" | "/metrics" | "/shutdown" | "/v1/encode" | "/v1/analyze"
            | "/v1/decode" | "/v1/simulate" | "/v1/infer" | "/v1/tensors") => Routed {
            status: 405,
            reason: "Method Not Allowed",
            body: error_body(&format!("method {} not allowed on {}", req.method, req.path)),
            stats: &m.unrouted,
            raw: None,
        },
        _ => Routed {
            status: 404,
            reason: "Not Found",
            body: error_body(&format!("no such endpoint {}", req.path)),
            stats: &m.unrouted,
            raw: None,
        },
    }
}

fn ok(stats: &EndpointStats, body: Value) -> Routed<'_> {
    Routed { status: 200, reason: "OK", body, stats, raw: None }
}

fn bad_request<'a>(stats: &'a EndpointStats, message: &str) -> Routed<'a> {
    Routed { status: 400, reason: "Bad Request", body: error_body(message), stats, raw: None }
}

/// 404 for any `/v1/tensors` request on a server with no store attached.
fn no_store(stats: &EndpointStats) -> Routed<'_> {
    Routed {
        status: 404,
        reason: "Not Found",
        body: error_body("no tensor store attached (start the server with --store <dir>)"),
        stats,
        raw: None,
    }
}

/// Maps a typed store error onto the HTTP status it deserves: missing
/// names are 404, caller mistakes (bad name, malformed image, kind
/// mismatch) are 400, and anything touching disk integrity is 500.
fn store_error<'a>(stats: &'a EndpointStats, e: &StoreError) -> Routed<'a> {
    let (status, reason) = match e {
        StoreError::NotFound(_) => (404, "Not Found"),
        StoreError::InvalidName(_)
        | StoreError::Container(_)
        | StoreError::Encoded(_)
        | StoreError::WrongKind { .. } => (400, "Bad Request"),
        StoreError::Io(_) | StoreError::Corrupt(_) => (500, "Internal Server Error"),
    };
    Routed { status, reason, body: error_body(&e.to_string()), stats, raw: None }
}

/// `GET /v1/tensors` — the store's live directory plus durability stats.
fn tensors_list(ctx: &Ctx) -> Routed<'_> {
    let m = &ctx.metrics;
    let Some(store) = &ctx.store else {
        return no_store(&m.tensors);
    };
    let entries: Vec<Value> = store
        .list()
        .into_iter()
        .map(|e| {
            Value::object([
                ("name", Value::Str(e.name)),
                ("kind", Value::Str(e.kind.name().into())),
                ("bytes", Value::Num(e.len as f64)),
            ])
        })
        .collect();
    let stats = store.stats();
    ok(
        &m.tensors,
        Value::object([
            ("tensors", Value::Array(entries)),
            ("generation", Value::Num(stats.generation as f64)),
            ("wal_bytes", Value::Num(stats.wal_bytes as f64)),
        ]),
    )
}

/// `PUT`/`GET`/`DELETE /v1/tensors/<name>` — CRUD over the blockstore.
///
/// PUT accepts either a JSON `{"values": [...]}` body (quantized and
/// SPARK-encoded on the way in, like `/v1/encode`) or a raw container-v2
/// image as octet-stream (validated structurally before a byte lands in
/// the WAL). GET streams the stored image back verbatim; DELETE appends a
/// tombstone. All three are durable (group-committed) before the 200.
fn tensors_endpoint<'a>(ctx: &'a Ctx, req: &Request) -> Routed<'a> {
    let m = &ctx.metrics;
    let name = &req.path["/v1/tensors/".len()..];
    let Some(store) = &ctx.store else {
        return no_store(&m.tensors);
    };
    match req.method.as_str() {
        "PUT" => {
            if req.content_type().starts_with("application/octet-stream") {
                match store.put_container(name, &req.body) {
                    Ok(elements) => ok(
                        &m.tensors,
                        Value::object([
                            ("name", Value::Str(name.into())),
                            ("kind", Value::Str("tensor".into())),
                            ("elements", Value::Num(elements as f64)),
                            ("bytes", Value::Num(req.body.len() as f64)),
                        ]),
                    ),
                    Err(e) => store_error(&m.tensors, &e),
                }
            } else {
                let values = match parse_values(req) {
                    Ok(v) => v,
                    Err(msg) => return bad_request(&m.tensors, &msg),
                };
                let codes = match api::quantize_codes(&values) {
                    Ok(c) => c,
                    Err(msg) => return bad_request(&m.tensors, &msg),
                };
                let encoded = spark_codec::encode_tensor(&codes.codes);
                match store.put_tensor(name, &encoded) {
                    Ok(()) => ok(
                        &m.tensors,
                        Value::object([
                            ("name", Value::Str(name.into())),
                            ("kind", Value::Str("tensor".into())),
                            ("elements", Value::Num(encoded.elements as f64)),
                            ("scale", Value::Num(f64::from(codes.scale))),
                            ("nibbles", Value::Num(encoded.stream.len() as f64)),
                        ]),
                    ),
                    Err(e) => store_error(&m.tensors, &e),
                }
            }
        }
        "GET" => match store.get_raw(name) {
            Ok((_, bytes)) => {
                Routed { status: 200, reason: "OK", body: Value::Null, stats: &m.tensors, raw: Some(bytes) }
            }
            Err(e) => store_error(&m.tensors, &e),
        },
        "DELETE" => match store.delete(name) {
            Ok(()) => ok(&m.tensors, Value::object([("deleted", Value::Str(name.into()))])),
            Err(e) => store_error(&m.tensors, &e),
        },
        _ => Routed {
            status: 405,
            reason: "Method Not Allowed",
            body: error_body(&format!("method {} not allowed on {}", req.method, req.path)),
            stats: &m.tensors,
            raw: None,
        },
    }
}

/// Pulls f32 values out of either a raw octet-stream body or a JSON
/// `{"values": [...]}` body, by Content-Type.
fn parse_values(req: &Request) -> Result<Vec<f32>, String> {
    if req.content_type().starts_with("application/octet-stream") {
        return f32_from_bytes(&req.body).map_err(|e| e.to_string());
    }
    let text = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_string())?;
    let body = spark_util::json::parse(text).map_err(|e| e.to_string())?;
    api::values_from_json(&body)
}

/// `/v1/decode` accepts `{"stream_hex": "..."}` or a raw text/plain hex
/// body.
fn decode_input(req: &Request) -> Result<String, String> {
    let text = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_string())?;
    if req.content_type().starts_with("application/json") {
        let body = spark_util::json::parse(text).map_err(|e| e.to_string())?;
        return body
            .get("stream_hex")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| "body must be {\"stream_hex\": \"...\"}".to_string());
    }
    Ok(text.trim().to_string())
}

// Each encode, decode and simulate library call records itself as a
// batch of one (`Metrics::record_batch`), whether it succeeds or fails.

fn encode_endpoint<'a>(ctx: &'a Ctx, values: &[f32]) -> Routed<'a> {
    let stats = &ctx.metrics.encode;
    let codes = match api::quantize_codes(values) {
        Ok(c) => c,
        Err(msg) => return bad_request(stats, &msg),
    };
    ctx.metrics.record_batch(1);
    let encoded = spark_codec::encode_tensor(&codes.codes);
    ok(stats, api::encode_response(&encoded, codes.scale))
}

/// `/v1/decode`: a hex-parse error is this request's 400 before the codec
/// runs; a malformed stream (truncated long code) is a 400 from the codec.
fn decode_endpoint<'a>(ctx: &'a Ctx, hex: &str) -> Routed<'a> {
    let stats = &ctx.metrics.decode;
    let stream = match api::stream_from_hex(hex) {
        Ok(s) => s,
        Err(msg) => return bad_request(stats, &msg),
    };
    ctx.metrics.record_batch(1);
    match spark_codec::decode_stream(&stream) {
        Ok(codes) => ok(stats, api::decode_codes_response(&codes)),
        Err(e) => bad_request(stats, &e.to_string()),
    }
}

fn infer_endpoint<'a>(ctx: &'a Ctx, values: &[f32]) -> Routed<'a> {
    let stats = &ctx.metrics.infer;
    match ctx.infer.infer(values) {
        Ok(body) => ok(stats, body),
        Err(msg) => bad_request(stats, &msg),
    }
}

fn simulate_endpoint<'a>(ctx: &'a Ctx, req: &Request) -> Routed<'a> {
    let stats = &ctx.metrics.simulate;
    let parsed = std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|text| spark_util::json::parse(text).map_err(|e| e.to_string()));
    let body = match parsed {
        Ok(b) => b,
        Err(msg) => return bad_request(stats, &msg),
    };
    let Some(model) = body.get("model").and_then(Value::as_str) else {
        return bad_request(stats, "body must be {\"model\": \"...\", \"accelerator\"?: \"...\"}");
    };
    let accelerator = body.get("accelerator").and_then(Value::as_str).unwrap_or("spark");
    let job = match api::resolve_sim_job(model, accelerator) {
        Ok(j) => j,
        Err(msg) => return bad_request(stats, &msg),
    };
    ctx.metrics.record_batch(1);
    let config = SimConfig::default();
    let report = Accelerator::new(job.kind).run(&job.workload, &job.precision, &config);
    ok(stats, api::simulate_response(&report, &job.workload, &config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{client_request, client_request_with_headers};
    use crate::shard::HashRing;

    fn start_test_server() -> Server {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 16,
            ..ServeConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn healthz_and_metrics_respond() {
        let server = start_test_server();
        let addr = server.addr().to_string();
        let (status, body) = client_request(&addr, "GET", "/healthz", "", b"").unwrap();
        assert_eq!(status, 200);
        assert!(String::from_utf8(body).unwrap().contains("ok"));
        let (status, body) = client_request(&addr, "GET", "/metrics", "", b"").unwrap();
        assert_eq!(status, 200);
        let v = spark_util::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert!(v.get("endpoints").is_some());
        assert!(v.get("shards").is_some());
        assert!(v.get("tenants").is_some());
        server.shutdown();
        server.join();
    }

    #[test]
    fn unknown_paths_and_methods_get_404_405() {
        let server = start_test_server();
        let addr = server.addr().to_string();
        let (status, _) = client_request(&addr, "GET", "/nope", "", b"").unwrap();
        assert_eq!(status, 404);
        let (status, _) = client_request(&addr, "DELETE", "/healthz", "", b"").unwrap();
        assert_eq!(status, 405);
        server.shutdown();
        server.join();
    }

    #[test]
    fn shutdown_endpoint_stops_the_server() {
        let server = start_test_server();
        let addr = server.addr().to_string();
        let (status, _) = client_request(&addr, "POST", "/shutdown", "", b"").unwrap();
        assert_eq!(status, 200);
        // join() must return now that the flag is set — no explicit
        // shutdown() call from this side.
        server.join();
    }

    #[test]
    fn infer_loopback_is_bit_identical_to_local_model() {
        // Two shard pools, four concurrent clients: every worker reads
        // the one shared model at once, with no lock, and every reply
        // must still be the bytes a local model produces.
        const CLIENTS: usize = 4;
        const REQUESTS: usize = 16;
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            shards: 2,
            queue_depth: 16,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr().to_string();
        // The seed is public: building the same model locally and running
        // the same fused forward must serialize to the very same bytes —
        // outputs, argmax, and footprint accounting included.
        let local = api::InferModel::new().unwrap();
        let ring = HashRing::new(2);
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let (addr, local) = (&addr, &local);
                // Clients alternate between tenants of shard 0 and 1.
                let tenant = (0..)
                    .map(|i| format!("client{c}-{i}"))
                    .find(|t| ring.shard_for(t) == c % 2)
                    .unwrap();
                s.spawn(move || {
                    for r in 0..REQUESTS {
                        let n = (c * REQUESTS + r) as f32;
                        let values: Vec<f32> = (0..api::INFER_INPUTS)
                            .map(|i| ((i as f32) * 0.37 + n * 0.11).cos() * 2.0)
                            .collect();
                        let body = format!(
                            "{{\"values\": [{}]}}",
                            values.iter().map(f32::to_string).collect::<Vec<_>>().join(", ")
                        );
                        let (status, reply) = client_request_with_headers(
                            addr,
                            "POST",
                            "/v1/infer",
                            "application/json",
                            &[("X-Spark-Tenant", &tenant)],
                            body.as_bytes(),
                        )
                        .unwrap();
                        assert_eq!(status, 200, "{:?}", String::from_utf8_lossy(&reply));
                        let want = local.infer(&values).unwrap().to_string_compact();
                        assert_eq!(String::from_utf8(reply).unwrap(), want, "client {c} #{r}");
                    }
                });
            }
        });
        // Both shard pools served their half of the requests.
        let (_, body) = client_request(&addr, "GET", "/metrics", "", b"").unwrap();
        let v = spark_util::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        for (i, shard) in v.get("shards").unwrap().as_array().unwrap().iter().enumerate() {
            let hits = shard.get("hits").unwrap().as_f64();
            assert_eq!(hits, Some((CLIENTS * REQUESTS / 2) as f64), "shard {i} hits");
        }
        server.shutdown();
        server.join();
    }

    fn store_test_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU64;
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("spark-serve-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn cold_loaded_store_model_serves_bit_identical_infer() {
        // Ingest the frozen model's matrices into a fresh store, exactly
        // as `spark store put --infer-model` does...
        let dir = store_test_dir("coldload");
        {
            let store = BlockStore::open(&dir).unwrap();
            let model = api::InferModel::new().unwrap();
            for (key, m) in api::STORE_MODEL_KEYS.iter().zip(model.export_matrices()) {
                store.put_matrix(key, &m).unwrap();
            }
        }
        // ...then cold-start a server on the store and compare /v1/infer
        // byte-for-byte against the in-memory frozen model.
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr().to_string();
        let values: Vec<f32> =
            (0..api::INFER_INPUTS).map(|i| ((i as f32) * 0.53).sin() * 1.5).collect();
        let body = format!(
            "{{\"values\": [{}]}}",
            values.iter().map(f32::to_string).collect::<Vec<_>>().join(", ")
        );
        let (status, reply) =
            client_request(&addr, "POST", "/v1/infer", "application/json", body.as_bytes())
                .unwrap();
        assert_eq!(status, 200, "{:?}", String::from_utf8_lossy(&reply));
        let local = api::InferModel::new().unwrap().infer(&values).unwrap();
        assert_eq!(String::from_utf8(reply).unwrap(), local.to_string_compact());
        server.shutdown();
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tensors_crud_round_trips_through_the_store() {
        let dir = store_test_dir("crud");
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr().to_string();

        // PUT a JSON-valued tensor, read it back as a container image, and
        // check it is byte-identical to encoding the same values locally
        // (the codec is precision-aware, so compare encoded-to-encoded,
        // not decoded-to-quantized).
        let values: Vec<f32> = (0..100).map(|i| ((i as f32) * 0.31).cos()).collect();
        let body = format!(
            "{{\"values\": [{}]}}",
            values.iter().map(f32::to_string).collect::<Vec<_>>().join(", ")
        );
        let (status, reply) = client_request(
            &addr,
            "PUT",
            "/v1/tensors/t0",
            "application/json",
            body.as_bytes(),
        )
        .unwrap();
        assert_eq!(status, 200, "{:?}", String::from_utf8_lossy(&reply));
        let (status, image) = client_request(&addr, "GET", "/v1/tensors/t0", "", b"").unwrap();
        assert_eq!(status, 200);
        let codes = api::quantize_codes(&values).unwrap();
        let mut local_image = Vec::new();
        spark_codec::write_container(&spark_codec::encode_tensor(&codes.codes), &mut local_image)
            .unwrap();
        assert_eq!(image, local_image);

        // PUT the image under a second name as raw octets: byte-identical
        // round trip.
        let (status, _) = client_request(
            &addr,
            "PUT",
            "/v1/tensors/t1",
            "application/octet-stream",
            &image,
        )
        .unwrap();
        assert_eq!(status, 200);
        let (status, image2) = client_request(&addr, "GET", "/v1/tensors/t1", "", b"").unwrap();
        assert_eq!(status, 200);
        assert_eq!(image2, image);

        // The listing sees both; DELETE removes one; a deleted or absent
        // name is 404; bad method is 405; corrupt octets are 400.
        let (status, listing) = client_request(&addr, "GET", "/v1/tensors", "", b"").unwrap();
        assert_eq!(status, 200);
        let v = spark_util::json::parse(std::str::from_utf8(&listing).unwrap()).unwrap();
        assert_eq!(v.get("tensors").unwrap().as_array().unwrap().len(), 2);
        let (status, _) = client_request(&addr, "DELETE", "/v1/tensors/t0", "", b"").unwrap();
        assert_eq!(status, 200);
        let (status, _) = client_request(&addr, "GET", "/v1/tensors/t0", "", b"").unwrap();
        assert_eq!(status, 404);
        let (status, _) = client_request(&addr, "POST", "/v1/tensors/t1", "", b"").unwrap();
        assert_eq!(status, 405);
        let (status, _) = client_request(
            &addr,
            "PUT",
            "/v1/tensors/bad",
            "application/octet-stream",
            b"not a container",
        )
        .unwrap();
        assert_eq!(status, 400);

        server.shutdown();
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tensors_without_a_store_is_a_404() {
        let server = start_test_server();
        let addr = server.addr().to_string();
        let (status, body) = client_request(&addr, "GET", "/v1/tensors/x", "", b"").unwrap();
        assert_eq!(status, 404);
        assert!(String::from_utf8_lossy(&body).contains("no tensor store"));
        server.shutdown();
        server.join();
    }

    #[test]
    fn infer_rejects_wrong_width_and_non_finite() {
        let server = start_test_server();
        let addr = server.addr().to_string();
        for body in [&b"{\"values\": [1.0, 2.0]}"[..], &b"{\"values\": []}"[..]] {
            let (status, _) =
                client_request(&addr, "POST", "/v1/infer", "application/json", body).unwrap();
            assert_eq!(status, 400);
        }
        server.shutdown();
        server.join();
    }

    #[test]
    fn bad_bodies_are_400_not_disconnects() {
        let server = start_test_server();
        let addr = server.addr().to_string();
        for (path, ct, body) in [
            ("/v1/encode", "application/json", &b"{\"values\": }"[..]),
            ("/v1/encode", "application/octet-stream", &b"abc"[..]),
            ("/v1/analyze", "application/json", &b"{}"[..]),
            ("/v1/decode", "application/json", &b"{\"stream_hex\": \"xyz\"}"[..]),
            ("/v1/simulate", "application/json", &b"{\"model\": \"NoSuchNet\"}"[..]),
        ] {
            let (status, reply) = client_request(&addr, "POST", path, ct, body).unwrap();
            assert_eq!(status, 400, "{path} {body:?} -> {reply:?}");
            let v = spark_util::json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
            assert!(v.get("error").is_some());
        }
        server.shutdown();
        server.join();
    }

    #[test]
    fn tenants_route_to_their_ring_shard_and_are_tracked() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            shards: 3,
            shard_workers: 1,
            queue_depth: 16,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr().to_string();
        let ring = HashRing::new(3);

        // Fire a few tenants; each request must land on the shard the
        // ring predicts, visible through per-shard hit counters.
        let tenants = ["acme", "globex", "initech", "umbrella"];
        for t in &tenants {
            let (status, _) = client_request_with_headers(
                &addr,
                "POST",
                "/v1/analyze",
                "application/json",
                &[("X-Spark-Tenant", t)],
                b"{\"values\": [0.5, -0.25, 0.125]}",
            )
            .unwrap();
            assert_eq!(status, 200, "tenant {t}");
        }
        let (_, body) = client_request(&addr, "GET", "/metrics", "", b"").unwrap();
        let v = spark_util::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        let shards = v.get("shards").unwrap().as_array().unwrap();
        let mut expected = vec![0u64; 3];
        for t in &tenants {
            expected[ring.shard_for(t)] += 1;
        }
        for (i, want) in expected.iter().enumerate() {
            let got = shards[i].get("hits").unwrap().as_f64().unwrap() as u64;
            assert_eq!(got, *want, "shard {i} hits");
        }
        let tenant_section = v.get("tenants").unwrap();
        assert_eq!(tenant_section.get("tracked").unwrap().as_f64(), Some(4.0));

        // A hostile tenant id is a 400, not a route.
        let (status, _) = client_request_with_headers(
            &addr,
            "POST",
            "/v1/analyze",
            "application/json",
            &[("X-Spark-Tenant", "bad tenant id")],
            b"{\"values\": [0.5]}",
        )
        .unwrap();
        assert_eq!(status, 400);

        server.shutdown();
        server.join();
    }

    #[test]
    fn tenant_quota_sheds_429_and_isolates_the_neighbor() {
        // 2 rps sustained, burst of 3: the 4th+ back-to-back request from
        // one tenant must shed with a typed 429 while a different tenant
        // still gets 200s — admission is per tenant, not global.
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            shards: 2,
            shard_workers: 1,
            queue_depth: 16,
            quota_rps: 2.0,
            quota_burst: 3.0,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr().to_string();

        let mut ok_count = 0;
        let mut shed = Vec::new();
        for _ in 0..8 {
            let resp = crate::http::client_call(
                &addr,
                "POST",
                "/v1/analyze",
                "application/json",
                &[("X-Spark-Tenant", "flooder")],
                b"{\"values\": [0.5, -0.25]}",
            )
            .unwrap();
            match resp.status {
                200 => ok_count += 1,
                429 => shed.push(resp),
                other => panic!("unexpected status {other}"),
            }
        }
        assert!(ok_count >= 3, "burst of 3 must be admitted, got {ok_count}");
        assert!(!shed.is_empty(), "8 back-to-back requests must exceed a 3-token burst");
        let v = spark_util::json::parse(std::str::from_utf8(&shed[0].body).unwrap()).unwrap();
        assert_eq!(v.get("tenant").unwrap().as_str(), Some("flooder"));
        let retry_ms = v.get("retry_after_ms").unwrap().as_f64().unwrap();
        assert!(retry_ms > 0.0);
        // The hint also rides a real Retry-After header: whole seconds,
        // rounded up from the body's millisecond figure, never 0.
        for resp in &shed {
            let header: u64 = resp
                .header("retry-after")
                .expect("429 must carry a Retry-After header")
                .parse()
                .expect("Retry-After must be integral seconds");
            let body = spark_util::json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            let ms = body.get("retry_after_ms").unwrap().as_f64().unwrap() as u64;
            assert_eq!(header, ms.div_ceil(1000).max(1), "header disagrees with body hint");
        }

        // The well-behaved neighbor is untouched by the flooder's quota.
        let (status, _) = client_request_with_headers(
            &addr,
            "POST",
            "/v1/analyze",
            "application/json",
            &[("X-Spark-Tenant", "polite")],
            b"{\"values\": [0.5]}",
        )
        .unwrap();
        assert_eq!(status, 200);

        let (_, body) = client_request(&addr, "GET", "/metrics", "", b"").unwrap();
        let v = spark_util::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        let rejected =
            v.get("queue").unwrap().get("rejected_429").unwrap().as_f64().unwrap();
        assert_eq!(rejected as usize, shed.len());

        server.shutdown();
        server.join();
    }

    #[test]
    fn sharded_server_answers_on_every_shard() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            shards: 4,
            shard_workers: 1,
            queue_depth: 32,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr().to_string();
        let ring = HashRing::new(4);
        // Find one tenant per shard so every pool provably serves.
        let mut per_shard: Vec<Option<String>> = vec![None; 4];
        for i in 0.. {
            let t = format!("probe-{i}");
            let s = ring.shard_for(&t);
            if per_shard[s].is_none() {
                per_shard[s] = Some(t);
                if per_shard.iter().all(Option::is_some) {
                    break;
                }
            }
        }
        for t in per_shard.iter().flatten() {
            let (status, _) = client_request_with_headers(
                &addr,
                "POST",
                "/v1/encode",
                "application/json",
                &[("X-Spark-Tenant", t)],
                b"{\"values\": [0.1, 0.2, 0.3]}",
            )
            .unwrap();
            assert_eq!(status, 200, "tenant {t}");
        }
        let (_, body) = client_request(&addr, "GET", "/metrics", "", b"").unwrap();
        let v = spark_util::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        for (i, s) in v.get("shards").unwrap().as_array().unwrap().iter().enumerate() {
            assert!(
                s.get("hits").unwrap().as_f64().unwrap() >= 1.0,
                "shard {i} never served"
            );
        }
        server.shutdown();
        server.join();
    }
}
