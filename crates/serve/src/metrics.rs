//! In-process metrics registry for the server.
//!
//! Everything is lock-free (`AtomicU64` counters plus the log-bucketed
//! [`Histogram`]) so the hot request path never serializes on a metrics
//! mutex. `/metrics` snapshots the registry with relaxed loads — values
//! are individually accurate but not captured at a single instant, which
//! is the usual contract for scrape-style endpoints.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use spark_util::json::Value;
use spark_util::Histogram;

/// How long `/healthz` keeps reporting `"degraded"` after the most
/// recent resilience incident (caught panic or worker respawn). Long
/// enough that the chaos planes — which check health within a couple of
/// seconds of an incident — still observe the degradation, short enough
/// that a healed server returns to `"ok"` and a fleet router's
/// re-admission probes can trust the status again.
pub const DEGRADED_WINDOW: Duration = Duration::from_secs(30);

/// Hit/error counters for one endpoint.
#[derive(Default)]
pub struct EndpointStats {
    hits: AtomicU64,
    errors: AtomicU64,
}

impl EndpointStats {
    /// Counts one request routed to this endpoint.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request that produced a non-2xx response.
    pub fn error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests routed here.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that produced a non-2xx response.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    fn to_json(&self) -> Value {
        Value::object([
            ("hits", Value::Num(self.hits() as f64)),
            ("errors", Value::Num(self.errors() as f64)),
        ])
    }
}

/// Counters one shard worker pool records into: its own traffic, its own
/// queue, its own tail. `/metrics` exposes the vector so a hot or dying
/// shard is visible individually instead of averaged away.
pub struct ShardStats {
    /// Requests completed by this shard's workers.
    pub hits: AtomicU64,
    /// Of those, non-2xx responses.
    pub errors: AtomicU64,
    /// Requests shed with 503 because this shard's queue was full.
    pub rejected_503: AtomicU64,
    /// Shard workers respawned by the supervisor after dying.
    pub workers_respawned: AtomicU64,
    queue_depth: AtomicU64,
    queue_peak: AtomicU64,
    /// End-to-end latency of requests completed by this shard.
    pub latency_us: Histogram,
}

impl ShardStats {
    fn new() -> Self {
        Self {
            hits: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            rejected_503: AtomicU64::new(0),
            workers_respawned: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            latency_us: Histogram::new(),
        }
    }

    /// Refreshes the shard queue gauge from the channel's own length.
    pub fn note_queue(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    fn to_json(&self, id: usize) -> Value {
        Value::object([
            ("shard", Value::Num(id as f64)),
            ("hits", Value::Num(self.hits.load(Ordering::Relaxed) as f64)),
            ("errors", Value::Num(self.errors.load(Ordering::Relaxed) as f64)),
            (
                "rejected_503",
                Value::Num(self.rejected_503.load(Ordering::Relaxed) as f64),
            ),
            (
                "workers_respawned",
                Value::Num(self.workers_respawned.load(Ordering::Relaxed) as f64),
            ),
            ("queue_depth", Value::Num(self.queue_depth.load(Ordering::Relaxed) as f64)),
            ("queue_peak", Value::Num(self.queue_peak.load(Ordering::Relaxed) as f64)),
            ("latency_us", self.latency_us.to_json()),
        ])
    }
}

/// The server-wide registry. One instance lives in the shared server
/// context; every router and shard worker thread records into it directly.
pub struct Metrics {
    /// `POST /v1/encode`.
    pub encode: EndpointStats,
    /// `POST /v1/decode`.
    pub decode: EndpointStats,
    /// `POST /v1/analyze`.
    pub analyze: EndpointStats,
    /// `POST /v1/simulate`.
    pub simulate: EndpointStats,
    /// `POST /v1/infer`.
    pub infer: EndpointStats,
    /// `PUT`/`GET`/`DELETE /v1/tensors/...` (the blockstore CRUD plane).
    pub tensors: EndpointStats,
    /// `GET /healthz`, `GET /metrics`, `POST /shutdown`.
    pub control: EndpointStats,
    /// Requests that matched no route (404/405).
    pub unrouted: EndpointStats,
    /// Connections refused with 503 because a queue (conn or shard) was
    /// full.
    pub rejected_503: AtomicU64,
    /// Requests shed with 429 by a tenant's token-bucket quota.
    pub rejected_429: AtomicU64,
    /// Connections accepted into the queue.
    pub accepted: AtomicU64,
    /// Current number of accepted-but-unclaimed connections.
    queue_depth: AtomicU64,
    /// High-water mark of `queue_depth`.
    queue_peak: AtomicU64,
    /// Encode, decode and simulate library calls issued (one per request).
    pub batches: AtomicU64,
    /// Distribution of requests per library call (always 1).
    pub batch_size: Histogram,
    /// End-to-end request latency in microseconds (parse → response
    /// written), recorded by workers.
    pub latency_us: Histogram,
    /// Handler panics caught by the per-connection isolation boundary.
    pub panics_total: AtomicU64,
    /// Worker threads respawned by the supervisor after dying.
    pub workers_respawned: AtomicU64,
    /// Requests shed with 408 because the overall read deadline elapsed.
    pub deadline_408: AtomicU64,
    /// Per-shard counters, indexed by shard id.
    pub shards: Vec<ShardStats>,
    /// Registry creation time — the origin the incident stamp counts from.
    started: Instant,
    /// Microseconds-since-`started` of the latest resilience incident,
    /// offset by +1 so `0` means "never". Written by [`Metrics::note_incident`],
    /// read by [`Metrics::degraded_at`].
    last_incident_us: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::with_shards(1)
    }
}

impl Metrics {
    /// Creates an empty registry with a single shard.
    pub fn new() -> Self {
        Self::with_shards(1)
    }

    /// Creates an empty registry tracking `shards` shard pools (clamped
    /// to at least 1).
    pub fn with_shards(shards: usize) -> Self {
        Self {
            encode: EndpointStats::default(),
            decode: EndpointStats::default(),
            analyze: EndpointStats::default(),
            simulate: EndpointStats::default(),
            infer: EndpointStats::default(),
            tensors: EndpointStats::default(),
            control: EndpointStats::default(),
            unrouted: EndpointStats::default(),
            rejected_503: AtomicU64::new(0),
            rejected_429: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_size: Histogram::new(),
            latency_us: Histogram::new(),
            panics_total: AtomicU64::new(0),
            workers_respawned: AtomicU64::new(0),
            deadline_408: AtomicU64::new(0),
            shards: (0..shards.max(1)).map(|_| ShardStats::new()).collect(),
            started: Instant::now(),
            last_incident_us: AtomicU64::new(0),
        }
    }

    /// Marks one connection entering the job queue. `depth` is the queue
    /// length sampled from the channel itself — the channel is the source
    /// of truth, so accept/dequeue ordering races cannot wrap the gauge.
    pub fn note_accept(&self, depth: u64) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Refreshes the depth gauge as a worker takes a connection.
    pub fn note_dequeue(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// High-water mark of the queue depth.
    pub fn queue_peak(&self) -> u64 {
        self.queue_peak.load(Ordering::Relaxed)
    }

    /// Records one library call over `jobs` requests.
    pub fn record_batch(&self, jobs: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_size.record(jobs);
    }

    /// Snapshots the registry as the `/metrics` response body.
    pub fn to_json(&self) -> Value {
        Value::object([
            (
                "endpoints",
                Value::object([
                    ("encode", self.encode.to_json()),
                    ("decode", self.decode.to_json()),
                    ("analyze", self.analyze.to_json()),
                    ("simulate", self.simulate.to_json()),
                    ("infer", self.infer.to_json()),
                    ("tensors", self.tensors.to_json()),
                    ("control", self.control.to_json()),
                    ("unrouted", self.unrouted.to_json()),
                ]),
            ),
            (
                "queue",
                Value::object([
                    ("accepted", Value::Num(self.accepted.load(Ordering::Relaxed) as f64)),
                    (
                        "rejected_503",
                        Value::Num(self.rejected_503.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "rejected_429",
                        Value::Num(self.rejected_429.load(Ordering::Relaxed) as f64),
                    ),
                    ("depth", Value::Num(self.queue_depth() as f64)),
                    ("peak_depth", Value::Num(self.queue_peak() as f64)),
                ]),
            ),
            (
                "shards",
                Value::Array(
                    self.shards.iter().enumerate().map(|(i, s)| s.to_json(i)).collect(),
                ),
            ),
            // Kept because the repo benchmark's traced runs read it.
            (
                "batching",
                Value::object([
                    ("batches", Value::Num(self.batches.load(Ordering::Relaxed) as f64)),
                    ("batch_size", self.batch_size.to_json()),
                ]),
            ),
            ("latency_us", self.latency_us.to_json()),
            (
                "resilience",
                Value::object([
                    (
                        "panics_total",
                        Value::Num(self.panics_total.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "workers_respawned",
                        Value::Num(self.workers_respawned.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "deadline_408",
                        Value::Num(self.deadline_408.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
        ])
    }

    /// Stamps "a resilience incident happened now" (caught panic, worker
    /// respawn). Call sites increment their counter *and* stamp, so the
    /// cumulative totals keep flowing into `/metrics` while `/healthz`
    /// judges only recency.
    pub fn note_incident(&self) {
        let us = Instant::now().saturating_duration_since(self.started).as_micros() as u64;
        self.last_incident_us.store(us.saturating_add(1), Ordering::Relaxed);
    }

    /// True when a resilience incident (caught panic or worker respawn)
    /// happened within the last [`DEGRADED_WINDOW`] — surfaced by
    /// `/healthz` as `"degraded"`. Unlike the cumulative counters, this
    /// un-latches: a server that healed and ran clean reports `"ok"`
    /// again, which is what fleet routers key re-admission on.
    pub fn degraded(&self) -> bool {
        self.degraded_at(Instant::now())
    }

    /// [`Metrics::degraded`] with an injectable clock, for tests.
    pub fn degraded_at(&self, now: Instant) -> bool {
        let stamp = self.last_incident_us.load(Ordering::Relaxed);
        if stamp == 0 {
            return false;
        }
        let now_us = now.saturating_duration_since(self.started).as_micros() as u64;
        now_us.saturating_sub(stamp - 1) < DEGRADED_WINDOW.as_micros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_depth_tracks_peak() {
        let m = Metrics::new();
        m.note_accept(1);
        m.note_accept(2);
        m.note_accept(3);
        m.note_dequeue(2);
        assert_eq!(m.queue_depth(), 2);
        assert_eq!(m.queue_peak(), 3);
        assert_eq!(m.accepted.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn snapshot_is_valid_json_with_expected_fields() {
        let m = Metrics::new();
        m.encode.hit();
        m.encode.hit();
        m.decode.hit();
        m.decode.error();
        m.record_batch(4);
        m.latency_us.record(120);
        let text = m.to_json().to_string_compact();
        let v = spark_util::json::parse(&text).unwrap();
        let encode = v.get("endpoints").unwrap().get("encode").unwrap();
        assert_eq!(encode.get("hits").unwrap().as_f64(), Some(2.0));
        let decode = v.get("endpoints").unwrap().get("decode").unwrap();
        assert_eq!(decode.get("errors").unwrap().as_f64(), Some(1.0));
        let batching = v.get("batching").unwrap();
        assert_eq!(batching.get("batches").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            batching.get("batch_size").unwrap().get("count").unwrap().as_f64(),
            Some(1.0)
        );
        assert!(v.get("latency_us").unwrap().get("p99").unwrap().as_f64().unwrap() >= 120.0);
    }

    #[test]
    fn resilience_counters_flow_into_snapshot_and_degraded() {
        let m = Metrics::new();
        assert!(!m.degraded());
        m.deadline_408.fetch_add(1, Ordering::Relaxed);
        assert!(!m.degraded(), "shed requests alone are not degradation");
        m.panics_total.fetch_add(1, Ordering::Relaxed);
        m.workers_respawned.fetch_add(2, Ordering::Relaxed);
        m.note_incident();
        assert!(m.degraded());
        let text = m.to_json().to_string_compact();
        let v = spark_util::json::parse(&text).unwrap();
        let r = v.get("resilience").unwrap();
        assert_eq!(r.get("panics_total").unwrap().as_f64(), Some(1.0));
        assert_eq!(r.get("workers_respawned").unwrap().as_f64(), Some(2.0));
        assert_eq!(r.get("deadline_408").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn degraded_unlatches_once_the_incident_window_passes() {
        let m = Metrics::new();
        m.panics_total.fetch_add(1, Ordering::Relaxed);
        m.note_incident();
        let now = Instant::now();
        assert!(m.degraded_at(now), "fresh incident must degrade health");
        assert!(
            m.degraded_at(now + DEGRADED_WINDOW - Duration::from_secs(1)),
            "still inside the window"
        );
        assert!(
            !m.degraded_at(now + DEGRADED_WINDOW + Duration::from_secs(1)),
            "a healed server must report ok again"
        );
        // A new incident re-arms the window.
        m.note_incident();
        assert!(m.degraded_at(Instant::now()));
        // Counters never reset — only the health judgment un-latches.
        assert_eq!(m.panics_total.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn per_shard_stats_appear_in_the_snapshot() {
        let m = Metrics::with_shards(3);
        assert_eq!(m.shards.len(), 3);
        m.shards[1].hits.fetch_add(7, Ordering::Relaxed);
        m.shards[1].rejected_503.fetch_add(2, Ordering::Relaxed);
        m.shards[1].note_queue(5);
        m.shards[1].note_queue(1);
        m.rejected_429.fetch_add(4, Ordering::Relaxed);
        let v = spark_util::json::parse(&m.to_json().to_string_compact()).unwrap();
        let shards = v.get("shards").unwrap().as_array().unwrap();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[1].get("hits").unwrap().as_f64(), Some(7.0));
        assert_eq!(shards[1].get("rejected_503").unwrap().as_f64(), Some(2.0));
        assert_eq!(shards[1].get("queue_peak").unwrap().as_f64(), Some(5.0));
        assert_eq!(shards[1].get("queue_depth").unwrap().as_f64(), Some(1.0));
        assert_eq!(shards[0].get("hits").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("queue").unwrap().get("rejected_429").unwrap().as_f64(), Some(4.0));
        // Degenerate shard count clamps instead of vanishing.
        assert_eq!(Metrics::with_shards(0).shards.len(), 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = std::sync::Arc::new(Metrics::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        m.encode.hit();
                        m.latency_us.record(i + 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.encode.hits(), 4000);
        assert_eq!(m.latency_us.count(), 4000);
    }
}
