//! Open-loop load harness: seeded schedules, coordinated-omission-free
//! latency, and a JSON report the CI tail-latency gates consume.
//!
//! ## Open loop, not closed loop
//!
//! The PR 4 serving bench was *closed-loop*: N clients fire, wait for a
//! completion, then fire again. A closed-loop client slows down exactly
//! when the server does, so queueing delay hides — offered load
//! gracefully collapses to whatever the server can absorb, and the
//! measured p99 describes a load that no longer resembles the one you
//! asked about. That distortion is *coordinated omission*: the samples
//! most damning for the tail are the ones a closed loop never sends.
//!
//! This harness is open-loop: requests fire on a pre-built, seeded
//! schedule (Poisson arrivals, Zipf-skewed tenant and payload
//! popularity, blended endpoint mix) regardless of completions, and
//! every latency is measured from the request's *intended* send time —
//! if an injector falls behind because the server stalled, that stall
//! lands in the histogram instead of silently stretching the schedule.
//!
//! ## Determinism
//!
//! The schedule is a pure function of [`LoadConfig`]: same seed, same
//! byte-for-byte [`schedule_dump`], same [`schedule_digest`] — which CI
//! verifies by diffing two dumps. Only the measured latencies vary
//! between runs; the *work* never does.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use spark_util::dist::{Exp, Zipf};
use spark_util::json::Value;
use spark_util::{Histogram, Rng};

use crate::api;
use crate::http::{client_call, client_request_with_headers, ClientError};

/// The endpoints the blended workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/encode`.
    Encode,
    /// `POST /v1/decode`.
    Decode,
    /// `POST /v1/analyze`.
    Analyze,
    /// `POST /v1/infer`.
    Infer,
    /// `POST /v1/simulate` — the heavyweight call; never drawn by the
    /// blended mix, only fired by the designated flooder (see
    /// [`LoadConfig::flood_rps`]).
    Simulate,
    /// `GET /v1/tensors/<name>` — reads a stored encoded tensor off the
    /// blockstore; drawn only when [`LoadConfig::tensor_mix`] is nonzero.
    TensorGet,
    /// `PUT /v1/tensors/<name>` — encodes and persists a tensor; drawn
    /// only when [`LoadConfig::tensor_mix`] is nonzero.
    TensorPut,
}

/// All endpoints the harness can fire; the first four form the blended
/// mix, simulate is flood-only, and the tensor pair joins the mix when
/// [`LoadConfig::tensor_mix`] is nonzero.
pub const ENDPOINTS: [Endpoint; 7] = [
    Endpoint::Encode,
    Endpoint::Decode,
    Endpoint::Analyze,
    Endpoint::Infer,
    Endpoint::Simulate,
    Endpoint::TensorGet,
    Endpoint::TensorPut,
];

/// Cumulative endpoint mix: 35% encode, 25% decode, 25% analyze,
/// 15% infer — encode-heavy like the paper's serving story, with enough
/// decode/infer to keep every pipeline warm. When `tensor_mix` carves out
/// a store slice, the remainder is rescaled through this same CDF so a
/// zero `tensor_mix` reproduces historical schedules bit-for-bit.
const MIX_CDF: [f64; 4] = [0.35, 0.60, 0.85, 1.0];

/// Share of the tensor slice that reads (`GET`) rather than writes
/// (`PUT`): the store is read-mostly in serving, 4 reads per write.
const TENSOR_GET_SHARE: f64 = 0.8;

impl Endpoint {
    /// Request path. The tensor endpoints append `/<name>` at send time
    /// (see [`tensor_path`]); this is their collection prefix.
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Encode => "/v1/encode",
            Endpoint::Decode => "/v1/decode",
            Endpoint::Analyze => "/v1/analyze",
            Endpoint::Infer => "/v1/infer",
            Endpoint::Simulate => "/v1/simulate",
            Endpoint::TensorGet | Endpoint::TensorPut => "/v1/tensors",
        }
    }

    /// Short name used in dumps and reports.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Encode => "encode",
            Endpoint::Decode => "decode",
            Endpoint::Analyze => "analyze",
            Endpoint::Infer => "infer",
            Endpoint::Simulate => "simulate",
            Endpoint::TensorGet => "tensor_get",
            Endpoint::TensorPut => "tensor_put",
        }
    }

    /// HTTP method the harness uses for this endpoint.
    pub fn method(self) -> &'static str {
        match self {
            Endpoint::TensorGet => "GET",
            Endpoint::TensorPut => "PUT",
            _ => "POST",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Encode => 0,
            Endpoint::Decode => 1,
            Endpoint::Analyze => 2,
            Endpoint::Infer => 3,
            Endpoint::Simulate => 4,
            Endpoint::TensorGet => 5,
            Endpoint::TensorPut => 6,
        }
    }
}

/// The stored-tensor name the harness addresses for payload rank `i` —
/// the Zipf payload pick doubles as the tensor-name pick, so reads skew
/// onto a hot head exactly like real model traffic.
pub fn tensor_path(i: u32) -> String {
    format!("/v1/tensors/load-{i:04}")
}

/// Knobs for one load run. The schedule is a pure function of this
/// struct, so two runs with equal configs do identical work.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Seed for arrivals, tenant/payload picks, and payload contents.
    pub seed: u64,
    /// Offered request rate (Poisson arrival intensity), in req/s.
    pub offered_rps: f64,
    /// Schedule horizon; ~`offered_rps * duration` events are generated.
    pub duration: Duration,
    /// Number of distinct tenants.
    pub tenants: usize,
    /// Zipf exponent for tenant popularity (0 = uniform).
    pub tenant_skew: f64,
    /// Number of distinct pre-built tensor payloads.
    pub payloads: usize,
    /// Zipf exponent for payload popularity.
    pub payload_skew: f64,
    /// Smallest payload size, in tensor values.
    pub payload_base_values: usize,
    /// Size increment between consecutive payload ranks, in values.
    pub payload_step_values: usize,
    /// Flood overlay: a dedicated noisy-neighbor tenant (always tenant
    /// index 0) firing its own Poisson stream of [`flood_endpoint`]
    /// requests at this rate, on top of the blended mix. `0` disables
    /// the flood and tenant 0 becomes an ordinary Zipf head.
    ///
    /// [`flood_endpoint`]: LoadConfig::flood_endpoint
    pub flood_rps: f64,
    /// What the flooder sends; [`Endpoint::Simulate`] is the expensive
    /// choice that models a tenant monopolizing compute.
    pub flood_endpoint: Endpoint,
    /// Fraction of mix events redirected at the `/v1/tensors` store CRUD
    /// (80% GET / 20% PUT, names Zipf-picked like payloads). `0.0`
    /// (default) reproduces pre-store schedules byte-for-byte — the
    /// endpoint draw consumes the same single uniform either way.
    pub tensor_mix: f64,
    /// Injector threads firing the schedule.
    pub injectors: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            seed: 0x5134_10AD,
            offered_rps: 200.0,
            duration: Duration::from_secs(2),
            tenants: 64,
            tenant_skew: 1.1,
            payloads: 16,
            payload_skew: 1.0,
            payload_base_values: 48,
            payload_step_values: 16,
            flood_rps: 0.0,
            flood_endpoint: Endpoint::Simulate,
            tensor_mix: 0.0,
            injectors: 8,
        }
    }
}

/// One scheduled request: fire `endpoint` as `tenant` with `payload`,
/// `at_us` microseconds after the run starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Intended send time, µs from run start.
    pub at_us: u64,
    /// Tenant index (rendered as `lt-<idx>`).
    pub tenant: u32,
    /// Which endpoint to hit.
    pub endpoint: Endpoint,
    /// Which pre-built payload to send.
    pub payload: u32,
}

/// The tenant id string the harness sends for tenant index `i`.
pub fn tenant_name(i: u32) -> String {
    format!("lt-{i:04}")
}

/// Builds the deterministic request schedule for `cfg`.
///
/// # Errors
///
/// Invalid sampler parameters (non-positive rate, zero tenants).
pub fn build_schedule(cfg: &LoadConfig) -> Result<Vec<Event>, String> {
    let arrivals = Exp::new(cfg.offered_rps).map_err(|e| format!("offered_rps: {e}"))?;
    let tenant_pick =
        Zipf::new(cfg.tenants.max(1), cfg.tenant_skew).map_err(|e| format!("tenants: {e}"))?;
    let payload_pick =
        Zipf::new(cfg.payloads.max(1), cfg.payload_skew).map_err(|e| format!("payloads: {e}"))?;
    let horizon_s = cfg.duration.as_secs_f64();
    let flooding = cfg.flood_rps > 0.0;
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut t = 0.0f64;
    let mut events = Vec::new();
    loop {
        t += arrivals.sample(&mut rng);
        if t >= horizon_s {
            break;
        }
        // With a flood overlay, tenant 0 is reserved for the flooder and
        // the blended mix occupies indices 1..=tenants.
        let tenant = tenant_pick.sample_index(&mut rng) as u32 + u32::from(flooding);
        let payload = payload_pick.sample_index(&mut rng) as u32;
        // One uniform decides the endpoint whether or not a tensor slice
        // is configured: `u < tensor_mix` goes to the store (GET-heavy),
        // the remainder rescales onto the classic CDF. With
        // `tensor_mix == 0` the rescale is the identity, so historical
        // schedules reproduce bit-for-bit.
        let u = rng.gen_f64();
        let tensor_mix = cfg.tensor_mix.clamp(0.0, 0.99);
        let endpoint = if u < tensor_mix {
            if u < tensor_mix * TENSOR_GET_SHARE {
                Endpoint::TensorGet
            } else {
                Endpoint::TensorPut
            }
        } else {
            let v = (u - tensor_mix) / (1.0 - tensor_mix);
            ENDPOINTS[MIX_CDF.iter().position(|&c| v < c).unwrap_or(3)]
        };
        events.push(Event { at_us: (t * 1e6) as u64, tenant, endpoint, payload });
    }
    if flooding {
        let flood = Exp::new(cfg.flood_rps).map_err(|e| format!("flood_rps: {e}"))?;
        let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xF100_D5EE_D000_0001);
        let mut t = 0.0f64;
        loop {
            t += flood.sample(&mut rng);
            if t >= horizon_s {
                break;
            }
            events.push(Event {
                at_us: (t * 1e6) as u64,
                tenant: 0,
                endpoint: cfg.flood_endpoint,
                payload: 0,
            });
        }
        events.sort_by_key(|e| e.at_us);
    }
    Ok(events)
}

/// Renders the schedule as one line per event — the byte-identical
/// artifact CI diffs across runs.
pub fn schedule_dump(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 24);
    for e in events {
        out.push_str(&format!(
            "{} {} {} {}\n",
            e.at_us,
            e.tenant,
            e.endpoint.name(),
            e.payload
        ));
    }
    out
}

/// FNV-1a digest of a schedule dump, as fixed-width hex. Uses the
/// workspace's consolidated [`spark_util::fnv`] implementation;
/// `digest_is_pinned` holds a golden value so CI's byte-reproducibility
/// contract survives refactors of the hash.
pub fn schedule_digest(dump: &str) -> String {
    format!("{:016x}", spark_util::fnv::fnv1a(dump.as_bytes()))
}

/// Pre-rendered request bodies, one set per payload index. Building them
/// up front keeps the injector hot path at "pick slice, send" — no JSON
/// rendering or encoding inside the measured window.
struct Payloads {
    /// `{"values": [...]}` bodies for encode/analyze.
    values_json: Vec<Vec<u8>>,
    /// `{"stream_hex": "..."}` bodies for decode (valid SPARK streams).
    decode_json: Vec<Vec<u8>>,
    /// `{"values": [...]}` bodies of exactly `INFER_INPUTS` values.
    infer_json: Vec<Vec<u8>>,
    /// The one `/v1/simulate` body the flooder fires.
    simulate_json: Vec<u8>,
}

impl Payloads {
    fn build(cfg: &LoadConfig) -> Result<Payloads, String> {
        let n = cfg.payloads.max(1);
        let mut values_json = Vec::with_capacity(n);
        let mut decode_json = Vec::with_capacity(n);
        let mut infer_json = Vec::with_capacity(n);
        for i in 0..n {
            let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
            // Popular payloads (low rank) are smaller — the common case
            // in serving is many small tensors, few large ones.
            let len = cfg.payload_base_values.max(1) + cfg.payload_step_values * (i % 12);
            let values: Vec<f32> =
                (0..len).map(|_| (rng.gen_f64() * 4.0 - 2.0) as f32).collect();
            values_json.push(render_values(&values).into_bytes());
            let codes = api::quantize_codes(&values)?;
            let encoded = spark_codec::encode_tensor(&codes.codes);
            let hex = api::stream_to_hex(&encoded.stream);
            decode_json.push(format!("{{\"stream_hex\": \"{hex}\"}}").into_bytes());
            let infer_values: Vec<f32> =
                (0..api::INFER_INPUTS).map(|_| (rng.gen_f64() * 4.0 - 2.0) as f32).collect();
            infer_json.push(render_values(&infer_values).into_bytes());
        }
        let simulate_json = b"{\"model\": \"resnet18\", \"accelerator\": \"spark\"}".to_vec();
        Ok(Payloads { values_json, decode_json, infer_json, simulate_json })
    }

    fn body(&self, endpoint: Endpoint, payload: u32) -> &[u8] {
        let list = match endpoint {
            // A tensor PUT persists the same values bodies encode sees;
            // a GET carries no body at all.
            Endpoint::Encode | Endpoint::Analyze | Endpoint::TensorPut => &self.values_json,
            Endpoint::Decode => &self.decode_json,
            Endpoint::Infer => &self.infer_json,
            Endpoint::Simulate => return &self.simulate_json,
            Endpoint::TensorGet => return b"",
        };
        let i = (payload as usize).min(list.len().saturating_sub(1));
        list.get(i).map(Vec::as_slice).unwrap_or(b"{}")
    }
}

fn render_values(values: &[f32]) -> String {
    let items: Vec<String> = values.iter().map(f32::to_string).collect();
    format!("{{\"values\": [{}]}}", items.join(", "))
}

/// Status classes the harness tallies per endpoint. The final four slots
/// split transport failures by mode — a kill-window analysis needs to
/// know *how* requests died (connect-refused means the process is gone,
/// read-timeout means it hung, short-body means it died mid-response).
const STATUS_SLOTS: usize = 11;
const STATUS_NAMES: [&str; STATUS_SLOTS] = [
    "ok_200",
    "bad_400",
    "timeout_408",
    "shed_429",
    "err_500",
    "shed_503",
    "other",
    "transport_connect",
    "transport_timeout",
    "transport_short",
    "transport_other",
];

/// First of the transport slots; slots `TRANSPORT_BASE..STATUS_SLOTS`
/// sum to the report's aggregate `transport_errors`.
const TRANSPORT_BASE: usize = 7;

fn status_slot(status: u16) -> usize {
    match status {
        200 => 0,
        400 => 1,
        408 => 2,
        429 => 3,
        500 => 4,
        503 => 5,
        _ => 6,
    }
}

fn transport_slot(e: &ClientError) -> usize {
    match e {
        ClientError::Connect(_) => TRANSPORT_BASE,
        ClientError::Timeout(_) => TRANSPORT_BASE + 1,
        ClientError::ShortBody(_) => TRANSPORT_BASE + 2,
        ClientError::Protocol(_) => TRANSPORT_BASE + 3,
    }
}

/// Per-endpoint tallies: status counts plus the success-latency
/// histogram (measured from intended send time).
struct EndpointTally {
    statuses: [AtomicU64; STATUS_SLOTS],
    ok_latency_us: Histogram,
}

impl EndpointTally {
    fn new() -> Self {
        Self {
            statuses: std::array::from_fn(|_| AtomicU64::new(0)),
            ok_latency_us: Histogram::new(),
        }
    }

    fn sent(&self) -> u64 {
        self.statuses.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }
}

/// Everything one load run measured, plus the schedule identity that
/// makes it reproducible.
pub struct LoadReport {
    /// The config the run used.
    pub config: LoadConfig,
    /// Events in the schedule (== requests fired).
    pub offered: u64,
    /// Digest of the schedule dump.
    pub digest: String,
    /// Wall-clock time from first intended send to last completion.
    pub duration_s: f64,
    /// Responses received (any status) per second of wall time.
    pub achieved_rps: f64,
    /// 200 responses per second of wall time.
    pub ok_rps: f64,
    /// 200 responses.
    pub ok: u64,
    /// 429 quota sheds.
    pub shed_429: u64,
    /// 503 queue sheds.
    pub shed_503: u64,
    /// Transport-level failures, all modes summed (the key the CI
    /// `transport_errors == 0` gate greps).
    pub transport_errors: u64,
    /// Connect-refused/unreachable failures — the process is *gone*.
    pub transport_connect: u64,
    /// Read/write timeouts — the process accepted but hung.
    pub transport_timeout: u64,
    /// Connection died mid-response (reset/EOF before the promised body).
    pub transport_short: u64,
    /// Anything else (malformed status line, protocol violations).
    pub transport_other: u64,
    /// p50 of success latency, µs from intended send.
    pub ok_p50_us: u64,
    /// p99 of success latency.
    pub ok_p99_us: u64,
    /// p999 of success latency.
    pub ok_p999_us: u64,
    /// Events addressed to the hottest tenant (Zipf rank 1).
    pub hot_offered: u64,
    /// 200s for the hottest tenant.
    pub hot_ok: u64,
    /// 429s for the hottest tenant.
    pub hot_429: u64,
    /// Events addressed to every other tenant.
    pub cold_offered: u64,
    /// 200s for the non-head tenants.
    pub cold_ok: u64,
    /// p99 success latency for the non-head tenants, µs from intended
    /// send — the number the saturation search and CI gate watch: it is
    /// the tail an innocent tenant experiences while the head floods.
    pub cold_p99_us: u64,
    /// p50 for the non-head tenants.
    pub cold_p50_us: u64,
    /// Per-endpoint tallies as JSON.
    endpoints_json: Value,
    /// Server-side counters scraped from `/metrics` after the run.
    pub server: Option<Value>,
}

impl LoadReport {
    /// Serializes the report (the `BENCH_load.json` payload).
    pub fn to_json(&self) -> Value {
        let c = &self.config;
        Value::object([
            (
                "config",
                Value::object([
                    ("seed", Value::Num(c.seed as f64)),
                    ("offered_rps", Value::Num(c.offered_rps)),
                    ("duration_s", Value::Num(c.duration.as_secs_f64())),
                    ("tenants", Value::Num(c.tenants as f64)),
                    ("tenant_skew", Value::Num(c.tenant_skew)),
                    ("payloads", Value::Num(c.payloads as f64)),
                    ("payload_skew", Value::Num(c.payload_skew)),
                    ("tensor_mix", Value::Num(c.tensor_mix)),
                    ("injectors", Value::Num(c.injectors as f64)),
                ]),
            ),
            ("schedule_digest", Value::Str(self.digest.clone())),
            ("offered", Value::Num(self.offered as f64)),
            ("duration_s", Value::Num(self.duration_s)),
            ("achieved_rps", Value::Num(self.achieved_rps)),
            ("ok_rps", Value::Num(self.ok_rps)),
            ("ok", Value::Num(self.ok as f64)),
            ("shed_429", Value::Num(self.shed_429 as f64)),
            ("shed_503", Value::Num(self.shed_503 as f64)),
            ("transport_errors", Value::Num(self.transport_errors as f64)),
            (
                "transport",
                Value::object([
                    ("connect", Value::Num(self.transport_connect as f64)),
                    ("timeout", Value::Num(self.transport_timeout as f64)),
                    ("short_body", Value::Num(self.transport_short as f64)),
                    ("other", Value::Num(self.transport_other as f64)),
                ]),
            ),
            ("ok_p50_us", Value::Num(self.ok_p50_us as f64)),
            ("ok_p99_us", Value::Num(self.ok_p99_us as f64)),
            ("ok_p999_us", Value::Num(self.ok_p999_us as f64)),
            // Flat duplicate of cold_tenants.ok_p99_us: the one key the
            // CI tail-latency gate greps, so it must be unique in the
            // document.
            ("cold_p99_us", Value::Num(self.cold_p99_us as f64)),
            (
                "hot_tenant",
                Value::object([
                    ("offered", Value::Num(self.hot_offered as f64)),
                    ("ok", Value::Num(self.hot_ok as f64)),
                    ("shed_429", Value::Num(self.hot_429 as f64)),
                ]),
            ),
            (
                "cold_tenants",
                Value::object([
                    ("offered", Value::Num(self.cold_offered as f64)),
                    ("ok", Value::Num(self.cold_ok as f64)),
                    ("ok_p50_us", Value::Num(self.cold_p50_us as f64)),
                    ("ok_p99_us", Value::Num(self.cold_p99_us as f64)),
                ]),
            ),
            ("endpoints", self.endpoints_json.clone()),
            ("server", self.server.clone().unwrap_or(Value::Null)),
        ])
    }
}

/// Fires `cfg`'s schedule at `addr` open-loop and collects the report.
/// Latency is measured from each event's *intended* send time, so
/// injector or server stalls surface in the tail instead of hiding.
///
/// # Errors
///
/// Schedule/payload construction failures. Transport errors during the
/// run are tallied, not returned.
pub fn run_load(addr: &str, cfg: &LoadConfig) -> Result<LoadReport, String> {
    let events = build_schedule(cfg)?;
    let digest = schedule_digest(&schedule_dump(&events));
    let payloads = Payloads::build(cfg)?;
    let tenant_names: Vec<String> =
        (0..cfg.tenants.max(1) as u32 + 1).map(tenant_name).collect();
    // Tensor request paths, pre-rendered like the bodies: the payload
    // rank doubles as the stored-tensor name, so Zipf-popular payloads
    // are also the hot names on the store's read path.
    let tensor_paths: Vec<String> =
        (0..cfg.payloads.max(1) as u32).map(tensor_path).collect();
    let tallies: Vec<EndpointTally> = (0..ENDPOINTS.len()).map(|_| EndpointTally::new()).collect();
    let all_ok = Histogram::new();
    // Hot = the Zipf head (tenant 0); cold = everyone else. The split is
    // what lets the saturation bench ask "what tail do innocent tenants
    // see while the head floods?".
    let cold_ok_hist = Histogram::new();
    let hot_counts: [AtomicU64; 3] = std::array::from_fn(|_| AtomicU64::new(0));
    let cold_counts: [AtomicU64; 2] = std::array::from_fn(|_| AtomicU64::new(0));
    let injectors = cfg.injectors.max(1);

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..injectors {
            let events = &events;
            let payloads = &payloads;
            let tenant_names = &tenant_names;
            let tensor_paths = &tensor_paths;
            let tallies = &tallies;
            let all_ok = &all_ok;
            let cold_ok_hist = &cold_ok_hist;
            let hot_counts = &hot_counts;
            let cold_counts = &cold_counts;
            scope.spawn(move || {
                for e in events.iter().skip(worker).step_by(injectors) {
                    let intended = t0 + Duration::from_micros(e.at_us);
                    let now = Instant::now();
                    if intended > now {
                        std::thread::sleep(intended - now);
                    }
                    let tenant = tenant_names
                        .get(e.tenant as usize)
                        .map(String::as_str)
                        .unwrap_or("lt-0000");
                    let body = payloads.body(e.endpoint, e.payload);
                    let path = match e.endpoint {
                        Endpoint::TensorGet | Endpoint::TensorPut => tensor_paths
                            .get(e.payload as usize)
                            .map(String::as_str)
                            .unwrap_or("/v1/tensors/load-0000"),
                        ep => ep.path(),
                    };
                    let outcome = client_call(
                        addr,
                        e.endpoint.method(),
                        path,
                        "application/json",
                        &[("X-Spark-Tenant", tenant)],
                        body,
                    );
                    let latency_us =
                        (Instant::now().saturating_duration_since(intended).as_micros() as u64)
                            .max(1);
                    let tally = &tallies[e.endpoint.index()];
                    let hot = e.tenant == 0;
                    if hot {
                        hot_counts[0].fetch_add(1, Ordering::Relaxed);
                    } else {
                        cold_counts[0].fetch_add(1, Ordering::Relaxed);
                    }
                    match outcome {
                        Ok(resp) => {
                            let status = resp.status;
                            let slot = status_slot(status);
                            tally.statuses[slot].fetch_add(1, Ordering::Relaxed);
                            if status == 200 {
                                tally.ok_latency_us.record(latency_us);
                                all_ok.record(latency_us);
                                if hot {
                                    hot_counts[1].fetch_add(1, Ordering::Relaxed);
                                } else {
                                    cold_counts[1].fetch_add(1, Ordering::Relaxed);
                                    cold_ok_hist.record(latency_us);
                                }
                            } else if status == 429 && hot {
                                hot_counts[2].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(err) => {
                            tally.statuses[transport_slot(&err)].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let duration_s = t0.elapsed().as_secs_f64().max(1e-9);

    let server = scrape_server(addr);
    let total: u64 = tallies.iter().map(EndpointTally::sent).sum();
    let ok: u64 = tallies.iter().map(|t| t.statuses[0].load(Ordering::Relaxed)).sum();
    let shed_429: u64 = tallies.iter().map(|t| t.statuses[3].load(Ordering::Relaxed)).sum();
    let shed_503: u64 = tallies.iter().map(|t| t.statuses[5].load(Ordering::Relaxed)).sum();
    let transport_by_mode: [u64; STATUS_SLOTS - TRANSPORT_BASE] = std::array::from_fn(|i| {
        tallies
            .iter()
            .map(|t| t.statuses[TRANSPORT_BASE + i].load(Ordering::Relaxed))
            .sum()
    });
    let transport: u64 = transport_by_mode.iter().sum();

    let endpoints_json = Value::object(ENDPOINTS.iter().map(|&ep| {
        let t = &tallies[ep.index()];
        let statuses = Value::object(
            STATUS_NAMES
                .iter()
                .zip(&t.statuses)
                .map(|(name, v)| (*name, Value::Num(v.load(Ordering::Relaxed) as f64))),
        );
        (
            ep.name(),
            Value::object([
                ("sent", Value::Num(t.sent() as f64)),
                ("statuses", statuses),
                ("ok_p50_us", Value::Num(t.ok_latency_us.quantile(0.50) as f64)),
                ("ok_p99_us", Value::Num(t.ok_latency_us.quantile(0.99) as f64)),
                ("ok_p999_us", Value::Num(t.ok_latency_us.quantile(0.999) as f64)),
            ]),
        )
    }));

    Ok(LoadReport {
        config: cfg.clone(),
        offered: events.len() as u64,
        digest,
        duration_s,
        achieved_rps: total as f64 / duration_s,
        ok_rps: ok as f64 / duration_s,
        ok,
        shed_429,
        shed_503,
        transport_errors: transport,
        transport_connect: transport_by_mode[0],
        transport_timeout: transport_by_mode[1],
        transport_short: transport_by_mode[2],
        transport_other: transport_by_mode[3],
        ok_p50_us: all_ok.quantile(0.50),
        ok_p99_us: all_ok.quantile(0.99),
        ok_p999_us: all_ok.quantile(0.999),
        hot_offered: hot_counts[0].load(Ordering::Relaxed),
        hot_ok: hot_counts[1].load(Ordering::Relaxed),
        hot_429: hot_counts[2].load(Ordering::Relaxed),
        cold_offered: cold_counts[0].load(Ordering::Relaxed),
        cold_ok: cold_counts[1].load(Ordering::Relaxed),
        cold_p99_us: cold_ok_hist.quantile(0.99),
        cold_p50_us: cold_ok_hist.quantile(0.50),
        endpoints_json,
        server,
    })
}

/// Best-effort scrape of the server's own counters after a run — the CI
/// `panics == 0` gate reads these.
fn scrape_server(addr: &str) -> Option<Value> {
    let (status, body) =
        client_request_with_headers(addr, "GET", "/metrics", "", &[], b"").ok()?;
    if status != 200 {
        return None;
    }
    let v = spark_util::json::parse(std::str::from_utf8(&body).ok()?).ok()?;
    let pick = |section: &str, name: &str| -> Value {
        v.get(section)
            .and_then(|s| s.get(name))
            .cloned()
            .unwrap_or(Value::Null)
    };
    Some(Value::object([
        ("panics_total", pick("resilience", "panics_total")),
        ("workers_respawned", pick("resilience", "workers_respawned")),
        ("rejected_503", pick("queue", "rejected_503")),
        ("rejected_429", pick("queue", "rejected_429")),
        ("accepted", pick("queue", "accepted")),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, Server};

    fn quick() -> LoadConfig {
        LoadConfig {
            seed: 7,
            offered_rps: 400.0,
            duration: Duration::from_millis(500),
            tenants: 16,
            tenant_skew: 1.0,
            payloads: 8,
            payload_skew: 1.0,
            injectors: 4,
            ..LoadConfig::default()
        }
    }

    #[test]
    fn digest_is_pinned() {
        // Golden digests from the original in-module FNV-1a loop, before
        // it was consolidated into spark_util::fnv — CI's dump-diffing
        // contract must survive the refactor.
        assert_eq!(schedule_digest(""), "cbf29ce484222325");
        assert_eq!(
            schedule_digest("0 1 encode 0\n141 3 decode 2\n"),
            "0f1e7ea9b1906637"
        );
    }

    #[test]
    fn zero_tensor_mix_reproduces_historical_schedules() {
        // The tensor slice consumes the *same* uniform draw, so a zero
        // mix must leave every event of a pre-store schedule untouched —
        // not just the same distribution, the same bytes.
        let cfg = quick();
        assert_eq!(cfg.tensor_mix, 0.0);
        let events = build_schedule(&cfg).unwrap();
        assert!(events
            .iter()
            .all(|e| e.endpoint != Endpoint::TensorGet && e.endpoint != Endpoint::TensorPut));
        // And the arrival/tenant/payload stream is identical to a config
        // that never heard of the knob (field-for-field default).
        let dump = schedule_dump(&events);
        assert_eq!(schedule_digest(&dump), schedule_digest(&schedule_dump(&build_schedule(&cfg).unwrap())));
    }

    #[test]
    fn tensor_mix_draws_store_traffic_deterministically() {
        let cfg = LoadConfig { tensor_mix: 0.3, ..quick() };
        let a = build_schedule(&cfg).unwrap();
        let b = build_schedule(&cfg).unwrap();
        assert_eq!(schedule_dump(&a), schedule_dump(&b));
        let gets = a.iter().filter(|e| e.endpoint == Endpoint::TensorGet).count();
        let puts = a.iter().filter(|e| e.endpoint == Endpoint::TensorPut).count();
        assert!(gets > 0 && puts > 0, "{gets} gets / {puts} puts");
        assert!(gets > puts, "the store slice is read-mostly");
        // The non-tensor remainder still blends every classic endpoint.
        for ep in [Endpoint::Encode, Endpoint::Decode, Endpoint::Analyze, Endpoint::Infer] {
            assert!(a.iter().any(|e| e.endpoint == ep), "{} missing", ep.name());
        }
    }

    #[test]
    fn schedule_is_byte_identical_across_builds() {
        let cfg = quick();
        let a = build_schedule(&cfg).unwrap();
        let b = build_schedule(&cfg).unwrap();
        assert!(!a.is_empty());
        assert_eq!(schedule_dump(&a), schedule_dump(&b));
        assert_eq!(
            schedule_digest(&schedule_dump(&a)),
            schedule_digest(&schedule_dump(&b))
        );
        // A different seed is a different schedule.
        let c = build_schedule(&LoadConfig { seed: 8, ..cfg }).unwrap();
        assert_ne!(schedule_dump(&a), schedule_dump(&c));
    }

    #[test]
    fn schedule_matches_offered_rate_and_skew() {
        let cfg = LoadConfig {
            offered_rps: 1000.0,
            duration: Duration::from_secs(4),
            ..quick()
        };
        let events = build_schedule(&cfg).unwrap();
        // ~4000 Poisson arrivals; allow ±5 sigma (~±316).
        assert!(
            (events.len() as i64 - 4000).abs() < 320,
            "{} events for 4000 expected",
            events.len()
        );
        // Monotone non-decreasing intended times inside the horizon.
        for w in events.windows(2) {
            assert!(w[0].at_us <= w[1].at_us);
        }
        assert!(events.last().map(|e| e.at_us < 4_000_000).unwrap_or(true));
        // Zipf skew: tenant 0 strictly most popular.
        let mut counts = vec![0usize; cfg.tenants];
        for e in &events {
            counts[e.tenant as usize] += 1;
        }
        let top = counts[0];
        assert!(
            counts.iter().skip(1).all(|&c| c <= top),
            "tenant 0 must dominate, got {counts:?}"
        );
        // Every mix endpoint appears in a 4000-event blend; the
        // heavyweight simulate call only fires from a flood overlay.
        for ep in [Endpoint::Encode, Endpoint::Decode, Endpoint::Analyze, Endpoint::Infer] {
            assert!(
                events.iter().any(|e| e.endpoint == ep),
                "{} missing from mix",
                ep.name()
            );
        }
        assert!(events.iter().all(|e| e.endpoint != Endpoint::Simulate));
    }

    #[test]
    fn flood_overlay_reserves_tenant_zero_and_stays_sorted() {
        let cfg = LoadConfig {
            offered_rps: 500.0,
            duration: Duration::from_secs(2),
            flood_rps: 250.0,
            ..quick()
        };
        let events = build_schedule(&cfg).unwrap();
        for w in events.windows(2) {
            assert!(w[0].at_us <= w[1].at_us, "merged schedule must stay sorted");
        }
        let flood: Vec<_> = events.iter().filter(|e| e.tenant == 0).collect();
        assert!(
            flood.iter().all(|e| e.endpoint == Endpoint::Simulate),
            "tenant 0 is the flooder and only fires the flood endpoint"
        );
        assert!(
            events
                .iter()
                .filter(|e| e.tenant != 0)
                .all(|e| e.endpoint != Endpoint::Simulate),
            "mix tenants never draw the flood endpoint"
        );
        // ~500 flood events expected; 5 sigma ≈ 112.
        assert!(
            (flood.len() as i64 - 500).abs() < 120,
            "{} flood events for 500 expected",
            flood.len()
        );
        // Same config, same merged schedule.
        let again = build_schedule(&cfg).unwrap();
        assert_eq!(schedule_dump(&events), schedule_dump(&again));
    }

    #[test]
    fn payload_bodies_are_deterministic_and_valid() {
        let cfg = quick();
        let a = Payloads::build(&cfg).unwrap();
        let b = Payloads::build(&cfg).unwrap();
        for i in 0..cfg.payloads as u32 {
            for ep in ENDPOINTS {
                assert_eq!(a.body(ep, i), b.body(ep, i));
            }
        }
        // Decode bodies carry hex streams the server-side parser accepts.
        let text = std::str::from_utf8(a.body(Endpoint::Decode, 0)).unwrap();
        let v = spark_util::json::parse(text).unwrap();
        let hex = v.get("stream_hex").unwrap().as_str().unwrap();
        assert!(api::stream_from_hex(hex).is_ok());
    }

    #[test]
    fn loopback_run_accounts_for_every_event() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            shards: 2,
            shard_workers: 2,
            queue_depth: 64,
            shard_queue: 32,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr().to_string();
        let cfg = LoadConfig {
            offered_rps: 150.0,
            duration: Duration::from_millis(600),
            ..quick()
        };
        let report = run_load(&addr, &cfg).unwrap();
        assert!(report.offered > 0);
        // Loopback with generous queues: every event got an HTTP answer.
        assert_eq!(report.transport_errors, 0);
        assert!(report.ok > 0, "no successes in {}", report.to_json().to_string_compact());
        assert!(report.ok_p99_us >= report.ok_p50_us);
        let v = report.to_json();
        let sent: f64 = ENDPOINTS
            .iter()
            .map(|ep| {
                v.get("endpoints")
                    .and_then(|e| e.get(ep.name()))
                    .and_then(|e| e.get("sent"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
            })
            .sum();
        assert_eq!(sent as u64, report.offered, "every event tallied exactly once");
        assert_eq!(
            report.hot_offered + report.cold_offered,
            report.offered,
            "hot/cold split partitions the schedule"
        );
        let server_side = report.server.as_ref().unwrap();
        assert_eq!(server_side.get("panics_total").unwrap().as_f64(), Some(0.0));
        server.shutdown();
        server.join();
    }

    #[test]
    fn dead_backend_failures_classify_as_connect_errors() {
        // Bind-then-drop a listener so the port is known-closed: every
        // request must land in the connect slot specifically, not the
        // old lumped transport counter's anonymous bucket.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let cfg = LoadConfig {
            offered_rps: 80.0,
            duration: Duration::from_millis(300),
            injectors: 2,
            ..quick()
        };
        let report = run_load(&addr, &cfg).unwrap();
        assert!(report.offered > 0);
        assert_eq!(report.transport_connect, report.offered);
        assert_eq!(report.transport_errors, report.offered);
        assert_eq!(report.transport_timeout + report.transport_short + report.transport_other, 0);
        assert_eq!(report.ok, 0);
        // The JSON breakdown mirrors the typed fields.
        let v = report.to_json();
        let t = v.get("transport").unwrap();
        assert_eq!(t.get("connect").unwrap().as_f64(), Some(report.offered as f64));
        assert_eq!(t.get("short_body").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn loopback_quota_floods_are_shed_with_429() {
        // Tight per-tenant quota + heavy skew: the hot tenant must trip
        // its bucket while the run keeps succeeding for the long tail.
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            shards: 2,
            shard_workers: 2,
            queue_depth: 64,
            shard_queue: 32,
            quota_rps: 20.0,
            quota_burst: 5.0,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr().to_string();
        let cfg = LoadConfig {
            offered_rps: 300.0,
            duration: Duration::from_millis(800),
            tenants: 8,
            tenant_skew: 1.5,
            ..quick()
        };
        let report = run_load(&addr, &cfg).unwrap();
        assert!(
            report.shed_429 > 0,
            "hot tenant at ~150 rps against a 20 rps quota must shed: {}",
            report.to_json().to_string_compact()
        );
        assert!(report.ok > 0, "long-tail tenants must keep succeeding");
        let server_side = report.server.as_ref().unwrap();
        assert_eq!(
            server_side.get("rejected_429").unwrap().as_f64(),
            Some(report.shed_429 as f64),
            "client-observed and server-counted 429s must agree"
        );
        server.shutdown();
        server.join();
    }
}
