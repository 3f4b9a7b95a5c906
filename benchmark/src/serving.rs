//! The serving workloads, `infer` and `codec_mix`: seeded open-loop
//! traffic against a real `spark serve` child over loopback, an output
//! oracle built from the same commit's library, and (traced) an in-process
//! replay of the same request bodies through each layer the server calls.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use spark_codec::{decode_stream, encode_tensor, read_container, write_container, EncodedTensor};
use spark_data::ModelProfile;
use spark_nn::layers::{Dense, Relu};
use spark_nn::Sequential;
use spark_quant::MagnitudeCodes;
use spark_serve::api::{self, InferModel, INFER_HIDDEN, INFER_INPUTS, INFER_OUTPUTS, INFER_SEED};
use spark_store::BlockStore;
use spark_tensor::Tensor;
use spark_util::json::{self, Value};
use spark_util::{Rng, Zipf};

use crate::client::{self, Outcome, Phase, PhaseResult, Request, ServeProc};
use crate::report::{Report, Workload};
use crate::schedule::{self, derive, Arrival};
use crate::stats::{self, Summary};
use crate::trace::{self, Recorder, Span};
use crate::{sqnr_db, Settings};

/// `infer` nominal arrival rate, requests/s.
const INFER_RPS: f64 = 1000.0;
/// `codec_mix` nominal arrival rate, requests/s.
const CODEC_RPS: f64 = 200.0;
/// Distinct `/v1/infer` inputs: enough that the SQNR of the served
/// outputs barely moves with the seed.
const INFER_BODIES: usize = 1024;
/// Tenants `X-Spark-Tenant` is drawn from, and their Zipf exponent.
const TENANTS: usize = 64;
const TENANT_SKEW: f64 = 1.1;
/// Distinct `codec_mix` payloads (and stored tensor names), their Zipf
/// popularity exponent, and their size range in values. Payload `i` has
/// a fixed size on a geometric ladder, the smallest the most popular, so
/// the size mix is the same for every seed; the seed draws the values.
/// Sixty-four of them keep the SQNR of the served codes steady across
/// seeds.
const PAYLOADS: usize = 64;
const PAYLOAD_SKEW: f64 = 1.0;
const MIN_PAYLOAD: f64 = 512.0;
const MAX_PAYLOAD: f64 = 16384.0;
/// Spawns of `spark serve` whose spawn→healthy times make `setup_s`.
const SPAWNS: usize = 15;
/// `/v1/infer` outputs must match the local model to this relative error.
const INFER_TOLERANCE: f64 = 1e-5;

/// The `codec_mix` operations and their share of requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Encode,
    Decode,
    Analyze,
    Get,
    Put,
}

const MIX: [(Op, f64); 5] = [
    (Op::Encode, 0.35),
    (Op::Decode, 0.25),
    (Op::Analyze, 0.20),
    (Op::Get, 0.16),
    (Op::Put, 0.04),
];

fn payload_len(i: usize) -> usize {
    let t = i as f64 / (PAYLOADS - 1) as f64;
    (MIN_PAYLOAD * (MAX_PAYLOAD / MIN_PAYLOAD).powf(t)).round() as usize
}

fn tensor_name(i: usize) -> String {
    format!("bench-t{i:02}")
}

/// `codec_mix` specs are op-major: `spec = op * PAYLOADS + payload`.
fn codec_spec(spec: u32) -> (Op, usize) {
    let spec = spec as usize;
    (MIX[spec / PAYLOADS].0, spec % PAYLOADS)
}

struct InferData {
    /// The locally built encoded model's outputs per input.
    outputs: Vec<Vec<f64>>,
    argmax: Vec<usize>,
    /// The same network with unquantized f32 weights.
    dense_outputs: Vec<Vec<f32>>,
    bits_per_value: f64,
}

struct CodecData {
    payloads: Vec<Vec<f32>>,
    codes: Vec<MagnitudeCodes>,
    encoded: Vec<EncodedTensor>,
    decoded: Vec<Vec<u8>>,
}

enum Data {
    Infer(InferData),
    Codec(CodecData),
}

/// The requests, their canonical responses, and the typed inputs the
/// oracle and the replay need. Both vectors are indexed by spec.
struct Traffic {
    workload: Workload,
    rate: f64,
    requests: Vec<Request>,
    canonical: Vec<Vec<u8>>,
    data: Data,
}

fn values_body(values: &[f32]) -> Vec<u8> {
    Value::object([(
        "values",
        Value::Array(values.iter().map(|v| Value::Num(f64::from(*v))).collect()),
    )])
    .to_string_compact()
    .into_bytes()
}

fn parse_body(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    json::parse(text).map_err(|e| format!("body is not JSON: {e}"))
}

fn num_array(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("no {key} array"))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("{key} holds a non-number"))
        })
        .collect()
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("no numeric {key}"))
}

fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

impl Traffic {
    fn infer(seed: u64) -> Result<Self, String> {
        let acts =
            ModelProfile::bert().sample_activations(INFER_BODIES * INFER_INPUTS, derive(seed, 1));
        let mut model = InferModel::new()?;
        let mut dense = Sequential::new("infer-f32")
            .push(Dense::new(INFER_INPUTS, INFER_HIDDEN, INFER_SEED))
            .push(Relu::new())
            .push(Dense::new(
                INFER_HIDDEN,
                INFER_OUTPUTS,
                INFER_SEED.wrapping_add(1),
            ));
        let mut data = InferData {
            outputs: Vec::new(),
            argmax: Vec::new(),
            dense_outputs: Vec::new(),
            bits_per_value: model.report().resident_bytes as f64 * 8.0
                / (INFER_INPUTS * INFER_HIDDEN + INFER_HIDDEN * INFER_OUTPUTS) as f64,
        };
        let (mut requests, mut canonical) = (Vec::new(), Vec::new());
        for input in acts.as_slice().chunks(INFER_INPUTS) {
            let response = model.infer(input)?;
            let outputs = num_array(&response, "outputs")?;
            data.argmax.push(num(&response, "argmax")? as usize);
            data.outputs.push(outputs);
            canonical.push(response.to_string_compact().into_bytes());
            let x =
                Tensor::from_vec(input.to_vec(), &[1, INFER_INPUTS]).map_err(|e| e.to_string())?;
            data.dense_outputs.push(dense.forward(&x).into_vec());
            requests.push(Request {
                method: "POST",
                path: "/v1/infer".into(),
                content_type: "application/json",
                body: values_body(input),
            });
        }
        Ok(Self {
            workload: Workload::Infer,
            rate: INFER_RPS,
            requests,
            canonical,
            data: Data::Infer(data),
        })
    }

    fn codec_mix(seed: u64) -> Result<Self, String> {
        let profile = ModelProfile::resnet50();
        let mut d = CodecData {
            payloads: Vec::new(),
            codes: Vec::new(),
            encoded: Vec::new(),
            decoded: Vec::new(),
        };
        for i in 0..PAYLOADS {
            let values = profile
                .sample_tensor(payload_len(i), derive(seed, 100 + i as u64))
                .into_vec();
            let codes = api::quantize_codes(&values)?;
            let encoded = encode_tensor(&codes.codes);
            let decoded = decode_stream(&encoded.stream).map_err(|e| e.to_string())?;
            d.payloads.push(values);
            d.codes.push(codes);
            d.encoded.push(encoded);
            d.decoded.push(decoded);
        }
        let (mut requests, mut canonical) = (Vec::new(), Vec::new());
        for (op, _) in MIX {
            for i in 0..PAYLOADS {
                let raw = || {
                    d.payloads[i]
                        .iter()
                        .flat_map(|v| v.to_le_bytes())
                        .collect::<Vec<u8>>()
                };
                let tensor_path = format!("/v1/tensors/{}", tensor_name(i));
                let (method, path, content_type, body, response) = match op {
                    Op::Encode => (
                        "POST",
                        "/v1/encode".to_string(),
                        "application/octet-stream",
                        raw(),
                        api::encode_response(&d.encoded[i], d.codes[i].scale)
                            .to_string_compact()
                            .into_bytes(),
                    ),
                    Op::Decode => (
                        "POST",
                        "/v1/decode".to_string(),
                        "application/json",
                        Value::object([(
                            "stream_hex",
                            Value::Str(api::stream_to_hex(&d.encoded[i].stream)),
                        )])
                        .to_string_compact()
                        .into_bytes(),
                        api::decode_codes_response(&d.decoded[i])
                            .to_string_compact()
                            .into_bytes(),
                    ),
                    Op::Analyze => (
                        "POST",
                        "/v1/analyze".to_string(),
                        "application/octet-stream",
                        raw(),
                        api::analyze_response(&d.payloads[i])?
                            .to_string_compact()
                            .into_bytes(),
                    ),
                    Op::Get => {
                        let mut image = Vec::new();
                        write_container(&d.encoded[i], &mut image).map_err(|e| e.to_string())?;
                        ("GET", tensor_path, "", Vec::new(), image)
                    }
                    Op::Put => (
                        "PUT",
                        tensor_path,
                        "application/json",
                        values_body(&d.payloads[i]),
                        Value::object([
                            ("name", Value::Str(tensor_name(i))),
                            ("kind", Value::Str("tensor".into())),
                            ("elements", Value::Num(d.encoded[i].elements as f64)),
                            ("scale", Value::Num(f64::from(d.codes[i].scale))),
                            ("nibbles", Value::Num(d.encoded[i].stream.len() as f64)),
                        ])
                        .to_string_compact()
                        .into_bytes(),
                    ),
                };
                requests.push(Request {
                    method,
                    path,
                    content_type,
                    body,
                });
                canonical.push(response);
            }
        }
        Ok(Self {
            workload: Workload::CodecMix,
            rate: CODEC_RPS,
            requests,
            canonical,
            data: Data::Codec(d),
        })
    }

    /// A Poisson schedule of this traffic's mix.
    fn schedule(&self, seed: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
        match &self.data {
            Data::Infer(_) => {
                let tenants = Zipf::new(TENANTS, TENANT_SKEW).expect("valid tenant Zipf");
                schedule::poisson(seed, rate, seconds, |rng: &mut Rng| {
                    let spec = rng.gen_below(INFER_BODIES as u64) as u32;
                    (spec, tenants.sample_index(rng) as u32)
                })
            }
            Data::Codec(_) => {
                let payloads = Zipf::new(PAYLOADS, PAYLOAD_SKEW).expect("valid payload Zipf");
                schedule::poisson(seed, rate, seconds, |rng: &mut Rng| {
                    let u = rng.gen_f64();
                    let mut acc = 0.0;
                    let op = MIX
                        .iter()
                        .position(|(_, share)| {
                            acc += share;
                            u < acc
                        })
                        .unwrap_or(MIX.len() - 1);
                    ((op * PAYLOADS + payloads.sample_index(rng)) as u32, 0)
                })
            }
        }
    }

    /// The semantic oracle for a 200 body that differs from the canonical
    /// bytes.
    fn verify(&self, spec: u32, body: &[u8]) -> Result<(), String> {
        match &self.data {
            Data::Infer(d) => {
                let v = parse_body(body)?;
                let got = num_array(&v, "outputs")?;
                let want = &d.outputs[spec as usize];
                if got.len() != want.len() {
                    return Err(format!("{} outputs, expected {}", got.len(), want.len()));
                }
                let scale = want
                    .iter()
                    .fold(0.0f64, |m, x| m.max(x.abs()))
                    .max(f64::MIN_POSITIVE);
                let worst = got
                    .iter()
                    .zip(want)
                    .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
                if worst > INFER_TOLERANCE * scale {
                    return Err(format!("outputs off by {:.3e} relative", worst / scale));
                }
                if num(&v, "argmax")? as usize != d.argmax[spec as usize]
                    || argmax(&got) != d.argmax[spec as usize]
                {
                    return Err("argmax differs".into());
                }
                Ok(())
            }
            Data::Codec(d) => {
                let (op, i) = codec_spec(spec);
                let n = d.payloads[i].len();
                match op {
                    Op::Encode => {
                        let v = parse_body(body)?;
                        let hex = v
                            .get("stream_hex")
                            .and_then(Value::as_str)
                            .ok_or("no stream_hex")?;
                        let stream = api::stream_from_hex(hex)?;
                        if decode_stream(&stream).map_err(|e| e.to_string())? != d.decoded[i] {
                            return Err("encoded stream decodes to other codes".into());
                        }
                        expect_elements(&v, n)
                    }
                    Op::Decode => {
                        let codes = num_array(&parse_body(body)?, "codes")?;
                        if !codes
                            .iter()
                            .map(|&c| c as u8)
                            .eq(d.decoded[i].iter().copied())
                            || codes.len() != n
                        {
                            return Err("decoded codes differ".into());
                        }
                        Ok(())
                    }
                    Op::Analyze => {
                        if parse_body(body)? != parse_body(&self.canonical[spec as usize])? {
                            return Err("analysis differs from the local analyze_response".into());
                        }
                        Ok(())
                    }
                    Op::Get => {
                        let t = read_container(body).map_err(|e| e.to_string())?;
                        if t.elements != n {
                            return Err(format!(
                                "stored tensor holds {} values, expected {n}",
                                t.elements
                            ));
                        }
                        Ok(())
                    }
                    Op::Put => expect_elements(&parse_body(body)?, n),
                }
            }
        }
    }

    /// The body served for each spec: the canonical one if any request
    /// got it, else the first verified odd body.
    fn served<'a>(
        &'a self,
        phases: &[&'a PhaseResult],
        odd_ok: &[Vec<bool>],
    ) -> Vec<Option<&'a [u8]>> {
        let mut out: Vec<Option<&[u8]>> = vec![None; self.canonical.len()];
        for (p, ok) in phases.iter().zip(odd_ok) {
            for s in &p.samples {
                let slot = &mut out[s.spec as usize];
                match s.outcome {
                    Outcome::Canonical => *slot = Some(&self.canonical[s.spec as usize]),
                    Outcome::Odd(i) if ok[i] && slot.is_none() => *slot = Some(&p.odd[i].1),
                    _ => {}
                }
            }
        }
        out
    }

    /// SQNR of the served outputs against unquantized references, and the
    /// encoded bits per value behind them. For `infer` the SQNR is the mean
    /// over inputs of each answer's SQNR: pooled, the rare activation
    /// outliers' large logits would dominate and the metric would swing
    /// with the seed. For `codec_mix` it is pooled over the payloads.
    fn precision(&self, served: &[Option<&[u8]>]) -> Result<(f64, f64), String> {
        let (mut reference, mut test) = (Vec::new(), Vec::new());
        match &self.data {
            Data::Infer(d) => {
                let mut per_input = Vec::new();
                for (spec, body) in served.iter().enumerate() {
                    let Some(body) = body else { continue };
                    let got: Vec<f32> = num_array(&parse_body(body)?, "outputs")?
                        .iter()
                        .map(|&v| v as f32)
                        .collect();
                    per_input.push(sqnr_db(&d.dense_outputs[spec], &got)?);
                }
                if per_input.is_empty() {
                    return Err("no infer response was served".into());
                }
                Ok((
                    per_input.iter().sum::<f64>() / per_input.len() as f64,
                    d.bits_per_value,
                ))
            }
            Data::Codec(d) => {
                let (mut nibbles, mut elements) = (0.0, 0.0);
                for (spec, body) in served.iter().enumerate() {
                    let Some(body) = body else { continue };
                    let (op, i) = codec_spec(spec as u32);
                    match op {
                        Op::Decode => {
                            let codes: Vec<u8> = num_array(&parse_body(body)?, "codes")?
                                .iter()
                                .map(|&c| c as u8)
                                .collect();
                            let n = codes.len();
                            let values = d.codes[i]
                                .dequantize_codes(&codes, &[n])
                                .map_err(|e| e.to_string())?;
                            reference.extend_from_slice(&d.payloads[i]);
                            test.extend_from_slice(values.as_slice());
                        }
                        Op::Encode => {
                            let v = parse_body(body)?;
                            nibbles += num(&v, "nibbles")?;
                            elements += num(&v, "elements")?;
                        }
                        _ => {}
                    }
                }
                if elements == 0.0 {
                    return Err("no encode response was served".into());
                }
                Ok((sqnr_db(&reference, &test)?, 4.0 * nibbles / elements))
            }
        }
    }
}

fn expect_elements(v: &Value, n: usize) -> Result<(), String> {
    let got = num(v, "elements")?;
    if got != n as f64 {
        return Err(format!("elements {got}, expected {n}"));
    }
    Ok(())
}

/// Verifies each phase's odd bodies, counts every failed request into the
/// report, and returns the per-phase verdicts.
fn check(
    traffic: &Traffic,
    phases: &[(&str, &PhaseResult)],
    report: &mut Report,
) -> Vec<Vec<bool>> {
    let mut verdicts = Vec::new();
    for (name, p) in phases {
        let ok: Vec<bool> = p
            .odd
            .iter()
            .map(|(spec, body)| match traffic.verify(*spec, body) {
                Ok(()) => true,
                Err(e) => {
                    report.problems.push(format!("{name}: spec {spec}: {e}"));
                    false
                }
            })
            .collect();
        let (mut status, mut transport, mut wrong) = (0, 0, 0);
        for s in &p.samples {
            match s.outcome {
                Outcome::Canonical => {}
                Outcome::Odd(i) => wrong += u64::from(!ok[i]),
                Outcome::Status(_) => status += 1,
                Outcome::Transport => transport += 1,
            }
        }
        report.attempted += p.samples.len() as u64;
        report.fail(status, format!("{name}: {status} non-200 responses"));
        report.fail(transport, format!("{name}: {transport} transport failures"));
        report.fail(wrong, format!("{name}: {wrong} wrong response bodies"));
        verdicts.push(ok);
    }
    verdicts
}

fn summary(p: &PhaseResult, f: impl Fn(&client::Sample) -> u64) -> Summary {
    let v: Vec<f64> = p.samples.iter().map(|s| f(s) as f64).collect();
    if v.is_empty() {
        return Summary::of(&[0.0]);
    }
    Summary::of(&v)
}

fn latency_diagnostics(report: &mut Report, phase: &str, p: &PhaseResult) {
    let lat = summary(p, client::Sample::latency_ns);
    let late = summary(p, |s| s.start_ns - s.intended_ns);
    report.diag(format!("{phase}.n"), lat.n as f64, "count");
    report.diag(format!("{phase}.p50_ms"), lat.p50 / 1e6, "ms");
    report.diag(format!("{phase}.p95_ms"), lat.p95 / 1e6, "ms");
    report.diag(format!("{phase}.p99_ms"), lat.p99 / 1e6, "ms");
    report.diag(format!("{phase}.p999_ms"), lat.p999 / 1e6, "ms");
    for (q, b) in ["p50", "p95", "p99", "p999"].iter().zip(lat.beyond) {
        report.diag(format!("{phase}.beyond_{q}"), b as f64, "count");
    }
    report.diag(format!("{phase}.late_us.p50"), late.p50 / 1e3, "us");
    report.diag(format!("{phase}.late_us.p95"), late.p95 / 1e3, "us");
    report.diag(format!("{phase}.achieved_per_s"), ok_rate(p), "1/s");
}

/// Median and 95th-percentile latency (ns) of the phase, each taken per
/// two-second window of intended send time and reported as the lower
/// quartile over the windows. A shared host slows the server for seconds
/// at a time, often for most of a run; the lower quartile follows the
/// windows it disturbed least, while a slower program moves every window.
/// Every window holds hundreds of requests, so each window's p95 has at
/// least ten samples beyond it; a phase too short for that uses all its
/// samples.
fn windowed_latency(p: &PhaseResult) -> (f64, f64) {
    const WINDOW_NS: u64 = 2_000_000_000;
    const MIN_SAMPLES: usize = 200;
    let windows: Vec<Summary> = p
        .samples
        .chunk_by(|a, b| a.intended_ns / WINDOW_NS == b.intended_ns / WINDOW_NS)
        .filter(|w| w.len() >= MIN_SAMPLES)
        .map(|w| Summary::of(&w.iter().map(|s| s.latency_ns() as f64).collect::<Vec<_>>()))
        .collect();
    if windows.is_empty() {
        let all = summary(p, client::Sample::latency_ns);
        return (all.p50, all.p95);
    }
    let lower_quartile =
        |f: fn(&Summary) -> f64| stats::quartiles(&windows.iter().map(f).collect::<Vec<_>>()).0;
    (lower_quartile(|w| w.p50), lower_quartile(|w| w.p95))
}

fn answered(s: &client::Sample) -> bool {
    !matches!(s.outcome, Outcome::Status(_) | Outcome::Transport)
}

/// Requests answered 200 per second of phase wall time.
fn ok_rate(p: &PhaseResult) -> f64 {
    p.samples.iter().filter(|s| answered(s)).count() as f64 / (p.elapsed_ns as f64 / 1e9)
}

/// Runs one serving workload and returns its report.
///
/// # Errors
///
/// Set-up failures: the server binary missing or not starting, the store
/// not accepting the initial tensors, local model construction.
pub fn run(workload: Workload, s: &Settings) -> Result<Report, String> {
    let traffic = match workload {
        Workload::Infer => Traffic::infer(s.seed)?,
        Workload::CodecMix => Traffic::codec_mix(s.seed)?,
        Workload::Ffn => unreachable!("ffn is not a serving workload"),
    };
    let bin = s.spark_bin()?;
    let store_dir = s.work_dir.join(format!("store-{}", std::process::id()));
    let result = drive(&traffic, s, &bin, &store_dir);
    std::fs::remove_dir_all(&store_dir).ok();
    result
}

fn drive(traffic: &Traffic, s: &Settings, bin: &Path, store_dir: &Path) -> Result<Report, String> {
    let run_origin = Instant::now();
    let mut report = Report::new(traffic.workload, s.traced);
    let args: Vec<String> = match traffic.workload {
        Workload::CodecMix => {
            std::fs::remove_dir_all(store_dir).ok();
            seed_store(traffic, bin, store_dir)?;
            vec!["--store".into(), store_dir.display().to_string()]
        }
        _ => Vec::new(),
    };
    let mut ready = Vec::with_capacity(SPAWNS);
    let mut server = None;
    for _ in 0..SPAWNS {
        if let Some(prev) = server.take() {
            ServeProc::stop(prev)?;
        }
        let (proc_, secs) = ServeProc::start(bin, &args)?;
        ready.push(secs);
        server = Some(proc_);
    }
    let server = server.expect("at least one spawn");

    let secs = s.seconds;
    let phase = |arrivals: &[Arrival], traced: bool, req_base: u64| {
        client::run(&Phase {
            addr: server.addr,
            requests: &traffic.requests,
            tenants: traffic.workload == Workload::Infer,
            canonical: &traffic.canonical,
            arrivals,
            threads: s.threads,
            traced,
            req_base,
        })
    };
    let warm = traffic.schedule(derive(s.seed, 10), traffic.rate, 0.1 * secs);
    let nominal_secs = if s.traced { 0.3 * secs } else { 0.9 * secs };
    let schedule = traffic.schedule(derive(s.seed, 11), traffic.rate, nominal_secs);

    let warm_r = phase(&warm, false, 0);
    let cpu0 = server.cpu_s()?;
    let nominal_r = phase(&schedule, false, 0);
    let nominal_cpu_s = server.cpu_s()? - cpu0;
    let mut phases: Vec<(&str, PhaseResult)> = vec![("warm", warm_r), ("nominal", nominal_r)];
    let mut snapshots = None;
    if s.traced {
        let before = server.metrics()?;
        let traced_r = phase(&schedule, true, 1 << 32);
        snapshots = Some((before, server.metrics()?));
        phases.push(("traced", traced_r));
    }
    let rss = server.peak_rss_mib()?;
    server.stop()?;

    let refs: Vec<(&str, &PhaseResult)> = phases.iter().map(|(n, p)| (*n, p)).collect();
    let verdicts = check(traffic, &refs, &mut report);
    for (name, p) in &refs {
        latency_diagnostics(&mut report, name, p);
    }
    let nominal = &phases[1].1;
    let lat = summary(nominal, client::Sample::latency_ns);
    if s.traced {
        let traced = &phases[2].1;
        let mut spans = traced.spans.clone();
        shift(&mut spans, traced.started - run_origin);
        report.spans = spans;
        per_layer_http(&mut report, traced, lat.p50);
        let (before, after) = snapshots.expect("traced runs snapshot /metrics");
        per_layer_server(&mut report, &before, &after)?;
        let replay_origin = Instant::now();
        let mut spans = replay(traffic, &schedule, 0.3 * secs, s, replay_origin)?;
        shift(&mut spans, replay_origin - run_origin);
        per_layer_replay(&mut report, &spans);
        trace::append(&mut report.spans, spans);
    } else {
        let phase_refs: Vec<&PhaseResult> = refs.iter().map(|(_, p)| *p).collect();
        let served = traffic.served(&phase_refs, &verdicts);
        let (sqnr, bits) = traffic.precision(&served)?;
        report.set("setup_s", stats::median(&ready));
        let (p50, p95) = windowed_latency(nominal);
        report.set("p50_ms", p50 / 1e6);
        report.set("p95_ms", p95 / 1e6);
        // Requests answered per second of server CPU time: the server's
        // cost per request, which the host's wake-up delays do not inflate
        // the way they inflate any wall-clock rate over two connections.
        if nominal_cpu_s <= 0.0 {
            return Err("the server used no measurable CPU time; run longer".into());
        }
        let answered_n = nominal.samples.iter().filter(|s| answered(s)).count();
        report.diag("nominal.server_cpu_s", nominal_cpu_s, "s");
        report.set("per_cpu_s", answered_n as f64 / nominal_cpu_s);
        report.set("rss_mb", rss);
        report.set("sqnr_db", sqnr);
        report.set("bits_per_value", bits);
    }
    Ok(report)
}

fn shift(spans: &mut [Span], by: Duration) {
    let by = by.as_nanos() as u64;
    for sp in spans {
        sp.start_ns += by;
        sp.end_ns += by;
    }
}

/// Stores every payload under its name through a throwaway server, so the
/// timed spawns recover a populated store.
fn seed_store(traffic: &Traffic, bin: &Path, dir: &Path) -> Result<(), String> {
    let args = vec!["--store".to_string(), dir.display().to_string()];
    let (server, _) = ServeProc::start(bin, &args)?;
    for req in traffic.requests.iter().filter(|r| r.method == "PUT") {
        let (status, _) = server.request(req.method, &req.path, req.content_type, &req.body)?;
        if status != 200 {
            return Err(format!(
                "seeding the store: PUT {} answered {status}",
                req.path
            ));
        }
    }
    server.stop()
}

/// The server's own counters over the interval between two `/metrics`
/// snapshots: batches and mean batch size, mean latency, 503s. The queue
/// peak is the server's high-water mark since it started.
fn per_layer_server(report: &mut Report, a: &Value, b: &Value) -> Result<(), String> {
    let path = |v: &Value, keys: &[&str]| -> Result<f64, String> {
        keys.iter()
            .try_fold(v, |v, k| v.get(k))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("/metrics has no {}", keys.join(".")))
    };
    let hist_delta = |keys: &[&str]| -> Result<(f64, f64), String> {
        let count = |v: &Value| path(v, &[keys, &["count"]].concat());
        let sum = |v: &Value| Ok::<f64, String>(count(v)? * path(v, &[keys, &["mean"]].concat())?);
        Ok((count(b)? - count(a)?, sum(b)? - sum(a)?))
    };
    let mean = |(n, sum): (f64, f64)| if n > 0.0 { sum / n } else { 0.0 };
    let batches = path(b, &["batching", "batches"])? - path(a, &["batching", "batches"])?;
    let size_mean = mean(hist_delta(&["batching", "batch_size"])?);
    let lat_mean = mean(hist_delta(&["latency_us"])?);
    let shard_peak = b.get("shards").and_then(Value::as_array).map_or(0.0, |s| {
        s.iter()
            .filter_map(|x| x.get("queue_peak").and_then(Value::as_f64))
            .fold(0.0, f64::max)
    });
    let queue_peak = path(b, &["queue", "peak_depth"])?.max(shard_peak);
    let rejected = path(b, &["queue", "rejected_503"])? - path(a, &["queue", "rejected_503"])?;
    if report.workload == Workload::CodecMix {
        report.set("batch.batches", batches);
        report.set("batch.size_mean", size_mean);
    }
    report.set("server.latency_us.mean", lat_mean);
    report.set("server.queue_peak", queue_peak);
    report.set("server.rejected_503", rejected);
    Ok(())
}

fn per_layer_http(report: &mut Report, traced: &PhaseResult, untraced_p50_ns: f64) {
    let us = |f: &dyn Fn(&client::Sample) -> u64| {
        let s = summary(traced, f);
        (s.p50 / 1e3, s.p95 / 1e3)
    };
    let connect = us(&|s| s.connected_ns - s.start_ns);
    let wait = us(&|s| s.first_byte_ns - s.connected_ns);
    let recv = us(&|s| s.end_ns - s.first_byte_ns);
    let late = us(&|s| s.start_ns - s.intended_ns);
    let traced_p50_ns = summary(traced, client::Sample::latency_ns).p50;
    // The four stages tile each request from its intended send time.
    let tiled = summary(traced, |s| s.end_ns - s.intended_ns);
    report.set("http.connect_us.p50", connect.0);
    report.set("http.wait_us.p50", wait.0);
    report.set("http.wait_us.p95", wait.1);
    report.set("http.recv_us.p50", recv.0);
    report.set("gen.late_us.p95", late.1);
    report.set("trace.overhead_ms", (traced_p50_ns - untraced_p50_ns) / 1e6);
    let stages_us = connect.0 + wait.0 + recv.0 + late.0;
    report.set(
        "trace.explained_share",
        stages_us * 1e3 / tiled.p50.max(1.0),
    );
}

fn per_layer_replay(report: &mut Report, spans: &[Span]) {
    let layers = trace::layers(spans);
    let get = |name: &str| layers.get(name).cloned().unwrap_or_default();
    report.set("json.parse_us", get("json.parse").median_us());
    report.set("json.serialize_us", get("json.serialize").median_us());
    match report.workload {
        Workload::Infer => report.set("nn.infer_us", get("nn.infer").median_us()),
        _ => {
            report.set(
                "quant.quantize_ns_val",
                get("quant.quantize").ns_per_value(),
            );
            report.set("codec.encode_ns_val", get("codec.encode").ns_per_value());
            report.set("codec.hex_us", get("codec.hex").median_us());
            report.set("codec.decode_ns_val", get("codec.decode").ns_per_value());
            report.set("api.analyze_us", get("api.analyze").median_us());
            report.set("store.put_us", get("store.put").median_us());
            report.set("store.get_us", get("store.get").median_us());
        }
    }
    for (name, l) in &layers {
        report.diag(
            format!("replay.{name}.calls"),
            l.self_ns.len() as f64,
            "count",
        );
    }
}

/// Replays the nominal schedule's requests in process, in order, through
/// the same library calls the server makes for each, for `seconds` (at
/// least one pass over every distinct request kind it meets).
fn replay(
    traffic: &Traffic,
    arrivals: &[Arrival],
    seconds: f64,
    s: &Settings,
    origin: Instant,
) -> Result<Vec<Span>, String> {
    let mut rec = Recorder::new(origin);
    let budget = Duration::from_secs_f64(seconds);
    match &traffic.data {
        Data::Infer(_) => {
            let mut model = InferModel::new()?;
            for (n, a) in arrivals.iter().cycle().enumerate() {
                if origin.elapsed() > budget && n >= arrivals.len().min(64) {
                    break;
                }
                let root = rec.open("replay.infer", n as u64);
                let body = &traffic.requests[a.spec as usize].body;
                let values = rec.time("json.parse", root, 1, || {
                    parse_body(body).and_then(|v| api::values_from_json(&v))
                })?;
                let out = rec.time("nn.infer", root, 1, || model.infer(&values))?;
                rec.time("json.serialize", root, 1, || out.to_string_compact());
                rec.close(root);
            }
        }
        Data::Codec(d) => {
            let dir: PathBuf = s
                .work_dir
                .join(format!("replay-store-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let result = replay_codec(traffic, d, arrivals, budget, &mut rec, &dir);
            std::fs::remove_dir_all(&dir).ok();
            result?;
        }
    }
    Ok(rec.spans)
}

fn replay_codec(
    traffic: &Traffic,
    d: &CodecData,
    arrivals: &[Arrival],
    budget: Duration,
    rec: &mut Recorder,
    dir: &Path,
) -> Result<(), String> {
    let store = BlockStore::open(dir).map_err(|e| e.to_string())?;
    for (i, e) in d.encoded.iter().enumerate() {
        store
            .put_tensor(&tensor_name(i), e)
            .map_err(|e| e.to_string())?;
    }
    let err = |e: &dyn std::fmt::Display| e.to_string();
    for (n, a) in arrivals.iter().cycle().enumerate() {
        if rec.origin.elapsed() > budget && n >= arrivals.len().min(64) {
            break;
        }
        let (op, i) = codec_spec(a.spec);
        let values = &d.payloads[i];
        let len = values.len();
        let body = &traffic.requests[a.spec as usize].body;
        let root = rec.open("replay.codec", n as u64);
        match op {
            Op::Encode => {
                let q = rec.time("quant.quantize", root, len, || api::quantize_codes(values))?;
                let e = rec.time("codec.encode", root, len, || encode_tensor(&q.codes));
                let body = rec.time("codec.hex", root, 1, || api::encode_response(&e, q.scale));
                rec.time("json.serialize", root, 1, || body.to_string_compact());
            }
            Op::Decode => {
                let v = rec.time("json.parse", root, 1, || parse_body(body))?;
                let hex = v
                    .get("stream_hex")
                    .and_then(Value::as_str)
                    .ok_or("no stream_hex")?;
                let stream = rec.time("codec.hex", root, 1, || api::stream_from_hex(hex))?;
                let codes = rec
                    .time("codec.decode", root, len, || decode_stream(&stream))
                    .map_err(|e| err(&e))?;
                rec.time("json.serialize", root, 1, || {
                    api::decode_codes_response(&codes).to_string_compact()
                });
            }
            Op::Analyze => {
                let body = rec.time("api.analyze", root, 1, || api::analyze_response(values))?;
                rec.time("json.serialize", root, 1, || body.to_string_compact());
            }
            Op::Get => {
                rec.time("store.get", root, 1, || store.get_raw(&tensor_name(i)))
                    .map_err(|e| err(&e))?;
            }
            Op::Put => {
                let v = rec.time("json.parse", root, 1, || {
                    parse_body(body).and_then(|v| api::values_from_json(&v))
                })?;
                let q = rec.time("quant.quantize", root, len, || api::quantize_codes(&v))?;
                let e = rec.time("codec.encode", root, len, || encode_tensor(&q.codes));
                rec.time("store.put", root, 1, || {
                    store.put_tensor(&tensor_name(i), &e)
                })
                .map_err(|e| err(&e))?;
            }
        }
        rec.close(root);
    }
    Ok(())
}
