//! Request/response schemas over the codec, quantizer, and simulator.
//!
//! Everything JSON-shaped that the server emits lives here so the CLI's
//! `--json` mode can reuse the exact same serializers — `spark analyze
//! --json foo.f32` and `POST /v1/analyze` produce byte-identical bodies
//! for the same input, which is what makes the loopback bit-identity
//! tests meaningful.
//!
//! The encode and decode pipelines are split at the codec call:
//! quantization and hex parsing come first, the serializers
//! ([`encode_response`], [`decode_codes_response`]) come after it, so the
//! server answers a bad input before the codec runs and the CLI, the
//! server and the benchmark build their bodies from one serializer.

use spark_codec::{analysis, decode_stream, EncodedTensor, NibbleStream};
use spark_data::ModelProfile;
use spark_nn::layers::Dense;
use spark_nn::ModelWorkload;
use spark_quant::{MagnitudeCodes, MagnitudeQuantizer, SparkCodec};
use spark_sim::{AcceleratorKind, PrecisionProfile, SimConfig, WorkloadReport};
use spark_tensor::{ops, EncodedMatrix, Tensor};
use spark_util::json::{ToJson, Value};

/// Bit-width every serving-path quantization uses (the paper's INT8
/// baseline that SPARK encodes).
pub const SERVE_BITS: u8 = 8;

/// Wraps a 1-D tensor around raw values.
fn tensor_of(values: &[f32]) -> Result<Tensor, String> {
    Tensor::from_vec(values.to_vec(), &[values.len()]).map_err(|e| e.to_string())
}

/// Quantizes raw f32 values to INT8 magnitude codes — the first half of
/// the encode pipeline, before [`spark_codec::encode_tensor`].
///
/// # Errors
///
/// Non-finite inputs and empty tensors are rejected with a message.
pub fn quantize_codes(values: &[f32]) -> Result<MagnitudeCodes, String> {
    if values.is_empty() {
        return Err("empty input: no values to encode".into());
    }
    let tensor = tensor_of(values)?;
    let quantizer = MagnitudeQuantizer::new(SERVE_BITS).map_err(|e| e.to_string())?;
    quantizer.quantize(&tensor).map_err(|e| e.to_string())
}

/// Lower-hex dump of a nibble stream, one character per nibble.
pub fn stream_to_hex(stream: &NibbleStream) -> String {
    // NibbleStream::iter yields values < 16 by construction, so every
    // nibble indexes the hex alphabet; no fallible conversion needed.
    const HEX: [u8; 16] = *b"0123456789abcdef";
    stream.iter().map(|n| char::from(HEX[usize::from(n) & 0xF])).collect()
}

/// Rebuilds a nibble stream from its hex dump.
///
/// # Errors
///
/// Rejects empty input and non-hex characters.
pub fn stream_from_hex(hex: &str) -> Result<NibbleStream, String> {
    if hex.is_empty() {
        return Err("empty stream_hex".into());
    }
    let mut stream = NibbleStream::with_capacity(hex.len());
    for (i, c) in hex.chars().enumerate() {
        let nibble = c
            .to_digit(16)
            .ok_or_else(|| format!("stream_hex: invalid hex digit {c:?} at offset {i}"))?;
        stream.push(nibble as u8);
    }
    Ok(stream)
}

/// Serializes one encoded tensor (plus the quantizer scale a client needs
/// to dequantize later) as the `/v1/encode` response body.
pub fn encode_response(encoded: &EncodedTensor, scale: f32) -> Value {
    Value::object([
        ("elements", Value::Num(encoded.elements as f64)),
        ("scale", Value::Num(f64::from(scale))),
        ("nibbles", Value::Num(encoded.stream.len() as f64)),
        ("avg_bits", Value::Num(encoded.stats.avg_bits())),
        ("short_fraction", Value::Num(encoded.stats.short_fraction())),
        ("lossless_fraction", Value::Num(encoded.stats.lossless_fraction())),
        ("stream_hex", Value::Str(stream_to_hex(&encoded.stream))),
    ])
}

/// Serializes decoded code words as the `/v1/decode` response body — the
/// post-decode half of the decode pipeline, shared by the server and the
/// direct [`decode_response`].
pub fn decode_codes_response(codes: &[u8]) -> Value {
    Value::object([
        ("elements", Value::Num(codes.len() as f64)),
        ("codes", codes.to_json()),
    ])
}

/// Decodes a hex-dumped stream back to code words — the `/v1/decode`
/// response body. The server runs the same steps with its own metrics
/// around the codec call; this single-call form serves the CLI and
/// produces byte-identical bodies.
///
/// # Errors
///
/// Bad hex and malformed streams (truncated long code) are reported with
/// a message.
pub fn decode_response(stream_hex: &str) -> Result<Value, String> {
    let stream = stream_from_hex(stream_hex)?;
    let codes = decode_stream(&stream).map_err(|e| e.to_string())?;
    Ok(decode_codes_response(&codes))
}

/// Runs the full `spark analyze` pipeline and serializes it — shared by
/// `POST /v1/analyze` and `spark analyze --json`.
///
/// # Errors
///
/// Propagates quantizer/codec failures (empty or non-finite input).
pub fn analyze_response(values: &[f32]) -> Result<Value, String> {
    if values.is_empty() {
        return Err("empty input: no values to analyze".into());
    }
    let tensor = tensor_of(values)?;
    let quantizer = MagnitudeQuantizer::new(SERVE_BITS).map_err(|e| e.to_string())?;
    let codes = quantizer.quantize(&tensor).map_err(|e| e.to_string())?;
    let a = analysis::analyze(&codes.codes);
    let (r, _) = SparkCodec::default()
        .compress_codes(&tensor, &codes)
        .map_err(|e| e.to_string())?;
    let mut members = match a.to_json() {
        Value::Object(members) => members,
        _ => unreachable!("to_json_struct always yields an object"),
    };
    members.push(("alignment_overhead_bits".into(), Value::Num(a.alignment_overhead_bits())));
    members.push(("sqnr_db".into(), Value::Num(r.sqnr_db(&tensor))));
    Ok(Value::Object(members))
}

/// Resolves a model name case-insensitively to its canonical spelling.
///
/// # Errors
///
/// Unknown names get a message listing the lookup command.
pub fn resolve_model(name: &str) -> Result<String, String> {
    ModelProfile::all()
        .into_iter()
        .map(|p| p.name)
        .find(|n| n.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown model {name}; try `spark models`"))
}

/// Resolves an accelerator name case-insensitively.
///
/// # Errors
///
/// Unknown names get a message listing the valid set.
pub fn resolve_accelerator(name: &str) -> Result<AcceleratorKind, String> {
    AcceleratorKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let names: Vec<&str> = AcceleratorKind::ALL.iter().map(|k| k.name()).collect();
            format!("unknown accelerator {name}; expected one of {}", names.join(", "))
        })
}

/// A fully-resolved simulation request, ready to run.
pub struct SimJob {
    /// The workload to simulate.
    pub workload: ModelWorkload,
    /// Accelerator to run it on.
    pub kind: AcceleratorKind,
    /// Calibrated precision mix for the model's distributions.
    pub precision: PrecisionProfile,
}

/// Resolves model + accelerator names into a runnable [`SimJob`], using
/// the same calibrated sampling as `spark simulate`.
///
/// # Errors
///
/// Unknown model or accelerator names.
pub fn resolve_sim_job(model: &str, accelerator: &str) -> Result<SimJob, String> {
    let canonical = resolve_model(model)?;
    let kind = resolve_accelerator(accelerator)?;
    let workload = ModelWorkload::by_name(&canonical)
        .ok_or_else(|| format!("no workload for {canonical}"))?;
    let profile = ModelProfile::all()
        .into_iter()
        .find(|p| p.name == canonical)
        .ok_or_else(|| format!("no calibrated profile for {canonical}"))?;
    let weights = profile.sample_tensor(40_000, 1);
    let acts = profile.sample_activations(40_000, 2);
    let precision =
        PrecisionProfile::from_tensors(&weights, &acts).map_err(|e| e.to_string())?;
    Ok(SimJob { workload, kind, precision })
}

/// Serializes a finished simulation as the `/v1/simulate` response body:
/// the full layer-by-layer report plus the derived latency/efficiency
/// figures the text CLI prints.
pub fn simulate_response(
    report: &WorkloadReport,
    workload: &ModelWorkload,
    config: &SimConfig,
) -> Value {
    let mut members = match report.to_json() {
        Value::Object(members) => members,
        _ => unreachable!("to_json_struct always yields an object"),
    };
    members.push(("frequency_mhz".into(), Value::Num(config.frequency_mhz)));
    members.push(("latency_ms".into(), Value::Num(report.latency_ms(config))));
    members.push(("gmacs_per_joule".into(), Value::Num(report.gmacs_per_joule(workload))));
    Value::Object(members)
}

/// Input width of the serving inference model.
pub const INFER_INPUTS: usize = 64;
/// Hidden width of the serving inference model.
pub const INFER_HIDDEN: usize = 128;
/// Output width (logit count) of the serving inference model.
pub const INFER_OUTPUTS: usize = 10;
/// Seed the serving inference model is built from. Any process building
/// an [`InferModel`] gets bit-identical weights, which is what makes the
/// loopback bit-identity test against `/v1/infer` meaningful.
pub const INFER_SEED: u64 = 0x5134_11CE;
/// Reserved blockstore names the serving model's encoded weight matrices
/// persist under, in layer order. `spark store put --infer-model` writes
/// them; `spark serve --store <dir>` cold-loads from them when all are
/// present.
pub const STORE_MODEL_KEYS: [&str; 2] = ["__model/infer/w0", "__model/infer/w1"];

/// `(k, n)` of each layer's weight matrix, in layer order.
const INFER_LAYERS: [(usize, usize); 2] =
    [(INFER_INPUTS, INFER_HIDDEN), (INFER_HIDDEN, INFER_OUTPUTS)];

/// Resident footprint of the serving model's weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightFootprint {
    /// Bytes of SPARK containers + sign planes resident for the weights.
    pub resident_bytes: usize,
    /// Bytes the same weights would occupy as dense `f32`.
    pub dense_bytes: usize,
}

impl WeightFootprint {
    /// `resident_bytes / dense_bytes`; 0.0 for an empty model.
    pub fn ratio(&self) -> f64 {
        if self.dense_bytes == 0 {
            0.0
        } else {
            self.resident_bytes as f64 / self.dense_bytes as f64
        }
    }
}

/// The `/v1/infer` model: a deterministic seeded two-layer MLP
/// (`dense → relu → dense`, zero biases) whose weights are held only as
/// SPARK nibble streams. Every forward pass runs the decode-fused GEMM
/// directly over the encoded weights, so the dense `f32` matrices are
/// never resident. The model is immutable: one instance serves any
/// number of threads without a lock.
pub struct InferModel {
    weights: [EncodedMatrix; 2],
    biases: [Vec<f32>; 2],
}

impl InferModel {
    /// Builds the serving model by encoding the seeded Glorot weights.
    ///
    /// # Errors
    ///
    /// Propagates encode failures (cannot happen for the seeded Glorot
    /// weights, but the fallible path is kept honest).
    pub fn new() -> Result<Self, String> {
        let seeds = [INFER_SEED, INFER_SEED.wrapping_add(1)];
        let mats = INFER_LAYERS
            .iter()
            .zip(seeds)
            .map(|(&(k, n), seed)| {
                EncodedMatrix::encode(Dense::new(k, n, seed).weight())
                    .map_err(|e| format!("encode: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::from_matrices(mats)
    }

    /// Cold-loads the serving model from stored encoded weight matrices
    /// (layer order), skipping the quantize-and-encode pass. The resulting
    /// model serves `/v1/infer` responses bit-identical to the model the
    /// matrices were exported from — the loopback test in `server.rs`
    /// enforces this.
    ///
    /// # Errors
    ///
    /// Wrong matrix count or mismatched dimensions. Corrupt container
    /// bytes never get this far: [`EncodedMatrix::from_raw_parts`], the
    /// constructor every stored matrix comes through, rejects them.
    pub fn from_matrices(mats: impl IntoIterator<Item = EncodedMatrix>) -> Result<Self, String> {
        let mats: Vec<EncodedMatrix> = mats.into_iter().collect();
        let weights = <[EncodedMatrix; 2]>::try_from(mats)
            .map_err(|m| format!("import: {} stored matrices, the model has 2 layers", m.len()))?;
        for (em, &(k, n)) in weights.iter().zip(&INFER_LAYERS) {
            if (em.k(), em.n()) != (k, n) {
                return Err(format!(
                    "import: stored matrix is {}x{}, layer expects {k}x{n}",
                    em.k(),
                    em.n()
                ));
            }
        }
        let biases = INFER_LAYERS.map(|(_, n)| vec![0.0; n]);
        Ok(Self { weights, biases })
    }

    /// The encoded weight matrices in layer order — what `spark store put
    /// --infer-model` persists and [`InferModel::from_matrices`] reloads.
    pub fn export_matrices(&self) -> Vec<EncodedMatrix> {
        self.weights.to_vec()
    }

    /// Encoded resident bytes / dense `f32` bytes for the weights.
    pub fn report(&self) -> WeightFootprint {
        WeightFootprint {
            resident_bytes: self.weights.iter().map(EncodedMatrix::resident_bytes).sum(),
            dense_bytes: self.weights.iter().map(EncodedMatrix::dense_bytes).sum(),
        }
    }

    /// Runs one forward pass and serializes the `/v1/infer` response body.
    ///
    /// # Errors
    ///
    /// Wrong input width or non-finite values.
    pub fn infer(&self, values: &[f32]) -> Result<Value, String> {
        if values.len() != INFER_INPUTS {
            return Err(format!(
                "infer expects exactly {INFER_INPUTS} values, got {}",
                values.len()
            ));
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err("infer input contains a non-finite value".into());
        }
        let x = Tensor::from_vec(values.to_vec(), &[1, INFER_INPUTS])
            .map_err(|e| e.to_string())?;
        let dense = |x: &Tensor, layer: usize| {
            ops::matmul_bias_encoded(x, &self.weights[layer], &self.biases[layer])
                .map_err(|e| e.to_string())
        };
        let logits = dense(&ops::relu(&dense(&x, 0)?), 1)?;
        let l = logits.as_slice();
        let argmax = l
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(i, _)| i);
        let report = self.report();
        Ok(Value::object([
            ("outputs", Value::Array(l.iter().map(|v| Value::Num(f64::from(*v))).collect())),
            ("argmax", Value::Num(argmax as f64)),
            ("weight_bytes_encoded", Value::Num(report.resident_bytes as f64)),
            ("weight_bytes_f32", Value::Num(report.dense_bytes as f64)),
            ("weight_bytes_ratio", Value::Num(report.ratio())),
        ]))
    }
}

/// Extracts `values` from a JSON request body (`{"values": [..]}`), used
/// when an encode/analyze client prefers JSON over raw octets.
///
/// # Errors
///
/// Missing field, non-array, or non-numeric elements.
pub fn values_from_json(body: &Value) -> Result<Vec<f32>, String> {
    let arr = body
        .get("values")
        .and_then(Value::as_array)
        .ok_or("body must be {\"values\": [numbers...]}")?;
    arr.iter()
        .map(|v| v.as_f64().map(|x| x as f32).ok_or_else(|| "values must be numbers".to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_codec::encode_tensor;

    fn sample_values(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 37) % 100) as f32 / 100.0 - 0.5).collect()
    }

    #[test]
    fn stream_hex_round_trips() {
        let values = sample_values(513);
        let codes = quantize_codes(&values).unwrap();
        let encoded = encode_tensor(&codes.codes);
        let hex = stream_to_hex(&encoded.stream);
        let back = stream_from_hex(&hex).unwrap();
        assert_eq!(back.as_bytes(), encoded.stream.as_bytes());
        assert_eq!(back.len(), encoded.stream.len());
        assert_eq!(decode_stream(&back).unwrap(), decode_stream(&encoded.stream).unwrap());
    }

    #[test]
    fn stream_from_hex_rejects_bad_input() {
        assert!(stream_from_hex("").is_err());
        assert!(stream_from_hex("0g").unwrap_err().contains("offset 1"));
        assert!(stream_from_hex("a b").is_err());
    }

    #[test]
    fn encode_response_has_all_fields_and_parses() {
        let values = sample_values(256);
        let codes = quantize_codes(&values).unwrap();
        let encoded = encode_tensor(&codes.codes);
        let body = encode_response(&encoded, codes.scale).to_string_compact();
        let v = spark_util::json::parse(&body).unwrap();
        assert_eq!(v.get("elements").unwrap().as_f64(), Some(256.0));
        assert!(v.get("scale").unwrap().as_f64().unwrap() > 0.0);
        assert!(v.get("avg_bits").unwrap().as_f64().unwrap() >= 4.0);
        let hex = v.get("stream_hex").unwrap().as_str().unwrap();
        assert_eq!(hex.len(), encoded.stream.len());
    }

    #[test]
    fn decode_response_inverts_encode_response() {
        let values = sample_values(300);
        let codes = quantize_codes(&values).unwrap();
        let encoded = encode_tensor(&codes.codes);
        let hex = stream_to_hex(&encoded.stream);
        let v = decode_response(&hex).unwrap();
        let decoded: Vec<u8> = v
            .get("codes")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap() as u8)
            .collect();
        assert_eq!(decoded, decode_stream(&encoded.stream).unwrap());
    }

    #[test]
    fn analyze_response_matches_direct_pipeline() {
        let values = sample_values(2000);
        let body = analyze_response(&values).unwrap().to_string_compact();
        let v = spark_util::json::parse(&body).unwrap();
        assert_eq!(v.get("count").unwrap().as_f64(), Some(2000.0));
        for field in [
            "spark_bits",
            "source_entropy",
            "reconstructed_entropy",
            "alignment_overhead_bits",
            "mean_error",
            "rms_error",
            "sqnr_db",
        ] {
            assert!(v.get(field).unwrap().as_f64().is_some(), "missing {field}");
        }
    }

    #[test]
    fn empty_and_non_finite_inputs_error() {
        assert!(quantize_codes(&[]).is_err());
        assert!(analyze_response(&[]).is_err());
        assert!(quantize_codes(&[1.0, f32::NAN]).is_err());
        assert!(analyze_response(&[f32::INFINITY]).is_err());
    }

    #[test]
    fn model_and_accelerator_lookup_is_case_insensitive() {
        assert_eq!(resolve_model("resnet18").unwrap(), "ResNet18");
        assert_eq!(resolve_model("BERT").unwrap(), "BERT");
        assert!(resolve_model("nope").is_err());
        assert_eq!(resolve_accelerator("SPARK").unwrap(), AcceleratorKind::Spark);
        assert!(resolve_accelerator("nope").unwrap_err().contains("expected one of"));
    }

    #[test]
    fn simulate_response_extends_the_report() {
        let job = resolve_sim_job("resnet18", "spark").unwrap();
        let config = SimConfig::default();
        let report =
            spark_sim::Accelerator::new(job.kind).run(&job.workload, &job.precision, &config);
        let body = simulate_response(&report, &job.workload, &config).to_string_compact();
        let v = spark_util::json::parse(&body).unwrap();
        assert_eq!(v.get("model").unwrap().as_str(), Some("ResNet18"));
        assert!(v.get("total_cycles").unwrap().as_f64().unwrap() > 0.0);
        assert!(v.get("latency_ms").unwrap().as_f64().unwrap() > 0.0);
        assert!(v.get("gmacs_per_joule").unwrap().as_f64().unwrap() > 0.0);
        assert!(v.get("layers").unwrap().as_array().unwrap().len() > 1);
    }

    #[test]
    fn values_from_json_parses_and_rejects() {
        let ok = spark_util::json::parse("{\"values\": [1.0, -2.5, 3]}").unwrap();
        assert_eq!(values_from_json(&ok).unwrap(), vec![1.0, -2.5, 3.0]);
        let missing = spark_util::json::parse("{\"nope\": 1}").unwrap();
        assert!(values_from_json(&missing).is_err());
        let bad = spark_util::json::parse("{\"values\": [1, \"x\"]}").unwrap();
        assert!(values_from_json(&bad).is_err());
    }

    /// FNV-1a 64 of the compact `/v1/infer` bodies for 256 seeded inputs,
    /// recorded from the earlier `spark_nn::Sequential`-based serving
    /// model. The loopback tests compare the server with a local model
    /// built by the same code, so only a pinned constant catches drift
    /// both sides share.
    const PINNED_INFER_DIGEST: u64 = 0x51d1_9c78_9e5e_b060;

    fn infer_digest(model: &InferModel) -> u64 {
        let mut rng = spark_util::Rng::seed_from_u64(0x1AFE_D161);
        let mut h = spark_util::Fnv1a::new();
        for _ in 0..256 {
            let v: Vec<f32> = (0..INFER_INPUTS).map(|_| rng.gen_f32() * 4.0 - 2.0).collect();
            h.update(model.infer(&v).unwrap().to_string_compact().as_bytes());
        }
        h.finish()
    }

    #[test]
    fn infer_responses_match_the_pinned_digest() {
        let model = InferModel::new().unwrap();
        assert_eq!(infer_digest(&model), PINNED_INFER_DIGEST);
        let cold = InferModel::from_matrices(model.export_matrices()).unwrap();
        assert_eq!(infer_digest(&cold), PINNED_INFER_DIGEST);
    }

    #[test]
    fn from_matrices_rejects_bad_weights_with_typed_errors() {
        let mats = InferModel::new().unwrap().export_matrices();
        // Matrix count.
        assert!(InferModel::from_matrices(mats[..1].to_vec()).is_err());
        let mut three = mats.clone();
        three.push(mats[0].clone());
        assert!(InferModel::from_matrices(three).is_err());
        // Layer dimensions.
        let swapped = vec![mats[1].clone(), mats[0].clone()];
        let err = InferModel::from_matrices(swapped).err().expect("swapped layers must fail");
        assert!(err.contains("layer expects"), "{err}");
        // Corrupt container bytes: one flipped payload byte in panel 0
        // fails the load, as a typed error from the constructor a stored
        // matrix comes through, before the model exists.
        let em = &mats[0];
        let mut panels: Vec<Vec<u8>> =
            (0..em.panels()).map(|p| em.panel_container(p).to_vec()).collect();
        panels[0][spark_codec::HEADER_LEN] ^= 0x5A;
        let signs = (0..em.panels()).map(|p| em.panel_signs(p).to_vec()).collect();
        let corrupt = EncodedMatrix::from_raw_parts(em.k(), em.n(), em.profile(), panels, signs);
        assert!(
            matches!(
                corrupt,
                Err(spark_tensor::EncodedError::Container(
                    spark_codec::ContainerError::ChecksumMismatch { .. }
                ))
            ),
            "{corrupt:?}"
        );
    }
}
