//! The metric registry and one run's report.
//!
//! Every metric the benchmark can emit is declared here, with its unit and
//! the workloads whose traffic exercises it. `BENCHMARK.json` lists the
//! same names; a unit test keeps the two in step. A per-layer metric a
//! workload never exercises (HTTP spans on the in-process `ffn`, say) is
//! reported as 0: no work reached that layer.

use std::collections::BTreeMap;

use spark_util::json::Value;

use crate::trace::Span;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Open-loop `POST /v1/infer` against `spark serve`.
    Infer,
    /// Open-loop encode/decode/analyze/tensor-store mix against `spark
    /// serve --store`.
    CodecMix,
    /// In-process BERT-base FFN block over SPARK-encoded weights.
    Ffn,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 3] = [Workload::Infer, Workload::CodecMix, Workload::Ffn];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Infer => "infer",
            Workload::CodecMix => "codec_mix",
            Workload::Ffn => "ffn",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

const SERVING: &[Workload] = &[Workload::Infer, Workload::CodecMix];
const CODEC: &[Workload] = &[Workload::CodecMix];
const FFN: &[Workload] = &[Workload::Ffn];
const ALL: &[Workload] = &Workload::ALL;

/// One declared metric.
#[derive(Debug)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Workloads whose runs measure it.
    pub applies: &'static [Workload],
}

const fn m(name: &'static str, unit: &'static str, applies: &'static [Workload]) -> MetricDef {
    MetricDef {
        name,
        unit,
        applies,
    }
}

/// End-to-end metrics, reported by untraced runs of every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", ALL),
    m("p50_ms", "ms", ALL),
    m("p95_ms", "ms", ALL),
    m("per_cpu_s", "1/s", ALL),
    m("rss_mb", "MiB", ALL),
    m("sqnr_db", "dB", ALL),
    m("bits_per_value", "bit", ALL),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    m("http.connect_us.p50", "us", SERVING),
    m("http.wait_us.p50", "us", SERVING),
    m("http.wait_us.p95", "us", SERVING),
    m("http.recv_us.p50", "us", SERVING),
    m("gen.late_us.p95", "us", SERVING),
    m("server.latency_us.mean", "us", SERVING),
    m("server.queue_peak", "count", SERVING),
    m("server.rejected_503", "count", SERVING),
    m("batch.size_mean", "count", CODEC),
    m("batch.batches", "count", CODEC),
    m("json.parse_us", "us", SERVING),
    m("json.serialize_us", "us", SERVING),
    m("nn.infer_us", "us", &[Workload::Infer]),
    m("quant.quantize_ns_val", "ns", CODEC),
    m("codec.encode_ns_val", "ns", CODEC),
    m("codec.hex_us", "us", CODEC),
    m(
        "codec.decode_ns_val",
        "ns",
        &[Workload::CodecMix, Workload::Ffn],
    ),
    m("api.analyze_us", "us", CODEC),
    m("store.put_us", "us", CODEC),
    m("store.get_us", "us", CODEC),
    m("tensor.fused_ms.b1.up", "ms", FFN),
    m("tensor.fused_ms.b1.down", "ms", FFN),
    m("tensor.fused_ms.b64.up", "ms", FFN),
    m("tensor.fused_ms.b64.down", "ms", FFN),
    m("tensor.dense_ms.b1.up", "ms", FFN),
    m("tensor.dense_ms.b1.down", "ms", FFN),
    m("tensor.dense_ms.b64.up", "ms", FFN),
    m("tensor.dense_ms.b64.down", "ms", FFN),
    m("tensor.decode_overhead.b64", "ratio", FFN),
    m("codec.checksum_ns_val", "ns", FFN),
    m("codec.read_container_ns_val", "ns", FFN),
    m("tensor.decode_ns_val", "ns", FFN),
    m("tensor.dequant_ns_val", "ns", FFN),
    m("tensor.encode_ns_val", "ns", FFN),
    m("tensor.flops", "count", FFN),
    m("tensor.weight_bytes", "bytes", FFN),
    m("trace.overhead_ms", "ms", ALL),
    m("trace.explained_share", "ratio", ALL),
];

/// The registry a run reports against.
pub fn registry(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One workload run's outcome.
#[derive(Debug)]
pub struct Report {
    /// Which workload ran.
    pub workload: Workload,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Requests or passes attempted.
    pub attempted: u64,
    /// Of those, failed or answered wrongly.
    pub failed: u64,
    /// One line per failed oracle check or failure class.
    pub problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Supporting numbers (sample counts, tails, per-phase lateness) that
    /// are printed and written out but carry no bound.
    pub diagnostics: Vec<(String, f64, &'static str)>,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: Workload, traced: bool) -> Self {
        Self {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
            diagnostics: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Records a registry metric.
    ///
    /// # Panics
    ///
    /// When `name` is not in this run's registry or does not apply to the
    /// workload — a bug in the benchmark, not in the measured program.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let def = registry(self.traced)
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric of this run"));
        assert!(
            def.applies.contains(&self.workload),
            "{name} does not apply to {:?}",
            self.workload
        );
        self.metrics.insert(def.name, value);
    }

    /// Records a diagnostic.
    pub fn diag(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.diagnostics.push((name.into(), value, unit));
    }

    /// Records a failure class with its count.
    pub fn fail(&mut self, count: u64, what: String) {
        if count > 0 {
            self.failed += count;
            self.problems.push(what);
        }
    }

    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Every registry metric with its unit: measured ones as recorded,
    /// ones the workload does not exercise as 0.
    ///
    /// # Errors
    ///
    /// When a metric that applies to this workload was never recorded.
    pub fn metrics(&self) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        registry(self.traced)
            .iter()
            .map(|d| match self.metrics.get(d.name) {
                Some(&v) => Ok((d.name, v, d.unit)),
                None if d.applies.contains(&self.workload) => Err(format!(
                    "{} run did not record {}",
                    self.workload.name(),
                    d.name
                )),
                None => Ok((d.name, 0.0, d.unit)),
            })
            .collect()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json<'a>(items: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> Value {
    Value::Object(
        items
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Value::object([
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        spark_util::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_metric_and_workload_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(!d.applies.is_empty(), "{} applies to no workload", d.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn the_registry_matches_benchmark_json() {
        let doc = benchmark_json();
        let declared = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), declared(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), declared(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn a_report_emits_every_listed_metric_or_names_the_missing_one() {
        for traced in [false, true] {
            for w in Workload::ALL {
                let mut r = Report::new(w, traced);
                let applicable: Vec<&MetricDef> = registry(traced)
                    .iter()
                    .filter(|d| d.applies.contains(&w))
                    .collect();
                for d in &applicable[1..] {
                    r.set(d.name, 1.0);
                }
                let err = r.metrics().unwrap_err();
                assert!(err.contains(applicable[0].name), "{err}");
                r.set(applicable[0].name, 2.0);
                let all = r.metrics().unwrap();
                assert_eq!(all.len(), registry(traced).len());
                let names: Vec<&str> = all.iter().map(|m| m.0).collect();
                let listed: Vec<&str> = registry(traced).iter().map(|d| d.name).collect();
                assert_eq!(names, listed);
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not apply")]
    fn recording_a_metric_on_the_wrong_workload_is_a_bug() {
        Report::new(Workload::Ffn, true).set("http.wait_us.p50", 1.0);
    }
}
