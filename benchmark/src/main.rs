//! `benchmark` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! benchmark [--workload infer|codec_mix|ffn] [--seed N] [--seconds S]
//!           [--trace [0|1]] [--smoke] [--out FILE]
//! benchmark compare <dirA> <dirB>
//! ```
//!
//! Without `--workload` every workload runs in turn. Each metric prints as
//! `workload metric value unit`; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (untraced) or the per-layer metrics (`--trace 1`).
//! `--out` writes the same data plus diagnostics as JSON; traced runs also
//! write their spans to `<target>/benchmark/trace-<workload>.json`. The
//! exit code is non-zero when any request or output check failed.
//!
//! The serving workloads spawn the `spark` binary that sits next to this
//! one (`SPARK_BIN` overrides); `run.sh` builds both.

mod client;
mod compare;
mod ffn;
mod report;
mod schedule;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use spark_util::json::Value;

use report::{metrics_json, Report, Workload};

/// Seconds one untraced run measures unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 36.0;
/// Seconds per workload under `--smoke`.
const SMOKE_SECONDS: f64 = 2.0;

/// Options shared by every workload.
pub struct Settings {
    /// Seed every input and schedule derives from.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Injector threads (= connections in flight): `min(2, nproc)`.
    pub threads: usize,
    /// Where stores and traces go: `<target>/benchmark`.
    pub work_dir: PathBuf,
}

impl Settings {
    /// The `spark` binary the serving workloads spawn.
    ///
    /// # Errors
    ///
    /// When neither `SPARK_BIN` nor a sibling `spark` binary exists.
    pub fn spark_bin(&self) -> Result<PathBuf, String> {
        spark_util::proc::spark_bin().ok_or_else(|| {
            "no spark binary next to the benchmark (build it with `cargo build --release -p spark-cli`, or set SPARK_BIN)"
                .to_string()
        })
    }
}

/// SQNR in dB of `test` against `reference`.
///
/// # Errors
///
/// On empty or mismatched inputs, or an exact match (no noise to measure).
pub fn sqnr_db(reference: &[f32], test: &[f32]) -> Result<f64, String> {
    if reference.is_empty() || reference.len() != test.len() {
        return Err(format!(
            "SQNR over {} vs {} values",
            reference.len(),
            test.len()
        ));
    }
    let (mut signal, mut noise) = (0.0f64, 0.0f64);
    for (r, t) in reference.iter().zip(test) {
        signal += f64::from(*r).powi(2);
        noise += (f64::from(*r) - f64::from(*t)).powi(2);
    }
    if noise == 0.0 {
        return Err("outputs match the unquantized reference exactly".into());
    }
    Ok(10.0 * (signal / noise).log10())
}

struct Args {
    workloads: Vec<Workload>,
    settings: Settings,
    out: Option<PathBuf>,
}

fn parse_args(mut args: Vec<String>) -> Result<Args, String> {
    let mut value = |flag: &str| -> Result<Option<String>, String> {
        let Some(i) = args.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        args.remove(i);
        if i < args.len() && !args[i].starts_with("--") {
            Ok(Some(args.remove(i)))
        } else {
            Ok(Some(String::new()))
        }
    };
    let workload = value("--workload")?;
    let seed = value("--seed")?;
    let seconds = value("--seconds")?;
    let trace = value("--trace")?;
    let smoke = value("--smoke")?.is_some();
    let out = value("--out")?;
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let workloads = match workload.as_deref() {
        None => Workload::ALL.to_vec(),
        Some(name) => {
            vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?]
        }
    };
    let seed = match seed.as_deref() {
        None => 1,
        Some(s) => s.parse().map_err(|_| format!("bad --seed {s:?}"))?,
    };
    let seconds = match (seconds.as_deref(), smoke) {
        (Some(s), _) => s
            .parse::<f64>()
            .ok()
            .filter(|v| *v > 0.0)
            .ok_or(format!("bad --seconds {s:?}"))?,
        (None, true) => SMOKE_SECONDS,
        (None, false) => DEFAULT_SECONDS,
    };
    let traced = match trace.as_deref() {
        None | Some("0") => false,
        Some("" | "1") => true,
        Some(t) => return Err(format!("bad --trace {t:?}")),
    };
    let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark binary: {e}"))?;
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("benchmark binary has no target dir")?;
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    Ok(Args {
        workloads,
        settings: Settings {
            seed,
            seconds,
            traced,
            threads,
            work_dir: target.join("benchmark"),
        },
        out: out.filter(|o| !o.is_empty()).map(PathBuf::from),
    })
}

/// Sets the calling thread's timer slack to 1 ns. Threads spawned later
/// inherit it, so an injector's sleep ends within microseconds of the
/// scheduled send time instead of the default 50 µs late, and generator
/// lateness stops inflating every open-loop latency.
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long by value and
    // touches no memory of ours; on failure the default slack stays.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

fn run_one(w: Workload, s: &Settings) -> Result<Report, String> {
    match w {
        Workload::Infer | Workload::CodecMix => serving::run(w, s),
        Workload::Ffn => ffn::run(s),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the selected workloads; `Ok(false)` when any check failed.
fn run(args: Vec<String>) -> Result<bool, String> {
    let Args {
        workloads,
        settings: s,
        out,
    } = parse_args(args)?;
    tighten_timer_slack();
    std::fs::create_dir_all(&s.work_dir).map_err(|e| format!("{}: {e}", s.work_dir.display()))?;
    let single = workloads.len() == 1;
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut final_metrics = Vec::new();
    let mut docs = Vec::new();
    for w in workloads {
        let report = run_one(w, &s)?;
        let metrics = report.metrics()?;
        let name = w.name();
        for (metric, value, unit) in &metrics {
            println!("{name} {metric} {value} {unit}");
        }
        for (metric, value, unit) in &report.diagnostics {
            println!("{name} diag.{metric} {value} {unit}");
        }
        for p in &report.problems {
            eprintln!("{name}: FAILED {p}");
        }
        if s.traced {
            let path = s.work_dir.join(format!("trace-{name}.json"));
            let doc = trace::to_json(name, &report.spans);
            std::fs::write(&path, doc.to_string_compact() + "\n")
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "{name} wrote {} ({} spans)",
                path.display(),
                report.spans.len()
            );
        }
        attempted += report.attempted;
        failed += report.failed;
        correct &= report.correct();
        docs.push(Value::object([
            ("workload", Value::Str(name.into())),
            ("seed", Value::Num(s.seed as f64)),
            ("seconds", Value::Num(s.seconds)),
            ("trace", Value::Num(f64::from(u8::from(s.traced)))),
            ("correct", Value::Bool(report.correct())),
            ("attempted", Value::Num(report.attempted as f64)),
            ("failed", Value::Num(report.failed as f64)),
            ("metrics", metrics_json(metrics.iter().copied())),
            (
                "diagnostics",
                metrics_json(
                    report
                        .diagnostics
                        .iter()
                        .map(|(n, v, u)| (n.as_str(), *v, *u)),
                ),
            ),
        ]));
        for (metric, value, unit) in metrics {
            let key = if single {
                metric.to_string()
            } else {
                format!("{name}.{metric}")
            };
            final_metrics.push((key, value, unit));
        }
    }
    if let Some(path) = &out {
        let doc = if docs.len() == 1 {
            docs.remove(0)
        } else {
            Value::Array(docs)
        };
        std::fs::write(path, doc.to_string_pretty() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let last = Value::object([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            metrics_json(final_metrics.iter().map(|(n, v, u)| (n.as_str(), *v, *u))),
        ),
    ]);
    println!("{}", last.to_string_compact());
    Ok(correct)
}
