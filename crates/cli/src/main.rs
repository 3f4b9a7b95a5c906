//! `spark` — command-line front end for the SPARK encoding and simulator.
//!
//! ```text
//! spark encode  <input.f32> <output.spark>    quantize + SPARK-encode an f32 LE file
//! spark decode  <input.spark> <output.u8>     decode a container back to code words
//! spark analyze [--json] <input.f32>          code statistics + entropy analysis
//! spark simulate [--json] <model> [accel]     run a workload on the perf model
//! spark profile <model>                       calibrated distribution characterization
//! spark models                                list known model names
//! spark serve [flags]                         sharded HTTP serving front end
//! spark router [flags]                        fault-aware fleet router over N backends
//! spark load  [flags]                         open-loop load harness (JSON report)
//! spark chaos [--seed N] [--streams N]        seeded fault-injection report (JSON)
//! spark store <put|get|ls|compact|verify|snapshot>  persistent encoded-tensor blockstore
//! ```
//!
//! Input `.f32` files are raw little-endian 32-bit floats (e.g. exported
//! with `numpy.ndarray.tofile`). `--json` output is produced by the same
//! serializers the server uses, so `spark analyze --json x.f32` matches
//! `POST /v1/analyze` byte for byte.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::time::Duration;

use spark_codec::{analysis, decode_stream, encode_tensor, read_container, write_container};
use spark_data::ModelProfile;
use spark_nn::ModelWorkload;
use spark_quant::{Codec, MagnitudeQuantizer, SparkCodec};
use spark_serve::load::{build_schedule, run_load, schedule_digest, schedule_dump, LoadConfig};
use spark_serve::{api, ServeConfig, Server};
use spark_sim::{Accelerator, AcceleratorKind, SimConfig};
use spark_tensor::Tensor;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("encode") => cmd_encode(&args[1..]),
        Some("decode") => cmd_decode(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("models") => cmd_models(),
        Some("serve") => cmd_serve(&args[1..]),
        Some("router") => cmd_router(&args[1..]),
        Some("load") => cmd_load(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        _ => {
            eprintln!(
                "usage: spark <encode|decode|analyze|simulate|profile|models|serve|router|load|chaos|store> ..."
            );
            eprintln!("  encode  <input.f32> <output.spark>");
            eprintln!("  decode  <input.spark> <output.u8>");
            eprintln!("  analyze [--json] <input.f32>");
            eprintln!("  simulate [--json] <model> [accelerator]");
            eprintln!("  profile <model>");
            eprintln!("  serve [--addr A] [--workers N] [--shards N] [--shard-workers N] [--quota UNITS_PER_S] [--queue N] [--store DIR] [--smoke]");
            eprintln!("  load  [--smoke] [--schedule-only] [--addr A] [--seed N] [--rps R] [--flood-rps R] [--duration-ms N] [--tenants N] [--skew S] [--injectors N] [--shards N] [--quota U] [--tensor-mix F] [--store DIR] [--out FILE]");
            eprintln!("  router --backends A,B,... [--addr A] [--workers N] [--probe-ms N] [--retries N] [--retry-budget RPS] [--seed N]");
            eprintln!("  router --bench-kill [--seed N] [--out FILE]");
            eprintln!("  chaos [--seed N] [--streams N]");
            eprintln!("  store put <dir> --infer-model | put <dir> <name> <input.f32>");
            eprintln!("        get <dir> <name> <output.spark> | ls <dir> | compact <dir> | verify <dir>");
            eprintln!("        snapshot <src-dir> <dst-dir>");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Removes `--name` from `args`, reporting whether it was present.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    match args.iter().position(|a| a == name) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Removes `--name <value>` from `args`, returning the value.
fn take_option(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{name} requires a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

/// Streams a raw-f32 file into a 1-D tensor; empty and misaligned files
/// are hard errors (see `spark_serve::io`).
fn read_f32_tensor(path: &str) -> Result<Tensor, Box<dyn std::error::Error>> {
    let values = spark_serve::io::read_f32_file(path).map_err(|e| format!("{path}: {e}"))?;
    let n = values.len();
    Ok(Tensor::from_vec(values, &[n])?)
}

fn cmd_encode(args: &[String]) -> CliResult {
    let [input, output] = args else {
        return Err("usage: spark encode <input.f32> <output.spark>".into());
    };
    let tensor = read_f32_tensor(input)?;
    let quantizer = MagnitudeQuantizer::new(8)?;
    let codes = quantizer.quantize(&tensor)?;
    let encoded = encode_tensor(&codes.codes);
    let mut out = BufWriter::new(File::create(output)?);
    let written = write_container(&encoded, &mut out)?;
    out.flush()?;
    println!(
        "{}: {} values -> {} bytes ({:.2} bits/value, {:.1}% short, {:.1}% lossless)",
        output,
        encoded.elements,
        written,
        encoded.stats.avg_bits(),
        encoded.stats.short_fraction() * 100.0,
        encoded.stats.lossless_fraction() * 100.0
    );
    println!("scale: {} (store it to dequantize)", codes.scale);
    Ok(())
}

fn cmd_decode(args: &[String]) -> CliResult {
    let [input, output] = args else {
        return Err("usage: spark decode <input.spark> <output.u8>".into());
    };
    let encoded = read_container(BufReader::new(File::open(input)?))?;
    let decoded = decode_stream(&encoded.stream)?;
    let mut out = BufWriter::new(File::create(output)?);
    out.write_all(&decoded)?;
    out.flush()?;
    println!("{}: {} code words written", output, decoded.len());
    Ok(())
}

fn cmd_analyze(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    let json = take_flag(&mut args, "--json");
    let [input] = &args[..] else {
        return Err("usage: spark analyze [--json] <input.f32>".into());
    };
    let tensor = read_f32_tensor(input)?;
    if json {
        println!("{}", api::analyze_response(tensor.as_slice())?.to_string_pretty());
        return Ok(());
    }
    let quantizer = MagnitudeQuantizer::new(8)?;
    let codes = quantizer.quantize(&tensor)?;
    let a = analysis::analyze(&codes.codes);
    println!("values:            {}", a.count);
    println!("SPARK bits/value:  {:.3}", a.spark_bits);
    println!("source entropy:    {:.3} bits", a.source_entropy);
    println!("recon entropy:     {:.3} bits", a.reconstructed_entropy);
    println!("alignment cost:    {:.3} bits", a.alignment_overhead_bits());
    println!("mean / RMS error:  {:.3} / {:.3} code units", a.mean_error, a.rms_error);
    let r = SparkCodec::default().compress(&tensor)?;
    println!("end-to-end SQNR:   {:.1} dB", r.sqnr_db(&tensor));
    Ok(())
}

fn cmd_simulate(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    let json = take_flag(&mut args, "--json");
    let model = args
        .first()
        .ok_or("usage: spark simulate [--json] <model> [accelerator]")?;
    let accelerator = args.get(1).map(String::as_str).unwrap_or("spark");
    let job = api::resolve_sim_job(model, accelerator)?;
    let config = SimConfig::default();
    let report = Accelerator::new(job.kind).run(&job.workload, &job.precision, &config);
    if json {
        println!("{}", api::simulate_response(&report, &job.workload, &config).to_string_pretty());
        return Ok(());
    }
    println!("{} on {}:", job.workload.name, job.kind.name());
    println!("  cycles:     {:.3e}", report.total_cycles);
    println!("  latency:    {:.3} ms @ {} MHz", report.latency_ms(&config), config.frequency_mhz);
    println!(
        "  energy:     {:.3} mJ (dram {:.1}% / buffer {:.1}% / core {:.1}%)",
        report.energy.total() * 1e-9,
        report.energy.dram_pj / report.energy.total() * 100.0,
        report.energy.buffer_pj / report.energy.total() * 100.0,
        report.energy.core_pj / report.energy.total() * 100.0
    );
    println!("  efficiency: {:.0} GMAC/J", report.gmacs_per_joule(&job.workload));
    Ok(())
}

fn cmd_profile(args: &[String]) -> CliResult {
    let model = args.first().ok_or("usage: spark profile <model>")?;
    let profile = ModelProfile::all()
        .into_iter()
        .find(|p| p.name == *model)
        .ok_or_else(|| format!("unknown model {model}; try `spark models`"))?;
    let weights = profile.sample_tensor(40_000, 1);
    let (result, stats) = SparkCodec::default().compress_with_stats(&weights)?;
    println!("{} (calibrated weight distribution):", profile.name);
    println!("  short codes:  {:.1}%", stats.short_fraction() * 100.0);
    println!("  lossless:     {:.1}%", stats.lossless_fraction() * 100.0);
    println!("  avg bits:     {:.2}", stats.avg_bits());
    println!("  SQNR:         {:.1} dB", result.sqnr_db(&weights));
    Ok(())
}

fn cmd_models() -> CliResult {
    println!("models:");
    for p in ModelProfile::all() {
        let w = ModelWorkload::by_name(&p.name).expect("every profile has a workload");
        println!(
            "  {:<10} {:>8.2} GMACs  {:>7.1}M weights",
            p.name,
            w.total_macs() as f64 / 1e9,
            w.total_weights() as f64 / 1e6
        );
    }
    println!("accelerators:");
    for k in AcceleratorKind::ALL {
        println!("  {}", k.name());
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    let smoke = take_flag(&mut args, "--smoke");
    let mut config = ServeConfig::default();
    if let Some(addr) = take_option(&mut args, "--addr")? {
        config.addr = addr;
    }
    if let Some(workers) = take_option(&mut args, "--workers")? {
        config.workers = workers.parse().map_err(|_| format!("bad --workers {workers:?}"))?;
    }
    if let Some(queue) = take_option(&mut args, "--queue")? {
        config.queue_depth = queue.parse().map_err(|_| format!("bad --queue {queue:?}"))?;
    }
    if let Some(shards) = take_option(&mut args, "--shards")? {
        config.shards = shards.parse().map_err(|_| format!("bad --shards {shards:?}"))?;
    }
    if let Some(w) = take_option(&mut args, "--shard-workers")? {
        config.shard_workers = w.parse().map_err(|_| format!("bad --shard-workers {w:?}"))?;
    }
    if let Some(q) = take_option(&mut args, "--shard-queue")? {
        config.shard_queue = q.parse().map_err(|_| format!("bad --shard-queue {q:?}"))?;
    }
    if let Some(q) = take_option(&mut args, "--quota")? {
        config.quota_rps = q.parse().map_err(|_| format!("bad --quota {q:?}"))?;
    }
    if let Some(b) = take_option(&mut args, "--quota-burst")? {
        config.quota_burst = b.parse().map_err(|_| format!("bad --quota-burst {b:?}"))?;
    }
    if let Some(dir) = take_option(&mut args, "--store")? {
        config.store_dir = Some(dir.into());
    }
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}").into());
    }
    if smoke {
        spark_serve::smoke().map_err(|e| format!("serve smoke failed: {e}"))?;
        println!("serve smoke: all endpoints responded correctly");
        return Ok(());
    }
    let shards = config.shards.max(1);
    let store_attached = config.store_dir.is_some();
    let server = Server::start(config)?;
    println!("spark-serve listening on http://{} ({shards} shard(s))", server.addr());
    println!("endpoints: POST /v1/encode /v1/decode /v1/analyze /v1/simulate");
    println!("           GET /healthz /metrics, POST /shutdown  (X-Spark-Tenant routes)");
    if store_attached {
        println!("           PUT/GET/DELETE /v1/tensors/<name>  (persistent blockstore)");
    }
    server.join();
    println!("shutdown complete");
    Ok(())
}

/// `spark router`: the fault-aware fleet front. In serve mode it fronts
/// a comma-separated backend list with circuit breakers, a global retry
/// budget, and active health probing. `--bench-kill` instead runs the
/// full process-kill drill (3 snapshot-provisioned backends, SIGKILL one
/// under load, require re-admission) and writes the `BENCH_router.json`
/// report CI gates on.
fn cmd_router(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    let bench_kill = take_flag(&mut args, "--bench-kill");
    if bench_kill {
        let seed: u64 = match take_option(&mut args, "--seed")? {
            Some(s) => s.parse().map_err(|_| format!("bad --seed {s:?}"))?,
            None => 7,
        };
        let out = take_option(&mut args, "--out")?;
        if let Some(extra) = args.first() {
            return Err(format!("unexpected argument {extra:?}").into());
        }
        let report = spark_fault::router_kill_bench(seed)?;
        let availability =
            report.get("availability").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let wrong = report.get("wrong_bodies").and_then(|v| v.as_f64()).unwrap_or(-1.0);
        println!(
            "router kill drill: availability {availability:.4}, wrong bodies {wrong:.0}"
        );
        match out.as_deref() {
            Some(path) => {
                std::fs::write(path, report.to_string_pretty() + "\n")?;
                println!("wrote {path}");
            }
            None => println!("{}", report.to_string_pretty()),
        }
        return Ok(());
    }
    let mut config = spark_serve::RouterConfig::default();
    let backends = take_option(&mut args, "--backends")?
        .ok_or("router needs --backends A,B,... (or --bench-kill)")?;
    config.backends = backends
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if let Some(addr) = take_option(&mut args, "--addr")? {
        config.addr = addr;
    }
    if let Some(w) = take_option(&mut args, "--workers")? {
        config.workers = w.parse().map_err(|_| format!("bad --workers {w:?}"))?;
    }
    if let Some(ms) = take_option(&mut args, "--probe-ms")? {
        let ms: u64 = ms.parse().map_err(|_| format!("bad --probe-ms {ms:?}"))?;
        config.probe_interval = Duration::from_millis(ms);
    }
    if let Some(n) = take_option(&mut args, "--retries")? {
        let n: usize = n.parse().map_err(|_| format!("bad --retries {n:?}"))?;
        config.max_attempts = n + 1;
    }
    if let Some(r) = take_option(&mut args, "--retry-budget")? {
        config.retry_budget_rps = r.parse().map_err(|_| format!("bad --retry-budget {r:?}"))?;
    }
    if let Some(s) = take_option(&mut args, "--seed")? {
        config.seed = s.parse().map_err(|_| format!("bad --seed {s:?}"))?;
    }
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}").into());
    }
    let n = config.backends.len();
    let router = spark_serve::Router::start(config)?;
    println!("spark-router listening on http://{} ({n} backend(s))", router.addr());
    println!("forwarding all /v1/* traffic; GET /healthz /metrics, POST /shutdown are local");
    router.join();
    println!("shutdown complete");
    Ok(())
}

/// `spark load`: the deterministic open-loop load harness. By default it
/// boots an ephemeral sharded server on loopback, fires the seeded
/// schedule (blended mix plus a simulate-flooding noisy neighbor), and
/// prints/writes the JSON report CI gates on. `--addr` targets a running
/// server instead; `--schedule-only` emits the schedule dump without
/// firing anything (CI diffs two dumps for byte-identical determinism).
fn cmd_load(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    let smoke = take_flag(&mut args, "--smoke");
    let schedule_only = take_flag(&mut args, "--schedule-only");

    // The smoke profile is the CI gate shape: sharded, quota on, a flood
    // the cost-weighted buckets must shed while cold tenants stay fast.
    let mut cfg = if smoke {
        LoadConfig {
            offered_rps: 300.0,
            flood_rps: 150.0,
            duration: Duration::from_millis(1500),
            tenants: 64,
            tenant_skew: 0.5,
            payloads: 8,
            injectors: 8,
            ..LoadConfig::default()
        }
    } else {
        LoadConfig::default()
    };
    if let Some(seed) = take_option(&mut args, "--seed")? {
        cfg.seed = seed.parse().map_err(|_| format!("bad --seed {seed:?}"))?;
    }
    if let Some(rps) = take_option(&mut args, "--rps")? {
        cfg.offered_rps = rps.parse().map_err(|_| format!("bad --rps {rps:?}"))?;
    }
    if let Some(rps) = take_option(&mut args, "--flood-rps")? {
        cfg.flood_rps = rps.parse().map_err(|_| format!("bad --flood-rps {rps:?}"))?;
    }
    if let Some(ms) = take_option(&mut args, "--duration-ms")? {
        let ms: u64 = ms.parse().map_err(|_| format!("bad --duration-ms {ms:?}"))?;
        cfg.duration = Duration::from_millis(ms);
    }
    if let Some(n) = take_option(&mut args, "--tenants")? {
        cfg.tenants = n.parse().map_err(|_| format!("bad --tenants {n:?}"))?;
    }
    if let Some(sk) = take_option(&mut args, "--skew")? {
        cfg.tenant_skew = sk.parse().map_err(|_| format!("bad --skew {sk:?}"))?;
    }
    if let Some(n) = take_option(&mut args, "--injectors")? {
        cfg.injectors = n.parse().map_err(|_| format!("bad --injectors {n:?}"))?;
    }
    if let Some(f) = take_option(&mut args, "--tensor-mix")? {
        cfg.tensor_mix = f.parse().map_err(|_| format!("bad --tensor-mix {f:?}"))?;
    }
    let store_dir = take_option(&mut args, "--store")?;
    let shards: usize = match take_option(&mut args, "--shards")? {
        Some(n) => n.parse().map_err(|_| format!("bad --shards {n:?}"))?,
        None => 4,
    };
    let quota: f64 = match take_option(&mut args, "--quota")? {
        Some(q) => q.parse().map_err(|_| format!("bad --quota {q:?}"))?,
        None => 240.0,
    };
    let out = take_option(&mut args, "--out")?;
    let addr = take_option(&mut args, "--addr")?;
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}").into());
    }

    if schedule_only {
        let events = build_schedule(&cfg)?;
        let dump = schedule_dump(&events);
        let digest = schedule_digest(&dump);
        match &out {
            Some(path) => {
                std::fs::write(path, &dump)?;
                println!("schedule: {} events, digest {digest}, wrote {path}", events.len());
            }
            None => print!("{dump}"),
        }
        return Ok(());
    }

    let report = match &addr {
        Some(addr) => run_load(addr, &cfg)?,
        None => {
            // With tensor traffic in the mix, the ephemeral server needs a
            // blockstore behind /v1/tensors; default to a scratch dir.
            let ephemeral_store = match (&store_dir, cfg.tensor_mix > 0.0) {
                (Some(dir), _) => Some(std::path::PathBuf::from(dir)),
                (None, true) => Some(std::env::temp_dir().join(format!(
                    "spark-load-store-{}-{}",
                    std::process::id(),
                    cfg.seed
                ))),
                (None, false) => None,
            };
            let server = Server::start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                shards,
                shard_workers: 2,
                queue_depth: 64,
                shard_queue: 16,
                quota_rps: quota,
                quota_burst: quota / 2.0,
                store_dir: ephemeral_store.clone(),
                ..ServeConfig::default()
            })?;
            let report = run_load(&server.addr().to_string(), &cfg)?;
            server.shutdown();
            server.join();
            // Only scrub the store we conjured; an explicit --store dir is
            // the caller's to keep.
            if store_dir.is_none() {
                if let Some(dir) = &ephemeral_store {
                    std::fs::remove_dir_all(dir).ok();
                }
            }
            report
        }
    };

    println!(
        "load: offered {} ({:.0} rps intended), achieved {:.0} rps, ok {:.0} rps",
        report.offered, cfg.offered_rps + cfg.flood_rps, report.achieved_rps, report.ok_rps
    );
    println!(
        "load: ok p50/p99/p999 {}/{}/{} us, cold p99 {} us, 429 {}, 503 {}, transport {}",
        report.ok_p50_us,
        report.ok_p99_us,
        report.ok_p999_us,
        report.cold_p99_us,
        report.shed_429,
        report.shed_503,
        report.transport_errors
    );
    println!("load: schedule digest {}", report.digest);
    let doc = report.to_json();
    match out.as_deref().or(smoke.then_some("BENCH_load.json")) {
        Some(path) => {
            std::fs::write(path, doc.to_string_pretty() + "\n")?;
            println!("wrote {path}");
        }
        None => println!("{}", doc.to_string_pretty()),
    }
    Ok(())
}

/// `spark chaos`: runs the seeded fault-injection suite (codec corruption
/// sweep, PE fault-rate sweep, live serve-layer chaos scenario) and
/// prints the deterministic JSON report. Same `(--seed, --streams)` →
/// byte-identical output; CI diffs two runs.
fn cmd_chaos(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    let seed: u64 = match take_option(&mut args, "--seed")? {
        Some(s) => s.parse().map_err(|_| format!("bad --seed {s:?}"))?,
        None => 7,
    };
    let streams: usize = match take_option(&mut args, "--streams")? {
        Some(s) => s.parse().map_err(|_| format!("bad --streams {s:?}"))?,
        None => 10_000,
    };
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}").into());
    }
    let report = spark_fault::run_chaos(seed, streams)?;
    println!("{}", report.to_string_pretty());
    Ok(())
}

/// `spark store`: direct command-line surface over the persistent
/// blockstore — ingest tensors or the serving model, read stored
/// container images back out, list, compact, and verify. `verify` prints
/// a deterministic report (recovery counters + per-entry checksum pass),
/// so CI can run it twice and diff the output byte-for-byte.
fn cmd_store(args: &[String]) -> CliResult {
    let usage = "usage: spark store <put|get|ls|compact|verify|snapshot> <dir> ...";
    let sub = args.first().ok_or(usage)?.clone();
    let mut rest = args[1..].to_vec();
    match sub.as_str() {
        "put" => {
            let infer_model = take_flag(&mut rest, "--infer-model");
            let dir = rest
                .first()
                .ok_or("usage: spark store put <dir> (--infer-model | <name> <input.f32>)")?;
            let store = spark_store::BlockStore::open(std::path::Path::new(dir))?;
            if infer_model {
                let model = api::InferModel::new()?;
                let mats = model.export_matrices();
                for (key, m) in api::STORE_MODEL_KEYS.iter().zip(&mats) {
                    store.put_matrix(key, m)?;
                    println!(
                        "{key}: {}x{} matrix, {} resident bytes",
                        m.k(),
                        m.n(),
                        m.resident_bytes()
                    );
                }
                let r = model.report();
                println!(
                    "ingested serving model: {} resident / {} dense bytes ({:.3} ratio)",
                    r.resident_bytes,
                    r.dense_bytes,
                    r.ratio()
                );
                return Ok(());
            }
            let [_, name, input] = &rest[..] else {
                return Err("usage: spark store put <dir> (--infer-model | <name> <input.f32>)"
                    .into());
            };
            let tensor = read_f32_tensor(input)?;
            let quantizer = MagnitudeQuantizer::new(8)?;
            let codes = quantizer.quantize(&tensor)?;
            let encoded = encode_tensor(&codes.codes);
            store.put_tensor(name, &encoded)?;
            println!(
                "{name}: {} values stored ({:.2} bits/value), scale {}",
                encoded.elements,
                encoded.stats.avg_bits(),
                codes.scale
            );
            Ok(())
        }
        "get" => {
            let [dir, name, output] = &rest[..] else {
                return Err("usage: spark store get <dir> <name> <output.spark>".into());
            };
            let store = spark_store::BlockStore::open(std::path::Path::new(dir))?;
            let (kind, bytes) = store.get_raw(name)?;
            std::fs::write(output, &bytes)?;
            println!("{name}: {} bytes ({}) -> {output}", bytes.len(), kind.name());
            Ok(())
        }
        "ls" => {
            let [dir] = &rest[..] else {
                return Err("usage: spark store ls <dir>".into());
            };
            let store = spark_store::BlockStore::open(std::path::Path::new(dir))?;
            for e in store.list() {
                println!("{:<7} {:>10}  {}", e.kind.name(), e.len, e.name);
            }
            let s = store.stats();
            println!(
                "{} entries, generation {}, wal {} bytes, next seq {}",
                s.entries, s.generation, s.wal_bytes, s.next_seq
            );
            Ok(())
        }
        "compact" => {
            let [dir] = &rest[..] else {
                return Err("usage: spark store compact <dir>".into());
            };
            let store = spark_store::BlockStore::open(std::path::Path::new(dir))?;
            let stats = store.compact()?;
            println!("{}", stats.to_json().to_string_pretty());
            Ok(())
        }
        "verify" => {
            let [dir] = &rest[..] else {
                return Err("usage: spark store verify <dir>".into());
            };
            let store = spark_store::BlockStore::open(std::path::Path::new(dir))?;
            let verified = store.verify()?;
            let mut doc = match store.recovery_report().to_json() {
                spark_util::json::Value::Object(members) => members,
                _ => unreachable!("recovery report serializes as an object"),
            };
            doc.push(("entries_verified".into(), spark_util::json::Value::Num(verified as f64)));
            println!("{}", spark_util::json::Value::Object(doc).to_string_pretty());
            Ok(())
        }
        "snapshot" => {
            let [src, dst] = &rest[..] else {
                return Err("usage: spark store snapshot <src-dir> <dst-dir>".into());
            };
            let report = spark_store::snapshot(
                std::path::Path::new(src),
                std::path::Path::new(dst),
            )?;
            println!("{}", report.to_json().to_string_pretty());
            Ok(())
        }
        _ => Err(usage.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_reader_round_trips() {
        let path = std::env::temp_dir().join("spark_cli_test.f32");
        let values = [1.5f32, -2.25, 0.0, 1e-3];
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(&path, &bytes).unwrap();
        let t = read_f32_tensor(path.to_str().unwrap()).unwrap();
        assert_eq!(t.as_slice(), &values);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn f32_reader_rejects_misaligned_files() {
        let path = std::env::temp_dir().join("spark_cli_bad.f32");
        std::fs::write(&path, [1u8, 2, 3]).unwrap();
        assert!(read_f32_tensor(path.to_str().unwrap()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn f32_reader_rejects_empty_files() {
        let path = std::env::temp_dir().join("spark_cli_empty.f32");
        std::fs::write(&path, []).unwrap();
        let err = read_f32_tensor(path.to_str().unwrap()).unwrap_err().to_string();
        assert!(err.contains("empty"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flag_parsing_extracts_switches_and_options() {
        let mut args: Vec<String> =
            ["--json", "model", "--workers", "8"].iter().map(|s| s.to_string()).collect();
        assert!(take_flag(&mut args, "--json"));
        assert!(!take_flag(&mut args, "--json"));
        assert_eq!(take_option(&mut args, "--workers").unwrap(), Some("8".into()));
        assert_eq!(take_option(&mut args, "--queue").unwrap(), None);
        assert_eq!(args, vec!["model".to_string()]);
        let mut dangling: Vec<String> = vec!["--workers".into()];
        assert!(take_option(&mut dangling, "--workers").is_err());
    }

    #[test]
    fn accelerator_names_parse_case_insensitively() {
        assert_eq!(api::resolve_accelerator("spark").unwrap(), AcceleratorKind::Spark);
        assert_eq!(api::resolve_accelerator("EYERISS").unwrap(), AcceleratorKind::Eyeriss);
        assert!(api::resolve_accelerator("nonsense").is_err());
    }

    #[test]
    fn encode_decode_files_end_to_end() {
        let dir = std::env::temp_dir();
        let f32_path = dir.join("spark_cli_e2e.f32");
        let spark_path = dir.join("spark_cli_e2e.spark");
        let u8_path = dir.join("spark_cli_e2e.u8");
        let values: Vec<f32> = (0..512).map(|i| ((i * 37) % 100) as f32 / 100.0 - 0.5).collect();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(&f32_path, &bytes).unwrap();
        cmd_encode(&[
            f32_path.to_str().unwrap().to_string(),
            spark_path.to_str().unwrap().to_string(),
        ])
        .unwrap();
        cmd_decode(&[
            spark_path.to_str().unwrap().to_string(),
            u8_path.to_str().unwrap().to_string(),
        ])
        .unwrap();
        let codes = std::fs::read(&u8_path).unwrap();
        assert_eq!(codes.len(), 512);
        for p in [f32_path, spark_path, u8_path] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn analyze_json_flag_produces_the_server_schema() {
        let path = std::env::temp_dir().join("spark_cli_json.f32");
        let values: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) / 64.0).collect();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(&path, &bytes).unwrap();
        // The command prints; assert the shared serializer itself here.
        let tensor = read_f32_tensor(path.to_str().unwrap()).unwrap();
        let v = api::analyze_response(tensor.as_slice()).unwrap();
        assert_eq!(v.get("count").unwrap().as_f64(), Some(256.0));
        assert!(v.get("sqnr_db").unwrap().as_f64().is_some());
        cmd_analyze(&["--json".to_string(), path.to_str().unwrap().to_string()]).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_put_get_ls_verify_round_trip() {
        let base = std::env::temp_dir().join(format!("spark-cli-store-{}", std::process::id()));
        let dir = base.to_str().unwrap().to_string();
        let f32_path = base.with_extension("f32");
        let out_path = base.with_extension("spark");
        let values: Vec<f32> = (0..300).map(|i| ((i * 13) % 97) as f32 / 97.0 - 0.5).collect();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(&f32_path, &bytes).unwrap();

        cmd_store(&[
            "put".into(),
            dir.clone(),
            "weights/w".into(),
            f32_path.to_str().unwrap().into(),
        ])
        .unwrap();
        cmd_store(&["put".into(), dir.clone(), "--infer-model".into()]).unwrap();
        cmd_store(&[
            "get".into(),
            dir.clone(),
            "weights/w".into(),
            out_path.to_str().unwrap().into(),
        ])
        .unwrap();
        // The stored payload is a valid container holding all 300 values.
        let image = std::fs::read(&out_path).unwrap();
        assert_eq!(read_container(image.as_slice()).unwrap().elements, 300);
        cmd_store(&["ls".into(), dir.clone()]).unwrap();
        cmd_store(&["compact".into(), dir.clone()]).unwrap();
        cmd_store(&["verify".into(), dir.clone()]).unwrap();
        // A missing name is a typed error, not a panic.
        assert!(cmd_store(&[
            "get".into(),
            dir.clone(),
            "absent".into(),
            out_path.to_str().unwrap().into(),
        ])
        .is_err());
        std::fs::remove_dir_all(&base).ok();
        std::fs::remove_file(&f32_path).ok();
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn simulate_accepts_case_insensitive_models_in_both_modes() {
        cmd_simulate(&["resnet18".to_string()]).unwrap();
        cmd_simulate(&["--json".to_string(), "ResNet18".to_string(), "eyeriss".to_string()])
            .unwrap();
        assert!(cmd_simulate(&["nonsense".to_string()]).is_err());
    }
}
