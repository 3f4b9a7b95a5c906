//! Open-loop saturation comparison: single-pool versus sharded serving
//! under a noisy-neighbor flood.
//!
//! Both configurations run on the same host with the same endpoints and
//! the same offered workload: a blended mix (encode/decode/analyze/
//! infer, 128 tenants, mild Zipf skew, small tensors) plus a dedicated
//! flooder tenant firing `/v1/simulate` — the cycle-accurate simulator,
//! ~20x the CPU of a mix request — at half the mix rate. The sharded
//! configuration additionally consistent-hashes tenants onto independent
//! shard queues and enforces *cost-weighted* per-tenant token buckets
//! (a simulate call charges 16 units, a mix call 1-2), so the flooder's
//! bucket drains on work demanded, not request count.
//!
//! The ladder raises the offered mix rate and asks, per rung: do the
//! *innocent* (cold) tenants still get `DELIVERY_FLOOR` of their
//! requests served with p99 at most `P99_BOUND_US`, measured open-loop
//! from intended send time? Saturation is the highest rung that holds.
//!
//! The single pool has no defense: every admitted simulate occupies a
//! shared worker, the shared queue fills with 5 ms jobs, and cold
//! requests either crawl (p99 blows the bound) or bounce (503s eat the
//! delivery floor). The sharded server sheds the flood at the router
//! with cheap 429s and confines the admitted remainder to one shard, so
//! cold tenants keep their tail until the mix itself outgrows the host.
//! CI gates `saturation_ratio` (sharded over single-pool) at >= 2x.
//!
//! Set `SPARK_BENCH_JSON=<path>` to write the JSON report;
//! `SPARK_BENCH_QUICK=1` shortens the rungs for CI smoke.

use std::time::Duration;

use spark_serve::load::{run_load, LoadConfig, LoadReport};
use spark_serve::{ServeConfig, Server};
use spark_util::Value;

/// Bounded-tail criterion for cold-tenant success latency, measured from
/// the intended send time (coordinated-omission-free), in microseconds.
const P99_BOUND_US: u64 = 150_000;

/// Minimum fraction of cold-tenant requests that must return 200 for a
/// rung to count as sustained.
const DELIVERY_FLOOR: f64 = 0.85;

/// Per-tenant quota for the sharded configuration, in cost units/s.
/// The flooder demands `flood_rps * 16` units and trips it at every
/// rung; the busiest cold tenant (~5% of the mix, 1-2 units a request)
/// stays well under it at every ladder rate.
const QUOTA_UNITS_PER_S: f64 = 240.0;

fn workload(offered_rps: f64, duration: Duration) -> LoadConfig {
    LoadConfig {
        seed: 0x10AD_5EED,
        offered_rps,
        duration,
        // Many small tenants on a flat Zipf: the busiest cold tenant is
        // ~5% of the mix, so an honest quota clears every one of them.
        tenants: 128,
        tenant_skew: 0.5,
        payloads: 12,
        payload_skew: 1.0,
        // The flood: simulate calls at half the mix rate from tenant 0.
        flood_rps: offered_rps * 0.5,
        injectors: 12,
        ..LoadConfig::default()
    }
}

/// The pre-sharding shape: one shard, one shared queue, no admission
/// control. Total handler workers match the sharded config.
fn single_pool() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        shards: 1,
        shard_workers: 4,
        queue_depth: 64,
        shard_queue: 32,
        quota_rps: 0.0,
        ..ServeConfig::default()
    }
}

/// Same worker budget, split across four consistent-hash shards, with
/// per-tenant quotas shedding floods at the router.
fn sharded() -> ServeConfig {
    ServeConfig {
        shards: 4,
        shard_workers: 2,
        shard_queue: 16,
        quota_rps: QUOTA_UNITS_PER_S,
        quota_burst: QUOTA_UNITS_PER_S / 2.0,
        ..single_pool()
    }
}

struct Rung {
    offered_rps: f64,
    cold_delivery: f64,
    cold_p99_us: u64,
    ok_rps: f64,
    shed_429: u64,
    shed_503: u64,
    sustained: bool,
    report: LoadReport,
}

fn healthy(report: &LoadReport) -> (f64, bool) {
    let delivery = if report.cold_offered == 0 {
        0.0
    } else {
        report.cold_ok as f64 / report.cold_offered as f64
    };
    (delivery, delivery >= DELIVERY_FLOOR && report.cold_p99_us <= P99_BOUND_US)
}

fn run_ladder(label: &str, config: &ServeConfig, rates: &[f64], duration: Duration) -> Vec<Rung> {
    let mut rungs = Vec::new();
    for &offered_rps in rates {
        // Fresh server per rung: clean queues, clean metrics.
        let server = Server::start(config.clone()).expect("bind loopback");
        let addr = server.addr().to_string();
        let report =
            run_load(&addr, &workload(offered_rps, duration)).expect("load run");
        server.shutdown();
        server.join();

        let (cold_delivery, sustained) = healthy(&report);
        println!(
            "load/{label} @ {offered_rps:>6.0} rps: cold_delivery {:.3}, cold_p99 {:>7} us, ok {:>6.0} rps, 429 {:>5}, 503 {:>5}  [{}]",
            cold_delivery,
            report.cold_p99_us,
            report.ok_rps,
            report.shed_429,
            report.shed_503,
            if sustained { "sustained" } else { "saturated" },
        );
        rungs.push(Rung {
            offered_rps,
            cold_delivery,
            cold_p99_us: report.cold_p99_us,
            ok_rps: report.ok_rps,
            shed_429: report.shed_429,
            shed_503: report.shed_503,
            sustained,
            report,
        });
    }
    rungs
}

/// Highest sustained rung, 0.0 if none.
fn saturation_rps(rungs: &[Rung]) -> f64 {
    rungs.iter().filter(|r| r.sustained).map(|r| r.offered_rps).fold(0.0, f64::max)
}

fn rungs_json(rungs: &[Rung]) -> Value {
    Value::Array(
        rungs
            .iter()
            .map(|r| {
                Value::object([
                    ("offered_rps", Value::Num(r.offered_rps)),
                    ("cold_delivery", Value::Num(r.cold_delivery)),
                    ("cold_p99_us", Value::Num(r.cold_p99_us as f64)),
                    ("ok_rps", Value::Num(r.ok_rps)),
                    ("shed_429", Value::Num(r.shed_429 as f64)),
                    ("shed_503", Value::Num(r.shed_503 as f64)),
                    ("sustained", Value::Bool(r.sustained)),
                ])
            })
            .collect(),
    )
}

fn write_bench_json(
    rates: &[f64],
    single: &[Rung],
    sharded_rungs: &[Rung],
    single_sat: f64,
    sharded_sat: f64,
    ratio: f64,
) {
    let Some(path) = std::env::var_os("SPARK_BENCH_JSON") else {
        return;
    };
    let digest = single
        .first()
        .map(|r| r.report.digest.clone())
        .unwrap_or_default();
    let doc = Value::object([
        ("bench", Value::Str("serve/load_saturation".into())),
        ("p99_bound_us", Value::Num(P99_BOUND_US as f64)),
        ("delivery_floor", Value::Num(DELIVERY_FLOOR)),
        ("quota_units_per_s", Value::Num(QUOTA_UNITS_PER_S)),
        (
            "ladder_rps",
            Value::Array(rates.iter().map(|&r| Value::Num(r)).collect()),
        ),
        ("schedule_digest_first_rung", Value::Str(digest)),
        ("single_pool", rungs_json(single)),
        ("sharded", rungs_json(sharded_rungs)),
        ("single_pool_saturation_rps", Value::Num(single_sat)),
        ("sharded_saturation_rps", Value::Num(sharded_sat)),
        ("saturation_ratio", Value::Num(ratio)),
    ]);
    std::fs::write(&path, doc.to_string_pretty() + "\n").expect("write SPARK_BENCH_JSON");
    println!("wrote {}", path.to_string_lossy());
}

fn main() {
    let quick = std::env::var_os("SPARK_BENCH_QUICK").is_some();
    let (rates, duration): (Vec<f64>, Duration) = if quick {
        (vec![150.0, 300.0, 600.0, 1200.0, 2400.0], Duration::from_millis(700))
    } else {
        (vec![150.0, 300.0, 600.0, 1200.0, 2400.0], Duration::from_millis(1500))
    };

    println!("load/ladder: single-pool (1x4 workers, no quota)");
    let single = run_ladder("single ", &single_pool(), &rates, duration);
    println!(
        "load/ladder: sharded (4x2 workers, cost-weighted quota {QUOTA_UNITS_PER_S} units/s/tenant)"
    );
    let sharded_rungs = run_ladder("sharded", &sharded(), &rates, duration);

    let single_sat = saturation_rps(&single);
    let sharded_sat = saturation_rps(&sharded_rungs);
    let ratio = if single_sat > 0.0 { sharded_sat / single_sat } else { f64::INFINITY };
    println!("load/single_pool_saturation_rps  {single_sat:>10.0}");
    println!("load/sharded_saturation_rps      {sharded_sat:>10.0}");
    println!("load/saturation_ratio            {ratio:>10.2}x");

    write_bench_json(&rates, &single, &sharded_rungs, single_sat, sharded_sat, ratio);
}
