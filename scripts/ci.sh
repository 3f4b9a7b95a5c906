#!/usr/bin/env sh
# Offline verify pipeline. The workspace is hermetic (zero external
# dependencies, see DESIGN.md "Hermetic build policy"), so every step runs
# with --offline: a network dependency creeping into any Cargo.toml fails
# this script at the first build.
#
# Every step runs even when an earlier one fails: a failed command or gate
# is recorded, and the script exits non-zero at the end with the list, so
# one red gate does not hide the state of the steps after it.
set -u

cd "$(dirname "$0")/.." || exit 1

failures=""
# Records a failed step or gate and carries on.
fail() {
    echo "FAILED: $1" >&2
    failures="$failures
  - $1"
}

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline || fail "release build"

echo "==> benchmark build (outside the workspace, against spark-serve and spark-nn)"
# benchmark/ is its own package; building it here catches an API change
# in the crates it links that the workspace build alone would miss.
cargo build --release --offline --manifest-path benchmark/Cargo.toml || fail "benchmark build"

echo "==> cargo test -q --offline (full suite, SPARK_SLOW_TESTS=1)"
SPARK_SLOW_TESTS=1 cargo test -q --workspace --offline || fail "test suite"

echo "==> codec decode bench -> BENCH_codec.json"
# Full timing windows: speedup_bulk_over_fsm is a gate (the bit-parallel
# bulk engine must hold >=3x over the scalar FSM reference under the
# host's detected dispatch variant).
SPARK_BENCH_JSON="$PWD/BENCH_codec.json" \
    cargo bench --offline -p spark-bench --bench codec || fail "codec bench"
grep -Eq '"fsm_mean_ns": *[0-9]' BENCH_codec.json || fail "BENCH_codec.json missing a numeric fsm_mean_ns"
grep -Eq '"speedup_bulk_over_fsm": *[0-9]' BENCH_codec.json || fail "BENCH_codec.json missing a numeric speedup_bulk_over_fsm"
awk '/"speedup_bulk_over_fsm"/ {
    gsub(/[",]/, ""); if ($2 + 0 < 3.0) { exit 1 } else { found = 1 }
} END { exit found ? 0 : 1 }' BENCH_codec.json || fail "BENCH_codec.json: bulk decode is not >=3x the scalar FSM"

echo "==> simulator bench (quick) -> BENCH_sim.json"
# Absolute path: cargo runs the bench with its CWD at the package root.
SPARK_BENCH_QUICK=1 SPARK_BENCH_JSON="$PWD/BENCH_sim.json" \
    cargo bench --offline -p spark-bench --bench simulator || fail "simulator bench"
grep -Eq '"cycles_per_sec": *[0-9]' BENCH_sim.json || fail "BENCH_sim.json missing a numeric cycles_per_sec"

echo "==> turbo GEMM bench -> BENCH_gemm.json"
# Full timing windows (no SPARK_BENCH_QUICK): the recorded speedup is a
# gate, and 10 ms windows are too noisy to hold it steady on shared hosts.
SPARK_BENCH_JSON="$PWD/BENCH_gemm.json" \
    cargo bench --offline -p spark-bench --bench gemm || fail "GEMM bench"
grep -Eq '"gflops": *[0-9]' BENCH_gemm.json || fail "BENCH_gemm.json missing a numeric gflops"

echo "==> decode-fused GEMM bench -> BENCH_fused.json"
# Full timing windows: fused_over_decode_then and weight_bytes_ratio are
# gates (fused must keep >=0.8x of decode-then-GEMM throughput while the
# resident weights shrink >=1.8x, i.e. ratio <= 0.55), and so is
# fused_b1_over_dense_b1 (a batch-1 fused GEMV must run at >=0.9x of the
# dense GEMV over the same 768x3072 weight). That ratio compares each
# side's best batch mean (best_ns): the dense GEMV alone swings ~2x run
# to run on a 2-vCPU host, and the ratio of means, kept ungated as
# fused_b1_over_dense_b1_mean, once read 0.53 in one of four runs that
# otherwise read 1.02-1.09. At 64x512x512
# the fused call takes the integer-domain path: fused_over_dense_gemm
# must stay >=1.0 (three runs on a 2-vCPU host read 1.36-1.60) and
# int_rel_l2, its worst per-row relative L2 error against the f32
# oracle, <=1e-3. b1_decode_ns_val and b1_emit_ns_val break the batch-1
# GEMV down into its decode and operand-emit stages (ungated).
SPARK_BENCH_JSON="$PWD/BENCH_fused.json" \
    cargo bench --offline -p spark-bench --bench fused || fail "fused GEMM bench"
grep -Eq '"fused_gflops": *[0-9]' BENCH_fused.json || fail "BENCH_fused.json missing a numeric fused_gflops"
awk '/"weight_bytes_ratio"/ {
    gsub(/[",]/, ""); if ($2 + 0 > 0.55) { exit 1 } else { found = 1 }
} END { exit found ? 0 : 1 }' BENCH_fused.json || fail "BENCH_fused.json: resident encoded weights are not <=0.55x of dense f32"
awk '/"fused_over_decode_then"/ {
    gsub(/[",]/, ""); if ($2 + 0 < 0.8) { exit 1 } else { found = 1 }
} END { exit found ? 0 : 1 }' BENCH_fused.json || fail "BENCH_fused.json: fused GEMM is not >=0.8x of decode-then-GEMM"
awk '/"fused_b1_over_dense_b1"/ {
    gsub(/[",]/, ""); if ($2 + 0 < 0.9) { exit 1 } else { found = 1 }
} END { exit found ? 0 : 1 }' BENCH_fused.json || fail "BENCH_fused.json: batch-1 fused GEMV is not >=0.9x of the dense GEMV"
awk '/"fused_over_dense_gemm"/ {
    gsub(/[",]/, ""); if ($2 + 0 < 1.0) { exit 1 } else { found = 1 }
} END { exit found ? 0 : 1 }' BENCH_fused.json || fail "BENCH_fused.json: batch-64 fused GEMM is not >=1x the dense GEMM"
awk '/"int_rel_l2"/ {
    gsub(/[",]/, ""); if ($2 + 0 > 0.001) { exit 1 } else { found = 1 }
} END { exit found ? 0 : 1 }' BENCH_fused.json || fail "BENCH_fused.json: integer-domain GEMM is more than 1e-3 from the f32 oracle"

echo "==> serve smoke (boots an ephemeral server, hits every endpoint)"
cargo run --release --offline -p spark-cli --bin spark -- serve --smoke || fail "serve smoke"

echo "==> serve bench -> BENCH_serve.json"
# Full timing windows. requests_per_sec is the 8-client /v1/encode rate
# of a live loopback server; it is gated against the committed
# BENCH_serve.json, read before the bench overwrites it: a fresh rate
# below 0.4x of the committed one fails. On a 2-vCPU host seven runs
# read 7800-15400 req/s, so the bound catches a collapse, not noise. The 8-client p99 is recorded but not gated: with up to four
# shard workers encoding at once on two vCPUs it swings several-fold.
committed_rps=$(git show HEAD:BENCH_serve.json 2>/dev/null | awk '/"requests_per_sec"/ {
    gsub(/[",]/, ""); print $2 + 0; exit
}')
[ -n "$committed_rps" ] || fail "BENCH_serve.json: no committed requests_per_sec to gate against"
SPARK_BENCH_JSON="$PWD/BENCH_serve.json" \
    cargo bench --offline -p spark-bench --bench serve || fail "serve bench"
grep -Eq '"requests_per_sec": *[0-9]' BENCH_serve.json || fail "BENCH_serve.json missing a numeric requests_per_sec"
if [ -n "$committed_rps" ]; then
    awk -v base="$committed_rps" '/"requests_per_sec"/ {
        gsub(/[",]/, ""); if ($2 + 0 < 0.4 * base) { exit 1 } else { found = 1 }
    } END { exit found ? 0 : 1 }' BENCH_serve.json ||
        fail "BENCH_serve.json: 8-client requests_per_sec below 0.4x of the committed $committed_rps"
fi
# A lone request runs at once on an idle shard worker; nothing waits for
# company, so a sequential client's 4096-value encode stays far below a
# millisecond and a half.
awk '/"lone_encode_p50_us"/ {
    gsub(/[",]/, ""); if ($2 + 0 > 1500) { exit 1 } else { found = 1 }
} END { exit found ? 0 : 1 }' BENCH_serve.json || fail "BENCH_serve.json: lone-client encode p50 above 1500 us"

echo "==> open-loop load schedules: two dumps, byte-identical"
cargo run --release --offline -p spark-cli --bin spark -- \
    load --smoke --schedule-only --out "$PWD/SCHEDULE_a.txt" || fail "load schedule dump a"
cargo run --release --offline -p spark-cli --bin spark -- \
    load --smoke --schedule-only --out "$PWD/SCHEDULE_b.txt" || fail "load schedule dump b"
cmp SCHEDULE_a.txt SCHEDULE_b.txt || fail "load schedule is not deterministic across runs"
rm -f SCHEDULE_a.txt SCHEDULE_b.txt

echo "==> spark load --smoke -> BENCH_load.json (open-loop tail-latency gate)"
# Ephemeral sharded server + seeded open-loop run: a simulate-flooding
# noisy neighbor against 64 cold tenants. Gates: the cold tenants' p99
# (measured from intended send time) stays under a generous bound, the
# cost-weighted quota actually shed the flood, no handler panicked, and
# every scheduled event got an HTTP answer.
cargo run --release --offline -p spark-cli --bin spark -- \
    load --smoke --out "$PWD/BENCH_load.json" || fail "spark load --smoke"
awk '/"cold_p99_us"/ {
    gsub(/[",]/, ""); if ($2 + 0 > 150000) { exit 1 } else { found = 1 }
} END { exit found ? 0 : 1 }' BENCH_load.json || fail "BENCH_load.json: cold-tenant p99 above 150 ms under the smoke load"
awk '/"rejected_429"/ {
    gsub(/[",]/, ""); if ($2 + 0 < 1) { exit 1 } else { found = 1 }
} END { exit found ? 0 : 1 }' BENCH_load.json || fail "BENCH_load.json: quota never shed the flooding tenant"
awk '/"transport_errors"/ {
    gsub(/[",]/, ""); if ($2 + 0 != 0) { exit 1 } else { found = 1 }
} END { exit found ? 0 : 1 }' BENCH_load.json || fail "BENCH_load.json: scheduled events lost at the transport layer"
awk '/"panics_total"/ {
    gsub(/[",]/, ""); if ($2 + 0 != 0) { exit 1 } else { found = 1 }
} END { exit found ? 0 : 1 }' BENCH_load.json || fail "BENCH_load.json: server recorded handler panics under load"

echo "==> sharded saturation ladder -> BENCH_load_saturation.json"
# Single-pool vs sharded under the same noisy-neighbor flood. Gate: the
# sharded server (cost-weighted quotas + shard isolation) sustains >=2x
# the offered rate the single shared pool sustains before the cold
# tenants' p99 or delivery collapses. Typical on this host is 4x; 2x is
# the floor with rung-granularity margin.
SPARK_BENCH_JSON="$PWD/BENCH_load_saturation.json" \
    cargo bench --offline -p spark-bench --bench load || fail "saturation ladder bench"
grep -Eq '"sharded_saturation_rps": *[0-9]' BENCH_load_saturation.json || fail "BENCH_load_saturation.json missing a numeric sharded_saturation_rps"
awk '/"saturation_ratio"/ {
    gsub(/[",]/, ""); if ($2 + 0 < 2.0) { exit 1 } else { found = 1 }
} END { exit found ? 0 : 1 }' BENCH_load_saturation.json || fail "BENCH_load_saturation.json: sharded saturation is not >=2x single-pool"

echo "==> blockstore: ingest frozen model, recover twice, byte-identical"
# spark-store round trip through the CLI: persist the serving model's
# encoded weights, then run recovery+verify twice on the same directory.
# The verify report is a pure function of the directory contents (no
# paths, no wall-clock), so the two runs must be byte-identical.
STORE_DIR="$PWD/target/ci-store"
rm -rf "$STORE_DIR"
cargo run --release --offline -p spark-cli --bin spark -- \
    store put "$STORE_DIR" --infer-model || fail "store put"
cargo run --release --offline -p spark-cli --bin spark -- \
    store verify "$STORE_DIR" > STORE_VERIFY_a.json || fail "store verify a"
cargo run --release --offline -p spark-cli --bin spark -- \
    store verify "$STORE_DIR" > STORE_VERIFY_b.json || fail "store verify b"
cmp STORE_VERIFY_a.json STORE_VERIFY_b.json || fail "store recovery report is not deterministic across runs"
grep -Eq '"entries_verified": *2' STORE_VERIFY_a.json || fail "store verify did not checksum both model matrices"
grep -Eq '"torn_tail": *null' STORE_VERIFY_a.json || fail "store verify diagnosed a torn tail on a cleanly closed store"
rm -f STORE_VERIFY_a.json STORE_VERIFY_b.json
rm -rf "$STORE_DIR"

echo "==> blockstore bench -> BENCH_store.json"
# Full timing windows: cold_load_speedup is a gate (opening the store and
# pread-ing the encoded panels back must beat re-encoding the matrix from
# dense f32 by >=3x, or persistence isn't paying rent).
SPARK_BENCH_JSON="$PWD/BENCH_store.json" \
    cargo bench --offline -p spark-bench --bench store || fail "store bench"
grep -Eq '"cold_load_mean_ns": *[0-9]' BENCH_store.json || fail "BENCH_store.json missing a numeric cold_load_mean_ns"
awk '/"cold_load_speedup"/ {
    gsub(/[",]/, ""); if ($2 + 0 < 3.0) { exit 1 } else { found = 1 }
} END { exit found ? 0 : 1 }' BENCH_store.json || fail "BENCH_store.json: store cold-load is not >=3x re-encoding from dense"

echo "==> fleet router kill drill -> BENCH_router.json"
# Snapshot-provisions three backend stores from one seed store (spark
# store snapshot), boots three real `spark serve` child processes behind
# the fleet router, drives a seeded open-loop load through the router,
# kill -9s one backend mid-run, and restarts it. Gates: availability
# >= 0.99 while a replica is down, zero wrong bodies from the
# cross-replica byte-identity oracle on /v1/infer, zero handler or
# router panics, and the killed backend re-admitted through half-open
# probes. SPARK_BIN pins the child-process binary to the release build
# from the top of this script; the timeout bounds the whole drill
# (load + restart + re-admission polling) in wall-clock time.
SPARK_BIN="$PWD/target/release/spark" timeout 180 \
    "$PWD/target/release/spark" \
    router --bench-kill --seed 7 --out "$PWD/BENCH_router.json" || fail "router kill drill"
awk '/"availability"/ {
    gsub(/[",]/, ""); if ($2 + 0 < 0.99) { exit 1 } else { found = 1 }
} END { exit found ? 0 : 1 }' BENCH_router.json || fail "BENCH_router.json: fleet availability below 0.99 under kill -9"
awk '/"wrong_bodies"/ {
    gsub(/[",]/, ""); if ($2 + 0 != 0) { exit 1 } else { found = 1 }
} END { exit found ? 0 : 1 }' BENCH_router.json || fail "BENCH_router.json: byte-identity oracle saw a divergent /v1/infer body"
awk '/"panics_total"/ {
    gsub(/[",]/, ""); if ($2 + 0 != 0) { exit 1 } else { found = 1 }
} END { exit found ? 0 : 1 }' BENCH_router.json || fail "BENCH_router.json: a router worker or backend handler panicked"
grep -Eq '"victim_restarted": *true' BENCH_router.json || fail "BENCH_router.json: killed backend was never restarted"
grep -Eq '"victim_readmitted": *true' BENCH_router.json || fail "BENCH_router.json: restarted backend never re-admitted via half-open probes"

echo "==> experiments --smoke"
SPARK_BENCH_QUICK=1 cargo run --release --offline -p spark-bench --bin experiments -- --smoke ||
    fail "experiments --smoke"

echo "==> chaos: seeded fault-injection sweep, run twice, byte-identical"
# >=10k corrupted streams through the codec plus the hardware and serve
# fault planes. The report must be a pure function of (seed, streams):
# any panic, any nondeterminism, or any broken resilience contract fails
# here (run_chaos exits nonzero on a contract violation). CHAOS.json is
# replaced only when every chaos check passed.
failures_before_chaos="$failures"
cargo run --release --offline -p spark-cli --bin spark -- \
    chaos --seed 7 --streams 10000 > CHAOS_a.json || fail "chaos run a"
cargo run --release --offline -p spark-cli --bin spark -- \
    chaos --seed 7 --streams 10000 > CHAOS_b.json || fail "chaos run b"
cmp CHAOS_a.json CHAOS_b.json || fail "chaos report is not deterministic across runs"
grep -Eq '"panics": *0' CHAOS_a.json || fail "chaos sweep recorded decoder panics"
grep -Eq '"bulk_divergence": *0' CHAOS_a.json || fail "chaos sweep: bulk decoder diverged from the FSM on corruption"
# The crash plane (blockstore power-cut sweep) reports its own counters;
# no plane anywhere in the combined report may record a panic.
if grep -Eq '"panics": *[1-9]' CHAOS_a.json; then
    fail "chaos sweep: a fault plane recorded panics"
fi
grep -Eq '"compaction_mismatches": *0' CHAOS_a.json || fail "chaos sweep: blockstore crash plane missing or diverged"
if [ "$failures" = "$failures_before_chaos" ]; then
    mv CHAOS_a.json CHAOS.json || fail "keep CHAOS.json"
fi
rm -f CHAOS_a.json CHAOS_b.json

echo "==> robustness grep gate (no unwrap()/panic! in serve/codec/store non-test code)"
# Non-test code in the trust-boundary crates must use typed errors. The
# awk body stops scanning each file at its #[cfg(test)] marker (test
# modules sit at the bottom of every file in this repo). expect() with an
# infallibility comment is allowed; .unwrap() and panic!() are not.
violations=$(awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    /^[[:space:]]*\/\// { next }
    /\.unwrap\(\)|panic!\(/ { print FILENAME ":" FNR ": " $0 }
' crates/serve/src/*.rs crates/codec/src/*.rs crates/store/src/*.rs) ||
    fail "grep gate: awk could not scan the trust-boundary sources"
if [ -n "$violations" ]; then
    echo "$violations" >&2
    fail "grep gate: forbidden unwrap()/panic!() in non-test code"
fi

if [ -n "$failures" ]; then
    echo "==> ci.sh FAILED:$failures" >&2
    exit 1
fi
echo "==> ci.sh OK"
