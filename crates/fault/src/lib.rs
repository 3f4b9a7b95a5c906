//! # spark-fault — seeded, deterministic fault injection for the SPARK
//! stack
//!
//! Robustness claims are only as good as the adversary that tested them.
//! This crate is that adversary, in three planes that mirror the
//! codebase's trust boundaries:
//!
//! - **Codec plane** ([`mutate`], [`sweep`]) — bit flips, nibble/beat
//!   corruption, and truncation against the variable-length streams and
//!   the serialized container. The sweep proves every corruption lands in
//!   a typed [`DecodeError`](spark_codec::DecodeError) /
//!   [`ContainerError`](spark_codec::ContainerError) or a *quantified*
//!   silent decode — never a panic — and measures silent-decode value
//!   error against the paper's CM bound (±16 magnitude steps).
//! - **Fused-GEMM plane** ([`fused`]) — mutated panel containers fed to
//!   the constructor of the decode-fused GEMM's weight operand, proving
//!   its once-per-matrix validation rejects every corrupted operand with
//!   a typed [`EncodedError`](spark_tensor::EncodedError) before the
//!   operand exists, so no value reaches an accumulator — and never
//!   panics.
//! - **Hardware plane** ([`hardware`]) — stuck-at and transient faults in
//!   the PE MAC datapath via the zero-cost
//!   [`MacFaultHook`](spark_sim::MacFaultHook), plus precision-tag flips
//!   in the cycle-accurate systolic schedule. Fault patterns are pure
//!   functions of `(seed, site)`, so sweeps reproduce bit-for-bit across
//!   tilings and thread counts.
//! - **Serve plane** ([`chaos`]) — a scripted adversary (handler panic,
//!   hard worker death, slowloris, garbage bytes) against a live loopback
//!   `spark-serve` instance, asserting the panic-isolation / respawn /
//!   deadline-shedding contract.
//! - **Process plane** ([`proc`]) — a `kill -9` adversary against real
//!   `spark serve` child processes behind the fleet router: snapshot
//!   provisioning, mid-run SIGKILL under open-loop load, a byte-identity
//!   differential oracle on `/v1/infer`, and half-open re-admission.
//! - **Crash plane** ([`crash`]) — a power-cut adversary against the
//!   [`spark-store`](spark_store) blockstore: the WAL truncated at a
//!   sweep of byte offsets, single-bit rot under the checksums, and
//!   crashes inside every compaction failpoint window — proving recovery
//!   never panics, lands exactly on the committed prefix, and reports
//!   identically across reruns.
//!
//! [`run_chaos`] stitches all planes into the single deterministic JSON
//! report behind `spark chaos`; CI runs it twice and diffs the bytes.

#![warn(missing_docs)]

pub mod chaos;
pub mod crash;
pub mod fused;
pub mod hardware;
pub mod mutate;
pub mod proc;
pub mod sweep;

pub use chaos::{serve_chaos, shard_chaos};
pub use crash::{sweep_store_crash, CrashSweepReport};
pub use proc::{proc_chaos, router_kill_bench};
pub use fused::{sweep_fused, FusedSweepReport};
pub use hardware::{accuracy_sweep, systolic_kind_flip, StuckAtFault, TransientFault};
pub use mutate::Corruption;
pub use sweep::{sweep_codec, SweepReport};

use spark_util::json::Value;

/// Fault rates swept by the hardware plane of the combined report.
const REPORT_RATES: [f64; 4] = [0.0, 0.0001, 0.001, 0.01];

/// Runs all three fault planes and returns one combined report.
///
/// The report is a pure function of `(seed, streams)`: counts, status
/// codes, and exactly-reproducible floating-point error figures — no
/// wall-clock anywhere. `spark chaos` prints it; CI diffs two runs.
///
/// # Errors
///
/// A description of the first serve-plane step that violated the
/// resilience contract (the computational planes cannot fail — their
/// invariant violations are reported as nonzero counters instead).
pub fn run_chaos(seed: u64, streams: usize) -> Result<Value, String> {
    let codec = sweep_codec(seed, streams);
    // The fused-GEMM plane corrupts whole encoded operands (several
    // containers each), so it runs a tenth of the codec plane's volume.
    let fused = sweep_fused(seed, (streams / 10).max(50));
    if !fused.contract_holds() {
        return Err(format!(
            "fused GEMM accepted corrupted weights or panicked: {}",
            fused.to_json().to_string_compact()
        ));
    }
    let hardware = Value::object([
        ("accuracy", accuracy_sweep(seed, &REPORT_RATES)),
        ("systolic_timing", systolic_kind_flip(seed, 0.05)),
    ]);
    // The crash plane rebuilds a store per failpoint, so it sweeps a
    // fraction of the codec plane's volume.
    let store = sweep_store_crash(seed, (streams / 10).max(20))?;
    if !store.contract_holds() {
        return Err(format!(
            "blockstore recovery violated the crash contract: {}",
            store.to_json().to_string_compact()
        ));
    }
    let serve = serve_chaos()?;
    let serve_shards = shard_chaos()?;
    let router = proc::proc_chaos(seed)?;
    Ok(Value::object([
        ("seed", Value::Num(seed as f64)),
        ("streams", Value::Num(streams as f64)),
        ("codec", codec.to_json()),
        ("fused_gemm", fused.to_json()),
        ("hardware", hardware),
        ("store", store.to_json()),
        ("serve", serve),
        ("serve_shards", serve_shards),
        ("router", router),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_report_is_byte_identical_across_runs() {
        let a = run_chaos(3, 400).unwrap().to_string_compact();
        let b = run_chaos(3, 400).unwrap().to_string_compact();
        assert_eq!(a, b);
        // And it actually carries all three planes.
        for key in [
            "\"codec\"",
            "\"fused_gemm\"",
            "\"hardware\"",
            "\"store\"",
            "\"serve\"",
            "\"serve_shards\"",
            "\"router\"",
            "\"panics\"",
        ]
        {
            assert!(a.contains(key), "report missing {key}: {a}");
        }
    }
}
