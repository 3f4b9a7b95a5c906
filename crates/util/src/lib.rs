//! # spark-util — zero-dependency substrate for the SPARK workspace
//!
//! The reproduction builds hermetically: no crates.io access, `cargo build
//! --offline` from a clean checkout. Everything the workspace used to pull
//! from external crates lives here instead:
//!
//! - [`rng`] — seedable SplitMix64 / xoshiro256++ PRNG with shuffling
//!   (replaces `rand`);
//! - [`dist`] — Normal / StandardNormal / Gamma / Exp / Zipf samplers
//!   (replaces `rand_distr`);
//! - [`fnv`] — the workspace's one FNV-1a 64 implementation (container
//!   checksums, tenant placement, schedule digests, store framing);
//! - [`par`] — [`par::par_map`], [`par::par_chunks_mut`] and two-way
//!   [`par::join`] over one process-wide pool of parked helper threads,
//!   and a bounded MPMC [`par::channel`] for the serving job queue
//!   (replaces `rayon` / `crossbeam-channel`);
//! - [`hist`] — a lock-free log-bucketed [`hist::Histogram`] for request
//!   latency and batch-size metrics (replaces `hdrhistogram`);
//! - [`json`] — a minimal JSON [`json::Value`] with serializer, parser and
//!   the [`json::ToJson`] trait (replaces `serde` + `serde_json`);
//! - [`proc`] — child-process spawn/kill/reap helpers with drop-time
//!   reaping, for the multi-process chaos and fleet harnesses;
//! - [`prop`] — seeded property-test runner with shrinking and seed
//!   reporting (replaces `proptest`);
//! - [`bench`] — adaptive micro-bench timer (replaces `criterion`).
//!
//! Keeping this layer small and fully tested is the point: every invariant
//! the paper specifies is pinned by tests that must run anywhere, with no
//! network and no version drift.

#![warn(missing_docs)]

pub mod bench;
pub mod dist;
pub mod fnv;
pub mod hist;
pub mod json;
pub mod par;
pub mod proc;
pub mod prop;
pub mod rng;

pub use dist::{Exp, Gamma, Normal, StandardNormal, Zipf};
pub use fnv::{fnv1a, Fnv1a};
pub use hist::Histogram;
pub use json::{ToJson, Value};
pub use par::{channel, join, par_map};
pub use rng::Rng;
