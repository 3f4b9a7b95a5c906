//! The seeded codec-corruption sweep.
//!
//! Thousands of freshly encoded streams are corrupted by the [`mutate`]
//! operators and pushed back through the decoders, with every decode
//! wrapped in `catch_unwind`. The sweep pins the codec's robustness
//! contract:
//!
//! - **No panics, ever** — a corrupted stream maps to `Ok` or to a typed
//!   [`DecodeError`] / [`ContainerError`], never an unwind.
//! - **The container is a trust boundary** — every corrupted container
//!   read fails loudly (the FNV checksum, length accounting, and padding
//!   checks leave no silent path), so `container.ok` must be zero.
//! - **The raw stream is honest about its limits** — a bare
//!   [`NibbleStream`] has no checksum, so some bit flips decode cleanly;
//!   the sweep *quantifies* that instead of hiding it, reporting how many
//!   silent decodes stay within the paper's CM error bound
//!   ([`MAX_ENCODING_ERROR`] = 16 magnitude steps) and how many
//!   desynchronize the stream (value or length divergence beyond it).
//!
//! Determinism: everything derives from the caller's seed via
//! [`spark_util::Rng`]; two sweeps with the same `(seed, streams)` produce
//! byte-identical reports.
//!
//! [`mutate`]: crate::mutate

use std::panic::{catch_unwind, AssertUnwindSafe};

use spark_codec::{
    decode_bulk_with, decode_general, decode_stream, decode_stream_reference, encode_general,
    encode_tensor, read_container, write_container, ContainerError, DecodeError, CodecVariant,
    SparkFormat, MAX_ENCODING_ERROR,
};
use spark_util::json::Value;
use spark_util::Rng;

use crate::mutate;

/// Typed-error tallies shared by the nibble and beat planes.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct ErrorCounts {
    truncated_long_code: u64,
    invalid_nibble: u64,
    invalid_beat: u64,
}

impl ErrorCounts {
    fn count(&mut self, e: &DecodeError) {
        match e {
            DecodeError::TruncatedLongCode => self.truncated_long_code += 1,
            DecodeError::InvalidNibble(_) => self.invalid_nibble += 1,
            DecodeError::InvalidBeat { .. } => self.invalid_beat += 1,
        }
    }

    fn total(&self) -> u64 {
        self.truncated_long_code + self.invalid_nibble + self.invalid_beat
    }

    fn to_json(&self) -> Value {
        Value::object([
            ("truncated_long_code", Value::Num(self.truncated_long_code as f64)),
            ("invalid_nibble", Value::Num(self.invalid_nibble as f64)),
            ("invalid_beat", Value::Num(self.invalid_beat as f64)),
        ])
    }
}

/// Aggregated outcome of one corruption sweep. Field semantics are
/// documented on the JSON report ([`SweepReport::to_json`]).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SweepReport {
    /// Streams corrupted and re-decoded.
    pub streams: u64,
    /// Decodes that unwound — the sweep's hard invariant is that this
    /// stays zero.
    pub panics: u64,
    /// Nibble plane: decodes that returned a typed error.
    nibble_errors: ErrorCounts,
    /// Nibble plane: silent decodes with the original element count whose
    /// max per-value error stayed within the CM bound.
    pub ok_within_cm_bound: u64,
    /// Nibble plane: silent decodes with the original element count but at
    /// least one value off by more than the CM bound.
    pub ok_beyond_cm_bound: u64,
    /// Nibble plane: silent decodes whose element count changed
    /// (desynchronized stream) — detectable only with the container's
    /// length accounting.
    pub ok_length_changed: u64,
    /// Largest per-value magnitude error seen across all silent decodes.
    pub max_value_error: u64,
    /// Nibble plane: corrupted streams where any bulk dispatch variant
    /// disagreed with the reference FSM (different values *or* a
    /// different typed error). Must be zero: corruption may change what a
    /// stream decodes to, but never which decoder you asked.
    pub bulk_divergence: u64,
    /// Beat plane (generalized formats): typed errors.
    beat_errors: ErrorCounts,
    /// Beat plane: silent decodes (any shape).
    pub beat_silent: u64,
    /// Container plane: reads that failed loudly, by variant.
    pub container_bad_magic: u64,
    /// Container reads rejecting an unsupported version.
    pub container_bad_version: u64,
    /// Container reads failing length/count/padding accounting.
    pub container_corrupt: u64,
    /// Container reads failing the payload checksum.
    pub container_checksum: u64,
    /// Container reads failing inside the embedded stream decode.
    pub container_stream_error: u64,
    /// Container reads failing on I/O (truncation mid-header).
    pub container_io: u64,
    /// Container reads that *succeeded* on corrupted bytes. Must be zero:
    /// the container is the trust boundary.
    pub container_ok: u64,
}

impl SweepReport {
    /// The report as deterministic JSON (counts only, no wall-clock).
    pub fn to_json(&self) -> Value {
        Value::object([
            ("streams", Value::Num(self.streams as f64)),
            ("panics", Value::Num(self.panics as f64)),
            (
                "nibble_plane",
                Value::object([
                    ("typed_errors", self.nibble_errors.to_json()),
                    ("ok_within_cm_bound", Value::Num(self.ok_within_cm_bound as f64)),
                    ("ok_beyond_cm_bound", Value::Num(self.ok_beyond_cm_bound as f64)),
                    ("ok_length_changed", Value::Num(self.ok_length_changed as f64)),
                    ("max_value_error", Value::Num(self.max_value_error as f64)),
                    ("bulk_divergence", Value::Num(self.bulk_divergence as f64)),
                    ("cm_bound", Value::Num(f64::from(MAX_ENCODING_ERROR))),
                ]),
            ),
            (
                "beat_plane",
                Value::object([
                    ("typed_errors", self.beat_errors.to_json()),
                    ("silent", Value::Num(self.beat_silent as f64)),
                ]),
            ),
            (
                "container_plane",
                Value::object([
                    ("bad_magic", Value::Num(self.container_bad_magic as f64)),
                    ("bad_version", Value::Num(self.container_bad_version as f64)),
                    ("corrupt", Value::Num(self.container_corrupt as f64)),
                    ("checksum_mismatch", Value::Num(self.container_checksum as f64)),
                    ("stream_error", Value::Num(self.container_stream_error as f64)),
                    ("io", Value::Num(self.container_io as f64)),
                    ("ok", Value::Num(self.container_ok as f64)),
                ]),
            ),
        ])
    }

    /// Total typed nibble-plane errors (convenience for assertions).
    pub fn nibble_error_total(&self) -> u64 {
        self.nibble_errors.total()
    }

    /// Total container-plane rejections (everything except `ok`).
    pub fn container_rejections(&self) -> u64 {
        self.container_bad_magic
            + self.container_bad_version
            + self.container_corrupt
            + self.container_checksum
            + self.container_stream_error
            + self.container_io
    }
}

/// Generalized formats cycled through by the beat plane.
const BEAT_FORMATS: [(u8, u8); 3] = [(6, 3), (8, 4), (12, 6)];

/// Runs the corruption sweep over `streams` freshly encoded tensors.
///
/// Each iteration encodes a random tensor, then corrupts and re-decodes
/// it on all three surfaces: the packed nibble stream, a generalized beat
/// stream, and the serialized container.
pub fn sweep_codec(seed: u64, streams: usize) -> SweepReport {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed_c0de_c0de_5eed);
    let mut report = SweepReport { streams: streams as u64, ..SweepReport::default() };

    for _ in 0..streams {
        let len = rng.gen_range(1..64);
        let values: Vec<u8> = (0..len).map(|_| (rng.gen_below(256)) as u8).collect();
        let encoded = encode_tensor(&values);
        // The clean round trip is the error baseline: the encoder itself
        // may spend up to the CM bound on long codes, and the sweep
        // measures *corruption-induced* error on top of that.
        let clean = match decode_stream(&encoded.stream) {
            Ok(v) => v,
            Err(e) => panic!("clean stream failed to decode: {e}"),
        };

        // --- Nibble plane ---------------------------------------------
        let (corrupted, _) = if rng.gen_bool() {
            mutate::flip_nibble_bit(&encoded.stream, &mut rng)
        } else {
            mutate::truncate_nibbles(&encoded.stream, &mut rng)
        };
        match catch_unwind(AssertUnwindSafe(|| decode_stream(&corrupted))) {
            Err(_) => report.panics += 1,
            Ok(Err(e)) => report.nibble_errors.count(&e),
            Ok(Ok(decoded)) => {
                if decoded.len() != clean.len() {
                    report.ok_length_changed += 1;
                } else {
                    let worst = decoded
                        .iter()
                        .zip(&clean)
                        .map(|(d, c)| u64::from(d.abs_diff(*c)))
                        .max()
                        .unwrap_or(0);
                    report.max_value_error = report.max_value_error.max(worst);
                    if worst <= u64::from(MAX_ENCODING_ERROR) {
                        report.ok_within_cm_bound += 1;
                    } else {
                        report.ok_beyond_cm_bound += 1;
                    }
                }
            }
        }

        // Bulk-vs-FSM differential on the *corrupted* stream: every
        // dispatch variant must agree with the reference FSM exactly —
        // the same values or the same typed error — and never unwind.
        // Corruption changes what a stream means, never which decode
        // engine observed it.
        match catch_unwind(AssertUnwindSafe(|| decode_stream_reference(&corrupted))) {
            Err(_) => report.panics += 1,
            Ok(want) => {
                for variant in CodecVariant::all() {
                    match catch_unwind(AssertUnwindSafe(|| decode_bulk_with(variant, &corrupted)))
                    {
                        Err(_) => report.panics += 1,
                        Ok(got) => {
                            if got != want {
                                report.bulk_divergence += 1;
                            }
                        }
                    }
                }
            }
        }

        // --- Beat plane (generalized formats) -------------------------
        let (base, short) = BEAT_FORMATS[rng.gen_range(0..BEAT_FORMATS.len())];
        let fmt = SparkFormat::new(base, short).unwrap_or_else(|e| panic!("format: {e}"));
        let wide: Vec<u16> = values.iter().map(|&v| u16::from(v) % (fmt.max_value() + 1)).collect();
        let beat_stream = encode_general(&fmt, &wide);
        match rng.gen_below(3) {
            0 | 1 => {
                // Corruption inside the packed representation.
                let (corrupted_beats, _) = if rng.gen_bool() {
                    mutate::xor_beat(&beat_stream, &mut rng)
                } else {
                    mutate::truncate_beats(&beat_stream, &mut rng)
                };
                match catch_unwind(AssertUnwindSafe(|| decode_general(&fmt, &corrupted_beats))) {
                    Err(_) => report.panics += 1,
                    Ok(Err(e)) => report.beat_errors.count(&e),
                    Ok(Ok(_)) => report.beat_silent += 1,
                }
            }
            _ => {
                // Corruption at the unpacker boundary: a raw beat wider
                // than the format allows is handed straight to the
                // decoder (the packed stream cannot represent this; a
                // buggy or corrupted unpacker can).
                let mut beats: Vec<u16> = beat_stream.iter().collect();
                let idx = rng.gen_range(0..beats.len());
                beats[idx] |= 1 << short;
                let run = || -> Result<(), DecodeError> {
                    let mut dec = spark_codec::SparkDecoder::with_format(fmt);
                    for &b in &beats {
                        dec.push_beat(b)?;
                    }
                    dec.finish().map(|_| ())
                };
                match catch_unwind(AssertUnwindSafe(run)) {
                    Err(_) => report.panics += 1,
                    Ok(Err(e)) => report.beat_errors.count(&e),
                    Ok(Ok(())) => report.beat_silent += 1,
                }
            }
        }

        // --- Container plane ------------------------------------------
        let mut bytes = Vec::new();
        if let Err(e) = write_container(&encoded, &mut bytes) {
            panic!("in-memory container write failed: {e}");
        }
        let (corrupted_bytes, _) = if rng.gen_bool() {
            mutate::flip_container_bit(&bytes, &mut rng)
        } else {
            mutate::truncate_container(&bytes, &mut rng)
        };
        match catch_unwind(AssertUnwindSafe(|| read_container(&corrupted_bytes[..]))) {
            Err(_) => report.panics += 1,
            Ok(Ok(_)) => report.container_ok += 1,
            Ok(Err(e)) => match e {
                ContainerError::Io(_) => report.container_io += 1,
                ContainerError::BadMagic(_) => report.container_bad_magic += 1,
                ContainerError::BadVersion(_) => report.container_bad_version += 1,
                ContainerError::Corrupt(_) => report.container_corrupt += 1,
                ContainerError::ChecksumMismatch { .. } => report.container_checksum += 1,
                ContainerError::Stream(_) => report.container_stream_error += 1,
            },
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_panic_free() {
        let a = sweep_codec(42, 1500);
        let b = sweep_codec(42, 1500);
        assert_eq!(a, b);
        assert_eq!(
            a.to_json().to_string_compact(),
            b.to_json().to_string_compact(),
            "reports must serialize byte-identically"
        );
        assert_eq!(a.panics, 0, "corrupted decode must never unwind");
        assert_ne!(a, sweep_codec(43, 1500), "different seeds explore different corruptions");
    }

    #[test]
    fn container_is_a_trust_boundary() {
        let r = sweep_codec(7, 2000);
        assert_eq!(r.container_ok, 0, "corrupted container read succeeded: {r:?}");
        assert_eq!(r.container_rejections(), r.streams);
        // The checksum is the workhorse: payload flips land there.
        assert!(r.container_checksum > 0, "{r:?}");
        assert!(r.container_corrupt + r.container_io > 0, "truncations must fail too: {r:?}");
    }

    #[test]
    fn nibble_plane_accounts_for_every_stream() {
        let r = sweep_codec(9, 2000);
        let accounted = r.nibble_error_total()
            + r.ok_within_cm_bound
            + r.ok_beyond_cm_bound
            + r.ok_length_changed;
        assert_eq!(accounted, r.streams);
        // Single-bit flips in short codes decode silently (no checksum in
        // a bare stream); the sweep must observe and quantify that.
        assert!(r.ok_within_cm_bound + r.ok_beyond_cm_bound > 0, "{r:?}");
        assert!(r.nibble_error_total() > 0, "{r:?}");
    }

    #[test]
    fn bulk_engine_never_diverges_from_fsm_on_corruption() {
        let r = sweep_codec(33, 2000);
        assert_eq!(r.panics, 0, "{r:?}");
        assert_eq!(
            r.bulk_divergence, 0,
            "a bulk variant disagreed with the FSM on a corrupted stream: {r:?}"
        );
        // The field is wired into the JSON report the chaos CLI prints.
        let json = r.to_json().to_string_compact();
        assert!(json.contains("\"bulk_divergence\":0"), "{json}");
    }

    #[test]
    fn beat_plane_sees_invalid_beats() {
        let r = sweep_codec(21, 2000);
        assert_eq!(
            r.beat_errors.total() + r.beat_silent,
            r.streams,
            "every beat-plane decode classified: {r:?}"
        );
        assert!(r.beat_errors.invalid_beat > 0, "out-of-range beats must surface: {r:?}");
    }
}
