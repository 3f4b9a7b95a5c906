//! # spark-codec — the SPARK variable-length encoding
//!
//! This crate implements the core contribution of *SPARK: Scalable and
//! Precision-Aware Acceleration of Neural Networks via Efficient Encoding*
//! (HPCA 2024): a bit-level variable-length code for INT8-quantized tensors.
//!
//! ## The format in one paragraph
//!
//! A per-layer scaled unsigned 8-bit value `v = b0 b1 … b7` (MSB first) is
//! encoded as either a 4-bit **short code** or an 8-bit **long code**:
//!
//! - `v ∈ [0, 7]` → short code `0 b5 b6 b7` (identifier bit 0, lossless);
//! - otherwise → long code, first nibble (*prev*) `1 b1 b2 b0` and second
//!   nibble (*post*) given by the check-bit rule: if `b0 XOR b3 == 0` the
//!   low nibble is stored verbatim (lossless), otherwise it rounds to `1111`
//!   (when `b3 = 1`) or `0000` (when `b3 = 0`), bounding the error at 16.
//!
//! The fourth code bit `c3 = b0` tells the decoder whether the identifier
//! participates in the numeric value (values ≥ 128) or not (values < 128).
//! This reproduces Table II, Fig 3, Fig 5, Fig 7, Fig 10 and Equations 3–5
//! of the paper bit-exactly; the unit tests check the paper's own worked
//! examples (18 → 15, 170 → 176, `11010010` → 210, `01000011` → 4 and 3).
//!
//! ## Modules
//!
//! Each rule of the format is written once:
//!
//! - [`general`] — the code rule, [`SparkFormat`], for any `(base, short)`
//!   width; the paper's 8/4 code is its [`SparkFormat::PAPER`] instance;
//! - [`code`] — that instance narrowed to `u8`: [`encode_value`],
//!   [`SparkCode`];
//! - [`decoder`] — the Fig 5/7 enable-signal FSM ([`SparkDecoder`]) for
//!   every beat-aligned format, the reference oracle for bulk decode;
//! - [`encoder`] — the gate-level encoder of Fig 10 ([`SparkEncoder`]), an
//!   independent oracle for the code rule;
//! - [`bulk`] — the bit-parallel block decoder [`decode_stream`] runs on;
//! - [`stream`] and [`general_stream`] — nibble- and beat-aligned packing;
//!   tensors encode through one table per mode ([`EncodePlan`]);
//! - [`container`] — the on-disk container and its one validator;
//! - [`compensation`] — the accuracy compensation mechanism toggle and
//!   tensor-level bias correction;
//! - [`stats`], [`analysis`] and [`table`] — code statistics (Fig 2, Fig 4)
//!   and Table II as data.
//!
//! ## Example
//!
//! ```
//! use spark_codec::{encode_tensor, decode_stream};
//!
//! let values = vec![5u8, 18, 170, 210, 3];
//! let enc = encode_tensor(&values);
//! let dec = decode_stream(&enc.stream)?;
//! assert_eq!(dec, vec![5, 15, 176, 210, 3]); // 18 and 170 round per Table II
//! assert!(enc.stats.avg_bits() < 8.0);
//! # Ok::<(), spark_codec::DecodeError>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod bulk;
pub mod code;
pub mod codecheck;
pub mod compensation;
pub mod container;
pub mod decoder;
pub mod encoder;
pub mod general;
pub mod general_stream;
pub mod stats;
pub mod stream;
pub mod table;

pub use analysis::{analyze, CodeAnalysis};
pub use bulk::{
    decode_bulk, decode_bulk_with, decode_payload, decode_payload_with, BulkCursor, DecodeVariant,
};
pub use code::{decode_value, encode_value, CodeKind, SparkCode, MAX_ENCODING_ERROR};
pub use codecheck::FormatError;
pub use general::{GeneralCode, SparkFormat};
pub use general_stream::{decode_general, encode_general, BeatStream};
pub use compensation::{bias_correction, EncodeMode};
pub use container::{read_container, stream_checksum, write_container, ContainerError, HEADER_LEN};
pub use decoder::{DecodeError, SparkDecoder};
pub use encoder::SparkEncoder;
pub use stats::CodeStats;
pub use stream::{
    decode_stream, decode_stream_reference, encode_tensor, encode_tensor_with, EncodePlan,
    EncodedTensor, NibbleStream,
};
