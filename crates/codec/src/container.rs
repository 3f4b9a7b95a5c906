//! On-disk container for SPARK-encoded tensors.
//!
//! A compact binary format for persisting encoded tensors — what a
//! deployment pipeline would ship to the accelerator: a 32-byte header
//! (magic, version, element and nibble counts, payload checksum) followed
//! by the packed nibble stream. Everything is little-endian and the stream
//! bytes are the exact DRAM image.
//!
//! This is the serialization **trust boundary**: everything in the header
//! is attacker-controlled until proven otherwise, so [`read_container`]
//! cross-checks every field before trusting it — count consistency
//! (`elements <= nibbles <= 2 * elements`, each value being one or two
//! beats), payload length (growing the buffer with the data actually read,
//! never allocating from a declared length), an FNV-1a checksum over the
//! code stream, trailing-byte rejection, and finally a full decode. Any
//! corruption yields a typed [`ContainerError`], never a panic, hang, or
//! silently wrong tensor.

use std::io::{self, Read, Write};

use crate::stats::CodeStats;
use crate::stream::{EncodedTensor, NibbleStream};
use crate::DecodeError;

/// File magic: "SPRK".
pub const MAGIC: [u8; 4] = *b"SPRK";
/// Container format version. Version 2 added the payload checksum; version
/// 1 files (no checksum) are no longer accepted.
pub const VERSION: u32 = 2;
/// Serialized header size in bytes: magic, version, element count, nibble
/// count, payload checksum. The payload starts at this offset.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// FNV-1a 64-bit checksum over the packed code-stream bytes — the payload
/// integrity check of the version-2 container header. Not cryptographic;
/// it detects accidental corruption (bit rot, truncation at a byte
/// boundary, mis-spliced files), which is the container's threat model.
///
/// Delegates to the workspace's one FNV-1a implementation
/// ([`spark_util::fnv`]); `checksum_pins_the_v2_wire_format` pins a golden
/// digest so the v2 wire format cannot drift under refactors there.
pub fn stream_checksum(bytes: &[u8]) -> u64 {
    spark_util::fnv::fnv1a(bytes)
}

/// Errors reading a container.
#[derive(Debug)]
pub enum ContainerError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Wrong magic bytes.
    BadMagic([u8; 4]),
    /// Unsupported version.
    BadVersion(u32),
    /// Header counts inconsistent with the payload.
    Corrupt(String),
    /// Payload bytes do not match the header checksum.
    ChecksumMismatch {
        /// Checksum declared in the header.
        expected: u64,
        /// Checksum computed over the payload actually read.
        found: u64,
    },
    /// The nibble stream itself is malformed.
    Stream(DecodeError),
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::Io(e) => write!(f, "i/o error: {e}"),
            ContainerError::BadMagic(m) => write!(f, "bad magic {m:?}, not a SPARK container"),
            ContainerError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            ContainerError::Corrupt(msg) => write!(f, "corrupt container: {msg}"),
            ContainerError::ChecksumMismatch { expected, found } => write!(
                f,
                "payload checksum mismatch: header says {expected:#018x}, stream hashes to {found:#018x}"
            ),
            ContainerError::Stream(e) => write!(f, "malformed stream: {e}"),
        }
    }
}

impl std::error::Error for ContainerError {}

impl From<io::Error> for ContainerError {
    fn from(e: io::Error) -> Self {
        ContainerError::Io(e)
    }
}

impl From<DecodeError> for ContainerError {
    fn from(e: DecodeError) -> Self {
        ContainerError::Stream(e)
    }
}

/// Writes an encoded tensor to a writer. Returns the bytes written.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_container<W: Write>(tensor: &EncodedTensor, mut out: W) -> Result<usize, io::Error> {
    // The header is serialized into a fixed buffer first so the returned
    // byte count is derived from what was actually written — it cannot
    // drift from the format if a field is ever added or resized.
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&(tensor.elements as u64).to_le_bytes());
    header[16..24].copy_from_slice(&(tensor.stream.len() as u64).to_le_bytes());
    header[24..32].copy_from_slice(&stream_checksum(tensor.stream.as_bytes()).to_le_bytes());
    let payload = tensor.stream.as_bytes();
    out.write_all(&header)?;
    out.write_all(payload)?;
    Ok(header.len() + payload.len())
}

/// Reads an encoded tensor back from a reader, re-deriving the statistics
/// by decoding the stream.
///
/// # Errors
///
/// Returns [`ContainerError`] on I/O failure, bad magic/version,
/// inconsistent or implausible counts, checksum mismatch, trailing bytes,
/// or a malformed nibble stream.
pub fn read_container<R: Read>(mut input: R) -> Result<EncodedTensor, ContainerError> {
    let mut magic = [0u8; 4];
    input.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(ContainerError::BadMagic(magic));
    }
    let mut buf4 = [0u8; 4];
    input.read_exact(&mut buf4)?;
    let version = u32::from_le_bytes(buf4);
    if version != VERSION {
        return Err(ContainerError::BadVersion(version));
    }
    let mut buf8 = [0u8; 8];
    input.read_exact(&mut buf8)?;
    let elements = u64::from_le_bytes(buf8);
    input.read_exact(&mut buf8)?;
    let nibbles = u64::from_le_bytes(buf8);
    input.read_exact(&mut buf8)?;
    let checksum = u64::from_le_bytes(buf8);

    // Count plausibility before anything is allocated from the header:
    // every value is one or two beats, so a header violating
    // `elements <= nibbles <= 2 * elements` cannot describe any stream.
    if nibbles < elements || nibbles > elements.saturating_mul(2) {
        return Err(ContainerError::Corrupt(format!(
            "header says {elements} elements in {nibbles} nibbles, \
             but every value takes one or two nibbles"
        )));
    }
    let elements = elements as usize;
    let nibbles = nibbles as usize;

    // Bounded payload read: `take` caps what we consume and the buffer
    // grows with the bytes actually present, so a forged length field can
    // never force a huge up-front allocation.
    let expected_bytes = nibbles.div_ceil(2);
    let mut bytes = Vec::new();
    input.by_ref().take(expected_bytes as u64).read_to_end(&mut bytes)?;
    if bytes.len() != expected_bytes {
        return Err(ContainerError::Corrupt(format!(
            "payload truncated: header promises {expected_bytes} stream bytes, file holds {}",
            bytes.len()
        )));
    }
    let found = stream_checksum(&bytes);
    if found != checksum {
        return Err(ContainerError::ChecksumMismatch { expected: checksum, found });
    }
    let mut trailer = [0u8; 1];
    if input.read(&mut trailer)? != 0 {
        return Err(ContainerError::Corrupt(
            "trailing bytes after the declared payload".into(),
        ));
    }

    if nibbles % 2 == 1 && bytes[nibbles / 2] & 0x0F != 0 {
        return Err(ContainerError::Corrupt(
            "final padding nibble is not zero".into(),
        ));
    }
    // The validated payload is adopted wholesale — no per-nibble re-push.
    let stream = NibbleStream::from_parts(bytes, nibbles).ok_or_else(|| {
        ContainerError::Corrupt("payload shape disagrees with the nibble count".into())
    })?;
    // Boundary-resolution pass: the exact value count comes out of the
    // identifier bits alone, so the header's element count is verified
    // *before* the output allocation it then sizes.
    let variant = crate::bulk::DecodeVariant::detect();
    let resolved = crate::bulk::resolve_len_with(variant, stream.as_bytes(), stream.len())?;
    if resolved != elements {
        return Err(ContainerError::Corrupt(format!(
            "header says {elements} elements, stream holds {resolved}"
        )));
    }
    let mut decoded = Vec::with_capacity(elements);
    crate::bulk::decode_payload_into(variant, stream.as_bytes(), stream.len(), &mut decoded);
    let mut hist = [0u64; 256];
    for &v in &decoded {
        hist[v as usize] += 1;
    }
    let mut stats = CodeStats::new();
    for (v, &count) in hist.iter().enumerate() {
        // Decoded values are fixed points, so re-encoding them recovers the
        // exact code kinds; errors are all zero by construction.
        stats.record_n(v as u8, crate::encode_value(v as u8), count);
    }
    Ok(EncodedTensor {
        stream,
        elements,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode_tensor;

    fn sample() -> EncodedTensor {
        let values: Vec<u8> = (0..500u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        encode_tensor(&values)
    }

    #[test]
    fn written_byte_count_equals_serialized_length() {
        // The return value is derived from the buffers actually written:
        // header + payload, for every payload parity including empty.
        for values in [&[][..], &[3u8][..], &[200u8][..], &[1u8, 200, 3][..]] {
            let enc = encode_tensor(values);
            let mut buf = Vec::new();
            let written = write_container(&enc, &mut buf).unwrap();
            assert_eq!(written, buf.len(), "values {values:?}");
            assert_eq!(written, HEADER_LEN + enc.stream.byte_len(), "values {values:?}");
        }
    }

    #[test]
    fn round_trip_preserves_stream_and_counts() {
        let enc = sample();
        let mut buf = Vec::new();
        let written = write_container(&enc, &mut buf).unwrap();
        assert_eq!(written, buf.len());
        let back = read_container(buf.as_slice()).unwrap();
        assert_eq!(back.stream, enc.stream);
        assert_eq!(back.elements, enc.elements);
        assert_eq!(back.stats.short_count(), enc.stats.short_count());
        assert_eq!(back.stats.long_count(), enc.stats.long_count());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_container(&sample(), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_container(buf.as_slice()),
            Err(ContainerError::BadMagic(_))
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        write_container(&sample(), &mut buf).unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_container(buf.as_slice()),
            Err(ContainerError::BadVersion(99))
        ));
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut buf = Vec::new();
        write_container(&sample(), &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_container(buf.as_slice()),
            Err(ContainerError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_header_is_io_error() {
        let mut buf = Vec::new();
        write_container(&sample(), &mut buf).unwrap();
        buf.truncate(20); // mid-header
        assert!(matches!(
            read_container(buf.as_slice()),
            Err(ContainerError::Io(_))
        ));
    }

    #[test]
    fn element_count_mismatch_detected() {
        let mut buf = Vec::new();
        write_container(&sample(), &mut buf).unwrap();
        // Tamper with the element count field.
        buf[8] = buf[8].wrapping_add(1);
        assert!(matches!(
            read_container(buf.as_slice()),
            Err(ContainerError::Corrupt(_))
        ));
    }

    #[test]
    fn payload_bit_flip_fails_the_checksum() {
        let mut buf = Vec::new();
        write_container(&sample(), &mut buf).unwrap();
        let payload_start = 32;
        buf[payload_start + 17] ^= 0x40;
        assert!(matches!(
            read_container(buf.as_slice()),
            Err(ContainerError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn forged_checksum_field_is_reported() {
        let mut buf = Vec::new();
        write_container(&sample(), &mut buf).unwrap();
        buf[24] ^= 0xFF; // checksum field, not payload
        match read_container(buf.as_slice()) {
            Err(ContainerError::ChecksumMismatch { expected, found }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        write_container(&sample(), &mut buf).unwrap();
        buf.push(0xAA);
        match read_container(buf.as_slice()) {
            Err(ContainerError::Corrupt(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("expected trailing-byte rejection, got {other:?}"),
        }
    }

    #[test]
    fn implausible_counts_rejected_without_allocation() {
        // elements=1 but nibbles=u64::MAX: must fail the count plausibility
        // check, never attempt a giant allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        match read_container(buf.as_slice()) {
            Err(ContainerError::Corrupt(msg)) => assert!(msg.contains("nibbles"), "{msg}"),
            other => panic!("expected count rejection, got {other:?}"),
        }
    }

    #[test]
    fn huge_but_consistent_counts_fail_on_missing_payload() {
        // A consistent (elements, nibbles) pair with no payload behind it:
        // the bounded read stops at EOF and reports truncation instead of
        // allocating the declared size.
        let n = 1u64 << 40;
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&n.to_le_bytes());
        buf.extend_from_slice(&n.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        match read_container(buf.as_slice()) {
            Err(ContainerError::Corrupt(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn nonzero_padding_nibble_rejected() {
        // Odd nibble count: the final low nibble is padding and must be 0.
        let enc = encode_tensor(&[3u8]); // one short code -> one nibble
        let mut buf = Vec::new();
        write_container(&enc, &mut buf).unwrap();
        let payload_start = 32;
        buf[payload_start] |= 0x05; // dirty the padding nibble
        // Recompute the checksum so only the padding check can fire.
        let sum = stream_checksum(&buf[payload_start..]);
        buf[24..32].copy_from_slice(&sum.to_le_bytes());
        match read_container(buf.as_slice()) {
            Err(ContainerError::Corrupt(msg)) => assert!(msg.contains("padding"), "{msg}"),
            other => panic!("expected padding rejection, got {other:?}"),
        }
    }

    #[test]
    fn empty_tensor_round_trips() {
        let enc = encode_tensor(&[]);
        let mut buf = Vec::new();
        write_container(&enc, &mut buf).unwrap();
        let back = read_container(buf.as_slice()).unwrap();
        assert_eq!(back.elements, 0);
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(stream_checksum(&[1, 2]), stream_checksum(&[2, 1]));
        assert_ne!(stream_checksum(&[0]), stream_checksum(&[]));
    }

    #[test]
    fn checksum_pins_the_v2_wire_format() {
        // Golden digests computed by the original in-crate FNV-1a loop
        // before it was consolidated into spark_util::fnv. A v2 container
        // written before the consolidation must still verify after it.
        assert_eq!(stream_checksum(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(stream_checksum(b"SPRK"), 0x9F55_6424_6C61_1AE5);
        let payload: Vec<u8> = (0u16..256).map(|i| i as u8).collect();
        assert_eq!(stream_checksum(&payload), 0x4242_DC52_49C3_3625);
    }

    #[test]
    fn error_display() {
        assert!(ContainerError::BadVersion(7).to_string().contains('7'));
        assert!(ContainerError::BadMagic(*b"ABCD").to_string().contains("magic"));
        assert!(ContainerError::ChecksumMismatch { expected: 1, found: 2 }
            .to_string()
            .contains("checksum"));
    }
}
