//! On-disk container for SPARK-encoded tensors.
//!
//! A compact binary format for persisting encoded tensors — what a
//! deployment pipeline would ship to the accelerator: a 32-byte header
//! (magic, version, element and nibble counts, payload checksum) followed
//! by the packed nibble stream. Everything is little-endian and the stream
//! bytes are the exact DRAM image.
//!
//! This is the serialization **trust boundary**: everything in the header
//! is attacker-controlled until proven otherwise, so every field is
//! cross-checked before it is trusted — count consistency
//! (`elements <= nibbles <= 2 * elements`, each value being one or two
//! beats), payload length, an FNV-1a checksum over the code stream,
//! trailing-byte rejection, the padding nibble, and an exact-count length
//! scan of the stream. The rules are written once: [`validate`] applies
//! them to an image in memory (the encoded-weight panels), and
//! [`read_container`] to a reader, growing its buffer with the data
//! actually read, never allocating from a declared length. Any corruption
//! yields a typed [`ContainerError`], never a panic, hang, or silently
//! wrong tensor.

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
    let payload = tensor.stream.as_bytes();
    let header = header_bytes(tensor.elements, tensor.stream.len(), payload);
    out.write_all(&header)?;
    out.write_all(payload)?;
    Ok(header.len() + payload.len())
}

/// The header [`write_container`] puts before `payload`, the packed
/// stream of `elements` values in `nibbles` beats — for callers that pack
/// the payload in place and prepend the header themselves.
pub fn header_bytes(elements: usize, nibbles: usize, payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&(elements as u64).to_le_bytes());
    header[16..24].copy_from_slice(&(nibbles as u64).to_le_bytes());
    header[24..32].copy_from_slice(&stream_checksum(payload).to_le_bytes());
    header
}

/// A container header that passed every check the header alone allows:
/// magic, version and count plausibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Number of encoded values.
    pub elements: usize,
    /// Number of 4-bit beats in the payload.
    pub nibbles: usize,
    checksum: u64,
}

impl Header {
    /// Parses the first [`HEADER_LEN`] bytes. Input that ends inside a
    /// field fails with [`ContainerError::Io`] at that field, as a reader
    /// hitting end-of-file there does.
    fn parse(bytes: &[u8]) -> Result<Self, ContainerError> {
        let field = |at: usize, len: usize| {
            bytes
                .get(at..at + len)
                .ok_or_else(|| ContainerError::Io(io::ErrorKind::UnexpectedEof.into()))
        };
        let word = |at: usize| -> Result<u64, ContainerError> {
            Ok(u64::from_le_bytes(
                field(at, 8)?.try_into().expect("8-byte field"),
            ))
        };
        let magic: [u8; 4] = field(0, 4)?.try_into().expect("4-byte field");
        if magic != MAGIC {
            return Err(ContainerError::BadMagic(magic));
        }
        let version = u32::from_le_bytes(field(4, 4)?.try_into().expect("4-byte field"));
        if version != VERSION {
            return Err(ContainerError::BadVersion(version));
        }
        let (elements, nibbles, checksum) = (word(8)?, word(16)?, word(24)?);
        // Every value is one or two beats, so a header violating
        // `elements <= nibbles <= 2 * elements` cannot describe any stream.
        if nibbles < elements || nibbles > elements.saturating_mul(2) {
            return Err(ContainerError::Corrupt(format!(
                "header says {elements} elements in {nibbles} nibbles, \
                 but every value takes one or two nibbles"
            )));
        }
        Ok(Self {
            elements: elements as usize,
            nibbles: nibbles as usize,
            checksum,
        })
    }

    /// Checks the bytes after the header and returns the payload: length,
    /// checksum, no trailing bytes, zero padding nibble, then the length
    /// scan, which a checksum cannot replace (a forged header can carry a
    /// matching checksum over a stream of another count).
    fn check(self, rest: &[u8]) -> Result<&[u8], ContainerError> {
        let expected = self.nibbles.div_ceil(2);
        let Some(payload) = rest.get(..expected) else {
            return Err(ContainerError::Corrupt(format!(
                "payload truncated: header promises {expected} stream bytes, file holds {}",
                rest.len()
            )));
        };
        let found = stream_checksum(payload);
        if found != self.checksum {
            return Err(ContainerError::ChecksumMismatch {
                expected: self.checksum,
                found,
            });
        }
        if rest.len() > expected {
            return Err(ContainerError::Corrupt(
                "trailing bytes after the declared payload".into(),
            ));
        }
        if self.nibbles % 2 == 1 && payload[self.nibbles / 2] & 0x0F != 0 {
            return Err(ContainerError::Corrupt(
                "final padding nibble is not zero".into(),
            ));
        }
        let variant = crate::bulk::CodecVariant::detect();
        let resolved = crate::bulk::resolve_len_with(variant, payload, self.nibbles)?;
        if resolved != self.elements {
            return Err(ContainerError::Corrupt(format!(
                "header says {} elements, stream holds {resolved}",
                self.elements
            )));
        }
        Ok(payload)
    }
}

/// Validates a container image held in memory and returns its header and
/// payload — the container's trust rules, written once, which
/// [`read_container`] applies too.
///
/// # Errors
///
/// The [`ContainerError`] [`read_container`] returns for the same bytes.
pub fn validate(container: &[u8]) -> Result<(Header, &[u8]), ContainerError> {
    let header = Header::parse(container)?;
    Ok((header, header.check(&container[HEADER_LEN..])?))
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
    let mut bytes = Vec::with_capacity(HEADER_LEN);
    input
        .by_ref()
        .take(HEADER_LEN as u64)
        .read_to_end(&mut bytes)?;
    let header = Header::parse(&bytes)?;
    let Header {
        elements, nibbles, ..
    } = header;
    // Bounded payload read: `take` stops one byte past the declared
    // payload (enough to see trailing bytes) and the buffer grows with the
    // bytes actually present, never with a forged length field.
    bytes.clear();
    input
        .take(nibbles.div_ceil(2) as u64 + 1)
        .read_to_end(&mut bytes)?;
    header.check(&bytes)?;
    // The validated payload is adopted wholesale — no per-nibble re-push.
    let stream = NibbleStream::from_parts(bytes, nibbles).ok_or_else(|| {
        ContainerError::Corrupt("payload shape disagrees with the nibble count".into())
    })?;
    let mut decoded = vec![0u8; elements];
    let variant = crate::bulk::CodecVariant::detect();
    crate::bulk::decode_payload_to(variant, stream.as_bytes(), stream.len(), &mut decoded);
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
    fn validate_and_read_container_agree_on_every_cut_and_bit_flip() {
        let mut buf = Vec::new();
        write_container(&sample(), &mut buf).unwrap();
        let (header, payload) = validate(&buf).unwrap();
        let back = read_container(buf.as_slice()).unwrap();
        assert_eq!((header.elements, header.nibbles), (back.elements, back.stream.len()));
        assert_eq!(payload, back.stream.as_bytes());
        let mut mutants: Vec<Vec<u8>> = (0..buf.len()).map(|cut| buf[..cut].to_vec()).collect();
        for bit in 0..buf.len() * 8 {
            let mut m = buf.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            mutants.push(m);
        }
        let mut trailing = buf.clone();
        trailing.push(0);
        mutants.push(trailing);
        for m in &mutants {
            let (a, b) = (validate(m).unwrap_err(), read_container(m.as_slice()).unwrap_err());
            assert_eq!(
                std::mem::discriminant(&a),
                std::mem::discriminant(&b),
                "{} bytes: validate says {a:?}, read_container says {b:?}",
                m.len()
            );
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
