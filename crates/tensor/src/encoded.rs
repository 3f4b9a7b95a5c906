//! SPARK-encoded weight matrices in GEMM panel order.
//!
//! [`EncodedMatrix`] is the *native serving format* for weights: the
//! matrix lives in memory as container-v2 nibble streams
//! ([`spark_codec::write_container`] images) plus a bit-packed sign plane
//! and a per-tensor [`PrecisionProfile`], never as dense `f32`. The fused
//! GEMM path ([`crate::gemm::gemm_encoded_with`]) decodes each `KC x NR`
//! block of a panel on the fly inside the cache-blocked loop.
//!
//! # Panel-major element order
//!
//! SPARK codes are variable-length (one or two nibbles), so a stream has
//! no random access: the only way to reach element `e` is to decode
//! elements `0..e`. The encoder therefore serializes the logical `k x n`
//! operand in exactly the order the GEMM packer consumes it — one stream
//! per `NR`-wide column panel, elements depth-major within the panel
//! (`(kk, lane)` for `kk` in `0..k`, `lane` in `0..w`) — so the fused
//! packer is a single forward pass per panel. The sign plane uses the same
//! order, one bit per element.
//!
//! # Value reconstruction
//!
//! Dequantization mirrors `spark-quant`'s `MagnitudeCodes::dequantize`
//! bit-for-bit: `step = scale / qmax`, `value = code as f32 * step`,
//! negated where the sign bit is set. A code is one byte, so each matrix
//! evaluates that expression once per possible code at construction and
//! keeps the 256 results as bit patterns; a value is then
//! `table[code] ^ (sign << 31)`. Flipping the sign bit *is* `f32`
//! negation (Rust's `-x` lowers to `fneg`, which touches only the sign
//! bit, NaN payloads included), so the table read is the same expression
//! to the bit. Both [`EncodedMatrix::decode`] (the decode-then-GEMM
//! reference path) and the fused panel decoder dequantize through the
//! same table, which is half of the fused path's bit-identity argument
//! (the other half is the GEMM schedule itself, see [`crate::gemm`]).
//!
//! # Trust boundary
//!
//! An [`EncodedMatrix`] is immutable and its fields are private, so its
//! bytes are validated exactly once, when the matrix is built, and
//! trusted from then on. [`EncodedMatrix::from_raw_parts`] is the only
//! door for untrusted bytes (store cold loads, the fault plane, tests): it
//! checks every panel's header — magic, version, count plausibility, the
//! element count the layout needs, payload length, FNV-1a checksum,
//! padding nibble — plus the sign-plane length, and runs the bit-parallel
//! length scan ([`spark_codec::bulk::resolve_len_with`]) so a forged but
//! self-consistent header over a mismatched stream is caught too. Any
//! violation is a typed [`EncodedError`], never a panic. The containers
//! [`EncodedMatrix::encode`] writes are valid by construction (debug
//! builds re-check them with the same validator). The fused GEMM's
//! [`PanelDecoder`] therefore only decodes; [`EncodedMatrix::decode`]
//! still goes through the full [`spark_codec::read_container`] path as an
//! independent oracle.

use crate::gemm::NR;
use crate::{stats, ShapeError, Tensor};
use spark_codec::{
    stream_checksum, ContainerError, DecodeError, EncodePlan, EncodeMode, HEADER_LEN,
};

/// Errors from encoding, decoding, or running GEMM over an
/// [`EncodedMatrix`].
#[derive(Debug)]
pub enum EncodedError {
    /// A panel container failed validation (header, checksum, payload).
    Container(ContainerError),
    /// A panel nibble stream is malformed.
    Decode(DecodeError),
    /// Operand shapes are inconsistent.
    Shape(ShapeError),
    /// The source tensor holds NaN or infinite values, which the
    /// magnitude quantization cannot represent.
    NonFinite,
}

impl std::fmt::Display for EncodedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodedError::Container(e) => write!(f, "panel container: {e}"),
            EncodedError::Decode(e) => write!(f, "panel stream: {e}"),
            EncodedError::Shape(e) => write!(f, "shape: {e}"),
            EncodedError::NonFinite => write!(f, "non-finite value in source tensor"),
        }
    }
}

impl std::error::Error for EncodedError {}

impl From<ContainerError> for EncodedError {
    fn from(e: ContainerError) -> Self {
        EncodedError::Container(e)
    }
}

impl From<DecodeError> for EncodedError {
    fn from(e: DecodeError) -> Self {
        EncodedError::Decode(e)
    }
}

impl From<ShapeError> for EncodedError {
    fn from(e: ShapeError) -> Self {
        EncodedError::Shape(e)
    }
}

/// Per-tensor dequantization metadata: the magnitude represented by the
/// full-scale code and the code bit-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionProfile {
    /// Magnitude of the full-scale code (the per-tensor `alpha`).
    pub scale: f32,
    /// Code bit-width (the SPARK codec consumes 8-bit code words).
    pub bits: u8,
}

impl PrecisionProfile {
    /// The largest representable code as `f32` (`2^bits - 1`).
    pub fn qmax(self) -> f32 {
        ((1u64 << self.bits) - 1) as f32
    }

    /// The dequantization step `scale / qmax` — the exact expression
    /// `spark-quant` uses, evaluated once so every element sees the same
    /// rounded step.
    pub fn step(self) -> f32 {
        self.scale / self.qmax()
    }
}

/// A weight matrix held as SPARK container-v2 nibble streams in GEMM
/// panel order, plus the sign plane and [`PrecisionProfile`] needed to
/// reconstruct `f32` values.
///
/// Logically a `k x n` GEMM `B` operand. Build one with
/// [`EncodedMatrix::encode`] (from a row-major `k x n` tensor) or
/// [`EncodedMatrix::encode_transposed`] (from `n x k`, fusing the
/// transpose into the panel serialization), multiply with
/// [`crate::ops::matmul_encoded`] and friends, and reconstruct the dense
/// tensor with [`EncodedMatrix::decode`].
#[derive(Debug, Clone)]
pub struct EncodedMatrix {
    k: usize,
    n: usize,
    profile: PrecisionProfile,
    /// One serialized container per `NR`-wide column panel.
    panels: Vec<Vec<u8>>,
    /// Bit-packed signs per panel, same element order as the stream.
    signs: Vec<Vec<u8>>,
    /// Aggregate code statistics (empty for [`Self::from_raw_parts`]).
    stats: spark_codec::CodeStats,
    /// `(code as f32 * profile.step()).to_bits()` for every code.
    dequant: Box<DequantTable>,
}

/// One dequantized magnitude per 8-bit code, as `f32` bit patterns.
type DequantTable = [u32; 256];

fn dequant_table(profile: PrecisionProfile) -> Box<DequantTable> {
    let step = profile.step();
    // Bit-for-bit the MagnitudeCodes::dequantize expression.
    Box::new(std::array::from_fn(|c| (c as f32 * step).to_bits()))
}

/// Dequantizes the run of elements `e0..e0 + out.len()` of a panel: the
/// codes and the panel's sign plane in, values out. A full-width row of a
/// panel starts on a sign byte boundary (`e0` is a multiple of `NR`), so
/// its signs are read as one `u16` and the loop has no branch or variable
/// index; any other run takes the per-element loop through the same
/// table.
#[inline]
fn dequant_run(table: &DequantTable, codes: &[u8], signs: &[u8], e0: usize, out: &mut [f32]) {
    debug_assert_eq!(codes.len(), out.len());
    if let (Ok(out), Ok(codes)) = (
        <&mut [f32; NR]>::try_from(&mut *out),
        <&[u8; NR]>::try_from(codes),
    ) {
        if e0.is_multiple_of(8) {
            let bits = u16::from_le_bytes([signs[e0 >> 3], signs[(e0 >> 3) + 1]]) as u32;
            for (l, (slot, &code)) in out.iter_mut().zip(codes).enumerate() {
                *slot = f32::from_bits(table[code as usize] ^ ((bits >> l) & 1) << 31);
            }
            return;
        }
    }
    for (l, (slot, &code)) in out.iter_mut().zip(codes).enumerate() {
        let e = e0 + l;
        let sign = u32::from(signs[e >> 3] >> (e & 7) & 1);
        *slot = f32::from_bits(table[code as usize] ^ sign << 31);
    }
}

impl EncodedMatrix {
    /// Encodes a row-major `k x n` tensor (matrix interpretation) into
    /// panel-major SPARK streams.
    ///
    /// # Errors
    ///
    /// [`EncodedError::NonFinite`] for NaN/infinite input.
    pub fn encode(t: &Tensor) -> Result<Self, EncodedError> {
        let (k, n) = t.shape().as_matrix()?;
        let src = t.as_slice();
        Self::encode_panels(t, k, n, |kk, j| src[kk * n + j])
    }

    /// Encodes an `n x k` row-major tensor as the logical `k x n` operand
    /// `tᵀ` — the blocked transpose is fused into the panel serialization,
    /// so `matmul_nt`-shaped weights encode straight into the same panel
    /// format with no materialized transpose.
    ///
    /// # Errors
    ///
    /// [`EncodedError::NonFinite`] for NaN/infinite input.
    pub fn encode_transposed(t: &Tensor) -> Result<Self, EncodedError> {
        let (n, k) = t.shape().as_matrix()?;
        let src = t.as_slice();
        Self::encode_panels(t, k, n, |kk, j| src[j * k + kk])
    }

    fn encode_panels(
        t: &Tensor,
        k: usize,
        n: usize,
        get: impl Fn(usize, usize) -> f32,
    ) -> Result<Self, EncodedError> {
        if t.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(EncodedError::NonFinite);
        }
        // The exact front-end `spark-quant`'s MagnitudeQuantizer applies:
        // per-tensor scale from the absolute maximum (1.0 for an all-zero
        // tensor), magnitudes rounded into 0..=qmax, signs kept aside.
        let alpha = stats::abs_max(t);
        let alpha = if alpha == 0.0 { 1.0 } else { alpha };
        let profile = PrecisionProfile { scale: alpha, bits: 8 };
        let qmax = profile.qmax();
        let plan = EncodePlan::cached(EncodeMode::Compensated);
        let panel_count = n.div_ceil(NR);
        let mut panels = Vec::with_capacity(panel_count);
        let mut signs = Vec::with_capacity(panel_count);
        let mut stats = spark_codec::CodeStats::new();
        let mut codes = Vec::new();
        for p in 0..panel_count {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            codes.clear();
            codes.reserve(k * w);
            let mut sign_bits = vec![0u8; (k * w).div_ceil(8)];
            for kk in 0..k {
                for l in 0..w {
                    let x = get(kk, j0 + l);
                    let e = codes.len();
                    if x < 0.0 {
                        sign_bits[e >> 3] |= 1 << (e & 7);
                    }
                    codes.push((x.abs() / alpha * qmax).round().min(qmax) as u8);
                }
            }
            let enc = plan.encode(&codes);
            stats.merge(&enc.stats);
            let mut bytes = Vec::with_capacity(HEADER_LEN + enc.stream.byte_len());
            // Infallible: writing into a Vec cannot fail.
            spark_codec::write_container(&enc, &mut bytes)
                .map_err(|e| EncodedError::Container(ContainerError::Io(e)))?;
            panels.push(bytes);
            signs.push(sign_bits);
        }
        let em = Self {
            k,
            n,
            profile,
            panels,
            signs,
            stats,
            dequant: dequant_table(profile),
        };
        debug_assert!(em.validate().is_ok(), "encode wrote an invalid panel");
        Ok(em)
    }

    /// Reassembles a matrix from raw parts — the zero-copy load path, and
    /// the door the fault plane walks corrupted bytes through. This is the
    /// trust boundary: every panel container and sign plane is validated
    /// here, once, so the fused GEMM never re-checks them.
    ///
    /// # Errors
    ///
    /// [`EncodedError::Shape`] when the panel or sign-plane layout does
    /// not match the dimensions; [`EncodedError::Container`] for a bad
    /// header, length, checksum or padding nibble, or an element count
    /// that disagrees with the layout or with the stream itself;
    /// [`EncodedError::Decode`] for a stream that ends inside a long code.
    pub fn from_raw_parts(
        k: usize,
        n: usize,
        profile: PrecisionProfile,
        panels: Vec<Vec<u8>>,
        signs: Vec<Vec<u8>>,
    ) -> Result<Self, EncodedError> {
        let panel_count = n.div_ceil(NR);
        if panels.len() != panel_count || signs.len() != panel_count {
            return Err(EncodedError::Shape(ShapeError::new(format!(
                "raw parts hold {} panels / {} sign planes, dims {k}x{n} need {panel_count}",
                panels.len(),
                signs.len(),
            ))));
        }
        let em = Self {
            k,
            n,
            profile,
            panels,
            signs,
            stats: spark_codec::CodeStats::new(),
            dequant: dequant_table(profile),
        };
        em.validate()?;
        Ok(em)
    }

    /// Checks every panel's sign-plane length and container (see
    /// [`validate_container`]) against the `k x n` layout. Requires one
    /// container and one sign plane per panel.
    fn validate(&self) -> Result<(), EncodedError> {
        for (p, (container, signs)) in self.panels.iter().zip(&self.signs).enumerate() {
            let elements = self.k * self.panel_width(p);
            if signs.len() != elements.div_ceil(8) {
                return Err(EncodedError::Shape(ShapeError::new(format!(
                    "panel {p} sign plane holds {} bytes, {elements} elements need {}",
                    signs.len(),
                    elements.div_ceil(8),
                ))));
            }
            validate_container(container, elements)?;
        }
        Ok(())
    }

    /// Depth (rows) of the logical `k x n` operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the logical `k x n` operand.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The dequantization profile.
    pub fn profile(&self) -> PrecisionProfile {
        self.profile
    }

    /// Number of `NR`-wide column panels.
    pub fn panels(&self) -> usize {
        self.panels.len()
    }

    /// Width of panel `p` (always `NR` except a ragged last panel).
    pub fn panel_width(&self, p: usize) -> usize {
        NR.min(self.n - p * NR)
    }

    /// The serialized container bytes of panel `p`.
    pub fn panel_container(&self, p: usize) -> &[u8] {
        &self.panels[p]
    }

    /// The bit-packed sign plane of panel `p`.
    pub fn panel_signs(&self, p: usize) -> &[u8] {
        &self.signs[p]
    }

    /// Aggregate code statistics from encoding (empty when the matrix was
    /// rebuilt with [`Self::from_raw_parts`]).
    pub fn stats(&self) -> &spark_codec::CodeStats {
        &self.stats
    }

    /// Bytes this matrix actually occupies resident in memory: container
    /// images (headers + packed nibble payloads) plus the sign planes.
    pub fn resident_bytes(&self) -> usize {
        self.panels.iter().map(Vec::len).sum::<usize>()
            + self.signs.iter().map(Vec::len).sum::<usize>()
    }

    /// Bytes the same matrix would occupy as dense `f32`.
    pub fn dense_bytes(&self) -> usize {
        4 * self.k * self.n
    }

    /// `resident_bytes / dense_bytes` (0 for an empty matrix).
    pub fn footprint_ratio(&self) -> f64 {
        if self.k == 0 || self.n == 0 {
            return 0.0;
        }
        self.resident_bytes() as f64 / self.dense_bytes() as f64
    }

    /// Bulk-decodes panel `p` for the fused GEMM packer. The container was
    /// validated when the matrix was built, so this cannot fail.
    pub(crate) fn panel_decoder(&self, p: usize) -> PanelDecoder<'_> {
        PanelDecoder::new(
            &self.panels[p],
            &self.signs[p],
            self.k * self.panel_width(p),
            &self.dequant,
        )
    }

    /// Decodes the matrix back to a dense row-major `k x n` tensor — the
    /// decode-then-GEMM reference path the fused kernels are proven
    /// bit-identical against. Every panel goes through the full
    /// [`spark_codec::read_container`] validation.
    ///
    /// # Errors
    ///
    /// Typed [`EncodedError`] for any corrupted or inconsistent panel.
    pub fn decode(&self) -> Result<Tensor, EncodedError> {
        let mut out = vec![0.0f32; self.k * self.n];
        for p in 0..self.panels() {
            let j0 = p * NR;
            let w = self.panel_width(p);
            let et = spark_codec::read_container(self.panels[p].as_slice())?;
            if et.elements != self.k * w {
                return Err(EncodedError::Container(ContainerError::Corrupt(format!(
                    "panel {p} holds {} elements, dims {}x{w} need {}",
                    et.elements,
                    self.k,
                    self.k * w,
                ))));
            }
            let codes = spark_codec::decode_stream(&et.stream)?;
            // Panel rows are matrix rows: depth `kk` holds elements
            // `kk * w..(kk + 1) * w`, columns `j0..j0 + w`.
            for (kk, row) in codes.chunks_exact(w).enumerate() {
                let dst = &mut out[kk * self.n + j0..kk * self.n + j0 + w];
                dequant_run(&self.dequant, row, &self.signs[p], kk * w, dst);
            }
        }
        Tensor::from_vec(out, &[self.k, self.n]).map_err(EncodedError::Shape)
    }
}

/// Reads one panel container's header and checks it against the layout:
/// magic, version, count plausibility, the `expected` element count,
/// payload length, FNV-1a checksum and padding nibble. It then runs the
/// bit-parallel length scan, which a checksum cannot replace: a raw-parts
/// caller can forge a consistent header (checksum included) over a stream
/// that decodes to a different count or ends inside a long code.
fn validate_container(container: &[u8], expected: usize) -> Result<(), EncodedError> {
    if container.len() < HEADER_LEN {
        return Err(ContainerError::Corrupt(format!(
            "container holds {} bytes, the header alone is {HEADER_LEN}",
            container.len()
        ))
        .into());
    }
    let (header, payload) = container.split_at(HEADER_LEN);
    if header[0..4] != spark_codec::container::MAGIC {
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&header[0..4]);
        return Err(ContainerError::BadMagic(magic).into());
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4-byte slice"));
    if version != spark_codec::container::VERSION {
        return Err(ContainerError::BadVersion(version).into());
    }
    let elements = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
    let nibbles = u64::from_le_bytes(header[16..24].try_into().expect("8-byte slice"));
    let checksum = u64::from_le_bytes(header[24..32].try_into().expect("8-byte slice"));
    if nibbles < elements || nibbles > elements.saturating_mul(2) {
        return Err(ContainerError::Corrupt(format!(
            "header says {elements} elements in {nibbles} nibbles, \
             but every value takes one or two nibbles"
        ))
        .into());
    }
    let elements = elements as usize;
    let nibbles = nibbles as usize;
    if elements != expected {
        return Err(ContainerError::Corrupt(format!(
            "panel header says {elements} elements, the matrix layout needs {expected}"
        ))
        .into());
    }
    if payload.len() != nibbles.div_ceil(2) {
        return Err(ContainerError::Corrupt(format!(
            "panel payload holds {} bytes, header promises {}",
            payload.len(),
            nibbles.div_ceil(2)
        ))
        .into());
    }
    let found = stream_checksum(payload);
    if found != checksum {
        return Err(ContainerError::ChecksumMismatch { expected: checksum, found }.into());
    }
    if nibbles % 2 == 1 && payload[nibbles / 2] & 0x0F != 0 {
        return Err(ContainerError::Corrupt("final padding nibble is not zero".into()).into());
    }
    let variant = spark_codec::DecodeVariant::detect();
    let resolved = spark_codec::bulk::resolve_len_with(variant, payload, nibbles)?;
    if resolved < elements {
        return Err(ContainerError::Corrupt(format!(
            "stream exhausted after {resolved} of {elements} elements"
        ))
        .into());
    }
    if resolved > elements {
        return Err(ContainerError::Corrupt(format!(
            "stream holds more than the promised {elements} elements"
        ))
        .into());
    }
    Ok(())
}

/// Decoder over one validated panel: bulk-decodes the whole code stream
/// through the bit-parallel engine ([`spark_codec::bulk`]), then serves
/// depth-blocks of dequantized values to the fused packer as pure table
/// reads. The upfront code buffer is one byte per element — for a
/// `KC x NR` panel group a few KiB, dwarfed by the `f32` panel buffers the
/// GEMM already holds — and it removes the per-nibble FSM step from the
/// KC-loop entirely.
pub(crate) struct PanelDecoder<'a> {
    signs: &'a [u8],
    codes: Vec<u8>,
    elements: usize,
    table: &'a DequantTable,
    emitted: usize,
}

impl<'a> PanelDecoder<'a> {
    /// Decodes a container that [`validate_container`] accepted for
    /// `elements` values and positions the decoder at the first element.
    pub(crate) fn new(
        container: &'a [u8],
        signs: &'a [u8],
        elements: usize,
        table: &'a DequantTable,
    ) -> Self {
        let (header, payload) = container.split_at(HEADER_LEN);
        let nibbles = u64::from_le_bytes(header[16..24].try_into().expect("8-byte slice")) as usize;
        let mut codes = Vec::with_capacity(elements);
        let variant = spark_codec::DecodeVariant::detect();
        spark_codec::bulk::decode_payload_into(variant, payload, nibbles, &mut codes);
        debug_assert_eq!(codes.len(), elements, "panel was not validated");
        Self {
            signs,
            codes,
            elements,
            table,
            emitted: 0,
        }
    }

    /// Decodes the next `rows` depth-rows of a `w`-wide panel into `dst`,
    /// one `NR`-strided row per depth step (`dst[r * NR + lane]`); lanes
    /// `w..NR` are left untouched (the caller pre-zeroes them).
    ///
    /// # Errors
    ///
    /// [`EncodedError::Container`] when the caller asks for more elements
    /// than the panel holds (a packer-layout bug, kept typed).
    pub(crate) fn decode_rows(
        &mut self,
        dst: &mut [f32],
        rows: usize,
        w: usize,
    ) -> Result<(), EncodedError> {
        debug_assert!(dst.len() >= rows * NR || rows == 0);
        if rows * w > self.elements - self.emitted {
            return Err(ContainerError::Corrupt(format!(
                "stream holds more than the promised {} elements",
                self.elements
            ))
            .into());
        }
        for r in 0..rows {
            let e0 = self.emitted + r * w;
            let row = &mut dst[r * NR..r * NR + w];
            dequant_run(self.table, &self.codes[e0..e0 + w], self.signs, e0, row);
        }
        self.emitted += rows * w;
        Ok(())
    }

    /// Asserts the panel is fully consumed: every promised element served
    /// to the packer.
    ///
    /// # Errors
    ///
    /// [`EncodedError::Container`] when elements remain.
    pub(crate) fn finish(&self) -> Result<(), EncodedError> {
        if self.emitted != self.elements {
            return Err(ContainerError::Corrupt(format!(
                "panel not fully consumed: {}/{} elements",
                self.emitted, self.elements
            ))
            .into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_util::Rng;

    fn random_matrix(k: usize, n: usize, seed: u64) -> Tensor {
        let mut rng = Rng::seed_from_u64(seed);
        Tensor::from_fn(&[k, n], |_| {
            if rng.gen_f64() < 0.15 {
                0.0
            } else {
                (rng.gen_f64() as f32) * 2.0 - 1.0
            }
        })
    }

    #[test]
    fn encode_decode_round_trip_is_the_quantized_reconstruction() {
        // decode() must equal quantize -> SPARK round-trip -> dequantize,
        // element for element, in the row-major layout.
        let t = random_matrix(9, 21, 3);
        let em = EncodedMatrix::encode(&t).unwrap();
        let back = em.decode().unwrap();
        assert_eq!(back.dims(), &[9, 21]);
        let alpha = stats::abs_max(&t);
        let step = alpha / 255.0;
        for (i, (&x, &y)) in t.as_slice().iter().zip(back.as_slice()).enumerate() {
            let code = (x.abs() / alpha * 255.0).round().min(255.0) as u8;
            let rt = spark_codec::encode_value(code).decode();
            let want = if x < 0.0 { -(rt as f32 * step) } else { rt as f32 * step };
            assert_eq!(y.to_bits(), want.to_bits(), "element {i}: {y} vs {want}");
        }
    }

    #[test]
    fn encode_transposed_matches_encode_of_transpose() {
        let t = random_matrix(13, 7, 11);
        let tt = crate::ops::transpose(&t).unwrap();
        let a = EncodedMatrix::encode(&t).unwrap();
        let b = EncodedMatrix::encode_transposed(&tt).unwrap();
        assert_eq!(a.k(), b.k());
        assert_eq!(a.n(), b.n());
        for p in 0..a.panels() {
            assert_eq!(a.panel_container(p), b.panel_container(p), "panel {p}");
            assert_eq!(a.panel_signs(p), b.panel_signs(p), "signs {p}");
        }
        assert_eq!(
            a.decode().unwrap().as_slice(),
            b.decode().unwrap().as_slice()
        );
    }

    #[test]
    fn footprint_beats_dense_f32() {
        let t = random_matrix(64, 64, 5);
        let em = EncodedMatrix::encode(&t).unwrap();
        // Worst case is ~1.16 bytes/element (all long codes + signs); any
        // real tensor sits far under the 4 bytes/element dense baseline.
        assert!(em.resident_bytes() < em.dense_bytes() / 2);
        assert!(em.footprint_ratio() < 0.5);
    }

    #[test]
    fn zero_and_degenerate_matrices() {
        for (k, n) in [(0, 5), (5, 0), (0, 0), (1, 1), (3, 16), (2, 17)] {
            let t = Tensor::zeros(&[k, n]);
            let em = EncodedMatrix::encode(&t).unwrap();
            let back = em.decode().unwrap();
            assert_eq!(back.dims(), &[k, n]);
            assert!(back.as_slice().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn non_finite_rejected() {
        let t = Tensor::from_vec(vec![1.0, f32::NAN], &[1, 2]).unwrap();
        assert!(matches!(
            EncodedMatrix::encode(&t),
            Err(EncodedError::NonFinite)
        ));
    }

    #[test]
    fn raw_parts_round_trip_and_layout_checks() {
        let t = random_matrix(6, 18, 9);
        let em = EncodedMatrix::encode(&t).unwrap();
        let want = em.decode().unwrap();
        let panels: Vec<Vec<u8>> = (0..em.panels()).map(|p| em.panel_container(p).to_vec()).collect();
        let signs: Vec<Vec<u8>> = (0..em.panels()).map(|p| em.panel_signs(p).to_vec()).collect();
        let rebuilt =
            EncodedMatrix::from_raw_parts(6, 18, em.profile(), panels.clone(), signs.clone())
                .unwrap();
        assert_eq!(rebuilt.decode().unwrap().as_slice(), want.as_slice());
        // Wrong panel count.
        assert!(EncodedMatrix::from_raw_parts(6, 18, em.profile(), panels[..1].to_vec(), signs.clone()).is_err());
        // Wrong sign plane length.
        let mut bad_signs = signs;
        bad_signs[0].pop();
        assert!(EncodedMatrix::from_raw_parts(6, 18, em.profile(), panels, bad_signs).is_err());
    }

    /// The panels and sign planes of `em`, as owned raw parts.
    fn raw_parts(em: &EncodedMatrix) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        (
            (0..em.panels()).map(|p| em.panel_container(p).to_vec()).collect(),
            (0..em.panels()).map(|p| em.panel_signs(p).to_vec()).collect(),
        )
    }

    #[test]
    fn corrupted_container_bytes_fail_typed_at_construction() {
        let t = random_matrix(8, 20, 17);
        let em = EncodedMatrix::encode(&t).unwrap();
        for (offset, label) in [(0usize, "magic"), (4, "version"), (9, "elements"), (40, "payload")] {
            let (mut panels, signs) = raw_parts(&em);
            panels[1][offset] ^= 0x10;
            let got = EncodedMatrix::from_raw_parts(8, 20, em.profile(), panels, signs);
            assert!(
                matches!(got, Err(EncodedError::Container(_))),
                "from_raw_parts accepted corrupted {label}: {got:?}"
            );
        }
    }

    /// Deep enough that a panel payload spans many bulk-decode blocks.
    const DEEP_K: usize = 67;

    #[test]
    fn every_header_bit_and_sampled_payload_bits_are_rejected_at_construction() {
        let t = random_matrix(DEEP_K, 20, 23);
        let em = EncodedMatrix::encode(&t).unwrap();
        let mut rng = Rng::seed_from_u64(0xB17F_11B5);
        let payload_bits = (em.panel_container(0).len() - HEADER_LEN) * 8;
        let sampled = (0..256).map(|_| HEADER_LEN * 8 + rng.gen_range(0..payload_bits));
        for bit in (0..HEADER_LEN * 8).chain(sampled) {
            let (mut panels, signs) = raw_parts(&em);
            panels[0][bit / 8] ^= 1 << (bit % 8);
            let got = EncodedMatrix::from_raw_parts(DEEP_K, 20, em.profile(), panels, signs);
            assert!(
                matches!(got, Err(EncodedError::Container(_))),
                "bit {bit} flip accepted: {got:?}"
            );
        }
    }

    /// A container whose header is self-consistent — right magic, version
    /// and element count, plausible nibble count, matching payload length
    /// and checksum, zero padding — over an arbitrary `payload`.
    fn forged_container(elements: usize, nibbles: usize, payload: Vec<u8>) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&spark_codec::container::MAGIC);
        bytes.extend_from_slice(&spark_codec::container::VERSION.to_le_bytes());
        bytes.extend_from_slice(&(elements as u64).to_le_bytes());
        bytes.extend_from_slice(&(nibbles as u64).to_le_bytes());
        bytes.extend_from_slice(&stream_checksum(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes
    }

    #[test]
    fn forged_header_over_mismatched_stream_is_rejected_at_construction() {
        let (k, n) = (DEEP_K, 20);
        let em = EncodedMatrix::encode(&random_matrix(k, n, 29)).unwrap();
        let e = k * NR;
        // A nibble with its high bit set opens a long code; any other
        // nibble is a whole short code.
        let forgeries = [
            // e + 1 short codes: more values than the header promises.
            ("over", e + 1, vec![0x00; (e + 1).div_ceil(2)]),
            // (e - 1) long codes: fewer values than the header promises.
            ("under", 2 * e - 2, vec![0x80; e - 1]),
            // Ends on an opened long code (odd count, zero padding).
            ("truncated", e + 1, {
                let mut b = vec![0x00; (e + 1).div_ceil(2)];
                *b.last_mut().unwrap() = 0x80;
                b
            }),
        ];
        for (label, nibbles, payload) in forgeries {
            assert!(nibbles >= e && nibbles <= 2 * e, "{label}: implausible forgery");
            let (mut panels, signs) = raw_parts(&em);
            panels[0] = forged_container(e, nibbles, payload);
            // Only the length scan can reject these: every error it
            // returns names the stream, no header check's does.
            let got = EncodedMatrix::from_raw_parts(k, n, em.profile(), panels, signs);
            let typed = match (&got, label) {
                (Err(EncodedError::Decode(DecodeError::TruncatedLongCode)), "truncated") => true,
                (Err(EncodedError::Container(ContainerError::Corrupt(msg))), _) => {
                    msg.contains("stream")
                }
                _ => false,
            };
            assert!(typed, "{label}: forged stream not rejected by the length scan: {got:?}");
        }
    }

    /// `code as f32 * step`, negated when `neg` — the scalar expression
    /// the dequant table must reproduce to the bit.
    fn scalar_value(code: u8, neg: bool, step: f32) -> u32 {
        let mag = code as f32 * step;
        if neg { -mag } else { mag }.to_bits()
    }

    /// Profiles at the edges of `f32`: zero scale, a subnormal step, a
    /// step whose high codes overflow to `inf`, NaN scales, and an
    /// ordinary one.
    fn edge_profiles() -> Vec<PrecisionProfile> {
        vec![
            PrecisionProfile {
                scale: 0.0,
                bits: 8,
            },
            PrecisionProfile {
                scale: f32::MIN_POSITIVE,
                bits: 8,
            },
            PrecisionProfile {
                scale: f32::MAX,
                bits: 4,
            },
            PrecisionProfile {
                scale: f32::NAN,
                bits: 8,
            },
            PrecisionProfile {
                scale: f32::from_bits(0xFFC0_1234),
                bits: 8,
            },
            PrecisionProfile {
                scale: 0.731,
                bits: 8,
            },
        ]
    }

    #[test]
    fn dequant_table_is_the_scalar_expression_for_every_code_and_sign() {
        for profile in edge_profiles() {
            let table = dequant_table(profile);
            let step = profile.step();
            let codes: Vec<u8> = (0..=255).collect();
            // Sign planes for "all clear", "all set" and an alternating
            // pattern, so every code is seen with both signs.
            for plane in [0x00u8, 0xFF, 0x5A] {
                let signs = vec![plane; 256 / 8];
                let neg = |e: usize| signs[e >> 3] >> (e & 7) & 1 == 1;
                // Full-width aligned rows: the u16 fast path.
                for e0 in (0..256).step_by(NR) {
                    let mut out = [0.0f32; NR];
                    dequant_run(&table, &codes[e0..e0 + NR], &signs, e0, &mut out);
                    for (l, v) in out.iter().enumerate() {
                        let e = e0 + l;
                        let want = scalar_value(codes[e], neg(e), step);
                        assert_eq!(v.to_bits(), want, "{profile:?} code {e} fast path");
                    }
                }
                // Ragged runs: the per-element fallback.
                let mut e0 = 0;
                for w in [1usize, 15, 17, 3].iter().cycle() {
                    if e0 + w > 256 {
                        break;
                    }
                    let mut out = vec![0.0f32; *w];
                    dequant_run(&table, &codes[e0..e0 + w], &signs, e0, &mut out);
                    for (l, v) in out.iter().enumerate() {
                        let e = e0 + l;
                        let want = scalar_value(codes[e], neg(e), step);
                        assert_eq!(v.to_bits(), want, "{profile:?} code {e} fallback");
                    }
                    e0 += w;
                }
            }
        }
        // The edge profiles really reach the edges.
        assert!(f32::from_bits(
            dequant_table(PrecisionProfile {
                scale: f32::MAX,
                bits: 4
            })[255]
        )
        .is_infinite());
        assert!(f32::from_bits(
            dequant_table(PrecisionProfile {
                scale: f32::MIN_POSITIVE,
                bits: 8
            })[1]
        )
        .is_subnormal());
    }

    /// Builds a `k x n` matrix through `from_raw_parts` whose panels
    /// cycle through all 256 codes (as far as the lossy codec keeps
    /// them) with a scattered sign pattern, and returns the decoded code
    /// and sign of every element in row-major order.
    fn raw_matrix(
        k: usize,
        n: usize,
        profile: PrecisionProfile,
    ) -> (EncodedMatrix, Vec<(u8, bool)>) {
        let plan = EncodePlan::cached(EncodeMode::Compensated);
        let mut want = vec![(0u8, false); k * n];
        let (mut panels, mut signs) = (Vec::new(), Vec::new());
        for p in 0..n.div_ceil(NR) {
            let w = NR.min(n - p * NR);
            let codes: Vec<u8> = (0..k * w).map(|e| (e * 37 + p * 11) as u8).collect();
            let enc = plan.encode(&codes);
            let decoded = spark_codec::decode_stream(&enc.stream).unwrap();
            let mut plane = vec![0u8; (k * w).div_ceil(8)];
            for (e, &code) in decoded.iter().enumerate() {
                let neg = (e * 7 + p) % 3 == 0;
                if neg {
                    plane[e >> 3] |= 1 << (e & 7);
                }
                want[(e / w) * n + p * NR + e % w] = (code, neg);
            }
            let mut bytes = Vec::new();
            spark_codec::write_container(&enc, &mut bytes).unwrap();
            panels.push(bytes);
            signs.push(plane);
        }
        let em = EncodedMatrix::from_raw_parts(k, n, profile, panels, signs).unwrap();
        (em, want)
    }

    #[test]
    fn decode_and_panel_decoder_match_the_scalar_expression() {
        use crate::gemm::KC;
        for profile in edge_profiles() {
            let step = profile.step();
            for n in [1, 15, 16, 17, 33] {
                for k in [1, KC - 1, KC + 1, 2 * KC + 3] {
                    let ctx = format!("{profile:?} {k}x{n}");
                    let (em, want) = raw_matrix(k, n, profile);
                    let want: Vec<u32> = want
                        .iter()
                        .map(|&(c, neg)| scalar_value(c, neg, step))
                        .collect();
                    let got: Vec<u32> = em
                        .decode()
                        .unwrap()
                        .as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    assert_eq!(got, want, "decode {ctx}");
                    // The fused packer's walk: KC-row blocks per panel.
                    // Lanes past the panel width must never be written.
                    const SENTINEL: u32 = 0x7FC0_BEEF;
                    for p in 0..em.panels() {
                        let w = em.panel_width(p);
                        let mut dec = em.panel_decoder(p);
                        let mut kb = 0;
                        while kb < k {
                            let depth = KC.min(k - kb);
                            let mut dst = vec![f32::from_bits(SENTINEL); KC * NR];
                            dec.decode_rows(&mut dst[..depth * NR], depth, w).unwrap();
                            for r in 0..depth {
                                for l in 0..NR {
                                    let got = dst[r * NR + l].to_bits();
                                    if l < w {
                                        let e = (kb + r) * n + p * NR + l;
                                        assert_eq!(
                                            got,
                                            want[e],
                                            "panel decoder {ctx} ({}, {l})",
                                            kb + r
                                        );
                                    } else {
                                        assert_eq!(got, SENTINEL, "pad lane written {ctx}");
                                    }
                                }
                            }
                            kb += depth;
                        }
                        dec.finish().unwrap();
                    }
                    // The whole fused GEMM against the dense engine over
                    // decode()'s output. A NaN that arithmetic produces
                    // has no IEEE-defined sign or payload, and the scalar
                    // and SIMD engines order operands differently, so
                    // NaN outputs only need to agree on being NaN.
                    let a = Tensor::from_fn(&[2, k], |i| (i % 5) as f32 - 1.5);
                    let fused = crate::ops::matmul_encoded(&a, &em).unwrap();
                    let dense = crate::ops::matmul(&a, &em.decode().unwrap()).unwrap();
                    for (f, d) in fused.as_slice().iter().zip(dense.as_slice()) {
                        let same = f.to_bits() == d.to_bits() || (f.is_nan() && d.is_nan());
                        assert!(same, "fused GEMM {ctx}: {f} vs {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = EncodedError::from(DecodeError::TruncatedLongCode);
        assert!(e.to_string().contains("long code"));
        assert!(EncodedError::NonFinite.to_string().contains("finite"));
    }
}
