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
//! keeps the 256 results as bit patterns ([`Dequant`]); a value is then
//! `table[code] ^ (sign << 31)`. Flipping the sign bit *is* `f32`
//! negation (Rust's `-x` lowers to `fneg`, which touches only the sign
//! bit, NaN payloads included), so the table read is the same expression
//! to the bit. [`EncodedMatrix::decode`] (the decode-then-GEMM reference
//! path) dequantizes through the table; the fused panel decoder's SIMD
//! emitters ([`crate::emit`]) compute the same `code as f32 * step` in
//! vector lanes and flip the same sign bit, which is half of the fused
//! path's bit-identity argument (the other half is the GEMM schedule
//! itself, see [`crate::gemm`]). The integer-domain GEMM path reads the
//! same codes and sign plane but skips the dequantization: it takes each
//! value as the signed code `±code` and applies `step` once per depth
//! block.
//!
//! # Trust boundary
//!
//! An [`EncodedMatrix`] is immutable and its fields are private, so its
//! bytes are validated exactly once, when the matrix is built, and
//! trusted from then on. [`EncodedMatrix::from_raw_parts`] is the only
//! door for untrusted bytes (store cold loads, the fault plane, tests): it
//! runs every panel through the codec's one container validator
//! ([`spark_codec::container::validate`]: magic, version, count
//! plausibility, payload length, FNV-1a checksum, padding nibble and the
//! exact-count length scan, so a forged but self-consistent header over a
//! mismatched stream is caught too), then checks the element count the
//! layout needs and the sign-plane length. Any violation is a typed
//! [`EncodedError`], never a panic. The containers
//! [`EncodedMatrix::encode`] writes are valid by construction (debug
//! builds re-check them with the same validator). The matrix keeps each
//! payload's validated nibble count, so the fused GEMM's [`PanelDecoder`]
//! only decodes, reading no header; [`EncodedMatrix::decode`] still goes
//! through the full [`spark_codec::read_container`] path as an independent
//! oracle.

use std::ops::Range;

use crate::emit::{self, dequant_run, Dequant, FullRows, Padded};
use crate::gemm::{GemmVariant, IntVariant, KC, NR};
use crate::quantize::{self, MagnitudeScale};
use crate::{ShapeError, Tensor};
use spark_codec::bulk::FILL_SLACK;
use spark_codec::{
    container, BulkCursor, CodecVariant, ContainerError, DecodeError, EncodeMode, EncodePlan,
    HEADER_LEN,
};
use spark_util::par;

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
    /// Nibbles in each panel's payload, from its validated header.
    nibbles: Vec<usize>,
    /// Aggregate code statistics (empty for [`Self::from_raw_parts`]).
    stats: spark_codec::CodeStats,
    /// The dequantization of `profile.step()`.
    dequant: Dequant,
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
        Self::encode_panels(CodecVariant::detect(), t, k, n, Layout::RowMajor)
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
        Self::encode_panels(CodecVariant::detect(), t, k, n, Layout::Transposed)
    }

    /// The encode front end: one finite-check-and-abs-max pass over the
    /// tensor, then each panel quantized and packed by `variant`'s
    /// kernels ([`crate::quantize`], [`spark_codec::pack`]), the panels
    /// fanned out over threads in contiguous runs, one scratch per run.
    fn encode_panels(
        variant: CodecVariant,
        t: &Tensor,
        k: usize,
        n: usize,
        layout: Layout,
    ) -> Result<Self, EncodedError> {
        let src = t.as_slice();
        // The exact front-end `spark-quant`'s MagnitudeQuantizer applies:
        // per-tensor scale from the absolute maximum (1.0 for an all-zero
        // tensor), magnitudes rounded into 0..=qmax, signs kept aside.
        let alpha = quantize::finite_abs_max(variant, src).ok_or(EncodedError::NonFinite)?;
        let scale = MagnitudeScale::new(alpha, 8);
        let profile = PrecisionProfile {
            scale: scale.alpha(),
            bits: 8,
        };
        let panel_count = n.div_ceil(NR);
        let workers = par::thread_count()
            .min(panel_count)
            .min(k * n / PAR_MIN_VALUES)
            .max(1);
        let runs: Vec<Range<usize>> = (0..workers)
            .map(|i| panel_count * i / workers..panel_count * (i + 1) / workers)
            .collect();
        let encoded = par::par_map(&runs, |run| {
            let mut scratch = PanelScratch::default();
            run.clone()
                .map(|p| scratch.encode(variant, src, layout, k, n, p, scale))
                .collect::<Vec<_>>()
        });
        let mut panels = Vec::with_capacity(panel_count);
        let mut signs = Vec::with_capacity(panel_count);
        let mut nibbles = Vec::with_capacity(panel_count);
        let mut stats = spark_codec::CodeStats::new();
        for panel in encoded.into_iter().flatten() {
            stats.merge(&panel.stats);
            panels.push(panel.container);
            signs.push(panel.signs);
            nibbles.push(panel.nibbles);
        }
        debug_assert!(
            validate_panels(k, n, &panels, &signs).is_ok_and(|v| v == nibbles),
            "encode wrote an invalid panel"
        );
        Ok(Self {
            k,
            n,
            profile,
            panels,
            signs,
            nibbles,
            stats,
            dequant: Dequant::new(profile.step()),
        })
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
        let nibbles = validate_panels(k, n, &panels, &signs)?;
        Ok(Self {
            k,
            n,
            profile,
            panels,
            signs,
            nibbles,
            stats: spark_codec::CodeStats::new(),
            dequant: Dequant::new(profile.step()),
        })
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

    /// The dequantization every panel shares.
    pub(crate) fn dequant(&self) -> &Dequant {
        &self.dequant
    }

    /// A decoder over panel `p` for the fused GEMM packer. The container
    /// was validated when the matrix was built, so decoding cannot fail.
    pub(crate) fn panel_decoder(&self, p: usize) -> PanelDecoder<'_> {
        PanelDecoder::new(
            &self.panels[p][HEADER_LEN..],
            self.nibbles[p],
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

/// Fewest values per worker before [`EncodedMatrix::encode`] fans its
/// panels out: below this, a thread spawn costs more than it saves.
const PAR_MIN_VALUES: usize = 1 << 16;

/// Source depth per slab of the transposed gather: each source row is
/// read in runs of four cache lines while the slab being written stays in
/// L1.
const GATHER_SLAB: usize = 64;

/// How the source tensor holds the logical `k x n` operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Row-major `k x n`: a panel row is `w` contiguous values.
    RowMajor,
    /// Row-major `n x k` (the operand transposed): a panel is `w`
    /// contiguous source rows.
    Transposed,
}

/// One panel's encoding: its container image, sign plane, nibble count
/// and code statistics.
struct EncodedPanel {
    container: Vec<u8>,
    signs: Vec<u8>,
    nibbles: usize,
    stats: spark_codec::CodeStats,
}

/// Buffers one encoding worker reuses from panel to panel.
#[derive(Default)]
struct PanelScratch {
    /// The panel's values depth-major, gathered from a transposed source.
    gathered: Vec<f32>,
    codes: Vec<u8>,
    payload: Vec<u8>,
}

impl PanelScratch {
    /// Quantizes and packs panel `p` of the `k x n` operand held in `src`.
    #[allow(clippy::too_many_arguments)]
    fn encode(
        &mut self,
        variant: CodecVariant,
        src: &[f32],
        layout: Layout,
        k: usize,
        n: usize,
        p: usize,
        scale: MagnitudeScale,
    ) -> EncodedPanel {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        let elements = k * w;
        let mut signs = vec![0u8; elements.div_ceil(8)];
        self.codes.resize(elements, 0);
        match layout {
            Layout::RowMajor => {
                let rows = src.get(j0..).unwrap_or_default();
                quantize::quantize_rows(variant, rows, n, k, w, scale, &mut self.codes, &mut signs);
            }
            Layout::Transposed => {
                self.gathered.resize(elements, 0.0);
                gather_panel(src, k, j0, w, &mut self.gathered);
                let rows = &self.gathered;
                quantize::quantize_rows(variant, rows, w, k, w, scale, &mut self.codes, &mut signs);
            }
        }
        self.payload.clear();
        let plan = EncodePlan::cached(EncodeMode::Compensated);
        let (nibbles, stats) = plan.pack_into(variant, &self.codes, &mut self.payload);
        let mut container = Vec::with_capacity(HEADER_LEN + self.payload.len());
        container.extend_from_slice(&container::header_bytes(elements, nibbles, &self.payload));
        container.extend_from_slice(&self.payload);
        EncodedPanel {
            container,
            signs,
            nibbles,
            stats,
        }
    }
}

/// Copies source rows `j0..j0 + w` of a row-major `n x k` matrix into
/// `dst` depth-major (`dst[kk * w + l]`), one [`GATHER_SLAB`]-deep slab
/// at a time.
fn gather_panel(src: &[f32], k: usize, j0: usize, w: usize, dst: &mut [f32]) {
    for kb in (0..k).step_by(GATHER_SLAB) {
        let depth = GATHER_SLAB.min(k - kb);
        for l in 0..w {
            let row = &src[(j0 + l) * k + kb..][..depth];
            for (d, &x) in row.iter().enumerate() {
                dst[(kb + d) * w + l] = x;
            }
        }
    }
}

/// Checks every panel against the `k x n` layout — its container through
/// [`container::validate`], then the element count the layout needs and
/// its sign-plane length — and returns each payload's nibble count.
/// Requires one container and one sign plane per panel.
fn validate_panels(
    k: usize,
    n: usize,
    panels: &[Vec<u8>],
    signs: &[Vec<u8>],
) -> Result<Vec<usize>, EncodedError> {
    panels
        .iter()
        .zip(signs)
        .enumerate()
        .map(|(p, (bytes, signs))| {
            let elements = k * NR.min(n - p * NR);
            if signs.len() != elements.div_ceil(8) {
                return Err(EncodedError::Shape(ShapeError::new(format!(
                    "panel {p} sign plane holds {} bytes, {elements} elements need {}",
                    signs.len(),
                    elements.div_ceil(8),
                ))));
            }
            let (header, _) = container::validate(bytes).map_err(|e| match e {
                ContainerError::Stream(e) => EncodedError::Decode(e),
                e => EncodedError::Container(e),
            })?;
            if header.elements != elements {
                return Err(ContainerError::Corrupt(format!(
                    "panel header says {} elements, the matrix layout needs {elements}",
                    header.elements
                ))
                .into());
            }
            Ok(header.nibbles)
        })
        .collect()
}

/// Codes a [`PanelDecoder`] holds at once: one `KC`-deep block of a
/// full-width panel plus the bulk cursor's fill headroom.
const CODE_BUF: usize = KC * NR + FILL_SLACK;

/// Decoder over one validated panel: serves the fused packer one depth
/// block at a time. Each block's codes are bulk-decoded
/// ([`spark_codec::bulk`]) into a fixed buffer of a few KiB, which stays
/// L1-resident, by a [`BulkCursor`] that resumes where the previous block
/// stopped. The operand emitters ([`crate::emit`]) then turn those codes
/// into the block's `f32` or signed-pair panel. Nothing is decoded ahead
/// of the block being packed, except the fewer than `FILL_SLACK` codes the
/// cursor's last 64-nibble block ran past it, which the next block starts
/// with.
pub(crate) struct PanelDecoder<'a> {
    cursor: BulkCursor<'a>,
    signs: &'a [u8],
    dequant: &'a Dequant,
    elements: usize,
    emitted: usize,
    /// `codes[..block]` is the block being emitted, `codes[block..held]`
    /// what the cursor decoded past it.
    codes: [u8; CODE_BUF],
    block: usize,
    held: usize,
}

impl<'a> PanelDecoder<'a> {
    /// A decoder over a `nibbles`-beat payload that [`validate_panels`]
    /// accepted for `elements` values, positioned at the first element.
    pub(crate) fn new(
        payload: &'a [u8],
        nibbles: usize,
        signs: &'a [u8],
        elements: usize,
        dequant: &'a Dequant,
    ) -> Self {
        Self {
            cursor: BulkCursor::new(CodecVariant::detect(), payload, nibbles),
            signs,
            dequant,
            elements,
            emitted: 0,
            codes: [0; CODE_BUF],
            block: 0,
            held: 0,
        }
    }

    /// Decodes the next `rows` depth-rows of a `w`-wide panel into `dst`,
    /// one `NR`-strided row per depth step (`dst[r * NR + lane]`), through
    /// `variant`'s [`emit::emit_f32`] tier; lanes `w..NR` are left
    /// untouched (the caller pre-zeroes them).
    ///
    /// # Errors
    ///
    /// [`EncodedError::Container`] when the caller asks for more elements
    /// than the panel holds (a packer-layout bug, kept typed).
    pub(crate) fn decode_rows(
        &mut self,
        variant: GemmVariant,
        dst: &mut [f32],
        rows: usize,
        w: usize,
    ) -> Result<(), EncodedError> {
        let e0 = self.next_block(rows * w)?;
        emit::emit_f32(
            variant,
            self.dequant,
            &self.codes,
            self.signs,
            e0,
            rows,
            w,
            dst,
        );
        Ok(())
    }

    /// The integer-domain twin of [`Self::decode_rows`]: writes the next
    /// `rows` depth-rows as signed codes interleaved by depth pair through
    /// `variant`'s [`emit::emit_pairs`] tier (layout there).
    ///
    /// # Errors
    ///
    /// As [`Self::decode_rows`].
    pub(crate) fn decode_pairs(
        &mut self,
        variant: IntVariant,
        dst: &mut [i16],
        rows: usize,
        w: usize,
    ) -> Result<(), EncodedError> {
        let e0 = self.next_block(rows * w)?;
        emit::emit_pairs(variant, &self.codes, self.signs, e0, rows, w, dst);
        Ok(())
    }

    /// Decodes the next `rows` depth-rows of a `w`-wide panel into the
    /// code buffer, for [`Self::full_rows`] or [`Self::padded_rows`] to
    /// hand to [`emit::mac_rows`].
    ///
    /// # Errors
    ///
    /// As [`Self::decode_rows`].
    pub(crate) fn advance(&mut self, rows: usize, w: usize) -> Result<(), EncodedError> {
        self.next_block(rows * w).map(drop)
    }

    /// The block the last [`Self::advance`] decoded, read in place: the
    /// panel is full-width, so its rows are already `NR` codes wide.
    pub(crate) fn full_rows(&self) -> FullRows<'_> {
        let e0 = self.emitted - self.block;
        FullRows::in_place(&self.codes[..self.block], self.signs, e0)
    }

    /// The block the last [`Self::advance`] decoded from a `w`-wide
    /// (ragged) panel, widened into `pad`.
    pub(crate) fn padded_rows<'p>(&self, w: usize, pad: &'p mut Padded) -> FullRows<'p> {
        let rows = self.block / w;
        pad.widen(&self.codes, self.signs, self.emitted - self.block, rows, w)
    }

    /// Claims the next `count` elements, leaves their codes in
    /// `codes[..count]` and returns the panel index of the first.
    ///
    /// # Errors
    ///
    /// As [`Self::claim`].
    fn next_block(&mut self, count: usize) -> Result<usize, EncodedError> {
        assert!(count <= KC * NR, "a depth block holds at most KC full rows");
        let e0 = self.claim(count)?;
        // Carry what the last fill decoded past the previous block (fewer
        // than FILL_SLACK codes) to the front, then top up to `count`.
        self.codes.copy_within(self.block..self.held, 0);
        self.held -= self.block;
        if self.held < count {
            self.held += self
                .cursor
                .fill(&mut self.codes[self.held..], count - self.held);
        }
        debug_assert!(self.held >= count, "panel was not validated");
        self.block = count;
        Ok(e0)
    }

    /// Claims the next `count` elements for the packer and returns the
    /// index of the first.
    ///
    /// # Errors
    ///
    /// [`EncodedError::Container`] when the caller asks for more elements
    /// than the panel holds (a packer-layout bug, kept typed).
    fn claim(&mut self, count: usize) -> Result<usize, EncodedError> {
        if count > self.elements - self.emitted {
            return Err(ContainerError::Corrupt(format!(
                "stream holds more than the promised {} elements",
                self.elements
            ))
            .into());
        }
        let e0 = self.emitted;
        self.emitted += count;
        Ok(e0)
    }

    /// Asserts the panel is fully consumed: every promised element served
    /// to the packer.
    ///
    /// # Errors
    ///
    /// [`EncodedError::Container`] when elements remain.
    pub(crate) fn finish(&self) -> Result<(), EncodedError> {
        debug_assert!(
            self.emitted != self.elements || (self.cursor.is_done() && self.held == self.block),
            "a validated stream ends with its last element"
        );
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
    use crate::stats;
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

    /// Panel containers, sign planes and statistics of a whole matrix.
    type Panels = (Vec<Vec<u8>>, Vec<Vec<u8>>, spark_codec::CodeStats);

    /// The encoder as it was before the SIMD front end, kept as the
    /// oracle: a scalar finite check and abs-max fold, the per-value
    /// quantize expression and sign branch through `get(kk, j)`, and the
    /// table packer — panel containers, sign planes and statistics.
    fn reference_encode(
        t: &Tensor,
        k: usize,
        n: usize,
        get: impl Fn(usize, usize) -> f32,
    ) -> Option<Panels> {
        if t.as_slice().iter().any(|v| !v.is_finite()) {
            return None;
        }
        let alpha = t.as_slice().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let alpha = if alpha == 0.0 { 1.0 } else { alpha };
        let qmax = 255.0f32;
        let plan = EncodePlan::cached(EncodeMode::Compensated);
        let (mut panels, mut signs) = (Vec::new(), Vec::new());
        let mut stats = spark_codec::CodeStats::new();
        for p in 0..n.div_ceil(NR) {
            let (j0, w) = (p * NR, NR.min(n - p * NR));
            let mut codes = Vec::new();
            let mut plane = vec![0u8; (k * w).div_ceil(8)];
            for kk in 0..k {
                for l in 0..w {
                    let x = get(kk, j0 + l);
                    let e = codes.len();
                    if x < 0.0 {
                        plane[e >> 3] |= 1 << (e & 7);
                    }
                    codes.push((x.abs() / alpha * qmax).round().min(qmax) as u8);
                }
            }
            let enc = plan.encode_with(CodecVariant::Scalar, &codes);
            stats.merge(&enc.stats);
            let mut bytes = Vec::new();
            spark_codec::write_container(&enc, &mut bytes).unwrap();
            panels.push(bytes);
            signs.push(plane);
        }
        Some((panels, signs, stats))
    }

    /// Asserts `em` holds exactly the reference encoding.
    fn assert_matches_reference(em: &EncodedMatrix, want: &Panels, what: &str) {
        assert_eq!(em.panels(), want.0.len(), "{what}: panel count");
        for p in 0..em.panels() {
            assert_eq!(em.panel_container(p), want.0[p].as_slice(), "{what}: panel {p}");
            assert_eq!(em.panel_signs(p), want.1[p].as_slice(), "{what}: signs {p}");
        }
        assert_eq!(em.stats(), &want.2, "{what}: stats");
    }

    /// A `k x n` matrix with signed zeros, exact ties and a long tail.
    fn edge_matrix(k: usize, n: usize, seed: u64) -> Tensor {
        let mut rng = Rng::seed_from_u64(seed);
        Tensor::from_fn(&[k, n], |_| match rng.gen_range(0..12) {
            0 => 0.0,
            1 => -0.0,
            2 => 0.5,
            3 => -2.5 / 255.0,
            4 => (rng.gen_f64() as f32 - 0.5) * 40.0,
            _ => (rng.gen_f64() as f32 - 0.5) * 0.2,
        })
    }

    #[test]
    fn every_tier_encodes_the_reference_panels() {
        // Ragged last panels of every width 1..=15, full panels, k = 0, 1,
        // odd, and deep enough to span several packer blocks per panel.
        let mut shapes = vec![(0, 5), (5, 0), (1, 1), (3, 16), (2, 17), (67, 20), (130, 33)];
        for w in 1..NR {
            shapes.push((1 + 2 * w, w));
            shapes.push((5, NR + w));
        }
        for (i, &(k, n)) in shapes.iter().enumerate() {
            let t = edge_matrix(k, n, 100 + i as u64);
            let src = t.as_slice();
            let want = reference_encode(&t, k, n, |kk, j| src[kk * n + j]).unwrap();
            let tt = crate::ops::transpose(&t).unwrap();
            for variant in CodecVariant::all() {
                let what = format!("{k}x{n} {}", variant.name());
                let em = EncodedMatrix::encode_panels(variant, &t, k, n, Layout::RowMajor).unwrap();
                assert_matches_reference(&em, &want, &what);
                let em = EncodedMatrix::encode_panels(variant, &tt, k, n, Layout::Transposed).unwrap();
                assert_matches_reference(&em, &want, &format!("{what} transposed"));
            }
        }
    }

    #[test]
    fn fanned_out_panels_keep_their_order() {
        // Enough values for the encoder to fan its panels out over
        // threads (on a multi-core host): the panels come back in order,
        // identical to the reference.
        let (k, n) = (67, 16 * 61 + 5);
        assert!(k * n >= PAR_MIN_VALUES);
        let t = edge_matrix(k, n, 7);
        let src = t.as_slice();
        let want = reference_encode(&t, k, n, |kk, j| src[kk * n + j]).unwrap();
        assert_matches_reference(&EncodedMatrix::encode(&t).unwrap(), &want, "row-major");
        let tt = crate::ops::transpose(&t).unwrap();
        let em = EncodedMatrix::encode_transposed(&tt).unwrap();
        assert_matches_reference(&em, &want, "transposed");
    }

    #[test]
    fn encode_transposed_matches_encode_of_transpose_at_ragged_shapes() {
        for (k, n) in [(1, 1), (5, 3), (17, 31), (64, 17), (65, 47), (130, 15)] {
            let t = edge_matrix(n, k, (k * 1000 + n) as u64);
            let a = EncodedMatrix::encode(&crate::ops::transpose(&t).unwrap()).unwrap();
            for variant in CodecVariant::all() {
                let b = EncodedMatrix::encode_panels(variant, &t, k, n, Layout::Transposed).unwrap();
                let src = t.as_slice();
                let want = reference_encode(&t, k, n, |kk, j| src[j * k + kk]).unwrap();
                assert_matches_reference(&b, &want, &format!("{k}x{n} {}", variant.name()));
                for p in 0..a.panels() {
                    assert_eq!(a.panel_container(p), b.panel_container(p), "{k}x{n} panel {p}");
                    assert_eq!(a.panel_signs(p), b.panel_signs(p), "{k}x{n} signs {p}");
                }
            }
        }
    }

    #[test]
    fn every_tier_rejects_non_finite_values_typed() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in [0usize, 5, 16, 33] {
                let mut v = vec![0.25f32; 34];
                v[at] = bad;
                let t = Tensor::from_vec(v, &[2, 17]).unwrap();
                for variant in CodecVariant::all() {
                    let got = EncodedMatrix::encode_panels(variant, &t, 2, 17, Layout::RowMajor);
                    assert!(matches!(got, Err(EncodedError::NonFinite)), "{bad} at {at}");
                }
                assert!(matches!(
                    EncodedMatrix::encode_transposed(&t),
                    Err(EncodedError::NonFinite)
                ));
            }
        }
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
            // The reader path shares the validator, so the same bytes fail
            // it with the same variant.
            let read = spark_codec::read_container(panels[0].as_slice());
            let got = EncodedMatrix::from_raw_parts(DEEP_K, 20, em.profile(), panels, signs);
            assert!(
                matches!(got, Err(EncodedError::Container(_))),
                "bit {bit} flip accepted: {got:?}"
            );
            match (&got, &read) {
                (Err(EncodedError::Container(a)), Err(b)) => assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "bit {bit}: from_raw_parts says {a:?}, read_container says {b:?}"
                ),
                _ => panic!(
                    "bit {bit}: read_container accepted what from_raw_parts refused: {read:?}"
                ),
            }
        }
    }

    /// A container whose header is self-consistent — right magic, version
    /// and element count, plausible nibble count, matching payload length
    /// and checksum, zero padding — over an arbitrary `payload`.
    fn forged_container(elements: usize, nibbles: usize, payload: Vec<u8>) -> Vec<u8> {
        use spark_codec::stream_checksum;
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
            let table = Dequant::new(profile.step());
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
        let value = |scale, bits, code| {
            let mut out = [0.0f32];
            let dq = Dequant::new(PrecisionProfile { scale, bits }.step());
            dequant_run(&dq, &[code], &[0], 0, &mut out);
            out[0]
        };
        assert!(value(f32::MAX, 4, 255).is_infinite());
        assert!(value(f32::MIN_POSITIVE, 8, 1).is_subnormal());
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
        for profile in edge_profiles() {
            let step = profile.step();
            for n in [1, 15, 16, 17, 33] {
                for k in [1, KC - 1, KC + 1, 2 * KC + 3] {
                    let ctx = format!("{profile:?} {k}x{n}");
                    let (em, codes) = raw_matrix(k, n, profile);
                    let want: Vec<u32> = codes
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
                    // The fused packer's walk under every emitter tier:
                    // KC-row blocks per panel. Lanes past the panel width
                    // must never be written.
                    const SENTINEL: u32 = 0x7FC0_BEEF;
                    for variant in GemmVariant::available() {
                        for p in 0..em.panels() {
                            let w = em.panel_width(p);
                            let mut dec = em.panel_decoder(p);
                            let mut kb = 0;
                            while kb < k {
                                let depth = KC.min(k - kb);
                                let mut dst = vec![f32::from_bits(SENTINEL); KC * NR];
                                dec.decode_rows(variant, &mut dst[..depth * NR], depth, w)
                                    .unwrap();
                                for r in 0..depth {
                                    for l in 0..NR {
                                        let got = dst[r * NR + l].to_bits();
                                        let at =
                                            format!("{ctx} {} ({}, {l})", variant.name(), kb + r);
                                        if l < w {
                                            let e = (kb + r) * n + p * NR + l;
                                            assert_eq!(got, want[e], "panel decoder {at}");
                                        } else {
                                            assert_eq!(got, SENTINEL, "pad lane written {at}");
                                        }
                                    }
                                }
                                kb += depth;
                            }
                            dec.finish().unwrap();
                        }
                    }
                    // The integer path's walk under every tier: signed
                    // codes interleaved by depth pair, a zero closing an
                    // odd block's last pair, lanes past the panel width
                    // untouched.
                    for variant in IntVariant::available() {
                        for p in 0..em.panels() {
                            let w = em.panel_width(p);
                            let mut dec = em.panel_decoder(p);
                            let mut kb = 0;
                            while kb < k {
                                let depth = KC.min(k - kb);
                                let padded = depth.div_ceil(2) * 2;
                                let mut dst = vec![i16::MIN; KC * NR];
                                dec.decode_pairs(variant, &mut dst[..padded * NR], depth, w)
                                    .unwrap();
                                for r in 0..padded {
                                    for l in 0..NR {
                                        let got = dst[(r / 2 * NR + l) * 2 + r % 2];
                                        let want = match (l < w, r < depth) {
                                            (false, _) => i16::MIN,
                                            (true, false) => 0,
                                            (true, true) => {
                                                let (c, neg) = codes[(kb + r) * n + p * NR + l];
                                                if neg {
                                                    -i16::from(c)
                                                } else {
                                                    i16::from(c)
                                                }
                                            }
                                        };
                                        let at =
                                            format!("{ctx} {} ({}, {l})", variant.name(), kb + r);
                                        assert_eq!(got, want, "pair decoder {at}");
                                    }
                                }
                                kb += depth;
                            }
                            dec.finish().unwrap();
                        }
                    }
                    // The whole fused f32 GEMM against the dense engine
                    // over decode()'s output. A NaN that arithmetic
                    // produces has no IEEE-defined sign or payload, and
                    // the scalar and SIMD engines order operands
                    // differently, so NaN outputs only need to agree on
                    // being NaN.
                    let a = Tensor::from_fn(&[2, k], |i| (i % 5) as f32 - 1.5);
                    let fused = crate::gemm::gemm_encoded_with(
                        crate::gemm::GemmVariant::detect(),
                        a.as_slice(),
                        &em,
                        2,
                        crate::gemm::Epilogue::None,
                    )
                    .unwrap();
                    let dense = crate::ops::matmul(&a, &em.decode().unwrap()).unwrap();
                    for (f, d) in fused.iter().zip(dense.as_slice()) {
                        let same = f.to_bits() == d.to_bits() || (f.is_nan() && d.is_nan());
                        assert!(same, "fused GEMM {ctx}: {f} vs {d}");
                    }
                    // Two rows are below MR: the auto path is that f32
                    // path, to the bit (NaN payloads included).
                    let auto = crate::ops::matmul_encoded(&a, &em).unwrap();
                    for (g, f) in auto.as_slice().iter().zip(&fused) {
                        assert_eq!(g.to_bits(), f.to_bits(), "auto GEMM {ctx}");
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
