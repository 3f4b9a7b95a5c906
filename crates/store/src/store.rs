//! The [`BlockStore`]: durable index over WAL + manifest + block file.
//!
//! Concurrency model, in lock order:
//!
//! 1. `state` (Mutex) — the WAL writer, the live index, and the current
//!    generation. Mutations hold it for the in-memory transition only;
//!    compaction holds it end-to-end (a store compacts far less often
//!    than it serves).
//! 2. `readers` (RwLock) — shared `pread` handles on the log and block
//!    files. Lookups acquire it *while still holding* `state`, then drop
//!    `state` and read — compaction swaps files only under the write
//!    half, so an extent resolved under the lock stays valid for the
//!    duration of the read.
//! 3. `dur` (Mutex + Condvar) — group commit. Appends record the highest
//!    written sequence; `commit(seq)` elects one thread to `fdatasync`
//!    (covering every sequence written so far) while later committers
//!    wait on the condvar, so N concurrent puts cost one flush, not N.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, RwLock};

use spark_codec::EncodedTensor;
use spark_tensor::{EncodedMatrix, PrecisionProfile};
use spark_util::fnv::fnv1a;
use spark_util::json::Value;

use crate::error::{validate_name, EntryKind, StoreError};
use crate::manifest;
use crate::wal::{RecordKind, Wal};
use crate::AlignedBuf;

/// `SPKM` encoded-matrix image magic.
pub const MATRIX_MAGIC: [u8; 4] = *b"SPKM";
/// `SPKM` image version.
pub const MATRIX_VERSION: u32 = 1;
/// Fixed `SPKM` header size before the per-panel length table.
const MATRIX_HEADER_LEN: usize = 40;

/// Where a live payload currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Loc {
    /// In `wal.log`, not yet compacted.
    Wal,
    /// In the current generation's block file.
    Block,
}

/// One live index entry: everything needed to `pread` and verify a
/// payload without touching the WAL or manifest again.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IndexEntry {
    pub kind: EntryKind,
    pub loc: Loc,
    pub offset: u64,
    pub len: u64,
    pub crc: u64,
}

/// A listing row from [`BlockStore::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryInfo {
    /// Tensor name.
    pub name: String,
    /// Payload kind.
    pub kind: EntryKind,
    /// Payload size in bytes.
    pub len: u64,
}

/// Counters summarizing a store's current shape.
#[derive(Debug, Clone, Copy)]
pub struct StoreStats {
    /// Live (non-deleted) entries.
    pub entries: usize,
    /// Current generation (0 = never compacted).
    pub generation: u64,
    /// WAL sequence floor of the current manifest.
    pub wal_seq_floor: u64,
    /// Valid WAL length in bytes.
    pub wal_bytes: u64,
    /// Sequence number the next mutation will get.
    pub next_seq: u64,
}

/// What [`BlockStore::open`] found and did — the deterministic recovery
/// record the crash plane compares byte-for-byte across runs.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Generation the `CURRENT` pointer named (0 = fresh store).
    pub generation: u64,
    /// WAL sequence floor from the manifest.
    pub wal_seq_floor: u64,
    /// WAL records replayed into the index (`seq > floor`).
    pub records_applied: usize,
    /// WAL records skipped because the manifest already folds them in.
    pub records_skipped: usize,
    /// Diagnosis of a torn WAL tail, when one was truncated.
    pub torn_tail: Option<String>,
    /// Stale files (orphaned generations, `.tmp` leftovers) removed.
    pub stale_files_removed: usize,
    /// Live entries after recovery.
    pub live_entries: usize,
    /// Next sequence number.
    pub next_seq: u64,
}

impl RecoveryReport {
    /// The report as a JSON value — a pure function of the recovered
    /// directory contents, no wall-clock or paths.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("generation", Value::Num(self.generation as f64)),
            ("wal_seq_floor", Value::Num(self.wal_seq_floor as f64)),
            ("records_applied", Value::Num(self.records_applied as f64)),
            ("records_skipped", Value::Num(self.records_skipped as f64)),
            (
                "torn_tail",
                match &self.torn_tail {
                    Some(t) => Value::Str(t.clone()),
                    None => Value::Null,
                },
            ),
            ("stale_files_removed", Value::Num(self.stale_files_removed as f64)),
            ("live_entries", Value::Num(self.live_entries as f64)),
            ("next_seq", Value::Num(self.next_seq as f64)),
        ])
    }
}

pub(crate) struct State {
    pub wal: Wal,
    pub index: BTreeMap<String, IndexEntry>,
    pub gen: u64,
    pub floor: u64,
}

pub(crate) struct Readers {
    pub wal: File,
    pub blocks: Option<File>,
}

struct Durability {
    written: u64,
    durable: u64,
    syncing: bool,
}

/// A persistent store of SPARK-encoded tensors in one directory.
///
/// All methods take `&self`; the store is safe to share across threads
/// (serve wraps it in an `Arc`).
pub struct BlockStore {
    pub(crate) dir: PathBuf,
    pub(crate) state: Mutex<State>,
    pub(crate) readers: RwLock<Readers>,
    dur: Mutex<Durability>,
    dur_cv: Condvar,
    recovery: RecoveryReport,
}

impl std::fmt::Debug for BlockStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockStore").field("dir", &self.dir).finish()
    }
}

impl BlockStore {
    /// Opens (creating if absent) the store in `dir`, running full crash
    /// recovery: read `CURRENT` → load the manifest → GC stale
    /// generations and `.tmp` files → scan the WAL, truncating any torn
    /// tail → replay records above the manifest's floor.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, [`StoreError::Corrupt`]
    /// when `CURRENT`, the manifest, or the block file contradict each
    /// other. A torn WAL tail is *not* an error — it is the expected
    /// crash signature, truncated and reported.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        let gen = manifest::read_current(dir)?.unwrap_or(0);
        let (floor, base) = if gen == 0 {
            (0, Vec::new())
        } else {
            let m = manifest::read_manifest(dir, gen)?;
            (m.wal_seq_floor, m.entries)
        };
        let stale_files_removed = gc_stale(dir, gen)?;

        let mut index = BTreeMap::new();
        for e in base {
            index.insert(
                e.name,
                IndexEntry {
                    kind: e.kind,
                    loc: Loc::Block,
                    offset: e.offset,
                    len: e.len,
                    crc: e.crc,
                },
            );
        }
        let blocks = if gen == 0 {
            None
        } else {
            Some(File::open(dir.join(manifest::blocks_file(gen)))?)
        };

        let (mut wal, scan) = Wal::open(dir)?;
        // The log alone numbers from its own records (1 when rewritten
        // empty by compaction); the manifest floor fences replay, so new
        // appends must land strictly above it to survive the next open.
        wal.ensure_next_seq(floor + 1);
        let mut records_applied = 0;
        let mut records_skipped = 0;
        for rec in &scan.records {
            if rec.seq <= floor {
                records_skipped += 1;
                continue;
            }
            records_applied += 1;
            match rec.kind {
                RecordKind::Delete => {
                    index.remove(&rec.name);
                }
                RecordKind::PutTensor | RecordKind::PutMatrix => {
                    let kind = if rec.kind == RecordKind::PutTensor {
                        EntryKind::Tensor
                    } else {
                        EntryKind::Matrix
                    };
                    index.insert(
                        rec.name.clone(),
                        IndexEntry {
                            kind,
                            loc: Loc::Wal,
                            offset: rec.payload_off,
                            len: rec.payload_len,
                            crc: rec.payload_crc,
                        },
                    );
                }
            }
        }

        let recovery = RecoveryReport {
            generation: gen,
            wal_seq_floor: floor,
            records_applied,
            records_skipped,
            torn_tail: scan.torn.clone(),
            stale_files_removed,
            live_entries: index.len(),
            next_seq: wal.next_seq(),
        };
        let wal_reader = wal.reader()?;
        let durable = wal.next_seq() - 1;
        Ok(Self {
            dir: dir.to_path_buf(),
            state: Mutex::new(State { wal, index, gen, floor }),
            readers: RwLock::new(Readers { wal: wal_reader, blocks }),
            dur: Mutex::new(Durability { written: durable, durable, syncing: false }),
            dur_cv: Condvar::new(),
            recovery,
        })
    }

    /// What recovery found when this handle was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Stores (or overwrites) an encoded tensor under `name`. Durable
    /// when this returns.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidName`] or [`StoreError::Io`].
    pub fn put_tensor(&self, name: &str, tensor: &EncodedTensor) -> Result<(), StoreError> {
        let mut payload = Vec::new();
        // Infallible: writing into a Vec cannot fail.
        spark_codec::write_container(tensor, &mut payload)
            .map_err(|e| StoreError::Container(spark_codec::ContainerError::Io(e)))?;
        let seq = self.mutate(RecordKind::PutTensor, name, &payload)?;
        self.commit(seq)
    }

    /// Stores a tensor given its serialized container-v2 image, after
    /// validating it end to end — the ingest path for bytes that crossed
    /// a network or filesystem boundary. Returns the element count.
    ///
    /// # Errors
    ///
    /// [`StoreError::Container`] when the image fails validation, plus
    /// the [`BlockStore::put_tensor`] errors.
    pub fn put_container(&self, name: &str, image: &[u8]) -> Result<usize, StoreError> {
        let tensor = spark_codec::read_container(image)?;
        let seq = self.mutate(RecordKind::PutTensor, name, image)?;
        self.commit(seq)?;
        Ok(tensor.elements)
    }

    /// Stores (or overwrites) an encoded weight matrix under `name`.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidName`] or [`StoreError::Io`].
    pub fn put_matrix(&self, name: &str, matrix: &EncodedMatrix) -> Result<(), StoreError> {
        let payload = matrix_image(matrix);
        let seq = self.mutate(RecordKind::PutMatrix, name, &payload)?;
        self.commit(seq)
    }

    /// Removes `name` from the live set (a durable tombstone).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when the name is not live.
    pub fn delete(&self, name: &str) -> Result<(), StoreError> {
        validate_name(name)?;
        let seq;
        {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            if !st.index.contains_key(name) {
                return Err(StoreError::NotFound(name.to_string()));
            }
            let info = st.wal.append(RecordKind::Delete, name, b"")?;
            st.index.remove(name);
            seq = info.seq;
            let mut d = self.dur.lock().unwrap_or_else(|e| e.into_inner());
            d.written = d.written.max(seq);
        }
        self.commit(seq)
    }

    /// The payload kind stored under `name`, if live.
    pub fn kind_of(&self, name: &str) -> Option<EntryKind> {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.index.get(name).map(|e| e.kind)
    }

    /// Reads the raw payload bytes of `name` (a container-v2 image or an
    /// `SPKM` image) after verifying its checksum.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`], [`StoreError::Io`], or
    /// [`StoreError::Corrupt`] on checksum mismatch.
    pub fn get_raw(&self, name: &str) -> Result<(EntryKind, Vec<u8>), StoreError> {
        let (entry, buf) = self.read_entry(name)?;
        Ok((entry.kind, buf.as_slice().to_vec()))
    }

    /// Loads the encoded tensor stored under `name`, running the full
    /// container validation (header cross-checks, checksum, decode).
    ///
    /// # Errors
    ///
    /// [`StoreError::WrongKind`] when `name` holds a matrix, plus the
    /// [`BlockStore::get_raw`] and container errors.
    pub fn get_tensor(&self, name: &str) -> Result<EncodedTensor, StoreError> {
        let (entry, buf) = self.read_entry(name)?;
        if entry.kind != EntryKind::Tensor {
            return Err(StoreError::WrongKind {
                name: name.to_string(),
                expected: EntryKind::Tensor,
                found: entry.kind,
            });
        }
        Ok(spark_codec::read_container(buf.as_slice())?)
    }

    /// Loads the encoded matrix stored under `name` — the cold-start
    /// path: the panel containers are adopted as-is via
    /// [`EncodedMatrix::from_raw_parts`], no re-encode.
    ///
    /// # Errors
    ///
    /// [`StoreError::WrongKind`] when `name` holds a tensor, plus the
    /// [`BlockStore::get_raw`] and image-parse errors.
    pub fn get_matrix(&self, name: &str) -> Result<EncodedMatrix, StoreError> {
        let (entry, buf) = self.read_entry(name)?;
        if entry.kind != EntryKind::Matrix {
            return Err(StoreError::WrongKind {
                name: name.to_string(),
                expected: EntryKind::Matrix,
                found: entry.kind,
            });
        }
        parse_matrix_image(buf.as_slice())
    }

    /// Lists live entries in name order.
    pub fn list(&self) -> Vec<EntryInfo> {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.index
            .iter()
            .map(|(name, e)| EntryInfo { name: name.clone(), kind: e.kind, len: e.len })
            .collect()
    }

    /// Current shape counters.
    pub fn stats(&self) -> StoreStats {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        StoreStats {
            entries: st.index.len(),
            generation: st.gen,
            wal_seq_floor: st.floor,
            wal_bytes: st.wal.tail(),
            next_seq: st.wal.next_seq(),
        }
    }

    /// Forces an `fdatasync` covering every mutation so far.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`].
    pub fn flush(&self) -> Result<(), StoreError> {
        let seq = {
            let d = self.dur.lock().unwrap_or_else(|e| e.into_inner());
            d.written
        };
        self.commit(seq)
    }

    /// Re-reads and fully re-validates every live payload: checksum plus
    /// a complete parse (container validation for tensors, image parse +
    /// structural checks for matrices). Returns the number verified.
    ///
    /// # Errors
    ///
    /// The first entry that fails, as a typed error naming it.
    pub fn verify(&self) -> Result<usize, StoreError> {
        let names: Vec<String> = self.list().into_iter().map(|e| e.name).collect();
        for name in &names {
            match self.kind_of(name) {
                Some(EntryKind::Tensor) => {
                    self.get_tensor(name)?;
                }
                Some(EntryKind::Matrix) => {
                    self.get_matrix(name)?;
                }
                // Deleted between list() and here — fine, skip.
                None => {}
            }
        }
        Ok(names.len())
    }

    /// WAL-append one mutation and apply it to the index. Not yet
    /// durable — callers follow with [`BlockStore::commit`].
    fn mutate(&self, kind: RecordKind, name: &str, payload: &[u8]) -> Result<u64, StoreError> {
        validate_name(name)?;
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let info = st.wal.append(kind, name, payload)?;
        let entry_kind = match kind {
            RecordKind::PutTensor => EntryKind::Tensor,
            RecordKind::PutMatrix => EntryKind::Matrix,
            // Deletes go through `delete` which never calls mutate.
            RecordKind::Delete => EntryKind::Tensor,
        };
        st.index.insert(
            name.to_string(),
            IndexEntry {
                kind: entry_kind,
                loc: Loc::Wal,
                offset: info.payload_off,
                len: info.payload_len,
                crc: info.payload_crc,
            },
        );
        let mut d = self.dur.lock().unwrap_or_else(|e| e.into_inner());
        d.written = d.written.max(info.seq);
        Ok(info.seq)
    }

    /// Group commit: returns once `seq` is durable. One thread performs
    /// the `fdatasync` (covering everything written), the rest wait.
    fn commit(&self, seq: u64) -> Result<(), StoreError> {
        loop {
            let mut d = self.dur.lock().unwrap_or_else(|e| e.into_inner());
            if d.durable >= seq {
                return Ok(());
            }
            if d.syncing {
                let _unused = self
                    .dur_cv
                    .wait(d)
                    .unwrap_or_else(|e| e.into_inner());
                continue;
            }
            d.syncing = true;
            let target = d.written;
            drop(d);
            // Clone the append handle under the state lock (cheap dup);
            // sync without it so appends keep flowing during the flush.
            let file = {
                let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
                st.wal.file_clone()
            };
            let res = file.and_then(|f| f.sync_data().map_err(StoreError::Io));
            let mut d = self.dur.lock().unwrap_or_else(|e| e.into_inner());
            d.syncing = false;
            if res.is_ok() {
                d.durable = d.durable.max(target);
            }
            self.dur_cv.notify_all();
            res?;
        }
    }

    /// Resolves `name` and `pread`s its payload into an aligned buffer,
    /// verifying the extent checksum.
    fn read_entry(&self, name: &str) -> Result<(IndexEntry, AlignedBuf), StoreError> {
        validate_name(name)?;
        // Acquire the reader guard *before* releasing the index lock:
        // compaction swaps files only under the writer half, so the
        // extent cannot dangle while we hold the read guard.
        let (entry, readers) = {
            let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            let entry = *st
                .index
                .get(name)
                .ok_or_else(|| StoreError::NotFound(name.to_string()))?;
            let readers = self.readers.read().unwrap_or_else(|e| e.into_inner());
            (entry, readers)
        };
        let mut buf = AlignedBuf::new(entry.len as usize);
        {
            use std::os::unix::fs::FileExt;
            let file = match entry.loc {
                Loc::Wal => &readers.wal,
                Loc::Block => readers.blocks.as_ref().ok_or_else(|| {
                    StoreError::Corrupt(format!(
                        "index places {name:?} in a block file, but no generation is live"
                    ))
                })?,
            };
            file.read_exact_at(buf.as_mut_slice(), entry.offset)?;
        }
        let found = fnv1a(buf.as_slice());
        if found != entry.crc {
            return Err(StoreError::Corrupt(format!(
                "payload checksum mismatch for {name:?}: index says {:#018x}, bytes hash to {found:#018x}",
                entry.crc
            )));
        }
        Ok((entry, buf))
    }
}

/// Cleans up files a crash mid-compaction can leave behind: `.tmp`
/// installs that never renamed, and manifest/block files of any
/// generation other than the live one. Returns how many were removed.
fn gc_stale(dir: &Path, live_gen: u64) -> Result<usize, StoreError> {
    let mut removed = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = if name.ends_with(".tmp") {
            true
        } else if let Some(hex) = name.strip_prefix("manifest-") {
            u64::from_str_radix(hex, 16).is_ok_and(|g| g != live_gen)
        } else if let Some(hex) =
            name.strip_prefix("blocks-").and_then(|n| n.strip_suffix(".dat"))
        {
            u64::from_str_radix(hex, 16).is_ok_and(|g| g != live_gen)
        } else {
            false
        };
        if stale {
            std::fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Serializes an [`EncodedMatrix`] into the `SPKM` image: a 40-byte
/// header (magic, version, dims, precision profile, panel count), a
/// per-panel length table, then the concatenated container images and
/// sign planes. Integrity comes from the WAL/manifest extent checksum
/// over the whole image plus each panel's own container checksum.
pub fn matrix_image(m: &EncodedMatrix) -> Vec<u8> {
    let panels = m.panels();
    let body: usize = (0..panels)
        .map(|p| m.panel_container(p).len() + m.panel_signs(p).len())
        .sum();
    let mut buf = Vec::with_capacity(MATRIX_HEADER_LEN + 16 * panels + body);
    buf.extend_from_slice(&MATRIX_MAGIC);
    buf.extend_from_slice(&MATRIX_VERSION.to_le_bytes());
    buf.extend_from_slice(&(m.k() as u64).to_le_bytes());
    buf.extend_from_slice(&(m.n() as u64).to_le_bytes());
    buf.extend_from_slice(&m.profile().scale.to_le_bytes());
    buf.push(m.profile().bits);
    buf.extend_from_slice(&[0u8; 3]);
    buf.extend_from_slice(&(panels as u32).to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]);
    for p in 0..panels {
        buf.extend_from_slice(&(m.panel_container(p).len() as u64).to_le_bytes());
        buf.extend_from_slice(&(m.panel_signs(p).len() as u64).to_le_bytes());
    }
    for p in 0..panels {
        buf.extend_from_slice(m.panel_container(p));
        buf.extend_from_slice(m.panel_signs(p));
    }
    buf
}

/// Parses an `SPKM` image back into an [`EncodedMatrix`] via
/// [`EncodedMatrix::from_raw_parts`]. Every field is cross-checked
/// before any allocation is sized from it.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on structural violations,
/// [`StoreError::Encoded`] when the raw parts fail the matrix's own
/// validation (layout, or any panel container's header, checksum or
/// length).
pub fn parse_matrix_image(bytes: &[u8]) -> Result<EncodedMatrix, StoreError> {
    if bytes.len() < MATRIX_HEADER_LEN {
        return Err(StoreError::Corrupt(format!(
            "SPKM image is {} bytes, shorter than the {MATRIX_HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    if bytes[0..4] != MATRIX_MAGIC {
        return Err(StoreError::Corrupt(format!(
            "bad SPKM magic {:?}",
            &bytes[0..4]
        )));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    if version != MATRIX_VERSION {
        return Err(StoreError::Corrupt(format!("unsupported SPKM version {version}")));
    }
    let k = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let n = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));
    let scale = f32::from_le_bytes(bytes[24..28].try_into().expect("4-byte slice"));
    let bits = bytes[28];
    if bytes[29..32].iter().any(|&b| b != 0) || bytes[36..40].iter().any(|&b| b != 0) {
        return Err(StoreError::Corrupt("nonzero SPKM pad bytes".into()));
    }
    let panel_count =
        u32::from_le_bytes(bytes[32..36].try_into().expect("4-byte slice")) as usize;
    if !scale.is_finite() || scale <= 0.0 {
        return Err(StoreError::Corrupt(format!(
            "SPKM precision scale {scale} is not a positive finite value"
        )));
    }
    if bits == 0 || bits > 16 {
        return Err(StoreError::Corrupt(format!("SPKM bit-width {bits} out of range")));
    }
    // Dims must describe an allocatable matrix before usize conversion.
    if k > u32::MAX as u64 || n > u32::MAX as u64 {
        return Err(StoreError::Corrupt(format!("implausible SPKM dims {k}x{n}")));
    }
    let (k, n) = (k as usize, n as usize);
    let table_end = MATRIX_HEADER_LEN
        .checked_add(16usize.checked_mul(panel_count).unwrap_or(usize::MAX))
        .unwrap_or(usize::MAX);
    if table_end > bytes.len() {
        return Err(StoreError::Corrupt(format!(
            "SPKM length table for {panel_count} panels overruns the {}-byte image",
            bytes.len()
        )));
    }
    let mut lens = Vec::with_capacity(panel_count);
    for p in 0..panel_count {
        let at = MATRIX_HEADER_LEN + 16 * p;
        let c = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"));
        let s = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().expect("8-byte slice"));
        if c > bytes.len() as u64 || s > bytes.len() as u64 {
            return Err(StoreError::Corrupt(format!(
                "SPKM panel {p} declares lengths beyond the image"
            )));
        }
        lens.push((c as usize, s as usize));
    }
    let mut pos = table_end;
    let mut panels = Vec::with_capacity(panel_count);
    let mut signs = Vec::with_capacity(panel_count);
    for (p, &(c, s)) in lens.iter().enumerate() {
        let need = c.checked_add(s).unwrap_or(usize::MAX);
        if bytes.len() - pos < need {
            return Err(StoreError::Corrupt(format!(
                "SPKM payload truncated inside panel {p}"
            )));
        }
        panels.push(bytes[pos..pos + c].to_vec());
        pos += c;
        signs.push(bytes[pos..pos + s].to_vec());
        pos += s;
    }
    if pos != bytes.len() {
        return Err(StoreError::Corrupt(format!(
            "SPKM image has {} trailing bytes",
            bytes.len() - pos
        )));
    }
    let profile = PrecisionProfile { scale, bits };
    Ok(EncodedMatrix::from_raw_parts(k, n, profile, panels, signs)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_tensor::Tensor;
    use spark_util::rng::Rng;

    fn tmp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "spark-store-{tag}-{}-{n}",
            std::process::id()
        ));
        dir
    }

    fn sample_tensor(seed: u64, len: usize) -> EncodedTensor {
        let mut rng = Rng::seed_from_u64(seed);
        let values: Vec<u8> = (0..len).map(|_| (rng.next_u64() >> 16) as u8).collect();
        spark_codec::encode_tensor(&values)
    }

    fn sample_matrix(seed: u64, k: usize, n: usize) -> EncodedMatrix {
        let mut rng = Rng::seed_from_u64(seed);
        let data: Vec<f32> = (0..k * n).map(|_| rng.gen_f32() * 2.0 - 1.0).collect();
        let t = Tensor::from_vec(data, &[k, n]).unwrap();
        EncodedMatrix::encode(&t).unwrap()
    }

    #[test]
    fn put_get_delete_round_trip() {
        let dir = tmp_dir("crud");
        let store = BlockStore::open(&dir).unwrap();
        let t = sample_tensor(1, 300);
        store.put_tensor("act/x", &t).unwrap();
        let back = store.get_tensor("act/x").unwrap();
        assert_eq!(back.stream.as_bytes(), t.stream.as_bytes());
        assert_eq!(back.elements, t.elements);

        let m = sample_matrix(2, 48, 20);
        store.put_matrix("w/fc1", &m).unwrap();
        let mb = store.get_matrix("w/fc1").unwrap();
        assert_eq!(mb.decode().unwrap().as_slice(), m.decode().unwrap().as_slice());

        assert_eq!(store.list().len(), 2);
        assert_eq!(store.kind_of("act/x"), Some(EntryKind::Tensor));
        assert_eq!(store.kind_of("w/fc1"), Some(EntryKind::Matrix));
        assert!(matches!(
            store.get_matrix("act/x"),
            Err(StoreError::WrongKind { .. })
        ));
        assert_eq!(store.verify().unwrap(), 2);

        store.delete("act/x").unwrap();
        assert!(matches!(store.get_tensor("act/x"), Err(StoreError::NotFound(_))));
        assert!(matches!(store.delete("act/x"), Err(StoreError::NotFound(_))));
        assert_eq!(store.list().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn puts_after_a_compacted_reopen_survive_the_next_recovery() {
        // Regression: compaction rewrites the WAL empty, so a reopened
        // log restarts numbering at 1 — below the manifest's replay
        // floor. A fresh put must still land *above* the fence, or the
        // next recovery silently drops an acknowledged write.
        let dir = tmp_dir("postcompact");
        {
            let store = BlockStore::open(&dir).unwrap();
            store.put_tensor("a", &sample_tensor(40, 100)).unwrap();
            store.put_tensor("b", &sample_tensor(41, 150)).unwrap();
            store.compact().unwrap();
        }
        {
            let store = BlockStore::open(&dir).unwrap();
            assert!(store.recovery_report().wal_seq_floor > 0);
            store.put_tensor("c", &sample_tensor(42, 120)).unwrap();
        }
        let store = BlockStore::open(&dir).unwrap();
        let rep = store.recovery_report();
        assert_eq!(rep.records_applied, 1, "the post-compaction put must replay");
        assert_eq!(rep.records_skipped, 0);
        assert_eq!(rep.live_entries, 3);
        let names: Vec<String> = store.list().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(store.verify().unwrap(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn state_survives_reopen() {
        let dir = tmp_dir("reopen");
        {
            let store = BlockStore::open(&dir).unwrap();
            store.put_tensor("a", &sample_tensor(3, 100)).unwrap();
            store.put_tensor("b", &sample_tensor(4, 200)).unwrap();
            store.delete("a").unwrap();
            store.put_matrix("m", &sample_matrix(5, 32, 16)).unwrap();
        }
        let store = BlockStore::open(&dir).unwrap();
        let rep = store.recovery_report();
        assert_eq!(rep.records_applied, 4);
        assert_eq!(rep.records_skipped, 0);
        assert_eq!(rep.live_entries, 2);
        assert!(rep.torn_tail.is_none());
        let names: Vec<String> = store.list().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["b", "m"]);
        assert_eq!(
            store.get_tensor("b").unwrap().stream.as_bytes(),
            sample_tensor(4, 200).stream.as_bytes()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrite_takes_the_latest_payload() {
        let dir = tmp_dir("overwrite");
        let store = BlockStore::open(&dir).unwrap();
        store.put_tensor("t", &sample_tensor(6, 50)).unwrap();
        store.put_tensor("t", &sample_tensor(7, 80)).unwrap();
        assert_eq!(
            store.get_tensor("t").unwrap().stream.as_bytes(),
            sample_tensor(7, 80).stream.as_bytes()
        );
        drop(store);
        let store = BlockStore::open(&dir).unwrap();
        assert_eq!(
            store.get_tensor("t").unwrap().stream.as_bytes(),
            sample_tensor(7, 80).stream.as_bytes()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_container_validates_before_accepting() {
        let dir = tmp_dir("ingest");
        let store = BlockStore::open(&dir).unwrap();
        let t = sample_tensor(8, 120);
        let mut image = Vec::new();
        spark_codec::write_container(&t, &mut image).unwrap();
        assert_eq!(store.put_container("ok", &image).unwrap(), 120);

        let mut rot = image.clone();
        let last = rot.len() - 1;
        rot[last] ^= 0x01;
        assert!(matches!(
            store.put_container("bad", &rot),
            Err(StoreError::Container(_))
        ));
        assert_eq!(store.kind_of("bad"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn matrix_image_round_trips_and_rejects_mutations() {
        let m = sample_matrix(9, 70, 33); // ragged last panel
        let image = matrix_image(&m);
        let back = parse_matrix_image(&image).unwrap();
        assert_eq!(back.k(), 70);
        assert_eq!(back.n(), 33);
        assert_eq!(back.profile(), m.profile());
        assert_eq!(back.decode().unwrap().as_slice(), m.decode().unwrap().as_slice());
        // Every truncation of the image is rejected with a typed error.
        for cut in 0..image.len().min(200) {
            assert!(parse_matrix_image(&image[..cut]).is_err(), "cut {cut} accepted");
        }
        // Header-field mutations are rejected.
        for (at, flip) in [(0usize, 0xFFu8), (4, 0x01), (28, 0xFF), (32, 0xFF)] {
            let mut rot = image.clone();
            rot[at] ^= flip;
            assert!(parse_matrix_image(&rot).is_err(), "mutation at {at} accepted");
        }
        std::hint::black_box(back);
    }

    #[test]
    fn concurrent_puts_group_commit_without_loss() {
        let dir = tmp_dir("group");
        let store = std::sync::Arc::new(BlockStore::open(&dir).unwrap());
        let mut handles = Vec::new();
        for thread in 0..4u64 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..8u64 {
                    let name = format!("t/{thread}-{i}");
                    store.put_tensor(&name, &sample_tensor(thread * 100 + i, 64)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.list().len(), 32);
        drop(store);
        let store = BlockStore::open(&dir).unwrap();
        assert_eq!(store.list().len(), 32);
        assert_eq!(store.verify().unwrap(), 32);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_report_json_is_deterministic() {
        let dir = tmp_dir("report");
        {
            let store = BlockStore::open(&dir).unwrap();
            store.put_tensor("x", &sample_tensor(10, 40)).unwrap();
        }
        let a = BlockStore::open(&dir).unwrap().recovery_report().to_json().to_string_compact();
        let b = BlockStore::open(&dir).unwrap().recovery_report().to_json().to_string_compact();
        assert_eq!(a, b);
        assert!(a.contains("\"records_applied\":1"));
        assert!(a.contains("\"torn_tail\":null"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
