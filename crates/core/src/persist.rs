//! Binary persistence for a built index.
//!
//! Time-accumulating deployments restart; rebuilding every block graph costs
//! `O(|D|^1.14 log |D|)` (§4.4.2), so a saved index pays for itself quickly.
//! The format is a single little-endian stream: a header with magic/version,
//! the configuration, the raw data columns, then each block with its graph.
//! Everything is length-prefixed and validated on load; malformed input
//! yields [`MbiError::Corrupt`] (carrying the byte offset where parsing
//! failed) or [`MbiError::ChecksumMismatch`], never a panic.
//!
//! # Format v6: checksummed streams + SQ8 columns
//!
//! Version 5 wrapped the payload of the previous formats in integrity
//! armour so disk corruption is *detected*, not parsed; version 6 keeps the
//! identical envelope and extends the bodies:
//!
//! ```text
//! stream := "MBI1" version:u32 kind:u8 body footer
//! kind   := 0 (MbiIndex, v3-layout body) | 1 (IndexSnapshot, v4-layout body)
//! footer := count:u8 (tag:u8 len:u64 crc:u32)*count footer_crc:u32
//!           footer_len:u32 "MBIF"
//! ```
//!
//! The sections — `header` (magic + version + kind), `config`, `data`,
//! `blocks` — tile the stream exactly; each carries the CRC32 of its bytes,
//! and the footer carries its own CRC. Any single-byte flip anywhere in a
//! v5/v6 stream therefore fails a checksum (or the structural parse) before
//! an index is built from it. v6 appends the SQ8 knobs (`sq8_scan`,
//! `sq8_overfetch`) to the config record and, for snapshots, an optional
//! per-leaf SQ8 column (per-dimension `mins`/`deltas`, the `u8` code matrix,
//! decoded squared norms) after each leaf's float data — so quantized
//! engines restart without re-encoding. Versions 2–5 are still readable;
//! pre-v6 streams load with the SQ8 knobs at their defaults (off).
//! All `save_file` paths write atomically: temp file in the same directory,
//! fsync, rename, directory fsync — a crash mid-save leaves the previous
//! file intact.
//!
//! # Format v7: page-aligned leaf records for the cold tier
//!
//! v7 keeps the v5/v6 envelope (same footer, same four sections) but lays
//! the snapshot `data` section out so [`crate::tier::ColdIndex`] can mmap
//! the file and load each leaf independently, without touching (faulting)
//! the rest:
//!
//! ```text
//! data   := num_leaves:u64 seg_rows:u64 has_norms:u8 has_sq8:u8
//!           leaf_dir[num_leaves] dir_crc:u32 pad(page) record[num_leaves]
//! leaf_dir := record_off:u64 graph_off:u64 graph_len:u64
//!             crc_ts:u32 crc_rows:u32 crc_inv:u32 crc_sq8:u32 crc_graph:u32
//! record := ts:i64[s_l] rows:f32[s_l·d] [inv:f32[s_l]]
//!           [mins:f32[d] deltas:f32[d] row_norm2:f32[s_l] codes:u8[s_l·d]]
//!           graph pad(page)
//! blocks := num_blocks:u64 block_meta[num_blocks] meta_crc:u32 graphs
//! block_meta := rows:u64×2 height:u32 start_ts:i64 end_ts:i64
//!               graph_off:u64 graph_len:u64 graph_crc:u32
//! ```
//!
//! Every record starts on a 4096-byte page boundary and co-locates the leaf
//! block's graph with its vectors (one contiguous read brings in everything
//! a block search needs); offsets are absolute, so the directory alone
//! resolves any leaf. Internal (height ≥ 1) block graphs are concatenated
//! after the block metadata; leaf block entries point back into the leaf
//! records. The per-piece CRCs let the cold reader verify lazily, piece by
//! piece, while the footer's whole-section CRCs still guard eager loads.
//! Index-kind (`MbiIndex`) v7 streams keep the flat v6 body; the config
//! record gains the cold-tier knobs (`ram_budget_bytes`, `cache_shards`) in
//! both kinds. Versions 2–6 remain readable; pre-v7 streams load with the
//! tier knobs at their defaults (everything resident).
//!
//! ```
//! use mbi_core::{MbiConfig, MbiIndex, QueryRequest, TimeWindow};
//! use mbi_math::Metric;
//!
//! let mut index = MbiIndex::new(MbiConfig::new(2, Metric::Euclidean).with_leaf_size(16));
//! for i in 0..50i64 {
//!     index.insert(&[i as f32, 0.0], i).unwrap();
//! }
//! let bytes = index.to_bytes();
//! let restored = MbiIndex::from_bytes(bytes).unwrap();
//! let w = TimeWindow::new(5, 45);
//! let req = QueryRequest::new(&[20.0, 0.0], 3, w);
//! assert_eq!(index.search(&req).results, restored.search(&req).results);
//! ```

use crate::block::{Block, BlockGraph};
use crate::config::{GraphBackend, MbiConfig};
use crate::engine::IndexSnapshot;
use crate::error::MbiError;
use crate::index::MbiIndex;
use crate::times::TimeChunks;
use crate::wal::crc32;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mbi_ann::{
    EntryPolicy, HnswIndex, HnswParams, KnnGraph, NnDescentParams, SearchParams, Segment,
    SegmentStore, Sq8Column, VectorStore,
};
use mbi_math::Metric;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"MBI1";
// v2 appended `query_threads` to the config record. v3 appended the optional
// inverse-norm column (flag byte + `n` f32s) after the vector floats. v4 is
// the *snapshot* layout: leaf-sized segments instead of flat columns. v5
// unifies both kinds under one checksummed envelope (kind byte + per-section
// CRC32s + footer); the body keeps the v3 (index) / v4 (snapshot) layout.
// v6 keeps the v5 envelope and appends the SQ8 knobs to the config record
// plus an optional per-leaf SQ8 code column to snapshot bodies. v7 keeps
// the envelope and rewrites snapshot data sections as page-aligned leaf
// records with CRC directories (see the module docs).
// v2–v6 streams are still readable.
const VERSION: u32 = 7;
const OLDEST_READABLE_VERSION: u32 = 2;
const SNAPSHOT_BODY_VERSION: u32 = 4;
const INDEX_BODY_VERSION: u32 = 3;
/// Body layout of both kinds under a v6 envelope: the legacy layout plus the
/// config extension (and, for snapshots, the per-leaf SQ8 column).
const SQ8_BODY_VERSION: u32 = 6;
/// Body layout under a v7 envelope: the config gains the cold-tier knobs;
/// snapshot data sections become page-aligned self-contained leaf records
/// (index bodies keep the v6 flat layout plus the config extension).
const TIER_BODY_VERSION: u32 = 7;

const KIND_INDEX: u8 = 0;
const KIND_SNAPSHOT: u8 = 1;

const FOOTER_MAGIC: &[u8; 4] = b"MBIF";
/// Section names, in stream order; the footer stores one CRC per section.
const SECTIONS: [&str; 4] = ["header", "config", "data", "blocks"];
/// magic + version + kind.
const HEADER_LEN: usize = 4 + 4 + 1;
/// v7 leaf records start on this boundary, so a mapped read of one record
/// faults only its own pages.
pub(crate) const PAGE: usize = mbi_ann::PAGE_SIZE;
/// v7 leaf-directory entry: `record_off` + `graph_off` + `graph_len` + five
/// per-piece CRCs (ts, rows, inv, sq8, graph).
const LEAF_DIR_ENTRY_LEN: usize = 8 * 3 + 4 * 5;
/// v7 block-directory entry: row range + height + timestamp span + graph
/// location (`graph_off`, `graph_len`, `graph_crc`).
const BLOCK_DIR_ENTRY_LEN: usize = 8 * 2 + 4 + 8 * 2 + 8 * 2 + 4;

/// A byte source that knows its absolute position in the original stream,
/// so every parse failure reports the offset where it happened.
struct Src {
    b: Bytes,
    base: usize,
    len_at_start: usize,
}

impl Src {
    fn new(b: Bytes) -> Self {
        let len_at_start = b.len();
        Src { b, base: 0, len_at_start }
    }

    /// A source for a slice that begins `base` bytes into the full stream.
    fn with_base(b: Bytes, base: usize) -> Self {
        let len_at_start = b.len();
        Src { b, base, len_at_start }
    }

    /// Absolute offset of the next unread byte.
    fn offset(&self) -> usize {
        self.base + self.len_at_start - self.b.remaining()
    }

    fn corrupt(&self, detail: impl Into<String>) -> MbiError {
        MbiError::corrupt(self.offset(), detail)
    }

    fn need(&self, need: usize) -> Result<(), MbiError> {
        if self.b.remaining() < need {
            Err(self.corrupt(format!(
                "truncated stream: need {need} bytes, have {}",
                self.b.remaining()
            )))
        } else {
            Ok(())
        }
    }
}

impl std::ops::Deref for Src {
    type Target = Bytes;

    fn deref(&self) -> &Bytes {
        &self.b
    }
}

impl std::ops::DerefMut for Src {
    fn deref_mut(&mut self) -> &mut Bytes {
        &mut self.b
    }
}

/// Atomically replaces `path` with `bytes`: write to a temp file alongside,
/// fsync it, rename over the target, fsync the directory. A crash at any
/// point leaves either the old file or the new one, never a torn mix.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), MbiError> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = dir.join(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Appends the v5 footer: per-section CRCs, the footer's own CRC, its
/// length, and the trailing magic. `bounds` are the section boundaries
/// (`bounds[i]..bounds[i+1]` is section `i`), tiling `b` exactly.
fn write_footer(b: &mut BytesMut, bounds: &[usize]) {
    debug_assert_eq!(bounds.len(), SECTIONS.len() + 1);
    debug_assert_eq!(*bounds.last().unwrap(), b.len());
    let crcs: Vec<u32> = bounds.windows(2).map(|w| crc32(&b[w[0]..w[1]])).collect();
    let footer_start = b.len();
    b.put_u8(SECTIONS.len() as u8);
    for (tag, (w, crc)) in bounds.windows(2).zip(&crcs).enumerate() {
        b.put_u8(tag as u8);
        b.put_u64_le((w[1] - w[0]) as u64);
        b.put_u32_le(*crc);
    }
    let footer_crc = crc32(&b[footer_start..]);
    b.put_u32_le(footer_crc);
    b.put_u32_le((b.len() - footer_start) as u32);
    b.put_slice(FOOTER_MAGIC);
}

/// Parses and structurally verifies a v5+ footer on a raw byte slice: the
/// footer's own CRC is checked and the sections must tile the stream, but
/// the sections themselves are *not* hashed — [`verify_v5`] does that for
/// eager loads, while the cold (mmap) reader verifies lazily per piece so
/// opening a file never faults its data pages. Returns each section's
/// absolute byte range and stored CRC, in [`SECTIONS`] order.
fn parse_footer(b: &[u8]) -> Result<[(usize, usize, u32); 4], MbiError> {
    let total = b.len();
    // footer_crc + footer_len + trailing magic is the minimal suffix.
    if total < HEADER_LEN + 12 {
        return Err(MbiError::corrupt(total, "truncated stream: no room for v5 footer"));
    }
    if &b[total - 4..] != FOOTER_MAGIC {
        return Err(MbiError::corrupt(total - 4, "bad footer magic"));
    }
    let footer_len = rd_u32(b, total - 8) as usize;
    let trailer_len = footer_len + 8; // + footer_len field + magic
    if footer_len < 9 || trailer_len > total - HEADER_LEN {
        return Err(MbiError::corrupt(
            total - 8,
            format!("implausible footer length {footer_len}"),
        ));
    }
    let footer_start = total - 8 - footer_len;
    let footer = &b[footer_start..total - 8];
    let stored_footer_crc = rd_u32(footer, footer_len - 4);
    let computed = crc32(&footer[..footer_len - 4]);
    if computed != stored_footer_crc {
        return Err(MbiError::ChecksumMismatch {
            section: "footer",
            expected: stored_footer_crc,
            got: computed,
        });
    }
    let count = footer[0] as usize;
    if count != SECTIONS.len() {
        return Err(MbiError::corrupt(
            footer_start,
            format!("expected {} sections, footer lists {count}", SECTIONS.len()),
        ));
    }
    if footer_len != 1 + SECTIONS.len() * (1 + 8 + 4) + 4 {
        return Err(MbiError::corrupt(footer_start, "trailing bytes in footer"));
    }
    let mut sections = [(0usize, 0usize, 0u32); 4];
    let mut pos = 0usize;
    for (i, &name) in SECTIONS.iter().enumerate() {
        let e = 1 + i * (1 + 8 + 4);
        let tag = footer[e] as usize;
        if tag != i {
            return Err(MbiError::corrupt(footer_start + e, format!("section {i} has tag {tag}")));
        }
        let len = rd_u64(footer, e + 1) as usize;
        let end = pos.checked_add(len).filter(|&end| end <= footer_start);
        let Some(end) = end else {
            return Err(MbiError::corrupt(
                footer_start + e + 1,
                format!("section {name:?} of {len} bytes overruns the stream"),
            ));
        };
        sections[i] = (pos, end, rd_u32(footer, e + 9));
        pos = end;
    }
    if pos != footer_start {
        return Err(MbiError::corrupt(pos, "sections do not tile the stream"));
    }
    Ok(sections)
}

/// Verifies a v5 stream's footer and every section CRC; returns the body
/// region `(start, end)` — the bytes after the kind byte, before the footer.
fn verify_v5(b: &[u8]) -> Result<(usize, usize), MbiError> {
    let sections = parse_footer(b)?;
    for (&name, &(start, end, expected)) in SECTIONS.iter().zip(&sections) {
        let got = crc32(&b[start..end]);
        if got != expected {
            return Err(MbiError::ChecksumMismatch { section: name, expected, got });
        }
    }
    Ok((HEADER_LEN, sections[3].1))
}

fn rd_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

fn rd_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

pub(crate) fn rd_i64(b: &[u8], off: usize) -> i64 {
    i64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

pub(crate) fn rd_f32(b: &[u8], off: usize) -> f32 {
    f32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

impl MbiIndex {
    /// Serialises the index to `w`.
    pub fn save_to(&self, w: &mut impl Write) -> Result<(), MbiError> {
        let buf = self.to_bytes();
        w.write_all(&buf)?;
        Ok(())
    }

    /// Serialises the index to a file at `path`, atomically: the bytes land
    /// in a temp file that is fsynced and renamed over the target, so a
    /// crash mid-save never leaves a half-written index.
    pub fn save_file(&self, path: impl AsRef<Path>) -> Result<(), MbiError> {
        atomic_write(path.as_ref(), &self.to_bytes())
    }

    /// Deserialises an index from `r`.
    pub fn load_from(r: &mut impl Read) -> Result<Self, MbiError> {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        Self::from_bytes(Bytes::from(buf))
    }

    /// Deserialises an index from a file at `path`.
    pub fn load_file(path: impl AsRef<Path>) -> Result<Self, MbiError> {
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        Self::load_from(&mut f)
    }

    /// Serialises the index into one contiguous buffer (v5: checksummed
    /// sections + footer).
    pub fn to_bytes(&self) -> Bytes {
        self.encode(VERSION)
    }

    /// Serialises in the pre-norm-column v2 layout. Kept (hidden) so the
    /// backward-compatibility tests can produce genuine v2 streams.
    #[doc(hidden)]
    pub fn to_bytes_v2(&self) -> Bytes {
        self.encode(2)
    }

    /// Serialises in the unchecksummed v3 layout (hidden, for
    /// backward-compatibility tests).
    #[doc(hidden)]
    pub fn to_bytes_v3(&self) -> Bytes {
        self.encode(3)
    }

    /// Serialises in the checksummed pre-SQ8 v5 layout (hidden, for
    /// backward-compatibility tests).
    #[doc(hidden)]
    pub fn to_bytes_v5(&self) -> Bytes {
        self.encode(5)
    }

    /// Serialises in the pre-cold-tier v6 layout (hidden, for
    /// backward-compatibility tests).
    #[doc(hidden)]
    pub fn to_bytes_v6(&self) -> Bytes {
        self.encode(6)
    }

    fn encode(&self, version: u32) -> Bytes {
        let body_version = match version {
            v if v >= 7 => TIER_BODY_VERSION,
            6 => SQ8_BODY_VERSION,
            5 => INDEX_BODY_VERSION,
            v => v,
        };
        let mut b = BytesMut::with_capacity(128 + self.data_bytes() + self.index_memory_bytes());
        b.put_slice(MAGIC);
        b.put_u32_le(version);
        if version >= 5 {
            b.put_u8(KIND_INDEX);
        }
        let mut bounds = vec![0, b.len()];
        write_config(&mut b, &self.config, body_version);
        bounds.push(b.len());

        let n = self.timestamps.len();
        b.put_u64_le(n as u64);
        for &t in &self.timestamps {
            b.put_i64_le(t);
        }
        for &v in self.store.as_flat() {
            b.put_f32_le(v);
        }
        if body_version >= 3 {
            match self.store.inv_norms() {
                Some(inv) => {
                    b.put_u8(1);
                    for &x in inv {
                        b.put_f32_le(x);
                    }
                }
                None => b.put_u8(0),
            }
        }
        bounds.push(b.len());

        b.put_u64_le(self.num_leaves as u64);
        b.put_u64_le(self.blocks.len() as u64);
        for block in &self.blocks {
            b.put_u64_le(block.rows.start as u64);
            b.put_u64_le(block.rows.end as u64);
            b.put_u32_le(block.height);
            b.put_i64_le(block.start_ts);
            b.put_i64_le(block.end_ts);
            write_graph(&mut b, &block.graph);
        }
        bounds.push(b.len());
        if version >= 5 {
            write_footer(&mut b, &bounds);
        }
        b.freeze()
    }

    /// Deserialises an index from one contiguous buffer.
    pub fn from_bytes(b: Bytes) -> Result<Self, MbiError> {
        let mut src = Src::new(b.clone());
        src.need(8)?;
        let mut magic = [0u8; 4];
        src.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(MbiError::corrupt(0, "bad magic"));
        }
        let version = src.get_u32_le();
        match version {
            2 | 3 => decode_index_body(&mut src, version),
            4 => Err(src.corrupt("version 4 streams hold a snapshot, not an index")),
            5..=7 => {
                src.need(1)?;
                if src.get_u8() != KIND_INDEX {
                    return Err(MbiError::corrupt(8, "stream holds a snapshot, not an index"));
                }
                let (start, end) = verify_v5(&b)?;
                let mut src = Src::with_base(b.slice(start..end), start);
                let body = match version {
                    7 => TIER_BODY_VERSION,
                    6 => SQ8_BODY_VERSION,
                    _ => INDEX_BODY_VERSION,
                };
                decode_index_body(&mut src, body)
            }
            v => Err(MbiError::corrupt(4, format!("unsupported version {v}"))),
        }
    }
}

/// Decodes an index body (config / data / blocks) laid out as
/// `body_version` (2 or 3), consuming `src` exactly.
fn decode_index_body(src: &mut Src, body_version: u32) -> Result<MbiIndex, MbiError> {
    debug_assert!(
        (OLDEST_READABLE_VERSION..=INDEX_BODY_VERSION).contains(&body_version)
            || body_version == SQ8_BODY_VERSION
            || body_version == TIER_BODY_VERSION
    );
    let config = read_config(src, body_version)?;

    src.need(8)?;
    let n = src.get_u64_le() as usize;
    src.need(n.checked_mul(8).ok_or_else(|| overflow(src))?)?;
    let mut timestamps = Vec::with_capacity(n);
    for _ in 0..n {
        timestamps.push(src.get_i64_le());
    }
    for (i, pair) in timestamps.windows(2).enumerate() {
        if pair[1] < pair[0] {
            return Err(MbiError::corrupt(src.offset() - (n - i - 1) * 8, "timestamps not sorted"));
        }
    }
    let floats = n.checked_mul(config.dim).ok_or_else(|| overflow(src))?;
    src.need(floats.checked_mul(4).ok_or_else(|| overflow(src))?)?;
    let mut flat = Vec::with_capacity(floats);
    for _ in 0..floats {
        flat.push(src.get_f32_le());
    }
    let has_norms = if body_version >= 3 {
        src.need(1)?;
        src.get_u8() != 0
    } else {
        false
    };
    let mut store = if has_norms {
        src.need(n.checked_mul(4).ok_or_else(|| overflow(src))?)?;
        let mut inv = Vec::with_capacity(n);
        for _ in 0..n {
            let x = src.get_f32_le();
            if !x.is_finite() || x < 0.0 {
                return Err(MbiError::corrupt(
                    src.offset() - 4,
                    format!("invalid inverse norm {x}"),
                ));
            }
            inv.push(x);
        }
        VectorStore::from_flat_with_inv_norms(config.dim, flat, inv)
    } else {
        VectorStore::from_flat(config.dim, flat)
    };
    // v2 streams (and v3 streams written without the column) predate the
    // cache; angular indexes recompute it so loaded indexes query
    // identically to freshly built ones.
    if config.metric == Metric::Angular && !store.has_norm_cache() {
        store.enable_norm_cache();
    }

    src.need(16)?;
    let num_leaves = src.get_u64_le() as usize;
    let num_blocks = src.get_u64_le() as usize;
    if num_leaves.checked_mul(config.leaf_size).is_none_or(|rows| rows > n) {
        return Err(src.corrupt("leaf count exceeds data"));
    }
    let mut blocks = Vec::with_capacity(num_blocks.min(1 << 20));
    for _ in 0..num_blocks {
        src.need(8 * 2 + 4 + 8 * 2)?;
        let start = src.get_u64_le() as usize;
        let end = src.get_u64_le() as usize;
        let height = src.get_u32_le();
        let start_ts = src.get_i64_le();
        let end_ts = src.get_i64_le();
        if start > end || end > n || end_ts <= start_ts {
            return Err(src.corrupt("invalid block bounds"));
        }
        let graph = read_graph(src, end - start)?;
        blocks.push(Block { rows: start..end, height, start_ts, end_ts, graph });
    }
    if src.has_remaining() {
        return Err(src.corrupt("trailing bytes"));
    }
    let index = MbiIndex { config, store, timestamps, blocks, num_leaves };
    // Full structural validation: persisted bytes may come from an
    // untrusted source, and a structurally inconsistent index would
    // return wrong answers rather than crash.
    index.validate().map_err(|detail| MbiError::corrupt(0, detail))?;
    Ok(index)
}

impl IndexSnapshot {
    /// Serialises the snapshot to `w`.
    pub fn save_to(&self, w: &mut impl Write) -> Result<(), MbiError> {
        w.write_all(&self.to_bytes())?;
        Ok(())
    }

    /// Serialises the snapshot to a file at `path`, atomically (temp file +
    /// fsync + rename, like [`MbiIndex::save_file`]).
    pub fn save_file(&self, path: impl AsRef<Path>) -> Result<(), MbiError> {
        atomic_write(path.as_ref(), &self.to_bytes())
    }

    /// Deserialises a snapshot from `r`.
    pub fn load_from(r: &mut impl Read) -> Result<Self, MbiError> {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        Self::from_bytes(Bytes::from(buf))
    }

    /// Deserialises a snapshot from a file at `path`.
    pub fn load_file(path: impl AsRef<Path>) -> Result<Self, MbiError> {
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        Self::load_from(&mut f)
    }

    /// Serialises the snapshot into one contiguous buffer (v7: checksummed
    /// sections + footer over page-aligned, directory-indexed leaf records
    /// that a [`crate::tier::ColdIndex`] can serve straight off disk).
    pub fn to_bytes(&self) -> Bytes {
        self.encode_v7()
    }

    /// Serialises in the unchecksummed v4 layout (hidden, for
    /// backward-compatibility tests).
    #[doc(hidden)]
    pub fn to_bytes_v4(&self) -> Bytes {
        self.encode(SNAPSHOT_BODY_VERSION)
    }

    /// Serialises in the checksummed pre-SQ8 v5 layout (hidden, for
    /// backward-compatibility tests).
    #[doc(hidden)]
    pub fn to_bytes_v5(&self) -> Bytes {
        self.encode(5)
    }

    /// Serialises in the pre-cold-tier v6 layout (hidden, for
    /// backward-compatibility tests).
    #[doc(hidden)]
    pub fn to_bytes_v6(&self) -> Bytes {
        self.encode(6)
    }

    /// Encodes the legacy (≤ v6) streaming layouts — one leaf after another
    /// with no alignment or per-piece directory.
    fn encode(&self, version: u32) -> Bytes {
        debug_assert!(version < TIER_BODY_VERSION, "v7 snapshots use encode_v7");
        let body_version = if version >= 6 { SQ8_BODY_VERSION } else { SNAPSHOT_BODY_VERSION };
        let config = self.config();
        let s_l = config.leaf_size;
        let store = self.store();
        let mut b = BytesMut::with_capacity(128 + store.memory_bytes());
        b.put_slice(MAGIC);
        b.put_u32_le(version);
        if version >= 5 {
            b.put_u8(KIND_SNAPSHOT);
        }
        let mut bounds = vec![0, b.len()];
        write_config(&mut b, config, body_version);
        bounds.push(b.len());
        b.put_u64_le(self.num_leaves() as u64);
        b.put_u64_le(s_l as u64);
        let has_norms = store.segments().first().is_some_and(|s| s.has_norm_cache());
        b.put_u8(u8::from(has_norms));
        let has_sq8 = body_version >= SQ8_BODY_VERSION && store.has_sq8();
        if body_version >= SQ8_BODY_VERSION {
            b.put_u8(u8::from(has_sq8));
        }
        for (seg, chunk) in store.segments().iter().zip(self.times().chunks()) {
            for &t in chunk.iter() {
                b.put_i64_le(t);
            }
            for &v in seg.as_flat() {
                b.put_f32_le(v);
            }
            if has_norms {
                let inv = seg.inv_norms().expect("norm flag implies a cached column");
                for &x in inv {
                    b.put_f32_le(x);
                }
            }
            if has_sq8 {
                let col = seg.sq8().expect("sq8 flag implies a uniform code column");
                for &m in col.mins() {
                    b.put_f32_le(m);
                }
                for &d in col.deltas() {
                    b.put_f32_le(d);
                }
                b.put_slice(col.codes());
                for &n2 in col.row_norm2() {
                    b.put_f32_le(n2);
                }
            }
        }
        bounds.push(b.len());
        b.put_u64_le(self.blocks().len() as u64);
        for block in self.blocks() {
            b.put_u64_le(block.rows.start as u64);
            b.put_u64_le(block.rows.end as u64);
            b.put_u32_le(block.height);
            b.put_i64_le(block.start_ts);
            b.put_i64_le(block.end_ts);
            write_graph(&mut b, &block.graph);
        }
        bounds.push(b.len());
        if version >= 5 {
            write_footer(&mut b, &bounds);
        }
        b.freeze()
    }

    /// Encodes the v7 layout: a leaf directory with per-piece CRCs, then one
    /// page-aligned, self-contained record per leaf (timestamps, rows,
    /// optional norm and SQ8 columns, the leaf block's graph), then the
    /// block metadata with a graph directory and the internal-block graphs.
    fn encode_v7(&self) -> Bytes {
        let config = self.config();
        let dim = config.dim;
        let s_l = config.leaf_size;
        let store = self.store();
        let num_leaves = self.num_leaves();
        let has_norms = store.segments().first().is_some_and(|s| s.has_norm_cache());
        let has_sq8 = store.has_sq8();

        // Serialise every block graph up front: the directories need graph
        // lengths and CRCs before the first record byte is written.
        let graphs: Vec<Bytes> = self
            .blocks()
            .iter()
            .map(|blk| {
                let mut g = BytesMut::new();
                write_graph(&mut g, &blk.graph);
                g.freeze()
            })
            .collect();
        // The i-th height-0 block in postorder is leaf i (left to right in
        // time order); its graph is co-located with the leaf's record.
        let leaf_block: Vec<usize> = self
            .blocks()
            .iter()
            .enumerate()
            .filter(|(_, blk)| blk.height == 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(leaf_block.len(), num_leaves, "one height-0 block per sealed leaf");

        let ts_len = s_l * 8;
        let rows_len = s_l * dim * 4;
        let inv_len = if has_norms { s_l * 4 } else { 0 };
        let sq8_len = if has_sq8 { dim * 8 + s_l * 4 + s_l * dim } else { 0 };
        let payload_len = ts_len + rows_len + inv_len + sq8_len;

        struct LeafBlob {
            payload: Vec<u8>,
            graph: Bytes,
            crcs: [u32; 5],
        }
        let mut blobs = Vec::with_capacity(num_leaves);
        for (i, (seg, chunk)) in store.segments().iter().zip(self.times().chunks()).enumerate() {
            let mut p = Vec::with_capacity(payload_len);
            for &t in chunk.iter() {
                p.extend_from_slice(&t.to_le_bytes());
            }
            for &v in seg.as_flat() {
                p.extend_from_slice(&v.to_le_bytes());
            }
            if has_norms {
                let inv = seg.inv_norms().expect("norm flag implies a cached column");
                for &x in inv {
                    p.extend_from_slice(&x.to_le_bytes());
                }
            }
            if has_sq8 {
                let col = seg.sq8().expect("sq8 flag implies a uniform code column");
                for &m in col.mins() {
                    p.extend_from_slice(&m.to_le_bytes());
                }
                for &d in col.deltas() {
                    p.extend_from_slice(&d.to_le_bytes());
                }
                for &n2 in col.row_norm2() {
                    p.extend_from_slice(&n2.to_le_bytes());
                }
                p.extend_from_slice(col.codes());
            }
            debug_assert_eq!(p.len(), payload_len);
            let graph = graphs[leaf_block[i]].clone();
            let crcs = [
                crc32(&p[..ts_len]),
                crc32(&p[ts_len..ts_len + rows_len]),
                if has_norms {
                    crc32(&p[ts_len + rows_len..ts_len + rows_len + inv_len])
                } else {
                    0
                },
                if has_sq8 { crc32(&p[payload_len - sq8_len..]) } else { 0 },
                crc32(&graph),
            ];
            blobs.push(LeafBlob { payload: p, graph, crcs });
        }

        let graph_total: usize = graphs.iter().map(Bytes::len).sum();
        let mut b = BytesMut::with_capacity(
            (256 + num_leaves * (payload_len + LEAF_DIR_ENTRY_LEN) + graph_total)
                .next_multiple_of(PAGE)
                + num_leaves * PAGE,
        );
        b.put_slice(MAGIC);
        b.put_u32_le(VERSION);
        b.put_u8(KIND_SNAPSHOT);
        let mut bounds = vec![0, b.len()];
        write_config(&mut b, config, TIER_BODY_VERSION);
        bounds.push(b.len());

        let data_start = b.len();
        b.put_u64_le(num_leaves as u64);
        b.put_u64_le(s_l as u64);
        b.put_u8(u8::from(has_norms));
        b.put_u8(u8::from(has_sq8));
        let dir_end = b.len() + num_leaves * LEAF_DIR_ENTRY_LEN + 4;
        let mut record_offs = Vec::with_capacity(num_leaves);
        let mut rec_off = dir_end.next_multiple_of(PAGE);
        for blob in &blobs {
            let graph_off = rec_off + payload_len;
            b.put_u64_le(rec_off as u64);
            b.put_u64_le(graph_off as u64);
            b.put_u64_le(blob.graph.len() as u64);
            for crc in blob.crcs {
                b.put_u32_le(crc);
            }
            record_offs.push(rec_off);
            rec_off = (graph_off + blob.graph.len()).next_multiple_of(PAGE);
        }
        let dir_crc = crc32(&b[data_start..]);
        b.put_u32_le(dir_crc);
        debug_assert_eq!(b.len(), dir_end);
        for (blob, &off) in blobs.iter().zip(&record_offs) {
            pad_to(&mut b, off);
            b.put_slice(&blob.payload);
            b.put_slice(&blob.graph);
        }
        let data_end = b.len().next_multiple_of(PAGE);
        pad_to(&mut b, data_end);
        bounds.push(b.len());

        let blocks_start = b.len();
        b.put_u64_le(self.blocks().len() as u64);
        let entries_end = b.len() + self.blocks().len() * BLOCK_DIR_ENTRY_LEN;
        let mut g_off = entries_end + 4; // + meta_crc
        let mut leaf_ix = 0usize;
        for (i, blk) in self.blocks().iter().enumerate() {
            let (graph_off, graph_len, graph_crc) = if blk.height == 0 {
                let blob = &blobs[leaf_ix];
                let off = record_offs[leaf_ix] + payload_len;
                leaf_ix += 1;
                (off, blob.graph.len(), blob.crcs[4])
            } else {
                let off = g_off;
                g_off += graphs[i].len();
                (off, graphs[i].len(), crc32(&graphs[i]))
            };
            b.put_u64_le(blk.rows.start as u64);
            b.put_u64_le(blk.rows.end as u64);
            b.put_u32_le(blk.height);
            b.put_i64_le(blk.start_ts);
            b.put_i64_le(blk.end_ts);
            b.put_u64_le(graph_off as u64);
            b.put_u64_le(graph_len as u64);
            b.put_u32_le(graph_crc);
        }
        let meta_crc = crc32(&b[blocks_start..]);
        b.put_u32_le(meta_crc);
        for (i, blk) in self.blocks().iter().enumerate() {
            if blk.height != 0 {
                b.put_slice(&graphs[i]);
            }
        }
        bounds.push(b.len());
        write_footer(&mut b, &bounds);
        b.freeze()
    }

    /// Deserialises a snapshot from one contiguous buffer. Accepts the
    /// native checksummed v5 layout, the unchecksummed v4 layout, plus
    /// v2/v3/v5 [`MbiIndex`] streams (converted via
    /// [`IndexSnapshot::from_index`] — fails with [`MbiError::UnsealedTail`]
    /// if the stored index has tail rows).
    pub fn from_bytes(b: Bytes) -> Result<Self, MbiError> {
        let mut src = Src::new(b.clone());
        src.need(8)?;
        let mut magic = [0u8; 4];
        src.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(MbiError::corrupt(0, "bad magic"));
        }
        let version = src.get_u32_le();
        match version {
            // Pre-v4 streams are whole MbiIndex streams, re-read from the top.
            2 | 3 => IndexSnapshot::from_index(&MbiIndex::from_bytes(b)?),
            4 => decode_snapshot_body(&mut src, SNAPSHOT_BODY_VERSION),
            5 | 6 => {
                src.need(1)?;
                let kind = src.get_u8();
                let (start, end) = verify_v5(&b)?;
                let body = if version >= 6 { SQ8_BODY_VERSION } else { SNAPSHOT_BODY_VERSION };
                match kind {
                    KIND_SNAPSHOT => {
                        let mut src = Src::with_base(b.slice(start..end), start);
                        decode_snapshot_body(&mut src, body)
                    }
                    KIND_INDEX => IndexSnapshot::from_index(&MbiIndex::from_bytes(b)?),
                    k => Err(MbiError::corrupt(8, format!("unknown stream kind {k}"))),
                }
            }
            7 => {
                src.need(1)?;
                let kind = src.get_u8();
                verify_v5(&b)?;
                match kind {
                    KIND_SNAPSHOT => decode_snapshot_v7(&b),
                    KIND_INDEX => IndexSnapshot::from_index(&MbiIndex::from_bytes(b)?),
                    k => Err(MbiError::corrupt(8, format!("unknown stream kind {k}"))),
                }
            }
            v => Err(MbiError::corrupt(4, format!("unsupported version {v}"))),
        }
    }
}

/// Decodes a snapshot body (config / leaf records / blocks) in the v4 or v6
/// layout, consuming `src` exactly.
fn decode_snapshot_body(src: &mut Src, body_version: u32) -> Result<IndexSnapshot, MbiError> {
    let config = read_config(src, body_version)?;
    src.need(8 + 8 + 1)?;
    let num_leaves = src.get_u64_le() as usize;
    let seg_rows = src.get_u64_le() as usize;
    if seg_rows != config.leaf_size {
        return Err(src.corrupt(format!(
            "segment rows {seg_rows} do not match leaf size {}",
            config.leaf_size
        )));
    }
    let has_norms = src.get_u8() != 0;
    if config.metric == Metric::Angular && !has_norms {
        return Err(src.corrupt("angular snapshot lacks norm column"));
    }
    let has_sq8 = if body_version >= SQ8_BODY_VERSION {
        src.need(1)?;
        src.get_u8() != 0
    } else {
        false
    };
    let leaf_bytes = seg_rows * 8
        + seg_rows * config.dim * 4
        + if has_norms { seg_rows * 4 } else { 0 }
        + if has_sq8 { config.dim * 8 + seg_rows * config.dim + seg_rows * 4 } else { 0 };
    let mut store = SegmentStore::new(config.dim, seg_rows);
    let mut times = TimeChunks::new(seg_rows);
    for _ in 0..num_leaves {
        src.need(leaf_bytes)?;
        let mut chunk = Vec::with_capacity(seg_rows);
        for _ in 0..seg_rows {
            chunk.push(src.get_i64_le());
        }
        let mut flat = Vec::with_capacity(seg_rows * config.dim);
        for _ in 0..seg_rows * config.dim {
            flat.push(src.get_f32_le());
        }
        let leaf_store = if has_norms {
            let mut inv = Vec::with_capacity(seg_rows);
            for _ in 0..seg_rows {
                let x = src.get_f32_le();
                if !x.is_finite() || x < 0.0 {
                    return Err(MbiError::corrupt(
                        src.offset() - 4,
                        format!("invalid inverse norm {x}"),
                    ));
                }
                inv.push(x);
            }
            VectorStore::from_flat_with_inv_norms(config.dim, flat, inv)
        } else {
            VectorStore::from_flat(config.dim, flat)
        };
        let mut seg = Segment::from_store(leaf_store);
        if has_sq8 {
            seg.attach_sq8(read_sq8_column(src, config.dim, seg_rows)?);
        } else if config.sq8_scan {
            // A quantizing engine must see a uniformly quantized store even
            // when restoring from a pre-v6 (or hand-built exact) stream.
            seg.build_sq8();
        }
        store.push_segment(Arc::new(seg));
        times.push_chunk(chunk.into());
    }
    src.need(8)?;
    let num_blocks = src.get_u64_le() as usize;
    let n = num_leaves * seg_rows;
    let mut blocks = Vec::with_capacity(num_blocks.min(1 << 20));
    for _ in 0..num_blocks {
        src.need(8 * 2 + 4 + 8 * 2)?;
        let start = src.get_u64_le() as usize;
        let end = src.get_u64_le() as usize;
        let height = src.get_u32_le();
        let start_ts = src.get_i64_le();
        let end_ts = src.get_i64_le();
        if start > end || end > n || end_ts <= start_ts {
            return Err(src.corrupt("invalid block bounds"));
        }
        let graph = read_graph(src, end - start)?;
        blocks.push(Arc::new(Block { rows: start..end, height, start_ts, end_ts, graph }));
    }
    if src.has_remaining() {
        return Err(src.corrupt("trailing bytes"));
    }
    let snap =
        IndexSnapshot { config, store, times, blocks: blocks.into_iter().collect(), num_leaves };
    snap.validate().map_err(|detail| MbiError::corrupt(0, detail))?;
    Ok(snap)
}

fn overflow(src: &Src) -> MbiError {
    src.corrupt("size overflow")
}

/// Zero-fills `b` up to absolute offset `target` (v7 page padding).
fn pad_to(b: &mut BytesMut, target: usize) {
    const ZEROS: [u8; PAGE] = [0; PAGE];
    debug_assert!(target >= b.len());
    let mut need = target - b.len();
    while need > 0 {
        let n = need.min(PAGE);
        b.put_slice(&ZEROS[..n]);
        need -= n;
    }
}

/// A bounded little-endian cursor over a raw byte slice — the borrow-only
/// analogue of [`Src`] for the v7 directories, which must be parseable off a
/// memory map without copying (or faulting) anything beyond themselves.
/// Callers reserve with [`RawSrc::need`] before the `get_*` calls, exactly
/// like [`Src`].
struct RawSrc<'a> {
    b: &'a [u8],
    pos: usize,
    end: usize,
}

impl<'a> RawSrc<'a> {
    fn new(b: &'a [u8], pos: usize, end: usize) -> Self {
        debug_assert!(pos <= end && end <= b.len());
        RawSrc { b, pos, end }
    }

    fn corrupt(&self, detail: impl Into<String>) -> MbiError {
        MbiError::corrupt(self.pos, detail)
    }

    fn need(&self, need: usize) -> Result<(), MbiError> {
        if self.end - self.pos < need {
            Err(self.corrupt(format!(
                "truncated stream: need {need} bytes, have {}",
                self.end - self.pos
            )))
        } else {
            Ok(())
        }
    }

    fn get_u8(&mut self) -> u8 {
        let x = self.b[self.pos];
        self.pos += 1;
        x
    }

    fn get_u32_le(&mut self) -> u32 {
        let x = rd_u32(self.b, self.pos);
        self.pos += 4;
        x
    }

    fn get_u64_le(&mut self) -> u64 {
        let x = rd_u64(self.b, self.pos);
        self.pos += 8;
        x
    }

    fn get_i64_le(&mut self) -> i64 {
        let x = rd_i64(self.b, self.pos);
        self.pos += 8;
        x
    }
}

/// Where one leaf's record lives in a v7 stream: the page-aligned record
/// offset, the co-located graph, and the per-piece CRCs from the directory.
#[derive(Clone, Copy, Debug)]
pub(crate) struct V7Leaf {
    /// Absolute, page-aligned offset of the record (timestamps first).
    pub(crate) record_off: usize,
    /// Absolute offset of the leaf block's serialized graph.
    pub(crate) graph_off: usize,
    /// Serialized graph length in bytes.
    pub(crate) graph_len: usize,
    /// CRC32 of the timestamp column.
    pub(crate) crc_ts: u32,
    /// CRC32 of the row (f32 vector) column.
    pub(crate) crc_rows: u32,
    /// CRC32 of the inverse-norm column; 0 when the stream has none.
    pub(crate) crc_inv: u32,
    /// CRC32 of the SQ8 column group; 0 when the stream has none.
    pub(crate) crc_sq8: u32,
    /// CRC32 of the serialized graph.
    pub(crate) crc_graph: u32,
}

/// One block's metadata from a v7 blocks section, graph unloaded: enough to
/// run block selection and to fetch + verify the graph on demand.
#[derive(Clone, Debug)]
pub(crate) struct V7BlockMeta {
    /// Global row range the block covers.
    pub(crate) rows: std::ops::Range<usize>,
    /// Height in the postorder tree (0 = leaf).
    pub(crate) height: u32,
    /// Minimum timestamp in the block.
    pub(crate) start_ts: i64,
    /// One past the maximum timestamp in the block.
    pub(crate) end_ts: i64,
    /// Absolute offset of the serialized graph (into the leaf record for
    /// height-0 blocks, into the blocks section otherwise).
    pub(crate) graph_off: usize,
    /// Serialized graph length in bytes.
    pub(crate) graph_len: usize,
    /// CRC32 of the serialized graph.
    pub(crate) graph_crc: u32,
}

/// The parsed geometry of a v7 snapshot stream: config, flags, and where
/// every leaf record and block graph lives — everything a reader (eager or
/// cold/mmap) needs to load pieces independently. Parsing verifies the
/// footer, the header and config sections, and both directory CRCs, but
/// never reads a record payload: opening a cold file faults only the
/// directory pages.
pub(crate) struct V7Layout {
    pub(crate) config: MbiConfig,
    pub(crate) num_leaves: usize,
    pub(crate) seg_rows: usize,
    pub(crate) has_norms: bool,
    pub(crate) has_sq8: bool,
    pub(crate) leaves: Vec<V7Leaf>,
    pub(crate) blocks: Vec<V7BlockMeta>,
}

impl V7Layout {
    /// Bytes of one record's timestamp column.
    pub(crate) fn ts_len(&self) -> usize {
        self.seg_rows * 8
    }

    /// Bytes of one record's f32 row column.
    pub(crate) fn rows_len(&self) -> usize {
        self.seg_rows * self.config.dim * 4
    }

    /// Bytes of one record's inverse-norm column (0 when absent).
    pub(crate) fn inv_len(&self) -> usize {
        if self.has_norms {
            self.seg_rows * 4
        } else {
            0
        }
    }

    /// Bytes of one record's SQ8 column group (0 when absent): mins, deltas,
    /// row norms, codes.
    pub(crate) fn sq8_len(&self) -> usize {
        if self.has_sq8 {
            self.config.dim * 8 + self.seg_rows * 4 + self.seg_rows * self.config.dim
        } else {
            0
        }
    }

    /// Bytes of one record before its graph.
    pub(crate) fn payload_len(&self) -> usize {
        self.ts_len() + self.rows_len() + self.inv_len() + self.sq8_len()
    }
}

/// Parses a v7 snapshot stream's directories off a raw byte slice. See
/// [`V7Layout`] for what is (and deliberately is not) verified here.
pub(crate) fn parse_v7_layout(b: &[u8]) -> Result<V7Layout, MbiError> {
    if b.len() < HEADER_LEN {
        return Err(MbiError::corrupt(b.len(), "truncated stream: no room for header"));
    }
    if &b[..4] != MAGIC {
        return Err(MbiError::corrupt(0, "bad magic"));
    }
    let version = rd_u32(b, 4);
    if !(TIER_BODY_VERSION..=VERSION).contains(&version) {
        return Err(MbiError::corrupt(
            4,
            format!("version {version} stream has no tiered (v7) layout"),
        ));
    }
    if b[8] != KIND_SNAPSHOT {
        return Err(MbiError::corrupt(8, "cold open requires a snapshot stream"));
    }
    let sections = parse_footer(b)?;
    // Header and config are a few dozen bytes: verify them eagerly.
    for i in [0, 1] {
        let (start, end, expected) = sections[i];
        let got = crc32(&b[start..end]);
        if got != expected {
            return Err(MbiError::ChecksumMismatch { section: SECTIONS[i], expected, got });
        }
    }
    let (c0, c1, _) = sections[1];
    let mut cfg = Src::with_base(Bytes::from(b[c0..c1].to_vec()), c0);
    let config = read_config(&mut cfg, TIER_BODY_VERSION)?;
    if cfg.has_remaining() {
        return Err(cfg.corrupt("trailing bytes in config section"));
    }

    let (d0, d1, _) = sections[2];
    let mut d = RawSrc::new(b, d0, d1);
    d.need(8 + 8 + 1 + 1)?;
    let num_leaves = d.get_u64_le() as usize;
    let seg_rows = d.get_u64_le() as usize;
    let has_norms = d.get_u8() != 0;
    let has_sq8 = d.get_u8() != 0;
    if seg_rows != config.leaf_size {
        return Err(MbiError::corrupt(
            d0 + 8,
            format!("segment rows {seg_rows} do not match leaf size {}", config.leaf_size),
        ));
    }
    if config.metric == Metric::Angular && !has_norms {
        return Err(MbiError::corrupt(d0 + 16, "angular snapshot lacks norm column"));
    }
    let ovf = |at: usize| MbiError::corrupt(at, "size overflow");
    let dir_bytes = num_leaves.checked_mul(LEAF_DIR_ENTRY_LEN).ok_or_else(|| ovf(d.pos))?;
    d.need(dir_bytes + 4)?;
    let dir_end = d.pos + dir_bytes;
    let stored_dir_crc = rd_u32(b, dir_end);
    let got_dir_crc = crc32(&b[d0..dir_end]);
    if got_dir_crc != stored_dir_crc {
        return Err(MbiError::ChecksumMismatch {
            section: "leaf directory",
            expected: stored_dir_crc,
            got: got_dir_crc,
        });
    }
    let mut leaves = Vec::with_capacity(num_leaves);
    for _ in 0..num_leaves {
        leaves.push(V7Leaf {
            record_off: d.get_u64_le() as usize,
            graph_off: d.get_u64_le() as usize,
            graph_len: d.get_u64_le() as usize,
            crc_ts: d.get_u32_le(),
            crc_rows: d.get_u32_le(),
            crc_inv: d.get_u32_le(),
            crc_sq8: d.get_u32_le(),
            crc_graph: d.get_u32_le(),
        });
    }
    let layout_stub =
        V7Layout { config, num_leaves, seg_rows, has_norms, has_sq8, leaves, blocks: Vec::new() };
    // Geometry: records are page-aligned, non-overlapping, graph contiguous
    // with its payload, everything inside the data section.
    let payload_len = seg_rows
        .checked_mul(8 + config.dim * 4 + usize::from(has_norms) * 4)
        .and_then(|x| {
            if has_sq8 {
                x.checked_add(config.dim * 8 + seg_rows * 4 + seg_rows * config.dim)
            } else {
                Some(x)
            }
        })
        .ok_or_else(|| ovf(d0))?;
    debug_assert_eq!(payload_len, layout_stub.payload_len());
    let mut prev_end = dir_end + 4;
    for (i, leaf) in layout_stub.leaves.iter().enumerate() {
        let at = d0 + 18 + i * LEAF_DIR_ENTRY_LEN;
        if leaf.record_off % PAGE != 0 {
            return Err(MbiError::corrupt(at, "leaf record not page-aligned"));
        }
        if leaf.record_off < prev_end {
            return Err(MbiError::corrupt(at, "overlapping leaf records"));
        }
        let payload_end = leaf.record_off.checked_add(payload_len).ok_or_else(|| ovf(at))?;
        if leaf.graph_off != payload_end {
            return Err(MbiError::corrupt(at, "leaf graph not contiguous with its record"));
        }
        let graph_end = leaf.graph_off.checked_add(leaf.graph_len).ok_or_else(|| ovf(at))?;
        if graph_end > d1 {
            return Err(MbiError::corrupt(at, "leaf record overruns data section"));
        }
        prev_end = graph_end;
    }

    let (b0, b1, _) = sections[3];
    let mut s = RawSrc::new(b, b0, b1);
    s.need(8)?;
    let num_blocks = s.get_u64_le() as usize;
    let entry_bytes = num_blocks.checked_mul(BLOCK_DIR_ENTRY_LEN).ok_or_else(|| ovf(s.pos))?;
    s.need(entry_bytes + 4)?;
    let meta_end = s.pos + entry_bytes;
    let stored_meta_crc = rd_u32(b, meta_end);
    let got_meta_crc = crc32(&b[b0..meta_end]);
    if got_meta_crc != stored_meta_crc {
        return Err(MbiError::ChecksumMismatch {
            section: "block directory",
            expected: stored_meta_crc,
            got: got_meta_crc,
        });
    }
    let n = num_leaves.checked_mul(seg_rows).ok_or_else(|| ovf(b0))?;
    let mut blocks = Vec::with_capacity(num_blocks);
    let mut leaf_ix = 0usize;
    let mut prev_graph_end = meta_end + 4;
    for i in 0..num_blocks {
        let at = b0 + 8 + i * BLOCK_DIR_ENTRY_LEN;
        let start = s.get_u64_le() as usize;
        let end = s.get_u64_le() as usize;
        let height = s.get_u32_le();
        let start_ts = s.get_i64_le();
        let end_ts = s.get_i64_le();
        let graph_off = s.get_u64_le() as usize;
        let graph_len = s.get_u64_le() as usize;
        let graph_crc = s.get_u32_le();
        if start > end || end > n || end_ts <= start_ts {
            return Err(MbiError::corrupt(at, "invalid block bounds"));
        }
        if height == 0 {
            let Some(leaf) = layout_stub.leaves.get(leaf_ix) else {
                return Err(MbiError::corrupt(at, "more leaf blocks than leaf records"));
            };
            if graph_off != leaf.graph_off
                || graph_len != leaf.graph_len
                || graph_crc != leaf.crc_graph
            {
                return Err(MbiError::corrupt(
                    at,
                    "leaf block graph does not match the leaf directory",
                ));
            }
            leaf_ix += 1;
        } else {
            if graph_off < prev_graph_end {
                return Err(MbiError::corrupt(at, "overlapping block graphs"));
            }
            let graph_end = graph_off.checked_add(graph_len).ok_or_else(|| ovf(at))?;
            if graph_end > b1 {
                return Err(MbiError::corrupt(at, "block graph overruns blocks section"));
            }
            prev_graph_end = graph_end;
        }
        blocks.push(V7BlockMeta {
            rows: start..end,
            height,
            start_ts,
            end_ts,
            graph_off,
            graph_len,
            graph_crc,
        });
    }
    if leaf_ix != num_leaves {
        return Err(MbiError::corrupt(b0, "leaf record count does not match height-0 blocks"));
    }
    Ok(V7Layout { blocks, ..layout_stub })
}

/// Eagerly decodes a v7 snapshot stream into an in-RAM [`IndexSnapshot`].
/// The caller has already run [`verify_v5`], so every byte is
/// CRC-authenticated; this path owns all columns (no mapping).
/// Decodes one serialized block graph living at `off..off + len` of a v7
/// stream — the cold tier's lazy-load path. The graph bytes are copied into
/// an owned buffer (graph decoding builds owned adjacency anyway);
/// `block_len` is the owning block's row count, used for edge validation.
pub(crate) fn decode_graph_at(
    b: &[u8],
    off: usize,
    len: usize,
    block_len: usize,
) -> Result<BlockGraph, MbiError> {
    let end = off
        .checked_add(len)
        .filter(|&e| e <= b.len())
        .ok_or_else(|| MbiError::corrupt(off, "graph range out of bounds"))?;
    let mut gs = Src::with_base(Bytes::from(b[off..end].to_vec()), off);
    let graph = read_graph(&mut gs, block_len)?;
    if gs.has_remaining() {
        return Err(gs.corrupt("trailing bytes after block graph"));
    }
    Ok(graph)
}

fn decode_snapshot_v7(b: &Bytes) -> Result<IndexSnapshot, MbiError> {
    let layout = parse_v7_layout(b)?;
    let config = layout.config;
    let dim = config.dim;
    let seg_rows = layout.seg_rows;
    let mut store = SegmentStore::new(dim, seg_rows);
    let mut times = TimeChunks::new(seg_rows);
    for leaf in &layout.leaves {
        let mut off = leaf.record_off;
        let mut chunk = Vec::with_capacity(seg_rows);
        for r in 0..seg_rows {
            chunk.push(rd_i64(b, off + r * 8));
        }
        off += layout.ts_len();
        let mut flat = Vec::with_capacity(seg_rows * dim);
        for r in 0..seg_rows * dim {
            flat.push(rd_f32(b, off + r * 4));
        }
        off += layout.rows_len();
        let leaf_store = if layout.has_norms {
            let mut inv = Vec::with_capacity(seg_rows);
            for r in 0..seg_rows {
                let x = rd_f32(b, off + r * 4);
                if !x.is_finite() || x < 0.0 {
                    return Err(MbiError::corrupt(
                        off + r * 4,
                        format!("invalid inverse norm {x}"),
                    ));
                }
                inv.push(x);
            }
            VectorStore::from_flat_with_inv_norms(dim, flat, inv)
        } else {
            VectorStore::from_flat(dim, flat)
        };
        off += layout.inv_len();
        let mut seg = Segment::from_store(leaf_store);
        if layout.has_sq8 {
            seg.attach_sq8(read_sq8_column_v7(b, off, dim, seg_rows)?);
        } else if config.sq8_scan {
            // A quantizing engine must see a uniformly quantized store even
            // when restoring from a stream written without codes.
            seg.build_sq8();
        }
        store.push_segment(Arc::new(seg));
        times.push_chunk(chunk.into());
    }
    let mut blocks = Vec::with_capacity(layout.blocks.len());
    for meta in &layout.blocks {
        let mut gs = Src::with_base(
            b.slice(meta.graph_off..meta.graph_off + meta.graph_len),
            meta.graph_off,
        );
        let graph = read_graph(&mut gs, meta.rows.len())?;
        if gs.has_remaining() {
            return Err(gs.corrupt("trailing bytes after block graph"));
        }
        blocks.push(Arc::new(Block {
            rows: meta.rows.clone(),
            height: meta.height,
            start_ts: meta.start_ts,
            end_ts: meta.end_ts,
            graph,
        }));
    }
    let snap = IndexSnapshot {
        config,
        store,
        times,
        blocks: blocks.into_iter().collect(),
        num_leaves: layout.num_leaves,
    };
    snap.validate().map_err(|detail| MbiError::corrupt(0, detail))?;
    Ok(snap)
}

/// Reads one leaf's SQ8 column group in v7 order (mins, deltas, row norms,
/// codes) at absolute offset `off`, validating every value.
fn read_sq8_column_v7(
    b: &[u8],
    off: usize,
    dim: usize,
    rows: usize,
) -> Result<Sq8Column, MbiError> {
    let mut at = off;
    let mut mins = Vec::with_capacity(dim);
    for _ in 0..dim {
        let x = rd_f32(b, at);
        if !x.is_finite() {
            return Err(MbiError::corrupt(at, format!("invalid sq8 min {x}")));
        }
        mins.push(x);
        at += 4;
    }
    let mut deltas = Vec::with_capacity(dim);
    for _ in 0..dim {
        let x = rd_f32(b, at);
        if !x.is_finite() || x < 0.0 {
            return Err(MbiError::corrupt(at, format!("invalid sq8 delta {x}")));
        }
        deltas.push(x);
        at += 4;
    }
    let mut row_norm2 = Vec::with_capacity(rows);
    for _ in 0..rows {
        let x = rd_f32(b, at);
        if !x.is_finite() || x < 0.0 {
            return Err(MbiError::corrupt(at, format!("invalid sq8 row norm {x}")));
        }
        row_norm2.push(x);
        at += 4;
    }
    let codes = b[at..at + rows * dim].to_vec();
    Ok(Sq8Column::from_parts(dim, codes, mins, deltas, row_norm2))
}

/// Reads one leaf's SQ8 column (mins, deltas, codes, row norms), validating
/// every value before [`Sq8Column::from_parts`] re-checks the shapes.
fn read_sq8_column(src: &mut Src, dim: usize, rows: usize) -> Result<Sq8Column, MbiError> {
    let mut mins = Vec::with_capacity(dim);
    for _ in 0..dim {
        let x = src.get_f32_le();
        if !x.is_finite() {
            return Err(MbiError::corrupt(src.offset() - 4, format!("invalid sq8 min {x}")));
        }
        mins.push(x);
    }
    let mut deltas = Vec::with_capacity(dim);
    for _ in 0..dim {
        let x = src.get_f32_le();
        if !x.is_finite() || x < 0.0 {
            return Err(MbiError::corrupt(src.offset() - 4, format!("invalid sq8 delta {x}")));
        }
        deltas.push(x);
    }
    let mut codes = vec![0u8; rows * dim];
    src.copy_to_slice(&mut codes);
    let mut row_norm2 = Vec::with_capacity(rows);
    for _ in 0..rows {
        let x = src.get_f32_le();
        if !x.is_finite() || x < 0.0 {
            return Err(MbiError::corrupt(src.offset() - 4, format!("invalid sq8 row norm {x}")));
        }
        row_norm2.push(x);
    }
    Ok(Sq8Column::from_parts(dim, codes, mins, deltas, row_norm2))
}

fn write_config(b: &mut BytesMut, c: &MbiConfig, body_version: u32) {
    b.put_u64_le(c.dim as u64);
    b.put_u8(metric_tag(c.metric));
    b.put_u64_le(c.leaf_size as u64);
    b.put_f64_le(c.tau);
    match &c.backend {
        GraphBackend::NnDescent(p) => {
            b.put_u8(0);
            b.put_u64_le(p.degree as u64);
            b.put_f64_le(p.rho);
            b.put_f64_le(p.delta);
            b.put_u64_le(p.max_iters as u64);
            b.put_u64_le(p.seed);
        }
        GraphBackend::Hnsw(p) => {
            b.put_u8(1);
            write_hnsw_params(b, p);
        }
    }
    b.put_u64_le(c.search.max_candidates as u64);
    b.put_f32_le(c.search.epsilon);
    match c.search.entry {
        EntryPolicy::QueryHash => b.put_u8(0),
        EntryPolicy::Fixed(id) => {
            b.put_u8(1);
            b.put_u32_le(id);
        }
    }
    b.put_u8(u8::from(c.parallel_build));
    b.put_u64_le(c.query_threads as u64);
    if body_version >= SQ8_BODY_VERSION {
        b.put_u8(u8::from(c.sq8_scan));
        b.put_f32_le(c.sq8_overfetch);
    }
    if body_version >= TIER_BODY_VERSION {
        b.put_u64_le(c.ram_budget_bytes);
        b.put_u32_le(c.cache_shards.min(u32::MAX as usize) as u32);
    }
}

fn read_config(b: &mut Src, body_version: u32) -> Result<MbiConfig, MbiError> {
    b.need(8 + 1 + 8 + 8 + 1)?;
    let dim = b.get_u64_le() as usize;
    if dim == 0 || dim > 1 << 20 {
        return Err(b.corrupt(format!("implausible dimension {dim}")));
    }
    let metric = metric_from_tag(b)?;
    let leaf_size = b.get_u64_le() as usize;
    if leaf_size == 0 {
        return Err(b.corrupt("zero leaf size"));
    }
    let tau = b.get_f64_le();
    if !(tau > 0.0 && tau <= 1.0) {
        return Err(b.corrupt(format!("tau {tau} out of range")));
    }
    let backend = match b.get_u8() {
        0 => {
            b.need(8 * 4 + 8)?;
            GraphBackend::NnDescent(NnDescentParams {
                degree: b.get_u64_le() as usize,
                rho: b.get_f64_le(),
                delta: b.get_f64_le(),
                max_iters: b.get_u64_le() as usize,
                seed: b.get_u64_le(),
            })
        }
        1 => GraphBackend::Hnsw(read_hnsw_params(b)?),
        t => return Err(b.corrupt(format!("unknown backend tag {t}"))),
    };
    b.need(8 + 4 + 1)?;
    let max_candidates = b.get_u64_le() as usize;
    let epsilon = b.get_f32_le();
    let entry = match b.get_u8() {
        0 => EntryPolicy::QueryHash,
        1 => {
            b.need(4)?;
            EntryPolicy::Fixed(b.get_u32_le())
        }
        t => return Err(b.corrupt(format!("unknown entry tag {t}"))),
    };
    b.need(1 + 8)?;
    let parallel_build = b.get_u8() != 0;
    let query_threads = b.get_u64_le() as usize;
    // Pre-v6 records predate the SQ8 knobs; they load with the defaults.
    let (sq8_scan, sq8_overfetch) = if body_version >= SQ8_BODY_VERSION {
        b.need(1 + 4)?;
        let scan = b.get_u8() != 0;
        let overfetch = b.get_f32_le();
        if !overfetch.is_finite() || overfetch < 1.0 {
            return Err(b.corrupt(format!("sq8 overfetch {overfetch} out of range")));
        }
        (scan, overfetch)
    } else {
        (false, crate::config::default_sq8_overfetch())
    };
    // Pre-v7 records predate the cold tier; they load with the defaults.
    let (ram_budget_bytes, cache_shards) = if body_version >= TIER_BODY_VERSION {
        b.need(8 + 4)?;
        let budget = b.get_u64_le();
        let shards = b.get_u32_le() as usize;
        if shards == 0 {
            return Err(b.corrupt("zero cache shards"));
        }
        (budget, shards)
    } else {
        (u64::MAX, crate::config::default_cache_shards())
    };
    Ok(MbiConfig {
        dim,
        metric,
        leaf_size,
        tau,
        backend,
        search: SearchParams { max_candidates, epsilon, entry },
        parallel_build,
        query_threads,
        sq8_scan,
        sq8_overfetch,
        ram_budget_bytes,
        cache_shards,
    })
}

fn write_hnsw_params(b: &mut BytesMut, p: &HnswParams) {
    b.put_u64_le(p.m as u64);
    b.put_u64_le(p.ef_construction as u64);
    b.put_u64_le(p.seed);
}

fn read_hnsw_params(b: &mut Src) -> Result<HnswParams, MbiError> {
    b.need(24)?;
    Ok(HnswParams {
        m: b.get_u64_le() as usize,
        ef_construction: b.get_u64_le() as usize,
        seed: b.get_u64_le(),
    })
}

fn metric_tag(m: Metric) -> u8 {
    match m {
        Metric::Euclidean => 0,
        Metric::Angular => 1,
        Metric::InnerProduct => 2,
    }
}

fn metric_from_tag(b: &mut Src) -> Result<Metric, MbiError> {
    match b.get_u8() {
        0 => Ok(Metric::Euclidean),
        1 => Ok(Metric::Angular),
        2 => Ok(Metric::InnerProduct),
        t => Err(b.corrupt(format!("unknown metric tag {t}"))),
    }
}

fn write_graph(b: &mut BytesMut, g: &BlockGraph) {
    match g {
        BlockGraph::Knn(g) => {
            b.put_u8(0);
            b.put_u64_le(g.degree() as u64);
            let flat = g.as_flat();
            b.put_u64_le(flat.len() as u64);
            for &x in flat {
                b.put_u32_le(x);
            }
        }
        BlockGraph::Hnsw(h) => {
            b.put_u8(1);
            let (params, metric, entry, max_level, links) = h.to_parts();
            write_hnsw_params(b, &params);
            b.put_u8(metric_tag(metric));
            b.put_u32_le(entry);
            b.put_u64_le(max_level as u64);
            b.put_u64_le(links.len() as u64);
            for node in &links {
                b.put_u16_le(node.len() as u16);
                for layer in node {
                    b.put_u32_le(layer.len() as u32);
                    for &nb in layer {
                        b.put_u32_le(nb);
                    }
                }
            }
        }
    }
}

fn read_graph(b: &mut Src, block_len: usize) -> Result<BlockGraph, MbiError> {
    b.need(1)?;
    match b.get_u8() {
        0 => {
            b.need(16)?;
            let degree = b.get_u64_le() as usize;
            let len = b.get_u64_le() as usize;
            if degree > 0 && len != degree * block_len {
                return Err(b.corrupt(format!(
                    "graph size {len} does not match degree {degree} × block {block_len}"
                )));
            }
            b.need(len.checked_mul(4).ok_or_else(|| overflow(b))?)?;
            let mut flat = Vec::with_capacity(len);
            for _ in 0..len {
                let x = b.get_u32_le();
                if x != u32::MAX && x as usize >= block_len {
                    return Err(b.corrupt(format!("edge to missing node {x}")));
                }
                flat.push(x);
            }
            Ok(BlockGraph::Knn(KnnGraph::from_flat(degree, flat)))
        }
        1 => {
            let params = read_hnsw_params(b)?;
            b.need(1 + 4 + 8 + 8)?;
            let metric = metric_from_tag(b)?;
            let entry = b.get_u32_le();
            let max_level = b.get_u64_le() as usize;
            let n = b.get_u64_le() as usize;
            if n != block_len {
                return Err(b.corrupt("hnsw node count mismatch"));
            }
            if n > 0 && entry as usize >= n {
                return Err(b.corrupt("hnsw entry out of range"));
            }
            let mut links = Vec::with_capacity(n);
            for _ in 0..n {
                b.need(2)?;
                let layers = b.get_u16_le() as usize;
                let mut node = Vec::with_capacity(layers);
                for _ in 0..layers {
                    b.need(4)?;
                    let len = b.get_u32_le() as usize;
                    b.need(len.checked_mul(4).ok_or_else(|| overflow(b))?)?;
                    let mut layer = Vec::with_capacity(len);
                    for _ in 0..len {
                        let nb = b.get_u32_le();
                        if nb as usize >= n {
                            return Err(b.corrupt(format!("hnsw edge to missing node {nb}")));
                        }
                        layer.push(nb);
                    }
                    node.push(layer);
                }
                links.push(node);
            }
            Ok(BlockGraph::Hnsw(HnswIndex::from_parts(params, metric, entry, max_level, links)))
        }
        t => Err(b.corrupt(format!("unknown graph tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fail::{ErrorInjectingReader, ErrorInjectingWriter};
    use crate::index::QueryRequest;
    use crate::select::TimeWindow;

    fn build_index(backend: GraphBackend, n: usize) -> MbiIndex {
        let config = MbiConfig::new(3, Metric::Euclidean).with_leaf_size(16).with_backend(backend);
        let mut idx = MbiIndex::new(config);
        for i in 0..n {
            let x = i as f32;
            idx.insert(&[x, (x * 0.1).sin(), -x], i as i64).unwrap();
        }
        idx
    }

    fn assert_same_answers(a: &MbiIndex, b: &MbiIndex) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.num_leaves(), b.num_leaves());
        assert_eq!(a.blocks().len(), b.blocks().len());
        for (q, w) in [(5.0f32, (0i64, 60i64)), (30.0, (10, 50)), (55.0, (40, 64))] {
            let qa =
                a.search(&QueryRequest::new(&[q, 0.0, -q], 5, TimeWindow::new(w.0, w.1))).results;
            let qb =
                b.search(&QueryRequest::new(&[q, 0.0, -q], 5, TimeWindow::new(w.0, w.1))).results;
            assert_eq!(qa, qb);
        }
    }

    #[test]
    fn roundtrip_knn_backend() {
        let idx = build_index(GraphBackend::default(), 70);
        let bytes = idx.to_bytes();
        let loaded = MbiIndex::from_bytes(bytes).unwrap();
        assert_same_answers(&idx, &loaded);
    }

    #[test]
    fn roundtrip_hnsw_backend() {
        let idx = build_index(GraphBackend::Hnsw(HnswParams::default()), 70);
        let loaded = MbiIndex::from_bytes(idx.to_bytes()).unwrap();
        assert_same_answers(&idx, &loaded);
    }

    #[test]
    fn roundtrip_empty_index() {
        let idx = MbiIndex::new(MbiConfig::new(4, Metric::Angular));
        let loaded = MbiIndex::from_bytes(idx.to_bytes()).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.config().dim, 4);
    }

    #[test]
    fn roundtrip_through_file() {
        let idx = build_index(GraphBackend::default(), 40);
        let dir = std::env::temp_dir().join("mbi_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.mbi");
        idx.save_file(&path).unwrap();
        let loaded = MbiIndex::load_file(&path).unwrap();
        assert_same_answers(&idx, &loaded);
        assert!(!dir.join("index.mbi.tmp").exists(), "atomic save leaves no temp file behind");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let err = MbiIndex::from_bytes(Bytes::from_static(b"NOPE\0\0\0\0")).unwrap_err();
        assert!(matches!(err, MbiError::Corrupt { offset: 0, .. }));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let idx = build_index(GraphBackend::default(), 40);
        let full = idx.to_bytes();
        // Chop the stream at many points; every prefix must fail cleanly.
        for cut in [0, 3, 7, 20, 60, full.len() / 2, full.len() - 1] {
            let err = MbiIndex::from_bytes(full.slice(0..cut));
            assert!(err.is_err(), "prefix of {cut} bytes was accepted");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let idx = build_index(GraphBackend::default(), 40);
        let mut raw = idx.to_bytes().to_vec();
        raw.extend_from_slice(b"junk");
        // v5: the appended junk displaces the footer → bad footer magic.
        let err = MbiIndex::from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(err.to_string().contains("footer magic"), "{err}");
        // Unchecksummed v3 surfaces it as trailing bytes, as before.
        let mut raw = idx.to_bytes_v3().to_vec();
        raw.extend_from_slice(b"junk");
        let err = MbiIndex::from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_unsorted_timestamps_with_offset() {
        let idx = build_index(GraphBackend::default(), 40);
        // Corrupt a v3 stream (no checksums) so the *structural* check is
        // what fires, and verify the reported offset points at the bad pair.
        let mut raw = idx.to_bytes_v3().to_vec();
        let empty = MbiIndex::new(*idx.config()).to_bytes_v3();
        // minus n, norm-column flag, num_leaves, num_blocks
        let header_len = empty.len() - 8 - 1 - 16;
        let ts_start = header_len + 8; // after n
        raw[ts_start..ts_start + 8].copy_from_slice(&1i64.to_le_bytes());
        raw[ts_start + 8..ts_start + 16].copy_from_slice(&0i64.to_le_bytes());
        let err = MbiIndex::from_bytes(Bytes::from(raw)).unwrap_err();
        match err {
            MbiError::Corrupt { offset, ref detail } if detail.contains("not sorted") => {
                assert_eq!(offset, ts_start + 8, "offset points at the out-of-order timestamp");
            }
            other => panic!("expected unsorted-timestamp Corrupt, got {other}"),
        }
    }

    #[test]
    fn version_mismatch_detected() {
        let idx = MbiIndex::new(MbiConfig::new(2, Metric::Euclidean));
        let mut raw = idx.to_bytes().to_vec();
        raw[4] = 99;
        let err = MbiIndex::from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    fn build_angular_index(n: usize) -> MbiIndex {
        let config = MbiConfig::new(3, Metric::Angular).with_leaf_size(16);
        let mut idx = MbiIndex::new(config);
        for i in 0..n {
            let x = i as f32 * 0.37;
            idx.insert(&[x.sin(), x.cos(), (x * 0.5).sin()], i as i64).unwrap();
        }
        idx
    }

    #[test]
    fn v5_roundtrips_norm_column() {
        let idx = build_angular_index(70);
        assert!(idx.store().has_norm_cache());
        let loaded = MbiIndex::from_bytes(idx.to_bytes()).unwrap();
        assert_eq!(loaded.store().inv_norms(), idx.store().inv_norms());
        for (q, w) in [(0.3f32, (0i64, 60i64)), (0.9, (10, 50)), (-0.4, (40, 70))] {
            let qa =
                idx.search(&QueryRequest::new(&[q, 0.2, -q], 5, TimeWindow::new(w.0, w.1))).results;
            let qb = loaded
                .search(&QueryRequest::new(&[q, 0.2, -q], 5, TimeWindow::new(w.0, w.1)))
                .results;
            assert_eq!(qa, qb);
        }
    }

    #[test]
    fn euclidean_stream_has_no_norm_column() {
        let idx = build_index(GraphBackend::default(), 40);
        assert!(!idx.store().has_norm_cache());
        let loaded = MbiIndex::from_bytes(idx.to_bytes()).unwrap();
        assert!(!loaded.store().has_norm_cache());
        assert_same_answers(&idx, &loaded);
    }

    #[test]
    fn reads_v2_streams_and_recomputes_norms() {
        let idx = build_angular_index(70);
        let v2 = idx.to_bytes_v2();
        assert!(v2.len() < idx.to_bytes().len(), "v2 must lack the norm column");
        let loaded = MbiIndex::from_bytes(v2).unwrap();
        // The column is recomputed on load, bit-identical to insert-time.
        assert_eq!(loaded.store().inv_norms(), idx.store().inv_norms());
        for (q, w) in [(0.3f32, (0i64, 60i64)), (0.9, (10, 50))] {
            let qa =
                idx.search(&QueryRequest::new(&[q, 0.2, -q], 5, TimeWindow::new(w.0, w.1))).results;
            let qb = loaded
                .search(&QueryRequest::new(&[q, 0.2, -q], 5, TimeWindow::new(w.0, w.1)))
                .results;
            assert_eq!(qa, qb);
        }

        // Euclidean v2 streams load without growing a cache.
        let e = build_index(GraphBackend::default(), 40);
        let loaded = MbiIndex::from_bytes(e.to_bytes_v2()).unwrap();
        assert!(!loaded.store().has_norm_cache());
        assert_same_answers(&e, &loaded);
    }

    #[test]
    fn reads_v3_streams() {
        let idx = build_angular_index(70);
        let loaded = MbiIndex::from_bytes(idx.to_bytes_v3()).unwrap();
        assert_eq!(loaded.store().inv_norms(), idx.store().inv_norms());
        assert_eq!(loaded.to_bytes(), idx.to_bytes(), "re-save upgrades to v5 canonically");
    }

    #[test]
    fn rejects_corrupt_norm_column() {
        let idx = build_angular_index(40);
        let empty = MbiIndex::new(*idx.config()).to_bytes_v3();
        let header_len = empty.len() - 8 - 1 - 16;
        let n = idx.len();
        // Norm column starts after n, timestamps, floats, and the flag byte.
        let norms_start = header_len + 8 + n * 8 + n * 3 * 4 + 1;
        let mut raw = idx.to_bytes_v3().to_vec();
        raw[norms_start..norms_start + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        let err = MbiIndex::from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(err.to_string().contains("inverse norm"), "{err}");
    }

    #[test]
    fn v5_detects_any_section_flip_as_checksum_mismatch() {
        let idx = build_index(GraphBackend::default(), 40);
        let raw = idx.to_bytes().to_vec();
        // One flip inside each region: kind byte (header section), config,
        // data (a vector float — structurally valid, only the CRC sees it),
        // blocks. The float flip is the crucial case: pre-v5 it loaded as a
        // silently different index.
        let empty_body = MbiIndex::new(*idx.config()).to_bytes_v3().len() - 8 - 1 - 16;
        let data_start = HEADER_LEN + (empty_body - 8); // after config
        let float_pos = data_start + 8 + idx.len() * 8 + 10; // inside the floats
        for (pos, expect_section) in [
            (8usize, "header"),
            (HEADER_LEN + 3, "config"),
            (float_pos, "data"),
            // The footer occupies the trailing 65 bytes (count + 4 entries
            // of 13 + footer crc/len + magic); 70 back is in the blocks.
            (raw.len() - 70, "blocks"),
        ] {
            let mut bad = raw.clone();
            bad[pos] ^= 0x10;
            match MbiIndex::from_bytes(Bytes::from(bad)) {
                Err(MbiError::ChecksumMismatch { section, .. }) => {
                    assert_eq!(section, expect_section, "flip at byte {pos}");
                }
                // A kind-byte flip can also fail before checksumming.
                Err(MbiError::Corrupt { .. }) if expect_section == "header" => {}
                other => panic!("flip at {pos}: expected ChecksumMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn v5_detects_footer_flips() {
        let idx = build_index(GraphBackend::default(), 30);
        let raw = idx.to_bytes().to_vec();
        let n = raw.len();
        // Flip in the footer body → footer CRC or section CRC mismatch;
        // flip in the trailing magic → corrupt.
        let mut bad = raw.clone();
        bad[n - 20] ^= 0x01;
        assert!(MbiIndex::from_bytes(Bytes::from(bad)).is_err());
        let mut bad = raw.clone();
        bad[n - 1] ^= 0x01;
        let err = MbiIndex::from_bytes(Bytes::from(bad)).unwrap_err();
        assert!(err.to_string().contains("footer magic"), "{err}");
    }

    #[test]
    fn error_injecting_writer_surfaces_io_error() {
        let idx = build_index(GraphBackend::default(), 40);
        let full_len = idx.to_bytes().len();
        let mut w = ErrorInjectingWriter::new(Vec::new(), full_len / 2);
        let err = idx.save_to(&mut w).unwrap_err();
        assert!(matches!(err, MbiError::Io(_)), "{err}");
        // Whatever made it through is a truncated prefix: loading it fails
        // cleanly too.
        let prefix = w.into_inner();
        assert!(prefix.len() <= full_len / 2);
        assert!(MbiIndex::from_bytes(Bytes::from(prefix)).is_err());
    }

    #[test]
    fn error_injecting_reader_surfaces_io_error() {
        let idx = build_index(GraphBackend::default(), 40);
        let bytes = idx.to_bytes();
        let mut r = ErrorInjectingReader::new(&bytes[..], bytes.len() / 2);
        let err = MbiIndex::load_from(&mut r).unwrap_err();
        assert!(matches!(err, MbiError::Io(_)), "{err}");
    }

    fn assert_same_snapshot_answers(a: &IndexSnapshot, b: &IndexSnapshot) {
        assert_eq!(a.sealed_rows(), b.sealed_rows());
        assert_eq!(a.num_leaves(), b.num_leaves());
        assert_eq!(a.blocks().len(), b.blocks().len());
        let params = a.config().search;
        for (q, w) in [(5.0f32, (0i64, 60i64)), (30.0, (10, 50)), (55.0, (40, 64))] {
            let w = TimeWindow::new(w.0, w.1);
            let qa = a.search(&QueryRequest::new(&[q, 0.0, -q], 5, w).with_params(params));
            let qb = b.search(&QueryRequest::new(&[q, 0.0, -q], 5, w).with_params(params));
            assert_eq!(qa.results, qb.results);
        }
    }

    #[test]
    fn snapshot_v6_roundtrips() {
        let snap = IndexSnapshot::from_index(&build_index(GraphBackend::default(), 64)).unwrap();
        let bytes = snap.to_bytes();
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), VERSION);
        assert_eq!(bytes[8], KIND_SNAPSHOT);
        let loaded = IndexSnapshot::from_bytes(bytes).unwrap();
        assert_eq!(loaded.validate(), Ok(()));
        assert_same_snapshot_answers(&snap, &loaded);
        assert!(!loaded.store().has_norm_cache());
    }

    fn build_sq8_index(n: usize) -> MbiIndex {
        let config = MbiConfig::new(3, Metric::Euclidean).with_leaf_size(16).with_sq8_scan(true);
        let mut idx = MbiIndex::new(config);
        for i in 0..n {
            let x = i as f32;
            idx.insert(&[x, (x * 0.2).cos(), -x], i as i64).unwrap();
        }
        idx
    }

    #[test]
    fn v7_layout_is_page_aligned_with_colocated_graphs() {
        let snap = IndexSnapshot::from_index(&build_sq8_index(64)).unwrap();
        let bytes = snap.to_bytes();
        let layout = parse_v7_layout(&bytes).unwrap();
        assert_eq!(layout.num_leaves, 4);
        assert!(layout.has_sq8);
        assert_eq!(layout.blocks.len(), snap.blocks().len());
        let mut leaf_ix = 0;
        for (meta, block) in layout.blocks.iter().zip(snap.blocks()) {
            assert_eq!(meta.rows, block.rows);
            assert_eq!(meta.height, block.height);
            if meta.height == 0 {
                let leaf = &layout.leaves[leaf_ix];
                assert_eq!(leaf.record_off % PAGE, 0, "records start on page boundaries");
                assert_eq!(
                    meta.graph_off,
                    leaf.record_off + layout.payload_len(),
                    "leaf graphs are co-located with their records"
                );
                // Per-piece CRCs authenticate each column independently.
                let ts = leaf.record_off..leaf.record_off + layout.ts_len();
                assert_eq!(crc32(&bytes[ts.clone()]), leaf.crc_ts);
                assert_eq!(crc32(&bytes[ts.end..ts.end + layout.rows_len()]), leaf.crc_rows);
                assert_eq!(
                    crc32(&bytes[meta.graph_off..meta.graph_off + meta.graph_len]),
                    leaf.crc_graph
                );
                leaf_ix += 1;
            }
        }
        assert_eq!(leaf_ix, layout.num_leaves);
    }

    #[test]
    fn v7_roundtrips_and_reencodes_bit_identically() {
        let snap = IndexSnapshot::from_index(&build_angular_index(64)).unwrap();
        let bytes = snap.to_bytes();
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 7);
        let loaded = IndexSnapshot::from_bytes(bytes.clone()).unwrap();
        assert!(loaded.store().has_norm_cache());
        assert_same_snapshot_answers(&snap, &loaded);
        assert_eq!(&loaded.to_bytes()[..], &bytes[..], "decode → encode is a fixed point");
    }

    #[test]
    fn snapshot_reads_v6_streams() {
        let snap = IndexSnapshot::from_index(&build_sq8_index(64)).unwrap();
        let v6 = snap.to_bytes_v6();
        assert_eq!(u32::from_le_bytes(v6[4..8].try_into().unwrap()), 6);
        let loaded = IndexSnapshot::from_bytes(v6).unwrap();
        assert_eq!(
            loaded.config().ram_budget_bytes,
            u64::MAX,
            "pre-v7 streams load with tier knobs at their defaults"
        );
        for (a, b) in snap.store().segments().iter().zip(loaded.store().segments()) {
            assert_eq!(a.sq8(), b.sq8(), "v6 code columns survive");
        }
        assert_same_snapshot_answers(&snap, &loaded);
        assert_eq!(
            &loaded.to_bytes()[..],
            &snap.to_bytes()[..],
            "a v6 load upgrades to the identical v7 stream"
        );
    }

    #[test]
    fn index_reads_v6_streams() {
        let idx = build_index(GraphBackend::default(), 70);
        let v6 = idx.to_bytes_v6();
        assert_eq!(u32::from_le_bytes(v6[4..8].try_into().unwrap()), 6);
        let loaded = MbiIndex::from_bytes(v6).unwrap();
        assert_eq!(loaded.config().ram_budget_bytes, u64::MAX);
        assert_eq!(loaded.config().cache_shards, 8);
        assert_same_answers(&idx, &loaded);
    }

    #[test]
    fn v7_tier_knobs_roundtrip() {
        let config = MbiConfig::new(3, Metric::Euclidean)
            .with_leaf_size(16)
            .with_ram_budget_bytes(123)
            .with_cache_shards(3);
        let mut idx = MbiIndex::new(config);
        for i in 0..32 {
            let x = i as f32;
            idx.insert(&[x, 0.0, -x], i as i64).unwrap();
        }
        let loaded = MbiIndex::from_bytes(idx.to_bytes()).unwrap();
        assert_eq!(loaded.config().ram_budget_bytes, 123);
        assert_eq!(loaded.config().cache_shards, 3);
        let snap = IndexSnapshot::from_index(&idx).unwrap();
        let loaded = IndexSnapshot::from_bytes(snap.to_bytes()).unwrap();
        assert_eq!(loaded.config().ram_budget_bytes, 123);
        assert_eq!(loaded.config().cache_shards, 3);
    }

    #[test]
    fn snapshot_reads_v5_streams_with_sq8_defaults() {
        let snap = IndexSnapshot::from_index(&build_index(GraphBackend::default(), 64)).unwrap();
        let v5 = snap.to_bytes_v5();
        assert_eq!(u32::from_le_bytes(v5[4..8].try_into().unwrap()), 5);
        let loaded = IndexSnapshot::from_bytes(v5).unwrap();
        assert!(!loaded.config().sq8_scan, "pre-v6 streams load with SQ8 off");
        assert_eq!(loaded.config().sq8_overfetch, 3.0);
        assert!(!loaded.store().has_sq8());
        assert_same_snapshot_answers(&snap, &loaded);
    }

    #[test]
    fn index_reads_v5_streams_with_sq8_defaults() {
        let idx = build_index(GraphBackend::default(), 70);
        let v5 = idx.to_bytes_v5();
        assert_eq!(u32::from_le_bytes(v5[4..8].try_into().unwrap()), 5);
        let loaded = MbiIndex::from_bytes(v5).unwrap();
        assert!(!loaded.config().sq8_scan);
        assert_same_answers(&idx, &loaded);
    }

    #[test]
    fn snapshot_v6_roundtrips_sq8_column() {
        let config = MbiConfig::new(3, Metric::Euclidean).with_leaf_size(16).with_sq8_scan(true);
        let mut idx = MbiIndex::new(config);
        for i in 0..64 {
            let x = i as f32;
            idx.insert(&[x, (x * 0.1).sin(), -x], i as i64).unwrap();
        }
        let snap = IndexSnapshot::from_index(&idx).unwrap();
        assert!(snap.store().has_sq8(), "sq8_scan quantizes every sealed segment");
        let loaded = IndexSnapshot::from_bytes(snap.to_bytes()).unwrap();
        assert!(loaded.config().sq8_scan);
        assert!(loaded.store().has_sq8());
        for (a, b) in snap.store().segments().iter().zip(loaded.store().segments()) {
            assert_eq!(a.sq8(), b.sq8(), "codes and parameters survive the roundtrip");
        }
        assert_same_snapshot_answers(&snap, &loaded);
    }

    #[test]
    fn quantizing_config_rebuilds_sq8_from_v5_stream() {
        // A v5 stream carries no code column; if its config is upgraded to
        // sq8_scan (here: via an index stream, whose conversion path seals
        // segments through the engine), the loaded store must still be
        // uniformly quantized.
        let config = MbiConfig::new(3, Metric::Euclidean).with_leaf_size(16).with_sq8_scan(true);
        let mut idx = MbiIndex::new(config);
        for i in 0..48 {
            let x = i as f32;
            idx.insert(&[x, x * 0.5, -x], i as i64).unwrap();
        }
        let snap = IndexSnapshot::from_index(&idx).unwrap();
        // Splice the v6 config (sq8_scan=true) body through the v4 layout:
        // decode_snapshot_body must quantize on load.
        let v4 = {
            let mut b = BytesMut::new();
            b.put_slice(MAGIC);
            b.put_u32_le(6);
            b.put_u8(KIND_SNAPSHOT);
            let mut bounds = vec![0, b.len()];
            write_config(&mut b, snap.config(), SQ8_BODY_VERSION);
            bounds.push(b.len());
            b.put_u64_le(snap.num_leaves() as u64);
            b.put_u64_le(snap.config().leaf_size as u64);
            b.put_u8(0); // no norms
            b.put_u8(0); // no sq8 column despite sq8_scan=true
            for (seg, chunk) in snap.store().segments().iter().zip(snap.times().chunks()) {
                for &t in chunk.iter() {
                    b.put_i64_le(t);
                }
                for &v in seg.as_flat() {
                    b.put_f32_le(v);
                }
            }
            bounds.push(b.len());
            b.put_u64_le(snap.blocks().len() as u64);
            for block in snap.blocks() {
                b.put_u64_le(block.rows.start as u64);
                b.put_u64_le(block.rows.end as u64);
                b.put_u32_le(block.height);
                b.put_i64_le(block.start_ts);
                b.put_i64_le(block.end_ts);
                write_graph(&mut b, &block.graph);
            }
            bounds.push(b.len());
            write_footer(&mut b, &bounds);
            b.freeze()
        };
        let loaded = IndexSnapshot::from_bytes(v4).unwrap();
        assert!(loaded.store().has_sq8(), "sq8_scan config quantizes columnless streams on load");
        assert_same_snapshot_answers(&snap, &loaded);
    }

    #[test]
    fn snapshot_reads_v4_streams() {
        let snap = IndexSnapshot::from_index(&build_angular_index(64)).unwrap();
        let v4 = snap.to_bytes_v4();
        assert_eq!(u32::from_le_bytes(v4[4..8].try_into().unwrap()), 4);
        let loaded = IndexSnapshot::from_bytes(v4).unwrap();
        assert!(loaded.store().has_norm_cache());
        for (a, b) in snap.store().segments().iter().zip(loaded.store().segments()) {
            assert_eq!(a.as_flat(), b.as_flat());
            assert_eq!(a.inv_norms(), b.inv_norms());
        }
    }

    #[test]
    fn snapshot_roundtrips_through_file() {
        let snap = IndexSnapshot::from_index(&build_index(GraphBackend::default(), 32)).unwrap();
        let dir = std::env::temp_dir().join("mbi_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.mbi");
        snap.save_file(&path).unwrap();
        let loaded = IndexSnapshot::load_file(&path).unwrap();
        assert_same_snapshot_answers(&snap, &loaded);
        assert!(!dir.join("snapshot.mbi.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_reads_index_streams() {
        // An index stream (v3 or v5) loads as a snapshot when sealed …
        let idx = build_index(GraphBackend::default(), 64);
        for bytes in [idx.to_bytes_v3(), idx.to_bytes()] {
            let snap = IndexSnapshot::from_bytes(bytes).unwrap();
            assert_eq!(snap.num_leaves(), idx.num_leaves());
            assert_eq!(snap.validate(), Ok(()));
            assert_same_snapshot_answers(&snap, &IndexSnapshot::from_index(&idx).unwrap());
        }
        // … and surfaces the tail explicitly when not.
        let with_tail = build_index(GraphBackend::default(), 70);
        match IndexSnapshot::from_bytes(with_tail.to_bytes()) {
            Err(MbiError::UnsealedTail { tail_rows: 6 }) => {}
            other => panic!("expected UnsealedTail {{ 6 }}, got {other:?}"),
        }
    }

    #[test]
    fn index_loader_rejects_snapshot_streams() {
        let snap = IndexSnapshot::from_index(&build_index(GraphBackend::default(), 32)).unwrap();
        let err = MbiIndex::from_bytes(snap.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("snapshot"), "{err}");
        let err = MbiIndex::from_bytes(snap.to_bytes_v4()).unwrap_err();
        assert!(err.to_string().contains("snapshot"), "{err}");
    }

    #[test]
    fn snapshot_rejects_truncation_everywhere() {
        let snap = IndexSnapshot::from_index(&build_angular_index(32)).unwrap();
        let full = snap.to_bytes();
        for cut in [0, 3, 7, 20, 60, full.len() / 2, full.len() - 1] {
            assert!(
                IndexSnapshot::from_bytes(full.slice(0..cut)).is_err(),
                "prefix of {cut} bytes was accepted"
            );
        }
        let mut raw = full.to_vec();
        raw.extend_from_slice(b"junk");
        assert!(IndexSnapshot::from_bytes(Bytes::from(raw)).is_err());
    }
}
