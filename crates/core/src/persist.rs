//! Binary persistence: one checksummed stream format, version 7, for a built
//! [`MbiIndex`] and for an engine [`IndexSnapshot`].
//!
//! Time-accumulating deployments restart; rebuilding every block graph costs
//! `O(|D|^1.14 log |D|)` (§4.4.2), so a saved index pays for itself quickly.
//! Every stream is little-endian and validated on load: malformed input
//! yields [`MbiError::Corrupt`] (carrying the byte offset where parsing
//! failed) or [`MbiError::ChecksumMismatch`], a well-formed stream of the
//! other kind yields [`MbiError::KindMismatch`], and nothing panics. Only
//! version 7 is read or written; any other version is
//! `unsupported version {v}`.
//!
//! # Persist format (v7)
//!
//! ```text
//! stream := "MBI1" version:u32 kind:u8 config data blocks footer
//! kind   := 0 (MbiIndex) | 1 (IndexSnapshot)
//! footer := count:u8 (tag:u8 len:u64 crc:u32)*count footer_crc:u32
//!           footer_len:u32 "MBIF"
//! ```
//!
//! The four sections — `header` (magic + version + kind), `config`, `data`,
//! `blocks` — tile the stream exactly; the footer carries each section's
//! length and CRC32 plus its own CRC, so any single-byte flip fails a
//! checksum (or the structural parse) before an index is built from it. The
//! `config` record is the same in both kinds and ends with the SQ8 knobs
//! (`sq8_scan`, `sq8_overfetch`) and the cold-tier knobs
//! (`ram_budget_bytes`, `cache_shards`).
//!
//! An index stream stores flat columns, tail rows included:
//!
//! ```text
//! data   := n:u64 ts:i64[n] rows:f32[n·d] has_norms:u8 [inv:f32[n]]
//! blocks := num_leaves:u64 num_blocks:u64
//!           (rows:u64×2 height:u32 start_ts:i64 end_ts:i64 graph)*
//! ```
//!
//! A snapshot stream lays its sealed leaves out so [`ColdIndex`] can mmap
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
//! piece, while the footer's whole-section CRCs guard eager loads. Both
//! readers of a snapshot — the eager [`IndexSnapshot::from_bytes`] and the
//! cold [`ColdIndex`] — parse it through one layout parser and run the
//! same structural checks (block directory against the timestamp column,
//! inverse-norm and SQ8 scalar ranges, graph shapes), so they accept and
//! reject the same streams.
//!
//! All `save_file` paths write atomically: temp file in the same directory,
//! fsync, rename, directory fsync — a crash mid-save leaves the previous
//! file intact.
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
//!
//! [`ColdIndex`]: crate::tier::ColdIndex

use crate::block::{Block, BlockGraph};
use crate::config::{GraphBackend, MbiConfig, MAX_CACHE_SHARDS};
use crate::engine::IndexSnapshot;
use crate::error::MbiError;
use crate::index::{validate_block_shape, MbiIndex};
use crate::times::TimeChunks;
use crate::wal::crc32;
use bytes::{BufMut, Bytes, BytesMut};
use mbi_ann::{
    EntryPolicy, HnswIndex, HnswParams, KnnGraph, NnDescentParams, SearchParams, Segment,
    SegmentStore, Sq8Column, VectorStore,
};
use mbi_math::Metric;
use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"MBI1";
/// The one stream version read and written (see the module docs).
const VERSION: u32 = 7;

const FOOTER_MAGIC: &[u8; 4] = b"MBIF";
/// Section names, in stream order; the footer stores one CRC per section.
const SECTIONS: [&str; 4] = ["header", "config", "data", "blocks"];
/// magic + version + kind.
const HEADER_LEN: usize = 4 + 4 + 1;
/// Snapshot leaf records start on this boundary, so a mapped read of one
/// record faults only its own pages.
pub(crate) const PAGE: usize = mbi_ann::PAGE_SIZE;
/// Leaf-directory entry: `record_off` + `graph_off` + `graph_len` + five
/// per-piece CRCs (ts, rows, inv, sq8, graph).
const LEAF_DIR_ENTRY_LEN: usize = 8 * 3 + 4 * 5;
/// Block-directory entry: row range + height + timestamp span + graph
/// location (`graph_off`, `graph_len`, `graph_crc`).
const BLOCK_DIR_ENTRY_LEN: usize = 8 * 2 + 4 + 8 * 2 + 8 * 2 + 4;

/// One footer entry: a section's absolute byte range and its stored CRC.
type Section = (usize, usize, u32);

/// What a stream holds — the kind byte after the version.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKind {
    /// A whole [`MbiIndex`], tail rows included, as [`MbiIndex::save_file`]
    /// writes it (and so `mbi build`).
    Index,
    /// An engine [`IndexSnapshot`] of sealed leaves, as
    /// [`IndexSnapshot::save_file`] writes it (and so every checkpoint's
    /// `snapshot.mbi`) — the kind [`crate::tier::ColdIndex`] serves.
    Snapshot,
}

impl StreamKind {
    /// Reads the kind of a stream from its header, after checking the magic
    /// and the version. Nothing is checksummed here: the loaders verify the
    /// header CRC before they trust the kind byte.
    pub fn of(b: &[u8]) -> Result<StreamKind, MbiError> {
        let truncated = || MbiError::corrupt(b.len(), "truncated stream: no room for header");
        if b.len() < 8 {
            return Err(truncated());
        }
        if &b[..4] != MAGIC {
            return Err(MbiError::corrupt(0, "bad magic"));
        }
        let version = rd_u32(b, 4);
        if version != VERSION {
            return Err(MbiError::corrupt(4, format!("unsupported version {version}")));
        }
        match *b.get(8).ok_or_else(truncated)? {
            0 => Ok(StreamKind::Index),
            1 => Ok(StreamKind::Snapshot),
            k => Err(MbiError::corrupt(8, format!("unknown stream kind {k}"))),
        }
    }

    fn tag(self) -> u8 {
        match self {
            StreamKind::Index => 0,
            StreamKind::Snapshot => 1,
        }
    }
}

impl std::fmt::Display for StreamKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StreamKind::Index => "an index stream (MbiIndex::save_file, `mbi build`)",
            StreamKind::Snapshot => "a snapshot stream (IndexSnapshot::save_file, a checkpoint)",
        })
    }
}

/// A bounded little-endian cursor over a borrowed byte slice. Positions are
/// absolute offsets into the whole stream, so every parse failure reports
/// where it happened, and nothing is copied: the same cursor parses an
/// owned buffer and a memory map. Callers reserve with [`RawSrc::need`]
/// before the `get_*` calls.
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

    fn overflow(&self) -> MbiError {
        self.corrupt("size overflow")
    }

    fn remaining(&self) -> usize {
        self.end - self.pos
    }

    fn has_remaining(&self) -> bool {
        self.pos < self.end
    }

    fn need(&self, need: usize) -> Result<(), MbiError> {
        if self.remaining() < need {
            Err(self
                .corrupt(format!("truncated stream: need {need} bytes, have {}", self.remaining())))
        } else {
            Ok(())
        }
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        let x = self.b[..self.end][self.pos..self.pos + N].try_into().expect("N bytes");
        self.pos += N;
        x
    }

    fn get_u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take())
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    fn get_i64_le(&mut self) -> i64 {
        i64::from_le_bytes(self.take())
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes(self.take())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take())
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

/// Writes the header: magic, version, kind.
fn write_header(b: &mut BytesMut, kind: StreamKind) {
    b.put_slice(MAGIC);
    b.put_u32_le(VERSION);
    b.put_u8(kind.tag());
}

/// Appends the footer: per-section CRCs, the footer's own CRC, its length,
/// and the trailing magic. `bounds` are the section boundaries
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

/// Parses and structurally verifies the footer: the footer's own CRC is
/// checked and the sections must tile the stream, but the sections
/// themselves are *not* hashed. Returns each section's absolute byte range
/// and stored CRC, in [`SECTIONS`] order.
fn parse_footer(b: &[u8]) -> Result<[Section; 4], MbiError> {
    let total = b.len();
    // footer_crc + footer_len + trailing magic is the minimal suffix.
    if total < HEADER_LEN + 12 {
        return Err(MbiError::corrupt(total, "truncated stream: no room for footer"));
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
    verify_crc(footer, 0..footer_len - 4, rd_u32(footer, footer_len - 4), "footer")?;
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
    if sections[0].1 != HEADER_LEN {
        return Err(MbiError::corrupt(0, "header section is not magic + version + kind"));
    }
    Ok(sections)
}

/// Checks that the CRC32 of `b[range]` is `expected`.
pub(crate) fn verify_crc(
    b: &[u8],
    range: Range<usize>,
    expected: u32,
    section: &'static str,
) -> Result<(), MbiError> {
    let got = crc32(&b[range]);
    if got != expected {
        return Err(MbiError::ChecksumMismatch { section, expected, got });
    }
    Ok(())
}

/// Opens a stream that must hold `want`: checks magic and version, the
/// footer, and the header and config CRCs (both a few dozen bytes), then
/// the kind byte — after its CRC, so a flipped kind byte is reported as
/// corruption, not as a kind mismatch. The data and blocks sections are
/// left to the caller: [`verify_body`] hashes them whole for the eager
/// loaders, the cold reader verifies them piece by piece.
fn open_stream(b: &[u8], want: StreamKind) -> Result<[Section; 4], MbiError> {
    let found = StreamKind::of(b)?;
    let sections = parse_footer(b)?;
    for (&name, &(start, end, crc)) in SECTIONS.iter().zip(&sections).take(2) {
        verify_crc(b, start..end, crc, name)?;
    }
    if found != want {
        return Err(MbiError::KindMismatch { expected: want, found });
    }
    Ok(sections)
}

/// Verifies the CRCs of the data and blocks sections.
fn verify_body(b: &[u8], sections: &[Section; 4]) -> Result<(), MbiError> {
    for (&name, &(start, end, crc)) in SECTIONS.iter().zip(sections).skip(2) {
        verify_crc(b, start..end, crc, name)?;
    }
    Ok(())
}

fn rd_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

fn rd_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

fn rd_i64(b: &[u8], off: usize) -> i64 {
    i64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

fn rd_f32(b: &[u8], off: usize) -> f32 {
    f32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

/// Reads `n` consecutive f32s at `off`.
fn f32s_at(b: &[u8], off: usize, n: usize) -> Vec<f32> {
    (0..n).map(|i| rd_f32(b, off + i * 4)).collect()
}

/// Validates an inverse-norm column of `rows` f32s at `off`: every value
/// finite and non-negative.
fn check_inv_norms(b: &[u8], off: usize, rows: usize) -> Result<(), MbiError> {
    check_f32s(b, off, rows, "inverse norm", |x| x.is_finite() && x >= 0.0)
}

/// Validates one leaf's SQ8 scalars at `cols`: finite mins, finite
/// non-negative deltas and row norms. (Every code byte is valid.)
fn check_sq8(b: &[u8], cols: &LeafCols, dim: usize, rows: usize) -> Result<(), MbiError> {
    check_f32s(b, cols.sq8_mins, dim, "sq8 min", f32::is_finite)?;
    check_f32s(b, cols.sq8_deltas, dim, "sq8 delta", |x| x.is_finite() && x >= 0.0)?;
    check_f32s(b, cols.sq8_norms, rows, "sq8 row norm", |x| x.is_finite() && x >= 0.0)
}

fn check_f32s(
    b: &[u8],
    off: usize,
    n: usize,
    what: &str,
    ok: impl Fn(f32) -> bool,
) -> Result<(), MbiError> {
    for i in 0..n {
        let x = rd_f32(b, off + i * 4);
        if !ok(x) {
            return Err(MbiError::corrupt(off + i * 4, format!("invalid {what} {x}")));
        }
    }
    Ok(())
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

    /// Serialises the index into one contiguous buffer (an index-kind v7
    /// stream; see the module docs).
    pub fn to_bytes(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(128 + self.data_bytes() + self.index_memory_bytes());
        write_header(&mut b, StreamKind::Index);
        let mut bounds = vec![0, b.len()];
        write_config(&mut b, &self.config);
        bounds.push(b.len());

        let n = self.timestamps.len();
        b.put_u64_le(n as u64);
        for &t in &self.timestamps {
            b.put_i64_le(t);
        }
        for &v in self.store.as_flat() {
            b.put_f32_le(v);
        }
        match self.store.inv_norms() {
            Some(inv) => {
                b.put_u8(1);
                for &x in inv {
                    b.put_f32_le(x);
                }
            }
            None => b.put_u8(0),
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
        write_footer(&mut b, &bounds);
        b.freeze()
    }

    /// Deserialises an index from one contiguous buffer. Fails with
    /// [`MbiError::KindMismatch`] on a snapshot stream.
    pub fn from_bytes(b: Bytes) -> Result<Self, MbiError> {
        let sections = open_stream(&b, StreamKind::Index)?;
        verify_body(&b, &sections)?;
        decode_index_body(&b, &sections)
    }
}

/// Decodes an index stream's config, data and blocks sections, consuming
/// each exactly.
fn decode_index_body(b: &[u8], sections: &[Section; 4]) -> Result<MbiIndex, MbiError> {
    let config = read_config(b, sections[1])?;

    let mut src = RawSrc::new(b, sections[2].0, sections[2].1);
    src.need(8)?;
    let n = src.get_u64_le() as usize;
    let ts_start = src.pos;
    src.need(n.checked_mul(8).ok_or_else(|| src.overflow())?)?;
    let timestamps: Vec<i64> = (0..n).map(|_| src.get_i64_le()).collect();
    if let Some(i) = timestamps.windows(2).position(|pair| pair[1] < pair[0]) {
        return Err(MbiError::corrupt(ts_start + (i + 1) * 8, "timestamps not sorted"));
    }
    let floats = n.checked_mul(config.dim).ok_or_else(|| src.overflow())?;
    src.need(floats.checked_mul(4).ok_or_else(|| src.overflow())?)?;
    let flat = f32s_at(b, src.pos, floats);
    src.pos += floats * 4;
    src.need(1)?;
    let has_norms = src.get_u8() != 0;
    let store = if has_norms {
        src.need(n * 4)?;
        check_inv_norms(b, src.pos, n)?;
        let inv = f32s_at(b, src.pos, n);
        src.pos += n * 4;
        VectorStore::from_flat_with_inv_norms(config.dim, flat, inv)
    } else {
        VectorStore::from_flat(config.dim, flat)
    };
    if config.metric == Metric::Angular && !has_norms {
        return Err(src.corrupt("angular index lacks norm column"));
    }
    if src.has_remaining() {
        return Err(src.corrupt("trailing bytes in data section"));
    }

    let mut src = RawSrc::new(b, sections[3].0, sections[3].1);
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
        if start > end || end > n {
            return Err(src.corrupt("invalid block bounds"));
        }
        let graph = read_graph(&mut src, end - start)?;
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

    /// Serialises the snapshot into one contiguous buffer: a leaf directory
    /// with per-piece CRCs, then one page-aligned, self-contained record per
    /// leaf (timestamps, rows, optional norm and SQ8 columns, the leaf
    /// block's graph), then the block metadata with a graph directory and
    /// the internal-block graphs — a stream a [`crate::tier::ColdIndex`] can
    /// serve straight off disk.
    pub fn to_bytes(&self) -> Bytes {
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
        write_header(&mut b, StreamKind::Snapshot);
        let mut bounds = vec![0, b.len()];
        write_config(&mut b, config);
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

    /// Deserialises a snapshot from one contiguous buffer, eagerly: every
    /// section CRC is verified and every column is copied into RAM. Fails
    /// with [`MbiError::KindMismatch`] on an index stream (convert a loaded
    /// [`MbiIndex`] with [`IndexSnapshot::from_index`] instead).
    pub fn from_bytes(b: Bytes) -> Result<Self, MbiError> {
        let layout = parse_v7_layout(&b)?;
        verify_body(&b, &parse_footer(&b)?)?;
        let config = layout.config;
        let dim = config.dim;
        let seg_rows = layout.seg_rows;
        let mut store = SegmentStore::new(dim, seg_rows);
        for leaf in 0..layout.num_leaves {
            let cols = layout.check_leaf(&b, leaf)?;
            let flat = f32s_at(&b, cols.rows, seg_rows * dim);
            let leaf_store = if layout.has_norms {
                let inv = f32s_at(&b, cols.inv, seg_rows);
                VectorStore::from_flat_with_inv_norms(dim, flat, inv)
            } else {
                VectorStore::from_flat(dim, flat)
            };
            let mut seg = Segment::from_store(leaf_store);
            if layout.has_sq8 {
                seg.attach_sq8(Sq8Column::from_parts(
                    dim,
                    b[cols.sq8_codes..cols.sq8_codes + seg_rows * dim].to_vec(),
                    f32s_at(&b, cols.sq8_mins, dim),
                    f32s_at(&b, cols.sq8_deltas, dim),
                    f32s_at(&b, cols.sq8_norms, seg_rows),
                ));
            } else if config.sq8_scan {
                // A quantizing engine must see a uniformly quantized store
                // even when restoring from a stream written without codes.
                seg.build_sq8();
            }
            store.push_segment(Arc::new(seg));
        }
        let mut blocks = Vec::with_capacity(layout.blocks.len());
        for meta in &layout.blocks {
            blocks.push(Arc::new(Block {
                rows: meta.rows.clone(),
                height: meta.height,
                start_ts: meta.start_ts,
                end_ts: meta.end_ts,
                graph: decode_graph_at(&b, meta.graph_off, meta.graph_len, meta.rows.len())?,
            }));
        }
        let snap = IndexSnapshot {
            config,
            store,
            times: layout.times,
            blocks: blocks.into_iter().collect(),
            num_leaves: layout.num_leaves,
        };
        snap.validate().map_err(|detail| MbiError::corrupt(0, detail))?;
        Ok(snap)
    }
}

/// Zero-fills `b` up to absolute offset `target` (page padding).
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

/// Where one leaf's record lives in a snapshot stream: the page-aligned
/// record offset, the co-located graph, and the per-piece CRCs from the
/// directory.
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

/// One block's metadata from a snapshot's blocks section, graph unloaded:
/// enough to run block selection and to fetch + verify the graph on demand.
#[derive(Clone, Debug)]
pub(crate) struct V7BlockMeta {
    /// Global row range the block covers.
    pub(crate) rows: Range<usize>,
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

/// Absolute offsets of one leaf record's columns (the SQ8 ones are
/// meaningful only when the stream has SQ8 columns).
pub(crate) struct LeafCols {
    /// f32 row column.
    pub(crate) rows: usize,
    /// Inverse-norm column.
    pub(crate) inv: usize,
    /// SQ8 per-dimension minimums (the start of the SQ8 group).
    pub(crate) sq8_mins: usize,
    /// SQ8 per-dimension deltas.
    pub(crate) sq8_deltas: usize,
    /// SQ8 decoded squared row norms.
    pub(crate) sq8_norms: usize,
    /// SQ8 `u8` code matrix.
    pub(crate) sq8_codes: usize,
}

/// The parsed geometry of a snapshot stream: config, flags, where every
/// leaf record and block graph lives, and the timestamp column — everything
/// a reader (eager or cold/mmap) needs to load pieces independently.
/// [`parse_v7_layout`] builds it.
pub(crate) struct V7Layout {
    pub(crate) config: MbiConfig,
    pub(crate) num_leaves: usize,
    pub(crate) seg_rows: usize,
    pub(crate) has_norms: bool,
    pub(crate) has_sq8: bool,
    pub(crate) leaves: Vec<V7Leaf>,
    pub(crate) blocks: Vec<V7BlockMeta>,
    /// Every leaf's timestamps, CRC-verified, sorted, and consistent with
    /// the block directory.
    pub(crate) times: TimeChunks,
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

    /// Where leaf `leaf`'s columns start.
    pub(crate) fn cols(&self, leaf: usize) -> LeafCols {
        let rows = self.leaves[leaf].record_off + self.ts_len();
        let inv = rows + self.rows_len();
        let sq8_mins = inv + self.inv_len();
        let sq8_deltas = sq8_mins + self.config.dim * 4;
        let sq8_norms = sq8_deltas + self.config.dim * 4;
        let sq8_codes = sq8_norms + self.seg_rows * 4;
        LeafCols { rows, inv, sq8_mins, sq8_deltas, sq8_norms, sq8_codes }
    }

    /// Validates leaf `leaf`'s scalar side columns — inverse norms and SQ8
    /// parameters — and returns where its columns start. Both readers run
    /// this before building a segment; the cold reader first checks the
    /// per-piece CRCs, the eager one has checked the whole data section.
    pub(crate) fn check_leaf(&self, b: &[u8], leaf: usize) -> Result<LeafCols, MbiError> {
        let cols = self.cols(leaf);
        if self.has_norms {
            check_inv_norms(b, cols.inv, self.seg_rows)?;
        }
        if self.has_sq8 {
            check_sq8(b, &cols, self.config.dim, self.seg_rows)?;
        }
        Ok(cols)
    }
}

/// Parses a snapshot stream's header, config and directories off a raw
/// byte slice and reads its timestamp column. Verifies the footer, the
/// header and config CRCs, both directory CRCs, the directory geometry, and
/// each leaf's timestamp CRC, then checks the block directory against the
/// timestamps ([`validate_block_shape`]). Never reads the rows, side
/// columns or graphs: opening a cold file faults only the directory and
/// timestamp pages.
pub(crate) fn parse_v7_layout(b: &[u8]) -> Result<V7Layout, MbiError> {
    let sections = open_stream(b, StreamKind::Snapshot)?;
    let config = read_config(b, sections[1])?;

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
    let dir_bytes = num_leaves.checked_mul(LEAF_DIR_ENTRY_LEN).ok_or_else(|| d.overflow())?;
    d.need(dir_bytes.saturating_add(4))?;
    let dir_end = d.pos + dir_bytes;
    verify_crc(b, d0..dir_end, rd_u32(b, dir_end), "leaf directory")?;
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
    let mut layout = V7Layout {
        config,
        num_leaves,
        seg_rows,
        has_norms,
        has_sq8,
        leaves,
        blocks: Vec::new(),
        times: TimeChunks::new(seg_rows),
    };
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
    debug_assert_eq!(payload_len, layout.payload_len());
    let mut prev_end = dir_end + 4;
    for (i, leaf) in layout.leaves.iter().enumerate() {
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
    let entry_bytes = num_blocks.checked_mul(BLOCK_DIR_ENTRY_LEN).ok_or_else(|| s.overflow())?;
    s.need(entry_bytes.saturating_add(4))?;
    let meta_end = s.pos + entry_bytes;
    verify_crc(b, b0..meta_end, rd_u32(b, meta_end), "block directory")?;
    let mut leaf_ix = 0usize;
    let mut prev_graph_end = meta_end + 4;
    for i in 0..num_blocks {
        let at = b0 + 8 + i * BLOCK_DIR_ENTRY_LEN;
        let meta = V7BlockMeta {
            rows: s.get_u64_le() as usize..s.get_u64_le() as usize,
            height: s.get_u32_le(),
            start_ts: s.get_i64_le(),
            end_ts: s.get_i64_le(),
            graph_off: s.get_u64_le() as usize,
            graph_len: s.get_u64_le() as usize,
            graph_crc: s.get_u32_le(),
        };
        if meta.height == 0 {
            let Some(leaf) = layout.leaves.get(leaf_ix) else {
                return Err(MbiError::corrupt(at, "more leaf blocks than leaf records"));
            };
            if meta.graph_off != leaf.graph_off
                || meta.graph_len != leaf.graph_len
                || meta.graph_crc != leaf.crc_graph
            {
                return Err(MbiError::corrupt(
                    at,
                    "leaf block graph does not match the leaf directory",
                ));
            }
            leaf_ix += 1;
        } else {
            if meta.graph_off < prev_graph_end {
                return Err(MbiError::corrupt(at, "overlapping block graphs"));
            }
            let graph_end = meta.graph_off.checked_add(meta.graph_len).ok_or_else(|| ovf(at))?;
            if graph_end > b1 {
                return Err(MbiError::corrupt(at, "block graph overruns blocks section"));
            }
            prev_graph_end = graph_end;
        }
        layout.blocks.push(meta);
    }
    if leaf_ix != num_leaves {
        return Err(MbiError::corrupt(b0, "leaf record count does not match height-0 blocks"));
    }

    // The timestamp column is what block selection and window partitioning
    // read on every query, at 8 bytes/row: verify and copy it now.
    for leaf in &layout.leaves {
        let ts = leaf.record_off..leaf.record_off + layout.ts_len();
        verify_crc(b, ts.clone(), leaf.crc_ts, "leaf timestamps")?;
        let chunk: Arc<[i64]> = ts.step_by(8).map(|off| rd_i64(b, off)).collect();
        layout.times.push_chunk(chunk);
    }
    let shapes = layout.blocks.iter().map(|m| (m.rows.clone(), m.height, m.start_ts, m.end_ts));
    validate_block_shape(seg_rows, num_leaves, shapes, &layout.times)
        .map_err(|detail| MbiError::corrupt(b0, detail))?;
    Ok(layout)
}

/// Decodes one serialized block graph living at `off..off + len` of a
/// snapshot stream, in place; `block_len` is the owning block's row count,
/// used for edge validation.
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
    let mut gs = RawSrc::new(b, off, end);
    let graph = read_graph(&mut gs, block_len)?;
    if gs.has_remaining() {
        return Err(gs.corrupt("trailing bytes after block graph"));
    }
    Ok(graph)
}

fn write_config(b: &mut BytesMut, c: &MbiConfig) {
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
    b.put_u8(u8::from(c.sq8_scan));
    b.put_f32_le(c.sq8_overfetch);
    b.put_u64_le(c.ram_budget_bytes);
    b.put_u32_le(c.cache_shards.min(u32::MAX as usize) as u32);
}

/// Parses the config section, which must be consumed exactly.
fn read_config(bytes: &[u8], (start, end, _): Section) -> Result<MbiConfig, MbiError> {
    let b = &mut RawSrc::new(bytes, start, end);
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
    b.need(1 + 8 + 1 + 4 + 8 + 4)?;
    let parallel_build = b.get_u8() != 0;
    let query_threads = b.get_u64_le() as usize;
    let sq8_scan = b.get_u8() != 0;
    let sq8_overfetch = b.get_f32_le();
    if !sq8_overfetch.is_finite() || sq8_overfetch < 1.0 {
        return Err(b.corrupt(format!("sq8 overfetch {sq8_overfetch} out of range")));
    }
    let ram_budget_bytes = b.get_u64_le();
    let cache_shards = b.get_u32_le() as usize;
    if cache_shards == 0 || cache_shards > MAX_CACHE_SHARDS {
        return Err(b.corrupt(format!("implausible cache shard count {cache_shards}")));
    }
    if b.has_remaining() {
        return Err(b.corrupt("trailing bytes in config section"));
    }
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

fn read_hnsw_params(b: &mut RawSrc<'_>) -> Result<HnswParams, MbiError> {
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

fn metric_from_tag(b: &mut RawSrc<'_>) -> Result<Metric, MbiError> {
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

fn read_graph(b: &mut RawSrc<'_>, block_len: usize) -> Result<BlockGraph, MbiError> {
    b.need(1)?;
    match b.get_u8() {
        0 => {
            b.need(16)?;
            let degree = b.get_u64_le() as usize;
            let len = b.get_u64_le() as usize;
            if degree.checked_mul(block_len) != Some(len) {
                return Err(b.corrupt(format!(
                    "graph size {len} does not match degree {degree} × block {block_len}"
                )));
            }
            b.need(len.checked_mul(4).ok_or_else(|| b.overflow())?)?;
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
                if layers == 0 {
                    return Err(b.corrupt("hnsw node has no base layer"));
                }
                let mut node = Vec::with_capacity(layers);
                for _ in 0..layers {
                    b.need(4)?;
                    let len = b.get_u32_le() as usize;
                    b.need(len.checked_mul(4).ok_or_else(|| b.overflow())?)?;
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
            // The entry point carries the top layer; a deeper claimed
            // `max_level` would walk empty layers, a shallower one would
            // skip real ones.
            let top = links.get(entry as usize).map_or(0, |node| node.len() - 1);
            if max_level != top {
                return Err(b.corrupt(format!("hnsw max level {max_level}, entry has {top}")));
            }
            Ok(BlockGraph::Hnsw(HnswIndex::from_parts(params, metric, entry, max_level, links)))
        }
        t => Err(b.corrupt(format!("unknown graph tag {t}"))),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fail::{ErrorInjectingReader, ErrorInjectingWriter};
    use crate::index::QueryRequest;
    use crate::select::TimeWindow;
    use crate::tier::ColdIndex;
    use mbi_ann::FileMap;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::OnceLock;

    /// Recomputes every checksum of `bad` at the positions `orig` keeps
    /// them — per-piece CRCs, leaf- and block-directory CRCs, section CRCs,
    /// the footer CRC — so a mutated copy of the valid stream `orig` (either
    /// kind, same length) reaches the structural checks instead of failing
    /// a checksum.
    pub(crate) fn reseal(orig: &[u8], bad: &mut [u8]) {
        fn put_crc(bad: &mut [u8], at: usize, over: Range<usize>) {
            let crc = crc32(&bad[over]);
            bad[at..at + 4].copy_from_slice(&crc.to_le_bytes());
        }
        assert_eq!(orig.len(), bad.len(), "reseal keeps the stream length");
        let sections = parse_footer(orig).expect("orig is a valid stream");
        if StreamKind::of(orig).expect("orig is a valid stream") == StreamKind::Snapshot {
            let lay = parse_v7_layout(orig).expect("orig is a valid snapshot");
            let (d0, b0) = (sections[2].0, sections[3].0);
            for (i, leaf) in lay.leaves.iter().enumerate() {
                let e = d0 + 18 + i * LEAF_DIR_ENTRY_LEN + 24;
                let cols = lay.cols(i);
                put_crc(bad, e, leaf.record_off..cols.rows);
                put_crc(bad, e + 4, cols.rows..cols.inv);
                if lay.has_norms {
                    put_crc(bad, e + 8, cols.inv..cols.sq8_mins);
                }
                if lay.has_sq8 {
                    put_crc(bad, e + 12, cols.sq8_mins..leaf.graph_off);
                }
                put_crc(bad, e + 16, leaf.graph_off..leaf.graph_off + leaf.graph_len);
            }
            let dir_end = d0 + 18 + lay.num_leaves * LEAF_DIR_ENTRY_LEN;
            put_crc(bad, dir_end, d0..dir_end);
            for (i, m) in lay.blocks.iter().enumerate() {
                let e = b0 + 8 + i * BLOCK_DIR_ENTRY_LEN + 52;
                put_crc(bad, e, m.graph_off..m.graph_off + m.graph_len);
            }
            let meta_end = b0 + 8 + lay.blocks.len() * BLOCK_DIR_ENTRY_LEN;
            put_crc(bad, meta_end, b0..meta_end);
        }
        let footer_start = sections[3].1;
        for (i, &(start, end, _)) in sections.iter().enumerate() {
            put_crc(bad, footer_start + 1 + i * (1 + 8 + 4) + 9, start..end);
        }
        let total = orig.len();
        put_crc(bad, total - 12, footer_start..total - 12);
    }

    /// Absolute offset of block `i`'s entry in a snapshot stream's block
    /// directory.
    pub(crate) fn block_entry(snapshot: &[u8], i: usize) -> usize {
        parse_footer(snapshot).unwrap()[3].0 + 8 + i * BLOCK_DIR_ENTRY_LEN
    }

    /// `orig` with `patch` applied at `at`, resealed.
    pub(crate) fn patched(orig: &[u8], at: usize, patch: &[u8]) -> Bytes {
        let mut bad = orig.to_vec();
        bad[at..at + patch.len()].copy_from_slice(patch);
        reseal(orig, &mut bad);
        Bytes::from(bad)
    }

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
        // The appended junk displaces the footer → bad footer magic.
        let err = MbiIndex::from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(err.to_string().contains("footer magic"), "{err}");
        // A resealed stream whose blocks section claims one block fewer
        // than it holds surfaces the last block's bytes as trailing bytes.
        let raw = idx.to_bytes();
        let blocks = parse_footer(&raw).unwrap()[3].0;
        let fewer = (idx.blocks().len() as u64 - 1).to_le_bytes();
        let err = MbiIndex::from_bytes(patched(&raw, blocks + 8, &fewer)).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_unsorted_timestamps_with_offset() {
        let idx = build_index(GraphBackend::default(), 40);
        // Reseal the corrupted stream so the *structural* check is what
        // fires, and verify the reported offset points at the bad pair.
        let raw = idx.to_bytes();
        let ts_start = parse_footer(&raw).unwrap()[2].0 + 8; // after n
        let mut swapped = 1i64.to_le_bytes().to_vec();
        swapped.extend_from_slice(&0i64.to_le_bytes());
        let err = MbiIndex::from_bytes(patched(&raw, ts_start, &swapped)).unwrap_err();
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

    #[test]
    fn every_other_version_is_unsupported_by_all_three_loaders() {
        let idx = build_index(GraphBackend::default(), 32);
        let index_stream = idx.to_bytes();
        let snap_stream = IndexSnapshot::from_index(&idx).unwrap().to_bytes();
        for v in [2u32, 3, 4, 5, 6, 8] {
            let want = format!("unsupported version {v}");
            let index_v = patched(&index_stream, 4, &v.to_le_bytes());
            let snap_v = patched(&snap_stream, 4, &v.to_le_bytes());
            for stream in [&index_v, &snap_v] {
                let err = MbiIndex::from_bytes(stream.clone()).unwrap_err();
                assert!(err.to_string().contains(&want), "{err}");
                let err = IndexSnapshot::from_bytes(stream.clone()).unwrap_err();
                assert!(err.to_string().contains(&want), "{err}");
                let map = Arc::new(FileMap::from_bytes(stream.to_vec()));
                let err = ColdIndex::from_map(map).unwrap_err();
                assert!(err.to_string().contains(&want), "{err}");
            }
        }
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
    fn roundtrips_norm_column() {
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
    fn rejects_corrupt_norm_column() {
        let idx = build_angular_index(40);
        let raw = idx.to_bytes();
        let n = idx.len();
        // Norm column starts after n, timestamps, floats, and the flag byte.
        let norms_start = parse_footer(&raw).unwrap()[2].0 + 8 + n * 8 + n * 3 * 4 + 1;
        let err =
            MbiIndex::from_bytes(patched(&raw, norms_start, &f32::NAN.to_le_bytes())).unwrap_err();
        assert!(err.to_string().contains("inverse norm"), "{err}");
    }

    #[test]
    fn detects_any_section_flip_as_checksum_mismatch() {
        let idx = build_index(GraphBackend::default(), 40);
        let raw = idx.to_bytes().to_vec();
        // One flip inside each region: kind byte (header section), config,
        // data (a vector float — structurally valid, only the CRC sees it),
        // blocks.
        let data_start = parse_footer(&raw).unwrap()[2].0;
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
    fn detects_footer_flips() {
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

    /// The cold reader answers like the snapshot `snap` on the windows of
    /// [`assert_same_snapshot_answers`].
    fn assert_cold_answers(snap: &IndexSnapshot, cold: &ColdIndex) {
        let params = snap.config().search;
        for (q, w) in [(5.0f32, (0i64, 60i64)), (30.0, (10, 50)), (55.0, (40, 64))] {
            let query = [q, 0.0, -q];
            let req = QueryRequest::new(&query, 5, TimeWindow::new(w.0, w.1)).with_params(params);
            assert_eq!(snap.search(&req).results, cold.search(&req).unwrap().results);
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = IndexSnapshot::from_index(&build_index(GraphBackend::default(), 64)).unwrap();
        let bytes = snap.to_bytes();
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), VERSION);
        assert_eq!(StreamKind::of(&bytes).unwrap(), StreamKind::Snapshot);
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
    fn snapshot_roundtrips_sq8_column() {
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
    fn quantizing_config_rebuilds_sq8_from_columnless_stream() {
        // A stream written without a code column whose config asks for
        // sq8_scan must still load as a uniformly quantized store, through
        // both readers.
        let rows: Vec<[f32; 3]> =
            (0..48).map(|i| [i as f32, i as f32 * 0.5, -(i as f32)]).collect();
        let build = |sq8: bool| {
            let config = MbiConfig::new(3, Metric::Euclidean).with_leaf_size(16).with_sq8_scan(sq8);
            let mut idx = MbiIndex::new(config);
            for (i, r) in rows.iter().enumerate() {
                idx.insert(r, i as i64).unwrap();
            }
            IndexSnapshot::from_index(&idx).unwrap()
        };
        let snap = build(true);
        let exact = build(false).to_bytes();
        assert!(!parse_v7_layout(&exact).unwrap().has_sq8);
        // `sq8_scan` is the config record's byte before the overfetch f32,
        // the budget u64 and the shard count u32.
        let sq8_scan_at = parse_footer(&exact).unwrap()[1].1 - (4 + 8 + 4) - 1;
        let stream = patched(&exact, sq8_scan_at, &[1]);
        let loaded = IndexSnapshot::from_bytes(stream.clone()).unwrap();
        assert!(loaded.config().sq8_scan);
        assert!(loaded.store().has_sq8(), "sq8_scan config quantizes columnless streams on load");
        assert_same_snapshot_answers(&snap, &loaded);
        let cold =
            ColdIndex::from_map_with_budget(Arc::new(FileMap::from_bytes(stream.to_vec())), 0)
                .unwrap();
        assert!(cold.config().sq8_scan);
        assert_cold_answers(&snap, &cold);
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
    fn snapshot_loader_rejects_index_streams() {
        // An index stream is a kind mismatch for the snapshot loader; a
        // sealed index converts through `from_index` instead …
        let idx = build_index(GraphBackend::default(), 64);
        match IndexSnapshot::from_bytes(idx.to_bytes()) {
            Err(MbiError::KindMismatch {
                expected: StreamKind::Snapshot,
                found: StreamKind::Index,
            }) => {}
            other => panic!("expected KindMismatch, got {other:?}"),
        }
        let snap = IndexSnapshot::from_index(&MbiIndex::from_bytes(idx.to_bytes()).unwrap());
        assert_same_snapshot_answers(&snap.unwrap(), &IndexSnapshot::from_index(&idx).unwrap());
        // … which surfaces the tail explicitly when not sealed.
        let with_tail = build_index(GraphBackend::default(), 70);
        match IndexSnapshot::from_index(&with_tail) {
            Err(MbiError::UnsealedTail { tail_rows: 6 }) => {}
            other => panic!("expected UnsealedTail {{ 6 }}, got {other:?}"),
        }
    }

    #[test]
    fn index_loader_rejects_snapshot_streams() {
        let snap = IndexSnapshot::from_index(&build_index(GraphBackend::default(), 32)).unwrap();
        let err = MbiIndex::from_bytes(snap.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("snapshot"), "{err}");
        assert!(matches!(err, MbiError::KindMismatch { .. }), "{err}");
    }

    #[test]
    fn flipped_kind_byte_is_corruption_not_a_kind_mismatch() {
        let raw = build_index(GraphBackend::default(), 32).to_bytes();
        let mut bad = raw.to_vec();
        bad[8] = StreamKind::Snapshot.tag();
        let err = IndexSnapshot::from_bytes(Bytes::from(bad)).unwrap_err();
        assert!(matches!(err, MbiError::ChecksumMismatch { section: "header", .. }), "{err}");
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

    #[test]
    fn knn_degree_with_top_bit_set_is_an_error_not_a_panic() {
        // degree × block_len wraps back to the stored length when the top
        // bit of the degree is set; the size check must not wrap with it.
        let idx = build_index(GraphBackend::default(), 40);
        let raw = idx.to_bytes();
        // blocks := num_leaves num_blocks, then block 0's 36-byte header
        // and graph tag; the degree u64 follows.
        let degree_at = parse_footer(&raw).unwrap()[3].0 + 16 + 36 + 1;
        let degree = rd_u64(&raw, degree_at) | 1 << 63;
        let err = MbiIndex::from_bytes(patched(&raw, degree_at, &degree.to_le_bytes()));
        assert!(err.unwrap_err().to_string().contains("degree"));

        let sealed = build_index(GraphBackend::default(), 32);
        let snap = IndexSnapshot::from_index(&sealed).unwrap().to_bytes();
        let leaf0 = parse_v7_layout(&snap).unwrap().leaves[0];
        let degree = rd_u64(&snap, leaf0.graph_off + 1) | 1 << 63;
        let bad = patched(&snap, leaf0.graph_off + 1, &degree.to_le_bytes());
        assert!(IndexSnapshot::from_bytes(bad.clone()).is_err());
        let cold = ColdIndex::from_map_with_budget(Arc::new(FileMap::from_bytes(bad.to_vec())), 0)
            .unwrap();
        let req = QueryRequest::new(&[0.0; 3], 3, TimeWindow::new(0, 16));
        assert!(cold.search(&req).unwrap_err().to_string().contains("degree"));
    }

    #[test]
    fn hnsw_max_level_must_match_the_entry_node() {
        // A max level past the entry node's layers would make every graph
        // descent loop over the claimed (empty) layers: a flipped high byte
        // would hang the query.
        let idx = build_index(GraphBackend::Hnsw(HnswParams::default()), 32);
        let raw = idx.to_bytes();
        // blocks := num_leaves num_blocks, block 0's 36-byte header, then
        // the graph: tag, params (24), metric, entry (4), max_level (u64).
        let max_level_at = parse_footer(&raw).unwrap()[3].0 + 16 + 36 + 1 + 24 + 1 + 4;
        let huge = rd_u64(&raw, max_level_at) | 0xff << 56;
        let err = MbiIndex::from_bytes(patched(&raw, max_level_at, &huge.to_le_bytes()));
        assert!(err.unwrap_err().to_string().contains("hnsw max level"));
    }

    #[test]
    fn implausible_cache_shard_count_is_rejected_not_allocated() {
        let snap = IndexSnapshot::from_index(&build_index(GraphBackend::default(), 48)).unwrap();
        let raw = snap.to_bytes();
        let shards_at = parse_footer(&raw).unwrap()[1].1 - 4;
        let bad = patched(&raw, shards_at, &((1u32 << 31) + 8).to_le_bytes());
        let err = IndexSnapshot::from_bytes(bad.clone()).unwrap_err();
        assert!(err.to_string().contains("cache shard"), "{err}");
        let err = ColdIndex::from_map(Arc::new(FileMap::from_bytes(bad.to_vec()))).unwrap_err();
        assert!(err.to_string().contains("cache shard"), "{err}");
        let zero = patched(&raw, shards_at, &0u32.to_le_bytes());
        assert!(IndexSnapshot::from_bytes(zero).is_err());
    }

    /// The fuzz corpus: one stream of each kind per backend — kNN blocks
    /// over an SQ8 Euclidean config, HNSW blocks over an angular one —
    /// 40 rows, so index streams carry a tail and snapshots two leaves.
    fn fuzz_streams() -> &'static [(&'static str, Bytes)] {
        static STREAMS: OnceLock<Vec<(&'static str, Bytes)>> = OnceLock::new();
        STREAMS.get_or_init(|| {
            let knn = GraphBackend::NnDescent(NnDescentParams {
                degree: 4,
                max_iters: 2,
                ..Default::default()
            });
            let hnsw = GraphBackend::Hnsw(HnswParams { m: 4, ef_construction: 16, seed: 1 });
            let mut out = Vec::new();
            for (name, metric, backend, sq8) in [
                ("knn-sq8", Metric::Euclidean, knn, true),
                ("hnsw-angular", Metric::Angular, hnsw, false),
            ] {
                let config = MbiConfig::new(3, metric)
                    .with_leaf_size(16)
                    .with_backend(backend)
                    .with_sq8_scan(sq8)
                    .with_search(SearchParams::new(24, 1.2));
                let mut idx = MbiIndex::new(config);
                for i in 0..40 {
                    let x = i as f32;
                    idx.insert(&[(x * 0.31).sin() + 1.5, (x * 0.17).cos(), 0.1 * x], i).unwrap();
                }
                let mut sealed = MbiIndex::new(config);
                for i in 0..32 {
                    let row = &idx.store().as_flat()[i * 3..i * 3 + 3];
                    sealed.insert(row, i as i64).unwrap();
                }
                let snap = IndexSnapshot::from_index(&sealed).unwrap();
                out.push((name, idx.to_bytes()));
                out.push((name, snap.to_bytes()));
            }
            out
        })
    }

    /// Loads `bytes` through every reader — both eager loaders and the
    /// cold reader at budget 0 — and queries whatever loads, once with a
    /// k that makes block search scan and once with k = 1 over everything,
    /// which walks the block graphs. Errors are fine; a panic propagates to
    /// the caller.
    fn load_and_query_everywhere(bytes: &Bytes) {
        let q = [1.2f32, 0.4, 2.0];
        let queries = [(4, TimeWindow::new(3, 37)), (1, TimeWindow::new(0, 40))];
        if let Ok(idx) = MbiIndex::from_bytes(bytes.clone()) {
            for (k, w) in queries {
                idx.search(&QueryRequest::new(&q, k, w));
                idx.exact_query(&q, k, w);
            }
        }
        if let Ok(snap) = IndexSnapshot::from_bytes(bytes.clone()) {
            for (k, w) in queries {
                snap.search(&QueryRequest::new(&q, k, w));
                snap.exact_query(&q, k, w);
            }
        }
        let map = Arc::new(FileMap::from_bytes(bytes.to_vec()));
        if let Ok(cold) = ColdIndex::from_map_with_budget(map, 0) {
            for (k, w) in queries {
                let _ = cold.search(&QueryRequest::new(&q, k, w));
                let _ = cold.exact_query(&q, k, w);
            }
        }
    }

    /// Runs [`load_and_query_everywhere`] on `orig` with `orig[pos] ^= x`,
    /// resealed; returns the panic message, if any.
    fn resealed_flip_panics(orig: &Bytes, pos: usize, x: u8) -> Option<String> {
        let mut bad = orig.to_vec();
        bad[pos] ^= x;
        reseal(orig, &mut bad);
        let bad = Bytes::from(bad);
        catch_unwind(AssertUnwindSafe(|| load_and_query_everywhere(&bad))).err().map(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Any resealed single-byte flip of either stream kind, under
        /// either backend, loads and queries through both eager readers and
        /// the cold reader without a panic (or an abort, which would take
        /// the test process down).
        #[test]
        fn resealed_flips_never_panic(
            pick in 0usize..4,
            pos_seed in any::<u64>(),
            x in 1u8..=255,
        ) {
            let (name, orig) = &fuzz_streams()[pick];
            let pos = (pos_seed % orig.len() as u64) as usize;
            let panic = resealed_flip_panics(orig, pos, x);
            prop_assert!(panic.is_none(), "{} stream, byte {} ^ {:#04x}: {:?}", name, pos, x, panic);
        }
    }

    /// The exhaustive version of [`resealed_flips_never_panic`]: every byte
    /// of every corpus stream × {0x01, 0x80, 0xff}. Slow in debug builds;
    /// run it in release with `--include-ignored`.
    #[test]
    #[ignore = "exhaustive; run in release with --include-ignored"]
    fn resealed_flip_sweep_never_panics() {
        let mut panics = Vec::new();
        for (name, orig) in fuzz_streams() {
            for pos in 0..orig.len() {
                for x in [0x01u8, 0x80, 0xff] {
                    if let Some(msg) = resealed_flip_panics(orig, pos, x) {
                        panics.push(format!("{name}, byte {pos} ^ {x:#04x}: {msg}"));
                    }
                }
            }
        }
        assert!(panics.is_empty(), "{} panics:\n{}", panics.len(), panics.join("\n"));
    }
}
