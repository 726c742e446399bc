//! Segmented, checksummed write-ahead log for the streaming engine.
//!
//! The paper's data model is append-only (§4.2): rows arrive forever in
//! timestamp order. [`StreamingMbi`](crate::StreamingMbi) acks an insert as
//! soon as the row is in the in-memory tail — a restart would silently lose
//! every row whose merge chain had not been persisted. The WAL closes that
//! hole: an insert appends one record here *before* it is acknowledged, so
//! [`StreamingMbi::recover`](crate::StreamingMbi::recover) can replay every
//! acked row over the last persisted snapshot.
//!
//! # On-disk format
//!
//! The log is a directory of segment files, one per sealed leaf (the engine
//! rotates at each seal), named `wal-<first_row>.log` with `first_row`
//! zero-padded so lexicographic order is row order:
//!
//! ```text
//! segment  := header record*
//! header   := "MBIW" version:u32 first_row:u64 dim:u64          (24 bytes)
//! record   := len:u32 crc:u32 payload                           (len = |payload|)
//! payload  := timestamp:i64 vector:[f32; dim]                   (little-endian)
//! ```
//!
//! `crc` is the CRC32 (IEEE) of `payload`. Records are fixed-size for a
//! given `dim`, so `len` is itself a strong validity check.
//!
//! # Failure semantics
//!
//! * A **torn tail** — the final record of the final segment cut short, or
//!   failing its CRC — is tolerated: the row was never acked (the append
//!   errored or the process died inside it), so replay simply stops there
//!   and the segment is truncated back to the last valid boundary.
//! * Any other invalid record is **corruption**, reported as
//!   [`MbiError::WalCorrupt`] with the segment and byte offset — never a
//!   panic, never silently dropped data.
//! * A failed append (I/O error, injected fault) rolls the segment back to
//!   the last record boundary so later appends keep the log parseable.
//!
//! Sealed-and-published leaves let their segments be pruned: once a
//! persisted snapshot covers a segment's rows, [`Wal::prune`] deletes it —
//! unless a registered replication *retention hold* ([`Wal::hold`]) still
//! needs it, in which case the segment survives until the hold advances,
//! is released, or falls behind the configured lag cap and is evicted.

use crate::error::MbiError;
use crate::fail;
use crate::Timestamp;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// CRC32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `data` — the checksum used by WAL records and the
/// persist format's sections, directories and footer.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &byte in data {
        c = CRC_TABLE[((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

pub(crate) const WAL_MAGIC: &[u8; 4] = b"MBIW";
pub(crate) const WAL_VERSION: u32 = 1;
pub(crate) const HEADER_LEN: u64 = 24;
pub(crate) const REC_HEADER_LEN: usize = 8;

pub(crate) fn segment_file_name(first_row: u64) -> String {
    format!("wal-{first_row:020}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

/// Best-effort directory fsync so segment creation/removal survives a crash;
/// ignored on platforms where directories cannot be synced.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// An open write-ahead log: appends go to the newest segment; rotation and
/// pruning are driven by the engine's seal/checkpoint events.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    dim: usize,
    file: File,
    segment_start: u64,
    /// Bytes of the current segment known to hold whole valid records (plus
    /// the header); failed appends roll the file back to this length.
    good_len: u64,
    next_row: u64,
    /// Scratch buffer for one encoded record (reused across appends).
    scratch: Vec<u8>,
    /// Retention holds: each registered follower pins every segment holding
    /// rows at or past its row, keeping [`Wal::prune`] from deleting
    /// segments the follower has not replicated yet.
    holds: std::collections::BTreeMap<String, u64>,
    /// A hold lagging more than this many rows behind the prune point is
    /// evicted (recorded in `evicted`) instead of wedging prune forever.
    hold_lag_cap: u64,
    /// Holds evicted by the lag cap, drained by [`Wal::take_evicted_holds`].
    evicted: Vec<String>,
}

/// One replayed WAL record, borrowed from the replay buffer.
#[derive(Debug, PartialEq)]
pub struct WalRecord<'a> {
    /// Global row id of the record (position in the insert stream).
    pub row: u64,
    /// The row's timestamp.
    pub timestamp: Timestamp,
    /// The row's vector (`dim` floats).
    pub vector: &'a [f32],
}

impl Wal {
    /// Creates a fresh, empty log in `dir` (creating the directory), with
    /// the first segment starting at global row 0.
    pub fn create(dir: impl Into<PathBuf>, dim: usize) -> Result<Self, MbiError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut wal = Wal {
            file: Self::open_segment(&dir, dim, 0)?,
            segment_start: 0,
            good_len: HEADER_LEN,
            next_row: 0,
            scratch: Vec::new(),
            holds: std::collections::BTreeMap::new(),
            hold_lag_cap: u64::MAX,
            evicted: Vec::new(),
            dir,
            dim,
        };
        wal.scratch.reserve(REC_HEADER_LEN + 8 + dim * 4);
        Ok(wal)
    }

    fn open_segment(dir: &Path, dim: usize, first_row: u64) -> Result<File, MbiError> {
        let path = dir.join(segment_file_name(first_row));
        let mut file = OpenOptions::new().create(true).write(true).truncate(true).open(&path)?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&first_row.to_le_bytes());
        header.extend_from_slice(&(dim as u64).to_le_bytes());
        file.write_all(&header)?;
        file.sync_data()?;
        sync_dir(dir);
        Ok(file)
    }

    /// Global row id the next append will get.
    pub fn next_row(&self) -> u64 {
        self.next_row
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one record. On any error the segment is rolled back to the
    /// last record boundary, so a failed append never leaves bytes that a
    /// later successful append would bury mid-segment.
    pub fn append(&mut self, t: Timestamp, vector: &[f32]) -> Result<(), MbiError> {
        debug_assert_eq!(vector.len(), self.dim);
        self.scratch.clear();
        let payload_len = 8 + vector.len() * 4;
        self.scratch.extend_from_slice(&(payload_len as u32).to_le_bytes());
        self.scratch.extend_from_slice(&[0; 4]); // crc placeholder
        self.scratch.extend_from_slice(&t.to_le_bytes());
        for &x in vector {
            self.scratch.extend_from_slice(&x.to_le_bytes());
        }
        let crc = crc32(&self.scratch[REC_HEADER_LEN..]);
        self.scratch[4..8].copy_from_slice(&crc.to_le_bytes());

        let result = match fail::trigger("wal::append") {
            Some(fail::FailAction::IoError) => Err(std::io::Error::other(fail::INJECTED_MSG)),
            Some(fail::FailAction::ShortWrite) => self
                .file
                .write_all(&self.scratch[..self.scratch.len() / 2])
                .and_then(|()| Err(std::io::Error::other(fail::INJECTED_MSG))),
            Some(fail::FailAction::Panic) => panic!("injected WAL panic"),
            None => self.file.write_all(&self.scratch),
        };
        match result {
            Ok(()) => {
                self.good_len += self.scratch.len() as u64;
                self.next_row += 1;
                Ok(())
            }
            Err(e) => {
                // Roll back any torn prefix — truncate *and* move the write
                // cursor back, or the next append would leave a zero-filled
                // hole where the torn bytes were. If even the rollback fails
                // the next replay still stops cleanly at the torn tail.
                let _ = self.file.set_len(self.good_len);
                let _ = self.file.seek(SeekFrom::Start(self.good_len));
                Err(MbiError::Io(e))
            }
        }
    }

    /// Forces appended records to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> Result<(), MbiError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Appends one record and, when `sync` is set, fsyncs it before
    /// returning. A failed sync rolls the record back out of the log (the
    /// caller will not ack the row, so replaying it would invent data).
    pub fn append_durable(
        &mut self,
        t: Timestamp,
        vector: &[f32],
        sync: bool,
    ) -> Result<(), MbiError> {
        let before = self.good_len;
        self.append(t, vector)?;
        if sync {
            if let Err(e) = self.file.sync_data() {
                let _ = self.file.set_len(before);
                let _ = self.file.seek(SeekFrom::Start(before));
                self.good_len = before;
                self.next_row -= 1;
                return Err(e.into());
            }
        }
        Ok(())
    }

    /// Points the log at a fresh segment starting at `first_row`, abandoning
    /// the current one. Used by recovery when the log on disk ends before
    /// the persisted snapshot (every logged row is already covered).
    pub(crate) fn reset_to(&mut self, first_row: u64) -> Result<(), MbiError> {
        self.file = Self::open_segment(&self.dir, self.dim, first_row)?;
        self.segment_start = first_row;
        self.good_len = HEADER_LEN;
        self.next_row = first_row;
        Ok(())
    }

    /// Syncs and rotates to a fresh segment starting at the next row id.
    /// The engine calls this when a leaf seals, so segment boundaries are
    /// leaf boundaries and pruning can drop whole leaves.
    pub fn rotate(&mut self) -> Result<(), MbiError> {
        self.file.sync_data()?;
        self.file = Self::open_segment(&self.dir, self.dim, self.next_row)?;
        self.segment_start = self.next_row;
        self.good_len = HEADER_LEN;
        Ok(())
    }

    /// Registers (or refreshes) a retention hold: segments holding rows at
    /// or past `row` survive [`Wal::prune`] until the hold advances, is
    /// released, or falls more than the lag cap behind the prune point.
    pub fn hold(&mut self, id: &str, row: u64) {
        self.holds.insert(id.to_string(), row);
    }

    /// Releases the retention hold registered under `id` (no-op when none).
    pub fn release_hold(&mut self, id: &str) {
        self.holds.remove(id);
    }

    /// The live retention holds as `(id, row)`, ordered by id.
    pub fn holds(&self) -> Vec<(String, u64)> {
        self.holds.iter().map(|(k, &v)| (k.clone(), v)).collect()
    }

    /// Sets the hold lag cap: a hold more than `rows` rows behind the prune
    /// point is evicted rather than pinning the log forever (default:
    /// unbounded).
    pub fn set_hold_lag_cap(&mut self, rows: u64) {
        self.hold_lag_cap = rows;
    }

    /// Drains the ids of holds evicted by the lag cap since the last call.
    pub fn take_evicted_holds(&mut self) -> Vec<String> {
        std::mem::take(&mut self.evicted)
    }

    /// Deletes every segment whose rows are all `< durable_rows` (covered by
    /// a persisted snapshot) **and** below every live retention hold. The
    /// newest segment is never deleted. Holds lagging more than the lag cap
    /// behind `durable_rows` are evicted first (and reported through
    /// [`Wal::take_evicted_holds`]) so one dead follower cannot pin the log
    /// forever. A segment vanishing underneath the delete (concurrent prune,
    /// manual cleanup) counts as already pruned, not an error.
    pub fn prune(&mut self, durable_rows: u64) -> Result<(), MbiError> {
        let cap = self.hold_lag_cap;
        let hopeless: Vec<String> = self
            .holds
            .iter()
            .filter(|&(_, &row)| durable_rows.saturating_sub(row) > cap)
            .map(|(id, _)| id.clone())
            .collect();
        for id in hopeless {
            self.holds.remove(&id);
            self.evicted.push(id);
        }
        let floor =
            self.holds.values().copied().min().map_or(durable_rows, |h| h.min(durable_rows));
        let segments = list_segments(&self.dir)?;
        let mut removed = false;
        for pair in segments.windows(2) {
            let (first_row, ref path) = pair[0];
            if pair[1].0 <= floor && first_row != self.segment_start {
                match std::fs::remove_file(path) {
                    Ok(()) => removed = true,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        if removed {
            sync_dir(&self.dir);
        }
        Ok(())
    }

    /// Opens the log in `dir`, replaying every valid record through
    /// `visit(row, timestamp, vector)` in row order, then positions the log
    /// to append after the last valid record (truncating a torn tail).
    ///
    /// A missing directory or an empty one yields a fresh log. A torn final
    /// record ends replay silently (it was never acked); any other invalid
    /// record is [`MbiError::WalCorrupt`].
    pub fn recover(
        dir: impl Into<PathBuf>,
        dim: usize,
        mut visit: impl FnMut(WalRecord<'_>) -> Result<(), MbiError>,
    ) -> Result<Self, MbiError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let segments = list_segments(&dir)?;
        let Some(&(last_start, _)) = segments.last() else {
            return Self::create(dir, dim);
        };

        let rec_payload = 8 + dim * 4;
        // The first remaining segment sets the starting row (earlier ones
        // may have been pruned under a persisted snapshot); every later
        // segment must continue exactly where its predecessor stopped.
        let mut next_row = segments[0].0;
        let mut last_valid_len = HEADER_LEN;
        for (i, (first_row, path)) in segments.iter().enumerate() {
            let is_last = i == segments.len() - 1;
            let bytes = std::fs::read(path)?;
            let corrupt =
                |offset: usize| MbiError::WalCorrupt { segment: *first_row, offset: offset as u64 };

            // Header. A segment shorter than its header can only be the
            // torn, never-acked creation of the newest segment.
            if bytes.len() < HEADER_LEN as usize {
                if is_last && *first_row == next_row {
                    last_valid_len = 0;
                    break;
                }
                return Err(corrupt(bytes.len()));
            }
            if &bytes[0..4] != WAL_MAGIC {
                return Err(corrupt(0));
            }
            if u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != WAL_VERSION {
                return Err(corrupt(4));
            }
            let header_row = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
            if header_row != *first_row || header_row != next_row {
                return Err(corrupt(8));
            }
            if u64::from_le_bytes(bytes[16..24].try_into().unwrap()) != dim as u64 {
                return Err(corrupt(16));
            }

            let mut off = HEADER_LEN as usize;
            loop {
                if off == bytes.len() {
                    break;
                }
                let torn = |end: usize| is_last && end >= bytes.len();
                if bytes.len() - off < REC_HEADER_LEN {
                    if torn(bytes.len()) {
                        break;
                    }
                    return Err(corrupt(off));
                }
                let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
                let end = off + REC_HEADER_LEN + len;
                if len != rec_payload {
                    // A torn append writes a *prefix* of a correct record, so
                    // a fully-present header with the wrong length is
                    // corruption — unless the header itself is part of the
                    // torn tail region (its record extends past EOF).
                    if torn(end) && end > bytes.len() {
                        break;
                    }
                    return Err(corrupt(off));
                }
                if end > bytes.len() {
                    if torn(end) {
                        break;
                    }
                    return Err(corrupt(off));
                }
                let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
                let payload = &bytes[off + REC_HEADER_LEN..end];
                if crc32(payload) != crc {
                    // A CRC failure on the record ending exactly at EOF of
                    // the newest segment is a torn write; anywhere else it
                    // is corruption.
                    if torn(end) && end == bytes.len() {
                        break;
                    }
                    return Err(corrupt(off));
                }
                let timestamp = i64::from_le_bytes(payload[0..8].try_into().unwrap());
                let mut vector = Vec::with_capacity(dim);
                for c in payload[8..].chunks_exact(4) {
                    vector.push(f32::from_le_bytes(c.try_into().unwrap()));
                }
                visit(WalRecord { row: next_row, timestamp, vector: &vector })?;
                next_row += 1;
                off = end;
                if is_last {
                    last_valid_len = off as u64;
                }
            }
        }

        // Reopen the newest segment for appending, truncating any torn tail
        // (or recreating it when even its header was torn).
        let path = dir.join(segment_file_name(last_start));
        let (file, segment_start, good_len) = if last_valid_len < HEADER_LEN {
            (Self::open_segment(&dir, dim, next_row)?, next_row, HEADER_LEN)
        } else {
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(last_valid_len)?;
            file.sync_data()?;
            (file, last_start, last_valid_len)
        };
        let mut wal = Wal {
            file,
            segment_start,
            good_len,
            next_row,
            scratch: Vec::new(),
            holds: std::collections::BTreeMap::new(),
            hold_lag_cap: u64::MAX,
            evicted: Vec::new(),
            dir,
            dim,
        };
        // Position the write cursor at the (possibly truncated) end.
        use std::io::Seek;
        wal.file.seek(std::io::SeekFrom::End(0))?;
        wal.scratch.reserve(REC_HEADER_LEN + rec_payload);
        Ok(wal)
    }
}

/// Segment files of `dir` as `(first_row, path)`, sorted by row.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, MbiError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(first_row) = entry.file_name().to_str().and_then(parse_segment_name) {
            out.push((first_row, entry.path()));
        }
    }
    out.sort_unstable();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mbi_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    type CollectedRows = Vec<(u64, Timestamp, Vec<f32>)>;

    fn collect(dir: &Path, dim: usize) -> Result<(CollectedRows, Wal), MbiError> {
        let mut rows = Vec::new();
        let wal = Wal::recover(dir, dim, |r| {
            rows.push((r.row, r.timestamp, r.vector.to_vec()));
            Ok(())
        })?;
        Ok((rows, wal))
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn roundtrip_with_rotation() {
        let dir = temp_dir("roundtrip");
        let mut wal = Wal::create(&dir, 2).unwrap();
        for i in 0..10i64 {
            wal.append(i, &[i as f32, -i as f32]).unwrap();
            if (i + 1) % 4 == 0 {
                wal.rotate().unwrap();
            }
        }
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(list_segments(&dir).unwrap().len(), 3, "two rotations + initial");

        let (rows, mut wal) = collect(&dir, 2).unwrap();
        assert_eq!(rows.len(), 10);
        for (i, (row, ts, v)) in rows.iter().enumerate() {
            assert_eq!(*row, i as u64);
            assert_eq!(*ts, i as i64);
            assert_eq!(v, &vec![i as f32, -(i as f32)]);
        }
        // Recovery resumes appending where the log ended.
        assert_eq!(wal.next_row(), 10);
        wal.append(10, &[10.0, -10.0]).unwrap();
        drop(wal);
        let (rows, _) = collect(&dir, 2).unwrap();
        assert_eq!(rows.len(), 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_replay_serves_prefix() {
        let dir = temp_dir("torn");
        let mut wal = Wal::create(&dir, 2).unwrap();
        for i in 0..5i64 {
            wal.append(i, &[i as f32, 0.0]).unwrap();
        }
        drop(wal);
        let seg = dir.join(segment_file_name(0));
        let full = std::fs::metadata(&seg).unwrap().len();
        let rec = (full - HEADER_LEN) / 5;
        // Cut the last record in half: replay yields 4 rows, and the file is
        // truncated back to the 4-record boundary.
        let torn_len = HEADER_LEN + 4 * rec + rec / 2;
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(torn_len).unwrap();
        let (rows, wal) = collect(&dir, 2).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(wal.next_row(), 4);
        drop(wal);
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), HEADER_LEN + 4 * rec);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_segment_corruption_is_wal_corrupt() {
        let dir = temp_dir("corrupt");
        let mut wal = Wal::create(&dir, 2).unwrap();
        for i in 0..4i64 {
            wal.append(i, &[i as f32, 0.0]).unwrap();
        }
        wal.rotate().unwrap();
        wal.append(4, &[4.0, 0.0]).unwrap();
        drop(wal);
        // Flip a payload byte of record 1 in the *first* (non-last) segment.
        let seg = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        let rec = (bytes.len() as u64 - HEADER_LEN) / 4;
        let victim = (HEADER_LEN + rec + REC_HEADER_LEN as u64) as usize;
        bytes[victim] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();
        match collect(&dir, 2) {
            Err(MbiError::WalCorrupt { segment: 0, offset }) => {
                assert_eq!(offset, HEADER_LEN + rec);
            }
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_drops_only_fully_covered_segments() {
        let dir = temp_dir("prune");
        let mut wal = Wal::create(&dir, 1).unwrap();
        for i in 0..9i64 {
            wal.append(i, &[i as f32]).unwrap();
            if (i + 1) % 3 == 0 {
                wal.rotate().unwrap();
            }
        }
        // Segments: [0,3) [3,6) [6,9) [9,..). Snapshot covers 6 rows.
        wal.prune(6).unwrap();
        let left: Vec<u64> = list_segments(&dir).unwrap().into_iter().map(|(r, _)| r).collect();
        assert_eq!(left, vec![6, 9]);
        // Replay restarts at the first surviving segment, keeping the
        // original global row ids from the segment headers.
        let (rows, _) = collect(&dir, 1).unwrap();
        let ids: Vec<u64> = rows.iter().map(|(r, _, _)| *r).collect();
        assert_eq!(ids, vec![6, 7, 8]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_tolerates_segment_vanishing_underneath() {
        let dir = temp_dir("prune_race");
        let mut wal = Wal::create(&dir, 1).unwrap();
        for i in 0..9i64 {
            wal.append(i, &[i as f32]).unwrap();
            if (i + 1) % 3 == 0 {
                wal.rotate().unwrap();
            }
        }
        // Simulate a concurrent prune/manual cleanup deleting a fully
        // covered segment between the listing and the remove.
        std::fs::remove_file(dir.join(segment_file_name(0))).unwrap();
        wal.prune(6).unwrap();
        let left: Vec<u64> = list_segments(&dir).unwrap().into_iter().map(|(r, _)| r).collect();
        assert_eq!(left, vec![6, 9]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_hold_pins_segments_until_released() {
        let dir = temp_dir("hold");
        let mut wal = Wal::create(&dir, 1).unwrap();
        for i in 0..9i64 {
            wal.append(i, &[i as f32]).unwrap();
            if (i + 1) % 3 == 0 {
                wal.rotate().unwrap();
            }
        }
        // A follower at row 3 pins [3,6) even though the snapshot covers 9.
        wal.hold("follower-a", 3);
        wal.prune(9).unwrap();
        let left: Vec<u64> = list_segments(&dir).unwrap().into_iter().map(|(r, _)| r).collect();
        assert_eq!(left, vec![3, 6, 9], "segment [3,6) survives under the hold");
        assert_eq!(wal.holds(), vec![("follower-a".to_string(), 3)]);
        // The hold advancing releases the pinned prefix.
        wal.hold("follower-a", 6);
        wal.prune(9).unwrap();
        let left: Vec<u64> = list_segments(&dir).unwrap().into_iter().map(|(r, _)| r).collect();
        assert_eq!(left, vec![6, 9]);
        wal.release_hold("follower-a");
        wal.prune(9).unwrap();
        let left: Vec<u64> = list_segments(&dir).unwrap().into_iter().map(|(r, _)| r).collect();
        assert_eq!(left, vec![9]);
        assert!(wal.take_evicted_holds().is_empty(), "released, never evicted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lag_cap_evicts_hopeless_holds_instead_of_wedging_prune() {
        let dir = temp_dir("lagcap");
        let mut wal = Wal::create(&dir, 1).unwrap();
        wal.set_hold_lag_cap(4);
        for i in 0..9i64 {
            wal.append(i, &[i as f32]).unwrap();
            if (i + 1) % 3 == 0 {
                wal.rotate().unwrap();
            }
        }
        // Row 3 is 6 rows behind durable_rows = 9 > cap 4: evicted, pruned.
        wal.hold("dead-follower", 3);
        wal.hold("live-follower", 6);
        wal.prune(9).unwrap();
        assert_eq!(wal.take_evicted_holds(), vec!["dead-follower".to_string()]);
        let left: Vec<u64> = list_segments(&dir).unwrap().into_iter().map(|(r, _)| r).collect();
        assert_eq!(left, vec![6, 9], "live hold (lag 3 ≤ cap) still pins [6,9)");
        assert_eq!(wal.holds().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_contiguous_segments_are_corrupt() {
        let dir = temp_dir("gap");
        let mut wal = Wal::create(&dir, 1).unwrap();
        for i in 0..6i64 {
            wal.append(i, &[i as f32]).unwrap();
            if (i + 1) % 3 == 0 {
                wal.rotate().unwrap();
            }
        }
        drop(wal);
        // Deleting a *middle* segment leaves a row gap: replay must refuse.
        std::fs::remove_file(dir.join(segment_file_name(3))).unwrap();
        match collect(&dir, 1) {
            Err(MbiError::WalCorrupt { segment: 6, offset: 8 }) => {}
            other => panic!("expected WalCorrupt over the gap, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
