//! The compact binary protocol — the throughput path.
//!
//! A connection opens with the 4-byte magic `MBI1` (how the server tells
//! the two protocols apart), then exchanges frames:
//!
//! ```text
//! request:  [u32 len][u8 op][payload]          len = 1 + payload bytes
//! response: [u32 len][u8 status][payload]
//! ```
//!
//! All integers are little-endian. Ops:
//!
//! | op | name   | request payload                                           |
//! |----|--------|-----------------------------------------------------------|
//! | 01 | AUTH   | u16 name_len, name, u16 token_len, token                  |
//! | 02 | QUERY  | u32 k, i64 from, i64 to, u32 deadline_ms (0 = default), u32 dim, dim × f32 |
//! | 03 | INSERT | i64 timestamp, u32 dim, dim × f32                         |
//! | 04 | STATS  | (empty)                                                   |
//! | 05 | PING   | (empty)                                                   |
//! | 06 | HEALTH | (empty)                                                   |
//! | 07 | REPL_SUBSCRIBE | u16 id_len, follower id, u64 start_row            |
//! | 08 | PROMOTE | (empty)                                                  |
//!
//! Status 0 is OK; the non-zero codes mirror the HTTP error statuses. OK
//! payloads: QUERY → `u8 flags` (bit 0 reserved, never set; bit 1
//! timed-out/partial),
//! `u32 n`, then `n × (u32 id, i64 timestamp, f32 dist)`; INSERT → `u32 id`;
//! STATS/HEALTH → a JSON document; AUTH/PING/PROMOTE → empty. Every error
//! payload is a human-readable message.
//!
//! # Replication frames
//!
//! `REPL_SUBSCRIBE` flips the connection into a **push stream**: the OK
//! reply carries `u32 dim, u32 leaf_size, u64 leader_rows`, and from then on
//! the leader pushes frames tagged with the `REPL_*` constants below
//! ([`REPL_RECORD`], [`REPL_SEAL`], [`REPL_HEARTBEAT`], [`REPL_ERR`]) while
//! the follower sends [`REPL_ACK`] frames upstream on the same socket.
//! Record frames carry their own CRC-checked WAL payload; seal frames carry
//! the leader's segment CRC the follower verifies its own bytes against.
//!
//! # Reading a socket
//!
//! Every socket the server reads has a short read timeout, so its threads
//! can notice shutdown. [`PollReader`] is the one place that timeout is
//! handled: frames and HTTP requests are parsed through it and never see
//! it.

use mbi_core::TknnResult;
use std::io::{BufRead, ErrorKind, Read, Write};
use std::time::{Duration, Instant};

/// The protocol magic a binary connection opens with.
pub const MAGIC: [u8; 4] = *b"MBI1";

/// Largest frame either side accepts (guards against garbage lengths).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Request opcodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Authenticate the connection for one tenant.
    Auth = 0x01,
    /// One kNN query.
    Query = 0x02,
    /// One insert.
    Insert = 0x03,
    /// Tenant + server stats as JSON.
    Stats = 0x04,
    /// Liveness no-op.
    Ping = 0x05,
    /// Engine health as JSON.
    Health = 0x06,
    /// Subscribe this connection as a replication follower (push mode).
    ReplSubscribe = 0x07,
    /// Promote a replica tenant: verify its tail and open it for writes.
    Promote = 0x08,
}

impl Op {
    /// Decodes an opcode byte.
    pub fn from_u8(b: u8) -> Option<Op> {
        match b {
            0x01 => Some(Op::Auth),
            0x02 => Some(Op::Query),
            0x03 => Some(Op::Insert),
            0x04 => Some(Op::Stats),
            0x05 => Some(Op::Ping),
            0x06 => Some(Op::Health),
            0x07 => Some(Op::ReplSubscribe),
            0x08 => Some(Op::Promote),
            _ => None,
        }
    }
}

/// Push frame (leader → follower): one WAL record —
/// `u64 row, i64 timestamp, u32 dim, dim × f32`.
pub const REPL_RECORD: u8 = 0x41;
/// Push frame (leader → follower): a segment sealed — `u64 segment, u32 crc`.
pub const REPL_SEAL: u8 = 0x42;
/// Push frame (leader → follower): keep-alive with `u64 leader_rows`.
pub const REPL_HEARTBEAT: u8 = 0x43;
/// Push frame (leader → follower): terminal link error; payload is the
/// message. The follower decides from the message whether to reconnect
/// (transient) or stop (divergence/eviction).
pub const REPL_ERR: u8 = 0x44;
/// Upstream frame (follower → leader): `u64 next_row` — every row below it
/// is durable at the follower; the leader moves its retention hold there.
pub const REPL_ACK: u8 = 0x45;

/// Response status codes, mirroring the HTTP statuses of the JSON protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success.
    Ok = 0,
    /// Bad or cross-tenant credentials (HTTP 401/403).
    Unauthorized = 1,
    /// Shed by the admission gate (HTTP 503).
    Overloaded = 2,
    /// Deadline exceeded (HTTP 408).
    Timeout = 3,
    /// Malformed frame or arguments (HTTP 400).
    BadRequest = 4,
    /// Engine or I/O failure (HTTP 500).
    Internal = 5,
    /// Insert on a read-only tenant (HTTP 403).
    ReadOnly = 6,
}

impl Status {
    /// Decodes a status byte.
    pub fn from_u8(b: u8) -> Option<Status> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::Unauthorized),
            2 => Some(Status::Overloaded),
            3 => Some(Status::Timeout),
            4 => Some(Status::BadRequest),
            5 => Some(Status::Internal),
            6 => Some(Status::ReadOnly),
            _ => None,
        }
    }
}

/// QUERY response flag: the deadline expired; results are partial.
pub const FLAG_TIMED_OUT: u8 = 1 << 1;

/// Reads one frame, returning the tag byte (op or status) and payload.
/// `Ok(None)` means the peer closed cleanly between frames.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<(u8, Vec<u8>)>> {
    read_frame_limit(r, MAX_FRAME)
}

/// [`read_frame`] with an explicit frame-size cap (the server's slow-loris
/// guard configures a tighter one than the protocol-wide [`MAX_FRAME`]).
/// An oversized length errors with a message containing `"exceeds cap"` —
/// the caller can tell it apart from other framing errors.
pub fn read_frame_limit<R: Read>(r: &mut R, max: usize) -> std::io::Result<Option<(u8, Vec<u8>)>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 {
        return Err(std::io::Error::new(ErrorKind::InvalidData, "zero-length frame"));
    }
    let max = max.min(MAX_FRAME);
    if len > max {
        let message = format!("frame length {len} exceeds cap {max}");
        return Err(std::io::Error::new(ErrorKind::InvalidData, message));
    }
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let mut payload = vec![0u8; len - 1];
    r.read_exact(&mut payload)?;
    Ok(Some((tag[0], payload)))
}

/// A buffered reader over a socket with a read timeout, which it never
/// passes on: on each timeout it either waits on or gives up, and giving up
/// reads as end of stream. It gives up
///
/// * when `stop` returns true before any byte of the current request or
///   frame has arrived — a clean close;
/// * at the idle deadline, wherever that falls — [`PollReader::idled_out`]
///   then says so.
///
/// Otherwise a request or frame that arrives in pieces resumes where it
/// left off. The caller marks each request or frame boundary with
/// [`PollReader::boundary`], which also re-arms the idle deadline, so with
/// `idle` set each request must arrive whole within `idle` of the last
/// boundary.
pub struct PollReader<R, S> {
    inner: R,
    stop: S,
    idle: Option<Duration>,
    deadline: Option<Instant>,
    started: bool,
    idled_out: bool,
}

impl<R: BufRead, S: Fn() -> bool> PollReader<R, S> {
    /// Wraps `inner`; `idle: None` waits on a started request forever.
    pub fn new(inner: R, stop: S, idle: Option<Duration>) -> Self {
        let deadline = idle.map(|d| Instant::now() + d);
        PollReader { inner, stop, idle, deadline, started: false, idled_out: false }
    }

    /// Marks a request or frame boundary: the next byte starts a new one.
    pub fn boundary(&mut self) {
        self.started = false;
        self.deadline = self.idle.map(|d| Instant::now() + d);
    }

    /// Whether the reader gave up at the idle deadline.
    pub fn idled_out(&self) -> bool {
        self.idled_out
    }
}

impl<R: BufRead, S: Fn() -> bool> BufRead for PollReader<R, S> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        loop {
            match self.inner.fill_buf() {
                Ok([]) => return Ok(&[]),
                Ok(_) => break,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if !self.started && (self.stop)() {
                        return Ok(&[]);
                    }
                    if self.deadline.is_some_and(|d| Instant::now() >= d) {
                        self.idled_out = true;
                        return Ok(&[]);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        self.started = true;
        self.inner.fill_buf()
    }

    fn consume(&mut self, n: usize) {
        self.inner.consume(n);
    }
}

impl<R: BufRead, S: Fn() -> bool> Read for PollReader<R, S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.fill_buf()?.read(buf)?;
        self.consume(n);
        Ok(n)
    }
}

/// Writes one frame.
pub fn write_frame<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> std::io::Result<()> {
    let len = (payload.len() + 1) as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[tag])?;
    w.write_all(payload)?;
    w.flush()
}

/// A little-endian payload reader with bounds-checked accessors.
pub struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Wraps a payload.
    pub fn new(bytes: &'a [u8]) -> Self {
        PayloadReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(format!("payload truncated at byte {}", self.pos)),
        }
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f32`.
    pub fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a length-prefixed (`u16`) UTF-8 string.
    pub fn str16(&mut self) -> Result<String, String> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "string not utf-8".into())
    }

    /// Reads `n` consecutive `f32`s.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, String> {
        let bytes = self.take(n.checked_mul(4).ok_or("vector length overflow")?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Asserts the payload is fully consumed.
    pub fn finish(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes in payload", self.bytes.len() - self.pos))
        }
    }
}

/// Builds the little-endian payloads the reader parses.
#[derive(Default)]
pub struct PayloadWriter {
    bytes: Vec<u8>,
}

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u16`.
    pub fn u16(mut self, v: u16) -> Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u32`.
    pub fn u32(mut self, v: u32) -> Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64`.
    pub fn u64(mut self, v: u64) -> Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `i64`.
    pub fn i64(mut self, v: i64) -> Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a single byte.
    pub fn u8(mut self, v: u8) -> Self {
        self.bytes.push(v);
        self
    }

    /// Appends a length-prefixed (`u16`) string.
    pub fn str16(mut self, s: &str) -> Self {
        assert!(s.len() <= u16::MAX as usize, "string too long for u16 prefix");
        self.bytes.extend_from_slice(&(s.len() as u16).to_le_bytes());
        self.bytes.extend_from_slice(s.as_bytes());
        self
    }

    /// Appends raw f32s.
    pub fn f32s(mut self, vs: &[f32]) -> Self {
        for v in vs {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// The finished payload.
    pub fn build(self) -> Vec<u8> {
        self.bytes
    }
}

/// Encodes a QUERY OK payload.
pub fn encode_results(results: &[TknnResult], flags: u8) -> Vec<u8> {
    let mut w = PayloadWriter::new().u8(flags).u32(results.len() as u32);
    for r in results {
        w = w.u32(r.id).i64(r.timestamp);
        w.bytes.extend_from_slice(&r.dist.to_le_bytes());
    }
    w.build()
}

/// Decodes a QUERY OK payload into `(flags, results)`.
pub fn decode_results(payload: &[u8]) -> Result<(u8, Vec<TknnResult>), String> {
    let mut r = PayloadReader::new(payload);
    let flags = *r.take(1)?.first().expect("1 byte");
    let n = r.u32()? as usize;
    // Each result is 16 bytes on the wire: a bogus count cannot reserve
    // more than the payload could hold.
    let mut out = Vec::with_capacity(n.min(payload.len() / 16));
    for _ in 0..n {
        out.push(TknnResult { id: r.u32()?, timestamp: r.i64()?, dist: r.f32()? });
    }
    r.finish()?;
    Ok((flags, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io::BufReader;

    /// A socket stand-in: each step yields its bytes, an empty step is one
    /// read timeout, and the end of the script is end of stream.
    struct Script(VecDeque<&'static [u8]>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some([]) => Err(ErrorKind::WouldBlock.into()),
                Some(bytes) => {
                    buf[..bytes.len()].copy_from_slice(bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    fn scripted(
        steps: &[&'static [u8]],
        stop: bool,
        idle: Option<Duration>,
    ) -> PollReader<BufReader<Script>, impl Fn() -> bool> {
        PollReader::new(BufReader::new(Script(steps.iter().copied().collect())), move || stop, idle)
    }

    #[test]
    fn stop_waits_for_a_started_frame_then_closes_cleanly() {
        // A PING frame split inside its length and before its tag, with
        // the stop flag already up: the frame still arrives whole…
        let steps: &[&[u8]] = &[&[1, 0], &[], &[], &[0, 0], &[], &[Op::Ping as u8], &[], &[7]];
        let mut reader = scripted(steps, true, None);
        assert_eq!(read_frame(&mut reader).unwrap(), Some((Op::Ping as u8, Vec::new())));
        // …and between frames the stop flag is a clean close, leaving the
        // next step unread.
        reader.boundary();
        assert_eq!(read_frame(&mut reader).unwrap(), None);
        assert!(!reader.idled_out());
    }

    #[test]
    fn idle_deadline_cuts_a_frame_anywhere() {
        let steps: &[&[u8]] = &[&[1, 0, 0, 0], &[], &[Op::Ping as u8]];
        let mut reader = scripted(steps, false, Some(Duration::ZERO));
        assert!(read_frame(&mut reader).is_err(), "the tag never arrives in time");
        assert!(reader.idled_out());
        // Between frames the deadline reads as a clean close.
        let mut reader = scripted(&[&[]], false, Some(Duration::ZERO));
        assert_eq!(read_frame(&mut reader).unwrap(), None);
        assert!(reader.idled_out());
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Op::Query as u8, b"payload").unwrap();
        let (tag, payload) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(Op::from_u8(tag), Some(Op::Query));
        assert_eq!(payload, b"payload");
        // Clean EOF between frames is None, not an error.
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
    }

    #[test]
    fn bogus_lengths_are_rejected() {
        let mut buf = 0u32.to_le_bytes().to_vec();
        assert!(read_frame(&mut buf.as_slice()).is_err(), "zero length");
        buf = (MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
        assert!(read_frame(&mut buf.as_slice()).is_err(), "oversized length");
    }

    #[test]
    fn frame_limit_is_enforced_and_distinguishable() {
        // A frame within MAX_FRAME but over the caller's cap is rejected
        // with the "exceeds cap" marker the server keys its metrics on.
        let mut buf = Vec::new();
        write_frame(&mut buf, Op::Query as u8, &[0u8; 100]).unwrap();
        let err = read_frame_limit(&mut buf.as_slice(), 64).unwrap_err();
        assert!(err.to_string().contains("exceeds cap"), "{err}");
        // The same frame passes under a roomier cap.
        assert!(read_frame_limit(&mut buf.as_slice(), 4096).unwrap().is_some());
        // Zero-length frames carry a different message.
        let zero = 0u32.to_le_bytes().to_vec();
        let err = read_frame_limit(&mut zero.as_slice(), 64).unwrap_err();
        assert!(!err.to_string().contains("exceeds cap"), "{err}");
    }

    #[test]
    fn u64_roundtrips() {
        let payload = PayloadWriter::new().u64(u64::MAX - 7).u64(0).build();
        let mut r = PayloadReader::new(&payload);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.u64().unwrap(), 0);
        r.finish().unwrap();
    }

    #[test]
    fn payloads_roundtrip() {
        let payload =
            PayloadWriter::new().u32(7).i64(-5).str16("tenant-a").f32s(&[1.0, 2.5]).build();
        let mut r = PayloadReader::new(&payload);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.i64().unwrap(), -5);
        assert_eq!(r.str16().unwrap(), "tenant-a");
        assert_eq!(r.f32s(2).unwrap(), vec![1.0, 2.5]);
        r.finish().unwrap();
        // Truncation and trailing garbage are both errors.
        assert!(PayloadReader::new(&payload[..3]).u32().is_err());
        let mut r = PayloadReader::new(&payload);
        r.u32().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn results_roundtrip() {
        let results = vec![
            TknnResult { id: 1, timestamp: 10, dist: 0.5 },
            TknnResult { id: 9, timestamp: -3, dist: 2.25 },
        ];
        let enc = encode_results(&results, FLAG_TIMED_OUT);
        let (flags, dec) = decode_results(&enc).unwrap();
        assert_eq!(flags, FLAG_TIMED_OUT);
        assert_eq!(dec.len(), 2);
        assert_eq!((dec[0].id, dec[0].timestamp, dec[0].dist), (1, 10, 0.5));
        assert_eq!((dec[1].id, dec[1].timestamp, dec[1].dist), (9, -3, 2.25));
        assert!(decode_results(&enc[..enc.len() - 1]).is_err());
    }
}
