//! Never-panic, bounded-read fuzzing of the two parsers that read untrusted
//! socket bytes: the HTTP request head and MBI1 frames (with the payload
//! accessors and the QUERY reply decoder behind them).
//!
//! Every input is served in random-sized chunks with a read timeout
//! (`WouldBlock`) before each chunk, through the server's
//! [`PollReader`](mbi_server::wire::PollReader), so the parsers see what a
//! slow socket gives them. The default pass runs a sample; its `#[ignore]`d
//! twin runs many more cases (in release, with `--include-ignored`).

use mbi_server::http::{self, ParseError, MAX_HEAD_BYTES};
use mbi_server::wire::{self, PayloadReader, PollReader};
use proptest::prelude::*;
use std::io::{BufRead, ErrorKind, Read};

/// A socket stand-in over `bytes`: chunk sizes cycle through `cuts`, each
/// chunk comes after one `WouldBlock`, and the end is end of stream.
/// `pos` counts the bytes the parser has consumed.
struct Chunked {
    bytes: Vec<u8>,
    cuts: Vec<usize>,
    pos: usize,
    end: usize,
    chunks: usize,
    blocked: bool,
}

impl Chunked {
    fn new(bytes: Vec<u8>, cuts: Vec<usize>) -> Self {
        Chunked { bytes, cuts, pos: 0, end: 0, chunks: 0, blocked: false }
    }
}

impl BufRead for Chunked {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.end && self.end < self.bytes.len() {
            self.blocked = !self.blocked;
            if self.blocked {
                return Err(ErrorKind::WouldBlock.into());
            }
            self.end = (self.end + self.cuts[self.chunks % self.cuts.len()]).min(self.bytes.len());
            self.chunks += 1;
        }
        Ok(&self.bytes[self.pos..self.end])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.fill_buf()?.read(buf)?;
        self.consume(n);
        Ok(n)
    }
}

/// `source` behind the reader the server wraps every socket in (never
/// stopping, no idle deadline).
fn poll(source: &mut Chunked) -> PollReader<&mut Chunked, impl Fn() -> bool> {
    PollReader::new(source, || false, None)
}

/// Shapes fuzz bytes into an HTTP input: raw; an unterminated request line;
/// a request line then an unterminated header line; or a well-formed head
/// of printable headers, then a body.
fn http_input(kind: usize, bytes: Vec<u8>) -> Vec<u8> {
    let unterminated = || bytes.iter().map(|&b| if b == b'\n' { b' ' } else { b });
    match kind {
        0 => bytes,
        1 => unterminated().collect(),
        2 => b"GET /healthz HTTP/1.1\r\nX-Pad: ".iter().copied().chain(unterminated()).collect(),
        _ => {
            let mut head = b"POST /insert HTTP/1.1\r\nContent-Length: 16\r\n".to_vec();
            for line in bytes.chunks(61) {
                head.extend_from_slice(b"X-Pad: ");
                head.extend(line.iter().map(|b| b' ' + b % 95));
                head.extend_from_slice(b"\r\n");
            }
            head.extend_from_slice(b"\r\n");
            head.extend_from_slice(&bytes[..bytes.len().min(16)]);
            head
        }
    }
}

fn check_http(kind: usize, bytes: Vec<u8>, cuts: Vec<usize>) {
    let input = http_input(kind, bytes);
    let unterminated_past_cap = matches!(kind, 1 | 2) && input.len() > MAX_HEAD_BYTES;
    let mut source = Chunked::new(input, cuts);
    let outcome = http::read_request(&mut poll(&mut source));
    if let Err(ParseError::HeadTooLarge) = outcome {
        assert!(
            source.pos <= MAX_HEAD_BYTES + 1,
            "a head-size error after pulling {} head bytes",
            source.pos
        );
    } else {
        assert!(!unterminated_past_cap, "an unterminated head past the cap gave {outcome:?}");
    }
}

/// Shapes fuzz bytes into a stream of frames: each header byte below 16
/// declares a random length (almost always past any cap), any other
/// declares `3 × byte` payload bytes, which may run past the input's end.
fn frame_input(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut rest = bytes;
    while let Some((&h, tail)) = rest.split_first() {
        rest = tail;
        if h < 16 {
            let n = rest.len().min(4);
            out.extend_from_slice(&rest[..n]);
            rest = &rest[n..];
        } else {
            let n = (3 * h as usize).min(rest.len());
            out.extend_from_slice(&(3 * h as u32 + 1).to_le_bytes());
            out.extend_from_slice(&rest[..n]);
            rest = &rest[n..];
        }
    }
    out
}

/// Drives every payload accessor in an order the payload itself picks.
fn poke_payload(payload: &[u8]) {
    let _ = wire::decode_results(payload);
    let mut r = PayloadReader::new(payload);
    for &op in payload.iter().take(64) {
        let _ = match op % 9 {
            0 => r.u16().map(drop),
            1 => r.u32().map(drop),
            2 => r.u64().map(drop),
            3 => r.i64().map(drop),
            4 => r.f32().map(drop),
            5 => r.str16().map(drop),
            6 => r.u32().and_then(|n| r.f32s(n as usize)).map(drop),
            7 => r.f32s(usize::MAX).map(drop),
            _ => r.finish(),
        };
    }
}

fn check_frames(raw: bool, bytes: Vec<u8>, cuts: Vec<usize>, cap: usize) {
    let input = if raw { bytes } else { frame_input(&bytes) };
    let mut source = Chunked::new(input, cuts);
    loop {
        let start = source.pos;
        let declared = source
            .bytes
            .get(start..start + 4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize);
        let outcome = wire::read_frame_limit(&mut poll(&mut source), cap);
        match outcome {
            Ok(Some((_, payload))) => poke_payload(&payload),
            Ok(None) => break,
            Err(e) => {
                if declared.is_some_and(|len| len > cap) {
                    assert!(e.to_string().contains("exceeds cap"), "{e}");
                    assert_eq!(source.pos, start + 4, "payload read before the cap check");
                }
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn http_heads_never_panic_and_stop_at_the_cap(
        kind in 0usize..4,
        bytes in prop::collection::vec(any::<u8>(), 0..64 * 1024),
        cuts in prop::collection::vec(1usize..4096, 1..16),
    ) {
        check_http(kind, bytes, cuts);
    }

    #[test]
    fn frames_never_panic_and_check_the_cap_first(
        raw in any::<bool>(),
        bytes in prop::collection::vec(any::<u8>(), 0..64 * 1024),
        cuts in prop::collection::vec(1usize..4096, 1..16),
        cap in 16usize..2048,
    ) {
        check_frames(raw, bytes, cuts, cap);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32768))]

    #[test]
    #[ignore = "many cases; run in release with --include-ignored"]
    fn http_head_fuzz_many_cases(
        kind in 0usize..4,
        bytes in prop::collection::vec(any::<u8>(), 0..64 * 1024),
        cuts in prop::collection::vec(1usize..4096, 1..16),
    ) {
        check_http(kind, bytes, cuts);
    }

    #[test]
    #[ignore = "many cases; run in release with --include-ignored"]
    fn frame_fuzz_many_cases(
        raw in any::<bool>(),
        bytes in prop::collection::vec(any::<u8>(), 0..64 * 1024),
        cuts in prop::collection::vec(1usize..4096, 1..16),
        cap in 16usize..2048,
    ) {
        check_frames(raw, bytes, cuts, cap);
    }
}
