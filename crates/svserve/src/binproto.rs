//! Length-prefixed binary framing (`proto::bin`).
//!
//! The JSON protocol re-serialises trees that svpack v2 already stores
//! columnar; this framing carries those bytes verbatim.  Both wires share
//! one port: a binary connection opens with the 4-byte [`PREFACE`], and
//! the server picks the wire per connection from its first bytes
//! ([`sniff`]).  A frame is a `u32` little-endian payload length followed
//! by the payload; payloads above [`MAX_FRAME`] are rejected with
//! `frame_too_large` **before** buffering (the length prefix is read
//! first), and — unlike the JSON wire's newline resync — an oversized or
//! corrupt length prefix is unrecoverable, so the connection is closed
//! after the error reply.
//!
//! Connection and payload layout (all integers little-endian, varints as
//! in `svtree::pack`):
//!
//! ```text
//! connection := PREFACE frame*
//! frame    := len:u32 payload            (len <= MAX_FRAME)
//! request  := 0x00 id:u64 method:str trace params:json blobs
//! response := 0x01 id:(0x00 | 0x01 u64) ok:u8
//!             ok=1 → result:json blobs
//!             ok=0 → code:str message:str
//! str      := varint-length bytes (UTF-8)
//! trace    := 0x00 | 0x01 trace_id:u64 parent:u64 sampled:u8
//! blobs    := varint-count (varint-length bytes)*
//! json     := 0x00                        null
//!           | 0x01 | 0x02                 false | true
//!           | 0x03 f64-le                 number
//!           | 0x04 str                    string
//!           | 0x05 varint-count json*     array
//!           | 0x06 varint-count (str json)*  object
//! ```
//!
//! Blobs ride out-of-band after the JSON value so svpack bytes never
//! pass through a string encoding; the JSON wire carries the same bytes
//! hex-encoded under `svpack_hex` instead.

use crate::client::Wire;
use crate::proto::{Request, ServeError, MAX_FRAME};
use crate::svjson::Json;
use std::io::{self, Read};
use svtrace::TraceCtx;
use svtree::pack::{read_varint, write_varint};

/// The bytes a binary connection opens with.  A bare sniff of the first
/// frame would be ambiguous (the low byte of a length prefix can be `{`);
/// a NUL first byte never starts a JSON request, so any other stream is
/// the JSON wire.
pub const PREFACE: [u8; 4] = *b"\0SVB";

/// The wire a connection speaks, judged from the bytes it has sent so
/// far: `Some(Bin)` once they start with the full [`PREFACE`],
/// `Some(Json)` as soon as they stop matching it, `None` while they are
/// a strict prefix of it (an empty `head` included).
pub fn sniff(head: &[u8]) -> Option<Wire> {
    let n = head.len().min(PREFACE.len());
    if head[..n] != PREFACE[..n] {
        Some(Wire::Json)
    } else if n == PREFACE.len() {
        Some(Wire::Bin)
    } else {
        None
    }
}

const KIND_REQUEST: u8 = 0;
const KIND_RESPONSE: u8 = 1;

/// Nesting bound for decoded JSON values (a hostile frame must not
/// recurse the decoder off the stack).
const MAX_DEPTH: usize = 200;

// ---------------------------------------------------------------- helpers

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], ServeError> {
    let end = pos.checked_add(n).filter(|&e| e <= buf.len());
    match end {
        Some(end) => {
            let s = &buf[*pos..end];
            *pos = end;
            Ok(s)
        }
        None => Err(ServeError::parse("truncated binary frame")),
    }
}

fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8, ServeError> {
    Ok(take(buf, pos, 1)?[0])
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64, ServeError> {
    let b = take(buf, pos, 8)?;
    Ok(u64::from_le_bytes(b.try_into().unwrap()))
}

fn read_len(buf: &[u8], pos: &mut usize) -> Result<usize, ServeError> {
    let v = read_varint(buf, pos).map_err(|e| ServeError::parse(e.to_string()))?;
    let v = usize::try_from(v).map_err(|_| ServeError::parse("length overflows usize"))?;
    // A single length can never exceed what the frame still holds — this
    // bounds every allocation below by the (already MAX_FRAME-checked)
    // frame size, even for corrupt frames.
    if v > buf.len() - *pos {
        return Err(ServeError::parse("length runs past the frame"));
    }
    Ok(v)
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_str(buf: &[u8], pos: &mut usize) -> Result<String, ServeError> {
    let n = read_len(buf, pos)?;
    let b = take(buf, pos, n)?;
    String::from_utf8(b.to_vec()).map_err(|_| ServeError::parse("string is not UTF-8"))
}

// ------------------------------------------------------------- json codec

fn write_json(out: &mut Vec<u8>, v: &Json) {
    match v {
        Json::Null => out.push(0),
        Json::Bool(false) => out.push(1),
        Json::Bool(true) => out.push(2),
        Json::Num(n) => {
            out.push(3);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Json::Str(s) => {
            out.push(4);
            write_str(out, s);
        }
        Json::Array(a) => {
            out.push(5);
            write_varint(out, a.len() as u64);
            for item in a {
                write_json(out, item);
            }
        }
        Json::Object(o) => {
            out.push(6);
            write_varint(out, o.len() as u64);
            for (k, val) in o {
                write_str(out, k);
                write_json(out, val);
            }
        }
    }
}

fn read_json(buf: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ServeError> {
    if depth > MAX_DEPTH {
        return Err(ServeError::parse("value nests too deeply"));
    }
    match read_u8(buf, pos)? {
        0 => Ok(Json::Null),
        1 => Ok(Json::Bool(false)),
        2 => Ok(Json::Bool(true)),
        3 => {
            let b = take(buf, pos, 8)?;
            Ok(Json::Num(f64::from_le_bytes(b.try_into().unwrap())))
        }
        4 => Ok(Json::Str(read_str(buf, pos)?)),
        5 => {
            let n = read_len(buf, pos)?; // items are ≥1 byte each
            let mut a = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                a.push(read_json(buf, pos, depth + 1)?);
            }
            Ok(Json::Array(a))
        }
        6 => {
            let n = read_len(buf, pos)?;
            let mut o = std::collections::BTreeMap::new();
            for _ in 0..n {
                let k = read_str(buf, pos)?;
                let v = read_json(buf, pos, depth + 1)?;
                o.insert(k, v);
            }
            Ok(Json::Object(o))
        }
        t => Err(ServeError::parse(format!("unknown value tag {t}"))),
    }
}

fn write_blobs(out: &mut Vec<u8>, blobs: &[&[u8]]) {
    write_varint(out, blobs.len() as u64);
    for b in blobs {
        write_varint(out, b.len() as u64);
        out.extend_from_slice(b);
    }
}

fn read_blobs(buf: &[u8], pos: &mut usize) -> Result<Vec<Vec<u8>>, ServeError> {
    let n = read_len(buf, pos)?; // blobs are ≥1 byte of length each
    let mut out = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let len = read_len(buf, pos)?;
        out.push(take(buf, pos, len)?.to_vec());
    }
    Ok(out)
}

/// Prefix `payload` with its u32 LE length.
fn frame(payload: Vec<u8>) -> Vec<u8> {
    debug_assert!(payload.len() <= u32::MAX as usize);
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

// ------------------------------------------------------------ frame codec

/// Encode a request frame (length prefix included).
pub fn encode_request(req: &Request, blobs: &[&[u8]]) -> Vec<u8> {
    let mut p = vec![KIND_REQUEST];
    p.extend_from_slice(&req.id.to_le_bytes());
    write_str(&mut p, &req.method);
    match &req.trace {
        None => p.push(0),
        Some(ctx) => {
            p.push(1);
            p.extend_from_slice(&ctx.trace_id.to_le_bytes());
            p.extend_from_slice(&ctx.parent_span_id.to_le_bytes());
            p.push(ctx.sampled as u8);
        }
    }
    write_json(&mut p, &req.params);
    write_blobs(&mut p, blobs);
    frame(p)
}

/// Decode a request payload (the frame body after the length prefix).
/// Mirrors `parse_request`'s leniency: a zero trace id degrades to
/// untraced rather than failing the request.
pub fn decode_request(payload: &[u8]) -> Result<(Request, Vec<Vec<u8>>), ServeError> {
    let pos = &mut 0usize;
    if read_u8(payload, pos)? != KIND_REQUEST {
        return Err(ServeError::parse("expected a request frame"));
    }
    let id = read_u64(payload, pos)?;
    let method = read_str(payload, pos)?;
    let trace = match read_u8(payload, pos)? {
        0 => None,
        1 => {
            let trace_id = read_u64(payload, pos)?;
            let parent_span_id = read_u64(payload, pos)?;
            let sampled = read_u8(payload, pos)? != 0;
            (trace_id != 0).then_some(TraceCtx { trace_id, parent_span_id, sampled })
        }
        t => return Err(ServeError::parse(format!("bad trace flag {t}"))),
    };
    let params = read_json(payload, pos, 0)?;
    let blobs = read_blobs(payload, pos)?;
    Ok((Request { id, method, params, trace }, blobs))
}

/// Encode a success response (length prefix included).  `blob` carries
/// svpack bytes verbatim — the binary wire's whole reason to exist.
pub fn encode_response_ok(id: u64, result: &Json, blob: Option<&[u8]>) -> Vec<u8> {
    let mut p = vec![KIND_RESPONSE, 1];
    p.extend_from_slice(&id.to_le_bytes());
    p.push(1);
    write_json(&mut p, result);
    match blob {
        Some(b) => write_blobs(&mut p, &[b]),
        None => write_blobs(&mut p, &[]),
    }
    frame(p)
}

/// Encode an error response; `id` is `None` when the request was too
/// mangled to carry one.
pub fn encode_response_err(id: Option<u64>, err: &ServeError) -> Vec<u8> {
    let mut p = vec![KIND_RESPONSE];
    match id {
        None => p.push(0),
        Some(id) => {
            p.push(1);
            p.extend_from_slice(&id.to_le_bytes());
        }
    }
    p.push(0);
    write_str(&mut p, err.code);
    write_str(&mut p, &err.message);
    frame(p)
}

/// Decode a response payload into `(id, Ok((result, blobs)) | Err(e))`,
/// mapping dynamic wire codes back onto the static set exactly as the
/// JSON `parse_response` does.
#[allow(clippy::type_complexity)]
pub fn decode_response(
    payload: &[u8],
) -> Result<(Option<u64>, Result<(Json, Vec<Vec<u8>>), ServeError>), ServeError> {
    let pos = &mut 0usize;
    if read_u8(payload, pos)? != KIND_RESPONSE {
        return Err(ServeError::parse("expected a response frame"));
    }
    let id = match read_u8(payload, pos)? {
        0 => None,
        1 => Some(read_u64(payload, pos)?),
        t => return Err(ServeError::parse(format!("bad id flag {t}"))),
    };
    match read_u8(payload, pos)? {
        1 => {
            let result = read_json(payload, pos, 0)?;
            let blobs = read_blobs(payload, pos)?;
            Ok((id, Ok((result, blobs))))
        }
        0 => {
            let code = read_str(payload, pos)?;
            let message = read_str(payload, pos)?;
            let code = [
                "parse_error",
                "bad_params",
                "unknown_method",
                "not_found",
                "frame_too_large",
                "shutting_down",
                "io",
                "deadline_exceeded",
                "overloaded",
                "panic",
            ]
            .iter()
            .find(|&&c| c == code)
            .copied()
            .unwrap_or("internal");
            Ok((id, Err(ServeError::new(code, message))))
        }
        t => Err(ServeError::parse(format!("bad ok flag {t}"))),
    }
}

// ------------------------------------------------------- incremental read

/// Incremental frame accumulator — the reactor's parser.  Feed arbitrary
/// byte chunks with [`push`](FrameAccum::push); [`next_frame`]
/// (FrameAccum::next_frame) yields complete payloads.  A length prefix
/// above [`MAX_FRAME`] is a fatal framing error: there is no newline to
/// resync on, so the caller replies `frame_too_large` and closes.
#[derive(Default)]
pub struct FrameAccum {
    buf: Vec<u8>,
}

impl FrameAccum {
    pub fn new() -> FrameAccum {
        FrameAccum::default()
    }

    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (bounded by `4 + MAX_FRAME` plus one read
    /// chunk: oversized prefixes fail before their payload is buffered).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ServeError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[0..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(ServeError::frame_too_large());
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }
}

/// One binary read attempt's outcome (the [`crate::proto::FrameRead`]
/// analogue).
#[derive(Debug, PartialEq, Eq)]
pub enum BinRead {
    /// A complete frame payload (length prefix stripped).
    Frame(Vec<u8>),
    /// The length prefix exceeded [`MAX_FRAME`] — the stream cannot be
    /// resynced; close after reporting.
    TooLarge,
    /// The read timed out mid-frame; partial bytes are retained.
    Timeout,
    /// Clean end of stream.
    Eof,
}

/// Blocking incremental reader over any `Read` (the client side; the
/// reactor drives [`FrameAccum`] directly off readiness events).
pub struct BinFrameReader<R: Read> {
    inner: R,
    accum: FrameAccum,
}

impl<R: Read> BinFrameReader<R> {
    pub fn new(inner: R) -> BinFrameReader<R> {
        BinFrameReader { inner, accum: FrameAccum::new() }
    }

    pub fn read_frame(&mut self) -> io::Result<BinRead> {
        let mut chunk = [0u8; 8192];
        loop {
            match self.accum.next_frame() {
                Err(_) => return Ok(BinRead::TooLarge),
                Ok(Some(p)) => return Ok(BinRead::Frame(p)),
                Ok(None) => {}
            }
            match self.inner.read(&mut chunk) {
                Ok(0) => return Ok(BinRead::Eof),
                Ok(n) => self.accum.push(&chunk[..n]),
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    return Ok(BinRead::Timeout)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

// ------------------------------------------------------------- hex bridge

/// Hex-encode blob bytes for the JSON wire's `svpack_hex`.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    s
}

/// Decode a [`hex_encode`]d string (`None` on odd length or non-hex).
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    let b = s.as_bytes();
    if !b.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(b.len() / 2);
    for pair in b.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, method: &str, params: Json) -> Request {
        Request { id, method: method.to_string(), params, trace: None }
    }

    #[test]
    fn request_roundtrips_with_trace_and_blobs() {
        let mut r = req(
            7,
            "tree",
            Json::obj([("db", Json::str("x")), ("n", Json::Num(2.5)), ("f", Json::Bool(false))]),
        );
        r.trace = Some(TraceCtx { trace_id: u64::MAX - 1, parent_span_id: 42, sampled: true });
        let f = encode_request(&r, &[b"\x00\x01\x02", b""]);
        assert_eq!(u32::from_le_bytes(f[0..4].try_into().unwrap()) as usize, f.len() - 4);
        let (back, blobs) = decode_request(&f[4..]).unwrap();
        assert_eq!(back, r);
        assert_eq!(blobs, vec![b"\x00\x01\x02".to_vec(), Vec::new()]);
    }

    #[test]
    fn zero_trace_id_degrades_to_untraced() {
        let mut r = req(1, "ping", Json::Null);
        r.trace = Some(TraceCtx { trace_id: 0, parent_span_id: 9, sampled: true });
        let f = encode_request(&r, &[]);
        let (back, _) = decode_request(&f[4..]).unwrap();
        assert_eq!(back.trace, None);
    }

    #[test]
    fn response_roundtrips_ok_err_and_null_id() {
        let f = encode_response_ok(3, &Json::str("hi"), Some(b"payload"));
        let (id, res) = decode_response(&f[4..]).unwrap();
        assert_eq!(id, Some(3));
        let (v, blobs) = res.unwrap();
        assert_eq!(v.as_str(), Some("hi"));
        assert_eq!(blobs, vec![b"payload".to_vec()]);

        let f = encode_response_err(Some(4), &ServeError::unknown_method("zap"));
        let (id, res) = decode_response(&f[4..]).unwrap();
        assert_eq!(id, Some(4));
        let e = res.unwrap_err();
        assert_eq!(e.code, "unknown_method");
        assert!(e.message.contains("zap"));

        let f = encode_response_err(None, &ServeError::parse("mangled"));
        let (id, res) = decode_response(&f[4..]).unwrap();
        assert_eq!(id, None);
        assert_eq!(res.unwrap_err().code, "parse_error");
    }

    #[test]
    fn unknown_error_codes_map_to_internal() {
        let f = encode_response_err(Some(1), &ServeError::new("internal", "x"));
        // Rewrite the code in place is fiddly; encode a custom one instead.
        let mut p = vec![1u8, 1];
        p.extend_from_slice(&1u64.to_le_bytes());
        p.push(0);
        write_str(&mut p, "made_up_code");
        write_str(&mut p, "msg");
        let (_, res) = decode_response(&p).unwrap();
        assert_eq!(res.unwrap_err().code, "internal");
        let (_, res) = decode_response(&f[4..]).unwrap();
        assert_eq!(res.unwrap_err().code, "internal");
    }

    #[test]
    fn truncated_and_corrupt_payloads_are_parse_errors() {
        let f = encode_request(&req(9, "ping", Json::Null), &[]);
        for cut in 1..f.len() - 4 {
            let e = decode_request(&f[4..4 + cut]).unwrap_err();
            assert_eq!(e.code, "parse_error", "cut at {cut}");
        }
        assert_eq!(decode_request(&[]).unwrap_err().code, "parse_error");
        assert_eq!(decode_request(&[9]).unwrap_err().code, "parse_error");
        // A length field claiming more bytes than the frame holds must be
        // rejected before allocating.
        let mut p = vec![0u8];
        p.extend_from_slice(&1u64.to_le_bytes());
        write_varint(&mut p, u32::MAX as u64); // method "length"
        assert_eq!(decode_request(&p).unwrap_err().code, "parse_error");
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut v = Json::Null;
        for _ in 0..(MAX_DEPTH + 10) {
            v = Json::Array(vec![v]);
        }
        let f = encode_request(&req(1, "m", v), &[]);
        assert_eq!(decode_request(&f[4..]).unwrap_err().code, "parse_error");
    }

    #[test]
    fn accum_handles_partial_and_multiple_frames() {
        let f1 = encode_request(&req(1, "a", Json::Null), &[]);
        let f2 = encode_response_ok(2, &Json::Num(4.0), None);
        let mut bytes = f1.clone();
        bytes.extend_from_slice(&f2);
        let mut acc = FrameAccum::new();
        // Feed one byte at a time: frames appear exactly at their
        // boundaries, never early, never mangled.
        let mut got = Vec::new();
        for b in &bytes {
            acc.push(std::slice::from_ref(b));
            while let Some(p) = acc.next_frame().unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], f1[4..].to_vec());
        assert_eq!(got[1], f2[4..].to_vec());
        assert_eq!(acc.buffered(), 0);
    }

    #[test]
    fn oversized_length_prefix_is_fatal() {
        let mut acc = FrameAccum::new();
        acc.push(&((MAX_FRAME as u32) + 1).to_le_bytes());
        assert_eq!(acc.next_frame().unwrap_err().code, "frame_too_large");
        // Exactly MAX_FRAME is fine (frame just isn't complete yet).
        let mut acc = FrameAccum::new();
        acc.push(&(MAX_FRAME as u32).to_le_bytes());
        assert_eq!(acc.next_frame().unwrap(), None);
    }

    #[test]
    fn bin_reader_reads_frames_then_eof() {
        let f1 = encode_response_ok(1, &Json::Null, None);
        let f2 = encode_response_ok(2, &Json::Null, Some(b"xyz"));
        let mut bytes = f1.clone();
        bytes.extend_from_slice(&f2);
        let mut r = BinFrameReader::new(&bytes[..]);
        assert_eq!(r.read_frame().unwrap(), BinRead::Frame(f1[4..].to_vec()));
        assert_eq!(r.read_frame().unwrap(), BinRead::Frame(f2[4..].to_vec()));
        assert_eq!(r.read_frame().unwrap(), BinRead::Eof);
    }

    #[test]
    fn hex_roundtrips() {
        for bytes in [&b""[..], &b"\x00"[..], &b"\xff\x10\x7f svpack"[..]] {
            let h = hex_encode(bytes);
            assert_eq!(hex_decode(&h).unwrap(), bytes);
        }
        assert_eq!(hex_decode("abc"), None);
        assert_eq!(hex_decode("zz"), None);
    }
}

#[cfg(test)]
mod proptests {
    //! Property tests: the codec round-trips arbitrary values, and no
    //! mangled input — truncation, corrupt lengths, random bytes,
    //! arbitrary chunking — can panic the decoder or the accumulator.
    //!
    //! The vendored proptest is generation-only with a small strategy
    //! vocabulary, so arbitrary requests are built the way `lib.rs`'s
    //! tree proptests build trees: a seed tuple mapped through a
    //! deterministic constructor (here a splitmix64 stream).

    use super::*;
    use crate::proto::{FrameRead, LineAccum};
    use crate::server::{Job, Parser, Step};
    use proptest::prelude::*;

    /// Deterministic value stream for building arbitrary requests.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            // splitmix64 — the seed fans out into a full value stream.
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// Arbitrary JSON with finite numbers only (the wire stores raw f64
    /// bits, but `Json` equality on NaN would fail the round-trip check
    /// for reasons that have nothing to do with the codec).
    fn build_json(g: &mut Gen, depth: usize) -> Json {
        let scalar_only = depth == 0;
        match g.below(if scalar_only { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(false),
            2 => Json::Bool(true),
            3 => Json::Num((g.next() as i32 as f64) / 8.0),
            4 => {
                let n = g.below(12) as usize;
                Json::Str((0..n).map(|_| (b'a' + g.below(26) as u8) as char).collect())
            }
            5 => {
                let n = g.below(4) as usize;
                Json::Array((0..n).map(|_| build_json(g, depth - 1)).collect())
            }
            _ => {
                let n = g.below(4) as usize;
                Json::Object(
                    (0..n)
                        .map(|i| {
                            let k = format!("k{}{}", i, g.below(10));
                            (k, build_json(g, depth - 1))
                        })
                        .collect(),
                )
            }
        }
    }

    fn build_request(seed: u64) -> (Request, Vec<Vec<u8>>) {
        let g = &mut Gen(seed);
        let method: String =
            (0..(1 + g.below(12) as usize)).map(|_| (b'a' + g.below(26) as u8) as char).collect();
        let trace = match g.below(3) {
            0 => None,
            _ => Some(TraceCtx {
                trace_id: 1 + g.below(u64::MAX - 1),
                parent_span_id: g.next(),
                sampled: g.below(2) == 1,
            }),
        };
        let params = build_json(g, 3);
        let n_blobs = g.below(3) as usize;
        let blobs = (0..n_blobs)
            .map(|_| {
                let len = g.below(64) as usize;
                (0..len).map(|_| g.next() as u8).collect()
            })
            .collect();
        (Request { id: g.next(), method, params, trace }, blobs)
    }

    fn encode(req: &Request, blobs: &[Vec<u8>]) -> Vec<u8> {
        let refs: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
        encode_request(req, &refs)
    }

    proptest! {
        #[test]
        fn request_roundtrips(seed in any::<u64>()) {
            let (req, blobs) = build_request(seed);
            let f = encode(&req, &blobs);
            prop_assert_eq!(
                u32::from_le_bytes(f[0..4].try_into().unwrap()) as usize,
                f.len() - 4
            );
            let (back, back_blobs) = decode_request(&f[4..]).unwrap();
            prop_assert_eq!(back, req);
            prop_assert_eq!(back_blobs, blobs);
        }

        #[test]
        fn response_roundtrips(seed in any::<u64>(), with_blob in 0u8..2) {
            let g = &mut Gen(seed);
            let id = g.next();
            let result = build_json(g, 3);
            let blob: Option<Vec<u8>> = (with_blob == 1).then(|| {
                (0..g.below(128) as usize).map(|_| g.next() as u8).collect()
            });
            let f = encode_response_ok(id, &result, blob.as_deref());
            let (back_id, res) = decode_response(&f[4..]).unwrap();
            prop_assert_eq!(back_id, Some(id));
            let (v, blobs) = res.unwrap();
            prop_assert_eq!(v, result);
            prop_assert_eq!(blobs, blob.into_iter().collect::<Vec<_>>());
        }

        #[test]
        fn truncation_is_always_a_clean_parse_error(
            seed in any::<u64>(),
            frac in 0.0f64..1.0,
        ) {
            let (req, blobs) = build_request(seed);
            let f = encode(&req, &blobs);
            let payload = &f[4..];
            let cut = ((payload.len() as f64) * frac) as usize;
            if cut < payload.len() {
                // Any strict prefix must fail cleanly — never panic, never
                // succeed on a short read (every field is length-checked,
                // and the decoder consumes exactly the encoded length).
                let e = decode_request(&payload[..cut]).unwrap_err();
                prop_assert_eq!(e.code, "parse_error");
            }
        }

        #[test]
        fn random_bytes_never_panic_the_decoders(
            bytes in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let _ = decode_request(&bytes);
            let _ = decode_response(&bytes);
        }

        #[test]
        fn corrupt_bytes_never_panic_or_over_allocate(
            seed in any::<u64>(),
            at in 0.0f64..1.0,
            flip in 1u8..255,
        ) {
            // Flip one payload byte: the decoder must reject or decode
            // without huge allocations or panics (every length field is
            // bounded by the remaining frame before any allocation).
            let (req, blobs) = build_request(seed);
            let f = encode(&req, &blobs);
            let mut payload = f[4..].to_vec();
            let i = ((payload.len() as f64) * at) as usize;
            let i = i.min(payload.len() - 1);
            payload[i] ^= flip;
            let _ = decode_request(&payload);
        }

        #[test]
        fn accum_reassembles_frames_under_arbitrary_chunking(
            seed in any::<u64>(),
            n_frames in 1usize..4,
            cuts in proptest::collection::vec(1usize..32, 1..16),
        ) {
            // Interleaved partial reads: concatenate several frames, then
            // feed the stream in arbitrary-sized chunks (cycling through
            // `cuts`) the way the reactor's readiness loop would see them,
            // once straight into the accumulator and once as a whole
            // connection (preface first) through the server's sniff.
            let mut stream = Vec::new();
            let mut want = Vec::new();
            for k in 0..n_frames {
                let (req, blobs) = build_request(seed.wrapping_add(k as u64));
                let f = encode(&req, &blobs);
                want.push(f[4..].to_vec());
                stream.extend_from_slice(&f);
            }
            let mut acc = FrameAccum::new();
            let mut got = Vec::new();
            for chunk in chunked(&stream, &cuts) {
                acc.push(chunk);
                while let Some(p) = acc.next_frame().unwrap() {
                    got.push(p);
                }
            }
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(acc.buffered(), 0);

            let conn = [&PREFACE[..], &stream].concat();
            let mut parser = Parser::new();
            let mut got = Vec::new();
            for chunk in chunked(&conn, &cuts) {
                parser.push(chunk);
                loop {
                    match parser.step() {
                        Step::Dispatch(Job::Bin(p)) => got.push(p),
                        Step::Idle => break,
                        _ => prop_assert!(false, "a binary stream left the binary wire"),
                    }
                }
            }
            prop_assert_eq!(got, want);
        }

        #[test]
        fn sniff_replays_any_non_preface_stream_into_the_line_framer(
            seed in any::<u64>(),
            keep in 0usize..4,
            cuts in proptest::collection::vec(1usize..32, 1..16),
        ) {
            // A connection that opens with `keep` preface bytes and then
            // goes astray (or with random bytes, lines and `\r`s from the
            // start) must yield exactly the lines the JSON framer yields
            // on the same bytes fed in one piece.
            let g = &mut Gen(seed);
            let mut conn = PREFACE[..keep].to_vec();
            for _ in 0..g.below(64) {
                conn.push(match g.below(8) {
                    0 => b'\n',
                    1 => b'\r',
                    2 => b' ',
                    _ => g.next() as u8,
                });
            }
            if conn.starts_with(&PREFACE) {
                return; // the random bytes spelled the preface out
            }
            let mut oracle = LineAccum::new();
            oracle.push(&conn);
            let mut want = Vec::new();
            while let Some(frame) = oracle.next_frame() {
                match frame {
                    FrameRead::Line(l) if l.trim().is_empty() => {}
                    FrameRead::Line(l) => want.push(l),
                    other => prop_assert!(false, "short lines only: {:?}", other),
                }
            }
            let mut parser = Parser::new();
            let mut got = Vec::new();
            for chunk in chunked(&conn, &cuts) {
                parser.push(chunk);
                loop {
                    match parser.step() {
                        Step::Dispatch(Job::Json(l)) => got.push(l),
                        Step::Idle => break,
                        _ => prop_assert!(false, "a JSON stream left the JSON wire"),
                    }
                }
            }
            prop_assert_eq!(got, want);
        }
    }

    /// `bytes` in consecutive chunks whose sizes cycle through `cuts`.
    fn chunked<'a>(bytes: &'a [u8], cuts: &'a [usize]) -> impl Iterator<Item = &'a [u8]> {
        let mut pos = 0;
        cuts.iter().cycle().map_while(move |&n| {
            let chunk = &bytes[pos..(pos + n).min(bytes.len())];
            pos += chunk.len();
            (!chunk.is_empty()).then_some(chunk)
        })
    }
}
