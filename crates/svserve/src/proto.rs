//! Line-framed request/response protocol.
//!
//! One frame per line: a request is `{"id":N,"method":"...","params":...}`
//! followed by `\n`; the response to it is `{"id":N,"ok":true,"result":…}`
//! or `{"id":N,"ok":false,"error":{"code":"...","message":"..."}}`.
//! Frames above [`MAX_FRAME`] bytes are rejected *without* desynchronising
//! the stream — the reader discards up to the next newline and keeps
//! going, so a misbehaving client gets a structured error instead of
//! killing the connection (let alone the server).

use crate::svjson::{self, Json};
use std::io::{self, Read};
use svtrace::TraceCtx;

/// Maximum frame length in bytes, newline excluded (1 MiB).
pub const MAX_FRAME: usize = 1 << 20;

/// A structured protocol-level error, serialisable into a response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// Stable machine-readable code (`parse_error`, `unknown_method`, …).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ServeError {
    pub fn new(code: &'static str, message: impl Into<String>) -> ServeError {
        ServeError { code, message: message.into() }
    }

    /// Frame was not valid JSON or not a request object.
    pub fn parse(message: impl Into<String>) -> ServeError {
        ServeError::new("parse_error", message)
    }

    /// Request shape was valid but a parameter is missing or mistyped.
    pub fn bad_params(message: impl Into<String>) -> ServeError {
        ServeError::new("bad_params", message)
    }

    /// No handler registered under the requested method.
    pub fn unknown_method(method: &str) -> ServeError {
        ServeError::new("unknown_method", format!("no such method '{method}'"))
    }

    /// A referenced entity (DB, label) does not exist.
    pub fn not_found(message: impl Into<String>) -> ServeError {
        ServeError::new("not_found", message)
    }

    /// Handler failed while executing.
    pub fn internal(message: impl Into<String>) -> ServeError {
        ServeError::new("internal", message)
    }

    /// Frame exceeded [`MAX_FRAME`].
    pub fn frame_too_large() -> ServeError {
        ServeError::new("frame_too_large", format!("frame exceeds the {MAX_FRAME}-byte limit"))
    }

    /// The job missed its deadline (queued too long, or the handler ran
    /// past it).  Retrying only helps with a longer deadline or a less
    /// loaded server.
    pub fn deadline_exceeded(message: impl Into<String>) -> ServeError {
        ServeError::new("deadline_exceeded", message)
    }

    /// The server shed the job under load (queue full or draining).
    /// Retryable: back off and resubmit.
    pub fn overloaded(message: impl Into<String>) -> ServeError {
        ServeError::new("overloaded", message)
    }

    /// The handler panicked; the thread survived and the ticket was
    /// completed with this error instead of hanging.
    pub fn panicked(message: impl Into<String>) -> ServeError {
        ServeError::new("panic", message)
    }

    /// True for transient server-side conditions a client may retry with
    /// backoff (see [`crate::client::RetryPolicy`]).
    pub fn is_retryable(&self) -> bool {
        matches!(self.code, "overloaded" | "shutting_down")
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServeError {}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub id: u64,
    pub method: String,
    pub params: Json,
    /// Distributed-trace context, when the caller sent one.  Optional on
    /// the wire (`"trace":{"id":...,"parent":...,"sampled":...}`), so
    /// clients and servers of mixed vintages interoperate.
    pub trace: Option<TraceCtx>,
}

/// Hex-encode a 64-bit trace/span id for the wire.  Ids are strings in
/// JSON because a u64 does not survive the format's f64 numbers (2^53).
pub fn id_hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Decode a wire id written by [`id_hex`].
pub fn parse_id_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

/// Serialise a trace context as its wire object.
pub fn trace_json(ctx: &TraceCtx) -> Json {
    Json::obj([
        ("id", Json::str(id_hex(ctx.trace_id))),
        ("parent", Json::str(id_hex(ctx.parent_span_id))),
        ("sampled", Json::Bool(ctx.sampled)),
    ])
}

/// Parse a wire trace object.  Lenient by design: a malformed or zero
/// trace id yields `None` (the request still dispatches, untraced) —
/// observability must never fail a request.
pub fn trace_from_json(v: &Json) -> Option<TraceCtx> {
    let trace_id = v.get("id").and_then(Json::as_str).and_then(parse_id_hex)?;
    if trace_id == 0 {
        return None;
    }
    let parent_span_id = v.get("parent").and_then(Json::as_str).and_then(parse_id_hex).unwrap_or(0);
    let sampled = v.get("sampled").and_then(Json::as_bool).unwrap_or(true);
    Some(TraceCtx { trace_id, parent_span_id, sampled })
}

/// Parse one frame line into a [`Request`].
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let v = svjson::parse(line).map_err(|e| ServeError::parse(e.to_string()))?;
    let id = v
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| ServeError::parse("request needs a non-negative integer 'id'"))?;
    let method = v
        .get("method")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::parse("request needs a string 'method'"))?
        .to_string();
    let params = v.get("params").cloned().unwrap_or(Json::Null);
    let trace = v.get("trace").and_then(trace_from_json);
    Ok(Request { id, method, params, trace })
}

/// Serialise a success response frame (trailing newline included).
pub fn response_ok(id: u64, result: Json) -> String {
    let mut s =
        Json::obj([("id", Json::Num(id as f64)), ("ok", Json::Bool(true)), ("result", result)])
            .to_string_compact();
    s.push('\n');
    s
}

/// Serialise an error response frame (trailing newline included).
/// `id` is `None` when the request was too mangled to carry one.
pub fn response_err(id: Option<u64>, err: &ServeError) -> String {
    let mut s = Json::obj([
        ("id", id.map(|i| Json::Num(i as f64)).unwrap_or(Json::Null)),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj([
                ("code", Json::str(err.code.to_string())),
                ("message", Json::str(err.message.clone())),
            ]),
        ),
    ])
    .to_string_compact();
    s.push('\n');
    s
}

/// A parsed response frame: `Ok(result)` or the server-side error.
///
/// The id is `None` only when the server explicitly sent `"id": null`
/// (a request too mangled to carry one).  A *missing* or non-integer id
/// is a protocol error — defaulting it (the old behaviour was `0`) could
/// silently mis-match the response to a real request with that id.
pub fn parse_response(line: &str) -> Result<(Option<u64>, Result<Json, ServeError>), String> {
    let v = svjson::parse(line).map_err(|e| e.to_string())?;
    let id = match v.get("id") {
        Some(Json::Null) => None,
        Some(j) => Some(
            j.as_u64().ok_or_else(|| "response 'id' is not a non-negative integer".to_string())?,
        ),
        None => return Err("response frame lacks an 'id'".to_string()),
    };
    match v.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok((id, Ok(v.get("result").cloned().unwrap_or(Json::Null)))),
        Some(false) => {
            let code = v
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                .unwrap_or("internal");
            let message = v
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            // Map dynamic wire codes back onto the static set.
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
        None => Err("response frame lacks 'ok'".to_string()),
    }
}

/// One read attempt's outcome.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete frame line (newline stripped).
    Line(String),
    /// A frame exceeded [`MAX_FRAME`]; the stream is already resynced to
    /// the next newline (or will finish resyncing on subsequent reads).
    TooLarge,
    /// The read timed out (socket read-timeout elapsed mid-frame); any
    /// partial frame is retained — call again to continue.
    Timeout,
    /// Clean end of stream.
    Eof,
}

/// Incremental line framer — the JSON twin of
/// [`crate::binproto::FrameAccum`].  Feed arbitrary byte chunks with
/// [`push`](LineAccum::push); [`next_frame`](LineAccum::next_frame)
/// yields complete lines (newline and a trailing `\r` stripped, UTF-8
/// decoded lossily).  A line over [`MAX_FRAME`] is reported once as
/// [`FrameRead::TooLarge`] when its newline arrives; its bytes are
/// discarded as they come, and the stream resyncs on the newline.  A
/// caller that asks for the next frame after every chunk it pushes (as
/// [`FrameReader`] and the reactor do) holds at most `MAX_FRAME` plus
/// one chunk of an unfinished line.
#[derive(Default)]
pub struct LineAccum {
    buf: Vec<u8>,
    /// Prefix of `buf` already searched for a newline.
    scanned: usize,
    /// Currently discarding an oversized line up to its newline.
    skipping: bool,
}

impl LineAccum {
    pub fn new() -> LineAccum {
        LineAccum::default()
    }

    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// The next complete frame: `Some(Line)` or `Some(TooLarge)`, `None`
    /// until a newline is buffered.
    pub fn next_frame(&mut self) -> Option<FrameRead> {
        let Some(nl) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') else {
            if self.skipping || self.buf.len() > MAX_FRAME {
                self.skipping = true;
                self.buf.clear();
                self.scanned = 0;
            } else {
                self.scanned = self.buf.len();
            }
            return None;
        };
        let nl = self.scanned + nl;
        let mut line = &self.buf[..nl];
        let frame = if self.skipping || line.len() > MAX_FRAME {
            FrameRead::TooLarge
        } else {
            if line.last() == Some(&b'\r') {
                line = &line[..nl - 1];
            }
            FrameRead::Line(String::from_utf8_lossy(line).into_owned())
        };
        self.buf.drain(..=nl);
        self.scanned = 0;
        self.skipping = false;
        Some(frame)
    }
}

/// Blocking frame reader over any `Read`: a [`LineAccum`] fed by reads.
///
/// Unlike `BufRead::read_line` this survives read timeouts (partial
/// frames stay buffered across calls, so a caller can poll a shutdown
/// flag between reads) and enforces [`MAX_FRAME`] with resynchronisation.
pub struct FrameReader<R: Read> {
    inner: R,
    accum: LineAccum,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader { inner, accum: LineAccum::new() }
    }

    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Read the next frame (blocking up to the underlying reader's
    /// timeout, if any).
    pub fn read_frame(&mut self) -> io::Result<FrameRead> {
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(frame) = self.accum.next_frame() {
                return Ok(frame);
            }
            match self.inner.read(&mut chunk) {
                Ok(0) => return Ok(FrameRead::Eof),
                Ok(n) => self.accum.push(&chunk[..n]),
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    return Ok(FrameRead::Timeout)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(bytes: &[u8]) -> FrameReader<&[u8]> {
        FrameReader::new(bytes)
    }

    #[test]
    fn frames_split_on_newlines() {
        let mut r = reader(b"one\ntwo\r\nthree\n");
        assert_eq!(r.read_frame().unwrap(), FrameRead::Line("one".into()));
        assert_eq!(r.read_frame().unwrap(), FrameRead::Line("two".into()));
        assert_eq!(r.read_frame().unwrap(), FrameRead::Line("three".into()));
        assert_eq!(r.read_frame().unwrap(), FrameRead::Eof);
    }

    #[test]
    fn oversized_frame_resyncs_to_next_line() {
        let mut big = vec![b'x'; MAX_FRAME + 10];
        big.push(b'\n');
        big.extend_from_slice(b"after\n");
        let mut r = reader(&big);
        assert_eq!(r.read_frame().unwrap(), FrameRead::TooLarge);
        assert_eq!(r.read_frame().unwrap(), FrameRead::Line("after".into()));
    }

    #[test]
    fn oversized_line_without_newline_is_discarded_as_it_comes() {
        let mut acc = LineAccum::new();
        // Pushed in chunks, asking for a frame after each one: the
        // unfinished line never outgrows `MAX_FRAME` plus one chunk.
        for chunk in vec![b'z'; MAX_FRAME + 2].chunks(64 * 1024) {
            acc.push(chunk);
            assert_eq!(acc.next_frame(), None);
            assert!(acc.buffered() <= MAX_FRAME + 64 * 1024);
        }
        assert_eq!(acc.buffered(), 0, "the oversized line's bytes are dropped");
        // Later bytes of the same line are dropped too; its newline
        // reports it once and the stream resyncs.
        acc.push(b"zzz");
        assert_eq!(acc.next_frame(), None);
        assert_eq!(acc.buffered(), 0);
        acc.push(b"z\nok\n");
        assert_eq!(acc.next_frame(), Some(FrameRead::TooLarge));
        assert_eq!(acc.next_frame(), Some(FrameRead::Line("ok".into())));
        assert_eq!(acc.buffered(), 0);
    }

    #[test]
    fn exactly_max_frame_is_accepted() {
        let mut buf = vec![b'y'; MAX_FRAME];
        buf.push(b'\n');
        let mut r = reader(&buf);
        match r.read_frame().unwrap() {
            FrameRead::Line(l) => assert_eq!(l.len(), MAX_FRAME),
            other => panic!("expected line, got {other:?}"),
        }
    }

    #[test]
    fn request_roundtrip() {
        let req = parse_request(r#"{"id":7,"method":"ping","params":{"x":1}}"#).unwrap();
        assert_eq!(req.id, 7);
        assert_eq!(req.method, "ping");
        assert_eq!(req.params.get("x").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn trace_context_roundtrips_and_is_optional() {
        // Old clients: no trace field at all.
        let req = parse_request(r#"{"id":1,"method":"ping"}"#).unwrap();
        assert_eq!(req.trace, None);
        // New clients: hex ids survive the f64-only JSON number space.
        let ctx = TraceCtx { trace_id: u64::MAX - 3, parent_span_id: 9, sampled: true };
        let line = format!(
            r#"{{"id":1,"method":"ping","trace":{}}}"#,
            trace_json(&ctx).to_string_compact()
        );
        assert_eq!(parse_request(&line).unwrap().trace, Some(ctx));
        // Malformed trace objects degrade to untraced, not to an error.
        for bad in [
            r#"{"id":1,"method":"m","trace":{}}"#,
            r#"{"id":1,"method":"m","trace":{"id":"zz"}}"#,
            r#"{"id":1,"method":"m","trace":{"id":"0000000000000000"}}"#,
            r#"{"id":1,"method":"m","trace":7}"#,
        ] {
            assert_eq!(parse_request(bad).unwrap().trace, None, "{bad}");
        }
    }

    #[test]
    fn request_validation_errors() {
        assert_eq!(parse_request("not json").unwrap_err().code, "parse_error");
        assert_eq!(parse_request(r#"{"method":"m"}"#).unwrap_err().code, "parse_error");
        assert_eq!(parse_request(r#"{"id":1}"#).unwrap_err().code, "parse_error");
        assert_eq!(parse_request(r#"{"id":-4,"method":"m"}"#).unwrap_err().code, "parse_error");
    }

    #[test]
    fn response_roundtrip() {
        let ok = response_ok(3, Json::str("hi"));
        let (id, res) = parse_response(ok.trim_end()).unwrap();
        assert_eq!(id, Some(3));
        assert_eq!(res.unwrap().as_str(), Some("hi"));

        let err = response_err(Some(4), &ServeError::unknown_method("zap"));
        let (id, res) = parse_response(err.trim_end()).unwrap();
        assert_eq!(id, Some(4));
        let e = res.unwrap_err();
        assert_eq!(e.code, "unknown_method");
        assert!(e.message.contains("zap"));
    }

    #[test]
    fn response_null_id_survives_but_missing_id_is_a_protocol_error() {
        // Explicit null id: legal, marks an unattributable error reply.
        let anon = response_err(None, &ServeError::parse("mangled"));
        let (id, res) = parse_response(anon.trim_end()).unwrap();
        assert_eq!(id, None);
        assert_eq!(res.unwrap_err().code, "parse_error");
        // Missing or mistyped id must NOT silently become 0 — it could
        // mis-match the response to a real request with id 0.
        assert!(parse_response(r#"{"ok":true,"result":1}"#).is_err());
        assert!(parse_response(r#"{"id":"seven","ok":true,"result":1}"#).is_err());
        assert!(parse_response(r#"{"id":-2,"ok":true,"result":1}"#).is_err());
    }

    #[test]
    fn failure_model_codes_roundtrip() {
        for err in [
            ServeError::deadline_exceeded("too slow"),
            ServeError::overloaded("queue full"),
            ServeError::panicked("handler died"),
        ] {
            let frame = response_err(Some(9), &err);
            let (_, res) = parse_response(frame.trim_end()).unwrap();
            assert_eq!(res.unwrap_err().code, err.code, "{}", err.code);
        }
        assert!(ServeError::overloaded("x").is_retryable());
        assert!(ServeError::new("shutting_down", "x").is_retryable());
        assert!(!ServeError::deadline_exceeded("x").is_retryable());
        assert!(!ServeError::panicked("x").is_retryable());
    }

    #[test]
    fn frames_are_single_lines() {
        let s = response_ok(1, Json::str("a\nb"));
        assert_eq!(s.matches('\n').count(), 1, "embedded newlines must be escaped");
        assert!(s.ends_with('\n'));
    }
}
