//! Blocking TCP client for the svserve protocol.
//!
//! One request in flight at a time (the service pipelines across
//! *connections*, not within one), which keeps the client a trivial
//! write-frame/read-frame pair.  Also used in-process by the
//! `silvervale client` and `silvervale stats` subcommands.
//!
//! [`Client::call_with_retry`] layers the client half of the failure
//! model on top: retryable server errors (`overloaded`, `shutting_down`)
//! and transport failures are retried with exponential backoff and
//! deterministic jitter, so a loaded server sheds work instead of
//! queueing unboundedly and well-behaved clients simply come back a
//! moment later.

use crate::binproto::{self, BinFrameReader, BinRead};
use crate::faults::XorShift;
use crate::proto::{parse_response, trace_json, FrameRead, FrameReader, Request, ServeError};
use crate::svjson::Json;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;
use svtrace::{ActiveTrace, Counter, Registry, TraceCtx};

/// A server reply as the client surfaces it: the JSON result plus any
/// out-of-band blobs (already unfolded from `svpack_hex` on the JSON
/// wire, so both wires look identical to callers).
type ReplyWithBlobs = Result<(Json, Vec<Vec<u8>>), ServeError>;

/// Backoff schedule for [`Client::call_with_retry`]: delay doubles each
/// attempt from `base_delay` up to `max_delay`, scaled by a jitter factor
/// in `[0.5, 1.5)` drawn from a seeded generator — the schedule is fully
/// deterministic for a given seed, which keeps retry tests reproducible.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 disables retrying).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (1-based), jittered by
    /// `rng`: `base · 2^(attempt-1)` capped at `max_delay`, then scaled
    /// by a factor in `[0.5, 1.5)`.
    fn delay(&self, attempt: u32, rng: &mut XorShift) -> Duration {
        let shift = (attempt.saturating_sub(1)).min(16);
        let exp = self.base_delay.saturating_mul(1u32 << shift);
        let capped = exp.min(self.max_delay);
        capped.mul_f64(0.5 + rng.next_unit()).min(self.max_delay)
    }
}

/// Which wire protocol a [`Client`] is speaking.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Wire {
    /// Line-framed JSON (the original protocol; every server speaks it).
    Json,
    /// Length-prefixed binary frames carrying svpack bytes verbatim.
    Bin,
}

/// The client's transport: same request/response semantics, different
/// framing.
enum Transport {
    Json {
        writer: TcpStream,
        reader: FrameReader<TcpStream>,
    },
    Bin {
        writer: TcpStream,
        reader: BinFrameReader<TcpStream>,
        /// The preface is still to be sent; it rides with the first
        /// request in one write.
        preface: bool,
    },
}

impl Transport {
    fn new(stream: TcpStream, wire: Wire) -> io::Result<Transport> {
        let writer = stream.try_clone()?;
        Ok(match wire {
            Wire::Json => Transport::Json { writer, reader: FrameReader::new(stream) },
            Wire::Bin => {
                Transport::Bin { writer, reader: BinFrameReader::new(stream), preface: true }
            }
        })
    }
}

/// A connected client.
pub struct Client {
    transport: Transport,
    /// The server's address (the reconnect target on either wire).
    addr: SocketAddr,
    next_id: u64,
    /// Client-side metrics (`client.retries`, `client.reconnects`):
    /// failures the retry layer papers over must still be observable.
    registry: Registry,
    retries: Arc<Counter>,
    reconnects: Arc<Counter>,
    /// When on, every call carries a fresh trace context on the wire.
    tracing: bool,
    last_trace: Option<TraceCtx>,
}

impl Client {
    /// Connect to a running server on the JSON wire.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::dial(addr, Wire::Json)
    }

    /// Connect on the binary wire.  The server serves both wires on one
    /// port and tells them apart by the [`binproto::PREFACE`] a binary
    /// connection opens with, so there is nothing to negotiate: the
    /// client dials `addr` and sends the preface with its first request.
    /// A server that predates the preface never answers such a client;
    /// use [`Client::connect`] against one.
    pub fn connect_negotiated(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::dial(addr, Wire::Bin)
    }

    fn dial(addr: impl ToSocketAddrs, wire: Wire) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let addr = stream.peer_addr()?;
        let registry = Registry::new();
        let retries = registry.counter("client.retries");
        let reconnects = registry.counter("client.reconnects");
        Ok(Client {
            transport: Transport::new(stream, wire)?,
            addr,
            next_id: 1,
            registry,
            retries,
            reconnects,
            tracing: false,
            last_trace: None,
        })
    }

    /// The wire protocol currently in use.
    pub fn wire(&self) -> Wire {
        match self.transport {
            Transport::Json { .. } => Wire::Json,
            Transport::Bin { .. } => Wire::Bin,
        }
    }

    /// Attach a fresh distributed-trace context to every subsequent call
    /// (the server samples those requests into its flight recorder and
    /// serves their spans back via the `trace` method).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Trace id of the most recent traced call, for fetching the server's
    /// spans via the `trace` method.
    pub fn last_trace_id(&self) -> Option<u64> {
        self.last_trace.map(|c| c.trace_id)
    }

    /// Call `method` with `params`, blocking for the response.
    ///
    /// Protocol- and handler-level failures come back as the structured
    /// [`ServeError`] the server sent; transport failures map to an
    /// `io`-code error.  A response whose id does not match the request
    /// is a protocol violation and reported as an `io` error.
    pub fn call(&mut self, method: &str, params: Json) -> Result<Json, ServeError> {
        self.call_full(method, params).map(|(v, _)| v)
    }

    /// [`Client::call`], also returning any out-of-band byte payloads
    /// (svpack, typically).  On the binary wire the bytes arrive
    /// verbatim; on JSON they are unfolded from the result's
    /// `svpack_hex` field — callers see the same `(json, blobs)` either
    /// way.
    pub fn call_blob(
        &mut self,
        method: &str,
        params: Json,
    ) -> Result<(Json, Vec<Vec<u8>>), ServeError> {
        self.call_full(method, params)
    }

    fn call_full(
        &mut self,
        method: &str,
        params: Json,
    ) -> Result<(Json, Vec<Vec<u8>>), ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let trace = self.tracing.then(TraceCtx::root);
        // Scope the context and a `client.call` span over send+recv: the
        // local span carries the same trace id as the server's spans, and
        // its span id rides on the wire as the request's parent.
        let _scope = trace.map(|ctx| svtrace::ctx::install(Some(ActiveTrace { ctx, sink: None })));
        let span = svtrace::span!("client.call", method = method);
        let wire_trace = trace.map(|ctx| {
            self.last_trace = Some(ctx);
            TraceCtx { trace_id: ctx.trace_id, parent_span_id: span.span_id(), sampled: true }
        });
        let io_err = |e: io::Error| ServeError::new("io", e.to_string());
        match &mut self.transport {
            Transport::Json { writer, .. } => {
                let mut fields = vec![
                    ("id".to_string(), Json::Num(id as f64)),
                    ("method".to_string(), Json::str(method)),
                    ("params".to_string(), params),
                ];
                if let Some(wire) = wire_trace {
                    fields.push(("trace".to_string(), trace_json(&wire)));
                }
                let mut frame = Json::Object(fields.into_iter().collect()).to_string_compact();
                frame.push('\n');
                writer.write_all(frame.as_bytes()).map_err(io_err)?;
            }
            Transport::Bin { writer, preface, .. } => {
                let req = Request { id, method: method.to_string(), params, trace: wire_trace };
                let frame = binproto::encode_request(&req, &[]);
                let frame = if std::mem::take(preface) {
                    [&binproto::PREFACE[..], &frame].concat()
                } else {
                    frame
                };
                writer.write_all(&frame).map_err(io_err)?;
            }
        }
        let (rid, result) = self.recv_full()?;
        match rid {
            // A `null` id marks a frame-level failure (the server could
            // not attribute the reply to a request); pass its error on.
            Some(r) if r != id => Err(ServeError::new(
                "io",
                format!("response id {r} does not match request id {id}"),
            )),
            _ => result,
        }
    }

    /// [`Client::call`] with retry: `overloaded` / `shutting_down`
    /// replies and transport failures are retried up to
    /// `policy.max_retries` times with exponential backoff and
    /// deterministic jitter (transport failures also reconnect).
    /// Non-retryable errors return immediately.
    pub fn call_with_retry(
        &mut self,
        method: &str,
        params: Json,
        policy: &RetryPolicy,
    ) -> Result<Json, ServeError> {
        let mut rng = XorShift::new(policy.seed);
        let mut attempt = 0u32;
        loop {
            let err = match self.call(method, params.clone()) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let transport = err.code == "io";
            if (!err.is_retryable() && !transport) || attempt >= policy.max_retries {
                return Err(err);
            }
            attempt += 1;
            self.retries.inc();
            std::thread::sleep(policy.delay(attempt, &mut rng));
            if transport && self.reconnect().is_err() {
                return Err(err);
            }
        }
    }

    /// How many retries [`Client::call_with_retry`] has performed over
    /// the client's lifetime.
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    /// How many times the client re-established its connection after a
    /// transport failure.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.get()
    }

    /// Snapshot of the client-side registry (`client.retries`,
    /// `client.reconnects`).
    pub fn metrics(&self) -> svtrace::MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Call the server's `metrics` builtin and merge this client's own
    /// counters into the reply's `counters` object — one document
    /// covering both ends of the connection.
    pub fn merged_metrics(&mut self) -> Result<Json, ServeError> {
        let mut v = self.call("metrics", Json::Null)?;
        if let Json::Object(o) = &mut v {
            if let Some(Json::Object(counters)) = o.get_mut("counters") {
                for (name, val) in self.registry.snapshot().counters {
                    counters.insert(name, Json::Num(val as f64));
                }
            }
        }
        Ok(v)
    }

    /// Re-establish the connection after a transport failure, on the
    /// same address and wire.
    fn reconnect(&mut self) -> io::Result<()> {
        self.transport = Transport::new(TcpStream::connect(self.addr)?, self.wire())?;
        self.reconnects.inc();
        Ok(())
    }

    /// Write pre-framed bytes verbatim (for protocol tests: malformed or
    /// oversized frames).  The caller supplies the trailing newline.
    /// JSON wire only — binary tests write to a raw socket instead.
    pub fn send_raw(&mut self, frame: &str) -> Result<(), ServeError> {
        match &mut self.transport {
            Transport::Json { writer, .. } => {
                writer.write_all(frame.as_bytes()).map_err(|e| ServeError::new("io", e.to_string()))
            }
            Transport::Bin { .. } => {
                Err(ServeError::new("io", "send_raw requires the JSON wire".to_string()))
            }
        }
    }

    /// Read the next response frame.  The id is `None` when the server
    /// could not attribute the response to a request (`"id": null`).
    pub fn recv(&mut self) -> Result<(Option<u64>, Result<Json, ServeError>), ServeError> {
        self.recv_full().map(|(id, r)| (id, r.map(|(v, _)| v)))
    }

    fn recv_full(&mut self) -> Result<(Option<u64>, ReplyWithBlobs), ServeError> {
        let io_err = |e: io::Error| ServeError::new("io", e.to_string());
        match &mut self.transport {
            Transport::Json { reader, .. } => loop {
                match reader.read_frame().map_err(io_err)? {
                    FrameRead::Line(line) => {
                        let (id, result) =
                            parse_response(&line).map_err(|e| ServeError::new("io", e))?;
                        return Ok((id, result.map(unfold_hex_blob)));
                    }
                    FrameRead::Timeout => continue,
                    FrameRead::TooLarge => {
                        return Err(ServeError::new("io", "oversized response frame".to_string()))
                    }
                    FrameRead::Eof => {
                        return Err(ServeError::new(
                            "io",
                            "server closed the connection".to_string(),
                        ))
                    }
                }
            },
            Transport::Bin { reader, .. } => loop {
                match reader.read_frame().map_err(io_err)? {
                    BinRead::Frame(payload) => {
                        return binproto::decode_response(&payload)
                            .map_err(|e| ServeError::new("io", e.message))
                    }
                    BinRead::Timeout => continue,
                    BinRead::TooLarge => {
                        return Err(ServeError::new("io", "oversized response frame".to_string()))
                    }
                    BinRead::Eof => {
                        return Err(ServeError::new(
                            "io",
                            "server closed the connection".to_string(),
                        ))
                    }
                }
            },
        }
    }
}

/// The JSON wire's blob carriage, undone: a `svpack_hex` field in the
/// result object is stripped and decoded so both wires hand callers the
/// same `(json, blobs)` shape.
fn unfold_hex_blob(v: Json) -> (Json, Vec<Vec<u8>>) {
    match v {
        Json::Object(mut map) => {
            let blob =
                map.remove("svpack_hex").and_then(|h| h.as_str().and_then(binproto::hex_decode));
            (Json::Object(map), blob.into_iter().collect())
        }
        other => (other, Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
            seed: 1,
        };
        let mut rng = XorShift::new(policy.seed);
        let delays: Vec<Duration> = (1..=8).map(|a| policy.delay(a, &mut rng)).collect();
        for d in &delays {
            assert!(*d <= policy.max_delay, "capped: {d:?}");
            assert!(*d >= policy.base_delay / 2, "never degenerates to zero: {d:?}");
        }
        // Jitter aside, the envelope doubles: attempt 5's floor (80ms·0.5)
        // exceeds attempt 1's ceiling (10ms·1.5).
        assert!(delays[4] > delays[0]);
    }

    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let schedule = |seed| {
            let policy = RetryPolicy { seed, ..RetryPolicy::default() };
            let mut rng = XorShift::new(seed);
            (1..=6).map(|a| policy.delay(a, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(schedule(9), schedule(9));
        assert_ne!(schedule(9), schedule(10));
    }
}
