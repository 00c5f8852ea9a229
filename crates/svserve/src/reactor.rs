//! Epoll reactor: readiness-driven connection handling for both wire
//! protocols, on one listener and one thread.
//!
//! The accept loop, socket reads, frame parsing, and socket writes all
//! happen here, nonblocking, driven by `epoll` readiness (see
//! [`crate::sys`]).  Each connection's bytes go through the shared
//! [`Parser`], which picks the wire from the connection's first bytes.
//! Request *execution* does not happen here: each complete frame is
//! posted to the server's one thread pool ([`crate::sched::JobPool`])
//! as a frame whose handler path is `process_request`, so deadlines,
//! shedding, drain, tracing, and fault injection apply to both wires
//! alike.  Routed methods run as jobs on the same pool; the frame's
//! thread blocks on their tickets, which is what lets fan-out handlers
//! wait on their sub-jobs.
//!
//! Per-connection state machine: while a request is in flight the
//! connection's `EPOLLIN` interest is dropped, so a client gets exactly
//! one outstanding request at a time (the threaded loop's behaviour) and
//! buffering stays bounded — further pipelined frames wait in the kernel
//! socket buffer.  When the reply is posted back (completion queue +
//! eventfd wake), already-buffered frames are parsed before interest is
//! re-armed, so pipelining still works without extra syscalls.  Each
//! tick closes connections stalled mid-frame for [`STALL_TIMEOUT`].
//!
//! Oversized frames diverge by protocol, deliberately: a JSON line can
//! resync on the next newline (error reply, connection survives —
//! `LineAccum` semantics), but a corrupt binary length prefix leaves
//! no boundary to find, so the reply is followed by a close.
//!
//! The reactor is the only connection loop on Linux; a failure to set it
//! up is an error from `serve_with`.

#![cfg(target_os = "linux")]

use crate::server::{Job, Parser, ServerState, Step, STALL_TIMEOUT};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Epoll data tags: fixed ids for the waker and the listener, then one
/// slot per connection.
const TAG_WAKER: u64 = 0;
const TAG_LISTENER: u64 = 1;
const FIRST_CONN: u64 = 2;

/// `epoll_wait` timeout — the shutdown-flag poll and stall-sweep
/// cadence, matching the threaded loop's `POLL_INTERVAL`.
const WAIT_MS: i32 = 100;
const READ_CHUNK: usize = 16 * 1024;

struct Conn {
    stream: TcpStream,
    /// Guards completions against slot reuse: a reply for a dead
    /// connection whose index was recycled must not reach the new one.
    gen: u64,
    parser: Parser,
    out: Vec<u8>,
    wpos: usize,
    in_flight: bool,
    /// Close once the write buffer is flushed.
    closing: bool,
    eof: bool,
    interest: u32,
    /// When the last bytes arrived (or the connection was accepted).
    last_rx: Instant,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.wpos == self.out.len()
    }
}

struct Completion {
    idx: usize,
    gen: u64,
    reply: Vec<u8>,
}

pub(crate) struct Reactor {
    epoll: Epoll,
    evfd: Arc<EventFd>,
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    gen: u64,
    state: Arc<ServerState>,
    completions: Arc<Mutex<Vec<Completion>>>,
    /// Jobs submitted and not yet *drained* (a posted completion counts
    /// until the reactor consumes it), so `0` means fully quiesced.
    n_inflight: Arc<AtomicUsize>,
    /// When the next stalled-connection sweep is due.
    next_sweep: Instant,
}

impl Reactor {
    /// Register `listener` and the shutdown eventfd with a new epoll
    /// instance, and install the eventfd as the server's waker.
    pub(crate) fn new(listener: TcpListener, state: Arc<ServerState>) -> io::Result<Reactor> {
        let epoll = Epoll::new()?;
        let evfd = Arc::new(EventFd::new()?);
        listener.set_nonblocking(true)?;
        epoll.add(evfd.fd(), EPOLLIN, TAG_WAKER)?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TAG_LISTENER)?;
        // Shutdown wake-ups go through the eventfd instead of a
        // throwaway TCP connect.
        let wake = Arc::clone(&evfd);
        state.set_waker(Arc::new(move || wake.wake()));
        Ok(Reactor {
            epoll,
            evfd,
            listener: Some(listener),
            conns: Vec::new(),
            free: Vec::new(),
            gen: 0,
            state,
            completions: Arc::new(Mutex::new(Vec::new())),
            n_inflight: Arc::new(AtomicUsize::new(0)),
            next_sweep: Instant::now(),
        })
    }

    /// Run until shutdown completes its drain.
    pub(crate) fn run(mut self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; 64];
        loop {
            let n = self.epoll.wait(&mut events, WAIT_MS).unwrap_or(0);
            for ev in events.iter().take(n) {
                // Braces copy the (packed on x86) fields out.
                let (data, mask) = ({ ev.data }, { ev.events });
                match data {
                    TAG_WAKER => self.evfd.drain(),
                    TAG_LISTENER => self.accept(),
                    tag => self.conn_event((tag - FIRST_CONN) as usize, mask),
                }
            }
            self.drain_completions();
            let now = Instant::now();
            if now >= self.next_sweep {
                self.next_sweep = now + Duration::from_millis(WAIT_MS as u64);
                for idx in 0..self.conns.len() {
                    let stalled = self.conns[idx].as_ref().is_some_and(|c| {
                        !c.in_flight && c.parser.has_partial() && now - c.last_rx >= STALL_TIMEOUT
                    });
                    if stalled {
                        self.close(idx);
                    }
                }
            }
            if self.state.is_shutdown() {
                self.begin_drain();
                // Quiesced: no jobs out (a posted-but-undrained completion
                // still counts) and every connection flushed and closed.
                if self.n_inflight.load(Ordering::SeqCst) == 0
                    && self.conns.iter().all(Option::is_none)
                {
                    return;
                }
            }
        }
    }

    /// Stop accepting (drops the listener, releasing the port) and
    /// close every connection as soon as it is idle and flushed.
    fn begin_drain(&mut self) {
        if let Some(l) = self.listener.take() {
            let _ = self.epoll.del(l.as_raw_fd());
        }
        for idx in 0..self.conns.len() {
            let close_now = match &mut self.conns[idx] {
                Some(c) if !c.in_flight && c.flushed() => true,
                Some(c) => {
                    c.closing = true;
                    false
                }
                None => false,
            };
            if close_now {
                self.close(idx);
            }
        }
    }

    fn accept(&mut self) {
        loop {
            let Some(l) = self.listener.as_ref() else { return };
            match l.accept() {
                Ok((stream, _)) => {
                    if self.state.is_shutdown() {
                        continue; // late arrivals during drain: just drop
                    }
                    self.register(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let interest = EPOLLIN | EPOLLRDHUP;
        if self.epoll.add(stream.as_raw_fd(), interest, FIRST_CONN + idx as u64).is_err() {
            self.free.push(idx);
            return;
        }
        self.gen += 1;
        self.state.count_connection();
        self.conns[idx] = Some(Conn {
            stream,
            gen: self.gen,
            parser: Parser::new(),
            out: Vec::new(),
            wpos: 0,
            in_flight: false,
            closing: false,
            eof: false,
            interest,
            last_rx: Instant::now(),
        });
    }

    fn conn_event(&mut self, idx: usize, mask: u32) {
        if self.conns.get(idx).is_none_or(Option::is_none) {
            return; // already closed this tick
        }
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(idx);
            return;
        }
        if mask & EPOLLOUT != 0 && !self.flush(idx) {
            return;
        }
        if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.readable(idx);
        }
    }

    /// Read the socket into the parser until it would block or a request
    /// dispatches (the rest waits in the kernel), then advance the state
    /// machine.
    fn readable(&mut self, idx: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let Some(c) = self.conns[idx].as_mut() else { return };
            if c.in_flight {
                break; // a request dispatched, or a stale event from this batch
            }
            match c.stream.read(&mut chunk) {
                Ok(0) => {
                    c.eof = true;
                    break;
                }
                Ok(n) => {
                    c.parser.push(&chunk[..n]);
                    c.last_rx = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
            // Parse each chunk as it lands, so an oversized JSON line is
            // dropped chunk by chunk however fast the peer sends.
            if !self.parse(idx) {
                return;
            }
        }
        self.advance(idx);
    }

    /// Parse buffered bytes, then flush and re-arm interest.
    fn advance(&mut self, idx: usize) {
        if self.parse(idx) && self.flush(idx) {
            self.rearm(idx);
        }
    }

    /// Parse buffered bytes until a frame dispatches, the buffer runs
    /// dry, or the connection closes.  Returns `false` if it closed.
    fn parse(&mut self, idx: usize) -> bool {
        loop {
            let step = {
                let Some(c) = self.conns[idx].as_mut() else { return false };
                if c.in_flight || c.closing {
                    return true;
                }
                c.parser.step()
            };
            match step {
                Step::Idle => {
                    let Some(c) = self.conns[idx].as_mut() else { return false };
                    if c.eof {
                        // Peer finished sending; nothing left to answer.
                        if c.flushed() {
                            self.close(idx);
                            return false;
                        }
                        c.closing = true;
                    }
                    return true;
                }
                Step::Dispatch(job) => {
                    let gen = {
                        let c = self.conns[idx].as_mut().unwrap();
                        c.in_flight = true;
                        c.gen
                    };
                    self.submit(idx, gen, job);
                    return true;
                }
                Step::JsonTooLarge => {
                    let reply = self.state.reject_oversized_json();
                    let c = self.conns[idx].as_mut().unwrap();
                    c.out.extend_from_slice(reply.as_bytes());
                    // The parser already resynced; go on parsing.
                }
                Step::BinFatal => {
                    let reply = self.state.reject_oversized_bin();
                    let c = self.conns[idx].as_mut().unwrap();
                    c.out.extend_from_slice(&reply);
                    c.closing = true; // no boundary to resync on
                    return true;
                }
            }
        }
    }

    fn submit(&mut self, idx: usize, gen: u64, job: Job) {
        self.n_inflight.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let completions = Arc::clone(&self.completions);
        let evfd = Arc::clone(&self.evfd);
        self.state.pool.post(Box::new(move || {
            // `reply` turns a handler-path panic into an error reply, so
            // the completion always posts and `n_inflight` drains.
            let reply = job.reply(&state);
            completions.lock().unwrap_or_else(|p| p.into_inner()).push(Completion {
                idx,
                gen,
                reply,
            });
            evfd.wake();
        }));
    }

    fn drain_completions(&mut self) {
        let done = std::mem::take(&mut *self.completions.lock().unwrap_or_else(|p| p.into_inner()));
        for comp in done {
            self.n_inflight.fetch_sub(1, Ordering::SeqCst);
            let Some(c) = self.conns.get_mut(comp.idx).and_then(Option::as_mut) else {
                continue; // connection died while the job ran
            };
            if c.gen != comp.gen {
                continue; // slot was recycled
            }
            c.out.extend_from_slice(&comp.reply);
            c.in_flight = false;
            if self.state.is_shutdown() {
                // As in the threaded loop: the last reply is written,
                // then the connection winds down.
                self.conns[comp.idx].as_mut().unwrap().closing = true;
            }
            // Already-buffered pipelined frames proceed before EPOLLIN is
            // re-armed (advance flushes and re-arms).
            self.advance(comp.idx);
        }
    }

    /// Write as much pending output as the socket accepts.  Returns
    /// `false` if the connection was closed.
    fn flush(&mut self, idx: usize) -> bool {
        let mut dead = false;
        let mut done_closing = false;
        {
            let Some(c) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return false };
            while c.wpos < c.out.len() {
                match c.stream.write(&c.out[c.wpos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => c.wpos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead && c.flushed() {
                c.out.clear();
                c.wpos = 0;
                done_closing = c.closing;
            }
        }
        if dead || done_closing {
            self.close(idx);
            return false;
        }
        true
    }

    /// Reconcile epoll interest with the connection's state: reads only
    /// when idle (backpressure), writes only while output is pending.
    fn rearm(&mut self, idx: usize) {
        let (fd, current, want) = {
            let Some(c) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
            let mut want = 0;
            if !c.in_flight && !c.closing && !c.eof {
                want |= EPOLLIN | EPOLLRDHUP;
            }
            if !c.flushed() {
                want |= EPOLLOUT;
            }
            (c.stream.as_raw_fd(), c.interest, want)
        };
        if want != current {
            if self.epoll.modify(fd, want, FIRST_CONN + idx as u64).is_err() {
                self.close(idx);
                return;
            }
            if let Some(c) = self.conns.get_mut(idx).and_then(Option::as_mut) {
                c.interest = want;
            }
        }
    }

    fn close(&mut self, idx: usize) {
        if let Some(slot) = self.conns.get_mut(idx) {
            if let Some(c) = slot.take() {
                let _ = self.epoll.del(c.stream.as_raw_fd());
                self.free.push(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binproto::{self, PREFACE};
    use crate::proto::{Request, MAX_FRAME};
    use crate::svjson::Json;

    fn json_parser(bytes: &[u8]) -> Parser {
        let mut p = Parser::new();
        p.push(bytes);
        assert!(matches!(p, Parser::Json(_)), "a first byte other than NUL picks JSON");
        p
    }

    #[test]
    fn parse_step_mirrors_frame_reader_semantics() {
        // Lines, \r\n, empty lines skipped, partial retained.
        let mut p = json_parser(b"one\r\ntwo\n\n  \npart");
        assert!(matches!(p.step(), Step::Dispatch(Job::Json(l)) if l == "one"));
        assert!(matches!(p.step(), Step::Dispatch(Job::Json(l)) if l == "two"));
        assert!(matches!(p.step(), Step::Idle));
        p.push(b"\n");
        assert!(matches!(p.step(), Step::Dispatch(Job::Json(l)) if l == "part"));

        // An oversized line resyncs to the next newline and survives.
        let mut big = vec![b'x'; MAX_FRAME + 1];
        big.extend_from_slice(b"\nnext\n");
        let mut p = json_parser(&big);
        assert!(matches!(p.step(), Step::JsonTooLarge));
        assert!(matches!(p.step(), Step::Dispatch(Job::Json(l)) if l == "next"));

        // Oversized with no newline yet: the bytes are discarded, then
        // the late newline finishes the resync.
        let mut p = json_parser(&vec![b'y'; MAX_FRAME + 2]);
        assert!(matches!(p.step(), Step::Idle));
        let Parser::Json(lines) = &p else { unreachable!() };
        assert_eq!(lines.buffered(), 0, "the oversized bytes are dropped, not kept");
        p.push(b"tail\nok\n");
        assert!(matches!(p.step(), Step::JsonTooLarge));
        assert!(matches!(p.step(), Step::Dispatch(Job::Json(l)) if l == "ok"));
    }

    #[test]
    fn parse_step_bin_oversize_is_fatal() {
        let mut p = Parser::new();
        p.push(&PREFACE);
        p.push(&((MAX_FRAME + 1) as u32).to_le_bytes());
        assert!(matches!(p.step(), Step::BinFatal));
    }

    #[test]
    fn sniff_waits_for_the_preface_and_replays_a_mismatch_as_json() {
        // The preface one byte at a time: undecided until the last byte,
        // then the frame behind it parses as binary.
        let mut p = Parser::new();
        for b in PREFACE {
            assert!(matches!(p, Parser::Sniff(_)));
            assert!(matches!(p.step(), Step::Idle));
            p.push(&[b]);
        }
        let req = Request { id: 3, method: "ping".into(), params: Json::Null, trace: None };
        let frame = binproto::encode_request(&req, &[]);
        p.push(&frame);
        assert!(matches!(p.step(), Step::Dispatch(Job::Bin(b)) if b == frame[4..]));

        // Two preface bytes, then a byte that breaks it: every buffered
        // byte is replayed into the line framer.
        let mut p = Parser::new();
        p.push(&PREFACE[..2]);
        assert!(matches!(p.step(), Step::Idle));
        p.push(b"garbage\n");
        assert!(matches!(p.step(), Step::Dispatch(Job::Json(l)) if l == "\0Sgarbage"));

        // A JSON request whose first byte matches nothing decides at once.
        let mut p = Parser::new();
        p.push(b"{");
        assert!(matches!(p, Parser::Json(_)));
    }
}
