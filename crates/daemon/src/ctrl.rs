//! The control plane's wire side: the daemon's operation set as framed
//! [`CtrlRequest`]/[`CtrlReply`] messages, their codec, the port that
//! hosts control connections on the event loop's thread
//! ([`CtrlPort`]), and the client-side [`ctrl_roundtrip`].
//!
//! `CtrlRequest`/`CtrlReply` are the daemon's *one* operation set: the
//! event loop's dispatcher (`serve.rs`) speaks nothing else, and the
//! HTTP gateway reaches it through two adapter functions over the same
//! types. This module is their framed-TCP codec; the same encodings ride
//! the peer plane inside `DaemonMsg::Ask`/`Told` for federation.
//!
//! The port is one more `epoll` set on the loop, next to the peer
//! sockets and the HTTP connections that moved there: no thread of its
//! own, and no thread per connection.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use moara_attributes::Value;
use moara_core::DeliveryPolicy;
use moara_gateway::SinkClosed;
use moara_trace::{SpanRecord, TraceSummary};
use moara_transport::epoll::{
    Epoll, EpollEvent, Listening, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use moara_wire::{append_frame, read_frame, wire_enum, write_msg, FrameBuf, Wire};

use crate::health::{AlertWire, PeerHealthRow};
use crate::recorder::EventWire;
use crate::{resolve, Member};

/// A control-plane request (from `moara-cli` or a joining daemon).
#[derive(Clone, Debug, PartialEq)]
pub enum CtrlRequest {
    /// A new daemon asks the seed for an id and the member list.
    Join {
        /// The joiner's peer-plane listen address.
        addr: String,
        /// Crash-recovery: the node id this daemon previously held. The
        /// seed revives that member under a higher incarnation (new
        /// address, same ring id) instead of assigning a fresh id.
        prev_node: Option<u32>,
    },
    /// Run a query from this daemon's front-end and return the aggregate.
    Query {
        /// Query text, either syntax of `moara_query::parse_query`.
        text: String,
    },
    /// Set one local attribute (group churn from the outside).
    SetAttr {
        /// Attribute name.
        attr: String,
        /// New value.
        value: Value,
    },
    /// Report node id and membership view.
    Status,
    /// Install a standing query and stream its updates back on this
    /// control connection ([`CtrlReply::Update`] frames) until the
    /// client disconnects.
    Watch {
        /// Query text, either syntax of `moara_query::parse_query`.
        text: String,
        /// When updates surface (on-change / periodic / threshold).
        policy: DeliveryPolicy,
        /// Subscription lease in microseconds (the daemon renews it for
        /// as long as the watcher stays connected).
        lease_us: u64,
    },
    /// Return the spans this daemon's local store holds for one trace
    /// (the scatter-gather leaf request; `TraceGet` fans these out).
    TraceFetch {
        /// The trace to read.
        trace_id: u64,
    },
    /// Return the cluster-merged span tree for one trace: the serving
    /// daemon reads its own store and asks every other alive member for
    /// theirs over the peer plane, reporting the ones that do not answer
    /// by one deadline instead of hanging.
    TraceGet {
        /// The trace to merge.
        trace_id: u64,
    },
    /// Return summaries of the most recent traces in this daemon's
    /// local store.
    TraceList {
        /// Maximum summaries to return.
        limit: u32,
    },
    /// Return the cluster-health table: the serving daemon reads its own
    /// health and asks every other alive member for theirs
    /// (`HealthFetch`), then joins the answers with its member table,
    /// one row per member, plus its own firing alerts. A member that does
    /// not answer by the gather deadline shows as `stale`, so a
    /// partition delays the answer by up to that deadline
    /// (`moara-cli top`).
    ClusterHealth,
    /// Return this daemon's Prometheus exposition (the metrics
    /// federation leaf request; `GET /v1/cluster/metrics` fans these
    /// out like `TraceGet` fans out `TraceFetch`).
    MetricsFetch,
    /// Return one metric's series from this daemon's flight-recorder
    /// history rings (the history federation leaf request;
    /// `GET /v1/cluster/history` fans these out).
    HistoryFetch {
        /// A health-sample key (`tick_p99_us`, `watches`, ...).
        metric: String,
        /// How far back, in seconds (picks the ring tier).
        range_s: u32,
    },
    /// Return the cluster-merged series for one metric: the serving
    /// daemon reads its own rings and asks every other alive member for
    /// theirs, reporting the ones that do not answer instead of hanging.
    /// An unknown metric is an error, asked of nobody.
    ClusterHistory {
        /// A health-sample key.
        metric: String,
        /// How far back, in seconds.
        range_s: u32,
    },
    /// Return the newest entries of this daemon's structured event
    /// journal (`moara-cli events`, `GET /v1/events`).
    EventsFetch {
        /// Only events of this kind (`swim_confirm`, `slow_query`, ...);
        /// `None` returns every kind.
        kind: Option<String>,
        /// Maximum events to return (newest win).
        limit: u32,
    },
    /// Return this daemon's health sample and firing alerts (the health
    /// leaf request; `ClusterHealth` fans these out, `GET /v1/alerts`
    /// reads the local one).
    HealthFetch,
}

/// A control-plane reply.
#[derive(Clone, Debug, PartialEq)]
pub enum CtrlReply {
    /// Join granted: your id, and the full member list (including you).
    Joined {
        /// The assigned transport-level id.
        node: u32,
        /// All members, joiner included.
        members: Vec<Member>,
    },
    /// Query finished.
    Answer {
        /// The aggregate, rendered (`AggResult` display form).
        result: String,
        /// False if some branch timed out or failed.
        complete: bool,
    },
    /// Generic success.
    Ok,
    /// Status report.
    Status {
        /// This daemon's node id.
        node: u32,
        /// Members this daemon currently knows (alive or dead).
        members: u32,
        /// How many of them are currently believed alive.
        alive: u32,
        /// Node ids of members whose failure was confirmed (kept in the
        /// view for identity continuity, pruned from the overlay).
        dead: Vec<u32>,
        /// Standing watches fronted by this daemon (control-plane
        /// `watch` streams plus gateway SSE streams).
        watches: u32,
        /// Standing-subscription entries hosted on this node's trees
        /// (its own and other front-ends'; drains to zero after
        /// cancellation or lease GC — the leak detector for tests).
        sub_entries: u32,
        /// A compact metrics snapshot (name → value) of the key
        /// `/metrics` families, for `moara-cli status --json`.
        metrics: Vec<(String, f64)>,
        /// Latency-bucket trace exemplars (key → trace id, e.g.
        /// `phase/fold/le/100000` → `0x...`): the most recent sampled
        /// trace that landed in each slow bucket, linking a p99 spike
        /// straight to a concrete waterfall.
        exemplars: Vec<(String, String)>,
    },
    /// One update of a standing watch (streamed; many per request).
    Update {
        /// The merged result, rendered (`AggResult` display form).
        result: String,
        /// True for the first update of the watch.
        initial: bool,
        /// False when some pinned tree had not reported yet.
        complete: bool,
    },
    /// Request failed.
    Error(String),
    /// This daemon's local spans for one trace (`TraceFetch` answer).
    Spans(Vec<SpanRecord>),
    /// The cluster-merged span tree for one trace (`TraceGet` answer).
    Trace {
        /// Spans from every daemon that answered, merged.
        spans: Vec<SpanRecord>,
        /// Node ids of members confirmed dead, then of alive ones that
        /// did not answer by the gather deadline (their subtrees show as
        /// orphans).
        missing: Vec<u32>,
    },
    /// Recent trace summaries from this daemon (`TraceList` answer).
    Traces(Vec<TraceSummary>),
    /// The merged cluster-health table (`ClusterHealth` answer).
    ClusterHealth {
        /// The serving daemon.
        node: u32,
        /// One row per member (self included), in node order.
        rows: Vec<PeerHealthRow>,
        /// Alert rules firing on the serving daemon right now.
        alerts: Vec<AlertWire>,
    },
    /// One daemon's Prometheus exposition (`MetricsFetch` answer).
    MetricsText(String),
    /// One metric's series from one daemon's history rings
    /// (`HistoryFetch` answer).
    History {
        /// The answering daemon.
        node: u32,
        /// Ring resolution of the points, in seconds.
        res_s: u32,
        /// `(unix_ms, value)` points, oldest first.
        points: Vec<(u64, f64)>,
    },
    /// The cluster-merged series for one metric (`ClusterHistory`
    /// answer).
    ClusterHistory {
        /// The queried metric.
        metric: String,
        /// Ring resolution of the points, in seconds.
        res_s: u32,
        /// Per-member series: `(node, points)`, self included.
        series: Vec<(u32, Vec<(u64, f64)>)>,
        /// Members that could not answer before the gather deadline.
        missing: Vec<u32>,
    },
    /// The newest journal entries (`EventsFetch` answer).
    Events(Vec<EventWire>),
    /// One daemon's health (`HealthFetch` answer).
    Health {
        /// Its health sample: each `sample` row of the metrics
        /// catalogue, in table order.
        sample: Vec<(String, f64)>,
        /// The alert rules firing on it right now.
        firing: Vec<AlertWire>,
    },
}

wire_enum!(CtrlRequest {
    0 => Join { addr, prev_node },
    1 => Query { text },
    2 => SetAttr { attr, value },
    3 => Status,
    4 => Watch { text, policy, lease_us },
    5 => TraceFetch { trace_id },
    6 => TraceGet { trace_id },
    7 => TraceList { limit },
    8 => ClusterHealth,
    9 => MetricsFetch,
    10 => HistoryFetch { metric, range_s },
    11 => ClusterHistory { metric, range_s },
    12 => EventsFetch { kind, limit },
    13 => HealthFetch,
});

wire_enum!(CtrlReply {
    0 => Joined { node, members },
    1 => Answer { result, complete },
    2 => Ok,
    3 => Status { node, members, alive, dead, watches, sub_entries, metrics, exemplars },
    4 => Error(msg),
    5 => Update { result, initial, complete },
    6 => Spans(spans),
    7 => Trace { spans, missing },
    8 => Traces(summaries),
    9 => ClusterHealth { node, rows, alerts },
    10 => MetricsText(text),
    11 => History { node, res_s, points },
    12 => ClusterHistory { metric, res_s, series, missing },
    13 => Events(events),
    14 => Health { sample, firing },
});

/// The control listener's token in the port's set; connections count up
/// from 1.
const LISTENER: u64 = 0;

/// Where one control connection is.
#[derive(PartialEq)]
enum Phase {
    /// Waiting for its next request.
    Idle,
    /// One request is with the daemon; its reply goes out next.
    Asked,
    /// A watch: update frames until either side hangs up.
    Watching,
}

/// One control connection. It reads only while idle, so what a client
/// sends behind a request in flight waits in the kernel.
struct CtrlConn {
    stream: TcpStream,
    frames: FrameBuf,
    /// Reply bytes the socket has not taken yet.
    out: Vec<u8>,
    phase: Phase,
    /// Closes once its output is written: the client hung up, sent a bad
    /// frame, or had its watch ended by an `Error`.
    closing: bool,
}

impl CtrlConn {
    /// Appends `reply` to the output as one frame.
    fn queue(&mut self, reply: &CtrlReply) {
        let appended = append_frame(&mut self.out, |out| reply.encode(out));
        appended.expect("a reply over 4 GiB was never built");
    }

    /// Writes what the socket takes. False when the connection is
    /// finished with: the socket failed, or it is closing and has
    /// nothing left to write.
    fn flush(&mut self) -> bool {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(n) if n > 0 => drop(self.out.drain(..n)),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Ok(_) | Err(_) => return false,
            }
        }
        !(self.closing && self.out.is_empty())
    }

    /// Takes the connection as far as it goes without waiting: while
    /// idle, reads until a request is whole (returned) or nothing more
    /// has come, then writes what it owes. `Err` when it is finished
    /// with.
    fn advance(&mut self, chunk: &mut [u8]) -> Result<Option<CtrlRequest>, ()> {
        let mut req = None;
        while self.phase == Phase::Idle && !self.closing {
            // A prefix over the cap: the stream cannot be resynchronised.
            match self.frames.next_frame().map_err(drop)? {
                Some(payload) => match CtrlRequest::from_bytes(payload) {
                    Ok(r) => {
                        let watch = matches!(r, CtrlRequest::Watch { .. });
                        self.phase = if watch { Phase::Watching } else { Phase::Asked };
                        req = Some(r);
                    }
                    Err(_) => {
                        self.closing = true;
                        self.queue(&CtrlReply::Error("bad request frame".into()));
                    }
                },
                None => match self.stream.read(chunk) {
                    Ok(0) => self.closing = true,
                    Ok(n) => self.frames.extend(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return Err(()),
                },
            }
        }
        self.flush().then_some(req).ok_or(())
    }
}

/// What a turn of the control port hands the daemon.
pub(crate) enum CtrlEvent {
    /// A request from connection `.0`, answered into `ReplyTo::Ctrl(.0)`.
    Request(u64, CtrlRequest),
    /// Connection `.0` closed while it streamed a watch: cancel the watch.
    Closed(u64),
}

/// The control port on the event loop's thread: the listener and every
/// connection are members of one `epoll` set, whose fd sits in the
/// loop's one wait (`TcpTransport::add_host_fd`). Connections are
/// edge-triggered, for input, output and hang-up alike, so none is ever
/// re-registered. A turn accepts, reads, and reassembles frames
/// ([`FrameBuf`]), handing each request to the daemon as a
/// [`CtrlEvent`]; a reply is appended to its connection's output and
/// written then, `EPOLLOUT` finishing a partial write. A connection has
/// one request in flight at a time; a watch streams until either side
/// hangs up, an `Error` ending it; a bad frame gets `Error("bad request
/// frame")` and a close.
pub(crate) struct CtrlPort {
    epoll: Epoll,
    listening: Listening<TcpListener>,
    conns: HashMap<u64, CtrlConn>,
    next_id: u64,
    /// Connections answered back to idle: the next turn reads on, for a
    /// request the client already sent or its hang-up.
    resume: Vec<u64>,
    chunk: Vec<u8>,
}

impl CtrlPort {
    /// The port over a bound `listener`.
    ///
    /// # Errors
    ///
    /// The listener cannot be made non-blocking or join the set.
    pub(crate) fn new(listener: TcpListener) -> std::io::Result<CtrlPort> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new();
        let listening = Listening::new(&epoll, listener, EPOLLIN, LISTENER)?;
        Ok(CtrlPort {
            epoll,
            listening,
            conns: HashMap::new(),
            next_id: LISTENER + 1,
            resume: Vec::new(),
            chunk: vec![0; 16 * 1024],
        })
    }

    /// The set's fd: readable while the listener or a connection is.
    pub(crate) fn fd(&self) -> RawFd {
        self.epoll.as_raw_fd()
    }

    /// How long past `now` the loop may block before the port needs a
    /// turn its fd does not signal: none while an answered connection
    /// waits to read on, the rest of the pause the listener sits out.
    pub(crate) fn wait_bound(&self, now: Instant) -> Option<Duration> {
        match self.resume.is_empty() {
            false => Some(Duration::ZERO),
            true => self.listening.paused_for(now),
        }
    }

    /// One turn at `now`, never blocking: reads on where an answer left a
    /// connection idle and — when the loop saw the port's fd `ready` —
    /// accepts and serves what is ready. No syscall unless there is
    /// something to do.
    pub(crate) fn turn(&mut self, ready: bool, now: Instant) -> Vec<CtrlEvent> {
        let mut events = Vec::new();
        self.listening.resume(&self.epoll, now);
        for id in std::mem::take(&mut self.resume) {
            self.advance(id, 0, &mut events);
        }
        if ready {
            let mut buf = [EpollEvent::default(); 64];
            for ev in self.epoll.wait(&mut buf, Duration::ZERO) {
                match ev.data {
                    LISTENER => self.accept(now),
                    id => self.advance(id, ev.events, &mut events),
                }
            }
        }
        events
    }

    /// Takes every queued connection into the set.
    fn accept(&mut self, now: Instant) {
        let wants = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
        while let Some(stream) = self.listening.accept(&self.epoll, now) {
            let (id, fd) = (self.next_id, stream.as_raw_fd());
            self.next_id += 1;
            let _ = stream.set_nodelay(true);
            // Else the stream drops: a connection nobody would hear from.
            if stream.set_nonblocking(true).is_ok() && self.epoll.add(fd, wants, id).is_ok() {
                let conn = CtrlConn {
                    stream,
                    frames: FrameBuf::default(),
                    out: Vec::new(),
                    phase: Phase::Idle,
                    closing: false,
                };
                self.conns.insert(id, conn);
            }
        }
    }

    /// Moves connection `id` on after readiness `bits` (none: an answer
    /// left it idle), closing it when it is finished with. A hang-up ends
    /// a watch there and then.
    fn advance(&mut self, id: u64, bits: u32, events: &mut Vec<CtrlEvent>) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let watching = conn.phase == Phase::Watching;
        let gone = bits & (EPOLLERR | EPOLLHUP) != 0 || (watching && bits & EPOLLRDHUP != 0);
        match conn.advance(&mut self.chunk) {
            Ok(req) if !gone => events.extend(req.map(|req| CtrlEvent::Request(id, req))),
            _ => {
                self.conns.remove(&id);
                if watching {
                    events.push(CtrlEvent::Closed(id));
                }
            }
        }
    }

    /// Writes one reply to connection `id`. `Err(SinkClosed)` when it is
    /// gone, or the reply ended it: for a watch, cancel the subscription.
    pub(crate) fn reply(&mut self, id: u64, reply: &CtrlReply) -> Result<(), SinkClosed> {
        let conn = self.conns.get_mut(&id).ok_or(SinkClosed)?;
        match conn.phase {
            Phase::Asked => {
                conn.phase = Phase::Idle;
                self.resume.push(id);
            }
            Phase::Watching => conn.closing |= matches!(reply, CtrlReply::Error(_)),
            Phase::Idle => {}
        }
        conn.queue(reply);
        if conn.flush() {
            return Ok(());
        }
        self.conns.remove(&id);
        Err(SinkClosed)
    }

    /// Whether connection `id` is still open (a watch's keepalive: a
    /// hang-up is seen by the port itself).
    pub(crate) fn is_open(&self, id: u64) -> bool {
        self.conns.contains_key(&id)
    }

    /// Answers every request still in flight with `Error("daemon
    /// shutting down")`, then closes every connection and the listener.
    pub(crate) fn shutdown(mut self) {
        let bye = CtrlReply::Error("daemon shutting down".into());
        for conn in self.conns.values_mut() {
            if conn.phase == Phase::Asked {
                conn.queue(&bye);
                conn.flush();
            }
        }
    }
}

/// Client side: one framed request/reply round trip over a fresh
/// connection (what `moara-cli` and joining daemons use).
///
/// # Errors
///
/// Connection, framing, and timeout failures, as strings.
pub fn ctrl_roundtrip(
    addr: &str,
    req: &CtrlRequest,
    timeout: Duration,
) -> Result<CtrlReply, String> {
    let sock_addr = resolve(addr)?;
    let deadline = Instant::now() + timeout;
    // The target daemon may still be booting (the smoke test starts
    // processes concurrently): retry connects until the deadline.
    let mut stream = loop {
        match TcpStream::connect_timeout(&sock_addr, Duration::from_millis(500)) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("connect {addr}: {e}"));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    write_msg(&mut stream, req).map_err(|e| format!("send: {e}"))?;
    let payload = read_frame(&mut stream)
        .map_err(|e| format!("recv: {e}"))?
        .ok_or("connection closed before reply")?;
    CtrlReply::from_bytes(&payload).map_err(|e| format!("decode reply: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request the loop has read but not answered when
    /// `Daemon::shutdown` runs is told so at once — not left to time
    /// out, and not a bare close.
    #[test]
    fn a_request_in_flight_at_shutdown_reads_shutting_down() {
        let any = "127.0.0.1:0".parse().unwrap();
        let mut d = crate::Daemon::start(crate::DaemonOpts::new(any)).expect("daemon boots");
        let mut client = TcpStream::connect(d.ctrl_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let query = CtrlRequest::Query {
            text: "SELECT count(*)".into(),
        };
        write_msg(&mut client, &query).unwrap();
        // The walk starts in the step that reads the request; its answer
        // crosses a socket, so it needs a later one.
        let deadline = Instant::now() + Duration::from_secs(10);
        while d.walks.is_empty() {
            assert!(Instant::now() < deadline, "the query never started");
            d.step(Duration::from_millis(1));
        }
        d.shutdown();
        let reply = read_frame(&mut client)
            .unwrap()
            .expect("a reply, not a bare close");
        assert_eq!(
            CtrlReply::from_bytes(&reply).unwrap(),
            CtrlReply::Error("daemon shutting down".into())
        );
        assert_eq!(read_frame(&mut client).unwrap(), None, "then a close");
    }

    /// Requests sent back to back and then a half-close are answered one
    /// at a time, in order — the next is read once the last is answered —
    /// and the connection closes after the last answer.
    #[test]
    fn pipelined_requests_and_a_half_close_are_answered_in_order() {
        let any = "127.0.0.1:0".parse().unwrap();
        let mut d = crate::Daemon::start(crate::DaemonOpts::new(any)).expect("daemon boots");
        let mut client = TcpStream::connect(d.ctrl_addr()).unwrap();
        let query = CtrlRequest::Query {
            text: "SELECT count(*)".into(),
        };
        for req in [&CtrlRequest::Status, &query, &CtrlRequest::Status] {
            write_msg(&mut client, req).unwrap();
        }
        client.shutdown(std::net::Shutdown::Write).unwrap();
        client.set_nonblocking(true).unwrap();
        let (mut frames, mut chunk, mut replies) = (FrameBuf::default(), [0; 4096], Vec::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            assert!(Instant::now() < deadline, "closed after {replies:?}?");
            d.step(Duration::from_millis(1));
            match client.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => frames.extend(&chunk[..n]),
                Err(e) => assert_eq!(e.kind(), ErrorKind::WouldBlock),
            }
            while let Some(frame) = frames.next_frame().unwrap() {
                replies.push(CtrlReply::from_bytes(frame).unwrap());
            }
        }
        assert!(
            matches!(
                replies[..],
                [
                    CtrlReply::Status { .. },
                    CtrlReply::Answer { .. },
                    CtrlReply::Status { .. }
                ]
            ),
            "{replies:?}"
        );
    }
}
