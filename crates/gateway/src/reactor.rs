//! The gateway's event-driven core: `epoll` readiness loops over
//! nonblocking sockets, each connection a small state machine
//! (incremental request parse → route → answer, or await the daemon →
//! buffered response write → back to parsing, or flip into an SSE
//! stream), so one daemon holds tens of thousands of open connections on
//! a handful of threads. `epoll` and the wake `eventfd` come from
//! `crate::epoll`, the one raw syscall layer this edge shares with the
//! peer transport.
//!
//! What runs where:
//! * **shards** block only in `epoll_wait` (bounded by the sweep
//!   interval). Each has the one non-blocking listener in its own set
//!   with `EPOLLEXCLUSIVE`, so a connection wakes one waiting shard, not
//!   all of them. That shard accepts up to `ACCEPT_BATCH` a turn, applies
//!   the connection cap and keeps what it accepts; the kernel queues up
//!   to `BACKLOG` connections until a shard gets to them. Out of
//!   descriptors, a shard's set lets the listener go for a pause
//!   (`Listening`) rather than spin on it. Shards answer
//!   what needs no daemon: cache hits, OPTIONS, routing errors, 429s, the
//!   stream cap, the 503 for a daemon that is gone. The first request
//!   that needs the daemon moves its whole connection through a `Door`
//!   to the event loop, once;
//! * the **event loop** hosts the connections that moved in a
//!   [`LoopEdge`], whose `epoll` fd sits in the loop's one wait, and
//!   reads, parses, answers and writes them itself: no request crosses a
//!   thread.
//!
//! Both hosts drive one state machine (`Conns`): the parse loop, the
//! middleware in `handle_request`'s order, the 408 deadline, the idle,
//! slowloris and write-stall sweeps, SSE framing. They differ (`Host`) in
//! where new connections come from and what becomes of a request for the
//! daemon. Every one-shot answer leaves through `answer`, which counts,
//! times and access-logs it on the wall clock. A shard reads the clock
//! once a turn, after its `epoll_wait`; the loop passes its step's. Every
//! rule reads that `now` (the 408 deadline, the header, idle and
//! write-stall timeouts, the rate limit, the cache's freshness); a
//! timeout acts at the first sweep at or after it, ≤ 100 ms late.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::api::{
    answer_body, render_reply, route, sse_frame, GatewayHandle, GatewayOpts, GwReply, GwRequest,
    SinkClosed, ALLOWED_METHODS,
};
use crate::epoll::{
    listen_nonblocking, Epoll, EpollEvent, Listening, WakeFd, EPOLLERR, EPOLLEXCLUSIVE, EPOLLHUP,
    EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::histogram::Histogram;
use crate::http::{parse_request, HttpRequest, HttpResponse, ParseStep};
use crate::json;
use crate::middleware::TokenBuckets;

/// The epoll data value reserved for a shard's wake eventfd.
const WAKE_TOKEN: u64 = 0;

/// The epoll data value reserved for a shard's listener (connection ids
/// start after it).
const LISTENER_TOKEN: u64 = 1;

/// How many connections the kernel queues on the listener for the shards
/// to accept (it caps this at its own `somaxconn`). A burst beyond the
/// queue has its SYNs dropped, and those clients wait out a retransmit.
pub(crate) const BACKLOG: i32 = 4096;

/// Most connections a shard accepts in one turn; what is left keeps the
/// listener ready, for its next turn or another shard.
const ACCEPT_BATCH: usize = 64;

/// How often a shard sweeps for idle/stalled/deadline-passed
/// connections; also bounds `epoll_wait` so the stop flag is observed.
const SWEEP_EVERY: Duration = Duration::from_millis(100);

/// Most bytes read from a connection per readiness event.
const READ_CHUNK: usize = 16 * 1024;

/// Most buffered-but-unread input per connection (a full body plus
/// generous pipelining headroom) before the connection is dropped.
const IN_BUF_CAP: usize = crate::http::MAX_BODY + 64 * 1024;

/// Most unsent output buffered per connection before it is declared a
/// dead slow consumer (an SSE client that stopped reading must not
/// grow a frame queue without bound).
pub(crate) const OUT_BUF_CAP: usize = 1024 * 1024;

/// How long a connection with pending output may make zero write
/// progress before it is closed.
pub(crate) const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// What a request is counted and timed as: one closed set, in scrape
/// order. `Other` takes every request answered before it routes (404,
/// 405, OPTIONS, 429, parse failures), so it is timed but never counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `/v1/query`.
    Query,
    /// `/v1/attrs`.
    Attrs,
    /// `/v1/watch`.
    Watch,
    /// `/metrics`, `/v1/cluster/metrics` and both history endpoints.
    Metrics,
    /// `/healthz`, `/v1/cluster/health`, `/v1/alerts` and `/v1/events`.
    Health,
    /// `/v1/traces` and `/v1/trace/{id}`.
    Traces,
    /// Everything that did not route.
    Other,
}

impl Endpoint {
    /// Every class, in scrape order.
    pub const ALL: [Endpoint; 7] = [
        Endpoint::Query,
        Endpoint::Attrs,
        Endpoint::Watch,
        Endpoint::Metrics,
        Endpoint::Health,
        Endpoint::Traces,
        Endpoint::Other,
    ];

    /// The class a routed request counts under.
    pub(crate) fn of(req: &GwRequest) -> Endpoint {
        match req {
            GwRequest::Query { .. } => Endpoint::Query,
            GwRequest::SetAttrs { .. } => Endpoint::Attrs,
            GwRequest::Watch { .. } => Endpoint::Watch,
            GwRequest::Metrics
            | GwRequest::ClusterMetrics
            | GwRequest::History { .. }
            | GwRequest::ClusterHistory { .. } => Endpoint::Metrics,
            GwRequest::Health
            | GwRequest::ClusterHealth
            | GwRequest::Alerts
            | GwRequest::Events { .. } => Endpoint::Health,
            GwRequest::Traces { .. } | GwRequest::Trace { .. } => Endpoint::Traces,
        }
    }

    /// Its `endpoint` label on the latency histograms.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Endpoint::Query => "query",
            Endpoint::Attrs => "attrs",
            Endpoint::Watch => "watch",
            Endpoint::Metrics => "metrics",
            Endpoint::Health => "health",
            Endpoint::Traces => "traces",
            Endpoint::Other => "other",
        }
    }

    /// Its `endpoint` label on the request counters: the health class
    /// keeps its older spelling there, and `Other` has no counter.
    pub fn counter_label(self) -> Option<&'static str> {
        match self {
            Endpoint::Health => Some("healthz"),
            Endpoint::Other => None,
            class => Some(class.label()),
        }
    }
}

/// Bucket upper bounds (microseconds) for the gateway's request-latency
/// histograms. Log-ish spacing from sub-millisecond one-shots out to the
/// engine's front timeout; the final implicit bucket is `+Inf`.
pub const REQUEST_LATENCY_BOUNDS_US: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// Request-latency histograms, one per [`Endpoint`]. Watch streams
/// observe their whole stream lifetime (headers to hang-up), one-shots
/// the read-to-written span.
#[derive(Debug)]
pub struct EndpointLatency([Histogram; Endpoint::ALL.len()]);

impl Default for EndpointLatency {
    fn default() -> Self {
        EndpointLatency(std::array::from_fn(|_| {
            Histogram::new(&REQUEST_LATENCY_BOUNDS_US)
        }))
    }
}

impl EndpointLatency {
    /// The histogram of one class.
    pub fn of(&self, class: Endpoint) -> &Histogram {
        &self.0[class as usize]
    }

    /// All classes, label first — iteration order is the scrape order.
    pub fn families(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        Endpoint::ALL.into_iter().map(Endpoint::label).zip(&self.0)
    }
}

/// Live counters the gateway keeps about itself (lock-free; scraped into
/// `/metrics` alongside the subsystem counters).
#[derive(Debug, Default)]
pub struct GatewayStats {
    /// Requests routed, by class; read through [`GatewayStats::requests`].
    requests: [AtomicU64; Endpoint::ALL.len()],
    /// SSE data frames written.
    pub sse_frames: AtomicU64,
    /// Responses with a 4xx/5xx status.
    pub errors: AtomicU64,
    /// Requests answered 429 by the per-peer-IP token bucket.
    pub rate_limited: AtomicU64,
    /// Requests answered 408 (per-request deadline or slowloris header
    /// timeout).
    pub request_timeouts: AtomicU64,
    /// Panics caught by per-connection isolation (each one killed its
    /// connection only).
    pub panics_caught: AtomicU64,
    /// Connections accepted over the gateway's lifetime.
    pub conns_accepted: AtomicU64,
    /// Connections refused at accept because the connection cap was hit.
    pub conns_rejected: AtomicU64,
    /// Connections currently open, on a shard or on the event loop
    /// (gauge).
    pub open_conns: AtomicI64,
    /// SSE streams currently holding a slot (reserved at routing time,
    /// released when the stream ends — so mid-setup streams count, and
    /// the cap cannot be raced past).
    pub open_streams: AtomicI64,
    /// Connections handed to the event loop and still at its door (gauge:
    /// up at each hand-over, down as the loop takes them). The health
    /// plane's event-loop backpressure signal.
    pub queued_jobs: AtomicI64,
    /// Connections the shards have handed to the event loop (each once).
    pub handovers: AtomicU64,
    /// Request latency by endpoint class.
    pub latency: EndpointLatency,
}

impl GatewayStats {
    /// Requests routed to `class` so far (watches: streams opened).
    pub fn requests(&self, class: Endpoint) -> u64 {
        self.requests[class as usize].load(Ordering::Relaxed)
    }
}

/// Where access-log lines go: the daemon passes a sink (stderr, a file)
/// and the gateway calls it once per finished request with one JSON line
/// (no trailing newline). Must be cheap and non-blocking-ish: shards and
/// the event loop call it inline.
pub type AccessLogSink = Arc<dyn Fn(&str) + Send + Sync>;

/// Renders one access-log line as a single JSON object via the shared
/// [`json::JsonLine`] writer (same escaping as every other stderr
/// sink). Pure — the caller supplies the timestamp — so tests can
/// assert the exact line.
pub fn access_log_line(
    ts_ms: u64,
    method: &str,
    path: &str,
    status: u16,
    duration_us: u64,
    bytes: usize,
    peer: &str,
) -> String {
    json::JsonLine::new()
        .u64("ts_ms", ts_ms)
        .str("method", method)
        .str("path", path)
        .u64("status", u64::from(status))
        .u64("duration_us", duration_us)
        .u64("bytes", bytes as u64)
        .str("peer", peer)
        .finish()
}

/// What makes the event loop look at its door: the daemon's loop wake.
pub type Wake = Arc<dyn Fn() + Send + Sync>;

/// Connections moving from the shards to the event loop (counted in
/// `handovers` and `queued_jobs`), plus its wake. Closed once it is gone.
struct Door {
    /// `None` once closed.
    queue: Mutex<Option<Vec<Conn>>>,
    wake: Wake,
    stats: Arc<GatewayStats>,
}

impl Door {
    fn new(wake: Wake, stats: &Arc<GatewayStats>) -> Arc<Door> {
        let (queue, stats) = (Mutex::new(Some(Vec::new())), Arc::clone(stats));
        Arc::new(Door { queue, wake, stats })
    }

    /// Enqueues what `conn` makes and wakes the loop; false, `conn` never
    /// called, when closed (one step, so nothing is left behind a door).
    fn enter(&self, conn: impl FnOnce() -> Conn) -> bool {
        let mut queue = self.queue.lock().unwrap();
        let Some(waiting) = queue.as_mut() else {
            return false;
        };
        waiting.push(conn());
        // Counted under the lock, so `take` never subtracts it first.
        self.stats.queued_jobs.fetch_add(1, Ordering::Relaxed);
        self.stats.handovers.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        (self.wake)();
        true
    }

    /// Whether a connection waits to be taken.
    fn waiting(&self) -> bool {
        self.queue
            .lock()
            .unwrap()
            .as_ref()
            .is_some_and(|q| !q.is_empty())
    }

    /// Everything waiting, oldest first.
    fn take(&self) -> Vec<Conn> {
        let mut queue = self.queue.lock().unwrap();
        let taken = queue.as_mut().map(std::mem::take).unwrap_or_default();
        self.stats
            .queued_jobs
            .fetch_sub(taken.len() as i64, Ordering::Relaxed);
        taken
    }

    /// Closes the door; what still waits there drops, closed.
    fn close(&self) {
        self.queue.lock().unwrap().take();
    }
}

/// Where a connection's state machine currently is.
enum Phase {
    /// Parsing (or waiting for) the next request.
    Ready,
    /// A request is with the daemon. For a watch (it holds a stream
    /// slot) the first reply decides between SSE headers and an error.
    Await(Pending),
    /// Streaming Server-Sent Events until either side hangs up; the
    /// request it grew out of is kept for the access log.
    Sse(Pending),
}

/// A request as its answer is written and accounted: its class, what the
/// access log calls it, when it was read, and how the answer goes back.
struct Req {
    class: Endpoint,
    method: String,
    path: String,
    started: Instant,
    /// A `HEAD`: the answer is its head only.
    head_only: bool,
    keep_alive: bool,
}

impl Req {
    /// A parsed request, not yet routed.
    fn new(http: HttpRequest, started: Instant) -> Req {
        let HttpRequest {
            method,
            path,
            keep_alive,
            ..
        } = http;
        Req {
            class: Endpoint::Other,
            head_only: method == "HEAD",
            method,
            path,
            started,
            keep_alive,
        }
    }

    /// A request that never parsed to its end, its first bytes in `head`:
    /// the access log has no method or path for it.
    fn unparsed(head: &[u8], started: Instant) -> Req {
        Req {
            class: Endpoint::Other,
            method: "-".into(),
            path: "-".into(),
            started,
            head_only: head.starts_with(b"HEAD "),
            keep_alive: false,
        }
    }
}

/// Which of the capped gauges a [`Slot`] holds on.
type Gauge = fn(&GatewayStats) -> &AtomicI64;

/// A hold on one unit of a capped gauge: a connection's in `open_conns`
/// (`max_conns`), an SSE stream's in `open_streams` (`max_sse_streams`).
/// Given back when it drops, however the connection or stream ends.
struct Slot(Arc<GatewayStats>, Gauge);

impl Slot {
    /// A slot, or `None` at `cap`. The gauge counts it only while under
    /// the cap, in one atomic step: threads taking slots at once cannot
    /// race past the cap, and the gauge never reads above it.
    fn take(stats: &Arc<GatewayStats>, gauge: Gauge, cap: i64) -> Option<Slot> {
        let under_cap = |n: i64| (n < cap).then_some(n + 1);
        gauge(stats)
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, under_cap)
            .ok()?;
        Some(Slot(Arc::clone(stats), gauge))
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        (self.1)(&self.0).fetch_sub(1, Ordering::SeqCst);
    }
}

/// A request with the daemon.
struct Pending {
    deadline: Instant,
    req: Req,
    /// A watch's stream slot.
    slot: Option<Slot>,
}

impl Pending {
    /// The request, its stream slot (if any) given back.
    fn finish(self) -> Req {
        self.req
    }
}

/// One connection, on a shard or — once a request of its needed the
/// daemon — on the event loop, where all of it moves.
struct Conn {
    stream: TcpStream,
    /// Its hold on `open_conns`.
    _slot: Slot,
    peer: String,
    ip: IpAddr,
    buf_in: Vec<u8>,
    buf_out: Vec<u8>,
    out_pos: usize,
    phase: Phase,
    /// A routed request for the daemon, until its host acts on it.
    ask: Option<GwRequest>,
    close_after_write: bool,
    dead: bool,
    /// Registered for `EPOLLOUT` in its host's set.
    interest_out: bool,
    last_activity: Instant,
    /// When the currently-buffered partial request head started
    /// arriving (drives the slowloris header timeout).
    header_started: Option<Instant>,
    /// When pending output last made zero progress.
    write_stalled_since: Option<Instant>,
}

/// Which host a [`Conns`] is, by its one source of new connections.
enum Host {
    /// A shard: it accepts from the listener all shards share (in its
    /// own set, which the listener leaves for a pause when descriptors
    /// run out), and moves a connection that needs the daemon through the
    /// loop's door.
    Shard(Listening<Arc<TcpListener>>, Arc<Door>),
    /// The event loop: its connections come in at its door.
    Loop(Arc<Door>),
}

/// What the connection helpers share on one host (split from the
/// connection map so they can borrow a `Conn` mutably alongside it).
struct Ctx {
    /// The turn's one clock reading, which every rule reads.
    now: Instant,
    stats: Arc<GatewayStats>,
    limiter: Option<Arc<TokenBuckets>>,
    opts: GatewayOpts,
    host: Host,
}

impl Ctx {
    /// The rate-limit step: false, and counted, when `ip` has no token.
    fn admit(&self, ip: IpAddr) -> bool {
        let admitted = self.limiter.as_ref().is_none_or(|l| l.allow(ip, self.now));
        if !admitted {
            self.stats.rate_limited.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }
}

/// The connections one thread drives: a shard's, or the event loop's
/// ([`LoopEdge`]).
struct Conns {
    epoll: Epoll,
    map: HashMap<u64, Conn>,
    next_id: u64,
    next_sweep: Instant,
    ctx: Ctx,
    /// On the loop: requests for the daemon, oldest first, by connection.
    asks: Vec<(u64, GwRequest)>,
}

impl Conns {
    /// One turn at `ctx.now` on what a wait found `ready`: adopts what came
    /// in (what a shard accepts, what is at the loop's door), reads each
    /// ready connection once, handles what that completes, sweeps if due.
    fn turn(&mut self, ready: &[EpollEvent]) {
        let now = self.ctx.now;
        let arrived = match &mut self.ctx.host {
            Host::Loop(door) => door.take(),
            Host::Shard(listening, _) => {
                listening.resume(&self.epoll, now);
                let mut streams = Vec::new();
                if ready.iter().any(|ev| ev.data == LISTENER_TOKEN) {
                    // Until there is none to take (a `from_fn` stop) or a
                    // full batch.
                    let accept = || listening.accept(&self.epoll, now);
                    streams.extend(std::iter::from_fn(accept).take(ACCEPT_BATCH));
                }
                let ctx = &self.ctx;
                streams
                    .into_iter()
                    .filter_map(|s| Conn::accept(ctx, s))
                    .collect()
            }
        };
        for conn in arrived {
            self.adopt(conn);
        }
        for ev in ready.iter().filter(|ev| ev.data > LISTENER_TOKEN) {
            self.conn_event(ev.data, ev.events);
        }
        self.sweep_if_due();
    }

    /// Registers `conn` in this host's set (a refused one is closed).
    fn adopt(&mut self, mut conn: Conn) {
        let (id, fd) = (self.next_id, conn.stream.as_raw_fd());
        self.next_id += 1;
        // In for input; `finalize` adds output if some waits.
        conn.interest_out = false;
        if self.epoll.add(fd, EPOLLIN | EPOLLRDHUP, id).is_err() {
            // Dropped: a connection nobody would hear from.
            return;
        }
        self.map.insert(id, conn);
        // A connection that moved brings its request for the daemon.
        self.finalize(id);
    }

    /// Runs `f` on connection `id` with panic isolation — a panic while
    /// parsing or handling kills this connection only — then the
    /// post-event bookkeeping.
    fn on_conn(&mut self, id: u64, f: impl FnOnce(&Ctx, &mut Conn)) {
        let Some(conn) = self.map.get_mut(&id) else {
            return;
        };
        let ctx = &self.ctx;
        if std::panic::catch_unwind(AssertUnwindSafe(|| f(ctx, conn))).is_err() {
            self.ctx.stats.panics_caught.fetch_add(1, Ordering::Relaxed);
            if let Some(conn) = self.map.get_mut(&id) {
                conn.dead = true;
            }
        }
        self.finalize(id);
    }

    /// Handles one readiness event for connection `id`.
    fn conn_event(&mut self, id: u64, bits: u32) {
        self.on_conn(id, |ctx, conn| {
            if bits & EPOLLERR != 0 {
                conn.dead = true;
            }
            if !conn.dead && bits & EPOLLOUT != 0 {
                conn.flush(ctx.now);
            }
            if !conn.dead && bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0 {
                conn.fill(ctx.now);
                if !conn.dead {
                    advance(ctx, conn);
                }
            }
        });
    }

    /// Post-event bookkeeping: closes a dead connection, acts on a
    /// request for the daemon (a shard hands the connection over, the
    /// loop queues the request), syncs `EPOLLOUT` interest.
    fn finalize(&mut self, id: u64) {
        let Some(conn) = self.map.get_mut(&id) else {
            return;
        };
        if conn.dead {
            return self.close(id);
        }
        if let Some(req) = conn.ask.take() {
            match &self.ctx.host {
                Host::Shard(_, door) => return self.hand_over(id, req, &Arc::clone(door)),
                Host::Loop(_) => self.asks.push((id, req)),
            }
        }
        let want_out = conn.out_pos < conn.buf_out.len();
        if want_out != conn.interest_out {
            conn.interest_out = want_out;
            let mut events = EPOLLIN | EPOLLRDHUP;
            if want_out {
                events |= EPOLLOUT;
            }
            self.epoll.modify(conn.stream.as_raw_fd(), events, id);
        }
    }

    /// Moves connection `id`, with `req`, to the event loop for good; when
    /// the loop is gone, answers 503 here instead.
    fn hand_over(&mut self, id: u64, req: GwRequest, door: &Door) {
        let (epoll, map) = (&self.epoll, &mut self.map);
        let moved = door.enter(|| {
            let mut conn = map.remove(&id).expect("a connection being finalized");
            // It leaves this set, not the process.
            let _ = epoll.delete(conn.stream.as_raw_fd());
            conn.ask = Some(req);
            conn
        });
        if !moved {
            self.on_conn(id, |ctx, conn| {
                if let Phase::Await(p) = std::mem::replace(&mut conn.phase, Phase::Ready) {
                    let response = HttpResponse::error(503, "daemon shut down");
                    answer(ctx, conn, &p.finish(), response, false);
                }
            });
        }
    }

    /// The periodic scan, when due by `ctx.now`: idle keep-alive closes,
    /// slowloris header timeouts, per-request deadlines, stalled writes.
    fn sweep_if_due(&mut self) {
        let now = self.ctx.now;
        if now < self.next_sweep {
            return;
        }
        self.next_sweep = now + SWEEP_EVERY;
        let ids: Vec<u64> = self.map.keys().copied().collect();
        for id in ids {
            let Some(conn) = self.map.get_mut(&id) else {
                continue;
            };
            let ctx = &self.ctx;
            if let Some(p) = conn.overdue(now) {
                time_out(ctx, conn, p);
            } else if matches!(conn.phase, Phase::Ready) && !conn.close_after_write {
                if let Some(t0) = conn.header_started {
                    if now.saturating_duration_since(t0) > ctx.opts.header_timeout {
                        // Slowloris: answer 408 and close. The host never
                        // blocked on these bytes; the timeout just
                        // reclaims the fd.
                        ctx.stats.request_timeouts.fetch_add(1, Ordering::Relaxed);
                        conn.header_started = None;
                        let req = Req::unparsed(&conn.buf_in, t0);
                        let response = HttpResponse::error(408, "header timeout");
                        answer(ctx, conn, &req, response, false);
                    }
                } else if conn.buf_out.is_empty()
                    && now.saturating_duration_since(conn.last_activity) > ctx.opts.idle_timeout
                {
                    conn.dead = true;
                }
            }
            if let Some(t0) = conn.write_stalled_since {
                conn.dead |= now.saturating_duration_since(t0) > WRITE_STALL_TIMEOUT;
            }
            self.finalize(id);
        }
    }

    /// Tears one connection down: the stream slot, stream-lifetime
    /// accounting, the socket.
    fn close(&mut self, id: u64) {
        let Some(mut conn) = self.map.remove(&id) else {
            return;
        };
        // The phase goes first, and with it any stream slot. A stream
        // has one access-log line, at its end, timed over its whole life.
        if let Phase::Sse(stream) = std::mem::replace(&mut conn.phase, Phase::Ready) {
            account(&self.ctx, &conn, &stream.finish(), 200, 0);
        }
        // `conn` drops here: the fd closes and leaves the set, and the
        // connection's slot is given back.
    }

    fn close_all(&mut self) {
        let ids: Vec<u64> = self.map.keys().copied().collect();
        for id in ids {
            self.close(id);
        }
    }
}

/// Spawns the gateway's reactor shards (one a core, at most eight), each
/// accepting from `listener` itself; returns the handle and the event
/// loop's side, the [`LoopEdge`]. A shard calls `wake` after each
/// hand-over. Every host's first sweep falls due `SWEEP_EVERY` past `now`.
///
/// # Panics
///
/// Panics if the listener cannot be readied or its address read,
/// `epoll`/`eventfd` creation fails, or threads cannot spawn — all
/// boot-time process failures.
pub fn spawn_gateway_opts(
    listener: TcpListener,
    wake: Wake,
    now: Instant,
    opts: GatewayOpts,
) -> (GatewayHandle, LoopEdge) {
    listen_nonblocking(&listener, BACKLOG).expect("gateway listener");
    let addr = listener.local_addr().expect("gateway listener addr");
    let listener = Arc::new(listener);
    let stats = Arc::new(GatewayStats::default());
    let stop = Arc::new(AtomicBool::new(false));
    let shard_count = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    let limiter = (opts.rate_limit > 0.0)
        .then(|| Arc::new(TokenBuckets::new(opts.rate_limit, opts.rate_limit * 2.0)));
    let conns = |epoll, host| Conns {
        epoll,
        map: HashMap::new(),
        next_id: LISTENER_TOKEN + 1,
        next_sweep: now + SWEEP_EVERY,
        ctx: Ctx {
            now,
            stats: Arc::clone(&stats),
            limiter: limiter.clone(),
            opts: opts.clone(),
            host,
        },
        asks: Vec::new(),
    };
    let door = Door::new(wake, &stats);
    let edge = LoopEdge {
        conns: conns(Epoll::new(), Host::Loop(Arc::clone(&door))),
        turns: 0,
    };

    let wakes = (0..shard_count).map(|i| {
        let epoll = Epoll::new();
        let (listener, events) = (Arc::clone(&listener), EPOLLIN | EPOLLEXCLUSIVE);
        let listening = Listening::new(&epoll, listener, events, LISTENER_TOKEN);
        let listening = listening.expect("the listener joins a shard's epoll set");
        let mut conns = conns(epoll, Host::Shard(listening, Arc::clone(&door)));
        let wake = Arc::new(WakeFd::new());
        wake.register(&conns.epoll, WAKE_TOKEN);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name(format!("moara-gw-shard-{i}"))
            .spawn(move || {
                let mut events = vec![EpollEvent::default(); 512];
                while !stop.load(Ordering::SeqCst) {
                    // Never zero: a due sweep moves `next_sweep` past `now`.
                    let wait = conns.next_sweep.saturating_duration_since(conns.ctx.now);
                    let ready = conns.epoll.wait(&mut events, wait);
                    conns.ctx.now = Instant::now(); // the turn's one clock reading
                    conns.turn(ready);
                }
                // Stopping: the sockets close, and with the last shard's
                // hold, the listener.
                conns.close_all();
            })
            .expect("spawn gateway shard");
        wake
    });
    let wakes = wakes.collect();

    let handle = GatewayHandle {
        addr,
        stats,
        stop,
        wakes,
    };
    (handle, edge)
}

/// The event loop's side of the gateway: the connections that moved off
/// the shards, in an `epoll` set whose fd ([`LoopEdge::fd`]) joins the
/// loop's one wait. Only the loop's thread touches them. Dropping it
/// closes the door (later hand-overs get 503) and every connection here.
pub struct LoopEdge {
    conns: Conns,
    /// Turns taken ([`LoopEdge::turns`]).
    turns: u64,
}

impl LoopEdge {
    /// The set's fd: readable while a connection here is ready.
    pub fn fd(&self) -> RawFd {
        self.conns.epoll.as_raw_fd()
    }

    /// One turn of the loop's connections at the step's `now`, which
    /// [`LoopEdge::write`] then answers at too, never blocking, when it has
    /// work: the set's fd was `ready`, a connection waits at the door, or
    /// [`LoopEdge::wait_bound`] is zero (a reply let a pipelined request
    /// through, or the sweep is due); else no syscall. Hands each request
    /// for the daemon to `serve`, under its connection's panic isolation.
    pub fn pump(&mut self, ready: bool, now: Instant, mut serve: impl FnMut(u64, GwRequest)) {
        self.conns.ctx.now = now;
        let arrived = matches!(&self.conns.ctx.host, Host::Loop(door) if door.waiting());
        if !(ready || arrived || self.wait_bound(now) == Some(Duration::ZERO)) {
            return;
        }
        self.turns += 1;
        let mut events = [EpollEvent::default(); 64];
        let ready = self.conns.epoll.wait(&mut events, Duration::ZERO);
        self.conns.turn(ready);
        for (id, req) in std::mem::take(&mut self.conns.asks) {
            self.conns.on_conn(id, |_, _| serve(id, req));
        }
    }

    /// How many turns [`LoopEdge::pump`] has taken.
    pub fn turns(&self) -> u64 {
        self.turns
    }

    /// How long past `now` the loop may block before this edge needs a
    /// turn: none when a reply let a pipelined request through, else
    /// until the next sweep while it hosts connections.
    pub fn wait_bound(&self, now: Instant) -> Option<Duration> {
        if !self.conns.asks.is_empty() {
            return Some(Duration::ZERO);
        }
        let until_sweep = self.conns.next_sweep.saturating_duration_since(now);
        (!self.conns.map.is_empty()).then_some(until_sweep)
    }

    /// Writes one reply to connection `conn` now (a one-shot answer, a
    /// stream's headers or frame, a keepalive). `Err(SinkClosed)` when it
    /// is gone or closing: for a watch, cancel the subscription.
    pub fn write(&mut self, conn: u64, reply: GwReply) -> Result<(), SinkClosed> {
        match self.conns.map.get(&conn) {
            Some(c) if !c.close_after_write => {
                self.conns.on_conn(conn, |ctx, c| respond(ctx, c, reply));
                Ok(())
            }
            _ => Err(SinkClosed),
        }
    }

    /// Hangs up on connection `conn` (ends its stream).
    pub fn close(&mut self, conn: u64) {
        self.conns.close(conn);
    }
}

impl Drop for LoopEdge {
    fn drop(&mut self) {
        if let Host::Loop(door) = &self.conns.ctx.host {
            door.close();
        }
        self.conns.close_all();
    }
}

impl Conn {
    /// A socket a shard accepted, under the connection cap; `None`, the
    /// socket closed, when over the cap (counted) or its peer is gone.
    fn accept(ctx: &Ctx, stream: TcpStream) -> Option<Conn> {
        let Some(slot) = Slot::take(&ctx.stats, |s| &s.open_conns, ctx.opts.max_conns) else {
            // Over the cap: closed at once. Cheaper and clearer to the
            // client than letting the fd table fill and accept() fail.
            ctx.stats.conns_rejected.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let _ = stream.set_nodelay(true);
        let peer = stream.peer_addr().ok()?;
        stream.set_nonblocking(true).ok()?;
        ctx.stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
        Some(Conn {
            stream,
            _slot: slot,
            peer: peer.to_string(),
            ip: peer.ip(),
            buf_in: Vec::new(),
            buf_out: Vec::new(),
            out_pos: 0,
            phase: Phase::Ready,
            ask: None,
            close_after_write: false,
            dead: false,
            interest_out: false,
            last_activity: ctx.now,
            header_started: None,
            write_stalled_since: None,
        })
    }

    /// The request this connection waits on, taken out (the connection
    /// goes `Ready`) if its deadline has passed by `now`.
    fn overdue(&mut self, now: Instant) -> Option<Pending> {
        match std::mem::replace(&mut self.phase, Phase::Ready) {
            Phase::Await(p) if now >= p.deadline => Some(p),
            phase => {
                self.phase = phase;
                None
            }
        }
    }

    /// One read at `now`, appended to the input buffer; what it leaves
    /// keeps the connection ready for its host's next turn.
    fn fill(&mut self, now: Instant) {
        let mut chunk = [0u8; READ_CHUNK];
        match self.stream.read(&mut chunk) {
            Ok(0) => self.dead = true,
            Ok(n) => {
                self.last_activity = now;
                match self.phase {
                    // Mid-stream client bytes on an SSE connection carry
                    // no meaning; discard instead of buffering.
                    Phase::Sse(_) => {}
                    _ => self.buf_in.extend_from_slice(&chunk[..n]),
                }
                self.dead |= self.buf_in.len() > IN_BUF_CAP;
            }
            Err(e) => {
                self.dead = !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
            }
        }
    }

    /// Writes buffered output at `now` until `WouldBlock` or drained.
    fn flush(&mut self, now: Instant) {
        while self.out_pos < self.buf_out.len() {
            match self.stream.write(&self.buf_out[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.out_pos += n;
                    self.write_stalled_since = None;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.write_stalled_since.get_or_insert(now);
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.out_pos >= self.buf_out.len() {
            self.buf_out.clear();
            self.out_pos = 0;
            self.write_stalled_since = None;
            if self.close_after_write {
                self.dead = true;
            }
        } else if self.buf_out.len() - self.out_pos > OUT_BUF_CAP {
            // Slow consumer: the peer reads slower than we produce
            // (an SSE stream, usually). Cut it loose.
            self.dead = true;
        }
    }
}

/// Writes `response` as the one answer to `req`, flushes what the socket
/// takes now, and accounts it: an error status counts in `errors`, and
/// [`account`] logs the body bytes written — none to a `HEAD`. Every
/// one-shot answer the gateway gives leaves through here.
fn answer(ctx: &Ctx, conn: &mut Conn, req: &Req, response: HttpResponse, keep_alive: bool) {
    if response.status >= 400 {
        ctx.stats.errors.fetch_add(1, Ordering::Relaxed);
    }
    // Vec writes cannot fail.
    let bytes = if req.head_only {
        let _ = response.write_head_to(&mut conn.buf_out, keep_alive);
        0
    } else {
        let _ = response.write_to(&mut conn.buf_out, keep_alive);
        response.body.len()
    };
    if !keep_alive {
        conn.close_after_write = true;
    }
    conn.flush(ctx.now);
    account(ctx, conn, req, response.status, bytes);
}

/// Times a finished request into its class's histogram and, when a sink
/// is configured, writes its access-log line. [`answer`] calls it for
/// every one-shot; `Conns::close` for a stream, at its end.
fn account(ctx: &Ctx, conn: &Conn, req: &Req, status: u16, bytes: usize) {
    let duration_us = u64::try_from(req.started.elapsed().as_micros()).unwrap_or(u64::MAX);
    ctx.stats.latency.of(req.class).observe(duration_us);
    if let Some(sink) = &ctx.opts.access_log {
        let ts_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let (method, path) = (&req.method, &req.path);
        let line = access_log_line(ts_ms, method, path, status, duration_us, bytes, &conn.peer);
        sink(&line);
    }
}

/// Parses as many complete pipelined requests as the buffer holds (and
/// the state machine allows) and dispatches them.
fn advance(ctx: &Ctx, conn: &mut Conn) {
    loop {
        if conn.dead || conn.close_after_write || !matches!(conn.phase, Phase::Ready) {
            return;
        }
        match parse_request(&conn.buf_in) {
            ParseStep::Incomplete => {
                let started = conn.header_started.unwrap_or(ctx.now);
                conn.header_started = (!conn.buf_in.is_empty()).then_some(started);
                return;
            }
            ParseStep::Reject { status, msg } => {
                // The body boundary is unknowable: answer and close.
                let req = Req::unparsed(&conn.buf_in, ctx.now);
                conn.buf_in.clear();
                conn.header_started = None;
                return answer(ctx, conn, &req, HttpResponse::error(status, msg), false);
            }
            ParseStep::Done { req, consumed } => {
                conn.buf_in.drain(..consumed);
                conn.header_started = None;
                handle_request(ctx, conn, *req);
            }
        }
    }
}

/// Routes one parsed request through the middleware, outside in, one
/// step a line. Panic isolation wraps the whole call (`Conns::on_conn`);
/// then the rate limit; then the answers the host gives itself (OPTIONS,
/// routing errors, the stream cap, cache hits); then the request goes to
/// the daemon (`Conns::finalize`) under the request deadline, enforced
/// by `Conns::sweep_if_due` and [`respond`]. Each answer is [`answer`]ed,
/// which counts, times and logs it.
fn handle_request(ctx: &Ctx, conn: &mut Conn, http: HttpRequest) {
    let started = ctx.now;
    let routed = if !ctx.admit(conn.ip) {
        Err(HttpResponse::error(429, "rate limit exceeded"))
    } else if http.method == "OPTIONS" {
        Err(HttpResponse::text(200, "text/plain; charset=utf-8", "").with_allow(ALLOWED_METHODS))
    } else {
        route(&http)
    };
    let mut req = Req::new(http, started);
    let gw_req = match routed {
        Ok(gw_req) => gw_req,
        Err(response) => return answer(ctx, conn, &req, response, req.keep_alive),
    };
    req.class = Endpoint::of(&gw_req);
    let watch = matches!(gw_req, GwRequest::Watch { .. });
    let slot = match watch {
        true => Slot::take(&ctx.stats, |s| &s.open_streams, ctx.opts.max_sse_streams),
        false => None,
    };
    if watch && slot.is_none() {
        let response = HttpResponse::error(503, "too many watch streams");
        return answer(ctx, conn, &req, response, false);
    }
    ctx.stats.requests[req.class as usize].fetch_add(1, Ordering::Relaxed);
    // The materialized-view fast path: a fresh standing result answers
    // right here — the daemon is never asked, which is what keeps hits
    // sub-millisecond.
    if let (GwRequest::Query { q }, Some(cache)) = (&gw_req, &ctx.opts.cache) {
        if let Some((result, complete)) = cache.lookup(q, started) {
            let response =
                HttpResponse::json(200, answer_body(&result, complete)).with_cache("hit");
            return answer(ctx, conn, &req, response, req.keep_alive);
        }
    }
    conn.ask = Some(gw_req);
    let deadline = started + ctx.opts.request_timeout;
    conn.phase = Phase::Await(Pending {
        deadline,
        req,
        slot,
    });
}

/// Answers 408 for a request whose deadline passed (middleware: the
/// per-request deadline). The connection closes — a late daemon reply
/// for it can no longer be correlated by the client.
fn time_out(ctx: &Ctx, conn: &mut Conn, pending: Pending) {
    ctx.stats.request_timeouts.fetch_add(1, Ordering::Relaxed);
    let response = HttpResponse::error(408, "daemon did not answer in time");
    answer(ctx, conn, &pending.finish(), response, false);
}

/// Applies one daemon reply to its connection.
fn respond(ctx: &Ctx, conn: &mut Conn, reply: GwReply) {
    match std::mem::replace(&mut conn.phase, Phase::Ready) {
        // The reply exists but missed its deadline: the middleware
        // answer is still 408, whether or not a sweep got to the
        // connection first.
        Phase::Await(p) if ctx.now >= p.deadline => time_out(ctx, conn, p),
        Phase::Await(p) if p.slot.is_none() => {
            let req = p.finish();
            answer(ctx, conn, &req, render_reply(reply), req.keep_alive);
            // Pipelined requests may be waiting behind the reply.
            advance(ctx, conn);
        }
        Phase::Await(p) => {
            if let GwReply::Error { status, msg } = reply {
                let response = HttpResponse::error(status, &msg);
                return answer(ctx, conn, &p.finish(), response, false);
            }
            // Stream opens: SSE headers, then the first frame.
            conn.buf_out.extend_from_slice(
                b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                  Cache-Control: no-cache\r\nConnection: close\r\n\r\n",
            );
            conn.phase = Phase::Sse(p);
            sse_forward(ctx, conn, reply);
            conn.flush(ctx.now);
        }
        Phase::Sse(p) => {
            conn.phase = Phase::Sse(p);
            sse_forward(ctx, conn, reply);
            conn.flush(ctx.now);
        }
        // Nothing asked: a stray reply has no request to answer.
        Phase::Ready => {}
    }
}

/// Renders one streaming reply into the SSE connection's output buffer.
fn sse_forward(ctx: &Ctx, conn: &mut Conn, reply: GwReply) {
    match reply {
        GwReply::Update {
            result,
            initial,
            complete,
        } => {
            ctx.stats.sse_frames.fetch_add(1, Ordering::Relaxed);
            conn.buf_out
                .extend_from_slice(sse_frame(&result, initial, complete).as_bytes());
        }
        GwReply::Keepalive => {
            conn.buf_out.extend_from_slice(b": keepalive\n\n");
        }
        GwReply::Error { msg, .. } => {
            conn.buf_out.extend_from_slice(
                format!("event: error\ndata: {}\n\n", json::escape(&msg)).as_bytes(),
            );
            conn.close_after_write = true;
        }
        // One-shot replies cannot appear mid-stream.
        _ => {}
    }
}
