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
//! * the **acceptor** thread blocks in `accept()`, applies the
//!   connection cap, and round-robins sockets to shards;
//! * **shards** block only in `epoll_wait` (bounded by the sweep
//!   interval) and answer what needs no daemon: cache hits, OPTIONS,
//!   routing errors, 429s, the stream cap, the 503 for a daemon that is
//!   gone. The first request that needs the daemon moves its whole
//!   connection through a `Door` to the event loop, once;
//! * the **event loop** hosts the connections that moved in a
//!   [`LoopEdge`], whose `epoll` fd sits in the loop's one wait, and
//!   reads, parses, answers and writes them itself: no request crosses a
//!   thread.
//!
//! Both hosts drive one state machine (`Conns`): the parse loop, the
//! middleware in `handle_request`'s order, the 408 deadline, the idle,
//! slowloris and write-stall sweeps, SSE framing. They differ in what
//! becomes of a request for the daemon (`Conns::finalize`). Every
//! one-shot answer leaves through `answer`, which counts, times and
//! access-logs it.

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
use crate::epoll::{Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::histogram::Histogram;
use crate::http::{parse_request, HttpRequest, HttpResponse, ParseStep};
use crate::json;
use crate::middleware::TokenBuckets;

/// The epoll data value reserved for a shard's wake eventfd (connection
/// ids start at 1).
const WAKE_TOKEN: u64 = 0;

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
const OUT_BUF_CAP: usize = 1024 * 1024;

/// How long a connection with pending output may make zero write
/// progress before it is closed.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(10);

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
    /// shards increment at each hand-over, the daemon decrements as it
    /// adopts). The health plane's event-loop backpressure signal.
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

/// What makes a door's host look: the daemon's loop wake, or a shard's
/// eventfd.
pub type Wake = Arc<dyn Fn() + Send + Sync>;

/// Connections moving into a host, plus its wake: from the acceptor to a
/// shard, from a shard to the event loop. Closed once its host is gone.
pub(crate) struct Door {
    /// `None` once closed.
    queue: Mutex<Option<Vec<Conn>>>,
    wake: Wake,
}

impl Door {
    fn new(wake: Wake) -> Arc<Door> {
        let queue = Mutex::new(Some(Vec::new()));
        Arc::new(Door { queue, wake })
    }

    /// Enqueues what `conn` makes and wakes the host; false, `conn` never
    /// called, when closed (one step, so nothing is left behind a door).
    fn enter(&self, conn: impl FnOnce() -> Conn) -> bool {
        let mut queue = self.queue.lock().unwrap();
        let Some(waiting) = queue.as_mut() else {
            return false;
        };
        waiting.push(conn());
        drop(queue);
        self.wake();
        true
    }

    pub(crate) fn wake(&self) {
        (self.wake)();
    }

    /// Everything waiting, oldest first.
    fn take(&self) -> Vec<Conn> {
        let mut queue = self.queue.lock().unwrap();
        queue.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Closes the door; returns what was still waiting.
    fn close(&self) -> Vec<Conn> {
        self.queue.lock().unwrap().take().unwrap_or_default()
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

/// One SSE stream's hold on `max_sse_streams`: taken when a watch routes,
/// given back when it drops, however the stream ends.
struct StreamSlot(Arc<GatewayStats>);

impl StreamSlot {
    /// A slot, or `None` at the cap. Increment-then-check, so a burst of
    /// simultaneous watches cannot race past the cap.
    fn take(stats: &Arc<GatewayStats>, cap: i64) -> Option<StreamSlot> {
        let slot = StreamSlot(Arc::clone(stats));
        (stats.open_streams.fetch_add(1, Ordering::SeqCst) < cap).then_some(slot)
    }
}

impl Drop for StreamSlot {
    fn drop(&mut self) {
        self.0.open_streams.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A request with the daemon.
struct Pending {
    deadline: Instant,
    req: Req,
    /// A watch's stream slot.
    slot: Option<StreamSlot>,
}

impl Pending {
    /// The request, its stream slot (if any) given back.
    fn finish(self) -> Req {
        drop(self.slot);
        self.req
    }
}

/// One connection, on a shard or — once a request of its needed the
/// daemon — on the event loop, where all of it moves.
pub(crate) struct Conn {
    stream: TcpStream,
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

/// What the connection helpers share on one host (split from the
/// connection map so they can borrow a `Conn` mutably alongside it).
struct Ctx {
    stats: Arc<GatewayStats>,
    limiter: Option<Arc<TokenBuckets>>,
    opts: GatewayOpts,
    /// A shard's way to the event loop; `None` on the loop itself.
    to_loop: Option<Arc<Door>>,
}

impl Ctx {
    /// The rate-limit step: false, and counted, when `ip` has no token.
    fn admit(&self, ip: IpAddr, now: Instant) -> bool {
        let admitted = self.limiter.as_ref().is_none_or(|l| l.allow(ip, now));
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
    inbox: Arc<Door>,
    /// On the loop: requests for the daemon, oldest first, by connection.
    asks: Vec<(u64, GwRequest)>,
}

impl Conns {
    fn new(ctx: Ctx, wake: Wake) -> Conns {
        Conns {
            epoll: Epoll::new(),
            map: HashMap::new(),
            next_id: WAKE_TOKEN + 1,
            next_sweep: Instant::now() + SWEEP_EVERY,
            ctx,
            inbox: Door::new(wake),
            asks: Vec::new(),
        }
    }

    /// One turn: waits up to `timeout`, adopts what is at the door, reads
    /// each ready connection once and handles the requests that read
    /// completes, sweeps when due. Returns how many it adopted.
    fn turn(&mut self, events: &mut [EpollEvent], timeout: Duration) -> usize {
        let ready = self.epoll.wait(events, timeout);
        let moved = self.inbox.take();
        let adopted = moved.len();
        for conn in moved {
            self.adopt(conn);
        }
        for ev in ready.iter().filter(|ev| ev.data != WAKE_TOKEN) {
            self.conn_event(ev.data, ev.events);
        }
        self.sweep_if_due();
        adopted
    }

    /// Registers `conn` in this host's set (a refused one is closed).
    fn adopt(&mut self, mut conn: Conn) {
        let (id, fd) = (self.next_id, conn.stream.as_raw_fd());
        self.next_id += 1;
        // In for input; `finalize` adds output if some waits.
        conn.interest_out = false;
        if self.epoll.add(fd, EPOLLIN | EPOLLRDHUP, id).is_err() {
            // Dropped: a connection nobody would hear from.
            self.ctx.stats.open_conns.fetch_sub(1, Ordering::SeqCst);
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
                conn.flush();
            }
            if !conn.dead && bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0 {
                conn.fill();
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
            match self.ctx.to_loop.clone() {
                Some(door) => return self.hand_over(id, req, &door),
                None => self.asks.push((id, req)),
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
        let stats = &self.ctx.stats;
        let moved = door.enter(|| {
            let mut conn = map.remove(&id).expect("a connection being finalized");
            // It leaves this set, not the process.
            let _ = epoll.delete(conn.stream.as_raw_fd());
            conn.ask = Some(req);
            stats.queued_jobs.fetch_add(1, Ordering::Relaxed);
            stats.handovers.fetch_add(1, Ordering::Relaxed);
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

    /// How long the host may wait before the next sweep is due.
    fn until_sweep(&self) -> Duration {
        self.next_sweep.saturating_duration_since(Instant::now())
    }

    /// The periodic scan, when due: idle keep-alive closes, slowloris
    /// header timeouts, per-request deadlines, stalled writes.
    fn sweep_if_due(&mut self) {
        let now = Instant::now();
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
                if now.saturating_duration_since(t0) > WRITE_STALL_TIMEOUT {
                    conn.dead = true;
                }
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
        self.ctx.stats.open_conns.fetch_sub(1, Ordering::SeqCst);
        // The phase goes first, and with it any stream slot. A stream
        // has one access-log line, at its end, timed over its whole life.
        if let Phase::Sse(stream) = std::mem::replace(&mut conn.phase, Phase::Ready) {
            account(&self.ctx, &conn, &stream.finish(), 200, 0);
        }
        // `conn.stream` drops here: the fd closes and leaves the set.
    }

    fn close_all(&mut self) {
        let ids: Vec<u64> = self.map.keys().copied().collect();
        for id in ids {
            self.close(id);
        }
    }
}

/// Spawns the gateway's acceptor and reactor shards (one a core, at most
/// eight) on `listener`; returns the handle and the event loop's side,
/// the [`LoopEdge`]. A shard calls `wake` after each hand-over.
///
/// # Panics
///
/// Panics if the listener address cannot be read, `epoll`/`eventfd`
/// creation fails, or threads cannot spawn — all boot-time process
/// failures.
pub fn spawn_gateway_opts(
    listener: TcpListener,
    wake: Wake,
    opts: GatewayOpts,
) -> (GatewayHandle, LoopEdge) {
    let addr = listener.local_addr().expect("gateway listener addr");
    let stats = Arc::new(GatewayStats::default());
    let stop = Arc::new(AtomicBool::new(false));
    let shard_count = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    let limiter = (opts.rate_limit > 0.0)
        .then(|| Arc::new(TokenBuckets::new(opts.rate_limit, opts.rate_limit * 2.0)));
    let ctx = |to_loop| Ctx {
        stats: Arc::clone(&stats),
        limiter: limiter.clone(),
        opts: opts.clone(),
        to_loop,
    };
    let edge = LoopEdge {
        conns: Conns::new(ctx(None), wake),
    };

    let mut inboxes = Vec::with_capacity(shard_count);
    for i in 0..shard_count {
        let (fd, to_loop) = (Arc::new(WakeFd::new()), Arc::clone(&edge.conns.inbox));
        let wake = Arc::clone(&fd);
        let mut conns = Conns::new(ctx(Some(to_loop)), Arc::new(move || wake.wake()));
        fd.register(&conns.epoll, WAKE_TOKEN);
        inboxes.push(Arc::clone(&conns.inbox));
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name(format!("moara-gw-shard-{i}"))
            .spawn(move || {
                let mut events = vec![EpollEvent::default(); 512];
                while !stop.load(Ordering::SeqCst) {
                    let timeout = conns.until_sweep().max(Duration::from_millis(1));
                    conns.turn(&mut events, timeout);
                }
                // Stopping: the sockets close.
                conns.close_all();
            })
            .expect("spawn gateway shard");
    }

    {
        let stop = Arc::clone(&stop);
        let stats = Arc::clone(&stats);
        let inboxes = inboxes.clone();
        let max_conns = opts.max_conns;
        std::thread::Builder::new()
            .name("moara-gw-accept".into())
            .spawn(move || {
                let mut next = 0usize;
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    if stats.open_conns.load(Ordering::SeqCst) >= max_conns {
                        // Over the cap: close immediately. Cheaper and
                        // clearer to the client than letting the fd
                        // table fill and accept() start failing.
                        stats.conns_rejected.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    // Dropped: a connection nobody would hear from.
                    let Some(conn) = Conn::new(stream) else {
                        continue;
                    };
                    stats.open_conns.fetch_add(1, Ordering::SeqCst);
                    stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
                    // A shard's inbox never closes.
                    inboxes[next].enter(|| conn);
                    next = (next + 1) % inboxes.len();
                }
                // Wake every shard so it observes the stop flag.
                for inbox in &inboxes {
                    inbox.wake();
                }
            })
            .expect("spawn gateway acceptor");
    }

    let handle = GatewayHandle {
        addr,
        stats,
        stop,
        inboxes,
    };
    (handle, edge)
}

/// The event loop's side of the gateway: the connections that moved off
/// the shards, in an `epoll` set whose fd ([`LoopEdge::fd`]) joins the
/// loop's one wait. Only the loop's thread touches them. Dropping it
/// closes the door (later hand-overs get 503) and every connection here.
pub struct LoopEdge {
    conns: Conns,
}

impl LoopEdge {
    /// The set's fd: readable while a connection here is ready.
    pub fn fd(&self) -> RawFd {
        self.conns.epoll.as_raw_fd()
    }

    /// One turn of the loop's connections, never blocking; hands each
    /// request for the daemon to `serve`, under its connection's panic
    /// isolation. Returns how many connections it adopted.
    pub fn pump(&mut self, mut serve: impl FnMut(u64, GwRequest)) -> usize {
        let mut events = [EpollEvent::default(); 64];
        let adopted = self.conns.turn(&mut events, Duration::ZERO);
        for (id, req) in std::mem::take(&mut self.conns.asks) {
            self.conns.on_conn(id, |_, _| serve(id, req));
        }
        adopted
    }

    /// How long the loop may block before this edge needs a turn: none
    /// when a reply let a pipelined request through, else until the next
    /// sweep while it hosts connections.
    pub fn wait_bound(&self) -> Option<Duration> {
        if !self.conns.asks.is_empty() {
            return Some(Duration::ZERO);
        }
        (!self.conns.map.is_empty()).then(|| self.conns.until_sweep())
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
        for conn in self.conns.inbox.close() {
            self.conns.adopt(conn);
        }
        self.conns.close_all();
    }
}

impl Conn {
    /// A fresh connection; `None` when its peer is already gone.
    fn new(stream: TcpStream) -> Option<Conn> {
        let peer = stream.peer_addr().ok()?;
        stream.set_nonblocking(true).ok()?;
        Some(Conn {
            stream,
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
            last_activity: Instant::now(),
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

    /// One read, appended to the input buffer; what it leaves keeps the
    /// connection ready for its host's next turn.
    fn fill(&mut self) {
        let mut chunk = [0u8; READ_CHUNK];
        match self.stream.read(&mut chunk) {
            Ok(0) => self.dead = true,
            Ok(n) => {
                self.last_activity = Instant::now();
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

    /// Writes buffered output until `WouldBlock` or drained.
    fn flush(&mut self) {
        while self.out_pos < self.buf_out.len() {
            match self.stream.write(&self.buf_out[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.out_pos += n;
                    self.write_stalled_since = None;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.write_stalled_since.is_none() {
                        self.write_stalled_since = Some(Instant::now());
                    }
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
    conn.flush();
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
                conn.header_started = if conn.buf_in.is_empty() {
                    None
                } else if conn.header_started.is_none() {
                    Some(Instant::now())
                } else {
                    conn.header_started
                };
                return;
            }
            ParseStep::Reject { status, msg } => {
                // The body boundary is unknowable: answer and close.
                let req = Req::unparsed(&conn.buf_in, Instant::now());
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
    let started = Instant::now();
    let routed = if !ctx.admit(conn.ip, started) {
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
        true => StreamSlot::take(&ctx.stats, ctx.opts.max_sse_streams),
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
        Phase::Await(p) if Instant::now() >= p.deadline => time_out(ctx, conn, p),
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
            conn.flush();
        }
        Phase::Sse(p) => {
            conn.phase = Phase::Sse(p);
            sse_forward(ctx, conn, reply);
            conn.flush();
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
