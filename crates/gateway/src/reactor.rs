//! The gateway's event-driven core: a sharded `epoll` readiness loop.
//!
//! The previous edge pinned one blocking worker thread per connection —
//! a 16-thread hard ceiling on concurrent keep-alive and SSE clients.
//! This module replaces it with reactors: every accepted socket is put
//! in nonblocking mode and registered with one of a few shard threads,
//! each running `epoll_wait` over thousands of connections and driving
//! a small per-connection state machine (incremental request parse →
//! route → await daemon reply → buffered response write → back to
//! parsing, or flip into an SSE stream). One daemon now holds tens of
//! thousands of open connections with a handful of threads.
//!
//! `epoll` and the wake `eventfd` come from `crate::epoll` — the one raw
//! syscall layer this edge shares with the peer transport's event loop.
//!
//! What blocks where:
//! * the **acceptor** thread blocks in `accept()`, applies the
//!   connection cap, and round-robins sockets to shards;
//! * **shards** never block except in `epoll_wait` (bounded by the
//!   sweep interval). Cache hits, OPTIONS, routing errors, 429s are
//!   answered inline on the shard; everything needing protocol state
//!   crosses the existing [`GwJob`] channel into the daemon's event
//!   loop, which posts replies back through a per-shard `Mailbox`
//!   whose eventfd wakes the shard immediately;
//! * the **daemon** is unchanged: single-threaded, sole owner of
//!   protocol state.
//!
//! Middleware rides the same state machine; `handle_request` applies it
//! in order. Every one-shot answer leaves through `answer`, which counts,
//! times and access-logs it.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::api::{
    answer_body, render_reply, route, sse_frame, GatewayHandle, GatewayOpts, GwJob, GwReply,
    GwRequest, JobSink, ReplySink, ALLOWED_METHODS,
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

/// Read chunk per readiness event.
const READ_CHUNK: usize = 16 * 1024;

/// Most buffered-but-unread input per connection (a full body plus
/// generous pipelining headroom) before the connection is dropped.
const IN_BUF_CAP: usize = crate::http::MAX_BODY + 64 * 1024;

/// Most unsent output buffered per connection before it is declared a
/// dead slow consumer (an SSE client that stopped reading must not
/// grow a frame queue without bound).
const OUT_BUF_CAP: usize = 1024 * 1024;

/// How long a connection with pending output may make zero write
/// progress before it is closed (the reactor's version of the old
/// worker-pool write timeout).
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
    /// Connections currently registered with a shard (gauge).
    pub open_conns: AtomicI64,
    /// SSE streams currently holding a slot (reserved at routing time,
    /// released when the stream ends — so mid-setup streams count, and
    /// the cap cannot be raced past).
    pub open_streams: AtomicI64,
    /// GwJobs handed to the daemon channel and not yet drained (gauge:
    /// shards increment at send, the daemon decrements per drained
    /// batch). The health plane's event-loop backpressure signal.
    pub queued_jobs: AtomicI64,
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
/// (no trailing newline). Must be cheap and non-blocking-ish: shards
/// call it inline.
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

/// One message from the daemon (or a dropped [`ReplySink`]) to a shard.
#[derive(Debug)]
pub(crate) enum Mail {
    /// A reply for connection `conn`'s request generation `gen`.
    Reply(GwReply),
    /// The daemon dropped the sink without a terminal reply — for an
    /// SSE stream this is the cancel signal (mirrors the old worker
    /// noticing its reply channel disconnect).
    Hangup,
}

/// A shard's inbound queue: the daemon's event loop posts replies here
/// and the eventfd wakes the shard out of `epoll_wait`, so reply
/// latency is syscall-bounded, not poll-interval-bounded.
#[derive(Debug)]
pub(crate) struct Mailbox {
    queue: Mutex<Vec<(u64, u64, Mail)>>,
    wake: WakeFd,
}

impl Mailbox {
    fn new() -> Arc<Mailbox> {
        Arc::new(Mailbox {
            queue: Mutex::new(Vec::new()),
            wake: WakeFd::new(),
        })
    }

    pub(crate) fn post(&self, conn: u64, gen: u64, mail: Mail) {
        self.queue.lock().unwrap().push((conn, gen, mail));
        self.wake.wake();
    }

    pub(crate) fn wake(&self) {
        self.wake.wake();
    }

    fn take(&self) -> Vec<(u64, u64, Mail)> {
        std::mem::take(&mut *self.queue.lock().unwrap())
    }
}

/// Where a connection's state machine currently is.
enum Phase {
    /// Parsing (or waiting for) the next request.
    Ready,
    /// A one-shot request is with the daemon.
    Await(Pending),
    /// A watch request is with the daemon; the first reply decides
    /// between SSE headers and an error status.
    SseAwait(Pending),
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

/// A request handed to the daemon.
struct Pending {
    gen: u64,
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

/// One connection owned by a shard.
struct Conn {
    /// This connection's key in the shard map — [`ReplySink`]s address
    /// mailbox posts with it.
    id: u64,
    stream: TcpStream,
    peer: String,
    ip: IpAddr,
    buf_in: Vec<u8>,
    buf_out: Vec<u8>,
    out_pos: usize,
    phase: Phase,
    /// Bumped per request handed to the daemon; a reply whose gen does
    /// not match the live request is stale (e.g. arrived after its 408)
    /// and is dropped.
    gen: u64,
    /// Shared with [`ReplySink`]s: once true, daemon sends fail, which
    /// is the hang-up signal that GCs watch subscriptions.
    closed: Arc<AtomicBool>,
    close_after_write: bool,
    dead: bool,
    interest_out: bool,
    last_activity: Instant,
    /// When the currently-buffered partial request head started
    /// arriving (drives the slowloris header timeout).
    header_started: Option<Instant>,
    /// When pending output last made zero progress.
    write_stalled_since: Option<Instant>,
}

/// Shard context shared by the connection-handling helpers (split from
/// the connection map so helpers can borrow a `Conn` mutably alongside
/// it).
struct Ctx {
    jobs: JobSink,
    stats: Arc<GatewayStats>,
    mailbox: Arc<Mailbox>,
    limiter: Option<Arc<TokenBuckets>>,
    opts: GatewayOpts,
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

struct Shard {
    epoll: Epoll,
    incoming: Arc<Mutex<Vec<TcpStream>>>,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    stop: Arc<AtomicBool>,
    ctx: Ctx,
}

/// Spawns the gateway's acceptor and reactor shards (one a core, at most
/// eight) on `listener`. Each parsed request goes to `jobs`; the daemon's
/// sink enqueues it and wakes the event loop.
///
/// # Panics
///
/// Panics if the listener address cannot be read, `epoll`/`eventfd`
/// creation fails, or threads cannot spawn — all boot-time process
/// failures.
pub fn spawn_gateway_opts(
    listener: TcpListener,
    jobs: JobSink,
    opts: GatewayOpts,
) -> GatewayHandle {
    let addr = listener.local_addr().expect("gateway listener addr");
    let stats = Arc::new(GatewayStats::default());
    let stop = Arc::new(AtomicBool::new(false));
    let shard_count = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    let limiter = (opts.rate_limit > 0.0)
        .then(|| Arc::new(TokenBuckets::new(opts.rate_limit, opts.rate_limit * 2.0)));

    let mut mailboxes = Vec::with_capacity(shard_count);
    let mut queues = Vec::with_capacity(shard_count);
    for i in 0..shard_count {
        let mailbox = Mailbox::new();
        let incoming: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let shard = Shard {
            epoll: Epoll::new(),
            incoming: Arc::clone(&incoming),
            conns: HashMap::new(),
            next_id: 1,
            stop: Arc::clone(&stop),
            ctx: Ctx {
                jobs: Arc::clone(&jobs),
                stats: Arc::clone(&stats),
                mailbox: Arc::clone(&mailbox),
                limiter: limiter.clone(),
                opts: opts.clone(),
            },
        };
        mailboxes.push(mailbox);
        queues.push(incoming);
        std::thread::Builder::new()
            .name(format!("moara-gw-shard-{i}"))
            .spawn(move || shard.run())
            .expect("spawn gateway shard");
    }

    {
        let stop = Arc::clone(&stop);
        let stats = Arc::clone(&stats);
        let mailboxes = mailboxes.clone();
        let queues = queues.clone();
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
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stats.open_conns.fetch_add(1, Ordering::SeqCst);
                    stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
                    queues[next].lock().unwrap().push(stream);
                    mailboxes[next].wake();
                    next = (next + 1) % queues.len();
                }
                // Wake every shard so it observes the stop flag.
                for m in &mailboxes {
                    m.wake();
                }
            })
            .expect("spawn gateway acceptor");
    }

    GatewayHandle {
        addr,
        stats,
        stop,
        wakes: mailboxes,
    }
}

impl Shard {
    fn run(mut self) {
        self.ctx.mailbox.wake.register(&self.epoll, WAKE_TOKEN);
        let mut events = vec![EpollEvent::default(); 512];
        let mut next_sweep = Instant::now() + SWEEP_EVERY;
        loop {
            let timeout = next_sweep
                .saturating_duration_since(Instant::now())
                .clamp(Duration::from_millis(1), SWEEP_EVERY);
            let ready = self.epoll.wait(&mut events, timeout);
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            for ev in ready {
                let (bits, id) = (ev.events, ev.data);
                if id == WAKE_TOKEN {
                    self.adopt_incoming();
                    self.drain_mailbox();
                    continue;
                }
                self.conn_event(id, bits);
            }
            if Instant::now() >= next_sweep {
                self.sweep();
                next_sweep = Instant::now() + SWEEP_EVERY;
            }
        }
        // Stopping: mark every connection closed so daemon-held sinks
        // fail their next send (watch subscriptions GC), then drop the
        // sockets.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close(id);
        }
    }

    /// Registers connections the acceptor handed over.
    fn adopt_incoming(&mut self) {
        let fresh = std::mem::take(&mut *self.incoming.lock().unwrap());
        for stream in fresh {
            let id = self.next_id;
            self.next_id += 1;
            let added = self.epoll.add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, id);
            let (Ok(peer_addr), Ok(())) = (stream.peer_addr(), added) else {
                // Dropped: a connection nobody would hear from.
                self.ctx.stats.open_conns.fetch_sub(1, Ordering::SeqCst);
                continue;
            };
            self.conns.insert(
                id,
                Conn {
                    id,
                    stream,
                    peer: peer_addr.to_string(),
                    ip: peer_addr.ip(),
                    buf_in: Vec::new(),
                    buf_out: Vec::new(),
                    out_pos: 0,
                    phase: Phase::Ready,
                    gen: 0,
                    closed: Arc::new(AtomicBool::new(false)),
                    close_after_write: false,
                    dead: false,
                    interest_out: false,
                    last_activity: Instant::now(),
                    header_started: None,
                    write_stalled_since: None,
                },
            );
        }
    }

    /// Runs `f` on connection `id` with panic isolation — a panic while
    /// parsing or handling kills this connection only — then the
    /// post-event bookkeeping.
    fn on_conn(&mut self, id: u64, f: impl FnOnce(&Ctx, &mut Conn)) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let ctx = &self.ctx;
        if std::panic::catch_unwind(AssertUnwindSafe(|| f(ctx, conn))).is_err() {
            self.ctx.stats.panics_caught.fetch_add(1, Ordering::Relaxed);
            if let Some(conn) = self.conns.get_mut(&id) {
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

    /// Post-event bookkeeping: closes dead connections, syncs EPOLLOUT
    /// interest with pending output.
    fn finalize(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.dead {
            self.close(id);
            return;
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

    /// Delivers daemon replies (and sink hang-ups) to their connections.
    fn drain_mailbox(&mut self) {
        for (id, gen, mail) in self.ctx.mailbox.take() {
            self.on_conn(id, |ctx, conn| deliver(ctx, conn, gen, mail));
        }
    }

    /// The periodic scan: idle keep-alive closes, slowloris header
    /// timeouts, per-request deadlines, stalled writes.
    fn sweep(&mut self) {
        let now = Instant::now();
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            if let Some(p) = conn.overdue(now) {
                time_out(&self.ctx, conn, p);
            } else if matches!(conn.phase, Phase::Ready) && !conn.close_after_write {
                if let Some(t0) = conn.header_started {
                    if now.saturating_duration_since(t0) > self.ctx.opts.header_timeout {
                        // Slowloris: answer 408 and close. The shard
                        // never blocked on these bytes; the timeout just
                        // reclaims the fd.
                        conn.header_started = None;
                        let req = Req::unparsed(&conn.buf_in, t0);
                        let response = HttpResponse::error(408, "header timeout");
                        answer(&self.ctx, conn, &req, response, false);
                    }
                } else if conn.buf_out.is_empty()
                    && now.saturating_duration_since(conn.last_activity)
                        > self.ctx.opts.idle_timeout
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

    /// Tears one connection down: the closed flag for daemon-held sinks,
    /// the stream slot, stream-lifetime accounting.
    fn close(&mut self, id: u64) {
        let Some(mut conn) = self.conns.remove(&id) else {
            return;
        };
        conn.closed.store(true, Ordering::Release);
        self.ctx.stats.open_conns.fetch_sub(1, Ordering::SeqCst);
        // The phase goes first, and with it any stream slot. A stream
        // has one access-log line, at its end, timed over its whole life.
        if let Phase::Sse(stream) = std::mem::replace(&mut conn.phase, Phase::Ready) {
            account(&self.ctx, &conn, &stream.finish(), 200, 0);
        }
        // `conn.stream` drops here: the fd closes and leaves the set.
    }
}

impl Conn {
    /// The request this connection waits on, taken out (the connection
    /// goes `Ready`) if its deadline has passed by `now`.
    fn overdue(&mut self, now: Instant) -> Option<Pending> {
        match std::mem::replace(&mut self.phase, Phase::Ready) {
            Phase::Await(p) | Phase::SseAwait(p) if now >= p.deadline => Some(p),
            phase => {
                self.phase = phase;
                None
            }
        }
    }

    /// Reads until `WouldBlock`, appending to the input buffer.
    fn fill(&mut self) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.last_activity = Instant::now();
                    match self.phase {
                        // Mid-stream client bytes on an SSE connection
                        // carry no meaning; discard instead of buffering.
                        Phase::Sse(_) => {}
                        _ => self.buf_in.extend_from_slice(&chunk[..n]),
                    }
                    if self.buf_in.len() > IN_BUF_CAP {
                        self.dead = true;
                        return;
                    }
                    if n < chunk.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
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
/// every one-shot; `Shard::close` for a stream, at its end.
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

/// Hands `req` to the daemon under a fresh request generation of
/// `conn`'s. False: the daemon is gone.
fn hand_off(ctx: &Ctx, conn: &mut Conn, req: GwRequest) -> bool {
    conn.gen += 1;
    let reply = ReplySink {
        mailbox: Arc::clone(&ctx.mailbox),
        conn: conn.id,
        gen: conn.gen,
        closed: Arc::clone(&conn.closed),
    };
    let sent = (ctx.jobs)(GwJob { req, reply }).is_ok();
    if sent {
        ctx.stats.queued_jobs.fetch_add(1, Ordering::Relaxed);
    }
    sent
}

/// Routes one parsed request through the middleware, outside in, one
/// step a line. Panic isolation wraps the whole call (`Shard::on_conn`);
/// then the rate limit; then the answers the shard gives itself
/// (OPTIONS, routing errors, the stream cap, cache hits); then the
/// hand-off to the daemon under the request deadline, enforced by
/// `Shard::sweep` and [`deliver`]. Each answer is [`answer`]ed, which
/// counts, times and logs it.
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
    // right here on the shard — the daemon's event loop is never
    // entered, which is what keeps hits sub-millisecond.
    if let (GwRequest::Query { q }, Some(cache)) = (&gw_req, &ctx.opts.cache) {
        if let Some((result, complete)) = cache.lookup(q, started) {
            let response =
                HttpResponse::json(200, answer_body(&result, complete)).with_cache("hit");
            return answer(ctx, conn, &req, response, req.keep_alive);
        }
    }
    if !hand_off(ctx, conn, gw_req) {
        let response = HttpResponse::error(503, "daemon shut down");
        return answer(ctx, conn, &req, response, false);
    }
    let pending = Pending {
        gen: conn.gen,
        deadline: started + ctx.opts.request_timeout,
        req,
        slot,
    };
    conn.phase = match watch {
        true => Phase::SseAwait(pending),
        false => Phase::Await(pending),
    };
}

/// Answers 408 for a request whose deadline passed (middleware: the
/// per-request deadline). The connection closes — a late daemon reply
/// for it can no longer be correlated by the client — and the closed
/// flag guarantees the daemon notices on its next send.
fn time_out(ctx: &Ctx, conn: &mut Conn, pending: Pending) {
    ctx.stats.request_timeouts.fetch_add(1, Ordering::Relaxed);
    conn.closed.store(true, Ordering::Release);
    let response = HttpResponse::error(408, "daemon did not answer in time");
    answer(ctx, conn, &pending.finish(), response, false);
}

/// Applies one mailbox message to its connection.
fn deliver(ctx: &Ctx, conn: &mut Conn, gen: u64, mail: Mail) {
    match mail {
        Mail::Reply(reply) => match std::mem::replace(&mut conn.phase, Phase::Ready) {
            // The reply exists but missed its deadline: the middleware
            // answer is still 408, whether or not a sweep got to the
            // connection first.
            Phase::Await(p) | Phase::SseAwait(p)
                if p.gen == gen && Instant::now() >= p.deadline =>
            {
                time_out(ctx, conn, p);
            }
            Phase::Await(p) if p.gen == gen => {
                let req = p.finish();
                answer(ctx, conn, &req, render_reply(reply), req.keep_alive);
                // Pipelined requests may be waiting behind the reply.
                advance(ctx, conn);
            }
            Phase::SseAwait(p) if p.gen == gen => {
                if let GwReply::Error { status, msg } = reply {
                    conn.closed.store(true, Ordering::Release);
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
            Phase::Sse(p) if gen == conn.gen => {
                conn.phase = Phase::Sse(p);
                sse_forward(ctx, conn, reply);
                conn.flush();
            }
            // Stale: a reply for a request that already timed out or a
            // connection that moved on.
            phase => conn.phase = phase,
        },
        Mail::Hangup => {
            // The daemon dropped the sink without a terminal reply —
            // subscription cancelled (or daemon shutting down). Only
            // meaningful for streams; one-shot sinks are dropped right
            // after their reply, which was already delivered above.
            if gen == conn.gen && matches!(conn.phase, Phase::Sse(_) | Phase::SseAwait(_)) {
                conn.dead = true;
            }
        }
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
