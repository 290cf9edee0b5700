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
//! Middleware rides the same state machine: per-IP token buckets answer
//! 429 before routing, per-request deadlines answer 408 (checked both
//! by the periodic sweep and when a late reply lands), and every
//! connection event runs inside `catch_unwind` so one poisoned request
//! kills its connection, not the daemon.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::epoll::{Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::http::{parse_request, HttpResponse, ParseStep};
use crate::server::{
    endpoint_class, finish_request, render_reply, route, sse_frame, GatewayHandle, GatewayOpts,
    GatewayStats, GwJob, GwReply, GwRequest, JobSink, ReplySink,
};

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

/// Bookkeeping for a request handed to the daemon.
struct Pending {
    gen: u64,
    class: &'static str,
    method: String,
    path: String,
    started: Instant,
    deadline: Instant,
    head_only: bool,
    keep_alive: bool,
}

/// How a request reads in the latency histograms and the access log.
struct Logged<'a> {
    class: &'static str,
    method: &'a str,
    path: &'a str,
    started: Instant,
}

impl Logged<'_> {
    /// A request that never parsed as far as a method and a path.
    const fn unparsed(started: Instant) -> Logged<'static> {
        let (class, method, path) = ("other", "-", "-");
        Logged {
            class,
            method,
            path,
            started,
        }
    }

    /// Accounts the request as over: answered `status`, `bytes` of body.
    fn finish(&self, ctx: &Ctx, conn: &Conn, status: u16, bytes: usize) {
        let &Logged {
            class,
            method,
            path,
            started: t0,
        } = self;
        let (stats, log, peer) = (&ctx.stats, &ctx.opts.access_log, &conn.peer);
        finish_request(stats, log, class, method, path, status, t0, bytes, peer);
    }
}

impl Pending {
    fn logged(&self) -> Logged<'_> {
        let (method, path) = (&*self.method, &*self.path);
        Logged {
            class: self.class,
            method,
            path,
            started: self.started,
        }
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
    limiter: Option<Arc<crate::middleware::TokenBuckets>>,
    opts: GatewayOpts,
}

struct Shard {
    epoll: Epoll,
    incoming: Arc<Mutex<Vec<TcpStream>>>,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    stop: Arc<AtomicBool>,
    ctx: Ctx,
}

/// Boots the acceptor and shard threads on `listener`; parsed requests
/// are handed to `jobs` (the daemon's event loop).
///
/// # Panics
///
/// Panics if the listener address cannot be read, `epoll`/`eventfd`
/// creation fails, or threads cannot spawn — all boot-time process
/// failures.
pub(crate) fn spawn_reactor(
    listener: TcpListener,
    jobs: JobSink,
    opts: GatewayOpts,
) -> GatewayHandle {
    let addr = listener.local_addr().expect("gateway listener addr");
    let stats = Arc::new(GatewayStats::default());
    let stop = Arc::new(AtomicBool::new(false));
    let shard_count = if opts.shards > 0 {
        opts.shards
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    };
    let limiter = (opts.rate_limit > 0.0).then(|| {
        let burst = if opts.rate_burst > 0.0 {
            opts.rate_burst
        } else {
            (opts.rate_limit * 2.0).max(1.0)
        };
        Arc::new(crate::middleware::TokenBuckets::new(opts.rate_limit, burst))
    });

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
            match &conn.phase {
                Phase::Await(p) | Phase::SseAwait(p) => {
                    if now >= p.deadline {
                        timeout_pending(&self.ctx, conn);
                    }
                }
                Phase::Ready if !conn.close_after_write => {
                    if let Some(t0) = conn.header_started {
                        if now.saturating_duration_since(t0) > self.ctx.opts.header_timeout {
                            // Slowloris: answer 408 and close. The
                            // shard never blocked on these bytes; the
                            // timeout just reclaims the fd.
                            conn.header_started = None;
                            let response = HttpResponse::error(408, "header timeout");
                            respond(&self.ctx, conn, response, false, false);
                            Logged::unparsed(t0).finish(&self.ctx, conn, 408, 0);
                        }
                    } else if conn.buf_out.is_empty()
                        && now.saturating_duration_since(conn.last_activity)
                            > self.ctx.opts.idle_timeout
                    {
                        conn.dead = true;
                    }
                }
                Phase::Ready | Phase::Sse(_) => {}
            }
            if let Some(t0) = conn.write_stalled_since {
                if now.saturating_duration_since(t0) > WRITE_STALL_TIMEOUT {
                    conn.dead = true;
                }
            }
            self.finalize(id);
        }
    }

    /// Tears one connection down: SSE slot release, stream-lifetime
    /// accounting, the closed flag for daemon-held sinks.
    fn close(&mut self, id: u64) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        conn.closed.store(true, Ordering::Release);
        self.ctx.stats.open_conns.fetch_sub(1, Ordering::SeqCst);
        match &conn.phase {
            Phase::Sse(stream) => {
                self.ctx.stats.open_streams.fetch_sub(1, Ordering::SeqCst);
                // One access-log line per stream, at stream end, the
                // duration spanning its whole life.
                stream.logged().finish(&self.ctx, &conn, 200, 0);
            }
            Phase::SseAwait(_) => {
                self.ctx.stats.open_streams.fetch_sub(1, Ordering::SeqCst);
            }
            _ => {}
        }
        // `conn.stream` drops here: the fd closes and leaves the set.
    }
}

impl Conn {
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

/// Queues a rendered response on the connection and flushes what the
/// socket will take now.
fn respond(ctx: &Ctx, conn: &mut Conn, response: HttpResponse, keep_alive: bool, head_only: bool) {
    if response.status >= 400 {
        ctx.stats.errors.fetch_add(1, Ordering::Relaxed);
    }
    // Vec writes cannot fail.
    let _ = if head_only {
        response.write_head_to(&mut conn.buf_out, keep_alive)
    } else {
        response.write_to(&mut conn.buf_out, keep_alive)
    };
    if !keep_alive {
        conn.close_after_write = true;
    }
    conn.flush();
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
                conn.buf_in.clear();
                conn.header_started = None;
                respond(ctx, conn, HttpResponse::error(status, msg), false, false);
                Logged::unparsed(Instant::now()).finish(ctx, conn, status, 0);
                return;
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

/// Routes one parsed request: middleware first, then inline answers
/// (OPTIONS, cache hits, routing errors), then the daemon hand-off.
fn handle_request(ctx: &Ctx, conn: &mut Conn, req: crate::http::HttpRequest) {
    let started = Instant::now();
    let keep_alive = req.keep_alive;
    let head_only = req.method == "HEAD";
    let logged = |class| Logged {
        class,
        method: &req.method,
        path: &req.path,
        started,
    };

    // Test hook for panic isolation: a poisoned request must kill its
    // connection, not the shard or the daemon.
    if let Some(p) = &ctx.opts.panic_on_path {
        if *p == req.path {
            panic!("panic_on_path test hook: {p}");
        }
    }

    // Middleware: per-IP token bucket. Counted before routing so an
    // abusive client cannot buy a tree walk with a rejected request.
    if let Some(limiter) = &ctx.limiter {
        if !limiter.allow(conn.ip, started) {
            ctx.stats.rate_limited.fetch_add(1, Ordering::Relaxed);
            let response = HttpResponse::error(429, "rate limit exceeded");
            logged("other").finish(ctx, conn, response.status, response.body.len());
            return respond(ctx, conn, response, keep_alive, head_only);
        }
    }

    // OPTIONS is answered at this layer: it exists for probes and
    // CORS-less tooling, not the daemon.
    if req.method == "OPTIONS" {
        let response = HttpResponse::text(200, "text/plain; charset=utf-8", "")
            .with_allow(crate::server::ALLOWED_METHODS);
        logged("other").finish(ctx, conn, response.status, 0);
        return respond(ctx, conn, response, keep_alive, false);
    }

    let gw_req = match route(&req) {
        Ok(gw_req) => gw_req,
        Err(response) => {
            let bytes = if head_only { 0 } else { response.body.len() };
            logged("other").finish(ctx, conn, response.status, bytes);
            return respond(ctx, conn, response, keep_alive, head_only);
        }
    };
    let class = endpoint_class(&gw_req);
    let watch = matches!(gw_req, GwRequest::Watch { .. });
    // Atomic slot reservation (increment-then-check): a burst of
    // simultaneous watch requests must not race past the cap.
    if watch && ctx.stats.open_streams.fetch_add(1, Ordering::SeqCst) >= ctx.opts.max_sse_streams {
        ctx.stats.open_streams.fetch_sub(1, Ordering::SeqCst);
        let response = HttpResponse::error(503, "too many watch streams");
        logged(class).finish(ctx, conn, response.status, response.body.len());
        return respond(ctx, conn, response, false, false);
    }
    let counter = match &gw_req {
        GwRequest::Watch { .. } => &ctx.stats.watches_opened,
        GwRequest::Query { .. } => &ctx.stats.queries,
        GwRequest::SetAttrs { .. } => &ctx.stats.attr_sets,
        GwRequest::Metrics
        | GwRequest::ClusterMetrics
        | GwRequest::History { .. }
        | GwRequest::ClusterHistory { .. } => &ctx.stats.scrapes,
        GwRequest::Health
        | GwRequest::ClusterHealth
        | GwRequest::Alerts
        | GwRequest::Events { .. } => &ctx.stats.health_checks,
        GwRequest::Traces { .. } | GwRequest::Trace { .. } => &ctx.stats.traces,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    // The materialized-view fast path: a fresh standing result answers
    // right here on the shard — the daemon's event loop is never
    // entered, which is what keeps hits sub-millisecond.
    let cached = match (&gw_req, &ctx.opts.cache) {
        (GwRequest::Query { q }, Some(c)) => c.lookup(q, started),
        _ => None,
    };
    if let Some((result, complete)) = cached {
        let response = HttpResponse::json(200, crate::server::answer_body(&result, complete))
            .with_cache("hit");
        let bytes = if head_only { 0 } else { response.body.len() };
        logged(class).finish(ctx, conn, response.status, bytes);
        return respond(ctx, conn, response, keep_alive, head_only);
    }
    if !hand_off(ctx, conn, gw_req) {
        if watch {
            ctx.stats.open_streams.fetch_sub(1, Ordering::SeqCst);
        }
        let response = HttpResponse::error(503, "daemon shut down");
        logged(class).finish(ctx, conn, response.status, response.body.len());
        return respond(ctx, conn, response, false, false);
    }
    // A stream is neither kept alive nor cut to its head.
    let pending = Pending {
        gen: conn.gen,
        class,
        method: req.method,
        path: req.path,
        started,
        deadline: started + ctx.opts.request_timeout,
        head_only: head_only && !watch,
        keep_alive: keep_alive && !watch,
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
fn timeout_pending(ctx: &Ctx, conn: &mut Conn) {
    let (Phase::Await(p) | Phase::SseAwait(p)) = &conn.phase else {
        return;
    };
    ctx.stats.request_timeouts.fetch_add(1, Ordering::Relaxed);
    let released_sse = matches!(conn.phase, Phase::SseAwait(_));
    let response = HttpResponse::error(408, "daemon did not answer in time");
    p.logged()
        .finish(ctx, conn, response.status, response.body.len());
    let head_only = p.head_only;
    conn.phase = Phase::Ready;
    if released_sse {
        ctx.stats.open_streams.fetch_sub(1, Ordering::SeqCst);
    }
    conn.closed.store(true, Ordering::Release);
    respond(ctx, conn, response, false, head_only);
}

/// Applies one mailbox message to its connection.
fn deliver(ctx: &Ctx, conn: &mut Conn, gen: u64, mail: Mail) {
    match mail {
        Mail::Reply(reply) => match &conn.phase {
            // The reply exists but missed its deadline: the middleware
            // answer is still 408, whether or not a sweep got to the
            // connection first.
            Phase::Await(p) | Phase::SseAwait(p)
                if p.gen == gen && Instant::now() >= p.deadline =>
            {
                timeout_pending(ctx, conn);
            }
            Phase::Await(p) if p.gen == gen => {
                let response = render_reply(reply);
                let (keep_alive, head_only) = (p.keep_alive, p.head_only);
                let bytes = if head_only { 0 } else { response.body.len() };
                p.logged().finish(ctx, conn, response.status, bytes);
                conn.phase = Phase::Ready;
                respond(ctx, conn, response, keep_alive, head_only);
                // Pipelined requests may be waiting behind the reply.
                advance(ctx, conn);
            }
            Phase::SseAwait(p) if p.gen == gen => {
                if let GwReply::Error { status, msg } = reply {
                    let response = HttpResponse::error(status, &msg);
                    p.logged()
                        .finish(ctx, conn, response.status, response.body.len());
                    conn.phase = Phase::Ready;
                    ctx.stats.open_streams.fetch_sub(1, Ordering::SeqCst);
                    conn.closed.store(true, Ordering::Release);
                    return respond(ctx, conn, response, false, false);
                }
                // Stream opens: SSE headers, then the first frame.
                conn.buf_out.extend_from_slice(
                    b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                      Cache-Control: no-cache\r\nConnection: close\r\n\r\n",
                );
                if let Phase::SseAwait(p) = std::mem::replace(&mut conn.phase, Phase::Ready) {
                    conn.phase = Phase::Sse(p);
                }
                sse_forward(ctx, conn, reply);
                conn.flush();
            }
            Phase::Sse(_) if gen == conn.gen => {
                sse_forward(ctx, conn, reply);
                conn.flush();
            }
            // Stale: a reply for a request that already timed out or a
            // connection that moved on.
            _ => {}
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
                format!("event: error\ndata: {}\n\n", crate::json::escape(&msg)).as_bytes(),
            );
            conn.close_after_write = true;
        }
        // One-shot replies cannot appear mid-stream.
        _ => {}
    }
}
