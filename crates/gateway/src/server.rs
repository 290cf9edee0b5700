//! The gateway's protocol surface: request/reply types, routing,
//! response rendering, stats, and the spawn entry point.
//!
//! Threading model (since the reactor rewrite): the acceptor thread
//! hands nonblocking sockets to a small set of `epoll` shard threads
//! (`reactor.rs`); each shard drives per-connection state machines that
//! parse HTTP incrementally, translate requests into [`GwRequest`]s,
//! and push [`GwJob`]s through an MPSC channel into the daemon's event
//! loop — protocol state is only ever touched by that single loop.
//! Replies come back through a per-shard mailbox (a queue plus an
//! `eventfd` wake), addressed by connection id and request generation;
//! `/v1/watch` flips its connection's state machine into a Server-Sent
//! Events stream that forwards [`GwReply::Update`] frames until either
//! side hangs up. Nothing in the HTTP path blocks, so one daemon holds
//! tens of thousands of keep-alive and SSE connections on a handful of
//! threads.
//!
//! Hang-up plumbing: every job carries a [`ReplySink`]. When the
//! connection closes, the sink's sends start failing, which the daemon
//! observes on its next update or keepalive probe and cancels the
//! standing subscription — peers GC the watch's in-network state
//! promptly. Symmetrically, when the *daemon* drops a sink without a
//! terminal reply (subscription cancelled, shutdown), the sink's `Drop`
//! posts a hang-up to the reactor and the SSE stream ends.
//!
//! Middleware on the reactor path: per-peer-IP token-bucket rate
//! limiting (429), a per-request deadline (408), and per-connection
//! panic isolation — see [`GatewayOpts`] and `docs/gateway.md`.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::cache::QueryCache;
use crate::histogram::Histogram;
use crate::http::{HttpRequest, HttpResponse};
use crate::json;
use crate::reactor::{Mail, Mailbox};

/// How a watch's updates surface to the SSE client (string-typed twin of
/// the subscription plane's `DeliveryPolicy`; the daemon converts).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WatchPolicy {
    /// Every change to the merged result (the default).
    OnChange,
    /// A snapshot every N milliseconds, changed or not (N must be
    /// positive; enforced at parse time).
    PeriodMs(u64),
    /// Threshold-crossing alerts around the value.
    Threshold(f64),
}

/// What the HTTP layer asks the daemon to do.
#[derive(Clone, Debug, PartialEq)]
pub enum GwRequest {
    /// `GET /v1/query?q=…` — run a composite query.
    Query {
        /// Query text (either syntax the parser accepts).
        q: String,
    },
    /// `POST /v1/attrs` — set local attributes. Values are raw strings;
    /// the daemon applies its `parse_value` typing rules.
    SetAttrs {
        /// Name/value pairs in body order.
        attrs: Vec<(String, String)>,
    },
    /// `GET /v1/watch?q=…` — install a standing query and stream deltas.
    Watch {
        /// Query text.
        q: String,
        /// Delivery policy.
        policy: WatchPolicy,
        /// Subscription lease in milliseconds (daemon-renewed while the
        /// socket stays open).
        lease_ms: u64,
    },
    /// `GET /metrics` — snapshot every subsystem into Prometheus text.
    Metrics,
    /// `GET /healthz` — prove the daemon event loop is serving.
    Health,
    /// `GET /v1/traces` — recent sampled traces on this daemon.
    Traces {
        /// Maximum summaries to return.
        limit: usize,
    },
    /// `GET /v1/trace/{id}` — one trace's span tree, merged across the
    /// cluster by the daemon (gathered over the peer plane, one 2 s
    /// deadline). The id stays a raw string here: the daemon owns
    /// trace-id parsing, and this crate stays dependency-free.
    Trace {
        /// Trace id as it appeared in the path (hex or decimal).
        id: String,
    },
    /// `GET /v1/cluster/health` — the answering daemon's merged member
    /// health table (self-sample plus digests gossiped on SWIM traffic).
    /// Served from local state; never blocks on peers.
    ClusterHealth,
    /// `GET /v1/cluster/metrics` — cluster-wide Prometheus exposition:
    /// the daemon fetches every alive peer's scrape over the peer plane
    /// and federates the texts under `instance` labels.
    ClusterMetrics,
    /// `GET /v1/alerts` — the alert rules currently firing on this
    /// daemon.
    Alerts,
    /// `GET /v1/history?metric=…&range=…` — one metric's series from
    /// this daemon's flight-recorder history rings.
    History {
        /// Health-sample metric name.
        metric: String,
        /// How far back, in seconds (picks the ring tier).
        range_s: u32,
    },
    /// `GET /v1/cluster/history?metric=…&range=…` — every reachable
    /// member's series for one metric, federated over the peer plane like
    /// `/v1/cluster/metrics`.
    ClusterHistory {
        /// Health-sample metric name.
        metric: String,
        /// How far back, in seconds.
        range_s: u32,
    },
    /// `GET /v1/events?kind=…&limit=…` — the newest entries of this
    /// daemon's structured event journal.
    Events {
        /// Only events of this kind; `None` returns every kind.
        kind: Option<String>,
        /// Maximum events to return (newest win).
        limit: usize,
    },
}

/// What the daemon answers.
#[derive(Clone, Debug, PartialEq)]
pub enum GwReply {
    /// Query finished.
    Answer {
        /// Rendered aggregate.
        result: String,
        /// False if some branch timed out or failed.
        complete: bool,
        /// `X-Moara-Cache` value (`miss` / `coalesced`); `None` when the
        /// result cache is disabled. (`hit` answers never round-trip to
        /// the daemon — the reactor serves them from [`QueryCache`]
        /// directly.)
        cache: Option<&'static str>,
    },
    /// Attributes applied.
    AttrsSet {
        /// How many pairs were set.
        count: usize,
    },
    /// Rendered `/metrics` exposition.
    Metrics {
        /// Prometheus text.
        text: String,
    },
    /// Liveness report.
    Health {
        /// This daemon's node id.
        node: u32,
        /// Members known (alive or dead).
        members: u32,
        /// Members believed alive.
        alive: u32,
    },
    /// One standing-query update (streamed; many per watch).
    Update {
        /// Rendered merged result.
        result: String,
        /// True for the watch's first update.
        initial: bool,
        /// False while some pinned tree has not reported yet.
        complete: bool,
    },
    /// Pre-rendered JSON (trace endpoints: the daemon builds the body).
    Json {
        /// The response body, already valid JSON.
        body: String,
    },
    /// Liveness probe for quiescent watch streams: rendered as an SSE
    /// comment, exists so a hung-up client is detected without a delta.
    Keepalive,
    /// Request failed (status is an HTTP code).
    Error {
        /// HTTP status to answer with.
        status: u16,
        /// Safe-to-echo description.
        msg: String,
    },
}

/// The receiving side of a [`ReplySink`] is gone: the connection was
/// closed. The caller should stop producing — for a watch, cancel the
/// subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkClosed;

impl std::fmt::Display for SinkClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("reply sink closed")
    }
}

impl std::error::Error for SinkClosed {}

/// Where gateway replies go: the owning reactor shard's mailbox,
/// addressed by connection id and request generation. The daemon holds
/// a sink for the life of a request (or, for watches, the life of the
/// subscription) and calls [`ReplySink::send`] once per reply.
///
/// Hang-up semantics, both directions:
/// * client gone → `send` returns `Err` (the reactor marked the
///   connection closed), which tells the daemon to cancel the watch;
/// * daemon gone → dropping the sink without a terminal reply posts a
///   hang-up to the reactor and the SSE stream ends.
///
/// Deliberately not `Clone`: the drop of *the* sink is a protocol
/// signal, and copies would fire it spuriously.
pub struct ReplySink {
    pub(crate) mailbox: Arc<Mailbox>,
    pub(crate) conn: u64,
    pub(crate) gen: u64,
    pub(crate) closed: Arc<AtomicBool>,
}

impl std::fmt::Debug for ReplySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ReplySink { conn, gen, .. } = self;
        write!(f, "ReplySink {{ conn: {conn}, gen: {gen} }}")
    }
}

impl ReplySink {
    /// Delivers one reply; `Err(SinkClosed)` means the connection is
    /// gone and the caller should stop producing — for a watch, cancel
    /// the subscription.
    pub fn send(&self, reply: GwReply) -> Result<(), SinkClosed> {
        if self.closed.load(Ordering::Acquire) {
            return Err(SinkClosed);
        }
        self.mailbox.post(self.conn, self.gen, Mail::Reply(reply));
        Ok(())
    }
}

impl Drop for ReplySink {
    fn drop(&mut self) {
        // The reactor ignores hang-ups for requests that already got
        // their terminal reply (the mailbox preserves order), so this
        // only ends streams whose daemon side went away.
        if !self.closed.load(Ordering::Acquire) {
            self.mailbox.post(self.conn, self.gen, Mail::Hangup);
        }
    }
}

/// One in-flight gateway request: the parsed request plus the sink the
/// daemon answers into.
pub struct GwJob {
    /// What to do.
    pub req: GwRequest,
    /// Where replies go. For watches the daemon holds this sink for
    /// the life of the subscription.
    pub reply: ReplySink,
}

/// Where the shards hand parsed requests: the daemon's side of the job
/// queue. It enqueues the job and then does whatever makes its consumer
/// look (the daemon wakes its event loop), or gives the job back when
/// the consumer is gone. A closure, so the gateway needs to know neither
/// the queue nor the loop.
pub type JobSink = Arc<dyn Fn(GwJob) -> Result<(), GwJob> + Send + Sync>;

/// Bucket upper bounds (microseconds) for the gateway's request-latency
/// histograms. Log-ish spacing from sub-millisecond one-shots out to the
/// engine's front timeout; the final implicit bucket is `+Inf`.
pub const REQUEST_LATENCY_BOUNDS_US: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// The endpoint classes requests are timed under, in scrape order; the
/// last one takes everything else (404s, OPTIONS, parse failures).
pub const ENDPOINT_CLASSES: [&str; 7] = [
    "query", "attrs", "watch", "metrics", "health", "traces", "other",
];

/// Request-latency histograms, one per endpoint class, indexed as
/// [`ENDPOINT_CLASSES`]. Watch streams observe their whole stream
/// lifetime (headers to hang-up), one-shots the read-to-written span.
#[derive(Debug)]
pub struct EndpointLatency([Histogram; ENDPOINT_CLASSES.len()]);

impl Default for EndpointLatency {
    fn default() -> Self {
        EndpointLatency(std::array::from_fn(|_| {
            Histogram::new(&REQUEST_LATENCY_BOUNDS_US)
        }))
    }
}

impl EndpointLatency {
    /// The histogram for an endpoint class label.
    pub fn of(&self, class: &str) -> &Histogram {
        let other = ENDPOINT_CLASSES.len() - 1;
        let idx = ENDPOINT_CLASSES.iter().position(|&c| c == class);
        &self.0[idx.unwrap_or(other)]
    }

    /// All classes, label first — iteration order is the scrape order.
    pub fn families(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        ENDPOINT_CLASSES.into_iter().zip(&self.0)
    }
}

/// Live counters the gateway keeps about itself (lock-free; scraped into
/// `/metrics` alongside the subsystem counters).
#[derive(Debug, Default)]
pub struct GatewayStats {
    /// Requests accepted, by coarse endpoint class.
    pub queries: AtomicU64,
    /// `POST /v1/attrs` requests.
    pub attr_sets: AtomicU64,
    /// Watches opened (SSE streams started).
    pub watches_opened: AtomicU64,
    /// SSE data frames written.
    pub sse_frames: AtomicU64,
    /// `/metrics` scrapes served.
    pub scrapes: AtomicU64,
    /// `/healthz` probes served.
    pub health_checks: AtomicU64,
    /// Trace endpoint requests (`/v1/traces`, `/v1/trace/{id}`).
    pub traces: AtomicU64,
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

/// Tuning and middleware knobs for [`spawn_gateway_opts`]. Start from
/// `GatewayOpts::default()` and override what the deployment needs.
#[derive(Clone)]
pub struct GatewayOpts {
    /// Reactor shard threads; `0` picks `available_parallelism` capped
    /// at 8.
    pub shards: usize,
    /// Per-peer-IP sustained requests/second; `0.0` disables rate
    /// limiting.
    pub rate_limit: f64,
    /// Token-bucket burst capacity; `0.0` picks `2 × rate_limit`.
    pub rate_burst: f64,
    /// How long a request may wait on the daemon before the gateway
    /// answers 408 and closes the connection.
    pub request_timeout: Duration,
    /// How long a keep-alive connection may sit idle (no request bytes)
    /// before it is closed.
    pub idle_timeout: Duration,
    /// How long a partial request head may dribble in before the
    /// connection is answered 408 (slowloris defense).
    pub header_timeout: Duration,
    /// Most concurrent SSE streams; further `/v1/watch` requests answer
    /// 503 immediately.
    pub max_sse_streams: i64,
    /// Most concurrent connections; further accepts are closed
    /// immediately (and counted in `conns_rejected`).
    pub max_conns: i64,
    /// Optional access-log sink: one JSON line per finished request (and
    /// per ended SSE stream).
    pub access_log: Option<AccessLogSink>,
    /// Optional shared result cache — when present, shards answer
    /// `/v1/query` hits from it inline, never entering the daemon's
    /// event loop (the cache's mutating side stays with the daemon,
    /// which shares the same `Arc`).
    pub cache: Option<Arc<QueryCache>>,
    /// Test hook: a request for exactly this path panics inside the
    /// connection handler, to prove panic isolation. `None` in
    /// production, always.
    pub panic_on_path: Option<String>,
}

impl Default for GatewayOpts {
    fn default() -> GatewayOpts {
        GatewayOpts {
            shards: 0,
            rate_limit: 0.0,
            rate_burst: 0.0,
            request_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(30),
            header_timeout: Duration::from_secs(10),
            max_sse_streams: 1024,
            max_conns: 50_000,
            access_log: None,
            cache: None,
            panic_on_path: None,
        }
    }
}

/// A running gateway: address, stats, and the stop switch.
pub struct GatewayHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) stats: Arc<GatewayStats>,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) wakes: Vec<Arc<Mailbox>>,
}

impl GatewayHandle {
    /// Where the gateway listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The gateway's own counters.
    pub fn stats(&self) -> &Arc<GatewayStats> {
        &self.stats
    }

    /// Stops accepting new connections and tears down the shards; open
    /// connections (SSE streams included) are closed, which fails the
    /// daemon's next send into their sinks.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor blocked in accept() so it observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(50));
        // And every shard blocked in epoll_wait.
        for wake in &self.wakes {
            wake.wake();
        }
    }
}

/// Spawns the gateway's acceptor and reactor shards on `listener`. Each
/// parsed request goes to `jobs`; the daemon's sink enqueues it and wakes
/// the event loop.
///
/// # Panics
///
/// Panics if the listener's local address cannot be read, `epoll` setup
/// fails, or threads cannot spawn — all boot-time process failures.
pub fn spawn_gateway_opts(
    listener: TcpListener,
    jobs: JobSink,
    opts: GatewayOpts,
) -> GatewayHandle {
    crate::reactor::spawn_reactor(listener, jobs, opts)
}

/// Times one finished request into the per-endpoint histogram and, when
/// a sink is configured, emits one access-log line.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_request(
    stats: &GatewayStats,
    access_log: &Option<AccessLogSink>,
    class: &'static str,
    method: &str,
    path: &str,
    status: u16,
    started: std::time::Instant,
    bytes: usize,
    peer: &str,
) {
    let duration_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    stats.latency.of(class).observe(duration_us);
    if let Some(sink) = access_log {
        let ts_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        sink(&access_log_line(
            ts_ms,
            method,
            path,
            status,
            duration_us,
            bytes,
            peer,
        ));
    }
}

/// The latency/access-log endpoint class of a routed request.
pub(crate) fn endpoint_class(req: &GwRequest) -> &'static str {
    match req {
        GwRequest::Query { .. } => "query",
        GwRequest::SetAttrs { .. } => "attrs",
        GwRequest::Watch { .. } => "watch",
        GwRequest::Metrics
        | GwRequest::ClusterMetrics
        | GwRequest::History { .. }
        | GwRequest::ClusterHistory { .. } => "metrics",
        GwRequest::Health
        | GwRequest::ClusterHealth
        | GwRequest::Alerts
        | GwRequest::Events { .. } => "health",
        GwRequest::Traces { .. } | GwRequest::Trace { .. } => "traces",
    }
}

/// Parses the `range` query parameter of the history endpoints:
/// seconds by default (`120`, `120s`) or minutes (`2m`).
fn parse_range_s(s: &str) -> Result<u32, &'static str> {
    let (digits, mult) = if let Some(d) = s.strip_suffix('m') {
        (d, 60)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1)
    } else {
        (s, 1)
    };
    let n: u32 = digits
        .parse()
        .map_err(|_| "range wants SECONDS, Ns, or Nm")?;
    if n == 0 {
        return Err("range must be positive");
    }
    Ok(n.saturating_mul(mult))
}

/// Shared query-parameter parsing for `/v1/history` and
/// `/v1/cluster/history`.
fn history_params(req: &HttpRequest) -> Result<(String, u32), HttpResponse> {
    let metric = req
        .param("metric")
        .ok_or_else(|| HttpResponse::error(400, "missing query parameter metric"))?;
    let range_s = match req.param("range") {
        None => 120,
        Some(v) => parse_range_s(v).map_err(|e| HttpResponse::error(400, e))?,
    };
    Ok((metric.to_owned(), range_s))
}

/// What the gateway speaks, for `Allow` headers.
pub(crate) const ALLOWED_METHODS: &str = "GET, HEAD, POST, OPTIONS";

/// Maps a parsed HTTP request onto the gateway API.
pub(crate) fn route(req: &HttpRequest) -> Result<GwRequest, HttpResponse> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET" | "HEAD", "/v1/query") => {
            let q = req
                .param("q")
                .ok_or_else(|| HttpResponse::error(400, "missing query parameter q"))?;
            Ok(GwRequest::Query { q: q.to_owned() })
        }
        ("POST", "/v1/attrs") => {
            let body = std::str::from_utf8(&req.body)
                .map_err(|_| HttpResponse::error(400, "body is not UTF-8"))?;
            let attrs = parse_attr_body(body).map_err(|e| HttpResponse::error(400, e))?;
            if attrs.is_empty() {
                return Err(HttpResponse::error(400, "no attributes in body"));
            }
            Ok(GwRequest::SetAttrs { attrs })
        }
        ("GET", "/v1/watch") => {
            let q = req
                .param("q")
                .ok_or_else(|| HttpResponse::error(400, "missing query parameter q"))?;
            let policy = parse_policy(req.param("policy").unwrap_or("on-change"))
                .map_err(|e| HttpResponse::error(400, e))?;
            let lease_ms = match req.param("lease_ms") {
                None => 30_000,
                Some(v) => v
                    .parse()
                    .map_err(|_| HttpResponse::error(400, "lease_ms must be an integer"))?,
            };
            Ok(GwRequest::Watch {
                q: q.to_owned(),
                policy,
                lease_ms,
            })
        }
        // HEAD cannot open a stream; point the prober at GET.
        ("HEAD", "/v1/watch") => {
            Err(HttpResponse::error(405, "watch streams require GET").with_allow("GET"))
        }
        ("GET" | "HEAD", "/metrics") => Ok(GwRequest::Metrics),
        ("GET" | "HEAD", "/healthz") => Ok(GwRequest::Health),
        ("GET" | "HEAD", "/v1/cluster/health") => Ok(GwRequest::ClusterHealth),
        ("GET" | "HEAD", "/v1/cluster/metrics") => Ok(GwRequest::ClusterMetrics),
        ("GET" | "HEAD", "/v1/alerts") => Ok(GwRequest::Alerts),
        ("GET" | "HEAD", "/v1/history") => {
            let (metric, range_s) = history_params(req)?;
            Ok(GwRequest::History { metric, range_s })
        }
        ("GET" | "HEAD", "/v1/cluster/history") => {
            let (metric, range_s) = history_params(req)?;
            Ok(GwRequest::ClusterHistory { metric, range_s })
        }
        ("GET" | "HEAD", "/v1/events") => {
            let kind = req.param("kind").map(|k| k.to_owned());
            let limit = match req.param("limit") {
                None => 100,
                Some(v) => v
                    .parse()
                    .map_err(|_| HttpResponse::error(400, "limit must be an integer"))?,
            };
            Ok(GwRequest::Events { kind, limit })
        }
        ("GET" | "HEAD", "/v1/traces") => {
            let limit = match req.param("limit") {
                None => 50,
                Some(v) => v
                    .parse()
                    .map_err(|_| HttpResponse::error(400, "limit must be an integer"))?,
            };
            Ok(GwRequest::Traces { limit })
        }
        ("GET" | "HEAD", path) if path.starts_with("/v1/trace/") => {
            let id = &path["/v1/trace/".len()..];
            if id.is_empty() {
                return Err(HttpResponse::error(400, "missing trace id"));
            }
            Ok(GwRequest::Trace { id: id.to_owned() })
        }
        ("GET" | "HEAD" | "POST", _) => Err(HttpResponse::error(404, "no such endpoint")),
        _ => Err(HttpResponse::error(405, "method not allowed").with_allow(ALLOWED_METHODS)),
    }
}

/// Parses the `policy` query parameter: `on-change`, `period:MILLIS`, or
/// `threshold:VALUE`.
fn parse_policy(s: &str) -> Result<WatchPolicy, &'static str> {
    if s == "on-change" {
        return Ok(WatchPolicy::OnChange);
    }
    if let Some(ms) = s.strip_prefix("period:") {
        let ms: u64 = ms.parse().map_err(|_| "period wants period:MILLIS")?;
        if ms == 0 {
            return Err("period must be positive");
        }
        return Ok(WatchPolicy::PeriodMs(ms));
    }
    if let Some(v) = s.strip_prefix("threshold:") {
        let v: f64 = v.parse().map_err(|_| "threshold wants threshold:VALUE")?;
        if v.is_nan() {
            return Err("threshold must not be NaN");
        }
        return Ok(WatchPolicy::Threshold(v));
    }
    Err("policy must be on-change, period:MILLIS, or threshold:VALUE")
}

/// Parses a `/v1/attrs` body: form pairs (`A=1&B=2`) or the `--attrs`
/// comma syntax (`A=1,B=2`).
///
/// Precedence: a body containing `&` is always form data. Otherwise the
/// comma syntax applies only when *every* comma-separated piece is a
/// `k=v` pair; a body like `note=a,b` (one pair whose value holds a
/// comma) falls back to a single pair. The one genuinely ambiguous
/// spelling, `A=1,B=2` with a literal-comma intent, needs the comma
/// encoded (`%2C`) or form syntax.
fn parse_attr_body(body: &str) -> Result<Vec<(String, String)>, &'static str> {
    let body = body.trim();
    let decode = |k: &str, v: &str| -> Result<(String, String), &'static str> {
        let k = crate::http::percent_decode(k);
        if k.is_empty() {
            return Err("attribute has an empty name");
        }
        Ok((k, crate::http::percent_decode(v)))
    };
    let split_pairs = |sep: char| -> Option<Vec<(&str, &str)>> {
        body.split(sep)
            .filter(|p| !p.is_empty())
            .map(|part| part.split_once('='))
            .collect()
    };
    let pairs = if body.contains('&') {
        split_pairs('&').ok_or("attribute is not k=v")?
    } else if let Some(pairs) = split_pairs(',') {
        pairs
    } else {
        // Not clean comma syntax: a single pair whose value carries
        // literal commas.
        vec![body.split_once('=').ok_or("attribute is not k=v")?]
    };
    pairs.into_iter().map(|(k, v)| decode(k, v)).collect()
}

/// The `/v1/query` answer body (shared by the daemon round-trip path and
/// the reactor-side cache-hit path, so both render byte-identically).
pub(crate) fn answer_body(result: &str, complete: bool) -> String {
    format!(
        "{{\"result\":{},\"complete\":{complete}}}\n",
        json::escape(result)
    )
}

/// Renders one terminal reply as a full HTTP response.
pub(crate) fn render_reply(reply: GwReply) -> HttpResponse {
    match reply {
        GwReply::Answer {
            result,
            complete,
            cache,
        } => {
            let resp = HttpResponse::json(200, answer_body(&result, complete));
            match cache {
                Some(c) => resp.with_cache(c),
                None => resp,
            }
        }
        GwReply::AttrsSet { count } => {
            HttpResponse::json(200, format!("{{\"ok\":true,\"set\":{count}}}\n"))
        }
        GwReply::Metrics { text } => {
            HttpResponse::text(200, "text/plain; version=0.0.4; charset=utf-8", text)
        }
        GwReply::Health {
            node,
            members,
            alive,
        } => HttpResponse::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"node\":{node},\"members\":{members},\"alive\":{alive}}}\n"
            ),
        ),
        GwReply::Json { body } => HttpResponse::json(200, body),
        GwReply::Error { status, msg } => HttpResponse::error(status, &msg),
        GwReply::Update { .. } | GwReply::Keepalive => {
            HttpResponse::error(500, "streaming reply to one-shot request")
        }
    }
}

/// Renders one update as an SSE frame (`data: {json}\n\n`).
pub fn sse_frame(result: &str, initial: bool, complete: bool) -> String {
    format!(
        "data: {{\"result\":{},\"initial\":{initial},\"complete\":{complete}}}\n\n",
        json::escape(result)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};
    use std::sync::mpsc::Sender;
    use std::sync::Mutex;

    /// Boots a gateway backed by a scripted responder thread.
    fn test_gateway(respond: impl Fn(GwRequest, ReplySink) + Send + 'static) -> GatewayHandle {
        test_gateway_opts(GatewayOpts::default(), respond)
    }

    fn test_gateway_opts(
        opts: GatewayOpts,
        respond: impl Fn(GwRequest, ReplySink) + Send + 'static,
    ) -> GatewayHandle {
        let (tx, rx) = std::sync::mpsc::channel::<GwJob>();
        std::thread::spawn(move || {
            for job in rx {
                respond(job.req, job.reply);
            }
        });
        spawn_on_channel(tx, opts)
    }

    /// The one entry point, fed through a channel whose consumer blocks
    /// on it and so needs no waking.
    fn spawn_on_channel(tx: Sender<GwJob>, opts: GatewayOpts) -> GatewayHandle {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        spawn_gateway_opts(
            listener,
            Arc::new(move |job| tx.send(job).map_err(|e| e.0)),
            opts,
        )
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let _ = s.read_to_string(&mut out);
        out
    }

    #[test]
    fn query_roundtrips_as_json() {
        let gw = test_gateway(|req, reply| {
            assert_eq!(
                req,
                GwRequest::Query {
                    q: "SELECT count(*) WHERE A = 1".into()
                }
            );
            let _ = reply.send(GwReply::Answer {
                result: "2".into(),
                complete: true,
                cache: None,
            });
        });
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/query?q=SELECT%20count(*)%20WHERE%20A%20%3D%201 HTTP/1.1\r\n\
             Connection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(
            resp.contains("{\"result\":\"2\",\"complete\":true}"),
            "{resp}"
        );
        assert!(!resp.contains("X-Moara-Cache"), "no cache, no header");
        assert_eq!(gw.stats().queries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cache_markers_render_as_response_headers() {
        let gw = test_gateway(|_req, reply| {
            let _ = reply.send(GwReply::Answer {
                result: "2".into(),
                complete: true,
                cache: Some("coalesced"),
            });
        });
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/query?q=x HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.contains("X-Moara-Cache: coalesced\r\n"), "{resp}");
    }

    /// A warm cache answers on the reactor shard: the daemon side sees
    /// no job at all, and the response carries `X-Moara-Cache: hit`.
    #[test]
    fn cache_hits_are_served_without_entering_the_daemon() {
        use crate::cache::{CacheConfig, QueryCache};
        let cache = Arc::new(QueryCache::new(CacheConfig {
            promote_after: 1,
            ..CacheConfig::default()
        }));
        // Warm: first lookup promotes, then the "daemon" installs and
        // syncs the standing result.
        assert!(cache
            .lookup("SELECT count(*)", std::time::Instant::now())
            .is_none());
        let (key, _) = cache.take_pending_promotions().remove(0);
        assert!(cache.promoted(&key, 1));
        cache.on_update(1, "42".into(), true);

        let daemon_jobs = Arc::new(AtomicU64::new(0));
        let daemon_jobs2 = Arc::clone(&daemon_jobs);
        let gw = test_gateway_opts(
            GatewayOpts {
                cache: Some(Arc::clone(&cache)),
                ..GatewayOpts::default()
            },
            move |_req, reply| {
                daemon_jobs2.fetch_add(1, Ordering::SeqCst);
                let _ = reply.send(GwReply::Answer {
                    result: "slow".into(),
                    complete: true,
                    cache: Some("miss"),
                });
            },
        );
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/query?q=SELECT%20count(*) HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.contains("X-Moara-Cache: hit\r\n"), "{resp}");
        assert!(
            resp.contains("{\"result\":\"42\",\"complete\":true}"),
            "{resp}"
        );
        assert_eq!(daemon_jobs.load(Ordering::SeqCst), 0, "no daemon trip");
        assert_eq!(cache.hits(), 1);
        // A different query misses straight through to the daemon.
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/query?q=other HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.contains("X-Moara-Cache: miss\r\n"), "{resp}");
        assert!(resp.contains("\"result\":\"slow\""), "{resp}");
        assert_eq!(daemon_jobs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn attrs_post_parses_both_body_styles() {
        let gw = test_gateway(|req, reply| match req {
            GwRequest::SetAttrs { attrs } => {
                let n = attrs.len();
                assert!(attrs.iter().any(|(k, v)| k == "A" && v == "1"));
                let _ = reply.send(GwReply::AttrsSet { count: n });
            }
            other => panic!("unexpected {other:?}"),
        });
        for body in ["A=1&B=two", "A=1,B=two"] {
            let resp = roundtrip(
                gw.addr(),
                &format!(
                    "POST /v1/attrs HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                ),
            );
            assert!(resp.contains("{\"ok\":true,\"set\":2}"), "{resp}");
        }
    }

    #[test]
    fn watch_streams_sse_frames_until_daemon_drops() {
        let gw = test_gateway(|req, reply| {
            match req {
                GwRequest::Watch {
                    policy: WatchPolicy::PeriodMs(1500),
                    lease_ms: 5000,
                    ..
                } => {}
                other => panic!("unexpected {other:?}"),
            }
            let _ = reply.send(GwReply::Update {
                result: "1".into(),
                initial: true,
                complete: true,
            });
            let _ = reply.send(GwReply::Keepalive);
            let _ = reply.send(GwReply::Update {
                result: "2".into(),
                initial: false,
                complete: true,
            });
            // reply dropped here: stream must end.
        });
        let mut s = TcpStream::connect(gw.addr()).unwrap();
        s.write_all(
            b"GET /v1/watch?q=SELECT%20count(*)&policy=period:1500&lease_ms=5000 HTTP/1.1\r\n\r\n",
        )
        .unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(s);
        let mut header = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            header.push_str(&line);
            if line == "\r\n" {
                break;
            }
        }
        assert!(header.contains("text/event-stream"), "{header}");
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
        assert!(
            rest.contains("data: {\"result\":\"1\",\"initial\":true,\"complete\":true}\n\n"),
            "{rest}"
        );
        assert!(rest.contains(": keepalive\n\n"), "{rest}");
        assert!(rest.contains("data: {\"result\":\"2\""), "{rest}");
        assert_eq!(gw.stats().sse_frames.load(Ordering::Relaxed), 2);
        // The stream ended and released its slot.
        assert_eq!(gw.stats().open_streams.load(Ordering::SeqCst), 0);
    }

    /// Beyond `max_sse_streams`, further watch requests answer 503 fast
    /// — and one-shot endpoints keep working (`/healthz` must stay
    /// reachable under watcher overload).
    #[test]
    fn watch_streams_beyond_the_cap_answer_503() {
        let held: Arc<Mutex<Vec<ReplySink>>> = Arc::new(Mutex::new(Vec::new()));
        let held2 = Arc::clone(&held);
        let gw = test_gateway_opts(
            GatewayOpts {
                max_sse_streams: 1,
                ..GatewayOpts::default()
            },
            move |req, reply| {
                if matches!(req, GwRequest::Watch { .. }) {
                    let _ = reply.send(GwReply::Update {
                        result: "1".into(),
                        initial: true,
                        complete: true,
                    });
                    held2.lock().unwrap().push(reply); // keep the stream open
                } else if matches!(req, GwRequest::Health) {
                    let _ = reply.send(GwReply::Health {
                        node: 0,
                        members: 1,
                        alive: 1,
                    });
                }
            },
        );
        let mut s1 = TcpStream::connect(gw.addr()).unwrap();
        s1.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s1.write_all(b"GET /v1/watch?q=x HTTP/1.1\r\n\r\n").unwrap();
        let mut reader = BufReader::new(s1.try_clone().unwrap());
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.starts_with("data: ") {
                break; // stream 1 is fully open and counted
            }
        }
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/watch?q=x HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 503 "), "{resp}");
        // One-shot endpoints still work beside the saturated stream cap.
        let resp = roundtrip(
            gw.addr(),
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
    }

    #[test]
    fn bad_requests_answer_4xx() {
        let gw = test_gateway(|_req, _reply| {});
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/query HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
        let resp = roundtrip(gw.addr(), "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404 "), "{resp}");
        let resp = roundtrip(
            gw.addr(),
            "DELETE /v1/query HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 405 "), "{resp}");
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/watch?q=x&policy=sometimes HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
        assert_eq!(gw.stats().errors.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let gw = test_gateway(|req, reply| {
            if let GwRequest::Health = req {
                let _ = reply.send(GwReply::Health {
                    node: 0,
                    members: 3,
                    alive: 3,
                });
            }
        });
        let mut s = TcpStream::connect(gw.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        for _ in 0..3 {
            s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, "HTTP/1.1 200 OK\r\n");
            // Drain headers + body by Content-Length.
            let mut len = 0usize;
            loop {
                let mut l = String::new();
                reader.read_line(&mut l).unwrap();
                if let Some(v) = l.to_ascii_lowercase().strip_prefix("content-length:") {
                    len = v.trim().parse().unwrap();
                }
                if l == "\r\n" {
                    break;
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
            assert!(String::from_utf8(body).unwrap().contains("\"alive\":3"));
        }
        assert_eq!(gw.stats().health_checks.load(Ordering::Relaxed), 3);
    }

    /// Two requests written in one TCP segment are both answered, in
    /// order — the reactor parses pipelined input off one buffer.
    #[test]
    fn pipelined_requests_answer_in_order() {
        let gw = test_gateway(|req, reply| {
            if let GwRequest::Health = req {
                let _ = reply.send(GwReply::Health {
                    node: 0,
                    members: 1,
                    alive: 1,
                });
            }
        });
        let resp = roundtrip(
            gw.addr(),
            "GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(resp.matches("HTTP/1.1 200 OK\r\n").count(), 2, "{resp}");
        assert_eq!(gw.stats().health_checks.load(Ordering::Relaxed), 2);
    }

    /// The smuggling defense, end to end: a `Transfer-Encoding` request
    /// whose chunked body embeds a fake second request is answered 501
    /// and the connection closed — the embedded request is never routed
    /// (with the old ignore-the-header behavior, the chunked body stayed
    /// in the buffer and `GET /v1/query?q=evil` would have executed).
    #[test]
    fn transfer_encoding_desync_is_rejected_not_smuggled() {
        let jobs = Arc::new(AtomicU64::new(0));
        let jobs2 = Arc::clone(&jobs);
        let gw = test_gateway(move |_req, _reply| {
            jobs2.fetch_add(1, Ordering::SeqCst);
        });
        let resp = roundtrip(
            gw.addr(),
            "POST /v1/attrs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
             5\r\nA=1&B\r\n0\r\n\r\n\
             GET /v1/query?q=evil HTTP/1.1\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 501 "), "{resp}");
        // Exactly one response: the connection closed before the
        // embedded request could be parsed.
        assert_eq!(resp.matches("HTTP/1.1").count(), 1, "{resp}");
        assert_eq!(jobs.load(Ordering::SeqCst), 0, "nothing was routed");
        assert_eq!(gw.stats().queries.load(Ordering::Relaxed), 0);
    }

    /// Conflicting duplicate `Content-Length` headers (the CL.CL
    /// smuggling vector) are rejected and the connection closed.
    #[test]
    fn conflicting_content_length_closes_the_connection() {
        let gw = test_gateway(|_req, _reply| {});
        let resp = roundtrip(
            gw.addr(),
            "POST /v1/attrs HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 30\r\n\r\nA=1",
        );
        assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
        assert_eq!(resp.matches("HTTP/1.1").count(), 1, "{resp}");
    }

    /// A rejected request (404 route) with a body must not leave the
    /// body bytes in the buffer: the parser consumes head *and* body, so
    /// the next pipelined request on the keep-alive connection parses
    /// cleanly instead of desyncing.
    #[test]
    fn rejected_request_with_body_does_not_desync_keep_alive() {
        let gw = test_gateway(|req, reply| {
            if let GwRequest::Health = req {
                let _ = reply.send(GwReply::Health {
                    node: 0,
                    members: 1,
                    alive: 1,
                });
            }
        });
        let resp = roundtrip(
            gw.addr(),
            "POST /nope HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello\
             GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 404 "), "{resp}");
        assert!(resp.contains("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");
        assert_eq!(gw.stats().health_checks.load(Ordering::Relaxed), 1);
    }

    /// Middleware: the per-peer token bucket answers 429 once the burst
    /// is spent, and counts it.
    #[test]
    fn rate_limit_answers_429_and_counts() {
        let gw = test_gateway_opts(
            GatewayOpts {
                rate_limit: 1.0,
                rate_burst: 2.0,
                ..GatewayOpts::default()
            },
            |req, reply| {
                if let GwRequest::Health = req {
                    let _ = reply.send(GwReply::Health {
                        node: 0,
                        members: 1,
                        alive: 1,
                    });
                }
            },
        );
        let mut statuses = Vec::new();
        for _ in 0..3 {
            let resp = roundtrip(
                gw.addr(),
                "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            );
            statuses.push(resp.split_whitespace().nth(1).unwrap_or("?").to_owned());
        }
        assert_eq!(statuses[0], "200", "{statuses:?}");
        assert_eq!(statuses[1], "200", "{statuses:?}");
        assert_eq!(statuses[2], "429", "{statuses:?}");
        assert_eq!(gw.stats().rate_limited.load(Ordering::Relaxed), 1);
        assert!(gw.stats().errors.load(Ordering::Relaxed) >= 1);
    }

    /// Middleware: a request the daemon never answers times out with 408
    /// after `request_timeout`, counted in `request_timeouts`.
    #[test]
    fn unanswered_request_times_out_with_408() {
        let held: Arc<Mutex<Vec<ReplySink>>> = Arc::new(Mutex::new(Vec::new()));
        let held2 = Arc::clone(&held);
        let gw = test_gateway_opts(
            GatewayOpts {
                request_timeout: Duration::from_millis(50),
                ..GatewayOpts::default()
            },
            move |_req, reply| {
                held2.lock().unwrap().push(reply); // never answer
            },
        );
        let resp = roundtrip(
            gw.addr(),
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 408 "), "{resp}");
        assert_eq!(gw.stats().request_timeouts.load(Ordering::Relaxed), 1);
        // The daemon's held sink now fails its sends: hang-up observed.
        let sink = held.lock().unwrap().pop().unwrap();
        assert!(sink.send(GwReply::Keepalive).is_err());
    }

    /// Middleware: a poisoned request kills its own connection only —
    /// the shard survives and keeps serving others.
    #[test]
    fn panics_are_isolated_to_their_connection() {
        let gw = test_gateway_opts(
            GatewayOpts {
                panic_on_path: Some("/boom".into()),
                ..GatewayOpts::default()
            },
            |req, reply| {
                if let GwRequest::Health = req {
                    let _ = reply.send(GwReply::Health {
                        node: 0,
                        members: 1,
                        alive: 1,
                    });
                }
            },
        );
        let poisoned = roundtrip(gw.addr(), "GET /boom HTTP/1.1\r\n\r\n");
        assert!(poisoned.is_empty(), "poisoned conn just closes: {poisoned}");
        assert_eq!(gw.stats().panics_caught.load(Ordering::Relaxed), 1);
        // The shard is alive and serving.
        let resp = roundtrip(
            gw.addr(),
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
    }

    /// Slowloris: a client dribbling header bytes is answered 408 after
    /// `header_timeout` — and because nothing blocks per connection,
    /// other clients are served the whole time.
    #[test]
    fn slowloris_headers_time_out_without_blocking_others() {
        let gw = test_gateway_opts(
            GatewayOpts {
                header_timeout: Duration::from_millis(200),
                ..GatewayOpts::default()
            },
            |req, reply| {
                if let GwRequest::Health = req {
                    let _ = reply.send(GwReply::Health {
                        node: 0,
                        members: 1,
                        alive: 1,
                    });
                }
            },
        );
        let mut slow = TcpStream::connect(gw.addr()).unwrap();
        slow.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        slow.write_all(b"GET /healthz HT").unwrap(); // dribble, never finish
                                                     // While the slow client dangles, fast clients are unaffected.
        for _ in 0..3 {
            let resp = roundtrip(
                gw.addr(),
                "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            );
            assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
        }
        let mut out = String::new();
        let _ = slow.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 408 "), "{out}");
    }

    /// Hundreds of idle keep-alive connections coexist with live traffic
    /// — the reactor's whole point. (The 10k-connection version runs as
    /// an e2e test against a real `moarad` for fd-limit headroom.)
    #[test]
    fn idle_keep_alive_connections_do_not_starve_requests() {
        let gw = test_gateway(|req, reply| {
            if let GwRequest::Health = req {
                let _ = reply.send(GwReply::Health {
                    node: 0,
                    members: 1,
                    alive: 1,
                });
            }
        });
        let idle: Vec<TcpStream> = (0..300)
            .map(|_| TcpStream::connect(gw.addr()).unwrap())
            .collect();
        // All idle conns held open; requests still answer immediately.
        let resp = roundtrip(
            gw.addr(),
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
        // And the idle conns themselves are live, not just parked.
        let mut one = idle.into_iter().next().unwrap();
        one.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        one.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        let _ = one.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 200 "), "{out}");
        assert!(gw.stats().conns_accepted.load(Ordering::Relaxed) >= 300);
    }

    /// The connection cap rejects (closes) accepts beyond `max_conns`
    /// and counts them.
    #[test]
    fn connection_cap_rejects_excess_accepts() {
        let gw = test_gateway_opts(
            GatewayOpts {
                max_conns: 2,
                ..GatewayOpts::default()
            },
            |_req, _reply| {},
        );
        let _a = TcpStream::connect(gw.addr()).unwrap();
        let _b = TcpStream::connect(gw.addr()).unwrap();
        // Give the reactor a beat to register both.
        std::thread::sleep(Duration::from_millis(100));
        let mut c = TcpStream::connect(gw.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = String::new();
        let _ = c.read_to_string(&mut out);
        assert!(out.is_empty(), "over-cap conn is closed, not served");
        assert!(gw.stats().conns_rejected.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn stop_refuses_new_connections() {
        let gw = test_gateway(|_req, _reply| {});
        gw.stop();
        std::thread::sleep(Duration::from_millis(100));
        // The acceptor has exited; a fresh connection is never served.
        let mut s = match TcpStream::connect(gw.addr()) {
            Ok(s) => s,
            Err(_) => return, // listener already closed: also fine
        };
        let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(
            out.is_empty() || out.starts_with("HTTP/1.1 503"),
            "stopped gateway must not serve: {out}"
        );
    }

    #[test]
    fn head_and_options_serve_probes() {
        let gw = test_gateway(|req, reply| {
            if let GwRequest::Health = req {
                let _ = reply.send(GwReply::Health {
                    node: 0,
                    members: 3,
                    alive: 3,
                });
            }
        });
        // HEAD /healthz: GET's headers (Content-Length included), no body.
        let resp = roundtrip(
            gw.addr(),
            "HEAD /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("Content-Length:"), "{resp}");
        assert!(resp.ends_with("\r\n\r\n"), "no body after headers: {resp}");
        // OPTIONS: 200 with the allowed-methods surface.
        let resp = roundtrip(
            gw.addr(),
            "OPTIONS /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
        assert!(resp.contains("Allow: GET, HEAD, POST, OPTIONS"), "{resp}");
        // HEAD cannot open a stream; the 405 points at GET.
        let resp = roundtrip(
            gw.addr(),
            "HEAD /v1/watch?q=x HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 405 "), "{resp}");
        assert!(resp.contains("Allow: GET\r\n"), "{resp}");
    }

    #[test]
    fn attr_bodies_parse_form_comma_and_literal_comma_values() {
        let ok = |body: &str| parse_attr_body(body).unwrap();
        assert_eq!(
            ok("A=1&B=two"),
            vec![("A".into(), "1".into()), ("B".into(), "two".into())]
        );
        assert_eq!(
            ok("A=1,B=two"),
            vec![("A".into(), "1".into()), ("B".into(), "two".into())]
        );
        // A single form pair whose value holds a comma must survive.
        assert_eq!(ok("note=a,b"), vec![("note".into(), "a,b".into())]);
        // Encoded commas are always literal.
        assert_eq!(ok("note=a%2Cb"), vec![("note".into(), "a,b".into())]);
        // Form syntax keeps commas literal even with multiple pairs.
        assert_eq!(
            ok("A=1,2&B=3"),
            vec![("A".into(), "1,2".into()), ("B".into(), "3".into())]
        );
        assert!(parse_attr_body("justnonsense").is_err());
        assert!(parse_attr_body("=v&A=1").is_err());
    }

    #[test]
    fn trace_endpoints_route_and_render_json() {
        let gw = test_gateway(|req, reply| match req {
            GwRequest::Traces { limit } => {
                assert_eq!(limit, 5);
                let _ = reply.send(GwReply::Json {
                    body: "{\"traces\":[]}\n".into(),
                });
            }
            GwRequest::Trace { id } => {
                assert_eq!(id, "00000002-0000002a");
                let _ = reply.send(GwReply::Json {
                    body: "{\"trace_id\":\"00000002-0000002a\",\"spans\":[]}\n".into(),
                });
            }
            other => panic!("unexpected {other:?}"),
        });
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/traces?limit=5 HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("{\"traces\":[]}"), "{resp}");
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/trace/00000002-0000002a HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(
            resp.contains("\"trace_id\":\"00000002-0000002a\""),
            "{resp}"
        );
        assert_eq!(gw.stats().traces.load(Ordering::Relaxed), 2);
        // Both requests landed in the traces latency histogram.
        let count = gw.stats().latency.of("traces").snapshot().count();
        assert_eq!(count, 2);
        // An empty id is a client error, not a daemon round-trip.
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/trace/ HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
    }

    #[test]
    fn access_log_emits_one_json_line_per_request() {
        let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_lines = Arc::clone(&lines);
        let sink: AccessLogSink = Arc::new(move |line: &str| {
            sink_lines.lock().unwrap().push(line.to_owned());
        });
        let gw = test_gateway_opts(
            GatewayOpts {
                access_log: Some(sink),
                ..GatewayOpts::default()
            },
            |req, reply| {
                if let GwRequest::Health = req {
                    let _ = reply.send(GwReply::Health {
                        node: 7,
                        members: 1,
                        alive: 1,
                    });
                }
            },
        );
        let resp = roundtrip(
            gw.addr(),
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
        let resp = roundtrip(gw.addr(), "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404 "), "{resp}");
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[0].contains("\"method\":\"GET\"")
                && lines[0].contains("\"path\":\"/healthz\"")
                && lines[0].contains("\"status\":200"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"path\":\"/nope\"") && lines[1].contains("\"status\":404"),
            "{}",
            lines[1]
        );
        for line in lines.iter() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"duration_us\":"), "{line}");
            assert!(line.contains("\"bytes\":"), "{line}");
            assert!(line.contains("\"peer\":\"127.0.0.1:"), "{line}");
        }
    }

    #[test]
    fn cluster_endpoints_route_count_and_track_queue_depth() {
        let gw = test_gateway(|req, reply| match req {
            GwRequest::ClusterHealth => {
                let _ = reply.send(GwReply::Json {
                    body: "{\"node\":0,\"members\":[],\"alerts\":[]}\n".into(),
                });
            }
            GwRequest::ClusterMetrics => {
                let _ = reply.send(GwReply::Metrics {
                    text: "# TYPE moara_up gauge\nmoara_up{instance=\"n0\"} 1\n".into(),
                });
            }
            GwRequest::Alerts => {
                let _ = reply.send(GwReply::Json {
                    body: "{\"node\":0,\"firing\":[]}\n".into(),
                });
            }
            other => panic!("unexpected {other:?}"),
        });
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/cluster/health HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("\"members\":[]"), "{resp}");
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/cluster/metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.contains("text/plain"), "{resp}");
        assert!(resp.contains("instance=\"n0\""), "{resp}");
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/alerts HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.contains("\"firing\":[]"), "{resp}");
        // Health-table and alert reads count as health checks, the
        // federated scrape as a scrape; all three land in histograms.
        assert_eq!(gw.stats().health_checks.load(Ordering::Relaxed), 2);
        assert_eq!(gw.stats().scrapes.load(Ordering::Relaxed), 1);
        let health_count = gw.stats().latency.of("health").snapshot().count();
        assert_eq!(health_count, 2);
        let metrics_count = gw.stats().latency.of("metrics").snapshot().count();
        assert_eq!(metrics_count, 1);
        // The test harness never decrements (that's the daemon's drain
        // loop), so the gauge equals the jobs handed over.
        assert_eq!(gw.stats().queued_jobs.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn daemon_shutdown_503_lands_in_histogram_and_access_log() {
        // A gateway whose daemon is gone: the job channel's receiver is
        // dropped, so every hand-off fails and the shard answers 503
        // inline. Those inline answers must still be timed and logged —
        // the regression this pins down.
        let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_lines = Arc::clone(&lines);
        let sink: AccessLogSink = Arc::new(move |line: &str| {
            sink_lines.lock().unwrap().push(line.to_owned());
        });
        let (tx, rx) = std::sync::mpsc::channel::<GwJob>();
        drop(rx);
        let gw = spawn_on_channel(
            tx,
            GatewayOpts {
                access_log: Some(sink),
                ..GatewayOpts::default()
            },
        );
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/query?q=SELECT%20count(*) HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 503 "), "{resp}");
        let resp = roundtrip(
            gw.addr(),
            "GET /v1/watch?q=SELECT%20count(*) HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 503 "), "{resp}");
        let query_count = gw.stats().latency.of("query").snapshot().count();
        assert_eq!(query_count, 1, "503 must land in the query histogram");
        let watch_count = gw.stats().latency.of("watch").snapshot().count();
        assert_eq!(watch_count, 1, "503 must land in the watch histogram");
        // The failed hand-offs never queued anything...
        assert_eq!(gw.stats().queued_jobs.load(Ordering::Relaxed), 0);
        // ...and the reserved stream slot was released.
        assert_eq!(gw.stats().open_streams.load(Ordering::Relaxed), 0);
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 2, "{lines:?}");
        for line in lines.iter() {
            assert!(line.contains("\"status\":503"), "{line}");
            assert!(line.contains("\"duration_us\":"), "{line}");
        }
    }

    #[test]
    fn access_log_line_is_exact_and_escapes() {
        let line = access_log_line(
            1700000000123,
            "GET",
            "/v1/query",
            200,
            4321,
            17,
            "10.0.0.9:55123",
        );
        assert_eq!(
            line,
            "{\"ts_ms\":1700000000123,\"method\":\"GET\",\"path\":\"/v1/query\",\
             \"status\":200,\"duration_us\":4321,\"bytes\":17,\"peer\":\"10.0.0.9:55123\"}"
        );
        // Hostile path characters must come out escaped, keeping the line
        // one valid JSON object.
        let line = access_log_line(1, "GET", "/v1/query?q=\"x\"\n", 400, 1, 0, "-");
        assert!(line.contains("\\\"x\\\"\\n"), "{line}");
    }

    #[test]
    fn atomic_histogram_buckets_cumulate() {
        let latency = EndpointLatency::default();
        let h = latency.of("query");
        h.observe(50); // <= 100
        h.observe(150); // <= 250
        h.observe(2_000_000); // +Inf
        let snap = h.snapshot();
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.sum, 50 + 150 + 2_000_000);
        assert_eq!(snap.bounds, &REQUEST_LATENCY_BOUNDS_US);
        let cumulative = snap.cumulative;
        assert_eq!(cumulative.len(), REQUEST_LATENCY_BOUNDS_US.len() + 1);
        assert_eq!(cumulative[0], 1);
        assert_eq!(cumulative[1], 2);
        assert_eq!(*cumulative.last().unwrap(), 3);
        // Monotone non-decreasing throughout.
        assert!(cumulative.windows(2).all(|w| w[0] <= w[1]));
        // Classes index one array; anything unknown is "other".
        let classes: Vec<_> = latency.families().map(|(c, _)| c).collect();
        assert_eq!(classes, ENDPOINT_CLASSES);
        latency.of("no-such-class").observe(1);
        assert_eq!(latency.of("other").snapshot().count(), 1);
    }

    #[test]
    fn policy_parser_covers_all_spellings() {
        assert_eq!(parse_policy("on-change"), Ok(WatchPolicy::OnChange));
        assert_eq!(parse_policy("period:250"), Ok(WatchPolicy::PeriodMs(250)));
        assert_eq!(
            parse_policy("threshold:2.5"),
            Ok(WatchPolicy::Threshold(2.5))
        );
        assert!(parse_policy("period:0").is_err());
        assert!(parse_policy("period:x").is_err());
        assert!(parse_policy("threshold:NaN").is_err());
        assert!(parse_policy("whenever").is_err());
    }
}
