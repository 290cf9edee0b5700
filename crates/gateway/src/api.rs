//! The gateway's API: what a request asks of the daemon ([`GwRequest`]),
//! what the daemon answers ([`GwReply`]), how an HTTP request maps onto
//! the first (`route`) and how the second renders as HTTP
//! (`render_reply`, [`sse_frame`]).
//!
//! Hang-up plumbing: the daemon answers by writing to the connection
//! ([`crate::LoopEdge::write`]). Once it is gone the write fails with
//! [`SinkClosed`] — on the next update or keepalive probe — and the
//! daemon cancels the standing subscription, so peers GC the watch's
//! in-network state promptly. A daemon going away drops its loop edge,
//! which closes every connection on it and ends the SSE streams.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::cache::QueryCache;
use crate::http::{HttpRequest, HttpResponse};
use crate::json;
use crate::reactor::{AccessLogSink, Door, GatewayStats};

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
    /// `GET /v1/cluster/health` — the cluster health table: the daemon
    /// asks every alive member for its health sample over the peer plane
    /// (one 2 s deadline) and joins the answers with its member table.
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

/// The connection a reply was for is gone (or closing). The caller
/// should stop producing — for a watch, cancel the subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkClosed;

impl std::fmt::Display for SinkClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("reply sink closed")
    }
}

impl std::error::Error for SinkClosed {}

/// Tuning and middleware knobs for [`crate::spawn_gateway_opts`]. Start from
/// `GatewayOpts::default()` and override what the deployment needs.
#[derive(Clone)]
pub struct GatewayOpts {
    /// Per-peer-IP sustained requests/second, with bursts of twice that;
    /// `0.0` disables rate limiting.
    pub rate_limit: f64,
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
    /// Optional shared result cache — when present, `/v1/query` hits are
    /// answered from it inline, never asking the daemon (the cache's
    /// mutating side stays with the daemon, which shares the same `Arc`).
    pub cache: Option<Arc<QueryCache>>,
}

impl Default for GatewayOpts {
    fn default() -> GatewayOpts {
        GatewayOpts {
            rate_limit: 0.0,
            request_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(30),
            header_timeout: Duration::from_secs(10),
            max_sse_streams: 1024,
            max_conns: 50_000,
            access_log: None,
            cache: None,
        }
    }
}

/// A running gateway's acceptor and shards: address, stats, stop switch.
pub struct GatewayHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) stats: Arc<GatewayStats>,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) inboxes: Vec<Arc<Door>>,
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

    /// Stops accepting new connections and tears down the shards, which
    /// close their connections. The ones on the event loop close with
    /// its [`crate::LoopEdge`].
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor blocked in accept() so it observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(50));
        // And every shard blocked in epoll_wait.
        for inbox in &self.inboxes {
            inbox.wake();
        }
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
pub(crate) fn parse_policy(s: &str) -> Result<WatchPolicy, &'static str> {
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
pub(crate) fn parse_attr_body(body: &str) -> Result<Vec<(String, String)>, &'static str> {
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

/// The `/v1/query` answer body (shared by the daemon's answer and the
/// cache-hit path, so both render byte-identically).
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
