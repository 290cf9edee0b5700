//! # moara-gateway
//!
//! The HTTP edge of a Moara cluster, plus its observability plane.
//!
//! Until this crate existed the only ways into a cluster were the Rust
//! API and the custom framed control plane — nothing an off-the-shelf
//! client, load balancer, dashboard, or scraper could speak. The gateway
//! embeds an event-driven HTTP/1.1 server (written on `std::net` plus
//! raw `epoll` syscalls, the same no-new-deps constraint that shaped
//! `TcpTransport`) in every `moarad` behind `--http ADDR`:
//!
//! * `GET /v1/query?q=…` — run a composite query, answer as JSON;
//! * `POST /v1/attrs` — set local attributes (group churn over HTTP);
//! * `GET /v1/watch?q=…&policy=…` — Server-Sent Events stream bridging
//!   the continuous-query subscription plane: one `data:` frame per
//!   standing-query delta, lease auto-renewed while the socket is open,
//!   cancelled on hang-up;
//! * `GET /healthz` — liveness of the daemon event loop;
//! * `GET /metrics` — Prometheus text exposition of the counters the
//!   subsystems already keep (transport, query scheduler, membership,
//!   subscriptions, gateway itself).
//!
//! Any daemon is a valid entry point: a request served by a non-front-end
//! daemon simply runs the query from that node, so an external load
//! balancer can spray the whole cluster.
//!
//! Architecturally the gateway is a codec, like the control plane: HTTP
//! threads never touch protocol state, and a [`GwRequest`] is only "a
//! parsed HTTP request" — the daemon translates it into the operation
//! its one dispatcher serves. A sharded `epoll` reactor ([`reactor`])
//! owns every socket in nonblocking mode and drives per-connection state
//! machines — incremental request parsing ([`http`]), buffered response
//! writes, SSE streaming — so one daemon holds tens of thousands of
//! keep-alive connections on a handful of threads. Parsed requests
//! become [`GwRequest`]s pushed as [`GwJob`]s through an MPSC channel
//! into the daemon's single-threaded event loop; replies return through
//! per-shard mailboxes. Cache hits never leave the reactor. In front of
//! routing sits a small middleware stack ([`middleware`]): per-peer-IP
//! token-bucket rate limiting (429), per-request deadlines (408), and
//! per-connection panic isolation. See `docs/gateway.md`.

pub mod cache;
// The raw epoll/eventfd layer, shared with `moara-transport` as one
// source file: this crate has no dependencies, and that one stays so.
#[allow(dead_code)]
#[path = "../../transport/src/epoll.rs"]
mod epoll;
// The one histogram type, compiled from `moara-trace`'s source for the
// same reason.
#[path = "../../trace/src/histogram.rs"]
mod histogram;
pub mod http;
pub mod json;
pub mod metrics;
pub mod middleware;
pub mod reactor;
pub mod server;

pub use cache::{normalize, CacheConfig, QueryCache};
pub use histogram::{Histogram, Snapshot};
pub use http::{HttpRequest, HttpResponse};
pub use metrics::{federate_expositions, lint_exposition, MetricsRegistry};
pub use middleware::TokenBuckets;
pub use server::{
    access_log_line, spawn_gateway_opts, AccessLogSink, EndpointLatency, GatewayHandle,
    GatewayOpts, GatewayStats, GwJob, GwReply, GwRequest, JobSink, ReplySink, SinkClosed,
    WatchPolicy, REQUEST_LATENCY_BOUNDS_US,
};
