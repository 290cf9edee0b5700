//! `moarad` — the Moara daemon: one protocol node per process, clustered
//! over TCP.
//!
//! ```text
//! # seed a cluster
//! moarad --listen 127.0.0.1:7101 --attrs ServiceX=true
//! # join two more daemons
//! moarad --listen 127.0.0.1:7102 --join 127.0.0.1:7101 --attrs ServiceX=false
//! moarad --listen 127.0.0.1:7103 --join 127.0.0.1:7101 --attrs ServiceX=true
//! # ask any daemon
//! moara-cli --connect 127.0.0.1:7102 query "SELECT count(*) WHERE ServiceX = true"
//! ```
//!
//! `--listen` is the control-plane address (clients and joiners dial it);
//! the peer plane auto-binds and is exchanged through membership.
//! `--http ADDR` additionally opens the HTTP edge gateway there —
//! `GET /v1/query`, `POST /v1/attrs`, `GET /v1/watch` (SSE),
//! `GET /healthz`, `GET /metrics` — so ordinary HTTP clients, load
//! balancers, and Prometheus scrapers can talk to the cluster through
//! any daemon (see `docs/gateway.md`).
//!
//! SIGINT/SIGTERM shut the daemon down gracefully: it stops accepting,
//! cancels its standing watches and SSE streams (so peers GC that state
//! promptly), flushes the cancels, and exits 0.
//!
//! Membership flags (see `docs/membership.md`):
//!
//! * `--rejoin-as N` — crash-recovery: reclaim node id `N` from the seed
//!   (the seed revives the identity under a higher incarnation and the
//!   restarted daemon re-enters its groups' trees);
//! * `--swim-period-ms N` — failure-detector protocol period (default
//!   1000): one liveness probe per period;
//! * `--swim-suspect-periods N` — periods a suspicion may go unrefuted
//!   before the failure is confirmed (default 3).
//!
//! Query-plane scheduler flags (see `docs/query-plane.md`):
//!
//! * `--no-probe-cache` — probe group sizes on every composite query
//!   (the paper's behaviour) instead of caching probe costs;
//! * `--probe-cache-ttl-ms N` — how long a cached probe cost may be
//!   served (default 30000);
//! * `--probe-cache-cap N` — max cached predicates per front-end
//!   (default 1024);
//! * `--no-size-probes` — plan composite covers structurally, without
//!   size probes at all.
//!
//! Observability flags (see `docs/observability.md`):
//!
//! * `--trace-sample N` — sample every Nth root query into the
//!   distributed tracer (default 1 = every query; 0 disables tracing);
//! * `--slow-query-ms N` — log one JSON line to stderr for every query
//!   that takes longer than `N` milliseconds end-to-end;
//! * `--access-log` — log one JSON line to stderr per HTTP gateway
//!   request (method, path, status, duration, bytes, peer).
//!
//! Cluster health-plane flags (see `docs/observability.md`):
//!
//! * `--stall-threshold-ms N` — event-loop ticks whose work time
//!   exceeds `N` milliseconds count as stalls (watchdog + alert input;
//!   default 250);
//! * `--alert-rules FILE` — alert rules (`name: expr op value [for
//!   DURATION]`, where `expr` is a metric name or `rate(metric,
//!   WINDOW)`, one per line, `#` comments) merged over the built-in
//!   defaults: a rule with a built-in's name replaces it. A rule over a
//!   metric the health sample does not have is a start-up error (exit
//!   1) that names the rule and lists the metrics there are.
//!
//! Flight-recorder flags (see `docs/observability.md`):
//!
//! * `--history-retention N` — seconds of down-sampled metrics history
//!   kept in the coarse 10s ring (default 3600); the fine 1s ring
//!   always holds the last 120 s. Served via `GET /v1/history`;
//! * `--crash-dump-dir DIR` — write crash forensics there: a blackbox
//!   dump rewritten every second (survives kill -9), plus dumps on
//!   panics and stall-watchdog trips. Render with `moara-cli
//!   postmortem FILE`.
//!
//! Gateway middleware flags (see `docs/gateway.md`):
//!
//! * `--gw-rate-limit N` — per-peer-IP sustained requests/second on the
//!   gateway; requests beyond the bucket answer 429 (default 0 = off);
//! * `--gw-request-timeout-ms N` — per-request deadline: a request the
//!   daemon has not answered by then gets 408 and its connection closed
//!   (default 30000);
//! * `--gw-idle-timeout-ms N` — keep-alive idle timeout: a connection
//!   with no request in flight and no bytes received for this long is
//!   closed; SSE streams are exempt (default 30000).
//!
//! Gateway result-cache flags (see `docs/gateway.md`):
//!
//! * `--cache-promote-after N` — hits within the sliding window before a
//!   query text is promoted to a standing subscription (default 3);
//! * `--cache-max-entries N` — most query texts tracked at once
//!   (default 256; LRU-evicted beyond that);
//! * `--no-query-cache` — disable the result cache *and* single-flight
//!   request coalescing (every `GET /v1/query` walks the tree).

use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use moara_core::{MoaraConfig, ProbeCachePolicy};
use moara_daemon::{parse_attrs, Daemon, DaemonOpts};
use moara_gateway::CacheConfig;
use moara_membership::SwimConfig;
use moara_simnet::SimDuration;

const USAGE: &str = "usage: moarad --listen IP:PORT [--join IP:PORT] \
                     [--http IP:PORT] [--rejoin-as N] [--attrs k=v,...] \
                     [--seed N] \
                     [--swim-period-ms N] [--swim-suspect-periods N] \
                     [--no-probe-cache] [--probe-cache-ttl-ms N] \
                     [--probe-cache-cap N] [--no-size-probes] \
                     [--trace-sample N] [--slow-query-ms N] [--access-log] \
                     [--gw-rate-limit N] [--gw-request-timeout-ms N] \
                     [--gw-idle-timeout-ms N] \
                     [--cache-promote-after N] [--cache-max-entries N] \
                     [--no-query-cache] \
                     [--stall-threshold-ms N] [--alert-rules FILE] \
                     [--history-retention SECONDS] [--crash-dump-dir DIR]";

/// Flipped by the SIGINT/SIGTERM handler; the main loop notices and
/// shuts down gracefully. A store is all the handler does — the only
/// async-signal-safe thing it could do.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Registers the shutdown handler via libc's `signal` (linked into every
/// `std` binary; declared here because the container bakes in no signal
/// crate). No-op on non-Unix targets.
fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("moarad: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut listen = None;
    let mut join = None;
    let mut http = None;
    let mut rejoin = None;
    let mut attrs = Vec::new();
    let mut seed = 42u64;
    let mut cfg = MoaraConfig::default();
    let mut swim = SwimConfig::default();
    let mut trace_sample = 1u64;
    let mut slow_query_ms = None;
    let mut access_log = false;
    let mut gw_rate_limit = 0.0f64;
    let mut gw_request_timeout_ms = 30_000u64;
    let mut gw_idle_timeout_ms = 30_000u64;
    // Like the probe cache: the tuning flags only adjust the config,
    // `--no-query-cache` is the sole on/off switch, so order never
    // matters.
    let mut query_cache = CacheConfig::default();
    let mut query_cache_on = true;
    let mut stall_threshold_ms = 250u64;
    let mut alert_rules = Vec::new();
    let mut history_retention_s = moara_daemon::recorder::DEFAULT_RETENTION_S;
    let mut crash_dump_dir = None;
    // The TTL/capacity flags only tune the cache; `--no-probe-cache` is
    // the sole on/off switch, so flag order never matters.
    let (mut cache_ttl, mut cache_cap) = match cfg.probe_cache {
        ProbeCachePolicy::Cache { ttl, capacity } => (ttl, capacity),
        ProbeCachePolicy::Off => (SimDuration::from_secs(30), 1024),
    };
    let mut cache_on = cfg.probe_cache.enabled();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--listen" => {
                let v = val("--listen");
                listen = Some(
                    v.to_socket_addrs()
                        .ok()
                        .and_then(|mut a| a.next())
                        .unwrap_or_else(|| fail(&format!("bad --listen address {v}"))),
                );
            }
            "--join" => join = Some(val("--join")),
            "--http" => {
                let v = val("--http");
                http = Some(
                    v.to_socket_addrs()
                        .ok()
                        .and_then(|mut a| a.next())
                        .unwrap_or_else(|| fail(&format!("bad --http address {v}"))),
                );
            }
            "--rejoin-as" => {
                rejoin = Some(
                    val("--rejoin-as")
                        .parse()
                        .unwrap_or_else(|_| fail("--rejoin-as needs a node id")),
                );
            }
            "--swim-period-ms" => {
                let ms: u64 = val("--swim-period-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--swim-period-ms needs an integer"));
                if ms == 0 {
                    fail("--swim-period-ms must be positive");
                }
                swim.period = SimDuration::from_millis(ms);
                // Keep the direct-probe window inside the period.
                swim.ping_timeout = SimDuration::from_millis((ms / 3).max(1));
            }
            "--swim-suspect-periods" => {
                swim.suspect_periods = val("--swim-suspect-periods")
                    .parse()
                    .unwrap_or_else(|_| fail("--swim-suspect-periods needs an integer"));
                if swim.suspect_periods == 0 {
                    fail("--swim-suspect-periods must be positive");
                }
            }
            "--attrs" => match parse_attrs(&val("--attrs")) {
                Ok(a) => attrs = a,
                Err(e) => fail(&e),
            },
            "--seed" => {
                seed = val("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("--seed needs an integer"));
            }
            "--no-probe-cache" => cache_on = false,
            "--probe-cache-ttl-ms" => {
                let ms: u64 = val("--probe-cache-ttl-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--probe-cache-ttl-ms needs an integer"));
                if ms == 0 {
                    fail("--probe-cache-ttl-ms must be positive (use --no-probe-cache)");
                }
                cache_ttl = SimDuration::from_millis(ms);
            }
            "--probe-cache-cap" => {
                cache_cap = val("--probe-cache-cap")
                    .parse()
                    .unwrap_or_else(|_| fail("--probe-cache-cap needs an integer"));
                if cache_cap == 0 {
                    fail("--probe-cache-cap must be at least 1");
                }
            }
            "--no-size-probes" => cfg.use_size_probes = false,
            "--trace-sample" => {
                trace_sample = val("--trace-sample")
                    .parse()
                    .unwrap_or_else(|_| fail("--trace-sample needs an integer (0 disables)"));
            }
            "--slow-query-ms" => {
                slow_query_ms = Some(
                    val("--slow-query-ms")
                        .parse()
                        .unwrap_or_else(|_| fail("--slow-query-ms needs milliseconds")),
                );
            }
            "--access-log" => access_log = true,
            "--gw-rate-limit" => {
                gw_rate_limit = val("--gw-rate-limit")
                    .parse()
                    .unwrap_or_else(|_| fail("--gw-rate-limit needs requests/second (0 = off)"));
                if !gw_rate_limit.is_finite() || gw_rate_limit < 0.0 {
                    fail("--gw-rate-limit must be a non-negative number");
                }
            }
            "--gw-request-timeout-ms" => {
                gw_request_timeout_ms = val("--gw-request-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--gw-request-timeout-ms needs milliseconds"));
                if gw_request_timeout_ms == 0 {
                    fail("--gw-request-timeout-ms must be positive");
                }
            }
            "--gw-idle-timeout-ms" => {
                gw_idle_timeout_ms = val("--gw-idle-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--gw-idle-timeout-ms needs milliseconds"));
                if gw_idle_timeout_ms == 0 {
                    fail("--gw-idle-timeout-ms must be positive");
                }
            }
            "--cache-promote-after" => {
                query_cache.promote_after = val("--cache-promote-after")
                    .parse()
                    .unwrap_or_else(|_| fail("--cache-promote-after needs an integer"));
                if query_cache.promote_after == 0 {
                    fail("--cache-promote-after must be at least 1");
                }
            }
            "--cache-max-entries" => {
                query_cache.max_entries = val("--cache-max-entries")
                    .parse()
                    .unwrap_or_else(|_| fail("--cache-max-entries needs an integer"));
                if query_cache.max_entries == 0 {
                    fail("--cache-max-entries must be at least 1 (use --no-query-cache)");
                }
            }
            "--no-query-cache" => query_cache_on = false,
            "--stall-threshold-ms" => {
                stall_threshold_ms = val("--stall-threshold-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--stall-threshold-ms needs milliseconds"));
                if stall_threshold_ms == 0 {
                    fail("--stall-threshold-ms must be positive");
                }
            }
            "--alert-rules" => {
                let path = val("--alert-rules");
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| fail(&format!("cannot read --alert-rules {path}: {e}")));
                match moara_daemon::alerts::parse_rules(&text) {
                    Ok(rules) => alert_rules = rules,
                    Err(e) => fail(&format!("--alert-rules {path}: {e}")),
                }
            }
            "--history-retention" => {
                history_retention_s = val("--history-retention")
                    .parse()
                    .unwrap_or_else(|_| fail("--history-retention needs seconds"));
                if history_retention_s == 0 {
                    fail("--history-retention must be positive");
                }
            }
            "--crash-dump-dir" => {
                crash_dump_dir = Some(std::path::PathBuf::from(val("--crash-dump-dir")));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }
    let listen = listen.unwrap_or_else(|| fail("--listen is required"));
    cfg.probe_cache = if cache_on {
        ProbeCachePolicy::Cache {
            ttl: cache_ttl,
            capacity: cache_cap,
        }
    } else {
        ProbeCachePolicy::Off
    };

    install_signal_handlers();
    let mut daemon = match Daemon::start(DaemonOpts {
        listen,
        join,
        attrs,
        seed,
        cfg,
        swim,
        rejoin,
        http,
        trace_sample,
        slow_query_ms,
        access_log,
        query_cache: query_cache_on.then_some(query_cache),
        gw_rate_limit,
        gw_request_timeout_ms,
        gw_idle_timeout_ms,
        stall_threshold_ms,
        alert_rules,
        history_retention_s,
        crash_dump_dir,
    }) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("moarad: {e}");
            std::process::exit(1);
        }
    };

    // One parseable line for scripts/tests, then serve forever. The
    // member count printed here is the view at boot; poll `status` via
    // moara-cli for the live view.
    println!(
        "MOARAD ctrl={} node=n{} peer={} members={} http={}",
        daemon.ctrl_addr(),
        daemon.id().0,
        daemon
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|| "-".into()),
        daemon.member_count(),
        daemon
            .http_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|| "-".into()),
    );
    let mut last_members = daemon.member_count();
    loop {
        daemon.step(Duration::from_millis(5));
        if SHUTDOWN.load(Ordering::SeqCst) {
            daemon.shutdown();
            println!("MOARAD shutdown");
            return;
        }
        let members = daemon.member_count();
        if members != last_members {
            println!("MOARAD members={members}");
            last_members = members;
        }
    }
}
