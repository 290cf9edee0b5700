//! The metrics catalogue: every number a daemon publishes about itself
//! is one row of [`CATALOGUE`], and the places it is published are views
//! of that table:
//!
//! * `GET /metrics` ([`Daemon::render_metrics`]) — every row with a
//!   family name, in table order;
//! * `status --json` ([`Daemon::metrics_snapshot`]) — the rows with a
//!   `status` key;
//! * the health sample ([`Daemon::health_sample`]) — the rows with a
//!   `sample` key: what `/v1/history` stores at 1 Hz, what alert rules
//!   compare against, what blackbox dumps carry, and what a member
//!   answers `/v1/cluster/health` with.
//!
//! A new metric is one new row (`docs/observability.md`, "Adding a
//! metric"); the tests below hold the table to the documents and to the
//! surface the previous, hand-written views had.

use std::sync::atomic::Ordering::Relaxed;

use moara_gateway::reactor::Endpoint;
use moara_gateway::MetricsRegistry;
use moara_trace::Snapshot;
use moara_transport::Transport;

use crate::health;
use crate::{Daemon, DaemonNode};

/// Reads one unlabelled number; `None` while the subsystem that owns it
/// (gateway, result cache, tracer) is off.
type Value = fn(&Daemon) -> Option<f64>;

/// How a row is read, which for a scraped row is also its TYPE.
#[derive(Clone, Copy)]
enum Get {
    Counter(Value),
    Gauge(Value),
    /// A labelled or histogram family: writes its own series under the
    /// row's name.
    Series(fn(&Daemon, &Metric, &mut MetricsRegistry)),
}
use Get::{Counter, Gauge, Series};

/// One row of the catalogue.
pub(crate) struct Metric {
    /// `/metrics` family name; empty for a number only the keyed views
    /// carry.
    name: &'static str,
    help: &'static str,
    get: Get,
    /// Key under `metrics` in `status --json`.
    status: Option<&'static str>,
    /// Key in the 1 Hz health sample.
    sample: Option<&'static str>,
}

const fn row(name: &'static str, help: &'static str, get: Get) -> Metric {
    Metric {
        name,
        help,
        get,
        status: None,
        sample: None,
    }
}

/// A number with no `/metrics` family of its own.
const fn unscraped(get: Value) -> Metric {
    row("", "", Gauge(get))
}

impl Metric {
    const fn status(mut self, key: &'static str) -> Metric {
        self.status = Some(key);
        self
    }

    const fn sample(mut self, key: &'static str) -> Metric {
        self.sample = Some(key);
        self
    }

    fn value(&self, d: &Daemon) -> Option<f64> {
        match self.get {
            Counter(get) | Gauge(get) => get(d),
            Series(_) => None,
        }
    }
}

/// A named counter the protocol layers bump through `NetCtx::count`.
fn stat(d: &Daemon, name: &str) -> Option<f64> {
    Some(d.transport.stats().counter(name) as f64)
}

fn node(d: &Daemon) -> &DaemonNode {
    d.transport.node(d.me)
}

fn dead_members(d: &Daemon) -> usize {
    d.members.len() - d.alive_member_count()
}

/// Result-cache hit ratio in percent at basis-point resolution. With the
/// cache off or unused this is a gap (`NaN`), not 0 %.
fn cache_hit_pct(d: &Daemon) -> Option<f64> {
    let bp = d.query_cache.as_deref().and_then(|c| {
        let (hits, misses) = (c.hits(), c.misses());
        (hits * 10_000).checked_div(hits + misses)
    });
    Some(bp.map_or(f64::NAN, |bp| bp as f64 / 100.0))
}

fn requests_by_endpoint(d: &Daemon, m: &Metric, reg: &mut MetricsRegistry) {
    let Some(s) = d.gateway_stats() else { return };
    for class in Endpoint::ALL {
        if let Some(endpoint) = class.counter_label() {
            reg.counter_with(m.name, m.help, &[("endpoint", endpoint)], s.requests(class));
        }
    }
}

/// Every histogram reaches `/metrics` through here. Its `_count` is the
/// snapshot's `+Inf` cumulative, so the two always agree.
fn histogram(m: &Metric, reg: &mut MetricsRegistry, labels: &[(&str, &str)], s: &Snapshot) {
    let (bounds, count) = (s.bounds, s.count());
    reg.histogram_with(m.name, m.help, labels, bounds, &s.cumulative, s.sum, count);
}

fn request_latency(d: &Daemon, m: &Metric, reg: &mut MetricsRegistry) {
    let Some(s) = d.gateway_stats() else { return };
    for (endpoint, hist) in s.latency.families() {
        // The gateway compiles its own copy of the histogram type.
        let s = hist.snapshot();
        let (bounds, cumulative, sum) = (s.bounds, s.cumulative, s.sum);
        let s = Snapshot {
            bounds,
            cumulative,
            sum,
        };
        histogram(m, reg, &[("endpoint", endpoint)], &s);
    }
}

fn phase_latency(d: &Daemon, m: &Metric, reg: &mut MetricsRegistry) {
    for (phase, hist) in d.tracer.iter().flat_map(|t| t.phase_histograms()) {
        histogram(m, reg, &[("phase", phase.as_str())], &hist.snapshot());
    }
}

fn build_info(_: &Daemon, m: &Metric, reg: &mut MetricsRegistry) {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let labels = [("version", env!("CARGO_PKG_VERSION")), ("profile", profile)];
    reg.gauge_with(m.name, m.help, &labels, 1.0);
}

/// One 0/1 gauge per rule, so a flat scrape shows which rules exist as
/// well as which fire.
fn alerts_firing(d: &Daemon, m: &Metric, reg: &mut MetricsRegistry) {
    let firing = d.alert_engine.firing(d.now);
    for rule in d.alert_engine.rules() {
        let lit = u8::from(firing.iter().any(|a| a.rule == rule.name));
        reg.gauge_with(m.name, m.help, &[("rule", &rule.name)], lit.into());
    }
}

/// Every metric, in `/metrics` order, one row per line: family name,
/// HELP text, TYPE and how it is read, then the keyed views it joins.
#[rustfmt::skip]
pub(crate) static CATALOGUE: &[Metric] = &[
    // Transport: the volume picture.
    row("moara_transport_messages_sent_total", "Peer-plane messages sent by this daemon.", Counter(|d| Some(d.transport.stats().total_messages() as f64))).status("transport_messages_sent_total"),
    row("moara_transport_messages_received_total", "Peer-plane messages received by this daemon.", Counter(|d| Some(d.transport.stats().total_recv_messages() as f64))).status("transport_messages_received_total"),
    row("moara_transport_bytes_sent_total", "Peer-plane bytes sent (framed wire size).", Counter(|d| Some(d.transport.stats().total_bytes() as f64))).status("transport_bytes_sent_total"),
    row("moara_transport_bytes_received_total", "Peer-plane bytes received (framed wire size).", Counter(|d| Some(d.transport.stats().total_recv_bytes() as f64))),
    row("moara_transport_dropped_total", "Messages dropped at (or en route to) failed peers.", Counter(|d| Some(d.transport.stats().dropped() as f64))),
    row("moara_transport_connects_total", "Fresh outbound peer connections established.", Counter(|d| stat(d, "tcp_connects"))),
    row("moara_transport_reconnects_total", "Peer connections re-established after a failure.", Counter(|d| stat(d, "tcp_reconnects"))),
    row("moara_transport_undeliverable_total", "Sends abandoned because the peer was unreachable or dead.", Counter(|d| Some(d.undeliverable_total as f64))).status("transport_undeliverable_total").sample("undeliverable"),
    row("moara_transport_decode_errors_total", "Inbound frames that failed wire decoding.", Counter(|d| stat(d, "wire_decode_errors"))),
    // Query-plane scheduler: cache effectiveness and batching.
    row("moara_sched_probe_cache_hits_total", "Composite queries planned from cached probe costs.", Counter(|d| stat(d, "probe_cache_hits"))),
    row("moara_sched_probe_cache_misses_total", "Composite queries that had to probe group sizes.", Counter(|d| stat(d, "probe_cache_misses"))),
    row("moara_sched_probes_coalesced_total", "Probe rounds shared with a concurrent query's round.", Counter(|d| stat(d, "probes_coalesced"))),
    row("moara_sched_size_probes_total", "Size-probe messages issued.", Counter(|d| stat(d, "size_probes"))),
    row("moara_sched_batched_fanout_total", "Fan-out messages coalesced into shared Batch frames.", Counter(|d| stat(d, "batched_fanout"))),
    row("moara_sched_probe_cache_entries", "Predicates currently held in the probe-cost cache.", Gauge(|d| Some(node(d).moara.probe_cache_len() as f64))),
    row("moara_sched_probe_cache_epoch", "Churn epoch of the probe cache (bumps invalidate it).", Counter(|d| Some(node(d).moara.probe_cache_epoch() as f64))),
    // Membership: the liveness picture.
    row("moara_membership_members", "Cluster members known (alive or dead).", Gauge(|d| Some(d.members.len() as f64))),
    row("moara_membership_alive", "Members currently believed alive.", Gauge(|d| Some(d.alive_member_count() as f64))),
    row("moara_membership_suspect", "Peers under unrefuted suspicion right now.", Gauge(|d| Some(node(d).swim.state_counts().1 as f64))),
    row("moara_membership_dead", "Members whose failure was confirmed.", Gauge(|d| Some(dead_members(d).max(node(d).swim.state_counts().2) as f64))),
    unscraped(|d| Some(dead_members(d) as f64)).sample("dead_members"),
    row("moara_membership_incarnation", "This node's incarnation (bumps refute stale death claims).", Counter(|d| Some(node(d).swim.incarnation() as f64))),
    row("moara_membership_pings_total", "Direct liveness probes sent.", Counter(|d| stat(d, "swim_pings"))),
    row("moara_membership_ping_reqs_total", "Indirect probes relayed through third parties.", Counter(|d| stat(d, "swim_ping_reqs"))),
    row("moara_membership_suspicions_total", "Peers this detector put under suspicion.", Counter(|d| stat(d, "swim_suspected"))),
    row("moara_membership_confirms_total", "Failures this detector confirmed.", Counter(|d| stat(d, "swim_confirmed"))),
    // Subscription plane: standing-query health.
    row("moara_subscribe_watches", "Standing watches fronted by this daemon.", Gauge(|d| Some(node(d).moara.active_watches() as f64))).status("watches").sample("watches"),
    row("moara_subscribe_entries", "Standing-subscription entries hosted on this node.", Gauge(|d| Some(node(d).moara.sub_entry_count() as f64))).status("sub_entries").sample("sub_entries"),
    row("moara_subscribe_installs_total", "Subscription entries installed on this node.", Counter(|d| stat(d, "sub_installs"))),
    row("moara_subscribe_deltas_total", "Replacement deltas pushed up aggregation trees.", Counter(|d| stat(d, "sub_deltas"))),
    row("moara_subscribe_suppressed_total", "Quiescent rounds where an unchanged subtree pushed nothing.", Counter(|d| stat(d, "sub_suppressed"))),
    row("moara_subscribe_renews_total", "Lease renewals sent along pinned trees.", Counter(|d| stat(d, "sub_renews"))),
    row("moara_subscribe_cancels_total", "Subscription cancellations propagated.", Counter(|d| stat(d, "sub_cancels"))),
    row("moara_subscribe_lease_expired_total", "Subscription entries GCed by lease expiry.", Counter(|d| stat(d, "sub_expired"))),
    // Engine odds and ends.
    row("moara_node_tracked_predicates", "Predicates with live aggregation state on this node.", Gauge(|d| Some(node(d).moara.tracked_predicates() as f64))),
    row("moara_queries_inflight", "Queries submitted here still waiting for their outcome.", Gauge(|d| Some(d.walks.len() as f64))).status("queries_inflight").sample("queries_inflight"),
    // The gateway's own traffic, then the reactor + middleware picture:
    // connection churn and what the production-concern layers rejected.
    row("moara_gateway_requests_total", "HTTP requests accepted, by endpoint.", Series(requests_by_endpoint)),
    row("moara_gateway_errors_total", "HTTP responses with a 4xx/5xx status.", Counter(|d| Some(d.gateway_stats()?.errors.load(Relaxed) as f64))),
    row("moara_gateway_sse_frames_total", "Server-Sent Events data frames written.", Counter(|d| Some(d.gateway_stats()?.sse_frames.load(Relaxed) as f64))),
    row("moara_gateway_open_streams", "SSE watch streams currently open.", Gauge(|d| Some(d.gateway_stats()?.open_streams.load(Relaxed) as f64))).sample("open_streams"),
    row("moara_gateway_connections_accepted_total", "HTTP connections accepted by the gateway.", Counter(|d| Some(d.gateway_stats()?.conns_accepted.load(Relaxed) as f64))),
    row("moara_gateway_connections_rejected_total", "HTTP connections refused at the connection cap.", Counter(|d| Some(d.gateway_stats()?.conns_rejected.load(Relaxed) as f64))),
    row("moara_gateway_open_connections", "HTTP connections currently registered with reactor shards.", Gauge(|d| Some(d.gateway_stats()?.open_conns.load(Relaxed) as f64))).sample("open_conns"),
    row("moara_gateway_queued_jobs", "Gateway jobs handed to the daemon and not yet drained.", Gauge(|d| Some(d.gateway_stats()?.queued_jobs.load(Relaxed) as f64))).sample("queued_jobs"),
    row("moara_gateway_rate_limited_total", "Requests answered 429 by the per-peer-IP token bucket.", Counter(|d| Some(d.gateway_stats()?.rate_limited.load(Relaxed) as f64))).sample("rate_limited"),
    row("moara_gateway_request_timeouts_total", "Requests answered 408 (deadline exceeded or slowloris header timeout).", Counter(|d| Some(d.gateway_stats()?.request_timeouts.load(Relaxed) as f64))),
    row("moara_gateway_panics_total", "Panics caught by per-connection isolation.", Counter(|d| Some(d.gateway_stats()?.panics_caught.load(Relaxed) as f64))),
    row("moara_gateway_request_latency_us", "HTTP request service time in microseconds, by endpoint.", Series(request_latency)),
    // The result cache (docs/gateway.md, "Result cache"). It only exists behind a gateway, so these are off whenever the gateway's are.
    row("moara_gateway_cache_hits_total", "Queries answered from the materialized standing result.", Counter(|d| Some(d.query_cache.as_ref()?.hits() as f64))).status("gateway_cache_hits_total"),
    row("moara_gateway_cache_misses_total", "Queries that fell through the cache to a tree walk.", Counter(|d| Some(d.query_cache.as_ref()?.misses() as f64))).status("gateway_cache_misses_total"),
    row("moara_gateway_cache_promotions_total", "Hot query texts promoted to standing subscriptions.", Counter(|d| Some(d.query_cache.as_ref()?.promotions() as f64))).status("gateway_cache_promotions_total"),
    row("moara_gateway_cache_coalesced_total", "Queries that shared another identical query's in-flight walk.", Counter(|d| Some(d.query_cache.as_ref()?.coalesced() as f64))).status("gateway_cache_coalesced_total"),
    row("moara_gateway_cache_demotions_total", "Promoted entries released (idle or evicted at capacity).", Counter(|d| Some(d.query_cache.as_ref()?.demotions() as f64))),
    row("moara_gateway_cache_invalidations_total", "Standing updates that superseded a served cached result.", Counter(|d| Some(d.query_cache.as_ref()?.invalidations() as f64))),
    row("moara_gateway_cache_entries", "Query texts currently tracked by the result cache.", Gauge(|d| Some(d.query_cache.as_ref()?.len() as f64))).status("gateway_cache_entries"),
    row("moara_gateway_cache_promoted", "Cache entries currently backed by a standing subscription.", Gauge(|d| Some(d.query_cache.as_ref()?.promoted_len() as f64))).status("gateway_cache_promoted"),
    unscraped(cache_hit_pct).sample("cache_hit_pct"),
    // Tracing plane: per-phase query latency distributions.
    row("moara_trace_spans_total", "Spans recorded into the trace ring buffer.", Counter(|d| d.tracer.as_ref().map(|t| (t.len() as u64 + t.dropped()) as f64))),
    unscraped(|d| Some(d.tracer.as_ref()?.len() as f64)).status("trace_spans"),
    row("moara_trace_spans_dropped_total", "Spans evicted from the bounded trace ring buffer.", Counter(|d| Some(d.tracer.as_ref()?.dropped() as f64))).status("trace_spans_dropped_total"),
    row("moara_query_phase_latency_us", "Span service time in microseconds, by query phase.", Series(phase_latency)),
    // Event-loop profile: how long each tick works and how many control/gateway jobs it drains.
    // Tick time excludes the poll wait, so an idle daemon shows a flat, tiny distribution.
    row("moara_event_loop_tick_us", "Per-tick event-loop work time in microseconds (poll wait excluded).", Series(|d, m, reg| histogram(m, reg, &[], &d.tick_hist.snapshot()))),
    unscraped(|d| Some(d.tick_hist.snapshot().count() as f64)).status("event_loop_ticks_total"),
    unscraped(|d| Some(d.tick_hist.snapshot().quantile(0.99) as f64)).sample("tick_p99_us"),
    row("moara_event_loop_jobs_per_tick", "Control-plane plus gateway jobs drained per event-loop tick.", Series(|d, m, reg| histogram(m, reg, &[], &d.depth_hist.snapshot()))),
    row("moara_subscribe_delta_lag_us", "Per-hop SubDelta residency (receive to fold-finished) in microseconds.", Series(|d, m, reg| histogram(m, reg, &[], &d.delta_lag_hist.snapshot()))),
    row("moara_slow_queries_total", "Queries that exceeded the --slow-query-ms threshold.", Counter(|d| Some(d.slow_queries_total as f64))).status("slow_queries_total").sample("slow_queries"),
    row("moara_event_loop_stalled_ticks_total", "Event-loop ticks whose work time crossed --stall-threshold-ms.", Counter(|d| Some(d.stalled_ticks as f64))).sample("stalled_ticks"),
    // Flight recorder: journal volume (the history rings are served through /v1/history, not scraped).
    row("moara_events_recorded_total", "Structured events recorded into the flight-recorder journal.", Counter(|d| Some(d.recorder.journal.recorded() as f64))),
    row("moara_events_dropped_total", "Journal events evicted from the bounded ring.", Counter(|d| Some(d.recorder.journal.dropped() as f64))),
    // Process / build identity (the health plane's raw inputs).
    row("moara_build_info", "Build identity; always 1, the information is in the labels.", Series(build_info)),
    row("moara_uptime_seconds", "Seconds since this daemon booted.", Gauge(|d| Some(d.now.saturating_duration_since(d.started).as_secs() as f64))).sample("uptime_s"),
    row("moara_process_resident_bytes", "Resident set size in bytes (/proc/self/statm).", Gauge(|_| Some(health::rss_bytes() as f64))).sample("rss_bytes"),
    row("moara_open_fds", "Open file descriptors (/proc/self/fd).", Gauge(|_| Some(f64::from(health::open_fds())))).sample("open_fds"),
    row("moara_alerts_firing", "1 while the named alert rule is firing, 0 otherwise.", Series(alerts_firing)),
    row("moara_up", "Always 1 while the daemon event loop serves scrapes.", Gauge(|_| Some(1.0))),
];

/// The keys of the 1 Hz health sample, in table order: exactly the names
/// `/v1/history?metric=` serves and an alert rule may read.
pub(crate) fn sample_keys() -> impl Iterator<Item = &'static str> {
    CATALOGUE.iter().filter_map(|m| m.sample)
}

impl Daemon {
    /// Snapshots every scraped row into one Prometheus exposition.
    pub(crate) fn render_metrics(&self) -> String {
        let mut reg = MetricsRegistry::new();
        for m in CATALOGUE.iter().filter(|m| !m.name.is_empty()) {
            match (m.get, m.value(self)) {
                (Series(write), _) => write(self, m, &mut reg),
                (Counter(_), Some(v)) => reg.counter(m.name, m.help, v as u64),
                (Gauge(_), Some(v)) => reg.gauge(m.name, m.help, v),
                (_, None) => {}
            }
        }
        reg.render()
    }

    /// The compact name → value snapshot `status --json` carries.
    pub(crate) fn metrics_snapshot(&self) -> Vec<(String, f64)> {
        let rows = CATALOGUE.iter();
        rows.filter_map(|m| Some((m.status?.to_owned(), m.value(self)?)))
            .collect()
    }

    /// The health sample: what the alert rules compare against, the
    /// flight recorder's history rings store, and `HealthFetch` answers.
    /// One fixed key set; a subsystem that is off counts 0, an unknown
    /// ratio is `NaN` (which no alert operator matches and the rings
    /// render as a gap).
    pub(crate) fn health_sample(&self) -> Vec<(&'static str, f64)> {
        let rows = CATALOGUE.iter();
        rows.filter_map(|m| Some((m.sample?, m.value(self).unwrap_or(0.0))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::DaemonOpts;
    use moara_trace::{Histogram, SpanRecord, NO_PEER};

    /// A one-member daemon with every optional subsystem (gateway, result
    /// cache, tracer) on, or every one off.
    fn daemon(subsystems: bool) -> Daemon {
        let any = "127.0.0.1:0".parse().unwrap();
        let mut opts = DaemonOpts::new(any);
        (opts.http, opts.trace_sample) = (subsystems.then_some(any), u64::from(subsystems));
        Daemon::start(opts).expect("daemon boots")
    }

    fn families() -> impl Iterator<Item = &'static str> {
        CATALOGUE.iter().map(|m| m.name).filter(|n| !n.is_empty())
    }

    /// `<series> le <bound>…` for every histogram series of a scrape, in
    /// scrape order.
    fn le_lists(scrape: &str) -> Vec<String> {
        let mut out: Vec<(String, Vec<&str>)> = Vec::new();
        for line in scrape.lines() {
            let Some((family, labels)) = line.split_once("_bucket{") else {
                continue;
            };
            let (labels, le) = labels.rsplit_once("le=\"").expect("a bucket has an le");
            let le = le.split('"').next().unwrap_or_default();
            let series = match labels.strip_suffix(',') {
                Some(labels) => format!("{family}{{{labels}}}"),
                None => family.to_owned(),
            };
            match out.last_mut() {
                Some((s, les)) if *s == series => les.push(le),
                _ => out.push((series, vec![le])),
            }
        }
        out.into_iter()
            .map(|(s, les)| format!("{s} le {}", les.join(" ")))
            .collect()
    }

    /// `exemplar <key shape> b <bound>…` per exemplar family, in order.
    fn exemplar_shapes(entries: &[(String, String)]) -> Vec<String> {
        let mut out: Vec<(&str, Vec<&str>)> = Vec::new();
        for (key, _) in entries {
            let (prefix, le) = key.rsplit_once("/le/").expect("a key names its bucket");
            match out.last_mut() {
                Some((p, les)) if *p == prefix => les.push(le),
                _ => out.push((prefix, vec![le])),
            }
        }
        out.into_iter()
            .map(|(p, les)| format!("exemplar {p}/le/<b> b {}", les.join(" ")))
            .collect()
    }

    /// Nothing public moved when the views became loops over the table:
    /// the golden file is the `# HELP` / `# TYPE` lines in scrape order,
    /// the `status --json` keys and the `/v1/history` keys of the commit
    /// before, whose views were written out by hand. Nor when the
    /// histograms became one type: the second golden file is every
    /// histogram series' `le` list and every exemplar key shape (each
    /// bucket of each family traced once) of the commit before that.
    #[test]
    fn views_publish_the_surface_the_hand_written_ones_had() {
        let mut d = daemon(true);
        let scrape = d.render_metrics();
        moara_gateway::lint_exposition(&scrape).unwrap();
        let heads = scrape.lines().filter(|l| l.starts_with("# "));
        let mut surface: Vec<String> = heads.map(str::to_owned).collect();
        let status: BTreeSet<String> = d.metrics_snapshot().into_iter().map(|(k, _)| k).collect();
        surface.extend(status.iter().map(|k| format!("status {k}")));
        let history: BTreeSet<&str> = d.health_sample().iter().map(|&(k, _)| k).collect();
        surface.extend(history.iter().map(|k| format!("history {k}")));
        let golden = include_str!("../tests/golden/metrics_surface.txt");
        assert_eq!(surface, golden.lines().collect::<Vec<_>>());

        let mut histograms = le_lists(&scrape);
        let every_bucket = |h: &Histogram| {
            let bounds = h.bounds().iter().copied();
            bounds
                .chain([h.bounds()[h.bounds().len() - 1] + 1])
                .collect::<Vec<_>>()
        };
        let tracer = d.tracer.clone().expect("tracing is on");
        for (phase, hist) in tracer.phase_histograms() {
            for v in every_bucket(hist) {
                let span = SpanRecord {
                    trace_id: 1,
                    span_id: 1,
                    parent_span_id: 0,
                    node: 0,
                    phase,
                    peer: NO_PEER,
                    start_us: 0,
                    queue_us: 0,
                    service_us: v,
                    bytes: 0,
                    detail: String::new(),
                };
                tracer.record(span);
            }
        }
        for v in every_bucket(&d.gw_latency_exemplars) {
            d.gw_latency_exemplars.observe_traced(v, 1);
        }
        histograms.extend(exemplar_shapes(&d.exemplar_entries()));
        d.shutdown();
        let golden = include_str!("../tests/golden/histogram_surface.txt");
        assert_eq!(histograms, golden.lines().collect::<Vec<_>>());
    }

    #[test]
    fn rows_are_unique_and_the_bare_scrape_lints() {
        fn unique(what: &str, keys: impl Iterator<Item = &'static str>) {
            let mut seen = BTreeSet::new();
            for key in keys {
                assert!(seen.insert(key), "{what} {key} has two rows");
            }
        }
        unique("family", families());
        unique("status key", CATALOGUE.iter().filter_map(|m| m.status));
        unique("sample key", CATALOGUE.iter().filter_map(|m| m.sample));
        let mut bare = daemon(false);
        moara_gateway::lint_exposition(&bare.render_metrics()).unwrap();
        bare.shutdown();
    }

    /// The backticked words of `text` between two markers, label braces
    /// cut off.
    fn ticked<'a>(text: &'a str, from: &str, to: &str) -> BTreeSet<&'a str> {
        let section = &text[text.find(from).expect(from)..];
        let words = section[..section.find(to).expect(to)].split('`');
        let words = words.skip(1).step_by(2);
        words.map(|w| w.split('{').next().unwrap_or(w)).collect()
    }

    /// The two prose copies of the table say what the table says.
    #[test]
    fn documents_list_exactly_the_catalogue() {
        let gateway = include_str!("../../../docs/gateway.md");
        let mut listed = ticked(gateway, "## Metrics catalogue", "## Graceful shutdown");
        listed.retain(|w| w.starts_with("moara_"));
        assert_eq!(listed, families().collect());
        let observability = include_str!("../../../docs/observability.md");
        let (from, to) = ("Metric keys are the sample fields", "and for every key");
        assert_eq!(ticked(observability, from, to), sample_keys().collect());
    }
}
