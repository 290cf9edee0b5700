//! Rendering: the JSON bodies the HTTP gateway answers with (built from
//! the same values the ctrl replies carry) and the slow-query log line.

use moara_gateway::json::JsonLine;
use moara_trace::{format_trace_id, SpanRecord, TraceSummary};

use crate::health::{AlertWire, PeerHealthRow};
use crate::recorder::EventWire;

/// One span as a JSON object. Span ids render as hex strings (they
/// routinely exceed JSON's 2^53 integer-exactness limit); timestamps
/// stay numeric — they are each recording node's own microsecond clock.
fn span_json(s: &SpanRecord) -> String {
    use moara_gateway::json::escape;
    format!(
        "{{\"span_id\":{},\"parent_span_id\":{},\"node\":{},\"phase\":{},\"peer\":{},\
         \"start_us\":{},\"queue_us\":{},\"service_us\":{},\"bytes\":{},\"detail\":{}}}",
        escape(&format!("{:#018x}", s.span_id)),
        escape(&format!("{:#018x}", s.parent_span_id)),
        s.node,
        escape(s.phase.as_str()),
        if s.peer == moara_trace::NO_PEER {
            "null".to_owned()
        } else {
            s.peer.to_string()
        },
        s.start_us,
        s.queue_us,
        s.service_us,
        s.bytes,
        escape(&s.detail),
    )
}

/// The `GET /v1/trace/{id}` body: the merged span set (the tree is in
/// the parent ids) plus the members the merge could not reach.
pub(crate) fn trace_json(trace_id: u64, spans: &[SpanRecord], missing: &[u32]) -> String {
    use moara_gateway::json::escape;
    let spans_json: Vec<String> = spans.iter().map(span_json).collect();
    let missing_json: Vec<String> = missing.iter().map(u32::to_string).collect();
    format!(
        "{{\"trace_id\":{},\"complete\":{},\"missing\":[{}],\"spans\":[{}]}}\n",
        escape(&format_trace_id(trace_id)),
        missing.is_empty(),
        missing_json.join(","),
        spans_json.join(","),
    )
}

/// The `GET /v1/traces` body: recent traces, newest first, plus the
/// latency-bucket exemplars (`"<hist>/le/<bound>" -> trace id`) that
/// link slow buckets straight to an inspectable trace.
pub(crate) fn traces_json(summaries: &[TraceSummary], exemplars: &[(String, String)]) -> String {
    use moara_gateway::json::escape;
    let items: Vec<String> = summaries
        .iter()
        .map(|t| {
            format!(
                "{{\"trace_id\":{},\"phase\":{},\"node\":{},\"start_us\":{},\
                 \"duration_us\":{},\"spans\":{}}}",
                escape(&format_trace_id(t.trace_id)),
                escape(t.phase.as_str()),
                t.node,
                t.start_us,
                t.duration_us,
                t.spans,
            )
        })
        .collect();
    let ex: Vec<String> = exemplars
        .iter()
        .map(|(k, v)| format!("{}:{}", escape(k), escape(v)))
        .collect();
    format!(
        "{{\"traces\":[{}],\"exemplars\":{{{}}}}}\n",
        items.join(","),
        ex.join(","),
    )
}

/// One firing alert as a JSON object (shared by `/v1/alerts` and the
/// alerts block of `/v1/cluster/health`).
fn alert_json(a: &AlertWire) -> String {
    JsonLine::new()
        .str("rule", &a.rule)
        .str("metric", &a.metric)
        .f64("value", a.value)
        .f64("threshold", a.threshold)
        .u64("since_s", a.since_s)
        .finish()
}

/// The `GET /v1/alerts` body: this daemon's currently-firing rules.
pub(crate) fn alerts_json(node: u32, alerts: &[AlertWire]) -> String {
    let items: Vec<String> = alerts.iter().map(alert_json).collect();
    format!("{{\"node\":{node},\"firing\":[{}]}}\n", items.join(","))
}

/// One member row of the cluster health table: the member table's view
/// of it, then its answer, key for key (`NaN`, an unknown ratio, as
/// `null`). The keys come off the peer plane, so they are escaped.
fn health_row_json(r: &PeerHealthRow) -> String {
    use moara_gateway::json::escape;
    let summary = r.summary.as_ref().map_or("null".to_owned(), |sample| {
        let fields: Vec<String> = sample
            .iter()
            .map(|(key, v)| {
                let v = if v.is_finite() {
                    v.to_string()
                } else {
                    "null".into()
                };
                format!("{}:{v}", escape(key))
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    });
    JsonLine::new()
        .u64("node", u64::from(r.node))
        .str("status", r.status.as_str())
        .u64("incarnation", r.incarnation)
        .raw("summary", &summary)
        .finish()
}

/// The `GET /v1/cluster/health` body: the answering daemon's member
/// table joined with each member's answer, plus its own firing alerts.
pub(crate) fn cluster_health_json(
    node: u32,
    rows: &[PeerHealthRow],
    alerts: &[AlertWire],
) -> String {
    let members: Vec<String> = rows.iter().map(health_row_json).collect();
    let firing: Vec<String> = alerts.iter().map(alert_json).collect();
    format!(
        "{{\"node\":{node},\"members\":[{}],\"alerts\":[{}]}}\n",
        members.join(","),
        firing.join(","),
    )
}

/// The `GET /v1/history` body: one metric's series from one daemon's
/// history rings, as `[unix_ms, value]` pairs at the tier's resolution.
pub(crate) fn history_json(node: u32, metric: &str, res_s: u32, points: &[(u64, f64)]) -> String {
    let mut body = JsonLine::new()
        .u64("node", u64::from(node))
        .str("metric", metric)
        .u64("res_s", u64::from(res_s))
        .raw("points", &points_json(points))
        .finish();
    body.push('\n');
    body
}

/// A series as a JSON array of `[unix_ms, value]` pairs (`NaN` samples
/// — gaps in the ring — render as `null` values).
fn points_json(points: &[(u64, f64)]) -> String {
    let items: Vec<String> = points
        .iter()
        .map(|(ts, v)| {
            if v.is_nan() {
                format!("[{ts},null]")
            } else {
                format!("[{ts},{v}]")
            }
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// The `GET /v1/cluster/history` body: every reachable member's series
/// for one metric under `instance` labels, like `/v1/cluster/metrics`.
pub(crate) fn cluster_history_json(
    node: u32,
    metric: &str,
    res_s: u32,
    series: &[(u32, Vec<(u64, f64)>)],
    missing: &[u32],
) -> String {
    let instances: Vec<String> = series
        .iter()
        .map(|(n, points)| {
            JsonLine::new()
                .str("instance", &format!("n{n}"))
                .raw("points", &points_json(points))
                .finish()
        })
        .collect();
    let missing_json: Vec<String> = missing.iter().map(u32::to_string).collect();
    let mut body = JsonLine::new()
        .u64("node", u64::from(node))
        .str("metric", metric)
        .u64("res_s", u64::from(res_s))
        .raw("instances", &format!("[{}]", instances.join(",")))
        .raw("missing", &format!("[{}]", missing_json.join(",")))
        .finish();
    body.push('\n');
    body
}

/// The `GET /v1/events` body: the newest matching journal entries,
/// oldest first.
pub(crate) fn events_json(node: u32, events: &[EventWire]) -> String {
    let items: Vec<String> = events
        .iter()
        .map(|e| {
            JsonLine::new()
                .u64("seq", e.seq)
                .u64("ts_ms", e.ts_ms)
                .u64("node", u64::from(e.node))
                .str("kind", &e.kind)
                .str("detail", &e.detail)
                .finish()
        })
        .collect();
    let mut body = JsonLine::new()
        .u64("node", u64::from(node))
        .raw("events", &format!("[{}]", items.join(",")))
        .finish();
    body.push('\n');
    body
}

/// One slow-query log line: a single JSON object on stderr, grep-able
/// and machine-parsable, carrying the trace id when the query was
/// sampled so the log links straight into `moara-cli trace`, and the
/// unix-ms stamp that correlates it with the event journal.
pub(crate) fn slow_query_line(
    node: u32,
    text: &str,
    duration_us: u64,
    complete: bool,
    trace_id: Option<u64>,
    ts_ms: u64,
) -> String {
    JsonLine::new()
        .bool("slow_query", true)
        .u64("ts_ms", ts_ms)
        .u64("node", u64::from(node))
        .str("q", text)
        .u64("duration_us", duration_us)
        .bool("complete", complete)
        .raw(
            "trace_id",
            &trace_id.map_or("null".to_owned(), |t| {
                moara_gateway::json::escape(&format_trace_id(t))
            }),
        )
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthStatus;

    /// An unknown ratio (`NaN`: the cache is off or unused) never
    /// surfaces as a bogus percentage: the health table renders it as
    /// JSON `null` (and `moara-cli top` as `n/a`).
    #[test]
    fn cache_hit_sentinel_renders_as_null_not_a_percentage() {
        let row = |pct: f64| PeerHealthRow {
            node: 4,
            status: HealthStatus::Ok,
            incarnation: 2,
            summary: Some(vec![
                ("cache_hit_pct".into(), pct),
                ("rss_bytes".into(), 48e6),
                ("alerts_firing".into(), 0.0),
            ]),
        };
        assert_eq!(
            health_row_json(&row(f64::NAN)),
            "{\"node\":4,\"status\":\"ok\",\"incarnation\":2,\"summary\":\
             {\"cache_hit_pct\":null,\"rss_bytes\":48000000,\"alerts_firing\":0}}"
        );
        let json = health_row_json(&row(25.0));
        assert!(json.contains("\"cache_hit_pct\":25,"), "{json}");
        let silent = PeerHealthRow {
            status: HealthStatus::Stale,
            summary: None,
            ..row(0.0)
        };
        assert_eq!(
            health_row_json(&silent),
            "{\"node\":4,\"status\":\"stale\",\"incarnation\":2,\"summary\":null}"
        );
    }

    /// One trace through both storage forms: the records as they were
    /// recorded, which is what the span ring once held, and what the
    /// compact store reads back. `/v1/trace/{id}` and the waterfall
    /// (`moara-cli trace`) render byte for byte the same from either, and
    /// `/v1/traces` renders what it rendered from a ring of records.
    #[test]
    fn a_stored_trace_renders_as_the_records_it_came_from() {
        use moara_trace::{render_waterfall, Phase, SpanStore, NO_PEER};
        let id = 0x0000_0003_0000_0011;
        let span =
            |span_id, parent_span_id, node, phase, peer, start_us, detail: &str| SpanRecord {
                trace_id: id,
                span_id,
                parent_span_id,
                node,
                phase,
                peer,
                start_us,
                queue_us: start_us % 7,
                service_us: 40,
                bytes: 180,
                detail: detail.to_owned(),
            };
        let spans = [
            span(1, 0, 3, Phase::Parse, NO_PEER, 1_000, "agg=Avg"),
            span(2, 1, 3, Phase::Plan, NO_PEER, 1_001, "cnf"),
            span(3, 2, 3, Phase::FanOut, NO_PEER, 1_002, "subs=1"),
            span(4, 3, 0, Phase::FanOut, 3, 1_090, "targets=2"),
            span(5, 4, 1, Phase::Fold, 0, 1_150, "complete=true"),
            // The parent never reached this store: an orphan.
            span(6, 99, 2, Phase::Fold, 0, 1_160, "Zone=\"é\" ✓"),
            SpanRecord {
                queue_us: u64::from(u32::MAX) + 5,
                ..span(7, 1, 3, Phase::Reply, NO_PEER, 1_400, "complete=true")
            },
        ];
        let store = SpanStore::new(64, 1);
        for s in &spans {
            store.record(s.clone());
        }
        store.record(SpanRecord {
            trace_id: 5,
            ..span(8, 0, 4, Phase::SwimPing, 1, 900, "")
        });
        let read = store.spans_for(id);
        assert_eq!(trace_json(id, &read, &[2]), trace_json(id, &spans, &[2]));
        assert_eq!(
            render_waterfall(id, &read, &[]),
            render_waterfall(id, &spans, &[])
        );
        assert_eq!(
            traces_json(&store.recent(10), &[]),
            "{\"traces\":[\
             {\"trace_id\":\"0x0000000300000011\",\"phase\":\"parse\",\"node\":3,\
             \"start_us\":1000,\"duration_us\":4294967740,\"spans\":7},\
             {\"trace_id\":\"0x0000000000000005\",\"phase\":\"swim-ping\",\"node\":4,\
             \"start_us\":900,\"duration_us\":44,\"spans\":1}],\"exemplars\":{}}\n"
        );
    }

    /// Slow-query lines are correlatable with the journal: unix-ms
    /// stamp present, shared-writer escaping applied.
    #[test]
    fn slow_query_line_is_exact_and_stamped() {
        let line = slow_query_line(
            3,
            "SELECT count(*) WHERE X = \"a\"",
            15_000,
            true,
            Some(7),
            1_700_000_000_123,
        );
        assert_eq!(
            line,
            "{\"slow_query\":true,\"ts_ms\":1700000000123,\"node\":3,\
             \"q\":\"SELECT count(*) WHERE X = \\\"a\\\"\",\"duration_us\":15000,\
             \"complete\":true,\"trace_id\":\"0x0000000000000007\"}"
        );
        let line = slow_query_line(0, "q", 1, false, None, 5);
        assert!(line.ends_with("\"trace_id\":null}"));
    }
}
