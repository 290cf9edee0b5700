//! Surface parity: the control port and the HTTP gateway are two codecs
//! over one operation set, so driving the same operation through both,
//! against the same daemon, must return the same data.
//!
//! Daemons are hosted in-process (one thread each, calling `step`), and
//! nothing waits on a fixed sleep: state that background activity keeps
//! moving (health samples, SWIM-ping traces, journal entries) is read
//! ctrl → HTTP → ctrl, and compared once the two ctrl reads agree.

use std::fmt::Debug;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use moara_attributes::Value;
use moara_core::DeliveryPolicy;
use moara_daemon::health::HealthStatus;
use moara_daemon::{ctrl_roundtrip, parse_attrs, CtrlReply, CtrlRequest, Daemon, DaemonOpts};
use moara_gateway::json::escape;
use moara_trace::format_trace_id;
use moara_wire::{read_frame, write_msg, Wire};

const TIMEOUT: Duration = Duration::from_secs(30);

/// One daemon on its own thread; stopped (gracefully) and joined on drop.
struct Host {
    ctrl: String,
    http: String,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for Host {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn host(join: Option<&str>, attrs: &str) -> Host {
    let any = "127.0.0.1:0".parse().unwrap();
    let opts = DaemonOpts {
        join: join.map(str::to_owned),
        attrs: parse_attrs(attrs).unwrap(),
        http: Some(any),
        ..DaemonOpts::new(any)
    };
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = std::sync::mpsc::channel();
    let stopped = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        let mut d = Daemon::start(opts).expect("daemon boots");
        let http = d.http_addr().expect("gateway enabled");
        tx.send((d.ctrl_addr().to_string(), http.to_string()))
            .unwrap();
        while !stopped.load(Ordering::SeqCst) {
            d.step(Duration::from_millis(2));
        }
        d.shutdown();
    });
    let (ctrl, http) = rx.recv_timeout(TIMEOUT).expect("daemon reports its ports");
    Host {
        ctrl,
        http,
        stop,
        thread: Some(thread),
    }
}

/// A seed and one joiner, converged: both see two alive members and
/// hold a fresh health digest of each other.
fn cluster() -> (Host, Host) {
    let a = host(None, "ServiceX=true,Load=3");
    let b = host(Some(&a.ctrl), "ServiceX=false,Load=5");
    poll("cluster converges", || {
        [&a, &b]
            .iter()
            .all(|h| match ctrl(h, CtrlRequest::ClusterHealth) {
                CtrlReply::ClusterHealth { rows, .. } => {
                    rows.len() == 2 && rows.iter().all(|r| r.status == HealthStatus::Ok)
                }
                other => panic!("unexpected reply {other:?}"),
            })
    });
    (a, b)
}

/// Retries `ready` (yielding in between) until it holds.
fn poll(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + TIMEOUT;
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::yield_now();
    }
}

/// Reads `ctrl` before and after `http`: when the two reads agree,
/// nothing moved in between, so the HTTP answer shows the same state.
/// Retried while background activity lands between the reads.
fn sandwich<T: PartialEq + Debug>(
    what: &str,
    mut ctrl: impl FnMut() -> T,
    mut http: impl FnMut() -> String,
) -> (T, String) {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let (before, body, after) = (ctrl(), http(), ctrl());
        if before == after {
            return (before, body);
        }
        assert!(Instant::now() < deadline, "{what} never held still");
    }
}

fn ctrl(h: &Host, req: CtrlRequest) -> CtrlReply {
    ctrl_roundtrip(&h.ctrl, &req, TIMEOUT).expect("ctrl round trip")
}

/// One raw HTTP round trip on a fresh connection: (status, headers, body).
fn http(h: &Host, raw: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(&h.http).expect("connect gateway");
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s.write_all(raw.as_bytes()).unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    let (head, body) = out.split_once("\r\n\r\n").expect("http response");
    let status = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .expect("status line");
    (status, head.to_owned(), body.to_owned())
}

fn get(h: &Host, path_query: &str) -> (u16, String, String) {
    let raw = format!("GET {path_query} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    http(h, &raw)
}

/// The body of a GET that must succeed.
fn get_ok(h: &Host, path_query: &str) -> String {
    let (status, head, body) = get(h, path_query);
    assert_eq!(status, 200, "GET {path_query}: {head}\n{body}");
    body
}

fn enc(q: &str) -> String {
    q.replace('%', "%25")
        .replace(' ', "%20")
        .replace('=', "%3D")
}

/// Every value of `"key":` in a JSON body, as raw tokens.
fn values_of(body: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\":");
    body.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &body[at + needle.len()..];
            let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
            rest[..end].trim_matches('"').to_owned()
        })
        .collect()
}

/// A series as the gateway renders it.
fn points_json(points: &[(u64, f64)]) -> String {
    let items: Vec<String> = points.iter().map(|(ts, v)| format!("[{ts},{v}]")).collect();
    format!("[{}]", items.join(","))
}

#[test]
fn every_operation_reads_the_same_over_both_ports() {
    let (a, b) = cluster();

    // --- query: result and completeness.
    let text = "SELECT sum(Load)";
    let CtrlReply::Answer { result, complete } = ctrl(&b, CtrlRequest::Query { text: text.into() })
    else {
        panic!("query answers");
    };
    assert!(complete);
    assert_eq!(result, "8");
    let (status, head, body) = get(&b, &format!("/v1/query?q={}", enc(text)));
    assert_eq!(status, 200);
    assert_eq!(
        body,
        format!(
            "{{\"result\":{},\"complete\":{complete}}}\n",
            escape(&result)
        )
    );
    // The cache marker rides the waiter: the gateway's first walk of a
    // text is a miss; ctrl replies have no such notion.
    assert!(head.contains("X-Moara-Cache: miss"), "{head}");

    // --- set-attr: a write through either port is visible to the other.
    let set = CtrlRequest::SetAttr {
        attr: "Load".into(),
        value: Value::Int(10),
    };
    assert_eq!(ctrl(&b, set), CtrlReply::Ok);
    let body = get_ok(
        &b,
        &format!("/v1/query?q={}", enc("SELECT count(*) WHERE Load = 10")),
    );
    assert_eq!(values_of(&body, "result"), ["1"]);
    let form = "Load=20,Zone=west";
    let post = format!(
        "POST /v1/attrs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{form}",
        form.len()
    );
    let (status, _, body) = http(&b, &post);
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true,\"set\":2}\n"));
    for (text, want) in [
        ("SELECT sum(Load)", "23"),
        ("SELECT count(*) WHERE Zone = west", "1"),
    ] {
        let reply = ctrl(&a, CtrlRequest::Query { text: text.into() });
        assert!(
            matches!(&reply, CtrlReply::Answer { result, .. } if result == want),
            "{text}: {reply:?}"
        );
    }

    // --- status / healthz.
    let (status, body) = sandwich(
        "membership",
        || match ctrl(&b, CtrlRequest::Status) {
            CtrlReply::Status {
                node,
                members,
                alive,
                ..
            } => (node, members, alive),
            other => panic!("unexpected reply {other:?}"),
        },
        || get_ok(&b, "/healthz"),
    );
    let (node, members, alive) = status;
    assert_eq!(
        body,
        format!("{{\"status\":\"ok\",\"node\":{node},\"members\":{members},\"alive\":{alive}}}\n")
    );

    // --- cluster health: the same rows in the same states.
    let (rows, body) = sandwich(
        "the health table",
        || match ctrl(&b, CtrlRequest::ClusterHealth) {
            CtrlReply::ClusterHealth { node, rows, .. } => {
                assert_eq!(node, 1);
                let row = |r: &moara_daemon::health::PeerHealthRow| {
                    (r.node.to_string(), r.status.as_str().to_owned())
                };
                rows.iter().map(row).collect::<Vec<_>>()
            }
            other => panic!("unexpected reply {other:?}"),
        },
        || get_ok(&b, "/v1/cluster/health"),
    );
    let members = body.split("\"alerts\":").next().unwrap();
    let shown: Vec<(String, String)> = values_of(members, "node")
        .into_iter()
        .skip(1) // the serving node, ahead of the rows
        .zip(values_of(members, "status"))
        .collect();
    assert_eq!(shown, rows);
    // `/v1/alerts` shows the firing-rules part of the same reply.
    let (firing, body) = sandwich(
        "the firing alerts",
        || match ctrl(&b, CtrlRequest::ClusterHealth) {
            CtrlReply::ClusterHealth { alerts, .. } => {
                alerts.into_iter().map(|a| a.rule).collect::<Vec<_>>()
            }
            other => panic!("unexpected reply {other:?}"),
        },
        || get_ok(&b, "/v1/alerts"),
    );
    assert!(body.starts_with("{\"node\":1,\"firing\":["), "{body}");
    assert_eq!(values_of(&body, "rule"), firing);

    // --- metrics: the same families (values move between scrapes).
    let families = |text: &str| -> Vec<String> {
        let types = text.lines().filter_map(|l| l.strip_prefix("# TYPE "));
        types.map(str::to_owned).collect()
    };
    let (listed, body) = sandwich(
        "the metric families",
        || match ctrl(&b, CtrlRequest::MetricsFetch) {
            CtrlReply::MetricsText(text) => families(&text),
            other => panic!("unexpected reply {other:?}"),
        },
        || get_ok(&b, "/metrics"),
    );
    assert_eq!(families(&body), listed);
    assert!(get_ok(&b, "/v1/cluster/metrics").contains("instance=\"n0\""));

    // --- history: the same points, local and cluster-wide.
    let history = |metric: &str| CtrlRequest::HistoryFetch {
        metric: metric.into(),
        range_s: 120,
    };
    poll("both daemons sample their history", || {
        [&a, &b].iter().all(|h| {
            matches!(ctrl(h, history("uptime_s")), CtrlReply::History { points, .. } if !points.is_empty())
        })
    });
    let (series, body) = sandwich(
        "the uptime series",
        || match ctrl(&b, history("uptime_s")) {
            CtrlReply::History {
                node,
                res_s,
                points,
            } => (node, res_s, points),
            other => panic!("unexpected reply {other:?}"),
        },
        || get_ok(&b, "/v1/history?metric=uptime_s&range=120"),
    );
    let (node, res_s, points) = series;
    assert_eq!(
        body,
        format!(
            "{{\"node\":{node},\"metric\":\"uptime_s\",\"res_s\":{res_s},\"points\":{}}}\n",
            points_json(&points)
        )
    );
    let (merged, body) = sandwich(
        "the cluster uptime series",
        || {
            let req = CtrlRequest::ClusterHistory {
                metric: "uptime_s".into(),
                range_s: 120,
            };
            match ctrl(&b, req) {
                CtrlReply::ClusterHistory {
                    series, missing, ..
                } => (series, missing),
                other => panic!("unexpected reply {other:?}"),
            }
        },
        || get_ok(&b, "/v1/cluster/history?metric=uptime_s&range=120"),
    );
    let (series, missing) = merged;
    assert_eq!(series.len(), 2, "{series:?}");
    assert!(missing.is_empty());
    let instances: Vec<String> = series
        .iter()
        .map(|(n, points)| {
            format!(
                "{{\"instance\":\"n{n}\",\"points\":{}}}",
                points_json(points)
            )
        })
        .collect();
    let want = format!("\"instances\":[{}],\"missing\":[]", instances.join(","));
    assert!(body.contains(&want), "{body}\nlacks\n{want}");

    // --- events: the same journal entries, by sequence number.
    let events = |limit: u32| CtrlRequest::EventsFetch { kind: None, limit };
    let seqs = |reply: CtrlReply| match reply {
        CtrlReply::Events(events) => events.iter().map(|e| e.seq.to_string()).collect::<Vec<_>>(),
        other => panic!("unexpected reply {other:?}"),
    };
    // (A watch that comes and goes journals an install and a cancel.)
    let mut s = TcpStream::connect(&b.ctrl).unwrap();
    write_msg(&mut s, &watch_request("SELECT count(*)")).unwrap();
    read_frame(&mut s).unwrap().expect("initial update");
    drop(s);
    poll("the watch is journaled", || {
        !seqs(ctrl(&b, events(1000))).is_empty()
    });
    let (journaled, body) = sandwich(
        "the journal",
        || seqs(ctrl(&b, events(1000))),
        || get_ok(&b, "/v1/events?limit=1000"),
    );
    assert_eq!(values_of(&body, "seq"), journaled);

    // --- traces: the same summaries, and the same spans for one of them.
    let list = |limit: u32| match ctrl(&b, CtrlRequest::TraceList { limit }) {
        CtrlReply::Traces(ts) => ts,
        other => panic!("unexpected reply {other:?}"),
    };
    let (listed, body) = sandwich(
        "the trace list",
        || {
            let id = |t: &moara_trace::TraceSummary| format_trace_id(t.trace_id);
            list(20).iter().map(id).collect::<Vec<_>>()
        },
        || get_ok(&b, "/v1/traces?limit=20"),
    );
    let traces = body.split("\"exemplars\":").next().unwrap();
    assert_eq!(values_of(traces, "trace_id"), listed);
    // The widest trace on record is a query's walk across both daemons.
    let trace_id = list(1000)
        .iter()
        .max_by_key(|t| t.spans)
        .expect("queries were traced")
        .trace_id;
    let (merged, body) = sandwich(
        "the query's trace",
        || match ctrl(&b, CtrlRequest::TraceGet { trace_id }) {
            CtrlReply::Trace { spans, missing } => {
                let ids = spans.iter().map(|s| format!("{:#018x}", s.span_id));
                (ids.collect::<Vec<_>>(), missing)
            }
            other => panic!("unexpected reply {other:?}"),
        },
        || get_ok(&b, &format!("/v1/trace/{}", format_trace_id(trace_id))),
    );
    let (span_ids, missing) = merged;
    assert!(span_ids.len() > 1, "a walk has several spans: {span_ids:?}");
    assert!(missing.is_empty());
    assert_eq!(values_of(&body, "span_id"), span_ids);
    assert_eq!(values_of(&body, "trace_id"), [format_trace_id(trace_id)]);

    // --- the edge cases the merge creates, one row each:
    // (request, HTTP status, what the ctrl reply for the same operation is).
    let bad_query = CtrlRequest::Query {
        text: "SELECT".into(),
    };
    let edge_cases = [
        ("/v1/history?metric=nope", 404, Some(history("nope"))),
        ("/v1/query?q=SELECT", 400, Some(bad_query)),
        ("/v1/watch?q=SELECT", 400, Some(watch_request("SELECT"))),
        ("/v1/trace/not-an-id", 400, None),
        ("/v1/history", 400, None),
    ];
    for (path, want, op) in edge_cases {
        let (status, _, body) = get(&b, path);
        assert_eq!(status, want, "GET {path}: {body}");
        let Some(op) = op else { continue };
        let CtrlReply::Error(msg) = ctrl(&b, op.clone()) else {
            panic!("{op:?} must fail over ctrl too");
        };
        assert!(body.contains(&escape(&msg)), "{body} lacks {msg:?}");
    }
    // A limit past `u32::MAX` still means "everything", never zero.
    let huge = 4_294_967_296_u64;
    let body = get_ok(&b, &format!("/v1/events?limit={huge}"));
    let newest = values_of(&body, "seq");
    assert!(!newest.is_empty(), "{body}");
    assert!(newest.contains(journaled.last().unwrap()), "{newest:?}");
    let body = get_ok(&b, &format!("/v1/traces?limit={huge}"));
    let traces = body.split("\"exemplars\":").next().unwrap();
    assert!(!values_of(traces, "trace_id").is_empty(), "{body}");
}

fn watch_request(text: &str) -> CtrlRequest {
    CtrlRequest::Watch {
        text: text.into(),
        policy: DeliveryPolicy::OnChange,
        lease_us: 5_000_000,
    }
}

fn watches(h: &Host) -> u32 {
    match ctrl(h, CtrlRequest::Status) {
        CtrlReply::Status { watches, .. } => watches,
        other => panic!("unexpected reply {other:?}"),
    }
}

#[test]
fn watches_stream_alike_over_both_ports_and_drain_after_hangup() {
    let (a, b) = cluster();
    let text = "SELECT sum(Load)";

    // The same standing query over each port of the same daemon.
    let mut framed = TcpStream::connect(&b.ctrl).unwrap();
    framed.set_read_timeout(Some(TIMEOUT)).unwrap();
    write_msg(&mut framed, &watch_request(text)).unwrap();
    let mut next_framed = move || {
        let payload = read_frame(&mut framed).unwrap().expect("stream stays open");
        match CtrlReply::from_bytes(&payload).unwrap() {
            CtrlReply::Update {
                result,
                initial,
                complete,
            } => (result, initial, complete),
            other => panic!("unexpected frame {other:?}"),
        }
    };
    let mut sse = TcpStream::connect(&b.http).unwrap();
    sse.set_read_timeout(Some(TIMEOUT)).unwrap();
    let request = format!(
        "GET /v1/watch?q={}&lease_ms=5000 HTTP/1.1\r\nHost: x\r\n\r\n",
        enc(text)
    );
    sse.write_all(request.as_bytes()).unwrap();
    let mut sse = BufReader::new(sse);
    let mut next_sse = move || loop {
        let mut line = String::new();
        assert_ne!(sse.read_line(&mut line).unwrap(), 0, "stream stays open");
        if let Some(data) = line.strip_prefix("data: ") {
            let one = |key| values_of(data, key).remove(0);
            return (
                one("result"),
                one("initial") == "true",
                one("complete") == "true",
            );
        }
    };

    // Each gets `initial` first, then the same update per change — the
    // SSE stream renders keepalives as comments, the framed one never
    // sees them.
    assert_eq!(next_framed(), ("8".to_owned(), true, true));
    assert_eq!(next_sse(), ("8".to_owned(), true, true));
    assert_eq!(watches(&b), 2);
    for load in [40, 7, 99] {
        let set = CtrlRequest::SetAttr {
            attr: "Load".into(),
            value: Value::Int(load),
        };
        assert_eq!(ctrl(&a, set), CtrlReply::Ok);
        let want = ((load + 5).to_string(), false, true);
        assert_eq!(next_framed(), want);
        assert_eq!(next_sse(), want);
    }

    // Hang up both: the daemon notices on its liveness probes, cancels
    // both subscriptions, and the standing state drains everywhere.
    drop((next_framed, next_sse));
    poll("both watches drain", || watches(&b) == 0);
    poll("standing state drains", || {
        [&a, &b].iter().all(|h| {
            matches!(
                ctrl(h, CtrlRequest::Status),
                CtrlReply::Status { sub_entries: 0, .. }
            )
        })
    });
}
