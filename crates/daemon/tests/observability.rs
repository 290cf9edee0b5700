//! Observability-plane e2e: real `moarad` processes over real sockets.
//!
//! * A composite query through a 3-daemon TCP cluster yields one trace
//!   whose merged span tree covers all three daemons with parse / plan /
//!   fan-out / fold phases and per-hop queue vs service time, rendered
//!   both by `GET /v1/trace/{id}` and by `moara-cli trace`.
//! * `/metrics` is a conformant Prometheus exposition carrying at least
//!   four histogram families.
//! * `--access-log` and `--slow-query-ms` emit one JSON line per event
//!   on stderr.
//! * A trace cut by a crashed daemon still renders, with the lost
//!   subtree in the `missing` list, within bounded time — no hang.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod support;
use support::Guard;

/// Spawns a daemon with the gateway enabled plus any extra flags;
/// returns (guard, control addr, http addr, collected stderr lines).
fn spawn_moarad(
    join: Option<&str>,
    attrs: &str,
    extra: &[&str],
) -> (Guard, String, String, Arc<Mutex<Vec<String>>>) {
    let mut args = vec!["--http", "127.0.0.1:0", "--attrs", attrs];
    args.extend(extra);
    if let Some(seed) = join {
        args.extend(["--join", seed]);
    }
    let (guard, banner, logs) = support::spawn(&args);
    let http_addr = support::field(&banner, "http=");
    assert_ne!(http_addr, "-", "gateway must be enabled: {banner}");
    (guard, support::field(&banner, "ctrl="), http_addr, logs)
}

/// One raw HTTP round trip on a fresh connection.
fn http(addr: &str, raw: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect gateway");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(raw.as_bytes()).unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

fn get(addr: &str, path_query: &str) -> String {
    http(
        addr,
        &format!("GET {path_query} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
    )
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

/// Polls `/healthz` until the daemon reports `want` live members.
fn wait_alive(addr: &str, want: u32) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = get(addr, "/healthz");
        if resp.starts_with("HTTP/1.1 200") && body_of(&resp).contains(&format!("\"alive\":{want}"))
        {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "gateway {addr} never reported {want} alive members (last: {resp:?})"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn enc(q: &str) -> String {
    q.replace('%', "%25")
        .replace(' ', "%20")
        .replace('=', "%3D")
}

/// Runs the quickstart composite query through `http_addr` and returns
/// the trace id the front-end assigned it, discovered via `/v1/traces`.
fn run_traced_query(http_addr: &str, expect_count: &str) -> String {
    let q = enc("SELECT count(*) WHERE a = true AND b = true");
    let resp = get(http_addr, &format!("/v1/query?q={q}"));
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(
        body_of(&resp).contains(&format!("\"result\":\"{expect_count}\",\"complete\":true")),
        "{resp}"
    );
    // The front-end's own store lists the trace; query traces have a
    // `parse` root phase (SWIM ping traces also live here — skip them).
    let resp = get(http_addr, "/v1/traces?limit=100");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    let body = body_of(&resp);
    body.split("{\"trace_id\":\"")
        .skip(1)
        .filter_map(|item| {
            let id = item.split('"').next()?;
            item.contains("\"phase\":\"parse\"").then(|| id.to_owned())
        })
        .last()
        .unwrap_or_else(|| panic!("no query trace in /v1/traces: {body}"))
}

#[test]
fn composite_query_trace_spans_all_three_daemons() {
    let (_a, a_ctrl, _a_http, _) = spawn_moarad(None, "a=true,b=true", &[]);
    let (_b, b_ctrl, b_http, _) = spawn_moarad(Some(&a_ctrl), "a=true,b=true", &[]);
    let (_c, _, c_http, _) = spawn_moarad(Some(&a_ctrl), "a=true,b=true", &[]);
    for addr in [&_a_http, &b_http, &c_http] {
        wait_alive(addr, 3);
    }

    let trace_id = run_traced_query(&b_http, "3");

    // The merged span tree (gathered over control sockets from all
    // daemons) must cover every node with the full phase ladder. Remote
    // spans are recorded as replies arrive, so poll briefly.
    let deadline = Instant::now() + Duration::from_secs(20);
    let body = loop {
        let resp = get(&b_http, &format!("/v1/trace/{trace_id}"));
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let body = body_of(&resp).to_owned();
        let all_nodes = (0..3).all(|n| body.contains(&format!("\"node\":{n},")));
        let all_phases = ["parse", "plan", "fan-out", "fold"]
            .iter()
            .all(|p| body.contains(&format!("\"phase\":\"{p}\"")));
        if body.contains("\"complete\":true") && all_nodes && all_phases {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "merged trace never covered the cluster: {body}"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    // Per-hop cost split: both sides of queue-wait vs service time.
    assert!(body.contains("\"queue_us\":"), "{body}");
    assert!(body.contains("\"service_us\":"), "{body}");
    assert!(
        body.contains(&format!("\"trace_id\":\"{trace_id}\"")),
        "{body}"
    );
    assert!(body.contains("\"missing\":[]"), "{body}");

    // `moara-cli trace` renders the same tree as a text waterfall — and
    // the gather works from a daemon that was NOT the front-end.
    let out = Command::new(env!("CARGO_BIN_EXE_moara-cli"))
        .args(["--connect", &a_ctrl, "trace", &trace_id])
        .output()
        .expect("run moara-cli trace");
    assert!(out.status.success(), "{out:?}");
    let waterfall = String::from_utf8_lossy(&out.stdout);
    assert!(waterfall.contains(&trace_id), "{waterfall}");
    for phase in ["parse", "plan", "fan-out", "fold"] {
        assert!(
            waterfall.contains(phase),
            "missing {phase} in:\n{waterfall}"
        );
    }

    // `moara-cli traces` lists it, and `status --json` carries the
    // metrics snapshot.
    let out = Command::new(env!("CARGO_BIN_EXE_moara-cli"))
        .args(["--connect", &b_ctrl, "traces"])
        .output()
        .expect("run moara-cli traces");
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains(&trace_id),
        "{out:?}"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_moara-cli"))
        .args(["--connect", &b_ctrl, "status", "--json"])
        .output()
        .expect("run moara-cli status");
    assert!(out.status.success(), "{out:?}");
    let status = String::from_utf8_lossy(&out.stdout);
    assert!(status.contains("\"metrics\":{"), "{status}");
    assert!(status.contains("\"event_loop_ticks_total\":"), "{status}");
    assert!(status.contains("\"trace_spans\":"), "{status}");
}

#[test]
fn metrics_exposition_is_conformant_and_has_histograms() {
    let (_a, _, a_http, _) = spawn_moarad(None, "a=true,b=true", &[]);
    wait_alive(&a_http, 1);
    // Drive every latency family at least once before scraping.
    let q = enc("SELECT count(*) WHERE a = true");
    assert!(get(&a_http, &format!("/v1/query?q={q}")).starts_with("HTTP/1.1 200"));
    assert!(get(&a_http, "/v1/traces").starts_with("HTTP/1.1 200"));

    let resp = get(&a_http, "/metrics");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    let metrics = body_of(&resp);

    // The whole scrape must pass the exposition-format lint: HELP/TYPE
    // exactly once per family, monotone cumulative buckets, a +Inf
    // bucket equal to _count, no duplicate samples.
    moara_gateway::lint_exposition(metrics).unwrap_or_else(|e| {
        panic!("non-conformant exposition: {e}\n{metrics}");
    });

    let histogram_families: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("# TYPE") && l.ends_with("histogram"))
        .collect();
    assert!(
        histogram_families.len() >= 4,
        "expected >=4 histogram families, got {histogram_families:?}"
    );
    for family in [
        "moara_query_phase_latency_us",
        "moara_gateway_request_latency_us",
        "moara_event_loop_tick_us",
        "moara_event_loop_jobs_per_tick",
        "moara_subscribe_delta_lag_us",
    ] {
        assert!(
            metrics.contains(&format!("# TYPE {family} histogram")),
            "missing histogram family {family} in:\n{metrics}"
        );
    }
    // The phase histograms carry labelled series with live counts.
    assert!(
        metrics.contains("moara_query_phase_latency_us_count{phase=\"parse\"}"),
        "{metrics}"
    );
    // The tick histogram must have observed real event-loop work.
    let ticks: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("moara_event_loop_tick_us_count "))
        .expect("tick histogram count")
        .parse()
        .unwrap();
    assert!(ticks > 0, "event loop must have profiled ticks");
}

#[test]
fn slow_query_and_access_logs_emit_json_lines() {
    let (_a, _, a_http, logs) = spawn_moarad(
        None,
        "a=true,b=true",
        &["--slow-query-ms", "0", "--access-log"],
    );
    wait_alive(&a_http, 1);
    let q = enc("SELECT count(*) WHERE a = true");
    assert!(get(&a_http, &format!("/v1/query?q={q}")).starts_with("HTTP/1.1 200"));

    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let lines = logs.lock().unwrap().clone();
        let slow = lines
            .iter()
            .find(|l| l.contains("\"slow_query\":true") && l.contains("\"q\":\"SELECT count(*)"));
        let access = lines.iter().find(|l| {
            l.contains("\"method\":\"GET\"")
                && l.contains("\"path\":\"/v1/query\"")
                && l.contains("\"status\":200")
        });
        if let (Some(slow), Some(access)) = (slow, access) {
            // Threshold 0 logs every query; a traced one links its id.
            assert!(slow.contains("\"trace_id\":\"0x"), "{slow}");
            assert!(slow.contains("\"duration_us\":"), "{slow}");
            assert!(access.contains("\"duration_us\":"), "{access}");
            assert!(access.contains("\"peer\":\"127.0.0.1:"), "{access}");
            return;
        }
        assert!(
            Instant::now() < deadline,
            "expected slow-query + access log lines, got {lines:#?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn crashed_daemon_marks_trace_subtree_missing_without_hanging() {
    let (_a, a_ctrl, a_http, _) = spawn_moarad(None, "a=true,b=true", &[]);
    let (_b, _, b_http, _) = spawn_moarad(Some(&a_ctrl), "a=true,b=true", &[]);
    let (c, _, c_http, _) = spawn_moarad(Some(&a_ctrl), "a=true,b=true", &[]);
    for addr in [&a_http, &b_http, &c_http] {
        wait_alive(addr, 3);
    }

    let trace_id = run_traced_query(&a_http, "3");

    // Kill the third daemon: its span store (and the subtree it held)
    // is gone. The merge must come back quickly with that node in
    // `missing` — never hang on the dead control socket.
    drop(c);
    let started = Instant::now();
    let deadline = started + Duration::from_secs(20);
    loop {
        let resp = get(&a_http, &format!("/v1/trace/{trace_id}"));
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let body = body_of(&resp).to_owned();
        if body.contains("\"complete\":false") && body.contains("\"missing\":[2]") {
            // The surviving daemons' spans still render the cut tree.
            assert!(body.contains("\"phase\":\"parse\""), "{body}");
            assert!(body.contains("\"phase\":\"fan-out\""), "{body}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "trace merge never marked the crashed daemon missing: {body}"
        );
        std::thread::sleep(Duration::from_millis(200));
    }

    // The CLI renders the partial waterfall and signals partiality via
    // exit code 3 (distinct from hard failure).
    let out = Command::new(env!("CARGO_BIN_EXE_moara-cli"))
        .args(["--connect", &a_ctrl, "trace", &trace_id])
        .output()
        .expect("run moara-cli trace");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let waterfall = String::from_utf8_lossy(&out.stdout);
    assert!(waterfall.contains(&trace_id), "{waterfall}");
}
