//! End-to-end HTTP edge test: three real `moarad` processes with
//! `--http` form a cluster, and everything is exercised over raw
//! sockets speaking HTTP/1.1 — queries, attribute writes, an SSE watch
//! stream fed by attribute churn, health, and the Prometheus exposition.
//! No HTTP client library, no curl: CI runs this as the gateway gate.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

mod support;

/// Spawns a daemon with the gateway enabled; returns (guard, control
/// addr, http addr).
fn spawn_moarad(http: &str, join: Option<&str>, attrs: &str) -> (support::Guard, String, String) {
    let mut args = vec!["--http", http, "--attrs", attrs];
    if let Some(seed) = join {
        args.extend(["--join", seed]);
    }
    let (guard, banner, _) = support::spawn(&args);
    let http_addr = support::field(&banner, "http=");
    assert_ne!(http_addr, "-", "gateway must be enabled: {banner}");
    (guard, support::field(&banner, "ctrl="), http_addr)
}

/// One raw HTTP round trip on a fresh connection; returns the full
/// response (status line, headers, body).
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

/// Percent-encoding for the quickstart query (spaces, `*`, `=` survive
/// raw in practice but encode the spaces to stay well-formed).
fn enc(q: &str) -> String {
    q.replace('%', "%25")
        .replace(' ', "%20")
        .replace('=', "%3D")
}

#[test]
fn http_cluster_serves_query_attrs_watch_and_metrics() {
    let (_a, a_ctrl, a_http) = spawn_moarad("127.0.0.1:0", None, "ServiceX=true,CPU-Util=10");
    let (_b, _, b_http) = spawn_moarad("127.0.0.1:0", Some(&a_ctrl), "ServiceX=false,CPU-Util=90");
    let (_c, _, c_http) = spawn_moarad("127.0.0.1:0", Some(&a_ctrl), "ServiceX=true,CPU-Util=30");
    for addr in [&a_http, &b_http, &c_http] {
        wait_alive(addr, 3);
    }

    // --- GET /v1/query through the non-member daemon: the answer must
    // come over the wire from the other two.
    let q = enc("SELECT count(*) WHERE ServiceX = true");
    let resp = get(&b_http, &format!("/v1/query?q={q}"));
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(
        body_of(&resp).contains("\"result\":\"2\",\"complete\":true"),
        "{resp}"
    );

    // --- POST /v1/attrs: B joins the group over HTTP; any daemon now
    // counts three members.
    let body = "ServiceX=true";
    let resp = http(
        &b_http,
        &format!(
            "POST /v1/attrs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(body_of(&resp).contains("\"set\":1"), "{resp}");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let resp = get(&c_http, &format!("/v1/query?q={q}"));
        if body_of(&resp).contains("\"result\":\"3\"") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "attribute change never reached the query plane: {resp}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // --- GET /v1/watch: an SSE stream that must push one frame per
    // standing-query change while attributes churn over HTTP.
    let mut watch = TcpStream::connect(&c_http).expect("connect watch");
    watch
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    watch
        .write_all(
            format!("GET /v1/watch?q={q}&lease_ms=5000 HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes(),
        )
        .unwrap();
    let mut reader = BufReader::new(watch);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("HTTP/1.1 200"), "{line}");
    loop {
        let mut l = String::new();
        reader.read_line(&mut l).unwrap();
        if l == "\r\n" {
            break; // headers done
        }
        if l.to_ascii_lowercase().starts_with("content-type:") {
            assert!(l.contains("text/event-stream"), "{l}");
        }
    }
    // First frame: the initial standing result (3).
    let read_data_frame = |reader: &mut BufReader<TcpStream>| -> String {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            assert!(Instant::now() < deadline, "no SSE frame in time");
            let mut l = String::new();
            match reader.read_line(&mut l) {
                Ok(0) => panic!("SSE stream closed early"),
                Ok(_) => {
                    if let Some(data) = l.strip_prefix("data: ") {
                        return data.trim_end().to_owned();
                    }
                    // keepalive comments and blank separators fall through
                }
                Err(e) => panic!("SSE read error: {e}"),
            }
        }
    };
    let initial = read_data_frame(&mut reader);
    assert!(initial.contains("\"initial\":true"), "{initial}");
    assert!(initial.contains("\"result\":\"3\""), "{initial}");

    // Two attribute churns → at least two more SSE frames.
    for (value, expect) in [("false", "\"result\":\"2\""), ("true", "\"result\":\"3\"")] {
        let body = format!("ServiceX={value}");
        let resp = http(
            &b_http,
            &format!(
                "POST /v1/attrs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let frame = read_data_frame(&mut reader);
        assert!(frame.contains("\"initial\":false"), "{frame}");
        assert!(frame.contains(expect), "{frame}");
    }
    drop(reader); // hang up: the daemon must cancel the subscription

    // --- GET /metrics: live counters from at least four subsystems.
    let resp = get(&c_http, "/metrics");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("text/plain; version=0.0.4"), "{resp}");
    let metrics = body_of(&resp);
    for series in [
        "moara_transport_messages_sent_total ",
        "moara_sched_probe_cache_hits_total ",
        "moara_membership_alive 3",
        "moara_subscribe_deltas_total ",
        "moara_gateway_requests_total{endpoint=\"query\"}",
        "moara_up 1",
    ] {
        assert!(metrics.contains(series), "missing {series} in:\n{metrics}");
    }
    // The cluster has been exchanging traffic for seconds; the transport
    // counter must be live, not a rendered zero.
    let sent: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("moara_transport_messages_sent_total "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(sent > 0, "transport counters must be live");

    // --- The cancelled watch must drain: no standing watches left on C.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let resp = get(&c_http, "/metrics");
        let m = body_of(&resp);
        let watches = m
            .lines()
            .find_map(|l| l.strip_prefix("moara_subscribe_watches "))
            .and_then(|v| v.parse::<u64>().ok());
        if watches == Some(0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "hung-up watch never cancelled: {watches:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // --- Error surface: unknown endpoint and bad query both answer 4xx.
    assert!(get(&a_http, "/nope").starts_with("HTTP/1.1 404"));
    let resp = get(&a_http, "/v1/query?q=%28%28%28");
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
}
