//! End-to-end tests for the gateway's epoll reactor and middleware
//! stack against real `moarad` processes: request-smuggling rejection
//! (with a pipelined-desync proof), per-peer rate limiting (429),
//! per-request deadlines (408), ten thousand idle keep-alive
//! connections on one daemon, and SSE hang-up draining standing watch
//! state across a cluster.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

mod support;
use support::Guard;

/// Spawns a daemon with the gateway enabled plus any extra flags;
/// returns (guard, control addr, http addr).
fn spawn_moarad(join: Option<&str>, extra: &[&str]) -> (Guard, String, String) {
    let mut args = vec!["--http", "127.0.0.1:0", "--attrs", "ServiceX=true"];
    args.extend(extra);
    if let Some(seed) = join {
        args.extend(["--join", seed]);
    }
    let (guard, banner, _) = support::spawn(&args);
    let http_addr = support::field(&banner, "http=");
    assert_ne!(http_addr, "-", "gateway must be enabled: {banner}");
    (guard, support::field(&banner, "ctrl="), http_addr)
}

/// One raw HTTP round trip on a fresh connection; returns the full
/// response bytes read until the server closes.
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

/// One round trip on a connection that stays open: the status code and
/// the `Content-Length` body.
fn keep_alive_get(conn: &mut BufReader<TcpStream>, path_query: &str) -> (u16, String) {
    conn.get_mut()
        .write_all(format!("GET {path_query} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .expect("send request");
    let mut line = String::new();
    conn.read_line(&mut line).expect("status line");
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("no status in {line:?}"));
    let mut length = 0;
    loop {
        line.clear();
        conn.read_line(&mut line).expect("header line");
        if line == "\r\n" {
            break;
        }
        if let Some(v) = line.strip_prefix("Content-Length:") {
            length = v.trim().parse().expect("numeric Content-Length");
        }
    }
    let mut body = vec![0; length];
    conn.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

/// One gauge/counter value out of a `/metrics` exposition.
fn metric(exposition: &str, name: &str) -> Option<f64> {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.parse().ok())
}

/// The smuggling surface, end to end: `Transfer-Encoding` answers 501
/// and closes (so the chunked body's embedded request is never parsed),
/// conflicting `Content-Length` answers 400 and closes, and a rejected
/// request's body is drained so the keep-alive connection stays in sync.
#[test]
fn smuggling_vectors_are_rejected_end_to_end() {
    let (_d, _, addr) = spawn_moarad(None, &[]);

    // TE desync proof: with the old ignore-the-header behavior, the
    // chunked body stayed in the buffer and the embedded
    // `GET /v1/query?q=evil` would have executed as a second request.
    let resp = http(
        &addr,
        "POST /v1/attrs HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n\
         5\r\nA=1&B\r\n0\r\n\r\n\
         GET /v1/query?q=evil HTTP/1.1\r\nHost: x\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 501 "), "{resp}");
    assert_eq!(
        resp.matches("HTTP/1.1").count(),
        1,
        "connection must close after 501, no second response: {resp}"
    );

    // CL.CL: conflicting duplicate Content-Length is a hard 400 + close.
    let resp = http(
        &addr,
        "POST /v1/attrs HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nContent-Length: 30\r\n\r\nA=1",
    );
    assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
    assert_eq!(resp.matches("HTTP/1.1").count(), 1, "{resp}");

    // A rejected-by-routing request's body must not desync the next
    // pipelined request.
    let resp = http(
        &addr,
        "POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello\
         GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 404 "), "{resp}");
    assert!(resp.contains("HTTP/1.1 200 OK\r\n"), "{resp}");
    assert!(body_of(&resp).contains("\"status\":\"ok\""), "{resp}");

    // The smuggled query never reached the router, let alone the daemon.
    let resp = get(&addr, "/metrics");
    assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
    let m = body_of(&resp);
    assert_eq!(
        metric(m, "moara_gateway_requests_total{endpoint=\"query\"}"),
        Some(0.0),
        "smuggled query must never execute:\n{m}"
    );
}

/// `--gw-rate-limit` answers 429 once the peer's burst is spent, and the
/// rejection is counted in `/metrics`.
#[test]
fn rate_limit_answers_429_over_real_daemon() {
    let (_d, _, addr) = spawn_moarad(None, &["--gw-rate-limit", "5"]);

    // Burst auto-sizes to 2×rate = 10 tokens; 14 rapid requests must
    // spill past it.
    let mut ok = 0;
    let mut limited = 0;
    for _ in 0..14 {
        let resp = get(&addr, "/healthz");
        if resp.starts_with("HTTP/1.1 200 ") {
            ok += 1;
        } else if resp.starts_with("HTTP/1.1 429 ") {
            limited += 1;
        } else {
            panic!("unexpected response: {resp}");
        }
    }
    assert!(ok >= 1, "the burst must admit something (ok={ok})");
    assert!(
        limited >= 1,
        "the bucket must reject past the burst (ok={ok})"
    );

    // Let the bucket refill enough to admit the scrape, then check the
    // counter surfaced.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        std::thread::sleep(Duration::from_millis(500));
        let resp = get(&addr, "/metrics");
        if resp.starts_with("HTTP/1.1 200 ") {
            let m = body_of(&resp);
            let counted = metric(m, "moara_gateway_rate_limited_total").unwrap_or(0.0);
            assert!(counted >= f64::from(limited), "{counted} < {limited}:\n{m}");
            break;
        }
        assert!(Instant::now() < deadline, "metrics never admitted: {resp}");
    }
}

/// `--gw-request-timeout-ms` expires a query the daemon cannot finish in
/// time and leaves the ones it can alone: with a group member freshly
/// killed (nobody has noticed yet), a walk waits on it far longer than
/// 100 ms and the gateway answers 408, while `/healthz` — one trip
/// through the same event loop — fits the same deadline with room to
/// spare. (The loop is woken by the request, so a healthy round trip is
/// well under a millisecond; no deadline a flag can express catches it.)
#[test]
fn request_deadline_answers_408_over_real_daemon() {
    let flags = ["--gw-request-timeout-ms", "100", "--no-query-cache"];
    let (_a, seed_ctrl, a_http) = spawn_moarad(None, &flags);
    let (mut b, _, _) = spawn_moarad(Some(&seed_ctrl), &[]);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = get(&a_http, "/healthz");
        assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
        if body_of(&resp).contains("\"alive\":2") {
            break;
        }
        assert!(Instant::now() < deadline, "cluster never formed: {resp}");
        std::thread::sleep(Duration::from_millis(50));
    }
    let query = "/v1/query?q=SELECT%20count(*)%20WHERE%20ServiceX%20%3D%20true";
    let resp = get(&a_http, query);
    assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
    assert!(body_of(&resp).contains("\"result\":\"2\""), "{resp}");

    b.0.kill().expect("SIGKILL daemon b");
    b.0.wait().expect("reap daemon b");
    let resp = get(&a_http, query);
    assert!(resp.starts_with("HTTP/1.1 408 "), "{resp}");
}

/// The reactor's reason to exist: one daemon holds 10k idle keep-alive
/// connections and stays responsive on `/healthz` throughout, answers
/// uncached queries correctly on a live connection while they are
/// parked — and the parked connections themselves still serve when
/// spoken to.
#[test]
fn ten_thousand_idle_connections_stay_responsive() {
    // Idle timeout raised above the test's worst-case runtime so a slow
    // machine cannot get the early waves reaped before the sample; cache
    // off so that every query below is a walk through the event loop.
    let flags = ["--gw-idle-timeout-ms", "600000", "--no-query-cache"];
    let (_d, _, addr) = spawn_moarad(None, &flags);

    let mut idle: Vec<TcpStream> = Vec::with_capacity(10_000);
    for wave in 0..20 {
        for _ in 0..500 {
            idle.push(TcpStream::connect(&addr).expect("connect idle"));
        }
        // After every wave the gateway must still answer promptly.
        let resp = get(&addr, "/healthz");
        assert!(resp.starts_with("HTTP/1.1 200 "), "wave {wave}: {resp}");
    }
    assert_eq!(idle.len(), 10_000);

    // The herd is parked, not in the way: request after request on one
    // more keep-alive connection crosses the same reactor and the event
    // loop, and every answer is the right one.
    let live = TcpStream::connect(&addr).expect("connect live");
    live.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut live = BufReader::new(live);
    for i in 0..200 {
        let (status, body) = keep_alive_get(
            &mut live,
            "/v1/query?q=SELECT%20count(*)%20WHERE%20ServiceX%20%3D%20true",
        );
        assert_eq!(status, 200, "query {i}: {body}");
        assert_eq!(body, "{\"result\":\"1\",\"complete\":true}\n", "query {i}");
    }

    // The parked connections are live state machines, not just open fds:
    // a sample of them serves requests.
    for i in [0usize, 2_500, 5_000, 7_500, 9_999] {
        let s = &mut idle[i];
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 200 "), "conn {i}: {out}");
    }

    // The gauge saw them all (5 sampled conns closed above).
    let resp = get(&addr, "/metrics");
    let m = body_of(&resp);
    let open = metric(m, "moara_gateway_open_connections").unwrap_or(0.0);
    assert!(open >= 9_000.0, "open_connections={open}\n");
    let accepted = metric(m, "moara_gateway_connections_accepted_total").unwrap_or(0.0);
    assert!(accepted >= 10_000.0, "accepted={accepted}");
}

/// Abrupt SSE hang-ups under the reactor still tear standing watch state
/// down to zero on every daemon (the `concurrent_ctrl` invariant, over
/// HTTP): the daemon notices the dead sink, cancels the subscription,
/// and peers GC their entries.
#[test]
fn sse_hangup_drains_watch_state_across_the_cluster() {
    // --no-query-cache so cache-promoted standing subscriptions cannot
    // muddy the zero-watches assertion.
    let (_a, seed_ctrl, a_http) = spawn_moarad(None, &["--no-query-cache"]);
    let (_b, _, b_http) = spawn_moarad(Some(&seed_ctrl), &["--no-query-cache"]);
    let (_c, _, c_http) = spawn_moarad(Some(&seed_ctrl), &["--no-query-cache"]);
    let daemons = [&a_http, &b_http, &c_http];

    // Wait for full membership.
    let deadline = Instant::now() + Duration::from_secs(30);
    for addr in daemons {
        loop {
            let resp = get(addr, "/healthz");
            if body_of(&resp).contains("\"alive\":3") {
                break;
            }
            assert!(Instant::now() < deadline, "cluster never formed: {resp}");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    // One SSE stream per daemon; each must deliver its initial frame
    // (proving the standing query is installed) before we hang up.
    let mut streams = Vec::new();
    for addr in daemons {
        let mut s = TcpStream::connect(addr).expect("connect watch");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(
            b"GET /v1/watch?q=SELECT%20count(*)%20WHERE%20ServiceX%20%3D%20true&lease_ms=5000 \
              HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        .unwrap();
        let mut reader = BufReader::new(s);
        let frame_deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("SSE read");
            if line.starts_with("data: ") {
                assert!(line.contains("\"initial\":true"), "{line}");
                break;
            }
            assert!(Instant::now() < frame_deadline, "no initial frame");
        }
        streams.push(reader);
    }

    // Abrupt hang-up: drop all three sockets without any protocol nicety.
    drop(streams);

    // Every daemon must drain to zero watches and zero standing entries.
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    for addr in daemons {
        loop {
            let resp = get(addr, "/metrics");
            let m = body_of(&resp);
            let watches = metric(m, "moara_subscribe_watches");
            let entries = metric(m, "moara_subscribe_entries");
            if watches == Some(0.0) && entries == Some(0.0) {
                break;
            }
            assert!(
                Instant::now() < drain_deadline,
                "daemon {addr} leaked watches={watches:?} entries={entries:?}"
            );
            std::thread::sleep(Duration::from_millis(100));
        }
        // And the gateway's stream gauge agrees.
        let resp = get(addr, "/metrics");
        assert_eq!(
            metric(body_of(&resp), "moara_gateway_open_streams"),
            Some(0.0)
        );
    }
}
