//! End-to-end tests for the gateway result cache across real `moarad`
//! processes: cross-daemon coherence (a write through one daemon's
//! gateway must invalidate another daemon's cached standing result via
//! SubDelta, not TTL) and single-flight request coalescing (N identical
//! concurrent queries cost one tree walk).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

mod support;
use support::Guard;

/// Spawns a daemon with the gateway enabled plus extra flags; returns
/// (guard, control addr, http addr).
fn spawn_moarad(join: Option<&str>, attrs: &str, extra: &[&str]) -> (Guard, String, String) {
    let mut args = vec!["--http", "127.0.0.1:0", "--attrs", attrs];
    args.extend(extra);
    if let Some(seed) = join {
        args.extend(["--join", seed]);
    }
    let (guard, banner, _) = support::spawn(&args);
    let http_addr = support::field(&banner, "http=");
    assert_ne!(http_addr, "-", "gateway must be enabled: {banner}");
    (guard, support::field(&banner, "ctrl="), http_addr)
}

/// One raw HTTP round trip on a fresh connection; returns (status code,
/// `X-Moara-Cache` header if present, body).
fn request(addr: &str, raw: &str) -> (u16, Option<String>, String) {
    let mut s = TcpStream::connect(addr).expect("connect gateway");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(raw.as_bytes()).unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    let status: u16 = out
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {out:?}"));
    let (head, body) = out.split_once("\r\n\r\n").unwrap_or((out.as_str(), ""));
    let cache = head.lines().find_map(|l| {
        l.to_ascii_lowercase()
            .strip_prefix("x-moara-cache:")
            .map(|v| v.trim().to_owned())
    });
    (status, cache, body.to_owned())
}

fn get(addr: &str, path_query: &str) -> (u16, Option<String>, String) {
    request(
        addr,
        &format!("GET {path_query} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
    )
}

fn post_attrs(addr: &str, body: &str) {
    let (status, _, resp) = request(
        addr,
        &format!(
            "POST /v1/attrs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 200, "attr write failed: {resp}");
}

/// Polls `/healthz` until the daemon reports `want` live members. An
/// answer depends on every daemon's membership view (a tree root that
/// has not yet learned of a member leaves it out), so tests wait on all
/// of them.
fn wait_alive(addr: &str, want: u32) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _, body) = get(addr, "/healthz");
        if status == 200 && body.contains(&format!("\"alive\":{want}")) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "gateway {addr} never reported {want} alive members (last: {body:?})"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn enc(q: &str) -> String {
    q.replace('%', "%25")
        .replace(' ', "%20")
        .replace('=', "%3D")
        .replace('<', "%3C")
}

/// Reads one named counter out of a daemon's `/metrics` exposition.
fn metric(addr: &str, name: &str) -> u64 {
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {name} in metrics of {addr}"))
}

/// The tentpole's coherence story, across processes: daemon A serves a
/// hot query from a cache backed by a standing subscription; a write
/// through daemon B's gateway must flow back as a SubDelta that flips
/// A's next answer to a fresh walk (`hit → miss`), after which the
/// revalidated entry serves hits again with the NEW value — and at no
/// point may a cache hit carry a value the cluster never held.
#[test]
fn write_via_peer_invalidates_cached_read() {
    let (_a, a_ctrl, a_http) = spawn_moarad(
        None,
        "ServiceX=true,CPU-Util=10",
        &["--cache-promote-after", "2"],
    );
    let (_b, _, b_http) = spawn_moarad(Some(&a_ctrl), "ServiceX=false,CPU-Util=90", &[]);
    let (_c, _, c_http) = spawn_moarad(Some(&a_ctrl), "ServiceX=true,CPU-Util=30", &[]);
    for addr in [&a_http, &b_http, &c_http] {
        wait_alive(addr, 3);
    }

    let path = format!(
        "/v1/query?q={}",
        enc("SELECT count(*) WHERE ServiceX = true")
    );

    // Warm A: repeat the query until it crosses the promotion threshold,
    // the subscription installs and syncs, and A answers from memory.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, cache, body) = get(&a_http, &path);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"result\":\"2\""), "wrong answer: {body}");
        if cache.as_deref() == Some("hit") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cache never warmed (last marker {cache:?})"
        );
        std::thread::sleep(Duration::from_millis(30));
    }
    assert!(metric(&a_http, "moara_gateway_cache_promotions_total") >= 1);

    // Write through B's gateway: B joins the group, the count becomes 3.
    post_attrs(&b_http, "ServiceX=true");

    // A's next answers: stale hits ("2") are permitted only until the
    // SubDelta lands; the FIRST response carrying "3" must be a walk
    // ("miss" — the delta invalidated the entry), and afterwards the
    // revalidated entry must serve "3" as hits. No response may carry
    // any other value, and a hit may never show "3" before a walk did.
    let deadline = Instant::now() + Duration::from_secs(30);
    let first_fresh = loop {
        let (status, cache, body) = get(&a_http, &path);
        assert_eq!(status, 200, "{body}");
        if body.contains("\"result\":\"3\"") {
            break cache;
        }
        assert!(
            body.contains("\"result\":\"2\""),
            "incoherent answer: {body}"
        );
        assert_eq!(
            cache.as_deref(),
            Some("hit"),
            "a stale '2' after the write can only come from the cache"
        );
        assert!(
            Instant::now() < deadline,
            "write never reached A's read path"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(
        first_fresh.as_deref(),
        Some("miss"),
        "the first fresh answer must be a walk forced by the SubDelta"
    );
    assert!(metric(&a_http, "moara_gateway_cache_invalidations_total") >= 1);

    // The revalidated standing result serves hits again — with the new
    // value this time.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, cache, body) = get(&a_http, &path);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"result\":\"3\""), "regressed: {body}");
        if cache.as_deref() == Some("hit") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cache never re-warmed after invalidation"
        );
        std::thread::sleep(Duration::from_millis(30));
    }
}

/// Single-flight dedup: N identical queries arriving together must cost
/// one tree walk — one `miss`, N−1 `coalesced` — and all N clients get
/// the same correct answer. Promotion is pushed out of reach so the
/// volley exercises dedup, not the cache.
#[test]
fn concurrent_identical_queries_walk_once() {
    let (_a, a_ctrl, a_http) = spawn_moarad(
        None,
        "ServiceX=true,CPU-Util=10",
        &["--cache-promote-after", "1000"],
    );
    let (_b, _, b_http) = spawn_moarad(Some(&a_ctrl), "ServiceX=false,CPU-Util=90", &[]);
    let (_c, _, c_http) = spawn_moarad(Some(&a_ctrl), "ServiceX=true,CPU-Util=30", &[]);
    for addr in [&a_http, &b_http, &c_http] {
        wait_alive(addr, 3);
    }

    const CLIENTS: usize = 8;
    // A volley can split into two walks if a straggler arrives after the
    // first walk finished; retry with a fresh query text (a fresh cache
    // key) until one volley lands in a single walk.
    for attempt in 0..5 {
        // CPU-Util 10 and 30 pass any threshold 40..=49; 90 never does —
        // each attempt is a distinct query text with the same answer.
        let q = format!("SELECT count(*) WHERE CPU-Util < {}", 40 + attempt);
        let path = format!("/v1/query?q={}", enc(&q));
        let raw = format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");

        // Pre-connect all clients, then release them together.
        let barrier = Arc::new(Barrier::new(CLIENTS));
        let mut workers = Vec::new();
        for _ in 0..CLIENTS {
            let addr = a_http.clone();
            let raw = raw.clone();
            let barrier = barrier.clone();
            workers.push(std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).expect("connect");
                s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                barrier.wait();
                s.write_all(raw.as_bytes()).unwrap();
                let mut out = String::new();
                let _ = s.read_to_string(&mut out);
                out
            }));
        }
        let mut misses = 0;
        let mut coalesced = 0;
        for w in workers {
            let resp = w.join().expect("client thread");
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
            assert!(resp.contains("\"result\":\"2\""), "wrong answer: {resp}");
            match resp {
                r if r.contains("X-Moara-Cache: miss") => misses += 1,
                r if r.contains("X-Moara-Cache: coalesced") => coalesced += 1,
                r => panic!("no cache marker in {r}"),
            }
        }
        assert_eq!(misses + coalesced, CLIENTS);
        assert!(misses >= 1, "someone must have walked");
        if misses == 1 {
            assert_eq!(coalesced, CLIENTS - 1, "all others share the one walk");
            return;
        }
    }
    panic!("five volleys of {CLIENTS} identical queries never coalesced into one walk");
}
