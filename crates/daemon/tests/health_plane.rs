//! Cluster health-plane e2e: real `moarad` processes over real sockets.
//!
//! * `GET /v1/cluster/health` on ANY daemon asks every member for its
//!   health sample and renders the member table with each answer.
//! * `GET /v1/cluster/metrics` federates every peer's Prometheus scrape
//!   into one instance-labeled exposition that passes the lint.
//! * `kill -9` on a member: the survivors mark it `stale` (no answer)
//!   and then `dead` (SWIM confirm), the `dead_members` alert
//!   fires — visible in `/v1/alerts`, `/metrics`, and a stderr JSON
//!   line — and the federated scrape reports the peer as missing.
//! * `moara-cli top --once` renders the dashboard; `status --json`
//!   carries the latency-bucket trace exemplars.

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
    extra: &[&str],
) -> (Guard, String, String, Arc<Mutex<Vec<String>>>) {
    let mut args = vec!["--http", "127.0.0.1:0", "--attrs", "ServiceX=true"];
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
fn get(addr: &str, path_query: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect gateway");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(
        format!("GET {path_query} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
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

/// The status string of member `node` in a `/v1/cluster/health` body
/// (`None` until the member appears).
fn member_status(body: &str, node: u32) -> Option<String> {
    let needle = format!("{{\"node\":{node},\"status\":\"");
    let at = body.find(&needle)? + needle.len();
    Some(body[at..].split('"').next().unwrap_or("").to_owned())
}

/// Polls `/v1/cluster/health` on `addr` until every listed member shows
/// status `ok` with the summary it answered.
fn wait_health_table_ok(addr: &str, members: &[u32]) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = get(addr, "/v1/cluster/health");
        let body = body_of(&resp);
        let all_ok = resp.starts_with("HTTP/1.1 200")
            && members
                .iter()
                .all(|&n| member_status(body, n).as_deref() == Some("ok"))
            && !body.contains("\"summary\":null");
        if all_ok {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "health table on {addr} never converged: {body}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// The full plane on a healthy cluster: every member answers the health
/// table's read, a single daemon federates the whole cluster's
/// metrics into one lint-clean instance-labeled exposition, `/v1/alerts`
/// answers, `moara-cli top --once` renders the table, and `status
/// --json` carries trace exemplars.
#[test]
fn single_daemon_serves_cluster_wide_health_and_metrics() {
    let swim = ["--swim-period-ms", "200"];
    let (_a, a_ctrl, a_http, _) = spawn_moarad(None, &swim);
    let (_b, _, b_http, _) = spawn_moarad(Some(&a_ctrl), &swim);
    let (_c, _, c_http, _) = spawn_moarad(Some(&a_ctrl), &swim);
    for addr in [&a_http, &b_http, &c_http] {
        wait_alive(addr, 3);
    }

    // Every member answers; the table fills in.
    wait_health_table_ok(&a_http, &[0, 1, 2]);
    let resp = get(&a_http, "/v1/cluster/health");
    let body = body_of(&resp);
    assert!(body.contains("\"tick_p99_us\":"), "{body}");
    assert!(body.contains("\"rss_bytes\":"), "{body}");
    assert!(body.contains("\"alerts\":["), "{body}");

    // One scrape, cluster-wide series: every member under its own
    // `instance` label, and the merged text is exposition-conformant.
    let resp = get(&a_http, "/v1/cluster/metrics");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    let fed = body_of(&resp);
    moara_gateway::lint_exposition(fed).unwrap_or_else(|e| panic!("federated lint: {e}\n{fed}"));
    for inst in ["n0", "n1", "n2"] {
        assert!(
            fed.contains(&format!("moara_up{{instance=\"{inst}\"}} 1")),
            "missing {inst} in federated scrape:\n{fed}"
        );
    }
    assert_eq!(fed.matches("moara_build_info{").count(), 3, "{fed}");
    assert!(fed.contains("moara_process_resident_bytes{"), "{fed}");
    assert!(fed.contains("moara_open_fds{"), "{fed}");
    assert!(!fed.contains("moara_federation_missing"), "{fed}");

    // The local scrape carries the new process/build and alert series
    // (and stays lint-clean with them).
    let resp = get(&a_http, "/metrics");
    let m = body_of(&resp);
    moara_gateway::lint_exposition(m).unwrap_or_else(|e| panic!("local lint: {e}"));
    assert!(m.contains("moara_build_info{version=\""), "{m}");
    assert!(m.contains("moara_uptime_seconds "), "{m}");
    assert!(
        m.contains("moara_alerts_firing{rule=\"dead_members\"} 0"),
        "{m}"
    );
    assert!(m.contains("moara_event_loop_stalled_ticks_total "), "{m}");
    assert!(m.contains("moara_gateway_queued_jobs "), "{m}");

    // Nothing is on fire on a healthy cluster.
    let resp = get(&a_http, "/v1/alerts");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(body_of(&resp).contains("\"firing\":[]"), "{resp}");

    // The dashboard, one frame, through the control plane.
    let out = Command::new(env!("CARGO_BIN_EXE_moara-cli"))
        .args(["--connect", &a_ctrl, "top", "--once"])
        .output()
        .expect("run moara-cli top");
    assert!(out.status.success(), "{out:?}");
    let frame = String::from_utf8_lossy(&out.stdout);
    assert!(frame.contains("moara top"), "{frame}");
    for row in ["n0", "n1", "n2"] {
        assert!(frame.contains(row), "missing {row} in:\n{frame}");
    }
    assert!(frame.contains("3/3 members"), "{frame}");
    assert!(
        !frame.contains("\x1b["),
        "--once must not emit ANSI: {frame:?}"
    );

    // status --json surfaces the slow-bucket exemplars object.
    let out = Command::new(env!("CARGO_BIN_EXE_moara-cli"))
        .args(["--connect", &a_ctrl, "status", "--json"])
        .output()
        .expect("run moara-cli status");
    assert!(out.status.success(), "{out:?}");
    let status = String::from_utf8_lossy(&out.stdout);
    assert!(status.contains("\"exemplars\":{"), "{status}");
}

/// The acceptance kill: `kill -9` one of three daemons. The survivor's
/// table marks it `stale` once it stops answering, then `dead` when
/// SWIM confirms; the `dead_members` alert fires (endpoint, metrics
/// gauge, stderr JSON line); the federated scrape reports the peer as
/// a `moara_federation_missing` series instead of silence.
#[test]
fn kill_dash_nine_goes_stale_then_dead_and_fires_the_alert() {
    // Suspicion long enough (200 ms × 25) that the table reads the
    // silent member before the confirm: the table must demonstrably
    // pass through `stale` on its way to `dead`, exactly the ordering an
    // operator watching `top` sees.
    let swim = ["--swim-period-ms", "200", "--swim-suspect-periods", "25"];
    let (_a, a_ctrl, a_http, a_logs) = spawn_moarad(None, &swim);
    let (_b, _, b_http, _) = spawn_moarad(Some(&a_ctrl), &swim);
    let (mut c, _, c_http, _) = spawn_moarad(Some(&a_ctrl), &swim);
    for addr in [&a_http, &b_http, &c_http] {
        wait_alive(addr, 3);
    }
    wait_health_table_ok(&a_http, &[0, 1, 2]);

    // kill -9: no shutdown handler runs, frames just stop.
    c.0.kill().expect("SIGKILL daemon c");
    let killed_at = Instant::now();

    let mut saw_stale = false;
    let deadline = killed_at + Duration::from_secs(30);
    loop {
        let resp = get(&a_http, "/v1/cluster/health");
        let body = body_of(&resp);
        match member_status(body, 2).as_deref() {
            Some("stale") => saw_stale = true,
            Some("dead") => {
                assert!(
                    saw_stale,
                    "the table must pass through stale before dead: {body}"
                );
                break;
            }
            _ => {}
        }
        assert!(
            Instant::now() < deadline,
            "survivor never marked the killed daemon dead (stale={saw_stale}): {body}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // The dead-member alert fires on the survivor, everywhere it should.
    let alert_deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let resp = get(&a_http, "/v1/alerts");
        let body = body_of(&resp);
        if body.contains("\"rule\":\"dead_members\"") {
            break;
        }
        assert!(
            Instant::now() < alert_deadline,
            "dead_members never fired: {body}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    let resp = get(&a_http, "/metrics");
    let m = body_of(&resp);
    assert!(
        m.contains("moara_alerts_firing{rule=\"dead_members\"} 1"),
        "{m}"
    );
    let lines = a_logs.lock().unwrap().clone();
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"alert\":\"firing\"") && l.contains("\"rule\":\"dead_members\"")),
        "no firing JSON line on stderr: {lines:#?}"
    );

    // Federation survives the death: the merged scrape still lints and
    // the lost peer is an explicit series.
    let resp = get(&a_http, "/v1/cluster/metrics");
    let fed = body_of(&resp);
    moara_gateway::lint_exposition(fed).unwrap_or_else(|e| panic!("federated lint: {e}"));
    assert!(fed.contains("moara_up{instance=\"n0\"} 1"), "{fed}");
    assert!(fed.contains("moara_up{instance=\"n1\"} 1"), "{fed}");
    assert!(
        fed.contains("moara_federation_missing{instance=\"n2\"} 1"),
        "{fed}"
    );
}
