//! Flight-recorder e2e: real `moarad` processes over real sockets.
//!
//! * Every daemon samples itself into in-memory history rings once a
//!   second and journals structured events; `GET /v1/history` serves a
//!   window of one metric, `GET /v1/cluster/history` federates it
//!   across the cluster, `GET /v1/events` pages the journal, and
//!   `moara-cli events` renders it.
//! * `kill -9` forensics: a daemon with `--crash-dump-dir` rewrites a
//!   blackbox dump every second, so SIGKILL — no handler runs — still
//!   leaves its final history window and journal tail on disk, and
//!   `moara-cli postmortem` renders them offline.
//! * `for <duration>` hold-downs: a rule that holds for 3s ignores a
//!   sub-3s blip but fires on a sustained condition.
//! * `moara-cli top --once` and `events` exit non-zero with a clear
//!   message when the daemon is unreachable.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
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

/// Polls `path` on `addr` until the body contains `needle`.
fn wait_body_contains(addr: &str, path: &str, needle: &str, what: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = get(addr, path);
        let body = body_of(&resp);
        if body.contains(needle) {
            return body.to_owned();
        }
        assert!(
            Instant::now() < deadline,
            "{what}: {path} on {addr} never contained {needle:?} (last: {body})"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// A scratch dir under the target-tmp the harness owns; unique per test.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("moara-fr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The history and events read paths, local and federated: per-second
/// samples land in the rings and come back as `[ts, value]` pairs; the
/// journal records subscription churn and serves it filtered; the CLI
/// renders both.
#[test]
fn history_and_events_endpoints_serve_recorded_data() {
    let swim = ["--swim-period-ms", "200"];
    let (_a, a_ctrl, a_http, _) = spawn_moarad(None, &swim);
    let (_b, _, b_http, _) = spawn_moarad(Some(&a_ctrl), &swim);
    for addr in [&a_http, &b_http] {
        wait_alive(addr, 2);
    }

    // The rings fill at one sample per second; wait for real points.
    let body = wait_body_contains(
        &a_http,
        "/v1/history?metric=tick_p99_us&range=60",
        "[[",
        "history never accumulated samples",
    );
    assert!(body.contains("\"metric\":\"tick_p99_us\""), "{body}");
    assert!(body.contains("\"res_s\":1"), "{body}");

    // Parameter errors are client errors, not empty series.
    let resp = get(&a_http, "/v1/history?metric=no_such_metric&range=60");
    assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
    let resp = get(&a_http, "/v1/history?range=60");
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    let resp = get(&a_http, "/v1/history?metric=tick_p99_us&range=0s");
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");

    // One daemon answers for the cluster: both members under their own
    // `instance` labels, fetched over the control plane.
    let body = wait_body_contains(
        &a_http,
        "/v1/cluster/history?metric=tick_p99_us&range=60",
        "\"instance\":\"n1\"",
        "federated history never saw the peer",
    );
    assert!(body.contains("\"instance\":\"n0\""), "{body}");
    assert!(body.contains("\"missing\":[]"), "{body}");

    // Subscription churn lands in the journal: install a watch, then
    // read it back through the endpoint, the kind filter, and the CLI.
    let mut watch = Guard(
        Command::new(env!("CARGO_BIN_EXE_moara-cli"))
            .args([
                "--connect",
                &a_ctrl,
                "watch",
                "SELECT count(*) WHERE ServiceX = true",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn watch client"),
    );
    let body = wait_body_contains(
        &a_http,
        "/v1/events",
        "\"kind\":\"sub_install\"",
        "journal never recorded the watch install",
    );
    assert!(body.contains("\"events\":["), "{body}");
    assert!(body.contains("\"detail\":"), "{body}");
    let resp = get(&a_http, "/v1/events?kind=sub_install&limit=5");
    let body = body_of(&resp);
    assert!(body.contains("\"kind\":\"sub_install\""), "{body}");
    assert!(!body.contains("\"kind\":\"swim_"), "filter leaked: {body}");
    let _ = watch.0.kill();

    let out = Command::new(env!("CARGO_BIN_EXE_moara-cli"))
        .args(["--connect", &a_ctrl, "events", "--kind", "sub_install"])
        .output()
        .expect("run moara-cli events");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sub_install"), "{text}");

    // The journal feeds the scrape's own counters.
    let resp = get(&a_http, "/metrics");
    let m = body_of(&resp);
    moara_gateway::lint_exposition(m).unwrap_or_else(|e| panic!("lint: {e}"));
    assert!(m.contains("moara_events_recorded_total "), "{m}");
    assert!(m.contains("moara_events_dropped_total 0"), "{m}");
}

/// The acceptance kill: a victim daemon with `--crash-dump-dir` watches
/// a peer die (journaling SWIM suspect/confirm and the alert firing),
/// then is itself `kill -9`ed. No handler runs — but the every-second
/// blackbox rewrite means its final history window and journal tail
/// are on disk, and `moara-cli postmortem` renders them without any
/// daemon.
#[test]
fn kill_dash_nine_leaves_a_renderable_blackbox_dump() {
    let dump_dir = scratch_dir("dump");
    let swim = ["--swim-period-ms", "200", "--swim-suspect-periods", "25"];
    let (_a, a_ctrl, a_http, _) = spawn_moarad(None, &swim);
    let (mut b, _, b_http, _) = spawn_moarad(Some(&a_ctrl), &swim);
    let dump_flag = dump_dir.to_str().unwrap().to_owned();
    let mut victim_flags: Vec<&str> = swim.to_vec();
    victim_flags.extend(["--crash-dump-dir", &dump_flag]);
    let (mut c, _, c_http, _) = spawn_moarad(Some(&a_ctrl), &victim_flags);
    for addr in [&a_http, &b_http, &c_http] {
        wait_alive(addr, 3);
    }

    // Kill a peer so the victim's journal fills with the story the
    // postmortem must tell: suspect → confirm → dead_members firing.
    b.0.kill().expect("SIGKILL daemon b");
    wait_body_contains(
        &c_http,
        "/v1/events",
        "\"kind\":\"swim_confirm\"",
        "victim never journaled the confirm",
    );
    wait_body_contains(
        &c_http,
        "/v1/events",
        "\"kind\":\"alert_firing\"",
        "victim never journaled the alert",
    );

    // The blackbox is rewritten every second; wait until the on-disk
    // copy has caught up with the journal.
    let dump_path = dump_dir.join("moarad-n2.blackbox.jsonl");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let on_disk = std::fs::read_to_string(&dump_path).unwrap_or_default();
        if on_disk.contains("\"kind\":\"swim_confirm\"")
            && on_disk.contains("\"kind\":\"alert_firing\"")
            && on_disk.contains("\"metric\":\"tick_p99_us\"")
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "blackbox at {dump_path:?} never caught up (last: {on_disk:?})"
        );
        std::thread::sleep(Duration::from_millis(200));
    }

    // kill -9 the victim: no shutdown path runs, the dump is whatever
    // the last tick left behind — which must be enough.
    c.0.kill().expect("SIGKILL the victim");
    c.0.wait().expect("reap the victim");

    let out = Command::new(env!("CARGO_BIN_EXE_moara-cli"))
        .args(["postmortem", dump_path.to_str().unwrap()])
        .output()
        .expect("run moara-cli postmortem");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("crash dump: n2"), "{text}");
    assert!(text.contains("reason blackbox"), "{text}");
    assert!(text.contains("metrics (final window)"), "{text}");
    assert!(text.contains("tick_p99_us"), "{text}");
    assert!(
        text.chars().any(|ch| "▁▂▃▄▅▆▇█".contains(ch)),
        "no sparkline in postmortem output: {text}"
    );
    assert!(text.contains("journal tail"), "{text}");
    assert!(text.contains("swim_confirm"), "{text}");
    assert!(text.contains("alert_firing"), "{text}");

    let _ = std::fs::remove_dir_all(&dump_dir);
}

/// `for 3s` hold-down semantics, end to end: a watch that lives under
/// two seconds never fires the rule; one held past the window does —
/// with the firing visible in `/v1/alerts` and as a `ts_ms`-stamped
/// JSON line on stderr.
#[test]
fn for_hold_down_suppresses_blips_but_fires_when_sustained() {
    let rules_dir = scratch_dir("rules");
    let rules_path = rules_dir.join("alerts.rules");
    std::fs::write(&rules_path, "standing_watch: watches > 0 for 3s\n").unwrap();
    let extra = [
        "--swim-period-ms",
        "200",
        "--alert-rules",
        rules_path.to_str().unwrap(),
    ];
    let (_a, a_ctrl, a_http, a_logs) = spawn_moarad(None, &extra);
    wait_alive(&a_http, 1);

    let watch_args = |lease: &str| {
        vec![
            "--connect".to_owned(),
            a_ctrl.clone(),
            "watch".to_owned(),
            "SELECT count(*) WHERE ServiceX = true".to_owned(),
            "--lease-ms".to_owned(),
            lease.to_owned(),
        ]
    };

    // Blip: the watch exists for well under the 3s hold (the client
    // dies and the daemon, probing the stream about once a second,
    // drops the watch), so the rule's pending state must drain without
    // ever firing.
    let mut blip = Guard(
        Command::new(env!("CARGO_BIN_EXE_moara-cli"))
            .args(watch_args("1500"))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn blip watch"),
    );
    wait_body_contains(
        &a_http,
        "/metrics",
        "moara_subscribe_watches 1",
        "blip watch never installed",
    );
    blip.0.kill().expect("kill blip watch client");
    std::thread::sleep(Duration::from_secs(6));
    let resp = get(&a_http, "/v1/alerts");
    assert!(
        !body_of(&resp).contains("standing_watch"),
        "a sub-hold blip fired the rule: {resp}"
    );
    assert!(
        !a_logs
            .lock()
            .unwrap()
            .iter()
            .any(|l| l.contains("\"rule\":\"standing_watch\"")),
        "a sub-hold blip reached stderr"
    );

    // Sustained: the watch outlives the hold window; the rule fires.
    let _sustained = Guard(
        Command::new(env!("CARGO_BIN_EXE_moara-cli"))
            .args(watch_args("30000"))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sustained watch"),
    );
    wait_body_contains(
        &a_http,
        "/v1/alerts",
        "\"rule\":\"standing_watch\"",
        "sustained watch never fired the held rule",
    );
    // The line is on its way through the stderr pipe when the alert
    // shows: wait for the drain thread to pass it on.
    let deadline = Instant::now() + Duration::from_secs(30);
    let fired = loop {
        let lines = a_logs.lock().unwrap().clone();
        let firing = |l: &&String| {
            l.contains("\"alert\":\"firing\"") && l.contains("\"rule\":\"standing_watch\"")
        };
        if let Some(line) = lines.iter().find(firing) {
            break line.clone();
        }
        assert!(
            Instant::now() < deadline,
            "no firing line on stderr: {lines:#?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(fired.contains("\"ts_ms\":"), "{fired}");

    let _ = std::fs::remove_dir_all(&rules_dir);
}

/// An unreachable daemon is an error, not a hang or a zero exit: both
/// `top --once` and `events` say what they could not reach and exit
/// non-zero.
#[test]
fn cli_exits_nonzero_with_clear_message_when_daemon_unreachable() {
    // Bound then dropped: nothing listens here.
    let gone = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .to_string();
    for cmd in [&["top", "--once"][..], &["events"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_moara-cli"))
            .args(["--connect", &gone, "--timeout", "5"])
            .args(cmd)
            .output()
            .expect("run moara-cli");
        assert!(
            !out.status.success(),
            "{cmd:?} must fail against a dead daemon: {out:?}"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("cannot reach daemon at"),
            "{cmd:?} stderr lacks the reach error: {err}"
        );
    }
}
