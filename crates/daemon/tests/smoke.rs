//! End-to-end multi-process smoke test: three real `moarad` processes on
//! localhost form a cluster over TCP, and `moara-cli` answers
//! `SELECT count(*) WHERE ServiceX = true` through one of them — the
//! issue's daemon acceptance scenario, with every hop crossing process
//! boundaries.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use moara_core::DeliveryPolicy;
use moara_daemon::{CtrlReply, CtrlRequest};
use moara_wire::{read_frame, write_msg, Wire};

mod support;
use support::Guard;

/// Spawns a daemon; returns its guard and control address.
fn spawn_moarad(join: Option<&str>, attrs: &str) -> (Guard, String) {
    let (guard, banner) = spawn_moarad_with(join, attrs, &[]);
    (guard, support::field(&banner, "ctrl="))
}

/// Like [`spawn_moarad`] with extra flags; returns the boot banner (it
/// carries `http=ADDR` when the gateway is enabled). The banner means
/// the control plane is up.
fn spawn_moarad_with(join: Option<&str>, attrs: &str, extra: &[&str]) -> (Guard, String) {
    let mut args = vec!["--attrs", attrs];
    args.extend(extra);
    if let Some(seed) = join {
        args.extend(["--join", seed]);
    }
    let (guard, banner, _) = support::spawn(&args);
    (guard, banner)
}

/// One raw HTTP GET on a fresh connection; returns the whole response
/// (status line, headers, body).
fn http_get(addr: &str, path_query: &str) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect gateway");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(
        format!("GET {path_query} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

fn cli(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_moara-cli"))
        .args(args)
        .output()
        .expect("run moara-cli");
    (
        String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        out.status.success(),
    )
}

fn wait_for_members(ctrl: &str, want: u32) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (out, ok) = cli(&["--connect", ctrl, "status"]);
        // `status` reports the full liveness view, e.g.
        // `node=n1 members=3 alive=3 dead=-`; everyone must both know
        // and believe-alive the whole cluster.
        if ok && out.contains(&format!("members={want} alive={want} dead=-")) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon {ctrl} never saw {want} live members (last: {out:?})"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn three_moarad_processes_answer_a_query_via_moara_cli() {
    let (_a, a_ctrl) = spawn_moarad(None, "ServiceX=true,CPU-Util=10");
    let (_b, b_ctrl) = spawn_moarad(Some(&a_ctrl), "ServiceX=false,CPU-Util=90");
    let (_c, c_ctrl) = spawn_moarad(Some(&a_ctrl), "ServiceX=true,CPU-Util=30");

    for ctrl in [&a_ctrl, &b_ctrl, &c_ctrl] {
        wait_for_members(ctrl, 3);
    }

    // The quickstart query, fronted by the daemon whose node is NOT in
    // the group — the answer must come over the wire from the others.
    let (answer, ok) = cli(&[
        "--connect",
        &b_ctrl,
        "query",
        "SELECT count(*) WHERE ServiceX = true",
    ]);
    assert!(ok, "query must complete");
    assert_eq!(answer, "2");

    // A numeric aggregate across processes.
    let (answer, ok) = cli(&[
        "--connect",
        &c_ctrl,
        "query",
        "SELECT avg(CPU-Util) WHERE ServiceX = true",
    ]);
    assert!(ok);
    assert_eq!(answer, "20");

    // Group churn via the control plane, observed from another daemon.
    let (out, ok) = cli(&["--connect", &b_ctrl, "set", "ServiceX=true"]);
    assert!(ok);
    assert_eq!(out, "ok");
    let (answer, ok) = cli(&[
        "--connect",
        &a_ctrl,
        "query",
        "SELECT count(*) WHERE ServiceX = true",
    ]);
    assert!(ok);
    assert_eq!(answer, "3");

    // Standing query through the streaming control plane: the watcher
    // gets the initial result, then a delta-driven update when a member
    // leaves the group — across real processes and sockets.
    let mut watch = Command::new(env!("CARGO_BIN_EXE_moara-cli"))
        .args([
            "--connect",
            &a_ctrl,
            "watch",
            "SELECT count(*) WHERE ServiceX = true",
            "--updates",
            "2",
            "--json",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn watch");
    let watch_out = watch.stdout.take().expect("piped stdout");
    let (wtx, wrx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(watch_out).lines().map_while(Result::ok) {
            let _ = wtx.send(line);
        }
    });
    let first = wrx
        .recv_timeout(Duration::from_secs(30))
        .expect("initial watch update");
    assert_eq!(
        first, r#"{"result":"3","initial":true,"complete":true}"#,
        "initial standing result"
    );
    let (out, ok) = cli(&["--connect", &c_ctrl, "set", "ServiceX=false"]);
    assert!(ok);
    assert_eq!(out, "ok");
    let second = wrx
        .recv_timeout(Duration::from_secs(30))
        .expect("delta-driven watch update");
    assert_eq!(
        second, r#"{"result":"2","initial":false,"complete":true}"#,
        "standing result tracked the change without a re-query"
    );
    let status = watch.wait().expect("watch exits after --updates 2");
    assert!(status.success());
}

/// Graceful shutdown: SIGTERM must make a daemon stop accepting, cancel
/// its standing state — explicit watches AND the result cache's
/// auto-promoted subscriptions — and exit 0, not die on the signal
/// default or strand sub state on the survivors.
#[test]
fn sigterm_shuts_a_daemon_down_cleanly() {
    // A carries the gateway with a hair-trigger promotion threshold so
    // the test can warm its result cache with two GETs.
    let (mut a, banner) = spawn_moarad_with(
        None,
        "ServiceX=true",
        &["--http", "127.0.0.1:0", "--cache-promote-after", "2"],
    );
    let a_ctrl = support::field(&banner, "ctrl=");
    let a_http = support::field(&banner, "http=");
    assert_ne!(a_http, "-", "gateway must be enabled: {banner}");
    let (_b, b_ctrl) = spawn_moarad(Some(&a_ctrl), "ServiceX=true");
    wait_for_members(&a_ctrl, 2);
    wait_for_members(&b_ctrl, 2);

    // Warm A's result cache until the hot query is served from the
    // standing subscription (the promotion installed and synced).
    let q = "/v1/query?q=SELECT%20count(*)%20WHERE%20ServiceX%20%3D%20true";
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = http_get(&a_http, q);
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        if resp.contains("X-Moara-Cache: hit") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "result cache never warmed: {resp}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The cache's subscription spans the cluster: B must be holding
    // sub state for it before the kill, or the drain assert is vacuous.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (out, ok) = cli(&["--connect", &b_ctrl, "status"]);
        if ok && !out.contains("subs=0") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cache subscription never reached B: {out:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // A standing watch fronted by the daemon about to die: shutdown must
    // tear it down (stream closed, subscription cancelled), not strand it.
    let mut watch = Command::new(env!("CARGO_BIN_EXE_moara-cli"))
        .args([
            "--connect",
            &a_ctrl,
            "watch",
            "SELECT count(*) WHERE ServiceX = true",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn watch");
    let watch_out = watch.stdout.take().expect("piped stdout");
    let (wtx, wrx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(watch_out).lines().map_while(Result::ok) {
            let _ = wtx.send(line);
        }
    });
    wrx.recv_timeout(Duration::from_secs(30))
        .expect("initial watch update");

    let pid = a.0.id().to_string();
    let killed = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("send SIGTERM");
    assert!(killed.success());
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = a.0.try_wait().expect("poll moarad") {
            break status;
        }
        assert!(Instant::now() < deadline, "moarad ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        status.success(),
        "graceful shutdown must exit 0, got {status:?}"
    );
    // The watcher's stream ended with the daemon; the client exits too.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if watch.try_wait().expect("poll watch").is_some() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watch client never noticed the shutdown"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // B keeps serving: the surviving cluster answers without the peer.
    let (_, ok) = cli(&["--connect", &b_ctrl, "status"]);
    assert!(ok, "survivor still serves its control plane");

    // The shutdown flushed SubCancels for the watch AND the cache's
    // promoted subscription: B's standing sub state drains to zero
    // rather than leaking until lease expiry.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (out, ok) = cli(&["--connect", &b_ctrl, "status"]);
        if ok && out.contains("subs=0") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "survivor still holds sub state after the shutdown flush: {out:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Runs `moarad` with `args` to its exit.
fn moarad_exit(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_moarad"))
        .args(args)
        .output()
        .expect("run moarad");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

/// Starts a `moarad` on an `--alert-rules` file holding `rules`, which
/// it must refuse with exit code `code` and the reason on stderr
/// (returned).
fn refused_alert_rules(tag: &str, rules: &str, code: i32) -> String {
    let path = std::env::temp_dir().join(format!("moara-{tag}-rules-{}", std::process::id()));
    std::fs::write(&path, rules).unwrap();
    let path_arg = path.to_str().expect("a UTF-8 temp path");
    let (got, _, stderr) = moarad_exit(&["--listen", "127.0.0.1:0", "--alert-rules", path_arg]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(got, Some(code), "{stderr}");
    stderr
}

/// `--rejoin-as` without `--join` is refused by `Daemon::start`, which
/// in-process callers go through too: exit 1, the reason on stderr.
#[test]
fn moarad_refuses_rejoin_as_without_join() {
    let (code, _, stderr) = moarad_exit(&["--listen", "127.0.0.1:0", "--rejoin-as", "3"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("--rejoin-as requires --join"), "{stderr}");
}

/// `--help` is a loop over the flag table: every flag, its argument and
/// its default. A changed flag moves the golden; regenerate it with
/// `moarad --help > crates/daemon/tests/golden/moarad_help.txt`.
#[test]
fn moarad_help_is_the_golden() {
    let (code, stdout, _) = moarad_exit(&["--help"]);
    assert_eq!(code, Some(0));
    assert_eq!(stdout, include_str!("golden/moarad_help.txt"));
}

/// An unknown flag or a missing value is a usage error: exit 2 with the
/// usage line on stderr.
#[test]
fn moarad_usage_errors_exit_2_with_the_usage_line() {
    let usage = include_str!("golden/moarad_help.txt").lines().next();
    for args in [&["--listen", "127.0.0.1:0", "--bogus"][..], &["--listen"]] {
        let (code, _, stderr) = moarad_exit(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().last(), usage, "{args:?}");
    }
}

/// An `--alert-rules` file naming a metric the daemon does not sample is
/// a start-up error that names the rule, not a rule that never fires.
#[test]
fn moarad_refuses_an_alert_rule_over_an_unknown_metric() {
    let stderr = refused_alert_rules("bad-metric", "stall: tick_p99us > 250000\n", 1);
    assert!(stderr.contains("alert rule `stall`"), "{stderr}");
    assert!(stderr.contains("tick_p99_us"), "lists the keys: {stderr}");
}

/// `inf` is a number to `str::parse` but not to JSON: a firing `cold:
/// cache_hit_pct < inf` used to reach `/v1/alerts`, stderr and the
/// blackbox dump as `"threshold":inf`. It is a usage error now, like
/// any other line the rule grammar rejects.
#[test]
fn moarad_refuses_a_non_finite_alert_threshold() {
    let stderr = refused_alert_rules("inf", "cold: cache_hit_pct < inf\n", 2);
    assert!(stderr.contains("threshold must be finite"), "{stderr}");
    assert!(stderr.contains("line 1"), "names the line: {stderr}");
}

/// A process's thread names as the kernel keeps them: 15 bytes at most.
fn thread_names(pid: u32) -> Vec<String> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).unwrap();
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_owned())
        .collect()
}

/// Asserts `names` are main (the loop, which also hosts the control
/// port) and the gateway's shards (which accept their own connections),
/// and nothing else.
fn assert_only_resident_threads(names: &[String]) {
    let shards = names
        .iter()
        .filter(|n| n.starts_with("moara-gw-shard"))
        .count();
    assert!(shards >= 1, "{names:?}");
    assert!(
        names
            .iter()
            .all(|n| n == "moarad" || n.starts_with("moara-gw-shard")),
        "a thread that should not exist: {names:?}"
    );
    assert_eq!(names.len(), 1 + shards, "{names:?}");
}

/// The peer plane has one thread per daemon: peer sockets are members of
/// the event loop's own `epoll` set, so after a join and a few tree walks
/// a `moarad` has no per-listener or per-connection peer thread. That
/// holds for federation too: a scrape held up by a stopped peer waits on
/// the loop, with no thread on the asking side and no control connection
/// on the stopped one.
#[test]
fn a_moarad_has_no_peer_plane_threads() {
    let flags = |http: &'static str| ["--http", http, "--no-query-cache"];
    let mut fleet = Vec::new();
    let mut ctrls: Vec<String> = Vec::new();
    for i in 0..3 {
        let join = ctrls.first().map(String::as_str);
        let attrs = format!("ServiceX=true,CPU-Util={}", 10 * (i + 1));
        let (guard, banner) = spawn_moarad_with(join, &attrs, &flags("127.0.0.1:0"));
        ctrls.push(support::field(&banner, "ctrl="));
        fleet.push((guard, banner));
    }
    for ctrl in &ctrls {
        wait_for_members(ctrl, 3);
    }
    // Uncached queries through every front-end: every peer link is up
    // in both directions.
    for (_, banner) in &fleet {
        let http = support::field(banner, "http=");
        for _ in 0..3 {
            let reply = http_get(
                &http,
                "/v1/query?q=SELECT%20sum(CPU-Util)%20WHERE%20ServiceX%20%3D%20true",
            );
            assert!(
                reply.ends_with("{\"result\":\"60\",\"complete\":true}\n"),
                "{reply}"
            );
        }
    }
    for (guard, _) in &fleet {
        assert_only_resident_threads(&thread_names(guard.0.id()));
    }

    // Stop one daemon and scrape the cluster from another: the scrape
    // waits out its deadline on the loop.
    let (asker, stopped) = (&fleet[0], &fleet[2]);
    let stopped_pid = stopped.0 .0.id().to_string();
    let signal = |sig: &str| {
        let sent = Command::new("kill").args([sig, &stopped_pid]).status();
        assert!(sent.expect("run kill").success(), "kill {sig}");
    };
    signal("-STOP");
    let http = support::field(&asker.1, "http=");
    let scrape = std::thread::spawn(move || http_get(&http, "/v1/cluster/metrics"));
    // Looked at for as long as the scrape waits: the asking side has no
    // thread waiting on the stopped peer.
    while !scrape.is_finished() {
        assert_only_resident_threads(&thread_names(asker.0 .0.id()));
        std::thread::sleep(Duration::from_millis(50));
    }
    let fed = scrape.join().unwrap();
    signal("-CONT");
    let missing = format!(
        "moara_federation_missing{{instance=\"{}\"}} 1",
        support::field(&stopped.1, "node=")
    );
    assert!(fed.contains(&missing), "no {missing} in:\n{fed}");
}

/// Without `--http` a `moarad` is one thread: the event loop hosts the
/// peer plane and the control port alike.
#[test]
fn a_moarad_without_http_has_one_thread() {
    let (guard, ctrl) = spawn_moarad(None, "ServiceX=true");
    let (out, ok) = cli(&["--connect", &ctrl, "status"]);
    assert!(ok, "{out}");
    assert_eq!(thread_names(guard.0.id()), ["moarad"]);
}

/// Control connections live on the loop's thread: a daemon holding 64
/// idle ones has the loop and the shards, as without them, and still
/// answers on a 65th.
#[test]
fn idle_control_connections_add_no_thread() {
    let (guard, banner) = spawn_moarad_with(None, "ServiceX=true", &["--http", "127.0.0.1:0"]);
    let ctrl = support::field(&banner, "ctrl=");
    let idle: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(&ctrl).expect("connect control port"))
        .collect();
    // A request on a fresh connection comes after the 64 in the accept
    // queue: once it is answered, the loop holds them all.
    let (out, ok) = cli(&["--connect", &ctrl, "status"]);
    assert!(ok, "{out}");
    assert_only_resident_threads(&thread_names(guard.0.id()));
    drop(idle);
}

/// Every file a running `moarad` maps, other than the binary itself, is
/// libc, libgcc_s (unwinding) or the dynamic loader. Each shared object
/// costs its resident pages once per daemon, on every host: a float call
/// such as `log2` anywhere in the daemon's dependencies pulls in libm,
/// ≈ 500 KiB a daemon, and fails here.
#[test]
fn moarad_maps_only_libc_libgcc_s_and_the_loader() {
    let (guard, ctrl) = spawn_moarad(None, "ServiceX=true");
    let (out, ok) = cli(&["--connect", &ctrl, "status"]);
    assert!(ok, "{out}");
    let pid = guard.0.id();
    let exe = std::fs::read_link(format!("/proc/{pid}/exe")).expect("procfs");
    let maps = std::fs::read_to_string(format!("/proc/{pid}/maps")).expect("procfs");
    let mut files: Vec<&str> = maps
        .lines()
        .filter_map(|line| line.split_whitespace().nth(5))
        .filter(|path| path.starts_with('/') && std::path::Path::new(path) != exe)
        .collect();
    files.dedup();
    assert!(!files.is_empty(), "no shared object mapped:\n{maps}");
    let allowed = |path: &&str| {
        let name = path.rsplit('/').next().unwrap_or(path);
        ["libc.so.", "libgcc_s.so.", "ld-linux"]
            .iter()
            .any(|lib| name.starts_with(lib))
    };
    let stray: Vec<&&str> = files.iter().filter(|path| !allowed(path)).collect();
    assert!(
        stray.is_empty(),
        "moarad maps {stray:?}; all files: {files:?}"
    );
}

/// CPU ticks (user + system) process `pid` has used: fields 14 and 15 of
/// `/proc/<pid>/stat`, counted after the parenthesised command name.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("procfs");
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 2..]
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields[i - 3].parse::<u64>().expect("a tick count");
    ticks(14) + ticks(15)
}

/// A daemon out of descriptors does not spin: with `RLIMIT_NOFILE` at 64
/// and about 100 connections held over its HTTP, control and peer ports,
/// each listener with a connection it cannot take leaves its set for a
/// pause instead of staying ready. Once the clients close, every port
/// answers again.
#[test]
fn running_out_of_descriptors_spins_no_listener() {
    let moarad = env!("CARGO_BIN_EXE_moarad");
    let mut limited = Command::new("sh");
    limited.args(["-c", "ulimit -n 64 && exec \"$0\" \"$@\"", moarad]);
    limited.args(["--listen", "127.0.0.1:0", "--http", "127.0.0.1:0"]);
    limited.args(["--attrs", "ServiceX=true"]);
    let (guard, banner, _) = support::spawn_command(limited);
    let (pid, field) = (guard.0.id(), |key| support::field(&banner, key));
    let (ctrl, http, peer) = (field("ctrl="), field("http="), field("peer="));
    let held: Vec<TcpStream> = [&ctrl, &http, &peer]
        .iter()
        .flat_map(|addr| (0..34).map(move |_| TcpStream::connect(addr).expect("connect")))
        .collect();
    // The daemon takes what it can and runs out.
    std::thread::sleep(Duration::from_millis(300));
    let before = cpu_ticks(pid);
    std::thread::sleep(Duration::from_secs(2));
    let burnt = cpu_ticks(pid) - before;
    assert!(burnt < 50, "{burnt} CPU ticks in 2 s out of descriptors");
    drop(held);

    // A fresh request on each port: HTTP, control, and the peer plane (a
    // joiner's frames, which a query fronted by it needs answered).
    let health = http_get(&http, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200 "), "{health}");
    let (_joiner, joiner_ctrl) = spawn_moarad(Some(&ctrl), "ServiceX=true");
    wait_for_members(&ctrl, 2);
    wait_for_members(&joiner_ctrl, 2);
    let query = "SELECT count(*) WHERE ServiceX = true";
    let (answer, ok) = cli(&["--connect", &joiner_ctrl, "query", query]);
    assert!(ok, "{answer}");
    assert_eq!(answer, "2");
}

/// A watcher that goes away is let go at once: the loop sees the hang-up
/// of its control connection (a killed `moara-cli watch`, a raw socket
/// closed mid-stream) in the step it happens and cancels the watch,
/// rather than at a later keepalive.
#[test]
fn a_dead_watcher_is_let_go_at_once() {
    let (_guard, banner) = spawn_moarad_with(None, "ServiceX=true", &["--http", "127.0.0.1:0"]);
    let (ctrl, http) = (
        support::field(&banner, "ctrl="),
        support::field(&banner, "http="),
    );
    let watches = || {
        let scrape = http_get(&http, "/metrics");
        let line = scrape
            .lines()
            .find_map(|l| l.strip_prefix("moara_subscribe_watches "));
        line.expect("the watch gauge")
            .parse::<f64>()
            .expect("a number")
    };
    // Waits for the gauge to read `want`; returns how long it took.
    let settle = |want: f64| {
        let started = Instant::now();
        while watches() != want {
            assert!(started.elapsed() < Duration::from_secs(10), "never {want}");
            std::thread::sleep(Duration::from_millis(5));
        }
        started.elapsed()
    };
    let query = "SELECT count(*) WHERE ServiceX = true";

    let mut cli_watch = Command::new(env!("CARGO_BIN_EXE_moara-cli"))
        .args(["--connect", &ctrl, "watch", query])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn watch");
    let mut first = String::new();
    let mut out = BufReader::new(cli_watch.stdout.take().expect("piped stdout"));
    out.read_line(&mut first).expect("the first update");
    settle(1.0);
    cli_watch.kill().expect("kill the watcher");
    let _ = cli_watch.wait();
    let gone = settle(0.0);
    assert!(
        gone < Duration::from_millis(500),
        "a killed watcher held on {gone:?}"
    );

    let mut raw = TcpStream::connect(&ctrl).expect("connect control port");
    let watch = CtrlRequest::Watch {
        text: query.into(),
        policy: DeliveryPolicy::OnChange,
        lease_us: 30_000_000,
    };
    write_msg(&mut raw, &watch).expect("send the watch");
    let first = read_frame(&mut raw).expect("a frame").expect("open");
    let first = CtrlReply::from_bytes(&first).expect("a reply");
    assert!(
        matches!(first, CtrlReply::Update { initial: true, .. }),
        "{first:?}"
    );
    settle(1.0);
    drop(raw);
    let gone = settle(0.0);
    assert!(
        gone < Duration::from_millis(500),
        "a closed socket held on {gone:?}"
    );
}
