//! The issue's acceptance scenario in real time over real sockets: three
//! daemons (one per thread, exactly the `moarad` event loop) form a TCP
//! cluster; one is killed — its sockets drop, nobody is told — and the
//! survivors' SWIM detectors confirm the failure, prune the member, and
//! answer queries with the surviving count. The dead daemon then
//! restarts with `--rejoin-as` semantics (same node id, higher
//! incarnation, fresh ports), re-enters its groups' trees, and reappears
//! in both `status` and query results. Members that stop without dying
//! cost a federated read one gather deadline, however many they are.
//!
//! Run single-threaded (the chaos CI job does): the test kills and
//! rebinds listeners, and parallel socket tests could mask failures as
//! flaky port reuse.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use moara_daemon::{
    ctrl_roundtrip, parse_attrs, CtrlReply, CtrlRequest, Daemon, DaemonOpts, GATHER_TIMEOUT,
};
use moara_membership::SwimConfig;
use moara_simnet::SimDuration;

/// One of the tests bounds round-trip times, so they take turns at the
/// CPU even under the default parallel runner.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn free_port() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

fn fast_swim() -> SwimConfig {
    // Quick enough to confirm a kill in a few seconds, tolerant enough
    // that scheduler starvation under a parallel `cargo test` run (many
    // busy daemon threads) does not condemn a live-but-slow daemon
    // before its refutation lands.
    SwimConfig {
        period: SimDuration::from_millis(400),
        ping_timeout: SimDuration::from_millis(130),
        suspect_periods: 6,
        ..SwimConfig::default()
    }
}

/// A daemon running on its own thread until killed (dropping the daemon
/// closes its peer listener and connections — a process crash, minus the
/// process). Paused, it stops stepping with every socket open: a
/// `kill -STOP`, minus the process.
struct RunningDaemon {
    stop: Arc<AtomicBool>,
    /// Asked to pause, and paused: the thread sets the second when it has
    /// seen the first, between two steps.
    paused: Arc<[AtomicBool; 2]>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RunningDaemon {
    fn spawn(listen: SocketAddr, join: Option<String>, rejoin: Option<u32>, attrs: &str) -> Self {
        RunningDaemon::spawn_opts(DaemonOpts {
            join,
            rejoin,
            attrs: parse_attrs(attrs).unwrap(),
            swim: fast_swim(),
            ..DaemonOpts::new(listen)
        })
    }

    fn spawn_opts(opts: DaemonOpts) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let paused = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
        let (stop2, paused2) = (Arc::clone(&stop), Arc::clone(&paused));
        let thread = std::thread::spawn(move || {
            let mut d = Daemon::start(opts).expect("daemon boots");
            while !stop2.load(Ordering::SeqCst) {
                let [asked, seen] = &*paused2;
                let pause = asked.load(Ordering::SeqCst);
                seen.store(pause, Ordering::SeqCst);
                if pause {
                    std::thread::sleep(Duration::from_millis(2));
                } else {
                    d.step(Duration::from_millis(2));
                }
            }
        });
        RunningDaemon {
            stop,
            paused,
            thread: Some(thread),
        }
    }

    /// Stops or restarts stepping; returns once the thread has seen it.
    fn pause(&self, pause: bool) {
        let [asked, seen] = &*self.paused;
        asked.store(pause, Ordering::SeqCst);
        while seen.load(Ordering::SeqCst) != pause {
            std::thread::yield_now();
        }
    }

    fn kill(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for RunningDaemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn status(ctrl: SocketAddr) -> Option<(u32, u32, u32, Vec<u32>)> {
    match ctrl_roundtrip(
        &ctrl.to_string(),
        &CtrlRequest::Status,
        Duration::from_secs(5),
    ) {
        Ok(CtrlReply::Status {
            node,
            members,
            alive,
            dead,
            ..
        }) => Some((node, members, alive, dead)),
        _ => None,
    }
}

fn wait_for_status(
    deadline: Instant,
    what: &str,
    ctrl: SocketAddr,
    pred: impl Fn(&(u32, u32, u32, Vec<u32>)) -> bool,
) {
    let mut last: Option<(u32, u32, u32, Vec<u32>)> = None;
    loop {
        let s = status(ctrl);
        if let Some(st) = &s {
            if pred(st) {
                return;
            }
        }
        last = s.or(last);
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what} at {ctrl} (last status: {last:?})"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn count_query(ctrl: SocketAddr) -> (String, bool) {
    match ctrl_roundtrip(
        &ctrl.to_string(),
        &CtrlRequest::Query {
            text: "SELECT count(*) WHERE ServiceX = true".into(),
        },
        Duration::from_secs(30),
    ) {
        Ok(CtrlReply::Answer { result, complete }) => (result, complete),
        other => panic!("unexpected query reply {other:?}"),
    }
}

#[test]
fn killed_daemon_is_detected_pruned_and_rejoins() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let seed_ctrl = free_port();
    let b_ctrl = free_port();
    let c_ctrl = free_port();
    let seed_str = seed_ctrl.to_string();

    let _a = RunningDaemon::spawn(seed_ctrl, None, None, "ServiceX=true");
    let _b = RunningDaemon::spawn(b_ctrl, Some(seed_str.clone()), None, "ServiceX=true");
    let c = RunningDaemon::spawn(c_ctrl, Some(seed_str.clone()), None, "ServiceX=true");

    let deadline = Instant::now() + Duration::from_secs(120);
    for ctrl in [seed_ctrl, b_ctrl, c_ctrl] {
        wait_for_status(deadline, "cluster formation", ctrl, |&(_, m, a, _)| {
            m == 3 && a == 3
        });
    }
    // B and C join concurrently, so which of them got node id 1 vs 2 is
    // a race — ask C which one it is before killing it.
    let c_id = status(c_ctrl).expect("c answers status").0;
    let (result, complete) = count_query(b_ctrl);
    assert!(complete);
    assert_eq!(result, "3");

    // Kill daemon C: its listeners and connections drop. No component is
    // told — the survivors' detectors must conclude the failure on their
    // own, prune the member, and repair the trees.
    c.kill();
    let deadline = Instant::now() + Duration::from_secs(120);
    for ctrl in [seed_ctrl, b_ctrl] {
        // A survivor transiently (and wrongly) suspected under load
        // self-heals by refutation, so wait for the *stable* predicate:
        // the killed daemon confirmed dead and everyone else back alive.
        wait_for_status(
            deadline,
            "failure confirmation",
            ctrl,
            |(_, _, alive, dead)| *alive == 2 && *dead == vec![c_id],
        );
    }
    let (result, complete) = count_query(b_ctrl);
    assert!(complete, "post-repair query must not hang on the dead peer");
    assert_eq!(result, "2", "the crashed member leaves the answers");

    // Restart C under its old identity (fresh ports, preserved attrs —
    // what `moarad --rejoin-as 2` does after a crash).
    let c2_ctrl = free_port();
    let _c2 = RunningDaemon::spawn(c2_ctrl, Some(seed_str), Some(c_id), "ServiceX=true");
    let deadline = Instant::now() + Duration::from_secs(120);
    for ctrl in [seed_ctrl, b_ctrl, c2_ctrl] {
        wait_for_status(deadline, "rejoin propagation", ctrl, |(_, m, a, dead)| {
            *m == 3 && *a == 3 && dead.is_empty()
        });
    }
    let (result, complete) = count_query(seed_ctrl);
    assert!(complete);
    assert_eq!(result, "3", "the returnee reappears in query results");
}

/// A restarted front-end must not reissue its previous life's query ids:
/// the group members remember those for `dedup_ttl` (five minutes) and
/// would contribute nothing to them, so the returnee's first queries
/// would come back short yet `complete`.
#[test]
fn rejoined_front_end_gets_full_answers_from_its_first_query() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let seed_ctrl = free_port();
    let b_ctrl = free_port();
    let seed_str = seed_ctrl.to_string();

    let _a = RunningDaemon::spawn(seed_ctrl, None, None, "ServiceX=true");
    let _b = RunningDaemon::spawn(b_ctrl, Some(seed_str.clone()), None, "ServiceX=true");
    let deadline = Instant::now() + Duration::from_secs(120);
    wait_for_status(deadline, "b's join", b_ctrl, |&(_, m, a, _)| {
        m == 2 && a == 2
    });
    // Joined last, so it is node 2: the id it comes back under.
    let c_ctrl = free_port();
    let c = RunningDaemon::spawn(c_ctrl, Some(seed_str.clone()), None, "ServiceX=true");
    for ctrl in [seed_ctrl, b_ctrl, c_ctrl] {
        wait_for_status(deadline, "cluster formation", ctrl, |&(_, m, a, _)| {
            m == 3 && a == 3
        });
    }
    assert_eq!(status(c_ctrl).expect("c answers status").0, 2);
    // Its first life's first query: every member now remembers the id.
    assert_eq!(count_query(c_ctrl), ("3".to_owned(), true));

    c.kill();
    let deadline = Instant::now() + Duration::from_secs(120);
    for ctrl in [seed_ctrl, b_ctrl] {
        wait_for_status(
            deadline,
            "failure confirmation",
            ctrl,
            |(_, _, alive, dead)| *alive == 2 && *dead == vec![2],
        );
    }
    let c2_ctrl = free_port();
    let _c2 = RunningDaemon::spawn(c2_ctrl, Some(seed_str), Some(2), "ServiceX=true");
    let deadline = Instant::now() + Duration::from_secs(120);
    for ctrl in [seed_ctrl, b_ctrl, c2_ctrl] {
        wait_for_status(deadline, "rejoin propagation", ctrl, |(_, m, a, dead)| {
            *m == 3 && *a == 3 && dead.is_empty()
        });
    }
    // Its second life's first query, well inside `dedup_ttl`.
    assert_eq!(count_query(c2_ctrl), ("3".to_owned(), true));
}

/// One `GET` on a fresh connection; returns the whole response.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect gateway");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let req = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    s.write_all(req.as_bytes()).unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

/// A member that has just died costs the survivors' loops nothing: sends
/// to it wait in its link's buffer while connects and the backoff ladder
/// run as deadlines, so a survivor keeps answering `/healthz` at its usual
/// pace — no 20-ms-plus gap, no stalled tick — from the kill, through the
/// seconds in which SWIM still pings the corpse and walks still descend
/// to it, to well past the confirmation.
#[test]
fn a_dead_member_never_stalls_a_survivors_loop() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let ctrls = [free_port(), free_port(), free_port()];
    let https = [free_port(), free_port()];
    let opts = |i: usize| DaemonOpts {
        join: (i > 0).then(|| ctrls[0].to_string()),
        attrs: parse_attrs("ServiceX=true").unwrap(),
        swim: fast_swim(),
        http: https.get(i).copied(),
        query_cache: None,
        ..DaemonOpts::new(ctrls[i])
    };
    let _a = RunningDaemon::spawn_opts(opts(0));
    let _b = RunningDaemon::spawn_opts(opts(1));
    let c = RunningDaemon::spawn_opts(opts(2));
    let deadline = Instant::now() + Duration::from_secs(120);
    for ctrl in ctrls {
        wait_for_status(deadline, "cluster formation", ctrl, |&(_, m, a, _)| {
            m == 3 && a == 3
        });
    }
    let c_id = status(ctrls[2]).expect("c answers status").0;
    assert_eq!(count_query(ctrls[1]), ("3".to_owned(), true));

    c.kill();
    // Walks that touch the dead member, in flight for the whole window:
    // each waits out a child timeout, so they are asked without waiting.
    let walking = Arc::new(AtomicBool::new(true));
    let walkers: Vec<_> = https
        .iter()
        .map(|&http| {
            let walking = Arc::clone(&walking);
            std::thread::spawn(move || {
                while walking.load(Ordering::SeqCst) {
                    std::thread::spawn(move || {
                        http_get(
                            http,
                            "/v1/query?q=SELECT%20count(*)%20WHERE%20ServiceX%20%3D%20true",
                        )
                    });
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
        })
        .collect();
    let confirmed = |ctrl| matches!(status(ctrl), Some((_, _, 2, dead)) if dead == [c_id]);
    let (mut slowest, mut slow, mut done_at) = (Duration::ZERO, 0, None);
    let deadline = Instant::now() + Duration::from_secs(120);
    // Until both survivors have confirmed the death, and a second more
    // (the suspect cooldown's first probe falls in it).
    while done_at.is_none_or(|t: Instant| t.elapsed() < Duration::from_secs(1)) {
        assert!(Instant::now() < deadline, "death never confirmed");
        for http in https {
            let at = Instant::now();
            let reply = http_get(http, "/healthz");
            slowest = slowest.max(at.elapsed());
            slow += usize::from(at.elapsed() >= Duration::from_millis(20));
            assert!(reply.starts_with("HTTP/1.1 200 "), "{reply}");
        }
        if done_at.is_none() && confirmed(ctrls[0]) && confirmed(ctrls[1]) {
            done_at = Some(Instant::now());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    walking.store(false, Ordering::SeqCst);
    for w in walkers {
        w.join().unwrap();
    }
    // Under 20 ms, every time — bar one hiccup of the machine's (a dozen
    // threads of a debug build share two cores here), which a loop held
    // by the retry ladder cannot pass for: that was half a second, and
    // came round again with every ping and walk sent to the corpse.
    assert!(
        slow <= 1 && slowest < Duration::from_millis(100),
        "beside a dead member, {slow} /healthz answers took over 20 ms; the slowest, {slowest:?}"
    );
    for http in https {
        let metrics = http_get(http, "/metrics");
        let stalled = metrics
            .lines()
            .find_map(|l| l.strip_prefix("moara_event_loop_stalled_ticks_total "));
        assert_eq!(stalled, Some("0"), "stalled ticks on {http}");
    }
}

/// Federation rides the peer plane under one deadline: with two members
/// stopped — sockets open, loops not stepping, as under `kill -STOP` — a
/// federated scrape and a cluster history each answer within one
/// `GATHER_TIMEOUT`, not one per stuck peer, and name both as missing.
/// Once they step again, the next federated request misses nobody.
#[test]
fn stuck_peers_cost_one_gather_deadline_not_one_each() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let ctrls = [free_port(), free_port(), free_port(), free_port()];
    let http = free_port();
    // Patient enough that the stopped members are never confirmed dead:
    // they go missing for their silence alone.
    let swim = SwimConfig {
        suspect_periods: 30,
        ..SwimConfig::default()
    };
    let fleet: Vec<RunningDaemon> = (0..ctrls.len())
        .map(|i| {
            RunningDaemon::spawn_opts(DaemonOpts {
                join: (i > 0).then(|| ctrls[0].to_string()),
                swim: swim.clone(),
                http: (i == 0).then_some(http),
                ..DaemonOpts::new(ctrls[i])
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(120);
    for ctrl in ctrls {
        wait_for_status(deadline, "cluster formation", ctrl, |&(_, m, a, _)| {
            m == 4 && a == 4
        });
    }
    let mut stuck: Vec<u32> = ctrls[2..]
        .iter()
        .map(|&ctrl| status(ctrl).expect("answers status").0)
        .collect();
    stuck.sort_unstable();
    // A federated scrape over HTTP and a cluster history over ctrl, at
    // once, both on a live daemon; each timed.
    let federate = || {
        let scrape = std::thread::spawn(move || {
            let at = Instant::now();
            let resp = http_get(http, "/v1/cluster/metrics");
            (at.elapsed(), resp)
        });
        let at = Instant::now();
        let req = CtrlRequest::ClusterHistory {
            metric: "uptime_s".into(),
            range_s: 120,
        };
        let history = ctrl_roundtrip(&ctrls[0].to_string(), &req, Duration::from_secs(30));
        (scrape.join().unwrap(), (at.elapsed(), history))
    };

    for d in &fleet[2..] {
        d.pause(true);
    }
    let ((scrape_took, resp), (history_took, history)) = federate();
    for d in &fleet[2..] {
        d.pause(false);
    }
    let bound = 2 * GATHER_TIMEOUT;
    assert!(scrape_took < bound, "the scrape took {scrape_took:?}");
    assert!(history_took < bound, "the history took {history_took:?}");
    assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
    let body = resp.split_once("\r\n\r\n").map_or("", |(_, body)| body);
    moara_gateway::lint_exposition(body).unwrap_or_else(|e| panic!("lint: {e}\n{body}"));
    for id in &stuck {
        let series = format!("moara_federation_missing{{instance=\"n{id}\"}} 1");
        assert!(body.contains(&series), "no {series} in:\n{body}");
    }
    match history {
        Ok(CtrlReply::ClusterHistory {
            series, missing, ..
        }) => {
            assert_eq!(missing, stuck);
            assert_eq!(series.len(), 2, "{series:?}");
        }
        other => panic!("unexpected history reply {other:?}"),
    }

    // Stepping again, they answer the very next fan-out.
    let ((_, resp), (_, history)) = federate();
    assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
    assert!(!resp.contains("moara_federation_missing"), "{resp}");
    assert!(
        matches!(&history, Ok(CtrlReply::ClusterHistory { missing, .. }) if missing.is_empty()),
        "{history:?}"
    );
}
