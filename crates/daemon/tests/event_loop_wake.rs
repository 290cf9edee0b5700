//! The event loop's one wake source, end to end: daemons hosted on
//! threads at `step(10 s)` — a wait no request could sit out — must
//! answer control and HTTP requests as they arrive, because each plane
//! wakes the loop after enqueueing its job; and once the clients stop,
//! the loop must go back to blocking, not spin. Nor does a request wait
//! for a clock: a walk starts in the step that parsed its query, so it
//! costs the loop the steps its messages need and no more.
//!
//! Nothing here waits on a fixed sleep to let something happen: the
//! cluster is polled until it has converged, every request is a timed
//! round trip, and the idle check compares two readings of the loop
//! threads' own CPU clocks taken a measured window apart.
//!
//! And the HTTP edge costs a walk no thread crossing: a keep-alive
//! connection moves to the loop once, with its first walk, and its later
//! walks wake no shard — counted in hand-overs and in the shard threads'
//! context switches, not in time.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use moara_daemon::{ctrl_roundtrip, parse_attrs, CtrlReply, CtrlRequest, Daemon, DaemonOpts};
use moara_gateway::GatewayStats;

const TIMEOUT: Duration = Duration::from_secs(30);

/// Far beyond any bound asserted below: a request only returns in time
/// if its plane woke the loop.
const LOOP_WAIT: Duration = Duration::from_secs(10);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Both tests bound round-trip times, so they take turns at the CPU.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// CPU time the calling thread has consumed, in nanoseconds.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and CLOCK_THREAD_CPUTIME_ID is a clock Linux always has.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One daemon on its own thread. After every step the thread publishes
/// its CPU clock and its step count.
struct Host {
    ctrl: String,
    http: String,
    stop: Arc<AtomicBool>,
    cpu_ns: Arc<AtomicU64>,
    steps: Arc<AtomicU64>,
    gateway: Arc<GatewayStats>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for Host {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The loop may be seconds into a block: a request wakes it.
        let _ = ctrl_roundtrip(&self.ctrl, &CtrlRequest::Status, TIMEOUT);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn host(join: Option<&str>) -> Host {
    let any = "127.0.0.1:0".parse().unwrap();
    host_with(DaemonOpts {
        join: join.map(str::to_owned),
        // Every query walks the tree: none is answered on a shard.
        query_cache: None,
        ..DaemonOpts::new(any)
    })
}

fn host_with(opts: DaemonOpts) -> Host {
    let any = "127.0.0.1:0".parse().unwrap();
    let opts = DaemonOpts {
        attrs: parse_attrs("ServiceX=true").unwrap(),
        http: Some(any),
        ..opts
    };
    let stop = Arc::new(AtomicBool::new(false));
    let cpu_ns = Arc::new(AtomicU64::new(0));
    let steps = Arc::new(AtomicU64::new(0));
    let (tx, rx) = std::sync::mpsc::channel();
    let (stopped, cpu, stepped) = (Arc::clone(&stop), Arc::clone(&cpu_ns), Arc::clone(&steps));
    let thread = std::thread::spawn(move || {
        let mut d = Daemon::start(opts).expect("daemon boots");
        let http = d.http_addr().expect("gateway enabled");
        let gateway = Arc::clone(d.gateway_stats().expect("gateway enabled"));
        tx.send((d.ctrl_addr().to_string(), http.to_string(), gateway))
            .unwrap();
        while !stopped.load(Ordering::SeqCst) {
            d.step(LOOP_WAIT);
            cpu.store(thread_cpu_ns(), Ordering::SeqCst);
            stepped.fetch_add(1, Ordering::SeqCst);
        }
        d.shutdown();
    });
    let (ctrl, http, gateway) = rx.recv_timeout(TIMEOUT).expect("daemon reports its ports");
    Host {
        ctrl,
        http,
        stop,
        cpu_ns,
        steps,
        gateway,
        thread: Some(thread),
    }
}

fn status_round_trip(h: &Host) -> (u32, u32) {
    match ctrl_roundtrip(&h.ctrl, &CtrlRequest::Status, TIMEOUT).expect("ctrl round trip") {
        CtrlReply::Status { members, alive, .. } => (members, alive),
        other => panic!("unexpected status reply {other:?}"),
    }
}

/// One uncached `GET /v1/query` on a fresh connection; returns the body.
fn query_round_trip(h: &Host) -> String {
    let mut s = TcpStream::connect(&h.http).expect("connect gateway");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s.write_all(
        b"GET /v1/query?q=SELECT%20count(*)%20WHERE%20ServiceX%20%3D%20true HTTP/1.1\r\n\
          Host: t\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    let (head, body) = out.split_once("\r\n\r\n").expect("http response");
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    assert!(!head.contains("X-Moara-Cache: hit"), "{head}");
    body.to_owned()
}

#[test]
fn requests_wake_the_loop_and_an_idle_loop_blocks() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let seed = host(None);
    let hosts = [host(Some(&seed.ctrl)), host(Some(&seed.ctrl))];
    let all = [&seed, &hosts[0], &hosts[1]];
    let deadline = Instant::now() + TIMEOUT;
    while !all.iter().all(|h| status_round_trip(h) == (3, 3)) {
        assert!(Instant::now() < deadline, "cluster never converged");
        std::thread::yield_now();
    }

    // 4 clients × 250 round trips, control and HTTP interleaved, spread
    // over the daemons. Each is timed on its own.
    let slowest = std::thread::scope(|s| {
        let clients: Vec<_> = (0..4usize)
            .map(|c| {
                s.spawn(move || {
                    let mut slowest = Duration::ZERO;
                    for i in 0..250usize {
                        let h = all[(c + i) % all.len()];
                        let t0 = Instant::now();
                        if (c + i) % 2 == 0 {
                            assert_eq!(status_round_trip(h), (3, 3));
                        } else {
                            let body = query_round_trip(h);
                            assert_eq!(body, "{\"result\":\"3\",\"complete\":true}\n");
                        }
                        slowest = slowest.max(t0.elapsed());
                    }
                    slowest
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .max()
            .expect("four clients")
    });
    assert!(
        slowest < Duration::from_millis(100),
        "a request waited {slowest:?} on a loop that was not woken"
    );

    // Idle: what is left is SWIM's period timers and the 1 Hz health
    // sample. Each loop thread's CPU clock, as it last published it, read
    // twice a window apart. A loop spinning between steps would publish
    // about the window's length; one spinning inside a step would publish
    // it when SWIM's next timer ends that step, which the window spans.
    let reading = || {
        all.map(|h| {
            (
                h.cpu_ns.load(Ordering::SeqCst),
                h.steps.load(Ordering::SeqCst),
            )
        })
    };
    let (before, window) = (reading(), Instant::now());
    while window.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_secs(2).saturating_sub(window.elapsed()));
    }
    let after = reading();
    for (i, (b, a)) in before.iter().zip(after).enumerate() {
        let (cpu, steps) = (Duration::from_nanos(a.0 - b.0), a.1 - b.1);
        assert!(steps > 0, "daemon {i}'s loop never came round in 2 s");
        assert!(
            cpu < Duration::from_millis(20),
            "daemon {i}'s idle loop burned {cpu:?} over {steps} steps in 2 s"
        );
    }
}

/// A walk on a lone daemon needs two loop steps: the one that parses its
/// query and starts it, and the one whose pump delivers the tree's
/// messages to the daemon itself and folds the answer.
const WALK_STEPS: u64 = 2;

/// No request waits for a clock. A lone closed loop's walks cost the loop
/// [`WALK_STEPS`] each, plus the odd step a timer ends — a walk held back
/// for a turn would cost one more, every time. A walk's count is the steps the loop finished while it was
/// out, so where one walk's last step ends after its answer the next walk
/// counts it: the bound is on the loop's total, with each walk held to a
/// few steps. Four clients at once share steps: together their walks
/// cost no more steps each than a lone one's.
#[test]
fn no_request_waits_for_a_clock() {
    const QUERIES: u64 = 200;
    const CLIENTS: u64 = 4;
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let h = host(None);
    let expected = "{\"result\":\"1\",\"complete\":true}\n";
    // Returns the loop steps `QUERIES` round trips took in all, the most
    // one of them took, and the slowest one.
    let client = || {
        let (mut total, mut most, mut slowest) = (0, 0, Duration::ZERO);
        for _ in 0..QUERIES {
            let (before, t) = (h.steps.load(Ordering::SeqCst), Instant::now());
            assert_eq!(query_round_trip(&h), expected);
            slowest = slowest.max(t.elapsed());
            let steps = h.steps.load(Ordering::SeqCst) - before;
            (total, most) = (total + steps, most.max(steps));
        }
        (total, most, slowest)
    };

    let (total, most, slowest) = client();
    assert!(
        total <= QUERIES * WALK_STEPS + QUERIES / 4,
        "{QUERIES} lone walks took {total} loop steps, not {WALK_STEPS} each: \
         walks wait for something besides their messages"
    );
    assert!(most <= 3 * WALK_STEPS, "a lone walk took {most} loop steps");
    assert!(
        slowest < Duration::from_millis(100),
        "a walk waited {slowest:?} on a loop that was not woken"
    );

    let before = h.steps.load(Ordering::SeqCst);
    let slowest = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS).map(|_| s.spawn(client)).collect();
        (clients.into_iter())
            .map(|c| c.join().expect("client thread").2)
            .max()
            .expect("four clients")
    });
    let together = h.steps.load(Ordering::SeqCst) - before;
    assert!(
        together <= CLIENTS * QUERIES * WALK_STEPS,
        "{} concurrent walks took {together} loop steps, more than {WALK_STEPS} each",
        CLIENTS * QUERIES
    );
    assert!(
        slowest < Duration::from_millis(100),
        "a walk waited {slowest:?} on a loop that was not woken"
    );
}

/// This process's threads: task id → name.
fn threads() -> Vec<(u64, String)> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    (tasks.flatten())
        .filter_map(|t| {
            let tid = t.file_name().to_str()?.parse().ok()?;
            let name = std::fs::read_to_string(t.path().join("comm")).ok()?;
            Some((tid, name.trim_end().to_owned()))
        })
        .collect()
}

/// Voluntary context switches of thread `tid` so far (0 once it is gone).
fn voluntary_switches(tid: u64) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status"));
    let status = status.unwrap_or_default();
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
    line.map_or(0, |n| n.trim().parse().expect("a count"))
}

/// Writes one `GET` on a keep-alive connection and reads its response:
/// the head and the body, by `Content-Length`.
fn keep_alive_get(
    s: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    path: &str,
) -> (String, String) {
    write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let (mut head, mut len) = (String::new(), 0);
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            len = v.trim().parse().unwrap();
        }
        if line == "\r\n" || line.is_empty() {
            break;
        }
        head.push_str(&line);
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).unwrap();
    (head, String::from_utf8(body).unwrap())
}

fn keep_alive(h: &Host) -> (TcpStream, BufReader<TcpStream>) {
    let s = TcpStream::connect(&h.http).expect("connect gateway");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    let reader = BufReader::new(s.try_clone().unwrap());
    (s, reader)
}

/// The hand-over as a count, on a lone daemon without the result cache.
/// A keep-alive connection moves to the loop with its first walk, once;
/// its next `K` walks are read, parsed and answered there, so the shard
/// threads sleep through them: none makes K/4 voluntary context switches
/// (a walk that crossed to the loop and back would cost its shard about
/// two; what is left is each shard's 100 ms sweep). A connection that
/// only ever gets cache hits, on a caching daemon, never moves.
#[test]
fn a_keep_alive_connection_moves_to_the_loop_once() {
    const K: u64 = 200;
    const WALK: &str = "/v1/query?q=SELECT%20count(*)%20WHERE%20ServiceX%20%3D%20true";
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let earlier: BTreeSet<u64> = threads().into_iter().map(|(tid, _)| tid).collect();
    let h = host(None);
    // Thread names are cut to 15 bytes: `moara-gw-shard-`, any shard.
    let shards: Vec<u64> = (threads().into_iter())
        .filter(|(tid, name)| !earlier.contains(tid) && name.starts_with("moara-gw-shard"))
        .map(|(tid, _)| tid)
        .collect();
    assert!(!shards.is_empty(), "no shard thread of the daemon's found");
    let switches = || shards.iter().map(|&tid| voluntary_switches(tid));
    let handovers = |h: &Host| h.gateway.handovers.load(Ordering::SeqCst);
    let expected = "{\"result\":\"1\",\"complete\":true}\n";

    let (mut s, mut reader) = keep_alive(&h);
    assert_eq!(keep_alive_get(&mut s, &mut reader, WALK).1, expected);
    assert_eq!(handovers(&h), 1, "the first walk moves the connection");
    let before: Vec<u64> = switches().collect();
    for _ in 0..K {
        assert_eq!(keep_alive_get(&mut s, &mut reader, WALK).1, expected);
    }
    let woken: Vec<u64> = switches().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(handovers(&h), 1, "a connection moves once");
    assert!(
        woken.iter().all(|&n| n < K / 4),
        "shards were woken {woken:?} times over {K} walks on a connection the loop hosts"
    );

    // A caching daemon: a hot text, warmed on throwaway connections
    // (its misses move them), then asked over one keep-alive connection
    // that only ever gets hits.
    drop(h);
    let any = "127.0.0.1:0".parse().unwrap();
    let h = host_with(DaemonOpts::new(any));
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let (mut s, mut reader) = keep_alive(&h);
        let (head, body) = keep_alive_get(&mut s, &mut reader, WALK);
        assert_eq!(body, expected);
        if head.contains("X-Moara-Cache: hit") {
            break;
        }
        assert!(Instant::now() < deadline, "the text never got hot");
    }
    let moved = handovers(&h);
    let (mut s, mut reader) = keep_alive(&h);
    for _ in 0..K {
        let (head, body) = keep_alive_get(&mut s, &mut reader, WALK);
        assert!(head.contains("X-Moara-Cache: hit"), "{head}");
        assert_eq!(body, expected);
    }
    assert_eq!(handovers(&h), moved, "a connection of cache hits moved");
}
