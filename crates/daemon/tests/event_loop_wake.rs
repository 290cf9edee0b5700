//! The event loop's one wake source, end to end: daemons hosted on
//! threads at `step(10 s)` — a wait no request could sit out — must
//! answer control and HTTP requests as they arrive, because each plane
//! wakes the loop after enqueueing its job; and once the clients stop,
//! the loop must go back to blocking, not spin. The one other thing the
//! loop may not sleep through is a queued walk's start time.
//!
//! Nothing here waits on a fixed sleep to let something happen: the
//! cluster is polled until it has converged, every request is a timed
//! round trip, and the idle check compares two readings of the loop
//! threads' own CPU clocks taken a measured window apart.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use moara_daemon::{
    ctrl_roundtrip, parse_attrs, CtrlReply, CtrlRequest, Daemon, DaemonOpts, WALK_BURST, WALK_GAP,
};

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
    let opts = DaemonOpts {
        join: join.map(str::to_owned),
        attrs: parse_attrs("ServiceX=true").unwrap(),
        http: Some(any),
        // Every query walks the tree: none is answered on a shard.
        query_cache: None,
        ..DaemonOpts::new(any)
    };
    let stop = Arc::new(AtomicBool::new(false));
    let cpu_ns = Arc::new(AtomicU64::new(0));
    let steps = Arc::new(AtomicU64::new(0));
    let (tx, rx) = std::sync::mpsc::channel();
    let (stopped, cpu, stepped) = (Arc::clone(&stop), Arc::clone(&cpu_ns), Arc::clone(&steps));
    let thread = std::thread::spawn(move || {
        let mut d = Daemon::start(opts).expect("daemon boots");
        let http = d.http_addr().expect("gateway enabled");
        tx.send((d.ctrl_addr().to_string(), http.to_string()))
            .unwrap();
        while !stopped.load(Ordering::SeqCst) {
            d.step(LOOP_WAIT);
            cpu.store(thread_cpu_ns(), Ordering::SeqCst);
            stepped.fetch_add(1, Ordering::SeqCst);
        }
        d.shutdown();
    });
    let (ctrl, http) = rx.recv_timeout(TIMEOUT).expect("daemon reports its ports");
    Host {
        ctrl,
        http,
        stop,
        cpu_ns,
        steps,
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

/// Walks start in turns `WALK_GAP` apart after a burst of `WALK_BURST`. A
/// lone client asking faster goes round once per turn — so every walk past
/// the burst but the last costs it a gap — and its query starts on time
/// although nothing wakes the loop for it: the loop's wait is cut to the
/// turn. A turn starts every query waiting, so four clients asking at
/// once are not held to one client's rate.
#[test]
fn walks_start_in_turns_that_take_every_waiting_query() {
    const QUERIES: u32 = 5 * WALK_BURST;
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let h = host(None);
    let expected = "{\"result\":\"1\",\"complete\":true}\n";
    // Returns how long `QUERIES` round trips took and the slowest one.
    let client = || {
        let (mut slowest, t0) = (Duration::ZERO, Instant::now());
        for _ in 0..QUERIES {
            let t = Instant::now();
            assert_eq!(query_round_trip(&h), expected);
            slowest = slowest.max(t.elapsed());
        }
        (t0.elapsed(), slowest)
    };

    let (alone, slowest) = client();
    assert!(
        alone >= WALK_GAP * (QUERIES - WALK_BURST - 1),
        "{QUERIES} walks from one closed loop in {alone:?}: not paced"
    );
    assert!(
        slowest < Duration::from_millis(100),
        "a queued walk waited {slowest:?} for a loop nothing woke"
    );

    let t0 = Instant::now();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..4).map(|_| s.spawn(client)).collect();
        for c in clients {
            c.join().expect("client thread");
        }
    });
    // Unshared turns would start the four clients' walks one a turn: no
    // faster than the lone client's floor, over four times the walks.
    // `alone` is no yardstick here: it sits at that floor whatever the
    // host's speed, while four clients are bound by CPU.
    let together = t0.elapsed();
    let unshared = WALK_GAP * (4 * QUERIES - WALK_BURST - 1);
    assert!(
        together < unshared,
        "four clients took {together:?}, one took {alone:?}: turns are not shared \
         (one walk a turn takes at least {unshared:?})"
    );
}
