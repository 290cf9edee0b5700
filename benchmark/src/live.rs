//! The three live workloads: five `moarad` daemons on loopback, driven
//! over HTTP by at most two client threads (the machine has two cores).
//!
//! * `walk` — cache off; two closed-loop clients round-robin eight seeded
//!   query texts (six simple, two composite). Every request crosses
//!   reactor → job queue → event loop → plan → wire → TCP → per-hop fold
//!   → reply; the gateway cache does nothing here.
//! * `hot-read` — cache on; sixteen hot texts warmed until every daemon
//!   answers from memory; two closed-loop clients. Answered inline on a
//!   reactor shard: event loop, transport, wire and core idle.
//! * `write-read` — cache on; one closed-loop reader of `max(Load)` on
//!   daemon 0 while a writer on daemon 1 (a group member) raises `Load`
//!   25 times a second on a fixed schedule. Every read is exactly
//!   checkable (monotone, never above the last value sent), and the time
//!   from a write being *due* to the first read showing it is the
//!   workload's own metric. It uses the cache and subscription layers
//!   from the invalidation side, so a hit-path gain bought with slower
//!   invalidation shows here.
//!
//! Expected answers come from the attributes the benchmark assigned, fed
//! to the centralized oracle of `moara_baselines`; wrong, stale, non-200
//! and refused answers all count as failures.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use moara_aggregation::AggResult;
use moara_baselines::CentralCluster;
use moara_daemon::parse_attrs;
use moara_simnet::latency::Constant;
use moara_simnet::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::fleet::{Fleet, FleetSpec, DAEMONS};
use crate::json::Json;
use crate::load::{
    attr_request, closed_loop, paced_loop, query_request, CacheTag, HttpClient, LoopReport,
    PacedReport, Response, Window,
};
use crate::metrics::{median_f64, percentile_supported, HOT_READ, WALK, WRITE_READ};
use crate::{sys, Outcome};

/// Clients of every live workload: one per core of the reference machine.
pub const CLIENTS: usize = 2;
/// `write-read`: paced writes per second.
pub const WRITE_HZ: u32 = 25;
/// `write-read`: the tail of the window in which no write is issued, so
/// the last ones can still become visible to the reader.
const WRITE_DRAIN: Duration = Duration::from_millis(500);
/// `write-read`: the writer's starting `Load`, above every other node's
/// (those stay below 100) so its value is always the group maximum.
const WRITE_BASE: u64 = 1000;
const WRITE_TEXT: &str = "SELECT max(Load) WHERE ServiceX = true";

/// Everything a live workload feeds the program, generated from the seed.
pub struct Plan {
    pub workload: &'static str,
    pub spec: FleetSpec,
    pub texts: Vec<String>,
    pub requests: Vec<Vec<u8>>,
    /// The exact body each text must answer (trailing newline aside).
    pub expected: Vec<Vec<u8>>,
}

/// The body `moarad` renders for a complete answer.
pub fn answer_body(result: &str) -> Vec<u8> {
    format!(
        "{{\"result\":{},\"complete\":true}}",
        Json::Str(result.to_owned()).render()
    )
    .into_bytes()
}

pub fn plan(workload: &'static str, seed: u64) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11fe_7e57);
    // Daemons 0, 1 and 2 form the group (both client daemons, and with
    // daemon 1 the writer of `write-read`). Who is in it is the same under
    // every seed, as the ring ids are (see `fleet::RING_SEED`): among five
    // daemons those two decide the aggregation tree and which of its hops
    // cross cores, and CPU per request moves by a quarter with them. The
    // seed deals what does not change the work: values, thresholds, texts
    // and their order.
    let in_group = |d: usize| d < 3;
    // Every numeric attribute is a permutation of five fixed values:
    // distinct, so `max`/`min` have one winner to attribute, and the same
    // multiset under every seed, so a threshold between two of them
    // selects equally many daemons whichever seed dealt them.
    let mut deal = |values: [u64; DAEMONS]| {
        let mut v = values;
        v.shuffle(&mut rng);
        v
    };
    let loads = deal([10, 30, 50, 70, 90]);
    let cpus = deal([15, 35, 55, 75, 95]);
    let mems = deal([8, 16, 24, 40, 56]);
    let attrs: Vec<String> = (0..DAEMONS)
        .map(|d| {
            let load = if workload == WRITE_READ && d == 1 {
                WRITE_BASE
            } else {
                loads[d]
            };
            format!(
                "ServiceX={},Load={load},CPU-Util={},Mem={}",
                in_group(d),
                cpus[d],
                mems[d]
            )
        })
        .collect();

    let mut oracle = CentralCluster::new(DAEMONS, seed, Constant::from_millis(1));
    for (d, spec) in attrs.iter().enumerate() {
        for (k, v) in parse_attrs(spec).expect("generated attrs parse") {
            oracle.set_attr(NodeId(d as u32), &k, v);
        }
    }
    let mut answer = |text: &str| oracle.query(text).expect("generated text parses").result;

    let mut simple: Vec<String> = ["Load", "CPU-Util", "Mem"]
        .iter()
        .flat_map(|a| {
            ["avg", "max", "min", "sum"].map(|f| format!("SELECT {f}({a}) WHERE ServiceX = true"))
        })
        .collect();
    simple.push("SELECT count(*) WHERE ServiceX = true".to_owned());
    simple.shuffle(&mut rng);
    // The seed moves each threshold only between two neighbouring
    // attribute values: `<` always selects three daemons and `>` two, so
    // the composite walks cost the same under every seed, and an `AND`
    // with the three-member group can never select nobody (over an empty
    // set `moarad` answers `0` where the oracle says `(empty)`).
    let (below, above) = (rng.gen_range(56..75), rng.gen_range(56..70));
    let mut and = [
        format!("SELECT count(*) WHERE ServiceX = true AND CPU-Util < {below}"),
        format!(
            "SELECT avg(Mem) WHERE ServiceX = true AND Load < {}",
            below - 5
        ),
    ];
    let mut or = [
        format!("SELECT sum(Load) WHERE ServiceX = true OR Load > {above}"),
        format!(
            "SELECT max(CPU-Util) WHERE ServiceX = true OR CPU-Util > {}",
            above + 5
        ),
    ];
    and.shuffle(&mut rng);
    or.shuffle(&mut rng);
    // One of each kind first: `walk` takes two composites.
    let [and0, and1] = and;
    let [or0, or1] = or;
    let composite = [and0, or0, and1, or1];
    let (n_simple, n_composite) = match workload {
        WALK => (6, 2),
        HOT_READ => (13, 3),
        _ => (0, 0),
    };
    let mut texts: Vec<String> = simple[..n_simple]
        .iter()
        .chain(&composite[..n_composite])
        .cloned()
        .collect();
    texts.shuffle(&mut rng);
    if workload == WRITE_READ {
        texts = vec![WRITE_TEXT.to_owned()];
    }
    let expected = texts
        .iter()
        .map(|q| {
            let result = answer(q);
            assert_ne!(result, AggResult::Empty, "{q:?} selects nobody");
            answer_body(&result.to_string())
        })
        .collect();
    Plan {
        workload,
        spec: FleetSpec {
            attrs,
            query_cache: workload != WALK,
        },
        requests: texts.iter().map(|q| query_request(q)).collect(),
        texts,
        expected,
    }
}

fn trimmed(body: &[u8]) -> &[u8] {
    body.trim_ascii_end()
}

/// The `Load` a `write-read` answer carries, if the body is exactly the
/// rendering of `<k> at @1` (the writer's node).
pub fn written_value(body: &[u8]) -> Option<u64> {
    let rest = trimmed(body).strip_prefix(b"{\"result\":\"")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    if &rest[digits..] != b" at @1\",\"complete\":true}" {
        return None;
    }
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// Judges `write-read` answers: each must be well-formed, never below an
/// earlier answer (a cache serving a value it had already superseded) and
/// never above the last value the writer sent.
pub struct CoherenceCheck<'a> {
    pub last_sent: &'a AtomicU64,
    pub last_seen: u64,
    /// `(completion time, value)` each time the answer rose.
    pub rises: Vec<(Instant, u64)>,
}

impl CoherenceCheck<'_> {
    pub fn check(&mut self, body: &[u8], done: Instant) -> bool {
        let Some(v) = written_value(body) else {
            return false;
        };
        if v < self.last_seen || v > self.last_sent.load(Ordering::SeqCst) {
            return false;
        }
        if v > self.last_seen {
            self.last_seen = v;
            if self.rises.len() < self.rises.capacity() {
                self.rises.push((done, v));
            }
        }
        true
    }
}

/// Brings a freshly spawned fleet to "correct and warmed": every text
/// answers correctly on both client daemons, and with the cache on, every
/// daemon answers every text from memory.
fn verify_and_warm(fleet: &Fleet, plan: &Plan, out: &mut Outcome) -> Result<(), String> {
    let targets = if plan.spec.query_cache {
        DAEMONS
    } else {
        CLIENTS
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    for &addr in &fleet.http[..targets] {
        let mut client = HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let mut cold: Vec<usize> = (0..plan.texts.len()).collect();
        while !cold.is_empty() {
            let mut still_cold = Vec::new();
            for &i in &cold {
                out.attempted += 1;
                let resp = client
                    .roundtrip(&plan.requests[i])
                    .map_err(|e| format!("warm {addr}: {e}"))?;
                if resp.status != 200 || trimmed(resp.body) != plan.expected[i] {
                    out.fail(format!(
                        "set-up: {:?} answered {} {:?}, expected {:?}",
                        plan.texts[i],
                        resp.status,
                        String::from_utf8_lossy(resp.body),
                        String::from_utf8_lossy(&plan.expected[i]),
                    ));
                } else if plan.spec.query_cache && resp.cache != CacheTag::Hit {
                    still_cold.push(i);
                }
            }
            cold = still_cold;
            if Instant::now() > deadline {
                return Err(format!(
                    "{addr} never served {:?} from the cache",
                    plan.texts[cold[0]]
                ));
            }
        }
    }
    Ok(())
}

/// How to host the daemons of one pass.
pub enum Hosting<'a> {
    /// Real `moarad` subprocesses (every end-to-end number).
    Processes { moarad: &'a Path, out_dir: &'a Path },
    /// In-process daemons with a span around every step (traced pass);
    /// span times count from the instant.
    InProcess(Instant),
}

/// Spawns, converges, verifies and warms a fleet; returns it with the
/// time that took.
pub fn set_up(
    plan: &Plan,
    hosting: &Hosting<'_>,
    out: &mut Outcome,
) -> Result<(Fleet, f64), String> {
    let t0 = Instant::now();
    let mut fleet = match hosting {
        Hosting::Processes { moarad, out_dir } => {
            Fleet::spawn_processes(moarad, &plan.spec, out_dir)?
        }
        Hosting::InProcess(epoch) => Fleet::spawn_in_process(&plan.spec, *epoch)?,
    };
    if let Err(e) = verify_and_warm(&fleet, plan, out) {
        fleet.keep_logs();
        return Err(e);
    }
    Ok((fleet, t0.elapsed().as_secs_f64()))
}

/// Sets a fleet up `setups` times (tearing all but the last down again)
/// and reports the median time as `setup_s`.
pub fn set_up_repeatedly(
    plan: &Plan,
    hosting: &Hosting<'_>,
    setups: usize,
    out: &mut Outcome,
) -> Result<Fleet, String> {
    let mut times = Vec::new();
    let mut fleet = None;
    for _ in 0..setups.max(1) {
        drop(fleet.take());
        let (f, s) = set_up(plan, hosting, out)?;
        times.push(s);
        fleet = Some(f);
    }
    out.values.set("setup_s", median_f64(&mut times));
    Ok(fleet.expect("at least one set-up ran"))
}

/// What one measured window produced, before it is turned into metrics.
pub struct Measured {
    pub window: Window,
    /// One report per closed-loop client.
    pub clients: Vec<LoopReport>,
    /// `write-read` only.
    pub writer: Option<PacedReport>,
    /// `write-read` only: due → first read showing the write, sorted, ns.
    /// Writes never seen are absent here and counted as failures.
    pub visible_ns: Vec<u64>,
    /// Σ daemon processes' CPU over the window, ms (0 when hosted
    /// in-process: the threads share this process).
    pub daemon_cpu_ms: f64,
    pub daemon_rss_mb: f64,
}

impl Measured {
    /// Correct answers that started inside the window, sorted, ns.
    pub fn latencies_ns(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .clients
            .iter()
            .flat_map(|c| c.samples.iter().map(|s| s.1))
            .collect();
        all.sort_unstable();
        all
    }

    pub fn window_attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.window_attempted).sum::<u64>()
            + self.writer.as_ref().map_or(0, |w| w.attempted)
    }
}

/// Runs the workload's load against a ready fleet for one window.
pub fn measure(fleet: &Fleet, plan: &Plan, warmup: Duration, window: Duration) -> Measured {
    let win = Window::starting_in(warmup, window);
    let last_sent = AtomicU64::new(WRITE_BASE);
    let writes: Vec<Vec<u8>> = if plan.workload == WRITE_READ {
        let drain = WRITE_DRAIN.min(window / 4);
        let n = ((window - drain).as_secs_f64() * f64::from(WRITE_HZ)) as u64;
        (1..=n)
            .map(|k| attr_request("Load", WRITE_BASE + k))
            .collect()
    } else {
        Vec::new()
    };
    let period = Duration::from_secs(1) / WRITE_HZ;
    let mut rises: Vec<(Instant, u64)> = Vec::new();

    let cores = sys::cores();
    let (clients, writer, cpu, rss) = std::thread::scope(|s| {
        let mut readers = Vec::new();
        let mut writer = None;
        if plan.workload == WRITE_READ {
            let (requests, last_sent) = (&plan.requests, &last_sent);
            let reader_addr = fleet.http[0];
            let capacity = writes.len() + 16;
            readers.push(s.spawn(move || {
                sys::pin_to_core(0, cores);
                let mut judge = CoherenceCheck {
                    last_sent,
                    last_seen: 0,
                    rises: Vec::with_capacity(capacity),
                };
                let report = closed_loop(reader_addr, requests, 0, win, |_, resp, done| {
                    judge.check(resp.body, done)
                });
                (report, judge.rises)
            }));
            let (writes, writer_addr) = (&writes, fleet.http[1]);
            writer = Some(s.spawn(move || {
                sys::pin_to_core(1, cores);
                paced_loop(
                    writer_addr,
                    writes,
                    win.measure_from,
                    period,
                    |k| last_sent.store(WRITE_BASE + 1 + k as u64, Ordering::SeqCst),
                    |resp| trimmed(resp.body) == b"{\"ok\":true,\"set\":1}",
                )
            }));
        } else {
            for c in 0..CLIENTS {
                let addr: SocketAddr = fleet.http[c];
                let (requests, expected) = (&plan.requests, &plan.expected);
                // Clients start half a cycle apart so they rarely ask
                // for the same text at once.
                let offset = c * requests.len() / CLIENTS;
                readers.push(s.spawn(move || {
                    // Client `c` talks to daemon `c`: same core.
                    sys::pin_to_core(c, cores);
                    let report =
                        closed_loop(addr, requests, offset, win, |i, resp: &Response<'_>, _| {
                            trimmed(resp.body) == expected[i]
                        });
                    (report, Vec::new())
                }));
            }
        }
        // This thread only brackets the window with /proc readings.
        std::thread::sleep(win.measure_from.saturating_duration_since(Instant::now()));
        let cpu0 = fleet.cpu_ms();
        std::thread::sleep(win.end.saturating_duration_since(Instant::now()));
        let (cpu, rss) = (fleet.cpu_ms() - cpu0, fleet.peak_rss_mb());
        let mut clients = Vec::new();
        for r in readers {
            let (report, r) = r.join().expect("client thread panicked");
            clients.push(report);
            rises.extend(r);
        }
        let writer = writer.map(|w| w.join().expect("writer thread panicked"));
        (clients, writer, cpu, rss)
    });

    // Visibility of write k: first read at or above its value, counted
    // from when the write was due.
    let mut visible_ns = Vec::new();
    if let Some(w) = &writer {
        let mut rise = 0;
        for (k, &due) in w.due_ns.iter().enumerate() {
            let value = WRITE_BASE + 1 + k as u64;
            while rise < rises.len() && rises[rise].1 < value {
                rise += 1;
            }
            if let Some(&(seen, _)) = rises.get(rise) {
                let due = win.measure_from + Duration::from_nanos(due);
                visible_ns.push(seen.saturating_duration_since(due).as_nanos() as u64);
            }
        }
        visible_ns.sort_unstable();
    }
    Measured {
        window: win,
        clients,
        writer,
        visible_ns,
        daemon_cpu_ms: cpu,
        daemon_rss_mb: rss,
    }
}

/// Folds a measured window into `out`: counts, failures, and the
/// end-to-end metrics the workload reports.
pub fn report(m: &Measured, out: &mut Outcome) {
    for c in &m.clients {
        out.attempted += c.attempted;
        out.failed += c.failed;
        out.failures.extend(c.first_failure.clone());
    }
    if let Some(w) = &m.writer {
        out.attempted += w.attempted;
        out.failed += w.failed;
        out.failures.extend(w.first_failure.clone());
        let unseen = w.due_ns.len() - m.visible_ns.len();
        if unseen > 0 {
            out.failed += unseen as u64;
            out.failures
                .push(format!("{unseen} writes never became visible"));
        }
        let mut late = w.late_ns.clone();
        late.sort_unstable();
        out.values.set(
            "bench.writer_late_p99_ms",
            percentile_supported(&late, 99.0).0 as f64 / 1e6,
        );
        out.values.set(
            "write_visible_p50_ms",
            percentile_supported(&m.visible_ns, 50.0).0 as f64 / 1e6,
        );
        let (p95, used) = percentile_supported(&m.visible_ns, 95.0);
        out.values.set("write_visible_p95_ms", p95 as f64 / 1e6);
        out.notes.push(format!(
            "write-read: {} writes at {WRITE_HZ}/s, {} seen by the reader, visibility tail at p{used:.1}",
            w.due_ns.len(),
            m.visible_ns.len()
        ));
    }
    let lat = m.latencies_ns();
    let secs = m.window.seconds();
    out.values.set("qps", lat.len() as f64 / secs);
    out.values.set(
        "query_p50_ms",
        percentile_supported(&lat, 50.0).0 as f64 / 1e6,
    );
    let (p99, used) = percentile_supported(&lat, 99.0);
    out.values.set("query_p99_ms", p99 as f64 / 1e6);
    let requests = m.window_attempted().max(1) as f64;
    out.values
        .set("cpu_ms_per_kreq", m.daemon_cpu_ms / requests * 1000.0);
    out.values.set("rss_mb", m.daemon_rss_mb);
    let answered = lat.len().max(1) as f64;
    let hits: u64 = m.clients.iter().map(|c| c.hits).sum();
    let coalesced: u64 = m.clients.iter().map(|c| c.coalesced).sum();
    out.values
        .set("gateway.cache_hit_share", hits as f64 / answered);
    out.values
        .set("gateway.coalesced_share", coalesced as f64 / answered);
    let client_cpu: u64 = m.clients.iter().map(|c| c.thread_cpu_ns).sum();
    let client_reqs: u64 = m.clients.iter().map(|c| c.window_attempted).sum();
    out.values.set(
        "bench.loadgen_floor_us",
        client_cpu as f64 / client_reqs.max(1) as f64 / 1e3,
    );
    out.notes.push(format!(
        "{} correct answers in {secs:.1} s from {} closed-loop client(s); latency tail at p{used:.1}",
        lat.len(),
        m.clients.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seeded_and_checkable() {
        let (a, b, c) = (plan(WALK, 7), plan(WALK, 7), plan(WALK, 8));
        assert_eq!(a.texts, b.texts);
        assert_eq!(a.spec.attrs, b.spec.attrs);
        assert!(a.texts != c.texts || a.spec.attrs != c.spec.attrs);
        assert_eq!(a.texts.len(), 8);
        assert_eq!(
            a.texts
                .iter()
                .filter(|t| t.contains(" AND ") || t.contains(" OR "))
                .count(),
            2
        );
        assert!(!a.spec.query_cache);
        let hot = plan(HOT_READ, 7);
        assert_eq!(hot.texts.len(), 16);
        let mut distinct = hot.texts.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 16);
        assert!(hot.spec.query_cache);
        // Three group members, the writer's daemon among them.
        for p in [&a, &hot] {
            assert_eq!(
                p.spec
                    .attrs
                    .iter()
                    .filter(|s| s.contains("ServiceX=true"))
                    .count(),
                3
            );
            assert!(p.spec.attrs[1].contains("ServiceX=true"));
        }
        let wr = plan(WRITE_READ, 7);
        assert_eq!(wr.texts, [WRITE_TEXT]);
        assert_eq!(wr.expected[0], answer_body("1000 at @1"));
    }

    /// A wrong body and a regressing `max` are both counted as failures.
    #[test]
    fn wrong_and_regressing_answers_are_caught() {
        let sent = AtomicU64::new(1005);
        let mut judge = CoherenceCheck {
            last_sent: &sent,
            last_seen: 0,
            rises: Vec::with_capacity(8),
        };
        let now = Instant::now();
        let body = |v: u64| answer_body(&format!("{v} at @1"));
        assert!(judge.check(&body(1003), now));
        assert!(judge.check(&body(1003), now), "repeats are fine");
        assert!(judge.check(&body(1005), now));
        assert!(
            !judge.check(&body(1004), now),
            "a decrease is a coherence failure"
        );
        assert!(!judge.check(&body(1006), now), "a value nobody wrote yet");
        assert!(
            !judge.check(b"{\"result\":\"1005 at @2\",\"complete\":true}", now),
            "wrong node"
        );
        assert!(!judge.check(b"{\"result\":\"1005 at @1\",\"complete\":false}", now));
        assert!(!judge.check(b"{\"error\":\"boom\"}", now));
        assert_eq!(
            judge.rises.iter().map(|r| r.1).collect::<Vec<_>>(),
            [1003, 1005]
        );

        // And through the closed loop itself: a server answering one
        // right and one wrong body yields exactly one failure.
        use std::io::{Read, Write};
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = l.accept().unwrap();
            let mut buf = [0u8; 1024];
            for body in [
                "{\"result\":\"3\",\"complete\":true}\n",
                "{\"result\":\"4\",\"complete\":true}\n",
            ] {
                let _ = s.read(&mut buf).unwrap();
                write!(
                    s,
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .unwrap();
            }
            // Then hold the socket until the client's window closes.
            let _ = s.read(&mut buf);
        });
        let expected = answer_body("3");
        let win = Window::starting_in(Duration::ZERO, Duration::from_millis(300));
        let mut asked = 0;
        let report = closed_loop(
            addr,
            &[query_request("SELECT count(*)")],
            0,
            win,
            |_, resp, _| {
                asked += 1;
                // Stop after two answers: block until the window is over.
                if asked == 2 {
                    std::thread::sleep(win.end.saturating_duration_since(Instant::now()));
                }
                trimmed(resp.body) == expected
            },
        );
        drop(server);
        assert_eq!(
            (report.attempted, report.failed, report.samples.len()),
            (2, 1, 1)
        );
        assert!(report.first_failure.unwrap().contains("\\\"4\\\""));
    }
}
