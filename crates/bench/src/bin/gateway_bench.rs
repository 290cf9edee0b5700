//! HTTP edge benchmark: N concurrent clients hammer a live multi-daemon
//! cluster through the `moara-gateway` and the harness records req/s and
//! the latency distribution.
//!
//! This is the first workload that measures the system the way its
//! eventual users see it — end to end through HTTP, the daemon event
//! loop, the query planner, and the aggregation trees — rather than
//! through the in-process harness. The daemons are real [`Daemon`]s on
//! the TCP transport (one per thread, like `moarad` processes sharing a
//! host); the clients are raw keep-alive sockets speaking HTTP/1.1.
//!
//! ```text
//! cargo run --release -p moara-bench --bin gateway_bench                         # full scale
//! cargo run --release -p moara-bench --bin gateway_bench -- --smoke              # CI gate
//! cargo run --release -p moara-bench --bin gateway_bench -- --profile read-heavy # cache on/off
//! cargo run --release -p moara-bench --bin gateway_bench -- --profile conn-sweep # 10k conns
//! ```
//!
//! The default profile measures the raw tree-walk path (result cache
//! off, so numbers stay comparable across runs of this bench). The
//! `read-heavy` profile measures a high repeat-rate query mix twice —
//! once with the result cache disabled, once with it enabled and warmed
//! — and records both, plus their ratio; with `--smoke` it *gates*:
//! cached throughput must beat uncached by ≥5× with zero coherence
//! errors (responses are validated against the known-correct answer on
//! every request, cached or not). The `conn-sweep` profile measures the
//! reactor's reason to exist: one real `moarad` process holds thousands
//! of idle keep-alive connections (10k at full scale, 2k in smoke)
//! while 16 active clients run the query mix; it gates on zero errors,
//! the gateway staying responsive after every connection wave, and the
//! parked connections still serving at the end.
//!
//! Writes `BENCH_gateway.json` (p50/p95/p99 latency, req/s, error
//! count). `--smoke` additionally *gates*: every request must succeed
//! and the latency/throughput floor must hold, else the process exits
//! nonzero and CI fails.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use moara_attributes::Value;
use moara_bench::harness::percentile;
use moara_bench::BenchReport;
use moara_daemon::{ctrl_roundtrip, CtrlReply, CtrlRequest, Daemon, DaemonOpts};
use moara_gateway::CacheConfig;

struct Scale {
    label: &'static str,
    daemons: usize,
    clients: usize,
    requests_per_client: usize,
    /// Smoke-gate floors (None = record only, never gate).
    gate: Option<Gate>,
}

struct Gate {
    min_req_per_s: f64,
    max_p99_ms: f64,
}

fn free_port() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

/// Boots one daemon on its own thread; returns (ctrl addr, http addr).
/// The thread serves until `stop` flips, then shuts the daemon down —
/// so a finished cluster's event loops don't keep stealing CPU from
/// the next measured pass.
fn boot_daemon(
    join: Option<String>,
    service_x: bool,
    cache: Option<CacheConfig>,
    stop: Arc<AtomicBool>,
) -> (SocketAddr, SocketAddr) {
    let listen = free_port();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut d = Daemon::start(DaemonOpts {
            join,
            attrs: vec![
                ("ServiceX".to_owned(), Value::Bool(service_x)),
                (
                    "CPU-Util".to_owned(),
                    Value::Int(if service_x { 30 } else { 80 }),
                ),
            ],
            http: Some("127.0.0.1:0".parse().expect("literal addr")),
            query_cache: cache,
            ..DaemonOpts::new(listen)
        })
        .expect("daemon boots");
        tx.send((d.ctrl_addr(), d.http_addr().expect("gateway enabled")))
            .expect("report addrs");
        while !stop.load(Ordering::Relaxed) {
            d.step(Duration::from_millis(2));
        }
        d.shutdown();
    });
    rx.recv_timeout(Duration::from_secs(30)).expect("daemon up")
}

fn wait_members(ctrl: SocketAddr, want: u32) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(CtrlReply::Status { members, .. }) = ctrl_roundtrip(
            &ctrl.to_string(),
            &CtrlRequest::Status,
            Duration::from_secs(5),
        ) {
            if members == want {
                return;
            }
        }
        assert!(Instant::now() < deadline, "cluster never converged");
        std::thread::sleep(Duration::from_millis(30));
    }
}

/// One HTTP request on a persistent connection; returns (status, body,
/// `X-Moara-Cache` header if present).
fn http_roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request: &str,
) -> Result<(u16, String, Option<String>), String> {
    writer
        .write_all(request.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send: {e}"))?;
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("status: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut content_length = 0usize;
    let mut cache = None;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("hdr: {e}"))?;
        if line == "\r\n" {
            break;
        }
        let lower = line.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v.trim().parse().map_err(|e| format!("len: {e}"))?;
        }
        if let Some(v) = lower.strip_prefix("x-moara-cache:") {
            cache = Some(v.trim().to_owned());
        }
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("body: {e}"))?;
    Ok((status, String::from_utf8_lossy(&body).into_owned(), cache))
}

/// What one measured pass produced.
struct Pass {
    /// Request latencies, ms at µs resolution (successful requests only).
    latencies_ms: Vec<f64>,
    /// Transport-/status-level failures.
    errors: u64,
    /// 200s whose body did not match the known-correct answer — on the
    /// read-heavy profile these are *coherence* failures (a cache
    /// serving a stale or wrong standing result).
    coherence_errors: u64,
    /// Responses tagged `X-Moara-Cache: hit`.
    hits: u64,
    /// Responses tagged `X-Moara-Cache: coalesced`.
    coalesced: u64,
    /// Wall-clock seconds.
    elapsed: f64,
}

impl Pass {
    fn req_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.elapsed
    }

    /// The `p`-th latency percentile in ms. With no successful request
    /// it is NaN, which fails every `<=` gate, where the harness's 0
    /// would pass one.
    fn percentile(&self, p: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return f64::NAN;
        }
        percentile(&self.latencies_ms, p)
    }
}

/// Runs one measured pass: `clients` threads × `requests` keep-alive
/// requests each, spraying across the daemons' gateways, validating
/// every body against `expect`.
fn run_pass(
    https: &[SocketAddr],
    clients: usize,
    requests: usize,
    request: &'static str,
    expect: &str,
) -> Pass {
    let started = Instant::now();
    let mut workers = Vec::new();
    for c in 0..clients {
        let addr = https[c % https.len()];
        let expect = expect.to_owned();
        workers.push(std::thread::spawn(move || {
            let mut latencies_ms = Vec::with_capacity(requests);
            let (mut errors, mut coherence_errors) = (0u64, 0u64);
            let (mut hits, mut coalesced) = (0u64, 0u64);
            let mut writer = TcpStream::connect(addr).expect("client connect");
            writer
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            let mut reader = BufReader::new(writer.try_clone().expect("clone"));
            for _ in 0..requests {
                let t0 = Instant::now();
                match http_roundtrip(&mut reader, &mut writer, request) {
                    Ok((200, body, cache)) => {
                        if body.contains(&expect) {
                            latencies_ms.push(t0.elapsed().as_micros() as f64 / 1000.0);
                            match cache.as_deref() {
                                Some("hit") => hits += 1,
                                Some("coalesced") => coalesced += 1,
                                _ => {}
                            }
                        } else {
                            coherence_errors += 1;
                        }
                    }
                    Ok(_) | Err(_) => errors += 1,
                }
            }
            (latencies_ms, errors, coherence_errors, hits, coalesced)
        }));
    }
    let mut pass = Pass {
        latencies_ms: Vec::new(),
        errors: 0,
        coherence_errors: 0,
        hits: 0,
        coalesced: 0,
        elapsed: 0.0,
    };
    for w in workers {
        let (lat, err, coh, hits, coal) = w.join().expect("client thread");
        pass.latencies_ms.extend(lat);
        pass.errors += err;
        pass.coherence_errors += coh;
        pass.hits += hits;
        pass.coalesced += coal;
    }
    pass.elapsed = started.elapsed().as_secs_f64();
    pass
}

/// A running cluster: every daemon's HTTP address plus the flag that
/// tells the daemon threads to shut down and stop consuming CPU.
struct Fleet {
    https: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
}

impl Fleet {
    /// Signals the daemons down and gives their event loops a beat to
    /// exit, so the next cluster measures on a quiet machine.
    fn retire(self) {
        self.stop.store(true, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Boots a cluster of `daemons` gateways (seed + joiners) and waits for
/// convergence.
fn boot_cluster(daemons: usize, cache: Option<CacheConfig>) -> Fleet {
    let stop = Arc::new(AtomicBool::new(false));
    let (seed_ctrl, seed_http) = boot_daemon(None, true, cache.clone(), stop.clone());
    let mut https = vec![seed_http];
    for i in 1..daemons {
        let (_ctrl, http) = boot_daemon(
            Some(seed_ctrl.to_string()),
            i % 2 == 0,
            cache.clone(),
            stop.clone(),
        );
        https.push(http);
    }
    wait_members(seed_ctrl, daemons as u32);
    Fleet { https, stop }
}

/// The default profile's hot query (the simple-predicate walk the bench
/// has always tracked), and the substring a correct answer contains.
fn hot_query(daemons: usize) -> (&'static str, String) {
    let in_group = daemons.div_ceil(2);
    (
        "GET /v1/query?q=SELECT%20count(*)%20WHERE%20ServiceX%20%3D%20true \
         HTTP/1.1\r\nHost: bench\r\n\r\n",
        format!("\"result\":\"{in_group}\""),
    )
}

/// The read-heavy profile's hot query: a composite predicate
/// (`ServiceX = true AND CPU-Util < 50`), the shape a dashboard pins —
/// the walk pays CNF planning and cover probes on every miss while a
/// cache hit costs the same hash lookup either way. ServiceX daemons
/// boot with `CPU-Util = 30`, the rest `80`, so the composite count
/// equals the ServiceX count.
fn hot_composite_query(daemons: usize) -> (&'static str, String) {
    let in_group = daemons.div_ceil(2);
    (
        "GET /v1/query?q=SELECT%20count(*)%20WHERE%20ServiceX%20%3D%20true%20AND%20\
         CPU-Util%20%3C%2050 HTTP/1.1\r\nHost: bench\r\n\r\n",
        format!("\"result\":\"{in_group}\""),
    )
}

/// One warmup request per daemon primes connections, probe caches, and
/// tree state out of the measured window.
fn warm_connections(https: &[SocketAddr], request: &str, expect: &str) {
    for &addr in https {
        let mut w = TcpStream::connect(addr).expect("warmup connect");
        let mut r = BufReader::new(w.try_clone().expect("clone"));
        let (status, body, _) = http_roundtrip(&mut r, &mut w, request).expect("warmup request");
        assert_eq!(status, 200, "warmup failed: {body}");
        assert!(body.contains(expect), "warmup answered {body}");
    }
}

/// Hammers each daemon until its gateway answers from the cache (the
/// promotion threshold crossed, the standing subscription installed and
/// synced), bounded by a deadline.
fn warm_cache(https: &[SocketAddr], request: &str, expect: &str) {
    for &addr in https {
        let mut w = TcpStream::connect(addr).expect("warm connect");
        w.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut r = BufReader::new(w.try_clone().expect("clone"));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (status, body, cache) =
                http_roundtrip(&mut r, &mut w, request).expect("warm request");
            assert_eq!(status, 200, "warm failed: {body}");
            assert!(body.contains(expect), "warm answered {body}");
            if cache.as_deref() == Some("hit") {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "cache never warmed on {addr} (last marker {cache:?})"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// The default profile: the raw tree-walk path (cache off), gated on a
/// generous floor under `--smoke`.
fn run_default(smoke: bool) {
    let scale = if smoke {
        Scale {
            label: "smoke",
            daemons: 3,
            clients: 4,
            requests_per_client: 50,
            gate: Some(Gate {
                // Deliberately generous: the gate exists to catch the
                // gateway becoming unusable (seconds-long stalls, mass
                // errors), not to benchmark CI hardware.
                min_req_per_s: 20.0,
                max_p99_ms: 2000.0,
            }),
        }
    } else {
        Scale {
            label: "full",
            daemons: 5,
            clients: 16,
            requests_per_client: 200,
            gate: None,
        }
    };

    // Cache off: this profile tracks the walk path's throughput across
    // PRs; the read-heavy profile owns the cached numbers.
    let fleet = boot_cluster(scale.daemons, None);
    let (request, expect) = hot_query(scale.daemons);
    warm_connections(&fleet.https, request, &expect);

    let pass = run_pass(
        &fleet.https,
        scale.clients,
        scale.requests_per_client,
        request,
        &expect,
    );
    fleet.retire();
    let total = (scale.clients * scale.requests_per_client) as u64;
    let errors = pass.errors + pass.coherence_errors;
    let req_per_s = pass.req_per_s();
    let p50 = pass.percentile(50.0);
    let p95 = pass.percentile(95.0);
    let p99 = pass.percentile(99.0);

    println!(
        "gateway_bench[{}]: daemons={} clients={} requests={} ok={} errors={}",
        scale.label,
        scale.daemons,
        scale.clients,
        total,
        pass.latencies_ms.len(),
        errors
    );
    println!(
        "  req/s={req_per_s:.1}  p50={p50:.2}ms  p95={p95:.2}ms  p99={p99:.2}ms  wall={:.2}s",
        pass.elapsed
    );

    let gate_passed = match &scale.gate {
        None => true,
        Some(g) => errors == 0 && req_per_s >= g.min_req_per_s && p99 <= g.max_p99_ms,
    };

    BenchReport::new("gateway")
        .field("scale", scale.label)
        .field("daemons", scale.daemons)
        .field("clients", scale.clients)
        .field("requests", total)
        .field("errors", errors)
        .field("req_per_s", req_per_s)
        .field("p50_ms", p50)
        .field("p95_ms", p95)
        .field("p99_ms", p99)
        .field("wall_s", pass.elapsed)
        .field("gate_passed", gate_passed)
        .write();

    if !gate_passed {
        eprintln!("gateway_bench: smoke gate FAILED");
        std::process::exit(1);
    }
}

/// The read-heavy profile: every client repeats the same hot query (the
/// repeat rate the result cache exists for), measured against two
/// separate clusters — cache off, then cache on and warmed — so the two
/// passes never share daemon state.
fn run_read_heavy(smoke: bool) {
    let (label, daemons, clients, requests) = if smoke {
        ("read-heavy-smoke", 3, 4, 100)
    } else {
        ("read-heavy-full", 15, 4, 1200)
    };

    // Pass 1 — uncached: the walk path under the same mix. The fleet is
    // retired before the cached cluster boots so the passes never
    // contend for the machine.
    let fleet = boot_cluster(daemons, None);
    let (request, expect) = hot_composite_query(daemons);
    warm_connections(&fleet.https, request, &expect);
    let uncached = run_pass(&fleet.https, clients, requests, request, &expect);
    fleet.retire();

    // Pass 2 — cached: fresh cluster, default cache config, warmed until
    // every daemon serves hits.
    let fleet = boot_cluster(daemons, Some(CacheConfig::default()));
    warm_connections(&fleet.https, request, &expect);
    warm_cache(&fleet.https, request, &expect);
    // Ten times the requests: a hit costs a tenth of a walk or less, and
    // a pass of a few milliseconds measures the scheduler, not the cache.
    let cached_requests = requests * 10;
    let cached = run_pass(&fleet.https, clients, cached_requests, request, &expect);
    fleet.retire();

    let total = (clients * requests) as u64;
    let speedup = cached.req_per_s() / uncached.req_per_s().max(f64::MIN_POSITIVE);
    let errors = uncached.errors + cached.errors;
    let coherence_errors = uncached.coherence_errors + cached.coherence_errors;

    println!(
        "gateway_bench[{label}]: daemons={daemons} clients={clients} requests={total}+{} \
         errors={errors} coherence_errors={coherence_errors}",
        clients * cached_requests
    );
    println!(
        "  uncached: req/s={:.1}  p50={:.3}ms  p99={:.3}ms",
        uncached.req_per_s(),
        uncached.percentile(50.0),
        uncached.percentile(99.0),
    );
    println!(
        "  cached:   req/s={:.1}  p50={:.3}ms  p99={:.3}ms  hits={}  coalesced={}",
        cached.req_per_s(),
        cached.percentile(50.0),
        cached.percentile(99.0),
        cached.hits,
        cached.coalesced,
    );
    println!("  speedup: {speedup:.1}x");

    // The gate: memory-speed reads must actually be memory-speed, and
    // never wrong. Gated only in smoke (CI); full scale records.
    let gate_passed = !smoke || (speedup >= 5.0 && errors == 0 && coherence_errors == 0);

    BenchReport::new("gateway")
        .field("scale", label)
        .field("daemons", daemons)
        .field("clients", clients)
        .field("requests", total)
        .field("cached_requests", (clients * cached_requests) as u64)
        .field("errors", errors)
        .field("coherence_errors", coherence_errors)
        .field("uncached_req_per_s", uncached.req_per_s())
        .field("uncached_p50_ms", uncached.percentile(50.0))
        .field("uncached_p99_ms", uncached.percentile(99.0))
        .field("cached_req_per_s", cached.req_per_s())
        .field("cached_p50_ms", cached.percentile(50.0))
        .field("cached_p99_ms", cached.percentile(99.0))
        .field("cached_hits", cached.hits)
        .field("cached_coalesced", cached.coalesced)
        .field("speedup", speedup)
        .field("gate_passed", gate_passed)
        .write();

    if !gate_passed {
        eprintln!("gateway_bench: read-heavy smoke gate FAILED");
        std::process::exit(1);
    }
}

/// Kills the subprocess daemon on drop so a failed gate can't leak it.
struct ChildGuard(std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns a real `moarad` process (found next to this bench binary in
/// the cargo target dir) with the gateway on; returns its HTTP address.
/// A subprocess, not an in-process daemon, so bench-side client sockets
/// and daemon-side accepted sockets draw on separate fd limits — the
/// 10k-connection sweep needs both halves.
fn spawn_moarad(extra: &[&str]) -> (ChildGuard, SocketAddr) {
    let moarad = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("target dir")
        .join("moarad");
    assert!(
        moarad.exists(),
        "moarad not found at {} (build the workspace first)",
        moarad.display()
    );
    let listen = free_port();
    let mut child = std::process::Command::new(moarad)
        .args(["--listen", &listen.to_string(), "--http", "127.0.0.1:0"])
        .args(["--attrs", "ServiceX=true,CPU-Util=30"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .expect("spawn moarad");
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout).lines();
        if let Some(Ok(line)) = lines.next() {
            let _ = tx.send(line);
        }
        for _ in lines {}
    });
    let banner = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("moarad banner");
    let http: SocketAddr = banner
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("http="))
        .expect("banner carries http=")
        .parse()
        .expect("http addr parses");
    (ChildGuard(child), http)
}

/// One `/healthz` round trip on a fresh connection; true iff 200.
fn health_ok(addr: SocketAddr) -> bool {
    let Ok(mut w) = TcpStream::connect(addr) else {
        return false;
    };
    if w.set_read_timeout(Some(Duration::from_secs(30))).is_err() {
        return false;
    }
    let mut r = BufReader::new(match w.try_clone() {
        Ok(c) => c,
        Err(_) => return false,
    });
    matches!(
        http_roundtrip(
            &mut r,
            &mut w,
            "GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n",
        ),
        Ok((200, _, _))
    )
}

/// The connection-sweep profile: one real `moarad` process holds
/// `idle_conns` parked keep-alive connections while 16 clients run the
/// query mix through the same gateway. Gates (smoke and full alike):
/// zero request errors, the gateway answering `/healthz` after every
/// connection wave, and a sample of the parked connections still
/// serving after the measured pass.
fn run_conn_sweep(smoke: bool) {
    let (label, idle_conns, requests) = if smoke {
        ("conn-sweep-smoke", 2_000usize, 100usize)
    } else {
        ("conn-sweep-full", 10_000, 400)
    };
    let clients = 16;

    // Cache off: the sweep tracks the walk path under connection load,
    // comparable with the default profile's numbers. The idle timeout
    // is raised far above the run length so the parked herd measures
    // reactor capacity, not the idle sweep racing a slow setup.
    let (_daemon, http) = spawn_moarad(&["--no-query-cache", "--gw-idle-timeout-ms", "600000"]);
    let (request, expect) = hot_query(1);
    let https = [http];
    warm_connections(&https, request, &expect);

    // Park the idle herd in waves; the gateway must stay responsive
    // after every wave (a blocking-pool gateway dies here: 16 workers,
    // wave one pins them all forever).
    let mut idle: Vec<TcpStream> = Vec::with_capacity(idle_conns);
    let mut waves_ok = true;
    let t0 = Instant::now();
    while idle.len() < idle_conns {
        for _ in 0..500.min(idle_conns - idle.len()) {
            idle.push(TcpStream::connect(http).expect("idle connect"));
        }
        waves_ok &= health_ok(http);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    // The measured pass: 16 active clients × `requests`, all while the
    // idle herd sits on the same reactor.
    let pass = run_pass(&https, clients, requests, request, &expect);

    // The parked connections must still be live state machines.
    let mut idle_alive = true;
    let step = (idle_conns / 16).max(1);
    for i in (0..idle_conns).step_by(step) {
        let s = &mut idle[i];
        let ok = s
            .set_read_timeout(Some(Duration::from_secs(30)))
            .and_then(|()| {
                s.write_all(b"GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
            })
            .is_ok();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        idle_alive &= ok && out.starts_with("HTTP/1.1 200 ");
    }

    let total = (clients * requests) as u64;
    let errors = pass.errors + pass.coherence_errors;
    let req_per_s = pass.req_per_s();
    let p50 = pass.percentile(50.0);
    let p99 = pass.percentile(99.0);

    println!(
        "gateway_bench[{label}]: idle_conns={idle_conns} clients={clients} requests={total} \
         ok={} errors={errors} setup={setup_s:.2}s",
        pass.latencies_ms.len()
    );
    println!(
        "  req/s={req_per_s:.1}  p50={p50:.2}ms  p99={p99:.2}ms  wall={:.2}s  \
         waves_ok={waves_ok}  idle_alive={idle_alive}",
        pass.elapsed
    );

    // Generous floors (CI hardware varies); the gate is about the
    // reactor surviving connection scale, not about benchmarking.
    let gate = if smoke {
        Gate {
            min_req_per_s: 20.0,
            max_p99_ms: 2000.0,
        }
    } else {
        Gate {
            min_req_per_s: 100.0,
            max_p99_ms: 2000.0,
        }
    };
    let gate_passed = errors == 0
        && waves_ok
        && idle_alive
        && req_per_s >= gate.min_req_per_s
        && p99 <= gate.max_p99_ms;

    BenchReport::new("gateway")
        .field("scale", label)
        .field("daemons", 1usize)
        .field("idle_conns", idle_conns as u64)
        .field("clients", clients)
        .field("requests", total)
        .field("errors", errors)
        .field("req_per_s", req_per_s)
        .field("p50_ms", p50)
        .field("p99_ms", p99)
        .field("setup_s", setup_s)
        .field("wall_s", pass.elapsed)
        .field("waves_ok", waves_ok)
        .field("idle_alive", idle_alive)
        .field("gate_passed", gate_passed)
        .write();

    if !gate_passed {
        eprintln!("gateway_bench: conn-sweep gate FAILED");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let profile = args
        .iter()
        .position(|a| a == "--profile")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("default");
    match profile {
        "default" => run_default(smoke),
        "read-heavy" => run_read_heavy(smoke),
        "conn-sweep" => run_conn_sweep(smoke),
        other => {
            eprintln!("gateway_bench: unknown profile {other} (default, read-heavy, conn-sweep)");
            std::process::exit(2);
        }
    }
}
