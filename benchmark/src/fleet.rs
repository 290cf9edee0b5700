//! A five-daemon cluster to measure: real `moarad` subprocesses for the
//! end-to-end runs, or the same daemons hosted in-process (with a span
//! around every event-loop step) for the traced run.
//!
//! Whichever way it was started, dropping the [`Fleet`] stops it: every
//! child is killed and reaped, every hosted daemon thread joined. The
//! children additionally carry a parent-death signal, so even a
//! `kill -9` of the benchmark leaves no `moarad` behind.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use moara_daemon::{parse_attrs, Daemon, DaemonOpts};

use crate::json::Json;
use crate::load::{plain_request, HttpClient};
use crate::sys;

pub const DAEMONS: usize = 5;

/// The wait `Daemon::run_forever` (and so `moarad`) passes to `step`.
/// Hosted daemons must poll exactly as the binary does, or the traced
/// run would attribute a different loop wait than users see.
pub const LOOP_WAIT: Duration = Duration::from_millis(5);

const BOOT_TIMEOUT: Duration = Duration::from_secs(30);

/// `--seed` of every daemon (ring ids, jitter), the same in every run.
/// The benchmark's own seed does not reach it: five ring ids are too few
/// to average out, and the tree they form sets the messages and the
/// cross-core hops of every request. `sim-scale` is where ids vary with
/// the seed, over 2048 nodes.
pub const RING_SEED: u64 = 1;

/// What to start: everything here derives from the workload and the seed.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// `--attrs` per daemon, `k=v,...`.
    pub attrs: Vec<String>,
    /// `--no-query-cache`: the one non-default flag a workload may name.
    pub query_cache: bool,
}

/// One event-loop step of a hosted daemon.
#[derive(Clone, Copy, Debug)]
pub struct StepSpan {
    pub start_ns: u64,
    pub end_ns: u64,
    /// CPU the loop thread consumed in the step (the wait excluded).
    pub cpu_ns: u64,
    /// What `Daemon::step` returned: whether anything happened.
    pub did: bool,
}

enum Host {
    Process {
        child: Child,
        stdout_drain: Option<JoinHandle<()>>,
        stderr_path: PathBuf,
    },
    Thread {
        handle: Option<JoinHandle<Vec<StepSpan>>>,
    },
}

pub struct Fleet {
    pub http: Vec<SocketAddr>,
    pub ctrl: Vec<SocketAddr>,
    /// Last join → every daemon reports all members alive.
    pub converge_s: f64,
    hosts: Vec<Host>,
    stop: Arc<AtomicBool>,
    keep_logs: bool,
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

fn parse_banner(line: &str) -> Result<(SocketAddr, SocketAddr), String> {
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key))
            .and_then(|v| v.parse::<SocketAddr>().ok())
            .ok_or_else(|| format!("moarad banner lacks {key}: {line:?}"))
    };
    Ok((field("ctrl=")?, field("http=")?))
}

impl Fleet {
    /// Spawns `moarad` subprocesses with production defaults (plus the
    /// spec's one flag), one after another so node ids follow spawn
    /// order, and waits until the cluster has converged. Daemon stderr
    /// goes to `out_dir/moarad-<i>.stderr`, deleted on drop unless
    /// [`Fleet::keep_logs`] was called.
    ///
    /// # Errors
    ///
    /// Spawn failures, a daemon exiting or staying silent at boot, or the
    /// cluster not converging.
    pub fn spawn_processes(
        moarad: &Path,
        spec: &FleetSpec,
        out_dir: &Path,
    ) -> Result<Fleet, String> {
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let mut fleet = Fleet::empty();
        let cores = sys::cores();
        for (i, attrs) in spec.attrs.iter().enumerate() {
            let stderr_path = out_dir.join(format!("moarad-{i}.stderr"));
            let stderr = std::fs::File::create(&stderr_path)
                .map_err(|e| format!("{}: {e}", stderr_path.display()))?;
            let mut cmd = Command::new(moarad);
            cmd.args(["--listen", "127.0.0.1:0", "--http", "127.0.0.1:0"])
                .args(["--seed", &RING_SEED.to_string(), "--attrs", attrs]);
            if let Some(seed_ctrl) = fleet.ctrl.first() {
                cmd.args(["--join", &seed_ctrl.to_string()]);
            }
            if !spec.query_cache {
                cmd.arg("--no-query-cache");
            }
            cmd.stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(stderr);
            // SAFETY: the closure runs between fork and exec and only
            // makes two async-signal-safe syscalls.
            unsafe {
                cmd.pre_exec(move || {
                    sys::pin_to_core(i, cores);
                    prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                    Ok(())
                });
            }
            let mut child = cmd
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", moarad.display()))?;
            let stdout = child.stdout.take().expect("stdout was piped");
            let (tx, rx) = mpsc::channel();
            // Reads the banner, then keeps draining (membership lines)
            // until the child's exit closes the pipe.
            let stdout_drain = std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    let _ = tx.send(line);
                }
            });
            fleet.hosts.push(Host::Process {
                child,
                stdout_drain: Some(stdout_drain),
                stderr_path,
            });
            let banner = rx
                .recv_timeout(BOOT_TIMEOUT)
                .map_err(|_| format!("moarad {i} printed no banner"))?;
            let (ctrl, http) = parse_banner(&banner)?;
            fleet.ctrl.push(ctrl);
            fleet.http.push(http);
        }
        fleet.await_convergence()?;
        fleet.keep_logs = false;
        Ok(fleet)
    }

    /// Hosts the same five daemons in this process, each on its own
    /// thread running `step(LOOP_WAIT)` with a span around every step.
    /// Span times are ns since `epoch`.
    ///
    /// # Errors
    ///
    /// A daemon failing to boot, or the cluster not converging.
    pub fn spawn_in_process(spec: &FleetSpec, epoch: Instant) -> Result<Fleet, String> {
        let mut fleet = Fleet::empty();
        let cores = sys::cores();
        for (i, attrs) in spec.attrs.iter().enumerate() {
            let opts = DaemonOpts {
                join: fleet.ctrl.first().map(ToString::to_string),
                attrs: parse_attrs(attrs)?,
                seed: RING_SEED,
                http: Some("127.0.0.1:0".parse().expect("literal addr")),
                query_cache: spec.query_cache.then(moara_gateway::CacheConfig::default),
                ..DaemonOpts::new("127.0.0.1:0".parse().expect("literal addr"))
            };
            let stop = Arc::clone(&fleet.stop);
            let (tx, rx) = mpsc::channel();
            let handle = std::thread::Builder::new()
                .name(format!("moarad-{i}"))
                .spawn(move || {
                    // Before `start`, so the reactor threads inherit it.
                    sys::pin_to_core(i, cores);
                    let mut daemon = match Daemon::start(opts) {
                        Ok(d) => d,
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            return Vec::new();
                        }
                    };
                    let http = daemon.http_addr().expect("gateway was requested");
                    let _ = tx.send(Ok((daemon.ctrl_addr(), http)));
                    // Sized for 40 k steps/s over a 10 s window; a full
                    // buffer stops recording, never reallocates mid-run.
                    let mut spans: Vec<StepSpan> = Vec::with_capacity(400_000);
                    while !stop.load(Ordering::Relaxed) {
                        let (t0, c0) = (Instant::now(), sys::thread_cpu_ns());
                        let did = daemon.step(LOOP_WAIT);
                        let (t1, c1) = (Instant::now(), sys::thread_cpu_ns());
                        if spans.len() < spans.capacity() {
                            spans.push(StepSpan {
                                start_ns: t0.saturating_duration_since(epoch).as_nanos() as u64,
                                end_ns: t1.saturating_duration_since(epoch).as_nanos() as u64,
                                cpu_ns: c1 - c0,
                                did,
                            });
                        }
                    }
                    daemon.shutdown();
                    spans
                })
                .map_err(|e| format!("spawn daemon thread: {e}"))?;
            fleet.hosts.push(Host::Thread {
                handle: Some(handle),
            });
            let (ctrl, http) = rx
                .recv_timeout(BOOT_TIMEOUT)
                .map_err(|_| format!("hosted daemon {i} never booted"))??;
            fleet.ctrl.push(ctrl);
            fleet.http.push(http);
        }
        fleet.await_convergence()?;
        Ok(fleet)
    }

    fn empty() -> Fleet {
        Fleet {
            http: Vec::new(),
            ctrl: Vec::new(),
            converge_s: 0.0,
            hosts: Vec::new(),
            stop: Arc::new(AtomicBool::new(false)),
            // A boot that fails part-way keeps its evidence.
            keep_logs: true,
        }
    }

    /// Polls every daemon's `/healthz` (the answer crosses its event
    /// loop) until each reports every member known and alive.
    fn await_convergence(&mut self) -> Result<(), String> {
        let joined = Instant::now();
        let deadline = joined + BOOT_TIMEOUT;
        let want = self.http.len() as f64;
        let probe = plain_request("GET", "/healthz");
        for &addr in &self.http {
            let mut client =
                HttpClient::connect(addr).map_err(|e| format!("healthz {addr}: {e}"))?;
            loop {
                let resp = client
                    .roundtrip(&probe)
                    .map_err(|e| format!("healthz {addr}: {e}"))?;
                let body = Json::parse(&String::from_utf8_lossy(resp.body))?;
                let field = |k: &str| body.get(k).and_then(Json::as_f64);
                if resp.status == 200
                    && field("members") == Some(want)
                    && field("alive") == Some(want)
                {
                    break;
                }
                if Instant::now() > deadline {
                    return Err(format!("{addr} never converged: {}", body.render()));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        self.converge_s = joined.elapsed().as_secs_f64();
        Ok(())
    }

    fn pids(&self) -> impl Iterator<Item = u32> + '_ {
        self.hosts.iter().filter_map(|h| match h {
            Host::Process { child, .. } => Some(child.id()),
            Host::Thread { .. } => None,
        })
    }

    /// Σ over the daemon processes of user + system CPU so far, ms.
    pub fn cpu_ms(&self) -> f64 {
        self.pids().filter_map(sys::process_cpu_ms).sum()
    }

    /// Σ over the daemon processes of peak resident set, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids().filter_map(sys::process_peak_rss_mb).sum()
    }

    /// Keeps the daemons' stderr files on drop (call when a run failed).
    pub fn keep_logs(&mut self) {
        self.keep_logs = true;
    }

    /// Stops hosted daemons and returns each one's step spans (empty for
    /// subprocess fleets).
    pub fn stop_hosted(&mut self) -> Vec<Vec<StepSpan>> {
        self.stop.store(true, Ordering::Relaxed);
        self.hosts
            .iter_mut()
            .filter_map(|h| match h {
                Host::Thread { handle } => handle.take(),
                Host::Process { .. } => None,
            })
            .map(|h| h.join().expect("daemon thread panicked"))
            .collect()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Kill all first, then reap, so shutdown is one wait not five.
        for h in &mut self.hosts {
            if let Host::Process { child, .. } = h {
                let _ = child.kill();
            }
        }
        for h in &mut self.hosts {
            match h {
                Host::Process {
                    child,
                    stdout_drain,
                    stderr_path,
                } => {
                    let _ = child.wait();
                    if let Some(t) = stdout_drain.take() {
                        let _ = t.join();
                    }
                    if !self.keep_logs {
                        let _ = std::fs::remove_file(stderr_path);
                    }
                }
                Host::Thread { handle } => {
                    if let Some(t) = handle.take() {
                        let _ = t.join();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_yields_both_addresses() {
        let line =
            "MOARAD ctrl=127.0.0.1:7101 node=n0 peer=127.0.0.1:33391 members=1 http=127.0.0.1:8101";
        let (ctrl, http) = parse_banner(line).unwrap();
        assert_eq!((ctrl.port(), http.port()), (7101, 8101));
        assert!(parse_banner("MOARAD ctrl=127.0.0.1:1 http=-").is_err());
    }
}
