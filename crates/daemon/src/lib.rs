//! # moara-daemon
//!
//! `moarad` hosts **one `MoaraNode` per process** on the TCP transport and
//! stitches processes into a cluster, the daemon/client split used by
//! production node software:
//!
//! * **peer plane** — protocol traffic ([`DaemonMsg::Moara`]), membership
//!   broadcasts ([`DaemonMsg::Membership`]), SWIM, and cluster reads of
//!   traces, metrics, history and health
//!   ([`DaemonMsg::Ask`]/[`DaemonMsg::Told`]) travel between daemons over
//!   `moara-transport` TCP frames, on an auto-bound listener whose address
//!   is exchanged through membership;
//! * **control plane** — a user-facing listener (the `--listen` address)
//!   accepts framed [`CtrlRequest`]s from `moara-cli` (queries, attribute
//!   updates, status) and from joining daemons (`Join`), and nothing else.
//!
//! [`CtrlRequest`]/[`CtrlReply`] are the daemon's one operation set: the
//! control port and the HTTP gateway (`--http`) are two codecs over it,
//! and every operation has one implementation, in the event loop's
//! dispatcher (`serve.rs`). See "Operations" in `docs/gateway.md`.
//!
//! Cluster formation: the first daemon (no `--join`) is the *seed* and
//! owns membership *assignment* — it hands out dense `NodeId`s and random
//! ring ids, and broadcasts the full member list (with liveness and
//! incarnation numbers) on every change plus periodically as
//! anti-entropy. Every daemon rebuilds its overlay [`Directory`] from the
//! same list, so all processes derive identical tree topologies, exactly
//! like the in-process cluster.
//!
//! Membership *liveness*, by contrast, is fully decentralized: every
//! daemon embeds a SWIM-style failure detector (`moara-membership`) next
//! to its protocol node. Detectors ping each other over the peer plane
//! ([`DaemonMsg::Swim`]), escalate unanswered probes through random
//! relays, gossip suspicions and confirmations with incarnation numbers,
//! and hand confirmed failures to the daemon — whose node
//! ([`DaemonNode::apply_verdict`], shared with [`SimSwarm`]) removes the
//! peer from its [`Directory`] (DHT ring repair), tells its `MoaraNode`
//! (`on_peer_failed` + `reconcile`), and marks the member dead in its
//! view. A crashed peer therefore disappears from query answers and from
//! `moara-cli status` without any omniscient help. Crash-recovery is the
//! reverse: a restarted daemon re-joins through the seed (`--rejoin-as`),
//! is re-announced under a *higher incarnation*, and re-enters its
//! groups' trees. See `docs/membership.md`.
//!
//! The seed is a bootstrap convenience, not a data-plane coordinator:
//! queries, aggregation, pruning, and failure detection all run
//! peer-to-peer, so a cluster whose seed crashed keeps serving traffic.
//! The seed is, however, a bootstrap *single point*: while it is down no
//! new member can join, and restarting `moarad` without `--join` forks a
//! fresh one-member cluster rather than resuming the old one (the member
//! list is not persisted). Seed persistence/handover is future work.
//!
//! One module a plane: this file keeps the options, boot, the loop's step
//! and its maintenance; `docs/gateway.md` ("Where the daemon's code
//! lives") maps the others to their planes.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use moara_attributes::Value;
use moara_core::{DeliveryPolicy, Directory, MoaraConfig, MoaraMsg, MoaraNode};
use moara_gateway::{CacheConfig, GatewayHandle, GatewayOpts, GatewayStats, LoopEdge, QueryCache};
use moara_membership::{SwimConfig, SwimDetector};
use moara_query::{parse_query, Query};
use moara_simnet::{NodeId, SimDuration, SimTime};
use moara_trace::{format_trace_id, Histogram, SpanStore};
use moara_transport::{NetCtx, TcpConfig, TcpTransport, Transport};

pub mod alerts;
mod ctrl;
pub mod flags;
pub mod health;
mod membership;
mod metrics;
mod node;
pub mod recorder;
mod render;
mod serve;
pub mod sim;
pub use ctrl::{ctrl_roundtrip, CtrlReply, CtrlRequest};
pub use node::{DaemonMsg, DaemonNode, Member};
pub use serve::GATHER_TIMEOUT;
pub use sim::SimSwarm;

use alerts::{AlertEngine, AlertEvent, AlertRule};
use ctrl::{spawn_accept_loop, CtrlJob};
use membership::load_overlay;
use moara_gateway::json::JsonLine;
use node::moara_ctx;
use recorder::{kind, now_unix_ms, Recorder};
use serve::{Gather, ReplyTo, Walk};

/// Startup options for a daemon; `moarad`'s flags set them
/// ([`flags::parse`]).
#[derive(Clone, Debug)]
pub struct DaemonOpts {
    /// Control-plane listen address (`--listen`).
    pub listen: SocketAddr,
    /// Seed daemon's control address to join (`--join`); `None` makes
    /// this daemon the seed.
    pub join: Option<String>,
    /// Initial local attributes (`--attrs k=v,...`).
    pub attrs: Vec<(String, Value)>,
    /// Ring-id randomness (`--seed`, seed daemon only).
    pub seed: u64,
    /// Engine configuration.
    pub cfg: MoaraConfig,
    /// Failure-detector tuning (`--swim-*` flags).
    pub swim: SwimConfig,
    /// Crash-recovery (`--rejoin-as`): reclaim this node id from the
    /// seed instead of joining fresh. Requires `join`.
    pub rejoin: Option<u32>,
    /// HTTP gateway listen address (`--http`); `None` disables the
    /// gateway.
    pub http: Option<SocketAddr>,
    /// Trace sampling (`--trace-sample N`): every Nth root operation is
    /// traced (1 = everything); 0 disables the span store entirely.
    pub trace_sample: u64,
    /// Slow-query log (`--slow-query-ms N`): queries slower than this
    /// emit one JSON line on stderr; `None` disables.
    pub slow_query_ms: Option<u64>,
    /// Gateway access log (`--access-log`): one JSON line per HTTP
    /// request on stderr.
    pub access_log: bool,
    /// Gateway result cache (`--cache-*` / `--no-query-cache`): hot
    /// query texts get promoted to standing subscriptions and served
    /// from memory. `None` disables both the cache and single-flight
    /// request coalescing. Only takes effect with `http`.
    pub query_cache: Option<CacheConfig>,
    /// Gateway per-peer-IP rate limit in requests/second
    /// (`--gw-rate-limit`); `0.0` disables limiting.
    pub gw_rate_limit: f64,
    /// Gateway per-request deadline in milliseconds
    /// (`--gw-request-timeout-ms`): a request the daemon has not
    /// answered by then gets 408 and its connection closed.
    pub gw_request_timeout_ms: u64,
    /// Gateway keep-alive idle timeout in milliseconds
    /// (`--gw-idle-timeout-ms`): a connection with no request in
    /// flight and no bytes received for this long is closed. SSE
    /// streams are exempt.
    pub gw_idle_timeout_ms: u64,
    /// Event-loop stall watchdog threshold in milliseconds
    /// (`--stall-threshold-ms`): a tick whose *work* time (poll wait
    /// excluded) crosses this counts as stalled — the health sample's
    /// `stalled_ticks`, watched by the `event_loop_stall` alert.
    pub stall_threshold_ms: u64,
    /// Extra alert rules (`--alert-rules FILE`, parsed by
    /// `alerts::parse_rules`). Merged over the built-in defaults: a
    /// rule reusing a built-in name overrides it.
    pub alert_rules: Vec<AlertRule>,
    /// Flight-recorder history retention in seconds
    /// (`--history-retention`): sizes the coarse 10s ring; the fine 1s
    /// ring always holds the last 120 s.
    pub history_retention_s: u32,
    /// Crash-forensics dump directory (`--crash-dump-dir`): when set,
    /// the daemon rewrites a blackbox dump every maintenance tick and
    /// writes crash dumps on panics and stall-watchdog trips. `None`
    /// disables dumps (history and journal still record in memory).
    pub crash_dump_dir: Option<PathBuf>,
}

impl DaemonOpts {
    /// Defaults for everything but the control address: the only place
    /// a `moarad` flag's default is written.
    pub fn new(listen: SocketAddr) -> DaemonOpts {
        DaemonOpts {
            listen,
            join: None,
            attrs: Vec::new(),
            seed: 42,
            cfg: MoaraConfig::default(),
            swim: SwimConfig::default(),
            rejoin: None,
            http: None,
            trace_sample: 1,
            slow_query_ms: None,
            access_log: false,
            query_cache: Some(CacheConfig::default()),
            gw_rate_limit: 0.0,
            gw_request_timeout_ms: 30_000,
            gw_idle_timeout_ms: 30_000,
            stall_threshold_ms: 250,
            alert_rules: Vec::new(),
            history_retention_s: recorder::DEFAULT_RETENTION_S,
            crash_dump_dir: None,
        }
    }
}

/// Parses `k=v,...` attribute lists (`true`/`false` → Bool, integers →
/// Int, floats → Float, anything else → Str).
///
/// # Errors
///
/// Returns a description of the malformed entry.
pub fn parse_attrs(spec: &str) -> Result<Vec<(String, Value)>, String> {
    let mut out = Vec::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("attribute `{part}` is not k=v"))?;
        if k.is_empty() {
            return Err(format!("attribute `{part}` has an empty name"));
        }
        out.push((k.to_owned(), parse_value(v)));
    }
    Ok(out)
}

/// Value literal parsing shared by `--attrs` and `moara-cli set`.
pub fn parse_value(v: &str) -> Value {
    match v {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => {
            if let Ok(i) = v.parse::<i64>() {
                Value::Int(i)
            } else if let Ok(f) = v.parse::<f64>() {
                Value::Float(f)
            } else {
                Value::Str(v.to_owned())
            }
        }
    }
}

/// A running daemon: one Moara node, its transport, and both planes.
pub struct Daemon {
    transport: TcpTransport<DaemonNode>,
    me: NodeId,
    members: Vec<Member>,
    cfg: MoaraConfig,
    rng: StdRng,
    is_seed: bool,
    ctrl_addr: SocketAddr,
    ctrl_rx: Receiver<CtrlJob>,
    /// Shared with the control accept loop; set by [`Daemon::shutdown`].
    ctrl_stop: Arc<AtomicBool>,
    /// The embedded HTTP gateway, when `--http` asked for one.
    gw_handle: Option<GatewayHandle>,
    /// The HTTP connections this loop hosts (moved from the shards).
    gw_edge: Option<LoopEdge>,
    /// Tree walks in flight: front id → everyone waiting on that walk
    /// (single-flight: identical concurrent HTTP queries share one) plus
    /// cache bookkeeping.
    walks: HashMap<u64, Walk>,
    /// Queries parsed this step, oldest first: text, query, who asked.
    /// Their walks start together at the end of the step.
    queued_walks: Vec<(String, Query, ReplyTo)>,
    /// Single-flight registry: normalized query text → the front id of
    /// the walk already running for it. Identical queries arriving
    /// while it runs join its waiter list instead of walking again.
    gw_inflight: HashMap<String, u64>,
    /// The gateway result cache, shared with the gateway (it serves hits;
    /// this loop installs promotions, folds SubUpdates in, and demotes).
    /// `None` when disabled or the gateway is off.
    query_cache: Option<Arc<QueryCache>>,
    /// When idle cache entries were last swept.
    last_cache_sweep: Instant,
    /// Standing watches streaming to control connections and gateway
    /// SSE streams: watch id → reply end. A failed send means the
    /// watcher hung up; the daemon then cancels the subscription.
    watches: HashMap<u64, ReplyTo>,
    /// When watch streams were last liveness-probed (a quiescent watch
    /// sends nothing, so a hung-up client would otherwise hold its
    /// subscription until something changes).
    last_keepalive: Instant,
    /// Cluster-wide reads waiting on their peers' answers, by ask id.
    gathers: HashMap<u64, Gather>,
    /// The last ask id handed out.
    last_ask: u64,
    /// Sends that could not be delivered since the last drain (kept
    /// bounded by draining every step; the count feeds future failure
    /// detection).
    undeliverable_total: u64,
    /// Seed only: when membership was last re-broadcast. A periodic
    /// re-broadcast heals members that missed a join announcement (the
    /// peer plane is fire-and-forget).
    last_announce: Instant,
    /// This daemon's span store (shared with the engine and, for SWIM
    /// spans, the protocol node); `None` when `--trace-sample 0`.
    tracer: Option<Arc<SpanStore>>,
    /// Slow-query threshold; `None` disables the log.
    slow_query_ms: Option<u64>,
    /// Queries that crossed the slow-query threshold.
    slow_queries_total: u64,
    /// Event-loop tick service time (post-poll work per step), µs.
    tick_hist: Histogram,
    /// Control + gateway jobs drained per step.
    depth_hist: Histogram,
    /// SubDelta receive → fold-finished lag per hop, µs.
    delta_lag_hist: Histogram,
    /// When the daemon booted (uptime, alert `since` stamps).
    started: Instant,
    /// Stall-watchdog threshold in microseconds.
    stall_threshold_us: u64,
    /// Ticks whose work time crossed the threshold since boot.
    stalled_ticks: u64,
    /// When the maintenance timer (self-sample + alert evaluation)
    /// last ran.
    last_health_sample: Instant,
    /// The alert engine (built-ins merged with `--alert-rules`).
    alert_engine: AlertEngine,
    /// Most recent sampled trace id per gateway-latency bucket (only
    /// the exemplars are read). This is the daemon-side approximation of
    /// gateway request latency (query submit → outcome; HTTP parse/write
    /// excluded), which is where trace ids are known — the reactor
    /// shards never see them.
    gw_latency_exemplars: Histogram,
    /// The flight recorder: metrics history rings + event journal +
    /// crash-dump writer. `Arc` so the panic hook can share it.
    recorder: Arc<Recorder>,
    /// `sub_expired` counter at the last maintenance tick (journal
    /// lease-GC events are emitted as diffs).
    last_sub_expired: u64,
    /// Gateway error counter at the last maintenance tick.
    last_gw_errors: u64,
    /// Gateway panics-caught counter at the last maintenance tick.
    last_gw_panics: u64,
    /// When a stall-watchdog crash dump was last written (rate limit).
    last_stall_dump: Option<Instant>,
}

/// Spans each daemon's ring-buffer store holds before the oldest are
/// evicted (`docs/observability.md` says how much history that is).
const TRACE_STORE_CAP: usize = 8_192;

/// What that ring takes once full: 60 bytes a span (`SpanStore::SPAN_BYTES`,
/// the detail shared between the spans that carry it), 480 KiB. A bigger
/// ring or a bigger span does not build past 512 KiB.
const TRACE_STORE_BYTES: usize = TRACE_STORE_CAP * SpanStore::SPAN_BYTES;
const _: () = assert!(TRACE_STORE_BYTES <= 512 << 10);

/// How often the seed re-broadcasts the member list.
const ANNOUNCE_EVERY: Duration = Duration::from_secs(2);

/// Lease on cache-promoted standing subscriptions. Auto-renewed by the
/// subscription plane while the watch exists, so the length only bounds
/// how long peers hold orphaned state after an ungraceful death
/// (graceful shutdown cancels explicitly).
fn cache_sub_lease() -> SimDuration {
    SimDuration::from_micros(30_000_000)
}

/// How often the result cache sweeps for idle promoted entries.
const CACHE_SWEEP_EVERY: Duration = Duration::from_secs(5);

/// How often the maintenance timer samples this daemon's health into the
/// history rings (and re-evaluates the alert rules against the fresh
/// sample).
const HEALTH_SAMPLE_EVERY: Duration = Duration::from_secs(1);

/// Minimum spacing between stall-watchdog crash dumps (a sustained
/// stall would otherwise rewrite the dump every tick).
const STALL_DUMP_EVERY: Duration = Duration::from_secs(30);

impl Daemon {
    /// Boots a daemon: binds both planes, and either seeds a fresh
    /// cluster or joins an existing one through `opts.join`.
    ///
    /// # Errors
    ///
    /// Socket and join-protocol failures; an alert rule over a metric
    /// the health sample does not have.
    pub fn start(opts: DaemonOpts) -> Result<Daemon, String> {
        let alert_rules = alerts::merge_rules(opts.alert_rules);
        let keys: Vec<&str> = metrics::sample_keys().collect();
        alerts::check_metrics(&alert_rules, &keys)?;
        let mut transport: TcpTransport<DaemonNode> =
            TcpTransport::new(TcpConfig::seeded(opts.seed));
        let reserved = transport
            .reserve_listener()
            .map_err(|e| format!("bind peer listener: {e}"))?;
        let peer_addr = reserved.addr();
        let mut rng = StdRng::seed_from_u64(opts.seed);

        if opts.rejoin.is_some() && opts.join.is_none() {
            return Err("--rejoin-as requires --join (the seed revives identities)".into());
        }

        // The loop blocks in exactly one place, the transport's inbox;
        // both request planes enqueue their work and then wake it.
        let wake = transport.wake_handle();

        // Control plane: bound before joining, so a taken port fails the
        // start before the seed admits us. Jobs queue in the channel until
        // the loop starts draining.
        let ctrl_listener = TcpListener::bind(opts.listen)
            .map_err(|e| format!("bind control listener {}: {e}", opts.listen))?;
        let ctrl_addr = ctrl_listener
            .local_addr()
            .map_err(|e| format!("control addr: {e}"))?;
        let (ctrl_tx, ctrl_rx) = std::sync::mpsc::channel();
        let ctrl_stop = Arc::new(AtomicBool::new(false));
        spawn_accept_loop(ctrl_listener, ctrl_tx, wake.clone(), Arc::clone(&ctrl_stop));

        let (me, members) = match &opts.join {
            None => {
                // We are the seed: member 0 of a one-node cluster.
                let members = vec![Member {
                    node: 0,
                    ring_id: rng.gen(),
                    addr: peer_addr.to_string(),
                    incarnation: 0,
                    alive: true,
                }];
                (NodeId(0), members)
            }
            Some(seed_ctrl) => {
                // A rejoin racing its own failure detection ("node N is
                // still believed alive") is retried until the seed's
                // detector catches up — a quickly restarted daemon would
                // otherwise have to be relaunched by hand.
                let deadline = Instant::now() + Duration::from_secs(30);
                loop {
                    let reply = ctrl_roundtrip(
                        seed_ctrl,
                        &CtrlRequest::Join {
                            addr: peer_addr.to_string(),
                            prev_node: opts.rejoin,
                        },
                        Duration::from_secs(10),
                    )
                    .map_err(|e| format!("join via {seed_ctrl}: {e}"))?;
                    match reply {
                        CtrlReply::Joined { node, members } => break (NodeId(node), members),
                        CtrlReply::Error(e)
                            if e.contains("still believed alive") && Instant::now() < deadline =>
                        {
                            std::thread::sleep(Duration::from_millis(250));
                        }
                        CtrlReply::Error(e) => return Err(format!("seed refused join: {e}")),
                        other => return Err(format!("unexpected join reply {other:?}")),
                    }
                }
            }
        };

        let dir = Directory::from_members(&[], opts.cfg.bits_per_digit);
        load_overlay(&dir, &members, opts.cfg.bits_per_digit);
        let tracer = (opts.trace_sample > 0)
            .then(|| Arc::new(SpanStore::new(TRACE_STORE_CAP, opts.trace_sample)));
        let mut moara = MoaraNode::new(dir, opts.cfg.clone());
        // A rejoin revives our id under a higher incarnation while peers
        // still remember the previous life's query ids.
        let my_slot = members.iter().find(|m| m.node == me.0);
        moara.set_query_epoch(my_slot.map_or(0, |m| m.incarnation));
        if let Some(t) = &tracer {
            moara.set_tracer(Arc::clone(t));
        }
        for (k, v) in &opts.attrs {
            moara.store.set(k.as_str(), v.clone());
        }
        let mut swim = SwimDetector::new(me, opts.swim.clone(), opts.seed ^ u64::from(me.0));
        let epoch_now = SimTime::ZERO;
        for m in &members {
            swim.sync_peer(NodeId(m.node), m.incarnation, m.alive, epoch_now);
        }
        // A rejoiner spreads its revival by gossip too, so peers whose
        // anti-entropy broadcast is late still reintegrate it promptly.
        swim.announce_alive();
        let mut node = DaemonNode::new(moara, swim);
        node.tracer = tracer.clone();
        transport.add_node_with_listener(me, node, reserved);
        for m in &members {
            if m.node != me.0 && m.alive {
                let addr = resolve(&m.addr).map_err(|e| format!("peer {}: {e}", m.addr))?;
                transport.register_peer(NodeId(m.node), addr);
            }
        }

        // The HTTP edge: any client that can speak HTTP/1.1 (a browser, a
        // load balancer's health checks, a Prometheus scraper) enters
        // through here; a connection that needs the daemon moves onto the
        // same single-threaded loop as control requests. See
        // `docs/gateway.md`.
        let (gw_handle, gw_edge, query_cache) = match opts.http {
            None => (None, None, None),
            Some(addr) => {
                let listener = TcpListener::bind(addr)
                    .map_err(|e| format!("bind http listener {addr}: {e}"))?;
                let sink: Option<moara_gateway::AccessLogSink> = opts
                    .access_log
                    .then(|| Arc::new(|line: &str| eprintln!("{line}")) as _);
                // The cache is shared between the hosts that serve hits
                // inline and the event loop, which owns every mutation that
                // needs the protocol node: promotion installs, SubUpdate
                // folds, demotion lease releases.
                let cache = opts
                    .query_cache
                    .clone()
                    .map(|cfg| Arc::new(QueryCache::new(cfg)));
                let (handle, edge) = moara_gateway::spawn_gateway_opts(
                    listener,
                    Arc::new(move || wake.wake()),
                    GatewayOpts {
                        rate_limit: opts.gw_rate_limit,
                        request_timeout: Duration::from_millis(opts.gw_request_timeout_ms.max(1)),
                        idle_timeout: Duration::from_millis(opts.gw_idle_timeout_ms.max(1)),
                        access_log: sink,
                        cache: cache.clone(),
                        ..GatewayOpts::default()
                    },
                );
                transport.add_host_fd(edge.fd());
                (Some(handle), Some(edge), cache)
            }
        };

        let recorder = Arc::new(Recorder::new(
            opts.history_retention_s,
            opts.crash_dump_dir.clone(),
        ));
        recorder.set_node(me.0);
        // Crash forensics for panics: only installed when dumps are on
        // (`moarad` runs one daemon per process; in-process multi-daemon
        // tests never set `--crash-dump-dir`, so hooks don't stack).
        if recorder.dumps_enabled() {
            let rec = Arc::clone(&recorder);
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let ts = now_unix_ms();
                rec.record_event(kind::PANIC, format!("{info}"));
                let _ = rec.write_dump("crash-panic", ts);
                prev(info);
            }));
        }

        let mut daemon = Daemon {
            transport,
            me,
            members: members.clone(),
            cfg: opts.cfg,
            rng,
            is_seed: opts.join.is_none(),
            ctrl_addr,
            ctrl_rx,
            ctrl_stop,
            gw_handle,
            gw_edge,
            walks: HashMap::new(),
            queued_walks: Vec::new(),
            gw_inflight: HashMap::new(),
            query_cache,
            last_cache_sweep: Instant::now(),
            watches: HashMap::new(),
            last_keepalive: Instant::now(),
            gathers: HashMap::new(),
            last_ask: 0,
            undeliverable_total: 0,
            last_announce: Instant::now(),
            tracer,
            slow_query_ms: opts.slow_query_ms,
            slow_queries_total: 0,
            tick_hist: Histogram::latency_us(),
            depth_hist: Histogram::depth(),
            delta_lag_hist: Histogram::latency_us(),
            started: Instant::now(),
            stall_threshold_us: opts.stall_threshold_ms.saturating_mul(1_000).max(1),
            stalled_ticks: 0,
            last_health_sample: Instant::now(),
            alert_engine: AlertEngine::new(alert_rules),
            gw_latency_exemplars: Histogram::new(&moara_gateway::REQUEST_LATENCY_BOUNDS_US),
            recorder,
            last_sub_expired: 0,
            last_gw_errors: 0,
            last_gw_panics: 0,
            last_stall_dump: None,
        };
        // A joiner's presence is already in `members`; make the overlay
        // aware locally (the seed broadcasts to everyone else on join).
        daemon.reconcile_local();
        Ok(daemon)
    }

    /// The control-plane address (useful when `--listen` used port 0).
    pub fn ctrl_addr(&self) -> SocketAddr {
        self.ctrl_addr
    }

    /// The HTTP gateway address, when one is enabled.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.gw_handle.as_ref().map(|h| h.addr())
    }

    /// The HTTP gateway's own counters, when one is enabled.
    pub fn gateway_stats(&self) -> Option<&Arc<GatewayStats>> {
        self.gw_handle.as_ref().map(GatewayHandle::stats)
    }

    /// This daemon's node id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Members currently known.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// The full member view, liveness included.
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// Members currently believed alive.
    pub fn alive_member_count(&self) -> usize {
        self.members.iter().filter(|m| m.alive).count()
    }

    /// The peer-plane listen address.
    pub fn peer_addr(&self) -> Option<SocketAddr> {
        self.transport.local_addr(self.me)
    }

    /// Runs one event-loop iteration: pumps the transport, applies
    /// membership updates, serves control requests, finishes queries.
    /// Returns true if anything happened.
    pub fn step(&mut self, max_wait: Duration) -> bool {
        // Besides the transport's own timers, the loop must not sleep
        // through a gather deadline or its HTTP connections' next turn.
        let edge = self.gw_edge.as_ref().and_then(LoopEdge::wait_bound);
        let wait = [self.gather_wait(), edge].into_iter().flatten();
        let mut did = self.transport.pump(wait.fold(max_wait, Duration::min));
        // Tick timing starts after the poll: it measures how long one
        // loop iteration's *work* takes, not how long the loop idled.
        let tick_start = Instant::now();
        did |= self.apply_pending_membership();
        did |= self.apply_swim_events();
        let ctrl_jobs = self.drain_ctrl();
        let gw_jobs = self.pump_http();
        did |= ctrl_jobs + gw_jobs > 0;
        did |= self.start_queued_walks();
        did |= self.finish_queries();
        did |= self.pump_query_cache();
        did |= self.pump_watches();
        // SubDelta frames pumped this step have now been folded and (if
        // watched here) handed to their watchers: close their lag spans.
        let stamps = std::mem::take(&mut self.transport.node_mut(self.me).pending_delta_stamps);
        for stamp in stamps {
            self.delta_lag_hist
                .observe(u64::try_from(stamp.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
        // Keep the transport's undeliverable log bounded (it grows on
        // every send to a dead peer, and this loop runs forever); a gather
        // stops waiting for a peer in it.
        let undeliverable = self.transport.take_undeliverable();
        self.undeliverable_total += undeliverable.len() as u64;
        did |= self.pump_gathers(&undeliverable);
        if self.is_seed && self.members.len() > 1 && self.last_announce.elapsed() >= ANNOUNCE_EVERY
        {
            self.broadcast_membership();
        }
        // Maintenance timer: self-sample into the flight recorder's
        // history rings, re-evaluate the alert rules against the fresh
        // sample (rate() rules read the rings), and — when dumps are on —
        // rewrite the blackbox dump so a kill -9 still leaves the final
        // window on disk.
        if self.last_health_sample.elapsed() >= HEALTH_SAMPLE_EVERY {
            self.last_health_sample = Instant::now();
            let sample = self.health_sample();
            let now_ms = now_unix_ms();
            if let Ok(mut h) = self.recorder.history.lock() {
                h.record(now_ms, &sample);
            }
            self.evaluate_alerts(&sample, now_ms);
            self.journal_subsystem_diffs();
            self.refresh_recorder_context();
            if self.recorder.dumps_enabled() {
                self.recorder.write_dump("blackbox", now_ms);
            }
        }
        self.depth_hist.observe((ctrl_jobs + gw_jobs) as u64);
        let tick_us = u64::try_from(tick_start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.tick_hist.observe(tick_us);
        if tick_us >= self.stall_threshold_us {
            self.stalled_ticks += 1;
            self.recorder
                .record_event(kind::STALL, format!("tick_us={tick_us}"));
            if self.recorder.dumps_enabled()
                && self
                    .last_stall_dump
                    .is_none_or(|t| t.elapsed() >= STALL_DUMP_EVERY)
            {
                self.last_stall_dump = Some(Instant::now());
                let ts = now_unix_ms();
                self.recorder
                    .record_event(kind::CRASH_DUMP, "reason=crash-stall".to_owned());
                self.recorder.write_dump("crash-stall", ts);
            }
        }
        did
    }

    /// Runs the daemon loop forever (the `moarad` main).
    pub fn run_forever(&mut self) -> ! {
        loop {
            self.step(Duration::from_millis(5));
        }
    }

    /// Runs `f` on this daemon's protocol engine, with the context it
    /// sends and sets timers through.
    fn with_moara<R>(
        &mut self,
        f: impl FnOnce(&mut MoaraNode, &mut dyn NetCtx<MoaraMsg>) -> R,
    ) -> R {
        self.transport
            .with_node(self.me, |n, ctx| f(&mut n.moara, &mut moara_ctx(ctx)))
    }

    fn reconcile_local(&mut self) {
        self.with_moara(|moara, ctx| moara.reconcile(ctx));
    }

    /// Evaluates the alert rules against the freshest health sample,
    /// logging each firing/resolved transition as one JSON line on
    /// stderr (next to the slow-query log) and into the event journal.
    fn evaluate_alerts(&mut self, sample: &[(&'static str, f64)], now_ms: u64) {
        let now = Instant::now();
        let events = {
            let history = self.recorder.history.lock().ok();
            self.alert_engine
                .evaluate(sample, history.as_deref(), now, now_ms)
        };
        for ev in &events {
            eprintln!("{}", AlertEngine::event_line(self.me.0, ev, now_ms));
            match ev {
                AlertEvent::Fired {
                    rule,
                    metric,
                    value,
                    threshold,
                } => self.recorder.record_event(
                    kind::ALERT_FIRING,
                    format!("rule={rule} metric={metric} value={value} threshold={threshold}"),
                ),
                AlertEvent::Resolved { rule } => self
                    .recorder
                    .record_event(kind::ALERT_RESOLVED, format!("rule={rule}")),
            }
        }
    }

    /// Journals subsystem activity that only surfaces through counters:
    /// lease-GC expiries on the subscription plane, and errors/panics
    /// the gateway's reactor shards caught since the last tick.
    fn journal_subsystem_diffs(&mut self) {
        let expired = self.transport.stats().counter("sub_expired");
        if expired > self.last_sub_expired {
            let n = expired - self.last_sub_expired;
            self.last_sub_expired = expired;
            self.recorder
                .record_event(kind::SUB_LEASE_GC, format!("count={n}"));
        }
        if let Some(gw) = &self.gw_handle {
            use std::sync::atomic::Ordering::Relaxed;
            let s = gw.stats();
            let errors = s.errors.load(Relaxed);
            if errors > self.last_gw_errors {
                let n = errors - self.last_gw_errors;
                self.last_gw_errors = errors;
                self.recorder
                    .record_event(kind::GW_ERROR, format!("count={n}"));
            }
            let panics = s.panics_caught.load(Relaxed);
            if panics > self.last_gw_panics {
                let n = panics - self.last_gw_panics;
                self.last_gw_panics = panics;
                self.recorder
                    .record_event(kind::GW_PANIC, format!("count={n}"));
            }
        }
    }

    /// Refreshes the crash-dump context block: the member table,
    /// currently-firing alerts, and gateway latency exemplars, rendered
    /// as flat JSON lines so a dump carries the cluster's last known
    /// shape alongside this daemon's own series.
    fn refresh_recorder_context(&mut self) {
        if !self.recorder.dumps_enabled() {
            return;
        }
        let mut ctx = String::new();
        for m in &self.members {
            ctx.push_str(&recorder::peer_context_line(m));
            ctx.push('\n');
        }
        let now = Instant::now();
        for a in self.alert_engine.firing(now) {
            ctx.push_str(
                &JsonLine::new()
                    .str("t", "alert")
                    .str("rule", &a.rule)
                    .str("metric", &a.metric)
                    .f64("value", a.value)
                    .f64("threshold", a.threshold)
                    .u64("since_s", a.since_s)
                    .finish(),
            );
            ctx.push('\n');
        }
        for (key, trace_id) in self.exemplar_entries() {
            ctx.push_str(
                &JsonLine::new()
                    .str("t", "exemplar")
                    .str("key", &key)
                    .str("trace_id", &trace_id)
                    .finish(),
            );
            ctx.push('\n');
        }
        self.recorder.set_context(ctx);
    }

    /// One metric's series from the local history rings.
    fn local_history(&self, metric: &str, range_s: u32) -> Option<(u32, Vec<(u64, f64)>)> {
        let h = self.recorder.history.lock().ok()?;
        let (res_s, points) = h.series(metric, range_s, now_unix_ms())?;
        Some((u32::try_from(res_s).unwrap_or(u32::MAX), points))
    }

    /// Latency-bucket trace exemplars as (key, trace id) pairs:
    /// `phase/<phase>/le/<bound>` from the span store's per-phase
    /// histograms, `gateway/le/<bound>` from the daemon-observed
    /// gateway query latency.
    fn exemplar_entries(&self) -> Vec<(String, String)> {
        fn bound_str(b: u64) -> String {
            if b == u64::MAX {
                "+Inf".to_owned()
            } else {
                b.to_string()
            }
        }
        let mut out = Vec::new();
        if let Some(t) = &self.tracer {
            for (phase, entries) in t.phase_exemplars() {
                for (bound, id) in entries {
                    out.push((
                        format!("phase/{}/le/{}", phase.as_str(), bound_str(bound)),
                        format_trace_id(id),
                    ));
                }
            }
        }
        for (bound, id) in self.gw_latency_exemplars.exemplars() {
            out.push((
                format!("gateway/le/{}", bound_str(bound)),
                format_trace_id(id),
            ));
        }
        out
    }

    fn unsubscribe(&mut self, wid: u64) {
        self.recorder
            .record_event(kind::SUB_CANCEL, format!("wid={wid}"));
        self.with_moara(|moara, ctx| moara.unsubscribe(ctx, wid));
    }

    /// The event-loop side of the result cache: installs standing
    /// subscriptions for keys the gateway flagged hot, releases evicted
    /// entries' subscriptions, and periodically sweeps idle entries
    /// (`pump_watches` folds their SubUpdates into the entries). The
    /// shards never touch the protocol node; everything here runs on the
    /// single loop thread.
    fn pump_query_cache(&mut self) -> bool {
        let Some(cache) = self.query_cache.clone() else {
            return false;
        };
        let mut did = false;
        for (key, text) in cache.take_pending_promotions() {
            did = true;
            match parse_query(&text) {
                Ok(query) => {
                    let (policy, lease) = (DeliveryPolicy::OnChange, cache_sub_lease());
                    let wid =
                        self.with_moara(|moara, ctx| moara.subscribe(ctx, query, policy, lease));
                    if cache.promoted(&key, wid) {
                        self.recorder
                            .record_event(kind::CACHE_PROMOTE, format!("key={key} wid={wid}"));
                    } else {
                        // The entry changed state while the install was
                        // queued; release the orphan subscription.
                        self.unsubscribe(wid);
                    }
                }
                // Unparseable text can never have walked successfully
                // either, but keep the entry honest rather than wedged.
                Err(_) => cache.promotion_failed(&key),
            }
        }
        for token in cache.take_pending_demotions() {
            did = true;
            self.recorder
                .record_event(kind::CACHE_DEMOTE, format!("wid={token}"));
            self.unsubscribe(token);
        }
        if self.last_cache_sweep.elapsed() >= CACHE_SWEEP_EVERY {
            self.last_cache_sweep = Instant::now();
            for token in cache.demote_idle(Instant::now()) {
                did = true;
                self.recorder
                    .record_event(kind::CACHE_DEMOTE, format!("wid={token} idle=true"));
                self.unsubscribe(token);
            }
        }
        did
    }

    /// Graceful shutdown: stop accepting control and HTTP connections,
    /// cancel every active watch and SSE stream (so peers GC the standing
    /// state promptly instead of waiting out leases), and flush the
    /// cancel frames. The caller exits afterwards.
    pub fn shutdown(&mut self) {
        self.ctrl_stop.store(true, Ordering::SeqCst);
        // Wake the control acceptor blocked in accept().
        let _ = TcpStream::connect_timeout(&self.ctrl_addr, Duration::from_millis(50));
        if let Some(gw) = &self.gw_handle {
            gw.stop();
        }
        // Closing the loop's HTTP connections ends every SSE stream.
        self.gw_edge = None;
        let mut wids: Vec<u64> = self.watches.keys().copied().collect();
        // Cache-promoted standing subscriptions die with the daemon too:
        // they ride the same SubCancel flush, so peers GC their leases
        // and pinned covers now instead of waiting out CACHE_SUB_LEASE.
        if let Some(cache) = &self.query_cache {
            wids.extend(cache.tokens());
        }
        // Dropping the reply ends finishes the per-connection streaming
        // loops, and tells every waiter the daemon is going away.
        self.watches.clear();
        for wid in wids {
            self.unsubscribe(wid);
        }
        self.walks.clear();
        self.gathers.clear();
        self.gw_inflight.clear();
        // Give the SubCancel frames a moment to reach the trees.
        let deadline = Instant::now() + Duration::from_millis(300);
        while Instant::now() < deadline {
            self.transport.pump(Duration::from_millis(10));
        }
    }
}

pub(crate) fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| e.to_string())?
        .next()
        .ok_or_else(|| "no address".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use health::{AlertWire, HealthStatus, PeerHealthRow};
    use moara_membership::SwimMsg;
    use moara_simnet::Message;
    use moara_trace::{Phase, SpanRecord, TraceSummary};
    use moara_wire::Wire;
    use recorder::EventWire;

    #[test]
    fn attrs_parse_into_typed_values() {
        let attrs = parse_attrs("ServiceX=true,CPU-Util=42,Load=0.5,OS=Linux").unwrap();
        assert_eq!(
            attrs,
            vec![
                ("ServiceX".into(), Value::Bool(true)),
                ("CPU-Util".into(), Value::Int(42)),
                ("Load".into(), Value::Float(0.5)),
                ("OS".into(), Value::str("Linux")),
            ]
        );
        assert!(parse_attrs("nope").is_err());
        assert!(parse_attrs("=v").is_err());
        assert_eq!(parse_attrs("").unwrap(), vec![]);
    }

    fn member() -> Member {
        Member {
            node: 3,
            ring_id: 0xdead_beef,
            addr: "127.0.0.1:7777".into(),
            incarnation: 2,
            alive: false,
        }
    }

    /// One of every peer-plane frame: the engine's, membership, SWIM, and
    /// an `Ask` and a `Told` around every control sample — federation
    /// carries the control codec between peers, so its decoders read
    /// untrusted bytes too.
    fn daemon_msgs() -> Vec<DaemonMsg> {
        let mut msgs = vec![
            DaemonMsg::Membership(vec![member(), member()]),
            DaemonMsg::Moara(MoaraMsg::SizeReply {
                qid: moara_core::QueryId {
                    origin: NodeId(1),
                    n: 4,
                },
                pred_key: "A=1".into(),
                cost: 12,
                trace: None,
            }),
            DaemonMsg::Swim(SwimMsg::Ping {
                seq: 5,
                reply_to: NodeId(2),
                updates: vec![moara_membership::Update {
                    node: NodeId(1),
                    incarnation: 3,
                    state: moara_membership::PeerState::Suspect,
                }],
            }),
        ];
        let asks = ctrl_requests().into_iter().map(|r| DaemonMsg::Ask(7, r));
        msgs.extend(asks.chain(ctrl_replies().into_iter().map(|r| DaemonMsg::Told(7, r))));
        msgs
    }

    fn ctrl_requests() -> Vec<CtrlRequest> {
        vec![
            CtrlRequest::Join {
                addr: "127.0.0.1:1".into(),
                prev_node: None,
            },
            CtrlRequest::Join {
                addr: "127.0.0.1:1".into(),
                prev_node: Some(4),
            },
            CtrlRequest::Query {
                text: "SELECT count(*)".into(),
            },
            CtrlRequest::SetAttr {
                attr: "A".into(),
                value: Value::Int(1),
            },
            CtrlRequest::Status,
            CtrlRequest::Watch {
                text: "SELECT count(*) WHERE ServiceX = true".into(),
                policy: DeliveryPolicy::Threshold { value: 2.5 },
                lease_us: 30_000_000,
            },
            CtrlRequest::TraceFetch {
                trace_id: 0x8000_0000_0000_0001,
            },
            CtrlRequest::TraceGet { trace_id: 42 },
            CtrlRequest::TraceList { limit: 25 },
            CtrlRequest::ClusterHealth,
            CtrlRequest::MetricsFetch,
            CtrlRequest::HistoryFetch {
                metric: "tick_p99_us".into(),
                range_s: 120,
            },
            CtrlRequest::ClusterHistory {
                metric: "watches".into(),
                range_s: 3_600,
            },
            CtrlRequest::EventsFetch {
                kind: Some("swim_confirm".into()),
                limit: 64,
            },
            CtrlRequest::EventsFetch {
                kind: None,
                limit: 256,
            },
            CtrlRequest::HealthFetch,
        ]
    }

    fn ctrl_replies() -> Vec<CtrlReply> {
        vec![
            CtrlReply::Joined {
                node: 1,
                members: vec![member()],
            },
            CtrlReply::Answer {
                result: "4".into(),
                complete: true,
            },
            CtrlReply::Ok,
            CtrlReply::Status {
                node: 0,
                members: 3,
                alive: 2,
                dead: vec![1],
                watches: 2,
                sub_entries: 5,
                metrics: vec![("moara_up".into(), 1.0), ("watches".into(), 2.0)],
                exemplars: vec![("gateway/le/10000".into(), "0x0000000000000007".into())],
            },
            CtrlReply::Error("nope".into()),
            CtrlReply::Update {
                result: "4".into(),
                initial: true,
                complete: false,
            },
            CtrlReply::Spans(vec![SpanRecord {
                trace_id: 7,
                span_id: (4u64 + 1) << 32 | 1,
                parent_span_id: 0,
                node: 4,
                phase: Phase::FanOut,
                peer: 2,
                start_us: 10,
                queue_us: 3,
                service_us: 20,
                bytes: 128,
                detail: "A=1".into(),
            }]),
            CtrlReply::Trace {
                spans: vec![],
                missing: vec![2, 5],
            },
            CtrlReply::Traces(vec![TraceSummary {
                trace_id: 7,
                phase: Phase::Parse,
                node: 4,
                start_us: 10,
                duration_us: 33,
                spans: 9,
            }]),
            CtrlReply::ClusterHealth {
                node: 2,
                rows: vec![
                    PeerHealthRow {
                        node: 0,
                        status: HealthStatus::Ok,
                        incarnation: 1,
                        summary: Some(vec![
                            ("tick_p99_us".into(), 420.0),
                            ("alerts_firing".into(), 1.0),
                        ]),
                    },
                    PeerHealthRow {
                        node: 1,
                        status: HealthStatus::Dead,
                        incarnation: 3,
                        summary: None,
                    },
                ],
                alerts: vec![AlertWire {
                    rule: "dead_members".into(),
                    metric: "dead_members".into(),
                    value: 1.0,
                    threshold: 0.0,
                    since_s: 4,
                }],
            },
            CtrlReply::MetricsText("# HELP moara_up x\n".into()),
            CtrlReply::History {
                node: 2,
                res_s: 1,
                points: vec![(1_700_000_000_000, 42.5), (1_700_000_001_000, 43.0)],
            },
            CtrlReply::ClusterHistory {
                metric: "tick_p99_us".into(),
                res_s: 10,
                series: vec![
                    (0, vec![(1_700_000_000_000, 1.0)]),
                    (2, vec![(1_700_000_000_000, 2.0), (1_700_000_010_000, 3.0)]),
                ],
                missing: vec![1],
            },
            CtrlReply::Events(vec![EventWire {
                seq: 9,
                ts_ms: 1_700_000_000_123,
                node: 2,
                kind: "swim_confirm".into(),
                detail: "peer=1".into(),
            }]),
            CtrlReply::Health {
                sample: vec![("watches".into(), 2.0), ("rss_bytes".into(), 48e6)],
                firing: vec![AlertWire {
                    rule: "fd_ceiling".into(),
                    metric: "open_fds".into(),
                    value: 9_000.0,
                    threshold: 8_192.0,
                    since_s: 0,
                }],
            },
        ]
    }

    #[test]
    fn daemon_and_ctrl_messages_roundtrip() {
        for m in daemon_msgs() {
            assert_eq!(DaemonMsg::from_bytes(&m.to_bytes()).unwrap(), m);
            assert_eq!(
                m.size_bytes(),
                m.encoded_len() + moara_wire::FRAME_HDR + moara_wire::SENDER_HDR
            );
        }
        for r in ctrl_requests() {
            assert_eq!(CtrlRequest::from_bytes(&r.to_bytes()).unwrap(), r);
        }
        for r in ctrl_replies() {
            assert_eq!(CtrlReply::from_bytes(&r.to_bytes()).unwrap(), r);
        }
    }

    /// Peer frames come off sockets anyone can reach: every strict prefix
    /// of a sample is an error (decoding is deterministic and rejects
    /// trailing bytes), and every single-bit flip decodes to a frame that
    /// re-encodes canonically, or is an error — never a panic.
    #[test]
    fn peer_frames_survive_truncation_and_bit_flips() {
        for msg in daemon_msgs() {
            let bytes = msg.to_bytes();
            for cut in 0..bytes.len() {
                let prefix = DaemonMsg::from_bytes(&bytes[..cut]);
                assert!(prefix.is_err(), "a {cut}-byte prefix of {msg:?} decoded");
            }
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Ok(decoded) = DaemonMsg::from_bytes(&flipped) {
                    let re = decoded.to_bytes();
                    let again = DaemonMsg::from_bytes(&re).map(|m| m.to_bytes());
                    assert_eq!(again, Ok(re), "bit {bit} of {msg:?}");
                }
            }
        }
    }

    /// Nothing in a daemon reads per-query message counts, so its
    /// transport keeps none: ten thousand sends, each tagged with its own
    /// query, leave no per-query entry behind.
    #[test]
    fn a_daemons_transport_keeps_no_per_query_table() {
        let any = "127.0.0.1:0".parse().unwrap();
        let mut d = Daemon::start(DaemonOpts::new(any)).expect("daemon boots");
        let sent = d.transport.stats().total_messages();
        for n in 0..10_000 {
            let qid = moara_core::QueryId {
                origin: NodeId(1),
                n,
            };
            let msg = DaemonMsg::Moara(MoaraMsg::SizeReply {
                qid,
                pred_key: "A=1".into(),
                cost: 1,
                trace: None,
            });
            assert_eq!(msg.query_tag(), Some(qid.tag()));
            d.transport
                .with_node(d.me, |_, ctx| ctx.send(NodeId(9), msg));
        }
        let stats = d.transport.stats();
        assert_eq!(stats.total_messages() - sent, 10_000);
        assert_eq!(stats.query_tags_held(), 0);
    }

    /// A full 3-daemon cluster in one test process (each daemon on its own
    /// thread, like three `moarad` processes on one host) answering the
    /// quickstart query through the control plane.
    #[test]
    fn three_daemons_answer_the_quickstart_query() {
        let free_port = || {
            TcpListener::bind("127.0.0.1:0")
                .unwrap()
                .local_addr()
                .unwrap()
        };
        let seed_ctrl = free_port();

        let spawn_daemon = |listen: SocketAddr, join: Option<String>, attrs: &str| {
            let attrs = parse_attrs(attrs).unwrap();
            std::thread::spawn(move || {
                let mut d = Daemon::start(DaemonOpts {
                    join,
                    attrs,
                    ..DaemonOpts::new(listen)
                })
                .expect("daemon boots");
                loop {
                    d.step(Duration::from_millis(2));
                }
            })
        };

        let _a = spawn_daemon(seed_ctrl, None, "ServiceX=true");
        let b_ctrl = free_port();
        let c_ctrl = free_port();
        let seed_str = seed_ctrl.to_string();
        let _b = spawn_daemon(b_ctrl, Some(seed_str.clone()), "ServiceX=false");
        let _c = spawn_daemon(c_ctrl, Some(seed_str), "ServiceX=true");

        // Wait until every daemon sees all three members.
        let deadline = Instant::now() + Duration::from_secs(20);
        for ctrl in [seed_ctrl, b_ctrl, c_ctrl] {
            loop {
                assert!(Instant::now() < deadline, "cluster never converged");
                match ctrl_roundtrip(
                    &ctrl.to_string(),
                    &CtrlRequest::Status,
                    Duration::from_secs(5),
                ) {
                    Ok(CtrlReply::Status { members: 3, .. }) => break,
                    _ => std::thread::sleep(Duration::from_millis(30)),
                }
            }
        }

        // The acceptance query, fronted by the non-member daemon B.
        let reply = ctrl_roundtrip(
            &b_ctrl.to_string(),
            &CtrlRequest::Query {
                text: "SELECT count(*) WHERE ServiceX = true".into(),
            },
            Duration::from_secs(30),
        )
        .unwrap();
        match reply {
            CtrlReply::Answer { result, complete } => {
                assert!(complete, "query must complete");
                assert_eq!(result, "2");
            }
            other => panic!("unexpected reply {other:?}"),
        }

        // Group churn through the control plane: B joins the group.
        let reply = ctrl_roundtrip(
            &b_ctrl.to_string(),
            &CtrlRequest::SetAttr {
                attr: "ServiceX".into(),
                value: Value::Bool(true),
            },
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(reply, CtrlReply::Ok);
        let reply = ctrl_roundtrip(
            &c_ctrl.to_string(),
            &CtrlRequest::Query {
                text: "SELECT count(*) WHERE ServiceX = true".into(),
            },
            Duration::from_secs(30),
        )
        .unwrap();
        match reply {
            CtrlReply::Answer { result, .. } => assert_eq!(result, "3"),
            other => panic!("unexpected reply {other:?}"),
        }
    }
}
