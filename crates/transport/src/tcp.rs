//! The TCP backend: hosts [`NetProtocol`] nodes over real sockets.
//!
//! Wire format: every message travels as one `moara-wire` frame whose
//! payload is `sender NodeId (u32 LE)` followed by the message encoding.
//! Each hosted node binds its own listener on `127.0.0.1` (port 0 by
//! default); outbound connections are pooled per destination and
//! re-established with jittered backoff when a write fails.
//!
//! Threading model: one acceptor thread per hosted node and one reader
//! thread per inbound connection push raw frames into an MPSC inbox; *all*
//! protocol work — decoding, dispatch, timer firing, sending — happens on
//! the single thread driving [`TcpTransport::pump`] (usually via the
//! [`Transport`] trait's `run_*` methods). Protocol state therefore needs
//! no locks and no `Send` bound, exactly like the simulator.
//!
//! The inbox is also the host's one wake source: `pump` blocks on it and
//! nowhere else, so a host that feeds its loop from other threads (the
//! daemon's control and HTTP planes) has them call a [`WakeHandle`] after
//! enqueueing their work, and `pump` returns as if a frame had arrived.
//!
//! Time: [`NetCtx::now`] reports real elapsed microseconds since the
//! transport was created, so `SimTime`/`SimDuration` bookkeeping in
//! protocol code (timeouts, latencies) carries over unchanged.
//!
//! Trust model: the peer plane carries **no authentication** — the
//! sender id in each frame is self-declared, and anything that can reach
//! a listener can speak the protocol. Codec-level hardening (frame and
//! nesting caps) stops crashes, not spoofing; deploy listeners on
//! loopback or a trusted network until an authenticated transport lands.
//!
//! Loopback mode: [`TcpConfig::loopback`] skips sockets entirely and
//! delivers through an in-process FIFO — single-threaded, deterministic
//! delivery order, seedable — for tests that want TCP-path code without
//! socket nondeterminism. The seed also drives reconnect jitter in socket
//! mode.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{BufReader, Write};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use moara_simnet::{Message, NodeId, SimDuration, SimTime, Stats, TimerId, TimerTag};
use moara_wire::{encode_frame, read_frame, Wire, FRAME_HDR, SENDER_HDR};

use crate::{NetCtx, NetProtocol, Transport};

/// Tuning knobs for [`TcpTransport`].
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Seed for reconnect jitter (and any future randomized choices);
    /// fixes the transport's random stream for reproducible tests.
    pub seed: u64,
    /// Deliver through an in-process deterministic FIFO instead of
    /// sockets (see module docs).
    pub loopback_only: bool,
    /// Interface the per-node listeners bind on.
    pub bind_ip: std::net::IpAddr,
    /// Connection attempts per message before counting it dropped.
    pub connect_retries: u32,
    /// Base backoff between reconnect attempts (jittered up to 2×).
    pub retry_backoff: Duration,
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// After every reconnect attempt to a peer fails, further sends to it
    /// are dropped immediately for this long instead of re-blocking the
    /// event loop (a crashed peer would otherwise stall every message).
    pub suspect_cooldown: Duration,
    /// How long the system must stay idle before
    /// `run_to_quiescence` declares it quiescent.
    pub idle_grace: Duration,
    /// Hard wall-clock cap on one `run_to_quiescence` call (a safety net
    /// against lost frames; generous because protocol timeouts are real
    /// seconds here).
    pub quiesce_cap: Duration,
}

impl Default for TcpConfig {
    fn default() -> TcpConfig {
        TcpConfig {
            seed: 0,
            loopback_only: false,
            bind_ip: std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            connect_retries: 5,
            retry_backoff: Duration::from_millis(20),
            connect_timeout: Duration::from_millis(500),
            suspect_cooldown: Duration::from_secs(1),
            idle_grace: Duration::from_millis(40),
            quiesce_cap: Duration::from_secs(60),
        }
    }
}

impl TcpConfig {
    /// Socket-backed config with a fixed seed.
    pub fn seeded(seed: u64) -> TcpConfig {
        TcpConfig {
            seed,
            ..TcpConfig::default()
        }
    }

    /// Deterministic in-process loopback config (no sockets).
    pub fn loopback(seed: u64) -> TcpConfig {
        TcpConfig {
            seed,
            loopback_only: true,
            ..TcpConfig::default()
        }
    }
}

/// A raw frame handed from reader threads to the event loop.
struct Inbound {
    to: u32,
    from: u32,
    /// The frame's payload as it crossed the wire: the sender id
    /// ([`SENDER_HDR`] bytes), then the message encoding.
    payload: Vec<u8>,
}

/// What the event loop's inbox carries.
enum Inbox {
    Frame(Inbound),
    /// Payload-free sentinel from a [`WakeHandle`]: it only ends the
    /// blocking receive. Not a message — never decoded, never counted.
    Wake,
}

/// Makes a blocked [`TcpTransport::pump`] return at once, from any
/// thread. A wake sent while the loop is busy is not lost: the next
/// `pump` sees it and returns without blocking.
#[derive(Clone)]
pub struct WakeHandle {
    inbox: Sender<Inbox>,
}

impl WakeHandle {
    /// Wakes the event loop. Call it *after* making the work visible
    /// (enqueueing the job), or the loop may look before it is there.
    pub fn wake(&self) {
        // The transport is gone: nobody left to wake.
        let _ = self.inbox.send(Inbox::Wake);
    }
}

/// One pending timer (the value side of [`TcpCore::timers`]).
struct TimerEntry {
    node: u32,
    tag: TimerTag,
    /// Does not gate quiescence (lease clocks, renewal ticks): fires at
    /// its deadline like any other, but `run_to_quiescence` does not
    /// wait it out.
    maintenance: bool,
}

/// Everything the event loop owns besides the nodes themselves, so a node
/// and its [`NetCtx`] can be borrowed simultaneously.
struct TcpCore<M> {
    cfg: TcpConfig,
    epoch: Instant,
    /// Where every known node (local or remote) listens.
    peers: HashMap<u32, SocketAddr>,
    /// Locally hosted node ids (the ones whose frames count as in-flight).
    locals: HashSet<u32>,
    /// Pooled outbound connections, by destination.
    pool: HashMap<u32, TcpStream>,
    alive: HashMap<u32, bool>,
    stats: Stats,
    undeliverable: Vec<(NodeId, NodeId)>,
    rng: StdRng,
    /// Pending timers keyed by (due micros, timer seq), which is the
    /// fire order. A cancel removes the entry then and there, so what is
    /// resident is what is still going to fire: a finished query's 60 s
    /// front timeout does not outlive the query.
    timers: BTreeMap<(u64, u64), TimerEntry>,
    /// Timer seq → due micros, for finding an entry by its [`TimerId`].
    timer_due: HashMap<u64, u64>,
    next_timer: u64,
    /// Peers whose last reconnect cycle failed entirely: drop sends to
    /// them until the deadline instead of blocking the event loop again.
    /// The counter is the consecutive-failure streak; the cooldown doubles
    /// with it (capped), so a long-dead peer costs one *single-attempt*
    /// probe per backed-off interval instead of a full retry cycle per
    /// second.
    suspect_until: HashMap<u32, (Instant, u32)>,
    /// Loopback-mode delivery queue (strict FIFO).
    local_queue: VecDeque<Inbound>,
    /// Frames sent to local nodes but not yet dispatched (socket mode).
    /// Only the event-loop thread touches it; reader threads never do.
    inflight: i64,
    _msg: PhantomData<fn() -> M>,
}

impl<M: Message + Wire> TcpCore<M> {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn now(&self) -> SimTime {
        SimTime(self.now_us())
    }

    fn is_alive(&self, id: u32) -> bool {
        self.alive.get(&id).copied().unwrap_or(false)
    }

    /// Sends one message, pooling and reconnecting as needed.
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        // Prefix, sender id and message in one buffer: one write per frame.
        let mut frame = encode_frame(SENDER_HDR + msg.encoded_len(), |out| {
            Wire::encode(&from.0, out);
            msg.encode(out);
        })
        .expect("a message over 4 GiB was never built");
        self.stats.record_send(from, frame.len());
        if let Some(tag) = msg.query_tag() {
            self.stats.record_query_msg(tag);
        }
        if !self.is_alive(to.0) {
            self.stats.record_drop();
            self.undeliverable.push((from, to));
            return;
        }
        if self.cfg.loopback_only {
            // Keep the encoded bytes so the loopback path exercises the
            // same codec as sockets.
            self.local_queue.push_back(Inbound {
                to: to.0,
                from: from.0,
                payload: frame.split_off(FRAME_HDR),
            });
            return;
        }
        let local_dest = self.locals.contains(&to.0);
        if local_dest {
            self.inflight += 1;
        }
        if !self.write_with_retry(to.0, &frame) {
            if local_dest {
                self.inflight -= 1;
            }
            self.stats.record_drop();
            self.undeliverable.push((from, to));
        }
    }

    /// Writes one whole frame (prefix included) to `to`, reconnecting with
    /// jittered backoff on failure. Returns false when every attempt
    /// failed.
    fn write_with_retry(&mut self, to: u32, frame: &[u8]) -> bool {
        let Some(addr) = self.peers.get(&to).copied() else {
            return false;
        };
        let streak = match self.suspect_until.get(&to) {
            Some((until, _)) if Instant::now() < *until => {
                return false; // still in the post-failure cooldown
            }
            Some((_, streak)) => *streak,
            None => 0,
        };
        // A fresh peer gets the full retry cycle; a peer that just came
        // off cooldown gets one quick probe so the event loop never
        // re-pays the whole backoff ladder for a long-dead member.
        let retries = if streak == 0 {
            self.cfg.connect_retries
        } else {
            0
        };
        for attempt in 0..=retries {
            if attempt > 0 {
                let base = self.cfg.retry_backoff.as_micros() as u64 * attempt as u64;
                let jitter = self.rng.gen_range(0..=base.max(1));
                std::thread::sleep(Duration::from_micros(base + jitter));
            }
            let mut conn = match self.pool.remove(&to) {
                Some(c) => c,
                None => match TcpStream::connect_timeout(&addr, self.cfg.connect_timeout) {
                    Ok(c) => {
                        let _ = c.set_nodelay(true);
                        // Fresh outbound connections are worth counting:
                        // steady state reuses the pool, so `tcp_connects`
                        // growth means peers restarting or sockets dying.
                        // Re-establishment after a failed write/attempt is
                        // the sharper signal (`tcp_reconnects`).
                        self.stats.bump("tcp_connects", 1);
                        if attempt > 0 || streak > 0 {
                            self.stats.bump("tcp_reconnects", 1);
                        }
                        c
                    }
                    Err(_) => continue,
                },
            };
            if conn.write_all(frame).and_then(|()| conn.flush()).is_ok() {
                self.pool.insert(to, conn);
                self.suspect_until.remove(&to);
                return true;
            }
            // Connection went stale (peer restarted, socket torn down):
            // drop it and retry with a fresh one.
        }
        // Every attempt failed: stop blocking the event loop on this peer
        // until the cooldown passes (sends meanwhile drop immediately).
        // Exponential backoff, capped at 32× the base cooldown.
        let cooldown = self.cfg.suspect_cooldown * 2u32.saturating_pow(streak.min(5));
        self.suspect_until
            .insert(to, (Instant::now() + cooldown, streak.saturating_add(1)));
        false
    }

    fn set_timer(&mut self, me: NodeId, delay: SimDuration, tag: TimerTag) -> TimerId {
        self.arm_timer(me, delay, tag, false)
    }

    fn arm_timer(
        &mut self,
        me: NodeId,
        delay: SimDuration,
        tag: TimerTag,
        maintenance: bool,
    ) -> TimerId {
        let seq = self.next_timer;
        self.next_timer += 1;
        let due = self.now_us().saturating_add(delay.as_micros());
        let entry = TimerEntry {
            node: me.0,
            tag,
            maintenance,
        };
        self.timers.insert((due, seq), entry);
        self.timer_due.insert(seq, due);
        TimerId::from_raw(seq)
    }

    /// Forgets a pending timer; a no-op for one that already fired.
    fn cancel_timer(&mut self, id: TimerId) {
        if let Some(due) = self.timer_due.remove(&id.raw()) {
            self.timers.remove(&(due, id.raw()));
        }
    }

    /// Takes the earliest timer out if it is due.
    fn pop_due_timer(&mut self) -> Option<TimerEntry> {
        let now = self.now_us();
        let first = self.timers.first_entry()?;
        let (due, seq) = *first.key();
        if due > now {
            return None;
        }
        self.timer_due.remove(&seq);
        Some(first.remove())
    }

    /// Micros until the next timer, if any.
    fn next_timer_in(&self) -> Option<u64> {
        let (&(due, _), _) = self.timers.first_key_value()?;
        Some(due.saturating_sub(self.now_us()))
    }

    /// Micros until the next *foreground* (non-maintenance) timer — the
    /// quiescence condition. Walks past the maintenance timers in front
    /// of it; those are a handful per node.
    fn next_fg_timer_in(&self) -> Option<u64> {
        let (&(due, _), _) = self.timers.iter().find(|(_, t)| !t.maintenance)?;
        Some(due.saturating_sub(self.now_us()))
    }
}

/// The node-facing capability handle for the TCP backend.
struct TcpCtx<'a, M> {
    core: &'a mut TcpCore<M>,
    me: NodeId,
}

impl<M: Message + Wire> NetCtx<M> for TcpCtx<'_, M> {
    fn now(&self) -> SimTime {
        self.core.now()
    }
    fn me(&self) -> NodeId {
        self.me
    }
    fn send(&mut self, to: NodeId, msg: M) {
        self.core.send(self.me, to, msg);
    }
    fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId {
        self.core.set_timer(self.me, delay, tag)
    }
    fn set_maintenance_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId {
        self.core.arm_timer(self.me, delay, tag, true)
    }
    fn cancel_timer(&mut self, id: TimerId) {
        self.core.cancel_timer(id);
    }
    fn count(&mut self, name: &'static str) {
        self.core.stats.bump(name, 1);
    }
}

/// A bound-but-unattached listener (see `TcpTransport::reserve_listener`).
pub struct ReservedListener {
    listener: TcpListener,
    addr: SocketAddr,
}

impl ReservedListener {
    /// The address the listener is bound on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Hosts [`NetProtocol`] nodes over TCP (or deterministic loopback).
///
/// Supports two deployment shapes:
///
/// * **in-process cluster** — [`Transport::add_node`] assigns sequential
///   ids and binds one listener per node; messages between nodes cross
///   real loopback sockets. `Cluster::builder().build_tcp()` in
///   `moara-core` uses this.
/// * **one node per process** — the `moarad` daemon adds its single node
///   with [`TcpTransport::add_node_with_id`] and points at the rest of the
///   cluster with [`TcpTransport::register_peer`].
pub struct TcpTransport<P: NetProtocol> {
    nodes: HashMap<u32, Option<P>>,
    core: TcpCore<P::Msg>,
    inbox_rx: Receiver<Inbox>,
    inbox_tx: Sender<Inbox>,
    stop: Arc<AtomicBool>,
    next_id: u32,
}

impl<P: NetProtocol> TcpTransport<P>
where
    P::Msg: Wire,
{
    /// Creates an empty transport.
    pub fn new(cfg: TcpConfig) -> TcpTransport<P> {
        let (inbox_tx, inbox_rx) = std::sync::mpsc::channel();
        TcpTransport {
            nodes: HashMap::new(),
            core: TcpCore {
                rng: StdRng::seed_from_u64(cfg.seed),
                cfg,
                epoch: Instant::now(),
                peers: HashMap::new(),
                locals: HashSet::new(),
                pool: HashMap::new(),
                alive: HashMap::new(),
                stats: Stats::default(),
                undeliverable: Vec::new(),
                timers: BTreeMap::new(),
                timer_due: HashMap::new(),
                next_timer: 0,
                suspect_until: HashMap::new(),
                local_queue: VecDeque::new(),
                inflight: 0,
                _msg: PhantomData,
            },
            inbox_rx,
            inbox_tx,
            stop: Arc::new(AtomicBool::new(false)),
            next_id: 0,
        }
    }

    /// Shorthand for a socket-backed transport with a fixed seed.
    pub fn seeded(seed: u64) -> TcpTransport<P> {
        TcpTransport::new(TcpConfig::seeded(seed))
    }

    /// Binds a listener *before* the node's id is known — a joining
    /// daemon must advertise its transport address in its join request,
    /// and only learns its id from the seed's answer. Connections queue in
    /// the kernel until [`TcpTransport::add_node_with_listener`] attaches
    /// the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn reserve_listener(&self) -> std::io::Result<ReservedListener> {
        let listener = TcpListener::bind((self.core.cfg.bind_ip, 0))?;
        let addr = listener.local_addr()?;
        Ok(ReservedListener { listener, addr })
    }

    /// Hosts `node` under an explicit id on a pre-bound listener (see
    /// [`TcpTransport::reserve_listener`]).
    ///
    /// # Panics
    ///
    /// Panics if the id is already hosted here.
    pub fn add_node_with_listener(
        &mut self,
        id: NodeId,
        node: P,
        reserved: ReservedListener,
    ) -> SocketAddr {
        assert!(
            !self.nodes.contains_key(&id.0),
            "node {id} already hosted on this transport"
        );
        let addr = reserved.addr;
        self.spawn_acceptor(id.0, reserved.listener);
        self.core.peers.insert(id.0, addr);
        self.core.locals.insert(id.0);
        self.core.alive.insert(id.0, true);
        self.core.stats.ensure_node(id);
        self.nodes.insert(id.0, Some(node));
        self.next_id = self.next_id.max(id.0 + 1);
        self.with_node_inner(id, |n, ctx| n.on_start(ctx));
        addr
    }

    /// Hosts `node` under an explicit id (daemon deployments, where the
    /// cluster — not this process — assigns ids). Binds a listener unless
    /// in loopback mode. Returns the listen address, if any.
    ///
    /// # Panics
    ///
    /// Panics if the id is already hosted here or the listener cannot
    /// bind.
    pub fn add_node_with_id(&mut self, id: NodeId, node: P) -> Option<SocketAddr> {
        assert!(
            !self.nodes.contains_key(&id.0),
            "node {id} already hosted on this transport"
        );
        if self.core.cfg.loopback_only {
            self.core.locals.insert(id.0);
            self.core.alive.insert(id.0, true);
            self.core.stats.ensure_node(id);
            self.nodes.insert(id.0, Some(node));
            self.next_id = self.next_id.max(id.0 + 1);
            self.with_node_inner(id, |n, ctx| n.on_start(ctx));
            None
        } else {
            let reserved = self.reserve_listener().expect("bind listener on loopback");
            Some(self.add_node_with_listener(id, node, reserved))
        }
    }

    /// Registers where a *remote* node (hosted by another process)
    /// listens, so local sends can reach it.
    pub fn register_peer(&mut self, id: NodeId, addr: SocketAddr) {
        let prev = self.core.peers.insert(id.0, addr);
        self.core.alive.entry(id.0).or_insert(true);
        // A stale pooled connection may point at a dead predecessor.
        self.core.pool.remove(&id.0);
        if prev != Some(addr) {
            // A *new* address is a fresh start: drop any send-failure
            // cooldown accrued against the old one, or a rejoined peer
            // (same id, new port) would stay unreachable for up to the
            // full exponential backoff.
            self.core.suspect_until.remove(&id.0);
        }
    }

    /// Forgets a peer (it left the cluster).
    pub fn unregister_peer(&mut self, id: NodeId) {
        self.core.peers.remove(&id.0);
        self.core.pool.remove(&id.0);
        self.core.alive.remove(&id.0);
    }

    /// The listen address of a locally hosted node (None in loopback
    /// mode or for unknown ids).
    pub fn local_addr(&self, id: NodeId) -> Option<SocketAddr> {
        if self.core.locals.contains(&id.0) {
            self.core.peers.get(&id.0).copied()
        } else {
            None
        }
    }

    /// All known peers and their addresses.
    pub fn peers(&self) -> impl Iterator<Item = (NodeId, SocketAddr)> + '_ {
        self.core.peers.iter().map(|(&id, &a)| (NodeId(id), a))
    }

    fn spawn_acceptor(&mut self, my_id: u32, listener: TcpListener) {
        let tx = self.inbox_tx.clone();
        let stop = Arc::clone(&self.stop);
        std::thread::Builder::new()
            .name(format!("moara-accept-{my_id}"))
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let _ = stream.set_nodelay(true);
                    let tx = tx.clone();
                    let stop = Arc::clone(&stop);
                    std::thread::Builder::new()
                        .name(format!("moara-read-{my_id}"))
                        .spawn(move || reader_loop(stream, my_id, tx, stop))
                        .expect("spawn reader thread");
                }
            })
            .expect("spawn acceptor thread");
    }

    /// A handle other threads use to cut a blocked [`TcpTransport::pump`]
    /// short (see [`WakeHandle`]).
    pub fn wake_handle(&self) -> WakeHandle {
        WakeHandle {
            inbox: self.inbox_tx.clone(),
        }
    }

    /// Fires due timers and delivers queued/incoming frames. Blocks up to
    /// `max_wait` when nothing is immediately ready (bounded by the next
    /// timer deadline) and no wake is pending; a [`WakeHandle::wake`]
    /// ends the block early. Returns true if any event was processed —
    /// a wake is not one.
    pub fn pump(&mut self, max_wait: Duration) -> bool {
        let mut did = false;
        did |= self.fire_due_timers();
        while let Some(ib) = self.core.local_queue.pop_front() {
            self.deliver(ib);
            did = true;
        }
        let mut woken = false;
        while let Ok(item) = self.inbox_rx.try_recv() {
            match item {
                Inbox::Frame(ib) => {
                    self.deliver(ib);
                    did = true;
                }
                Inbox::Wake => woken = true,
            }
        }
        if !did && !woken && !max_wait.is_zero() {
            let wait = match self.core.next_timer_in() {
                Some(us) => max_wait.min(Duration::from_micros(us)),
                None => max_wait,
            };
            match self.inbox_rx.recv_timeout(wait) {
                Ok(Inbox::Frame(ib)) => {
                    self.deliver(ib);
                    did = true;
                }
                Ok(Inbox::Wake)
                | Err(RecvTimeoutError::Timeout)
                | Err(RecvTimeoutError::Disconnected) => {}
            }
            did |= self.fire_due_timers();
        }
        did
    }

    fn fire_due_timers(&mut self) -> bool {
        let mut did = false;
        while let Some(TimerEntry { node, tag, .. }) = self.core.pop_due_timer() {
            if self.core.is_alive(node) && self.nodes.contains_key(&node) {
                self.with_node_inner(NodeId(node), |n, ctx| n.on_timer(ctx, tag));
            }
            did = true;
        }
        did
    }

    fn deliver(&mut self, ib: Inbound) {
        // Frames from our own nodes stop being "in flight" the moment the
        // event loop takes them, whatever happens next.
        if self.core.locals.contains(&ib.from) && !self.core.cfg.loopback_only {
            self.core.inflight -= 1;
        }
        if !self.core.is_alive(ib.to) || !self.nodes.contains_key(&ib.to) {
            self.core.stats.record_drop();
            return;
        }
        let msg = match <P::Msg as Wire>::from_bytes(&ib.payload[SENDER_HDR..]) {
            Ok(m) => m,
            Err(_) => {
                self.core.stats.bump("wire_decode_errors", 1);
                return;
            }
        };
        self.core
            .stats
            .record_recv(NodeId(ib.to), ib.payload.len() + FRAME_HDR);
        let from = NodeId(ib.from);
        self.with_node_inner(NodeId(ib.to), |n, ctx| n.on_message(ctx, from, msg));
    }

    fn with_node_inner<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut dyn NetCtx<P::Msg>) -> R,
    ) -> R {
        let slot = self
            .nodes
            .get_mut(&id.0)
            .unwrap_or_else(|| panic!("node {id} is not hosted on this transport"));
        let mut node = slot.take().expect("re-entrant with_node");
        let mut ctx = TcpCtx {
            core: &mut self.core,
            me: id,
        };
        let r = f(&mut node, &mut ctx);
        self.nodes.insert(id.0, Some(node));
        r
    }

    /// Frames sent to local nodes that the event loop has not yet
    /// dispatched (socket mode; loopback mode uses its queue length).
    pub fn in_flight(&self) -> i64 {
        if self.core.cfg.loopback_only {
            self.core.local_queue.len() as i64
        } else {
            self.core.inflight
        }
    }

    /// Whether any timers are pending.
    pub fn timers_pending(&self) -> bool {
        self.core.next_timer_in().is_some()
    }
}

fn reader_loop(stream: TcpStream, my_id: u32, tx: Sender<Inbox>, stop: Arc<AtomicBool>) {
    // Buffered, so a frame's prefix and payload (and any frames queued
    // behind it) come out of one `read`.
    let mut stream = BufReader::new(stream);
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match read_frame(&mut stream) {
            Ok(Some(payload)) => {
                if payload.len() < SENDER_HDR {
                    continue; // runt frame: no sender id
                }
                let from =
                    u32::from_le_bytes(payload[..SENDER_HDR].try_into().expect("sized header"));
                let frame = Inbox::Frame(Inbound {
                    to: my_id,
                    from,
                    payload,
                });
                if tx.send(frame).is_err() {
                    break; // transport dropped
                }
            }
            Ok(None) | Err(_) => break, // peer closed or stream corrupt
        }
    }
}

impl<P: NetProtocol> Drop for TcpTransport<P> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake each acceptor blocked in accept() so it observes the flag.
        for (&id, &addr) in &self.core.peers {
            if self.core.locals.contains(&id) {
                let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(50));
            }
        }
        self.core.pool.clear(); // closes outbound sockets; readers unwind
    }
}

impl<P: NetProtocol> Transport<P> for TcpTransport<P>
where
    P::Msg: Wire,
{
    fn add_node(&mut self, node: P) -> NodeId {
        let id = NodeId(self.next_id);
        self.add_node_with_id(id, node);
        id
    }

    fn len(&self) -> usize {
        // Hosted-node count, not the id watermark: with explicit sparse
        // ids (daemon deployments) the two differ.
        self.nodes.len()
    }

    fn node(&self, id: NodeId) -> &P {
        self.nodes[&id.0].as_ref().expect("node is mid-dispatch")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut P {
        self.nodes
            .get_mut(&id.0)
            .expect("node hosted here")
            .as_mut()
            .expect("node is mid-dispatch")
    }

    fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut dyn NetCtx<P::Msg>) -> R,
    ) -> R {
        self.with_node_inner(id, f)
    }

    fn now(&self) -> SimTime {
        self.core.now()
    }

    fn run_for(&mut self, d: SimDuration) {
        let deadline = Instant::now() + Duration::from_micros(d.as_micros());
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            self.pump(left.min(Duration::from_millis(10)));
        }
    }

    /// Real-time quiescence: drains events until nothing is in flight, no
    /// timers are pending, and the system has been idle for
    /// [`TcpConfig::idle_grace`]. Pending timers are *waited out* (they
    /// fire at their real deadline), matching the simulator's semantics at
    /// wall-clock speed — so configure short protocol timeouts in tests
    /// that exercise failures.
    fn run_to_quiescence(&mut self) -> SimTime {
        let cap = Instant::now() + self.core.cfg.quiesce_cap;
        let mut idle_since: Option<Instant> = None;
        while Instant::now() < cap {
            let did = self.pump(Duration::from_millis(5));
            if did {
                idle_since = None;
                continue;
            }
            if self.in_flight() > 0 {
                idle_since = None;
                continue;
            }
            if let Some(us) = self.core.next_fg_timer_in() {
                // Idle but a foreground timer is due later: wait for it
                // (pump blocks until then, bounded to keep checking the
                // cap). Maintenance timers — standing lease/renewal
                // clocks that re-arm forever — are not waited out.
                self.pump(Duration::from_micros(us).min(Duration::from_millis(50)));
                continue;
            }
            let now = Instant::now();
            let since = *idle_since.get_or_insert(now);
            if now.duration_since(since) >= self.core.cfg.idle_grace {
                break;
            }
        }
        self.core.now()
    }

    fn stats(&self) -> &Stats {
        &self.core.stats
    }

    fn stats_mut(&mut self) -> &mut Stats {
        &mut self.core.stats
    }

    fn fail_node(&mut self, id: NodeId) {
        self.core.alive.insert(id.0, false);
        self.core.pool.remove(&id.0);
    }

    fn recover_node(&mut self, id: NodeId) {
        self.core.alive.insert(id.0, true);
        self.core.suspect_until.remove(&id.0);
    }

    fn is_alive(&self, id: NodeId) -> bool {
        self.core.is_alive(id.0)
    }

    fn take_undeliverable(&mut self) -> Vec<(NodeId, NodeId)> {
        std::mem::take(&mut self.core.undeliverable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo protocol over the seam (same as the sim adapter's tests, so
    /// both backends are exercised by one protocol definition).
    #[derive(Debug, Default)]
    struct Echo {
        got: Vec<(NodeId, u32)>,
        timer_fired: u32,
    }

    impl NetProtocol for Echo {
        type Msg = u32;
        fn on_message(&mut self, ctx: &mut dyn NetCtx<u32>, from: NodeId, msg: u32) {
            self.got.push((from, msg));
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
        fn on_timer(&mut self, _ctx: &mut dyn NetCtx<u32>, _tag: TimerTag) {
            self.timer_fired += 1;
        }
    }

    #[test]
    fn ping_pong_over_real_sockets() {
        let mut t: TcpTransport<Echo> = TcpTransport::seeded(1);
        let a = t.add_node(Echo::default());
        let b = t.add_node(Echo::default());
        assert!(t.local_addr(a).is_some());
        assert_ne!(t.local_addr(a), t.local_addr(b));
        t.with_node(a, |_n, ctx| ctx.send(b, 3));
        t.run_to_quiescence();
        assert_eq!(t.node(b).got, vec![(a, 3), (a, 1)]);
        assert_eq!(t.node(a).got, vec![(b, 2), (b, 0)]);
        assert_eq!(t.stats().total_messages(), 4);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn loopback_mode_is_deterministic_and_socket_free() {
        let run = || {
            let mut t: TcpTransport<Echo> = TcpTransport::new(TcpConfig::loopback(7));
            let a = t.add_node(Echo::default());
            let b = t.add_node(Echo::default());
            assert!(t.local_addr(a).is_none(), "loopback binds no sockets");
            t.with_node(a, |_n, ctx| ctx.send(b, 5));
            t.run_to_quiescence();
            (t.node(a).got.clone(), t.node(b).got.clone())
        };
        assert_eq!(run(), run());
        let (a_got, b_got) = run();
        assert_eq!(b_got.len(), 3);
        assert_eq!(a_got.len(), 3);
    }

    #[test]
    fn timers_fire_and_cancel_on_real_clock() {
        let mut t: TcpTransport<Echo> = TcpTransport::new(TcpConfig::loopback(3));
        let a = t.add_node(Echo::default());
        let cancelled = t.with_node(a, |_n, ctx| {
            ctx.set_timer(SimDuration::from_millis(5), 1);
            let c = ctx.set_timer(SimDuration::from_millis(6), 2);
            ctx.set_timer(SimDuration::from_millis(7), 3);
            c
        });
        t.with_node(a, |_n, ctx| ctx.cancel_timer(cancelled));
        t.run_to_quiescence();
        assert_eq!(t.node(a).timer_fired, 2);
        assert!(!t.timers_pending());
    }

    #[test]
    fn cancelled_timers_are_freed_at_cancel_time() {
        // A finished query cancels its 60 s front timeout, but a short
        // re-arming timer (SWIM's period) is always due first, so nothing
        // that only cleans up from the front ever reaches it.
        let mut t: TcpTransport<Echo> = TcpTransport::new(TcpConfig::loopback(9));
        let a = t.add_node(Echo::default());
        let mut tick = t.with_node(a, |_n, ctx| ctx.set_timer(SimDuration::from_millis(10), 1));
        for i in 0..100_000u32 {
            let front = t.with_node(a, |_n, ctx| ctx.set_timer(SimDuration::from_secs(60), 2));
            t.with_node(a, |_n, ctx| ctx.cancel_timer(front));
            if i % 1_000 == 0 {
                // Re-armed before the old one goes, as a periodic timer
                // re-arms from its own handler: the front stays live.
                let next = t.with_node(a, |_n, ctx| ctx.set_timer(SimDuration::from_millis(10), 1));
                t.with_node(a, |_n, ctx| ctx.cancel_timer(tick));
                tick = next;
                t.pump(Duration::ZERO);
            }
        }
        // At most the live tick is resident (none if it has just fired).
        assert!(t.core.timers.len() <= 1, "{} resident", t.core.timers.len());
        assert_eq!(t.core.timer_due.len(), t.core.timers.len());
        // Cancelling a timer that already fired leaves no residue either.
        let fired = t.with_node(a, |_n, ctx| ctx.set_timer(SimDuration::ZERO, 3));
        t.pump(Duration::ZERO);
        t.with_node(a, |_n, ctx| ctx.cancel_timer(fired));
        assert!(t.core.timers.len() <= 1);
        assert_eq!(t.core.timer_due.len(), t.core.timers.len());
    }

    #[test]
    fn timers_fire_in_due_then_arming_order() {
        #[derive(Default)]
        struct Tags(Vec<TimerTag>);
        impl NetProtocol for Tags {
            type Msg = u32;
            fn on_message(&mut self, _ctx: &mut dyn NetCtx<u32>, _from: NodeId, _msg: u32) {}
            fn on_timer(&mut self, _ctx: &mut dyn NetCtx<u32>, tag: TimerTag) {
                self.0.push(tag);
            }
        }
        let mut t: TcpTransport<Tags> = TcpTransport::new(TcpConfig::loopback(10));
        let a = t.add_node(Tags::default());
        t.with_node(a, |_n, ctx| {
            ctx.set_timer(SimDuration::from_millis(2), 1);
            ctx.set_maintenance_timer(SimDuration::ZERO, 2);
            ctx.set_timer(SimDuration::ZERO, 3);
        });
        // The maintenance timer does not gate quiescence but fires in
        // its place; equal deadlines fire in arming order.
        t.run_to_quiescence();
        assert_eq!(t.node(a).0, vec![2, 3, 1]);
    }

    #[test]
    fn wake_ends_a_blocked_pump() {
        let mut t: TcpTransport<Echo> = TcpTransport::seeded(11);
        let a = t.add_node(Echo::default());
        let wake = t.wake_handle();
        let (armed_tx, armed_rx) = std::sync::mpsc::channel();
        let waker = std::thread::spawn(move || {
            armed_rx.recv().unwrap();
            // Gives the loop thread time to get from `send` into its
            // blocking receive. The assertions hold either way: a wake
            // that beats it there is the next test's case.
            std::thread::sleep(Duration::from_millis(20));
            let at = Instant::now();
            wake.wake();
            at
        });
        armed_tx.send(()).unwrap();
        let did = t.pump(Duration::from_secs(10));
        let returned = Instant::now();
        let woke_at = waker.join().unwrap();
        assert!(!did, "a wake is not an event");
        assert!(
            returned.duration_since(woke_at) < Duration::from_millis(50),
            "pump returned {:?} after the wake",
            returned.duration_since(woke_at)
        );
        // Nothing was counted, decoded or delivered.
        assert_eq!(t.stats().total_messages(), 0);
        assert_eq!(t.stats().dropped(), 0);
        assert_eq!(t.stats().counter("wire_decode_errors"), 0);
        assert!(t.node(a).got.is_empty());
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn wake_sent_before_pump_is_not_lost() {
        let mut t: TcpTransport<Echo> = TcpTransport::seeded(12);
        t.add_node(Echo::default());
        let wake = t.wake_handle();
        std::thread::spawn(move || wake.wake()).join().unwrap();
        let start = Instant::now();
        assert!(!t.pump(Duration::from_secs(10)));
        assert!(start.elapsed() < Duration::from_millis(50));
        // It is consumed: the next pump blocks for its full wait again.
        let start = Instant::now();
        t.pump(Duration::from_millis(30));
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn failed_node_drops_messages_and_logs_undeliverable() {
        let mut t: TcpTransport<Echo> = TcpTransport::seeded(4);
        let a = t.add_node(Echo::default());
        let b = t.add_node(Echo::default());
        t.fail_node(b);
        t.with_node(a, |_n, ctx| ctx.send(b, 5));
        t.run_to_quiescence();
        assert!(t.node(b).got.is_empty());
        assert_eq!(t.stats().dropped(), 1);
        assert_eq!(t.take_undeliverable(), vec![(a, b)]);
        t.recover_node(b);
        t.with_node(a, |_n, ctx| ctx.send(b, 0));
        t.run_to_quiescence();
        assert_eq!(t.node(b).got.len(), 1);
    }

    #[test]
    fn unknown_peer_counts_as_drop() {
        let mut t: TcpTransport<Echo> = TcpTransport::seeded(5);
        let a = t.add_node(Echo::default());
        let ghost = NodeId(99);
        t.core.alive.insert(ghost.0, true); // known-alive but no address
        t.with_node(a, |_n, ctx| ctx.send(ghost, 1));
        t.run_to_quiescence();
        assert_eq!(t.stats().dropped(), 1);
        assert_eq!(t.take_undeliverable(), vec![(a, ghost)]);
    }

    #[test]
    fn unreachable_peer_goes_suspect_and_stops_stalling_sends() {
        let mut t: TcpTransport<Echo> = TcpTransport::seeded(8);
        let a = t.add_node(Echo::default());
        // A peer that is "alive" but listens nowhere: connects are refused.
        let ghost = NodeId(50);
        t.register_peer(ghost, "127.0.0.1:1".parse().unwrap());
        let first = Instant::now();
        t.with_node(a, |_n, ctx| ctx.send(ghost, 1));
        let first_elapsed = first.elapsed();
        // Within the cooldown, further sends drop without re-running the
        // reconnect/backoff cycle on the event loop.
        let second = Instant::now();
        t.with_node(a, |_n, ctx| ctx.send(ghost, 2));
        let second_elapsed = second.elapsed();
        assert_eq!(t.stats().dropped(), 2);
        assert_eq!(
            t.take_undeliverable(),
            vec![(a, ghost), (a, ghost)],
            "both sends recorded undeliverable"
        );
        assert!(
            second_elapsed < Duration::from_millis(20).max(first_elapsed / 4),
            "suspect peer must not stall the loop again: first {first_elapsed:?}, second {second_elapsed:?}"
        );
    }

    #[test]
    fn burst_of_messages_all_arrive() {
        let mut t: TcpTransport<Echo> = TcpTransport::seeded(6);
        let a = t.add_node(Echo::default());
        let b = t.add_node(Echo::default());
        for _ in 0..200 {
            t.with_node(a, |_n, ctx| ctx.send(b, 0));
        }
        t.run_to_quiescence();
        assert_eq!(t.node(b).got.len(), 200);
        assert_eq!(t.in_flight(), 0);
    }
}
