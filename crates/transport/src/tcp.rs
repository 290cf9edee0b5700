//! The TCP backend: hosts [`NetProtocol`] nodes over real sockets.
//!
//! Wire format: every message travels as one `moara-wire` frame whose
//! payload is `sender NodeId (u32 LE)` followed by the message encoding.
//! Each hosted node binds its own listener on `127.0.0.1`, port 0;
//! outbound connections are pooled per destination.
//!
//! Threading model: **one thread, one `epoll` set.** The thread that calls
//! [`TcpTransport::pump`] (usually via the [`Transport`] trait's `run_*`
//! methods) owns the set and is the only one that ever touches a socket:
//! the node listeners, every inbound and outbound peer connection and the
//! wake `eventfd` are non-blocking members of it. A frame goes from the
//! socket to `on_message` with no hand-off in between, and protocol state
//! needs no locks and no `Send` bound, exactly like the simulator.
//!
//! The set is also the host's one wake source: `pump` blocks in
//! `epoll_pwait2` and nowhere else (so a 300 µs timer is not rounded up
//! to a millisecond), and a host that feeds its loop from other threads
//! (the daemon's HTTP shards) has them call a [`WakeHandle`] after
//! enqueueing their work; `pump` returns as if a frame had arrived. A
//! host with sockets of its own on the loop's thread (the daemon's
//! control port, its HTTP connections) adds one fd for each set of them
//! ([`TcpTransport::add_host_fd`]) and learns from
//! [`TcpTransport::host_ready`] whether the set needs a turn.
//!
//! A listener whose `accept` runs out of descriptors leaves the set for
//! a pause ([`crate::epoll::Listening`]) instead of keeping the loop
//! awake until one frees.
//!
//! Sending: [`NetCtx::send`] encodes the frame into its destination's
//! output buffer and returns. Buffers are flushed — one `write` per peer,
//! however many frames — when the dispatching call (`pump`,
//! [`Transport::with_node`]) returns, and always before `pump` blocks; a
//! socket that says `EAGAIN` is finished on `EPOLLOUT`. Per-peer order
//! and the bytes on the wire are what one `write` per frame produced.
//!
//! A peer that cannot be reached never stalls the loop: connects are
//! non-blocking, its frames wait in its (bounded) buffer, and the retry
//! ladder — `CONNECT_RETRIES` attempts, jittered backoff between them,
//! then a doubling `SUSPECT_COOLDOWN` during which sends to it drop at
//! once — is a set of deadlines looked at on the next flush. Frames
//! still waiting when the ladder runs out are counted dropped and logged
//! undeliverable, one by one.
//!
//! Time: [`NetCtx::now`] reports real elapsed microseconds since the
//! transport was created, so `SimTime`/`SimDuration` bookkeeping in
//! protocol code (timeouts, latencies) carries over unchanged. The clock
//! is read when `pump` starts, when its wait returns and on entering
//! [`Transport::with_node`]: handlers, timers and link deadlines in
//! between see that one time, as on the simulator.
//!
//! Trust model: the peer plane carries **no authentication** — the
//! sender id in each frame is self-declared, and anything that can reach
//! a listener can speak the protocol. Codec-level hardening (frame and
//! nesting caps, reassembly buffers that grow only with bytes received)
//! stops crashes, not spoofing; deploy listeners on loopback or a trusted
//! network until an authenticated transport lands.
//!
//! Every frame crosses a socket, tests included: delivery order across
//! peers is the kernel's, so the deterministic backend is the simulator.
//! [`TcpConfig::seed`] fixes the reconnect jitter.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::marker::PhantomData;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use moara_simnet::{
    Message, NetCtx, NetProtocol, NodeId, SimDuration, SimTime, Stats, TimerId, TimerTag, Transport,
};
use moara_wire::{append_frame, peer_framed_len, FrameBuf, Wire, FRAME_HDR, SENDER_HDR};

use crate::epoll::{
    connect_nonblocking, Epoll, EpollEvent, Listening, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN,
    EPOLLOUT, EPOLLRDHUP,
};

/// What a [`TcpTransport`] is built from.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Seed for reconnect jitter; fixes the transport's random stream.
    pub seed: u64,
}

impl TcpConfig {
    /// A config with a fixed seed.
    pub fn seeded(seed: u64) -> TcpConfig {
        TcpConfig { seed }
    }
}

/// Makes a blocked [`TcpTransport::pump`] return at once, from any
/// thread. A wake sent while the loop is busy is not lost: the next
/// `pump` sees it and returns without blocking.
#[derive(Clone)]
pub struct WakeHandle(Arc<WakeFd>);

impl WakeHandle {
    /// Wakes the event loop. Call it *after* making the work visible
    /// (enqueueing the job), or the loop may look before it is there.
    pub fn wake(&self) {
        self.0.wake(); // with the transport gone, a counter nobody reads
    }
}

/// Epoll tokens: the wake eventfd, then four disjoint id spaces. An
/// inbound connection's token is its plain sequence number; a host fd's,
/// `HOST` with the fd in its low bits.
const WAKE: u64 = 0;
const HOST: u64 = 1 << 61;
const LISTENER: u64 = 1 << 62;
const OUTBOUND: u64 = 1 << 63;

/// Bytes read per readiness event. A connection with more than this
/// waiting stays readable and is read again by the next `pump`, after
/// everyone else has had a turn.
const READ_CHUNK: usize = 64 * 1024;

/// Most unsent bytes held for one peer (connecting, or not reading)
/// before further frames to it are dropped and counted.
const OUT_BUF_CAP: usize = 4 * 1024 * 1024;

/// Connection attempts per peer, after the first, before what waits for
/// it is counted dropped.
const CONNECT_RETRIES: u32 = 5;

/// Base backoff between reconnect attempts (jittered up to 2×).
const RETRY_BACKOFF: Duration = Duration::from_millis(20);

/// Per-attempt connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// After every reconnect attempt to a peer fails, sends to it drop at
/// once for this long (doubling per failed cycle) instead of queueing
/// behind a crashed peer.
const SUSPECT_COOLDOWN: Duration = Duration::from_secs(1);

/// How long the system must stay idle before `run_to_quiescence`
/// declares it quiescent.
const IDLE_GRACE: Duration = Duration::from_millis(40);

/// Hard wall-clock cap on one `run_to_quiescence` call (a safety net
/// against lost frames; generous because protocol timeouts are real
/// seconds here).
const QUIESCE_CAP: Duration = Duration::from_secs(60);

/// One accepted peer connection: frames for hosted node `to`.
struct Inbound {
    stream: TcpStream,
    to: u32,
    frames: FrameBuf,
}

/// The socket of one destination's [`Link`].
#[derive(Default)]
enum Conn {
    #[default]
    Down,
    /// `connect` is in progress; `EPOLLOUT` ends it.
    Connecting(TcpStream),
    Up(TcpStream),
}

/// The sending side of one destination: its pooled connection and the
/// frames waiting for it.
#[derive(Default)]
struct Link {
    conn: Conn,
    /// `Down`: no new attempt before this (a backoff, or a suspect's
    /// cooldown). `Connecting`: given up at this.
    retry_at: Option<Instant>,
    /// Whole frames, oldest first; the first `sent` bytes are already on
    /// the socket.
    out: Vec<u8>,
    sent: usize,
    /// Has an entry in [`TcpCore::pending`].
    listed: bool,
    /// Attempts failed in a row; a write that goes through zeroes it. Up
    /// to [`CONNECT_RETRIES`], each is a rung of the backoff
    /// ladder. Each one past that drops what waits and leaves the peer
    /// *suspect* — sends to it drop at once — for a cooldown that doubles
    /// (capped), after which it gets one probe, not the ladder again.
    failures: u32,
}

impl Link {
    /// Forgets the frames that are wholly on the socket; one that is cut
    /// stays whole, in case it must go again.
    fn trim(&mut self) {
        let cut = frame_start(&self.out, self.sent);
        self.out.drain(..cut);
        self.sent -= cut;
    }

    /// Drops the socket (closing it takes it out of the epoll set). A
    /// frame it cut short goes again from its start on the next one.
    fn hang_up(&mut self, retry_at: Option<Instant>) {
        self.trim();
        (self.conn, self.retry_at, self.sent) = (Conn::Down, retry_at, 0);
    }
}

/// `(start, sender)` of each whole frame in an output buffer.
fn frames(buf: &[u8]) -> impl Iterator<Item = (usize, u32)> + '_ {
    let mut at = 0;
    std::iter::from_fn(move || {
        let hdr = buf.get(at..at + FRAME_HDR + SENDER_HDR)?;
        let (len, from) = hdr.split_at(FRAME_HDR);
        let start = at;
        at += FRAME_HDR + u32::from_le_bytes(len.try_into().expect("sized")) as usize;
        Some((start, u32::from_le_bytes(from.try_into().expect("sized"))))
    })
}

/// Where the frame holding byte `sent` starts (the end, if none does):
/// everything before it is wholly on the socket.
fn frame_start(buf: &[u8], sent: usize) -> usize {
    let starts = frames(buf).map(|(start, _)| start).chain([buf.len()]);
    starts.take_while(|&s| s <= sent).last().unwrap_or(0)
}

/// One pending timer (the value side of [`TcpCore::timers`]).
struct TimerEntry {
    node: u32,
    tag: TimerTag,
    /// Does not gate quiescence (lease clocks, renewal ticks): fires at
    /// its deadline like any other outside a `run_to_quiescence`, which
    /// neither waits for nor fires it.
    maintenance: bool,
}

/// Everything the event loop owns besides the nodes themselves, so a node
/// and its [`NetCtx`] can be borrowed simultaneously.
struct TcpCore<M> {
    epoch: Instant,
    /// The clock as last read: when `pump` starts, when its wait returns,
    /// and on entering `with_node` or hosting a node.
    now: Instant,
    /// Where every known node (local or remote) listens.
    peers: HashMap<u32, SocketAddr>,
    /// Locally hosted node ids (the ones whose frames count as in-flight).
    locals: HashSet<u32>,
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
    /// Inside `run_to_quiescence`: maintenance timers are set aside,
    /// keeping their place in `timers`, and fire at the next `pump`.
    draining: bool,
    /// Frames sent to local nodes but not yet dispatched.
    inflight: i64,
    /// The one readiness set: `wake`, the listeners, every connection.
    epoll: Epoll,
    wake: Arc<WakeFd>,
    listeners: HashMap<u32, Listening<TcpListener>>,
    /// The host's own fds the last `pump` saw ready.
    host_ready: Vec<RawFd>,
    inbound: HashMap<u64, Inbound>,
    next_conn: u64,
    /// Outbound side, by destination.
    links: HashMap<u32, Link>,
    /// Links the next flush must look at: fresh output, or a deadline
    /// (backoff, connect timeout) to check.
    pending: Vec<u32>,
    /// Where every socket read lands before reassembly.
    chunk: Vec<u8>,
    _msg: PhantomData<fn() -> M>,
}

impl<M: Message + Wire> TcpCore<M> {
    fn now_us(&self) -> u64 {
        self.now.duration_since(self.epoch).as_micros() as u64
    }

    fn is_alive(&self, id: u32) -> bool {
        self.alive.get(&id).copied().unwrap_or(false)
    }

    fn drop_send(&mut self, from: NodeId, to: NodeId) {
        self.stats.record_drop();
        self.undeliverable.push((from, to));
    }

    /// Queues one message on its destination's link; the next flush
    /// writes it.
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let size = peer_framed_len(&msg);
        self.stats.record_send(from, size);
        if let Some(tag) = msg.query_tag() {
            self.stats.record_query_msg(tag);
        }
        if !self.is_alive(to.0) {
            return self.drop_send(from, to);
        }
        if !self.peers.contains_key(&to.0) {
            return self.drop_send(from, to);
        }
        let link = self.links.entry(to.0).or_default();
        let queued = link.out.len() - link.sent;
        let suspect = link.failures > CONNECT_RETRIES
            && matches!(link.conn, Conn::Down)
            && link.retry_at.is_some_and(|at| self.now < at);
        if suspect || (queued > 0 && queued + size > OUT_BUF_CAP) {
            // In the post-failure cooldown, or the buffer is full.
            return self.drop_send(from, to);
        }
        // Prefix, sender id and message, encoded in place.
        append_frame(&mut link.out, |out| {
            Wire::encode(&from.0, out);
            msg.encode(out);
        })
        .expect("a message over 4 GiB was never built");
        if !link.listed {
            link.listed = true;
            self.pending.push(to.0);
        }
        if self.locals.contains(&to.0) {
            self.inflight += 1;
        }
    }

    /// Writes out what the dispatching call queued: one `write` per peer.
    /// Links waiting on a deadline are looked at again and stay listed.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let now = self.now;
        let mut ids = std::mem::take(&mut self.pending);
        for to in ids.drain(..) {
            if let Some(link) = self.links.get_mut(&to) {
                link.listed = false;
            }
            self.drive(to, now);
        }
        if self.pending.is_empty() {
            self.pending = ids; // keeps its capacity
        }
    }

    /// Takes `to`'s link as far as it goes without waiting: connect,
    /// write, or give up on a deadline that has passed.
    fn drive(&mut self, to: u32, now: Instant) {
        let token = OUTBOUND | u64::from(to);
        loop {
            let Some(link) = self.links.get_mut(&to) else {
                return;
            };
            if link.out.is_empty() {
                return;
            }
            // True: a deadline to wait for. False: the socket is no use.
            let waiting = match &mut link.conn {
                Conn::Up(stream) => match stream.write(&link.out[link.sent..]) {
                    Ok(n) if n > 0 => {
                        self.stats.bump("tcp_writes", 1);
                        link.failures = 0;
                        link.sent += n;
                        link.trim();
                        continue;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        // The socket is full: `EPOLLOUT` finishes the job.
                        let fd = stream.as_raw_fd();
                        return self.epoll.modify(fd, EPOLLOUT | EPOLLRDHUP, token);
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Ok(_) | Err(_) => false,
                },
                _ if link.retry_at.is_some_and(|at| now < at) => true,
                Conn::Connecting(_) => false, // timed out
                Conn::Down => {
                    let wants = EPOLLOUT | EPOLLRDHUP;
                    match self.peers.get(&to).map(connect_nonblocking) {
                        Some(Ok(s)) if self.epoll.add(s.as_raw_fd(), wants, token).is_ok() => {
                            link.conn = Conn::Connecting(s);
                            link.retry_at = Some(now + CONNECT_TIMEOUT);
                            true
                        }
                        _ => false,
                    }
                }
            };
            if !waiting {
                self.link_failed(to, now);
                continue;
            }
            // Nothing to do before the deadline; `pump` wakes for it.
            if !std::mem::replace(&mut link.listed, true) {
                self.pending.push(to);
            }
            return;
        }
    }

    /// `to`'s socket is no use (refused, reset, timed out, hung up): back
    /// to `Down` behind the next rung of the backoff ladder — or, past the
    /// last rung, everything waiting is dropped and the peer goes suspect.
    fn link_failed(&mut self, to: u32, now: Instant) {
        let Some(link) = self.links.get_mut(&to) else {
            return;
        };
        link.failures = link.failures.saturating_add(1);
        let Some(streak) = link.failures.checked_sub(CONNECT_RETRIES + 1) else {
            let base = RETRY_BACKOFF.as_micros() as u64 * u64::from(link.failures);
            let jitter = self.rng.gen_range(0..=base.max(1));
            return link.hang_up(Some(now + Duration::from_micros(base + jitter)));
        };
        // Exponential cooldown, capped at 32× the base.
        let cooldown = SUSPECT_COOLDOWN * 2u32.pow(streak.min(5));
        self.fail_queued(to, Some(now + cooldown), true);
    }

    /// Hangs up on `to` and counts every frame still waiting for it
    /// dropped and, when `logged`, undeliverable.
    fn fail_queued(&mut self, to: u32, retry_at: Option<Instant>, logged: bool) {
        let Some(link) = self.links.get_mut(&to) else {
            return;
        };
        link.hang_up(retry_at);
        let local = self.locals.contains(&to);
        for (_, from) in frames(&std::mem::take(&mut link.out)) {
            self.inflight -= i64::from(local);
            self.stats.record_drop();
            if logged {
                self.undeliverable.push((NodeId(from), NodeId(to)));
            }
        }
    }

    /// Readiness on `to`'s outbound socket: the connect finished, the
    /// socket drained, or the peer hung up.
    fn link_event(&mut self, to: u32, bits: u32) {
        let now = self.now;
        let Some(link) = self.links.get_mut(&to) else {
            return;
        };
        let hung = bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
        let up = match std::mem::take(&mut link.conn) {
            Conn::Down => return,
            Conn::Up(stream) if !hung => Some(stream),
            Conn::Connecting(stream) if !hung && matches!(stream.take_error(), Ok(None)) => {
                // Fresh outbound connections are worth counting: steady
                // state reuses the pool, so `tcp_connects` growth means
                // peers restarting or sockets dying. Re-establishment
                // after a failure is the sharper signal.
                self.stats.bump("tcp_connects", 1);
                if link.failures > 0 {
                    self.stats.bump("tcp_reconnects", 1);
                }
                Some(stream)
            }
            _ => None,
        };
        match up {
            Some(stream) => {
                // All there is to hear from it now is a hang-up.
                let token = OUTBOUND | u64::from(to);
                self.epoll.modify(stream.as_raw_fd(), EPOLLRDHUP, token);
                (link.conn, link.retry_at) = (Conn::Up(stream), None);
            }
            // Refused, reset, or the peer hung up: what waits for it goes
            // again after the backoff.
            None => self.link_failed(to, now),
        }
        self.drive(to, now);
    }

    /// Takes what `node`'s listener has queued into the set.
    fn accept(&mut self, node: u32) {
        let Some(listening) = self.listeners.get_mut(&node) else {
            return;
        };
        // Until `WouldBlock`: that was all of them.
        while let Some(stream) = listening.accept(&self.epoll, self.now) {
            self.next_conn += 1;
            let (id, fd, wants) = (self.next_conn, stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP);
            // Else the stream drops: a connection nobody would hear from.
            if stream.set_nonblocking(true).is_ok() && self.epoll.add(fd, wants, id).is_ok() {
                let (to, frames) = (node, FrameBuf::default());
                self.inbound.insert(id, Inbound { stream, to, frames });
            }
        }
    }

    /// The earliest instant a listed link wants looking at again.
    fn next_link_deadline(&self) -> Option<Instant> {
        let deadline = |to| self.links.get(to)?.retry_at;
        self.pending.iter().filter_map(deadline).min()
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

    /// The key of the earliest timer that may fire now: while draining,
    /// the earliest foreground one. Walks past the maintenance timers in
    /// front of it; those are a handful per node.
    fn next_timer(&self) -> Option<(u64, u64)> {
        let firing = |t: &TimerEntry| !(self.draining && t.maintenance);
        let (&key, _) = self.timers.iter().find(|(_, t)| firing(t))?;
        Some(key)
    }

    /// Takes the earliest timer that may fire out if it is due.
    fn pop_due_timer(&mut self) -> Option<TimerEntry> {
        let (due, seq) = self.next_timer()?;
        if due > self.now_us() {
            return None;
        }
        self.timer_due.remove(&seq);
        self.timers.remove(&(due, seq))
    }

    /// Micros until the next timer that may fire, if any.
    fn next_timer_in(&self) -> Option<u64> {
        let (due, _) = self.next_timer()?;
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
        SimTime(self.core.now_us())
    }
    fn me(&self) -> NodeId {
        self.me
    }
    fn send(&mut self, to: NodeId, msg: M) {
        self.core.send(self.me, to, msg);
    }
    fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId {
        self.core.arm_timer(self.me, delay, tag, false)
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

/// Hosts [`NetProtocol`] nodes over TCP.
///
/// Supports two deployment shapes:
///
/// * **in-process cluster** — [`Transport::add_node`] assigns sequential
///   ids and binds one listener per node; messages between nodes cross
///   real loopback sockets. `Cluster::builder().build_tcp()` in
///   `moara-core` uses this.
/// * **one node per process** — the `moarad` daemon adds its single node
///   with [`TcpTransport::add_node_with_listener`] and points at the rest of the
///   cluster with [`TcpTransport::register_peer`].
pub struct TcpTransport<P: NetProtocol> {
    nodes: HashMap<u32, Option<P>>,
    core: TcpCore<P::Msg>,
    /// Where `epoll` reports readiness (reused across pumps).
    events: Vec<EpollEvent>,
    next_id: u32,
}

impl<P: NetProtocol> TcpTransport<P>
where
    P::Msg: Wire,
{
    /// Creates an empty transport.
    pub fn new(cfg: TcpConfig) -> TcpTransport<P> {
        let (epoll, wake) = (Epoll::new(), Arc::new(WakeFd::new()));
        wake.register(&epoll, WAKE);
        let now = Instant::now();
        TcpTransport {
            nodes: HashMap::new(),
            core: TcpCore {
                rng: StdRng::seed_from_u64(cfg.seed),
                epoch: now,
                now,
                peers: HashMap::new(),
                locals: HashSet::new(),
                alive: HashMap::new(),
                stats: Stats::default(),
                undeliverable: Vec::new(),
                timers: BTreeMap::new(),
                timer_due: HashMap::new(),
                next_timer: 0,
                draining: false,
                inflight: 0,
                epoll,
                wake,
                listeners: HashMap::new(),
                host_ready: Vec::new(),
                inbound: HashMap::new(),
                next_conn: 0,
                links: HashMap::new(),
                pending: Vec::new(),
                chunk: vec![0; READ_CHUNK],
                _msg: PhantomData,
            },
            events: vec![EpollEvent::default(); 64],
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
    /// the kernel until [`TcpTransport::add_node_with_listener`] puts the
    /// listener in the set.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn reserve_listener(&self) -> std::io::Result<ReservedListener> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(ReservedListener { listener, addr })
    }

    /// Hosts `node` under an explicit id on a pre-bound listener (see
    /// [`TcpTransport::reserve_listener`]).
    ///
    /// # Panics
    ///
    /// Panics if the id is already hosted here, or the kernel is out of
    /// epoll watches.
    pub fn add_node_with_listener(
        &mut self,
        id: NodeId,
        node: P,
        reserved: ReservedListener,
    ) -> SocketAddr {
        let ReservedListener { listener, addr } = reserved;
        let token = LISTENER | u64::from(id.0);
        let listening = Listening::new(&self.core.epoll, listener, EPOLLIN, token);
        let listening = listening.expect("listener joins the epoll set");
        self.core.listeners.insert(id.0, listening);
        self.core.peers.insert(id.0, addr);
        assert!(
            !self.nodes.contains_key(&id.0),
            "node {id} already hosted on this transport"
        );
        self.core.locals.insert(id.0);
        self.core.alive.insert(id.0, true);
        self.core.stats.ensure_node(id);
        self.nodes.insert(id.0, Some(node));
        self.next_id = self.next_id.max(id.0 + 1);
        self.core.now = Instant::now();
        self.with_node_inner(id, |n, ctx| n.on_start(ctx));
        addr
    }

    /// Registers where a *remote* node (hosted by another process)
    /// listens, so local sends can reach it.
    pub fn register_peer(&mut self, id: NodeId, addr: SocketAddr) {
        let prev = self.core.peers.insert(id.0, addr);
        self.core.alive.entry(id.0).or_insert(true);
        if let Some(link) = self.core.links.get_mut(&id.0) {
            // A pooled connection may point at a dead predecessor.
            if !matches!(link.conn, Conn::Down) {
                link.hang_up(None);
            }
            if prev != Some(addr) {
                // A *new* address is a fresh start: drop any send-failure
                // cooldown accrued against the old one, or a rejoined peer
                // (same id, new port) would stay unreachable for up to the
                // full exponential backoff.
                (link.failures, link.retry_at) = (0, None);
            }
            if !std::mem::replace(&mut link.listed, true) {
                self.core.pending.push(id.0);
            }
        }
    }

    /// The listen address of a locally hosted node (None for ids not
    /// hosted here).
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

    /// A handle other threads use to cut a blocked [`TcpTransport::pump`]
    /// short (see [`WakeHandle`]).
    pub fn wake_handle(&self) -> WakeHandle {
        WakeHandle(Arc::clone(&self.core.wake))
    }

    /// Adds a readiness source of the host's own to the loop's one wait:
    /// while `fd` is readable `pump` does not block, as after a
    /// [`WakeHandle::wake`], and [`TcpTransport::host_ready`] says so;
    /// the host, not the transport, reads it. Panics if the kernel is out
    /// of epoll watches (boot time).
    pub fn add_host_fd(&mut self, fd: RawFd) {
        let added = self.core.epoll.add(fd, EPOLLIN, HOST | fd as u64);
        added.expect("host fd joins the epoll set");
    }

    /// Whether the last [`TcpTransport::pump`] saw host fd `fd` ready: a
    /// host that looks at its sockets only then makes no syscall for them
    /// in a pump that did not.
    pub fn host_ready(&self, fd: RawFd) -> bool {
        self.core.host_ready.contains(&fd)
    }

    /// Fires due timers and delivers queued/incoming frames. Blocks up to
    /// `max_wait` when nothing is immediately ready (bounded by the next
    /// timer deadline) and no wake is pending; a [`WakeHandle::wake`]
    /// ends the block early. Returns true if any event was processed —
    /// a wake is not one. Everything sent meanwhile is on its socket (or
    /// waiting for `EPOLLOUT`) on return.
    pub fn pump(&mut self, max_wait: Duration) -> bool {
        self.core.now = Instant::now();
        let mut did = self.fire_due_timers();
        self.core.flush();
        // The loop's one blocking call; a look without waiting when this
        // call has already done something.
        let mut wait = if did { Duration::ZERO } else { max_wait };
        if let Some(us) = self.core.next_timer_in() {
            wait = wait.min(Duration::from_micros(us));
        }
        if let Some(at) = self.core.next_link_deadline() {
            wait = wait.min(at.saturating_duration_since(self.core.now));
        }
        let core = &mut self.core;
        for listening in core.listeners.values_mut() {
            listening.resume(&core.epoll, core.now);
            wait = wait.min(listening.paused_for(core.now).unwrap_or(wait));
        }
        core.host_ready.clear();
        let mut events = std::mem::take(&mut self.events);
        let ready = self.core.epoll.wait(&mut events, wait);
        self.core.now = Instant::now();
        for ev in ready {
            let (bits, token) = (ev.events, ev.data);
            match token {
                // Only ends the wait. Not a message: never counted.
                WAKE => {}
                t if t & OUTBOUND != 0 => self.core.link_event(t as u32, bits),
                t if t & LISTENER != 0 => self.core.accept(t as u32),
                t if t & HOST != 0 => self.core.host_ready.push(t as RawFd),
                conn => did |= self.read_inbound(conn),
            }
        }
        self.events = events;
        if !wait.is_zero() {
            did |= self.fire_due_timers();
        }
        self.core.flush();
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

    /// One read from a readable inbound connection, and every frame it
    /// completes dispatched. Returns whether there was one.
    fn read_inbound(&mut self, id: u64) -> bool {
        let Some(mut conn) = self.core.inbound.remove(&id) else {
            return false;
        };
        let mut did = false;
        let open = match conn.stream.read(&mut self.core.chunk) {
            Ok(0) => false, // peer closed
            Ok(n) => {
                conn.frames.extend(&self.core.chunk[..n]);
                loop {
                    match conn.frames.next_frame() {
                        Ok(Some(payload)) => {
                            self.deliver(conn.to, payload);
                            did = true;
                        }
                        Ok(None) => break true,
                        // A prefix over the cap: the stream cannot be
                        // resynchronised.
                        Err(_) => break false,
                    }
                }
            }
            Err(e) => matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
        };
        if open {
            self.core.inbound.insert(id, conn);
        } // else dropping the stream closes it and takes it out of the set
        did
    }

    /// Dispatches one frame payload — the sender id ([`SENDER_HDR`]
    /// bytes), then the message encoding — to hosted node `to`.
    fn deliver(&mut self, to: u32, payload: &[u8]) {
        let Some((from, body)) = payload.split_first_chunk::<SENDER_HDR>() else {
            return; // runt frame: no sender id
        };
        let from = u32::from_le_bytes(*from);
        // Frames from our own nodes stop being "in flight" the moment the
        // event loop takes them, whatever happens next.
        if self.core.locals.contains(&from) {
            self.core.inflight -= 1;
        }
        if !self.core.is_alive(to) || !self.nodes.contains_key(&to) {
            self.core.stats.record_drop();
            return;
        }
        let msg = match <P::Msg as Wire>::from_bytes(body) {
            Ok(m) => m,
            Err(_) => {
                self.core.stats.bump("wire_decode_errors", 1);
                return;
            }
        };
        self.core
            .stats
            .record_recv(NodeId(to), payload.len() + FRAME_HDR);
        self.with_node_inner(NodeId(to), |n, ctx| n.on_message(ctx, NodeId(from), msg));
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
    /// dispatched.
    pub fn in_flight(&self) -> i64 {
        self.core.inflight
    }

    /// Whether any timers are pending.
    pub fn timers_pending(&self) -> bool {
        self.core.next_timer_in().is_some()
    }
}

impl<P: NetProtocol> Transport<P> for TcpTransport<P>
where
    P::Msg: Wire,
{
    fn add_node(&mut self, node: P) -> NodeId {
        let id = NodeId(self.next_id);
        let reserved = self.reserve_listener().expect("bind listener on loopback");
        self.add_node_with_listener(id, node, reserved);
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

    /// What `f` sends is on its socket when this returns.
    fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut dyn NetCtx<P::Msg>) -> R,
    ) -> R {
        self.core.now = Instant::now();
        let r = self.with_node_inner(id, f);
        self.core.flush();
        r
    }

    /// A fresh reading, unlike a handler's [`NetCtx::now`].
    fn now(&self) -> SimTime {
        SimTime(self.core.epoch.elapsed().as_micros() as u64)
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
    /// foreground timers are pending, and the system has been idle for
    /// `IDLE_GRACE`. Pending foreground timers are *waited out* (they
    /// fire at their real deadline), matching the simulator's semantics at
    /// wall-clock speed — so configure short protocol timeouts in tests
    /// that exercise failures. Maintenance timers that come due meanwhile
    /// are set aside, as on the simulator: they fire, late and in their
    /// order, at the first `pump` after it.
    fn run_to_quiescence(&mut self) -> SimTime {
        let cap = Instant::now() + QUIESCE_CAP;
        let mut idle_since: Option<Instant> = None;
        self.core.draining = true;
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
            if let Some(us) = self.core.next_timer_in() {
                // Idle but a foreground timer is due later: wait for it
                // (pump blocks until then, bounded to keep checking the
                // cap). Maintenance timers — standing lease/renewal
                // clocks that re-arm forever — are neither waited out
                // nor fired.
                self.pump(Duration::from_micros(us).min(Duration::from_millis(50)));
                continue;
            }
            let now = Instant::now();
            let since = *idle_since.get_or_insert(now);
            if now.duration_since(since) >= IDLE_GRACE {
                break;
            }
        }
        self.core.draining = false;
        SimTime(self.core.now_us())
    }

    fn stats(&self) -> &Stats {
        &self.core.stats
    }

    fn stats_mut(&mut self) -> &mut Stats {
        &mut self.core.stats
    }

    fn fail_node(&mut self, id: NodeId) {
        self.core.alive.insert(id.0, false);
        // What is on its way to it is dropped unlogged, as in the simulator.
        self.core.fail_queued(id.0, None, false);
    }

    fn recover_node(&mut self, id: NodeId) {
        self.core.alive.insert(id.0, true);
        if let Some(link) = self.core.links.get_mut(&id.0) {
            link.failures = 0;
        }
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

    /// Echo protocol over the seam.
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
    fn cancelled_timers_are_freed_at_cancel_time() {
        // A finished query cancels its 60 s front timeout, but a short
        // re-arming timer (SWIM's period) is always due first, so nothing
        // that only cleans up from the front ever reaches it.
        let mut t: TcpTransport<Echo> = TcpTransport::seeded(9);
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
}
