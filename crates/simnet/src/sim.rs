//! The discrete-event simulator core: nodes, messages, timers, and the
//! event loop.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::latency::LatencyModel;
use crate::net::{NetCtx, NetProtocol, Transport};
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};

/// Identifies a simulated node (its index in the simulator).
///
/// This is the *transport-level* address — the Moara/DHT layers map their
/// 64-bit ring identifiers onto these.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl moara_wire::Wire for NodeId {
    fn encode(&self, out: &mut impl moara_wire::Sink) {
        moara_wire::Wire::encode(&self.0, out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, moara_wire::WireError> {
        <u32 as moara_wire::Wire>::decode(buf).map(NodeId)
    }
}

/// A simulated wire message.
///
/// `size_bytes` feeds the per-node bandwidth accounting; the default of 64
/// bytes approximates a small UDP control message and is fine for tests.
pub trait Message: Clone + fmt::Debug {
    /// Estimated serialized size, in bytes.
    fn size_bytes(&self) -> usize {
        64
    }

    /// Opaque per-query tag for message attribution, or `None` for
    /// traffic that belongs to no single query (maintenance, membership).
    ///
    /// Transports feed this into [`crate::Stats::record_query_msg`], so a
    /// harness can read how many messages one end-to-end query caused even
    /// while other queries are in flight — global before/after snapshots
    /// cannot tell overlapping queries apart.
    fn query_tag(&self) -> Option<u64> {
        None
    }
}

impl Message for () {}
impl Message for u32 {}
impl Message for u64 {}
impl Message for String {
    fn size_bytes(&self) -> usize {
        self.len() + 16
    }
}

/// Opaque tag carried by a timer back to the protocol that armed it.
pub type TimerTag = u64;

/// Handle to a pending timer, usable with [`NetCtx::cancel_timer`].
///
/// The simulator mints it from the timer's queue slot and that slot's
/// generation (high 32 bits), so a handle outliving its timer matches
/// nothing once the slot is reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(u64);

impl TimerId {
    /// Builds a timer id from a raw number. Exposed so alternate
    /// transports (see `moara-transport`) can mint ids from their own
    /// timer wheels; within one transport, pending timers have distinct
    /// ids.
    pub fn from_raw(raw: u64) -> TimerId {
        TimerId(raw)
    }

    /// The raw number behind this id.
    pub fn raw(self) -> u64 {
        self.0
    }

    fn from_slot(slot: u32, gen: u32) -> TimerId {
        TimerId(u64::from(gen) << 32 | u64::from(slot))
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// What a queue slot holds.
enum Payload<M> {
    /// On the free list.
    Free,
    Deliver {
        from: NodeId,
        msg: M,
    },
    Timer(TimerTag),
    /// A timer cancelled while pending: its key is dropped, without
    /// moving the clock, when it comes up.
    Cancelled,
}

struct Slot<M> {
    /// Bumped each time the slot is freed, so a [`TimerId`] minted for an
    /// earlier occupant matches nothing.
    gen: u32,
    payload: Payload<M>,
}

/// A queued event as the heap sees it: its order and where its payload
/// lives. Payloads stay put in the slab; only these keys are sifted.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    node: NodeId,
    slot: u32,
    /// Maintenance timers (lease clocks, renewal ticks, periodic
    /// emissions) do not count toward quiescence: `run_to_quiescence`
    /// neither waits for nor fires them — they fire during `run_for`.
    maintenance: bool,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Scriptable network faults: per-link (and default) message-drop
/// probabilities plus bidirectional partitions. Consulted on every send
/// when any fault is configured; a faulted message is lost *silently* —
/// unlike sends to failed nodes it produces no undeliverable-log entry,
/// because real networks drop packets without notifying the sender.
///
/// This is the simulator's fault-injection surface for churn scenarios
/// the paper only gestures at: lossy links, netsplits, and (together with
/// [`Transport::fail_node`] / [`Transport::recover_node`], which preserve
/// node state) crash-then-restart. Drops are counted under the
/// `"faults_dropped"` stats counter.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Drop probability applied to every link without an explicit entry.
    default_drop: f64,
    /// Directed per-link drop probabilities, overriding the default.
    link_drop: HashMap<(u32, u32), f64>,
    /// Active partitions: traffic between the two sides of any entry is
    /// cut in both directions.
    partitions: Vec<(HashSet<u32>, HashSet<u32>)>,
}

impl FaultPlan {
    /// Sets the drop probability for links without a per-link override.
    pub fn set_default_drop(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.default_drop = p;
    }

    /// Sets the drop probability of the directed link `from → to`.
    pub fn set_link_drop(&mut self, from: NodeId, to: NodeId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.link_drop.insert((from.0, to.0), p);
    }

    /// Cuts all traffic between `a` and `b`, in both directions. Stacks
    /// with existing partitions.
    pub fn partition(&mut self, a: &[NodeId], b: &[NodeId]) {
        let a: HashSet<u32> = a.iter().map(|n| n.0).collect();
        let b: HashSet<u32> = b.iter().map(|n| n.0).collect();
        self.partitions.push((a, b));
    }

    /// Removes every partition (link-drop probabilities stay).
    pub fn heal(&mut self) {
        self.partitions.clear();
    }

    /// Removes every fault: partitions and drop probabilities.
    pub fn clear(&mut self) {
        self.partitions.clear();
        self.link_drop.clear();
        self.default_drop = 0.0;
    }

    /// True when any fault is configured (the send path skips the fault
    /// check — and its RNG draw — entirely otherwise, so fault-free runs
    /// keep their exact historical event traces).
    pub fn active(&self) -> bool {
        self.default_drop > 0.0 || !self.link_drop.is_empty() || !self.partitions.is_empty()
    }

    /// Whether a partition currently severs `from → to`.
    pub fn partitioned(&self, from: NodeId, to: NodeId) -> bool {
        self.partitions.iter().any(|(a, b)| {
            (a.contains(&from.0) && b.contains(&to.0)) || (b.contains(&from.0) && a.contains(&to.0))
        })
    }

    /// Decides whether this send is lost, drawing from `rng` only when a
    /// probabilistic fault applies to the link.
    fn drops(&self, rng: &mut StdRng, from: NodeId, to: NodeId) -> bool {
        if self.partitioned(from, to) {
            return true;
        }
        let p = self
            .link_drop
            .get(&(from.0, to.0))
            .copied()
            .unwrap_or(self.default_drop);
        p > 0.0 && rng.gen_bool(p)
    }
}

/// Everything the event loop owns besides the nodes themselves; split out so
/// a node and the [`Context`] can be borrowed simultaneously.
struct Core<M> {
    now: SimTime,
    queue: BinaryHeap<Reverse<Key>>,
    /// Payloads of queued events, indexed by [`Key::slot`]; freed slots
    /// are reused, so the slab never outgrows the peak of queued events.
    slots: Vec<Slot<M>>,
    free: Vec<u32>,
    seq: u64,
    rng: StdRng,
    latency: Box<dyn LatencyModel>,
    alive: Vec<bool>,
    stats: Stats,
    undeliverable: Vec<(NodeId, NodeId)>,
    faults: FaultPlan,
    /// Queued events that gate quiescence (everything except maintenance
    /// timers); kept as a counter so `run_to_quiescence` can stop without
    /// scanning the heap.
    fg_events: usize,
}

impl<M: Message> Core<M> {
    /// Queues `payload` for `node` at `time`; returns its slot and the
    /// slot's generation.
    fn push(
        &mut self,
        time: SimTime,
        node: NodeId,
        payload: Payload<M>,
        maintenance: bool,
    ) -> (u32, u32) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].payload = payload;
                slot
            }
            None => {
                self.slots.push(Slot { gen: 0, payload });
                (self.slots.len() - 1) as u32
            }
        };
        let seq = self.seq;
        self.seq += 1;
        if !maintenance {
            self.fg_events += 1;
        }
        self.queue.push(Reverse(Key {
            time,
            seq,
            node,
            slot,
            maintenance,
        }));
        (slot, self.slots[slot as usize].gen)
    }

    /// Pops the next key, keeping the foreground counter in sync. Its
    /// slot stays occupied until [`Core::take`].
    fn pop(&mut self) -> Option<Key> {
        let Reverse(key) = self.queue.pop()?;
        if !key.maintenance {
            self.fg_events -= 1;
        }
        Some(key)
    }

    /// Moves a popped event's payload out and frees its slot.
    fn take(&mut self, slot: u32) -> Payload<M> {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        std::mem::replace(&mut s.payload, Payload::Free)
    }
}

/// The [`NetCtx`] a callback on the simulator gets: sends, timers and
/// the clock act on the event loop's [`Core`].
struct Context<'a, M> {
    core: &'a mut Core<M>,
    me: NodeId,
}

impl<M: Message> Context<'_, M> {
    fn arm_timer(&mut self, delay: SimDuration, tag: TimerTag, maintenance: bool) -> TimerId {
        let at = self.core.now + delay;
        let (slot, gen) = self
            .core
            .push(at, self.me, Payload::Timer(tag), maintenance);
        TimerId::from_slot(slot, gen)
    }
}

impl<M: Message> NetCtx<M> for Context<'_, M> {
    fn now(&self) -> SimTime {
        self.core.now
    }

    fn me(&self) -> NodeId {
        self.me
    }

    /// Delivers `msg` after a sampled one-way network delay. Messages to
    /// failed nodes are dropped (and recorded in the undeliverable log).
    ///
    /// Sending to oneself is allowed and delivered with the same sampled
    /// latency (loopback messages in the prototype still crossed the
    /// FreePastry dispatch path).
    fn send(&mut self, to: NodeId, msg: M) {
        let bytes = msg.size_bytes();
        self.core.stats.record_send(self.me, bytes);
        if let Some(tag) = msg.query_tag() {
            self.core.stats.record_query_msg(tag);
        }
        if !self.core.alive.get(to.index()).copied().unwrap_or(false) {
            self.core.stats.record_drop();
            self.core.undeliverable.push((self.me, to));
            return;
        }
        if self.core.faults.active() && self.core.faults.drops(&mut self.core.rng, self.me, to) {
            // Injected network loss: silent (no undeliverable entry) —
            // the sender of a packet lost in the network learns nothing.
            self.core.stats.bump("faults_dropped", 1);
            return;
        }
        let now = self.core.now;
        let delay = self
            .core
            .latency
            .sample(&mut self.core.rng, self.me, to, now);
        let at = self.core.now + delay;
        let from = self.me;
        self.core.stats.record_recv(to, bytes);
        self.core
            .push(at, to, Payload::Deliver { from, msg }, false);
    }

    fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId {
        self.arm_timer(delay, tag, false)
    }

    fn set_maintenance_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId {
        self.arm_timer(delay, tag, true)
    }

    /// Cancelling an already-fired (or already cancelled) timer is a
    /// no-op: its slot has moved to a new generation, so the id matches
    /// nothing.
    fn cancel_timer(&mut self, id: TimerId) {
        if let Some(s) = self.core.slots.get_mut(id.slot() as usize) {
            if s.gen == id.gen() && matches!(s.payload, Payload::Timer(_)) {
                s.payload = Payload::Cancelled;
            }
        }
    }

    fn count(&mut self, name: &'static str) {
        self.core.stats.bump(name, 1);
    }
}

/// The deterministic discrete-event simulator: a [`Transport`] on a
/// virtual clock, with seeded latency models and randomness.
///
/// Generic over the hosted [`NetProtocol`]; all nodes in one simulator
/// run the same protocol type.
pub struct SimTransport<P: NetProtocol> {
    nodes: Vec<P>,
    core: Core<P::Msg>,
}

impl<P: NetProtocol> SimTransport<P> {
    /// Creates an empty simulator with the given latency model and RNG seed.
    pub fn new(latency: impl LatencyModel + 'static, seed: u64) -> SimTransport<P> {
        SimTransport {
            nodes: Vec::new(),
            core: Core {
                now: SimTime::ZERO,
                queue: BinaryHeap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                seq: 0,
                rng: StdRng::seed_from_u64(seed),
                latency: Box::new(latency),
                alive: Vec::new(),
                stats: Stats::default(),
                undeliverable: Vec::new(),
                faults: FaultPlan::default(),
                fg_events: 0,
            },
        }
    }

    /// The scriptable network-fault plan (lossy links, partitions) — the
    /// fault-injection surface for churn and netsplit scenarios. Real
    /// transports get their faults from the real network.
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.core.faults
    }

    /// Frees the key's slot, then runs its payload on the node in place.
    /// Freeing first lets the handler's own sends reuse the slot.
    fn dispatch(&mut self, key: Key) {
        let payload = self.core.take(key.slot);
        let id = key.node;
        if !self.core.alive[id.index()] {
            if let Payload::Deliver { .. } = payload {
                self.core.stats.record_drop();
            }
            return;
        }
        match payload {
            Payload::Deliver { from, msg } => {
                self.with_node(id, |n, ctx| n.on_message(ctx, from, msg));
            }
            Payload::Timer(tag) => self.with_node(id, |n, ctx| n.on_timer(ctx, tag)),
            // Both run loops purge cancelled timers (without advancing
            // the clock) before dispatching, and free slots are not keyed.
            Payload::Cancelled | Payload::Free => unreachable!("unpurged slot"),
        }
    }

    /// True when `key` is a cancelled timer, whose slot it then frees.
    /// Cancelled timers are purged *without advancing the clock*:
    /// letting them drag `now` forward used to make every synchronous
    /// query inflate virtual time by its (cancelled) front-end deadline,
    /// expiring every TTL in the system between consecutive queries.
    fn purge_if_cancelled(&mut self, key: &Key) -> bool {
        let cancelled = matches!(
            self.core.slots[key.slot as usize].payload,
            Payload::Cancelled
        );
        if cancelled {
            self.core.take(key.slot);
        }
        cancelled
    }

    /// Processes at most `budget` foreground events; returns true if the
    /// foreground drained. Maintenance timers encountered on the way are
    /// set aside (unfired, clock untouched) and re-queued at the end with
    /// their original `(time, seq)`.
    fn run_events(&mut self, budget: u64) -> bool {
        let mut stash: Vec<Key> = Vec::new();
        for _ in 0..budget {
            if self.core.fg_events == 0 {
                break;
            }
            let Some(key) = self.core.pop() else { break };
            if self.purge_if_cancelled(&key) {
                continue;
            }
            if key.maintenance {
                stash.push(key);
                continue;
            }
            debug_assert!(key.time >= self.core.now, "time went backwards");
            self.core.now = key.time;
            self.dispatch(key);
        }
        self.core.queue.extend(stash.into_iter().map(Reverse));
        self.core.fg_events == 0
    }
}

impl<P: NetProtocol> Transport<P> for SimTransport<P> {
    fn add_node(&mut self, node: P) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.core.alive.push(true);
        self.core.stats.ensure_node(id);
        self.with_node(id, |n, ctx| n.on_start(ctx));
        id
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.index()]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut P {
        &mut self.nodes[id.index()]
    }

    fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut dyn NetCtx<P::Msg>) -> R,
    ) -> R {
        let mut ctx = Context {
            core: &mut self.core,
            me: id,
        };
        f(&mut self.nodes[id.index()], &mut ctx)
    }

    fn now(&self) -> SimTime {
        self.core.now
    }

    /// Processes all events due by `now + d`, then advances the clock
    /// there even if idle. Later events stay queued.
    fn run_for(&mut self, d: SimDuration) {
        let until = self.core.now + d;
        loop {
            let due = matches!(self.core.queue.peek(),
                Some(Reverse(key)) if key.time <= until);
            if !due {
                break;
            }
            let key = self.core.pop().expect("peeked");
            if self.purge_if_cancelled(&key) {
                continue;
            }
            // A maintenance timer skipped by a quiescence drain can be
            // overdue; it fires late without moving the clock backwards.
            if key.time > self.core.now {
                self.core.now = key.time;
            }
            self.dispatch(key);
        }
        if self.core.now < until {
            self.core.now = until;
        }
    }

    /// Processes events until no *foreground* events remain: pending
    /// deliveries and ordinary timers drain; maintenance timers stay
    /// queued (they would re-arm themselves forever).
    ///
    /// # Panics
    ///
    /// Panics after 200 million events, which in practice indicates a
    /// protocol livelock (e.g. a self-rearming foreground timer).
    fn run_to_quiescence(&mut self) -> SimTime {
        assert!(
            self.run_events(200_000_000),
            "simulation did not quiesce within the event budget"
        );
        self.core.now
    }

    fn stats(&self) -> &Stats {
        &self.core.stats
    }

    fn stats_mut(&mut self) -> &mut Stats {
        &mut self.core.stats
    }

    fn fail_node(&mut self, id: NodeId) {
        self.core.alive[id.index()] = false;
    }

    fn recover_node(&mut self, id: NodeId) {
        self.core.alive[id.index()] = true;
    }

    fn is_alive(&self, id: NodeId) -> bool {
        self.core.alive[id.index()]
    }

    fn take_undeliverable(&mut self) -> Vec<(NodeId, NodeId)> {
        std::mem::take(&mut self.core.undeliverable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::Constant;

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

    fn sim() -> SimTransport<Echo> {
        SimTransport::new(Constant::from_millis(10), 1)
    }

    #[test]
    fn ping_pong_terminates_with_correct_time_and_counts() {
        let mut s = sim();
        let a = s.add_node(Echo::default());
        let b = s.add_node(Echo::default());
        s.with_node(a, |_n, ctx| ctx.send(b, 3));
        let end = s.run_to_quiescence();
        // messages: 3 -> 2 -> 1 -> 0, i.e. 4 messages, 40 ms.
        assert_eq!(s.stats().total_messages(), 4);
        assert_eq!(end, SimDuration::from_millis(40).as_time());
        assert_eq!(s.node(b).got, vec![(a, 3), (a, 1)]);
        assert_eq!(s.node(a).got, vec![(b, 2), (b, 0)]);
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        let mut s = sim();
        let a = s.add_node(Echo::default());
        let cancelled = s.with_node(a, |_n, ctx| {
            ctx.set_timer(SimDuration::from_millis(5), 1);
            let t = ctx.set_timer(SimDuration::from_millis(6), 2);
            ctx.set_timer(SimDuration::from_millis(7), 3);
            t
        });
        s.with_node(a, |_n, ctx| ctx.cancel_timer(cancelled));
        s.run_to_quiescence();
        assert_eq!(s.node(a).timer_fired, 2);
    }

    /// Slots holding a cancelled timer: the simulator's whole
    /// cancellation state.
    fn cancellation_state<P: NetProtocol>(s: &SimTransport<P>) -> usize {
        s.core
            .slots
            .iter()
            .filter(|slot| matches!(slot.payload, Payload::Cancelled))
            .count()
    }

    #[test]
    fn cancelling_a_fired_timer_is_a_true_no_op() {
        let mut s = sim();
        let a = s.add_node(Echo::default());
        let fired = s.with_node(a, |_n, ctx| ctx.set_timer(SimDuration::from_millis(5), 1));
        s.run_to_quiescence();
        assert_eq!(s.node(a).timer_fired, 1);
        s.with_node(a, |_n, ctx| ctx.cancel_timer(fired));
        assert_eq!(cancellation_state(&s), 0, "a late cancel leaves nothing");
        // The next timer takes the fired one's slot; the stale handle must
        // not reach it.
        let later = s.with_node(a, |_n, ctx| {
            let t = ctx.set_timer(SimDuration::from_millis(5), 2);
            ctx.cancel_timer(fired);
            t
        });
        assert_eq!(later.slot(), fired.slot());
        s.run_to_quiescence();
        assert_eq!(s.node(a).timer_fired, 2);
        assert_eq!(cancellation_state(&s), 0);
        assert_eq!(s.core.free.len(), s.core.slots.len());
    }

    #[test]
    fn same_time_deliveries_dispatch_in_send_order() {
        let mut s = sim();
        let a = s.add_node(Echo::default());
        let b = s.add_node(Echo::default());
        let c = s.add_node(Echo::default());
        // Constant latency: all five arrive at 10 ms. Zero payloads are
        // not echoed, so the order seen is the order sent.
        s.with_node(a, |_n, ctx| {
            ctx.send(c, 0);
            ctx.send(c, 0);
        });
        s.with_node(b, |_n, ctx| ctx.send(c, 0));
        s.with_node(a, |_n, ctx| ctx.send(c, 0));
        s.with_node(b, |_n, ctx| ctx.send(c, 0));
        s.run_to_quiescence();
        let from: Vec<NodeId> = s.node(c).got.iter().map(|&(f, _)| f).collect();
        assert_eq!(from, vec![a, a, b, a, b]);
    }

    #[test]
    fn set_aside_maintenance_timers_keep_their_time_and_seq() {
        let mut s = sim();
        let a = s.add_node(Echo::default());
        let b = s.add_node(Echo::default());
        s.with_node(a, |_n, ctx| {
            ctx.set_maintenance_timer(SimDuration::from_millis(5), 1);
            ctx.set_maintenance_timer(SimDuration::from_millis(5), 2);
            ctx.send(b, 3); // foreground until 40 ms
            ctx.set_maintenance_timer(SimDuration::from_millis(15), 3);
        });
        let keys = |s: &SimTransport<Echo>| {
            let mut k: Vec<(SimTime, u64)> = s
                .core
                .queue
                .iter()
                .map(|Reverse(k)| (k.time, k.seq))
                .collect();
            k.sort();
            k
        };
        // Everything but the delivery (seq 2) must come back unchanged.
        let before: Vec<(SimTime, u64)> = keys(&s).into_iter().filter(|&(_, q)| q != 2).collect();
        s.run_to_quiescence();
        assert_eq!(s.now(), SimDuration::from_millis(40).as_time());
        assert_eq!(s.node(a).timer_fired, 0);
        assert_eq!(keys(&s), before);
    }

    #[test]
    fn slab_never_outgrows_the_peak_of_pending_events() {
        /// Ping-pong that, like a session, arms a deadline per message and
        /// cancels the previous one: tombstones pile up in the queue.
        #[derive(Default)]
        struct Pinger {
            deadline: Option<TimerId>,
        }
        impl NetProtocol for Pinger {
            type Msg = u32;
            fn on_message(&mut self, ctx: &mut dyn NetCtx<u32>, from: NodeId, msg: u32) {
                if let Some(t) = self.deadline.take() {
                    ctx.cancel_timer(t);
                }
                self.deadline = Some(ctx.set_timer(SimDuration::from_secs(1), 0));
                ctx.send(from, msg.wrapping_add(1));
            }
            fn on_timer(&mut self, _ctx: &mut dyn NetCtx<u32>, _tag: TimerTag) {}
        }
        let mut s: SimTransport<Pinger> = SimTransport::new(Constant::from_millis(10), 4);
        let a = s.add_node(Pinger::default());
        let b = s.add_node(Pinger::default());
        s.with_node(a, |_n, ctx| ctx.send(b, 0));
        let mut peak = s.core.queue.len();
        let mut events = 0u32;
        while events < 100_000 {
            s.run_events(1);
            events += 1;
            peak = peak.max(s.core.queue.len());
            assert!(s.core.slots.len() <= peak, "after {events} events");
        }
        assert!(peak > 2, "the deadlines are queued as tombstones");
    }

    #[test]
    fn failed_node_drops_messages_and_timers() {
        let mut s = sim();
        let a = s.add_node(Echo::default());
        let b = s.add_node(Echo::default());
        s.fail_node(b);
        s.with_node(a, |_n, ctx| ctx.send(b, 5));
        s.run_to_quiescence();
        assert!(s.node(b).got.is_empty());
        assert_eq!(s.stats().dropped(), 1);
        assert_eq!(s.take_undeliverable(), vec![(a, b)]);
        assert!(s.take_undeliverable().is_empty());
    }

    #[test]
    fn in_flight_message_to_node_that_fails_is_dropped_at_delivery() {
        let mut s = sim();
        let a = s.add_node(Echo::default());
        let b = s.add_node(Echo::default());
        s.with_node(a, |_n, ctx| ctx.send(b, 0));
        s.fail_node(b); // fails after send but before delivery
        s.run_to_quiescence();
        assert!(s.node(b).got.is_empty());
    }

    #[test]
    fn recovered_node_receives_again() {
        let mut s = sim();
        let a = s.add_node(Echo::default());
        let b = s.add_node(Echo::default());
        s.fail_node(b);
        s.recover_node(b);
        s.with_node(a, |_n, ctx| ctx.send(b, 0));
        s.run_to_quiescence();
        assert_eq!(s.node(b).got.len(), 1);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut s = sim();
        let a = s.add_node(Echo::default());
        let b = s.add_node(Echo::default());
        s.with_node(a, |_n, ctx| ctx.send(b, 10)); // would run 110 ms
        s.run_for(SimDuration::from_micros(35_000));
        assert_eq!(s.now(), SimTime(35_000));
        assert_eq!(s.stats().total_messages(), 4); // 3 delivered+1 queued? sent: at 0,10,20,30
        assert!(!s.core.queue.is_empty());
        s.run_to_quiescence();
        assert_eq!(s.stats().total_messages(), 11);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let mut s: SimTransport<Echo> = SimTransport::new(crate::latency::Lan::emulab(), 99);
            let a = s.add_node(Echo::default());
            let b = s.add_node(Echo::default());
            s.with_node(a, |_n, ctx| ctx.send(b, 20));
            s.run_to_quiescence();
            (s.now(), s.stats().total_messages())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn self_send_is_delivered() {
        let mut s = sim();
        let a = s.add_node(Echo::default());
        s.with_node(a, |_n, ctx| ctx.send(a, 0));
        s.run_to_quiescence();
        assert_eq!(s.node(a).got, vec![(a, 0)]);
    }

    #[test]
    fn partition_cuts_both_directions_and_heal_restores() {
        let mut s = sim();
        let a = s.add_node(Echo::default());
        let b = s.add_node(Echo::default());
        s.faults_mut().partition(&[a], &[b]);
        assert!(s.core.faults.partitioned(a, b) && s.core.faults.partitioned(b, a));
        s.with_node(a, |_n, ctx| ctx.send(b, 0));
        s.with_node(b, |_n, ctx| ctx.send(a, 0));
        s.run_to_quiescence();
        assert!(s.node(a).got.is_empty());
        assert!(s.node(b).got.is_empty());
        assert_eq!(s.stats().counter("faults_dropped"), 2);
        // Partition loss is silent: no undeliverable notifications.
        assert!(s.take_undeliverable().is_empty());
        s.faults_mut().heal();
        s.with_node(a, |_n, ctx| ctx.send(b, 0));
        s.run_to_quiescence();
        assert_eq!(s.node(b).got.len(), 1);
    }

    #[test]
    fn link_drop_probability_loses_about_that_fraction() {
        let mut s = sim();
        let a = s.add_node(Echo::default());
        let b = s.add_node(Echo::default());
        s.faults_mut().set_link_drop(a, b, 0.5);
        for _ in 0..200 {
            s.with_node(a, |_n, ctx| ctx.send(b, 0));
        }
        s.run_to_quiescence();
        let got = s.node(b).got.len();
        assert!((60..=140).contains(&got), "half-lossy link delivered {got}");
        assert_eq!(s.stats().counter("faults_dropped") as usize, 200 - got);
        // The reverse direction is untouched.
        s.with_node(b, |_n, ctx| ctx.send(a, 0));
        s.run_to_quiescence();
        assert_eq!(s.node(a).got.len(), 1);
    }

    #[test]
    fn fault_free_runs_keep_their_exact_trace() {
        // Guard: an inactive FaultPlan must not disturb the RNG stream.
        let run = |touch_faults: bool| {
            let mut s: SimTransport<Echo> = SimTransport::new(crate::latency::Lan::emulab(), 5);
            let a = s.add_node(Echo::default());
            let b = s.add_node(Echo::default());
            if touch_faults {
                s.faults_mut().set_default_drop(0.0);
            }
            s.with_node(a, |_n, ctx| ctx.send(b, 10));
            s.run_to_quiescence();
            (s.now(), s.stats().total_messages())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn maintenance_timers_do_not_gate_quiescence() {
        #[derive(Debug, Default)]
        struct Renewer {
            fired: u32,
        }
        impl NetProtocol for Renewer {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut dyn NetCtx<u32>) {
                ctx.set_maintenance_timer(SimDuration::from_millis(10), 0);
            }
            fn on_message(&mut self, _ctx: &mut dyn NetCtx<u32>, _from: NodeId, _msg: u32) {}
            fn on_timer(&mut self, ctx: &mut dyn NetCtx<u32>, _tag: TimerTag) {
                // Standing periodic work: re-arms itself forever.
                self.fired += 1;
                ctx.set_maintenance_timer(SimDuration::from_millis(10), 0);
            }
        }
        let mut s: SimTransport<Renewer> = SimTransport::new(Constant::from_millis(1), 3);
        let a = s.add_node(Renewer::default());
        // Quiescence terminates immediately and fires nothing.
        let end = s.run_to_quiescence();
        assert_eq!(end, SimTime::ZERO);
        assert_eq!(s.node(a).fired, 0);
        // run_for fires the standing timer on schedule.
        s.run_for(SimDuration::from_millis(35));
        assert_eq!(s.node(a).fired, 3);
        // A quiescence drain in between leaves the schedule intact.
        s.run_to_quiescence();
        s.run_for(SimDuration::from_millis(10));
        assert_eq!(s.node(a).fired, 4);
    }

    #[test]
    fn custom_counters_accumulate() {
        let mut s = sim();
        let a = s.add_node(Echo::default());
        s.with_node(a, |_n, ctx| {
            ctx.count("probes");
            ctx.count("probes");
        });
        assert_eq!(s.stats().counter("probes"), 2);
        assert_eq!(s.stats().counter("absent"), 0);
    }

    /// Two echo nodes added through nothing but the `Transport` seam,
    /// as code generic over its host sees them.
    fn pair(t: &mut impl Transport<Echo>) -> (NodeId, NodeId) {
        (t.add_node(Echo::default()), t.add_node(Echo::default()))
    }

    #[test]
    fn hosts_netprotocol_on_the_simulator() {
        let mut t = sim();
        let (a, b) = pair(&mut t);
        t.with_node(a, |_n, ctx| ctx.send(b, 3));
        let end = t.run_to_quiescence();
        assert_eq!(t.stats().total_messages(), 4);
        assert_eq!(end, SimDuration::from_millis(40).as_time());
        assert_eq!(t.node(b).got, vec![(a, 3), (a, 1)]);
        assert_eq!(t.node(a).got, vec![(b, 2), (b, 0)]);
    }

    #[test]
    fn timers_and_failures_flow_through_the_trait() {
        let mut t = SimTransport::new(Constant::from_millis(1), 2);
        let (a, b) = pair(&mut t);
        let cancelled = t.with_node(a, |_n, ctx| {
            ctx.set_timer(SimDuration::from_millis(5), 1);
            ctx.set_timer(SimDuration::from_millis(6), 2)
        });
        t.with_node(a, |_n, ctx| ctx.cancel_timer(cancelled));
        t.fail_node(b);
        t.with_node(a, |_n, ctx| ctx.send(b, 9));
        t.run_to_quiescence();
        assert_eq!(t.node(a).timer_fired, 1);
        assert!(t.node(b).got.is_empty());
        assert!(!t.is_alive(b));
        assert_eq!(t.take_undeliverable(), vec![(a, b)]);
        t.recover_node(b);
        assert!(t.is_alive(b));
    }
}
