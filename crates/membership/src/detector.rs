//! The SWIM-style failure-detector state machine.
//!
//! Written purely against the `moara-transport` seam (`NetCtx<SwimMsg>`),
//! so the *same* machine runs deterministically under `SimTransport`
//! (virtual time, seeded randomness) and in real time under
//! `TcpTransport`. Hosts embed one detector per node, route
//! [`SwimMsg`]s to [`SwimDetector::on_message`], forward timer tags it
//! [`owns`](SwimDetector::owns_tag) to [`SwimDetector::on_timer`], and
//! drain [`SwimEvent`]s to act on confirmed failures and revivals.
//!
//! ## Protocol period
//!
//! Every `period`, the detector resolves the previous probe (no ack by
//! now ⇒ the target becomes *suspect*), expires suspicions older than
//! `suspect_periods × period` into *confirmed* failures, and probes the
//! next peer in a shuffled round-robin. `ping_timeout` after a direct
//! ping with no ack, the probe goes indirect: `ping_req_fanout` random
//! peers are asked to ping the target with us as the ack's return
//! address, so one asymmetric link does not condemn a healthy peer.
//!
//! ## Incarnations and refutation
//!
//! Every claim about a node is stamped with that node's *incarnation
//! number*, which only the node itself increments. A node that learns it
//! is suspected (or declared dead) re-announces itself alive under a
//! higher incarnation; the precedence rules in `SwimDetector::apply_update`
//! make the refutation win everywhere it propagates. Crash-recovery uses
//! the same mechanism: a restarted node re-enters with an incarnation
//! above its confirmed-dead one.

use std::collections::{BTreeMap, HashMap, VecDeque};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use moara_simnet::{NodeId, SimDuration, SimTime, TimerTag};
use moara_transport::NetCtx;

use crate::msg::{PeerState, SwimMsg, Update};

/// Timer tags with this bit set belong to the failure detector; hosts
/// embedding a detector next to another protocol (which allocates tags
/// from 0 upward) use it to dispatch `on_timer` calls.
pub const SWIM_TAG_BASE: TimerTag = 1 << 63;

/// Failure-detector tuning.
#[derive(Clone, Debug)]
pub struct SwimConfig {
    /// Protocol period: one probe per period, suspicion resolution on
    /// period boundaries.
    pub period: SimDuration,
    /// How long after a direct ping the probe turns indirect (must be
    /// well below `period` so the indirect acks can still arrive in time).
    pub ping_timeout: SimDuration,
    /// How many relays an indirect probe asks.
    pub ping_req_fanout: usize,
    /// Suspicions older than this many periods become confirmed failures.
    pub suspect_periods: u32,
    /// Maximum piggybacked updates per message (the sender's own alive
    /// claim rides along for free on top).
    pub gossip_max: usize,
    /// Each queued update is piggybacked on
    /// `retransmit_factor × ⌈log₂(n + 1)⌉` outgoing messages, n =
    /// max(1, peers) (at least one), before it is dropped from the
    /// dissemination queue.
    pub retransmit_factor: u32,
}

impl Default for SwimConfig {
    fn default() -> SwimConfig {
        let period = SimDuration::from_millis(1000);
        SwimConfig {
            period,
            ping_timeout: probe_window(period),
            ping_req_fanout: 2,
            suspect_periods: 3,
            gossip_max: 8,
            retransmit_factor: 4,
        }
    }
}

/// The direct-probe window for a protocol period: 3/10 of it, so the
/// indirect probes still have most of the period to answer in.
fn probe_window(period: SimDuration) -> SimDuration {
    SimDuration(period.0 / 10 * 3)
}

impl SwimConfig {
    /// Sets the protocol period; the direct-probe window scales with it.
    pub fn set_period(&mut self, period: SimDuration) {
        self.period = period;
        self.ping_timeout = probe_window(period);
    }

    /// An aggressive configuration for tests: 100 ms periods, one-second
    /// end-to-end confirmation.
    pub fn fast() -> SwimConfig {
        SwimConfig {
            period: SimDuration::from_millis(100),
            ping_timeout: SimDuration::from_millis(40),
            ..SwimConfig::default()
        }
    }
}

/// What the detector currently believes about one peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerView {
    /// The peer's highest known incarnation.
    pub incarnation: u64,
    /// Current liveness state.
    pub state: PeerState,
    /// When the state was last entered (drives suspicion expiry).
    pub since: SimTime,
}

/// A state change the host must act on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwimEvent {
    /// A peer failed a probe round (informational; refutable).
    Suspected(NodeId),
    /// A peer's failure was confirmed — repair overlays, drop routes.
    Confirmed(NodeId),
    /// A previously suspected/confirmed peer re-announced itself alive
    /// under a higher incarnation — reintegrate it.
    Revived {
        /// The peer that came back.
        node: NodeId,
        /// Its new incarnation.
        incarnation: u64,
    },
}

enum TimerEvent {
    Tick,
    AckTimeout { seq: u64, target: NodeId },
}

/// One node's failure detector.
pub struct SwimDetector {
    me: NodeId,
    cfg: SwimConfig,
    incarnation: u64,
    peers: BTreeMap<NodeId, PeerView>,
    /// Shuffled probe order; rebuilt when exhausted or membership changes.
    probe_order: Vec<NodeId>,
    /// Probe awaiting an ack: (seq, target).
    outstanding: Option<(u64, NodeId)>,
    next_seq: u64,
    next_tag: u64,
    timers: HashMap<TimerTag, TimerEvent>,
    /// Dissemination queue: updates still owed piggyback slots.
    gossip: VecDeque<(Update, u32)>,
    events: Vec<SwimEvent>,
    rng: StdRng,
}

impl SwimDetector {
    /// A detector for node `me`. The seed fixes probe order and relay
    /// choice (deterministic under the simulator).
    pub fn new(me: NodeId, cfg: SwimConfig, seed: u64) -> SwimDetector {
        SwimDetector {
            me,
            cfg,
            incarnation: 0,
            peers: BTreeMap::new(),
            probe_order: Vec::new(),
            outstanding: None,
            next_seq: 0,
            next_tag: 0,
            timers: HashMap::new(),
            gossip: VecDeque::new(),
            events: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// This node's current incarnation number.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Adopts an externally assigned incarnation (crash-recovery: the
    /// rejoin handshake hands the restarted node one above its
    /// confirmed-dead incarnation) and queues the alive announcement.
    pub fn set_incarnation(&mut self, incarnation: u64) {
        self.incarnation = self.incarnation.max(incarnation);
        self.gossip_push(Update {
            node: self.me,
            incarnation: self.incarnation,
            state: PeerState::Alive,
        });
    }

    /// The detector's current belief about every known peer.
    pub fn peers(&self) -> impl Iterator<Item = (NodeId, &PeerView)> {
        self.peers.iter().map(|(&n, v)| (n, v))
    }

    /// The view of one peer, if known.
    pub fn peer(&self, node: NodeId) -> Option<&PeerView> {
        self.peers.get(&node)
    }

    /// How many peers this detector currently believes alive, suspects,
    /// and has confirmed dead, in that order (the `/metrics` liveness
    /// gauges; excludes this node itself).
    pub fn state_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for (_, p) in self.peers() {
            match p.state {
                PeerState::Alive => counts.0 += 1,
                PeerState::Suspect => counts.1 += 1,
                PeerState::Dead => counts.2 += 1,
            }
        }
        counts
    }

    /// Peers currently confirmed dead.
    pub fn confirmed_dead(&self) -> Vec<NodeId> {
        self.peers
            .iter()
            .filter(|(_, v)| v.state == PeerState::Dead)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Installs or reconciles one peer from an authoritative membership
    /// list (no events are emitted — the caller already knows). Claims
    /// about this node itself adjust the local incarnation instead: a
    /// list that believes us dead is refuted by jumping above it.
    pub fn sync_peer(&mut self, node: NodeId, incarnation: u64, alive: bool, now: SimTime) {
        if node == self.me {
            if !alive && incarnation >= self.incarnation {
                self.incarnation = incarnation + 1;
                self.announce_alive();
            } else {
                self.incarnation = self.incarnation.max(incarnation);
            }
            return;
        }
        let state = if alive {
            PeerState::Alive
        } else {
            PeerState::Dead
        };
        match self.peers.get_mut(&node) {
            None => {
                self.peers.insert(
                    node,
                    PeerView {
                        incarnation,
                        state,
                        since: now,
                    },
                );
                self.probe_order.clear();
            }
            Some(p) => {
                // Same precedence as gossip: revival needs a strictly
                // higher incarnation; death claims win at equal ones.
                let wins = match (state, p.state) {
                    (PeerState::Alive, PeerState::Alive) => incarnation > p.incarnation,
                    (PeerState::Alive, _) => incarnation > p.incarnation,
                    (PeerState::Dead, PeerState::Dead) => incarnation > p.incarnation,
                    (PeerState::Dead, _) => incarnation >= p.incarnation,
                    (PeerState::Suspect, _) => false, // lists carry no suspicion
                };
                if wins {
                    *p = PeerView {
                        incarnation,
                        state,
                        since: now,
                    };
                    self.probe_order.clear();
                }
            }
        }
    }

    /// Forgets a peer entirely (it left the membership).
    pub fn remove_peer(&mut self, node: NodeId) {
        self.peers.remove(&node);
        self.probe_order.clear();
    }

    /// Discards probe-round transients after a crash-restart: the
    /// pending probe, timer bookkeeping, and suspicion clocks must not
    /// survive the downtime gap — a suspicion that "aged" while the node
    /// was dead would otherwise confirm a healthy peer on the very first
    /// tick back. Suspects revert to alive (they were alive per our last
    /// live evidence); confirmed-dead entries are kept and re-verified
    /// by the dead-peer probe dance. Call before re-arming via
    /// [`SwimDetector::start`].
    pub fn reset_transients(&mut self, now: SimTime) {
        self.outstanding = None;
        self.timers.clear();
        self.probe_order.clear();
        for p in self.peers.values_mut() {
            if p.state == PeerState::Suspect {
                p.state = PeerState::Alive;
            }
            p.since = now;
        }
    }

    /// Queues this node's alive claim (current incarnation) for gossip.
    pub fn announce_alive(&mut self) {
        self.gossip_push(Update {
            node: self.me,
            incarnation: self.incarnation,
            state: PeerState::Alive,
        });
    }

    /// Drains the pending host-visible events.
    pub fn take_events(&mut self) -> Vec<SwimEvent> {
        std::mem::take(&mut self.events)
    }

    /// Whether `tag` belongs to this detector's timer space.
    pub fn owns_tag(&self, tag: TimerTag) -> bool {
        tag & SWIM_TAG_BASE != 0
    }

    fn alloc_timer(&mut self, ev: TimerEvent) -> TimerTag {
        let tag = SWIM_TAG_BASE | self.next_tag;
        self.next_tag += 1;
        self.timers.insert(tag, ev);
        tag
    }

    /// Arms the protocol-period tick. Call once when the node starts;
    /// the first tick is staggered randomly within one period so a
    /// simultaneously booted cluster does not probe in lockstep.
    pub fn start(&mut self, ctx: &mut dyn NetCtx<SwimMsg>) {
        let stagger = self.rng.gen_range(0..self.cfg.period.as_micros().max(1));
        let tag = self.alloc_timer(TimerEvent::Tick);
        ctx.set_timer(SimDuration::from_micros(stagger), tag);
    }

    /// Handles a detector timer. Returns false when the tag is unknown
    /// (e.g. already superseded), which the host may ignore.
    pub fn on_timer(&mut self, ctx: &mut dyn NetCtx<SwimMsg>, tag: TimerTag) -> bool {
        match self.timers.remove(&tag) {
            Some(TimerEvent::Tick) => {
                self.tick(ctx);
                true
            }
            Some(TimerEvent::AckTimeout { seq, target }) => {
                if self.outstanding == Some((seq, target)) {
                    self.indirect_probe(ctx, seq, target);
                }
                true
            }
            None => false,
        }
    }

    /// One protocol period: resolve the last probe, expire suspicions,
    /// probe the next peer, re-arm.
    fn tick(&mut self, ctx: &mut dyn NetCtx<SwimMsg>) {
        let now = ctx.now();
        // 1. The previous period's probe got no ack (direct or indirect):
        //    the target becomes suspect.
        if let Some((_, target)) = self.outstanding.take() {
            self.suspect(ctx, target, now);
        }
        // 2. Expire suspicions into confirmed failures.
        let deadline = SimDuration::from_micros(
            self.cfg
                .period
                .as_micros()
                .saturating_mul(u64::from(self.cfg.suspect_periods)),
        );
        let expired: Vec<NodeId> = self
            .peers
            .iter()
            .filter(|(_, v)| {
                v.state == PeerState::Suspect && now.duration_since(v.since) >= deadline
            })
            .map(|(&n, _)| n)
            .collect();
        for n in expired {
            self.confirm(ctx, n, now);
        }
        // 3. Probe the next peer in the shuffled round-robin.
        if let Some(target) = self.next_probe_target() {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.outstanding = Some((seq, target));
            let updates = self.gossip_take();
            ctx.send(
                target,
                SwimMsg::Ping {
                    seq,
                    reply_to: self.me,
                    updates,
                },
            );
            ctx.count("swim_pings");
            let tag = self.alloc_timer(TimerEvent::AckTimeout { seq, target });
            ctx.set_timer(self.cfg.ping_timeout, tag);
        }
        // 4. Next period.
        let tag = self.alloc_timer(TimerEvent::Tick);
        ctx.set_timer(self.cfg.period, tag);
    }

    /// Picks the next probe target: round-robin over a shuffled list of
    /// non-dead peers, reshuffled when exhausted.
    fn next_probe_target(&mut self) -> Option<NodeId> {
        loop {
            match self.probe_order.pop() {
                Some(n) => {
                    // Entries scheduled at rebuild are probed even if the
                    // peer has since been confirmed dead (that probe is
                    // the false-confirmation escape hatch); only peers
                    // that left the membership entirely are skipped.
                    if self.peers.contains_key(&n) {
                        return Some(n);
                    }
                }
                None => {
                    let mut order: Vec<NodeId> = self
                        .peers
                        .iter()
                        .filter(|(_, v)| v.state != PeerState::Dead)
                        .map(|(&n, _)| n)
                        .collect();
                    // Keep one randomly chosen confirmed-dead peer per
                    // round-robin cycle: a false confirmation (e.g. a
                    // healed partition) is discovered by the ping/refute
                    // dance instead of persisting forever. When *every*
                    // peer is believed dead (we were the isolated side),
                    // this is also what keeps the detector talking.
                    let dead: Vec<NodeId> = self
                        .peers
                        .iter()
                        .filter(|(_, v)| v.state == PeerState::Dead)
                        .map(|(&n, _)| n)
                        .collect();
                    if !dead.is_empty() {
                        order.push(dead[self.rng.gen_range(0..dead.len())]);
                    }
                    if order.is_empty() {
                        return None;
                    }
                    order.shuffle(&mut self.rng);
                    self.probe_order = order;
                }
            }
        }
    }

    /// Escalates an unanswered direct ping: ask `ping_req_fanout` random
    /// other peers to probe the target on our behalf.
    fn indirect_probe(&mut self, ctx: &mut dyn NetCtx<SwimMsg>, seq: u64, target: NodeId) {
        let mut relays: Vec<NodeId> = self
            .peers
            .iter()
            .filter(|(&n, v)| n != target && v.state == PeerState::Alive)
            .map(|(&n, _)| n)
            .collect();
        relays.shuffle(&mut self.rng);
        relays.truncate(self.cfg.ping_req_fanout);
        for relay in relays {
            let updates = self.gossip_take();
            ctx.send(
                relay,
                SwimMsg::PingReq {
                    seq,
                    target,
                    updates,
                },
            );
            ctx.count("swim_ping_reqs");
        }
    }

    /// Handles an incoming detector message.
    pub fn on_message(&mut self, ctx: &mut dyn NetCtx<SwimMsg>, from: NodeId, msg: SwimMsg) {
        let now = ctx.now();
        // Any direct message is first-hand evidence about the sender:
        // clear a local suspicion without waiting for the gossip round,
        // and tell a confirmed-dead sender what we think of it — our
        // `Dead{inc}` claim rides back on the reply, the "dead" peer
        // refutes it with a higher incarnation, and both sides of a
        // healed partition converge back to alive (see the rejoin notes
        // in `docs/membership.md`).
        if let Some(p) = self.peers.get_mut(&from) {
            match p.state {
                PeerState::Suspect => {
                    p.state = PeerState::Alive;
                    p.since = now;
                }
                PeerState::Dead => {
                    let inc = p.incarnation;
                    self.gossip_push(Update {
                        node: from,
                        incarnation: inc,
                        state: PeerState::Dead,
                    });
                }
                PeerState::Alive => {}
            }
        }
        for u in msg.updates().to_vec() {
            self.apply_update(u, now);
        }
        match msg {
            SwimMsg::Ping { seq, reply_to, .. } => {
                let updates = self.gossip_take();
                ctx.send(reply_to, SwimMsg::Ack { seq, updates });
            }
            SwimMsg::Ack { seq, .. } => {
                if let Some((want, target)) = self.outstanding {
                    if want == seq {
                        self.outstanding = None;
                        // The ack's piggybacked self-claim normally clears
                        // any suspicion; make it unconditional.
                        if let Some(p) = self.peers.get_mut(&target) {
                            if p.state == PeerState::Suspect {
                                p.state = PeerState::Alive;
                                p.since = now;
                            }
                        }
                    }
                }
            }
            SwimMsg::PingReq { seq, target, .. } => {
                let updates = self.gossip_take();
                ctx.send(
                    target,
                    SwimMsg::Ping {
                        seq,
                        reply_to: from,
                        updates,
                    },
                );
            }
        }
    }

    /// Applies one gossiped claim under SWIM's precedence rules.
    fn apply_update(&mut self, u: Update, now: SimTime) {
        if u.node == self.me {
            // A claim that we are suspect/dead at our current (or a
            // later) incarnation: refute by jumping above it.
            if u.state != PeerState::Alive && u.incarnation >= self.incarnation {
                self.incarnation = u.incarnation + 1;
                self.announce_alive();
            }
            return;
        }
        let Some(p) = self.peers.get_mut(&u.node) else {
            // Unknown subject: membership is host-managed; liveness gossip
            // about nodes we were never told about is dropped.
            return;
        };
        match u.state {
            PeerState::Alive => {
                if u.incarnation > p.incarnation {
                    let was_dead = p.state == PeerState::Dead;
                    let was_down = p.state != PeerState::Alive;
                    *p = PeerView {
                        incarnation: u.incarnation,
                        state: PeerState::Alive,
                        since: now,
                    };
                    if was_dead {
                        self.events.push(SwimEvent::Revived {
                            node: u.node,
                            incarnation: u.incarnation,
                        });
                        self.probe_order.clear();
                    }
                    if was_down {
                        self.gossip_push(u);
                    }
                }
            }
            PeerState::Suspect => {
                let wins = match p.state {
                    PeerState::Alive => u.incarnation >= p.incarnation,
                    PeerState::Suspect => u.incarnation > p.incarnation,
                    PeerState::Dead => false,
                };
                if wins {
                    let was_alive = p.state == PeerState::Alive;
                    p.incarnation = u.incarnation;
                    if was_alive {
                        p.state = PeerState::Suspect;
                        p.since = now;
                        self.events.push(SwimEvent::Suspected(u.node));
                        self.gossip_push(u);
                    }
                }
            }
            PeerState::Dead => {
                if p.state != PeerState::Dead && u.incarnation >= p.incarnation {
                    *p = PeerView {
                        incarnation: u.incarnation,
                        state: PeerState::Dead,
                        since: now,
                    };
                    self.events.push(SwimEvent::Confirmed(u.node));
                    self.gossip_push(u);
                }
            }
        }
    }

    /// Locally suspects `target` (probe round failed).
    fn suspect(&mut self, ctx: &mut dyn NetCtx<SwimMsg>, target: NodeId, now: SimTime) {
        let Some(p) = self.peers.get_mut(&target) else {
            return;
        };
        if p.state != PeerState::Alive {
            return;
        }
        p.state = PeerState::Suspect;
        p.since = now;
        let inc = p.incarnation;
        self.events.push(SwimEvent::Suspected(target));
        self.gossip_push(Update {
            node: target,
            incarnation: inc,
            state: PeerState::Suspect,
        });
        ctx.count("swim_suspected");
    }

    /// Confirms a suspicion as a failure.
    fn confirm(&mut self, ctx: &mut dyn NetCtx<SwimMsg>, target: NodeId, now: SimTime) {
        let Some(p) = self.peers.get_mut(&target) else {
            return;
        };
        p.state = PeerState::Dead;
        p.since = now;
        let inc = p.incarnation;
        self.events.push(SwimEvent::Confirmed(target));
        self.gossip_push(Update {
            node: target,
            incarnation: inc,
            state: PeerState::Dead,
        });
        ctx.count("swim_confirmed");
    }

    /// Queues an update for piggybacked dissemination (replacing any
    /// queued claim about the same subject — the newest claim is the one
    /// worth spreading).
    fn gossip_push(&mut self, u: Update) {
        self.gossip.retain(|(q, _)| q.node != u.node);
        let budget = retransmit_budget(self.cfg.retransmit_factor, self.peers.len());
        self.gossip.push_back((u, budget));
    }

    /// Takes up to `gossip_max` queued updates for one outgoing message
    /// (decrementing their remaining budgets) and prepends this node's
    /// own alive claim.
    fn gossip_take(&mut self) -> Vec<Update> {
        let n = self.gossip.len().min(self.cfg.gossip_max);
        let mut out = Vec::with_capacity(n + 1);
        out.push(Update {
            node: self.me,
            incarnation: self.incarnation,
            state: PeerState::Alive,
        });
        for _ in 0..n {
            let (u, budget) = self.gossip.pop_front().expect("len checked");
            out.push(u.clone());
            if budget > 1 {
                self.gossip.push_back((u, budget - 1));
            }
        }
        out
    }
}

/// How many outgoing messages carry one queued update:
/// `factor × ⌈log₂(n + 1)⌉`, n = max(1, peers), and at least one. In
/// integers, ⌈log₂(n + 1)⌉ is the exponent of the least power of two at
/// or above n + 1, so the daemon calls no float math (and links no
/// libm).
fn retransmit_budget(factor: u32, peers: usize) -> u32 {
    let rounds = (peers.max(1) + 1).next_power_of_two().trailing_zeros();
    factor.saturating_mul(rounds).max(1)
}

impl std::fmt::Debug for SwimDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwimDetector")
            .field("me", &self.me)
            .field("incarnation", &self.incarnation)
            .field("peers", &self.peers)
            .field("outstanding", &self.outstanding)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::retransmit_budget;

    /// The integer budget is the float formula it replaced, for every
    /// factor up to 8 and every peer count up to 2^20.
    #[test]
    fn the_budget_is_the_float_formula() {
        for factor in 0..=8u32 {
            for peers in 0..=1usize << 20 {
                let n = peers.max(1) as f64;
                let float = (factor as f64 * (n + 1.0).log2().ceil()).max(1.0) as u32;
                assert_eq!(
                    retransmit_budget(factor, peers),
                    float,
                    "{factor} × {peers}"
                );
            }
        }
    }
}
