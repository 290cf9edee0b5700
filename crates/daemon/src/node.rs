//! The peer plane: what daemons exchange ([`Member`], [`DaemonMsg`]) and
//! the node that speaks it ([`DaemonNode`]) — a `MoaraNode` and its SWIM
//! failure detector sharing one transport, each behind an [`Envelope`]
//! that puts its messages in their `DaemonMsg` variant.

use std::sync::Arc;
use std::time::Instant;

use moara_core::{MoaraMsg, MoaraNode};
use moara_membership::{SwimDetector, SwimEvent, SwimMsg};
use moara_simnet::{Message, NodeId, SimDuration, SimTime, TimerId, TimerTag};
use moara_trace::{Phase, SpanRecord, SpanStore, TRACE_NS_SWIM};
use moara_transport::{NetCtx, NetProtocol};
use moara_wire::{wire_enum, wire_struct};

use crate::{CtrlReply, CtrlRequest};

/// One cluster member, as carried in membership lists.
///
/// Members are never *removed* from the list (the dense `NodeId` space
/// must stay gap-free so every daemon derives the same overlay); a
/// crashed member is instead marked `alive = false` and pruned from the
/// routing directory. A rejoin revives the entry under a higher
/// incarnation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Member {
    /// Dense transport-level id (assigned by the seed, in join order).
    pub node: u32,
    /// Ring id on the DHT (assigned by the seed, random).
    pub ring_id: u64,
    /// Peer-plane listen address (refreshed on rejoin).
    pub addr: String,
    /// The member's incarnation number — bumped by the seed on every
    /// rejoin and by the member itself to refute suspicion, so stale
    /// liveness claims lose deterministically.
    pub incarnation: u64,
    /// False once the member's failure was confirmed.
    pub alive: bool,
}

wire_struct!(Member: node, ring_id, addr, incarnation, alive);

/// What daemons exchange on the peer plane.
#[derive(Clone, Debug, PartialEq)]
pub enum DaemonMsg {
    /// An embedded Moara protocol message.
    Moara(MoaraMsg),
    /// Authoritative full member list (seed-broadcast on change and as
    /// periodic anti-entropy).
    Membership(Vec<Member>),
    /// Failure-detector traffic: pings, indirect probes, acks, each
    /// piggybacking membership gossip (see `moara-membership`).
    Swim(SwimMsg),
    /// Federation: one leaf read (`TraceFetch`, `MetricsFetch`,
    /// `HistoryFetch` or `HealthFetch`) asked of a peer; the id pairs it
    /// with its answer.
    Ask(u64, CtrlRequest),
    /// Federation: the answer to the receiver's [`DaemonMsg::Ask`] of the
    /// same id.
    Told(u64, CtrlReply),
}

// Tag 3 is not reused: an older peer's SWIM frame with a health digest
// must fail to decode, not read as another frame.
wire_enum!(DaemonMsg {
    0 => Moara(msg),
    1 => Membership(members),
    2 => Swim(msg),
    4 => Ask(id, req),
    5 => Told(id, reply),
});

impl Message for DaemonMsg {
    fn size_bytes(&self) -> usize {
        moara_wire::peer_framed_len(self)
    }

    fn query_tag(&self) -> Option<u64> {
        match self {
            DaemonMsg::Moara(m) => m.query_tag(),
            _ => None,
        }
    }
}

/// A `NetCtx<DaemonMsg>` seen by one of the node's two state machines as
/// a `NetCtx<M>`: each message it sends goes out in the envelope `wrap`
/// puts it in; timers, the clock and counters pass straight through.
pub(crate) struct Envelope<'a, F> {
    inner: &'a mut dyn NetCtx<DaemonMsg>,
    wrap: F,
}

impl<M, F: FnMut(M) -> DaemonMsg> NetCtx<M> for Envelope<'_, F> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn me(&self) -> NodeId {
        self.inner.me()
    }
    fn send(&mut self, to: NodeId, msg: M) {
        let msg = (self.wrap)(msg);
        self.inner.send(to, msg);
    }
    fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId {
        self.inner.set_timer(delay, tag)
    }
    fn set_maintenance_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId {
        self.inner.set_maintenance_timer(delay, tag)
    }
    fn cancel_timer(&mut self, id: TimerId) {
        self.inner.cancel_timer(id);
    }
    fn count(&mut self, name: &'static str) {
        self.inner.count(name);
    }
}

/// The engine's view of the peer plane: its messages travel as
/// [`DaemonMsg::Moara`].
pub(crate) fn moara_ctx(
    inner: &mut dyn NetCtx<DaemonMsg>,
) -> Envelope<'_, impl FnMut(MoaraMsg) -> DaemonMsg> {
    let wrap = DaemonMsg::Moara;
    Envelope { inner, wrap }
}

/// The failure detector's view of the peer plane: its messages travel as
/// [`DaemonMsg::Swim`].
pub(crate) fn swim_ctx(
    inner: &mut dyn NetCtx<DaemonMsg>,
) -> Envelope<'_, impl FnMut(SwimMsg) -> DaemonMsg> {
    let wrap = DaemonMsg::Swim;
    Envelope { inner, wrap }
}

/// The per-process protocol node: a `MoaraNode`, its failure detector,
/// and membership intake. The two state machines share the peer plane
/// (multiplexed by [`DaemonMsg`] variant) and the timer space (the
/// detector's tags carry [`moara_membership::SWIM_TAG_BASE`]).
pub struct DaemonNode {
    /// The wrapped protocol engine.
    pub moara: MoaraNode,
    /// The SWIM failure detector for this node.
    pub swim: SwimDetector,
    /// Last membership broadcast received, not yet applied (the daemon
    /// loop applies it — rebuilding the directory needs daemon state).
    pub pending_membership: Option<Vec<Member>>,
    /// This daemon's span store, when tracing is on (also wired into
    /// `moara`; held here so SWIM pings can record spans too).
    pub tracer: Option<Arc<SpanStore>>,
    /// SWIM-ping trace-id counter (namespaced under [`TRACE_NS_SWIM`]).
    swim_trace_ctr: u64,
    /// Arrival stamps of `SubDelta` frames not yet drained by the event
    /// loop — feeds the delta-lag histogram (receive → end of the step
    /// that folded it). Bounded: the loop drains it every step.
    pub pending_delta_stamps: Vec<Instant>,
    /// Federation frames ([`DaemonMsg::Ask`], [`DaemonMsg::Told`]) and
    /// their senders, for the event loop, which owns what they read and
    /// wait on (bounded: drained every step).
    pub(crate) federation: Vec<(u32, DaemonMsg)>,
}

impl DaemonNode {
    /// Couples a protocol engine with its failure detector.
    pub fn new(moara: MoaraNode, swim: SwimDetector) -> DaemonNode {
        DaemonNode {
            moara,
            swim,
            pending_membership: None,
            tracer: None,
            swim_trace_ctr: 0,
            pending_delta_stamps: Vec::new(),
            federation: Vec::new(),
        }
    }

    /// Acts on one failure-detector verdict against this node's member
    /// view `members`, the one reaction every host of the node shares. A
    /// confirmation prunes the peer from the overlay (ring repair), then
    /// tells the engine (`on_peer_failed` + `reconcile`); this node is
    /// never pruned. A revival merges the peer's incarnation and, if the
    /// host can reach it (`addressable`), puts it back and reconciles.
    /// Returns whether the member view changed.
    pub fn apply_verdict(
        &mut self,
        ctx: &mut dyn NetCtx<DaemonMsg>,
        members: &mut [Member],
        verdict: SwimEvent,
        addressable: impl FnOnce(NodeId) -> bool,
    ) -> bool {
        match verdict {
            SwimEvent::Suspected(_) => false,
            SwimEvent::Confirmed(peer) => {
                let live = members.iter_mut().find(|m| m.node == peer.0 && m.alive);
                let Some(m) = live.filter(|_| peer != ctx.me()) else {
                    return false;
                };
                m.alive = false;
                self.moara.directory().remove_member(peer);
                let ctx = &mut moara_ctx(ctx);
                self.moara.on_peer_failed(ctx, peer);
                self.moara.reconcile(ctx);
                true
            }
            SwimEvent::Revived { node, incarnation } => {
                let Some(m) = members.iter_mut().find(|m| m.node == node.0) else {
                    return false;
                };
                m.incarnation = m.incarnation.max(incarnation);
                if m.alive || !addressable(node) {
                    return false;
                }
                m.alive = true;
                self.moara.directory().revive_member(node);
                self.moara.reconcile(&mut moara_ctx(ctx));
                true
            }
        }
    }
}

impl NetProtocol for DaemonNode {
    type Msg = DaemonMsg;

    fn on_start(&mut self, ctx: &mut dyn NetCtx<DaemonMsg>) {
        self.swim.start(&mut swim_ctx(ctx));
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx<DaemonMsg>, from: NodeId, msg: DaemonMsg) {
        match msg {
            DaemonMsg::Moara(m) => {
                // Stamp SubDelta arrivals so the event loop can histogram
                // how long the frame sat before its fold finished (the
                // per-hop contribution to propagation lag). Capped so a
                // stalled loop cannot grow it without bound.
                if matches!(m, MoaraMsg::SubDelta { .. }) && self.pending_delta_stamps.len() < 4096
                {
                    self.pending_delta_stamps.push(Instant::now());
                }
                self.moara.on_message(&mut moara_ctx(ctx), from, m);
            }
            // Membership is seed-owned; broadcasts claiming another
            // sender are ignored. This is hygiene against confused
            // peers, not security: the sender id is self-declared (see
            // the trust-model note in moara-transport), so a hostile
            // process that can reach the listener can spoof it.
            DaemonMsg::Membership(ms) => {
                if from == NodeId(0) {
                    self.pending_membership = Some(ms);
                } else {
                    ctx.count("membership_from_non_seed");
                }
            }
            DaemonMsg::Swim(s) => {
                // Sampled SWIM pings land in the span store too, so the
                // failure detector's cadence shows up next to query
                // phases in `/v1/traces` and the phase histograms.
                if matches!(s, SwimMsg::Ping { .. }) {
                    if let Some(tr) = &self.tracer {
                        if tr.enabled() && tr.sample_root() {
                            self.swim_trace_ctr += 1;
                            let me = ctx.me().0;
                            let trace_id = TRACE_NS_SWIM
                                | (u64::from(me) << 32)
                                | (self.swim_trace_ctr & 0xffff_ffff);
                            tr.record(SpanRecord {
                                trace_id,
                                span_id: tr.next_span_id(me),
                                parent_span_id: 0,
                                node: me,
                                phase: Phase::SwimPing,
                                peer: from.0,
                                start_us: ctx.now().as_micros(),
                                queue_us: 0,
                                service_us: 0,
                                bytes: 0,
                                detail: String::new(),
                            });
                        }
                    }
                }
                self.swim.on_message(&mut swim_ctx(ctx), from, s);
            }
            msg @ (DaemonMsg::Ask(..) | DaemonMsg::Told(..)) => self.federation.push((from.0, msg)),
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx<DaemonMsg>, tag: TimerTag) {
        if self.swim.owns_tag(tag) {
            self.swim.on_timer(&mut swim_ctx(ctx), tag);
        } else {
            self.moara.on_timer(&mut moara_ctx(ctx), tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moara_core::{Directory, MoaraConfig};
    use moara_membership::SwimConfig;
    use moara_simnet::latency;
    use moara_transport::{SimTransport, Transport};

    use crate::membership::load_overlay;

    /// Three daemons' nodes on the simulator, and node 0's member view.
    fn three() -> (SimTransport<DaemonNode>, Vec<Member>) {
        let members: Vec<Member> = (0..3u32)
            .map(|i| Member {
                node: i,
                ring_id: u64::from(i + 1) << 60,
                addr: String::new(),
                incarnation: 0,
                alive: true,
            })
            .collect();
        let cfg = MoaraConfig::default();
        let mut t = SimTransport::new(latency::Constant::from_millis(1), 1);
        for i in 0..3u32 {
            let dir = Directory::from_members(&[], cfg.bits_per_digit);
            load_overlay(&dir, &members, cfg.bits_per_digit);
            let swim = SwimDetector::new(NodeId(i), SwimConfig::default(), u64::from(i));
            t.add_node(DaemonNode::new(MoaraNode::new(dir, cfg.clone()), swim));
        }
        (t, members)
    }

    /// Node 0 acts on `verdict`; every peer is `addressable` or none is.
    fn apply(
        t: &mut SimTransport<DaemonNode>,
        members: &mut [Member],
        verdict: SwimEvent,
        addressable: bool,
    ) -> bool {
        t.with_node(NodeId(0), |dn, ctx| {
            dn.apply_verdict(ctx, members, verdict, |_| addressable)
        })
    }

    /// Node 0's ring size and probe-cache epoch (each `reconcile` bumps it).
    fn seen(t: &SimTransport<DaemonNode>) -> (usize, u64) {
        let moara = &t.node(NodeId(0)).moara;
        (moara.directory().ring_size(), moara.probe_cache_epoch())
    }

    /// A `NetCtx<DaemonMsg>` that records which arm method each timer
    /// came through.
    #[derive(Default)]
    struct ArmSpy {
        arms: Vec<(&'static str, TimerTag)>,
    }

    impl NetCtx<DaemonMsg> for ArmSpy {
        fn now(&self) -> SimTime {
            SimTime(0)
        }
        fn me(&self) -> NodeId {
            NodeId(0)
        }
        fn send(&mut self, _to: NodeId, _msg: DaemonMsg) {}
        fn set_timer(&mut self, _delay: SimDuration, tag: TimerTag) -> TimerId {
            self.arms.push(("plain", tag));
            TimerId::from_raw(tag)
        }
        fn set_maintenance_timer(&mut self, _delay: SimDuration, tag: TimerTag) -> TimerId {
            self.arms.push(("maintenance", tag));
            TimerId::from_raw(tag)
        }
        fn cancel_timer(&mut self, _id: TimerId) {}
        fn count(&mut self, _name: &'static str) {}
    }

    #[test]
    fn envelopes_keep_maintenance_timers_maintenance() {
        let mut spy = ArmSpy::default();
        let d = SimDuration::from_millis(5);
        moara_ctx(&mut spy).set_maintenance_timer(d, 1);
        moara_ctx(&mut spy).set_timer(d, 2);
        swim_ctx(&mut spy).set_maintenance_timer(d, 3);
        swim_ctx(&mut spy).set_timer(d, 4);
        assert_eq!(
            spy.arms,
            vec![
                ("maintenance", 1),
                ("plain", 2),
                ("maintenance", 3),
                ("plain", 4)
            ]
        );
    }

    const CONFIRMED: SwimEvent = SwimEvent::Confirmed(NodeId(2));
    const REVIVED: SwimEvent = SwimEvent::Revived {
        node: NodeId(2),
        incarnation: 4,
    };

    #[test]
    fn a_second_confirmation_is_a_no_op() {
        let (mut t, mut members) = three();
        let (_, epoch) = seen(&t);
        assert!(apply(&mut t, &mut members, CONFIRMED, true));
        assert!(!members[2].alive);
        let pruned = seen(&t);
        assert_eq!(pruned.0, 2, "off the ring");
        assert!(pruned.1 > epoch, "reconciled");
        assert!(!apply(&mut t, &mut members, CONFIRMED, true));
        assert_eq!(seen(&t), pruned);
    }

    #[test]
    fn a_confirmation_of_itself_is_ignored() {
        let (mut t, mut members) = three();
        let before = seen(&t);
        let me = SwimEvent::Confirmed(NodeId(0));
        assert!(!apply(&mut t, &mut members, me, true));
        assert!(members[0].alive);
        assert_eq!(seen(&t), before);
    }

    #[test]
    fn an_unaddressable_revival_only_merges_the_incarnation() {
        let (mut t, mut members) = three();
        apply(&mut t, &mut members, CONFIRMED, true);
        let pruned = seen(&t);
        assert!(!apply(&mut t, &mut members, REVIVED, false));
        assert_eq!(members[2].incarnation, 4);
        assert!(!members[2].alive);
        assert_eq!(seen(&t), pruned, "still off the ring, nothing reconciled");
    }

    #[test]
    fn an_addressable_revival_puts_the_peer_back_and_reconciles() {
        let (mut t, mut members) = three();
        apply(&mut t, &mut members, CONFIRMED, true);
        let (_, epoch) = seen(&t);
        assert!(apply(&mut t, &mut members, REVIVED, true));
        assert!(members[2].alive);
        assert_eq!(members[2].incarnation, 4);
        let (ring, after) = seen(&t);
        assert_eq!(ring, 3);
        assert!(after > epoch, "reconciled");
    }
}
