//! The peer plane: what daemons exchange ([`Member`], [`DaemonMsg`]) and
//! the node that speaks it ([`DaemonNode`]) — a `MoaraNode` and its SWIM
//! failure detector sharing one transport, each behind an [`Envelope`]
//! that puts its messages in their `DaemonMsg` variant.

use std::sync::Arc;
use std::time::Instant;

use moara_core::{MoaraMsg, MoaraNode};
use moara_membership::{SwimDetector, SwimMsg};
use moara_simnet::{Message, NodeId, SimDuration, SimTime, TimerId, TimerTag};
use moara_trace::{Phase, SpanRecord, SpanStore, TRACE_NS_SWIM};
use moara_transport::{NetCtx, NetProtocol};
use moara_wire::{Wire, WireError};

use crate::health::HealthSummary;
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

impl Wire for Member {
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.ring_id.encode(out);
        self.addr.encode(out);
        self.incarnation.encode(out);
        self.alive.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Member {
            node: Wire::decode(buf)?,
            ring_id: Wire::decode(buf)?,
            addr: Wire::decode(buf)?,
            incarnation: Wire::decode(buf)?,
            alive: Wire::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        4 + 8 + self.addr.encoded_len() + 8 + 1
    }
}

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
    /// Failure-detector traffic carrying the sender's health digest as
    /// a second piggyback — the zero-extra-messages dissemination layer
    /// of the cluster health plane. A separate tag (rather than an
    /// `Option` inside `Swim`) keeps plain SWIM frames byte-identical
    /// to pre-health builds.
    SwimHealth(SwimMsg, HealthSummary),
    /// Federation: one leaf read (`TraceFetch`, `MetricsFetch` or
    /// `HistoryFetch`) asked of a peer; the id pairs it with its answer.
    Ask(u64, CtrlRequest),
    /// Federation: the answer to the receiver's [`DaemonMsg::Ask`] of the
    /// same id.
    Told(u64, CtrlReply),
}

impl Wire for DaemonMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DaemonMsg::Moara(m) => {
                out.push(0);
                m.encode(out);
            }
            DaemonMsg::Membership(ms) => {
                out.push(1);
                ms.encode(out);
            }
            DaemonMsg::Swim(s) => {
                out.push(2);
                s.encode(out);
            }
            DaemonMsg::SwimHealth(s, h) => {
                out.push(3);
                s.encode(out);
                h.encode(out);
            }
            DaemonMsg::Ask(id, req) => {
                out.push(4);
                id.encode(out);
                req.encode(out);
            }
            DaemonMsg::Told(id, reply) => {
                out.push(5);
                id.encode(out);
                reply.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => DaemonMsg::Moara(Wire::decode(buf)?),
            1 => DaemonMsg::Membership(Wire::decode(buf)?),
            2 => DaemonMsg::Swim(Wire::decode(buf)?),
            3 => DaemonMsg::SwimHealth(Wire::decode(buf)?, Wire::decode(buf)?),
            4 => DaemonMsg::Ask(Wire::decode(buf)?, Wire::decode(buf)?),
            5 => DaemonMsg::Told(Wire::decode(buf)?, Wire::decode(buf)?),
            _ => return Err(WireError::Invalid("DaemonMsg tag")),
        })
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            DaemonMsg::Moara(m) => m.encoded_len(),
            DaemonMsg::Membership(ms) => ms.encoded_len(),
            DaemonMsg::Swim(s) => s.encoded_len(),
            DaemonMsg::SwimHealth(s, h) => s.encoded_len() + h.encoded_len(),
            DaemonMsg::Ask(_, req) => 8 + req.encoded_len(),
            DaemonMsg::Told(_, reply) => 8 + reply.encoded_len(),
        }
    }
}

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
/// [`DaemonMsg::Swim`] — or as [`DaemonMsg::SwimHealth`] while this
/// daemon has a health digest to gossip, riding the probe for free.
pub(crate) fn swim_ctx<'a>(
    inner: &'a mut dyn NetCtx<DaemonMsg>,
    digest: Option<&'a HealthSummary>,
) -> Envelope<'a, impl FnMut(SwimMsg) -> DaemonMsg + 'a> {
    let wrap = move |msg| match digest {
        Some(h) => DaemonMsg::SwimHealth(msg, h.clone()),
        None => DaemonMsg::Swim(msg),
    };
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
    /// This daemon's freshest health digest, attached to every outgoing
    /// SWIM message while set (`None` until the first sample, and
    /// always `None` in harnesses that opt out of health gossip — then
    /// the wire stays byte-identical to pre-health builds).
    pub health_digest: Option<HealthSummary>,
    /// Peer digests received since the event loop last drained them
    /// (bounded: drained every step, and refreshed in place per peer).
    pub pending_health: Vec<(u32, HealthSummary)>,
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
            health_digest: None,
            pending_health: Vec::new(),
            federation: Vec::new(),
        }
    }

    /// Queues a freshly gossiped peer digest for the event loop,
    /// replacing any queued older one from the same peer.
    fn intake_health(&mut self, from: u32, digest: HealthSummary) {
        match self.pending_health.iter_mut().find(|(n, _)| *n == from) {
            Some(slot) => slot.1 = digest,
            None => self.pending_health.push((from, digest)),
        }
    }
}

impl NetProtocol for DaemonNode {
    type Msg = DaemonMsg;

    fn on_start(&mut self, ctx: &mut dyn NetCtx<DaemonMsg>) {
        self.swim
            .start(&mut swim_ctx(ctx, self.health_digest.as_ref()));
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx<DaemonMsg>, from: NodeId, msg: DaemonMsg) {
        // A piggybacked health digest is peeled off for the event
        // loop's peer table before the detector sees the probe (the
        // detector itself is health-agnostic).
        let msg = match msg {
            DaemonMsg::SwimHealth(s, h) => {
                self.intake_health(from.0, h);
                DaemonMsg::Swim(s)
            }
            other => other,
        };
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
                self.swim
                    .on_message(&mut swim_ctx(ctx, self.health_digest.as_ref()), from, s);
            }
            DaemonMsg::SwimHealth(..) => unreachable!("unwrapped above"),
            msg @ (DaemonMsg::Ask(..) | DaemonMsg::Told(..)) => self.federation.push((from.0, msg)),
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx<DaemonMsg>, tag: TimerTag) {
        if self.swim.owns_tag(tag) {
            self.swim
                .on_timer(&mut swim_ctx(ctx, self.health_digest.as_ref()), tag);
        } else {
            self.moara.on_timer(&mut moara_ctx(ctx), tag);
        }
    }
}
