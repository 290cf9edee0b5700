//! Moara's wire messages.

use std::sync::Arc;

use moara_aggregation::AggState;
use moara_dht::Id;
use moara_query::Query;
use moara_simnet::{Message, NodeId};
use moara_subscribe::{SubId, SubSpec};
use moara_trace::TraceCtx;
use moara_wire::{Sink, Wire, WireError};

/// Identifies one end-to-end query issued by a front-end: (origin node,
/// per-origin counter). Used for duplicate answer suppression when a node
/// sits in several trees of the same cover (paper Section 6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId {
    /// The front-end node that issued the query.
    pub origin: NodeId,
    /// Its per-origin sequence number.
    pub n: u64,
}

/// Canonical key of a simple predicate ("CPU-Util<50"), or `*` for the
/// global (whole-system) tree, which keeps no pruning state. Shared, so
/// the copy in every message of a fan-out and in every session and timer
/// is a reference count, not a string.
pub type PredKey = Arc<str>;

/// The predicate key designating the global tree.
pub const GLOBAL_PRED: &str = "*";

/// A wire message of the Moara protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum MoaraMsg {
    /// Overlay routing envelope: forwarded hop-by-hop toward the owner of
    /// `key`, which then handles `inner`. This is how sub-queries and size
    /// probes reach tree roots.
    Route {
        /// Routing destination key (hashed group attribute).
        key: Id,
        /// The payload delivered at the root.
        inner: Box<MoaraMsg>,
    },
    /// A query traveling down an aggregation tree (or across the separate
    /// query plane).
    QueryDown {
        /// End-to-end query id (for duplicate suppression).
        qid: QueryId,
        /// Root-assigned per-tree sequence number (0 until root assigns).
        seq: u64,
        /// Which tree this sub-query runs on.
        pred_key: PredKey,
        /// The tree's routing key.
        tree: Id,
        /// The full query (nodes evaluate the *entire* composite
        /// predicate, per Section 7.2).
        query: Query,
        /// Where the receiver should send its aggregated reply.
        reply_to: NodeId,
        /// Tracing context: the sender-side span that forwarded this
        /// sub-query (absent when the query is unsampled).
        trace: Option<TraceCtx>,
    },
    /// A (partial) aggregate flowing back up.
    QueryReply {
        /// Matching query id.
        qid: QueryId,
        /// Matching tree.
        pred_key: PredKey,
        /// Merged partial aggregate of the replier's region.
        state: AggState,
        /// The replier's current NO-PRUNE subtree count (lazy cost info,
        /// piggybacked per Section 6.3).
        np: u64,
        /// False if some branch timed out or failed below the replier.
        complete: bool,
        /// Tracing context: the replier's fold span.
        trace: Option<TraceCtx>,
    },
    /// PRUNE / NO-PRUNE status update to a tree parent (Sections 4 and 5).
    Status {
        /// Which predicate tree this concerns.
        pred_key: PredKey,
        /// The predicate definition (a new parent may not know it yet).
        pred: moara_query::SimplePredicate,
        /// True = PRUNE (empty `update_set`), false = NO-PRUNE.
        prune: bool,
        /// The sender's updateSet (separate query plane, Section 5).
        update_set: Vec<NodeId>,
        /// The sender's NO-PRUNE subtree count (lazy cost aggregation).
        np: u64,
        /// The sender's last-seen query sequence number (lets bypassed
        /// ancestors account missed queries, Section 5).
        last_seq: u64,
    },
    /// Front-end request for a tree's current query-cost estimate.
    SizeProbe {
        /// The query on whose behalf the probe was issued (per-query
        /// message accounting; a cached/coalesced reply may end up
        /// serving other queries too).
        qid: QueryId,
        /// Predicate tree being probed.
        pred_key: PredKey,
        /// Who to answer.
        reply_to: NodeId,
        /// Tracing context: the front-end's probe span.
        trace: Option<TraceCtx>,
    },
    /// Root's answer to a [`MoaraMsg::SizeProbe`].
    SizeReply {
        /// Echo of the probe's query id.
        qid: QueryId,
        /// Probed predicate tree.
        pred_key: PredKey,
        /// Estimated messages to query this tree once (`2 × np`).
        cost: u64,
        /// Tracing context: the root's probe-answer span.
        trace: Option<TraceCtx>,
    },
    /// Several messages coalesced into one frame because they leave the
    /// same node toward the same next hop (the scheduler's batched
    /// fan-out: sub-queries and probes of one composite query often share
    /// overlay path prefixes). Each item is processed as if it had
    /// arrived alone; `Route` items are re-grouped — and re-batched — at
    /// every hop.
    Batch {
        /// The coalesced messages, in send order.
        items: Vec<MoaraMsg>,
    },
    /// Installs (or idempotently re-installs) a standing subscription on
    /// one tree of its pinned cover. Travels `Route`d from the front-end
    /// to the tree root, then down the tree like a query; every hop pins
    /// a `SubEntry`, re-homes its delta push target to the sender, and
    /// forwards the install to its own targets. Re-sent on renewal after
    /// churn and during repair — receivers treat it as an upsert.
    Subscribe {
        /// The full install payload (query, policy, lease, cover).
        spec: SubSpec,
        /// Which tree of the cover this install is for.
        pred_key: PredKey,
        /// The tree's routing key.
        tree: Id,
        /// Root-assigned per-tree sequence number (0 until stamped).
        /// Installs count as queries for the Section 4 adaptation
        /// machinery, so the tree prunes around the standing query and
        /// later installs/renewals touch only the group.
        seq: u64,
    },
    /// A replacement delta: the sender's subtree now aggregates to
    /// `state` on this subscription's tree. Flows one hop upward (or
    /// root → front-end); sent only when the sender's merge changed.
    SubDelta {
        /// The subscription.
        sid: SubId,
        /// Which tree of the cover.
        pred_key: PredKey,
        /// Per-sender monotone sequence number (stale frames drop).
        seq: u64,
        /// The sender's new subtree partial aggregate.
        state: AggState,
        /// Tracing context: the sender's push span (a fresh trace at the
        /// delta's origin, continued hop by hop toward the front-end).
        trace: Option<TraceCtx>,
    },
    /// Lease renewal, traveling the same path as the install. Carries the
    /// forwarding hop's highest-seen delta sequence for the receiver, so
    /// a child whose deltas were lost (partition, drops) re-pushes its
    /// current state — renewal doubles as anti-entropy.
    SubRenew {
        /// The subscription.
        sid: SubId,
        /// Which tree of the cover.
        pred_key: PredKey,
        /// New lease duration in microseconds.
        lease_us: u64,
        /// The sender's highest-seen delta sequence from the receiver
        /// (0 from the front-end toward the root's parent-less hop).
        last_seen_seq: u64,
    },
    /// Tears a subscription down along a tree (explicit unsubscribe), or
    /// — when sent *upward* by a node that received traffic for a
    /// subscription it no longer knows — asks the parent to re-install.
    SubCancel {
        /// The subscription.
        sid: SubId,
        /// Which tree of the cover.
        pred_key: PredKey,
    },
}

impl MoaraMsg {
    /// The end-to-end query this message belongs to, if any. `Status` is
    /// maintenance traffic and belongs to none; a batch has a query only
    /// when every item agrees on it.
    pub fn query_id(&self) -> Option<QueryId> {
        match self {
            MoaraMsg::Route { inner, .. } => inner.query_id(),
            MoaraMsg::QueryDown { qid, .. }
            | MoaraMsg::QueryReply { qid, .. }
            | MoaraMsg::SizeProbe { qid, .. }
            | MoaraMsg::SizeReply { qid, .. } => Some(*qid),
            // Subscription traffic is standing state, not an in-flight
            // query; like Status it is maintenance for accounting.
            MoaraMsg::Status { .. }
            | MoaraMsg::Subscribe { .. }
            | MoaraMsg::SubDelta { .. }
            | MoaraMsg::SubRenew { .. }
            | MoaraMsg::SubCancel { .. } => None,
            MoaraMsg::Batch { items } => {
                let mut tags = items.iter().map(MoaraMsg::query_id);
                let first = tags.next()??;
                tags.all(|t| t == Some(first)).then_some(first)
            }
        }
    }
}

impl QueryId {
    /// Packs the id into the opaque `u64` used for per-query message
    /// accounting (origin in the high 32 bits, the per-origin counter's
    /// low 32 bits below — unique until one origin issues 2³² queries).
    pub fn tag(&self) -> u64 {
        (u64::from(self.origin.0) << 32) | (self.n & 0xffff_ffff)
    }
}

impl Wire for QueryId {
    fn encode(&self, out: &mut impl Sink) {
        self.origin.encode(out);
        self.n.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(QueryId {
            origin: Wire::decode(buf)?,
            n: Wire::decode(buf)?,
        })
    }
}

/// Deepest `Route`-in-`Route` nesting accepted by the decoder. Overlay
/// routes are at most O(log n) hops, so legitimate nesting is single
/// digits; the cap turns a crafted deeply-nested frame (which would
/// otherwise recurse the decoder into a stack overflow) into a normal
/// [`WireError`].
pub const MAX_ROUTE_DEPTH: usize = 64;

/// Depth-tracking decode: frames arrive from untrusted peer sockets, so
/// recursion through `Route` must be bounded.
fn decode_at(buf: &mut &[u8], depth: usize) -> Result<MoaraMsg, WireError> {
    Ok(match u8::decode(buf)? {
        0 => {
            if depth >= MAX_ROUTE_DEPTH {
                return Err(WireError::Invalid("Route nesting too deep"));
            }
            MoaraMsg::Route {
                key: Wire::decode(buf)?,
                inner: Box::new(decode_at(buf, depth + 1)?),
            }
        }
        1 => MoaraMsg::QueryDown {
            qid: Wire::decode(buf)?,
            seq: Wire::decode(buf)?,
            pred_key: Wire::decode(buf)?,
            tree: Wire::decode(buf)?,
            query: Wire::decode(buf)?,
            reply_to: Wire::decode(buf)?,
            trace: Wire::decode(buf)?,
        },
        2 => MoaraMsg::QueryReply {
            qid: Wire::decode(buf)?,
            pred_key: Wire::decode(buf)?,
            state: Wire::decode(buf)?,
            np: Wire::decode(buf)?,
            complete: Wire::decode(buf)?,
            trace: Wire::decode(buf)?,
        },
        3 => MoaraMsg::Status {
            pred_key: Wire::decode(buf)?,
            pred: Wire::decode(buf)?,
            prune: Wire::decode(buf)?,
            update_set: Wire::decode(buf)?,
            np: Wire::decode(buf)?,
            last_seq: Wire::decode(buf)?,
        },
        4 => MoaraMsg::SizeProbe {
            qid: Wire::decode(buf)?,
            pred_key: Wire::decode(buf)?,
            reply_to: Wire::decode(buf)?,
            trace: Wire::decode(buf)?,
        },
        5 => MoaraMsg::SizeReply {
            qid: Wire::decode(buf)?,
            pred_key: Wire::decode(buf)?,
            cost: Wire::decode(buf)?,
            trace: Wire::decode(buf)?,
        },
        6 => {
            // Batches share the Route depth budget: the engine never
            // nests them, so a deeply nested crafted frame is invalid.
            if depth >= MAX_ROUTE_DEPTH {
                return Err(WireError::Invalid("Batch nesting too deep"));
            }
            let n = u32::decode(buf)? as usize;
            // Cap the pre-allocation: `n` is attacker-controlled.
            let mut items = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                items.push(decode_at(buf, depth + 1)?);
            }
            MoaraMsg::Batch { items }
        }
        7 => MoaraMsg::Subscribe {
            spec: Wire::decode(buf)?,
            pred_key: Wire::decode(buf)?,
            tree: Wire::decode(buf)?,
            seq: Wire::decode(buf)?,
        },
        8 => MoaraMsg::SubDelta {
            sid: Wire::decode(buf)?,
            pred_key: Wire::decode(buf)?,
            seq: Wire::decode(buf)?,
            state: Wire::decode(buf)?,
            trace: Wire::decode(buf)?,
        },
        9 => MoaraMsg::SubRenew {
            sid: Wire::decode(buf)?,
            pred_key: Wire::decode(buf)?,
            lease_us: Wire::decode(buf)?,
            last_seen_seq: Wire::decode(buf)?,
        },
        10 => MoaraMsg::SubCancel {
            sid: Wire::decode(buf)?,
            pred_key: Wire::decode(buf)?,
        },
        _ => return Err(WireError::Invalid("MoaraMsg tag")),
    })
}

impl Wire for MoaraMsg {
    fn encode(&self, out: &mut impl Sink) {
        match self {
            MoaraMsg::Route { key, inner } => {
                out.push(0);
                key.encode(out);
                inner.encode(out);
            }
            MoaraMsg::QueryDown {
                qid,
                seq,
                pred_key,
                tree,
                query,
                reply_to,
                trace,
            } => {
                out.push(1);
                qid.encode(out);
                seq.encode(out);
                pred_key.encode(out);
                tree.encode(out);
                query.encode(out);
                reply_to.encode(out);
                trace.encode(out);
            }
            MoaraMsg::QueryReply {
                qid,
                pred_key,
                state,
                np,
                complete,
                trace,
            } => {
                out.push(2);
                qid.encode(out);
                pred_key.encode(out);
                state.encode(out);
                np.encode(out);
                complete.encode(out);
                trace.encode(out);
            }
            MoaraMsg::Status {
                pred_key,
                pred,
                prune,
                update_set,
                np,
                last_seq,
            } => {
                out.push(3);
                pred_key.encode(out);
                pred.encode(out);
                prune.encode(out);
                update_set.encode(out);
                np.encode(out);
                last_seq.encode(out);
            }
            MoaraMsg::SizeProbe {
                qid,
                pred_key,
                reply_to,
                trace,
            } => {
                out.push(4);
                qid.encode(out);
                pred_key.encode(out);
                reply_to.encode(out);
                trace.encode(out);
            }
            MoaraMsg::SizeReply {
                qid,
                pred_key,
                cost,
                trace,
            } => {
                out.push(5);
                qid.encode(out);
                pred_key.encode(out);
                cost.encode(out);
                trace.encode(out);
            }
            MoaraMsg::Batch { items } => {
                out.push(6);
                items.encode(out);
            }
            MoaraMsg::Subscribe {
                spec,
                pred_key,
                tree,
                seq,
            } => {
                out.push(7);
                spec.encode(out);
                pred_key.encode(out);
                tree.encode(out);
                seq.encode(out);
            }
            MoaraMsg::SubDelta {
                sid,
                pred_key,
                seq,
                state,
                trace,
            } => {
                out.push(8);
                sid.encode(out);
                pred_key.encode(out);
                seq.encode(out);
                state.encode(out);
                trace.encode(out);
            }
            MoaraMsg::SubRenew {
                sid,
                pred_key,
                lease_us,
                last_seen_seq,
            } => {
                out.push(9);
                sid.encode(out);
                pred_key.encode(out);
                lease_us.encode(out);
                last_seen_seq.encode(out);
            }
            MoaraMsg::SubCancel { sid, pred_key } => {
                out.push(10);
                sid.encode(out);
                pred_key.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        decode_at(buf, 0)
    }
}

impl Message for MoaraMsg {
    /// Exact framed size on the TCP transport: length prefix, sender id,
    /// encoded payload. Earlier revisions estimated sizes per variant
    /// (and under-counted `Route`, which added 12 bytes and skipped the
    /// header entirely); tying the figure to the codec keeps the
    /// simulator's bandwidth numbers equal to what `TcpTransport`
    /// actually puts on the socket, byte for byte.
    fn size_bytes(&self) -> usize {
        moara_wire::peer_framed_len(self)
    }

    fn query_tag(&self) -> Option<u64> {
        self.query_id().map(|q| q.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moara_aggregation::AggKind;
    use moara_query::Predicate;

    #[test]
    fn sizes_scale_with_payload() {
        let q = Query::new(None, AggKind::Count, Predicate::All);
        let down = MoaraMsg::QueryDown {
            qid: QueryId {
                origin: NodeId(0),
                n: 1,
            },
            seq: 0,
            pred_key: "A=true".into(),
            tree: Id(0),
            query: q,
            reply_to: NodeId(0),
            trace: None,
        };
        let routed = MoaraMsg::Route {
            key: Id(1),
            inner: Box::new(down.clone()),
        };
        assert!(routed.size_bytes() > down.size_bytes());

        let small = MoaraMsg::Status {
            pred_key: "A=true".into(),
            pred: moara_query::SimplePredicate::new("A", moara_query::CmpOp::Eq, true),
            prune: true,
            update_set: vec![],
            np: 0,
            last_seq: 0,
        };
        let big = MoaraMsg::Status {
            pred_key: "A=true".into(),
            pred: moara_query::SimplePredicate::new("A", moara_query::CmpOp::Eq, true),
            prune: false,
            update_set: (0..10).map(NodeId).collect(),
            np: 10,
            last_seq: 0,
        };
        assert!(big.size_bytes() > small.size_bytes());
    }

    #[test]
    fn size_bytes_is_the_exact_framed_wire_size() {
        let probe_qid = QueryId {
            origin: NodeId(3),
            n: 9,
        };
        let msg = MoaraMsg::Route {
            key: Id(7),
            inner: Box::new(MoaraMsg::SizeProbe {
                qid: probe_qid,
                pred_key: "CPU-Util<50".into(),
                reply_to: NodeId(3),
                trace: None,
            }),
        };
        let payload = msg.to_bytes();
        assert_eq!(
            msg.size_bytes(),
            payload.len() + moara_wire::FRAME_HDR + moara_wire::SENDER_HDR
        );
        // Route framing overhead over its payload: tag (1) + key (8), plus
        // the frame header the inner message no longer pays twice.
        let inner = MoaraMsg::SizeProbe {
            qid: probe_qid,
            pred_key: "CPU-Util<50".into(),
            reply_to: NodeId(3),
            trace: None,
        };
        assert_eq!(msg.encoded_len(), 1 + 8 + inner.encoded_len());
    }

    #[test]
    fn batch_roundtrips_and_tags_uniform_queries_only() {
        let qid = QueryId {
            origin: NodeId(2),
            n: 5,
        };
        let other = QueryId {
            origin: NodeId(2),
            n: 6,
        };
        let probe = |q: QueryId, key: &str| MoaraMsg::Route {
            key: Id(1),
            inner: Box::new(MoaraMsg::SizeProbe {
                qid: q,
                pred_key: key.into(),
                reply_to: NodeId(2),
                trace: None,
            }),
        };
        let uniform = MoaraMsg::Batch {
            items: vec![probe(qid, "A=1"), probe(qid, "B=1")],
        };
        assert_eq!(MoaraMsg::from_bytes(&uniform.to_bytes()).unwrap(), uniform);
        assert_eq!(uniform.query_id(), Some(qid));
        assert_eq!(uniform.query_tag(), Some(qid.tag()));

        // A batch carrying two queries' messages is one wire message and
        // belongs to neither for per-query accounting.
        let mixed = MoaraMsg::Batch {
            items: vec![probe(qid, "A=1"), probe(other, "B=1")],
        };
        assert_eq!(MoaraMsg::from_bytes(&mixed.to_bytes()).unwrap(), mixed);
        assert_eq!(mixed.query_id(), None);

        // Status is maintenance traffic, never query-attributed.
        let status = MoaraMsg::Status {
            pred_key: "A=true".into(),
            pred: moara_query::SimplePredicate::new("A", moara_query::CmpOp::Eq, true),
            prune: true,
            update_set: vec![],
            np: 0,
            last_seq: 0,
        };
        assert_eq!(status.query_id(), None);

        // An empty batch is legal on the wire and unattributed.
        let empty = MoaraMsg::Batch { items: vec![] };
        assert_eq!(MoaraMsg::from_bytes(&empty.to_bytes()).unwrap(), empty);
        assert_eq!(empty.query_id(), None);
    }

    #[test]
    fn traced_variants_roundtrip_and_survive_truncation() {
        let qid = QueryId {
            origin: NodeId(1),
            n: 4,
        };
        let ctx = TraceCtx {
            trace_id: qid.tag(),
            span_id: 0x2_0000_0001,
            parent_span_id: 0x1_0000_0000,
            flags: moara_trace::FLAG_SAMPLED,
        };
        let q = Query::new(None, AggKind::Count, Predicate::All);
        let traced: Vec<MoaraMsg> = vec![
            MoaraMsg::QueryDown {
                qid,
                seq: 3,
                pred_key: "A=true".into(),
                tree: Id(9),
                query: q,
                reply_to: NodeId(1),
                trace: Some(ctx),
            },
            MoaraMsg::QueryReply {
                qid,
                pred_key: "A=true".into(),
                state: AggState::Count(2),
                np: 1,
                complete: true,
                trace: Some(ctx),
            },
            MoaraMsg::SizeProbe {
                qid,
                pred_key: "A=true".into(),
                reply_to: NodeId(1),
                trace: Some(ctx),
            },
            MoaraMsg::SizeReply {
                qid,
                pred_key: "A=true".into(),
                cost: 8,
                trace: Some(ctx),
            },
            MoaraMsg::SubDelta {
                sid: SubId {
                    origin: NodeId(1),
                    n: 2,
                },
                pred_key: "A=true".into(),
                seq: 5,
                state: AggState::Count(1),
                trace: Some(ctx),
            },
        ];
        for msg in traced {
            let bytes = msg.to_bytes();
            assert_eq!(bytes.len(), msg.encoded_len(), "{msg:?}");
            assert_eq!(MoaraMsg::from_bytes(&bytes).unwrap(), msg);
            // Every truncated prefix errors instead of panicking (frames
            // arrive from untrusted sockets).
            for cut in 0..bytes.len() {
                assert!(MoaraMsg::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
            }
            // A present context costs exactly its 25 bytes over absent.
            let untraced = match MoaraMsg::from_bytes(&bytes).unwrap() {
                MoaraMsg::QueryDown {
                    trace: _,
                    qid,
                    seq,
                    pred_key,
                    tree,
                    query,
                    reply_to,
                } => MoaraMsg::QueryDown {
                    trace: None,
                    qid,
                    seq,
                    pred_key,
                    tree,
                    query,
                    reply_to,
                },
                MoaraMsg::QueryReply {
                    trace: _,
                    qid,
                    pred_key,
                    state,
                    np,
                    complete,
                } => MoaraMsg::QueryReply {
                    trace: None,
                    qid,
                    pred_key,
                    state,
                    np,
                    complete,
                },
                MoaraMsg::SizeProbe {
                    trace: _,
                    qid,
                    pred_key,
                    reply_to,
                } => MoaraMsg::SizeProbe {
                    trace: None,
                    qid,
                    pred_key,
                    reply_to,
                },
                MoaraMsg::SizeReply {
                    trace: _,
                    qid,
                    pred_key,
                    cost,
                } => MoaraMsg::SizeReply {
                    trace: None,
                    qid,
                    pred_key,
                    cost,
                },
                MoaraMsg::SubDelta {
                    trace: _,
                    sid,
                    pred_key,
                    seq,
                    state,
                } => MoaraMsg::SubDelta {
                    trace: None,
                    sid,
                    pred_key,
                    seq,
                    state,
                },
                other => other,
            };
            assert_eq!(
                msg.encoded_len(),
                untraced.encoded_len() + ctx.encoded_len()
            );
        }
        // A bad option tag on the trace field is rejected.
        let probe = MoaraMsg::SizeProbe {
            qid,
            pred_key: "A".into(),
            reply_to: NodeId(1),
            trace: None,
        };
        let mut bytes = probe.to_bytes();
        *bytes.last_mut().unwrap() = 9; // option tag must be 0 or 1
        assert_eq!(
            MoaraMsg::from_bytes(&bytes),
            Err(WireError::Invalid("option tag"))
        );
    }

    #[test]
    fn deeply_nested_batch_is_rejected_not_a_stack_overflow() {
        let mut evil = Vec::new();
        for _ in 0..(MAX_ROUTE_DEPTH + 10) {
            evil.push(6u8); // Batch tag
            evil.extend_from_slice(&1u32.to_le_bytes()); // one item
        }
        assert_eq!(
            MoaraMsg::from_bytes(&evil),
            Err(WireError::Invalid("Batch nesting too deep"))
        );
    }

    #[test]
    fn query_id_tag_packs_origin_and_counter() {
        let q = QueryId {
            origin: NodeId(7),
            n: 0x1_0000_0042, // high bits beyond 32 are masked off
        };
        assert_eq!(q.tag(), (7u64 << 32) | 0x42);
    }

    #[test]
    fn deeply_nested_route_is_rejected_not_a_stack_overflow() {
        // Legitimate nesting decodes fine.
        let mut ok = MoaraMsg::SizeReply {
            qid: QueryId {
                origin: NodeId(0),
                n: 0,
            },
            pred_key: "A=1".into(),
            cost: 1,
            trace: None,
        };
        for i in 0..10 {
            ok = MoaraMsg::Route {
                key: Id(i),
                inner: Box::new(ok),
            };
        }
        assert_eq!(MoaraMsg::from_bytes(&ok.to_bytes()).unwrap(), ok);

        // A crafted frame of endless Route tags must error, not recurse
        // the decoder off the stack (frames come from untrusted sockets).
        let mut evil = Vec::new();
        for i in 0..(MAX_ROUTE_DEPTH as u64 + 10) {
            evil.push(0u8); // Route tag
            evil.extend_from_slice(&i.to_le_bytes()); // key
        }
        assert_eq!(
            MoaraMsg::from_bytes(&evil),
            Err(WireError::Invalid("Route nesting too deep"))
        );
    }
}
