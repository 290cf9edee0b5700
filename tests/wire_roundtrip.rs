//! Serde-style round-trip coverage for every [`MoaraMsg`] variant:
//! encode → decode → equality, including `Route` nesting, plus the
//! bandwidth-accounting contract — `size_bytes()` must stay within 2× of
//! the real encoded size so the simulator's byte figures remain honest.
//! (Since the `moara-wire` refactor `size_bytes` *is* the exact framed
//! size; the 2× bound is kept as the regression tripwire the issue asked
//! for, and would catch any future drift between estimate and codec.)

use moara::aggregation::{AggKind, AggState, NodeRef};
use moara::attributes::Value;
use moara::core::{MoaraMsg, QueryId};
use moara::dht::Id;
use moara::query::{CmpOp, Predicate, Query, SimplePredicate};
use moara::simnet::{Message, NodeId, SimDuration};
use moara::subscribe::{DeliveryPolicy, SubId, SubSpec};
use moara_wire::{Wire, FRAME_HDR, SENDER_HDR};

fn roundtrip(msg: &MoaraMsg) {
    let bytes = msg.to_bytes();
    assert_eq!(
        bytes.len(),
        msg.encoded_len(),
        "encoded_len out of sync for {msg:?}"
    );
    let back = MoaraMsg::from_bytes(&bytes).unwrap_or_else(|e| panic!("decode {msg:?}: {e}"));
    assert_eq!(&back, msg);

    // Honest bandwidth accounting: at least the payload, at most 2× the
    // framed payload.
    let wire = bytes.len() + FRAME_HDR;
    assert!(
        msg.size_bytes() >= bytes.len() && msg.size_bytes() <= 2 * wire,
        "size_bytes {} vs wire {} for {msg:?}",
        msg.size_bytes(),
        wire
    );
}

fn qid(origin: u32, n: u64) -> QueryId {
    QueryId {
        origin: NodeId(origin),
        n,
    }
}

fn composite_query() -> Query {
    Query::new(
        Some("CPU-Util".into()),
        AggKind::Avg,
        Predicate::And(vec![
            Predicate::Or(vec![
                Predicate::atom("ServiceX", CmpOp::Eq, true),
                Predicate::atom("OS", CmpOp::Ne, "Linux"),
            ]),
            Predicate::atom("CPU-Util", CmpOp::Lt, 50i64),
            Predicate::All,
        ]),
    )
}

#[test]
fn query_down_roundtrips() {
    roundtrip(&MoaraMsg::QueryDown {
        qid: qid(3, 17),
        seq: 9,
        pred_key: "ServiceX=true".into(),
        tree: Id::of_attribute("ServiceX"),
        query: composite_query(),
        reply_to: NodeId(12),
        trace: None,
    });
    // Node-oriented query, no attribute.
    roundtrip(&MoaraMsg::QueryDown {
        qid: qid(0, 0),
        seq: 0,
        pred_key: "*".into(),
        tree: Id(u64::MAX),
        query: Query::new(None, AggKind::Count, Predicate::All),
        reply_to: NodeId(0),
        trace: None,
    });
}

#[test]
fn query_reply_roundtrips_for_every_agg_state() {
    let states = vec![
        AggState::Null,
        AggState::Count(42),
        AggState::SumInt(-7),
        AggState::SumFloat(2.25),
        AggState::Avg {
            sum: 10.5,
            count: 3,
        },
        AggState::Min((Value::Int(-3), NodeRef(4))),
        AggState::Max((Value::str("zed"), NodeRef(9))),
        AggState::Ranked {
            k: 3,
            descending: true,
            items: vec![(Value::Float(9.5), NodeRef(1)), (Value::Int(7), NodeRef(2))],
        },
        AggState::Nodes(vec![NodeRef(1), NodeRef(5), NodeRef(8)]),
        AggState::Hist {
            lo: 0,
            hi: 100,
            counts: vec![0, 3, 1, 0, 2],
        },
    ];
    for state in states {
        roundtrip(&MoaraMsg::QueryReply {
            qid: qid(1, 2),
            pred_key: "CPU-Util<50".into(),
            state,
            np: 11,
            complete: false,
            trace: None,
        });
    }
}

#[test]
fn status_roundtrips() {
    roundtrip(&MoaraMsg::Status {
        pred_key: "A=1".into(),
        pred: SimplePredicate::new("A", CmpOp::Eq, 1i64),
        prune: true,
        update_set: vec![],
        np: 0,
        last_seq: 0,
    });
    roundtrip(&MoaraMsg::Status {
        pred_key: "Mem-Free>=1024".into(),
        pred: SimplePredicate::new("Mem-Free", CmpOp::Ge, 1024i64),
        prune: false,
        update_set: (0..25).map(NodeId).collect(),
        np: 25,
        last_seq: 7,
    });
}

#[test]
fn size_probe_and_reply_roundtrip() {
    roundtrip(&MoaraMsg::SizeProbe {
        qid: qid(2, 7),
        pred_key: "ServiceX=true".into(),
        reply_to: NodeId(2),
        trace: None,
    });
    roundtrip(&MoaraMsg::SizeReply {
        qid: qid(2, 7),
        pred_key: "ServiceX=true".into(),
        cost: 64,
        trace: None,
    });
}

#[test]
fn batch_roundtrips() {
    let route_probe = |key: &str| MoaraMsg::Route {
        key: Id::of_attribute(key),
        inner: Box::new(MoaraMsg::SizeProbe {
            qid: qid(4, 2),
            pred_key: format!("{key}=true").into(),
            reply_to: NodeId(4),
            trace: None,
        }),
    };
    roundtrip(&MoaraMsg::Batch { items: vec![] });
    let batch = MoaraMsg::Batch {
        items: vec![
            route_probe("ServiceX"),
            route_probe("Apache"),
            MoaraMsg::Route {
                key: Id(3),
                inner: Box::new(MoaraMsg::QueryDown {
                    qid: qid(4, 2),
                    seq: 0,
                    pred_key: "ServiceX=true".into(),
                    tree: Id::of_attribute("ServiceX"),
                    query: composite_query(),
                    reply_to: NodeId(4),
                    trace: None,
                }),
            },
        ],
    };
    roundtrip(&batch);
    // One coalesced frame is attributed to its (single) query.
    assert_eq!(batch.query_tag(), Some(qid(4, 2).tag()));
}

#[test]
fn route_nesting_roundtrips() {
    let inner = MoaraMsg::SizeProbe {
        qid: qid(5, 0),
        pred_key: "ServiceX=true".into(),
        reply_to: NodeId(5),
        trace: None,
    };
    let one = MoaraMsg::Route {
        key: Id::of_attribute("ServiceX"),
        inner: Box::new(inner.clone()),
    };
    roundtrip(&one);
    // Route-in-route (a probe relayed across two overlay hops).
    let two = MoaraMsg::Route {
        key: Id(123),
        inner: Box::new(one.clone()),
    };
    roundtrip(&two);
    // Route wrapping a full QueryDown.
    roundtrip(&MoaraMsg::Route {
        key: Id(9),
        inner: Box::new(MoaraMsg::QueryDown {
            qid: qid(8, 1),
            seq: 0,
            pred_key: "OS='Linux'".into(),
            tree: Id::of_attribute("OS"),
            query: composite_query(),
            reply_to: NodeId(8),
            trace: None,
        }),
    });

    // Route's accounting now includes the framing constant: each level of
    // nesting adds exactly tag + key bytes on top of the inner payload.
    assert_eq!(one.encoded_len(), 1 + 8 + inner.encoded_len());
    assert_eq!(one.size_bytes(), FRAME_HDR + SENDER_HDR + one.encoded_len());
    assert_eq!(two.size_bytes(), one.size_bytes() + 9);
}

fn sub_spec(policy: DeliveryPolicy) -> SubSpec {
    SubSpec {
        id: SubId {
            origin: NodeId(2),
            n: 7,
        },
        query: composite_query(),
        policy,
        lease: SimDuration::from_secs(30),
        owner: NodeId(2),
        cover: vec!["CPU-Util<50".into(), "ServiceX=true".into()],
    }
}

#[test]
fn subscribe_roundtrips_for_every_policy() {
    for policy in [
        DeliveryPolicy::OnChange,
        DeliveryPolicy::Periodic(SimDuration::from_secs(5)),
        DeliveryPolicy::Threshold { value: -1.25 },
    ] {
        roundtrip(&MoaraMsg::Subscribe {
            spec: sub_spec(policy),
            pred_key: "ServiceX=true".into(),
            tree: Id::of_attribute("ServiceX"),
            seq: 3,
        });
        // Installs travel Route'd to the tree root like queries.
        roundtrip(&MoaraMsg::Route {
            key: Id::of_attribute("ServiceX"),
            inner: Box::new(MoaraMsg::Subscribe {
                spec: sub_spec(policy),
                pred_key: "ServiceX=true".into(),
                tree: Id::of_attribute("ServiceX"),
                seq: 3,
            }),
        });
    }
}

#[test]
fn sub_delta_roundtrips_for_every_agg_state() {
    let states = vec![
        AggState::Null,
        AggState::Count(42),
        AggState::SumInt(-7),
        AggState::Avg {
            sum: 10.5,
            count: 3,
        },
        AggState::Std {
            sum: 9.0,
            sum_sq: 29.0,
            count: 3,
        },
        AggState::Min((Value::Int(-3), NodeRef(4))),
        AggState::Ranked {
            k: 2,
            descending: true,
            items: vec![(Value::Float(9.5), NodeRef(1))],
        },
    ];
    for state in states {
        roundtrip(&MoaraMsg::SubDelta {
            sid: SubId {
                origin: NodeId(1),
                n: 3,
            },
            pred_key: "ServiceX=true".into(),
            seq: 12,
            state,
            trace: None,
        });
    }
}

#[test]
fn sub_renew_and_cancel_roundtrip() {
    let sid = SubId {
        origin: NodeId(9),
        n: 1,
    };
    roundtrip(&MoaraMsg::SubRenew {
        sid,
        pred_key: "A=1".into(),
        lease_us: 30_000_000,
        last_seen_seq: 8,
    });
    roundtrip(&MoaraMsg::SubCancel {
        sid,
        pred_key: "A=1".into(),
    });
    // Subscription traffic is maintenance for per-query accounting.
    assert_eq!(
        MoaraMsg::SubCancel {
            sid,
            pred_key: "A=1".into()
        }
        .query_tag(),
        None
    );
}

#[test]
fn decoding_rejects_corruption() {
    let msg = MoaraMsg::SizeReply {
        qid: qid(0, 0),
        pred_key: "A=1".into(),
        cost: 1,
        trace: None,
    };
    let mut bytes = msg.to_bytes();
    bytes[0] = 0xEE; // bogus variant tag
    assert!(MoaraMsg::from_bytes(&bytes).is_err());
    let bytes = msg.to_bytes();
    assert!(MoaraMsg::from_bytes(&bytes[..bytes.len() - 1]).is_err());
}
