//! The peer and control planes' exact bytes: one instance of every frame
//! variant — every `DaemonMsg`, through `Ask`/`Told` every `CtrlRequest`
//! and `CtrlReply`, every `SwimMsg`, every `MoaraMsg` including a
//! `Route` inside a `Route` and a `Batch` — encoded and written as hex,
//! one line each, against `golden/wire_frames.txt`.
//!
//! The round-trip suites pass for any self-consistent layout; this file
//! is what pins the layout itself, so a peer built from another commit
//! keeps understanding this one. A deliberate layout change moves the
//! golden: the failing assert shows the new lines, which replace the
//! file, and the diff is the review.

use moara_aggregation::{AggKind, AggState, NodeRef};
use moara_attributes::Value;
use moara_core::{DeliveryPolicy, MoaraMsg, QueryId, SubId, SubSpec};
use moara_daemon::health::{AlertWire, HealthStatus, PeerHealthRow};
use moara_daemon::recorder::EventWire;
use moara_daemon::{CtrlReply, CtrlRequest, DaemonMsg, Member};
use moara_dht::Id;
use moara_membership::{PeerState, SwimMsg, Update};
use moara_query::{CmpOp, Predicate, Query, SimplePredicate};
use moara_simnet::{NodeId, SimDuration};
use moara_trace::{Phase, SpanRecord, TraceCtx, TraceSummary};
use moara_wire::Wire;

fn qid(origin: u32, n: u64) -> QueryId {
    QueryId {
        origin: NodeId(origin),
        n,
    }
}

fn trace() -> Option<TraceCtx> {
    Some(TraceCtx::root(0x0123_4567_89ab_cdef).descend(7))
}

/// Every `MoaraMsg` variant, plus `Route` nesting and a `Batch`.
fn moara() -> Vec<(&'static str, MoaraMsg)> {
    let query = Query::new(
        Some("CPU-Util".into()),
        AggKind::Avg,
        Predicate::And(vec![
            Predicate::atom("ServiceX", CmpOp::Eq, true),
            Predicate::Or(vec![
                Predicate::atom("CPU-Util", CmpOp::Lt, 50i64),
                Predicate::atom("OS", CmpOp::Ne, "Linux"),
            ]),
        ]),
    );
    let down = MoaraMsg::QueryDown {
        qid: qid(3, 17),
        seq: 9,
        pred_key: "ServiceX=true".into(),
        tree: Id::of_attribute("ServiceX"),
        query,
        reply_to: NodeId(12),
        trace: None,
    };
    let probe = MoaraMsg::SizeProbe {
        qid: qid(1, 2),
        pred_key: "CPU-Util<50".into(),
        reply_to: NodeId(1),
        trace: trace(),
    };
    let routed_probe = MoaraMsg::Route {
        key: Id::of_attribute("CPU-Util"),
        inner: Box::new(probe.clone()),
    };
    let sid = SubId {
        origin: NodeId(2),
        n: 5,
    };
    vec![
        ("QueryDown", down.clone()),
        (
            "QueryReply",
            MoaraMsg::QueryReply {
                qid: qid(3, 17),
                pred_key: "ServiceX=true".into(),
                state: AggState::Avg {
                    sum: 12.5,
                    count: 4,
                },
                np: 7,
                complete: true,
                trace: trace(),
            },
        ),
        (
            "Status",
            MoaraMsg::Status {
                pred_key: "ServiceX=true".into(),
                pred: SimplePredicate::new("ServiceX", CmpOp::Eq, true),
                prune: false,
                update_set: (0..5).map(NodeId).collect(),
                np: 5,
                last_seq: 3,
            },
        ),
        ("SizeProbe", probe),
        (
            "SizeReply",
            MoaraMsg::SizeReply {
                qid: qid(1, 2),
                pred_key: "CPU-Util<50".into(),
                cost: 64,
                trace: None,
            },
        ),
        ("Route", routed_probe.clone()),
        (
            "Route(Route)",
            MoaraMsg::Route {
                key: Id(42),
                inner: Box::new(routed_probe.clone()),
            },
        ),
        (
            "Batch",
            MoaraMsg::Batch {
                items: vec![
                    routed_probe,
                    MoaraMsg::Route {
                        key: Id(9),
                        inner: Box::new(down),
                    },
                ],
            },
        ),
        (
            "Subscribe",
            MoaraMsg::Subscribe {
                spec: SubSpec {
                    id: sid,
                    query: Query::new(None, AggKind::Count, Predicate::atom("A", CmpOp::Eq, 1i64)),
                    policy: DeliveryPolicy::Threshold { value: 3.5 },
                    lease: SimDuration::from_secs(30),
                    owner: NodeId(2),
                    cover: vec!["A=1".into()],
                },
                pred_key: "A=1".into(),
                tree: Id::of_attribute("A"),
                seq: 1,
            },
        ),
        (
            "SubDelta",
            MoaraMsg::SubDelta {
                sid,
                pred_key: "A=1".into(),
                seq: 4,
                state: AggState::Ranked {
                    k: 2,
                    descending: true,
                    items: vec![
                        (Value::Float(0.5), NodeRef(3)),
                        (Value::Int(-1), NodeRef(4)),
                    ],
                },
                trace: trace(),
            },
        ),
        (
            "SubRenew",
            MoaraMsg::SubRenew {
                sid,
                pred_key: "A=1".into(),
                lease_us: 30_000_000,
                last_seen_seq: 4,
            },
        ),
        (
            "SubCancel",
            MoaraMsg::SubCancel {
                sid,
                pred_key: "A=1".into(),
            },
        ),
    ]
}

/// Every `SwimMsg` variant, with every `PeerState` in its gossip.
fn swim() -> Vec<(&'static str, SwimMsg)> {
    let updates = vec![
        Update {
            node: NodeId(1),
            incarnation: 2,
            state: PeerState::Alive,
        },
        Update {
            node: NodeId(3),
            incarnation: 4,
            state: PeerState::Suspect,
        },
        Update {
            node: NodeId(5),
            incarnation: 6,
            state: PeerState::Dead,
        },
    ];
    vec![
        (
            "Ping",
            SwimMsg::Ping {
                seq: 11,
                reply_to: NodeId(7),
                updates,
            },
        ),
        (
            "Ack",
            SwimMsg::Ack {
                seq: 11,
                updates: Vec::new(),
            },
        ),
        (
            "PingReq",
            SwimMsg::PingReq {
                seq: 12,
                target: NodeId(8),
                updates: Vec::new(),
            },
        ),
    ]
}

fn member(node: u32) -> Member {
    Member {
        node,
        ring_id: 0xfeed_0000 + u64::from(node),
        addr: format!("127.0.0.1:71{node:02}"),
        incarnation: 2,
        alive: node != 2,
    }
}

fn span() -> SpanRecord {
    SpanRecord {
        trace_id: 0x0123_4567_89ab_cdef,
        span_id: 2,
        parent_span_id: 1,
        node: 3,
        phase: Phase::Fold,
        peer: 4,
        start_us: 1_000,
        queue_us: 5,
        service_us: 17,
        bytes: 96,
        detail: "pred=A=1".into(),
    }
}

fn alert() -> AlertWire {
    AlertWire {
        rule: "stall".into(),
        metric: "tick_p99_us".into(),
        value: 300_000.0,
        threshold: 250_000.0,
        since_s: 3,
    }
}

/// Every `CtrlRequest` variant.
fn requests() -> Vec<(&'static str, CtrlRequest)> {
    vec![
        (
            "Join",
            CtrlRequest::Join {
                addr: "127.0.0.1:7104".into(),
                prev_node: Some(3),
            },
        ),
        (
            "Query",
            CtrlRequest::Query {
                text: "SELECT count(*) WHERE ServiceX = true".into(),
            },
        ),
        (
            "SetAttr",
            CtrlRequest::SetAttr {
                attr: "OS".into(),
                value: Value::str("Linux"),
            },
        ),
        ("Status", CtrlRequest::Status),
        (
            "Watch",
            CtrlRequest::Watch {
                text: "SELECT max(Load)".into(),
                policy: DeliveryPolicy::Periodic(SimDuration::from_millis(250)),
                lease_us: 5_000_000,
            },
        ),
        ("TraceFetch", CtrlRequest::TraceFetch { trace_id: 9 }),
        ("TraceGet", CtrlRequest::TraceGet { trace_id: 9 }),
        ("TraceList", CtrlRequest::TraceList { limit: 20 }),
        ("ClusterHealth", CtrlRequest::ClusterHealth),
        ("MetricsFetch", CtrlRequest::MetricsFetch),
        (
            "HistoryFetch",
            CtrlRequest::HistoryFetch {
                metric: "watches".into(),
                range_s: 60,
            },
        ),
        (
            "ClusterHistory",
            CtrlRequest::ClusterHistory {
                metric: "watches".into(),
                range_s: 600,
            },
        ),
        (
            "EventsFetch",
            CtrlRequest::EventsFetch {
                kind: Some("swim_confirm".into()),
                limit: 50,
            },
        ),
        ("HealthFetch", CtrlRequest::HealthFetch),
    ]
}

/// Every `CtrlReply` variant.
fn replies() -> Vec<(&'static str, CtrlReply)> {
    vec![
        (
            "Joined",
            CtrlReply::Joined {
                node: 2,
                members: (0..3).map(member).collect(),
            },
        ),
        (
            "Answer",
            CtrlReply::Answer {
                result: "2".into(),
                complete: true,
            },
        ),
        ("Ok", CtrlReply::Ok),
        (
            "Status",
            CtrlReply::Status {
                node: 1,
                members: 3,
                alive: 2,
                dead: vec![2],
                watches: 1,
                sub_entries: 4,
                metrics: vec![("queries_total".into(), 12.0)],
                exemplars: vec![("phase/fold/le/100000".into(), "0x0000000000000009".into())],
            },
        ),
        (
            "Update",
            CtrlReply::Update {
                result: "7".into(),
                initial: true,
                complete: false,
            },
        ),
        ("Error", CtrlReply::Error("bad request frame".into())),
        ("Spans", CtrlReply::Spans(vec![span()])),
        (
            "Trace",
            CtrlReply::Trace {
                spans: vec![span()],
                missing: vec![2],
            },
        ),
        (
            "Traces",
            CtrlReply::Traces(vec![TraceSummary {
                trace_id: 9,
                phase: Phase::Parse,
                node: 1,
                start_us: 100,
                duration_us: 250,
                spans: 6,
            }]),
        ),
        (
            "ClusterHealth",
            CtrlReply::ClusterHealth {
                node: 0,
                rows: vec![
                    PeerHealthRow {
                        node: 0,
                        status: HealthStatus::Ok,
                        incarnation: 1,
                        summary: Some(vec![("watches".into(), 1.0)]),
                    },
                    PeerHealthRow {
                        node: 1,
                        status: HealthStatus::Stale,
                        incarnation: 2,
                        summary: None,
                    },
                    PeerHealthRow {
                        node: 2,
                        status: HealthStatus::Dead,
                        incarnation: 3,
                        summary: None,
                    },
                ],
                alerts: vec![alert()],
            },
        ),
        ("MetricsText", CtrlReply::MetricsText("moara_up 1\n".into())),
        (
            "History",
            CtrlReply::History {
                node: 1,
                res_s: 1,
                points: vec![(1_700_000_000_000, 0.25)],
            },
        ),
        (
            "ClusterHistory",
            CtrlReply::ClusterHistory {
                metric: "watches".into(),
                res_s: 10,
                series: vec![(0, vec![(1_700_000_000_000, 1.0)]), (1, Vec::new())],
                missing: vec![2],
            },
        ),
        (
            "Events",
            CtrlReply::Events(vec![EventWire {
                seq: 5,
                ts_ms: 1_700_000_000_123,
                node: 2,
                kind: "swim_confirm".into(),
                detail: "peer=3 inc=4".into(),
            }]),
        ),
        (
            "Health",
            CtrlReply::Health {
                sample: vec![("tick_p99_us".into(), 812.0)],
                firing: vec![alert()],
            },
        ),
    ]
}

/// Every frame, labelled: the whole peer plane, control requests and
/// replies included, as the `DaemonMsg`s that carry them.
fn frames() -> Vec<(String, DaemonMsg)> {
    let moara = moara()
        .into_iter()
        .map(|(n, m)| (format!("Moara({n})"), DaemonMsg::Moara(m)));
    let members = DaemonMsg::Membership((0..3).map(member).collect());
    let swim = swim()
        .into_iter()
        .map(|(n, s)| (format!("Swim({n})"), DaemonMsg::Swim(s)));
    let asks = requests()
        .into_iter()
        .map(|(n, r)| (format!("Ask({n})"), DaemonMsg::Ask(41, r)));
    let told = replies()
        .into_iter()
        .map(|(n, r)| (format!("Told({n})"), DaemonMsg::Told(41, r)));
    moara
        .chain([("Membership".to_owned(), members)])
        .chain(swim)
        .chain(asks)
        .chain(told)
        .collect()
}

#[test]
fn every_frame_variant_encodes_to_its_golden_bytes() {
    let lines: Vec<String> = frames()
        .iter()
        .map(|(label, msg)| {
            let hex: String = msg.to_bytes().iter().map(|b| format!("{b:02x}")).collect();
            format!("{label} {hex}")
        })
        .collect();
    let golden = include_str!("golden/wire_frames.txt");
    assert_eq!(
        lines,
        golden.lines().collect::<Vec<_>>(),
        "a frame's bytes moved; the new golden is:\n{}",
        lines.join("\n")
    );
}

/// Each frame decodes back to the value that wrote it, and its reported
/// size is its byte count.
#[test]
fn every_frame_variant_round_trips() {
    for (label, msg) in frames() {
        let bytes = msg.to_bytes();
        assert_eq!(DaemonMsg::from_bytes(&bytes), Ok(msg.clone()), "{label}");
        assert_eq!(msg.encoded_len(), bytes.len(), "{label}");
    }
}
