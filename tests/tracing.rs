//! Distributed-tracing behaviour on the simulator backend: span trees
//! cover every query phase, causal links are intact, sampling thins
//! roots, and — because the simulator is deterministic — two identical
//! runs record byte-identical span sets.

use moara::simnet::SimDuration;
use moara::trace::{Phase, SpanRecord, NO_PEER};
use moara::{AggResult, Cluster, DeliveryPolicy, NodeId, Value};

/// A traced testbed: 40 nodes, two overlapping groups, tracing every
/// query.
fn testbed(seed: u64, sample_every: u64) -> Cluster {
    let mut c = Cluster::builder()
        .nodes(40)
        .seed(seed)
        .tracing(sample_every)
        .build();
    for i in 0..40u32 {
        let node = NodeId(i);
        c.set_attr(node, "a", i % 2 == 0);
        c.set_attr(node, "b", i % 3 == 0);
    }
    c.run_to_quiescence();
    c
}

/// Runs the canonical composite query and returns the recorded spans for
/// it, sorted into a canonical order.
fn traced_query(c: &mut Cluster) -> (u64, Vec<SpanRecord>) {
    let out = c
        .query(NodeId(7), "SELECT count(*) WHERE a = true AND b = true")
        .unwrap();
    assert!(out.complete);
    let trace_id = out.qid.tag();
    let mut spans = c.tracer().expect("tracing enabled").spans_for(trace_id);
    spans.sort_by_key(|s| (s.span_id, s.start_us, s.node));
    (trace_id, spans)
}

#[test]
fn span_tree_covers_all_phases_and_is_causally_linked() {
    let mut c = testbed(11, 1);
    let (trace_id, spans) = traced_query(&mut c);
    assert!(!spans.is_empty(), "a traced query must record spans");

    // Every phase of a composite query shows up.
    for phase in [Phase::Parse, Phase::Plan, Phase::FanOut, Phase::Fold] {
        assert!(
            spans.iter().any(|s| s.phase == phase),
            "missing {phase:?} span in {spans:#?}"
        );
    }

    // Exactly one root (the front-end's parse span), and every other
    // span's parent is present: the store is shared in-process, so the
    // merged tree must be orphan-free.
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent_span_id == 0).collect();
    assert_eq!(roots.len(), 1, "one root span, got {roots:#?}");
    assert_eq!(roots[0].phase, Phase::Parse);
    assert_eq!(roots[0].node, 7, "root belongs to the origin front-end");
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    for s in &spans {
        assert_eq!(s.trace_id, trace_id);
        assert!(
            s.parent_span_id == 0 || ids.contains(&s.parent_span_id),
            "orphan span {s:?}"
        );
    }

    // More than one node took part: the fan-out crossed the overlay.
    let nodes: std::collections::HashSet<u32> = spans.iter().map(|s| s.node).collect();
    assert!(
        nodes.len() > 1,
        "expected a multi-node trace, got {nodes:?}"
    );
}

#[test]
fn identical_runs_record_identical_spans() {
    // The simulator is deterministic, and the tracer must not break
    // that: same seed, same workload, same spans — ids, phases, nodes,
    // timings, byte counts, everything.
    let (id_a, spans_a) = traced_query(&mut testbed(23, 1));
    let (id_b, spans_b) = traced_query(&mut testbed(23, 1));
    assert_eq!(id_a, id_b);
    assert_eq!(spans_a, spans_b);
    // And a different seed genuinely changes the trace.
    let (_, spans_c) = traced_query(&mut testbed(24, 1));
    assert_ne!(spans_a, spans_c);
}

#[test]
fn sampling_thins_roots_and_zero_disables() {
    // sample_every = 2: every other root query is traced.
    let mut c = testbed(5, 2);
    let mut traced = 0;
    for _ in 0..6 {
        let out = c
            .query(NodeId(3), "SELECT count(*) WHERE a = true")
            .unwrap();
        if !c.tracer().unwrap().spans_for(out.qid.tag()).is_empty() {
            traced += 1;
        }
    }
    assert_eq!(traced, 3, "1-in-2 sampling should trace half the queries");

    // sample_every = 0: no tracer is attached at all.
    let c = Cluster::builder().nodes(4).seed(5).tracing(0).build();
    assert!(c.tracer().is_none());
}

/// Every span `c`'s tracer holds, one line each: traces oldest first,
/// spans in recording order. A span names its parent by index within its
/// trace, so the lines do not depend on how span ids are minted.
fn render_spans(c: &Cluster) -> String {
    let tracer = c.tracer().expect("tracing enabled");
    let mut out = String::new();
    for (i, summary) in tracer.recent(usize::MAX).iter().rev().enumerate() {
        let spans = tracer.spans_for(summary.trace_id);
        out += &format!("trace {i}\n");
        for s in &spans {
            let parent = match spans.iter().position(|p| p.span_id == s.parent_span_id) {
                Some(p) => p.to_string(),
                None if s.parent_span_id == 0 => "-".to_string(),
                None => "?".to_string(),
            };
            let peer = match s.peer {
                NO_PEER => "-".to_string(),
                p => p.to_string(),
            };
            out += &format!(
                "  {} node={} peer={peer} parent={parent} start={} queue={} service={} bytes={} {}\n",
                s.phase.as_str(),
                s.node,
                s.start_us,
                s.queue_us,
                s.service_us,
                s.bytes,
                s.detail,
            );
        }
    }
    out
}

/// The spans of a traced run, pinned line for line: the canonical
/// composite query (it probes both groups), then a standing `count(*)`
/// over one group, whose install announces its tree, and one attribute
/// flip below that tree's root, whose delta climbs at least two hops (to
/// the root, then to the subscriber). Figures
/// run untraced, so this is what holds every span's phase, peer, parent,
/// timing and detail in place.
#[test]
fn a_traced_run_records_its_golden_spans() {
    let mut c = testbed(11, 1);
    let out = c
        .query(NodeId(7), "SELECT count(*) WHERE a = true AND b = true")
        .unwrap();
    assert!(out.complete);
    let watch = c
        .subscribe(
            NodeId(7),
            "SELECT count(*) WHERE a = true",
            DeliveryPolicy::OnChange,
            SimDuration::from_secs(60),
        )
        .unwrap();
    c.run_to_quiescence();
    c.set_attr(NodeId(1), "a", true);
    c.run_to_quiescence();
    let last = c.take_sub_updates(NodeId(7), watch).pop().expect("updates");
    assert_eq!(last.result, AggResult::Value(Value::Int(21)));

    let tracer = c.tracer().unwrap();
    assert_eq!(tracer.dropped(), 0, "the ring kept every span");
    let wave = tracer.spans_for(tracer.recent(1)[0].trace_id);
    let hops = wave.iter().filter(|s| s.peer != NO_PEER).count();
    assert!(hops >= 2, "the flip's delta climbs two hops: {wave:#?}");
    let printed = render_spans(&c);
    let golden = include_str!("golden/traced_run.txt");
    assert!(
        printed == golden,
        "the traced run moved off its golden spans\n--- golden\n{golden}--- printed\n{printed}"
    );
}
