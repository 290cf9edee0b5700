//! The adaptive query-plane scheduler end to end: per-query message
//! accounting under overlapping queries, probe-cost caching with
//! churn-driven invalidation, probe coalescing across concurrent
//! queries, and batched fan-out.

use moara::{AggResult, Cluster, MoaraConfig, NodeId, ProbeCachePolicy, Value};

fn count_of(out: &moara::QueryOutcome) -> i64 {
    match &out.result {
        AggResult::Value(Value::Int(x)) => *x,
        AggResult::Empty => 0,
        other => panic!("unexpected result {other:?}"),
    }
}

/// 60 nodes with three overlapping boolean groups.
fn testbed(cfg: MoaraConfig, seed: u64) -> Cluster {
    let mut c = Cluster::builder().nodes(60).seed(seed).config(cfg).build();
    for i in 0..60u32 {
        let node = NodeId(i);
        c.set_attr(node, "a", i % 2 == 0); // 30 nodes
        c.set_attr(node, "b", i % 3 == 0); // 20 nodes
        c.set_attr(node, "c", i % 5 == 0); // 12 nodes
    }
    c.run_to_quiescence();
    c.stats_mut().reset();
    c
}

/// Regression for the old harness accounting: `QueryOutcome::messages`
/// came from a global before/after snapshot, so overlapping queries read
/// 0 (async path) or each other's traffic (sync path). Messages are now
/// tagged with their `QueryId` at the transport, so every outcome reports
/// its own traffic even when queries run concurrently.
#[test]
fn overlapping_queries_account_messages_separately() {
    let mut c = testbed(MoaraConfig::default(), 21);
    // Three queries in flight at once, from three different front-ends.
    let fa = c.submit(
        NodeId(0),
        moara::parse_query("SELECT count(*) WHERE a = true").unwrap(),
    );
    let fb = c.submit(
        NodeId(1),
        moara::parse_query("SELECT count(*) WHERE b = true").unwrap(),
    );
    let fc = c.submit(
        NodeId(2),
        moara::parse_query("SELECT count(*) WHERE c = true").unwrap(),
    );
    c.run_to_quiescence();

    let a = c.take_outcome(NodeId(0), fa).expect("a finished");
    let b = c.take_outcome(NodeId(1), fb).expect("b finished");
    let cc = c.take_outcome(NodeId(2), fc).expect("c finished");
    assert!(a.complete && b.complete && cc.complete);
    assert_eq!(count_of(&a), 30);
    assert_eq!(count_of(&b), 20);
    assert_eq!(count_of(&cc), 12);

    // Every overlapping query reports its own (non-zero) traffic…
    for (name, out) in [("a", &a), ("b", &b), ("c", &cc)] {
        assert!(out.messages > 0, "query {name} reported 0 messages");
    }
    // …and the per-query figures are a decomposition of (a subset of)
    // the system total, not copies of it.
    let tagged = a.messages + b.messages + cc.messages;
    let total = c.stats().total_messages();
    assert!(
        tagged <= total,
        "tagged {tagged} must not exceed total {total}"
    );
    for out in [&a, &b, &cc] {
        assert!(out.messages < total, "one query charged the whole system");
    }
}

#[test]
fn repeated_composite_query_skips_probe_phase() {
    let mut c = testbed(MoaraConfig::default(), 22);
    let q = "SELECT count(*) WHERE a = true AND c = true";
    // First query must probe (two candidate covers, no cache).
    let first = c.query(NodeId(0), q).unwrap();
    assert_eq!(count_of(&first), 6); // multiples of 10
    assert!(c.stats().counter("size_probes") > 0);
    // Let pruning/statuses settle, then measure a steady-state repeat.
    let _ = c.query(NodeId(0), q).unwrap();
    let probes_before = c.stats().counter("size_probes");
    let repeat = c.query(NodeId(0), q).unwrap();
    assert_eq!(count_of(&repeat), 6);
    assert_eq!(
        c.stats().counter("size_probes"),
        probes_before,
        "a warm repeat must not send probes"
    );
    assert!(c.stats().counter("probe_cache_hits") > 0);
    assert!(
        repeat.messages < first.messages,
        "cached repeat ({}) should cost less than the cold query ({})",
        repeat.messages,
        first.messages
    );
}

#[test]
fn probe_cache_off_reprobes_every_query() {
    let cfg = MoaraConfig::default().with_probe_cache(ProbeCachePolicy::Off);
    let mut c = testbed(cfg, 23);
    let q = "SELECT count(*) WHERE a = true AND c = true";
    let _ = c.query(NodeId(0), q).unwrap();
    let probes_before = c.stats().counter("size_probes");
    let _ = c.query(NodeId(0), q).unwrap();
    assert!(
        c.stats().counter("size_probes") > probes_before,
        "with the cache off every composite query re-probes"
    );
    assert_eq!(c.stats().counter("probe_cache_hits"), 0);
}

#[test]
fn local_churn_invalidates_the_probe_cache() {
    let mut c = testbed(MoaraConfig::default(), 24);
    let q = "SELECT count(*) WHERE a = true AND c = true";
    let _ = c.query(NodeId(0), q).unwrap();
    let _ = c.query(NodeId(0), q).unwrap();
    let probes_before = c.stats().counter("size_probes");
    let epoch_before = c.node(NodeId(0)).probe_cache_epoch();
    // Node 0 (the front-end) leaves group `a`: direct churn evidence.
    c.set_attr(NodeId(0), "a", false);
    c.run_to_quiescence();
    assert!(
        c.node(NodeId(0)).probe_cache_epoch() > epoch_before,
        "local churn must bump the cache epoch"
    );
    let out = c.query(NodeId(0), q).unwrap();
    assert!(
        c.stats().counter("size_probes") > probes_before,
        "the query after churn must re-probe"
    );
    assert_eq!(count_of(&out), 5, "node 0 left the intersection");
}

#[test]
fn concurrent_identical_queries_share_one_probe() {
    let mut c = testbed(MoaraConfig::default(), 25);
    let parse = |t: &str| moara::parse_query(t).unwrap();
    let q = "SELECT count(*) WHERE a = true AND c = true";
    // Submit twice back-to-back from one front-end: the second query's
    // probes coalesce onto the first's in-flight ones.
    let f1 = c.submit(NodeId(3), parse(q));
    let f2 = c.submit(NodeId(3), parse(q));
    c.run_to_quiescence();
    let o1 = c.take_outcome(NodeId(3), f1).expect("first finished");
    let o2 = c.take_outcome(NodeId(3), f2).expect("second finished");
    assert_eq!(count_of(&o1), 6);
    assert_eq!(count_of(&o2), 6);
    assert!(
        c.stats().counter("probes_coalesced") > 0,
        "the second query should piggyback on in-flight probes"
    );
}

#[test]
fn union_fanout_batches_and_stays_exact() {
    // Unions have a single forced cover (no probes — the plan has one
    // candidate), so the fan-out to all group trees leaves immediately
    // and same-next-hop sub-queries share frames. Eight group trees from
    // one front-end guarantee shared first hops on a 60-node overlay.
    let mut c = Cluster::builder().nodes(60).seed(26).build();
    for i in 0..60u32 {
        for g in 0..8u32 {
            c.set_attr(NodeId(i), &format!("g{g}"), i % 8 == g);
        }
    }
    c.run_to_quiescence();
    c.stats_mut().reset();
    let union: Vec<String> = (0..8).map(|g| format!("g{g} = true")).collect();
    let out = c
        .query(
            NodeId(0),
            &format!("SELECT count(*) WHERE {}", union.join(" OR ")),
        )
        .unwrap();
    assert_eq!(count_of(&out), 60, "the eight groups partition all nodes");
    assert_eq!(
        c.stats().counter("size_probes"),
        0,
        "a pure union has one candidate cover; probing it is waste"
    );
    assert!(
        c.stats().counter("batched_fanout") > 0,
        "eight sub-queries from one front should share at least one hop"
    );
}

/// Regression: a probe whose reply never comes must not absorb all later
/// traffic. Once the in-flight probe is older than the probe timeout,
/// the next query re-sends it instead of coalescing forever.
#[test]
fn aged_probe_is_resent_instead_of_coalesced_forever() {
    use moara::simnet::{latency::Constant, SimDuration};
    // One-way latency far above the 3s probe timeout stands in for a
    // lost reply: no probe can be answered before the waiters time out.
    let mut c = Cluster::builder()
        .nodes(16)
        .seed(28)
        .latency(Constant::from_millis(10_000))
        .build();
    for i in 0..16u32 {
        c.set_attr(NodeId(i), "a", i % 2 == 0);
        c.set_attr(NodeId(i), "c", i % 4 == 0);
    }
    c.run_to_quiescence();
    c.stats_mut().reset();

    let parse = |t: &str| moara::parse_query(t).unwrap();
    let q = "SELECT count(*) WHERE a = true AND c = true";
    let _f1 = c.submit(NodeId(0), parse(q));
    let probes_first = c.stats().counter("size_probes");
    assert!(probes_first > 0);

    // One second in: the probe is still believed in flight → coalesce.
    c.run_for(SimDuration::from_secs(1));
    let _f2 = c.submit(NodeId(0), parse(q));
    assert_eq!(c.stats().counter("size_probes"), probes_first);
    assert!(c.stats().counter("probes_coalesced") > 0);

    // 3.5 seconds in: the first front has timed out, the second still
    // waits, and the probe has aged past the probe timeout — the next
    // query must re-send rather than piggyback on a dead probe.
    c.run_for(SimDuration::from_millis(2_500));
    let _f3 = c.submit(NodeId(0), parse(q));
    assert!(
        c.stats().counter("size_probes") > probes_first,
        "an aged in-flight probe must be re-sent"
    );
    c.run_to_quiescence();
}

#[test]
fn global_and_single_group_queries_bypass_the_scheduler() {
    let mut c = testbed(MoaraConfig::default(), 27);
    let g = c.query(NodeId(0), "SELECT count(*)").unwrap();
    assert_eq!(count_of(&g), 60);
    let s = c
        .query(NodeId(0), "SELECT count(*) WHERE b = true")
        .unwrap();
    assert_eq!(count_of(&s), 20);
    assert_eq!(c.stats().counter("size_probes"), 0);
    assert_eq!(c.stats().counter("probe_cache_hits"), 0);
}

/// What one arm of [`probe_cache_saves_a_third_of_repeated_composite_traffic`]
/// cost and answered.
struct RepeatedRun {
    messages: u64,
    bytes: u64,
    probes: u64,
    cache_hits: u64,
    /// Virtual time, summed over the 24 queries.
    latency_ms: u64,
    answers: Vec<String>,
}

/// Heavy *repeated* composite traffic: 48 nodes, four overlapping groups
/// of six, and the four rotations of their 4-way intersection issued six
/// rounds over through two front-ends (the probe cache is per front-end),
/// with three attribute flips before round 3. A warm-up round builds and
/// prunes the trees first, so the counts are the steady state.
fn repeated_composite_run(policy: ProbeCachePolicy, trace_sample: u64) -> RepeatedRun {
    use rand::rngs::StdRng;
    use rand::{seq::SliceRandom, Rng, SeedableRng};
    const SEED: u64 = 77;
    const NODES: usize = 48;
    const GROUPS: usize = 4;

    let mut c = Cluster::builder()
        .nodes(NODES)
        .seed(SEED)
        .config(MoaraConfig::default().with_probe_cache(policy))
        .tracing(trace_sample)
        .build();
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x51ed);
    for g in 0..GROUPS {
        let mut ids: Vec<NodeId> = (0..NODES as u32).map(NodeId).collect();
        ids.shuffle(&mut rng);
        for (i, node) in ids.into_iter().enumerate() {
            c.set_attr(node, &format!("g{g}"), i < 6);
        }
    }
    c.run_to_quiescence();

    // Every rotation names all four groups, so the planner has four
    // candidate trees per query and probe costs genuinely steer it.
    let text = |q: usize| {
        let g = |k: usize| (q + k) % GROUPS;
        format!(
            "SELECT count(*) WHERE g{} = true AND g{} = true AND g{} = true AND g{} = true",
            g(0),
            g(1),
            g(2),
            g(3)
        )
    };
    for q in 0..GROUPS {
        c.query(NodeId((q % 2) as u32), &text(q)).unwrap();
    }
    c.stats_mut().reset();

    let mut churn = StdRng::seed_from_u64(SEED ^ 0xc8a0);
    let mut latency_ms = 0;
    let mut answers = Vec::new();
    for round in 0..6 {
        if round == 3 {
            for _ in 0..3 {
                let node = NodeId(churn.gen_range(0..NODES) as u32);
                let attr = format!("g{}", churn.gen_range(0..GROUPS));
                let cur = c.node(node).store.get(&attr) == Some(&Value::Bool(true));
                c.set_attr(node, &attr, !cur);
            }
            c.run_to_quiescence();
        }
        for q in 0..GROUPS {
            let out = c.query(NodeId(((round + q) % 2) as u32), &text(q)).unwrap();
            assert!(out.complete, "round {round} query {q} incomplete");
            latency_ms += out.latency().as_millis();
            answers.push(out.result.to_string());
        }
    }
    let stats = c.stats();
    RepeatedRun {
        messages: stats.total_messages(),
        bytes: stats.total_bytes(),
        probes: stats.counter("size_probes"),
        cache_hits: stats.counter("probe_cache_hits"),
        latency_ms,
        answers,
    }
}

/// The scheduler's reason to exist, as exact counts: under repeated
/// composite traffic the probe cache answers every size probe (96 of 96)
/// and takes 192 of 553 messages — a third — and three milliseconds off
/// every query, and tracing every query rides the same messages (0 more)
/// as extra bytes only. No arm may change a single answer. The counts
/// move only when the protocol does; a change that moves them says so by
/// editing them here.
#[test]
fn probe_cache_saves_a_third_of_repeated_composite_traffic() {
    let off = repeated_composite_run(ProbeCachePolicy::Off, 0);
    let on = repeated_composite_run(ProbeCachePolicy::default_cache(), 0);
    let traced = repeated_composite_run(ProbeCachePolicy::default_cache(), 1);

    assert_eq!(off.answers.len(), 24);
    assert_eq!(off.answers, on.answers, "caching changed an answer");
    assert_eq!(on.answers, traced.answers, "tracing changed an answer");

    assert_eq!(
        (off.messages, off.probes, off.cache_hits),
        (553, 96, 0),
        "cache off: four probes per query, every query"
    );
    assert_eq!(
        (on.messages, on.probes, on.cache_hits),
        (361, 0, 96),
        "cache on: every probe answered from the cache"
    );
    assert!(
        (off.messages - on.messages) * 10 >= off.messages * 3,
        "the cache must save at least 30% of messages"
    );
    assert_eq!(
        (off.latency_ms, on.latency_ms),
        (24 * 7, 24 * 4),
        "and the probe round trip off every query"
    );

    assert_eq!(
        (traced.messages, traced.probes, traced.cache_hits),
        (on.messages, on.probes, on.cache_hits),
        "trace contexts ride existing messages"
    );
    assert!(traced.bytes > on.bytes, "and are on the wire as bytes");
    assert_eq!(traced.latency_ms, on.latency_ms);
}
