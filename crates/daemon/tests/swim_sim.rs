//! The issue's acceptance scenario under deterministic simulation: a
//! daemon-shaped cluster (engine + SWIM detector + private directory per
//! node) where one node crashes at the *network* level, the survivors'
//! detectors confirm it without omniscient help, queries return the
//! surviving members' count, and a restart with a higher incarnation
//! rejoins and reappears in query results — replayable byte-for-byte.

use moara_core::{DeliveryPolicy, MoaraConfig};
use moara_daemon::SimSwarm;
use moara_membership::SwimConfig;
use moara_simnet::{NodeId, SimDuration};

fn outcome_count(out: &moara_core::QueryOutcome) -> i64 {
    match &out.result {
        moara_aggregation::AggResult::Value(moara_attributes::Value::Int(x)) => *x,
        moara_aggregation::AggResult::Empty => 0,
        other => panic!("unexpected result {other:?}"),
    }
}

fn service_swarm(n: usize, seed: u64) -> SimSwarm {
    let mut s = SimSwarm::new(n, MoaraConfig::default(), SwimConfig::fast(), seed);
    for i in 0..n as u32 {
        s.set_attr(NodeId(i), "ServiceX", true);
    }
    s.run_periods(5);
    s
}

#[test]
fn crash_is_confirmed_queries_shrink_and_rejoin_restores() {
    let mut s = service_swarm(3, 42);
    let q = "SELECT count(*) WHERE ServiceX = true";
    assert_eq!(outcome_count(&s.query(NodeId(0), q)), 3);

    // Crash node 2 at the network level: frames stop, nobody is told.
    s.crash(NodeId(2));
    s.run_periods(40);
    for survivor in [0u32, 1] {
        assert!(
            !s.believes_alive(NodeId(survivor), NodeId(2)),
            "survivor {survivor} must confirm the crash via its own detector"
        );
    }
    let out = s.query(NodeId(0), q);
    assert_eq!(
        outcome_count(&out),
        2,
        "the crashed member must leave query answers"
    );
    assert!(
        out.complete,
        "post-repair trees must not wait on the dead node"
    );

    // Restart with preserved attributes and a bumped incarnation: the
    // revival spreads by gossip, survivors reintegrate it, and it
    // reappears in query results.
    s.restart(NodeId(2));
    s.run_periods(40);
    for survivor in [0u32, 1] {
        assert!(
            s.believes_alive(NodeId(survivor), NodeId(2)),
            "survivor {survivor} must see the rejoin"
        );
    }
    let out = s.query(NodeId(1), q);
    assert_eq!(outcome_count(&out), 3, "the returnee re-enters its trees");
    assert!(out.complete);
}

#[test]
fn the_whole_failure_recovery_story_is_deterministic() {
    let run = || {
        let mut s = service_swarm(4, 7);
        let q = "SELECT count(*) WHERE ServiceX = true";
        let a = s.query(NodeId(1), q);
        s.crash(NodeId(3));
        s.run_periods(40);
        let b = s.query(NodeId(0), q);
        s.restart(NodeId(3));
        s.run_periods(40);
        let c = s.query(NodeId(2), q);
        (
            outcome_count(&a),
            outcome_count(&b),
            outcome_count(&c),
            format!("{:?}", (a.latency(), b.latency(), c.latency())),
        )
    };
    let first = run();
    assert_eq!(first, run(), "same seed ⇒ identical trace");
    assert_eq!((first.0, first.1, first.2), (4, 3, 4));
}

/// Ten failure-detector periods with nothing else on the wire.
fn idle_periods(s: &mut SimSwarm) -> Vec<String> {
    s.run_periods(10);
    Vec::new()
}

/// What a busy daemon's wire carries beside SWIM: three overlapping
/// groups of five, their pairwise intersections queried eight rounds
/// over through two front-ends, one standing subscription riding along,
/// and a group member flipping before rounds 3 and 6. Returns every
/// answer with its latency, then every subscription update.
fn queries_and_a_standing_subscription(s: &mut SimSwarm) -> Vec<String> {
    let n = s.len();
    for g in 0..3 {
        for i in 0..n {
            s.set_attr(NodeId(i as u32), &format!("g{g}"), (i + g * 3) % n < 5);
        }
    }
    let wid = s.subscribe(
        NodeId(0),
        "SELECT count(*) WHERE g0 = true",
        DeliveryPolicy::OnChange,
        SimDuration::from_secs(600),
    );
    let mut seen = Vec::new();
    for round in 0..8 {
        s.run_periods(2);
        if round == 3 || round == 6 {
            let node = NodeId(((round * 7) % n) as u32);
            s.set_attr(node, &format!("g{}", round % 3), round % 2 == 0);
        }
        for q in 0..3 {
            let text = format!(
                "SELECT count(*) WHERE g{q} = true AND g{} = true",
                (q + 1) % 3
            );
            let out = s.query(NodeId(((round + q) % 2) as u32), &text);
            assert!(out.complete, "round {round} query {q} incomplete");
            seen.push(format!("{} in {}", out.result, out.latency()));
        }
    }
    let updates = s.take_sub_updates(NodeId(0), wid);
    assert!(!updates.is_empty(), "the subscription must deliver");
    seen.extend(updates.iter().map(|u| format!("sub: {}", u.result)));
    seen
}

/// SWIM frames carry the detector's own payload and nothing else. On an
/// idle swarm, and with queries and a standing subscription's deltas
/// sharing the wire, messages, bytes and every answer with its latency
/// are pinned to what the same seed and workload gave when health digests
/// could still ride SWIM and were switched off.
#[test]
fn swim_traffic_is_pinned_with_nothing_piggybacked() {
    type Workload = fn(&mut SimSwarm) -> Vec<String>;
    // Three pairwise intersections a round for eight rounds: the third
    // grows to 1 once round 6's flip lands, and the first four walks
    // take 6 ms, the rest 4 ms.
    let third = |round| if round < 6 { 0 } else { 1 };
    let counts = (0..8).flat_map(|round| [2, 2, third(round)]);
    let mut busy: Vec<String> = (counts.enumerate())
        .map(|(i, c)| format!("{c} in {}.000ms", if i < 4 { 6 } else { 4 }))
        .collect();
    busy.extend(["sub: 5", "sub: 6"].map(String::from));
    let runs: [(u32, Workload, u64, u64, Vec<String>); 2] = [
        (4, idle_periods, 80, 2_960, Vec::new()),
        (16, queries_and_a_standing_subscription, 1_058, 49_407, busy),
    ];
    for (n, workload, msgs, bytes, seen) in runs {
        let mut s = service_swarm(n as usize, 23);
        s.stats_mut().reset();
        assert_eq!(workload(&mut s), seen, "{n} daemons: answers");
        let sent = (s.stats().total_messages(), s.stats().total_bytes());
        assert_eq!(sent, (msgs, bytes), "{n} daemons: messages and bytes");
    }
}

#[test]
fn interior_crash_does_not_lose_group_members() {
    // 8 daemons, 3 in the group; crash a *non*-member (which may be an
    // interior node of the group's tree): after confirmation the group
    // count must be intact.
    let mut s = SimSwarm::new(8, MoaraConfig::default(), SwimConfig::fast(), 11);
    for i in 0..3u32 {
        s.set_attr(NodeId(i), "ServiceX", true);
    }
    for i in 3..8u32 {
        s.set_attr(NodeId(i), "ServiceX", false);
    }
    s.run_periods(5);
    let q = "SELECT count(*) WHERE ServiceX = true";
    assert_eq!(outcome_count(&s.query(NodeId(4), q)), 3);
    s.crash(NodeId(6));
    s.run_periods(50);
    let out = s.query(NodeId(4), q);
    assert_eq!(outcome_count(&out), 3, "members must survive tree repair");
    assert!(out.complete);
}
