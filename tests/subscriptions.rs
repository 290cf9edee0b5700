//! Cluster-level tests of the continuous-query subscription plane:
//! initial sync, delta propagation, suppression (a quiescent subtree
//! sends zero frames), lease-expiry GC, explicit cancel, partition/heal
//! convergence, and crash/restart churn — on the deterministic simulator
//! plus one TCP twin of the basic lifecycle over real sockets.

use moara::core::Cluster;
use moara::simnet::{NodeId, SimDuration};
use moara::transport::TcpConfig;
use moara::{AggResult, DeliveryPolicy, Value};

fn count_result(n: i64) -> AggResult {
    AggResult::Value(Value::Int(n))
}

/// A 24-node cluster where nodes 0..group have `A = true`.
fn flagged_cluster(n: usize, group: u32, seed: u64) -> Cluster {
    let mut c = Cluster::builder().nodes(n).seed(seed).build();
    for i in 0..n as u32 {
        c.set_attr(NodeId(i), "A", i < group);
        c.set_attr(NodeId(i), "V", i as i64);
    }
    c.run_to_quiescence();
    c.stats_mut().reset();
    c
}

#[test]
fn subscribe_delivers_initial_result_then_deltas() {
    let mut c = flagged_cluster(24, 6, 11);
    let wid = c
        .subscribe(
            NodeId(3),
            "SELECT count(*) WHERE A = true",
            DeliveryPolicy::OnChange,
            SimDuration::from_secs(600),
        )
        .unwrap();
    c.run_to_quiescence();
    let ups = c.take_sub_updates(NodeId(3), wid);
    assert_eq!(ups.len(), 1, "exactly one initial update");
    assert!(ups[0].initial && ups[0].complete);
    assert_eq!(ups[0].result, count_result(6));

    // A member leaves the group: exactly one on-change update, correct.
    c.set_attr(NodeId(2), "A", false);
    c.run_to_quiescence();
    let ups = c.take_sub_updates(NodeId(3), wid);
    assert_eq!(ups.len(), 1);
    assert!(!ups[0].initial);
    assert_eq!(ups[0].result, count_result(5));

    // A non-member joins.
    c.set_attr(NodeId(20), "A", true);
    c.run_to_quiescence();
    let ups = c.take_sub_updates(NodeId(3), wid);
    assert_eq!(ups.len(), 1);
    assert_eq!(ups[0].result, count_result(6));

    // An unrelated attribute change emits nothing.
    c.set_attr(NodeId(5), "Other", 42i64);
    c.run_to_quiescence();
    assert!(c.take_sub_updates(NodeId(3), wid).is_empty());
}

#[test]
fn value_aggregates_track_attribute_changes() {
    let mut c = flagged_cluster(20, 4, 13);
    // sum(V) over members 0..4 = 0+1+2+3 = 6.
    let wid = c
        .subscribe(
            NodeId(7),
            "SELECT sum(V) WHERE A = true",
            DeliveryPolicy::OnChange,
            SimDuration::from_secs(600),
        )
        .unwrap();
    c.run_to_quiescence();
    let ups = c.take_sub_updates(NodeId(7), wid);
    assert_eq!(ups[0].result, count_result(6));

    // A member's value moves: the delta carries the new sum.
    c.set_attr(NodeId(2), "V", 100i64);
    c.run_to_quiescence();
    let ups = c.take_sub_updates(NodeId(7), wid);
    assert_eq!(ups.last().unwrap().result, count_result(104));

    // min over the group retracts when the minimum's holder leaves.
    let wid2 = c
        .subscribe(
            NodeId(7),
            "SELECT min(V) WHERE A = true",
            DeliveryPolicy::OnChange,
            SimDuration::from_secs(600),
        )
        .unwrap();
    c.run_to_quiescence();
    let ups = c.take_sub_updates(NodeId(7), wid2);
    assert_eq!(ups[0].result.as_f64(), Some(0.0));
    c.set_attr(NodeId(0), "A", false); // held the min (V = 0)
    c.run_to_quiescence();
    let ups = c.take_sub_updates(NodeId(7), wid2);
    assert_eq!(ups.last().unwrap().result.as_f64(), Some(1.0));
}

#[test]
fn quiescent_subtrees_send_zero_frames() {
    let mut c = flagged_cluster(32, 8, 17);
    let wid = c
        .subscribe(
            NodeId(1),
            "SELECT count(*) WHERE A = true",
            DeliveryPolicy::OnChange,
            SimDuration::from_secs(3600), // renewal far beyond the window
        )
        .unwrap();
    c.run_to_quiescence();
    assert_eq!(
        c.take_sub_updates(NodeId(1), wid)[0].result,
        count_result(8)
    );
    // Nothing changes for a minute of virtual time: the standing query
    // must cost zero frames (the whole point vs per-period polling).
    c.stats_mut().reset();
    c.run_for(SimDuration::from_secs(60));
    assert_eq!(
        c.stats().total_messages(),
        0,
        "quiescent subscription must be silent"
    );

    // One change costs only the changed root-ward path, not a re-query.
    let polled = {
        // Reference: what one poll of the same query costs.
        let mut poll = flagged_cluster(32, 8, 17);
        poll.query(NodeId(1), "SELECT count(*) WHERE A = true")
            .unwrap()
            .messages
    };
    c.stats_mut().reset();
    c.set_attr(NodeId(2), "A", false);
    c.run_to_quiescence();
    let delta_cost = c.stats().total_messages();
    assert!(
        c.stats().counter("sub_deltas") > 0,
        "change flowed as delta"
    );
    assert!(
        delta_cost < polled,
        "one delta ({delta_cost} msgs) must undercut one poll ({polled} msgs)"
    );
    assert_eq!(
        c.take_sub_updates(NodeId(1), wid).last().unwrap().result,
        count_result(7)
    );
}

#[test]
fn periodic_policy_emits_snapshots_at_poll_equivalent_freshness() {
    let mut c = flagged_cluster(16, 5, 19);
    let wid = c
        .subscribe(
            NodeId(0),
            "SELECT count(*) WHERE A = true",
            DeliveryPolicy::Periodic(SimDuration::from_secs(5)),
            SimDuration::from_secs(600),
        )
        .unwrap();
    c.run_to_quiescence();
    assert_eq!(c.take_sub_updates(NodeId(0), wid).len(), 1, "initial");
    // Three periods pass, one change in the middle: three snapshots.
    c.run_for(SimDuration::from_secs(4));
    c.set_attr(NodeId(10), "A", true);
    c.run_for(SimDuration::from_secs(11));
    let ups = c.take_sub_updates(NodeId(0), wid);
    assert_eq!(ups.len(), 3, "one snapshot per period");
    assert_eq!(ups.last().unwrap().result, count_result(6));
}

/// The dashboard workload, as exact counts: 48 nodes, `sum(V)` over a
/// group of eight read once per 5 s period for 24 periods, one member's
/// `V` moving mid-period every third period. Polling re-runs the query
/// each period; the standing query is installed once at the same period
/// and a 90 s lease, and afterwards only changed subtrees (69 delta
/// frames) and the half-lease renewals (96) send anything. Same 24
/// answers, 252 messages against 677. The counts move only when the
/// protocol does; a change that moves them says so by editing them here.
#[test]
fn standing_query_serves_polling_freshness_for_under_half_the_messages() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    const SEED: u64 = 1908;
    const QUERY: &str = "SELECT sum(V) WHERE A = true";
    let period = SimDuration::from_secs(5);

    let build = || {
        let mut c = Cluster::builder().nodes(48).seed(SEED).build();
        for i in 0..48u32 {
            c.set_attr(NodeId(i), "A", i < 8);
            c.set_attr(NodeId(i), "V", i64::from(i % 10));
        }
        c.run_to_quiescence();
        c.stats_mut().reset();
        c
    };
    // The history both arms replay, `read` called at each period's end.
    let replay = |c: &mut Cluster, read: &mut dyn FnMut(&mut Cluster)| {
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x5b5);
        let half = SimDuration::from_micros(period.as_micros() / 2);
        for p in 0..24 {
            c.run_for(half);
            if p % 3 == 0 {
                let member = NodeId(rng.gen_range(0..8));
                c.set_attr(member, "V", rng.gen_range(0..1000i64));
            }
            c.run_for(half);
            read(c);
        }
    };

    let mut poll = build();
    let mut polled = Vec::new();
    replay(&mut poll, &mut |c| {
        let out = c.query(NodeId(0), QUERY).unwrap();
        assert!(out.complete);
        polled.push(out.result);
    });

    let mut sub = build();
    let wid = sub
        .subscribe(
            NodeId(0),
            QUERY,
            DeliveryPolicy::Periodic(period),
            SimDuration::from_secs(90),
        )
        .unwrap();
    sub.run_to_quiescence(); // the initial sync is charged to this arm
    let initial = sub.take_sub_updates(NodeId(0), wid);
    assert_eq!(initial.len(), 1, "one initial update");
    assert!(initial[0].complete);
    replay(&mut sub, &mut |_| {});
    let snapshots: Vec<AggResult> = sub
        .take_sub_updates(NodeId(0), wid)
        .into_iter()
        .map(|u| u.result)
        .collect();

    assert_eq!(polled.len(), 24);
    assert_eq!(
        snapshots, polled,
        "one snapshot per period, equal to a poll"
    );
    let (poll, sub) = (poll.stats(), sub.stats());
    assert_eq!(poll.total_messages(), 677);
    assert_eq!(
        (
            sub.total_messages(),
            sub.counter("sub_deltas"),
            sub.counter("sub_renews"),
            sub.counter("sub_suppressed"),
        ),
        (252, 69, 96, 0)
    );
    assert!(
        sub.total_messages() * 2 <= poll.total_messages(),
        "a standing query must at least halve the message bill"
    );
}

#[test]
fn threshold_policy_emits_on_crossings_only() {
    let mut c = flagged_cluster(16, 3, 23);
    let wid = c
        .subscribe(
            NodeId(2),
            "SELECT count(*) WHERE A = true",
            DeliveryPolicy::Threshold { value: 5.0 },
            SimDuration::from_secs(600),
        )
        .unwrap();
    c.run_to_quiescence();
    assert_eq!(c.take_sub_updates(NodeId(2), wid).len(), 1, "initial");
    // 3 → 4: still below 5, silent.
    c.set_attr(NodeId(10), "A", true);
    c.run_to_quiescence();
    assert!(c.take_sub_updates(NodeId(2), wid).is_empty());
    // 4 → 5: crosses.
    c.set_attr(NodeId(11), "A", true);
    c.run_to_quiescence();
    let ups = c.take_sub_updates(NodeId(2), wid);
    assert_eq!(ups.len(), 1);
    assert_eq!(ups[0].result, count_result(5));
    // 5 → 4: crosses back.
    c.set_attr(NodeId(11), "A", false);
    c.run_to_quiescence();
    assert_eq!(c.take_sub_updates(NodeId(2), wid).len(), 1);
}

#[test]
fn explicit_unsubscribe_tears_state_down_everywhere() {
    let mut c = flagged_cluster(24, 6, 29);
    let wid = c
        .subscribe(
            NodeId(4),
            "SELECT count(*) WHERE A = true",
            DeliveryPolicy::OnChange,
            SimDuration::from_secs(600),
        )
        .unwrap();
    c.run_to_quiescence();
    assert!(c.sub_entries_total() > 0, "entries pinned along the tree");
    c.unsubscribe(NodeId(4), wid);
    c.run_to_quiescence();
    assert_eq!(c.sub_entries_total(), 0, "cancel reaped every entry");
    // Later changes reach nobody.
    c.set_attr(NodeId(1), "A", false);
    c.run_to_quiescence();
    assert!(c.take_sub_updates(NodeId(4), wid).is_empty());
}

#[test]
fn lease_expiry_garbage_collects_when_the_subscriber_dies() {
    let mut c = flagged_cluster(24, 6, 31);
    let origin = NodeId(4);
    c.subscribe(
        origin,
        "SELECT count(*) WHERE A = true",
        DeliveryPolicy::OnChange,
        SimDuration::from_secs(20),
    )
    .unwrap();
    c.run_to_quiescence();
    assert!(c.sub_entries_total() > 0);
    // The subscriber crashes: renewals stop. (fail_node triggers
    // reconcile everywhere, which must not resurrect the watch.)
    c.fail_node(origin);
    c.run_for(SimDuration::from_secs(21));
    assert_eq!(
        c.sub_entries_total(),
        0,
        "every per-node entry must lapse within one lease"
    );
}

#[test]
fn renewals_keep_state_alive_past_many_leases() {
    let mut c = flagged_cluster(24, 6, 37);
    let wid = c
        .subscribe(
            NodeId(4),
            "SELECT count(*) WHERE A = true",
            DeliveryPolicy::OnChange,
            SimDuration::from_secs(10),
        )
        .unwrap();
    c.run_to_quiescence();
    c.take_sub_updates(NodeId(4), wid);
    // Five lease durations pass; the half-lease renewals keep every
    // entry alive and the result still tracks changes.
    c.run_for(SimDuration::from_secs(50));
    assert!(c.sub_entries_total() > 0, "renewals kept the plane alive");
    c.set_attr(NodeId(1), "A", false);
    c.run_to_quiescence();
    let ups = c.take_sub_updates(NodeId(4), wid);
    assert_eq!(ups.last().unwrap().result, count_result(5));
}

#[test]
fn partition_heal_reconverges_via_renewal_anti_entropy() {
    let mut c = flagged_cluster(20, 6, 41);
    let wid = c
        .subscribe(
            NodeId(0),
            "SELECT count(*) WHERE A = true",
            DeliveryPolicy::OnChange,
            SimDuration::from_secs(8),
        )
        .unwrap();
    c.run_to_quiescence();
    assert_eq!(
        c.take_sub_updates(NodeId(0), wid)[0].result,
        count_result(6)
    );
    // Cut a chunk of the cluster off; group churn happens on BOTH sides
    // while deltas are being lost.
    let side: Vec<NodeId> = (10..20).map(NodeId).collect();
    c.partition(&side);
    c.set_attr(NodeId(1), "A", false); // member leaves (origin side)
    c.set_attr(NodeId(12), "A", true); // joins on the far side (lost)
    c.run_for(SimDuration::from_secs(4));
    c.heal();
    // After heal, the half-lease renewal sweep carries last-seen delta
    // sequences; mismatches re-push lost replacement states and bounced
    // cancels re-install lapsed entries. Give it a few cycles.
    c.run_for(SimDuration::from_secs(20));
    let truth = c
        .group_members(&moara::SimplePredicate::new(
            "A",
            moara::query::CmpOp::Eq,
            true,
        ))
        .len() as i64;
    let got = c
        .take_sub_updates(NodeId(0), wid)
        .last()
        .map(|u| u.result.clone());
    assert_eq!(got, Some(count_result(truth)), "standing result converged");
}

#[test]
fn isolation_outliving_the_lease_repairs_via_cancel_bounce() {
    // The subscriber is cut off for longer than the lease: every remote
    // entry expires. After heal, the next renewal reaches a root that no
    // longer knows the subscription; the root bounces a SubCancel to the
    // origin, whose watch treats it as a repair signal and re-pins the
    // trees with a full install.
    let mut c = flagged_cluster(16, 5, 61);
    let origin = NodeId(0);
    let wid = c
        .subscribe(
            origin,
            "SELECT count(*) WHERE A = true",
            DeliveryPolicy::OnChange,
            SimDuration::from_secs(8),
        )
        .unwrap();
    c.run_to_quiescence();
    assert_eq!(c.take_sub_updates(origin, wid)[0].result, count_result(5));
    c.partition(&[origin]);
    c.run_for(SimDuration::from_secs(20)); // > lease: all entries lapse
    assert_eq!(c.sub_entries_total(), 0, "remote state expired");
    c.heal();
    c.run_for(SimDuration::from_secs(10)); // renewal → bounce → re-pin
    assert!(c.sub_entries_total() > 0, "watch re-pinned its trees");
    c.set_attr(NodeId(1), "A", false);
    c.run_to_quiescence();
    assert_eq!(
        c.take_sub_updates(origin, wid)
            .last()
            .map(|u| u.result.clone()),
        Some(count_result(4)),
        "standing result tracks changes again after the repair"
    );
}

#[test]
fn crash_and_restart_repair_the_standing_result() {
    let mut c = flagged_cluster(20, 6, 43);
    let wid = c
        .subscribe(
            NodeId(0),
            "SELECT count(*) WHERE A = true",
            DeliveryPolicy::OnChange,
            SimDuration::from_secs(600),
        )
        .unwrap();
    c.run_to_quiescence();
    assert_eq!(
        c.take_sub_updates(NodeId(0), wid)[0].result,
        count_result(6)
    );
    // A group member crashes: the failure hooks retract its summary and
    // the reconciled tree re-installs around it.
    c.fail_node(NodeId(2));
    c.run_to_quiescence();
    let ups = c.take_sub_updates(NodeId(0), wid);
    assert_eq!(
        ups.last().map(|u| u.result.clone()),
        Some(count_result(5)),
        "confirmed failure shrank the standing result"
    );
    // It restarts with its attributes intact: the repair wave re-pins it
    // and the result recovers.
    c.restart_node(NodeId(2));
    c.run_to_quiescence();
    let ups = c.take_sub_updates(NodeId(0), wid);
    assert_eq!(
        ups.last().map(|u| u.result.clone()),
        Some(count_result(6)),
        "rejoin restored the standing result"
    );
}

#[test]
fn composite_covers_do_not_double_count_overlapping_groups() {
    let mut c = Cluster::builder().nodes(24).seed(47).build();
    for i in 0..24u32 {
        // Groups overlap: nodes 0..6 are in X, 4..10 in Y.
        c.set_attr(NodeId(i), "X", i < 6);
        c.set_attr(NodeId(i), "Y", (4..10).contains(&i));
    }
    c.run_to_quiescence();
    let wid = c
        .subscribe(
            NodeId(3),
            "SELECT count(*) WHERE X = true OR Y = true",
            DeliveryPolicy::OnChange,
            SimDuration::from_secs(600),
        )
        .unwrap();
    c.run_to_quiescence();
    let ups = c.take_sub_updates(NodeId(3), wid);
    assert_eq!(
        ups[0].result,
        count_result(10),
        "union of overlapping groups counts each node once"
    );
    // A node in BOTH groups leaves one of them: still a member via the
    // other; the standing count must not move.
    c.set_attr(NodeId(5), "X", false);
    c.run_to_quiescence();
    let after: Vec<_> = c.take_sub_updates(NodeId(3), wid);
    assert!(
        after.is_empty() || after.last().unwrap().result == count_result(10),
        "membership unchanged ⇒ count unchanged, got {after:?}"
    );
    // Leaving both groups does move it.
    c.set_attr(NodeId(5), "Y", false);
    c.run_to_quiescence();
    let ups = c.take_sub_updates(NodeId(3), wid);
    assert_eq!(ups.last().unwrap().result, count_result(9));
}

#[test]
fn unsatisfiable_subscription_answers_locally() {
    let mut c = flagged_cluster(8, 2, 53);
    c.stats_mut().reset();
    let wid = c
        .subscribe(
            NodeId(0),
            "SELECT count(*) WHERE A = true AND A = false",
            DeliveryPolicy::OnChange,
            SimDuration::from_secs(600),
        )
        .unwrap();
    let ups = c.take_sub_updates(NodeId(0), wid);
    assert_eq!(ups.len(), 1);
    assert_eq!(ups[0].result, count_result(0));
    assert_eq!(c.stats().total_messages(), 0, "no communication at all");
}

#[test]
fn tcp_twin_runs_the_basic_lifecycle() {
    // Same protocol over real loopback sockets: subscribe → initial →
    // delta → crash shrink → restart restore.
    let mut c = Cluster::builder()
        .nodes(12)
        .seed(59)
        .build_tcp(TcpConfig::seeded(59));
    for i in 0..12u32 {
        c.set_attr(NodeId(i), "A", i < 4);
    }
    c.run_to_quiescence();
    let wid = c
        .subscribe(
            NodeId(1),
            "SELECT count(*) WHERE A = true",
            DeliveryPolicy::OnChange,
            SimDuration::from_secs(600),
        )
        .unwrap();
    c.run_to_quiescence();
    let ups = c.take_sub_updates(NodeId(1), wid);
    assert_eq!(ups.len(), 1);
    assert_eq!(ups[0].result, count_result(4));

    c.set_attr(NodeId(7), "A", true);
    c.run_to_quiescence();
    assert_eq!(
        c.take_sub_updates(NodeId(1), wid).last().unwrap().result,
        count_result(5)
    );

    c.fail_node(NodeId(0));
    c.run_to_quiescence();
    assert_eq!(
        c.take_sub_updates(NodeId(1), wid).last().unwrap().result,
        count_result(4)
    );
    c.restart_node(NodeId(0));
    c.run_to_quiescence();
    assert_eq!(
        c.take_sub_updates(NodeId(1), wid).last().unwrap().result,
        count_result(5)
    );
}
