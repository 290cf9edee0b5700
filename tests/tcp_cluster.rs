//! The issue's acceptance scenario: a 3-node cluster over **real TCP
//! sockets** (loopback) answers `SELECT count(*) WHERE ServiceX = true`
//! correctly — every protocol message (status updates, routed sub-queries,
//! aggregating replies) crosses the kernel as a length-prefixed
//! `moara-wire` frame between per-node listeners.

use moara::aggregation::AggResult;
use moara::attributes::Value;
use moara::core::Cluster;
use moara::simnet::NodeId;
use moara_transport::TcpConfig;

#[test]
fn three_node_cluster_over_real_sockets_answers_the_quickstart_query() {
    let mut c = Cluster::builder()
        .nodes(3)
        .seed(42)
        .build_tcp(TcpConfig::seeded(42));

    // Every node really listens on its own loopback socket.
    let addrs: Vec<_> = (0..3u32)
        .map(|i| c.transport().local_addr(NodeId(i)).expect("has a listener"))
        .collect();
    assert_eq!(addrs.len(), 3);
    assert!(addrs.windows(2).all(|w| w[0] != w[1]));

    c.set_attr(NodeId(0), "ServiceX", true);
    c.set_attr(NodeId(1), "ServiceX", false);
    c.set_attr(NodeId(2), "ServiceX", true);
    c.run_to_quiescence();
    c.stats_mut().reset();

    let out = c
        .query(NodeId(1), "SELECT count(*) WHERE ServiceX = true")
        .unwrap();
    assert!(out.complete, "query must complete over TCP");
    assert_eq!(out.result, AggResult::Value(Value::Int(2)));
    assert!(out.messages > 0, "the answer crossed real sockets");

    // Group churn propagates over the sockets too.
    c.set_attr(NodeId(1), "ServiceX", true);
    c.set_attr(NodeId(0), "ServiceX", false);
    c.run_to_quiescence();
    let out = c
        .query(NodeId(2), "SELECT count(*) WHERE ServiceX = true")
        .unwrap();
    assert_eq!(out.result, AggResult::Value(Value::Int(2)));
}

/// Probe-cache invalidation over TCP sockets: two
/// identical composite queries share cached probe costs; a group
/// membership change at the front-end between queries bumps the churn
/// epoch, so the next query re-probes and returns the updated count.
#[test]
fn tcp_probe_cache_invalidation_reprobes_after_churn() {
    // Real sockets and the real clock: each query runs to quiescence, so
    // the probe counters read the same whatever order frames arrive in.
    let mut c = Cluster::builder()
        .nodes(16)
        .seed(31)
        .build_tcp(TcpConfig::seeded(31));
    for i in 0..16u32 {
        c.set_attr(NodeId(i), "a", i % 2 == 0); // 8 nodes, includes 0
        c.set_attr(NodeId(i), "c", i % 4 == 0); // 4 nodes, includes 0
    }
    c.run_to_quiescence();
    c.stats_mut().reset();

    let q = "SELECT count(*) WHERE a = true AND c = true";
    let first = c.query(NodeId(0), q).unwrap();
    assert!(first.complete);
    assert_eq!(first.result, AggResult::Value(Value::Int(4)));
    assert!(c.stats().counter("size_probes") > 0, "cold query probes");

    // Identical repeat: costs come from the probe cache.
    let probes_after_first = c.stats().counter("size_probes");
    let second = c.query(NodeId(0), q).unwrap();
    assert_eq!(second.result, AggResult::Value(Value::Int(4)));
    assert_eq!(
        c.stats().counter("size_probes"),
        probes_after_first,
        "warm repeat must not re-probe"
    );
    assert!(c.stats().counter("probe_cache_hits") > 0);

    // Group churn at the front-end: node 0 leaves `a` (and thus the
    // intersection). The epoch bump evicts the stale costs.
    let epoch_before = c.node(NodeId(0)).probe_cache_epoch();
    c.set_attr(NodeId(0), "a", false);
    c.run_to_quiescence();
    assert!(c.node(NodeId(0)).probe_cache_epoch() > epoch_before);

    let third = c.query(NodeId(0), q).unwrap();
    assert!(
        c.stats().counter("size_probes") > probes_after_first,
        "the query after churn must re-probe"
    );
    assert_eq!(
        third.result,
        AggResult::Value(Value::Int(3)),
        "the updated membership must be reflected"
    );
}

#[test]
fn tcp_cluster_handles_other_aggregates_and_composites() {
    let mut c = Cluster::builder()
        .nodes(4)
        .seed(7)
        .build_tcp(TcpConfig::seeded(7));
    for i in 0..4u32 {
        c.set_attr(NodeId(i), "CPU-Util", (i as i64) * 20); // 0,20,40,60
        c.set_attr(NodeId(i), "ServiceX", i != 3);
    }
    c.run_to_quiescence();

    let out = c
        .query(NodeId(0), "SELECT avg(CPU-Util) WHERE ServiceX = true")
        .unwrap();
    assert!(out.complete);
    assert_eq!(out.result, AggResult::Value(Value::Float(20.0)));

    let out = c
        .query(
            NodeId(3),
            "SELECT count(*) WHERE ServiceX = true AND CPU-Util < 30",
        )
        .unwrap();
    assert!(out.complete);
    assert_eq!(out.result, AggResult::Value(Value::Int(2)));
}
