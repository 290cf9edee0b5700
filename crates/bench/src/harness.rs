//! Shared experiment plumbing for the figure binaries.

use moara_core::{Cluster, MoaraConfig};
use moara_simnet::{LatencyModel, NodeId};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};

/// The simulation experiments' standard query (paper Section 7.1): every
/// node holds a binary attribute `A`; queries count the nodes with `A = 1`.
pub const COUNT_QUERY: &str = "SELECT count(*) WHERE A = 1";

/// The canonical simple predicate behind [`COUNT_QUERY`].
pub fn count_pred() -> moara_query::SimplePredicate {
    moara_query::SimplePredicate::new("A", moara_query::CmpOp::Eq, 1i64)
}

/// Builds a cluster of `n` nodes where a random `group_size`-subset has
/// `A = 1` and the rest `A = 0`; returns the cluster and the group members.
/// Statistics are reset after setup.
pub fn build_group_cluster(
    n: usize,
    group_size: usize,
    cfg: MoaraConfig,
    latency: impl LatencyModel + 'static,
    seed: u64,
) -> (Cluster, Vec<NodeId>) {
    build_group_cluster_filtered(n, group_size, cfg, latency, seed, |_| true)
}

/// Like [`build_group_cluster`], but group members are drawn only from
/// nodes passing `eligible` — e.g. responsive PlanetLab hosts (slices run
/// on usable machines, while a centralized monitor still polls everyone).
pub fn build_group_cluster_filtered(
    n: usize,
    group_size: usize,
    cfg: MoaraConfig,
    latency: impl LatencyModel + 'static,
    seed: u64,
    eligible: impl Fn(NodeId) -> bool,
) -> (Cluster, Vec<NodeId>) {
    let mut cluster = Cluster::builder()
        .nodes(n)
        .seed(seed)
        .latency(latency)
        .config(cfg)
        .build();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
    let mut ids: Vec<NodeId> = (0..n as u32).map(NodeId).filter(|&x| eligible(x)).collect();
    ids.shuffle(&mut rng);
    let members: Vec<NodeId> = ids[..group_size.min(ids.len())].to_vec();
    for i in 0..n as u32 {
        let node = NodeId(i);
        let val: i64 = i64::from(members.contains(&node));
        cluster.set_attr(node, "A", val);
    }
    cluster.run_to_quiescence();
    cluster.stats_mut().reset();
    (cluster, members)
}

/// One attribute-churn event: toggles `A` at `m` random alive nodes
/// (paper Section 7.1's churn-burst model).
pub fn churn_burst(cluster: &mut Cluster, rng: &mut StdRng, m: usize) {
    let n = cluster.len();
    for _ in 0..m {
        let node = NodeId(rng.gen_range(0..n) as u32);
        if !cluster.is_alive(node) {
            continue;
        }
        let cur = cluster
            .node(node)
            .store
            .get("A")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        cluster.set_attr(node, "A", if cur > 0.5 { 0i64 } else { 1i64 });
    }
    cluster.run_to_quiescence();
}

/// Swap-churn for the dynamic-group experiments (Figure 12(b)): `churn`
/// current members leave the group and `churn` non-members join, keeping
/// the group size constant.
pub fn swap_churn(cluster: &mut Cluster, rng: &mut StdRng, churn: usize) {
    let members: Vec<NodeId> = cluster.group_members(&count_pred());
    let non_members: Vec<NodeId> = cluster
        .node_ids()
        .into_iter()
        .filter(|n| cluster.is_alive(*n) && !members.contains(n))
        .collect();
    let leave: Vec<NodeId> = members
        .choose_multiple(rng, churn.min(members.len()))
        .copied()
        .collect();
    let join: Vec<NodeId> = non_members
        .choose_multiple(rng, churn.min(non_members.len()))
        .copied()
        .collect();
    for n in leave {
        cluster.set_attr(n, "A", 0i64);
    }
    for n in join {
        cluster.set_attr(n, "A", 1i64);
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The `p`-th percentile (0–100) of an unsorted slice, by the ceil-based
/// nearest-rank definition: the smallest observation with at least `p`%
/// of the sample at or below it. (A rounded rank resolves *below* the
/// requested percentile at small N — e.g. "p99" of 100 samples landing
/// on the 98th — silently flattering tail-latency figures.)
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    v[rank.clamp(1, n) - 1]
}

/// Prints a CDF (cumulative fraction vs value) at the given fractions.
pub fn print_cdf(label: &str, xs: &[f64], unit: &str) {
    print!("{label:24}");
    for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
        print!("  p{p:<3.0}={:>9.3}{unit}", percentile(xs, p));
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use moara_simnet::latency::Constant;

    #[test]
    fn group_cluster_has_exact_group() {
        let (cluster, members) =
            build_group_cluster(40, 10, MoaraConfig::default(), Constant::from_millis(1), 5);
        assert_eq!(members.len(), 10);
        assert_eq!(cluster.group_members(&count_pred()).len(), 10);
        assert_eq!(cluster.stats().total_messages(), 0, "stats reset");
    }

    #[test]
    fn churn_burst_toggles() {
        let (mut cluster, _) =
            build_group_cluster(30, 10, MoaraConfig::default(), Constant::from_millis(1), 6);
        let mut rng = StdRng::seed_from_u64(1);
        churn_burst(&mut cluster, &mut rng, 15);
        let size = cluster.group_members(&count_pred()).len();
        assert_ne!(size, 10, "toggling should change group composition");
    }

    #[test]
    fn swap_churn_keeps_group_size() {
        let (mut cluster, _) =
            build_group_cluster(50, 20, MoaraConfig::default(), Constant::from_millis(1), 7);
        let mut rng = StdRng::seed_from_u64(2);
        swap_churn(&mut cluster, &mut rng, 5);
        cluster.run_to_quiescence();
        assert_eq!(cluster.group_members(&count_pred()).len(), 20);
    }

    #[test]
    fn percentile_and_mean() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        // Ceil-based nearest-rank, pinned exactly: p0 clamps to the min,
        // p50 of 4 samples is the 2nd, the tail percentiles the 4th.
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 2.0).abs() < 1e-12);
        assert!((percentile(&xs, 95.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        // The small-N case the rounded rank got wrong: p99 of 100
        // samples must be the 99th observation, not the 98th.
        let big: Vec<f64> = (1..=100).map(f64::from).collect();
        for p in [50.0, 95.0, 99.0, 100.0] {
            assert_eq!(percentile(&big, p), p, "rank {p}, not the one below");
        }
        let small = [30.0, 10.0, 20.0];
        assert_eq!(percentile(&small, 0.0), 10.0, "p0 clamps to the min");
        assert_eq!(percentile(&small, 50.0), 20.0);
        assert_eq!(percentile(&small, 99.0), 30.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
