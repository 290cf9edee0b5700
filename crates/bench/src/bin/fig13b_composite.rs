//! Figure 13(b): latency of composite queries versus the number of groups
//! in the expression.
//!
//! Paper setup: 500-node LAN; basic groups of 50 random nodes each; three
//! query shapes — intersection S1 ∩ … ∩ Sn, union S1 ∪ … ∪ Sn, and
//! complex T1 ∩ T2 ∩ T3 with each Ti a union of n basic groups. Latency is
//! reported with size probes ("SP") and without (structural planning only,
//! the paper's "no SP" line).

use moara_bench::harness::mean;
use moara_bench::scaled;
use moara_core::{Cluster, MoaraConfig};
use moara_query::parse_query;
use moara_simnet::latency::Lan;
use moara_simnet::NodeId;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

const NGROUPS: usize = 30;

fn build(n: usize, probes: bool, seed: u64) -> Cluster {
    // Paper fidelity: the figure's "SP" lines pay a probe round-trip per
    // query, so the scheduler's cross-query probe cache is off here
    // (`tests/query_scheduler.rs` pins what the cache buys). One planner
    // improvement is kept even here: probes fire only when cost can
    // change the cover choice, so the pure-union shape (one forced
    // cover) now matches its "no SP" line by construction.
    let cfg = MoaraConfig {
        use_size_probes: probes,
        probe_cache: moara_core::ProbeCachePolicy::Off,
        ..MoaraConfig::default()
    };
    let mut cluster = Cluster::builder()
        .nodes(n)
        .seed(seed)
        .latency(Lan::emulab())
        .config(cfg)
        .build();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x33);
    // Pre-set every group attribute everywhere so membership is explicit.
    let all: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    for g in 0..NGROUPS {
        let mut ids = all.clone();
        ids.shuffle(&mut rng);
        for (i, node) in ids.into_iter().enumerate() {
            cluster.set_attr(node, &format!("g{g}"), i < 50);
        }
    }
    cluster.run_to_quiescence();
    cluster.stats_mut().reset();
    cluster
}

fn intersection(k: usize) -> String {
    let parts: Vec<String> = (0..k).map(|g| format!("g{g} = true")).collect();
    format!("SELECT count(*) WHERE {}", parts.join(" AND "))
}

fn union(k: usize) -> String {
    let parts: Vec<String> = (0..k).map(|g| format!("g{g} = true")).collect();
    format!("SELECT count(*) WHERE {}", parts.join(" OR "))
}

fn complex(k: usize) -> String {
    // T1 ∩ T2 ∩ T3, each Ti a union of k distinct basic groups.
    let t = |base: usize| {
        let parts: Vec<String> = (0..k).map(|g| format!("g{} = true", base + g)).collect();
        format!("({})", parts.join(" OR "))
    };
    format!(
        "SELECT count(*) WHERE {} AND {} AND {}",
        t(0),
        t(k),
        t(2 * k)
    )
}

fn measure(cluster: &mut Cluster, text: &str, reps: usize) -> f64 {
    let q = parse_query(text).expect("valid");
    let mut lat = Vec::new();
    for _ in 0..reps {
        let out = cluster.query_parsed(NodeId(0), q.clone());
        lat.push(out.latency().as_secs_f64() * 1e3);
    }
    mean(&lat)
}

fn main() {
    let n = 500;
    let reps = scaled(10, 30);
    println!("=== Figure 13(b): composite query latency, {n}-node LAN ({reps} reps) ===");
    println!(
        "{:>4} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
        "k", "inter", "union", "complex", "inter-noSP", "union-noSP", "cmplx-noSP"
    );
    let mut with_probes = build(n, true, 88);
    let mut without = build(n, false, 88);
    for k in [2usize, 4, 6, 8, 10] {
        let i1 = measure(&mut with_probes, &intersection(k), reps);
        let u1 = measure(&mut with_probes, &union(k), reps);
        let c1 = measure(&mut with_probes, &complex(k), reps);
        let i0 = measure(&mut without, &intersection(k), reps);
        let u0 = measure(&mut without, &union(k), reps);
        let c0 = measure(&mut without, &complex(k), reps);
        println!("{k:>4} {i1:>11.1} {u1:>11.1} {c1:>11.1} {i0:>11.1} {u0:>11.1} {c0:>11.1}");
    }
    println!(
        "\nexpected shape (paper): intersection latency flat in k (one group queried);\n\
         union grows with k (all groups queried); complex tracks union of one term;\n\
         size probes add a roughly constant overhead; all under ~500 ms."
    );
}
