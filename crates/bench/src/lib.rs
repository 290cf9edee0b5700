//! # moara-bench
//!
//! The paper's evaluation (Section 7), one binary per figure. Each prints
//! its table to stdout, byte-identical from run to run; `tests/figures.rs`
//! compares every one with `tests/golden/<bin>.txt`, so a protocol change
//! shows up in review as a diff of the paper's own tables. Latency,
//! throughput and per-layer costs of the running system are not measured
//! here: that is the benchmark of record in `benchmark/`.
//!
//! | Binary | Paper figure | What it regenerates |
//! |---|---|---|
//! | `fig02_traces` | Fig. 2(a)/(b) | workload characterization (slice sizes, job dynamism) |
//! | `fig09_dynamic_maintenance` | Fig. 9 | msgs/node vs query:churn ratio, Moara vs Global vs Always-Update |
//! | `fig10_sensitivity` | Fig. 10 | sensitivity to (k_UPDATE, k_NO-UPDATE) |
//! | `fig11a_sqp_scaling` | Fig. 11(a) | query cost vs system size, with/without the separate query plane |
//! | `fig11b_sqp_costs` | Fig. 11(b) | SQP query/update cost vs group size |
//! | `fig12a_static_groups` | Fig. 12(a) | latency + msgs/query for static groups vs the SDIMS/global approach |
//! | `fig12b_dynamic_groups` | Fig. 12(b) | latency under group churn |
//! | `fig13a_latency_timeline` | Fig. 13(a) | latency over time under periodic churn bursts |
//! | `fig13b_composite` | Fig. 13(b) | composite-query latency (intersection/union/complex, ± size probes) |
//! | `fig14_planetlab_cdf` | Fig. 14 | wide-area response CDF per group size |
//! | `fig15_vs_central` | Fig. 15 | Moara vs centralized aggregator CDF |
//! | `fig16_bottleneck` | Fig. 16 | per-query latency vs bottleneck link |
//!
//! Scale: every binary runs a reduced-but-shape-preserving configuration
//! by default — all twelve finish in ten seconds together, and that is
//! what the golden files pin; set `MOARA_SCALE=full` for the paper's exact
//! sizes (e.g. 10 000 nodes for Figure 9, 16 384 for Figure 11(a)).

pub mod harness;
pub mod workloads;

/// True when the environment requests paper-scale experiment sizes.
pub fn full_scale() -> bool {
    std::env::var("MOARA_SCALE").is_ok_and(|v| v.eq_ignore_ascii_case("full"))
}

/// Picks the reduced or full-scale value of a parameter.
pub fn scaled(reduced: usize, full: usize) -> usize {
    if full_scale() {
        full
    } else {
        reduced
    }
}
