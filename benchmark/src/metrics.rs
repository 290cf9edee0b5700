//! The metric catalogue (names, units, bounds, which workload reports
//! what) and the statistics every report shares.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test checks the two sets against each other in both directions.

use crate::json::{obj, Json};

pub const WALK: &str = "walk";
pub const HOT_READ: &str = "hot-read";
pub const WRITE_READ: &str = "write-read";
pub const SIM_SCALE: &str = "sim-scale";
pub const WORKLOADS: [&str; 4] = [WALK, HOT_READ, WRITE_READ, SIM_SCALE];
const LIVE: &[&str] = &[WALK, HOT_READ, WRITE_READ];
const ALL: &[&str] = &WORKLOADS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` calls it a regression.
    pub bound: f64,
    /// Workloads that report it.
    pub workloads: &'static [&'static str],
    /// Listed under `end_to_end` in `BENCHMARK.json`, so the driver holds
    /// later changes to `bound`; a `--trace 0` run prints exactly these.
    /// That list takes only metrics that every workload reports, that are
    /// never 0, and that repeat: across ten seeds the quartiles of a gated
    /// metric must lie well inside its bound on every workload. The rest
    /// are printed by `--trace 1` runs from that run's untraced window,
    /// and `compare` still judges them against the bound written here.
    pub gated: bool,
}

/// Baseline 0 and must not rise: any failure fails the run, so its bound
/// is never consulted. The result line's `attempted` / `failed` carry it
/// on every run.
pub const FAILED_SHARE: &str = "failed_share";

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25, ALL, true),
    // On the reference VM the speed of CPU-bound work wanders by a
    // quarter over tens of seconds (other tenants of the host): ten runs
    // of `write-read` spread 12-14 % in `qps`, which no bound under a
    // quarter resolves.
    e2e("qps", "1/s", Better::Higher, 0.25, ALL, true),
    e2e("query_p50_ms", "ms", Better::Lower, 0.25, ALL, true),
    e2e("rss_mb", "MB", Better::Lower, 0.10, ALL, true),
    // Not gated — measured spread across ten seeds, per workload: the
    // tail 11-35 %, CPU per request 5-19 % (`walk` spends its CPU on
    // wake-ups of idle cores, whose cost follows the host).
    e2e("query_p99_ms", "ms", Better::Lower, 0.25, ALL, false),
    e2e("cpu_ms_per_kreq", "ms", Better::Lower, 0.10, ALL, false),
    // Not gated — one workload's own.
    e2e(
        "write_visible_p50_ms",
        "ms",
        Better::Lower,
        0.15,
        &[WRITE_READ],
        false,
    ),
    e2e(
        "write_visible_p95_ms",
        "ms",
        Better::Lower,
        0.25,
        &[WRITE_READ],
        false,
    ),
    e2e(
        "sim_msgs_per_query",
        "msgs",
        Better::Lower,
        0.005,
        &[SIM_SCALE],
        false,
    ),
    e2e(
        "sim_bytes_per_query",
        "bytes",
        Better::Lower,
        0.005,
        &[SIM_SCALE],
        false,
    ),
    e2e(
        "sim_msgs_per_update",
        "msgs",
        Better::Lower,
        0.005,
        &[SIM_SCALE],
        false,
    ),
    e2e(
        "sim_latency_p50_ms",
        "ms",
        Better::Lower,
        0.005,
        &[SIM_SCALE],
        false,
    ),
    e2e(FAILED_SHARE, "share", Better::Lower, 0.0, ALL, false),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    workloads: &'static [&'static str],
    gated: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        workloads,
        gated,
    }
}

/// One per-layer metric. The name's prefix is the layer — a crate name,
/// or `bench` for the ruler itself; `moves` is the prediction written
/// down before measuring: which end-to-end metric it should move, on
/// which workload.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub workloads: &'static [&'static str],
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        workloads,
        moves,
    }
}

use Better::{Higher, Lower};

const HOT: &str = "qps, query_p50_ms on hot-read; <1% of walk";
const WALK_CPU: &str = "cpu_ms_per_kreq on walk";
const VISIBLE: &str = "write_visible_* on write-read";
const SIM_QPS: &str = "core.wall_qps, cpu_ms_per_kreq on sim-scale";

pub const PER_LAYER: &[PerLayer] = &[
    // gateway
    layer("gateway.http_parse_ns", "ns", Lower, ALL, HOT),
    layer("gateway.http_parse_allocs", "allocs", Lower, ALL, HOT),
    layer("gateway.cache_lookup_ns", "ns", Lower, ALL, HOT),
    layer("gateway.cache_lookup_allocs", "allocs", Lower, ALL, HOT),
    layer("gateway.response_write_ns", "ns", Lower, ALL, HOT),
    layer("gateway.reactor_floor_us", "us", Lower, LIVE, HOT),
    layer(
        "gateway.cache_invalidate_ns",
        "ns",
        Lower,
        ALL,
        "write_visible_p50_ms on write-read",
    ),
    layer(
        "gateway.cache_hit_share",
        "share",
        Higher,
        LIVE,
        "~1 on hot-read, <1 on write-read, 0 on walk",
    ),
    layer(
        "gateway.coalesced_share",
        "share",
        Higher,
        LIVE,
        "0 with one client per text",
    ),
    layer(
        "gateway.metrics_render_ns",
        "ns",
        Lower,
        ALL,
        "daemon.metrics_scrape_ms",
    ),
    // daemon
    layer(
        "daemon.loop_rtt_p50_us",
        "us",
        Lower,
        LIVE,
        "query_p50_ms, qps on walk; write_visible_* on write-read; none on hot-read, sim-scale",
    ),
    layer(
        "daemon.wait_share",
        "share",
        Lower,
        LIVE,
        "1 - cpu per request / query_p50_ms; ~0.94 on walk while the loop polls",
    ),
    layer("daemon.idle_cpu_ms_per_s", "ms/s", Lower, LIVE, WALK_CPU),
    layer("daemon.step_cpu_us_per_req", "us", Lower, LIVE, WALK_CPU),
    layer("daemon.steps_per_req", "count", Lower, LIVE, WALK_CPU),
    layer(
        "daemon.step_cpu_p99_us",
        "us",
        Lower,
        LIVE,
        "query_p99_ms on walk",
    ),
    layer(
        "daemon.tick_p99_us",
        "us",
        Lower,
        LIVE,
        "query_p99_ms on walk",
    ),
    layer(
        "daemon.jobs_per_tick",
        "count",
        Higher,
        LIVE,
        "batching at the loop; qps on walk",
    ),
    layer(
        "daemon.stalled_ticks",
        "count",
        Lower,
        LIVE,
        "query_p99_ms on walk",
    ),
    layer(
        "daemon.metrics_scrape_ms",
        "ms",
        Lower,
        LIVE,
        "control surface cost (ROADMAP 3)",
    ),
    layer(
        "daemon.metrics_scrape_bytes",
        "bytes",
        Lower,
        LIVE,
        "daemon.metrics_scrape_ms",
    ),
    layer(
        "daemon.ctrl_status_rtt_us",
        "us",
        Lower,
        LIVE,
        "control surface cost (ROADMAP 3)",
    ),
    // transport
    layer(
        "transport.tcp_query_p50_us",
        "us",
        Lower,
        ALL,
        "query_p50_ms on walk once the poll is gone",
    ),
    layer(
        "transport.msgs_per_req",
        "msgs",
        Lower,
        LIVE,
        "cpu_ms_per_kreq on walk, write-read",
    ),
    layer(
        "transport.bytes_per_req",
        "bytes",
        Lower,
        LIVE,
        "cpu_ms_per_kreq on walk, write-read",
    ),
    layer("transport.reconnects", "count", Lower, LIVE, "failed_share"),
    layer(
        "transport.background_msgs_per_s",
        "1/s",
        Lower,
        LIVE,
        "daemon.idle_cpu_ms_per_s",
    ),
    // wire
    layer("wire.encode_ns", "ns", Lower, ALL, WALK_CPU),
    layer("wire.decode_ns", "ns", Lower, ALL, WALK_CPU),
    layer("wire.encode_allocs", "allocs", Lower, ALL, WALK_CPU),
    layer("wire.decode_allocs", "allocs", Lower, ALL, WALK_CPU),
    layer(
        "wire.frame_bytes",
        "bytes",
        Lower,
        ALL,
        "sim_bytes_per_query on sim-scale",
    ),
    // core
    layer(
        "core.ns_per_msg",
        "ns",
        Lower,
        &[SIM_SCALE],
        "core.wall_qps, cpu_ms_per_kreq on sim-scale; cpu_ms_per_kreq on walk",
    ),
    layer(
        "core.allocs_per_msg",
        "allocs",
        Lower,
        &[SIM_SCALE],
        SIM_QPS,
    ),
    layer(
        "core.wall_qps",
        "1/s",
        Higher,
        &[SIM_SCALE],
        "how fast the simulator itself runs; nothing a simulated user sees",
    ),
    layer(
        "core.wall_query_p50_ms",
        "ms",
        Lower,
        &[SIM_SCALE],
        "core.wall_qps",
    ),
    layer(
        "core.probe_cache_hit_share",
        "share",
        Higher,
        LIVE,
        "transport.msgs_per_req on walk",
    ),
    layer("core.phase_plan_us", "us", Lower, LIVE, WALK_CPU),
    layer("core.phase_fanout_us", "us", Lower, LIVE, WALK_CPU),
    layer(
        "core.phase_fold_us",
        "us",
        Lower,
        LIVE,
        "query_p50_ms on walk",
    ),
    // query
    layer(
        "query.parse_ns",
        "ns",
        Lower,
        ALL,
        "core.wall_qps on sim-scale; cpu_ms_per_kreq on walk",
    ),
    layer(
        "query.plan_ns",
        "ns",
        Lower,
        ALL,
        "core.wall_qps on sim-scale; cpu_ms_per_kreq on walk",
    ),
    layer("query.plan_allocs", "allocs", Lower, ALL, SIM_QPS),
    // aggregation
    layer("aggregation.merge_ns", "ns", Lower, ALL, SIM_QPS),
    layer("aggregation.delta_set_count_ns", "ns", Lower, ALL, VISIBLE),
    layer("aggregation.delta_set_max_ns", "ns", Lower, ALL, VISIBLE),
    // subscribe
    layer(
        "subscribe.deltas_per_write",
        "msgs",
        Lower,
        LIVE,
        "write_visible_* on write-read; 0 on walk",
    ),
    layer("subscribe.delta_lag_p50_us", "us", Lower, LIVE, VISIBLE),
    // dht
    layer("dht.next_hop_ns", "ns", Lower, ALL, SIM_QPS),
    layer(
        "dht.route_hops_mean",
        "count",
        Lower,
        ALL,
        "sim_latency_p50_ms, sim_msgs_per_query on sim-scale",
    ),
    // membership
    layer("membership.converge_s", "s", Lower, LIVE, "setup_s"),
    layer(
        "membership.msgs_per_s",
        "1/s",
        Lower,
        LIVE,
        "daemon.idle_cpu_ms_per_s",
    ),
    // trace
    layer("trace.span_record_ns", "ns", Lower, ALL, WALK_CPU),
    layer("trace.spans_per_req", "count", Lower, LIVE, WALK_CPU),
    layer("trace.cpu_share", "share", Lower, LIVE, WALK_CPU),
    // the ruler itself
    layer(
        "bench.loadgen_floor_us",
        "us",
        Lower,
        LIVE,
        "must stay under half of hot-read query_p50_ms",
    ),
    layer(
        "bench.writer_late_p99_ms",
        "ms",
        Lower,
        &[WRITE_READ],
        "how late the paced writer ran",
    ),
    layer(
        "bench.trace_overhead_share",
        "share",
        Lower,
        ALL,
        "traced vs untraced qps",
    ),
];

/// Names a `--trace 0` result line carries.
pub fn driver_end_to_end() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().filter(|m| m.gated)
}

/// `(name, unit, direction)` of everything a `--trace 1` result line
/// carries: the end-to-end metrics that are not gated, then the layers.
pub fn driver_per_layer() -> Vec<(&'static str, &'static str, Better)> {
    END_TO_END
        .iter()
        .filter(|m| !m.gated)
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .collect()
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// Names and units must fit the driver's charset.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The values one run measured, keyed by catalogue name.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        // Catch typos where they are made, not in the driver.
        let _ = unit_of(name);
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: Values) {
        for (n, v) in other.0 {
            self.set(n, v);
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for exactly `names`, in
    /// that order of declaration; a metric the workload does not have
    /// reads 0.
    pub fn to_json<'a>(&self, names: impl Iterator<Item = &'a str>) -> Json {
        Json::Obj(
            names
                .map(|n| {
                    let v = self.get(n).unwrap_or(0.0);
                    (
                        n.to_owned(),
                        obj([
                            ("value", Json::Num(v)),
                            ("unit", Json::Str(unit_of(n).to_owned())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

// ----- statistics --------------------------------------------------------

/// 1-based ceil nearest-rank of the `p`-th percentile among `n` samples:
/// the smallest rank with at least `p`% of the sample at or below it.
pub fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile of a sorted slice by ceil nearest-rank — or,
/// when fewer than [`MIN_BEYOND`] samples lie beyond it (the figure would
/// be one or two outliers, not a percentile), the highest percentile the
/// sample does support, down to the median. Returns the value and the
/// percentile actually used, which every report prints. Only short
/// `--check` windows ever take the fallback.
pub fn percentile_supported(sorted: &[u64], p: f64) -> (u64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0, p);
    }
    let r = rank(n, p);
    let r = r.min(n.saturating_sub(MIN_BEYOND)).max(rank(n, 50.0));
    (sorted[r - 1], 100.0 * r as f64 / n as f64)
}

pub fn median_f64(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// computes them (exclusive method) — the driver's spread uses the same.
pub fn quartiles(xs: &mut [f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        xs[j - 1] + (xs[j] - xs[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn percentile_is_ceil_nearest_rank_with_ten_beyond() {
        assert_eq!(rank(100, 99.0), 99, "ceil, not round: rank 99 not 98");
        assert_eq!(rank(1000, 99.1), 991);
        assert_eq!(rank(3, 0.0), 1);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_supported(&v, 50.0), (500, 50.0));
        assert_eq!(
            percentile_supported(&v, 99.0),
            (990, 99.0),
            "rank 990: 10 beyond"
        );
        assert_eq!(
            percentile_supported(&v, 99.1),
            (990, 99.0),
            "rank 991 has 9 beyond"
        );
        // Too few samples: the percentile is lowered until ten lie beyond.
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_supported(&hundred, 90.0), (90, 90.0));
        assert_eq!(
            percentile_supported(&hundred, 99.0),
            (90, 90.0),
            "p99 had one beyond"
        );
        assert_eq!(
            percentile_supported(&[5, 6, 7], 99.0).0,
            6,
            "down to the median"
        );
        assert_eq!(percentile_supported(&[], 50.0).0, 0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median_f64(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn names_and_units_fit_the_driver_charset() {
        let mut seen = BTreeSet::new();
        for (name, unit, _) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(driver_per_layer())
        {
            assert!(valid_name(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{name}: unit {unit}"
            );
            seen.insert(name);
        }
        assert_eq!(
            seen.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used twice"
        );
        assert!(!valid_name("has space") && !valid_name("") && !valid_name(".dot"));
    }

    /// The catalogue and `BENCHMARK.json` name the same metrics, with the
    /// same units, directions and bounds — in both directions.
    #[test]
    fn catalogue_equals_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> BTreeSet<(String, String, String)> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_owned();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let ours_e2e: BTreeSet<_> = driver_end_to_end()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.as_str().to_owned(),
                )
            })
            .collect();
        assert_eq!(declared("end_to_end"), ours_e2e);
        let ours_layers: BTreeSet<_> = driver_per_layer()
            .into_iter()
            .map(|(n, u, b)| (n.to_owned(), u.to_owned(), b.as_str().to_owned()))
            .collect();
        assert_eq!(declared("per_layer"), ours_layers);
        for m in doc.get("end_to_end").unwrap().as_arr() {
            let name = m.get("name").unwrap().as_str().unwrap();
            assert_eq!(
                m.get("bound").unwrap().as_f64(),
                END_TO_END.iter().find(|e| e.name == name).map(|e| e.bound),
                "{name}"
            );
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    /// What a run emits is exactly what is declared, for every workload.
    #[test]
    fn result_lines_carry_exactly_the_declared_names() {
        let mut v = Values::default();
        v.set("qps", 1.5);
        let line = v.to_json(driver_end_to_end().map(|m| m.name));
        let Json::Obj(m) = &line else { panic!() };
        assert_eq!(m.len(), driver_end_to_end().count());
        assert_eq!(m["qps"].get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(m["qps"].get("unit").unwrap().as_str(), Some("1/s"));
        assert_eq!(m["rss_mb"].get("value").unwrap().as_f64(), Some(0.0));
    }
}
