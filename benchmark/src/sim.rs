//! `sim-scale`: the one workload at the paper's scale. No sockets — a
//! single-threaded `moara_core::Cluster` on the deterministic simulator,
//! 2048 nodes under the LAN latency model, three nested-size groups plus
//! numeric attributes. A seeded script of rounds (a churn burst swapping
//! members of one group for outsiders, then queries from random
//! front-ends, 70 % simple and 30 % composite) runs until the window closes; every answer is compared
//! with the centralized aggregator of `moara_baselines`.
//!
//! It exists because routing depth, prune/no-prune adaptation, the
//! separate query plane and cover planning only show at this size, and
//! because its message counts are exact: a bend in the reproduced cost
//! curves is a count change, not noise. Gateway, daemon and TCP changes
//! must leave it untouched.

use std::time::{Duration, Instant};

use moara_aggregation::{AggResult, AggState};
use moara_baselines::CentralCluster;
use moara_core::Cluster;
use moara_query::{parse_query, ParseError};
use moara_simnet::latency::{Constant, Lan};
use moara_simnet::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::metrics::{median_f64, percentile_supported};
use crate::sys;
use crate::trace::{Span, Trace};
use crate::Outcome;

/// How big a run is. `--check` shrinks it; the driver never does.
#[derive(Clone, Copy, Debug)]
pub struct SimSize {
    pub nodes: usize,
    /// Rounds the exact `sim_*` counts are taken over. The script runs at
    /// least this many, whatever the window, so the counts depend on the
    /// seed alone and never on how fast the machine is.
    pub counted_rounds: usize,
    /// Cluster builds timed for `setup_s` (the median is reported).
    pub setups: usize,
}

impl SimSize {
    pub const FULL: SimSize = SimSize {
        nodes: 2048,
        counted_rounds: 100,
        setups: 15,
    };
    pub const CHECK: SimSize = SimSize {
        nodes: 128,
        counted_rounds: 6,
        setups: 1,
    };
}

/// Seed of the simulated cluster itself: ring ids and the latency
/// model's draws, the same in every run. The benchmark's seed drives the
/// script (who is in which group, attribute values, churn, front-ends,
/// query order) but not the overlay: message counts per query barely
/// notice the overlay (±1 % across seeds), yet the median simulated
/// latency sits between the modes of three group sizes and moved from 23
/// to 40 ms with it.
const TOPOLOGY_SEED: u64 = 1;

const QUERIES_PER_ROUND: usize = 10;
/// Group sizes as shares of the cluster: 32 / 128 / 512 of 2048.
const GROUPS: [(&str, usize); 3] = [("G32", 64), ("G128", 16), ("G512", 4)];
const CHURN_SIZES: [usize; 3] = [2, 8, 32];

/// The engine under test and its oracle, holding identical attributes.
struct Pair {
    moara: Cluster,
    central: CentralCluster,
    /// Current membership per group, indexed like `GROUPS`.
    member: Vec<Vec<bool>>,
}

impl Pair {
    fn set_attr(&mut self, node: NodeId, attr: &str, value: i64) {
        self.moara.set_attr(node, attr, value);
        self.central.set_attr(node, attr, value);
    }

    fn set_member(&mut self, group: usize, node: usize, on: bool) {
        self.member[group][node] = on;
        let id = NodeId(node as u32);
        self.moara.set_attr(id, GROUPS[group].0, on);
        self.central.set_attr(id, GROUPS[group].0, on);
    }
}

/// Builds both clusters and assigns the seeded attributes: group
/// membership by shuffled subsets, `Load` a permutation of `0..n` (so
/// `max`/`min` have one winner and attribution is checkable), `Mem`
/// small integers.
fn build(size: SimSize, seed: u64) -> Pair {
    let n = size.nodes;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5133_5ca1e);
    let mut pair = Pair {
        moara: Cluster::builder()
            .nodes(n)
            .seed(TOPOLOGY_SEED)
            .latency(Lan::emulab())
            .build(),
        // The oracle's own latency model is irrelevant: only its answers
        // are read.
        central: CentralCluster::new(n, seed, Constant::from_millis(1)),
        member: vec![vec![false; n]; GROUPS.len()],
    };
    let mut order: Vec<usize> = (0..n).collect();
    for (g, &(_, share)) in GROUPS.iter().enumerate() {
        order.shuffle(&mut rng);
        for (rank, &node) in order.iter().enumerate() {
            pair.set_member(g, node, rank < (n / share).max(1));
        }
    }
    order.shuffle(&mut rng);
    for (load, &node) in order.iter().enumerate() {
        pair.set_attr(NodeId(node as u32), "Load", load as i64);
        pair.set_attr(NodeId(node as u32), "Mem", rng.gen_range(1..64));
    }
    pair.moara.run_to_quiescence();
    pair
}

const AGGS: [&str; 5] = [
    "count(*)",
    "avg(Load)",
    "max(Load)",
    "min(Load)",
    "sum(Mem)",
];
const SIMPLE_PER_ROUND: usize = 7;

/// A shuffled deck dealt to exhaustion before it is reshuffled: every
/// seed runs the same *mix* (each card equally often) and only the order
/// differs, so cross-seed differences in the counts come from the
/// overlay and the group composition, not from an uneven draw of texts.
struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Clone> Deck<T> {
    fn new(cards: Vec<T>) -> Deck<T> {
        let next = cards.len();
        Deck { cards, next }
    }

    fn deal(&mut self, rng: &mut StdRng) -> T {
        if self.next == self.cards.len() {
            self.cards.shuffle(rng);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1].clone()
    }
}

/// The query mix, simple texts first: simple queries name one group
/// (every aggregate × every group); composite ones intersect or unite two
/// predicates so the planner has to pick a cover.
fn query_mix(n: usize) -> (Vec<String>, Vec<String>) {
    let simple = GROUPS
        .iter()
        .flat_map(|(g, _)| AGGS.map(|agg| format!("SELECT {agg} WHERE {g} = true")))
        .collect();
    let mut composite = vec![
        "SELECT count(*) WHERE G32 = true AND G512 = true".to_owned(),
        "SELECT sum(Mem) WHERE G32 = true OR G128 = true".to_owned(),
        format!("SELECT max(Load) WHERE G128 = true AND Load < {}", n / 2),
    ];
    composite.extend(GROUPS.map(|(g, _)| format!("SELECT count(*) WHERE {g} = true AND Mem < 32")));
    (simple, composite)
}

/// Every text the script can send (replay feeds on them).
pub fn query_texts(n: usize) -> Vec<String> {
    let (mut simple, composite) = query_mix(n);
    simple.extend(composite);
    simple
}

/// Wall and CPU time spent inside the engine under test (the oracle and
/// the script's own bookkeeping excluded), plus its allocations.
#[derive(Default)]
struct EngineClock {
    wall_ns: u64,
    cpu_ns: u64,
    allocs: u64,
}

impl EngineClock {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, u64) {
        let (t0, c0, a0) = (Instant::now(), sys::thread_cpu_ns(), sys::thread_allocs());
        let r = f();
        let wall = t0.elapsed().as_nanos() as u64;
        self.wall_ns += wall;
        self.cpu_ns += sys::thread_cpu_ns() - c0;
        self.allocs += sys::thread_allocs() - a0;
        (r, wall)
    }
}

/// The exact counts, frozen when the counted rounds end.
#[derive(Clone, Copy, Default)]
struct Counted {
    queries: u64,
    query_msgs: u64,
    query_bytes: u64,
    churn_events: u64,
    churn_msgs: u64,
    /// Every message the engine sent, and every allocation it made.
    msgs: u64,
    allocs: u64,
    /// Peak resident set when the counted rounds ended: a fixed amount of
    /// work, so it does not grow with how many rounds the window fits.
    rss_mb: f64,
}

pub fn run(seed: u64, window: Duration, size: SimSize, mut trace: Option<&mut Trace>) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    sys::reset_own_peak_rss();

    // Set-up, several times over; the last build is the one measured.
    let mut setup_s = Vec::new();
    let mut pair = None;
    let mut script = StdRng::seed_from_u64(seed ^ 0x005c_2197);
    for _ in 0..size.setups.max(1) {
        drop(pair.take());
        let t0 = Instant::now();
        let mut p = build(size, seed);
        // Correct and warmed: one checked query per group builds its tree.
        for (g, _) in GROUPS {
            let text = format!("SELECT count(*) WHERE {g} = true");
            check_query(&mut p, NodeId(0), &text, &mut out);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        pair = Some(p);
    }
    let mut pair = pair.expect("at least one set-up ran");
    out.values.set("setup_s", median_f64(&mut setup_s));
    pair.moara.stats_mut().reset();

    let n = size.nodes;
    let (simple, composite) = query_mix(n);
    let (mut simple, mut composite) = (Deck::new(simple), Deck::new(composite));
    let mut churns = Deck::new(
        (0..GROUPS.len())
            .flat_map(|g| CHURN_SIZES.map(|m| (g, m.min(n))))
            .collect(),
    );
    let mut clock = EngineClock::default();
    let mut query_wall_ns: Vec<u64> = Vec::new();
    let mut latencies_us: Vec<u64> = Vec::new();
    let mut counted = Counted::default();
    let mut total = Counted::default();
    let started = Instant::now();
    let mut round = 0usize;
    while round < size.counted_rounds || started.elapsed() < window {
        // Churn burst: in one group, m/2 members leave and as many
        // outsiders join, so group sizes — and with them the cost of a
        // query — stay what set-up made them however long the run lasts.
        let (g, m) = churns.deal(&mut script);
        let members = pair.member[g].iter().filter(|&&on| on).count();
        let swaps = (m / 2).min(members / 2).max(1);
        let mut toggles: Vec<usize> = Vec::with_capacity(2 * swaps);
        for (is_member, upto) in [(true, swaps), (false, 2 * swaps)] {
            while toggles.len() < upto {
                let node = script.gen_range(0..n);
                if pair.member[g][node] == is_member && !toggles.contains(&node) {
                    toggles.push(node);
                }
            }
        }
        let msgs0 = pair.moara.stats().total_messages();
        let span0 = epoch.elapsed();
        clock.time(|| {
            for &node in &toggles {
                let on = !pair.member[g][node];
                pair.member[g][node] = on;
                pair.moara.set_attr(NodeId(node as u32), GROUPS[g].0, on);
            }
            pair.moara.run_to_quiescence();
        });
        for &node in &toggles {
            let on = pair.member[g][node];
            pair.central.set_attr(NodeId(node as u32), GROUPS[g].0, on);
        }
        total.churn_events += toggles.len() as u64;
        total.churn_msgs += pair.moara.stats().total_messages() - msgs0;
        if let Some(t) = trace.as_deref_mut() {
            t.push(Span::new("churn+quiesce", "core", span0, epoch.elapsed()).req(round as u64));
        }

        for q in 0..QUERIES_PER_ROUND {
            let origin = NodeId(script.gen_range(0..n) as u32);
            let deck = if q < SIMPLE_PER_ROUND {
                &mut simple
            } else {
                &mut composite
            };
            let text = deck.deal(&mut script);
            let (msgs0, bytes0) = {
                let s = pair.moara.stats();
                (s.total_messages(), s.total_bytes())
            };
            let span0 = epoch.elapsed();
            let (answer, wall) = clock.time(|| pair.moara.query(origin, &text));
            if let Some(t) = trace.as_deref_mut() {
                t.push(Span::new("query", "core", span0, epoch.elapsed()).req(round as u64));
            }
            out.attempted += 1;
            match (answer, oracle_answer(&mut pair.central, &text)) {
                (Ok(a), Ok(o)) if a.complete && a.result == o => {
                    query_wall_ns.push(wall);
                    latencies_us.push(a.latency().as_micros());
                    total.queries += 1;
                    // Per-query accounting excludes maintenance; the
                    // byte delta covers what this query put on the wire.
                    total.query_msgs += a.messages;
                    let s = pair.moara.stats();
                    total.query_bytes += s.total_bytes() - bytes0;
                    debug_assert!(s.total_messages() - msgs0 >= a.messages);
                }
                (Ok(a), Ok(o)) => out.fail(format!(
                    "round {round}: {text:?} from {origin:?} answered {} (complete={}), oracle {o}",
                    a.result, a.complete
                )),
                (Err(e), _) | (_, Err(e)) => out.fail(format!("{text:?} does not parse: {e}")),
            }
        }
        round += 1;
        if round == size.counted_rounds {
            counted = Counted {
                msgs: pair.moara.stats().total_messages(),
                allocs: clock.allocs,
                rss_mb: sys::process_peak_rss_mb(std::process::id()).unwrap_or(0.0),
                ..total
            };
        }
    }

    let queries = total.queries.max(1) as f64;
    let engine_s = clock.wall_ns as f64 / 1e9;
    // What a user of the simulated cluster sees is simulated time: the
    // latency of a query at 2048 nodes, and how many of them one front-end
    // at a time completes per simulated second — here over every round
    // the window fitted, while the `sim_*` metrics keep to the counted
    // rounds and are exact. How fast the simulator itself runs is the
    // `core` layer's business: `core.wall_*` and `cpu_ms_per_kreq`.
    let mut counted_lat = latencies_us[..counted.queries as usize].to_vec();
    latencies_us.sort_unstable();
    let virtual_s = latencies_us.iter().sum::<u64>() as f64 / 1e6;
    out.values.set(
        "qps",
        total.queries as f64 / virtual_s.max(f64::MIN_POSITIVE),
    );
    out.values.set(
        "query_p50_ms",
        percentile_supported(&latencies_us, 50.0).0 as f64 / 1e3,
    );
    let (p99, used) = percentile_supported(&latencies_us, 99.0);
    out.values.set("query_p99_ms", p99 as f64 / 1e3);
    out.values
        .set("core.wall_qps", total.queries as f64 / engine_s);
    query_wall_ns.sort_unstable();
    out.values.set(
        "core.wall_query_p50_ms",
        percentile_supported(&query_wall_ns, 50.0).0 as f64 / 1e6,
    );
    out.values.set(
        "cpu_ms_per_kreq",
        clock.cpu_ns as f64 / 1e6 / queries * 1000.0,
    );
    out.values.set("rss_mb", counted.rss_mb);
    let cq = counted.queries.max(1) as f64;
    out.values
        .set("sim_msgs_per_query", counted.query_msgs as f64 / cq);
    out.values
        .set("sim_bytes_per_query", counted.query_bytes as f64 / cq);
    out.values.set(
        "sim_msgs_per_update",
        counted.churn_msgs as f64 / counted.churn_events.max(1) as f64,
    );
    counted_lat.sort_unstable();
    out.values.set(
        "sim_latency_p50_ms",
        percentile_supported(&counted_lat, 50.0).0 as f64 / 1e3,
    );
    let msgs = pair.moara.stats().total_messages().max(1) as f64;
    out.values
        .set("core.ns_per_msg", clock.wall_ns as f64 / msgs);
    out.values.set(
        "core.allocs_per_msg",
        counted.allocs as f64 / counted.msgs.max(1) as f64,
    );
    out.notes.push(format!(
        "sim-scale: {n} nodes, {round} rounds ({} counted), {} queries checked in {engine_s:.2} s of engine time; tail reported at p{used:.1}",
        size.counted_rounds, total.queries
    ));
    out
}

/// The oracle's answer, in the engine's convention for an aggregate of
/// nothing: the oracle calls every one `(empty)`, where `AggKind::finalize`
/// (which the engine answers with) gives `count` and `sum` their zero. A
/// churned 32-node group can meet another in nobody.
fn oracle_answer(central: &mut CentralCluster, text: &str) -> Result<AggResult, ParseError> {
    let query = parse_query(text)?;
    let kind = query.agg;
    let result = central.query_parsed(query).result;
    Ok(if result == AggResult::Empty {
        kind.finalize(AggState::Null)
    } else {
        result
    })
}

/// One set-up query, checked like the measured ones.
fn check_query(pair: &mut Pair, origin: NodeId, text: &str, out: &mut Outcome) {
    out.attempted += 1;
    match (
        pair.moara.query(origin, text),
        oracle_answer(&mut pair.central, text),
    ) {
        (Ok(a), Ok(o)) if a.complete && a.result == o => {}
        (Ok(a), Ok(o)) => out.fail(format!(
            "set-up {text:?}: answered {}, oracle {o}",
            a.result
        )),
        (Err(e), _) | (_, Err(e)) => out.fail(format!("{text:?} does not parse: {e}")),
    }
}
