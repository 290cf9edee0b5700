//! Observability-plane overhead gate: what a plane costs the workloads
//! the other gates protect. The plane is the positional argument:
//!
//! * `plane_overhead health` — gossiped health digests. They piggyback
//!   on frames the failure detector sends anyway, so wire bytes grow
//!   (reported, not gated — the digest codec caps them at
//!   `HEALTH_DIGEST_MAX_BYTES` per frame) but messages must not. Writes
//!   `BENCH_health_overhead.json`.
//! * `plane_overhead recorder` — the flight recorder: every daemon
//!   samples its history rings each simulated second and journals
//!   detector transitions. Purely local (fixed-size in-memory rings, no
//!   gossip, no extra frames), so nothing on the wire may move. Writes
//!   `BENCH_recorder.json`.
//!
//! The same daemon-shaped workload — repeated composite queries from
//! rotating front-ends plus one standing subscription, with periodic
//! group churn (and, for the recorder, one crash → confirm → restart →
//! revive cycle) — runs twice on identical [`SimSwarm`]s (same seed,
//! same event script): once with the plane off, once with it on. The
//! gate fails if the plane adds more than 5% messages, more than 5% mean
//! query latency, or changes a single answer (`docs/observability.md`).
//!
//! The run with the plane on must also actually do its job — every
//! daemon ends holding a digest for every peer; the history holds
//! samples and a survivor's journal holds the crash's SWIM confirm — so
//! the gate cannot pass vacuously.
//!
//! `--smoke` shrinks the workload for CI.

use moara_bench::harness::mean;
use moara_bench::{full_scale, scaled, BenchReport};
use moara_core::{DeliveryPolicy, MoaraConfig};
use moara_daemon::recorder::kind;
use moara_daemon::SimSwarm;
use moara_membership::SwimConfig;
use moara_simnet::{NodeId, SimDuration};

const SEED: u64 = 4114;

#[derive(Clone, Copy, PartialEq)]
enum Plane {
    Health,
    Recorder,
}

impl Plane {
    /// What output lines call the plane.
    fn label(self) -> &'static str {
        match self {
            Plane::Health => "health gossip",
            Plane::Recorder => "flight recorder",
        }
    }

    /// The `BENCH_<name>.json` the numbers land in.
    fn report(self) -> &'static str {
        match self {
            Plane::Health => "health_overhead",
            Plane::Recorder => "recorder",
        }
    }
}

struct Workload {
    nodes: usize,
    groups: usize,
    group_size: usize,
    rounds: usize,
    churn_every: usize,
    fronts: usize,
}

struct RunResult {
    messages: u64,
    bytes: u64,
    mean_latency_ms: f64,
    answers: Vec<String>,
}

fn query_text(w: &Workload, i: usize) -> String {
    let a = i % w.groups;
    let b = (i + 1) % w.groups;
    format!("SELECT count(*) WHERE g{a} = true AND g{b} = true")
}

fn run(w: &Workload, plane: Plane, on: bool) -> RunResult {
    let mut s = SimSwarm::new(w.nodes, MoaraConfig::default(), SwimConfig::fast(), SEED);
    for g in 0..w.groups {
        for i in 0..w.nodes {
            // Overlapping deterministic groups: membership rotates with
            // the group index so intersections are non-trivial.
            s.set_attr(
                NodeId(i as u32),
                &format!("g{g}"),
                (i + g * 3) % w.nodes < w.group_size,
            );
        }
    }
    s.run_periods(5);
    match plane {
        Plane::Health if on => s.enable_health_gossip(),
        Plane::Recorder if on => s.enable_flight_recorder(),
        _ => {}
    }
    s.stats_mut().reset();

    // One standing dashboard rides along, as in `subscribe_bench`: its
    // deltas and renewals share the wire the digests piggyback on.
    let wid = s.subscribe(
        NodeId(0),
        "SELECT count(*) WHERE g0 = true",
        DeliveryPolicy::OnChange,
        SimDuration::from_secs(600),
    );

    let mut lat = Vec::new();
    let mut answers = Vec::new();
    for round in 0..w.rounds {
        s.run_periods(2);
        if round > 0 && round % w.churn_every == 0 {
            // Deterministic churn: one member of one group flips.
            let node = NodeId(((round * 7) % w.nodes) as u32);
            let g = round % w.groups;
            s.set_attr(node, &format!("g{g}"), round % 2 == 0);
        }
        for q in 0..w.groups {
            let origin = NodeId(((round + q) % w.fronts) as u32);
            let out = s.query(origin, &query_text(w, q));
            assert!(out.complete, "round {round} query {q} incomplete");
            lat.push(out.latency().as_secs_f64() * 1e3);
            answers.push(out.result.to_string());
        }
    }
    for u in s.take_sub_updates(NodeId(0), wid) {
        answers.push(format!("sub:{}", u.result));
    }

    if plane == Plane::Recorder {
        // One crash → confirm → restart → revive cycle after the latency
        // window closes: identical in both arms (so answers and message
        // counts stay comparable), and it's what feeds the survivors'
        // journals SWIM transitions — the non-vacuousness evidence below.
        let victim = NodeId((w.nodes - 1) as u32);
        s.crash(victim);
        s.run_periods(40);
        s.restart(victim);
        s.run_periods(20);
    }

    // The arm under test must really do its job, or the gate proves
    // nothing.
    match plane {
        Plane::Health if on => {
            for at in 0..w.nodes.min(8) as u32 {
                for about in (0..w.nodes.min(8) as u32).filter(|&about| about != at) {
                    s.peer_digest(NodeId(at), NodeId(about)).unwrap_or_else(|| {
                        panic!("gossip on, but node {at} never heard node {about}'s digest")
                    });
                }
            }
        }
        Plane::Recorder if on => {
            let rec = s.recorder(NodeId(0)).expect("recorder enabled");
            let names = rec.history.lock().map_or(0, |h| h.names().len());
            assert!(
                names > 0,
                "recorder on, but node 0's history rings hold no samples"
            );
            let confirms = rec.journal.snapshot(Some(kind::SWIM_CONFIRM), 16).len();
            assert!(
                confirms > 0,
                "recorder on, but node 0's journal never saw the crash confirmed"
            );
        }
        _ => {}
    }

    let stats = s.stats();
    RunResult {
        messages: stats.total_messages(),
        bytes: stats.total_bytes(),
        mean_latency_ms: mean(&lat),
        answers,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let plane = match args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
    {
        Some("health") => Plane::Health,
        Some("recorder") => Plane::Recorder,
        _ => {
            eprintln!("usage: plane_overhead <health|recorder> [--smoke]");
            std::process::exit(2);
        }
    };
    let label = plane.label();
    let w = if smoke {
        Workload {
            nodes: 16,
            groups: 3,
            group_size: 5,
            rounds: 8,
            churn_every: 3,
            fronts: 2,
        }
    } else {
        Workload {
            nodes: scaled(48, 96),
            groups: 4,
            group_size: 8,
            rounds: scaled(20, 40),
            churn_every: 4,
            fronts: 4,
        }
    };
    let queries = w.rounds * w.groups;
    println!(
        "=== {label} overhead: {} daemons, {} groups of {}, {queries} queries \
         + 1 standing subscription ===",
        w.nodes, w.groups, w.group_size
    );

    let off = run(&w, plane, false);
    let on = run(&w, plane, true);
    assert_eq!(
        off.answers, on.answers,
        "{label} must never change query or subscription answers"
    );

    let msg_pct = 100.0 * (on.messages as f64 - off.messages as f64) / off.messages.max(1) as f64;
    let lat_pct =
        100.0 * (on.mean_latency_ms - off.mean_latency_ms) / off.mean_latency_ms.max(1e-9);
    let bytes_pct = 100.0 * (on.bytes as f64 - off.bytes as f64) / off.bytes.max(1) as f64;

    println!(
        "{:>16} {:>12} {:>14} {:>14}",
        label, "total msgs", "total bytes", "latency (ms)"
    );
    for (arm, r) in [("off", &off), ("on", &on)] {
        println!(
            "{:>16} {:>12} {:>14} {:>14.2}",
            arm, r.messages, r.bytes, r.mean_latency_ms
        );
    }
    println!(
        "\n{label}: messages {msg_pct:+.1}%, latency {lat_pct:+.1}%, \
         wire bytes {bytes_pct:+.1}% vs off"
    );

    // Executable acceptance gate (CI runs --smoke): the plane must stay
    // within 5% on messages and latency — by construction (piggybacked
    // digests, local rings) it should add zero of either.
    let mut failed = false;
    if msg_pct > 5.0 {
        eprintln!("FAIL: {label} added {msg_pct:.1}% messages (gate: 5%)");
        failed = true;
    }
    if lat_pct > 5.0 {
        eprintln!("FAIL: {label} added {lat_pct:.1}% latency (gate: 5%)");
        failed = true;
    }
    if plane == Plane::Health && on.bytes <= off.bytes {
        eprintln!("FAIL: digests claimed on, but no extra bytes on the wire");
        failed = true;
    }

    BenchReport::new(plane.report())
        .field(
            "scale",
            if smoke {
                "smoke"
            } else if full_scale() {
                "full"
            } else {
                "default"
            },
        )
        .field("nodes", w.nodes)
        .field("groups", w.groups)
        .field("queries", queries)
        .field("off_messages", off.messages)
        .field("on_messages", on.messages)
        .field("off_bytes", off.bytes)
        .field("on_bytes", on.bytes)
        .field("off_latency_ms", off.mean_latency_ms)
        .field("on_latency_ms", on.mean_latency_ms)
        .field("msg_overhead_pct", msg_pct)
        .field("latency_overhead_pct", lat_pct)
        .field("bytes_overhead_pct", bytes_pct)
        .field("gate_max_overhead_pct", 5.0)
        .field("gate_passed", !failed)
        .write();

    if failed {
        std::process::exit(1);
    }
    println!("PASS: {label} within 5% on messages and latency (0 extra expected)");
}
