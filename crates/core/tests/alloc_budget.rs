//! The engine's allocation budget: a fixed, seeded 512-node script —
//! three cold group queries, one churn burst, then twenty warm queries —
//! must cost at most three heap allocations per delivered message, and
//! exactly the pinned number of messages. The cold queries, where every
//! node a tree reaches creates its predicate state, have a budget of
//! their own.
//!
//! The same script fences what the nodes hold: the heap bytes live per
//! node after the cold queries and after the whole script are pinned,
//! and once every outcome has been taken no node may keep an entry, or
//! capacity, in its per-query tables.
//!
//! Allocations and live bytes are counted per thread by this binary's
//! global allocator, so the test harness's other threads do not disturb
//! the counts. The
//! budget covers everything the driver calls: query parsing and planning,
//! the simulator's queue, and every node handler. A delivered message
//! that changes no protocol state should cost no allocation at all; the
//! budget leaves room for the state that cold trees and churn create.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use moara_aggregation::AggResult;
use moara_attributes::Value;
use moara_core::Cluster;
use moara_simnet::latency::Lan;
use moara_simnet::NodeId;

thread_local! {
    // Const-initialised and without a destructor, so touching them inside
    // the allocator can neither allocate nor run after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn counted(allocs: u64, bytes: i64) {
    ALLOCS.with(|c| c.set(c.get() + allocs));
    LIVE_BYTES.with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is two thread-local counter updates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(1, layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        counted(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

const NODES: u32 = 512;
/// Groups as (attribute, one member in every `share` nodes).
const GROUPS: [(&str, u32); 3] = [("G16", 32), ("G64", 8), ("G128", 4)];
/// Messages the script delivers; a protocol change moves it.
const PINNED_MESSAGES: u64 = 7_977;
/// Of those, the messages of the three cold queries.
const PINNED_COLD_MESSAGES: u64 = 4_330;
/// The budget, in allocations per delivered message.
const BUDGET: f64 = 3.0;
/// Heap bytes live per node after the cold queries (2 686 measured) and
/// after the whole script (2 738), with under 5 % headroom. They count
/// the whole simulated cluster — trees, simulator and statistics — over
/// its nodes. Before finished queries gave their tables back and the
/// node and its group state shrank, the same script left 3 720 and
/// 3 872.
const PINNED_COLD_BYTES: i64 = 2_800;
const PINNED_SCRIPT_BYTES: i64 = 2_850;
/// The cold queries' budget: 0.74 measured when it was set, 0.36 now.
const COLD_BUDGET: f64 = 0.8;

fn member(node: u32, share: u32) -> bool {
    (node * 7919 + 13).is_multiple_of(share)
}

/// What the script cost and what the cluster holds afterwards.
struct Script {
    /// (allocations, messages) of the cold queries and of the whole script.
    cold: (u64, u64),
    all: (u64, u64),
    /// Heap bytes live per node after the cold queries and after the
    /// script, the whole simulated cluster included.
    cold_bytes: i64,
    all_bytes: i64,
    /// Per-query table capacity still held, summed over the nodes, once
    /// every outcome has been taken.
    per_query_left: usize,
}

fn run_script() -> Script {
    let base = live_bytes();
    let per_node = || (live_bytes() - base) / i64::from(NODES);
    let mut c = Cluster::builder()
        .nodes(NODES as usize)
        .seed(27)
        .latency(Lan::emulab())
        .build();
    for i in 0..NODES {
        for (g, share) in GROUPS {
            c.set_attr(NodeId(i), g, member(i, share));
        }
        c.set_attr(NodeId(i), "Load", i64::from(i));
    }
    c.run_to_quiescence();

    let (a0, m0) = (allocs(), c.stats().total_messages());
    // Cold: each query builds its group's tree.
    for (g, share) in GROUPS {
        let out = c
            .query(NodeId(0), &format!("SELECT count(*) WHERE {g} = true"))
            .unwrap();
        let want = (0..NODES).filter(|&i| member(i, share)).count() as i64;
        assert_eq!(out.result, AggResult::Value(Value::Int(want)), "{g}");
    }
    let cold = (allocs() - a0, c.stats().total_messages() - m0);
    let cold_bytes = per_node();
    // Churn: four members of G64 leave, four outsiders join.
    let (leave, join): (Vec<u32>, Vec<u32>) = (0..NODES).partition(|&i| member(i, 8));
    for &i in leave.iter().take(4) {
        c.set_attr(NodeId(i), "G64", false);
    }
    for &i in join.iter().take(4) {
        c.set_attr(NodeId(i), "G64", true);
    }
    drop((leave, join));
    c.run_to_quiescence();
    // Warm.
    let texts = [
        "SELECT count(*) WHERE G16 = true",
        "SELECT max(Load) WHERE G64 = true",
        "SELECT avg(Load) WHERE G128 = true",
        "SELECT count(*) WHERE G16 = true AND G128 = true",
        "SELECT sum(Load) WHERE G16 = true OR G64 = true",
    ];
    for q in 0..20u32 {
        let out = c
            .query(NodeId(q * 37 % NODES), texts[q as usize % texts.len()])
            .unwrap();
        assert!(out.complete, "query {q}");
    }
    Script {
        cold,
        all: (allocs() - a0, c.stats().total_messages() - m0),
        cold_bytes,
        all_bytes: per_node(),
        per_query_left: c
            .node_ids()
            .into_iter()
            .map(|n| c.node(n).per_query_footprint())
            .sum(),
    }
}

#[test]
fn a_delivered_message_costs_at_most_three_allocations() {
    let script = run_script();
    for ((spent, messages), pinned, budget, part) in [
        (
            script.cold,
            PINNED_COLD_MESSAGES,
            COLD_BUDGET,
            "cold queries",
        ),
        (script.all, PINNED_MESSAGES, BUDGET, "script"),
    ] {
        let per_msg = spent as f64 / messages as f64;
        eprintln!("{part}: {spent} allocations for {messages} messages, {per_msg:.2} a message");
        assert_eq!(messages, pinned, "{part}: the message count moved");
        assert!(
            per_msg <= budget,
            "{part}: {per_msg:.2} allocations a message, over the budget of {budget}"
        );
    }
}

#[test]
fn a_node_holds_its_pinned_bytes_and_nothing_per_finished_query() {
    let script = run_script();
    for (bytes, pinned, part) in [
        (script.cold_bytes, PINNED_COLD_BYTES, "cold queries"),
        (script.all_bytes, PINNED_SCRIPT_BYTES, "script"),
    ] {
        eprintln!("after the {part}: {bytes} bytes live a node");
        assert!(
            bytes <= pinned,
            "after the {part}: {bytes} bytes live a node, over the pinned {pinned}"
        );
    }
    assert_eq!(
        script.per_query_left, 0,
        "finished queries left capacity in per-query tables"
    );
}
