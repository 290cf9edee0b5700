//! The engine's allocation budget: a fixed, seeded 512-node script —
//! three cold group queries, one churn burst, then twenty warm queries —
//! must cost at most three heap allocations per delivered message, and
//! exactly the pinned number of messages. The cold queries, where every
//! node a tree reaches creates its predicate state, have a budget of
//! their own.
//!
//! Allocations are counted per thread by this binary's global allocator,
//! so the test harness's other threads do not disturb the count. The
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
    // Const-initialised and without a destructor, so touching it inside
    // the allocator can neither allocate nor run after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter increment.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
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
/// The cold queries' budget: 0.74 measured, rounded up.
const COLD_BUDGET: f64 = 0.8;

fn member(node: u32, share: u32) -> bool {
    (node * 7919 + 13).is_multiple_of(share)
}

#[test]
fn a_delivered_message_costs_at_most_three_allocations() {
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
    // Churn: four members of G64 leave, four outsiders join.
    let (leave, join): (Vec<u32>, Vec<u32>) = (0..NODES).partition(|&i| member(i, 8));
    for &i in leave.iter().take(4) {
        c.set_attr(NodeId(i), "G64", false);
    }
    for &i in join.iter().take(4) {
        c.set_attr(NodeId(i), "G64", true);
    }
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
    let all = (allocs() - a0, c.stats().total_messages() - m0);

    for ((spent, messages), pinned, budget, part) in [
        (cold, PINNED_COLD_MESSAGES, COLD_BUDGET, "cold queries"),
        (all, PINNED_MESSAGES, BUDGET, "script"),
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
