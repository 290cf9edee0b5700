//! The span store's budget: a daemon's ring of 8 192 spans, filled with
//! the details a `walk` records, takes at most 64 bytes a span (plus a
//! fixed slack for the phase histograms and the detail table), and once
//! it is full, recording a span through the engine's path allocates
//! nothing. The compact form loses nothing: every field reads back
//! exactly as recorded, and eviction matches a plain [`Ring`] of
//! [`SpanRecord`]s span for span.
//!
//! Allocations and live bytes are counted per thread by this binary's
//! global allocator, so the test harness's other threads do not disturb
//! the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use moara_trace::{Phase, Ring, SpanRecord, SpanStore, NO_PEER};

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

/// Spans a daemon's store holds.
const CAP: usize = 8_192;
/// Bytes a held span may take.
const SPAN_BUDGET: i64 = 64;
/// What a store holds whatever its spans: eight phase histograms, the
/// detail table of `walk`'s few dozen details, the scratch buffer.
const SLACK: i64 = 16 << 10;

/// The `i`th span of a `walk`-like stream, recorded the way the engine
/// records it (an empty `detail`, the text formatted into the store).
/// Three spans a query, on the phases and with the details a tree walk
/// leaves, plus a SWIM ping now and then.
fn record_walk_span(store: &SpanStore, i: u64) {
    let q = i / 3;
    let phase = match i % 3 {
        0 if q.is_multiple_of(50) => Phase::SwimPing,
        0 => Phase::FanOut,
        1 => Phase::Probe,
        _ => Phase::Fold,
    };
    let span = SpanRecord {
        trace_id: q,
        span_id: store.next_span_id(2),
        parent_span_id: i,
        node: 2,
        phase,
        peer: (i % 5) as u32,
        start_us: i * 90,
        queue_us: i % 400,
        service_us: i % 30,
        bytes: 0,
        detail: String::new(),
    };
    let aggs = ["Avg", "Max", "Min", "Sum", "Count"];
    match phase {
        Phase::SwimPing => store.record_args(span, format_args!("")),
        Phase::FanOut => store.record_args(span, format_args!("targets={}", q % 4 + 1)),
        Phase::Probe if q.is_multiple_of(2) => {
            store.record_args(span, format_args!("cost={}", q % 13))
        }
        Phase::Probe => {
            store.record_args(span, format_args!("agg={}", aggs[(q % 5) as usize]));
        }
        _ if q.is_multiple_of(3) => store.record_args(span, format_args!("ServiceX=true")),
        _ => store.record_args(span, format_args!("complete={}", !q.is_multiple_of(7))),
    }
}

#[test]
fn a_full_store_takes_at_most_64_bytes_a_span() {
    let base = live_bytes();
    let store = SpanStore::new(CAP, 1);
    for i in 0..3 * CAP as u64 {
        record_walk_span(&store, i);
    }
    assert_eq!(store.len(), CAP);
    let held = live_bytes() - base;
    drop(store);
    let left = live_bytes() - base;
    let per_span = held as f64 / CAP as f64;
    eprintln!("{held} bytes live for {CAP} spans, {per_span:.1} a span");
    assert!(SpanStore::SPAN_BYTES as i64 <= SPAN_BUDGET);
    assert!(
        held <= CAP as i64 * SPAN_BUDGET + SLACK,
        "{per_span:.1} bytes a span, over the budget of {SPAN_BUDGET}"
    );
    assert_eq!(left, 0, "a dropped store gives back everything");
}

#[test]
fn recording_into_a_full_store_allocates_nothing() {
    let store = SpanStore::new(CAP, 1);
    let mut i = 0;
    while i < 2 * CAP as u64 {
        record_walk_span(&store, i);
        i += 1;
    }
    let a0 = allocs();
    for i in i..i + 4 * CAP as u64 {
        record_walk_span(&store, i);
    }
    assert_eq!(allocs() - a0, 0, "allocations recording {} spans", 4 * CAP);
}

/// Details come and go with their spans: a stream where no detail
/// repeats holds one ring's worth of them, not every one it ever saw.
#[test]
fn evicted_spans_give_their_details_back() {
    let base = live_bytes();
    let store = SpanStore::new(1_024, 1);
    let mut held = Vec::new();
    for round in 0..4u64 {
        for i in 0..1_024 {
            let n = round * 1_024 + i;
            let span = SpanRecord {
                detail: String::new(),
                ..span(n, n)
            };
            store.record_args(span, format_args!("SELECT count(*) WHERE Load < {n}"));
        }
        held.push(live_bytes() - base);
    }
    assert_eq!(store.dropped(), 3 * 1_024);
    assert!(held[1..].iter().all(|&h| h <= held[1]), "{held:?}");
}

fn span(trace_id: u64, n: u64) -> SpanRecord {
    SpanRecord {
        trace_id,
        span_id: n + 1,
        parent_span_id: n,
        node: 1,
        phase: Phase::ALL[(n % 8) as usize],
        peer: NO_PEER,
        start_us: n * 10,
        queue_us: n,
        service_us: 7,
        bytes: 100,
        detail: format!("d{}", n % 5),
    }
}

/// What the compact form must carry exactly: the widest ids and start
/// times, no peer, the bounded values at their bound and past it, and
/// details that are empty, long, or not ASCII.
#[test]
fn every_field_reads_back_exactly_as_recorded() {
    let bound = u64::from(u32::MAX) - 1;
    let long = "x".repeat(200);
    let extremes = [
        (u64::MAX, u64::MAX, u64::MAX, u32::MAX, NO_PEER, u64::MAX),
        (0, 1, 0, 0, 0, 0),
        (7, u64::MAX - 1, 1 << 63, 17, 3, 1 << 40),
    ];
    let values = [
        [bound, bound, bound],
        [0, 0, 0],
        [bound + 1, 0, 0],
        [0, 0, bound + 1],
        [u64::MAX, u64::MAX, u64::MAX],
        [12, u64::MAX, 4096],
    ];
    let details = ["", long.as_str(), "Δ=µs ✓ 日本語", "ServiceX=true"];
    let store = SpanStore::new(4_096, 1);
    let mut want = Vec::new();
    for (e, &(trace_id, span_id, parent_span_id, node, peer, start_us)) in
        extremes.iter().enumerate()
    {
        for (v, &[queue_us, service_us, bytes]) in values.iter().enumerate() {
            for (d, detail) in details.iter().enumerate() {
                let phase = Phase::ALL[(e + v + d) % 8];
                let rec = SpanRecord {
                    trace_id,
                    span_id,
                    parent_span_id,
                    node,
                    phase,
                    peer,
                    start_us,
                    queue_us,
                    service_us,
                    bytes,
                    detail: detail.to_string(),
                };
                // Half through `record`, half formatted into the store.
                if d % 2 == 0 {
                    store.record(rec.clone());
                } else {
                    let head = SpanRecord {
                        detail: String::new(),
                        ..rec.clone()
                    };
                    store.record_args(head, format_args!("{detail}"));
                }
                want.push(rec);
            }
        }
    }
    for (trace_id, ..) in extremes {
        let want = want.iter().filter(|s| s.trace_id == trace_id).cloned();
        assert_eq!(store.spans_for(trace_id), want.collect::<Vec<_>>());
    }
}

/// The store evicts as a plain ring of records does: the same spans
/// survive, in the same order, and the same number fell off.
#[test]
fn eviction_matches_a_ring_of_records() {
    for cap in [1, 5, 64, 1_000] {
        let (store, ring) = (SpanStore::new(cap, 1), Ring::new(cap));
        for n in 0..2_500 {
            let rec = span(n % 7, n);
            ring.push(rec.clone());
            store.record(rec);
        }
        assert_eq!((store.len(), store.dropped()), (ring.len(), ring.dropped()));
        for trace in 0..7 {
            let want = ring.filtered(|s| s.trace_id == trace);
            assert_eq!(store.spans_for(trace), want, "cap {cap}, trace {trace}");
        }
    }
}
