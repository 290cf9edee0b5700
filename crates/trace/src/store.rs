//! The span store: a bounded [`Ring`] of spans in a compact stored form,
//! plus the per-phase latency histograms every recorded span feeds.
//!
//! A stored span is 60 bytes with nothing on the heap of its own: its
//! `u64`s are split into `u32` halves so it aligns to 4, its three
//! bounded values are `u32`s, and its detail is a slot in a table that
//! holds each distinct detail once. Every field reads back exactly as
//! recorded.

use std::collections::HashMap;
use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::{Histogram, Phase, Ring, SpanRecord, TraceSummary};

/// `queue_us`, `service_us` and `bytes` are stored as `u32`s below this.
/// The code bounds all three well under it: the engine's durations end
/// by the front timeout (60 s by default; the bound is 71 minutes), and
/// `bytes` counts framed bytes, which the wire caps at 4 GiB. A span
/// past it still reads back exactly: all three are stored as `WIDE`, and
/// their full values go at the head of the span's detail.
const WIDE: u32 = u32::MAX;

/// First byte of a detail that carries a wide span's three values (24
/// bytes, little-endian) before its text; never the first byte of UTF-8.
const WIDE_MARK: u8 = 0xFF;

/// One span as the ring holds it.
#[derive(Clone, Copy, Debug)]
struct StoredSpan {
    /// This and the next three: the `u64`s, as low and high halves.
    trace_id: [u32; 2],
    span_id: [u32; 2],
    parent_span_id: [u32; 2],
    start_us: [u32; 2],
    node: u32,
    peer: u32,
    /// `queue_us`, `service_us` and `bytes`, or `[WIDE; 3]`.
    narrow: [u32; 3],
    /// The span's slot in [`Details`].
    detail: u32,
    phase: Phase,
}

fn split(v: u64) -> [u32; 2] {
    [v as u32, (v >> 32) as u32]
}

fn join([lo, hi]: [u32; 2]) -> u64 {
    u64::from(lo) | u64::from(hi) << 32
}

impl StoredSpan {
    /// `queue_us`, `service_us`, `bytes` and the detail's text.
    fn tail<'d>(&self, details: &'d Details) -> ([u64; 3], &'d [u8]) {
        let bytes = details.bytes(self.detail);
        if self.narrow != [WIDE; 3] {
            return (self.narrow.map(u64::from), bytes);
        }
        let (wide, text) = bytes[1..].split_at(24);
        let value = |i: usize| u64::from_le_bytes(wide[i * 8..][..8].try_into().expect("8 bytes"));
        ([value(0), value(1), value(2)], text)
    }

    /// The span as it was recorded.
    fn record(&self, details: &Details) -> SpanRecord {
        let ([queue_us, service_us, bytes], text) = self.tail(details);
        SpanRecord {
            trace_id: join(self.trace_id),
            span_id: join(self.span_id),
            parent_span_id: join(self.parent_span_id),
            node: self.node,
            phase: self.phase,
            peer: self.peer,
            start_us: join(self.start_us),
            queue_us,
            service_us,
            bytes,
            detail: String::from_utf8_lossy(text).into_owned(),
        }
    }
}

/// Each distinct detail the ring's spans carry, held once. A slot counts
/// the spans that carry it and is reused once none does, so the table
/// never holds more entries than the ring holds spans — and under `walk`
/// a few dozen (`agg=…`, `cost=…`, `complete=…`, `targets=…` and the
/// predicate keys).
#[derive(Debug, Default)]
struct Details {
    slot_of: HashMap<Arc<[u8]>, u32>,
    /// Each slot's detail and the spans carrying it; `None` when free.
    slots: Vec<(Option<Arc<[u8]>>, u32)>,
    free: Vec<u32>,
    /// The detail of the span being recorded, written here first.
    draft: Vec<u8>,
}

impl Details {
    /// The slot holding what `draft` says, taken once more.
    fn hold(&mut self) -> u32 {
        if let Some(&slot) = self.slot_of.get(self.draft.as_slice()) {
            self.slots[slot as usize].1 += 1;
            return slot;
        }
        let bytes: Arc<[u8]> = Arc::from(self.draft.as_slice());
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = (Some(Arc::clone(&bytes)), 1);
                slot
            }
            None => {
                self.slots.push((Some(Arc::clone(&bytes)), 1));
                u32::try_from(self.slots.len() - 1).expect("a slot per span held, at most")
            }
        };
        self.slot_of.insert(bytes, slot);
        slot
    }

    /// Lets go of one span's hold on `slot`, freeing it with the last.
    fn release(&mut self, slot: u32) {
        let entry = &mut self.slots[slot as usize];
        entry.1 -= 1;
        if entry.1 == 0 {
            if let Some(bytes) = entry.0.take() {
                self.slot_of.remove(&bytes);
            }
            self.free.push(slot);
        }
    }

    fn bytes(&self, slot: u32) -> &[u8] {
        self.slots[slot as usize].0.as_deref().unwrap_or_default()
    }
}

/// A bounded [`Ring`] of spans plus per-phase latency histograms — one
/// per daemon, shared (`Arc`) between the protocol engine, the daemon
/// event loop, and the control plane.
///
/// Two locks: the detail table's, then the ring's inside it. Recording
/// and reading take both in that order, so a reader never sees a span
/// whose detail slot has been let go.
#[derive(Debug)]
pub struct SpanStore {
    spans: Ring<StoredSpan>,
    details: Mutex<Details>,
    sample_every: u64,
    sample_ctr: AtomicU64,
    span_ctr: AtomicU64,
    phase_hist: [Histogram; Phase::ALL.len()],
}

impl SpanStore {
    /// Bytes one stored span takes in the ring (60). Its detail is shared
    /// with every other span that carries the same one.
    pub const SPAN_BYTES: usize = std::mem::size_of::<StoredSpan>();

    /// A store holding at most `capacity` spans, sampling one in
    /// `sample_every` trace roots (`0` disables tracing entirely, `1`
    /// samples everything).
    pub fn new(capacity: usize, sample_every: u64) -> SpanStore {
        SpanStore {
            spans: Ring::new(capacity),
            details: Mutex::default(),
            sample_every,
            sample_ctr: AtomicU64::new(0),
            span_ctr: AtomicU64::new(0),
            phase_hist: std::array::from_fn(|_| Histogram::latency_us()),
        }
    }

    fn details(&self) -> MutexGuard<'_, Details> {
        // Every update leaves the table whole between statements that can
        // panic, so a guard a panicking thread poisoned is still usable.
        self.details.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// True when the store records anything at all.
    pub fn enabled(&self) -> bool {
        self.sample_every > 0
    }

    /// The sampling decision for a new trace root: true for one in
    /// `sample_every` calls (deterministic — a counter, not a RNG).
    pub fn sample_root(&self) -> bool {
        if self.sample_every == 0 {
            return false;
        }
        self.sample_ctr
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.sample_every)
    }

    /// Allocates a node-unique span id: the node in the high bits, a
    /// monotone counter below. Never returns 0 (0 means "no parent").
    pub fn next_span_id(&self, node: u32) -> u64 {
        let ctr = self.span_ctr.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff;
        (u64::from(node) + 1) << 32 | ctr
    }

    /// Records one span (and folds it into the phase histograms).
    pub fn record(&self, rec: SpanRecord) {
        self.record_args(rec, format_args!(""));
    }

    /// Records one span whose detail is `rec.detail` (normally empty)
    /// followed by `detail`, formatted straight into the store: once the
    /// ring is full and the detail has been seen, recording allocates
    /// nothing.
    pub fn record_args(&self, rec: SpanRecord, detail: fmt::Arguments<'_>) {
        if self.sample_every == 0 {
            return;
        }
        let total_us = rec.queue_us.saturating_add(rec.service_us);
        self.phase_hist[rec.phase as usize].observe_traced(total_us, rec.trace_id);
        let values = [rec.queue_us, rec.service_us, rec.bytes];
        let narrow = values.map(|v| u32::try_from(v).unwrap_or(WIDE));
        let narrow = if narrow.contains(&WIDE) {
            [WIDE; 3]
        } else {
            narrow
        };
        let mut details = self.details();
        let draft = &mut details.draft;
        draft.clear();
        if narrow == [WIDE; 3] {
            draft.push(WIDE_MARK);
            values.iter().for_each(|v| draft.extend(v.to_le_bytes()));
        }
        draft.extend_from_slice(rec.detail.as_bytes());
        let _ = draft.write_fmt(detail);
        let slot = details.hold();
        let evicted = self.spans.push(StoredSpan {
            trace_id: split(rec.trace_id),
            span_id: split(rec.span_id),
            parent_span_id: split(rec.parent_span_id),
            start_us: split(rec.start_us),
            node: rec.node,
            peer: rec.peer,
            narrow,
            detail: slot,
            phase: rec.phase,
        });
        if let Some(old) = evicted {
            details.release(old.detail);
        }
    }

    /// All locally-recorded spans of one trace, in recording order.
    pub fn spans_for(&self, trace_id: u64) -> Vec<SpanRecord> {
        let details = self.details();
        let mut out = Vec::new();
        self.spans.for_each(|s| {
            if join(s.trace_id) == trace_id {
                out.push(s.record(&details));
            }
        });
        out
    }

    /// The most recent `limit` traces (by earliest local span start,
    /// newest first), summarized.
    pub fn recent(&self, limit: usize) -> Vec<TraceSummary> {
        let details = self.details();
        let mut by_trace: HashMap<u64, TraceSummary> = HashMap::new();
        self.spans.for_each(|s| {
            let (trace_id, start_us) = (join(s.trace_id), join(s.start_us));
            let ([queue_us, service_us, _], _) = s.tail(&details);
            let end = start_us.saturating_add(queue_us).saturating_add(service_us);
            let e = by_trace.entry(trace_id).or_insert_with(|| TraceSummary {
                trace_id,
                phase: s.phase,
                node: s.node,
                start_us,
                duration_us: 0,
                spans: 0,
            });
            if start_us < e.start_us || (start_us == e.start_us && join(s.parent_span_id) == 0) {
                e.start_us = start_us;
                e.phase = s.phase;
                e.node = s.node;
            }
            let extent = end.saturating_sub(e.start_us);
            e.duration_us = e.duration_us.max(extent);
            e.spans += 1;
        });
        let mut out: Vec<TraceSummary> = by_trace.into_values().collect();
        out.sort_by(|a, b| {
            b.start_us
                .cmp(&a.start_us)
                .then(b.trace_id.cmp(&a.trace_id))
        });
        out.truncate(limit);
        out
    }

    /// Spans currently held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no spans are held.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans evicted by the ring-buffer cap since construction.
    pub fn dropped(&self) -> u64 {
        self.spans.dropped()
    }

    /// The most recent trace id per latency bucket, per phase: the
    /// bridge from "the p99 spiked" to a concrete waterfall. Only
    /// phases and buckets that have recorded at least one traced span
    /// appear.
    pub fn phase_exemplars(&self) -> Vec<(Phase, Vec<(u64, u64)>)> {
        Phase::ALL
            .iter()
            .filter_map(|&p| {
                let entries = self.phase_hist[p as usize].exemplars();
                (!entries.is_empty()).then_some((p, entries))
            })
            .collect()
    }

    /// The per-phase latency histograms, in [`Phase::ALL`] order.
    pub fn phase_histograms(&self) -> impl Iterator<Item = (Phase, &Histogram)> {
        Phase::ALL.into_iter().zip(&self.phase_hist)
    }
}
