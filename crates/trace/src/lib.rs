//! # moara-trace
//!
//! The cluster-wide tracing and profiling substrate: how one composite
//! query becomes a causally-linked span tree spanning every daemon it
//! touched.
//!
//! Three pieces:
//!
//! 1. **[`TraceCtx`]** — the 25-byte context carried on the wire as an
//!    optional trailing field of the query/probe/`SubDelta` messages.
//!    Each hop reads the sender's span id out of it, opens its own span
//!    with that id as the parent, and forwards a context naming its own
//!    span — so the parent links reconstruct the aggregation tree
//!    exactly as the query traversed it, across process boundaries.
//! 2. **[`SpanStore`]** — a bounded [`Ring`] of spans each daemon
//!    keeps, 60 bytes a span with each distinct detail held once.
//!    Recording a span formats its detail into the store and pushes; once
//!    the ring is full (the oldest span falls off) that allocates nothing.
//!    A
//!    sampling divisor makes always-on tracing cheap: only every Nth
//!    root decision carries the `SAMPLED` flag, and unsampled contexts
//!    cost one branch per hop. The store also folds every recorded span
//!    into per-phase [`Histogram`]s, which is where the `/metrics`
//!    "query latency by phase" family and its exemplars come from.
//! 3. **Renderers** — [`render_waterfall`] turns a merged span set into
//!    the text waterfall `moara-cli trace <id>` prints; span sets merge
//!    across daemons by simple concatenation because span ids embed the
//!    recording node.
//!
//! Trace ids are *not* random (the simulator's determinism is sacred):
//! query traces reuse the engine's `QueryId::tag()`, and standalone
//! roots (subscription deltas, SWIM rounds) derive ids from the
//! recording node and a local counter, partitioned by the top two bits
//! so the id spaces cannot collide.

use moara_wire::{Sink, Wire, WireError};

mod histogram;
mod ring;
mod store;

pub use histogram::{Histogram, Snapshot};
pub use ring::Ring;
pub use store::SpanStore;

/// `TraceCtx::flags` bit: spans along this trace are recorded.
pub const FLAG_SAMPLED: u8 = 1;

/// Top-bits namespace for trace ids minted for subscription delta pushes
/// (query traces use `QueryId::tag()`, which never sets the top bit
/// pattern `10` because node ids stay far below `2^31`).
pub const TRACE_NS_SUBDELTA: u64 = 0x8000_0000_0000_0000;

/// Top-bits namespace for SWIM probe-round trace ids.
pub const TRACE_NS_SWIM: u64 = 0xC000_0000_0000_0000;

/// The trace context carried on the wire: which trace a message belongs
/// to, which span sent it, and that span's own parent.
///
/// `parent_span_id` is redundant for tree reconstruction (the receiver
/// only needs `span_id`), but carrying it makes every context
/// self-describing — a span store that missed the parent hop can still
/// place the subtree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Which trace this message belongs to.
    pub trace_id: u64,
    /// The sender-side span that caused this message (the receiver's
    /// parent).
    pub span_id: u64,
    /// The sender-side span's own parent (0 at the root).
    pub parent_span_id: u64,
    /// Bit flags; see [`FLAG_SAMPLED`].
    pub flags: u8,
}

impl TraceCtx {
    /// A sampled root context for `trace_id` with no parent yet.
    pub fn root(trace_id: u64) -> TraceCtx {
        TraceCtx {
            trace_id,
            span_id: 0,
            parent_span_id: 0,
            flags: FLAG_SAMPLED,
        }
    }

    /// True when spans along this trace should be recorded.
    pub fn sampled(&self) -> bool {
        self.flags & FLAG_SAMPLED != 0
    }

    /// The context a span with id `span_id` forwards downstream: same
    /// trace and flags, this span as the new parent.
    pub fn descend(&self, span_id: u64) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            span_id,
            parent_span_id: self.span_id,
            flags: self.flags,
        }
    }
}

impl Wire for TraceCtx {
    fn encode(&self, out: &mut impl Sink) {
        self.trace_id.encode(out);
        self.span_id.encode(out);
        self.parent_span_id.encode(out);
        self.flags.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(TraceCtx {
            trace_id: u64::decode(buf)?,
            span_id: u64::decode(buf)?,
            parent_span_id: u64::decode(buf)?,
            flags: u8::decode(buf)?,
        })
    }
}

/// What a span measured — one stage of a query's life, one delta push,
/// or one failure-detector round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Query text parsed into a predicate tree (front end).
    Parse = 0,
    /// CNF conversion and cover planning (front end).
    Plan = 1,
    /// Size-probe round trip, or answering one at a group root.
    Probe = 2,
    /// Forwarding the query down one hop of the aggregation tree.
    FanOut = 3,
    /// Waiting for and merging child answers at one hop.
    Fold = 4,
    /// Final merge of per-tree answers at the front end.
    Reply = 5,
    /// One subscription delta pushed up a group tree.
    SubDelta = 6,
    /// One SWIM direct-probe round observed by the daemon.
    SwimPing = 7,
}

impl Phase {
    /// Every phase, in tag order (histogram catalogues iterate this).
    pub const ALL: [Phase; 8] = [
        Phase::Parse,
        Phase::Plan,
        Phase::Probe,
        Phase::FanOut,
        Phase::Fold,
        Phase::Reply,
        Phase::SubDelta,
        Phase::SwimPing,
    ];

    /// Stable lowercase name (metrics label, JSON, waterfall column).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Plan => "plan",
            Phase::Probe => "probe",
            Phase::FanOut => "fan-out",
            Phase::Fold => "fold",
            Phase::Reply => "reply",
            Phase::SubDelta => "sub-delta",
            Phase::SwimPing => "swim-ping",
        }
    }

    fn from_u8(v: u8) -> Result<Phase, WireError> {
        Ok(match v {
            0 => Phase::Parse,
            1 => Phase::Plan,
            2 => Phase::Probe,
            3 => Phase::FanOut,
            4 => Phase::Fold,
            5 => Phase::Reply,
            6 => Phase::SubDelta,
            7 => Phase::SwimPing,
            _ => return Err(WireError::Invalid("phase tag")),
        })
    }
}

impl Wire for Phase {
    fn encode(&self, out: &mut impl Sink) {
        (*self as u8).encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Phase::from_u8(u8::decode(buf)?)
    }
}

/// Sentinel for [`SpanRecord::peer`]: no remote peer involved.
pub const NO_PEER: u32 = u32::MAX;

/// One recorded span: a timed stage of work on one node, causally linked
/// into its trace by `parent_span_id`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (node-unique; the recording node is embedded in
    /// the high bits, so merged span sets never collide).
    pub span_id: u64,
    /// The causing span (0 for a trace root).
    pub parent_span_id: u64,
    /// The node that recorded the span.
    pub node: u32,
    /// What stage of work this span timed.
    pub phase: Phase,
    /// Remote peer involved (parent or probe target), [`NO_PEER`] if none.
    pub peer: u32,
    /// Span start, microseconds on the recording node's transport clock
    /// (virtual under simulation, real elapsed under TCP).
    pub start_us: u64,
    /// Time spent waiting before service: job-channel wait for
    /// edge-triggered spans, the wait-for-children window for folds.
    pub queue_us: u64,
    /// Time spent doing work.
    pub service_us: u64,
    /// Bytes sent or received on behalf of this span.
    pub bytes: u64,
    /// Free-form annotation (predicate key, query text, endpoint).
    pub detail: String,
}

impl Wire for SpanRecord {
    fn encode(&self, out: &mut impl Sink) {
        self.trace_id.encode(out);
        self.span_id.encode(out);
        self.parent_span_id.encode(out);
        self.node.encode(out);
        self.phase.encode(out);
        self.peer.encode(out);
        self.start_us.encode(out);
        self.queue_us.encode(out);
        self.service_us.encode(out);
        self.bytes.encode(out);
        self.detail.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SpanRecord {
            trace_id: u64::decode(buf)?,
            span_id: u64::decode(buf)?,
            parent_span_id: u64::decode(buf)?,
            node: u32::decode(buf)?,
            phase: Phase::decode(buf)?,
            peer: u32::decode(buf)?,
            start_us: u64::decode(buf)?,
            queue_us: u64::decode(buf)?,
            service_us: u64::decode(buf)?,
            bytes: u64::decode(buf)?,
            detail: String::decode(buf)?,
        })
    }
}

/// One line of the recent-trace index (`GET /v1/traces`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// The trace.
    pub trace_id: u64,
    /// Phase of the trace's earliest local span.
    pub phase: Phase,
    /// Node that recorded that earliest span.
    pub node: u32,
    /// Earliest local span start (microseconds, recording node's clock).
    pub start_us: u64,
    /// Wall-clock extent covered by local spans (microseconds).
    pub duration_us: u64,
    /// Local spans recorded for the trace.
    pub spans: u32,
}

impl Wire for TraceSummary {
    fn encode(&self, out: &mut impl Sink) {
        self.trace_id.encode(out);
        self.phase.encode(out);
        self.node.encode(out);
        self.start_us.encode(out);
        self.duration_us.encode(out);
        self.spans.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(TraceSummary {
            trace_id: u64::decode(buf)?,
            phase: Phase::decode(buf)?,
            node: u32::decode(buf)?,
            start_us: u64::decode(buf)?,
            duration_us: u64::decode(buf)?,
            spans: u32::decode(buf)?,
        })
    }
}

/// Canonical rendering of a trace id: `0x` plus 16 hex digits. JSON
/// carries trace ids in this form because they routinely exceed the
/// 2^53 integer-exactness limit of JSON numbers.
pub fn format_trace_id(id: u64) -> String {
    format!("0x{id:016x}")
}

/// Parses a trace id as rendered by [`format_trace_id`]; bare hex and
/// decimal spellings are accepted too.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        return u64::from_str_radix(hex, 16).ok();
    }
    // Prefer decimal; fall back to bare hex (ids printed without 0x).
    s.parse().ok().or_else(|| u64::from_str_radix(s, 16).ok())
}

// ----- histograms ---------------------------------------------------------

/// Default bucket upper bounds for latency-style histograms, in
/// microseconds (50 µs … 5 s, roughly ×2.5 per step).
pub const LATENCY_BOUNDS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
    5_000_000,
];

/// Default bucket upper bounds for queue-depth-style histograms.
pub const DEPTH_BOUNDS: [u64; 8] = [0, 1, 2, 5, 10, 25, 50, 100];

impl Histogram {
    /// The standard latency histogram ([`LATENCY_BOUNDS_US`]).
    pub fn latency_us() -> Histogram {
        Histogram::new(&LATENCY_BOUNDS_US)
    }

    /// The standard depth histogram ([`DEPTH_BOUNDS`]).
    pub fn depth() -> Histogram {
        Histogram::new(&DEPTH_BOUNDS)
    }
}

// ----- waterfall rendering ------------------------------------------------

/// Renders a merged span set as a text waterfall, one line per span,
/// children indented under parents, orphans (parent missing from the
/// set — e.g. recorded on a partitioned daemon) flagged and listed at
/// top level. `missing` names nodes whose stores could not be reached
/// during the merge.
///
/// Offsets are relative to the earliest span and use each recording
/// node's own clock; under TCP those clocks share only their boot epoch,
/// so cross-node offsets are approximate (the causal structure is not).
pub fn render_waterfall(trace_id: u64, spans: &[SpanRecord], missing: &[u32]) -> String {
    use std::collections::{BTreeMap, HashSet};
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {} ({} spans)",
        format_trace_id(trace_id),
        spans.len()
    );
    if spans.is_empty() {
        if missing.is_empty() {
            out.push_str("  (no spans recorded — trace evicted, unsampled, or unknown)\n");
        }
        for n in missing {
            let _ = writeln!(out, "  ! node n{n} unreachable during merge");
        }
        return out;
    }

    let ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    // Children sorted by start for a stable, chronological rendering.
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<(&SpanRecord, bool)> = Vec::new();
    for s in spans {
        if s.parent_span_id != 0 && ids.contains(&s.parent_span_id) {
            children.entry(s.parent_span_id).or_default().push(s);
        } else {
            // True root, or orphan whose parent the merge never saw.
            roots.push((s, s.parent_span_id != 0));
        }
    }
    for list in children.values_mut() {
        list.sort_by_key(|s| (s.start_us, s.span_id));
    }
    roots.sort_by_key(|(s, _)| (s.start_us, s.span_id));
    let t0 = spans.iter().map(|s| s.start_us).min().unwrap_or(0);

    fn emit(
        out: &mut String,
        s: &SpanRecord,
        depth: usize,
        orphan: bool,
        t0: u64,
        children: &BTreeMap<u64, Vec<&SpanRecord>>,
    ) {
        use std::fmt::Write as _;
        let indent = "  ".repeat(depth + 1);
        let peer = if s.peer == NO_PEER {
            String::new()
        } else {
            format!(" peer=n{}", s.peer)
        };
        let detail = if s.detail.is_empty() {
            String::new()
        } else {
            format!(" {}", s.detail)
        };
        let mark = if orphan { " (orphan)" } else { "" };
        let _ = writeln!(
            out,
            "{indent}+{:>7}us {:<9} n{:<4} queue={}us service={}us bytes={}{peer}{detail}{mark}",
            s.start_us.saturating_sub(t0),
            s.phase.as_str(),
            s.node,
            s.queue_us,
            s.service_us,
            s.bytes,
        );
        if let Some(kids) = children.get(&s.span_id) {
            for k in kids {
                emit(out, k, depth + 1, false, t0, children);
            }
        }
    }

    for (root, orphan) in roots {
        emit(&mut out, root, 0, orphan, t0, &children);
    }
    for n in missing {
        let _ = writeln!(out, "  ! node n{n} unreachable during merge (subtree lost)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, node: u32, phase: Phase, start: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent_span_id: parent,
            node,
            phase,
            peer: NO_PEER,
            start_us: start,
            queue_us: 5,
            service_us: 7,
            bytes: 100,
            detail: String::new(),
        }
    }

    #[test]
    fn trace_ctx_roundtrips_and_descends() {
        let root = TraceCtx::root(0xdead_beef);
        assert!(root.sampled());
        let child = root.descend(42);
        assert_eq!(child.trace_id, 0xdead_beef);
        assert_eq!(child.span_id, 42);
        assert_eq!(child.parent_span_id, 0);
        let bytes = child.to_bytes();
        assert_eq!(bytes.len(), child.encoded_len());
        assert_eq!(TraceCtx::from_bytes(&bytes).unwrap(), child);
    }

    #[test]
    fn span_record_roundtrips_and_rejects_bad_phase() {
        let s = SpanRecord {
            detail: "ServiceX=true".into(),
            peer: 3,
            ..span(9, 8, 7, 1, Phase::Fold, 1000)
        };
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), s.encoded_len());
        assert_eq!(SpanRecord::from_bytes(&bytes).unwrap(), s);
        // Corrupt the phase tag (offset: 3×u64 + u32 = 28).
        let mut bad = bytes.clone();
        bad[28] = 250;
        assert_eq!(
            SpanRecord::from_bytes(&bad),
            Err(WireError::Invalid("phase tag"))
        );
        // Truncation at every prefix errors rather than panics.
        for cut in 0..bytes.len() {
            assert!(SpanRecord::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn trace_summary_roundtrips() {
        let t = TraceSummary {
            trace_id: 77,
            phase: Phase::Parse,
            node: 2,
            start_us: 10,
            duration_us: 300,
            spans: 6,
        };
        assert_eq!(TraceSummary::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn trace_id_formatting_roundtrips() {
        let id = 0x0000_0002_0000_0001;
        let s = format_trace_id(id);
        assert_eq!(s, "0x0000000200000001");
        assert_eq!(parse_trace_id(&s), Some(id));
        assert_eq!(parse_trace_id("17"), Some(17));
        assert_eq!(parse_trace_id("ff"), Some(0xff));
        assert_eq!(parse_trace_id("zz"), None);
    }

    #[test]
    fn store_records_fetches_and_bounds() {
        let store = SpanStore::new(64, 1);
        assert!(store.enabled());
        for i in 0..160 {
            store.record(span(16, i + 1, 0, 0, Phase::FanOut, i));
        }
        store.record(span(17, 161, 0, 0, Phase::FanOut, 160));
        assert_eq!(store.len(), 64);
        assert_eq!(store.dropped(), 161 - 64);
        // Exactly the newest survive, oldest first.
        let spans = store.spans_for(16);
        let ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
        assert_eq!(ids, (98..=160).collect::<Vec<_>>());
        assert_eq!(store.spans_for(17).len(), 1);
        assert!(store.spans_for(18).is_empty());
    }

    #[test]
    fn disabled_store_records_nothing() {
        let store = SpanStore::new(64, 0);
        assert!(!store.enabled());
        assert!(!store.sample_root());
        store.record(span(1, 1, 0, 0, Phase::Parse, 0));
        assert!(store.is_empty());
    }

    #[test]
    fn sampling_divisor_keeps_one_in_n() {
        let store = SpanStore::new(64, 4);
        let sampled = (0..100).filter(|_| store.sample_root()).count();
        assert_eq!(sampled, 25);
        // sample_every == 1 samples everything.
        let always = SpanStore::new(64, 1);
        assert!((0..10).all(|_| always.sample_root()));
    }

    #[test]
    fn span_ids_are_node_unique_and_nonzero() {
        let store = SpanStore::new(64, 1);
        let a = store.next_span_id(0);
        let b = store.next_span_id(0);
        let c = store.next_span_id(1);
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_ne!(a >> 32, c >> 32, "node lives in the high bits");
    }

    #[test]
    fn recent_summarizes_newest_first() {
        let store = SpanStore::new(256, 1);
        store.record(span(1, 10, 0, 0, Phase::Parse, 100));
        store.record(span(1, 11, 10, 1, Phase::FanOut, 150));
        store.record(span(2, 20, 0, 0, Phase::Parse, 900));
        let recent = store.recent(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].trace_id, 2);
        assert_eq!(recent[1].trace_id, 1);
        assert_eq!(recent[1].spans, 2);
        assert_eq!(recent[1].phase, Phase::Parse);
        assert!(recent[1].duration_us >= 50);
        assert_eq!(store.recent(1).len(), 1);
    }

    #[test]
    fn phase_histograms_fold_every_span() {
        let store = SpanStore::new(64, 1);
        store.record(span(1, 1, 0, 0, Phase::Fold, 0));
        store.record(span(1, 2, 1, 0, Phase::Fold, 0));
        let of = |phase| {
            let mut hists = store.phase_histograms();
            hists.find(|&(p, _)| p == phase).unwrap().1.snapshot()
        };
        let fold = of(Phase::Fold);
        assert_eq!(fold.count(), 2);
        assert_eq!(fold.sum, 24); // 2 × (queue 5 + service 7)
        assert_eq!(of(Phase::Parse).count(), 0);
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf() {
        let h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(5_000);
        let snap = h.snapshot();
        assert_eq!(snap.cumulative, vec![1, 2, 3]);
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.sum, 5_055);
        // Boundary values land in their bucket (le = inclusive).
        let h = Histogram::new(&[10]);
        h.observe(10);
        assert_eq!(h.snapshot().cumulative, vec![1, 1]);
    }

    /// Observers on two threads, snapshots on a third: a snapshot's
    /// `+Inf` bucket is its count, so no scrape can publish the two
    /// disagreeing, and nothing observed is lost.
    #[test]
    fn histogram_snapshots_never_tear_under_concurrent_observers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        let h = Histogram::new(&LATENCY_BOUNDS_US);
        let (stop, start) = (AtomicBool::new(false), Barrier::new(3));
        let observed: u64 = std::thread::scope(|s| {
            let observers: Vec<_> = (0..2u64)
                .map(|t| {
                    let (h, stop, start) = (&h, &stop, &start);
                    s.spawn(move || {
                        start.wait();
                        let mut n = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            h.observe((n * 7919 + t) % 2_000_000);
                            n += 1;
                        }
                        n
                    })
                })
                .collect();
            start.wait();
            for _ in 0..200_000 {
                let snap = h.snapshot();
                assert_eq!(*snap.cumulative.last().unwrap(), snap.count());
                assert!(snap.cumulative.windows(2).all(|w| w[0] <= w[1]));
            }
            stop.store(true, Ordering::Relaxed);
            observers.into_iter().map(|o| o.join().unwrap()).sum()
        });
        assert_eq!(h.snapshot().count(), observed);
    }

    #[test]
    fn histogram_quantile_reports_bucket_upper_bounds() {
        let h = Histogram::new(&[10, 100, 1_000]);
        assert_eq!(h.snapshot().quantile(0.99), 0, "empty histogram");
        for _ in 0..90 {
            h.observe(5);
        }
        for _ in 0..9 {
            h.observe(50);
        }
        h.observe(500);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), 10);
        assert_eq!(snap.quantile(0.95), 100);
        assert_eq!(snap.quantile(1.0), 1_000);
        // Overflow observations clamp to the last finite bound.
        h.observe(50_000);
        assert_eq!(h.snapshot().quantile(1.0), 1_000);
    }

    #[test]
    fn exemplars_keep_latest_trace_id_per_bucket() {
        let h = Histogram::new(&[10, 100]);
        assert!(h.exemplars().is_empty());
        h.observe_traced(5, 111);
        h.observe_traced(7, 222); // same bucket: latest wins
        h.observe_traced(50, 0); // untraced: counted, no exemplar
        h.observe(60);
        h.observe_traced(5_000, 333); // +Inf bucket
        assert_eq!(h.exemplars(), vec![(10, 222), (u64::MAX, 333)]);
        assert_eq!(h.snapshot().cumulative, vec![2, 4, 5]);
    }

    #[test]
    fn ring_keeps_the_last_k_in_order_and_counts_the_rest() {
        let ring = Ring::new(5);
        for i in 0..23 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 5);
        assert_eq!(ring.filtered(|_| true), vec![18, 19, 20, 21, 22]);
        assert_eq!(ring.dropped(), 23 - 5);
        let mut seen = Vec::new();
        ring.for_each(|&i| seen.push(i));
        assert_eq!(seen, vec![18, 19, 20, 21, 22]);
        // Below capacity nothing is evicted.
        let ring = Ring::new(5);
        (0..3).for_each(|i| {
            ring.push(i);
        });
        assert_eq!((ring.len(), ring.dropped()), (3, 0));
    }

    #[test]
    fn racing_pushes_lose_nothing_but_evictions() {
        use std::sync::Barrier;
        let (ring, start) = (Ring::new(100), Barrier::new(2));
        std::thread::scope(|s| {
            let pushers: Vec<_> = (0..2u64)
                .map(|t| {
                    let (ring, start) = (&ring, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..50_000).for_each(|i| {
                            ring.push((t, i));
                        });
                    })
                })
                .collect();
            pushers.into_iter().for_each(|p| p.join().unwrap());
        });
        assert_eq!(ring.len() as u64 + ring.dropped(), 100_000);
        assert_eq!(ring.len(), 100);
        // Each pusher's survivors are still in its own push order.
        let kept = ring.filtered(|_| true);
        for t in 0..2 {
            let mine: Vec<u64> = kept.iter().filter(|e| e.0 == t).map(|e| e.1).collect();
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "{mine:?}");
        }
    }

    #[test]
    fn store_surfaces_phase_exemplars() {
        let store = SpanStore::new(64, 1);
        store.record(span(41, 1, 0, 0, Phase::Fold, 0));
        store.record(span(42, 2, 0, 0, Phase::Fold, 0));
        let ex = store.phase_exemplars();
        assert_eq!(ex.len(), 1);
        let (phase, entries) = &ex[0];
        assert_eq!(*phase, Phase::Fold);
        // Both spans land in the 50 µs bucket (queue 5 + service 7);
        // the later one is the exemplar.
        assert_eq!(entries.as_slice(), &[(50, 42)]);
    }

    #[test]
    fn waterfall_indents_children_and_marks_orphans() {
        let spans = vec![
            span(5, 1, 0, 0, Phase::Parse, 0),
            span(5, 2, 1, 0, Phase::FanOut, 10),
            span(5, 3, 2, 1, Phase::Fold, 20),
            // Orphan: parent span 99 was never merged.
            span(5, 4, 99, 2, Phase::Fold, 30),
        ];
        let text = render_waterfall(5, &spans, &[3]);
        assert!(
            text.contains("trace 0x0000000000000005 (4 spans)"),
            "{text}"
        );
        assert!(text.contains("parse"), "{text}");
        let fanout_line = text.lines().find(|l| l.contains("fan-out")).unwrap();
        let fold_line = text.lines().find(|l| l.contains("fold")).unwrap();
        let indent = |l: &str| l.len() - l.trim_start().len();
        assert!(indent(fanout_line) > indent(text.lines().nth(1).unwrap()));
        assert!(indent(fold_line) > indent(fanout_line));
        assert!(text.contains("(orphan)"), "{text}");
        assert!(text.contains("node n3 unreachable"), "{text}");
        assert!(text.contains("queue=5us service=7us"), "{text}");
    }

    #[test]
    fn waterfall_of_unknown_trace_says_so() {
        let text = render_waterfall(1, &[], &[]);
        assert!(text.contains("no spans recorded"), "{text}");
    }
}
