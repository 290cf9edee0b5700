//! The flight recorder: bounded on-daemon history of what just
//! happened, so a 2 a.m. incident is still diagnosable at 9 a.m.
//!
//! Three pieces, all dependency-free and all bounded:
//!
//! * [`MetricsHistory`] — the daemon's health sample down-sampled into
//!   two fixed-size in-memory rings (1 s resolution for the last two
//!   minutes, 10 s resolution for `--history-retention`). RSS is fixed
//!   at construction; the sample path writes into preallocated slots
//!   and never allocates. Served at `GET /v1/history` and federated
//!   cluster-wide at `GET /v1/cluster/history`.
//! * [`EventJournal`] — one bounded [`Ring`] of structured events (SWIM
//!   transitions, subscription churn, cache promote/demote, alert
//!   edges, slow queries, reactor errors), evicted strictly oldest-first,
//!   behind the daemon's `record_event()`. Served at `GET /v1/events`
//!   and `moara-cli events`.
//! * Crash forensics — [`Recorder::render_dump`] serializes the last
//!   history window + journal tail + member table + trace exemplars as
//!   flat JSONL. The daemon writes it as a continuously-refreshed
//!   *blackbox* file every sample period (atomic rename, so even a
//!   `kill -9` or segfault leaves the final window on disk) and as
//!   tagged `crash-<reason>` dumps on panic and stall-watchdog trips.
//!   `moara-cli postmortem` renders any of these files.
//!
//! Everything in a dump is a *flat* JSON object per line (scalar values
//! only — series render as `"ts:value ts:value …"` strings): written
//! with [`JsonLine`], read back with its inverse,
//! [`moara_gateway::json::parse_flat_json`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use moara_gateway::json::JsonLine;
use moara_trace::Ring;
use moara_wire::wire_struct;

use crate::Member;

/// Tier-1 ring: 1-second resolution, two minutes deep — enough to see
/// the shape of the incident that just happened.
pub const TIER1_SLOTS: usize = 120;
/// Tier-1 resolution in seconds.
pub const TIER1_RES_S: u64 = 1;
/// Tier-2 resolution in seconds (each slot is the mean of the ten
/// tier-1 samples it covers).
pub const TIER2_RES_S: u64 = 10;
/// Default `--history-retention` in seconds (1 h of tier-2 slots).
pub const DEFAULT_RETENTION_S: u32 = 3600;

/// Journal capacity.
const JOURNAL_CAP: usize = 4096;
/// Most journal events rendered into one crash dump.
const DUMP_EVENTS: usize = 256;

/// One metric's two-tier ring storage. Slots are preallocated; `NaN`
/// marks a slot whose sample was unknown (e.g. cache ratio before any
/// traffic).
struct Tier {
    /// Unix-ms timestamps per slot; 0 = never written.
    stamps: Vec<u64>,
    /// `metrics × slots` values, row-major per metric.
    values: Vec<f64>,
    /// Next slot to write (ring cursor).
    next: usize,
    /// Slots written so far, saturating at capacity.
    filled: usize,
    slots: usize,
}

impl Tier {
    fn new(metrics: usize, slots: usize) -> Tier {
        Tier {
            stamps: vec![0; slots],
            values: vec![f64::NAN; metrics * slots],
            next: 0,
            filled: 0,
            slots,
        }
    }

    fn push(&mut self, ts_ms: u64, row: impl Iterator<Item = f64>) {
        let slot = self.next;
        self.stamps[slot] = ts_ms;
        for (m, v) in row.enumerate() {
            self.values[m * self.slots + slot] = v;
        }
        self.next = (self.next + 1) % self.slots;
        self.filled = (self.filled + 1).min(self.slots);
    }

    /// Points of metric `m` with `stamp >= since_ms`, oldest first,
    /// NaN slots skipped.
    fn series(&self, m: usize, since_ms: u64) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        for i in 0..self.filled {
            // Oldest-first walk: start just past the cursor.
            let slot = (self.next + self.slots - self.filled + i) % self.slots;
            let ts = self.stamps[slot];
            let v = self.values[m * self.slots + slot];
            if ts >= since_ms && !v.is_nan() {
                out.push((ts, v));
            }
        }
        out
    }

    /// Newest point of metric `m` with `stamp <= ts_ms`.
    fn at_or_before(&self, m: usize, ts_ms: u64) -> Option<(u64, f64)> {
        let mut best: Option<(u64, f64)> = None;
        for i in 0..self.filled {
            let slot = (self.next + self.slots - self.filled + i) % self.slots;
            let ts = self.stamps[slot];
            let v = self.values[m * self.slots + slot];
            if ts <= ts_ms && !v.is_nan() && best.is_none_or(|(bt, _)| ts >= bt) {
                best = Some((ts, v));
            }
        }
        best
    }
}

/// Fixed-size two-tier metrics history (see module docs). The metric
/// name set is fixed at construction, so a known metric with no sample
/// yet is an empty series rather than an unknown name; the rings are
/// allocated there and the sample path never allocates.
pub struct MetricsHistory {
    names: Vec<&'static str>,
    tier1: Tier,
    tier2: Tier,
    /// Per-metric (sum, count-of-known) accumulator toward the next
    /// tier-2 slot.
    acc: Vec<(f64, u32)>,
    acc_pushes: u32,
}

impl MetricsHistory {
    /// Rings for the metrics `names`. `retention_s` bounds how far back
    /// tier-2 reaches (rounded up to whole tier-2 slots, at least one).
    pub fn new(names: Vec<&'static str>, retention_s: u32) -> MetricsHistory {
        let tier2_slots = (u64::from(retention_s).div_ceil(TIER2_RES_S)).max(1) as usize;
        MetricsHistory {
            tier1: Tier::new(names.len(), TIER1_SLOTS),
            tier2: Tier::new(names.len(), tier2_slots),
            acc: vec![(0.0, 0); names.len()],
            acc_pushes: 0,
            names,
        }
    }

    /// The recorded metric names.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Records one full sample row: the metrics this history was built
    /// for, in the same order.
    pub fn record(&mut self, ts_ms: u64, sample: &[(&'static str, f64)]) {
        debug_assert_eq!(sample.len(), self.names.len(), "sample shape changed");
        self.tier1.push(ts_ms, sample.iter().map(|&(_, v)| v));
        for (slot, &(_, v)) in self.acc.iter_mut().zip(sample) {
            if !v.is_nan() {
                slot.0 += v;
                slot.1 += 1;
            }
        }
        self.acc_pushes += 1;
        if u64::from(self.acc_pushes) >= TIER2_RES_S / TIER1_RES_S {
            let acc = std::mem::take(&mut self.acc);
            self.tier2.push(
                ts_ms,
                acc.iter()
                    .map(|&(sum, n)| if n == 0 { f64::NAN } else { sum / f64::from(n) }),
            );
            self.acc = acc;
            for slot in &mut self.acc {
                *slot = (0.0, 0);
            }
            self.acc_pushes = 0;
        }
    }

    fn index_of(&self, metric: &str) -> Option<usize> {
        self.names.iter().position(|&n| n == metric)
    }

    /// The series for `metric` covering the last `range_s` seconds:
    /// tier-1 points while the range fits, tier-2 beyond. `None` for an
    /// unknown metric. Returns `(resolution_s, points)`.
    pub fn series(
        &self,
        metric: &str,
        range_s: u32,
        now_ms: u64,
    ) -> Option<(u64, Vec<(u64, f64)>)> {
        let m = self.index_of(metric)?;
        let since = now_ms.saturating_sub(u64::from(range_s).saturating_mul(1000));
        if u64::from(range_s) <= TIER1_SLOTS as u64 * TIER1_RES_S {
            Some((TIER1_RES_S, self.tier1.series(m, since)))
        } else {
            Some((TIER2_RES_S, self.tier2.series(m, since)))
        }
    }

    /// Newest recorded value of `metric`.
    pub fn latest(&self, metric: &str) -> Option<(u64, f64)> {
        let m = self.index_of(metric)?;
        self.tier1.at_or_before(m, u64::MAX)
    }

    /// Newest value of `metric` recorded at or before `ts_ms`, looking
    /// through tier-1 first and falling back to tier-2 for windows that
    /// outlive it. `None` until history reaches back that far — rate
    /// rules stay silent instead of firing on a half-seen window.
    pub fn at_or_before(&self, metric: &str, ts_ms: u64) -> Option<(u64, f64)> {
        let m = self.index_of(metric)?;
        self.tier1
            .at_or_before(m, ts_ms)
            .or_else(|| self.tier2.at_or_before(m, ts_ms))
    }
}

/// One structured journal event, as stored and as carried on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct EventWire {
    /// Global record order (gaps mean ring eviction).
    pub seq: u64,
    /// Unix milliseconds at record time.
    pub ts_ms: u64,
    /// The recording daemon.
    pub node: u32,
    /// Event kind — one of the `kind::*` vocabulary.
    pub kind: String,
    /// Free-form `k=v` detail (kept flat for the crash-dump format).
    pub detail: String,
}

wire_struct!(EventWire: seq, ts_ms, node, kind, detail);

/// The journal's event-kind vocabulary (stable strings: filters, JSON,
/// and dumps all carry these verbatim).
pub mod kind {
    pub const SWIM_SUSPECT: &str = "swim_suspect";
    pub const SWIM_CONFIRM: &str = "swim_confirm";
    pub const SWIM_REFUTE: &str = "swim_refute";
    pub const SUB_INSTALL: &str = "sub_install";
    pub const SUB_CANCEL: &str = "sub_cancel";
    pub const SUB_LEASE_GC: &str = "sub_lease_gc";
    pub const CACHE_PROMOTE: &str = "cache_promote";
    pub const CACHE_DEMOTE: &str = "cache_demote";
    pub const ALERT_FIRING: &str = "alert_firing";
    pub const ALERT_RESOLVED: &str = "alert_resolved";
    pub const SLOW_QUERY: &str = "slow_query";
    pub const GW_ERROR: &str = "gw_error";
    pub const GW_PANIC: &str = "gw_panic";
    pub const STALL: &str = "stall";
    pub const CRASH_DUMP: &str = "crash_dump";
    pub const PANIC: &str = "panic";
}

/// The event journal: a [`Ring`] of events and the counter that numbers
/// them. The loop thread records everything but the panic hook's events.
pub struct EventJournal {
    events: Ring<EventWire>,
    seq: AtomicU64,
}

impl EventJournal {
    /// A journal holding at most `cap` events.
    pub fn new(cap: usize) -> EventJournal {
        EventJournal {
            events: Ring::new(cap),
            seq: AtomicU64::new(0),
        }
    }

    /// Records one event; evicts the oldest when full.
    pub fn record(&self, ts_ms: u64, node: u32, kind: &str, detail: String) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.events.push(EventWire {
            seq,
            ts_ms,
            node,
            kind: kind.to_owned(),
            detail,
        });
    }

    /// Events recorded since boot (evicted ones included).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.events.dropped()
    }

    /// The newest `limit` events (optionally of one `kind`), in record
    /// order.
    pub fn snapshot(&self, kind_filter: Option<&str>, limit: usize) -> Vec<EventWire> {
        let mut events = self
            .events
            .filtered(|e| kind_filter.is_none_or(|k| e.kind == k));
        events.drain(..events.len().saturating_sub(limit));
        events
    }
}

/// Unix time in milliseconds (0 if the clock is before the epoch).
pub fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// The shared flight-recorder state: history + journal + the crash-dump
/// writer. Lives behind an `Arc` so the panic hook can reach it from
/// any thread while the event loop keeps recording.
pub struct Recorder {
    /// The metrics rings (locked: sampled by the loop, read by HTTP
    /// serving and the panic hook).
    pub history: Mutex<MetricsHistory>,
    /// The event journal (locked inside; no outer lock).
    pub journal: EventJournal,
    /// Pre-rendered cluster-context dump lines (member table, firing
    /// alerts, trace exemplars), refreshed by the loop each sample so
    /// a dump never has to reach into loop-owned state.
    context: Mutex<String>,
    dump_dir: Option<PathBuf>,
    node: AtomicU64,
}

impl Recorder {
    /// A recorder whose history rings hold the catalogue's sample keys.
    pub fn new(retention_s: u32, dump_dir: Option<PathBuf>) -> Recorder {
        let keys = crate::metrics::sample_keys().collect();
        Recorder {
            history: Mutex::new(MetricsHistory::new(keys, retention_s)),
            journal: EventJournal::new(JOURNAL_CAP),
            context: Mutex::new(String::new()),
            dump_dir,
            node: AtomicU64::new(0),
        }
    }

    /// Set once the daemon knows its node id (after join).
    pub fn set_node(&self, node: u32) {
        self.node.store(u64::from(node), Ordering::Relaxed);
    }

    fn node_id(&self) -> u32 {
        self.node.load(Ordering::Relaxed) as u32
    }

    /// Whether a `--crash-dump-dir` was configured.
    pub fn dumps_enabled(&self) -> bool {
        self.dump_dir.is_some()
    }

    /// Records one structured event into the journal, stamped now and
    /// tagged with this daemon's node id — the single entry point every
    /// subsystem hook calls.
    pub fn record_event(&self, kind: &str, detail: String) {
        self.journal
            .record(now_unix_ms(), self.node_id(), kind, detail);
    }

    /// Replaces the pre-rendered context lines (see [`Recorder`]).
    pub fn set_context(&self, lines: String) {
        if let Ok(mut ctx) = self.context.lock() {
            *ctx = lines;
        }
    }

    /// Renders the full dump: meta line, every metric's last tier-1
    /// window, the journal tail, then the pre-rendered context lines.
    /// Flat JSONL throughout (see module docs).
    pub fn render_dump(&self, reason: &str, ts_ms: u64) -> String {
        let mut out = String::with_capacity(16 * 1024);
        let mut push = |line: JsonLine| {
            out.push_str(&line.finish());
            out.push('\n');
        };
        push(
            JsonLine::new()
                .str("t", "meta")
                .u64("node", u64::from(self.node_id()))
                .str("reason", reason)
                .u64("ts_ms", ts_ms)
                .str("version", env!("CARGO_PKG_VERSION"))
                .u64("events_recorded", self.journal.recorded())
                .u64("events_dropped", self.journal.dropped()),
        );
        if let Ok(history) = self.history.lock() {
            for name in history.names() {
                let Some((res_s, points)) =
                    history.series(name, (TIER1_SLOTS as u64 * TIER1_RES_S) as u32, ts_ms)
                else {
                    continue;
                };
                let rendered: Vec<String> =
                    points.iter().map(|&(ts, v)| format!("{ts}:{v}")).collect();
                push(
                    JsonLine::new()
                        .str("t", "series")
                        .str("metric", name)
                        .u64("res_s", res_s)
                        .str("points", &rendered.join(" ")),
                );
            }
        }
        for e in self.journal.snapshot(None, DUMP_EVENTS) {
            push(
                JsonLine::new()
                    .str("t", "event")
                    .u64("seq", e.seq)
                    .u64("ts_ms", e.ts_ms)
                    .u64("node", u64::from(e.node))
                    .str("kind", &e.kind)
                    .str("detail", &e.detail),
            );
        }
        if let Ok(ctx) = self.context.lock() {
            out.push_str(&ctx);
        }
        out
    }

    /// Writes a dump named for `reason` into the dump dir via a temp
    /// file + atomic rename, so readers never see a torn file and the
    /// dir holds at most one file per reason (bounded). Returns the
    /// path written, `None` when dumps are disabled or the write fails
    /// (crash paths must never panic over a full disk).
    pub fn write_dump(&self, reason: &str, ts_ms: u64) -> Option<PathBuf> {
        let dir = self.dump_dir.as_ref()?;
        let name = format!("moarad-n{}.{}.jsonl", self.node_id(), reason);
        let tmp = dir.join(format!(".{name}.tmp"));
        let path = dir.join(name);
        let body = self.render_dump(reason, ts_ms);
        std::fs::create_dir_all(dir).ok()?;
        std::fs::write(&tmp, body).ok()?;
        std::fs::rename(&tmp, &path).ok()?;
        Some(path)
    }
}

/// Parses a `"ts:v ts:v …"` series string from a dump line.
pub fn parse_points(s: &str) -> Vec<(u64, f64)> {
    s.split_whitespace()
        .filter_map(|pair| {
            let (ts, v) = pair.split_once(':')?;
            Some((ts.parse().ok()?, v.parse().ok()?))
        })
        .collect()
}

/// Renders a unicode sparkline of `points` (shared by `moara-cli top`
/// and `postmortem`). Empty input renders as "-".
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let known: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if known.is_empty() {
        return "-".to_owned();
    }
    let (min, max) = known
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let span = (max - min).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|&v| {
            if v.is_nan() {
                ' '
            } else {
                let idx = (((v - min) / span) * 7.0).round() as usize;
                BARS[idx.min(7)]
            }
        })
        .collect()
}

/// Helper for dump context rendering: one member-table entry as a flat
/// line (`status` is `alive` or `dead`).
pub fn peer_context_line(m: &Member) -> String {
    JsonLine::new()
        .str("t", "peer")
        .u64("node", u64::from(m.node))
        .str("status", if m.alive { "alive" } else { "dead" })
        .u64("incarnation", m.incarnation)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use moara_gateway::json::parse_flat_json;
    use moara_wire::Wire;

    fn sample(v: f64) -> Vec<(&'static str, f64)> {
        vec![("a", v), ("b", v * 2.0), ("c", f64::NAN)]
    }

    #[test]
    fn history_records_two_tiers_and_serves_ranges() {
        let mut h = MetricsHistory::new(vec!["a", "b", "c"], 600);
        assert_eq!(h.names(), &["a", "b", "c"]);
        // Before the first sample a known metric is an empty series in
        // either tier, not an unknown name.
        assert_eq!(h.series("a", 60, 1_000_000), Some((TIER1_RES_S, vec![])));
        assert_eq!(h.series("c", 600, 1_000_000), Some((TIER2_RES_S, vec![])));
        for i in 0..30u64 {
            h.record(1_000_000 + i * 1000, &sample(i as f64));
        }
        // Tier-1 range: all 30 one-second points.
        let (res, pts) = h.series("a", 60, 1_000_000 + 29_000).unwrap();
        assert_eq!(res, TIER1_RES_S);
        assert_eq!(pts.len(), 30);
        assert_eq!(pts[0], (1_000_000, 0.0));
        assert_eq!(pts[29], (1_029_000, 29.0));
        // A narrower range trims old points.
        let (_, pts) = h.series("a", 10, 1_000_000 + 29_000).unwrap();
        assert_eq!(pts.len(), 11, "{pts:?}"); // 19..=29 inclusive
                                              // Tier-2: 30 pushes → 3 slots of 10-sample means.
        let (res, pts) = h.series("b", 600, 1_000_000 + 29_000).unwrap();
        assert_eq!(res, TIER2_RES_S);
        assert_eq!(pts.len(), 3);
        assert_eq!(
            pts[0].1,
            (0..10).map(|i| i as f64 * 2.0).sum::<f64>() / 10.0
        );
        // The all-NaN metric has no points in either tier.
        let (_, pts) = h.series("c", 60, 1_030_000).unwrap();
        assert!(pts.is_empty());
        let (_, pts) = h.series("c", 600, 1_030_000).unwrap();
        assert!(pts.is_empty());
        // Unknown metric: None.
        assert!(h.series("nope", 60, 0).is_none());
    }

    #[test]
    fn history_rings_wrap_and_stay_bounded() {
        let mut h = MetricsHistory::new(vec!["a", "b", "c"], 60);
        for i in 0..500u64 {
            h.record(i * 1000, &sample(i as f64));
        }
        let (_, pts) = h.series("a", 120, 499_000).unwrap();
        assert_eq!(pts.len(), TIER1_SLOTS);
        assert_eq!(pts[0].1, (500 - TIER1_SLOTS as u64) as f64);
        assert_eq!(pts.last().unwrap().1, 499.0);
        // Tier-2 is capped by retention (60s → 6 slots).
        let (_, pts) = h.series("a", 100_000, 499_000).unwrap();
        assert_eq!(pts.len(), 6);
    }

    #[test]
    fn at_or_before_spans_both_tiers() {
        let mut h = MetricsHistory::new(vec!["a", "b", "c"], 3600);
        for i in 0..200u64 {
            h.record(i * 1000, &sample(i as f64));
        }
        // Inside tier-1 (last 120 samples: 80..200).
        assert_eq!(h.at_or_before("a", 150_000), Some((150_000, 150.0)));
        // Before tier-1's window: tier-2 answers (10s means).
        let (ts, _) = h.at_or_before("a", 30_000).unwrap();
        assert!(ts <= 30_000, "{ts}");
        // Before any history: None.
        assert!(h.at_or_before("a", 0).is_none() || h.at_or_before("a", 0).unwrap().0 == 0);
        assert_eq!(h.latest("a"), Some((199_000, 199.0)));
    }

    #[test]
    fn journal_keeps_order_filters_and_evicts() {
        let j = EventJournal::new(8);
        for i in 0..20u64 {
            let kind = if i % 2 == 0 {
                kind::SWIM_SUSPECT
            } else {
                kind::SLOW_QUERY
            };
            j.record(i, 1, kind, format!("i={i}"));
        }
        assert_eq!(j.recorded(), 20);
        assert_eq!(j.dropped(), 12);
        let all = j.snapshot(None, 100);
        // Exactly the newest eight, oldest first.
        let seqs: Vec<u64> = all.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>());
        let slow = j.snapshot(Some(kind::SLOW_QUERY), 100);
        assert!(slow.iter().all(|e| e.kind == kind::SLOW_QUERY));
        assert!(!slow.is_empty());
        // Limit takes the newest.
        let last2 = j.snapshot(None, 2);
        assert_eq!(last2.len(), 2);
        assert_eq!(last2[1].seq, all.last().unwrap().seq);
    }

    #[test]
    fn event_wire_roundtrips() {
        let e = EventWire {
            seq: 42,
            ts_ms: 1_700_000_000_123,
            node: 7,
            kind: kind::SWIM_CONFIRM.into(),
            detail: "peer=3".into(),
        };
        assert_eq!(EventWire::from_bytes(&e.to_bytes()).unwrap(), e);
        assert_eq!(e.to_bytes().len(), e.encoded_len());
    }

    #[test]
    fn dump_renders_and_parses_flat_jsonl() {
        let r = Recorder::new(600, None);
        r.set_node(3);
        {
            let mut h = r.history.lock().unwrap();
            for i in 0..5u64 {
                let row: Vec<_> = h.names().iter().map(|&k| (k, 100.0 + i as f64)).collect();
                h.record(1000 + i * 1000, &row);
            }
        }
        r.journal
            .record(5000, 3, kind::SWIM_CONFIRM, "peer=1".into());
        let dead = Member {
            node: 1,
            ring_id: 7,
            addr: "127.0.0.1:1".into(),
            incarnation: 2,
            alive: false,
        };
        assert_eq!(
            peer_context_line(&dead),
            "{\"t\":\"peer\",\"node\":1,\"status\":\"dead\",\"incarnation\":2}"
        );
        r.set_context(peer_context_line(&dead));
        let dump = r.render_dump("blackbox", 5000);
        let mut metas = 0;
        let mut series = 0;
        let mut events = 0;
        let mut peers = 0;
        for line in dump.lines() {
            let fields = parse_flat_json(line).unwrap_or_else(|| panic!("unparsable: {line}"));
            let t = fields
                .iter()
                .find(|(k, _)| k == "t")
                .and_then(|(_, v)| v.as_str())
                .unwrap()
                .to_owned();
            match t.as_str() {
                "meta" => {
                    metas += 1;
                    assert!(fields
                        .iter()
                        .any(|(k, v)| k == "node" && v.as_num() == Some(3.0)));
                }
                "series" => {
                    series += 1;
                    let pts = fields
                        .iter()
                        .find(|(k, _)| k == "points")
                        .and_then(|(_, v)| v.as_str())
                        .map(parse_points)
                        .unwrap();
                    assert_eq!(pts.len(), 5);
                    assert_eq!(pts[0], (1000, 100.0));
                }
                "event" => {
                    events += 1;
                    assert!(fields
                        .iter()
                        .any(|(k, v)| k == "kind" && v.as_str() == Some(kind::SWIM_CONFIRM)));
                }
                "peer" => peers += 1,
                other => panic!("unexpected line type {other}"),
            }
        }
        let keys = r.history.lock().unwrap().names().len();
        assert_eq!((metas, series, events, peers), (1, keys, 1, 1));
    }

    #[test]
    fn dump_writes_atomically_into_the_dir() {
        let dir = std::env::temp_dir().join(format!("moara-dump-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = Recorder::new(600, Some(dir.clone()));
        r.set_node(9);
        r.journal.record(1, 9, kind::STALL, "tick_ms=400".into());
        let path = r.write_dump("blackbox", 1000).unwrap();
        assert!(path.ends_with("moarad-n9.blackbox.jsonl"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"t\":\"meta\""));
        assert!(body.contains("tick_ms=400"));
        // Re-writing replaces, never accumulates.
        r.write_dump("blackbox", 2000).unwrap();
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1, "{entries:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sparkline_scales_and_handles_gaps() {
        assert_eq!(sparkline(&[]), "-");
        assert_eq!(sparkline(&[f64::NAN]), "-");
        let s = sparkline(&[0.0, 5.0, 10.0]);
        assert_eq!(s.chars().count(), 3);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));
        // Flat series renders low bars, not a panic on zero span.
        let flat = sparkline(&[3.0, 3.0]);
        assert_eq!(flat.chars().count(), 2);
        // NaN gaps render as spaces.
        assert_eq!(sparkline(&[1.0, f64::NAN, 2.0]).chars().nth(1), Some(' '));
    }
}
