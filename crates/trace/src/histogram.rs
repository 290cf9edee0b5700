//! The one histogram type: fixed buckets over `&'static` bounds, observed
//! lock-free from any thread, with a trace-id exemplar slot per bucket.
//!
//! `moara-gateway` compiles this file as well (that crate has no
//! dependencies and keeps none), so it uses nothing but `std` and links
//! only to items of its own.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A fixed-bucket cumulative histogram over `u64` observations, shaped
/// for Prometheus text exposition (`_bucket{le=…}` / `_sum` / `_count`).
///
/// Every method takes `&self`: the bucket counts, the sum and the
/// exemplar slots are atomics, so threads share one histogram without a
/// lock. There is no count of its own. A [`Snapshot`]'s count *is* its
/// `+Inf` cumulative, so a scrape that races observers cannot publish a
/// `+Inf` bucket that disagrees with `_count`.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    /// One per bound, plus the `+Inf` overflow at the end.
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    /// Latest trace id per bucket (same indexing); 0 = none yet.
    exemplars: Box<[AtomicU64]>,
}

impl Histogram {
    /// A histogram over the given ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending (a
    /// construction-time bug, never data-dependent).
    pub fn new(bounds: &'static [u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must ascend"
        );
        let slots = || (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets: slots(),
            sum: AtomicU64::new(0),
            exemplars: slots(),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.observe_traced(v, 0);
    }

    /// Records one observation and makes `trace_id` the latest exemplar
    /// of its bucket. An id of 0 (untraced) leaves the slot as it was.
    pub fn observe_traced(&self, v: u64, trace_id: u64) {
        let idx = self.bounds.partition_point(|&b| b < v); // `le` is inclusive
        self.buckets[idx].fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        if trace_id != 0 {
            self.exemplars[idx].store(trace_id, Relaxed);
        }
    }

    /// Bucket upper bounds (exclusive of the implicit `+Inf` bucket).
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// The current counts. Observations racing the snapshot land in it
    /// or not, bucket by bucket; its count is whatever its buckets hold.
    pub fn snapshot(&self) -> Snapshot {
        let mut acc = 0;
        let cumulative = self.buckets.iter().map(|b| {
            acc += b.load(Relaxed);
            acc
        });
        Snapshot {
            bounds: self.bounds,
            cumulative: cumulative.collect(),
            sum: self.sum.load(Relaxed),
        }
    }

    /// `(bucket upper bound, trace id)` for every bucket holding an
    /// exemplar; the `+Inf` bucket reports `u64::MAX` as its bound.
    pub fn exemplars(&self) -> Vec<(u64, u64)> {
        let ids = self.exemplars.iter().map(|id| id.load(Relaxed));
        let bounds = self.bounds.iter().copied().chain([u64::MAX]);
        bounds.zip(ids).filter(|&(_, id)| id != 0).collect()
    }
}

/// A histogram's counts at one instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Bucket upper bounds (exclusive of the implicit `+Inf` bucket).
    pub bounds: &'static [u64],
    /// Cumulative counts per bucket, ending with the `+Inf` total.
    pub cumulative: Vec<u64>,
    /// Sum of all observations.
    pub sum: u64,
}

impl Snapshot {
    /// Number of observations: the `+Inf` cumulative.
    pub fn count(&self) -> u64 {
        self.cumulative.last().copied().unwrap_or(0)
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`): the
    /// smallest bucket bound whose cumulative count covers `q` of all
    /// observations. Observations past the last bound (the `+Inf`
    /// bucket) report the last finite bound; an empty snapshot reports 0.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
        let idx = self.cumulative.partition_point(|&c| c < target);
        let last = self.bounds[self.bounds.len() - 1];
        self.bounds.get(idx).copied().unwrap_or(last)
    }
}
