//! Engine configuration.

use moara_simnet::SimDuration;

use crate::state::WINDOW_CAP;

/// Which aggregation system the engine runs — Moara itself or one of the
/// paper's comparison baselines (Section 7.1's "Global" and
/// "Moara (Always-Update)" lines in Figure 9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Full Moara: group trees with dynamic adaptation and the separate
    /// query plane.
    Moara,
    /// No group trees: every query is broadcast down the global DHT tree
    /// and answered by all nodes (the paper's *Global* baseline; this is
    /// also how SDIMS resolves a query over the whole system).
    Global,
    /// Group trees maintained aggressively: every node stays in UPDATE
    /// state forever, so each attribute-churn event propagates a status
    /// update (the paper's *Moara (Always-Update)* baseline).
    AlwaysUpdate,
}

/// When a node may discard per-predicate tree state (paper Section 4:
/// a node in NO-UPDATE state can garbage-collect a predicate's state
/// without affecting correctness — the parent's default behaviour already
/// forwards queries to it). The paper sketches these policies without
/// evaluating them; all three are implemented here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcPolicy {
    /// Never discard (the paper's evaluated configuration).
    Never,
    /// Discard NO-UPDATE state untouched for this long.
    IdleTimeout(SimDuration),
    /// Keep at most this many predicates; evict the least recently used
    /// NO-UPDATE states beyond that.
    KeepMostRecent(usize),
}

/// Whether (and how) a front-end caches size-probe results across
/// queries.
///
/// The paper's front-end probes every candidate group on every composite
/// query; under heavy repeated traffic the same groups are probed over
/// and over. The query-plane scheduler amortizes that round-trip: probe
/// replies land in a per-front-end cache keyed by predicate, and repeated
/// composite queries whose candidate costs are all cached skip the probe
/// phase entirely. Staleness is bounded two ways: a TTL, and a churn
/// epoch the front-end bumps whenever it observes group change (a local
/// attribute change, an incoming `Status`, or an overlay reconfiguration)
/// — bumping the epoch invalidates every cached entry at once. A stale
/// cost can only make the planner pick a more expensive *valid* cover;
/// answers stay exact either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeCachePolicy {
    /// Probe on every composite query (the paper's evaluated behaviour).
    Off,
    /// Cache probe results.
    Cache {
        /// How long one cached cost may be served.
        ttl: SimDuration,
        /// Maximum cached predicates; the oldest insertion is evicted
        /// beyond that.
        capacity: usize,
    },
}

impl ProbeCachePolicy {
    /// The default caching configuration (30 s TTL, 1024 predicates).
    pub fn default_cache() -> ProbeCachePolicy {
        ProbeCachePolicy::Cache {
            ttl: SimDuration::from_secs(30),
            capacity: 1024,
        }
    }

    /// True when caching is enabled.
    pub fn enabled(&self) -> bool {
        *self != ProbeCachePolicy::Off
    }
}

/// Tunables for a Moara deployment; defaults follow the paper.
#[derive(Clone, Debug)]
pub struct MoaraConfig {
    /// Engine mode (Moara or a baseline).
    pub mode: Mode,
    /// Separate-query-plane threshold (Section 5). `1` disables the
    /// separate query plane (plain pruned trees); the paper finds `2`
    /// captures most of the benefit.
    pub threshold: usize,
    /// Adaptation window while in UPDATE state (paper default 1).
    pub k_update: usize,
    /// Adaptation window while in NO-UPDATE state (paper default 3).
    pub k_no_update: usize,
    /// How long an internal node waits for children before answering with
    /// what it has (Section 3.2). `None` waits indefinitely, as in the
    /// paper's PlanetLab runs ("we do not timeout on queries").
    pub child_timeout: Option<SimDuration>,
    /// How long the front-end waits for size-probe replies before assuming
    /// worst-case costs.
    pub probe_timeout: SimDuration,
    /// Overall front-end deadline per query; expiring marks the outcome
    /// incomplete rather than hanging forever.
    pub front_timeout: Option<SimDuration>,
    /// Whether composite-query planning fetches per-group size estimates
    /// (Section 6.3). When off, the planner minimizes the number of groups
    /// instead (the "no SP" lines of Figure 13(b)).
    pub use_size_probes: bool,
    /// Probe-result caching across queries (the query-plane scheduler's
    /// amortization; irrelevant when `use_size_probes` is off).
    pub probe_cache: ProbeCachePolicy,
    /// Bits per DHT routing digit (Pastry `b`; FreePastry default 4).
    pub bits_per_digit: u32,
    /// How long answered query ids are remembered for duplicate
    /// suppression (the paper caches them for 5 minutes).
    pub dedup_ttl: SimDuration,
    /// Per-predicate state garbage collection (Section 4's policies).
    pub gc: GcPolicy,
}

impl Default for MoaraConfig {
    fn default() -> MoaraConfig {
        MoaraConfig {
            mode: Mode::Moara,
            threshold: 2,
            k_update: 1,
            k_no_update: 3,
            child_timeout: Some(SimDuration::from_secs(3)),
            probe_timeout: SimDuration::from_secs(3),
            front_timeout: Some(SimDuration::from_secs(60)),
            use_size_probes: true,
            probe_cache: ProbeCachePolicy::default_cache(),
            bits_per_digit: 4,
            dedup_ttl: SimDuration::from_secs(300),
            gc: GcPolicy::Never,
        }
    }
}

impl MoaraConfig {
    /// Configuration for the *Global* baseline.
    pub fn global() -> MoaraConfig {
        MoaraConfig {
            mode: Mode::Global,
            ..MoaraConfig::default()
        }
    }

    /// Configuration for the *Always-Update* baseline.
    pub fn always_update() -> MoaraConfig {
        MoaraConfig {
            mode: Mode::AlwaysUpdate,
            ..MoaraConfig::default()
        }
    }

    /// Sets the separate-query-plane threshold.
    pub fn with_threshold(mut self, threshold: usize) -> MoaraConfig {
        assert!(threshold >= 1, "threshold must be at least 1");
        self.threshold = threshold;
        self
    }

    /// Sets the state garbage-collection policy.
    pub fn with_gc(mut self, gc: GcPolicy) -> MoaraConfig {
        self.gc = gc;
        self
    }

    /// Sets the probe-cache policy.
    pub fn with_probe_cache(mut self, policy: ProbeCachePolicy) -> MoaraConfig {
        if let ProbeCachePolicy::Cache { ttl, capacity } = policy {
            assert!(capacity >= 1, "probe cache capacity must be at least 1");
            // A zero TTL can never satisfy `age < ttl`: the cache would
            // be "on" yet miss every lookup. Demand Off instead.
            assert!(ttl.as_micros() > 0, "probe cache ttl must be positive");
        }
        self.probe_cache = policy;
        self
    }

    /// Sets the adaptation windows `(k_UPDATE, k_NO-UPDATE)`, each 1 to
    /// [`WINDOW_CAP`] events.
    pub fn with_adaptation_windows(mut self, k_update: usize, k_no_update: usize) -> MoaraConfig {
        let window = 1..=WINDOW_CAP;
        assert!(
            window.contains(&k_update) && window.contains(&k_no_update),
            "adaptation windows must be 1 to {WINDOW_CAP} events"
        );
        self.k_update = k_update;
        self.k_no_update = k_no_update;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let c = MoaraConfig::default();
        assert_eq!(c.mode, Mode::Moara);
        assert_eq!(c.threshold, 2);
        assert_eq!((c.k_update, c.k_no_update), (1, 3));
        assert!(c.use_size_probes);
        assert_eq!(c.dedup_ttl, SimDuration::from_secs(300));
        assert_eq!(c.gc, GcPolicy::Never);
        assert!(c.probe_cache.enabled());
    }

    #[test]
    fn probe_cache_builder() {
        let c = MoaraConfig::default().with_probe_cache(ProbeCachePolicy::Off);
        assert_eq!(c.probe_cache, ProbeCachePolicy::Off);
        assert!(!c.probe_cache.enabled());
        let c = c.with_probe_cache(ProbeCachePolicy::Cache {
            ttl: SimDuration::from_secs(5),
            capacity: 16,
        });
        assert!(c.probe_cache.enabled());
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_probe_cache_capacity_rejected() {
        let _ = MoaraConfig::default().with_probe_cache(ProbeCachePolicy::Cache {
            ttl: SimDuration::from_secs(5),
            capacity: 0,
        });
    }

    #[test]
    #[should_panic(expected = "ttl must be positive")]
    fn zero_probe_cache_ttl_rejected() {
        let _ = MoaraConfig::default().with_probe_cache(ProbeCachePolicy::Cache {
            ttl: SimDuration::from_micros(0),
            capacity: 4,
        });
    }

    #[test]
    fn gc_builder() {
        let c = MoaraConfig::default().with_gc(GcPolicy::KeepMostRecent(4));
        assert_eq!(c.gc, GcPolicy::KeepMostRecent(4));
        let c = c.with_gc(GcPolicy::IdleTimeout(SimDuration::from_secs(60)));
        assert_eq!(c.gc, GcPolicy::IdleTimeout(SimDuration::from_secs(60)));
    }

    #[test]
    fn builders() {
        assert_eq!(MoaraConfig::global().mode, Mode::Global);
        assert_eq!(MoaraConfig::always_update().mode, Mode::AlwaysUpdate);
        let c = MoaraConfig::default()
            .with_threshold(4)
            .with_adaptation_windows(2, 5);
        assert_eq!(c.threshold, 4);
        assert_eq!((c.k_update, c.k_no_update), (2, 5));
    }

    #[test]
    fn windows_up_to_the_cap_are_accepted() {
        let c = MoaraConfig::default().with_adaptation_windows(WINDOW_CAP, 1);
        assert_eq!((c.k_update, c.k_no_update), (WINDOW_CAP, 1));
    }

    #[test]
    #[should_panic(expected = "adaptation windows must be 1 to 32 events")]
    fn a_window_above_the_cap_is_rejected() {
        let _ = MoaraConfig::default().with_adaptation_windows(1, WINDOW_CAP + 1);
    }

    #[test]
    #[should_panic(expected = "threshold must be at least 1")]
    fn zero_threshold_rejected() {
        let _ = MoaraConfig::default().with_threshold(0);
    }
}
