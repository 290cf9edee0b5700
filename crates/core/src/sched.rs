//! Query-plane scheduler state: the probe-cost cache (with its churn
//! epoch), the registry of in-flight probes that lets concurrent queries
//! share one probe round-trip, and the batch queue that coalesces same-hop
//! fan-out into single frames.
//!
//! The node layer (`node.rs`) owns one [`QuerySched`] per node and drives
//! it from the front-end paths; everything here is pure bookkeeping with
//! no message I/O, so the policies are unit-testable in isolation.

use std::collections::{BTreeMap, HashMap, VecDeque};

use moara_dht::Id;
use moara_simnet::{NodeId, SimTime};
use moara_transport::NetCtx;

use crate::config::ProbeCachePolicy;
use crate::msg::{MoaraMsg, PredKey};

/// One cached probe result.
#[derive(Clone, Debug)]
struct CacheEntry {
    cost: u64,
    at: SimTime,
    epoch: u64,
}

/// Per-front-end cache of size-probe results, bounded by TTL, a churn
/// epoch, and a capacity.
///
/// * **TTL** — entries older than the policy's `ttl` are ignored; the
///   backstop against churn the front-end never observes directly.
/// * **Epoch** — an O(1) invalidate-all: the node bumps it whenever it
///   sees evidence of group change (local attribute churn, overlay
///   reconfiguration); entries cached under an older epoch are ignored.
///   Status traffic for a specific predicate invalidates just that key.
/// * **Capacity** — oldest-insertion eviction keeps the map bounded in
///   run-forever deployments.
///
/// Correctness note: probe costs only steer *which* valid cover the
/// planner picks, so a stale entry can cost messages but never a wrong
/// answer.
#[derive(Debug)]
pub struct ProbeCache {
    policy: ProbeCachePolicy,
    epoch: u64,
    entries: HashMap<PredKey, CacheEntry>,
    order: VecDeque<PredKey>,
}

impl ProbeCache {
    /// An empty cache under `policy`.
    pub fn new(policy: ProbeCachePolicy) -> ProbeCache {
        ProbeCache {
            policy,
            epoch: 0,
            entries: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Whether the policy caches at all.
    pub fn enabled(&self) -> bool {
        self.policy.enabled()
    }

    /// The current churn epoch (monotone; observable for tests).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Live entries (stale ones included until overwritten or evicted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A still-valid cached cost for `key`, if any.
    pub fn lookup(&self, key: &str, now: SimTime) -> Option<u64> {
        let ProbeCachePolicy::Cache { ttl, .. } = self.policy else {
            return None;
        };
        let e = self.entries.get(key)?;
        (e.epoch == self.epoch && now.duration_since(e.at) < ttl).then_some(e.cost)
    }

    /// Caches a probe result under the current epoch.
    pub fn insert(&mut self, key: PredKey, cost: u64, now: SimTime) {
        let ProbeCachePolicy::Cache { capacity, .. } = self.policy else {
            return;
        };
        use std::collections::hash_map::Entry;
        match self.entries.entry(key.clone()) {
            Entry::Occupied(mut e) => {
                *e.get_mut() = CacheEntry {
                    cost,
                    at: now,
                    epoch: self.epoch,
                };
            }
            Entry::Vacant(e) => {
                e.insert(CacheEntry {
                    cost,
                    at: now,
                    epoch: self.epoch,
                });
                self.order.push_back(key);
                while self.order.len() > capacity {
                    if let Some(old) = self.order.pop_front() {
                        self.entries.remove(&old);
                    }
                }
            }
        }
    }

    /// Drops the entry for one predicate (targeted churn signal: a
    /// `Status` update for that tree passed through this node). The key
    /// leaves the eviction order too — a ghost there would make a later
    /// re-insert of the same key evict itself once the cache fills.
    pub fn invalidate(&mut self, key: &str) {
        // Only front-ends fill a cache: at every other node a status
        // costs no hash here.
        if !self.entries.is_empty() && self.entries.remove(key).is_some() {
            self.order.retain(|k| &**k != key);
        }
    }

    /// Invalidates every entry at once (broad churn signal: local
    /// attribute change or overlay reconfiguration). O(1); stale entries
    /// are skipped on lookup and recycled by capacity eviction.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }
}

/// One outstanding size probe: who waits on it, when it was (last)
/// sent, and under which churn epoch.
#[derive(Debug)]
pub struct ProbeWait {
    /// Front ids waiting on the reply.
    pub fronts: Vec<u64>,
    /// When the probe was last put on the wire. A probe older than the
    /// probe timeout is presumed lost and re-sent by the next query —
    /// without this, continuous traffic would coalesce onto a dead probe
    /// forever.
    pub sent_at: SimTime,
    /// The cache epoch when the probe was (last) sent. A reply from an
    /// older epoch is delivered to its waiters but *not* cached: the
    /// epoch bump happened precisely to evict pre-churn measurements.
    pub epoch: u64,
    /// The query id carried by the latest probe send. Replies echo it,
    /// so a slow reply to a superseded (re-sent) probe can be told apart
    /// from the authoritative one — only the latter may be cached.
    pub probe_qid: crate::msg::QueryId,
}

/// The scheduler: the probe cache plus the in-flight probe registry that
/// lets overlapping queries share one probe per predicate.
#[derive(Debug)]
pub struct QuerySched {
    /// Cached probe costs.
    pub cache: ProbeCache,
    /// Outstanding probes by predicate key. An entry means a probe is
    /// (believed) in flight and new queries should piggyback instead of
    /// re-sending — unless it has aged past the probe timeout.
    pub waiters: HashMap<PredKey, ProbeWait>,
}

impl QuerySched {
    /// A fresh scheduler under the given cache policy.
    pub fn new(policy: ProbeCachePolicy) -> QuerySched {
        QuerySched {
            cache: ProbeCache::new(policy),
            waiters: HashMap::new(),
        }
    }

    /// Drops `front_id` from every probe waiting list (the front timed
    /// out or finished); keys left with no waiters are forgotten so the
    /// next query re-probes rather than coalescing onto a lost probe.
    pub fn forget_front(&mut self, front_id: u64) {
        self.waiters.retain(|_, wait| {
            wait.fronts.retain(|&f| f != front_id);
            !wait.fronts.is_empty()
        });
    }
}

/// Collects outbound routed messages and flushes them with same-next-hop
/// coalescing: one destination getting several messages receives a single
/// [`MoaraMsg::Batch`] frame instead of several frames.
///
/// Used on the front-end fan-out paths (probes, sub-queries) and again at
/// every intermediate hop when a batch is unpacked and re-forwarded — so
/// messages sharing an overlay path prefix share frames along the whole
/// prefix.
#[derive(Debug, Default)]
pub struct BatchQueue {
    by_hop: BTreeMap<NodeId, Vec<MoaraMsg>>,
    local: Vec<(Id, Box<MoaraMsg>)>,
}

impl BatchQueue {
    /// An empty queue.
    pub fn new() -> BatchQueue {
        BatchQueue::default()
    }

    /// Queues `inner` for routing toward `key` via `next_hop`.
    pub fn push_remote(&mut self, next_hop: NodeId, key: Id, inner: Box<MoaraMsg>) {
        self.by_hop
            .entry(next_hop)
            .or_default()
            .push(MoaraMsg::Route { key, inner });
    }

    /// Queues `inner` for local handling (this node is `key`'s root).
    pub fn push_local(&mut self, key: Id, inner: Box<MoaraMsg>) {
        self.local.push((key, inner));
    }

    /// Sends everything queued (one frame per next hop — a bare `Route`
    /// when a hop gets a single message, a [`MoaraMsg::Batch`] otherwise)
    /// and returns the messages this node must handle itself as root.
    /// Iteration is in `NodeId` order, keeping simulator runs
    /// deterministic.
    pub fn flush(self, ctx: &mut dyn NetCtx<MoaraMsg>) -> Vec<(Id, Box<MoaraMsg>)> {
        for (next, mut msgs) in self.by_hop {
            if msgs.len() == 1 {
                ctx.send(next, msgs.pop().expect("len checked"));
            } else {
                ctx.count("batched_fanout");
                ctx.send(next, MoaraMsg::Batch { items: msgs });
            }
        }
        self.local
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moara_simnet::SimDuration;

    fn cache(ttl_secs: u64, capacity: usize) -> ProbeCache {
        ProbeCache::new(ProbeCachePolicy::Cache {
            ttl: SimDuration::from_secs(ttl_secs),
            capacity,
        })
    }

    fn t(secs: u64) -> SimTime {
        SimTime(secs * 1_000_000)
    }

    #[test]
    fn off_policy_never_caches() {
        let mut c = ProbeCache::new(ProbeCachePolicy::Off);
        assert!(!c.enabled());
        c.insert("A=1".into(), 10, t(0));
        assert!(c.is_empty());
        assert_eq!(c.lookup("A=1", t(0)), None);
    }

    #[test]
    fn hit_until_ttl_expires() {
        let mut c = cache(10, 8);
        c.insert("A=1".into(), 42, t(0));
        assert_eq!(c.lookup("A=1", t(9)), Some(42));
        assert_eq!(c.lookup("A=1", t(10)), None, "ttl is exclusive");
        // Re-inserting refreshes the clock.
        c.insert("A=1".into(), 43, t(10));
        assert_eq!(c.lookup("A=1", t(19)), Some(43));
    }

    #[test]
    fn epoch_bump_invalidates_everything_at_once() {
        let mut c = cache(100, 8);
        c.insert("A=1".into(), 1, t(0));
        c.insert("B=1".into(), 2, t(0));
        c.bump_epoch();
        assert_eq!(c.lookup("A=1", t(1)), None);
        assert_eq!(c.lookup("B=1", t(1)), None);
        // New inserts live under the new epoch.
        c.insert("A=1".into(), 3, t(1));
        assert_eq!(c.lookup("A=1", t(2)), Some(3));
    }

    #[test]
    fn targeted_invalidation_spares_other_keys() {
        let mut c = cache(100, 8);
        c.insert("A=1".into(), 1, t(0));
        c.insert("B=1".into(), 2, t(0));
        c.invalidate("A=1");
        assert_eq!(c.lookup("A=1", t(1)), None);
        assert_eq!(c.lookup("B=1", t(1)), Some(2));
    }

    #[test]
    fn invalidate_then_reinsert_does_not_self_evict_at_capacity() {
        // Regression: invalidate used to leave the key in the eviction
        // order, so re-inserting it at capacity popped the ghost and
        // deleted the entry just inserted.
        let mut c = cache(100, 2);
        c.insert("A=1".into(), 1, t(0));
        c.insert("B=1".into(), 2, t(0));
        c.invalidate("A=1");
        c.insert("A=1".into(), 9, t(1));
        assert_eq!(c.lookup("A=1", t(2)), Some(9), "fresh entry must survive");
        assert_eq!(c.lookup("B=1", t(2)), Some(2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_evicts_oldest_insertion() {
        let mut c = cache(100, 2);
        c.insert("A=1".into(), 1, t(0));
        c.insert("B=1".into(), 2, t(1));
        c.insert("C=1".into(), 3, t(2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup("A=1", t(3)), None, "oldest evicted");
        assert_eq!(c.lookup("B=1", t(3)), Some(2));
        assert_eq!(c.lookup("C=1", t(3)), Some(3));
    }

    #[test]
    fn insert_at_exactly_capacity_keeps_everything() {
        // Regression guard for the `while order.len() > capacity` boundary:
        // filling the cache to exactly its capacity must evict nothing —
        // an off-by-one (`>=`) would silently shrink every full cache.
        let mut c = cache(100, 3);
        c.insert("A=1".into(), 1, t(0));
        c.insert("B=1".into(), 2, t(1));
        c.insert("C=1".into(), 3, t(2));
        assert_eq!(c.len(), 3, "exactly-at-capacity insert must not evict");
        assert_eq!(c.lookup("A=1", t(3)), Some(1));
        assert_eq!(c.lookup("B=1", t(3)), Some(2));
        assert_eq!(c.lookup("C=1", t(3)), Some(3));
        // The next insert beyond capacity evicts exactly the oldest
        // insertion — and only it.
        c.insert("D=1".into(), 4, t(4));
        assert_eq!(c.len(), 3);
        assert_eq!(c.lookup("A=1", t(5)), None, "oldest insertion evicted");
        assert_eq!(c.lookup("B=1", t(5)), Some(2));
        assert_eq!(c.lookup("C=1", t(5)), Some(3));
        assert_eq!(c.lookup("D=1", t(5)), Some(4));
    }

    #[test]
    fn capacity_one_still_serves_warm_repeats() {
        // The degenerate cache must still be a cache: a repeated query
        // for the same predicate hits, and only a *different* key (not a
        // refresh of the same one) displaces the entry.
        let mut c = cache(100, 1);
        c.insert("A=1".into(), 7, t(0));
        assert_eq!(c.lookup("A=1", t(1)), Some(7), "warm repeat");
        assert_eq!(c.lookup("A=1", t(2)), Some(7), "still warm");
        c.insert("A=1".into(), 8, t(3));
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup("A=1", t(4)), Some(8), "refresh keeps the key");
        c.insert("B=1".into(), 9, t(5));
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup("A=1", t(6)), None);
        assert_eq!(c.lookup("B=1", t(6)), Some(9));
    }

    #[test]
    fn forget_front_clears_emptied_keys_only() {
        let wait = |fronts: Vec<u64>| ProbeWait {
            fronts,
            sent_at: t(0),
            epoch: 0,
            probe_qid: crate::msg::QueryId {
                origin: moara_simnet::NodeId(0),
                n: 0,
            },
        };
        let mut s = QuerySched::new(ProbeCachePolicy::Off);
        s.waiters.insert("A=1".into(), wait(vec![1, 2]));
        s.waiters.insert("B=1".into(), wait(vec![1]));
        s.forget_front(1);
        assert_eq!(s.waiters.get("A=1").map(|w| &w.fronts), Some(&vec![2]));
        assert!(!s.waiters.contains_key("B=1"));
    }
}
