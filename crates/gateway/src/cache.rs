//! Materialized-view query cache: hot `GET /v1/query` texts are promoted
//! to standing subscriptions and served straight from memory.
//!
//! The cache sits between the gateway's connections and the daemon. Their
//! host calls [`QueryCache::lookup`] before asking the daemon — a hit is
//! answered on the spot, on a shard without touching the event loop at
//! all, which is what buys sub-millisecond reads. Everything that owns
//! protocol state (installing the standing subscription, draining its
//! updates, releasing leases) stays on the daemon's single-threaded loop,
//! which drains the pending-promotion / pending-demotion queues this
//! structure accumulates.
//!
//! Consistency model: a cached entry is **invalidated by the incoming
//! `SubDelta`, never by a TTL**. When the standing result changes, the
//! entry turns stale and the next read falls through to a real tree walk
//! (reported as a miss); the walk's answer revalidates the entry if no
//! further delta arrived while it ran (a generation counter guards the
//! race). Served answers are therefore never staler than one delta
//! propagation, and the observable header sequence around a write is
//! `hit → miss → hit`.
//!
//! Keys are *normalized* query text (whitespace runs outside `'...'`
//! string literals collapse to single spaces; literal contents are kept
//! verbatim, exactly as the query lexer treats them); the original text
//! is kept alongside for the subscription install, so normalization can
//! never change what is actually subscribed or walked.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tuning knobs for [`QueryCache`] (the `--cache-*` daemon flags).
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Lookups of one key within [`CacheConfig::window`] that trigger
    /// promotion to a standing subscription (K in the design docs).
    pub promote_after: u32,
    /// The sliding window the promotion threshold counts over.
    pub window: Duration,
    /// Most keys tracked at once (cold counters and promoted entries
    /// combined); the least-recently-used entry is evicted at the cap.
    pub max_entries: usize,
    /// Promoted entries unused this long are demoted (their standing
    /// subscription is cancelled and its lease released).
    pub idle_after: Duration,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            promote_after: 3,
            window: Duration::from_secs(10),
            max_entries: 256,
            idle_after: Duration::from_secs(60),
        }
    }
}

/// One tracked query key.
struct Entry {
    /// Recent lookup instants while cold (bounded by `promote_after`).
    recent: VecDeque<Instant>,
    /// Last lookup (drives idle demotion).
    last_used: Instant,
    /// LRU clock value of the last lookup (drives capacity eviction).
    lru: u64,
    state: State,
}

enum State {
    /// Counting lookups toward promotion.
    Cold,
    /// Queued for the event loop to install a subscription.
    Promoting,
    /// Backed by a standing subscription.
    Promoted {
        /// The watch id of the standing subscription (opaque here; the
        /// daemon unsubscribes by it).
        token: u64,
        /// The standing result and its completeness, absent until the
        /// subscription's initial sync lands.
        result: Option<(String, bool)>,
        /// Set when a delta superseded the served result; a stale entry
        /// misses until a fresh tree walk revalidates it.
        stale: bool,
        /// Bumped on every standing update; walks capture it at start so
        /// a delta racing the walk keeps the entry stale.
        gen: u64,
    },
}

struct Inner {
    entries: HashMap<String, Entry>,
    /// Watch token → key, for routing standing updates back.
    by_token: HashMap<u64, String>,
    /// Keys whose promotion the event loop must install: (key, original
    /// query text — the text that gets parsed and subscribed).
    pending_promotions: Vec<(String, String)>,
    /// Watch tokens of capacity-evicted entries the event loop must
    /// unsubscribe.
    pending_demotions: Vec<u64>,
    /// Monotonic LRU clock.
    tick: u64,
}

/// The shared materialized-view cache (see the module docs). All methods
/// take `&self`; the gateway's hosts and the daemon loop share one `Arc`.
pub struct QueryCache {
    cfg: CacheConfig,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    promotions: AtomicU64,
    demotions: AtomicU64,
    invalidations: AtomicU64,
    coalesced: AtomicU64,
}

/// Collapses whitespace runs to single spaces and trims — the cache key.
/// Whitespace inside `'...'` string literals is significant to the query
/// lexer, so literal spans (including an unterminated trailing one) are
/// copied verbatim: `name = 'a  b'` and `name = 'a b'` must never share
/// a key. Only used for keying; the original text is what gets parsed,
/// so two texts sharing a key differ at most in insignificant
/// whitespace.
pub fn normalize(q: &str) -> String {
    let mut out = String::with_capacity(q.len());
    let mut pending_space = false;
    let mut chars = q.trim().chars();
    while let Some(ch) = chars.next() {
        if ch.is_whitespace() {
            pending_space = true;
            continue;
        }
        if pending_space && !out.is_empty() {
            out.push(' ');
        }
        pending_space = false;
        out.push(ch);
        if ch == '\'' {
            // The lexer has no escape sequences: the next quote (if any)
            // terminates the literal.
            for c in chars.by_ref() {
                out.push(c);
                if c == '\'' {
                    break;
                }
            }
        }
    }
    out
}

impl QueryCache {
    /// An empty cache with the given tuning.
    pub fn new(cfg: CacheConfig) -> QueryCache {
        QueryCache {
            cfg,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                by_token: HashMap::new(),
                pending_promotions: Vec::new(),
                pending_demotions: Vec::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Answers a query from the standing result if it is fresh and
    /// complete, else records the lookup toward promotion and returns
    /// `None` (the caller walks the tree). Returns `(result, complete)`.
    pub fn lookup(&self, q: &str, now: Instant) -> Option<(String, bool)> {
        let key = normalize(q);
        let mut g = self.inner.lock().expect("cache lock");
        let g = &mut *g;
        g.tick += 1;
        let tick = g.tick;
        if let Some(e) = g.entries.get_mut(&key) {
            e.last_used = now;
            e.lru = tick;
            if let State::Promoted {
                result: Some((body, true)),
                stale: false,
                ..
            } = &e.state
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some((body.clone(), true));
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            if matches!(e.state, State::Cold) {
                e.recent.push_back(now);
                while e
                    .recent
                    .front()
                    .is_some_and(|t| now.duration_since(*t) > self.cfg.window)
                {
                    e.recent.pop_front();
                }
                while e.recent.len() > self.cfg.promote_after as usize {
                    e.recent.pop_front();
                }
                if e.recent.len() >= self.cfg.promote_after.max(1) as usize {
                    e.recent.clear();
                    e.state = State::Promoting;
                    g.pending_promotions.push((key, q.to_owned()));
                }
            }
            return None;
        }
        // First sighting of this key.
        self.misses.fetch_add(1, Ordering::Relaxed);
        if g.entries.len() >= self.cfg.max_entries.max(1) {
            evict_lru(g, &self.demotions);
        }
        let mut e = Entry {
            recent: VecDeque::new(),
            last_used: now,
            lru: tick,
            state: State::Cold,
        };
        e.recent.push_back(now);
        if self.cfg.promote_after <= 1 {
            e.recent.clear();
            e.state = State::Promoting;
            g.pending_promotions.push((key.clone(), q.to_owned()));
        }
        g.entries.insert(key, e);
        None
    }

    /// Promotions queued by [`QueryCache::lookup`] that the event loop
    /// must install: `(key, original query text)` pairs.
    pub fn take_pending_promotions(&self) -> Vec<(String, String)> {
        std::mem::take(&mut self.inner.lock().expect("cache lock").pending_promotions)
    }

    /// Watch tokens of capacity-evicted promoted entries; the event loop
    /// must unsubscribe each.
    pub fn take_pending_demotions(&self) -> Vec<u64> {
        std::mem::take(&mut self.inner.lock().expect("cache lock").pending_demotions)
    }

    /// The event loop installed a standing subscription for `key`.
    /// Returns false when the entry was evicted while the install was in
    /// flight — the caller must unsubscribe `token` right back.
    pub fn promoted(&self, key: &str, token: u64) -> bool {
        let mut g = self.inner.lock().expect("cache lock");
        match g.entries.get_mut(key) {
            Some(e) if matches!(e.state, State::Promoting) => {
                e.state = State::Promoted {
                    token,
                    result: None,
                    stale: false,
                    gen: 0,
                };
                g.by_token.insert(token, key.to_owned());
                self.promotions.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// The promotion could not be installed (the text failed to parse);
    /// the key drops back to cold counting.
    pub fn promotion_failed(&self, key: &str) {
        let mut g = self.inner.lock().expect("cache lock");
        if let Some(e) = g.entries.get_mut(key) {
            if matches!(e.state, State::Promoting) {
                e.state = State::Cold;
            }
        }
    }

    /// Folds one standing-subscription update into its entry. The first
    /// update arms the entry; later ones supersede what was being served,
    /// so the entry turns stale until a walk revalidates it.
    pub fn on_update(&self, token: u64, body: String, complete: bool) {
        let mut g = self.inner.lock().expect("cache lock");
        let g = &mut *g;
        let Some(key) = g.by_token.get(&token) else {
            return;
        };
        if let Some(e) = g.entries.get_mut(key) {
            if let State::Promoted {
                result, stale, gen, ..
            } = &mut e.state
            {
                *gen += 1;
                let had_result = result.is_some();
                *result = Some((body, complete));
                if had_result {
                    *stale = true;
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                } else {
                    *stale = false;
                }
            }
        }
    }

    /// The entry's current generation, captured by the event loop when a
    /// walk for `key` starts ([`QueryCache::revalidate`] checks it).
    /// `None` when the key is not promoted.
    pub fn gen_of(&self, key: &str) -> Option<u64> {
        let g = self.inner.lock().expect("cache lock");
        match g.entries.get(key).map(|e| &e.state) {
            Some(State::Promoted { gen, .. }) => Some(*gen),
            _ => None,
        }
    }

    /// A tree walk for `key` finished with `body`. Clears staleness only
    /// if the entry saw no standing update since the walk started
    /// (`gen_at_start` still current) and its initial sync has landed —
    /// otherwise the walk's answer may itself already be superseded.
    pub fn revalidate(&self, key: &str, gen_at_start: u64, body: &str, complete: bool) {
        if !complete {
            return; // never serve partial answers from memory
        }
        let mut g = self.inner.lock().expect("cache lock");
        if let Some(e) = g.entries.get_mut(key) {
            if let State::Promoted {
                result, stale, gen, ..
            } = &mut e.state
            {
                if *gen == gen_at_start && result.is_some() {
                    *result = Some((body.to_owned(), true));
                    *stale = false;
                }
            }
        }
    }

    /// Demotes promoted entries idle past the configured window (and
    /// forgets idle cold counters). Returns the watch tokens to
    /// unsubscribe.
    pub fn demote_idle(&self, now: Instant) -> Vec<u64> {
        let mut g = self.inner.lock().expect("cache lock");
        let idle_after = self.cfg.idle_after;
        let mut tokens = Vec::new();
        g.entries.retain(|_, e| {
            if now.saturating_duration_since(e.last_used) <= idle_after {
                return true;
            }
            match e.state {
                State::Promoted { token, .. } => {
                    tokens.push(token);
                    false
                }
                State::Cold => false,
                // Let the in-flight install land first; the next sweep
                // catches it as a promoted entry.
                State::Promoting => true,
            }
        });
        for t in &tokens {
            g.by_token.remove(t);
        }
        self.demotions
            .fetch_add(tokens.len() as u64, Ordering::Relaxed);
        tokens
    }

    /// Every live standing-subscription token (shutdown cancels them all
    /// so peers GC the leases instead of waiting them out).
    pub fn tokens(&self) -> Vec<u64> {
        self.inner
            .lock()
            .expect("cache lock")
            .by_token
            .keys()
            .copied()
            .collect()
    }

    /// Counts one coalesced (single-flight) waiter.
    pub fn note_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads served from the standing result.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Reads that fell through to a tree walk.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Keys promoted to standing subscriptions.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Promoted entries demoted (idle or capacity-evicted).
    pub fn demotions(&self) -> u64 {
        self.demotions.load(Ordering::Relaxed)
    }

    /// Standing updates that superseded a served result.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Waiters that shared another request's in-flight tree walk.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Keys currently tracked (cold and promoted).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").entries.len()
    }

    /// True when no key is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries currently backed by a standing subscription.
    pub fn promoted_len(&self) -> usize {
        self.inner.lock().expect("cache lock").by_token.len()
    }
}

/// Evicts the least-recently-used entry, preferring cold entries, then
/// promoted ones (a promoted entry's token goes to the demotion queue so
/// the event loop releases its lease), and only as a last resort an
/// in-flight promotion — so the map never outgrows `max_entries` even
/// when every entry is `Promoting`. Evicting a `Promoting` entry is
/// safe: when its install lands, [`QueryCache::promoted`] finds no entry
/// and returns false, and the caller unsubscribes the orphan.
fn evict_lru(g: &mut Inner, demotions: &AtomicU64) {
    fn rank(s: &State) -> u8 {
        match s {
            State::Cold => 0,
            State::Promoted { .. } => 1,
            State::Promoting => 2,
        }
    }
    let victim = g
        .entries
        .iter()
        .min_by_key(|(_, e)| (rank(&e.state), e.lru))
        .map(|(k, _)| k.clone());
    let Some(key) = victim else { return };
    if let Some(e) = g.entries.remove(&key) {
        if let State::Promoted { token, .. } = e.state {
            g.by_token.remove(&token);
            g.pending_demotions.push(token);
            demotions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(promote_after: u32, max_entries: usize) -> CacheConfig {
        CacheConfig {
            promote_after,
            window: Duration::from_secs(10),
            max_entries,
            idle_after: Duration::from_secs(60),
        }
    }

    /// Drives a key through promotion: K misses, install, initial sync.
    fn warm(cache: &QueryCache, q: &str, token: u64, body: &str) {
        let now = Instant::now();
        for _ in 0..8 {
            if !cache.take_pending_promotions().is_empty() {
                break;
            }
            assert!(cache.lookup(q, now).is_none());
        }
        assert!(cache.promoted(&normalize(q), token));
        cache.on_update(token, body.to_owned(), true);
    }

    #[test]
    fn normalization_collapses_whitespace_only() {
        assert_eq!(
            normalize("  SELECT   count(*) \t WHERE A = 1 "),
            "SELECT count(*) WHERE A = 1"
        );
        assert_eq!(normalize("a"), "a");
        assert_eq!(normalize(""), "");
        assert_ne!(normalize("A = 1"), normalize("A = 2"));
    }

    #[test]
    fn normalization_preserves_string_literals_verbatim() {
        // The lexer keeps whitespace inside '...' verbatim, so distinct
        // literals must yield distinct keys.
        assert_ne!(
            normalize("WHERE name = 'a  b'"),
            normalize("WHERE name = 'a b'")
        );
        assert_ne!(
            normalize("WHERE name = 'a\tb'"),
            normalize("WHERE name = 'a b'")
        );
        assert_eq!(normalize("WHERE  name =  'a  b' "), "WHERE name = 'a  b'");
        // Whitespace around (but not inside) literals still collapses.
        assert_eq!(
            normalize("count 'x  y'   AND  'p q'"),
            "count 'x  y' AND 'p q'"
        );
        // An unterminated literal is copied verbatim, never collapsed
        // into a terminated lookalike's key.
        assert_ne!(normalize("name = 'a  b"), normalize("name = 'a b"));
    }

    #[test]
    fn promotion_needs_k_hits_within_window() {
        let cache = QueryCache::new(cfg(3, 16));
        let now = Instant::now();
        assert!(cache.lookup("q", now).is_none());
        assert!(cache.lookup("q", now).is_none());
        assert!(
            cache.take_pending_promotions().is_empty(),
            "below threshold"
        );
        assert!(cache.lookup("q", now).is_none());
        let pending = cache.take_pending_promotions();
        assert_eq!(pending, vec![("q".to_owned(), "q".to_owned())]);
        // Two lookups inside the window plus one far outside it must NOT
        // promote: the window slid past the old ones.
        let later = now + Duration::from_secs(60);
        assert!(cache.lookup("r", now).is_none());
        assert!(cache.lookup("r", now).is_none());
        assert!(cache.lookup("r", later).is_none());
        assert!(cache.take_pending_promotions().is_empty(), "window slid");
    }

    #[test]
    fn hit_serves_only_fresh_complete_results() {
        let cache = QueryCache::new(cfg(2, 16));
        let now = Instant::now();
        assert!(cache.lookup("q", now).is_none());
        assert!(cache.lookup("q", now).is_none());
        let pending = cache.take_pending_promotions();
        assert_eq!(pending.len(), 1);
        assert!(cache.promoted("q", 7));
        // Promoted but no initial sync yet: still a miss.
        assert!(cache.lookup("q", now).is_none());
        cache.on_update(7, "5".to_owned(), true);
        assert_eq!(cache.lookup("q", now), Some(("5".to_owned(), true)));
        assert_eq!(cache.hits(), 1);
        // Whitespace variants share the entry.
        assert_eq!(cache.lookup("  q ", now), Some(("5".to_owned(), true)));
        // An incomplete standing result is never served.
        cache.on_update(7, "4".to_owned(), false);
        assert!(cache.lookup("q", now).is_none());
    }

    #[test]
    fn delta_invalidates_and_walk_revalidates() {
        let cache = QueryCache::new(cfg(2, 16));
        warm(&cache, "q", 7, "5");
        let now = Instant::now();
        assert!(cache.lookup("q", now).is_some(), "serving");
        // A delta supersedes the served result: stale, so the next read
        // walks (miss), observing hit -> miss -> hit.
        cache.on_update(7, "6".to_owned(), true);
        assert_eq!(cache.invalidations(), 1);
        assert!(cache.lookup("q", now).is_none(), "stale entry misses");
        let gen = cache.gen_of("q").expect("promoted");
        cache.revalidate("q", gen, "6", true);
        assert_eq!(cache.lookup("q", now), Some(("6".to_owned(), true)));
    }

    #[test]
    fn racing_delta_keeps_entry_stale_until_a_clean_walk() {
        let cache = QueryCache::new(cfg(2, 16));
        warm(&cache, "q", 7, "5");
        cache.on_update(7, "6".to_owned(), true); // stale now
        let gen = cache.gen_of("q").expect("promoted");
        // Another delta lands while the walk runs: its answer may be
        // stale itself, so revalidation must not stick.
        cache.on_update(7, "7".to_owned(), true);
        cache.revalidate("q", gen, "6", true);
        assert!(cache.lookup("q", Instant::now()).is_none(), "still stale");
        let gen = cache.gen_of("q").expect("promoted");
        cache.revalidate("q", gen, "7", true);
        assert_eq!(
            cache.lookup("q", Instant::now()),
            Some(("7".to_owned(), true))
        );
        // An incomplete walk answer never revalidates.
        cache.on_update(7, "8".to_owned(), true);
        let gen = cache.gen_of("q").expect("promoted");
        cache.revalidate("q", gen, "8", false);
        assert!(cache.lookup("q", Instant::now()).is_none());
    }

    #[test]
    fn capacity_eviction_prefers_cold_lru_and_demotes_promoted() {
        let cache = QueryCache::new(cfg(2, 2));
        let now = Instant::now();
        warm(&cache, "hot", 1, "1");
        assert!(cache.lookup("cold1", now).is_none());
        // Inserting a third key evicts the LRU cold entry, not the
        // promoted one.
        assert!(cache
            .lookup("cold2", now + Duration::from_millis(1))
            .is_none());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("hot", now).is_some(), "promoted survived");
        assert!(cache.take_pending_demotions().is_empty());
        // With only promoted entries left, the cap demotes the LRU one.
        warm(&cache, "hot2", 2, "2");
        assert_eq!(cache.len(), 2, "cold2 evicted for hot2's slot");
        assert!(cache.lookup("hot", now).is_some());
        assert!(cache.lookup("hot2", now).is_some());
        assert!(cache.lookup("newkey", now).is_none());
        let demoted = cache.take_pending_demotions();
        assert_eq!(demoted.len(), 1, "a promoted entry lost its slot");
        assert_eq!(cache.promoted_len(), 1);
    }

    #[test]
    fn all_promoting_entries_still_respect_the_capacity_cap() {
        // --cache-promote-after 1 turns every first sighting into a
        // Promoting entry; a burst of distinct keys must not grow the
        // map past max_entries between event-loop drains.
        let cache = QueryCache::new(cfg(1, 2));
        let now = Instant::now();
        for i in 0..8 {
            assert!(cache.lookup(&format!("q{i}"), now).is_none());
            assert!(cache.len() <= 2, "cap held at insert {i}");
        }
        // The evicted keys' installs land on nothing: promoted() reports
        // false so the caller unsubscribes the orphan token.
        assert!(!cache.promoted("q0", 1));
        assert_eq!(cache.promoted_len(), 0);
        // A surviving key's install still lands normally.
        assert!(cache.promoted("q7", 2));
        assert_eq!(cache.tokens(), vec![2]);
        assert_eq!(cache.promoted_len(), 1);
    }

    #[test]
    fn idle_entries_demote_and_release_tokens() {
        let cache = QueryCache::new(cfg(2, 16));
        warm(&cache, "q", 9, "5");
        assert_eq!(cache.tokens(), vec![9]);
        // Not idle yet: nothing demoted.
        assert!(cache.demote_idle(Instant::now()).is_empty());
        let tokens = cache.demote_idle(Instant::now() + Duration::from_secs(120));
        assert_eq!(tokens, vec![9]);
        assert_eq!(cache.demotions(), 1);
        assert!(cache.is_empty());
        assert!(cache.tokens().is_empty());
        // Updates for a demoted token are ignored, not resurrected.
        cache.on_update(9, "6".to_owned(), true);
        assert!(cache.is_empty());
    }

    #[test]
    fn promoted_install_races_eviction_safely() {
        let cache = QueryCache::new(cfg(1, 16));
        assert!(cache.lookup("q", Instant::now()).is_none());
        let pending = cache.take_pending_promotions();
        assert_eq!(pending.len(), 1, "promote_after=1 promotes immediately");
        // Both eviction paths spare in-flight promotions, so the idle
        // sweep leaves the entry for the install to land on ...
        let _ = cache.demote_idle(Instant::now() + Duration::from_secs(120));
        assert!(cache.promoted("q", 3), "install lands after the sweep");
        assert_eq!(cache.promoted_len(), 1);
        // ... but an install for a key the cache never tracked (or that
        // failed back to cold) reports false so the caller unsubscribes.
        assert!(!cache.promoted("never-tracked", 4));
        assert_eq!(cache.promoted_len(), 1);
    }

    #[test]
    fn promotion_failure_returns_to_cold() {
        let cache = QueryCache::new(cfg(1, 16));
        assert!(cache.lookup("not a query", Instant::now()).is_none());
        let pending = cache.take_pending_promotions();
        assert_eq!(pending.len(), 1);
        cache.promotion_failed("not a query");
        // The key keeps counting (and re-queues) instead of wedging.
        assert!(cache.lookup("not a query", Instant::now()).is_none());
        assert_eq!(cache.take_pending_promotions().len(), 1);
    }

    #[test]
    fn counters_track_hits_misses_and_coalesces() {
        let cache = QueryCache::new(cfg(2, 16));
        warm(&cache, "q", 1, "5");
        let now = Instant::now();
        assert!(cache.lookup("q", now).is_some());
        assert!(cache.lookup("q", now).is_some());
        assert!(cache.lookup("other", now).is_none());
        cache.note_coalesced();
        assert_eq!(cache.hits(), 2);
        // 2 cold misses warming "q" + 1 for "other".
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.promotions(), 1);
        assert_eq!(cache.coalesced(), 1);
    }
}
