//! Per-peer rate limiting: the one middleware layer with state of its
//! own, and so the one with a file of its own.
//!
//! The gateway has three layers between a readable socket and the router,
//! all applied in `crate::reactor`, on the shard thread that owns the
//! connection, in this order from the outside in:
//!
//! 1. **panic isolation** — `Shard::on_conn` runs every connection
//!    event inside `catch_unwind`; a poisoned request kills its
//!    connection, not the shard;
//! 2. **rate limiting** — `handle_request` spends a token from
//!    [`TokenBuckets`] before routing and answers 429 without one;
//! 3. **the request deadline** — `Shard::sweep` and the late-reply path
//!    answer 408 once `GatewayOpts::request_timeout` has passed, by the
//!    shard's own clock.
//!
//! Each counts itself in [`crate::GatewayStats`] (`panics_caught`,
//! `rate_limited`, `request_timeouts`), which `/metrics` exports.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Mutex;
use std::time::Instant;

/// Most peer IPs tracked before full (= uninteresting) buckets are
/// swept: bounds the map against an address-spraying client.
const MAX_TRACKED_PEERS: usize = 8 * 1024;

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Per-peer-IP token buckets: each IP accrues `rate` tokens per second
/// up to `burst`; a request spends one token or is rejected (429).
///
/// The caller injects `now`, so refill behavior is unit-testable without
/// sleeping, and the reactor can reuse its per-event timestamp.
#[derive(Debug)]
pub struct TokenBuckets {
    rate: f64,
    burst: f64,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

impl TokenBuckets {
    /// A limiter allowing `rate` requests/second with bursts of `burst`
    /// (both clamped to at least 1.0; use `rate_limit: 0` in
    /// [`crate::GatewayOpts`] to disable limiting entirely).
    pub fn new(rate: f64, burst: f64) -> TokenBuckets {
        TokenBuckets {
            rate: rate.max(1.0),
            burst: burst.max(1.0),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Spends one token from `ip`'s bucket; false means "answer 429".
    pub fn allow(&self, ip: IpAddr, now: Instant) -> bool {
        let mut buckets = self.buckets.lock().unwrap();
        if buckets.len() >= MAX_TRACKED_PEERS && !buckets.contains_key(&ip) {
            // Full buckets carry no state worth keeping (a fresh bucket
            // starts full anyway): refill everything and drop them.
            let (rate, burst) = (self.rate, self.burst);
            buckets.retain(|_, b| {
                b.tokens = (b.tokens + now.saturating_duration_since(b.last).as_secs_f64() * rate)
                    .min(burst);
                b.last = now;
                b.tokens < burst
            });
            if buckets.len() >= MAX_TRACKED_PEERS {
                // Every bucket is mid-spend and worth keeping. A fresh
                // bucket would grant its first token anyway, so admit
                // the new IP without tracking it — memory stays bounded
                // and nobody already limited escapes their bucket.
                return true;
            }
        }
        let bucket = buckets.entry(ip).or_insert(Bucket {
            tokens: self.burst,
            last: now,
        });
        bucket.tokens = (bucket.tokens
            + now.saturating_duration_since(bucket.last).as_secs_f64() * self.rate)
            .min(self.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Peer IPs currently tracked (tests and debugging).
    pub fn tracked(&self) -> usize {
        self.buckets.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ip(last: u8) -> IpAddr {
        IpAddr::from([127, 0, 0, last])
    }

    #[test]
    fn burst_spends_down_then_rejects() {
        let tb = TokenBuckets::new(10.0, 3.0);
        let t0 = Instant::now();
        assert!(tb.allow(ip(1), t0));
        assert!(tb.allow(ip(1), t0));
        assert!(tb.allow(ip(1), t0));
        assert!(!tb.allow(ip(1), t0), "burst exhausted");
        // Another IP has its own bucket.
        assert!(tb.allow(ip(2), t0));
    }

    #[test]
    fn tokens_refill_at_rate() {
        let tb = TokenBuckets::new(10.0, 1.0);
        let t0 = Instant::now();
        assert!(tb.allow(ip(1), t0));
        assert!(!tb.allow(ip(1), t0));
        // 10 tokens/s -> one token back after 100 ms.
        let t1 = t0 + Duration::from_millis(100);
        assert!(tb.allow(ip(1), t1));
        assert!(!tb.allow(ip(1), t1));
        // Refill never exceeds the burst capacity.
        let t2 = t1 + Duration::from_secs(60);
        assert!(tb.allow(ip(1), t2));
        assert!(!tb.allow(ip(1), t2), "capped at burst=1");
    }

    #[test]
    fn address_spray_cannot_balloon_the_map() {
        let tb = TokenBuckets::new(10.0, 2.0);
        let t0 = Instant::now();
        for a in 0..=255u8 {
            for b in 0..40u8 {
                tb.allow(IpAddr::from([10, 0, b, a]), t0);
            }
        }
        assert!(tb.tracked() <= MAX_TRACKED_PEERS + 1, "{}", tb.tracked());
        // Buckets that refilled to full are swept; an exhausted bucket
        // (the one IP mid-burst) survives the sweep.
        let hot = ip(9);
        let t1 = t0 + Duration::from_secs(5);
        assert!(tb.allow(hot, t1));
        assert!(tb.allow(hot, t1));
        assert!(!tb.allow(hot, t1));
        for a in 0..=255u8 {
            tb.allow(IpAddr::from([11, 1, 1, a]), t1);
        }
        assert!(!tb.allow(hot, t1), "hot bucket state survives sweeps");
    }
}
