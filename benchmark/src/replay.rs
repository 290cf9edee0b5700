//! Replay: per-layer costs measured from outside, by timing calls into
//! each crate's public functions with the workload's own request bytes
//! and query texts (and, for the wire codec, a fixed message mix).
//!
//! Each figure is the median over 11 batches of ns per call; allocations
//! per call are exact, counted by the bench's allocator on this thread.

use std::hint::black_box;
use std::time::{Duration, Instant};

use moara_aggregation::{AggKind, AggState, DeltaFold, NodeRef};
use moara_attributes::Value;
use moara_core::{Cluster, MoaraMsg, QueryId};
use moara_dht::{Id, Ring};
use moara_gateway::http::{parse_request, ParseStep};
use moara_gateway::{CacheConfig, HttpResponse, MetricsRegistry, QueryCache};
use moara_query::{choose_cover, parse_query, CmpOp, SimplePredicate};
use moara_simnet::{NodeId, SimDuration};
use moara_subscribe::SubId;
use moara_trace::{Phase, SpanRecord, SpanStore, TraceCtx, NO_PEER};
use moara_transport::TcpConfig;
use moara_wire::{peer_framed_len, Wire};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fleet::DAEMONS;
use crate::metrics::{median_f64, percentile_supported, Values};
use crate::sys::thread_allocs;
use crate::trace::{Span, Trace};

const BATCHES: usize = 11;

/// What replay needs from the workload being measured.
pub struct Inputs<'a> {
    pub seed: u64,
    /// Query texts the workload sends (both live and simulated ones).
    pub texts: &'a [String],
    /// The HTTP requests carrying them (empty for `sim-scale`, which has
    /// no edge: a generic request stands in).
    pub requests: &'a [Vec<u8>],
    /// `--attrs` per daemon for the in-process TCP cluster.
    pub attrs: &'a [String],
    /// Sample count of a live `/metrics` scrape (lines that are not
    /// comments); the render replay builds a registry of this size.
    pub scrape_samples: usize,
    /// `--check`: a tenth of the calls.
    pub quick: bool,
}

struct Replayer<'a> {
    epoch: Instant,
    trace: &'a mut Trace,
}

impl Replayer<'_> {
    /// Times `calls` calls of `f` per batch; returns (median ns per call,
    /// exact allocations per call). Records one span per batch.
    fn run(
        &mut self,
        name: &'static str,
        layer: &'static str,
        calls: usize,
        mut f: impl FnMut(usize),
    ) -> (f64, f64) {
        let mut ns = Vec::with_capacity(BATCHES);
        let mut allocs = 0;
        for batch in 0..BATCHES {
            let (start, a0, t0) = (self.epoch.elapsed(), thread_allocs(), Instant::now());
            for i in 0..calls {
                f(i);
            }
            ns.push(t0.elapsed().as_nanos() as f64 / calls as f64);
            // The same calls on the same inputs allocate the same every
            // batch; the last batch's count is as good as any.
            allocs = thread_allocs() - a0;
            self.trace
                .push(Span::new(name, layer, start, self.epoch.elapsed()).req(batch as u64));
        }
        (median_f64(&mut ns), allocs as f64 / calls as f64)
    }
}

/// The fixed wire mix: the message kinds a walk and a standing
/// subscription put on the wire, with and without a trace context.
fn wire_mix() -> Vec<MoaraMsg> {
    let query = parse_query("SELECT avg(Load) WHERE ServiceX = true AND CPU-Util < 50")
        .expect("literal query parses");
    let qid = QueryId {
        origin: NodeId(3),
        n: 4242,
    };
    let pred = SimplePredicate::new("ServiceX", CmpOp::Eq, true);
    let mut mix = Vec::new();
    for trace in [None, Some(TraceCtx::root(0xfeed_beef).descend(77))] {
        let down = MoaraMsg::QueryDown {
            qid,
            seq: 9,
            pred_key: "ServiceX=true".into(),
            tree: Id(0x1234_5678_9abc_def0),
            query: query.clone(),
            reply_to: NodeId(1),
            trace,
        };
        mix.push(down.clone());
        mix.push(MoaraMsg::QueryReply {
            qid,
            pred_key: "ServiceX=true".into(),
            state: AggState::Avg {
                sum: 1234.5,
                count: 17,
            },
            np: 3,
            complete: true,
            trace,
        });
        mix.push(MoaraMsg::SubDelta {
            sid: SubId {
                origin: NodeId(2),
                n: 7,
            },
            pred_key: "ServiceX=true".into(),
            seq: 31,
            state: AggState::Max((Value::Int(1017), NodeRef(1))),
            trace,
        });
        mix.push(MoaraMsg::Route {
            key: Id(0x0fed_cba9_8765_4321),
            inner: Box::new(down.clone()),
        });
        mix.push(MoaraMsg::Batch {
            items: vec![down; 4],
        });
    }
    mix.push(MoaraMsg::Status {
        pred_key: "ServiceX=true".into(),
        pred,
        prune: false,
        update_set: vec![NodeId(1), NodeId(4)],
        np: 2,
        last_seq: 8,
    });
    mix
}

/// A registry of `samples` samples shaped like the daemon's scrape:
/// mostly plain counters and gauges, plus 15-bucket histograms.
fn registry_of(samples: usize) -> MetricsRegistry {
    const BOUNDS: [u64; 14] = [
        50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
        1_000_000, 5_000_000,
    ];
    let cumulative: Vec<u64> = (1..=15).map(|i| i * 40).collect();
    let mut reg = MetricsRegistry::new();
    let mut i = 0;
    while reg.sample_count() < samples {
        if i % 8 == 0 {
            let phase = format!("p{i}");
            reg.histogram_with(
                "moara_replay_latency_us",
                "Replay stand-in for a latency histogram.",
                &[("phase", &phase)],
                &BOUNDS,
                &cumulative,
                123_456,
                600,
            );
        } else if i % 2 == 0 {
            reg.counter(
                &format!("moara_replay_counter_{i}_total"),
                "Replay stand-in counter.",
                i as u64 * 97,
            );
        } else {
            reg.gauge(
                &format!("moara_replay_gauge_{i}"),
                "Replay stand-in gauge.",
                i as f64 * 1.5,
            );
        }
        i += 1;
    }
    reg
}

/// Runs every replay and returns the layer metrics it yields.
pub fn run(inputs: &Inputs<'_>, trace: &mut Trace, epoch: Instant) -> Values {
    let mut v = Values::default();
    let calls = if inputs.quick { 1_000 } else { 10_000 };
    let mut r = Replayer { epoch, trace };
    let generic = [crate::load::query_request(
        "SELECT count(*) WHERE ServiceX = true",
    )];
    let requests = if inputs.requests.is_empty() {
        &generic[..]
    } else {
        inputs.requests
    };
    let texts = inputs.texts;

    // gateway: what a cache hit costs on the reactor shard.
    let (ns, allocs) = r.run("http::parse_request", "gateway", calls, |i| {
        let step = parse_request(black_box(&requests[i % requests.len()]));
        assert!(matches!(black_box(step), ParseStep::Done { .. }));
    });
    v.set("gateway.http_parse_ns", ns);
    v.set("gateway.http_parse_allocs", allocs);

    let cache = QueryCache::new(CacheConfig::default());
    let now = Instant::now();
    let body = "{\"result\":\"1017 at @1\",\"complete\":true}\n";
    let mut tokens = Vec::new();
    for (i, q) in texts.iter().enumerate() {
        while cache.take_pending_promotions().is_empty() {
            cache.lookup(q, now);
        }
        let key = moara_gateway::normalize(q);
        assert!(cache.promoted(&key, i as u64));
        cache.on_update(i as u64, body.to_owned(), true);
        tokens.push((i as u64, key));
    }
    let (ns, allocs) = r.run("QueryCache::lookup", "gateway", calls, |i| {
        let hit = cache.lookup(black_box(&texts[i % texts.len()]), now);
        assert!(black_box(hit).is_some());
    });
    v.set("gateway.cache_lookup_ns", ns);
    v.set("gateway.cache_lookup_allocs", allocs);

    let mut sink = Vec::with_capacity(512);
    let (ns, _) = r.run("HttpResponse::write_to", "gateway", calls, |_| {
        sink.clear();
        HttpResponse::json(200, black_box(body))
            .with_cache("hit")
            .write_to(&mut sink, true)
            .expect("writing to a Vec cannot fail");
        black_box(&sink);
    });
    v.set("gateway.response_write_ns", ns);

    // The invalidation side: a standing update supersedes the entry, the
    // next walk's answer revalidates it.
    let (ns, _) = r.run("QueryCache::on_update+revalidate", "gateway", calls, |i| {
        let (token, key) = &tokens[i % tokens.len()];
        cache.on_update(*token, body.to_owned(), true);
        let gen = cache.gen_of(key).expect("promoted key has a generation");
        cache.revalidate(key, gen, body, true);
    });
    v.set("gateway.cache_invalidate_ns", ns);

    let registry = registry_of(inputs.scrape_samples.max(64));
    let (ns, _) = r.run("MetricsRegistry::render", "gateway", calls / 50, |_| {
        black_box(registry.render());
    });
    v.set("gateway.metrics_render_ns", ns);

    // wire: one encode / decode of each message of the mix.
    let mix = wire_mix();
    let encoded: Vec<Vec<u8>> = mix.iter().map(Wire::to_bytes).collect();
    let (ns, allocs) = r.run("Wire::encode", "wire", calls, |i| {
        black_box(black_box(&mix[i % mix.len()]).to_bytes());
    });
    v.set("wire.encode_ns", ns);
    v.set("wire.encode_allocs", allocs);
    let (ns, allocs) = r.run("Wire::decode", "wire", calls, |i| {
        let msg = MoaraMsg::from_bytes(black_box(&encoded[i % encoded.len()]));
        assert!(black_box(msg).is_ok());
    });
    v.set("wire.decode_ns", ns);
    v.set("wire.decode_allocs", allocs);
    v.set(
        "wire.frame_bytes",
        mix.iter().map(|m| peer_framed_len(m) as f64).sum::<f64>() / mix.len() as f64,
    );

    // query: front-end parse and plan of the workload's texts.
    let (ns, _) = r.run("parse_query", "query", calls, |i| {
        assert!(black_box(parse_query(black_box(&texts[i % texts.len()]))).is_ok());
    });
    v.set("query.parse_ns", ns);
    let parsed: Vec<_> = texts
        .iter()
        .map(|t| parse_query(t).expect("workload text parses"))
        .collect();
    let (ns, allocs) = r.run("to_cnf+choose_cover", "query", calls, |i| {
        let cnf = black_box(&parsed[i % parsed.len()])
            .predicate
            .to_cnf()
            .expect("workload predicates stay small");
        black_box(choose_cover(&cnf, |p| 2 + p.attr.as_str().len() as u64));
    });
    v.set("query.plan_ns", ns);
    v.set("query.plan_allocs", allocs);

    // aggregation: a 64-way fold, and the two DeltaFold paths a standing
    // query takes (count adjusts in O(1); max must refold when the
    // maximum's own source drops).
    let node = |i: usize| NodeRef(i as u64);
    let kinds = [AggKind::Count, AggKind::Avg, AggKind::TopK(3)];
    let partials: Vec<Vec<AggState>> = kinds
        .iter()
        .map(|k| {
            (0..64)
                .map(|i| {
                    k.seed(node(i), &Value::Int(i as i64 * 7 % 64))
                        .expect("ints aggregate")
                })
                .collect()
        })
        .collect();
    let (ns, _) = r.run("AggKind::merge x64", "aggregation", calls / 10, |i| {
        let k = i % kinds.len();
        let folded = partials[k]
            .iter()
            .cloned()
            .fold(kinds[k].identity(), |acc, s| kinds[k].merge(acc, s));
        black_box(folded);
    });
    v.set("aggregation.merge_ns", ns);
    let mut counts = DeltaFold::new(AggKind::Count);
    let mut maxes = DeltaFold::new(AggKind::Max);
    for i in 0..64u64 {
        counts.set(i, AggState::Count(i));
        maxes.set(i, AggState::Max((Value::Int(i as i64), node(i as usize))));
    }
    let (ns, _) = r.run("DeltaFold::set count", "aggregation", calls, |i| {
        black_box(counts.set(i as u64 % 64, AggState::Count(i as u64)));
    });
    v.set("aggregation.delta_set_count_ns", ns);
    let (ns, _) = r.run("DeltaFold::set max", "aggregation", calls, |i| {
        // Source 63 holds the maximum; lowering it forces a refold, and
        // raising it back keeps the next call on the same path.
        let value = if i % 2 == 0 { 0 } else { 1_000 };
        black_box(maxes.set(63, AggState::Max((Value::Int(value), node(63)))));
    });
    v.set("aggregation.delta_set_max_ns", ns);

    // dht: routing decisions on a paper-scale ring.
    let bits = moara_core::MoaraConfig::default().bits_per_digit;
    let ring = Ring::with_random_ids(2048, bits, inputs.seed);
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0xd47);
    let pairs: Vec<(Id, Id)> = (0..2048)
        .map(|_| (ring.ids()[rng.gen_range(0..ring.len())], Id(rng.gen())))
        .collect();
    let (ns, _) = r.run("Ring::next_hop", "dht", calls, |i| {
        let (from, key) = pairs[i % pairs.len()];
        black_box(ring.next_hop(black_box(from), black_box(key)));
    });
    v.set("dht.next_hop_ns", ns);
    let hops: usize = pairs
        .iter()
        .map(|&(from, key)| ring.route_path(from, key).len().saturating_sub(1))
        .sum();
    v.set("dht.route_hops_mean", hops as f64 / pairs.len() as f64);

    // trace: what recording one span costs (every query is sampled).
    let store = SpanStore::new(65_536, 1);
    let (ns, _) = r.run("SpanStore::record", "trace", calls, |i| {
        store.record(SpanRecord {
            trace_id: i as u64 / 6,
            span_id: store.next_span_id(1),
            parent_span_id: 1,
            node: 1,
            phase: Phase::FanOut,
            peer: NO_PEER,
            start_us: i as u64,
            queue_us: 3,
            service_us: 40,
            bytes: 180,
            detail: "ServiceX=true".to_owned(),
        });
    });
    v.set("trace.span_record_ns", ns);

    // transport: the same texts over engine + wire + TCP, with no daemon
    // loop and no gateway in the way.
    v.set(
        "transport.tcp_query_p50_us",
        tcp_query_p50_us(inputs, if inputs.quick { 40 } else { 400 }),
    );
    v
}

/// p50 of a query through a five-node in-process TCP cluster, pumped as
/// fast as answers arrive (no poll interval anywhere).
fn tcp_query_p50_us(inputs: &Inputs<'_>, queries: usize) -> f64 {
    let mut cluster = Cluster::builder()
        .nodes(DAEMONS)
        .seed(inputs.seed)
        .build_tcp(TcpConfig::seeded(inputs.seed));
    for (d, spec) in inputs.attrs.iter().enumerate() {
        for (k, value) in moara_daemon::parse_attrs(spec).expect("generated attrs parse") {
            cluster.set_attr(NodeId(d as u32), &k, value);
        }
    }
    cluster.run_to_quiescence();
    let parsed: Vec<_> = inputs
        .texts
        .iter()
        .map(|t| parse_query(t).expect("workload text parses"))
        .collect();
    let mut rtts = Vec::with_capacity(queries);
    for i in 0..queries {
        let origin = NodeId((i % 2) as u32);
        let t0 = Instant::now();
        let id = cluster.submit(origin, parsed[i % parsed.len()].clone());
        let deadline = t0 + Duration::from_secs(5);
        while Instant::now() < deadline {
            cluster.run_for(SimDuration::from_micros(20));
            if cluster.take_outcome(origin, id).is_some() {
                rtts.push(t0.elapsed().as_nanos() as u64);
                break;
            }
        }
    }
    rtts.sort_unstable();
    percentile_supported(&rtts, 50.0).0 as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_mix_roundtrips_and_covers_the_named_kinds() {
        let mix = wire_mix();
        assert_eq!(mix.len(), 11);
        for m in &mix {
            assert_eq!(&MoaraMsg::from_bytes(&m.to_bytes()).unwrap(), m);
        }
        let traced = mix
            .iter()
            .filter(|m| matches!(m, MoaraMsg::QueryDown { trace: Some(_), .. }))
            .count();
        assert_eq!(traced, 1);
        assert!(mix
            .iter()
            .any(|m| matches!(m, MoaraMsg::Batch { items } if items.len() == 4)));
    }

    #[test]
    fn stand_in_registry_reaches_the_requested_size() {
        let reg = registry_of(500);
        assert!(
            (500..520).contains(&reg.sample_count()),
            "{}",
            reg.sample_count()
        );
        assert!(moara_gateway::lint_exposition(&reg.render()).is_ok());
    }
}
