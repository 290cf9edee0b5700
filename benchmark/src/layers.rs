//! The per-layer pass (`--trace 1`): everything that explains the
//! end-to-end numbers, measured from outside the program.
//!
//! For a live workload it runs, in order: the workload's untraced window
//! on real `moarad` processes bracketed by `/metrics` scrapes (counter
//! deltas, and the end-to-end metrics only this workload has); a no-load
//! window and probe requests on the same fleet; the workload again on
//! daemons hosted in-process with a span around every event-loop step
//! and every client round trip; and the replays. The traced window never
//! feeds an end-to-end number — the gap between the two windows' `qps`
//! is reported as the tracing overhead.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use moara_daemon::{ctrl_roundtrip, CtrlReply, CtrlRequest};

use crate::fleet::{Fleet, StepSpan};
use crate::live::{self, Hosting, Measured, Plan};
use crate::load::{plain_request, probe_rtts, HttpClient};
use crate::metrics::{median_f64, percentile_supported, Values, WALK};
use crate::prom::Scrape;
use crate::replay;
use crate::sim::{self, SimSize};
use crate::trace::{covered_ns, Span, Trace};
use crate::{sys, Outcome};

/// How long the fleet is left alone to measure what it costs doing
/// nothing (polling, SWIM, health sampling, the recorder, renewals).
const IDLE_WINDOW: Duration = Duration::from_secs(3);

/// Where the pass runs and how long its pieces take.
pub struct Context<'a> {
    pub moarad: &'a Path,
    pub out_dir: &'a Path,
    pub seed: u64,
    pub warmup: Duration,
    pub window: Duration,
    /// `--check`: short probes and a tenth of the replay calls.
    pub quick: bool,
}

fn scrape(addr: SocketAddr) -> Result<(Scrape, usize, usize), String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("scrape {addr}: {e}"))?;
    let resp = client
        .roundtrip(&plain_request("GET", "/metrics"))
        .map_err(|e| format!("scrape {addr}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("scrape {addr}: status {}", resp.status));
    }
    let text = String::from_utf8_lossy(resp.body);
    let samples = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .count();
    Ok((Scrape::parse(&text), resp.body.len(), samples))
}

/// Every daemon's scrape, summed series by series.
fn scrape_fleet(fleet: &Fleet) -> Result<Scrape, String> {
    let mut sum = Scrape::default();
    for &addr in &fleet.http {
        sum.absorb(&scrape(addr)?.0);
    }
    Ok(sum)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layer metrics read off counter deltas across the measured window
/// (warm-up included on both sides of every ratio).
fn from_scrape_delta(d: &Scrape, requests: f64, writes: f64, v: &mut Values) {
    v.set(
        "daemon.tick_p99_us",
        d.hist_quantile("moara_event_loop_tick_us", "", 0.99),
    );
    v.set(
        "daemon.jobs_per_tick",
        d.hist_mean("moara_event_loop_jobs_per_tick", ""),
    );
    v.set(
        "daemon.stalled_ticks",
        d.total("moara_event_loop_stalled_ticks_total"),
    );
    v.set(
        "transport.msgs_per_req",
        ratio(d.total("moara_transport_messages_sent_total"), requests),
    );
    v.set(
        "transport.bytes_per_req",
        ratio(d.total("moara_transport_bytes_sent_total"), requests),
    );
    v.set(
        "transport.reconnects",
        d.total("moara_transport_reconnects_total"),
    );
    let hits = d.total("moara_sched_probe_cache_hits_total");
    v.set(
        "core.probe_cache_hit_share",
        ratio(hits, hits + d.total("moara_sched_probe_cache_misses_total")),
    );
    for (metric, phase) in [
        ("core.phase_plan_us", "phase=\"plan\""),
        ("core.phase_fanout_us", "phase=\"fan-out\""),
        ("core.phase_fold_us", "phase=\"fold\""),
    ] {
        v.set(metric, d.hist_mean("moara_query_phase_latency_us", phase));
    }
    v.set(
        "subscribe.deltas_per_write",
        ratio(d.total("moara_subscribe_deltas_total"), writes),
    );
    v.set(
        "subscribe.delta_lag_p50_us",
        d.hist_quantile("moara_subscribe_delta_lag_us", "", 0.5),
    );
    v.set(
        "trace.spans_per_req",
        ratio(d.total("moara_trace_spans_total"), requests),
    );
}

/// The no-load window: what five idle daemons cost per second.
fn idle_window(fleet: &Fleet, window: Duration, v: &mut Values) -> Result<(), String> {
    let before = scrape_fleet(fleet)?;
    let (t0, cpu0) = (Instant::now(), fleet.cpu_ms());
    std::thread::sleep(window);
    let (cpu, secs) = (fleet.cpu_ms() - cpu0, t0.elapsed().as_secs_f64());
    let d = scrape_fleet(fleet)?.since(&before);
    v.set("daemon.idle_cpu_ms_per_s", cpu / secs);
    v.set(
        "transport.background_msgs_per_s",
        d.total("moara_transport_messages_sent_total") / secs,
    );
    v.set(
        "membership.msgs_per_s",
        (d.total("moara_membership_pings_total") + d.total("moara_membership_ping_reqs_total"))
            / secs,
    );
    Ok(())
}

/// Probe requests over the public HTTP and control surfaces of daemon 0,
/// from a thread pinned as that daemon's client is: a probe from another
/// core would measure the wake-up of a halted core, not the daemon.
fn probes(fleet: &Fleet, quick: bool, v: &mut Values) -> Result<usize, String> {
    let cores = sys::cores();
    std::thread::scope(|s| {
        s.spawn(|| {
            sys::pin_to_core(0, cores);
            probes_pinned(fleet, quick, v)
        })
        .join()
        .expect("probe thread panicked")
    })
}

fn probes_pinned(fleet: &Fleet, quick: bool, v: &mut Values) -> Result<usize, String> {
    let scale = if quick { 10 } else { 1 };
    let addr = fleet.http[0];
    let p50_us = |rtts: Vec<u64>| percentile_supported(&rtts, 50.0).0 as f64 / 1e3;
    // Answered inline on a reactor shard: no cache, no event loop.
    let floor = probe_rtts(addr, &plain_request("OPTIONS", "/v1/query"), 2000 / scale)
        .map_err(|e| format!("OPTIONS probe: {e}"))?;
    v.set("gateway.reactor_floor_us", p50_us(floor));
    // One trip through job queue → event loop → reply, no engine work.
    let health = probe_rtts(addr, &plain_request("GET", "/healthz"), 200 / scale)
        .map_err(|e| format!("healthz probe: {e}"))?;
    v.set("daemon.loop_rtt_p50_us", p50_us(health));
    let mut scrape_ms = Vec::new();
    let (mut bytes, mut samples) = (0, 0);
    for _ in 0..(20 / scale).max(3) {
        let t0 = Instant::now();
        let (_, b, s) = scrape(addr)?;
        scrape_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        (bytes, samples) = (b, s);
    }
    v.set("daemon.metrics_scrape_ms", median_f64(&mut scrape_ms));
    v.set("daemon.metrics_scrape_bytes", bytes as f64);
    let ctrl = fleet.ctrl[0].to_string();
    let mut status_us = Vec::new();
    for _ in 0..(50 / scale).max(3) {
        let t0 = Instant::now();
        match ctrl_roundtrip(&ctrl, &CtrlRequest::Status, Duration::from_secs(5)) {
            Ok(CtrlReply::Status { .. }) => status_us.push(t0.elapsed().as_secs_f64() * 1e6),
            other => return Err(format!("ctrl status probe: {other:?}")),
        }
    }
    v.set("daemon.ctrl_status_rtt_us", median_f64(&mut status_us));
    Ok(samples)
}

/// One row of the budget table.
struct BudgetRow {
    what: String,
    ms: f64,
}

/// Builds the trace of a hosted window (request spans, and step spans
/// joined to the request they overlap) and the latency budget:
/// `query_p50_ms` = loop wait + Σ layer self-times + unattributed.
fn trace_and_budget(
    m: &Measured,
    steps: &[Vec<StepSpan>],
    epoch: Instant,
    replayed: &Values,
    untraced: &Values,
    trace: &mut Trace,
    v: &mut Values,
) -> Vec<BudgetRow> {
    let origin = m
        .window
        .measure_from
        .saturating_duration_since(epoch)
        .as_nanos() as u64;
    let end = origin
        + m.window
            .end
            .duration_since(m.window.measure_from)
            .as_nanos() as u64;

    // Requests, in start order, as (start, end) on the epoch clock.
    let mut requests: Vec<(u64, u64)> = m
        .clients
        .iter()
        .flat_map(|c| c.samples.iter().map(|&(s, d)| (origin + s, origin + s + d)))
        .collect();
    requests.sort_unstable();
    let request_span: Vec<usize> = requests
        .iter()
        .enumerate()
        .map(|(i, &(s, e))| {
            let span = Span::new(
                "request",
                "bench",
                Duration::from_nanos(s),
                Duration::from_nanos(e),
            );
            trace.push(span.req(i as u64))
        })
        .collect();

    // Steps inside the window. A step blocks in the transport's poll
    // first and works after it, so its busy time is the tail of the span
    // as long as the CPU it consumed.
    let mut busy: Vec<(u64, u64)> = Vec::new();
    let (mut cpu_ns, mut count) = (0u64, 0u64);
    let mut step_cpu: Vec<u64> = Vec::new();
    let mut cursor = 0;
    let mut in_window: Vec<&StepSpan> = steps
        .iter()
        .flatten()
        .filter(|s| s.end_ns > origin && s.start_ns < end)
        .collect();
    in_window.sort_unstable_by_key(|s| s.end_ns);
    for s in in_window {
        cpu_ns += s.cpu_ns;
        count += 1;
        if !s.did {
            continue;
        }
        step_cpu.push(s.cpu_ns);
        let work_from = s.end_ns.saturating_sub(s.cpu_ns).max(s.start_ns);
        busy.push((work_from, s.end_ns));
        // Join by time overlap: the first request still open when the
        // step's work began.
        while cursor < requests.len() && requests[cursor].1 < work_from {
            cursor += 1;
        }
        let joined = (cursor < requests.len() && requests[cursor].0 < s.end_ns).then_some(cursor);
        let mut span = Span::new(
            "step",
            "daemon",
            Duration::from_nanos(s.start_ns),
            Duration::from_nanos(s.end_ns),
        );
        if let Some(r) = joined {
            span = span.req(r as u64).parent(request_span[r]);
        }
        trace.push(span);
    }
    busy.sort_unstable();
    let answered = requests.len().max(1) as f64;
    v.set("daemon.step_cpu_us_per_req", cpu_ns as f64 / answered / 1e3);
    v.set("daemon.steps_per_req", count as f64 / answered);
    step_cpu.sort_unstable();
    v.set(
        "daemon.step_cpu_p99_us",
        percentile_supported(&step_cpu, 99.0).0 as f64 / 1e3,
    );

    // Per request: how much of its wall time some event loop was working.
    let mut first = 0;
    let mut wall: Vec<u64> = Vec::with_capacity(requests.len());
    let mut waits: Vec<u64> = Vec::with_capacity(requests.len());
    let mut busies: Vec<u64> = Vec::with_capacity(requests.len());
    for &(s, e) in &requests {
        while first < busy.len() && busy[first].1 <= s {
            first += 1;
        }
        let b = covered_ns(&busy[first..], s, e);
        wall.push(e - s);
        busies.push(b);
        waits.push(e - s - b);
    }
    let p50_ms = |xs: &mut Vec<u64>| {
        xs.sort_unstable();
        percentile_supported(xs, 50.0).0 as f64 / 1e6
    };
    let (p50, wait, loop_busy) = (p50_ms(&mut wall), p50_ms(&mut waits), p50_ms(&mut busies));

    // Layer self-times: per-call replay cost × calls per request.
    let r = |name: &str| replayed.get(name).unwrap_or(0.0);
    let u = |name: &str| untraced.get(name).unwrap_or(0.0);
    let cached = u("gateway.cache_hit_share") > 0.0;
    let edge_ns = r("gateway.http_parse_ns")
        + r("gateway.response_write_ns")
        + if cached {
            r("gateway.cache_lookup_ns")
        } else {
            0.0
        };
    let loadgen_ns = u("bench.loadgen_floor_us") * 1e3;
    let miss_share = 1.0 - u("gateway.cache_hit_share");
    let on_loop = [
        (
            "wire (encode+decode × msgs/req)",
            (r("wire.encode_ns") + r("wire.decode_ns")) * u("transport.msgs_per_req"),
        ),
        (
            "query (parse+plan × walks/req)",
            (r("query.parse_ns") + r("query.plan_ns")) * miss_share,
        ),
        (
            "trace (span record × spans/req)",
            r("trace.span_record_ns") * u("trace.spans_per_req"),
        ),
    ];
    let itemised_ns: f64 = on_loop.iter().map(|(_, ns)| ns).sum();
    let mut rows = vec![BudgetRow {
        what: "waiting, no event loop at work (poll, kernel, wake-ups)".into(),
        ms: (wait - (edge_ns + loadgen_ns) / 1e6).max(0.0),
    }];
    rows.push(BudgetRow {
        what: "gateway (parse+lookup+write, replayed)".into(),
        ms: edge_ns / 1e6,
    });
    for (what, ns) in on_loop {
        rows.push(BudgetRow {
            what: what.into(),
            ms: ns / 1e6,
        });
    }
    rows.push(BudgetRow {
        what: "daemon+core+transport (step CPU not itemised)".into(),
        ms: (loop_busy - itemised_ns / 1e6).max(0.0),
    });
    rows.push(BudgetRow {
        what: "bench (load generator CPU)".into(),
        ms: loadgen_ns / 1e6,
    });
    let accounted: f64 = rows.iter().map(|r| r.ms).sum();
    rows.push(BudgetRow {
        what: "unattributed".into(),
        ms: p50 - accounted,
    });
    rows.insert(
        0,
        BudgetRow {
            what: "query_p50_ms (traced window)".into(),
            ms: p50,
        },
    );
    rows
}

fn render_budget(workload: &str, rows: &[BudgetRow], notes: &mut Vec<String>) {
    let total = rows[0].ms.max(f64::MIN_POSITIVE);
    notes.push(format!("budget for {workload}:"));
    for row in rows {
        notes.push(format!(
            "  {:<48} {:>9.4} ms {:>6.1} %",
            row.what,
            row.ms,
            100.0 * row.ms / total
        ));
    }
}

/// The per-layer pass of a live workload.
///
/// # Errors
///
/// A fleet that does not come up, or a probe that fails outright.
pub fn live(plan: &Plan, ctx: &Context<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let processes = Hosting::Processes {
        moarad: ctx.moarad,
        out_dir: ctx.out_dir,
    };

    // 1. Untraced window on real processes, bracketed by scrapes.
    let mut fleet = live::set_up_repeatedly(plan, &processes, 1, &mut out)?;
    out.values.set("membership.converge_s", fleet.converge_s);
    let before = scrape_fleet(&fleet)?;
    let m = live::measure(&fleet, plan, ctx.warmup, ctx.window);
    let delta = scrape_fleet(&fleet)?.since(&before);
    live::report(&m, &mut out);
    let requests: u64 = m.clients.iter().map(|c| c.attempted).sum();
    let writes = m.writer.as_ref().map_or(0, |w| w.attempted);
    from_scrape_delta(
        &delta,
        (requests + writes) as f64,
        writes as f64,
        &mut out.values,
    );
    let untraced = out.values.clone();
    let cpu_ms_per_req = untraced.get("cpu_ms_per_kreq").unwrap_or(0.0) / 1000.0;
    out.values.set(
        "daemon.wait_share",
        1.0 - ratio(cpu_ms_per_req, untraced.get("query_p50_ms").unwrap_or(0.0)),
    );

    // 2. The same fleet, left alone, then probed.
    idle_window(
        &fleet,
        if ctx.quick {
            Duration::from_secs(1)
        } else {
            IDLE_WINDOW
        },
        &mut out.values,
    )?;
    let scrape_samples = probes(&fleet, ctx.quick, &mut out.values)?;
    if out.failed > 0 {
        fleet.keep_logs();
    }
    drop(fleet);

    // 3. Replays, on the workload's own requests and texts.
    let epoch = Instant::now();
    let mut trace = Trace::default();
    let replayed = replay::run(
        &replay::Inputs {
            seed: ctx.seed,
            texts: &plan.texts,
            requests: &plan.requests,
            attrs: &plan.spec.attrs,
            scrape_samples,
            quick: ctx.quick,
        },
        &mut trace,
        epoch,
    );
    out.values.extend(replayed.clone());
    out.values.set(
        "trace.cpu_share",
        ratio(
            replayed.get("trace.span_record_ns").unwrap_or(0.0)
                * untraced.get("trace.spans_per_req").unwrap_or(0.0),
            cpu_ms_per_req * 1e6,
        ),
    );

    // 4. Traced window: daemons hosted here, a span around every step.
    let mut traced = Outcome::default();
    let (mut hosted, _) = live::set_up(plan, &Hosting::InProcess(epoch), &mut traced)?;
    let m2 = live::measure(&hosted, plan, ctx.warmup, ctx.window / 2);
    let steps = hosted.stop_hosted();
    drop(hosted);
    live::report(&m2, &mut traced);
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    out.failures.extend(traced.failures);
    let rows = trace_and_budget(
        &m2,
        &steps,
        epoch,
        &replayed,
        &untraced,
        &mut trace,
        &mut out.values,
    );
    out.values.set(
        "bench.trace_overhead_share",
        1.0 - ratio(
            traced.values.get("qps").unwrap_or(0.0),
            untraced.get("qps").unwrap_or(0.0),
        ),
    );
    render_budget(plan.workload, &rows, &mut out.notes);
    if plan.workload == WALK {
        let (p50, unattributed) = (rows[0].ms, rows[rows.len() - 1].ms);
        out.notes.push(format!(
            "  waiting + layer self-times account for {:.1} % of the traced p50",
            100.0 * (1.0 - ratio(unattributed.abs(), p50))
        ));
    }
    write_trace(&trace, plan.workload, ctx, &mut out);
    Ok(out)
}

fn write_trace(trace: &Trace, workload: &str, ctx: &Context<'_>, out: &mut Outcome) {
    let path = ctx.out_dir.join(format!("trace-{workload}.json"));
    match trace.write(&path, workload) {
        Ok(()) => out.notes.push(format!(
            "{} spans recorded, trace written to {}",
            trace.len(),
            path.display()
        )),
        Err(e) => out
            .notes
            .push(format!("could not write {}: {e}", path.display())),
    }
}

/// The per-layer pass of `sim-scale`: the simulated window with a span
/// per phase, and the replays on the simulator's query texts.
pub fn sim_scale(size: SimSize, ctx: &Context<'_>) -> Outcome {
    let epoch = Instant::now();
    let mut trace = Trace::default();
    // The untraced window is the one of record; the traced one only
    // yields the spans and the overhead figure.
    let mut out = sim::run(ctx.seed, ctx.window, size, None);
    let traced = sim::run(ctx.seed, ctx.window / 2, size, Some(&mut trace));
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    out.failures.extend(traced.failures);
    out.values.set(
        "bench.trace_overhead_share",
        1.0 - ratio(
            traced.values.get("qps").unwrap_or(0.0),
            out.values.get("qps").unwrap_or(0.0),
        ),
    );
    let texts = sim::query_texts(size.nodes);
    let plan = live::plan(WALK, ctx.seed);
    let replayed = replay::run(
        &replay::Inputs {
            seed: ctx.seed,
            texts: &texts,
            requests: &[],
            attrs: &plan.spec.attrs,
            scrape_samples: 0,
            quick: ctx.quick,
        },
        &mut trace,
        epoch,
    );
    let per_query_ms = out.values.get("core.wall_query_p50_ms").unwrap_or(0.0);
    let front_end_ms = (replayed.get("query.parse_ns").unwrap_or(0.0)
        + replayed.get("query.plan_ns").unwrap_or(0.0))
        / 1e6;
    out.notes.push(format!(
        "budget for sim-scale: core.wall_query_p50_ms {per_query_ms:.4} = query parse+plan {front_end_ms:.4} + core engine {:.4} \
         ({:.0} msgs/query × {:.0} ns/msg on average)",
        per_query_ms - front_end_ms,
        out.values.get("sim_msgs_per_query").unwrap_or(0.0),
        out.values.get("core.ns_per_msg").unwrap_or(0.0),
    ));
    out.values.extend(replayed);
    write_trace(&trace, crate::metrics::SIM_SCALE, ctx, &mut out);
    out
}
