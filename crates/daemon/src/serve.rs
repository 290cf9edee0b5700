//! The daemon's one request path. Whichever port an operation arrived
//! on, it is a [`CtrlRequest`] that [`Daemon::serve`] answers into a
//! [`ReplyTo`]: the control port hands requests over and takes
//! [`CtrlReply`]s back verbatim, the HTTP port goes through two pure
//! functions — [`gw_request`] (parsed HTTP request → operation) and
//! [`gw_reply`] (reply → HTTP body and status). Tree walks in flight,
//! standing watches, and the cluster-wide scatter-gathers each have one
//! table here, shared by both ports.

use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

use moara_core::{DeliveryPolicy, QueryOutcome};
use moara_gateway::{GwJob, GwReply, GwRequest, ReplySink, SinkClosed, WatchPolicy};
use moara_query::{parse_query, Query};
use moara_simnet::{NodeId, SimDuration};
use moara_transport::Transport;

use crate::ctrl::{CtrlOut, CtrlReply, CtrlRequest};
use crate::node::moara_ctx;
use crate::recorder::{kind, now_unix_ms};
use crate::{parse_value, render, Daemon, DaemonMsg};

/// How long a scatter-gather waits for its peers before reporting the
/// silent ones missing: one deadline for the whole fan-out, however many
/// peers are stuck (bounds the cluster-wide operations under partitions
/// instead of hanging them).
pub const GATHER_TIMEOUT: Duration = Duration::from_secs(2);

/// How often quiescent watch streams are liveness-probed; a hung-up
/// watcher is unsubscribed within this bound even if its standing query
/// never changes.
const WATCH_KEEPALIVE_EVERY: Duration = Duration::from_secs(1);

/// Tree walks start in turns, and this is the gap between two turns
/// once [`WALK_BURST`] of them have been taken back to back. A turn
/// starts every query waiting, so requests that arrive together leave
/// together (identical ones as one walk) and concurrent clients are not
/// held to any rate; what the gap fixes is how often a lone closed loop
/// gets to go round — one answer per gap on any machine that walks the
/// tree in less, instead of however fast the host happens to run that
/// minute. Cache hits and every other operation take no turn. Half a
/// millisecond since a hop stopped changing threads: long enough that a
/// walk on the reference fleet is over well before the next turn.
pub const WALK_GAP: Duration = Duration::from_micros(500);

/// How many turns may be taken back to back before [`WALK_GAP`] applies:
/// an operator's few queries, a dashboard's page of them.
pub const WALK_BURST: u32 = 32;

/// Paces the turns in which this front-end starts tree walks: a token
/// bucket kept as one timestamp, so a turn taken late is made up by the
/// next one and the sustained rate is exact.
pub(crate) struct WalkPacer {
    /// When the bucket would be full again; each turn moves it one
    /// [`WALK_GAP`] later.
    full_at: Instant,
    /// Parsed queries waiting for the next turn, oldest first: text,
    /// query, who asked. A connection has one request in flight, so the
    /// connection caps bound this too.
    queued: Vec<(String, Query, ReplyTo)>,
}

impl WalkPacer {
    pub(crate) fn new(now: Instant) -> WalkPacer {
        WalkPacer {
            full_at: now,
            queued: Vec::new(),
        }
    }

    /// How long until the next turn: zero while fewer than
    /// [`WALK_BURST`] gaps are owed.
    fn wait(&self, now: Instant) -> Duration {
        let owed = self.full_at.saturating_duration_since(now);
        owed.saturating_sub(WALK_GAP * (WALK_BURST - 1))
    }

    /// Takes a turn if one is due.
    fn try_turn(&mut self, now: Instant) -> bool {
        let due = self.wait(now).is_zero();
        if due {
            self.full_at = self.full_at.max(now) + WALK_GAP;
        }
        due
    }
}

/// Where an operation's replies go: down a control connection as they
/// are, or out through the gateway rendered as HTTP.
pub(crate) enum ReplyTo {
    /// A control connection's thread, blocked on this channel.
    Ctrl(Sender<CtrlOut>),
    /// A gateway connection, plus what [`gw_reply`] renders it with.
    Http(ReplySink, HttpView),
}

impl ReplyTo {
    /// Delivers one reply; `Err` means the receiving side hung up (for a
    /// watch: cancel the subscription).
    pub(crate) fn send(&self, reply: CtrlReply) -> Result<(), SinkClosed> {
        match self {
            ReplyTo::Ctrl(tx) => tx.send(CtrlOut::Reply(reply)).map_err(|_| SinkClosed),
            ReplyTo::Http(sink, view) => sink.send(gw_reply(view, reply)),
        }
    }

    /// Liveness-probes a quiescent watch stream: a control connection
    /// swallows the probe, an SSE stream renders it as `: keepalive`.
    fn keepalive(&self) -> Result<(), SinkClosed> {
        match self {
            ReplyTo::Ctrl(tx) => tx.send(CtrlOut::Keepalive).map_err(|_| SinkClosed),
            ReplyTo::Http(sink, _) => sink.send(GwReply::Keepalive),
        }
    }

    /// Stamps the `X-Moara-Cache` marker an HTTP waiter answers with.
    fn marked(mut self, cache: &'static str) -> ReplyTo {
        if let ReplyTo::Http(_, view) = &mut self {
            view.cache = Some(cache);
        }
        self
    }
}

/// What an HTTP waiter keeps for [`gw_reply`]: who serves it, its cache
/// marker, and the request details its reply does not echo (a control
/// client remembers those itself). Each route sets the ones its body
/// shows; the rest stay default and unread.
#[derive(Default)]
pub(crate) struct HttpView {
    /// The serving daemon (bodies name it; not every reply carries it).
    node: u32,
    /// `X-Moara-Cache` value: `miss` for the request that started a walk,
    /// `coalesced` for single-flight joiners, `None` (no header at all)
    /// when the result cache is disabled.
    cache: Option<&'static str>,
    /// `POST /v1/attrs`: how many pairs the body set.
    attrs: usize,
    /// `GET /v1/alerts`: show only the firing rules of the health table.
    alerts_only: bool,
    /// `GET /v1/trace/{id}`: the id asked for.
    trace_id: u64,
    /// `GET /v1/traces`: the latency-bucket exemplars listed next to the
    /// summaries (control clients read them from `Status`).
    exemplars: Vec<(String, String)>,
    /// `GET /v1/history` and `/v1/cluster/history`: the metric asked for
    /// (an error naming it is a 404).
    metric: Option<String>,
}

/// HTTP adapter, inbound: the operations a parsed HTTP request stands
/// for, in serving order, plus the view its answer renders through. The
/// last operation's reply is the HTTP response (a `/v1/attrs` body of N
/// pairs is N `SetAttr`s). `GET /v1/cluster/metrics` maps to no
/// operation: the control wire has no request for the federated scrape,
/// so the caller runs [`Daemon::federate_metrics`] instead.
///
/// # Errors
///
/// The 400 for a request that parsed as HTTP but names no valid
/// operation (a malformed trace id).
pub(crate) fn gw_request(
    req: GwRequest,
    exemplars: impl FnOnce() -> Vec<(String, String)>,
) -> Result<(Vec<CtrlRequest>, HttpView), GwReply> {
    let clamp = |limit: usize| u32::try_from(limit).unwrap_or(u32::MAX);
    let mut view = HttpView::default();
    let op = match req {
        GwRequest::Query { q } => CtrlRequest::Query { text: q },
        GwRequest::SetAttrs { attrs } => {
            view.attrs = attrs.len();
            let ops = attrs.into_iter().map(|(attr, v)| CtrlRequest::SetAttr {
                attr,
                value: parse_value(&v),
            });
            return Ok((ops.collect(), view));
        }
        GwRequest::Watch {
            q,
            policy,
            lease_ms,
        } => CtrlRequest::Watch {
            text: q,
            policy: match policy {
                WatchPolicy::OnChange => DeliveryPolicy::OnChange,
                WatchPolicy::PeriodMs(ms) => DeliveryPolicy::Periodic(SimDuration::from_millis(ms)),
                WatchPolicy::Threshold(value) => DeliveryPolicy::Threshold { value },
            },
            lease_us: lease_ms.saturating_mul(1_000),
        },
        GwRequest::Metrics => CtrlRequest::MetricsFetch,
        GwRequest::ClusterMetrics => return Ok((Vec::new(), view)),
        GwRequest::Health => CtrlRequest::Status,
        GwRequest::ClusterHealth => CtrlRequest::ClusterHealth,
        GwRequest::Alerts => {
            view.alerts_only = true;
            CtrlRequest::ClusterHealth
        }
        GwRequest::Traces { limit } => {
            view.exemplars = exemplars();
            let limit = clamp(limit);
            CtrlRequest::TraceList { limit }
        }
        GwRequest::Trace { id } => {
            let bad_id = || GwReply::Error {
                status: 400,
                msg: format!("bad trace id {id:?}"),
            };
            view.trace_id = moara_trace::parse_trace_id(&id).ok_or_else(bad_id)?;
            CtrlRequest::TraceGet {
                trace_id: view.trace_id,
            }
        }
        GwRequest::History { metric, range_s } => {
            view.metric = Some(metric.clone());
            CtrlRequest::HistoryFetch { metric, range_s }
        }
        GwRequest::ClusterHistory { metric, range_s } => {
            view.metric = Some(metric.clone());
            CtrlRequest::ClusterHistory { metric, range_s }
        }
        GwRequest::Events { kind, limit } => {
            let limit = clamp(limit);
            CtrlRequest::EventsFetch { kind, limit }
        }
    };
    Ok((vec![op], view))
}

/// HTTP adapter, outbound: renders a reply as what the gateway writes —
/// body through the `render` module, HTTP status chosen here.
pub(crate) fn gw_reply(view: &HttpView, reply: CtrlReply) -> GwReply {
    let json = |body| GwReply::Json { body };
    match reply {
        CtrlReply::Answer { result, complete } => GwReply::Answer {
            result,
            complete,
            cache: view.cache,
        },
        CtrlReply::Ok => GwReply::AttrsSet { count: view.attrs },
        // `/healthz` shows the liveness core of the status report.
        CtrlReply::Status {
            node,
            members,
            alive,
            ..
        } => GwReply::Health {
            node,
            members,
            alive,
        },
        CtrlReply::Update {
            result,
            initial,
            complete,
        } => GwReply::Update {
            result,
            initial,
            complete,
        },
        CtrlReply::MetricsText(text) => GwReply::Metrics { text },
        CtrlReply::Trace { spans, missing } => {
            json(render::trace_json(view.trace_id, &spans, &missing))
        }
        CtrlReply::Traces(ts) => json(render::traces_json(&ts, &view.exemplars)),
        CtrlReply::ClusterHealth { node, alerts, .. } if view.alerts_only => {
            json(render::alerts_json(node, &alerts))
        }
        CtrlReply::ClusterHealth { node, rows, alerts } => {
            json(render::cluster_health_json(node, &rows, &alerts))
        }
        CtrlReply::History {
            node,
            res_s,
            points,
        } => {
            let metric = view.metric.as_deref().unwrap_or_default();
            json(render::history_json(node, metric, res_s, &points))
        }
        CtrlReply::ClusterHistory {
            metric,
            res_s,
            series,
            missing,
        } => json(render::cluster_history_json(
            view.node, &metric, res_s, &series, &missing,
        )),
        CtrlReply::Events(events) => json(render::events_json(view.node, &events)),
        // The history reads fail one way only: the metric does not exist.
        CtrlReply::Error(msg) => GwReply::Error {
            status: if view.metric.is_some() { 404 } else { 400 },
            msg,
        },
        // Answers to `Join` and the peer-only leaf fetches, which no
        // route maps to.
        other @ (CtrlReply::Joined { .. } | CtrlReply::Spans(_)) => GwReply::Error {
            status: 500,
            msg: format!("no HTTP rendering for {other:?}"),
        },
    }
}

/// One tree walk in flight: everyone waiting on it, what the result
/// cache needs to fold its answer back in, and what the slow-query log
/// says about it. A control-port query is a walk with one waiter and no
/// cache key; HTTP queries on a caching daemon share walks
/// (single-flight).
pub(crate) struct Walk {
    waiters: Vec<ReplyTo>,
    /// The normalized cache key, when the cache tracks this query.
    cache_key: Option<String>,
    /// The key's standing-result generation when the walk started; the
    /// walk revalidates the entry only if it is unchanged on finish.
    cache_gen: Option<u64>,
    text: String,
    submitted: Instant,
    /// The walk's trace id, when tracing sampled it.
    trace_id: Option<u64>,
}

/// What a gather makes of its members' answers (by node) and of the
/// members missing: the reply its waiter gets.
type Finish = Box<dyn FnOnce(Vec<(u32, CtrlReply)>, Vec<u32>) -> CtrlReply>;

/// One cluster-wide read waiting on its peers, filed by ask id.
pub(crate) struct Gather {
    to: ReplyTo,
    deadline: Instant,
    /// Members confirmed dead when it started; the peers still silent
    /// join them when it finishes.
    missing: Vec<u32>,
    /// Peers asked that have not answered, in member order.
    waiting: Vec<u32>,
    /// Those of `waiting` the transport has given up on.
    lost: Vec<u32>,
    /// This daemon's own, then the peers' as they come.
    answers: Vec<(u32, CtrlReply)>,
    finish: Finish,
}

impl Daemon {
    /// Drains control-port jobs into [`Daemon::serve`].
    pub(crate) fn drain_ctrl(&mut self) -> usize {
        let mut jobs = 0;
        while let Ok(job) = self.ctrl_rx.try_recv() {
            jobs += 1;
            self.serve(job.req, ReplyTo::Ctrl(job.reply));
        }
        jobs
    }

    /// Drains HTTP gateway jobs into [`Daemon::serve`]. The batch is
    /// taken first, so a flood of requests cannot hold the loop here:
    /// what arrives while it is served waits for the next step.
    pub(crate) fn drain_gateway(&mut self) -> usize {
        let jobs: Vec<GwJob> = match &self.gw_rx {
            Some(rx) => rx.try_iter().collect(),
            None => return 0,
        };
        let count = jobs.len();
        // The reactor bumped the queue-depth gauge on submit; this drain
        // is the matching decrement.
        if let Some(gw) = self.gw_handle.as_ref().filter(|_| count > 0) {
            let queued = &gw.stats().queued_jobs;
            queued.fetch_sub(count as i64, std::sync::atomic::Ordering::Relaxed);
        }
        for job in jobs {
            match gw_request(job.req, || self.exemplar_entries()) {
                Ok((mut ops, mut view)) => {
                    view.node = self.me.0;
                    let to = ReplyTo::Http(job.reply, view);
                    let Some(last) = ops.pop() else {
                        self.federate_metrics(to);
                        continue;
                    };
                    for op in ops {
                        // Nobody listens for these: the send fails,
                        // which `serve` ignores.
                        self.serve(op, ReplyTo::Ctrl(std::sync::mpsc::channel().0));
                    }
                    self.serve(last, to);
                }
                Err(reply) => {
                    let _ = job.reply.send(reply);
                }
            }
        }
        count
    }

    /// Serves one operation. Most answer on the spot; walks, watches and
    /// gathers park `to` and answer when their result exists.
    pub(crate) fn serve(&mut self, op: CtrlRequest, to: ReplyTo) {
        let me = self.me;
        let reply = match op {
            CtrlRequest::Join { addr, prev_node } => self.handle_join(addr, prev_node),
            CtrlRequest::Query { text } => match parse_query(&text) {
                // Its walk starts with the next turn: at the end of this
                // step when one is due (`start_queued_walks`).
                Ok(query) => {
                    self.walk_pacer.queued.push((text, query, to));
                    return;
                }
                Err(e) => CtrlReply::Error(format!("parse error: {e}")),
            },
            CtrlRequest::SetAttr { attr, value } => {
                self.with_moara(|moara, ctx| {
                    moara.store.set(attr.as_str(), value);
                    moara.on_local_change(ctx, &attr);
                });
                CtrlReply::Ok
            }
            CtrlRequest::Watch {
                text,
                policy,
                lease_us,
            } => match parse_query(&text) {
                Ok(query) => {
                    let lease = SimDuration::from_micros(lease_us.max(1_000_000));
                    let wid =
                        self.with_moara(|moara, ctx| moara.subscribe(ctx, query, policy, lease));
                    self.recorder
                        .record_event(kind::SUB_INSTALL, format!("wid={wid} q={text}"));
                    self.watches.insert(wid, to);
                    return;
                }
                Err(e) => CtrlReply::Error(format!("parse error: {e}")),
            },
            CtrlRequest::Status => {
                let moara = &self.transport.node(me).moara;
                let dead = self.members.iter().filter(|m| !m.alive);
                CtrlReply::Status {
                    node: me.0,
                    members: self.members.len() as u32,
                    alive: self.alive_member_count() as u32,
                    dead: dead.map(|m| m.node).collect(),
                    watches: moara.active_watches() as u32,
                    sub_entries: moara.sub_entry_count() as u32,
                    metrics: self.metrics_snapshot(),
                    exemplars: self.exemplar_entries(),
                }
            }
            op @ (CtrlRequest::TraceFetch { .. }
            | CtrlRequest::MetricsFetch
            | CtrlRequest::HistoryFetch { .. }) => self.leaf_read(op),
            CtrlRequest::TraceGet { trace_id } => {
                let leaf = CtrlRequest::TraceFetch { trace_id };
                self.gather(leaf, to, |answers, missing| {
                    let mut spans = Vec::new();
                    for (_, answer) in answers {
                        if let CtrlReply::Spans(theirs) = answer {
                            spans.extend(theirs);
                        }
                    }
                    spans.sort_by_key(|s| (s.start_us, s.span_id));
                    CtrlReply::Trace { spans, missing }
                });
                return;
            }
            CtrlRequest::TraceList { limit } => {
                let tracer = self.tracer.as_ref();
                CtrlReply::Traces(tracer.map(|t| t.recent(limit as usize)).unwrap_or_default())
            }
            CtrlRequest::ClusterHealth => CtrlReply::ClusterHealth {
                node: me.0,
                rows: self.health_rows(),
                alerts: self.alert_engine.firing(Instant::now()),
            },
            CtrlRequest::ClusterHistory { metric, range_s } => {
                let leaf = CtrlRequest::HistoryFetch {
                    metric: metric.clone(),
                    range_s,
                };
                self.gather(leaf, to, |answers, missing| {
                    let (mut res, mut series) = (0, Vec::new());
                    for (node, answer) in answers {
                        if let CtrlReply::History { res_s, points, .. } = answer {
                            res = res_s;
                            series.push((node, points));
                        }
                    }
                    series.sort_by_key(|(n, _)| *n);
                    CtrlReply::ClusterHistory {
                        metric,
                        res_s: res,
                        series,
                        missing,
                    }
                });
                return;
            }
            CtrlRequest::EventsFetch { kind, limit } => {
                let journal = &self.recorder.journal;
                CtrlReply::Events(journal.snapshot(kind.as_deref(), limit as usize))
            }
        };
        let _ = to.send(reply);
    }

    /// The reads a peer may ask of this daemon — its own spans, scrape
    /// and history — answered as the control port answers them. Anything
    /// else is refused: a peer may read this daemon, never drive it.
    fn leaf_read(&self, op: CtrlRequest) -> CtrlReply {
        match op {
            CtrlRequest::TraceFetch { trace_id } => {
                let tracer = self.tracer.as_ref();
                CtrlReply::Spans(tracer.map(|t| t.spans_for(trace_id)).unwrap_or_default())
            }
            CtrlRequest::MetricsFetch => CtrlReply::MetricsText(self.render_metrics()),
            CtrlRequest::HistoryFetch { metric, range_s } => {
                match self.local_history(&metric, range_s) {
                    Some((res_s, points)) => CtrlReply::History {
                        node: self.me.0,
                        res_s,
                        points,
                    },
                    None => CtrlReply::Error(format!("unknown metric `{metric}`")),
                }
            }
            other => CtrlReply::Error(format!("not a peer read: {other:?}")),
        }
    }

    /// The scatter-gather behind every cluster-wide operation: reads
    /// `leaf` here, asks it of each other alive member over the peer
    /// plane — one dispatch, so one write per peer — and parks `to` under
    /// one [`GATHER_TIMEOUT`] deadline. `finish` gets the answers by
    /// member, this daemon's first, plus the members missing, and `to`
    /// what it makes of them. Peers that do not answer in time — stopped,
    /// partitioned, crashed between detection rounds — count as missing
    /// instead of hanging the request; so do members already confirmed
    /// dead (their state is gone, and a result cut by a crash must not
    /// read as complete). A leaf refused here (an unknown metric: every
    /// member has the same keys) is refused to `to`, asked of nobody.
    fn gather(
        &mut self,
        leaf: CtrlRequest,
        to: ReplyTo,
        finish: impl FnOnce(Vec<(u32, CtrlReply)>, Vec<u32>) -> CtrlReply + 'static,
    ) {
        let local = self.leaf_read(leaf.clone());
        if let CtrlReply::Error(_) = local {
            let _ = to.send(local);
            return;
        }
        let answers = vec![(self.me.0, local)];
        let others = || self.members.iter().filter(|m| m.node != self.me.0);
        let waiting: Vec<u32> = others().filter(|m| m.alive).map(|m| m.node).collect();
        let missing: Vec<u32> = others().filter(|m| !m.alive).map(|m| m.node).collect();
        if waiting.is_empty() {
            let _ = to.send(finish(answers, missing));
            return;
        }
        self.last_ask += 1;
        let id = self.last_ask;
        self.transport.with_node(self.me, |_, ctx| {
            for &node in &waiting {
                ctx.send(NodeId(node), DaemonMsg::Ask(id, leaf.clone()));
            }
        });
        let gather = Gather {
            to,
            deadline: Instant::now() + GATHER_TIMEOUT,
            missing,
            waiting,
            lost: Vec::new(),
            answers,
            finish: Box::new(finish),
        };
        self.gathers.insert(id, gather);
    }

    /// Answers a cluster-metrics federation: every member's exposition,
    /// merged under per-member `instance` labels. Missing members surface
    /// in the `moara_federation_missing` series instead of hanging the
    /// scrape.
    fn federate_metrics(&mut self, to: ReplyTo) {
        self.gather(CtrlRequest::MetricsFetch, to, |answers, missing| {
            let instance = |node: u32| format!("n{node}");
            let answered = answers
                .into_iter()
                .filter_map(|(node, answer)| match answer {
                    CtrlReply::MetricsText(text) => Some((instance(node), Some(text))),
                    _ => None,
                });
            let silent = missing.into_iter().map(|node| (instance(node), None));
            let parts: Vec<_> = answered.chain(silent).collect();
            CtrlReply::MetricsText(moara_gateway::federate_expositions(&parts))
        });
    }

    /// Federation's turn in a step. Every peer's ask is answered, in one
    /// dispatch (one write per asking peer); every answer is filed under
    /// its gather (an answer to a finished one is dropped); peers the
    /// transport gave up on (`undeliverable`) are waited for no more; and
    /// each gather with nobody left to wait for, or past its deadline,
    /// finishes.
    pub(crate) fn pump_gathers(&mut self, undeliverable: &[(NodeId, NodeId)]) -> bool {
        let inbox = std::mem::take(&mut self.transport.node_mut(self.me).federation);
        let mut told = Vec::new();
        for (from, msg) in inbox {
            match msg {
                DaemonMsg::Ask(id, op) => {
                    told.push((from, DaemonMsg::Told(id, self.leaf_read(op))))
                }
                DaemonMsg::Told(id, answer) => {
                    let gather = self.gathers.get_mut(&id);
                    if let Some(g) = gather.filter(|g| g.waiting.contains(&from)) {
                        g.waiting.retain(|&n| n != from);
                        g.answers.push((from, answer));
                    }
                }
                _ => {}
            }
        }
        let did = !told.is_empty();
        if did {
            self.transport.with_node(self.me, |_, ctx| {
                for (to, msg) in told {
                    ctx.send(NodeId(to), msg);
                }
            });
        }
        for g in self.gathers.values_mut() {
            let lost = undeliverable.iter().map(|(_, to)| to.0);
            g.lost.extend(lost.filter(|n| g.waiting.contains(n)));
        }
        let now = Instant::now();
        let done: Vec<u64> = self
            .gathers
            .iter()
            .filter(|(_, g)| now >= g.deadline || g.waiting.iter().all(|n| g.lost.contains(n)))
            .map(|(&id, _)| id)
            .collect();
        for id in &done {
            let mut g = self.gathers.remove(id).expect("listed above");
            g.answers[1..].sort_by_key(|(node, _)| *node);
            g.missing.extend(g.waiting);
            let _ = g.to.send((g.finish)(g.answers, g.missing));
        }
        did || !done.is_empty()
    }

    /// How long the loop may sleep before the next gather's deadline;
    /// `None` when no gather waits.
    pub(crate) fn gather_wait(&self) -> Option<Duration> {
        let deadline = self.gathers.values().map(|g| g.deadline).min()?;
        Some(deadline.saturating_duration_since(Instant::now()))
    }

    /// How long the loop may sleep before the next turn is due; `None`
    /// when no query waits for one.
    pub(crate) fn queued_walk_wait(&self) -> Option<Duration> {
        let pacer = &self.walk_pacer;
        (!pacer.queued.is_empty()).then(|| pacer.wait(Instant::now()))
    }

    /// Takes a turn when one is due and a query waits: every waiting
    /// query starts its walk — or, on a caching daemon, joins the
    /// identical query already walking — in arrival order. The whole turn
    /// is one transport dispatch, so however many walks it starts, each
    /// peer they reach gets one `write`.
    pub(crate) fn start_queued_walks(&mut self) -> bool {
        let pacer = &mut self.walk_pacer;
        if pacer.queued.is_empty() || !pacer.try_turn(Instant::now()) {
            return false;
        }
        let queued = std::mem::take(&mut pacer.queued);
        let (walks, inflight) = (&mut self.walks, &mut self.gw_inflight);
        let query_cache = self.query_cache.as_deref();
        self.transport.with_node(self.me, |n, ctx| {
            let ctx = &mut moara_ctx(ctx);
            for (text, query, to) in queued {
                // Single-flight and the result cache both key on the
                // normalized text — computed only for the queries that
                // use them (HTTP ones, on a caching daemon).
                let http = matches!(to, ReplyTo::Http(..));
                let cache = query_cache.filter(|_| http);
                let key = cache.map(|_| moara_gateway::normalize(&text));
                if let Some((cache, key)) = cache.zip(key.as_ref()) {
                    // An identical query already walking the tree absorbs
                    // this request as another waiter — N identical
                    // in-flight queries cost one walk.
                    if let Some(walk) = inflight.get(key).and_then(|fid| walks.get_mut(fid)) {
                        walk.waiters.push(to.marked("coalesced"));
                        cache.note_coalesced();
                        continue;
                    }
                }
                let fid = n.moara.submit(ctx, query);
                let (to, cache_gen) = match (&key, cache) {
                    (Some(key), Some(cache)) => {
                        inflight.insert(key.clone(), fid);
                        (to.marked("miss"), cache.gen_of(key))
                    }
                    _ => (to, None),
                };
                let walk = Walk {
                    waiters: vec![to],
                    cache_key: key,
                    cache_gen,
                    text,
                    submitted: Instant::now(),
                    trace_id: n.moara.front_trace_id(fid),
                };
                walks.insert(fid, walk);
            }
        });
        true
    }

    /// Answers every walk whose outcome landed: its waiters, the
    /// slow-query log, and the result cache.
    pub(crate) fn finish_queries(&mut self) -> bool {
        if self.walks.is_empty() {
            return false;
        }
        let moara = &mut self.transport.node_mut(self.me).moara;
        let done: Vec<(u64, QueryOutcome)> = self
            .walks
            .keys()
            .filter_map(|&fid| Some((fid, moara.take_outcome(fid)?)))
            .collect();
        for (fid, outcome) in &done {
            let walk = self.walks.remove(fid).expect("listed above");
            let elapsed = walk.submitted.elapsed();
            let dur_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
            if self
                .slow_query_ms
                .is_some_and(|ms| elapsed.as_millis() as u64 >= ms)
            {
                self.slow_queries_total += 1;
                let (text, complete) = (&walk.text, outcome.complete);
                let line = render::slow_query_line(
                    self.me.0,
                    text,
                    dur_us,
                    complete,
                    walk.trace_id,
                    now_unix_ms(),
                );
                eprintln!("{line}");
                self.recorder
                    .record_event(kind::SLOW_QUERY, format!("duration_us={dur_us} q={text}"));
            }
            // Gateway latency exemplar: the most recent sampled trace
            // per latency bucket, measured as submit → outcome on this
            // loop (the HTTP parse/write tail is not included — the
            // reactor shards never learn trace ids, so this daemon-side
            // view is the linkable one).
            if let (Some(tid), Some(ReplyTo::Http(..))) = (walk.trace_id, walk.waiters.first()) {
                self.gw_latency_exemplars.observe_traced(dur_us, tid);
            }
            let result = outcome.result.to_string();
            for to in walk.waiters {
                let _ = to.send(CtrlReply::Answer {
                    result: result.clone(),
                    complete: outcome.complete,
                });
            }
            if let Some(key) = walk.cache_key {
                // A newer identical query may have re-registered the
                // key; only clear the registry if it is still ours.
                if self.gw_inflight.get(&key) == Some(fid) {
                    self.gw_inflight.remove(&key);
                }
                // A stale promoted entry is refreshed by the walk's
                // answer — unless a SubUpdate landed mid-walk (gen
                // moved), in which case the standing result wins.
                if let (Some(cache), Some(gen)) = (&self.query_cache, walk.cache_gen) {
                    cache.revalidate(&key, gen, &result, outcome.complete);
                }
            }
        }
        !done.is_empty()
    }

    /// Streams pending subscription updates to their watchers; a
    /// hung-up watcher's subscription is cancelled (its standing state
    /// then tears down along the trees). Quiescent streams are
    /// liveness-probed every [`WATCH_KEEPALIVE_EVERY`] so a silent
    /// hang-up cannot hold a subscription alive through endless lease
    /// renewals.
    pub(crate) fn pump_watches(&mut self) -> bool {
        if self.watches.is_empty() {
            return false;
        }
        let probe = self.last_keepalive.elapsed() >= WATCH_KEEPALIVE_EVERY;
        if probe {
            self.last_keepalive = Instant::now();
        }
        let mut did = false;
        let mut gone: Vec<u64> = Vec::new();
        for (&wid, to) in &self.watches {
            let updates = self.transport.node_mut(self.me).moara.take_sub_updates(wid);
            did |= !updates.is_empty();
            let delivered = updates.into_iter().all(|u| {
                let update = CtrlReply::Update {
                    result: u.result.to_string(),
                    initial: u.initial,
                    complete: u.complete,
                };
                to.send(update).is_ok()
            });
            if !delivered || (probe && to.keepalive().is_err()) {
                gone.push(wid);
            }
        }
        for wid in gone {
            self.watches.remove(&wid);
            self.unsubscribe(wid);
        }
        did
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A burst of turns at once, then one per gap — and the rate is exact
    /// however late each turn is taken: lateness is not carried.
    #[test]
    fn walk_pacer_spends_its_burst_then_holds_the_gap_exactly() {
        let t0 = Instant::now();
        let mut pacer = WalkPacer::new(t0);
        for _ in 0..WALK_BURST {
            assert!(pacer.try_turn(t0));
        }
        assert!(!pacer.try_turn(t0));
        assert_eq!(pacer.wait(t0), WALK_GAP);

        // A saturating client whose every turn is taken 60 µs late.
        let late = Duration::from_micros(60);
        let mut now = t0;
        for _ in 0..10_000 {
            now += pacer.wait(now) + late;
            assert!(pacer.try_turn(now));
        }
        assert_eq!(now - t0, WALK_GAP * 10_000 + late);

        // Idle refills the bucket to the burst and no further.
        now += Duration::from_secs(60);
        for _ in 0..WALK_BURST {
            assert!(pacer.try_turn(now));
        }
        assert!(!pacer.try_turn(now));
    }

    /// The history key set exists from boot, not from the first 1 Hz
    /// sample: a known metric with nothing recorded yet is an empty
    /// series, and this daemon's row in the cluster view, rather than an
    /// unknown name.
    #[test]
    fn history_knows_its_metrics_before_the_first_sample() {
        let any = "127.0.0.1:0".parse().unwrap();
        let mut d = Daemon::start(crate::DaemonOpts::new(any)).expect("daemon boots");
        let mut ask = |op: CtrlRequest| {
            let (tx, rx) = std::sync::mpsc::channel();
            d.serve(op, ReplyTo::Ctrl(tx));
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(CtrlOut::Reply(reply)) => reply,
                _ => panic!("no reply"),
            }
        };
        let (metric, range_s) = ("tick_p99_us".to_owned(), 60);
        let local = ask(CtrlRequest::HistoryFetch {
            metric: metric.clone(),
            range_s,
        });
        assert!(
            matches!(&local, CtrlReply::History { points, .. } if points.is_empty()),
            "{local:?}"
        );
        let cluster = ask(CtrlRequest::ClusterHistory { metric, range_s });
        assert!(
            matches!(&cluster, CtrlReply::ClusterHistory { series, missing, .. }
                if series == &[(0, vec![])] && missing.is_empty()),
            "{cluster:?}"
        );
        let metric = "tick_p99us".to_owned();
        let typo = ask(CtrlRequest::HistoryFetch { metric, range_s });
        assert!(matches!(typo, CtrlReply::Error(_)), "{typo:?}");
        // The cluster view knows the same keys: a typo is asked of no peer,
        // and its HTTP route answers 404 as `/v1/history` does.
        let metric = "tick_p99us".to_owned();
        let req = GwRequest::ClusterHistory { metric, range_s };
        let (mut ops, view) = gw_request(req, Vec::new).expect("a valid route");
        let typo = ask(ops.pop().expect("one operation"));
        assert!(matches!(typo, CtrlReply::Error(_)), "{typo:?}");
        let status = match gw_reply(&view, typo) {
            GwReply::Error { status, .. } => status,
            other => panic!("{other:?}"),
        };
        assert_eq!(status, 404);
    }

    /// A peer may read this daemon, never drive it: an `Ask` for anything
    /// but the three leaf reads is answered with an error and changes
    /// nothing.
    #[test]
    fn a_peer_ask_for_a_non_leaf_operation_is_refused() {
        let any = "127.0.0.1:0".parse().unwrap();
        let mut d = Daemon::start(crate::DaemonOpts::new(any)).expect("daemon boots");
        let set = || CtrlRequest::SetAttr {
            attr: "ServiceX".into(),
            value: moara_attributes::Value::Bool(true),
        };
        let reply = d.leaf_read(set());
        assert!(
            matches!(&reply, CtrlReply::Error(e) if e.contains("SetAttr")),
            "{reply:?}"
        );
        // Through the loop's own path: answered (to a peer that is gone),
        // and the attribute never set.
        let node = d.transport.node_mut(d.me);
        node.federation.push((9, DaemonMsg::Ask(1, set())));
        assert!(d.pump_gathers(&[]));
        assert_eq!(d.transport.take_undeliverable(), [(d.me, NodeId(9))]);
        let store = &d.transport.node(d.me).moara.store;
        assert_eq!(store.get("ServiceX"), None);
    }
}
