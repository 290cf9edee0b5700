//! The daemon's one request path. Whichever port an operation arrived
//! on, it is a [`CtrlRequest`] that [`Daemon::serve`] answers into a
//! [`ReplyTo`]. Both ports are sockets this loop hosts ([`Ports`]): the
//! control port hands requests over and writes [`CtrlReply`]s back
//! verbatim, the HTTP port goes through two pure functions —
//! [`gw_request`] (parsed HTTP request → operation) and [`gw_reply`]
//! (reply → HTTP body and status). Tree walks in flight, standing
//! watches, and the cluster-wide scatter-gathers each have one table
//! here, shared by both ports.

use std::time::{Duration, Instant};

use moara_core::{DeliveryPolicy, QueryOutcome};
use moara_gateway::{GwReply, GwRequest, LoopEdge, SinkClosed, WatchPolicy};
use moara_query::parse_query;
use moara_simnet::{NodeId, SimDuration};
use moara_transport::Transport;

use crate::ctrl::{CtrlEvent, CtrlPort, CtrlReply, CtrlRequest};
use crate::node::moara_ctx;
use crate::recorder::{kind, now_unix_ms};
use crate::{health, parse_value, render, Daemon, DaemonMsg};

/// How long a scatter-gather waits for its peers before reporting the
/// silent ones missing: one deadline for the whole fan-out, however many
/// peers are stuck (bounds the cluster-wide operations under partitions
/// instead of hanging them).
pub const GATHER_TIMEOUT: Duration = Duration::from_secs(2);

/// The client sockets this loop hosts: the control port, and the HTTP
/// connections that moved here from the gateway's shards. Each is `None`
/// once shut down (HTTP: or never enabled).
pub(crate) struct Ports {
    pub(crate) ctrl: Option<CtrlPort>,
    pub(crate) http: Option<LoopEdge>,
}

/// Where an operation's replies go: down a control connection as they
/// are, or rendered as HTTP onto one of this loop's connections.
pub(crate) enum ReplyTo {
    /// One of the control port's connections.
    Ctrl(u64),
    /// One of the loop's HTTP connections, and what [`gw_reply`] renders.
    Http(u64, HttpView),
}

impl ReplyTo {
    /// Delivers one reply, written now; `Err` means the receiving side
    /// hung up (for a watch: cancel the subscription).
    fn send(&self, ports: &mut Ports, reply: CtrlReply) -> Result<(), SinkClosed> {
        match self {
            ReplyTo::Ctrl(conn) => ports.ctrl.as_mut().ok_or(SinkClosed)?.reply(*conn, &reply),
            ReplyTo::Http(conn, view) => write(&mut ports.http, *conn, gw_reply(view, reply)),
        }
    }

    /// Liveness-probes a quiescent watch stream: a control connection's
    /// hang-up is seen by the port itself, an SSE stream renders the
    /// probe as `: keepalive`.
    fn keepalive(&self, ports: &mut Ports) -> Result<(), SinkClosed> {
        match self {
            ReplyTo::Ctrl(conn) => match &ports.ctrl {
                Some(port) if port.is_open(*conn) => Ok(()),
                _ => Err(SinkClosed),
            },
            ReplyTo::Http(conn, _) => write(&mut ports.http, *conn, GwReply::Keepalive),
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

/// Writes `reply` to connection `conn` of the loop's.
fn write(http: &mut Option<LoopEdge>, conn: u64, reply: GwReply) -> Result<(), SinkClosed> {
    http.as_mut().ok_or(SinkClosed)?.write(conn, reply)
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
        GwRequest::Alerts => CtrlRequest::HealthFetch,
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
        CtrlReply::Health { firing, .. } => json(render::alerts_json(view.node, &firing)),
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
    pub(crate) deadline: Instant,
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
    /// The control port's turn in a step ([`CtrlPort::turn`], which does
    /// nothing on a step whose pump did not see its fd ready): serves
    /// every request that came in, and cancels the watch of a connection
    /// that hung up mid-stream there and then. Returns how many requests
    /// it served.
    pub(crate) fn pump_ctrl(&mut self) -> usize {
        let Some(port) = self.ports.ctrl.as_mut() else {
            return 0;
        };
        let mut served = 0;
        for event in port.turn(self.transport.host_ready(port.fd()), self.now) {
            match event {
                CtrlEvent::Request(conn, req) => {
                    served += 1;
                    self.serve(req, ReplyTo::Ctrl(conn));
                }
                CtrlEvent::Closed(conn) => {
                    let watching = |to: &ReplyTo| matches!(to, ReplyTo::Ctrl(c) if *c == conn);
                    let wid = self.watches.iter().find(|(_, to)| watching(to));
                    self.drop_watches(wid.map(|(&wid, _)| wid));
                }
            }
        }
        served
    }

    /// The HTTP connections' turn in a step ([`LoopEdge::pump`], which
    /// does nothing on a step without work for it): serves every request
    /// for the daemon. Returns how many it served.
    pub(crate) fn pump_http(&mut self) -> usize {
        let Some(edge) = self.ports.http.as_mut() else {
            return 0;
        };
        let ready = self.transport.host_ready(edge.fd());
        let mut asks = Vec::new();
        edge.pump(ready, self.now, |conn, req| asks.push((conn, req)));
        let count = asks.len();
        for (conn, req) in asks {
            match gw_request(req, || self.exemplar_entries()) {
                Ok((mut ops, mut view)) => {
                    view.node = self.me.0;
                    let to = ReplyTo::Http(conn, view);
                    let Some(last) = ops.pop() else {
                        self.federate_metrics(to);
                        continue;
                    };
                    // A `/v1/attrs` body's pairs: the last one answers.
                    for op in ops {
                        if let CtrlRequest::SetAttr { attr, value } = op {
                            self.set_attr(attr, value);
                        }
                    }
                    self.serve(last, to);
                }
                Err(reply) => {
                    let _ = write(&mut self.ports.http, conn, reply);
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
                // Its walk starts at the end of this step, with every
                // other query parsed in it (`start_queued_walks`).
                Ok(query) => {
                    self.queued_walks.push((text, query, to));
                    return;
                }
                Err(e) => CtrlReply::Error(format!("parse error: {e}")),
            },
            CtrlRequest::SetAttr { attr, value } => {
                self.set_attr(attr, value);
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
            | CtrlRequest::HistoryFetch { .. }
            | CtrlRequest::HealthFetch) => self.leaf_read(op),
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
            CtrlRequest::ClusterHealth => {
                let members = self.members.clone();
                self.gather(CtrlRequest::HealthFetch, to, move |answers, _| {
                    health::cluster_health(me.0, &members, answers)
                });
                return;
            }
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
        let _ = to.send(&mut self.ports, reply);
    }

    /// Sets one local attribute and lets the engine react to the change.
    fn set_attr(&mut self, attr: String, value: moara_attributes::Value) {
        self.with_moara(|moara, ctx| {
            moara.store.set(attr.as_str(), value);
            moara.on_local_change(ctx, &attr);
        });
    }

    /// The reads a peer may ask of this daemon — its own spans, scrape,
    /// history and health — answered as the control port answers them.
    /// Anything else is refused: a peer may read this daemon, never
    /// drive it.
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
            CtrlRequest::HealthFetch => CtrlReply::Health {
                sample: (self.health_sample().into_iter())
                    .map(|(key, value)| (key.to_owned(), value))
                    .collect(),
                firing: self.alert_engine.firing(self.now),
            },
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
            let _ = to.send(&mut self.ports, local);
            return;
        }
        let answers = vec![(self.me.0, local)];
        let others = || self.members.iter().filter(|m| m.node != self.me.0);
        let waiting: Vec<u32> = others().filter(|m| m.alive).map(|m| m.node).collect();
        let missing: Vec<u32> = others().filter(|m| !m.alive).map(|m| m.node).collect();
        if waiting.is_empty() {
            let _ = to.send(&mut self.ports, finish(answers, missing));
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
            deadline: self.now + GATHER_TIMEOUT,
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
        let now = self.now;
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
            let reply = (g.finish)(g.answers, g.missing);
            let _ = g.to.send(&mut self.ports, reply);
        }
        did || !done.is_empty()
    }

    /// Starts every query parsed this step — or, on a caching daemon,
    /// joins it to the identical query already walking — in arrival
    /// order. The whole batch is one transport dispatch, so however many
    /// walks it starts, each peer they reach gets one `write`.
    pub(crate) fn start_queued_walks(&mut self) -> bool {
        if self.queued_walks.is_empty() {
            return false;
        }
        let queued = std::mem::take(&mut self.queued_walks);
        let (walks, inflight) = (&mut self.walks, &mut self.gw_inflight);
        let (query_cache, now) = (self.query_cache.as_deref(), self.now);
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
                    submitted: now,
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
            let elapsed = self.now.saturating_duration_since(walk.submitted);
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
                let answer = CtrlReply::Answer {
                    result: result.clone(),
                    complete: outcome.complete,
                };
                let _ = to.send(&mut self.ports, answer);
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

    /// Hands each update the engine queued since the last step to its
    /// reader, in one pass over the engine's dirty-watch hints: a client
    /// watch streams it, a cache-promoted one folds it into its entry
    /// (`on_update` ignores tokens the cache does not hold). A hung-up
    /// watcher's subscription is cancelled (its standing state then
    /// tears down along the trees).
    pub(crate) fn pump_watches(&mut self) -> bool {
        let moara = &mut self.transport.node_mut(self.me).moara;
        let mut did = false;
        let mut gone: Vec<u64> = Vec::new();
        for wid in moara.take_dirty_watches() {
            let updates = moara.take_sub_updates(wid);
            did |= !updates.is_empty();
            if let Some(to) = self.watches.get(&wid) {
                let delivered = updates.into_iter().all(|u| {
                    let update = CtrlReply::Update {
                        result: u.result.to_string(),
                        initial: u.initial,
                        complete: u.complete,
                    };
                    to.send(&mut self.ports, update).is_ok()
                });
                if !delivered {
                    gone.push(wid);
                }
            } else if let Some(cache) = &self.query_cache {
                for u in updates {
                    cache.on_update(wid, u.result.to_string(), u.complete);
                }
            }
        }
        self.drop_watches(gone);
        did
    }

    /// The tick's liveness probe of every client watch stream: a
    /// quiescent watch sends nothing, so without it a silent hang-up
    /// would hold its subscription alive through endless lease renewals.
    pub(crate) fn probe_watches(&mut self) {
        let ports = &mut self.ports;
        let gone: Vec<u64> = (self.watches.iter())
            .filter(|(_, to)| to.keepalive(ports).is_err())
            .map(|(&wid, _)| wid)
            .collect();
        self.drop_watches(gone);
    }

    /// Cancels the subscriptions of watches whose watcher hung up.
    fn drop_watches(&mut self, gone: impl IntoIterator<Item = u64>) {
        for wid in gone {
            if self.watches.remove(&wid).is_some() {
                self.unsubscribe(wid);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moara_wire::{read_frame, Wire};
    use std::net::TcpStream;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// A client on `d`'s control port, once the port holds its
    /// connection: the daemon's first, id 1. The steps that take it in
    /// leave the loop's clock where it was.
    fn ctrl_client(d: &mut Daemon) -> TcpStream {
        let client = TcpStream::connect(d.ctrl_addr()).expect("connect control port");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !d.ports.ctrl.as_ref().is_some_and(|port| port.is_open(1)) {
            assert!(
                Instant::now() < deadline,
                "the port never took the connection"
            );
            d.step_at(Duration::from_millis(1), d.now);
        }
        client
    }

    /// The next reply on `client`'s connection.
    fn read_reply(client: &mut TcpStream) -> CtrlReply {
        let frame = read_frame(client).expect("a reply frame").expect("open");
        CtrlReply::from_bytes(&frame).expect("a reply")
    }

    /// Every query a step parses starts at the end of that step, in the
    /// one dispatch `start_queued_walks` makes: distinct texts each walk,
    /// and identical HTTP texts on a caching daemon become one walk with
    /// one `miss` and the rest `coalesced` waiters.
    #[test]
    fn queries_parsed_in_a_step_start_in_its_one_dispatch() {
        const K: usize = 6;
        let any = "127.0.0.1:0".parse().unwrap();
        let opts = crate::DaemonOpts {
            http: Some(any),
            ..crate::DaemonOpts::new(any)
        };
        let mut d = Daemon::start(opts).expect("daemon boots");

        // K distinct control-port texts: queued as served, walking after
        // the one call. Connection 0 is none of the port's: the answers
        // are dropped.
        for i in 0..K {
            let text = format!("SELECT count(*) WHERE Load > {i}");
            d.serve(CtrlRequest::Query { text }, ReplyTo::Ctrl(0));
        }
        assert_eq!((d.queued_walks.len(), d.walks.len()), (K, 0));
        assert!(d.start_queued_walks());
        assert_eq!((d.queued_walks.len(), d.walks.len()), (0, K));
        assert!(!d.start_queued_walks(), "nothing left to start");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !d.walks.is_empty() {
            assert!(Instant::now() < deadline, "walks never finished");
            d.step(Duration::from_millis(1));
        }

        // K identical HTTP texts, all handed over before the loop steps.
        let http = d.http_addr().expect("gateway enabled");
        let mut conns: Vec<std::net::TcpStream> = (0..K)
            .map(|_| {
                let mut s = std::net::TcpStream::connect(http).expect("connect gateway");
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                std::io::Write::write_all(
                    &mut s,
                    b"GET /v1/query?q=SELECT%20count(*) HTTP/1.1\r\n\
                      Host: t\r\nConnection: close\r\n\r\n",
                )
                .unwrap();
                s
            })
            .collect();
        let queued = || {
            let stats = d.gateway_stats().expect("gateway");
            stats.queued_jobs.load(std::sync::atomic::Ordering::Relaxed)
        };
        while queued() < K as i64 {
            assert!(
                Instant::now() < deadline,
                "the reactor never handed over {K} jobs"
            );
            std::thread::yield_now();
        }
        assert_eq!(d.pump_http(), K);
        assert_eq!(d.queued_walks.len(), K);
        assert!(d.start_queued_walks());
        assert_eq!(d.walks.len(), 1, "one walk for one text");
        let walk = d.walks.values().next().expect("one walk");
        let markers: Vec<_> = (walk.waiters.iter())
            .map(|to| match to {
                ReplyTo::Http(_, view) => view.cache,
                ReplyTo::Ctrl(_) => None,
            })
            .collect();
        let mut want = vec![Some("miss")];
        want.resize(K, Some("coalesced"));
        assert_eq!(markers, want);
        while !d.walks.is_empty() {
            assert!(Instant::now() < deadline, "the walk never finished");
            d.step(Duration::from_millis(1));
        }
        let mut seen: Vec<String> = (conns.iter_mut())
            .map(|s| {
                let mut out = String::new();
                let _ = std::io::Read::read_to_string(s, &mut out);
                let head = out.split_once("\r\n\r\n").expect("http response").0;
                assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
                let cache = head.lines().find_map(|l| l.strip_prefix("X-Moara-Cache: "));
                cache.expect("a cache marker").to_owned()
            })
            .collect();
        seen.sort();
        let mut want = vec!["coalesced"; K - 1];
        want.push("miss");
        assert_eq!(seen, want);
        d.shutdown();
    }

    /// A daemon's step gives its HTTP edge a turn only when the edge has
    /// work: steps with no HTTP traffic take none, and a connection
    /// handed over at the door is answered by the steps it wakes.
    #[test]
    fn steps_without_http_work_give_the_edge_no_turn() {
        let any = "127.0.0.1:0".parse().unwrap();
        let opts = crate::DaemonOpts {
            http: Some(any),
            ..crate::DaemonOpts::new(any)
        };
        let mut d = Daemon::start(opts).expect("daemon boots");
        let turns = |d: &Daemon| d.ports.http.as_ref().expect("gateway").turns();
        for _ in 0..200 {
            d.step(Duration::ZERO);
        }
        assert_eq!(turns(&d), 0);

        let http = d.http_addr().expect("gateway enabled");
        let mut s = std::net::TcpStream::connect(http).expect("connect gateway");
        s.set_nonblocking(true).unwrap();
        std::io::Write::write_all(
            &mut s,
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        let (mut out, mut buf) = (Vec::new(), [0u8; 512]);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            assert!(Instant::now() < deadline, "no answer: {out:?}");
            d.step(Duration::from_millis(5));
            match std::io::Read::read(&mut s, &mut buf) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
            }
        }
        assert!(out.starts_with(b"HTTP/1.1 200 "), "{out:?}");
        assert!(turns(&d) >= 1);
        // Answered and closed: the edge hosts nothing, and idles again.
        let after = turns(&d);
        for _ in 0..200 {
            d.step(Duration::ZERO);
        }
        assert_eq!(turns(&d), after);
        d.shutdown();
    }

    /// The history key set exists from boot, not from the first 1 Hz
    /// sample: a known metric with nothing recorded yet is an empty
    /// series, and this daemon's row in the cluster view, rather than an
    /// unknown name.
    #[test]
    fn history_knows_its_metrics_before_the_first_sample() {
        let any = "127.0.0.1:0".parse().unwrap();
        let mut d = Daemon::start(crate::DaemonOpts::new(any)).expect("daemon boots");
        let mut client = ctrl_client(&mut d);
        let mut ask = |op: CtrlRequest| {
            d.serve(op, ReplyTo::Ctrl(1));
            read_reply(&mut client)
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

    /// `/v1/alerts` is this daemon's own leaf read and asks no peer, while
    /// the health table asks every other alive member.
    #[test]
    fn alerts_read_the_local_leaf_and_ask_no_peer() {
        let any = "127.0.0.1:0".parse().unwrap();
        let mut d = Daemon::start(crate::DaemonOpts::new(any)).expect("daemon boots");
        let mut client = ctrl_client(&mut d);
        d.members.push(crate::Member {
            node: 1,
            ring_id: 7,
            addr: "127.0.0.1:1".into(),
            incarnation: 0,
            alive: true,
        });
        let (mut ops, view) = gw_request(GwRequest::Alerts, Vec::new).expect("a valid route");
        assert_eq!(ops, [CtrlRequest::HealthFetch]);
        let sent = d.transport.stats().total_messages();
        // Answered on the spot: on the socket before the loop steps again.
        d.serve(ops.pop().expect("one operation"), ReplyTo::Ctrl(1));
        let reply = read_reply(&mut client);
        assert!(d.gathers.is_empty());
        assert_eq!(d.transport.stats().total_messages(), sent);
        let body = match gw_reply(&view, reply) {
            GwReply::Json { body } => body,
            other => panic!("{other:?}"),
        };
        assert_eq!(body, "{\"node\":0,\"firing\":[]}\n");
        d.serve(CtrlRequest::ClusterHealth, ReplyTo::Ctrl(1));
        assert_eq!(d.gathers.len(), 1);
        assert_eq!(d.transport.stats().total_messages(), sent + 1);
    }

    /// A peer may read this daemon, never drive it: an `Ask` for anything
    /// but the four leaf reads is answered with an error and changes
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

    /// A member that takes the ask and never answers holds a gather until
    /// `GATHER_TIMEOUT` of the step's clock has passed, not a moment
    /// longer, and is then reported missing.
    #[test]
    fn a_gather_reports_a_silent_member_missing_at_its_deadline() {
        let any = "127.0.0.1:0".parse().unwrap();
        let mut d = Daemon::start(crate::DaemonOpts::new(any)).expect("daemon boots");
        let mut client = ctrl_client(&mut d);
        // The kernel accepts the connection for it; nobody reads.
        let silent = std::net::TcpListener::bind(any).unwrap();
        let addr = silent.local_addr().unwrap();
        d.members.push(crate::Member {
            node: 1,
            ring_id: 7,
            addr: addr.to_string(),
            incarnation: 0,
            alive: true,
        });
        d.transport.register_peer(NodeId(1), addr);
        let t0 = d.now;
        let (metric, range_s) = ("tick_p99_us".to_owned(), 60);
        d.serve(
            CtrlRequest::ClusterHistory { metric, range_s },
            ReplyTo::Ctrl(1),
        );
        for late in [0, 1_000, 1_999] {
            d.step_at(Duration::ZERO, t0 + Duration::from_millis(late));
            assert_eq!(d.gathers.len(), 1, "gave up after {late} ms");
        }
        d.step_at(Duration::ZERO, t0 + GATHER_TIMEOUT);
        assert!(d.gathers.is_empty());
        let reply = read_reply(&mut client);
        assert!(
            matches!(&reply, CtrlReply::ClusterHistory { series, missing, .. }
                if series == &[(0, vec![])] && missing == &[1]),
            "{reply:?}"
        );
    }

    /// The daemon's HTTP edge on the step's clock. With a 500 ms request
    /// deadline, a `/v1/cluster/history` waiting on a silent member, read
    /// on the loop at t1, has no 408 at t1 + 499 ms and has it at t1 +
    /// 600 ms, one sweep later. The gather still ends at its own
    /// `GATHER_TIMEOUT`, and its reply, for a connection gone, is dropped.
    #[test]
    fn the_edge_answers_408_on_the_steps_clock() {
        use std::io::{BufRead as _, BufReader, Read as _, Write as _};
        let ms = Duration::from_millis;
        let any = "127.0.0.1:0".parse().unwrap();
        let opts = crate::DaemonOpts {
            http: Some(any),
            gw_request_timeout_ms: 500,
            ..crate::DaemonOpts::new(any)
        };
        let mut d = Daemon::start(opts).expect("daemon boots");
        let silent = std::net::TcpListener::bind(any).unwrap();
        let addr = silent.local_addr().unwrap();
        d.members.push(crate::Member {
            node: 1,
            ring_id: 7,
            addr: addr.to_string(),
            incarnation: 0,
            alive: true,
        });
        d.transport.register_peer(NodeId(1), addr);
        let stats = Arc::clone(d.gateway_stats().expect("gateway enabled"));
        let mut client = TcpStream::connect(d.http_addr().expect("gateway enabled")).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());

        // A `/healthz` moves the connection to the loop, and the step that
        // takes it from the door answers it.
        let t0 = d.now;
        client.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let at_door = |stats: &moara_gateway::GatewayStats| {
            let (moved, queued) = (&stats.handovers, &stats.queued_jobs);
            moved.load(Ordering::Relaxed) == 0 || queued.load(Ordering::Relaxed) > 0
        };
        while at_door(&stats) {
            assert!(Instant::now() < deadline, "never handed over");
            d.step_at(ms(1), t0);
        }
        let mut health = String::new();
        while !health.ends_with("}\n") {
            assert!(reader.read_line(&mut health).unwrap() > 0, "{health}");
        }
        assert!(health.starts_with("HTTP/1.1 200 "), "{health}");

        // Read on the loop at t1: the gather asks the silent member.
        let t1 = t0 + ms(200);
        let history = "GET /v1/cluster/history?metric=tick_p99_us HTTP/1.1\r\n\r\n";
        client.write_all(history.as_bytes()).unwrap();
        while d.gathers.is_empty() {
            assert!(Instant::now() < deadline, "the read never asked");
            d.step_at(ms(1), t1);
        }
        let timeouts = || stats.request_timeouts.load(Ordering::Relaxed);
        d.step_at(Duration::ZERO, t1 + ms(499));
        assert_eq!(timeouts(), 0);
        d.step_at(Duration::ZERO, t1 + ms(600));
        assert_eq!(timeouts(), 1);
        let mut late = String::new();
        reader.read_to_string(&mut late).expect("the 408 closes it");
        assert!(late.starts_with("HTTP/1.1 408 "), "{late}");

        d.step_at(Duration::ZERO, t1 + GATHER_TIMEOUT - ms(1));
        assert_eq!(d.gathers.len(), 1);
        d.step_at(Duration::ZERO, t1 + GATHER_TIMEOUT);
        assert!(d.gathers.is_empty());
        assert_eq!(stats.handovers.load(Ordering::Relaxed), 1);
    }
}
