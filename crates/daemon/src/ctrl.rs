//! The control plane's wire side: the daemon's operation set as framed
//! [`CtrlRequest`]/[`CtrlReply`] messages, their codec, the accept and
//! per-connection loops that feed the event loop, and the client-side
//! [`ctrl_roundtrip`].
//!
//! `CtrlRequest`/`CtrlReply` are the daemon's *one* operation set: the
//! event loop's dispatcher (`serve.rs`) speaks nothing else, and the
//! HTTP gateway reaches it through two adapter functions over the same
//! types. This module is their framed-TCP codec; the same encodings ride
//! the peer plane inside `DaemonMsg::Ask`/`Told` for federation.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use moara_attributes::Value;
use moara_core::DeliveryPolicy;
use moara_trace::{SpanRecord, TraceSummary};
use moara_transport::WakeHandle;
use moara_wire::{read_frame, write_msg, Sink, Wire, WireError};

use crate::health::{AlertWire, PeerHealthRow};
use crate::recorder::EventWire;
use crate::{resolve, Member};

/// A control-plane request (from `moara-cli` or a joining daemon).
#[derive(Clone, Debug, PartialEq)]
pub enum CtrlRequest {
    /// A new daemon asks the seed for an id and the member list.
    Join {
        /// The joiner's peer-plane listen address.
        addr: String,
        /// Crash-recovery: the node id this daemon previously held. The
        /// seed revives that member under a higher incarnation (new
        /// address, same ring id) instead of assigning a fresh id.
        prev_node: Option<u32>,
    },
    /// Run a query from this daemon's front-end and return the aggregate.
    Query {
        /// Query text, either syntax of `moara_query::parse_query`.
        text: String,
    },
    /// Set one local attribute (group churn from the outside).
    SetAttr {
        /// Attribute name.
        attr: String,
        /// New value.
        value: Value,
    },
    /// Report node id and membership view.
    Status,
    /// Install a standing query and stream its updates back on this
    /// control connection ([`CtrlReply::Update`] frames) until the
    /// client disconnects.
    Watch {
        /// Query text, either syntax of `moara_query::parse_query`.
        text: String,
        /// When updates surface (on-change / periodic / threshold).
        policy: DeliveryPolicy,
        /// Subscription lease in microseconds (the daemon renews it for
        /// as long as the watcher stays connected).
        lease_us: u64,
    },
    /// Return the spans this daemon's local store holds for one trace
    /// (the scatter-gather leaf request; `TraceGet` fans these out).
    TraceFetch {
        /// The trace to read.
        trace_id: u64,
    },
    /// Return the cluster-merged span tree for one trace: the serving
    /// daemon reads its own store and asks every other alive member for
    /// theirs over the peer plane, reporting the ones that do not answer
    /// by one deadline instead of hanging.
    TraceGet {
        /// The trace to merge.
        trace_id: u64,
    },
    /// Return summaries of the most recent traces in this daemon's
    /// local store.
    TraceList {
        /// Maximum summaries to return.
        limit: u32,
    },
    /// Return the cluster-health table: the serving daemon reads its own
    /// health and asks every other alive member for theirs
    /// (`HealthFetch`), then joins the answers with its member table,
    /// one row per member, plus its own firing alerts. A member that does
    /// not answer by the gather deadline shows as `stale`, so a
    /// partition delays the answer by up to that deadline
    /// (`moara-cli top`).
    ClusterHealth,
    /// Return this daemon's Prometheus exposition (the metrics
    /// federation leaf request; `GET /v1/cluster/metrics` fans these
    /// out like `TraceGet` fans out `TraceFetch`).
    MetricsFetch,
    /// Return one metric's series from this daemon's flight-recorder
    /// history rings (the history federation leaf request;
    /// `GET /v1/cluster/history` fans these out).
    HistoryFetch {
        /// A health-sample key (`tick_p99_us`, `watches`, ...).
        metric: String,
        /// How far back, in seconds (picks the ring tier).
        range_s: u32,
    },
    /// Return the cluster-merged series for one metric: the serving
    /// daemon reads its own rings and asks every other alive member for
    /// theirs, reporting the ones that do not answer instead of hanging.
    /// An unknown metric is an error, asked of nobody.
    ClusterHistory {
        /// A health-sample key.
        metric: String,
        /// How far back, in seconds.
        range_s: u32,
    },
    /// Return the newest entries of this daemon's structured event
    /// journal (`moara-cli events`, `GET /v1/events`).
    EventsFetch {
        /// Only events of this kind (`swim_confirm`, `slow_query`, ...);
        /// `None` returns every kind.
        kind: Option<String>,
        /// Maximum events to return (newest win).
        limit: u32,
    },
    /// Return this daemon's health sample and firing alerts (the health
    /// leaf request; `ClusterHealth` fans these out, `GET /v1/alerts`
    /// reads the local one).
    HealthFetch,
}

/// A control-plane reply.
#[derive(Clone, Debug, PartialEq)]
pub enum CtrlReply {
    /// Join granted: your id, and the full member list (including you).
    Joined {
        /// The assigned transport-level id.
        node: u32,
        /// All members, joiner included.
        members: Vec<Member>,
    },
    /// Query finished.
    Answer {
        /// The aggregate, rendered (`AggResult` display form).
        result: String,
        /// False if some branch timed out or failed.
        complete: bool,
    },
    /// Generic success.
    Ok,
    /// Status report.
    Status {
        /// This daemon's node id.
        node: u32,
        /// Members this daemon currently knows (alive or dead).
        members: u32,
        /// How many of them are currently believed alive.
        alive: u32,
        /// Node ids of members whose failure was confirmed (kept in the
        /// view for identity continuity, pruned from the overlay).
        dead: Vec<u32>,
        /// Standing watches fronted by this daemon (control-plane
        /// `watch` streams plus gateway SSE streams).
        watches: u32,
        /// Standing-subscription entries hosted on this node's trees
        /// (its own and other front-ends'; drains to zero after
        /// cancellation or lease GC — the leak detector for tests).
        sub_entries: u32,
        /// A compact metrics snapshot (name → value) of the key
        /// `/metrics` families, for `moara-cli status --json`.
        metrics: Vec<(String, f64)>,
        /// Latency-bucket trace exemplars (key → trace id, e.g.
        /// `phase/fold/le/100000` → `0x...`): the most recent sampled
        /// trace that landed in each slow bucket, linking a p99 spike
        /// straight to a concrete waterfall.
        exemplars: Vec<(String, String)>,
    },
    /// One update of a standing watch (streamed; many per request).
    Update {
        /// The merged result, rendered (`AggResult` display form).
        result: String,
        /// True for the first update of the watch.
        initial: bool,
        /// False when some pinned tree had not reported yet.
        complete: bool,
    },
    /// Request failed.
    Error(String),
    /// This daemon's local spans for one trace (`TraceFetch` answer).
    Spans(Vec<SpanRecord>),
    /// The cluster-merged span tree for one trace (`TraceGet` answer).
    Trace {
        /// Spans from every daemon that answered, merged.
        spans: Vec<SpanRecord>,
        /// Node ids of members confirmed dead, then of alive ones that
        /// did not answer by the gather deadline (their subtrees show as
        /// orphans).
        missing: Vec<u32>,
    },
    /// Recent trace summaries from this daemon (`TraceList` answer).
    Traces(Vec<TraceSummary>),
    /// The merged cluster-health table (`ClusterHealth` answer).
    ClusterHealth {
        /// The serving daemon.
        node: u32,
        /// One row per member (self included), in node order.
        rows: Vec<PeerHealthRow>,
        /// Alert rules firing on the serving daemon right now.
        alerts: Vec<AlertWire>,
    },
    /// One daemon's Prometheus exposition (`MetricsFetch` answer).
    MetricsText(String),
    /// One metric's series from one daemon's history rings
    /// (`HistoryFetch` answer).
    History {
        /// The answering daemon.
        node: u32,
        /// Ring resolution of the points, in seconds.
        res_s: u32,
        /// `(unix_ms, value)` points, oldest first.
        points: Vec<(u64, f64)>,
    },
    /// The cluster-merged series for one metric (`ClusterHistory`
    /// answer).
    ClusterHistory {
        /// The queried metric.
        metric: String,
        /// Ring resolution of the points, in seconds.
        res_s: u32,
        /// Per-member series: `(node, points)`, self included.
        series: Vec<(u32, Vec<(u64, f64)>)>,
        /// Members that could not answer before the gather deadline.
        missing: Vec<u32>,
    },
    /// The newest journal entries (`EventsFetch` answer).
    Events(Vec<EventWire>),
    /// One daemon's health (`HealthFetch` answer).
    Health {
        /// Its health sample: each `sample` row of the metrics
        /// catalogue, in table order.
        sample: Vec<(String, f64)>,
        /// The alert rules firing on it right now.
        firing: Vec<AlertWire>,
    },
}

impl Wire for CtrlRequest {
    fn encode(&self, out: &mut impl Sink) {
        match self {
            CtrlRequest::Join { addr, prev_node } => {
                out.push(0);
                addr.encode(out);
                prev_node.encode(out);
            }
            CtrlRequest::Query { text } => {
                out.push(1);
                text.encode(out);
            }
            CtrlRequest::SetAttr { attr, value } => {
                out.push(2);
                attr.encode(out);
                value.encode(out);
            }
            CtrlRequest::Status => out.push(3),
            CtrlRequest::Watch {
                text,
                policy,
                lease_us,
            } => {
                out.push(4);
                text.encode(out);
                policy.encode(out);
                lease_us.encode(out);
            }
            CtrlRequest::TraceFetch { trace_id } => {
                out.push(5);
                trace_id.encode(out);
            }
            CtrlRequest::TraceGet { trace_id } => {
                out.push(6);
                trace_id.encode(out);
            }
            CtrlRequest::TraceList { limit } => {
                out.push(7);
                limit.encode(out);
            }
            CtrlRequest::ClusterHealth => out.push(8),
            CtrlRequest::MetricsFetch => out.push(9),
            CtrlRequest::HistoryFetch { metric, range_s } => {
                out.push(10);
                metric.encode(out);
                range_s.encode(out);
            }
            CtrlRequest::ClusterHistory { metric, range_s } => {
                out.push(11);
                metric.encode(out);
                range_s.encode(out);
            }
            CtrlRequest::EventsFetch { kind, limit } => {
                out.push(12);
                kind.encode(out);
                limit.encode(out);
            }
            CtrlRequest::HealthFetch => out.push(13),
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => CtrlRequest::Join {
                addr: Wire::decode(buf)?,
                prev_node: Wire::decode(buf)?,
            },
            1 => CtrlRequest::Query {
                text: Wire::decode(buf)?,
            },
            2 => CtrlRequest::SetAttr {
                attr: Wire::decode(buf)?,
                value: Wire::decode(buf)?,
            },
            3 => CtrlRequest::Status,
            4 => CtrlRequest::Watch {
                text: Wire::decode(buf)?,
                policy: Wire::decode(buf)?,
                lease_us: Wire::decode(buf)?,
            },
            5 => CtrlRequest::TraceFetch {
                trace_id: Wire::decode(buf)?,
            },
            6 => CtrlRequest::TraceGet {
                trace_id: Wire::decode(buf)?,
            },
            7 => CtrlRequest::TraceList {
                limit: Wire::decode(buf)?,
            },
            8 => CtrlRequest::ClusterHealth,
            9 => CtrlRequest::MetricsFetch,
            10 => CtrlRequest::HistoryFetch {
                metric: Wire::decode(buf)?,
                range_s: Wire::decode(buf)?,
            },
            11 => CtrlRequest::ClusterHistory {
                metric: Wire::decode(buf)?,
                range_s: Wire::decode(buf)?,
            },
            12 => CtrlRequest::EventsFetch {
                kind: Wire::decode(buf)?,
                limit: Wire::decode(buf)?,
            },
            13 => CtrlRequest::HealthFetch,
            _ => return Err(WireError::Invalid("CtrlRequest tag")),
        })
    }
}

impl Wire for CtrlReply {
    fn encode(&self, out: &mut impl Sink) {
        match self {
            CtrlReply::Joined { node, members } => {
                out.push(0);
                node.encode(out);
                members.encode(out);
            }
            CtrlReply::Answer { result, complete } => {
                out.push(1);
                result.encode(out);
                complete.encode(out);
            }
            CtrlReply::Ok => out.push(2),
            CtrlReply::Status {
                node,
                members,
                alive,
                dead,
                watches,
                sub_entries,
                metrics,
                exemplars,
            } => {
                out.push(3);
                node.encode(out);
                members.encode(out);
                alive.encode(out);
                dead.encode(out);
                watches.encode(out);
                sub_entries.encode(out);
                metrics.encode(out);
                exemplars.encode(out);
            }
            CtrlReply::Error(e) => {
                out.push(4);
                e.encode(out);
            }
            CtrlReply::Update {
                result,
                initial,
                complete,
            } => {
                out.push(5);
                result.encode(out);
                initial.encode(out);
                complete.encode(out);
            }
            CtrlReply::Spans(spans) => {
                out.push(6);
                spans.encode(out);
            }
            CtrlReply::Trace { spans, missing } => {
                out.push(7);
                spans.encode(out);
                missing.encode(out);
            }
            CtrlReply::Traces(ts) => {
                out.push(8);
                ts.encode(out);
            }
            CtrlReply::ClusterHealth { node, rows, alerts } => {
                out.push(9);
                node.encode(out);
                rows.encode(out);
                alerts.encode(out);
            }
            CtrlReply::MetricsText(text) => {
                out.push(10);
                text.encode(out);
            }
            CtrlReply::History {
                node,
                res_s,
                points,
            } => {
                out.push(11);
                node.encode(out);
                res_s.encode(out);
                points.encode(out);
            }
            CtrlReply::ClusterHistory {
                metric,
                res_s,
                series,
                missing,
            } => {
                out.push(12);
                metric.encode(out);
                res_s.encode(out);
                series.encode(out);
                missing.encode(out);
            }
            CtrlReply::Events(events) => {
                out.push(13);
                events.encode(out);
            }
            CtrlReply::Health { sample, firing } => {
                out.push(14);
                sample.encode(out);
                firing.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => CtrlReply::Joined {
                node: Wire::decode(buf)?,
                members: Wire::decode(buf)?,
            },
            1 => CtrlReply::Answer {
                result: Wire::decode(buf)?,
                complete: Wire::decode(buf)?,
            },
            2 => CtrlReply::Ok,
            3 => CtrlReply::Status {
                node: Wire::decode(buf)?,
                members: Wire::decode(buf)?,
                alive: Wire::decode(buf)?,
                dead: Wire::decode(buf)?,
                watches: Wire::decode(buf)?,
                sub_entries: Wire::decode(buf)?,
                metrics: Wire::decode(buf)?,
                exemplars: Wire::decode(buf)?,
            },
            4 => CtrlReply::Error(Wire::decode(buf)?),
            5 => CtrlReply::Update {
                result: Wire::decode(buf)?,
                initial: Wire::decode(buf)?,
                complete: Wire::decode(buf)?,
            },
            6 => CtrlReply::Spans(Wire::decode(buf)?),
            7 => CtrlReply::Trace {
                spans: Wire::decode(buf)?,
                missing: Wire::decode(buf)?,
            },
            8 => CtrlReply::Traces(Wire::decode(buf)?),
            9 => CtrlReply::ClusterHealth {
                node: Wire::decode(buf)?,
                rows: Wire::decode(buf)?,
                alerts: Wire::decode(buf)?,
            },
            10 => CtrlReply::MetricsText(Wire::decode(buf)?),
            11 => CtrlReply::History {
                node: Wire::decode(buf)?,
                res_s: Wire::decode(buf)?,
                points: Wire::decode(buf)?,
            },
            12 => CtrlReply::ClusterHistory {
                metric: Wire::decode(buf)?,
                res_s: Wire::decode(buf)?,
                series: Wire::decode(buf)?,
                missing: Wire::decode(buf)?,
            },
            13 => CtrlReply::Events(Wire::decode(buf)?),
            14 => CtrlReply::Health {
                sample: Wire::decode(buf)?,
                firing: Wire::decode(buf)?,
            },
            _ => return Err(WireError::Invalid("CtrlReply tag")),
        })
    }
}

/// What the event loop sends down a control connection's channel.
pub(crate) enum CtrlOut {
    /// A reply frame to write to the socket.
    Reply(CtrlReply),
    /// Liveness probe for a quiescent watch stream: never written to the
    /// socket, but the connection's thread probes the socket on it. It
    /// fails (telling the loop to unsubscribe) once that thread has
    /// noticed the hang-up and gone.
    Keepalive,
}

/// One in-flight control request: the parsed request plus the channel the
/// control thread blocks on for the reply.
pub(crate) struct CtrlJob {
    pub(crate) req: CtrlRequest,
    pub(crate) reply: Sender<CtrlOut>,
}

pub(crate) fn spawn_accept_loop(
    listener: TcpListener,
    tx: Sender<CtrlJob>,
    wake: WakeHandle,
    stop: Arc<AtomicBool>,
) {
    std::thread::Builder::new()
        .name("moarad-ctrl-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let (tx, wake) = (tx.clone(), wake.clone());
                let _ = std::thread::Builder::new()
                    .name("moarad-ctrl-conn".into())
                    .spawn(move || ctrl_conn_loop(stream, tx, wake));
            }
        })
        .expect("spawn ctrl accept thread");
}

/// Serves one control connection: framed request in, framed reply out,
/// repeated until the client hangs up. A `Watch` request flips the
/// connection into streaming mode: update frames flow until the client
/// disconnects (detected by a failed write) or the daemon drops the
/// stream. Every job handed to the event loop is followed by a wake.
fn ctrl_conn_loop(mut stream: TcpStream, tx: Sender<CtrlJob>, wake: WakeHandle) {
    let _ = stream.set_nodelay(true);
    let error = |msg: &str| CtrlReply::Error(msg.into());
    loop {
        let Ok(Some(payload)) = read_frame(&mut stream) else {
            return;
        };
        let Ok(req) = CtrlRequest::from_bytes(&payload) else {
            let _ = write_msg(&mut stream, &error("bad request frame"));
            return;
        };
        // Queries can legitimately take a while (front timeout bounds
        // them); everything else answers within one loop iteration. A
        // quiescent watch emits nothing for long stretches, so its wait
        // is short: each timeout probes the socket, and a hung-up client
        // releases the stream promptly.
        let streaming = matches!(req, CtrlRequest::Watch { .. });
        let wait = Duration::from_secs(if streaming { 1 } else { 120 });
        let (reply, reply_rx) = std::sync::mpsc::channel();
        if tx.send(CtrlJob { req, reply }).is_err() {
            return; // daemon shut down
        }
        wake.wake();
        // One reply, or — streaming — update frames until either side
        // hangs up. Dropping `reply_rx` on a write failure is the signal
        // the daemon's pump observes (its next send errs and it
        // unsubscribes).
        loop {
            let reply = match reply_rx.recv_timeout(wait) {
                Ok(CtrlOut::Reply(reply)) => reply,
                // A keepalive probes the socket too: the loop sends one
                // about every `wait`, so a probe only on timeout could be
                // put off again and again while the client is gone.
                Ok(CtrlOut::Keepalive) | Err(RecvTimeoutError::Timeout) if streaming => {
                    if !moara_gateway::http::socket_alive(&mut stream) {
                        return;
                    }
                    continue;
                }
                Ok(CtrlOut::Keepalive) => continue,
                Err(RecvTimeoutError::Timeout) => error("daemon did not answer in time"),
                // The daemon dropped the reply end without answering: it
                // is shutting down (a stream that already started just
                // ends).
                Err(RecvTimeoutError::Disconnected) if streaming => return,
                Err(RecvTimeoutError::Disconnected) => error("daemon shutting down"),
            };
            if write_msg(&mut stream, &reply).is_err() || stream.flush().is_err() {
                return;
            }
            if !streaming {
                break;
            }
            if matches!(reply, CtrlReply::Error(_)) {
                return;
            }
        }
    }
}

/// Client side: one framed request/reply round trip over a fresh
/// connection (what `moara-cli` and joining daemons use).
///
/// # Errors
///
/// Connection, framing, and timeout failures, as strings.
pub fn ctrl_roundtrip(
    addr: &str,
    req: &CtrlRequest,
    timeout: Duration,
) -> Result<CtrlReply, String> {
    let sock_addr = resolve(addr)?;
    let deadline = Instant::now() + timeout;
    // The target daemon may still be booting (the smoke test starts
    // processes concurrently): retry connects until the deadline.
    let mut stream = loop {
        match TcpStream::connect_timeout(&sock_addr, Duration::from_millis(500)) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("connect {addr}: {e}"));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    write_msg(&mut stream, req).map_err(|e| format!("send: {e}"))?;
    let payload = read_frame(&mut stream)
        .map_err(|e| format!("recv: {e}"))?
        .ok_or("connection closed before reply")?;
    CtrlReply::from_bytes(&payload).map_err(|e| format!("decode reply: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client whose request is in flight when the daemon drops the
    /// reply end (shutdown clears the waiter table) is told so at once —
    /// not that the daemon "did not answer in time".
    #[test]
    fn dropped_reply_end_reads_as_shutdown_not_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (tx, rx) = std::sync::mpsc::channel();
        // No loop to wake here: the test takes the job off `rx` itself.
        let wake = moara_transport::TcpTransport::<crate::DaemonNode>::seeded(0).wake_handle();
        let conn = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            ctrl_conn_loop(stream, tx, wake);
        });
        let client = std::thread::spawn(move || {
            let req = CtrlRequest::Query {
                text: "SELECT count(*)".into(),
            };
            ctrl_roundtrip(&addr, &req, Duration::from_secs(10))
        });
        // The event loop took the job, then shut down before answering.
        let job: CtrlJob = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        drop(job);
        assert_eq!(
            client.join().unwrap(),
            Ok(CtrlReply::Error("daemon shutting down".into()))
        );
        // The client's socket closes with `ctrl_roundtrip`; the loop ends.
        conn.join().unwrap();
    }
}
