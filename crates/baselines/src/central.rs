//! The centralized aggregator of the paper's Figure 15.
//!
//! A single front-end keeps the full node roster and, for every query,
//! directly messages **all** nodes in parallel — no overlay, no trees, no
//! group awareness. Each node answers with its own (attribute, value) if
//! it satisfies the predicate, or a NULL otherwise. The response is
//! complete only when *every* node has answered — which is exactly why the
//! paper's CDF shows the centralized line start fast ("the hare") and then
//! crawl as it waits for the slowest stragglers, while Moara ("the
//! tortoise") finishes sooner by never touching nodes outside the group.

use std::collections::{HashMap, HashSet};

use moara_aggregation::{AggKind, AggResult, AggState, NodeRef};
use moara_attributes::{AttrStore, Value};
use moara_query::{parse_query, ParseError, Query};
use moara_simnet::{
    LatencyModel, Message, NetCtx, NetProtocol, NodeId, SimDuration, SimTime, SimTransport, Stats,
    TimerTag, Transport,
};

/// Wire messages of the centralized aggregator.
#[derive(Clone, Debug)]
pub enum CentralMsg {
    /// Front-end → node: evaluate and answer.
    Ask {
        /// Query sequence number at the front-end.
        qn: u64,
        /// The query to evaluate.
        query: Query,
    },
    /// Node → front-end: the node's contribution (NULL if unsatisfied).
    Answer {
        /// Echoed sequence number.
        qn: u64,
        /// The node's partial aggregate.
        state: AggState,
    },
}

impl Message for CentralMsg {
    fn size_bytes(&self) -> usize {
        match self {
            CentralMsg::Ask { query, .. } => 36 + query.to_string().len(),
            CentralMsg::Answer { state, .. } => 36 + state.wire_size(),
        }
    }
}

/// Outcome of one centralized query, with reply-time detail for CDFs.
#[derive(Clone, Debug)]
pub struct CentralOutcome {
    /// Final merged result.
    pub result: AggResult,
    /// Virtual time the query was issued.
    pub issued_at: SimTime,
    /// Virtual time the final (slowest) answer arrived.
    pub completed_at: SimTime,
    /// Arrival time of every individual answer, in arrival order — the
    /// raw material of the paper's cumulative-fraction plots.
    pub reply_times: Vec<SimTime>,
}

impl CentralOutcome {
    /// End-to-end latency (bounded by the slowest node).
    pub fn latency(&self) -> SimDuration {
        self.completed_at.duration_since(self.issued_at)
    }
}

/// A participant in the centralized system: one aggregator (node 0 by
/// convention) and plain agents.
pub struct CentralNode {
    /// Local attribute store.
    pub store: AttrStore,
    pending: HashMap<u64, PendingCentral>,
    done: HashMap<u64, CentralOutcome>,
    roster: Vec<NodeId>,
    next_qn: u64,
}

struct PendingCentral {
    kind: AggKind,
    acc: AggState,
    waiting: HashSet<NodeId>,
    issued_at: SimTime,
    reply_times: Vec<SimTime>,
}

impl CentralNode {
    fn new() -> CentralNode {
        CentralNode {
            store: AttrStore::new(),
            pending: HashMap::new(),
            done: HashMap::new(),
            roster: Vec::new(),
            next_qn: 0,
        }
    }
}

impl NetProtocol for CentralNode {
    type Msg = CentralMsg;

    fn on_message(&mut self, ctx: &mut dyn NetCtx<CentralMsg>, from: NodeId, msg: CentralMsg) {
        match msg {
            CentralMsg::Ask { qn, query } => {
                let state = if query.predicate.eval(&self.store) {
                    let node = NodeRef(ctx.me().0 as u64);
                    match (&query.attr, query.agg) {
                        (_, AggKind::Count | AggKind::Enumerate) => query
                            .agg
                            .seed(node, &Value::Bool(true))
                            .unwrap_or(AggState::Null),
                        (Some(attr), _) => self
                            .store
                            .get(attr.as_str())
                            .and_then(|v| query.agg.seed(node, v).ok())
                            .unwrap_or(AggState::Null),
                        (None, _) => AggState::Null,
                    }
                } else {
                    AggState::Null
                };
                ctx.send(from, CentralMsg::Answer { qn, state });
            }
            CentralMsg::Answer { qn, state } => {
                let Some(p) = self.pending.get_mut(&qn) else {
                    return;
                };
                if !p.waiting.remove(&from) {
                    return;
                }
                p.reply_times.push(ctx.now());
                let prev = std::mem::replace(&mut p.acc, AggState::Null);
                p.acc = p.kind.merge(prev, state);
                if p.waiting.is_empty() {
                    let p = self.pending.remove(&qn).expect("just present");
                    self.done.insert(
                        qn,
                        CentralOutcome {
                            result: p.acc.finish(),
                            issued_at: p.issued_at,
                            completed_at: ctx.now(),
                            reply_times: p.reply_times,
                        },
                    );
                }
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut dyn NetCtx<CentralMsg>, _tag: TimerTag) {}
}

/// A centralized-aggregator deployment (Figure 15's "Central").
pub struct CentralCluster {
    sim: SimTransport<CentralNode>,
    aggregator: NodeId,
}

impl CentralCluster {
    /// Builds `n` nodes; node 0 is the aggregating front-end.
    pub fn new(n: usize, seed: u64, latency: impl LatencyModel + 'static) -> CentralCluster {
        assert!(n > 0);
        let mut sim = SimTransport::new(latency, seed);
        for _ in 0..n {
            sim.add_node(CentralNode::new());
        }
        let roster: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let aggregator = NodeId(0);
        sim.node_mut(aggregator).roster = roster;
        CentralCluster { sim, aggregator }
    }

    /// Sets an attribute at a node.
    pub fn set_attr(&mut self, node: NodeId, attr: &str, value: impl Into<Value>) {
        self.sim.node_mut(node).store.set(attr, value.into());
    }

    /// Runs a query text synchronously from the aggregator.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed query text.
    pub fn query(&mut self, text: &str) -> Result<CentralOutcome, ParseError> {
        Ok(self.query_parsed(parse_query(text)?))
    }

    /// Runs a parsed query synchronously from the aggregator.
    pub fn query_parsed(&mut self, query: Query) -> CentralOutcome {
        let agg = self.aggregator;
        let qn = {
            let node = self.sim.node_mut(agg);
            let qn = node.next_qn;
            node.next_qn += 1;
            qn
        };
        let roster = self.sim.node(agg).roster.clone();
        let kind = query.agg;
        self.sim.with_node(agg, |n, ctx| {
            n.pending.insert(
                qn,
                PendingCentral {
                    kind,
                    acc: kind.identity(),
                    waiting: roster.iter().copied().collect(),
                    issued_at: ctx.now(),
                    reply_times: Vec::new(),
                },
            );
            for &t in &roster {
                ctx.send(
                    t,
                    CentralMsg::Ask {
                        qn,
                        query: query.clone(),
                    },
                );
            }
        });
        self.sim.run_to_quiescence();
        self.sim
            .node_mut(agg)
            .done
            .remove(&qn)
            .expect("all nodes alive, so all answers arrive")
    }

    /// Message statistics.
    pub fn stats(&self) -> &Stats {
        self.sim.stats()
    }

    /// Mutable statistics access.
    pub fn stats_mut(&mut self) -> &mut Stats {
        self.sim.stats_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moara_simnet::latency::Constant;

    #[test]
    fn central_counts_group_but_contacts_everyone() {
        let mut c = CentralCluster::new(30, 9, Constant::from_millis(2));
        for i in 0..30u32 {
            c.set_attr(NodeId(i), "A", i % 3 == 0);
        }
        let out = c.query("SELECT count(*) WHERE A = true").unwrap();
        assert_eq!(out.result, AggResult::Value(Value::Int(10)));
        // 30 asks + 30 answers.
        assert_eq!(c.stats().total_messages(), 60);
        assert_eq!(out.reply_times.len(), 30);
        // Constant latency: round trip is exactly 4 ms.
        assert_eq!(out.latency(), SimDuration::from_millis(4));
    }

    #[test]
    fn central_completion_bounded_by_slowest_node() {
        use moara_simnet::latency::Wan;
        let n = 60;
        let wan = Wan::planetlab(n, 17);
        let mut c = CentralCluster::new(n, 17, wan.clone());
        for i in 0..n as u32 {
            c.set_attr(NodeId(i), "A", i < 5);
        }
        let out = c.query("SELECT count(*) WHERE A = true").unwrap();
        assert_eq!(out.result, AggResult::Value(Value::Int(5)));
        // The slowest reply dominates completion: last reply == completion.
        assert_eq!(*out.reply_times.last().unwrap(), out.completed_at);
        // Early replies arrive much sooner than completion (the "hare").
        assert!(out.reply_times[0] < out.completed_at);
    }

    #[test]
    fn aggregator_also_answers_itself() {
        let mut c = CentralCluster::new(1, 1, Constant::from_millis(1));
        c.set_attr(NodeId(0), "A", true);
        let out = c.query("SELECT count(*) WHERE A = true").unwrap();
        assert_eq!(out.result, AggResult::Value(Value::Int(1)));
    }
}
