//! Per-node message and byte accounting.
//!
//! The paper's bandwidth figures (Figures 9–11) report "number of messages
//! per node"; [`Stats`] keeps exactly that, plus byte counts and free-form
//! named counters for experiment-specific events (e.g. size probes).

use std::collections::{HashMap, VecDeque};

use crate::minted::MintedMap;
use crate::sim::NodeId;

/// How many distinct query tags [`Stats`] keeps per-query counts for,
/// once a host asks for them with [`Stats::count_per_query`]. Oldest tags
/// are dropped beyond this. The one host that reads the counts is
/// `moara_core::Cluster` (simulated or over TCP); a daemon's transport
/// never asks, so it holds no table and counts nothing per query.
pub const QUERY_TAG_CAP: usize = 8192;

/// Messages sent per query tag, the newest [`QUERY_TAG_CAP`] tags.
#[derive(Clone, Debug, Default)]
struct QueryCounts {
    counts: MintedMap<u64, u64>,
    order: VecDeque<u64>,
}

/// Message/byte accounting for a simulation run.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    sent_msgs: Vec<u64>,
    recv_msgs: Vec<u64>,
    sent_bytes: Vec<u64>,
    recv_bytes: Vec<u64>,
    dropped: u64,
    counters: HashMap<&'static str, u64>,
    /// Present once a host asked for per-query counts.
    per_query: Option<QueryCounts>,
}

impl Stats {
    /// Makes sure per-node vectors cover `id` (transports call this when
    /// hosting a node).
    pub fn ensure_node(&mut self, id: NodeId) {
        let need = id.index() + 1;
        if self.sent_msgs.len() < need {
            self.sent_msgs.resize(need, 0);
            self.recv_msgs.resize(need, 0);
            self.sent_bytes.resize(need, 0);
            self.recv_bytes.resize(need, 0);
        }
    }

    /// Accounts one sent message of `bytes` bytes.
    pub fn record_send(&mut self, from: NodeId, bytes: usize) {
        self.ensure_node(from);
        self.sent_msgs[from.index()] += 1;
        self.sent_bytes[from.index()] += bytes as u64;
    }

    /// Accounts one received message of `bytes` bytes.
    pub fn record_recv(&mut self, to: NodeId, bytes: usize) {
        self.ensure_node(to);
        self.recv_msgs[to.index()] += 1;
        self.recv_bytes[to.index()] += bytes as u64;
    }

    /// Accounts a message dropped at (or en route to) a failed node.
    pub fn record_drop(&mut self) {
        self.dropped += 1;
    }

    /// Adds `by` to the named experiment counter.
    pub fn bump(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Starts counting messages per query tag (see
    /// [`Stats::messages_for_query`]); until then
    /// [`Stats::record_query_msg`] does nothing.
    pub fn count_per_query(&mut self) {
        self.per_query.get_or_insert_with(QueryCounts::default);
    }

    /// Accounts one sent message attributed to the query with `tag`
    /// (see `Message::query_tag`), if per-query counts were asked for.
    /// Keeps at most `QUERY_TAG_CAP` distinct tags, evicting the oldest.
    pub fn record_query_msg(&mut self, tag: u64) {
        use std::collections::hash_map::Entry;
        let Some(q) = &mut self.per_query else {
            return;
        };
        match q.counts.entry(tag) {
            Entry::Occupied(mut e) => *e.get_mut() += 1,
            Entry::Vacant(e) => {
                e.insert(1);
                q.order.push_back(tag);
                if q.order.len() > QUERY_TAG_CAP {
                    if let Some(old) = q.order.pop_front() {
                        q.counts.remove(&old);
                    }
                }
            }
        }
    }

    /// Messages attributed to the query with `tag` (0 if unknown, evicted
    /// or not counted). This is per-query accounting that stays correct
    /// when queries overlap, unlike a global before/after message
    /// snapshot.
    pub fn messages_for_query(&self, tag: u64) -> u64 {
        let q = self.per_query.as_ref();
        q.and_then(|q| q.counts.get(&tag)).copied().unwrap_or(0)
    }

    /// Query tags the per-query table holds counts for.
    pub fn query_tags_held(&self) -> usize {
        self.per_query.as_ref().map_or(0, |q| q.counts.len())
    }

    /// Total messages sent across all nodes.
    pub fn total_messages(&self) -> u64 {
        self.sent_msgs.iter().sum()
    }

    /// Total bytes sent across all nodes.
    pub fn total_bytes(&self) -> u64 {
        self.sent_bytes.iter().sum()
    }

    /// Total messages received across all nodes.
    pub fn total_recv_messages(&self) -> u64 {
        self.recv_msgs.iter().sum()
    }

    /// Total bytes received across all nodes.
    pub fn total_recv_bytes(&self) -> u64 {
        self.recv_bytes.iter().sum()
    }

    /// All named experiment counters, unordered — the observability
    /// plane's bulk export (`/metrics` snapshots every counter without
    /// naming each one).
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Messages sent by a single node.
    pub fn sent_by(&self, id: NodeId) -> u64 {
        self.sent_msgs.get(id.index()).copied().unwrap_or(0)
    }

    /// Messages received by a single node.
    pub fn received_by(&self, id: NodeId) -> u64 {
        self.recv_msgs.get(id.index()).copied().unwrap_or(0)
    }

    /// Bytes sent by a single node.
    pub fn bytes_sent_by(&self, id: NodeId) -> u64 {
        self.sent_bytes.get(id.index()).copied().unwrap_or(0)
    }

    /// Average messages sent per node — the y-axis of the paper's Figure 9.
    pub fn messages_per_node(&self) -> f64 {
        if self.sent_msgs.is_empty() {
            return 0.0;
        }
        self.total_messages() as f64 / self.sent_msgs.len() as f64
    }

    /// The node that sent the most messages (hot spot analysis).
    pub fn max_sent(&self) -> u64 {
        self.sent_msgs.iter().copied().max().unwrap_or(0)
    }

    /// Messages dropped because the destination had failed.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Value of a named experiment counter (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Zeroes all counts but keeps the node roster — used between the warmup
    /// and measurement phases of an experiment.
    pub fn reset(&mut self) {
        for v in self
            .sent_msgs
            .iter_mut()
            .chain(self.recv_msgs.iter_mut())
            .chain(self.sent_bytes.iter_mut())
            .chain(self.recv_bytes.iter_mut())
        {
            *v = 0;
        }
        self.dropped = 0;
        self.counters.clear();
        if let Some(q) = &mut self.per_query {
            q.counts.clear();
            q.order.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_node_accounting() {
        let mut s = Stats::default();
        s.ensure_node(NodeId(2));
        s.record_send(NodeId(0), 100);
        s.record_send(NodeId(0), 50);
        s.record_recv(NodeId(2), 150);
        assert_eq!(s.sent_by(NodeId(0)), 2);
        assert_eq!(s.bytes_sent_by(NodeId(0)), 150);
        assert_eq!(s.received_by(NodeId(2)), 1);
        assert_eq!(s.total_messages(), 2);
        assert_eq!(s.total_bytes(), 150);
        assert!((s.messages_per_node() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.max_sent(), 2);
    }

    #[test]
    fn reset_keeps_roster() {
        let mut s = Stats::default();
        s.record_send(NodeId(5), 10);
        s.bump("x", 3);
        s.reset();
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.counter("x"), 0);
        assert_eq!(s.sent_by(NodeId(5)), 0);
        assert!((s.messages_per_node() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_node_reads_as_zero() {
        let s = Stats::default();
        assert_eq!(s.sent_by(NodeId(99)), 0);
        assert_eq!(s.received_by(NodeId(99)), 0);
    }

    #[test]
    fn per_query_accounting_is_independent_per_tag() {
        let mut s = Stats::default();
        s.count_per_query();
        s.record_query_msg(1);
        s.record_query_msg(1);
        s.record_query_msg(2);
        assert_eq!(s.messages_for_query(1), 2);
        assert_eq!(s.messages_for_query(2), 1);
        assert_eq!(s.messages_for_query(3), 0);
        s.reset();
        assert_eq!(s.messages_for_query(1), 0);
    }

    #[test]
    fn per_query_tags_are_bounded() {
        let mut s = Stats::default();
        s.count_per_query();
        for tag in 0..(QUERY_TAG_CAP as u64 + 10) {
            s.record_query_msg(tag);
        }
        // The oldest tags fell off; the newest survive.
        assert_eq!(s.messages_for_query(0), 0);
        assert_eq!(s.messages_for_query(QUERY_TAG_CAP as u64 + 9), 1);
        assert_eq!(s.query_tags_held(), QUERY_TAG_CAP);
    }

    #[test]
    fn per_query_counts_are_kept_only_when_asked_for() {
        let mut s = Stats::default();
        s.record_query_msg(1);
        assert_eq!((s.messages_for_query(1), s.query_tags_held()), (0, 0));
        s.count_per_query();
        s.record_query_msg(1);
        s.reset();
        s.record_query_msg(1);
        assert_eq!(s.messages_for_query(1), 1, "a reset keeps counting");
    }
}
