//! The deployment harness: wires Moara nodes, the DHT overlay, and a
//! pluggable transport together, and gives experiments a synchronous
//! driving API.
//!
//! [`Directory`] is the shared overlay view — the stand-in for each node's
//! FreePastry routing state plus the implicit DHT-tree structure derived
//! from it (see `moara-dht`). [`Cluster`] owns a [`Transport`] hosting the
//! nodes and exposes the operations the paper's experiments perform: set
//! attributes (group churn), issue queries, fail/add nodes, and read
//! message/latency statistics.
//!
//! `Cluster` is generic over the transport backend. The default,
//! [`SimTransport`], runs on the deterministic discrete-event simulator —
//! all of the paper's experiments use it. [`ClusterBuilder::build_tcp`]
//! instead hosts every node over real loopback TCP sockets
//! ([`TcpTransport`]), which is how `examples/tcp_cluster.rs` and the
//! `tcp_cluster` integration test exercise the full protocol over a real
//! network path. Multi-process deployment (one node per `moarad` daemon)
//! lives in the `moara-daemon` crate.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use moara_attributes::{AttrName, Value};
use moara_dht::{Id, Ring, TreeTopology};
use moara_query::{parse_query, ParseError, Query, SimplePredicate};
use moara_simnet::{latency, LatencyModel, NodeId, SimDuration, SimTime, Stats};
use moara_trace::SpanStore;
use moara_transport::{SimTransport, TcpConfig, TcpTransport, Transport};

use crate::config::MoaraConfig;
use crate::node::{MoaraNode, QueryOutcome};

/// Marks "no node" in [`OverlayTree`]'s parent array.
const NO_NODE: u32 = u32::MAX;

/// One aggregation tree, flattened into arrays indexed by [`NodeId`]:
/// a node's parent, its children and its subtree size are each one index
/// away. Built once per tree key from the DHT's [`TreeTopology`] (children
/// keep its ring-id order, which is the order sub-queries are sent in).
/// A node outside the ring — a removed member — has no parent, no
/// children and size 0.
#[derive(Debug)]
pub struct OverlayTree {
    parent: Vec<u32>,
    /// `children[first[i]..first[i + 1]]` are node `i`'s children.
    first: Vec<u32>,
    children: Vec<NodeId>,
    size: Vec<u64>,
}

impl OverlayTree {
    /// Translates the DHT's positional tree into `NodeId` arrays through
    /// the directory's position → node table: array indexing throughout.
    fn build(inner: &DirInner, key: Id) -> OverlayTree {
        let topo = TreeTopology::build(&inner.ring, key);
        let nodes = &inner.ring_nodes;
        let n = inner.id_of.len();
        let mut parent = vec![NO_NODE; n];
        let mut size = vec![0u64; n];
        let mut first = vec![0u32; n + 1];
        for (i, node) in nodes.iter().enumerate() {
            let v = node.index();
            parent[v] = topo.parent_at(i).map_or(NO_NODE, |p| nodes[p].0);
            size[v] = topo.size_at(i);
            first[v + 1] = topo.children_at(i).len() as u32;
        }
        for v in 0..n {
            first[v + 1] += first[v];
        }
        let mut children = vec![NodeId(0); first[n] as usize];
        for (i, node) in nodes.iter().enumerate() {
            let at = first[node.index()] as usize;
            for (slot, &c) in children[at..].iter_mut().zip(topo.children_at(i)) {
                *slot = nodes[c as usize];
            }
        }
        OverlayTree {
            parent,
            first,
            children,
            size,
        }
    }

    /// `node`'s children, in ring-id order.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.children[self.first[i] as usize..self.first[i + 1] as usize]
    }

    /// `node`'s parent (`None` for the root and for non-members).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let p = self.parent[node.index()];
        (p != NO_NODE).then_some(NodeId(p))
    }

    /// Size of `node`'s subtree, itself included (0 for non-members).
    pub fn subtree_size(&self, node: NodeId) -> u64 {
        self.size[node.index()]
    }
}

/// Attribute names [`Directory::attr`] remembers before it starts over: a
/// client can name any attribute, so the memo must not grow without bound.
const NAMES_CAP: usize = 1024;

struct DirInner {
    ring: Ring,
    id_of: Vec<Id>,
    /// The node at each position of `ring.ids()`, kept aligned with the
    /// ring through every membership change.
    ring_nodes: Vec<NodeId>,
    /// Built trees by key: a handful, found by comparison, not hashing.
    trees: BTreeMap<Id, Rc<OverlayTree>>,
    /// Each attribute name seen, shared, with its tree key: every node's
    /// store holds the one copy, and each name is MD5-hashed once.
    names: BTreeMap<AttrName, Id>,
}

impl DirInner {
    /// Puts `node` at `id`'s position, entering `id` into the ring if it
    /// is not there yet.
    fn join(&mut self, id: Id, node: NodeId) {
        match self.ring.ids().binary_search(&id) {
            Ok(i) => self.ring_nodes[i] = node,
            Err(i) => {
                self.ring.add(id);
                self.ring_nodes.insert(i, node);
            }
        }
        self.trees.clear();
    }
}

/// Shared overlay directory: id mapping, routing decisions, and implicit
/// aggregation-tree structure, recomputed on membership changes.
#[derive(Clone)]
pub struct Directory {
    inner: Rc<RefCell<DirInner>>,
}

impl Directory {
    fn new(ring: Ring, id_of: Vec<Id>) -> Directory {
        let mut ring_nodes = vec![NodeId(NO_NODE); ring.len()];
        for (v, &id) in id_of.iter().enumerate() {
            if let Some(i) = ring.position(id) {
                ring_nodes[i] = NodeId(v as u32);
            }
        }
        Directory {
            inner: Rc::new(RefCell::new(DirInner {
                ring,
                id_of,
                ring_nodes,
                trees: BTreeMap::new(),
                names: BTreeMap::new(),
            })),
        }
    }

    /// Builds a directory from explicit `(ring id, node)` members — how
    /// daemon processes reconstruct an identical overlay view from a
    /// membership list. Nodes must be `NodeId(0..n)` in order.
    pub fn from_members(members: &[(NodeId, Id)], bits_per_digit: u32) -> Directory {
        let mut ring = Ring::new(bits_per_digit);
        let mut id_of = Vec::with_capacity(members.len());
        for (i, &(node, id)) in members.iter().enumerate() {
            assert_eq!(node.index(), i, "members must be dense and ordered");
            ring.add(id);
            id_of.push(id);
        }
        Directory::new(ring, id_of)
    }

    /// Replaces the membership in place (all handles see the update) and
    /// invalidates cached trees — how daemons apply membership broadcasts.
    pub fn reset_members(&self, members: &[(NodeId, Id)], bits_per_digit: u32) {
        let fresh = Directory::from_members(members, bits_per_digit);
        let mut inner = self.inner.borrow_mut();
        *inner = Rc::try_unwrap(fresh.inner)
            .ok()
            .expect("fresh directory has one handle")
            .into_inner();
    }

    /// The ring id of a node.
    pub fn id_of(&self, node: NodeId) -> Id {
        self.inner.borrow().id_of[node.index()]
    }

    /// Current overlay membership size (alive nodes).
    pub fn ring_size(&self) -> usize {
        self.inner.borrow().ring.len()
    }

    /// The node owning `key` (the root of `key`'s tree).
    pub fn owner_node(&self, key: Id) -> NodeId {
        let inner = self.inner.borrow();
        inner.ring_nodes[inner.ring.owner_at(key)]
    }

    /// The next overlay hop from `me` toward `key` (`None` = `me` is the
    /// root).
    ///
    /// # Panics
    ///
    /// Panics if `me` is not in the ring.
    pub fn next_hop_node(&self, me: NodeId, key: Id) -> Option<NodeId> {
        let inner = self.inner.borrow();
        let at = inner
            .ring
            .position(inner.id_of[me.index()])
            .expect("id is a ring member");
        inner.ring.next_hop_at(at, key).map(|i| inner.ring_nodes[i])
    }

    /// The aggregation tree for `key` over the current membership, built
    /// on first use and shared until the membership changes. Holding the
    /// handle keeps that version alive; ask again after a change.
    pub fn tree(&self, key: Id) -> Rc<OverlayTree> {
        let mut inner = self.inner.borrow_mut();
        if let Some(tree) = inner.trees.get(&key) {
            return tree.clone();
        }
        let tree = Rc::new(OverlayTree::build(&inner, key));
        inner.trees.insert(key, tree.clone());
        tree
    }

    /// The shared name of attribute `attr` and the key of its tree
    /// ([`Id::of_attribute`]), made once per name and remembered.
    pub fn attr(&self, attr: &str) -> (AttrName, Id) {
        let mut inner = self.inner.borrow_mut();
        if let Some((name, &key)) = inner.names.get_key_value(attr) {
            return (name.clone(), key);
        }
        if inner.names.len() >= NAMES_CAP {
            inner.names.clear();
        }
        let (name, key) = (AttrName::new(attr), Id::of_attribute(attr));
        inner.names.insert(name.clone(), key);
        (name, key)
    }

    /// The tree key of group attribute `attr` (see [`Directory::attr`]).
    pub fn tree_key(&self, attr: &str) -> Id {
        self.attr(attr).1
    }

    fn add_member(&self, id: Id, node: NodeId) {
        let mut inner = self.inner.borrow_mut();
        debug_assert_eq!(inner.id_of.len(), node.index());
        inner.id_of.push(id);
        inner.join(id, node);
    }

    /// Removes a (failed) member from the overlay: its ring id leaves the
    /// ring and every cached tree is invalidated, so routing and tree
    /// structure repair around it. The id mapping is retained, which is
    /// what allows [`Directory::revive_member`] to undo this. Public so
    /// membership layers (the `moarad` daemon's failure detector, the
    /// simulated daemon swarm) can repair the overlay when *they* — not
    /// an omniscient harness — learn of a failure.
    pub fn remove_member(&self, node: NodeId) {
        let mut inner = self.inner.borrow_mut();
        let id = inner.id_of[node.index()];
        if let Some(i) = inner.ring.position(id) {
            inner.ring.remove(id);
            inner.ring_nodes.remove(i);
        }
        inner.trees.clear();
    }

    /// Re-inserts a previously removed member under its original ring id
    /// (crash-recovery: the node rejoined with its identity intact).
    pub fn revive_member(&self, node: NodeId) {
        let mut inner = self.inner.borrow_mut();
        let id = inner.id_of[node.index()];
        inner.join(id, node);
    }

    fn contains_ring_id(&self, id: Id) -> bool {
        self.inner.borrow().ring.contains(id)
    }
}

/// Builder for a Moara deployment.
pub struct ClusterBuilder {
    n: usize,
    cfg: Rc<MoaraConfig>,
    seed: u64,
    latency: Box<dyn LatencyModel>,
    trace_sample: u64,
}

impl ClusterBuilder {
    /// Number of nodes to start with.
    pub fn nodes(mut self, n: usize) -> ClusterBuilder {
        self.n = n;
        self
    }

    /// Engine configuration.
    pub fn config(mut self, cfg: MoaraConfig) -> ClusterBuilder {
        self.cfg = Rc::new(cfg);
        self
    }

    /// Deterministic seed for ids, latencies, and workload randomness.
    pub fn seed(mut self, seed: u64) -> ClusterBuilder {
        self.seed = seed;
        self
    }

    /// Link-latency model for the simulator backend (defaults to constant
    /// 1 ms; ignored by [`ClusterBuilder::build_tcp`], where the kernel
    /// provides the latency).
    pub fn latency(mut self, model: impl LatencyModel + 'static) -> ClusterBuilder {
        self.latency = Box::new(model);
        self
    }

    /// Enables distributed tracing: every node records phase spans into
    /// one shared [`SpanStore`], sampling one query in `sample_every`
    /// (1 = every query, 0 = off). Because the store is shared, a
    /// cluster-wide merged span tree needs no scatter-gather here —
    /// exactly the merged view the daemons assemble over control sockets.
    pub fn tracing(mut self, sample_every: u64) -> ClusterBuilder {
        self.trace_sample = sample_every;
        self
    }

    /// Common setup: overlay ring, id shuffle, directory, node states.
    fn prepare(&mut self) -> (Directory, StdRng) {
        assert!(self.n > 0, "cluster needs at least one node");
        let ring = Ring::with_random_ids(self.n, self.cfg.bits_per_digit, self.seed);
        let id_of: Vec<Id> = ring.ids().to_vec();
        // Shuffle id assignment so NodeId order is independent of ring
        // order (deterministic in the seed).
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xc0ffee);
        let mut id_of = id_of;
        for i in (1..id_of.len()).rev() {
            let j = rng.gen_range(0..=i);
            id_of.swap(i, j);
        }
        (Directory::new(ring, id_of), rng)
    }

    /// Builds the cluster on the deterministic simulator (the default
    /// backend; all paper experiments run here).
    pub fn build(mut self) -> Cluster {
        let latency = std::mem::replace(
            &mut self.latency,
            Box::new(latency::Constant::from_millis(1)),
        );
        let transport = SimTransport::new(latency, self.seed.wrapping_add(1));
        self.finish(transport)
    }

    /// Builds the cluster over real TCP sockets on loopback: every node
    /// gets its own listener, and all protocol traffic crosses the kernel
    /// as length-prefixed frames. Timeouts in [`MoaraConfig`] become real
    /// time.
    pub fn build_tcp(self, tcp: TcpConfig) -> Cluster<TcpTransport<MoaraNode>> {
        self.finish(TcpTransport::new(tcp))
    }

    /// Hosts the nodes on `transport`, either backend.
    ///
    /// [`Cluster::take_outcome`] fills `QueryOutcome::messages` from the
    /// transport's per-query counts, so the cluster, which reads them, is
    /// what asks for them. A transport nobody reads them from (a daemon's)
    /// keeps no per-query table.
    fn finish<T: Transport<MoaraNode>>(mut self, mut transport: T) -> Cluster<T> {
        let (dir, rng) = self.prepare();
        transport.stats_mut().count_per_query();
        let tracer = (self.trace_sample > 0)
            .then(|| Arc::new(SpanStore::new(TRACE_STORE_CAP, self.trace_sample)));
        for _ in 0..self.n {
            let mut node = MoaraNode::new(dir.clone(), self.cfg.clone());
            if let Some(t) = &tracer {
                node.set_tracer(t.clone());
            }
            transport.add_node(node);
        }
        Cluster {
            transport,
            dir,
            cfg: self.cfg,
            rng,
            tracer,
        }
    }
}

/// Span capacity of the harness-attached store (shared by all nodes).
const TRACE_STORE_CAP: usize = 65_536;

/// A running Moara deployment over some [`Transport`] backend.
///
/// With the default [`SimTransport`] this is the paper's simulated
/// deployment; with [`TcpTransport`] the same protocol state machines run
/// over real sockets.
pub struct Cluster<T: Transport<MoaraNode> = SimTransport<MoaraNode>> {
    transport: T,
    dir: Directory,
    /// The configuration every node shares.
    cfg: Rc<MoaraConfig>,
    rng: StdRng,
    /// The shared span store when built with [`ClusterBuilder::tracing`].
    tracer: Option<Arc<SpanStore>>,
}

impl Cluster {
    /// Starts building a cluster (simulator-backed unless finished with
    /// [`ClusterBuilder::build_tcp`]).
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder {
            n: 1,
            cfg: Rc::new(MoaraConfig::default()),
            seed: 42,
            latency: Box::new(latency::Constant::from_millis(1)),
            trace_sample: 0,
        }
    }

    // ----- fault injection (simulator backend only) ---------------------
    //
    // Unlike `fail_node`, none of these touch the directory or notify any
    // node: the overlay keeps believing in the full membership while the
    // network silently loses frames — exactly the situation a real
    // deployment is in until its failure detector reacts.

    /// Cuts all traffic between `side` and the rest of the cluster, in
    /// both directions (a bidirectional netsplit). Stacks with previous
    /// partitions; undo with [`Cluster::heal`].
    pub fn partition(&mut self, side: &[NodeId]) {
        let side_set: std::collections::HashSet<NodeId> = side.iter().copied().collect();
        let rest: Vec<NodeId> = self
            .node_ids()
            .into_iter()
            .filter(|n| !side_set.contains(n))
            .collect();
        self.transport.faults_mut().partition(side, &rest);
    }

    /// Removes every partition (link-loss probabilities stay in force).
    pub fn heal(&mut self) {
        self.transport.faults_mut().heal();
    }

    /// Sets the message-drop probability of every link without a
    /// per-link override (lossy-network injection).
    pub fn set_default_drop(&mut self, p: f64) {
        self.transport.faults_mut().set_default_drop(p);
    }

    /// Sets the drop probability of the directed link `from → to`.
    pub fn set_link_drop(&mut self, from: NodeId, to: NodeId, p: f64) {
        self.transport.faults_mut().set_link_drop(from, to, p);
    }
}

impl<T: Transport<MoaraNode>> Cluster<T> {
    /// Number of nodes ever created (including failed).
    pub fn len(&self) -> usize {
        self.transport.len()
    }

    /// True if the cluster has no nodes (never: the builder requires one).
    pub fn is_empty(&self) -> bool {
        self.transport.is_empty()
    }

    /// All node ids ever created.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.transport.len() as u32).map(NodeId).collect()
    }

    /// Whether a node is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.transport.is_alive(node)
    }

    /// The shared overlay directory.
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// The engine configuration.
    pub fn config(&self) -> &MoaraConfig {
        &self.cfg
    }

    /// The transport backend (e.g. to reach TCP-specific accessors).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The cluster-wide span store, when tracing was enabled at build
    /// time ([`ClusterBuilder::tracing`]).
    pub fn tracer(&self) -> Option<&Arc<SpanStore>> {
        self.tracer.as_ref()
    }

    /// Current time on the transport's clock (virtual under simulation,
    /// real elapsed time over TCP).
    pub fn now(&self) -> SimTime {
        self.transport.now()
    }

    /// Message statistics.
    pub fn stats(&self) -> &Stats {
        self.transport.stats()
    }

    /// Mutable statistics (reset between experiment phases).
    pub fn stats_mut(&mut self) -> &mut Stats {
        self.transport.stats_mut()
    }

    /// Direct read access to a node (assertions/inspection).
    pub fn node(&self, node: NodeId) -> &MoaraNode {
        self.transport.node(node)
    }

    /// Sets an attribute at a node and lets the protocol react (a "group
    /// churn" event when the change flips predicate satisfaction).
    pub fn set_attr(&mut self, node: NodeId, attr: &str, value: impl Into<Value>) {
        if !self.transport.is_alive(node) {
            return;
        }
        let (name, _) = self.dir.attr(attr);
        let value = value.into();
        self.transport.with_node(node, |n, ctx| {
            n.store.set(name, value);
            n.on_local_change(ctx, attr);
        });
    }

    /// Removes an attribute at a node.
    pub fn remove_attr(&mut self, node: NodeId, attr: &str) {
        if !self.transport.is_alive(node) {
            return;
        }
        self.transport.with_node(node, |n, ctx| {
            n.store.remove(attr);
            n.on_local_change(ctx, attr);
        });
    }

    /// Submits a query asynchronously from `origin`'s front-end. Drive the
    /// transport ([`Cluster::run_for`]) and collect the result with
    /// [`Cluster::take_outcome`].
    pub fn submit(&mut self, origin: NodeId, query: Query) -> u64 {
        self.transport
            .with_node(origin, |n, ctx| n.submit(ctx, query))
    }

    /// Takes the outcome of an asynchronous query if it has completed,
    /// with `messages` filled in from the transport's per-query counters
    /// — messages are tagged with their [`crate::QueryId`] on the wire,
    /// so the figure is exact even when queries overlap (a global
    /// before/after snapshot could not tell them apart).
    pub fn take_outcome(&mut self, origin: NodeId, front_id: u64) -> Option<QueryOutcome> {
        let mut outcome = self.transport.node_mut(origin).take_outcome(front_id)?;
        outcome.messages = self.transport.stats().messages_for_query(outcome.qid.tag());
        Some(outcome)
    }

    /// Runs a parsed query synchronously: submits it, drives the transport
    /// to quiescence, and returns the outcome with the message count this
    /// query caused (per-query accounting; maintenance traffic excluded).
    pub fn query_parsed(&mut self, origin: NodeId, query: Query) -> QueryOutcome {
        let fid = self.submit(origin, query);
        self.transport.run_to_quiescence();
        self.take_outcome(origin, fid)
            .expect("query completes under quiescence (front timeout bounds it)")
    }

    /// Parses and runs a query synchronously (either syntax of
    /// [`parse_query`]).
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed query text.
    pub fn query(&mut self, origin: NodeId, text: &str) -> Result<QueryOutcome, ParseError> {
        Ok(self.query_parsed(origin, parse_query(text)?))
    }

    /// Installs a standing query at `origin`'s front-end (the
    /// continuous-query subscription plane). Drive the cluster with
    /// [`Cluster::run_for`] / [`Cluster::run_to_quiescence`] and collect
    /// updates with [`Cluster::take_sub_updates`].
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed query text.
    pub fn subscribe(
        &mut self,
        origin: NodeId,
        text: &str,
        policy: moara_subscribe::DeliveryPolicy,
        lease: SimDuration,
    ) -> Result<u64, ParseError> {
        let query = parse_query(text)?;
        Ok(self
            .transport
            .with_node(origin, |n, ctx| n.subscribe(ctx, query, policy, lease)))
    }

    /// Drains the client-visible updates of a watch at `origin`.
    pub fn take_sub_updates(
        &mut self,
        origin: NodeId,
        watch_id: u64,
    ) -> Vec<moara_subscribe::SubUpdate> {
        self.transport.node_mut(origin).take_sub_updates(watch_id)
    }

    /// Cancels a subscription (state tears down along its trees).
    pub fn unsubscribe(&mut self, origin: NodeId, watch_id: u64) {
        self.transport
            .with_node(origin, |n, ctx| n.unsubscribe(ctx, watch_id));
    }

    /// Total per-tree subscription entries across all alive nodes
    /// (lease-expiry GC drives this to zero once subscribers are gone).
    pub fn sub_entries_total(&self) -> usize {
        self.node_ids()
            .into_iter()
            .filter(|&n| self.transport.is_alive(n))
            .map(|n| self.transport.node(n).sub_entry_count())
            .sum()
    }

    /// Advances the transport by `d` (virtual time under simulation, real
    /// waiting over TCP), processing due events.
    pub fn run_for(&mut self, d: SimDuration) {
        self.transport.run_for(d);
    }

    /// Processes all outstanding events.
    pub fn run_to_quiescence(&mut self) {
        self.transport.run_to_quiescence();
    }

    /// Fails a node: the overlay repairs itself and ongoing aggregations
    /// treat it as a NULL reply (Section 7's reconfiguration handling).
    pub fn fail_node(&mut self, node: NodeId) {
        if !self.transport.is_alive(node) {
            return;
        }
        self.transport.fail_node(node);
        self.dir.remove_member(node);
        let ids = self.node_ids();
        for n in ids {
            if !self.transport.is_alive(n) {
                continue;
            }
            self.transport.with_node(n, |nn, ctx| {
                nn.on_peer_failed(ctx, node);
                nn.reconcile(ctx);
            });
        }
    }

    /// Restarts a previously failed node under its original identity
    /// (crash-recovery: ring id and attribute store are preserved, as for
    /// a daemon restarted from its persisted state). The node's stale
    /// per-tree protocol state is discarded via
    /// [`MoaraNode::on_rejoin`], the overlay re-integrates its ring id,
    /// and every live node reconciles — so the returnee re-enters its
    /// groups' trees and reappears in query results.
    pub fn restart_node(&mut self, node: NodeId) {
        if self.transport.is_alive(node) {
            return;
        }
        self.transport.recover_node(node);
        self.dir.revive_member(node);
        self.transport.with_node(node, |n, ctx| n.on_rejoin(ctx));
        for n in self.node_ids() {
            if !self.transport.is_alive(n) {
                continue;
            }
            self.transport.with_node(n, |nn, ctx| nn.reconcile(ctx));
        }
    }

    /// Adds a fresh node with the given initial attributes; the overlay
    /// integrates it and existing state re-homes to new parents.
    pub fn add_node(&mut self, attrs: impl IntoIterator<Item = (String, Value)>) -> NodeId {
        let mut id = Id(self.rng.gen());
        while self.dir.contains_ring_id(id) {
            id = Id(self.rng.gen());
        }
        let node = NodeId(self.transport.len() as u32);
        self.dir.add_member(id, node);
        let mut moara = MoaraNode::new(self.dir.clone(), self.cfg.clone());
        if let Some(t) = &self.tracer {
            moara.set_tracer(t.clone());
        }
        for (a, v) in attrs {
            moara.store.set(self.dir.attr(&a).0, v);
        }
        let created = self.transport.add_node(moara);
        debug_assert_eq!(created, node);
        for n in self.node_ids() {
            if !self.transport.is_alive(n) {
                continue;
            }
            self.transport.with_node(n, |nn, ctx| nn.reconcile(ctx));
        }
        node
    }

    /// Pre-installs tree state for `pred` at every node and flushes the
    /// resulting status cascade (used by the Always-Update baseline so the
    /// measurement phase starts from a fully built tree). Resets message
    /// statistics afterwards.
    pub fn register_predicate(&mut self, pred: &SimplePredicate) {
        for n in self.node_ids() {
            if !self.transport.is_alive(n) {
                continue;
            }
            self.transport.node_mut(n).install_state(n, pred);
        }
        for n in self.node_ids() {
            if !self.transport.is_alive(n) {
                continue;
            }
            self.transport.with_node(n, |nn, ctx| nn.reconcile(ctx));
        }
        self.transport.run_to_quiescence();
        self.transport.stats_mut().reset();
    }

    /// Ground truth: the alive nodes currently satisfying `pred`
    /// (evaluated directly against the stores, bypassing the protocol).
    pub fn group_members(&self, pred: &SimplePredicate) -> Vec<NodeId> {
        self.node_ids()
            .into_iter()
            .filter(|&n| self.transport.is_alive(n) && pred.eval(&self.transport.node(n).store))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moara_aggregation::AggResult;

    fn small_cluster(n: usize) -> Cluster {
        Cluster::builder().nodes(n).seed(7).build()
    }

    #[test]
    fn count_over_flagged_group() {
        let mut c = small_cluster(16);
        for i in 0..16u32 {
            c.set_attr(NodeId(i), "ServiceX", i % 4 == 0);
        }
        c.run_to_quiescence();
        c.stats_mut().reset();
        let out = c
            .query(NodeId(3), "SELECT count(*) WHERE ServiceX = true")
            .unwrap();
        assert!(out.complete);
        assert_eq!(out.result, AggResult::Value(Value::Int(4)));
        assert!(out.messages > 0);
    }

    #[test]
    fn repeated_queries_prune_the_tree() {
        let mut c = small_cluster(32);
        for i in 0..32u32 {
            c.set_attr(NodeId(i), "A", i < 4);
        }
        let q = "SELECT count(*) WHERE A = true";
        let first = c.query(NodeId(0), q).unwrap();
        // Run a few queries to let pruning converge.
        for _ in 0..3 {
            c.query(NodeId(0), q).unwrap();
        }
        let later = c.query(NodeId(0), q).unwrap();
        assert_eq!(later.result, AggResult::Value(Value::Int(4)));
        assert!(
            later.messages < first.messages,
            "pruning should shrink query cost: first={} later={}",
            first.messages,
            later.messages
        );
    }

    #[test]
    fn group_membership_ground_truth_matches_query() {
        let mut c = small_cluster(24);
        for i in 0..24u32 {
            c.set_attr(NodeId(i), "CPU-Util", (i * 5) as i64);
        }
        let out = c
            .query(NodeId(1), "SELECT count(*) WHERE CPU-Util < 50")
            .unwrap();
        let pred = SimplePredicate::new("CPU-Util", moara_query::CmpOp::Lt, 50i64);
        let truth = c.group_members(&pred).len() as i64;
        assert_eq!(out.result, AggResult::Value(Value::Int(truth)));
    }

    #[test]
    fn global_query_counts_everyone() {
        let mut c = small_cluster(10);
        let out = c.query(NodeId(0), "SELECT count(*)").unwrap();
        assert_eq!(out.result, AggResult::Value(Value::Int(10)));
    }

    /// Checks every node's dense entry against a fresh `TreeTopology` of
    /// the directory's current ring.
    fn assert_matches_topology(dir: &Directory, key: Id, removed: &[NodeId]) {
        let inner = dir.inner.borrow();
        let topo = TreeTopology::build(&inner.ring, key);
        drop(inner);
        let tree = dir.tree(key);
        fn size_of(topo: &TreeTopology, id: Id) -> u64 {
            1 + topo.children(id).map(|c| size_of(topo, c)).sum::<u64>()
        }
        for i in 0..dir.inner.borrow().id_of.len() as u32 {
            let node = NodeId(i);
            if removed.contains(&node) {
                assert!(tree.children(node).is_empty(), "{node}");
                assert_eq!(tree.parent(node), None, "{node}");
                assert_eq!(tree.subtree_size(node), 0, "{node}");
                continue;
            }
            let id = dir.id_of(node);
            let kids: Vec<Id> = tree.children(node).iter().map(|&c| dir.id_of(c)).collect();
            assert_eq!(
                kids,
                topo.children(id).collect::<Vec<_>>(),
                "children of {node}"
            );
            assert_eq!(
                tree.parent(node).map(|p| dir.id_of(p)),
                topo.parent(id),
                "{node}"
            );
            assert_eq!(tree.subtree_size(node), size_of(&topo, id), "{node}");
        }
    }

    #[test]
    fn dense_trees_match_the_dht_topology_through_churn() {
        let ring = Ring::with_random_ids(512, 4, 3);
        let members: Vec<(NodeId, Id)> = ring
            .ids()
            .iter()
            .enumerate()
            .map(|(i, &id)| (NodeId(i as u32), id))
            .collect();
        let dir = Directory::from_members(&members, 4);
        let keys = ["ServiceX", "CPU-Util", "*"].map(Id::of_attribute);
        for key in keys {
            assert_matches_topology(&dir, key, &[]);
        }
        let gone = [NodeId(7), NodeId(300), dir.owner_node(keys[0])];
        for n in gone {
            dir.remove_member(n);
        }
        for key in keys {
            assert_matches_topology(&dir, key, &gone);
        }
        for n in gone {
            dir.revive_member(n);
        }
        for key in keys {
            assert_matches_topology(&dir, key, &[]);
        }
    }

    #[test]
    fn memoised_tree_keys_are_the_attribute_hashes() {
        let mut c = small_cluster(12);
        for i in 0..12u32 {
            c.set_attr(NodeId(i), "ServiceX", i % 3 == 0);
        }
        c.query(NodeId(2), "SELECT count(*) WHERE ServiceX = true")
            .unwrap();
        // Every node that built state for the group used the memo.
        let want = Id::of_attribute("ServiceX");
        for n in c.node_ids() {
            assert_eq!(c.node(n).pred_state("ServiceX=true").unwrap().tree, want);
        }
        // Any name, asked twice (a miss, then a hit), and past the cap.
        let dir = c.directory();
        let names: Vec<String> = ["", "*", "CPU-Util", "Mem Free", "ÄÖü"]
            .map(String::from)
            .into_iter()
            .chain((0..2 * NAMES_CAP + 3).map(|i| format!("attr-{i}")))
            .collect();
        for _ in 0..2 {
            for a in &names {
                assert_eq!(dir.tree_key(a), Id::of_attribute(a), "{a:?}");
            }
        }
        assert!(dir.inner.borrow().names.len() <= NAMES_CAP);
    }

    #[test]
    fn every_node_stores_the_one_shared_name() {
        let mut c = small_cluster(12);
        for i in 0..12u32 {
            c.set_attr(NodeId(i), "ServiceX", i % 3 == 0);
            c.set_attr(NodeId(i), "ServiceX", i % 2 == 0);
        }
        // A node that joins with the attribute takes the shared name too.
        c.add_node([("ServiceX".to_string(), Value::Bool(true))]);
        let (shared, _) = c.directory().attr("ServiceX");
        for n in c.node_ids() {
            let (name, _) = c.node(n).store.iter().next().expect("one attribute");
            assert_eq!(name.as_str().as_ptr(), shared.as_str().as_ptr(), "{n}");
        }
    }

    #[test]
    fn a_tree_is_shared_until_the_membership_changes() {
        let ring = Ring::with_random_ids(32, 4, 9);
        let members: Vec<(NodeId, Id)> = ring
            .ids()
            .iter()
            .enumerate()
            .map(|(i, &id)| (NodeId(i as u32), id))
            .collect();
        let dir = Directory::from_members(&members, 4);
        let key = dir.tree_key("ServiceX");
        let first = dir.tree(key);
        assert!(Rc::ptr_eq(&first, &dir.tree(key)), "built once");
        let victim = NodeId(5);
        dir.remove_member(victim);
        let without = dir.tree(key);
        assert!(!Rc::ptr_eq(&first, &without), "remove_member rebuilds");
        assert!(Rc::ptr_eq(&without, &dir.tree(key)));
        assert_eq!(without.subtree_size(victim), 0);
        assert_eq!(without.subtree_size(dir.owner_node(key)), 31);
        dir.revive_member(victim);
        let again = dir.tree(key);
        assert!(!Rc::ptr_eq(&without, &again), "revive_member rebuilds");
        assert_eq!(again.subtree_size(dir.owner_node(key)), 32);
    }

    #[test]
    fn tcp_cluster_answers_queries() {
        // The same protocol and codec over real loopback sockets.
        let mut c = Cluster::builder()
            .nodes(8)
            .seed(11)
            .build_tcp(TcpConfig::seeded(11));
        for i in 0..8u32 {
            c.set_attr(NodeId(i), "ServiceX", i % 2 == 0);
        }
        c.run_to_quiescence();
        let out = c
            .query(NodeId(1), "SELECT count(*) WHERE ServiceX = true")
            .unwrap();
        assert!(out.complete);
        assert_eq!(out.result, AggResult::Value(Value::Int(4)));
    }
}
