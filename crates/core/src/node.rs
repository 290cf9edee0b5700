//! The Moara node. One [`MoaraNode`] plays every role the paper
//! describes, depending on where a message finds it: *agent* (holds the
//! attribute store), *tree node* (forwards queries, aggregates replies,
//! maintains per-predicate prune state), *tree root* (assigns query
//! sequence numbers, answers size probes), and *front-end* (parses
//! nothing itself — it receives a parsed [`Query`] — but plans covers,
//! fires size probes, fans out sub-queries, and merges the final answer).
//! This reproduction adds a fifth role, the standing-query plane.
//!
//! This file holds the node, its predicate-state upkeep and churn
//! handling, routing, the timer-tag layout and the [`NetProtocol`]
//! dispatch. Each plane's own code is a submodule: `front` (the
//! front-end), `session` (a tree node's one-shot aggregation sessions)
//! and `subs` (standing subscriptions).

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::ops::Deref;
use std::rc::Rc;
use std::sync::Arc;

use moara_aggregation::{AggKind, AggState, NodeRef};
use moara_attributes::{AttrStore, Value};
use moara_dht::Id;
use moara_query::{Predicate, Query, SimplePredicate};
use moara_simnet::{MintedMap, NodeId, SimTime, TimerTag};
use moara_trace::{Phase, SpanRecord, SpanStore, TraceCtx};
use moara_transport::{NetCtx, NetProtocol};

use crate::cluster::Directory;
use crate::config::{GcPolicy, MoaraConfig, Mode};
use crate::msg::{MoaraMsg, PredKey, QueryId, GLOBAL_PRED};
use crate::sched::{BatchQueue, QuerySched};
use crate::state::{ChildInfo, PredState};

mod front;
mod session;
mod subs;

use front::FrontQuery;
pub use front::QueryOutcome;
use session::{DedupWindow, Sessions};
use subs::SubPlane;

/// A node's query counter keeps its low 40 bits for the count (seven
/// years at 5 k queries a second) and the bits above for the epoch set
/// by [`MoaraNode::set_query_epoch`]. The count is also the query's
/// front handle.
const QUERY_EPOCH_SHIFT: u32 = 40;

/// A per-query table: a [`MintedMap`] that gives its memory back when its
/// last entry leaves, so a node holds nothing for queries it has
/// finished. The next query's first entry allocates it again.
struct QueryTable<K, V>(MintedMap<K, V>);

impl<K, V> Default for QueryTable<K, V> {
    fn default() -> Self {
        QueryTable(MintedMap::default())
    }
}

impl<K, V> Deref for QueryTable<K, V> {
    type Target = MintedMap<K, V>;

    fn deref(&self) -> &MintedMap<K, V> {
        &self.0
    }
}

impl<K: Hash + Eq, V> QueryTable<K, V> {
    fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.0.get_mut(key)
    }

    fn entry(&mut self, key: K) -> std::collections::hash_map::Entry<'_, K, V> {
        self.0.entry(key)
    }

    fn insert(&mut self, key: K, value: V) {
        self.0.insert(key, value);
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        let value = self.0.remove(key);
        if self.0.is_empty() {
            self.clear();
        }
        value
    }

    fn clear(&mut self) {
        self.0 = MintedMap::default();
    }
}

/// A Moara agent/protocol instance hosted on one simulated machine.
pub struct MoaraNode {
    dir: Directory,
    /// The engine configuration, one copy shared by every node a host
    /// runs.
    cfg: Rc<MoaraConfig>,
    /// The node's local `(attribute, value)` store.
    pub store: AttrStore,
    states: HashMap<PredKey, PredState>,
    sessions: Sessions,
    contributed: DedupWindow,
    /// In-flight fronts by their handle, the count bits of their query
    /// id.
    fronts: QueryTable<u64, FrontQuery>,
    completed: QueryTable<u64, QueryOutcome>,
    /// The query-plane scheduler: probe-cost cache (with churn epoch) and
    /// the in-flight probe registry shared by all concurrent fronts.
    sched: QuerySched,
    /// The subscription plane, once the node takes part in one.
    subs: Option<Box<SubPlane>>,
    next_q: u64,
    /// Counter for session-timer tags.
    next_session_tag: u64,
    /// Span sink, when the host (daemon or cluster harness) attached one.
    tracer: Option<Arc<SpanStore>>,
}

impl MoaraNode {
    /// Creates a node bound to the shared overlay directory. A host
    /// running many nodes passes one `Rc` of the configuration to all.
    pub fn new(dir: Directory, cfg: impl Into<Rc<MoaraConfig>>) -> MoaraNode {
        let cfg = cfg.into();
        MoaraNode {
            dir,
            sched: QuerySched::new(cfg.probe_cache),
            cfg,
            store: AttrStore::new(),
            states: HashMap::new(),
            sessions: Sessions::default(),
            contributed: DedupWindow::default(),
            fronts: QueryTable::default(),
            completed: QueryTable::default(),
            subs: None,
            next_q: 0,
            next_session_tag: 0,
            tracer: None,
        }
    }

    /// The capacity this node's per-query tables hold — fronts,
    /// outcomes, sessions and subscription-plane timers; 0 once every
    /// query has finished and its outcome was taken (tests/inspection).
    #[doc(hidden)]
    pub fn per_query_footprint(&self) -> usize {
        let timers = self.subs.as_ref().map_or(0, |p| p.timers.capacity());
        self.fronts.capacity()
            + self.completed.capacity()
            + self.sessions.by_query.capacity()
            + timers
    }

    /// Starts this node's query-id counter in an epoch of its own
    /// (`epoch` in the bits above `QUERY_EPOCH_SHIFT`). A host that can
    /// restart under the same node id passes a value every restart
    /// changes — the daemon, its membership incarnation — because peers
    /// remember the previous life's ids for `dedup_ttl` and would answer
    /// identity to a counter that began at 0 again. The simulator never
    /// restarts a node's counter and leaves the epoch at 0. Call it before
    /// the first [`MoaraNode::submit`]: front handles are the counter's
    /// count bits, which the epoch restarts.
    pub fn set_query_epoch(&mut self, epoch: u64) {
        self.next_q = epoch << QUERY_EPOCH_SHIFT;
    }

    /// Attaches a span store: subsequent sampled queries, probes, and
    /// delta pushes record phase spans there. The store may be shared
    /// across nodes (cluster harness) or per-daemon.
    pub fn set_tracer(&mut self, tracer: Arc<SpanStore>) {
        self.tracer = Some(tracer);
    }

    /// The attached span store, if any.
    pub fn tracer(&self) -> Option<&Arc<SpanStore>> {
        self.tracer.as_ref()
    }

    /// Records one span of `phase` at this node, now, under `parent`,
    /// and returns the descended context (`span_id` = the new span) for
    /// downstream messages. `None` when tracing is off or the parent
    /// context is unsampled — callers thread the result straight into
    /// the wire field.
    fn trace_span(
        &self,
        ctx: &dyn NetCtx<MoaraMsg>,
        parent: Option<TraceCtx>,
        phase: Phase,
        peer: u32,
        queue_us: u64,
        detail: fmt::Arguments<'_>,
    ) -> Option<TraceCtx> {
        let tracer = self.tracer.as_ref().filter(|t| t.enabled())?;
        let parent = parent.filter(TraceCtx::sampled)?;
        let span = parent.descend(tracer.next_span_id(ctx.me().0));
        self.record_span(ctx, span, phase, peer, queue_us, detail);
        Some(span)
    }

    /// Records the span `span` names (its id, under its parent) at this
    /// node, ending now. The engine measures no service time or bytes: a
    /// span's one duration is `queue_us`, the wait it ends. `detail` is
    /// formatted only when the span is recorded, straight into the store.
    fn record_span(
        &self,
        ctx: &dyn NetCtx<MoaraMsg>,
        span: TraceCtx,
        phase: Phase,
        peer: u32,
        queue_us: u64,
        detail: fmt::Arguments<'_>,
    ) {
        let Some(tracer) = &self.tracer else {
            return;
        };
        let record = SpanRecord {
            trace_id: span.trace_id,
            span_id: span.span_id,
            parent_span_id: span.parent_span_id,
            node: ctx.me().0,
            phase,
            peer,
            start_us: ctx.now().as_micros().saturating_sub(queue_us),
            queue_us,
            service_us: 0,
            bytes: 0,
            detail: String::new(),
        };
        tracer.record_args(record, detail);
    }

    /// Number of probe costs currently cached at this front-end
    /// (tests/inspection).
    pub fn probe_cache_len(&self) -> usize {
        self.sched.cache.len()
    }

    /// The overlay this node routes by; every handle on it sees a change
    /// made through any other.
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// The probe cache's churn epoch (tests/inspection).
    pub fn probe_cache_epoch(&self) -> u64 {
        self.sched.cache.epoch()
    }

    /// Read access to the per-predicate protocol state (tests/inspection).
    pub fn pred_state(&self, pred_key: &str) -> Option<&PredState> {
        self.states.get(pred_key)
    }

    /// Number of predicate trees this node currently tracks.
    pub fn tracked_predicates(&self) -> usize {
        self.states.len()
    }

    /// Applies the configured garbage-collection policy: NO-UPDATE states
    /// are safe to discard (the parent's default already forwards queries
    /// to this node), so eviction never affects completeness. Returns
    /// whether any state went.
    fn maybe_gc(&mut self, now: SimTime) -> bool {
        let before = self.states.len();
        // Only states a query or status has touched age out.
        let evictable = |st: &PredState| st.last_active.filter(|_| !st.update);
        match self.cfg.gc {
            GcPolicy::Never => {}
            GcPolicy::IdleTimeout(ttl) => self
                .states
                .retain(|_, st| evictable(st).is_none_or(|t| now.duration_since(t) < ttl)),
            GcPolicy::KeepMostRecent(cap) if self.states.len() > cap => {
                let mut by_age: Vec<(SimTime, PredKey)> = self
                    .states
                    .iter()
                    .filter_map(|(k, st)| Some((evictable(st)?, k.clone())))
                    .collect();
                by_age.sort();
                let excess = self.states.len().saturating_sub(cap);
                for (_, k) in by_age.into_iter().take(excess) {
                    self.states.remove(&k);
                }
            }
            GcPolicy::KeepMostRecent(_) => {}
        }
        self.states.len() != before
    }

    /// The node's own value for the query, as a partial aggregate.
    fn local_contribution(&self, me: NodeId, query: &Query) -> AggState {
        let node = NodeRef(me.0 as u64);
        match query.agg {
            AggKind::Count | AggKind::Enumerate => query
                .agg
                .seed(node, &Value::Bool(true))
                .unwrap_or(AggState::Null),
            _ => {
                let Some(attr) = &query.attr else {
                    return AggState::Null;
                };
                match self.store.get(attr.as_str()) {
                    Some(v) => query.agg.seed(node, v).unwrap_or(AggState::Null),
                    None => AggState::Null,
                }
            }
        }
    }

    // ----- routing ------------------------------------------------------

    /// Forwards a routed payload one hop, in the box it arrived in.
    fn route(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, key: Id, inner: Box<MoaraMsg>) {
        match self.dir.next_hop_node(ctx.me(), key) {
            Some(next) => ctx.send(next, MoaraMsg::Route { key, inner }),
            None => self.handle_at_root(ctx, key, *inner),
        }
    }

    /// Routes several messages at once, coalescing those that share a
    /// next hop into one [`MoaraMsg::Batch`] frame. Called on front-end
    /// fan-out and again whenever a batch is unpacked at an intermediate
    /// hop, so shared overlay path prefixes are paid for once.
    fn route_many(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, items: Vec<(Id, Box<MoaraMsg>)>) {
        let me = ctx.me();
        let mut queue = BatchQueue::new();
        for (key, inner) in items {
            match self.dir.next_hop_node(me, key) {
                Some(next) => queue.push_remote(next, key, inner),
                None => queue.push_local(key, inner),
            }
        }
        for (key, inner) in queue.flush(ctx) {
            self.handle_at_root(ctx, key, *inner);
        }
    }

    fn handle_at_root(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, _key: Id, inner: MoaraMsg) {
        match inner {
            MoaraMsg::QueryDown {
                qid,
                pred_key,
                tree,
                query,
                reply_to,
                trace,
                ..
            } => {
                let seq = self.next_tree_seq(ctx.me(), &pred_key, &query);
                self.handle_query_down(ctx, qid, seq, pred_key, tree, query, reply_to, trace);
            }
            MoaraMsg::SizeProbe {
                qid,
                pred_key,
                reply_to,
                trace,
            } => self.answer_size_probe(ctx, qid, pred_key, reply_to, trace),
            MoaraMsg::Subscribe {
                spec,
                pred_key,
                tree,
                ..
            } => {
                // Arrived at the tree root: deltas go to the subscriber,
                // and the root stamps the install's tree sequence number
                // (installs count as queries for adaptation, Section 4).
                let seq = self.next_tree_seq(ctx.me(), &pred_key, &spec.query);
                self.handle_subscribe(ctx, None, spec, pred_key, tree, seq);
            }
            MoaraMsg::SubRenew {
                sid,
                pred_key,
                lease_us,
                last_seen_seq,
            } => {
                self.handle_sub_renew(ctx, None, sid, pred_key, lease_us, last_seen_seq);
            }
            MoaraMsg::SubCancel { sid, pred_key } => {
                self.handle_sub_cancel(ctx, None, sid, pred_key);
            }
            other => {
                debug_assert!(false, "unexpected routed payload {other:?}");
            }
        }
    }

    /// Answers a size probe (routed to this root, or a stray direct one):
    /// the probe span records this hop's view, and the reply carries its
    /// descendant so the asking front-end can place the round-trip.
    fn answer_size_probe(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        qid: QueryId,
        pred_key: PredKey,
        reply_to: NodeId,
        trace: Option<TraceCtx>,
    ) {
        let cost = self.estimated_query_cost(ctx.me(), &pred_key);
        let t = self.trace_span(
            ctx,
            trace,
            Phase::Probe,
            reply_to.0,
            0,
            format_args!("cost={cost}"),
        );
        ctx.send(
            reply_to,
            MoaraMsg::SizeReply {
                qid,
                pred_key,
                cost,
                trace: t,
            },
        );
    }

    /// The root's query-cost estimate: `2 × np`, or twice the system size
    /// when the tree has no state yet (a cold tree broadcasts).
    fn estimated_query_cost(&self, me: NodeId, pred_key: &str) -> u64 {
        match self.states.get(pred_key) {
            Some(st) => {
                let tree = self.dir.tree(st.tree);
                2 * st.np(me, tree.children(me), |c| tree.subtree_size(c))
            }
            None => (self.dir.ring_size() as u64).saturating_mul(2),
        }
    }

    // ----- predicate state ----------------------------------------------

    /// The state of the group `key` names, created on first sight from the
    /// predicate `pred` supplies — one hash of `key` either way. `None`
    /// when there is no state and `pred` supplies none.
    fn state_entry<'s>(
        states: &'s mut HashMap<PredKey, PredState>,
        dir: &Directory,
        cfg: &MoaraConfig,
        me: NodeId,
        key: &PredKey,
        pred: impl FnOnce() -> Option<SimplePredicate>,
    ) -> Option<&'s mut PredState> {
        use std::collections::hash_map::Entry;
        match states.entry(key.clone()) {
            Entry::Occupied(e) => Some(e.into_mut()),
            Entry::Vacant(e) => {
                let pred = pred()?;
                let tree = dir.tree_key(pred.attr.as_str());
                // Fresh state starts with an empty updateSet and NO-UPDATE —
                // the first query therefore counts as `qn` (the paper: nodes
                // "move into UPDATE state with the first query message") and
                // the caller refreshes the sets right after.
                let mut st = PredState::new(
                    pred,
                    tree,
                    cfg.k_update,
                    cfg.k_no_update,
                    cfg.threshold,
                    cfg.mode == Mode::AlwaysUpdate,
                );
                st.parent = dir.tree(tree).parent(me);
                Some(e.insert(st))
            }
        }
    }

    /// The tree sequence number the root stamps on a query or install of
    /// `pred_key` (Section 4), creating the tree's state from the group's
    /// atom in `query`; 0 on the global tree, which keeps no state.
    fn next_tree_seq(&mut self, me: NodeId, pred_key: &PredKey, query: &Query) -> u64 {
        if &**pred_key == GLOBAL_PRED {
            return 0;
        }
        let atom = || find_atom(query, pred_key).cloned();
        match Self::state_entry(&mut self.states, &self.dir, &self.cfg, me, pred_key, atom) {
            Some(st) => {
                st.seq_counter += 1;
                st.seq_counter
            }
            None => 0,
        }
    }

    /// Installs predicate state without sending anything (cluster-level
    /// pre-registration for the Always-Update baseline).
    pub fn install_state(&mut self, me: NodeId, pred: &SimplePredicate) {
        let key = pred.key().into();
        Self::state_entry(&mut self.states, &self.dir, &self.cfg, me, &key, || {
            Some(pred.clone())
        });
    }

    /// Sends a status update to the tree parent if the state demands one,
    /// cascading lazily via the parent's own handler.
    fn send_status(
        ctx: &mut dyn NetCtx<MoaraMsg>,
        dir: &Directory,
        pred_key: &PredKey,
        st: &mut PredState,
    ) {
        let me = ctx.me();
        let Some(out) = st.status_to_send(me) else {
            return;
        };
        let tree = dir.tree(st.tree);
        let Some(parent) = tree.parent(me) else {
            return; // root has nobody to update
        };
        let np = st.np(me, tree.children(me), |c| tree.subtree_size(c));
        let msg = MoaraMsg::Status {
            pred_key: pred_key.clone(),
            pred: st.pred.clone(),
            prune: out.prune,
            update_set: out.update_set,
            np,
            last_seq: st.last_seen_seq,
        };
        ctx.send(parent, msg);
        ctx.count("status_updates");
    }

    /// Re-evaluates local satisfaction for every predicate over `attr`
    /// after a local attribute change ("group churn" at this node).
    pub fn on_local_change(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, attr: &str) {
        // Local churn is direct evidence that group sizes moved; drop all
        // cached probe costs so the next composite query re-probes.
        self.sched.cache.bump_epoch();
        let me = ctx.me();
        for (key, st) in &mut self.states {
            if st.pred.attr.as_str() != attr {
                continue;
            }
            let tree = self.dir.tree(st.tree);
            let sat = st.pred.eval(&self.store);
            st.refresh(me, sat, tree.children(me));
            Self::send_status(ctx, &self.dir, key, st);
        }
        // Standing subscriptions react to the same change: the local
        // contribution is re-derived and any movement pushes a delta.
        self.subs_on_local_change(ctx);
    }

    /// Reconciles all predicate states with the current overlay topology
    /// (after joins/failures): drops ex-children, re-introduces state to
    /// new parents (Section 7's reconfiguration handling).
    pub fn reconcile(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>) {
        // Overlay reconfiguration invalidates cached probe costs: tree
        // shapes (and thus per-tree query costs) may have changed.
        self.sched.cache.bump_epoch();
        let me = ctx.me();
        for (key, st) in &mut self.states {
            let tree = self.dir.tree(st.tree);
            let children = tree.children(me);
            st.retain_children(children);
            let new_parent = tree.parent(me);
            if st.parent != new_parent {
                st.parent = new_parent;
                // The new parent assumes the default about us; resend our
                // state if it differs.
                st.sent = None;
            }
            let sat = st.pred.eval(&self.store);
            st.refresh(me, sat, children);
            Self::send_status(ctx, &self.dir, key, st);
        }
        // Standing subscriptions repair along the reconciled trees.
        self.subs_on_reconcile(ctx);
    }

    /// Resets protocol state that cannot have survived a crash-restart
    /// (or a long partition) intact, then re-enters this node's groups'
    /// trees via [`MoaraNode::reconcile`]. Everything discarded here is
    /// *safe* to discard: a cleared child entry degrades to the default
    /// (NO-PRUNE, forward directly) and `sent = None` makes the next
    /// status comparison against the parent's default — so the trees
    /// rebuild their pruning lazily while completeness holds throughout.
    pub fn on_rejoin(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>) {
        for st in self.states.values_mut() {
            // Children may have changed state (or died) while we were
            // gone; their reports are stale testimony.
            st.children.clear();
            // The parent has long since dropped us (or was never told
            // about us): whatever we believe we sent, it no longer knows.
            st.sent = None;
            st.parent = None;
        }
        // In-flight work addressed to the pre-crash process is void.
        self.sessions.clear();
        self.fronts.clear();
        self.sched.waiters.clear();
        self.sched.cache.bump_epoch();
        // Standing subscription state is likewise void: hosted entries
        // are re-installed by the parents' repair wave, and this node's
        // own watches did not survive the crash (their subscribers are
        // gone with the process).
        if let Some(plane) = &mut self.subs {
            plane.reset();
        }
        self.reconcile(ctx);
    }

    /// Treats `failed` as having answered NULL in any pending session —
    /// the engine's analogue of FreePastry's failure notification.
    pub fn on_peer_failed(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, failed: NodeId) {
        self.sessions_on_peer_failed(ctx, failed);
        // Standing subscriptions retract the failed child's summary at
        // once — the result shrinks within the same failure confirm that
        // triggered this hook (the rest of its subtree is re-adopted by
        // the reconcile that follows).
        self.subs_on_peer_failed(ctx, failed);
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_status(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        from: NodeId,
        pred_key: PredKey,
        pred: SimplePredicate,
        prune: bool,
        update_set: Vec<NodeId>,
        np: u64,
        last_seq: u64,
    ) {
        let me = ctx.me();
        // Status traffic is churn evidence for exactly this predicate's
        // tree: drop its cached probe cost, keep the rest.
        self.sched.cache.invalidate(&pred_key);
        let st = Self::state_entry(
            &mut self.states,
            &self.dir,
            &self.cfg,
            me,
            &pred_key,
            || Some(pred),
        )
        .expect("a status carries its predicate");
        st.note_child_status(
            from,
            ChildInfo {
                prune,
                update_set,
                np,
            },
        );
        st.account_seq(last_seq);
        let tree = self.dir.tree(st.tree);
        let sat = st.pred.eval(&self.store);
        st.refresh(me, sat, tree.children(me));
        Self::send_status(ctx, &self.dir, &pred_key, st);
        st.last_active = Some(ctx.now());
        self.maybe_gc(ctx.now());
        // Status traffic is the install-repair trigger for standing
        // subscriptions on this tree: a branch that just un-pruned
        // (a node joined the group down there) gets the install, a
        // branch that pruned is released.
        self.subs_on_status(ctx, &pred_key);
    }
}

/// Finds the simple predicate with key `pred_key` inside the query's
/// composite predicate (sub-queries name their group by key): the first
/// in [`Predicate::atoms`] order, found without building any key.
fn find_atom<'q>(query: &'q Query, pred_key: &str) -> Option<&'q SimplePredicate> {
    fn walk<'p>(p: &'p Predicate, key: &str) -> Option<&'p SimplePredicate> {
        match p {
            Predicate::All => None,
            Predicate::Atom(a) => a.has_key(key).then_some(a),
            Predicate::And(ps) | Predicate::Or(ps) => ps.iter().find_map(|p| walk(p, key)),
        }
    }
    walk(&query.predicate, pred_key)
}

/// One routed message per tree of `roots`, for [`MoaraNode::route_many`].
/// Given a `Vec`, the result reuses its allocation (an in-place collect),
/// so a fan-out allocates no second list.
fn per_root(
    roots: impl IntoIterator<Item = (PredKey, Id)>,
    msg: impl Fn(PredKey, Id) -> MoaraMsg,
) -> Vec<(Id, Box<MoaraMsg>)> {
    let each = |(key, tree)| (tree, Box::new(msg(key, tree)));
    roots.into_iter().map(each).collect()
}

// ----- timer tags --------------------------------------------------------
//
// A timer tag names its owner in its high bits, and `on_timer` routes by
// them:
// * bit 63 — the membership detector's; a daemon routes those to it and
//   the node never arms one;
// * bit 62 (`TAG_SESSION`) — a session's child timer, a per-node counter
//   below, found by scanning the open sessions;
// * bit 61 (`TAG_FRONT`) — a front's probe or deadline timer, its front
//   handle below;
// * none of them — the subscription plane's, counting up from 0 in
//   `SubPlane::timers`.
// Sessions and fronts thus take no entry in a timer table.

/// A session's child timer: a per-node counter in the bits below.
const TAG_SESSION: TimerTag = 1 << 62;
/// A front's timer: the front handle in the bits below.
const TAG_FRONT: TimerTag = 1 << 61;

impl NetProtocol for MoaraNode {
    type Msg = MoaraMsg;

    fn on_message(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, from: NodeId, msg: MoaraMsg) {
        match msg {
            MoaraMsg::Route { key, inner } => self.route(ctx, key, inner),
            MoaraMsg::QueryDown {
                qid,
                seq,
                pred_key,
                tree,
                query,
                reply_to,
                trace,
            } => self.handle_query_down(ctx, qid, seq, pred_key, tree, query, reply_to, trace),
            MoaraMsg::QueryReply {
                qid,
                pred_key,
                state,
                np,
                complete,
                trace: _,
            } => self.handle_query_reply(ctx, from, qid, pred_key, state, np, complete),
            MoaraMsg::Status {
                pred_key,
                pred,
                prune,
                update_set,
                np,
                last_seq,
            } => self.handle_status(ctx, from, pred_key, pred, prune, update_set, np, last_seq),
            MoaraMsg::SizeProbe {
                qid,
                pred_key,
                reply_to,
                trace,
            } => {
                // Only roots receive probes (via Route), but handle a
                // stray direct probe gracefully.
                self.answer_size_probe(ctx, qid, pred_key, reply_to, trace);
            }
            MoaraMsg::SizeReply {
                qid,
                pred_key,
                cost,
                trace: _,
            } => {
                self.handle_size_reply(ctx, qid, pred_key, cost);
            }
            MoaraMsg::Batch { items } => {
                // Unpack: each item behaves as if it had arrived alone.
                // Route items are collected and re-forwarded together so
                // they re-coalesce for their next shared hop.
                let mut routed: Vec<(Id, Box<MoaraMsg>)> = Vec::new();
                for item in items {
                    match item {
                        MoaraMsg::Route { key, inner } => routed.push((key, inner)),
                        other => self.on_message(ctx, from, other),
                    }
                }
                self.route_many(ctx, routed);
            }
            MoaraMsg::Subscribe {
                spec,
                pred_key,
                tree,
                seq,
            } => self.handle_subscribe(ctx, Some(from), spec, pred_key, tree, seq),
            MoaraMsg::SubDelta {
                sid,
                pred_key,
                seq,
                state,
                trace,
            } => {
                // Implicit causal slot: any push (or watch delivery) this
                // delta triggers while it is being folded chains to it.
                if let Some(plane) = &mut self.subs {
                    plane.delta_ctx = trace;
                }
                self.handle_sub_delta(ctx, from, sid, pred_key, seq, state);
                if let Some(plane) = &mut self.subs {
                    plane.delta_ctx = None;
                }
            }
            MoaraMsg::SubRenew {
                sid,
                pred_key,
                lease_us,
                last_seen_seq,
            } => self.handle_sub_renew(ctx, Some(from), sid, pred_key, lease_us, last_seen_seq),
            MoaraMsg::SubCancel { sid, pred_key } => {
                self.handle_sub_cancel(ctx, Some(from), sid, pred_key);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, tag: TimerTag) {
        if tag & TAG_SESSION != 0 {
            self.on_session_timer(ctx, tag);
        } else if tag & TAG_FRONT != 0 {
            self.on_front_timer(ctx, tag & !TAG_FRONT);
        } else {
            self.on_sub_timer(ctx, tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::session::{SeenId, DEDUP_GENERATION};
    use super::*;
    use moara_query::parse_query;
    use moara_simnet::{SimDuration, TimerId};
    use moara_subscribe::DeliveryPolicy;

    /// A `NetCtx` that records what a handler sends and which timers it
    /// arms, at time zero.
    struct Recorder {
        me: NodeId,
        sent: Vec<(NodeId, MoaraMsg)>,
        timers: Vec<TimerTag>,
    }

    impl Recorder {
        fn new(me: NodeId) -> Recorder {
            Recorder {
                me,
                sent: Vec::new(),
                timers: Vec::new(),
            }
        }
    }

    impl NetCtx<MoaraMsg> for Recorder {
        fn now(&self) -> SimTime {
            SimTime(0)
        }
        fn me(&self) -> NodeId {
            self.me
        }
        fn send(&mut self, to: NodeId, msg: MoaraMsg) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, _delay: SimDuration, tag: TimerTag) -> TimerId {
            self.timers.push(tag);
            TimerId::from_raw(tag)
        }
        fn set_maintenance_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId {
            self.set_timer(delay, tag)
        }
        fn cancel_timer(&mut self, _id: TimerId) {}
        fn count(&mut self, _name: &'static str) {}
    }

    /// A two-node overlay in which `NodeId(0)` roots the trees of the
    /// two returned group attributes and `NodeId(1)` is its only child.
    fn two_node_overlay() -> (Directory, [String; 2]) {
        let dir = Directory::from_members(&[(NodeId(0), Id(1 << 62)), (NodeId(1), Id(3 << 62))], 4);
        let mut attrs = (0..)
            .map(|i| format!("G{i}"))
            .filter(|a| dir.owner_node(dir.tree_key(a)) == NodeId(0));
        let attrs = [attrs.next().unwrap(), attrs.next().unwrap()];
        (dir, attrs)
    }

    /// A node of the two-node overlay counting its queries in epoch 3,
    /// with a recorder, and the two group attributes.
    fn in_epoch_3(me: NodeId) -> (MoaraNode, Recorder, [String; 2]) {
        let (dir, attrs) = two_node_overlay();
        let mut n = MoaraNode::new(dir, MoaraConfig::default());
        n.set_query_epoch(3);
        (n, Recorder::new(me), attrs)
    }

    fn query(text: &str) -> Query {
        parse_query(text).unwrap()
    }

    /// The messages sent since the last call, out of their routing
    /// envelopes and batches.
    fn delivered(ctx: &mut Recorder) -> Vec<MoaraMsg> {
        fn open(msg: MoaraMsg, out: &mut Vec<MoaraMsg>) {
            match msg {
                MoaraMsg::Route { inner, .. } => open(*inner, out),
                MoaraMsg::Batch { items } => items.into_iter().for_each(|m| open(m, out)),
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        ctx.sent.drain(..).for_each(|(_, m)| open(m, &mut out));
        out
    }

    fn epoch_3_qid(origin: u32, count: u64) -> QueryId {
        QueryId {
            origin: NodeId(origin),
            n: 3 << QUERY_EPOCH_SHIFT | count,
        }
    }

    #[test]
    fn query_epoch_keeps_a_restarted_counter_off_its_old_ids() {
        let (dir, _) = two_node_overlay();
        let mut n = MoaraNode::new(dir, MoaraConfig::default());
        assert_eq!(n.next_q, 0, "the simulator's ids start at 0");
        n.set_query_epoch(2);
        assert_eq!(n.next_q, 2 << QUERY_EPOCH_SHIFT);
        // The accounting tag (and so the trace id) is origin + low bits:
        // the epoch does not reach it.
        assert_eq!(qid(n.next_q).tag(), qid(0).tag());
    }

    #[test]
    fn an_unanswered_probe_dispatches_the_front_at_the_probe_timeout() {
        let (mut n, mut ctx, [a, b]) = in_epoch_3(NodeId(1));
        // Two groups intersected: two candidate covers, so it probes.
        let text = format!("SELECT count(*) WHERE {a} = true AND {b} = true");
        let front = n.submit(&mut ctx, query(&text));
        assert_eq!(front, 0, "the handle is the query's count");
        let probes = delivered(&mut ctx);
        assert!(
            probes.len() == 2
                && probes
                    .iter()
                    .all(|m| matches!(m, MoaraMsg::SizeProbe { .. }))
        );
        assert_eq!(ctx.timers, [TAG_FRONT | front]);

        n.on_timer(&mut ctx, TAG_FRONT | front);
        let subs = delivered(&mut ctx);
        assert!(
            matches!(&subs[..], [MoaraMsg::QueryDown { qid, .. }] if *qid == epoch_3_qid(1, 0)),
            "one sub-query on the worst-case cover: {subs:?}"
        );
        assert_eq!(ctx.timers, [TAG_FRONT | front; 2], "and the deadline");
        assert!(n.take_outcome(front).is_none());
    }

    #[test]
    fn an_unanswered_sub_query_finishes_the_front_at_its_deadline() {
        let (mut n, mut ctx, [a, _]) = in_epoch_3(NodeId(1));
        let text = format!("SELECT count(*) WHERE {a} = true");
        let late = n.submit(&mut ctx, query(&text));
        let answered = n.submit(&mut ctx, query(&text));
        assert_eq!((late, answered), (0, 1));
        assert_eq!(ctx.timers, [TAG_FRONT | late, TAG_FRONT | answered]);
        let reply = |qid, state| MoaraMsg::QueryReply {
            qid,
            pred_key: format!("{a}=true").into(),
            state,
            np: 1,
            complete: true,
            trace: None,
        };
        // The root's answer finds its front by the query id: a reply to
        // the same count in another epoch is not this front's.
        let stale = reply(
            QueryId {
                n: 1,
                ..epoch_3_qid(1, 1)
            },
            AggState::Count(5),
        );
        n.on_message(&mut ctx, NodeId(0), stale);
        assert!(n.outcome(answered).is_none());
        n.on_message(
            &mut ctx,
            NodeId(0),
            reply(epoch_3_qid(1, 1), AggState::Count(2)),
        );
        let out = n.take_outcome(answered).expect("answered");
        assert!(out.complete);
        assert_eq!(out.result.to_string(), "2");

        n.on_timer(&mut ctx, TAG_FRONT | late);
        let out = n.take_outcome(late).expect("the deadline finishes it");
        assert!(!out.complete);
        assert_eq!(out.qid, epoch_3_qid(1, 0));
        // A straggler after the deadline finds no front.
        n.on_message(
            &mut ctx,
            NodeId(0),
            reply(epoch_3_qid(1, 0), AggState::Count(1)),
        );
        assert!(n.outcome(late).is_none());
        assert_eq!(n.per_query_footprint(), 0);
    }

    #[test]
    fn a_session_timer_moves_only_its_own_session() {
        let (mut n, mut ctx, [a, b]) = in_epoch_3(NodeId(0));
        // Node 0 fronts a query on `b`'s tree, which it roots: a front
        // and a session of its own, waiting on child node 1.
        let own = n.submit(
            &mut ctx,
            query(&format!("SELECT count(*) WHERE {b} = true")),
        );
        // And it hosts a session of node 1's query on `a`'s tree.
        let down = MoaraMsg::QueryDown {
            qid: epoch_3_qid(1, 0),
            seq: 1,
            pred_key: format!("{a}=true").into(),
            tree: n.dir.tree_key(&a),
            query: query(&format!("SELECT count(*) WHERE {a} = true")),
            reply_to: NodeId(1),
            trace: None,
        };
        n.on_message(&mut ctx, NodeId(1), down);
        let [front_tag, own_session, hosted_session] = ctx.timers[..] else {
            panic!("a deadline and two child timers: {:?}", ctx.timers);
        };
        assert_eq!(front_tag, TAG_FRONT | own);
        assert_eq!(
            [own_session, hosted_session],
            [TAG_SESSION, TAG_SESSION | 1]
        );
        ctx.sent.clear();

        n.on_timer(&mut ctx, hosted_session);
        let sent: Vec<_> = ctx.sent.drain(..).collect();
        assert!(
            matches!(&sent[..], [(NodeId(1), MoaraMsg::QueryReply { qid, complete: false, .. })] if *qid == epoch_3_qid(1, 0)),
            "only the hosted session answers, incomplete: {sent:?}"
        );
        assert!(n.outcome(own).is_none(), "the front still waits");

        n.on_timer(&mut ctx, front_tag);
        assert!(ctx.sent.is_empty(), "the deadline sends nothing");
        assert!(!n.take_outcome(own).expect("finished").complete);
        assert_eq!(
            n.sessions.by_query.len(),
            1,
            "the own session is still open"
        );
    }

    #[test]
    fn no_tag_the_node_arms_is_the_membership_detectors() {
        let (mut n, mut ctx, [a, b]) = in_epoch_3(NodeId(0));
        // The highest epoch sets every bit above the count, bit 63 too.
        n.set_query_epoch(u64::MAX >> QUERY_EPOCH_SHIFT);
        let both = format!("SELECT count(*) WHERE {a} = true AND {b} = true");
        n.submit(&mut ctx, query(&both));
        n.submit(
            &mut ctx,
            query(&format!("SELECT count(*) WHERE {b} = true")),
        );
        n.subscribe(
            &mut ctx,
            query(&format!("SELECT count(*) WHERE {a} = true")),
            DeliveryPolicy::Periodic(SimDuration::from_secs(1)),
            SimDuration::from_secs(30),
        );
        let fronts = ctx.timers.iter().filter(|&&t| t & TAG_FRONT != 0).count();
        let sessions = ctx.timers.iter().filter(|&&t| t & TAG_SESSION != 0).count();
        assert!(fronts >= 2 && sessions >= 1, "{:x?}", ctx.timers);
        assert!(ctx.timers.len() > fronts + sessions, "and the plane's");
        for tag in &ctx.timers {
            assert_eq!(tag >> 63, 0, "{tag:#x} is routed to the detector");
        }
    }

    fn qid(n: u64) -> QueryId {
        QueryId {
            origin: NodeId(3),
            n,
        }
    }

    #[test]
    fn dedup_window_is_bounded_by_count_and_by_age() {
        let ttl = MoaraConfig::default().dedup_ttl;
        let mut w = DedupWindow::default();
        // A million queries inside one `dedup_ttl`: 5 k a second.
        for i in 0..1_000_000u64 {
            w.insert(&qid(i), SimTime(i * 200), ttl);
            assert!(w.len() <= 2 * DEDUP_GENERATION);
        }
        // The newest generation's worth is always there, so a second
        // tree's `QueryDown` for a query in flight is still suppressed.
        for i in 1_000_000 - DEDUP_GENERATION as u64..1_000_000 {
            assert!(w.contains(&qid(i)), "{i}");
        }
        assert!(!w.contains(&qid(0)));

        // Age rotates too, on insert: an id is kept for at least
        // `dedup_ttl`, and the second insert a `dedup_ttl` later drops it.
        let t0 = 1_000_000 * 200;
        w.insert(&qid(1_000_000), SimTime(t0 + ttl.as_micros()), ttl);
        assert!(w.contains(&qid(999_999)));
        w.insert(&qid(1_000_001), SimTime(t0 + 2 * ttl.as_micros()), ttl);
        assert!(!w.contains(&qid(999_999)));
        assert!(w.contains(&qid(1_000_000)));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn dedup_ids_stay_distinct_in_twelve_bytes() {
        assert_eq!(std::mem::size_of::<SeenId>(), 12);
        assert_eq!(std::mem::align_of::<SeenId>(), 4);
        let ttl = MoaraConfig::default().dedup_ttl;
        let base = QueryId {
            origin: NodeId(3),
            n: (5 << QUERY_EPOCH_SHIFT) | 77,
        };
        let epoch_bit = |bit: u32| QueryId {
            n: base.n ^ (1 << bit),
            ..base
        };
        let twins = [
            // Only the origin differs.
            QueryId {
                origin: NodeId(4),
                ..base
            },
            QueryId {
                origin: NodeId(u32::MAX),
                ..base
            },
            // Only the count differs, below and above the halves' seam.
            QueryId {
                n: base.n + 1,
                ..base
            },
            epoch_bit(32),
            // Only an epoch bit differs: the lowest and the highest.
            epoch_bit(QUERY_EPOCH_SHIFT),
            epoch_bit(63),
        ];
        let mut w = DedupWindow::default();
        w.insert(&base, SimTime(0), ttl);
        for (i, twin) in twins.iter().enumerate() {
            assert!(!w.contains(twin), "{twin:?} reads as seen");
            w.insert(twin, SimTime(1), ttl);
            assert!(w.contains(twin), "{twin:?} is not kept");
            assert!(twins[i + 1..].iter().all(|t| !w.contains(t)));
        }
        assert!(w.contains(&base));
        assert_eq!(w.len(), 1 + twins.len());
    }

    /// `NodeId(0)` of the two-node overlay, which roots the trees of two
    /// group attributes and whose only child is the front-end. Returns
    /// the node, its recorder, the query
    /// `SELECT count(*) WHERE a = true OR b = true` and each group's
    /// `(key, tree)`.
    fn two_tree_root() -> (MoaraNode, Recorder, Query, [(PredKey, Id); 2]) {
        let (dir, attrs) = two_node_overlay();
        let query = parse_query(&format!(
            "SELECT count(*) WHERE {} = true OR {} = true",
            attrs[0], attrs[1]
        ))
        .unwrap();
        let groups = [0, 1].map(|i| {
            let key: PredKey = format!("{}=true", attrs[i]).into();
            assert!(find_atom(&query, &key).is_some(), "{key} names an atom");
            (key, dir.tree_key(&attrs[i]))
        });
        (
            MoaraNode::new(dir, MoaraConfig::default()),
            Recorder::new(NodeId(0)),
            query,
            groups,
        )
    }

    fn query_down(qid: QueryId, (key, tree): &(PredKey, Id), query: &Query) -> MoaraMsg {
        MoaraMsg::QueryDown {
            qid,
            seq: 1,
            pred_key: key.clone(),
            tree: *tree,
            query: query.clone(),
            reply_to: NodeId(1),
            trace: None,
        }
    }

    fn reply(qid: QueryId, (key, _): &(PredKey, Id)) -> MoaraMsg {
        MoaraMsg::QueryReply {
            qid,
            pred_key: key.clone(),
            state: AggState::Null,
            np: 1,
            complete: true,
            trace: None,
        }
    }

    /// The `QueryReply`s sent since the last call, as (key, state,
    /// complete).
    fn replies(ctx: &mut Recorder) -> Vec<(String, AggState, bool)> {
        ctx.sent
            .drain(..)
            .filter_map(|(_, m)| match m {
                MoaraMsg::QueryReply {
                    pred_key,
                    state,
                    complete,
                    ..
                } => Some((pred_key.to_string(), state, complete)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_duplicate_query_down_gets_an_immediate_null_reply() {
        let (mut n, mut ctx, query, [a, _]) = two_tree_root();
        n.on_message(&mut ctx, NodeId(1), query_down(qid(1), &a, &query));
        assert!(
            replies(&mut ctx).is_empty(),
            "the session waits for its child"
        );
        n.on_message(&mut ctx, NodeId(1), query_down(qid(1), &a, &query));
        assert_eq!(
            replies(&mut ctx),
            [(a.0.to_string(), AggState::Null, true)],
            "the duplicate is answered at once, empty"
        );
        // The live session still takes its child's answer.
        n.on_message(&mut ctx, NodeId(1), reply(qid(1), &a));
        assert_eq!(replies(&mut ctx).len(), 1);
    }

    #[test]
    fn a_leaf_answers_at_once_with_its_no_prune_count() {
        let (root, _, query, [a, _]) = two_tree_root();
        let mut leaf = MoaraNode::new(root.dir.clone(), MoaraConfig::default());
        let attr = a.0.strip_suffix("=true").expect("an equality key");
        leaf.store.set(attr, true);
        let mut ctx = Recorder::new(NodeId(1));
        leaf.on_message(&mut ctx, NodeId(0), query_down(qid(1), &a, &query));
        // A satisfied leaf below the SQP threshold is its own update set:
        // it keeps receiving queries, a branch of one.
        let answers: Vec<_> = ctx
            .sent
            .iter()
            .filter_map(|(_, m)| match m {
                MoaraMsg::QueryReply { np, state, .. } => Some((*np, state.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(answers, [(1, AggState::Count(1))]);
        assert_eq!(leaf.sessions.by_query.len(), 0, "nothing left open");
    }

    #[test]
    fn one_query_on_two_trees_keeps_two_sessions() {
        let (mut n, mut ctx, query, [a, b]) = two_tree_root();
        n.on_message(&mut ctx, NodeId(1), query_down(qid(1), &a, &query));
        n.on_message(&mut ctx, NodeId(1), query_down(qid(1), &b, &query));
        assert!(replies(&mut ctx).is_empty(), "neither is a duplicate");
        assert!(n.sessions.contains(qid(1), &a.0) && n.sessions.contains(qid(1), &b.0));
        // Each child answer closes exactly its own tree's session.
        n.on_message(&mut ctx, NodeId(1), reply(qid(1), &b));
        assert_eq!(replies(&mut ctx), [(b.0.to_string(), AggState::Null, true)]);
        assert!(n.sessions.contains(qid(1), &a.0) && !n.sessions.contains(qid(1), &b.0));
        n.on_message(&mut ctx, NodeId(1), reply(qid(1), &a));
        assert_eq!(replies(&mut ctx), [(a.0.to_string(), AggState::Null, true)]);
        assert_eq!(n.sessions.by_query.len(), 0);
    }

    #[test]
    fn the_session_timer_and_a_peer_failure_find_their_session() {
        let (mut n, mut ctx, query, [a, b]) = two_tree_root();
        n.on_message(&mut ctx, NodeId(1), query_down(qid(1), &a, &query));
        n.on_message(&mut ctx, NodeId(1), query_down(qid(1), &b, &query));
        let [timer_a, _] = ctx.timers[..] else {
            panic!("one child timer per session: {:?}", ctx.timers);
        };
        // `a`'s child timer fires: `a` answers incomplete, `b` waits on.
        n.on_timer(&mut ctx, timer_a);
        assert_eq!(
            replies(&mut ctx),
            [(a.0.to_string(), AggState::Null, false)]
        );
        assert!(n.sessions.contains(qid(1), &b.0));
        // The child fails: `b` answers incomplete too.
        n.on_peer_failed(&mut ctx, NodeId(1));
        assert_eq!(
            replies(&mut ctx),
            [(b.0.to_string(), AggState::Null, false)]
        );
        assert_eq!(n.sessions.by_query.len(), 0);
    }
}
