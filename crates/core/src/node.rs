//! The Moara node: protocol message handling, aggregation sessions, and
//! the client front-end (query planner/driver).
//!
//! One `MoaraNode` plays every role the paper describes, depending on
//! where a message finds it: *agent* (holds the attribute store), *tree
//! node* (forwards queries, aggregates replies, maintains per-predicate
//! prune state), *tree root* (assigns query sequence numbers, answers size
//! probes), and *front-end* (parses nothing itself — it receives a parsed
//! [`Query`] — but plans covers, fires size probes, fans out sub-queries,
//! and merges the final answer).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::rc::Rc;
use std::sync::Arc;

use moara_aggregation::{AggKind, AggResult, AggState, NodeRef};
use moara_attributes::{AttrStore, Value};
use moara_dht::Id;
use moara_query::{Cover, CoverPlan, Predicate, Query, SimplePredicate};
use moara_simnet::{MintedMap, MintedSet, NodeId, SimDuration, SimTime, TimerId, TimerTag};
use moara_subscribe::{DeliveryPolicy, SubEntry, SubId, SubSpec, SubUpdate, WatchState};
use moara_trace::{Phase, SpanRecord, SpanStore, TraceCtx, NO_PEER, TRACE_NS_SUBDELTA};
use moara_transport::{NetCtx, NetProtocol};

use crate::cluster::Directory;
use crate::config::{GcPolicy, MoaraConfig, Mode};
use crate::msg::{MoaraMsg, PredKey, QueryId, GLOBAL_PRED};
use crate::sched::{BatchQueue, QuerySched};
use crate::state::{ChildInfo, PredState, Targets};

/// Query ids one generation of the duplicate-suppression window holds
/// before it is rotated out, whatever `dedup_ttl` says. The duplicate the
/// window guards against is the same query's `QueryDown` reaching a node
/// through a second tree of its cover, which trails the first by the skew
/// between two tree walks — a handful of queries' worth of traffic, where
/// this is thousands. Bounding by count keeps the window's memory
/// independent of the request rate (rate × 300 s is 1.5 M ids per group
/// member at 5 k requests a second).
const DEDUP_GENERATION: usize = 8_192;

/// A [`QueryId`] as the dedup window holds it: the origin and the full
/// count, epoch bits included, in 12 bytes aligned to 4, where a
/// `QueryId` pads to 16.
#[derive(Clone, Copy, PartialEq, Eq)]
struct SeenId {
    origin: u32,
    /// The count's low and high halves.
    n: [u32; 2],
}

impl From<&QueryId> for SeenId {
    fn from(qid: &QueryId) -> SeenId {
        SeenId {
            origin: qid.origin.0,
            n: [qid.n as u32, (qid.n >> 32) as u32],
        }
    }
}

impl Hash for SeenId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.origin);
        state.write_u64(u64::from(self.n[0]) | u64::from(self.n[1]) << 32);
    }
}

/// The query ids a node has already contributed to (Section 6.2's
/// duplicate suppression), in two generations: ids enter `recent`, and
/// once that has been filling for `dedup_ttl` or holds
/// [`DEDUP_GENERATION`] ids, the next insert turns it into `older`, whose
/// previous contents go in one deallocation. An id is therefore
/// remembered for at least `dedup_ttl` (or the next [`DEDUP_GENERATION`]
/// ids, if those come sooner), at O(1) a query and one 12-byte set entry
/// an id — no per-id timestamp, no pass over the window. Generations turn
/// over only on insert: a node that stops contributing keeps its last ids
/// until it contributes again, however long that takes.
#[derive(Default)]
struct DedupWindow {
    recent: MintedSet<SeenId>,
    older: MintedSet<SeenId>,
    /// When the first id of `recent` went in.
    recent_since: SimTime,
}

impl DedupWindow {
    fn contains(&self, qid: &QueryId) -> bool {
        let id = SeenId::from(qid);
        self.recent.contains(&id) || self.older.contains(&id)
    }

    fn insert(&mut self, qid: &QueryId, now: SimTime, ttl: SimDuration) {
        if self.recent.len() >= DEDUP_GENERATION || now.duration_since(self.recent_since) >= ttl {
            self.older = std::mem::take(&mut self.recent);
        }
        if self.recent.is_empty() {
            self.recent_since = now;
        }
        self.recent.insert(SeenId::from(qid));
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.recent.len() + self.older.len()
    }
}

/// A node's query counter keeps its low 40 bits for the count (seven
/// years at 5 k queries a second) and the bits above for the epoch set
/// by [`MoaraNode::set_query_epoch`].
const QUERY_EPOCH_SHIFT: u32 = 40;

/// Timer tags name their owner in the bits below the membership
/// detector's (bit 63, which a daemon routes to the detector). A
/// session's child timer and a front's probe or deadline timer are found
/// from the tag itself, so they take no entry in a timer table; the
/// subscription plane's tags count up from 0 in [`SubPlane::timers`].
const TAG_SESSION: TimerTag = 1 << 62;
/// A front's timer: the front id in the bits below.
const TAG_FRONT: TimerTag = 1 << 61;

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

/// The final result of a front-end query.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The end-to-end query id, whose [`QueryId::tag`] keys per-query
    /// message accounting at the transport.
    pub qid: QueryId,
    /// The merged aggregate.
    pub result: AggResult,
    /// False if any branch timed out, failed, or a probe went unanswered.
    pub complete: bool,
    /// When the front-end accepted the query.
    pub issued_at: SimTime,
    /// When the last sub-query reply arrived.
    pub completed_at: SimTime,
    /// Messages attributed to this query: probes, sub-queries, replies,
    /// and their routing envelopes — maintenance traffic (status updates)
    /// is accounted separately. Filled in by the cluster harness from the
    /// transport's per-query counters (correct even when queries
    /// overlap); 0 until then.
    pub messages: u64,
}

impl QueryOutcome {
    /// End-to-end latency of the query.
    pub fn latency(&self) -> moara_simnet::SimDuration {
        self.completed_at.duration_since(self.issued_at)
    }
}

/// An in-flight aggregation at one tree node.
struct Session {
    /// The group whose tree this session aggregates over.
    pred_key: PredKey,
    reply_to: NodeId,
    /// Targets that have not replied yet.
    pending: Targets,
    acc: AggState,
    kind: AggKind,
    complete: bool,
    timer: Option<(TimerId, TimerTag)>,
    tree: Id,
    /// This hop's fan-out context (span_id = the fan-out span recorded
    /// when the sub-query arrived); the fold span parents to it and the
    /// `QueryReply` carries its descendant upstream.
    trace: Option<TraceCtx>,
    /// When the sub-query arrived — the fold span's queue-wait window
    /// (time spent waiting for children) is measured from here.
    started_at: SimTime,
}

/// A node's in-flight sessions, found by their engine-minted [`QueryId`]
/// and then by predicate-key equality, so no predicate text is hashed. A
/// query almost always has one session at a node; a node that sits in
/// two trees of one query's cover holds one per tree, the extras in
/// `more`.
#[derive(Default)]
struct Sessions {
    by_query: QueryTable<QueryId, QuerySessions>,
}

/// The sessions of one query at this node.
struct QuerySessions {
    first: Session,
    more: Vec<Session>,
}

impl Sessions {
    fn contains(&self, qid: QueryId, pred_key: &str) -> bool {
        self.by_query.get(&qid).is_some_and(|q| {
            std::iter::once(&q.first)
                .chain(&q.more)
                .any(|s| &*s.pred_key == pred_key)
        })
    }

    fn get_mut(&mut self, qid: QueryId, pred_key: &str) -> Option<&mut Session> {
        let q = self.by_query.get_mut(&qid)?;
        std::iter::once(&mut q.first)
            .chain(&mut q.more)
            .find(|s| &*s.pred_key == pred_key)
    }

    /// Opens a session; the caller has checked that `qid` has none on its
    /// key yet.
    fn insert(&mut self, qid: QueryId, sess: Session) {
        use std::collections::hash_map::Entry;
        match self.by_query.entry(qid) {
            Entry::Occupied(q) => q.into_mut().more.push(sess),
            Entry::Vacant(q) => {
                q.insert(QuerySessions {
                    first: sess,
                    more: Vec::new(),
                });
            }
        }
    }

    fn remove(&mut self, qid: QueryId, pred_key: &str) -> Option<Session> {
        let q = self.by_query.get_mut(&qid)?;
        if &*q.first.pred_key != pred_key {
            let i = q.more.iter().position(|s| &*s.pred_key == pred_key)?;
            return Some(q.more.swap_remove(i));
        }
        match q.more.pop() {
            Some(next) => Some(std::mem::replace(&mut q.first, next)),
            None => self.by_query.remove(&qid).map(|q| q.first),
        }
    }

    /// Every open session, with its query id.
    fn iter(&self) -> impl Iterator<Item = (QueryId, &Session)> {
        self.by_query.iter().flat_map(|(&qid, q)| {
            std::iter::once(&q.first)
                .chain(&q.more)
                .map(move |s| (qid, s))
        })
    }

    /// The session whose child timer carries `tag`, as its query id and
    /// key.
    fn by_timer(&self, tag: TimerTag) -> Option<(QueryId, PredKey)> {
        self.iter()
            .find(|(_, s)| s.timer.is_some_and(|(_, t)| t == tag))
            .map(|(qid, s)| (qid, s.pred_key.clone()))
    }

    fn clear(&mut self) {
        self.by_query.clear();
    }
}

enum FrontPhase {
    /// Waiting for size-probe replies.
    Probing,
    /// Waiting for sub-query replies.
    Waiting,
}

/// An in-flight query at the front-end (originating node). Many of these
/// coexist; the shared [`QuerySched`] coalesces their probes and caches
/// their costs across queries.
struct FrontQuery {
    qid: QueryId,
    query: Arc<Query>,
    /// Candidate covers, derived once at submit (`None` in Global mode or
    /// on CNF blow-up — the query goes to the global tree).
    plan: Option<CoverPlan>,
    phase: FrontPhase,
    probes_pending: HashSet<PredKey>,
    costs: HashMap<PredKey, u64>,
    sub_pending: HashSet<PredKey>,
    acc: AggState,
    complete: bool,
    issued_at: SimTime,
    /// Cache epoch when the query was accepted; replies are used for the
    /// lazy cost refresh only while no churn was observed since.
    epoch: u64,
    /// The probe or deadline timer armed now (its tag is `TAG_FRONT` and
    /// the front id).
    timer: Option<TimerId>,
    /// The front-end's trace context for this query (span_id = the plan
    /// span): probes and sub-queries descend from it, and the terminal
    /// reply span parents to it. `None` when unsampled.
    trace: Option<TraceCtx>,
    /// Span ids minted per outstanding probe, so the probe span recorded
    /// on reply matches the id the probed root parented to.
    probe_spans: HashMap<PredKey, u64>,
}

/// What a subscription-plane timer is for.
enum TimerEvent {
    /// Node-side subscription lease clock (maintenance timer).
    SubLease(SubId, PredKey),
    /// Node-side initial-sync timeout: announce with what arrived.
    SubInit(SubId, PredKey),
    /// Front-end renewal tick (maintenance; re-armed every lease/2).
    WatchRenew(u64),
    /// Front-end periodic-delivery tick (maintenance).
    WatchTick(u64),
    /// Front-end initial-sync timeout: emit the first update incomplete.
    WatchInit(u64),
}

/// The continuous-query (subscription) plane at one node: the entries it
/// hosts as a tree member, the watches it originated, and the timers
/// both run on. Held out of line and created when the node first takes
/// part in a standing query, so the others carry one pointer for it.
#[derive(Default)]
struct SubPlane {
    /// Standing-subscription state this node hosts as a tree member, by
    /// (subscription, tree).
    entries: BTreeMap<(SubId, PredKey), SubEntry>,
    /// Subscriptions this node originated, by watch handle.
    watches: HashMap<u64, WatchState>,
    /// Reverse index: subscription id → watch handle.
    watch_of: HashMap<SubId, u64>,
    /// Watch handles with client-visible updates queued since the last
    /// [`MoaraNode::take_dirty_watches`] drain — a hint so embedding
    /// hosts poll only watches that actually emitted, instead of every
    /// watch every tick.
    dirty_watches: HashSet<u64>,
    /// Pending initial-sync timers, so completing the sync can cancel
    /// them instead of letting quiescence drains fire them.
    sub_init_timers: HashMap<(SubId, PredKey), (TimerId, TimerTag)>,
    watch_init_timers: HashMap<u64, (TimerId, TimerTag)>,
    /// The plane's armed timers by tag.
    timers: QueryTable<TimerTag, TimerEvent>,
    next_watch: u64,
    next_sub: u64,
    next_tag: u64,
    /// The trace context of the `SubDelta` currently being handled —
    /// implicit causal propagation: a push triggered while folding an
    /// incoming delta chains to it instead of starting a fresh trace.
    delta_ctx: Option<TraceCtx>,
    /// Counter for delta-push trace ids minted at this node.
    next_delta_trace: u64,
}

impl SubPlane {
    fn alloc_timer(&mut self, ev: TimerEvent) -> TimerTag {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.timers.insert(tag, ev);
        tag
    }

    /// Cancels a pending timer *and* forgets its event entry — cancelled
    /// timers never fire, so without the purge the tag map would grow
    /// for every finished initial sync (a real leak in a run-forever
    /// daemon).
    fn drop_timer(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, handle: (TimerId, TimerTag)) {
        ctx.cancel_timer(handle.0);
        self.timers.remove(&handle.1);
    }

    /// Forgets every entry, watch and timer, keeping the id counters so
    /// no watch handle or subscription id is handed out twice.
    fn reset(&mut self) {
        *self = SubPlane {
            next_watch: self.next_watch,
            next_sub: self.next_sub,
            next_tag: self.next_tag,
            next_delta_trace: self.next_delta_trace,
            ..SubPlane::default()
        };
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
    fronts: QueryTable<u64, FrontQuery>,
    completed: QueryTable<u64, QueryOutcome>,
    /// The query-plane scheduler: probe-cost cache (with churn epoch) and
    /// the in-flight probe registry shared by all concurrent fronts.
    sched: QuerySched,
    /// The subscription plane, once the node takes part in one.
    subs: Option<Box<SubPlane>>,
    next_front: u64,
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
            next_front: 0,
            next_q: 0,
            next_session_tag: 0,
            tracer: None,
        }
    }

    /// The subscription plane, created on first use.
    fn plane(&mut self) -> &mut SubPlane {
        self.subs.get_or_insert_with(Box::default)
    }

    /// The subscription entries this node hosts, in key order.
    fn sub_entries(&self) -> impl Iterator<Item = (&(SubId, PredKey), &SubEntry)> {
        self.subs.iter().flat_map(|plane| &plane.entries)
    }

    fn sub_entry(&self, key: &(SubId, PredKey)) -> Option<&SubEntry> {
        self.subs.as_ref()?.entries.get(key)
    }

    fn sub_entry_mut(&mut self, key: &(SubId, PredKey)) -> Option<&mut SubEntry> {
        self.subs.as_mut()?.entries.get_mut(key)
    }

    /// The watch this node originated for `sid`, if any.
    fn watch_of(&self, sid: &SubId) -> Option<u64> {
        self.subs.as_ref()?.watch_of.get(sid).copied()
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
    /// restarts a node's counter and leaves the epoch at 0.
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

    /// Records one span under `parent` and returns the descended context
    /// (`span_id` = the new span) for downstream messages. `None` when
    /// tracing is off or the parent context is unsampled — callers thread
    /// the result straight into the wire field. `detail` is formatted only
    /// when the span is recorded, straight into the store.
    #[allow(clippy::too_many_arguments)]
    fn trace_span(
        &self,
        parent: Option<TraceCtx>,
        me: NodeId,
        now: SimTime,
        phase: Phase,
        peer: u32,
        queue_us: u64,
        service_us: u64,
        bytes: u64,
        detail: fmt::Arguments<'_>,
    ) -> Option<TraceCtx> {
        let tracer = self.tracer.as_ref()?;
        if !tracer.enabled() {
            return None;
        }
        let ctx = parent?;
        if !ctx.sampled() {
            return None;
        }
        let span_id = tracer.next_span_id(me.0);
        let span = SpanRecord {
            trace_id: ctx.trace_id,
            span_id,
            parent_span_id: ctx.span_id,
            node: me.0,
            phase,
            peer,
            start_us: now.as_micros().saturating_sub(queue_us),
            queue_us,
            service_us,
            bytes,
            detail: String::new(),
        };
        tracer.record_args(span, detail);
        Some(ctx.descend(span_id))
    }

    /// Number of probe costs currently cached at this front-end
    /// (tests/inspection).
    pub fn probe_cache_len(&self) -> usize {
        self.sched.cache.len()
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

    /// Takes a finished query outcome, if ready.
    pub fn take_outcome(&mut self, front_id: u64) -> Option<QueryOutcome> {
        self.completed.remove(&front_id)
    }

    /// Peeks at a finished query outcome.
    pub fn outcome(&self, front_id: u64) -> Option<&QueryOutcome> {
        self.completed.get(&front_id)
    }

    /// The sampled trace id of an in-flight front, if tracing picked it
    /// up. Only valid while the front is alive — callers wanting to
    /// correlate a query with its trace grab this right after `submit`.
    pub fn front_trace_id(&self, front_id: u64) -> Option<u64> {
        self.fronts
            .get(&front_id)
            .and_then(|f| f.trace)
            .map(|t| t.trace_id)
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

    /// Registers a subscription-plane timer event; returns the tag to arm
    /// it with.
    fn alloc_timer(&mut self, ev: TimerEvent) -> TimerTag {
        self.plane().alloc_timer(ev)
    }

    /// Cancels a subscription-plane timer and forgets its event.
    fn drop_timer(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, handle: (TimerId, TimerTag)) {
        self.plane().drop_timer(ctx, handle);
    }

    /// Arms `front_id`'s probe or deadline timer.
    fn arm_front_timer(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, front_id: u64, d: SimDuration) {
        let t = ctx.set_timer(d, TAG_FRONT | front_id);
        self.fronts.get_mut(&front_id).expect("front exists").timer = Some(t);
    }

    // ----- front-end ---------------------------------------------------

    /// Accepts a query at this node's front-end; returns a handle for
    /// [`MoaraNode::take_outcome`]. Planning follows Section 6 — CNF →
    /// structural covers → (optional) size probes → min-cost cover →
    /// parallel sub-queries with duplicate suppression — scheduled
    /// through the query plane: probe costs come from the cache when a
    /// valid entry exists (repeated composite queries skip the probe
    /// phase entirely), misses coalesce onto probes already in flight for
    /// overlapping queries, and fan-out sharing a next hop leaves as one
    /// batched frame.
    pub fn submit(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, query: Query) -> u64 {
        let front_id = self.next_front;
        self.next_front += 1;
        let qid = QueryId {
            origin: ctx.me(),
            n: self.next_q,
        };
        self.next_q += 1;
        let query = Arc::new(query);

        let plan = if self.cfg.mode == Mode::Global {
            None
        } else {
            query
                .predicate
                .to_cnf()
                .ok()
                .map(|cnf| CoverPlan::build(&cnf))
        };
        let kind = query.agg;
        // Parse and plan run inline at the front-end; when this query is
        // sampled, their spans anchor the trace tree (trace id = the
        // query's wire tag) and every downstream hop parents to the plan
        // span's id carried in the message contexts.
        let trace = if self
            .tracer
            .as_ref()
            .is_some_and(|t| t.enabled() && t.sample_root())
        {
            let root = Some(TraceCtx::root(qid.tag()));
            let parsed = self.trace_span(
                root,
                ctx.me(),
                ctx.now(),
                Phase::Parse,
                NO_PEER,
                0,
                0,
                0,
                format_args!("agg={kind:?}"),
            );
            self.trace_span(
                parsed,
                ctx.me(),
                ctx.now(),
                Phase::Plan,
                NO_PEER,
                0,
                0,
                0,
                format_args!("{}", if plan.is_some() { "cnf" } else { "global" }),
            )
        } else {
            None
        };
        let mut front = FrontQuery {
            qid,
            query: query.clone(),
            plan,
            phase: FrontPhase::Waiting,
            probes_pending: HashSet::new(),
            costs: HashMap::new(),
            sub_pending: HashSet::new(),
            acc: kind.identity(),
            complete: true,
            issued_at: ctx.now(),
            epoch: self.sched.cache.epoch(),
            timer: None,
            trace,
            probe_spans: HashMap::new(),
        };

        // Unsatisfiable predicates are detected structurally (Figure 7's
        // disjointness rules) and answered locally — before any probes.
        if front.plan.as_ref().is_some_and(|p| p.empty) {
            self.fronts.insert(front_id, front);
            self.finish_front(ctx, front_id);
            return front_id;
        }

        // Probes are worth the round-trip only when cost information can
        // change the planner's decision, i.e. the plan has at least two
        // candidate covers. (This subsumes the old "single clause with a
        // single atom" special case and additionally skips pure unions,
        // whose only cover is forced regardless of group sizes.)
        let needs_probes =
            self.cfg.use_size_probes && front.plan.as_ref().is_some_and(CoverPlan::needs_costs);

        if needs_probes {
            front.phase = FrontPhase::Probing;
            let atoms = front
                .plan
                .as_ref()
                .expect("probing implies a plan")
                .probe_atoms();
            let me = ctx.me();
            let now = ctx.now();
            let mut outbound: Vec<(Id, Box<MoaraMsg>)> = Vec::new();
            for atom in atoms {
                let key: PredKey = atom.key().into();
                if let Some(cost) = self.sched.cache.lookup(&key, now) {
                    ctx.count("probe_cache_hits");
                    front.costs.insert(key, cost);
                    continue;
                }
                if self.sched.cache.enabled() {
                    ctx.count("probe_cache_misses");
                }
                front.probes_pending.insert(key.clone());
                let epoch = self.sched.cache.epoch();
                // The probe span's id is minted at send but recorded on
                // reply (its queue-wait is the probe round-trip); the
                // probed root parents its own span to this id.
                let probe_trace = match (&self.tracer, front.trace) {
                    (Some(tr), Some(t)) if tr.enabled() && t.sampled() => {
                        let sid = tr.next_span_id(me.0);
                        front.probe_spans.insert(key.clone(), sid);
                        Some(t.descend(sid))
                    }
                    _ => None,
                };
                let probe = MoaraMsg::SizeProbe {
                    qid,
                    pred_key: key.clone(),
                    reply_to: me,
                    trace: probe_trace,
                };
                use std::collections::hash_map::Entry;
                match self.sched.waiters.entry(key) {
                    Entry::Occupied(mut e) => {
                        let wait = e.get_mut();
                        wait.fronts.push(front_id);
                        if now.duration_since(wait.sent_at) >= self.cfg.probe_timeout {
                            // The in-flight probe has outlived the probe
                            // timeout: presume its reply lost and re-send,
                            // otherwise continuous traffic would coalesce
                            // onto a dead probe forever. The new qid
                            // supersedes the old probe: a slow reply to
                            // it can no longer be cached as fresh.
                            wait.sent_at = now;
                            wait.epoch = epoch;
                            wait.probe_qid = qid;
                            outbound.push((self.dir.tree_key(atom.attr.as_str()), Box::new(probe)));
                            ctx.count("size_probes");
                        } else {
                            // Another in-flight query already probed this
                            // tree; share its reply instead of re-asking.
                            ctx.count("probes_coalesced");
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(crate::sched::ProbeWait {
                            fronts: vec![front_id],
                            sent_at: now,
                            epoch,
                            probe_qid: qid,
                        });
                        outbound.push((self.dir.tree_key(atom.attr.as_str()), Box::new(probe)));
                        ctx.count("size_probes");
                    }
                }
            }
            if front.probes_pending.is_empty() {
                // Every relevant cost was cached: skip the probe phase.
                self.fronts.insert(front_id, front);
                self.dispatch_front(ctx, front_id);
                return front_id;
            }
            self.fronts.insert(front_id, front);
            self.arm_front_timer(ctx, front_id, self.cfg.probe_timeout);
            self.route_many(ctx, outbound);
        } else {
            self.fronts.insert(front_id, front);
            self.dispatch_front(ctx, front_id);
        }
        front_id
    }

    /// Chooses the cover and fans sub-queries out to tree roots.
    fn dispatch_front(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, front_id: u64) {
        let stale = {
            let front = self.fronts.get_mut(&front_id).expect("front exists");
            front.phase = FrontPhase::Waiting;
            front.timer.take()
        };
        if let Some(t) = stale {
            ctx.cancel_timer(t);
        }
        let front = self.fronts.get_mut(&front_id).expect("front exists");
        let n2 = (self.dir.ring_size() as u64).saturating_mul(2);
        let cover = match &front.plan {
            None => Cover::All,
            Some(plan) => {
                if self.cfg.use_size_probes {
                    let costs = &front.costs;
                    plan.choose(|atom| costs.get(atom.key().as_str()).copied().unwrap_or(n2))
                } else {
                    plan.choose(|_| 1)
                }
            }
        };
        let qid = front.qid;
        let query = front.query.clone();
        let ftrace = front.trace;
        let me = ctx.me();

        let subs = self.cover_trees(&query, &cover);

        if subs.is_empty() {
            self.finish_front(ctx, front_id);
            return;
        }
        let front = self.fronts.get_mut(&front_id).expect("front exists");
        for (pred_key, _) in &subs {
            front.sub_pending.insert(pred_key.clone());
        }
        if let Some(d) = self.cfg.front_timeout {
            self.arm_front_timer(ctx, front_id, d);
        }
        // One fan-out span at the origin covers the whole sub-query
        // spray; each tree root's own fan-out span parents to it.
        let qtrace = self.trace_span(
            ftrace,
            me,
            ctx.now(),
            Phase::FanOut,
            NO_PEER,
            0,
            0,
            0,
            format_args!("subs={}", subs.len()),
        );
        let outbound: Vec<(Id, Box<MoaraMsg>)> = subs
            .into_iter()
            .map(|(pred_key, tree)| {
                (
                    tree,
                    Box::new(MoaraMsg::QueryDown {
                        qid,
                        seq: 0,
                        pred_key,
                        tree,
                        query: (*query).clone(),
                        reply_to: me,
                        trace: qtrace,
                    }),
                )
            })
            .collect();
        self.route_many(ctx, outbound);
    }

    /// One `(predicate key, tree routing key)` per tree of `cover`: the
    /// global tree of the aggregated attribute for `All`.
    fn cover_trees(&self, query: &Query, cover: &Cover) -> Vec<(PredKey, Id)> {
        match cover {
            Cover::Empty => Vec::new(),
            Cover::All => {
                let attr = query.attr.as_ref().map_or(GLOBAL_PRED, |a| a.as_str());
                vec![(GLOBAL_PRED.into(), self.dir.tree_key(attr))]
            }
            Cover::Groups(groups) => groups
                .iter()
                .map(|g| (g.key().into(), self.dir.tree_key(g.attr.as_str())))
                .collect(),
        }
    }

    fn finish_front(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, front_id: u64) {
        let Some(front) = self.fronts.remove(&front_id) else {
            return;
        };
        if let Some(t) = front.timer {
            ctx.cancel_timer(t);
        }
        let complete = front.complete && front.sub_pending.is_empty();
        // The terminal span: its queue-wait is the query's end-to-end
        // latency as seen by the front-end.
        self.trace_span(
            front.trace,
            ctx.me(),
            ctx.now(),
            Phase::Reply,
            NO_PEER,
            ctx.now().duration_since(front.issued_at).as_micros(),
            0,
            0,
            format_args!("complete={complete}"),
        );
        let outcome = QueryOutcome {
            qid: front.qid,
            result: front.query.agg.finalize(front.acc),
            complete,
            issued_at: front.issued_at,
            completed_at: ctx.now(),
            messages: 0,
        };
        self.completed.insert(front_id, outcome);
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
            trace,
            ctx.me(),
            ctx.now(),
            Phase::Probe,
            reply_to.0,
            0,
            0,
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
        let keys: Vec<(QueryId, PredKey)> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.pending.contains(failed))
            .map(|(qid, s)| (qid, s.pred_key.clone()))
            .collect();
        for (qid, key) in keys {
            let sess = self.sessions.get_mut(qid, &key).expect("session exists");
            sess.pending.remove(failed);
            sess.complete = false;
            if sess.pending.is_empty() {
                self.finalize_session(ctx, qid, &key);
            }
        }
        // Standing subscriptions retract the failed child's summary at
        // once — the result shrinks within the same failure confirm that
        // triggered this hook (the rest of its subtree is re-adopted by
        // the reconcile that follows).
        let keys: Vec<(SubId, PredKey)> = self
            .sub_entries()
            .filter(|(_, e)| {
                e.last_seen.contains_key(&failed) || e.pending_initial.contains(&failed)
            })
            .map(|(k, _)| k.clone())
            .collect();
        for key in keys {
            let entry = self.sub_entry_mut(&key).expect("filtered");
            let changed = entry.drop_child(failed);
            if !entry.announced {
                self.maybe_announce(ctx, &key);
            } else if changed {
                self.push_sub_delta(ctx, &key);
            }
        }
    }

    // ----- query execution ----------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn handle_query_down(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        qid: QueryId,
        seq: u64,
        pred_key: PredKey,
        tree: Id,
        query: Query,
        reply_to: NodeId,
        trace: Option<TraceCtx>,
    ) {
        let me = ctx.me();
        if self.sessions.contains(qid, &pred_key) {
            // Already handling this sub-query (stale duplicate): reply
            // immediately with no contribution.
            ctx.send(
                reply_to,
                MoaraMsg::QueryReply {
                    qid,
                    pred_key,
                    state: AggState::Null,
                    np: 0,
                    complete: true,
                    trace,
                },
            );
            return;
        }

        // Adaptation accounting + possible state transition (Section 4).
        let view = self.dir.tree(tree);
        let children = view.children(me);
        // The branch's NO-PRUNE count, taken while the state is in hand:
        // a node with nobody to forward to answers with it at once.
        let mut np = 0;
        let global = &*pred_key == GLOBAL_PRED;
        let state = if global {
            None
        } else {
            let atom = || find_atom(&query, &pred_key).cloned();
            Self::state_entry(&mut self.states, &self.dir, &self.cfg, me, &pred_key, atom)
        };
        let pending = match state {
            Some(st) => {
                // Account the query against the *current* updateSet
                // first (a brand-new state counts it as qn), then
                // refresh sets and satisfaction.
                st.on_query(me, seq);
                let sat = st.pred.eval(&self.store);
                st.refresh(me, sat, children);
                let pending = st.query_targets(me, children);
                Self::send_status(ctx, &self.dir, &pred_key, st);
                st.last_active = Some(ctx.now());
                if pending.is_empty() {
                    np = st.np(me, children, |c| view.subtree_size(c));
                }
                pending
            }
            None => Targets::from(children),
        };
        if !global && self.maybe_gc(ctx.now()) {
            // The collection may have taken this very state.
            np = self.branch_np(me, &pred_key, tree);
        }

        // Local contribution, at most once per query id (Section 6.2's
        // duplicate suppression when a node sits in several cover trees).
        let mut acc = query.agg.identity();
        if !self.contributed.contains(&qid) && query.predicate.eval(&self.store) {
            self.contributed.insert(&qid, ctx.now(), self.cfg.dedup_ttl);
            acc = self.local_contribution(me, &query);
        }

        // This hop's fan-out span: parented to the sender's span carried
        // on the wire; the outgoing sub-queries and the eventual fold
        // span both descend from it.
        let own = self.trace_span(
            trace,
            me,
            ctx.now(),
            Phase::FanOut,
            reply_to.0,
            0,
            0,
            0,
            format_args!("targets={}", pending.as_slice().len()),
        );
        let mut timer = None;
        if !pending.is_empty() {
            if let Some(d) = self.cfg.child_timeout {
                let tag = TAG_SESSION | self.next_session_tag;
                self.next_session_tag += 1;
                timer = Some((ctx.set_timer(d, tag), tag));
            }
        }
        for &t in pending.as_slice() {
            ctx.send(
                t,
                MoaraMsg::QueryDown {
                    qid,
                    seq,
                    pred_key: pred_key.clone(),
                    tree,
                    query: query.clone(),
                    reply_to: me,
                    trace: own,
                },
            );
        }
        let answered = pending.is_empty();
        let sess = Session {
            pred_key,
            reply_to,
            pending,
            acc,
            kind: query.agg,
            complete: true,
            timer,
            tree,
            trace: own,
            started_at: ctx.now(),
        };
        if answered {
            self.answer_session(ctx, qid, sess, np);
        } else {
            self.sessions.insert(qid, sess);
        }
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

    /// Ends `qid`'s session on `pred_key`, if it is still open, and
    /// answers upstream with what it gathered.
    fn finalize_session(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, qid: QueryId, pred_key: &str) {
        let Some(sess) = self.sessions.remove(qid, pred_key) else {
            return;
        };
        let np = self.branch_np(ctx.me(), pred_key, sess.tree);
        self.answer_session(ctx, qid, sess, np);
    }

    /// This node's NO-PRUNE count for its branch of `tree` (0 without
    /// state for `pred_key`).
    fn branch_np(&self, me: NodeId, pred_key: &str, tree: Id) -> u64 {
        match self.states.get(pred_key) {
            Some(st) => {
                let view = self.dir.tree(tree);
                st.np(me, view.children(me), |c| view.subtree_size(c))
            }
            None => 0,
        }
    }

    /// Answers upstream with what a finished session gathered; `np` is the
    /// branch's NO-PRUNE count as this node sees it now.
    fn answer_session(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        qid: QueryId,
        mut sess: Session,
        np: u64,
    ) {
        let me = ctx.me();
        if let Some((t, _)) = sess.timer.take() {
            ctx.cancel_timer(t);
        }
        let complete = sess.complete && sess.pending.is_empty();
        // The fold span's queue-wait is the time this hop sat waiting for
        // its children before it could merge and answer upstream.
        let t = self.trace_span(
            sess.trace,
            me,
            ctx.now(),
            Phase::Fold,
            sess.reply_to.0,
            ctx.now().duration_since(sess.started_at).as_micros(),
            0,
            0,
            format_args!("complete={complete}"),
        );
        ctx.send(
            sess.reply_to,
            MoaraMsg::QueryReply {
                qid,
                pred_key: sess.pred_key,
                state: sess.acc,
                np,
                complete,
                trace: t,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_query_reply(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        from: NodeId,
        qid: QueryId,
        pred_key: PredKey,
        state: AggState,
        np: u64,
        complete: bool,
    ) {
        // A reply to our session (we forwarded the query to `from`)?
        if let Some(sess) = self
            .sessions
            .get_mut(qid, &pred_key)
            .filter(|s| s.pending.contains(from))
        {
            sess.pending.remove(from);
            sess.complete &= complete;
            let kind = sess.kind;
            let prev = std::mem::replace(&mut sess.acc, AggState::Null);
            sess.acc = kind.merge(prev, state);
            let (answered, tree) = (sess.pending.is_empty(), sess.tree);
            // One state lookup serves the lazy np refresh for direct
            // children (Section 6.3) and, once every target answered, the
            // branch count this node reports upstream.
            let mut branch_np = 0;
            if let Some(st) = self.states.get_mut(&pred_key) {
                if let Some(info) = st.children.get_mut(from) {
                    info.np = np;
                }
                if answered {
                    let me = ctx.me();
                    let view = self.dir.tree(tree);
                    branch_np = st.np(me, view.children(me), |c| view.subtree_size(c));
                }
            }
            if answered {
                let sess = self
                    .sessions
                    .remove(qid, &pred_key)
                    .expect("session is open");
                self.answer_session(ctx, qid, sess, branch_np);
            }
            return;
        }
        // Otherwise: a root's final answer to one of our front-end
        // sub-queries.
        let front_id = self
            .fronts
            .iter()
            .find(|(_, f)| f.qid == qid && f.sub_pending.contains(&pred_key))
            .map(|(id, _)| *id);
        if let Some(front_id) = front_id {
            // Lazy cost refresh (Section 6.3): the root's answer carries
            // the tree's current NO-PRUNE count, so every query keeps the
            // probe cache tracking tree convergence for free. Without
            // this, a cached cold-tree estimate (2×N) would outlive the
            // very query that built and pruned the tree. Skipped if churn
            // was observed since the query was accepted — the measurement
            // might predate the change the epoch bump evicted.
            let fresh = self.fronts[&front_id].epoch == self.sched.cache.epoch();
            if fresh && &*pred_key != GLOBAL_PRED {
                self.sched
                    .cache
                    .insert(pred_key.clone(), np.saturating_mul(2), ctx.now());
            }
            let front = self.fronts.get_mut(&front_id).expect("front exists");
            front.sub_pending.remove(&pred_key);
            front.complete &= complete;
            let kind = front.query.agg;
            let prev = std::mem::replace(&mut front.acc, AggState::Null);
            front.acc = kind.merge(prev, state);
            if front.sub_pending.is_empty() {
                self.finish_front(ctx, front_id);
            }
        }
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

    /// A probe answer: satisfies *every* front waiting on that key — one
    /// probe round-trip can unblock several overlapping queries — and
    /// lands in the probe cache only when its freshness is provable:
    /// the reply must echo the qid of the *latest* probe send (a slow
    /// reply to a probe superseded by a re-send may predate churn) and
    /// no epoch bump may have happened since that send. A superseded
    /// reply still delivers its cost to waiters (costs only steer cover
    /// choice) but leaves the `ProbeWait` in place, so the authoritative
    /// reply behind it can still be cached when it arrives. A reply with
    /// no `ProbeWait` at all (everyone timed out and forgot the key) is
    /// dropped: its send epoch is unknown.
    fn handle_size_reply(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        qid: QueryId,
        pred_key: PredKey,
        cost: u64,
    ) {
        let tracer = self.tracer.clone();
        let me = ctx.me().0;
        let now_us = ctx.now().as_micros();
        let Some(wait) = self.sched.waiters.get_mut(&pred_key) else {
            return;
        };
        let fronts = std::mem::take(&mut wait.fronts);
        if qid == wait.probe_qid {
            let epoch_ok = wait.epoch == self.sched.cache.epoch();
            self.sched.waiters.remove(&pred_key);
            if epoch_ok {
                self.sched.cache.insert(pred_key.clone(), cost, ctx.now());
            }
        }
        let mut ready = Vec::new();
        for fid in fronts {
            let Some(front) = self.fronts.get_mut(&fid) else {
                continue; // front finished (e.g. via its overall deadline)
            };
            if !matches!(front.phase, FrontPhase::Probing) {
                continue; // already dispatched on probe timeout
            }
            if !front.probes_pending.remove(&pred_key) {
                continue;
            }
            front.costs.insert(pred_key.clone(), cost);
            // The probe span was minted at send; record it now that the
            // round-trip is known (its queue-wait).
            if let (Some(tr), Some(t), Some(sid)) = (
                tracer.as_ref(),
                front.trace,
                front.probe_spans.remove(&pred_key),
            ) {
                if tr.enabled() && t.sampled() {
                    let issued = front.issued_at.as_micros();
                    let span = SpanRecord {
                        trace_id: t.trace_id,
                        span_id: sid,
                        parent_span_id: t.span_id,
                        node: me,
                        phase: Phase::Probe,
                        peer: NO_PEER,
                        start_us: issued,
                        queue_us: now_us.saturating_sub(issued),
                        service_us: 0,
                        bytes: 0,
                        detail: String::new(),
                    };
                    tr.record_args(span, format_args!("{pred_key}={cost}"));
                }
            }
            if front.probes_pending.is_empty() {
                ready.push(fid);
            }
        }
        for fid in ready {
            self.dispatch_front(ctx, fid);
        }
    }

    // ----- continuous queries (subscription plane) ----------------------

    /// Installs a standing query at this node's front-end: the plan is
    /// built once (cover chosen from cached probe costs — no probe
    /// round-trip; a stale cost only affects efficiency, never
    /// correctness), `Subscribe` is routed along every pinned tree, and
    /// from then on the result is maintained by incremental deltas.
    /// Returns a watch handle for [`MoaraNode::take_sub_updates`].
    pub fn subscribe(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        query: Query,
        policy: DeliveryPolicy,
        lease: SimDuration,
    ) -> u64 {
        // Floors against degenerate standing clocks: a zero (or
        // micro-scale) period or lease would re-arm its maintenance
        // timer in a tight loop.
        let lease = lease.max(SimDuration::from_millis(10));
        let policy = match policy {
            DeliveryPolicy::Periodic(p) => {
                DeliveryPolicy::Periodic(p.max(SimDuration::from_millis(10)))
            }
            other => other,
        };
        let plane = self.plane();
        let wid = plane.next_watch;
        plane.next_watch += 1;
        let sid = SubId {
            origin: ctx.me(),
            n: plane.next_sub,
        };
        plane.next_sub += 1;
        let now = ctx.now();

        let plan = if self.cfg.mode == Mode::Global {
            None
        } else {
            query
                .predicate
                .to_cnf()
                .ok()
                .map(|cnf| CoverPlan::build(&cnf))
        };
        let n2 = (self.dir.ring_size() as u64).saturating_mul(2);
        let cover = match &plan {
            None => Cover::All,
            Some(plan) => {
                if self.cfg.use_size_probes {
                    let cache = &self.sched.cache;
                    plan.choose(|atom| cache.lookup(&atom.key(), now).unwrap_or(n2))
                } else {
                    plan.choose(|_| 1)
                }
            }
        };
        let roots = self.cover_trees(&query, &cover);
        let mut cover_keys: Vec<String> = roots.iter().map(|(k, _)| k.to_string()).collect();
        cover_keys.sort();
        let spec = SubSpec {
            id: sid,
            query,
            policy,
            lease,
            owner: ctx.me(),
            cover: cover_keys,
        };
        let mut watch = WatchState::new(spec.clone(), roots.clone());
        if roots.is_empty() {
            // Structurally unsatisfiable: the (empty) result is standing
            // truth with no communication at all.
            watch.force_initial(now);
            let plane = self.plane();
            plane.watches.insert(wid, watch);
            plane.watch_of.insert(sid, wid);
            plane.dirty_watches.insert(wid);
            return wid;
        }
        let plane = self.plane();
        plane.watches.insert(wid, watch);
        plane.watch_of.insert(sid, wid);
        ctx.count("sub_subscribes");

        let outbound: Vec<(Id, Box<MoaraMsg>)> = roots
            .iter()
            .map(|(k, tree)| {
                (
                    *tree,
                    Box::new(MoaraMsg::Subscribe {
                        spec: spec.clone(),
                        pred_key: k.clone(),
                        tree: *tree,
                        seq: 0,
                    }),
                )
            })
            .collect();
        self.route_many(ctx, outbound);

        // Renewal at half the lease keeps state alive everywhere with a
        // margin for one lost renewal; both standing clocks are
        // maintenance timers — they must not gate quiescence.
        let half = SimDuration::from_micros((lease.as_micros() / 2).max(1));
        let tag = self.alloc_timer(TimerEvent::WatchRenew(wid));
        ctx.set_maintenance_timer(half, tag);
        if let DeliveryPolicy::Periodic(period) = policy {
            let tag = self.alloc_timer(TimerEvent::WatchTick(wid));
            ctx.set_maintenance_timer(period, tag);
        }
        let init_to = self.cfg.front_timeout.unwrap_or(SimDuration::from_secs(60));
        let tag = self.alloc_timer(TimerEvent::WatchInit(wid));
        let t = ctx.set_timer(init_to, tag);
        self.plane().watch_init_timers.insert(wid, (t, tag));
        wid
    }

    /// Tears a subscription down: `SubCancel` travels every pinned tree
    /// and removes per-node state eagerly (lease expiry would get there
    /// anyway, this is just prompt).
    pub fn unsubscribe(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, watch_id: u64) {
        let Some(plane) = self.subs.as_deref_mut() else {
            return;
        };
        let Some(watch) = plane.watches.remove(&watch_id) else {
            return;
        };
        plane.watch_of.remove(&watch.spec.id);
        plane.dirty_watches.remove(&watch_id);
        if let Some(t) = plane.watch_init_timers.remove(&watch_id) {
            plane.drop_timer(ctx, t);
        }
        let outbound: Vec<(Id, Box<MoaraMsg>)> = watch
            .roots
            .iter()
            .map(|(k, tree)| {
                (
                    *tree,
                    Box::new(MoaraMsg::SubCancel {
                        sid: watch.spec.id,
                        pred_key: k.clone(),
                    }),
                )
            })
            .collect();
        self.route_many(ctx, outbound);
    }

    /// Drains the client-visible updates of one watch.
    pub fn take_sub_updates(&mut self, watch_id: u64) -> Vec<SubUpdate> {
        self.subs
            .as_deref_mut()
            .and_then(|plane| plane.watches.get_mut(&watch_id))
            .map(WatchState::take_updates)
            .unwrap_or_default()
    }

    /// Drains the set of watch handles that queued updates since the
    /// last drain. Hosts with many standing watches (the gateway result
    /// cache) poll [`MoaraNode::take_sub_updates`] for exactly these
    /// instead of scanning every watch every tick — idle cost is O(1).
    /// The set is a hint, not a transfer: updates stay queued on their
    /// watch until that watch is drained, so hosts that poll specific
    /// watches directly (ctrl/SSE streams) can ignore it.
    pub fn take_dirty_watches(&mut self) -> Vec<u64> {
        self.subs
            .as_deref_mut()
            .map(|plane| plane.dirty_watches.drain().collect())
            .unwrap_or_default()
    }

    /// The watch `watch_id`, if this front-end maintains it.
    fn watch(&self, watch_id: u64) -> Option<&WatchState> {
        self.subs.as_ref()?.watches.get(&watch_id)
    }

    /// The current merged result of a watch (None for unknown handles).
    pub fn watch_result(&self, watch_id: u64) -> Option<AggResult> {
        self.watch(watch_id).map(WatchState::current)
    }

    /// Updates ever emitted by a watch (per-subscription stats).
    pub fn watch_updates_emitted(&self, watch_id: u64) -> u64 {
        self.watch(watch_id).map_or(0, |w| w.updates_emitted)
    }

    /// Number of watches this front-end currently maintains.
    pub fn active_watches(&self) -> usize {
        self.subs.as_ref().map_or(0, |plane| plane.watches.len())
    }

    /// Number of per-tree subscription entries this node currently hosts
    /// (tests: lease-expiry GC must drive this to zero).
    pub fn sub_entry_count(&self) -> usize {
        self.subs.as_ref().map_or(0, |plane| plane.entries.len())
    }

    /// This node's contribution to one tree of a subscription's pinned
    /// cover: its value if it satisfies the composite predicate AND this
    /// tree is the first cover group it belongs to (standing duplicate
    /// suppression for overlapping groups), else the null contribution.
    fn sub_contribution(&self, me: NodeId, spec: &SubSpec, pred_key: &str) -> AggState {
        if !spec.query.predicate.eval(&self.store) {
            return AggState::Null;
        }
        let owning = spec.cover.iter().find(|k| {
            k.as_str() == GLOBAL_PRED
                || find_atom(&spec.query, k).is_some_and(|a| a.eval(&self.store))
        });
        if owning.map(String::as_str) != Some(pred_key) {
            return AggState::Null;
        }
        self.local_contribution(me, &spec.query)
    }

    /// Whom to forward a subscription install to: this node's *tree
    /// children* — all of them.
    ///
    /// Deliberately broader than a query's `query_targets`, twice over.
    /// No SQP bypass: forwarding to a child's updateSet members directly
    /// wins latency for one-shot queries, but a standing fold needs
    /// *stable per-hop sources* — bypass sets churn with every
    /// membership wobble, and re-homing summaries mid-stream is exactly
    /// how double-counts happen. And no PRUNE filtering: a pruned branch
    /// holds no members *today*, but the node that joins the group
    /// tomorrow must already hold the subscription so its first
    /// `on_local_change` can push the delta — relying on the NO-PRUNE
    /// status to re-install would silently lose joins whenever that
    /// status is lost (partitions drop frames without telling anyone).
    /// The standing state this costs is bounded by the lease, and the
    /// steady-state traffic (renewals at half-lease) stays far below
    /// per-period polling.
    ///
    /// When `seq` is given (install path), the install is accounted as a
    /// query for the Section 4 adaptation machinery, so a standing query
    /// warms and prunes the tree exactly like a one-shot query would —
    /// one-shot queries running next to the subscription start from a
    /// converged tree.
    fn sub_targets(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        atom: Option<&SimplePredicate>,
        pred_key: &PredKey,
        tree: Id,
        seq: Option<u64>,
    ) -> Vec<NodeId> {
        let me = ctx.me();
        let view = self.dir.tree(tree);
        let children = view.children(me);
        if &**pred_key == GLOBAL_PRED {
            return children.to_vec();
        }
        let st = Self::state_entry(&mut self.states, &self.dir, &self.cfg, me, pred_key, || {
            atom.cloned()
        });
        if let (Some(seq), Some(st)) = (seq, st) {
            st.on_query(me, seq);
            let sat = st.pred.eval(&self.store);
            st.refresh(me, sat, children);
            Self::send_status(ctx, &self.dir, pred_key, st);
        }
        children.to_vec()
    }

    /// Delivers (or locally applies) the replacement delta of one entry,
    /// suppressed when its subtree aggregate has not moved.
    fn push_sub_delta(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, key: &(SubId, PredKey)) {
        let me = ctx.me();
        let Some(plane) = self.subs.as_deref_mut() else {
            return;
        };
        let Some(entry) = plane.entries.get_mut(key) else {
            return;
        };
        if !entry.announced {
            return;
        }
        let Some((seq, state)) = entry.take_push() else {
            ctx.count("sub_suppressed");
            return;
        };
        let to = entry.push_to;
        // Causal context for this push: the delta being folded right now
        // (implicit propagation), else a fresh sampled root in the
        // delta-push trace-id namespace — a local change starting a wave.
        let parent = match plane.delta_ctx {
            Some(t) => Some(t),
            None => {
                let fresh = self
                    .tracer
                    .as_ref()
                    .is_some_and(|t| t.enabled() && t.sample_root());
                if fresh {
                    let n = plane.next_delta_trace;
                    plane.next_delta_trace += 1;
                    Some(TraceCtx::root(
                        TRACE_NS_SUBDELTA | (u64::from(me.0) << 32) | (n & 0xffff_ffff),
                    ))
                } else {
                    None
                }
            }
        };
        if to == me {
            // This node is both the tree root and the subscriber.
            let prev = std::mem::replace(&mut plane.delta_ctx, parent);
            self.deliver_to_watch(ctx, key.0, key.1.clone(), seq, state);
            self.plane().delta_ctx = prev;
        } else {
            let t = self.trace_span(
                parent,
                me,
                ctx.now(),
                Phase::SubDelta,
                to.0,
                0,
                0,
                0,
                format_args!("{}", key.1),
            );
            ctx.send(
                to,
                MoaraMsg::SubDelta {
                    sid: key.0,
                    pred_key: key.1.clone(),
                    seq,
                    state,
                    trace: t,
                },
            );
            ctx.count("sub_deltas");
        }
    }

    /// Announces an entry upward once its initial sync is complete (all
    /// pinned children reported, or the init timeout cleared them).
    fn maybe_announce(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, key: &(SubId, PredKey)) {
        let ready = self
            .sub_entry(key)
            .is_some_and(|e| !e.announced && e.pending_initial.is_empty());
        if !ready {
            return;
        }
        let plane = self.plane();
        if let Some(t) = plane.sub_init_timers.remove(key) {
            plane.drop_timer(ctx, t);
        }
        plane.entries.get_mut(key).expect("checked").announced = true;
        self.push_sub_delta(ctx, key);
    }

    /// A root's delta reaching the subscribing front-end.
    fn deliver_to_watch(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        sid: SubId,
        pred_key: PredKey,
        seq: u64,
        state: AggState,
    ) {
        let Some(wid) = self.watch_of(&sid) else {
            ctx.count("sub_unknown_delta");
            return;
        };
        // Terminal span of a delta wave: the update reached its watch.
        let dctx = self.plane().delta_ctx;
        self.trace_span(
            dctx,
            ctx.me(),
            ctx.now(),
            Phase::SubDelta,
            NO_PEER,
            0,
            0,
            0,
            format_args!("deliver {pred_key}"),
        );
        let plane = self.plane();
        let Some(watch) = plane.watches.get_mut(&wid) else {
            return;
        };
        if watch.note_root(&pred_key, seq, state).is_none() {
            return; // stale frame
        }
        watch.maybe_emit(ctx.now());
        if !watch.updates.is_empty() {
            plane.dirty_watches.insert(wid);
        }
        if watch.initial_done() {
            if let Some(t) = plane.watch_init_timers.remove(&wid) {
                plane.drop_timer(ctx, t);
            }
        }
    }

    /// Install (or idempotent re-install) of a subscription at this node.
    /// `from` is the installing hop (None when routed here as tree root,
    /// in which case deltas go straight to the subscriber).
    fn handle_subscribe(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        from: Option<NodeId>,
        spec: SubSpec,
        pred_key: PredKey,
        tree: Id,
        seq: u64,
    ) {
        let me = ctx.me();
        let now = ctx.now();
        let push_to = from.unwrap_or(spec.owner);
        let key = (spec.id, pred_key.clone());
        let atom = find_atom(&spec.query, &pred_key);
        let targets = self.sub_targets(ctx, atom, &pred_key, tree, Some(seq));
        let is_new = self.sub_entry(&key).is_none();
        if is_new {
            let mut entry = SubEntry::new(spec.clone(), pred_key.clone(), tree, push_to, now);
            entry.set_local(self.sub_contribution(me, &spec, &pred_key));
            self.plane().entries.insert(key.clone(), entry);
            ctx.count("sub_installs");
            let tag = self.alloc_timer(TimerEvent::SubLease(spec.id, pred_key.clone()));
            ctx.set_maintenance_timer(spec.lease, tag);
        } else {
            let entry = self.sub_entry_mut(&key).expect("checked");
            entry.renew(now);
            entry.push_to = push_to;
            // Whether this is a new parent adopting us or our old parent
            // re-pinning after churn, it may know nothing of our state:
            // the next push must carry the full replacement aggregate.
            entry.last_pushed = None;
            ctx.count("sub_reinstalls");
        }
        let entry = self.sub_entry_mut(&key).expect("just inserted");
        let known: HashSet<NodeId> = entry
            .child_sources()
            .into_iter()
            .chain(entry.pending_initial.iter().copied())
            .collect();
        let missing: Vec<NodeId> = targets
            .iter()
            .copied()
            .filter(|t| !known.contains(t))
            .collect();
        for c in &missing {
            if is_new {
                entry.pending_initial.insert(*c);
            }
            // Fresh install downstream restarts its delta sequence.
            entry.last_seen.insert(*c, 0);
        }
        for c in &missing {
            ctx.send(
                *c,
                MoaraMsg::Subscribe {
                    spec: spec.clone(),
                    pred_key: pred_key.clone(),
                    tree,
                    seq,
                },
            );
        }
        if is_new {
            let entry = self.sub_entry(&key).expect("exists");
            if entry.pending_initial.is_empty() {
                self.maybe_announce(ctx, &key);
            } else if let Some(d) = self.cfg.child_timeout {
                let tag = self.alloc_timer(TimerEvent::SubInit(key.0, key.1.clone()));
                let t = ctx.set_timer(d, tag);
                self.plane().sub_init_timers.insert(key.clone(), (t, tag));
            }
        } else if self.sub_entry(&key).is_some_and(|e| e.announced) {
            // Re-announce the current subtree aggregate to the installer.
            self.push_sub_delta(ctx, &key);
        }
    }

    fn handle_sub_delta(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        from: NodeId,
        sid: SubId,
        pred_key: PredKey,
        seq: u64,
        state: AggState,
    ) {
        let key = (sid, pred_key.clone());
        let known_child = self
            .sub_entry(&key)
            .is_some_and(|e| e.last_seen.contains_key(&from) || e.pending_initial.contains(&from));
        if known_child {
            let entry = self.sub_entry_mut(&key).expect("checked");
            match entry.note_child(from, seq, state) {
                None => {} // stale frame
                Some(changed) => {
                    if !entry.announced {
                        self.maybe_announce(ctx, &key);
                    } else if changed {
                        self.push_sub_delta(ctx, &key);
                    } else {
                        ctx.count("sub_suppressed");
                    }
                }
            }
            return;
        }
        if sid.origin == ctx.me() {
            // Only the *current root* of one of the watch's pinned trees
            // may speak for that tree. Without this check, a re-homed
            // ex-child whose push target still points here (its delta
            // raced the reconcile that dropped it) would overwrite the
            // root's partial with one subtree's aggregate — and the
            // suppression logic would never correct it.
            let is_root = self
                .watch_of(&sid)
                .and_then(|wid| self.watch(wid))
                .and_then(|w| w.roots.iter().find(|(k, _)| *k == pred_key))
                .is_some_and(|(_, tree)| self.dir.owner_node(*tree) == from);
            if is_root {
                self.deliver_to_watch(ctx, sid, pred_key, seq, state);
                return;
            }
        }
        // A sender we no longer track (re-homed by churn, or our state
        // expired): ignore — leases and the next repair wave converge it.
        ctx.count("sub_unknown_delta");
    }

    fn handle_sub_renew(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        from: Option<NodeId>,
        sid: SubId,
        pred_key: PredKey,
        lease_us: u64,
        last_seen_seq: u64,
    ) {
        let key = (sid, pred_key.clone());
        let now = ctx.now();
        if self.sub_entry(&key).is_none() {
            // We lost the state this renewal assumed (our lease lapsed
            // during a partition): bounce a SubCancel to whoever renewed
            // us — the parent hop, or the subscriber itself when the
            // renewal arrived routed (we are the tree root). A cancel
            // arriving from a child source means "re-install me"; one
            // arriving at the origin's watch triggers a full re-pin —
            // either way the gap closes without a new message type.
            let back = from.unwrap_or(sid.origin);
            if back != ctx.me() {
                ctx.send(back, MoaraMsg::SubCancel { sid, pred_key });
            }
            return;
        }
        let entry = self.sub_entry_mut(&key).expect("checked");
        entry.spec.lease = SimDuration::from_micros(lease_us);
        entry.renew(now);
        ctx.count("sub_renews");
        // Anti-entropy: the renewing parent echoes the highest delta
        // sequence it saw from us; if ours is ahead, a replacement state
        // was lost on the wire (partition, drops) — re-push it.
        if entry.announced && last_seen_seq < entry.next_seq {
            entry.last_pushed = None;
            self.push_sub_delta(ctx, &key);
        }
        let entry = self.sub_entry(&key).expect("exists");
        let downstream: Vec<(NodeId, u64)> = entry
            .child_sources()
            .into_iter()
            .chain(entry.pending_initial.iter().copied())
            .map(|c| (c, entry.last_seen.get(&c).copied().unwrap_or(0)))
            .collect();
        for (c, seen) in downstream {
            ctx.send(
                c,
                MoaraMsg::SubRenew {
                    sid,
                    pred_key: pred_key.clone(),
                    lease_us,
                    last_seen_seq: seen,
                },
            );
        }
    }

    fn handle_sub_cancel(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        from: Option<NodeId>,
        sid: SubId,
        pred_key: PredKey,
    ) {
        let key = (sid, pred_key.clone());
        // A cancel reaching the subscription's own origin is a repair
        // signal, never a teardown: some hop upstream (typically an
        // expired tree root answering our renewal) lost its state. The
        // watch re-pins its trees with a full install.
        if sid.origin == ctx.me() {
            if let Some(wid) = self.watch_of(&sid) {
                self.repin_watch(ctx, wid);
                return;
            }
        }
        let Some(entry) = self.sub_entry_mut(&key) else {
            return;
        };
        let from_child = from.is_some_and(|f| {
            entry.last_seen.contains_key(&f) || entry.pending_initial.contains(&f)
        });
        if from_child {
            // The child lost its state (lease lapse in a partition) and
            // is asking to be re-installed.
            let f = from.expect("checked");
            let changed = entry.drop_child(f);
            entry.last_seen.insert(f, 0);
            let msg = MoaraMsg::Subscribe {
                spec: entry.spec.clone(),
                pred_key: pred_key.clone(),
                tree: entry.tree,
                seq: 0,
            };
            ctx.send(f, msg);
            ctx.count("sub_reinstall_requests");
            if changed {
                self.push_sub_delta(ctx, &key);
            }
            return;
        }
        // Teardown from above (front-end cancel, routed or direct).
        let plane = self.plane();
        let entry = plane.entries.remove(&key).expect("checked");
        if let Some(t) = plane.sub_init_timers.remove(&key) {
            plane.drop_timer(ctx, t);
        }
        ctx.count("sub_cancels");
        for c in entry
            .child_sources()
            .into_iter()
            .chain(entry.pending_initial.iter().copied())
        {
            ctx.send(
                c,
                MoaraMsg::SubCancel {
                    sid,
                    pred_key: pred_key.clone(),
                },
            );
        }
    }

    /// Re-sends the full install along every pinned tree of a watch —
    /// the front-end's churn repair (new tree roots learn the
    /// subscription; surviving ones treat it as a renewal).
    fn repin_watch(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, wid: u64) {
        let Some(watch) = self
            .subs
            .as_deref_mut()
            .and_then(|p| p.watches.get_mut(&wid))
        else {
            return;
        };
        let spec = watch.spec.clone();
        let roots = watch.roots.clone();
        for (k, _) in &roots {
            // A repaired root may restart its delta sequence.
            watch.reset_root_seq(k);
        }
        let outbound: Vec<(Id, Box<MoaraMsg>)> = roots
            .iter()
            .map(|(k, tree)| {
                (
                    *tree,
                    Box::new(MoaraMsg::Subscribe {
                        spec: spec.clone(),
                        pred_key: k.clone(),
                        tree: *tree,
                        seq: 0,
                    }),
                )
            })
            .collect();
        ctx.count("sub_repins");
        self.route_many(ctx, outbound);
    }

    /// Subscription upkeep after a local attribute change: recompute the
    /// local contribution of every hosted entry and push the deltas the
    /// change caused. This is the heart of the plane — group churn turns
    /// into O(changed paths) traffic instead of a per-poll re-query.
    fn subs_on_local_change(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>) {
        let me = ctx.me();
        let keys: Vec<(SubId, PredKey)> = self.sub_entries().map(|(k, _)| k).cloned().collect();
        for key in keys {
            let contrib = {
                let entry = self.sub_entry(&key).expect("exists");
                self.sub_contribution(me, &entry.spec, &key.1)
            };
            let entry = self.sub_entry_mut(&key).expect("exists");
            if entry.set_local(contrib) && entry.announced {
                self.push_sub_delta(ctx, &key);
            }
        }
    }

    /// Subscription upkeep when a status update revealed group change
    /// under `pred_key`: the query targets may have moved — install to
    /// new ones, release vanished ones.
    fn subs_on_status(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, pred_key: &str) {
        let keys: Vec<(SubId, PredKey)> = self
            .sub_entries()
            .map(|(k, _)| k)
            .filter(|(_, k)| &**k == pred_key)
            .cloned()
            .collect();
        for key in keys {
            self.repair_entry_targets(ctx, &key);
        }
    }

    /// Diffs one entry's folded sources against the tree's current
    /// install targets: missing targets get a (re-)install, stale
    /// sources (ex-children after a reconfiguration) are dropped
    /// *silently* — the ex-child was re-homed and its state now belongs
    /// to a new parent; a cancel from us could tear down a healthy
    /// branch mid-adoption. Keeping its summary would double-count the
    /// moment the new parent's fold reports the same nodes.
    fn repair_entry_targets(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, key: &(SubId, PredKey)) {
        let (atom, tree) = {
            let entry = self.sub_entry(key).expect("exists");
            (find_atom(&entry.spec.query, &key.1).cloned(), entry.tree)
        };
        let targets = self.sub_targets(ctx, atom.as_ref(), &key.1, tree, None);
        let tset: HashSet<NodeId> = targets.iter().copied().collect();
        let entry = self.sub_entry_mut(key).expect("exists");
        let known: Vec<NodeId> = entry
            .child_sources()
            .into_iter()
            .chain(entry.pending_initial.iter().copied())
            .chain(entry.last_seen.keys().copied())
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        let mut changed = false;
        for s in &known {
            if !tset.contains(s) {
                changed |= entry.drop_child(*s);
            }
        }
        let known: HashSet<NodeId> = known.into_iter().filter(|s| tset.contains(s)).collect();
        let missing: Vec<NodeId> = targets
            .iter()
            .copied()
            .filter(|t| !known.contains(t))
            .collect();
        for c in &missing {
            if !entry.announced {
                entry.pending_initial.insert(*c);
            }
            entry.last_seen.insert(*c, 0);
        }
        let spec = entry.spec.clone();
        for c in &missing {
            ctx.send(
                *c,
                MoaraMsg::Subscribe {
                    spec: spec.clone(),
                    pred_key: key.1.clone(),
                    tree,
                    seq: 0,
                },
            );
        }
        if self.sub_entry(key).is_some_and(|e| e.announced) {
            if changed {
                self.push_sub_delta(ctx, key);
            }
        } else {
            // The diff may have dropped the last straggler this entry's
            // initial sync was waiting on.
            self.maybe_announce(ctx, key);
        }
    }

    /// Subscription repair after an overlay reconfiguration: re-home
    /// roles (a node promoted to tree root adopts the subscriber as its
    /// push target; a demoted ex-root drops its stale entry), re-diff
    /// targets everywhere, and re-pin every owned watch.
    fn subs_on_reconcile(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>) {
        let me = ctx.me();
        let keys: Vec<(SubId, PredKey)> = self.sub_entries().map(|(k, _)| k).cloned().collect();
        for key in keys {
            let (tree, owner, push_to) = {
                let e = self.sub_entry(&key).expect("exists");
                (e.tree, e.spec.owner, e.push_to)
            };
            let parent = self.dir.tree(tree).parent(me);
            match parent {
                None => {
                    // We are (now) the root: deltas go to the subscriber.
                    let entry = self.sub_entry_mut(&key).expect("exists");
                    if entry.push_to != owner {
                        entry.push_to = owner;
                        entry.last_pushed = None;
                    }
                }
                Some(_) if push_to == owner && me != owner => {
                    // Demoted ex-root: the subscriber now talks to the
                    // new root; our copy is stale topology. Drop it —
                    // the new install wave re-pins our subtree.
                    self.plane().entries.remove(&key);
                    if let Some(t) = self.plane().sub_init_timers.remove(&key) {
                        self.drop_timer(ctx, t);
                    }
                    ctx.count("sub_demotions");
                    continue;
                }
                Some(_) => {}
            }
            self.repair_entry_targets(ctx, &key);
        }
        // The origin repairs its pinned trees top-down: new roots learn
        // the subscription, surviving roots treat it as a renewal.
        let wids: Vec<u64> = self
            .subs
            .iter()
            .flat_map(|plane| plane.watches.keys().copied())
            .collect();
        for wid in wids {
            self.repin_watch(ctx, wid);
        }
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
            let Some((qid, pred_key)) = self.sessions.by_timer(tag) else {
                return;
            };
            let sess = self.sessions.get_mut(qid, &pred_key).expect("found");
            if !sess.pending.is_empty() {
                sess.complete = false;
            }
            sess.timer = None;
            self.finalize_session(ctx, qid, &pred_key);
            return;
        }
        if tag & TAG_FRONT != 0 {
            let front_id = tag & !TAG_FRONT;
            let Some(front) = self.fronts.get_mut(&front_id) else {
                return;
            };
            // This timer just fired: nothing is left to cancel.
            front.timer = None;
            match front.phase {
                FrontPhase::Probing => {
                    // The probe timeout. Withdraw this front's probe
                    // interests: keys whose probe now has no waiters are
                    // forgotten so the next query re-probes instead of
                    // coalescing onto a probe that may be lost.
                    self.sched.forget_front(front_id);
                    // Missing costs fall back to worst case in dispatch.
                    self.dispatch_front(ctx, front_id);
                }
                FrontPhase::Waiting => {
                    // The overall deadline.
                    front.complete = false;
                    front.sub_pending.clear();
                    self.finish_front(ctx, front_id);
                }
            }
            return;
        }
        let Some(ev) = self.subs.as_mut().and_then(|p| p.timers.remove(&tag)) else {
            return;
        };
        match ev {
            TimerEvent::SubLease(sid, pred_key) => {
                let key = (sid, pred_key);
                let now = ctx.now();
                match self.sub_entry(&key) {
                    Some(entry) if entry.expired(now) => {
                        let plane = self.plane();
                        plane.entries.remove(&key);
                        if let Some(t) = plane.sub_init_timers.remove(&key) {
                            plane.drop_timer(ctx, t);
                        }
                        ctx.count("sub_expired");
                    }
                    Some(entry) => {
                        // Renewed since armed: sleep until the deadline.
                        let left = entry.deadline.duration_since(now);
                        let tag = self.alloc_timer(TimerEvent::SubLease(key.0, key.1.clone()));
                        ctx.set_maintenance_timer(left, tag);
                    }
                    None => {}
                }
            }
            TimerEvent::SubInit(sid, pred_key) => {
                let key = (sid, pred_key);
                self.plane().sub_init_timers.remove(&key);
                if let Some(entry) = self.sub_entry_mut(&key) {
                    if !entry.announced {
                        // Announce with what arrived; the stragglers'
                        // deltas merge in as they land.
                        entry.pending_initial.clear();
                        self.maybe_announce(ctx, &key);
                    }
                }
            }
            TimerEvent::WatchRenew(wid) => {
                // Renewals are deliberately lightweight (SubRenew, not a
                // full re-install): topology churn already re-pins via
                // reconcile, and the piggybacked last-seen sequences give
                // renewal its anti-entropy teeth.
                if let Some(watch) = self.watch(wid) {
                    let lease = watch.spec.lease;
                    let sid = watch.spec.id;
                    let renews: Vec<(Id, Box<MoaraMsg>)> = watch
                        .roots
                        .iter()
                        .map(|(k, tree)| {
                            (
                                *tree,
                                Box::new(MoaraMsg::SubRenew {
                                    sid,
                                    pred_key: k.clone(),
                                    lease_us: lease.as_micros(),
                                    last_seen_seq: watch.last_seen.get(k).copied().unwrap_or(0),
                                }),
                            )
                        })
                        .collect();
                    self.route_many(ctx, renews);
                    let half = SimDuration::from_micros((lease.as_micros() / 2).max(1));
                    let tag = self.alloc_timer(TimerEvent::WatchRenew(wid));
                    ctx.set_maintenance_timer(half, tag);
                }
            }
            TimerEvent::WatchTick(wid) => {
                let plane = self.plane();
                if let Some(watch) = plane.watches.get_mut(&wid) {
                    if watch.last_result.is_some() {
                        watch.emit_snapshot(ctx.now());
                    }
                    if !watch.updates.is_empty() {
                        plane.dirty_watches.insert(wid);
                    }
                    if let DeliveryPolicy::Periodic(period) = watch.spec.policy {
                        let tag = plane.alloc_timer(TimerEvent::WatchTick(wid));
                        ctx.set_maintenance_timer(period, tag);
                    }
                }
            }
            TimerEvent::WatchInit(wid) => {
                let plane = self.plane();
                plane.watch_init_timers.remove(&wid);
                if let Some(watch) = plane.watches.get_mut(&wid) {
                    watch.force_initial(ctx.now());
                    if !watch.updates.is_empty() {
                        plane.dirty_watches.insert(wid);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moara_query::parse_query;

    fn node(cfg: MoaraConfig) -> MoaraNode {
        let dir = Directory::from_members(&[(NodeId(0), Id(7))], cfg.bits_per_digit);
        MoaraNode::new(dir, cfg)
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

    #[test]
    fn query_epoch_keeps_a_restarted_counter_off_its_old_ids() {
        let mut n = node(MoaraConfig::default());
        assert_eq!(n.next_q, 0, "the simulator's ids start at 0");
        n.set_query_epoch(2);
        assert_eq!(n.next_q, 2 << QUERY_EPOCH_SHIFT);
        // The accounting tag (and so the trace id) is origin + low bits:
        // the epoch does not reach it.
        assert_eq!(qid(n.next_q).tag(), qid(0).tag());
    }

    /// A `NetCtx` that records what a handler sends and which timers it
    /// arms, at time zero.
    struct Recorder {
        me: NodeId,
        sent: Vec<(NodeId, MoaraMsg)>,
        timers: Vec<TimerTag>,
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
        fn cancel_timer(&mut self, _id: TimerId) {}
        fn count(&mut self, _name: &'static str) {}
    }

    /// `NodeId(0)` of a two-node overlay whose other node is the front-end
    /// and, in the trees of two group attributes `NodeId(0)` roots, its
    /// only child. Returns the node, its recorder, the query
    /// `SELECT count(*) WHERE a = true OR b = true` and each group's
    /// `(key, tree)`.
    fn two_tree_root() -> (MoaraNode, Recorder, Query, [(PredKey, Id); 2]) {
        let dir = Directory::from_members(&[(NodeId(0), Id(1 << 62)), (NodeId(1), Id(3 << 62))], 4);
        let attrs: Vec<String> = (0..)
            .map(|i| format!("G{i}"))
            .filter(|a| dir.owner_node(dir.tree_key(a)) == NodeId(0))
            .take(2)
            .collect();
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
        let ctx = Recorder {
            me: NodeId(0),
            sent: Vec::new(),
            timers: Vec::new(),
        };
        (
            MoaraNode::new(dir, MoaraConfig::default()),
            ctx,
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
        let mut ctx = Recorder {
            me: NodeId(1),
            sent: Vec::new(),
            timers: Vec::new(),
        };
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
        assert_eq!(leaf.sessions.iter().count(), 0, "nothing left open");
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
        assert_eq!(n.sessions.iter().count(), 0);
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
        assert_eq!(n.sessions.iter().count(), 0);
    }
}
