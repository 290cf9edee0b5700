//! The front-end (Section 6): a query accepted at this node is planned
//! (CNF → candidate covers), size-probed when costs can change the
//! choice, fanned out as one sub-query per tree of the chosen cover, and
//! answered once every tree root has replied or the deadline passed.
//! Many fronts run at once; the probe cache and the in-flight probe
//! registry they share are the node's `QuerySched`.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use moara_aggregation::{AggResult, AggState};
use moara_dht::Id;
use moara_query::{Cover, CoverPlan, Query};
use moara_simnet::{SimDuration, SimTime, TimerId};
use moara_trace::{Phase, TraceCtx, NO_PEER};
use moara_transport::NetCtx;

use super::{per_root, MoaraNode, QUERY_EPOCH_SHIFT, TAG_FRONT};
use crate::config::Mode;
use crate::msg::{MoaraMsg, PredKey, QueryId, GLOBAL_PRED};

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

enum FrontPhase {
    /// Waiting for size-probe replies.
    Probing,
    /// Waiting for sub-query replies.
    Waiting,
}

/// An in-flight query at the front-end (originating node), found by its
/// front handle: the count bits of its [`QueryId`]. Many of these
/// coexist; the shared `QuerySched` coalesces their probes and caches
/// their costs across queries.
pub(super) struct FrontQuery {
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
    /// the front handle).
    timer: Option<TimerId>,
    /// The front-end's trace context for this query (span_id = the plan
    /// span): probes and sub-queries descend from it, and the terminal
    /// reply span parents to it. `None` when unsampled.
    trace: Option<TraceCtx>,
    /// Span ids minted per outstanding probe, so the probe span recorded
    /// on reply matches the id the probed root parented to.
    probe_spans: HashMap<PredKey, u64>,
}

/// The front handle of a query: its id's count, without the epoch bits.
fn front_of(qid: QueryId) -> u64 {
    qid.n & ((1 << QUERY_EPOCH_SHIFT) - 1)
}

impl MoaraNode {
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

    /// Arms `front_id`'s probe or deadline timer.
    fn arm_front_timer(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, front_id: u64, d: SimDuration) {
        let t = ctx.set_timer(d, TAG_FRONT | front_id);
        self.fronts.get_mut(&front_id).expect("front exists").timer = Some(t);
    }

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
        let qid = QueryId {
            origin: ctx.me(),
            n: self.next_q,
        };
        self.next_q += 1;
        let front_id = front_of(qid);
        let query = Arc::new(query);
        let plan = self.cover_plan(&query);
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
                ctx,
                root,
                Phase::Parse,
                NO_PEER,
                0,
                format_args!("agg={kind:?}"),
            );
            let how = if plan.is_some() { "cnf" } else { "global" };
            self.trace_span(ctx, parsed, Phase::Plan, NO_PEER, 0, format_args!("{how}"))
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
                let send = match self.sched.waiters.entry(key) {
                    Entry::Occupied(mut e) => {
                        let wait = e.get_mut();
                        wait.fronts.push(front_id);
                        // An in-flight probe that has outlived the probe
                        // timeout is presumed lost and re-sent, otherwise
                        // continuous traffic would coalesce onto a dead
                        // probe forever. The new qid supersedes the old
                        // probe: a slow reply to it can no longer be
                        // cached as fresh.
                        let lost = now.duration_since(wait.sent_at) >= self.cfg.probe_timeout;
                        if lost {
                            (wait.sent_at, wait.epoch, wait.probe_qid) = (now, epoch, qid);
                        }
                        lost
                    }
                    Entry::Vacant(e) => {
                        e.insert(crate::sched::ProbeWait {
                            fronts: vec![front_id],
                            sent_at: now,
                            epoch,
                            probe_qid: qid,
                        });
                        true
                    }
                };
                if send {
                    outbound.push((self.dir.tree_key(atom.attr.as_str()), Box::new(probe)));
                    ctx.count("size_probes");
                } else {
                    // Another in-flight query already probed this tree;
                    // share its reply instead of re-asking.
                    ctx.count("probes_coalesced");
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
        let front = self.fronts.get_mut(&front_id).expect("front exists");
        front.phase = FrontPhase::Waiting;
        if let Some(t) = front.timer.take() {
            ctx.cancel_timer(t);
        }
        let front = &self.fronts[&front_id];
        let costs = &front.costs;
        let trees = self.cover_trees(&front.query, front.plan.as_ref(), |k| costs.get(k).copied());
        let (qid, query, ftrace) = (front.qid, front.query.clone(), front.trace);
        if trees.is_empty() {
            self.finish_front(ctx, front_id);
            return;
        }
        let front = self.fronts.get_mut(&front_id).expect("front exists");
        for (pred_key, _) in &trees {
            front.sub_pending.insert(pred_key.clone());
        }
        if let Some(d) = self.cfg.front_timeout {
            self.arm_front_timer(ctx, front_id, d);
        }
        // One fan-out span at the origin covers the whole sub-query
        // spray; each tree root's own fan-out span parents to it.
        let subs = trees.len();
        let qtrace = self.trace_span(
            ctx,
            ftrace,
            Phase::FanOut,
            NO_PEER,
            0,
            format_args!("subs={subs}"),
        );
        let me = ctx.me();
        let outbound = per_root(trees, |pred_key, tree| MoaraMsg::QueryDown {
            qid,
            seq: 0,
            pred_key,
            tree,
            query: (*query).clone(),
            reply_to: me,
            trace: qtrace,
        });
        self.route_many(ctx, outbound);
    }

    /// The candidate covers of `query` (Section 6): `None` in Global
    /// mode, or when its CNF blows up — it then goes to the global tree.
    pub(super) fn cover_plan(&self, query: &Query) -> Option<CoverPlan> {
        if self.cfg.mode == Mode::Global {
            return None;
        }
        query
            .predicate
            .to_cnf()
            .ok()
            .map(|cnf| CoverPlan::build(&cnf))
    }

    /// One `(predicate key, tree routing key)` per tree of the cover
    /// chosen from `plan`: the cheapest by `cost` (a group without one
    /// counts as a cold tree, twice the system size) when size probes are
    /// on, else the one of fewest trees. Without a plan, the global tree
    /// of the aggregated attribute.
    pub(super) fn cover_trees(
        &self,
        query: &Query,
        plan: Option<&CoverPlan>,
        cost: impl Fn(&str) -> Option<u64>,
    ) -> Vec<(PredKey, Id)> {
        let cold = (self.dir.ring_size() as u64).saturating_mul(2);
        let cover = match plan {
            None => Cover::All,
            Some(plan) if self.cfg.use_size_probes => {
                plan.choose(|atom| cost(&atom.key()).unwrap_or(cold))
            }
            Some(plan) => plan.choose(|_| 1),
        };
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
        let waited = ctx.now().duration_since(front.issued_at).as_micros();
        self.trace_span(
            ctx,
            front.trace,
            Phase::Reply,
            NO_PEER,
            waited,
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

    /// A tree root's final answer to one of this node's sub-queries, if a
    /// front still waits on it.
    pub(super) fn handle_root_answer(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        qid: QueryId,
        pred_key: PredKey,
        state: AggState,
        np: u64,
        complete: bool,
    ) {
        let front_id = front_of(qid);
        let Some(front) = self
            .fronts
            .get_mut(&front_id)
            .filter(|f| f.qid == qid && f.sub_pending.contains(&pred_key))
        else {
            return;
        };
        // Lazy cost refresh (Section 6.3): the root's answer carries the
        // tree's current NO-PRUNE count, so every query keeps the probe
        // cache tracking tree convergence for free. Without this, a
        // cached cold-tree estimate (2×N) would outlive the very query
        // that built and pruned the tree. Skipped if churn was observed
        // since the query was accepted — the measurement might predate
        // the change the epoch bump evicted.
        if front.epoch == self.sched.cache.epoch() && &*pred_key != GLOBAL_PRED {
            self.sched
                .cache
                .insert(pred_key.clone(), np.saturating_mul(2), ctx.now());
        }
        front.sub_pending.remove(&pred_key);
        front.complete &= complete;
        let kind = front.query.agg;
        let prev = std::mem::replace(&mut front.acc, AggState::Null);
        front.acc = kind.merge(prev, state);
        if front.sub_pending.is_empty() {
            self.finish_front(ctx, front_id);
        }
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
    pub(super) fn handle_size_reply(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        qid: QueryId,
        pred_key: PredKey,
        cost: u64,
    ) {
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
            let probe = front.trace.zip(front.probe_spans.remove(&pred_key));
            let waited = ctx.now().duration_since(front.issued_at).as_micros();
            if front.probes_pending.is_empty() {
                ready.push(fid);
            }
            if let Some((t, sid)) = probe {
                let detail = format_args!("{pred_key}={cost}");
                self.record_span(ctx, t.descend(sid), Phase::Probe, NO_PEER, waited, detail);
            }
        }
        for fid in ready {
            self.dispatch_front(ctx, fid);
        }
    }

    /// A front's timer: the probe timeout dispatches with the costs that
    /// arrived; the overall deadline finishes the query incomplete.
    pub(super) fn on_front_timer(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, front_id: u64) {
        let Some(front) = self.fronts.get_mut(&front_id) else {
            return;
        };
        // This timer just fired: nothing is left to cancel.
        front.timer = None;
        match front.phase {
            FrontPhase::Probing => {
                // Withdraw this front's probe interests: keys whose probe
                // now has no waiters are forgotten so the next query
                // re-probes instead of coalescing onto a probe that may
                // be lost.
                self.sched.forget_front(front_id);
                // Missing costs fall back to worst case in dispatch.
                self.dispatch_front(ctx, front_id);
            }
            FrontPhase::Waiting => {
                front.complete = false;
                front.sub_pending.clear();
                self.finish_front(ctx, front_id);
            }
        }
    }
}
