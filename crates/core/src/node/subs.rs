//! The standing-query plane: a subscription's install, delta, renewal
//! and cancel traffic, at the front-end that owns the watch and at every
//! tree node hosting one of its entries. The state itself — `SubEntry`,
//! `WatchState` — is `moara-subscribe`'s; this module moves it over the
//! wire and repairs it under churn. See `docs/continuous-queries.md`.

use std::collections::{BTreeMap, HashMap, HashSet};

use moara_aggregation::{AggResult, AggState};
use moara_dht::Id;
use moara_query::{Query, SimplePredicate};
use moara_simnet::{NodeId, SimDuration, TimerId, TimerTag};
use moara_subscribe::{DeliveryPolicy, SubEntry, SubId, SubSpec, SubUpdate, WatchState};
use moara_trace::{Phase, TraceCtx, NO_PEER, TRACE_NS_SUBDELTA};
use moara_transport::NetCtx;

use super::{find_atom, per_root, MoaraNode, QueryTable};
use crate::msg::{MoaraMsg, PredKey, GLOBAL_PRED};

/// What a subscription-plane timer is for.
pub(super) enum TimerEvent {
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
pub(super) struct SubPlane {
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
    pub(super) timers: QueryTable<TimerTag, TimerEvent>,
    next_watch: u64,
    next_sub: u64,
    next_tag: u64,
    /// The trace context of the `SubDelta` currently being handled —
    /// implicit causal propagation: a push triggered while folding an
    /// incoming delta chains to it instead of starting a fresh trace.
    pub(super) delta_ctx: Option<TraceCtx>,
    /// Counter for delta-push trace ids minted at this node.
    next_delta_trace: u64,
}

impl SubPlane {
    /// Registers a timer event; returns the tag to arm it with.
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

    /// Forgets `key`'s entry and cancels its initial-sync timer.
    fn drop_entry(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        key: &(SubId, PredKey),
    ) -> Option<SubEntry> {
        if let Some(t) = self.sub_init_timers.remove(key) {
            self.drop_timer(ctx, t);
        }
        self.entries.remove(key)
    }

    /// Forgets every entry, watch and timer, keeping the id counters so
    /// no watch handle or subscription id is handed out twice.
    pub(super) fn reset(&mut self) {
        *self = SubPlane {
            next_watch: self.next_watch,
            next_sub: self.next_sub,
            next_tag: self.next_tag,
            next_delta_trace: self.next_delta_trace,
            ..SubPlane::default()
        };
    }
}

/// The renewal period of a lease: half of it, so one lost renewal still
/// leaves a margin.
fn half(lease: SimDuration) -> SimDuration {
    SimDuration::from_micros((lease.as_micros() / 2).max(1))
}

// ----- the front-end's watches -------------------------------------------

impl MoaraNode {
    /// The subscription plane, created on first use.
    fn plane(&mut self) -> &mut SubPlane {
        self.subs.get_or_insert_with(Box::default)
    }

    /// The watch `watch_id`, if this front-end maintains it.
    fn watch(&self, watch_id: u64) -> Option<&WatchState> {
        self.subs.as_ref()?.watches.get(&watch_id)
    }

    /// The watch this node originated for `sid`, if any.
    fn watch_of(&self, sid: &SubId) -> Option<u64> {
        self.subs.as_ref()?.watch_of.get(sid).copied()
    }

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

        let plan = self.cover_plan(&query);
        let cache = &self.sched.cache;
        let roots = self.cover_trees(&query, plan.as_ref(), |k| cache.lookup(k, now));
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
        // Structurally unsatisfiable: the (empty) result is standing truth
        // with no communication at all.
        if roots.is_empty() {
            watch.force_initial(now);
        }
        let plane = self.plane();
        plane.watches.insert(wid, watch);
        plane.watch_of.insert(sid, wid);
        if roots.is_empty() {
            plane.dirty_watches.insert(wid);
            return wid;
        }
        ctx.count("sub_subscribes");
        let outbound = per_root(roots, |pred_key, tree| MoaraMsg::Subscribe {
            spec: spec.clone(),
            pred_key,
            tree,
            seq: 0,
        });
        self.route_many(ctx, outbound);

        // Both standing clocks are maintenance timers — they must not
        // gate quiescence.
        let plane = self.plane();
        let tag = plane.alloc_timer(TimerEvent::WatchRenew(wid));
        ctx.set_maintenance_timer(half(lease), tag);
        if let DeliveryPolicy::Periodic(period) = policy {
            let tag = plane.alloc_timer(TimerEvent::WatchTick(wid));
            ctx.set_maintenance_timer(period, tag);
        }
        let init_to = self.cfg.front_timeout.unwrap_or(SimDuration::from_secs(60));
        let plane = self.plane();
        let tag = plane.alloc_timer(TimerEvent::WatchInit(wid));
        let t = ctx.set_timer(init_to, tag);
        plane.watch_init_timers.insert(wid, (t, tag));
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
        let sid = watch.spec.id;
        let outbound = per_root(watch.roots, |pred_key, _| MoaraMsg::SubCancel {
            sid,
            pred_key,
        });
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
            ctx,
            dctx,
            Phase::SubDelta,
            NO_PEER,
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
        let roots = watch.roots.clone();
        for (k, _) in &roots {
            // A repaired root may restart its delta sequence.
            watch.reset_root_seq(k);
        }
        let outbound = per_root(roots, |pred_key, tree| MoaraMsg::Subscribe {
            spec: watch.spec.clone(),
            pred_key,
            tree,
            seq: 0,
        });
        ctx.count("sub_repins");
        self.route_many(ctx, outbound);
    }

    /// Fires a subscription-plane timer.
    pub(super) fn on_sub_timer(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, tag: TimerTag) {
        let Some(ev) = self.subs.as_mut().and_then(|p| p.timers.remove(&tag)) else {
            return;
        };
        let plane = self.plane();
        match ev {
            TimerEvent::SubLease(sid, pred_key) => {
                let key = (sid, pred_key);
                let now = ctx.now();
                match plane.entries.get(&key) {
                    Some(entry) if entry.expired(now) => {
                        plane.drop_entry(ctx, &key);
                        ctx.count("sub_expired");
                    }
                    Some(entry) => {
                        // Renewed since armed: sleep until the deadline.
                        let left = entry.deadline.duration_since(now);
                        let tag = plane.alloc_timer(TimerEvent::SubLease(key.0, key.1));
                        ctx.set_maintenance_timer(left, tag);
                    }
                    None => {}
                }
            }
            TimerEvent::SubInit(sid, pred_key) => {
                let key = (sid, pred_key);
                plane.sub_init_timers.remove(&key);
                if let Some(entry) = plane.entries.get_mut(&key) {
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
                let Some(watch) = plane.watches.get(&wid) else {
                    return;
                };
                let (sid, lease) = (watch.spec.id, watch.spec.lease);
                let roots = watch.roots.iter().cloned();
                let renews = per_root(roots, |pred_key, _| MoaraMsg::SubRenew {
                    sid,
                    last_seen_seq: watch.last_seen.get(&pred_key).copied().unwrap_or(0),
                    pred_key,
                    lease_us: lease.as_micros(),
                });
                self.route_many(ctx, renews);
                let tag = self.plane().alloc_timer(TimerEvent::WatchRenew(wid));
                ctx.set_maintenance_timer(half(lease), tag);
            }
            TimerEvent::WatchTick(wid) => {
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

// ----- the entries a tree node hosts -------------------------------------

impl MoaraNode {
    fn sub_entry(&self, key: &(SubId, PredKey)) -> Option<&SubEntry> {
        self.subs.as_ref()?.entries.get(key)
    }

    fn sub_entry_mut(&mut self, key: &(SubId, PredKey)) -> Option<&mut SubEntry> {
        self.subs.as_mut()?.entries.get_mut(key)
    }

    /// The keys of the hosted entries `keep` selects, in key order.
    fn sub_keys(
        &self,
        keep: impl Fn(&(SubId, PredKey), &SubEntry) -> bool,
    ) -> Vec<(SubId, PredKey)> {
        let entries = self.subs.iter().flat_map(|plane| &plane.entries);
        entries
            .filter(|(k, e)| keep(k, e))
            .map(|(k, _)| k.clone())
            .collect()
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

    /// Installs the subscription at each of `children`: the entry expects
    /// a fresh delta stream from it — and, while `initial`, its first
    /// summary before announcing — and it gets a `Subscribe` of `spec`
    /// for the entry's tree.
    fn install_at(
        ctx: &mut dyn NetCtx<MoaraMsg>,
        entry: &mut SubEntry,
        spec: &SubSpec,
        children: impl IntoIterator<Item = NodeId>,
        initial: bool,
        seq: u64,
    ) {
        for c in children {
            if initial {
                entry.pending_initial.insert(c);
            }
            // A fresh install downstream restarts its delta sequence.
            entry.last_seen.insert(c, 0);
            ctx.send(
                c,
                MoaraMsg::Subscribe {
                    spec: spec.clone(),
                    pred_key: entry.pred_key.clone(),
                    tree: entry.tree,
                    seq,
                },
            );
        }
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
                ctx,
                parent,
                Phase::SubDelta,
                to.0,
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

    /// Install (or idempotent re-install) of a subscription at this node.
    /// `from` is the installing hop (None when routed here as tree root,
    /// in which case deltas go straight to the subscriber).
    pub(super) fn handle_subscribe(
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
            let plane = self.plane();
            plane.entries.insert(key.clone(), entry);
            ctx.count("sub_installs");
            let tag = plane.alloc_timer(TimerEvent::SubLease(spec.id, pred_key));
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
        let known: HashSet<NodeId> = entry.sources().collect();
        let missing = targets.into_iter().filter(|t| !known.contains(t));
        Self::install_at(ctx, entry, &spec, missing, is_new, seq);
        if is_new {
            if entry.pending_initial.is_empty() {
                self.maybe_announce(ctx, &key);
            } else if let Some(d) = self.cfg.child_timeout {
                let plane = self.plane();
                let tag = plane.alloc_timer(TimerEvent::SubInit(key.0, key.1.clone()));
                let t = ctx.set_timer(d, tag);
                plane.sub_init_timers.insert(key, (t, tag));
            }
        } else if entry.announced {
            // Re-announce the current subtree aggregate to the installer.
            self.push_sub_delta(ctx, &key);
        }
    }

    pub(super) fn handle_sub_delta(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        from: NodeId,
        sid: SubId,
        pred_key: PredKey,
        seq: u64,
        state: AggState,
    ) {
        let key = (sid, pred_key);
        if let Some(entry) = self.sub_entry_mut(&key).filter(|e| e.is_source(from)) {
            match entry.note_child(from, seq, state) {
                None => {} // stale frame
                Some(_) if !entry.announced => self.maybe_announce(ctx, &key),
                Some(true) => self.push_sub_delta(ctx, &key),
                Some(false) => ctx.count("sub_suppressed"),
            }
            return;
        }
        let (sid, pred_key) = key;
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

    pub(super) fn handle_sub_renew(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        from: Option<NodeId>,
        sid: SubId,
        pred_key: PredKey,
        lease_us: u64,
        last_seen_seq: u64,
    ) {
        let key = (sid, pred_key);
        let Some(entry) = self.sub_entry_mut(&key) else {
            // We lost the state this renewal assumed (our lease lapsed
            // during a partition): bounce a SubCancel to whoever renewed
            // us — the parent hop, or the subscriber itself when the
            // renewal arrived routed (we are the tree root). A cancel
            // arriving from a child source means "re-install me"; one
            // arriving at the origin's watch triggers a full re-pin —
            // either way the gap closes without a new message type.
            let back = from.unwrap_or(sid.origin);
            if back != ctx.me() {
                ctx.send(
                    back,
                    MoaraMsg::SubCancel {
                        sid,
                        pred_key: key.1,
                    },
                );
            }
            return;
        };
        entry.spec.lease = SimDuration::from_micros(lease_us);
        entry.renew(ctx.now());
        ctx.count("sub_renews");
        // Anti-entropy: the renewing parent echoes the highest delta
        // sequence it saw from us; if ours is ahead, a replacement state
        // was lost on the wire (partition, drops) — re-push it.
        if entry.announced && last_seen_seq < entry.next_seq {
            entry.last_pushed = None;
            self.push_sub_delta(ctx, &key);
        }
        let entry = self.sub_entry(&key).expect("exists");
        for c in entry.sources() {
            ctx.send(
                c,
                MoaraMsg::SubRenew {
                    sid,
                    pred_key: key.1.clone(),
                    lease_us,
                    last_seen_seq: entry.last_seen.get(&c).copied().unwrap_or(0),
                },
            );
        }
    }

    pub(super) fn handle_sub_cancel(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        from: Option<NodeId>,
        sid: SubId,
        pred_key: PredKey,
    ) {
        let key = (sid, pred_key);
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
        if let Some(f) = from.filter(|&f| entry.is_source(f)) {
            // The child lost its state (lease lapse in a partition) and
            // is asking to be re-installed.
            let changed = entry.drop_child(f);
            let spec = entry.spec.clone();
            Self::install_at(ctx, entry, &spec, [f], false, 0);
            ctx.count("sub_reinstall_requests");
            if changed {
                self.push_sub_delta(ctx, &key);
            }
            return;
        }
        // Teardown from above (front-end cancel, routed or direct).
        let entry = self.plane().drop_entry(ctx, &key).expect("checked");
        ctx.count("sub_cancels");
        for c in entry.sources() {
            ctx.send(
                c,
                MoaraMsg::SubCancel {
                    sid,
                    pred_key: key.1.clone(),
                },
            );
        }
    }

    /// Subscription upkeep after a local attribute change: recompute the
    /// local contribution of every hosted entry and push the deltas the
    /// change caused. This is the heart of the plane — group churn turns
    /// into O(changed paths) traffic instead of a per-poll re-query.
    pub(super) fn subs_on_local_change(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>) {
        let me = ctx.me();
        for key in self.sub_keys(|_, _| true) {
            let entry = self.sub_entry(&key).expect("exists");
            let contrib = self.sub_contribution(me, &entry.spec, &key.1);
            let entry = self.sub_entry_mut(&key).expect("exists");
            if entry.set_local(contrib) && entry.announced {
                self.push_sub_delta(ctx, &key);
            }
        }
    }

    /// Subscription upkeep when a status update revealed group change
    /// under `pred_key`: the query targets may have moved — install to
    /// new ones, release vanished ones.
    pub(super) fn subs_on_status(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, pred_key: &str) {
        for key in self.sub_keys(|(_, k), _| &**k == pred_key) {
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
        let entry = self.sub_entry(key).expect("exists");
        let (atom, tree) = (find_atom(&entry.spec.query, &key.1).cloned(), entry.tree);
        let targets = self.sub_targets(ctx, atom.as_ref(), &key.1, tree, None);
        let tset: HashSet<NodeId> = targets.iter().copied().collect();
        let entry = self.sub_entry_mut(key).expect("exists");
        let known: HashSet<NodeId> = entry
            .sources()
            .chain(entry.last_seen.keys().copied())
            .collect();
        let mut changed = false;
        for &s in known.iter().filter(|s| !tset.contains(s)) {
            changed |= entry.drop_child(s);
        }
        let (spec, initial) = (entry.spec.clone(), !entry.announced);
        let missing = targets.into_iter().filter(|t| !known.contains(t));
        Self::install_at(ctx, entry, &spec, missing, initial, 0);
        if initial {
            // The diff may have dropped the last straggler this entry's
            // initial sync was waiting on.
            self.maybe_announce(ctx, key);
        } else if changed {
            self.push_sub_delta(ctx, key);
        }
    }

    /// Subscription repair after an overlay reconfiguration: re-home
    /// roles (a node promoted to tree root adopts the subscriber as its
    /// push target; a demoted ex-root drops its stale entry), re-diff
    /// targets everywhere, and re-pin every owned watch.
    pub(super) fn subs_on_reconcile(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>) {
        let me = ctx.me();
        for key in self.sub_keys(|_, _| true) {
            let entry = self.sub_entry(&key).expect("exists");
            let (owner, push_to) = (entry.spec.owner, entry.push_to);
            match self.dir.tree(entry.tree).parent(me) {
                None if push_to != owner => {
                    // We are (now) the root: deltas go to the subscriber.
                    let entry = self.sub_entry_mut(&key).expect("exists");
                    entry.push_to = owner;
                    entry.last_pushed = None;
                }
                Some(_) if push_to == owner && me != owner => {
                    // Demoted ex-root: the subscriber now talks to the
                    // new root; our copy is stale topology. Drop it —
                    // the new install wave re-pins our subtree.
                    self.plane().drop_entry(ctx, &key);
                    ctx.count("sub_demotions");
                    continue;
                }
                _ => {}
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

    /// Retracts a failed child's summary from every entry folding it —
    /// the result shrinks within the failure confirm that called this.
    pub(super) fn subs_on_peer_failed(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, failed: NodeId) {
        for key in self.sub_keys(|_, e| e.is_source(failed)) {
            let entry = self.sub_entry_mut(&key).expect("filtered");
            let changed = entry.drop_child(failed);
            if !entry.announced {
                self.maybe_announce(ctx, &key);
            } else if changed {
                self.push_sub_delta(ctx, &key);
            }
        }
    }
}
