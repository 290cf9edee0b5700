//! A tree node's one-shot aggregation sessions (Sections 3–5): a
//! `QueryDown` opens a session that forwards the query to this node's
//! query targets, folds their replies, and answers upstream once every
//! target replied, failed or timed out. A node contributes its own value
//! to a query at most once, however many trees of the query's cover reach
//! it (Section 6.2's duplicate suppression, the `DedupWindow`).

use std::hash::{Hash, Hasher};

use moara_aggregation::{AggKind, AggState};
use moara_dht::Id;
use moara_query::Query;
use moara_simnet::{MintedSet, NodeId, SimDuration, SimTime, TimerId, TimerTag};
use moara_trace::{Phase, TraceCtx};
use moara_transport::NetCtx;

use super::{find_atom, MoaraNode, QueryTable, TAG_SESSION};
use crate::msg::{MoaraMsg, PredKey, QueryId, GLOBAL_PRED};
use crate::state::Targets;

/// Query ids one generation of the duplicate-suppression window holds
/// before it is rotated out, whatever `dedup_ttl` says. The duplicate the
/// window guards against is the same query's `QueryDown` reaching a node
/// through a second tree of its cover, which trails the first by the skew
/// between two tree walks — a handful of queries' worth of traffic, where
/// this is thousands. Bounding by count keeps the window's memory
/// independent of the request rate (rate × 300 s is 1.5 M ids per group
/// member at 5 k requests a second).
pub(super) const DEDUP_GENERATION: usize = 8_192;

/// A [`QueryId`] as the dedup window holds it: the origin and the full
/// count, epoch bits included, in 12 bytes aligned to 4, where a
/// `QueryId` pads to 16.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) struct SeenId {
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
pub(super) struct DedupWindow {
    recent: MintedSet<SeenId>,
    older: MintedSet<SeenId>,
    /// When the first id of `recent` went in.
    recent_since: SimTime,
}

impl DedupWindow {
    pub(super) fn contains(&self, qid: &QueryId) -> bool {
        let id = SeenId::from(qid);
        self.recent.contains(&id) || self.older.contains(&id)
    }

    pub(super) fn insert(&mut self, qid: &QueryId, now: SimTime, ttl: SimDuration) {
        if self.recent.len() >= DEDUP_GENERATION || now.duration_since(self.recent_since) >= ttl {
            self.older = std::mem::take(&mut self.recent);
        }
        if self.recent.is_empty() {
            self.recent_since = now;
        }
        self.recent.insert(SeenId::from(qid));
    }

    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.recent.len() + self.older.len()
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
pub(super) struct Sessions {
    pub(super) by_query: QueryTable<QueryId, QuerySessions>,
}

/// The sessions of one query at this node.
pub(super) struct QuerySessions {
    first: Session,
    more: Vec<Session>,
}

impl Sessions {
    pub(super) fn contains(&self, qid: QueryId, pred_key: &str) -> bool {
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

    pub(super) fn clear(&mut self) {
        self.by_query.clear();
    }
}

impl MoaraNode {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_query_down(
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
            ctx,
            trace,
            Phase::FanOut,
            reply_to.0,
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
        if let Some((t, _)) = sess.timer.take() {
            ctx.cancel_timer(t);
        }
        let complete = sess.complete && sess.pending.is_empty();
        // The fold span's queue-wait is the time this hop sat waiting for
        // its children before it could merge and answer upstream.
        let t = self.trace_span(
            ctx,
            sess.trace,
            Phase::Fold,
            sess.reply_to.0,
            ctx.now().duration_since(sess.started_at).as_micros(),
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

    /// A `QueryReply`: a child's answer to one of this node's sessions,
    /// or else a tree root's answer to one of its fronts.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_query_reply(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        from: NodeId,
        qid: QueryId,
        pred_key: PredKey,
        state: AggState,
        np: u64,
        complete: bool,
    ) {
        let Some(sess) = self
            .sessions
            .get_mut(qid, &pred_key)
            .filter(|s| s.pending.contains(from))
        else {
            self.handle_root_answer(ctx, qid, pred_key, state, np, complete);
            return;
        };
        sess.pending.remove(from);
        sess.complete &= complete;
        let kind = sess.kind;
        let prev = std::mem::replace(&mut sess.acc, AggState::Null);
        sess.acc = kind.merge(prev, state);
        let (answered, tree) = (sess.pending.is_empty(), sess.tree);
        // One state lookup serves the lazy np refresh for direct children
        // (Section 6.3) and, once every target answered, the branch count
        // this node reports upstream.
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
    }

    /// A session's child timer: the session answers with what arrived,
    /// incomplete if a target is still silent.
    pub(super) fn on_session_timer(&mut self, ctx: &mut dyn NetCtx<MoaraMsg>, tag: TimerTag) {
        let Some((qid, pred_key)) = self.sessions.by_timer(tag) else {
            return;
        };
        let sess = self.sessions.get_mut(qid, &pred_key).expect("found");
        if !sess.pending.is_empty() {
            sess.complete = false;
        }
        sess.timer = None;
        self.finalize_session(ctx, qid, &pred_key);
    }

    /// Treats `failed` as having answered NULL in every session waiting
    /// on it.
    pub(super) fn sessions_on_peer_failed(
        &mut self,
        ctx: &mut dyn NetCtx<MoaraMsg>,
        failed: NodeId,
    ) {
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
    }
}
