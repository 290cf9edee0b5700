//! Per-(node, predicate) protocol state: the paper's dynamic-maintenance
//! state machine (Section 4) extended with the separate query plane
//! (Section 5).
//!
//! Each node keeps, for every predicate it has seen, three conceptual
//! variables:
//!
//! * `sat` — should this subtree keep receiving queries? (Procedure 1:
//!   true if the node satisfies the predicate locally or any child is in
//!   NO-PRUNE state; children that have never reported count as NO-PRUNE.)
//! * `update` — is the node propagating status changes to its parent?
//!   (Procedure 2: driven by the `2·qn` vs `c` bandwidth comparison over a
//!   sliding window of recent events.)
//! * `prune` — may the parent skip this branch? (Procedure 3:
//!   `update ∧ sat ⇒ ¬prune`, `update ∧ ¬sat ⇒ prune`, `¬update ⇒ ¬prune`.)
//!
//! The separate query plane replaces the boolean `sat` with set-valued
//! state: `qSet` (whom do I forward queries to) and `updateSet` (whom
//! should my parent forward to instead of me, when small enough). With
//! `threshold = 1` the machinery degenerates to the plain pruned tree.
//!
//! This module is pure state-machine logic — no message I/O — so the
//! transition rules can be unit- and property-tested in isolation; the
//! node layer (`node.rs`) turns [`StatusOut`] values into wire messages.

use moara_dht::Id;
use moara_query::SimplePredicate;
use moara_simnet::{NodeId, SimTime};

/// What a child last reported (via a `Status` message).
#[derive(Clone, Debug, PartialEq)]
pub struct ChildInfo {
    /// True = PRUNE: the branch need not receive queries.
    pub prune: bool,
    /// The child's updateSet: whom to forward queries to in its stead.
    pub update_set: Vec<NodeId>,
    /// The child's NO-PRUNE subtree count (lazy query-cost info).
    pub np: u64,
}

/// The children's last reports: a map from child to [`ChildInfo`], stored
/// in the order of the tree's child list, so [`PredState::refresh`],
/// [`PredState::query_targets`] and [`PredState::np`] read it in one pass
/// over that list instead of one lookup per child.
///
/// A report from a node outside the list (a status that raced a
/// reconfiguration) is kept aside, as a map keeps it, until
/// [`PredState::retain_children`] drops it or a later child list takes the
/// node in.
#[derive(Clone, Debug, Default)]
pub struct ChildTable {
    /// The child list the table is aligned with, each child with its
    /// report (`None`: never reported — a default child).
    slots: Vec<(NodeId, Option<ChildInfo>)>,
    /// Reports from nodes not in `slots`.
    strays: Vec<(NodeId, ChildInfo)>,
}

impl ChildTable {
    /// `child`'s last report, if any.
    pub fn get(&self, child: NodeId) -> Option<&ChildInfo> {
        match self.slots.iter().find(|(c, _)| *c == child) {
            Some((_, info)) => info.as_ref(),
            None => self
                .strays
                .iter()
                .find(|(c, _)| *c == child)
                .map(|(_, info)| info),
        }
    }

    /// `child`'s last report, if any, for an in-place update.
    pub fn get_mut(&mut self, child: NodeId) -> Option<&mut ChildInfo> {
        match self.slots.iter_mut().find(|(c, _)| *c == child) {
            Some((_, info)) => info.as_mut(),
            None => self
                .strays
                .iter_mut()
                .find(|(c, _)| *c == child)
                .map(|(_, info)| info),
        }
    }

    /// Records `child`'s report, replacing any earlier one.
    pub fn insert(&mut self, child: NodeId, info: ChildInfo) {
        if let Some((_, slot)) = self.slots.iter_mut().find(|(c, _)| *c == child) {
            *slot = Some(info);
        } else if let Some((_, old)) = self.strays.iter_mut().find(|(c, _)| *c == child) {
            *old = info;
        } else {
            self.strays.push((child, info));
        }
    }

    /// Forgets every report.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.strays.clear();
    }

    /// Number of children with a report.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|(_, info)| info.is_some()).count() + self.strays.len()
    }

    /// True when no child has reported.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn is_aligned(&self, children: &[NodeId]) -> bool {
        self.slots.len() == children.len()
            && self.slots.iter().zip(children).all(|((c, _), k)| c == k)
    }

    /// Re-orders the table along `children`, keeping every report. Costs
    /// nothing while the list is the one the table already follows.
    fn align(&mut self, children: &[NodeId]) {
        if self.is_aligned(children) {
            return;
        }
        let old = std::mem::take(&mut self.slots);
        self.strays
            .extend(old.into_iter().filter_map(|(c, info)| Some((c, info?))));
        let strays = &mut self.strays;
        self.slots = children
            .iter()
            .map(|&c| {
                let info = strays
                    .iter()
                    .position(|(s, _)| *s == c)
                    .map(|i| strays.swap_remove(i).1);
                (c, info)
            })
            .collect();
    }

    /// Each of `children` with its report, in list order: one pass when
    /// the table follows that list, a search per child otherwise.
    fn reports<'a>(
        &'a self,
        children: &'a [NodeId],
    ) -> impl Iterator<Item = (&'a NodeId, Option<&'a ChildInfo>)> + Clone + 'a {
        let aligned = self.is_aligned(children);
        children.iter().enumerate().map(move |(i, c)| {
            let info = if aligned {
                self.slots[i].1.as_ref()
            } else {
                self.get(*c)
            };
            (c, info)
        })
    }
}

/// Targets a [`Targets`] holds in itself before it moves them to the
/// heap.
const INLINE_TARGETS: usize = 7;

/// The nodes one query is forwarded to from one node (see
/// [`PredState::query_targets`]). Up to seven — most fan-outs once a
/// tree is pruned — sit in the value itself, so a session keeping them
/// allocates nothing for them; more take one allocation of exactly their
/// size.
#[derive(Clone, Debug)]
pub struct Targets(TargetsRepr);

#[derive(Clone, Debug)]
enum TargetsRepr {
    Inline(u8, [NodeId; INLINE_TARGETS]),
    Heap(Vec<NodeId>),
}

impl Targets {
    /// `parts` one after another.
    fn concat<'a>(parts: impl Iterator<Item = &'a [NodeId]> + Clone) -> Targets {
        let len: usize = parts.clone().map(<[NodeId]>::len).sum();
        if len > INLINE_TARGETS {
            let mut ids = Vec::with_capacity(len);
            parts.for_each(|part| ids.extend_from_slice(part));
            return Targets(TargetsRepr::Heap(ids));
        }
        let mut ids = [NodeId(0); INLINE_TARGETS];
        for (slot, &id) in ids.iter_mut().zip(parts.flatten()) {
            *slot = id;
        }
        Targets(TargetsRepr::Inline(len as u8, ids))
    }

    /// The targets, in order.
    pub fn as_slice(&self) -> &[NodeId] {
        match &self.0 {
            TargetsRepr::Inline(len, ids) => &ids[..usize::from(*len)],
            TargetsRepr::Heap(ids) => ids,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [NodeId] {
        match &mut self.0 {
            TargetsRepr::Inline(len, ids) => &mut ids[..usize::from(*len)],
            TargetsRepr::Heap(ids) => ids,
        }
    }

    /// Keeps the first `len` targets.
    fn truncate(&mut self, len: usize) {
        match &mut self.0 {
            TargetsRepr::Inline(n, _) if len < usize::from(*n) => *n = len as u8,
            TargetsRepr::Inline(..) => {}
            TargetsRepr::Heap(ids) => ids.truncate(len),
        }
    }

    /// Whether `node` is one of the targets.
    pub fn contains(&self, node: NodeId) -> bool {
        self.as_slice().contains(&node)
    }

    /// True when there is no target.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Drops `node`, keeping the order of the rest.
    pub fn remove(&mut self, node: NodeId) {
        let ids = self.as_mut_slice();
        if let Some(i) = ids.iter().position(|&t| t == node) {
            ids.copy_within(i + 1.., i);
            let last = ids.len() - 1;
            self.truncate(last);
        }
    }
}

impl From<&[NodeId]> for Targets {
    fn from(ids: &[NodeId]) -> Targets {
        Targets::concat(std::iter::once(ids))
    }
}

/// The longest adaptation window (`k_UPDATE` or `k_NO-UPDATE`) a state
/// keeps: its window holds this many events, two bits each, in one
/// word. [`PredState::new`] and `MoaraConfig::with_adaptation_windows`
/// refuse a longer one.
pub const WINDOW_CAP: usize = 32;

/// A query the system ran while our updateSet did not contain us (counts
/// toward `qn`).
const QUERY_QN: u64 = 0b01;
/// A query we received while our updateSet contained us (`qs`).
const QUERY_QS: u64 = 0b10;
/// A change to our updateSet (`c`).
const CHANGE: u64 = 0b11;
/// The low bit of every two-bit event slot.
const SLOT_LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// The sliding window of adaptation events: the newest [`WINDOW_CAP`]
/// events, two bits each, the newest in the lowest bits (`00` = no event
/// yet). The last `k` events are the low `2k` bits, so Procedure 2 counts
/// them with two popcounts.
#[derive(Clone, Copy, Debug, Default)]
struct AdaptWindow(u64);

impl AdaptWindow {
    fn push(&mut self, ev: u64) {
        self.0 = (self.0 << 2) | ev;
    }

    /// Pushes `n` `qn` events at once.
    fn push_qn(&mut self, n: u64) {
        match n {
            0 => {}
            n if n >= WINDOW_CAP as u64 => self.0 = SLOT_LOW_BITS,
            n => self.0 = (self.0 << (2 * n)) | (SLOT_LOW_BITS & ((1 << (2 * n)) - 1)),
        }
    }

    /// `(qn, c)` over the newest `k` events.
    fn counts(self, k: usize) -> (u32, u32) {
        let w = if k >= WINDOW_CAP {
            self.0
        } else {
            self.0 & ((1 << (2 * k)) - 1)
        };
        let (low, high) = (w & SLOT_LOW_BITS, (w >> 1) & SLOT_LOW_BITS);
        ((low & !high).count_ones(), (low & high).count_ones())
    }
}

/// A status update that must be sent to the (new) parent.
#[derive(Clone, Debug, PartialEq)]
pub struct StatusOut {
    /// PRUNE (true) or NO-PRUNE (false).
    pub prune: bool,
    /// The updateSet to communicate (empty iff `prune`).
    pub update_set: Vec<NodeId>,
}

/// Per-predicate protocol state at one node.
#[derive(Clone, Debug)]
pub struct PredState {
    /// The predicate this tree serves.
    pub pred: SimplePredicate,
    /// The tree's routing key: the hash of the predicate's attribute.
    pub tree: Id,
    /// Procedure-2 state: true = UPDATE, false = NO-UPDATE.
    pub update: bool,
    /// Does the local node satisfy the predicate right now?
    pub local_sat: bool,
    /// Status received from children (absent children are defaults:
    /// NO-PRUNE, forwarded to directly).
    pub children: ChildTable,
    /// Currently computed updateSet.
    pub cur_update_set: Vec<NodeId>,
    /// Derived `sat` variable (Procedure 1).
    pub sat: bool,
    /// Last (prune, updateSet) actually communicated to the parent;
    /// `None` = nothing ever sent (parent assumes the default).
    pub sent: Option<(bool, Vec<NodeId>)>,
    /// Cached tree parent (for detecting reconfiguration).
    pub parent: Option<NodeId>,
    /// Root-only: sequence numbers handed to queries on this tree.
    pub seq_counter: u64,
    /// Highest query sequence number this node has accounted.
    pub last_seen_seq: u64,
    /// When a query or status for this tree last passed through here —
    /// the clock of the garbage-collection policies (`None` = never;
    /// such state is not collected).
    pub last_active: Option<SimTime>,
    window: AdaptWindow,
    threshold: u32,
    k_update: u8,
    k_no_update: u8,
    forced_update: bool,
}

impl PredState {
    /// Fresh state for `pred`, whose tree key is `tree` (the hash of its
    /// attribute). Nodes start in NO-UPDATE (the paper's default: no state
    /// ⇒ receive every query). `forced_update` pins the machine in UPDATE
    /// state (the Always-Update baseline).
    ///
    /// # Panics
    ///
    /// Panics unless both windows are 1 to [`WINDOW_CAP`] events.
    pub fn new(
        pred: SimplePredicate,
        tree: Id,
        k_update: usize,
        k_no_update: usize,
        threshold: usize,
        forced_update: bool,
    ) -> PredState {
        let window = |k: usize| {
            assert!(
                (1..=WINDOW_CAP).contains(&k),
                "adaptation windows must be 1 to {WINDOW_CAP} events, not {k}"
            );
            k as u8
        };
        PredState {
            tree,
            pred,
            update: forced_update,
            local_sat: false,
            children: ChildTable::default(),
            cur_update_set: Vec::new(),
            sat: false,
            sent: None,
            parent: None,
            seq_counter: 0,
            last_seen_seq: 0,
            last_active: None,
            window: AdaptWindow::default(),
            // A qSet never has `u32::MAX` members: nodes are `u32`s.
            threshold: u32::try_from(threshold.max(1)).unwrap_or(u32::MAX),
            k_update: window(k_update),
            k_no_update: window(k_no_update),
            forced_update,
        }
    }

    /// The `prune` variable (Procedure 3), derived so the paper's
    /// invariants hold by construction.
    pub fn prune(&self) -> bool {
        self.update && !self.sat
    }

    /// Asserts the Section 4 invariants; called from debug paths and tests.
    pub fn check_invariants(&self) {
        if !self.update {
            assert!(!self.prune(), "update=0 must imply prune=0");
        }
        if self.update && self.sat {
            assert!(!self.prune());
        }
        if self.update && !self.sat {
            assert!(self.prune());
        }
        // NO-PRUNE ⟺ non-empty updateSet at the wire level.
        if let Some((prune, set)) = &self.sent {
            assert_eq!(*prune, set.is_empty(), "sent PRUNE iff empty updateSet");
        }
    }

    /// Records what a child reported. Call [`PredState::refresh`] after.
    pub fn note_child_status(&mut self, child: NodeId, info: ChildInfo) {
        self.children.insert(child, info);
    }

    /// Forgets the reports of nodes outside `children`, the node's new
    /// child list in this tree (topology reconfiguration).
    pub fn retain_children(&mut self, children: &[NodeId]) {
        self.children.align(children);
        self.children.strays.clear();
    }

    /// Accounts query sequence numbers observed indirectly (piggybacked on
    /// a child's status update): every query between our last-seen number
    /// and `seq` is one we missed while pruned or bypassed, so each counts
    /// toward `qn` (Section 5's correction for bypassed nodes).
    pub fn account_seq(&mut self, seq: u64) {
        if seq <= self.last_seen_seq {
            return;
        }
        self.window.push_qn(seq - self.last_seen_seq);
        self.last_seen_seq = seq;
        self.transition();
    }

    /// Records the receipt of a query with sequence number `seq` (and any
    /// missed queries the gap reveals), then runs the Procedure-2
    /// transition.
    pub fn on_query(&mut self, me: NodeId, seq: u64) {
        // Gap since the last seen sequence number → missed queries (qn).
        if seq > self.last_seen_seq + 1 {
            self.window.push_qn(seq - self.last_seen_seq - 1);
        }
        if seq > self.last_seen_seq {
            self.last_seen_seq = seq;
        }
        // SQP classification (Section 5): a query counts as `qs` when this
        // node's updateSet contains its own id (it is supposed to receive
        // queries), otherwise as `qn`. This is maintained in NO-UPDATE
        // state too — the sets are computed, just not communicated.
        let counts_qs = self.cur_update_set.contains(&me);
        self.window
            .push(if counts_qs { QUERY_QS } else { QUERY_QN });
        self.transition();
    }

    /// Whether this node currently receives queries from its parent: true
    /// in NO-UPDATE (the parent forwards by default) or when its
    /// communicated updateSet contains itself.
    fn receives_queries(&self, me: NodeId) -> bool {
        if !self.update {
            return true;
        }
        self.cur_update_set.contains(&me)
    }

    /// Recomputes `qSet` / `updateSet` / `sat` from local satisfaction and
    /// child reports (Procedures 1 and the Section 5 set rules), records a
    /// `Change` event if the updateSet changed, and runs the transition.
    ///
    /// `all_children` is the node's child list in this tree (from the DHT
    /// routing state); children without an entry in `self.children` are
    /// defaults and must keep receiving queries through us.
    pub fn refresh(&mut self, me: NodeId, local_sat: bool, all_children: &[NodeId]) {
        self.local_sat = local_sat;
        self.children.align(all_children);
        let slots = &self.children.slots;
        let has_default_child = slots.iter().any(|(_, info)| info.is_none());
        // Bypassed: the parent forwards to the qSet itself. Otherwise we
        // receive queries ourselves — always so with default children,
        // which must keep receiving queries through us. So the qSet
        // matters only while it has fewer than `threshold` members, and
        // only without default children: it is collected just that far,
        // sorted and without duplicates, behind the current updateSet in
        // the same buffer.
        let set = &mut self.cur_update_set;
        let old = set.len();
        let bypassed = if has_default_child {
            self.sat = true;
            false
        } else {
            let full = old + self.threshold as usize;
            let members = local_sat.then_some(&me).into_iter().chain(
                slots
                    .iter()
                    .filter_map(|(_, info)| info.as_ref().filter(|info| !info.prune))
                    .flat_map(|info| &info.update_set),
            );
            for &n in members {
                if set.len() == full {
                    break;
                }
                if let Err(i) = set[old..].binary_search(&n) {
                    set.insert(old + i, n);
                }
            }
            self.sat = set.len() > old;
            set.len() < full
        };
        let (current, qset) = set.split_at(old);
        let unchanged = if bypassed {
            current == qset
        } else {
            current == [me]
        };
        if unchanged {
            set.truncate(old);
            return;
        }
        if bypassed {
            set.drain(..old);
        } else {
            set.clear();
            set.push(me);
        }
        self.window.push(CHANGE);
        self.transition();
    }

    /// The nodes a query on this tree should be forwarded to from here,
    /// in `NodeId` order: default children directly, reporting NO-PRUNE
    /// children via their updateSets, PRUNE children not at all.
    pub fn query_targets(&self, me: NodeId, all_children: &[NodeId]) -> Targets {
        let mut targets =
            Targets::concat(
                self.children
                    .reports(all_children)
                    .map(|(c, info)| match info {
                        None => std::slice::from_ref(c),
                        Some(info) if !info.prune => &info.update_set[..],
                        Some(_) => &[],
                    }),
            );
        let ids = targets.as_mut_slice();
        ids.sort_unstable();
        // Sorted, so a duplicate follows the copy already kept.
        let mut kept = 0;
        for i in 0..ids.len() {
            let id = ids[i];
            if id != me && (kept == 0 || ids[kept - 1] != id) {
                ids[kept] = id;
                kept += 1;
            }
        }
        targets.truncate(kept);
        targets
    }

    /// NO-PRUNE subtree count: how many nodes a query through this branch
    /// will reach. Children that never reported contribute their whole
    /// (oracle-sized) subtrees — by default every node in them receives
    /// queries.
    pub fn np(
        &self,
        me: NodeId,
        all_children: &[NodeId],
        subtree_size: impl Fn(NodeId) -> u64,
    ) -> u64 {
        let mut np = u64::from(self.receives_queries(me));
        for (c, info) in self.children.reports(all_children) {
            np += match info {
                None => subtree_size(*c),
                Some(info) if !info.prune => info.np,
                Some(_) => 0,
            };
        }
        np
    }

    /// What (if anything) must be communicated to the parent right now.
    ///
    /// In UPDATE state, the wire status is `(prune, updateSet)` and is
    /// (re)sent whenever it differs from what was last sent — including a
    /// first announcement that happens to match the parent's default,
    /// because the parent needs the explicit updateSet to participate in
    /// the separate query plane (Section 5: "whenever the updateSet
    /// changes at a node and is non-empty, it sends a NO-PRUNE message …
    /// with the new updateSet").
    ///
    /// In NO-UPDATE the wire status is pinned to `(NO-PRUNE, [me])` — a
    /// node may cease updating only after guaranteeing it keeps receiving
    /// queries — and is sent only if the parent believes something
    /// different (`sent == None` means the parent's default, which already
    /// behaves like `(NO-PRUNE, [me])`).
    pub fn status_to_send(&mut self, me: NodeId) -> Option<StatusOut> {
        let me = [me];
        let (prune, set): (bool, &[NodeId]) = if self.update {
            let prune = self.prune();
            (prune, if prune { &[] } else { &self.cur_update_set })
        } else {
            (false, &me)
        };
        let send = match &self.sent {
            Some((p, s)) => (*p, s.as_slice()) != (prune, set),
            // The parent's default is (NO-PRUNE, [me]): only UPDATE state
            // must announce itself.
            None => self.update,
        };
        if !send {
            return None;
        }
        let update_set = set.to_vec();
        self.sent = Some((prune, update_set.clone()));
        Some(StatusOut { prune, update_set })
    }

    /// Procedure 2: compare `2·qn` with `c` over the current window.
    fn transition(&mut self) {
        if self.forced_update {
            self.update = true;
            return;
        }
        let k = if self.update {
            self.k_update
        } else {
            self.k_no_update
        };
        let (qn, c) = self.window.counts(usize::from(k));
        if 2 * qn < c {
            self.update = false;
        } else if 2 * qn > c {
            self.update = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moara_query::CmpOp;

    fn me() -> NodeId {
        NodeId(0)
    }

    fn fresh(threshold: usize) -> PredState {
        PredState::new(
            SimplePredicate::new("A", CmpOp::Eq, true),
            Id(1),
            1,
            3,
            threshold,
            false,
        )
    }

    #[test]
    #[should_panic(expected = "adaptation windows must be 1 to 32 events, not 33")]
    fn a_window_above_the_cap_is_refused() {
        let _ = PredState::new(
            SimplePredicate::new("A", CmpOp::Eq, true),
            Id(1),
            WINDOW_CAP + 1,
            3,
            1,
            false,
        );
    }

    #[test]
    fn targets_inline_or_on_the_heap_read_and_shrink_alike() {
        for n in [0, 1, INLINE_TARGETS as u32, INLINE_TARGETS as u32 + 1, 20] {
            let ids: Vec<NodeId> = (1..=n).map(NodeId).collect();
            let mut t = Targets::from(&ids[..]);
            assert_eq!(t.as_slice(), ids, "{n}");
            assert_eq!(t.is_empty(), n == 0);
            t.remove(NodeId(99));
            assert_eq!(t.as_slice(), ids, "removing a stranger changes nothing");
            let mut left = ids.clone();
            for id in [n / 2, n, 1].map(NodeId) {
                t.remove(id);
                left.retain(|&x| x != id);
                assert_eq!(t.as_slice(), left, "{n}: without {id}");
                assert!(!t.contains(id));
            }
        }
    }

    #[test]
    fn the_window_keeps_exactly_the_newest_events() {
        let mut w = AdaptWindow::default();
        assert_eq!(w.counts(WINDOW_CAP), (0, 0), "empty slots count as nothing");
        w.push(CHANGE);
        w.push_qn(WINDOW_CAP as u64 - 2);
        w.push(QUERY_QS);
        // Newest first: qs, 30 × qn, change.
        assert_eq!(w.counts(1), (0, 0));
        assert_eq!(w.counts(WINDOW_CAP - 1), (30, 0));
        assert_eq!(w.counts(WINDOW_CAP), (30, 1));
        // One more event pushes the change out of every window.
        w.push(QUERY_QN);
        assert_eq!(w.counts(WINDOW_CAP), (31, 0));
        w.push_qn(1000);
        assert_eq!(w.counts(WINDOW_CAP), (32, 0));
    }

    #[test]
    fn starts_in_no_update_no_prune() {
        let s = fresh(1);
        assert!(!s.update);
        assert!(!s.prune());
        s.check_invariants();
    }

    #[test]
    fn first_query_moves_to_update() {
        // Paper Figure 4(b): (NO-UPDATE, NO-SAT) + query → UPDATE.
        let mut s = fresh(1);
        s.refresh(me(), false, &[]);
        s.on_query(me(), 1);
        assert!(s.update);
        assert!(s.prune(), "unsatisfied leaf in UPDATE prunes itself");
        assert_eq!(
            s.status_to_send(me()),
            Some(StatusOut {
                prune: true,
                update_set: vec![]
            })
        );
        s.check_invariants();
    }

    #[test]
    fn satisfied_leaf_stays_no_update_and_silent() {
        // A satisfied node receiving queries (qs) has nothing to gain from
        // UPDATE state — it must receive queries regardless. The paper
        // notes (UPDATE, SAT) is unreachable with k_UPDATE = 1.
        let mut s = fresh(1);
        s.refresh(me(), true, &[]); // change: updateSet [] → [me]
        s.on_query(me(), 1); // qs query
        assert!(!s.update);
        assert!(!s.prune());
        assert_eq!(s.cur_update_set, vec![me()]);
        assert_eq!(
            s.status_to_send(me()),
            None,
            "parent already assumes (NO-PRUNE,[me]) by default"
        );
        s.check_invariants();
    }

    #[test]
    fn update_sat_reachable_with_larger_window_then_change_keeps_update() {
        // With k_UPDATE = 2 the (UPDATE, SAT) state is reachable: a qn
        // query plus one change leaves 2·qn > c, and the node sends its
        // NO-PRUNE transition to the parent.
        let mut s = PredState::new(
            SimplePredicate::new("A", CmpOp::Eq, true),
            Id(1),
            2,
            3,
            1,
            false,
        );
        s.refresh(me(), false, &[]);
        s.on_query(me(), 1); // qn → UPDATE, PRUNE
        assert!(s.update && s.prune());
        let _ = s.status_to_send(me());
        s.refresh(me(), true, &[]); // change; window [qn, change]: 2 > 1
        assert!(s.update && s.sat && !s.prune());
        assert_eq!(
            s.status_to_send(me()).unwrap(),
            StatusOut {
                prune: false,
                update_set: vec![me()]
            }
        );
        s.check_invariants();
    }

    #[test]
    fn account_seq_records_missed_queries() {
        let mut s = fresh(1);
        s.refresh(me(), false, &[]);
        // A child's status says the system has run 3 queries we never saw.
        s.account_seq(3);
        assert_eq!(s.last_seen_seq, 3);
        // qn-dominated window → UPDATE (so we can prune ourselves).
        assert!(s.update);
        s.check_invariants();
    }

    #[test]
    fn pruned_node_moving_to_no_update_reintroduces_itself() {
        let mut s = fresh(1);
        s.refresh(me(), false, &[]);
        s.on_query(me(), 1); // UPDATE + PRUNE
        assert_eq!(
            s.status_to_send(me()).unwrap(),
            StatusOut {
                prune: true,
                update_set: vec![]
            }
        );
        // Churn burst: three changes with no queries → NO-UPDATE.
        s.refresh(me(), true, &[]);
        s.refresh(me(), false, &[]);
        s.refresh(me(), true, &[]);
        assert!(!s.update);
        // Parent believes PRUNE; we must re-introduce (NO-PRUNE, [me]).
        assert_eq!(
            s.status_to_send(me()).unwrap(),
            StatusOut {
                prune: false,
                update_set: vec![me()]
            }
        );
        s.check_invariants();
    }

    #[test]
    fn missed_queries_counted_from_sequence_gap() {
        let mut s = fresh(1);
        s.refresh(me(), false, &[]);
        s.on_query(me(), 1); // UPDATE+PRUNE
        let _ = s.status_to_send(me());
        // Churn → NO-UPDATE (changes dominate).
        s.refresh(me(), true, &[]);
        s.refresh(me(), false, &[]);
        s.refresh(me(), true, &[]);
        assert!(!s.update);
        // Next query arrives with seq 7: 5 missed + this one → qn floods
        // the window → back to UPDATE.
        s.on_query(me(), 7);
        assert!(s.update);
        assert_eq!(s.last_seen_seq, 7);
    }

    #[test]
    fn child_pruning_and_targets() {
        let (c1, c2, c3) = (NodeId(1), NodeId(2), NodeId(3));
        let mut s = fresh(1);
        // No child state: all children are default targets.
        let targets = s.query_targets(me(), &[c1, c2, c3]);
        assert_eq!(targets.as_slice(), [c1, c2, c3]);
        s.note_child_status(
            c1,
            ChildInfo {
                prune: true,
                update_set: vec![],
                np: 0,
            },
        );
        s.note_child_status(
            c2,
            ChildInfo {
                prune: false,
                update_set: vec![NodeId(9)], // bypassed descendant
                np: 1,
            },
        );
        s.refresh(me(), false, &[c1, c2, c3]);
        let targets = s.query_targets(me(), &[c1, c2, c3]);
        assert_eq!(targets.as_slice(), [c3, NodeId(9)]);
        // sat: c3 is default → true even though local unsat and c1 pruned.
        assert!(s.sat);
        // updateSet forced to [me] because of default child c3.
        assert_eq!(s.cur_update_set, vec![me()]);
        s.check_invariants();
    }

    #[test]
    fn sqp_updateset_below_threshold_bypasses_node() {
        let c1 = NodeId(1);
        let mut s = PredState::new(
            SimplePredicate::new("A", CmpOp::Eq, true),
            Id(1),
            1,
            3,
            2, // threshold
            false,
        );
        s.note_child_status(
            c1,
            ChildInfo {
                prune: false,
                update_set: vec![NodeId(7)],
                np: 1,
            },
        );
        s.refresh(me(), false, &[c1]);
        // qset = {7}, |qset| = 1 < 2 → updateSet = {7}: we are bypassed.
        assert_eq!(s.cur_update_set, vec![NodeId(7)]);
        assert!(s.sat);
        assert!(!s.prune());
        // With one more element it reverts to {me}.
        s.note_child_status(
            c1,
            ChildInfo {
                prune: false,
                update_set: vec![NodeId(7), NodeId(8)],
                np: 2,
            },
        );
        s.refresh(me(), false, &[c1]);
        assert_eq!(s.cur_update_set, vec![me()]);
    }

    #[test]
    fn np_accounts_defaults_via_subtree_sizes() {
        let (c1, c2) = (NodeId(1), NodeId(2));
        let mut s = fresh(1);
        s.note_child_status(
            c1,
            ChildInfo {
                prune: false,
                update_set: vec![c1],
                np: 3,
            },
        );
        s.refresh(me(), true, &[c1, c2]);
        s.on_query(me(), 1);
        // self(1, receives queries) + c1 subtree np(3) + default c2 (size 10)
        let np = s.np(me(), &[c1, c2], |c| if c == c2 { 10 } else { 99 });
        assert_eq!(np, 14);
        // Pruned child contributes 0.
        s.note_child_status(
            c1,
            ChildInfo {
                prune: true,
                update_set: vec![],
                np: 0,
            },
        );
        assert_eq!(s.np(me(), &[c1, c2], |_| 10), 11);
    }

    #[test]
    fn forced_update_never_leaves_update() {
        let mut s = PredState::new(
            SimplePredicate::new("A", CmpOp::Eq, true),
            Id(1),
            1,
            3,
            1,
            true,
        );
        assert!(s.update);
        for i in 0..10 {
            s.refresh(me(), i % 2 == 0, &[]);
            assert!(s.update, "always-update must stay in UPDATE");
        }
        s.check_invariants();
    }

    #[test]
    fn status_resend_only_on_difference() {
        let mut s = fresh(1);
        s.refresh(me(), false, &[]);
        s.on_query(me(), 1);
        assert!(s.status_to_send(me()).is_some());
        assert_eq!(s.status_to_send(me()), None, "second call is a no-op");
        // Becoming satisfied flips prune → must resend.
        s.refresh(me(), true, &[]);
        if s.update {
            let out = s.status_to_send(me()).unwrap();
            assert!(!out.prune);
            assert_eq!(out.update_set, vec![me()]);
        }
    }

    #[test]
    fn retain_children_drops_ex_children() {
        let mut s = fresh(1);
        s.note_child_status(
            NodeId(5),
            ChildInfo {
                prune: true,
                update_set: vec![],
                np: 0,
            },
        );
        s.retain_children(&[NodeId(6)]);
        assert!(s.children.is_empty());
    }

    #[test]
    fn invariants_hold_across_random_walk() {
        // Drive the machine with a pseudo-random mix of inputs and check
        // the Section 4 invariants after every step.
        let mut s = fresh(2);
        let mut x: u64 = 0x12345678;
        let mut seq = 0u64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match x % 4 {
                0 => {
                    seq += 1;
                    s.on_query(me(), seq);
                }
                1 => s.refresh(me(), x & 16 != 0, &[NodeId(1)]),
                2 => {
                    s.note_child_status(
                        NodeId(1),
                        ChildInfo {
                            prune: x & 32 != 0,
                            update_set: if x & 32 != 0 { vec![] } else { vec![NodeId(1)] },
                            np: 1,
                        },
                    );
                    s.refresh(me(), x & 16 != 0, &[NodeId(1)]);
                }
                _ => {
                    let _ = s.status_to_send(me());
                }
            }
            s.check_invariants();
        }
    }
}
