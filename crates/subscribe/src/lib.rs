//! # moara-subscribe
//!
//! The continuous-query subscription plane: leased standing queries with
//! **incremental in-network re-aggregation**.
//!
//! A one-shot Moara query pays tree-depth latency and `O(group)` messages
//! every time a dashboard polls it, even when nothing changed. A
//! *subscription* installs the parsed composite query once: the front-end
//! pins the chosen cover's aggregation trees, every tree node keeps one
//! partial aggregate per reporting child (a [`DeltaFold`]), and from then
//! on a node pushes a *replacement delta* — its subtree's new partial
//! aggregate — upward **only when that aggregate changed**. A quiescent
//! subtree sends nothing; a local attribute change travels root-ward
//! through exactly the hops whose merged aggregate it alters.
//!
//! The pieces here are pure state (no message I/O), driven by the node
//! layer in `moara-core`:
//!
//! * [`SubId`] / [`SubSpec`] — the wire identity and install payload of a
//!   subscription (query, delivery policy, lease, pinned cover).
//! * [`DeliveryPolicy`] — when the *subscriber* hears about changes:
//!   on-change, periodic snapshots, or threshold crossings.
//! * [`SubEntry`] — per-(subscription, tree) state at a tree node: the
//!   delta fold over child summaries + the local contribution, the push
//!   target, suppression state, and the lease deadline.
//! * [`WatchState`] — the front-end's view: per-tree-root partial
//!   aggregates, merged into the client-visible result, with the policy
//!   deciding which changes surface as [`SubUpdate`]s.
//!
//! Leases make the plane self-cleaning: the front-end renews at half the
//! lease; a node whose lease lapses (subscriber gone, partition outlived
//! the lease) garbage-collects the entry, so no crash can leak standing
//! state forever. Churn repair is top-down: confirmed failures remove the
//! failed child's summary (the result shrinks within one SWIM confirm),
//! and reconciliation re-installs the subscription along the repaired
//! tree. See `docs/continuous-queries.md` for the protocol walk-through.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use moara_aggregation::{AggResult, AggState, DeltaFold, LOCAL_SOURCE};
use moara_dht::Id;
use moara_query::Query;
use moara_simnet::{NodeId, SimDuration, SimTime};
use moara_wire::{Wire, WireError};

/// Identifies one subscription end-to-end: (origin front-end, per-origin
/// counter). Distinct from `QueryId` — subscriptions are standing state,
/// not in-flight queries — but packed the same way.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubId {
    /// The front-end node that installed the subscription.
    pub origin: NodeId,
    /// Its per-origin sequence number.
    pub n: u64,
}

impl Wire for SubId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.origin.encode(out);
        self.n.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SubId {
            origin: Wire::decode(buf)?,
            n: Wire::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        12
    }
}

/// When the subscriber hears about changes to the standing result.
///
/// The in-network plane always propagates deltas on change (that is what
/// keeps it cheap); the policy governs only the *client-visible* emission
/// at the front-end.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeliveryPolicy {
    /// Emit every change to the merged result.
    OnChange,
    /// Emit a snapshot every period, changed or not (poll-equivalent
    /// freshness without the poll's per-period tree traffic).
    Periodic(SimDuration),
    /// Emit when the scalar result crosses `value` (either direction),
    /// plus the initial result.
    Threshold {
        /// The boundary being watched.
        value: f64,
    },
}

impl Wire for DeliveryPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DeliveryPolicy::OnChange => out.push(0),
            DeliveryPolicy::Periodic(d) => {
                out.push(1);
                d.as_micros().encode(out);
            }
            DeliveryPolicy::Threshold { value } => {
                out.push(2);
                value.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => DeliveryPolicy::OnChange,
            1 => {
                let us = u64::decode(buf)?;
                if us == 0 {
                    // A zero period would re-arm its snapshot timer
                    // forever without the clock advancing.
                    return Err(WireError::Invalid("zero delivery period"));
                }
                DeliveryPolicy::Periodic(SimDuration::from_micros(us))
            }
            2 => {
                let value = f64::decode(buf)?;
                if value.is_nan() {
                    return Err(WireError::Invalid("NaN threshold"));
                }
                DeliveryPolicy::Threshold { value }
            }
            _ => return Err(WireError::Invalid("DeliveryPolicy tag")),
        })
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            DeliveryPolicy::OnChange => 0,
            DeliveryPolicy::Periodic(_) | DeliveryPolicy::Threshold { .. } => 8,
        }
    }
}

/// Everything a node needs to host (or re-install) a subscription: the
/// full install payload, carried by `Subscribe` frames so installation is
/// idempotent and repair can happen anywhere in the tree.
#[derive(Clone, Debug, PartialEq)]
pub struct SubSpec {
    /// End-to-end subscription id.
    pub id: SubId,
    /// The standing query (nodes evaluate the entire composite predicate,
    /// exactly as for one-shot queries).
    pub query: Query,
    /// Client-visible delivery policy (interpreted at the front-end).
    pub policy: DeliveryPolicy,
    /// Lease duration: state not renewed for this long is garbage
    /// collected everywhere.
    pub lease: SimDuration,
    /// The subscribing front-end (tree roots push to it directly).
    pub owner: NodeId,
    /// The pinned cover: the predicate keys of every tree this
    /// subscription runs on, sorted. A node satisfying the composite
    /// predicate contributes on the *first* cover tree whose group it
    /// belongs to — the standing-query analogue of the paper's one-shot
    /// duplicate suppression (Section 6.2), decided locally and
    /// deterministically so overlapping groups never double-count.
    pub cover: Vec<String>,
}

impl Wire for SubSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.query.encode(out);
        self.policy.encode(out);
        self.lease.as_micros().encode(out);
        self.owner.encode(out);
        self.cover.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SubSpec {
            id: Wire::decode(buf)?,
            query: Wire::decode(buf)?,
            policy: Wire::decode(buf)?,
            lease: SimDuration::from_micros(u64::decode(buf)?),
            owner: Wire::decode(buf)?,
            cover: Wire::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.id.encoded_len()
            + self.query.encoded_len()
            + self.policy.encoded_len()
            + 8
            + self.owner.encoded_len()
            + self.cover.encoded_len()
    }
}

/// One client-visible update of a standing result.
#[derive(Clone, Debug, PartialEq)]
pub struct SubUpdate {
    /// When the front-end emitted it.
    pub at: SimTime,
    /// The merged result at that moment.
    pub result: AggResult,
    /// True for the first update (initial sync complete or timed out).
    pub initial: bool,
    /// False when some pinned tree has not reported yet (initial-sync
    /// timeout fired before every root answered).
    pub complete: bool,
}

/// Per-(subscription, tree) state at a tree node: the delta fold this
/// node re-aggregates, whom it pushes to, and the lease clock.
#[derive(Debug)]
pub struct SubEntry {
    /// The install payload (kept whole for idempotent re-installs).
    pub spec: SubSpec,
    /// Which tree of the pinned cover this entry serves.
    pub pred_key: Arc<str>,
    /// The tree's routing key.
    pub tree: Id,
    /// Where deltas go: the node that (last) installed us — tree parent
    /// for interior nodes, the owner front-end at the root.
    pub push_to: NodeId,
    /// Per-source partial aggregates: children by id, plus the local
    /// contribution under [`LOCAL_SOURCE`].
    pub fold: DeltaFold,
    /// Children whose *initial* summary we are still waiting for before
    /// announcing upward (mirrors a one-shot query session, so initial
    /// sync costs one reply per node, not one per (node, ancestor)).
    pub pending_initial: BTreeSet<NodeId>,
    /// Whether the initial announcement went up already.
    pub announced: bool,
    /// Last state pushed upward (`None` = nothing yet / parent unknown);
    /// pushes are suppressed while the merge equals it.
    pub last_pushed: Option<AggState>,
    /// Lease deadline; the entry is garbage collected past it.
    pub deadline: SimTime,
    /// Sequence number of the next outgoing delta (per-entry, so the
    /// receiver can drop reordered or superseded frames).
    pub next_seq: u64,
    /// Highest delta sequence number seen per child source.
    pub last_seen: BTreeMap<NodeId, u64>,
}

impl SubEntry {
    /// Fresh state for an install arriving at a node.
    pub fn new(spec: SubSpec, pred_key: Arc<str>, tree: Id, push_to: NodeId, now: SimTime) -> Self {
        let fold = DeltaFold::new(spec.query.agg);
        let deadline = now + spec.lease;
        SubEntry {
            spec,
            pred_key,
            tree,
            push_to,
            fold,
            pending_initial: BTreeSet::new(),
            announced: false,
            last_pushed: None,
            deadline,
            next_seq: 0,
            last_seen: BTreeMap::new(),
        }
    }

    /// Extends the lease from `now`.
    pub fn renew(&mut self, now: SimTime) {
        let fresh = now + self.spec.lease;
        if fresh > self.deadline {
            self.deadline = fresh;
        }
    }

    /// Whether the lease has lapsed.
    pub fn expired(&self, now: SimTime) -> bool {
        now >= self.deadline
    }

    /// Records this node's own contribution; true if the merge changed.
    pub fn set_local(&mut self, state: AggState) -> bool {
        self.fold.set(LOCAL_SOURCE, state)
    }

    /// Records a child's summary if `seq` is fresh; `None` means the
    /// frame was stale (reordered or from a superseded entry) and was
    /// dropped, `Some(changed)` reports the merge effect.
    pub fn note_child(&mut self, child: NodeId, seq: u64, state: AggState) -> Option<bool> {
        let last = self.last_seen.entry(child).or_insert(0);
        if seq <= *last && self.fold.contains(u64::from(child.0)) {
            return None;
        }
        *last = seq;
        self.pending_initial.remove(&child);
        Some(self.fold.set(u64::from(child.0), state))
    }

    /// Forgets a child source entirely (failed, re-homed, or released);
    /// true if the merge changed.
    pub fn drop_child(&mut self, child: NodeId) -> bool {
        self.pending_initial.remove(&child);
        self.last_seen.remove(&child);
        self.fold.remove(u64::from(child.0))
    }

    /// Child sources currently folded (excluding the local contribution).
    pub fn child_sources(&self) -> Vec<NodeId> {
        self.fold
            .sources()
            .filter(|&s| s != LOCAL_SOURCE)
            .map(|s| NodeId(s as u32))
            .collect()
    }

    /// The children this entry hears from: those folded, then those
    /// whose first summary is still pending.
    pub fn sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        let pending = self.pending_initial.iter().copied();
        self.child_sources().into_iter().chain(pending)
    }

    /// Whether `node` is a child this entry tracks: it has a delta
    /// stream from it, or waits on its first summary.
    pub fn is_source(&self, node: NodeId) -> bool {
        self.last_seen.contains_key(&node) || self.pending_initial.contains(&node)
    }

    /// The replacement delta to push upward, if the merge moved past what
    /// was last pushed. Stamps and returns the frame payload.
    pub fn take_push(&mut self) -> Option<(u64, AggState)> {
        let merged = self.fold.merged().clone();
        if self.last_pushed.as_ref() == Some(&merged) {
            return None;
        }
        self.last_pushed = Some(merged.clone());
        self.next_seq += 1;
        Some((self.next_seq, merged))
    }
}

/// The front-end's side of one subscription: pinned roots, their latest
/// partial aggregates, and the delivery-policy machinery.
#[derive(Debug)]
pub struct WatchState {
    /// The install payload this watch sent out.
    pub spec: SubSpec,
    /// Pinned cover: one (predicate key, tree routing key) per tree.
    pub roots: Vec<(Arc<str>, Id)>,
    /// Latest partial aggregate per root (keyed by root index).
    pub fold: DeltaFold,
    /// Roots that have not reported their initial aggregate yet.
    pub pending_initial: BTreeSet<Arc<str>>,
    /// Highest delta sequence seen per root tree.
    pub last_seen: BTreeMap<Arc<str>, u64>,
    /// Result of the last emitted update.
    pub last_result: Option<AggResult>,
    /// For [`DeliveryPolicy::Threshold`]: which side of the boundary the
    /// last emission was on.
    pub threshold_side: Option<bool>,
    /// Updates awaiting collection by the embedding host.
    pub updates: VecDeque<SubUpdate>,
    /// Total updates ever emitted (per-sub stats).
    pub updates_emitted: u64,
}

impl WatchState {
    /// A fresh watch over the pinned `roots`.
    pub fn new(spec: SubSpec, roots: Vec<(Arc<str>, Id)>) -> WatchState {
        let fold = DeltaFold::new(spec.query.agg);
        let pending_initial = roots.iter().map(|(k, _)| k.clone()).collect();
        WatchState {
            spec,
            roots,
            fold,
            pending_initial,
            last_seen: BTreeMap::new(),
            last_result: None,
            threshold_side: None,
            updates: VecDeque::new(),
            updates_emitted: 0,
        }
    }

    /// Index of a pinned root by predicate key.
    fn root_index(&self, pred_key: &str) -> Option<usize> {
        self.roots.iter().position(|(k, _)| &**k == pred_key)
    }

    /// Whether every pinned root has reported.
    pub fn initial_done(&self) -> bool {
        self.pending_initial.is_empty()
    }

    /// Records a root's replacement aggregate if fresh; `None` = stale
    /// frame dropped, `Some(changed)` otherwise.
    pub fn note_root(&mut self, pred_key: &str, seq: u64, state: AggState) -> Option<bool> {
        let idx = self.root_index(pred_key)?;
        let last = self.last_seen.entry(self.roots[idx].0.clone()).or_insert(0);
        if seq <= *last && self.fold.contains(idx as u64) {
            return None;
        }
        *last = seq;
        self.pending_initial.remove(pred_key);
        Some(self.fold.set(idx as u64, state))
    }

    /// Resets one root's delta stream (the front-end re-installed it, so
    /// the root's sequence numbers may restart).
    pub fn reset_root_seq(&mut self, pred_key: &str) {
        self.last_seen.remove(pred_key);
    }

    /// The current merged, finalized result.
    pub fn current(&self) -> AggResult {
        self.spec.query.agg.finalize(self.fold.merged().clone())
    }

    /// Runs the delivery policy after the merged result (possibly)
    /// moved: the first update is emitted as soon as every pinned root
    /// has reported; afterwards the policy decides what surfaces.
    pub fn maybe_emit(&mut self, now: SimTime) {
        let result = self.current();
        if self.last_result.is_none() {
            // Initial sync: wait until the whole cover answered (the
            // init timer calls `force_initial` if a root never does).
            if self.initial_done() {
                self.emit_first(now, result);
            }
            return;
        }
        let should = match self.spec.policy {
            DeliveryPolicy::OnChange => self.last_result.as_ref() != Some(&result),
            // Periodic emission is timer-driven (`emit_snapshot`).
            DeliveryPolicy::Periodic(_) => false,
            DeliveryPolicy::Threshold { value } => {
                let side = threshold_side(&result, value);
                let crossed = side.is_some() && side != self.threshold_side;
                if side.is_some() {
                    self.threshold_side = side;
                }
                crossed
            }
        };
        if should {
            self.push_update(now, result, false);
        }
    }

    /// Emits the initial update even though not every root reported —
    /// the initial-sync timeout path (the update carries
    /// `complete = false`).
    pub fn force_initial(&mut self, now: SimTime) {
        if self.last_result.is_none() {
            let result = self.current();
            self.emit_first(now, result);
        }
    }

    fn emit_first(&mut self, now: SimTime, result: AggResult) {
        if let DeliveryPolicy::Threshold { value } = self.spec.policy {
            self.threshold_side = threshold_side(&result, value);
        }
        self.push_update(now, result, true);
    }

    /// Emits the current snapshot unconditionally (the periodic-policy
    /// timer tick).
    pub fn emit_snapshot(&mut self, now: SimTime) {
        let result = self.current();
        let first = self.last_result.is_none();
        self.push_update(now, result, first);
    }

    fn push_update(&mut self, now: SimTime, result: AggResult, initial: bool) {
        self.last_result = Some(result.clone());
        self.updates_emitted += 1;
        self.updates.push_back(SubUpdate {
            at: now,
            result,
            initial,
            complete: self.initial_done(),
        });
    }

    /// Drains pending client-visible updates.
    pub fn take_updates(&mut self) -> Vec<SubUpdate> {
        self.updates.drain(..).collect()
    }
}

/// Which side of a threshold a result sits on. An [`AggResult::Empty`]
/// result sits *below* any threshold — a watched group that empties out
/// is the severest under-threshold case and must still alert; only
/// genuinely non-numeric results (lists, histograms) have no side.
fn threshold_side(result: &AggResult, value: f64) -> Option<bool> {
    match result.as_f64() {
        Some(v) => Some(v >= value),
        None if *result == AggResult::Empty => Some(false),
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moara_aggregation::AggKind;
    use moara_attributes::Value;
    use moara_query::Predicate;

    fn spec(policy: DeliveryPolicy) -> SubSpec {
        SubSpec {
            id: SubId {
                origin: NodeId(0),
                n: 1,
            },
            query: Query::new(
                None,
                AggKind::Count,
                Predicate::atom("A", moara_query::CmpOp::Eq, true),
            ),
            policy,
            lease: SimDuration::from_secs(30),
            owner: NodeId(0),
            cover: vec!["A=true".into()],
        }
    }

    fn t(secs: u64) -> SimTime {
        SimTime(secs * 1_000_000)
    }

    #[test]
    fn wire_roundtrips() {
        for policy in [
            DeliveryPolicy::OnChange,
            DeliveryPolicy::Periodic(SimDuration::from_secs(5)),
            DeliveryPolicy::Threshold { value: 7.5 },
        ] {
            let s = spec(policy);
            assert_eq!(SubSpec::from_bytes(&s.to_bytes()).unwrap(), s);
            assert_eq!(s.to_bytes().len(), s.encoded_len());
        }
        let id = SubId {
            origin: NodeId(3),
            n: 9,
        };
        assert_eq!(SubId::from_bytes(&id.to_bytes()).unwrap(), id);
        // NaN thresholds are rejected at decode (frames are untrusted).
        let mut bytes = Vec::new();
        DeliveryPolicy::Threshold { value: 1.0 }.encode(&mut bytes);
        bytes[1..9].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(DeliveryPolicy::from_bytes(&bytes).is_err());
        // So is a zero period (it would re-arm its snapshot timer in a
        // tight loop).
        let mut bytes = Vec::new();
        DeliveryPolicy::Periodic(SimDuration::from_secs(1)).encode(&mut bytes);
        bytes[1..9].copy_from_slice(&0u64.to_le_bytes());
        assert!(DeliveryPolicy::from_bytes(&bytes).is_err());
    }

    #[test]
    fn entry_suppresses_unchanged_pushes() {
        let mut e = SubEntry::new(
            spec(DeliveryPolicy::OnChange),
            "A=true".into(),
            Id(1),
            NodeId(9),
            t(0),
        );
        assert!(e.set_local(AggState::Count(1)));
        let (seq, state) = e.take_push().unwrap();
        assert_eq!((seq, state), (1, AggState::Count(1)));
        // Nothing moved: no push.
        assert!(e.take_push().is_none());
        // A child reports the same total through a different split — the
        // merge changes (1 → 2), push.
        assert_eq!(e.note_child(NodeId(2), 1, AggState::Count(1)), Some(true));
        assert_eq!(e.take_push().unwrap().1, AggState::Count(2));
        // Stale child frame (same seq) is dropped.
        assert_eq!(e.note_child(NodeId(2), 1, AggState::Count(5)), None);
        // Child retraction shrinks the merge.
        assert!(e.drop_child(NodeId(2)));
        assert_eq!(e.take_push().unwrap().1, AggState::Count(1));
    }

    #[test]
    fn entry_lease_renewal_extends_monotonically() {
        let mut e = SubEntry::new(
            spec(DeliveryPolicy::OnChange),
            "A=true".into(),
            Id(1),
            NodeId(9),
            t(0),
        );
        assert!(!e.expired(t(29)));
        assert!(e.expired(t(30)));
        e.renew(t(10));
        assert!(!e.expired(t(39)));
        assert!(e.expired(t(40)));
        // A stale renew cannot shrink the deadline.
        e.renew(t(5));
        assert!(!e.expired(t(39)));
    }

    #[test]
    fn watch_on_change_emits_only_changes() {
        let mut w = WatchState::new(
            spec(DeliveryPolicy::OnChange),
            vec![("A=true".into(), Id(1))],
        );
        assert!(!w.initial_done());
        assert_eq!(w.note_root("A=true", 1, AggState::Count(3)), Some(true));
        assert!(w.initial_done());
        w.maybe_emit(t(1));
        let ups = w.take_updates();
        assert_eq!(ups.len(), 1);
        assert!(ups[0].initial && ups[0].complete);
        assert_eq!(ups[0].result, AggResult::Value(Value::Int(3)));
        // Same state again: no emission.
        assert_eq!(w.note_root("A=true", 2, AggState::Count(3)), Some(false));
        w.maybe_emit(t(2));
        assert!(w.take_updates().is_empty());
        // A change emits.
        assert_eq!(w.note_root("A=true", 3, AggState::Count(4)), Some(true));
        w.maybe_emit(t(3));
        let ups = w.take_updates();
        assert_eq!(ups.len(), 1);
        assert!(!ups[0].initial);
        // Stale (reordered) root frame is dropped.
        assert_eq!(w.note_root("A=true", 2, AggState::Count(9)), None);
        // Unknown tree is ignored.
        assert_eq!(w.note_root("B=true", 1, AggState::Count(1)), None);
    }

    #[test]
    fn watch_threshold_emits_on_crossings_only() {
        let mut w = WatchState::new(
            spec(DeliveryPolicy::Threshold { value: 5.0 }),
            vec![("A=true".into(), Id(1))],
        );
        w.note_root("A=true", 1, AggState::Count(3));
        w.maybe_emit(t(1)); // initial (below)
        assert_eq!(w.take_updates().len(), 1);
        w.note_root("A=true", 2, AggState::Count(4));
        w.maybe_emit(t(2)); // still below: silent
        assert!(w.take_updates().is_empty());
        w.note_root("A=true", 3, AggState::Count(6));
        w.maybe_emit(t(3)); // crossed up
        assert_eq!(w.take_updates().len(), 1);
        w.note_root("A=true", 4, AggState::Count(2));
        w.maybe_emit(t(4)); // crossed down
        assert_eq!(w.take_updates().len(), 1);
    }

    /// The severest downward crossing: the watched group empties out
    /// entirely. For kinds like `avg`/`min`/`max`/`std` that finalizes
    /// to `AggResult::Empty` — no numeric value at all — and that must
    /// alert like any other drop below the threshold; the return of a
    /// numeric value above it must alert again.
    #[test]
    fn watch_threshold_alerts_when_the_group_empties() {
        let mut s = spec(DeliveryPolicy::Threshold { value: 5.0 });
        s.query = Query::new(
            Some("V".into()),
            AggKind::Avg,
            Predicate::atom("A", moara_query::CmpOp::Eq, true),
        );
        let mut w = WatchState::new(s, vec![("A=true".into(), Id(1))]);
        let avg = |sum: f64, count: u64| AggState::Avg { sum, count };
        w.note_root("A=true", 1, avg(12.0, 2));
        w.maybe_emit(t(1)); // initial: avg 6.0, above
        assert_eq!(w.take_updates().len(), 1);
        w.note_root("A=true", 2, AggState::Null);
        w.maybe_emit(t(2)); // everyone left: Empty = below, must alert
        let ups = w.take_updates();
        assert_eq!(ups.len(), 1, "emptying out crosses the threshold");
        assert_eq!(ups[0].result, AggResult::Empty);
        w.note_root("A=true", 3, AggState::Null);
        w.maybe_emit(t(3)); // still empty: silent
        assert!(w.take_updates().is_empty());
        w.note_root("A=true", 4, avg(14.0, 2));
        w.maybe_emit(t(4)); // back above
        assert_eq!(w.take_updates().len(), 1);
    }

    #[test]
    fn watch_periodic_snapshots_are_timer_driven() {
        let mut w = WatchState::new(
            spec(DeliveryPolicy::Periodic(SimDuration::from_secs(10))),
            vec![("A=true".into(), Id(1))],
        );
        w.note_root("A=true", 1, AggState::Count(3));
        w.maybe_emit(t(1));
        assert_eq!(w.take_updates().len(), 1, "initial always emits");
        w.note_root("A=true", 2, AggState::Count(4));
        w.maybe_emit(t(2));
        assert!(w.take_updates().is_empty(), "changes wait for the tick");
        w.emit_snapshot(t(11));
        let ups = w.take_updates();
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].result, AggResult::Value(Value::Int(4)));
    }

    #[test]
    fn watch_merges_multiple_roots() {
        let mut w = WatchState::new(
            spec(DeliveryPolicy::OnChange),
            vec![("A=true".into(), Id(1)), ("B=true".into(), Id(2))],
        );
        w.note_root("A=true", 1, AggState::Count(3));
        assert!(!w.initial_done(), "B has not reported");
        w.maybe_emit(t(1));
        assert!(w.take_updates().is_empty(), "initial waits for all roots");
        w.note_root("B=true", 1, AggState::Count(2));
        w.maybe_emit(t(2));
        let ups = w.take_updates();
        assert_eq!(ups[0].result, AggResult::Value(Value::Int(5)));
        assert!(ups[0].complete);
    }
}
