//! Property tests for the adaptation state machine (`PredState` in
//! `state.rs`): arbitrary interleavings of query / change / child-status
//! events never panic or break the Section 4 invariants, and the
//! UPDATE / NO-UPDATE mode always equals what a *shadow model* computes
//! by freshly recomputing the `2·qn` vs `c` rate comparison over the
//! sliding window after every event batch.
//!
//! The shadow model is deliberately transparent: it keeps the full event
//! history and re-counts the window from scratch each time (window length
//! chosen by its *current* mode, ties keep the mode — Procedure 2
//! verbatim), so any drift in the implementation's incremental
//! bookkeeping (event capping, gap accounting, qs/qn classification
//! plumbing) shows up as a mode mismatch. `PredState` keeps its window as
//! a ring of two-bit events holding `WINDOW_CAP`; every pair of windows up
//! to that cap is driven against the model, with refresh-heavy sequences
//! and gaps that flood the longest window.
//!
//! A second model checks the child table (`ChildTable`): it keeps the
//! children's reports in a `BTreeMap` and recomputes the sets, the
//! targets and the NO-PRUNE count from it child by child, across child
//! lists in any order, reports from any node, and reconfigurations.

use std::collections::BTreeMap;

use moara_core::dht::Id;
use moara_core::state::WINDOW_CAP;
use moara_core::{ChildInfo, PredState};
use moara_query::{CmpOp, SimplePredicate};
use moara_simnet::NodeId;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;

/// The three adaptation events of the paper's sliding window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    Qn,
    Qs,
    Change,
}

/// Reference implementation of Procedure 2 over an unbounded event log.
struct Model {
    events: Vec<Ev>,
    mode: bool, // true = UPDATE
    k_update: usize,
    k_no_update: usize,
}

impl Model {
    /// Appends one operation's events, then runs exactly one transition
    /// (mirroring how every `PredState` entry point transitions once).
    fn apply(&mut self, evs: &[Ev]) {
        if evs.is_empty() {
            return;
        }
        self.events.extend_from_slice(evs);
        let k = if self.mode {
            self.k_update
        } else {
            self.k_no_update
        };
        let (mut qn, mut c) = (0u64, 0u64);
        for ev in self.events.iter().rev().take(k) {
            match ev {
                Ev::Qn => qn += 1,
                Ev::Qs => {}
                Ev::Change => c += 1,
            }
        }
        if 2 * qn < c {
            self.mode = false;
        } else if 2 * qn > c {
            self.mode = true;
        }
    }
}

/// One random stimulus for the state machine.
#[derive(Clone, Debug)]
enum Op {
    /// A query arrives, `jump` sequence numbers ahead of contiguous.
    Query { jump: u64 },
    /// Local satisfaction re-evaluated (group churn at this node).
    Refresh { sat: bool },
    /// A child reports status, then satisfaction is re-derived.
    ChildStatus {
        child: u32,
        prune: bool,
        bypass: bool,
        np: u64,
        sat: bool,
    },
    /// A child's status piggybacks a sequence number we never saw.
    AccountSeq { jump: u64 },
    /// The node computes (and records) what to tell its parent.
    StatusToSend,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..4).prop_map(|jump| Op::Query { jump }),
        any::<bool>().prop_map(|sat| Op::Refresh { sat }),
        (
            1u32..3,
            any::<bool>(),
            any::<bool>(),
            0u64..5,
            any::<bool>()
        )
            .prop_map(|(child, prune, bypass, np, sat)| Op::ChildStatus {
                child,
                prune,
                bypass,
                np,
                sat,
            }),
        (0u64..6).prop_map(|jump| Op::AccountSeq { jump }),
        Just(Op::StatusToSend),
    ]
}

/// Mostly refreshes, so that updateSet changes can outweigh queries over
/// a long window, with [`arb_op`] between them and, one op in fifty or
/// so, a sequence gap as long as the longest window.
fn arb_op_for_long_windows() -> impl Strategy<Value = Op> {
    let cap = WINDOW_CAP as u64;
    let refresh_or_gap = (0u64..24, cap - 2..cap + 8, any::<bool>())
        .prop_map(|(pick, jump, sat)| match pick {
            0 => Op::Query { jump },
            1 => Op::AccountSeq { jump },
            _ => Op::Refresh { sat },
        })
        .boxed();
    prop_oneof![arb_op(), refresh_or_gap.clone(), refresh_or_gap]
}

fn me() -> NodeId {
    NodeId(0)
}

/// Drives `PredState` and the shadow model with the same operations,
/// checking mode equality and the Section 4 invariants after every step.
fn drive(ops: &[Op], k_update: usize, k_no_update: usize, threshold: usize) {
    let children = [NodeId(1), NodeId(2)];
    let mut s = PredState::new(
        SimplePredicate::new("A", CmpOp::Eq, true),
        Id::of_attribute("A"),
        k_update,
        k_no_update,
        threshold,
        false,
    );
    let mut model = Model {
        events: Vec::new(),
        mode: false,
        k_update,
        k_no_update,
    };
    let cap = model.k_update.max(model.k_no_update) as u64;
    // `sat` re-derived from first principles: local satisfaction, or a
    // child that must keep receiving queries (default or NO-PRUNE).
    // Meaningful only right after a refresh ran with these inputs.
    let derived_sat = |s: &PredState, local: bool| {
        local
            || children.iter().any(|c| {
                s.children
                    .get(*c)
                    .is_none_or(|info| !info.prune && !info.update_set.is_empty())
            })
    };
    for op in ops {
        match op.clone() {
            Op::Query { jump } => {
                let seq = s.last_seen_seq + 1 + jump;
                let gap = if seq > s.last_seen_seq + 1 {
                    (seq - s.last_seen_seq - 1).min(cap)
                } else {
                    0
                };
                let qs = s.cur_update_set.contains(&me());
                s.on_query(me(), seq);
                let mut evs = vec![Ev::Qn; gap as usize];
                evs.push(if qs { Ev::Qs } else { Ev::Qn });
                model.apply(&evs);
            }
            Op::Refresh { sat } => {
                let before = s.cur_update_set.clone();
                s.refresh(me(), sat, &children);
                if s.cur_update_set != before {
                    model.apply(&[Ev::Change]);
                }
                assert_eq!(s.sat, derived_sat(&s, sat), "sat diverged after {op:?}");
            }
            Op::ChildStatus {
                child,
                prune,
                bypass,
                np,
                sat,
            } => {
                // Wire-consistent reports only: NO-PRUNE ⇔ non-empty set.
                let update_set = if prune {
                    vec![]
                } else if bypass {
                    vec![NodeId(7)] // a bypassed descendant
                } else {
                    vec![NodeId(child)]
                };
                s.note_child_status(
                    NodeId(child),
                    ChildInfo {
                        prune,
                        update_set,
                        np,
                    },
                );
                let before = s.cur_update_set.clone();
                s.refresh(me(), sat, &children);
                if s.cur_update_set != before {
                    model.apply(&[Ev::Change]);
                }
                assert_eq!(s.sat, derived_sat(&s, sat), "sat diverged after {op:?}");
            }
            Op::AccountSeq { jump } => {
                let seq = s.last_seen_seq + jump; // jump 0 = stale no-op
                let gap = if seq > s.last_seen_seq {
                    (seq - s.last_seen_seq).min(cap)
                } else {
                    0
                };
                s.account_seq(seq);
                model.apply(&vec![Ev::Qn; gap as usize]);
            }
            Op::StatusToSend => {
                let _ = s.status_to_send(me());
            }
        }
        s.check_invariants();
        assert_eq!(
            s.update, model.mode,
            "mode diverged from the freshly recomputed window \
             (ops so far ending with {op:?}, window events {:?})",
            model.events
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_window_pair_up_to_the_cap_matches_the_model(
        ops in proptest::collection::vec(arb_op_for_long_windows(), 100..160),
        threshold in 1usize..4,
    ) {
        for k_update in 1..=WINDOW_CAP {
            for k_no_update in 1..=WINDOW_CAP {
                drive(&ops, k_update, k_no_update, threshold);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mode_always_matches_recomputed_rate_comparison(
        ops in proptest::collection::vec(arb_op(), 1..80),
        k_update in 1usize..=WINDOW_CAP,
        k_no_update in 1usize..=WINDOW_CAP,
        threshold in 1usize..4,
    ) {
        drive(&ops, k_update, k_no_update, threshold);
    }

    #[test]
    fn forced_update_never_leaves_update_under_any_interleaving(
        ops in proptest::collection::vec(arb_op(), 1..60),
    ) {
        let children = [NodeId(1), NodeId(2)];
        let mut s = PredState::new(
            SimplePredicate::new("A", CmpOp::Eq, true),
            Id::of_attribute("A"),
            1,
            3,
            2,
            true, // Always-Update baseline
        );
        for op in &ops {
            match op.clone() {
                Op::Query { jump } => s.on_query(me(), s.last_seen_seq + 1 + jump),
                Op::Refresh { sat } => s.refresh(me(), sat, &children),
                Op::ChildStatus { child, prune, bypass, np, sat } => {
                    let update_set = if prune {
                        vec![]
                    } else if bypass {
                        vec![NodeId(7)]
                    } else {
                        vec![NodeId(child)]
                    };
                    s.note_child_status(NodeId(child), ChildInfo { prune, update_set, np });
                    s.refresh(me(), sat, &children);
                }
                Op::AccountSeq { jump } => s.account_seq(s.last_seen_seq + jump),
                Op::StatusToSend => {
                    let _ = s.status_to_send(me());
                }
            }
            s.check_invariants();
            prop_assert!(s.update, "always-update left UPDATE after {op:?}");
        }
    }

    #[test]
    fn child_table_matches_a_map_of_reports(
        first in child_list(),
        ops in proptest::collection::vec(arb_table_op(), 1..80),
        threshold in 1usize..4,
    ) {
        drive_table(first, &ops, threshold);
    }
}

/// A child list of 0–48 distinct ids from 1..=64, in arbitrary order (a
/// tree lists children by ring id, which is not `NodeId` order).
fn child_list() -> BoxedStrategy<Vec<NodeId>> {
    proptest::strategy::from_fn(|rng| {
        let mut pool: Vec<u32> = (1..=64).collect();
        pool.shuffle(rng);
        pool.truncate(rng.gen_range(0..=48));
        pool.into_iter().map(NodeId).collect()
    })
}

/// One stimulus for the child table.
#[derive(Clone, Debug)]
enum TableOp {
    /// A node reports status: with `to_child`, the current child at
    /// index `node` (modulo the list), else node `node`, which may be no
    /// child at all — a report can race a reconfiguration.
    Report {
        node: u32,
        to_child: bool,
        prune: bool,
        set: Vec<u32>,
        np: u64,
    },
    /// Local satisfaction re-derived against the current child list.
    Refresh { sat: bool },
    /// The tree changes: a new child list, with or without the
    /// reconcile's `retain_children`.
    Reconfigure { children: Vec<NodeId>, retain: bool },
    /// A reply's lazy np refresh for one node.
    ReplyNp { node: u32, np: u64 },
    /// A query arrives, `jump` sequence numbers ahead of contiguous.
    Query { jump: u64 },
    /// The node computes (and records) what to tell its parent.
    StatusToSend,
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    let report = (
        1u32..=64,
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(1u32..80, 1..4),
        0u64..50,
    )
        .prop_map(|(node, to_child, prune, set, np)| TableOp::Report {
            node,
            to_child,
            prune,
            set,
            np,
        })
        .boxed();
    prop_oneof![
        report.clone(),
        report,
        any::<bool>().prop_map(|sat| TableOp::Refresh { sat }),
        (child_list(), any::<bool>())
            .prop_map(|(children, retain)| TableOp::Reconfigure { children, retain }),
        (1u32..=64, 0u64..50).prop_map(|(node, np)| TableOp::ReplyNp { node, np }),
        (0u64..3).prop_map(|jump| TableOp::Query { jump }),
        Just(TableOp::StatusToSend),
    ]
}

/// The child-dependent half of `PredState`, over a `BTreeMap` of reports
/// and recomputed child by child, with `Model` for the mode.
struct TableModel {
    reports: BTreeMap<NodeId, ChildInfo>,
    cur_update_set: Vec<NodeId>,
    sat: bool,
    threshold: usize,
    mode: Model,
}

impl TableModel {
    fn refresh(&mut self, local_sat: bool, children: &[NodeId]) {
        let has_default = children.iter().any(|c| !self.reports.contains_key(c));
        let mut qset = Vec::new();
        if local_sat {
            qset.push(me());
        }
        for c in children {
            if let Some(info) = self.reports.get(c).filter(|i| !i.prune) {
                qset.extend_from_slice(&info.update_set);
            }
        }
        qset.sort_unstable();
        qset.dedup();
        self.sat = !qset.is_empty() || has_default;
        let next = if !has_default && qset.len() < self.threshold {
            qset
        } else {
            vec![me()]
        };
        if next != self.cur_update_set {
            self.cur_update_set = next;
            self.mode.apply(&[Ev::Change]);
        }
    }

    fn query_targets(&self, children: &[NodeId]) -> Vec<NodeId> {
        let mut out = Vec::new();
        for c in children {
            match self.reports.get(c) {
                None => out.push(*c),
                Some(info) if !info.prune => out.extend_from_slice(&info.update_set),
                Some(_) => {}
            }
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|&t| t != me());
        out
    }

    fn np(&self, children: &[NodeId]) -> u64 {
        let receives = !self.mode.mode || self.cur_update_set.contains(&me());
        let mut np = u64::from(receives);
        for c in children {
            np += match self.reports.get(c) {
                None => subtree_size(*c),
                Some(info) if !info.prune => info.np,
                Some(_) => 0,
            };
        }
        np
    }
}

fn subtree_size(c: NodeId) -> u64 {
    100 + u64::from(c.0)
}

/// Drives `PredState` and `TableModel` with the same operations and
/// compares everything the child table feeds after every step.
fn drive_table(first: Vec<NodeId>, ops: &[TableOp], threshold: usize) {
    let (k_update, k_no_update) = (1, 3);
    let mut s = PredState::new(
        SimplePredicate::new("A", CmpOp::Eq, true),
        Id::of_attribute("A"),
        k_update,
        k_no_update,
        threshold,
        false,
    );
    let mut m = TableModel {
        reports: BTreeMap::new(),
        cur_update_set: Vec::new(),
        sat: false,
        threshold,
        mode: Model {
            events: Vec::new(),
            mode: false,
            k_update,
            k_no_update,
        },
    };
    let mut children = first;
    for op in ops {
        match op.clone() {
            TableOp::Report {
                node,
                to_child,
                prune,
                set,
                np,
            } => {
                let node = match children.len() {
                    len if to_child && len > 0 => children[node as usize % len],
                    _ => NodeId(node),
                };
                // Wire-consistent reports only: NO-PRUNE ⇔ non-empty set.
                let update_set = if prune {
                    Vec::new()
                } else {
                    set.into_iter().map(NodeId).collect()
                };
                let info = ChildInfo {
                    prune,
                    update_set,
                    np,
                };
                s.note_child_status(node, info.clone());
                m.reports.insert(node, info);
            }
            TableOp::Refresh { sat } => {
                s.refresh(me(), sat, &children);
                m.refresh(sat, &children);
            }
            TableOp::Reconfigure {
                children: next,
                retain,
            } => {
                children = next;
                if retain {
                    s.retain_children(&children);
                    m.reports.retain(|c, _| children.contains(c));
                }
            }
            TableOp::ReplyNp { node, np } => {
                if let Some(info) = s.children.get_mut(NodeId(node)) {
                    info.np = np;
                }
                if let Some(info) = m.reports.get_mut(&NodeId(node)) {
                    info.np = np;
                }
            }
            TableOp::Query { jump } => {
                let seq = s.last_seen_seq + 1 + jump;
                let qs = m.cur_update_set.contains(&me());
                s.on_query(me(), seq);
                let mut evs = vec![Ev::Qn; jump.min(3) as usize];
                evs.push(if qs { Ev::Qs } else { Ev::Qn });
                m.mode.apply(&evs);
            }
            TableOp::StatusToSend => {
                let _ = s.status_to_send(me());
            }
        }
        s.check_invariants();
        assert_eq!(s.sat, m.sat, "sat after {op:?}");
        assert_eq!(s.cur_update_set, m.cur_update_set, "updateSet after {op:?}");
        assert_eq!(s.update, m.mode.mode, "mode after {op:?}");
        assert_eq!(
            s.query_targets(me(), &children).as_slice(),
            m.query_targets(&children),
            "targets after {op:?}"
        );
        assert_eq!(
            s.np(me(), &children, subtree_size),
            m.np(&children),
            "np after {op:?}"
        );
        for n in 0..=64 {
            assert_eq!(
                s.children.get(NodeId(n)),
                m.reports.get(&NodeId(n)),
                "report of {n} after {op:?}"
            );
        }
        assert_eq!(s.children.len(), m.reports.len());
    }
}
