//! The membership plane of a daemon: the member list the seed assigns
//! and broadcasts, the joins it admits, and what the failure detector's
//! verdicts and each broadcast do to the overlay [`Directory`] and the
//! engine.

use std::time::Instant;

use rand::Rng;

use moara_core::Directory;
use moara_dht::Id;
use moara_membership::{PeerState, SwimEvent};
use moara_simnet::NodeId;
use moara_transport::Transport;

use crate::node::{moara_ctx, DaemonMsg, Member};
use crate::recorder::kind;
use crate::{resolve, CtrlReply, Daemon};

/// Points `dir` — and every handle on it, the engine's included — at the
/// overlay `members` describe: each member on the ring under its ring id,
/// the confirmed-dead pruned, the slots staying dense. The one way a
/// member list becomes a [`Directory`]: at boot, on every membership
/// change, and in [`crate::SimSwarm`].
pub(crate) fn load_overlay(dir: &Directory, members: &[Member], bits_per_digit: u32) {
    let pairs: Vec<(NodeId, Id)> = members
        .iter()
        .map(|m| (NodeId(m.node), Id(m.ring_id)))
        .collect();
    dir.reset_members(&pairs, bits_per_digit);
    for m in members.iter().filter(|m| !m.alive) {
        dir.remove_member(NodeId(m.node));
    }
}

impl Daemon {
    /// Seed only: push the current member list to every other member.
    pub(crate) fn broadcast_membership(&mut self) {
        let me = self.me;
        let members = self.members.clone();
        let broadcast = DaemonMsg::Membership(members.clone());
        self.transport.with_node(me, |_n, ctx| {
            for m in &members {
                if m.node != me.0 {
                    ctx.send(NodeId(m.node), broadcast.clone());
                }
            }
        });
        self.last_announce = Instant::now();
    }

    /// Acts on what this daemon's failure detector concluded: confirmed
    /// failures prune the peer from the member view and the overlay
    /// (ring repair + `on_peer_failed` + `reconcile`); revivals undo the
    /// pruning. This is the path that replaces the harness-level
    /// `Cluster::fail_node` oracle in real deployments.
    pub(crate) fn apply_swim_events(&mut self) -> bool {
        let events = self.transport.node_mut(self.me).swim.take_events();
        if events.is_empty() {
            return false;
        }
        let mut changed = false;
        for ev in events {
            match ev {
                SwimEvent::Suspected(n) => {
                    self.recorder
                        .record_event(kind::SWIM_SUSPECT, format!("peer={}", n.0));
                }
                SwimEvent::Confirmed(n) => {
                    self.recorder
                        .record_event(kind::SWIM_CONFIRM, format!("peer={}", n.0));
                    changed |= self.mark_member_dead(n);
                }
                SwimEvent::Revived { node, incarnation } => {
                    self.recorder.record_event(
                        kind::SWIM_REFUTE,
                        format!("peer={} incarnation={incarnation}", node.0),
                    );
                    changed |= self.mark_member_alive(node, incarnation);
                }
            }
        }
        if changed && self.is_seed {
            // Spread the news eagerly; the periodic anti-entropy
            // re-broadcast covers anyone who misses this one.
            self.broadcast_membership();
        }
        changed
    }

    fn mark_member_dead(&mut self, n: NodeId) -> bool {
        let Some(m) = self.members.iter_mut().find(|m| m.node == n.0) else {
            return false;
        };
        if !m.alive || n == self.me {
            return false;
        }
        m.alive = false;
        self.dir.remove_member(n);
        self.with_moara(|moara, ctx| {
            moara.on_peer_failed(ctx, n);
            moara.reconcile(ctx);
        });
        true
    }

    fn mark_member_alive(&mut self, n: NodeId, incarnation: u64) -> bool {
        let Some(m) = self.members.iter_mut().find(|m| m.node == n.0) else {
            return false;
        };
        m.incarnation = m.incarnation.max(incarnation);
        if m.alive {
            return false;
        }
        // Reintegrate only if we hold *some* address for the peer.
        // A refuted false confirmation (the peer never actually died)
        // kept its address valid, and that revival must work seed-less —
        // with the seed down, deferring would prune a healthy peer
        // forever. A peer that really restarted carries a new address we
        // may not have yet; then this re-inserts it against the stale one
        // for a moment — bounded and self-healing, because a rejoin
        // requires a live seed whose broadcast (which carries the fresh
        // address) is at most one anti-entropy interval away. Only a
        // daemon with *no* address at all (it joined after the death)
        // must wait for that broadcast.
        if !self.transport.peers().any(|(id, _)| id == n) {
            return false;
        }
        m.alive = true;
        self.dir.revive_member(n);
        self.reconcile_local();
        true
    }

    pub(crate) fn apply_pending_membership(&mut self) -> bool {
        let Some(members) = self.transport.node_mut(self.me).pending_membership.take() else {
            return false;
        };
        self.install_members(members);
        true
    }

    /// A membership list is applicable only if it is dense and ordered
    /// (`Directory::from_members` asserts exactly that — an assert that
    /// must never be reachable from a network frame) and still contains
    /// this daemon.
    fn membership_is_sane(&self, members: &[Member]) -> bool {
        !members.is_empty()
            && members
                .iter()
                .enumerate()
                .all(|(i, m)| m.node as usize == i)
            && members.iter().any(|m| m.node == self.me.0)
    }

    fn install_members(&mut self, mut members: Vec<Member>) {
        if !self.membership_is_sane(&members) {
            // Malformed or stale broadcast: drop it rather than panic or
            // corrupt the overlay view.
            return;
        }
        // A list claiming *we* are dead is stale testimony about a node
        // with first-hand knowledge: refute it (the detector jumps its
        // incarnation above the claim and gossips the revival) and keep
        // ourselves in the overlay.
        let my_slot = members
            .iter_mut()
            .find(|m| m.node == self.me.0)
            .expect("sanity checked");
        let claimed_dead = !my_slot.alive;
        my_slot.alive = true;
        // First-hand knowledge outranks a stale list the other way too:
        // a peer our own detector confirmed dead at (or above) the
        // list's incarnation stays dead — a seed anti-entropy broadcast
        // sent before the seed learned of the death must not resurrect
        // it in our routing view (only a higher incarnation revives).
        {
            let swim = &self.transport.node(self.me).swim;
            for m in members.iter_mut() {
                if m.alive && m.node != self.me.0 {
                    if let Some(p) = swim.peer(NodeId(m.node)) {
                        if p.state == PeerState::Dead && p.incarnation >= m.incarnation {
                            m.alive = false;
                            m.incarnation = p.incarnation;
                        }
                    }
                }
            }
        }
        // The periodic anti-entropy re-broadcast usually carries exactly
        // what we already have (and nothing about us changed) — bail out
        // before touching anything: a full reset would invalidate every
        // cached tree AND bump the probe-cache churn epoch on every
        // member, every 2 s, silently disabling the query-plane
        // scheduler's 30 s cost cache in steady state. Our own slot's
        // incarnation is normalized first: we store the (possibly
        // refutation-bumped) detector value, which the seed's list can
        // lag behind — without this, one refutation would make every
        // later broadcast compare unequal forever.
        if let (Some(mine), Some(stored)) = (
            members.iter_mut().find(|m| m.node == self.me.0),
            self.members.iter().find(|m| m.node == self.me.0),
        ) {
            mine.incarnation = mine.incarnation.max(stored.incarnation);
        }
        if !claimed_dead && members == self.members {
            return;
        }
        load_overlay(&self.dir, &members, self.cfg.bits_per_digit);
        for m in members.iter().filter(|m| m.alive && m.node != self.me.0) {
            if let Ok(addr) = resolve(&m.addr) {
                self.transport.register_peer(NodeId(m.node), addr);
            }
        }
        // Peers that the list reports dead but we still thought alive:
        // the engine must stop waiting for their replies.
        let newly_dead: Vec<NodeId> = members
            .iter()
            .filter(|m| {
                !m.alive
                    && self
                        .members
                        .iter()
                        .find(|o| o.node == m.node)
                        .is_none_or(|o| o.alive)
            })
            .map(|m| NodeId(m.node))
            .collect();
        // Which of two daemons suspecting the same peer confirms first
        // is a race, and the loser hears of the death from this list
        // (its detector, synced below, then never emits `Confirmed`):
        // its journal must still say the peer died.
        for n in &newly_dead {
            self.recorder
                .record_event(kind::SWIM_CONFIRM, format!("peer={} via=membership", n.0));
        }
        let me = self.me;
        let member_states: Vec<(u32, u64, bool)> = members
            .iter()
            .map(|m| (m.node, m.incarnation, m.alive))
            .collect();
        let my_incarnation = self.transport.with_node(me, |dn, ctx| {
            let now = ctx.now();
            for &(node, incarnation, alive) in &member_states {
                let alive = if node == me.0 { !claimed_dead } else { alive };
                dn.swim.sync_peer(NodeId(node), incarnation, alive, now);
            }
            let mut mctx = moara_ctx(ctx);
            for &n in &newly_dead {
                dn.moara.on_peer_failed(&mut mctx, n);
            }
            dn.swim.incarnation()
        });
        members
            .iter_mut()
            .find(|m| m.node == me.0)
            .expect("sanity checked")
            .incarnation = my_incarnation;
        self.members = members;
        self.reconcile_local();
    }

    /// Seed-only: admit a joiner (or revive a rejoiner), reply with the
    /// member list, broadcast.
    pub(crate) fn handle_join(&mut self, addr: String, prev_node: Option<u32>) -> CtrlReply {
        if !self.is_seed {
            return CtrlReply::Error("only the seed daemon admits joins".into());
        }
        if resolve(&addr).is_err() {
            return CtrlReply::Error(format!("unresolvable peer address {addr}"));
        }
        let mut members = self.members.clone();
        let node = match prev_node {
            Some(prev) => {
                // Crash-recovery: revive the old identity under a fresh
                // incarnation — strictly above anything the cluster may
                // have confirmed it dead at, so the revival out-ranks
                // every stale death claim in flight.
                let Some(m) = members.iter_mut().find(|m| m.node == prev) else {
                    return CtrlReply::Error(format!("unknown previous node id {prev}"));
                };
                if m.node == self.me.0 {
                    return CtrlReply::Error("the seed's own id cannot be reclaimed".into());
                }
                // Refuse to hand a member's identity to someone else until
                // its failure is *confirmed* — a merely suspected node is
                // usually alive (one lost probe round suffices), and
                // reviving its slot for an impostor would split-brain the
                // id. A genuinely crashed daemon restarting quickly hits
                // this too, so `Daemon::start` treats it as retryable and
                // polls until confirmation.
                let detector_view = self.transport.node(self.me).swim.peer(NodeId(prev));
                let confirmed_dead =
                    !m.alive || detector_view.is_some_and(|p| p.state == PeerState::Dead);
                if !confirmed_dead {
                    return CtrlReply::Error(format!(
                        "node {prev} is still believed alive; retry after its failure is detected"
                    ));
                }
                let detector_inc = detector_view.map_or(0, |p| p.incarnation);
                m.incarnation = m.incarnation.max(detector_inc) + 1;
                m.alive = true;
                m.addr = addr;
                prev
            }
            None => {
                let node = members.iter().map(|m| m.node + 1).max().unwrap_or(0);
                let mut ring_id = self.rng.gen();
                while members.iter().any(|m| m.ring_id == ring_id) {
                    ring_id = self.rng.gen();
                }
                members.push(Member {
                    node,
                    ring_id,
                    addr,
                    incarnation: 0,
                    alive: true,
                });
                node
            }
        };
        self.install_members(members.clone());
        // Everyone learns through the peer plane (the joiner additionally
        // gets the list in its Joined reply, and the periodic re-announce
        // heals anyone who misses this broadcast).
        self.broadcast_membership();
        CtrlReply::Joined { node, members }
    }
}
