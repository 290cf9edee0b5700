//! A deterministic multi-daemon harness: the *daemon's* node — protocol
//! engine plus SWIM failure detector, one private overlay [`Directory`]
//! per node, exactly as in a one-process-per-`moarad` deployment — hosted
//! on the discrete-event [`SimTransport`].
//!
//! This is what makes the membership subsystem testable the way the
//! paper's experiments are: the identical state machines that run in
//! real time over TCP are driven here by virtual-time timers and seeded
//! randomness, so crash → confirm → repair → rejoin scenarios replay
//! byte-for-byte. Unlike `moara_core::Cluster`, nothing here is
//! omniscient: a crash is `fail_node` on the *transport* (frames stop
//! flowing), and every structural reaction happens because some node's
//! detector concluded something.

use moara_core::{DeliveryPolicy, Directory, MoaraConfig, MoaraNode, QueryOutcome, SubUpdate};
use moara_dht::Id;
use moara_membership::{SwimConfig, SwimDetector, SwimEvent};
use moara_query::parse_query;
use moara_simnet::{latency, NodeId, SimDuration, Stats};
use moara_transport::{SimTransport, Transport};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::health::HealthSummary;
use crate::membership::load_overlay;
use crate::node::{moara_ctx, swim_ctx};
use crate::{metrics, DaemonNode, Member};

/// One simulated daemon's private world-view: its overlay directory and
/// which members it currently believes alive.
struct SwarmView {
    dir: Directory,
    alive: Vec<bool>,
}

/// A cluster of simulated daemons (see module docs).
pub struct SimSwarm {
    transport: SimTransport<DaemonNode>,
    views: Vec<SwarmView>,
    swim_period: SimDuration,
}

/// One simulated daemon's health sample: the daemon's own key set, with
/// `NaN` (a gap) under every key the harness has no source for — there
/// is no event loop, gateway or process to measure here.
fn health_sample(dn: &DaemonNode, view: &SwarmView) -> Vec<(&'static str, f64)> {
    let value = |key| match key {
        "watches" => dn.moara.active_watches() as f64,
        "sub_entries" => dn.moara.sub_entry_count() as f64,
        "dead_members" => view.alive.iter().filter(|a| !**a).count() as f64,
        _ => f64::NAN,
    };
    let keys = metrics::sample_keys();
    keys.map(|key| (key, value(key))).collect()
}

impl SimSwarm {
    /// Builds `n` simulated daemons with identical member lists (random
    /// distinct ring ids from `seed`) and per-node directories.
    pub fn new(n: usize, cfg: MoaraConfig, swim: SwimConfig, seed: u64) -> SimSwarm {
        assert!(n > 0, "swarm needs at least one daemon");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ring_ids: Vec<Id> = Vec::with_capacity(n);
        while ring_ids.len() < n {
            let id = Id(rng.gen());
            if !ring_ids.contains(&id) {
                ring_ids.push(id);
            }
        }
        let members: Vec<Member> = ring_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| Member {
                node: i as u32,
                ring_id: id.0,
                addr: String::new(),
                incarnation: 0,
                alive: true,
            })
            .collect();
        let mut transport: SimTransport<DaemonNode> =
            SimTransport::new(latency::Constant::from_millis(1), seed.wrapping_add(1));
        let mut views = Vec::with_capacity(n);
        for i in 0..n as u32 {
            let dir = Directory::from_members(&[], cfg.bits_per_digit);
            load_overlay(&dir, &members, cfg.bits_per_digit);
            let moara = MoaraNode::new(dir.clone(), cfg.clone());
            let mut det = SwimDetector::new(NodeId(i), swim.clone(), seed ^ u64::from(i));
            for m in members.iter().filter(|m| m.node != i) {
                det.sync_peer(NodeId(m.node), 0, true, moara_simnet::SimTime::ZERO);
            }
            transport.add_node(DaemonNode::new(moara, det));
            views.push(SwarmView {
                dir,
                alive: vec![true; n],
            });
        }
        SimSwarm {
            transport,
            views,
            swim_period: swim.period,
        }
    }

    /// Number of daemons (alive or crashed).
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True if the swarm is empty (never: the constructor requires one).
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Read access to one daemon's node (engine + detector).
    pub fn node(&self, node: NodeId) -> &DaemonNode {
        self.transport.node(node)
    }

    /// Message statistics of the swarm's transport.
    pub fn stats(&self) -> &Stats {
        self.transport.stats()
    }

    /// Mutable statistics (reset between phases).
    pub fn stats_mut(&mut self) -> &mut Stats {
        self.transport.stats_mut()
    }

    /// Installs a standing query at one daemon's front-end; drive the
    /// swarm with [`SimSwarm::run`] and drain
    /// [`SimSwarm::take_sub_updates`].
    pub fn subscribe(
        &mut self,
        origin: NodeId,
        text: &str,
        policy: DeliveryPolicy,
        lease: SimDuration,
    ) -> u64 {
        let query = parse_query(text).expect("query parses");
        self.transport.with_node(origin, |dn, ctx| {
            dn.moara
                .subscribe(&mut moara_ctx(ctx), query, policy, lease)
        })
    }

    /// Drains the client-visible updates of a watch.
    pub fn take_sub_updates(&mut self, origin: NodeId, watch_id: u64) -> Vec<SubUpdate> {
        self.transport
            .node_mut(origin)
            .moara
            .take_sub_updates(watch_id)
    }

    /// Cancels a subscription.
    pub fn unsubscribe(&mut self, origin: NodeId, watch_id: u64) {
        self.transport.with_node(origin, |dn, ctx| {
            dn.moara.unsubscribe(&mut moara_ctx(ctx), watch_id);
        });
    }

    /// Total per-tree subscription entries across the *alive* daemons.
    pub fn sub_entries_total(&self) -> usize {
        (0..self.views.len() as u32)
            .map(NodeId)
            .filter(|&n| self.transport.is_alive(n))
            .map(|n| self.transport.node(n).moara.sub_entry_count())
            .sum()
    }

    /// Whether daemon `at` currently believes member `about` is alive.
    pub fn believes_alive(&self, at: NodeId, about: NodeId) -> bool {
        self.views[at.index()].alive[about.index()]
    }

    /// Sets a local attribute at one daemon (group churn).
    pub fn set_attr(
        &mut self,
        node: NodeId,
        attr: &str,
        value: impl Into<moara_attributes::Value>,
    ) {
        if !self.transport.is_alive(node) {
            return;
        }
        let value = value.into();
        self.transport.with_node(node, |dn, ctx| {
            let mut mctx = moara_ctx(ctx);
            dn.moara.store.set(attr, value);
            dn.moara.on_local_change(&mut mctx, attr);
        });
    }

    /// Advances virtual time by `d`, applying detector conclusions to
    /// each daemon's private view as they happen (sliced at the SWIM
    /// period so repairs land with detection latency, not at the end).
    pub fn run(&mut self, d: SimDuration) {
        let slice = self.swim_period.as_micros().max(1);
        let mut left = d.as_micros();
        while left > 0 {
            let step = left.min(slice);
            self.transport.run_for(SimDuration::from_micros(step));
            self.apply_events();
            left -= step;
        }
    }

    /// Runs `periods` failure-detector periods.
    pub fn run_periods(&mut self, periods: u64) {
        self.run(SimDuration::from_micros(
            self.swim_period.as_micros().saturating_mul(periods),
        ));
    }

    /// Drains every live daemon's detector events and performs the same
    /// repairs the real daemon loop does: confirmed failure ⇒ prune from
    /// the directory (ring repair) + `on_peer_failed` + `reconcile`;
    /// revival ⇒ re-insert + `reconcile`.
    pub fn apply_events(&mut self) {
        for i in 0..self.views.len() {
            let me = NodeId(i as u32);
            if !self.transport.is_alive(me) {
                continue;
            }
            let events = self.transport.node_mut(me).swim.take_events();
            for ev in events {
                match ev {
                    SwimEvent::Suspected(_) => {}
                    SwimEvent::Confirmed(n) => {
                        let view = &mut self.views[i];
                        if !view.alive[n.index()] {
                            continue;
                        }
                        view.alive[n.index()] = false;
                        view.dir.remove_member(n);
                        self.transport.with_node(me, |dn, ctx| {
                            let ctx = &mut moara_ctx(ctx);
                            dn.moara.on_peer_failed(ctx, n);
                            dn.moara.reconcile(ctx);
                        });
                    }
                    SwimEvent::Revived { node, .. } => {
                        let view = &mut self.views[i];
                        if view.alive[node.index()] {
                            continue;
                        }
                        view.alive[node.index()] = true;
                        view.dir.revive_member(node);
                        self.transport.with_node(me, |dn, ctx| {
                            dn.moara.reconcile(&mut moara_ctx(ctx));
                        });
                    }
                }
            }
        }
    }

    /// Turns on health-digest piggybacking for every daemon, exactly as
    /// the real event loop does once its first self-sample lands: each
    /// node's current state is snapshotted into a [`HealthSummary`] that
    /// rides every subsequent outgoing SWIM message. `swim_sim` compares
    /// a swarm with this on against one without it (same seed, same
    /// workload).
    pub fn enable_health_gossip(&mut self) {
        for i in 0..self.views.len() as u32 {
            let me = NodeId(i);
            if !self.transport.is_alive(me) {
                continue;
            }
            let dn = self.transport.node_mut(me);
            let sample = health_sample(dn, &self.views[me.index()]);
            dn.health_digest = Some(metrics::digest(i, dn.swim.incarnation(), 0, &sample));
        }
    }

    /// The freshest health digest daemon `at` holds about peer `about`
    /// (gossiped, not asked for). `None` until gossip delivers one.
    pub fn peer_digest(&self, at: NodeId, about: NodeId) -> Option<HealthSummary> {
        self.transport
            .node(at)
            .pending_health
            .iter()
            .rev()
            .find(|(n, _)| *n == about.0)
            .map(|(_, h)| h.clone())
    }

    /// Crashes a daemon at the *network* level: its frames stop flowing
    /// and its timers die. Nobody is told — the survivors' detectors
    /// must find out.
    pub fn crash(&mut self, node: NodeId) {
        self.transport.fail_node(node);
    }

    /// Restarts a crashed daemon with its state preserved (attribute
    /// store, ring id): the detector re-arms its probe loop, bumps its
    /// incarnation above the one the cluster may have confirmed dead,
    /// and re-announces; the engine discards stale tree state and
    /// re-enters its groups' trees. The revival then spreads by gossip —
    /// no omniscient recovery notification.
    pub fn restart(&mut self, node: NodeId) {
        assert!(
            !self.transport.is_alive(node),
            "restart targets a crashed daemon"
        );
        self.transport.recover_node(node);
        self.transport.with_node(node, |dn, ctx| {
            // A real restarted moarad builds a fresh detector; emulate
            // that: no pre-crash probe or suspicion clock may leak into
            // the new life (an aged suspicion would confirm a healthy
            // peer on the first tick back).
            dn.swim.reset_transients(ctx.now());
            let inc = dn.swim.incarnation();
            dn.swim.set_incarnation(inc + 1);
            dn.swim.start(&mut swim_ctx(ctx, dn.health_digest.as_ref()));
            dn.moara.on_rejoin(&mut moara_ctx(ctx));
        });
    }

    /// Runs a query from `origin`'s front-end, advancing virtual time
    /// (and applying detector repairs) until it completes.
    ///
    /// # Panics
    ///
    /// Panics on parse errors and when the query outlives its front-end
    /// deadline by a wide margin (protocol bug).
    pub fn query(&mut self, origin: NodeId, text: &str) -> QueryOutcome {
        let query = parse_query(text).expect("query parses");
        let fid = self.transport.with_node(origin, |dn, ctx| {
            dn.moara.submit(&mut moara_ctx(ctx), query)
        });
        for _ in 0..10_000 {
            if let Some(out) = self.transport.node_mut(origin).moara.take_outcome(fid) {
                return out;
            }
            self.transport.run_for(SimDuration::from_millis(20));
            self.apply_events();
        }
        panic!("query never completed (front timeout should bound it)");
    }
}
