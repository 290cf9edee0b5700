//! The I/O seam every host shares: [`NetCtx`] is what a node acts
//! through, [`NetProtocol`] is the node, and [`Transport`] is the host
//! that owns nodes and moves their messages. The simulator
//! ([`crate::SimTransport`]) implements them here; `moara-transport`'s
//! TCP backend implements them over real sockets.

use crate::sim::{Message, NodeId, TimerId, TimerTag};
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};

/// The capability handle protocol logic acts through: everything a node
/// may do to the outside world from inside a callback.
///
/// Implemented by the simulator's context (virtual time, simulated
/// delivery) and by the TCP backend's context (sockets, real time). Kept
/// object-safe so protocol code can take `&mut dyn NetCtx<M>` and stay
/// monomorphization-free.
pub trait NetCtx<M> {
    /// The current time (virtual under simulation, real elapsed time under
    /// TCP — both microseconds since the transport epoch).
    fn now(&self) -> SimTime;

    /// The id of the node this callback runs on.
    fn me(&self) -> NodeId;

    /// Sends `msg` to `to`. Delivery is asynchronous and unordered across
    /// peers; messages to failed nodes are silently dropped (and counted).
    fn send(&mut self, to: NodeId, msg: M);

    /// Arms a one-shot timer firing on this node after `delay`.
    fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId;

    /// Arms a one-shot *maintenance* timer: fires like any other during
    /// normal running, but does not gate the transport's quiescence.
    /// For standing periodic work (lease clocks, subscription renewals)
    /// that re-arms itself forever, so a quiescence drain must not wait
    /// for it. No default body: a wrapping context that left it out
    /// would arm a plain timer instead.
    fn set_maintenance_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId;

    /// Cancels a pending timer (no-op if already fired).
    fn cancel_timer(&mut self, id: TimerId);

    /// Increments a named experiment counter (see [`Stats::counter`]).
    fn count(&mut self, name: &'static str);
}

/// A message-passing state machine: the node-side interface every host
/// runs, written against the [`NetCtx`] seam and oblivious to whether it
/// runs on the simulator or over a network.
pub trait NetProtocol {
    /// The protocol's wire message type.
    type Msg: Message;

    /// Called once when the node is added to a transport.
    fn on_start(&mut self, _ctx: &mut dyn NetCtx<Self::Msg>) {}

    /// Called when a message addressed to this node is delivered.
    fn on_message(&mut self, ctx: &mut dyn NetCtx<Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer armed via [`NetCtx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut dyn NetCtx<Self::Msg>, tag: TimerTag);
}

/// A deployment host: owns protocol nodes and moves their messages.
///
/// All nodes on one host run the same protocol type (heterogeneous roles
/// are states of that type, as in a single deployed binary). `Cluster`
/// (in `moara-core`) is generic over this trait; picking
/// [`crate::SimTransport`] gives the paper's deterministic experiments,
/// picking `moara_transport::TcpTransport` gives the same protocol over
/// real sockets.
pub trait Transport<P: NetProtocol> {
    /// Adds a node, invokes its [`NetProtocol::on_start`], returns its id.
    fn add_node(&mut self, node: P) -> NodeId;

    /// Number of nodes ever added (including failed ones).
    fn len(&self) -> usize;

    /// True if no nodes were added.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable access to a node's state (assertions/inspection).
    fn node(&self, id: NodeId) -> &P;

    /// Mutable access without a context; prefer [`Transport::with_node`]
    /// when the mutation needs to send messages.
    fn node_mut(&mut self, id: NodeId) -> &mut P;

    /// Runs `f` against node `id` with a live [`NetCtx`] — how drivers
    /// inject external stimuli (queries, attribute changes).
    fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut dyn NetCtx<P::Msg>) -> R,
    ) -> R
    where
        Self: Sized;

    /// The current time on this transport's clock.
    fn now(&self) -> SimTime;

    /// Advances (or waits) `d`, processing events that come due.
    fn run_for(&mut self, d: SimDuration);

    /// Processes events until the system goes idle: no queued deliveries,
    /// no in-flight frames, no pending foreground timers. Maintenance
    /// timers neither gate it nor fire in it: both hosts set aside those
    /// that come due while it drains, keeping their time and order, and
    /// they fire, late, at the first `run_for` after it (on TCP, the
    /// first `pump`). Returns the time reached.
    fn run_to_quiescence(&mut self) -> SimTime;

    /// Message/byte accounting.
    fn stats(&self) -> &Stats;

    /// Mutable accounting access (e.g. reset between experiment phases).
    fn stats_mut(&mut self) -> &mut Stats;

    /// Marks a node failed: sends to it fail (dropped and logged for
    /// [`Transport::take_undeliverable`]), and a message or timer that
    /// comes due while it is down is dropped. Work due after
    /// [`Transport::recover_node`] runs as usual.
    fn fail_node(&mut self, id: NodeId);

    /// Brings a failed node back (in-memory state retained; for a cold
    /// restart, replace the state via [`Transport::node_mut`] first).
    fn recover_node(&mut self, id: NodeId);

    /// Whether the node is currently alive.
    fn is_alive(&self, id: NodeId) -> bool;

    /// Drains the log of (sender, dead-destination) pairs accumulated
    /// since the last call — the engine's failure-notification stand-in.
    fn take_undeliverable(&mut self) -> Vec<(NodeId, NodeId)>;
}
