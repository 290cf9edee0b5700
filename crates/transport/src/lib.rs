//! # moara-transport
//!
//! The pluggable transport subsystem: *how Moara messages move between
//! nodes*, abstracted so the protocol engine neither knows nor cares
//! whether it runs inside the deterministic `moara-simnet` simulator or
//! over real TCP sockets.
//!
//! Three layers:
//!
//! 1. **The I/O seam** — [`NetCtx`] is the capability handle protocol
//!    logic acts through (send a message, arm/cancel a timer, read the
//!    clock), and [`NetProtocol`] is the state-machine interface a hosted
//!    node implements against it. `moara_simnet::Context` implements
//!    [`NetCtx`], so simulator hosting is zero-cost; `moara-core`'s
//!    `MoaraNode` is written purely against these traits.
//! 2. **The host abstraction** — [`Transport`] is what deployment
//!    harnesses (e.g. `moara-core`'s `Cluster`) drive: add nodes, inject
//!    stimuli with a live [`NetCtx`], pump the event loop, read
//!    statistics, fail/recover nodes.
//! 3. **Backends** — [`SimTransport`] adapts the discrete-event
//!    [`moara_simnet::Simulator`] (virtual time, seeded latency models,
//!    perfect determinism), and [`TcpTransport`] runs the same protocol
//!    over real sockets (length-prefixed [`moara_wire`] frames, per-peer
//!    pooled connections with reconnect, a real-time timer wheel), in
//!    tests as in deployment. The `moarad` daemon (`moara-daemon`
//!    crate) hosts one node per process on [`TcpTransport`] and stitches
//!    processes into a cluster.

use moara_simnet::{Message, NodeId, SimDuration, SimTime, Stats, TimerId, TimerTag};

mod epoll;
pub mod sim;
pub mod tcp;

pub use sim::SimTransport;
pub use tcp::{ReservedListener, TcpConfig, TcpTransport, WakeHandle};

/// The capability handle protocol logic acts through: everything a node
/// may do to the outside world from inside a callback.
///
/// Implemented by `moara_simnet::Context` (virtual time, simulated
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
    /// that re-arms itself forever — a quiescence drain must neither
    /// wait for it nor fire it. Defaults to a plain timer for backends
    /// without the distinction.
    fn set_maintenance_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId {
        self.set_timer(delay, tag)
    }

    /// Cancels a pending timer (no-op if already fired).
    fn cancel_timer(&mut self, id: TimerId);

    /// Increments a named experiment counter.
    fn count(&mut self, name: &'static str);
}

impl<M: Message> NetCtx<M> for moara_simnet::Context<'_, M> {
    fn now(&self) -> SimTime {
        moara_simnet::Context::now(self)
    }
    fn me(&self) -> NodeId {
        moara_simnet::Context::me(self)
    }
    fn send(&mut self, to: NodeId, msg: M) {
        moara_simnet::Context::send(self, to, msg);
    }
    fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId {
        moara_simnet::Context::set_timer(self, delay, tag)
    }
    fn set_maintenance_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId {
        moara_simnet::Context::set_maintenance_timer(self, delay, tag)
    }
    fn cancel_timer(&mut self, id: TimerId) {
        moara_simnet::Context::cancel_timer(self, id);
    }
    fn count(&mut self, name: &'static str) {
        moara_simnet::Context::count(self, name);
    }
}

/// A transport-agnostic message-passing state machine: the node-side
/// interface every backend hosts.
///
/// The mirror of `moara_simnet::Protocol`, with the concrete simulator
/// `Context` replaced by the [`NetCtx`] seam.
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

/// Adapter giving any [`NetProtocol`] a `moara_simnet::Protocol` impl, so
/// the simulator can host it unchanged. (A blanket impl would violate the
/// orphan rule — `Protocol` belongs to `moara-simnet` — so hosting wraps
/// nodes in this newtype; [`SimTransport`] hides the wrapping.)
#[derive(Debug)]
pub struct SimHosted<P>(pub P);

impl<P: NetProtocol> moara_simnet::Protocol for SimHosted<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut moara_simnet::Context<'_, Self::Msg>) {
        self.0.on_start(ctx);
    }
    fn on_message(
        &mut self,
        ctx: &mut moara_simnet::Context<'_, Self::Msg>,
        from: NodeId,
        msg: Self::Msg,
    ) {
        self.0.on_message(ctx, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut moara_simnet::Context<'_, Self::Msg>, tag: TimerTag) {
        self.0.on_timer(ctx, tag);
    }
}

/// A deployment host: owns protocol nodes and moves their messages.
///
/// `Cluster` (in `moara-core`) is generic over this trait; picking
/// [`SimTransport`] gives the paper's deterministic experiments, picking
/// [`TcpTransport`] gives the same protocol over real sockets.
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
    /// no in-flight frames, no pending timers. Returns the time reached.
    fn run_to_quiescence(&mut self) -> SimTime;

    /// Message/byte accounting.
    fn stats(&self) -> &Stats;

    /// Mutable accounting access (e.g. reset between experiment phases).
    fn stats_mut(&mut self) -> &mut Stats;

    /// Marks a node failed: its pending work is discarded and future
    /// messages to it are dropped.
    fn fail_node(&mut self, id: NodeId);

    /// Brings a failed node back (in-memory state retained).
    fn recover_node(&mut self, id: NodeId);

    /// Whether the node is currently alive.
    fn is_alive(&self, id: NodeId) -> bool;

    /// Drains the log of (sender, dead-destination) pairs accumulated
    /// since the last call — the engine's failure-notification stand-in.
    fn take_undeliverable(&mut self) -> Vec<(NodeId, NodeId)>;
}
