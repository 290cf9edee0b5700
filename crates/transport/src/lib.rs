//! # moara-transport
//!
//! The pluggable transport subsystem: *how Moara messages move between
//! nodes*, abstracted so the protocol engine neither knows nor cares
//! whether it runs inside the deterministic `moara-simnet` simulator or
//! over real TCP sockets.
//!
//! One seam, defined once in `moara-simnet` and re-exported here:
//!
//! 1. **The node side** — [`NetCtx`] is the capability handle protocol
//!    logic acts through (send a message, arm/cancel a timer, read the
//!    clock), and [`NetProtocol`] is the state-machine interface a hosted
//!    node implements against it. `moara-core`'s `MoaraNode` is written
//!    purely against these traits.
//! 2. **The host side** — [`Transport`] is what deployment harnesses
//!    (e.g. `moara-core`'s `Cluster`) drive: add nodes, inject stimuli
//!    with a live [`NetCtx`], pump the event loop, read statistics,
//!    fail/recover nodes.
//!
//! Two hosts implement it: [`SimTransport`] is the discrete-event
//! simulator itself (virtual time, seeded latency models, perfect
//! determinism), and [`TcpTransport`], this crate's backend, runs the
//! same protocol over real sockets (length-prefixed [`moara_wire`]
//! frames, per-peer pooled connections with reconnect, a real-time timer
//! wheel), in tests as in deployment. The `moarad` daemon
//! (`moara-daemon` crate) hosts one node per process on [`TcpTransport`]
//! and stitches processes into a cluster.

pub mod epoll;
pub mod tcp;

pub use moara_simnet::{NetCtx, NetProtocol, SimTransport, Transport};
pub use tcp::{ReservedListener, TcpConfig, TcpTransport, WakeHandle};
