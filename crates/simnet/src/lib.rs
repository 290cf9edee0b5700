//! # moara-simnet
//!
//! A deterministic discrete-event network simulator used as the execution
//! substrate for the Moara reproduction.
//!
//! The Moara paper evaluates on three platforms: the FreePastry simulator
//! (bandwidth experiments up to 16 384 nodes), Emulab (a 500-node LAN
//! emulating a datacenter), and PlanetLab (a 200-node wide-area deployment).
//! This crate stands in for all three. It also defines the I/O seam every
//! host shares: protocol code is written as message-passing state
//! machines ([`NetProtocol`]) that act through a [`NetCtx`], and hosts
//! implement [`Transport`]. [`SimTransport`] is the simulator's host;
//! `moara-transport`'s `TcpTransport` runs the same nodes over real
//! sockets. The choice of [`LatencyModel`] selects the platform being
//! emulated:
//!
//! * [`latency::Constant`] / [`latency::Lan`] — Emulab-style low-latency LAN.
//! * [`latency::Wan`] — PlanetLab-style heavy-tailed wide-area latencies with
//!   straggler nodes.
//!
//! Every message is counted (and sized) per node so that the bandwidth
//! figures of the paper (Figures 9–11) can be regenerated, and the virtual
//! clock gives the latency figures (Figures 12–16).
//!
//! # Example
//!
//! ```
//! use moara_simnet::latency::Constant;
//! use moara_simnet::{NetCtx, NetProtocol, NodeId, SimDuration, SimTransport, TimerTag, Transport};
//!
//! /// A node that forwards a counter to its successor until it reaches 10.
//! struct Relay {
//!     next: NodeId,
//! }
//!
//! impl NetProtocol for Relay {
//!     type Msg = u32;
//!     fn on_message(&mut self, ctx: &mut dyn NetCtx<u32>, _from: NodeId, msg: u32) {
//!         if msg < 10 {
//!             ctx.send(self.next, msg + 1);
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut dyn NetCtx<u32>, _tag: TimerTag) {}
//! }
//!
//! let mut sim = SimTransport::new(Constant::from_millis(1), 42);
//! let a = sim.add_node(Relay { next: NodeId(1) });
//! let b = sim.add_node(Relay { next: NodeId(0) });
//! sim.with_node(a, |_node, ctx| ctx.send(b, 0));
//! sim.run_to_quiescence();
//! assert_eq!(sim.stats().total_messages(), 11);
//! assert_eq!(sim.now(), SimDuration::from_millis(11).as_time());
//! ```

pub mod latency;
pub mod minted;
mod net;
mod sim;
mod stats;
mod time;

pub use latency::LatencyModel;
pub use minted::{MintedMap, MintedSet};
pub use net::{NetCtx, NetProtocol, Transport};
pub use sim::{FaultPlan, Message, NodeId, SimTransport, TimerId, TimerTag};
pub use stats::Stats;
pub use time::{SimDuration, SimTime};
