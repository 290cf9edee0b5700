//! # moara-simnet
//!
//! A deterministic discrete-event network simulator used as the execution
//! substrate for the Moara reproduction.
//!
//! The Moara paper evaluates on three platforms: the FreePastry simulator
//! (bandwidth experiments up to 16 384 nodes), Emulab (a 500-node LAN
//! emulating a datacenter), and PlanetLab (a 200-node wide-area deployment).
//! This crate stands in for all three. Protocol code runs unmodified as
//! message-passing state machines (the [`Protocol`] trait); the choice of
//! [`LatencyModel`] selects the platform being emulated:
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
//! use moara_simnet::{Context, NodeId, Protocol, SimDuration, Simulator, TimerTag};
//! use moara_simnet::latency::Constant;
//!
//! /// A node that forwards a counter to its successor until it reaches 10.
//! struct Relay {
//!     next: NodeId,
//! }
//!
//! impl Protocol for Relay {
//!     type Msg = u32;
//!     fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: NodeId, msg: u32) {
//!         if msg < 10 {
//!             ctx.send(self.next, msg + 1);
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Context<'_, u32>, _tag: TimerTag) {}
//! }
//!
//! let mut sim = Simulator::new(Constant::from_millis(1), 42);
//! let a = sim.add_node(Relay { next: NodeId(1) });
//! let b = sim.add_node(Relay { next: NodeId(0) });
//! sim.with_node(a, |_node, ctx| ctx.send(b, 0));
//! sim.run_to_quiescence();
//! assert_eq!(sim.stats().total_messages(), 11);
//! assert_eq!(sim.now(), SimDuration::from_millis(11).as_time());
//! ```

pub mod latency;
pub mod minted;
mod sim;
mod stats;
mod time;

pub use latency::LatencyModel;
pub use minted::{MintedMap, MintedSet};
pub use sim::{Context, FaultPlan, Message, NodeId, Protocol, Simulator, TimerId, TimerTag};
pub use stats::Stats;
pub use time::{SimDuration, SimTime};
