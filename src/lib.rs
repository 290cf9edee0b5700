//! # moara
//!
//! Umbrella crate for the Moara reproduction (Ko et al., *Moara: Flexible
//! and Scalable Group-Based Querying System*, Middleware 2008).
//!
//! Re-exports the full stack so applications can depend on one crate:
//!
//! * [`core`] — the Moara protocol engine and [`Cluster`]
//!   harness;
//! * [`query`] — the query language and planner;
//! * [`aggregation`] — aggregation functions;
//! * [`attributes`] — the per-node data model;
//! * [`dht`] — the Pastry-style overlay substrate;
//! * [`membership`] — the SWIM-style failure detector
//!   behind live membership (see `docs/membership.md`);
//! * [`subscribe`] — the continuous-query subscription
//!   plane: leased standing queries with incremental in-network
//!   re-aggregation (see `docs/continuous-queries.md`);
//! * [`transport`] — the pluggable transport subsystem;
//! * [`simnet`] — the discrete-event simulator;
//! * [`wire`] — the binary wire codec;
//! * [`baselines`] — the paper's comparison systems.
//!
//! # Transports
//!
//! The protocol engine is written against one I/O seam, defined in
//! `moara-simnet` and re-exported by `moara-transport` —
//! [`NetCtx`] (send / timers / clock) and
//! [`NetProtocol`] (the node state machine)
//! — and deployments drive it through the
//! [`Transport`] host trait. Two hosts
//! implement it:
//!
//! * [`SimTransport`] is the deterministic
//!   `moara-simnet` simulator itself; `Cluster::builder().build()`
//!   uses it, and every experiment/figure harness runs on it.
//! * [`TcpTransport`] moves the same
//!   messages over real sockets as length-prefixed `moara-wire` frames
//!   with per-peer pooled connections and reconnect;
//!   `Cluster::builder().build_tcp(...)` hosts an in-process cluster on
//!   loopback sockets, and the `moarad` daemon (`moara-daemon` crate)
//!   hosts one node per process. See `docs/transport.md` for the
//!   architecture and the 3-process quickstart.
//!
//! See `examples/quickstart.rs` for a five-minute tour,
//! `examples/tcp_cluster.rs` for the TCP path, and the `moara-bench`
//! crate for the harnesses that regenerate every figure of the paper's
//! evaluation.

pub use moara_aggregation as aggregation;
pub use moara_attributes as attributes;
pub use moara_baselines as baselines;
pub use moara_core as core;
pub use moara_dht as dht;
pub use moara_membership as membership;
pub use moara_query as query;
pub use moara_simnet as simnet;
pub use moara_subscribe as subscribe;
pub use moara_trace as trace;
pub use moara_transport as transport;
pub use moara_wire as wire;

pub use moara_aggregation::{AggKind, AggResult};
pub use moara_attributes::{AttrStore, Value};
pub use moara_core::{Cluster, MoaraConfig, Mode, ProbeCachePolicy, QueryOutcome};
pub use moara_query::{parse_predicate, parse_query, Predicate, Query, SimplePredicate};
pub use moara_simnet::NodeId;
pub use moara_subscribe::{DeliveryPolicy, SubUpdate};
pub use moara_transport::{NetCtx, NetProtocol, SimTransport, TcpTransport, Transport};
