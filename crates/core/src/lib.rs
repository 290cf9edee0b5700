//! # moara-core
//!
//! The Moara group-based distributed aggregation protocol — the paper's
//! primary contribution (Ko et al., *Moara: Flexible and Scalable
//! Group-Based Querying System*, Middleware 2008).
//!
//! Moara answers one-shot aggregation queries over *groups* of machines
//! defined by predicates on node attributes. It achieves low cost via
//! three mechanisms, each implemented here:
//!
//! 1. **Group trees on a DHT** (Section 3): every group predicate gets an
//!    aggregation tree that is an optimized sub-graph of the implicit DHT
//!    tree rooted at the hash of the group attribute.
//! 2. **Dynamic maintenance** (Section 4) and the **separate query plane**
//!    (Section 5): per-branch PRUNE/NO-PRUNE state adapts between
//!    update-driven and query-driven operation to minimize total message
//!    cost, and short-circuits non-satisfying interior nodes so query cost
//!    is `O(group size)`, independent of system size.
//! 3. **Composite query planning** (Section 6): CNF rewriting, structural
//!    covers, size probes, and semantic optimizations pick a minimum-cost
//!    set of trees for nested union/intersection predicates.
//!
//! The crate is organized as pure protocol state ([`state`]), the
//! message-passing node ([`MoaraNode`]), and a deployment harness
//! ([`Cluster`]) running on the deterministic simulator from
//! `moara-simnet`.
//!
//! # Example
//!
//! ```
//! use moara_core::{Cluster, MoaraConfig};
//! use moara_simnet::NodeId;
//!
//! let mut cluster = Cluster::builder().nodes(32).seed(1).build();
//! for i in 0..32u32 {
//!     cluster.set_attr(NodeId(i), "ServiceX", i % 8 == 0);
//!     cluster.set_attr(NodeId(i), "CPU-Util", (i as i64) * 3);
//! }
//! let out = cluster
//!     .query(NodeId(0), "SELECT count(*) WHERE ServiceX = true")
//!     .unwrap();
//! assert_eq!(out.result.to_string(), "4");
//! ```

mod cluster;
mod config;
mod msg;
mod node;
pub mod sched;
pub mod state;

pub use cluster::{Cluster, ClusterBuilder, Directory, OverlayTree};
pub use config::{GcPolicy, MoaraConfig, Mode, ProbeCachePolicy};
pub use msg::{MoaraMsg, PredKey, QueryId, GLOBAL_PRED};
pub use node::{MoaraNode, QueryOutcome};
pub use sched::ProbeCache;
pub use state::{ChildInfo, ChildTable, PredState, StatusOut, Targets};

// The continuous-query subscription plane's shared types, re-exported so
// harnesses and daemons name them through the engine crate.
pub use moara_subscribe::{DeliveryPolicy, SubId, SubSpec, SubUpdate};

// Re-export the commonly combined companion crates so downstream users can
// depend on `moara-core` alone.
pub use moara_aggregation as aggregation;
pub use moara_attributes as attributes;
pub use moara_dht as dht;
pub use moara_query as query;
pub use moara_simnet as simnet;
pub use moara_subscribe as subscribe;
