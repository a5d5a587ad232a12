//! # rupam-cluster
//!
//! Heterogeneous cluster model for the RUPAM reproduction:
//!
//! * [`resources`] — the five resource dimensions RUPAM schedules over
//!   (CPU, memory, I/O, network, GPU; paper Fig. 4).
//! * [`node`] — per-node hardware specifications (paper Table I, left /
//!   Table II) and capability queries.
//! * [`topology`] — cluster assembly, rack topology, and the two concrete
//!   clusters the paper evaluates on: the 12-node *Hydra* cluster
//!   (Table II) and the 2-node motivation setup (§II-B).
//! * [`monitor`] — the Resource Monitor (RM): per-node utilisation
//!   accounting with heartbeat snapshots (the paper piggy-backs metrics on
//!   Spark's worker heartbeats).
//! * [`microbench`] — SysBench-/Iperf-shaped hardware microbenchmark
//!   models that regenerate paper Table IV from node specs.

#![warn(missing_docs)]

pub mod microbench;
pub mod monitor;
pub mod node;
pub mod resources;
pub mod topology;

pub use monitor::{HeartbeatSnapshot, NodeMetrics, ResourceMonitor};
pub use node::{DiskSpec, NodeId, NodeSpec, NodeTier};
pub use resources::ResourceKind;
pub use topology::ClusterSpec;
