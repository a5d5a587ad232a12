//! # rupam-exec
//!
//! The execution substrate: a deterministic discrete-event simulator of a
//! Spark-like cluster engine, plus the pluggable [`scheduler::Scheduler`]
//! trait both the baseline Spark scheduler and RUPAM implement.
//!
//! * [`config`] — all tunables of the simulation (heartbeat cadence,
//!   speculation policy, cost model, memory/OOM model).
//! * [`costmodel`] — translates a task's demand vector into a sequence of
//!   resource *phases* (network fetch, disk read, serialisation, compute
//!   or GPU kernels, GC, shuffle write, driver output).
//! * [`cache`] — per-executor LRU partition cache (Spark storage memory).
//! * [`scheduler`] — the offer-based scheduler interface and the
//!   read-only views schedulers decide from.
//! * [`offer_state`] — the persistent node views and pending list both
//!   hosts (sim engine, serve driver) build offer inputs from, kept
//!   current by dirty marks instead of a per-round rebuild.
//! * [`shuffle`] — the map-output ledger: where shuffle outputs live,
//!   the reducer-preference rule, and the lineage-recompute walk.
//! * [`speculation`] — Spark's speculative-execution policy (quantile +
//!   multiplier) shared by all schedulers.
//! * [`engine`] — the simulation driver, structured as a staged event
//!   bus: a core loop owning the authoritative cluster state, subsystem
//!   modules for lifecycle/heartbeat/recovery/speculation/caching, and
//!   typed [`engine::EngineEvent`]s through which trace emission, fault
//!   statistics, auditing and caller-supplied [`engine::Subscriber`]s
//!   observe the run. Produces a [`rupam_metrics::RunReport`].
//! * [`testutil`] — deliberately naive scheduler fixtures shared by
//!   unit tests, integration tests and benches, and the reference
//!   `pending_fresh` rule.
//! * [`audit`] — the post-round invariant auditor: re-checks every
//!   command batch against the snapshot it came from (memory
//!   feasibility, double launches, overcommit caps, scheduler-declared
//!   invariants).

#![warn(missing_docs)]

pub mod audit;
pub mod cache;
pub mod config;
pub mod costmodel;
pub mod engine;
pub mod offer_state;
pub mod scheduler;
pub mod shuffle;
pub mod speculation;
pub mod testutil;

pub use audit::{AuditConfig, InvariantAuditor, Violation};
pub use config::SimConfig;
pub use engine::{
    simulate, simulate_observed, simulate_observed_with, simulate_stream, simulate_stream_observed,
    simulate_stream_observed_with, BusStage, EngineError, EngineEvent, EventBus, EventCtx,
    SimInput, SimObservation, SimOptions, StreamInput, Subscriber,
};
pub use rupam_metrics::trace::LaunchReason;
pub use scheduler::{Command, KillReason, NodeView, OfferInput, PendingTaskView, Scheduler};
