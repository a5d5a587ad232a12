//! `rupam-serve` — the RUPAM scheduler run as a **live async service**.
//!
//! The sim engine proves the scheduler's decisions are good; this crate
//! proves the same engine logic survives contact with real concurrency.
//! It hosts the scheduling loop on a [`WallClockSource`] instead of a
//! [`Calendar`]: worker agents are threads that register, heartbeat and
//! report completions over an in-process RPC protocol ([`proto`]), and a
//! client API submits stream jobs while the service runs.
//!
//! The central design bet is the **replay oracle**: the live driver
//! logs every external input with the timestamp it was sequenced at,
//! and [`replay()`] re-runs the identical driver over a deterministic
//! [`Calendar`] pre-loaded with that log. Because the driver's state
//! transitions depend only on the popped event order — and the two
//! sources guarantee the same order for the same log — the decision
//! trace digests must match byte for byte. A digest mismatch means the
//! driver snuck in a dependency on real time or thread interleaving,
//! which is exactly the class of bug live schedulers are hardest to
//! test for.
//!
//! [`WallClockSource`]: rupam_simcore::source::WallClockSource
//! [`Calendar`]: rupam_simcore::Calendar

#![warn(missing_docs)]

pub mod agent;
pub mod driver;
pub mod error;
pub mod estimate;
pub mod proto;
pub mod replay;
pub mod server;
pub mod testbed;

pub use driver::{ServeConfig, ServeReport};
pub use error::ServeError;
pub use proto::{ClientRequest, ServeEvent, TaskFailure, WorkerCommand, WorkerMsg, WorkerReport};
pub use replay::replay;
pub use server::{ClientHandle, ServeOutcome, ServerHandle};
