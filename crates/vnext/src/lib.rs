//! Azure Storage vNext extent management (§3 of the paper), rebuilt in Rust.
//!
//! vNext stores data in *extents*, replicated over multiple *Extent Nodes*
//! (ENs). Extents are partitioned across lightweight *Extent Managers*
//! (ExtMgrs). An ExtMgr learns about EN health from periodic heartbeats and
//! about extent placement from periodic sync reports; an internal expiration
//! loop removes ENs that stopped sending heartbeats, and an internal repair
//! loop schedules re-replication of extents that lost replicas.
//!
//! The crate is split the same way the paper splits the case study:
//!
//! * "real" vNext code — [`extent_manager::ExtentManager`] and its data
//!   structures ([`extent_center::ExtentCenter`],
//!   [`extent_center::ExtentNodeMap`], [`en_store::EnExtentStore`]) plus the
//!   [`extent_manager::NetworkEngine`] interface;
//! * the P# test harness — the wrapper machine, modeled ENs, modeled timers,
//!   the testing driver that injects nondeterministic failures, and the
//!   [`monitor::RepairMonitor`] liveness specification ([`harness`]).
//!
//! The seeded bug from §3.6 — an ExtMgr that accepts a sync report from an
//! EN it already expired, silently "resurrecting" lost replicas so the repair
//! loop never runs — is re-introduced with
//! [`extent_manager::ExtentManagerBugs::accept_sync_from_expired_en`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod en_store;
pub mod events;
pub mod extent_center;
pub mod extent_manager;
pub mod harness;
pub mod machines;
pub mod monitor;
pub mod types;

pub use harness::{build_harness, model_stats, Scenario, VnextConfig, VnextHarness};
