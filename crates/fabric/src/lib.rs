//! Azure Service Fabric (§5 of the paper), rebuilt as a P#-style model.
//!
//! Fabric makes a user service reliable by running several *replicas* of it:
//! one **primary** serves client requests and forwards state-mutating
//! operations to the **active secondaries**; if the primary fails, one of the
//! secondaries is elected primary and a fresh **idle secondary** is launched,
//! which must receive a copy of the state before being promoted to an active
//! secondary.
//!
//! The paper's bug: when the primary fails exactly while a new secondary is
//! waiting for its state copy, the secondary can be elected primary and then
//! also "promoted" to an active secondary even though it never caught up —
//! an assertion in the model (only a caught-up idle secondary may be
//! promoted). The defect is re-introduced with
//! [`cluster::FabricBugs::promote_pending_copy_on_failover`].
//!
//! On top of the model run two user services: a counter service and a small
//! CScale-like two-stage stream pipeline whose second stage dereferences an
//! uninitialized configuration when
//! [`cluster::FabricBugs::uninitialized_pipeline_config`] is set (the
//! `NullReferenceException`-style bug reported in §5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod harness;
pub mod pipeline;
pub mod service;

pub use cluster::FabricBugs;
pub use harness::{build_harness, model_stats, FabricConfig, FabricHarness, FabricScenario};
