//! The running example of §2 of the paper: a simple distributed storage
//! system that replicates data sent by a client.
//!
//! The system consists of a client, a server and a configurable number of
//! storage nodes (SNs). The client sends the server a [`events::ClientReq`]
//! with data to replicate and waits for an acknowledgement. The server
//! broadcasts [`events::ReplReq`] to all SNs. Each SN has a timer; on a
//! timeout it sends a [`events::Sync`] with its storage log to the server,
//! which checks whether the SN is up to date and counts replicas. When the
//! replica target is reached the server acknowledges the client.
//!
//! Two bugs from the paper can be re-introduced via [`ReplBugs`]:
//!
//! * **duplicate replica counting** (safety): the server counts every
//!   up-to-date sync, even from an SN that is already counted, so an `Ack`
//!   can be issued when fewer than three distinct replicas exist;
//! * **missing counter reset** (liveness): the server never resets its
//!   replica counter after acknowledging, so the *next* client request is
//!   never acknowledged and the client blocks forever.
//!
//! The harness ([`harness::build_harness`]) wires the system to a
//! [`monitors::ReplicaSafetyMonitor`] and a [`monitors::AckLivenessMonitor`],
//! exactly mirroring Figure 2 of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod events;
pub mod harness;
pub mod monitors;
pub mod server;
pub mod storage_node;

pub use harness::{bugs, build_harness, fixed, model_stats, ReplBugs, ReplConfig};
