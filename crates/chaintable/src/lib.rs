//! Live Table Migration (§4 of the paper), rebuilt in Rust.
//!
//! *MigratingTable* transparently migrates a key-value data set between two
//! Azure-table-like backend tables (the *old* and the *new* table) while an
//! application keeps accessing the data through a chain-table interface. A
//! background migrator job moves the data; every logical read and write is
//! implemented by a sequence of backend operations chosen by a custom
//! protocol that must preserve the chain-table specification — as if all the
//! operations were performed on a single virtual table.
//!
//! The crate contains:
//!
//! * [`table`] — the chain-table specification (`IChainTable` in the paper)
//!   and the in-memory reference implementation used for both backends. A
//!   row is an immutable value that is shared, not copied: its key and its
//!   property bag are reference counted, so storing, querying, recording or
//!   sending a row costs reference-count increments, and a `Merge` copies
//!   the bag on write;
//! * [`migrate`] — the migration protocol: phases, write translation, read
//!   merging, tombstones, the migrator's primitives, and the eleven
//!   re-introducible defects of Table 2 ([`migrate::ChainBugs`]);
//! * [`spec`] — the reference model and comparison rules the safety monitor
//!   uses to check spec compliance;
//! * [`machines`] and [`harness`] — the P#-style test environment: a Tables
//!   machine serializing the backends, Service machines issuing controlled
//!   random workloads, the Migrator machine, and the [`machines::SpecMonitor`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod machines;
pub mod migrate;
pub mod spec;
pub mod table;

pub use harness::{bugs, build_harness, fixed, model_stats, named_bugs, ChainConfig, ChainHarness};
pub use migrate::{ChainBugs, Phase};
