//! # megakv — a mega-scale sharded key-value case study
//!
//! The fifth case study of this reproduction: a sharded key-value front-end
//! sized like the paper's production targets — one router, N shards (each a
//! primary and optionally a backup), and thousands of machines in total —
//! driven by simulated client request floods over a small hot-key set, with
//! shard splits, rebalancing storms and cascading retry floods.
//!
//! The crate exists for two reasons:
//!
//! 1. **Exercising the O(active) scheduling core.** Almost all of the
//!    keyspace is cold: thousands of shard replicas never receive a message
//!    after startup. With the incrementally maintained enabled index and
//!    lazy mailboxes, per-step cost is a function of the handful of *active*
//!    machines, so a 10⁴-machine harness explores schedules at nearly the
//!    same rate as a 10²-machine one (see the `megakv` benchmark group).
//! 2. **Bugs reachable only at scale.** The seeded router bug
//!    ([`router::Router`]) keys its retry fast path on an 8-bit shard hint:
//!    with ≤256 shards the hint is exact and the bug is structurally
//!    unreachable; at 257+ shards two shards alias and a retried request is
//!    forwarded to a primary that does not own its key.
//!
//! Four bugs are seeded behind [`MegaKvConfig`] switches:
//!
//! * **shard aliasing** (safety, scale-gated) — the truncated retry-cache
//!   hint above;
//! * **split forgotten primary** (liveness) — after a shard split the
//!   controller points the new range at the *old*, already-shrunk primary,
//!   which NACKs every request for it; the client retries forever;
//! * **rebalance lost write** (safety) — during a handover the old primary
//!   keeps acknowledging writes after sending its range snapshot; the
//!   in-window writes never reach the new primary;
//! * **promotion lost write** (safety, fault-induced) — the primary
//!   acknowledges before replicating, batching the replication; a crash
//!   (`--faults crash=1`) loses the batch and the promoted backup serves
//!   reads that miss acknowledged writes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod controller;
pub mod events;
pub mod harness;
pub mod monitors;
pub mod replica;
pub mod router;

pub use harness::{build_harness, model_stats, MegaKvBugs, MegaKvConfig};

/// Width of every initial shard's key range: shard `s` owns
/// `[s * SHARD_WIDTH, (s + 1) * SHARD_WIDTH)`.
pub const SHARD_WIDTH: u64 = 1024;
