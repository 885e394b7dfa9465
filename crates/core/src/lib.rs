//! # psharp — systematic testing of distributed systems
//!
//! This crate is a Rust reproduction of the testing methodology described in
//! *"Uncovering Bugs in Distributed Storage Systems during Testing (not in
//! Production!)"* (FAST 2016). It provides the building blocks the paper
//! calls P#:
//!
//! * **Machines** ([`machine::Machine`], [`machine::StateMachine`]) — actors
//!   with a private mailbox that model the components of a distributed
//!   system, including the real component under test wrapped in a thin
//!   machine, and models of its environment (other nodes, timers, clients,
//!   the network).
//! * **Controlled nondeterminism** — every schedule decision and every
//!   `random_*` choice goes through a [`scheduler::Scheduler`], so the
//!   [`engine::TestEngine`] can systematically explore interleavings of
//!   message deliveries, client requests, failures and timeouts.
//! * **Specifications** — [`monitor::Monitor`]s express safety properties
//!   (assertions over a history of observed events) and liveness properties
//!   (hot/cold states that must eventually cool down).
//! * **Replayable traces** — a violation is witnessed by a [`trace::Trace`]
//!   that deterministically reproduces the buggy execution.
//!
//! # Quickstart
//!
//! ```
//! use psharp::prelude::*;
//!
//! // Events.
//! #[derive(Debug)]
//! struct Req;
//! #[derive(Debug)]
//! struct Ack;
//!
//! // A server that loses an acknowledgement under one interleaving.
//! struct Server;
//! impl Machine for Server {
//!     fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
//!         if event.is::<Req>() {
//!             // A controlled nondeterministic choice models e.g. message loss.
//!             if ctx.random_bool() {
//!                 ctx.notify_monitor::<GotAck>(Event::new(Ack));
//!             }
//!         }
//!     }
//! }
//!
//! struct Client {
//!     server: MachineId,
//! }
//! impl Machine for Client {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         ctx.notify_monitor::<GotAck>(Event::new(Req));
//!         ctx.send(self.server, Event::new(Req));
//!     }
//!     fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
//! }
//!
//! // Liveness spec: every request is eventually acknowledged.
//! #[derive(Default)]
//! struct GotAck {
//!     waiting: bool,
//! }
//! impl Monitor for GotAck {
//!     fn observe(&mut self, _ctx: &mut MonitorContext<'_>, event: &Event) {
//!         if event.is::<Req>() {
//!             self.waiting = true;
//!         } else if event.is::<Ack>() {
//!             self.waiting = false;
//!         }
//!     }
//!     fn temperature(&self) -> Temperature {
//!         if self.waiting { Temperature::Hot } else { Temperature::Cold }
//!     }
//! }
//!
//! let engine = TestEngine::new(TestConfig::new().with_iterations(100));
//! let report = engine.run(|rt| {
//!     rt.add_monitor(GotAck::default());
//!     let server = rt.create_machine(Server);
//!     rt.create_machine(Client { server });
//! });
//! assert!(report.found_bug(), "the lost-ack interleaving is always reachable");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enabled;
pub mod engine;
pub mod error;
pub mod event;
pub mod fault;
pub mod json;
pub mod machine;
pub mod mailbox;
pub mod monitor;
pub mod rng;
pub mod runtime;
pub mod scheduler;
pub mod shrink;
pub mod stats;
pub mod timer;
pub mod trace;

/// Convenience re-exports of the types needed by almost every harness.
pub mod prelude {
    pub use crate::engine::{BugReport, ParallelTestEngine, TestConfig, TestEngine, TestReport};
    pub use crate::error::{Bug, BugKind};
    pub use crate::event::Event;
    pub use crate::fault::{Fault, FaultPlan};
    pub use crate::machine::{Machine, MachineId, StateMachine, StateMachineRunner, Transition};
    pub use crate::monitor::{Monitor, MonitorContext, Temperature};
    pub use crate::runtime::{
        CancelToken, Context, ExecutionOutcome, Runtime, RuntimeConfig, RuntimeSnapshot,
    };
    pub use crate::scheduler::{SchedulerKind, StepFootprint};
    pub use crate::shrink::{shrink_trace, ShrinkConfig, ShrinkReport, ShrinkReturned};
    pub use crate::stats::{ModelStats, StrategyStats};
    pub use crate::timer::{Timer, TimerTick};
    pub use crate::trace::{Decision, NameId, NameTable, Trace, TraceMode};
}
