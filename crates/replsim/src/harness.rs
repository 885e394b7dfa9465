//! The P# test harness for the replication example (Figure 2 of the paper).
//!
//! The harness wires together the real server (the system-under-test), the
//! modeled client, the modeled storage nodes, one modeled timer per storage
//! node, and the safety and liveness monitors.

use psharp::prelude::*;
use psharp::timer::Timer;

use crate::client::Client;
use crate::events::Timeout;
use crate::monitors::{AckLivenessMonitor, ReplicaSafetyMonitor};
use crate::server::{Server, ServerBugs, ServerInit};
use crate::storage_node::StorageNode;

/// Re-export of the bug flags under the name used by the experiment index.
pub type ReplBugs = ServerBugs;

/// Configuration of the replication-example harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplConfig {
    /// Number of storage nodes (the paper uses 3).
    pub storage_nodes: usize,
    /// Replica target after which the server acknowledges (the paper uses 3).
    pub replica_target: usize,
    /// Number of client requests issued by the modeled client.
    pub client_requests: usize,
    /// Upper bound on ticks per modeled timer; `None` keeps timers running
    /// forever so executions only end at the step bound (needed for liveness
    /// checking).
    pub timer_max_ticks: Option<usize>,
    /// Seeded bugs in the server.
    pub bugs: ReplBugs,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig {
            storage_nodes: 3,
            replica_target: 3,
            client_requests: 2,
            // Unbounded timers keep the system from quiescing, so liveness is
            // always judged against the step bound, as in the paper.
            timer_max_ticks: None,
            bugs: ReplBugs::default(),
        }
    }
}

impl ReplConfig {
    /// Configuration with the first (safety) bug re-introduced.
    pub fn with_duplicate_counting_bug() -> Self {
        ReplConfig {
            bugs: ReplBugs {
                count_duplicate_replicas: true,
                ..ReplBugs::default()
            },
            ..ReplConfig::default()
        }
    }

    /// Configuration with the second (liveness) bug re-introduced.
    pub fn with_missing_reset_bug() -> Self {
        ReplConfig {
            bugs: ReplBugs {
                count_duplicate_replicas: false,
                no_counter_reset: true,
                ..ReplBugs::default()
            },
            ..ReplConfig::default()
        }
    }

    /// Configuration with the third, *fault-induced* bug re-introduced: the
    /// server never retransmits to lagging storage nodes, so a single
    /// dropped `ReplReq` on the lossy storage-node channel
    /// (`--faults drop=1`) leaves a request unacknowledged forever. Run it
    /// with [`ReplConfig::fault_plan`]; without message loss the bug is
    /// unreachable.
    pub fn with_lost_replication_bug() -> Self {
        ReplConfig {
            bugs: ReplBugs {
                no_retransmit_on_lag: true,
                ..ReplBugs::default()
            },
            ..ReplConfig::default()
        }
    }

    /// The fault budget this harness is designed around: the storage-node
    /// channels are lossy, and the fixed server tolerates any bounded amount
    /// of loss and duplication through timer-driven resync — two drops and
    /// one duplication give the scheduler room without drowning the run in
    /// faults.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::new().with_drops(2).with_duplicates(1)
    }
}

/// Ids of the machines created by [`build_harness`], for tests that want to
/// inspect machine state after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplHarness {
    /// The server (system-under-test).
    pub server: MachineId,
    /// The modeled client.
    pub client: MachineId,
    /// The modeled storage nodes.
    pub storage_nodes: Vec<MachineId>,
    /// The modeled timers, one per storage node.
    pub timers: Vec<MachineId>,
}

/// Builds the full test harness into `rt` and returns the machine ids.
pub fn build_harness(rt: &mut Runtime, config: &ReplConfig) -> ReplHarness {
    rt.add_monitor(ReplicaSafetyMonitor::new(config.replica_target));
    rt.add_monitor(AckLivenessMonitor::new());

    let server = rt.create_machine(Server::new(config.replica_target, config.bugs));
    let client = rt.create_machine(Client::new(server, config.client_requests));

    let mut storage_nodes = Vec::with_capacity(config.storage_nodes);
    let mut timers = Vec::with_capacity(config.storage_nodes);
    for _ in 0..config.storage_nodes {
        let node = rt.create_machine(StorageNode::new(server));
        // The network into a storage node is lossy: under a fault budget the
        // scheduler may drop queued messages and duplicate replicable ones
        // (the server sends `ReplReq` via `Event::replicable`). The fixed
        // server recovers through timer-driven resync and retransmission.
        rt.mark_lossy(node);
        let mut timer = Timer::with_event(node, || Event::new(Timeout));
        if let Some(max_ticks) = config.timer_max_ticks {
            timer = timer.with_max_ticks(max_ticks);
        }
        let timer = rt.create_machine(timer);
        storage_nodes.push(node);
        timers.push(timer);
    }

    // Replicable: the wiring event must not block the post-setup snapshot
    // that prefix-sharing runs fork from (the server is not lossy, so fault
    // injection can never duplicate it).
    rt.send(
        server,
        Event::replicable(ServerInit {
            client,
            nodes: storage_nodes.clone(),
        }),
    );

    ReplHarness {
        server,
        client,
        storage_nodes,
        timers,
    }
}

/// Model statistics of this harness, for the Table 1 reproduction.
///
/// Machines: server wrapper, client, 3 storage nodes, 3 timers = 8 (with the
/// default configuration). State transitions and action handlers are counted
/// over the machine implementations of this crate.
pub fn model_stats() -> ModelStats {
    let config = ReplConfig::default();
    let machines = 2 + 2 * config.storage_nodes;
    // Handlers: Server {ServerInit, ClientReq, Sync}, StorageNode {ReplReq,
    // Timeout}, Client {start, Ack}, Timer {loop}; monitors: safety {3},
    // liveness {2}.
    let action_handlers = 3 + 2 + 2 + 1 + 3 + 2;
    // Logical state transitions: client awaiting<->idle, liveness hot<->cold,
    // safety per-request reset, server counting->acked.
    let state_transitions = 2 + 2 + 1 + 1;
    ModelStats::new("Example replication system (SS2)")
        .with_bugs(2)
        .with_model(machines, state_transitions, action_handlers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use psharp::runtime::{Runtime, RuntimeConfig};
    use psharp::scheduler::RandomScheduler;

    fn new_runtime(seed: u64, max_steps: usize) -> Runtime {
        Runtime::new(
            Box::new(RandomScheduler::new(seed)),
            RuntimeConfig {
                max_steps,
                ..RuntimeConfig::default()
            },
            seed,
        )
    }

    #[test]
    fn harness_creates_expected_machines() {
        let mut rt = new_runtime(1, 2_000);
        let harness = build_harness(&mut rt, &ReplConfig::default());
        assert_eq!(harness.storage_nodes.len(), 3);
        assert_eq!(harness.timers.len(), 3);
        assert_eq!(rt.machine_count(), 8);
    }

    #[test]
    fn correct_system_completes_some_executions_without_bug() {
        // A single execution of the fixed system must never flag a violation.
        for seed in 0..20 {
            let mut rt = new_runtime(seed, 4_000);
            build_harness(&mut rt, &ReplConfig::default());
            let outcome = rt.run();
            assert!(
                !matches!(outcome, ExecutionOutcome::BugFound(_)),
                "fixed system flagged a bug with seed {seed}: {outcome:?}"
            );
        }
    }

    #[test]
    fn duplicate_counting_bug_is_found_by_the_engine() {
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(2_000)
                .with_max_steps(2_000)
                .with_seed(7),
        );
        let config = ReplConfig::with_duplicate_counting_bug();
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        let bug = report.bug.expect("safety bug should be found");
        assert_eq!(bug.bug.kind, BugKind::SafetyViolation);
        assert_eq!(bug.bug.source.as_deref(), Some("ReplicaSafetyMonitor"));
    }

    #[test]
    fn fixed_system_stays_clean_on_a_lossy_network() {
        // The fixed server tolerates dropped and duplicated replication
        // requests: timer-driven resync retransmits until every node caught
        // up, so no liveness (or safety) verdict may fire under the fault
        // budget.
        let config = ReplConfig::default();
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(300)
                .with_max_steps(2_500)
                .with_seed(5)
                .with_faults(config.fault_plan()),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        assert!(
            !report.found_bug(),
            "fixed replsim flagged a bug under message loss: {:?}",
            report.bug.map(|b| b.bug)
        );
    }

    #[test]
    fn lost_replication_bug_is_found_via_injected_message_loss() {
        let config = ReplConfig::with_lost_replication_bug();
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(600)
                .with_max_steps(2_500)
                .with_seed(21)
                .with_faults(config.fault_plan()),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        let bug = report.bug.expect("lost-replication bug should be found");
        assert_eq!(bug.bug.kind, BugKind::LivenessViolation);
        assert_eq!(bug.bug.source.as_deref(), Some("AckLivenessMonitor"));
        assert!(
            bug.trace.fault_decision_count() >= 1,
            "the bug needs an injected drop in its decision stream"
        );
    }

    #[test]
    fn lost_replication_bug_is_unreachable_without_message_loss() {
        // On a reliable network the missing retransmission is dead code:
        // every node receives the original request.
        let config = ReplConfig::with_lost_replication_bug();
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(300)
                .with_max_steps(2_500)
                .with_seed(21),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        assert!(!report.found_bug());
    }

    #[test]
    fn missing_reset_bug_is_found_as_liveness_violation() {
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(200)
                .with_max_steps(3_000)
                .with_seed(11),
        );
        let config = ReplConfig::with_missing_reset_bug();
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        let bug = report.bug.expect("liveness bug should be found");
        assert_eq!(bug.bug.kind, BugKind::LivenessViolation);
        assert_eq!(bug.bug.source.as_deref(), Some("AckLivenessMonitor"));
    }

    #[test]
    fn client_eventually_gets_all_acks_in_fixed_system() {
        let mut found_complete = false;
        for seed in 0..30 {
            let mut rt = new_runtime(seed, 5_000);
            let harness = build_harness(
                &mut rt,
                &ReplConfig {
                    client_requests: 1,
                    ..ReplConfig::default()
                },
            );
            let outcome = rt.run();
            assert!(
                !matches!(outcome, ExecutionOutcome::BugFound(_)),
                "unexpected violation: {outcome:?}"
            );
            let server = rt
                .machine_ref::<Server>(harness.server)
                .expect("server exists");
            // Periodic sync reports keep re-certifying replicas after the
            // acknowledgement, so the server may ack the same (single)
            // request more than once; completion means at least one ack.
            if server.acks_sent() >= 1 {
                found_complete = true;
                break;
            }
        }
        assert!(
            found_complete,
            "at least one schedule should complete the replication"
        );
    }

    #[test]
    fn model_stats_report_the_harness_size() {
        let stats = model_stats();
        assert_eq!(stats.machines, 8);
        assert_eq!(stats.bugs_found, 2);
        assert!(stats.action_handlers > 0);
    }
}
