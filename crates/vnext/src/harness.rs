//! The vNext test harness: configuration, the two testing scenarios of §3.4,
//! and the builder that wires the real Extent Manager to its modeled
//! environment.

use psharp::case::Case;
use psharp::prelude::*;
use psharp::timer::Timer;

use crate::en_store::EnExtentStore;
use crate::events::{EnTick, ManagerTick, NotifyReplicaAdded};
use crate::extent_manager::{ExtentManagerBugs, ExtentManagerConfig};
use crate::machines::driver::{DriverInit, TestingDriver};
use crate::machines::extent_node::ExtentNodeMachine;
use crate::machines::manager::{ExtentManagerMachine, SetDriver};
use crate::monitor::RepairMonitor;
use crate::types::{EnId, ExtentId};

/// The two testing scenarios the paper's TestingDriver drives (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Scenario 1: a single extent starts with one replica; the harness waits
    /// for the Extent Manager to replicate it to the target count.
    Replicate,
    /// Scenario 2: the extent starts fully replicated; the ENs are marked
    /// *crashable*, so under a crash budget ([`VnextConfig::fault_plan`] /
    /// `TestConfig::with_faults`) the core scheduler decides which EN fails
    /// and when; the driver launches a replacement and the harness waits for
    /// the lost replica to be repaired.
    FailAndRepair,
}

/// Configuration of the vNext harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VnextConfig {
    /// Which testing scenario to drive.
    pub scenario: Scenario,
    /// Number of Extent Nodes in the initial cluster.
    pub extent_nodes: usize,
    /// Number of extents managed by the Extent Manager.
    pub extents: usize,
    /// Desired replicas per extent.
    pub replica_target: usize,
    /// Expiration threshold of the EN expiration loop, in expiration ticks.
    pub heartbeat_expiry: u64,
    /// Seeded Extent Manager defects.
    pub bugs: ExtentManagerBugs,
}

impl Default for VnextConfig {
    fn default() -> Self {
        VnextConfig {
            scenario: Scenario::FailAndRepair,
            extent_nodes: 3,
            extents: 1,
            replica_target: 3,
            heartbeat_expiry: 2,
            bugs: ExtentManagerBugs::default(),
        }
    }
}

impl VnextConfig {
    /// The fail-and-repair scenario with the §3.6 liveness bug re-introduced.
    pub fn with_liveness_bug() -> Self {
        VnextConfig {
            bugs: ExtentManagerBugs {
                accept_sync_from_expired_en: true,
            },
            ..VnextConfig::default()
        }
    }

    /// Scenario 1 (replicate a single fresh extent) with the fixed manager.
    pub fn replicate_scenario() -> Self {
        VnextConfig {
            scenario: Scenario::Replicate,
            ..VnextConfig::default()
        }
    }

    /// The fault budget this scenario is designed around: one EN crash for
    /// the fail-and-repair scenario (the cluster repairs a single lost
    /// replica; more crashes could legitimately defeat repair), none for the
    /// replicate scenario (its single replica holder must survive).
    pub fn fault_plan(&self) -> FaultPlan {
        match self.scenario {
            Scenario::FailAndRepair => FaultPlan::new().with_crashes(1),
            Scenario::Replicate => FaultPlan::none(),
        }
    }
}

/// Ids of the machines created by [`build_harness`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VnextHarness {
    /// The wrapper around the real Extent Manager.
    pub manager: MachineId,
    /// The testing driver.
    pub driver: MachineId,
    /// The initial Extent Nodes (cluster id and machine id).
    pub extent_nodes: Vec<(EnId, MachineId)>,
    /// All modeled timer machines.
    pub timers: Vec<MachineId>,
}

/// Builds the full vNext harness into `rt` and returns the machine ids.
pub fn build_harness(rt: &mut Runtime, config: &VnextConfig) -> VnextHarness {
    rt.add_monitor(RepairMonitor::new(config.replica_target));

    let extents: Vec<ExtentId> = (0..config.extents as u64).map(ExtentId).collect();
    let manager = rt.create_machine(ExtentManagerMachine::new(
        ExtentManagerConfig {
            replica_target: config.replica_target,
            heartbeat_expiry: config.heartbeat_expiry,
            bugs: config.bugs,
        },
        extents.clone(),
    ));
    let driver = rt.create_machine(TestingDriver::new(manager));
    // Replicable wiring events: they must not block the post-setup snapshot
    // that prefix-sharing runs fork from (neither target is lossy, so fault
    // injection can never duplicate them).
    rt.send(manager, Event::replicable(SetDriver(driver)));
    // In the fail-and-repair scenario the initial ENs are crash candidates:
    // the core scheduler decides which one fails (and when) within the
    // test's fault budget, replacing the driver's old bespoke injection.
    let crashable_ens = config.scenario == Scenario::FailAndRepair;

    let mut extent_nodes = Vec::with_capacity(config.extent_nodes);
    let mut timers = Vec::new();
    for index in 0..config.extent_nodes {
        let en_id = EnId(index as u64);
        let store = match config.scenario {
            // Scenario 1: only the first EN starts with the extents.
            Scenario::Replicate if index == 0 => EnExtentStore::with_extents(extents.clone()),
            Scenario::Replicate => EnExtentStore::new(),
            // Scenario 2: every initial EN holds every extent.
            Scenario::FailAndRepair => EnExtentStore::with_extents(extents.clone()),
        };
        // Tell the liveness monitor about the initial, real placement.
        for &extent in extents.iter().filter(|&&e| store.contains(e)) {
            rt.notify_monitor::<RepairMonitor>(Event::new(NotifyReplicaAdded {
                en: en_id,
                extent,
            }));
        }
        let en = rt
            .create_machine(ExtentNodeMachine::new(en_id, manager, store).with_supervisor(driver));
        if crashable_ens {
            rt.mark_crashable(en);
        }
        timers.push(rt.create_machine(Timer::with_event(en, || Event::new(EnTick))));
        extent_nodes.push((en_id, en));
    }

    rt.send(
        driver,
        Event::replicable(DriverInit {
            ens: extent_nodes.clone(),
        }),
    );
    timers.push(rt.create_machine(Timer::with_event(manager, || Event::new(ManagerTick))));

    VnextHarness {
        manager,
        driver,
        extent_nodes,
        timers,
    }
}

/// The registered seeded bugs of this case study (case study 1): the §3.6
/// `ExtentNodeLivenessViolation`, which needs its EN-crash budget.
pub fn bugs() -> Vec<Case> {
    let config = VnextConfig::with_liveness_bug();
    let plan = config.fault_plan();
    vec![case("ExtentNodeLivenessViolation", 3_000, plan, config)]
}

/// The fixed Extent Manager in the fail-and-repair scenario, with
/// [`VnextConfig::fault_plan`] as its designed fault budget.
pub fn fixed() -> Case {
    let config = VnextConfig::default();
    let plan = config.fault_plan();
    case("vNext extent manager (fixed)", 3_000, plan, config)
}

/// A registered case: [`build_harness`] over `config`, run under
/// `max_steps` and `faults`.
fn case(name: &'static str, max_steps: usize, faults: FaultPlan, config: VnextConfig) -> Case {
    Case {
        case_study: 1,
        name,
        max_steps,
        faults,
        build: Box::new(move |rt| {
            build_harness(rt, &config);
        }),
    }
}

/// Model statistics of this harness, for the Table 1 reproduction.
pub fn model_stats() -> ModelStats {
    let config = VnextConfig::default();
    // Wrapper + driver + ENs + one timer per EN + manager timer (failure
    // injection moved into the core runtime — no driver tick machinery).
    let machines = 2 + 2 * config.extent_nodes + 1;
    // Action handlers: wrapper {SetDriver, EnToManager, ManagerTick}, EN
    // {tick, RepairRequest, CopyRequest, CopyResponse, on_crash}, driver
    // {Init, ManagerToEn, EnCrashed}, timer {loop}, monitor
    // {ReplicaAdded, EnFailed}.
    let action_handlers = 3 + 5 + 3 + 1 + 2;
    // State transitions: monitor repaired<->repairing, EN live->crashed,
    // driver replacement launch, manager loop choice (expire|repair).
    let state_transitions = 2 + 1 + 1 + 2;
    ModelStats::new("vNext Extent Manager")
        .with_bugs(1)
        .with_model(machines, state_transitions, action_handlers)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut rt = new_runtime(1, 100);
        let harness = build_harness(&mut rt, &VnextConfig::default());
        assert_eq!(harness.extent_nodes.len(), 3);
        assert_eq!(harness.timers.len(), 4);
        assert_eq!(rt.machine_count(), 9);
    }

    #[test]
    fn monitor_starts_cold_in_fail_and_repair_scenario() {
        let mut rt = new_runtime(1, 100);
        build_harness(&mut rt, &VnextConfig::default());
        let monitor = rt.monitor_ref::<RepairMonitor>().expect("registered");
        assert_eq!(monitor.replica_count(ExtentId(0)), 3);
    }

    #[test]
    fn monitor_starts_hot_in_replicate_scenario() {
        let mut rt = new_runtime(1, 100);
        build_harness(&mut rt, &VnextConfig::replicate_scenario());
        let monitor = rt.monitor_ref::<RepairMonitor>().expect("registered");
        assert_eq!(monitor.replica_count(ExtentId(0)), 1);
    }

    #[test]
    fn fixed_manager_repairs_after_injected_crash() {
        // The fixed system must not violate the liveness property even when
        // the scheduler crashes an EN: the driver launches a replacement and
        // the manager repairs the lost replica before the bound.
        let config = VnextConfig::default();
        let mut crashes_observed = 0;
        for seed in 0..10 {
            let mut rt = Runtime::new(
                Box::new(RandomScheduler::new(seed)),
                RuntimeConfig {
                    max_steps: 4_000,
                    faults: config.fault_plan(),
                    ..RuntimeConfig::default()
                },
                seed,
            );
            build_harness(&mut rt, &config);
            let outcome = rt.run();
            assert!(
                !matches!(outcome, ExecutionOutcome::BugFound(_)),
                "fixed vNext flagged a bug with seed {seed}: {outcome:?}"
            );
            crashes_observed += rt.trace().fault_decision_count();
        }
        assert!(
            crashes_observed > 0,
            "at least one seed must actually crash an EN"
        );
    }

    #[test]
    fn fixed_manager_completes_replication_scenario() {
        for seed in 0..10 {
            let mut rt = new_runtime(seed, 4_000);
            build_harness(&mut rt, &VnextConfig::replicate_scenario());
            let outcome = rt.run();
            assert!(
                !matches!(outcome, ExecutionOutcome::BugFound(_)),
                "replication scenario flagged a bug with seed {seed}: {outcome:?}"
            );
        }
    }

    #[test]
    fn seeded_liveness_bug_is_found_by_the_engine() {
        let config = VnextConfig::with_liveness_bug();
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(500)
                .with_max_steps(3_000)
                .with_seed(3)
                .with_faults(config.fault_plan()),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        let bug = report.bug.expect("the ExtentNodeLivenessViolation bug");
        assert_eq!(bug.bug.kind, BugKind::LivenessViolation);
        assert_eq!(bug.bug.source.as_deref(), Some("RepairMonitor"));
    }

    #[test]
    fn model_stats_report_the_harness_size() {
        let stats = model_stats();
        assert_eq!(stats.machines, 9);
        assert_eq!(stats.bugs_found, 1);
        assert!(stats.action_handlers >= 14);
    }
}
