//! The Fabric test harness: scenarios, configuration and the builder.

use psharp::case::Case;
use psharp::prelude::*;

use crate::cluster::{ClusterManagerMachine, ConsistencyMonitor, FabricBugs, FabricClient};
use crate::pipeline::{Configurator, PipelineDriver, StageOne, StageTwo};

/// Which Fabric scenario to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricScenario {
    /// A replicated counter service whose replicas are *crashable*: run it
    /// with a crash budget ([`FabricConfig::fault_plan`] /
    /// `TestConfig::with_faults`) and the scheduler explores which replica
    /// fails and when — the scenario that exposes the promotion-during-copy
    /// bug.
    Failover,
    /// The CScale-like two-stage stream pipeline running on the model.
    Pipeline,
}

/// Configuration of the Fabric harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// The scenario to drive.
    pub scenario: FabricScenario,
    /// Number of active secondaries in the replica set.
    pub secondaries: usize,
    /// Number of client requests (failover scenario) or raw records
    /// (pipeline scenario).
    pub requests: usize,
    /// Seeded defects.
    pub bugs: FabricBugs,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            scenario: FabricScenario::Failover,
            secondaries: 2,
            requests: 3,
            bugs: FabricBugs::default(),
        }
    }
}

impl FabricConfig {
    /// The failover scenario with the §5 promotion bug re-introduced.
    pub fn with_promotion_bug() -> Self {
        FabricConfig {
            bugs: FabricBugs {
                promote_pending_copy_on_failover: true,
                uninitialized_pipeline_config: false,
            },
            ..FabricConfig::default()
        }
    }

    /// The pipeline scenario with the CScale-style defect re-introduced.
    pub fn with_pipeline_bug() -> Self {
        FabricConfig {
            scenario: FabricScenario::Pipeline,
            bugs: FabricBugs {
                promote_pending_copy_on_failover: false,
                uninitialized_pipeline_config: true,
            },
            ..FabricConfig::default()
        }
    }

    /// The fault budget this scenario is designed around: one replica crash
    /// for the failover scenario (the cluster tolerates a single failure —
    /// more would legitimately break it), none for the pipeline scenario.
    pub fn fault_plan(&self) -> FaultPlan {
        match self.scenario {
            FabricScenario::Failover => FaultPlan::new().with_crashes(1),
            FabricScenario::Pipeline => FaultPlan::none(),
        }
    }
}

/// Ids of the machines created by [`build_harness`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricHarness {
    /// The cluster manager (failover scenario) if created.
    pub manager: Option<MachineId>,
    /// The second pipeline stage (pipeline scenario) if created.
    pub stage_two: Option<MachineId>,
}

/// Builds the configured Fabric scenario into `rt`.
pub fn build_harness(rt: &mut Runtime, config: &FabricConfig) -> FabricHarness {
    match config.scenario {
        FabricScenario::Failover => {
            rt.add_monitor(ConsistencyMonitor::new());
            // Replica failures are injected by the core scheduler: the
            // manager marks every replica it creates as crashable, and a
            // crash budget on the test configuration
            // (`TestConfig::with_faults`, see [`FabricConfig::fault_plan`])
            // lets the scheduler explore which replica fails and when.
            let manager =
                rt.create_machine(ClusterManagerMachine::new(config.secondaries, config.bugs));
            rt.create_machine(FabricClient::new(manager, config.requests));
            FabricHarness {
                manager: Some(manager),
                stage_two: None,
            }
        }
        FabricScenario::Pipeline => {
            let stage_two =
                rt.create_machine(StageTwo::new(!config.bugs.uninitialized_pipeline_config));
            let stage_one = rt.create_machine(StageOne::new(stage_two, 10));
            rt.create_machine(Configurator::new(stage_two, 2));
            rt.create_machine(PipelineDriver::new(stage_one, config.requests));
            FabricHarness {
                manager: None,
                stage_two: Some(stage_two),
            }
        }
    }
}

/// The registered seeded bugs of this case study (case study 3, reported in
/// §5 rather than Table 2): the fault-induced `FabricPromotePendingCopy`,
/// which needs its primary-crash budget, and `CScaleUninitializedConfig`.
pub fn bugs() -> Vec<Case> {
    let promotion = FabricConfig::with_promotion_bug();
    let plan = promotion.fault_plan();
    let pipeline = FabricConfig::with_pipeline_bug();
    let none = FaultPlan::none();
    vec![
        case("FabricPromotePendingCopy", 5_000, plan, promotion),
        case("CScaleUninitializedConfig", 2_000, none, pipeline),
    ]
}

/// The fixed failover scenario, with [`FabricConfig::fault_plan`] as its
/// designed fault budget.
pub fn fixed() -> Case {
    let config = FabricConfig::default();
    let plan = config.fault_plan();
    case("Fabric failover (fixed)", 5_000, plan, config)
}

/// A registered case: [`build_harness`] over `config`, run under
/// `max_steps` and `faults`.
fn case(name: &'static str, max_steps: usize, faults: FaultPlan, config: FabricConfig) -> Case {
    Case {
        case_study: 3,
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
    let config = FabricConfig::default();
    // Manager + primary + secondaries + replacement idle secondary + client,
    // plus the three pipeline machines (failure injection moved into the
    // core runtime — no injector machinery).
    let machines = 1 + 1 + config.secondaries + 1 + 1 + 3;
    // Handlers: replica {SetSecondaries, ClientRequest, Replicate,
    // CopyStateRequest, CopyState, BecomeRole, on_crash}, manager
    // {ClientRequest, CopyStateRequest, CopyCompleted, ReplicaFailed},
    // client {NextRequest}, pipeline {config, derived, raw, driver start},
    // monitor {applied}.
    let action_handlers = 7 + 4 + 1 + 4 + 1;
    // State transitions: replica role changes (3 roles) plus live->crashed,
    // manager failover, pipeline configured/unconfigured.
    let state_transitions = 6 + 1 + 1 + 1;
    ModelStats::new("Fabric user services")
        .with_bugs(2)
        .with_model(machines, state_transitions, action_handlers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_failover_scenario_is_clean_under_crash_faults() {
        let config = FabricConfig::default();
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(150)
                .with_max_steps(5_000)
                .with_seed(2)
                .with_faults(config.fault_plan()),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        assert!(
            !report.found_bug(),
            "fixed fabric scenario flagged: {:?}",
            report.bug.map(|b| b.bug)
        );
    }

    #[test]
    fn promotion_bug_is_found_via_injected_crash_faults() {
        let config = FabricConfig::with_promotion_bug();
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(2_000)
                .with_max_steps(5_000)
                .with_seed(3)
                .with_faults(config.fault_plan()),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        let bug = report.bug.expect("promotion bug");
        assert_eq!(bug.bug.kind, BugKind::SafetyViolation);
        assert!(bug.bug.message.contains("promoted"));
        assert!(
            bug.trace.fault_decision_count() >= 1,
            "the bug needs an injected crash in its decision stream"
        );
    }

    #[test]
    fn promotion_bug_is_unreachable_without_a_fault_budget() {
        // The §5 bug requires a primary crash; with no crash budget the
        // buggy model is indistinguishable from the fixed one.
        let config = FabricConfig::with_promotion_bug();
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(300)
                .with_max_steps(5_000)
                .with_seed(3),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        assert!(!report.found_bug());
    }

    #[test]
    fn pipeline_bug_is_found_by_the_engine() {
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(500)
                .with_max_steps(2_000)
                .with_seed(4),
        );
        let config = FabricConfig::with_pipeline_bug();
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        let bug = report.bug.expect("pipeline bug");
        assert_eq!(bug.bug.kind, BugKind::Panic);
    }

    #[test]
    fn model_stats_report_the_harness_size() {
        let stats = model_stats();
        assert!(stats.machines >= 9);
        assert_eq!(stats.bugs_found, 2);
    }
}
