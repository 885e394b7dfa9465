//! The MigratingTable test harness: configuration, the eleven named bugs of
//! Table 2, and the builder that wires services, migrator, tables and the
//! spec-compliance monitor together (Figure 12 of the paper).

use psharp::prelude::*;

use crate::machines::{
    MigratorMachine, RowPool, ServiceMachine, SpecMonitor, TablesMachine, WRITE_VALUES,
};
use crate::migrate::{ChainBugs, MigratingStore};
use crate::spec::SpecModel;
use crate::table::{ChainTable, TableOperation};

/// Configuration of the MigratingTable harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainConfig {
    /// Number of service machines issuing logical operations concurrently.
    pub services: usize,
    /// Logical operations issued by each service.
    pub ops_per_service: usize,
    /// Size of the key space the workload draws keys from.
    pub key_space: usize,
    /// Number of rows pre-loaded into the old table before the run.
    pub initial_rows: usize,
    /// Whether the migrator deletes old-table rows after copying them (the
    /// feature whose addition caused `QueryStreamedBackUpNewStream`).
    pub delete_after_copy: bool,
    /// Whether the new table starts with copies of some rows (a previously
    /// interrupted migration), needed to trigger
    /// `EnsurePartitionSwitchedFromPopulated`.
    pub prepopulate_new: bool,
    /// The seeded defects.
    pub bugs: ChainBugs,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            services: 2,
            ops_per_service: 4,
            key_space: 4,
            initial_rows: 3,
            delete_after_copy: true,
            prepopulate_new: false,
            bugs: ChainBugs::none(),
        }
    }
}

impl ChainConfig {
    /// The fixed system (no seeded defects).
    pub fn fixed() -> Self {
        ChainConfig::default()
    }

    /// The *fault-induced* `MigratorRestartSkipsStep` defect: after a
    /// crash-restart the migrator assumes its in-flight plan step completed
    /// and skips it. Run it with [`ChainConfig::fault_plan`] (one crash, one
    /// restart of the migrator); without faults the bug is unreachable.
    pub fn with_restart_bug() -> Self {
        let mut config = ChainConfig::default();
        config.bugs.restart_skips_in_flight_step = true;
        config
    }

    /// The fault budget this harness is designed around: the migrator is the
    /// crash-restartable component, and one crash plus one restart exercise
    /// its recovery path (the fixed migrator redoes its interrupted step;
    /// re-running passes is idempotent).
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::new().with_crashes(1).with_restarts(1)
    }

    /// Builds the configuration for one of the named Table 2 bugs.
    ///
    /// Returns `None` when the identifier is unknown; see [`named_bugs`] for
    /// the full list.
    pub fn for_named_bug(name: &str) -> Option<Self> {
        named_bugs()
            .into_iter()
            .find(|(bug_name, _)| *bug_name == name)
            .map(|(_, config)| config)
    }
}

/// The eleven re-introducible MigratingTable bugs of Table 2, by the paper's
/// identifiers, with the harness configuration that exposes each.
pub fn named_bugs() -> Vec<(&'static str, ChainConfig)> {
    let base = ChainConfig::default();
    let with = |f: fn(&mut ChainBugs), adjust: fn(&mut ChainConfig)| {
        let mut config = base;
        f(&mut config.bugs);
        adjust(&mut config);
        config
    };
    vec![
        (
            "QueryAtomicFilterShadowing",
            with(|b| b.query_atomic_filter_shadowing = true, |_| {}),
        ),
        (
            "QueryStreamedLock",
            with(|b| b.query_streamed_lock = true, |_| {}),
        ),
        (
            "QueryStreamedBackUpNewStream",
            with(|b| b.query_streamed_back_up_new_stream = true, |_| {}),
        ),
        (
            "DeleteNoLeaveTombstonesEtag",
            with(|b| b.delete_no_leave_tombstones_etag = true, |_| {}),
        ),
        (
            "DeletePrimaryKey",
            with(|b| b.delete_primary_key = true, |_| {}),
        ),
        (
            "EnsurePartitionSwitchedFromPopulated",
            with(
                |b| b.ensure_partition_switched_from_populated = true,
                |c| c.prepopulate_new = true,
            ),
        ),
        (
            "TombstoneOutputETag",
            with(|b| b.tombstone_output_etag = true, |_| {}),
        ),
        (
            "QueryStreamedFilterShadowing",
            with(|b| b.query_streamed_filter_shadowing = true, |_| {}),
        ),
        (
            "MigrateSkipPreferOld",
            with(|b| b.migrate_skip_prefer_old = true, |_| {}),
        ),
        (
            "MigrateSkipUseNewWithTombstones",
            with(|b| b.migrate_skip_use_new_with_tombstones = true, |_| {}),
        ),
        (
            "InsertBehindMigrator",
            with(|b| b.insert_behind_migrator = true, |_| {}),
        ),
    ]
}

/// Ids of the machines created by [`build_harness`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainHarness {
    /// The Tables machine (owns both backends and the reference checks feed).
    pub tables: MachineId,
    /// The migrator machine.
    pub migrator: MachineId,
    /// The service machines.
    pub services: Vec<MachineId>,
}

/// Builds the full MigratingTable harness into `rt` and returns the machine
/// ids.
pub fn build_harness(rt: &mut Runtime, config: &ChainConfig) -> ChainHarness {
    // Pre-load the old table (and optionally the new table) with initial
    // rows, seeding the reference model with the same (shared) rows.
    let pool = RowPool::new(config.key_space, WRITE_VALUES.max(config.initial_rows));
    let mut store = MigratingStore::new(config.bugs);
    let mut model = SpecModel::new();
    for index in 0..config.initial_rows {
        let row = pool.row(index % pool.key_space(), index);
        let insert = TableOperation::Insert(row.clone());
        if let Ok(result) = store.old.execute_one(&insert) {
            if config.prepopulate_new && index % 2 == 0 {
                // A previously interrupted migration already copied some rows.
                store.new.execute_one(&insert).expect("prepopulated copy");
            }
            model.seed(row, result.etag.expect("insert returns an etag"));
        }
    }

    rt.add_monitor(SpecMonitor::new(model));
    let tables = rt.create_machine(TablesMachine::new(store));
    let migrator = rt.create_machine(MigratorMachine::new(
        tables,
        config.bugs,
        config.delete_after_copy,
    ));
    // The migrator is the crash-restartable component of this case study:
    // under a fault budget the scheduler may kill it mid-plan and restart it,
    // exercising the recovery path (and the seeded
    // `restart_skips_in_flight_step` defect).
    rt.mark_restartable(migrator);
    let services = (0..config.services)
        .map(|_| {
            rt.create_machine(ServiceMachine::new(
                tables,
                config.bugs,
                config.ops_per_service,
                pool.clone(),
            ))
        })
        .collect();

    ChainHarness {
        tables,
        migrator,
        services,
    }
}

/// Model statistics of this harness, for the Table 1 reproduction.
pub fn model_stats() -> ModelStats {
    let config = ChainConfig::default();
    // Tables + migrator + services.
    let machines = 2 + config.services;
    // Action handlers: tables {write, read-atomic, read-next, migrator-step},
    // service {write-response, atomic-new, atomic-old, stream-new,
    // stream-old, stream-recheck}, migrator {response}, monitor {write,
    // query-start, query-result}.
    let action_handlers = 4 + 6 + 1 + 3;
    // State transitions: service op-state machine (idle -> write/atomic/
    // stream and back), migrator phase plan (6 steps).
    let state_transitions = 7 + 6;
    ModelStats::new("MigratingTable").with_bugs(11).with_model(
        machines,
        state_transitions,
        action_handlers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::MigratorMachine;
    use psharp::runtime::{ExecutionOutcome, Runtime, RuntimeConfig};
    use psharp::scheduler::RandomScheduler;

    fn new_runtime(seed: u64) -> Runtime {
        Runtime::new(
            Box::new(RandomScheduler::new(seed)),
            RuntimeConfig {
                max_steps: 10_000,
                ..RuntimeConfig::default()
            },
            seed,
        )
    }

    #[test]
    fn harness_creates_expected_machines() {
        let mut rt = new_runtime(1);
        let harness = build_harness(&mut rt, &ChainConfig::default());
        assert_eq!(harness.services.len(), 2);
        assert_eq!(rt.machine_count(), 4);
    }

    #[test]
    fn fixed_system_runs_clean_and_completes_migration() {
        for seed in 0..25 {
            let mut rt = new_runtime(seed);
            let harness = build_harness(&mut rt, &ChainConfig::fixed());
            let outcome = rt.run();
            assert!(
                rt.bug().is_none(),
                "fixed MigratingTable flagged a bug with seed {seed}: {:?}",
                rt.bug()
            );
            assert_eq!(outcome, ExecutionOutcome::Quiescent);
            let migrator = rt
                .machine_ref::<MigratorMachine>(harness.migrator)
                .expect("migrator exists");
            assert!(migrator.finished(), "the migration plan must complete");
        }
    }

    #[test]
    fn fixed_system_without_delete_after_copy_is_also_clean() {
        let config = ChainConfig {
            delete_after_copy: false,
            ..ChainConfig::fixed()
        };
        for seed in 0..10 {
            let mut rt = new_runtime(seed);
            build_harness(&mut rt, &config);
            let outcome = rt.run();
            assert!(
                !matches!(outcome, ExecutionOutcome::BugFound(_)),
                "seed {seed}: {outcome:?}"
            );
        }
    }

    #[test]
    fn all_named_bugs_have_distinct_configurations() {
        let bugs = named_bugs();
        assert_eq!(bugs.len(), 11);
        for (name, config) in &bugs {
            assert_ne!(
                config.bugs,
                ChainBugs::none(),
                "bug {name} must set at least one flag"
            );
        }
        assert!(ChainConfig::for_named_bug("DeletePrimaryKey").is_some());
        assert!(ChainConfig::for_named_bug("NotABug").is_none());
    }

    fn engine_finds(name: &str, iterations: u64, seed: u64) -> bool {
        let config = ChainConfig::for_named_bug(name).expect("known bug");
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(iterations)
                .with_max_steps(10_000)
                .with_seed(seed),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        report.found_bug()
    }

    #[test]
    fn delete_primary_key_bug_is_found() {
        assert!(engine_finds("DeletePrimaryKey", 300, 11));
    }

    #[test]
    fn fixed_system_survives_migrator_crash_restart() {
        // Under a crash+restart budget the fixed migrator redoes its
        // interrupted step; no schedule may diverge from the reference
        // model. Restarts must actually occur across the run for the test
        // to mean anything.
        let config = ChainConfig::fixed();
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(300)
                .with_max_steps(10_000)
                .with_seed(23)
                .with_faults(config.fault_plan()),
        );
        let report = engine.run(|rt| {
            build_harness(rt, &config);
        });
        assert!(
            !report.found_bug(),
            "fixed MigratingTable flagged a bug under crash-restart faults: {:?}",
            report.bug.map(|b| b.bug)
        );
        // Separately verify that crash+restart is actually reachable.
        let mut restarts = 0;
        for seed in 0..40 {
            let mut rt = psharp::runtime::Runtime::new(
                SchedulerKind::Random.build(seed, 10_000),
                psharp::runtime::RuntimeConfig {
                    max_steps: 10_000,
                    faults: config.fault_plan(),
                    ..psharp::runtime::RuntimeConfig::default()
                },
                seed,
            );
            let harness = build_harness(&mut rt, &config);
            rt.run();
            let migrator = rt
                .machine_ref::<MigratorMachine>(harness.migrator)
                .expect("migrator exists");
            restarts += migrator.restarts();
        }
        assert!(restarts > 0, "no seed ever crash-restarted the migrator");
    }

    #[test]
    fn restart_bug_is_found_via_injected_crash_restart() {
        let config = ChainConfig::with_restart_bug();
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(2_000)
                .with_max_steps(10_000)
                .with_seed(29)
                .with_faults(config.fault_plan()),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        let bug = report.bug.expect("restart bug should be found");
        assert_eq!(bug.bug.kind, BugKind::SafetyViolation);
        assert!(
            bug.trace.fault_decision_count() >= 2,
            "the bug needs crash + restart in its decision stream"
        );
    }

    #[test]
    fn restart_bug_is_unreachable_without_faults() {
        let config = ChainConfig::with_restart_bug();
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(300)
                .with_max_steps(10_000)
                .with_seed(29),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        assert!(!report.found_bug());
    }

    #[test]
    fn tombstone_output_etag_bug_is_found() {
        assert!(engine_finds("TombstoneOutputETag", 300, 13));
    }

    #[test]
    fn query_atomic_filter_shadowing_bug_is_found() {
        assert!(engine_finds("QueryAtomicFilterShadowing", 600, 17));
    }

    #[test]
    fn insert_behind_migrator_bug_is_found() {
        assert!(engine_finds("InsertBehindMigrator", 600, 19));
    }

    #[test]
    fn model_stats_report_the_harness_size() {
        let stats = model_stats();
        assert_eq!(stats.machines, 4);
        assert_eq!(stats.bugs_found, 11);
        assert!(stats.action_handlers >= 10);
    }
}
