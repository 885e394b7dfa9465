//! Fault-injection acceptance across the case-study crates (PR 5): for
//! a seeded *fault-induced* bug in each crate,
//!
//! * the bug is found via a `--faults`-style budget (and is unreachable
//!   without one — covered by each crate's own tests);
//! * the minimized trace contains **strictly fewer fault decisions** than
//!   the original recording (the shrinker's coarse first pass deletes whole
//!   faults, so the report names the bug's minimum fault set);
//! * the minimized trace strict-replays to the same bug;
//! * the (iteration, seed, fault set, bug) report is byte-identical at 1, 2
//!   and 8 workers.
//!
//! Budgets here are deliberately *larger* than the minimum each bug needs,
//! so the original recording carries surplus faults for the shrinker to
//! delete.

use psharp::prelude::*;
use psharp::trace::Decision;

struct FaultCase {
    name: &'static str,
    max_steps: usize,
    iterations: u64,
    seed: u64,
    /// A budget above the bug's minimum fault set, so shrink has surplus
    /// faults to remove.
    faults: FaultPlan,
    /// The fewest fault decisions the bug can possibly need.
    minimum_faults: usize,
    build: fn(&mut Runtime),
}

fn cases() -> Vec<FaultCase> {
    vec![
        FaultCase {
            name: "replsim/ReplReqLostNoRetransmit",
            max_steps: 2_500,
            iterations: 2_000,
            seed: 21,
            faults: FaultPlan::new().with_drops(3).with_duplicates(2),
            minimum_faults: 1, // one dropped ReplReq
            build: |rt| {
                replsim::build_harness(rt, &replsim::ReplConfig::with_lost_replication_bug());
            },
        },
        FaultCase {
            name: "vnext/ExtentNodeLivenessViolation",
            max_steps: 3_000,
            iterations: 500,
            seed: 2016,
            faults: FaultPlan::new().with_crashes(2),
            minimum_faults: 1, // one EN crash
            build: |rt| {
                vnext::build_harness(rt, &vnext::VnextConfig::with_liveness_bug());
            },
        },
        FaultCase {
            name: "chaintable/MigratorRestartSkipsStep",
            max_steps: 10_000,
            iterations: 3_000,
            seed: 29,
            faults: FaultPlan::new().with_crashes(2).with_restarts(2),
            minimum_faults: 2, // one crash + one restart of the migrator
            build: |rt| {
                chaintable::build_harness(rt, &chaintable::ChainConfig::with_restart_bug());
            },
        },
        FaultCase {
            name: "fabric/FabricPromotePendingCopy",
            max_steps: 5_000,
            iterations: 3_000,
            seed: 2016,
            faults: FaultPlan::new().with_crashes(2),
            minimum_faults: 1, // one primary crash
            build: |rt| {
                fabric::build_harness(rt, &fabric::FabricConfig::with_promotion_bug());
            },
        },
        FaultCase {
            name: "megakv/MegaKvPromoteLostWrite",
            max_steps: 2_500,
            iterations: 3_000,
            seed: 2016,
            // Only one machine is crashable, so the surplus comes from the
            // drop/duplicate budget absorbed by the (lossy) router, which the
            // system tolerates by design.
            faults: FaultPlan::new()
                .with_crashes(1)
                .with_drops(2)
                .with_duplicates(2),
            minimum_faults: 1, // one primary crash losing the unflushed batch
            build: |rt| {
                megakv::build_harness(rt, &megakv::MegaKvConfig::with_promote_lost_write_bug());
            },
        },
    ]
}

fn config_for(case: &FaultCase) -> TestConfig {
    TestConfig::new()
        .with_iterations(case.iterations)
        .with_max_steps(case.max_steps)
        .with_seed(case.seed)
        .with_faults(case.faults)
        .with_shrink(true)
        .with_shrink_budget(400)
}

fn fault_decisions(trace: &Trace) -> Vec<Decision> {
    trace
        .decisions
        .iter()
        .copied()
        .filter(Decision::is_fault)
        .collect()
}

#[test]
fn every_fault_induced_bug_is_found_shrunk_to_its_fault_set_and_verified() {
    for case in cases() {
        // The budget allows more faults than the bug needs, but the *first*
        // bug a given seed finds may already carry the minimum set — scan a
        // few base seeds until the recording has surplus faults for the
        // shrinker to delete.
        let mut engine = TestEngine::new(config_for(&case));
        let mut found = None;
        for offset in 0..10 {
            let candidate_engine = TestEngine::new(config_for(&case).with_seed(case.seed + offset));
            let report = candidate_engine.run(case.build);
            let Some(bug_report) = report.bug else {
                continue;
            };
            if bug_report.trace.fault_decision_count() > case.minimum_faults {
                engine = candidate_engine;
                found = Some(bug_report);
                break;
            }
        }
        let bug_report = found.unwrap_or_else(|| {
            panic!(
                "{}: no seed produced a buggy recording with surplus faults",
                case.name
            )
        });
        let original_faults = bug_report.trace.fault_decision_count();

        let shrink = bug_report
            .shrink
            .as_ref()
            .unwrap_or_else(|| panic!("{}: shrink did not run", case.name));
        // Strictly fewer fault decisions than the original, and never below
        // the bug's true minimum.
        assert!(
            shrink.minimized_faults < original_faults,
            "{}: fault set not reduced ({})",
            case.name,
            shrink.summary()
        );
        assert!(
            shrink.minimized_faults >= case.minimum_faults,
            "{}: shrink dropped a required fault ({})",
            case.name,
            shrink.summary()
        );
        assert_eq!(
            shrink.minimized.fault_decision_count(),
            shrink.minimized_faults,
            "{}: report counters must match the minimized trace",
            case.name
        );

        // The minimized trace strict-replays to the same bug.
        let replayed = engine
            .replay(&shrink.minimized, case.build)
            .unwrap_or_else(|| panic!("{}: minimized trace does not replay", case.name));
        assert_eq!(replayed.kind, bug_report.bug.kind, "{}", case.name);
        assert_eq!(replayed.message, bug_report.bug.message, "{}", case.name);
    }
}

#[test]
fn fault_reports_are_byte_identical_at_1_2_and_8_workers() {
    for case in cases() {
        let serial = TestEngine::new(config_for(&case)).run(case.build);
        let reference = serial
            .bug
            .unwrap_or_else(|| panic!("{}: serial run finds the bug", case.name));
        let reference_minimized = reference
            .shrink
            .as_ref()
            .expect("shrink ran")
            .minimized
            .to_json()
            .expect("serialize");
        for workers in [2usize, 8] {
            let parallel = TestEngine::new(config_for(&case).with_workers(workers)).run(case.build);
            let found = parallel
                .bug
                .unwrap_or_else(|| panic!("{}: {workers}-worker run finds the bug", case.name));
            assert_eq!(
                found.iteration, reference.iteration,
                "{} workers={workers}",
                case.name
            );
            assert_eq!(
                found.trace.seed, reference.trace.seed,
                "{} workers={workers}",
                case.name
            );
            assert_eq!(
                fault_decisions(&found.trace),
                fault_decisions(&reference.trace),
                "{} workers={workers}: the injected fault set must be identical",
                case.name
            );
            assert_eq!(
                found.bug.message, reference.bug.message,
                "{} workers={workers}",
                case.name
            );
            let minimized = found
                .shrink
                .as_ref()
                .expect("shrink ran")
                .minimized
                .to_json()
                .expect("serialize");
            assert_eq!(
                minimized, reference_minimized,
                "{} workers={workers}: minimized counterexample must be byte-identical",
                case.name
            );
        }
    }
}
