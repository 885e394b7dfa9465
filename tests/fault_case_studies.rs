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

use bench::bug_case;
use psharp::case::Case;
use psharp::prelude::*;
use psharp::trace::Decision;

/// A registered fault-induced bug with this suite's engine budget, seed and
/// surplus fault budget.
struct FaultCase {
    bug: Case,
    iterations: u64,
    seed: u64,
    /// A budget above the bug's minimum fault set, so shrink has surplus
    /// faults to remove.
    faults: FaultPlan,
    /// The fewest fault decisions the bug can possibly need.
    minimum_faults: usize,
}

fn cases() -> Vec<FaultCase> {
    let case = |name, iterations, seed, faults, minimum_faults| FaultCase {
        bug: bug_case(name),
        iterations,
        seed,
        faults,
        minimum_faults,
    };
    vec![
        case(
            "ReplReqLostNoRetransmit",
            2_000,
            21,
            FaultPlan::new().with_drops(3).with_duplicates(2),
            1, // one dropped ReplReq
        ),
        case(
            "ExtentNodeLivenessViolation",
            500,
            2016,
            FaultPlan::new().with_crashes(2),
            1, // one EN crash
        ),
        case(
            "MigratorRestartSkipsStep",
            3_000,
            29,
            FaultPlan::new().with_crashes(2).with_restarts(2),
            2, // one crash + one restart of the migrator
        ),
        case(
            "FabricPromotePendingCopy",
            3_000,
            2016,
            FaultPlan::new().with_crashes(2),
            1, // one primary crash
        ),
        case(
            "MegaKvPromoteLostWrite",
            3_000,
            2016,
            // Only one machine is crashable, so the surplus comes from the
            // drop/duplicate budget absorbed by the (lossy) router, which the
            // system tolerates by design.
            FaultPlan::new()
                .with_crashes(1)
                .with_drops(2)
                .with_duplicates(2),
            1, // one primary crash losing the unflushed batch
        ),
    ]
}

fn config_for(case: &FaultCase) -> TestConfig {
    TestConfig::new()
        .with_iterations(case.iterations)
        .with_max_steps(case.bug.max_steps)
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
            let report = candidate_engine.run(&case.bug.build);
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
                case.bug.name
            )
        });
        let original_faults = bug_report.trace.fault_decision_count();

        let shrink = bug_report
            .shrink
            .as_ref()
            .unwrap_or_else(|| panic!("{}: shrink did not run", case.bug.name));
        // Strictly fewer fault decisions than the original, and never below
        // the bug's true minimum.
        assert!(
            shrink.minimized_faults < original_faults,
            "{}: fault set not reduced ({})",
            case.bug.name,
            shrink.summary()
        );
        assert!(
            shrink.minimized_faults >= case.minimum_faults,
            "{}: shrink dropped a required fault ({})",
            case.bug.name,
            shrink.summary()
        );
        assert_eq!(
            shrink.minimized.fault_decision_count(),
            shrink.minimized_faults,
            "{}: report counters must match the minimized trace",
            case.bug.name
        );

        // The minimized trace strict-replays to the same bug.
        let replayed = engine
            .replay(&shrink.minimized, &case.bug.build)
            .unwrap_or_else(|| panic!("{}: minimized trace does not replay", case.bug.name));
        assert_eq!(replayed.kind, bug_report.bug.kind, "{}", case.bug.name);
        assert_eq!(
            replayed.message, bug_report.bug.message,
            "{}",
            case.bug.name
        );
    }
}

#[test]
fn fault_reports_are_byte_identical_at_1_2_and_8_workers() {
    for case in cases() {
        let serial = TestEngine::new(config_for(&case)).run(&case.bug.build);
        let reference = serial
            .bug
            .unwrap_or_else(|| panic!("{}: serial run finds the bug", case.bug.name));
        let reference_minimized = reference
            .shrink
            .as_ref()
            .expect("shrink ran")
            .minimized
            .to_json()
            .expect("serialize");
        for workers in [2usize, 8] {
            let parallel =
                TestEngine::new(config_for(&case).with_workers(workers)).run(&case.bug.build);
            let found = parallel
                .bug
                .unwrap_or_else(|| panic!("{}: {workers}-worker run finds the bug", case.bug.name));
            assert_eq!(
                found.iteration, reference.iteration,
                "{} workers={workers}",
                case.bug.name
            );
            assert_eq!(
                found.trace.seed, reference.trace.seed,
                "{} workers={workers}",
                case.bug.name
            );
            assert_eq!(
                fault_decisions(&found.trace),
                fault_decisions(&reference.trace),
                "{} workers={workers}: the injected fault set must be identical",
                case.bug.name
            );
            assert_eq!(
                found.bug.message, reference.bug.message,
                "{} workers={workers}",
                case.bug.name
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
                case.bug.name
            );
        }
    }
}
