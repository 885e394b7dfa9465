//! Soundness suite for the PR 7 schedule-reduction machinery.
//!
//! Two properties keep "exploring fewer schedules" honest:
//!
//! - **Sleep-set partial-order reduction must not lose bugs.** Pruning an
//!   interleaving is only sound when an equivalent one is still explored, so
//!   the sleep-set scheduler must find every seeded safety bug of the
//!   Table 2 reproduction within the same execution budget the other
//!   strategies get. (Liveness bugs are out of its reach by design: a
//!   starvation-prone strategy takes no liveness verdict at the step bound.)
//! - **Prefix-sharing snapshot execution must not change results.** Forking
//!   an iteration from the post-setup snapshot instead of rebuilding the
//!   harness is an implementation detail: the (iteration, seed, decisions,
//!   bug) outcome must stay byte-identical at any worker count.

use bench::{bug_case, bug_cases, fixed_cases, hunt_with_fault_override};
use psharp::case::Case;
use psharp::prelude::*;
use psharp::runtime::{Runtime, RuntimeConfig};
use psharp::scheduler::RandomScheduler;

/// The Table 2 execution budget; `table2 --scheduler sleep-set` finds every
/// seeded safety bug well inside it (worst case observed: iteration 660).
const BUDGET: u64 = 2_000;

/// The seeded bugs whose violation is a liveness verdict. Sleep-set and DPOR
/// are starvation-prone, so they judge liveness only at quiescence, never at
/// the step bound; their soundness obligation covers the other rows.
const LIVENESS_BUGS: [&str; 3] = [
    "ReplReqLostNoRetransmit",
    "ExtentNodeLivenessViolation",
    "MegaKvSplitForgottenPrimary",
];

/// The seeded bugs minus [`LIVENESS_BUGS`], after checking that the constant
/// names exactly the bugs random scheduling (which is fair) reports as
/// liveness violations — so no row is left out silently.
fn safety_bug_cases() -> Vec<Case> {
    let (liveness, safety): (Vec<Case>, Vec<Case>) = bug_cases().into_iter().partition(|case| {
        let config = TestConfig::new()
            .with_iterations(BUDGET)
            .with_max_steps(case.max_steps)
            .with_seed(2016)
            .with_faults(case.faults);
        let report = TestEngine::new(config).run(|rt| (case.build)(rt));
        let found = report
            .bug
            .unwrap_or_else(|| panic!("random scheduling missed {}", case.name));
        found.bug.kind == BugKind::LivenessViolation
    });
    let names: Vec<&str> = liveness.iter().map(|case| case.name).collect();
    assert_eq!(names, LIVENESS_BUGS);
    safety
}

#[test]
fn sleep_set_finds_every_seeded_bug_within_the_table2_budget() {
    for case in safety_bug_cases() {
        let config = TestConfig::new()
            .with_iterations(BUDGET)
            .with_seed(2016)
            .with_scheduler(SchedulerKind::SleepSet);
        let result = hunt_with_fault_override(&case, config, None);
        assert!(
            result.found,
            "sleep-set pruning lost the seeded bug {} (budget {BUDGET})",
            case.name
        );
    }
}

/// Vector-clock DPOR prunes entire continuations per scheduling point, a
/// much more aggressive reduction than sleep sets — so it gets the same
/// soundness obligation: every seeded safety bug of the Table 2
/// reproduction must still be found within the shared execution budget.
#[test]
fn dpor_finds_every_seeded_bug_within_the_table2_budget() {
    for case in safety_bug_cases() {
        let config = TestConfig::new()
            .with_iterations(BUDGET)
            .with_seed(2016)
            .with_scheduler(SchedulerKind::Dpor);
        let result = hunt_with_fault_override(&case, config, None);
        assert!(
            result.found,
            "DPOR pruning lost the seeded bug {} (budget {BUDGET})",
            case.name
        );
    }
}

/// Executions per fixed system and reduction strategy in
/// [`dpor_keeps_fixed_systems_clean`]. While every strategy judged liveness
/// at the step bound, sleep-set reported a spurious liveness violation on
/// the fixed replsim at iteration 747 of this run.
const FIXED_BUDGET: u64 = 800;

/// The reduction strategies keep the fixed systems clean. DPOR's
/// run-to-completion bias and backtrack priority are both fairness-bounded
/// — before those bounds existed, two racing machines could ping-pong
/// through the backtrack queue forever — but DPOR and sleep-set both stay
/// starvation-prone, so a monitor still hot at their step bound is not a
/// verdict, and the fixed systems must come out clean under both.
#[test]
fn dpor_keeps_fixed_systems_clean() {
    let check = |case: &Case, config: TestConfig| {
        let scheduler = config.scheduler;
        let report = TestEngine::new(config).run(&case.build);
        assert!(
            report.bug.is_none(),
            "{scheduler:?} reported a spurious violation on {}: {}",
            case.name,
            report.bug.unwrap().bug
        );
    };
    let systems = fixed_cases();
    for case in &systems {
        for scheduler in [SchedulerKind::SleepSet, SchedulerKind::Dpor] {
            let config = TestConfig::new()
                .with_iterations(FIXED_BUDGET)
                .with_max_steps(case.max_steps)
                .with_seed(99)
                .with_scheduler(scheduler);
            check(case, config);
        }
    }
    // The benchmark's `clean_sweep` cell that was red at `--seed 6`: the
    // fixed replsim under sleep-set with its own fault budget, which
    // reported a liveness violation at iteration 77.
    let replsim = &systems[0];
    let config = TestConfig::new()
        .with_iterations(100)
        .with_max_steps(replsim.max_steps)
        .with_seed(9_327_108_117_671_039_267)
        .with_scheduler(SchedulerKind::SleepSet)
        .with_faults(replsim.faults);
    check(replsim, config);
}

/// Every registered harness (the 20 seeded bugs and the 5 fixed systems)
/// supports post-setup snapshots: all machines and monitors implement
/// `clone_state` and every event queued during setup is replicable. If one regresses, prefix sharing silently degrades to
/// straight-line execution — results stay correct but the speedup vanishes,
/// so this is the test that notices.
#[test]
fn every_case_study_harness_supports_post_setup_snapshots() {
    let harnesses: Vec<Case> = bug_cases().into_iter().chain(fixed_cases()).collect();
    assert_eq!(harnesses.len(), 25);
    for case in harnesses {
        let mut rt = Runtime::new(
            Box::new(RandomScheduler::new(1)),
            RuntimeConfig::default(),
            1,
        );
        (case.build)(&mut rt);
        assert!(
            rt.snapshot().is_some(),
            "the {} harness is no longer snapshotable after setup",
            case.name
        );
    }
}

#[test]
fn prefix_shared_reports_are_byte_identical_at_any_worker_count() {
    let case = bug_case("ReplReqLostNoRetransmit");
    let base = TestConfig::new()
        .with_iterations(200)
        .with_max_steps(case.max_steps)
        .with_seed(2016)
        .with_faults(case.faults);
    let reference = TestEngine::new(base.clone()).run(&case.build);
    let reference_bug = reference.bug.expect("the seeded replsim bug");

    for workers in [1, 2, 4, 8] {
        let report = TestEngine::new(base.clone().with_prefix_sharing(true).with_workers(workers))
            .run(&case.build);
        let bug = report
            .bug
            .unwrap_or_else(|| panic!("prefix sharing at {workers} workers lost the bug"));
        assert_eq!(
            bug.iteration, reference_bug.iteration,
            "winning iteration diverged at {workers} workers"
        );
        assert_eq!(
            bug.trace.decisions, reference_bug.trace.decisions,
            "trace decisions diverged at {workers} workers"
        );
        assert_eq!(bug.bug.kind, reference_bug.bug.kind);
        assert_eq!(bug.bug.message, reference_bug.bug.message);
    }
}

/// Hunts Fabric's fault-induced promote-pending-copy safety bug under
/// `scheduler` straight-line and with prefix sharing, and asserts both runs
/// report the same thing, bit for bit.
fn assert_prefix_sharing_matches_straight_line(scheduler: SchedulerKind) {
    let case = bug_case("FabricPromotePendingCopy");
    let base = TestConfig::new()
        .with_iterations(200)
        .with_max_steps(case.max_steps)
        .with_seed(2016)
        .with_scheduler(scheduler)
        .with_faults(case.faults);

    let straight = TestEngine::new(base.clone()).run(&case.build);
    let shared = TestEngine::new(base.with_prefix_sharing(true)).run(&case.build);

    let a = straight
        .bug
        .unwrap_or_else(|| panic!("{scheduler:?} missed the seeded Fabric bug"));
    let b = shared
        .bug
        .unwrap_or_else(|| panic!("prefix sharing lost the Fabric bug under {scheduler:?}"));
    assert_eq!(a.bug.kind, BugKind::SafetyViolation);
    assert_eq!(a.iteration, b.iteration);
    assert_eq!(a.trace.decisions, b.trace.decisions);
    assert_eq!(a.bug.kind, b.bug.kind);
    assert_eq!(a.bug.message, b.bug.message);
    assert_eq!(straight.iterations_run, shared.iterations_run);
    assert_eq!(straight.total_steps, shared.total_steps);
}

/// The two reduction layers compose: sleep-set scheduling over snapshot-forked
/// iterations reports exactly what it reports over straight-line execution,
/// including under an active fault budget.
#[test]
fn sleep_set_with_prefix_sharing_matches_straight_line_execution() {
    assert_prefix_sharing_matches_straight_line(SchedulerKind::SleepSet);
}

/// DPOR composes with the other exploration layers exactly like sleep sets:
/// driving snapshot-forked iterations under an active fault budget reports
/// what straight-line execution reports, bit for bit. Backtrack points are
/// ordinary recorded schedule decisions, so nothing downstream (replay,
/// shrinking, fault injection) can tell the difference.
#[test]
fn dpor_with_prefix_sharing_and_faults_matches_straight_line_execution() {
    assert_prefix_sharing_matches_straight_line(SchedulerKind::Dpor);
}

/// Everything of a bug-free report except wall-clock times, compared across
/// worker counts.
fn report_key(report: &TestReport) -> (u64, u64, String, Vec<String>) {
    (
        report.iterations_run,
        report.total_steps,
        report.scheduler.to_string(),
        report
            .per_strategy
            .iter()
            .map(|row| format!("{row:?}"))
            .collect(),
    )
}

/// A prefix-shared run keeps a flat run's guarantee on a bug-free case study:
/// its report — iteration count, step count, per-strategy attribution
/// including pruned/race/backtrack counters — is byte-identical at 1, 2, 4
/// and 8 workers, and so is a flat run's on the same harness and portfolio.
#[test]
fn tree_and_flat_reports_are_byte_identical_at_any_worker_count() {
    let chaintable = fixed_cases().swap_remove(2);
    assert_eq!(chaintable.case_study, 2);
    let build = &chaintable.build;
    // This test's own step bound, not the registered 10,000.
    let base = TestConfig::new()
        .with_iterations(48)
        .with_max_steps(2_000)
        .with_seed(7)
        .with_default_portfolio();
    let shared_base = base.clone().with_prefix_sharing(true);

    let shared_reference = TestEngine::new(shared_base.clone().with_workers(1)).run(build);
    assert!(
        shared_reference.bug.is_none(),
        "the fixed chaintable harness must be bug-free"
    );
    let flat_reference = TestEngine::new(base.clone().with_workers(1)).run(build);
    for workers in [2, 4, 8] {
        let shared = TestEngine::new(shared_base.clone().with_workers(workers)).run(build);
        assert_eq!(
            report_key(&shared),
            report_key(&shared_reference),
            "prefix-shared report diverged at {workers} workers"
        );
        let flat = TestEngine::new(base.clone().with_workers(workers)).run(build);
        assert_eq!(
            report_key(&flat),
            report_key(&flat_reference),
            "flat parallel report diverged at {workers} workers"
        );
    }
}
