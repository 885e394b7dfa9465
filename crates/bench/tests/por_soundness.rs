//! Soundness suite for the PR 7 schedule-reduction machinery.
//!
//! Two properties keep "exploring fewer schedules" honest:
//!
//! - **Sleep-set partial-order reduction must not lose bugs.** Pruning an
//!   interleaving is only sound when an equivalent one is still explored, so
//!   the sleep-set scheduler must find every seeded bug of the Table 2
//!   reproduction within the same execution budget the other strategies get.
//! - **Prefix-sharing snapshot execution must not change results.** Forking
//!   an iteration from the post-setup snapshot instead of rebuilding the
//!   harness is an implementation detail: the (iteration, seed, decisions,
//!   bug) outcome must stay byte-identical at any worker count.

use bench::{bug_cases, hunt_with_fault_override};
use psharp::prelude::*;
use psharp::runtime::{Runtime, RuntimeConfig};
use psharp::scheduler::RandomScheduler;

/// The Table 2 execution budget; `table2 --scheduler sleep-set` finds every
/// seeded bug well inside it (worst case observed: iteration 660).
const BUDGET: u64 = 2_000;

#[test]
fn sleep_set_finds_every_seeded_bug_within_the_table2_budget() {
    for case in bug_cases() {
        let config = TestConfig::new()
            .with_iterations(BUDGET)
            .with_seed(2016)
            .with_scheduler(SchedulerKind::sleep_set());
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
/// soundness obligation: every seeded bug of the Table 2 reproduction must
/// still be found within the shared execution budget.
#[test]
fn dpor_finds_every_seeded_bug_within_the_table2_budget() {
    for case in bug_cases() {
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

/// Liveness verdicts under DPOR must be starvation-free: the strategy's
/// run-to-completion bias and backtrack priority are both fairness-bounded
/// and its bounded horizon is declared as an unfair prefix, so hot-at-bound
/// monitors get confirmed over the runtime's fair grace period instead of
/// reported immediately. Before those bounds existed, two racing machines
/// could ping-pong through the backtrack queue forever and the *fixed*
/// case studies reported spurious liveness violations — this is the test
/// that notices a regression.
#[test]
fn dpor_keeps_fixed_systems_clean() {
    type Build = Box<dyn Fn(&mut Runtime) + Send + Sync>;
    let checks: Vec<(&str, Build, usize)> = vec![
        (
            "replsim",
            Box::new(|rt: &mut Runtime| {
                replsim::build_harness(rt, &replsim::ReplConfig::default());
            }),
            2_500,
        ),
        (
            "vnext",
            Box::new(|rt: &mut Runtime| {
                vnext::build_harness(rt, &vnext::VnextConfig::default());
            }),
            3_000,
        ),
        (
            "chaintable",
            Box::new(|rt: &mut Runtime| {
                chaintable::build_harness(rt, &chaintable::ChainConfig::fixed());
            }),
            10_000,
        ),
        (
            "fabric",
            Box::new(|rt: &mut Runtime| {
                fabric::build_harness(rt, &fabric::FabricConfig::default());
            }),
            5_000,
        ),
        (
            "megakv",
            Box::new(|rt: &mut Runtime| {
                megakv::build_harness(rt, &megakv::MegaKvConfig::default());
            }),
            4_000,
        ),
    ];
    for (name, build, max_steps) in checks {
        let config = TestConfig::new()
            .with_iterations(50)
            .with_max_steps(max_steps)
            .with_seed(99)
            .with_scheduler(SchedulerKind::Dpor);
        let bug = bench::verify_fixed_config(move |rt| build(rt), config);
        assert!(
            bug.is_none(),
            "DPOR reported a spurious liveness violation on the fixed {name} system: {}",
            bug.unwrap()
        );
    }
}

/// Every case-study harness supports post-setup snapshots: all machines and
/// monitors implement `clone_state` and every event queued during setup is
/// replicable. If one regresses, prefix sharing silently degrades to
/// straight-line execution — results stay correct but the speedup vanishes,
/// so this is the test that notices.
#[test]
fn every_case_study_harness_supports_post_setup_snapshots() {
    type Build = Box<dyn Fn(&mut Runtime)>;
    let harnesses: Vec<(&str, Build)> = vec![
        (
            "replsim",
            Box::new(|rt: &mut Runtime| {
                replsim::build_harness(rt, &replsim::ReplConfig::with_lost_replication_bug());
            }),
        ),
        (
            "vnext",
            Box::new(|rt: &mut Runtime| {
                vnext::build_harness(rt, &vnext::VnextConfig::with_liveness_bug());
            }),
        ),
        (
            "chaintable",
            Box::new(|rt: &mut Runtime| {
                chaintable::build_harness(rt, &chaintable::ChainConfig::fixed());
            }),
        ),
        (
            "fabric",
            Box::new(|rt: &mut Runtime| {
                fabric::build_harness(rt, &fabric::FabricConfig::with_promotion_bug());
            }),
        ),
        (
            "megakv",
            Box::new(|rt: &mut Runtime| {
                megakv::build_harness(rt, &megakv::MegaKvConfig::with_promote_lost_write_bug());
            }),
        ),
    ];
    for (name, build) in harnesses {
        let mut rt = Runtime::new(
            Box::new(RandomScheduler::new(1)),
            RuntimeConfig::default(),
            1,
        );
        build(&mut rt);
        assert!(
            rt.snapshot().is_some(),
            "the {name} harness is no longer snapshotable after setup"
        );
    }
}

fn build_replsim_bug(rt: &mut Runtime) {
    replsim::build_harness(rt, &replsim::ReplConfig::with_lost_replication_bug());
}

#[test]
fn prefix_shared_reports_are_byte_identical_at_any_worker_count() {
    let base = TestConfig::new()
        .with_iterations(200)
        .with_max_steps(2_500)
        .with_seed(2016)
        .with_faults(replsim::ReplConfig::with_lost_replication_bug().fault_plan());
    let reference = TestEngine::new(base.clone()).run(build_replsim_bug);
    let reference_bug = reference.bug.expect("the seeded replsim bug");

    for workers in [1, 2, 4, 8] {
        let report = TestEngine::new(base.clone().with_prefix_sharing(true).with_workers(workers))
            .run(build_replsim_bug);
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

/// The two reduction layers compose: sleep-set scheduling over snapshot-forked
/// iterations reports exactly what it reports over straight-line execution,
/// including under an active fault budget (vNext's crash-induced liveness
/// bug).
#[test]
fn sleep_set_with_prefix_sharing_matches_straight_line_execution() {
    let build = |rt: &mut Runtime| {
        vnext::build_harness(rt, &vnext::VnextConfig::with_liveness_bug());
    };
    let base = TestConfig::new()
        .with_iterations(200)
        .with_max_steps(3_000)
        .with_seed(2016)
        .with_scheduler(SchedulerKind::sleep_set())
        .with_faults(vnext::VnextConfig::with_liveness_bug().fault_plan());

    let straight = TestEngine::new(base.clone()).run(build);
    let shared = TestEngine::new(base.with_prefix_sharing(true)).run(build);

    let a = straight.bug.expect("the seeded vNext liveness bug");
    let b = shared.bug.expect("prefix sharing lost the vNext bug");
    assert_eq!(a.iteration, b.iteration);
    assert_eq!(a.trace.decisions, b.trace.decisions);
    assert_eq!(a.bug.kind, b.bug.kind);
    assert_eq!(a.bug.message, b.bug.message);
    assert_eq!(straight.iterations_run, shared.iterations_run);
    assert_eq!(straight.total_steps, shared.total_steps);
}

/// DPOR composes with the other exploration layers exactly like sleep sets:
/// driving snapshot-forked iterations under an active fault budget reports
/// what straight-line execution reports, bit for bit. Backtrack points are
/// ordinary recorded schedule decisions, so nothing downstream (replay,
/// shrinking, fault injection) can tell the difference.
#[test]
fn dpor_with_prefix_sharing_and_faults_matches_straight_line_execution() {
    let build = |rt: &mut Runtime| {
        vnext::build_harness(rt, &vnext::VnextConfig::with_liveness_bug());
    };
    let base = TestConfig::new()
        .with_iterations(200)
        .with_max_steps(3_000)
        .with_seed(2016)
        .with_scheduler(SchedulerKind::Dpor)
        .with_faults(vnext::VnextConfig::with_liveness_bug().fault_plan());

    let straight = TestEngine::new(base.clone()).run(build);
    let shared = TestEngine::new(base.with_prefix_sharing(true)).run(build);

    let a = straight
        .bug
        .expect("the seeded vNext liveness bug under DPOR");
    let b = shared
        .bug
        .expect("prefix sharing lost the vNext bug under DPOR");
    assert_eq!(a.iteration, b.iteration);
    assert_eq!(a.trace.decisions, b.trace.decisions);
    assert_eq!(a.bug.kind, b.bug.kind);
    assert_eq!(a.bug.message, b.bug.message);
    assert_eq!(straight.iterations_run, shared.iterations_run);
    assert_eq!(straight.total_steps, shared.total_steps);
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

/// A prefix-tree run keeps a flat run's guarantee: a bug-free run's report —
/// iteration count, step count, per-strategy attribution including
/// pruned/race/backtrack counters — is byte-identical at 1, 2, 4 and 8
/// workers, and so is a flat run's on the same harness and portfolio.
#[test]
fn tree_and_flat_reports_are_byte_identical_at_any_worker_count() {
    let build = |rt: &mut Runtime| {
        chaintable::build_harness(rt, &chaintable::ChainConfig::fixed());
    };
    let base = TestConfig::new()
        .with_iterations(48)
        .with_max_steps(2_000)
        .with_seed(7)
        .with_default_portfolio();
    let tree_base = base.clone().with_prefix_depth(2);

    let tree_reference = TestEngine::new(tree_base.clone().with_workers(1)).run(build);
    assert!(
        tree_reference.bug.is_none(),
        "the fixed chaintable harness must be bug-free"
    );
    let flat_reference = TestEngine::new(base.clone().with_workers(1)).run(build);
    for workers in [2, 4, 8] {
        let tree = TestEngine::new(tree_base.clone().with_workers(workers)).run(build);
        assert_eq!(
            report_key(&tree),
            report_key(&tree_reference),
            "prefix-tree report diverged at {workers} workers"
        );
        let flat = TestEngine::new(base.clone().with_workers(workers)).run(build);
        assert_eq!(
            report_key(&flat),
            report_key(&flat_reference),
            "flat parallel report diverged at {workers} workers"
        );
    }
}

/// When the harness does have a bug, a prefix-tree run's winner — iteration,
/// decisions, bug identity — is the same at any worker count, mirroring a
/// flat run's deterministic first-bug selection.
#[test]
fn tree_engine_bug_selection_is_worker_count_independent() {
    let base = TestConfig::new()
        .with_iterations(200)
        .with_max_steps(2_500)
        .with_seed(2016)
        .with_faults(replsim::ReplConfig::with_lost_replication_bug().fault_plan())
        .with_prefix_depth(2);
    let reference = TestEngine::new(base.clone().with_workers(1)).run(build_replsim_bug);
    let reference_bug = reference.bug.expect("the seeded replsim bug via the tree");

    for workers in [2, 4, 8] {
        let report = TestEngine::new(base.clone().with_workers(workers)).run(build_replsim_bug);
        let bug = report
            .bug
            .unwrap_or_else(|| panic!("the prefix tree at {workers} workers lost the bug"));
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
