//! Cross-crate integration tests: every case study harness runs under the
//! same systematic testing engine, every fixed variant stays clean, and
//! buggy traces replay deterministically. That every registered seeded bug
//! is findable is checked by `tests/registry.rs`.

use bench::{bug_case, fixed_cases};
use psharp::prelude::*;

fn engine(iterations: u64, max_steps: usize, seed: u64, scheduler: SchedulerKind) -> TestEngine {
    engine_with_faults(iterations, max_steps, seed, scheduler, FaultPlan::none())
}

fn engine_with_faults(
    iterations: u64,
    max_steps: usize,
    seed: u64,
    scheduler: SchedulerKind,
    faults: FaultPlan,
) -> TestEngine {
    TestEngine::new(
        TestConfig::new()
            .with_iterations(iterations)
            .with_max_steps(max_steps)
            .with_seed(seed)
            .with_scheduler(scheduler)
            .with_faults(faults),
    )
}

#[test]
fn every_fixed_case_study_is_clean_under_both_schedulers() {
    // Random scheduling judges liveness at the step bound; PCT, being
    // starvation-prone, does not, so no violation of any kind is expected
    // under either.
    for scheduler in [
        SchedulerKind::Random,
        SchedulerKind::Pct { change_points: 2 },
    ] {
        for case in fixed_cases() {
            let report = engine(50, case.max_steps, 1, scheduler).run(&case.build);
            assert!(
                !report.found_bug(),
                "{}/{:?}: {:?}",
                case.name,
                scheduler,
                report.bug
            );
        }
    }
}

#[test]
fn replsim_safety_bug_is_found_and_replays() {
    let engine = engine(5_000, 2_000, 7, SchedulerKind::Random);
    let config = replsim::ReplConfig::with_duplicate_counting_bug();
    let build = move |rt: &mut Runtime| {
        replsim::build_harness(rt, &config);
    };
    let report = engine.run(build);
    let bug = report.bug.expect("safety bug");
    assert_eq!(bug.bug.kind, BugKind::SafetyViolation);

    let replayed = engine
        .replay(&bug.trace, build)
        .expect("replay reproduces the bug");
    assert_eq!(replayed.message, bug.bug.message);
}

#[test]
fn vnext_liveness_bug_is_found_by_random_and_not_judged_by_pct() {
    // The §3.6 bug is fault-induced: it needs an EN crash, injected by the
    // core scheduler under the scenario's fault budget.
    let case = bug_case("ExtentNodeLivenessViolation");
    let hunt = |scheduler| {
        engine_with_faults(3_000, case.max_steps, 2016, scheduler, case.faults).run(&case.build)
    };
    let bug = hunt(SchedulerKind::Random)
        .bug
        .expect("random scheduling should find the bug");
    assert_eq!(bug.bug.kind, BugKind::LivenessViolation);
    // PCT is starvation-prone, so it takes no liveness verdict at the bound.
    let pct = hunt(SchedulerKind::Pct { change_points: 2 });
    assert!(
        pct.bug
            .as_ref()
            .is_none_or(|bug| bug.bug.kind != BugKind::LivenessViolation),
        "PCT judged liveness: {:?}",
        pct.bug.map(|bug| bug.bug)
    );
}

#[test]
fn traces_of_found_bugs_serialize_and_replay_across_crates() {
    let case = bug_case("DeletePrimaryKey");
    let engine = engine(3_000, case.max_steps, 5, SchedulerKind::Random);
    let report = engine.run(&case.build);
    let bug = report.bug.expect("bug found");
    let json = bug.trace.to_json().expect("serialize trace");
    let restored = Trace::from_json(&json).expect("parse trace");
    let replayed = engine
        .replay(&restored, &case.build)
        .expect("replay reproduces the bug");
    assert_eq!(replayed.kind, bug.bug.kind);
}
