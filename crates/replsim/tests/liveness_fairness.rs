//! Liveness is judged at the step bound only under a fair schedule:
//! starvation-prone strategies (PCT, delay-bounding, the probabilistic walk)
//! must not flag liveness violations on the *fixed* system at tight step
//! bounds — a monitor hot at their bound may be a backlog the starved
//! machines have not drained yet, not a system bug — while random
//! scheduling keeps detecting and replaying genuine liveness bugs.

use psharp::prelude::*;
use replsim::{build_harness, ReplConfig};

/// A tight per-execution bound: small enough that an unfair prefix can
/// easily leave the ack outstanding at the bound, which is exactly the
/// false-positive regime this suite pins down.
const TIGHT_MAX_STEPS: usize = 600;

fn hunt_fixed(scheduler: SchedulerKind) -> TestReport {
    let engine = TestEngine::new(
        TestConfig::new()
            .with_iterations(200)
            .with_max_steps(TIGHT_MAX_STEPS)
            .with_seed(99)
            .with_scheduler(scheduler),
    );
    engine.run(|rt| {
        build_harness(rt, &ReplConfig::default());
    })
}

#[test]
fn fixed_system_is_clean_under_pct_at_tight_bounds() {
    let report = hunt_fixed(SchedulerKind::Pct { change_points: 2 });
    assert!(
        report.bug.is_none(),
        "spurious violation under pct: {:?}",
        report.bug.map(|b| b.bug)
    );
}

#[test]
fn fixed_system_is_clean_under_delay_bounding_at_tight_bounds() {
    let report = hunt_fixed(SchedulerKind::DelayBounding { delays: 2 });
    assert!(
        report.bug.is_none(),
        "spurious violation under delay-bounding: {:?}",
        report.bug.map(|b| b.bug)
    );
}

#[test]
fn fixed_system_is_clean_under_probabilistic_walk_at_tight_bounds() {
    let report = hunt_fixed(SchedulerKind::ProbabilisticRandom { switch_percent: 10 });
    assert!(
        report.bug.is_none(),
        "spurious violation under the probabilistic walk: {:?}",
        report.bug.map(|b| b.bug)
    );
}

fn hunt_missing_reset(scheduler: SchedulerKind) -> (TestEngine, TestReport) {
    let engine = TestEngine::new(
        TestConfig::new()
            .with_iterations(200)
            .with_max_steps(TIGHT_MAX_STEPS)
            .with_seed(7)
            .with_scheduler(scheduler),
    );
    let report = engine.run(build_missing_reset);
    (engine, report)
}

fn build_missing_reset(rt: &mut Runtime) {
    build_harness(rt, &ReplConfig::with_missing_reset_bug());
}

/// Random scheduling is fair, so its bound verdict stands: the seeded
/// missing-reset bug (the second request is never acknowledged, ever) is
/// reported at the step bound, and the reported trace replays to the same
/// bug.
#[test]
fn genuine_liveness_bug_is_found_under_random_and_replays() {
    let (engine, report) = hunt_missing_reset(SchedulerKind::Random);
    let bug_report = report.bug.expect("the genuine liveness bug must be found");
    assert_eq!(bug_report.bug.kind, BugKind::LivenessViolation);
    assert_eq!(bug_report.bug.step, TIGHT_MAX_STEPS);
    assert_eq!(bug_report.trace.total_step_count(), TIGHT_MAX_STEPS);
    assert_eq!(bug_report.ndc, bug_report.trace.decision_count());
    let replayed = engine
        .replay(&bug_report.trace, build_missing_reset)
        .expect("replay reproduces the liveness violation");
    assert_eq!(replayed.kind, bug_report.bug.kind);
    assert_eq!(replayed.message, bug_report.bug.message);
}

/// The probabilistic walk is starvation-prone, so it takes no liveness
/// verdict at its step bound: the same bug goes unreported under it.
#[test]
fn genuine_liveness_bug_is_not_judged_under_the_probabilistic_walk() {
    let (_, report) = hunt_missing_reset(SchedulerKind::ProbabilisticRandom { switch_percent: 10 });
    assert!(
        report.bug.is_none(),
        "no verdict under an unfair strategy: {:?}",
        report.bug.map(|b| b.bug)
    );
}
