//! The two strategies added to the portfolio in PR 3 — delay-bounding and
//! probabilistic random — each find the replication example's seeded safety
//! bug on their own, and a portfolio run over this harness reports a
//! worker-count-independent result.

use psharp::prelude::*;
use replsim::{build_harness, ReplConfig};

fn buggy_config() -> ReplConfig {
    ReplConfig::with_duplicate_counting_bug()
}

fn engine(kind: SchedulerKind) -> TestEngine {
    TestEngine::new(
        TestConfig::new()
            .with_iterations(2_000)
            .with_max_steps(2_000)
            .with_seed(7)
            .with_scheduler(kind),
    )
}

#[test]
fn delay_bounding_finds_the_duplicate_counting_bug() {
    // The duplicate-counting interleaving needs several adversarial
    // preemptions, so it sits beyond a 2-delay budget on this harness; five
    // delays reach it within a handful of executions.
    let config = buggy_config();
    let report = engine(SchedulerKind::DelayBounding { delays: 5 }).run(move |rt| {
        build_harness(rt, &config);
    });
    let bug = report.bug.expect("delay-bounding finds the safety bug");
    assert_eq!(bug.bug.kind, BugKind::SafetyViolation);
    assert_eq!(report.scheduler, "delay");
}

#[test]
fn probabilistic_random_finds_the_duplicate_counting_bug() {
    let config = buggy_config();
    let report = engine(SchedulerKind::ProbabilisticRandom { switch_percent: 10 }).run(move |rt| {
        build_harness(rt, &config);
    });
    let bug = report
        .bug
        .expect("probabilistic random finds the safety bug");
    assert_eq!(bug.bug.kind, BugKind::SafetyViolation);
    assert_eq!(report.scheduler, "prob");
}

#[test]
fn portfolio_run_reports_the_same_bug_at_any_worker_count() {
    let config = buggy_config();
    let base = TestConfig::new()
        .with_iterations(1_000)
        .with_max_steps(2_000)
        .with_seed(7)
        .with_default_portfolio();
    let hunt = |workers| {
        TestEngine::new(base.clone().with_workers(workers)).run(move |rt| {
            build_harness(rt, &config);
        })
    };
    let reference = hunt(1);
    let reference_bug = reference.bug.expect("portfolio finds the safety bug");
    for workers in [2usize, 4] {
        let report = hunt(workers);
        let bug = report.bug.expect("portfolio finds the safety bug");
        assert_eq!(bug.iteration, reference_bug.iteration, "{workers} workers");
        assert_eq!(bug.trace, reference_bug.trace, "{workers} workers");
        assert_eq!(report.scheduler, reference.scheduler, "{workers} workers");
    }
}
