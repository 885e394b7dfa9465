//! Portfolio coverage of the vNext liveness bug with the PR 3 strategy set:
//! the default portfolio (now including delay-bounding and probabilistic
//! random) hunts the seeded bug deterministically at any worker count, and
//! the probabilistic-random strategy finds the liveness violation on its own.

use psharp::prelude::*;
use vnext::{build_harness, VnextConfig};

#[test]
fn probabilistic_random_finds_the_liveness_bug() {
    let config = VnextConfig::with_liveness_bug();
    let engine = TestEngine::new(
        TestConfig::new()
            .with_iterations(500)
            .with_max_steps(3_000)
            .with_seed(5)
            .with_faults(config.fault_plan())
            .with_scheduler(SchedulerKind::ProbabilisticRandom { switch_percent: 10 }),
    );
    let report = engine.run(move |rt| {
        build_harness(rt, &config);
    });
    let bug = report.bug.expect("probabilistic random finds the bug");
    assert_eq!(bug.bug.kind, BugKind::LivenessViolation);
    assert_eq!(report.scheduler, "prob");
}

#[test]
fn portfolio_run_is_deterministic_across_worker_counts() {
    let config = VnextConfig::with_liveness_bug();
    let base = TestConfig::new()
        .with_iterations(300)
        .with_max_steps(3_000)
        .with_seed(5)
        .with_faults(config.fault_plan())
        .with_default_portfolio();
    let hunt = |workers| {
        TestEngine::new(base.clone().with_workers(workers)).run(move |rt| {
            build_harness(rt, &config);
        })
    };
    let serial = hunt(1);
    let expected = serial.bug.expect("portfolio finds the liveness bug");
    let parallel = hunt(4);
    let found = parallel.bug.expect("portfolio finds the liveness bug");
    assert_eq!(found.iteration, expected.iteration);
    assert_eq!(found.trace, expected.trace);
    assert_eq!(parallel.scheduler, serial.scheduler);
}
