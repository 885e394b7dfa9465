//! Portfolio coverage of the vNext liveness bug: the default portfolio
//! hunts the seeded bug deterministically at any worker count, and only a
//! fair strategy's iteration can win it, because only a fair strategy judges
//! liveness at the step bound.

use psharp::prelude::*;
use vnext::{build_harness, VnextConfig};

#[test]
fn portfolio_finds_the_liveness_bug_with_a_fair_strategy() {
    let config = VnextConfig::with_liveness_bug();
    let test_config = TestConfig::new()
        .with_iterations(500)
        .with_max_steps(3_000)
        .with_seed(5)
        .with_faults(config.fault_plan())
        .with_default_portfolio();
    let report = TestEngine::new(test_config.clone()).run(move |rt| {
        build_harness(rt, &config);
    });
    let bug = report.bug.expect("the portfolio finds the bug");
    assert_eq!(bug.bug.kind, BugKind::LivenessViolation);
    let winner = test_config.strategy_for_iteration(bug.iteration);
    let scheduler = winner.build(0, 3_000);
    assert_eq!(scheduler.name(), report.scheduler);
    assert_eq!(
        scheduler.unfair_prefix_len(),
        None,
        "won by the unfair {winner:?}"
    );
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
