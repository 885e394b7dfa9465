//! Portfolio coverage of the Fabric case study with the PR 3 strategy set:
//! delay-bounding finds the pipeline configuration bug on its own, and a
//! default-portfolio hunt over the promotion bug is worker-count
//! independent.

use fabric::{build_harness, FabricConfig};
use psharp::prelude::*;

#[test]
fn delay_bounding_finds_the_pipeline_bug() {
    let engine = TestEngine::new(
        TestConfig::new()
            .with_iterations(2_000)
            .with_max_steps(2_000)
            .with_seed(4)
            .with_scheduler(SchedulerKind::DelayBounding { delays: 5 }),
    );
    let config = FabricConfig::with_pipeline_bug();
    let report = engine.run(move |rt| {
        build_harness(rt, &config);
    });
    let bug = report.bug.expect("delay-bounding finds the pipeline bug");
    assert_eq!(bug.bug.kind, BugKind::Panic);
    assert_eq!(report.scheduler, "delay");
}

#[test]
fn portfolio_run_on_the_promotion_bug_is_worker_count_independent() {
    let config = FabricConfig::with_promotion_bug();
    let base = TestConfig::new()
        .with_iterations(1_500)
        .with_max_steps(5_000)
        .with_seed(3)
        .with_faults(config.fault_plan())
        .with_default_portfolio();
    let hunt = |workers| {
        TestEngine::new(base.clone().with_workers(workers)).run(move |rt| {
            build_harness(rt, &config);
        })
    };
    let serial = hunt(1);
    let expected = serial.bug.expect("portfolio finds the promotion bug");
    let parallel = hunt(4);
    let found = parallel.bug.expect("portfolio finds the promotion bug");
    assert_eq!(found.iteration, expected.iteration);
    assert_eq!(found.trace.seed, expected.trace.seed);
    assert_eq!(parallel.scheduler, serial.scheduler);
}
