//! Portfolio integration test on the MigratingTable harness: an N-worker
//! portfolio run finds the seeded bug, attributes it to a strategy, and
//! reports its executions/second next to a one-worker run's (the
//! multiplier shows up on multi-core hosts; run with `--nocapture` to see
//! the log line).

use psharp::prelude::*;

use chaintable::ChainConfig;

#[test]
fn portfolio_run_finds_the_seeded_bug_and_reports_throughput() {
    let config = ChainConfig::for_named_bug("DeletePrimaryKey").expect("known bug");
    let base = TestConfig::new()
        .with_iterations(2_000)
        .with_max_steps(10_000)
        .with_seed(11);

    let serial = TestEngine::new(base.clone()).run(move |rt| {
        chaintable::build_harness(rt, &config);
    });

    let parallel = TestEngine::new(base.with_workers(4).with_default_portfolio()).run(move |rt| {
        chaintable::build_harness(rt, &config);
    });

    println!(
        "chaintable DeletePrimaryKey: serial {:.0} exec/s vs portfolio(4 workers) {:.0} exec/s",
        serial.executions_per_second(),
        parallel.executions_per_second()
    );
    println!("{}", parallel.strategy_table());

    assert!(serial.found_bug(), "serial engine finds the seeded bug");
    assert!(
        parallel.found_bug(),
        "portfolio engine finds the seeded bug"
    );
    assert!(parallel.executions_per_second() > 0.0);
    assert_eq!(parallel.workers, 4);
    // The winning strategy is attributed both in the report label and in the
    // per-strategy statistics (rows carry the full description, e.g.
    // "pct(cp=2)" for the "pct" label).
    assert!(parallel
        .per_strategy
        .iter()
        .any(|s| s.scheduler.starts_with(parallel.scheduler) && s.bugs_found > 0));
    // The bug replays from its trace, independent of which worker found it.
    let bug = parallel.bug.expect("found");
    let replayed = TestEngine::new(
        TestConfig::new()
            .with_max_steps(10_000)
            .with_seed(bug.trace.seed),
    )
    .replay(&bug.trace, move |rt| {
        chaintable::build_harness(rt, &config);
    })
    .expect("replay reproduces the portfolio-found bug");
    assert_eq!(replayed.kind, bug.bug.kind);
}

#[test]
fn portfolio_attribution_includes_the_new_strategies_and_is_worker_independent() {
    let config = ChainConfig::for_named_bug("DeletePrimaryKey").expect("known bug");
    let base = TestConfig::new()
        .with_iterations(600)
        .with_max_steps(10_000)
        .with_seed(11)
        .with_default_portfolio();

    let hunt = |workers| {
        TestEngine::new(base.clone().with_workers(workers)).run(move |rt| {
            chaintable::build_harness(rt, &config);
        })
    };
    let serial = hunt(1);
    let expected = serial.bug.as_ref().expect("portfolio finds the seeded bug");

    for workers in [2usize, 4] {
        let parallel = hunt(workers);
        let found = parallel.bug.expect("portfolio finds the seeded bug");
        assert_eq!(found.iteration, expected.iteration, "{workers} workers");
        assert_eq!(found.trace, expected.trace, "{workers} workers");
        assert_eq!(parallel.scheduler, serial.scheduler, "{workers} workers");
    }

    // The attribution rows cover the full 7-strategy default portfolio in
    // portfolio order, including the delay-bounding and probabilistic-random
    // entries added in PR 3.
    let portfolio = SchedulerKind::default_portfolio();
    assert_eq!(serial.per_strategy.len(), portfolio.len());
    for (row, kind) in serial.per_strategy.iter().zip(&portfolio) {
        assert_eq!(row.scheduler, kind.describe());
    }
    assert!(serial.strategy_table().contains("delay(d=2)"));
    assert!(serial.strategy_table().contains("prob(p=10)"));
}
