//! Determinism of the work-stealing engine's first-bug selection: whatever
//! the worker count, the reported bug must be the one at the lowest
//! iteration index — i.e. exactly the bug a one-worker run reports — with an
//! identical seed, trace and message.

use psharp::prelude::*;

/// A harness where many iterations are buggy (≈1 in 8), so under parallel
/// exploration several workers race to find *different* buggy iterations and
/// temporally-first selection would be nondeterministic.
fn frequently_buggy(rt: &mut Runtime) {
    struct Sometimes;
    impl Machine for Sometimes {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if ctx.random_index(8) == 3 {
                ctx.report_bug(BugKind::SafetyViolation, "unlucky draw");
            }
        }
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
    }
    rt.create_machine(Sometimes);
}

fn config() -> TestConfig {
    TestConfig::new().with_iterations(400).with_seed(17)
}

#[test]
fn work_stealing_reports_the_serial_first_bug_at_any_worker_count() {
    let serial = TestEngine::new(config()).run(frequently_buggy);
    let expected = serial.bug.expect("serial run finds a bug");

    for workers in [2usize, 4, 8] {
        let parallel = TestEngine::new(config().with_workers(workers)).run(frequently_buggy);
        let found = parallel
            .bug
            .unwrap_or_else(|| panic!("{workers}-worker run must find the bug"));
        assert_eq!(
            found.iteration, expected.iteration,
            "{workers} workers: lowest buggy iteration wins"
        );
        assert_eq!(found.trace, expected.trace, "{workers} workers: same trace");
        assert_eq!(
            found.trace.seed, expected.trace.seed,
            "{workers} workers: same seed"
        );
        assert_eq!(
            found.bug.message, expected.bug.message,
            "{workers} workers: same bug"
        );
    }
}

#[test]
fn repeated_parallel_runs_agree_with_each_other() {
    let reference = TestEngine::new(config().with_workers(4)).run(frequently_buggy);
    let reference = reference.bug.expect("bug found");
    for _ in 0..3 {
        let again = TestEngine::new(config().with_workers(4)).run(frequently_buggy);
        let again = again.bug.expect("bug found");
        assert_eq!(again.iteration, reference.iteration);
        assert_eq!(again.trace, reference.trace);
    }
}

/// A harness for the first-bug handoff: `on_start` yields the OS thread a
/// drawn 0–3 times, so workers finish their iterations in a shuffled order,
/// and then reports a bug on a 1-in-4 draw, so several workers hold a buggy
/// iteration at once and race to publish it.
fn yielding_buggy(rt: &mut Runtime) {
    struct Yielder;
    impl Machine for Yielder {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..ctx.random_index(4) {
                std::thread::yield_now();
            }
            if ctx.random_index(4) == 0 {
                ctx.report_bug(BugKind::SafetyViolation, "unlucky draw");
            }
        }
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
    }
    rt.create_machine(Yielder);
}

#[test]
fn first_bug_handoff_has_one_winner_and_it_is_the_lowest_iteration() {
    for seed in 0..30 {
        let config = TestConfig::new().with_iterations(200).with_seed(seed);
        let reference = TestEngine::new(config.clone()).run(yielding_buggy);
        let expected = reference.bug.expect("a 1-in-4 bug within 200 iterations");
        let expected = (
            expected.iteration,
            expected.trace.seed,
            expected.trace,
            expected.bug.message,
        );
        for workers in [2usize, 8] {
            for repetition in 0..5 {
                let context = format!("seed {seed}, {workers} workers, repetition {repetition}");
                let report =
                    TestEngine::new(config.clone().with_workers(workers)).run(yielding_buggy);
                let found = report
                    .bug
                    .unwrap_or_else(|| panic!("{context}: the bug was lost"));
                assert!(
                    report.iterations_run > found.iteration,
                    "{context}: an iteration below the winner did not complete"
                );
                let found = (
                    found.iteration,
                    found.trace.seed,
                    found.trace,
                    found.bug.message,
                );
                assert_eq!(found, expected, "{context}");
            }
        }
    }
}

/// A harness whose bug only a schedule-sensitive strategy mix surfaces
/// cheaply: any strategy can hit it (a 1-in-12 value draw), so in portfolio
/// mode different strategies race to win different iterations and
/// worker-order-dependent strategy assignment would report different
/// (iteration, strategy, bug) results run to run.
fn occasionally_buggy(rt: &mut Runtime) {
    struct Sometimes;
    impl Machine for Sometimes {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if ctx.random_index(12) == 5 {
                ctx.report_bug(BugKind::SafetyViolation, "unlucky draw");
            }
        }
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
    }
    rt.create_machine(Sometimes);
}

fn portfolio_config() -> TestConfig {
    TestConfig::new()
        .with_iterations(400)
        .with_seed(23)
        .with_default_portfolio()
}

#[test]
fn portfolio_run_reports_the_serial_result_at_any_worker_count() {
    // The serial engine is the reference: per-iteration strategy assignment
    // makes the portfolio deterministic, so every worker count must
    // reproduce the serial (iteration, seed, strategy, bug) result exactly.
    let serial = TestEngine::new(portfolio_config()).run(occasionally_buggy);
    let expected = serial.bug.expect("serial portfolio run finds a bug");

    for workers in [2usize, 8] {
        let parallel =
            TestEngine::new(portfolio_config().with_workers(workers)).run(occasionally_buggy);
        let found = parallel
            .bug
            .unwrap_or_else(|| panic!("{workers}-worker portfolio run must find the bug"));
        assert_eq!(
            found.iteration, expected.iteration,
            "{workers} workers: same winning iteration"
        );
        assert_eq!(
            found.trace.seed, expected.trace.seed,
            "{workers} workers: same seed"
        );
        assert_eq!(found.trace, expected.trace, "{workers} workers: same trace");
        assert_eq!(
            parallel.scheduler, serial.scheduler,
            "{workers} workers: same winning strategy label"
        );
        assert_eq!(
            found.bug.message, expected.bug.message,
            "{workers} workers: same bug"
        );
    }
}

#[test]
fn pooled_runtime_reports_are_identical_at_1_2_4_8_workers() {
    // Per-worker runtime pooling (`Runtime::reset` between iterations) must
    // not leak any state — machines, mailbox contents, fault markings, name
    // table — from one iteration into the next: the full report, including
    // the shrink pass over the winner, is the serial one at every worker
    // count, and the minimized counterexample is byte-identical.
    let config = || portfolio_config().with_shrink(true);
    let serial = TestEngine::new(config()).run(occasionally_buggy);
    let expected = serial.bug.as_ref().expect("serial run finds a bug");
    let expected_min = expected.minimized().expect("shrink pass ran");

    for workers in [2usize, 4, 8] {
        let parallel = TestEngine::new(config().with_workers(workers)).run(occasionally_buggy);
        let found = parallel
            .bug
            .as_ref()
            .unwrap_or_else(|| panic!("{workers}-worker run must find the bug"));
        assert_eq!(
            found.iteration, expected.iteration,
            "{workers} workers: same winning iteration"
        );
        assert_eq!(
            found.trace.seed, expected.trace.seed,
            "{workers} workers: same seed"
        );
        assert_eq!(found.trace, expected.trace, "{workers} workers: same trace");
        assert_eq!(
            parallel.scheduler, serial.scheduler,
            "{workers} workers: same winning strategy"
        );
        assert_eq!(
            found.bug.message, expected.bug.message,
            "{workers} workers: same bug"
        );
        let minimized = found.minimized().expect("shrink pass ran");
        assert_eq!(
            minimized, expected_min,
            "{workers} workers: same minimized counterexample"
        );
        assert_eq!(
            minimized.to_json().expect("serializable"),
            expected_min.to_json().expect("serializable"),
            "{workers} workers: byte-identical minimized trace"
        );
    }
}

#[test]
fn bug_free_portfolio_reports_are_identical_at_any_worker_count() {
    // Without a bug to race for, the whole TestReport — winning label,
    // counters and the per-strategy attribution rows — must be identical for
    // 1, 2 and 8 workers and match the serial engine.
    fn clean(rt: &mut Runtime) {
        struct Quiet;
        impl Machine for Quiet {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let _ = ctx.random_bool();
                let _ = ctx.random_index(4);
            }
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        rt.create_machine(Quiet);
    }
    let base = || {
        TestConfig::new()
            .with_iterations(300)
            .with_seed(41)
            .with_default_portfolio()
    };
    let serial = TestEngine::new(base()).run(clean);
    assert!(!serial.found_bug());
    assert_eq!(serial.scheduler, "portfolio");

    for workers in [2usize, 8] {
        let parallel = TestEngine::new(base().with_workers(workers)).run(clean);
        assert_eq!(
            parallel.iterations_run, serial.iterations_run,
            "{workers} workers"
        );
        assert_eq!(
            parallel.total_steps, serial.total_steps,
            "{workers} workers"
        );
        assert_eq!(parallel.scheduler, serial.scheduler, "{workers} workers");
        assert_eq!(
            parallel.per_strategy, serial.per_strategy,
            "{workers} workers: identical per-strategy attribution"
        );
    }
}
