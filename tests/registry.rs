//! The case-study registry: each case-study crate's `bugs()` and `fixed()`,
//! which `bench::bug_cases()` and `bench::fixed_cases()` concatenate and
//! `table2`, `fixed_check` and the suites read. One table-driven test runs
//! the default portfolio over every registered bug.

use bench::{bug_cases, fixed_cases};
use psharp::prelude::*;

#[test]
fn bug_case_list_covers_all_case_studies() {
    let cases = bug_cases();
    assert_eq!(cases.len(), 20);
    assert_eq!(cases.iter().filter(|c| c.case_study == 0).count(), 1);
    assert_eq!(cases.iter().filter(|c| c.case_study == 1).count(), 1);
    assert_eq!(cases.iter().filter(|c| c.case_study == 2).count(), 12);
    assert_eq!(cases.iter().filter(|c| c.case_study == 3).count(), 2);
    assert_eq!(cases.iter().filter(|c| c.case_study == 4).count(), 4);
    // Exactly one fault-induced bug per case-study crate.
    assert_eq!(cases.iter().filter(|c| !c.faults.is_none()).count(), 5);

    // One fixed system per case study, in case-study order.
    let fixed = fixed_cases();
    let studies: Vec<u8> = fixed.iter().map(|c| c.case_study).collect();
    assert_eq!(studies, [0, 1, 2, 3, 4]);

    let mut names: Vec<&str> = cases.iter().chain(&fixed).map(|c| c.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 25, "registered names are unique");

    // A bug needs no faults or exactly its crate's designed budget, which is
    // the budget its fixed system is registered with.
    for case in &cases {
        let designed = fixed[case.case_study as usize].faults;
        assert!(
            case.faults.is_none() || case.faults == designed,
            "{}: plan {} is neither none nor its crate's {designed}",
            case.name,
            case.faults
        );
    }
}

/// Every registered bug under the default portfolio (seed 2016, 2,000
/// iterations) at 1 and 2 workers: found, with the same winning iteration,
/// seed, strategy and trace at both counts; won by the strategy the iteration
/// index assigns, which its attribution row credits, and by a fair one when
/// the violation is a liveness verdict; and strict replay of the trace
/// reproduces the bug. The attribution rows are the default portfolio, in
/// portfolio order.
#[test]
fn default_portfolio_finds_every_registered_bug_identically_at_1_and_2_workers() {
    let portfolio = SchedulerKind::default_portfolio();
    for case in bug_cases() {
        let name = case.name;
        let config = TestConfig::new()
            .with_iterations(2_000)
            .with_max_steps(case.max_steps)
            .with_seed(2016)
            .with_faults(case.faults)
            .with_default_portfolio();
        let hunt = |workers| TestEngine::new(config.clone().with_workers(workers)).run(&case.build);
        let serial = hunt(1);
        let parallel = hunt(2);
        let expected = serial
            .bug
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: not found at 1 worker"));
        let found = parallel
            .bug
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: not found at 2 workers"));
        assert_eq!(found.iteration, expected.iteration, "{name}");
        assert_eq!(found.trace.seed, expected.trace.seed, "{name}");
        assert_eq!(parallel.scheduler, serial.scheduler, "{name}");
        // Not `assert_eq!`: a mismatch would print thousands of decisions.
        assert!(found.trace == expected.trace, "{name}: traces differ");
        assert_eq!(parallel.workers, 2, "{name}");
        assert!(parallel.executions_per_second() > 0.0, "{name}");

        let winner = config.strategy_for_iteration(expected.iteration);
        let scheduler = winner.build(expected.trace.seed, case.max_steps);
        assert_eq!(scheduler.name(), serial.scheduler, "{name}");
        if expected.bug.kind == BugKind::LivenessViolation {
            assert_eq!(
                scheduler.unfair_prefix_len(),
                None,
                "{name}: won by the unfair {winner:?}"
            );
        }

        let rows: Vec<String> = serial
            .per_strategy
            .iter()
            .map(|row| row.scheduler.clone())
            .collect();
        let kinds: Vec<String> = portfolio.iter().map(|kind| kind.describe()).collect();
        assert_eq!(rows, kinds, "{name}");
        let credited = serial
            .per_strategy
            .iter()
            .find(|row| row.scheduler == winner.describe())
            .is_some_and(|row| row.bugs_found > 0);
        assert!(credited, "{name}: {winner:?} is not credited with the bug");

        let replayed = TestEngine::new(config.clone())
            .replay(&expected.trace, &case.build)
            .unwrap_or_else(|| panic!("{name}: the trace does not replay"));
        assert_eq!(replayed.kind, expected.bug.kind, "{name}");
        assert_eq!(replayed.message, expected.bug.message, "{name}");
    }
}
