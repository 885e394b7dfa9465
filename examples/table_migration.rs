//! The Live Table Migration case study (§4): re-introduce named bugs from
//! Table 2 and let the systematic tester find them by comparing the system
//! against the reference model.
//!
//! Run with: `cargo run --release --example table_migration [BugName]
//! [--shrink] [--faults crash=N,restart=N,...]`

use chaintable::{build_harness, named_bugs, ChainConfig};
use fast16::cli::{describe_shrink, DebugOptions};
use psharp::prelude::*;

fn hunt(config: ChainConfig, scheduler: SchedulerKind, opts: DebugOptions) {
    let engine = TestEngine::new(
        opts.apply(
            TestConfig::new()
                .with_iterations(20_000)
                .with_max_steps(10_000)
                .with_seed(2016)
                .with_scheduler(scheduler),
        ),
    );
    let report = engine.run(move |rt| {
        build_harness(rt, &config);
    });
    println!("  [{}] {}", scheduler.label(), report.summary());
    if let Some(bug) = &report.bug {
        describe_shrink(bug);
    }
}

fn main() {
    let (opts, rest) = DebugOptions::from_args();
    let only: Option<String> = rest.into_iter().next();

    for (name, config) in named_bugs() {
        if let Some(filter) = &only {
            if name != filter {
                continue;
            }
        }
        println!("-- {name} --");
        hunt(config, SchedulerKind::Random, opts);
        hunt(config, SchedulerKind::Pct { change_points: 2 }, opts);
    }

    // The fault-induced recovery bug: a migrator crash-restart that skips
    // the interrupted plan step. The crash and restart are first-class
    // scheduler decisions under the configured fault budget.
    if only.is_none() || only.as_deref() == Some("MigratorRestartSkipsStep") {
        let config = ChainConfig::with_restart_bug();
        println!("-- MigratorRestartSkipsStep (fault-induced) --");
        let engine = TestEngine::new(
            opts.apply(
                TestConfig::new()
                    .with_iterations(20_000)
                    .with_max_steps(10_000)
                    .with_seed(29)
                    .with_faults(opts.faults_or(config.fault_plan())),
            ),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        println!("  [random+faults] {}", report.summary());
        if let Some(bug) = &report.bug {
            println!(
                "  injected faults in the buggy execution: {}",
                bug.trace.fault_decision_count()
            );
            describe_shrink(bug);
        }
    }

    println!("-- fixed MigratingTable (crash-restart faults included) --");
    let engine = TestEngine::new(
        TestConfig::new()
            .with_iterations(2_000)
            .with_max_steps(10_000)
            .with_seed(7)
            .with_faults(ChainConfig::fixed().fault_plan()),
    );
    let report = engine.run(|rt| {
        build_harness(rt, &ChainConfig::fixed());
    });
    println!("  {}", report.summary());
}
