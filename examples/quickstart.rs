//! Quickstart: systematically test the paper's running example (§2) and find
//! both seeded bugs, then replay the safety bug from its recorded trace.
//!
//! Run with: `cargo run --example quickstart [--shrink]
//! [--faults crash=N,drop=N,...]`

use fast16::cli::{describe_shrink, DebugOptions};
use psharp::prelude::*;
use replsim::{build_harness, ReplConfig};

fn main() {
    let (opts, _) = DebugOptions::from_args();

    // 1. The safety bug: the server counts duplicate replica confirmations,
    //    so it can acknowledge a request before three distinct storage nodes
    //    hold the data.
    let config = ReplConfig::with_duplicate_counting_bug();
    let engine = TestEngine::new(
        opts.apply(
            TestConfig::new()
                .with_iterations(5_000)
                .with_max_steps(2_000)
                .with_seed(1),
        ),
    );
    let report = engine.run(move |rt| {
        build_harness(rt, &config);
    });
    println!("-- duplicate replica counting (safety) --");
    println!("{}", report.summary());
    let bug_report = report.bug.expect("the safety bug is always reachable");
    describe_shrink(&bug_report);

    // The violation comes with a replayable trace: re-executing it
    // deterministically reproduces the same bug.
    let replayed = engine
        .replay(&bug_report.trace, move |rt| {
            build_harness(rt, &ReplConfig::with_duplicate_counting_bug());
        })
        .expect("replay reproduces the violation");
    println!("replayed: {replayed}");
    println!(
        "last steps of the buggy schedule:\n{}",
        bug_report
            .trace
            .render_schedule()
            .lines()
            .rev()
            .take(8)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect::<Vec<_>>()
            .join("\n")
    );

    // 2. The liveness bug: the server never resets its replica counter, so
    //    the client's second request is never acknowledged.
    let config = ReplConfig::with_missing_reset_bug();
    let engine = TestEngine::new(
        opts.apply(
            TestConfig::new()
                .with_iterations(500)
                .with_max_steps(3_000)
                .with_seed(2),
        ),
    );
    let report = engine.run(move |rt| {
        build_harness(rt, &config);
    });
    println!("\n-- missing counter reset (liveness) --");
    println!("{}", report.summary());
    if let Some(bug_report) = &report.bug {
        describe_shrink(bug_report);
    }

    // 3. The fault-induced bug: the storage-node channels are lossy, and a
    //    server that never retransmits to lagging nodes leaves a dropped
    //    replication request unacknowledged forever. The drop is a
    //    first-class scheduler decision — recorded in the trace, replayed
    //    byte-for-byte, and reduced by --shrink to the minimum fault set.
    let config = ReplConfig::with_lost_replication_bug();
    let engine = TestEngine::new(
        opts.apply(
            TestConfig::new()
                .with_iterations(2_000)
                .with_max_steps(2_500)
                .with_seed(21)
                .with_faults(opts.faults_or(config.fault_plan())),
        ),
    );
    let report = engine.run(move |rt| {
        build_harness(rt, &config);
    });
    println!("\n-- lost replication request (fault-induced liveness) --");
    println!("{}", report.summary());
    if let Some(bug_report) = &report.bug {
        println!(
            "injected faults in the buggy execution: {}",
            bug_report.trace.fault_decision_count()
        );
        describe_shrink(bug_report);
    }

    // 4. The fixed system: no violation in a healthy number of executions —
    //    message loss and duplication included (the server retransmits).
    let engine = TestEngine::new(
        TestConfig::new()
            .with_iterations(200)
            .with_max_steps(3_000)
            .with_seed(3)
            .with_faults(ReplConfig::default().fault_plan()),
    );
    let report = engine.run(|rt| {
        build_harness(rt, &ReplConfig::default());
    });
    println!("\n-- fixed system (lossy network) --");
    println!("{}", report.summary());

    // 5. A parallel portfolio run: shard the same safety hunt over all
    //    cores, mixing every scheduling strategy of the default portfolio.
    //    The strategy driving an iteration is decided by the iteration
    //    index, so the run reports the identical (iteration, seed, strategy,
    //    bug) result at any worker count — N workers just get there faster.
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let engine = TestEngine::new(
        TestConfig::new()
            .with_iterations(5_000)
            .with_max_steps(2_000)
            .with_seed(7)
            .with_workers(workers)
            .with_default_portfolio(),
    );
    let report = engine.run(|rt| {
        build_harness(rt, &ReplConfig::with_duplicate_counting_bug());
    });
    println!("\n-- parallel portfolio ({workers} workers) --");
    println!("{}", report.summary());
    println!("{}", report.strategy_table());
}
