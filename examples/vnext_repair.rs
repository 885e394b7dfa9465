//! The Azure Storage vNext case study (§3): find the extent-repair liveness
//! bug that eluded months of stress testing, then show that the fixed Extent
//! Manager passes the same test.
//!
//! Run with: `cargo run --release --example vnext_repair [--shrink]
//! [--faults crash=N,...]`
//!
//! The EN failure that triggers the repair path is injected by the core
//! scheduler as a first-class fault decision (the scenario's default budget
//! is one crash; override with `--faults`).

use fast16::cli::{describe_shrink, DebugOptions};
use psharp::prelude::*;
use vnext::{build_harness, VnextConfig};

fn main() {
    let (opts, _) = DebugOptions::from_args();

    // The buggy Extent Manager accepts sync reports from extent nodes it has
    // already expired, silently "resurrecting" lost replicas so the repair
    // loop never runs. The EN crash that starts the story is a
    // scheduler-injected fault.
    let faults = opts.faults_or(VnextConfig::with_liveness_bug().fault_plan());
    let engine = TestEngine::new(
        opts.apply(
            TestConfig::new()
                .with_iterations(20_000)
                .with_max_steps(3_000)
                .with_seed(2016)
                .with_faults(faults),
        ),
    );
    let report = engine.run(|rt| {
        build_harness(rt, &VnextConfig::with_liveness_bug());
    });
    println!("-- ExtentNodeLivenessViolation (buggy Extent Manager) --");
    println!("{}", report.summary());
    if let Some(bug) = &report.bug {
        println!(
            "the repair monitor stayed hot: {}\n(first buggy execution used {} nondeterministic choices)",
            bug.bug.message, bug.ndc
        );
        describe_shrink(bug);
    }

    // The bug is a liveness verdict at the step bound, so only a fair
    // strategy can report it: PCT (Table 2's other column) is
    // starvation-prone and takes no liveness verdict at the bound.

    // After the fix (ignore sync reports from expired extent nodes), the same
    // harness — crash faults included — runs clean.
    let engine = TestEngine::new(
        TestConfig::new()
            .with_iterations(500)
            .with_max_steps(3_000)
            .with_seed(7)
            .with_faults(VnextConfig::default().fault_plan()),
    );
    let report = engine.run(|rt| {
        build_harness(rt, &VnextConfig::default());
    });
    println!("\n-- fixed Extent Manager --");
    println!("{}", report.summary());
}
