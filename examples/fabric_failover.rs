//! The Azure Service Fabric case study (§5): find the promotion-during-copy
//! bug in the modeled replica-management platform, and the CScale-style
//! uninitialized-configuration bug in a service running on top of it.
//!
//! Run with: `cargo run --release --example fabric_failover [--shrink]
//! [--faults crash=N,...]`
//!
//! The primary failure is injected by the core scheduler as a first-class
//! fault decision (the failover scenario's default budget is one crash;
//! override with `--faults`).

use fabric::{build_harness, FabricConfig};
use fast16::cli::{describe_shrink, DebugOptions};
use psharp::prelude::*;

fn main() {
    let (opts, _) = DebugOptions::from_args();

    // Promotion bug: the primary fails while a new secondary is waiting for
    // its state copy; the buggy cluster manager elects that secondary and
    // then also promotes it to an active secondary. The primary crash is a
    // scheduler-injected fault.
    let engine = TestEngine::new(
        opts.apply(
            TestConfig::new()
                .with_iterations(20_000)
                .with_max_steps(5_000)
                .with_seed(2016)
                .with_faults(opts.faults_or(FabricConfig::with_promotion_bug().fault_plan())),
        ),
    );
    let report = engine.run(|rt| {
        build_harness(rt, &FabricConfig::with_promotion_bug());
    });
    println!("-- promotion during pending copy (model assertion) --");
    println!("{}", report.summary());
    if let Some(bug) = &report.bug {
        describe_shrink(bug);
    }

    // The same scenario (crash faults included) with the fixed cluster
    // manager stays clean.
    let engine = TestEngine::new(
        TestConfig::new()
            .with_iterations(1_000)
            .with_max_steps(5_000)
            .with_seed(3)
            .with_faults(FabricConfig::default().fault_plan()),
    );
    let report = engine.run(|rt| {
        build_harness(rt, &FabricConfig::default());
    });
    println!("\n-- fixed failover --");
    println!("{}", report.summary());

    // CScale-style bug: the second pipeline stage dereferences its
    // configuration before it arrives; reported as a panic bug.
    let engine = TestEngine::new(
        opts.apply(
            TestConfig::new()
                .with_iterations(5_000)
                .with_max_steps(2_000)
                .with_seed(4),
        ),
    );
    let report = engine.run(|rt| {
        build_harness(rt, &FabricConfig::with_pipeline_bug());
    });
    println!("\n-- CScale-like uninitialized configuration --");
    println!("{}", report.summary());
    if let Some(bug) = &report.bug {
        describe_shrink(bug);
    }
}
