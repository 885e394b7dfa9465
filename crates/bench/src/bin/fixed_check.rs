//! Verifies that the *fixed* variants of every case study stay clean over a
//! configurable number of executions — the paper's "no bugs were found during
//! 100,000 executions" check after the fixes were applied (§3.6).
//!
//! Usage: `fixed_check [--iterations N] [--workers W|max]
//! [--scheduler random|pct|delay|prob|round-robin|sleep-set[:N]|dpor]
//! [--portfolio] [--prefix-share]
//! [--faults default|crash=N,restart=N,drop=N,dup=N]` (defaults: 2,000
//! executions, 1 worker, random scheduling, no faults).
//! `--portfolio` verifies under the full default strategy portfolio instead
//! of a single scheduler; `--scheduler sleep-set` (alias `por`) verifies
//! with the sleep-set partial-order-reduction scheduler, covering more
//! distinct behaviors per execution budget (`sleep-set:N` sets its
//! wake-after-skips fairness knob, and `--scheduler dpor` uses the
//! vector-clock dynamic-POR scheduler instead); `--prefix-share` forks each
//! iteration from a post-setup snapshot of the harness instead of
//! rebuilding it (identical results, cheaper iterations); `--faults`
//! additionally injects environment faults — `--faults default` uses each
//! harness's designed fault budget (crashes for vNext/Fabric/megakv, message
//! loss for replsim, crash+restart for MigratingTable), verifying the *fault
//! tolerance* of the fixed systems, while an explicit plan applies globally.
//!
//! The PR 3 caveat about spurious liveness "violations" under unfair
//! strategies (PCT, delay-bounding, the probabilistic walk) is resolved: the
//! runtime now confirms bounded-horizon liveness verdicts of
//! starvation-prone strategies over a fair grace period, so `--scheduler
//! pct`, `--scheduler delay`, `--scheduler prob` and `--portfolio` runs
//! stay clean on the fixed systems at the default bounds.

use bench::{parse_scheduler, usage_error, verify_fixed_config, EngineArgs, FaultArg};
use psharp::prelude::*;

fn main() {
    let mut args = EngineArgs::new(TestConfig::new().with_iterations(2_000).with_seed(99));
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if args
            .accept(&flag, &mut argv)
            .unwrap_or_else(|message| usage_error(&message))
        {
            continue;
        }
        match flag.as_str() {
            "--scheduler" => {
                let name = argv
                    .next()
                    .unwrap_or_else(|| usage_error("--scheduler requires a name"));
                args.config.scheduler = parse_scheduler(&name).unwrap_or_else(|| {
                    usage_error(&format!("--scheduler: {name:?} is not a scheduler"))
                });
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    let EngineArgs {
        config: base,
        faults,
    } = args;
    let iterations = base.iterations;

    type Build = Box<dyn Fn(&mut psharp::runtime::Runtime) + Send + Sync>;
    let checks: Vec<(&str, Build, usize, FaultPlan)> = vec![
        (
            "replsim (fixed server)",
            Box::new(|rt: &mut psharp::runtime::Runtime| {
                replsim::build_harness(rt, &replsim::ReplConfig::default());
            }),
            2_500,
            replsim::ReplConfig::default().fault_plan(),
        ),
        (
            "vNext extent manager (fixed)",
            Box::new(|rt: &mut psharp::runtime::Runtime| {
                vnext::build_harness(rt, &vnext::VnextConfig::default());
            }),
            3_000,
            vnext::VnextConfig::default().fault_plan(),
        ),
        (
            "MigratingTable (fixed)",
            Box::new(|rt: &mut psharp::runtime::Runtime| {
                chaintable::build_harness(rt, &chaintable::ChainConfig::fixed());
            }),
            10_000,
            chaintable::ChainConfig::fixed().fault_plan(),
        ),
        (
            "Fabric failover (fixed)",
            Box::new(|rt: &mut psharp::runtime::Runtime| {
                fabric::build_harness(rt, &fabric::FabricConfig::default());
            }),
            5_000,
            fabric::FabricConfig::default().fault_plan(),
        ),
        (
            "megakv sharded store (fixed)",
            Box::new(|rt: &mut psharp::runtime::Runtime| {
                megakv::build_harness(rt, &megakv::MegaKvConfig::default());
            }),
            4_000,
            megakv::MegaKvConfig::default().fault_plan(),
        ),
    ];

    let mode = if base.portfolio.is_some() {
        "portfolio".to_string()
    } else {
        base.scheduler.describe()
    };
    let fault_label = match faults {
        None => "no faults".to_string(),
        Some(FaultArg::PerHarness) => "per-harness fault budgets".to_string(),
        Some(FaultArg::Global(plan)) => format!("faults {plan}"),
    };
    println!(
        "Fixed-system verification over {iterations} executions each ({} worker(s), {mode}, {fault_label}):\n",
        base.workers
    );
    let mut clean = true;
    for (name, build, max_steps, harness_faults) in checks {
        let start = std::time::Instant::now();
        let config = base
            .clone()
            .with_max_steps(max_steps)
            .with_faults(match faults {
                None => FaultPlan::none(),
                Some(FaultArg::PerHarness) => harness_faults,
                Some(FaultArg::Global(plan)) => plan,
            });
        match verify_fixed_config(|rt| build(rt), config) {
            None => println!(
                "  {name:<32} clean ({iterations} executions, {}s)",
                bench::seconds(start.elapsed())
            ),
            Some(bug) => {
                clean = false;
                println!("  {name:<32} VIOLATION: {bug}");
            }
        }
    }
    if !clean {
        std::process::exit(1);
    }
}
