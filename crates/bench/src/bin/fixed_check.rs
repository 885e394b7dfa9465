//! Verifies that the *fixed* variants of every case study stay clean over a
//! configurable number of executions — the paper's "no bugs were found during
//! 100,000 executions" check after the fixes were applied (§3.6).
//!
//! Usage: `fixed_check [--iterations N] [--workers W|max]
//! [--scheduler random|pct|delay|prob|round-robin|sleep-set|dpor]
//! [--portfolio] [--prefix-share]
//! [--faults default|crash=N,restart=N,drop=N,dup=N]` (defaults: 2,000
//! executions, 1 worker, random scheduling, no faults). A missing, malformed
//! or unknown argument prints `error: ...` and exits with status 2.
//! `--portfolio` verifies under the full default strategy portfolio instead
//! of a single scheduler; `--scheduler sleep-set` (alias `por`) verifies
//! with the sleep-set partial-order-reduction scheduler, covering more
//! distinct behaviors per execution budget (`--scheduler dpor` uses the
//! vector-clock dynamic-POR scheduler instead); `--prefix-share` forks each
//! iteration from a post-setup snapshot of the harness instead of
//! rebuilding it (identical results, cheaper iterations); `--faults`
//! additionally injects environment faults — `--faults default` uses each
//! harness's designed fault budget (crashes for vNext/Fabric/megakv, message
//! loss for replsim, crash+restart for MigratingTable), verifying the *fault
//! tolerance* of the fixed systems, while an explicit plan applies globally.

use bench::{fixed_cases, parse_scheduler, usage_error, EngineArgs, FaultArg};
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
    for case in fixed_cases() {
        let start = std::time::Instant::now();
        let config = base
            .clone()
            .with_max_steps(case.max_steps)
            .with_faults(match faults {
                None => FaultPlan::none(),
                Some(FaultArg::PerHarness) => case.faults,
                Some(FaultArg::Global(plan)) => plan,
            });
        let name = case.name;
        match TestEngine::new(config).run(&case.build).bug {
            None => println!(
                "  {name:<32} clean ({iterations} executions, {}s)",
                bench::seconds(start.elapsed())
            ),
            Some(found) => {
                clean = false;
                println!("  {name:<32} VIOLATION: {}", found.bug);
            }
        }
    }
    if !clean {
        std::process::exit(1);
    }
}
