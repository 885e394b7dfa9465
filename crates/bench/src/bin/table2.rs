//! Regenerates Table 2 of the paper: for every re-introducible bug, whether
//! the random and the priority-based (PCT) schedulers find it, the time to
//! the first buggy execution, and the number of nondeterministic choices in
//! that execution.
//!
//! Usage:
//!
//! ```text
//! table2 [--iterations N] [--seed S]
//!        [--scheduler random|pct|delay|prob|round-robin|sleep-set|dpor|both|all]
//!        [--json PATH] [--workers W] [--portfolio] [--prefix-share]
//!        [--shrink] [--faults crash=N,restart=N,drop=N,dup=N]
//! ```
//!
//! Fault-induced bug cases carry their own fault budget (a crash for the
//! vNext and Fabric failover bugs, message loss for the replsim
//! retransmission bug, crash+restart for the MigratingTable recovery bug) —
//! it is applied automatically. `--faults` overrides every case's budget
//! with one global plan; `--faults none` disables fault injection entirely
//! (the fault-induced bugs then become unreachable by design).
//!
//! `--shrink` delta-debugs every found bug's schedule down to a minimal
//! replayable counterexample (extra `MinNDC` column + `minimized_ndc` /
//! `shrink_time_seconds` / `shrink_candidates` / `shrink_candidate_steps`
//! JSON fields).
//!
//! `--scheduler both` runs the paper's random + PCT pair (the default);
//! `--scheduler all` adds the delay-bounding, probabilistic-random and
//! round-robin ablations as extra rows per bug. `--scheduler sleep-set`
//! (alias `por`) hunts with the sleep-set partial-order-reduction scheduler,
//! which skips interleavings equivalent to ones already explored.
//! `--scheduler dpor` hunts with the vector-clock dynamic-POR scheduler,
//! whose happens-before tracking prunes past the fixed sleep window. A
//! missing, malformed or unknown argument prints `error: ...` and exits
//! with status 2.
//!
//! `--prefix-share` makes every run fork its iterations from a post-setup
//! snapshot of the harness instead of rebuilding it, when the harness
//! supports state cloning (all five case studies do); results are identical,
//! iterations are cheaper.
//!
//! `--portfolio` replaces the per-scheduler columns with one run per bug
//! that mixes the nine-entry default scheduler portfolio (random, PCT with
//! three priority-change budgets, delay-bounding, probabilistic random,
//! round-robin, sleep-set and DPOR) over the iteration space. The strategy
//! driving an iteration is decided by the iteration index, so the reported
//! (iteration, seed, strategy, bug) result is identical at any `--workers`
//! value — including a serial run; the scheduler column reports the
//! strategy that earned the bug.
//!
//! The paper uses 100,000 executions per cell; the default here is 2,000 so
//! the whole table regenerates in minutes on a laptop. Pass `--iterations
//! 100000` for the full-budget run.

use std::fs;

use bench::{
    bug_cases, hunt_with_fault_override, parse_scheduler, usage_error, BugHuntResult, EngineArgs,
    FaultArg,
};
use psharp::json::{Json, ToJson};
use psharp::prelude::{SchedulerKind, TestConfig};

struct Args {
    engine: EngineArgs,
    schedulers: Vec<SchedulerKind>,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        engine: EngineArgs::new(TestConfig::new().with_iterations(2_000).with_seed(2016)),
        schedulers: vec![
            SchedulerKind::Random,
            SchedulerKind::Pct { change_points: 2 },
        ],
        json: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if args
            .engine
            .accept(&flag, &mut argv)
            .unwrap_or_else(|message| usage_error(&message))
        {
            continue;
        }
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} requires a value")))
        };
        match flag.as_str() {
            "--shrink" => args.engine.config.shrink = true,
            "--seed" => {
                let seed = value();
                args.engine.config.seed = seed
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("--seed: {seed:?} is not a number")));
            }
            "--scheduler" => match value().as_str() {
                "both" => {}
                "all" => {
                    // One source of truth for the default parameterizations:
                    // the same parser the single-name path uses.
                    args.schedulers = ["random", "pct", "delay", "prob", "round-robin"]
                        .iter()
                        .map(|name| parse_scheduler(name).expect("known scheduler name"))
                        .collect();
                }
                name => match parse_scheduler(name) {
                    Some(kind) => args.schedulers = vec![kind],
                    None => usage_error(&format!("--scheduler: {name:?} is not a scheduler")),
                },
            },
            "--json" => args.json = Some(value()),
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let base_config = args.engine.config;
    // `--faults` with a plan (including `none`) replaces every case's own
    // fault budget; without it, or with `default`, each case's applies.
    let fault_override = match args.engine.faults {
        Some(FaultArg::Global(plan)) => Some(plan),
        Some(FaultArg::PerHarness) | None => None,
    };
    println!(
        "Table 2: systematic testing results ({} executions per bug and scheduler, seed {}, {} worker(s))\n",
        base_config.iterations, base_config.seed, base_config.workers
    );
    println!("{}", BugHuntResult::table_header());

    let mut results: Vec<BugHuntResult> = Vec::new();
    for case in bug_cases() {
        if base_config.portfolio.is_some() {
            let result = hunt_with_fault_override(&case, base_config.clone(), fault_override);
            println!("{}", result.table_row());
            results.push(result);
        } else {
            for &scheduler in &args.schedulers {
                let result = hunt_with_fault_override(
                    &case,
                    base_config.clone().with_scheduler(scheduler),
                    fault_override,
                );
                println!("{}", result.table_row());
                results.push(result);
            }
        }
    }

    let found = results.iter().filter(|r| r.found).count();
    println!(
        "\n{} of {} (bug, scheduler) cells found the bug within the budget.",
        found,
        results.len()
    );
    if let Some(path) = args.json {
        let json =
            Json::Array(results.iter().map(ToJson::to_json_value).collect()).to_string_pretty();
        fs::write(&path, json).expect("write results file");
        println!("results written to {path}");
    }
}
