//! The repo benchmark. Three ways to call it:
//!
//! * **one run** — `--workload NAME --seed N --seconds S --trace 0|1`: what
//!   the driver calls. Sets up, measures one workload for `S` seconds (trace
//!   0) or drives one pass of it by hand with every layer timed (trace 1),
//!   checks the outputs, and prints one JSON object as the last line.
//! * **the full run** — no `--trace`: re-executes itself as one child process
//!   per (workload, repetition), strictly one at a time, in interleaved
//!   rounds, then one traced child per workload; prints every metric by name
//!   with its unit and writes `benchmark/out/results.json` and
//!   `benchmark/out/trace-<workload>.json`.
//! * **`--compare A.json B.json`** — applies each metric's bound to two
//!   `results.json` files.
//!
//! Run it from the repo root; `benchmark/out/` is relative to the working
//! directory.

mod adapter;
mod affinity;
mod alloc;
mod cases;
mod compare;
mod metrics;
mod run;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use adapter::Json;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Where results and traces are written, relative to the working directory.
pub const OUT_DIR: &str = "benchmark/out";
/// Seconds one untraced child of the full run measures for.
const FULL_RUN_SECONDS: f64 = 3.0;
/// Repetitions per workload in the full run.
const FULL_RUN_REPS: usize = 5;
/// The line a child prints its whole report on, for the full run to collect.
const DETAIL_PREFIX: &str = "DETAIL ";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    reps: usize,
    traced_only: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: workloads::ALL.to_vec(),
        seed: 2016,
        seconds: None,
        trace: None,
        reps: FULL_RUN_REPS,
        traced_only: false,
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let workload = Workload::from_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?;
                args.workloads = vec![workload];
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, not {other:?}")),
                });
            }
            "--reps" => {
                args.reps = value("a number")?
                    .parse()
                    .ok()
                    .filter(|reps| (1..=99).contains(reps))
                    .ok_or("--reps needs a number from 1 to 99")?;
            }
            "--traced-only" => args.traced_only = true,
            "--compare" => {
                args.compare = Some((value("two result files")?, value("two result files")?));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::object([
        ("value", Json::Float(value)),
        ("unit", Json::Str(unit.to_string())),
    ])
}

/// The object the driver reads: the last line of a run's standard output.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Json>,
) -> String {
    Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        ("metrics", Json::Object(metrics)),
    ])
    .to_string_compact()
}

/// One untraced run of one workload.
fn untraced(workload: Workload, seed: u64, seconds: f64) -> Result<(), String> {
    let report = run::run(workload, seed, seconds)?;
    println!(
        "{}: {} passes of {} operations ({} failed), {} executions, {} steps; one operation = one {}",
        workload.name(),
        report.passes,
        report.attempted,
        report.failed,
        report.executions,
        report.steps,
        workload.operation()
    );
    for (name, value) in &report.metrics {
        let unit = metrics::end_to_end(name).expect("registered metric").unit;
        println!("  {name:<24} {value:>16.4} {unit}");
    }
    let detail = Json::Object(BTreeMap::from([
        (
            "workload".to_string(),
            Json::Str(workload.name().to_string()),
        ),
        ("seed".to_string(), Json::UInt(seed)),
        ("passes".to_string(), Json::UInt(report.passes)),
        ("attempted".to_string(), Json::UInt(report.attempted)),
        ("failed".to_string(), Json::UInt(report.failed)),
        ("executions".to_string(), Json::UInt(report.executions)),
        ("steps".to_string(), Json::UInt(report.steps)),
        ("digest".to_string(), Json::UInt(report.digest)),
        (
            "metrics".to_string(),
            Json::Object(
                report
                    .metrics
                    .iter()
                    .map(|(name, value)| (name.to_string(), Json::Float(*value)))
                    .collect(),
            ),
        ),
    ]));
    println!("{DETAIL_PREFIX}{}", detail.to_string_compact());
    let contract = metrics::contract_end_to_end()
        .map(|metric| {
            (
                metric.name.to_string(),
                metric_json(report.metrics[metric.name], metric.unit),
            )
        })
        .collect();
    println!(
        "{}",
        result_line(true, report.attempted, report.failed, contract)
    );
    Ok(())
}

/// One traced run of one workload.
fn traced(workload: Workload, seed: u64) -> Result<(), String> {
    let report = traced::run(workload, seed)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/trace-{}.json", workload.name());
    std::fs::write(
        &path,
        report.trace.to_json(workload.name()).to_string_compact(),
    )
    .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("{}: traced; spans in {path}", workload.name());
    let layers = metrics::per_layer();
    for metric in &layers {
        println!(
            "  {:<44} {:>16.4} {}",
            metric.name, report.metrics[&metric.name], metric.unit
        );
    }
    let detail = Json::Object(BTreeMap::from([
        (
            "workload".to_string(),
            Json::Str(workload.name().to_string()),
        ),
        (
            "per_layer".to_string(),
            Json::Object(
                report
                    .metrics
                    .iter()
                    .map(|(name, value)| (name.clone(), Json::Float(*value)))
                    .collect(),
            ),
        ),
    ]));
    println!("{DETAIL_PREFIX}{}", detail.to_string_compact());
    let contract = layers
        .iter()
        .map(|metric| {
            (
                metric.name.clone(),
                metric_json(report.metrics[&metric.name], metric.unit),
            )
        })
        .collect();
    println!(
        "{}",
        result_line(true, report.attempted, report.failed, contract)
    );
    Ok(())
}

/// Runs this program again as a child and returns the report on its `DETAIL`
/// line. One child at a time: the caller waits for it to end.
fn child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) failed: {}",
            workload.name(),
            u8::from(trace),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|line| line.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| format!("{}: the child printed no report", workload.name()))?;
    Json::parse(detail).map_err(|e| format!("{}: unreadable child report: {e}", workload.name()))
}

/// The full run.
fn full(args: &Args) -> Result<(), String> {
    let seconds = args.seconds.unwrap_or(FULL_RUN_SECONDS);
    let mut reports: BTreeMap<&'static str, Vec<Json>> = BTreeMap::new();
    if !args.traced_only {
        for rep in 0..args.reps {
            for &workload in &args.workloads {
                eprintln!("[{}/{}] {}", rep + 1, args.reps, workload.name());
                reports
                    .entry(workload.name())
                    .or_default()
                    .push(child(workload, args.seed, seconds, false)?);
            }
        }
    }
    let mut layers: BTreeMap<&'static str, Json> = BTreeMap::new();
    for &workload in &args.workloads {
        eprintln!("[traced] {}", workload.name());
        layers.insert(workload.name(), child(workload, args.seed, seconds, true)?);
    }
    let results = compare::summarise(args.seed, seconds, &args.workloads, &reports, &layers)?;
    compare::print(&results)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/results.json");
    std::fs::write(&path, results.to_string_pretty())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("\nresults in {path}; traces in {OUT_DIR}/trace-<workload>.json");
    Ok(())
}

fn main() -> ExitCode {
    // A bug the runtime detects as a panic is caught and reported by the
    // runtime; the default hook would also print it (with a symbolised
    // backtrace under RUST_BACKTRACE=1) once per such execution. A panic in
    // the benchmark's own code is still printed, on one line.
    std::panic::set_hook(Box::new(|info| {
        if info
            .location()
            .is_some_and(|at| at.file().contains("benchmark/src"))
        {
            eprintln!("benchmark: {info}");
        }
    }));
    let outcome = parse_args().and_then(|args| match (&args.compare, args.trace) {
        (Some((a, b)), _) => compare::files(a, b),
        (None, Some(trace)) => {
            let [workload] = args.workloads[..] else {
                return Err("one run needs --workload".to_string());
            };
            let seconds = args.seconds.ok_or("one run needs --seconds")?;
            // `host_cores` must see the host before the pin narrows it.
            let cores = workloads::host_cores();
            if workload != Workload::CleanSweepPar && cores > 1 && !affinity::pin_to_one_cpu() {
                eprintln!(
                    "benchmark: could not pin to one CPU; short operations will read noisier"
                );
            }
            if trace {
                traced(workload, args.seed)
            } else {
                untraced(workload, args.seed, seconds)
            }
        }
        (None, None) => full(&args),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
