//! The untraced run: set up, then execute the workload's plan pass after pass
//! until the operations have been timed for the seconds asked. Every
//! end-to-end number comes from here; nothing is wrapped, counted or recorded
//! inside the program while it runs.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{geometric_mean, median, percentile};
use crate::workloads::{self, digest, Inputs, Outcome, Workload};

/// Set-up is repeated at least this often, and until it has taken
/// [`SETUP_SECONDS`] in all; the run reports the median.
const SETUP_REPEATS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;
const SETUP_REPEATS_MAX: usize = 25;

/// What one untraced run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Metric name → value: the contract's end-to-end metrics and the
    /// readings only this workload has.
    pub metrics: BTreeMap<&'static str, f64>,
    pub passes: u64,
    /// Operations in one pass and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Executions and steps of one pass.
    pub executions: u64,
    pub steps: u64,
    /// The digest of one pass's exact counts; every pass gave the same.
    pub digest: u64,
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` off Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Builds the inputs and warms up, several times over; returns the last
/// inputs and the median set-up time in seconds.
pub fn set_up(workload: Workload, seed: u64) -> Result<(Inputs, f64), String> {
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let inputs = workloads::prepare(workload, seed)?;
        inputs.warm_up()?;
        times.push(start.elapsed().as_secs_f64());
        let enough = times.len() >= SETUP_REPEATS && times.iter().sum::<f64>() >= SETUP_SECONDS;
        if enough || times.len() >= SETUP_REPEATS_MAX {
            return Ok((inputs, median(&times).expect("set-up ran")));
        }
    }
}

/// What a cell's operations add up to: exact counts from the first pass, and
/// the seconds (median over passes) each was counted in.
#[derive(Clone, Default)]
struct Cell {
    steps: f64,
    step_s: f64,
    executions: f64,
    s: f64,
    op_ms: Vec<f64>,
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let (inputs, setup_s) = set_up(workload, seed)?;
    let plan = inputs.plan();

    // Per operation: its latency and the part of it steps were counted in,
    // once per pass.
    let mut ns: Vec<Vec<f64>> = vec![Vec::new(); plan.len()];
    let mut step_ns: Vec<Vec<f64>> = vec![Vec::new(); plan.len()];
    // The first pass's outcomes: every later pass repeats their exact counts.
    let mut first: Vec<Outcome> = Vec::with_capacity(plan.len());
    let mut first_digest = None;
    let mut timed_ns = 0u64;
    let budget_ns = (seconds * 1e9) as u64;
    let mut passes = 0u64;
    while timed_ns < budget_ns {
        let mut counts = Vec::new();
        for (index, &(_, op)) in plan.iter().enumerate() {
            let outcome = inputs.execute(op)?;
            timed_ns += outcome.ns;
            ns[index].push(outcome.ns as f64);
            step_ns[index].push(outcome.step_ns as f64);
            counts.extend(outcome.counts.iter().copied());
            counts.push(u64::from(outcome.failed));
            if passes == 0 {
                first.push(outcome);
            }
        }
        let this = digest(counts);
        if *first_digest.get_or_insert(this) != this {
            return Err(format!(
                "{}: pass {} gave different exact counts from pass 1 on the same inputs",
                workload.name(),
                passes + 1
            ));
        }
        passes += 1;
    }

    // Every pass does the same work, so an operation's time is the median of
    // its passes. The host this was built on runs a steady speed with spells,
    // a second or two long, of running a fifth *faster*; the quickest pass
    // would report whichever operations happened to catch one.
    let typical = |times: &Vec<f64>| median(times).expect("a pass ran");
    let op_ns: Vec<f64> = ns.iter().map(typical).collect();
    let op_step_ns: Vec<f64> = step_ns.iter().map(typical).collect();

    let cell_count = plan.iter().map(|&(cell, _)| cell + 1).max().unwrap_or(0);
    let mut cells = vec![Cell::default(); cell_count];
    for (index, (&(cell, _), op)) in plan.iter().zip(&first).enumerate() {
        let totals = &mut cells[cell];
        totals.steps += op.steps as f64;
        totals.step_s += op_step_ns[index] / 1e9;
        totals.executions += op.executions as f64;
        totals.s += op_ns[index] / 1e9;
        totals.op_ms.push(op_ns[index] / 1e6);
    }
    let step_rates: Vec<f64> = cells.iter().map(|c| c.steps / c.step_s).collect();
    let exec_rates: Vec<f64> = cells.iter().map(|c| c.executions / c.s).collect();
    // Operation latency: a percentile within each cell, then the geometric
    // mean across cells. A percentile of all operations pooled would sit
    // between two kinds of cell and jump from one to the other with the seed.
    let latency_ms = |p: f64| -> Option<f64> {
        let per_cell: Vec<f64> = cells
            .iter()
            .filter_map(|c| percentile(&c.op_ms, p))
            .collect();
        geometric_mean(&per_cell)
    };

    let attempted = first.len() as u64;
    let failed = first.iter().filter(|op| op.failed).count() as u64;
    let pass_s: f64 = op_ns.iter().sum::<f64>() / 1e9;
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    metrics.insert("setup_s", setup_s);
    metrics.insert(
        "steps_per_s",
        geometric_mean(&step_rates).ok_or("no operation ran")?,
    );
    metrics.insert(
        "execs_per_s",
        geometric_mean(&exec_rates).ok_or("no operation ran")?,
    );
    metrics.insert("op_ms_p50", latency_ms(50.0).ok_or("no operation ran")?);
    metrics.insert(
        "peak_rss_mb",
        peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
    );
    metrics.insert("failed_share", failed as f64 / attempted as f64);
    match workload {
        Workload::BugHunt => {
            let execs_to_bug: Vec<f64> = first
                .iter()
                .filter_map(|op| op.execs_to_bug)
                .map(|n| n as f64)
                .collect();
            // Seconds per 960 hunts: 20 bugs × 48 base seeds, the size the
            // paper's Table 2 grid has here.
            metrics.insert("hunt_s", pass_s / attempted as f64 * 960.0);
            metrics.insert("time_to_bug_ms_p50", metrics["op_ms_p50"]);
            metrics.insert(
                "time_to_bug_ms_p90",
                latency_ms(90.0).ok_or("no operation ran")?,
            );
            metrics.insert(
                "execs_to_bug_gmean",
                geometric_mean(&execs_to_bug).ok_or("no hunt found its bug")?,
            );
        }
        Workload::ShrinkReplay => {
            let (original, minimised) = first
                .iter()
                .filter_map(|op| op.decisions)
                .fold((0, 0), |sum, (before, after)| {
                    (sum.0 + before, sum.1 + after)
                });
            metrics.insert("shrink_s", pass_s);
            metrics.insert("min_ndc_ratio", minimised as f64 / original as f64);
        }
        _ => {}
    }
    Ok(Report {
        metrics,
        passes,
        attempted,
        failed,
        executions: first.iter().map(|op| op.executions).sum(),
        steps: first.iter().map(|op| op.steps).sum(),
        digest: first_digest.expect("a pass ran"),
    })
}
