//! The one file that names `psharp` and the case-study crates. Everything else
//! in the benchmark works with the plain types defined here, so a change to
//! the program's API is a change to this file alone.
//!
//! Four ways into the program:
//! * [`engine_run`] — `ParallelTestEngine::new(cfg).run(build)`, what a user
//!   of the tester calls; the untraced end-to-end numbers come from here;
//! * [`manual_run`] — the same iterations (same seeds, same strategies) driven
//!   by hand through `Runtime::{new,reset,restore_from,snapshot,run,take_trace}`
//!   with every phase timed and the scheduler wrapped in a [`TimedScheduler`];
//!   the per-layer numbers come from here;
//! * [`strict_replay`] and [`shrink`] — the replay side of the same layers;
//! * [`build_ring`] — the benchmark's own harness, whose handlers do nothing
//!   but count and so leave the step loop, scheduler and trace as the cost.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use psharp::prelude::*;
use psharp::scheduler::{ReplayScheduler, Scheduler};
use psharp::shrink::same_bug;

pub use psharp::json::{Json, JsonError};

use crate::cases::{Case, Faults, Harness};

/// How iterations are assigned a strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategies {
    /// The default 9-entry portfolio, an entry drawn per iteration.
    Portfolio,
    /// A one-entry portfolio holding entry `n` of the default portfolio
    /// (`cases::PORTFOLIO_LABELS`): every iteration runs that entry, on the
    /// engine's portfolio path.
    Entry(usize),
    /// One strategy, by its portfolio label (`cases::STRATEGY_LABELS`), with
    /// the parameters `table2 --scheduler` gives it.
    Single(&'static str),
}

/// One engine run: a harness, its bounds, and the exploration budget.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub case: Case,
    pub seed: u64,
    pub iterations: u64,
    pub workers: usize,
    pub strategies: Strategies,
    pub prefix_share: bool,
}

/// A found violation with the trace that reproduces it.
#[derive(Debug, Clone)]
pub struct Witness {
    bug: Bug,
    trace: Trace,
}

impl Witness {
    pub fn decisions(&self) -> usize {
        self.trace.decision_count()
    }

    pub fn describe(&self) -> String {
        self.bug.to_string()
    }

    /// The trace as JSON text and back; `None` when the round trip fails or
    /// changes the trace.
    pub fn json_roundtrip(&self) -> Option<usize> {
        let text = self.trace.to_json().ok()?;
        let back = Trace::from_json(&text).ok()?;
        (back == self.trace).then_some(text.len())
    }
}

/// The first violation of a run.
#[derive(Debug, Clone)]
pub struct Found {
    pub iteration: u64,
    pub seed: u64,
    pub strategy: &'static str,
    pub witness: Witness,
}

/// One row of per-strategy attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyRow {
    pub strategy: String,
    pub executions: u64,
    pub steps: u64,
    pub pruned: u64,
    pub races: u64,
    pub backtracks: u64,
}

/// What a run reports, engine-driven or hand-driven.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub found: Option<Found>,
    pub executions: u64,
    pub steps: u64,
    pub rows: Vec<StrategyRow>,
}

fn fault_plan(faults: Faults) -> FaultPlan {
    FaultPlan::new()
        .with_crashes(faults.crashes)
        .with_restarts(faults.restarts)
        .with_drops(faults.drops)
        .with_duplicates(faults.duplicates)
}

fn strategy_kind(label: &str) -> SchedulerKind {
    match label {
        "random" => SchedulerKind::Random,
        "pct" => SchedulerKind::Pct { change_points: 2 },
        "delay" => SchedulerKind::DelayBounding { delays: 2 },
        "prob" => SchedulerKind::ProbabilisticRandom { switch_percent: 10 },
        "round-robin" => SchedulerKind::RoundRobin,
        "sleep-set" => SchedulerKind::sleep_set(),
        "dpor" => SchedulerKind::Dpor,
        other => panic!("unknown strategy label {other:?}"),
    }
}

fn test_config(spec: &RunSpec) -> TestConfig {
    let config = TestConfig::new()
        .with_iterations(spec.iterations)
        .with_max_steps(spec.case.max_steps)
        .with_seed(spec.seed)
        .with_workers(spec.workers)
        .with_faults(fault_plan(spec.case.faults))
        .with_prefix_sharing(spec.prefix_share);
    match spec.strategies {
        Strategies::Portfolio => config.with_default_portfolio(),
        Strategies::Entry(entry) => {
            config.with_portfolio(vec![SchedulerKind::default_portfolio()[entry]])
        }
        Strategies::Single(label) => config.with_scheduler(strategy_kind(label)),
    }
}

fn runtime_config(config: &TestConfig, trace_mode: TraceMode) -> RuntimeConfig {
    RuntimeConfig {
        max_steps: config.max_steps,
        check_liveness_at_quiescence: config.check_liveness_at_quiescence,
        catch_panics: config.catch_panics,
        trace_mode,
        faults: config.faults,
    }
}

/// Builds `harness` into `rt`.
pub fn build(harness: Harness, rt: &mut Runtime) {
    use Harness::*;
    match harness {
        ReplLostReplication => {
            replsim::build_harness(rt, &replsim::ReplConfig::with_lost_replication_bug());
        }
        ReplFixed => {
            replsim::build_harness(rt, &replsim::ReplConfig::default());
        }
        VnextLiveness => {
            vnext::build_harness(rt, &vnext::VnextConfig::with_liveness_bug());
        }
        VnextFixed => {
            vnext::build_harness(rt, &vnext::VnextConfig::default());
        }
        ChainNamed(name) => {
            let config = chaintable::ChainConfig::for_named_bug(name)
                .unwrap_or_else(|| panic!("chaintable has no bug named {name:?}"));
            chaintable::build_harness(rt, &config);
        }
        ChainRestart => {
            chaintable::build_harness(rt, &chaintable::ChainConfig::with_restart_bug());
        }
        ChainFixed => {
            chaintable::build_harness(rt, &chaintable::ChainConfig::fixed());
        }
        FabricPromotion => {
            fabric::build_harness(rt, &fabric::FabricConfig::with_promotion_bug());
        }
        FabricPipeline => {
            fabric::build_harness(rt, &fabric::FabricConfig::with_pipeline_bug());
        }
        FabricFixed => {
            fabric::build_harness(rt, &fabric::FabricConfig::default());
        }
        KvAliasing => {
            megakv::build_harness(rt, &megakv::MegaKvConfig::with_shard_aliasing_bug());
        }
        KvSplit => {
            megakv::build_harness(rt, &megakv::MegaKvConfig::with_split_bug());
        }
        KvRebalance => {
            megakv::build_harness(rt, &megakv::MegaKvConfig::with_rebalance_bug());
        }
        KvPromote => {
            megakv::build_harness(rt, &megakv::MegaKvConfig::with_promote_lost_write_bug());
        }
        KvFixed => {
            megakv::build_harness(rt, &megakv::MegaKvConfig::default());
        }
        KvScale { machines, pairs } => {
            megakv::build_harness(rt, &megakv::MegaKvConfig::scale(machines, pairs));
        }
        Ring => build_ring(rt),
    }
}

fn rows_of(report: &TestReport) -> Vec<StrategyRow> {
    report
        .per_strategy
        .iter()
        .map(|row| StrategyRow {
            strategy: row.scheduler.clone(),
            executions: row.iterations_run,
            steps: row.total_steps,
            pruned: row.pruned_schedules,
            races: row.races_detected,
            backtracks: row.backtracks_scheduled,
        })
        .collect()
}

/// Runs `spec` the way a user does: one `ParallelTestEngine` run.
pub fn engine_run(spec: &RunSpec) -> RunResult {
    let harness = spec.case.harness;
    let report = ParallelTestEngine::new(test_config(spec)).run(move |rt| build(harness, rt));
    let rows = rows_of(&report);
    RunResult {
        executions: report.iterations_run,
        steps: report.total_steps,
        rows,
        found: report.bug.map(|found| Found {
            iteration: found.iteration,
            seed: found.trace.seed,
            strategy: report.scheduler,
            witness: Witness {
                bug: found.bug,
                trace: found.trace,
            },
        }),
    }
}

/// What a strict replay of a witness did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replay {
    /// The replay ended in the witness's bug and never left the recording.
    pub same_bug: bool,
    pub steps: u64,
}

/// Replays `witness` decision for decision on a fresh runtime with a `Full`
/// trace, under the bounds of `case`.
pub fn strict_replay(case: &Case, witness: &Witness) -> Replay {
    let config = TestConfig::new()
        .with_max_steps(case.max_steps)
        .with_faults(fault_plan(case.faults));
    let scheduler = Box::new(ReplayScheduler::from_trace(&witness.trace));
    let mut rt = Runtime::new(
        scheduler,
        runtime_config(&config, TraceMode::Full),
        witness.trace.seed,
    );
    build(case.harness, &mut rt);
    let outcome = rt.run();
    let same =
        matches!(&outcome, ExecutionOutcome::BugFound(found) if same_bug(found, &witness.bug));
    Replay {
        same_bug: same && rt.replay_error().is_none(),
        steps: rt.steps() as u64,
    }
}

/// What minimising a witness did. Candidate executions and their steps are
/// counted through the setup closure, which `shrink_trace` calls once per
/// candidate.
#[derive(Debug, Clone)]
pub struct Shrunk {
    pub original_decisions: usize,
    pub minimized_decisions: usize,
    pub candidates: u64,
    pub accepted: u64,
    /// Runtimes the pass built: candidates plus the final strict recordings.
    pub setups: u64,
    pub minimized: Witness,
}

/// Delta-debugs `witness` with `TestConfig::shrink_config()` under the bounds
/// of `case`.
pub fn shrink(case: &Case, witness: &Witness) -> Shrunk {
    let config = TestConfig::new()
        .with_max_steps(case.max_steps)
        .with_faults(fault_plan(case.faults));
    let setups = AtomicU64::new(0);
    let harness = case.harness;
    let setup = |rt: &mut Runtime| {
        setups.fetch_add(1, Ordering::Relaxed);
        build(harness, rt);
    };
    let report = shrink_trace(
        &config.shrink_config(),
        &witness.bug,
        &witness.trace,
        &setup,
    );
    Shrunk {
        original_decisions: report.original_decisions,
        minimized_decisions: report.minimized_decisions,
        candidates: report.candidates_tried,
        accepted: report.candidates_reproduced,
        setups: setups.load(Ordering::Relaxed),
        minimized: Witness {
            bug: witness.bug.clone(),
            trace: report.minimized,
        },
    }
}

/// Counts and nanoseconds of one execution's scheduler calls, kept by
/// [`TimedScheduler`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerCounts {
    pub pick_calls: u64,
    pub pick_ns: u64,
    /// Sum over picks of the enabled-set width offered.
    pub width_sum: u64,
    pub note_calls: u64,
    pub note_ns: u64,
    pub fault_calls: u64,
    pub fault_ns: u64,
    pub faults_injected: u64,
    pub choice_calls: u64,
    pub choice_ns: u64,
}

impl SchedulerCounts {
    pub fn total_ns(&self) -> u64 {
        self.pick_ns + self.note_ns + self.fault_ns + self.choice_ns
    }

    pub fn add(&mut self, other: &SchedulerCounts) {
        self.pick_calls += other.pick_calls;
        self.pick_ns += other.pick_ns;
        self.width_sum += other.width_sum;
        self.note_calls += other.note_calls;
        self.note_ns += other.note_ns;
        self.fault_calls += other.fault_calls;
        self.fault_ns += other.fault_ns;
        self.faults_injected += other.faults_injected;
        self.choice_calls += other.choice_calls;
        self.choice_ns += other.choice_ns;
    }
}

/// Where a [`TimedScheduler`] and its snapshot clones keep their counts. The
/// runtime owns the scheduler box, so the driver reads the counts through
/// this shared cell after `run` returns. One thread writes and reads it; the
/// mutex is uncontended and is there because `Scheduler` must be `Sync`.
type SharedCounts = Arc<std::sync::Mutex<SchedulerCounts>>;

/// A `Scheduler` that forwards every call to the wrapped strategy and times
/// the four kinds of call the step loop makes. Counts are kept in the wrapper
/// and added to the shared cell when it is dropped; `manual_run` swaps the
/// strategy out of the runtime after each execution to make that happen.
struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    counts: SchedulerCounts,
    shared: SharedCounts,
}

impl TimedScheduler {
    fn wrap(inner: Box<dyn Scheduler>, shared: &SharedCounts) -> Box<dyn Scheduler> {
        Box::new(TimedScheduler {
            inner,
            counts: SchedulerCounts::default(),
            shared: Arc::clone(shared),
        })
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        if let Ok(mut shared) = self.shared.lock() {
            shared.add(&self.counts);
        }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_machine(&mut self, enabled: &[MachineId], step: usize) -> MachineId {
        let start = Instant::now();
        let picked = self.inner.next_machine(enabled, step);
        self.counts.pick_ns += start.elapsed().as_nanos() as u64;
        self.counts.pick_calls += 1;
        self.counts.width_sum += enabled.len() as u64;
        picked
    }

    fn next_bool(&mut self) -> bool {
        let start = Instant::now();
        let value = self.inner.next_bool();
        self.counts.choice_ns += start.elapsed().as_nanos() as u64;
        self.counts.choice_calls += 1;
        value
    }

    fn next_int(&mut self, bound: usize) -> usize {
        let start = Instant::now();
        let value = self.inner.next_int(bound);
        self.counts.choice_ns += start.elapsed().as_nanos() as u64;
        self.counts.choice_calls += 1;
        value
    }

    fn next_fault(&mut self, candidates: &[Fault], step: usize) -> Option<Fault> {
        let start = Instant::now();
        let fault = self.inner.next_fault(candidates, step);
        self.counts.fault_ns += start.elapsed().as_nanos() as u64;
        self.counts.fault_calls += 1;
        self.counts.faults_injected += u64::from(fault.is_some());
        fault
    }

    fn replay_error(&self) -> Option<&psharp::error::ReplayError> {
        self.inner.replay_error()
    }

    fn unfair_prefix_len(&self) -> Option<usize> {
        self.inner.unfair_prefix_len()
    }

    fn fair_step_spacing(&self, machines: usize) -> usize {
        self.inner.fair_step_spacing(machines)
    }

    fn note_footprint(&mut self, footprint: &StepFootprint) {
        let start = Instant::now();
        self.inner.note_footprint(footprint);
        self.counts.note_ns += start.elapsed().as_nanos() as u64;
        self.counts.note_calls += 1;
    }

    fn pruned_equivalents(&self) -> u64 {
        self.inner.pruned_equivalents()
    }

    fn races_detected(&self) -> u64 {
        self.inner.races_detected()
    }

    fn backtracks_scheduled(&self) -> u64 {
        self.inner.backtracks_scheduled()
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        // A snapshot's copy starts from zero so that a fork never publishes
        // the calls its origin already counted.
        Some(TimedScheduler::wrap(self.inner.clone_box()?, &self.shared))
    }
}

/// Indices into [`PHASES`] and [`ExecRecord::phases`].
pub const SCHED_BUILD: usize = 0;
pub const RESET: usize = 1;
pub const RESTORE: usize = 2;
pub const SETUP: usize = 3;
pub const RUN: usize = 4;
pub const TAKE_TRACE: usize = 5;

/// The phases of one hand-driven execution, in the order they run.
pub const PHASES: [&str; 6] = [
    "sched_build",
    "reset",
    "restore",
    "setup",
    "run",
    "take_trace",
];

/// One hand-driven execution: under which strategy, what it did, and when each phase began and ended (nanoseconds since the `epoch`
/// given to [`manual_run`]; a phase that did not run has `(0, 0)`).
#[derive(Debug, Clone, Default)]
pub struct ExecRecord {
    pub strategy: &'static str,
    pub steps: u64,
    pub decisions: u64,
    pub phases: [(u64, u64); 6],
    /// Time inside `setup` spent in `Runtime::snapshot` (prefix sharing).
    pub snapshot_ns: u64,
    /// Machines the execution dirtied relative to the snapshot it forked from.
    pub dirty: u64,
    pub scheduler: SchedulerCounts,
    pub pruned: u64,
    pub races: u64,
    pub backtracks: u64,
    pub found: bool,
}

impl ExecRecord {
    pub fn phase_ns(&self, phase: usize) -> u64 {
        self.phases[phase].1 - self.phases[phase].0
    }
}

/// Runs `spec` by hand: the iterations, seeds and strategies the engine would
/// run (`seed_for_iteration`, `strategy_for_iteration`), one pooled runtime,
/// stop at the first violation. With `timed`, the scheduler is wrapped, every
/// phase is timed against `epoch`, and `on_exec` sees one record per
/// execution; without, the loop makes the same program calls and nothing else,
/// which is the baseline `engine.overhead_ns_per_exec` and
/// `bench.trace_overhead_pct` are taken against. Single worker only.
pub fn manual_run(
    spec: &RunSpec,
    timed: bool,
    epoch: Instant,
    mut on_exec: impl FnMut(&ExecRecord),
) -> RunResult {
    let config = test_config(spec);
    let rc = runtime_config(&config, config.effective_trace_mode());
    let shared: SharedCounts = Arc::default();
    let since = |at: Instant| at.duration_since(epoch).as_nanos() as u64;
    let mut pooled: Option<Runtime> = None;
    let mut snapshot: Option<RuntimeSnapshot> = None;
    let mut snapshot_failed = false;
    let mut rows: Vec<StrategyRow> = Vec::new();
    let mut result = RunResult {
        found: None,
        executions: 0,
        steps: 0,
        rows: Vec::new(),
    };
    for iteration in 0..spec.iterations {
        let mut record = ExecRecord::default();
        let seed = config.seed_for_iteration(iteration);
        let kind = config.strategy_for_iteration(iteration);
        record.strategy = kind.label();

        let t0 = Instant::now();
        let mut scheduler = kind.build(seed, config.max_steps);
        if timed {
            scheduler = TimedScheduler::wrap(scheduler, &shared);
        }
        let t1 = Instant::now();
        record.phases[SCHED_BUILD] = (since(t0), since(t1));

        let share = spec.prefix_share && !snapshot_failed;
        let (mut rt, needs_setup) = match (share, &snapshot, pooled.take()) {
            (true, Some(snapshot), Some(mut rt)) => {
                record.dirty = rt.dirty_machine_count() as u64;
                rt.restore_from(snapshot);
                rt.set_scheduler(scheduler);
                rt.reseed(seed);
                record.phases[RESTORE] = (since(t1), since(Instant::now()));
                (rt, false)
            }
            (_, _, Some(mut rt)) => {
                rt.reset(scheduler, rc.clone(), seed);
                record.phases[RESET] = (since(t1), since(Instant::now()));
                (rt, true)
            }
            (_, _, None) => {
                let rt = Runtime::new(scheduler, rc.clone(), seed);
                record.phases[RESET] = (since(t1), since(Instant::now()));
                (rt, true)
            }
        };
        if needs_setup {
            let t2 = Instant::now();
            build(spec.case.harness, &mut rt);
            if share {
                let t_snap = Instant::now();
                match rt.snapshot() {
                    Some(taken) => snapshot = Some(taken),
                    None => snapshot_failed = true,
                }
                record.snapshot_ns = t_snap.elapsed().as_nanos() as u64;
            }
            record.phases[SETUP] = (since(t2), since(Instant::now()));
        }

        let t3 = Instant::now();
        let outcome = rt.run();
        let t4 = Instant::now();
        record.phases[RUN] = (since(t3), since(t4));
        record.steps = rt.steps() as u64;
        record.decisions = rt.trace().decision_count() as u64;
        record.pruned = rt.pruned_equivalents();
        record.races = rt.races_detected();
        record.backtracks = rt.backtracks_scheduled();
        if let ExecutionOutcome::BugFound(bug) = outcome {
            let trace = rt.take_trace();
            record.phases[TAKE_TRACE] = (since(t4), since(Instant::now()));
            record.found = true;
            result.found = Some(Found {
                iteration,
                seed,
                strategy: kind.label(),
                witness: Witness { bug, trace },
            });
        }
        if timed {
            // Swap the strategy out so the wrapper drops and publishes this
            // execution's counts now, not when the next iteration resets.
            rt.set_scheduler(Box::new(ReplayScheduler::tolerant(Vec::new(), 0)));
            let mut cell = shared.lock().expect("scheduler counts lock poisoned");
            record.scheduler = std::mem::take(&mut *cell);
        }

        result.executions += 1;
        result.steps += record.steps;
        let description = kind.describe();
        let row = match rows.iter().position(|row| row.strategy == description) {
            Some(index) => &mut rows[index],
            None => {
                rows.push(StrategyRow {
                    strategy: description,
                    executions: 0,
                    steps: 0,
                    pruned: 0,
                    races: 0,
                    backtracks: 0,
                });
                rows.last_mut().expect("row was pushed")
            }
        };
        row.executions += 1;
        row.steps += record.steps;
        row.pruned += record.pruned;
        row.races += record.races;
        row.backtracks += record.backtracks;

        on_exec(&record);
        pooled = Some(rt);
        if result.found.is_some() {
            break;
        }
    }
    result.rows = rows;
    result
}

/// The order the engine lists per-strategy rows in: portfolio order, one row
/// per distinct description. `manual_run` rows come in first-use order; sort
/// both with this before comparing.
#[cfg(test)]
fn portfolio_row_order() -> Vec<String> {
    let mut order: Vec<String> = Vec::new();
    for kind in SchedulerKind::default_portfolio() {
        let description = kind.describe();
        if !order.contains(&description) {
            order.push(description);
        }
    }
    order
}

/// One execution of `case` under one strategy and an explicit trace mode, for
/// the `Full`-versus-decisions-only comparison. Returns steps run.
pub fn single_execution(case: &Case, label: &'static str, seed: u64, full_trace: bool) -> u64 {
    let config = TestConfig::new()
        .with_max_steps(case.max_steps)
        .with_faults(fault_plan(case.faults));
    let mode = if full_trace {
        TraceMode::Full
    } else {
        TraceMode::DecisionsOnly
    };
    let scheduler = strategy_kind(label).build(seed, case.max_steps);
    let mut rt = Runtime::new(scheduler, runtime_config(&config, mode), seed);
    build(case.harness, &mut rt);
    rt.run();
    std::hint::black_box(rt.trace().decision_count());
    rt.steps() as u64
}

// ---------------------------------------------------------------------------
// The benchmark-owned harness.

/// Ring machines in the harness.
pub const RING_NODES: usize = 16;
/// Sink machines in the harness.
pub const RING_SINKS: usize = 4;
/// Tokens circulating; each keeps one ring machine enabled.
const RING_TOKENS: usize = 8;

/// Whether ring handlers time themselves (traced runs only).
static RING_TIMING: AtomicBool = AtomicBool::new(false);
static RING_HANDLER_NS: AtomicU64 = AtomicU64::new(0);
static RING_HANDLER_CALLS: AtomicU64 = AtomicU64::new(0);

/// Switches the ring handlers' self-timing on or off and zeroes the totals.
pub fn ring_timing(on: bool) {
    RING_HANDLER_NS.store(0, Ordering::Relaxed);
    RING_HANDLER_CALLS.store(0, Ordering::Relaxed);
    RING_TIMING.store(on, Ordering::Relaxed);
}

/// `(calls, total ns)` the ring handlers spent since [`ring_timing`].
pub fn ring_handler_totals() -> (u64, u64) {
    (
        RING_HANDLER_CALLS.load(Ordering::Relaxed),
        RING_HANDLER_NS.load(Ordering::Relaxed),
    )
}

fn handler_clock() -> Option<Instant> {
    RING_TIMING.load(Ordering::Relaxed).then(Instant::now)
}

fn handler_done(start: Option<Instant>) {
    if let Some(start) = start {
        RING_HANDLER_NS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        RING_HANDLER_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Debug, Clone)]
struct Token;
#[derive(Debug, Clone)]
struct Tick;
#[derive(Debug, Clone)]
struct Lap;

/// Passes the token on; every 16th pass also ticks its sink and every 64th
/// notifies the monitor, so most steps are a bare dequeue-count-send.
#[derive(Clone)]
struct RingNode {
    next: MachineId,
    sink: MachineId,
    passes: u64,
}

impl Machine for RingNode {
    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        let clock = handler_clock();
        if event.is::<Token>() {
            self.passes += 1;
            ctx.send(self.next, Event::replicable(Token));
            if self.passes.is_multiple_of(16) {
                ctx.send(self.sink, Event::replicable(Tick));
            }
            if self.passes.is_multiple_of(64) {
                ctx.notify_monitor::<LapMonitor>(Event::new(Lap));
            }
        }
        handler_done(clock);
    }

    psharp::impl_machine_snapshot!();
}

#[derive(Clone)]
struct RingSink {
    ticks: u64,
}

impl Machine for RingSink {
    fn handle(&mut self, _ctx: &mut Context<'_>, event: Event) {
        let clock = handler_clock();
        if event.is::<Tick>() {
            self.ticks += 1;
        }
        handler_done(clock);
    }

    psharp::impl_machine_snapshot!();
}

/// Safety only: laps never run backwards. It cannot fail; it is there so the
/// monitor-notification path is part of the step loop's cost.
#[derive(Clone, Default)]
struct LapMonitor {
    laps: u64,
}

impl Monitor for LapMonitor {
    fn observe(&mut self, ctx: &mut MonitorContext<'_>, event: &Event) {
        if event.is::<Lap>() {
            let before = self.laps;
            self.laps += 1;
            ctx.assert(self.laps > before, "lap counter went backwards");
        }
    }

    fn clone_state(&self) -> Option<Box<dyn Monitor>> {
        Some(Box::new(self.clone()))
    }
}

/// 16 ring machines, 4 sinks and 8 tokens: never quiesces, never fails, and
/// the handlers only count.
pub fn build_ring(rt: &mut Runtime) {
    rt.add_monitor(LapMonitor::default());
    let first_sink = RING_NODES as u64;
    for index in 0..RING_NODES as u64 {
        rt.create_machine(RingNode {
            next: MachineId::from_raw((index + 1) % RING_NODES as u64),
            sink: MachineId::from_raw(first_sink + index % RING_SINKS as u64),
            passes: 0,
        });
    }
    for _ in 0..RING_SINKS {
        rt.create_machine(RingSink { ticks: 0 });
    }
    for token in 0..RING_TOKENS {
        let holder = MachineId::from_raw((token * RING_NODES / RING_TOKENS) as u64);
        rt.send(holder, Event::replicable(Token));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;

    fn plan_of(harness: Harness) -> FaultPlan {
        use Harness::*;
        match harness {
            ReplLostReplication => replsim::ReplConfig::with_lost_replication_bug().fault_plan(),
            ReplFixed => replsim::ReplConfig::default().fault_plan(),
            VnextLiveness => vnext::VnextConfig::with_liveness_bug().fault_plan(),
            VnextFixed => vnext::VnextConfig::default().fault_plan(),
            ChainRestart => chaintable::ChainConfig::with_restart_bug().fault_plan(),
            ChainFixed => chaintable::ChainConfig::fixed().fault_plan(),
            FabricPromotion => fabric::FabricConfig::with_promotion_bug().fault_plan(),
            FabricPipeline => fabric::FabricConfig::with_pipeline_bug().fault_plan(),
            FabricFixed => fabric::FabricConfig::default().fault_plan(),
            KvPromote => megakv::MegaKvConfig::with_promote_lost_write_bug().fault_plan(),
            KvFixed => megakv::MegaKvConfig::default().fault_plan(),
            ChainNamed(_) | KvAliasing | KvSplit | KvRebalance | KvScale { .. } | Ring => {
                FaultPlan::none()
            }
        }
    }

    #[test]
    fn copied_fault_budgets_match_the_case_study_crates() {
        let all = cases::bug_cases().into_iter().chain(cases::fixed_cases());
        for case in all {
            assert_eq!(
                fault_plan(case.faults),
                plan_of(case.harness),
                "{}",
                case.name
            );
        }
    }

    #[test]
    fn copied_portfolio_labels_match_the_default_portfolio() {
        let labels: Vec<&str> = SchedulerKind::default_portfolio()
            .into_iter()
            .map(SchedulerKind::label)
            .collect();
        assert_eq!(labels, cases::PORTFOLIO_LABELS);
        for label in cases::STRATEGY_LABELS {
            assert_eq!(strategy_kind(label).label(), label);
            assert!(cases::PORTFOLIO_LABELS.contains(&label));
        }
    }

    #[test]
    fn chaintable_names_resolve() {
        for case in cases::bug_cases() {
            if let Harness::ChainNamed(name) = case.harness {
                assert!(
                    chaintable::ChainConfig::for_named_bug(name).is_some(),
                    "{name}"
                );
            }
        }
    }

    fn spec(case: Case, strategies: Strategies, iterations: u64) -> RunSpec {
        RunSpec {
            case,
            seed: 7,
            iterations,
            workers: 1,
            strategies,
            prefix_share: false,
        }
    }

    /// The wrapper must not change what the strategy decides: a hand-driven
    /// run records the same trace with and without it, for every strategy.
    #[test]
    fn timed_scheduler_is_transparent() {
        let case = cases::bug_cases()
            .into_iter()
            .find(|case| case.name == "DeletePrimaryKey")
            .expect("known case");
        for label in cases::STRATEGY_LABELS {
            let run = spec(case, Strategies::Single(label), 200);
            let plain = manual_run(&run, false, Instant::now(), |_| {});
            let mut picks = 0;
            let timed = manual_run(&run, true, Instant::now(), |record| {
                picks += record.scheduler.pick_calls;
            });
            assert_eq!(plain.executions, timed.executions, "{label}");
            assert_eq!(plain.steps, timed.steps, "{label}");
            assert_eq!(picks, timed.steps, "{label}: one pick per step");
            match (&plain.found, &timed.found) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.iteration, b.iteration, "{label}");
                    assert_eq!(a.witness.trace, b.witness.trace, "{label}");
                }
                (None, None) => {}
                _ => panic!("{label}: only one side found the bug"),
            }
        }
    }

    /// The hand-driven lifecycle runs the iterations the engine runs.
    #[test]
    fn manual_run_matches_the_engine() {
        for (case, share) in [
            (cases::fixed_cases()[3], false),
            (cases::fixed_cases()[3], true),
            (cases::bug_cases()[6], false),
            (cases::ring_case(), false),
        ] {
            let mut run = spec(case, Strategies::Portfolio, 30);
            run.prefix_share = share;
            let engine = engine_run(&run);
            let manual = manual_run(&run, true, Instant::now(), |_| {});
            assert_eq!(engine.executions, manual.executions, "{}", case.name);
            assert_eq!(engine.steps, manual.steps, "{}", case.name);
            assert_eq!(
                engine
                    .found
                    .as_ref()
                    .map(|f| (f.iteration, f.seed, f.strategy)),
                manual
                    .found
                    .as_ref()
                    .map(|f| (f.iteration, f.seed, f.strategy)),
                "{}",
                case.name
            );
            let order = portfolio_row_order();
            let mut manual_rows = manual.rows.clone();
            manual_rows.sort_by_key(|row| order.iter().position(|d| *d == row.strategy));
            let engine_rows: Vec<_> = engine
                .rows
                .iter()
                .filter(|row| row.executions > 0)
                .cloned()
                .collect();
            assert_eq!(engine_rows, manual_rows, "{}", case.name);
        }
    }

    #[test]
    fn found_bugs_replay_and_shrink() {
        let case = cases::bug_cases()[6];
        let found = engine_run(&spec(case, Strategies::Portfolio, 500))
            .found
            .expect("DeletePrimaryKey is found within 500 executions");
        assert!(strict_replay(&case, &found.witness).same_bug);
        let shrunk = shrink(&case, &found.witness);
        assert!(shrunk.minimized_decisions <= shrunk.original_decisions);
        assert!(shrunk.setups >= shrunk.candidates);
        assert!(strict_replay(&case, &shrunk.minimized).same_bug);
        assert!(found.witness.json_roundtrip().is_some());
    }

    #[test]
    fn ring_runs_to_its_bound_at_about_eight_wide() {
        let run = spec(cases::ring_case(), Strategies::Single("random"), 1);
        let mut width = 0.0;
        let result = manual_run(&run, true, Instant::now(), |record| {
            width = record.scheduler.width_sum as f64 / record.scheduler.pick_calls as f64;
        });
        assert!(result.found.is_none());
        assert_eq!(result.steps, cases::RING_STEPS as u64);
        assert!((4.0..=12.0).contains(&width), "enabled width {width}");
    }
}
