//! The systematic testing engine: one explorer, one entry point.
//!
//! The paper's engine is a single loop — execute the test harness from start
//! to completion under a controlled scheduler, again and again, each time
//! exploring a potentially different set of nondeterministic choices, until
//! the user-supplied bound (number of executions) or the first safety or
//! liveness violation, which comes back as a [`BugReport`] with the
//! replayable [`Trace`] of the buggy execution. This module holds that loop
//! once, in a private explorer:
//!
//! * workers claim adaptive chunks of the iteration space from a shared
//!   counter; the iteration index alone determines the execution's seed
//!   ([`TestConfig::seed_for_iteration`]) and, in portfolio mode, its
//!   strategy ([`TestConfig::strategy_for_iteration`]);
//! * an iteration starts either from `reset` + `setup` or by restoring the
//!   one post-setup snapshot ([`TestConfig::prefix_sharing`]) and running
//!   only the suffix;
//! * the bug at the **lowest iteration index** wins, regardless of which
//!   worker finished first, and executions above that index are skipped or
//!   cancelled step-by-step;
//! * executions record the decision stream only; the winner's annotated
//!   schedule is re-recorded by strict replay, then it is shrunk and reported
//!   once.
//!
//! [`TestEngine::run`] is the entry point, and the [`TestConfig`] alone
//! decides how a run explores; the run reports the identical (iteration,
//! seed, strategy, trace, bug) result for it at any worker count.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::Bug;
use crate::fault::FaultPlan;
use crate::rng::{mix64, GOLDEN_GAMMA};
use crate::runtime::{CancelToken, ExecutionOutcome, Runtime, RuntimeConfig, RuntimeSnapshot};
use crate::scheduler::{ReplayScheduler, SchedulerKind};
use crate::shrink::{record_verified, shrink_trace, ShrinkConfig, ShrinkReport};
use crate::stats::StrategyStats;
use crate::trace::{Trace, TraceMode};

/// Salt decorrelating the strategy-selection stream from the per-iteration
/// execution seeds: both are derived from [`TestConfig::seed`], but through
/// different streams, so which strategy drives an iteration carries no
/// information about the random choices made inside it.
const STRATEGY_STREAM: u64 = 0xA5A3_1E8F_5C6D_92B7;

/// Configuration of a systematic testing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestConfig {
    /// Maximum number of executions to explore.
    pub iterations: u64,
    /// Step bound per execution (the "infinite execution" approximation for
    /// liveness checking).
    pub max_steps: usize,
    /// Base random seed; each iteration derives its own seed from it.
    pub seed: u64,
    /// Scheduling strategy.
    pub scheduler: SchedulerKind,
    /// Whether liveness monitors are also checked when the system quiesces.
    pub check_liveness_at_quiescence: bool,
    /// Whether machine panics are caught and reported as bugs.
    pub catch_panics: bool,
    /// Number of workers that claim chunks of the shared iteration queue.
    /// `1` (the default) drains it inline on the calling thread; any count
    /// reports the same winner, and bug-free runs the same counters.
    pub workers: usize,
    /// Optional scheduler portfolio: iteration `i` runs the strategy
    /// [`TestConfig::strategy_for_iteration`] picks from this list (a
    /// seed-derived, worker-count-independent assignment) instead of
    /// [`TestConfig::scheduler`].
    pub portfolio: Option<Vec<SchedulerKind>>,
    /// Whether a found bug's trace is automatically delta-debugged down to a
    /// minimal replayable counterexample ([`crate::shrink`]) before the
    /// report is returned.
    pub shrink: bool,
    /// Maximum number of candidate executions one shrink pass may spend.
    pub shrink_budget: u64,
    /// Per-execution fault budget ([`FaultPlan::none`] by default): how many
    /// crashes, restarts, message drops and duplications the scheduler may
    /// inject into machines the harness marked crashable / restartable /
    /// lossy. See [`crate::fault`].
    pub faults: FaultPlan,
    /// Where iterations start. `false` (the default) is straight-line: every
    /// iteration runs the harness's `setup`. `true` runs `setup` once per
    /// run, captures the post-setup state with [`Runtime::snapshot`], and
    /// every iteration, on every worker, forks from that snapshot instead —
    /// with results identical to straight-line. Requires every machine and
    /// monitor the setup creates to implement `clone_state` (and any event
    /// it enqueues to be
    /// [`Event::replicable`](crate::event::Event::replicable)); otherwise the
    /// run silently falls back to straight-line execution.
    pub prefix_sharing: bool,
}

impl Default for TestConfig {
    fn default() -> Self {
        TestConfig {
            iterations: 1_000,
            max_steps: 5_000,
            seed: 0,
            scheduler: SchedulerKind::Random,
            check_liveness_at_quiescence: true,
            catch_panics: true,
            workers: 1,
            portfolio: None,
            shrink: false,
            shrink_budget: 2_000,
            faults: FaultPlan::none(),
            prefix_sharing: false,
        }
    }
}

impl TestConfig {
    /// Creates a configuration with the default exploration bounds.
    pub fn new() -> Self {
        TestConfig::default()
    }

    /// Sets the number of executions to explore.
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the per-execution step bound.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Sets the base random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the scheduling strategy.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the number of workers ([`TestConfig::workers`]).
    ///
    /// Zero is treated as one.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Assigns a scheduler portfolio: iteration `i` runs the strategy
    /// [`TestConfig::strategy_for_iteration`] picks from the list. An empty
    /// portfolio is ignored.
    pub fn with_portfolio(mut self, portfolio: Vec<SchedulerKind>) -> Self {
        self.portfolio = if portfolio.is_empty() {
            None
        } else {
            Some(portfolio)
        };
        self
    }

    /// Assigns the default portfolio
    /// ([`SchedulerKind::default_portfolio`]): random, PCT with three
    /// change-point budgets, delay-bounding, a probabilistic random walk,
    /// round-robin, sleep-set and DPOR.
    pub fn with_default_portfolio(self) -> Self {
        self.with_portfolio(SchedulerKind::default_portfolio())
    }

    /// Sets the per-execution fault budget: how many crashes, restarts,
    /// message drops and duplications the scheduler may inject into machines
    /// the harness marked crashable / restartable / lossy
    /// ([`crate::fault`]). Injected faults are first-class decisions — they
    /// replay byte-for-byte and the shrink pass reduces a buggy execution to
    /// its minimum fault set.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables (or disables) prefix sharing ([`TestConfig::prefix_sharing`]):
    /// the harness setup executes once per run and every iteration forks
    /// from a snapshot of the post-setup state.
    pub fn with_prefix_sharing(mut self, prefix_sharing: bool) -> Self {
        self.prefix_sharing = prefix_sharing;
        self
    }

    /// Enables (or disables) automatic schedule shrinking: a found bug's
    /// trace is delta-debugged down to a minimal replayable counterexample
    /// and attached to the report as [`BugReport::shrink`].
    pub fn with_shrink(mut self, shrink: bool) -> Self {
        self.shrink = shrink;
        self
    }

    /// Bounds the number of candidate executions one shrink pass may spend.
    pub fn with_shrink_budget(mut self, shrink_budget: u64) -> Self {
        self.shrink_budget = shrink_budget;
        self
    }

    /// The shrink-pass parameters derived from this configuration: its
    /// candidates run under the exploration's own runtime configuration.
    pub fn shrink_config(&self) -> ShrinkConfig {
        ShrinkConfig {
            runtime: self.runtime_config(),
            max_candidates: self.shrink_budget,
        }
    }

    /// What exploration records: the replay-bearing decision stream alone,
    /// so trace memory does not scale with the execution length and a
    /// bug-free run never materializes an annotated schedule.
    pub fn effective_trace_mode(&self) -> TraceMode {
        self.runtime_config().trace_mode
    }

    /// Re-records a found bug's annotated schedule by strict replay of the
    /// decisions exploration recorded. The replay is deterministic, so the
    /// reported trace is identical at any worker count. When the replay does
    /// not reproduce the bug — `setup` is not a pure function of the runtime
    /// it is handed — the decisions-only recording is kept, and
    /// [`TestReport::summary`] says so.
    fn rehydrate_report<F>(&self, report: &mut BugReport, setup: &F)
    where
        F: Fn(&mut Runtime),
    {
        if let Some(trace) =
            record_verified(self.runtime_config(), &report.trace, &report.bug, setup)
        {
            report.trace = trace;
        }
    }

    /// Runs the configured shrink pass over a found bug and attaches the
    /// result to the report. No-op when shrinking is disabled.
    fn attach_shrink<F>(&self, report: &mut BugReport, setup: &F)
    where
        F: Fn(&mut Runtime),
    {
        if self.shrink {
            report.shrink = Some(shrink_trace(
                &self.shrink_config(),
                &report.bug,
                &report.trace,
                setup,
            ));
        }
    }

    /// The index of the portfolio entry that drives `iteration`, or `None`
    /// when no portfolio is configured.
    ///
    /// The pick is derived from the base seed through its own stream, so the
    /// strategy mix over the iteration space is stable for a given seed,
    /// unbiased across the portfolio, and — because it depends only on the
    /// iteration index — identical at any worker count.
    pub fn portfolio_index_for_iteration(&self, iteration: u64) -> Option<usize> {
        match &self.portfolio {
            Some(portfolio) if !portfolio.is_empty() => {
                let hash = mix64(
                    mix64(self.seed ^ STRATEGY_STREAM)
                        .wrapping_add(iteration.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)),
                );
                Some((hash % portfolio.len() as u64) as usize)
            }
            _ => None,
        }
    }

    /// The scheduling strategy that drives `iteration`: the seed-derived
    /// portfolio pick when a portfolio is configured, the base scheduler
    /// otherwise.
    pub fn strategy_for_iteration(&self, iteration: u64) -> SchedulerKind {
        match self.portfolio_index_for_iteration(iteration) {
            Some(index) => self.portfolio.as_ref().expect("index implies portfolio")[index],
            None => self.scheduler,
        }
    }

    /// A runtime holding no iteration yet — the one `setup` runs in before
    /// the root snapshot, or a worker's pooled runtime before its first
    /// [`Runtime::restore_from`], which replaces scheduler, seed and state.
    fn blank_runtime(&self) -> Runtime {
        Runtime::new(
            self.scheduler.build(self.seed, self.max_steps),
            self.runtime_config(),
            self.seed,
        )
    }

    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            max_steps: self.max_steps,
            check_liveness_at_quiescence: self.check_liveness_at_quiescence,
            catch_panics: self.catch_panics,
            trace_mode: TraceMode::DecisionsOnly,
            faults: self.faults,
        }
    }

    /// The seed that drives iteration `iteration` of a run with this
    /// configuration.
    ///
    /// The base seed and the iteration index are combined through the full
    /// SplitMix64 finalizer twice (once over the base seed, once over the
    /// sum): a single XOR-with-multiply left the iteration-seed streams of
    /// nearby base seeds heavily overlapping, so two "independent" runs
    /// explored mostly the same executions.
    pub fn seed_for_iteration(&self, iteration: u64) -> u64 {
        Self::derive_seed(mix64(self.seed), iteration)
    }

    /// [`TestConfig::seed_for_iteration`] with `mix64(self.seed)` supplied by
    /// the caller, so a worker loop mixes the base seed once, not once per
    /// iteration.
    fn derive_seed(mixed_base: u64, iteration: u64) -> u64 {
        mix64(mixed_base.wrapping_add(iteration.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)))
    }
}

/// The first property violation found by a testing run, together with
/// everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct BugReport {
    /// The violation.
    pub bug: Bug,
    /// The (0-based) iteration at which it was found.
    pub iteration: u64,
    /// Number of nondeterministic choices made in the buggy execution
    /// (the paper's `#NDC`).
    pub ndc: usize,
    /// The replayable trace of the buggy execution: the decisions exploration
    /// recorded, with the annotated schedule a strict replay of them
    /// re-recorded ([`TraceMode::Full`]). Left decisions-only when that
    /// replay did not reproduce the bug.
    pub trace: Trace,
    /// Time elapsed from the start of the run until the buggy execution was
    /// found: the clock stops at discovery, before the winner is rehydrated
    /// and shrunk (that tail is part of [`TestReport::elapsed`] only).
    pub time_to_bug: Duration,
    /// The schedule-shrinking result, when the run was configured with
    /// [`TestConfig::with_shrink`]: reduction statistics plus the minimized,
    /// replay-verified counterexample.
    pub shrink: Option<ShrinkReport>,
}

impl BugReport {
    /// The minimized counterexample, when a shrink pass ran.
    pub fn minimized(&self) -> Option<&Trace> {
        self.shrink.as_ref().map(|s| &s.minimized)
    }

    /// The best trace to hand a human: the minimized counterexample when
    /// shrinking ran, the original recording otherwise.
    pub fn best_trace(&self) -> &Trace {
        self.minimized().unwrap_or(&self.trace)
    }
}

/// Outcome of a systematic testing run.
#[derive(Debug, Clone)]
pub struct TestReport {
    /// The first violation found, if any.
    pub bug: Option<BugReport>,
    /// Number of executions explored to completion (including the buggy
    /// one); executions cancelled mid-flight by another worker's lower bug
    /// are not counted.
    pub iterations_run: u64,
    /// Total machine steps executed, including the partial work of
    /// executions cancelled mid-flight.
    pub total_steps: u64,
    /// Wall-clock time of the whole [`TestEngine::run`] call: the
    /// exploration plus, when a bug was found, rehydrating its annotated
    /// schedule and the shrink pass. [`BugReport::time_to_bug`] is the part
    /// up to discovery.
    pub elapsed: Duration,
    /// Label of the scheduler that drove the run. For a portfolio run this is
    /// the strategy that found the bug, or `"portfolio"` when no bug was
    /// found.
    pub scheduler: &'static str,
    /// Number of workers that explored the iteration space
    /// ([`TestConfig::workers`]).
    pub workers: usize,
    /// Exploration statistics per scheduling strategy (a single row outside
    /// portfolio mode, one row per distinct portfolio strategy otherwise).
    pub per_strategy: Vec<StrategyStats>,
}

impl TestReport {
    /// Returns `true` when a property violation was found.
    pub fn found_bug(&self) -> bool {
        self.bug.is_some()
    }

    /// Executions explored per second of wall-clock time.
    pub fn executions_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.iterations_run as f64 / secs
        }
    }

    /// Renders the per-strategy attribution as an aligned table, one line per
    /// strategy.
    pub fn strategy_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&StrategyStats::table_header());
        out.push('\n');
        for row in &self.per_strategy {
            out.push_str(&row.to_string());
            out.push('\n');
        }
        out
    }

    /// Renders a short human-readable summary.
    pub fn summary(&self) -> String {
        match &self.bug {
            Some(report) => format!(
                "BUG FOUND ({}) after {} executions in {:.2}s with {} nondeterministic choices: {}{}",
                self.scheduler,
                report.iteration + 1,
                report.time_to_bug.as_secs_f64(),
                report.ndc,
                report.bug,
                // Only a failed re-recording leaves the reported trace
                // without its annotated schedule.
                match report.trace.mode() {
                    TraceMode::Full => "",
                    TraceMode::DecisionsOnly => {
                        " [trace not annotated: a strict replay of the recorded decisions \
                         did not reproduce this bug; is the harness setup deterministic?]"
                    }
                }
            ),
            None => format!(
                "no bug found ({}) in {} executions ({:.2}s, {:.0} exec/s)",
                self.scheduler,
                self.iterations_run,
                self.elapsed.as_secs_f64(),
                self.executions_per_second()
            ),
        }
    }
}

/// The systematic testing engine: explores many executions of a harness,
/// each serialized on one thread under a controlled scheduler, until the
/// first property violation or [`TestConfig::iterations`]. How it explores
/// is the [`TestConfig`]'s to say:
///
/// * **Workers** ([`TestConfig::workers`]). One worker drains the iteration
///   space inline on the calling thread. `N` workers claim adaptively sized
///   chunks of it from a shared atomic counter: a fast worker that drains a
///   cheap stretch simply claims the next chunk, so skewed harnesses (where
///   some seeds run 100× longer than others) do not starve `N - 1` workers
///   the way fixed striping would. Every iteration keeps the seed
///   [`TestConfig::seed_for_iteration`] assigns it, so `N` workers explore
///   the identical set of (iteration, seed) pairs as one, just faster. Each
///   worker pools one [`Runtime`] across its iterations and tallies into
///   worker-local [`StrategyStats`] rows merged once at the end, so the hot
///   path touches two shared atomics (the work counter, amortized over a
///   chunk, and the bug bound) and allocates nothing in the steady state.
///   The OS threads are capped at the host's available parallelism: more
///   workers than cores change nothing about the report.
/// * **Portfolio** ([`TestConfig::with_portfolio`]). Iterations mix
///   scheduling strategies — random, PCT with several priority-change
///   budgets, delay-bounding, a probabilistic random walk, round-robin,
///   sleep-set and DPOR attack the same harness from different angles — and
///   [`TestReport::per_strategy`] shows which strategy earned the bug. The
///   *iteration index* decides which strategy drives an iteration
///   ([`TestConfig::strategy_for_iteration`]), never the worker that claimed
///   it, so the strategy mix is identical at any worker count.
/// * **Start states** ([`TestConfig::prefix_sharing`]). Straight-line by
///   default; otherwise `setup` runs once, and every iteration restores its
///   copy-on-write snapshot into the worker's pooled runtime, installs its
///   own scheduler and seed and runs only the suffix. The recorded trace
///   replays (and shrinks) from scratch like a straight-line recording, and
///   the report is the straight-line one.
///
/// # Deterministic first-bug selection
///
/// The reported bug is the one at the **lowest iteration index**, not the one
/// whose worker happened to finish first: a found bug publishes its iteration
/// as a shared bound, iterations above the bound are skipped or cancelled
/// *step-by-step* (the runtime polls a cancellation token inside its step loop,
/// so a doomed execution stops within one machine step instead of running to
/// its `max_steps` bound), and iterations below it always run to completion.
/// The winning (iteration, seed, strategy, trace) tuple is therefore the same
/// at any worker count, in portfolio mode exactly as in single-strategy mode.
///
/// Determinism covers the *winning tuple only*: in runs that find a bug,
/// [`TestReport::iterations_run`], [`TestReport::total_steps`] and
/// [`BugReport::time_to_bug`] still depend on how far other workers got
/// before cancellation. Bug-free runs exhaust every iteration, so their
/// counters — including the per-strategy rows — are deterministic too.
///
/// # Examples
///
/// ```
/// use psharp::prelude::*;
///
/// struct Flaky;
/// impl Machine for Flaky {
///     fn on_start(&mut self, ctx: &mut Context<'_>) {
///         // A bug that manifests only under one of the controlled choices.
///         let unlucky = ctx.random_bool();
///         ctx.assert(!unlucky, "the unlucky path was taken");
///     }
///     fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
/// }
///
/// fn setup(rt: &mut Runtime) {
///     rt.create_machine(Flaky);
/// }
///
/// let config = TestConfig::new().with_iterations(100);
/// let report = TestEngine::new(config.clone()).run(setup);
/// assert!(report.found_bug());
///
/// // Four workers over the default portfolio report the same winner.
/// let portfolio = config.with_default_portfolio();
/// let one = TestEngine::new(portfolio.clone()).run(setup);
/// let four = TestEngine::new(portfolio.with_workers(4)).run(setup);
/// assert_eq!(one.bug.unwrap().trace, four.bug.unwrap().trace);
/// ```
#[derive(Debug, Clone)]
pub struct TestEngine {
    config: TestConfig,
}

impl TestEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: TestConfig) -> Self {
        TestEngine { config }
    }

    /// Runs up to `iterations` executions of the harness built by `setup`,
    /// stopping at the first property violation.
    ///
    /// The `setup` closure is invoked once per execution with an empty
    /// [`Runtime`] (once per run when [`TestConfig::prefix_sharing`] is set);
    /// it must create the machines and monitors of the test and may send
    /// initial events. It must be `Send + Sync` because workers invoke it
    /// from their own threads; each execution still runs serialized on
    /// exactly one thread, so machines never observe intra-execution
    /// parallelism.
    pub fn run<F>(&self, setup: F) -> TestReport
    where
        F: Fn(&mut Runtime) + Send + Sync,
    {
        Explorer::run(&self.config, &setup)
    }

    /// Replays a previously recorded trace against the harness built by
    /// `setup` and returns the violation it reproduces, if any.
    ///
    /// Returns `None` when the replayed execution finds no bug (for example
    /// because the system has been fixed since the trace was recorded).
    pub fn replay<F>(&self, trace: &Trace, setup: F) -> Option<Bug>
    where
        F: Fn(&mut Runtime),
    {
        let scheduler = Box::new(ReplayScheduler::from_trace(trace));
        let mut runtime = Runtime::new(scheduler, self.config.runtime_config(), trace.seed);
        setup(&mut runtime);
        match runtime.run() {
            ExecutionOutcome::BugFound(bug) => Some(bug),
            _ => None,
        }
    }
}

/// [`TestEngine`] under the name `benchmark/src/adapter.rs` still calls
/// (`ParallelTestEngine::new(cfg).run(..)`): the same type, with no code of
/// its own. `benchmark/` changes only in benchmark-only changes; the alias
/// goes in the next one.
///
/// ```
/// use psharp::prelude::*;
///
/// let engine: TestEngine = ParallelTestEngine::new(TestConfig::new().with_iterations(1));
/// assert!(!engine.run(|_rt| {}).found_bug());
/// ```
pub type ParallelTestEngine = TestEngine;

/// Per-strategy attribution rows in *canonical order* — one row per distinct
/// portfolio strategy in portfolio order ([`SchedulerKind::describe`] keys
/// the rows, so differently-parameterized PCT entries stay separate), or a
/// single row for the base scheduler. Every worker builds the same
/// skeleton, so rows merge index-wise and
/// [`TestReport::per_strategy`] comes out identical at any worker count.
/// A worker's tally also holds the lowest-iteration bug that worker found.
struct StrategyTally {
    rows: Vec<StrategyStats>,
    /// Portfolio index -> row index (entries with equal descriptions share a
    /// row).
    row_of_entry: Vec<usize>,
    first_bug: Option<FirstBug>,
}

impl StrategyTally {
    fn new(config: &TestConfig) -> Self {
        let mut rows: Vec<StrategyStats> = Vec::new();
        let mut row_of_entry = Vec::new();
        match &config.portfolio {
            Some(portfolio) if !portfolio.is_empty() => {
                for kind in portfolio {
                    let description = kind.describe();
                    let row = match rows.iter().position(|r| r.scheduler == description) {
                        Some(existing) => existing,
                        None => {
                            rows.push(StrategyStats::new(description));
                            rows.len() - 1
                        }
                    };
                    row_of_entry.push(row);
                }
            }
            _ => rows.push(StrategyStats::new(config.scheduler.describe())),
        }
        StrategyTally {
            rows,
            row_of_entry,
            first_bug: None,
        }
    }

    /// The attribution row of the portfolio entry an iteration ran
    /// ([`TestConfig::portfolio_index_for_iteration`]).
    fn row_mut(&mut self, portfolio_entry: Option<usize>) -> &mut StrategyStats {
        let row = match portfolio_entry {
            Some(entry) => self.row_of_entry[entry],
            None => 0,
        };
        &mut self.rows[row]
    }

    /// Keeps `candidate` as this tally's bug unless it holds a lower
    /// iteration already.
    fn offer_bug(&mut self, candidate: FirstBug) {
        if self
            .first_bug
            .as_ref()
            .is_none_or(|held| candidate.report.iteration < held.report.iteration)
        {
            self.first_bug = Some(candidate);
        }
    }

    /// Folds another tally with the identical skeleton into this one; the
    /// lower-iteration bug of the two survives.
    fn merge(&mut self, other: StrategyTally) {
        debug_assert_eq!(self.rows.len(), other.rows.len());
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            mine.absorb(theirs);
        }
        if let Some(candidate) = other.first_bug {
            self.offer_bug(candidate);
        }
    }
}

/// The report label of a run that found no bug: the portfolio as a whole, or
/// the single configured strategy.
fn no_bug_label(config: &TestConfig) -> &'static str {
    if config.portfolio.is_some() {
        "portfolio"
    } else {
        config.scheduler.label()
    }
}

/// The lowest-iteration bug a worker found, with the strategy that found it.
struct FirstBug {
    report: BugReport,
    scheduler: &'static str,
}

/// Adaptive chunk sizing for the work-stealing iteration queue: claim big
/// chunks while plenty of work remains (amortizing the shared-counter
/// traffic), shrink toward single iterations near the end so the tail
/// balances across workers instead of sitting in one worker's last chunk.
///
/// The divisor keeps ~8 future claims per worker outstanding — with pooled
/// runtimes a chunk claim costs one atomic RMW, so smaller chunks (better
/// tail balance, tighter reaction to a published bug bound) are cheap — and
/// the cap bounds how much work the last pre-tail claim can hoard.
fn chunk_size(remaining: u64, workers: u64) -> u64 {
    (remaining / (workers * 8)).clamp(1, 32)
}

/// Claims the next chunk of `0..total` from the shared counter `next`, or
/// `None` when nothing claimable remains below `bound` (the published bug
/// bound for the iteration space, `total` itself otherwise).
fn claim_chunk(next: &AtomicU64, bound: u64, total: u64, workers: u64) -> Option<Range<u64>> {
    let claimed = next.load(Ordering::Relaxed);
    if claimed >= bound {
        return None;
    }
    let chunk = chunk_size(bound - claimed, workers);
    let start = next.fetch_add(chunk, Ordering::Relaxed);
    (start < total).then(|| start..(start + chunk).min(total))
}

/// Runs `work` once per pooled-runtime slot and collects the results: inline
/// on the calling thread for a single slot, on one scoped thread per slot
/// otherwise.
fn on_workers<T: Send>(
    pool: &mut [Option<Runtime>],
    work: impl Fn(&mut Option<Runtime>) -> T + Sync,
) -> Vec<T> {
    if let [only] = pool {
        return vec![work(only)];
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = pool
            .iter_mut()
            .map(|pooled| scope.spawn(move || work(pooled)))
            .collect();
        // A worker's panic (a panicking `setup`, say) is re-raised with its
        // own payload, as the inline path raises it.
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload))
            })
            .collect()
    })
}

/// The one exploration loop behind [`TestEngine::run`]: the state the
/// workers of a run share. [`Explorer::run`] takes the shared root
/// ([`Explorer::root`]), has every worker [`Explorer::drain`] the iteration
/// space from it, and assembles the report with [`Explorer::finish`].
struct Explorer<'a, F> {
    config: &'a TestConfig,
    setup: &'a F,
    started: Instant,
    /// OS threads draining the iteration space (sizes the chunks).
    threads: u64,
    /// Work-stealing queue: the next unclaimed iteration index.
    next: AtomicU64,
    /// Lowest iteration index known to contain a bug. Doubles as the
    /// step-level cancellation bound polled inside every runtime's step loop
    /// via a [`CancelToken`].
    bug_bound: Arc<AtomicU64>,
}

impl<'a, F: Fn(&mut Runtime) + Send + Sync> Explorer<'a, F> {
    fn new(config: &'a TestConfig, setup: &'a F, threads: usize) -> Self {
        Explorer {
            config,
            setup,
            started: Instant::now(),
            threads: threads as u64,
            next: AtomicU64::new(0),
            bug_bound: Arc::new(AtomicU64::new(u64::MAX)),
        }
    }

    /// The shared start state. When [`TestConfig::prefix_sharing`] is set,
    /// runs `setup` once and snapshots the post-setup state; the warm runtime
    /// becomes the first worker's pooled runtime, so its first
    /// `restore_from` is the O(dirty) path with nothing dirty. `None` when
    /// sharing is off or the harness state is not snapshotable: every
    /// iteration then runs `setup` itself.
    fn root(&self, pooled: &mut Option<Runtime>) -> Option<RuntimeSnapshot> {
        if !self.config.prefix_sharing {
            return None;
        }
        let runtime = pooled.insert(self.config.blank_runtime());
        (self.setup)(runtime);
        runtime.snapshot()
    }

    /// One worker's loop: claims chunks of the iteration space until none
    /// remain below the bug bound, runs each claimed iteration in the pooled
    /// runtime — forked from `root` when there is one, from `setup`
    /// otherwise; machines, mailboxes, name table, trace and the
    /// enabled/fault buffers all keep their grown storage across iterations
    /// — and tallies it into worker-local rows.
    fn drain(&self, root: Option<&RuntimeSnapshot>, pooled: &mut Option<Runtime>) -> StrategyTally {
        let config = self.config;
        let total = config.iterations;
        let mixed_seed = mix64(config.seed);
        let mut tally = StrategyTally::new(config);
        // Work remains only below the bug bound: once a bug at iteration `k`
        // is published, iterations `>= k` can no longer win.
        while let Some(chunk) = claim_chunk(
            &self.next,
            self.bug_bound.load(Ordering::Relaxed).min(total),
            total,
            self.threads,
        ) {
            for iteration in chunk {
                if iteration >= self.bug_bound.load(Ordering::Relaxed) {
                    // Doomed: a lower iteration already has a bug.
                    continue;
                }
                let seed = TestConfig::derive_seed(mixed_seed, iteration);
                let portfolio_entry = config.portfolio_index_for_iteration(iteration);
                let strategy = match portfolio_entry {
                    Some(entry) => {
                        config.portfolio.as_ref().expect("entry implies portfolio")[entry]
                    }
                    None => config.scheduler,
                };
                let scheduler = strategy.build(seed, config.max_steps);
                let mut runtime = match (root, pooled.take()) {
                    (None, None) => Runtime::new(scheduler, config.runtime_config(), seed),
                    (None, Some(mut runtime)) => {
                        runtime.reset(scheduler, config.runtime_config(), seed);
                        runtime
                    }
                    (Some(root), pooled) => {
                        let mut runtime = pooled.unwrap_or_else(|| config.blank_runtime());
                        runtime.restore_from(root);
                        runtime.set_scheduler(scheduler);
                        runtime.reseed(seed);
                        runtime
                    }
                };
                if root.is_none() {
                    (self.setup)(&mut runtime);
                }
                runtime.set_cancel_token(CancelToken::new(Arc::clone(&self.bug_bound), iteration));
                // Zero after `setup`, the snapshot's steps after a restore.
                let steps_before = runtime.steps();
                let outcome = runtime.run();
                let row = tally.row_mut(portfolio_entry);
                row.total_steps += (runtime.steps() - steps_before) as u64;
                row.pruned_schedules += runtime.pruned_equivalents();
                row.races_detected += runtime.races_detected();
                row.backtracks_scheduled += runtime.backtracks_scheduled();
                match outcome {
                    // The partial work stays in the step total, but the
                    // iteration did not complete.
                    ExecutionOutcome::Cancelled => {}
                    ExecutionOutcome::Quiescent | ExecutionOutcome::MaxStepsReached => {
                        row.iterations_run += 1;
                    }
                    ExecutionOutcome::BugFound(bug) => {
                        self.record_bug(&mut tally, iteration, bug, runtime.take_trace());
                    }
                }
                *pooled = Some(runtime);
            }
        }
        tally
    }

    /// Tallies a buggy `iteration` and keeps it as the worker's bug unless a
    /// lower iteration already holds the run's bug bound.
    fn record_bug(&self, tally: &mut StrategyTally, iteration: u64, bug: Bug, trace: Trace) {
        let config = self.config;
        let row = tally.row_mut(config.portfolio_index_for_iteration(iteration));
        row.iterations_run += 1;
        row.bugs_found += 1;
        // Publish the bound so other workers stop wasting steps on higher
        // iterations immediately. A bound already at (or below) this
        // iteration means a lower iteration has a bug, and some worker's
        // tally holds it: this candidate can never win.
        if self.bug_bound.fetch_min(iteration, Ordering::Relaxed) <= iteration {
            return;
        }
        tally.offer_bug(FirstBug {
            report: BugReport {
                bug,
                iteration,
                ndc: trace.decision_count(),
                trace,
                time_to_bug: self.started.elapsed(),
                shrink: None,
            },
            scheduler: config.strategy_for_iteration(iteration).label(),
        });
    }

    /// Merges the workers' tallies — the winner is the lowest of their bugs
    /// — then rehydrates and shrinks it: serially, over the deterministic
    /// lowest-iteration bug, so the reported trace and minimized
    /// counterexample are identical at any worker count.
    fn finish(self, tallies: Vec<StrategyTally>) -> TestReport {
        let config = self.config;
        let mut merged = StrategyTally::new(config);
        for tally in tallies {
            merged.merge(tally);
        }
        let winner = merged.first_bug.take();
        let scheduler = match &winner {
            Some(first) => first.scheduler,
            None => no_bug_label(config),
        };
        let bug = winner.map(|first| {
            let mut report = first.report;
            config.rehydrate_report(&mut report, self.setup);
            config.attach_shrink(&mut report, self.setup);
            report
        });
        TestReport {
            bug,
            iterations_run: merged.rows.iter().map(|row| row.iterations_run).sum(),
            total_steps: merged.rows.iter().map(|row| row.total_steps).sum(),
            elapsed: self.started.elapsed(),
            scheduler,
            workers: config.workers.max(1),
            per_strategy: merged.rows,
        }
    }

    /// A whole [`TestEngine::run`]: the start state
    /// [`TestConfig::prefix_sharing`] asks for, drained on
    /// [`TestConfig::workers`] workers.
    fn run(config: &TestConfig, setup: &F) -> TestReport {
        let workers = config.workers.max(1);
        // Results are worker-count-independent by construction, so `workers`
        // logical workers may run on fewer OS threads: more threads than the
        // host has cores only add time-slicing churn. The report still says
        // `workers`. One worker runs inline and never needs to ask.
        let threads = match workers {
            1 => 1,
            _ => workers.min(std::thread::available_parallelism().map_or(workers, |c| c.get())),
        };
        let explorer = Explorer::new(config, setup, threads);
        let mut pool: Vec<Option<Runtime>> = (0..threads).map(|_| None).collect();
        let root = explorer.root(&mut pool[0]);
        let tallies = on_workers(&mut pool, |pooled| explorer.drain(root.as_ref(), pooled));
        explorer.finish(tallies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BugKind;
    use crate::event::Event;
    use crate::machine::Machine;
    use crate::runtime::Context;

    /// Two writer machines race to update a shared flag machine. The flag
    /// starts `false` and asserts that it never observes a `SetFlag(false)`
    /// while already `false`, so the bug manifests only in the interleaving
    /// where the `false` writer is scheduled before the `true` writer —
    /// schedule exploration is required to find it.
    struct Flag {
        value: bool,
    }
    impl Machine for Flag {
        fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
            if let Some(set) = event.downcast_ref::<SetFlag>() {
                if !set.0 && !self.value {
                    ctx.assert(false, "cleared a flag that was never set");
                }
                self.value = set.0;
            }
        }
    }

    #[derive(Debug)]
    struct SetFlag(bool);

    struct Writer {
        flag: crate::machine::MachineId,
        value: bool,
    }
    impl Machine for Writer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(self.flag, Event::new(SetFlag(self.value)));
        }
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
    }

    fn racey_setup(rt: &mut Runtime) {
        let flag = rt.create_machine(Flag { value: false });
        rt.create_machine(Writer { flag, value: true });
        rt.create_machine(Writer { flag, value: false });
    }

    #[test]
    fn engine_finds_order_dependent_bug() {
        let engine = TestEngine::new(TestConfig::new().with_iterations(200).with_seed(1));
        let report = engine.run(racey_setup);
        assert!(report.found_bug());
        let bug = report.bug.as_ref().unwrap();
        assert_eq!(bug.bug.kind, BugKind::SafetyViolation);
        assert!(bug.ndc > 0);
        assert!(report.iterations_run <= 200);
    }

    #[test]
    fn engine_reports_no_bug_for_correct_system() {
        struct Quiet;
        impl Machine for Quiet {
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        let engine = TestEngine::new(TestConfig::new().with_iterations(50));
        let report = engine.run(|rt| {
            rt.create_machine(Quiet);
        });
        assert!(!report.found_bug());
        assert_eq!(report.iterations_run, 50);
    }

    #[test]
    fn replay_reproduces_the_same_bug() {
        let engine = TestEngine::new(TestConfig::new().with_iterations(500).with_seed(3));
        let report = engine.run(racey_setup);
        let bug_report = report.bug.expect("bug should be found");
        let replayed = engine
            .replay(&bug_report.trace, racey_setup)
            .expect("replay should reproduce the bug");
        assert_eq!(replayed.kind, bug_report.bug.kind);
        assert_eq!(replayed.message, bug_report.bug.message);
    }

    #[test]
    fn pct_scheduler_also_finds_the_bug() {
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(500)
                .with_seed(5)
                .with_scheduler(SchedulerKind::Pct { change_points: 2 }),
        );
        let report = engine.run(racey_setup);
        assert!(report.found_bug());
        assert_eq!(report.scheduler, "pct");
    }

    #[test]
    fn shrink_candidates_run_under_the_exploration_runtime_config() {
        let faults = FaultPlan::new().with_crashes(2).with_drops(1);
        let config = TestConfig::new()
            .with_max_steps(1_234)
            .with_faults(faults)
            .with_shrink_budget(77);
        let explored = config.runtime_config();
        assert_eq!(
            explored,
            RuntimeConfig {
                max_steps: 1_234,
                trace_mode: TraceMode::DecisionsOnly,
                faults,
                ..RuntimeConfig::default()
            }
        );
        let shrink = config.shrink_config();
        assert_eq!(shrink.runtime, explored);
        assert_eq!(shrink.max_candidates, 77);
    }

    #[test]
    fn iteration_seeds_are_distinct() {
        let config = TestConfig::new().with_seed(42);
        let a = config.seed_for_iteration(0);
        let b = config.seed_for_iteration(1);
        assert_ne!(a, b);
    }

    #[test]
    fn nearby_base_seeds_produce_disjoint_seed_streams() {
        // Regression test for the pre-finalizer derivation: base seeds
        // related by the golden-ratio gamma (or simply adjacent) produced
        // heavily overlapping iteration-seed streams, so "independent" runs
        // explored mostly the same executions. 10k-iteration streams of
        // closely related base seeds must not share a single seed.
        const N: u64 = 10_000;
        let base = 2016u64;
        let gamma = 0x9E37_79B9_7F4A_7C15u64;
        let related = [
            base.wrapping_add(1),
            base ^ 1,
            base.wrapping_add(gamma),
            base.wrapping_sub(gamma),
            base ^ gamma,
        ];
        let reference: std::collections::HashSet<u64> = {
            let config = TestConfig::new().with_seed(base);
            (0..N).map(|i| config.seed_for_iteration(i)).collect()
        };
        for other in related {
            let config = TestConfig::new().with_seed(other);
            let collisions = (0..N)
                .filter(|&i| reference.contains(&config.seed_for_iteration(i)))
                .count();
            assert_eq!(
                collisions, 0,
                "base seeds {base} and {other} share {collisions} iteration seeds"
            );
        }
    }

    #[test]
    fn strategy_for_iteration_is_stable_and_covers_the_portfolio() {
        let config = TestConfig::new()
            .with_seed(5)
            .with_iterations(1_000)
            .with_default_portfolio();
        let portfolio = SchedulerKind::default_portfolio();
        let mut counts = vec![0u64; portfolio.len()];
        for iteration in 0..1_000 {
            let index = config
                .portfolio_index_for_iteration(iteration)
                .expect("portfolio configured");
            assert_eq!(portfolio[index], config.strategy_for_iteration(iteration));
            // Stable: asking again gives the same answer.
            assert_eq!(
                config.strategy_for_iteration(iteration),
                config.strategy_for_iteration(iteration)
            );
            counts[index] += 1;
        }
        // Unbiased: every strategy gets a substantial share of the space
        // (an exact split of 1000/7 would be ~143 each).
        for (index, &count) in counts.iter().enumerate() {
            assert!(
                count > 70,
                "strategy {index} drives only {count} of 1000 iterations"
            );
        }
        // Different base seeds produce a different mix.
        let other = TestConfig::new().with_seed(6).with_default_portfolio();
        assert!(
            (0..1_000).any(|i| {
                config.portfolio_index_for_iteration(i) != other.portfolio_index_for_iteration(i)
            }),
            "the strategy mix must depend on the base seed"
        );
    }

    #[test]
    fn without_portfolio_the_base_scheduler_drives_every_iteration() {
        let config = TestConfig::new().with_scheduler(SchedulerKind::RoundRobin);
        for iteration in 0..50 {
            assert_eq!(
                config.strategy_for_iteration(iteration),
                SchedulerKind::RoundRobin
            );
            assert_eq!(config.portfolio_index_for_iteration(iteration), None);
        }
    }

    #[test]
    fn serial_portfolio_run_attributes_iterations_per_strategy() {
        struct Quiet;
        impl Machine for Quiet {
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        let config = TestConfig::new()
            .with_iterations(200)
            .with_seed(3)
            .with_default_portfolio();
        let report = TestEngine::new(config.clone()).run(|rt| {
            rt.create_machine(Quiet);
        });
        assert!(!report.found_bug());
        assert_eq!(report.scheduler, "portfolio");
        // Rows come out in portfolio order and account for every iteration.
        let portfolio = SchedulerKind::default_portfolio();
        assert_eq!(report.per_strategy.len(), portfolio.len());
        for (row, kind) in report.per_strategy.iter().zip(&portfolio) {
            assert_eq!(row.scheduler, kind.describe());
        }
        let attributed: u64 = report.per_strategy.iter().map(|s| s.iterations_run).sum();
        assert_eq!(attributed, 200);
        // And the attribution matches the per-iteration assignment exactly.
        for (index, row) in report.per_strategy.iter().enumerate() {
            let expected = (0..200)
                .filter(|&i| config.portfolio_index_for_iteration(i) == Some(index))
                .count() as u64;
            assert_eq!(row.iterations_run, expected, "row {index}");
        }
    }

    /// Clonable twin of the racey harness, used by the prefix-sharing tests
    /// (snapshots require `clone_state` on every machine).
    #[derive(Clone)]
    struct CloneFlag {
        value: bool,
    }
    impl Machine for CloneFlag {
        fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
            if let Some(set) = event.downcast_ref::<SetFlag>() {
                if !set.0 && !self.value {
                    ctx.assert(false, "cleared a flag that was never set");
                }
                self.value = set.0;
            }
        }
        fn clone_state(&self) -> Option<Box<dyn Machine>> {
            Some(Box::new(self.clone()))
        }
    }

    #[derive(Clone)]
    struct CloneWriter {
        flag: crate::machine::MachineId,
        value: bool,
    }
    impl Machine for CloneWriter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(self.flag, Event::new(SetFlag(self.value)));
        }
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        fn clone_state(&self) -> Option<Box<dyn Machine>> {
            Some(Box::new(self.clone()))
        }
    }

    fn clone_racey_setup(rt: &mut Runtime) {
        let flag = rt.create_machine(CloneFlag { value: false });
        rt.create_machine(CloneWriter { flag, value: true });
        rt.create_machine(CloneWriter { flag, value: false });
    }

    #[test]
    fn prefix_sharing_reports_identical_results() {
        let base = TestConfig::new().with_iterations(300).with_seed(7);
        let straight = TestEngine::new(base.clone()).run(clone_racey_setup);
        let shared = TestEngine::new(base.clone().with_prefix_sharing(true)).run(clone_racey_setup);
        let a = straight.bug.as_ref().expect("racey bug is reachable");
        let b = shared.bug.as_ref().expect("racey bug is reachable");
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.trace.decisions, b.trace.decisions);
        assert_eq!(straight.iterations_run, shared.iterations_run);
        assert_eq!(straight.total_steps, shared.total_steps);

        // And byte-identical across worker counts under prefix sharing.
        let four =
            TestEngine::new(base.with_prefix_sharing(true).with_workers(4)).run(clone_racey_setup);
        let a = shared.bug.as_ref().expect("bug");
        let b = four.bug.as_ref().expect("bug");
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.trace.decisions, b.trace.decisions);
    }

    /// Everything of a report that is deterministic at any worker count: the
    /// winner, and on bug-free runs the counters and attribution rows too.
    fn report_key(report: &TestReport) -> String {
        match &report.bug {
            Some(found) => format!(
                "{} {} {:?} {:?} {:?}",
                found.iteration,
                report.scheduler,
                found.trace.seed,
                found.trace.decisions,
                found.bug
            ),
            None => format!(
                "{} {} {} {:?}",
                report.iterations_run, report.total_steps, report.scheduler, report.per_strategy
            ),
        }
    }

    /// A bug-free harness whose machines keep the default `clone_state`
    /// (None), so it is not snapshotable either.
    fn quiet_setup(rt: &mut Runtime) {
        struct Quiet;
        impl Machine for Quiet {
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        rt.create_machine(Quiet);
        rt.create_machine(Quiet);
    }

    #[test]
    fn prefix_sharing_falls_back_for_non_snapshotable_harnesses() {
        // `racey_setup` machines keep the default `clone_state` (None).
        let base = TestConfig::new().with_iterations(300).with_seed(7);
        for setup in [racey_setup, quiet_setup] {
            let straight = report_key(&TestEngine::new(base.clone()).run(setup));
            let shared = base.clone().with_prefix_sharing(true);
            assert_eq!(
                report_key(&TestEngine::new(shared.clone()).run(setup)),
                straight
            );
            let four_workers = TestEngine::new(shared.with_workers(4)).run(setup);
            assert_eq!(report_key(&four_workers), straight);
            assert_eq!(four_workers.workers, 4);
        }
    }

    #[test]
    fn prefix_fork_at_depth_zero_matches_straight_line_execution() {
        // Running every execution from the post-setup snapshot (no forced
        // steps before it) must pick the same winner as a straight-line run.
        let base = TestConfig::new().with_iterations(300).with_seed(9);
        let straight = TestEngine::new(base.clone()).run(clone_racey_setup);
        let forked = TestEngine::new(base.with_prefix_sharing(true)).run(clone_racey_setup);
        let a = straight.bug.as_ref().expect("bug");
        let b = forked.bug.as_ref().expect("bug");
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.trace.decisions, b.trace.decisions);
    }

    #[test]
    fn prefix_fork_falls_back_when_not_snapshotable() {
        let base = TestConfig::new().with_iterations(300).with_seed(7);
        for setup in [racey_setup, quiet_setup] {
            let straight = report_key(&TestEngine::new(base.clone()).run(setup));
            for workers in [1, 4] {
                // The fallback is a flat run at the configured worker count.
                let forked =
                    TestEngine::new(base.clone().with_prefix_sharing(true).with_workers(workers))
                        .run(setup);
                assert_eq!(report_key(&forked), straight, "{workers} workers");
                assert_eq!(forked.workers, workers);
            }
        }
    }

    #[test]
    fn prefix_fork_traces_replay_from_scratch() {
        let base = TestConfig::new().with_iterations(500).with_seed(11);
        let report = TestEngine::new(base.clone().with_prefix_sharing(true)).run(clone_racey_setup);
        let bug = report.bug.expect("forked exploration still finds the bug");
        // A shared run's trace starts at the snapshot's empty recording, so
        // an ordinary from-scratch replay reproduces the violation.
        let replayed = TestEngine::new(base)
            .replay(&bug.trace, clone_racey_setup)
            .expect("replay reproduces");
        assert_eq!(replayed.kind, bug.bug.kind);
        assert_eq!(replayed.message, bug.bug.message);
    }

    #[test]
    fn prefix_sharing_and_workers_are_config_values() {
        // One machine counting down through self-sends, so every execution
        // runs the same steps from the fork as from `setup`.
        #[derive(Debug, Clone)]
        struct Tick;
        #[derive(Clone)]
        struct Countdown(u32);
        impl Machine for Countdown {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send_to_self(Event::replicable(Tick));
            }
            fn handle(&mut self, ctx: &mut Context<'_>, _event: Event) {
                if self.0 > 0 {
                    self.0 -= 1;
                    ctx.send_to_self(Event::replicable(Tick));
                }
            }
            fn clone_state(&self) -> Option<Box<dyn Machine>> {
                Some(Box::new(self.clone()))
            }
        }
        let base = TestConfig::new().with_iterations(20);
        let run = |config: TestConfig| {
            TestEngine::new(config).run(|rt| {
                rt.create_machine(Countdown(20));
            })
        };
        let straight = run(base.clone());
        assert!(!base.prefix_sharing);
        let shared = base.clone().with_prefix_sharing(true);
        assert!(shared.prefix_sharing);
        assert_eq!(report_key(&run(shared.clone())), report_key(&straight));
        // Turning it off again runs straight-line.
        let cleared = shared.with_prefix_sharing(false);
        assert_eq!(cleared, base);

        // The report names the configured worker count, one worker included.
        for workers in [1, 3] {
            for config in [base.clone(), base.clone().with_prefix_sharing(true)] {
                assert_eq!(run(config.with_workers(workers)).workers, workers);
            }
        }
    }

    #[test]
    fn a_panicking_setup_fails_with_its_own_message_at_any_worker_count() {
        // Two workers run inline on a one-core host, on two threads
        // otherwise: the payload is the setup's own either way.
        for workers in [1, 2] {
            let engine = TestEngine::new(TestConfig::new().with_workers(workers));
            let payload = std::panic::catch_unwind(|| {
                engine.run(|_rt: &mut Runtime| panic!("the harness could not be built"))
            })
            .expect_err("the setup's panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"the harness could not be built"),
                "{workers} worker(s)"
            );
        }
    }

    #[test]
    fn summary_mentions_result() {
        let engine = TestEngine::new(TestConfig::new().with_iterations(10));
        let report = engine.run(|rt| {
            let _ = rt;
        });
        assert!(report.summary().contains("no bug found"));
        let engine = TestEngine::new(TestConfig::new().with_iterations(200).with_seed(1));
        let report = engine.run(racey_setup);
        assert!(report.summary().contains("BUG FOUND"));
    }

    #[test]
    fn executions_per_second_is_positive_after_run() {
        let engine = TestEngine::new(TestConfig::new().with_iterations(20));
        let report = engine.run(|rt| {
            let _ = rt;
        });
        assert!(report.executions_per_second() >= 0.0);
    }
}
