//! The traced run: one pass over a workload's plan, driven by hand so that
//! every layer boundary can be timed and counted from the benchmark's side.
//!
//! Each operation is run three ways, back to back so that host drift falls on
//! all three alike: through the engine (what the untraced run does), through
//! the hand-driven lifecycle with nothing timed, and through the hand-driven
//! lifecycle with every phase timed and the scheduler wrapped. The three must
//! report the same exact counts. The difference between the first two is the
//! engine's own cost per execution; between the last two, the cost of tracing.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::adapter::{
    self, ExecRecord, RunResult, RunSpec, SchedulerCounts, Strategies, RESET, RESTORE, RUN,
    SCHED_BUILD, SETUP, TAKE_TRACE,
};
use crate::alloc;
use crate::cases::{self, CRATES, STRATEGY_LABELS};
use crate::metrics;
use crate::run::set_up;
use crate::spans;
use crate::stats::{derive_seed, geometric_mean};
use crate::workloads::{host_cores, CorpusTrace, Inputs, Op, Workload};

/// Budget and base seeds of the single-strategy sweep behind
/// `scheduler.L.execs_to_bug_gmean` and `scheduler.L.miss_share`.
const SINGLE_BUDGET: u64 = 500;
const SINGLE_SEEDS: u64 = 4;
/// Executions per excluded portfolio entry behind
/// `clean.excluded_violation_share`, and base seeds tried per entry.
const EXCLUDED_ITERATIONS: u64 = 200;
const EXCLUDED_SEEDS: u64 = 2;

pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    pub trace: spans::Trace,
    /// Operations of the traced pass, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
}

/// A fixed pure-CPU loop, timed: how fast the host is right now.
fn calibrate() -> f64 {
    let start = Instant::now();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..2_000_000 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
    }
    std::hint::black_box(state);
    start.elapsed().as_nanos() as f64
}

/// What reading the clock costs a timed call, measured once per traced run
/// and taken back out of the per-layer numbers: a wrapped scheduler call or a
/// self-timing handler reads the clock twice, `inside_ns` of which falls
/// between the two reads and is booked as the call's own time, and all
/// `pair_ns` of which is booked to the `run` phase around it. Without the
/// correction a 10 ns `next_machine` reads as 35 ns and the scheduler's share
/// of `run` triples. The spans file keeps the times as read.
struct ClockCost {
    inside_ns: f64,
    pair_ns: f64,
}

const CLOCK_READS: u64 = 200_000;

fn clock_cost() -> ClockCost {
    let mut inside = 0u64;
    let start = Instant::now();
    for _ in 0..CLOCK_READS {
        let read = Instant::now();
        inside += read.elapsed().as_nanos() as u64;
    }
    let total = start.elapsed().as_nanos() as f64;
    ClockCost {
        inside_ns: std::hint::black_box(inside) as f64 / CLOCK_READS as f64,
        pair_ns: total / CLOCK_READS as f64,
    }
}

impl ClockCost {
    /// `ns` as timed inside `calls` timed calls, without the clock's share.
    fn inside(&self, ns: u64, calls: u64) -> f64 {
        (ns as f64 - calls as f64 * self.inside_ns).max(0.0)
    }

    /// `ns` of a phase that contained `calls` timed calls, without them.
    fn around(&self, ns: u64, calls: u64) -> f64 {
        (ns as f64 - calls as f64 * self.pair_ns).max(0.0)
    }
}

#[derive(Default)]
struct PerStrategy {
    execs: u64,
    steps: u64,
    scheduler_ns: f64,
    run_ns: f64,
    pruned: u64,
    races: u64,
    backtracks: u64,
}

#[derive(Default)]
struct PerCrate {
    execs: u64,
    steps: u64,
    run_ns: f64,
    setup_ns: u64,
    setups: u64,
}

/// Totals over the timed hand-driven executions.
#[derive(Default)]
struct Layers {
    runs: u64,
    execs: u64,
    steps: u64,
    decisions: u64,
    phase_ns: [u64; 6],
    phase_calls: [u64; 6],
    first_exec_ns: u64,
    snapshot_ns: u64,
    snapshots: u64,
    dirty: u64,
    /// `run` phase and scheduler time with the clock's cost taken out.
    run_ns: f64,
    scheduler_ns: f64,
    handler_calls: u64,
    handler_ns: f64,
    scheduler: SchedulerCounts,
    strategies: BTreeMap<&'static str, PerStrategy>,
    crates: [PerCrate; 5],
}

impl Layers {
    /// Adds one execution; `handler` is the `(calls, ns)` its self-timing
    /// handlers reported (the ring harness; zero otherwise).
    fn exec(
        &mut self,
        clock: &ClockCost,
        krate: usize,
        first_of_run: bool,
        record: &ExecRecord,
        handler: (u64, u64),
    ) {
        let calls = &record.scheduler;
        let scheduler_calls =
            calls.pick_calls + calls.note_calls + calls.fault_calls + calls.choice_calls;
        let scheduler_ns = clock.inside(calls.total_ns(), scheduler_calls);
        let run_ns = clock.around(record.phase_ns(RUN), scheduler_calls + handler.0);
        self.run_ns += run_ns;
        self.scheduler_ns += scheduler_ns;
        self.handler_calls += handler.0;
        self.handler_ns += clock.inside(handler.1, handler.0);
        self.execs += 1;
        self.steps += record.steps;
        self.decisions += record.decisions;
        let mut exec_ns = 0;
        for phase in 0..6 {
            if record.phases[phase] != (0, 0) {
                self.phase_ns[phase] += record.phase_ns(phase);
                self.phase_calls[phase] += 1;
                exec_ns += record.phase_ns(phase);
            }
        }
        if first_of_run {
            self.runs += 1;
            self.first_exec_ns += exec_ns;
        }
        if record.snapshot_ns > 0 {
            self.snapshot_ns += record.snapshot_ns;
            self.snapshots += 1;
        }
        self.dirty += record.dirty;
        self.scheduler.add(&record.scheduler);
        let strategy = self.strategies.entry(record.strategy).or_default();
        strategy.execs += 1;
        strategy.steps += record.steps;
        strategy.scheduler_ns += scheduler_ns;
        strategy.run_ns += run_ns;
        strategy.pruned += record.pruned;
        strategy.races += record.races;
        strategy.backtracks += record.backtracks;
        if let Some(totals) = self.crates.get_mut(krate) {
            totals.execs += 1;
            totals.steps += record.steps;
            totals.run_ns += run_ns;
            if record.phases[SETUP] != (0, 0) {
                totals.setup_ns += record.phase_ns(SETUP) - record.snapshot_ns;
                totals.setups += 1;
            }
        }
    }
}

/// `a / b`, or zero when there is nothing to divide by: a layer the workload
/// does not exercise reads zero.
fn per(a: u64, b: u64) -> f64 {
    ratio(a as f64, b)
}

fn ratio(a: f64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a / b as f64
    }
}

fn same_counts(what: &str, spec: &RunSpec, a: &RunResult, b: &RunResult) -> Result<(), String> {
    let key = |r: &RunResult| {
        (
            r.executions,
            r.steps,
            r.found.as_ref().map(|f| (f.iteration, f.seed, f.strategy)),
        )
    };
    if key(a) == key(b) {
        Ok(())
    } else {
        Err(format!(
            "{} seed {}: {what} disagree: {:?} against {:?}",
            spec.case.name,
            spec.seed,
            key(a),
            key(b)
        ))
    }
}

pub fn run(workload: Workload, seed: u64) -> Result<Report, String> {
    let calib_start = calibrate();
    let (inputs, _) = set_up(workload, seed)?;
    let mut metrics: BTreeMap<String, f64> = metrics::per_layer()
        .into_iter()
        .map(|metric| (metric.name, 0.0))
        .collect();
    let mut trace = spans::Trace::default();
    let epoch = Instant::now();
    let now = |epoch: Instant| epoch.elapsed().as_nanos() as u64;
    let root = trace.open("workload", None, None, 0);

    let clock = clock_cost();
    trace.aggregate(
        "bench/clock_read_pair",
        CLOCK_READS,
        (clock.pair_ns * CLOCK_READS as f64) as u64,
    );
    let failed = if workload == Workload::ShrinkReplay {
        shrink_pass(&inputs, epoch, root, &mut trace, &mut metrics)?
    } else {
        lifecycle_pass(&inputs, &clock, epoch, root, &mut trace, &mut metrics)?
    };
    match workload {
        Workload::BugHunt => single_strategy_sweep(seed, &mut metrics),
        Workload::StepLoop => full_trace_overhead(seed, &mut metrics),
        Workload::CleanSweep => excluded_entries(seed, &mut metrics),
        _ => {}
    }
    trace.close(root, now(epoch));

    metrics.insert("host.cores".to_string(), host_cores() as f64);
    metrics.insert("host.clock_ns".to_string(), clock.pair_ns);
    metrics.insert(
        "host.calib_ns".to_string(),
        (calib_start + calibrate()) / 2.0,
    );
    Ok(Report {
        metrics,
        trace,
        attempted: inputs.plan().len() as u64,
        failed,
    })
}

/// Engine, plain hand-driven and timed hand-driven, operation by operation.
/// Returns how many operations failed.
fn lifecycle_pass(
    inputs: &Inputs,
    clock: &ClockCost,
    epoch: Instant,
    root: u64,
    trace: &mut spans::Trace,
    metrics: &mut BTreeMap<String, f64>,
) -> Result<u64, String> {
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut layers = Layers::default();
    let (mut engine_ns, mut plain_ns, mut timed_ns, mut parallel_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let mut handler_raw = (0u64, 0u64);
    let mut execs_to_bug: Vec<f64> = Vec::new();
    let (mut hunts, mut misses, mut violations) = (0u64, 0u64, 0u64);

    for (_, op) in inputs.plan() {
        let (spec, is_hunt) = match op {
            Op::Hunt(spec) => (spec, true),
            Op::Sweep(spec) => (spec, false),
            Op::Shrink(_) => unreachable!("shrink_replay has its own traced pass"),
        };
        // The hand-driven lifecycle is one thread; compare like with like.
        let serial = RunSpec { workers: 1, ..spec };

        let start = Instant::now();
        let by_engine = adapter::engine_run(&serial);
        engine_ns += start.elapsed().as_nanos() as u64;

        let start = Instant::now();
        let (plain, calls, bytes) =
            alloc::counted(|| adapter::manual_run(&serial, false, epoch, |_| {}));
        plain_ns += start.elapsed().as_nanos() as u64;
        allocs += calls;
        alloc_bytes += bytes;

        let group = trace.open(
            if is_hunt { "hunt" } else { "sweep" },
            Some(root),
            None,
            now(),
        );
        adapter::ring_timing(spec.case.harness == cases::Harness::Ring);
        let start = Instant::now();
        let mut first = true;
        let mut handler_seen = (0u64, 0u64);
        let timed = adapter::manual_run(&serial, true, epoch, |record| {
            let total = adapter::ring_handler_totals();
            let handler = (total.0 - handler_seen.0, total.1 - handler_seen.1);
            handler_seen = total;
            layers.exec(clock, spec.case.krate, first, record, handler);
            trace.exec(group, record);
            first = false;
        });
        timed_ns += start.elapsed().as_nanos() as u64;
        adapter::ring_timing(false);
        handler_raw = (
            handler_raw.0 + handler_seen.0,
            handler_raw.1 + handler_seen.1,
        );
        trace.close(group, now());

        same_counts(
            "engine and hand-driven lifecycle",
            &spec,
            &by_engine,
            &plain,
        )?;
        same_counts(
            "plain and timed hand-driven lifecycle",
            &spec,
            &plain,
            &timed,
        )?;

        if spec.workers > 1 {
            let start = Instant::now();
            let parallel = adapter::engine_run(&spec);
            parallel_ns += start.elapsed().as_nanos() as u64;
            same_counts("one worker and several", &spec, &by_engine, &parallel)?;
        }
        if is_hunt {
            hunts += 1;
            match &by_engine.found {
                Some(found) => execs_to_bug.push((found.iteration + 1) as f64),
                None => misses += 1,
            }
        } else {
            violations += u64::from(by_engine.found.is_some());
        }
    }
    trace.aggregate("run/handler", handler_raw.0, handler_raw.1);

    let mut set = |name: &str, value: f64| {
        let slot = metrics
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a registered per-layer metric"));
        *slot = value;
    };
    let calls = layers.scheduler;
    set(
        "engine.overhead_ns_per_exec",
        (engine_ns as f64 - plain_ns as f64) / layers.execs as f64,
    );
    set(
        "engine.first_exec_ms",
        per(layers.first_exec_ns, layers.runs) / 1e6,
    );
    set(
        "engine.reset_ns_per_exec",
        per(layers.phase_ns[RESET], layers.phase_calls[RESET]),
    );
    set(
        "engine.setup_ns_per_exec",
        per(layers.phase_ns[SETUP], layers.execs),
    );
    set("engine.setup_calls", layers.phase_calls[SETUP] as f64);
    if inputs.workers > 1 {
        // Same steps both ways, so the ratio of rates is the ratio of times.
        set(
            "engine.par_efficiency",
            engine_ns as f64 / (inputs.workers as f64 * parallel_ns as f64),
        );
    }
    set(
        "scheduler.build_ns",
        per(layers.phase_ns[SCHED_BUILD], layers.execs),
    );
    set(
        "runtime.run_ns_per_step",
        ratio(layers.run_ns, layers.steps),
    );
    set(
        "runtime.self_ns_per_step",
        ratio(
            (layers.run_ns - layers.scheduler_ns - layers.handler_ns).max(0.0),
            layers.steps,
        ),
    );
    set("runtime.allocs_per_exec", per(allocs, layers.execs));
    set(
        "runtime.alloc_bytes_per_exec",
        per(alloc_bytes, layers.execs),
    );
    set(
        "machines.handler_ns_per_step",
        ratio(layers.handler_ns, layers.steps),
    );
    set("runtime.steps_per_exec", per(layers.steps, layers.execs));
    set(
        "runtime.enabled_width_mean",
        per(layers.scheduler.width_sum, layers.scheduler.pick_calls),
    );
    set(
        "trace.decisions_per_exec",
        per(layers.decisions, layers.execs),
    );
    set(
        "fault.injected_per_exec",
        per(layers.scheduler.faults_injected, layers.execs),
    );
    set(
        "runtime.snapshot_us",
        per(layers.snapshot_ns, layers.snapshots) / 1e3,
    );
    set(
        "runtime.restore_ns_per_exec",
        per(layers.phase_ns[RESTORE], layers.phase_calls[RESTORE]),
    );
    set(
        "runtime.dirty_per_fork",
        per(layers.dirty, layers.phase_calls[RESTORE]),
    );
    set(
        "scheduler.pick_ns_per_step",
        ratio(clock.inside(calls.pick_ns, calls.pick_calls), layers.steps),
    );
    set(
        "scheduler.note_ns_per_step",
        ratio(clock.inside(calls.note_ns, calls.note_calls), layers.steps),
    );
    set(
        "scheduler.fault_ns_per_step",
        ratio(
            clock.inside(calls.fault_ns, calls.fault_calls),
            layers.steps,
        ),
    );
    set(
        "scheduler.choice_ns_per_call",
        ratio(
            clock.inside(calls.choice_ns, calls.choice_calls),
            calls.choice_calls,
        ),
    );
    if layers.run_ns > 0.0 {
        set(
            "scheduler.share_of_run",
            layers.scheduler_ns / layers.run_ns,
        );
    }
    for label in STRATEGY_LABELS {
        if let Some(totals) = layers.strategies.get(label) {
            set(
                &format!("scheduler.{label}.ns_per_step"),
                ratio(totals.scheduler_ns, totals.steps),
            );
            set(
                &format!("scheduler.{label}.run_ns_per_step"),
                ratio(totals.run_ns, totals.steps),
            );
        }
    }
    if let Some(totals) = layers.strategies.get("sleep-set") {
        set(
            "scheduler.sleep-set.pruned_per_exec",
            per(totals.pruned, totals.execs),
        );
    }
    if let Some(totals) = layers.strategies.get("dpor") {
        set(
            "scheduler.dpor.pruned_per_exec",
            per(totals.pruned, totals.execs),
        );
        set(
            "scheduler.dpor.races_per_exec",
            per(totals.races, totals.execs),
        );
        set(
            "scheduler.dpor.backtracks_per_exec",
            per(totals.backtracks, totals.execs),
        );
    }
    set(
        "trace.take_ns_per_exec",
        per(layers.phase_ns[TAKE_TRACE], layers.phase_calls[TAKE_TRACE]),
    );
    for (krate, totals) in CRATES.iter().zip(&layers.crates) {
        set(
            &format!("{krate}.run_ns_per_step"),
            ratio(totals.run_ns, totals.steps),
        );
        set(
            &format!("{krate}.setup_us"),
            per(totals.setup_ns, totals.setups) / 1e3,
        );
        set(
            &format!("{krate}.steps_per_exec"),
            per(totals.steps, totals.execs),
        );
    }
    if hunts > 0 {
        set(
            "hunt.execs_to_bug_gmean",
            geometric_mean(&execs_to_bug).unwrap_or(0.0),
        );
        set("hunt.miss_share", per(misses, hunts));
    }
    set(
        "bench.trace_overhead_pct",
        (timed_ns as f64 - plain_ns as f64) / plain_ns as f64 * 100.0,
    );
    Ok(misses + violations)
}

/// The corpus, once as the untraced run does it and once with each of its
/// three stages timed. Returns how many operations failed.
fn shrink_pass(
    inputs: &Inputs,
    epoch: Instant,
    root: u64,
    trace: &mut spans::Trace,
    metrics: &mut BTreeMap<String, f64>,
) -> Result<u64, String> {
    let now = || epoch.elapsed().as_nanos() as u64;
    let (mut plain_ns, mut timed_ns) = (0u64, 0u64);
    let (mut replay_ns, mut shrink_ns, mut roundtrip_ns) = (0u64, 0u64, 0u64);
    let (mut candidates, mut accepted, mut setups) = (0u64, 0u64, 0u64);
    let (mut original, mut minimised) = (0u64, 0u64);
    let mut failed = 0u64;
    let bugs = inputs.corpus.len() as u64;
    for index in 0..inputs.corpus.len() {
        let plain = inputs.execute(Op::Shrink(index))?;
        plain_ns += plain.ns;

        let CorpusTrace { case, witness, .. } = &inputs.corpus[index];
        let group = trace.open("shrink", Some(root), None, now());
        let span = trace.open("strict_replay", Some(group), Some(group), now());
        let start = Instant::now();
        let replay = adapter::strict_replay(case, witness);
        replay_ns += start.elapsed().as_nanos() as u64;
        trace.close(span, now());
        let span = trace.open("shrink_trace", Some(group), Some(group), now());
        let shrink_start = Instant::now();
        let shrunk = adapter::shrink(case, witness);
        let this_shrink_ns = shrink_start.elapsed().as_nanos() as u64;
        timed_ns += start.elapsed().as_nanos() as u64;
        trace.close(span, now());
        let span = trace.open("verify_replay", Some(group), Some(group), now());
        let verify = adapter::strict_replay(case, &shrunk.minimized);
        failed += u64::from(!verify.same_bug);
        trace.close(span, now());
        trace.close(group, now());
        trace.aggregate("shrink_trace/candidate", shrunk.setups, this_shrink_ns);

        let counts = vec![
            replay.steps,
            verify.steps,
            shrunk.original_decisions as u64,
            shrunk.minimized_decisions as u64,
            shrunk.candidates,
            shrunk.accepted,
        ];
        if counts != plain.counts {
            return Err(format!(
                "{}: two shrinks of one trace disagree: {:?} against {:?}",
                case.name, plain.counts, counts
            ));
        }
        shrink_ns += this_shrink_ns;
        candidates += shrunk.candidates;
        accepted += shrunk.accepted;
        setups += shrunk.setups;
        original += shrunk.original_decisions as u64;
        minimised += shrunk.minimized_decisions as u64;

        let start = Instant::now();
        if witness.json_roundtrip().is_none() {
            return Err(format!(
                "{}: the trace does not survive a JSON round trip",
                case.name
            ));
        }
        roundtrip_ns += start.elapsed().as_nanos() as u64;
    }
    let mut set = |name: &str, value: f64| {
        *metrics.get_mut(name).expect("registered per-layer metric") = value;
    };
    set("shrink.candidates_per_bug", per(candidates, bugs));
    set("shrink.candidate_us", per(shrink_ns, setups) / 1e3);
    set("shrink.accept_share", per(accepted, candidates));
    set(
        "shrink.strict_replay_us_per_bug",
        per(replay_ns, bugs) / 1e3,
    );
    set("shrink.min_ndc_ratio", per(minimised, original));
    set("trace.json_roundtrip_ms", roundtrip_ns as f64 / 1e6);
    set(
        "bench.trace_overhead_pct",
        (timed_ns as f64 - plain_ns as f64) / plain_ns as f64 * 100.0,
    );
    Ok(failed)
}

/// Every seeded bug under each strategy on its own: which strategies earn the
/// portfolio its `execs_to_bug_gmean` and which miss. Counts only, run once.
fn single_strategy_sweep(seed: u64, metrics: &mut BTreeMap<String, f64>) {
    for label in STRATEGY_LABELS {
        let mut execs: Vec<f64> = Vec::new();
        let (mut hunts, mut misses) = (0u64, 0u64);
        for case in cases::bug_cases() {
            for base in 0..SINGLE_SEEDS {
                let result = adapter::engine_run(&RunSpec {
                    case,
                    seed: derive_seed(seed, 6, base),
                    iterations: SINGLE_BUDGET,
                    workers: 1,
                    strategies: Strategies::Single(label),
                    prefix_share: false,
                });
                hunts += 1;
                // A miss is censored at the budget.
                execs.push(match result.found {
                    Some(found) => (found.iteration + 1) as f64,
                    None => {
                        misses += 1;
                        SINGLE_BUDGET as f64
                    }
                });
            }
        }
        metrics.insert(
            format!("scheduler.{label}.execs_to_bug_gmean"),
            geometric_mean(&execs).unwrap_or(0.0),
        );
        metrics.insert(format!("scheduler.{label}.miss_share"), per(misses, hunts));
    }
}

/// The ring harness under `TraceMode::Full` against decisions-only, in
/// interleaved pairs, alternating which side runs first.
fn full_trace_overhead(seed: u64, metrics: &mut BTreeMap<String, f64>) {
    let case = cases::ring_case();
    let (mut full_ns, mut lean_ns) = (0u64, 0u64);
    for (index, label) in STRATEGY_LABELS.iter().cycle().take(28).enumerate() {
        let exec_seed = derive_seed(seed, 7, index as u64);
        let time = |full: bool| {
            let start = Instant::now();
            std::hint::black_box(adapter::single_execution(&case, label, exec_seed, full));
            start.elapsed().as_nanos() as u64
        };
        if index % 2 == 0 {
            full_ns += time(true);
            lean_ns += time(false);
        } else {
            lean_ns += time(false);
            full_ns += time(true);
        }
    }
    metrics.insert(
        "trace.full_mode_overhead_pct".to_string(),
        (full_ns as f64 - lean_ns as f64) / lean_ns as f64 * 100.0,
    );
}

/// The portfolio entries the timed sweep leaves out of the fixed megakv
/// (`cases::KV_FIXED_EXCLUDED`): the share of runs on which they still report
/// a violation. Zero once the finding is fixed.
fn excluded_entries(seed: u64, metrics: &mut BTreeMap<String, f64>) {
    let (mut runs, mut violations) = (0u64, 0u64);
    for case in cases::fixed_cases() {
        for entry in 0..cases::PORTFOLIO_LABELS.len() {
            if cases::sweeps(&case, entry) {
                continue;
            }
            for base in 0..EXCLUDED_SEEDS {
                let result = adapter::engine_run(&RunSpec {
                    case,
                    seed: derive_seed(seed, 8, entry as u64 * EXCLUDED_SEEDS + base),
                    iterations: EXCLUDED_ITERATIONS,
                    workers: 1,
                    strategies: Strategies::Entry(entry),
                    prefix_share: false,
                });
                runs += 1;
                violations += u64::from(result.found.is_some());
            }
        }
    }
    metrics.insert(
        "clean.excluded_violation_share".to_string(),
        per(violations, runs),
    );
}
