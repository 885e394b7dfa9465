//! Benches measuring the cost of systematic testing (§6.2): executions per
//! unit of time for each case-study harness, the scheduler ablations (random
//! vs PCT vs round-robin, PCT priority-change budget, liveness step bound),
//! the step-loop hot path, and the serial vs work-stealing parallel engine
//! comparison.
//!
//! This is a plain `harness = false` bench (no Criterion: the build
//! environment is hermetic). Each case runs a few timed repetitions and
//! prints the median wall-clock time plus executions/second.
//!
//! Besides the human-readable table the bench writes a machine-readable
//! `BENCH_pr10.json` (override with `--json PATH`; schema-compatible with
//! `BENCH_pr2.json`, plus per-strategy portfolio rows, the
//! schedule-shrinking row added in PR 4, the fault-injection overhead rows
//! added in PR 5, the worker-count scaling rows added in PR 6, the
//! calibration probe plus schedule-reduction rows added in PR 7, the
//! mega-scale machine-count sweep added in PR 8, the copy-on-write
//! fork-cost sweep added in PR 9, and the DPOR-vs-sleep-set reduction plus
//! parallel prefix-tree scaling rows added in PR 10) so the
//! perf trajectory of the engine is tracked from PR 2 on — `dashboard`
//! renders the whole `BENCH_*.json` series as a trend table. `--quick`
//! shrinks every budget for CI smoke runs.
//!
//! Run with `cargo bench -p bench --bench schedulers -- [--quick] [--json PATH]`.

use std::time::{Duration, Instant};

use psharp::engine::{ParallelTestEngine, PrefixForkEngine};
use psharp::json::{Json, ToJson};
use psharp::prelude::*;
use psharp::runtime::RuntimeConfig;
use psharp::scheduler::RandomScheduler;

/// Pre-change reference point for the step-loop hot path, measured on the
/// same host immediately before the PR 2 zero-allocation refactor (commit
/// ead1cb9: per-step enabled-set `Vec` + `String` clones into every trace
/// record, fixed-stripe parallel engine). `speedup_vs_baseline` in the JSON
/// is computed against this figure.
const BASELINE_SERIAL_RANDOM_EXECS_PER_SEC: f64 = 2774.0;

/// The step-loop hotpath figure of the committed PR 2 reference run
/// (`BENCH_pr2.json`), used by the CI bench-smoke job to warn on serial
/// regressions of more than 10%.
const PR2_SERIAL_RANDOM_EXECS_PER_SEC: f64 = 6069.0;

/// One timed measurement, kept for the JSON report.
struct BenchResult {
    group: &'static str,
    name: String,
    median: Duration,
    execs_per_sec: f64,
    steps: u64,
}

impl ToJson for BenchResult {
    fn to_json_value(&self) -> Json {
        Json::object([
            ("group", Json::Str(self.group.to_string())),
            ("name", Json::Str(self.name.clone())),
            ("median_ms", Json::Float(self.median.as_secs_f64() * 1e3)),
            ("execs_per_sec", Json::Float(self.execs_per_sec)),
            ("steps", Json::UInt(self.steps)),
        ])
    }
}

/// Global bench settings parsed from argv.
struct Settings {
    /// Repetitions per case (median reported).
    reps: usize,
    /// Multiplier applied to every iteration budget (1 = full run).
    scale: u64,
    /// Output path of the machine-readable report.
    json: String,
}

fn parse_settings() -> Settings {
    let mut settings = Settings {
        reps: 5,
        scale: 1,
        json: "BENCH_pr10.json".to_string(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--quick" => {
                settings.reps = 2;
                settings.scale = 4;
            }
            "--json" => {
                settings.json = argv.next().expect("--json requires a path");
            }
            // `cargo bench` passes `--bench` through to the binary.
            "--bench" => {}
            other => panic!("unknown argument {other:?}"),
        }
    }
    settings
}

/// Outcome of the paired fault-probe measurement: probe-on and probe-off
/// runs interleaved rep-by-rep so container-speed drift hits both sides of
/// every pair equally.
struct ProbeOverhead {
    /// Median of the per-pair overhead ratios, in percent (can be negative:
    /// a faster probe-on run is pure measurement noise).
    raw_percent: f64,
    /// Half the spread of the per-pair ratios, in percent — the measurement
    /// noise floor of this run.
    noise_percent: f64,
}

impl ProbeOverhead {
    /// The reported overhead: a probe cannot make the loop faster, so a
    /// negative raw figure clamps to zero.
    fn clamped_percent(&self) -> f64 {
        self.raw_percent.max(0.0)
    }

    /// True when the noise floor is larger than the measured effect — the
    /// run cannot distinguish the probe cost from container drift.
    fn noise_exceeds_effect(&self) -> bool {
        self.noise_percent > self.raw_percent.abs()
    }
}

/// A fork-cost row: restores/second through the copy-on-write path vs the
/// full from-scratch rebuild, at one total machine count.
struct ForkCostRow {
    machines: usize,
    dirty_machines: u64,
    cow_restores_per_sec: f64,
    full_restores_per_sec: f64,
}

impl ForkCostRow {
    fn speedup(&self) -> f64 {
        self.cow_restores_per_sec / self.full_restores_per_sec.max(1e-9)
    }
}

/// Paired sleep-set vs DPOR measurement on the wide all-local workload
/// (PR 10): both strategies get the identical budget; each row carries its
/// own redundancy ratio `(explored steps + pruned equivalents) / explored
/// steps` so the headline figure — how much further DPOR's vector-clock
/// pruning reaches than the sleep-set window — comes from one run.
struct DporReduction {
    sleep_set_ratio: f64,
    dpor_ratio: f64,
    races_detected: u64,
    backtracks_scheduled: u64,
}

impl DporReduction {
    /// DPOR's redundancy ratio relative to sleep sets on the same workload.
    fn ratio_vs_sleep_set(&self) -> f64 {
        self.dpor_ratio / self.sleep_set_ratio.max(1e-9)
    }
}

struct Bench {
    settings: Settings,
    results: Vec<BenchResult>,
    /// Redundancy ratio measured by the `schedule_reduction` group:
    /// `(explored steps + pruned schedule-equivalents) / explored steps`.
    reduction_ratio: Option<f64>,
    /// Paired sleep-set/DPOR ratios from the `dpor_reduction` group.
    dpor_reduction: Option<DporReduction>,
    /// Paired probe-on/probe-off measurement from the `fault_injection`
    /// group.
    probe_overhead: Option<ProbeOverhead>,
    /// Copy-on-write fork cost per machine count from the `fork_cost` group.
    fork_cost: Vec<ForkCostRow>,
}

impl Bench {
    /// Scales an iteration budget down for `--quick` runs (at least 1).
    fn budget(&self, iterations: u64) -> u64 {
        (iterations / self.settings.scale).max(1)
    }

    /// Times `body` over the configured repetitions and reports the median.
    fn bench<F: FnMut() -> u64>(
        &mut self,
        group: &'static str,
        name: &str,
        executions: u64,
        mut body: F,
    ) {
        let mut times: Vec<Duration> = Vec::with_capacity(self.settings.reps);
        let mut last_steps = 0;
        for _ in 0..self.settings.reps {
            let start = Instant::now();
            last_steps = body();
            times.push(start.elapsed());
        }
        times.sort();
        let median = times[times.len() / 2];
        let execs_per_sec = executions as f64 / median.as_secs_f64().max(1e-9);
        println!(
            "{group:<32} {name:<24} median {:>9.3}ms  {:>10.0} exec/s  {last_steps:>8} steps",
            median.as_secs_f64() * 1e3,
            execs_per_sec,
        );
        self.results.push(BenchResult {
            group,
            name: name.to_string(),
            median,
            execs_per_sec,
            steps: last_steps,
        });
    }

    /// The measured executions/second of a named case, when it has run.
    fn execs_per_sec(&self, group: &str, name: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.group == group && r.name == name)
            .map(|r| r.execs_per_sec)
    }
}

fn run_iterations<F>(iterations: u64, max_steps: usize, scheduler: SchedulerKind, build: F) -> u64
where
    F: Fn(&mut Runtime),
{
    run_iterations_with_faults(iterations, max_steps, scheduler, FaultPlan::none(), build)
}

fn run_iterations_with_faults<F>(
    iterations: u64,
    max_steps: usize,
    scheduler: SchedulerKind,
    faults: FaultPlan,
    build: F,
) -> u64
where
    F: Fn(&mut Runtime),
{
    let engine = TestEngine::new(
        TestConfig::new()
            .with_iterations(iterations)
            .with_max_steps(max_steps)
            .with_seed(42)
            .with_scheduler(scheduler)
            .with_faults(faults),
    );
    engine.run(build).total_steps
}

/// A small bug-free harness that maximizes step-loop pressure: three
/// self-sending machines run the runtime to the step bound with almost no
/// per-step work of their own, so the measurement isolates the engine's
/// scheduling + trace-recording overhead.
mod hotpath {
    use super::*;

    #[derive(Debug)]
    pub struct Spin;

    pub struct Spinner;
    impl Machine for Spinner {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send_to_self(Event::new(Spin));
        }
        fn handle(&mut self, ctx: &mut Context<'_>, _event: Event) {
            ctx.send_to_self(Event::new(Spin));
        }
    }

    pub fn setup(rt: &mut Runtime) {
        for _ in 0..3 {
            rt.create_machine(Spinner);
        }
    }
}

const HOTPATH_ITERATIONS: u64 = 200;
const HOTPATH_MAX_STEPS: usize = 2_000;

/// A clonable, all-local workload: three sinks consume pre-queued events with
/// no sends of their own, so every step is independent of every other
/// machine's — the reference case for sleep-set partial-order reduction, and
/// (being snapshotable) for prefix-sharing forks.
mod reduction {
    use super::*;

    #[derive(Debug, Clone)]
    pub struct Job;

    #[derive(Clone)]
    pub struct LocalSink;
    impl Machine for LocalSink {
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        fn clone_state(&self) -> Option<Box<dyn Machine>> {
            Some(Box::new(self.clone()))
        }
    }

    pub const SINKS: usize = 3;
    pub const EVENTS_PER_SINK: usize = 600;
    pub const MAX_STEPS: usize = SINKS * EVENTS_PER_SINK + 8;

    pub fn setup(rt: &mut Runtime) {
        for _ in 0..SINKS {
            let sink = rt.create_machine(LocalSink);
            for _ in 0..EVENTS_PER_SINK {
                rt.send(sink, Event::replicable(Job));
            }
        }
    }

    /// The wide variant for the DPOR comparison: the sleep-set scheduler's
    /// pruning is capped by its fixed sleep window, while DPOR's sticky
    /// run-to-completion prunes against *every* concurrently-enabled local
    /// machine — so the gap between the two only shows once the enabled set
    /// is wider than the sleep window.
    pub const WIDE_SINKS: usize = 20;
    pub const WIDE_EVENTS_PER_SINK: usize = 90;
    pub const WIDE_MAX_STEPS: usize = WIDE_SINKS * WIDE_EVENTS_PER_SINK + 32;

    pub fn setup_wide(rt: &mut Runtime) {
        for _ in 0..WIDE_SINKS {
            let sink = rt.create_machine(LocalSink);
            for _ in 0..WIDE_EVENTS_PER_SINK {
                rt.send(sink, Event::replicable(Job));
            }
        }
    }
}

/// Fixed-work calibration probe: a deterministic workload whose size never
/// scales with `--quick`, so every `BENCH_*.json` carries a comparable
/// container-speed figure. The dashboard divides each report's headline
/// numbers by this row to render container-normalized trends (the PR 6 run
/// measured ~2x slower inside the CI container than the PR 2 reference; the
/// raw trend table could not tell that apart from a real regression).
const CALIBRATION_ITERATIONS: u64 = 50;

fn calibration(b: &mut Bench) {
    let group = "calibration";
    b.bench(
        group,
        "fixed_roundrobin_hotpath",
        CALIBRATION_ITERATIONS,
        || {
            run_iterations(
                CALIBRATION_ITERATIONS,
                HOTPATH_MAX_STEPS,
                SchedulerKind::RoundRobin,
                hotpath::setup,
            )
        },
    );
}

/// Schedule-space reduction (PR 7): sleep-set POR and prefix-sharing
/// snapshot forks on the all-local reference workload.
///
/// * `random_baseline` vs `sleep_set`: same execution budget; the sleep-set
///   rows additionally record how many provably-equivalent schedules the
///   strategy *pruned* instead of exploring. The redundancy ratio
///   `(steps + pruned) / steps` scales raw exec/s into effective
///   schedule-equivalents/s.
/// * `straight_line` vs `prefix_shared`: the identical run with and without
///   prefix sharing; shared runs execute setup once and fork every later
///   iteration from the post-setup snapshot.
fn schedule_reduction(b: &mut Bench) {
    let group = "schedule_reduction";
    let iterations = b.budget(HOTPATH_ITERATIONS);
    let base = TestConfig::new()
        .with_iterations(iterations)
        .with_max_steps(reduction::MAX_STEPS)
        .with_seed(42);
    b.bench(group, "random_baseline", iterations, || {
        TestEngine::new(base.clone().with_scheduler(SchedulerKind::Random))
            .run(reduction::setup)
            .total_steps
    });
    let mut pruned = 0u64;
    let mut steps = 0u64;
    let sleep_config = base.clone().with_scheduler(SchedulerKind::sleep_set());
    b.bench(group, "sleep_set", iterations, || {
        let report = TestEngine::new(sleep_config.clone()).run(reduction::setup);
        pruned = report.per_strategy.iter().map(|r| r.pruned_schedules).sum();
        steps = report.total_steps;
        steps
    });
    let ratio = (steps + pruned) as f64 / steps.max(1) as f64;
    b.reduction_ratio = Some(ratio);
    println!(
        "    sleep-set pruned {pruned} schedule-equivalents over {steps} steps \
         (redundancy ratio {ratio:.2}x)"
    );
    // Prefix sharing on a real harness: the chaintable build replays every
    // table insert (plus spec-model seeding) each iteration, while shared
    // runs pay it once and fork every later iteration from the post-setup
    // snapshot. A setup-heavy configuration (many pre-loaded rows, short
    // run) isolates exactly the work the snapshot amortizes.
    let chain = |rt: &mut Runtime| {
        let config = chaintable::ChainConfig {
            initial_rows: 512,
            key_space: 64,
            ops_per_service: 2,
            ..chaintable::ChainConfig::fixed()
        };
        chaintable::build_harness(rt, &config);
    };
    let chain_base = TestConfig::new()
        .with_iterations(iterations)
        .with_max_steps(150)
        .with_seed(42);
    b.bench(group, "straight_line", iterations, || {
        TestEngine::new(chain_base.clone()).run(chain).total_steps
    });
    b.bench(group, "prefix_shared", iterations, || {
        TestEngine::new(chain_base.clone().with_prefix_sharing(true))
            .run(chain)
            .total_steps
    });
}

/// Vector-clock DPOR vs sleep sets (PR 10): the same execution budget on the
/// *wide* all-local workload (20 sinks). The sleep-set row's pruning is
/// bounded by its fixed sleep window; the DPOR row's sticky
/// run-to-completion pruning scales with the enabled-set width, so its
/// redundancy ratio should clear 1.5x the sleep-set figure here — that gap
/// is the headline `dpor_reduction` number the CI smoke job tracks.
fn dpor_reduction(b: &mut Bench) {
    let group = "dpor_reduction";
    let iterations = b.budget(HOTPATH_ITERATIONS);
    let base = TestConfig::new()
        .with_iterations(iterations)
        .with_max_steps(reduction::WIDE_MAX_STEPS)
        .with_seed(42);
    let ratio_of = |report: &psharp::engine::TestReport| {
        let pruned: u64 = report.per_strategy.iter().map(|r| r.pruned_schedules).sum();
        (report.total_steps + pruned) as f64 / report.total_steps.max(1) as f64
    };
    let mut sleep_set_ratio = 1.0;
    let sleep_config = base.clone().with_scheduler(SchedulerKind::sleep_set());
    b.bench(group, "sleep_set_wide", iterations, || {
        let report = TestEngine::new(sleep_config.clone()).run(reduction::setup_wide);
        sleep_set_ratio = ratio_of(&report);
        report.total_steps
    });
    let mut dpor_ratio = 1.0;
    let mut races_detected = 0u64;
    let mut backtracks_scheduled = 0u64;
    let dpor_config = base.with_scheduler(SchedulerKind::Dpor);
    b.bench(group, "dpor_wide", iterations, || {
        let report = TestEngine::new(dpor_config.clone()).run(reduction::setup_wide);
        dpor_ratio = ratio_of(&report);
        races_detected = report.per_strategy.iter().map(|r| r.races_detected).sum();
        backtracks_scheduled = report
            .per_strategy
            .iter()
            .map(|r| r.backtracks_scheduled)
            .sum();
        report.total_steps
    });
    let row = DporReduction {
        sleep_set_ratio,
        dpor_ratio,
        races_detected,
        backtracks_scheduled,
    };
    println!(
        "    DPOR redundancy {dpor_ratio:.2}x vs sleep-set {sleep_set_ratio:.2}x \
         ({:.2}x further; {races_detected} races, {backtracks_scheduled} backtracks)",
        row.ratio_vs_sleep_set()
    );
    b.dpor_reduction = Some(row);
}

/// The worker counts the parallel prefix-tree sweep measures.
const TREE_WORKER_COUNTS: [usize; 2] = [1, 8];

/// Parallel prefix-tree exploration (PR 10): the same bug-free chaintable
/// portfolio budget driven through [`PrefixForkEngine`] at 1 and 8 workers.
/// Phase 1 expands the shared prefix tree through a work-stealing queue of
/// snapshot nodes and phase 2 drains the iteration space over the pooled
/// leaves, so the 8-worker row should scale like the flat parallel engine
/// while paying the tree expansion once. `write_report` computes the
/// per-core efficiency the CI bench-smoke job warns on.
fn prefix_tree_scaling(b: &mut Bench) {
    let group = "prefix_tree";
    let iterations = b.budget(40);
    let base = TestConfig::new()
        .with_iterations(iterations)
        .with_max_steps(2_000)
        .with_seed(42)
        .with_default_portfolio();
    let build = |rt: &mut Runtime| {
        chaintable::build_harness(rt, &chaintable::ChainConfig::fixed());
    };
    for workers in TREE_WORKER_COUNTS {
        b.bench(
            group,
            &format!("tree_workers_{workers}"),
            iterations,
            || {
                PrefixForkEngine::new(base.clone().with_workers(workers), 2)
                    .run(build)
                    .total_steps
            },
        );
    }
}

/// Raw step-loop throughput: the serial random-scheduler figure here is the
/// number tracked across PRs (`serial_random_execs_per_sec` in the JSON).
fn step_loop_hotpath(b: &mut Bench) {
    let group = "step_loop_hotpath";
    let iterations = b.budget(HOTPATH_ITERATIONS);
    b.bench(group, "serial_random", iterations, || {
        run_iterations(
            iterations,
            HOTPATH_MAX_STEPS,
            SchedulerKind::Random,
            hotpath::setup,
        )
    });
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let config = TestConfig::new()
        .with_iterations(iterations)
        .with_max_steps(HOTPATH_MAX_STEPS)
        .with_seed(42)
        .with_workers(workers);
    b.bench(
        group,
        &format!("parallel_{workers}_workers"),
        iterations,
        || {
            ParallelTestEngine::new(config.clone())
                .run(hotpath::setup)
                .total_steps
        },
    );
}

/// Executions/second of each harness under the random scheduler (the cost the
/// paper's §6.2 reports as "time to bug" denominators).
fn harness_throughput(b: &mut Bench) {
    let group = "executions_per_harness";
    let n = b.budget(10);
    b.bench(group, "replsim_fixed_10_execs", n, || {
        run_iterations(n, 1_500, SchedulerKind::Random, |rt| {
            replsim::build_harness(rt, &replsim::ReplConfig::default());
        })
    });
    b.bench(group, "vnext_fixed_10_execs", n, || {
        run_iterations(n, 2_000, SchedulerKind::Random, |rt| {
            vnext::build_harness(rt, &vnext::VnextConfig::default());
        })
    });
    b.bench(group, "chaintable_fixed_10_execs", n, || {
        run_iterations(n, 10_000, SchedulerKind::Random, |rt| {
            chaintable::build_harness(rt, &chaintable::ChainConfig::fixed());
        })
    });
    b.bench(group, "fabric_fixed_10_execs", n, || {
        run_iterations(n, 5_000, SchedulerKind::Random, |rt| {
            fabric::build_harness(rt, &fabric::FabricConfig::default());
        })
    });
}

/// Ablation: scheduler strategy on the same buggy harness (time to explore a
/// fixed execution budget).
fn scheduler_ablation(b: &mut Bench) {
    let group = "scheduler_ablation_replsim";
    let schedulers = [
        ("random", SchedulerKind::Random),
        ("pct2", SchedulerKind::Pct { change_points: 2 }),
        ("delay2", SchedulerKind::DelayBounding { delays: 2 }),
        (
            "prob10",
            SchedulerKind::ProbabilisticRandom { switch_percent: 10 },
        ),
        ("round_robin", SchedulerKind::RoundRobin),
    ];
    let n = b.budget(20);
    for (label, scheduler) in schedulers {
        b.bench(group, label, n, || {
            run_iterations(n, 1_500, scheduler, |rt| {
                replsim::build_harness(rt, &replsim::ReplConfig::with_duplicate_counting_bug());
            })
        });
    }
}

/// Ablation: PCT priority-change budget on the vNext liveness bug (the bug
/// is fault-induced since PR 5: the EN crash is a scheduler-injected fault).
/// These rows also track the PR 5 adaptive liveness early-confirm: the fair
/// observation window is now sized by the backlog measured at the bound
/// instead of the worst-case `unfair-prefix x machine-count`.
fn pct_budget_ablation(b: &mut Bench) {
    let group = "pct_change_points_vnext";
    let config = vnext::VnextConfig::with_liveness_bug();
    let n = b.budget(5);
    for change_points in [0usize, 2, 5] {
        b.bench(group, &format!("cp{change_points}"), n, || {
            run_iterations_with_faults(
                n,
                3_000,
                SchedulerKind::Pct { change_points },
                config.fault_plan(),
                |rt| {
                    vnext::build_harness(rt, &config);
                },
            )
        });
    }
}

/// Ablation: the liveness "infinite execution" step bound (§2.5 heuristic).
fn liveness_bound_ablation(b: &mut Bench) {
    let group = "liveness_step_bound_vnext";
    let config = vnext::VnextConfig::with_liveness_bug();
    let n = b.budget(5);
    for max_steps in [1_000usize, 3_000, 6_000] {
        b.bench(group, &format!("bound{max_steps}"), n, || {
            run_iterations_with_faults(
                n,
                max_steps,
                SchedulerKind::Random,
                config.fault_plan(),
                |rt| {
                    vnext::build_harness(rt, &config);
                },
            )
        });
    }
}

/// Fault-injection overhead: the cost of probing for faults on the
/// step-loop hot path. `idle_budget` runs the spinner harness with a crash
/// budget but no crashable machine — since PR 6 the runtime's O(1)
/// applicability check skips the probe entirely when no marked machine can
/// absorb the budget, so this row must match the probe-free run (PR 5
/// scanned every machine per step here, a ~7% tax; `write_report` asserts
/// the overhead stays near zero).
///
/// The PR 8 report computed the overhead from the `serial_random` row
/// measured minutes earlier in a different group, and recorded **-5.1%** —
/// container-speed drift between the two windows was larger than the effect
/// being measured. Since PR 9 the probe-off and probe-on runs are
/// *interleaved rep-by-rep*, so drift hits both sides of every pair equally;
/// the per-pair ratio spread is reported as the noise floor and a negative
/// median clamps to zero. The fabric rows compare the fixed failover harness
/// with and without its one-crash budget (the crash actually fires and the
/// failover machinery runs).
fn fault_injection_overhead(b: &mut Bench) {
    let group = "fault_injection";
    let iterations = b.budget(HOTPATH_ITERATIONS);
    let mut pairs: Vec<(Duration, Duration)> = Vec::with_capacity(b.settings.reps);
    let mut last_steps = 0u64;
    for _ in 0..b.settings.reps {
        let off_start = Instant::now();
        run_iterations(
            iterations,
            HOTPATH_MAX_STEPS,
            SchedulerKind::Random,
            hotpath::setup,
        );
        let off = off_start.elapsed();
        let on_start = Instant::now();
        last_steps = run_iterations_with_faults(
            iterations,
            HOTPATH_MAX_STEPS,
            SchedulerKind::Random,
            FaultPlan::new().with_crashes(1),
            hotpath::setup,
        );
        pairs.push((off, on_start.elapsed()));
    }
    for (name, pick) in [
        ("hotpath_no_budget", 0usize),
        ("hotpath_idle_budget", 1usize),
    ] {
        let mut times: Vec<Duration> = pairs
            .iter()
            .map(|&(off, on)| if pick == 0 { off } else { on })
            .collect();
        times.sort();
        let median = times[times.len() / 2];
        let execs_per_sec = iterations as f64 / median.as_secs_f64().max(1e-9);
        println!(
            "{group:<32} {name:<24} median {:>9.3}ms  {:>10.0} exec/s  {last_steps:>8} steps",
            median.as_secs_f64() * 1e3,
            execs_per_sec,
        );
        b.results.push(BenchResult {
            group,
            name: name.to_string(),
            median,
            execs_per_sec,
            steps: last_steps,
        });
    }
    let mut ratios: Vec<f64> = pairs
        .iter()
        .map(|(off, on)| on.as_secs_f64() / off.as_secs_f64().max(1e-9) - 1.0)
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    // Median of the per-pair ratios; an even rep count averages the middle
    // pair (picking the upper one would bias quick runs upward).
    let mid = ratios.len() / 2;
    let median_ratio = if ratios.len().is_multiple_of(2) {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    } else {
        ratios[mid]
    };
    let raw_percent = median_ratio * 100.0;
    let noise_percent = (ratios[ratios.len() - 1] - ratios[0]) / 2.0 * 100.0;
    let probe = ProbeOverhead {
        raw_percent,
        noise_percent,
    };
    println!(
        "    idle fault probe: {raw_percent:+.1}% paired overhead \
         (noise floor ±{noise_percent:.1}%{})",
        if probe.noise_exceeds_effect() {
            ", noise exceeds effect"
        } else {
            ""
        }
    );
    b.probe_overhead = Some(probe);
    let n = b.budget(10);
    b.bench(group, "fabric_fixed_no_faults", n, || {
        run_iterations(n, 5_000, SchedulerKind::Random, |rt| {
            fabric::build_harness(rt, &fabric::FabricConfig::default());
        })
    });
    b.bench(group, "fabric_fixed_crash_budget", n, || {
        run_iterations_with_faults(
            n,
            5_000,
            SchedulerKind::Random,
            fabric::FabricConfig::default().fault_plan(),
            |rt| {
                fabric::build_harness(rt, &fabric::FabricConfig::default());
            },
        )
    });
}

/// Per-strategy throughput of a default-portfolio run on the hotpath
/// harness: one `portfolio_per_strategy` row per strategy, attributing the
/// run's executions to the strategy that drove them (iteration-index
/// assignment, so the split is deterministic). The per-strategy exec/s
/// series is tracked in the BENCH JSON from PR 3 on.
fn portfolio_per_strategy(b: &mut Bench) {
    let group = "portfolio_per_strategy";
    let iterations = b.budget(HOTPATH_ITERATIONS);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let config = TestConfig::new()
        .with_iterations(iterations)
        .with_max_steps(HOTPATH_MAX_STEPS)
        .with_seed(42)
        .with_workers(workers)
        .with_default_portfolio();
    let mut runs = Vec::with_capacity(b.settings.reps);
    for _ in 0..b.settings.reps {
        let start = Instant::now();
        let report = ParallelTestEngine::new(config.clone()).run(hotpath::setup);
        runs.push((start.elapsed(), report));
    }
    runs.sort_by_key(|(elapsed, _)| *elapsed);
    let (median, report) = &runs[runs.len() / 2];
    let all_steps: u64 = report.per_strategy.iter().map(|r| r.total_steps).sum();
    for row in &report.per_strategy {
        // Attribute wall-clock time to a strategy by its share of executed
        // steps (per-step cost is dominated by the runtime, not the
        // scheduler), so a row's exec/s reflects that strategy's own
        // execution cost — not merely its ~1/N share of the iteration
        // space, which would hide per-strategy regressions.
        let share = row.total_steps as f64 / all_steps.max(1) as f64;
        let attributed = Duration::from_secs_f64((median.as_secs_f64() * share).max(1e-9));
        let execs_per_sec = row.iterations_run as f64 / attributed.as_secs_f64();
        println!(
            "{group:<32} {:<24} median {:>9.3}ms  {execs_per_sec:>10.0} exec/s  {:>8} steps",
            row.scheduler,
            attributed.as_secs_f64() * 1e3,
            row.total_steps,
        );
        b.results.push(BenchResult {
            group,
            name: row.scheduler.clone(),
            median: attributed,
            execs_per_sec,
            steps: row.total_steps,
        });
    }
}

/// The total machine counts the mega-scale sweep measures.
const MEGAKV_SCALES: [usize; 4] = [256, 1024, 4096, 10_240];

/// Mega-scale machine-count sweep (PR 8): the megakv harness embeds the
/// *same* fixed client workload (two clients, a few put/get pairs over two
/// hot shards) in systems of wildly different total size — from 256 to
/// 10,240 machines — so per-step cost is the only thing that varies. With
/// the O(active) scheduling core (incremental enabled index + lazy
/// mailboxes) the steps/s figure should stay essentially flat as the cold
/// machine count grows 40x; `write_report` computes the 4096-vs-256
/// steps/s ratio the CI bench-smoke job warns on.
///
/// Two one-time O(total) costs are paid *outside* the timed window, so the
/// rows measure steady-state stepping of the fixed active workload:
/// harness construction (`create_machine` x total), and the startup drain —
/// every fresh machine owes one schedulable `on_start` step, so the drain
/// is forced in ascending id order untimed (cold replicas disable
/// themselves after it; only the active workload machines stay enabled).
fn megakv_scaling(b: &mut Bench) {
    let group = "megakv_scaling";
    let iterations = b.budget(40);
    for &total in &MEGAKV_SCALES {
        let config = megakv::MegaKvConfig::scale(total, 4);
        let mut times: Vec<Duration> = Vec::with_capacity(b.settings.reps);
        let mut last_steps = 0u64;
        for _ in 0..b.settings.reps {
            let mut elapsed = Duration::ZERO;
            let mut steps = 0u64;
            for iteration in 0..iterations {
                let seed = 42 + iteration;
                let mut rt = Runtime::new(
                    Box::new(RandomScheduler::new(seed)),
                    RuntimeConfig {
                        // The budget covers the startup drain (one step per
                        // machine) plus the client workload.
                        max_steps: total + 4_000,
                        ..RuntimeConfig::default()
                    },
                    seed,
                );
                megakv::build_harness(&mut rt, &config);
                for raw in 0..rt.machine_count() {
                    rt.force_step(MachineId::from_raw(raw as u64));
                }
                let drained = rt.steps() as u64;
                let start = Instant::now();
                rt.run();
                elapsed += start.elapsed();
                steps += rt.steps() as u64 - drained;
                assert!(
                    rt.bug().is_none(),
                    "the fixed megakv scale harness must stay clean"
                );
            }
            times.push(elapsed);
            last_steps = steps;
        }
        times.sort();
        let median = times[times.len() / 2];
        let execs_per_sec = iterations as f64 / median.as_secs_f64().max(1e-9);
        let name = format!("machines_{total}");
        println!(
            "{group:<32} {name:<24} median {:>9.3}ms  {:>10.0} exec/s  {last_steps:>8} steps",
            median.as_secs_f64() * 1e3,
            execs_per_sec,
        );
        b.results.push(BenchResult {
            group,
            name,
            median,
            execs_per_sec,
            steps: last_steps,
        });
    }
}

/// The total machine counts the fork-cost sweep measures.
const FORK_SCALES: [usize; 3] = [256, 4096, 10_240];

/// Machines explicitly stepped between fork and restore in the fork-cost
/// sweep (the stepped machines plus anything they sent to make up the dirty
/// set).
const FORK_DIRTY: usize = 16;

/// Copy-on-write fork cost (PR 9): the wall-clock price of rewinding a
/// runtime to a snapshot after a low-dirty excursion — the operation
/// prefix-sharing engines perform once per iteration. Each scale builds the
/// megakv harness once, snapshots it, then repeatedly steps `FORK_DIRTY`
/// machines (dirtying them plus whatever they sent to) and restores:
///
/// * `cow_machines_N` rewinds through [`Runtime::restore_from`], which
///   re-clones only the dirty set — O(dirty) restores whose cost must stay
///   flat as the total machine count grows 40x;
/// * `full_machines_N` rewinds through [`Runtime::restore_from_full`], the
///   historical from-scratch rebuild that walks every slot — O(machines).
///
/// `write_report` records the per-scale speedup; the acceptance bar is a
/// low-dirty fork at least 5x cheaper at 10,240 machines. The dirtying
/// steps run outside the timed windows, which cover the restores alone.
fn fork_cost(b: &mut Bench) {
    let group = "fork_cost";
    let restores = b.budget(100);
    for &total in &FORK_SCALES {
        let kv = megakv::MegaKvConfig::scale(total, 0);
        let mut rt = Runtime::new(
            Box::new(RandomScheduler::new(11)),
            RuntimeConfig {
                max_steps: total + 100,
                ..RuntimeConfig::default()
            },
            11,
        );
        megakv::build_harness(&mut rt, &kv);
        let snapshot = rt.snapshot().expect("the megakv harness snapshots");
        let dirty = |rt: &mut Runtime| {
            for raw in 0..FORK_DIRTY as u64 {
                rt.force_step(MachineId::from_raw(raw));
            }
        };
        // Warm-up forks grow the machine/mailbox pools to steady state.
        for _ in 0..2 {
            dirty(&mut rt);
            rt.restore_from(&snapshot);
        }
        let mut rates = [0.0f64; 2];
        let mut dirty_machines = 0u64;
        for (slot, full) in [(0usize, false), (1usize, true)] {
            let mut times: Vec<Duration> = Vec::with_capacity(b.settings.reps);
            for _ in 0..b.settings.reps {
                let mut elapsed = Duration::ZERO;
                for _ in 0..restores {
                    dirty(&mut rt);
                    dirty_machines = rt.dirty_machine_count() as u64;
                    let start = Instant::now();
                    if full {
                        rt.restore_from_full(&snapshot);
                    } else {
                        rt.restore_from(&snapshot);
                    }
                    elapsed += start.elapsed();
                }
                times.push(elapsed);
            }
            times.sort();
            let median = times[times.len() / 2];
            let restores_per_sec = restores as f64 / median.as_secs_f64().max(1e-9);
            rates[slot] = restores_per_sec;
            let name = format!("{}_machines_{total}", if full { "full" } else { "cow" });
            println!(
                "{group:<32} {name:<24} median {:>9.3}ms  {restores_per_sec:>10.0} exec/s  \
                 {dirty_machines:>8} steps",
                median.as_secs_f64() * 1e3,
            );
            b.results.push(BenchResult {
                group,
                name,
                median,
                execs_per_sec: restores_per_sec,
                steps: dirty_machines,
            });
        }
        let row = ForkCostRow {
            machines: total,
            dirty_machines,
            cow_restores_per_sec: rates[0],
            full_restores_per_sec: rates[1],
        };
        println!(
            "    {total} machines, {dirty_machines} dirty: COW fork {:.1}x cheaper than \
             the full rebuild",
            row.speedup()
        );
        b.fork_cost.push(row);
    }
}

/// The worker counts the scaling sweep measures.
const SCALING_WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Worker-count scaling of the parallel engine (PR 6): the same bug-free
/// portfolio hunt on the hotpath harness at 1/2/4/8 workers, plus the serial
/// portfolio reference. The JSON normalizes each row into a *per-core
/// efficiency*: exec/s at `W` workers divided by serial exec/s times
/// `min(W, cores)` — the engine caps its OS threads at the host's available
/// parallelism, so workers beyond the core count share time slices and do
/// not count as capacity.
fn worker_scaling(b: &mut Bench) {
    let group = "scaling";
    let iterations = b.budget(HOTPATH_ITERATIONS);
    let base = TestConfig::new()
        .with_iterations(iterations)
        .with_max_steps(HOTPATH_MAX_STEPS)
        .with_seed(42)
        .with_default_portfolio();
    b.bench(group, "serial_portfolio", iterations, || {
        TestEngine::new(base.clone())
            .run(hotpath::setup)
            .total_steps
    });
    for workers in SCALING_WORKER_COUNTS {
        b.bench(group, &format!("workers_{workers}"), iterations, || {
            ParallelTestEngine::new(base.clone().with_workers(workers))
                .run(hotpath::setup)
                .total_steps
        });
    }
}

/// Wall-clock cost of the schedule-shrinking pass (PR 4): hunt a seeded bug
/// once (untimed), then time `shrink_trace` reducing its recorded schedule
/// to a minimal replayable counterexample. The row's `steps` column carries
/// the minimized decision count, so the JSON tracks reduction quality along
/// with shrink time.
fn shrink_pass(b: &mut Bench) {
    let group = "shrink";
    let (_, chain_config) = chaintable::named_bugs()
        .into_iter()
        .find(|(name, _)| *name == "DeletePrimaryKey")
        .expect("known seeded bug");
    let build = move |rt: &mut Runtime| {
        chaintable::build_harness(rt, &chain_config);
    };
    let config = TestConfig::new()
        .with_iterations(2_000)
        .with_max_steps(10_000)
        .with_seed(11);
    let report = TestEngine::new(config.clone()).run(build);
    let bug_report = report.bug.expect("the seeded bug is reachable");
    let shrink_config = config.shrink_config();
    let mut last_summary = String::new();
    b.bench(group, "chaintable_delete_primary_key", 1, || {
        let result = shrink_trace(&shrink_config, &bug_report.bug, &bug_report.trace, &build);
        last_summary = result.summary();
        result.minimized_decisions as u64
    });
    println!("    {last_summary}");
}

/// Serial vs work-stealing parallel engine over the same bug-free exploration
/// budget, demonstrating the throughput multiplier on multi-core hosts.
fn parallel_engine_comparison(b: &mut Bench) {
    let group = "parallel_vs_serial_chaintable";
    let iterations = b.budget(40);
    let config = TestConfig::new()
        .with_iterations(iterations)
        .with_max_steps(2_000)
        .with_seed(42);
    let build = |rt: &mut Runtime| {
        chaintable::build_harness(rt, &chaintable::ChainConfig::fixed());
    };
    b.bench(group, "serial_1_worker", iterations, || {
        TestEngine::new(config.clone()).run(build).total_steps
    });
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    b.bench(
        group,
        &format!("parallel_{workers}_workers"),
        iterations,
        || {
            ParallelTestEngine::new(config.clone().with_workers(workers))
                .run(build)
                .total_steps
        },
    );
    // One untimed run for the summary line (printing inside the timed closure
    // would charge terminal I/O to the parallel measurement only).
    let report = ParallelTestEngine::new(config.with_workers(workers)).run(build);
    println!(
        "    parallel portfolio: {:.0} exec/s over {workers} workers ({})",
        report.executions_per_second(),
        report.summary()
    );
}

fn write_report(b: &Bench) {
    let serial = b
        .execs_per_sec("step_loop_hotpath", "serial_random")
        .unwrap_or(0.0);
    let parallel = b
        .results
        .iter()
        .find(|r| r.group == "step_loop_hotpath" && r.name.starts_with("parallel"))
        .map(|r| r.execs_per_sec)
        .unwrap_or(0.0);
    // Idle fault-probe overhead: a budget no marked machine can absorb must
    // be skipped by the runtime's O(1) applicability check, so the paired
    // probe-on run matches the probe-off run to within measurement noise.
    // PR 5 paid ~7% here; the assertion keeps a regression to the
    // scan-per-step behavior from landing silently.
    let probe = b.probe_overhead.as_ref().expect("probe pairs measured");
    let probe_overhead_percent = probe.clamped_percent();
    let quick = b.settings.scale != 1;
    // Quick-mode budgets are too small for a stable median on a noisy host,
    // so the gate only hard-fails on full runs; quick runs warn.
    if quick && probe_overhead_percent >= 4.0 {
        eprintln!(
            "warning: idle fault-probe overhead measured {probe_overhead_percent:.1}% \
             in quick mode (noise-prone; full runs assert < 4%)"
        );
    } else {
        assert!(
            probe_overhead_percent < 4.0,
            "idle fault-probe overhead regressed to {probe_overhead_percent:.1}% \
             (an unabsorbable fault budget must skip the per-step probe entirely)"
        );
    }

    // Worker-count scaling summary: per-core efficiency normalized by the
    // *effective* core count min(workers, cores).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let serial_portfolio = b
        .execs_per_sec("scaling", "serial_portfolio")
        .unwrap_or(0.0);
    let scaling_rows: Vec<Json> = SCALING_WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let execs = b
                .execs_per_sec("scaling", &format!("workers_{workers}"))
                .unwrap_or(0.0);
            let effective_cores = workers.min(cores).max(1) as f64;
            Json::object([
                ("workers", Json::UInt(workers as u64)),
                ("execs_per_sec", Json::Float(execs)),
                (
                    "per_core_efficiency",
                    Json::Float(execs / (serial_portfolio.max(1e-9) * effective_cores)),
                ),
            ])
        })
        .collect();
    let efficiency_8 = scaling_rows
        .last()
        .and_then(|row| row.opt("per_core_efficiency"))
        .and_then(|value| value.as_f64().ok())
        .unwrap_or(0.0);

    // Schedule-reduction summary (PR 7): effective schedule-equivalents/s is
    // the sleep-set strategy's raw exec/s scaled by its redundancy ratio —
    // every pruned equivalent is a schedule the budget did not have to spend.
    let reduction_ratio = b.reduction_ratio.unwrap_or(1.0);
    let random_baseline = b
        .execs_per_sec("schedule_reduction", "random_baseline")
        .unwrap_or(0.0);
    let sleep_set = b
        .execs_per_sec("schedule_reduction", "sleep_set")
        .unwrap_or(0.0);
    let effective_equivalents = sleep_set * reduction_ratio;
    let straight_line = b
        .execs_per_sec("schedule_reduction", "straight_line")
        .unwrap_or(0.0);
    let prefix_shared = b
        .execs_per_sec("schedule_reduction", "prefix_shared")
        .unwrap_or(0.0);
    let prefix_speedup = prefix_shared / straight_line.max(1e-9);
    let effective_speedup = effective_equivalents / random_baseline.max(1e-9);
    if reduction_ratio < 1.5 {
        eprintln!(
            "warning: sleep-set redundancy ratio {reduction_ratio:.2}x is below the 1.5x \
             reference (the all-local workload should prune ~2 equivalents per step)"
        );
    }

    // DPOR-vs-sleep-set summary (PR 10): each strategy's raw exec/s on the
    // wide workload scaled by its own redundancy ratio gives effective
    // schedule-equivalents/s; the acceptance bar is a DPOR redundancy ratio
    // at least 1.5x the sleep-set figure from the same run.
    let dpor = b.dpor_reduction.as_ref().expect("dpor pair measured");
    let sleep_set_wide = b
        .execs_per_sec("dpor_reduction", "sleep_set_wide")
        .unwrap_or(0.0);
    let dpor_wide = b
        .execs_per_sec("dpor_reduction", "dpor_wide")
        .unwrap_or(0.0);
    let sleep_set_wide_equivalents = sleep_set_wide * dpor.sleep_set_ratio;
    let dpor_equivalents = dpor_wide * dpor.dpor_ratio;
    let dpor_vs_sleep_set = dpor.ratio_vs_sleep_set();
    if quick && dpor_vs_sleep_set < 1.5 {
        eprintln!(
            "warning: DPOR redundancy ratio is only {dpor_vs_sleep_set:.2}x the sleep-set \
             figure in quick mode (noise-prone; full runs assert >= 1.5x)"
        );
    } else {
        assert!(
            dpor_vs_sleep_set >= 1.5,
            "DPOR redundancy ratio is only {dpor_vs_sleep_set:.2}x the sleep-set figure \
             on the wide all-local workload (vector-clock pruning must reach past the \
             sleep window)"
        );
    }

    // Prefix-tree scaling summary (PR 10): per-core efficiency of the
    // 8-worker tree run against the 1-worker tree run, normalized by the
    // effective core count exactly like the flat `scaling` group.
    let tree_1 = b
        .execs_per_sec("prefix_tree", "tree_workers_1")
        .unwrap_or(0.0);
    let tree_8 = b
        .execs_per_sec("prefix_tree", "tree_workers_8")
        .unwrap_or(0.0);
    let tree_effective_cores = 8usize.min(cores).max(1) as f64;
    let tree_efficiency = tree_8 / (tree_1.max(1e-9) * tree_effective_cores);

    let calibration = b
        .execs_per_sec("calibration", "fixed_roundrobin_hotpath")
        .unwrap_or(0.0);

    // Mega-scale sweep summary (PR 8): steps/s per machine count and the
    // headline ratio. The acceptance bar is "per-step throughput at 4096
    // total machines within 2x of the 256-machine configuration" — with the
    // O(active) core the cold 4000 machines must not tax the step loop.
    let megakv_steps_per_sec = |total: usize| -> f64 {
        b.results
            .iter()
            .find(|r| r.group == "megakv_scaling" && r.name == format!("machines_{total}"))
            .map(|r| r.steps as f64 / r.median.as_secs_f64().max(1e-9))
            .unwrap_or(0.0)
    };
    let megakv_rows: Vec<Json> = MEGAKV_SCALES
        .iter()
        .map(|&total| {
            Json::object([
                ("machines", Json::UInt(total as u64)),
                ("steps_per_sec", Json::Float(megakv_steps_per_sec(total))),
            ])
        })
        .collect();
    // Fork-cost summary (PR 9): the copy-on-write restore vs the full
    // rebuild per machine count. The acceptance bar is a >= 5x cheaper
    // low-dirty fork at 10,240 machines — O(dirty) work cannot scale with
    // the 10,224 machines the fork did not touch.
    let fork_rows: Vec<Json> = b
        .fork_cost
        .iter()
        .map(|row| {
            Json::object([
                ("machines", Json::UInt(row.machines as u64)),
                ("dirty_machines", Json::UInt(row.dirty_machines)),
                (
                    "cow_restores_per_sec",
                    Json::Float(row.cow_restores_per_sec),
                ),
                (
                    "full_restores_per_sec",
                    Json::Float(row.full_restores_per_sec),
                ),
                ("speedup", Json::Float(row.speedup())),
            ])
        })
        .collect();
    let fork_speedup_10240 = b
        .fork_cost
        .iter()
        .find(|row| row.machines == 10_240)
        .map(ForkCostRow::speedup)
        .unwrap_or(0.0);
    if quick && fork_speedup_10240 < 5.0 {
        eprintln!(
            "warning: COW fork at 10240 machines is only {fork_speedup_10240:.1}x cheaper \
             than a full rebuild in quick mode (noise-prone; full runs assert >= 5x)"
        );
    } else {
        assert!(
            fork_speedup_10240 >= 5.0,
            "COW fork at 10240 machines is only {fork_speedup_10240:.1}x cheaper than a \
             full rebuild (a low-dirty restore must cost O(dirty), not O(machines))"
        );
    }

    let megakv_ratio = megakv_steps_per_sec(4_096) / megakv_steps_per_sec(256).max(1e-9);
    if quick && megakv_ratio < 0.5 {
        eprintln!(
            "warning: megakv steps/s at 4096 machines is {megakv_ratio:.2}x the 256-machine \
             figure in quick mode (noise-prone; full runs assert >= 0.5x)"
        );
    } else {
        assert!(
            megakv_ratio >= 0.5,
            "megakv per-step throughput at 4096 machines regressed to {megakv_ratio:.2}x the \
             256-machine figure (the O(active) step loop must not scale with cold machines)"
        );
    }

    let json = Json::object([
        ("pr", Json::UInt(10)),
        (
            "bench",
            Json::Str("crates/bench/benches/schedulers.rs".to_string()),
        ),
        ("quick_mode", Json::Bool(b.settings.scale != 1)),
        (
            "baseline",
            Json::object([
                (
                    "serial_random_execs_per_sec",
                    Json::Float(BASELINE_SERIAL_RANDOM_EXECS_PER_SEC),
                ),
                (
                    "pr2_serial_random_execs_per_sec",
                    Json::Float(PR2_SERIAL_RANDOM_EXECS_PER_SEC),
                ),
                (
                    "source",
                    Json::Str(
                        "step_loop_hotpath/serial_random measured in the PR 2 reference \
                         container at commit ead1cb9, before the zero-allocation step loop; \
                         pr2_serial_random_execs_per_sec is the committed BENCH_pr2.json \
                         figure the CI bench-smoke job warns against; comparisons are only \
                         meaningful on comparable hardware"
                            .to_string(),
                    ),
                ),
            ]),
        ),
        ("serial_random_execs_per_sec", Json::Float(serial)),
        ("parallel_execs_per_sec", Json::Float(parallel)),
        (
            "speedup_vs_baseline",
            Json::Float(serial / BASELINE_SERIAL_RANDOM_EXECS_PER_SEC.max(1e-9)),
        ),
        (
            "fault_probe_overhead_percent",
            Json::Float(probe_overhead_percent),
        ),
        (
            "fault_probe_overhead",
            Json::object([
                ("raw_percent", Json::Float(probe.raw_percent)),
                ("noise_percent", Json::Float(probe.noise_percent)),
                (
                    "noise_exceeds_effect",
                    Json::Bool(probe.noise_exceeds_effect()),
                ),
            ]),
        ),
        ("calibration_execs_per_sec", Json::Float(calibration)),
        (
            "schedule_reduction",
            Json::object([
                ("redundancy_ratio", Json::Float(reduction_ratio)),
                (
                    "random_baseline_execs_per_sec",
                    Json::Float(random_baseline),
                ),
                ("sleep_set_execs_per_sec", Json::Float(sleep_set)),
                (
                    "effective_schedule_equivalents_per_sec",
                    Json::Float(effective_equivalents),
                ),
                (
                    "effective_speedup_vs_random",
                    Json::Float(effective_speedup),
                ),
                ("straight_line_execs_per_sec", Json::Float(straight_line)),
                ("prefix_shared_execs_per_sec", Json::Float(prefix_shared)),
                ("prefix_sharing_speedup", Json::Float(prefix_speedup)),
            ]),
        ),
        (
            "dpor_reduction",
            Json::object([
                (
                    "sleep_set_redundancy_ratio",
                    Json::Float(dpor.sleep_set_ratio),
                ),
                ("dpor_redundancy_ratio", Json::Float(dpor.dpor_ratio)),
                ("dpor_vs_sleep_set", Json::Float(dpor_vs_sleep_set)),
                ("sleep_set_execs_per_sec", Json::Float(sleep_set_wide)),
                ("dpor_execs_per_sec", Json::Float(dpor_wide)),
                (
                    "sleep_set_effective_equivalents_per_sec",
                    Json::Float(sleep_set_wide_equivalents),
                ),
                (
                    "dpor_effective_equivalents_per_sec",
                    Json::Float(dpor_equivalents),
                ),
                ("races_detected", Json::UInt(dpor.races_detected)),
                (
                    "backtracks_scheduled",
                    Json::UInt(dpor.backtracks_scheduled),
                ),
            ]),
        ),
        (
            "prefix_tree",
            Json::object([
                ("workers_1_execs_per_sec", Json::Float(tree_1)),
                ("workers_8_execs_per_sec", Json::Float(tree_8)),
                (
                    "per_core_efficiency_8_workers",
                    Json::Float(tree_efficiency),
                ),
            ]),
        ),
        (
            "scaling",
            Json::object([
                ("cores_available", Json::UInt(cores as u64)),
                (
                    "serial_portfolio_execs_per_sec",
                    Json::Float(serial_portfolio),
                ),
                ("rows", Json::Array(scaling_rows)),
                ("per_core_efficiency_8_workers", Json::Float(efficiency_8)),
            ]),
        ),
        (
            "megakv_scaling",
            Json::object([
                ("rows", Json::Array(megakv_rows)),
                ("steps_per_sec_ratio_4096_vs_256", Json::Float(megakv_ratio)),
            ]),
        ),
        (
            "fork_cost",
            Json::object([
                ("dirty_target", Json::UInt(FORK_DIRTY as u64)),
                ("rows", Json::Array(fork_rows)),
                ("speedup_at_10240", Json::Float(fork_speedup_10240)),
            ]),
        ),
        (
            "results",
            Json::Array(b.results.iter().map(ToJson::to_json_value).collect()),
        ),
    ]);
    std::fs::write(&b.settings.json, json.to_string_pretty()).expect("write bench report");
    println!(
        "\nserial step loop: {serial:.0} exec/s ({:.2}x the pre-PR2 baseline of {:.0} exec/s)",
        serial / BASELINE_SERIAL_RANDOM_EXECS_PER_SEC.max(1e-9),
        BASELINE_SERIAL_RANDOM_EXECS_PER_SEC,
    );
    println!(
        "idle fault-probe overhead: {probe_overhead_percent:.1}% \
         (paired raw {:+.1}%, noise floor ±{:.1}%{})",
        probe.raw_percent,
        probe.noise_percent,
        if probe.noise_exceeds_effect() {
            ", noise exceeds effect"
        } else {
            ""
        }
    );
    println!(
        "8-worker per-core efficiency: {efficiency_8:.2}x on {cores} core(s) \
         (serial portfolio {serial_portfolio:.0} exec/s)"
    );
    println!(
        "schedule reduction: {reduction_ratio:.2}x redundancy ratio, \
         {effective_equivalents:.0} effective schedule-equivalents/s \
         ({effective_speedup:.2}x the random baseline); \
         prefix sharing {prefix_speedup:.2}x vs straight-line"
    );
    println!(
        "DPOR reduction: {:.2}x redundancy vs sleep-set {:.2}x \
         ({dpor_vs_sleep_set:.2}x further), {dpor_equivalents:.0} effective \
         schedule-equivalents/s vs sleep-set {sleep_set_wide_equivalents:.0}",
        dpor.dpor_ratio, dpor.sleep_set_ratio,
    );
    println!(
        "prefix-tree scaling: {tree_8:.0} exec/s at 8 workers vs {tree_1:.0} at 1 \
         ({tree_efficiency:.2}x per-core on {cores} core(s))"
    );
    println!("calibration probe: {calibration:.0} exec/s (fixed round-robin hotpath)");
    println!(
        "megakv scale sweep: {:.0} steps/s at 256 machines, {:.0} steps/s at 4096 \
         ({megakv_ratio:.2}x), {:.0} steps/s at 10240",
        megakv_steps_per_sec(256),
        megakv_steps_per_sec(4_096),
        megakv_steps_per_sec(10_240),
    );
    for row in &b.fork_cost {
        println!(
            "fork cost at {} machines ({} dirty): COW {:.0} restores/s vs full {:.0} \
             restores/s ({:.1}x)",
            row.machines,
            row.dirty_machines,
            row.cow_restores_per_sec,
            row.full_restores_per_sec,
            row.speedup(),
        );
    }
    println!("machine-readable report written to {}", b.settings.json);
}

fn main() {
    let mut b = Bench {
        settings: parse_settings(),
        results: Vec::new(),
        reduction_ratio: None,
        dpor_reduction: None,
        probe_overhead: None,
        fork_cost: Vec::new(),
    };
    calibration(&mut b);
    step_loop_hotpath(&mut b);
    schedule_reduction(&mut b);
    dpor_reduction(&mut b);
    prefix_tree_scaling(&mut b);
    megakv_scaling(&mut b);
    fork_cost(&mut b);
    harness_throughput(&mut b);
    scheduler_ablation(&mut b);
    pct_budget_ablation(&mut b);
    liveness_bound_ablation(&mut b);
    fault_injection_overhead(&mut b);
    portfolio_per_strategy(&mut b);
    worker_scaling(&mut b);
    shrink_pass(&mut b);
    parallel_engine_comparison(&mut b);
    write_report(&b);
}
