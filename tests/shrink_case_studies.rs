//! Shrink acceptance across the case-study crates: for a seeded bug in
//! each crate, the shrink pass produces a minimized trace that (a) replays
//! to the same bug, (b) has strictly fewer decisions than the original
//! recording, and (c) is byte-identical across engines and worker counts.
//! Over all 20 seeded bugs the production pass — candidates abandoned once
//! they cannot win, one pooled runtime — is also checked against a reference
//! ddmin that runs every candidate to completion in a fresh runtime, and the
//! engine's reported trace — a strict replay's re-recording of decisions
//! explored without their annotated schedule — against the winning iteration
//! recorded directly under `TraceMode::Full`.

use psharp::prelude::*;
use psharp::scheduler::ReplayScheduler;
use psharp::shrink::same_bug;

struct Case {
    name: &'static str,
    max_steps: usize,
    iterations: u64,
    seed: u64,
    faults: FaultPlan,
    build: fn(&mut Runtime),
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "replsim/duplicate-counting (safety)",
            max_steps: 2_000,
            iterations: 3_000,
            seed: 1,
            faults: FaultPlan::none(),
            build: |rt| {
                replsim::build_harness(rt, &replsim::ReplConfig::with_duplicate_counting_bug());
            },
        },
        Case {
            name: "vnext/extent-node-liveness",
            max_steps: 3_000,
            iterations: 200,
            seed: 2016,
            // Fault-induced: the bug needs a scheduler-injected EN crash.
            faults: vnext::VnextConfig::with_liveness_bug().fault_plan(),
            build: |rt| {
                vnext::build_harness(rt, &vnext::VnextConfig::with_liveness_bug());
            },
        },
        Case {
            name: "chaintable/delete-primary-key (safety)",
            max_steps: 10_000,
            iterations: 500,
            seed: 11,
            faults: FaultPlan::none(),
            build: |rt| {
                let (_, config) = chaintable::named_bugs()
                    .into_iter()
                    .find(|(name, _)| *name == "DeletePrimaryKey")
                    .expect("known seeded bug");
                chaintable::build_harness(rt, &config);
            },
        },
        Case {
            name: "fabric/promote-pending-copy (safety)",
            max_steps: 5_000,
            iterations: 2_000,
            seed: 2016,
            // Fault-induced: the bug needs a scheduler-injected primary crash.
            faults: fabric::FabricConfig::with_promotion_bug().fault_plan(),
            build: |rt| {
                fabric::build_harness(rt, &fabric::FabricConfig::with_promotion_bug());
            },
        },
        Case {
            name: "megakv/rebalance-lost-write (safety)",
            max_steps: 2_000,
            iterations: 2_000,
            seed: 7,
            faults: FaultPlan::none(),
            build: |rt| {
                megakv::build_harness(rt, &megakv::MegaKvConfig::with_rebalance_bug());
            },
        },
    ]
}

fn config_for(case: &Case) -> TestConfig {
    TestConfig::new()
        .with_iterations(case.iterations)
        .with_max_steps(case.max_steps)
        .with_seed(case.seed)
        .with_shrink(true)
        .with_faults(case.faults)
        // Keep the test budget moderate: even a partial pass must strictly
        // reduce these seeded bugs' traces.
        .with_shrink_budget(300)
}

#[test]
fn every_case_study_bug_shrinks_to_a_replayable_smaller_trace() {
    for case in cases() {
        let engine = TestEngine::new(config_for(&case));
        let report = engine.run(case.build);
        let bug_report = report
            .bug
            .unwrap_or_else(|| panic!("{}: seeded bug not found", case.name));
        let shrink = bug_report
            .shrink
            .as_ref()
            .unwrap_or_else(|| panic!("{}: shrink did not run", case.name));

        // (b) strictly fewer decisions.
        assert!(
            shrink.minimized_decisions < shrink.original_decisions,
            "{}: no reduction ({})",
            case.name,
            shrink.summary()
        );

        // (a) the minimized trace replays to the same bug.
        let replayed = engine
            .replay(&shrink.minimized, case.build)
            .unwrap_or_else(|| panic!("{}: minimized trace does not replay", case.name));
        assert_eq!(replayed.kind, bug_report.bug.kind, "{}", case.name);
        assert_eq!(replayed.message, bug_report.bug.message, "{}", case.name);
    }
}

#[test]
fn shrink_output_is_byte_identical_across_worker_counts() {
    // One representative case (the fastest seeded bug) across the serial
    // engine and several parallel worker counts: the whole (bug, iteration,
    // minimized trace) tuple must be reproducible byte for byte.
    let case = &cases()[0];
    let serial = TestEngine::new(config_for(case)).run(case.build);
    let reference = serial.bug.expect("serial engine finds the bug");
    let reference_json = reference
        .shrink
        .as_ref()
        .expect("shrink ran")
        .minimized
        .to_json()
        .expect("serialize");

    for workers in [2usize, 4] {
        let parallel = TestEngine::new(config_for(case).with_workers(workers)).run(case.build);
        let found = parallel.bug.expect("parallel engine finds the bug");
        assert_eq!(found.iteration, reference.iteration);
        let json = found
            .shrink
            .as_ref()
            .expect("shrink ran")
            .minimized
            .to_json()
            .expect("serialize");
        assert_eq!(json, reference_json, "at {workers} workers");
    }
}

/// The shrink pass as it was before candidates were abandoned early and
/// pooled: the same fault pass and ddmin loop as `shrink_trace`, with every
/// candidate run to completion in a `Runtime::new` of its own. Returns the
/// final decision sequence, the tried / reproduced counters and the steps
/// its candidates executed.
fn reference_shrink(
    config: &ShrinkConfig,
    bug: &Bug,
    trace: &Trace,
    setup: &dyn Fn(&mut Runtime),
) -> (Vec<Decision>, u64, u64, u64) {
    let mut steps = 0u64;
    let mut reproduces = |candidate: Vec<Decision>| -> Option<Vec<Decision>> {
        // `shrink.rs`'s tail stream, pinned here.
        let tail_seed = psharp::rng::mix64(trace.seed ^ 0x51B2_7F4E_8D93_C601);
        let mut runtime = Runtime::new(
            Box::new(ReplayScheduler::tolerant(candidate, tail_seed)),
            RuntimeConfig {
                max_steps: config.max_steps,
                check_liveness_at_quiescence: config.check_liveness_at_quiescence,
                catch_panics: config.catch_panics,
                trace_mode: TraceMode::DecisionsOnly,
                faults: config.faults,
            },
            trace.seed,
        );
        setup(&mut runtime);
        let outcome = runtime.run();
        steps += runtime.steps() as u64;
        match outcome {
            ExecutionOutcome::BugFound(found) if same_bug(&found, bug) => {
                Some(runtime.into_trace().decisions)
            }
            _ => None,
        }
    };

    let mut current = trace.decisions.clone();
    let (mut tried, mut reproduced) = (0u64, 0u64);
    if current.iter().any(Decision::is_fault) {
        tried += 1;
        let without_faults = current.iter().copied().filter(|d| !d.is_fault()).collect();
        if let Some(recording) = reproduces(without_faults) {
            reproduced += 1;
            current = recording;
        }
        'fault_pass: loop {
            let faults: Vec<usize> = (0..current.len())
                .filter(|&i| current[i].is_fault())
                .collect();
            for position in faults {
                if tried >= config.max_candidates {
                    break 'fault_pass;
                }
                let mut candidate = current.clone();
                candidate.remove(position);
                tried += 1;
                if let Some(recording) = reproduces(candidate) {
                    reproduced += 1;
                    current = recording;
                    continue 'fault_pass;
                }
            }
            break;
        }
    }
    let mut granularity = 2usize;
    'ddmin: while current.len() >= 2
        && granularity <= current.len()
        && tried < config.max_candidates
    {
        let chunk = current.len().div_ceil(granularity);
        let mut start = 0;
        while start < current.len() && tried < config.max_candidates {
            let end = (start + chunk).min(current.len());
            let candidate = [&current[..start], &current[end..]].concat();
            tried += 1;
            if let Some(recording) = reproduces(candidate) {
                if recording.len() < current.len() {
                    reproduced += 1;
                    current = recording;
                    granularity = 2;
                    continue 'ddmin;
                }
            }
            start = end;
        }
        if chunk <= 1 {
            break;
        }
        granularity = (granularity * 2).min(current.len());
    }
    (current, tried, reproduced, steps)
}

#[test]
fn production_shrink_matches_the_run_to_completion_reference_on_every_seeded_bug() {
    let cases = bench::bug_cases();
    assert_eq!(cases.len(), 20);
    for case in &cases {
        for seed in [2016u64, 7] {
            let config = TestConfig::new()
                .with_iterations(20_000)
                .with_max_steps(case.max_steps)
                .with_seed(seed)
                .with_faults(case.faults)
                .with_default_portfolio();
            let build = |rt: &mut Runtime| (case.build)(rt);
            let found = TestEngine::new(config.clone())
                .run(build)
                .bug
                .unwrap_or_else(|| panic!("{} seed {seed}: not found", case.name));
            // Bound-length traces (the hot-at-bound liveness bugs) cost a
            // step bound per candidate on both sides: a short budget there.
            let budget = if found.ndc > 1_000 { 100 } else { 2_000 };
            let shrink = config.with_shrink_budget(budget).shrink_config();
            let label = format!("{} seed {seed} ({} decisions)", case.name, found.ndc);

            let report = shrink_trace(&shrink, &found.bug, &found.trace, &build);
            let (decisions, tried, reproduced, steps) =
                reference_shrink(&shrink, &found.bug, &found.trace, &build);

            assert_eq!(report.returned, ShrinkReturned::Minimized, "{label}");
            assert_eq!(report.candidates_tried, tried, "{label}");
            assert_eq!(report.candidates_reproduced, reproduced, "{label}");
            // Not `assert_eq!`: a mismatch would print thousands of decisions.
            assert_eq!(report.minimized_decisions, decisions.len(), "{label}");
            assert!(report.minimized.decisions == decisions, "{label}");
            assert!(report.candidate_steps <= steps, "{label}");
            assert_eq!(
                report.minimized_faults,
                decisions.iter().filter(|d| d.is_fault()).count(),
                "{label}"
            );
        }
    }
}

/// The exact proxy for "candidates stop once they cannot win": a ddmin
/// candidate never executes more steps than the sequence it must beat has
/// decisions, so on a trace without faults (no fault pass) the whole pass
/// stays under `candidates x original decisions`. An execution of the
/// shard-aliasing harness is ~275 steps however short the recording, so on
/// the minimized trace the reference, which runs its candidates out, breaks
/// the bound many times over.
#[test]
fn candidate_steps_stay_under_candidates_times_original_decisions() {
    let config = TestConfig::new()
        .with_iterations(2_000)
        .with_max_steps(6_000)
        .with_seed(2016)
        .with_default_portfolio();
    let build = |rt: &mut Runtime| {
        megakv::build_harness(rt, &megakv::MegaKvConfig::with_shard_aliasing_bug());
    };
    let found = TestEngine::new(config.clone())
        .run(build)
        .bug
        .expect("shard aliasing is found");
    assert!(
        found.bug.message.contains("routed to shard"),
        "{}",
        found.bug
    );
    assert_eq!(found.trace.fault_decision_count(), 0);
    let shrink = config.shrink_config();
    let within_bound = |report: &ShrinkReport| {
        report.candidate_steps > 0
            && report.candidate_steps <= report.candidates_tried * report.original_decisions as u64
    };

    let first = shrink_trace(&shrink, &found.bug, &found.trace, &build);
    assert!(first.improved(), "{}", first.summary());
    assert!(within_bound(&first), "{}", first.summary());

    let again = shrink_trace(&shrink, &found.bug, &first.minimized, &build);
    assert!(again.minimized_decisions <= 40, "{}", again.summary());
    assert!(within_bound(&again), "{}", again.summary());
    let (_, tried, _, run_out) = reference_shrink(&shrink, &found.bug, &first.minimized, &build);
    assert_eq!(tried, again.candidates_tried);
    assert!(
        run_out > 4 * tried * again.original_decisions as u64,
        "the reference executed only {run_out} steps over {tried} candidates"
    );
}

/// The engine explores recording decisions only and reports what a strict
/// replay of the winner re-records. The oracle is the winning iteration
/// driven by hand with its annotated schedule recorded as it runs: same
/// seed, same strategy, `TraceMode::Full`. On a hot-at-bound liveness bug
/// won by a strategy with an unfair prefix the two take different routes to
/// the same trace — the direct run observes a grace window and truncates its
/// recording back to the bound, the replay just stops at the bound.
#[test]
fn reported_trace_is_the_direct_full_recording_of_the_winning_iteration() {
    let cases = bench::bug_cases();
    assert_eq!(cases.len(), 20);
    let mut truncated_after_grace = 0;
    let mut shrunk_crates = Vec::new();
    for case in &cases {
        let base = TestConfig::new()
            .with_iterations(20_000)
            .with_max_steps(case.max_steps)
            .with_seed(2016)
            .with_faults(case.faults);
        let mut configs = vec![
            base.clone().with_scheduler(SchedulerKind::Random),
            base.clone().with_default_portfolio(),
        ];
        // One case per crate also goes through the shrink pass, which starts
        // from the re-recorded trace.
        if !shrunk_crates.contains(&case.case_study) {
            shrunk_crates.push(case.case_study);
            configs.push(
                base.with_default_portfolio()
                    .with_shrink(true)
                    .with_shrink_budget(20),
            );
        }
        for config in configs {
            let build = |rt: &mut Runtime| (case.build)(rt);
            let report = TestEngine::new(config.clone()).run(build);
            let label = format!(
                "{} ({}, shrink {})",
                case.name, report.scheduler, config.shrink
            );
            let found = report.bug.unwrap_or_else(|| panic!("{label}: not found"));
            assert_eq!(found.trace.mode(), TraceMode::Full, "{label}");

            let seed = config.seed_for_iteration(found.iteration);
            let strategy = config.strategy_for_iteration(found.iteration);
            let mut direct = Runtime::new(
                strategy.build(seed, config.max_steps),
                RuntimeConfig {
                    max_steps: config.max_steps,
                    trace_mode: TraceMode::Full,
                    faults: config.faults,
                    ..RuntimeConfig::default()
                },
                seed,
            );
            build(&mut direct);
            let ExecutionOutcome::BugFound(bug) = direct.run() else {
                panic!("{label}: the direct run found no bug");
            };
            assert_eq!(bug, found.bug, "{label}");
            // Not `assert_eq!`: a mismatch would print thousands of steps.
            assert!(direct.into_trace() == found.trace, "{label}");

            let at_bound = found.trace.total_step_count() == config.max_steps;
            let unfair = strategy
                .build(seed, config.max_steps)
                .unfair_prefix_len()
                .is_some();
            truncated_after_grace += usize::from(at_bound && unfair);
        }
    }
    assert_eq!(shrunk_crates, [0, 1, 2, 3, 4]);
    assert!(
        truncated_after_grace > 0,
        "no bound verdict was won by a strategy with a grace window"
    );
}
