//! Integration tests for the schedule-shrinking subsystem: reduction
//! quality, replay verification, idempotence, determinism across engines and
//! worker counts, and the interplay with decisions-only recording.

use psharp::json::{FromJson, ToJson};
use psharp::prelude::*;

/// The order-dependent harness used across the engine tests: the bug
/// manifests only when the `false` writer is scheduled before the `true`
/// writer, after a fair amount of irrelevant nondeterministic noise that
/// shrinking should strip away.
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
    fn name(&self) -> &str {
        "Flag"
    }
}

#[derive(Debug)]
struct SetFlag(bool);

#[derive(Debug)]
struct Noise;

struct Writer {
    flag: MachineId,
    value: bool,
    /// Self-messages consumed before the write goes out, padding every
    /// buggy execution with steps irrelevant to the bug.
    delay: usize,
}
impl Machine for Writer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Irrelevant nondeterministic noise that pads the decision stream.
        for _ in 0..4 {
            let _ = ctx.random_bool();
            let _ = ctx.random_index(16);
        }
        ctx.send_to_self(Event::new(Noise));
    }
    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        if !event.is::<Noise>() {
            return;
        }
        if self.delay > 0 {
            self.delay -= 1;
            ctx.send_to_self(Event::new(Noise));
        } else {
            ctx.send(self.flag, Event::new(SetFlag(self.value)));
        }
    }
    fn name(&self) -> &str {
        "Writer"
    }
}

/// A bystander that spins for a while, adding schedule decisions that are
/// irrelevant to the bug.
struct Spinner {
    remaining: usize,
}
impl Machine for Spinner {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send_to_self(Event::new(Noise));
    }
    fn handle(&mut self, ctx: &mut Context<'_>, _event: Event) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_to_self(Event::new(Noise));
        }
    }
    fn name(&self) -> &str {
        "Spinner"
    }
}

fn noisy_racey_setup(rt: &mut Runtime) {
    let flag = rt.create_machine(Flag { value: false });
    rt.create_machine(Spinner { remaining: 40 });
    rt.create_machine(Writer {
        flag,
        value: true,
        delay: 6,
    });
    rt.create_machine(Writer {
        flag,
        value: false,
        delay: 6,
    });
}

fn shrinking_config() -> TestConfig {
    TestConfig::new()
        .with_iterations(500)
        .with_seed(11)
        .with_shrink(true)
}

#[test]
fn shrink_produces_a_smaller_replay_verified_counterexample() {
    let engine = TestEngine::new(shrinking_config());
    let report = engine.run(noisy_racey_setup);
    let elapsed = report.elapsed;
    let bug_report = report.bug.expect("the racey bug is reachable");
    let shrink = bug_report.shrink.as_ref().expect("shrink ran");
    // `time_to_bug` stops at discovery; `elapsed` covers the whole `run()`,
    // shrink pass included.
    assert!(
        elapsed > bug_report.time_to_bug,
        "elapsed {elapsed:?} must include the shrink pass after the bug at {:?}",
        bug_report.time_to_bug
    );
    assert_eq!(shrink.original_decisions, bug_report.ndc);
    assert!(
        shrink.improved(),
        "shrinking must strip the noise: {}",
        shrink.summary()
    );
    assert!(shrink.minimized_decisions < shrink.original_decisions);
    assert_eq!(
        shrink.minimized.decision_count(),
        shrink.minimized_decisions
    );
    assert_eq!(bug_report.minimized(), Some(&shrink.minimized));
    assert_eq!(bug_report.best_trace(), &shrink.minimized);

    // The minimized trace replays, strictly, to the same bug.
    let replayed = engine
        .replay(&shrink.minimized, noisy_racey_setup)
        .expect("the minimized trace replays to a bug");
    assert_eq!(replayed.kind, bug_report.bug.kind);
    assert_eq!(replayed.message, bug_report.bug.message);
    assert_eq!(replayed.source, bug_report.bug.source);
}

#[test]
fn shrink_is_idempotent_on_a_minimized_trace() {
    let config = shrinking_config();
    let report = TestEngine::new(config.clone()).run(noisy_racey_setup);
    let bug_report = report.bug.expect("bug found");
    let shrink = bug_report.shrink.expect("shrink ran");

    let again = shrink_trace(
        &config.shrink_config(),
        &bug_report.bug,
        &shrink.minimized,
        &noisy_racey_setup,
    );
    assert!(
        !again.improved(),
        "re-shrinking a minimized trace must be a no-op: {}",
        again.summary()
    );
    assert_eq!(again.minimized.decisions, shrink.minimized.decisions);
    assert_eq!(again.minimized, shrink.minimized);
}

#[test]
fn shrink_output_is_byte_identical_across_engines_and_worker_counts() {
    let serial = TestEngine::new(shrinking_config()).run(noisy_racey_setup);
    let reference = serial.bug.expect("serial engine finds the bug");
    let reference_json = reference
        .shrink
        .as_ref()
        .expect("shrink ran")
        .minimized
        .to_json()
        .expect("serialize");

    for workers in [2usize, 8] {
        let parallel =
            TestEngine::new(shrinking_config().with_workers(workers)).run(noisy_racey_setup);
        let report = parallel.bug.expect("parallel engine finds the bug");
        assert_eq!(report.iteration, reference.iteration, "{workers} workers");
        let json = report
            .shrink
            .as_ref()
            .expect("shrink ran")
            .minimized
            .to_json()
            .expect("serialize");
        assert_eq!(
            json, reference_json,
            "minimized trace differs at {workers} workers"
        );
    }
}

#[test]
fn shrink_report_round_trips_through_json_from_an_engine_run() {
    let report = TestEngine::new(shrinking_config()).run(noisy_racey_setup);
    let shrink = report.bug.expect("bug found").shrink.expect("shrink ran");
    let json = shrink.to_json_value().to_string_pretty();
    let back = ShrinkReport::from_json_value(&psharp::json::Json::parse(&json).expect("parse"))
        .expect("roundtrip");
    assert_eq!(back.minimized, shrink.minimized);
    assert_eq!(back.original_decisions, shrink.original_decisions);
    assert_eq!(back.minimized_decisions, shrink.minimized_decisions);
}

#[test]
fn decisions_only_trace_mode_preserves_replay() {
    let config = shrinking_config().with_shrink(false);
    let engine = TestEngine::new(config.clone());
    let found = engine.run(noisy_racey_setup).bug.expect("bug found");
    // The buggy execution again, recorded by hand without its annotated
    // schedule.
    let seed = config.seed_for_iteration(found.iteration);
    let mut runtime = Runtime::new(
        config
            .strategy_for_iteration(found.iteration)
            .build(seed, config.max_steps),
        RuntimeConfig {
            max_steps: config.max_steps,
            trace_mode: TraceMode::DecisionsOnly,
            ..RuntimeConfig::default()
        },
        seed,
    );
    noisy_racey_setup(&mut runtime);
    assert!(matches!(runtime.run(), ExecutionOutcome::BugFound(_)));
    let trace = runtime.take_trace();
    assert_eq!(trace.retained_step_count(), 0);
    assert!(trace.dropped_steps() > 0);
    assert_eq!(trace.decisions, found.trace.decisions);
    let replayed = engine
        .replay(&trace, noisy_racey_setup)
        .expect("decisions-only trace replays");
    assert_eq!(replayed.message, found.bug.message);
}

#[test]
fn shrink_respects_its_candidate_budget() {
    let config = shrinking_config().with_shrink_budget(3);
    let report = TestEngine::new(config).run(noisy_racey_setup);
    let shrink = report.bug.expect("bug found").shrink.expect("shrink ran");
    assert!(shrink.candidates_tried <= 3);
}

/// `setup` as a function of how many times it has been called: the racey
/// harness while `racey(call)` holds, a harness with both writers writing
/// `true` — which cannot fail — otherwise.
fn flaky_setup(racey: impl Fn(u64) -> bool) -> impl Fn(&mut Runtime) {
    let calls = std::sync::atomic::AtomicU64::new(0);
    move |rt: &mut Runtime| {
        let call = calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        if racey(call) {
            noisy_racey_setup(rt);
        } else {
            let flag = rt.create_machine(Flag { value: false });
            rt.create_machine(Spinner { remaining: 40 });
            for _ in 0..2 {
                rt.create_machine(Writer {
                    flag,
                    value: true,
                    delay: 6,
                });
            }
        }
    }
}

#[test]
fn engine_says_when_the_reported_trace_could_not_be_re_recorded() {
    let config = shrinking_config().with_shrink(false);
    let honest = TestEngine::new(config.clone()).run(noisy_racey_setup);
    let found = honest.bug.as_ref().expect("bug found");
    assert_eq!(found.trace.mode(), TraceMode::Full);
    assert!(!honest.summary().contains("not annotated"));

    // One setup per iteration, then one for the strict replay that
    // re-records the winner: the harness stops being racey exactly there.
    let hunts = found.iteration + 1;
    let report = TestEngine::new(config).run(flaky_setup(|call| call <= hunts));
    let kept = report.bug.as_ref().expect("bug found");
    assert_eq!(kept.iteration, found.iteration);
    assert_eq!(kept.trace.decisions, found.trace.decisions);
    assert_eq!(kept.trace.mode(), TraceMode::DecisionsOnly);
    assert_eq!(kept.trace.retained_step_count(), 0);
    assert!(
        report.summary().contains("trace not annotated"),
        "{}",
        report.summary()
    );
}

#[test]
fn shrink_reports_which_trace_it_returned_when_the_final_replay_fails() {
    let config = shrinking_config().with_shrink(false);
    let found = TestEngine::new(config.clone())
        .run(noisy_racey_setup)
        .bug
        .expect("bug found");
    let shrink = |setup: &dyn Fn(&mut Runtime)| {
        shrink_trace(&config.shrink_config(), &found.bug, &found.trace, &setup)
    };

    let honest = shrink(&noisy_racey_setup);
    assert_eq!(honest.returned, ShrinkReturned::Minimized);
    assert!(honest.improved());
    assert!(honest.summary().ends_with("s)"), "{}", honest.summary());
    // One setup per candidate, then one for the final strict re-recording.
    let last = honest.candidates_tried + 1;

    // The harness stops reproducing exactly at the final re-recording of the
    // minimized sequence: the re-recorded original comes back, and says so.
    let original = shrink(&flaky_setup(|call| call != last));
    assert_eq!(original.candidates_tried, honest.candidates_tried);
    assert_eq!(original.returned, ShrinkReturned::Original);
    assert!(!original.improved());
    assert_eq!(original.minimized.decisions, found.trace.decisions);
    assert!(
        original.summary().contains("re-recorded original"),
        "{}",
        original.summary()
    );

    // It stops reproducing for good after the last candidate: nothing
    // replays any more, the input comes back as given, loudly unverified.
    let unverified = shrink(&flaky_setup(|call| call < last));
    assert_eq!(unverified.returned, ShrinkReturned::Unverified);
    assert_eq!(unverified.minimized, found.trace);
    assert!(
        unverified.summary().contains("UNVERIFIED"),
        "{}",
        unverified.summary()
    );
    let json = unverified.to_json_value().to_string_pretty();
    let back = ShrinkReport::from_json_value(&psharp::json::Json::parse(&json).expect("parse"))
        .expect("roundtrip");
    assert_eq!(back.returned, ShrinkReturned::Unverified);
    assert_eq!(back.candidate_steps, unverified.candidate_steps);
}
