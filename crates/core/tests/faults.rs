//! Integration tests for scheduler-controlled fault injection: crash /
//! restart / drop / duplicate semantics, replay (strict and tolerant,
//! including the edge cases around deleted or stale fault decisions), shrink
//! reduction to a minimum fault set, and determinism across engines and
//! worker counts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use psharp::prelude::*;
use psharp::scheduler::{ReplayScheduler, Scheduler};
use psharp::shrink::shrink_trace;

#[derive(Debug, Clone)]
struct Ping;

#[derive(Debug)]
struct CrashNotice(MachineId);

/// A machine that counts handled pings and, via its hooks, reports crashes
/// to a supervisor and restarts cleanly.
struct Worker {
    supervisor: Option<MachineId>,
    handled: usize,
    crashes_seen: usize,
    restarts_seen: usize,
}

impl Worker {
    fn new() -> Self {
        Worker {
            supervisor: None,
            handled: 0,
            crashes_seen: 0,
            restarts_seen: 0,
        }
    }

    fn supervised(supervisor: MachineId) -> Self {
        Worker {
            supervisor: Some(supervisor),
            ..Worker::new()
        }
    }
}

impl Machine for Worker {
    fn handle(&mut self, _ctx: &mut Context<'_>, event: Event) {
        if event.is::<Ping>() {
            self.handled += 1;
        }
    }

    fn on_crash(&mut self, ctx: &mut Context<'_>) {
        self.crashes_seen += 1;
        if let Some(supervisor) = self.supervisor {
            let me = ctx.id();
            ctx.send(supervisor, Event::new(CrashNotice(me)));
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        self.restarts_seen += 1;
        ctx.send_to_self(Event::new(Ping));
    }
}

/// Records crash notices.
#[derive(Default)]
struct Supervisor {
    notices: Vec<MachineId>,
}

impl Machine for Supervisor {
    fn handle(&mut self, _ctx: &mut Context<'_>, event: Event) {
        if let Some(notice) = event.downcast_ref::<CrashNotice>() {
            self.notices.push(notice.0);
        }
    }
}

fn runtime_with_faults(seed: u64, faults: FaultPlan, max_steps: usize) -> Runtime {
    Runtime::new(
        SchedulerKind::Random.build(seed, max_steps),
        RuntimeConfig {
            max_steps,
            faults,
            ..RuntimeConfig::default()
        },
        seed,
    )
}

#[test]
fn crash_fault_downs_the_machine_and_runs_the_hook() {
    // Scan seeds until the gate fires a crash (geometric firing times).
    for seed in 0..20 {
        let mut rt = runtime_with_faults(seed, FaultPlan::new().with_crashes(1), 400);
        let supervisor = rt.create_machine(Supervisor::default());
        let worker = rt.create_machine(Worker::supervised(supervisor));
        rt.mark_crashable(worker);
        for _ in 0..50 {
            rt.send(worker, Event::new(Ping));
        }
        rt.run();
        if !rt.is_crashed(worker) {
            continue;
        }
        let crashed = rt.machine_ref::<Worker>(worker).expect("worker");
        assert_eq!(crashed.crashes_seen, 1, "on_crash ran exactly once");
        assert_eq!(crashed.restarts_seen, 0, "no restart budget");
        assert!(
            crashed.handled < 50,
            "the crash must interrupt the ping backlog (mailbox discarded)"
        );
        let supervisor = rt
            .machine_ref::<Supervisor>(supervisor)
            .expect("supervisor");
        assert_eq!(
            supervisor.notices,
            vec![worker],
            "the crash hook's supervision signal was delivered"
        );
        assert_eq!(rt.trace().fault_decision_count(), 1);
        assert!(rt
            .trace()
            .decisions
            .contains(&Decision::CrashMachine(worker)));
        return;
    }
    panic!("no seed in 0..20 fired the crash fault");
}

#[test]
fn restart_fault_revives_a_crashed_machine_through_on_restart() {
    for seed in 0..40 {
        let mut rt = runtime_with_faults(
            seed,
            FaultPlan::new().with_crashes(1).with_restarts(1),
            2_000,
        );
        let worker = rt.create_machine(Worker::new());
        rt.mark_restartable(worker);
        // A second, fault-free machine keeps the execution alive while the
        // worker is down, so the scheduler gets probe opportunities to
        // restart it (a quiescent system ends the execution, restart budget
        // or not).
        let bystander = rt.create_machine(Worker::new());
        for _ in 0..100 {
            rt.send(worker, Event::new(Ping));
            rt.send(bystander, Event::new(Ping));
        }
        rt.run();
        let w = rt.machine_ref::<Worker>(worker).expect("worker");
        if w.restarts_seen == 0 {
            continue;
        }
        assert_eq!(w.crashes_seen, 1, "restart requires a preceding crash");
        assert!(!rt.is_crashed(worker), "the machine is live again");
        assert!(
            rt.trace()
                .decisions
                .contains(&Decision::RestartMachine(worker)),
            "the restart is a recorded decision"
        );
        // on_restart sent a Ping to self: the revived machine handled it.
        assert!(w.handled >= 1);
        return;
    }
    panic!("no seed in 0..40 fired crash + restart");
}

#[test]
fn restart_of_a_never_started_machine_boots_through_on_start() {
    // A machine can be crashed at the very first scheduling point, before
    // its `on_start` ever ran. Restarting it must not mark it started:
    // there is no prior incarnation to recover, so it boots normally via
    // `on_start` (with all its wiring) and `on_restart` is skipped.
    struct Booter {
        started: usize,
        restarted: usize,
    }
    impl Machine for Booter {
        fn on_start(&mut self, _ctx: &mut Context<'_>) {
            self.started += 1;
        }
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        fn on_restart(&mut self, _ctx: &mut Context<'_>) {
            self.restarted += 1;
        }
    }
    for seed in 0..60 {
        let mut rt = runtime_with_faults(
            seed,
            FaultPlan::new().with_crashes(1).with_restarts(1),
            2_000,
        );
        let booter = rt.create_machine(Booter {
            started: 0,
            restarted: 0,
        });
        rt.mark_restartable(booter);
        // A busy bystander keeps the execution alive for probe chances.
        let bystander = rt.create_machine(Worker::new());
        for _ in 0..200 {
            rt.send(bystander, Event::new(Ping));
        }
        rt.run();
        let b = rt.machine_ref::<Booter>(booter).expect("booter");
        let crashed_before_start = rt
            .trace()
            .decisions
            .iter()
            .position(|d| *d == Decision::CrashMachine(booter))
            .is_some_and(|crash_at| {
                // No Schedule(booter) decision before the crash means the
                // machine never ran its on_start.
                !rt.trace().decisions[..crash_at].contains(&Decision::Schedule(booter))
            });
        let restarted = rt
            .trace()
            .decisions
            .contains(&Decision::RestartMachine(booter));
        if !(crashed_before_start && restarted) {
            continue;
        }
        assert_eq!(b.restarted, 0, "no prior incarnation to recover");
        assert_eq!(b.started, 1, "the restarted machine boots exactly once");
        return;
    }
    panic!("no seed in 0..60 crashed the machine before it started and restarted it");
}

#[test]
fn sends_to_a_crashed_machine_are_dropped_until_restart() {
    let mut rt = runtime_with_faults(1, FaultPlan::none(), 100);
    let worker = rt.create_machine(Worker::new());
    rt.mark_crashable(worker);
    // No budget, so nothing can fire; crash candidates are simply inert.
    rt.send(worker, Event::new(Ping));
    rt.run();
    assert!(!rt.is_crashed(worker));
    assert_eq!(rt.trace().fault_decision_count(), 0);
}

#[test]
fn drop_fault_loses_exactly_one_queued_message() {
    for seed in 0..20 {
        let mut rt = runtime_with_faults(seed, FaultPlan::new().with_drops(1), 400);
        let worker = rt.create_machine(Worker::new());
        rt.mark_lossy(worker);
        for _ in 0..30 {
            rt.send(worker, Event::new(Ping));
        }
        rt.run();
        let handled = rt.machine_ref::<Worker>(worker).expect("worker").handled;
        if handled == 30 {
            continue; // the gate did not fire for this seed
        }
        assert_eq!(handled, 29, "exactly one message was dropped");
        assert!(rt
            .trace()
            .decisions
            .contains(&Decision::DropMessage(worker)));
        return;
    }
    panic!("no seed in 0..20 fired the drop fault");
}

#[test]
fn duplicate_fault_redelivers_a_replicable_message() {
    for seed in 0..20 {
        let mut rt = runtime_with_faults(seed, FaultPlan::new().with_duplicates(1), 400);
        let worker = rt.create_machine(Worker::new());
        rt.mark_lossy(worker);
        for _ in 0..30 {
            rt.send(worker, Event::replicable(Ping));
        }
        rt.run();
        let handled = rt.machine_ref::<Worker>(worker).expect("worker").handled;
        if handled == 30 {
            continue;
        }
        assert_eq!(handled, 31, "exactly one message was re-delivered");
        assert!(rt
            .trace()
            .decisions
            .contains(&Decision::DuplicateMessage(worker)));
        return;
    }
    panic!("no seed in 0..20 fired the duplicate fault");
}

#[test]
fn plain_events_are_never_duplicated() {
    // Same setup as above but with non-replicable events: the duplicate
    // budget can never fire, for any seed.
    for seed in 0..20 {
        let mut rt = runtime_with_faults(seed, FaultPlan::new().with_duplicates(3), 400);
        let worker = rt.create_machine(Worker::new());
        rt.mark_lossy(worker);
        for _ in 0..30 {
            rt.send(worker, Event::new(Ping));
        }
        rt.run();
        assert_eq!(
            rt.machine_ref::<Worker>(worker).expect("worker").handled,
            30
        );
        assert_eq!(rt.trace().fault_decision_count(), 0);
    }
}

#[test]
fn unmarked_machines_are_never_offered_as_fault_targets() {
    for seed in 0..20 {
        let mut rt = runtime_with_faults(seed, FaultPlan::new().with_crashes(5).with_drops(5), 400);
        let worker = rt.create_machine(Worker::new());
        // No marking at all: the budget exists but nothing is a candidate.
        for _ in 0..30 {
            rt.send(worker, Event::new(Ping));
        }
        rt.run();
        assert!(!rt.is_crashed(worker));
        assert_eq!(rt.trace().fault_decision_count(), 0);
        assert_eq!(
            rt.machine_ref::<Worker>(worker).expect("worker").handled,
            30
        );
    }
}

/// Regression test: a machine marked both crashable AND lossy must appear in
/// the fault-target candidate list exactly once, whichever order the marks
/// arrive in — a duplicated entry would skew the replay-critical offer order
/// and double that machine's selection weight.
#[test]
fn doubly_marked_machine_is_offered_as_one_fault_target() {
    for flip in [false, true] {
        let mut rt = runtime_with_faults(3, FaultPlan::new().with_crashes(1).with_drops(1), 400);
        let worker = rt.create_machine(Worker::new());
        let bystander = rt.create_machine(Worker::new());
        if flip {
            rt.mark_lossy(worker);
            rt.mark_crashable(worker);
        } else {
            rt.mark_crashable(worker);
            rt.mark_lossy(worker);
        }
        rt.mark_restartable(worker);
        rt.mark_lossy(bystander);
        assert_eq!(
            rt.fault_target_count(),
            2,
            "two distinct machines are marked, so two candidates exist"
        );
        for _ in 0..10 {
            rt.send(worker, Event::new(Ping));
            rt.send(bystander, Event::new(Ping));
        }
        rt.run();
    }
}

#[test]
fn fault_budget_bounds_the_injected_fault_count() {
    let plan = FaultPlan::new().with_drops(2).with_duplicates(1);
    for seed in 0..30 {
        let mut rt = runtime_with_faults(seed, plan, 2_000);
        let worker = rt.create_machine(Worker::new());
        rt.mark_lossy(worker);
        for _ in 0..200 {
            rt.send(worker, Event::replicable(Ping));
        }
        rt.run();
        let drops = rt
            .trace()
            .decisions
            .iter()
            .filter(|d| matches!(d, Decision::DropMessage(_)))
            .count();
        let dups = rt
            .trace()
            .decisions
            .iter()
            .filter(|d| matches!(d, Decision::DuplicateMessage(_)))
            .count();
        assert!(drops <= 2, "seed {seed}: {drops} drops exceed the budget");
        assert!(
            dups <= 1,
            "seed {seed}: {dups} duplicates exceed the budget"
        );
    }
}

/// The probe stream is decorrelated from the scheduling stream: with and
/// without a fault budget, the same seed makes the same schedule decisions
/// up to the first injected fault.
#[test]
fn enabling_faults_does_not_perturb_the_schedule_before_the_first_fault() {
    let run = |faults: FaultPlan| {
        let mut rt = runtime_with_faults(9, faults, 300);
        let a = rt.create_machine(Worker::new());
        let b = rt.create_machine(Worker::new());
        rt.mark_lossy(a);
        rt.mark_lossy(b);
        for _ in 0..40 {
            rt.send(a, Event::new(Ping));
            rt.send(b, Event::new(Ping));
        }
        rt.run();
        rt.into_trace()
    };
    let without = run(FaultPlan::none());
    let with = run(FaultPlan::new().with_drops(1));
    let first_fault = with
        .decisions
        .iter()
        .position(|d| d.is_fault())
        .unwrap_or(with.decisions.len());
    assert_eq!(
        &without.decisions[..first_fault],
        &with.decisions[..first_fault],
        "schedules must agree decision-for-decision up to the first fault"
    );
}

/// Forwards every query to a random scheduler and counts the fault probes
/// the runtime makes.
struct CountingProbes {
    inner: Box<dyn Scheduler>,
    probes: Arc<AtomicUsize>,
}

impl Scheduler for CountingProbes {
    fn name(&self) -> &'static str {
        "counting-probes"
    }
    fn next_machine(&mut self, enabled: &[MachineId], step: usize) -> MachineId {
        self.inner.next_machine(enabled, step)
    }
    fn next_bool(&mut self) -> bool {
        self.inner.next_bool()
    }
    fn next_int(&mut self, bound: usize) -> usize {
        self.inner.next_int(bound)
    }
    fn next_fault(&mut self, candidates: &[Fault], step: usize) -> Option<Fault> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.inner.next_fault(candidates, step)
    }
}

/// The exact-count form of "an idle fault budget costs nothing per step": a
/// budget that no marked machine can absorb never reaches the scheduler, and
/// the same budget with the matching mark does.
#[test]
fn a_budget_nothing_can_absorb_is_never_probed() {
    /// Sends itself one event per step, so a run lasts to the step bound.
    struct Spinner;
    impl Machine for Spinner {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send_to_self(Event::new(Ping));
        }
        fn handle(&mut self, ctx: &mut Context<'_>, _event: Event) {
            ctx.send_to_self(Event::new(Ping));
        }
    }
    const STEPS: usize = 2_000;
    let probes_of = |faults: FaultPlan, mark: fn(&mut Runtime, MachineId)| {
        let probes = Arc::new(AtomicUsize::new(0));
        let scheduler = CountingProbes {
            inner: SchedulerKind::Random.build(5, STEPS),
            probes: Arc::clone(&probes),
        };
        let config = RuntimeConfig {
            max_steps: STEPS,
            faults,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(Box::new(scheduler), config, 5);
        let spinner = rt.create_machine(Spinner);
        mark(&mut rt, spinner);
        rt.run();
        (probes.load(Ordering::Relaxed), rt.steps())
    };
    let crash_budget = FaultPlan::new().with_crashes(1).with_restarts(1);
    let loss_budget = FaultPlan::new().with_drops(1).with_duplicates(1);
    // The mark of the other category is present: the skip is per category.
    for (budget, idle_mark, absorbing_mark) in [
        (
            crash_budget,
            Runtime::mark_lossy as fn(&mut Runtime, MachineId),
            Runtime::mark_crashable as fn(&mut Runtime, MachineId),
        ),
        (loss_budget, Runtime::mark_crashable, Runtime::mark_lossy),
    ] {
        assert_eq!(
            probes_of(budget, |_, _| {}),
            (0, STEPS),
            "{budget}: nothing is marked"
        );
        assert_eq!(
            probes_of(budget, idle_mark),
            (0, STEPS),
            "{budget}: nothing marked can absorb it"
        );
        let (probes, _) = probes_of(budget, absorbing_mark);
        assert!(probes >= 1, "{budget}: a marked machine can absorb it");
    }
}

// ---------------------------------------------------------------------------
// A harness whose bug is *fault-induced*: the flag machine loses its state on
// crash+restart, and the checker asserts the state survived.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SetValue(u64);
#[derive(Debug, Clone)]
struct Probe;

struct FragileStore {
    value: Option<u64>,
}

impl Machine for FragileStore {
    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        if let Some(set) = event.downcast_ref::<SetValue>() {
            self.value = Some(set.0);
        } else if event.is::<Probe>() {
            // BUG under faults: a crash wipes the "persisted" value, so a
            // probe after crash+restart observes the loss.
            ctx.assert(self.value.is_some(), "stored value was lost");
        }
    }

    fn on_restart(&mut self, _ctx: &mut Context<'_>) {
        // Volatile state was never persisted.
        self.value = None;
    }
}

struct Prober {
    store: MachineId,
    probes: usize,
}

impl Machine for Prober {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send(self.store, Event::new(SetValue(7)));
        ctx.send_to_self(Event::new(Ping));
    }
    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        if event.is::<Ping>() {
            if self.probes == 0 {
                ctx.halt();
                return;
            }
            self.probes -= 1;
            ctx.send(self.store, Event::new(Probe));
            ctx.send_to_self(Event::new(Ping));
        }
    }
}

fn fragile_setup(rt: &mut Runtime) {
    let store = rt.create_machine(FragileStore { value: None });
    rt.mark_restartable(store);
    rt.create_machine(Prober { store, probes: 40 });
}

fn fragile_config() -> TestConfig {
    TestConfig::new()
        .with_iterations(400)
        .with_max_steps(500)
        .with_seed(11)
        .with_faults(FaultPlan::new().with_crashes(1).with_restarts(1))
}

#[test]
fn fault_induced_bug_is_found_replayed_and_shrunk_to_its_fault_set() {
    let engine = TestEngine::new(fragile_config());
    let report = engine.run(fragile_setup);
    let bug_report = report.bug.expect("the fault-induced bug is reachable");
    assert_eq!(bug_report.bug.kind, BugKind::SafetyViolation);
    let faults = bug_report.trace.fault_decision_count();
    assert!(
        faults >= 2,
        "the buggy execution needs at least crash + restart, got {faults}"
    );

    // Strict replay reproduces the identical bug, faults included.
    let replayed = engine
        .replay(&bug_report.trace, fragile_setup)
        .expect("replay reproduces the fault-induced bug");
    assert_eq!(replayed.kind, bug_report.bug.kind);
    assert_eq!(replayed.message, bug_report.bug.message);

    // Shrinking keeps the minimum fault set: the bug needs exactly one
    // crash and one restart, and no shrunk trace may lose them.
    let shrink = shrink_trace(
        &fragile_config().shrink_config(),
        &bug_report.bug,
        &bug_report.trace,
        &fragile_setup,
    );
    assert_eq!(
        shrink.minimized_faults,
        2,
        "minimum fault set is crash + restart: {}",
        shrink.summary()
    );
    assert!(shrink.minimized_decisions <= bug_report.ndc);
    let verified = engine
        .replay(&shrink.minimized, fragile_setup)
        .expect("the minimized trace still reproduces");
    assert_eq!(verified.message, bug_report.bug.message);
}

#[test]
fn fault_reports_are_identical_across_engines_and_worker_counts() {
    let config = fragile_config();
    let serial = TestEngine::new(config.clone()).run(fragile_setup);
    let serial_bug = serial.bug.expect("serial run finds the bug");
    for workers in [2usize, 8] {
        let parallel = TestEngine::new(config.clone().with_workers(workers)).run(fragile_setup);
        let bug = parallel
            .bug
            .unwrap_or_else(|| panic!("{workers}-worker run finds the bug"));
        assert_eq!(bug.iteration, serial_bug.iteration, "workers={workers}");
        assert_eq!(bug.trace.seed, serial_bug.trace.seed, "workers={workers}");
        assert_eq!(
            bug.trace.decisions, serial_bug.trace.decisions,
            "workers={workers}: the decision stream (faults included) must be byte-identical"
        );
        assert_eq!(bug.bug.message, serial_bug.bug.message, "workers={workers}");
    }
}

// ---------------------------------------------------------------------------
// Tolerant-replay edge cases (PR 5 satellite).
// ---------------------------------------------------------------------------

fn ids(raw: &[u64]) -> Vec<MachineId> {
    raw.iter().copied().map(MachineId::from_raw).collect()
}

#[test]
fn tolerant_replay_with_empty_prefix_is_a_pure_seeded_tail() {
    let enabled = ids(&[0, 1, 2]);
    let run = || {
        let mut s = ReplayScheduler::tolerant(Vec::new(), 13);
        let picks: Vec<u64> = (0..50).map(|i| s.next_machine(&enabled, i).raw()).collect();
        assert!(s.error().is_none());
        assert_eq!(s.position(), 0, "an empty prefix consumes nothing");
        picks
    };
    let picks = run();
    assert_eq!(picks, run(), "the tail is deterministic");
    assert!(enabled.iter().all(|m| picks.contains(&m.raw())));
}

#[test]
fn tolerant_replay_prefix_longer_than_the_run_is_harmless() {
    // A prefix with far more decisions than the (short) run consumes only
    // what the run asks for; the surplus is simply never read.
    let decisions: Vec<Decision> = (0..100)
        .map(|i| Decision::Schedule(MachineId::from_raw(i % 2)))
        .collect();
    let engine = TestEngine::new(TestConfig::new().with_max_steps(5));
    let _ = engine; // the scheduler-level check below is what matters
    let enabled = ids(&[0, 1]);
    let mut s = ReplayScheduler::tolerant(decisions, 3);
    for step in 0..5 {
        let pick = s.next_machine(&enabled, step);
        assert!(enabled.contains(&pick));
    }
    assert_eq!(s.position(), 5, "only the consumed prefix advances");
    assert!(s.error().is_none());
}

#[test]
fn tolerant_replay_skips_fault_decisions_whose_machines_no_longer_apply() {
    // A crash recorded for a machine id that does not exist in the replayed
    // harness (e.g. the shrink pass deleted the decisions that created it)
    // must be skipped without error, and no fault may fire.
    let decisions = vec![
        Decision::CrashMachine(MachineId::from_raw(99)),
        Decision::Schedule(MachineId::from_raw(0)),
    ];
    let mut s = ReplayScheduler::tolerant(decisions, 5);
    let candidates = [Fault::Crash(MachineId::from_raw(0))];
    assert_eq!(
        s.next_fault(&candidates, 0),
        None,
        "a stale fault decision fires nothing"
    );
    assert!(s.error().is_none(), "tolerant replay never errors");
    assert_eq!(s.position(), 1, "the stale fault decision was consumed");
    // The following Schedule decision still replays positionally.
    let enabled = ids(&[0, 1]);
    assert_eq!(s.next_machine(&enabled, 0), MachineId::from_raw(0));
}

#[test]
fn strict_replay_flags_stale_fault_decisions_as_divergence() {
    let mut trace = Trace::new(0);
    trace.push_decision(Decision::CrashMachine(MachineId::from_raw(9)));
    let mut s = ReplayScheduler::from_trace(&trace);
    let candidates = [Fault::Crash(MachineId::from_raw(0))];
    assert_eq!(s.next_fault(&candidates, 0), None);
    assert!(
        s.error().is_some(),
        "strict replay reports the unusable fault decision"
    );
}

#[test]
fn replay_scheduler_peeks_faults_without_consuming_schedule_decisions() {
    let mut trace = Trace::new(0);
    trace.push_decision(Decision::Schedule(MachineId::from_raw(1)));
    let mut s = ReplayScheduler::from_trace(&trace);
    let candidates = [Fault::Crash(MachineId::from_raw(1))];
    // The probe sees a Schedule decision: no fault, nothing consumed.
    assert_eq!(s.next_fault(&candidates, 0), None);
    assert_eq!(s.position(), 0);
    let enabled = ids(&[0, 1]);
    assert_eq!(s.next_machine(&enabled, 0), MachineId::from_raw(1));
    assert!(s.error().is_none());
}

#[test]
fn tolerant_replay_after_crash_decision_prefix_reaches_the_bug() {
    // End-to-end: record a fault-induced bug, delete a *schedule* chunk from
    // the middle, and tolerant-replay the mutated prefix. The crash/restart
    // decisions survive and the execution still completes without error.
    let engine = TestEngine::new(fragile_config());
    let report = engine.run(fragile_setup);
    let bug_report = report.bug.expect("bug found");
    let mut mutated = bug_report.trace.decisions.clone();
    // Remove a mid-stream non-fault chunk.
    let start = mutated.len() / 3;
    let removed: Vec<Decision> = mutated.drain(start..start + 3).collect();
    let _ = removed;
    let shrink_config = fragile_config().shrink_config();
    let mut runtime = Runtime::new(
        Box::new(ReplayScheduler::tolerant(mutated, 77)),
        RuntimeConfig {
            max_steps: shrink_config.max_steps,
            faults: shrink_config.faults,
            ..RuntimeConfig::default()
        },
        bug_report.trace.seed,
    );
    fragile_setup(&mut runtime);
    runtime.run();
    assert!(
        runtime.replay_error().is_none(),
        "tolerant replay of a mutated fault trace never errors"
    );
}
