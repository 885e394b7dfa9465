//! Determinism regression tests: for every [`SchedulerKind`], two runs with
//! the same seed produce identical traces and identical [`TestReport`]
//! counters — at one worker, and at N workers (whose counters are
//! deterministic for bug-free runs because every worker exhausts its stripe
//! of the iteration space).

use psharp::prelude::*;

/// Two writers race to flip a flag machine; one interleaving violates the
/// flag's safety assertion, so schedule exploration decides the outcome.
mod racey {
    use super::*;

    #[derive(Debug)]
    pub struct SetFlag(pub bool);

    pub struct Flag {
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

    pub struct Writer {
        pub flag: MachineId,
        pub value: bool,
    }
    impl Machine for Writer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(self.flag, Event::new(SetFlag(self.value)));
        }
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
    }

    pub fn setup(rt: &mut Runtime) {
        let flag = rt.create_machine(Flag { value: false });
        rt.create_machine(Writer { flag, value: true });
        rt.create_machine(Writer { flag, value: false });
    }
}

/// A correct system that still consumes nondeterminism, so traces exercise
/// every decision type without ever finding a bug.
mod clean {
    use super::*;

    #[derive(Debug)]
    pub struct Ping;

    pub struct Chatter {
        pub peer: Option<MachineId>,
        pub budget: usize,
    }
    impl Machine for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, Event::new(Ping));
            }
        }
        fn handle(&mut self, ctx: &mut Context<'_>, _event: Event) {
            let _ = ctx.random_bool();
            let _ = ctx.random_index(5);
            if self.budget > 0 {
                self.budget -= 1;
                ctx.send_to_self(Event::new(Ping));
            }
        }
    }

    pub fn setup(rt: &mut Runtime) {
        let a = rt.create_machine(Chatter {
            peer: None,
            budget: 6,
        });
        rt.create_machine(Chatter {
            peer: Some(a),
            budget: 4,
        });
    }
}

fn every_kind() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Random,
        SchedulerKind::Pct { change_points: 2 },
        SchedulerKind::Pct { change_points: 5 },
        SchedulerKind::DelayBounding { delays: 2 },
        SchedulerKind::ProbabilisticRandom { switch_percent: 10 },
        SchedulerKind::RoundRobin,
    ]
}

fn config(kind: SchedulerKind) -> TestConfig {
    TestConfig::new()
        .with_iterations(200)
        .with_seed(1)
        .with_scheduler(kind)
}

/// Asserts the deterministic portions of two reports are identical (elapsed
/// wall-clock time is the only field allowed to differ).
fn assert_reports_identical(a: &TestReport, b: &TestReport, context: &str) {
    assert_eq!(a.iterations_run, b.iterations_run, "{context}: iterations");
    assert_eq!(a.total_steps, b.total_steps, "{context}: steps");
    assert_eq!(a.scheduler, b.scheduler, "{context}: scheduler label");
    assert_eq!(a.workers, b.workers, "{context}: worker count");
    assert_eq!(a.found_bug(), b.found_bug(), "{context}: found_bug");
    if let (Some(x), Some(y)) = (&a.bug, &b.bug) {
        assert_eq!(x.iteration, y.iteration, "{context}: bug iteration");
        assert_eq!(x.ndc, y.ndc, "{context}: bug ndc");
        assert_eq!(x.trace, y.trace, "{context}: bug trace");
        assert_eq!(x.bug.kind, y.bug.kind, "{context}: bug kind");
        assert_eq!(x.bug.message, y.bug.message, "{context}: bug message");
    }
    assert_eq!(a.per_strategy, b.per_strategy, "{context}: per-strategy");
}

#[test]
fn serial_runs_are_identical_for_every_scheduler() {
    for kind in every_kind() {
        let engine = TestEngine::new(config(kind));
        let first = engine.run(racey::setup);
        let second = engine.run(racey::setup);
        assert_reports_identical(&first, &second, kind.label());
    }
}

#[test]
fn n_worker_runs_are_identical_for_every_scheduler_on_clean_harness() {
    // With no bug to race for, every worker exhausts its stripe, so the
    // merged counters are independent of thread timing.
    for kind in every_kind() {
        let make = || TestEngine::new(config(kind).with_workers(3)).run(clean::setup);
        let first = make();
        let second = make();
        assert_reports_identical(&first, &second, kind.label());
        assert!(!first.found_bug(), "{}: clean harness", kind.label());
        assert_eq!(first.iterations_run, 200, "{}: full budget", kind.label());
    }
}

#[test]
fn n_worker_run_covers_the_same_seed_space_as_serial() {
    // A bug-free run explores every iteration regardless of worker count, so
    // the total step count must match the serial engine exactly: each global
    // iteration keeps its serial seed.
    for kind in every_kind() {
        let serial = TestEngine::new(config(kind)).run(clean::setup);
        let sharded = TestEngine::new(config(kind).with_workers(4)).run(clean::setup);
        assert_eq!(
            serial.total_steps,
            sharded.total_steps,
            "{}: same executions, same steps",
            kind.label()
        );
        assert_eq!(serial.iterations_run, sharded.iterations_run);
    }
}

#[test]
fn portfolio_attribution_covers_every_iteration() {
    let report = TestEngine::new(
        TestConfig::new()
            .with_iterations(120)
            .with_seed(9)
            .with_workers(5)
            .with_default_portfolio(),
    )
    .run(clean::setup);
    assert_eq!(report.workers, 5);
    let attributed: u64 = report.per_strategy.iter().map(|s| s.iterations_run).sum();
    assert_eq!(attributed, report.iterations_run);
    let attributed_steps: u64 = report.per_strategy.iter().map(|s| s.total_steps).sum();
    assert_eq!(attributed_steps, report.total_steps);
    // One row per portfolio entry, in portfolio order.
    let portfolio = SchedulerKind::default_portfolio();
    assert_eq!(report.per_strategy.len(), portfolio.len());
    for (row, kind) in report.per_strategy.iter().zip(&portfolio) {
        assert_eq!(row.scheduler, kind.describe());
    }
    assert!(report.strategy_table().contains("random"));
    assert!(report.strategy_table().contains("delay(d=2)"));
    assert!(report.strategy_table().contains("prob(p=10)"));
}
