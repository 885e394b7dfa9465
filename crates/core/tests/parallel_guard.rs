//! Guard tests for the parallel engine's serialization contract: a single
//! execution is only ever stepped by one thread at a time (machines never
//! observe intra-execution parallelism), and the first bug found cancels all
//! in-flight workers at their next iteration boundary.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use psharp::prelude::*;

#[derive(Debug)]
struct Tick;

/// A machine that marks a serial section on every step (atomic-counter
/// style): if two steps of the *same execution* ever ran concurrently, the
/// entry counter would observe a value other than zero and the assertion
/// would surface as a panic bug.
struct SerialSection {
    active: Arc<AtomicUsize>,
    entries: Arc<AtomicU64>,
    budget: usize,
}

impl SerialSection {
    fn step(&self, ctx: &mut Context<'_>) {
        let previous = self.active.fetch_add(1, Ordering::SeqCst);
        assert_eq!(previous, 0, "two steps of one execution ran concurrently");
        self.entries.fetch_add(1, Ordering::SeqCst);
        // Interleave some controlled nondeterminism while "inside" the
        // section so a racing second step would have a window to collide.
        let _ = ctx.random_bool();
        let previous = self.active.fetch_sub(1, Ordering::SeqCst);
        assert_eq!(previous, 1, "serial section left in an inconsistent state");
    }
}

impl Machine for SerialSection {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.step(ctx);
        ctx.send_to_self(Event::new(Tick));
    }
    fn handle(&mut self, ctx: &mut Context<'_>, _event: Event) {
        self.step(ctx);
        if self.budget > 0 {
            self.budget -= 1;
            ctx.send_to_self(Event::new(Tick));
        }
    }
}

#[test]
fn workers_never_step_one_execution_concurrently() {
    let total_entries = Arc::new(AtomicU64::new(0));
    let entries = Arc::clone(&total_entries);
    let report = TestEngine::new(
        TestConfig::new()
            .with_iterations(300)
            .with_seed(3)
            .with_workers(4)
            .with_default_portfolio(),
    )
    .run(move |rt| {
        // One guard per execution: steps of *different* executions may (and
        // should) overlap across workers; steps of the same execution never.
        let active = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            rt.create_machine(SerialSection {
                active: Arc::clone(&active),
                entries: Arc::clone(&entries),
                budget: 4,
            });
        }
    });
    assert!(
        !report.found_bug(),
        "serial-section guard tripped: {:?}",
        report.bug
    );
    assert_eq!(report.iterations_run, 300);
    // 3 machines × (1 start + 5 handled events) × 300 executions.
    assert_eq!(total_entries.load(Ordering::SeqCst), 3 * 6 * 300);
}

/// A harness whose bug needs a modestly rare controlled choice, so some — but
/// far from all — of a large iteration budget is needed to hit it.
struct RareBug;
impl Machine for RareBug {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if ctx.random_index(40) == 7 {
            ctx.report_bug(BugKind::SafetyViolation, "rare path reached");
        }
    }
    fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
}

#[test]
fn first_bug_cancels_in_flight_workers() {
    let budget = 1_000_000;
    let report = TestEngine::new(
        TestConfig::new()
            .with_iterations(budget)
            .with_seed(5)
            .with_workers(4),
    )
    .run(|rt| {
        rt.create_machine(RareBug);
    });
    assert!(report.found_bug(), "the rare path must be reachable");
    // Early stop: nowhere near the full budget may have run. The winning
    // iteration is found within a few hundred executions; the other three
    // workers stop at the next iteration boundary, so the total stays tiny.
    assert!(
        report.iterations_run < budget / 100,
        "early stop must cancel the remaining budget (ran {})",
        report.iterations_run
    );
    let bug = report.bug.expect("found");
    assert_eq!(bug.bug.kind, BugKind::SafetyViolation);
    // Exactly one strategy row claims the bug.
    let credited: u64 = report.per_strategy.iter().map(|s| s.bugs_found).sum();
    assert!(credited >= 1, "the winning strategy must be attributed");
}
