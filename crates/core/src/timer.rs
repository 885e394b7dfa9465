//! Modeled timers.
//!
//! System correctness should not hinge on the frequency of any individual
//! timer, so test harnesses delegate all timing-related nondeterminism to the
//! runtime: a [`Timer`] machine repeatedly makes a controlled nondeterministic
//! choice and, when it fires, sends a tick event to its target. The scheduler
//! is then free to interleave timeouts arbitrarily with regular system events
//! — exactly the modeling pattern of Figure 9 in the paper.

use std::sync::Arc;

use crate::event::Event;
use crate::machine::{Machine, MachineId};
use crate::runtime::Context;

/// Internal self-message that keeps the timer loop running.
///
/// Replicable so that a queued loop event never blocks [`Runtime::snapshot`]
/// (timers are not marked lossy, so fault injection cannot duplicate it).
///
/// [`Runtime::snapshot`]: crate::runtime::Runtime::snapshot
#[derive(Debug, Clone)]
struct TimerLoop;

/// Event sent by [`Timer`] machines to their target when the timer fires.
///
/// Harness machines can either handle this generic tick directly or configure
/// the timer with a custom event constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerTick;

/// A machine that models timer expiration with controlled nondeterminism.
///
/// Clonable (the tick constructor is behind an `Arc`, so the machine stays
/// `Send + Sync`), so harnesses using timers stay compatible with
/// snapshot-based prefix sharing.
#[derive(Clone)]
pub struct Timer {
    target: MachineId,
    make_tick: Arc<dyn Fn() -> Event + Send + Sync + 'static>,
    max_ticks: Option<usize>,
    ticks_sent: usize,
}

impl Timer {
    /// Creates a timer that sends [`TimerTick`] events to `target`.
    pub fn new(target: MachineId) -> Self {
        Timer {
            target,
            make_tick: Arc::new(|| Event::new(TimerTick)),
            max_ticks: None,
            ticks_sent: 0,
        }
    }

    /// Creates a timer that sends events built by `make_tick` to `target`.
    ///
    /// Use this when the target machine distinguishes several timers (for
    /// example a heartbeat timer and a sync-report timer).
    pub fn with_event<F>(target: MachineId, make_tick: F) -> Self
    where
        F: Fn() -> Event + Send + Sync + 'static,
    {
        Timer {
            target,
            make_tick: Arc::new(make_tick),
            max_ticks: None,
            ticks_sent: 0,
        }
    }

    /// Bounds the number of ticks the timer may fire; the timer halts after
    /// reaching the bound. Unbounded timers keep every execution running to
    /// the step bound, which is what liveness checking needs, but a bound can
    /// make safety-only tests terminate earlier.
    pub fn with_max_ticks(mut self, max_ticks: usize) -> Self {
        self.max_ticks = Some(max_ticks);
        self
    }

    /// Number of ticks fired so far.
    pub fn ticks_sent(&self) -> usize {
        self.ticks_sent
    }
}

impl Machine for Timer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send_to_self(Event::replicable(TimerLoop));
    }

    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        if !event.is::<TimerLoop>() {
            return;
        }
        if let Some(max) = self.max_ticks {
            if self.ticks_sent >= max {
                ctx.halt();
                return;
            }
        }
        // The controlled nondeterministic choice: the runtime decides whether
        // the timer fires now or later.
        if ctx.random_bool() {
            self.ticks_sent += 1;
            ctx.send(self.target, (self.make_tick)());
        }
        ctx.send_to_self(Event::replicable(TimerLoop));
    }

    fn name(&self) -> &str {
        "Timer"
    }

    crate::impl_machine_snapshot!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{ExecutionOutcome, Runtime, RuntimeConfig};
    use crate::scheduler::RandomScheduler;

    struct TickCounter {
        ticks: usize,
    }
    impl Machine for TickCounter {
        fn handle(&mut self, _ctx: &mut Context<'_>, event: Event) {
            if event.is::<TimerTick>() {
                self.ticks += 1;
            }
        }
    }

    fn run_with_timer(max_ticks: usize, max_steps: usize) -> (ExecutionOutcome, usize) {
        let mut rt = Runtime::new(
            Box::new(RandomScheduler::new(7)),
            RuntimeConfig {
                max_steps,
                ..RuntimeConfig::default()
            },
            7,
        );
        let counter = rt.create_machine(TickCounter { ticks: 0 });
        rt.create_machine(Timer::new(counter).with_max_ticks(max_ticks));
        let outcome = rt.run();
        let ticks = rt
            .machine_ref::<TickCounter>(counter)
            .expect("counter exists")
            .ticks;
        (outcome, ticks)
    }

    #[test]
    fn bounded_timer_halts_and_fires_at_most_max_ticks() {
        let (outcome, ticks) = run_with_timer(3, 10_000);
        assert_eq!(outcome, ExecutionOutcome::Quiescent);
        assert!(ticks <= 3);
    }

    #[test]
    fn unbounded_timer_keeps_execution_alive_until_step_bound() {
        let mut rt = Runtime::new(
            Box::new(RandomScheduler::new(3)),
            RuntimeConfig {
                max_steps: 200,
                ..RuntimeConfig::default()
            },
            3,
        );
        let counter = rt.create_machine(TickCounter { ticks: 0 });
        rt.create_machine(Timer::new(counter));
        assert_eq!(rt.run(), ExecutionOutcome::MaxStepsReached);
    }

    #[test]
    fn custom_tick_event_is_delivered() {
        #[derive(Debug)]
        struct HeartbeatTick;
        struct HeartbeatCounter {
            beats: usize,
        }
        impl Machine for HeartbeatCounter {
            fn handle(&mut self, _ctx: &mut Context<'_>, event: Event) {
                if event.is::<HeartbeatTick>() {
                    self.beats += 1;
                }
            }
        }
        let mut rt = Runtime::new(
            Box::new(RandomScheduler::new(9)),
            RuntimeConfig {
                max_steps: 500,
                ..RuntimeConfig::default()
            },
            9,
        );
        let counter = rt.create_machine(HeartbeatCounter { beats: 0 });
        rt.create_machine(
            Timer::with_event(counter, || Event::new(HeartbeatTick)).with_max_ticks(5),
        );
        rt.run();
        let beats = rt
            .machine_ref::<HeartbeatCounter>(counter)
            .expect("counter exists")
            .beats;
        assert!(beats <= 5);
    }
}
