//! The process panic hook and the panics the runtime catches: a handler
//! panic reported as a `BugKind::Panic` bug never reaches the hook, every
//! other panic still does.
//!
//! One `#[test]` in a file of its own: the hook is process-global, and no
//! other test may share it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use psharp::prelude::*;

#[derive(Debug)]
struct SetFlag(bool);

#[derive(Debug)]
struct Noise;

/// Panics — it does not `ctx.assert` — when cleared before it was ever set:
/// an order-dependent bug behind enough noise that shrinking runs many
/// reproducing (re-panicking) candidates.
struct Flag {
    value: bool,
}
impl Machine for Flag {
    fn handle(&mut self, _ctx: &mut Context<'_>, event: Event) {
        if let Some(set) = event.downcast_ref::<SetFlag>() {
            assert!(set.0 || self.value, "cleared a flag that was never set");
            self.value = set.0;
        }
    }
}

struct Writer {
    flag: MachineId,
    value: bool,
    delay: usize,
}
impl Machine for Writer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for _ in 0..4 {
            let _ = ctx.random_bool();
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
}

fn panicking_setup(rt: &mut Runtime) {
    let flag = rt.create_machine(Flag { value: false });
    for (value, delay) in [(true, 1), (false, 3)] {
        rt.create_machine(Writer { flag, value, delay });
    }
}

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);
static LAST_MESSAGE: Mutex<String> = Mutex::new(String::new());

fn last_message() -> String {
    LAST_MESSAGE.lock().expect("the hook never panics").clone()
}

#[test]
fn a_caught_handler_panic_is_silent_and_every_other_panic_is_not() {
    // Installed before any runtime steps: the runtime's hook delegates to it.
    std::panic::set_hook(Box::new(|info| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        *LAST_MESSAGE.lock().expect("the hook never panics") = message;
    }));

    for shrink in [false, true] {
        let config = TestConfig::new()
            .with_iterations(500)
            .with_seed(3)
            .with_shrink(shrink);
        let reports = [
            TestEngine::new(config.clone()).run(panicking_setup),
            TestEngine::new(config.with_workers(2)).run(panicking_setup),
        ];
        for report in reports {
            let found = report.bug.expect("the hunt finds the panic");
            assert_eq!(found.bug.kind, BugKind::Panic);
            assert!(
                found.bug.message.starts_with(
                    "machine 'Flag' panicked while handling 'SetFlag': cleared a flag"
                ),
                "{}",
                found.bug.message
            );
            if shrink {
                let pass = found.shrink.as_ref().expect("shrink was asked for");
                assert!(pass.candidates_reproduced > 0, "candidates re-panicked");
            }
        }
    }
    // Cloned out first: a failing assert runs the hook, which takes the lock.
    let printed = last_message();
    assert_eq!(
        HOOK_CALLS.load(Ordering::SeqCst),
        0,
        "a panic the runtime catches reaches no hook: {printed:?}"
    );

    // A panic outside a handler is not the runtime's to hide.
    let payload = std::panic::catch_unwind(|| {
        TestEngine::new(TestConfig::new().with_iterations(1))
            .run(|_rt: &mut Runtime| panic!("the harness could not be built"))
    })
    .expect_err("the setup's panic reaches the caller");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"the harness could not be built")
    );
    assert_eq!(HOOK_CALLS.load(Ordering::SeqCst), 1);
    assert_eq!(last_message(), "the harness could not be built");
}
