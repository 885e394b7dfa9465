//! Machines: the concurrently executing actors of the programming model.
//!
//! A machine owns private state and a FIFO mailbox of [`Event`]s. Machines run
//! "concurrently" with each other: under the systematic testing runtime the
//! execution is serialized and the scheduler decides which enabled machine
//! handles its next event, but machine code is written exactly as if it were
//! running concurrently in production.
//!
//! Two styles are supported:
//!
//! * implement [`Machine`] directly — an `handle` method that dispatches on
//!   the received event; or
//! * implement [`StateMachine`] — a declarative style with named states and
//!   per-state handling, closer to P#'s `state`/`OnEvent` syntax. A
//!   `StateMachine` is adapted into a `Machine` by [`StateMachineRunner`].

use std::fmt;

use crate::event::{short_type_name, Event};
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::monitor::AsAny;
use crate::runtime::Context;

/// Identifier of a machine instance within one execution.
///
/// Ids are assigned sequentially in creation order, which makes them
/// deterministic across replays of the same schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(u64);

impl ToJson for MachineId {
    fn to_json_value(&self) -> Json {
        Json::UInt(self.0)
    }
}

impl FromJson for MachineId {
    fn from_json_value(value: &Json) -> Result<Self, JsonError> {
        Ok(MachineId(value.as_u64()?))
    }
}

impl MachineId {
    /// Creates an id from its raw index. Exposed for trace (de)serialization
    /// and for tests; ordinarily ids are produced by the runtime.
    pub fn from_raw(raw: u64) -> Self {
        MachineId(raw)
    }

    /// The raw index of this id.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The id as a dense `usize` index into per-machine tables (machine
    /// slots, the enabled-set position map, lazy mailbox slots). Ids are
    /// assigned sequentially, so this is always in-bounds for tables sized
    /// by the creation count.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An actor with private state that handles one event at a time.
///
/// # Examples
///
/// ```
/// use psharp::prelude::*;
///
/// #[derive(Debug)]
/// struct Ping;
///
/// struct Counter {
///     count: u32,
/// }
///
/// impl Machine for Counter {
///     fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
///         if event.is::<Ping>() {
///             self.count += 1;
///             ctx.assert(self.count < 3, "too many pings");
///         }
///     }
/// }
/// ```
/// Machines are `Send + Sync` so that runtime snapshots (which share machine
/// state copy-on-write via `Arc<dyn Machine>`) can cross the worker threads
/// of the parallel engines. Machine state holding `Rc`/`RefCell` should use
/// `Arc`/`Mutex` instead.
pub trait Machine: AsAny + Send + Sync + 'static {
    /// Invoked once, before the machine handles its first event.
    ///
    /// The default implementation does nothing.
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Handles one event dequeued from the machine's mailbox.
    fn handle(&mut self, ctx: &mut Context<'_>, event: Event);

    /// Invoked when the scheduler injects a crash fault into this machine
    /// (the machine must have been marked
    /// [`crashable`](crate::runtime::Runtime::mark_crashable)). The hook
    /// models the environment *noticing* the failure — a failure detector, a
    /// supervision signal — so it typically notifies a manager or a monitor.
    /// The machine itself is already down: its mailbox has been discarded
    /// and it will not be scheduled again unless restarted.
    ///
    /// The default implementation does nothing (a silent crash).
    fn on_crash(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Invoked when the scheduler restarts this (previously crashed)
    /// machine (the machine must have been marked
    /// [`restartable`](crate::runtime::Runtime::mark_restartable)). The
    /// machine's struct — its "persistent state" — survives the crash; the
    /// hook is where volatile state is reset and recovery messages are sent.
    ///
    /// The default implementation does nothing (recover in place).
    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// The machine's display name, used in traces and bug reports.
    ///
    /// Defaults to the implementing type's short name.
    fn name(&self) -> &str {
        short_type_name::<Self>()
    }

    /// Produces an independent copy of this machine's current state for
    /// [`Runtime::snapshot`](crate::runtime::Runtime::snapshot).
    ///
    /// The default returns `None`, which marks the machine as
    /// non-snapshotable: a runtime containing it cannot be forked and the
    /// engine falls back to straight-line execution. Machines whose state is
    /// `Clone` opt in with a one-liner:
    ///
    /// ```ignore
    /// fn clone_state(&self) -> Option<Box<dyn Machine>> {
    ///     Some(Box::new(self.clone()))
    /// }
    /// ```
    fn clone_state(&self) -> Option<Box<dyn Machine>> {
        None
    }

    /// Copies this machine's current state *into* an existing box, reusing
    /// its allocation when `target` holds the same concrete type. Returns
    /// `false` when the machine is non-snapshotable (`clone_state` would
    /// return `None`), leaving `target` untouched.
    ///
    /// This is the allocation-recycling twin of [`clone_state`]: the
    /// runtime's machine pool hands back retired boxes so copy-on-write
    /// break-offs and pooled restores do not pay a fresh box per clone. The
    /// default forwards to `clone_state` (correct but allocating);
    /// [`impl_machine_snapshot!`](crate::impl_machine_snapshot) generates the
    /// in-place version for `Clone` machines.
    ///
    /// [`clone_state`]: Machine::clone_state
    fn clone_state_into(&self, target: &mut Box<dyn Machine>) -> bool {
        match self.clone_state() {
            Some(fresh) => {
                *target = fresh;
                true
            }
            None => false,
        }
    }
}

/// Implements [`Machine::clone_state`] and [`Machine::clone_state_into`] for
/// a `Clone` machine type. Expands *inside* an `impl Machine for T` block:
///
/// ```ignore
/// impl Machine for Worker {
///     fn handle(&mut self, ctx: &mut Context<'_>, event: Event) { /* … */ }
///     psharp::impl_machine_snapshot!();
/// }
/// ```
///
/// The generated `clone_state_into` downcasts the recycled box and
/// `clone_from`s into it, so a copy-on-write break-off reuses the retired
/// box of the same concrete type instead of allocating a fresh one.
#[macro_export]
macro_rules! impl_machine_snapshot {
    () => {
        fn clone_state(&self) -> Option<Box<dyn $crate::machine::Machine>> {
            Some(Box::new(self.clone()))
        }

        fn clone_state_into(&self, target: &mut Box<dyn $crate::machine::Machine>) -> bool {
            match $crate::monitor::AsAny::as_any_mut(&mut **target).downcast_mut::<Self>() {
                Some(recycled) => {
                    recycled.clone_from(self);
                    true
                }
                None => {
                    *target = Box::new(self.clone());
                    true
                }
            }
        }
    };
}

/// The outcome of handling an event in a [`StateMachine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition<S> {
    /// Remain in the current state.
    Stay,
    /// Move to a new state. The runner records the transition so harness
    /// statistics (the paper's `#ST`) can be derived.
    Goto(S),
    /// Halt this machine; it will not handle further events.
    Halt,
}

/// A declarative machine with named states.
///
/// This mirrors P# machine declarations, where each state registers actions
/// for the events it handles. The current state is tracked by the
/// [`StateMachineRunner`] adapter; handlers receive it explicitly and return a
/// [`Transition`].
pub trait StateMachine: Send + Sync + 'static {
    /// The state space of this machine.
    type State: Copy + Eq + fmt::Debug + Send + Sync + 'static;

    /// The state the machine starts in.
    fn initial_state(&self) -> Self::State;

    /// Invoked once before the first event is handled.
    fn on_start(&mut self, ctx: &mut Context<'_>) -> Transition<Self::State> {
        let _ = ctx;
        Transition::Stay
    }

    /// Handles `event` while in `state`, returning the state transition.
    fn handle_in(
        &mut self,
        state: Self::State,
        ctx: &mut Context<'_>,
        event: Event,
    ) -> Transition<Self::State>;

    /// Invoked when a crash fault is injected (see [`Machine::on_crash`]).
    fn on_crash_in(
        &mut self,
        state: Self::State,
        ctx: &mut Context<'_>,
    ) -> Transition<Self::State> {
        let _ = (state, ctx);
        Transition::Stay
    }

    /// Invoked when the machine is restarted (see [`Machine::on_restart`]).
    fn on_restart_in(
        &mut self,
        state: Self::State,
        ctx: &mut Context<'_>,
    ) -> Transition<Self::State> {
        let _ = (state, ctx);
        Transition::Stay
    }

    /// The machine's display name.
    fn name(&self) -> &str {
        short_type_name::<Self>()
    }

    /// Produces an independent copy of this state machine for
    /// [`Runtime::snapshot`](crate::runtime::Runtime::snapshot); the
    /// [`StateMachineRunner`] adapter forwards its own `clone_state` here,
    /// preserving the current state and transition count.
    ///
    /// The default returns `None` (non-snapshotable). `Clone` state machines
    /// opt in with `Some(self.clone())`.
    fn clone_state(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

/// Adapter that runs a [`StateMachine`] as a [`Machine`], tracking its current
/// state and counting state transitions.
pub struct StateMachineRunner<M: StateMachine> {
    inner: M,
    state: M::State,
    transitions: usize,
}

impl<M: StateMachine> StateMachineRunner<M> {
    /// Wraps a state machine, placing it in its initial state.
    pub fn new(inner: M) -> Self {
        let state = inner.initial_state();
        StateMachineRunner {
            inner,
            state,
            transitions: 0,
        }
    }

    /// The current state.
    pub fn state(&self) -> M::State {
        self.state
    }

    /// The number of state transitions taken so far.
    pub fn transitions(&self) -> usize {
        self.transitions
    }

    /// Borrows the wrapped state machine.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    fn apply(&mut self, ctx: &mut Context<'_>, transition: Transition<M::State>) {
        match transition {
            Transition::Stay => {}
            Transition::Goto(next) => {
                if next != self.state {
                    self.transitions += 1;
                }
                self.state = next;
            }
            Transition::Halt => ctx.halt(),
        }
    }
}

impl<M: StateMachine> Machine for StateMachineRunner<M> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let t = self.inner.on_start(ctx);
        self.apply(ctx, t);
    }

    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        let t = self.inner.handle_in(self.state, ctx, event);
        self.apply(ctx, t);
    }

    fn on_crash(&mut self, ctx: &mut Context<'_>) {
        let t = self.inner.on_crash_in(self.state, ctx);
        self.apply(ctx, t);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        let t = self.inner.on_restart_in(self.state, ctx);
        self.apply(ctx, t);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn clone_state(&self) -> Option<Box<dyn Machine>> {
        let inner = self.inner.clone_state()?;
        Some(Box::new(StateMachineRunner {
            inner,
            state: self.state,
            transitions: self.transitions,
        }))
    }

    fn clone_state_into(&self, target: &mut Box<dyn Machine>) -> bool {
        let Some(inner) = self.inner.clone_state() else {
            return false;
        };
        match AsAny::as_any_mut(&mut **target).downcast_mut::<Self>() {
            Some(recycled) => {
                recycled.inner = inner;
                recycled.state = self.state;
                recycled.transitions = self.transitions;
            }
            None => {
                *target = Box::new(StateMachineRunner {
                    inner,
                    state: self.state,
                    transitions: self.transitions,
                });
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_id_display_and_raw() {
        let id = MachineId::from_raw(4);
        assert_eq!(id.to_string(), "#4");
        assert_eq!(id.raw(), 4);
    }

    #[test]
    fn machine_id_ordering_follows_creation_order() {
        assert!(MachineId::from_raw(1) < MachineId::from_raw(2));
    }

    #[test]
    fn machine_id_json_round_trip() {
        let id = MachineId::from_raw(9);
        let json = id.to_json_value().to_string_compact();
        let back =
            MachineId::from_json_value(&Json::parse(&json).expect("parse")).expect("deserialize");
        assert_eq!(id, back);
    }

    // The StateMachineRunner transition accounting is exercised without a full
    // runtime in the runtime module's tests (a Context is required to call
    // handlers), so here we only check construction invariants.
    struct Trivial;

    impl StateMachine for Trivial {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn handle_in(&mut self, _s: u8, _ctx: &mut Context<'_>, _e: Event) -> Transition<u8> {
            Transition::Goto(1)
        }
    }

    #[test]
    fn runner_starts_in_initial_state() {
        let runner = StateMachineRunner::new(Trivial);
        assert_eq!(runner.state(), 0);
        assert_eq!(runner.transitions(), 0);
        assert_eq!(Machine::name(&runner), "Trivial");
    }

    #[test]
    fn a_generic_machine_keeps_its_type_arguments_in_its_name() {
        struct Holder<T>(T);
        impl<T: Send + Sync + 'static> Machine for Holder<T> {
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        assert_eq!(Holder(3u8).name(), "Holder<u8>");
        let name = Holder(Trivial).name().to_string();
        assert!(
            name.starts_with("Holder<") && name.ends_with("::Trivial>"),
            "{name}"
        );
    }
}
