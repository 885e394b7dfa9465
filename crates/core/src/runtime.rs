//! The serialized execution core.
//!
//! A [`Runtime`] owns every machine, monitor and mailbox of one execution of
//! the system-under-test. Execution proceeds in *steps*: at each step the
//! scheduler picks one enabled machine, which dequeues and handles exactly one
//! event (or runs its `on_start` handler). All nondeterminism — the schedule
//! and every `random_*` choice — is resolved by the scheduler and recorded in
//! the [`Trace`], which makes executions deterministic and replayable.
//!
//! An execution ends when:
//!
//! * a safety violation, liveness violation, panic or unhandled-event bug is
//!   detected;
//! * no machine is enabled (quiescence); or
//! * the configured step bound is reached — the bounded approximation of an
//!   "infinite" execution used for liveness checking (§2.5 of the paper); or
//! * a cancellation token installed by the parallel engine fires, aborting
//!   the execution mid-step.
//!
//! # Hot-path discipline
//!
//! The step loop is the throughput product of systematic testing (the paper's
//! iteration counts only work because executions are cheap), so it is kept
//! allocation-free in the steady state and its per-step cost is a function of
//! the *active* machine count, not the created machine count: the enabled set
//! is an incrementally maintained [`EnabledSet`] index updated at every
//! enablement edge (enqueue, dequeue, halt, crash, restart, creation) instead
//! of being recomputed by an O(total) slot scan, mailboxes are materialized
//! lazily on first send from a recycled pool ([`LazyMailbox`]), and
//! machine/event names are recorded in the trace as interned [`NameId`]s —
//! strings are materialized only when a trace is rendered or a bug is
//! reported.

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};

use crate::enabled::EnabledSet;
use crate::error::{Bug, BugKind, ReplayError};
use crate::event::{strip_module_path, Event};
use crate::fault::{Fault, FaultPlan};
use crate::machine::{Machine, MachineId, StateMachine, StateMachineRunner};
use crate::mailbox::{LazyMailbox, Mailbox};
use crate::monitor::{Monitor, MonitorContext, Temperature};
use crate::scheduler::{Scheduler, StepFootprint};
use crate::trace::{Decision, NameId, Trace, TraceMode, TraceStep};

/// How an execution of the system-under-test ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutionOutcome {
    /// A property violation was found. The bug is moved into the outcome;
    /// [`Runtime::bug`] returns `None` once `run` has reported it.
    BugFound(Bug),
    /// No machine was enabled any more and no property was violated.
    Quiescent,
    /// The step bound was reached without a violation.
    MaxStepsReached,
    /// The execution was abandoned between two steps; its partial results
    /// must be discarded. Two causes: the parallel engine's step-level
    /// cancellation token fired, or a shrink candidate recorded as
    /// many decisions as the sequence it had to beat with no bug pending
    /// (see the [`shrink`](crate::shrink) module header).
    Cancelled,
}

/// Cooperative cancellation handle polled by the runtime once per step.
///
/// The parallel engine publishes the lowest iteration index known to contain
/// a bug in a shared atomic; a token cancels its execution as soon as that
/// bound drops to (or below) the execution's own iteration index. Executions
/// at iterations *below* the bound are never cancelled — they must complete
/// so the engine's first-bug selection stays deterministic — while doomed
/// executions above it stop at the next step instead of wasting up to
/// `max_steps` of work.
#[derive(Debug, Clone)]
pub(crate) struct CancelToken {
    bound: Arc<AtomicU64>,
    iteration: u64,
}

impl CancelToken {
    /// Creates a token for the execution at `iteration`, cancelled once
    /// `bound` drops to `iteration` or below.
    pub(crate) fn new(bound: Arc<AtomicU64>, iteration: u64) -> Self {
        CancelToken { bound, iteration }
    }

    /// Returns `true` when the execution should be abandoned.
    #[inline]
    fn is_cancelled(&self) -> bool {
        self.bound.load(Ordering::Relaxed) <= self.iteration
    }
}

/// What [`Runtime::run`] polls once per step to abandon a doomed execution.
enum Cancel {
    /// The parallel engine's bug bound dropped to this execution's iteration.
    Token(CancelToken),
    /// A shrink candidate that has recorded this many decisions can no
    /// longer be shorter than the sequence it is trying to beat.
    DecisionCap(usize),
}

/// Execution parameters of a single run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Maximum number of machine steps before the execution is treated as an
    /// "infinite" execution and liveness is checked.
    pub max_steps: usize,
    /// Whether to also check liveness monitors when the system quiesces
    /// (no machine enabled). Enabled by default.
    pub check_liveness_at_quiescence: bool,
    /// Whether panics inside machine handlers are caught and reported as
    /// [`BugKind::Panic`] bugs (default) or propagated.
    pub catch_panics: bool,
    /// Whether the trace records the human-facing annotated schedule
    /// ([`TraceMode::Full`], the default) or the decision stream alone. The
    /// replay-bearing decision stream is recorded in full either way.
    pub trace_mode: TraceMode,
    /// The execution's fault budget ([`FaultPlan::none`] by default): how
    /// many crashes, restarts, message drops and message duplications the
    /// scheduler may inject into machines the harness marked
    /// [`crashable`](Runtime::mark_crashable) /
    /// [`restartable`](Runtime::mark_restartable) /
    /// [`lossy`](Runtime::mark_lossy). Injected faults are recorded in the
    /// decision stream, so they replay and shrink like every other
    /// nondeterministic choice.
    pub faults: FaultPlan,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            max_steps: 5_000,
            check_liveness_at_quiescence: true,
            catch_panics: true,
            trace_mode: TraceMode::Full,
            faults: FaultPlan::none(),
        }
    }
}

/// How a slot holds its machine state.
///
/// Slots start out owning their machine. Taking a snapshot captures every
/// machine behind an [`Arc`] that the slot keeps as its
/// [`origin`](MachineSlot::origin) and marks the slot `Shared`, so an
/// untouched machine costs a restore nothing and the *next* snapshot a
/// pointer bump. The first mutation — a step, a fault hook — breaks the
/// sharing off (copy-on-write): the origin's state is copied into the slot's
/// own [`spare`](MachineSlot::spare) box, which becomes `Owned`. A restore
/// parks that box as the spare again. So a slot forked over and over
/// reuses one box and one origin, and neither a refcount nor the machine
/// pool is touched per fork.
enum MachineCell {
    /// Transiently empty while the machine's handler or fault hook runs
    /// (the box is moved out so the handler can borrow the runtime).
    Absent,
    /// The slot owns its machine state and may mutate it in place.
    Owned(Box<dyn Machine>),
    /// The slot's state is its `origin`, captured by a [`RuntimeSnapshot`];
    /// copy-on-write breaks it off before any mutation.
    Shared,
}

/// Retired machine boxes keyed by concrete type — the machine-state
/// extension of the `mailbox_pool` pattern. Only the slow paths use it:
/// `create_machine` after a [`Runtime::reset`], and a break-off whose slot
/// has no spare of the origin's concrete type (a slot first filled by a full
/// restore, or reused for another machine type). A fork's restore and
/// break-off use the slot's own spare box instead.
type MachinePool = HashMap<std::any::TypeId, Vec<Box<dyn Machine>>>;

#[cfg(test)]
thread_local! {
    /// Lookups into a [`MachinePool`] made on this thread: the exact gate
    /// that a fork's restore and break-off never hash a type.
    static POOL_LOOKUPS: Cell<u64> = const { Cell::new(0) };
}

/// Dense dirty-slot index mirroring [`EnabledSet`]'s list + bitmap shape:
/// `mark` is O(1) amortized, `clear` is O(dirty), and iteration visits only
/// the machines actually touched since the last fork point.
#[derive(Default)]
struct DirtySet {
    /// Dirty slot indices in first-touch order (deduplicated via `member`).
    list: Vec<u32>,
    /// `member[i]` iff `i` is in `list`.
    member: Vec<bool>,
}

impl DirtySet {
    #[inline]
    fn mark(&mut self, index: usize) {
        if self.member.len() <= index {
            self.member.resize(index + 1, false);
        }
        if !self.member[index] {
            self.member[index] = true;
            self.list.push(index as u32);
        }
    }

    fn clear(&mut self) {
        for &index in &self.list {
            self.member[index as usize] = false;
        }
        self.list.clear();
    }
}

/// A machine slot's name and lifecycle flags: everything of a slot besides
/// its machine state and mailbox, copied whole into and out of a
/// [`SnapshotSlot`].
#[derive(Clone, Copy)]
struct SlotFlags {
    /// The machine's display name, interned in the trace's name table.
    name: NameId,
    started: bool,
    halted: bool,
    /// Whether the scheduler may inject a crash fault into this machine.
    crashable: bool,
    /// Whether the scheduler may restart this machine after a crash.
    restartable: bool,
    /// Whether the channel *into* this machine is lossy: the scheduler may
    /// drop (and, for replicable events, duplicate) queued messages.
    lossy: bool,
    /// Whether the machine is currently down due to an injected crash.
    crashed: bool,
}

struct MachineSlot {
    machine: MachineCell,
    /// The snapshot state this slot aliases while `Shared`; `None` until the
    /// machine is first captured. Kept across a break-off, so a restore to
    /// the same snapshot re-shares the slot without a refcount write. A
    /// restore re-points it only when it aliases another snapshot's state,
    /// as after a child snapshot.
    origin: Option<Arc<dyn Machine>>,
    /// The slot's own retired box while `Shared`: a break-off copies
    /// `origin` into it, and a restore parks the owned box here again. A
    /// slot holds at most one box, owned or spare.
    spare: Option<Box<dyn Machine>>,
    /// Lazily materialized on first send; machines that never receive a
    /// message never bind a queue.
    mailbox: LazyMailbox,
    flags: SlotFlags,
}

impl MachineSlot {
    /// Borrows the machine state for inspection, whichever way it is held.
    fn machine(&self) -> Option<&dyn Machine> {
        match &self.machine {
            MachineCell::Absent => None,
            MachineCell::Owned(machine) => Some(&**machine),
            MachineCell::Shared => self.origin.as_deref(),
        }
    }

    /// Makes the slot share `state`: an owned box is parked as the spare,
    /// and `origin` is re-pointed only when it aliases something else.
    fn share(&mut self, state: &Arc<dyn Machine>) {
        if let MachineCell::Owned(live) = std::mem::replace(&mut self.machine, MachineCell::Shared)
        {
            debug_assert!(self.spare.is_none(), "a slot holds one box");
            self.spare = Some(live);
        }
        if !self
            .origin
            .as_ref()
            .is_some_and(|origin| Arc::ptr_eq(origin, state))
        {
            self.origin = Some(Arc::clone(state));
        }
    }

    /// Rewinds the slot to its copy in a snapshot: the state re-shares the
    /// captured one, the queue is copied, the flags are taken over.
    fn rewind(&mut self, source: &SnapshotSlot, mailbox_pool: &mut Vec<Mailbox>) {
        self.share(&source.machine);
        match source.mailbox.as_ref() {
            None => self.mailbox.release_into(mailbox_pool),
            Some(queued) => {
                let copied = queued.clone_into(self.mailbox.materialize_from(mailbox_pool));
                debug_assert!(
                    copied,
                    "snapshotted mailboxes hold replicable events by construction"
                );
            }
        }
        self.flags = source.flags;
    }

    fn is_enabled(&self) -> bool {
        let flags = &self.flags;
        !flags.halted && !flags.crashed && (!flags.started || !self.mailbox.is_empty())
    }

    /// Whether `fault`, aimed at this slot, may be injected under the
    /// remaining `budget`: the one statement of fault applicability, shared
    /// by the probe's offer list and [`Runtime::inject_fault`].
    fn admits(&self, fault: Fault, budget: &FaultPlan) -> bool {
        let flags = &self.flags;
        if flags.halted {
            return false;
        }
        match fault {
            Fault::Crash(_) => flags.crashable && !flags.crashed && budget.crashes > 0,
            Fault::Restart(_) => flags.restartable && flags.crashed && budget.restarts > 0,
            Fault::Drop(_) => {
                flags.lossy && !flags.crashed && budget.drops > 0 && !self.mailbox.is_empty()
            }
            Fault::Duplicate(_) => {
                flags.lossy
                    && !flags.crashed
                    && budget.duplicates > 0
                    && self
                        .mailbox
                        .as_ref()
                        .is_some_and(Mailbox::front_can_duplicate)
            }
        }
    }
}

/// Which machine fault hook [`Runtime::run_fault_hook`] invokes.
#[derive(Clone, Copy)]
enum FaultHook {
    Crash,
    Restart,
}

struct MonitorSlot {
    monitor: Option<Box<dyn Monitor>>,
    /// Shared so notifying the monitor never copies the name.
    name: Arc<str>,
}

/// One execution of the system-under-test: machines, monitors, scheduler and
/// the recorded trace.
pub struct Runtime {
    slots: Vec<MachineSlot>,
    monitors: Vec<MonitorSlot>,
    monitor_index: HashMap<std::any::TypeId, usize>,
    scheduler: Box<dyn Scheduler>,
    config: RuntimeConfig,
    trace: Trace,
    bug: Option<Bug>,
    steps: usize,
    /// Scheduler answers [`Runtime::run`] replaced (a pick outside the
    /// enabled set) or refused (a fault it had not offered); see
    /// [`Runtime::corrected_picks`].
    corrected_picks: u64,
    /// Incrementally maintained enabled-machine index: updated at every
    /// enablement edge, so the step loop never rescans the slots and
    /// membership checks are O(1). Storage is retained across
    /// [`Runtime::reset`] and [`Runtime::restore_from`].
    enabled: EnabledSet,
    /// Remaining fault budget of this execution (decremented as faults are
    /// injected).
    faults_remaining: FaultPlan,
    /// Reused across steps so offering fault candidates never allocates in
    /// the steady state.
    fault_buf: Vec<Fault>,
    /// Indices of machines with any fault marking (crashable / restartable /
    /// lossy), maintained incrementally by the `mark_*` calls and kept in
    /// ascending order so candidate offers stay in machine-id order. The
    /// fault probe iterates this list instead of scanning every slot.
    fault_targets: Vec<u32>,
    /// Number of machines marked crashable (restartable implies crashable).
    marked_crashable: usize,
    /// Number of machines whose inbound channel is marked lossy.
    marked_lossy: usize,
    /// Cleared mailboxes recovered by [`Runtime::reset`]; `create_machine`
    /// pops from here before allocating, so a pooled runtime re-creates its
    /// machines without re-growing their queues.
    mailbox_pool: Vec<Mailbox>,
    /// Retired machine boxes recycled by `create_machine` and by break-offs
    /// that have no fitting spare; fed by the slots a reset or a restore
    /// drops, and by spares of the wrong type.
    machine_pool: MachinePool,
    /// The id of the [`RuntimeSnapshot`] this runtime's dirty tracking is
    /// relative to: while `Some(id)`, every mutated machine slot is recorded
    /// in `dirty`, and `restore_from` that very snapshot re-syncs only the
    /// dirty slots. `None` means no snapshot origin (dirty tracking off;
    /// restores are full).
    cow_origin: Option<u64>,
    /// Machine slots mutated since `cow_origin` was established (stepped,
    /// sent-to, faulted, marked). Slots *not* in this set are byte-identical
    /// to the origin snapshot, which is what makes the O(dirty) restore
    /// sound.
    dirty: DirtySet,
    /// Per-monitor dirty flags (parallel to `monitors`): set when a monitor
    /// observes a notification, so a restore re-clones only notified
    /// monitors.
    monitor_dirty: Vec<bool>,
    /// Whether any `mark_*` call changed the fault-target list or counters
    /// since `cow_origin`; a restore then re-copies `fault_targets`.
    fault_marks_changed: bool,
    cancel: Option<Cancel>,
    /// Side effects of the step currently executing (or, between steps, of
    /// the last executed step). Rearmed in place per step so independence
    /// tracking never allocates in the steady state; fed to
    /// [`Scheduler::note_footprint`] after every step.
    footprint: StepFootprint,
}

impl Runtime {
    /// Creates a runtime driven by the given scheduler.
    pub fn new(scheduler: Box<dyn Scheduler>, config: RuntimeConfig, seed: u64) -> Self {
        let trace = Trace::with_mode(seed, config.trace_mode);
        let faults_remaining = config.faults;
        Runtime {
            slots: Vec::new(),
            monitors: Vec::new(),
            monitor_index: HashMap::new(),
            scheduler,
            config,
            trace,
            bug: None,
            steps: 0,
            corrected_picks: 0,
            enabled: EnabledSet::new(),
            faults_remaining,
            fault_buf: Vec::new(),
            fault_targets: Vec::new(),
            marked_crashable: 0,
            marked_lossy: 0,
            mailbox_pool: Vec::new(),
            machine_pool: HashMap::new(),
            cow_origin: None,
            dirty: DirtySet::default(),
            monitor_dirty: Vec::new(),
            fault_marks_changed: false,
            cancel: None,
            footprint: StepFootprint::new(MachineId::from_raw(0)),
        }
    }

    /// Retires a machine box into the pool for recycling by
    /// `create_machine` and by break-offs without a fitting spare.
    fn retire_machine(pool: &mut MachinePool, machine: Box<dyn Machine>) {
        #[cfg(test)]
        POOL_LOOKUPS.set(POOL_LOOKUPS.get() + 1);
        let type_id = (*machine).as_any().type_id();
        pool.entry(type_id).or_default().push(machine);
    }

    /// Retires a dropped slot: its queue goes back to the mailbox pool, and
    /// its boxes, owned or spare, to the machine pool.
    fn retire_slot(slot: MachineSlot, mailbox_pool: &mut Vec<Mailbox>, pool: &mut MachinePool) {
        let MachineSlot {
            machine,
            spare,
            mut mailbox,
            ..
        } = slot;
        mailbox.release_into(mailbox_pool);
        if let MachineCell::Owned(machine) = machine {
            Self::retire_machine(pool, machine);
        }
        if let Some(spare) = spare {
            Self::retire_machine(pool, spare);
        }
    }

    /// Materializes an owned copy of a slot's shared `origin` (the
    /// copy-on-write break-off) into the slot's `spare` box when it holds the
    /// same concrete type. Otherwise the spare is retired, and a pooled box of
    /// the origin's type is recycled when the pool has one.
    fn break_off(
        pool: &mut MachinePool,
        origin: &dyn Machine,
        spare: Option<Box<dyn Machine>>,
    ) -> Box<dyn Machine> {
        let type_id = origin.as_any().type_id();
        if let Some(mut spare) = spare {
            if (*spare).as_any().type_id() == type_id && origin.clone_state_into(&mut spare) {
                return spare;
            }
            Self::retire_machine(pool, spare);
        }
        #[cfg(test)]
        POOL_LOOKUPS.set(POOL_LOOKUPS.get() + 1);
        if let Some(boxes) = pool.get_mut(&type_id) {
            if let Some(mut recycled) = boxes.pop() {
                if origin.clone_state_into(&mut recycled) {
                    return recycled;
                }
                boxes.push(recycled);
            }
        }
        origin
            .clone_state()
            .expect("shared machine state stays clonable (it was cloned to build the snapshot)")
    }

    /// Marks a machine slot dirty relative to the current snapshot origin
    /// (no-op while dirty tracking is off).
    #[inline]
    fn mark_dirty(&mut self, id: MachineId) {
        if self.cow_origin.is_some() {
            self.dirty.mark(id.index());
        }
    }

    /// Resets the runtime for a fresh execution while keeping every
    /// allocation it has grown: machine slots are drained with their
    /// (cleared) mailboxes recycled into a pool, monitors and the interned
    /// name table are cleared in place, and the trace, enabled-set and
    /// fault-candidate buffers keep their capacity.
    ///
    /// Engines pool one runtime per worker and call this between iterations
    /// instead of constructing a new [`Runtime`], so the steady-state cost of
    /// an iteration is the harness's own work, not re-allocating the
    /// execution's bookkeeping. A reset runtime is indistinguishable from a
    /// fresh one: the name table restarts empty (machine names re-intern to
    /// the same [`NameId`]s in creation order) and all fault markings and
    /// counters are cleared, so pooling never leaks state across iterations.
    pub fn reset(&mut self, scheduler: Box<dyn Scheduler>, config: RuntimeConfig, seed: u64) {
        let Runtime {
            slots,
            mailbox_pool,
            machine_pool,
            ..
        } = self;
        for slot in slots.drain(..) {
            Self::retire_slot(slot, mailbox_pool, machine_pool);
        }
        self.monitors.clear();
        self.monitor_index.clear();
        self.scheduler = scheduler;
        self.trace.reset(seed, config.trace_mode);
        self.faults_remaining = config.faults;
        self.config = config;
        self.bug = None;
        self.steps = 0;
        self.corrected_picks = 0;
        self.enabled.clear();
        self.fault_buf.clear();
        self.fault_targets.clear();
        self.marked_crashable = 0;
        self.marked_lossy = 0;
        self.cow_origin = None;
        self.dirty.clear();
        self.monitor_dirty.clear();
        self.fault_marks_changed = false;
        self.cancel = None;
        self.footprint.rearm(MachineId::from_raw(0));
    }

    /// Installs a cancellation token; [`Runtime::run`] polls it once per step
    /// and returns [`ExecutionOutcome::Cancelled`] as soon as it fires.
    pub(crate) fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(Cancel::Token(token));
    }

    /// Makes [`Runtime::run`] return [`ExecutionOutcome::Cancelled`] at the
    /// first step boundary where `cap` decisions are recorded and no bug is
    /// pending. Shares the per-step poll (and the slot) of the cancellation
    /// token: a shrink candidate runs on one thread and never carries both.
    pub(crate) fn cancel_at_decisions(&mut self, cap: usize) {
        self.cancel = Some(Cancel::DecisionCap(cap));
    }

    /// Creates a machine and returns its id. The machine's `on_start` runs
    /// when the scheduler first picks it.
    pub fn create_machine<M: Machine>(&mut self, machine: M) -> MachineId {
        let id = MachineId::from_raw(self.slots.len() as u64);
        let name = self.trace.intern(machine.name());
        // Recycle a retired box of the same concrete type when the pool has
        // one: the fresh machine moves into the old allocation in place.
        #[cfg(test)]
        POOL_LOOKUPS.set(POOL_LOOKUPS.get() + 1);
        let boxed: Box<dyn Machine> = match self
            .machine_pool
            .get_mut(&std::any::TypeId::of::<M>())
            .and_then(Vec::pop)
        {
            Some(mut recycled) => match (*recycled).as_any_mut().downcast_mut::<M>() {
                Some(state) => {
                    *state = machine;
                    recycled
                }
                None => Box::new(machine),
            },
            None => Box::new(machine),
        };
        self.slots.push(MachineSlot {
            machine: MachineCell::Owned(boxed),
            origin: None,
            spare: None,
            // No queue until the first send: at mega-scale most machines
            // never receive a message, so binding a queue eagerly would
            // waste both the allocation and the recycled-pool inventory.
            mailbox: LazyMailbox::vacant(),
            flags: SlotFlags {
                name,
                started: false,
                halted: false,
                crashable: false,
                restartable: false,
                lossy: false,
                crashed: false,
            },
        });
        // A fresh machine is enabled (its `on_start` is pending); ids are
        // assigned in ascending order, so this is the index's O(1) append.
        self.enabled.insert(id);
        id
    }

    /// Marks a machine as *crashable*: the scheduler may inject a
    /// [`Fault::Crash`] into it, within the configured
    /// [`RuntimeConfig::faults`] budget. Without a fault budget the marking
    /// is inert.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not created by this runtime.
    pub fn mark_crashable(&mut self, id: MachineId) {
        let newly_marked = {
            let slot = self.slot_mut(id);
            let newly_marked = !slot.flags.crashable;
            slot.flags.crashable = true;
            newly_marked
        };
        if newly_marked {
            self.marked_crashable += 1;
        }
        // Markings live in the slot and the fault-target list; both must be
        // rolled back by an O(dirty) restore.
        self.mark_dirty(id);
        self.fault_marks_changed = true;
        self.note_fault_target(id);
    }

    /// Marks a machine as *restartable* (implies crashable): after an
    /// injected crash, the scheduler may also inject a [`Fault::Restart`],
    /// re-enabling the machine through its
    /// [`Machine::on_restart`] hook.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not created by this runtime.
    pub fn mark_restartable(&mut self, id: MachineId) {
        // mark_crashable records the dirty mark and the fault-marks edge.
        self.mark_crashable(id);
        self.slot_mut(id).flags.restartable = true;
    }

    /// Marks the channel *into* a machine as *lossy*: the scheduler may drop
    /// queued messages ([`Fault::Drop`]) and re-deliver copies of
    /// [`Event::replicable`] messages ([`Fault::Duplicate`]), within the
    /// configured budget.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not created by this runtime.
    pub fn mark_lossy(&mut self, id: MachineId) {
        let newly_marked = {
            let slot = self.slot_mut(id);
            let newly_marked = !slot.flags.lossy;
            slot.flags.lossy = true;
            newly_marked
        };
        if newly_marked {
            self.marked_lossy += 1;
        }
        self.mark_dirty(id);
        self.fault_marks_changed = true;
        self.note_fault_target(id);
    }

    /// Adds a machine to the fault-target list, keeping it sorted so the
    /// candidate offer order stays machine-id order (replay depends on it).
    /// Machines are usually marked right after creation, in id order, so the
    /// common case is an O(1) push at the end.
    ///
    /// Idempotent: a machine carrying several markings (e.g. marked crashable
    /// *and* lossy, in either order) is listed exactly once — a duplicate
    /// entry would make the fault probe offer the same candidates twice,
    /// skewing the scheduler's pick distribution and diverging replay.
    fn note_fault_target(&mut self, id: MachineId) {
        let index = id.raw() as u32;
        match self.fault_targets.last() {
            Some(&last) if last == index => {}
            Some(&last) if last > index => {
                if let Err(position) = self.fault_targets.binary_search(&index) {
                    self.fault_targets.insert(position, index);
                }
            }
            _ => self.fault_targets.push(index),
        }
    }

    /// Number of distinct machines carrying any fault marking (crashable,
    /// restartable or lossy). A machine with several markings counts once.
    pub fn fault_target_count(&self) -> usize {
        self.fault_targets.len()
    }

    /// Returns `true` when the given machine is currently down due to an
    /// injected crash fault.
    pub fn is_crashed(&self, id: MachineId) -> bool {
        self.slots
            .get(id.raw() as usize)
            .map(|s| s.flags.crashed)
            .unwrap_or(false)
    }

    fn slot_mut(&mut self, id: MachineId) -> &mut MachineSlot {
        self.slots
            .get_mut(id.raw() as usize)
            .expect("machine id must belong to this runtime")
    }

    /// Creates a machine from a declarative [`StateMachine`].
    pub fn create_state_machine<M: StateMachine>(&mut self, machine: M) -> MachineId {
        self.create_machine(StateMachineRunner::new(machine))
    }

    /// Registers a monitor. At most one monitor of each concrete type can be
    /// registered; machines notify it by type via
    /// [`Context::notify_monitor`].
    ///
    /// # Panics
    ///
    /// Panics if a monitor of the same type is already registered.
    pub fn add_monitor<M: Monitor>(&mut self, monitor: M) {
        let type_id = std::any::TypeId::of::<M>();
        assert!(
            !self.monitor_index.contains_key(&type_id),
            "monitor type already registered"
        );
        let name: Arc<str> = Arc::from(monitor.name());
        self.monitor_index.insert(type_id, self.monitors.len());
        self.monitors.push(MonitorSlot {
            monitor: Some(Box::new(monitor)),
            name,
        });
        // Kept parallel to `monitors` so notification marking can index it.
        self.monitor_dirty.push(false);
    }

    /// Sends an event to a machine from outside the system (the test
    /// harness). Events sent to halted or crashed machines are dropped, like
    /// a network delivering to a dead node.
    ///
    /// # Panics
    ///
    /// Panics if `target` was not created by this runtime.
    pub fn send(&mut self, target: MachineId, event: Event) {
        let slot = self
            .slots
            .get_mut(target.index())
            .expect("send target must be a machine created by this runtime");
        if !slot.flags.halted && !slot.flags.crashed {
            slot.mailbox
                .materialize_from(&mut self.mailbox_pool)
                .enqueue(event);
            // Enqueue is an enablement edge: a started machine with a
            // previously empty mailbox becomes runnable. O(1) no-op when the
            // target is already in the set.
            self.enabled.insert(target);
            // The queue diverged from the snapshot's copy (sends to halted /
            // crashed machines are dropped and leave the slot clean).
            self.mark_dirty(target);
        }
    }

    /// Notifies a registered monitor from outside the system.
    pub fn notify_monitor<M: Monitor>(&mut self, event: Event) {
        let step = self.steps;
        self.deliver_to_monitor::<M>(&event, step);
    }

    /// Runs the execution to completion and returns how it ended.
    ///
    /// A detected violation is moved into the returned
    /// [`ExecutionOutcome::BugFound`]; after that, [`Runtime::bug`] returns
    /// `None`.
    ///
    /// # Liveness is judged only under a fair schedule
    ///
    /// A monitor still hot at the step bound is the paper's bounded-horizon
    /// approximation of "hot forever". That inference holds only when the
    /// schedule is fair: a starvation-prone strategy (PCT, delay-bounding,
    /// the probabilistic walk, sleep-set, DPOR — they report a
    /// [`Scheduler::unfair_prefix_len`]) can leave a backlog undrained at the
    /// bound that a fair schedule would have drained. So the bound verdict is
    /// taken only when `unfair_prefix_len()` is `None` (random, round-robin,
    /// strict replay); under any other strategy the execution ends
    /// [`ExecutionOutcome::MaxStepsReached`] without one. Safety violations
    /// and the liveness check at quiescence — where no monitor can cool
    /// again — apply under every strategy.
    pub fn run(&mut self) -> ExecutionOutcome {
        loop {
            if self.bug.is_some() {
                return ExecutionOutcome::BugFound(self.take_bug());
            }
            if let Some(cancel) = &self.cancel {
                let fired = match cancel {
                    Cancel::Token(token) => token.is_cancelled(),
                    Cancel::DecisionCap(cap) => self.trace.decision_count() >= *cap,
                };
                if fired {
                    return ExecutionOutcome::Cancelled;
                }
            }
            if self.steps >= self.config.max_steps {
                if self.scheduler.unfair_prefix_len().is_none() {
                    self.check_liveness();
                }
                return match self.bug.is_some() {
                    true => ExecutionOutcome::BugFound(self.take_bug()),
                    false => ExecutionOutcome::MaxStepsReached,
                };
            }
            // Fault injection point: while budget remains, offer the
            // applicable faults to the scheduler. An injected fault is
            // recorded as a decision and does not consume a machine step;
            // the loop re-evaluates so the schedule sees the post-fault
            // enabled set. `fault_probe_applicable` is the fast path: runs
            // with no remaining budget — or a budget no marked machine can
            // absorb (e.g. a crash budget with nothing marked crashable) —
            // skip the candidate collection and scheduler probe entirely.
            if self.fault_probe_applicable() {
                self.collect_fault_candidates();
                if !self.fault_buf.is_empty() {
                    if let Some(fault) = self.scheduler.next_fault(&self.fault_buf, self.steps) {
                        if self.fault_buf.contains(&fault) {
                            self.apply_fault(fault);
                            continue;
                        }
                        // Defensive: a misbehaving scheduler must not inject
                        // a fault the runtime did not offer. Refused, and
                        // counted, so the slip is visible.
                        self.corrected_picks += 1;
                    }
                }
            }
            if self.enabled.is_empty() {
                if self.config.check_liveness_at_quiescence {
                    self.check_liveness();
                }
                return match self.bug.is_some() {
                    true => ExecutionOutcome::BugFound(self.take_bug()),
                    false => ExecutionOutcome::Quiescent,
                };
            }
            let chosen = self
                .scheduler
                .next_machine(self.enabled.as_slice(), self.steps);
            let chosen = if self.enabled.contains(chosen) {
                chosen
            } else {
                // Defensive: a misbehaving scheduler must not wedge the run.
                // O(1) membership via the index; the fallback is the lowest
                // enabled id (the sorted list's head), deterministically —
                // and counted, so the slip is visible.
                self.corrected_picks += 1;
                self.enabled.as_slice()[0]
            };
            self.trace.push_decision(Decision::Schedule(chosen));
            self.step_machine(chosen);
            self.steps += 1;
            self.scheduler.note_footprint(&self.footprint);
        }
    }

    fn take_bug(&mut self) -> Bug {
        self.bug.take().expect("bug is present when taken")
    }

    /// Re-syncs one machine's membership in the enabled index with its
    /// slot's actual [`MachineSlot::is_enabled`] state. Called after every
    /// point that may flip enablement without going through
    /// [`Runtime::send`] / [`Runtime::create_machine`]: the end of a step
    /// (dequeue, halt, start transition) and fault application.
    #[inline]
    fn sync_enabled(&mut self, id: MachineId) {
        if self.slots[id.index()].is_enabled() {
            self.enabled.insert(id);
        } else {
            self.enabled.remove(id);
        }
    }

    fn step_machine(&mut self, id: MachineId) {
        self.footprint.rearm(id);
        // A step mutates the machine (handler), its mailbox (dequeue) and its
        // flags (start / halt): dirty before anything else happens.
        self.mark_dirty(id);
        let index = id.index();
        let mut machine = self.take_machine(index);
        let (event, name) = {
            let slot = &mut self.slots[index];
            if !slot.flags.started {
                slot.flags.started = true;
                (None, slot.flags.name)
            } else {
                let event = slot
                    .mailbox
                    .as_mut()
                    .expect("enabled started machine has a bound mailbox")
                    .dequeue()
                    .expect("enabled machine has an event");
                (Some(event), slot.flags.name)
            }
        };
        // The handler consumes the event; its type name is a copy of a
        // static. It is shortened (and hashed into the name table) only by
        // a reader: a trace that keeps the step, or a panic message. A start
        // step has no event.
        let event_type = event.as_ref().map(Event::type_name);
        let event_name = || event_type.map_or("start", strip_module_path);
        match self.trace.mode() {
            TraceMode::Full => {
                let event = self.trace.intern(event_name());
                self.trace.push_step(TraceStep {
                    step: self.steps,
                    machine: id,
                    machine_name: name,
                    event,
                });
            }
            TraceMode::DecisionsOnly => self.trace.skip_step(),
        }

        self.run_machine_code(
            name,
            |rt| {
                let mut ctx = Context { rt, id };
                match event {
                    None => machine.on_start(&mut ctx),
                    Some(ev) => machine.handle(&mut ctx, ev),
                }
            },
            || format!("while handling '{}'", event_name()),
        );

        let slot = &mut self.slots[index];
        slot.machine = MachineCell::Owned(machine);
        if slot.flags.halted {
            // A halted machine's pending events are lost; its queue goes
            // back to the pool for the next lazily materialized mailbox.
            slot.mailbox.release_into(&mut self.mailbox_pool);
        }
        // The step may have flipped this machine's enablement (start
        // transition with an empty mailbox, last event dequeued, halt,
        // self-sends): re-sync it. Every *other* machine the handler touched
        // was synced by `send` / `create_machine` already.
        self.sync_enabled(id);
    }

    /// Moves a machine's state out of its slot for a handler or fault hook,
    /// breaking copy-on-write sharing if the slot still aliases a snapshot.
    fn take_machine(&mut self, index: usize) -> Box<dyn Machine> {
        let slot = &mut self.slots[index];
        match std::mem::replace(&mut slot.machine, MachineCell::Absent) {
            MachineCell::Owned(machine) => machine,
            MachineCell::Shared => {
                let origin = slot.origin.as_deref().expect("a shared slot has an origin");
                Self::break_off(&mut self.machine_pool, origin, slot.spare.take())
            }
            MachineCell::Absent => unreachable!("machine is present when scheduled"),
        }
    }

    /// Whether the per-step fault probe can possibly produce a candidate:
    /// some category of the remaining budget must have at least one machine
    /// marked to absorb it. O(1) — the counters are maintained by the
    /// `mark_*` calls — so fault-free runs (and runs whose budget targets
    /// nothing) pay nothing per step.
    #[inline]
    fn fault_probe_applicable(&self) -> bool {
        let budget = &self.faults_remaining;
        ((budget.crashes > 0 || budget.restarts > 0) && self.marked_crashable > 0)
            || ((budget.drops > 0 || budget.duplicates > 0) && self.marked_lossy > 0)
    }

    /// Rebuilds the reusable fault-candidate buffer: every fault the
    /// remaining budget and the machines' markings currently allow, in
    /// machine-id order (crash, restart, drop, duplicate per machine), so
    /// the offer order — and therefore replay — is deterministic. Only the
    /// incrementally maintained `fault_targets` list is visited — O(marked
    /// machines) per probe, not O(all machines).
    fn collect_fault_candidates(&mut self) {
        let mut buf = std::mem::take(&mut self.fault_buf);
        buf.clear();
        for &index in &self.fault_targets {
            let slot = &self.slots[index as usize];
            let id = MachineId::from_raw(index as u64);
            for fault in [
                Fault::Crash(id),
                Fault::Restart(id),
                Fault::Drop(id),
                Fault::Duplicate(id),
            ] {
                if slot.admits(fault, &self.faults_remaining) {
                    buf.push(fault);
                }
            }
        }
        self.fault_buf = buf;
    }

    /// Applies one injected fault: records the decision, mutates the target
    /// machine's slot, decrements the budget, and runs the machine's crash /
    /// restart hook where applicable.
    fn apply_fault(&mut self, fault: Fault) {
        self.trace.push_decision(fault.decision());
        // Every fault kind mutates its target's slot (crashed flag, mailbox
        // contents): dirty it for the O(dirty) restore.
        let (Fault::Crash(target)
        | Fault::Restart(target)
        | Fault::Drop(target)
        | Fault::Duplicate(target)) = fault;
        self.mark_dirty(target);
        match fault {
            Fault::Crash(id) => {
                self.faults_remaining.crashes -= 1;
                let slot = &mut self.slots[id.index()];
                slot.flags.crashed = true;
                // Messages queued at a dead node are lost; the slot's
                // `crashed` flag also drops everything sent until a restart.
                slot.mailbox.release_into(&mut self.mailbox_pool);
                self.run_fault_hook(id, FaultHook::Crash);
                // A crashed machine is not schedulable until restarted.
                self.sync_enabled(id);
            }
            Fault::Restart(id) => {
                self.faults_remaining.restarts -= 1;
                let slot = &mut self.slots[id.index()];
                slot.flags.crashed = false;
                if slot.flags.started {
                    // Recovery resumes through `on_restart`, never through a
                    // second `on_start`.
                    self.run_fault_hook(id, FaultHook::Restart);
                }
                // A machine that crashed before it ever ran boots normally:
                // `started` stays false and `on_start` runs (with all its
                // wiring/initial sends) when the scheduler first picks it —
                // there is no prior incarnation for `on_restart` to recover.
                self.sync_enabled(id);
            }
            Fault::Drop(id) => {
                self.faults_remaining.drops -= 1;
                if let Some(mailbox) = self.slots[id.index()].mailbox.as_mut() {
                    mailbox.dequeue();
                }
                // Dropping the last queued event disables the target.
                self.sync_enabled(id);
            }
            Fault::Duplicate(id) => {
                self.faults_remaining.duplicates -= 1;
                let duplicated = self.slots[id.index()]
                    .mailbox
                    .as_mut()
                    .is_some_and(Mailbox::duplicate_front);
                debug_assert!(
                    duplicated,
                    "duplicate candidates are validated when offered"
                );
                // No enablement edge: the queue was non-empty and grew.
            }
        }
    }

    /// Applies one fault directly — bypassing the per-step scheduler probe —
    /// when the target's markings, its current state and the remaining
    /// [`RuntimeConfig::faults`] budget allow it; returns whether the fault
    /// was applied. An applied fault is recorded as a decision, so the
    /// resulting trace replays like a scheduler-injected one. Exposed for
    /// harnesses and tests that drive fault scenarios deterministically
    /// (e.g. the enabled-index property test); exploration uses the probe.
    pub fn inject_fault(&mut self, fault: Fault) -> bool {
        let applicable = self
            .slots
            .get(fault.machine().index())
            .is_some_and(|slot| slot.admits(fault, &self.faults_remaining));
        if applicable {
            self.apply_fault(fault);
        }
        applicable
    }

    /// Runs a machine's [`Machine::on_crash`] / [`Machine::on_restart`] hook
    /// with the same panic discipline as an event handler.
    fn run_fault_hook(&mut self, id: MachineId, hook: FaultHook) {
        let index = id.raw() as usize;
        let mut machine = self.take_machine(index);
        let name = self.slots[index].flags.name;
        let hook_name = match hook {
            FaultHook::Crash => "crash",
            FaultHook::Restart => "restart",
        };
        self.run_machine_code(
            name,
            |rt| {
                let mut ctx = Context { rt, id };
                match hook {
                    FaultHook::Crash => machine.on_crash(&mut ctx),
                    FaultHook::Restart => machine.on_restart(&mut ctx),
                }
            },
            || format!("in its {hook_name} hook"),
        );
        self.slots[index].machine = MachineCell::Owned(machine);
    }

    /// Runs a handler or fault hook of the machine named `name`. Under
    /// [`RuntimeConfig::catch_panics`] a panic becomes the execution's first
    /// bug, `machine '<name>' panicked <tail>: <message>`; `tail` is built
    /// only when that bug is recorded.
    fn run_machine_code(
        &mut self,
        name: NameId,
        body: impl FnOnce(&mut Runtime),
        tail: impl FnOnce() -> String,
    ) {
        if !self.config.catch_panics {
            body(self);
            return;
        }
        if let Err(payload) = catch_quietly(|| body(self)) {
            if self.bug.is_none() {
                let message = panic_message(payload.as_ref());
                let machine_name = self.trace.names.resolve_arc(name);
                self.bug = Some(
                    Bug::new(
                        BugKind::Panic,
                        format!("machine '{machine_name}' panicked {}: {message}", tail()),
                    )
                    .with_source(machine_name)
                    .with_step(self.steps),
                );
            }
        }
    }

    /// Checks every liveness monitor and records a violation for the first
    /// hot one.
    fn check_liveness(&mut self) {
        if self.bug.is_some() {
            return;
        }
        for slot in &self.monitors {
            let monitor = slot
                .monitor
                .as_ref()
                .expect("monitor is present outside of observe calls");
            if monitor.temperature() == Temperature::Hot {
                self.bug = Some(
                    Bug::new(BugKind::LivenessViolation, monitor.hot_message())
                        .with_source(Arc::clone(&slot.name))
                        .with_step(self.steps),
                );
                return;
            }
        }
    }

    fn deliver_to_monitor<M: Monitor>(&mut self, event: &Event, step: usize) {
        let type_id = std::any::TypeId::of::<M>();
        let Some(&index) = self.monitor_index.get(&type_id) else {
            // Notifying an unregistered monitor is a no-op: harnesses can be
            // run with or without their specifications attached.
            return;
        };
        if self.cow_origin.is_some() {
            self.monitor_dirty[index] = true;
        }
        let mut monitor = self.monitors[index]
            .monitor
            .take()
            .expect("monitor is present outside of observe calls");
        let name = Arc::clone(&self.monitors[index].name);
        {
            let mut ctx = MonitorContext::new(&mut self.bug, &name, step);
            monitor.observe(&mut ctx, event);
        }
        self.monitors[index].monitor = Some(monitor);
    }

    /// The first property violation found during this execution, if any.
    ///
    /// Returns `None` once [`Runtime::run`] has moved the violation into its
    /// [`ExecutionOutcome::BugFound`] return value.
    pub fn bug(&self) -> Option<&Bug> {
        self.bug.as_ref()
    }

    /// The recorded trace of this execution.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Moves the recorded trace out of the runtime (used by the engine to
    /// build a [`BugReport`](crate::engine::BugReport) without copying the
    /// schedule).
    ///
    /// The runtime is left with an empty trace for the same seed and stays
    /// usable: machine names are re-interned into the fresh name table, so
    /// further steps and bug reports resolve correctly.
    pub fn take_trace(&mut self) -> Trace {
        let seed = self.trace.seed;
        let mode = self.trace.mode();
        let taken = std::mem::replace(&mut self.trace, Trace::with_mode(seed, mode));
        for slot in &mut self.slots {
            slot.flags.name = self.trace.intern(taken.names.resolve(slot.flags.name));
        }
        // Re-interning rebinds slot name ids without marking slots dirty, so
        // an outstanding snapshot origin no longer describes clean slots:
        // force the next restore to be a full one.
        self.cow_origin = None;
        taken
    }

    /// Number of machine steps executed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Number of scheduler answers so far that the runtime replaced or
    /// refused: picks that named a machine outside the enabled set (replaced
    /// by the lowest enabled id) *and* faults that were not among the ones
    /// offered (dropped; no fault decision is recorded). Always 0 for a
    /// correct [`Scheduler`]; anything else means the recorded schedule is
    /// not the one the strategy intended.
    pub fn corrected_picks(&self) -> u64 {
        self.corrected_picks
    }

    /// Number of machines created (including halted ones).
    pub fn machine_count(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when the given machine has halted.
    pub fn is_halted(&self, id: MachineId) -> bool {
        self.slots
            .get(id.raw() as usize)
            .map(|s| s.flags.halted)
            .unwrap_or(false)
    }

    /// Borrows a registered monitor for inspection (used by tests and
    /// harnesses to read instrumentation state after a run).
    pub fn monitor_ref<M: Monitor>(&self) -> Option<&M> {
        let type_id = std::any::TypeId::of::<M>();
        let index = *self.monitor_index.get(&type_id)?;
        self.monitors[index]
            .monitor
            .as_ref()
            .and_then(|m| (**m).as_any().downcast_ref::<M>())
    }

    /// Borrows a machine for inspection after a run.
    ///
    /// Returns `None` if the id is unknown or the machine has a different
    /// concrete type.
    pub fn machine_ref<M: Machine>(&self, id: MachineId) -> Option<&M> {
        let slot = self.slots.get(id.raw() as usize)?;
        slot.machine()?.as_any().downcast_ref::<M>()
    }

    /// The replay divergence error, when this runtime was driven by a
    /// [`ReplayScheduler`](crate::scheduler::ReplayScheduler) and the
    /// execution did not follow the recording.
    pub fn replay_error(&self) -> Option<ReplayError> {
        self.scheduler.replay_error().cloned()
    }

    /// Replaces the scheduler driving this runtime. Prefix sharing
    /// ([`TestConfig::prefix_sharing`](crate::engine::TestConfig::prefix_sharing))
    /// uses it to install each iteration's own strategy after
    /// [`Runtime::restore_from`] (the snapshot carries the scheduler state
    /// *at the snapshot point*, which a new suffix usually overrides).
    pub fn set_scheduler(&mut self, scheduler: Box<dyn Scheduler>) {
        self.scheduler = scheduler;
    }

    /// Rewrites the seed recorded in the trace. Paired with
    /// [`Runtime::set_scheduler`] when a restored runtime continues under a
    /// different iteration's seed, so the reported trace identifies the
    /// schedule that actually drove the suffix.
    pub fn reseed(&mut self, seed: u64) {
        self.trace.seed = seed;
    }

    /// Total schedule-equivalents the driving scheduler has pruned so far
    /// (see [`Scheduler::pruned_equivalents`]); zero for non-reducing
    /// strategies.
    pub fn pruned_equivalents(&self) -> u64 {
        self.scheduler.pruned_equivalents()
    }

    /// Total racing step pairs the driving scheduler has detected so far
    /// (see [`Scheduler::races_detected`]); zero for strategies without
    /// vector-clock tracking.
    pub fn races_detected(&self) -> u64 {
        self.scheduler.races_detected()
    }

    /// Total scheduling points the driving scheduler resolved from a DPOR
    /// backtrack (see [`Scheduler::backtracks_scheduled`]).
    pub fn backtracks_scheduled(&self) -> u64 {
        self.scheduler.backtracks_scheduled()
    }

    /// The currently enabled machines, in ascending id order.
    ///
    /// The slice borrows the incrementally maintained enabled index — no
    /// recomputation happens; the call is O(1).
    pub fn enabled_machines(&self) -> &[MachineId] {
        self.enabled.as_slice()
    }

    /// Recomputes the enabled set from scratch with a full slot scan — the
    /// O(total machines) reference implementation the incremental index
    /// replaced. Kept as the oracle for the `enabled_index` property test
    /// (the index must stay byte-identical to this scan, order included);
    /// engines and the step loop use [`Runtime::enabled_machines`].
    pub fn scan_enabled(&self) -> Vec<MachineId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_enabled())
            .map(|(index, _)| MachineId::from_raw(index as u64))
            .collect()
    }

    /// Executes exactly one step of the given machine, bypassing the
    /// scheduler's choice (the decision is still recorded, so the trace
    /// replays). No engine calls it: it drives an exact schedule for the
    /// fork-cost sweep and for tests that must dirty chosen machines between
    /// snapshots and restores.
    ///
    /// Returns `false` — without stepping — when the machine is not
    /// currently enabled or a bug is already pending.
    pub fn force_step(&mut self, id: MachineId) -> bool {
        let enabled = self.enabled.contains(id);
        if !enabled || self.bug.is_some() {
            return false;
        }
        self.trace.push_decision(Decision::Schedule(id));
        self.step_machine(id);
        self.steps += 1;
        true
    }

    /// Captures a point-in-time copy of the whole execution state: machines
    /// (via [`Machine::clone_state`]), mailboxes (via each queued event's
    /// [`Event::duplicate`] copy constructor), monitors, fault budget and
    /// markings, step counter and the recorded trace, plus the scheduler
    /// when it supports [`Scheduler::clone_box`].
    ///
    /// Returns `None` when the state is not snapshotable: a machine or
    /// monitor does not implement `clone_state`, a queued event was not
    /// created with [`Event::replicable`], or a bug is already pending.
    /// Engines treat `None` as "fall back to straight-line execution".
    ///
    /// Snapshots are *structurally shared*: machine state is captured behind
    /// [`Arc`]s that the live slots alias afterwards (copy-on-write — a slot
    /// breaks the alias the first time it is mutated), so a machine whose
    /// state already sits behind an `Arc` costs a pointer bump, and a
    /// restore back to this snapshot re-syncs only the slots dirtied since
    /// (see [`Runtime::restore_from`]). Taking a snapshot therefore needs
    /// `&mut self`; the captured state is still an independent point-in-time
    /// copy.
    pub fn snapshot(&mut self) -> Option<RuntimeSnapshot> {
        if self.bug.is_some() {
            return None;
        }
        let mut slots = Vec::with_capacity(self.slots.len());
        for slot in &mut self.slots {
            let machine: Arc<dyn Machine> = match &slot.machine {
                // Already aliasing an earlier snapshot: the state is immutable
                // while shared, so capturing it is a pointer bump.
                MachineCell::Shared => {
                    Arc::clone(slot.origin.as_ref().expect("a shared slot has an origin"))
                }
                MachineCell::Owned(live) => {
                    // A refused copy leaves the slot owned: the runtime must
                    // stay runnable after a refused snapshot.
                    let captured: Arc<dyn Machine> = Arc::from(live.clone_state()?);
                    // The live slot shares the captured state from here on;
                    // the box it owned becomes its spare.
                    slot.share(&captured);
                    captured
                }
                MachineCell::Absent => return None,
            };
            // Vacant lazy slots snapshot as vacant: the fork re-creates the
            // machine queueless, exactly as the original was.
            let mailbox = match slot.mailbox.as_ref() {
                None => None,
                Some(source) => {
                    let mut copy = Mailbox::new();
                    if !source.clone_into(&mut copy) {
                        return None;
                    }
                    Some(copy)
                }
            };
            slots.push(SnapshotSlot {
                machine,
                mailbox,
                flags: slot.flags,
            });
        }
        let mut monitors = Vec::with_capacity(self.monitors.len());
        for slot in &self.monitors {
            let monitor = slot.monitor.as_ref()?.clone_state()?;
            monitors.push((monitor, Arc::clone(&slot.name)));
        }
        let id = NEXT_SNAPSHOT_ID.fetch_add(1, Ordering::Relaxed);
        if self.cow_origin.is_none() {
            // Dirty tracking starts (or restarts) relative to this snapshot.
            // When an origin is already being tracked it is kept: a caller
            // may interleave later snapshots with restores of the first one,
            // and re-originating here would turn every one of those restores
            // into a full rebuild.
            self.cow_origin = Some(id);
            self.dirty.clear();
            self.monitor_dirty.iter_mut().for_each(|flag| *flag = false);
            self.fault_marks_changed = false;
        }
        Some(RuntimeSnapshot {
            id,
            slots,
            monitors,
            monitor_index: self.monitor_index.clone(),
            scheduler: self.scheduler.clone_box(),
            config: self.config.clone(),
            trace: self.trace.clone(),
            steps: self.steps,
            corrected_picks: self.corrected_picks,
            faults_remaining: self.faults_remaining,
            fault_targets: self.fault_targets.clone(),
            marked_crashable: self.marked_crashable,
            marked_lossy: self.marked_lossy,
        })
    }

    /// Rewinds this runtime to the state captured in `snapshot`, reusing its
    /// own grown allocations (mailbox pool, trace buffers, scratch buffers)
    /// so a restore in the steady state costs only the machine/monitor state
    /// clones plus queued-event copies — no bookkeeping reallocation.
    ///
    /// The snapshot's scheduler state (when captured) is re-cloned and
    /// installed; engines typically follow with [`Runtime::set_scheduler`]
    /// and [`Runtime::reseed`] to drive the suffix with a fresh strategy. A
    /// restore can be repeated: the snapshot is not consumed.
    ///
    /// When this runtime's dirty tracking originates from `snapshot` itself
    /// — the steady state of every prefix-sharing engine, which forks the
    /// same snapshot over and over — the restore is *incremental*: only the
    /// machines, mailboxes and monitors actually touched since the fork
    /// point are re-synced, O(dirty) instead of O(machines). Every other
    /// slot still aliases the snapshot's state byte-for-byte and is skipped.
    /// A dirty slot costs its queue copy and little else: its owned box is
    /// parked as the slot's spare for the next break-off, its origin already
    /// is the snapshot's state (no refcount write), and the enabled index
    /// takes all dirty slots in one pass. The result is observably identical
    /// to [`Runtime::restore_from_full`].
    pub fn restore_from(&mut self, snapshot: &RuntimeSnapshot) {
        let incremental = self.cow_origin == Some(snapshot.id)
            && self.slots.len() >= snapshot.slots.len()
            && self.monitors.len() == snapshot.monitors.len();
        if incremental {
            self.restore_from_dirty(snapshot);
        } else {
            self.restore_from_full(snapshot);
        }
    }

    /// O(dirty) restore: `self.cow_origin == snapshot.id`, so every slot not
    /// in the dirty set (and every un-notified monitor) is already in the
    /// snapshot's state and is left untouched. A dirty slot is rewound in
    /// place (see [`Runtime::restore_from`] for what that costs), and the
    /// enabled index re-syncs all of them in one pass.
    fn restore_from_dirty(&mut self, snapshot: &RuntimeSnapshot) {
        let Runtime {
            slots,
            mailbox_pool,
            machine_pool,
            enabled,
            dirty,
            ..
        } = self;
        // Machines created after the snapshot sit past its slot range.
        while slots.len() > snapshot.slots.len() {
            let index = slots.len() - 1;
            let slot = slots.pop().expect("length checked above");
            Self::retire_slot(slot, mailbox_pool, machine_pool);
            enabled.remove(MachineId::from_raw(index as u64));
        }
        // One pass over the dirty slots rewinds each and hands its
        // enabledness to the index. Every enablement edge since the fork
        // implies a dirty mark, so this (plus the truncation removals above)
        // fully reconciles the index.
        let mut dirty_list = std::mem::take(&mut dirty.list);
        enabled.resync(dirty_list.iter().filter_map(|&raw| {
            let index = raw as usize;
            dirty.member[index] = false;
            // A slot created after the snapshot was truncated above.
            let slot = slots.get_mut(index)?;
            slot.rewind(&snapshot.slots[index], mailbox_pool);
            Some((MachineId::from_raw(u64::from(raw)), slot.is_enabled()))
        }));
        dirty_list.clear();
        dirty.list = dirty_list;
        for index in 0..self.monitors.len() {
            if !self.monitor_dirty[index] {
                continue;
            }
            self.monitor_dirty[index] = false;
            let (monitor, _) = &snapshot.monitors[index];
            self.monitors[index].monitor = Some(
                monitor
                    .clone_state()
                    .expect("snapshotted monitor state must stay clonable"),
            );
        }
        if self.fault_marks_changed {
            self.fault_marks_changed = false;
            self.fault_targets.clone_from(&snapshot.fault_targets);
        }
        self.restore_scalars(snapshot);
    }

    /// Full restore: rewinds every slot to the snapshot, regardless of
    /// dirty state. This is the path for a snapshot this runtime is not
    /// tracking (a different fork point, a foreign runtime) and the oracle
    /// the `cow_snapshot` property test holds the incremental path against.
    /// Machine state is re-installed by `Arc` sharing — O(machines) pointer
    /// comparisons (a refcount write only for a slot that aliased other
    /// state) plus mailbox copies, never a deep clone per machine. Slots are
    /// rewound in place, so each keeps its box as the spare for its next
    /// break-off.
    pub fn restore_from_full(&mut self, snapshot: &RuntimeSnapshot) {
        let Runtime {
            slots,
            mailbox_pool,
            machine_pool,
            ..
        } = self;
        let kept = slots.len().min(snapshot.slots.len());
        for slot in slots.drain(kept..) {
            Self::retire_slot(slot, mailbox_pool, machine_pool);
        }
        for (index, source) in snapshot.slots.iter().enumerate() {
            if index == slots.len() {
                slots.push(MachineSlot {
                    machine: MachineCell::Absent,
                    origin: None,
                    spare: None,
                    mailbox: LazyMailbox::vacant(),
                    flags: source.flags,
                });
            }
            slots[index].rewind(source, mailbox_pool);
        }
        self.monitors.clear();
        for (monitor, name) in &snapshot.monitors {
            self.monitors.push(MonitorSlot {
                monitor: Some(
                    monitor
                        .clone_state()
                        .expect("snapshotted monitor state must stay clonable"),
                ),
                name: Arc::clone(name),
            });
        }
        self.monitor_index.clone_from(&snapshot.monitor_index);
        // The restore rewound every slot anyway, so re-deriving the index
        // here is free relative to the restore itself; all storage is
        // retained, so a warm fork does not allocate.
        self.enabled.clear();
        self.enabled.resync(
            self.slots
                .iter()
                .enumerate()
                .map(|(index, slot)| (MachineId::from_raw(index as u64), slot.is_enabled())),
        );
        self.fault_targets.clone_from(&snapshot.fault_targets);
        // Every slot now aliases the snapshot: restart dirty tracking
        // relative to it, so the *next* restore of this snapshot is O(dirty).
        self.dirty.clear();
        self.monitor_dirty.clear();
        self.monitor_dirty.resize(self.monitors.len(), false);
        self.fault_marks_changed = false;
        self.restore_scalars(snapshot);
    }

    /// The O(1) tail shared by both restore paths: scheduler, config, trace,
    /// counters and the fork-point bookkeeping.
    fn restore_scalars(&mut self, snapshot: &RuntimeSnapshot) {
        if let Some(scheduler) = snapshot
            .scheduler
            .as_ref()
            .and_then(|scheduler| scheduler.clone_box())
        {
            self.scheduler = scheduler;
        }
        self.config.clone_from(&snapshot.config);
        self.trace.clone_from(&snapshot.trace);
        self.bug = None;
        self.steps = snapshot.steps;
        self.corrected_picks = snapshot.corrected_picks;
        self.faults_remaining = snapshot.faults_remaining;
        self.fault_buf.clear();
        self.marked_crashable = snapshot.marked_crashable;
        self.marked_lossy = snapshot.marked_lossy;
        self.footprint.rearm(MachineId::from_raw(0));
        self.cancel = None;
        self.cow_origin = Some(snapshot.id);
    }

    /// Number of machine slots mutated since the current snapshot origin
    /// (0 when dirty tracking is off). Exposed for the fork-cost bench and
    /// the copy-on-write tests to observe what an incremental restore will
    /// touch.
    pub fn dirty_machine_count(&self) -> usize {
        self.dirty.list.len()
    }
}

/// Globally unique snapshot identities: a runtime records which snapshot its
/// dirty tracking is relative to by id, and ids must never collide across
/// runtimes (workers snapshot independently), so the counter is process-wide.
static NEXT_SNAPSHOT_ID: AtomicU64 = AtomicU64::new(0);

/// One captured machine slot of a [`RuntimeSnapshot`].
struct SnapshotSlot {
    /// Captured machine state, shared (copy-on-write) with the live slot it
    /// was taken from and with every runtime restored from this snapshot.
    machine: Arc<dyn Machine>,
    /// `None` mirrors a lazy slot that never materialized a queue.
    mailbox: Option<Mailbox>,
    flags: SlotFlags,
}

/// A point-in-time copy of a [`Runtime`]'s execution state, captured with
/// [`Runtime::snapshot`] and re-installed (any number of times) with
/// [`Runtime::restore_from`].
///
/// Snapshots are the mechanism behind prefix-sharing execution: a decision
/// prefix shared by many schedules is executed once, snapshotted, and each
/// suffix forks from the copy instead of re-executing the prefix. Machine
/// state is captured behind [`Arc`]s structurally shared with the live
/// runtime under a copy-on-write discipline — shared state is never mutated
/// in place (a slot breaks the alias into an owned box before its first
/// mutation), so the snapshot remains an immutable point-in-time copy while
/// untouched machines cost a fork nothing. Queued events and monitors are
/// owned copies. The originating runtime's trace (including the prefix's
/// recorded decisions) is carried along, which keeps forked executions
/// replayable from scratch by an ordinary
/// [`ReplayScheduler`](crate::scheduler::ReplayScheduler).
pub struct RuntimeSnapshot {
    /// Process-unique identity used to match a runtime's dirty tracking to
    /// its origin snapshot (see [`Runtime::restore_from`]).
    id: u64,
    slots: Vec<SnapshotSlot>,
    monitors: Vec<(Box<dyn Monitor>, Arc<str>)>,
    monitor_index: HashMap<std::any::TypeId, usize>,
    /// Scheduler state at the snapshot point, when the strategy supports
    /// mid-stream cloning; `None` otherwise (a restore then keeps the
    /// runtime's current scheduler).
    scheduler: Option<Box<dyn Scheduler>>,
    config: RuntimeConfig,
    trace: Trace,
    steps: usize,
    corrected_picks: u64,
    faults_remaining: FaultPlan,
    fault_targets: Vec<u32>,
    marked_crashable: usize,
    marked_lossy: usize,
}

impl RuntimeSnapshot {
    /// Number of machine steps executed up to the snapshot point.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Number of machines captured (including halted ones).
    pub fn machine_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of decisions recorded in the captured prefix trace.
    pub fn decision_count(&self) -> usize {
        self.trace.decision_count()
    }
}

thread_local! {
    /// `true` while this thread is inside a handler or fault hook whose
    /// panic [`catch_quietly`] is about to catch.
    static PANIC_IS_CAUGHT: Cell<bool> = const { Cell::new(false) };
}

/// Runs a handler or fault hook under `catch_unwind` without the process
/// panic hook printing what the runtime is about to report as a
/// [`BugKind::Panic`] bug.
///
/// The first call in a process wraps the hook that was installed before it
/// in one that stays silent exactly while the panicking thread is in here;
/// every other panic — a panicking `setup`, the runtime's own `expect`s, user
/// threads — reaches the previous hook unchanged.
fn catch_quietly<R>(body: impl FnOnce() -> R) -> std::thread::Result<R> {
    static DELEGATING_HOOK: Once = Once::new();
    DELEGATING_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !PANIC_IS_CAUGHT.get() {
                previous(info);
            }
        }));
    });
    // `replace`, not `set(true)` / `set(false)`: a handler that drives a
    // runtime of its own is still inside the outer catch when that one ends.
    let outer = PANIC_IS_CAUGHT.replace(true);
    let result = catch_unwind(AssertUnwindSafe(body));
    PANIC_IS_CAUGHT.set(outer);
    result
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The capabilities available to a machine while it handles an event.
///
/// A context is the machine's window onto the runtime: sending events,
/// creating machines, making controlled nondeterministic choices, asserting
/// local safety properties, notifying monitors and halting.
pub struct Context<'r> {
    rt: &'r mut Runtime,
    id: MachineId,
}

impl<'r> Context<'r> {
    /// The id of the machine currently executing.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// The current execution step.
    pub fn step(&self) -> usize {
        self.rt.steps
    }

    /// Sends an event to another machine (or to self). Non-blocking; events
    /// sent to halted machines are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not a machine of this runtime.
    pub fn send(&mut self, target: MachineId, event: Event) {
        self.rt.footprint.sends.push(target);
        self.rt.send(target, event);
    }

    /// Sends an event to the machine itself.
    pub fn send_to_self(&mut self, event: Event) {
        let id = self.id;
        self.send(id, event);
    }

    /// Creates a new machine and returns its id.
    pub fn create<M: Machine>(&mut self, machine: M) -> MachineId {
        self.rt.footprint.created_machine = true;
        self.rt.create_machine(machine)
    }

    /// Creates a new machine from a declarative [`StateMachine`].
    pub fn create_state_machine<M: StateMachine>(&mut self, machine: M) -> MachineId {
        self.rt.footprint.created_machine = true;
        self.rt.create_state_machine(machine)
    }

    /// Marks a machine as crashable (see [`Runtime::mark_crashable`]); used
    /// when machines are created inside handlers, e.g. a manager launching a
    /// replacement node that should be as fallible as the one it replaces.
    pub fn mark_crashable(&mut self, id: MachineId) {
        self.rt.mark_crashable(id);
    }

    /// Marks a machine as restartable (see [`Runtime::mark_restartable`]).
    pub fn mark_restartable(&mut self, id: MachineId) {
        self.rt.mark_restartable(id);
    }

    /// Marks the channel into a machine as lossy (see
    /// [`Runtime::mark_lossy`]).
    pub fn mark_lossy(&mut self, id: MachineId) {
        self.rt.mark_lossy(id);
    }

    /// Resolves a controlled nondeterministic boolean (P#'s `Nondet()`).
    pub fn random_bool(&mut self) -> bool {
        self.rt.footprint.made_choice = true;
        let value = self.rt.scheduler.next_bool();
        self.rt.trace.push_decision(Decision::Bool(value));
        value
    }

    /// Resolves a controlled nondeterministic integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        self.rt.footprint.made_choice = true;
        let value = self.rt.scheduler.next_int(bound).min(bound - 1);
        self.rt.trace.push_decision(Decision::Int(value));
        value
    }

    /// Nondeterministically chooses one element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.random_index(items.len())]
    }

    /// Halts the current machine after this handler returns. Pending and
    /// future events for the machine are dropped.
    pub fn halt(&mut self) {
        let slot = &mut self.rt.slots[self.id.raw() as usize];
        slot.flags.halted = true;
    }

    /// Flags a safety violation when `condition` is false, attributing it to
    /// the current machine.
    pub fn assert(&mut self, condition: bool, message: impl Into<String>) {
        if !condition {
            self.report_bug(BugKind::SafetyViolation, message);
        }
    }

    /// Unconditionally reports a bug of the given kind, attributed to the
    /// current machine.
    pub fn report_bug(&mut self, kind: BugKind, message: impl Into<String>) {
        if self.rt.bug.is_none() {
            let name = self
                .rt
                .trace
                .names
                .resolve_arc(self.rt.slots[self.id.raw() as usize].flags.name);
            self.rt.bug = Some(
                Bug::new(kind, message)
                    .with_source(name)
                    .with_step(self.rt.steps),
            );
        }
    }

    /// Publishes an event to the monitor of type `M`, if one is registered.
    pub fn notify_monitor<M: Monitor>(&mut self, event: Event) {
        self.rt.footprint.notified_monitor = true;
        let step = self.rt.steps;
        self.rt.deliver_to_monitor::<M>(&event, step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Transition;
    use crate::scheduler::{
        PctScheduler, RandomScheduler, ReplayScheduler, RoundRobinScheduler, SchedulerKind,
    };

    fn runtime(seed: u64) -> Runtime {
        Runtime::new(
            Box::new(RandomScheduler::new(seed)),
            RuntimeConfig::default(),
            seed,
        )
    }

    #[derive(Debug)]
    struct Ping(MachineId);
    #[derive(Debug)]
    struct Pong;
    #[derive(Debug)]
    struct Kick;

    struct Responder;
    impl Machine for Responder {
        fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
            if let Some(ping) = event.downcast_ref::<Ping>() {
                ctx.send(ping.0, Event::new(Pong));
            }
        }
    }

    struct Requester {
        responder: MachineId,
        pongs: usize,
    }
    impl Machine for Requester {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let me = ctx.id();
            ctx.send(self.responder, Event::new(Ping(me)));
        }
        fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
            if event.is::<Pong>() {
                self.pongs += 1;
                if self.pongs < 3 {
                    let me = ctx.id();
                    ctx.send(self.responder, Event::new(Ping(me)));
                } else {
                    ctx.halt();
                }
            }
        }
    }

    #[test]
    fn ping_pong_runs_to_quiescence() {
        let mut rt = runtime(1);
        let responder = rt.create_machine(Responder);
        rt.create_machine(Requester {
            responder,
            pongs: 0,
        });
        let outcome = rt.run();
        assert_eq!(outcome, ExecutionOutcome::Quiescent);
        assert!(rt.bug().is_none());
        // 2 starts + 3 pings + 3 pongs handled = 8 steps.
        assert_eq!(rt.steps(), 8);
    }

    #[test]
    fn machine_assert_reports_safety_bug() {
        struct Asserter;
        impl Machine for Asserter {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.assert(false, "always fails");
            }
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        let mut rt = runtime(2);
        rt.create_machine(Asserter);
        let outcome = rt.run();
        match outcome {
            ExecutionOutcome::BugFound(bug) => {
                assert_eq!(bug.kind, BugKind::SafetyViolation);
                assert_eq!(bug.source.as_deref(), Some("Asserter"));
            }
            other => panic!("expected a bug, got {other:?}"),
        }
    }

    #[test]
    fn bug_is_moved_into_the_outcome() {
        struct Asserter;
        impl Machine for Asserter {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.assert(false, "always fails");
            }
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        let mut rt = runtime(2);
        rt.create_machine(Asserter);
        assert!(matches!(rt.run(), ExecutionOutcome::BugFound(_)));
        // The outcome owns the bug; the runtime no longer holds a copy.
        assert!(rt.bug().is_none());
    }

    #[test]
    fn panic_in_handler_is_reported_as_bug() {
        struct Panicker;
        impl Machine for Panicker {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send_to_self(Event::new(Kick));
            }
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {
                panic!("simulated null reference");
            }
        }
        let mut rt = runtime(3);
        rt.create_machine(Panicker);
        match rt.run() {
            ExecutionOutcome::BugFound(bug) => {
                assert_eq!(bug.kind, BugKind::Panic);
                assert!(bug.message.contains("simulated null reference"));
            }
            other => panic!("expected a panic bug, got {other:?}"),
        }
    }

    #[test]
    fn halted_machine_drops_pending_events() {
        struct Stopper;
        impl Machine for Stopper {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.halt();
            }
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {
                panic!("must never handle an event");
            }
        }
        let mut rt = runtime(4);
        let stopper = rt.create_machine(Stopper);
        rt.send(stopper, Event::new(Kick));
        rt.send(stopper, Event::new(Kick));
        let outcome = rt.run();
        assert_eq!(outcome, ExecutionOutcome::Quiescent);
        assert!(rt.is_halted(stopper));
        assert!(rt.bug().is_none());
    }

    #[test]
    fn send_to_halted_machine_is_dropped() {
        struct Idle;
        impl Machine for Idle {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.halt();
            }
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        let mut rt = runtime(5);
        let idle = rt.create_machine(Idle);
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
        rt.send(idle, Event::new(Kick));
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
    }

    #[test]
    fn max_steps_bound_terminates_looping_system() {
        struct Looper;
        impl Machine for Looper {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send_to_self(Event::new(Kick));
            }
            fn handle(&mut self, ctx: &mut Context<'_>, _event: Event) {
                ctx.send_to_self(Event::new(Kick));
            }
        }
        let mut rt = Runtime::new(
            Box::new(RandomScheduler::new(0)),
            RuntimeConfig {
                max_steps: 50,
                ..RuntimeConfig::default()
            },
            0,
        );
        rt.create_machine(Looper);
        assert_eq!(rt.run(), ExecutionOutcome::MaxStepsReached);
        assert_eq!(rt.steps(), 50);
    }

    #[test]
    fn cancel_token_aborts_the_execution_mid_step() {
        struct Looper;
        impl Machine for Looper {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send_to_self(Event::new(Kick));
            }
            fn handle(&mut self, ctx: &mut Context<'_>, _event: Event) {
                ctx.send_to_self(Event::new(Kick));
            }
        }
        let bound = Arc::new(AtomicU64::new(u64::MAX));
        let mut rt = Runtime::new(
            Box::new(RandomScheduler::new(0)),
            RuntimeConfig::default(),
            0,
        );
        // The token's iteration is at the bound, so it fires immediately.
        bound.store(3, Ordering::Relaxed);
        rt.set_cancel_token(CancelToken::new(Arc::clone(&bound), 3));
        rt.create_machine(Looper);
        assert_eq!(rt.run(), ExecutionOutcome::Cancelled);
        assert_eq!(rt.steps(), 0, "cancellation is checked before any step");
        // An execution below the bound is never cancelled.
        let mut rt = Runtime::new(
            Box::new(RandomScheduler::new(0)),
            RuntimeConfig {
                max_steps: 50,
                ..RuntimeConfig::default()
            },
            0,
        );
        rt.set_cancel_token(CancelToken::new(bound, 2));
        rt.create_machine(Looper);
        assert_eq!(rt.run(), ExecutionOutcome::MaxStepsReached);
    }

    #[test]
    fn decision_cap_abandons_at_a_step_boundary_unless_a_bug_is_pending() {
        /// Records two decisions a step and fails in its `fail_at`-th step.
        struct Chooser {
            handled: usize,
            fail_at: usize,
        }
        impl Machine for Chooser {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send_to_self(Event::new(Kick));
            }
            fn handle(&mut self, ctx: &mut Context<'_>, _event: Event) {
                self.handled += 1;
                let _ = ctx.random_bool();
                ctx.assert(self.handled != self.fail_at, "failed on schedule");
                ctx.send_to_self(Event::new(Kick));
            }
        }
        let run = |cap: usize, fail_at: usize| {
            let mut rt = Runtime::new(
                Box::new(RandomScheduler::new(0)),
                RuntimeConfig::default(),
                0,
            );
            rt.cancel_at_decisions(cap);
            rt.create_machine(Chooser {
                handled: 0,
                fail_at,
            });
            (rt.run(), rt.steps(), rt.trace().decision_count())
        };
        // Start step: 1 decision; every later step: 2. The cap of 4 is first
        // met (overshot, by the in-step choice) after the third step.
        assert_eq!(run(4, usize::MAX), (ExecutionOutcome::Cancelled, 3, 5));
        // A bug raised by the very step that crosses the cap is reported:
        // the poll sits behind the pending-bug check.
        let (outcome, steps, decisions) = run(4, 2);
        assert!(matches!(outcome, ExecutionOutcome::BugFound(_)));
        assert_eq!((steps, decisions), (3, 5));
        // A cap of zero fires before any step, like a fired token.
        assert_eq!(run(0, usize::MAX), (ExecutionOutcome::Cancelled, 0, 0));
    }

    struct HotUntilPong {
        hot: bool,
    }
    impl Monitor for HotUntilPong {
        fn observe(&mut self, _ctx: &mut MonitorContext<'_>, event: &Event) {
            if event.is::<Ping>() {
                self.hot = true;
            } else if event.is::<Pong>() {
                self.hot = false;
            }
        }
        fn temperature(&self) -> Temperature {
            if self.hot {
                Temperature::Hot
            } else {
                Temperature::Cold
            }
        }
    }

    #[test]
    fn liveness_violation_detected_at_quiescence() {
        struct OnlyPing;
        impl Machine for OnlyPing {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let me = ctx.id();
                ctx.notify_monitor::<HotUntilPong>(Event::new(Ping(me)));
            }
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        let mut rt = runtime(6);
        rt.add_monitor(HotUntilPong { hot: false });
        rt.create_machine(OnlyPing);
        match rt.run() {
            ExecutionOutcome::BugFound(bug) => {
                assert_eq!(bug.kind, BugKind::LivenessViolation);
                assert_eq!(bug.source.as_deref(), Some("HotUntilPong"));
            }
            other => panic!("expected liveness violation, got {other:?}"),
        }
    }

    #[test]
    fn liveness_monitor_that_cools_down_is_not_a_violation() {
        struct PingThenPong;
        impl Machine for PingThenPong {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let me = ctx.id();
                ctx.notify_monitor::<HotUntilPong>(Event::new(Ping(me)));
                ctx.notify_monitor::<HotUntilPong>(Event::new(Pong));
            }
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        let mut rt = runtime(7);
        rt.add_monitor(HotUntilPong { hot: false });
        rt.create_machine(PingThenPong);
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
        assert!(rt.bug().is_none());
    }

    /// Only a fair strategy judges liveness at the step bound: a machine
    /// heats [`HotUntilPong`] and then kicks itself forever, so the monitor
    /// is hot at the bound under every strategy. Random reports it there;
    /// PCT, whose priority prefix is unfair, ends the execution without a
    /// verdict.
    #[test]
    fn only_a_fair_strategy_judges_liveness_at_the_bound() {
        struct Kicker;
        impl Machine for Kicker {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let me = ctx.id();
                ctx.notify_monitor::<HotUntilPong>(Event::new(Ping(me)));
                ctx.send_to_self(Event::new(Kick));
            }
            fn handle(&mut self, ctx: &mut Context<'_>, _event: Event) {
                ctx.send_to_self(Event::new(Kick));
            }
        }
        const BOUND: usize = 40;
        let run = |scheduler: Box<dyn Scheduler>| {
            let config = RuntimeConfig {
                max_steps: BOUND,
                ..RuntimeConfig::default()
            };
            let mut rt = Runtime::new(scheduler, config, 5);
            rt.add_monitor(HotUntilPong { hot: false });
            rt.create_machine(Kicker);
            let outcome = rt.run();
            assert_eq!(rt.steps(), BOUND);
            outcome
        };
        let ExecutionOutcome::BugFound(bug) = run(Box::new(RandomScheduler::new(5))) else {
            panic!("random must judge the hot monitor at the bound");
        };
        assert_eq!(bug.kind, BugKind::LivenessViolation);
        assert_eq!(bug.step, BOUND);
        assert_eq!(
            run(Box::new(PctScheduler::new(5, 2, BOUND))),
            ExecutionOutcome::MaxStepsReached
        );
    }

    #[test]
    fn a_wide_fork_hashes_no_type_and_rewrites_enabled_once() {
        /// Clonable, and mutated by its start step, so starting it breaks
        /// the slot off its snapshot state.
        #[derive(Clone)]
        struct Starter {
            starts: u32,
        }
        impl Machine for Starter {
            fn on_start(&mut self, _ctx: &mut Context<'_>) {
                self.starts += 1;
            }
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
            crate::impl_machine_snapshot!();
        }
        const WIDTH: usize = 1_024;
        let mut rt = runtime(33);
        for _ in 0..WIDTH {
            rt.create_machine(Starter { starts: 0 });
        }
        let snapshot = rt.snapshot().expect("clonable machines snapshot");
        let mut order: Vec<u64> = (0..WIDTH as u64).collect();
        let mut state = 0x853c_49e6_748f_ea9bu64;
        for cycle in 0..10 {
            // Every machine starts, in a shuffled order, and leaves
            // `enabled`: the start-up drain of a wide harness.
            for at in (1..order.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                order.swap(at, (state >> 33) as usize % (at + 1));
            }
            let lookups = POOL_LOOKUPS.get();
            for &raw in &order {
                assert!(rt.force_step(MachineId::from_raw(raw)));
            }
            assert!(rt.enabled_machines().is_empty(), "every machine started");
            let dirty = rt.dirty_machine_count();
            let writes = crate::enabled::entry_writes();
            rt.restore_from(&snapshot);
            let written = crate::enabled::entry_writes() - writes;
            let width = rt.enabled_machines().len();
            assert_eq!((dirty, width), (WIDTH, WIDTH));
            assert!(
                written <= 2 * (width + dirty) as u64,
                "cycle {cycle}: the restore wrote {written} enabled entries"
            );
            if cycle > 0 {
                assert_eq!(
                    POOL_LOOKUPS.get() - lookups,
                    0,
                    "cycle {cycle}: a break-off or the restore looked up the pool"
                );
            }
            assert_eq!(rt.enabled_machines(), rt.scan_enabled().as_slice());
            let starts = |raw: u64| {
                rt.machine_ref::<Starter>(MachineId::from_raw(raw))
                    .unwrap()
                    .starts
            };
            assert!(
                (0..WIDTH as u64).all(|raw| starts(raw) == 0),
                "cycle {cycle}"
            );
        }
    }

    #[test]
    fn notify_unregistered_monitor_is_noop() {
        struct Notifier;
        impl Machine for Notifier {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.notify_monitor::<HotUntilPong>(Event::new(Pong));
            }
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        let mut rt = runtime(8);
        rt.create_machine(Notifier);
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
    }

    #[test]
    fn monitor_ref_allows_state_inspection() {
        let mut rt = runtime(9);
        rt.add_monitor(HotUntilPong { hot: false });
        rt.notify_monitor::<HotUntilPong>(Event::new(Ping(MachineId::from_raw(0))));
        let monitor = rt.monitor_ref::<HotUntilPong>().expect("registered");
        assert!(monitor.hot);
    }

    #[test]
    #[should_panic(expected = "monitor type already registered")]
    fn duplicate_monitor_registration_panics() {
        let mut rt = runtime(10);
        rt.add_monitor(HotUntilPong { hot: false });
        rt.add_monitor(HotUntilPong { hot: true });
    }

    #[test]
    fn nondet_choices_are_recorded_in_trace() {
        struct Chooser;
        impl Machine for Chooser {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let _ = ctx.random_bool();
                let _ = ctx.random_index(5);
                let _ = ctx.choose(&[10, 20, 30]);
            }
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        let mut rt = runtime(11);
        rt.create_machine(Chooser);
        rt.run();
        let decisions = &rt.trace().decisions;
        // 1 schedule + 1 bool + 2 ints.
        assert_eq!(decisions.len(), 4);
        assert!(matches!(decisions[1], Decision::Bool(_)));
        assert!(matches!(decisions[2], Decision::Int(v) if v < 5));
        assert!(matches!(decisions[3], Decision::Int(v) if v < 3));
    }

    #[test]
    fn trace_steps_resolve_interned_names() {
        let mut rt = runtime(13);
        let responder = rt.create_machine(Responder);
        rt.create_machine(Requester {
            responder,
            pongs: 0,
        });
        rt.run();
        let trace = rt.trace();
        // Names repeat across steps but are interned once each:
        // 2 machines + "start" + 2 event types.
        assert_eq!(trace.names.len(), 5);
        let rendered = trace.render_schedule();
        assert!(rendered.contains("Responder"));
        assert!(rendered.contains("Requester"));
        assert!(rendered.contains("start"));
        assert!(rendered.contains("Ping"));
        assert!(rendered.contains("Pong"));
    }

    #[test]
    fn state_machine_transitions_are_counted() {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Phase {
            Idle,
            Busy,
        }
        struct Worker;
        impl StateMachine for Worker {
            type State = Phase;
            fn initial_state(&self) -> Phase {
                Phase::Idle
            }
            fn on_start(&mut self, ctx: &mut Context<'_>) -> Transition<Phase> {
                ctx.send_to_self(Event::new(Kick));
                Transition::Stay
            }
            fn handle_in(
                &mut self,
                state: Phase,
                _ctx: &mut Context<'_>,
                _event: Event,
            ) -> Transition<Phase> {
                match state {
                    Phase::Idle => Transition::Goto(Phase::Busy),
                    Phase::Busy => Transition::Halt,
                }
            }
        }
        let mut rt = runtime(12);
        let id = rt.create_state_machine(Worker);
        rt.send(id, Event::new(Kick));
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
        let runner = rt
            .machine_ref::<StateMachineRunner<Worker>>(id)
            .expect("machine exists");
        assert_eq!(runner.state(), Phase::Busy);
        assert_eq!(runner.transitions(), 1);
        assert!(rt.is_halted(id));
    }

    #[test]
    fn round_robin_execution_is_reproducible() {
        let build = || {
            let mut rt = Runtime::new(
                Box::new(RoundRobinScheduler::new(0)),
                RuntimeConfig::default(),
                0,
            );
            let responder = rt.create_machine(Responder);
            rt.create_machine(Requester {
                responder,
                pongs: 0,
            });
            rt.run();
            rt.trace().clone()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn replay_reproduces_random_execution() {
        let build = |scheduler: Box<dyn Scheduler>| {
            let mut rt = Runtime::new(scheduler, RuntimeConfig::default(), 77);
            let responder = rt.create_machine(Responder);
            rt.create_machine(Requester {
                responder,
                pongs: 0,
            });
            rt.run();
            rt
        };
        let recorded = build(SchedulerKind::Random.build(77, 5_000));
        let trace = recorded.trace().clone();
        let replayed = build(Box::new(ReplayScheduler::from_trace(&trace)));
        assert_eq!(replayed.trace().decisions, trace.decisions);
        assert!(replayed.replay_error().is_none());
    }

    #[derive(Clone)]
    struct CloneResponder;
    impl Machine for CloneResponder {
        fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
            if let Some(ping) = event.downcast_ref::<Ping>() {
                ctx.send(ping.0, Event::new(Pong));
            }
        }
        fn clone_state(&self) -> Option<Box<dyn Machine>> {
            Some(Box::new(self.clone()))
        }
    }

    #[derive(Clone)]
    struct CloneRequester {
        responder: MachineId,
        pongs: usize,
    }
    impl Machine for CloneRequester {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let me = ctx.id();
            ctx.send(self.responder, Event::new(Ping(me)));
        }
        fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
            if event.is::<Pong>() {
                self.pongs += 1;
                if self.pongs < 3 {
                    let me = ctx.id();
                    ctx.send(self.responder, Event::new(Ping(me)));
                } else {
                    ctx.halt();
                }
            }
        }
        fn clone_state(&self) -> Option<Box<dyn Machine>> {
            Some(Box::new(self.clone()))
        }
    }

    #[test]
    fn snapshot_restore_reproduces_the_straight_line_trace() {
        let mut rt = runtime(42);
        let responder = rt.create_machine(CloneResponder);
        rt.create_machine(CloneRequester {
            responder,
            pongs: 0,
        });
        let snapshot = rt.snapshot().expect("clonable system snapshots");
        assert_eq!(snapshot.machine_count(), 2);
        assert_eq!(snapshot.steps(), 0);

        assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
        let straight = rt.trace().clone();

        // Restoring rewinds to the snapshot point; re-running under the
        // re-cloned scheduler state reproduces the identical execution.
        rt.restore_from(&snapshot);
        assert_eq!(rt.steps(), 0);
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
        assert_eq!(rt.trace().decisions, straight.decisions);
        assert_eq!(rt.steps(), 8);

        // A snapshot is not consumed: a second restore works too.
        rt.restore_from(&snapshot);
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
        assert_eq!(rt.trace().decisions, straight.decisions);
    }

    #[test]
    fn restored_runtime_accepts_a_fresh_scheduler_and_seed() {
        let mut rt = runtime(1);
        let responder = rt.create_machine(CloneResponder);
        rt.create_machine(CloneRequester {
            responder,
            pongs: 0,
        });
        let snapshot = rt.snapshot().expect("snapshotable");
        rt.restore_from(&snapshot);
        rt.set_scheduler(Box::new(RandomScheduler::new(99)));
        rt.reseed(99);
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
        let forked = rt.trace().clone();
        assert_eq!(forked.seed, 99);

        // The forked trace replays from scratch like any other recording.
        let mut replay = Runtime::new(
            Box::new(ReplayScheduler::from_trace(&forked)),
            RuntimeConfig::default(),
            99,
        );
        let responder = replay.create_machine(CloneResponder);
        replay.create_machine(CloneRequester {
            responder,
            pongs: 0,
        });
        replay.run();
        assert_eq!(replay.trace().decisions, forked.decisions);
        assert!(replay.replay_error().is_none());
    }

    #[test]
    fn out_of_set_picks_are_corrected_and_counted() {
        /// Answers every scheduling point with a machine that does not exist.
        #[derive(Clone)]
        struct Astray;
        impl Scheduler for Astray {
            fn name(&self) -> &'static str {
                "astray"
            }
            fn next_machine(&mut self, _enabled: &[MachineId], _step: usize) -> MachineId {
                MachineId::from_raw(999)
            }
            fn next_bool(&mut self) -> bool {
                false
            }
            fn next_int(&mut self, _bound: usize) -> usize {
                0
            }
            fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
                Some(Box::new(self.clone()))
            }
        }
        let ping_pong = |rt: &mut Runtime| {
            let responder = rt.create_machine(CloneResponder);
            rt.create_machine(CloneRequester {
                responder,
                pongs: 0,
            });
        };

        let mut rt = Runtime::new(Box::new(Astray), RuntimeConfig::default(), 0);
        ping_pong(&mut rt);
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent, "the run terminates");
        assert_eq!(rt.steps(), 8);
        assert_eq!(rt.corrected_picks(), 8, "every pick was replaced");

        // The count travels with a snapshot and restarts with a reset.
        let snapshot = rt.snapshot().expect("clonable system snapshots");
        rt.reset(
            Box::new(RandomScheduler::new(5)),
            RuntimeConfig::default(),
            5,
        );
        assert_eq!(rt.corrected_picks(), 0);
        ping_pong(&mut rt);
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
        assert_eq!(rt.corrected_picks(), 0, "a correct scheduler needs none");
        rt.restore_from(&snapshot);
        assert_eq!(rt.corrected_picks(), 8);

        /// Schedules correctly, but answers the first fault probe with a
        /// fault that was not in the offered slice.
        struct Uninvited {
            asked: bool,
        }
        impl Scheduler for Uninvited {
            fn name(&self) -> &'static str {
                "uninvited"
            }
            fn next_machine(&mut self, enabled: &[MachineId], _step: usize) -> MachineId {
                enabled[0]
            }
            fn next_bool(&mut self) -> bool {
                false
            }
            fn next_int(&mut self, _bound: usize) -> usize {
                0
            }
            fn next_fault(&mut self, offered: &[Fault], _step: usize) -> Option<Fault> {
                let uninvited = Fault::Crash(MachineId::from_raw(999));
                assert!(!offered.is_empty() && !offered.contains(&uninvited));
                (!std::mem::replace(&mut self.asked, true)).then_some(uninvited)
            }
        }
        let config = RuntimeConfig {
            faults: FaultPlan {
                drops: 1,
                ..FaultPlan::default()
            },
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(Box::new(Uninvited { asked: false }), config, 0);
        let responder = rt.create_machine(CloneResponder);
        rt.mark_lossy(responder);
        rt.create_machine(CloneRequester {
            responder,
            pongs: 0,
        });
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent, "the run completes");
        assert_eq!(rt.steps(), 8);
        assert!(
            !rt.trace().decisions.iter().any(Decision::is_fault),
            "the refused fault left no decision"
        );
        assert_eq!(rt.corrected_picks(), 1, "and was counted");
    }

    #[test]
    fn exploration_never_shortens_a_name() {
        use crate::event::strips;

        #[derive(Debug, Clone)]
        struct Hop(u32);
        /// Three machine types (one per `KIND`) passing three tokens round
        /// a ring; every step sends. A node told to panics on a last hop.
        struct Node<const KIND: u8> {
            panics: bool,
        }
        const HOPS: u32 = 400;
        fn forward(ctx: &mut Context<'_>, hop: u32) {
            let next = MachineId::from_raw((ctx.id().raw() + 1) % 3);
            ctx.notify_monitor::<Quiet>(Event::new(Hop(hop)));
            ctx.send(next, Event::replicable(Hop(hop)));
        }
        impl<const KIND: u8> Machine for Node<KIND> {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                forward(ctx, 0);
            }
            fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
                let Hop(hop) = event.downcast::<Hop>().expect("the ring carries hops");
                assert!(!(self.panics && hop == HOPS), "the last hop");
                if hop < HOPS {
                    forward(ctx, hop + 1);
                }
            }
        }
        struct Quiet;
        impl Monitor for Quiet {
            fn observe(&mut self, _ctx: &mut MonitorContext<'_>, _event: &Event) {}
        }

        // (strips of one execution, its steps, its outcome)
        let run = |trace_mode: TraceMode, panics: bool| {
            let config = RuntimeConfig {
                trace_mode,
                ..RuntimeConfig::default()
            };
            let mut rt = Runtime::new(Box::new(RandomScheduler::new(7)), config, 7);
            let before = strips();
            rt.create_machine(Node::<0> { panics: false });
            rt.create_machine(Node::<1> { panics: false });
            rt.create_machine(Node::<2> { panics });
            rt.add_monitor(Quiet);
            let outcome = rt.run();
            (strips() - before, rt.steps() as u64, outcome)
        };
        const NAMED: u64 = 4; // three machines and a monitor, default `name()`

        let (stripped, steps, outcome) = run(TraceMode::DecisionsOnly, false);
        assert_eq!(outcome, ExecutionOutcome::Quiescent);
        assert!(steps >= 1_000, "{steps}");
        assert_eq!(stripped, NAMED, "a decisions-only step reads no name");

        // A kept step reads one name per dequeued event; the three start
        // steps have no event.
        let (stripped, full_steps, _) = run(TraceMode::Full, false);
        assert_eq!(full_steps, steps);
        assert_eq!(stripped, NAMED + (steps - 3));

        // The panic message is the other reader: exactly one more.
        let (stripped, steps, outcome) = run(TraceMode::DecisionsOnly, true);
        let ExecutionOutcome::BugFound(bug) = outcome else {
            panic!("the last hop panics: {outcome:?}");
        };
        assert_eq!(bug.kind, BugKind::Panic);
        assert!(
            bug.message
                .starts_with("machine 'Node<2>' panicked while handling 'Hop': the last hop"),
            "{}",
            bug.message
        );
        assert_eq!(stripped, NAMED + 1);
        let (stripped, full_steps, _) = run(TraceMode::Full, true);
        assert_eq!(full_steps, steps);
        assert_eq!(stripped, NAMED + (steps - 3) + 1);
    }

    #[test]
    fn snapshot_requires_clonable_machines_and_replicable_events() {
        // `Responder` keeps the default `clone_state` (None).
        let mut rt = runtime(2);
        rt.create_machine(Responder);
        assert!(rt.snapshot().is_none());

        // A queued event built with `Event::new` cannot be copied.
        let mut rt = runtime(3);
        let id = rt.create_machine(CloneResponder);
        rt.send(id, Event::new(Pong));
        assert!(rt.snapshot().is_none());

        // The same event built with `Event::replicable` can.
        #[derive(Debug, Clone)]
        struct RepPong;
        let mut rt = runtime(4);
        let id = rt.create_machine(CloneResponder);
        rt.send(id, Event::replicable(RepPong));
        let snapshot = rt.snapshot().expect("replicable events snapshot");
        rt.restore_from(&snapshot);
        assert_eq!(rt.machine_count(), 1);
    }

    #[test]
    fn force_step_records_a_replayable_decision() {
        let mut rt = runtime(5);
        let responder = rt.create_machine(CloneResponder);
        let requester = rt.create_machine(CloneRequester {
            responder,
            pongs: 0,
        });
        assert_eq!(rt.enabled_machines(), &[responder, requester]);
        // The responder has no queued event after its start step, so a
        // second forced step on it is rejected.
        assert!(rt.force_step(responder));
        assert!(!rt.force_step(responder));
        assert!(rt.force_step(requester));
        assert_eq!(rt.steps(), 2);
        // Only the two accepted steps are recorded, as schedule decisions.
        assert_eq!(
            rt.trace().decisions,
            vec![Decision::Schedule(responder), Decision::Schedule(requester)]
        );
        // The requester's start sent a ping: the responder is enabled again.
        assert_eq!(rt.enabled_machines(), &[responder]);
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
        // The forced prefix strict-replays from scratch with the run's tail.
        let trace = rt.take_trace();
        let mut replay = Runtime::new(
            Box::new(ReplayScheduler::from_trace(&trace)),
            RuntimeConfig::default(),
            trace.seed,
        );
        let responder = replay.create_machine(CloneResponder);
        replay.create_machine(CloneRequester {
            responder,
            pongs: 0,
        });
        assert_eq!(replay.run(), ExecutionOutcome::Quiescent);
        assert!(replay.replay_error().is_none());
        assert_eq!(replay.trace().decisions, trace.decisions);
    }

    #[test]
    fn fault_target_listed_once_when_marked_crashable_and_lossy() {
        let mut rt = runtime(6);
        let a = rt.create_machine(CloneResponder);
        let b = rt.create_machine(CloneResponder);
        rt.mark_crashable(a);
        rt.mark_lossy(a);
        rt.mark_lossy(b);
        rt.mark_restartable(b);
        rt.mark_crashable(b);
        assert_eq!(rt.fault_target_count(), 2);
    }

    #[test]
    fn inject_fault_succeeds_exactly_on_the_offered_candidates() {
        #[derive(Debug, Clone)]
        struct Copyable;
        // One machine in every combination of marking, mailbox content,
        // halted and crashed flag, and a budget of 0 or 1 per fault kind. The
        // flags are set on the slot directly, so the sweep also covers states
        // no run reaches (a crashed machine with queued events).
        let build = |state: usize| {
            let budget = (state / 60) as u32;
            let mut rt = Runtime::new(
                Box::new(RandomScheduler::new(3)),
                RuntimeConfig {
                    faults: FaultPlan::new()
                        .with_crashes(budget & 1)
                        .with_restarts(budget >> 1 & 1)
                        .with_drops(budget >> 2 & 1)
                        .with_duplicates(budget >> 3 & 1),
                    ..RuntimeConfig::default()
                },
                3,
            );
            let id = rt.create_machine(Responder);
            match state % 5 {
                1 => rt.mark_crashable(id),
                2 => rt.mark_restartable(id),
                3 => rt.mark_lossy(id),
                4 => {
                    rt.mark_restartable(id);
                    rt.mark_lossy(id);
                }
                _ => {}
            }
            match state / 5 % 3 {
                1 => rt.send(id, Event::new(Kick)),
                2 => rt.send(id, Event::replicable(Copyable)),
                _ => {}
            }
            rt.slots[0].flags.halted = state / 15 % 2 == 1;
            rt.slots[0].flags.crashed = state / 30 % 2 == 1;
            (rt, id)
        };
        let mut admitted = [0usize; 4];
        for state in 0..5 * 3 * 2 * 2 * 16 {
            let (mut rt, id) = build(state);
            rt.collect_fault_candidates();
            let offered = rt.fault_buf.clone();
            let kinds = [
                Fault::Crash(id),
                Fault::Restart(id),
                Fault::Drop(id),
                Fault::Duplicate(id),
            ];
            for (kind, fault) in kinds.into_iter().enumerate() {
                let (mut rt, _) = build(state);
                assert_eq!(
                    rt.inject_fault(fault),
                    offered.contains(&fault),
                    "{fault} in state {state}"
                );
                admitted[kind] += usize::from(offered.contains(&fault));
            }
        }
        assert!(
            admitted.iter().all(|&count| count > 0),
            "every fault kind is admitted somewhere in the sweep: {admitted:?}"
        );
        let (mut rt, _) = build(959);
        assert!(
            !rt.inject_fault(Fault::Crash(MachineId::from_raw(7))),
            "an id outside the runtime admits nothing"
        );
    }

    #[test]
    fn runtime_stays_usable_after_take_trace() {
        let mut rt = runtime(14);
        let responder = rt.create_machine(Responder);
        let requester = rt.create_machine(Requester {
            responder,
            pongs: 0,
        });
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
        let first = rt.take_trace();
        assert_eq!(first.retained_step_count(), 8);
        // Machine names survive the swap: a fresh round of events records
        // steps that resolve against the new table. (The requester halted
        // during the first run, so poke the responder.)
        rt.send(responder, Event::new(Ping(requester)));
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
        let rendered = rt.trace().render_schedule();
        assert!(rendered.contains("Responder"));
        assert!(rendered.contains("Ping"));
    }
}
