//! Controlled schedulers that decide every nondeterministic choice.
//!
//! During testing the runtime creates a *scheduling point* each time a
//! nondeterministic choice has to be taken: which enabled machine executes
//! next, and the value of every `random_bool` / `random_index` call. A
//! [`Scheduler`] resolves those choices. These strategies are provided:
//!
//! * [`RandomScheduler`] — uniformly random choices (the paper's "random
//!   scheduler"), effective for most concurrency bugs.
//! * [`PctScheduler`] — randomized priority-based scheduling after
//!   Burckhardt et al. (ASPLOS'10), the paper's "priority-based scheduler";
//!   it maintains machine priorities, always runs the highest-priority
//!   enabled machine and changes priorities at a small number of random
//!   steps per execution.
//! * [`DelayBoundingScheduler`] — delay-bounded scheduling after Emmi et al.
//!   (POPL'11): a deterministic base schedule perturbed at a small number of
//!   random steps, each of which "delays" the machine that would have run.
//! * [`ProbabilisticRandomScheduler`] — runs the current machine as long as
//!   it stays enabled and switches to a uniformly random other machine with a
//!   configurable probability per step (Coyote's probabilistic strategy),
//!   exploring long uninterrupted stretches random scheduling rarely visits.
//! * [`RoundRobinScheduler`] — deterministic round-robin, useful as a
//!   baseline ablation and for smoke tests.
//! * [`SleepSetScheduler`] — sleep-set partial-order reduction over a random
//!   base: the runtime reports what every executed step did (its
//!   [`StepFootprint`]), and machines whose last step provably commutes with
//!   its neighbors are put to sleep so schedules that differ only in the
//!   order of independent steps are explored once.
//! * [`DporScheduler`] — the same sleep set plus vector-clock race detection,
//!   backtrack points and a run-to-completion bias on local steps.
//! * [`ReplayScheduler`] — replays a recorded [`Trace`] decision-for-decision
//!   so a bug can be reproduced deterministically.
//!
//! # Cost per pick
//!
//! The runtime asks for one pick per step, so a pick's cost multiplies into
//! every execution. With *w* the enabled width (the length of the `enabled`
//! slice, which is sorted by id), one `next_machine` + `note_footprint` pair
//! costs:
//!
//! | strategy | what a pick scans | cost in *w* |
//! |---|---|---|
//! | `random` | nothing: one draw, one index | O(1) |
//! | `round-robin` | binary search for the cursor | O(log *w*) |
//! | `delay` | binary search for the current machine / its successor | O(log *w*) |
//! | `prob` | binary search for the current machine | O(log *w*) |
//! | `replay` | binary search for the recorded machine | O(log *w*) |
//! | `pct` | one pass over `enabled` reading a dense priority table (one more per change point due); O(1) in the fair tail | O(*w*) |
//! | `sleep-set` | two passes over `enabled` against the dense sleep table (collect the awake, age the passed-over); O(1) per send target in the footprint | O(*w*) |
//! | `dpor` | a backtrack or sticky pick is one binary search plus the ageing pass, an ordinary pick is the sleep-set pick; clock and race work is bounded by constants | O(*w*) |
//!
//! No strategy is quadratic in *w* and none hashes per machine: per-machine
//! state (the sleep set, PCT priorities) lives in tables indexed by
//! [`MachineId::index`], and membership in `enabled` is a binary search.

use crate::error::ReplayError;
use crate::fault::{Fault, FaultGate};
use crate::machine::MachineId;
use crate::rng::SplitMix64;
use crate::trace::{Decision, Trace};

/// What one executed machine step did, as far as commutativity with other
/// steps is concerned. The runtime records one footprint per step (into a
/// reused buffer — the hot path stays allocation-free) and reports it to the
/// scheduler via [`Scheduler::note_footprint`].
///
/// Two steps of *different* machines commute — executing them in either
/// order reaches the same state — when neither was a fault, neither notified
/// a shared monitor, and neither delivered a message to the other machine or
/// raced a delivery to a common target. Fault decisions never produce a
/// footprint (they are never treated as independent), so a footprint only
/// ever describes an ordinary handler step.
#[derive(Debug, Clone)]
pub struct StepFootprint {
    /// The machine that executed the step.
    pub machine: MachineId,
    /// Targets of every send the handler performed, in send order (including
    /// sends-to-self).
    pub sends: Vec<MachineId>,
    /// Whether the handler published a notification to a monitor. Monitor
    /// state is shared between all machines, so such steps are never
    /// independent of each other.
    pub notified_monitor: bool,
    /// Whether the handler created a machine. Ids are assigned in creation
    /// order, so two creating steps never commute.
    pub created_machine: bool,
    /// Whether the handler consumed a `random_bool` / `random_index`
    /// decision. The values drawn depend on the position in the scheduler's
    /// decision stream, so reordering such a step does not provably reach an
    /// equivalent execution; it is conservatively treated as dependent.
    pub made_choice: bool,
}

impl StepFootprint {
    /// Creates an empty footprint for `machine`.
    pub fn new(machine: MachineId) -> Self {
        StepFootprint {
            machine,
            sends: Vec::new(),
            notified_monitor: false,
            created_machine: false,
            made_choice: false,
        }
    }

    /// Rearms the footprint for a new step, keeping the send buffer's
    /// allocation.
    pub(crate) fn rearm(&mut self, machine: MachineId) {
        self.machine = machine;
        self.sends.clear();
        self.notified_monitor = false;
        self.created_machine = false;
        self.made_choice = false;
    }

    /// `true` when the step had global side effects that defeat any
    /// commutation argument: it touched a (shared) monitor, allocated a
    /// machine id, or consumed a value decision from the shared stream.
    fn has_global_effect(&self) -> bool {
        self.notified_monitor || self.created_machine || self.made_choice
    }

    /// `true` when the step neither delivered any message nor had a global
    /// side effect: it only mutated its own machine's private state, so it
    /// commutes with any step of another machine that does not send to it.
    pub fn is_local(&self) -> bool {
        self.sends.is_empty() && !self.has_global_effect()
    }

    /// `true` when this step and `other` (steps of two different machines)
    /// commute: neither had a global side effect, neither sent to the
    /// other's machine, and they did not race a send to a common target
    /// mailbox.
    pub fn independent(&self, other: &StepFootprint) -> bool {
        if self.machine == other.machine {
            return false;
        }
        if self.has_global_effect() || other.has_global_effect() {
            return false;
        }
        if self.sends.contains(&other.machine) || other.sends.contains(&self.machine) {
            return false;
        }
        // A send to a common target does not commute: the target's FIFO
        // mailbox observes the delivery order.
        !self.sends.iter().any(|t| other.sends.contains(t))
    }
}

/// Resolves every nondeterministic choice of an execution.
///
/// Implementations must be deterministic functions of their seed and the
/// sequence of queries made so far, so that recorded traces replay exactly.
///
/// Schedulers are `Send + Sync` so that runtime snapshots (which carry the
/// scheduler's mid-execution state for copy-on-write forks) can be shared
/// across the worker threads of the parallel engines.
pub trait Scheduler: Send + Sync {
    /// Short human-readable name ("random", "pct", ...).
    fn name(&self) -> &'static str;

    /// Picks which of the `enabled` machines executes the next step.
    ///
    /// `enabled` is never empty and is sorted by machine id; implementations
    /// may rely on that order for O(log *w*) membership and successor
    /// lookups (binary search) instead of scanning.
    fn next_machine(&mut self, enabled: &[MachineId], step: usize) -> MachineId;

    /// Resolves a nondeterministic boolean choice.
    fn next_bool(&mut self) -> bool;

    /// Resolves a nondeterministic integer choice in `[0, bound)`.
    ///
    /// `bound` is always at least 1.
    fn next_int(&mut self, bound: usize) -> usize;

    /// Fault probe: decides whether one of the offered `candidates` (the
    /// faults the runtime could inject right now, within the remaining
    /// [`FaultPlan`](crate::fault::FaultPlan) budget) fires at this
    /// scheduling point.
    ///
    /// Every built-in strategy answers from a seeded [`FaultGate`] whose
    /// random stream is decorrelated from the scheduling stream, so enabling
    /// a fault budget does not perturb the schedule until a fault actually
    /// fires. The replay scheduler instead re-fires exactly the faults its
    /// recording contains. The default implementation (for custom
    /// schedulers) never injects.
    fn next_fault(&mut self, candidates: &[Fault], step: usize) -> Option<Fault> {
        let _ = (candidates, step);
        None
    }

    /// The replay divergence error, when this scheduler replays a recording
    /// and the execution did not follow it. `None` for all other schedulers.
    fn replay_error(&self) -> Option<&ReplayError> {
        None
    }

    /// The length of the execution prefix during which this strategy may
    /// starve individual machines: the priority-driven prefix for PCT and
    /// delay-bounding (their fair tail takes over afterwards), the entire
    /// bounded horizon for the probabilistic random walk and for DPOR's
    /// run-to-completion bias. `None` for strategies that starve no machine
    /// for more than a bounded number of scheduling points (random,
    /// round-robin, sleep-set with its wake bound, replay).
    ///
    /// The runtime uses this to qualify bounded-horizon liveness verdicts:
    /// under a starvation-prone strategy, a monitor that is hot at the step
    /// bound may just reflect a backlog the starved machines have not
    /// finished draining, so the runtime confirms the verdict over a fair
    /// grace period (see [`Runtime::run`](crate::runtime::Runtime::run))
    /// instead of reporting it immediately.
    fn unfair_prefix_len(&self) -> Option<usize> {
        None
    }

    /// Expected number of steps between two consecutive visits to any given
    /// machine once the strategy schedules past the step bound (i.e. during
    /// a liveness grace window), given `machines` live machines. The runtime
    /// scales its adaptive grace window by this spacing: draining a backlog
    /// of `B` events costs roughly `B × spacing` steps.
    ///
    /// The default — uniformly random fair scheduling — visits each machine
    /// every `machines` steps in expectation. Strategies whose post-bound
    /// regime is less fair (the probabilistic walk keeps parking on one
    /// machine) report a larger spacing.
    fn fair_step_spacing(&self, machines: usize) -> usize {
        machines
    }

    /// Reports what the step just executed did (who ran, what it sent,
    /// whether it touched a monitor). Called by the runtime after every
    /// ordinary machine step, in execution order. Strategies that reason
    /// about step independence maintain their state here —
    /// [`SleepSetScheduler`] its sleep set, [`DporScheduler`] its sleep set,
    /// vector clocks and race window; the default ignores it.
    fn note_footprint(&mut self, footprint: &StepFootprint) {
        let _ = footprint;
    }

    /// Number of provably-equivalent interleavings this scheduler skipped so
    /// far in the current execution: each time an enabled-but-slept machine
    /// was passed over at a scheduling point, one equivalent branch of the
    /// schedule tree was pruned. `0` for strategies that do not prune.
    fn pruned_equivalents(&self) -> u64 {
        0
    }

    /// Number of racing step pairs — concurrent (not ordered by the
    /// happens-before relation) yet dependent under the [`StepFootprint`]
    /// rules — this scheduler detected so far in the current execution. `0`
    /// for strategies that do not track happens-before
    /// ([`DporScheduler`] is the one that does).
    fn races_detected(&self) -> u64 {
        0
    }

    /// Number of scheduling points this scheduler resolved from a pending
    /// backtrack (a machine queued to run because an earlier step of its
    /// raced with another machine's). `0` for strategies without backtrack
    /// points.
    fn backtracks_scheduled(&self) -> u64 {
        0
    }

    /// Clones this scheduler mid-execution, preserving its full decision
    /// state, for [`Runtime::snapshot`](crate::runtime::Runtime::snapshot):
    /// a fork restored from a snapshot must continue the random stream (and
    /// any strategy state) exactly where the snapshot left it. Returns
    /// `None` for schedulers that cannot be cloned; every built-in strategy
    /// supports it.
    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        None
    }
}

/// Identifies which scheduling strategy a [`TestEngine`](crate::engine::TestEngine)
/// should use, together with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Uniformly random scheduling.
    Random,
    /// Priority-based (PCT) scheduling with the given number of priority
    /// change points per execution (the paper uses 2).
    Pct {
        /// Number of random priority change switches per execution.
        change_points: usize,
    },
    /// Delay-bounded scheduling: a deterministic base schedule perturbed by
    /// at most `delays` randomly placed delays per execution.
    DelayBounding {
        /// Maximum number of delays inserted per execution.
        delays: usize,
    },
    /// Probabilistic random walk: keeps running the current machine and
    /// switches to a random other machine with `switch_percent`% probability
    /// at each step.
    ProbabilisticRandom {
        /// Per-step context-switch probability in percent (`0..=100`).
        switch_percent: u32,
    },
    /// Deterministic round-robin over enabled machines.
    RoundRobin,
    /// Sleep-set partial-order reduction over a random base schedule: skips
    /// interleavings that are equivalent to already-explored ones up to
    /// commutation of independent steps.
    SleepSet {
        /// Fairness knob: a sleeping machine is forcibly woken after this
        /// many consecutive pass-overs. Tighter bounds wake sleepers sooner
        /// (fairer, less pruning); looser bounds prune more. The default is
        /// [`SleepSetScheduler::WAKE_AFTER_SKIPS`].
        wake_after_skips: u32,
    },
    /// Dynamic partial-order reduction: vector-clock happens-before tracking
    /// over the footprint stream, race detection between concurrent
    /// dependent steps, and backtrack points that re-prioritize the racing
    /// machine — composed with sleep sets and a run-to-completion bias on
    /// provably-local steps.
    Dpor,
}

impl SchedulerKind {
    /// The sleep-set kind with its default fairness bound.
    pub fn sleep_set() -> SchedulerKind {
        SchedulerKind::SleepSet {
            wake_after_skips: SleepSetScheduler::WAKE_AFTER_SKIPS,
        }
    }

    /// Builds a scheduler of this kind for one execution.
    ///
    /// `seed` parameterizes the random choices; `max_steps` is used by PCT to
    /// place its priority change points.
    pub fn build(self, seed: u64, max_steps: usize) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Random => Box::new(RandomScheduler::new(seed)),
            SchedulerKind::Pct { change_points } => {
                Box::new(PctScheduler::new(seed, change_points, max_steps))
            }
            SchedulerKind::DelayBounding { delays } => {
                Box::new(DelayBoundingScheduler::new(seed, delays, max_steps))
            }
            SchedulerKind::ProbabilisticRandom { switch_percent } => Box::new(
                ProbabilisticRandomScheduler::new(seed, switch_percent).with_horizon(max_steps),
            ),
            SchedulerKind::RoundRobin => Box::new(RoundRobinScheduler::seeded(seed)),
            SchedulerKind::SleepSet { wake_after_skips } => {
                Box::new(SleepSetScheduler::new(seed).with_wake_after_skips(wake_after_skips))
            }
            SchedulerKind::Dpor => Box::new(DporScheduler::new(seed).with_horizon(max_steps)),
        }
    }

    /// The default strategy portfolio for portfolio testing, nine entries:
    /// random scheduling, PCT with three priority-change budgets (2, 5, 10),
    /// delay-bounding, a probabilistic random walk, round-robin, sleep-set
    /// partial-order reduction and vector-clock DPOR.
    ///
    /// Iterations are assigned strategies by
    /// [`TestConfig::strategy_for_iteration`](crate::engine::TestConfig::strategy_for_iteration),
    /// a seed-derived pick over this list, so every strategy gets an equal
    /// share of the iteration space at any worker count.
    pub fn default_portfolio() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::Random,
            SchedulerKind::Pct { change_points: 2 },
            SchedulerKind::Pct { change_points: 5 },
            SchedulerKind::Pct { change_points: 10 },
            SchedulerKind::DelayBounding { delays: 2 },
            SchedulerKind::ProbabilisticRandom { switch_percent: 10 },
            SchedulerKind::RoundRobin,
            SchedulerKind::sleep_set(),
            SchedulerKind::Dpor,
        ]
    }

    /// The short name of the scheduler this kind builds.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Random => "random",
            SchedulerKind::Pct { .. } => "pct",
            SchedulerKind::DelayBounding { .. } => "delay",
            SchedulerKind::ProbabilisticRandom { .. } => "prob",
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::SleepSet { .. } => "sleep-set",
            SchedulerKind::Dpor => "dpor",
        }
    }

    /// A description that also distinguishes parameterizations of the same
    /// strategy ("pct(cp=2)" vs "pct(cp=5)"), used to key per-strategy
    /// attribution in portfolio runs.
    pub fn describe(self) -> String {
        match self {
            SchedulerKind::Pct { change_points } => format!("pct(cp={change_points})"),
            SchedulerKind::DelayBounding { delays } => format!("delay(d={delays})"),
            SchedulerKind::ProbabilisticRandom { switch_percent } => {
                format!("prob(p={switch_percent})")
            }
            SchedulerKind::SleepSet { wake_after_skips }
                if wake_after_skips != SleepSetScheduler::WAKE_AFTER_SKIPS =>
            {
                format!("sleep-set(w={wake_after_skips})")
            }
            other => other.label().to_string(),
        }
    }
}

/// Position of `id` in `enabled`, if it is enabled. `enabled` is sorted by id
/// (the [`Scheduler::next_machine`] contract), so this is a binary search.
fn position_of(enabled: &[MachineId], id: MachineId) -> Option<usize> {
    enabled.binary_search(&id).ok()
}

/// The first enabled machine whose raw id is at least `raw`, wrapping around
/// to the lowest enabled id.
fn first_at_or_after(enabled: &[MachineId], raw: u64) -> MachineId {
    // While a system drains in id order (machines run once and go idle) the
    // answer is the lowest enabled id; test that before searching.
    if enabled[0].raw() >= raw {
        return enabled[0];
    }
    let at = enabled.partition_point(|id| id.raw() < raw);
    enabled.get(at).copied().unwrap_or(enabled[0])
}

/// Grows a table indexed by [`MachineId::index`] until `index` is in range:
/// exactly to fit while empty (one allocation, at the first pick), at least
/// doubling afterwards (machines created later in the execution).
fn cover<T: Clone>(table: &mut Vec<T>, index: usize, vacant: T) {
    if index >= table.len() {
        let len = (index + 1).max(table.len() * 2);
        table.resize(len, vacant);
    }
}

/// Uniformly random scheduler.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: SplitMix64,
    fault_gate: FaultGate,
}

impl RandomScheduler {
    /// Creates a random scheduler driven by `seed`.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: SplitMix64::new(seed),
            fault_gate: FaultGate::new(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn name(&self) -> &'static str {
        "random"
    }

    fn next_machine(&mut self, enabled: &[MachineId], _step: usize) -> MachineId {
        enabled[self.rng.next_below(enabled.len())]
    }

    fn next_bool(&mut self) -> bool {
        self.rng.next_bool()
    }

    fn next_int(&mut self, bound: usize) -> usize {
        self.rng.next_below(bound)
    }

    fn next_fault(&mut self, candidates: &[Fault], _step: usize) -> Option<Fault> {
        self.fault_gate.pick(candidates)
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        Some(Box::new(self.clone()))
    }
}

/// Randomized priority-based scheduler (PCT).
///
/// Every machine receives a random priority when first seen. The scheduler
/// always runs the highest-priority enabled machine. At `change_points`
/// randomly chosen steps of the execution, the priority of the currently
/// highest-priority enabled machine is dropped below all others, forcing a
/// context switch at an adversarial moment.
///
/// Strict priority scheduling is unfair: one machine can monopolise the whole
/// bounded execution, which would make every liveness property look violated.
/// Like P#'s liveness checking, the scheduler therefore switches to a *fair*
/// (uniformly random) tail for the second half of the step bound, so that a
/// hot liveness monitor at the bound reflects a genuine lack of progress
/// rather than scheduler starvation.
#[derive(Debug, Clone)]
pub struct PctScheduler {
    rng: SplitMix64,
    /// Priority per machine, indexed by [`MachineId::index`];
    /// [`PctScheduler::UNASSIGNED`] until the machine is first seen enabled.
    priorities: Vec<u64>,
    change_steps: Vec<usize>,
    next_change: usize,
    next_low_priority: u64,
    fair_after: usize,
    fault_gate: FaultGate,
}

impl PctScheduler {
    /// Marks a machine that has not drawn its priority yet (real priorities
    /// stay below 2,000,000).
    const UNASSIGNED: u64 = u64::MAX;

    /// Creates a PCT scheduler with `change_points` priority change switches
    /// placed uniformly over the priority-driven prefix of an execution of at
    /// most `max_steps` steps.
    ///
    /// Priorities only drive scheduling before the fair tail takes over at
    /// `max_steps / 2`, so the change points are sampled over `[0,
    /// max_steps / 2)`: a change point landing in the tail would never be
    /// applied and its share of the d-bounded budget would silently go to
    /// waste.
    pub fn new(seed: u64, change_points: usize, max_steps: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let horizon = max_steps.max(1);
        let fair_after = horizon / 2;
        // `fair_after` can be zero for degenerate 1-step horizons; sampling
        // over `[0, 1)` keeps the constructor total (the single change point
        // position is then in the tail and simply never fires).
        let prefix = fair_after.max(1);
        let mut change_steps: Vec<usize> =
            (0..change_points).map(|_| rng.next_below(prefix)).collect();
        change_steps.sort_unstable();
        PctScheduler {
            rng,
            priorities: Vec::new(),
            change_steps,
            next_change: 0,
            next_low_priority: 0,
            fair_after,
            fault_gate: FaultGate::new(seed),
        }
    }

    /// The highest-priority enabled machine, in one pass: a machine seen for
    /// the first time draws its priority on the way (so draws happen in id
    /// order), and of equal priorities — a thousand machines draw from a band
    /// of a million, so they occur — the highest id wins. Every enabled id
    /// must be within the table.
    fn top(&mut self, enabled: &[MachineId]) -> MachineId {
        let mut top = (enabled[0], 0);
        for &id in enabled {
            let priority = &mut self.priorities[id.index()];
            if *priority == Self::UNASSIGNED {
                // New machines receive a random high priority band so they
                // can preempt or be preempted; the low band is reserved for
                // change points.
                *priority = 1_000_000 + self.rng.next_below(1_000_000) as u64;
            }
            if *priority >= top.1 {
                top = (id, *priority);
            }
        }
        top.0
    }
}

impl Scheduler for PctScheduler {
    fn name(&self) -> &'static str {
        "pct"
    }

    fn next_machine(&mut self, enabled: &[MachineId], step: usize) -> MachineId {
        if step >= self.fair_after {
            // Fair tail: see the type-level documentation.
            return enabled[self.rng.next_below(enabled.len())];
        }
        let highest = enabled[enabled.len() - 1];
        cover(&mut self.priorities, highest.index(), Self::UNASSIGNED);
        // At a change point, deprioritize the currently highest enabled
        // machine. Every change point due at this step is consumed *now*:
        // duplicate or clustered change points fire together (each demoting
        // the then-highest machine) instead of drifting to later steps, which
        // would distort where in the execution the priority changes land.
        while self.next_change < self.change_steps.len()
            && step >= self.change_steps[self.next_change]
        {
            self.next_change += 1;
            let top = self.top(enabled);
            self.priorities[top.index()] = self.next_low_priority;
            self.next_low_priority += 1;
        }
        self.top(enabled)
    }

    fn next_bool(&mut self) -> bool {
        self.rng.next_bool()
    }

    fn next_int(&mut self, bound: usize) -> usize {
        self.rng.next_below(bound)
    }

    fn next_fault(&mut self, candidates: &[Fault], _step: usize) -> Option<Fault> {
        self.fault_gate.pick(candidates)
    }

    fn unfair_prefix_len(&self) -> Option<usize> {
        Some(self.fair_after)
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        Some(Box::new(self.clone()))
    }
}

/// Delay-bounded scheduler (Emmi et al., POPL'11).
///
/// The scheduler follows a deterministic base strategy — keep running the
/// current machine while it stays enabled, then move to the next enabled
/// machine in id order — and perturbs it with at most `delays` *delays* per
/// execution, placed at random steps. A delay skips the machine the base
/// strategy would have run and hands the step to the next enabled machine
/// instead, emulating an adversarial preemption. Many concurrency bugs are
/// reachable with very few delays (the delay-bounding hypothesis), so small
/// budgets explore a focused, qualitatively different slice of the schedule
/// space than uniform randomness.
///
/// Like [`PctScheduler`], the deterministic base schedule is unfair (it can
/// starve machines for the whole bounded execution, making every liveness
/// property look violated), so the scheduler switches to a fair (uniformly
/// random) tail for the second half of the step bound, and its delays are
/// sampled over the deterministic prefix where they actually matter.
#[derive(Debug, Clone)]
pub struct DelayBoundingScheduler {
    rng: SplitMix64,
    delay_steps: Vec<usize>,
    next_delay: usize,
    current: Option<MachineId>,
    fair_after: usize,
    fault_gate: FaultGate,
}

impl DelayBoundingScheduler {
    /// Creates a delay-bounding scheduler with `delays` delays placed
    /// uniformly over the deterministic prefix of an execution of at most
    /// `max_steps` steps.
    pub fn new(seed: u64, delays: usize, max_steps: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let horizon = max_steps.max(1);
        let fair_after = horizon / 2;
        let prefix = fair_after.max(1);
        let mut delay_steps: Vec<usize> = (0..delays).map(|_| rng.next_below(prefix)).collect();
        delay_steps.sort_unstable();
        DelayBoundingScheduler {
            rng,
            delay_steps,
            next_delay: 0,
            current: None,
            fair_after,
            fault_gate: FaultGate::new(seed),
        }
    }

    /// The first enabled machine with id strictly greater than `after`,
    /// wrapping around to the lowest id.
    fn successor(enabled: &[MachineId], after: MachineId) -> MachineId {
        first_at_or_after(enabled, after.raw() + 1)
    }
}

impl Scheduler for DelayBoundingScheduler {
    fn name(&self) -> &'static str {
        "delay"
    }

    fn next_machine(&mut self, enabled: &[MachineId], step: usize) -> MachineId {
        if step >= self.fair_after {
            // Fair tail: see the type-level documentation.
            let choice = enabled[self.rng.next_below(enabled.len())];
            self.current = Some(choice);
            return choice;
        }
        // Deterministic base: run-to-completion on the current machine, then
        // the next enabled machine in id order.
        let mut choice = match self.current {
            Some(current) if position_of(enabled, current).is_some() => current,
            Some(current) => Self::successor(enabled, current),
            None => enabled[0],
        };
        // Every delay due at this step defers the chosen machine once more.
        while self.next_delay < self.delay_steps.len() && step >= self.delay_steps[self.next_delay]
        {
            self.next_delay += 1;
            choice = Self::successor(enabled, choice);
        }
        self.current = Some(choice);
        choice
    }

    fn next_bool(&mut self) -> bool {
        self.rng.next_bool()
    }

    fn next_int(&mut self, bound: usize) -> usize {
        self.rng.next_below(bound)
    }

    fn next_fault(&mut self, candidates: &[Fault], _step: usize) -> Option<Fault> {
        self.fault_gate.pick(candidates)
    }

    fn unfair_prefix_len(&self) -> Option<usize> {
        Some(self.fair_after)
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        Some(Box::new(self.clone()))
    }
}

/// Probabilistic random-walk scheduler (Coyote's probabilistic strategy).
///
/// Keeps scheduling the current machine while it stays enabled and, with
/// `switch_percent`% probability at each step, context-switches to a
/// uniformly random *other* enabled machine (excluding the current one, so
/// the configured probability is the true per-step context-switch rate).
/// Low switch probabilities explore long
/// uninterrupted stretches of a single machine's behavior — schedules a
/// uniformly random scheduler (which switches with probability
/// `(n-1)/n` every step) essentially never produces.
#[derive(Debug, Clone)]
pub struct ProbabilisticRandomScheduler {
    rng: SplitMix64,
    switch_percent: u32,
    current: Option<MachineId>,
    /// The bounded horizon of the execution, reported as the strategy's
    /// starvation-prone prefix: the walk can park on one machine for long
    /// stretches at *any* point of the run, so liveness verdicts at the
    /// bound always go through the runtime's fair grace period.
    horizon: Option<usize>,
    fault_gate: FaultGate,
}

impl ProbabilisticRandomScheduler {
    /// Creates a probabilistic random scheduler that switches with
    /// `switch_percent`% probability per step (clamped to `0..=100`).
    pub fn new(seed: u64, switch_percent: u32) -> Self {
        ProbabilisticRandomScheduler {
            rng: SplitMix64::new(seed),
            switch_percent: switch_percent.min(100),
            current: None,
            horizon: None,
            fault_gate: FaultGate::new(seed),
        }
    }

    /// Declares the step bound of the executions this scheduler will drive,
    /// enabling the liveness grace period for its starvation-prone walk.
    pub fn with_horizon(mut self, max_steps: usize) -> Self {
        self.horizon = Some(max_steps);
        self
    }
}

impl Scheduler for ProbabilisticRandomScheduler {
    fn name(&self) -> &'static str {
        "prob"
    }

    fn next_machine(&mut self, enabled: &[MachineId], _step: usize) -> MachineId {
        let position = self
            .current
            .and_then(|current| position_of(enabled, current));
        let choice = match position {
            Some(position) => {
                let switch = self.rng.next_bool_ratio(self.switch_percent as u64, 100);
                if switch && enabled.len() > 1 {
                    // Switch to a uniformly random *other* machine: including
                    // the current one in the draw would silently shrink the
                    // effective switch probability to `p * (n-1)/n`.
                    let pick = self.rng.next_below(enabled.len() - 1);
                    enabled[if pick >= position { pick + 1 } else { pick }]
                } else {
                    enabled[position]
                }
            }
            None => enabled[self.rng.next_below(enabled.len())],
        };
        self.current = Some(choice);
        choice
    }

    fn next_bool(&mut self) -> bool {
        self.rng.next_bool()
    }

    fn next_int(&mut self, bound: usize) -> usize {
        self.rng.next_below(bound)
    }

    fn next_fault(&mut self, candidates: &[Fault], _step: usize) -> Option<Fault> {
        self.fault_gate.pick(candidates)
    }

    fn unfair_prefix_len(&self) -> Option<usize> {
        self.horizon
    }

    fn fair_step_spacing(&self, machines: usize) -> usize {
        // The walk switches away from the current machine with
        // `switch_percent`% probability per step, so it reaches any given
        // other machine ~100/p times more slowly than uniform randomness.
        machines
            .saturating_mul((100 / self.switch_percent.max(1)) as usize)
            .max(machines)
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        Some(Box::new(self.clone()))
    }
}

/// Deterministic round-robin scheduler.
///
/// Used as an ablation baseline; it explores only one schedule per
/// configuration so it rarely exposes ordering bugs, but its nondeterministic
/// value choices still vary via the cursor-free deterministic pattern
/// (alternating booleans, zero integers). Fault probing is the exception:
/// [`RoundRobinScheduler::seeded`] derives the fault stream from the
/// execution seed (as every other strategy does), so in fault-injection
/// mode the round-robin entry of a portfolio still explores a different
/// fault timing per iteration instead of one fixed schedule forever.
#[derive(Debug, Clone)]
pub struct RoundRobinScheduler {
    cursor: u64,
    flip: bool,
    fault_gate: FaultGate,
}

impl Default for RoundRobinScheduler {
    fn default() -> Self {
        RoundRobinScheduler::seeded(0)
    }
}

impl RoundRobinScheduler {
    /// Creates a round-robin scheduler (fault probes seeded with 0).
    pub fn new() -> Self {
        RoundRobinScheduler::default()
    }

    /// Creates a round-robin scheduler whose fault-probe stream is derived
    /// from `seed`. Scheduling and value choices stay deterministic.
    pub fn seeded(seed: u64) -> Self {
        RoundRobinScheduler {
            cursor: 0,
            flip: false,
            fault_gate: FaultGate::new(seed),
        }
    }
}

impl Scheduler for RoundRobinScheduler {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn next_machine(&mut self, enabled: &[MachineId], _step: usize) -> MachineId {
        // Pick the first enabled machine with id >= cursor, wrapping around.
        let chosen = first_at_or_after(enabled, self.cursor);
        self.cursor = chosen.raw() + 1;
        chosen
    }

    fn next_bool(&mut self) -> bool {
        self.flip = !self.flip;
        self.flip
    }

    fn next_int(&mut self, _bound: usize) -> usize {
        0
    }

    fn next_fault(&mut self, candidates: &[Fault], _step: usize) -> Option<Fault> {
        self.fault_gate.pick(candidates)
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        Some(Box::new(self.clone()))
    }
}

/// The sleep set shared by [`SleepSetScheduler`] and [`DporScheduler`]: which
/// machines are asleep and how often each has been passed over since it fell
/// asleep.
///
/// The state is a table indexed by [`MachineId::index`], so waking, sleeping
/// and testing one machine are O(1) and a pick costs two passes over the
/// enabled slice. On a wide system most machines are asleep at once (one that
/// went idle after a local step does not age, so it stays asleep until
/// something sends to it), so a search per sleeper would make the pick
/// quadratic in the width.
#[derive(Debug, Clone)]
struct SleepSet {
    /// Consecutive pass-overs since the machine fell asleep, or
    /// [`SleepSet::AWAKE`]. Machines beyond the table are awake.
    skips: Vec<u32>,
    /// Scratch buffer for the awake subset of the enabled set (reused across
    /// steps; the hot path stays allocation-free once warmed up).
    awake_buf: Vec<MachineId>,
    /// Fairness bound: sleepers are forcibly woken after this many
    /// consecutive pass-overs (see [`SleepSetScheduler::WAKE_AFTER_SKIPS`]).
    wake_after_skips: u32,
}

impl SleepSet {
    const AWAKE: u32 = u32::MAX;

    fn new(wake_after_skips: u32) -> Self {
        SleepSet {
            skips: Vec::new(),
            awake_buf: Vec::new(),
            wake_after_skips,
        }
    }

    fn is_asleep(&self, machine: MachineId) -> bool {
        self.skips
            .get(machine.index())
            .is_some_and(|&skips| skips != Self::AWAKE)
    }

    fn wake(&mut self, machine: MachineId) {
        if let Some(skips) = self.skips.get_mut(machine.index()) {
            *skips = Self::AWAKE;
        }
    }

    /// Puts `machine` to sleep; one already asleep keeps its pass-over count.
    fn sleep(&mut self, machine: MachineId) {
        cover(&mut self.skips, machine.index(), Self::AWAKE);
        let skips = &mut self.skips[machine.index()];
        if *skips == Self::AWAKE {
            *skips = 0;
        }
    }

    /// Wakes every machine.
    fn clear(&mut self) {
        self.skips.fill(Self::AWAKE);
    }

    #[cfg(test)]
    fn sleepers(&self) -> usize {
        self.skips.iter().filter(|&&s| s != Self::AWAKE).count()
    }

    /// Collects the awake subset of `enabled` into `awake_buf`, in id order.
    fn fill_awake(&mut self, enabled: &[MachineId]) {
        // Covering the highest enabled id here sizes the table once, at the
        // first pick, and keeps `sleep` of any machine that ran in range.
        let highest = enabled[enabled.len() - 1];
        cover(&mut self.skips, highest.index(), Self::AWAKE);
        self.awake_buf.clear();
        self.awake_buf.reserve(enabled.len());
        for &machine in enabled {
            if !self.is_asleep(machine) {
                self.awake_buf.push(machine);
            }
        }
    }

    /// The sleep-set pick: a uniformly random awake machine, or — when every
    /// enabled machine is asleep and something must run — a uniformly random
    /// enabled one, which wakes; the branches through the other sleepers stay
    /// pruned. Ages the sleepers it passes over. Returns the pick and the
    /// number of equivalent branches it pruned.
    fn pick(&mut self, enabled: &[MachineId], rng: &mut SplitMix64) -> (MachineId, u64) {
        self.fill_awake(enabled);
        let (chosen, pruned) = if self.awake_buf.is_empty() {
            let chosen = enabled[rng.next_below(enabled.len())];
            self.wake(chosen);
            (chosen, enabled.len() - 1)
        } else {
            let chosen = self.awake_buf[rng.next_below(self.awake_buf.len())];
            (chosen, enabled.len() - self.awake_buf.len())
        };
        self.age(enabled, chosen);
        (chosen, pruned as u64)
    }

    /// Ages every enabled sleeper that was passed over by picking `chosen`,
    /// waking the ones that hit the fairness bound.
    fn age(&mut self, enabled: &[MachineId], chosen: MachineId) {
        for &machine in enabled {
            let Some(skips) = self.skips.get_mut(machine.index()) else {
                continue;
            };
            if *skips != Self::AWAKE && machine != chosen {
                *skips += 1;
                if *skips >= self.wake_after_skips {
                    *skips = Self::AWAKE;
                }
            }
        }
    }

    /// Sleep-set bookkeeping for an executed step: every delivery creates a
    /// new dependency and wakes its receiver; a machine whose step was local
    /// sleeps — unless it is `running`, the machine the caller keeps
    /// scheduling on purpose — and one whose step was not wakes.
    fn note(&mut self, footprint: &StepFootprint, running: Option<MachineId>) {
        for &target in &footprint.sends {
            self.wake(target);
        }
        if !footprint.is_local() {
            self.wake(footprint.machine);
        } else if running != Some(footprint.machine) {
            self.sleep(footprint.machine);
        }
    }
}

/// Sleep-set partial-order reduction over a uniformly random base schedule.
///
/// Classic sleep sets (Godefroid) prune a *stateless search tree*: after
/// exploring a step `t` from a state, sibling branches need not re-explore
/// interleavings where `t` commutes with the step they start with. This
/// scheduler applies the same idea linearly, one execution at a time, using
/// the per-step [`StepFootprint`]s the runtime reports:
///
/// * A machine whose last executed step was **local** — it delivered no
///   message and touched no monitor, so it commutes with any step of another
///   machine that does not send to it — is put to sleep. While it sleeps,
///   scheduling points prefer awake machines: picking the sleeper next would
///   produce an execution equivalent (up to commutation of its already-taken
///   local step) to one where it runs later anyway. Every pass-over is
///   counted as one pruned equivalent branch
///   ([`Scheduler::pruned_equivalents`]).
/// * A sleeping machine **wakes** as soon as any step sends to it (a new
///   dependency), when every enabled machine is asleep (something must run;
///   the random pick wakes), when a fault fires (faults invalidate
///   commutativity assumptions wholesale), or after
///   [`SleepSetScheduler::WAKE_AFTER_SKIPS`] consecutive pass-overs — a
///   fairness bound that keeps the strategy sound for liveness checking:
///   no machine is ever starved for more than a constant number of
///   scheduling points.
///
/// The recorded trace contains only the final picks, so replay and shrinking
/// work unchanged. The pruning is a heuristic under-approximation of full
/// DPOR — it never skips a schedule that is *not* observationally equivalent
/// to a neighboring one under the independence rules above, but it also
/// cannot prune across long distances. `por_soundness.rs` checks the
/// strategy still finds every seeded case-study bug.
#[derive(Debug, Clone)]
pub struct SleepSetScheduler {
    rng: SplitMix64,
    fault_gate: FaultGate,
    sleep_set: SleepSet,
    pruned: u64,
}

impl SleepSetScheduler {
    /// Default fairness bound: a sleeping machine is forcibly woken after
    /// this many consecutive pass-overs, bounding how long sleep sets can
    /// defer any machine.
    pub const WAKE_AFTER_SKIPS: u32 = 8;

    /// Creates a sleep-set scheduler driven by `seed`.
    pub fn new(seed: u64) -> Self {
        SleepSetScheduler {
            rng: SplitMix64::new(seed),
            fault_gate: FaultGate::new(seed),
            sleep_set: SleepSet::new(Self::WAKE_AFTER_SKIPS),
            pruned: 0,
        }
    }

    /// Overrides the fairness bound: a tighter bound wakes sleepers sooner
    /// (less pruning, tighter starvation guarantee), a looser one prunes
    /// more. Clamped to at least 1 so every sleeper is still woken
    /// eventually.
    pub fn with_wake_after_skips(mut self, skips: u32) -> Self {
        self.sleep_set.wake_after_skips = skips.max(1);
        self
    }
}

impl Scheduler for SleepSetScheduler {
    fn name(&self) -> &'static str {
        "sleep-set"
    }

    fn next_machine(&mut self, enabled: &[MachineId], _step: usize) -> MachineId {
        let (chosen, pruned) = self.sleep_set.pick(enabled, &mut self.rng);
        self.pruned += pruned;
        chosen
    }

    fn next_bool(&mut self) -> bool {
        self.rng.next_bool()
    }

    fn next_int(&mut self, bound: usize) -> usize {
        self.rng.next_below(bound)
    }

    fn next_fault(&mut self, candidates: &[Fault], _step: usize) -> Option<Fault> {
        let fault = self.fault_gate.pick(candidates);
        if fault.is_some() {
            // A fault mutates machines and mailboxes outside any handler:
            // all commutativity assumptions are off.
            self.sleep_set.clear();
        }
        fault
    }

    fn note_footprint(&mut self, footprint: &StepFootprint) {
        self.sleep_set.note(footprint, None);
    }

    fn pruned_equivalents(&self) -> u64 {
        self.pruned
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        Some(Box::new(self.clone()))
    }
}

/// Number of machines whose vector clocks the DPOR scheduler tracks at
/// once. Systems with more live machines than slots share them through LRU
/// eviction: an evicted machine's clock restarts from zero, which loses
/// happens-before edges and only weakens the *reduction* (extra backtracks,
/// missed races), never soundness. 24 slots cover every bundled case study's
/// hot set while keeping the per-step clock work constant.
const CLOCK_SLOTS: usize = 24;
/// Per-machine ring of in-flight message clocks (the sender's clock at send
/// time, joined into the receiver's clock when it next steps). Overflow
/// drops the oldest row — a lost happens-before edge, conservative as above.
const PENDING_CLOCKS: usize = 4;
/// How many recently executed steps are scanned for races against each new
/// step.
const RECENT_STEPS: usize = 8;
/// Send targets remembered per recent step; steps that sent to more targets
/// set an overflow flag and are conservatively treated as dependent on any
/// sending step.
const RACE_SENDS: usize = 4;
/// Maximum consecutive steps the DPOR scheduler keeps running one machine
/// whose steps stay provably local (its run-to-completion bias), bounding
/// starvation of the deferred machines.
const STICKY_CAP: u32 = 16;
/// Bounded queue of pending backtrack picks.
const BACKTRACK_CAP: usize = 8;
/// Maximum consecutive scheduling points resolved from the backtrack queue.
/// Races can arrive faster than backtracks are consumed (every step is
/// scanned against [`RECENT_STEPS`] predecessors), so without a cap two
/// racing machines can ping-pong through the queue forever and starve every
/// other machine unboundedly — past even the liveness grace window. After
/// this many forced picks in a row one ordinary (sleep-set) pick intervenes,
/// making the queue's priority fairness-bounded like the sticky bias.
const BACKTRACK_RUN_CAP: u32 = 16;

/// A windowed per-machine vector-clock table.
///
/// Row `s` of `clock` is the current vector clock of the machine owning slot
/// `s`; component `clock[s][t]` counts the latest step of slot `t`'s machine
/// known (via message or global-effect chains) to happen before slot `s`'s
/// machine's current state. `pending` holds, per slot, a FIFO ring of sender
/// clocks for messages delivered to that machine but not yet handled.
#[derive(Debug, Clone)]
struct ClockWindow {
    owner: Vec<Option<MachineId>>,
    last_used: Vec<u64>,
    /// `CLOCK_SLOTS × CLOCK_SLOTS`, row-major by slot.
    clock: Vec<u32>,
    /// `CLOCK_SLOTS × PENDING_CLOCKS × CLOCK_SLOTS`.
    pending: Vec<u32>,
    pending_head: Vec<usize>,
    pending_len: Vec<usize>,
    /// Monotonic touch counter driving LRU eviction (deterministic: advanced
    /// once per lookup, never wall-clock).
    touch: u64,
}

impl ClockWindow {
    fn new() -> Self {
        ClockWindow {
            owner: vec![None; CLOCK_SLOTS],
            last_used: vec![0; CLOCK_SLOTS],
            clock: vec![0; CLOCK_SLOTS * CLOCK_SLOTS],
            pending: vec![0; CLOCK_SLOTS * PENDING_CLOCKS * CLOCK_SLOTS],
            pending_head: vec![0; CLOCK_SLOTS],
            pending_len: vec![0; CLOCK_SLOTS],
            touch: 0,
        }
    }

    /// The slot owned by `machine`, assigning (and possibly evicting the
    /// least-recently-used slot) on a miss. Returns `(slot, evicted)`;
    /// `evicted` tells the caller to invalidate any recorded state keyed to
    /// the reused slot.
    fn slot_of(&mut self, machine: MachineId) -> (usize, bool) {
        self.touch += 1;
        if let Some(i) = self.owner.iter().position(|o| *o == Some(machine)) {
            self.last_used[i] = self.touch;
            return (i, false);
        }
        let slot = match self.owner.iter().position(|o| o.is_none()) {
            Some(free) => free,
            None => {
                // Evict the least-recently-used machine's slot.
                (0..CLOCK_SLOTS)
                    .min_by_key(|&i| self.last_used[i])
                    .expect("CLOCK_SLOTS > 0")
            }
        };
        let evicted = self.owner[slot].is_some();
        self.owner[slot] = Some(machine);
        self.last_used[slot] = self.touch;
        self.row_mut(slot).fill(0);
        self.pending_head[slot] = 0;
        self.pending_len[slot] = 0;
        (slot, evicted)
    }

    fn row(&self, slot: usize) -> &[u32] {
        &self.clock[slot * CLOCK_SLOTS..(slot + 1) * CLOCK_SLOTS]
    }

    fn row_mut(&mut self, slot: usize) -> &mut [u32] {
        &mut self.clock[slot * CLOCK_SLOTS..(slot + 1) * CLOCK_SLOTS]
    }

    /// Advances slot `slot`'s own component: its machine took a step.
    fn tick(&mut self, slot: usize) {
        self.clock[slot * CLOCK_SLOTS + slot] += 1;
    }

    /// Joins the oldest pending message clock (if any) into `slot`'s clock:
    /// the machine's next step handles the oldest message in its FIFO
    /// mailbox, so everything that happened before the send happens before
    /// the handling step.
    fn join_oldest_pending(&mut self, slot: usize) {
        if self.pending_len[slot] == 0 {
            return;
        }
        let head = self.pending_head[slot];
        let base = (slot * PENDING_CLOCKS + head) * CLOCK_SLOTS;
        for i in 0..CLOCK_SLOTS {
            let sent = self.pending[base + i];
            let own = &mut self.clock[slot * CLOCK_SLOTS + i];
            *own = (*own).max(sent);
        }
        self.pending_head[slot] = (head + 1) % PENDING_CLOCKS;
        self.pending_len[slot] -= 1;
    }

    /// Appends `sender_clock` to `slot`'s pending ring, dropping the oldest
    /// row when full (a conservatively lost happens-before edge).
    fn push_pending(&mut self, slot: usize, sender_clock: &[u32]) {
        let pos = if self.pending_len[slot] == PENDING_CLOCKS {
            let head = self.pending_head[slot];
            self.pending_head[slot] = (head + 1) % PENDING_CLOCKS;
            (head + PENDING_CLOCKS - 1) % PENDING_CLOCKS
        } else {
            let pos = (self.pending_head[slot] + self.pending_len[slot]) % PENDING_CLOCKS;
            self.pending_len[slot] += 1;
            pos
        };
        let base = (slot * PENDING_CLOCKS + pos) * CLOCK_SLOTS;
        self.pending[base..base + CLOCK_SLOTS].copy_from_slice(sender_clock);
    }
}

/// One executed step remembered for race detection.
#[derive(Debug, Clone)]
struct RecentStep {
    valid: bool,
    machine: MachineId,
    slot: usize,
    /// The step's vector clock (a copy of its machine's clock right after
    /// the step).
    clock: Vec<u32>,
    sends: [MachineId; RACE_SENDS],
    send_count: usize,
    sends_overflow: bool,
    global: bool,
}

impl RecentStep {
    fn empty() -> Self {
        RecentStep {
            valid: false,
            machine: MachineId::from_raw(u64::MAX),
            slot: 0,
            clock: vec![0; CLOCK_SLOTS],
            sends: [MachineId::from_raw(u64::MAX); RACE_SENDS],
            send_count: 0,
            sends_overflow: false,
            global: false,
        }
    }
}

/// Dynamic partial-order reduction over the footprint stream.
///
/// The scheduler maintains per-machine **vector clocks** from the
/// [`StepFootprint`]s the runtime reports: a machine's step ticks its own
/// component, handling a message joins the sender's clock at send time
/// (deliveries establish happens-before), and steps with global side effects
/// (monitor notifications, machine creation, value choices) serialize
/// through a shared global clock — exactly the dependency rules of
/// [`StepFootprint::independent`]. Two dependent steps whose clocks do not
/// order them are a **race**: the executed order was a scheduling accident,
/// and the reversed order may reach different states. Each detected race
/// enqueues a **backtrack point** for the earlier step's machine, which the
/// next scheduling point consumes (source-DPOR's "schedule the racing
/// alternative"), steering exploration toward the unexplored order. Picks
/// are recorded as ordinary `Schedule` decisions, so replay, shrinking and
/// fault injection compose unchanged.
///
/// On top of the race machinery the scheduler composes the
/// [`SleepSetScheduler`] pruning rules with a *run-to-completion bias*:
/// having picked a machine, it keeps running it while its steps stay
/// provably local (up to a fairness cap), crediting one pruned equivalent
/// branch per deferred machine only **after** the footprint confirms the
/// step was local. Deferring provably-independent work avoids the wake
/// churn that caps plain sleep sets' pruning at their fairness bound, which
/// is what makes this strategy's redundancy ratio scale with the number of
/// independent machines instead.
///
/// All clock state is bounded (`CLOCK_SLOTS`-machine LRU window, bounded
/// pending rings and race-scan window): beyond the window the scheduler
/// degrades gracefully to sleep-set behavior; it never prunes *more*
/// aggressively for machines it lost track of, and its fairness bounds
/// (sticky cap, sleep-set wake bound, backtrack run cap) are unconditional.
/// The strategy is still starvation-prone *within* those bounds, so it
/// declares its horizon as an unfair prefix and the runtime confirms
/// hot-at-bound liveness verdicts over a fair grace period, exactly like
/// PCT and the probabilistic walk. `por_soundness.rs` checks the strategy
/// still finds every seeded case-study bug and keeps every fixed system
/// clean.
#[derive(Debug, Clone)]
pub struct DporScheduler {
    rng: SplitMix64,
    fault_gate: FaultGate,
    /// The same sleep set [`SleepSetScheduler`] keeps.
    sleep_set: SleepSet,
    /// Windowed vector clocks.
    clocks: ClockWindow,
    /// Join of the clocks of every global-effect step: such steps are
    /// pairwise dependent, so they are totally ordered through this row.
    global_row: Vec<u32>,
    /// Scratch row for clock copies (hot path stays allocation-free).
    scratch: Vec<u32>,
    /// Ring of recent steps scanned for races.
    recent: Vec<RecentStep>,
    recent_next: usize,
    /// Machines queued to run at upcoming scheduling points because an
    /// earlier step of theirs raced (FIFO, bounded).
    backtrack_queue: Vec<MachineId>,
    /// Run-to-completion bias: the machine currently being run, and for how
    /// many consecutive picks.
    sticky: Option<MachineId>,
    sticky_run: u32,
    /// Consecutive scheduling points resolved from the backtrack queue; at
    /// [`BACKTRACK_RUN_CAP`] an ordinary pick intervenes (fairness bound).
    backtrack_run: u32,
    /// Pruning credit granted at the last sticky pick, banked only once the
    /// footprint confirms the step was local.
    pending_prune: u64,
    pruned: u64,
    races: u64,
    backtracks: u64,
    /// The bounded horizon of the execution, reported as the strategy's
    /// starvation-prone prefix: the run-to-completion bias and backtrack
    /// priority can defer any given machine for long stretches at *any*
    /// point of the run, so liveness verdicts at the step bound need the
    /// fair grace period (see [`Scheduler::unfair_prefix_len`]).
    horizon: Option<usize>,
}

impl DporScheduler {
    /// Creates a DPOR scheduler driven by `seed`. All clock structures are
    /// preallocated here so the per-step hot path never allocates (the sleep
    /// set sizes its table once, at the first pick).
    pub fn new(seed: u64) -> Self {
        DporScheduler {
            rng: SplitMix64::new(seed),
            fault_gate: FaultGate::new(seed),
            sleep_set: SleepSet::new(SleepSetScheduler::WAKE_AFTER_SKIPS),
            clocks: ClockWindow::new(),
            global_row: vec![0; CLOCK_SLOTS],
            scratch: vec![0; CLOCK_SLOTS],
            recent: (0..RECENT_STEPS).map(|_| RecentStep::empty()).collect(),
            recent_next: 0,
            backtrack_queue: Vec::with_capacity(BACKTRACK_CAP),
            sticky: None,
            sticky_run: 0,
            backtrack_run: 0,
            pending_prune: 0,
            pruned: 0,
            races: 0,
            backtracks: 0,
            horizon: None,
        }
    }

    /// Declares the execution's step bound as this strategy's unfair prefix,
    /// enabling the liveness grace period for its sticky run-to-completion
    /// bias (same contract as
    /// [`ProbabilisticRandomScheduler::with_horizon`]).
    pub fn with_horizon(mut self, max_steps: usize) -> Self {
        self.horizon = Some(max_steps);
        self
    }

    fn enqueue_backtrack(&mut self, machine: MachineId) {
        if self.backtrack_queue.len() < BACKTRACK_CAP && !self.backtrack_queue.contains(&machine) {
            self.backtrack_queue.push(machine);
        }
    }

    /// Invalidates recorded recent steps whose clock slot was reassigned to
    /// a different machine.
    fn invalidate_recent_slot(&mut self, slot: usize) {
        for entry in &mut self.recent {
            if entry.slot == slot {
                entry.valid = false;
            }
        }
    }

    /// `true` when recorded step `entry` and the step described by
    /// `footprint` are dependent under the [`StepFootprint`] rules
    /// (conservatively treating truncated send lists as dependent).
    fn dependent(entry: &RecentStep, footprint: &StepFootprint, footprint_global: bool) -> bool {
        if entry.global || footprint_global {
            return true;
        }
        let entry_sends = &entry.sends[..entry.send_count];
        if entry_sends.contains(&footprint.machine)
            || footprint.sends.contains(&entry.machine)
            || footprint.sends.iter().any(|t| entry_sends.contains(t))
        {
            return true;
        }
        // A truncated send list may hide a common target or a delivery.
        entry.sends_overflow && !footprint.sends.is_empty()
    }
}

impl Scheduler for DporScheduler {
    fn name(&self) -> &'static str {
        "dpor"
    }

    fn next_machine(&mut self, enabled: &[MachineId], _step: usize) -> MachineId {
        // A credit whose step never reported a footprint (e.g. the pick was
        // superseded) is void.
        self.pending_prune = 0;
        // 1. A pending backtrack outranks everything — up to a fairness
        //    bound: run the machine whose earlier step raced, reversing the
        //    accidental order going forward. Unrunnable entries
        //    (crashed/halted machines) drop out. Races can arrive as fast as
        //    backtracks are consumed, so after `BACKTRACK_RUN_CAP`
        //    consecutive forced picks the queue is ignored for one point
        //    (entries keep) and an ordinary pick runs instead — otherwise
        //    two racing machines could starve the rest forever.
        if self.backtrack_run >= BACKTRACK_RUN_CAP {
            self.backtrack_run = 0;
        } else {
            while !self.backtrack_queue.is_empty() {
                let m = self.backtrack_queue.remove(0);
                if position_of(enabled, m).is_some() {
                    self.backtracks += 1;
                    self.backtrack_run += 1;
                    self.sleep_set.wake(m);
                    self.sticky = Some(m);
                    self.sticky_run = 0;
                    self.sleep_set.age(enabled, m);
                    return m;
                }
            }
            self.backtrack_run = 0;
        }
        // 2. Run-to-completion bias: keep running the current machine while
        //    its steps stay local (the footprint hook clears `sticky` the
        //    moment a step is not). The pruning credit for the deferred
        //    machines is banked in `note_footprint`, once the step is known
        //    local.
        if let Some(current) = self.sticky {
            if self.sticky_run < STICKY_CAP && position_of(enabled, current).is_some() {
                self.sticky_run += 1;
                self.pending_prune = (enabled.len() - 1) as u64;
                self.sleep_set.age(enabled, current);
                return current;
            }
            // Cap reached (or the machine disabled): it behaved like a
            // sleeper's local step all along, so it sleeps like one.
            self.sleep_set.sleep(current);
            self.sticky = None;
        }
        // 3. Sleep-set pick among the awake machines.
        let (chosen, pruned) = self.sleep_set.pick(enabled, &mut self.rng);
        self.pruned += pruned;
        self.sticky = Some(chosen);
        self.sticky_run = 0;
        chosen
    }

    fn next_bool(&mut self) -> bool {
        self.rng.next_bool()
    }

    fn next_int(&mut self, bound: usize) -> usize {
        self.rng.next_below(bound)
    }

    fn next_fault(&mut self, candidates: &[Fault], _step: usize) -> Option<Fault> {
        let fault = self.fault_gate.pick(candidates);
        if fault.is_some() {
            // A fault mutates machines and mailboxes outside any handler:
            // sleep/stickiness assumptions and in-flight message clocks are
            // off. Accumulated clocks stay (the past is still ordered); the
            // race window restarts.
            self.sleep_set.clear();
            self.sticky = None;
            self.pending_prune = 0;
            self.backtrack_queue.clear();
            self.backtrack_run = 0;
            for entry in &mut self.recent {
                entry.valid = false;
            }
            self.clocks.pending_len.fill(0);
            self.clocks.pending_head.fill(0);
        }
        fault
    }

    fn note_footprint(&mut self, footprint: &StepFootprint) {
        // Bank the sticky pick's pruning credit only if the step indeed
        // stayed local; a non-local step voids the deferral argument.
        if self.pending_prune > 0 {
            if self.sticky == Some(footprint.machine) && footprint.is_local() {
                self.pruned += self.pending_prune;
            }
            self.pending_prune = 0;
        }
        // The sticky machine keeps running instead of sleeping after a
        // local step, and loses stickiness with a non-local one.
        self.sleep_set.note(footprint, self.sticky);
        if self.sticky == Some(footprint.machine) && !footprint.is_local() {
            self.sticky = None;
        }

        // Vector-clock update for the executed step.
        let (slot, evicted) = self.clocks.slot_of(footprint.machine);
        if evicted {
            self.invalidate_recent_slot(slot);
        }
        // Handling a message joins the sender's clock at send time (FIFO
        // mailbox: the oldest pending row corresponds to the handled event).
        self.clocks.join_oldest_pending(slot);
        self.clocks.tick(slot);
        let global = footprint.has_global_effect();
        if global {
            // Global-effect steps are pairwise dependent: serialize them
            // through the shared global row.
            for i in 0..CLOCK_SLOTS {
                let own = &mut self.clocks.clock[slot * CLOCK_SLOTS + i];
                *own = (*own).max(self.global_row[i]);
            }
            self.global_row.copy_from_slice(self.clocks.row(slot));
        }

        // Race scan: a recent step of another machine that is dependent on
        // this one but not ordered before it by happens-before raced with
        // it. Schedule the racing machine as a backtrack point so the
        // reversed order gets explored.
        for i in 0..RECENT_STEPS {
            let entry = &self.recent[i];
            if !entry.valid || entry.machine == footprint.machine {
                continue;
            }
            if !Self::dependent(entry, footprint, global) {
                continue;
            }
            // `entry` happens before this step iff this step's clock has
            // caught up with the entry's own component.
            let ordered = entry.clock[entry.slot] <= self.clocks.row(slot)[entry.slot];
            if ordered {
                continue;
            }
            self.races += 1;
            let racer = entry.machine;
            self.enqueue_backtrack(racer);
        }

        // Record this step in the race window (in place, allocation-free).
        let row_copy_needed = !footprint.sends.is_empty();
        if row_copy_needed {
            self.scratch.copy_from_slice(self.clocks.row(slot));
        }
        {
            let entry = &mut self.recent[self.recent_next];
            entry.valid = true;
            entry.machine = footprint.machine;
            entry.slot = slot;
            entry.clock.copy_from_slice(self.clocks.row(slot));
            entry.send_count = footprint.sends.len().min(RACE_SENDS);
            entry.sends[..entry.send_count].copy_from_slice(&footprint.sends[..entry.send_count]);
            entry.sends_overflow = footprint.sends.len() > RACE_SENDS;
            entry.global = global;
        }
        self.recent_next = (self.recent_next + 1) % RECENT_STEPS;

        // Deliveries carry the sender's clock to each target's pending ring.
        if row_copy_needed {
            for i in 0..footprint.sends.len() {
                let target = footprint.sends[i];
                let (tslot, evicted) = self.clocks.slot_of(target);
                if evicted {
                    self.invalidate_recent_slot(tslot);
                }
                let Self {
                    clocks, scratch, ..
                } = self;
                clocks.push_pending(tslot, scratch);
            }
        }
    }

    fn pruned_equivalents(&self) -> u64 {
        self.pruned
    }

    fn races_detected(&self) -> u64 {
        self.races
    }

    fn backtracks_scheduled(&self) -> u64 {
        self.backtracks
    }

    fn unfair_prefix_len(&self) -> Option<usize> {
        self.horizon
    }

    fn fair_step_spacing(&self, machines: usize) -> usize {
        // The run-to-completion bias parks on one machine for up to
        // `STICKY_CAP` consecutive steps, and a sleeping machine is passed
        // over up to `wake_after_skips` times before the aging rule wakes
        // it, so visits to any given machine are up to that much sparser
        // than uniform-random scheduling.
        machines
            .saturating_mul((STICKY_CAP.max(self.sleep_set.wake_after_skips)) as usize)
            .max(machines)
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        Some(Box::new(self.clone()))
    }
}

/// Scheduler that replays a previously recorded [`Trace`], strictly or
/// tolerantly.
///
/// **Strict** replay ([`ReplayScheduler::from_trace`]) expects the execution
/// to follow the recording decision for decision. If the program diverges
/// (for example because the system-under-test changed since the trace was
/// captured), the divergence is recorded and the scheduler falls back to
/// deterministic defaults so the execution can still terminate; callers
/// should check [`ReplayScheduler::error`] via
/// [`Runtime::replay_error`](crate::runtime::Runtime::replay_error).
///
/// **Tolerant** replay ([`ReplayScheduler::tolerant`]) follows the decision
/// prefix for as long as it fits and resolves everything else — a missing
/// decision, a recorded machine that is not enabled, a wrong decision type,
/// an out-of-bounds integer — from a deterministic seeded random tail
/// instead of flagging an error. This is what lets *mutated* schedules (the
/// candidates the [`shrink`](crate::shrink) pass produces by deleting chunks
/// of a recording) still drive complete executions: the schedule stays
/// pinned wherever the prefix applies and explores deterministically where
/// it no longer does.
#[derive(Debug, Clone)]
pub struct ReplayScheduler {
    decisions: Vec<Decision>,
    position: usize,
    error: Option<ReplayError>,
    /// `Some` in tolerant mode: the deterministic random tail that resolves
    /// decisions the prefix cannot.
    tail: Option<SplitMix64>,
}

impl ReplayScheduler {
    /// Creates a strict replay scheduler from a recorded trace.
    pub fn from_trace(trace: &Trace) -> Self {
        ReplayScheduler {
            decisions: trace.decisions.clone(),
            position: 0,
            error: None,
            tail: None,
        }
    }

    /// Creates a tolerant replay scheduler: `decisions` (typically a mutated
    /// subsequence of a recording) are followed positionally where they
    /// apply, and every gap is resolved by a deterministic random tail
    /// seeded with `tail_seed`.
    pub fn tolerant(decisions: Vec<Decision>, tail_seed: u64) -> Self {
        ReplayScheduler {
            decisions,
            position: 0,
            error: None,
            tail: Some(SplitMix64::new(tail_seed)),
        }
    }

    /// The divergence error, if strict replay did not follow the recording.
    /// Tolerant replay never reports one.
    pub fn error(&self) -> Option<&ReplayError> {
        self.error.as_ref()
    }

    /// Number of recorded decisions consumed so far (followed or skipped).
    pub fn position(&self) -> usize {
        self.position
    }

    /// Records the first divergence of a strict replay. The message is built
    /// only then: tolerant replay diverges at every gap of every shrink
    /// candidate and must not format (and allocate) a string it drops.
    fn record_divergence(&mut self, message: impl FnOnce() -> String) {
        if self.tail.is_some() {
            // Tolerant mode: gaps are expected, not errors.
            return;
        }
        if self.error.is_none() {
            self.error = Some(ReplayError {
                message: message(),
                decision_index: self.position,
            });
        }
    }

    fn next_decision(&mut self) -> Option<Decision> {
        let d = self.decisions.get(self.position).copied();
        if d.is_some() {
            // An exhausted recording stops counting: `position` reports how
            // many recorded decisions were actually consumed.
            self.position += 1;
        }
        d
    }

    /// Resolves a machine pick the prefix could not: deterministic random in
    /// tolerant mode, first-enabled in strict mode.
    fn fallback_machine(&mut self, enabled: &[MachineId]) -> MachineId {
        match &mut self.tail {
            Some(rng) => enabled[rng.next_below(enabled.len())],
            None => enabled[0],
        }
    }

    fn fallback_bool(&mut self) -> bool {
        match &mut self.tail {
            Some(rng) => rng.next_bool(),
            None => false,
        }
    }

    fn fallback_int(&mut self, bound: usize) -> usize {
        match &mut self.tail {
            Some(rng) => rng.next_below(bound),
            None => 0,
        }
    }
}

impl Scheduler for ReplayScheduler {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn next_fault(&mut self, candidates: &[Fault], _step: usize) -> Option<Fault> {
        // Fire a fault iff the recording has one at this position. The probe
        // *peeks*: a non-fault decision stays in place for the next
        // `next_machine` / `next_bool` / `next_int` query.
        let recorded = self
            .decisions
            .get(self.position)
            .copied()
            .and_then(Fault::from_decision)?;
        self.position += 1;
        if candidates.contains(&recorded) {
            return Some(recorded);
        }
        // The recorded fault no longer applies (e.g. a shrink candidate
        // deleted the crash that made this restart possible, or the machine
        // id no longer exists): tolerant replay skips it, strict replay
        // reports the divergence. Either way no fault fires here.
        self.record_divergence(|| {
            format!("recorded fault '{recorded:?}' is not injectable during replay")
        });
        None
    }

    fn next_machine(&mut self, enabled: &[MachineId], _step: usize) -> MachineId {
        match self.next_decision() {
            Some(Decision::Schedule(id)) if position_of(enabled, id).is_some() => id,
            Some(Decision::Schedule(id)) => {
                self.record_divergence(|| {
                    format!("recorded machine {id} is not enabled during replay")
                });
                self.fallback_machine(enabled)
            }
            other => {
                self.record_divergence(|| {
                    format!("expected a Schedule decision, recording has {other:?}")
                });
                self.fallback_machine(enabled)
            }
        }
    }

    fn next_bool(&mut self) -> bool {
        match self.next_decision() {
            Some(Decision::Bool(b)) => b,
            other => {
                self.record_divergence(|| {
                    format!("expected a Bool decision, recording has {other:?}")
                });
                self.fallback_bool()
            }
        }
    }

    fn replay_error(&self) -> Option<&ReplayError> {
        self.error.as_ref()
    }

    fn next_int(&mut self, bound: usize) -> usize {
        match self.next_decision() {
            Some(Decision::Int(v)) if v < bound => v,
            Some(Decision::Int(v)) => {
                self.record_divergence(|| {
                    format!("recorded int {v} is out of bounds (bound {bound})")
                });
                self.fallback_int(bound)
            }
            other => {
                self.record_divergence(|| {
                    format!("expected an Int decision, recording has {other:?}")
                });
                self.fallback_int(bound)
            }
        }
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler>> {
        Some(Box::new(self.clone()))
    }
}

/// The algorithms the dense tables replaced, kept as reference models: the
/// differential tests below drive each next to its production counterpart and
/// require the identical pick and counters at every step.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use super::*;

    /// The sleep set as an unsorted list searched linearly.
    #[derive(Default)]
    struct ListSleepSet {
        asleep: Vec<(MachineId, u32)>,
        awake_buf: Vec<MachineId>,
        wake_after_skips: u32,
    }

    impl ListSleepSet {
        fn wake(&mut self, machine: MachineId) {
            if let Some(i) = self.asleep.iter().position(|&(m, _)| m == machine) {
                self.asleep.swap_remove(i);
            }
        }

        fn sleep(&mut self, machine: MachineId) {
            if !self.asleep.iter().any(|&(m, _)| m == machine) {
                self.asleep.push((machine, 0));
            }
        }

        fn age(&mut self, enabled: &[MachineId], chosen: MachineId) {
            let mut i = 0;
            while i < self.asleep.len() {
                let (m, ref mut skips) = self.asleep[i];
                if m != chosen && enabled.contains(&m) {
                    *skips += 1;
                    if *skips >= self.wake_after_skips {
                        self.asleep.swap_remove(i);
                        continue;
                    }
                }
                i += 1;
            }
        }

        fn pick(&mut self, enabled: &[MachineId], rng: &mut SplitMix64) -> (MachineId, u64) {
            let Self {
                awake_buf, asleep, ..
            } = self;
            awake_buf.clear();
            awake_buf.extend(
                enabled
                    .iter()
                    .copied()
                    .filter(|m| !asleep.iter().any(|&(s, _)| s == *m)),
            );
            let (chosen, pruned) = if self.awake_buf.is_empty() {
                let pick = enabled[rng.next_below(enabled.len())];
                self.wake(pick);
                (pick, enabled.len() - 1)
            } else {
                let index = rng.next_below(self.awake_buf.len());
                (self.awake_buf[index], enabled.len() - self.awake_buf.len())
            };
            self.age(enabled, chosen);
            (chosen, pruned as u64)
        }
    }

    pub(super) struct SleepSetModel {
        rng: SplitMix64,
        fault_gate: FaultGate,
        sleep_set: ListSleepSet,
        pruned: u64,
    }

    impl SleepSetModel {
        pub(super) fn new(seed: u64, wake_after_skips: u32) -> Self {
            SleepSetModel {
                rng: SplitMix64::new(seed),
                fault_gate: FaultGate::new(seed),
                sleep_set: ListSleepSet {
                    wake_after_skips,
                    ..ListSleepSet::default()
                },
                pruned: 0,
            }
        }
    }

    impl Scheduler for SleepSetModel {
        fn name(&self) -> &'static str {
            "sleep-set-model"
        }

        fn next_machine(&mut self, enabled: &[MachineId], _step: usize) -> MachineId {
            let (chosen, pruned) = self.sleep_set.pick(enabled, &mut self.rng);
            self.pruned += pruned;
            chosen
        }

        fn next_bool(&mut self) -> bool {
            self.rng.next_bool()
        }

        fn next_int(&mut self, bound: usize) -> usize {
            self.rng.next_below(bound)
        }

        fn next_fault(&mut self, candidates: &[Fault], _step: usize) -> Option<Fault> {
            let fault = self.fault_gate.pick(candidates);
            if fault.is_some() {
                self.sleep_set.asleep.clear();
            }
            fault
        }

        fn note_footprint(&mut self, footprint: &StepFootprint) {
            for &target in &footprint.sends {
                self.sleep_set.wake(target);
            }
            if footprint.is_local() {
                self.sleep_set.sleep(footprint.machine);
            } else {
                self.sleep_set.wake(footprint.machine);
            }
        }

        fn pruned_equivalents(&self) -> u64 {
            self.pruned
        }
    }

    /// DPOR's pick rules over the list sleep set. Vector clocks and race
    /// detection read only the footprint stream, never the sleep set, so the
    /// model borrows them from a production [`DporScheduler`] it feeds the
    /// same footprints and fault probes, and takes over the racers that one
    /// queues.
    pub(super) struct DporModel {
        rng: SplitMix64,
        sleep_set: ListSleepSet,
        detector: DporScheduler,
        backtrack_queue: Vec<MachineId>,
        sticky: Option<MachineId>,
        sticky_run: u32,
        backtrack_run: u32,
        pending_prune: u64,
        pruned: u64,
        backtracks: u64,
    }

    impl DporModel {
        pub(super) fn new(seed: u64) -> Self {
            DporModel {
                rng: SplitMix64::new(seed),
                sleep_set: ListSleepSet {
                    wake_after_skips: SleepSetScheduler::WAKE_AFTER_SKIPS,
                    ..ListSleepSet::default()
                },
                detector: DporScheduler::new(seed),
                backtrack_queue: Vec::new(),
                sticky: None,
                sticky_run: 0,
                backtrack_run: 0,
                pending_prune: 0,
                pruned: 0,
                backtracks: 0,
            }
        }
    }

    impl Scheduler for DporModel {
        fn name(&self) -> &'static str {
            "dpor-model"
        }

        fn next_machine(&mut self, enabled: &[MachineId], _step: usize) -> MachineId {
            self.pending_prune = 0;
            if self.backtrack_run >= BACKTRACK_RUN_CAP {
                self.backtrack_run = 0;
            } else {
                while !self.backtrack_queue.is_empty() {
                    let m = self.backtrack_queue.remove(0);
                    if enabled.contains(&m) {
                        self.backtracks += 1;
                        self.backtrack_run += 1;
                        self.sleep_set.wake(m);
                        self.sticky = Some(m);
                        self.sticky_run = 0;
                        self.sleep_set.age(enabled, m);
                        return m;
                    }
                }
                self.backtrack_run = 0;
            }
            if let Some(current) = self.sticky {
                if self.sticky_run < STICKY_CAP && enabled.contains(&current) {
                    self.sticky_run += 1;
                    self.pending_prune = (enabled.len() - 1) as u64;
                    self.sleep_set.age(enabled, current);
                    return current;
                }
                self.sleep_set.sleep(current);
                self.sticky = None;
            }
            let (chosen, pruned) = self.sleep_set.pick(enabled, &mut self.rng);
            self.pruned += pruned;
            self.sticky = Some(chosen);
            self.sticky_run = 0;
            chosen
        }

        fn next_bool(&mut self) -> bool {
            self.rng.next_bool()
        }

        fn next_int(&mut self, bound: usize) -> usize {
            self.rng.next_below(bound)
        }

        fn next_fault(&mut self, candidates: &[Fault], step: usize) -> Option<Fault> {
            let fault = self.detector.next_fault(candidates, step);
            if fault.is_some() {
                self.sleep_set.asleep.clear();
                self.sticky = None;
                self.pending_prune = 0;
                self.backtrack_queue.clear();
                self.backtrack_run = 0;
            }
            fault
        }

        fn note_footprint(&mut self, footprint: &StepFootprint) {
            if self.pending_prune > 0 {
                if self.sticky == Some(footprint.machine) && footprint.is_local() {
                    self.pruned += self.pending_prune;
                }
                self.pending_prune = 0;
            }
            for &target in &footprint.sends {
                self.sleep_set.wake(target);
            }
            if footprint.is_local() {
                if self.sticky != Some(footprint.machine) {
                    self.sleep_set.sleep(footprint.machine);
                }
            } else {
                self.sleep_set.wake(footprint.machine);
                if self.sticky == Some(footprint.machine) {
                    self.sticky = None;
                }
            }
            self.detector.backtrack_queue.clear();
            self.detector.note_footprint(footprint);
            for &racer in &self.detector.backtrack_queue {
                if self.backtrack_queue.len() < BACKTRACK_CAP
                    && !self.backtrack_queue.contains(&racer)
                {
                    self.backtrack_queue.push(racer);
                }
            }
        }

        fn pruned_equivalents(&self) -> u64 {
            self.pruned
        }

        fn races_detected(&self) -> u64 {
            self.detector.races_detected()
        }

        fn backtracks_scheduled(&self) -> u64 {
            self.backtracks
        }
    }

    /// PCT with its priorities in a `HashMap`.
    pub(super) struct PctModel {
        rng: SplitMix64,
        pub(super) priorities: HashMap<MachineId, u64>,
        pub(super) change_steps: Vec<usize>,
        next_change: usize,
        next_low_priority: u64,
        fair_after: usize,
        fault_gate: FaultGate,
    }

    impl PctModel {
        pub(super) fn new(seed: u64, change_points: usize, max_steps: usize) -> Self {
            let mut rng = SplitMix64::new(seed);
            let fair_after = max_steps.max(1) / 2;
            let prefix = fair_after.max(1);
            let mut change_steps: Vec<usize> =
                (0..change_points).map(|_| rng.next_below(prefix)).collect();
            change_steps.sort_unstable();
            PctModel {
                rng,
                priorities: HashMap::new(),
                change_steps,
                next_change: 0,
                next_low_priority: 0,
                fair_after,
                fault_gate: FaultGate::new(seed),
            }
        }

        fn priority_of(&mut self, id: MachineId) -> u64 {
            if let Some(&p) = self.priorities.get(&id) {
                return p;
            }
            let p = 1_000_000 + self.rng.next_below(1_000_000) as u64;
            self.priorities.insert(id, p);
            p
        }
    }

    impl Scheduler for PctModel {
        fn name(&self) -> &'static str {
            "pct-model"
        }

        fn next_machine(&mut self, enabled: &[MachineId], step: usize) -> MachineId {
            if step >= self.fair_after {
                return enabled[self.rng.next_below(enabled.len())];
            }
            for &id in enabled {
                self.priority_of(id);
            }
            while self.next_change < self.change_steps.len()
                && step >= self.change_steps[self.next_change]
            {
                self.next_change += 1;
                if let Some(&top) = enabled
                    .iter()
                    .max_by_key(|&&id| self.priorities.get(&id).copied().unwrap_or(0))
                {
                    let low = self.next_low_priority;
                    self.next_low_priority += 1;
                    self.priorities.insert(top, low);
                }
            }
            *enabled
                .iter()
                .max_by_key(|&&id| self.priorities.get(&id).copied().unwrap_or(0))
                .expect("enabled set is never empty")
        }

        fn next_bool(&mut self) -> bool {
            self.rng.next_bool()
        }

        fn next_int(&mut self, bound: usize) -> usize {
            self.rng.next_below(bound)
        }

        fn next_fault(&mut self, candidates: &[Fault], _step: usize) -> Option<Fault> {
            self.fault_gate.pick(candidates)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u64]) -> Vec<MachineId> {
        raw.iter().copied().map(MachineId::from_raw).collect()
    }

    #[test]
    fn random_scheduler_is_deterministic_per_seed() {
        let enabled = ids(&[0, 1, 2, 3]);
        let mut a = RandomScheduler::new(12);
        let mut b = RandomScheduler::new(12);
        for step in 0..50 {
            assert_eq!(
                a.next_machine(&enabled, step),
                b.next_machine(&enabled, step)
            );
            assert_eq!(a.next_bool(), b.next_bool());
            assert_eq!(a.next_int(10), b.next_int(10));
        }
    }

    #[test]
    fn random_scheduler_only_picks_enabled() {
        let enabled = ids(&[2, 5, 9]);
        let mut s = RandomScheduler::new(3);
        for step in 0..100 {
            assert!(enabled.contains(&s.next_machine(&enabled, step)));
        }
    }

    #[test]
    fn random_scheduler_eventually_picks_every_machine() {
        let enabled = ids(&[0, 1, 2]);
        let mut s = RandomScheduler::new(1);
        let mut seen = [false; 3];
        for step in 0..200 {
            seen[s.next_machine(&enabled, step).raw() as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn pct_scheduler_prefers_one_machine_between_change_points() {
        let enabled = ids(&[0, 1, 2]);
        let mut s = PctScheduler::new(7, 0, 1_000);
        let first = s.next_machine(&enabled, 0);
        for step in 1..20 {
            assert_eq!(s.next_machine(&enabled, step), first);
        }
    }

    #[test]
    fn pct_switches_at_most_once_per_change_point_in_the_priority_prefix() {
        let enabled = ids(&[0, 1, 2]);
        // Steps 0..100 lie within the priority-driven prefix of a 1000-step
        // execution (the fair tail only starts at step 500).
        let count_switches = |change_points: usize| {
            let mut s = PctScheduler::new(7, change_points, 1_000);
            let picks: Vec<MachineId> = (0..100)
                .map(|step| s.next_machine(&enabled, step))
                .collect();
            picks.windows(2).filter(|w| w[0] != w[1]).count()
        };
        assert_eq!(count_switches(0), 0, "no change points means no switches");
        assert!(count_switches(1) <= 1);
        assert!(count_switches(3) <= 3);
    }

    #[test]
    fn pct_fair_tail_eventually_schedules_every_machine() {
        let enabled = ids(&[0, 1, 2]);
        let mut s = PctScheduler::new(7, 0, 100);
        let mut seen = [false; 3];
        // Steps beyond max_steps / 2 use the fair tail.
        for step in 50..300 {
            seen[s.next_machine(&enabled, step).raw() as usize] = true;
        }
        assert!(
            seen.iter().all(|&b| b),
            "the fair tail must not starve machines"
        );
    }

    #[test]
    fn pct_runs_highest_priority_even_when_others_enabled() {
        let enabled_all = ids(&[0, 1, 2]);
        let mut s = PctScheduler::new(11, 0, 1_000);
        let preferred = s.next_machine(&enabled_all, 0);
        // When the preferred machine is disabled the next one is chosen, and
        // when it is re-enabled it is preferred again.
        let without: Vec<MachineId> = enabled_all
            .iter()
            .copied()
            .filter(|&m| m != preferred)
            .collect();
        let fallback = s.next_machine(&without, 1);
        assert_ne!(fallback, preferred);
        assert_eq!(s.next_machine(&enabled_all, 2), preferred);
    }

    #[test]
    fn pct_change_points_all_land_before_the_fair_tail() {
        // The full priority-change budget must be spent where priorities
        // actually drive scheduling: every sampled change point lies in
        // `[0, fair_after)`, for any seed and budget.
        for seed in 0..50 {
            for change_points in [1usize, 2, 5, 10] {
                let s = PctScheduler::new(seed, change_points, 1_000);
                assert_eq!(s.change_steps.len(), change_points);
                assert!(
                    s.change_steps.iter().all(|&c| c < s.fair_after),
                    "seed {seed}, cp {change_points}: change points {:?} vs fair tail at {}",
                    s.change_steps,
                    s.fair_after
                );
            }
        }
    }

    #[test]
    fn pct_consumes_clustered_change_points_at_their_step() {
        let enabled = ids(&[0, 1, 2]);
        let mut s = PctScheduler::new(7, 0, 1_000);
        // Three change points due at the same step must all fire there
        // instead of drifting one step apart.
        s.change_steps = vec![5, 5, 5];
        for step in 0..=5 {
            s.next_machine(&enabled, step);
        }
        assert_eq!(s.next_change, 3, "all clustered change points consumed");
        // Three demotions at one step across three machines: the step-6 pick
        // still works and every machine got a fresh low priority exactly once.
        assert_eq!(s.next_low_priority, 3);
    }

    #[test]
    fn pct_change_points_fire_even_when_sampled_densely() {
        // With a budget far larger than the prefix, duplicates are
        // guaranteed; by the first step of the fair tail every change point
        // must have been consumed.
        let enabled = ids(&[0, 1, 2]);
        let mut s = PctScheduler::new(13, 64, 40);
        for step in 0..s.fair_after {
            s.next_machine(&enabled, step);
        }
        assert_eq!(
            s.next_change,
            s.change_steps.len(),
            "no change point may survive past the priority prefix"
        );
    }

    #[test]
    fn pct_one_step_horizon_does_not_panic() {
        let enabled = ids(&[0, 1]);
        let mut s = PctScheduler::new(3, 2, 1);
        assert!(enabled.contains(&s.next_machine(&enabled, 0)));
    }

    #[test]
    fn delay_bounding_is_deterministic_per_seed() {
        let enabled = ids(&[0, 1, 2, 3]);
        let mut a = DelayBoundingScheduler::new(9, 3, 200);
        let mut b = DelayBoundingScheduler::new(9, 3, 200);
        for step in 0..200 {
            assert_eq!(
                a.next_machine(&enabled, step),
                b.next_machine(&enabled, step)
            );
            assert_eq!(a.next_int(7), b.next_int(7));
        }
    }

    #[test]
    fn delay_bounding_zero_delays_is_run_to_completion() {
        let enabled = ids(&[0, 1, 2]);
        let mut s = DelayBoundingScheduler::new(5, 0, 1_000);
        for step in 0..50 {
            assert_eq!(s.next_machine(&enabled, step), MachineId::from_raw(0));
        }
        // When the running machine disables, the next in id order runs.
        let without_first = ids(&[1, 2]);
        assert_eq!(
            s.next_machine(&without_first, 50),
            MachineId::from_raw(1),
            "successor in id order after the current machine disables"
        );
    }

    #[test]
    fn delay_bounding_switches_at_most_delays_times_in_the_prefix() {
        // Steps 0..250 are the deterministic prefix of a 500-step horizon
        // (the fair tail starts at 250); there, visible context switches are
        // bounded by the delay budget.
        let enabled = ids(&[0, 1, 2]);
        for seed in 0..20 {
            for delays in [0usize, 1, 2, 4] {
                let mut s = DelayBoundingScheduler::new(seed, delays, 500);
                let picks: Vec<MachineId> = (0..250)
                    .map(|step| s.next_machine(&enabled, step))
                    .collect();
                let switches = picks.windows(2).filter(|w| w[0] != w[1]).count();
                assert!(
                    switches <= delays,
                    "seed {seed}: {switches} switches exceed the {delays}-delay budget"
                );
            }
        }
    }

    #[test]
    fn delay_bounding_fair_tail_eventually_schedules_every_machine() {
        let enabled = ids(&[0, 1, 2]);
        let mut s = DelayBoundingScheduler::new(7, 0, 100);
        let mut seen = [false; 3];
        for step in 50..300 {
            seen[s.next_machine(&enabled, step).raw() as usize] = true;
        }
        assert!(
            seen.iter().all(|&b| b),
            "the fair tail must not starve machines"
        );
    }

    #[test]
    fn probabilistic_random_is_deterministic_per_seed() {
        let enabled = ids(&[0, 1, 2, 3]);
        let mut a = ProbabilisticRandomScheduler::new(21, 10);
        let mut b = ProbabilisticRandomScheduler::new(21, 10);
        for step in 0..200 {
            assert_eq!(
                a.next_machine(&enabled, step),
                b.next_machine(&enabled, step)
            );
        }
    }

    #[test]
    fn probabilistic_random_switch_rate_follows_probability() {
        let enabled = ids(&[0, 1, 2, 3]);
        // 0%: never leaves the first pick while it stays enabled.
        let mut sticky = ProbabilisticRandomScheduler::new(3, 0);
        let first = sticky.next_machine(&enabled, 0);
        for step in 1..300 {
            assert_eq!(sticky.next_machine(&enabled, step), first);
        }
        // 10%: switches sometimes, but far less often than uniform random
        // (which changes machine ~3 out of 4 steps on 4 machines).
        let mut sometimes = ProbabilisticRandomScheduler::new(3, 10);
        let picks: Vec<MachineId> = (0..1_000)
            .map(|step| sometimes.next_machine(&enabled, step))
            .collect();
        let switches = picks.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(switches > 0, "a 10% walk must switch eventually");
        assert!(
            switches < 300,
            "a 10% walk switches far less than uniform random ({switches})"
        );
        // Every machine is still eventually scheduled.
        let mut seen = [false; 4];
        for pick in picks {
            seen[pick.raw() as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn default_portfolio_contains_the_new_strategies() {
        let portfolio = SchedulerKind::default_portfolio();
        assert!(portfolio.len() >= 5);
        assert!(portfolio
            .iter()
            .any(|k| matches!(k, SchedulerKind::DelayBounding { .. })));
        assert!(portfolio
            .iter()
            .any(|k| matches!(k, SchedulerKind::ProbabilisticRandom { .. })));
        // Descriptions are unique so per-strategy attribution rows never
        // collide.
        let mut descriptions: Vec<String> = portfolio.iter().map(|k| k.describe()).collect();
        descriptions.sort();
        descriptions.dedup();
        assert_eq!(descriptions.len(), portfolio.len());
    }

    #[test]
    fn sleep_set_is_deterministic_per_seed() {
        let enabled = ids(&[0, 1, 2, 3]);
        let mut a = SleepSetScheduler::new(17);
        let mut b = SleepSetScheduler::new(17);
        for step in 0..100 {
            let pick_a = a.next_machine(&enabled, step);
            let pick_b = b.next_machine(&enabled, step);
            assert_eq!(pick_a, pick_b);
            // Both observe the same (local) footprint stream.
            let fp = StepFootprint::new(pick_a);
            a.note_footprint(&fp);
            b.note_footprint(&fp);
            assert_eq!(a.next_bool(), b.next_bool());
        }
        assert_eq!(a.pruned_equivalents(), b.pruned_equivalents());
    }

    #[test]
    fn sleep_set_prunes_local_steps_and_stays_fair() {
        // Three machines whose steps are all local: after each step the
        // stepper goes to sleep, so scheduling points increasingly skip
        // sleepers — but the fairness bound still schedules everyone.
        let enabled = ids(&[0, 1, 2]);
        let mut s = SleepSetScheduler::new(5);
        let mut seen = [false; 3];
        for step in 0..200 {
            let pick = s.next_machine(&enabled, step);
            seen[pick.raw() as usize] = true;
            s.note_footprint(&StepFootprint::new(pick));
        }
        assert!(seen.iter().all(|&b| b), "no machine may be starved");
        assert!(
            s.pruned_equivalents() > 100,
            "all-local steps must prune aggressively, got {}",
            s.pruned_equivalents()
        );
    }

    #[test]
    fn sleep_set_wakes_receiver_on_send() {
        let enabled = ids(&[0, 1]);
        let mut s = SleepSetScheduler::new(1);
        // Machine 0 takes a local step and falls asleep.
        s.note_footprint(&StepFootprint::new(MachineId::from_raw(0)));
        assert!(s.sleep_set.is_asleep(MachineId::from_raw(0)));
        assert_eq!(s.sleep_set.sleepers(), 1);
        // Machine 1 sends to machine 0: 0 wakes, 1 stays awake (its step was
        // not local).
        let mut fp = StepFootprint::new(MachineId::from_raw(1));
        fp.sends.push(MachineId::from_raw(0));
        s.note_footprint(&fp);
        assert_eq!(s.sleep_set.sleepers(), 0);
        let _ = enabled;
    }

    #[test]
    fn sleep_set_monitor_steps_never_sleep() {
        let mut s = SleepSetScheduler::new(1);
        let mut fp = StepFootprint::new(MachineId::from_raw(0));
        fp.notified_monitor = true;
        s.note_footprint(&fp);
        assert_eq!(s.sleep_set.sleepers(), 0);
    }

    #[test]
    fn footprint_independence_rules() {
        let a = MachineId::from_raw(0);
        let b = MachineId::from_raw(1);
        let c = MachineId::from_raw(2);
        let local_a = StepFootprint::new(a);
        let local_b = StepFootprint::new(b);
        assert!(local_a.independent(&local_b));
        assert!(
            !local_a.independent(&local_a),
            "same machine never commutes"
        );

        let mut send_a_to_b = StepFootprint::new(a);
        send_a_to_b.sends.push(b);
        assert!(!send_a_to_b.independent(&local_b), "delivery to the peer");

        let mut send_b_to_c = StepFootprint::new(b);
        send_b_to_c.sends.push(c);
        let mut send_a_to_c = StepFootprint::new(a);
        send_a_to_c.sends.push(c);
        assert!(
            !send_a_to_c.independent(&send_b_to_c),
            "racing sends to a common mailbox"
        );
        assert!(!send_a_to_b.independent(&send_b_to_c), "b receives");

        let mut monitor_step = StepFootprint::new(a);
        monitor_step.notified_monitor = true;
        assert!(!monitor_step.independent(&local_b), "monitors are shared");
    }

    #[test]
    fn built_in_schedulers_clone_mid_stream() {
        // Cloning mid-execution must preserve the decision stream exactly.
        let enabled = ids(&[0, 1, 2, 3]);
        let mut kinds = SchedulerKind::default_portfolio();
        kinds.push(SchedulerKind::SleepSet {
            wake_after_skips: 3,
        });
        for kind in kinds {
            let mut original = kind.build(33, 1_000);
            for step in 0..10 {
                original.next_machine(&enabled, step);
                original.next_bool();
            }
            let mut copy = original.clone_box().expect("built-ins are clonable");
            for step in 10..40 {
                assert_eq!(
                    original.next_machine(&enabled, step),
                    copy.next_machine(&enabled, step),
                    "{kind:?} diverged after clone"
                );
                assert_eq!(original.next_int(9), copy.next_int(9));
            }
        }
    }

    #[test]
    fn round_robin_cycles_through_machines() {
        let enabled = ids(&[0, 1, 2]);
        let mut s = RoundRobinScheduler::new();
        let picks: Vec<u64> = (0..6).map(|i| s.next_machine(&enabled, i).raw()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn replay_returns_recorded_decisions() {
        let mut trace = Trace::new(0);
        trace.push_decision(Decision::Schedule(MachineId::from_raw(1)));
        trace.push_decision(Decision::Bool(true));
        trace.push_decision(Decision::Int(4));
        let mut s = ReplayScheduler::from_trace(&trace);
        let enabled = ids(&[0, 1]);
        assert_eq!(s.next_machine(&enabled, 0), MachineId::from_raw(1));
        assert!(s.next_bool());
        assert_eq!(s.next_int(10), 4);
        assert!(s.error().is_none());
    }

    #[test]
    fn replay_records_divergence_on_mismatch() {
        let mut trace = Trace::new(0);
        trace.push_decision(Decision::Bool(true));
        let mut s = ReplayScheduler::from_trace(&trace);
        let enabled = ids(&[0]);
        // Asking for a machine when a Bool was recorded diverges.
        let picked = s.next_machine(&enabled, 0);
        assert_eq!(picked, MachineId::from_raw(0));
        assert!(s.error().is_some());
    }

    #[test]
    fn replay_records_divergence_when_machine_not_enabled() {
        let mut trace = Trace::new(0);
        trace.push_decision(Decision::Schedule(MachineId::from_raw(9)));
        let mut s = ReplayScheduler::from_trace(&trace);
        let enabled = ids(&[0, 1]);
        s.next_machine(&enabled, 0);
        assert!(s.error().is_some());
    }

    #[test]
    fn tolerant_replay_follows_prefix_then_deterministic_tail() {
        let decisions = vec![
            Decision::Schedule(MachineId::from_raw(1)),
            Decision::Bool(true),
        ];
        let enabled = ids(&[0, 1]);
        let run = || {
            let mut s = ReplayScheduler::tolerant(decisions.clone(), 42);
            let first = s.next_machine(&enabled, 0);
            let flag = s.next_bool();
            // The prefix is now exhausted; everything below comes from the
            // seeded tail and must not be flagged as a divergence.
            let tail: Vec<u64> = (1..20).map(|i| s.next_machine(&enabled, i).raw()).collect();
            let int = s.next_int(10);
            assert!(s.error().is_none(), "tolerant replay never errors");
            (first, flag, tail, int)
        };
        let (first, flag, tail, int) = run();
        assert_eq!(first, MachineId::from_raw(1), "prefix is followed");
        assert!(flag);
        assert!(int < 10);
        // The tail is deterministic: a second run is identical.
        assert_eq!(run(), (first, flag, tail.clone(), int));
        // And it actually explores: both machines appear in the tail.
        assert!(tail.contains(&0) && tail.contains(&1));
    }

    #[test]
    fn tolerant_replay_resolves_unusable_decisions_from_the_tail() {
        let decisions = vec![
            // Machine 9 does not exist -> tail pick, no error.
            Decision::Schedule(MachineId::from_raw(9)),
            // Wrong type for the next_int query -> tail pick, no error.
            Decision::Bool(true),
            // Out of bounds for bound 3 -> tail pick, no error.
            Decision::Int(100),
        ];
        let enabled = ids(&[0, 1]);
        let mut s = ReplayScheduler::tolerant(decisions, 7);
        assert!(enabled.contains(&s.next_machine(&enabled, 0)));
        assert!(s.next_int(5) < 5);
        assert!(s.next_int(3) < 3);
        assert!(s.error().is_none());
        assert_eq!(s.position(), 3, "unusable decisions are still consumed");
    }

    #[test]
    fn unfair_prefix_reported_by_starvation_prone_strategies_only() {
        assert_eq!(RandomScheduler::new(1).unfair_prefix_len(), None);
        assert_eq!(RoundRobinScheduler::new().unfair_prefix_len(), None);
        assert_eq!(
            PctScheduler::new(1, 2, 1_000).unfair_prefix_len(),
            Some(500)
        );
        assert_eq!(
            DelayBoundingScheduler::new(1, 2, 1_000).unfair_prefix_len(),
            Some(500)
        );
        // The probabilistic walk is starvation-prone over its whole horizon.
        assert_eq!(
            ProbabilisticRandomScheduler::new(1, 10).unfair_prefix_len(),
            None
        );
        assert_eq!(
            ProbabilisticRandomScheduler::new(1, 10)
                .with_horizon(2_000)
                .unfair_prefix_len(),
            Some(2_000)
        );
        assert_eq!(
            SchedulerKind::ProbabilisticRandom { switch_percent: 10 }
                .build(1, 2_000)
                .unfair_prefix_len(),
            Some(2_000)
        );
        // So is DPOR, whose run-to-completion bias can park at any point.
        assert_eq!(DporScheduler::new(1).unfair_prefix_len(), None);
        assert_eq!(
            SchedulerKind::Dpor.build(1, 2_000).unfair_prefix_len(),
            Some(2_000)
        );
        let trace = Trace::new(0);
        assert_eq!(
            ReplayScheduler::from_trace(&trace).unfair_prefix_len(),
            None
        );
    }

    #[test]
    fn scheduler_kind_builds_expected_names() {
        assert_eq!(SchedulerKind::Random.build(0, 10).name(), "random");
        assert_eq!(
            SchedulerKind::Pct { change_points: 2 }.build(0, 10).name(),
            "pct"
        );
        assert_eq!(SchedulerKind::RoundRobin.build(0, 10).name(), "round-robin");
        assert_eq!(SchedulerKind::Pct { change_points: 2 }.label(), "pct");
        assert_eq!(
            SchedulerKind::DelayBounding { delays: 2 }
                .build(0, 10)
                .name(),
            "delay"
        );
        assert_eq!(
            SchedulerKind::ProbabilisticRandom { switch_percent: 10 }
                .build(0, 10)
                .name(),
            "prob"
        );
        assert_eq!(
            SchedulerKind::DelayBounding { delays: 2 }.describe(),
            "delay(d=2)"
        );
        assert_eq!(
            SchedulerKind::ProbabilisticRandom { switch_percent: 10 }.describe(),
            "prob(p=10)"
        );
        assert_eq!(SchedulerKind::Dpor.build(0, 10).name(), "dpor");
        assert_eq!(SchedulerKind::Dpor.label(), "dpor");
        assert_eq!(SchedulerKind::Dpor.describe(), "dpor");
        assert_eq!(SchedulerKind::sleep_set().describe(), "sleep-set");
        assert_eq!(
            SchedulerKind::SleepSet {
                wake_after_skips: 3
            }
            .describe(),
            "sleep-set(w=3)"
        );
    }

    #[test]
    fn sleep_set_wake_knob_trades_fairness_for_pruning() {
        // All-local workload: a tighter wake bound wakes sleepers sooner
        // (fairer, less pruning) while a looser one prunes more.
        let enabled = ids(&[0, 1, 2, 3]);
        let pruned_with = |skips: u32| {
            let mut s = SleepSetScheduler::new(5).with_wake_after_skips(skips);
            for step in 0..400 {
                let pick = s.next_machine(&enabled, step);
                s.note_footprint(&StepFootprint::new(pick));
            }
            s.pruned_equivalents()
        };
        let tight = pruned_with(1);
        let loose = pruned_with(32);
        assert!(
            loose > tight,
            "a looser wake bound must prune more (tight={tight}, loose={loose})"
        );
        // With a 1-skip bound at most one machine is ever asleep (each
        // sleeper wakes after a single pass-over), so pruning is capped near
        // one branch per scheduling point; a 32-skip bound lets the whole
        // peer set sleep and prunes several branches per point.
        assert!(
            loose > tight * 2,
            "the pruning gap must be substantial (tight={tight}, loose={loose})"
        );
    }

    #[test]
    fn dpor_is_deterministic_per_seed() {
        let enabled = ids(&[0, 1, 2, 3]);
        let mut a = DporScheduler::new(17);
        let mut b = DporScheduler::new(17);
        for step in 0..200 {
            let pick_a = a.next_machine(&enabled, step);
            let pick_b = b.next_machine(&enabled, step);
            assert_eq!(pick_a, pick_b);
            let mut fp = StepFootprint::new(pick_a);
            if step % 5 == 0 {
                fp.sends.push(enabled[(step + 1) % enabled.len()]);
            }
            a.note_footprint(&fp);
            b.note_footprint(&fp);
            assert_eq!(a.next_bool(), b.next_bool());
        }
        assert_eq!(a.pruned_equivalents(), b.pruned_equivalents());
        assert_eq!(a.races_detected(), b.races_detected());
        assert_eq!(a.backtracks_scheduled(), b.backtracks_scheduled());
    }

    #[test]
    fn dpor_vector_clocks_match_hand_computed_happens_before() {
        // Scenario (machines A=0, B=1, C=2):
        //   step 1: A local            -> A=[1,0,0]
        //   step 2: A sends to B       -> A=[2,0,0], message carries [2,0,0]
        //   step 3: C local            -> C=[0,0,1]
        //   step 4: B handles A's msg  -> B joins [2,0,0], ticks: B=[2,1,0]
        //   step 5: B local            -> B=[2,2,0]
        // Hand-computed happens-before: both A steps precede B's steps 4 and
        // 5 (message chain); C's step is concurrent with everything.
        let a = MachineId::from_raw(0);
        let b = MachineId::from_raw(1);
        let c = MachineId::from_raw(2);
        let mut s = DporScheduler::new(7);

        s.note_footprint(&StepFootprint::new(a));
        let mut send = StepFootprint::new(a);
        send.sends.push(b);
        s.note_footprint(&send);
        s.note_footprint(&StepFootprint::new(c));
        s.note_footprint(&StepFootprint::new(b));

        let (slot_a, _) = s.clocks.slot_of(a);
        let (slot_b, _) = s.clocks.slot_of(b);
        let (slot_c, _) = s.clocks.slot_of(c);
        let clock = |s: &DporScheduler, slot: usize, of: usize| s.clocks.row(slot)[of];

        assert_eq!(clock(&s, slot_a, slot_a), 2, "A took two steps");
        assert_eq!(clock(&s, slot_c, slot_c), 1, "C took one step");
        assert_eq!(clock(&s, slot_c, slot_a), 0, "C never heard from A");
        assert_eq!(
            clock(&s, slot_b, slot_a),
            2,
            "B's handling step joined A's clock at send time"
        );
        assert_eq!(clock(&s, slot_b, slot_b), 1);
        assert_eq!(clock(&s, slot_b, slot_c), 0, "C is concurrent with B");

        s.note_footprint(&StepFootprint::new(b));
        assert_eq!(clock(&s, slot_b, slot_b), 2);
        assert_eq!(clock(&s, slot_b, slot_a), 2, "the join persists");
        assert_eq!(s.races_detected(), 0, "no dependent concurrent pair ran");
    }

    #[test]
    fn dpor_detects_races_and_schedules_backtracks() {
        // A and B both send to C with no happens-before between them: the
        // two sends race (they do not commute — C's mailbox observes the
        // order), so the second send must flag a race and queue the first
        // sender as a backtrack point.
        let a = MachineId::from_raw(0);
        let b = MachineId::from_raw(1);
        let c = MachineId::from_raw(2);
        let mut s = DporScheduler::new(3);

        let mut a_to_c = StepFootprint::new(a);
        a_to_c.sends.push(c);
        s.note_footprint(&a_to_c);
        let mut b_to_c = StepFootprint::new(b);
        b_to_c.sends.push(c);
        s.note_footprint(&b_to_c);

        assert_eq!(s.races_detected(), 1, "concurrent sends to C race");
        assert_eq!(s.backtrack_queue, vec![a], "the earlier sender backtracks");
        // The next scheduling point consumes the backtrack.
        let pick = s.next_machine(&ids(&[0, 1, 2]), 2);
        assert_eq!(pick, a);
        assert_eq!(s.backtracks_scheduled(), 1);
        assert!(s.backtrack_queue.is_empty());
    }

    #[test]
    fn dpor_ordered_dependent_steps_do_not_race() {
        // A sends to B, then B (having handled the message) sends back to A:
        // the steps are dependent but ordered by the message chain, so no
        // race is flagged.
        let a = MachineId::from_raw(0);
        let b = MachineId::from_raw(1);
        let mut s = DporScheduler::new(3);

        let mut a_to_b = StepFootprint::new(a);
        a_to_b.sends.push(b);
        s.note_footprint(&a_to_b);
        let mut b_to_a = StepFootprint::new(b);
        b_to_a.sends.push(a);
        s.note_footprint(&b_to_a);

        assert_eq!(
            s.races_detected(),
            0,
            "a message chain orders the two sends"
        );
        assert!(s.backtrack_queue.is_empty());
    }

    #[test]
    fn dpor_sticky_credit_requires_a_local_step() {
        // The run-to-completion pick optimistically defers every other
        // machine, but the pruning credit is only banked once the footprint
        // proves the step was local. A monitor-touching step voids it.
        let enabled = ids(&[0, 1, 2]);
        let mut s = DporScheduler::new(11);
        let first = s.next_machine(&enabled, 0);
        s.note_footprint(&StepFootprint::new(first));
        let second = s.next_machine(&enabled, 1);
        assert_eq!(second, first, "local steps keep the machine sticky");
        let banked_after_local = {
            s.note_footprint(&StepFootprint::new(first));
            s.pruned_equivalents()
        };
        assert!(
            banked_after_local >= 2,
            "two deferred machines per confirmed-local sticky step"
        );
        let third = s.next_machine(&enabled, 2);
        assert_eq!(third, first);
        let mut monitor_step = StepFootprint::new(first);
        monitor_step.notified_monitor = true;
        s.note_footprint(&monitor_step);
        assert_eq!(
            s.pruned_equivalents(),
            banked_after_local,
            "a global-effect step banks no credit"
        );
        assert_ne!(s.sticky, Some(first), "a non-local step ends the run");
    }

    #[test]
    fn dpor_prunes_more_than_sleep_set_on_many_local_machines() {
        // With many all-local machines, plain sleep sets' pruning saturates
        // near their wake bound (wake churn keeps refilling the awake pool)
        // while DPOR's run-to-completion bias defers every other machine per
        // step. This pins the redundancy advantage the `dpor_reduction`
        // bench group measures.
        let enabled = ids(&(0..20).collect::<Vec<u64>>());
        let points = 4_000;
        let mut sleep = SleepSetScheduler::new(9);
        for step in 0..points {
            let pick = sleep.next_machine(&enabled, step);
            sleep.note_footprint(&StepFootprint::new(pick));
        }
        let mut dpor = DporScheduler::new(9);
        for step in 0..points {
            let pick = dpor.next_machine(&enabled, step);
            dpor.note_footprint(&StepFootprint::new(pick));
        }
        let sleep_ratio = (points as u64 + sleep.pruned_equivalents()) as f64 / points as f64;
        let dpor_ratio = (points as u64 + dpor.pruned_equivalents()) as f64 / points as f64;
        assert!(
            dpor_ratio >= 1.5 * sleep_ratio,
            "dpor redundancy {dpor_ratio:.2}x must be at least 1.5x sleep-set's {sleep_ratio:.2}x"
        );
    }

    #[test]
    fn dpor_clock_window_evicts_least_recently_used_slot() {
        // More machines than CLOCK_SLOTS: the window recycles slots instead
        // of growing, and a recycled machine restarts from a zero clock.
        let mut s = DporScheduler::new(1);
        for raw in 0..(CLOCK_SLOTS as u64 + 4) {
            s.note_footprint(&StepFootprint::new(MachineId::from_raw(raw)));
        }
        // Machine 0 was evicted by the overflow; looking it up again
        // reassigns a slot with a fresh clock.
        let (slot, evicted) = s.clocks.slot_of(MachineId::from_raw(0));
        assert!(evicted, "machine 0's slot was recycled");
        assert!(s.clocks.row(slot).iter().all(|&c| c == 0));
    }

    /// Drives `production` and `model` side by side through one generated
    /// execution and requires the same answer to every query. The script
    /// (derived from `script_seed` alone) starts with `width` enabled
    /// machines on ids with gaps, mixes local, sending and global-effect
    /// steps, disables and re-enables machines, probes for a fault before
    /// every pick, creates machines above every id seen so far, and now and
    /// then steps another machine than the pick (as the runtime does when it
    /// corrects one). Returns how many faults fired.
    fn drive_side_by_side(
        production: &mut dyn Scheduler,
        model: &mut dyn Scheduler,
        script_seed: u64,
        width: usize,
        steps: usize,
    ) -> u64 {
        let mut script = SplitMix64::new(script_seed);
        let mut next_raw = 0;
        let mut fresh_id = |script: &mut SplitMix64| {
            next_raw += 1 + script.next_below(3) as u64;
            MachineId::from_raw(next_raw)
        };
        let mut known: Vec<MachineId> = (0..width).map(|_| fresh_id(&mut script)).collect();
        let mut enabled = known.clone();
        let enable = |enabled: &mut Vec<MachineId>, id: MachineId| {
            if let Err(at) = enabled.binary_search(&id) {
                enabled.insert(at, id);
            }
        };
        let mut faults = 0;
        for step in 0..steps {
            let context = format!(
                "{} script {script_seed} width {width} step {step}",
                production.name()
            );
            let candidates = [Fault::Crash(enabled[0])];
            let fault = production.next_fault(&candidates, step);
            assert_eq!(fault, model.next_fault(&candidates, step), "{context}");
            if fault.is_some() {
                faults += 1;
                if enabled.len() > 1 {
                    enabled.remove(0);
                }
            }

            let pick = production.next_machine(&enabled, step);
            assert_eq!(pick, model.next_machine(&enabled, step), "{context}");
            assert!(enabled.binary_search(&pick).is_ok(), "{context}");

            let stepped = match script.next_below(16) {
                0 => enabled[script.next_below(enabled.len())],
                _ => pick,
            };
            let mut footprint = StepFootprint::new(stepped);
            let kind = script.next_below(10);
            if (5..9).contains(&kind) {
                // Up to six targets: more than the race scan remembers.
                for _ in 0..1 + script.next_below(6) {
                    footprint.sends.push(known[script.next_below(known.len())]);
                }
            }
            match kind {
                8 => footprint.notified_monitor = true,
                9 if script.next_bool() => footprint.made_choice = true,
                9 => footprint.created_machine = true,
                _ => {}
            }
            if footprint.made_choice {
                assert_eq!(production.next_int(7), model.next_int(7), "{context}");
            }
            production.note_footprint(&footprint);
            model.note_footprint(&footprint);
            assert_eq!(
                (
                    production.pruned_equivalents(),
                    production.races_detected(),
                    production.backtracks_scheduled()
                ),
                (
                    model.pruned_equivalents(),
                    model.races_detected(),
                    model.backtracks_scheduled()
                ),
                "{context}"
            );

            if enabled.len() > 1 && script.next_below(3) == 0 {
                let at = enabled.binary_search(&stepped).expect("it ran");
                enabled.remove(at);
            }
            for &target in &footprint.sends {
                enable(&mut enabled, target);
            }
            if footprint.created_machine {
                let created = fresh_id(&mut script);
                known.push(created);
                enable(&mut enabled, created);
            }
            if script.next_below(16) == 0 {
                enable(&mut enabled, known[script.next_below(known.len())]);
            }
        }
        faults
    }

    /// Widths around every bound the strategies have (one machine, the
    /// 24-slot clock window) up to 2,048, with fewer steps where the list
    /// model is slow.
    fn side_by_side_shapes() -> impl Iterator<Item = (u64, usize, usize)> {
        [1, 2, 3, 5, 17, 24, 25, 64, 300, 2_048]
            .into_iter()
            .flat_map(|width| {
                let steps = if width > 64 { 150 } else { 400 };
                (0..3).map(move |script| (script * 1_000 + width as u64, width, steps))
            })
    }

    #[test]
    fn sleep_set_picks_match_the_list_model() {
        let (mut faults, mut pruned) = (0, 0);
        for (script, width, steps) in side_by_side_shapes() {
            for wake_after_skips in [1, 3, 8] {
                let seed = script ^ 0x5eed;
                let mut production =
                    SleepSetScheduler::new(seed).with_wake_after_skips(wake_after_skips);
                let mut model = reference::SleepSetModel::new(seed, wake_after_skips);
                faults += drive_side_by_side(&mut production, &mut model, script, width, steps);
                pruned += production.pruned_equivalents();
            }
        }
        assert!(faults > 0 && pruned > 0, "the scripts reach both paths");
    }

    #[test]
    fn dpor_picks_match_the_list_model() {
        let (mut faults, mut pruned, mut races, mut backtracks) = (0, 0, 0, 0);
        for (script, width, steps) in side_by_side_shapes() {
            let seed = script ^ 0xd90f;
            let mut production = DporScheduler::new(seed);
            let mut model = reference::DporModel::new(seed);
            faults += drive_side_by_side(&mut production, &mut model, script, width, steps);
            pruned += production.pruned_equivalents();
            races += production.races_detected();
            backtracks += production.backtracks_scheduled();
        }
        assert!(
            faults > 0 && pruned > 0 && races > 0 && backtracks > 0,
            "the scripts reach every path"
        );
    }

    #[test]
    fn pct_picks_match_the_hash_map_model() {
        for (script, width, steps) in side_by_side_shapes() {
            for change_points in [2, 5, 10] {
                let seed = script ^ 0x9c7;
                // The last quarter of the script runs in the fair tail.
                let max_steps = steps * 3 / 2;
                let mut production = PctScheduler::new(seed, change_points, max_steps);
                let mut model = reference::PctModel::new(seed, change_points, max_steps);
                drive_side_by_side(&mut production, &mut model, script, width, steps);
            }
        }
    }

    #[test]
    fn pct_equal_priorities_run_the_higher_id() {
        let enabled = ids(&[0, 1]);
        // On the one-pass pick and on the change-point path alike.
        for change_steps in [vec![], vec![0]] {
            let mut production = PctScheduler::new(1, 0, 100);
            production.priorities = vec![1_500_000, 1_500_000];
            production.change_steps = change_steps.clone();
            let mut model = reference::PctModel::new(1, 0, 100);
            model.priorities = enabled.iter().map(|&id| (id, 1_500_000)).collect();
            model.change_steps = change_steps.clone();
            let expected = if change_steps.is_empty() { 1 } else { 0 };
            let pick = production.next_machine(&enabled, 0);
            assert_eq!(pick, model.next_machine(&enabled, 0));
            assert_eq!(
                pick,
                MachineId::from_raw(expected),
                "of two equal priorities the higher id is the top one \
                 (run, or demoted at a change point)"
            );
        }
    }
}
