//! Recorded schedules and nondeterministic choices, for replay and debugging.
//!
//! Every nondeterministic decision made while executing the system-under-test
//! is appended to a [`Trace`]: which machine was scheduled to take the next
//! step, every boolean and integer choice requested via
//! [`Context::random_bool`](crate::runtime::Context::random_bool) and
//! friends. Given the trace of a buggy execution, the
//! [`ReplayScheduler`](crate::scheduler::ReplayScheduler) re-executes the
//! exact same schedule, so the bug reproduces deterministically — the property
//! the paper identifies as the key productivity advantage over production
//! logs.
//!
//! # The two streams of a trace
//!
//! A trace carries two distinct records of one execution:
//!
//! * the **decision stream** ([`Trace::decisions`]) — every nondeterministic
//!   choice, in order. This is the *replay-bearing* stream: it is always
//!   recorded in full, because dropping any part of it would destroy
//!   replayability.
//! * the **annotated schedule** ([`Trace::steps`]) — one human-readable
//!   entry per machine step (who ran, which event it handled). This stream
//!   exists purely for debugging output and is derived from the first: a
//!   strict replay of the decisions re-records it.
//!
//! Whether the annotated schedule is recorded is a [`TraceMode`]: `Full`
//! keeps every step, `DecisionsOnly` records none. The engine explores under
//! `DecisionsOnly` and re-records the one execution it reports under `Full`;
//! replay works identically under both.
//!
//! # Name interning
//!
//! The annotated schedule is recorded on the execution hot path (once per
//! machine step), so [`TraceStep`] stores machine and event names as small
//! [`NameId`]s into the trace's [`NameTable`] instead of heap-allocated
//! strings. Names are resolved back to text only when a trace is rendered or
//! serialized — recording a step is allocation-free in the steady state.

use std::collections::HashMap;
use std::sync::Arc;

use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::machine::MachineId;

/// A single nondeterministic decision made during an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The scheduler picked this machine to take the next step.
    Schedule(MachineId),
    /// A nondeterministic boolean choice (`Context::random_bool`).
    Bool(bool),
    /// A nondeterministic integer choice in `[0, bound)`
    /// (`Context::random_index`), recording the chosen value.
    Int(usize),
    /// The scheduler injected a crash fault into this machine
    /// ([`Scheduler::next_fault`](crate::scheduler::Scheduler::next_fault)).
    CrashMachine(MachineId),
    /// The scheduler restarted this (previously crashed) machine.
    RestartMachine(MachineId),
    /// The scheduler dropped the oldest message queued at this machine's
    /// lossy inbox.
    DropMessage(MachineId),
    /// The scheduler re-delivered a copy of the oldest message queued at
    /// this machine's lossy inbox.
    DuplicateMessage(MachineId),
}

impl Decision {
    /// Returns `true` for the fault decisions
    /// (`CrashMachine` / `RestartMachine` / `DropMessage` /
    /// `DuplicateMessage`): the injected-environment-failure subset of the
    /// stream that the shrink pass minimizes first.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            Decision::CrashMachine(_)
                | Decision::RestartMachine(_)
                | Decision::DropMessage(_)
                | Decision::DuplicateMessage(_)
        )
    }
}

impl ToJson for Decision {
    fn to_json_value(&self) -> Json {
        match self {
            Decision::Schedule(id) => Json::object([("Schedule", id.to_json_value())]),
            Decision::Bool(b) => Json::object([("Bool", Json::Bool(*b))]),
            Decision::Int(v) => Json::object([("Int", Json::UInt(*v as u64))]),
            Decision::CrashMachine(id) => Json::object([("Crash", id.to_json_value())]),
            Decision::RestartMachine(id) => Json::object([("Restart", id.to_json_value())]),
            Decision::DropMessage(id) => Json::object([("Drop", id.to_json_value())]),
            Decision::DuplicateMessage(id) => Json::object([("Duplicate", id.to_json_value())]),
        }
    }
}

impl FromJson for Decision {
    fn from_json_value(value: &Json) -> Result<Self, JsonError> {
        if let Ok(id) = value.get("Schedule") {
            return Ok(Decision::Schedule(MachineId::from_json_value(id)?));
        }
        if let Ok(b) = value.get("Bool") {
            return Ok(Decision::Bool(b.as_bool()?));
        }
        if let Ok(v) = value.get("Int") {
            return Ok(Decision::Int(v.as_usize()?));
        }
        for (key, make) in [
            ("Crash", Decision::CrashMachine as fn(MachineId) -> Decision),
            ("Restart", Decision::RestartMachine),
            ("Drop", Decision::DropMessage),
            ("Duplicate", Decision::DuplicateMessage),
        ] {
            if let Ok(id) = value.get(key) {
                return Ok(make(MachineId::from_json_value(id)?));
            }
        }
        Err(JsonError::new(
            "decision must be Schedule, Bool, Int, Crash, Restart, Drop or Duplicate",
        ))
    }
}

/// Whether a [`Trace`] records the human-facing annotated schedule.
///
/// The replay-bearing decision stream is unaffected: both modes record all
/// decisions, so a trace stays replayable either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Keep every annotated step. Memory grows linearly with the execution
    /// length.
    #[default]
    Full,
    /// Record no annotated steps at all — the trace carries only the
    /// decision stream. What exploration records: schedules are rendered
    /// from a replay, not from the original run.
    DecisionsOnly,
}

impl ToJson for TraceMode {
    fn to_json_value(&self) -> Json {
        match self {
            TraceMode::Full => Json::Str("full".to_string()),
            TraceMode::DecisionsOnly => Json::Str("decisions_only".to_string()),
        }
    }
}

impl FromJson for TraceMode {
    fn from_json_value(value: &Json) -> Result<Self, JsonError> {
        // Files written under the retired ring-buffer mode hold a complete
        // decision stream and a partial step window: a decisions-only trace
        // once `Trace::from_json` drops the window.
        if value.get("ring_buffer").is_ok() {
            return Ok(TraceMode::DecisionsOnly);
        }
        match value.as_str()? {
            "full" => Ok(TraceMode::Full),
            "decisions_only" => Ok(TraceMode::DecisionsOnly),
            other => Err(JsonError::new(format!("unknown trace mode '{other}'"))),
        }
    }
}

/// Identifier of an interned name in a [`NameTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameId(u32);

impl NameId {
    /// Creates an id from its raw index. Ordinarily ids are produced by
    /// [`NameTable::intern`].
    pub fn from_raw(raw: u32) -> Self {
        NameId(raw)
    }

    /// The raw index of this id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// A small interning table mapping [`NameId`]s to shared strings.
///
/// Machine and event names repeat across the (potentially tens of thousands
/// of) steps of an execution; interning them once keeps every subsequent
/// trace record allocation-free.
#[derive(Debug, Default)]
pub struct NameTable {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, NameId>,
}

/// Hand-written so `clone_from` reuses the destination's backbone storage
/// (the derived `clone_from` is `*self = source.clone()`, a full realloc).
/// Snapshot restores clone the name table on every fork, so this is hot.
impl Clone for NameTable {
    fn clone(&self) -> Self {
        NameTable {
            names: self.names.clone(),
            index: self.index.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.names.clone_from(&source.names);
        self.index.clone_from(&source.index);
    }
}

impl NameTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        NameTable::default()
    }

    /// Interns `name`, returning the id it already has or a fresh one.
    ///
    /// Allocates only the first time a given name is seen.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = NameId(self.names.len() as u32);
        let shared: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&shared));
        self.index.insert(shared, id);
        id
    }

    /// Resolves an id back to its name.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn resolve(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Resolves an id to a shared handle on the name (no string copy).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn resolve_arc(&self, id: NameId) -> Arc<str> {
        Arc::clone(&self.names[id.0 as usize])
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` when no name has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Forgets every interned name, keeping the allocated capacity of the
    /// table so re-use does not re-allocate its backbone.
    pub fn clear(&mut self) {
        self.names.clear();
        self.index.clear();
    }
}

/// An annotated step of an execution, used for human-readable bug reports.
///
/// Names are stored as [`NameId`]s into the owning trace's [`Trace::names`]
/// table; resolve them with [`Trace::step_machine_name`] /
/// [`Trace::step_event_name`] or render the whole schedule with
/// [`Trace::render_schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Index of the step in the execution.
    pub step: usize,
    /// The machine that executed.
    pub machine: MachineId,
    /// Interned name of the machine.
    pub machine_name: NameId,
    /// Interned name of the event that was handled (or `"start"`).
    pub event: NameId,
}

/// The full record of one execution: every decision plus, under
/// [`TraceMode::Full`], an annotated, human-readable schedule.
#[derive(Debug, Default)]
pub struct Trace {
    /// The seed that parameterized the scheduler for this execution.
    pub seed: u64,
    /// Every nondeterministic decision, in order. Always complete — this is
    /// the stream replay consumes.
    pub decisions: Vec<Decision>,
    /// Retained annotated steps, in execution order.
    steps: Vec<TraceStep>,
    /// Whether the annotated schedule is recorded.
    mode: TraceMode,
    /// Number of annotated steps that were executed but not retained
    /// (all of them under `DecisionsOnly`, none under `Full`).
    dropped_steps: usize,
    /// The interning table resolving the names referenced by the steps.
    pub names: NameTable,
}

/// Hand-written so `clone_from` — the path [`Runtime::restore_from`] takes on
/// every snapshot fork — copies the decision and step streams into the
/// destination's retained buffers (`Copy` elements, so a memcpy) instead of
/// reallocating them, and reuses the name-table backbone.
///
/// [`Runtime::restore_from`]: crate::runtime::Runtime::restore_from
impl Clone for Trace {
    fn clone(&self) -> Self {
        Trace {
            seed: self.seed,
            decisions: self.decisions.clone(),
            steps: self.steps.clone(),
            mode: self.mode,
            dropped_steps: self.dropped_steps,
            names: self.names.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.seed = source.seed;
        self.decisions.clone_from(&source.decisions);
        self.steps.clone_from(&source.steps);
        self.mode = source.mode;
        self.dropped_steps = source.dropped_steps;
        self.names.clone_from(&source.names);
    }
}

/// Trace equality is structural on the *resolved* schedule: two traces are
/// equal when they record the same decisions, the same retention counters and
/// the same named steps in the same order, even if their name tables interned
/// the names in a different order (as happens after a JSON round trip).
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed
            && self.decisions == other.decisions
            && self.mode == other.mode
            && self.dropped_steps == other.dropped_steps
            && self.steps.len() == other.steps.len()
            && self.steps().zip(other.steps()).all(|(a, b)| {
                a.step == b.step
                    && a.machine == b.machine
                    && self.names.resolve(a.machine_name) == other.names.resolve(b.machine_name)
                    && self.names.resolve(a.event) == other.names.resolve(b.event)
            })
    }
}

impl Eq for Trace {}

impl Trace {
    /// Creates an empty trace for an execution driven by `seed`, retaining
    /// the full annotated schedule.
    pub fn new(seed: u64) -> Self {
        Trace::with_mode(seed, TraceMode::Full)
    }

    /// Creates an empty trace recording under `mode`.
    pub fn with_mode(seed: u64, mode: TraceMode) -> Self {
        Trace {
            seed,
            decisions: Vec::new(),
            steps: Vec::new(),
            mode,
            dropped_steps: 0,
            names: NameTable::new(),
        }
    }

    /// Clears the trace for re-use by a fresh execution driven by `seed`,
    /// keeping every allocated buffer (decision vector, step storage, name
    /// table backbone) so a recycled trace records without re-allocating.
    pub fn reset(&mut self, seed: u64, mode: TraceMode) {
        self.seed = seed;
        self.decisions.clear();
        self.steps.clear();
        self.mode = mode;
        self.dropped_steps = 0;
        self.names.clear();
    }

    /// Whether this trace records the annotated schedule.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Number of nondeterministic choices recorded (the paper's `#NDC`).
    pub fn decision_count(&self) -> usize {
        self.decisions.len()
    }

    /// Number of fault decisions recorded ([`Decision::is_fault`]): the size
    /// of the execution's injected fault set.
    pub fn fault_decision_count(&self) -> usize {
        self.decisions.iter().filter(|d| d.is_fault()).count()
    }

    /// Number of annotated steps currently retained.
    pub fn retained_step_count(&self) -> usize {
        self.steps.len()
    }

    /// Number of annotated steps that were executed but not retained.
    pub fn dropped_steps(&self) -> usize {
        self.dropped_steps
    }

    /// Total number of machine steps the execution performed (retained plus
    /// dropped).
    pub fn total_step_count(&self) -> usize {
        self.steps.len() + self.dropped_steps
    }

    /// The retained annotated steps in execution order (oldest first).
    pub fn steps(&self) -> impl Iterator<Item = &TraceStep> {
        self.steps.iter()
    }

    /// Appends a decision.
    pub fn push_decision(&mut self, decision: Decision) {
        self.decisions.push(decision);
    }

    /// Records an annotated machine step, subject to the trace's
    /// [`TraceMode`]. The step's name ids must come from [`Trace::intern`] on
    /// this trace.
    pub fn push_step(&mut self, step: TraceStep) {
        match self.mode {
            TraceMode::Full => self.steps.push(step),
            TraceMode::DecisionsOnly => self.skip_step(),
        }
    }

    /// Counts a machine step whose annotation is not recorded: what a
    /// `DecisionsOnly` trace does with every step, without the caller having
    /// to intern names for a [`TraceStep`] nobody will read.
    pub fn skip_step(&mut self) {
        self.dropped_steps += 1;
    }

    /// Interns a name into this trace's table.
    pub fn intern(&mut self, name: &str) -> NameId {
        self.names.intern(name)
    }

    /// The machine name recorded for `step`.
    pub fn step_machine_name(&self, step: &TraceStep) -> &str {
        self.names.resolve(step.machine_name)
    }

    /// The event name recorded for `step`.
    pub fn step_event_name(&self, step: &TraceStep) -> &str {
        self.names.resolve(step.event)
    }

    /// Serializes the trace to pretty JSON for storage alongside a bug report.
    ///
    /// Interned names are resolved to plain strings, so the format is stable
    /// and self-contained regardless of interning order.
    ///
    /// # Errors
    ///
    /// Returns an error if serialization fails (it cannot for well-formed
    /// traces; the `Result` is kept for API stability).
    pub fn to_json(&self) -> Result<String, JsonError> {
        Ok(self.to_json_value().to_string_pretty())
    }

    /// Parses a trace previously produced by [`Trace::to_json`].
    ///
    /// Traces written before `TraceMode` existed (no `mode` /
    /// `dropped_steps` keys) parse as `TraceMode::Full` with nothing dropped;
    /// traces written under the retired ring-buffer mode parse as
    /// `TraceMode::DecisionsOnly`, their partial step window dropped (a
    /// strict replay of the decisions re-annotates them).
    ///
    /// # Errors
    ///
    /// Returns an error if the JSON does not describe a trace.
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        Trace::from_json_value(&Json::parse(json)?)
    }

    /// Renders the annotated schedule as indented text, one line per retained
    /// step. When steps were not retained (decisions-only recording), the
    /// rendering starts with a marker saying how many.
    pub fn render_schedule(&self) -> String {
        let mut out = String::new();
        if self.dropped_steps > 0 {
            out.push_str(&format!(
                "[..... {} earlier step(s) not retained ({:?} trace mode) .....]\n",
                self.dropped_steps, self.mode
            ));
        }
        for step in self.steps() {
            out.push_str(&format!(
                "[{:>5}] {} ({}) <- {}\n",
                step.step,
                self.names.resolve(step.machine_name),
                step.machine,
                self.names.resolve(step.event)
            ));
        }
        out
    }
}

impl ToJson for Trace {
    fn to_json_value(&self) -> Json {
        Json::object([
            ("seed", Json::UInt(self.seed)),
            ("mode", self.mode.to_json_value()),
            ("dropped_steps", Json::UInt(self.dropped_steps as u64)),
            (
                "decisions",
                Json::Array(self.decisions.iter().map(ToJson::to_json_value).collect()),
            ),
            (
                "steps",
                Json::Array(
                    self.steps()
                        .map(|step| {
                            Json::object([
                                ("step", Json::UInt(step.step as u64)),
                                ("machine", step.machine.to_json_value()),
                                (
                                    "machine_name",
                                    Json::Str(self.names.resolve(step.machine_name).to_string()),
                                ),
                                (
                                    "event",
                                    Json::Str(self.names.resolve(step.event).to_string()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for Trace {
    fn from_json_value(value: &Json) -> Result<Self, JsonError> {
        let mut names = NameTable::new();
        let mut steps: Vec<TraceStep> = value
            .get("steps")?
            .as_array()?
            .iter()
            .map(|step| {
                Ok(TraceStep {
                    step: step.get("step")?.as_usize()?,
                    machine: MachineId::from_json_value(step.get("machine")?)?,
                    machine_name: names.intern(step.get("machine_name")?.as_str()?),
                    event: names.intern(step.get("event")?.as_str()?),
                })
            })
            .collect::<Result<_, JsonError>>()?;
        let mode = match value.get("mode") {
            Ok(mode) => TraceMode::from_json_value(mode)?,
            Err(_) => TraceMode::Full,
        };
        let mut dropped_steps = match value.get("dropped_steps") {
            Ok(count) => count.as_usize()?,
            Err(_) => 0,
        };
        // A decisions-only trace holds no steps; the ones a file carries
        // anyway (a ring-buffer window) are counted, not kept.
        if mode == TraceMode::DecisionsOnly {
            dropped_steps += steps.len();
            steps.clear();
            names.clear();
        }
        Ok(Trace {
            seed: value.get("seed")?.as_u64()?,
            decisions: value
                .get("decisions")?
                .as_array()?
                .iter()
                .map(Decision::from_json_value)
                .collect::<Result<_, _>>()?,
            steps,
            mode,
            dropped_steps,
            names,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new(99);
        t.push_decision(Decision::Schedule(MachineId::from_raw(0)));
        t.push_decision(Decision::Bool(true));
        t.push_decision(Decision::Int(3));
        let machine_name = t.intern("Server");
        let event = t.intern("ClientReq");
        t.push_step(TraceStep {
            step: 0,
            machine: MachineId::from_raw(0),
            machine_name,
            event,
        });
        t
    }

    fn numbered_step(t: &mut Trace, index: usize) -> TraceStep {
        let machine_name = t.intern("M");
        let event = t.intern("E");
        TraceStep {
            step: index,
            machine: MachineId::from_raw(0),
            machine_name,
            event,
        }
    }

    #[test]
    fn decision_count_counts_all_decisions() {
        assert_eq!(sample_trace().decision_count(), 3);
    }

    #[test]
    fn fault_decisions_round_trip_and_are_counted() {
        let mut t = Trace::new(4);
        t.push_decision(Decision::Schedule(MachineId::from_raw(0)));
        t.push_decision(Decision::CrashMachine(MachineId::from_raw(2)));
        t.push_decision(Decision::RestartMachine(MachineId::from_raw(2)));
        t.push_decision(Decision::DropMessage(MachineId::from_raw(1)));
        t.push_decision(Decision::DuplicateMessage(MachineId::from_raw(1)));
        assert_eq!(t.decision_count(), 5);
        assert_eq!(t.fault_decision_count(), 4);
        assert!(!Decision::Schedule(MachineId::from_raw(0)).is_fault());
        let back = Trace::from_json(&t.to_json().expect("serialize")).expect("deserialize");
        assert_eq!(back.decisions, t.decisions);
    }

    #[test]
    fn json_round_trip() {
        let t = sample_trace();
        let json = t.to_json().expect("serialize");
        let back = Trace::from_json(&json).expect("deserialize");
        assert_eq!(t, back);
    }

    #[test]
    fn json_without_mode_keys_parses_as_full_trace() {
        // Traces serialized before `TraceMode` existed carry no
        // `mode` / `dropped_steps` keys.
        let legacy = r#"{
            "seed": 7,
            "decisions": [{"Bool": true}],
            "steps": [{"step": 0, "machine": 0, "machine_name": "A", "event": "start"}]
        }"#;
        let t = Trace::from_json(legacy).expect("legacy trace parses");
        assert_eq!(t.mode(), TraceMode::Full);
        assert_eq!(t.dropped_steps(), 0);
        assert_eq!(t.retained_step_count(), 1);
    }

    #[test]
    fn json_mode_written_by_any_build_loads_or_errors_by_name() {
        let file = |mode: &str| {
            format!(
                r#"{{
                    "seed": 7,
                    "mode": {mode},
                    "dropped_steps": 7,
                    "decisions": [{{"Int": 1}}, {{"Bool": true}}],
                    "steps": [
                        {{"step": 7, "machine": 0, "machine_name": "A", "event": "E"}},
                        {{"step": 8, "machine": 0, "machine_name": "A", "event": "E"}}
                    ]
                }}"#
            )
        };
        // (mode as written, mode loaded, steps retained, steps dropped)
        for (written, mode, retained, dropped) in [
            (r#""full""#, TraceMode::Full, 2, 7),
            (r#""decisions_only""#, TraceMode::DecisionsOnly, 0, 9),
            // An earlier build's ring buffer: the decision stream is
            // complete, the step window is not — dropped, not shown as the
            // whole schedule.
            (r#"{"ring_buffer": 2}"#, TraceMode::DecisionsOnly, 0, 9),
        ] {
            let t = Trace::from_json(&file(written)).expect(written);
            assert_eq!(t.mode(), mode, "{written}");
            assert_eq!(t.retained_step_count(), retained, "{written}");
            assert_eq!(t.dropped_steps(), dropped, "{written}");
            assert_eq!(
                t.decisions,
                [Decision::Int(1), Decision::Bool(true)],
                "{written}"
            );
            let back = Trace::from_json(&t.to_json().expect("serialize")).expect("deserialize");
            assert_eq!(t, back, "{written}");
        }
        let error = Trace::from_json(&file(r#""sampled""#)).expect_err("unknown mode");
        assert!(error.to_string().contains("'sampled'"), "{error}");
    }

    #[test]
    fn decisions_only_mode_records_no_steps() {
        let mut t = Trace::with_mode(1, TraceMode::DecisionsOnly);
        t.push_decision(Decision::Bool(false));
        for i in 0..4 {
            let step = numbered_step(&mut t, i);
            t.push_step(step);
        }
        assert_eq!(t.retained_step_count(), 0);
        assert_eq!(t.dropped_steps(), 4);
        assert_eq!(t.decision_count(), 1, "decisions are always kept");
        let back = Trace::from_json(&t.to_json().expect("serialize")).expect("deserialize");
        assert_eq!(t, back);
    }

    #[test]
    fn reset_clears_content_and_applies_the_new_mode() {
        let mut t = sample_trace();
        t.reset(123, TraceMode::DecisionsOnly);
        assert_eq!(t.seed, 123);
        assert_eq!(t.mode(), TraceMode::DecisionsOnly);
        assert_eq!(t.decision_count(), 0);
        assert_eq!(t.retained_step_count(), 0);
        assert_eq!(t.dropped_steps(), 0);
        assert!(t.names.is_empty());
        for i in 0..5 {
            let step = numbered_step(&mut t, i);
            t.push_step(step);
        }
        assert_eq!(t.retained_step_count(), 0);
        assert_eq!(t.total_step_count(), 5);
    }

    #[test]
    fn render_schedule_mentions_machine_and_event() {
        let rendered = sample_trace().render_schedule();
        assert!(rendered.contains("Server"));
        assert!(rendered.contains("ClientReq"));
    }

    #[test]
    fn empty_trace_has_no_decisions() {
        let t = Trace::new(0);
        assert_eq!(t.decision_count(), 0);
        assert!(t.render_schedule().is_empty());
    }

    #[test]
    fn interning_deduplicates_names() {
        let mut table = NameTable::new();
        let a = table.intern("Server");
        let b = table.intern("Client");
        let c = table.intern("Server");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(table.len(), 2);
        assert_eq!(table.resolve(a), "Server");
        assert_eq!(&*table.resolve_arc(b), "Client");
    }

    #[test]
    fn trace_equality_ignores_interning_order() {
        // Same resolved schedule, names interned in opposite order.
        let build = |flip: bool| {
            let mut t = Trace::new(1);
            let (first, second) = if flip {
                ("EventB", "MachineA")
            } else {
                ("MachineA", "EventB")
            };
            t.intern(first);
            t.intern(second);
            let machine_name = t.intern("MachineA");
            let event = t.intern("EventB");
            t.push_step(TraceStep {
                step: 0,
                machine: MachineId::from_raw(0),
                machine_name,
                event,
            });
            t
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn step_name_accessors_resolve() {
        let t = sample_trace();
        let step = *t.steps().next().expect("one step");
        assert_eq!(t.step_machine_name(&step), "Server");
        assert_eq!(t.step_event_name(&step), "ClientReq");
    }
}
