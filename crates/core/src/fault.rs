//! Scheduler-controlled fault injection: crashes, restarts, message loss
//! and message duplication as first-class, replayable nondeterminism.
//!
//! The paper's central productivity claim rests on modeling the
//! *environment's* failures — node crashes, lost and duplicated messages —
//! as controlled nondeterminism the systematic scheduler explores, replays
//! and reports. This module makes faults a core decision source instead of a
//! per-harness convention:
//!
//! * harnesses declare which machines may crash / restart and which inbound
//!   channels are lossy
//!   ([`Runtime::mark_crashable`](crate::runtime::Runtime::mark_crashable),
//!   [`Runtime::mark_restartable`](crate::runtime::Runtime::mark_restartable),
//!   [`Runtime::mark_lossy`](crate::runtime::Runtime::mark_lossy));
//! * a [`FaultPlan`] bounds how many faults of each kind one execution may
//!   suffer (the *fault budget*, configured via
//!   [`RuntimeConfig::faults`](crate::runtime::RuntimeConfig) /
//!   [`TestConfig::with_faults`](crate::engine::TestConfig::with_faults));
//! * at every scheduling point with remaining budget the runtime offers the
//!   applicable [`Fault`] candidates to the scheduler
//!   ([`Scheduler::next_fault`](crate::scheduler::Scheduler::next_fault));
//!   an injected fault is recorded in the trace's decision stream
//!   ([`Decision::CrashMachine`] and friends), so it replays byte-for-byte
//!   and the shrink pass can search for the *minimum fault set* that still
//!   reproduces a bug.
//!
//! Fault probing draws from its own random stream (a [`FaultGate`] embedded
//! in each scheduler), decorrelated from the scheduling stream: enabling a
//! fault budget does not perturb the schedule choices an execution would
//! otherwise make — the two executions only diverge once the first fault
//! actually fires.

use std::fmt;

use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::machine::MachineId;
use crate::rng::{mix64, SplitMix64};
use crate::trace::Decision;

/// Salt decorrelating every fault-probe stream from the scheduling stream of
/// the same seed.
const FAULT_STREAM: u64 = 0x6F1B_39D4_A2E8_07C5;

/// Per-execution budget of injectable faults, by kind.
///
/// A zero budget (the default, [`FaultPlan::none`]) disables fault injection
/// entirely: the runtime never queries the scheduler for faults and the
/// decision stream is identical to a fault-free build. Budgets bound the
/// *maximum* number of injections; the scheduler decides nondeterministically
/// whether, when and where each one fires, so a budget of `crashes: 1`
/// explores the no-crash execution too.
///
/// Budgets must respect the fault tolerance of the system-under-test: a
/// system designed to survive one node failure will legitimately violate its
/// liveness spec when three nodes are crashed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Maximum number of machine crashes ([`Decision::CrashMachine`]).
    pub crashes: u32,
    /// Maximum number of machine restarts ([`Decision::RestartMachine`]).
    pub restarts: u32,
    /// Maximum number of dropped messages ([`Decision::DropMessage`]).
    pub drops: u32,
    /// Maximum number of duplicated messages
    /// ([`Decision::DuplicateMessage`]).
    pub duplicates: u32,
}

impl FaultPlan {
    /// The empty plan: no fault is ever injected.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan to extend with the `with_*` builders.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the crash budget.
    pub fn with_crashes(mut self, crashes: u32) -> Self {
        self.crashes = crashes;
        self
    }

    /// Sets the restart budget.
    pub fn with_restarts(mut self, restarts: u32) -> Self {
        self.restarts = restarts;
        self
    }

    /// Sets the message-drop budget.
    pub fn with_drops(mut self, drops: u32) -> Self {
        self.drops = drops;
        self
    }

    /// Sets the message-duplication budget.
    pub fn with_duplicates(mut self, duplicates: u32) -> Self {
        self.duplicates = duplicates;
        self
    }

    /// Total remaining budget across all kinds.
    pub fn total(&self) -> u32 {
        self.crashes + self.restarts + self.drops + self.duplicates
    }

    /// Returns `true` when no fault of any kind is budgeted.
    pub fn is_none(&self) -> bool {
        self.total() == 0
    }

    /// Parses the CLI spelling of a fault plan: a comma-separated list of
    /// `kind=N` entries, e.g. `crash=1,drop=2`. Accepted kinds (with
    /// aliases): `crash`/`crashes`, `restart`/`restarts`, `drop`/`drops`,
    /// `dup`/`dups`/`duplicate`/`duplicates`. The literal `none` is the
    /// empty plan.
    pub fn parse(text: &str) -> Option<FaultPlan> {
        if text == "none" {
            return Some(FaultPlan::none());
        }
        let mut plan = FaultPlan::none();
        for entry in text.split(',') {
            let (kind, count) = entry.split_once('=')?;
            let count: u32 = count.parse().ok()?;
            match kind {
                "crash" | "crashes" => plan.crashes = count,
                "restart" | "restarts" => plan.restarts = count,
                "drop" | "drops" => plan.drops = count,
                "dup" | "dups" | "duplicate" | "duplicates" => plan.duplicates = count,
                _ => return None,
            }
        }
        Some(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return f.write_str("none");
        }
        let mut sep = "";
        for (name, count) in [
            ("crash", self.crashes),
            ("restart", self.restarts),
            ("drop", self.drops),
            ("dup", self.duplicates),
        ] {
            if count > 0 {
                write!(f, "{sep}{name}={count}")?;
                sep = ",";
            }
        }
        Ok(())
    }
}

impl ToJson for FaultPlan {
    fn to_json_value(&self) -> Json {
        Json::object([
            ("crashes", Json::UInt(self.crashes as u64)),
            ("restarts", Json::UInt(self.restarts as u64)),
            ("drops", Json::UInt(self.drops as u64)),
            ("duplicates", Json::UInt(self.duplicates as u64)),
        ])
    }
}

impl FromJson for FaultPlan {
    fn from_json_value(value: &Json) -> Result<Self, JsonError> {
        let field = |key: &str| -> Result<u32, JsonError> {
            match value.opt(key) {
                Some(v) => Ok(v.as_u64()? as u32),
                None => Ok(0),
            }
        };
        Ok(FaultPlan {
            crashes: field("crashes")?,
            restarts: field("restarts")?,
            drops: field("drops")?,
            duplicates: field("duplicates")?,
        })
    }
}

/// One injectable fault the runtime is offering at the current scheduling
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Crash the machine: it stops executing, its mailbox is lost, and it
    /// stays disabled until (and unless) a [`Fault::Restart`] is injected.
    Crash(MachineId),
    /// Restart a crashed machine: it becomes schedulable again and its
    /// [`Machine::on_restart`](crate::machine::Machine::on_restart) hook
    /// runs (persistent state survives; volatile state is the hook's job).
    Restart(MachineId),
    /// Drop the oldest message queued at the machine's (lossy) inbox.
    Drop(MachineId),
    /// Re-deliver a copy of the oldest message queued at the machine's
    /// (lossy) inbox, behind the existing queue.
    Duplicate(MachineId),
}

impl Fault {
    /// The machine the fault targets.
    pub fn machine(self) -> MachineId {
        match self {
            Fault::Crash(id) | Fault::Restart(id) | Fault::Drop(id) | Fault::Duplicate(id) => id,
        }
    }

    /// The decision-stream record of this fault.
    pub fn decision(self) -> Decision {
        match self {
            Fault::Crash(id) => Decision::CrashMachine(id),
            Fault::Restart(id) => Decision::RestartMachine(id),
            Fault::Drop(id) => Decision::DropMessage(id),
            Fault::Duplicate(id) => Decision::DuplicateMessage(id),
        }
    }

    /// The fault a recorded decision describes, if it is a fault decision.
    pub fn from_decision(decision: Decision) -> Option<Fault> {
        match decision {
            Decision::CrashMachine(id) => Some(Fault::Crash(id)),
            Decision::RestartMachine(id) => Some(Fault::Restart(id)),
            Decision::DropMessage(id) => Some(Fault::Drop(id)),
            Decision::DuplicateMessage(id) => Some(Fault::Duplicate(id)),
            _ => None,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Crash(id) => write!(f, "crash {id}"),
            Fault::Restart(id) => write!(f, "restart {id}"),
            Fault::Drop(id) => write!(f, "drop message at {id}"),
            Fault::Duplicate(id) => write!(f, "duplicate message at {id}"),
        }
    }
}

/// Expected number of fault-probe steps between injections: at each probe the
/// gate fires with probability `1 / FAULT_PROBE_PERIOD`, so injection times
/// are geometrically distributed and faults land at varied points of the
/// execution across seeds.
const FAULT_PROBE_PERIOD: usize = 64;

/// The seeded decision source every built-in scheduler uses to answer
/// [`Scheduler::next_fault`](crate::scheduler::Scheduler::next_fault).
///
/// The gate owns its own [`SplitMix64`] stream (derived from the execution
/// seed through the `FAULT_STREAM` salt), so probing for faults never
/// advances the scheduler's main random stream: with and without a fault
/// budget, the same seed yields the same schedule until the first fault
/// actually fires.
#[derive(Debug, Clone)]
pub struct FaultGate {
    rng: SplitMix64,
}

impl FaultGate {
    /// Creates a gate for the execution driven by `seed`.
    pub fn new(seed: u64) -> Self {
        FaultGate {
            rng: SplitMix64::new(mix64(seed ^ FAULT_STREAM)),
        }
    }

    /// One fault probe: fires a uniformly chosen candidate with probability
    /// `1 / FAULT_PROBE_PERIOD`, otherwise injects nothing this step.
    pub fn pick(&mut self, candidates: &[Fault]) -> Option<Fault> {
        if candidates.is_empty() {
            return None;
        }
        if self.rng.next_below(FAULT_PROBE_PERIOD) != 0 {
            return None;
        }
        Some(candidates[self.rng.next_below(candidates.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_and_totals() {
        let plan = FaultPlan::new()
            .with_crashes(2)
            .with_restarts(1)
            .with_drops(3)
            .with_duplicates(4);
        assert_eq!(plan.total(), 10);
        assert!(!plan.is_none());
        assert!(FaultPlan::none().is_none());
    }

    #[test]
    fn plan_parses_cli_spellings() {
        assert_eq!(FaultPlan::parse("none"), Some(FaultPlan::none()));
        assert_eq!(
            FaultPlan::parse("crash=1,drop=2"),
            Some(FaultPlan::new().with_crashes(1).with_drops(2))
        );
        assert_eq!(
            FaultPlan::parse("crashes=1,restarts=2,drops=3,dups=4"),
            Some(
                FaultPlan::new()
                    .with_crashes(1)
                    .with_restarts(2)
                    .with_drops(3)
                    .with_duplicates(4)
            )
        );
        assert_eq!(
            FaultPlan::parse("duplicate=9"),
            Some(FaultPlan::new().with_duplicates(9))
        );
        assert_eq!(FaultPlan::parse("crash"), None);
        assert_eq!(FaultPlan::parse("crash=x"), None);
        assert_eq!(FaultPlan::parse("meteor=1"), None);
    }

    #[test]
    fn plan_display_round_trips_through_parse() {
        let plan = FaultPlan::new().with_crashes(1).with_duplicates(2);
        assert_eq!(plan.to_string(), "crash=1,dup=2");
        assert_eq!(FaultPlan::parse(&plan.to_string()), Some(plan));
        assert_eq!(FaultPlan::none().to_string(), "none");
    }

    #[test]
    fn plan_json_round_trip_tolerates_missing_keys() {
        let plan = FaultPlan::new().with_crashes(1).with_drops(2);
        let json = plan.to_json_value().to_string_compact();
        let back = FaultPlan::from_json_value(&Json::parse(&json).expect("parse")).expect("plan");
        assert_eq!(back, plan);
        let partial = Json::parse(r#"{"crashes": 3}"#).expect("parse");
        assert_eq!(
            FaultPlan::from_json_value(&partial).expect("plan"),
            FaultPlan::new().with_crashes(3)
        );
    }

    #[test]
    fn fault_decision_round_trip() {
        let faults = [
            Fault::Crash(MachineId::from_raw(1)),
            Fault::Restart(MachineId::from_raw(2)),
            Fault::Drop(MachineId::from_raw(3)),
            Fault::Duplicate(MachineId::from_raw(4)),
        ];
        for fault in faults {
            let decision = fault.decision();
            assert!(decision.is_fault());
            assert_eq!(Fault::from_decision(decision), Some(fault));
        }
        assert_eq!(Fault::from_decision(Decision::Bool(true)), None);
    }

    #[test]
    fn gate_is_deterministic_and_eventually_fires() {
        let candidates = [
            Fault::Crash(MachineId::from_raw(0)),
            Fault::Drop(MachineId::from_raw(1)),
        ];
        let run = |seed: u64| {
            let mut gate = FaultGate::new(seed);
            (0..1_000)
                .map(|_| gate.pick(&candidates))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same probe stream");
        let fired: Vec<Fault> = run(7).into_iter().flatten().collect();
        assert!(!fired.is_empty(), "a 1000-step probe stream must fire");
        assert_ne!(
            run(7),
            run(8),
            "different seeds explore different fault timings"
        );
    }

    #[test]
    fn gate_never_fires_on_empty_candidates() {
        let mut gate = FaultGate::new(3);
        for _ in 0..100 {
            assert_eq!(gate.pick(&[]), None);
        }
    }
}
