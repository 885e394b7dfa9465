//! Automatic schedule shrinking: delta-debugging a buggy trace down to a
//! minimal replayable counterexample.
//!
//! The traces that fall out of thousands-of-steps executions are far too long
//! for a human to read — the paper's replayable schedules are only a
//! productivity win if the engineer can actually see *which* interleaving
//! breaks the system. This module implements ddmin-style reduction (Zeller &
//! Hildebrandt's delta debugging, the same family of techniques P#-era tools
//! use to reduce schedules before showing them to developers) over the
//! replay-bearing decision stream of a recorded [`Trace`]:
//!
//! 1. delete a chunk of decisions from the current sequence;
//! 2. re-execute the harness under a *tolerant* replay
//!    ([`ReplayScheduler::tolerant`]): the surviving prefix is followed where
//!    it applies and every gap is resolved by a deterministic seeded tail;
//! 3. keep the mutation iff the **same bug** reproduces — in which case the
//!    new current sequence is the *recording* of the reduced execution
//!    (which ends exactly at bug detection, so it is self-trimming);
//! 4. repeat at finer granularities until no single deletion reproduces the
//!    bug (1-minimality) or the candidate budget is exhausted;
//! 5. *abandon a candidate that can no longer win*: step 3 only accepts a
//!    recording strictly shorter than the current sequence, and a recording
//!    only ever grows, so a candidate that stands at a step boundary with no
//!    bug pending and already as many decisions recorded as the current
//!    sequence has is stopped there ([`ExecutionOutcome::Cancelled`]). Run to
//!    its end it would have been rejected on length whatever its verdict, so
//!    the accepted sequences, both candidate counters and the minimized
//!    trace are exactly those of the search that runs every candidate out —
//!    only [`ShrinkReport::candidate_steps`] falls. (The coarse fault pass
//!    that precedes ddmin accepts a reproducing recording of any length, so
//!    its candidates always run to the end.)
//!
//! All candidates of a pass execute in one pooled [`Runtime`],
//! [`reset`](Runtime::reset) between them exactly as the engines reset theirs
//! between iterations: `setup` still runs once per candidate, but machines,
//! mailboxes, name table and trace keep their grown storage.
//!
//! The final sequence is re-executed once more under **strict** replay with a
//! full annotated schedule, so the [`ShrinkReport::minimized`] trace is
//! replay-verified end to end ([`ShrinkReport::returned`] says so, and says
//! what was handed back instead when that replay fails). Every candidate
//! execution is deterministic (seeded tail, serialized runtime), so shrinking
//! the same bug report yields byte-identical output on every run and at any
//! engine worker count — and shrinking an already-minimal trace is a no-op.

use std::time::{Duration, Instant};

use crate::error::Bug;
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::runtime::{ExecutionOutcome, Runtime, RuntimeConfig};
use crate::scheduler::ReplayScheduler;
use crate::trace::{Decision, Trace, TraceMode};

/// Salt decorrelating the tolerant-replay tail stream from the scheduler
/// stream that produced the original execution: candidate tails must not
/// accidentally mirror the choices the original scheduler would make.
const SHRINK_TAIL_STREAM: u64 = 0x51B2_7F4E_8D93_C601;

/// Bounds and execution parameters of one shrink pass, derived from the
/// owning test configuration
/// ([`TestConfig::shrink_config`](crate::engine::TestConfig::shrink_config)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrinkConfig {
    /// What every candidate executes under: the configuration of the
    /// exploration that recorded the trace. The pass ignores its
    /// `trace_mode`: candidates always record decisions only, and the
    /// verified re-recording always records the full schedule. Its fault
    /// budget is the hunt's, so the recorded fault decisions stay
    /// injectable; the tolerant tail itself never invents new faults, which
    /// is what makes the minimized fault set monotonically shrink.
    pub runtime: RuntimeConfig,
    /// Maximum number of candidate executions before the pass gives up and
    /// returns the best sequence found so far.
    pub max_candidates: u64,
}

/// Which trace a shrink pass handed back as [`ShrinkReport::minimized`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShrinkReturned {
    /// The strict re-recording of the sequence the search ended on (the
    /// input's own decisions when nothing could be deleted): replay-verified.
    Minimized,
    /// The search's final sequence did not strictly replay to the bug; the
    /// strict re-recording of the *input's* decisions is returned instead —
    /// replay-verified, but not reduced.
    Original,
    /// Neither sequence strictly replayed to the bug (the harness does not
    /// reproduce it any more): the input trace is returned as given,
    /// **unverified**.
    Unverified,
}

impl ShrinkReturned {
    fn label(self) -> &'static str {
        match self {
            ShrinkReturned::Minimized => "minimized",
            ShrinkReturned::Original => "original",
            ShrinkReturned::Unverified => "unverified",
        }
    }
}

/// The outcome of shrinking one buggy trace: the minimal counterexample,
/// whether it is replay-verified, and reduction statistics.
#[derive(Debug, Clone)]
pub struct ShrinkReport {
    /// Decision count of the original buggy trace (the paper's `#NDC`).
    pub original_decisions: usize,
    /// Decision count of the minimized trace.
    pub minimized_decisions: usize,
    /// Fault decisions in the original buggy trace (the injected fault set).
    pub original_faults: usize,
    /// Fault decisions in the minimized trace: the *minimum fault set* the
    /// bug still needs — the coarse first pass of the shrinker deletes whole
    /// faults before chunk-deleting schedule decisions.
    pub minimized_faults: usize,
    /// Candidate executions tried (including rejected ones).
    pub candidates_tried: u64,
    /// Candidate executions that reproduced the bug (accepted mutations).
    pub candidates_reproduced: u64,
    /// Machine steps executed over all candidate executions: the exact,
    /// host-independent cost of the search (the final strict re-recordings
    /// are not candidates and are not counted).
    pub candidate_steps: u64,
    /// Wall-clock time of the whole pass.
    pub elapsed: Duration,
    /// Which trace [`ShrinkReport::minimized`] is. Anything but
    /// [`ShrinkReturned::Minimized`] means the final strict replay failed.
    pub returned: ShrinkReturned,
    /// The minimized trace. Unless [`ShrinkReport::returned`] is
    /// [`ShrinkReturned::Unverified`], strict replay of this trace
    /// reproduces the same bug as the original.
    pub minimized: Trace,
}

impl ShrinkReport {
    /// Returns `true` when shrinking removed at least one decision.
    pub fn improved(&self) -> bool {
        self.minimized_decisions < self.original_decisions
    }

    /// The fraction of decisions removed, in percent (`0.0` for an
    /// already-minimal trace).
    pub fn reduction_percent(&self) -> f64 {
        if self.original_decisions == 0 {
            return 0.0;
        }
        let removed = self.original_decisions - self.minimized_decisions;
        removed as f64 * 100.0 / self.original_decisions as f64
    }

    /// Renders a one-line human-readable summary of the reduction.
    pub fn summary(&self) -> String {
        let faults = if self.original_faults > 0 {
            format!(
                ", faults {} -> {}",
                self.original_faults, self.minimized_faults
            )
        } else {
            String::new()
        };
        let returned = match self.returned {
            ShrinkReturned::Minimized => "",
            ShrinkReturned::Original => {
                "; the minimized sequence failed strict replay: returning the re-recorded original"
            }
            ShrinkReturned::Unverified => {
                "; UNVERIFIED: the bug no longer strictly replays: returning the input trace as given"
            }
        };
        format!(
            "shrunk {} -> {} decisions ({:.0}% removed{faults}, {} of {} candidates reproduced, {} candidate steps, {:.2}s){returned}",
            self.original_decisions,
            self.minimized_decisions,
            self.reduction_percent(),
            self.candidates_reproduced,
            self.candidates_tried,
            self.candidate_steps,
            self.elapsed.as_secs_f64()
        )
    }
}

impl ToJson for ShrinkReport {
    fn to_json_value(&self) -> Json {
        Json::object([
            (
                "original_decisions",
                Json::UInt(self.original_decisions as u64),
            ),
            (
                "minimized_decisions",
                Json::UInt(self.minimized_decisions as u64),
            ),
            ("original_faults", Json::UInt(self.original_faults as u64)),
            ("minimized_faults", Json::UInt(self.minimized_faults as u64)),
            ("candidates_tried", Json::UInt(self.candidates_tried)),
            (
                "candidates_reproduced",
                Json::UInt(self.candidates_reproduced),
            ),
            ("candidate_steps", Json::UInt(self.candidate_steps)),
            ("elapsed_seconds", Json::Float(self.elapsed.as_secs_f64())),
            ("returned", Json::Str(self.returned.label().to_string())),
            ("minimized", self.minimized.to_json_value()),
        ])
    }
}

impl FromJson for ShrinkReport {
    fn from_json_value(value: &Json) -> Result<Self, JsonError> {
        // The fault counters postdate the fault-injection refactor, and
        // `candidate_steps` / `returned` the pooled shrink pass; reports
        // written before them parse with zeroes and a verified trace.
        let fault_count = |key: &str| -> Result<usize, JsonError> {
            match value.opt(key) {
                Some(v) => v.as_usize(),
                None => Ok(0),
            }
        };
        let returned = match value.opt("returned").map(Json::as_str).transpose()? {
            None | Some("minimized") => ShrinkReturned::Minimized,
            Some("original") => ShrinkReturned::Original,
            Some("unverified") => ShrinkReturned::Unverified,
            Some(other) => {
                return Err(JsonError::new(format!(
                    "unknown shrink 'returned' value '{other}'"
                )))
            }
        };
        Ok(ShrinkReport {
            original_decisions: value.get("original_decisions")?.as_usize()?,
            minimized_decisions: value.get("minimized_decisions")?.as_usize()?,
            original_faults: fault_count("original_faults")?,
            minimized_faults: fault_count("minimized_faults")?,
            candidates_tried: value.get("candidates_tried")?.as_u64()?,
            candidates_reproduced: value.get("candidates_reproduced")?.as_u64()?,
            candidate_steps: value.opt("candidate_steps").map_or(Ok(0), Json::as_u64)?,
            returned,
            elapsed: Duration::from_secs_f64(value.get("elapsed_seconds")?.as_f64()?),
            minimized: Trace::from_json_value(value.get("minimized")?)?,
        })
    }
}

/// Two bugs are "the same" for shrinking purposes when they agree on kind,
/// message and source. The detection *step* is deliberately excluded: the
/// whole point of a reduced schedule is that the bug fires earlier.
pub fn same_bug(a: &Bug, b: &Bug) -> bool {
    a.kind == b.kind && a.message == b.message && a.source == b.source
}

/// Delta-debugs `trace` (which reproduces `bug` on the harness built by
/// `setup`) down to a minimal replayable counterexample.
///
/// The returned report carries a replay-verified minimized trace whenever
/// the harness still reproduces the bug; if no deletion reproduces it (or the
/// budget runs out before any does), the "minimized" trace is the strict
/// re-recording of the original decision sequence and
/// [`ShrinkReport::improved`] is `false`. [`ShrinkReport::returned`] names
/// the two ways out of that promise: the search's final sequence failing its
/// strict replay, and the input failing it too (a `setup` that is not a pure
/// function of the runtime it is given).
pub fn shrink_trace<F>(config: &ShrinkConfig, bug: &Bug, trace: &Trace, setup: &F) -> ShrinkReport
where
    F: Fn(&mut Runtime),
{
    let start = Instant::now();
    let mut pass = ShrinkPass {
        config,
        bug,
        seed: trace.seed,
        setup,
        pooled: None,
        candidate_steps: 0,
    };

    let original = trace.decisions.clone();
    let mut current = original.clone();
    let mut tried: u64 = 0;
    let mut reproduced: u64 = 0;

    // Coarse fault-minimization first pass: before touching schedule
    // decisions, try deleting whole injected faults — first the entire fault
    // set at once (most bugs either need their faults or none of them), then
    // each remaining fault individually until no single deletion reproduces.
    // Dropped faults cannot reappear: the tolerant tail never invents
    // faults, so every accepted recording carries a subset of the candidate's
    // fault set — the minimized trace reports the bug's *minimum fault set*.
    if current.iter().any(Decision::is_fault) {
        let without_faults: Vec<Decision> =
            current.iter().copied().filter(|d| !d.is_fault()).collect();
        tried += 1;
        if let Some(recording) = pass.reproduces(without_faults, None) {
            reproduced += 1;
            current = recording;
        }
        'fault_pass: loop {
            let fault_positions: Vec<usize> = current
                .iter()
                .enumerate()
                .filter(|(_, d)| d.is_fault())
                .map(|(i, _)| i)
                .collect();
            for position in fault_positions {
                if tried >= config.max_candidates {
                    break 'fault_pass;
                }
                let mut candidate = current.clone();
                candidate.remove(position);
                tried += 1;
                if let Some(recording) = pass.reproduces(candidate, None) {
                    reproduced += 1;
                    current = recording;
                    // Positions shifted; rescan the surviving faults.
                    continue 'fault_pass;
                }
            }
            break;
        }
    }

    // Classic ddmin over complements: delete one of `granularity` chunks,
    // refine the granularity when no deletion reproduces, restart coarse
    // after a success (the accepted recording may enable big deletions
    // again).
    let mut granularity: usize = 2;
    'ddmin: while current.len() >= 2
        && granularity <= current.len()
        && tried < config.max_candidates
    {
        let chunk = current.len().div_ceil(granularity);
        let mut start_index = 0;
        let mut accepted = false;
        while start_index < current.len() && tried < config.max_candidates {
            let end_index = (start_index + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end_index - start_index));
            candidate.extend_from_slice(&current[..start_index]);
            candidate.extend_from_slice(&current[end_index..]);
            tried += 1;
            // Only a strictly shorter recording is accepted, so the
            // candidate is abandoned once it has recorded `current.len()`
            // decisions (rule 5 of the module header).
            if let Some(recording) = pass.reproduces(candidate, Some(current.len())) {
                if recording.len() < current.len() {
                    reproduced += 1;
                    current = recording;
                    // Back to the coarsest useful granularity: deletions that
                    // failed before may succeed on the shorter sequence.
                    granularity = 2;
                    accepted = true;
                    break;
                }
            }
            start_index = end_index;
        }
        if accepted {
            continue 'ddmin;
        }
        if chunk <= 1 {
            // Single-decision deletions all failed: 1-minimal.
            break;
        }
        granularity = (granularity * 2).min(current.len());
    }

    // Re-record the winning sequence under strict replay with a full
    // annotated schedule: the minimized trace must stand on its own as a
    // replayable, human-readable counterexample. When it does not, fall back
    // to the input — and say so.
    let (returned, minimized) = if let Some(verified) = pass.record_verified(&current) {
        (ShrinkReturned::Minimized, verified)
    } else if let Some(verified) = pass.record_verified(&original) {
        (ShrinkReturned::Original, verified)
    } else {
        (ShrinkReturned::Unverified, trace.clone())
    };

    ShrinkReport {
        original_decisions: original.len(),
        minimized_decisions: minimized.decision_count(),
        original_faults: original.iter().filter(|d| d.is_fault()).count(),
        minimized_faults: minimized.fault_decision_count(),
        candidates_tried: tried,
        candidates_reproduced: reproduced,
        candidate_steps: pass.candidate_steps,
        elapsed: start.elapsed(),
        returned,
        minimized,
    }
}

/// The ingredients of one shrink pass, the runtime all its candidates share
/// and the step count they add up to.
struct ShrinkPass<'a, F> {
    config: &'a ShrinkConfig,
    bug: &'a Bug,
    seed: u64,
    setup: &'a F,
    /// The candidates' runtime, reset between them (`None` before the first).
    pooled: Option<Runtime>,
    candidate_steps: u64,
}

impl<F> ShrinkPass<'_, F>
where
    F: Fn(&mut Runtime),
{
    /// The deterministic seed of the tolerant-replay tail. Derived from the
    /// execution seed through its own stream so candidate tails do not
    /// mirror the original scheduler's choices.
    fn tail_seed(&self) -> u64 {
        crate::rng::mix64(self.seed ^ SHRINK_TAIL_STREAM)
    }

    /// Executes one candidate decision sequence under tolerant replay, in
    /// the pooled runtime. Returns the recording of the run iff it
    /// reproduces the same bug. With `beat: Some(n)` the run is abandoned —
    /// and the candidate rejected — once it has recorded `n` decisions with
    /// no bug pending.
    fn reproduces(
        &mut self,
        candidate: Vec<Decision>,
        beat: Option<usize>,
    ) -> Option<Vec<Decision>> {
        let scheduler = Box::new(ReplayScheduler::tolerant(candidate, self.tail_seed()));
        let config = RuntimeConfig {
            trace_mode: TraceMode::DecisionsOnly,
            ..self.config.runtime.clone()
        };
        let runtime = match &mut self.pooled {
            None => self
                .pooled
                .insert(Runtime::new(scheduler, config, self.seed)),
            Some(runtime) => {
                runtime.reset(scheduler, config, self.seed);
                runtime
            }
        };
        if let Some(cap) = beat {
            runtime.cancel_at_decisions(cap);
        }
        (self.setup)(runtime);
        let outcome = runtime.run();
        self.candidate_steps += runtime.steps() as u64;
        let reproduced =
            matches!(&outcome, ExecutionOutcome::BugFound(found) if same_bug(found, self.bug));
        // The recording ends at bug detection, so it is already trimmed.
        reproduced.then(|| runtime.trace().decisions.clone())
    }

    /// The free function `record_verified` applied to `decisions` under this
    /// pass's seed, bounds and bug.
    fn record_verified(&self, decisions: &[Decision]) -> Option<Trace> {
        let mut probe = Trace::new(self.seed);
        probe.decisions = decisions.to_vec();
        record_verified(self.config.runtime.clone(), &probe, self.bug, self.setup)
    }
}

/// Strictly replays `recorded` (its decisions, under its seed and the bounds
/// of `config`) with a full annotated schedule — [`TraceMode::Full`],
/// whatever `config` asks for — and returns the new recording iff the replay
/// reproduces `bug` without divergence. The one way a decision list becomes
/// a trace a report shows: the shrink pass's minimized trace and the engine's
/// re-recording of the bug exploration found both come from here.
pub(crate) fn record_verified<F>(
    config: RuntimeConfig,
    recorded: &Trace,
    bug: &Bug,
    setup: &F,
) -> Option<Trace>
where
    F: Fn(&mut Runtime),
{
    let scheduler = Box::new(ReplayScheduler::from_trace(recorded));
    let config = RuntimeConfig {
        trace_mode: TraceMode::Full,
        ..config
    };
    let mut runtime = Runtime::new(scheduler, config, recorded.seed);
    setup(&mut runtime);
    match runtime.run() {
        ExecutionOutcome::BugFound(found)
            if same_bug(&found, bug) && runtime.replay_error().is_none() =>
        {
            Some(runtime.take_trace())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BugKind;

    #[test]
    fn same_bug_ignores_the_detection_step() {
        let a = Bug::new(BugKind::SafetyViolation, "boom")
            .with_source("M")
            .with_step(10);
        let b = Bug::new(BugKind::SafetyViolation, "boom")
            .with_source("M")
            .with_step(3);
        assert!(same_bug(&a, &b));
        let c = Bug::new(BugKind::SafetyViolation, "other").with_source("M");
        assert!(!same_bug(&a, &c));
        let d = Bug::new(BugKind::LivenessViolation, "boom").with_source("M");
        assert!(!same_bug(&a, &d));
    }

    #[test]
    fn candidates_record_decisions_only_whatever_the_config_asks() {
        let config = ShrinkConfig {
            runtime: RuntimeConfig {
                trace_mode: TraceMode::Full,
                ..RuntimeConfig::default()
            },
            max_candidates: 1,
        };
        let bug = Bug::new(BugKind::SafetyViolation, "boom");
        let mut pass = ShrinkPass {
            config: &config,
            bug: &bug,
            seed: 7,
            setup: &|_: &mut Runtime| {},
            pooled: None,
            candidate_steps: 0,
        };
        assert_eq!(pass.reproduces(Vec::new(), None), None);
        let runtime = pass.pooled.as_ref().expect("the candidate ran");
        assert_eq!(runtime.trace().mode(), TraceMode::DecisionsOnly);
    }

    #[test]
    fn shrink_report_json_round_trip() {
        let mut minimized = Trace::new(7);
        minimized.push_decision(Decision::Bool(true));
        let report = ShrinkReport {
            original_decisions: 120,
            minimized_decisions: 1,
            original_faults: 3,
            minimized_faults: 1,
            candidates_tried: 40,
            candidates_reproduced: 6,
            candidate_steps: 900,
            elapsed: Duration::from_millis(125),
            returned: ShrinkReturned::Original,
            minimized,
        };
        let json = report.to_json_value().to_string_pretty();
        let back =
            ShrinkReport::from_json_value(&Json::parse(&json).expect("parse")).expect("roundtrip");
        assert_eq!(back.original_decisions, 120);
        assert_eq!(back.minimized_decisions, 1);
        assert_eq!(back.candidates_tried, 40);
        assert_eq!(back.candidates_reproduced, 6);
        assert!((back.elapsed.as_secs_f64() - 0.125).abs() < 1e-9);
        assert_eq!(back.minimized, report.minimized);
        assert_eq!(back.original_faults, 3);
        assert_eq!(back.minimized_faults, 1);
        assert!(back.improved());
        assert!(back.summary().contains("120 -> 1"));
        assert!(back.summary().contains("faults 3 -> 1"));
        assert_eq!(back.candidate_steps, 900);
        assert!(back.summary().contains("900 candidate steps"));
        assert_eq!(back.returned, ShrinkReturned::Original);
        assert!(back.summary().contains("re-recorded original"));
    }

    #[test]
    fn legacy_shrink_report_json_parses_with_zero_faults() {
        let legacy = r#"{
            "original_decisions": 10,
            "minimized_decisions": 2,
            "candidates_tried": 5,
            "candidates_reproduced": 1,
            "elapsed_seconds": 0.5,
            "minimized": {"seed": 1, "decisions": [], "steps": []}
        }"#;
        let report = ShrinkReport::from_json_value(&Json::parse(legacy).expect("parse"))
            .expect("legacy report parses");
        assert_eq!(report.original_faults, 0);
        assert_eq!(report.minimized_faults, 0);
        assert!(!report.summary().contains("faults"));
        assert_eq!(report.candidate_steps, 0);
        assert_eq!(report.returned, ShrinkReturned::Minimized);
        assert!(report.summary().ends_with("s)"), "{}", report.summary());
    }

    #[test]
    fn reduction_percent_handles_empty_and_partial() {
        let empty = ShrinkReport {
            original_decisions: 0,
            minimized_decisions: 0,
            original_faults: 0,
            minimized_faults: 0,
            candidates_tried: 0,
            candidates_reproduced: 0,
            candidate_steps: 0,
            elapsed: Duration::ZERO,
            returned: ShrinkReturned::Minimized,
            minimized: Trace::new(0),
        };
        assert_eq!(empty.reduction_percent(), 0.0);
        assert!(!empty.improved());
        let half = ShrinkReport {
            original_decisions: 10,
            minimized_decisions: 5,
            ..empty
        };
        assert_eq!(half.reduction_percent(), 50.0);
    }
}
