//! Model statistics, used to regenerate Table 1 of the paper, plus the
//! per-strategy exploration statistics reported by portfolio testing runs.
//!
//! Each case-study harness reports how large its environment model is:
//! number of machines, declared state transitions and action handlers,
//! together with the size of the system-under-test and the number of bugs the
//! methodology found in it. A parallel portfolio run additionally reports a
//! [`StrategyStats`] row per scheduling strategy, attributing explored
//! executions, machine steps and found bugs to the strategy that produced
//! them.

use std::fmt;
use std::path::Path;

use crate::json::{FromJson, Json, JsonError, ToJson};

/// Modeling-cost statistics of one case study (one row of Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStats {
    /// Case study name ("vNext Extent Manager", "MigratingTable", ...).
    pub case_study: String,
    /// Lines of code of the system-under-test.
    pub system_loc: usize,
    /// Number of bugs found in the system-under-test.
    pub bugs_found: usize,
    /// Lines of code of the test harness.
    pub harness_loc: usize,
    /// Number of machines in the test harness.
    pub machines: usize,
    /// Number of state transitions declared by harness machines.
    pub state_transitions: usize,
    /// Number of action handlers declared by harness machines.
    pub action_handlers: usize,
}

impl ModelStats {
    /// Creates a statistics row with zero line counts; use
    /// [`ModelStats::with_loc`] or [`count_loc`] to fill them in.
    pub fn new(case_study: impl Into<String>) -> Self {
        ModelStats {
            case_study: case_study.into(),
            system_loc: 0,
            bugs_found: 0,
            harness_loc: 0,
            machines: 0,
            state_transitions: 0,
            action_handlers: 0,
        }
    }

    /// Sets the line counts.
    pub fn with_loc(mut self, system_loc: usize, harness_loc: usize) -> Self {
        self.system_loc = system_loc;
        self.harness_loc = harness_loc;
        self
    }

    /// Sets the number of bugs found.
    pub fn with_bugs(mut self, bugs_found: usize) -> Self {
        self.bugs_found = bugs_found;
        self
    }

    /// Sets the machine/state-transition/action-handler counts.
    pub fn with_model(
        mut self,
        machines: usize,
        state_transitions: usize,
        action_handlers: usize,
    ) -> Self {
        self.machines = machines;
        self.state_transitions = state_transitions;
        self.action_handlers = action_handlers;
        self
    }

    /// Renders the Table 1 header row.
    pub fn table_header() -> String {
        format!(
            "{:<28} {:>10} {:>4} {:>12} {:>4} {:>4} {:>4}",
            "System-under-test", "Sys #LoC", "#B", "Harness #LoC", "#M", "#ST", "#AH"
        )
    }
}

impl ToJson for ModelStats {
    fn to_json_value(&self) -> Json {
        Json::object([
            ("case_study", Json::Str(self.case_study.clone())),
            ("system_loc", Json::UInt(self.system_loc as u64)),
            ("bugs_found", Json::UInt(self.bugs_found as u64)),
            ("harness_loc", Json::UInt(self.harness_loc as u64)),
            ("machines", Json::UInt(self.machines as u64)),
            (
                "state_transitions",
                Json::UInt(self.state_transitions as u64),
            ),
            ("action_handlers", Json::UInt(self.action_handlers as u64)),
        ])
    }
}

impl FromJson for ModelStats {
    fn from_json_value(value: &Json) -> Result<Self, JsonError> {
        Ok(ModelStats {
            case_study: value.get("case_study")?.as_str()?.to_string(),
            system_loc: value.get("system_loc")?.as_usize()?,
            bugs_found: value.get("bugs_found")?.as_usize()?,
            harness_loc: value.get("harness_loc")?.as_usize()?,
            machines: value.get("machines")?.as_usize()?,
            state_transitions: value.get("state_transitions")?.as_usize()?,
            action_handlers: value.get("action_handlers")?.as_usize()?,
        })
    }
}

impl fmt::Display for ModelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} {:>10} {:>4} {:>12} {:>4} {:>4} {:>4}",
            self.case_study,
            self.system_loc,
            self.bugs_found,
            self.harness_loc,
            self.machines,
            self.state_transitions,
            self.action_handlers
        )
    }
}

/// Exploration statistics attributed to one scheduling strategy of a
/// (portfolio) testing run.
///
/// Produced by [`TestEngine::run`](crate::engine::TestEngine::run): one
/// row per distinct strategy in the portfolio (a single row outside
/// portfolio mode), in portfolio order. Attribution keys off the iteration's
/// assigned strategy
/// ([`TestConfig::strategy_for_iteration`](crate::engine::TestConfig::strategy_for_iteration)),
/// not off which worker executed it, so rows of bug-free runs are identical
/// at any worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyStats {
    /// The strategy description ("random", "pct(cp=2)", "delay(d=2)") —
    /// [`SchedulerKind::describe`](crate::scheduler::SchedulerKind::describe),
    /// which distinguishes parameterizations of the same strategy.
    pub scheduler: String,
    /// Executions this strategy explored to completion.
    pub iterations_run: u64,
    /// Machine steps executed under this strategy (including partial work of
    /// executions the parallel engine cancelled mid-flight).
    pub total_steps: u64,
    /// Property violations this strategy found (0 or 1 today: runs stop at
    /// the first bug).
    pub bugs_found: u64,
    /// Schedule-equivalents this strategy pruned instead of exploring
    /// (see
    /// [`Scheduler::pruned_equivalents`](crate::scheduler::Scheduler::pruned_equivalents)).
    /// Zero for non-reducing strategies; for the sleep-set strategy, the
    /// effective exploration rate is
    /// `(total_steps + pruned_schedules) / wall-time`.
    pub pruned_schedules: u64,
    /// Racing step pairs — dependent but unordered by happens-before — this
    /// strategy detected (see
    /// [`Scheduler::races_detected`](crate::scheduler::Scheduler::races_detected)).
    /// Zero for strategies without vector-clock tracking.
    pub races_detected: u64,
    /// Scheduling points resolved from a DPOR backtrack (see
    /// [`Scheduler::backtracks_scheduled`](crate::scheduler::Scheduler::backtracks_scheduled)).
    pub backtracks_scheduled: u64,
}

impl StrategyStats {
    /// Creates an empty row for `scheduler`.
    pub fn new(scheduler: impl Into<String>) -> Self {
        StrategyStats {
            scheduler: scheduler.into(),
            iterations_run: 0,
            total_steps: 0,
            bugs_found: 0,
            pruned_schedules: 0,
            races_detected: 0,
            backtracks_scheduled: 0,
        }
    }

    /// Folds another worker's tally for the same strategy into this row.
    ///
    /// # Panics
    ///
    /// Panics if the two rows describe different strategies.
    pub fn absorb(&mut self, other: &StrategyStats) {
        assert_eq!(
            self.scheduler, other.scheduler,
            "cannot merge stats of different strategies"
        );
        self.iterations_run += other.iterations_run;
        self.total_steps += other.total_steps;
        self.bugs_found += other.bugs_found;
        self.pruned_schedules += other.pruned_schedules;
        self.races_detected += other.races_detected;
        self.backtracks_scheduled += other.backtracks_scheduled;
    }

    /// Renders the header row matching [`StrategyStats`]'s `Display` output.
    pub fn table_header() -> String {
        format!(
            "{:<14} {:>12} {:>12} {:>5} {:>12} {:>8} {:>10}",
            "Strategy", "Execs", "Steps", "Bugs", "Pruned", "Races", "Backtracks"
        )
    }
}

impl fmt::Display for StrategyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>12} {:>12} {:>5} {:>12} {:>8} {:>10}",
            self.scheduler,
            self.iterations_run,
            self.total_steps,
            self.bugs_found,
            self.pruned_schedules,
            self.races_detected,
            self.backtracks_scheduled
        )
    }
}

impl ToJson for StrategyStats {
    fn to_json_value(&self) -> Json {
        Json::object([
            ("scheduler", Json::Str(self.scheduler.clone())),
            ("iterations_run", Json::UInt(self.iterations_run)),
            ("total_steps", Json::UInt(self.total_steps)),
            ("bugs_found", Json::UInt(self.bugs_found)),
            ("pruned_schedules", Json::UInt(self.pruned_schedules)),
            ("races_detected", Json::UInt(self.races_detected)),
            (
                "backtracks_scheduled",
                Json::UInt(self.backtracks_scheduled),
            ),
        ])
    }
}

/// Counts non-empty, non-comment lines of Rust code under a directory tree.
///
/// Used by the Table 1 harness to measure the size of each case-study crate
/// the same way the paper reports lines of code. Comment-only lines (starting
/// with `//`) and blank lines are excluded.
pub fn count_loc(dir: &Path) -> usize {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += count_loc(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = std::fs::read_to_string(&path) {
                total += text
                    .lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty() && !l.starts_with("//"))
                    .count();
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_all_fields() {
        let stats = ModelStats::new("vNext Extent Manager")
            .with_loc(19_775, 684)
            .with_bugs(1)
            .with_model(5, 11, 17);
        assert_eq!(stats.case_study, "vNext Extent Manager");
        assert_eq!(stats.system_loc, 19_775);
        assert_eq!(stats.harness_loc, 684);
        assert_eq!(stats.bugs_found, 1);
        assert_eq!(stats.machines, 5);
        assert_eq!(stats.state_transitions, 11);
        assert_eq!(stats.action_handlers, 17);
    }

    #[test]
    fn display_aligns_with_header() {
        let header = ModelStats::table_header();
        let row = ModelStats::new("MigratingTable")
            .with_loc(2_267, 2_275)
            .with_bugs(11)
            .with_model(3, 5, 10)
            .to_string();
        assert_eq!(header.len(), row.len());
        assert!(row.contains("MigratingTable"));
    }

    #[test]
    fn count_loc_of_this_crate_is_nonzero() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        assert!(count_loc(&src) > 100);
    }

    #[test]
    fn count_loc_missing_dir_is_zero() {
        assert_eq!(count_loc(Path::new("/definitely/not/a/real/path")), 0);
    }

    #[test]
    fn stats_round_trip_through_json() {
        let stats = ModelStats::new("Fabric").with_model(13, 21, 87);
        let json = stats.to_json_value().to_string_compact();
        let back = ModelStats::from_json_value(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(stats, back);
    }
}
