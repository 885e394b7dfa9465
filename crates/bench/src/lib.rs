//! Shared experiment-runner utilities used by the table-regeneration binaries
//! (`table1`, `table2`), `fixed_check` and the `por_soundness` suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use psharp::json::{Json, ToJson};
use psharp::prelude::*;

/// One named, re-introducible bug together with the harness that exposes it.
pub struct BugCase {
    /// The case-study index used by the paper's Table 2 ("1" = vNext,
    /// "2" = MigratingTable, "3" = Fabric; "0" = the §2 example replication
    /// system, "4" = the mega-scale sharded KV store).
    pub case_study: u8,
    /// The paper's bug identifier.
    pub name: &'static str,
    /// Builds the harness with the bug re-introduced.
    pub build: Box<dyn Fn(&mut Runtime) + Send + Sync>,
    /// Per-execution step bound appropriate for the harness.
    pub max_steps: usize,
    /// The fault budget the bug needs ([`FaultPlan::none`] for bugs
    /// reachable on a reliable network without crashes). Applied by
    /// [`hunt_with_fault_override`] unless the caller passes a plan of its
    /// own.
    pub faults: FaultPlan,
}

/// The full list of re-introducible bugs across the case studies, in the
/// order of the paper's Table 2, plus the Fabric bugs reported in §5 and the
/// fault-induced bugs of the PR 5 fault-injection refactor (one per
/// case-study crate; each needs its [`BugCase::faults`] budget to be
/// reachable).
pub fn bug_cases() -> Vec<BugCase> {
    let mut cases: Vec<BugCase> = Vec::new();

    // The §2 example replication system: the fault-induced missing
    // retransmission bug (needs message loss on the lossy storage channel).
    cases.push(BugCase {
        case_study: 0,
        name: "ReplReqLostNoRetransmit",
        build: Box::new(|rt| {
            replsim::build_harness(rt, &replsim::ReplConfig::with_lost_replication_bug());
        }),
        max_steps: 2_500,
        faults: replsim::ReplConfig::with_lost_replication_bug().fault_plan(),
    });

    // Case study 1: Azure Storage vNext. The §3.6 liveness bug is
    // fault-induced: it needs a scheduler-injected EN crash.
    cases.push(BugCase {
        case_study: 1,
        name: "ExtentNodeLivenessViolation",
        build: Box::new(|rt| {
            vnext::build_harness(rt, &vnext::VnextConfig::with_liveness_bug());
        }),
        max_steps: 3_000,
        faults: vnext::VnextConfig::with_liveness_bug().fault_plan(),
    });

    // Case study 2: MigratingTable (the eleven named bugs of Table 2).
    for (name, config) in chaintable::named_bugs() {
        cases.push(BugCase {
            case_study: 2,
            name,
            build: Box::new(move |rt| {
                chaintable::build_harness(rt, &config);
            }),
            max_steps: 10_000,
            faults: FaultPlan::none(),
        });
    }
    // ... plus the fault-induced migrator-recovery bug (needs a
    // crash+restart of the migrator).
    cases.push(BugCase {
        case_study: 2,
        name: "MigratorRestartSkipsStep",
        build: Box::new(|rt| {
            chaintable::build_harness(rt, &chaintable::ChainConfig::with_restart_bug());
        }),
        max_steps: 10_000,
        faults: chaintable::ChainConfig::with_restart_bug().fault_plan(),
    });

    // Case study 3: Fabric (reported in §5, not part of Table 2). The
    // promotion bug is fault-induced: it needs a primary crash.
    cases.push(BugCase {
        case_study: 3,
        name: "FabricPromotePendingCopy",
        build: Box::new(|rt| {
            fabric::build_harness(rt, &fabric::FabricConfig::with_promotion_bug());
        }),
        max_steps: 5_000,
        faults: fabric::FabricConfig::with_promotion_bug().fault_plan(),
    });
    cases.push(BugCase {
        case_study: 3,
        name: "CScaleUninitializedConfig",
        build: Box::new(|rt| {
            fabric::build_harness(rt, &fabric::FabricConfig::with_pipeline_bug());
        }),
        max_steps: 2_000,
        faults: FaultPlan::none(),
    });

    // Case study 4: the mega-scale sharded KV store. Three bugs reachable on
    // a reliable network (the shard-aliasing bug only exists beyond 256
    // shards) plus the fault-induced promotion bug (needs a primary crash).
    cases.push(BugCase {
        case_study: 4,
        name: "MegaKvShardAliasing",
        build: Box::new(|rt| {
            megakv::build_harness(rt, &megakv::MegaKvConfig::with_shard_aliasing_bug());
        }),
        max_steps: 6_000,
        faults: FaultPlan::none(),
    });
    cases.push(BugCase {
        case_study: 4,
        name: "MegaKvSplitForgottenPrimary",
        build: Box::new(|rt| {
            megakv::build_harness(rt, &megakv::MegaKvConfig::with_split_bug());
        }),
        max_steps: 1_500,
        faults: FaultPlan::none(),
    });
    cases.push(BugCase {
        case_study: 4,
        name: "MegaKvRebalanceLostWrite",
        build: Box::new(|rt| {
            megakv::build_harness(rt, &megakv::MegaKvConfig::with_rebalance_bug());
        }),
        max_steps: 2_000,
        faults: FaultPlan::none(),
    });
    cases.push(BugCase {
        case_study: 4,
        name: "MegaKvPromoteLostWrite",
        build: Box::new(|rt| {
            megakv::build_harness(rt, &megakv::MegaKvConfig::with_promote_lost_write_bug());
        }),
        max_steps: 2_500,
        faults: megakv::MegaKvConfig::with_promote_lost_write_bug().fault_plan(),
    });

    cases
}

/// The outcome of hunting one bug with one scheduler (one cell group of
/// Table 2).
#[derive(Debug, Clone)]
pub struct BugHuntResult {
    /// The case-study index.
    pub case_study: u8,
    /// The bug identifier.
    pub bug: String,
    /// The scheduler label ("random", "pct", ...).
    pub scheduler: String,
    /// Whether the bug was found within the execution budget.
    pub found: bool,
    /// The winning iteration index (when found) — deterministic at any
    /// worker count.
    pub iteration: Option<u64>,
    /// The winning iteration's seed (when found) — deterministic at any
    /// worker count.
    pub seed: Option<u64>,
    /// Wall-clock time until the bug was found (when found).
    pub time_to_bug_seconds: Option<f64>,
    /// Number of nondeterministic choices in the first buggy execution.
    pub ndc: Option<usize>,
    /// Number of executions explored. Unlike the (iteration, seed,
    /// strategy) columns, this aggregate depends on how far other workers
    /// got before cancellation in runs that find a bug.
    pub executions: u64,
    /// Decision count of the minimized counterexample, when the hunt ran
    /// with schedule shrinking enabled and found a bug.
    pub minimized_ndc: Option<usize>,
    /// Wall-clock seconds the shrink pass spent, when it ran.
    pub shrink_time_seconds: Option<f64>,
    /// Candidate executions the shrink pass tried, when it ran.
    pub shrink_candidates: Option<u64>,
    /// Machine steps those candidates executed: the exact cost of the pass
    /// ([`ShrinkReport::candidate_steps`]).
    pub shrink_candidate_steps: Option<u64>,
    /// Fault decisions in the first buggy execution (when found): the
    /// injected fault set of the original recording.
    pub fault_decisions: Option<usize>,
    /// Fault decisions surviving in the minimized counterexample (when the
    /// hunt ran with shrinking): the bug's *minimum fault set*.
    pub minimized_fault_decisions: Option<usize>,
    /// The reported trace is the unannotated recording: the strict replay
    /// that re-records a found bug's schedule did not reproduce it. Shown in
    /// the table row, not in the JSON.
    pub unannotated: bool,
}

impl ToJson for BugHuntResult {
    fn to_json_value(&self) -> Json {
        Json::object([
            ("case_study", Json::UInt(self.case_study as u64)),
            ("bug", Json::Str(self.bug.clone())),
            ("scheduler", Json::Str(self.scheduler.clone())),
            ("found", Json::Bool(self.found)),
            (
                "iteration",
                match self.iteration {
                    Some(i) => Json::UInt(i),
                    None => Json::Null,
                },
            ),
            (
                "seed",
                match self.seed {
                    Some(s) => Json::UInt(s),
                    None => Json::Null,
                },
            ),
            (
                "time_to_bug_seconds",
                match self.time_to_bug_seconds {
                    Some(t) => Json::Float(t),
                    None => Json::Null,
                },
            ),
            (
                "ndc",
                match self.ndc {
                    Some(n) => Json::UInt(n as u64),
                    None => Json::Null,
                },
            ),
            ("executions", Json::UInt(self.executions)),
            (
                "minimized_ndc",
                match self.minimized_ndc {
                    Some(n) => Json::UInt(n as u64),
                    None => Json::Null,
                },
            ),
            (
                "shrink_time_seconds",
                match self.shrink_time_seconds {
                    Some(t) => Json::Float(t),
                    None => Json::Null,
                },
            ),
            (
                "shrink_candidates",
                match self.shrink_candidates {
                    Some(n) => Json::UInt(n),
                    None => Json::Null,
                },
            ),
            (
                "shrink_candidate_steps",
                match self.shrink_candidate_steps {
                    Some(n) => Json::UInt(n),
                    None => Json::Null,
                },
            ),
            (
                "fault_decisions",
                match self.fault_decisions {
                    Some(n) => Json::UInt(n as u64),
                    None => Json::Null,
                },
            ),
            (
                "minimized_fault_decisions",
                match self.minimized_fault_decisions {
                    Some(n) => Json::UInt(n as u64),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl BugHuntResult {
    /// Renders one row of the Table 2 layout. The `MinNDC` column holds the
    /// minimized decision count when the hunt ran with `--shrink`.
    pub fn table_row(&self) -> String {
        let found = if self.found { "yes" } else { "no " };
        let iteration = self
            .iteration
            .map(|i| format!("{i:7}"))
            .unwrap_or_else(|| format!("{:>7}", "-"));
        let time = self
            .time_to_bug_seconds
            .map(|t| format!("{t:10.2}"))
            .unwrap_or_else(|| format!("{:>10}", "-"));
        let ndc = self
            .ndc
            .map(|n| format!("{n:8}"))
            .unwrap_or_else(|| format!("{:>8}", "-"));
        let minimized = self
            .minimized_ndc
            .map(|n| format!("{n:8}"))
            .unwrap_or_else(|| format!("{:>8}", "-"));
        format!(
            "{:>2}  {:<38} {:<11} {}  {}  {}  {}  {:>9}  {}{}",
            self.case_study,
            self.bug,
            self.scheduler,
            found,
            iteration,
            time,
            ndc,
            self.executions,
            minimized,
            if self.unannotated {
                "  trace not annotated: its strict replay did not reproduce the bug"
            } else {
                ""
            }
        )
    }

    /// The header matching [`BugHuntResult::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:>2}  {:<38} {:<11} {}  {:>7}  {:>10}  {:>8}  {:>9}  {:>8}",
            "CS", "Bug Identifier", "Sched", "BF?", "Iter", "Time(s)", "#NDC", "Execs", "MinNDC"
        )
    }
}

/// Parses a scheduler name from the CLI (`table2 --scheduler`, `fixed_check
/// --scheduler`) into a [`SchedulerKind`]: `random`, `pct`, `delay`, `prob`
/// (aliases `delay-bounding`, `prob-random`), `round-robin`, `sleep-set`
/// (alias `por`) or `dpor`, each with its default parameterization.
/// `sleep-set:N` / `por:N` override the sleep-set fairness knob (a sleeping
/// machine is forcibly woken after `N` consecutive pass-overs).
pub fn parse_scheduler(name: &str) -> Option<SchedulerKind> {
    if let Some(skips) = name
        .strip_prefix("sleep-set:")
        .or_else(|| name.strip_prefix("por:"))
    {
        let wake_after_skips: u32 = skips.parse().ok()?;
        return Some(SchedulerKind::SleepSet { wake_after_skips });
    }
    match name {
        "random" => Some(SchedulerKind::Random),
        "pct" => Some(SchedulerKind::Pct { change_points: 2 }),
        "delay" | "delay-bounding" => Some(SchedulerKind::DelayBounding { delays: 2 }),
        "prob" | "prob-random" | "probabilistic" => {
            Some(SchedulerKind::ProbabilisticRandom { switch_percent: 10 })
        }
        "round-robin" => Some(SchedulerKind::RoundRobin),
        "sleep-set" | "por" => Some(SchedulerKind::sleep_set()),
        "dpor" => Some(SchedulerKind::Dpor),
        _ => None,
    }
}

/// What `--faults` asked for: every harness's own designed budget
/// (`--faults default`), or one plan applied to all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultArg {
    /// Each harness's own budget.
    PerHarness,
    /// One explicit global plan (`none` disables injection).
    Global(FaultPlan),
}

/// The engine configuration `table2` and `fixed_check` assemble from their
/// command lines: both feed every flag to [`EngineArgs::accept`] first and
/// handle only what it declines themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineArgs {
    /// The configuration built so far; binaries seed it with their defaults
    /// and write their own flags (`--seed`, `--scheduler`, ...) into it.
    pub config: TestConfig,
    /// The `--faults` choice, `None` when the flag was not given. It is not
    /// part of `config` because the binaries apply it per harness.
    pub faults: Option<FaultArg>,
}

impl EngineArgs {
    /// Starts from the binary's default configuration.
    pub fn new(config: TestConfig) -> Self {
        EngineArgs {
            config,
            faults: None,
        }
    }

    /// Applies `flag` when it is one of the shared engine flags —
    /// `--iterations N`, `--workers N|max`,
    /// `--faults default|none|crash=N,restart=N,drop=N,dup=N`, `--portfolio`,
    /// `--prefix-share` — taking its value from `values`. Returns `Ok(false)`
    /// for any other flag, and an error naming the flag and the offending
    /// value when the value is missing or malformed.
    pub fn accept(
        &mut self,
        flag: &str,
        values: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut value = |expected: &str| {
            values
                .next()
                .ok_or_else(|| format!("{flag} requires {expected}"))
        };
        let malformed =
            |value: &str, expected: &str| format!("{flag}: {value:?} is not {expected}");
        match flag {
            "--iterations" => {
                let text = value("a number")?;
                self.config.iterations = text.parse().map_err(|_| malformed(&text, "a number"))?;
            }
            "--workers" => {
                let text = value("a number or 'max'")?;
                self.config.workers = if text == "max" {
                    std::thread::available_parallelism().map_or(1, |n| n.get())
                } else {
                    let workers: usize = text
                        .parse()
                        .map_err(|_| malformed(&text, "a number or 'max'"))?;
                    workers.max(1)
                };
            }
            "--faults" => {
                let text = value("a plan or 'default'")?;
                self.faults = Some(if text == "default" {
                    FaultArg::PerHarness
                } else {
                    FaultArg::Global(FaultPlan::parse(&text).ok_or_else(|| {
                        malformed(&text, "a fault plan (crash=N,restart=N,drop=N,dup=N|none)")
                    })?)
                });
            }
            "--portfolio" => {
                self.config = std::mem::take(&mut self.config).with_default_portfolio();
            }
            "--prefix-share" => {
                self.config = std::mem::take(&mut self.config).with_prefix_sharing(true);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Reports a malformed command line and exits with status 2.
pub fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Runs one bug hunt under an arbitrary configuration (scheduler,
/// portfolio, worker count, shrinking): the result's `scheduler`
/// column is the report's label (the configured strategy, or the winning
/// portfolio strategy). The case's own step bound overrides the
/// configuration's. `fault_override` chooses the fault budget: `None` keeps
/// the case's own, `Some(plan)` replaces it with one global plan (e.g.
/// `table2 --faults`) — including `Some(FaultPlan::none())`, which genuinely
/// disables fault injection, the distinction an all-zero plan on the config
/// could not express.
pub fn hunt_with_fault_override(
    case: &BugCase,
    config: TestConfig,
    fault_override: Option<FaultPlan>,
) -> BugHuntResult {
    let config = config.with_faults(fault_override.unwrap_or(case.faults));
    let engine = TestEngine::new(config.with_max_steps(case.max_steps));
    let build = &case.build;
    let report = engine.run(|rt| build(rt));
    let shrink = report.bug.as_ref().and_then(|b| b.shrink.as_ref());
    BugHuntResult {
        case_study: case.case_study,
        bug: case.name.to_string(),
        scheduler: report.scheduler.to_string(),
        found: report.found_bug(),
        iteration: report.bug.as_ref().map(|b| b.iteration),
        seed: report.bug.as_ref().map(|b| b.trace.seed),
        time_to_bug_seconds: report.bug.as_ref().map(|b| b.time_to_bug.as_secs_f64()),
        ndc: report.bug.as_ref().map(|b| b.ndc),
        minimized_ndc: shrink.map(|s| s.minimized_decisions),
        shrink_time_seconds: shrink.map(|s| s.elapsed.as_secs_f64()),
        shrink_candidates: shrink.map(|s| s.candidates_tried),
        shrink_candidate_steps: shrink.map(|s| s.candidate_steps),
        fault_decisions: report.bug.as_ref().map(|b| b.trace.fault_decision_count()),
        minimized_fault_decisions: shrink.map(|s| s.minimized_faults),
        unannotated: report
            .bug
            .as_ref()
            .is_some_and(|b| b.trace.mode() == TraceMode::DecisionsOnly),
        executions: report.iterations_run,
    }
}

/// Verifies that a fixed (bug-free) harness stays clean under an arbitrary
/// configuration (scheduler, portfolio, worker count); returns the violation
/// if one is found.
pub fn verify_fixed_config<F>(build: F, config: TestConfig) -> Option<Bug>
where
    F: Fn(&mut Runtime) + Send + Sync,
{
    TestEngine::new(config).run(build).bug.map(|b| b.bug)
}

/// Formats a [`Duration`] in seconds with two decimals.
pub fn seconds(duration: Duration) -> String {
    format!("{:.2}", duration.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bug_case_list_covers_all_case_studies() {
        let cases = bug_cases();
        assert_eq!(cases.len(), 20);
        assert_eq!(cases.iter().filter(|c| c.case_study == 0).count(), 1);
        assert_eq!(cases.iter().filter(|c| c.case_study == 1).count(), 1);
        assert_eq!(cases.iter().filter(|c| c.case_study == 2).count(), 12);
        assert_eq!(cases.iter().filter(|c| c.case_study == 3).count(), 2);
        assert_eq!(cases.iter().filter(|c| c.case_study == 4).count(), 4);
        // Exactly one fault-induced bug per case-study crate.
        assert_eq!(cases.iter().filter(|c| !c.faults.is_none()).count(), 5);
    }

    #[test]
    fn fault_induced_bug_cases_are_found_with_their_budgets() {
        // One representative: the replsim lost-replication bug needs its
        // drop budget (no override: the case's own plan applies).
        let cases = bug_cases();
        let case = cases
            .iter()
            .find(|c| c.name == "ReplReqLostNoRetransmit")
            .expect("known case");
        let config = TestConfig::new().with_iterations(800).with_seed(21);
        let result = hunt_with_fault_override(case, config, None);
        assert!(result.found, "the fault-induced bug must be reachable");
        assert!(result.fault_decisions.unwrap_or(0) >= 1);
    }

    #[test]
    fn hunting_an_easy_bug_finds_it_quickly() {
        let cases = bug_cases();
        let delete_primary_key = cases
            .iter()
            .find(|c| c.name == "DeletePrimaryKey")
            .expect("known case");
        let config = TestConfig::new().with_iterations(500).with_seed(11);
        let result = hunt_with_fault_override(delete_primary_key, config, None);
        assert!(result.found);
        assert!(result.ndc.unwrap_or(0) > 0);
        assert!(result.table_row().contains("DeletePrimaryKey"));
    }

    #[test]
    fn parse_scheduler_covers_every_portfolio_family() {
        assert_eq!(parse_scheduler("random"), Some(SchedulerKind::Random));
        assert_eq!(
            parse_scheduler("pct"),
            Some(SchedulerKind::Pct { change_points: 2 })
        );
        assert_eq!(
            parse_scheduler("delay"),
            Some(SchedulerKind::DelayBounding { delays: 2 })
        );
        assert_eq!(
            parse_scheduler("prob"),
            Some(SchedulerKind::ProbabilisticRandom { switch_percent: 10 })
        );
        assert_eq!(
            parse_scheduler("round-robin"),
            Some(SchedulerKind::RoundRobin)
        );
        assert_eq!(
            parse_scheduler("sleep-set"),
            Some(SchedulerKind::sleep_set())
        );
        assert_eq!(parse_scheduler("por"), Some(SchedulerKind::sleep_set()));
        assert_eq!(
            parse_scheduler("sleep-set:3"),
            Some(SchedulerKind::SleepSet {
                wake_after_skips: 3
            })
        );
        assert_eq!(
            parse_scheduler("por:12"),
            Some(SchedulerKind::SleepSet {
                wake_after_skips: 12
            })
        );
        assert_eq!(parse_scheduler("dpor"), Some(SchedulerKind::Dpor));
        assert_eq!(parse_scheduler("nope"), None);
        assert_eq!(parse_scheduler("sleep-set:x"), None);
    }

    fn accept(args: &mut EngineArgs, line: &[&str]) -> Result<bool, String> {
        let mut values = line[1..].iter().map(|value| value.to_string());
        args.accept(line[0], &mut values)
    }

    #[test]
    fn engine_args_build_the_config_both_binaries_run() {
        let mut args = EngineArgs::new(TestConfig::new().with_seed(99));
        for line in [
            &["--iterations", "321"][..],
            &["--workers", "0"],
            &["--faults", "crash=1,drop=2"],
            &["--portfolio"],
            &["--prefix-share"],
        ] {
            assert_eq!(accept(&mut args, line), Ok(true), "{line:?}");
        }
        let expected = TestConfig::new()
            .with_seed(99)
            .with_iterations(321)
            .with_workers(1)
            .with_default_portfolio()
            .with_prefix_sharing(true);
        assert_eq!(args.config, expected);
        let plan = FaultPlan::parse("crash=1,drop=2").expect("well-formed plan");
        assert_eq!(args.faults, Some(FaultArg::Global(plan)));

        assert_eq!(accept(&mut args, &["--faults", "default"]), Ok(true));
        assert_eq!(args.faults, Some(FaultArg::PerHarness));
        assert_eq!(accept(&mut args, &["--workers", "max"]), Ok(true));
        assert!(args.config.workers >= 1);
        // Not a shared flag: left to the binary (which takes `--seed` and
        // answers the retired `--trace-mode` with its unknown-argument usage
        // error, exit 2), nothing consumed or changed.
        let before = args.clone();
        assert_eq!(accept(&mut args, &["--seed", "5"]), Ok(false));
        assert_eq!(accept(&mut args, &["--trace-mode", "full"]), Ok(false));
        assert_eq!(args, before);
    }

    #[test]
    fn malformed_engine_args_name_the_flag_and_the_value() {
        let mut args = EngineArgs::new(TestConfig::new());
        for (line, flag, value) in [
            (&["--iterations", "many"][..], "--iterations", "\"many\""),
            (&["--iterations", "-3"], "--iterations", "\"-3\""),
            (&["--workers", "lots"], "--workers", "\"lots\""),
            (&["--faults", "crash"], "--faults", "\"crash\""),
            (&["--faults", "meteor=1"], "--faults", "\"meteor=1\""),
            // A missing value names the flag and what it wants.
            (&["--iterations"], "--iterations", "requires a number"),
            (&["--workers"], "--workers", "requires a number or 'max'"),
            (&["--faults"], "--faults", "requires a plan"),
        ] {
            let message = accept(&mut args, line).expect_err("malformed input is rejected");
            assert!(
                message.contains(flag) && message.contains(value),
                "{line:?} -> {message:?}"
            );
        }
        assert_eq!(args, EngineArgs::new(TestConfig::new()), "nothing applied");
    }

    #[test]
    fn portfolio_bug_hunt_is_worker_count_independent() {
        let cases = bug_cases();
        let case = cases
            .iter()
            .find(|c| c.name == "DeletePrimaryKey")
            .expect("known case");
        let portfolio = TestConfig::new()
            .with_iterations(400)
            .with_seed(11)
            .with_default_portfolio();
        let one = hunt_with_fault_override(case, portfolio.clone().with_workers(1), None);
        let four = hunt_with_fault_override(case, portfolio.with_workers(4), None);
        assert!(one.found && four.found);
        assert_eq!(one.iteration, four.iteration, "same winning iteration");
        assert_eq!(one.seed, four.seed, "same winning seed");
        assert_eq!(one.scheduler, four.scheduler, "same winning strategy");
        assert_eq!(one.ndc, four.ndc, "same winning execution");
    }

    #[test]
    fn fixed_replsim_harness_verifies_clean() {
        let bug = verify_fixed_config(
            |rt| {
                replsim::build_harness(rt, &replsim::ReplConfig::default());
            },
            TestConfig::new()
                .with_iterations(25)
                .with_max_steps(2_500)
                .with_seed(7),
        );
        assert!(bug.is_none(), "unexpected violation: {bug:?}");
    }

    #[test]
    fn table_header_and_rows_align() {
        let header = BugHuntResult::table_header();
        let row = BugHuntResult {
            case_study: 2,
            bug: "QueryStreamedLock".to_string(),
            scheduler: "random".to_string(),
            found: false,
            iteration: None,
            seed: None,
            time_to_bug_seconds: None,
            ndc: None,
            minimized_ndc: None,
            shrink_time_seconds: None,
            shrink_candidates: None,
            shrink_candidate_steps: None,
            fault_decisions: None,
            minimized_fault_decisions: None,
            unannotated: false,
            executions: 1000,
        };
        assert!(!header.is_empty());
        assert!(row.table_row().contains("QueryStreamedLock"));
        assert!(!row.table_row().contains("not annotated"));
        let unannotated = BugHuntResult {
            unannotated: true,
            ..row
        };
        assert!(unannotated.table_row().contains("trace not annotated"));
    }
}
