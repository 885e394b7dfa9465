//! Workspace root crate of the P# FAST'16 reproduction.
//!
//! This crate only hosts the runnable examples (`examples/`), their shared
//! command-line options ([`cli`]) and the cross-crate integration tests
//! (`tests/`). The implementation lives in the workspace member crates:
//!
//! * `psharp` — the systematic testing runtime (the paper's contribution).
//! * `replsim` — the §2 example replication system.
//! * `vnext` — the Azure Storage vNext extent-management case study (§3).
//! * `chaintable` — the Live Table Migration case study (§4).
//! * `fabric` — the Azure Service Fabric case study (§5).
//! * `megakv` — the mega-scale sharded key-value store case study.

/// Debug-workflow options shared by the case-study examples: every example
/// accepts `--shrink` (delta-debug a found bug's schedule down to a minimal
/// replayable counterexample) and `--faults crash=N,restart=N,drop=N,dup=N`
/// (override the scenario's fault budget for scheduler-controlled fault
/// injection).
pub mod cli {
    use psharp::engine::BugReport;
    use psharp::prelude::*;

    /// Parsed `--shrink` / `--faults` options.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct DebugOptions {
        /// Delta-debug found bugs down to minimal counterexamples.
        pub shrink: bool,
        /// Fault budget override (`None` keeps the scenario's own budget).
        pub faults: Option<FaultPlan>,
    }

    impl DebugOptions {
        /// Parses the debug flags out of `std::env::args`, returning the
        /// options and the remaining (positional) arguments. A missing or
        /// malformed `--faults` value prints `error: ...` naming the flag
        /// and the value, and exits with status 2, as the bench binaries do.
        pub fn from_args() -> (Self, Vec<String>) {
            Self::parse(std::env::args().skip(1)).unwrap_or_else(|message| {
                eprintln!("error: {message}");
                std::process::exit(2)
            })
        }

        /// [`DebugOptions::from_args`] over `args`, with the usage error
        /// returned instead of reported. Unknown arguments are positionals.
        fn parse(args: impl IntoIterator<Item = String>) -> Result<(Self, Vec<String>), String> {
            let mut options = DebugOptions::default();
            let mut rest = Vec::new();
            let mut argv = args.into_iter();
            while let Some(arg) = argv.next() {
                match arg.as_str() {
                    "--shrink" => options.shrink = true,
                    "--faults" => {
                        let spec = argv.next().ok_or("--faults requires a plan")?;
                        options.faults = Some(FaultPlan::parse(&spec).ok_or_else(|| {
                            format!(
                                "--faults: {spec:?} is not a fault plan \
                                 (crash=N,restart=N,drop=N,dup=N|none)"
                            )
                        })?);
                    }
                    _ => rest.push(arg),
                }
            }
            Ok((options, rest))
        }

        /// Applies the options to a test configuration.
        pub fn apply(&self, config: TestConfig) -> TestConfig {
            let mut config = config.with_shrink(self.shrink);
            if let Some(faults) = self.faults {
                config = config.with_faults(faults);
            }
            config
        }

        /// The fault plan to run a scenario with: the `--faults` override
        /// when given, the scenario's own `default` otherwise.
        pub fn faults_or(&self, default: FaultPlan) -> FaultPlan {
            self.faults.unwrap_or(default)
        }
    }

    /// Prints the shrink outcome attached to a bug report (no-op when the
    /// run was not configured with `--shrink`): the reduction summary plus
    /// the tail of the minimized, replay-verified schedule.
    pub fn describe_shrink(report: &BugReport) {
        let Some(shrink) = &report.shrink else {
            return;
        };
        println!("shrink: {}", shrink.summary());
        let rendered = shrink.minimized.render_schedule();
        let lines: Vec<&str> = rendered.lines().collect();
        let tail = lines.len().saturating_sub(12);
        if tail > 0 {
            println!("minimized schedule (last 12 of {} steps):", lines.len());
        } else {
            println!("minimized schedule:");
        }
        for line in &lines[tail..] {
            println!("{line}");
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn parse(line: &[&str]) -> Result<(DebugOptions, Vec<String>), String> {
            DebugOptions::parse(line.iter().map(|arg| arg.to_string()))
        }

        #[test]
        fn debug_options_reject_a_missing_or_malformed_fault_plan() {
            let (options, rest) =
                parse(&["--shrink", "--faults", "crash=1,drop=2", "chaintable"]).expect("valid");
            assert!(options.shrink);
            assert_eq!(options.faults, FaultPlan::parse("crash=1,drop=2"));
            assert_eq!(rest, ["chaintable"]);

            let missing = parse(&["--faults"]).expect_err("a plan is required");
            assert!(missing.contains("--faults"), "{missing}");

            let malformed = parse(&["--faults", "meteor=1"]).expect_err("not a plan");
            assert!(
                malformed.contains("--faults") && malformed.contains("\"meteor=1\""),
                "{malformed}"
            );
        }
    }
}
