//! Workspace root crate of the P# FAST'16 reproduction.
//!
//! This crate only hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`); the implementation lives in the
//! workspace member crates, re-exported here for convenience:
//!
//! * [`psharp`] — the systematic testing runtime (the paper's contribution).
//! * [`replsim`] — the §2 example replication system.
//! * [`vnext`] — the Azure Storage vNext extent-management case study (§3).
//! * [`chaintable`] — the Live Table Migration case study (§4).
//! * [`fabric`] — the Azure Service Fabric case study (§5).

pub use chaintable;
pub use fabric;
pub use psharp;
pub use replsim;
pub use vnext;

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
        /// options and the remaining (positional) arguments.
        ///
        /// # Panics
        ///
        /// Panics on a malformed `--faults` value, mirroring the fail-fast
        /// CLI style of the bench binaries.
        pub fn from_args() -> (Self, Vec<String>) {
            let mut options = DebugOptions::default();
            let mut rest = Vec::new();
            let mut argv = std::env::args().skip(1);
            while let Some(arg) = argv.next() {
                match arg.as_str() {
                    "--shrink" => options.shrink = true,
                    "--faults" => {
                        let spec = argv.next().expect("--faults requires a plan");
                        options.faults = Some(
                            FaultPlan::parse(&spec)
                                .unwrap_or_else(|| panic!("unknown fault plan {spec:?}")),
                        );
                    }
                    _ => rest.push(arg),
                }
            }
            (options, rest)
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
}
