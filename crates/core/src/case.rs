//! The case-study registry's entry type: one harness together with the step
//! bound and fault budget it is tested under.
//!
//! Each case-study crate defines its cases once, in `bugs()` (its seeded
//! bugs, in the order `table2` prints them) and `fixed()` (its fixed
//! system); the experiment binaries and the suites read those lists instead
//! of assembling a harness, a bound and a budget of their own.
//!
//! ```
//! use psharp::case::Case;
//! use psharp::prelude::*;
//!
//! let case = Case {
//!     case_study: 0,
//!     name: "Idle",
//!     max_steps: 10,
//!     faults: FaultPlan::none(),
//!     build: Box::new(|_rt| {}),
//! };
//! let config = TestConfig::new()
//!     .with_iterations(1)
//!     .with_max_steps(case.max_steps)
//!     .with_faults(case.faults);
//! assert!(!TestEngine::new(config).run(&case.build).found_bug());
//! ```

use crate::fault::FaultPlan;
use crate::runtime::Runtime;

/// One registered harness: a seeded bug or a fixed system.
pub struct Case {
    /// The case-study index of the paper's Table 2: 0 = the §2 example
    /// replication system, 1 = vNext, 2 = MigratingTable, 3 = Fabric,
    /// 4 = the mega-scale sharded KV store.
    pub case_study: u8,
    /// The paper's bug identifier, or the fixed system's label.
    pub name: &'static str,
    /// Per-execution step bound appropriate for the harness.
    pub max_steps: usize,
    /// For a seeded bug, the fault budget the bug needs ([`FaultPlan::none`]
    /// for bugs reachable on a reliable network without crashes), always
    /// applied unless the caller overrides it. For a fixed system, the
    /// budget the harness is designed to tolerate, applied only when the
    /// caller asks for each harness's own budget (`--faults default`).
    pub faults: FaultPlan,
    /// Builds the harness into an empty runtime.
    pub build: Box<dyn Fn(&mut Runtime) + Send + Sync>,
}
