//! The benchmark's inputs as plain data: which harness, which step bound,
//! which fault budget. The values are copied from `bug_cases()` in
//! `crates/bench/src/lib.rs` and from `fixed_check` as they stand at the
//! commit that defines the benchmark, so a later edit there does not silently
//! change what the benchmark measures; `adapter::tests` checks the fault
//! budgets against the case-study crates' own `fault_plan()`.

/// A fault budget: how many of each fault the scheduler may inject per
/// execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Faults {
    pub crashes: u32,
    pub restarts: u32,
    pub drops: u32,
    pub duplicates: u32,
}

impl Faults {
    pub const NONE: Faults = Faults {
        crashes: 0,
        restarts: 0,
        drops: 0,
        duplicates: 0,
    };
}

const REPLSIM_FAULTS: Faults = Faults {
    drops: 2,
    duplicates: 1,
    ..Faults::NONE
};
const CRASH_ONLY: Faults = Faults {
    crashes: 1,
    ..Faults::NONE
};
const CHAIN_FAULTS: Faults = Faults {
    crashes: 1,
    restarts: 1,
    ..Faults::NONE
};

/// Every harness the benchmark builds. `adapter::build` turns one into the
/// setup closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Harness {
    ReplLostReplication,
    VnextLiveness,
    /// One of the eleven named MigratingTable bugs of Table 2.
    ChainNamed(&'static str),
    ChainRestart,
    FabricPromotion,
    FabricPipeline,
    KvAliasing,
    KvSplit,
    KvRebalance,
    KvPromote,
    ReplFixed,
    VnextFixed,
    ChainFixed,
    FabricFixed,
    KvFixed,
    /// `MegaKvConfig::scale(machines, pairs_per_client)`.
    KvScale {
        machines: usize,
        pairs: usize,
    },
    /// The benchmark-owned ring harness (`adapter::build_ring`).
    Ring,
}

/// The case-study crates, as the per-layer metrics name them.
pub const CRATES: [&str; 5] = ["replsim", "vnext", "chaintable", "fabric", "megakv"];

/// One harness with the bounds it is run under.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Index into [`CRATES`].
    pub krate: usize,
    pub name: &'static str,
    pub harness: Harness,
    pub max_steps: usize,
    pub faults: Faults,
}

/// The 20 seeded bugs, in `bug_cases()` order.
pub fn bug_cases() -> Vec<Case> {
    let mut cases = vec![
        Case {
            krate: 0,
            name: "ReplReqLostNoRetransmit",
            harness: Harness::ReplLostReplication,
            max_steps: 2_500,
            faults: REPLSIM_FAULTS,
        },
        Case {
            krate: 1,
            name: "ExtentNodeLivenessViolation",
            harness: Harness::VnextLiveness,
            max_steps: 3_000,
            faults: CRASH_ONLY,
        },
    ];
    for name in [
        "QueryAtomicFilterShadowing",
        "QueryStreamedLock",
        "QueryStreamedBackUpNewStream",
        "DeleteNoLeaveTombstonesEtag",
        "DeletePrimaryKey",
        "EnsurePartitionSwitchedFromPopulated",
        "TombstoneOutputETag",
        "QueryStreamedFilterShadowing",
        "MigrateSkipPreferOld",
        "MigrateSkipUseNewWithTombstones",
        "InsertBehindMigrator",
    ] {
        cases.push(Case {
            krate: 2,
            name,
            harness: Harness::ChainNamed(name),
            max_steps: 10_000,
            faults: Faults::NONE,
        });
    }
    cases.extend([
        Case {
            krate: 2,
            name: "MigratorRestartSkipsStep",
            harness: Harness::ChainRestart,
            max_steps: 10_000,
            faults: CHAIN_FAULTS,
        },
        Case {
            krate: 3,
            name: "FabricPromotePendingCopy",
            harness: Harness::FabricPromotion,
            max_steps: 5_000,
            faults: CRASH_ONLY,
        },
        Case {
            krate: 3,
            name: "CScaleUninitializedConfig",
            harness: Harness::FabricPipeline,
            max_steps: 2_000,
            faults: Faults::NONE,
        },
        Case {
            krate: 4,
            name: "MegaKvShardAliasing",
            harness: Harness::KvAliasing,
            max_steps: 6_000,
            faults: Faults::NONE,
        },
        Case {
            krate: 4,
            name: "MegaKvSplitForgottenPrimary",
            harness: Harness::KvSplit,
            max_steps: 1_500,
            faults: Faults::NONE,
        },
        Case {
            krate: 4,
            name: "MegaKvRebalanceLostWrite",
            harness: Harness::KvRebalance,
            max_steps: 2_000,
            faults: Faults::NONE,
        },
        Case {
            krate: 4,
            name: "MegaKvPromoteLostWrite",
            harness: Harness::KvPromote,
            max_steps: 2_500,
            faults: CRASH_ONLY,
        },
    ]);
    cases
}

/// The five fixed systems with `fixed_check`'s step bounds and each harness's
/// designed fault budget (`fixed_check --faults default`).
pub fn fixed_cases() -> Vec<Case> {
    vec![
        Case {
            krate: 0,
            name: "replsim-fixed",
            harness: Harness::ReplFixed,
            max_steps: 2_500,
            faults: REPLSIM_FAULTS,
        },
        Case {
            krate: 1,
            name: "vnext-fixed",
            harness: Harness::VnextFixed,
            max_steps: 3_000,
            faults: CRASH_ONLY,
        },
        Case {
            krate: 2,
            name: "chaintable-fixed",
            harness: Harness::ChainFixed,
            max_steps: 10_000,
            faults: CHAIN_FAULTS,
        },
        Case {
            krate: 3,
            name: "fabric-fixed",
            harness: Harness::FabricFixed,
            max_steps: 5_000,
            faults: CRASH_ONLY,
        },
        Case {
            krate: 4,
            name: "megakv-fixed",
            harness: Harness::KvFixed,
            max_steps: 4_000,
            faults: CRASH_ONLY,
        },
    ]
}

/// Machines in the `wide_scale` harness.
pub const WIDE_MACHINES: usize = 1_024;

/// The `wide_scale` case: the step bound covers the start-up drain (one step
/// per machine) plus the client workload, as `megakv_scaling` sizes it.
pub fn wide_case() -> Case {
    Case {
        krate: 4,
        name: "megakv-scale-1024",
        harness: Harness::KvScale {
            machines: WIDE_MACHINES,
            pairs: 4,
        },
        max_steps: WIDE_MACHINES + 4_000,
        faults: Faults::NONE,
    }
}

/// Steps per execution of the `step_loop` harness, which never quiesces.
pub const RING_STEPS: usize = 20_000;

/// The `step_loop` case. `krate` is unused: the harness is the benchmark's.
pub fn ring_case() -> Case {
    Case {
        krate: usize::MAX,
        name: "ring",
        harness: Harness::Ring,
        max_steps: RING_STEPS,
        faults: Faults::NONE,
    }
}

/// The label of each entry of the default portfolio, in portfolio order.
/// `clean_sweep`, `step_loop` and `wide_scale` run the portfolio entry by
/// entry, so that every run gives each entry the same share of the work; the
/// engine's own per-iteration draw leaves that share to chance, and on these
/// harnesses one sleep-set or DPOR execution costs as much as a hundred
/// random ones.
pub const PORTFOLIO_LABELS: [&str; 9] = [
    "random",
    "pct",
    "pct",
    "pct",
    "delay",
    "prob",
    "round-robin",
    "sleep-set",
    "dpor",
];

/// Portfolio entries left out of the timed sweep of the fixed megakv: at the
/// commit that defines the benchmark, PCT and delay-bounding report a
/// liveness violation on it within some tens of executions, with or without
/// the crash budget, and a violation ends the run. The traced run of
/// `clean_sweep` runs these entries too and reports how many of them violate
/// (`clean.excluded_violation_share`), so the finding stays visible.
pub const KV_FIXED_EXCLUDED: [&str; 2] = ["pct", "delay"];

/// Whether the timed sweeps run portfolio entry `entry` on `case`.
pub fn sweeps(case: &Case, entry: usize) -> bool {
    case.harness != Harness::KvFixed || !KV_FIXED_EXCLUDED.contains(&PORTFOLIO_LABELS[entry])
}

/// The seven strategy labels of the default portfolio (its three PCT entries
/// share one label).
pub const STRATEGY_LABELS: [&str; 7] = [
    "random",
    "pct",
    "delay",
    "prob",
    "round-robin",
    "sleep-set",
    "dpor",
];
