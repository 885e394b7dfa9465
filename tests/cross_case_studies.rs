//! Cross-crate integration tests: every case study harness runs under the
//! same systematic testing engine, every seeded bug is findable, every fixed
//! variant stays clean, and buggy traces replay deterministically.

use psharp::prelude::*;

fn engine(iterations: u64, max_steps: usize, seed: u64, scheduler: SchedulerKind) -> TestEngine {
    engine_with_faults(iterations, max_steps, seed, scheduler, FaultPlan::none())
}

fn engine_with_faults(
    iterations: u64,
    max_steps: usize,
    seed: u64,
    scheduler: SchedulerKind,
    faults: FaultPlan,
) -> TestEngine {
    TestEngine::new(
        TestConfig::new()
            .with_iterations(iterations)
            .with_max_steps(max_steps)
            .with_seed(seed)
            .with_scheduler(scheduler)
            .with_faults(faults),
    )
}

#[test]
fn every_fixed_case_study_is_clean_under_both_schedulers() {
    // Random scheduling judges liveness at the step bound; PCT, being
    // starvation-prone, does not, so no violation of any kind is expected
    // under either.
    for scheduler in [
        SchedulerKind::Random,
        SchedulerKind::Pct { change_points: 2 },
    ] {
        let report = engine(50, 2_500, 1, scheduler).run(|rt| {
            replsim::build_harness(rt, &replsim::ReplConfig::default());
        });
        assert!(
            !report.found_bug(),
            "replsim/{:?}: {:?}",
            scheduler,
            report.bug
        );

        let report = engine(50, 3_000, 1, scheduler).run(|rt| {
            vnext::build_harness(rt, &vnext::VnextConfig::default());
        });
        assert!(
            !report.found_bug(),
            "vnext/{:?}: {:?}",
            scheduler,
            report.bug
        );

        let report = engine(50, 10_000, 1, scheduler).run(|rt| {
            chaintable::build_harness(rt, &chaintable::ChainConfig::fixed());
        });
        assert!(
            !report.found_bug(),
            "chaintable/{:?}: {:?}",
            scheduler,
            report.bug
        );

        let report = engine(50, 5_000, 1, scheduler).run(|rt| {
            fabric::build_harness(rt, &fabric::FabricConfig::default());
        });
        assert!(
            !report.found_bug(),
            "fabric/{:?}: {:?}",
            scheduler,
            report.bug
        );

        let report = engine(50, 4_000, 1, scheduler).run(|rt| {
            megakv::build_harness(rt, &megakv::MegaKvConfig::default());
        });
        assert!(
            !report.found_bug(),
            "megakv/{:?}: {:?}",
            scheduler,
            report.bug
        );
    }
}

#[test]
fn replsim_safety_bug_is_found_and_replays() {
    let engine = engine(5_000, 2_000, 7, SchedulerKind::Random);
    let config = replsim::ReplConfig::with_duplicate_counting_bug();
    let report = engine.run(move |rt| {
        replsim::build_harness(rt, &config);
    });
    let bug = report.bug.expect("safety bug");
    assert_eq!(bug.bug.kind, BugKind::SafetyViolation);

    let replayed = engine
        .replay(&bug.trace, move |rt| {
            replsim::build_harness(rt, &replsim::ReplConfig::with_duplicate_counting_bug());
        })
        .expect("replay reproduces the bug");
    assert_eq!(replayed.message, bug.bug.message);
}

#[test]
fn vnext_liveness_bug_is_found_by_random_and_not_judged_by_pct() {
    // The §3.6 bug is fault-induced: it needs an EN crash, injected by the
    // core scheduler under the scenario's fault budget.
    let hunt = |scheduler| {
        let config = vnext::VnextConfig::with_liveness_bug();
        engine_with_faults(3_000, 3_000, 2016, scheduler, config.fault_plan()).run(move |rt| {
            vnext::build_harness(rt, &config);
        })
    };
    let bug = hunt(SchedulerKind::Random)
        .bug
        .expect("random scheduling should find the bug");
    assert_eq!(bug.bug.kind, BugKind::LivenessViolation);
    // PCT is starvation-prone, so it takes no liveness verdict at the bound.
    let pct = hunt(SchedulerKind::Pct { change_points: 2 });
    assert!(
        pct.bug
            .as_ref()
            .is_none_or(|bug| bug.bug.kind != BugKind::LivenessViolation),
        "PCT judged liveness: {:?}",
        pct.bug.map(|bug| bug.bug)
    );
}

#[test]
fn chaintable_named_bugs_are_all_findable() {
    // Each of the eleven Table 2 bugs must be findable by at least one of the
    // two schedulers within a modest execution budget.
    for (name, config) in chaintable::named_bugs() {
        let found = [
            SchedulerKind::Random,
            SchedulerKind::Pct { change_points: 2 },
        ]
        .into_iter()
        .any(|scheduler| {
            engine(2_000, 10_000, 2016, scheduler)
                .run(move |rt| {
                    chaintable::build_harness(rt, &config);
                })
                .found_bug()
        });
        assert!(found, "bug {name} was not found by either scheduler");
    }
}

#[test]
fn fabric_bugs_are_found() {
    // The promotion bug is fault-induced: it needs a primary crash, injected
    // by the core scheduler under the scenario's fault budget.
    let config = fabric::FabricConfig::with_promotion_bug();
    let report = engine_with_faults(
        3_000,
        5_000,
        2016,
        SchedulerKind::Random,
        config.fault_plan(),
    )
    .run(move |rt| {
        fabric::build_harness(rt, &config);
    });
    assert_eq!(
        report.bug.expect("promotion bug").bug.kind,
        BugKind::SafetyViolation
    );

    let report = engine(2_000, 2_000, 2016, SchedulerKind::Random).run(|rt| {
        fabric::build_harness(rt, &fabric::FabricConfig::with_pipeline_bug());
    });
    assert_eq!(report.bug.expect("pipeline bug").bug.kind, BugKind::Panic);
}

#[test]
fn traces_of_found_bugs_serialize_and_replay_across_crates() {
    let engine = engine(3_000, 10_000, 5, SchedulerKind::Random);
    let config = chaintable::ChainConfig::for_named_bug("DeletePrimaryKey").expect("known bug");
    let report = engine.run(move |rt| {
        chaintable::build_harness(rt, &config);
    });
    let bug = report.bug.expect("bug found");
    let json = bug.trace.to_json().expect("serialize trace");
    let restored = Trace::from_json(&json).expect("parse trace");
    let config = chaintable::ChainConfig::for_named_bug("DeletePrimaryKey").expect("known bug");
    let replayed = engine
        .replay(&restored, move |rt| {
            chaintable::build_harness(rt, &config);
        })
        .expect("replay reproduces the bug");
    assert_eq!(replayed.kind, bug.bug.kind);
}
