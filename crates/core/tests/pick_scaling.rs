//! Guard on how a scheduling decision's cost grows with the enabled width.
//!
//! Every built-in strategy promises a pick that is at most linear in the
//! width *w* of the enabled set (the "cost per pick" table in
//! `scheduler.rs`). The workload is the shape on which that is hardest to
//! keep: a wide system after its start-up drain — *w* machines that took one
//! local step and went idle, so they sit in the sleep set without ageing —
//! next to *w* enabled machines whose steps are all local. Any search per
//! sleeper or per enabled machine makes sleep-set and DPOR picks cost *w²*
//! there.
//!
//! Sleep-set, DPOR and PCT promise more: a sleep-set or DPOR pick reads only
//! the enabled sleepers (a handful here, since each wakes after a few
//! pass-overs), a PCT pick above width 64 reads the top of its priority
//! index, and all three add binary searches into `enabled`. In release
//! builds they must stay within [`SLEEPER_MAX_RATIO`] from width 128 to
//! 2,048, far below the linear 16×. Debug builds check the enabled sleepers
//! and the index top against a scan of `enabled` at every pick, which is
//! O(*w*) by design, so there they are held to the linear bound like the
//! rest. Run the release check with
//! `cargo test --release -q -p psharp --test pick_scaling`.

use std::time::{Duration, Instant};

use psharp::prelude::*;

/// Picks timed per repetition.
const PICKS: usize = 512;
const REPETITIONS: usize = 5;
/// Widest allowed growth of the sleep-set, DPOR and PCT picks from `NARROW`
/// to `WIDE` in a release build: a logarithmic factor and cache effects, with
/// room for timer noise.
const SLEEPER_MAX_RATIO: f64 = 4.0;

/// The time of `PICKS` picks + footprints at `width`: the quickest of
/// `REPETITIONS` runs, each on a scheduler of its own. Each run's first pick
/// is taken before the clock starts: PCT draws every machine's priority
/// there, once per execution, which is not the per-pick cost this measures.
fn time_picks(kind: SchedulerKind, width: usize) -> Duration {
    let ids: Vec<MachineId> = (0..2 * width as u64).map(MachineId::from_raw).collect();
    let (idle, enabled) = ids.split_at(width);
    (0..REPETITIONS)
        .map(|repetition| {
            // A step bound far enough out that PCT and delay-bounding stay
            // in their priority-driven prefix.
            let mut scheduler = kind.build(repetition as u64, PICKS * 4);
            for &machine in idle {
                scheduler.note_footprint(&StepFootprint::new(machine));
            }
            let first = scheduler.next_machine(enabled, 0);
            scheduler.note_footprint(&StepFootprint::new(first));
            let start = Instant::now();
            for step in 1..=PICKS {
                let pick = scheduler.next_machine(enabled, step);
                assert!(
                    enabled.binary_search(&pick).is_ok(),
                    "{} picked {pick}, which is not enabled",
                    kind.describe()
                );
                scheduler.note_footprint(&StepFootprint::new(pick));
            }
            start.elapsed()
        })
        .min()
        .expect("at least one repetition")
}

#[test]
fn pick_cost_grows_at_most_linearly_with_the_enabled_width() {
    const NARROW: usize = 128;
    const WIDE: usize = 2_048;
    // Linear growth is WIDE / NARROW = 16 and quadratic is 256; the bound
    // sits between them with room for timer noise on either side.
    const MAX_RATIO: f64 = 64.0;
    let kinds = [
        SchedulerKind::Random,
        SchedulerKind::Pct { change_points: 2 },
        SchedulerKind::DelayBounding { delays: 2 },
        SchedulerKind::ProbabilisticRandom { switch_percent: 10 },
        SchedulerKind::RoundRobin,
        SchedulerKind::SleepSet,
        SchedulerKind::Dpor,
    ];
    for kind in kinds {
        let reads_no_scan = matches!(
            kind,
            SchedulerKind::SleepSet | SchedulerKind::Dpor | SchedulerKind::Pct { .. }
        );
        let bound = if reads_no_scan && !cfg!(debug_assertions) {
            SLEEPER_MAX_RATIO
        } else {
            MAX_RATIO
        };
        let narrow = time_picks(kind, NARROW);
        let wide = time_picks(kind, WIDE);
        let ratio = wide.as_secs_f64() / narrow.as_secs_f64().max(1e-9);
        assert!(
            ratio <= bound,
            "{}: {PICKS} picks took {narrow:?} at width {NARROW} and {wide:?} at width {WIDE} \
             ({ratio:.1}x against a bound of {bound}x; linear is {}x)",
            kind.describe(),
            WIDE / NARROW
        );
    }
}
