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

use std::time::{Duration, Instant};

use psharp::prelude::*;

/// Picks timed per repetition.
const PICKS: usize = 512;
const REPETITIONS: usize = 5;

/// The time of `PICKS` picks + footprints at `width`: the quickest of
/// `REPETITIONS` runs, each on a scheduler of its own.
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
            let start = Instant::now();
            for step in 0..PICKS {
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
        SchedulerKind::sleep_set(),
        SchedulerKind::Dpor,
    ];
    for kind in kinds {
        let narrow = time_picks(kind, NARROW);
        let wide = time_picks(kind, WIDE);
        let ratio = wide.as_secs_f64() / narrow.as_secs_f64().max(1e-9);
        assert!(
            ratio <= MAX_RATIO,
            "{}: {PICKS} picks took {narrow:?} at width {NARROW} and {wide:?} at width {WIDE} \
             ({ratio:.1}x; linear is {}x)",
            kind.describe(),
            WIDE / NARROW
        );
    }
}
