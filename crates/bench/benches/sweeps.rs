//! The two sweeps no `benchmark/` workload runs and that open ROADMAP items
//! still need: megakv per-step throughput from 256 to 10,240 machines, and
//! the copy-on-write fork against the full rebuild. Everything else about
//! performance — the six workloads, the end-to-end metrics that gate a PR,
//! the per-layer figures — is measured by `benchmark/` (see its README).
//!
//! A plain `harness = false` bench that prints one table. A row accumulates
//! rounds until its timed window reaches 100 ms (a window of a few
//! milliseconds cannot tell a change from the host's noise), does that five
//! times and reports the median repetition. `--quick` — the only flag — cuts
//! this to two repetitions of 2 ms: a smoke run showing the sweeps still
//! execute; the two scaling assertions hold on full runs only.
//!
//! Run with `cargo bench -p bench --bench sweeps [-- --quick]`.

use std::time::{Duration, Instant};

use psharp::prelude::*;
use psharp::runtime::RuntimeConfig;
use psharp::scheduler::RandomScheduler;

/// One table row: a repetition's accumulated timed window and the work done
/// inside it.
struct Row {
    window: Duration,
    work: u64,
    rounds: u64,
}

impl Row {
    fn rate(&self) -> f64 {
        self.work as f64 / self.window.as_secs_f64().max(1e-9)
    }
}

struct Sweep {
    quick: bool,
}

impl Sweep {
    /// Measures one row. `round(i)` does the `i`-th round of a repetition
    /// (numbered from 0 in every repetition, so repetitions do the same work)
    /// and returns the time its timed section took and the units of work done
    /// there; set-up a round needs stays outside that section. Prints and
    /// returns the repetition with the median rate.
    fn measure(
        &self,
        group: &str,
        name: &str,
        unit: &str,
        mut round: impl FnMut(u64) -> (Duration, u64),
    ) -> Row {
        let (reps, floor) = if self.quick {
            (2, Duration::from_millis(2))
        } else {
            (5, Duration::from_millis(100))
        };
        let mut rows: Vec<Row> = (0..reps)
            .map(|_| {
                let mut row = Row {
                    window: Duration::ZERO,
                    work: 0,
                    rounds: 0,
                };
                while row.window < floor {
                    let (elapsed, work) = round(row.rounds);
                    row.window += elapsed;
                    row.work += work;
                    row.rounds += 1;
                }
                row
            })
            .collect();
        rows.sort_by(|a, b| a.rate().total_cmp(&b.rate()));
        let row = rows.swap_remove(rows.len() / 2);
        println!(
            "{group:<15} {name:<20} median {:>9.3}ms  {:>11.0} {unit}/s  {:>6} rounds",
            row.window.as_secs_f64() * 1e3,
            row.rate(),
            row.rounds,
        );
        row
    }
}

/// Mega-scale machine-count sweep: the megakv harness embeds the *same* fixed
/// client workload (two clients, a few put/get pairs over two hot shards) in
/// systems of 256 to 10,240 machines, so per-step cost is the only thing that
/// varies. With the O(active) scheduling core (incremental enabled index,
/// lazy mailboxes) steps/s must stay within 2x as the cold machine count
/// grows 16x.
///
/// Two one-time O(total) costs are paid outside the timed section, so a row
/// measures steady-state stepping of the fixed active workload: harness
/// construction, and the start-up drain — every fresh machine owes one
/// schedulable `on_start` step, forced here in ascending id order (cold
/// replicas disable themselves after it).
fn megakv_scaling(sweep: &Sweep) {
    let rates = [256usize, 1_024, 4_096, 10_240].map(|total| {
        let config = megakv::MegaKvConfig::scale(total, 4);
        let name = format!("machines_{total}");
        sweep
            .measure("megakv_scaling", &name, "step", |round| {
                let seed = 42 + round;
                let mut rt = Runtime::new(
                    Box::new(RandomScheduler::new(seed)),
                    RuntimeConfig {
                        // Covers the start-up drain (one step per machine)
                        // plus the client workload.
                        max_steps: total + 4_000,
                        ..RuntimeConfig::default()
                    },
                    seed,
                );
                megakv::build_harness(&mut rt, &config);
                for raw in 0..rt.machine_count() {
                    rt.force_step(MachineId::from_raw(raw as u64));
                }
                let drained = rt.steps();
                let start = Instant::now();
                rt.run();
                let elapsed = start.elapsed();
                assert!(
                    rt.bug().is_none(),
                    "the fixed megakv scale harness must stay clean"
                );
                (elapsed, (rt.steps() - drained) as u64)
            })
            .rate()
    });
    let ratio = rates[2] / rates[0];
    println!("    steps/s at 4096 machines: {ratio:.2}x the 256-machine figure");
    assert!(
        sweep.quick || ratio >= 0.5,
        "megakv per-step throughput at 4096 machines fell to {ratio:.2}x the 256-machine \
         figure (the O(active) step loop must not scale with cold machines)"
    );
}

/// Machines stepped between fork and restore in the fork-cost sweep (they and
/// whatever they sent to make up the dirty set).
const FORK_DIRTY: u64 = 16;

/// Copy-on-write fork cost: the price of rewinding a runtime to a snapshot
/// after a low-dirty excursion — what a prefix-sharing engine does once per
/// iteration. Each scale builds the megakv harness once, snapshots it, then
/// repeatedly steps [`FORK_DIRTY`] machines (untimed) and restores (timed):
///
/// * `cow_machines_N` through [`Runtime::restore_from`], which re-clones only
///   the dirty set — O(dirty), flat as the machine count grows 40x;
/// * `full_machines_N` through [`Runtime::restore_from_full`], the
///   from-scratch rebuild that walks every slot — O(machines).
///
/// A low-dirty fork must be at least 5x cheaper at 10,240 machines.
fn fork_cost(sweep: &Sweep) {
    let mut speedup = 0.0;
    for total in [256usize, 4_096, 10_240] {
        let mut rt = Runtime::new(
            Box::new(RandomScheduler::new(11)),
            RuntimeConfig {
                max_steps: total + 100,
                ..RuntimeConfig::default()
            },
            11,
        );
        megakv::build_harness(&mut rt, &megakv::MegaKvConfig::scale(total, 0));
        let snapshot = rt.snapshot().expect("the megakv harness snapshots");
        let dirty = |rt: &mut Runtime| {
            for raw in 0..FORK_DIRTY {
                rt.force_step(MachineId::from_raw(raw));
            }
            rt.dirty_machine_count()
        };
        // Warm-up forks grow the machine and mailbox pools to steady state.
        for _ in 0..2 {
            dirty(&mut rt);
            rt.restore_from(&snapshot);
        }
        let mut dirty_machines = 0;
        let [cow, full] = [("cow", false), ("full", true)].map(|(path, full)| {
            let name = format!("{path}_machines_{total}");
            sweep
                .measure("fork_cost", &name, "restore", |_| {
                    dirty_machines = dirty(&mut rt);
                    let start = Instant::now();
                    if full {
                        rt.restore_from_full(&snapshot);
                    } else {
                        rt.restore_from(&snapshot);
                    }
                    (start.elapsed(), 1)
                })
                .rate()
        });
        speedup = cow / full;
        println!(
            "    {total} machines, {dirty_machines} dirty: the COW fork is {speedup:.1}x \
             cheaper than the full rebuild"
        );
    }
    assert!(
        sweep.quick || speedup >= 5.0,
        "the COW fork at 10240 machines is only {speedup:.1}x cheaper than a full rebuild \
         (a low-dirty restore must cost O(dirty), not O(machines))"
    );
}

fn main() {
    let mut sweep = Sweep { quick: false };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => sweep.quick = true,
            // `cargo bench` passes `--bench` through to the binary.
            "--bench" => {}
            other => panic!("unknown argument {other:?}: the only flag is --quick"),
        }
    }
    println!(
        "sweeps ({} mode)",
        if sweep.quick { "quick" } else { "full" }
    );
    megakv_scaling(&sweep);
    fork_cost(&sweep);
}
