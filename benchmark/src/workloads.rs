//! The six workloads. Each is a *plan*: a list of *operations* (one hunt, one
//! sweep cell, one trace to minimise) that is a function of `--seed` alone. A
//! run executes the plan pass after pass until it has measured for the time it
//! was given; every pass does the identical work, so an operation's time is
//! the median of its times over the passes, which a slow second on a shared
//! host does not move. Load is closed-loop with a single client: the next
//! operation starts when the previous one has returned.
//!
//! Operations are grouped into *cells* — a seeded bug, a corpus trace, a
//! (harness, portfolio entry) pair — and the rate metrics are geometric means
//! over cells. A cell's cost per step is a property of the code; which seeds
//! happened to need many executions is not, and a sum over all operations
//! would let the unlucky seeds decide the result.
//!
//! Every seed the program sees comes from [`derive_seed`] applied to `--seed`;
//! the program receives only the generated [`RunSpec`]s.

use std::time::Instant;

use crate::adapter::{self, RunSpec, Strategies, Witness};
use crate::cases::{self, Case, Harness};
use crate::stats::derive_seed;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BugHunt,
    ShrinkReplay,
    CleanSweep,
    CleanSweepPar,
    StepLoop,
    WideScale,
}

pub const ALL: [Workload; 6] = [
    Workload::BugHunt,
    Workload::ShrinkReplay,
    Workload::CleanSweep,
    Workload::CleanSweepPar,
    Workload::StepLoop,
    Workload::WideScale,
];

/// Executions a hunt may spend. The hardest seeded bug needs about 600 on
/// average, so a hunt that misses at this budget means the bug has become
/// unreachable, not that the seed was unlucky.
pub const HUNT_BUDGET: u64 = 20_000;
/// Base seeds per bug in the `bug_hunt` plan.
const HUNT_SEEDS: u64 = 40;
/// Iterations of one `clean_sweep` cell (fixed system × portfolio entry).
const CLEAN_ITERATIONS: u64 = 100;
/// Iterations of one `step_loop` cell.
const RING_ITERATIONS: u64 = 24;
/// Corpus traces per seeded bug in `shrink_replay`. The three liveness bugs
/// get one: their traces are as long as the step bound whatever the seed, and
/// minimising one spends the whole candidate budget, about a second.
const CORPUS_TRACES: u64 = 16;
const CORPUS_TRACES_LIVENESS: u64 = 1;
/// Worker threads `clean_sweep_par` asks for at most.
const PAR_WORKERS_MAX: usize = 4;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::BugHunt => "bug_hunt",
            Workload::ShrinkReplay => "shrink_replay",
            Workload::CleanSweep => "clean_sweep",
            Workload::CleanSweepPar => "clean_sweep_par",
            Workload::StepLoop => "step_loop",
            Workload::WideScale => "wide_scale",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|workload| workload.name() == name)
    }

    /// What one operation of this workload is, for the output.
    pub fn operation(self) -> &'static str {
        match self {
            Workload::BugHunt => "hunt (one seeded bug, one base seed, until found)",
            Workload::ShrinkReplay => "corpus trace (strict replay, then shrink_trace)",
            Workload::CleanSweep | Workload::CleanSweepPar => {
                "sweep cell (one fixed system under one portfolio entry)"
            }
            Workload::StepLoop => "sweep cell (the ring harness under one portfolio entry)",
            Workload::WideScale => "sweep cell (1,024-machine megakv under one portfolio entry)",
        }
    }

    /// The seed stream of this workload's inputs. `clean_sweep_par` shares
    /// `clean_sweep`'s, so the two explore the identical executions.
    fn stream(self) -> u64 {
        match self {
            Workload::BugHunt => 1,
            Workload::ShrinkReplay => 2,
            Workload::CleanSweep | Workload::CleanSweepPar => 3,
            Workload::StepLoop => 4,
            Workload::WideScale => 5,
        }
    }
}

/// Iterations of the `wide_scale` cell of portfolio entry `entry`: one setup
/// and snapshot, then forks. At 1,024 machines a sleep-set execution costs
/// 0.13 s whatever the seed, a DPOR one 0.1 to 0.3 s and a PCT one 0.03 s,
/// both with several times the spread in steps, and the rest a millisecond.
/// The counts keep every cell under 2 s and give the cells that vary the most
/// executions to average over.
fn wide_iterations(entry: usize) -> u64 {
    match cases::PORTFOLIO_LABELS[entry] {
        "sleep-set" => 3,
        "dpor" => 10,
        "pct" => 24,
        _ => 12,
    }
}

/// Cores the host gives this process, as seen when first asked: a run that
/// pins itself to one CPU (`affinity`) asks before it does.
pub fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |cores| cores.get()))
}

/// The seed of the warm-up's operations: fixed, so that set-up takes the same
/// time whatever `--seed` is.
const WARM_UP_SEED: u64 = 0;

/// One operation of a plan.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Hunt a seeded bug; a miss is a failed operation.
    Hunt(RunSpec),
    /// Sweep a bug-free harness; a violation is a failed operation.
    Sweep(RunSpec),
    /// Strict-replay and minimise corpus trace number `n`.
    Shrink(usize),
}

/// What set-up produces: the workload, its seed, and (for `shrink_replay`)
/// the corpus of buggy traces.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub workers: usize,
    pub corpus: Vec<CorpusTrace>,
}

/// One buggy trace of the `shrink_replay` corpus: which seeded bug (its index
/// in `cases::bug_cases()`), under which bounds, and the trace.
pub struct CorpusTrace {
    pub bug: usize,
    pub case: Case,
    pub witness: Witness,
}

/// What one operation did. `ns` is the operation's latency; `steps` were run
/// in `step_ns` of it (all of it except on `shrink_replay`, where only the
/// strict replays the benchmark runs itself report their steps).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub ns: u64,
    pub executions: u64,
    pub steps: u64,
    pub step_ns: u64,
    pub failed: bool,
    /// Every exact count of the operation, for comparison across runs.
    pub counts: Vec<u64>,
    /// Winning iteration + 1 (hunts).
    pub execs_to_bug: Option<u64>,
    /// `(original, minimised)` decisions (shrinks).
    pub decisions: Option<(u64, u64)>,
}

/// Builds the inputs of `workload` from `seed`. Only `shrink_replay` has any
/// to build: its corpus of buggy traces, found by hunting.
pub fn prepare(workload: Workload, seed: u64) -> Result<Inputs, String> {
    let mut inputs = Inputs {
        workload,
        seed,
        workers: match workload {
            Workload::CleanSweepPar => host_cores().min(PAR_WORKERS_MAX),
            _ => 1,
        },
        corpus: Vec::new(),
    };
    if workload == Workload::ShrinkReplay {
        for (bug, case) in cases::bug_cases().into_iter().enumerate() {
            let liveness = matches!(
                case.harness,
                Harness::ReplLostReplication | Harness::VnextLiveness | Harness::KvSplit
            );
            let traces = if liveness {
                CORPUS_TRACES_LIVENESS
            } else {
                CORPUS_TRACES
            };
            for base in 0..traces {
                let spec = hunt_spec(case, derive_seed(seed, workload.stream(), base));
                let found = adapter::engine_run(&spec)
                    .found
                    .ok_or_else(|| format!("corpus: {} not found", case.name))?;
                inputs.corpus.push(CorpusTrace {
                    bug,
                    case,
                    witness: found.witness,
                });
            }
        }
    }
    Ok(inputs)
}

fn hunt_spec(case: Case, seed: u64) -> RunSpec {
    RunSpec {
        case,
        seed,
        iterations: HUNT_BUDGET,
        workers: 1,
        strategies: Strategies::Portfolio,
        prefix_share: false,
    }
}

impl Inputs {
    /// The plan: every operation of one pass, each with the cell it counts
    /// towards.
    pub fn plan(&self) -> Vec<(usize, Op)> {
        let seed_at = |index: u64| derive_seed(self.seed, self.workload.stream(), index);
        // One sweep cell per portfolio entry the case is swept under, seeded
        // from `offset` on.
        let cells = |case: Case, iterations: fn(usize) -> u64, prefix_share: bool, offset: u64| {
            (0..cases::PORTFOLIO_LABELS.len())
                .filter(move |&entry| cases::sweeps(&case, entry))
                .map(move |entry| {
                    Op::Sweep(RunSpec {
                        case,
                        seed: seed_at(offset + entry as u64),
                        iterations: iterations(entry),
                        workers: self.workers,
                        strategies: Strategies::Entry(entry),
                        prefix_share,
                    })
                })
        };
        match self.workload {
            Workload::BugHunt => (0..HUNT_SEEDS)
                .flat_map(|base| {
                    let seed = seed_at(base);
                    cases::bug_cases()
                        .into_iter()
                        .enumerate()
                        .map(move |(bug, case)| (bug, Op::Hunt(hunt_spec(case, seed))))
                })
                .collect(),
            Workload::ShrinkReplay => self
                .corpus
                .iter()
                .enumerate()
                .map(|(index, trace)| (trace.bug, Op::Shrink(index)))
                .collect(),
            Workload::CleanSweep | Workload::CleanSweepPar => cases::fixed_cases()
                .into_iter()
                .enumerate()
                .flat_map(|(index, case)| {
                    let offset = (index * cases::PORTFOLIO_LABELS.len()) as u64;
                    cells(case, |_| CLEAN_ITERATIONS, false, offset)
                })
                .enumerate()
                .collect(),
            Workload::StepLoop => cells(cases::ring_case(), |_| RING_ITERATIONS, false, 0)
                .enumerate()
                .collect(),
            Workload::WideScale => cells(cases::wide_case(), wide_iterations, true, 0)
                .enumerate()
                .collect(),
        }
    }

    /// The fixed small warm-up: a cut-down pass, run once before timing so
    /// that the first timed operation does not pay for first use of the code.
    /// It runs a fixed number of executions, not hunts to the end, so that
    /// set-up costs the same whatever the seed.
    pub fn warm_up(&self) -> Result<(), String> {
        let first_seed = derive_seed(WARM_UP_SEED, self.workload.stream(), 0);
        let plan = match self.workload {
            // The corpus is the input: there is nothing else to warm up on.
            Workload::ShrinkReplay => self.plan(),
            _ => Inputs {
                seed: WARM_UP_SEED,
                corpus: Vec::new(),
                ..*self
            }
            .plan(),
        };
        for (_, op) in plan {
            let op = match op {
                Op::Hunt(spec) if spec.seed == first_seed => Op::Sweep(RunSpec {
                    iterations: 3,
                    ..spec
                }),
                Op::Hunt(_) => continue,
                // One trace per bug, and not the liveness ones, which cost a
                // second each; the short traces warm the same code.
                Op::Shrink(index)
                    if self.corpus[index].witness.decisions() < 1_000
                        && (index == 0 || self.corpus[index - 1].bug != self.corpus[index].bug) =>
                {
                    op
                }
                Op::Shrink(_) => continue,
                Op::Sweep(spec) => match (spec.case.harness, spec.strategies) {
                    // One sleep-set or DPOR execution at 1,024 machines costs
                    // 0.1 to 0.3 s; the cheap entries warm the same fork path.
                    (Harness::KvScale { .. }, Strategies::Entry(entry))
                        if ["sleep-set", "dpor", "pct"]
                            .contains(&cases::PORTFOLIO_LABELS[entry]) =>
                    {
                        continue
                    }
                    (Harness::KvScale { .. }, _) => Op::Sweep(RunSpec {
                        iterations: 2,
                        ..spec
                    }),
                    (Harness::Ring, _) => Op::Sweep(RunSpec {
                        iterations: 1,
                        ..spec
                    }),
                    _ => Op::Sweep(RunSpec {
                        iterations: 5,
                        ..spec
                    }),
                },
            };
            // A warm-up hunt runs as a sweep and may well find its bug: only
            // an output-check error matters here, not the outcome.
            self.execute(op)?;
        }
        Ok(())
    }

    /// Runs one operation, times it, and checks its output. `Err` is a failed
    /// output check (the command fails); a failed *operation* — a hunt that
    /// misses, a violation on a fixed system, a minimised trace that does not
    /// replay — is reported in [`Outcome::failed`].
    pub fn execute(&self, op: Op) -> Result<Outcome, String> {
        match op {
            Op::Hunt(spec) => {
                let start = Instant::now();
                let result = adapter::engine_run(&spec);
                let ns = start.elapsed().as_nanos() as u64;
                let mut outcome = Outcome {
                    ns,
                    executions: result.executions,
                    steps: result.steps,
                    step_ns: ns,
                    counts: vec![result.executions, result.steps],
                    ..Outcome::default()
                };
                match &result.found {
                    Some(found) => {
                        if !adapter::strict_replay(&spec.case, &found.witness).same_bug {
                            return Err(format!(
                                "{} seed {}: the found bug does not strict-replay ({})",
                                spec.case.name,
                                spec.seed,
                                found.witness.describe()
                            ));
                        }
                        outcome.execs_to_bug = Some(found.iteration + 1);
                        outcome.counts.extend([
                            found.iteration,
                            found.seed,
                            found.witness.decisions() as u64,
                        ]);
                    }
                    None => outcome.failed = true,
                }
                Ok(outcome)
            }
            Op::Sweep(spec) => {
                let start = Instant::now();
                let result = adapter::engine_run(&spec);
                let ns = start.elapsed().as_nanos() as u64;
                if spec.case.harness == Harness::Ring
                    && result.steps != result.executions * cases::RING_STEPS as u64
                {
                    return Err(format!(
                        "ring: {} executions ran {} steps, not {} each",
                        result.executions,
                        result.steps,
                        cases::RING_STEPS
                    ));
                }
                let mut counts = vec![result.executions, result.steps];
                for row in &result.rows {
                    counts.extend([
                        row.executions,
                        row.steps,
                        row.pruned,
                        row.races,
                        row.backtracks,
                    ]);
                }
                Ok(Outcome {
                    ns,
                    executions: result.executions,
                    steps: result.steps,
                    step_ns: ns,
                    failed: result.found.is_some(),
                    counts,
                    ..Outcome::default()
                })
            }
            Op::Shrink(index) => {
                let CorpusTrace { case, witness, .. } = &self.corpus[index];
                let start = Instant::now();
                let replay = adapter::strict_replay(case, witness);
                let replay_ns = start.elapsed().as_nanos() as u64;
                let shrunk = adapter::shrink(case, witness);
                let ns = start.elapsed().as_nanos() as u64;
                if !replay.same_bug {
                    return Err(format!(
                        "{}: the corpus trace does not strict-replay",
                        case.name
                    ));
                }
                if shrunk.minimized_decisions > shrunk.original_decisions {
                    return Err(format!(
                        "{}: minimised to {} decisions from {}",
                        case.name, shrunk.minimized_decisions, shrunk.original_decisions
                    ));
                }
                let verify_start = Instant::now();
                let verify = adapter::strict_replay(case, &shrunk.minimized);
                let verify_ns = verify_start.elapsed().as_nanos() as u64;
                Ok(Outcome {
                    ns,
                    executions: shrunk.candidates,
                    steps: replay.steps + verify.steps,
                    step_ns: replay_ns + verify_ns,
                    failed: !verify.same_bug,
                    counts: vec![
                        replay.steps,
                        verify.steps,
                        shrunk.original_decisions as u64,
                        shrunk.minimized_decisions as u64,
                        shrunk.candidates,
                        shrunk.accepted,
                    ],
                    decisions: Some((
                        shrunk.original_decisions as u64,
                        shrunk.minimized_decisions as u64,
                    )),
                    ..Outcome::default()
                })
            }
        }
    }
}

/// FNV-1a over the exact counts of a pass: one number to compare across
/// passes, repetitions, and between `clean_sweep` and `clean_sweep_par`.
pub fn digest(counts: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for count in counts {
        for byte in count.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(workload: Workload, seed: u64, workers: usize) -> Inputs {
        Inputs {
            workload,
            seed,
            workers,
            corpus: Vec::new(),
        }
    }

    fn seeds(inputs: &Inputs) -> Vec<u64> {
        inputs
            .plan()
            .into_iter()
            .map(|(_, op)| match op {
                Op::Hunt(spec) | Op::Sweep(spec) => spec.seed,
                Op::Shrink(index) => index as u64,
            })
            .collect()
    }

    #[test]
    fn plans_are_a_function_of_the_seed() {
        for workload in ALL {
            if workload == Workload::ShrinkReplay {
                continue;
            }
            assert_eq!(
                seeds(&inputs(workload, 5, 1)),
                seeds(&inputs(workload, 5, 1)),
                "{workload:?}"
            );
            assert_ne!(
                seeds(&inputs(workload, 5, 1)),
                seeds(&inputs(workload, 6, 1)),
                "{workload:?}"
            );
        }
        // Workloads do not share seeds, except the two that must.
        assert_ne!(
            seeds(&inputs(Workload::StepLoop, 5, 1)),
            seeds(&inputs(Workload::WideScale, 5, 1))
        );
    }

    #[test]
    fn bug_hunt_cells_are_the_twenty_bugs() {
        let plan = inputs(Workload::BugHunt, 3, 1).plan();
        assert_eq!(plan.len(), 20 * HUNT_SEEDS as usize);
        for bug in 0..20 {
            assert_eq!(
                plan.iter().filter(|(cell, _)| *cell == bug).count(),
                HUNT_SEEDS as usize
            );
        }
    }

    #[test]
    fn clean_sweep_and_its_parallel_twin_share_inputs() {
        let serial = inputs(Workload::CleanSweep, 11, 1).plan();
        let parallel = inputs(Workload::CleanSweepPar, 11, 2).plan();
        assert_eq!(
            serial.len(),
            5 * 9 - 4,
            "megakv-fixed skips its four excluded entries"
        );
        assert_eq!(serial.len(), parallel.len());
        for ((cell_a, a), (cell_b, b)) in serial.iter().zip(&parallel) {
            assert_eq!(cell_a, cell_b);
            match (a, b) {
                (Op::Sweep(a), Op::Sweep(b)) => {
                    assert_eq!(
                        (a.seed, a.iterations, a.strategies),
                        (b.seed, b.iterations, b.strategies)
                    );
                    assert_eq!((a.workers, b.workers), (1, 2));
                }
                _ => panic!("sweeps only"),
            }
        }
    }

    #[test]
    fn digest_depends_on_every_count_and_their_order() {
        assert_eq!(digest([1, 2, 3]), digest([1, 2, 3]));
        assert_ne!(digest([1, 2, 3]), digest([1, 2, 4]));
        assert_ne!(digest([1, 2, 3]), digest([2, 1, 3]));
    }
}
