//! Property tests for the copy-on-write snapshot restore path.
//!
//! `Runtime::restore_from` dispatches to an incremental O(dirty) restore
//! whenever the runtime still shares state with the snapshot it is being
//! rewound to. That fast path must be an invisible optimization: restoring
//! through it has to leave the runtime byte-identical — enabled set, trace,
//! fault targets, monitor state, every machine's state — to the historical
//! full rebuild, which the runtime keeps as `restore_from_full`.
//!
//! The property test drives two runtimes in lockstep through random
//! interleavings of every operation that can dirty snapshot state — send,
//! step, crash, restart, drop, duplicate, create, monitor notification,
//! snapshot, restore — with one runtime rewinding through `restore_from`
//! (COW) and the other through `restore_from_full` (the oracle), and checks
//! full observable equality after *every* operation.

use psharp::engine::{TestConfig, TestEngine, TestReport};
use psharp::prelude::*;
use psharp::scheduler::RandomScheduler;

/// A replicable payload so mailboxes survive `Runtime::snapshot`.
#[derive(Debug, Clone)]
struct Work(u32);

/// A clonable machine that relays a bounded number of events to its peers
/// (machines created before it) and reports each relay to the progress
/// monitor, so stepping dirties both machine and monitor state.
#[derive(Clone, PartialEq, Eq)]
struct Node {
    peers: Vec<MachineId>,
    relays_left: u32,
}

impl Machine for Node {
    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        if let Some(work) = event.downcast_ref::<Work>() {
            if self.relays_left > 0 && !self.peers.is_empty() {
                self.relays_left -= 1;
                let target = self.peers[work.0 as usize % self.peers.len()];
                ctx.send(target, Event::replicable(Work(work.0.wrapping_add(1))));
                ctx.notify_monitor::<RelayCount>(Event::new(Relayed));
            }
        }
    }

    psharp::impl_machine_snapshot!();
}

/// Notification published on every relay.
#[derive(Debug, Clone)]
struct Relayed;

/// A clonable monitor whose state advances with every relay, so a restore
/// that fails to rewind (or needlessly re-clones) monitor state is caught by
/// the lockstep comparison.
#[derive(Clone, Default)]
struct RelayCount {
    seen: usize,
}

impl Monitor for RelayCount {
    fn observe(&mut self, _ctx: &mut MonitorContext<'_>, event: &Event) {
        if event.is::<Relayed>() {
            self.seen += 1;
        }
    }

    fn clone_state(&self) -> Option<Box<dyn Monitor>> {
        Some(Box::new(self.clone()))
    }
}

/// Deterministic LCG driving the op mix (no external rand dependency).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.0 >> 16
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

fn generous_faults() -> FaultPlan {
    FaultPlan::new()
        .with_crashes(1000)
        .with_restarts(1000)
        .with_drops(1000)
        .with_duplicates(1000)
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        max_steps: usize::MAX,
        faults: generous_faults(),
        ..RuntimeConfig::default()
    }
}

fn new_runtime(seed: u64) -> Runtime {
    let mut rt = Runtime::new(Box::new(RandomScheduler::new(seed)), config(), seed);
    rt.add_monitor(RelayCount::default());
    rt
}

fn spawn_node(rt: &mut Runtime, relays_left: u32) -> MachineId {
    let peers = (0..rt.machine_count() as u64)
        .map(MachineId::from_raw)
        .collect();
    let id = rt.create_machine(Node { peers, relays_left });
    rt.mark_crashable(id);
    rt.mark_restartable(id);
    rt.mark_lossy(id);
    id
}

/// Asserts every observable of the COW runtime matches the full-restore
/// oracle: counters, enabled set (order included), fault bookkeeping, the
/// trace (schedule, decisions, resolved step names), per-machine liveness
/// flags and state, and monitor state.
fn assert_equivalent(cow: &Runtime, full: &Runtime, op: &str) {
    assert_eq!(cow.steps(), full.steps(), "steps diverged after {op}");
    assert_eq!(
        cow.machine_count(),
        full.machine_count(),
        "machine count diverged after {op}"
    );
    assert_eq!(
        cow.enabled_machines(),
        full.enabled_machines(),
        "enabled set diverged after {op}"
    );
    assert_eq!(
        cow.fault_target_count(),
        full.fault_target_count(),
        "fault targets diverged after {op}"
    );
    assert_eq!(cow.trace(), full.trace(), "trace diverged after {op}");
    for raw in 0..cow.machine_count() as u64 {
        let id = MachineId::from_raw(raw);
        assert_eq!(
            cow.is_halted(id),
            full.is_halted(id),
            "halted flag diverged for {id:?} after {op}"
        );
        assert_eq!(
            cow.is_crashed(id),
            full.is_crashed(id),
            "crashed flag diverged for {id:?} after {op}"
        );
        let cow_node = cow.machine_ref::<Node>(id);
        let full_node = full.machine_ref::<Node>(id);
        assert!(
            cow_node == full_node,
            "machine state diverged for {id:?} after {op}"
        );
    }
    let cow_seen = cow.monitor_ref::<RelayCount>().map(|m| m.seen);
    let full_seen = full.monitor_ref::<RelayCount>().map(|m| m.seen);
    assert_eq!(cow_seen, full_seen, "monitor state diverged after {op}");
}

#[test]
fn cow_restore_is_byte_identical_to_full_restore() {
    for seed in 0..8u64 {
        // Two runtimes driven by the identical op sequence: `cow` rewinds
        // through the dispatching `restore_from`, `full` through the
        // from-scratch oracle. Snapshots are taken at the same ops.
        let mut cow = new_runtime(seed);
        let mut full = new_runtime(seed);
        let mut rng = Lcg(0x9e3779b97f4a7c15 ^ seed.wrapping_mul(0xd1342543de82ef95));
        let mut saved: Option<(RuntimeSnapshot, RuntimeSnapshot)> = None;

        for _ in 0..4 {
            spawn_node(&mut cow, 8);
            spawn_node(&mut full, 8);
        }
        assert_equivalent(&cow, &full, "initial creation");

        for op_index in 0..2500 {
            let pick_id = |rng: &mut Lcg, rt: &Runtime| {
                MachineId::from_raw(rng.below(rt.machine_count() as u64))
            };
            let op = rng.below(16);
            let label = match op {
                0 => {
                    if cow.machine_count() < 48 {
                        let relays = rng.below(12) as u32;
                        spawn_node(&mut cow, relays);
                        spawn_node(&mut full, relays);
                    }
                    "create"
                }
                1..=3 => {
                    let target = pick_id(&mut rng, &cow);
                    let payload = rng.below(1 << 20) as u32;
                    cow.send(target, Event::replicable(Work(payload)));
                    full.send(target, Event::replicable(Work(payload)));
                    "send"
                }
                4..=8 => {
                    let target = if rng.below(4) == 0 || cow.enabled_machines().is_empty() {
                        pick_id(&mut rng, &cow)
                    } else {
                        let enabled = cow.enabled_machines();
                        enabled[rng.below(enabled.len() as u64) as usize]
                    };
                    cow.force_step(target);
                    full.force_step(target);
                    "force_step"
                }
                9..=12 => {
                    let target = pick_id(&mut rng, &cow);
                    let fault = match op {
                        9 => Fault::Crash(target),
                        10 => Fault::Restart(target),
                        11 => Fault::Drop(target),
                        _ => Fault::Duplicate(target),
                    };
                    cow.inject_fault(fault);
                    full.inject_fault(fault);
                    "fault"
                }
                13 => {
                    let pair = (cow.snapshot(), full.snapshot());
                    if let (Some(c), Some(f)) = pair {
                        saved = Some((c, f));
                    }
                    "snapshot"
                }
                _ => {
                    if let Some((snap_cow, snap_full)) = &saved {
                        cow.restore_from(snap_cow);
                        full.restore_from_full(snap_full);
                        assert_eq!(
                            cow.dirty_machine_count(),
                            0,
                            "restore must leave the dirty set empty"
                        );
                        "restore"
                    } else {
                        "restore (no snapshot yet)"
                    }
                }
            };
            assert_equivalent(&cow, &full, label);
            assert!(
                cow.bug().is_none() && full.bug().is_none(),
                "op {op_index} ({label}) unexpectedly reported a bug"
            );
        }
    }
}

/// Restoring from a *parent* snapshot after taking child snapshots (the
/// prefix tree's pattern: snapshot at depth d, fork children, rewind to
/// the parent) must also stay on the incremental path and match the oracle.
#[test]
fn nested_snapshots_rewind_to_the_parent_identically() {
    let mut cow = new_runtime(3);
    let mut full = new_runtime(3);
    for _ in 0..6 {
        spawn_node(&mut cow, 6);
        spawn_node(&mut full, 6);
    }
    for id in 0..6u64 {
        cow.send(MachineId::from_raw(id), Event::replicable(Work(id as u32)));
        full.send(MachineId::from_raw(id), Event::replicable(Work(id as u32)));
    }
    let parent_cow = cow.snapshot().expect("snapshotable");
    let parent_full = full.snapshot().expect("snapshotable");

    for round in 0..4u32 {
        // Diverge: step a few machines, crash one, spawn one.
        for _ in 0..3 {
            let enabled = cow.enabled_machines().to_vec();
            if let Some(&target) = enabled.first() {
                cow.force_step(target);
                full.force_step(target);
            }
        }
        cow.inject_fault(Fault::Crash(MachineId::from_raw(u64::from(round % 6))));
        full.inject_fault(Fault::Crash(MachineId::from_raw(u64::from(round % 6))));
        spawn_node(&mut cow, 2);
        spawn_node(&mut full, 2);
        // Child snapshots must not sever sharing with the parent.
        let _child_cow = cow.snapshot().expect("snapshotable");
        let _child_full = full.snapshot().expect("snapshotable");
        cow.restore_from(&parent_cow);
        full.restore_from_full(&parent_full);
        assert_equivalent(&cow, &full, "parent rewind");
    }
}

/// Engine-level identity: with prefix sharing (the COW restore consumer),
/// sleep-set scheduling and fault injection composed, reports must be
/// byte-identical to straight-line execution at 1, 2, 4 and 8 workers.
#[test]
fn prefix_shared_fault_injection_reports_are_identical_at_any_worker_count() {
    fn setup(rt: &mut Runtime) {
        rt.add_monitor(RelayCount::default());
        for relays in [4u32, 6, 8] {
            spawn_node(rt, relays);
        }
        for id in 0..3u64 {
            rt.send(MachineId::from_raw(id), Event::replicable(Work(id as u32)));
        }
    }

    let faults = FaultPlan::new()
        .with_crashes(2)
        .with_restarts(2)
        .with_drops(1)
        .with_duplicates(1);
    let base = TestConfig::new()
        .with_iterations(200)
        .with_seed(2016)
        .with_scheduler(SchedulerKind::sleep_set())
        .with_faults(faults);

    let fingerprint = |report: &TestReport| {
        (
            report.iterations_run,
            report.total_steps,
            report
                .bug
                .as_ref()
                .map(|bug| (bug.iteration, bug.trace.decisions.clone())),
        )
    };

    let straight = TestEngine::new(base.clone()).run(setup);
    let shared = TestEngine::new(base.clone().with_prefix_sharing(true)).run(setup);
    assert_eq!(
        fingerprint(&straight),
        fingerprint(&shared),
        "prefix sharing changed the one-worker outcome"
    );

    for workers in [2usize, 4, 8] {
        let parallel =
            TestEngine::new(base.clone().with_prefix_sharing(true).with_workers(workers))
                .run(setup);
        let a = straight
            .bug
            .as_ref()
            .map(|b| (b.iteration, &b.trace.decisions));
        let b = parallel
            .bug
            .as_ref()
            .map(|b| (b.iteration, &b.trace.decisions));
        assert_eq!(a, b, "outcome diverged at {workers} workers");
    }
}
