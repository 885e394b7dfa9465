//! The P# test harness of the sharded key-value case study.
//!
//! The harness wires the controller, every shard replica, the router and
//! the modeled clients, registers the read-your-writes safety monitor and
//! the request-progress liveness monitor, and exposes one configuration
//! constructor per seeded bug plus a [`MegaKvConfig::scale`] constructor
//! used by the scaling benchmark and the allocation-budget tests.

use psharp::prelude::*;

use crate::client::Client;
use crate::controller::{Controller, ControllerBugs, ControllerInit, ShardInfo};
use crate::monitors::{ProgressMonitor, ReadYourWritesMonitor};
use crate::replica::{Replica, ReplicaBugs};
use crate::router::Router;
use crate::SHARD_WIDTH;

/// Seeded-bug switches of the case study (all off = the fixed system).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MegaKvBugs {
    /// Router retry fast path keyed by a truncated 8-bit shard hint
    /// (safety; structurally unreachable below 257 shards).
    pub retry_cache_truncation: bool,
    /// Controller points a split-off range at the old primary (liveness).
    pub split_routes_to_old_primary: bool,
    /// Old primary keeps acknowledging writes during a handover (safety).
    pub rebalance_keeps_accepting: bool,
    /// Primary acknowledges before replicating, batching replication
    /// (safety, requires an injected crash).
    pub ack_before_replicate: bool,
}

/// Configuration of the sharded key-value harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MegaKvConfig {
    /// Number of initial shards (each `SHARD_WIDTH` keys wide).
    pub shards: usize,
    /// Give every shard a backup replica (doubles the replica count).
    pub backups: bool,
    /// Number of modeled clients.
    pub clients: usize,
    /// Put/get pairs issued per client.
    pub pairs_per_client: usize,
    /// Split shard 0's upper half onto a new primary during the run.
    pub do_split: bool,
    /// Rebalance shard 0's (remaining) range onto a new primary.
    pub do_rebalance: bool,
    /// Shard whose primary is marked crashable (requires `backups`).
    pub crashable_shard: Option<usize>,
    /// Out-of-range requests fail an assertion instead of NACKing. Only
    /// set by the shard-aliasing configuration, where no split, rebalance
    /// or crash exists and a misroute can only come from the seeded bug.
    pub assert_on_misroute: bool,
    /// Base keys of the clients' hot set; client `i` uses each base offset
    /// by `8 * i`, so hot keys are disjoint across clients (single-writer
    /// keys keep the read-your-writes monitor exact).
    pub hot_key_bases: Vec<u64>,
    /// Seeded bugs.
    pub bugs: MegaKvBugs,
}

impl Default for MegaKvConfig {
    fn default() -> Self {
        MegaKvConfig {
            shards: 8,
            backups: true,
            clients: 2,
            pairs_per_client: 2,
            do_split: true,
            do_rebalance: true,
            crashable_shard: Some(1),
            assert_on_misroute: false,
            // Shard 0's lower half, shard 0's upper (post-split) half, and
            // shard 1 — the keyspace slices every reconfiguration and the
            // crashable primary touch.
            hot_key_bases: vec![1, SHARD_WIDTH / 2 + 1, SHARD_WIDTH + 1],
            bugs: MegaKvBugs::default(),
        }
    }
}

impl MegaKvConfig {
    /// The scale-gated router bug: a retried request routed through the
    /// truncated 8-bit cache hint can land on the wrong primary — but only
    /// with more than 256 shards (shards 2 and 258 alias here).
    pub fn with_shard_aliasing_bug() -> Self {
        MegaKvConfig {
            shards: 260,
            backups: false,
            clients: 2,
            pairs_per_client: 2,
            do_split: false,
            do_rebalance: false,
            crashable_shard: None,
            assert_on_misroute: true,
            hot_key_bases: vec![2 * SHARD_WIDTH + 1, 258 * SHARD_WIDTH + 1],
            bugs: MegaKvBugs {
                retry_cache_truncation: true,
                ..MegaKvBugs::default()
            },
        }
    }

    /// The split bug: the new range is routed to the old, shrunk primary;
    /// every request for a split-off key NACKs forever (liveness).
    pub fn with_split_bug() -> Self {
        MegaKvConfig {
            shards: 2,
            backups: false,
            clients: 1,
            pairs_per_client: 2,
            do_split: true,
            do_rebalance: false,
            crashable_shard: None,
            assert_on_misroute: false,
            // Only upper-half keys: every operation targets the range the
            // buggy controller forgets to repoint.
            hot_key_bases: vec![SHARD_WIDTH / 2 + 1],
            bugs: MegaKvBugs {
                split_routes_to_old_primary: true,
                ..MegaKvBugs::default()
            },
        }
    }

    /// The rebalance bug: the old primary keeps acknowledging writes after
    /// snapshotting its range; those writes vanish with the handover
    /// (safety).
    pub fn with_rebalance_bug() -> Self {
        MegaKvConfig {
            shards: 2,
            backups: false,
            clients: 1,
            pairs_per_client: 3,
            do_split: false,
            do_rebalance: true,
            crashable_shard: None,
            assert_on_misroute: false,
            hot_key_bases: vec![1],
            bugs: MegaKvBugs {
                rebalance_keeps_accepting: true,
                ..MegaKvBugs::default()
            },
        }
    }

    /// The fault-induced promotion bug: the primary fast-acks writes and
    /// batches replication; an injected crash ([`MegaKvConfig::fault_plan`])
    /// loses the batch, and the promoted backup misses acknowledged writes
    /// (safety). Unreachable without the crash.
    pub fn with_promote_lost_write_bug() -> Self {
        MegaKvConfig {
            shards: 2,
            backups: true,
            clients: 1,
            pairs_per_client: 2,
            do_split: false,
            do_rebalance: false,
            crashable_shard: Some(0),
            assert_on_misroute: false,
            hot_key_bases: vec![1],
            bugs: MegaKvBugs {
                ack_before_replicate: true,
                ..MegaKvBugs::default()
            },
        }
    }

    /// A mega-scale configuration with exactly `total_machines` machines
    /// (controller + router + 2 clients + single-replica shards): a few hot
    /// shards serve the whole workload while thousands of cold replicas
    /// stay idle after their start step — the shape the O(active)
    /// scheduling core is benchmarked on.
    ///
    /// # Panics
    ///
    /// Panics when `total_machines < 5` (controller, router, two clients
    /// and at least one shard are always created).
    pub fn scale(total_machines: usize, pairs_per_client: usize) -> Self {
        let clients = 2;
        assert!(
            total_machines >= clients + 3,
            "scale config needs at least {} machines",
            clients + 3
        );
        MegaKvConfig {
            shards: total_machines - clients - 2,
            backups: false,
            clients,
            pairs_per_client,
            do_split: false,
            do_rebalance: false,
            crashable_shard: None,
            assert_on_misroute: false,
            hot_key_bases: vec![1, SHARD_WIDTH + 1],
            bugs: MegaKvBugs::default(),
        }
    }

    /// The fault budget the fault-induced configurations are designed
    /// around: one crash, which the fixed replicate-then-ack primary
    /// tolerates through promotion and client retry.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::new().with_crashes(1)
    }

    /// The number of machines [`build_harness`] creates up front.
    pub fn initial_machines(&self) -> usize {
        let replicas_per_shard = if self.backups { 2 } else { 1 };
        1 + self.shards * replicas_per_shard + 1 + self.clients
    }

    /// Whether the controller participates in this run (reconfigurations or
    /// failure handling); inert controllers are not sent an init event, so
    /// pure-scale runs stay allocation-free after recycling.
    fn controller_is_active(&self) -> bool {
        self.do_split || self.do_rebalance || self.crashable_shard.is_some()
    }
}

/// Ids of the machines created by [`build_harness`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MegaKvHarness {
    /// The cluster controller.
    pub controller: MachineId,
    /// The routing front-end.
    pub router: MachineId,
    /// Initial shard primaries, in shard order.
    pub primaries: Vec<MachineId>,
    /// Initial shard backups (`None` when the config runs without them).
    pub backups: Vec<Option<MachineId>>,
    /// The modeled clients.
    pub clients: Vec<MachineId>,
}

/// Builds the full harness into `rt` and returns the machine ids.
pub fn build_harness(rt: &mut Runtime, config: &MegaKvConfig) -> MegaKvHarness {
    rt.add_monitor(ReadYourWritesMonitor::new());
    rt.add_monitor(ProgressMonitor::new());

    let replica_bugs = ReplicaBugs {
        keep_accepting_during_handover: config.bugs.rebalance_keeps_accepting,
        ack_before_replicate: config.bugs.ack_before_replicate,
    };
    let controller_bugs = ControllerBugs {
        split_routes_to_old_primary: config.bugs.split_routes_to_old_primary,
    };
    let controller = rt.create_machine(Controller::new(
        replica_bugs,
        config.assert_on_misroute,
        controller_bugs,
    ));

    let mut primaries = Vec::with_capacity(config.shards);
    let mut backups = Vec::with_capacity(config.shards);
    let mut shard_infos = Vec::with_capacity(config.shards);
    let mut table = Vec::with_capacity(config.shards);
    for shard in 0..config.shards {
        let start = shard as u64 * SHARD_WIDTH;
        let end = start + SHARD_WIDTH;
        let backup = config
            .backups
            .then(|| rt.create_machine(Replica::backup(controller, shard, start, end)));
        let primary = rt.create_machine(Replica::primary(
            controller,
            shard,
            start,
            end,
            backup.into_iter().collect(),
            config.assert_on_misroute,
            replica_bugs,
        ));
        if config.crashable_shard == Some(shard) {
            rt.mark_crashable(primary);
        }
        primaries.push(primary);
        backups.push(backup);
        shard_infos.push(ShardInfo {
            start,
            end,
            primary,
            backup,
        });
        table.push((start, end, primary));
    }

    let router = rt.create_machine(Router::new(table, config.bugs.retry_cache_truncation));
    // The router tolerates message loss and duplication by design: clients
    // re-drive lost requests via retry ticks and replicas apply writes
    // idempotently (last-writer-wins by sequence number). Marking it lossy
    // lets `--faults drop=N,dup=N` budgets exercise that tolerance — and
    // gives fault-injection shrink tests surplus, deletable faults.
    rt.mark_lossy(router);

    let mut clients = Vec::with_capacity(config.clients);
    for index in 0..config.clients {
        let hot_keys: Vec<u64> = config
            .hot_key_bases
            .iter()
            .map(|base| base + 8 * index as u64)
            .collect();
        clients.push(rt.create_machine(Client::new(router, hot_keys, config.pairs_per_client)));
    }

    if config.controller_is_active() {
        // Replicable: the wiring event must not block post-setup snapshots
        // (prefix-sharing forks). FIFO delivery guarantees the init is
        // handled before any failure-detector signal.
        rt.send(
            controller,
            Event::replicable(ControllerInit {
                router,
                shards: shard_infos,
                do_split: config.do_split,
                do_rebalance: config.do_rebalance,
            }),
        );
    }

    MegaKvHarness {
        controller,
        router,
        primaries,
        backups,
        clients,
    }
}

/// Model statistics of this harness, for the Table 1 reproduction.
pub fn model_stats() -> ModelStats {
    let config = MegaKvConfig::default();
    // Controller + 8 shards x (primary + backup) + router + 2 clients,
    // plus the split and rebalance targets created mid-run.
    let machines = config.initial_machines() + 2;
    // Handlers: Replica {KvRequest, Replicate, Promote, Handover,
    // HandoverFinalize, InstallRange}, Router {KvRequest, RouteUpdate},
    // Controller {ControllerInit, HandoverDone, PrimaryDown},
    // Client {start, PutAck, GetReply, Nack, RetryTick};
    // monitors: read-your-writes {2}, progress {2}.
    let action_handlers = 6 + 2 + 3 + 5 + 2 + 2;
    // Logical transitions: client put->get->next pair, controller
    // idle->splitting->rebalancing->idle, backup->primary promotion,
    // replica serving->handed-over, monitor hot<->cold.
    let state_transitions = 3 + 3 + 1 + 1 + 2;
    ModelStats::new("Mega-scale sharded KV store")
        .with_bugs(4)
        .with_model(machines, state_transitions, action_handlers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psharp::runtime::{Runtime, RuntimeConfig};
    use psharp::scheduler::RandomScheduler;

    fn new_runtime(seed: u64, max_steps: usize) -> Runtime {
        Runtime::new(
            Box::new(RandomScheduler::new(seed)),
            RuntimeConfig {
                max_steps,
                ..RuntimeConfig::default()
            },
            seed,
        )
    }

    #[test]
    fn harness_creates_expected_machines() {
        let mut rt = new_runtime(1, 2_000);
        let config = MegaKvConfig::default();
        let harness = build_harness(&mut rt, &config);
        assert_eq!(harness.primaries.len(), 8);
        assert_eq!(harness.clients.len(), 2);
        assert!(harness.backups.iter().all(Option::is_some));
        assert_eq!(rt.machine_count(), config.initial_machines());
        assert_eq!(config.initial_machines(), 20);
    }

    #[test]
    fn scale_config_hits_the_requested_machine_count() {
        let mut rt = new_runtime(1, 10);
        let config = MegaKvConfig::scale(4_096, 0);
        build_harness(&mut rt, &config);
        assert_eq!(rt.machine_count(), 4_096);
    }

    #[test]
    fn fixed_system_completes_without_bug() {
        // The fixed system — including its split and rebalance storms —
        // must never flag a violation on a reliable network.
        for seed in 0..20 {
            let mut rt = new_runtime(seed, 4_000);
            build_harness(&mut rt, &MegaKvConfig::default());
            let outcome = rt.run();
            assert!(
                !matches!(outcome, ExecutionOutcome::BugFound(_)),
                "fixed megakv flagged a bug with seed {seed}: {outcome:?}"
            );
        }
    }

    #[test]
    fn fixed_system_stays_clean_under_a_crash_fault() {
        // One injected crash of shard 1's primary is tolerated: the
        // replicate-then-ack discipline means the promoted backup holds
        // every acknowledged write, and client retries re-drive requests
        // that died with the primary.
        let config = MegaKvConfig::default();
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(300)
                .with_max_steps(4_000)
                .with_seed(3)
                .with_faults(config.fault_plan()),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        assert!(
            !report.found_bug(),
            "fixed megakv flagged a bug under a crash fault: {:?}",
            report.bug.map(|b| b.bug)
        );
    }

    #[test]
    fn shard_aliasing_bug_is_found_at_260_shards() {
        let config = MegaKvConfig::with_shard_aliasing_bug();
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(300)
                .with_max_steps(6_000)
                .with_seed(9),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        let bug = report.bug.expect("aliasing bug should be found");
        assert_eq!(bug.bug.kind, BugKind::SafetyViolation);
        assert!(
            bug.bug.message.contains("routed to shard"),
            "unexpected violation: {}",
            bug.bug.message
        );
    }

    #[test]
    fn shard_aliasing_bug_is_structurally_unreachable_below_257_shards() {
        // Same buggy fast path, same workload shape, but 256 shards: the
        // 8-bit hint is exact, so a cache hit always forwards to the
        // correct primary and no schedule can misroute.
        let config = MegaKvConfig {
            shards: 256,
            hot_key_bases: vec![2 * SHARD_WIDTH + 1, 250 * SHARD_WIDTH + 1],
            ..MegaKvConfig::with_shard_aliasing_bug()
        };
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(150)
                .with_max_steps(6_000)
                .with_seed(9),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        assert!(
            !report.found_bug(),
            "aliasing fired below the truncation threshold: {:?}",
            report.bug.map(|b| b.bug)
        );
    }

    #[test]
    fn split_bug_is_found_as_liveness_violation() {
        let config = MegaKvConfig::with_split_bug();
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(300)
                .with_max_steps(1_500)
                .with_seed(17),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        let bug = report.bug.expect("split bug should be found");
        assert_eq!(bug.bug.kind, BugKind::LivenessViolation);
        assert_eq!(bug.bug.source.as_deref(), Some("ProgressMonitor"));
    }

    #[test]
    fn rebalance_bug_is_found_as_lost_write() {
        let config = MegaKvConfig::with_rebalance_bug();
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(500)
                .with_max_steps(2_000)
                .with_seed(23),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        let bug = report.bug.expect("rebalance bug should be found");
        assert_eq!(bug.bug.kind, BugKind::SafetyViolation);
        assert_eq!(bug.bug.source.as_deref(), Some("ReadYourWritesMonitor"));
    }

    #[test]
    fn promote_bug_is_found_via_injected_crash() {
        let config = MegaKvConfig::with_promote_lost_write_bug();
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(600)
                .with_max_steps(2_500)
                .with_seed(31)
                .with_faults(config.fault_plan()),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        let bug = report.bug.expect("promotion bug should be found");
        assert_eq!(bug.bug.kind, BugKind::SafetyViolation);
        assert_eq!(bug.bug.source.as_deref(), Some("ReadYourWritesMonitor"));
        assert!(
            bug.trace.fault_decision_count() >= 1,
            "the bug needs an injected crash in its decision stream"
        );
    }

    #[test]
    fn promote_bug_is_unreachable_without_the_crash() {
        // Without the crash the unflushed batch never matters: the primary
        // serves every read from its own store.
        let config = MegaKvConfig::with_promote_lost_write_bug();
        let engine = TestEngine::new(
            TestConfig::new()
                .with_iterations(300)
                .with_max_steps(2_500)
                .with_seed(31),
        );
        let report = engine.run(move |rt| {
            build_harness(rt, &config);
        });
        assert!(!report.found_bug());
    }

    #[test]
    fn model_stats_report_the_harness_size() {
        let stats = model_stats();
        assert_eq!(stats.machines, 22);
        assert_eq!(stats.bugs_found, 4);
        assert!(stats.action_handlers > 0);
    }
}
