//! The modeled Fabric replica-management platform: cluster manager, replicas,
//! and the consistency / promotion specifications.
//!
//! Replica failures are no longer injected by a bespoke harness machine:
//! every replica is marked *crashable*, and the core scheduler decides —
//! within the test's [`FaultPlan`] budget — whether, when and which replica
//! crashes (`Decision::CrashMachine`, replayable and shrinkable like any
//! other decision). A crashed replica's [`Machine::on_crash`] hook models
//! the platform's failure detector reporting [`ReplicaFailed`] to the
//! cluster manager.

use std::collections::BTreeMap;

use psharp::prelude::*;

use crate::service::{CounterService, ReplicatedService};

/// Seeded defects of the Fabric model and the services running on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricBugs {
    /// §5's bug: on primary failover, an idle secondary that is still waiting
    /// for its state copy may be elected primary and subsequently promoted to
    /// an active secondary without ever catching up.
    pub promote_pending_copy_on_failover: bool,
    /// The CScale-style defect: the second pipeline stage dereferences its
    /// configuration before initialization (a `NullReferenceException`
    /// analogue, reported as a panic bug).
    pub uninitialized_pipeline_config: bool,
}

/// The role a replica currently plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Serves client requests and replicates to active secondaries.
    Primary,
    /// Caught up; receives replicated operations.
    ActiveSecondary,
    /// Freshly launched; waiting for a state copy from the primary.
    IdleSecondary,
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Client request carrying one service operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientRequest {
    /// The operation to apply.
    pub operation: i64,
}

/// Replication of one applied operation from the primary to a secondary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replicate {
    /// The primary's configuration epoch (bumped at every failover).
    pub epoch: u64,
    /// Sequence number of the operation.
    pub sequence: u64,
    /// The operation to apply.
    pub operation: i64,
}

/// Request for a state copy, sent by an idle secondary to the primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyStateRequest {
    /// The idle secondary asking for the copy.
    pub requester: MachineId,
}

/// State copy shipped from the primary to a catching-up replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyState {
    /// The primary's configuration epoch.
    pub epoch: u64,
    /// Snapshot of the service state.
    pub snapshot: i64,
    /// Sequence number the snapshot reflects.
    pub sequence: u64,
}

/// Role change instruction from the cluster manager to a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BecomeRole {
    /// The role to assume.
    pub role: Role,
    /// The configuration epoch of the instruction (meaningful for promotions
    /// to primary; bumped at every failover).
    pub epoch: u64,
}

/// Notification from a replica to the manager that its state copy completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyCompleted {
    /// The replica that caught up.
    pub replica: MachineId,
}

/// Failure-detection signal to the cluster manager: a replica went down.
/// Emitted by the replica's [`Machine::on_crash`] hook when the core
/// scheduler injects a crash fault (`Decision::CrashMachine`), modeling the
/// platform's failure detector noticing the dead node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaFailed {
    /// The failed replica.
    pub replica: MachineId,
}

/// Monitor notification: a replica applied operation `sequence` and its
/// service state is now `state`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotifyApplied {
    /// The replica reporting.
    pub replica: MachineId,
    /// The configuration epoch the replica is in.
    pub epoch: u64,
    /// The sequence number applied.
    pub sequence: u64,
    /// The service state after applying.
    pub state: i64,
}

// ---------------------------------------------------------------------------
// Replica machine
// ---------------------------------------------------------------------------

/// A Fabric replica hosting the counter service.
#[derive(Clone)]
pub struct ReplicaMachine {
    manager: MachineId,
    role: Role,
    service: CounterService,
    epoch: u64,
    sequence: u64,
    copy_completed: bool,
    secondaries: Vec<MachineId>,
}

impl ReplicaMachine {
    /// Creates a replica in the given initial role.
    pub fn new(manager: MachineId, role: Role) -> Self {
        ReplicaMachine {
            manager,
            role,
            service: CounterService::new(),
            epoch: 0,
            sequence: 0,
            copy_completed: role != Role::IdleSecondary,
            secondaries: Vec::new(),
        }
    }

    /// The replica's current role (exposed for tests).
    pub fn role(&self) -> Role {
        self.role
    }

    /// The hosted service's state (exposed for tests).
    pub fn state(&self) -> i64 {
        self.service.snapshot()
    }

    /// The highest sequence number applied (exposed for tests).
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    fn notify_applied(&self, ctx: &mut Context<'_>) {
        let replica = ctx.id();
        ctx.notify_monitor::<ConsistencyMonitor>(Event::new(NotifyApplied {
            replica,
            epoch: self.epoch,
            sequence: self.sequence,
            state: self.service.snapshot(),
        }));
    }
}

/// Tells a replica which machines are its active secondaries (sent by the
/// cluster manager whenever the set changes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetSecondaries {
    /// The active secondaries to replicate to.
    pub secondaries: Vec<MachineId>,
}

impl Machine for ReplicaMachine {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.role == Role::IdleSecondary {
            let requester = ctx.id();
            ctx.send(self.manager, Event::new(CopyStateRequest { requester }));
        }
    }

    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        if let Some(set) = event.downcast_ref::<SetSecondaries>() {
            self.secondaries = set.secondaries.clone();
            if self.role == Role::Primary {
                // A (possibly new) primary brings its secondaries to its own
                // state and epoch before replicating further operations.
                for &secondary in &self.secondaries.clone() {
                    ctx.send(
                        secondary,
                        Event::new(CopyState {
                            epoch: self.epoch,
                            snapshot: self.service.snapshot(),
                            sequence: self.sequence,
                        }),
                    );
                }
            }
        } else if let Some(request) = event.downcast_ref::<ClientRequest>() {
            if self.role != Role::Primary {
                // Stale request addressed to a demoted or failed primary; the
                // manager re-routes requests, so simply ignore it.
                return;
            }
            self.sequence += 1;
            self.service.apply(request.operation);
            self.notify_applied(ctx);
            for &secondary in &self.secondaries.clone() {
                ctx.send(
                    secondary,
                    Event::new(Replicate {
                        epoch: self.epoch,
                        sequence: self.sequence,
                        operation: request.operation,
                    }),
                );
            }
        } else if let Some(replicate) = event.downcast_ref::<Replicate>() {
            // Only apply replication from the configuration epoch this
            // replica has been synced into; stale epochs are ignored.
            if replicate.epoch == self.epoch && replicate.sequence > self.sequence {
                self.sequence = replicate.sequence;
                self.service.apply(replicate.operation);
                self.notify_applied(ctx);
            }
        } else if let Some(copy_request) = event.downcast_ref::<CopyStateRequest>() {
            // Only the primary serves copies.
            if self.role == Role::Primary {
                ctx.send(
                    copy_request.requester,
                    Event::new(CopyState {
                        epoch: self.epoch,
                        snapshot: self.service.snapshot(),
                        sequence: self.sequence,
                    }),
                );
            }
        } else if let Some(copy) = event.downcast_ref::<CopyState>() {
            let catching_up = self.role == Role::IdleSecondary;
            // Accept the copy when catching up, when it comes from a newer
            // configuration epoch, or when it is simply ahead of this replica
            // (a secondary that joined the replication stream late and missed
            // operations between its snapshot and its promotion).
            let ahead = copy.epoch == self.epoch && copy.sequence > self.sequence;
            if catching_up || copy.epoch > self.epoch || ahead {
                self.service.restore(copy.snapshot);
                self.sequence = copy.sequence;
                self.epoch = copy.epoch;
                if catching_up {
                    self.copy_completed = true;
                    let replica = ctx.id();
                    ctx.send(self.manager, Event::new(CopyCompleted { replica }));
                }
            }
        } else if let Some(role_change) = event.downcast_ref::<BecomeRole>() {
            match role_change.role {
                Role::ActiveSecondary => {
                    // The model's assertion from §5: only a caught-up idle
                    // secondary may be promoted to an active secondary. In the
                    // buggy interleaving the replica has meanwhile been elected
                    // primary (it stopped waiting for its copy), so the
                    // promotion is invalid.
                    ctx.assert(
                        self.role == Role::IdleSecondary && self.copy_completed,
                        "only a caught-up idle secondary can be promoted to active secondary",
                    );
                    self.role = Role::ActiveSecondary;
                }
                Role::Primary => {
                    self.role = Role::Primary;
                    self.epoch = role_change.epoch;
                    // A new primary stops waiting for any pending state copy.
                    self.copy_completed = true;
                }
                Role::IdleSecondary => {
                    self.role = Role::IdleSecondary;
                    self.copy_completed = false;
                    let requester = ctx.id();
                    ctx.send(self.manager, Event::new(CopyStateRequest { requester }));
                }
            }
        }
    }

    fn on_crash(&mut self, ctx: &mut Context<'_>) {
        // The platform's failure detector notices the dead replica and
        // reports it to the cluster manager, which triggers failover or
        // replacement. This replaces the old bespoke `FailPrimary` event the
        // harness used to deliver by hand: crashes are now injected by the
        // core scheduler (`Decision::CrashMachine`) under the test's fault
        // budget and replay like every other decision.
        let replica = ctx.id();
        ctx.send(self.manager, Event::new(ReplicaFailed { replica }));
    }

    fn name(&self) -> &str {
        "ReplicaMachine"
    }

    psharp::impl_machine_snapshot!();
}

// ---------------------------------------------------------------------------
// Cluster manager
// ---------------------------------------------------------------------------

/// The modeled Fabric cluster manager: creates the replica set, routes client
/// requests to the current primary, relays copy requests, and performs
/// failover when the primary fails.
#[derive(Clone)]
pub struct ClusterManagerMachine {
    bugs: FabricBugs,
    secondary_count: usize,
    initial_idle_secondaries: usize,
    primary: Option<MachineId>,
    active_secondaries: Vec<MachineId>,
    idle_secondaries: Vec<MachineId>,
    failovers: usize,
}

impl ClusterManagerMachine {
    /// Creates a manager that will launch one primary, `secondary_count`
    /// active secondaries, and one idle secondary that still needs to catch
    /// up (the paper's scenario: a new secondary is about to receive a copy
    /// of the state).
    pub fn new(secondary_count: usize, bugs: FabricBugs) -> Self {
        ClusterManagerMachine {
            bugs,
            secondary_count,
            initial_idle_secondaries: 1,
            primary: None,
            active_secondaries: Vec::new(),
            idle_secondaries: Vec::new(),
            failovers: 0,
        }
    }

    /// The current primary (exposed for tests).
    pub fn primary(&self) -> Option<MachineId> {
        self.primary
    }

    /// Number of failovers performed (exposed for tests).
    pub fn failovers(&self) -> usize {
        self.failovers
    }

    fn broadcast_secondaries(&self, ctx: &mut Context<'_>) {
        if let Some(primary) = self.primary {
            ctx.send(
                primary,
                Event::new(SetSecondaries {
                    secondaries: self.active_secondaries.clone(),
                }),
            );
        }
    }

    fn launch_idle_secondary(&mut self, ctx: &mut Context<'_>) {
        let me = ctx.id();
        let replica = ctx.create(ReplicaMachine::new(me, Role::IdleSecondary));
        // Replacement replicas are as fallible as the nodes they replace.
        ctx.mark_crashable(replica);
        self.idle_secondaries.push(replica);
    }

    fn handle_primary_failure(&mut self, ctx: &mut Context<'_>, failed: MachineId) {
        if Some(failed) != self.primary {
            // A non-primary replica failed; replace it with a fresh idle one.
            self.active_secondaries.retain(|&r| r != failed);
            self.idle_secondaries.retain(|&r| r != failed);
            self.launch_idle_secondary(ctx);
            self.broadcast_secondaries(ctx);
            return;
        }
        self.failovers += 1;
        self.primary = None;

        // Elect a new primary. The fixed model only considers caught-up
        // (active) secondaries; the buggy model also considers idle
        // secondaries that are still waiting for their state copy.
        let mut candidates = self.active_secondaries.clone();
        if self.bugs.promote_pending_copy_on_failover {
            candidates.extend(self.idle_secondaries.iter().copied());
        }
        if candidates.is_empty() {
            return;
        }
        let new_primary = *ctx.choose(&candidates);
        self.active_secondaries.retain(|&r| r != new_primary);
        let was_idle = self.idle_secondaries.contains(&new_primary);
        self.idle_secondaries.retain(|&r| r != new_primary);
        self.primary = Some(new_primary);
        let epoch = self.failovers as u64;
        ctx.send(
            new_primary,
            Event::new(BecomeRole {
                role: Role::Primary,
                epoch,
            }),
        );
        if self.bugs.promote_pending_copy_on_failover && was_idle {
            // BUG (§5): because the newly elected primary stopped waiting for
            // its copy, the manager also counts it as caught up and promotes
            // it to active secondary — the replica's assertion fires.
            ctx.send(
                new_primary,
                Event::new(BecomeRole {
                    role: Role::ActiveSecondary,
                    epoch,
                }),
            );
        }
        // Launch a replacement idle secondary, which will catch up from the
        // new primary.
        self.launch_idle_secondary(ctx);
        self.broadcast_secondaries(ctx);
    }
}

impl Machine for ClusterManagerMachine {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let me = ctx.id();
        // Every replica is a crash candidate: which one fails (if any,
        // within the test's fault budget) is the scheduler's decision.
        let primary = ctx.create(ReplicaMachine::new(me, Role::Primary));
        ctx.mark_crashable(primary);
        self.primary = Some(primary);
        for _ in 0..self.secondary_count {
            let secondary = ctx.create(ReplicaMachine::new(me, Role::ActiveSecondary));
            ctx.mark_crashable(secondary);
            self.active_secondaries.push(secondary);
        }
        for _ in 0..self.initial_idle_secondaries {
            self.launch_idle_secondary(ctx);
        }
        self.broadcast_secondaries(ctx);
    }

    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        if let Some(request) = event.downcast_ref::<ClientRequest>() {
            if let Some(primary) = self.primary {
                ctx.send(primary, Event::new(*request));
            }
        } else if let Some(copy_request) = event.downcast_ref::<CopyStateRequest>() {
            if let Some(primary) = self.primary {
                ctx.send(primary, Event::new(*copy_request));
            }
        } else if let Some(completed) = event.downcast_ref::<CopyCompleted>() {
            if self.idle_secondaries.contains(&completed.replica) {
                self.idle_secondaries.retain(|&r| r != completed.replica);
                self.active_secondaries.push(completed.replica);
                ctx.send(
                    completed.replica,
                    Event::new(BecomeRole {
                        role: Role::ActiveSecondary,
                        epoch: self.failovers as u64,
                    }),
                );
                self.broadcast_secondaries(ctx);
            }
        } else if let Some(failed) = event.downcast_ref::<ReplicaFailed>() {
            self.handle_primary_failure(ctx, failed.replica);
        }
    }

    fn name(&self) -> &str {
        "ClusterManagerMachine"
    }

    psharp::impl_machine_snapshot!();
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Modeled client issuing a fixed number of counter increments through the
/// cluster manager.
#[derive(Clone)]
pub struct FabricClient {
    manager: MachineId,
    remaining: usize,
}

impl FabricClient {
    /// Creates a client that issues `requests` increments.
    pub fn new(manager: MachineId, requests: usize) -> Self {
        FabricClient {
            manager,
            remaining: requests,
        }
    }
}

/// Internal self-message pacing the client.
#[derive(Debug)]
struct NextRequest;

impl Machine for FabricClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send_to_self(Event::new(NextRequest));
    }

    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        if event.is::<NextRequest>() {
            if self.remaining == 0 {
                ctx.halt();
                return;
            }
            self.remaining -= 1;
            let operation = ctx.random_index(5) as i64 + 1;
            ctx.send(self.manager, Event::new(ClientRequest { operation }));
            ctx.send_to_self(Event::new(NextRequest));
        }
    }

    fn name(&self) -> &str {
        "FabricClient"
    }

    psharp::impl_machine_snapshot!();
}

// ---------------------------------------------------------------------------
// Consistency monitor
// ---------------------------------------------------------------------------

/// Safety monitor: for every sequence number, all replicas that apply it must
/// reach the same service state (no divergent replicas).
#[derive(Debug, Clone, Default)]
pub struct ConsistencyMonitor {
    states_by_sequence: BTreeMap<(u64, u64), i64>,
    applications_observed: usize,
}

impl ConsistencyMonitor {
    /// Creates the monitor.
    pub fn new() -> Self {
        ConsistencyMonitor::default()
    }

    /// Number of apply notifications observed (exposed for tests).
    pub fn applications_observed(&self) -> usize {
        self.applications_observed
    }
}

impl Monitor for ConsistencyMonitor {
    fn observe(&mut self, ctx: &mut MonitorContext<'_>, event: &Event) {
        if let Some(applied) = event.downcast_ref::<NotifyApplied>() {
            self.applications_observed += 1;
            let key = (applied.epoch, applied.sequence);
            match self.states_by_sequence.get(&key) {
                None => {
                    self.states_by_sequence.insert(key, applied.state);
                }
                Some(&expected) if expected != applied.state => {
                    ctx.report_violation(format!(
                        "replica {} diverged at epoch {} sequence {}: state {} vs {}",
                        applied.replica, applied.epoch, applied.sequence, applied.state, expected
                    ));
                }
                Some(_) => {}
            }
        }
    }

    fn name(&self) -> &str {
        "ConsistencyMonitor"
    }

    fn clone_state(&self) -> Option<Box<dyn Monitor>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psharp::runtime::{Runtime, RuntimeConfig};
    use psharp::scheduler::{RandomScheduler, RoundRobinScheduler};

    fn new_runtime(seed: u64, faults: FaultPlan) -> Runtime {
        Runtime::new(
            Box::new(RandomScheduler::new(seed)),
            RuntimeConfig {
                max_steps: 5_000,
                faults,
                ..RuntimeConfig::default()
            },
            seed,
        )
    }

    #[test]
    fn replication_reaches_all_secondaries_without_failures() {
        let mut rt = Runtime::new(
            Box::new(RoundRobinScheduler::new(0)),
            RuntimeConfig::default(),
            0,
        );
        rt.add_monitor(ConsistencyMonitor::new());
        let manager = rt.create_machine(ClusterManagerMachine::new(2, FabricBugs::default()));
        rt.create_machine(FabricClient::new(manager, 3));
        let outcome = rt.run();
        assert!(
            !matches!(outcome, ExecutionOutcome::BugFound(_)),
            "unexpected violation: {outcome:?}"
        );
        let manager_ref = rt
            .machine_ref::<ClusterManagerMachine>(manager)
            .expect("manager");
        let primary = manager_ref.primary().expect("primary exists");
        let primary_state = rt
            .machine_ref::<ReplicaMachine>(primary)
            .expect("replica")
            .state();
        assert!(primary_state > 0, "the client's increments were applied");
    }

    #[test]
    fn failover_in_fixed_model_keeps_assertions_intact() {
        // The fixed model must survive a scheduler-injected replica crash
        // (primary or secondary — the scheduler picks) without violating
        // the consistency monitor or the promotion assertion.
        let mut crashes_observed = 0;
        for seed in 0..20 {
            let mut rt = new_runtime(seed, FaultPlan::new().with_crashes(1));
            rt.add_monitor(ConsistencyMonitor::new());
            let manager = rt.create_machine(ClusterManagerMachine::new(2, FabricBugs::default()));
            rt.create_machine(FabricClient::new(manager, 3));
            let outcome = rt.run();
            assert!(
                !matches!(outcome, ExecutionOutcome::BugFound(_)),
                "fixed fabric model flagged a bug with seed {seed}: {outcome:?}"
            );
            crashes_observed += rt.trace().fault_decision_count();
        }
        assert!(
            crashes_observed > 0,
            "at least one seed must actually crash a replica"
        );
    }

    #[test]
    fn consistency_monitor_flags_divergent_states() {
        let mut monitor = ConsistencyMonitor::new();
        let mut bug = None;
        let mut ctx = MonitorContext::new_for_tests(&mut bug);
        monitor.observe(
            &mut ctx,
            &Event::new(NotifyApplied {
                replica: MachineId::from_raw(1),
                epoch: 0,
                sequence: 1,
                state: 5,
            }),
        );
        monitor.observe(
            &mut ctx,
            &Event::new(NotifyApplied {
                replica: MachineId::from_raw(2),
                epoch: 0,
                sequence: 1,
                state: 6,
            }),
        );
        assert!(bug.is_some());
        assert_eq!(monitor.applications_observed(), 2);
    }
}
