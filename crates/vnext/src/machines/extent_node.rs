//! The modeled Extent Node (Figure 8 of the paper).
//!
//! The model omits most of a real EN and keeps only the logic the test needs:
//! periodic heartbeats and sync reports (driven by a modeled timer), repairing
//! an extent from a replica on another EN, and failure handling. It re-uses
//! the real [`EnExtentStore`] bookkeeping component.

use psharp::prelude::*;

use crate::en_store::EnExtentStore;
use crate::events::{
    EnCrashed, EnTick, EnToManager, ExtentCopyRequest, ExtentCopyResponse, NotifyEnFailed,
    NotifyReplicaAdded, RepairRequest,
};
use crate::monitor::RepairMonitor;
use crate::types::{EnId, EnMessage};

/// A modeled Extent Node.
#[derive(Clone)]
pub struct ExtentNodeMachine {
    en_id: EnId,
    manager: MachineId,
    store: EnExtentStore,
    /// Where the crash hook reports this EN's failure (the testing driver),
    /// so a replacement can be launched. `None` in unit tests that exercise
    /// an EN in isolation.
    supervisor: Option<MachineId>,
    heartbeats_sent: usize,
    syncs_sent: usize,
}

impl ExtentNodeMachine {
    /// Creates an EN with the given initial extent placement. Heartbeats and
    /// sync reports are sent directly to the Extent Manager wrapper machine
    /// `manager`, as in Figure 8 of the paper.
    pub fn new(en_id: EnId, manager: MachineId, store: EnExtentStore) -> Self {
        ExtentNodeMachine {
            en_id,
            manager,
            store,
            supervisor: None,
            heartbeats_sent: 0,
            syncs_sent: 0,
        }
    }

    /// Registers the machine that supervises this EN: when the core
    /// scheduler injects a crash fault, the crash hook reports the failure
    /// there (the testing driver, which launches a replacement EN).
    pub fn with_supervisor(mut self, supervisor: MachineId) -> Self {
        self.supervisor = Some(supervisor);
        self
    }

    /// The EN's cluster identifier.
    pub fn en_id(&self) -> EnId {
        self.en_id
    }

    /// The EN's extent bookkeeping (exposed for tests).
    pub fn store(&self) -> &EnExtentStore {
        &self.store
    }

    /// Heartbeats sent so far (exposed for tests).
    pub fn heartbeats_sent(&self) -> usize {
        self.heartbeats_sent
    }

    /// Sync reports sent so far (exposed for tests).
    pub fn syncs_sent(&self) -> usize {
        self.syncs_sent
    }

    fn send_heartbeat(&mut self, ctx: &mut Context<'_>) {
        self.heartbeats_sent += 1;
        ctx.send(
            self.manager,
            Event::new(EnToManager {
                message: EnMessage::Heartbeat { en: self.en_id },
            }),
        );
    }

    fn send_sync_report(&mut self, ctx: &mut Context<'_>) {
        self.syncs_sent += 1;
        ctx.send(
            self.manager,
            Event::new(EnToManager {
                message: EnMessage::SyncReport {
                    en: self.en_id,
                    extents: self.store.sync_report(),
                },
            }),
        );
    }
}

impl Machine for ExtentNodeMachine {
    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        if event.is::<EnTick>() || event.is::<TimerTick>() {
            // Heartbeats are frequent, sync reports less so; which one this
            // tick produces is a controlled nondeterministic choice so the
            // scheduler can starve either.
            if ctx.random_bool() {
                self.send_heartbeat(ctx);
            } else {
                self.send_sync_report(ctx);
            }
        } else if let Some(repair) = event.downcast_ref::<RepairRequest>() {
            // Extent repair: ask the named source replica for a copy.
            let me = ctx.id();
            if !self.store.contains(repair.extent) {
                ctx.send(
                    repair.source_machine,
                    Event::new(ExtentCopyRequest {
                        extent: repair.extent,
                        requester: me,
                    }),
                );
            }
        } else if let Some(copy_req) = event.downcast_ref::<ExtentCopyRequest>() {
            ctx.send(
                copy_req.requester,
                Event::new(ExtentCopyResponse {
                    extent: copy_req.extent,
                    success: self.store.contains(copy_req.extent),
                }),
            );
        } else if let Some(copy_resp) = event.downcast_ref::<ExtentCopyResponse>() {
            if copy_resp.success && self.store.add(copy_resp.extent) {
                ctx.notify_monitor::<RepairMonitor>(Event::new(NotifyReplicaAdded {
                    en: self.en_id,
                    extent: copy_resp.extent,
                }));
            }
        }
    }

    fn on_crash(&mut self, ctx: &mut Context<'_>) {
        // The crash is injected by the core scheduler
        // (`Decision::CrashMachine`) under the test's fault budget; this
        // hook models the environment noticing it: the liveness monitor
        // learns the replicas are gone, and the supervising driver launches
        // a replacement EN.
        ctx.notify_monitor::<RepairMonitor>(Event::new(NotifyEnFailed { en: self.en_id }));
        if let Some(supervisor) = self.supervisor {
            ctx.send(supervisor, Event::new(EnCrashed { en: self.en_id }));
        }
    }

    fn name(&self) -> &str {
        "ExtentNodeMachine"
    }

    psharp::impl_machine_snapshot!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ExtentId;
    use psharp::runtime::{Runtime, RuntimeConfig};
    use psharp::scheduler::RoundRobinScheduler;

    #[derive(Default)]
    struct DriverStub {
        heartbeats: usize,
        syncs: usize,
    }
    impl Machine for DriverStub {
        fn handle(&mut self, _ctx: &mut Context<'_>, event: Event) {
            if let Some(relay) = event.downcast_ref::<EnToManager>() {
                match relay.message {
                    EnMessage::Heartbeat { .. } => self.heartbeats += 1,
                    EnMessage::SyncReport { .. } => self.syncs += 1,
                }
            }
        }
    }

    fn new_runtime() -> Runtime {
        Runtime::new(
            Box::new(RoundRobinScheduler::new(0)),
            RuntimeConfig::default(),
            0,
        )
    }

    #[test]
    fn ticks_produce_heartbeats_and_sync_reports() {
        let mut rt = new_runtime();
        let driver = rt.create_machine(DriverStub::default());
        let en = rt.create_machine(ExtentNodeMachine::new(
            EnId(1),
            driver,
            EnExtentStore::new(),
        ));
        for _ in 0..4 {
            rt.send(en, Event::new(EnTick));
        }
        rt.run();
        let stub = rt.machine_ref::<DriverStub>(driver).expect("driver");
        // Round-robin alternates the nondeterministic boolean, so the four
        // ticks split evenly.
        assert_eq!(stub.heartbeats, 2);
        assert_eq!(stub.syncs, 2);
    }

    #[test]
    fn repair_flow_copies_extent_from_source() {
        let mut rt = new_runtime();
        let driver = rt.create_machine(DriverStub::default());
        let source = rt.create_machine(ExtentNodeMachine::new(
            EnId(1),
            driver,
            EnExtentStore::with_extents([ExtentId(9)]),
        ));
        let target = rt.create_machine(ExtentNodeMachine::new(
            EnId(2),
            driver,
            EnExtentStore::new(),
        ));
        rt.send(
            target,
            Event::new(RepairRequest {
                extent: ExtentId(9),
                source_machine: source,
            }),
        );
        rt.run();
        let target_ref = rt
            .machine_ref::<ExtentNodeMachine>(target)
            .expect("target EN");
        assert!(target_ref.store().contains(ExtentId(9)));
    }

    #[test]
    fn repair_request_for_already_stored_extent_is_ignored() {
        let mut rt = new_runtime();
        let driver = rt.create_machine(DriverStub::default());
        let source = rt.create_machine(ExtentNodeMachine::new(
            EnId(1),
            driver,
            EnExtentStore::with_extents([ExtentId(9)]),
        ));
        let target = rt.create_machine(ExtentNodeMachine::new(
            EnId(2),
            driver,
            EnExtentStore::with_extents([ExtentId(9)]),
        ));
        rt.send(
            target,
            Event::new(RepairRequest {
                extent: ExtentId(9),
                source_machine: source,
            }),
        );
        rt.run();
        // Two steps: target start + repair request; no copy round-trip.
        let source_ref = rt
            .machine_ref::<ExtentNodeMachine>(source)
            .expect("source EN");
        assert_eq!(source_ref.store().len(), 1);
    }

    #[test]
    fn copy_from_source_without_replica_fails_gracefully() {
        let mut rt = new_runtime();
        let driver = rt.create_machine(DriverStub::default());
        let source = rt.create_machine(ExtentNodeMachine::new(
            EnId(1),
            driver,
            EnExtentStore::new(),
        ));
        let target = rt.create_machine(ExtentNodeMachine::new(
            EnId(2),
            driver,
            EnExtentStore::new(),
        ));
        rt.send(
            target,
            Event::new(RepairRequest {
                extent: ExtentId(5),
                source_machine: source,
            }),
        );
        rt.run();
        let target_ref = rt
            .machine_ref::<ExtentNodeMachine>(target)
            .expect("target EN");
        assert!(!target_ref.store().contains(ExtentId(5)));
    }

    #[test]
    fn injected_crash_silences_the_en_and_notifies_the_supervisor() {
        use psharp::prelude::{FaultPlan, SchedulerKind};

        /// Supervisor stub recording crash notices.
        #[derive(Default)]
        struct SupervisorStub {
            crashed: Vec<EnId>,
        }
        impl Machine for SupervisorStub {
            fn handle(&mut self, _ctx: &mut Context<'_>, event: Event) {
                if let Some(notice) = event.downcast_ref::<EnCrashed>() {
                    self.crashed.push(notice.en);
                }
            }
        }

        for seed in 0..20 {
            let mut rt = Runtime::new(
                SchedulerKind::Random.build(seed, 400),
                RuntimeConfig {
                    max_steps: 400,
                    faults: FaultPlan::new().with_crashes(1),
                    ..RuntimeConfig::default()
                },
                seed,
            );
            let driver = rt.create_machine(DriverStub::default());
            let supervisor = rt.create_machine(SupervisorStub::default());
            let en = rt.create_machine(
                ExtentNodeMachine::new(EnId(1), driver, EnExtentStore::new())
                    .with_supervisor(supervisor),
            );
            rt.mark_crashable(en);
            for _ in 0..40 {
                rt.send(en, Event::new(EnTick));
            }
            rt.run();
            if !rt.is_crashed(en) {
                continue;
            }
            let stub = rt.machine_ref::<DriverStub>(driver).expect("driver");
            assert!(
                stub.heartbeats + stub.syncs < 40,
                "the crash must cut the tick backlog short"
            );
            let sup = rt
                .machine_ref::<SupervisorStub>(supervisor)
                .expect("supervisor");
            assert_eq!(sup.crashed, vec![EnId(1)], "the crash hook reported");
            return;
        }
        panic!("no seed in 0..20 fired the crash fault");
    }
}
