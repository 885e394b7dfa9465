//! The `TestingDriver` machine (Figure 10 of the paper).
//!
//! The driver plays two roles:
//!
//! * **dispatching intercepted manager output** — repair requests captured by
//!   the modeled network engine name ENs by their cluster id; the driver
//!   translates them to the corresponding EN machines;
//! * **reacting to EN crashes** — EN failures themselves are injected by the
//!   core scheduler (`Decision::CrashMachine`, under the test's fault
//!   budget); the crashed EN's hook reports [`EnCrashed`] here, and the
//!   driver launches a replacement EN with an empty store (the
//!   cluster-operator half of the paper's fail-and-repair scenario).

use std::collections::BTreeMap;

use psharp::prelude::*;
use psharp::timer::Timer;

use crate::en_store::EnExtentStore;
use crate::events::{EnCrashed, EnTick, ManagerToEn, RepairRequest};
use crate::machines::extent_node::ExtentNodeMachine;
use crate::types::{EnId, ExtMgrMessage};

/// Wiring event delivered to the driver before the run starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriverInit {
    /// The EN machines in the initial cluster.
    pub ens: Vec<(EnId, MachineId)>,
}

/// The testing driver machine.
#[derive(Clone)]
pub struct TestingDriver {
    manager: MachineId,
    ens: BTreeMap<EnId, MachineId>,
    next_en_id: u64,
    replacements_launched: usize,
    relayed_to_ens: usize,
}

impl TestingDriver {
    /// Creates a driver that dispatches intercepted output of `manager` and
    /// launches replacement ENs when crashed ENs report in.
    pub fn new(manager: MachineId) -> Self {
        TestingDriver {
            manager,
            ens: BTreeMap::new(),
            next_en_id: 0,
            replacements_launched: 0,
            relayed_to_ens: 0,
        }
    }

    /// Number of replacement ENs launched after crashes (exposed for tests).
    pub fn replacements_launched(&self) -> usize {
        self.replacements_launched
    }

    /// Number of manager → EN messages dispatched (exposed for tests).
    pub fn relayed_to_ens(&self) -> usize {
        self.relayed_to_ens
    }

    fn handle_en_crash(&mut self, ctx: &mut Context<'_>, crashed: EnId) {
        self.ens.remove(&crashed);
        self.replacements_launched += 1;
        // Launch a replacement EN with an empty store, plus its modeled
        // timer. The replacement is supervised by this driver and is as
        // crashable as the node it replaces (the fault budget bounds how
        // many crashes can actually happen).
        let new_en_id = EnId(self.next_en_id);
        self.next_en_id += 1;
        let me = ctx.id();
        let new_en = ctx.create(
            ExtentNodeMachine::new(new_en_id, self.manager, EnExtentStore::new())
                .with_supervisor(me),
        );
        ctx.mark_crashable(new_en);
        ctx.create(Timer::with_event(new_en, || Event::new(EnTick)));
        self.ens.insert(new_en_id, new_en);
    }
}

impl Machine for TestingDriver {
    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        if let Some(init) = event.downcast_ref::<DriverInit>() {
            for &(en_id, machine) in &init.ens {
                self.ens.insert(en_id, machine);
                self.next_en_id = self.next_en_id.max(en_id.0 + 1);
            }
        } else if let Some(outbound) = event.downcast_ref::<ManagerToEn>() {
            self.relayed_to_ens += 1;
            let ExtMgrMessage::RepairRequest { extent, source } = outbound.message;
            let (Some(&target_machine), Some(&source_machine)) =
                (self.ens.get(&outbound.target), self.ens.get(&source))
            else {
                // The manager addressed an EN the harness never created (it
                // can only happen after the manager's view diverged from the
                // cluster); the message is dropped like a network would.
                return;
            };
            ctx.send(
                target_machine,
                Event::new(RepairRequest {
                    extent,
                    source_machine,
                }),
            );
        } else if let Some(crashed) = event.downcast_ref::<EnCrashed>() {
            self.handle_en_crash(ctx, crashed.en);
        }
    }

    fn name(&self) -> &str {
        "TestingDriver"
    }

    psharp::impl_machine_snapshot!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ExtentId;
    use psharp::runtime::{Runtime, RuntimeConfig};
    use psharp::scheduler::{RandomScheduler, RoundRobinScheduler};

    /// Sink standing in for the Extent Manager wrapper machine.
    #[derive(Default)]
    struct ManagerStub;
    impl Machine for ManagerStub {
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
    }

    fn new_runtime(max_steps: usize) -> Runtime {
        Runtime::new(
            Box::new(RoundRobinScheduler::new(0)),
            RuntimeConfig {
                max_steps,
                ..RuntimeConfig::default()
            },
            0,
        )
    }

    #[test]
    fn driver_translates_repair_requests_to_en_machines() {
        let mut rt = new_runtime(1_000);
        let manager = rt.create_machine(ManagerStub);
        let driver = rt.create_machine(TestingDriver::new(manager));
        let source = rt.create_machine(ExtentNodeMachine::new(
            EnId(0),
            manager,
            EnExtentStore::with_extents([ExtentId(1)]),
        ));
        let target = rt.create_machine(ExtentNodeMachine::new(
            EnId(1),
            manager,
            EnExtentStore::new(),
        ));
        rt.send(
            driver,
            Event::new(DriverInit {
                ens: vec![(EnId(0), source), (EnId(1), target)],
            }),
        );
        rt.send(
            driver,
            Event::new(ManagerToEn {
                target: EnId(1),
                message: ExtMgrMessage::RepairRequest {
                    extent: ExtentId(1),
                    source: EnId(0),
                },
            }),
        );
        rt.run();
        let target_ref = rt.machine_ref::<ExtentNodeMachine>(target).unwrap();
        assert!(target_ref.store().contains(ExtentId(1)));
    }

    #[test]
    fn repair_request_for_unknown_en_is_dropped() {
        let mut rt = new_runtime(1_000);
        let manager = rt.create_machine(ManagerStub);
        let driver = rt.create_machine(TestingDriver::new(manager));
        rt.send(
            driver,
            Event::new(ManagerToEn {
                target: EnId(9),
                message: ExtMgrMessage::RepairRequest {
                    extent: ExtentId(1),
                    source: EnId(8),
                },
            }),
        );
        let outcome = rt.run();
        assert!(
            !matches!(outcome, ExecutionOutcome::BugFound(_)),
            "unexpected violation: {outcome:?}"
        );
        assert_eq!(
            rt.machine_ref::<TestingDriver>(driver)
                .unwrap()
                .relayed_to_ens(),
            1
        );
    }

    #[test]
    fn driver_launches_a_replacement_after_an_injected_crash() {
        use psharp::prelude::FaultPlan;
        for seed in 0..20 {
            let mut rt = Runtime::new(
                Box::new(RandomScheduler::new(seed)),
                RuntimeConfig {
                    max_steps: 400,
                    faults: FaultPlan::new().with_crashes(1),
                    ..RuntimeConfig::default()
                },
                seed,
            );
            let manager = rt.create_machine(ManagerStub);
            let driver = rt.create_machine(TestingDriver::new(manager));
            let en = rt.create_machine(
                ExtentNodeMachine::new(EnId(0), manager, EnExtentStore::new())
                    .with_supervisor(driver),
            );
            rt.mark_crashable(en);
            rt.send(
                driver,
                Event::new(DriverInit {
                    ens: vec![(EnId(0), en)],
                }),
            );
            // Keep the execution alive so the fault gate gets probe
            // opportunities.
            for _ in 0..64 {
                rt.send(en, Event::new(crate::events::EnTick));
            }
            rt.run();
            if !rt.is_crashed(en) {
                continue;
            }
            let driver_ref = rt.machine_ref::<TestingDriver>(driver).unwrap();
            assert_eq!(driver_ref.replacements_launched(), 1);
            // A replacement EN and its timer were created.
            assert_eq!(rt.machine_count(), 5);
            return;
        }
        panic!("no seed in 0..20 fired the crash fault");
    }

    #[test]
    fn without_a_fault_budget_no_en_ever_crashes() {
        let mut rt = new_runtime(1_000);
        let manager = rt.create_machine(ManagerStub);
        let driver = rt.create_machine(TestingDriver::new(manager));
        let en = rt.create_machine(
            ExtentNodeMachine::new(EnId(0), manager, EnExtentStore::new()).with_supervisor(driver),
        );
        rt.mark_crashable(en);
        rt.send(
            driver,
            Event::new(DriverInit {
                ens: vec![(EnId(0), en)],
            }),
        );
        for _ in 0..8 {
            rt.send(en, Event::new(crate::events::EnTick));
        }
        rt.run();
        assert!(!rt.is_crashed(en));
        assert_eq!(
            rt.machine_ref::<TestingDriver>(driver)
                .unwrap()
                .replacements_launched(),
            0
        );
    }
}
