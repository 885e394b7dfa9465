//! The thin P# wrapper around the real Extent Manager (Figure 5 of the
//! paper) and the modeled network engine (Figure 7).

use psharp::prelude::*;

use crate::events::{EnToManager, ManagerTick, ManagerToEn};
use crate::extent_manager::{ExtentManager, ExtentManagerConfig, SharedNetworkEngine};
use crate::types::ExtentId;

/// Wiring event telling the wrapper which machine is the testing driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetDriver(pub MachineId);

/// Wraps the real [`ExtentManager`] so it can be driven by the systematic
/// testing runtime:
///
/// * messages from ENs (relayed by the driver) are delivered to
///   [`ExtentManager::process_message`], so the real code runs unmodified;
/// * the manager's internal timer is disabled and its expiration / repair
///   loops are driven by a modeled timer tick ([`ManagerTick`]), with the
///   choice of loop left to a controlled nondeterministic decision;
/// * outbound messages are intercepted by the modeled
///   [`SharedNetworkEngine`] and relayed to the testing driver, which
///   dispatches them to the modeled ENs.
pub struct ExtentManagerMachine {
    manager: ExtentManager,
    outbox: SharedNetworkEngine,
    driver: Option<MachineId>,
}

impl ExtentManagerMachine {
    /// Creates the wrapper, instantiating the real manager with the modeled
    /// network engine installed and its internal timer disabled.
    pub fn new(config: ExtentManagerConfig, managed_extents: Vec<ExtentId>) -> Self {
        let outbox = SharedNetworkEngine::new();
        let mut manager = ExtentManager::new(config, Box::new(outbox.clone()));
        manager.disable_timer();
        for extent in managed_extents {
            manager.register_extent(extent);
        }
        ExtentManagerMachine {
            manager,
            outbox,
            driver: None,
        }
    }

    /// Read access to the wrapped real manager (for tests and examples).
    pub fn manager(&self) -> &ExtentManager {
        &self.manager
    }

    /// Forwards everything the real manager put on the wire to the driver.
    fn drain_outbox(&mut self, ctx: &mut Context<'_>) {
        let outbound = self.outbox.drain();
        if outbound.is_empty() {
            return;
        }
        let driver = self
            .driver
            .expect("SetDriver must be delivered before manager output");
        for (target, message) in outbound {
            ctx.send(driver, Event::new(ManagerToEn { target, message }));
        }
    }
}

impl Machine for ExtentManagerMachine {
    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        if let Some(SetDriver(driver)) = event.downcast_ref::<SetDriver>() {
            self.driver = Some(*driver);
        } else if let Some(relay) = event.downcast_ref::<EnToManager>() {
            self.manager.process_message(relay.message.clone());
            self.drain_outbox(ctx);
        } else if event.is::<ManagerTick>() {
            // The modeled timer replaces both internal loops; which loop runs
            // at this tick is a controlled nondeterministic choice, so the
            // scheduler can explore expiration racing ahead of (or behind)
            // repair.
            if ctx.random_bool() {
                self.manager.run_expiration_loop();
            } else {
                self.manager.run_repair_loop();
            }
            self.drain_outbox(ctx);
        }
    }

    fn name(&self) -> &str {
        "ExtentManagerMachine"
    }

    fn clone_state(&self) -> Option<Box<dyn Machine>> {
        // The outbox is shared with the wrapped manager through an `Rc`
        // handle: fork it so the clone's wire state is fully private.
        let outbox = self.outbox.fork();
        Some(Box::new(ExtentManagerMachine {
            manager: self.manager.clone_with_network(Box::new(outbox.clone())),
            outbox,
            driver: self.driver,
        }))
    }

    fn clone_state_into(&self, target: &mut Box<dyn Machine>) -> bool {
        let outbox = self.outbox.fork();
        let manager = self.manager.clone_with_network(Box::new(outbox.clone()));
        match psharp::monitor::AsAny::as_any_mut(&mut **target).downcast_mut::<Self>() {
            Some(recycled) => {
                recycled.manager = manager;
                recycled.outbox = outbox;
                recycled.driver = self.driver;
            }
            None => {
                *target = Box::new(ExtentManagerMachine {
                    manager,
                    outbox,
                    driver: self.driver,
                });
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{EnId, EnMessage, ExtMgrMessage};
    use psharp::runtime::{Runtime, RuntimeConfig};
    use psharp::scheduler::RoundRobinScheduler;

    /// Sink machine standing in for the testing driver.
    #[derive(Default)]
    struct DriverStub {
        received: Vec<(EnId, ExtMgrMessage)>,
    }
    impl Machine for DriverStub {
        fn handle(&mut self, _ctx: &mut Context<'_>, event: Event) {
            if let Some(out) = event.downcast_ref::<ManagerToEn>() {
                self.received.push((out.target, out.message));
            }
        }
    }

    #[test]
    fn wrapper_relays_repair_requests_to_the_driver() {
        let mut rt = Runtime::new(
            Box::new(RoundRobinScheduler::new(0)),
            RuntimeConfig::default(),
            0,
        );
        let wrapper = rt.create_machine(ExtentManagerMachine::new(
            ExtentManagerConfig::default(),
            vec![ExtentId(1)],
        ));
        let driver = rt.create_machine(DriverStub::default());
        rt.send(wrapper, Event::new(SetDriver(driver)));
        // Two live ENs, only one replica of extent 1: the repair loop must
        // emit a request, which the wrapper relays to the driver.
        for en in 1..=2 {
            rt.send(
                wrapper,
                Event::new(EnToManager {
                    message: EnMessage::Heartbeat { en: EnId(en) },
                }),
            );
        }
        rt.send(
            wrapper,
            Event::new(EnToManager {
                message: EnMessage::SyncReport {
                    en: EnId(1),
                    extents: vec![ExtentId(1)],
                },
            }),
        );
        // Round-robin's nondeterministic booleans alternate, so two ticks run
        // both the expiration and the repair loop.
        rt.send(wrapper, Event::new(ManagerTick));
        rt.send(wrapper, Event::new(ManagerTick));
        rt.run();
        let stub = rt.machine_ref::<DriverStub>(driver).expect("driver stub");
        assert_eq!(stub.received.len(), 1);
        let (target, message) = stub.received[0];
        assert_eq!(target, EnId(2));
        assert!(matches!(
            message,
            ExtMgrMessage::RepairRequest {
                extent: ExtentId(1),
                source: EnId(1)
            }
        ));
    }

    #[test]
    fn wrapper_disables_the_internal_timer() {
        let wrapper = ExtentManagerMachine::new(ExtentManagerConfig::default(), vec![ExtentId(7)]);
        assert!(!wrapper.manager().internal_timer_enabled());
        assert_eq!(wrapper.manager().extent_center().extent_count(), 1);
    }
}
