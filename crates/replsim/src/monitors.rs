//! The safety and liveness specifications of the replication example (§2.4
//! and §2.5 of the paper).

use std::collections::HashSet;

use psharp::prelude::*;

use crate::events::{NotifyAck, NotifyClientReq, NotifyReplica};

/// Safety monitor: an `Ack` must never be issued while fewer than the target
/// number of distinct storage nodes hold the latest data.
#[derive(Clone)]
pub struct ReplicaSafetyMonitor {
    replica_target: usize,
    current_data: Option<u64>,
    replicas: HashSet<MachineId>,
    acks_observed: usize,
}

impl ReplicaSafetyMonitor {
    /// Creates the monitor for a system with the given replica target.
    pub fn new(replica_target: usize) -> Self {
        ReplicaSafetyMonitor {
            replica_target,
            current_data: None,
            replicas: HashSet::new(),
            acks_observed: 0,
        }
    }

    /// Number of acknowledgements observed (exposed for tests).
    pub fn acks_observed(&self) -> usize {
        self.acks_observed
    }

    /// Number of distinct replicas currently holding the latest data.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }
}

impl Monitor for ReplicaSafetyMonitor {
    fn observe(&mut self, ctx: &mut MonitorContext<'_>, event: &Event) {
        if let Some(req) = event.downcast_ref::<NotifyClientReq>() {
            self.current_data = Some(req.data);
            self.replicas.clear();
        } else if let Some(replica) = event.downcast_ref::<NotifyReplica>() {
            if Some(replica.data) == self.current_data {
                self.replicas.insert(replica.node);
            }
        } else if event.is::<NotifyAck>() {
            self.acks_observed += 1;
            if self.replicas.len() < self.replica_target {
                ctx.report_violation(format!(
                    "ack issued with only {} of {} required replicas holding the latest data",
                    self.replicas.len(),
                    self.replica_target
                ));
            }
        }
    }

    fn name(&self) -> &str {
        "ReplicaSafetyMonitor"
    }

    fn clone_state(&self) -> Option<Box<dyn Monitor>> {
        Some(Box::new(self.clone()))
    }
}

/// Liveness monitor: every accepted client request must eventually be
/// acknowledged.
#[derive(Debug, Default, Clone)]
pub struct AckLivenessMonitor {
    waiting_for_ack: bool,
    requests_observed: usize,
    acks_observed: usize,
}

impl AckLivenessMonitor {
    /// Creates the monitor in the cold state.
    pub fn new() -> Self {
        AckLivenessMonitor::default()
    }

    /// Number of client requests observed (exposed for tests).
    pub fn requests_observed(&self) -> usize {
        self.requests_observed
    }

    /// Number of acknowledgements observed (exposed for tests).
    pub fn acks_observed(&self) -> usize {
        self.acks_observed
    }
}

impl Monitor for AckLivenessMonitor {
    fn observe(&mut self, _ctx: &mut MonitorContext<'_>, event: &Event) {
        if event.is::<NotifyClientReq>() {
            self.waiting_for_ack = true;
            self.requests_observed += 1;
        } else if event.is::<NotifyAck>() {
            self.waiting_for_ack = false;
            self.acks_observed += 1;
        }
    }

    fn temperature(&self) -> Temperature {
        if self.waiting_for_ack {
            Temperature::Hot
        } else {
            Temperature::Cold
        }
    }

    fn hot_message(&self) -> String {
        format!(
            "a client request was never acknowledged ({} requests, {} acks)",
            self.requests_observed, self.acks_observed
        )
    }

    fn name(&self) -> &str {
        "AckLivenessMonitor"
    }

    fn clone_state(&self) -> Option<Box<dyn Monitor>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psharp::monitor::MonitorContext;

    fn observe(monitor: &mut dyn Monitor, event: Event) -> Option<Bug> {
        let mut bug = None;
        let mut ctx = MonitorContext::new_for_tests(&mut bug);
        monitor.observe(&mut ctx, &event);
        bug
    }

    #[test]
    fn safety_monitor_accepts_ack_with_enough_replicas() {
        let mut monitor = ReplicaSafetyMonitor::new(2);
        assert!(observe(&mut monitor, Event::new(NotifyClientReq { data: 5 })).is_none());
        for node in [1, 2] {
            assert!(observe(
                &mut monitor,
                Event::new(NotifyReplica {
                    node: MachineId::from_raw(node),
                    data: 5
                })
            )
            .is_none());
        }
        assert!(observe(&mut monitor, Event::new(NotifyAck)).is_none());
        assert_eq!(monitor.acks_observed(), 1);
    }

    #[test]
    fn safety_monitor_flags_premature_ack() {
        let mut monitor = ReplicaSafetyMonitor::new(3);
        observe(&mut monitor, Event::new(NotifyClientReq { data: 5 }));
        observe(
            &mut monitor,
            Event::new(NotifyReplica {
                node: MachineId::from_raw(1),
                data: 5,
            }),
        );
        let bug = observe(&mut monitor, Event::new(NotifyAck)).expect("premature ack");
        assert_eq!(bug.kind, BugKind::SafetyViolation);
    }

    #[test]
    fn safety_monitor_ignores_stale_replica_notifications() {
        let mut monitor = ReplicaSafetyMonitor::new(1);
        observe(&mut monitor, Event::new(NotifyClientReq { data: 9 }));
        observe(
            &mut monitor,
            Event::new(NotifyReplica {
                node: MachineId::from_raw(1),
                data: 8,
            }),
        );
        assert_eq!(monitor.replica_count(), 0);
        let bug = observe(&mut monitor, Event::new(NotifyAck)).expect("no valid replica");
        assert_eq!(bug.kind, BugKind::SafetyViolation);
    }

    #[test]
    fn new_request_resets_replica_tracking() {
        let mut monitor = ReplicaSafetyMonitor::new(1);
        observe(&mut monitor, Event::new(NotifyClientReq { data: 1 }));
        observe(
            &mut monitor,
            Event::new(NotifyReplica {
                node: MachineId::from_raw(1),
                data: 1,
            }),
        );
        assert_eq!(monitor.replica_count(), 1);
        observe(&mut monitor, Event::new(NotifyClientReq { data: 2 }));
        assert_eq!(monitor.replica_count(), 0);
    }

    #[test]
    fn liveness_monitor_heats_and_cools() {
        let mut monitor = AckLivenessMonitor::new();
        assert_eq!(monitor.temperature(), Temperature::Cold);
        observe(&mut monitor, Event::new(NotifyClientReq { data: 1 }));
        assert_eq!(monitor.temperature(), Temperature::Hot);
        observe(&mut monitor, Event::new(NotifyAck));
        assert_eq!(monitor.temperature(), Temperature::Cold);
        assert!(monitor.hot_message().contains("never acknowledged"));
    }
}
