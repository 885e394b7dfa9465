//! Safety and liveness specifications of the sharded key-value store.

use std::collections::HashMap;

use psharp::prelude::*;

use crate::events::{ReadObserved, ReqCompleted, ReqIssued, WriteAcked};

/// Safety monitor: a read of a key must return the latest acknowledged
/// write of that key (clients use disjoint hot keys, so every key has a
/// single writer and the expectation is exact).
#[derive(Debug, Default, Clone)]
pub struct ReadYourWritesMonitor {
    acked: HashMap<u64, u64>,
    reads_observed: usize,
}

impl ReadYourWritesMonitor {
    /// Creates the monitor with no writes observed.
    pub fn new() -> Self {
        ReadYourWritesMonitor::default()
    }

    /// Number of reads observed (exposed for tests).
    pub fn reads_observed(&self) -> usize {
        self.reads_observed
    }
}

impl Monitor for ReadYourWritesMonitor {
    fn observe(&mut self, ctx: &mut MonitorContext<'_>, event: &Event) {
        if let Some(write) = event.downcast_ref::<WriteAcked>() {
            self.acked.insert(write.key, write.val);
        } else if let Some(read) = event.downcast_ref::<ReadObserved>() {
            self.reads_observed += 1;
            match self.acked.get(&read.key) {
                Some(&expected) if read.value != Some(expected) => {
                    ctx.report_violation(format!(
                        "acknowledged write lost: read of key {} returned {:?}, expected {}",
                        read.key, read.value, expected
                    ));
                }
                _ => {}
            }
        }
    }

    fn name(&self) -> &str {
        "ReadYourWritesMonitor"
    }

    fn clone_state(&self) -> Option<Box<dyn Monitor>> {
        Some(Box::new(self.clone()))
    }
}

/// Liveness monitor: every issued put/get pair eventually completes.
#[derive(Debug, Default, Clone)]
pub struct ProgressMonitor {
    outstanding: usize,
    issued: usize,
    completed: usize,
}

impl ProgressMonitor {
    /// Creates the monitor in the cold state.
    pub fn new() -> Self {
        ProgressMonitor::default()
    }

    /// Number of pairs completed (exposed for tests).
    pub fn completed(&self) -> usize {
        self.completed
    }
}

impl Monitor for ProgressMonitor {
    fn observe(&mut self, _ctx: &mut MonitorContext<'_>, event: &Event) {
        if event.is::<ReqIssued>() {
            self.outstanding += 1;
            self.issued += 1;
        } else if event.is::<ReqCompleted>() {
            self.outstanding = self.outstanding.saturating_sub(1);
            self.completed += 1;
        }
    }

    fn temperature(&self) -> Temperature {
        if self.outstanding > 0 {
            Temperature::Hot
        } else {
            Temperature::Cold
        }
    }

    fn hot_message(&self) -> String {
        format!(
            "a client request never completed ({} issued, {} completed)",
            self.issued, self.completed
        )
    }

    fn name(&self) -> &str {
        "ProgressMonitor"
    }

    fn clone_state(&self) -> Option<Box<dyn Monitor>> {
        Some(Box::new(self.clone()))
    }
}
