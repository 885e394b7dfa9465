//! Modeled storage nodes.
//!
//! A storage node stores replicated values in memory (rather than on disk,
//! which would be inefficient during testing) and periodically reports its
//! storage log to the server when its modeled timer fires.

use psharp::prelude::*;

use crate::events::{NotifyReplica, ReplReq, Sync, Timeout};
use crate::monitors::ReplicaSafetyMonitor;

/// A modeled storage node (SN).
#[derive(Clone)]
pub struct StorageNode {
    server: MachineId,
    log: Vec<u64>,
}

impl StorageNode {
    /// Creates a storage node that reports to `server`.
    pub fn new(server: MachineId) -> Self {
        StorageNode {
            server,
            log: Vec::new(),
        }
    }

    /// The node's storage log (exposed for tests).
    pub fn log(&self) -> &[u64] {
        &self.log
    }

    fn store(&mut self, ctx: &mut Context<'_>, data: u64) {
        if self.log.last() != Some(&data) {
            self.log.push(data);
        }
        let node = ctx.id();
        ctx.notify_monitor::<ReplicaSafetyMonitor>(Event::new(NotifyReplica { node, data }));
    }
}

impl Machine for StorageNode {
    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        if let Some(req) = event.downcast_ref::<ReplReq>() {
            self.store(ctx, req.data);
        } else if event.is::<Timeout>() || event.is::<TimerTick>() {
            let node = ctx.id();
            ctx.send(
                self.server,
                Event::new(Sync {
                    node,
                    log: self.log.clone(),
                }),
            );
        }
    }

    fn name(&self) -> &str {
        "StorageNode"
    }

    psharp::impl_machine_snapshot!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::ClientReq;
    use crate::server::{Server, ServerBugs};
    use psharp::runtime::{Runtime, RuntimeConfig};
    use psharp::scheduler::RoundRobinScheduler;

    struct Sink;
    impl Machine for Sink {
        fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
    }

    #[test]
    fn storage_node_deduplicates_consecutive_values() {
        let mut rt = Runtime::new(
            Box::new(RoundRobinScheduler::new(0)),
            RuntimeConfig::default(),
            0,
        );
        let server = rt.create_machine(Sink);
        let node = rt.create_machine(StorageNode::new(server));
        rt.send(node, Event::new(ReplReq { data: 4 }));
        rt.send(node, Event::new(ReplReq { data: 4 }));
        rt.send(node, Event::new(ReplReq { data: 5 }));
        rt.run();
        let sn = rt.machine_ref::<StorageNode>(node).expect("node exists");
        assert_eq!(sn.log(), &[4, 5]);
    }

    #[test]
    fn timeout_sends_sync_with_current_log() {
        let mut rt = Runtime::new(
            Box::new(RoundRobinScheduler::new(0)),
            RuntimeConfig::default(),
            0,
        );
        let client = rt.create_machine(Sink);
        // Wire a real server so we can observe that the sync is counted.
        let server_placeholder = rt.create_machine(Sink);
        let node = rt.create_machine(StorageNode::new(server_placeholder));
        let _ = client;
        rt.send(node, Event::new(ReplReq { data: 9 }));
        rt.send(node, Event::new(Timeout));
        rt.run();
        let sn = rt.machine_ref::<StorageNode>(node).expect("node exists");
        assert_eq!(sn.log(), &[9]);
    }

    #[test]
    fn end_to_end_replication_with_round_robin_completes() {
        // One client request, three nodes, fixed server, timeouts injected
        // manually: the server must acknowledge exactly once.
        let mut rt = Runtime::new(
            Box::new(RoundRobinScheduler::new(0)),
            RuntimeConfig::default(),
            0,
        );
        let server = rt.create_machine(Server::new(3, ServerBugs::default()));
        let client = rt.create_machine(Sink);
        let nodes: Vec<MachineId> = (0..3)
            .map(|_| rt.create_machine(StorageNode::new(server)))
            .collect();
        rt.send(
            server,
            Event::new(crate::server::ServerInit {
                client,
                nodes: nodes.clone(),
            }),
        );
        rt.send(server, Event::new(ClientReq { data: 11 }));
        rt.run();
        // Deliver a timeout to each node so they sync, then run again.
        for &node in &nodes {
            rt.send(node, Event::new(Timeout));
        }
        rt.run();
        let server_ref = rt.machine_ref::<Server>(server).expect("server exists");
        assert_eq!(server_ref.acks_sent(), 1);
    }
}
