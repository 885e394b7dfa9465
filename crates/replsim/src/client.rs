//! The modeled client that drives the system towards interesting behaviors.
//!
//! The client repeatedly sends a nondeterministically generated request to
//! the server and waits for an acknowledgement before sending the next one —
//! the P# environment-modeling pattern of §2.3.

use psharp::prelude::*;

use crate::events::{Ack, ClientReq};

/// The modeled client.
#[derive(Clone)]
pub struct Client {
    server: MachineId,
    remaining_requests: usize,
    awaiting_ack: bool,
    acks_received: usize,
    next_sequence: u64,
}

impl Client {
    /// Creates a client that will issue `requests` requests to `server`.
    pub fn new(server: MachineId, requests: usize) -> Self {
        Client {
            server,
            remaining_requests: requests,
            awaiting_ack: false,
            acks_received: 0,
            next_sequence: 0,
        }
    }

    /// Number of acknowledgements received so far (exposed for tests).
    pub fn acks_received(&self) -> usize {
        self.acks_received
    }

    /// Whether the client is still waiting for an acknowledgement.
    pub fn awaiting_ack(&self) -> bool {
        self.awaiting_ack
    }

    fn send_next_request(&mut self, ctx: &mut Context<'_>) {
        if self.remaining_requests == 0 {
            ctx.halt();
            return;
        }
        self.remaining_requests -= 1;
        // Nondeterministically generated payload, controlled by the runtime.
        // The sequence prefix keeps payloads of distinct requests distinct so
        // the replica-tracking specification is unambiguous.
        let data = self.next_sequence * 1_000 + ctx.random_index(100) as u64 + 1;
        self.next_sequence += 1;
        self.awaiting_ack = true;
        ctx.send(self.server, Event::new(ClientReq { data }));
    }
}

impl Machine for Client {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.send_next_request(ctx);
    }

    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        if event.is::<Ack>() && self.awaiting_ack {
            self.awaiting_ack = false;
            self.acks_received += 1;
            self.send_next_request(ctx);
        }
    }

    fn name(&self) -> &str {
        "Client"
    }

    psharp::impl_machine_snapshot!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use psharp::runtime::{ExecutionOutcome, Runtime, RuntimeConfig};
    use psharp::scheduler::RoundRobinScheduler;

    /// A stand-in server that acknowledges every request immediately.
    struct EchoServer;
    impl Machine for EchoServer {
        fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
            if event.is::<ClientReq>() {
                // The client is always machine #1 in these tests.
                ctx.send(MachineId::from_raw(1), Event::new(Ack));
            }
        }
    }

    #[test]
    fn client_sends_all_requests_when_acknowledged() {
        let mut rt = Runtime::new(
            Box::new(RoundRobinScheduler::new(0)),
            RuntimeConfig::default(),
            0,
        );
        let server = rt.create_machine(EchoServer);
        let client = rt.create_machine(Client::new(server, 3));
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
        let client_ref = rt.machine_ref::<Client>(client).expect("client exists");
        assert_eq!(client_ref.acks_received(), 3);
        assert!(!client_ref.awaiting_ack());
        assert!(rt.is_halted(client));
    }

    #[test]
    fn client_without_ack_stays_waiting() {
        struct SilentServer;
        impl Machine for SilentServer {
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        let mut rt = Runtime::new(
            Box::new(RoundRobinScheduler::new(0)),
            RuntimeConfig::default(),
            0,
        );
        let server = rt.create_machine(SilentServer);
        let client = rt.create_machine(Client::new(server, 2));
        assert_eq!(rt.run(), ExecutionOutcome::Quiescent);
        let client_ref = rt.machine_ref::<Client>(client).expect("client exists");
        assert_eq!(client_ref.acks_received(), 0);
        assert!(client_ref.awaiting_ack());
    }

    #[test]
    fn zero_request_client_halts_immediately() {
        struct SilentServer;
        impl Machine for SilentServer {
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        let mut rt = Runtime::new(
            Box::new(RoundRobinScheduler::new(0)),
            RuntimeConfig::default(),
            0,
        );
        let server = rt.create_machine(SilentServer);
        let client = rt.create_machine(Client::new(server, 0));
        rt.run();
        assert!(rt.is_halted(client));
    }
}
