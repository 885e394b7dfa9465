//! Per-machine FIFO event queues.

use std::collections::VecDeque;

use crate::event::Event;

/// The FIFO queue of events waiting to be handled by one machine.
///
/// Sends are non-blocking: the event is appended to the target's mailbox and
/// handled later, when the scheduler next picks the target machine. Delivery
/// order between two sends to the same machine follows the order in which the
/// sends executed; nondeterminism in message ordering arises from the
/// scheduler interleaving the *senders*.
#[derive(Debug, Default)]
pub struct Mailbox {
    queue: VecDeque<Event>,
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Mailbox {
            queue: VecDeque::new(),
        }
    }

    /// Appends an event.
    pub fn enqueue(&mut self, event: Event) {
        self.queue.push_back(event);
    }

    /// Removes and returns the oldest event, if any.
    pub fn dequeue(&mut self) -> Option<Event> {
        self.queue.pop_front()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` when the oldest pending event exists and was created
    /// with [`Event::replicable`], i.e. a duplication fault can target it.
    pub fn front_can_duplicate(&self) -> bool {
        self.queue.front().is_some_and(Event::can_duplicate)
    }

    /// Re-delivers a copy of the oldest pending event behind the queue (the
    /// duplication fault). Returns `false` when the queue is empty or the
    /// front event is not replicable.
    pub fn duplicate_front(&mut self) -> bool {
        match self.queue.front().and_then(Event::duplicate) {
            Some(copy) => {
                self.queue.push_back(copy);
                true
            }
            None => false,
        }
    }

    /// Drops all pending events (used when a machine halts).
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Clones every pending event into `target` (clearing it first), using
    /// each event's [`Event::duplicate`] copy constructor. Returns `false` —
    /// leaving `target` cleared — when any pending event was not created
    /// with [`Event::replicable`] and therefore cannot be copied.
    ///
    /// This is the snapshot path of
    /// [`Runtime::snapshot`](crate::runtime::Runtime::snapshot): writing into
    /// a caller-provided mailbox lets forks reuse pooled queue allocations.
    pub fn clone_into(&self, target: &mut Mailbox) -> bool {
        target.clear();
        for event in &self.queue {
            match event.duplicate() {
                Some(copy) => target.queue.push_back(copy),
                None => {
                    target.clear();
                    return false;
                }
            }
        }
        true
    }
}

/// A mailbox slot that materializes its queue lazily, on first send.
///
/// At mega-scale (thousands of machines, most of which never receive a
/// message) eagerly giving every machine a `VecDeque` wastes both the
/// allocation and the pooled-queue inventory. A `LazyMailbox` starts
/// *vacant* — an empty queue for every read purpose — and only binds a real
/// [`Mailbox`] (preferably a recycled one from the runtime's pool) when the
/// first event actually arrives. Halting or crashing a machine releases the
/// queue back to the pool via [`LazyMailbox::release_into`].
#[derive(Debug, Default)]
pub struct LazyMailbox {
    inner: Option<Mailbox>,
}

impl LazyMailbox {
    /// Creates a vacant slot (no queue bound).
    pub fn vacant() -> Self {
        LazyMailbox { inner: None }
    }

    /// Binds a queue if none is bound yet — recycled from `pool` when
    /// possible — and returns it for enqueuing.
    pub fn materialize_from<'a>(&'a mut self, pool: &mut Vec<Mailbox>) -> &'a mut Mailbox {
        self.inner
            .get_or_insert_with(|| pool.pop().unwrap_or_default())
    }

    /// The bound queue, if any. Vacant slots read as empty mailboxes.
    pub fn as_ref(&self) -> Option<&Mailbox> {
        self.inner.as_ref()
    }

    /// Mutable access to the bound queue, if any. Dequeue paths use this:
    /// an enabled started machine always has a bound, non-empty queue.
    pub fn as_mut(&mut self) -> Option<&mut Mailbox> {
        self.inner.as_mut()
    }

    /// Returns `true` when no event is pending (vacant or bound-but-empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.as_ref().is_none_or(Mailbox::is_empty)
    }

    /// Number of pending events (zero when vacant).
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, Mailbox::len)
    }

    /// Unbinds the queue — cleared — into `pool` for reuse by another slot.
    /// Used when a machine halts or crashes (its pending events are lost)
    /// and when a pooled runtime resets.
    pub fn release_into(&mut self, pool: &mut Vec<Mailbox>) {
        if let Some(mut mailbox) = self.inner.take() {
            mailbox.clear();
            pool.push(mailbox);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct A(u32);
    #[derive(Debug)]
    struct B;

    #[test]
    fn fifo_order_is_preserved() {
        let mut mb = Mailbox::new();
        mb.enqueue(Event::new(A(1)));
        mb.enqueue(Event::new(B));
        mb.enqueue(Event::new(A(2)));
        assert_eq!(mb.len(), 3);
        assert_eq!(mb.dequeue().unwrap().downcast::<A>().unwrap().0, 1);
        assert_eq!(mb.dequeue().unwrap().name(), "B");
        assert_eq!(mb.dequeue().unwrap().downcast::<A>().unwrap().0, 2);
        assert!(mb.dequeue().is_none());
    }

    #[test]
    fn duplicate_front_requires_a_replicable_event() {
        #[derive(Debug, Clone)]
        struct C(u32);
        let mut mb = Mailbox::new();
        mb.enqueue(Event::new(B));
        assert!(!mb.front_can_duplicate());
        assert!(!mb.duplicate_front());
        assert_eq!(mb.len(), 1);

        let mut mb = Mailbox::new();
        mb.enqueue(Event::replicable(C(7)));
        mb.enqueue(Event::new(B));
        assert!(mb.front_can_duplicate());
        assert!(mb.duplicate_front());
        assert_eq!(mb.len(), 3);
        // The copy lands behind the queue; the original is still delivered
        // first and in order.
        assert_eq!(mb.dequeue().unwrap().downcast::<C>().unwrap().0, 7);
        assert_eq!(mb.dequeue().unwrap().name(), "B");
        assert_eq!(mb.dequeue().unwrap().downcast::<C>().unwrap().0, 7);
    }

    #[test]
    fn clear_empties_queue() {
        let mut mb = Mailbox::new();
        mb.enqueue(Event::new(B));
        mb.enqueue(Event::new(B));
        mb.clear();
        assert!(mb.is_empty());
    }

    #[test]
    fn lazy_mailbox_stays_vacant_until_first_send() {
        let mut pool: Vec<Mailbox> = Vec::new();
        let mut lazy = LazyMailbox::vacant();
        assert!(lazy.is_empty());
        assert_eq!(lazy.len(), 0);
        assert!(lazy.as_ref().is_none());

        lazy.materialize_from(&mut pool).enqueue(Event::new(B));
        assert!(!lazy.is_empty());
        assert_eq!(lazy.len(), 1);
        assert!(lazy.as_ref().is_some());
    }

    #[test]
    fn lazy_mailbox_prefers_the_pooled_queue() {
        let mut seeded = Mailbox::new();
        seeded.enqueue(Event::new(B));
        seeded.clear();
        let mut pool = vec![seeded];
        let mut lazy = LazyMailbox::vacant();
        lazy.materialize_from(&mut pool);
        assert!(pool.is_empty(), "the pooled queue was taken");

        // Releasing hands the (cleared) queue back for the next slot.
        lazy.materialize_from(&mut pool).enqueue(Event::new(A(1)));
        lazy.release_into(&mut pool);
        assert_eq!(pool.len(), 1);
        assert!(pool[0].is_empty());
        assert!(lazy.as_ref().is_none());
        // Releasing a vacant slot is a no-op.
        lazy.release_into(&mut pool);
        assert_eq!(pool.len(), 1);
    }
}
