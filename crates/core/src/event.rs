//! Events exchanged between machines.
//!
//! A [`Event`] is a named, dynamically typed payload. Machines communicate
//! exclusively by sending events to each other's mailboxes; monitors observe
//! events that machines explicitly publish to them. The dynamic typing mirrors
//! the P# programming model where any event type can be delivered to any
//! machine, and the machine decides how (or whether) to handle it.
//!
//! An event's name is read, not made: the event keeps the payload type's
//! [`std::any::type_name`] as the compiler hands it over, and
//! [`Event::name`] cuts the module path when somebody asks for it. Creating
//! an event never looks at a string.

use std::any::Any;
use std::fmt;

/// Payload trait implemented by every concrete event type.
///
/// This is a blanket-implemented marker trait: any `'static + Send + Sync +
/// Debug` type can be used as an event payload. Implementors do not need to
/// do anything beyond deriving [`Debug`]. (`Sync` is required so that
/// runtime snapshots — which carry queued events for copy-on-write forks —
/// can be shared across the worker threads of the parallel engines.)
///
/// # Examples
///
/// ```
/// use psharp::event::Event;
///
/// #[derive(Debug)]
/// struct Ping(u32);
///
/// let event = Event::new(Ping(7));
/// assert!(event.is::<Ping>());
/// assert_eq!(event.downcast_ref::<Ping>().unwrap().0, 7);
/// ```
pub trait EventPayload: Any + Send + Sync + fmt::Debug {
    /// Returns `self` as a `&dyn Any` so the payload can be downcast.
    fn as_any(&self) -> &dyn Any;
    /// Returns `self` as a boxed `Any` so the payload can be consumed.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any + Send + Sync + fmt::Debug> EventPayload for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A named, dynamically typed message delivered to a machine or monitor.
///
/// Events carry the type name of their payload; [`Event::name`] shortens it
/// for traces and bug reports, so that a schedule can be read as a sequence
/// of human-meaningful steps (`ClientReq`, `Timeout`, `SyncReport`, ...).
pub struct Event {
    /// `std::any::type_name` of the payload, module path and all.
    type_name: &'static str,
    payload: Box<dyn EventPayload>,
    /// Monomorphized copy constructor, present only for events created with
    /// [`Event::replicable`]. Fault injection can only duplicate messages
    /// that opted into replication this way.
    duplicate: Option<fn(&Event) -> Event>,
}

impl Event {
    /// Wraps a payload value into an event.
    ///
    /// The event is named after the payload's type; see [`Event::name`].
    pub fn new<T: EventPayload>(payload: T) -> Self {
        Event {
            type_name: std::any::type_name::<T>(),
            payload: Box::new(payload),
            duplicate: None,
        }
    }

    /// Wraps a cloneable payload into an event that fault injection may
    /// *duplicate* (re-deliver a copy of). Use this constructor for messages
    /// sent over channels a harness marks lossy
    /// ([`Runtime::mark_lossy`](crate::runtime::Runtime::mark_lossy)), so
    /// the scheduler can explore at-least-once delivery; plain
    /// [`Event::new`] events on a lossy channel can still be dropped, just
    /// not duplicated.
    pub fn replicable<T: EventPayload + Clone>(payload: T) -> Self {
        fn duplicate_impl<T: EventPayload + Clone>(event: &Event) -> Event {
            Event::replicable(
                event
                    .downcast_ref::<T>()
                    .expect("duplicate constructor matches the payload type")
                    .clone(),
            )
        }
        Event {
            type_name: std::any::type_name::<T>(),
            payload: Box::new(payload),
            duplicate: Some(duplicate_impl::<T>),
        }
    }

    /// Returns `true` when this event was created with [`Event::replicable`]
    /// and can therefore be duplicated by fault injection.
    pub fn can_duplicate(&self) -> bool {
        self.duplicate.is_some()
    }

    /// Clones the event, if it is replicable.
    pub fn duplicate(&self) -> Option<Event> {
        self.duplicate.map(|dup| dup(self))
    }

    /// The short type name of the payload: its type name with the module
    /// path cut (type arguments keep theirs: `Wrapper<b::Payload>`). Not
    /// stored: each call is one pass over the type name.
    pub fn name(&self) -> &'static str {
        strip_module_path(self.type_name)
    }

    /// The payload's type name as stored, for a caller that may never need
    /// the short form (the runtime's step loop).
    pub(crate) fn type_name(&self) -> &'static str {
        self.type_name
    }

    /// Returns `true` when the payload is of type `T`.
    pub fn is<T: Any>(&self) -> bool {
        // Dispatch through the trait object explicitly: the blanket
        // `EventPayload` impl also covers `Box<dyn EventPayload>` itself, and
        // plain method syntax would resolve to the box rather than the payload.
        EventPayload::as_any(&*self.payload).is::<T>()
    }

    /// Borrows the payload as `T`, if it has that type.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        EventPayload::as_any(&*self.payload).downcast_ref::<T>()
    }

    /// Consumes the event and returns the payload as `T`.
    ///
    /// # Errors
    ///
    /// Returns the original event unchanged when the payload is not a `T`.
    pub fn downcast<T: Any>(self) -> Result<T, Event> {
        if self.is::<T>() {
            let any = EventPayload::into_any(self.payload);
            Ok(*any.downcast::<T>().expect("type checked above"))
        } else {
            Err(self)
        }
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Event({:?})", self.payload)
    }
}

/// Returns the type name of `T` with its module path removed.
pub(crate) fn short_type_name<T: ?Sized>() -> &'static str {
    strip_module_path(std::any::type_name::<T>())
}

/// Cuts the module path of the *outermost* type in a type name: everything
/// up to the last `:` before the type's arguments (or other structure)
/// begin. One pass over the bytes, and the result is a suffix of the input,
/// so nothing allocates; `"a::Wrapper<b::Payload>"` gives
/// `"Wrapper<b::Payload>"`, and a tuple, reference or slice name comes back
/// whole.
pub(crate) fn strip_module_path(full: &str) -> &str {
    #[cfg(test)]
    STRIPS.set(STRIPS.get() + 1);
    let mut start = 0;
    for (at, &byte) in full.as_bytes().iter().enumerate() {
        match byte {
            b':' => start = at + 1,
            b'<' | b'(' | b'[' | b'&' | b'*' | b' ' => break,
            _ => {}
        }
    }
    &full[start..]
}

#[cfg(test)]
thread_local! {
    /// Calls of [`strip_module_path`] made on this thread: the exact gate
    /// that exploration never shortens a name.
    static STRIPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Calls of [`strip_module_path`] made on this thread so far.
#[cfg(test)]
pub(crate) fn strips() -> u64 {
    STRIPS.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u32);

    #[derive(Debug)]
    struct Pong;

    #[test]
    fn event_name_strips_module_path() {
        let e = Event::new(Ping(1));
        assert_eq!(e.name(), "Ping");
    }

    #[test]
    fn only_the_outermost_path_is_cut() {
        for (full, short) in [
            ("a::b::Token", "Token"),
            ("Token", "Token"),
            ("a::Wrapper<b::c::Payload>", "Wrapper<b::c::Payload>"),
            (
                "alloc::vec::Vec<alloc::string::String>",
                "Vec<alloc::string::String>",
            ),
            ("(u8, a::Payload)", "(u8, a::Payload)"),
            ("&a::b::Token", "&a::b::Token"),
            ("[a::Token; 3]", "[a::Token; 3]"),
            ("dyn a::Trait", "dyn a::Trait"),
            ("", ""),
        ] {
            assert_eq!(strip_module_path(full), short, "{full}");
        }

        #[derive(Debug)]
        struct Wrapper<T>(T);
        let e = Event::new(Wrapper(Ping(1)));
        assert!(
            e.name().starts_with("Wrapper<") && e.name().ends_with("::Ping>"),
            "{}",
            e.name()
        );
        assert_eq!(Event::new((1u8, Ping(1))).name().chars().next(), Some('('));
    }

    #[test]
    fn an_event_is_five_words_and_every_constructor_names_it_alike() {
        assert!(std::mem::size_of::<Event>() <= 40);
        let plain = Event::new(Payload(1));
        let replicable = Event::replicable(Payload(2));
        let copy = replicable.duplicate().expect("replicable event duplicates");
        for event in [&plain, &replicable, &copy] {
            assert_eq!(event.name(), "Payload");
            assert_eq!(event.type_name(), std::any::type_name::<Payload>());
        }
    }

    #[test]
    fn downcast_ref_matches_type() {
        let e = Event::new(Ping(42));
        assert!(e.is::<Ping>());
        assert!(!e.is::<Pong>());
        assert_eq!(e.downcast_ref::<Ping>(), Some(&Ping(42)));
        assert!(e.downcast_ref::<Pong>().is_none());
    }

    #[test]
    fn downcast_consumes_payload() {
        let e = Event::new(Ping(7));
        let p = e.downcast::<Ping>().expect("payload is a Ping");
        assert_eq!(p, Ping(7));
    }

    #[test]
    fn downcast_wrong_type_returns_event() {
        let e = Event::new(Ping(7));
        let e = e.downcast::<Pong>().expect_err("payload is not a Pong");
        assert_eq!(e.name(), "Ping");
    }

    #[test]
    fn debug_is_nonempty() {
        let e = Event::new(Ping(3));
        let s = format!("{e:?}");
        assert!(s.contains("Ping"));
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Payload(u32);

    #[test]
    fn replicable_events_can_be_duplicated() {
        let e = Event::replicable(Payload(9));
        assert!(e.can_duplicate());
        assert_eq!(e.name(), "Payload");
        let copy = e.duplicate().expect("replicable event duplicates");
        assert_eq!(copy.downcast_ref::<Payload>(), Some(&Payload(9)));
        assert!(copy.can_duplicate(), "the copy stays replicable");
    }

    #[test]
    fn plain_events_cannot_be_duplicated() {
        let e = Event::new(Ping(1));
        assert!(!e.can_duplicate());
        assert!(e.duplicate().is_none());
    }
}
