//! A tracing [`Layer`]: records every message an endpoint sends or
//! receives, in order, with full session context.
//!
//! Useful for debugging interleaved sessions ("which session did that
//! frame belong to?") and for asserting on communication patterns in
//! tests without counting bytes by hand.

use chorus_core::sync::Mutex;
use chorus_core::{Layer, MessageCtx, SessionId};

/// Whether a traced message was sent or received by this endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// The endpoint sent the message.
    Send,
    /// The endpoint received the message.
    Receive,
}

/// One traced message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Send or receive, from this endpoint's perspective.
    pub direction: Direction,
    /// The session the message belonged to.
    pub session: SessionId,
    /// The message's per-(session, edge) sequence number.
    pub seq: u64,
    /// Name of the sending location.
    pub from: String,
    /// Name of the receiving location.
    pub to: String,
    /// Payload size in bytes.
    pub bytes: usize,
}

/// A [`Layer`] recording an ordered log of [`TraceEvent`]s.
///
/// Install one per endpoint (or share one `Arc` across endpoints to get
/// a global interleaving as observed by layer hooks).
#[derive(Debug, Default)]
pub struct Trace {
    events: Mutex<Vec<TraceEvent>>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy of all events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Events belonging to one session, in recording order.
    pub fn session_events(&self, session: SessionId) -> Vec<TraceEvent> {
        self.events.lock().iter().filter(|e| e.session == session).cloned().collect()
    }

    /// Clears the log.
    pub fn clear(&self) {
        self.events.lock().clear();
    }

    fn record(&self, direction: Direction, ctx: &MessageCtx<'_>, payload: &[u8]) {
        self.events.lock().push(TraceEvent {
            direction,
            session: ctx.session,
            seq: ctx.seq,
            from: ctx.from.to_string(),
            to: ctx.to.to_string(),
            bytes: payload.len(),
        });
    }
}

impl Layer for Trace {
    fn on_send(&self, ctx: &MessageCtx<'_>, payload: &[u8]) {
        self.record(Direction::Send, ctx, payload);
    }

    fn on_receive(&self, ctx: &MessageCtx<'_>, payload: &[u8]) {
        self.record(Direction::Receive, ctx, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalTransport, LocalTransportChannel};
    use chorus_core::Endpoint;
    use std::sync::Arc;

    chorus_core::locations! { Alice, Bob }
    type System = chorus_core::LocationSet!(Alice, Bob);

    #[test]
    fn records_sends_and_receives_with_session_context() {
        let channel = LocalTransportChannel::<System>::new();
        let trace = Arc::new(Trace::new());
        let alice = Endpoint::builder(Alice)
            .transport(LocalTransport::new(Alice, channel.clone()))
            .layer(Arc::clone(&trace))
            .build();
        let bob = Endpoint::builder(Bob)
            .transport(LocalTransport::new(Bob, channel))
            .layer(Arc::clone(&trace))
            .build();

        alice.session_with_id(5).send_bytes("Bob", b"abc").unwrap();
        bob.session_with_id(5).receive_bytes("Alice").unwrap();

        let events = trace.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].direction, Direction::Send);
        assert_eq!(events[1].direction, Direction::Receive);
        for event in &events {
            assert_eq!(event.session, 5);
            assert_eq!(event.seq, 0);
            assert_eq!(event.from, "Alice");
            assert_eq!(event.to, "Bob");
            assert_eq!(event.bytes, 3);
        }
        assert_eq!(trace.session_events(5).len(), 2);
        assert!(trace.session_events(6).is_empty());
        trace.clear();
        assert!(trace.is_empty());
    }
}
