//! Message accounting: the measurement substrate for every
//! communication-efficiency experiment.
//!
//! [`TransportMetrics`] is a [`Layer`]: install it on an
//! [`Endpoint`](chorus_core::Endpoint) at build time and it counts every
//! message and byte each session sends, per directed edge. It replaces
//! the old `InstrumentedTransport` wrapper — same counters, but
//! composable with other layers and shared by all sessions of an
//! endpoint.
//!
//! Only *sends* are recorded, so sharing one `TransportMetrics` across
//! all endpoints counts each message exactly once.

use chorus_core::sync::Mutex;
use chorus_core::{Layer, MessageCtx};
use std::collections::BTreeMap;

/// Counters for one directed edge of the system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeMetrics {
    /// Number of messages sent along this edge.
    pub messages: u64,
    /// Total payload bytes sent along this edge.
    pub bytes: u64,
}

/// Shared counters, typically one `Arc` installed as a layer on every
/// participant's endpoint:
///
/// ```ignore
/// let metrics = Arc::new(TransportMetrics::new());
/// let endpoint = Endpoint::builder(Alice)
///     .transport(transport)
///     .layer(Arc::clone(&metrics))
///     .build();
/// ```
#[derive(Debug, Default)]
pub struct TransportMetrics {
    /// Counters by sender, then by receiver: both levels are found by
    /// `&str`, so a send allocates only the first time its edge is seen.
    edges: Mutex<BTreeMap<String, BTreeMap<String, EdgeMetrics>>>,
}

/// A point-in-time copy of the counters.
pub type MetricsSnapshot = BTreeMap<(String, String), EdgeMetrics>;

impl TransportMetrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    fn record_send(&self, from: &str, to: &str, bytes: usize) {
        let mut edges = self.edges.lock();
        let receivers = match edges.get_mut(from) {
            Some(receivers) => receivers,
            None => edges.entry(from.to_string()).or_default(),
        };
        let entry = match receivers.get_mut(to) {
            Some(entry) => entry,
            None => receivers.entry(to.to_string()).or_default(),
        };
        entry.messages += 1;
        entry.bytes += bytes as u64;
    }

    /// Every edge's counters, in `(from, to)` order, under the lock.
    fn fold<A>(&self, init: A, mut f: impl FnMut(A, (&str, &str), &EdgeMetrics) -> A) -> A {
        let edges = self.edges.lock();
        let mut acc = init;
        for (from, receivers) in edges.iter() {
            for (to, edge) in receivers {
                acc = f(acc, (from, to), edge);
            }
        }
        acc
    }

    /// Returns a copy of the per-edge counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.fold(MetricsSnapshot::new(), |mut snapshot, (from, to), edge| {
            snapshot.insert((from.to_string(), to.to_string()), *edge);
            snapshot
        })
    }

    /// Total messages sent across all edges.
    pub fn total_messages(&self) -> u64 {
        self.fold(0, |sum, _, edge| sum + edge.messages)
    }

    /// Total payload bytes sent across all edges.
    pub fn total_bytes(&self) -> u64 {
        self.fold(0, |sum, _, edge| sum + edge.bytes)
    }

    /// Messages received by (i.e. addressed to) `location`.
    pub fn messages_to(&self, location: &str) -> u64 {
        self.fold(0, |sum, (_, to), edge| sum + if to == location { edge.messages } else { 0 })
    }

    /// Messages sent by `location`.
    pub fn messages_from(&self, location: &str) -> u64 {
        self.fold(0, |sum, (from, _), edge| sum + if from == location { edge.messages } else { 0 })
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.edges.lock().clear();
    }
}

impl Layer for TransportMetrics {
    fn on_send(&self, ctx: &MessageCtx<'_>, payload: &[u8]) {
        self.record_send(ctx.from, ctx.to, payload.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalTransport, LocalTransportChannel};
    use chorus_core::Endpoint;
    use std::sync::Arc;

    chorus_core::locations! { Alice, Bob, Carol }
    type System = chorus_core::LocationSet!(Alice, Bob, Carol);

    fn setup() -> (
        Endpoint<System, Alice, LocalTransport<System, Alice>>,
        Endpoint<System, Bob, LocalTransport<System, Bob>>,
        Arc<TransportMetrics>,
    ) {
        let channel = LocalTransportChannel::<System>::new();
        let metrics = Arc::new(TransportMetrics::new());
        let alice = Endpoint::builder(Alice)
            .transport(LocalTransport::new(Alice, channel.clone()))
            .layer(Arc::clone(&metrics))
            .build();
        let bob = Endpoint::builder(Bob)
            .transport(LocalTransport::new(Bob, channel))
            .layer(Arc::clone(&metrics))
            .build();
        (alice, bob, metrics)
    }

    #[test]
    fn sends_are_counted_once_per_message() {
        let (alice, bob, metrics) = setup();
        let alice_session = alice.session_with_id(9);
        let bob_session = bob.session_with_id(9);
        alice_session.send_bytes("Bob", b"abcd").unwrap();
        alice_session.send_bytes("Carol", b"xy").unwrap();
        bob_session.receive_bytes("Alice").unwrap();
        assert_eq!(metrics.total_messages(), 2);
        assert_eq!(metrics.total_bytes(), 6);
        assert_eq!(metrics.messages_from("Alice"), 2);
        assert_eq!(metrics.messages_to("Bob"), 1);
        assert_eq!(metrics.messages_to("Carol"), 1);
        assert_eq!(metrics.messages_to("Alice"), 0);
    }

    #[test]
    fn snapshot_reports_per_edge_counters() {
        let (alice, _bob, metrics) = setup();
        let session = alice.session();
        session.send_bytes("Bob", b"123").unwrap();
        session.send_bytes("Bob", b"45").unwrap();
        let snap = metrics.snapshot();
        let edge = snap[&("Alice".to_string(), "Bob".to_string())];
        assert_eq!(edge, EdgeMetrics { messages: 2, bytes: 5 });
    }

    #[test]
    fn reset_zeroes_counters() {
        let (alice, _bob, metrics) = setup();
        alice.session().send_bytes("Bob", b"123").unwrap();
        metrics.reset();
        assert_eq!(metrics.total_messages(), 0);
        assert_eq!(metrics.total_bytes(), 0);
    }

    #[test]
    fn concurrent_sessions_share_the_counters() {
        let (alice, _bob, metrics) = setup();
        let s1 = alice.session();
        let s2 = alice.session();
        s1.send_bytes("Bob", b"a").unwrap();
        s2.send_bytes("Bob", b"bc").unwrap();
        let snap = metrics.snapshot();
        let edge = snap[&("Alice".to_string(), "Bob".to_string())];
        assert_eq!(edge, EdgeMetrics { messages: 2, bytes: 3 });
    }
}
