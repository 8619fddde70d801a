//! In-process transport: participants are threads, links are in-memory
//! queues, and every link demultiplexes concurrent sessions.
//!
//! Frames stay *structured* end to end: a sent [`Envelope`] is
//! sequence-checked and deposited directly into its per-session
//! mailbox — no encode-to-bytes / decode-from-bytes round trip ever
//! happens in-process, and the payload the receiver observes is the
//! very buffer the sender serialized (shared, not copied).

use crate::mailboxes::Mailboxes;
use chorus_core::sync::Mutex;
use chorus_core::{
    locate, park, ChoreographyLocation, LocationSet, SessionId, SessionTransport, Transport,
    TransportError, RAW_SESSION,
};
use chorus_wire::Envelope;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// One directed link's state: its receive side, which senders deposit
/// into directly.
type LinkState = Mutex<Mailboxes>;

/// The shared fabric connecting every pair of locations in `L`.
///
/// Create one channel, clone it into each participant's thread, and wrap
/// each clone in a [`LocalTransport`]. One fabric carries any number of
/// concurrent sessions.
///
/// # Examples
///
/// ```
/// use chorus_transport::{LocalTransport, LocalTransportChannel};
///
/// chorus_core::locations! { Alice, Bob }
/// type System = chorus_core::LocationSet!(Alice, Bob);
///
/// let channel = LocalTransportChannel::<System>::new();
/// let for_alice = LocalTransport::new(Alice, channel.clone());
/// let for_bob = LocalTransport::new(Bob, channel);
/// # let _ = (for_alice, for_bob);
/// ```
pub struct LocalTransportChannel<L: LocationSet> {
    /// The link from the location at census position `from` to the one
    /// at `to` is entry `from * L::LENGTH + to`; entries with
    /// `from == to` are never used.
    links: Arc<[LinkState]>,
    system: PhantomData<L>,
}

impl<L: LocationSet> Clone for LocalTransportChannel<L> {
    fn clone(&self) -> Self {
        LocalTransportChannel { links: Arc::clone(&self.links), system: PhantomData }
    }
}

impl<L: LocationSet> LocalTransportChannel<L> {
    /// Creates a fabric with an unbounded FIFO link for every ordered pair
    /// of distinct locations in `L`.
    pub fn new() -> Self {
        let links = (0..L::LENGTH * L::LENGTH).map(|_| LinkState::default()).collect();
        LocalTransportChannel { links, system: PhantomData }
    }

    /// The link from census position `from` to `to`, if they differ.
    fn link(&self, from: usize, to: usize) -> Option<&LinkState> {
        (from != to).then(|| &self.links[from * L::LENGTH + to])
    }
}

impl<L: LocationSet> Default for LocalTransportChannel<L> {
    fn default() -> Self {
        Self::new()
    }
}

/// One participant's endpoint of a [`LocalTransportChannel`].
pub struct LocalTransport<L: LocationSet, Target: ChoreographyLocation> {
    channel: LocalTransportChannel<L>,
    /// Sequence counters for the raw (sessionless) compatibility path.
    raw_seqs: Mutex<HashMap<&'static str, u64>>,
    target: PhantomData<Target>,
}

impl<L: LocationSet, Target: ChoreographyLocation> LocalTransport<L, Target> {
    /// Creates `target`'s endpoint over the shared fabric.
    pub fn new(target: Target, channel: LocalTransportChannel<L>) -> Self {
        let _ = target;
        LocalTransport { channel, raw_seqs: Mutex::new(HashMap::new()), target: PhantomData }
    }

    /// The link between this endpoint and `peer`, outbound or inbound:
    /// unknown unless `peer` is in the census and is not `Target`.
    fn link(&self, peer: &str, outbound: bool) -> Result<&LinkState, TransportError> {
        let unknown = || TransportError::UnknownLocation(peer.to_string());
        let (peer, _) = locate::<L>(peer)?;
        let me = L::position(Target::NAME).ok_or_else(unknown)?;
        let (from, to) = if outbound { (me, peer) } else { (peer, me) };
        self.channel.link(from, to).ok_or_else(unknown)
    }
}

impl<L: LocationSet, Target: ChoreographyLocation> SessionTransport<L, Target>
    for LocalTransport<L, Target>
{
    fn send_frame(&self, to: &str, frame: Envelope) -> Result<(), TransportError> {
        let mut boxes = self.link(to, true)?.lock();
        // Sequence-check and demultiplex at the sender, under the link
        // lock: frames land in their session mailbox fully structured,
        // sharing the sender's payload buffer. A violation fails the
        // link for every receiver. (The send itself still reports `Ok`;
        // the error surfaces at the receivers.)
        let (fired, all_fired) = match boxes.deposit(Target::NAME, frame) {
            Ok(waker) => (waker, Vec::new()),
            Err(reason) => (None, boxes.fail(reason)),
        };
        drop(boxes);
        fired.into_iter().chain(all_fired).for_each(Waker::wake);
        Ok(())
    }

    fn poll_receive_frame(
        &self,
        session: SessionId,
        from: &str,
        cx: &mut Context<'_>,
    ) -> Poll<Result<Envelope, TransportError>> {
        self.link(from, false)?.lock().poll(session, cx.waker())
    }

    /// In-process peers usually answer within a microsecond: a bounded
    /// yield hands the sender the core before the receiver parks.
    fn poll_receive_blocking(
        &self,
        session: SessionId,
        from: &str,
        cx: &mut Context<'_>,
        _deadline: Instant,
    ) -> Poll<Result<Envelope, TransportError>> {
        let noop = &mut Context::from_waker(Waker::noop());
        if let ready @ Poll::Ready(_) =
            park::poll_before_park(|| self.poll_receive_frame(session, from, noop))
        {
            return ready;
        }
        self.poll_receive_frame(session, from, cx)
    }

    fn close_session(&self, session: SessionId) {
        let Some(me) = L::position(Target::NAME) else { return };
        for from in 0..L::LENGTH {
            if let Some(link) = self.channel.link(from, me) {
                link.lock().close(session);
            }
        }
    }
}

impl<L: LocationSet, Target: ChoreographyLocation> Transport<L, Target>
    for LocalTransport<L, Target>
{
    fn send(&self, to: &str, data: &[u8]) -> Result<(), TransportError> {
        let seq = {
            let (_, to_static) = locate::<L>(to)?;
            let mut seqs = self.raw_seqs.lock();
            let counter = seqs.entry(to_static).or_insert(0);
            let seq = *counter;
            *counter += 1;
            seq
        };
        self.send_frame(to, Envelope::new(RAW_SESSION, seq, data))
    }

    fn receive(&self, from: &str) -> Result<Vec<u8>, TransportError> {
        self.receive_frame(RAW_SESSION, from).map(|envelope| envelope.payload.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    chorus_core::locations! { Alice, Bob }
    type System = chorus_core::LocationSet!(Alice, Bob);

    #[test]
    fn send_and_receive_preserve_fifo_order() {
        let channel = LocalTransportChannel::<System>::new();
        let alice = LocalTransport::new(Alice, channel.clone());
        let bob = LocalTransport::new(Bob, channel);
        alice.send("Bob", b"one").unwrap();
        alice.send("Bob", b"two").unwrap();
        assert_eq!(bob.receive("Alice").unwrap(), b"one");
        assert_eq!(bob.receive("Alice").unwrap(), b"two");
    }

    #[test]
    fn unknown_locations_are_rejected() {
        let channel = LocalTransportChannel::<System>::new();
        let alice = LocalTransport::new(Alice, channel);
        assert!(matches!(alice.send("Nobody", b"x"), Err(TransportError::UnknownLocation(_))));
        assert!(matches!(alice.receive("Nobody"), Err(TransportError::UnknownLocation(_))));
    }

    #[test]
    fn links_are_directional() {
        let channel = LocalTransportChannel::<System>::new();
        let alice = LocalTransport::new(Alice, channel.clone());
        let bob = LocalTransport::new(Bob, channel);
        alice.send("Bob", b"ping").unwrap();
        // Bob's message to Alice does not interfere with Alice's to Bob.
        bob.send("Alice", b"pong").unwrap();
        assert_eq!(bob.receive("Alice").unwrap(), b"ping");
        assert_eq!(alice.receive("Bob").unwrap(), b"pong");
    }

    #[test]
    fn sessions_demultiplex_on_one_link() {
        let channel = LocalTransportChannel::<System>::new();
        let alice = LocalTransport::new(Alice, channel.clone());
        let bob = LocalTransport::new(Bob, channel);
        // Interleave two sessions on the same directed link.
        alice.send_frame("Bob", Envelope::new(1, 0, b"s1-first".to_vec())).unwrap();
        alice.send_frame("Bob", Envelope::new(2, 0, b"s2-first".to_vec())).unwrap();
        alice.send_frame("Bob", Envelope::new(1, 1, b"s1-second".to_vec())).unwrap();
        // Reading session 2 first must not disturb session 1's order.
        assert_eq!(bob.receive_frame(2, "Alice").unwrap().payload, b"s2-first");
        assert_eq!(bob.receive_frame(1, "Alice").unwrap().payload, b"s1-first");
        assert_eq!(bob.receive_frame(1, "Alice").unwrap().payload, b"s1-second");
    }

    #[test]
    fn out_of_order_frames_are_rejected() {
        let channel = LocalTransportChannel::<System>::new();
        let alice = LocalTransport::new(Alice, channel.clone());
        let bob = LocalTransport::new(Bob, channel);
        alice.send_frame("Bob", Envelope::new(1, 0, b"ok".to_vec())).unwrap();
        alice.send_frame("Bob", Envelope::new(1, 2, b"gap".to_vec())).unwrap();
        assert_eq!(bob.receive_frame(1, "Alice").unwrap().payload, b"ok");
        assert!(matches!(bob.receive_frame(1, "Alice"), Err(TransportError::Protocol(_))));
    }

    #[test]
    fn frames_sent_after_a_poison_are_withheld() {
        let channel = LocalTransportChannel::<System>::new();
        let alice = LocalTransport::new(Alice, channel.clone());
        let bob = LocalTransport::new(Bob, channel);
        alice.send_frame("Bob", Envelope::new(1, 0, b"ok".to_vec())).unwrap();
        // Poison the link with a sequence gap in session 1...
        alice.send_frame("Bob", Envelope::new(1, 2, b"gap".to_vec())).unwrap();
        // ...then send a perfectly valid frame in session 2: it must be
        // withheld, so *every* session on the link observes the error.
        alice.send_frame("Bob", Envelope::new(2, 0, b"late".to_vec())).unwrap();
        assert_eq!(bob.receive_frame(1, "Alice").unwrap().payload, b"ok");
        assert!(matches!(bob.receive_frame(2, "Alice"), Err(TransportError::Protocol(_))));
    }
}
