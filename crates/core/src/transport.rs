//! The transport abstraction.
//!
//! Choreographies are transport-agnostic (§2.1): "a single choreography can
//! be executed as either a protocol in which machines communicate using
//! HTTPS or as a protocol in which threads on a single machine communicate
//! using sockets". A [`Transport`] is one endpoint's connection to the rest
//! of the system; concrete implementations (in-process channels, TCP,
//! instrumented wrappers) live in the `chorus-transport` crate.
//!
//! A [`SessionTransport`] implements three methods: `send_frame`,
//! `poll_receive_frame` and `close_session`. The receive is a poll over
//! [`std::task::Waker`], the one thing endpoint projection needs from a
//! transport: a receive that can suspend. The blocking `receive_frame`
//! is derived from it once, in [`park`](crate::park), and the pooled
//! runtime polls it with each task's waker.

use crate::location::{ChoreographyLocation, LocationSet};
use std::fmt;
use std::task::{Context, Poll};
use std::time::Instant;

/// Errors a transport can report.
#[derive(Debug)]
#[non_exhaustive]
pub enum TransportError {
    /// The peer's endpoint hung up or was never reachable.
    ConnectionClosed {
        /// The peer whose connection failed.
        peer: String,
    },
    /// A message named a location the transport does not know.
    UnknownLocation(String),
    /// An I/O failure in a socket-backed transport.
    Io(std::io::Error),
    /// A payload failed to encode or decode.
    Codec(chorus_wire::WireError),
    /// A peer violated the session protocol (e.g. a frame arrived out of
    /// sequence within one session).
    Protocol(String),
    /// A resilient link exhausted its reconnect budget and gave up.
    ///
    /// Unlike [`TransportError::ConnectionClosed`] — one connection
    /// ended — this means the link *supervisor* tried to re-establish
    /// the connection `attempts` times over `elapsed` and the peer never
    /// came back. Sessions see this instead of hanging on a dead edge.
    LinkDown {
        /// The failing edge, as `"sender->receiver"` location names.
        edge: String,
        /// Wall-clock time spent retrying before giving up.
        elapsed: std::time::Duration,
        /// Number of connection attempts made.
        attempts: u32,
    },
    /// A TCP link's retention queue reached its configured watermark
    /// and could not drain.
    ///
    /// The sender parked at the watermark waiting for the peer's acks
    /// to prune the queue, but the link resolved down (or the watchdog
    /// expired) first. Holding more frames for a peer that is not
    /// acknowledging would only hoard memory — this is the bound that
    /// keeps a dead peer from OOMing its senders.
    RetentionExceeded {
        /// The stalled edge, as `"sender->receiver"` location names.
        edge: String,
        /// Bytes retained for the peer when the sender gave up.
        retained_bytes: usize,
        /// The configured watermark (`TcpConfigBuilder::retain_max`).
        limit: usize,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::ConnectionClosed { peer } => {
                write!(f, "connection to {peer} closed")
            }
            TransportError::UnknownLocation(name) => {
                write!(f, "unknown location {name}")
            }
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Codec(e) => write!(f, "payload codec error: {e}"),
            TransportError::Protocol(msg) => write!(f, "session protocol violation: {msg}"),
            TransportError::LinkDown { edge, elapsed, attempts } => write!(
                f,
                "link {edge} is down: gave up after {attempts} connection attempts over {}ms",
                elapsed.as_millis()
            ),
            TransportError::RetentionExceeded { edge, retained_bytes, limit } => write!(
                f,
                "link {edge} retention watermark exceeded: {retained_bytes} bytes retained \
                 (limit {limit}) with the peer not acknowledging"
            ),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<chorus_wire::WireError> for TransportError {
    fn from(e: chorus_wire::WireError) -> Self {
        TransportError::Codec(e)
    }
}

/// One endpoint's view of the network: `Target`'s mailbox and outgoing
/// links within the system census `L`.
///
/// Implementations must provide reliable, order-preserving, per-sender
/// FIFO delivery — the guarantees the paper's λN model assumes (§4.1
/// "the guarantees of CP only hold in the context of reliable
/// communication").
pub trait Transport<L: LocationSet, Target: ChoreographyLocation> {
    /// Sends `data` to the location named `to`.
    ///
    /// # Errors
    ///
    /// Returns an error if `to` is unknown or the link fails.
    fn send(&self, to: &str, data: &[u8]) -> Result<(), TransportError>;

    /// Blocks until a message from the location named `from` arrives.
    ///
    /// # Errors
    ///
    /// Returns an error if `from` is unknown or the link fails before a
    /// message arrives.
    fn receive(&self, from: &str) -> Result<Vec<u8>, TransportError>;
}

/// Identifies one choreography run multiplexed over a shared transport.
pub type SessionId = u64;

/// The session id the raw [`Transport`] compatibility path uses on
/// session-native transports.
pub const RAW_SESSION: SessionId = SessionId::MAX;

/// A transport that carries many concurrent choreography sessions over
/// one set of links, demultiplexing incoming frames into
/// per-(session, sender) FIFO mailboxes.
///
/// Frames are [`chorus_wire::Envelope`]s: session id, per-edge sequence
/// number, payload. Implementations must preserve per-sender FIFO order
/// *within* each session — the guarantee the λN model assumes (§4.1) —
/// while letting different sessions interleave freely on the wire.
///
/// This is the transport interface [`Endpoint`](crate::Endpoint) is
/// built on; the raw [`Transport`] trait remains for single-stream,
/// unframed byte links.
pub trait SessionTransport<L: LocationSet, Target: ChoreographyLocation> {
    /// Sends one frame to the location named `to`.
    ///
    /// # Errors
    ///
    /// Returns an error if `to` is unknown or the link fails.
    fn send_frame(&self, to: &str, frame: chorus_wire::Envelope) -> Result<(), TransportError>;

    /// Blocks until a frame of `session` from the location named `from`
    /// arrives, and returns it.
    ///
    /// Frames of other sessions arriving meanwhile are queued into their
    /// own mailboxes, never dropped. Every transport shares this one
    /// loop over [`poll_receive_frame`](Self::poll_receive_frame),
    /// described in [`park`](crate::park).
    ///
    /// # Errors
    ///
    /// Returns an error if `from` is unknown, the link fails, the peer
    /// violates per-session frame ordering, or no frame arrives before
    /// the watchdog deadline ([`park::default_watchdog`](crate::park::default_watchdog)).
    fn receive_frame(
        &self,
        session: SessionId,
        from: &str,
    ) -> Result<chorus_wire::Envelope, TransportError> {
        crate::park::blocking_receive(self, session, from)
    }

    /// Pops the next frame of `session` from the location named `from`,
    /// or, if its mailbox is empty, stores `cx`'s waker on it and
    /// returns [`Poll::Pending`]. Never blocks.
    ///
    /// The pop and the store happen under the lock deposits take, so a
    /// frame can never slip in between them unnoticed: the deposit that
    /// follows a miss wakes the stored waker, once, outside the lock.
    /// A mailbox holds one waker. A miss whose waker
    /// [`will_wake`](std::task::Waker::will_wake) the stored one leaves
    /// it in place (re-polling allocates nothing); any other replaces
    /// it. A link failure wakes every waker stored on the link, and a
    /// spurious wake costs the waker's owner one more poll.
    ///
    /// Both execution models receive through this method: the blocking
    /// receive (through [`poll_receive_blocking`](Self::poll_receive_blocking))
    /// with its thread's waker, the pooled runtime with its task's.
    ///
    /// # Errors
    ///
    /// `Ready(Err(..))` if `from` is unknown or the link has failed and
    /// the session's queued frames are drained — the errors
    /// [`receive_frame`](Self::receive_frame) passes on.
    fn poll_receive_frame(
        &self,
        session: SessionId,
        from: &str,
        cx: &mut Context<'_>,
    ) -> Poll<Result<chorus_wire::Envelope, TransportError>>;

    /// One step of a blocking [`receive_frame`](Self::receive_frame):
    /// what the calling thread does before it parks. `Ready` ends the
    /// receive; `Pending` means the frame is not in, `cx`'s waker is
    /// stored where the frame's arrival takes it, and the thread parks
    /// until it is woken or `deadline` passes. Each transport picks its
    /// own wait policy here, and the default is a plain
    /// [`poll_receive_frame`](Self::poll_receive_frame): park at once.
    /// An in-process transport first yields the core
    /// ([`park::poll_before_park`](crate::park::poll_before_park)), since
    /// its frame comes from another thread of this process; a socket
    /// transport may read the socket on the calling thread, never past
    /// `deadline`.
    ///
    /// # Errors
    ///
    /// As [`poll_receive_frame`](Self::poll_receive_frame).
    fn poll_receive_blocking(
        &self,
        session: SessionId,
        from: &str,
        cx: &mut Context<'_>,
        deadline: Instant,
    ) -> Poll<Result<chorus_wire::Envelope, TransportError>> {
        let _ = deadline;
        self.poll_receive_frame(session, from, cx)
    }

    /// Tells the transport this endpoint is done with `session`: every
    /// inbound link drops the session's mailbox, if it is drained, and
    /// its stored waker.
    ///
    /// [`Session`](crate::Session) calls this when it is dropped, and the
    /// pooled runtime when a task resolves. A frame that arrives later
    /// for the closed session is dropped unless it opens a new run of
    /// the id (seq 0).
    fn close_session(&self, session: SessionId);
}

/// Resolves `name` against the census `L`: its position, which
/// indexes per-destination state, and the census's own `&'static str`
/// for it, which transports key links and mailboxes by.
///
/// One walk over the census for each of the two, and no allocation
/// unless `name` is unknown.
///
/// # Errors
///
/// Returns [`TransportError::UnknownLocation`] if `name` is not in
/// the census.
pub fn locate<L: LocationSet>(name: &str) -> Result<(usize, &'static str), TransportError> {
    L::position(name)
        .and_then(|index| Some((index, L::name_at(index)?)))
        .ok_or_else(|| TransportError::UnknownLocation(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::locations! { Alpha, Beta }
    type Census = crate::LocationSet!(Alpha, Beta);

    #[test]
    fn link_down_display_names_edge_budget_and_elapsed() {
        let err = TransportError::LinkDown {
            edge: "Alpha->Beta".into(),
            elapsed: std::time::Duration::from_millis(1500),
            attempts: 60,
        };
        let text = err.to_string();
        assert!(text.contains("Alpha->Beta"), "got: {text}");
        assert!(text.contains("60 connection attempts"), "got: {text}");
        assert!(text.contains("1500ms"), "got: {text}");
    }

    #[test]
    fn retention_exceeded_display_names_edge_and_watermark() {
        let err = TransportError::RetentionExceeded {
            edge: "Alpha->Beta".into(),
            retained_bytes: 70_000_000,
            limit: 67_108_864,
        };
        let text = err.to_string();
        assert!(text.contains("Alpha->Beta"), "got: {text}");
        assert!(text.contains("70000000"), "got: {text}");
        assert!(text.contains("67108864"), "got: {text}");
    }

    #[test]
    fn locate_resolves_census_members() {
        assert_eq!(locate::<Census>("Alpha").unwrap(), (0, "Alpha"));
        assert_eq!(locate::<Census>("Beta").unwrap(), (1, "Beta"));
    }

    #[test]
    fn locate_rejects_unknown_names_usefully() {
        let err = locate::<Census>("Mallory").unwrap_err();
        match &err {
            TransportError::UnknownLocation(name) => assert_eq!(name, "Mallory"),
            other => panic!("expected UnknownLocation, got {other:?}"),
        }
        // The display names the offending census name, so a typo in a
        // choreography points straight at itself.
        assert!(err.to_string().contains("unknown location Mallory"), "got: {err}");
    }
}
