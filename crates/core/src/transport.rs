//! The transport abstraction.
//!
//! Choreographies are transport-agnostic (§2.1): "a single choreography can
//! be executed as either a protocol in which machines communicate using
//! HTTPS or as a protocol in which threads on a single machine communicate
//! using sockets". A [`Transport`] is one endpoint's connection to the rest
//! of the system; concrete implementations (in-process channels, TCP,
//! instrumented wrappers) live in the `chorus-transport` crate.

use crate::location::{ChoreographyLocation, LocationSet};
use std::fmt;

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
    /// The names of every location this transport can reach (including
    /// `Target` itself).
    fn locations(&self) -> Vec<&'static str> {
        L::names()
    }

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

/// A readiness callback registered on a per-(session, sender) mailbox.
///
/// The pooled session runtime parks *sessions*, not threads: when a
/// receive would block, the runtime registers one of these on the
/// mailbox and moves on to other runnable sessions. The transport fires
/// the waker — at most once per registration — when the mailbox gains a
/// frame or the link enters an error state (dead, poisoned, peer hung
/// up), re-enqueueing exactly the session that became runnable.
///
/// Wakers must be cheap and non-blocking: transports may invoke them
/// from a sender's thread with no locks held, and a *spurious* wake
/// (the frame was consumed by the time the session runs) must be
/// harmless to the registrant.
///
/// Transports that deliver frames in batches fire each waker once per
/// *drain*, not once per frame: a burst of frames for one mailbox costs
/// one wake, and only mailboxes that actually received a frame (or hit
/// an error) are woken.
pub type MailboxWaker = std::sync::Arc<dyn Fn() + Send + Sync>;

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
    /// Whether a blocking [`receive_frame`](Self::receive_frame) re-polls
    /// through a bounded spin and yield before it parks: worth it where
    /// a peer's reply usually lands within a microsecond (in-process
    /// links), wasted CPU where it takes a socket or a simulated network.
    const SPIN_BEFORE_PARK: bool = false;

    /// The names of every location this transport can reach (including
    /// `Target` itself).
    fn locations(&self) -> Vec<&'static str> {
        L::names()
    }

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
    /// loop over [`try_receive_frame`](Self::try_receive_frame) and
    /// [`register_waker`](Self::register_waker), described in
    /// [`park`](crate::park).
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

    /// Pops the next frame of `session` from the location named `from`
    /// if one is already deliverable, **without blocking**.
    ///
    /// Returns `Ok(None)` when the mailbox is merely empty. This is the
    /// receive path the pooled session runtime drives: a session that
    /// sees `None` yields its pool thread (after registering a
    /// [`MailboxWaker`]) instead of parking it.
    ///
    /// # Errors
    ///
    /// Returns an error if `from` is unknown or the link has failed —
    /// the errors [`receive_frame`](Self::receive_frame) passes on.
    fn try_receive_frame(
        &self,
        session: SessionId,
        from: &str,
    ) -> Result<Option<chorus_wire::Envelope>, TransportError>;

    /// Registers `waker` to fire when a frame of `session` from `from`
    /// becomes deliverable (or the link fails).
    ///
    /// Returns `Ok(true)` if the mailbox is *already* ready — a frame is
    /// queued, or the link is in an error state — in which case the
    /// waker is **not** stored and the caller should immediately retry
    /// [`try_receive_frame`](Self::try_receive_frame). Returns
    /// `Ok(false)` if the waker was parked on the mailbox. The
    /// ready-check and the registration happen under the mailbox lock,
    /// so a deposit can never slip between them (no lost wakeups).
    ///
    /// At most one waker is held per (session, sender) mailbox; a new
    /// registration replaces the previous one. Registered wakers fire at
    /// most once and are dropped after firing — re-register on every
    /// would-block receive.
    ///
    /// # Errors
    ///
    /// Returns an error if `from` is unknown or the transport cannot
    /// provide readiness notifications.
    fn register_waker(
        &self,
        session: SessionId,
        from: &str,
        waker: MailboxWaker,
    ) -> Result<bool, TransportError>;

    /// Tells the transport this endpoint is done with `session`: every
    /// inbound link drops the session's mailbox, if it is drained, and
    /// its parked waker.
    ///
    /// [`Session`](crate::Session) calls this when it is dropped, and the
    /// pooled runtime when a task resolves. A frame that arrives later
    /// for the closed session is dropped unless it opens a new run of
    /// the id (seq 0).
    fn close_session(&self, session: SessionId);
}

/// A census's names, resolved once so hot paths can validate and
/// intern location names without allocating or re-materializing
/// `L::names()` (a fresh `Vec`) per message.
///
/// Sessions and every transport in the workspace keep one of these;
/// the `&'static str` it hands back is the key used for sequence
/// tracking and mailbox routing.
#[derive(Debug, Clone)]
pub struct InternedNames(Vec<&'static str>);

impl InternedNames {
    /// Resolves the census `L` once.
    pub fn of<L: LocationSet>() -> Self {
        InternedNames(L::names())
    }

    /// Resolves `name` to its interned census entry.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::UnknownLocation`] if `name` is not in
    /// the census.
    pub fn resolve(&self, name: &str) -> Result<&'static str, TransportError> {
        self.0
            .iter()
            .copied()
            .find(|n| *n == name)
            .ok_or_else(|| TransportError::UnknownLocation(name.to_string()))
    }

    /// The census names, in order, without allocating.
    pub fn iter(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().copied()
    }
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
    fn interned_names_resolve_census_members() {
        let names = InternedNames::of::<Census>();
        assert_eq!(names.resolve("Alpha").unwrap(), "Alpha");
        assert_eq!(names.resolve("Beta").unwrap(), "Beta");
        assert_eq!(names.iter().collect::<Vec<_>>(), ["Alpha", "Beta"]);
    }

    #[test]
    fn interned_names_reject_unknown_names_usefully() {
        let names = InternedNames::of::<Census>();
        let err = names.resolve("Mallory").unwrap_err();
        match &err {
            TransportError::UnknownLocation(name) => assert_eq!(name, "Mallory"),
            other => panic!("expected UnknownLocation, got {other:?}"),
        }
        // The display names the offending census name, so a typo in a
        // choreography points straight at itself.
        assert!(err.to_string().contains("unknown location Mallory"), "got: {err}");
    }
}
