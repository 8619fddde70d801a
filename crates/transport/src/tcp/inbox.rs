//! The receive side's shared state: one [`Mailboxes`] table per sender,
//! next to that sender's link cursor, which dedups replays and detects
//! gaps, and the connection the sender's data arrives on, which a
//! blocking receive reads.

use super::recv::Conn;
use crate::mailboxes::Mailboxes;
use chorus_core::sync::Mutex;
use chorus_core::{SessionId, TransportError};
use chorus_wire::Envelope;
use std::collections::HashMap;
use std::sync::Arc;
use std::task::{Poll, Waker};

/// What the link layer made of one deposited batch of data frames.
#[derive(Default)]
pub(super) struct BatchOutcome {
    /// Frames whose link cursor advanced (session routing ran).
    pub(super) accepted: u32,
    /// Frames dropped as already delivered on an earlier connection.
    pub(super) duplicates: u64,
    /// The cursor jumped forward: frames were genuinely lost (a
    /// receiver restart behind a live sender). The link is poisoned
    /// loudly and the rest of the batch discarded.
    pub(super) gap: bool,
    /// The link cursor after the batch: what an ack of it says.
    pub(super) cursor: u64,
}

/// The demultiplexed receive side shared by every thread that reads a
/// connection.
#[derive(Default)]
pub(super) struct Inbox {
    /// Per-sender state, keyed by interned sender names so per-frame
    /// routing allocates nothing.
    links: Mutex<HashMap<&'static str, InboundLink>>,
}

#[derive(Default)]
struct InboundLink {
    /// The next link sequence expected, persisted across connections
    /// (the heart of resumption — a reconnecting sender is told exactly
    /// where to replay from).
    cursor: u64,
    /// The sender's session mailboxes. The link fails for good on a
    /// cursor gap, a session sequence violation or an undecodable frame;
    /// a connection merely ending is no failure (the sender reconnects
    /// and resumes).
    boxes: Mailboxes,
    /// The connection the sender's data arrives on: the one it dialed
    /// or adopted, as last seen. A blocking receive of this sender's
    /// frames takes this connection's read role.
    data_conn: Option<Arc<Conn>>,
}

impl Inbox {
    /// Routes one decoded burst of data frames from `sender`, read on
    /// `conn`, through link-level dedup/gap detection and into their
    /// session mailboxes, under a single inbox lock. A frame accepted
    /// from a connection makes it the sender's data connection.
    ///
    /// Each waker fires at most once per drain: the first frame for a
    /// parked mailbox removes and collects its waker, subsequent frames
    /// of the burst find none. Only mailboxes that actually received a
    /// frame (or observed an error) are woken. The wakers gather in
    /// `fired`, the caller's list, for the caller to wake once its own
    /// bookkeeping is done; a list that keeps its capacity from burst
    /// to burst allocates nothing for them.
    pub(super) fn deposit_batch(
        &self,
        sender: &'static str,
        conn: Option<&Arc<Conn>>,
        batch: &mut Vec<(u64, Envelope)>,
        fired: &mut Vec<Waker>,
    ) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        let mut links = self.links.lock();
        let link = links.entry(sender).or_default();
        for (link_seq, envelope) in batch.drain(..) {
            if link_seq < link.cursor {
                // A replay of something already delivered: the sender
                // reconnected before our ack covering this frame
                // reached it.
                outcome.duplicates += 1;
                continue;
            }
            if link_seq > link.cursor {
                // Frames below `link_seq` are gone for good (this
                // receiver restarted and lost its cursor behind a live
                // sender). Poison the link rather than let a session
                // see a silently shortened stream.
                fired.extend(link.boxes.fail(format!(
                    "link-layer sequence gap from {sender}: expected frame {}, got \
                     {link_seq} (frames lost on a dead connection)",
                    link.cursor
                )));
                outcome.gap = true;
                break;
            }
            link.cursor += 1;
            outcome.accepted += 1;
            // A sender that violated its session sequencing is
            // unrecoverable: the frame is consumed at the link level (so
            // the sender's retention queue drains) but withheld from
            // every session, which observes the protocol error instead
            // of a silently resumed stream.
            match link.boxes.deposit(sender, envelope) {
                Ok(waker) => fired.extend(waker),
                Err(reason) => fired.extend(link.boxes.fail(reason)),
            }
        }
        if let Some(conn) = conn.filter(|_| outcome.accepted > 0) {
            if !link.data_conn.as_ref().is_some_and(|held| Arc::ptr_eq(held, conn)) {
                link.data_conn = Some(Arc::clone(conn));
            }
        }
        outcome.cursor = link.cursor;
        outcome
    }

    /// The next link sequence expected of `sender` — the cumulative-ack
    /// and resume cursor.
    pub(super) fn link_cursor(&self, sender: &'static str) -> u64 {
        self.links.lock().get(sender).map_or(0, |link| link.cursor)
    }

    /// How many of `sender`'s sessions have a waker stored: are waiting
    /// for a frame some thread must read.
    pub(super) fn waiting(&self, sender: &'static str) -> usize {
        self.links.lock().get(sender).map_or(0, |link| link.boxes.waiting())
    }

    /// Makes `conn` `sender`'s data connection: it accepted the
    /// connection, or dialed it and holds none that lives.
    pub(super) fn carry_data_on(&self, sender: &'static str, conn: &Arc<Conn>, replace: bool) {
        let mut links = self.links.lock();
        let link = links.entry(sender).or_default();
        if replace || link.data_conn.as_ref().is_none_or(|held| held.is_dead()) {
            link.data_conn = Some(Arc::clone(conn));
        }
    }

    /// Takes every data connection, for the endpoint's drop to close.
    pub(super) fn take_conns(&self) -> Vec<Arc<Conn>> {
        self.links.lock().values_mut().filter_map(|link| link.data_conn.take()).collect()
    }

    /// Poisons `sender`'s link with `error` (the first error wins).
    pub(super) fn close(&self, sender: &'static str, error: String) {
        let mut links = self.links.lock();
        // A closed link is an observable (error) state for every session
        // parked on it: fire them all.
        let fired = links.entry(sender).or_default().boxes.fail(error);
        drop(links);
        fired.into_iter().for_each(Waker::wake);
    }

    /// Ends `session` on every sender's table, under one inbox lock.
    pub(super) fn close_session(&self, session: SessionId) {
        for link in self.links.lock().values_mut() {
            link.boxes.close(session);
        }
    }

    /// Pops the next frame of `session` from `sender`, or stores `waker`
    /// under the inbox lock the readers deposit under (no lost wakeups)
    /// and returns the connection the frame will arrive on, if any.
    pub(super) fn poll(
        &self,
        session: SessionId,
        sender: &'static str,
        waker: &Waker,
    ) -> (Poll<Result<Envelope, TransportError>>, Option<Arc<Conn>>) {
        let mut links = self.links.lock();
        let link = links.entry(sender).or_default();
        let polled = link.boxes.poll(session, waker);
        let conn = if polled.is_pending() { link.data_conn.clone() } else { None };
        (polled, conn)
    }
}
