//! The receive side's shared state: one [`Mailboxes`] table per sender,
//! next to that sender's link cursor, which dedups replays and detects
//! gaps.

use crate::mailboxes::Mailboxes;
use chorus_core::sync::Mutex;
use chorus_core::{SessionId, TransportError};
use chorus_wire::Envelope;
use std::collections::HashMap;
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
}

/// The demultiplexed receive side shared by all reader threads.
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
}

impl Inbox {
    /// Routes one decoded burst of data frames from `sender` through
    /// link-level dedup/gap detection and into their session mailboxes,
    /// under a single inbox lock.
    ///
    /// Each waker fires at most once per drain: the first frame for a
    /// parked mailbox removes and collects its waker, subsequent frames
    /// of the burst find none. Only mailboxes that actually received a
    /// frame (or observed an error) are woken. The wakers gather in
    /// `fired`, the caller's list, which this leaves empty and keeps
    /// its capacity, so a burst allocates nothing for them.
    pub(super) fn deposit_batch(
        &self,
        sender: &'static str,
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
        // Wakers re-enqueue sessions into a scheduler queue; invoke them
        // outside the inbox lock to avoid ordering deadlocks.
        drop(links);
        fired.drain(..).for_each(Waker::wake);
        outcome
    }

    /// The next link sequence expected of `sender` — the cumulative-ack
    /// and resume cursor.
    pub(super) fn link_cursor(&self, sender: &'static str) -> u64 {
        self.links.lock().get(sender).map_or(0, |link| link.cursor)
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
    /// under the inbox lock the reader threads deposit under: no lost
    /// wakeups.
    pub(super) fn poll(
        &self,
        session: SessionId,
        sender: &'static str,
        waker: &Waker,
    ) -> Poll<Result<Envelope, TransportError>> {
        self.links.lock().entry(sender).or_default().boxes.poll(session, waker)
    }
}
