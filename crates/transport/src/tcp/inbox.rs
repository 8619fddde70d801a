//! The receive side's shared state: per-(sender, session) mailboxes,
//! the per-sender link cursor that dedups replays and detects gaps,
//! poisoned-link errors, and the wakers parked on empty mailboxes.

use chorus_core::{park, MailboxWaker, SequenceTracker, SessionId, TransportError};
use chorus_wire::Envelope;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::Instant;

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
    inner: StdMutex<InboxInner>,
    cv: Condvar,
}

#[derive(Default)]
struct InboxInner {
    /// Per-(sender, session) FIFO mailboxes, keyed by interned sender
    /// names so per-frame routing allocates nothing.
    mailboxes: HashMap<(&'static str, SessionId), VecDeque<Envelope>>,
    /// Per-(session, sender) sequence validation.
    sequences: SequenceTracker,
    /// Per-sender link cursor: the next link sequence expected,
    /// persisted across connections (the heart of resumption — a
    /// reconnecting sender is told exactly where to replay from).
    cursors: HashMap<&'static str, u64>,
    /// Senders whose stream is poisoned for good (a link cursor gap, a
    /// session sequence violation, an undecodable frame), with the
    /// error every session on that link observes. A connection merely
    /// ending is not recorded here: the sender reconnects and resumes.
    closed: HashMap<&'static str, String>,
    /// Readiness wakers parked on empty mailboxes by the pooled session
    /// runtime: at most one per (sender, session) mailbox, removed and
    /// fired (outside the lock) when that mailbox gains a frame, drained
    /// per sender when its connection ends.
    wakers: HashMap<(&'static str, SessionId), MailboxWaker>,
}

impl InboxInner {
    /// Pops the next deliverable frame of `session` from `sender`;
    /// with the mailbox drained, a poisoned link is the error.
    fn pop(
        &mut self,
        session: SessionId,
        sender: &'static str,
    ) -> Result<Option<Envelope>, TransportError> {
        if let Some(envelope) =
            self.mailboxes.get_mut(&(sender, session)).and_then(VecDeque::pop_front)
        {
            return Ok(Some(envelope));
        }
        match self.closed.get(sender) {
            Some(message) => Err(TransportError::Protocol(message.clone())),
            None => Ok(None),
        }
    }
}

impl Inbox {
    /// Routes one decoded burst of data frames from `sender` through
    /// link-level dedup/gap detection and into their session mailboxes,
    /// under a single inbox lock.
    ///
    /// Each waker fires at most once per drain: the first frame for a
    /// parked mailbox removes and collects its waker, subsequent frames
    /// of the burst find none. Only mailboxes that actually received a
    /// frame (or observed an error) are woken.
    pub(super) fn deposit_batch(
        &self,
        sender: &'static str,
        batch: &mut Vec<(u64, Envelope)>,
    ) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        let mut fired: Vec<MailboxWaker> = Vec::new();
        let mut inner = self.inner.lock().expect("tcp inbox poisoned");
        for (link_seq, envelope) in batch.drain(..) {
            let cursor = inner.cursors.entry(sender).or_insert(0);
            if link_seq < *cursor {
                // A replay of something already delivered: the sender
                // reconnected before our ack covering this frame
                // reached it.
                outcome.duplicates += 1;
                continue;
            }
            if link_seq > *cursor {
                // Frames below `link_seq` are gone for good (this
                // receiver restarted and lost its cursor behind a live
                // sender). Poison the link rather than let a session
                // see a silently shortened stream.
                let message = format!(
                    "link-layer sequence gap from {sender}: expected frame {cursor}, got \
                     {link_seq} (frames lost on a dead connection)"
                );
                inner.closed.insert(sender, message);
                fired.extend(drain_sender_wakers(&mut inner.wakers, sender));
                outcome.gap = true;
                break;
            }
            *cursor += 1;
            outcome.accepted += 1;
            // A sender that violated its session sequencing is
            // unrecoverable: consume the frame at the link level (so
            // the sender's retention queue drains) but withhold it from
            // every session, which observes the protocol error instead
            // of a silently resumed stream.
            if inner.closed.contains_key(sender) {
                continue;
            }
            match inner.sequences.check(envelope.session, sender, envelope.seq) {
                Ok(()) => {
                    let session = envelope.session;
                    inner.mailboxes.entry((sender, session)).or_default().push_back(envelope);
                    fired.extend(inner.wakers.remove(&(sender, session)));
                }
                Err(e) => {
                    inner.closed.insert(sender, e.to_string());
                    fired.extend(drain_sender_wakers(&mut inner.wakers, sender));
                }
            }
        }
        if outcome.accepted > 0 || outcome.gap {
            self.cv.notify_all();
        }
        // Wakers re-enqueue sessions into a scheduler queue; invoke them
        // outside the inbox lock to avoid ordering deadlocks.
        drop(inner);
        for waker in fired {
            waker();
        }
        outcome
    }

    /// The next link sequence expected of `sender` — the cumulative-ack
    /// and resume cursor.
    pub(super) fn link_cursor(&self, sender: &'static str) -> u64 {
        let mut inner = self.inner.lock().expect("tcp inbox poisoned");
        *inner.cursors.entry(sender).or_insert(0)
    }

    /// Poisons `sender`'s link with `error` (the first error wins).
    pub(super) fn close(&self, sender: &'static str, error: String) {
        let mut inner = self.inner.lock().expect("tcp inbox poisoned");
        inner.closed.entry(sender).or_insert(error);
        // A closed link is an observable (error) state for every session
        // parked on it: fire them all.
        let fired = drain_sender_wakers(&mut inner.wakers, sender);
        self.cv.notify_all();
        drop(inner);
        for waker in fired {
            waker();
        }
    }

    /// Pops the next frame of `session` from `sender` if one is already
    /// deliverable.
    pub(super) fn try_take(
        &self,
        session: SessionId,
        sender: &'static str,
    ) -> Result<Option<Envelope>, TransportError> {
        self.inner.lock().expect("tcp inbox poisoned").pop(session, sender)
    }

    /// Parks `waker` on the (sender, session) mailbox, or reports the
    /// mailbox already ready. Ready-check and registration happen under
    /// the inbox lock the reader threads deposit under — no lost
    /// wakeups.
    pub(super) fn register(
        &self,
        session: SessionId,
        sender: &'static str,
        waker: MailboxWaker,
    ) -> Result<bool, TransportError> {
        let mut inner = self.inner.lock().expect("tcp inbox poisoned");
        let ready = inner.closed.contains_key(sender)
            || inner.mailboxes.get(&(sender, session)).is_some_and(|mailbox| !mailbox.is_empty());
        if ready {
            return Ok(true);
        }
        inner.wakers.insert((sender, session), waker);
        Ok(false)
    }

    /// Blocks until a frame of `session` from `sender` arrives, bounded
    /// by the workspace watchdog ([`park::default_watchdog`]) so a dead
    /// edge resolves with a protocol error naming the wait instead of
    /// parking the thread forever.
    pub(super) fn take(
        &self,
        session: SessionId,
        sender: &'static str,
    ) -> Result<Envelope, TransportError> {
        let watchdog = park::default_watchdog();
        let started = Instant::now();
        let mut inner = self.inner.lock().expect("tcp inbox poisoned");
        loop {
            if let Some(envelope) = inner.pop(session, sender)? {
                return Ok(envelope);
            }
            let waited = started.elapsed();
            let Some(remaining) = watchdog.checked_sub(waited) else {
                return Err(TransportError::Protocol(format!(
                    "tcp receive watchdog: no frame of session {session} from {sender} after \
                     {}ms (configured deadline {}ms)",
                    waited.as_millis(),
                    watchdog.as_millis()
                )));
            };
            let (guard, _timed_out) =
                self.cv.wait_timeout(inner, remaining).expect("tcp inbox poisoned");
            inner = guard;
        }
    }
}

/// Removes every waker parked on `sender`'s mailboxes, for firing once
/// the inbox lock is released. The map is typically tiny here (the
/// link just died), so the linear scan is fine.
fn drain_sender_wakers(
    wakers: &mut HashMap<(&'static str, SessionId), MailboxWaker>,
    sender: &'static str,
) -> Vec<MailboxWaker> {
    let keys: Vec<(&'static str, SessionId)> =
        wakers.keys().filter(|(s, _)| *s == sender).copied().collect();
    keys.into_iter().filter_map(|key| wakers.remove(&key)).collect()
}
