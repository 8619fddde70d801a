//! One directed link's receive side, the table every transport in this
//! crate keeps per link: per session a FIFO mailbox and the next
//! expected `seq`, plus the wakers parked on empty mailboxes and the
//! link's one failure. Its rules are the receive contract:
//!
//! * [`deposit`](Mailboxes::deposit) admits a frame only if its `seq` is
//!   the next of its session's stream or a restart at zero (a fresh run
//!   reusing the session id). Anything else is an error the caller turns
//!   into the link's failure. A failed link withholds later deposits.
//! * [`fail`](Mailboxes::fail) keeps the first failure.
//! * [`pop`](Mailboxes::pop) drains queued frames before it reports the
//!   failure, which then reads the same for every session, every time.
//! * [`register`](Mailboxes::register) does the ready-check and parks
//!   the waker in one step, under the lock deposits take: no lost
//!   wakeups. A failed link is always ready.
//! * Nothing here calls a waker. A deposit returns its own session's and
//!   `fail` every parked one, once; the caller fires them after dropping
//!   its lock, since a waker re-enqueues into a scheduler queue.
//!
//! Sessions end. [`close`](Mailboxes::close) drops a session's entry if
//! its queue is drained (a frame already queued, say a reused id's
//! restart, stays deliverable) and its parked waker, and raises the
//! table's watermark, `closed_below`, to one past the highest id closed
//! so far. A frame for a session with no entry then follows one of three
//! rules:
//!
//! * `seq == 0` opens the session: its first frame, or a reuse.
//! * `seq > 0` below the watermark is *late*: the tail of a run this
//!   endpoint already closed. It is dropped and counted, never re-creates
//!   a mailbox and never fails the link.
//! * Anything else is the out-of-order error.
//!
//! A late frame cannot hide a loss. Every transport here delivers each
//! link's frames exactly once and in order (TCP's link cursor dedups
//! replays and fails on a gap; the sim retransmits its drops; local is
//! an in-memory FIFO), so a session's first frame to reach the table is
//! its seq 0. A `seq > 0` with no entry therefore follows a close, or
//! comes from a sender breaking its own sequencing.
//!
//! The sim logs a frame between checking and queueing it, so it uses the
//! two halves of `deposit`, [`admit`](Mailboxes::admit) and
//! [`queue`](Mailboxes::queue).

use chorus_core::{MailboxWaker, SessionId, TransportError};
use chorus_wire::Envelope;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// One link's receive side; see the module docs for its rules.
#[derive(Default)]
pub(crate) struct Mailboxes {
    /// One lookup serves a session's sequence check and its queue.
    sessions: HashMap<SessionId, Stream>,
    /// At most one waker per session, parked on an empty mailbox.
    wakers: HashMap<SessionId, MailboxWaker>,
    /// The protocol-error text every session reads once drained.
    failure: Option<String>,
    /// One past the highest session id closed so far.
    closed_below: SessionId,
    /// Late frames dropped: `seq > 0` for a closed session.
    late: u64,
}

#[derive(Default)]
struct Stream {
    queue: VecDeque<Envelope>,
    next_seq: u64,
}

impl Mailboxes {
    pub(crate) fn failed(&self) -> bool {
        self.failure.is_some()
    }

    /// Checks `seq` as the next of `session`'s stream and advances it.
    /// `None` is a late frame, counted and to be dropped.
    fn check(
        &mut self,
        sender: &'static str,
        session: SessionId,
        seq: u64,
    ) -> Result<Option<&mut Stream>, TransportError> {
        let expected = match self.sessions.entry(session) {
            Entry::Occupied(entry) => {
                let stream = entry.into_mut();
                if seq == stream.next_seq || seq == 0 {
                    stream.next_seq = seq + 1;
                    return Ok(Some(stream));
                }
                stream.next_seq
            }
            Entry::Vacant(entry) if seq == 0 => {
                return Ok(Some(entry.insert(Stream { queue: VecDeque::new(), next_seq: 1 })));
            }
            Entry::Vacant(_) if session < self.closed_below => {
                self.late += 1;
                return Ok(None);
            }
            Entry::Vacant(_) => 0,
        };
        Err(TransportError::Protocol(format!(
            "frame from {sender} in session {session} arrived out of order: \
             expected seq {expected}, got {seq}"
        )))
    }

    /// Admits and queues `frame` from `sender`, returning its session's
    /// parked waker. On a failed link the frame is withheld, and a late
    /// frame is dropped. A rejected frame is dropped and its error
    /// returned; failing the link is the caller's step.
    pub(crate) fn deposit(
        &mut self,
        sender: &'static str,
        frame: Envelope,
    ) -> Result<Option<MailboxWaker>, TransportError> {
        if self.failed() {
            return Ok(None);
        }
        let session = frame.session;
        let Some(stream) = self.check(sender, session, frame.seq)? else {
            return Ok(None);
        };
        stream.queue.push_back(frame);
        Ok(self.wakers.remove(&session))
    }

    /// The check half of [`deposit`](Self::deposit): whether to queue the
    /// frame (`false` for a late one).
    pub(crate) fn admit(
        &mut self,
        sender: &'static str,
        session: SessionId,
        seq: u64,
    ) -> Result<bool, TransportError> {
        self.check(sender, session, seq).map(|stream| stream.is_some())
    }

    /// The queue half of [`deposit`](Self::deposit), for an admitted frame.
    pub(crate) fn queue(&mut self, frame: Envelope) -> Option<MailboxWaker> {
        let session = frame.session;
        self.sessions.entry(session).or_default().queue.push_back(frame);
        self.wakers.remove(&session)
    }

    /// Fails the link unless it already failed, and hands back every
    /// parked waker.
    pub(crate) fn fail(&mut self, message: String) -> Vec<MailboxWaker> {
        self.failure.get_or_insert(message);
        self.wakers.drain().map(|(_, waker)| waker).collect()
    }

    /// The next frame of `session`, `Ok(None)` if its mailbox is merely
    /// empty, or, once it is drained, the link's failure.
    pub(crate) fn pop(&mut self, session: SessionId) -> Result<Option<Envelope>, TransportError> {
        if let Some(frame) = self.sessions.get_mut(&session).and_then(|s| s.queue.pop_front()) {
            return Ok(Some(frame));
        }
        match &self.failure {
            Some(message) => Err(TransportError::Protocol(message.clone())),
            None => Ok(None),
        }
    }

    /// Returns `true` if `session`'s mailbox is ready (a frame is queued
    /// or the link failed); otherwise parks `waker`, replacing the
    /// session's previous one, and returns `false`.
    pub(crate) fn register(&mut self, session: SessionId, waker: MailboxWaker) -> bool {
        let ready = self.failed()
            || self.sessions.get(&session).is_some_and(|stream| !stream.queue.is_empty());
        if !ready {
            self.wakers.insert(session, waker);
        }
        ready
    }

    /// Ends `session` on this link: drops its entry if drained and its
    /// parked waker, and raises the watermark to `session + 1` if that
    /// is higher.
    pub(crate) fn close(&mut self, session: SessionId) {
        if self.sessions.get(&session).is_some_and(|stream| stream.queue.is_empty()) {
            self.sessions.remove(&session);
        }
        self.wakers.remove(&session);
        self.closed_below = self.closed_below.max(session.saturating_add(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn frame(session: SessionId, seq: u64) -> Envelope {
        Envelope::new(session, seq, vec![seq as u8])
    }

    fn counting_waker(count: &Arc<AtomicUsize>) -> MailboxWaker {
        let count = Arc::clone(count);
        Arc::new(move || {
            count.fetch_add(1, Ordering::SeqCst);
        })
    }

    #[test]
    fn accepts_an_in_order_stream() {
        let mut boxes = Mailboxes::default();
        for seq in 0..5 {
            boxes.deposit("Alpha", frame(1, seq)).expect("in-order frames are fine");
        }
        for seq in 0..5 {
            assert_eq!(boxes.pop(1).unwrap().unwrap().seq, seq);
        }
        assert!(boxes.pop(1).unwrap().is_none());
    }

    #[test]
    fn rejects_a_duplicate() {
        let mut boxes = Mailboxes::default();
        boxes.deposit("Alpha", frame(1, 0)).unwrap();
        boxes.deposit("Alpha", frame(1, 1)).unwrap();
        // Replaying seq 1 is neither the expected 2 nor a restart at 0.
        let Err(err) = boxes.deposit("Alpha", frame(1, 1)) else {
            panic!("a duplicate must be rejected")
        };
        assert!(matches!(err, TransportError::Protocol(_)));
        assert!(err.to_string().contains("expected seq 2, got 1"), "got: {err}");
    }

    #[test]
    fn rejects_a_gap() {
        let mut boxes = Mailboxes::default();
        boxes.deposit("Beta", frame(7, 0)).unwrap();
        let Err(err) = boxes.deposit("Beta", frame(7, 2)) else { panic!("a gap must be rejected") };
        assert_eq!(
            err.to_string(),
            "session protocol violation: frame from Beta in session 7 arrived out of order: \
             expected seq 1, got 2"
        );
        // The rejected frame was not queued.
        assert_eq!(boxes.pop(7).unwrap().unwrap().seq, 0);
        assert!(boxes.pop(7).unwrap().is_none());
    }

    #[test]
    fn keeps_interleaved_sessions_independent() {
        // Senders are independent by construction: each link has its own
        // table (the conformance suite's `three_party` cases pin that).
        let mut boxes = Mailboxes::default();
        boxes.deposit("Alpha", frame(1, 0)).unwrap();
        boxes.deposit("Alpha", frame(2, 0)).unwrap();
        boxes.deposit("Alpha", frame(1, 1)).unwrap();
        boxes.deposit("Alpha", frame(2, 1)).unwrap();
        // A violation in session 2 does not disturb session 1.
        assert!(boxes.deposit("Alpha", frame(2, 5)).is_err());
        boxes.deposit("Alpha", frame(1, 2)).unwrap();
        let drained: Vec<u64> =
            std::iter::from_fn(|| boxes.pop(1).unwrap()).map(|f| f.seq).collect();
        assert_eq!(drained, [0, 1, 2]);
    }

    #[test]
    fn accepts_a_restart_at_zero() {
        let mut boxes = Mailboxes::default();
        boxes.deposit("Alpha", frame(1, 0)).unwrap();
        boxes.deposit("Alpha", frame(1, 1)).unwrap();
        // A fresh run reusing the session id restarts at zero.
        boxes.deposit("Alpha", frame(1, 0)).unwrap();
        boxes.deposit("Alpha", frame(1, 1)).unwrap();
        // The two-step path checks the same rule.
        boxes.admit("Alpha", 1, 0).unwrap();
        assert!(boxes.admit("Alpha", 1, 2).is_err());
    }

    #[test]
    fn queued_frames_drain_before_the_failure() {
        let mut boxes = Mailboxes::default();
        boxes.deposit("Alpha", frame(1, 0)).unwrap();
        boxes.deposit("Alpha", frame(1, 1)).unwrap();
        boxes.fail("first".to_string());
        boxes.fail("second".to_string());
        // A failed link withholds even a valid frame.
        assert!(boxes.deposit("Alpha", frame(2, 0)).unwrap().is_none());
        assert_eq!(boxes.pop(1).unwrap().unwrap().seq, 0);
        assert_eq!(boxes.pop(1).unwrap().unwrap().seq, 1);
        for session in [1, 2, 3] {
            for _ in 0..2 {
                let err = boxes.pop(session).unwrap_err();
                assert_eq!(err.to_string(), "session protocol violation: first");
            }
        }
    }

    #[test]
    fn a_deposit_returns_only_its_own_sessions_waker() {
        let mut boxes = Mailboxes::default();
        let (one, two) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        assert!(!boxes.register(1, counting_waker(&one)));
        assert!(!boxes.register(2, counting_waker(&two)));
        let woken = boxes.deposit("Alpha", frame(1, 0)).unwrap().expect("session 1 was parked");
        woken();
        assert_eq!((one.load(Ordering::SeqCst), two.load(Ordering::SeqCst)), (1, 0));
        // Spent: the next deposit for session 1 has no waker to return.
        assert!(boxes.deposit("Alpha", frame(1, 1)).unwrap().is_none());
        // A queued frame makes the mailbox ready, so nothing parks.
        assert!(boxes.register(1, counting_waker(&one)));
        assert!(boxes.queue(frame(2, 0)).is_some());
    }

    #[test]
    fn fail_hands_back_every_parked_waker_once() {
        let mut boxes = Mailboxes::default();
        let count = Arc::new(AtomicUsize::new(0));
        for session in 1..=3 {
            assert!(!boxes.register(session, counting_waker(&count)));
        }
        let woken = boxes.fail("down".to_string());
        assert_eq!(woken.len(), 3);
        woken.iter().for_each(|waker| waker());
        assert_eq!(count.load(Ordering::SeqCst), 3);
        assert!(boxes.fail("again".to_string()).is_empty(), "each waker is handed back once");
        // A failed link is ready: registration never parks again.
        assert!(boxes.register(4, counting_waker(&count)));
        assert!(boxes.fail("later".to_string()).is_empty());
    }

    #[test]
    fn a_late_frame_after_close_is_dropped_and_counted() {
        let mut boxes = Mailboxes::default();
        boxes.deposit("Alpha", frame(1, 0)).unwrap();
        assert_eq!(boxes.pop(1).unwrap().unwrap().seq, 0);
        boxes.close(1);
        // The tail of the closed run is dropped, on both paths, and
        // re-creates no mailbox.
        assert!(boxes.deposit("Alpha", frame(1, 1)).unwrap().is_none());
        assert!(!boxes.admit("Alpha", 1, 2).unwrap());
        assert_eq!(boxes.late, 2);
        assert!(boxes.sessions.is_empty());
        assert!(boxes.pop(1).unwrap().is_none());
        // The link did not fail: the next session delivers.
        assert!(!boxes.failed());
        boxes.deposit("Alpha", frame(2, 0)).unwrap();
        assert_eq!(boxes.pop(2).unwrap().unwrap().seq, 0);
        // Above the watermark a `seq > 0` first frame is still an error.
        let Err(err) = boxes.deposit("Alpha", frame(3, 1)) else {
            panic!("a session never opened must start at seq 0")
        };
        assert!(err.to_string().contains("expected seq 0, got 1"), "got: {err}");
        assert_eq!(boxes.late, 2);
    }

    #[test]
    fn a_closed_session_id_is_reusable() {
        let mut boxes = Mailboxes::default();
        boxes.deposit("Alpha", frame(4, 0)).unwrap();
        boxes.deposit("Alpha", frame(4, 1)).unwrap();
        boxes.pop(4).unwrap();
        boxes.pop(4).unwrap();
        boxes.close(4);
        // A restart at zero opens the id again, and its stream runs on.
        boxes.deposit("Alpha", frame(4, 0)).unwrap();
        boxes.deposit("Alpha", frame(4, 1)).unwrap();
        let drained: Vec<u64> =
            std::iter::from_fn(|| boxes.pop(4).unwrap()).map(|f| f.seq).collect();
        assert_eq!(drained, [0, 1]);
        assert_eq!(boxes.late, 0);
    }

    #[test]
    fn close_keeps_undrained_frames() {
        let mut boxes = Mailboxes::default();
        // A reused id's restart can land before the previous run's
        // close: the queued frame stays deliverable.
        boxes.deposit("Alpha", frame(5, 0)).unwrap();
        boxes.close(5);
        boxes.deposit("Alpha", frame(5, 1)).unwrap();
        assert_eq!(boxes.pop(5).unwrap().unwrap().seq, 0);
        assert_eq!(boxes.pop(5).unwrap().unwrap().seq, 1);
        assert_eq!(boxes.late, 0);
        // Drained, the next close reclaims the entry.
        boxes.close(5);
        assert!(boxes.sessions.is_empty());
    }

    #[test]
    fn close_drops_a_parked_waker() {
        let mut boxes = Mailboxes::default();
        let count = Arc::new(AtomicUsize::new(0));
        assert!(!boxes.register(6, counting_waker(&count)));
        boxes.close(6);
        assert!(boxes.wakers.is_empty());
        // A later run of the id deposits with nobody to wake.
        assert!(boxes.deposit("Alpha", frame(6, 0)).unwrap().is_none());
        assert!(boxes.fail("down".to_string()).is_empty());
        assert_eq!(count.load(Ordering::SeqCst), 0);
        assert_eq!(Arc::strong_count(&count), 1, "the table holds no copy of the waker");
    }
}
