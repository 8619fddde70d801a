//! One directed link's receive side, the table every transport in this
//! crate keeps per link: per session a FIFO mailbox, the next expected
//! `seq` and the waker stored on it while it is empty, plus the link's
//! one failure. Its rules are the receive contract:
//!
//! * [`deposit`](Mailboxes::deposit) admits a frame only if its `seq` is
//!   the next of its session's stream or a restart at zero (a fresh run
//!   reusing the session id). Anything else is rejected with the reason,
//!   which the caller makes the link's failure. A failed link withholds
//!   later deposits.
//! * [`fail`](Mailboxes::fail) keeps the first failure.
//! * [`poll`](Mailboxes::poll) is a transport's whole receive: it pops
//!   the next frame, or reports the failure once queued frames are
//!   drained (the same for every session, every time), or stores the
//!   caller's waker — all in one step, under the lock deposits take, so
//!   no wakeup is lost. A waker that
//!   [`will_wake`](std::task::Waker::will_wake) the stored one is not
//!   stored again; any other replaces it.
//! * Nothing here wakes a waker. A deposit returns its own session's and
//!   `fail` every stored one, once; the caller wakes them after dropping
//!   its lock, since a waker re-enqueues into a scheduler queue.
//!
//! Sessions end. [`close`](Mailboxes::close) drops a session's entry if
//! its queue is drained (a frame already queued, say a reused id's
//! restart, stays deliverable) and its stored waker, and raises the
//! table's watermark, `closed_below`, to one past the highest id closed
//! so far. The drained queue is kept and handed to the next session the
//! table opens, so a fresh session's first frame allocates nothing. A
//! session's entry takes a kept queue if there is one, so the table
//! never keeps more queues than it has had sessions open at once. A frame for a session that is not open — no entry, or only a
//! waker stored by a poll before its first frame — then follows one of
//! three rules:
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
//! The table counts the wakers stored on it ([`waiting`](Mailboxes::waiting)):
//! how many of its sessions wait for a frame that nobody has queued yet.
//! TCP reads it to tell whether a mailbox holds a waker that no thread
//! is reading the socket for.
//!
//! The sim logs a frame between checking and queueing it, so it uses the
//! two halves of `deposit`, [`admit`](Mailboxes::admit) and
//! [`queue`](Mailboxes::queue).

use chorus_core::{SessionId, TransportError};
use chorus_wire::Envelope;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::task::{Poll, Waker};

/// One link's receive side; see the module docs for its rules.
#[derive(Default)]
pub(crate) struct Mailboxes {
    /// One lookup serves a session's sequence check, its queue and its
    /// waker.
    sessions: HashMap<SessionId, Stream>,
    /// Drained queues of closed sessions, for the next sessions opened.
    spare: Vec<VecDeque<Envelope>>,
    /// The protocol-error text every session reads once drained.
    failure: Option<String>,
    /// One past the highest session id closed so far.
    closed_below: SessionId,
    /// Late frames dropped: `seq > 0` for a closed session.
    late: u64,
    /// Sessions with a stored waker.
    waiting: usize,
}

struct Stream {
    queue: VecDeque<Envelope>,
    /// The next expected `seq`; 0 until the session's first frame opens
    /// it.
    next_seq: u64,
    /// Stored by the last poll that found the queue empty, taken by the
    /// next frame queued.
    waker: Option<Waker>,
}

impl Stream {
    /// A session's entry before its first frame, on a kept queue if
    /// there is one.
    fn open(spare: &mut Vec<VecDeque<Envelope>>) -> Stream {
        Stream { queue: spare.pop().unwrap_or_default(), next_seq: 0, waker: None }
    }
}

impl Mailboxes {
    pub(crate) fn failed(&self) -> bool {
        self.failure.is_some()
    }

    /// How many sessions have a waker stored, waiting for a frame.
    pub(crate) fn waiting(&self) -> usize {
        self.waiting
    }

    /// Checks `seq` as the next of `session`'s stream and advances it.
    /// `None` is a late frame, counted and to be dropped; an error is
    /// the reason the frame was rejected.
    fn check(
        &mut self,
        sender: &'static str,
        session: SessionId,
        seq: u64,
    ) -> Result<Option<&mut Stream>, String> {
        let expected = match self.sessions.entry(session) {
            Entry::Occupied(entry) if seq == entry.get().next_seq || seq == 0 => {
                let stream = entry.into_mut();
                stream.next_seq = seq + 1;
                return Ok(Some(stream));
            }
            Entry::Vacant(entry) if seq == 0 => {
                let stream = entry.insert(Stream::open(&mut self.spare));
                stream.next_seq = 1;
                return Ok(Some(stream));
            }
            Entry::Occupied(entry) if entry.get().next_seq > 0 => entry.get().next_seq,
            // Not open: no entry, or only a stored waker.
            _ if session < self.closed_below => {
                self.late += 1;
                return Ok(None);
            }
            _ => 0,
        };
        Err(format!(
            "frame from {sender} in session {session} arrived out of order: \
             expected seq {expected}, got {seq}"
        ))
    }

    /// Admits and queues `frame` from `sender`, returning its session's
    /// stored waker. On a failed link the frame is withheld, and a late
    /// frame is dropped. A rejected frame is dropped and the reason
    /// returned; failing the link with it is the caller's step.
    pub(crate) fn deposit(
        &mut self,
        sender: &'static str,
        frame: Envelope,
    ) -> Result<Option<Waker>, String> {
        if self.failed() {
            return Ok(None);
        }
        let Some(stream) = self.check(sender, frame.session, frame.seq)? else {
            return Ok(None);
        };
        stream.queue.push_back(frame);
        let waker = stream.waker.take();
        self.waiting -= usize::from(waker.is_some());
        Ok(waker)
    }

    /// The check half of [`deposit`](Self::deposit): whether to queue the
    /// frame (`false` for a late one).
    pub(crate) fn admit(
        &mut self,
        sender: &'static str,
        session: SessionId,
        seq: u64,
    ) -> Result<bool, String> {
        self.check(sender, session, seq).map(|stream| stream.is_some())
    }

    /// The queue half of [`deposit`](Self::deposit), for an admitted frame.
    pub(crate) fn queue(&mut self, frame: Envelope) -> Option<Waker> {
        let stream =
            self.sessions.entry(frame.session).or_insert_with(|| Stream::open(&mut self.spare));
        stream.queue.push_back(frame);
        let waker = stream.waker.take();
        self.waiting -= usize::from(waker.is_some());
        waker
    }

    /// Fails the link unless it already failed, and hands back every
    /// stored waker.
    pub(crate) fn fail(&mut self, message: String) -> Vec<Waker> {
        self.failure.get_or_insert(message);
        self.waiting = 0;
        self.sessions.values_mut().filter_map(|stream| stream.waker.take()).collect()
    }

    /// The next frame of `session`, or, once its mailbox is drained, the
    /// link's failure; failing both, stores `waker` for the deposit that
    /// follows and returns `Pending`.
    pub(crate) fn poll(
        &mut self,
        session: SessionId,
        waker: &Waker,
    ) -> Poll<Result<Envelope, TransportError>> {
        let stream = self.sessions.entry(session).or_insert_with(|| Stream::open(&mut self.spare));
        if let Some(frame) = stream.queue.pop_front() {
            return Poll::Ready(Ok(frame));
        }
        if let Some(message) = &self.failure {
            return Poll::Ready(Err(TransportError::Protocol(message.clone())));
        }
        match &mut stream.waker {
            Some(stored) if stored.will_wake(waker) => {}
            slot => {
                self.waiting += usize::from(slot.is_none());
                *slot = Some(waker.clone());
            }
        }
        Poll::Pending
    }

    /// Ends `session` on this link: drops its entry if drained, keeping
    /// its queue for the next session opened, and its stored waker, and
    /// raises the watermark to `session + 1` if that is higher.
    pub(crate) fn close(&mut self, session: SessionId) {
        if let Entry::Occupied(mut entry) = self.sessions.entry(session) {
            if entry.get().queue.is_empty() {
                let Stream { queue, waker, .. } = entry.remove();
                self.waiting -= usize::from(waker.is_some());
                if queue.capacity() > 0 {
                    self.spare.push(queue);
                }
            } else {
                self.waiting -= usize::from(entry.get_mut().waker.take().is_some());
            }
        }
        self.closed_below = self.closed_below.max(session.saturating_add(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::{RawWaker, RawWakerVTable, Wake};

    fn frame(session: SessionId, seq: u64) -> Envelope {
        Envelope::new(session, seq, vec![seq as u8])
    }

    /// Polls with a waker that does nothing: `Ok(None)` is a miss.
    fn pop(boxes: &mut Mailboxes, session: SessionId) -> Result<Option<Envelope>, TransportError> {
        match boxes.poll(session, Waker::noop()) {
            Poll::Ready(frame) => frame.map(Some),
            Poll::Pending => Ok(None),
        }
    }

    /// Counts its wakes.
    #[derive(Default)]
    struct Count(AtomicUsize);

    impl Count {
        fn get(&self) -> usize {
            self.0.load(Ordering::SeqCst)
        }
    }

    impl Wake for Count {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting_waker(count: &Arc<Count>) -> Waker {
        Waker::from(Arc::clone(count))
    }

    thread_local! {
        /// Clones of [`clone_counting_waker`] made on this thread.
        static CLONES: Cell<usize> = const { Cell::new(0) };
    }

    /// A waker that does nothing but count, per thread, how often it is
    /// cloned: the one way to tell a stored waker kept from one
    /// replaced by an equal clone.
    fn clone_counting_waker() -> Waker {
        fn clone(data: *const ()) -> RawWaker {
            CLONES.with(|clones| clones.set(clones.get() + 1));
            RawWaker::new(data, &VTABLE)
        }
        fn ignore(_: *const ()) {}
        static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, ignore, ignore, ignore);
        // SAFETY: every vtable function ignores the (null) data pointer
        // and is thread-safe, so the `RawWaker` contract holds.
        unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), &VTABLE)) }
    }

    #[test]
    fn accepts_an_in_order_stream() {
        let mut boxes = Mailboxes::default();
        for seq in 0..5 {
            boxes.deposit("Alpha", frame(1, seq)).expect("in-order frames are fine");
        }
        for seq in 0..5 {
            assert_eq!(pop(&mut boxes, 1).unwrap().unwrap().seq, seq);
        }
        assert!(pop(&mut boxes, 1).unwrap().is_none());
    }

    #[test]
    fn rejects_a_duplicate() {
        let mut boxes = Mailboxes::default();
        boxes.deposit("Alpha", frame(1, 0)).unwrap();
        boxes.deposit("Alpha", frame(1, 1)).unwrap();
        // Replaying seq 1 is neither the expected 2 nor a restart at 0.
        let Err(reason) = boxes.deposit("Alpha", frame(1, 1)) else {
            panic!("a duplicate must be rejected")
        };
        assert!(reason.contains("expected seq 2, got 1"), "got: {reason}");
    }

    #[test]
    fn rejects_a_gap() {
        let mut boxes = Mailboxes::default();
        boxes.deposit("Beta", frame(7, 0)).unwrap();
        let Err(reason) = boxes.deposit("Beta", frame(7, 2)) else {
            panic!("a gap must be rejected")
        };
        assert_eq!(
            reason,
            "frame from Beta in session 7 arrived out of order: expected seq 1, got 2"
        );
        // The rejected frame was not queued.
        assert_eq!(pop(&mut boxes, 7).unwrap().unwrap().seq, 0);
        assert!(pop(&mut boxes, 7).unwrap().is_none());
        // Failing the link with the reason reads as one protocol error.
        boxes.fail(reason);
        assert_eq!(
            pop(&mut boxes, 7).unwrap_err().to_string(),
            "session protocol violation: frame from Beta in session 7 arrived out of order: \
             expected seq 1, got 2"
        );
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
            std::iter::from_fn(|| pop(&mut boxes, 1).unwrap()).map(|f| f.seq).collect();
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
        assert_eq!(pop(&mut boxes, 1).unwrap().unwrap().seq, 0);
        assert_eq!(pop(&mut boxes, 1).unwrap().unwrap().seq, 1);
        for session in [1, 2, 3] {
            for _ in 0..2 {
                let err = pop(&mut boxes, session).unwrap_err();
                assert_eq!(err.to_string(), "session protocol violation: first");
            }
        }
    }

    #[test]
    fn a_deposit_returns_only_its_own_sessions_waker() {
        let mut boxes = Mailboxes::default();
        let (one, two) = (Arc::new(Count::default()), Arc::new(Count::default()));
        assert!(boxes.poll(1, &counting_waker(&one)).is_pending());
        assert!(boxes.poll(2, &counting_waker(&two)).is_pending());
        let woken = boxes.deposit("Alpha", frame(1, 0)).unwrap().expect("session 1 was parked");
        woken.wake();
        assert_eq!((one.get(), two.get()), (1, 0));
        // Spent: the next deposit for session 1 has no waker to return.
        assert!(boxes.deposit("Alpha", frame(1, 1)).unwrap().is_none());
        // A queued frame is popped, so nothing is stored.
        assert_eq!(boxes.poll(1, &counting_waker(&one)).map(|f| f.unwrap().seq), Poll::Ready(0));
        assert!(boxes.deposit("Alpha", frame(1, 2)).unwrap().is_none());
        assert!(boxes.queue(frame(2, 0)).is_some());
    }

    #[test]
    fn fail_hands_back_every_parked_waker_once() {
        let mut boxes = Mailboxes::default();
        let count = Arc::new(Count::default());
        for session in 1..=3 {
            assert!(boxes.poll(session, &counting_waker(&count)).is_pending());
        }
        let woken = boxes.fail("down".to_string());
        assert_eq!(woken.len(), 3);
        woken.into_iter().for_each(Waker::wake);
        assert_eq!(count.get(), 3);
        assert!(boxes.fail("again".to_string()).is_empty(), "each waker is handed back once");
        // A failed link is ready: a poll reads the failure and stores
        // nothing.
        assert!(matches!(boxes.poll(4, &counting_waker(&count)), Poll::Ready(Err(_))));
        assert!(boxes.fail("later".to_string()).is_empty());
    }

    #[test]
    fn a_miss_keeps_a_stored_waker_that_will_wake_the_same() {
        let mut boxes = Mailboxes::default();
        let waker = clone_counting_waker();
        for _ in 0..5 {
            assert!(boxes.poll(1, &waker).is_pending());
        }
        assert_eq!(CLONES.get(), 1, "only the first miss stores a clone");
        let stored = boxes.deposit("Alpha", frame(1, 0)).unwrap().expect("a waker was stored");
        assert!(stored.will_wake(&waker));
    }

    #[test]
    fn a_miss_with_another_waker_replaces_the_stored_one() {
        let mut boxes = Mailboxes::default();
        let (first, second) = (Arc::new(Count::default()), Arc::new(Count::default()));
        assert!(boxes.poll(1, &counting_waker(&first)).is_pending());
        assert!(boxes.poll(1, &counting_waker(&second)).is_pending());
        assert_eq!(Arc::strong_count(&first), 1, "the replaced waker was dropped");
        boxes.deposit("Alpha", frame(1, 0)).unwrap().expect("a waker was stored").wake();
        assert_eq!((first.get(), second.get()), (0, 1));
    }

    #[test]
    fn a_late_frame_after_close_is_dropped_and_counted() {
        let mut boxes = Mailboxes::default();
        boxes.deposit("Alpha", frame(1, 0)).unwrap();
        assert_eq!(pop(&mut boxes, 1).unwrap().unwrap().seq, 0);
        boxes.close(1);
        // The tail of the closed run is dropped, on both paths, and
        // re-creates no mailbox.
        assert!(boxes.deposit("Alpha", frame(1, 1)).unwrap().is_none());
        assert!(!boxes.admit("Alpha", 1, 2).unwrap());
        assert_eq!(boxes.late, 2);
        assert!(boxes.sessions.is_empty());
        assert!(pop(&mut boxes, 1).unwrap().is_none());
        // The poll stored a waker on session 1, which opens nothing: the
        // tail is still late.
        assert!(boxes.deposit("Alpha", frame(1, 3)).unwrap().is_none());
        assert_eq!(boxes.late, 3);
        // The link did not fail: the next session delivers.
        assert!(!boxes.failed());
        boxes.deposit("Alpha", frame(2, 0)).unwrap();
        assert_eq!(pop(&mut boxes, 2).unwrap().unwrap().seq, 0);
        // Above the watermark a `seq > 0` first frame is still an error.
        let Err(reason) = boxes.deposit("Alpha", frame(3, 1)) else {
            panic!("a session never opened must start at seq 0")
        };
        assert!(reason.contains("expected seq 0, got 1"), "got: {reason}");
        assert_eq!(boxes.late, 3);
    }

    #[test]
    fn a_closed_session_id_is_reusable() {
        let mut boxes = Mailboxes::default();
        boxes.deposit("Alpha", frame(4, 0)).unwrap();
        boxes.deposit("Alpha", frame(4, 1)).unwrap();
        pop(&mut boxes, 4).unwrap();
        pop(&mut boxes, 4).unwrap();
        boxes.close(4);
        // A restart at zero opens the id again, and its stream runs on.
        boxes.deposit("Alpha", frame(4, 0)).unwrap();
        boxes.deposit("Alpha", frame(4, 1)).unwrap();
        let drained: Vec<u64> =
            std::iter::from_fn(|| pop(&mut boxes, 4).unwrap()).map(|f| f.seq).collect();
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
        assert_eq!(pop(&mut boxes, 5).unwrap().unwrap().seq, 0);
        assert_eq!(pop(&mut boxes, 5).unwrap().unwrap().seq, 1);
        assert_eq!(boxes.late, 0);
        // Drained, the next close reclaims the entry.
        boxes.close(5);
        assert!(boxes.sessions.is_empty());
    }

    #[test]
    fn a_closed_sessions_queue_serves_the_next_session() {
        let mut boxes = Mailboxes::default();
        // Two sessions open at once, each with a queue that held a frame.
        for session in [1, 2] {
            boxes.deposit("Alpha", frame(session, 0)).unwrap();
        }
        for session in [1, 2] {
            pop(&mut boxes, session).unwrap();
            boxes.close(session);
        }
        assert_eq!(boxes.spare.len(), 2);
        // Sessions opened one at a time, by a frame or by a poll, reuse
        // the kept queues, and the spare list does not grow.
        for session in 3..100 {
            if session % 2 == 0 {
                assert!(pop(&mut boxes, session).unwrap().is_none());
            }
            assert!(boxes.sessions.get(&session).is_none_or(|s| s.queue.capacity() > 0));
            boxes.deposit("Alpha", frame(session, 0)).unwrap();
            assert_eq!(boxes.spare.len(), 1);
            assert_eq!(pop(&mut boxes, session).unwrap().unwrap().session, session);
            boxes.close(session);
            assert_eq!(boxes.spare.len(), 2);
        }
        // A queue that never held a frame has nothing to keep.
        assert!(pop(&mut boxes, 100).unwrap().is_none());
        assert!(pop(&mut boxes, 101).unwrap().is_none());
        assert!(pop(&mut boxes, 102).unwrap().is_none());
        assert!(boxes.spare.is_empty());
        assert_eq!(boxes.sessions[&102].queue.capacity(), 0);
        for session in [100, 101, 102] {
            boxes.close(session);
        }
        assert_eq!(boxes.spare.len(), 2);
        // An undrained session keeps its queue, so nothing is kept.
        boxes.deposit("Alpha", frame(103, 0)).unwrap();
        boxes.close(103);
        assert_eq!(boxes.spare.len(), 1);
    }

    #[test]
    fn the_table_counts_its_stored_wakers() {
        let mut boxes = Mailboxes::default();
        let count = Arc::new(Count::default());
        for session in 1..=3 {
            assert!(boxes.poll(session, &counting_waker(&count)).is_pending());
        }
        // A second miss replaces or keeps a waker, and stores no second.
        assert!(boxes.poll(1, &counting_waker(&count)).is_pending());
        assert_eq!(boxes.waiting(), 3);
        assert!(boxes.deposit("Alpha", frame(1, 0)).unwrap().is_some());
        assert!(boxes.queue(frame(2, 0)).is_some());
        assert_eq!(boxes.waiting(), 1);
        boxes.close(3);
        assert_eq!(boxes.waiting(), 0);
        assert!(boxes.poll(4, &counting_waker(&count)).is_pending());
        assert_eq!(boxes.fail("down".to_string()).len(), 1);
        assert_eq!(boxes.waiting(), 0);
    }

    #[test]
    fn close_drops_a_parked_waker() {
        let mut boxes = Mailboxes::default();
        let count = Arc::new(Count::default());
        assert!(boxes.poll(6, &counting_waker(&count)).is_pending());
        boxes.close(6);
        assert!(boxes.sessions.is_empty());
        // A later run of the id deposits with nobody to wake.
        assert!(boxes.deposit("Alpha", frame(6, 0)).unwrap().is_none());
        assert!(boxes.fail("down".to_string()).is_empty());
        assert_eq!(count.get(), 0);
        assert_eq!(Arc::strong_count(&count), 1, "the table holds no copy of the waker");
    }
}
