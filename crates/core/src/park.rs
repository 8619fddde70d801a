//! How threads wait: the one poll-then-park loop ([`wait`]) that the
//! blocking receive, [`SessionHandle::join`](crate::SessionHandle::join),
//! the TCP retention wait and a TCP endpoint's drop share, its watchdog
//! deadline, the bounded yield of in-process hand-offs, and a pool
//! worker's pass.
//!
//! Every transport's [`receive_frame`](crate::SessionTransport::receive_frame)
//! is the one loop here over
//! [`poll_receive_blocking`](crate::SessionTransport::poll_receive_blocking),
//! which is a transport's own wait policy and defaults to
//! [`poll_receive_frame`](crate::SessionTransport::poll_receive_frame):
//! an in-process transport first re-polls through
//! [`poll_before_park`]'s bounded yield with [`Waker::noop`] (a miss
//! stores it once, and every later miss finds it already stored, so
//! yielding allocates and wakes nothing); TCP reads the socket on the
//! waiting thread. The loop polls with this thread's waker (one `Arc`
//! per thread, so a receive allocates nothing) and parks until a
//! deposit wakes it. A poll stores its waker under the lock deposits
//! take, so no wakeup is lost, and a spurious wake just polls again.
//! Once [`default_watchdog`] has passed since the call, the receive
//! fails with an error naming the session and the peer. The mailbox
//! state decides what a receiver gets, never wake order, so
//! `SimTransport`'s schedules stay reproducible.
//!
//! A pool worker keeps a *pass*: the links whose writes its sends left
//! for later. A transport whose send would write to a socket asks
//! [`defer_write`] first; on a worker that records the link, once per
//! link, and the frame leaves when the worker ends its pass with
//! [`flush_pass`], after polling a queue's worth of tasks or before it
//! parks. Any other thread has no pass, and its sends write inline.

use crate::location::{ChoreographyLocation, LocationSet};
use crate::transport::{SessionId, SessionTransport, TransportError};
use chorus_wire::Envelope;
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// `yield_now`s a hand-off tries before it parks: a yield hands the
/// core to a runnable sender, a park/wake costs two futex transitions.
const YIELD_LIMIT: u32 = 32;

/// The workspace-wide default watchdog timeout for bounded parks.
///
/// Every watchdog in the workspace — the blocking receive's, the TCP
/// retention wait's, the pooled session runtime's stall detector —
/// derives its default deadline from this one place. Override it with
/// the `CHORUS_WATCHDOG_MS` environment variable (milliseconds, read
/// once per process); the built-in default is 30 000 ms. Code that needs
/// a *specific* deadline (e.g. a test pinning watchdog behavior) still
/// passes one explicitly.
pub fn default_watchdog() -> Duration {
    static MILLIS: OnceLock<u64> = OnceLock::new();
    let millis = *MILLIS
        .get_or_init(|| watchdog_millis(std::env::var("CHORUS_WATCHDOG_MS").ok().as_deref()));
    Duration::from_millis(millis)
}

/// Parses a `CHORUS_WATCHDOG_MS` value. Zero would fail every receive
/// that has to wait, so it counts as unset, like a value that is not a
/// number.
fn watchdog_millis(raw: Option<&str>) -> u64 {
    raw.and_then(|raw| raw.trim().parse::<u64>().ok())
        .filter(|&millis| millis > 0)
        .unwrap_or(30_000)
}

/// Wakes a thread parked in [`wait`], or an idle pool worker.
struct Unpark(Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

thread_local! {
    /// This thread's waker: it unparks the thread.
    static WAKER: Waker = Waker::from(Arc::new(Unpark(std::thread::current())));

    /// This thread's pass: `None` unless the thread is a pool worker.
    /// The list keeps its capacity from pass to pass.
    static PASS: RefCell<Option<Vec<Arc<dyn DeferredWrite>>>> = const { RefCell::new(None) };
}

/// This thread's waker, which unparks it (a clone of one `Arc` per
/// thread, so taking it allocates nothing).
pub(crate) fn thread_waker() -> Waker {
    WAKER.with(Waker::clone)
}

/// A link whose writes a pool worker defers to the end of its pass.
pub trait DeferredWrite: Send + Sync {
    /// Writes whatever the link holds that is not yet on its
    /// connection. A failure is the link's own to handle: the frames
    /// stay retained, and the next send on the link reports a link that
    /// went down.
    fn write_deferred(self: Arc<Self>);
}

/// Opens a pass on this thread: from now on [`defer_write`] records
/// links instead of letting the caller write. Only the pool's worker
/// loop opens a pass.
pub(crate) fn open_pass() {
    PASS.with(|pass| *pass.borrow_mut() = Some(Vec::new()));
}

/// Leaves `link`'s write to the end of this thread's pass, recording
/// the link once per pass, and returns `true`; returns `false` on a
/// thread with no open pass, where the caller writes now. Recording
/// clones the caller's `Arc`, into a list that keeps its capacity, so
/// it allocates nothing at steady state.
pub fn defer_write<W: DeferredWrite + 'static>(link: &Arc<W>) -> bool {
    PASS.with(|pass| {
        let mut pass = pass.borrow_mut();
        let Some(links) = pass.as_mut() else {
            return false;
        };
        if !links.iter().any(|held| std::ptr::addr_eq(Arc::as_ptr(held), Arc::as_ptr(link))) {
            links.push(Arc::clone(link) as Arc<dyn DeferredWrite>);
        }
        true
    })
}

/// Ends this thread's pass: writes every link it recorded. A thread
/// about to wait on a link (a sender parked at the retention watermark,
/// an endpoint lingering for acks) calls it first, since the frames it
/// would wait behind may be its own. Does nothing on a thread with no
/// open pass.
pub fn flush_pass() {
    // One link at a time, with the list released while it writes.
    while let Some(link) = PASS.with(|pass| pass.borrow_mut().as_mut().and_then(Vec::pop)) {
        link.write_deferred();
    }
}

/// Polls `poll` up to [`YIELD_LIMIT`] times, yielding the core after
/// each miss; `Pending` means the caller parks. How an in-process
/// hand-off waits: an in-process transport's
/// [`poll_receive_blocking`](crate::SessionTransport::poll_receive_blocking),
/// a cohort thread's wait for its next job.
pub fn poll_before_park<T>(mut poll: impl FnMut() -> Poll<T>) -> Poll<T> {
    for _ in 0..YIELD_LIMIT {
        if let ready @ Poll::Ready(_) = poll() {
            return ready;
        }
        std::thread::yield_now();
    }
    Poll::Pending
}

/// Polls `poll` with this thread's waker until it is ready, parking
/// between polls, and never past `deadline`: `None` means the deadline
/// passed first. How a thread waits for a condition another thread
/// changes: `poll` checks it and, on a miss, stores the waker where
/// that thread takes it, under the same lock, so no wake is lost, and a
/// spurious wake just polls again.
///
/// ```
/// use chorus_core::park::wait;
/// use std::{task::Poll, time::Instant};
///
/// assert_eq!(wait(None, |_waker| Poll::Ready(7)), Some(7));
/// assert_eq!(wait(Some(Instant::now()), |_waker| Poll::<u8>::Pending), None);
/// ```
pub fn wait<T>(deadline: Option<Instant>, mut poll: impl FnMut(&Waker) -> Poll<T>) -> Option<T> {
    WAKER.with(|waker| loop {
        if let Poll::Ready(value) = poll(waker) {
            return Some(value);
        }
        let Some(deadline) = deadline else {
            std::thread::park();
            continue;
        };
        let now = Instant::now();
        if now >= deadline {
            return None;
        }
        std::thread::park_timeout(deadline - now);
    })
}

/// The one blocking receive; see the module docs.
pub(crate) fn blocking_receive<L, Target, T>(
    transport: &T,
    session: SessionId,
    from: &str,
) -> Result<Envelope, TransportError>
where
    L: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<L, Target> + ?Sized,
{
    let started = Instant::now();
    let watchdog = default_watchdog();
    let deadline = started + watchdog;
    let poll = |waker: &Waker| {
        transport.poll_receive_blocking(session, from, &mut Context::from_waker(waker), deadline)
    };
    wait(Some(deadline), poll).unwrap_or_else(|| {
        Err(TransportError::Protocol(format!(
            "receive watchdog: no frame of session {session} from {from} after {}ms \
             (configured deadline {}ms)",
            started.elapsed().as_millis(),
            watchdog.as_millis()
        )))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn producer_wakes_parked_consumer() {
        let slot = Arc::new(Mutex::new((None::<u32>, None::<Waker>)));
        let consumer = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                wait(None, |waker| {
                    let mut slot = slot.lock();
                    match slot.0.take() {
                        Some(value) => Poll::Ready(value),
                        None => {
                            slot.1 = Some(waker.clone());
                            Poll::Pending
                        }
                    }
                })
            })
        };
        let parked = {
            let mut slot = slot.lock();
            slot.0 = Some(99);
            slot.1.take()
        };
        if let Some(waker) = parked {
            waker.wake();
        }
        assert_eq!(consumer.join().unwrap(), Some(99));
    }

    #[test]
    fn wait_deadline_reports_timeout() {
        let deadline = Instant::now() + Duration::from_millis(10);
        let polled = wait(Some(deadline), |_| Poll::<()>::Pending);
        assert_eq!(polled, None, "nobody wakes, so the deadline must pass");
        assert!(Instant::now() >= deadline);
    }

    #[test]
    fn default_watchdog_is_a_usable_deadline() {
        // The env override is read once per process, so this test only
        // pins the invariants every caller relies on: the default is
        // finite, nonzero, and stable across calls.
        let first = default_watchdog();
        assert!(first > Duration::ZERO);
        assert_eq!(first, default_watchdog());
    }

    #[test]
    fn watchdog_override_parses_positive_millis_only() {
        assert_eq!(watchdog_millis(Some(" 250 ")), 250);
        assert_eq!(watchdog_millis(Some("0")), 30_000);
        assert_eq!(watchdog_millis(Some("abc")), 30_000);
        assert_eq!(watchdog_millis(None), 30_000);
    }

    #[test]
    fn expired_deadline_returns_immediately() {
        let mut polls = 0;
        let polled = wait(Some(Instant::now()), |_| {
            polls += 1;
            Poll::<()>::Pending
        });
        assert_eq!((polled, polls), (None, 1), "one poll, then the passed deadline");
    }
}
