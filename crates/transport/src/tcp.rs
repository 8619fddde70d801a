//! TCP transport: length-prefixed link frames over sockets, on links
//! that survive their connections.
//!
//! Each endpoint binds a listener at its configured address. Outgoing
//! links are opened lazily (with jittered backoff — see [`LinkTuning`])
//! and begin with a hello frame carrying the link-protocol version and
//! the sender's location name, which the acceptor answers with a
//! `Resume { next }` cursor; after that, every frame is a `u32`
//! little-endian length followed by a [`chorus_wire::LinkFrame`]:
//! either a data frame (per-link sequence number + session
//! [`chorus_wire::Envelope`]) or an ack/heartbeat/resume control frame.
//!
//! There is one link protocol and one way to tune it: the five setters
//! of [`TcpConfigBuilder`], whose defaults are [`LinkTuning`]'s
//! constants.
//!
//! # The link layer
//!
//! Any TCP connection can die and come back at any moment without a
//! session observing anything but latency:
//!
//! * **Retention + replay.** A send queue retains every encoded frame
//!   (refcounted, so retention is cheap) until the receiver's
//!   cumulative ack covers it. On reconnect the receiver answers the
//!   hello with its cursor and the sender replays exactly the
//!   unacknowledged tail.
//! * **Dedup.** The receiver keeps a per-peer link cursor across
//!   connections: already-delivered frames replayed by a cautious
//!   sender are dropped before they reach session sequencing, and a
//!   *forward* cursor gap — bytes genuinely lost — poisons the link
//!   loudly instead of corrupting a session.
//! * **Supervision.** A per-endpoint supervisor thread probes idle
//!   established links with heartbeats (a link silent for 3 heartbeats
//!   is presumed half-dead and torn down for replay) and re-establishes
//!   broken links in the background so a parked receiver's frames
//!   replay even when the application has nothing new to send. Every
//!   outage has a bounded retry budget, after which the link surfaces a
//!   typed [`TransportError::LinkDown`] instead of hanging.
//!
//! # The batched data plane
//!
//! Sends are batched per link: every retained frame not yet on the
//! current connection flushes in one vectored write — the fixed 33-byte
//! headers assembled in a reused per-link buffer, the refcounted
//! payloads handed to the kernel as their own slices, never copied.
//! With a nonzero coalescing window
//! ([`TcpConfigBuilder::flush_delay`]) sends enqueue and a flusher
//! thread writes the accumulated batch once the window closes; the
//! window starts at the first enqueued frame, so a lone frame is never
//! stalled longer than the window, and a large backlog flushes inline
//! without waiting.
//!
//! A reader thread per accepted connection drains the whole buffered
//! burst per wakeup, deposits it into the per-(session, sender) FIFO
//! mailboxes under one inbox lock, and fires each parked waker once per
//! drain instead of once per frame — preserving the per-sender ordering
//! guarantee the λN model assumes *within* each session while letting
//! sessions interleave freely on the socket.
//!
//! Retention is bounded: a link whose unacknowledged tail reaches the
//! [`TcpConfigBuilder::retain_max`] watermark parks further senders
//! until acks prune it, and surfaces
//! [`TransportError::RetentionExceeded`] if the link resolves down
//! while they wait — a peer that stays dead cannot grow a sender's
//! retention queue without bound.

pub use crate::link::TcpLinkStats;
use crate::link::{backoff_delay, FrameAccumulator, LinkStats, LinkTuning, ACK_EVERY};
use chorus_core::{
    park, ChoreographyLocation, InternedNames, LocationSet, MailboxWaker, SequenceTracker,
    SessionId, SessionTransport, Transport, TransportError, RAW_SESSION,
};
use chorus_wire::{
    data_frame_wire_len, data_header, ControlFrame, Envelope, LinkFrame, DATA_FRAME_OVERHEAD,
    DATA_HEADER_LEN,
};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// Unanswered heartbeat probes before an established link is presumed
/// half-dead and torn down for replay.
const DEAD_AFTER_PINGS: u32 = 3;

/// The link-protocol version: the first byte of every hello. An
/// acceptor closes a connection whose hello starts with anything else.
const LINK_VERSION: u8 = 1;

/// Address book for a TCP system: one socket address per location in
/// `L`, plus the link-layer policy every endpoint of the system shares.
#[derive(Debug, Clone)]
pub struct TcpConfig<L: LocationSet> {
    addrs: HashMap<&'static str, SocketAddr>,
    tuning: LinkTuning,
    system: PhantomData<L>,
}

/// Builder for [`TcpConfig`]: the address book and the five
/// [`LinkTuning`] values, each at its default unless set here.
#[derive(Debug, Default)]
pub struct TcpConfigBuilder {
    addrs: HashMap<&'static str, SocketAddr>,
    tuning: LinkTuning,
}

impl TcpConfigBuilder {
    /// Starts an empty address book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns `addr` to `location`.
    pub fn location<P: ChoreographyLocation>(mut self, location: P, addr: SocketAddr) -> Self {
        let _ = location;
        self.addrs.insert(P::NAME, addr);
        self
    }

    /// Sets [`LinkTuning::retry_limit`] (at least one attempt).
    pub fn retry_limit(mut self, attempts: u32) -> Self {
        self.tuning.retry_limit = attempts.max(1);
        self
    }

    /// Sets [`LinkTuning::retry_base`].
    pub fn retry_base(mut self, base: Duration) -> Self {
        self.tuning.retry_base = base;
        self
    }

    /// Sets [`LinkTuning::heartbeat`].
    pub fn heartbeat(mut self, heartbeat: Duration) -> Self {
        self.tuning.heartbeat = heartbeat;
        self
    }

    /// Sets [`LinkTuning::flush_delay`].
    pub fn flush_delay(mut self, window: Duration) -> Self {
        self.tuning.flush_delay = window;
        self
    }

    /// Sets [`LinkTuning::retain_max`].
    pub fn retain_max(mut self, bytes: usize) -> Self {
        self.tuning.retain_max = bytes;
        self
    }

    /// Finalizes the address book for the system census `L`.
    ///
    /// # Errors
    ///
    /// Returns the set of missing names if any location in `L` has no
    /// address.
    pub fn build<L: LocationSet>(self) -> Result<TcpConfig<L>, Vec<&'static str>> {
        let missing: Vec<&'static str> =
            L::names().into_iter().filter(|n| !self.addrs.contains_key(n)).collect();
        if missing.is_empty() {
            Ok(TcpConfig { addrs: self.addrs, tuning: self.tuning, system: PhantomData })
        } else {
            Err(missing)
        }
    }
}

/// Reserves `n` distinct loopback addresses with OS-assigned free ports.
///
/// Test/bench helper: binds ephemeral listeners, records their addresses,
/// and releases them. (The usual caveat applies: the ports could in
/// principle be reused between this call and the transport's bind.)
pub fn free_local_addrs(n: usize) -> std::io::Result<Vec<SocketAddr>> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<Result<_, _>>()?;
    listeners.iter().map(|l| l.local_addr()).collect()
}

fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

/// Reads a connector's hello frame. The connector is not yet known to
/// be a peer, so a declared length beyond `max_len` (what the longest
/// census name needs) is refused before anything is allocated for it.
fn read_hello(stream: &mut TcpStream, max_len: usize) -> std::io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    stream.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max_len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "hello longer than any census name",
        ));
    }
    let mut hello = vec![0u8; len];
    stream.read_exact(&mut hello)?;
    Ok(hello)
}

/// Writes one control frame as its own length-prefixed wire frame.
fn write_control(stream: &mut TcpStream, frame: &ControlFrame) -> std::io::Result<()> {
    write_frame(stream, &frame.encode())
}

/// What the link layer made of one deposited batch of data frames.
#[derive(Default)]
struct BatchOutcome {
    /// Frames whose link cursor advanced (session routing ran).
    accepted: u32,
    /// Frames dropped as already delivered on an earlier connection.
    duplicates: u64,
    /// The cursor jumped forward: frames were genuinely lost (a
    /// receiver restart behind a live sender). The link is poisoned
    /// loudly and the rest of the batch discarded.
    gap: bool,
}

/// The demultiplexed receive side shared by all reader threads.
#[derive(Default)]
struct Inbox {
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
    fn deposit_batch(
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
    fn link_cursor(&self, sender: &'static str) -> u64 {
        let mut inner = self.inner.lock().expect("tcp inbox poisoned");
        *inner.cursors.entry(sender).or_insert(0)
    }

    /// Poisons `sender`'s link with `error` (the first error wins).
    fn close(&self, sender: &'static str, error: String) {
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
    fn try_take(
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
    fn register(
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
    fn take(&self, session: SessionId, sender: &'static str) -> Result<Envelope, TransportError> {
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

/// An ongoing connection outage on one link: when it began and how many
/// attempts the retry budget has consumed.
struct Outage {
    since: Instant,
    attempts: u32,
}

/// One outgoing link: the lazily-opened stream, the retention queue of
/// unacknowledged frames, and the reconnect bookkeeping.
struct SendLink {
    stream: Option<TcpStream>,
    /// Bumped per connection attempt that reached streaming, so the ack
    /// reader of a dead connection can tell it has been superseded and
    /// must not touch the link's fresh state.
    generation: u64,
    /// Successfully established connections (for reconnect stats).
    established: u64,
    /// Reused frame assembly buffer, so steady-state sends allocate
    /// nothing.
    buf: Vec<u8>,
    /// Next link sequence to assign.
    next_seq: u64,
    /// Frames below this are on the wire of the *current* connection.
    flushed: u64,
    /// Highest sequence ever written to any connection (replay stats).
    wire_high: u64,
    /// Everything the peer has not cumulatively acked, in order.
    /// Payloads are refcounted `Bytes`, so retention holds handles, not
    /// copies.
    unacked: VecDeque<(u64, Envelope)>,
    /// Wire bytes `unacked` accounts for (headers + payloads), the
    /// quantity the `retain_max` watermark bounds.
    retained_bytes: usize,
    /// Wire bytes enqueued but not yet attempted on the current
    /// connection — the inline-flush threshold for the coalescing path.
    unflushed_bytes: usize,
    /// Frames are parked behind the coalescing window, waiting for the
    /// flusher thread.
    dirty: bool,
    /// Frames below this are acknowledged (pruned from `unacked`).
    acked: u64,
    /// Last time the peer proved liveness (ack or pong).
    last_heard: Instant,
    /// Last heartbeat probe written.
    last_ping: Instant,
    /// Probes written since the peer last proved liveness. Deadness is
    /// judged by unanswered probes, not wall time, so a supervisor
    /// stalled elsewhere (e.g. a long reconnect on another link) cannot
    /// misread its own silence as the peer's.
    pings_unanswered: u32,
    /// Heartbeat nonce counter.
    nonce: u64,
    /// Present while disconnected: the running retry budget.
    outage: Option<Outage>,
    /// Terminal: the retry budget was exhausted `(elapsed, attempts)`.
    down: Option<(Duration, u32)>,
}

impl SendLink {
    fn new() -> Self {
        let now = Instant::now();
        SendLink {
            stream: None,
            generation: 0,
            established: 0,
            buf: Vec::new(),
            next_seq: 0,
            flushed: 0,
            wire_high: 0,
            unacked: VecDeque::new(),
            retained_bytes: 0,
            unflushed_bytes: 0,
            dirty: false,
            acked: 0,
            last_heard: now,
            last_ping: now,
            pings_unanswered: 0,
            nonce: 0,
            outage: None,
            down: None,
        }
    }
}

/// A send link fused with the condvar announcing retention prunes, so
/// a watermark-blocked sender parks on exactly the link it waits for
/// and wakes when acks (or a terminal link-down) resolve the wait.
struct LinkCell {
    state: StdMutex<SendLink>,
    pruned: Condvar,
}

impl LinkCell {
    fn new() -> Self {
        LinkCell { state: StdMutex::new(SendLink::new()), pruned: Condvar::new() }
    }

    /// Locks the link. Poisoning is deliberately absorbed: the state a
    /// panicking holder leaves behind is structurally sound (queues and
    /// counters move together), and propagating it would wedge every
    /// sender on the link.
    fn lock(&self) -> MutexGuard<'_, SendLink> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn try_lock(&self) -> Option<MutexGuard<'_, SendLink>> {
        match self.state.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Parks until a prune is announced (or `timeout` passes — callers
    /// re-check their predicate either way).
    fn wait_pruned<'a>(
        &self,
        guard: MutexGuard<'a, SendLink>,
        timeout: Duration,
    ) -> MutexGuard<'a, SendLink> {
        match self.pruned.wait_timeout(guard, timeout) {
            Ok((guard, _timed_out)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        }
    }

    /// Announces a retention prune (or a terminal link-down) to parked
    /// senders.
    fn notify_pruned(&self) {
        self.pruned.notify_all();
    }
}

/// Pops every retained frame below `below`, keeping `retained_bytes`
/// in step with the queue. Returns how many frames were pruned (the
/// caller announces via [`LinkCell::notify_pruned`]).
fn prune_acked(link: &mut SendLink, below: u64) -> usize {
    let mut pruned = 0;
    while link.unacked.front().is_some_and(|(seq, _)| *seq < below) {
        let (_, envelope) = link.unacked.pop_front().expect("front checked above");
        link.retained_bytes = link.retained_bytes.saturating_sub(data_frame_wire_len(&envelope));
        pruned += 1;
    }
    pruned
}

/// Tears down the link's current connection (if any) and starts the
/// outage clock if one is not already running.
fn kill_stream(link: &mut SendLink) {
    if let Some(stream) = link.stream.take() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    if link.outage.is_none() {
        link.outage = Some(Outage { since: Instant::now(), attempts: 0 });
    }
}

/// Send-side state shared with the supervisor and ack-reader threads.
/// Deliberately non-generic (the target's name is interned in `me`).
struct SendShared {
    me: &'static str,
    addrs: HashMap<&'static str, SocketAddr>,
    tuning: LinkTuning,
    stats: Arc<LinkStats>,
    stop: Arc<AtomicBool>,
    /// Per-peer outgoing links. The outer lock is held only to look up
    /// or create an entry; connecting (which retries with backoff) and
    /// writing happen under the per-peer lock, so one slow or dead peer
    /// never stalls sends to the others.
    links: Mutex<HashMap<&'static str, Arc<LinkCell>>>,
    /// Set when any link parked frames behind the coalescing window;
    /// the flusher thread consumes it.
    flush_signal: park::WaitQueue<bool>,
    /// Fast-path gate in front of `flush_signal`: the first deposit of
    /// a flush round pays the lock + wake; the thousands that follow in
    /// the same window see the hint already set and pay one relaxed
    /// atomic swap. The flusher clears the hint *before* scanning for
    /// dirty links, so a deposit that lands mid-scan re-arms the next
    /// round instead of being lost.
    dirty_hint: AtomicBool,
}

impl SendShared {
    /// Tells the coalescing flusher that a link has undispatched
    /// frames (the start of its flush window).
    fn note_dirty(&self) {
        if self.dirty_hint.swap(true, Ordering::Relaxed) {
            return;
        }
        let mut signalled = self.flush_signal.lock();
        *signalled = true;
        drop(signalled);
        self.flush_signal.notify_one();
    }
}

fn link_down_error(me: &str, to: &str, elapsed: Duration, attempts: u32) -> TransportError {
    TransportError::LinkDown { edge: format!("{me}->{to}"), elapsed, attempts }
}

/// Parks the sending session until acks prune the retention queue far
/// enough below the watermark to admit `wire_len` more bytes — the
/// backpressure that keeps a slow or dead peer from growing a sender's
/// retention without bound.
///
/// # Errors
///
/// Surfaces [`TransportError::RetentionExceeded`] if the link resolves
/// down, or the workspace watchdog expires, while the queue is still
/// over the watermark.
fn wait_for_retention_room<'a>(
    me: &str,
    to: &'static str,
    handle: &'a LinkCell,
    mut link: MutexGuard<'a, SendLink>,
    wire_len: usize,
    limit: usize,
) -> Result<MutexGuard<'a, SendLink>, TransportError> {
    let deadline = Instant::now() + park::default_watchdog();
    loop {
        // An empty queue admits the frame regardless: a single frame
        // larger than the watermark must still be sendable, or it could
        // never leave at all.
        if link.unacked.is_empty() || link.retained_bytes + wire_len <= limit {
            return Ok(link);
        }
        if link.down.is_some() || Instant::now() >= deadline {
            return Err(TransportError::RetentionExceeded {
                edge: format!("{me}->{to}"),
                retained_bytes: link.retained_bytes,
                limit,
            });
        }
        // Bounded park: prunes notify `pruned`, but the terminal
        // link-down can race a notification, so re-check periodically.
        link = handle.wait_pruned(link, Duration::from_millis(50));
    }
}

/// FNV-1a of a peer name, as the per-link backoff jitter salt.
fn jitter_salt(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Frames per vectored batch: bounds the header buffer and keeps the
/// iovec array comfortably under `IOV_MAX` (two slices per frame).
const FLUSH_BATCH_MAX: usize = 256;

/// A coalescing-mode backlog at or past this many wire bytes flushes
/// inline on the sending thread instead of waiting out the window.
const FLUSH_INLINE_BYTES: usize = 256 * 1024;

/// Writes every retained frame not yet on the current connection, as
/// vectored batches: per batch, the fixed 33-byte headers are
/// assembled back-to-back in the reused link buffer and handed to
/// `write_vectored` interleaved with the refcounted payload slices —
/// one syscall per batch, the payloads never copied.
///
/// # Errors
///
/// An I/O error leaves the stream in place (a batch may be partially
/// written; the resume cursor re-syncs `flushed` on reconnect); the
/// caller tears it down with `kill_stream` and re-establishes.
fn flush_pending(link: &mut SendLink, stats: &LinkStats) -> std::io::Result<()> {
    let SendLink { stream, buf, unacked, flushed, wire_high, .. } = &mut *link;
    let Some(stream) = stream.as_mut() else {
        return Err(std::io::Error::new(std::io::ErrorKind::NotConnected, "link not connected"));
    };
    loop {
        // `unacked` holds contiguous sequences, so the first unflushed
        // frame is at a computable offset — no scan over the
        // acked-but-unpruned prefix.
        let skip = unacked
            .front()
            .map_or(0, |(first, _)| usize::try_from(flushed.saturating_sub(*first)).unwrap_or(0));
        if skip >= unacked.len() {
            break;
        }
        let count = (unacked.len() - skip).min(FLUSH_BATCH_MAX);
        buf.clear();
        let mut last_seq = *flushed;
        for (seq, envelope) in unacked.iter().skip(skip).take(count) {
            if *seq < *wire_high {
                stats.replayed.fetch_add(1, Ordering::Relaxed);
            }
            let inner_len = DATA_HEADER_LEN + envelope.encoded_len();
            let outer_len = u32::try_from(inner_len).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large")
            })?;
            buf.extend_from_slice(&outer_len.to_le_bytes());
            buf.extend_from_slice(&data_header(*seq));
            buf.extend_from_slice(&envelope.header());
            last_seq = *seq;
        }
        // Headers have a fixed stride, so header `i` sits at
        // `buf[i * DATA_FRAME_OVERHEAD ..]`. The iovec array lives on
        // the stack: the steady-state flush allocates nothing.
        let mut iov = [IoSlice::new(&[]); 2 * FLUSH_BATCH_MAX];
        let mut iov_len = 0;
        for (i, (_, envelope)) in unacked.iter().skip(skip).take(count).enumerate() {
            iov[iov_len] =
                IoSlice::new(&buf[i * DATA_FRAME_OVERHEAD..(i + 1) * DATA_FRAME_OVERHEAD]);
            iov_len += 1;
            if !envelope.payload.is_empty() {
                iov[iov_len] = IoSlice::new(&envelope.payload);
                iov_len += 1;
            }
        }
        let mut slices = &mut iov[..iov_len];
        while !slices.is_empty() {
            match stream.write_vectored(slices) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "connection closed mid-batch",
                    ))
                }
                Ok(n) => IoSlice::advance_slices(&mut slices, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        *flushed = last_seq + 1;
        *wire_high = (*wire_high).max(*flushed);
        stats.record_batch(count);
    }
    link.unflushed_bytes = 0;
    link.dirty = false;
    Ok(())
}

/// One connection attempt: connect, say hello, adopt the receiver's
/// resume cursor, replay the unacked tail, and start the ack reader. On
/// `Err` the caller counts the attempt and backs off.
fn try_connect_once(
    shared: &Arc<SendShared>,
    to: &'static str,
    handle: &Arc<LinkCell>,
    link: &mut SendLink,
    addr: SocketAddr,
) -> std::io::Result<()> {
    let tuning = shared.tuning;
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1))?;
    stream.set_nodelay(true).ok();
    let mut hello = Vec::with_capacity(1 + shared.me.len());
    hello.push(LINK_VERSION);
    hello.extend_from_slice(shared.me.as_bytes());
    write_frame(&mut stream, &hello)?;

    // Wait for the receiver's resume cursor (bounded: a half-dead peer,
    // or one that refused the hello, must not hang the connect path).
    stream.set_read_timeout(Some(tuning.io_tick()))?;
    let mut acc = FrameAccumulator::default();
    let deadline = Instant::now() + tuning.handshake_timeout();
    let resume = loop {
        if shared.stop.load(Ordering::Relaxed) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "transport shutting down",
            ));
        }
        match acc.poll(&mut stream)? {
            Some(body) => {
                break LinkFrame::decode(body).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?
            }
            None if Instant::now() >= deadline => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "peer sent no resume cursor (half-open connection)",
                ))
            }
            None => {}
        }
    };
    let LinkFrame::Control(ControlFrame::Resume { next }) = resume else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "expected a resume cursor after the handshake",
        ));
    };
    if next > link.next_seq {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "peer resume cursor is ahead of everything ever sent",
        ));
    }
    // Adopt the cursor: everything below it arrived, everything from it
    // on must (re)flow on this connection. A cursor *behind* `acked`
    // (the receiver lost its state, e.g. a process restart) replays
    // from what we still retain; the receiver's gap detection will
    // report the truncation loudly rather than let sessions see a
    // spliced stream.
    if prune_acked(link, next) > 0 {
        handle.notify_pruned();
    }
    link.acked = link.acked.max(next);
    link.flushed = next;
    link.generation += 1;
    let generation = link.generation;
    // The clone shares the socket (and its read timeout) with the
    // writer half; it becomes the ack reader's handle.
    let reader_stream = stream.try_clone()?;
    link.stream = Some(stream);
    link.last_heard = Instant::now();
    link.last_ping = Instant::now();
    link.pings_unanswered = 0;
    // Replay the unacked tail before anything else touches the link.
    flush_pending(link, &shared.stats)?;
    let reader_handle = Arc::clone(handle);
    let reader_stop = Arc::clone(&shared.stop);
    std::thread::Builder::new()
        .name(format!("chorus-tcp-ack-{to}"))
        .spawn(move || ack_reader(reader_stream, acc, reader_handle, reader_stop, generation))
        .map_err(|e| std::io::Error::other(format!("spawning ack reader: {e}")))?;
    Ok(())
}

/// Establishes `link`'s connection, retrying with jittered exponential
/// backoff against the outage's bounded budget.
///
/// `burst` limits attempts consumed in *this call* (the supervisor
/// reconnects in short bursts per sweep; the send path stays until the
/// budget resolves). The budget itself is cumulative across calls via
/// `link.outage`.
fn establish(
    shared: &Arc<SendShared>,
    to: &'static str,
    handle: &Arc<LinkCell>,
    link: &mut SendLink,
    burst: Option<u32>,
) -> Result<(), TransportError> {
    if let Some((elapsed, attempts)) = link.down {
        return Err(link_down_error(shared.me, to, elapsed, attempts));
    }
    let addr =
        *shared.addrs.get(to).ok_or_else(|| TransportError::UnknownLocation(to.to_string()))?;
    if link.outage.is_none() {
        link.outage = Some(Outage { since: Instant::now(), attempts: 0 });
    }
    let salt = jitter_salt(to);
    let mut tried_this_call = 0u32;
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return Err(TransportError::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "transport shutting down",
            )));
        }
        let (since, attempts) = {
            let outage = link.outage.as_ref().expect("outage set above");
            (outage.since, outage.attempts)
        };
        if attempts >= shared.tuning.retry_limit {
            let elapsed = since.elapsed();
            link.down = Some((elapsed, attempts));
            shared.stats.links_down.fetch_add(1, Ordering::Relaxed);
            // Senders parked on the retention watermark observe the
            // terminal state and surface `RetentionExceeded`.
            handle.notify_pruned();
            return Err(link_down_error(shared.me, to, elapsed, attempts));
        }
        if burst.is_some_and(|budget| tried_this_call >= budget) {
            return Err(TransportError::Io(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "reconnect pass budget spent; the supervisor retries next sweep",
            )));
        }
        match try_connect_once(shared, to, handle, link, addr) {
            Ok(()) => {
                link.outage = None;
                link.down = None;
                link.established += 1;
                if link.established > 1 {
                    shared.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(());
            }
            Err(_) => {
                #[cfg(test)]
                tests::FAILED_CONNECT_ATTEMPTS.fetch_add(1, Ordering::Relaxed);
                kill_stream(link);
                let outage = link.outage.as_mut().expect("kill_stream keeps the outage");
                outage.attempts += 1;
                tried_this_call += 1;
                let delay = backoff_delay(shared.tuning.retry_base, outage.attempts, salt);
                std::thread::sleep(delay);
            }
        }
    }
}

/// Drains acknowledgements (and heartbeat replies) of one established
/// connection, pruning the retention queue. Exits when the connection
/// dies (tearing the link down for the supervisor to rebuild) or when a
/// newer connection supersedes this generation.
fn ack_reader(
    mut stream: TcpStream,
    mut acc: FrameAccumulator,
    handle: Arc<LinkCell>,
    stop: Arc<AtomicBool>,
    generation: u64,
) {
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match acc.poll(&mut stream) {
            Ok(Some(body)) => {
                let next = match LinkFrame::decode(body) {
                    Ok(LinkFrame::Control(ControlFrame::Ack { next })) => Some(next),
                    Ok(LinkFrame::Control(ControlFrame::Pong { next, .. })) => Some(next),
                    Ok(_) => None,
                    Err(_) => None,
                };
                if let Some(next) = next {
                    let mut link = handle.lock();
                    if link.generation != generation {
                        return;
                    }
                    link.acked = link.acked.max(next);
                    let below = link.acked;
                    let pruned = prune_acked(&mut link, below);
                    link.last_heard = Instant::now();
                    link.pings_unanswered = 0;
                    drop(link);
                    if pruned > 0 {
                        handle.notify_pruned();
                    }
                }
            }
            Ok(None) => {
                // Idle tick: cheap staleness check so superseded readers
                // exit instead of lingering on a parked connection.
                if handle.lock().generation != generation {
                    return;
                }
            }
            Err(_) => {
                let mut link = handle.lock();
                if link.generation == generation {
                    kill_stream(&mut link);
                }
                return;
            }
        }
    }
}

/// The per-endpoint link supervisor: heartbeats established links,
/// tears down half-dead ones, and re-establishes broken links in the
/// background so retained frames replay even when the application has
/// nothing new to send.
fn supervisor_loop(shared: Arc<SendShared>) {
    let tick = shared.tuning.supervisor_tick();
    while !shared.stop.load(Ordering::Relaxed) {
        std::thread::sleep(tick);
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let links: Vec<(&'static str, Arc<LinkCell>)> =
            shared.links.lock().iter().map(|(to, handle)| (*to, Arc::clone(handle))).collect();
        for (to, handle) in links {
            // A contended link is being actively worked (a sender in
            // `establish`, an ack reader pruning); blocking the whole
            // sweep on it would starve every other link of heartbeats
            // and misread their silence as deadness. Skip and revisit.
            let Some(mut link) = handle.try_lock() else { continue };
            if link.down.is_some() {
                continue;
            }
            if link.stream.is_some() {
                if link.pings_unanswered >= DEAD_AFTER_PINGS
                    && link.last_heard.elapsed() >= shared.tuning.dead_after()
                {
                    // Probes went out and nothing came back: presumed
                    // half-dead (e.g. one direction blackholed). Tear it
                    // down; replay brings the retained tail back on the
                    // next connection.
                    kill_stream(&mut link);
                } else if link.last_ping.elapsed() >= shared.tuning.heartbeat {
                    link.nonce += 1;
                    let ping = ControlFrame::Ping { nonce: link.nonce };
                    let SendLink { stream, .. } = &mut *link;
                    if write_control(stream.as_mut().expect("checked above"), &ping).is_ok() {
                        link.last_ping = Instant::now();
                        link.pings_unanswered += 1;
                        shared.stats.heartbeats.fetch_add(1, Ordering::Relaxed);
                    } else {
                        kill_stream(&mut link);
                    }
                }
            } else if !link.unacked.is_empty() {
                // A receiver is owed frames we still retain: reconnect in
                // short bursts (the cumulative budget lives in the
                // outage) without monopolizing the sweep.
                let _ = establish(&shared, to, &handle, &mut link, Some(2));
            }
        }
    }
}

/// The coalescing flusher: when sends park frames behind a nonzero
/// `flush_delay` window, this thread wakes at the *first*
/// enqueue, sleeps out the window (letting the batch accumulate), and
/// writes every dirty link's backlog as one vectored flush. Because
/// the signal fires on the first frame, a lone frame's latency is
/// bounded by the window — it is never stalled waiting for company.
fn flusher_loop(shared: Arc<SendShared>) {
    let window = shared.tuning.flush_delay;
    // Bound idle parks so shutdown is prompt even with no traffic.
    let tick = shared.tuning.supervisor_tick();
    while !shared.stop.load(Ordering::Relaxed) {
        let mut signalled = shared.flush_signal.lock();
        while !*signalled {
            let (guard, _timed_out) =
                shared.flush_signal.wait_deadline(signalled, Instant::now() + tick);
            signalled = guard;
            if shared.stop.load(Ordering::Relaxed) {
                return;
            }
        }
        *signalled = false;
        drop(signalled);
        // Re-arm the fast-path gate before sleeping: deposits from here
        // on signal the *next* round (and are usually also caught by
        // this one, since the dirty links are scanned after the
        // window).
        shared.dirty_hint.store(false, Ordering::Relaxed);
        // The coalescing window: frames sent while we sleep join the
        // batch (and set the signal again, harmlessly).
        std::thread::sleep(window);
        let links: Vec<Arc<LinkCell>> = shared.links.lock().values().map(Arc::clone).collect();
        for handle in links {
            let mut link = handle.lock();
            if !link.dirty {
                continue;
            }
            link.dirty = false;
            if link.stream.is_some() && flush_pending(&mut link, &shared.stats).is_err() {
                // The retained tail is non-empty, so the supervisor
                // re-establishes and replays in the background.
                kill_stream(&mut link);
            }
        }
    }
}

/// One endpoint of a TCP-connected choreography.
pub struct TcpTransport<L: LocationSet, Target: ChoreographyLocation> {
    /// The census, resolved once so per-message destination/sender
    /// validation works over interned names.
    names: InternedNames,
    send: Arc<SendShared>,
    inbox: Arc<Inbox>,
    /// Sequence counters for the raw (sessionless) compatibility path.
    raw_seqs: Mutex<HashMap<&'static str, u64>>,
    stop: Arc<AtomicBool>,
    system: PhantomData<(L, Target)>,
}

impl<L: LocationSet, Target: ChoreographyLocation> TcpTransport<L, Target> {
    /// Binds `target`'s listener and starts its acceptor and link
    /// supervisor threads (plus, with a nonzero `flush_delay`, the
    /// coalescing flusher).
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot bind to the configured
    /// address.
    pub fn bind(target: Target, config: TcpConfig<L>) -> Result<Self, TransportError> {
        let _ = target;
        let addr = *config
            .addrs
            .get(Target::NAME)
            .ok_or_else(|| TransportError::UnknownLocation(Target::NAME.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;

        let peers: HashSet<&'static str> =
            L::names().into_iter().filter(|n| *n != Target::NAME).collect();
        let tuning = config.tuning;
        let stats = Arc::new(LinkStats::default());
        let inbox = Arc::new(Inbox::default());
        let stop = Arc::new(AtomicBool::new(false));

        let acceptor_inbox = Arc::clone(&inbox);
        let acceptor_stats = Arc::clone(&stats);
        let acceptor_stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            accept_loop(listener, peers, acceptor_inbox, acceptor_stats, tuning, acceptor_stop);
        });

        let send = Arc::new(SendShared {
            me: Target::NAME,
            addrs: config.addrs.clone(),
            tuning,
            stats,
            stop: Arc::clone(&stop),
            links: Mutex::new(HashMap::new()),
            flush_signal: park::WaitQueue::new(false),
            dirty_hint: AtomicBool::new(false),
        });
        let supervisor_shared = Arc::clone(&send);
        std::thread::Builder::new()
            .name("chorus-tcp-supervisor".into())
            .spawn(move || supervisor_loop(supervisor_shared))
            .map_err(|e| {
                TransportError::Io(std::io::Error::other(format!("spawning link supervisor: {e}")))
            })?;
        if tuning.flush_delay > Duration::ZERO {
            let flusher_shared = Arc::clone(&send);
            std::thread::Builder::new()
                .name("chorus-tcp-flusher".into())
                .spawn(move || flusher_loop(flusher_shared))
                .map_err(|e| {
                    TransportError::Io(std::io::Error::other(format!(
                        "spawning coalescing flusher: {e}"
                    )))
                })?;
        }

        Ok(TcpTransport {
            names: InternedNames::of::<L>(),
            send,
            inbox,
            raw_seqs: Mutex::new(HashMap::new()),
            stop,
            system: PhantomData,
        })
    }

    /// A snapshot of this endpoint's link-layer activity: reconnects,
    /// replayed and deduplicated frames, heartbeats, downed links.
    pub fn link_stats(&self) -> TcpLinkStats {
        self.send.stats.snapshot()
    }

    /// Chaos/test hook: hard-kills every currently established outgoing
    /// connection (as a crashed middlebox would), returning how many
    /// were torn down. The links replay their retained tails on
    /// reconnect; sessions observe only latency.
    pub fn break_established_links(&self) -> usize {
        let handles: Vec<Arc<LinkCell>> = self.send.links.lock().values().map(Arc::clone).collect();
        let mut killed = 0;
        for handle in handles {
            let mut link = handle.lock();
            if link.stream.is_some() {
                kill_stream(&mut link);
                killed += 1;
            }
        }
        killed
    }

    /// What the link to `to` currently retains, as
    /// `(frames, wire_bytes)` — the quantity the `retain_max`
    /// watermark bounds. Test/introspection hook; `(0, 0)` for unknown
    /// peers or links never used.
    pub fn retention(&self, to: &str) -> (usize, usize) {
        let Ok(to) = self.names.resolve(to) else {
            return (0, 0);
        };
        let handle = self.send.links.lock().get(to).map(Arc::clone);
        handle.map_or((0, 0), |handle| {
            let link = handle.lock();
            (link.unacked.len(), link.retained_bytes)
        })
    }

    fn link_handle(&self, to: &'static str) -> Arc<LinkCell> {
        let mut links = self.send.links.lock();
        Arc::clone(links.entry(to).or_insert_with(|| Arc::new(LinkCell::new())))
    }
}

fn accept_loop(
    listener: TcpListener,
    peers: HashSet<&'static str>,
    inbox: Arc<Inbox>,
    stats: Arc<LinkStats>,
    tuning: LinkTuning,
    stop: Arc<AtomicBool>,
) {
    // A hello is the version byte and a census name; nothing longer is
    // read from a connector that has not yet named itself.
    let hello_max = 1 + peers.iter().map(|name| name.len()).max().unwrap_or(0);
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let inbox = Arc::clone(&inbox);
                let stats = Arc::clone(&stats);
                let stop = Arc::clone(&stop);
                let peers = peers.clone();
                std::thread::spawn(move || {
                    stream.set_nonblocking(false).ok();
                    stream.set_nodelay(true).ok();
                    // A connector that never says hello must not pin
                    // this thread past `stop`.
                    stream.set_read_timeout(Some(tuning.handshake_timeout())).ok();
                    // Hello frame: the link-protocol version, then the
                    // peer's location name; resolve it to the interned
                    // census name once, so every subsequent frame
                    // routes without allocating. Anything else closes
                    // the connection.
                    let Ok(hello) = read_hello(&mut stream, hello_max) else { return };
                    let Some((&LINK_VERSION, name_bytes)) = hello.split_first() else { return };
                    let Ok(name) = std::str::from_utf8(name_bytes) else { return };
                    let Some(name) = peers.get(name).copied() else {
                        return;
                    };
                    reader_loop(stream, name, inbox, stats, tuning, stop);
                });
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => {
                // Transient accept failures (e.g. ECONNABORTED when a
                // queued peer resets before we accept) must not kill
                // the listener for everyone else.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// Deposits a decoded burst into the inbox, keeping the duplicate
/// stats and the ack cadence counter in step. Returns `false` when the
/// burst poisoned the link with a cursor gap (the reader must exit).
fn drain_batch(
    inbox: &Inbox,
    stats: &LinkStats,
    name: &'static str,
    batch: &mut Vec<(u64, Envelope)>,
    accepted_since_ack: &mut u32,
) -> bool {
    if batch.is_empty() {
        return true;
    }
    let outcome = inbox.deposit_batch(name, batch);
    if outcome.duplicates > 0 {
        stats.duplicates.fetch_add(outcome.duplicates, Ordering::Relaxed);
    }
    if outcome.accepted > 0 {
        stats.deposited.fetch_add(u64::from(outcome.accepted), Ordering::Relaxed);
    }
    *accepted_since_ack = accepted_since_ack.saturating_add(outcome.accepted);
    !outcome.gap
}

/// Drives one accepted connection: resume-cursor handshake reply,
/// whole-burst frame decode and batch deposit, link dedup/gap
/// verdicts, cumulative acks at batch boundaries, heartbeat replies.
fn reader_loop(
    mut stream: TcpStream,
    name: &'static str,
    inbox: Arc<Inbox>,
    stats: Arc<LinkStats>,
    tuning: LinkTuning,
    stop: Arc<AtomicBool>,
) {
    // Timeout ticks keep shutdown prompt and drive pending-ack flushes.
    stream.set_read_timeout(Some(tuning.io_tick())).ok();
    // Tell the (re)connecting sender exactly where to replay from.
    let next = inbox.link_cursor(name);
    if write_control(&mut stream, &ControlFrame::Resume { next }).is_err() {
        return;
    }
    let mut acc = FrameAccumulator::default();
    let mut accepted_since_ack: u32 = 0;
    let mut batch: Vec<(u64, Envelope)> = Vec::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            // The sender's own drop lingers until its retained frames
            // are acknowledged, and nobody else will ever tell it about
            // these: pay the owed ack before going.
            if accepted_since_ack > 0 {
                let next = inbox.link_cursor(name);
                let _ = write_control(&mut stream, &ControlFrame::Ack { next });
            }
            return;
        }
        // Decode immediately so the borrow of the accumulator ends and
        // the burst-drain below can keep pulling buffered frames.
        let polled = match acc.poll(&mut stream) {
            Ok(Some(body)) => Some(LinkFrame::decode(body)),
            Ok(None) => None,
            // The connection ended. That is not an event sessions may
            // observe — the sender reconnects and the cursor resumes
            // the stream.
            Err(_) => return,
        };
        let Some(mut frame) = polled else {
            // Timeout tick: flush a pending cumulative ack so a sender
            // trickling frames slower than ACK_EVERY still drains its
            // retention queue promptly.
            if accepted_since_ack > 0 {
                accepted_since_ack = 0;
                let next = inbox.link_cursor(name);
                if write_control(&mut stream, &ControlFrame::Ack { next }).is_err() {
                    return;
                }
            }
            continue;
        };
        // Decode the whole buffered burst before depositing: one inbox
        // lock and at most one waker fire per mailbox per drain, not
        // per frame.
        loop {
            match frame {
                Ok(LinkFrame::Data { link_seq, envelope }) => {
                    batch.push((link_seq, envelope));
                }
                Ok(LinkFrame::Control(ControlFrame::Ping { nonce })) => {
                    // Deposit what preceded the probe so the pong's
                    // piggybacked cursor covers it, doubling as an ack.
                    if !drain_batch(&inbox, &stats, name, &mut batch, &mut accepted_since_ack) {
                        return;
                    }
                    accepted_since_ack = 0;
                    let next = inbox.link_cursor(name);
                    if write_control(&mut stream, &ControlFrame::Pong { nonce, next }).is_err() {
                        return;
                    }
                }
                Ok(LinkFrame::Control(_)) => {
                    // Ack/Pong/Resume have no meaning inbound here.
                }
                Err(e) => {
                    // Deliver the frames that preceded the bad one,
                    // then close loudly.
                    drain_batch(&inbox, &stats, name, &mut batch, &mut accepted_since_ack);
                    inbox.close(name, format!("bad frame: {e}"));
                    return;
                }
            }
            match acc.next_buffered() {
                Some(body) => frame = LinkFrame::decode(body),
                None => break,
            }
        }
        if !drain_batch(&inbox, &stats, name, &mut batch, &mut accepted_since_ack) {
            return;
        }
        // Ack at the batch boundary: a burst whose tail lands exactly
        // on the cadence must not leave the sender's retention tail
        // unpruned until the idle tick or a heartbeat.
        if accepted_since_ack >= ACK_EVERY {
            accepted_since_ack = 0;
            let next = inbox.link_cursor(name);
            if write_control(&mut stream, &ControlFrame::Ack { next }).is_err() {
                return;
            }
        }
    }
}

impl<L: LocationSet, Target: ChoreographyLocation> Drop for TcpTransport<L, Target> {
    fn drop(&mut self) {
        // A participant can finish its role (and drop its endpoint)
        // while a slower peer is still owed retained frames — perhaps
        // on a connection that just died. Linger briefly so the
        // supervisor finishes reconnecting and replaying; leaving
        // immediately would strand the tail and starve the peer.
        let cap = (self.send.tuning.dead_after() * 3)
            .clamp(Duration::from_secs(1), Duration::from_secs(3));
        let deadline = Instant::now() + cap;
        loop {
            let drained = {
                let links = self.send.links.lock();
                links.values().all(|handle| {
                    handle
                        .try_lock()
                        .is_some_and(|link| link.unacked.is_empty() || link.down.is_some())
                })
            };
            if drained || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.stop.store(true, Ordering::Relaxed);
        self.send.flush_signal.notify_all();
        // Shut established streams down so reader/supervisor threads
        // notice promptly instead of waiting out their timeout ticks.
        let handles: Vec<Arc<LinkCell>> = self.send.links.lock().values().map(Arc::clone).collect();
        for handle in handles {
            if let Some(mut link) = handle.try_lock() {
                if let Some(stream) = link.stream.take() {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
            }
        }
    }
}

impl<L: LocationSet, Target: ChoreographyLocation> SessionTransport<L, Target>
    for TcpTransport<L, Target>
{
    fn send_frame(&self, to: &str, frame: Envelope) -> Result<(), TransportError> {
        let to_static = self.names.resolve(to)?;
        let handle = self.link_handle(to_static);
        let mut link = handle.lock();
        if let Some((elapsed, attempts)) = link.down {
            return Err(link_down_error(self.send.me, to_static, elapsed, attempts));
        }
        let wire_len = data_frame_wire_len(&frame);
        let limit = self.send.tuning.retain_max;
        if limit > 0 && !link.unacked.is_empty() && link.retained_bytes + wire_len > limit {
            link =
                wait_for_retention_room(self.send.me, to_static, &handle, link, wire_len, limit)?;
        }
        // Retain first (the sequence is assigned *after* any watermark
        // park, so queue order always matches sequence order): whatever
        // happens to the connection from here on, the frame is queued
        // and will reach the peer (or the link goes down loudly).
        let seq = link.next_seq;
        link.next_seq += 1;
        link.retained_bytes += wire_len;
        link.unflushed_bytes += wire_len;
        link.unacked.push_back((seq, frame));
        if link.stream.is_none() {
            return establish(&self.send, to_static, &handle, &mut link, None);
        }
        if self.send.tuning.flush_delay > Duration::ZERO
            && link.unflushed_bytes < FLUSH_INLINE_BYTES
        {
            // Park the frame behind the coalescing window; the flusher
            // writes the whole backlog as one batch.
            link.dirty = true;
            drop(link);
            self.send.note_dirty();
            return Ok(());
        }
        if flush_pending(&mut link, &self.send.stats).is_err() {
            kill_stream(&mut link);
            return establish(&self.send, to_static, &handle, &mut link, None);
        }
        Ok(())
    }

    fn receive_frame(&self, session: SessionId, from: &str) -> Result<Envelope, TransportError> {
        let from = self.names.resolve(from)?;
        if from == Target::NAME {
            return Err(TransportError::UnknownLocation(from.to_string()));
        }
        self.inbox.take(session, from)
    }

    fn try_receive_frame(
        &self,
        session: SessionId,
        from: &str,
    ) -> Result<Option<Envelope>, TransportError> {
        let from = self.names.resolve(from)?;
        if from == Target::NAME {
            return Err(TransportError::UnknownLocation(from.to_string()));
        }
        self.inbox.try_take(session, from)
    }

    fn register_waker(
        &self,
        session: SessionId,
        from: &str,
        waker: MailboxWaker,
    ) -> Result<bool, TransportError> {
        let from = self.names.resolve(from)?;
        if from == Target::NAME {
            return Err(TransportError::UnknownLocation(from.to_string()));
        }
        self.inbox.register(session, from, waker)
    }
}

impl<L: LocationSet, Target: ChoreographyLocation> Transport<L, Target>
    for TcpTransport<L, Target>
{
    fn send(&self, to: &str, data: &[u8]) -> Result<(), TransportError> {
        let seq = {
            let to_static = self.names.resolve(to)?;
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
    use std::sync::atomic::AtomicU64;

    /// Counts connect attempts that failed and went into the retry
    /// loop, so `connect_retries_until_peer_binds` can *force* the
    /// retry path instead of hoping a race exercises it.
    pub(super) static FAILED_CONNECT_ATTEMPTS: AtomicU64 = AtomicU64::new(0);

    chorus_core::locations! { Alice, Bob }
    type System = chorus_core::LocationSet!(Alice, Bob);

    fn config() -> TcpConfig<System> {
        let addrs = free_local_addrs(2).unwrap();
        TcpConfigBuilder::new()
            .location(Alice, addrs[0])
            .location(Bob, addrs[1])
            .build::<System>()
            .unwrap()
    }

    #[test]
    fn config_requires_every_location() {
        let addrs = free_local_addrs(1).unwrap();
        let result = TcpConfigBuilder::new().location(Alice, addrs[0]).build::<System>();
        assert_eq!(result.unwrap_err(), vec!["Bob"]);
    }

    #[test]
    fn messages_cross_sockets_in_order() {
        let config = config();
        let a_cfg = config.clone();
        let b_cfg = config;
        let bob = std::thread::spawn(move || {
            let t = TcpTransport::bind(Bob, b_cfg).unwrap();
            let one = t.receive("Alice").unwrap();
            let two = t.receive("Alice").unwrap();
            t.send("Alice", b"ack").unwrap();
            (one, two)
        });
        let alice = TcpTransport::bind(Alice, a_cfg).unwrap();
        alice.send("Bob", b"first").unwrap();
        alice.send("Bob", b"second").unwrap();
        assert_eq!(alice.receive("Bob").unwrap(), b"ack");
        let (one, two) = bob.join().unwrap();
        assert_eq!(one, b"first");
        assert_eq!(two, b"second");
    }

    #[test]
    fn connect_retries_until_peer_binds() {
        let config = config();
        let a_cfg = config.clone();
        let b_cfg = config;
        // Alice starts sending before Bob has bound its listener, and
        // Bob binds only after observing at least one *failed* connect
        // attempt — so the retry path is exercised deterministically,
        // with no wall-clock sleep. (The counter is global across this
        // test binary, so a concurrent test's failed connect could in
        // principle satisfy the gate early; the test then degrades to
        // racing the bind, never to flaking.)
        let before = FAILED_CONNECT_ATTEMPTS.load(Ordering::Relaxed);
        let alice = std::thread::spawn(move || {
            let t = TcpTransport::bind(Alice, a_cfg).unwrap();
            t.send("Bob", b"early").unwrap();
        });
        while FAILED_CONNECT_ATTEMPTS.load(Ordering::Relaxed) == before {
            std::thread::yield_now();
        }
        let bob = TcpTransport::bind(Bob, b_cfg).unwrap();
        assert_eq!(bob.receive("Alice").unwrap(), b"early");
        alice.join().unwrap();
    }

    #[test]
    fn empty_payloads_are_delivered() {
        let config = config();
        let a_cfg = config.clone();
        let b_cfg = config;
        let bob = std::thread::spawn(move || {
            let t = TcpTransport::bind(Bob, b_cfg).unwrap();
            t.receive("Alice").unwrap()
        });
        let alice = TcpTransport::bind(Alice, a_cfg).unwrap();
        alice.send("Bob", b"").unwrap();
        assert_eq!(bob.join().unwrap(), b"");
    }

    #[test]
    fn sessions_demultiplex_on_one_socket() {
        let config = config();
        let a_cfg = config.clone();
        let b_cfg = config;
        let bob = std::thread::spawn(move || {
            let t = TcpTransport::bind(Bob, b_cfg).unwrap();
            // Read the later session first; the earlier one must be intact.
            let s2 = t.receive_frame(2, "Alice").unwrap();
            let s1a = t.receive_frame(1, "Alice").unwrap();
            let s1b = t.receive_frame(1, "Alice").unwrap();
            (s2.payload, s1a.payload, s1b.payload)
        });
        let alice = TcpTransport::bind(Alice, a_cfg).unwrap();
        alice.send_frame("Bob", Envelope::new(1, 0, b"s1-first".to_vec())).unwrap();
        alice.send_frame("Bob", Envelope::new(1, 1, b"s1-second".to_vec())).unwrap();
        alice.send_frame("Bob", Envelope::new(2, 0, b"s2-only".to_vec())).unwrap();
        let (s2, s1a, s1b) = bob.join().unwrap();
        assert_eq!(s2, b"s2-only");
        assert_eq!(s1a, b"s1-first");
        assert_eq!(s1b, b"s1-second");
    }

    #[test]
    fn killed_connections_replay_the_unacked_tail() {
        // Fast heartbeat so the test's reconnect window is tight.
        let addrs = free_local_addrs(2).unwrap();
        let cfg = TcpConfigBuilder::new()
            .location(Alice, addrs[0])
            .location(Bob, addrs[1])
            .heartbeat(Duration::from_millis(50))
            .retry_base(Duration::from_millis(2))
            .build::<System>()
            .unwrap();
        let a_cfg = cfg.clone();
        let b_cfg = cfg;
        let bob = std::thread::spawn(move || {
            let t = TcpTransport::bind(Bob, b_cfg).unwrap();
            let mut got = Vec::new();
            for _ in 0..6 {
                got.push(t.receive("Alice").unwrap());
            }
            t.send("Alice", b"done").unwrap();
            got
        });
        let alice = TcpTransport::bind(Alice, a_cfg).unwrap();
        for i in 0..3u8 {
            alice.send("Bob", &[i]).unwrap();
        }
        // Hard-kill the established connection mid-session; the next
        // sends re-establish and the link replays anything unacked.
        assert!(alice.break_established_links() >= 1);
        for i in 3..6u8 {
            alice.send("Bob", &[i]).unwrap();
        }
        assert_eq!(alice.receive("Bob").unwrap(), b"done");
        let got = bob.join().unwrap();
        assert_eq!(got, vec![vec![0], vec![1], vec![2], vec![3], vec![4], vec![5]]);
        let stats = alice.link_stats();
        assert!(stats.reconnects >= 1, "kill must force a reconnect: {stats:?}");
    }

    #[test]
    fn exhausted_retry_budget_surfaces_link_down() {
        // Bob's address is reserved but never bound: every connect is
        // refused, so the budget drains deterministically and fast.
        let addrs = free_local_addrs(2).unwrap();
        let cfg = TcpConfigBuilder::new()
            .location(Alice, addrs[0])
            .location(Bob, addrs[1])
            .retry_limit(3)
            .retry_base(Duration::from_millis(1))
            .build::<System>()
            .unwrap();
        let alice = TcpTransport::<System, _>::bind(Alice, cfg).unwrap();
        let err = alice.send("Bob", b"void").unwrap_err();
        match &err {
            TransportError::LinkDown { edge, attempts, .. } => {
                assert_eq!(edge, "Alice->Bob");
                assert_eq!(*attempts, 3);
            }
            other => panic!("expected LinkDown, got {other:?}"),
        }
        // The link is terminally down: later sends fail immediately.
        let again = alice.send("Bob", b"still void").unwrap_err();
        assert!(matches!(again, TransportError::LinkDown { .. }), "got {again:?}");
        assert_eq!(alice.link_stats().links_down, 1);
    }

    #[test]
    fn batches_coalesce_under_flush_delay() {
        let addrs = free_local_addrs(2).unwrap();
        let cfg = TcpConfigBuilder::new()
            .location(Alice, addrs[0])
            .location(Bob, addrs[1])
            .flush_delay(Duration::from_millis(20))
            .build::<System>()
            .unwrap();
        let a_cfg = cfg.clone();
        let b_cfg = cfg;
        let bob = std::thread::spawn(move || {
            let t = TcpTransport::bind(Bob, b_cfg).unwrap();
            let mut got = Vec::new();
            for _ in 0..12 {
                got.push(t.receive("Alice").unwrap());
            }
            t.send("Alice", b"done").unwrap();
            got
        });
        let alice = TcpTransport::bind(Alice, a_cfg).unwrap();
        for i in 0..12u8 {
            alice.send("Bob", &[i]).unwrap();
        }
        assert_eq!(alice.receive("Bob").unwrap(), b"done");
        let got = bob.join().unwrap();
        assert_eq!(got, (0..12u8).map(|i| vec![i]).collect::<Vec<_>>());
        let stats = alice.link_stats();
        assert!(stats.batched_frames >= 12, "every frame flushes in a batch: {stats:?}");
        assert!(
            stats.batches < stats.batched_frames,
            "the window must coalesce at least one multi-frame batch: {stats:?}"
        );
    }

    #[test]
    fn single_frame_larger_than_watermark_still_sends() {
        // A watermark below one frame's wire footprint must admit the
        // frame when the queue is empty — otherwise it could never be
        // sent at all.
        let addrs = free_local_addrs(2).unwrap();
        let cfg = TcpConfigBuilder::new()
            .location(Alice, addrs[0])
            .location(Bob, addrs[1])
            .retain_max(64)
            .build::<System>()
            .unwrap();
        let a_cfg = cfg.clone();
        let b_cfg = cfg;
        let bob = std::thread::spawn(move || {
            let t = TcpTransport::bind(Bob, b_cfg).unwrap();
            t.receive("Alice").unwrap()
        });
        let alice = TcpTransport::bind(Alice, a_cfg).unwrap();
        let oversized = vec![7u8; 4096];
        alice.send("Bob", &oversized).unwrap();
        assert_eq!(bob.join().unwrap(), oversized);
    }

    #[test]
    fn retention_reports_and_drains() {
        let addrs = free_local_addrs(2).unwrap();
        let cfg = TcpConfigBuilder::new()
            .location(Alice, addrs[0])
            .location(Bob, addrs[1])
            .heartbeat(Duration::from_millis(50))
            .build::<System>()
            .unwrap();
        let a_cfg = cfg.clone();
        let b_cfg = cfg;
        let _bob = TcpTransport::<System, _>::bind(Bob, b_cfg).unwrap();
        let alice = TcpTransport::<System, _>::bind(Alice, a_cfg).unwrap();
        alice.send("Bob", b"tracked").unwrap();
        // Acks prune the retention queue without the application ever
        // receiving: the watermark accounting must return to zero.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (frames, bytes) = alice.retention("Bob");
            if frames == 0 && bytes == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "retention never drained: {frames} frames");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
