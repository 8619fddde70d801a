//! The send side of one link: the retention queue of unacknowledged
//! frames, the watermark that bounds it, the control frames owed to
//! the peer, and the self-clocked batch writer.
//!
//! A sender holds its link's lock only to queue its frame. Whoever
//! finds no write in progress becomes the link's writer: it assembles
//! the next batch under the lock, releases the lock for the vectored
//! write, and comes back for whatever queued meanwhile until nothing
//! is left. A sender that finds a write in progress returns at once;
//! its frame is retained, and the writer takes it on its next batch.
//! A sender on a pool worker does not take the role: it records the
//! link in the worker's pass, and the worker takes the role for it when
//! the pass ends ([`LinkCell`]'s [`DeferredWrite`]).
//!
//! The writer role is the only way onto an established connection. The
//! acks, pongs and pings this endpoint owes the peer are marked on the
//! link ([`SendLink::owe_ack`] and its siblings) and lead the next
//! batch; a thread that holds a connection's read role never writes on
//! it.

use super::connect::establish;
use super::inbox::Inbox;
use super::recv::{Conn, Summons};
use crate::link::{LinkStats, LinkTuning};
use chorus_core::park::{self, DeferredWrite};
use chorus_core::sync::{Mutex, MutexGuard};
use chorus_core::TransportError;
use chorus_wire::{
    data_frame_wire_len, data_header, Bytes, ControlFrame, Envelope, CONTROL_MAX_LEN,
    DATA_FRAME_OVERHEAD, DATA_HEADER_LEN,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{IoSlice, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Poll, Waker};
use std::time::{Duration, Instant};

/// An ongoing connection outage on one link: when it began, how many
/// attempts the retry budget has consumed, and whether the last one was
/// refused.
pub(super) struct Outage {
    pub(super) since: Instant,
    pub(super) attempts: u32,
    /// Nothing listened at the peer's address on the last attempt: the
    /// peer is gone, and nothing it is owed will be drained.
    pub(super) refused: bool,
}

impl Outage {
    pub(super) fn begin() -> Self {
        Outage { since: Instant::now(), attempts: 0, refused: false }
    }
}

/// One link to a peer: the connection both directions share, the
/// retention queue of unacknowledged frames, the control frames owed
/// to the peer, and the reconnect bookkeeping.
pub(super) struct SendLink {
    /// The connection this endpoint sends on: one it dialed, or one the
    /// peer dialed and this endpoint adopted. Shared with the writer,
    /// which writes through it outside the lock, and with its reader.
    pub(super) stream: Option<Arc<Conn>>,
    /// A thread is establishing the link with the lock released,
    /// dialing or backing off: other senders leave their frames
    /// retained and return.
    pub(super) connecting: bool,
    /// Its dial is in flight: a crossing dial from the peer is settled
    /// by name.
    pub(super) dialing: bool,
    /// Bumped per connection adopted, so the writer of a dead
    /// connection can tell it has been superseded and must not touch
    /// the link's fresh state.
    pub(super) generation: u64,
    /// Successfully established connections (for reconnect stats).
    pub(super) established: u64,
    /// A thread holds the writer role on the current connection: it is
    /// writing a batch outside the lock and will come back for anything
    /// queued meanwhile. Cleared with the connection.
    pub(super) writing: bool,
    /// The reused batch buffers, here between writes (a writer takes
    /// them out and puts them back), so steady-state sends allocate
    /// nothing.
    pub(super) batch: Batch,
    /// Next link sequence to assign.
    pub(super) next_seq: u64,
    /// Frames below this are on the wire of the *current* connection.
    pub(super) flushed: u64,
    /// Highest sequence ever written to any connection (replay stats).
    pub(super) wire_high: u64,
    /// Everything the peer has not cumulatively acked, in order.
    /// Payloads are refcounted `Bytes`, so retention holds handles, not
    /// copies.
    pub(super) unacked: VecDeque<(u64, Envelope)>,
    /// Wire bytes `unacked` accounts for (headers + payloads), the
    /// quantity the `retain_max` watermark bounds.
    pub(super) retained_bytes: usize,
    /// Frames below this are acknowledged (pruned from `unacked`).
    pub(super) acked: u64,
    /// Last time the peer proved liveness (ack or pong).
    pub(super) last_heard: Instant,
    /// Last heartbeat probe written.
    pub(super) last_ping: Instant,
    /// Probes written since the peer last proved liveness. Deadness is
    /// judged by unanswered probes, not wall time, so a supervisor
    /// stalled elsewhere (e.g. a long reconnect on another link) cannot
    /// misread its own silence as the peer's.
    pub(super) pings_unanswered: u32,
    /// Heartbeat nonce counter.
    pub(super) nonce: u64,
    /// A cumulative ack owed to the peer: its frames below this cursor
    /// arrived. Leads the next batch.
    pub(super) owe_ack: Option<u64>,
    /// A heartbeat reply owed to the peer, `(nonce, cursor)`.
    pub(super) owe_pong: Option<(u64, u64)>,
    /// A heartbeat probe the supervisor wants written.
    pub(super) owe_ping: bool,
    /// Present while disconnected: the running retry budget.
    pub(super) outage: Option<Outage>,
    /// Terminal: the retry budget was exhausted `(elapsed, attempts)`.
    pub(super) down: Option<(Duration, u32)>,
    /// Threads waiting for a prune or the link-down: senders at the
    /// watermark, an endpoint lingering on drop.
    waiters: Vec<Waker>,
    /// A prune or the link-down happened under the lock: releasing it
    /// wakes `waiters` ([`LinkGuard`]).
    pub(super) settled: bool,
}

impl SendLink {
    pub(super) fn new() -> Self {
        let now = Instant::now();
        SendLink {
            stream: None,
            connecting: false,
            dialing: false,
            generation: 0,
            established: 0,
            writing: false,
            batch: Batch::default(),
            next_seq: 0,
            flushed: 0,
            wire_high: 0,
            unacked: VecDeque::new(),
            retained_bytes: 0,
            acked: 0,
            last_heard: now,
            last_ping: now,
            pings_unanswered: 0,
            nonce: 0,
            owe_ack: None,
            owe_pong: None,
            owe_ping: false,
            outage: None,
            down: None,
            waiters: Vec::new(),
            settled: false,
        }
    }

    /// Whether the peer is owed frames this link retains: some are not
    /// acknowledged, and the link is neither down nor refused.
    pub(super) fn owes_peer(&self) -> bool {
        !self.unacked.is_empty()
            && self.down.is_none()
            && !self.outage.as_ref().is_some_and(|outage| outage.refused)
    }

    /// Whether a control frame is owed to the peer.
    pub(super) fn owes_control(&self) -> bool {
        self.owe_ack.is_some() || self.owe_pong.is_some() || self.owe_ping
    }

    /// Whether the link has something to write and no writer: control
    /// frames owed, or retained frames not yet on its connection.
    pub(super) fn needs_writer(&self) -> bool {
        self.stream.is_some()
            && !self.writing
            && (self.owes_control() || self.flushed < self.next_seq)
    }

    /// Whether `conn` is the connection this link sends on.
    pub(super) fn sends_on(&self, conn: &Conn) -> bool {
        self.stream.as_deref().is_some_and(|stream| std::ptr::eq(stream, conn))
    }

    /// Stores `waker` for the next prune or link-down to wake.
    pub(super) fn wake_on_settle(&mut self, waker: &Waker) {
        if !self.waiters.iter().any(|waiter| waiter.will_wake(waker)) {
            self.waiters.push(waker.clone());
        }
    }
}

/// One send link behind its lock. A thread that waits on the link (a
/// sender at the watermark, an endpoint lingering on drop) stores its
/// waker in the link and parks; whoever prunes retention or takes the
/// link down under the lock wakes it once the lock is released.
pub(super) struct LinkCell {
    state: Mutex<SendLink>,
    /// The peer, and the endpoint's shared state (weak: the endpoint
    /// owns its links), for a write deferred to the end of a worker's
    /// pass.
    pub(super) to: &'static str,
    shared: Weak<Shared>,
    /// The peer's frames accepted since an ack was last marked owed;
    /// counted by whoever reads them, without the link's lock.
    pub(super) accepted: AtomicU32,
}

impl LinkCell {
    pub(super) fn new(to: &'static str, shared: Weak<Shared>) -> Self {
        LinkCell { state: Mutex::new(SendLink::new()), to, shared, accepted: AtomicU32::new(0) }
    }

    pub(super) fn lock(&self) -> LinkGuard<'_> {
        LinkGuard(Some(self.state.lock()))
    }

    pub(super) fn try_lock(&self) -> Option<LinkGuard<'_>> {
        self.state.try_lock().map(|guard| LinkGuard(Some(guard)))
    }

    /// Marks an ack owed for the peer's frames accepted since an ack
    /// was last marked, and returns the link locked.
    pub(super) fn owe_accepted(&self, inbox: &Inbox) -> LinkGuard<'_> {
        let accepted = self.accepted.swap(0, Ordering::Relaxed);
        let cursor = (accepted > 0).then(|| inbox.link_cursor(self.to));
        let mut link = self.lock();
        if cursor.is_some() {
            link.owe_ack = cursor;
        }
        link
    }
}

/// A held link lock. Released, it wakes the waiters of a prune or a
/// link-down that happened under it, outside the lock.
pub(super) struct LinkGuard<'a>(Option<MutexGuard<'a, SendLink>>);

impl Deref for LinkGuard<'_> {
    type Target = SendLink;

    fn deref(&self) -> &SendLink {
        self.0.as_ref().expect("held until dropped")
    }
}

impl DerefMut for LinkGuard<'_> {
    fn deref_mut(&mut self) -> &mut SendLink {
        self.0.as_mut().expect("held until dropped")
    }
}

impl Drop for LinkGuard<'_> {
    fn drop(&mut self) {
        let Some(mut link) = self.0.take() else { return };
        if !std::mem::take(&mut link.settled) {
            return;
        }
        let waiters = std::mem::take(&mut link.waiters);
        drop(link);
        for waiter in waiters {
            waiter.wake();
        }
    }
}

impl DeferredWrite for LinkCell {
    /// Takes the writer role for the frames pool-worker sends left on
    /// this link, exactly as a sender that found no write in progress
    /// would. An error tears the connection down and re-establishes it
    /// as on the send path; the frames stay retained either way.
    fn write_deferred(self: Arc<Self>) {
        let Some(shared) = self.shared.upgrade() else { return };
        let link = self.lock();
        let _ = write_or_leave(&shared, &self, link);
    }
}

/// Pops every retained frame below `below`, keeping `retained_bytes`
/// in step with the queue; a prune settles the link, so releasing the
/// lock wakes its waiters.
pub(super) fn prune_acked(link: &mut SendLink, below: u64) {
    while link.unacked.front().is_some_and(|(seq, _)| *seq < below) {
        let (_, envelope) = link.unacked.pop_front().expect("front checked above");
        link.retained_bytes = link.retained_bytes.saturating_sub(data_frame_wire_len(&envelope));
        link.settled = true;
    }
}

/// Tears down the link's current connection (if any), with its writer
/// role, and starts the outage clock if one is not already running. A
/// writer still inside a write on the old connection fails or finishes
/// it there; the next connection's replay covers its batch.
pub(super) fn kill_stream(link: &mut SendLink) {
    if let Some(conn) = link.stream.take() {
        conn.shut_down();
    }
    link.writing = false;
    link.outage.get_or_insert_with(Outage::begin);
}

/// An endpoint's state, shared by its transport handle and its
/// threads. Deliberately non-generic (the target's name is interned in
/// `me`).
pub(super) struct Shared {
    pub(super) me: &'static str,
    /// The census names other than `me`, as interned once.
    pub(super) peers: HashSet<&'static str>,
    pub(super) addrs: HashMap<&'static str, SocketAddr>,
    pub(super) tuning: LinkTuning,
    pub(super) stats: LinkStats,
    pub(super) stop: AtomicBool,
    /// Per-peer links. The outer lock is held only to look up or create
    /// an entry; dialing happens with no lock held (the link marked
    /// `connecting`), and writing in that peer's writer role, so one
    /// slow or dead peer never stalls sends to the others.
    pub(super) links: Mutex<HashMap<&'static str, Arc<LinkCell>>>,
    /// The receive side: every peer's mailboxes and link cursor.
    pub(super) inbox: Inbox,
    /// Wakes the supervisor before its next sweep, to write control
    /// frames owed on a link nobody is writing.
    pub(super) supervisor: Summons,
}

impl Shared {
    /// `to`'s link, created on first use.
    pub(super) fn link(self: &Arc<Self>, to: &'static str) -> Arc<LinkCell> {
        let mut links = self.links.lock();
        Arc::clone(
            links.entry(to).or_insert_with(|| Arc::new(LinkCell::new(to, Arc::downgrade(self)))),
        )
    }

    /// Every link, for a sweep with the outer lock released.
    pub(super) fn all_links(&self) -> Vec<Arc<LinkCell>> {
        self.links.lock().values().map(Arc::clone).collect()
    }
}

pub(super) fn link_down_error(
    me: &str,
    to: &str,
    elapsed: Duration,
    attempts: u32,
) -> TransportError {
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
pub(super) fn wait_for_retention_room<'a>(
    me: &str,
    to: &'static str,
    handle: &'a LinkCell,
    wire_len: usize,
    limit: usize,
) -> Result<LinkGuard<'a>, TransportError> {
    let exceeded = |link: &SendLink| TransportError::RetentionExceeded {
        edge: format!("{me}->{to}"),
        retained_bytes: link.retained_bytes,
        limit,
    };
    let deadline = Instant::now() + park::default_watchdog();
    park::wait(Some(deadline), |waker| {
        let mut link = handle.lock();
        // An empty queue admits the frame regardless: a single frame
        // larger than the watermark must still be sendable, or it could
        // never leave at all.
        if link.unacked.is_empty() || link.retained_bytes + wire_len <= limit {
            Poll::Ready(Ok(link))
        } else if link.down.is_some() {
            Poll::Ready(Err(exceeded(&link)))
        } else {
            link.wake_on_settle(waker);
            Poll::Pending
        }
    })
    .unwrap_or_else(|| Err(exceeded(&handle.lock())))
}

/// Frames per vectored batch: bounds the header buffer and keeps the
/// iovec array comfortably under `IOV_MAX` (two slices per frame).
const FLUSH_BATCH_MAX: usize = 256;

/// Control frames a batch can lead with: a pong or an ack, and a ping.
const CONTROL_IN_BATCH: usize = 2;

/// One vectored write's worth of frames: the owed control frames,
/// length-prefixed, then the data frames' fixed 33-byte headers back to
/// back, and a refcounted handle on each payload.
pub(super) struct Batch {
    control: [u8; CONTROL_IN_BATCH * (4 + CONTROL_MAX_LEN)],
    control_len: usize,
    headers: Vec<u8>,
    payloads: Vec<Bytes>,
}

impl Default for Batch {
    fn default() -> Self {
        Batch {
            control: [0; CONTROL_IN_BATCH * (4 + CONTROL_MAX_LEN)],
            control_len: 0,
            headers: Vec::new(),
            payloads: Vec::new(),
        }
    }
}

impl Batch {
    /// Appends one length-prefixed control frame.
    fn push_control(&mut self, frame: &ControlFrame) {
        let at = self.control_len;
        let len = frame.encode_into(&mut self.control[at + 4..]);
        self.control[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
        self.control_len = at + 4 + len;
    }
}

/// Assembles the next batch: the control frames owed to the peer, then
/// the retained frames not yet on the current connection (at most
/// [`FLUSH_BATCH_MAX`]), advancing `flushed` past them; or returns
/// `None` when nothing is owed and everything retained is on the wire.
/// The batch leaves the link, so it can be written outside the lock;
/// put it back in `link.batch` after the write.
///
/// # Errors
///
/// A frame whose length does not fit the `u32` prefix; nothing is
/// advanced.
pub(super) fn next_batch(link: &mut SendLink, stats: &LinkStats) -> std::io::Result<Option<Batch>> {
    // `unacked` holds contiguous sequences, so the first unflushed
    // frame is at a computable offset — no scan over the
    // acked-but-unpruned prefix.
    let skip = link
        .unacked
        .front()
        .map_or(0, |(first, _)| usize::try_from(link.flushed.saturating_sub(*first)).unwrap_or(0));
    if skip >= link.unacked.len() && !link.owes_control() {
        return Ok(None);
    }
    let mut batch = std::mem::take(&mut link.batch);
    batch.control_len = 0;
    batch.headers.clear();
    batch.payloads.clear();
    // A pong's cursor doubles as the ack.
    if let Some((nonce, next)) = link.owe_pong.take() {
        let next = link.owe_ack.take().map_or(next, |ack| ack.max(next));
        batch.push_control(&ControlFrame::Pong { nonce, next });
    } else if let Some(next) = link.owe_ack.take() {
        batch.push_control(&ControlFrame::Ack { next });
    }
    if std::mem::take(&mut link.owe_ping) {
        link.nonce += 1;
        batch.push_control(&ControlFrame::Ping { nonce: link.nonce });
        link.last_ping = Instant::now();
        link.pings_unanswered += 1;
        stats.heartbeats.fetch_add(1, Ordering::Relaxed);
    }
    let (mut next, mut replayed) = (link.flushed, 0);
    for (seq, envelope) in link.unacked.iter().skip(skip).take(FLUSH_BATCH_MAX) {
        let Ok(outer_len) = u32::try_from(DATA_HEADER_LEN + envelope.encoded_len()) else {
            link.batch = batch;
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"));
        };
        batch.headers.extend_from_slice(&outer_len.to_le_bytes());
        batch.headers.extend_from_slice(&data_header(*seq));
        batch.headers.extend_from_slice(&envelope.header());
        batch.payloads.push(envelope.payload.clone());
        replayed += u64::from(*seq < link.wire_high);
        next = *seq + 1;
    }
    if replayed > 0 {
        stats.replayed.fetch_add(replayed, Ordering::Relaxed);
    }
    link.flushed = next;
    link.wire_high = link.wire_high.max(next);
    Ok(Some(batch))
}

/// Writes one batch: the control frames, then the data headers
/// interleaved with the payload slices, one system call unless the
/// kernel takes the batch in parts, the payloads never copied.
///
/// # Errors
///
/// An I/O error may leave the batch partly written; the caller tears
/// the connection down and the resume cursor re-syncs the replay.
pub(super) fn write_batch(
    mut stream: &TcpStream,
    batch: &Batch,
    stats: &LinkStats,
) -> std::io::Result<()> {
    // The iovec array lives on the stack: the steady-state write
    // allocates nothing.
    let mut iov = [IoSlice::new(&[]); 1 + 2 * FLUSH_BATCH_MAX];
    let mut iov_len = 0;
    if batch.control_len > 0 {
        iov[0] = IoSlice::new(&batch.control[..batch.control_len]);
        iov_len = 1;
    }
    for (header, payload) in batch.headers.chunks_exact(DATA_FRAME_OVERHEAD).zip(&batch.payloads) {
        iov[iov_len] = IoSlice::new(header);
        iov_len += 1;
        if !payload.is_empty() {
            iov[iov_len] = IoSlice::new(payload);
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
    stats.record_batch(batch.payloads.len());
    Ok(())
}

/// Writes what `link` owes its peer, unless another thread is at it:
/// (re-)establishes a link that has no connection, leaves the frames to
/// a writer already mid-write or a thread already dialing, and
/// otherwise takes the writer role ([`take_writer_role`]). A connection
/// that fails under the write is torn down and left to the supervisor's
/// reconnect, or the next send's: the peer may have read every byte,
/// finished its part and gone, and nothing on this link is lost.
///
/// # Errors
///
/// Whatever establishing a link with no connection surfaces.
pub(super) fn write_or_leave<'a>(
    shared: &Arc<Shared>,
    handle: &'a Arc<LinkCell>,
    link: LinkGuard<'a>,
) -> Result<(), TransportError> {
    if link.stream.is_none() {
        return establish(shared, handle, link, None);
    }
    if link.writing {
        // Another thread is mid-write on this connection and flushes
        // these frames before it gives the writer role up.
        return Ok(());
    }
    drop(take_writer_role(shared, handle, link));
    Ok(())
}

/// Takes the writer role on `link`'s current connection and writes
/// what the link owes the peer: assemble a batch under the lock (the
/// owed control frames, then retained frames not yet on the
/// connection), write it with the lock released, re-lock, and repeat
/// until nothing is left. Senders that queue a frame meanwhile find the
/// role taken and leave the frame to this loop.
///
/// A writer that comes back to a newer connection leaves it alone: the
/// new connection cleared the role, and its resume replay covers the
/// batch. A write error, or a connection killed without a successor
/// yet, tears the connection down and hands the lock back, for the
/// caller to re-establish the link or leave it to the supervisor.
pub(super) fn take_writer_role<'a>(
    shared: &Shared,
    handle: &'a LinkCell,
    mut link: LinkGuard<'a>,
) -> Option<LinkGuard<'a>> {
    let generation = link.generation;
    let conn = Arc::clone(link.stream.as_ref().expect("the caller checked the connection"));
    link.writing = true;
    loop {
        let written = match next_batch(&mut link, &shared.stats) {
            Ok(None) => {
                link.writing = false;
                return None;
            }
            Ok(Some(batch)) => {
                drop(link);
                let written = write_batch(&conn.stream, &batch, &shared.stats);
                link = handle.lock();
                link.batch = batch;
                written
            }
            Err(e) => Err(e),
        };
        if link.generation != generation {
            return None;
        }
        if written.is_err() || link.stream.is_none() {
            kill_stream(&mut link);
            return Some(link);
        }
    }
}
