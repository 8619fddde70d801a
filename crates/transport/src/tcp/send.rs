//! The send side of one link: the retention queue of unacknowledged
//! frames, the watermark that bounds it, and the self-clocked batch
//! writer.
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

use super::connect::establish;
use crate::link::{LinkStats, LinkTuning};
use chorus_core::park::{self, DeferredWrite};
use chorus_core::sync::{Mutex, MutexGuard};
use chorus_core::TransportError;
use chorus_wire::{
    data_frame_wire_len, data_header, Bytes, Envelope, DATA_FRAME_OVERHEAD, DATA_HEADER_LEN,
};
use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// One outgoing link: the lazily-opened stream, the retention queue of
/// unacknowledged frames, and the reconnect bookkeeping.
pub(super) struct SendLink {
    /// Shared with the writer, which writes through it outside the lock.
    pub(super) stream: Option<Arc<TcpStream>>,
    /// Bumped per connection attempt that reached streaming, so the ack
    /// reader and the writer of a dead connection can tell it has been
    /// superseded and must not touch the link's fresh state.
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
    /// The peer, and the endpoint's send side (weak: the endpoint owns
    /// its links), for a write deferred to the end of a worker's pass.
    to: &'static str,
    shared: Weak<SendShared>,
}

impl LinkCell {
    pub(super) fn new(to: &'static str, shared: Weak<SendShared>) -> Self {
        LinkCell { state: Mutex::new(SendLink::new()), to, shared }
    }

    pub(super) fn lock(&self) -> LinkGuard<'_> {
        LinkGuard(Some(self.state.lock()))
    }

    pub(super) fn try_lock(&self) -> Option<LinkGuard<'_>> {
        self.state.try_lock().map(|guard| LinkGuard(Some(guard)))
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
        let _ = write_or_leave(&shared, self.to, &self, link);
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
    if let Some(stream) = link.stream.take() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    link.writing = false;
    link.outage.get_or_insert_with(Outage::begin);
}

/// Send-side state shared with the supervisor and ack-reader threads.
/// Deliberately non-generic (the target's name is interned in `me`).
pub(super) struct SendShared {
    pub(super) me: &'static str,
    pub(super) addrs: HashMap<&'static str, SocketAddr>,
    pub(super) tuning: LinkTuning,
    pub(super) stats: Arc<LinkStats>,
    pub(super) stop: Arc<AtomicBool>,
    /// Per-peer outgoing links. The outer lock is held only to look up
    /// or create an entry; connecting (which retries with backoff)
    /// happens under the per-peer lock, and writing in that peer's
    /// writer role, so one slow or dead peer never stalls sends to the
    /// others.
    pub(super) links: Mutex<HashMap<&'static str, Arc<LinkCell>>>,
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

/// One vectored write's worth of frames: their fixed 33-byte headers
/// back to back, and a refcounted handle on each payload.
#[derive(Default)]
pub(super) struct Batch {
    headers: Vec<u8>,
    payloads: Vec<Bytes>,
}

/// Assembles the next batch of retained frames not yet on the current
/// connection (at most [`FLUSH_BATCH_MAX`]) and advances `flushed` past
/// it, or returns `None` when everything retained is on the wire. The
/// batch leaves the link, so it can be written outside the lock; put it
/// back in `link.batch` after the write.
///
/// # Errors
///
/// A frame whose length does not fit the `u32` prefix; nothing is
/// advanced.
pub(super) fn next_batch(link: &mut SendLink, stats: &LinkStats) -> std::io::Result<Option<Batch>> {
    let SendLink { unacked, flushed, wire_high, batch, .. } = link;
    // `unacked` holds contiguous sequences, so the first unflushed
    // frame is at a computable offset — no scan over the
    // acked-but-unpruned prefix.
    let skip = unacked
        .front()
        .map_or(0, |(first, _)| usize::try_from(flushed.saturating_sub(*first)).unwrap_or(0));
    if skip >= unacked.len() {
        return Ok(None);
    }
    batch.headers.clear();
    batch.payloads.clear();
    let (mut next, mut replayed) = (*flushed, 0);
    for (seq, envelope) in unacked.iter().skip(skip).take(FLUSH_BATCH_MAX) {
        let outer_len = u32::try_from(DATA_HEADER_LEN + envelope.encoded_len()).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large")
        })?;
        batch.headers.extend_from_slice(&outer_len.to_le_bytes());
        batch.headers.extend_from_slice(&data_header(*seq));
        batch.headers.extend_from_slice(&envelope.header());
        batch.payloads.push(envelope.payload.clone());
        replayed += u64::from(*seq < *wire_high);
        next = *seq + 1;
    }
    if replayed > 0 {
        stats.replayed.fetch_add(replayed, Ordering::Relaxed);
    }
    *flushed = next;
    *wire_high = (*wire_high).max(next);
    Ok(Some(std::mem::take(batch)))
}

/// Writes one batch: the headers interleaved with the payload slices,
/// one system call unless the kernel takes the batch in parts, the
/// payloads never copied.
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
    let mut iov = [IoSlice::new(&[]); 2 * FLUSH_BATCH_MAX];
    let mut iov_len = 0;
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

/// Writes what `link` retains beyond its connection, unless another
/// thread is at it: re-establishes a link that has no connection, leaves
/// the frames to a writer already mid-write, and otherwise takes the
/// writer role ([`flush_pending`]).
///
/// # Errors
///
/// Whatever (re-)establishing the link surfaces.
pub(super) fn write_or_leave(
    shared: &Arc<SendShared>,
    to: &'static str,
    handle: &Arc<LinkCell>,
    mut link: LinkGuard<'_>,
) -> Result<(), TransportError> {
    if link.stream.is_none() {
        return establish(shared, to, handle, &mut link, None);
    }
    if link.writing {
        // Another thread is mid-write on this connection and flushes
        // these frames before it gives the writer role up.
        return Ok(());
    }
    flush_pending(shared, to, handle, link)
}

/// Takes the writer role on `link`'s current connection and writes
/// every retained frame not yet on it: assemble a batch under the
/// lock, write it with the lock released, re-lock, and repeat until
/// nothing unflushed is left. Senders that queue a frame meanwhile find
/// the role taken and leave the frame to this loop.
///
/// A writer that comes back to a newer connection leaves it alone: the
/// new connection cleared the role, and its resume replay covers the
/// batch. A write error, or a connection killed without a successor
/// yet, is handled as on the send path: tear down and re-establish.
///
/// # Errors
///
/// Whatever re-establishing the link surfaces.
fn flush_pending<'a>(
    shared: &Arc<SendShared>,
    to: &'static str,
    handle: &'a Arc<LinkCell>,
    mut link: LinkGuard<'a>,
) -> Result<(), TransportError> {
    let generation = link.generation;
    let stream = Arc::clone(link.stream.as_ref().expect("the caller checked the connection"));
    link.writing = true;
    loop {
        let written = match next_batch(&mut link, &shared.stats) {
            Ok(None) => {
                link.writing = false;
                return Ok(());
            }
            Ok(Some(batch)) => {
                drop(link);
                let written = write_batch(&stream, &batch, &shared.stats);
                link = handle.lock();
                link.batch = batch;
                written
            }
            Err(e) => Err(e),
        };
        if link.generation != generation {
            return Ok(());
        }
        if written.is_err() || link.stream.is_none() {
            kill_stream(&mut link);
            return establish(shared, to, handle, &mut link, None);
        }
    }
}
