//! The send side of one link: the retention queue of unacknowledged
//! frames, the watermark that bounds it, and the vectored batch flush.

use crate::link::{LinkStats, LinkTuning};
use chorus_core::{park, TransportError};
use chorus_wire::{
    data_frame_wire_len, data_header, Envelope, DATA_FRAME_OVERHEAD, DATA_HEADER_LEN,
};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// An ongoing connection outage on one link: when it began and how many
/// attempts the retry budget has consumed.
pub(super) struct Outage {
    pub(super) since: Instant,
    pub(super) attempts: u32,
}

/// One outgoing link: the lazily-opened stream, the retention queue of
/// unacknowledged frames, and the reconnect bookkeeping.
pub(super) struct SendLink {
    pub(super) stream: Option<TcpStream>,
    /// Bumped per connection attempt that reached streaming, so the ack
    /// reader of a dead connection can tell it has been superseded and
    /// must not touch the link's fresh state.
    pub(super) generation: u64,
    /// Successfully established connections (for reconnect stats).
    pub(super) established: u64,
    /// Reused frame assembly buffer, so steady-state sends allocate
    /// nothing.
    pub(super) buf: Vec<u8>,
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
}

impl SendLink {
    pub(super) fn new() -> Self {
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
pub(super) struct LinkCell {
    state: StdMutex<SendLink>,
    pruned: Condvar,
}

impl LinkCell {
    pub(super) fn new() -> Self {
        LinkCell { state: StdMutex::new(SendLink::new()), pruned: Condvar::new() }
    }

    /// Locks the link. Poisoning is deliberately absorbed: the state a
    /// panicking holder leaves behind is structurally sound (queues and
    /// counters move together), and propagating it would wedge every
    /// sender on the link.
    pub(super) fn lock(&self) -> MutexGuard<'_, SendLink> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(super) fn try_lock(&self) -> Option<MutexGuard<'_, SendLink>> {
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
    pub(super) fn notify_pruned(&self) {
        self.pruned.notify_all();
    }
}

/// Pops every retained frame below `below`, keeping `retained_bytes`
/// in step with the queue. Returns how many frames were pruned (the
/// caller announces via [`LinkCell::notify_pruned`]).
pub(super) fn prune_acked(link: &mut SendLink, below: u64) -> usize {
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
pub(super) fn kill_stream(link: &mut SendLink) {
    if let Some(stream) = link.stream.take() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    if link.outage.is_none() {
        link.outage = Some(Outage { since: Instant::now(), attempts: 0 });
    }
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
    /// or create an entry; connecting (which retries with backoff) and
    /// writing happen under the per-peer lock, so one slow or dead peer
    /// never stalls sends to the others.
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

/// Frames per vectored batch: bounds the header buffer and keeps the
/// iovec array comfortably under `IOV_MAX` (two slices per frame).
const FLUSH_BATCH_MAX: usize = 256;

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
pub(super) fn flush_pending(link: &mut SendLink, stats: &LinkStats) -> std::io::Result<()> {
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
    Ok(())
}
