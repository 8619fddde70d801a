//! Link plumbing shared by the TCP transport: tuning values, jittered
//! reconnect backoff, link statistics, and the timeout-tolerant frame
//! accumulator both directions read the wire through.
//!
//! The policy lives here; the mechanism (send queues, the link
//! supervisor, replay) lives in `tcp/`. Everything is deliberately
//! non-generic so the supervisor and reader threads monomorphize once.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// A receiver acknowledges after this many newly accepted data frames
/// (sooner on an idle tick), bounding the sender's replay window under
/// load without an ack per frame.
pub(crate) const ACK_EVERY: u32 = 16;

/// Reconnect delays never exceed this, so a peer coming back is noticed
/// promptly even late in a long outage.
pub(crate) const BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Link-layer policy for one TCP endpoint.
///
/// These four values are everything about a link that can be set, and
/// [`TcpConfigBuilder`](crate::TcpConfigBuilder)'s setters of the same
/// names are the only way to set them. [`LinkTuning::default`] is the
/// `*_DEFAULT` constants below, where each default is stated once.
#[derive(Debug, Clone, Copy)]
pub struct LinkTuning {
    /// Connection attempts per outage before the link surfaces
    /// [`TransportError::LinkDown`](chorus_core::TransportError::LinkDown).
    pub retry_limit: u32,
    /// First reconnect delay; doubles per attempt, jittered, capped at
    /// 200ms.
    pub retry_base: Duration,
    /// Ping cadence on idle established links; a link silent for 3
    /// heartbeats is presumed half-dead and torn down for replay.
    pub heartbeat: Duration,
    /// Retention watermark in bytes per link (zero: unbounded): a
    /// sender whose unacknowledged tail reaches it parks until acks
    /// prune it, and surfaces
    /// [`TransportError::RetentionExceeded`](chorus_core::TransportError::RetentionExceeded)
    /// if the link resolves down (or the watchdog expires) while it
    /// waits.
    pub retain_max: usize,
}

impl LinkTuning {
    /// Default [`retry_limit`](Self::retry_limit).
    pub const RETRY_LIMIT_DEFAULT: u32 = 60;
    /// Default [`retry_base`](Self::retry_base).
    pub const RETRY_BASE_DEFAULT: Duration = Duration::from_millis(5);
    /// Default [`heartbeat`](Self::heartbeat).
    pub const HEARTBEAT_DEFAULT: Duration = Duration::from_secs(1);
    /// Default [`retain_max`](Self::retain_max): 64 MiB.
    pub const RETAIN_MAX_DEFAULT: usize = 64 * 1024 * 1024;

    /// How long a connecting side waits for the receiver's resume
    /// cursor before treating the attempt as failed.
    pub(crate) fn handshake_timeout(&self) -> Duration {
        (self.heartbeat * 2).max(Duration::from_millis(500))
    }

    /// Read-timeout tick of every connection: short enough that
    /// shutdown and idle-ack flushes are prompt.
    pub(crate) fn io_tick(&self) -> Duration {
        (self.heartbeat / 4).clamp(Duration::from_millis(5), Duration::from_millis(100))
    }

    /// Sweep cadence of the link supervisor.
    pub(crate) fn supervisor_tick(&self) -> Duration {
        (self.heartbeat / 4).clamp(Duration::from_millis(5), Duration::from_millis(250))
    }

    /// An established link silent this long is presumed half-dead.
    pub(crate) fn dead_after(&self) -> Duration {
        self.heartbeat * 3
    }
}

impl Default for LinkTuning {
    fn default() -> Self {
        LinkTuning {
            retry_limit: Self::RETRY_LIMIT_DEFAULT,
            retry_base: Self::RETRY_BASE_DEFAULT,
            heartbeat: Self::HEARTBEAT_DEFAULT,
            retain_max: Self::RETAIN_MAX_DEFAULT,
        }
    }
}

/// Exponential backoff with jitter for reconnect attempt `attempt`
/// (1-based): `base * 2^(attempt-1)` capped at [`BACKOFF_CAP`], plus a
/// jitter in `[0, delay/2]`.
///
/// The jitter is derived from a process-random hash of `(salt,
/// attempt)`, so two processes reconnecting to the same peer after a
/// shared outage spread out instead of thundering in lockstep — while
/// within one process the delay sequence stays reproducible enough to
/// reason about in tests.
pub(crate) fn backoff_delay(base: Duration, attempt: u32, salt: u64) -> Duration {
    static JITTER_KEYS: OnceLock<RandomState> = OnceLock::new();
    let exponent = attempt.saturating_sub(1).min(16);
    let delay = base.saturating_mul(1u32 << exponent.min(31)).min(BACKOFF_CAP);
    let mut hasher = JITTER_KEYS.get_or_init(RandomState::new).build_hasher();
    hasher.write_u64(salt);
    hasher.write_u32(attempt);
    let half = delay.as_nanos() as u64 / 2;
    let jitter = if half == 0 { 0 } else { hasher.finish() % (half + 1) };
    delay + Duration::from_nanos(jitter)
}

/// Number of batch-size histogram buckets; see
/// [`TcpLinkStats::batch_histogram`] for the bucket bounds.
pub const BATCH_HIST_BUCKETS: usize = 7;

/// Maps a batch size (frames per vectored flush) to its histogram
/// bucket: 1, 2, 3–4, 5–8, 9–16, 17–64, 65+.
fn batch_bucket(frames: usize) -> usize {
    match frames {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        17..=64 => 5,
        _ => 6,
    }
}

/// Lifetime counters for one TCP endpoint's resilient links, shared by
/// the send queues, the supervisor, and the receive loops.
#[derive(Debug, Default)]
pub(crate) struct LinkStats {
    /// Connections successfully re-established after the first.
    pub reconnects: AtomicU64,
    /// Data frames written more than once (the replayed unacked tail).
    pub replayed: AtomicU64,
    /// Received data frames dropped as already-delivered.
    pub duplicates: AtomicU64,
    /// Heartbeat probes written.
    pub heartbeats: AtomicU64,
    /// Links that exhausted their retry budget and went down.
    pub links_down: AtomicU64,
    /// Vectored batch flushes issued.
    pub batches: AtomicU64,
    /// Data frames that travelled inside those batches.
    pub batched_frames: AtomicU64,
    /// Data frames this endpoint's readers accepted into mailboxes
    /// (duplicates excluded) — the receive-side mirror of
    /// `batched_frames`.
    pub deposited: AtomicU64,
    /// Batch-size distribution, bucketed by [`batch_bucket`].
    pub batch_hist: [AtomicU64; BATCH_HIST_BUCKETS],
}

impl LinkStats {
    /// Records one vectored flush of `frames` data frames.
    pub(crate) fn record_batch(&self, frames: usize) {
        if frames == 0 {
            return;
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_frames.fetch_add(frames as u64, Ordering::Relaxed);
        self.batch_hist[batch_bucket(frames)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> TcpLinkStats {
        let mut batch_histogram = [0u64; BATCH_HIST_BUCKETS];
        for (out, bucket) in batch_histogram.iter_mut().zip(&self.batch_hist) {
            *out = bucket.load(Ordering::Relaxed);
        }
        TcpLinkStats {
            reconnects: self.reconnects.load(Ordering::Relaxed),
            replayed_frames: self.replayed.load(Ordering::Relaxed),
            duplicate_frames: self.duplicates.load(Ordering::Relaxed),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
            links_down: self.links_down.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_frames: self.batched_frames.load(Ordering::Relaxed),
            deposited_frames: self.deposited.load(Ordering::Relaxed),
            batch_histogram,
        }
    }
}

/// A snapshot of one TCP endpoint's link-layer activity
/// ([`TcpTransport::link_stats`]).
///
/// Chaos tests assert on these to prove injected faults actually bit
/// (reconnects happened, duplicates were dropped) even though sessions
/// observed nothing but latency.
///
/// [`TcpTransport::link_stats`]: crate::TcpTransport::link_stats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpLinkStats {
    /// Connections successfully re-established after the first.
    pub reconnects: u64,
    /// Data frames written more than once (replayed unacked tail).
    pub replayed_frames: u64,
    /// Received data frames dropped as already-delivered duplicates.
    pub duplicate_frames: u64,
    /// Heartbeat probes written.
    pub heartbeats: u64,
    /// Links that exhausted their retry budget and surfaced `LinkDown`.
    pub links_down: u64,
    /// Vectored batch flushes issued by this endpoint's send queues.
    pub batches: u64,
    /// Data frames that travelled inside those batches.
    pub batched_frames: u64,
    /// Data frames this endpoint accepted into its mailboxes
    /// (duplicates excluded). Tracks delivery into the transport, not
    /// application pops, so a bench can time the data plane itself.
    pub deposited_frames: u64,
    /// Batch-size distribution: flushes of 1, 2, 3–4, 5–8, 9–16,
    /// 17–64, and 65+ frames.
    pub batch_histogram: [u64; BATCH_HIST_BUCKETS],
}

/// Reassembles `u32`-length-prefixed frames from a stream being read
/// with a timeout.
///
/// `read_exact` across a read timeout can consume a partial frame and
/// lose it; this accumulator only ever issues single `read` calls into
/// a growing buffer, so a timeout tick leaves every byte accounted for
/// and framing intact across ticks.
#[derive(Default)]
pub(crate) struct FrameAccumulator {
    buf: Vec<u8>,
    /// Bytes before `start` belong to frames already handed out.
    start: usize,
}

impl FrameAccumulator {
    /// Returns the bounds of the next complete frame body, if buffered.
    fn frame_bounds(&self) -> Option<(usize, usize)> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return None;
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
        if avail.len() < 4 + len {
            return None;
        }
        let lo = self.start + 4;
        Some((lo, lo + len))
    }

    /// Hands out the next complete frame body *already buffered*,
    /// without touching the stream — `None` means the next frame (if
    /// any) is still partial. Receivers drain a whole wire burst per
    /// wakeup through this before blocking in [`poll`] again.
    ///
    /// [`poll`]: FrameAccumulator::poll
    pub(crate) fn next_buffered(&mut self) -> Option<&[u8]> {
        let (lo, hi) = self.frame_bounds()?;
        self.start = hi;
        Some(&self.buf[lo..hi])
    }

    /// Returns the next complete frame body, reading from `stream` as
    /// needed. `Ok(None)` is a timeout tick (the stream's read timeout
    /// elapsed with no complete frame); an `Err` is end-of-stream or a
    /// real I/O failure.
    pub(crate) fn poll(&mut self, mut stream: impl Read) -> std::io::Result<Option<&[u8]>> {
        loop {
            if let Some((lo, hi)) = self.frame_bounds() {
                self.start = hi;
                return Ok(Some(&self.buf[lo..hi]));
            }
            // Reclaim consumed space before growing the buffer.
            if self.start == self.buf.len() {
                self.buf.clear();
                self.start = 0;
            } else if self.start > 64 * 1024 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let mut chunk = [0u8; 16 * 1024];
            match stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection ended",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpStream;

    #[test]
    fn backoff_grows_and_caps() {
        let base = Duration::from_millis(5);
        let first = backoff_delay(base, 1, 7);
        assert!(first >= base && first <= base + base / 2, "got {first:?}");
        let late = backoff_delay(base, 30, 7);
        assert!(late >= BACKOFF_CAP, "got {late:?}");
        assert!(late <= BACKOFF_CAP + BACKOFF_CAP / 2, "got {late:?}");
    }

    #[test]
    fn backoff_is_stable_per_attempt_within_a_process() {
        let base = Duration::from_millis(5);
        assert_eq!(backoff_delay(base, 3, 42), backoff_delay(base, 3, 42));
    }

    #[test]
    fn tuning_defaults_are_sane() {
        let tuning = LinkTuning::default();
        assert!(tuning.retry_limit >= 1);
        assert!(tuning.retry_base > Duration::ZERO);
        assert!(tuning.heartbeat > Duration::ZERO);
        assert!(tuning.handshake_timeout() >= Duration::from_millis(500));
        assert!(tuning.dead_after() > tuning.heartbeat);
    }

    #[test]
    fn batch_buckets_partition_every_size() {
        assert_eq!(batch_bucket(1), 0);
        assert_eq!(batch_bucket(2), 1);
        assert_eq!(batch_bucket(4), 2);
        assert_eq!(batch_bucket(8), 3);
        assert_eq!(batch_bucket(16), 4);
        assert_eq!(batch_bucket(64), 5);
        assert_eq!(batch_bucket(65), 6);
        assert_eq!(batch_bucket(100_000), 6);
    }

    #[test]
    fn accumulator_drains_a_buffered_burst_without_reading() {
        // Three frames land in one read; `poll` hands out the first and
        // `next_buffered` drains the rest without another syscall.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(100))).unwrap();

        let frames: Vec<Vec<u8>> = vec![b"one".to_vec(), b"".to_vec(), b"three".to_vec()];
        let mut wire = Vec::new();
        for frame in &frames {
            wire.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            wire.extend_from_slice(frame);
        }
        tx.write_all(&wire).unwrap();
        tx.flush().unwrap();

        let mut acc = FrameAccumulator::default();
        let mut got = Vec::new();
        loop {
            match acc.poll(&mut rx).unwrap() {
                Some(body) => got.push(body.to_vec()),
                None => continue,
            }
            while let Some(body) = acc.next_buffered() {
                got.push(body.to_vec());
            }
            if got.len() == frames.len() {
                break;
            }
        }
        assert_eq!(got, frames);
        assert!(acc.next_buffered().is_none(), "the burst is fully drained");
    }

    #[test]
    fn accumulator_reassembles_across_arbitrary_segmentation() {
        // A real loopback socket pair, frames dripped in odd chunks.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(10))).unwrap();

        let frames: Vec<Vec<u8>> = vec![b"".to_vec(), b"ab".to_vec(), vec![7u8; 5000]];
        let mut wire = Vec::new();
        for frame in &frames {
            wire.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            wire.extend_from_slice(frame);
        }
        let writer = std::thread::spawn(move || {
            for chunk in wire.chunks(3) {
                tx.write_all(chunk).unwrap();
                tx.flush().unwrap();
            }
            tx
        });

        let mut acc = FrameAccumulator::default();
        let mut got = Vec::new();
        while got.len() < frames.len() {
            // A `None` is a timeout tick mid-frame: keep accumulating.
            if let Some(body) = acc.poll(&mut rx).unwrap() {
                got.push(body.to_vec());
            }
        }
        assert_eq!(got, frames);
        drop(writer.join().unwrap());
        // End-of-stream surfaces as an error, not a tick.
        assert!(acc.poll(&mut rx).is_err());
    }
}
