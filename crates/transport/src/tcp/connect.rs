//! Opening a link: the hello, the receiver's resume cursor, replay of
//! the unacknowledged tail, the retry budget, and the ack reader that
//! prunes retention for as long as the connection lives.

use super::send::{
    kill_stream, link_down_error, next_batch, prune_acked, write_batch, LinkCell, Outage, SendLink,
    SendShared,
};
#[cfg(test)]
use super::tests;
use crate::link::{backoff_delay, FrameAccumulator};
use chorus_core::TransportError;
use chorus_wire::{ControlFrame, LinkFrame, CONTROL_MAX_LEN};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The link-protocol version: the first byte of every hello. An
/// acceptor closes a connection whose hello starts with anything else.
pub(super) const LINK_VERSION: u8 = 1;

/// Writes one control frame as its own length-prefixed wire frame,
/// assembled on the stack.
pub(super) fn write_control(out: impl Write, frame: &ControlFrame) -> std::io::Result<()> {
    let mut wire = [0u8; 4 + CONTROL_MAX_LEN];
    let len = frame.encode_into(&mut wire[4..]);
    wire[..4].copy_from_slice(&(len as u32).to_le_bytes());
    write_wire(out, &wire[..4 + len])
}

/// Writes a length-prefixed frame in one write: on a `TCP_NODELAY`
/// socket a separate length would leave as a segment of its own and
/// could wake the peer's reader twice.
fn write_wire(mut out: impl Write, wire: &[u8]) -> std::io::Result<()> {
    out.write_all(wire)?;
    out.flush()
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
    // The hello frame: its length, the link-protocol version, our name.
    let mut hello = Vec::with_capacity(5 + shared.me.len());
    hello.extend_from_slice(&(1 + shared.me.len() as u32).to_le_bytes());
    hello.push(LINK_VERSION);
    hello.extend_from_slice(shared.me.as_bytes());
    write_wire(&stream, &hello)?;

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
    prune_acked(link, next);
    link.acked = link.acked.max(next);
    link.flushed = next;
    link.generation += 1;
    let generation = link.generation;
    // The clone shares the socket (and its read timeout) with the
    // writer half; it becomes the ack reader's handle.
    let reader_stream = stream.try_clone()?;
    let stream = Arc::new(stream);
    link.stream = Some(Arc::clone(&stream));
    link.writing = false;
    link.last_heard = Instant::now();
    link.last_ping = Instant::now();
    link.pings_unanswered = 0;
    // Replay the unacked tail before anything else touches the link,
    // under its lock: no other writer exists on a fresh connection.
    while let Some(batch) = next_batch(link, &shared.stats)? {
        let written = write_batch(&stream, &batch, &shared.stats);
        link.batch = batch;
        written?;
    }
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
pub(super) fn establish(
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
    link.outage.get_or_insert_with(Outage::begin);
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
            // Senders parked on the retention watermark wake once the
            // lock is released, and surface `RetentionExceeded`.
            link.settled = true;
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
            Err(e) => {
                #[cfg(test)]
                tests::FAILED_CONNECT_ATTEMPTS.fetch_add(1, Ordering::Relaxed);
                kill_stream(link);
                let outage = link.outage.as_mut().expect("kill_stream keeps the outage");
                outage.attempts += 1;
                outage.refused = e.kind() == std::io::ErrorKind::ConnectionRefused;
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
                    prune_acked(&mut link, below);
                    link.last_heard = Instant::now();
                    link.pings_unanswered = 0;
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
