//! Opening a link: the dial, the hello, the resume cursors both ends
//! trade, adopting a connection, and the retry budget.
//!
//! The dialer says hello (the link-protocol version and its name); the
//! acceptor answers with its resume cursor for the dialer's frames, and
//! the dialer, adopting the connection, answers with its own for the
//! acceptor's. Each end then replays its unacknowledged tail from the
//! other's cursor, so both directions resume after any reconnect.

use super::recv::{spawn_reader, Conn};
use super::send::{
    link_down_error, prune_acked, take_writer_role, LinkCell, LinkGuard, Outage, SendLink, Shared,
};
#[cfg(test)]
use super::tests;
use crate::link::{backoff_delay, FrameAccumulator};
use chorus_core::TransportError;
use chorus_wire::{ControlFrame, LinkFrame, CONTROL_MAX_LEN};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The link-protocol version: the first byte of every hello this
/// endpoint says. Version 2 shares the connection: the dialer's own
/// resume cursor follows the acceptor's, and both ends send on it.
pub(super) const LINK_VERSION: u8 = 2;

/// The version of a connector that only sends on its connection: it
/// reads the acceptor's cursor and acks and says no cursor of its own.
/// An acceptor still reads its frames; anything but these two versions
/// closes the connection.
pub(super) const SEND_ONLY_VERSION: u8 = 1;

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

/// Reads the resume cursor the other end of a handshake sends, within
/// the handshake timeout: a half-dead peer, or one that refused the
/// hello, must not hang the handshake. Bytes read past it stay in
/// `acc`.
pub(super) fn await_resume(
    shared: &Shared,
    stream: &TcpStream,
    acc: &mut FrameAccumulator,
) -> std::io::Result<u64> {
    let deadline = Instant::now() + shared.tuning.handshake_timeout();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "transport shutting down",
            ));
        }
        match acc.poll(stream)? {
            Some(body) => {
                return match LinkFrame::decode(body) {
                    Ok(LinkFrame::Control(ControlFrame::Resume { next })) => Ok(next),
                    _ => Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "expected a resume cursor after the handshake",
                    )),
                }
            }
            None if Instant::now() >= deadline => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "peer sent no resume cursor (half-open connection)",
                ))
            }
            None => {}
        }
    }
}

/// A connection whose acceptor answered the hello.
struct Dialed {
    stream: TcpStream,
    /// Bytes read past the acceptor's cursor.
    acc: FrameAccumulator,
    /// The acceptor's resume cursor for this endpoint's frames.
    next: u64,
}

/// One connection attempt, with no lock held: connect, say hello, read
/// the acceptor's resume cursor. On `Err` the caller counts the attempt
/// and backs off.
fn dial(shared: &Shared, addr: SocketAddr) -> std::io::Result<Dialed> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1))?;
    stream.set_nodelay(true).ok();
    // The hello frame: its length, the link-protocol version, our name.
    let mut hello = Vec::with_capacity(5 + shared.me.len());
    hello.extend_from_slice(&(1 + shared.me.len() as u32).to_le_bytes());
    hello.push(LINK_VERSION);
    hello.extend_from_slice(shared.me.as_bytes());
    write_wire(&stream, &hello)?;
    // The read timeout is the connection's for good: readers tick on it.
    stream.set_read_timeout(Some(shared.tuning.io_tick()))?;
    let mut acc = FrameAccumulator::default();
    let next = await_resume(shared, &stream, &mut acc)?;
    Ok(Dialed { stream, acc, next })
}

/// Makes `conn` the link's connection, resuming from the peer's cursor
/// `next`: everything below it arrived, everything from it on (re)flows
/// on `conn`. A cursor *behind* `acked` (the receiver lost its state,
/// e.g. a process restart) replays from what is still retained; the
/// receiver's gap detection will report the truncation loudly rather
/// than let sessions see a spliced stream.
pub(super) fn adopt(shared: &Shared, link: &mut SendLink, conn: &Arc<Conn>, next: u64) {
    prune_acked(link, next);
    link.acked = link.acked.max(next);
    link.flushed = next;
    link.generation += 1;
    link.stream = Some(Arc::clone(conn));
    link.writing = false;
    let now = Instant::now();
    link.last_heard = now;
    link.last_ping = now;
    link.pings_unanswered = 0;
    link.outage = None;
    link.established += 1;
    if link.established > 1 {
        shared.stats.reconnects.fetch_add(1, Ordering::Relaxed);
    }
}

/// Adopts a dialed connection, under the link's lock: sends this
/// endpoint's own resume cursor before any other frame can, starts the
/// connection's reader and makes it the peer's data connection unless
/// one that lives exists.
fn commit(
    shared: &Arc<Shared>,
    handle: &Arc<LinkCell>,
    link: &mut SendLink,
    dialed: Dialed,
) -> std::io::Result<Arc<Conn>> {
    if dialed.next > link.next_seq {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "peer resume cursor is ahead of everything ever sent",
        ));
    }
    let cursor = shared.inbox.link_cursor(handle.to);
    write_control(&dialed.stream, &ControlFrame::Resume { next: cursor })?;
    let conn = Conn::new(dialed.stream, Arc::clone(handle), true, dialed.acc);
    spawn_reader(shared, &conn)
        .map_err(|e| std::io::Error::other(format!("spawning a reader: {e}")))?;
    adopt(shared, link, &conn, dialed.next);
    shared.inbox.carry_data_on(handle.to, &conn, false);
    Ok(conn)
}

/// Establishes the link's connection, dialing with jittered exponential
/// backoff against the outage's bounded budget. The lock is released
/// while a dial or a backoff runs, with the link marked `connecting`:
/// a second caller, while one dials, returns at once and leaves its
/// frames retained for the new connection's replay.
///
/// `burst` limits attempts consumed in *this call* (the supervisor
/// reconnects in short bursts per sweep; the send path stays until the
/// budget resolves). The budget itself is cumulative across calls via
/// `link.outage`. Once connected, the caller replays the unacknowledged
/// tail in the writer role.
pub(super) fn establish<'a>(
    shared: &Arc<Shared>,
    handle: &'a Arc<LinkCell>,
    mut link: LinkGuard<'a>,
    burst: Option<u32>,
) -> Result<(), TransportError> {
    let to = handle.to;
    if let Some((elapsed, attempts)) = link.down {
        return Err(link_down_error(shared.me, to, elapsed, attempts));
    }
    if link.connecting || link.stream.is_some() {
        return Ok(());
    }
    let addr =
        *shared.addrs.get(to).ok_or_else(|| TransportError::UnknownLocation(to.to_string()))?;
    link.outage.get_or_insert_with(Outage::begin);
    link.connecting = true;
    let salt = jitter_salt(to);
    let mut tried_this_call = 0u32;
    let generation = link.generation;
    let outcome = loop {
        if link.generation != generation {
            // The peer dialed meanwhile, and its connection was adopted
            // and replayed the retained frames; if it has died since,
            // that is a new outage, for the supervisor.
            break Ok(());
        }
        if shared.stop.load(Ordering::Relaxed) {
            break Err(TransportError::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "transport shutting down",
            )));
        }
        let (since, attempts) = {
            let outage = link.outage.get_or_insert_with(Outage::begin);
            (outage.since, outage.attempts)
        };
        if attempts >= shared.tuning.retry_limit {
            let elapsed = since.elapsed();
            link.down = Some((elapsed, attempts));
            shared.stats.links_down.fetch_add(1, Ordering::Relaxed);
            // Senders parked on the retention watermark wake once the
            // lock is released, and surface `RetentionExceeded`.
            link.settled = true;
            break Err(link_down_error(shared.me, to, elapsed, attempts));
        }
        if burst.is_some_and(|budget| tried_this_call >= budget) {
            break Err(TransportError::Io(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "reconnect pass budget spent; the supervisor retries next sweep",
            )));
        }
        link.dialing = true;
        drop(link);
        let dialed = dial(shared, addr);
        link = handle.lock();
        link.dialing = false;
        let failure = match dialed {
            // The link came up on the peer's dial meanwhile: this
            // connection closes unused, and its acceptor drops it.
            Ok(_) if link.generation != generation => continue,
            Ok(dialed) => match commit(shared, handle, &mut link, dialed) {
                Ok(_) => break Ok(()),
                Err(e) => e,
            },
            Err(e) => e,
        };
        #[cfg(test)]
        tests::FAILED_CONNECT_ATTEMPTS.fetch_add(1, Ordering::Relaxed);
        let outage = link.outage.get_or_insert_with(Outage::begin);
        outage.attempts += 1;
        outage.refused = failure.kind() == std::io::ErrorKind::ConnectionRefused;
        tried_this_call += 1;
        let delay = backoff_delay(shared.tuning.retry_base, outage.attempts, salt);
        drop(link);
        std::thread::sleep(delay);
        link = handle.lock();
    };
    link.connecting = false;
    if outcome.is_ok() && link.needs_writer() {
        // Replay the unacknowledged tail. A connection that dies at once
        // is left to the supervisor's reconnect.
        drop(take_writer_role(shared, handle, link));
    }
    outcome
}
