//! The receive side's threads: the acceptor, which vets each
//! connector's hello, and one reader per accepted connection, which
//! deposits bursts into the inbox and owes the sender its acks.

use super::connect::{write_control, LINK_VERSION};
use super::inbox::Inbox;
use crate::link::{FrameAccumulator, LinkStats, LinkTuning, ACK_EVERY};
use chorus_wire::{ControlFrame, Envelope, LinkFrame};
use std::collections::HashSet;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::Waker;
use std::time::Duration;

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

/// Accepts connectors until `stop`, one reader thread each. `accept`
/// blocks, so an idle acceptor sleeps; the endpoint's drop sets `stop`
/// and then connects once to wake it.
pub(super) fn accept_loop(
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
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let Ok((mut stream, _)) = accepted else {
            // Transient accept failures (e.g. ECONNABORTED when a
            // queued peer resets before we accept) must not kill the
            // listener for everyone else.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        let inbox = Arc::clone(&inbox);
        let stats = Arc::clone(&stats);
        let stop = Arc::clone(&stop);
        let peers = peers.clone();
        // A thread the OS refuses takes only this connection with it:
        // the acceptor keeps accepting, and the connector's supervisor
        // retries within its budget.
        let reader = std::thread::Builder::new().name("chorus-tcp-read".into());
        let _ = reader.spawn(move || {
            stream.set_nodelay(true).ok();
            // A connector that never says hello must not pin this
            // thread past `stop`.
            stream.set_read_timeout(Some(tuning.handshake_timeout())).ok();
            // Hello frame: the link-protocol version, then the peer's
            // location name; resolve it to the interned census name
            // once, so every subsequent frame routes without
            // allocating. Anything else closes the connection.
            let Ok(hello) = read_hello(&mut stream, hello_max) else { return };
            let Some((&LINK_VERSION, name_bytes)) = hello.split_first() else { return };
            let Ok(name) = std::str::from_utf8(name_bytes) else { return };
            let Some(name) = peers.get(name).copied() else {
                return;
            };
            reader_loop(stream, name, inbox, stats, tuning, stop);
        });
    }
}

/// A reader's decoded burst, and the list the wakers it fires gather
/// in; both keep their capacity from burst to burst.
#[derive(Default)]
struct Burst {
    frames: Vec<(u64, Envelope)>,
    fired: Vec<Waker>,
}

/// Deposits a decoded burst into the inbox, keeping the duplicate
/// stats and the ack cadence counter in step. Returns `false` when the
/// burst poisoned the link with a cursor gap (the reader must exit).
fn drain_batch(
    inbox: &Inbox,
    stats: &LinkStats,
    name: &'static str,
    burst: &mut Burst,
    accepted_since_ack: &mut u32,
) -> bool {
    if burst.frames.is_empty() {
        return true;
    }
    let outcome = inbox.deposit_batch(name, &mut burst.frames, &mut burst.fired);
    if outcome.duplicates > 0 {
        stats.duplicates.fetch_add(outcome.duplicates, Ordering::Relaxed);
    }
    if outcome.accepted > 0 {
        stats.deposited.fetch_add(u64::from(outcome.accepted), Ordering::Relaxed);
    }
    *accepted_since_ack = accepted_since_ack.saturating_add(outcome.accepted);
    !outcome.gap
}

/// Writes the cumulative ack for everything accepted from `name` so far.
fn write_ack(stream: &mut TcpStream, inbox: &Inbox, name: &'static str) -> std::io::Result<()> {
    write_control(stream, &ControlFrame::Ack { next: inbox.link_cursor(name) })
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
    let mut burst = Burst::default();
    loop {
        if stop.load(Ordering::Relaxed) {
            // The sender's own drop lingers until its retained frames
            // are acknowledged, and nobody else will ever tell it about
            // these: pay the owed ack before going.
            if accepted_since_ack > 0 {
                let _ = write_ack(&mut stream, &inbox, name);
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
                if write_ack(&mut stream, &inbox, name).is_err() {
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
                    burst.frames.push((link_seq, envelope));
                }
                Ok(LinkFrame::Control(ControlFrame::Ping { nonce })) => {
                    // Deposit what preceded the probe so the pong's
                    // piggybacked cursor covers it, doubling as an ack.
                    if !drain_batch(&inbox, &stats, name, &mut burst, &mut accepted_since_ack) {
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
                    drain_batch(&inbox, &stats, name, &mut burst, &mut accepted_since_ack);
                    inbox.close(name, format!("bad frame: {e}"));
                    return;
                }
            }
            match acc.next_buffered() {
                Some(body) => frame = LinkFrame::decode(body),
                None => break,
            }
        }
        if !drain_batch(&inbox, &stats, name, &mut burst, &mut accepted_since_ack) {
            return;
        }
        // Ack at the batch boundary: a burst whose tail lands exactly
        // on the cadence must not leave the sender's retention tail
        // unpruned until the idle tick or a heartbeat.
        if accepted_since_ack >= ACK_EVERY {
            accepted_since_ack = 0;
            if write_ack(&mut stream, &inbox, name).is_err() {
                return;
            }
        }
    }
}
