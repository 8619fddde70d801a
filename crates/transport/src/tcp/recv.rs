//! The receive side: each connection's read role and the bursts its
//! holder reads, the reader thread every connection has, and the
//! acceptor, which vets each connector's hello.
//!
//! A connection is read by whichever thread holds its read role. A
//! blocking receive that finds its mailbox empty takes the role of the
//! connection its sender's data arrives on and reads bursts itself until
//! its own frame is in ([`read_until_woken`]). The connection's reader
//! thread reads when no blocking receive does: it steps aside while
//! blocking receives keep taking the role, and is summoned back when a
//! mailbox holds a waker no thread reads for (a pool task's, or a
//! receive that found the role taken). Whoever reads deposits the whole
//! burst, prunes this endpoint's retention on the peer's acks and owes
//! the peer acks and pongs, which the link's writer role sends: a
//! thread never writes on a connection while it holds its read role.

use super::connect::{adopt, await_resume, write_control, LINK_VERSION, SEND_ONLY_VERSION};
use super::inbox::BatchOutcome;
use super::send::{kill_stream, prune_acked, take_writer_role, LinkCell, Shared};
use crate::link::{FrameAccumulator, ACK_EVERY};
use chorus_core::park;
use chorus_core::sync::Mutex;
use chorus_wire::{ControlFrame, Envelope, LinkFrame};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Poll, Waker};
use std::time::{Duration, Instant};

/// A wake-up call for one thread that waits on it with a deadline: the
/// supervisor's, or a reader thread stepped aside. A summons made while
/// nobody waits is answered by the next wait at once.
#[derive(Default)]
pub(super) struct Summons(Mutex<(bool, Option<Waker>)>);

impl Summons {
    pub(super) fn summon(&self) {
        let waker = {
            let mut state = self.0.lock();
            state.0 = true;
            state.1.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Parks the calling thread until it is summoned (`true`) or
    /// `deadline` passes (`false`).
    pub(super) fn wait(&self, deadline: Instant) -> bool {
        park::wait(Some(deadline), |waker| {
            let mut state = self.0.lock();
            if std::mem::take(&mut state.0) {
                return Poll::Ready(());
            }
            if !state.1.as_ref().is_some_and(|held| held.will_wake(waker)) {
                state.1 = Some(waker.clone());
            }
            Poll::Pending
        })
        .is_some()
    }
}

/// What the read role's holder reads with: the frame accumulator, the
/// decoded burst and the wakers it fires, all keeping their capacity
/// from burst to burst.
#[derive(Default)]
struct ReadState {
    acc: FrameAccumulator,
    frames: Vec<(u64, Envelope)>,
    fired: Vec<Waker>,
}

/// One TCP connection to a peer, which carries both directions' data
/// and control frames.
pub(super) struct Conn {
    pub(super) stream: TcpStream,
    /// The peer's link, whose retention this connection's acks prune.
    pub(super) link: Arc<LinkCell>,
    /// This endpoint dialed the connection (the peer accepted it).
    pub(super) dialed: bool,
    /// The read role: held by the one thread reading the socket.
    reading: AtomicBool,
    /// Used by the role's holder only.
    read: Mutex<ReadState>,
    /// The connection ended or was shut down.
    dead: AtomicBool,
    /// Read roles blocking receives have taken: while this moves, the
    /// reader thread stays aside.
    takes: AtomicU64,
    /// A blocking receive found the role held since the reader thread
    /// last looked.
    wanted: AtomicBool,
    /// Calls the reader thread back from aside.
    summons: Summons,
}

impl Conn {
    pub(super) fn new(
        stream: TcpStream,
        link: Arc<LinkCell>,
        dialed: bool,
        acc: FrameAccumulator,
    ) -> Arc<Conn> {
        Arc::new(Conn {
            stream,
            link,
            dialed,
            reading: AtomicBool::new(false),
            read: Mutex::new(ReadState { acc, ..ReadState::default() }),
            dead: AtomicBool::new(false),
            takes: AtomicU64::new(0),
            wanted: AtomicBool::new(false),
            summons: Summons::default(),
        })
    }

    pub(super) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Closes the connection both ways and calls its reader thread back
    /// to exit.
    pub(super) fn shut_down(&self) {
        self.dead.store(true, Ordering::Relaxed);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.summons.summon();
    }

    /// The connection ended under a reader: shut it down, and tear the
    /// link's connection down if it was this one.
    fn end(&self) {
        self.shut_down();
        let mut link = self.link.lock();
        if link.sends_on(self) {
            kill_stream(&mut link);
        }
    }

    // The role's flag is sequentially consistent: a poll that stores a
    // waker and then finds the role free, and a holder that frees the
    // role and then counts the stored wakers, cannot both miss.
    fn try_take_role(&self) -> bool {
        self.reading.compare_exchange(false, true, Ordering::SeqCst, Ordering::Relaxed).is_ok()
    }

    fn release_role(&self) {
        self.reading.store(false, Ordering::SeqCst);
    }

    /// After a poll stored a waker for this connection's data: if no
    /// thread holds the read role, call the reader thread to read.
    pub(super) fn summon_if_unread(&self) {
        if !self.reading.load(Ordering::SeqCst) {
            self.summons.summon();
        }
    }
}

/// What one turn at the socket brought.
enum Turn {
    /// A burst was handled; `mine` if it fired the caller's waker.
    Burst { mine: bool },
    /// The read timed out with no whole frame.
    Tick,
    /// The connection ended.
    Ended,
}

/// Reads `conn`'s next burst and handles all of it: data frames into the
/// inbox, the peer's acks and pongs into this endpoint's retention,
/// acks and pongs owed back onto the link. Wakes every waker the burst
/// fired but `mine` (the caller's own, which it polls for next).
fn read_burst(
    shared: &Shared,
    conn: &Arc<Conn>,
    state: &mut ReadState,
    mine: Option<&Waker>,
) -> Turn {
    let ReadState { acc, frames, fired } = state;
    let mut frame = match acc.poll(&conn.stream) {
        Ok(Some(body)) => LinkFrame::decode(body),
        Ok(None) => return Turn::Tick,
        // The connection ended. That is not an event sessions may
        // observe: the link reconnects and the cursors resume both
        // streams.
        Err(_) => {
            conn.end();
            return Turn::Ended;
        }
    };
    // Decode the whole buffered burst before depositing: one inbox lock
    // and at most one waker fire per mailbox per burst, not per frame.
    let (mut acked, mut ping, mut bad) = (None, None, None);
    loop {
        match frame {
            Ok(LinkFrame::Data { link_seq, envelope }) => frames.push((link_seq, envelope)),
            Ok(LinkFrame::Control(
                ControlFrame::Ack { next } | ControlFrame::Pong { next, .. },
            )) => {
                acked = acked.max(Some(next));
            }
            Ok(LinkFrame::Control(ControlFrame::Ping { nonce })) => ping = Some(nonce),
            // A resume cursor belongs to the handshake.
            Ok(LinkFrame::Control(ControlFrame::Resume { .. })) => {}
            Err(e) => {
                bad = Some(e);
                break;
            }
        }
        match acc.next_buffered() {
            Some(body) => frame = LinkFrame::decode(body),
            None => break,
        }
    }
    let peer = conn.link.to;
    let outcome = if frames.is_empty() {
        BatchOutcome { cursor: shared.inbox.link_cursor(peer), ..BatchOutcome::default() }
    } else {
        shared.inbox.deposit_batch(peer, Some(conn), frames, fired)
    };
    if outcome.duplicates > 0 {
        shared.stats.duplicates.fetch_add(outcome.duplicates, Ordering::Relaxed);
    }
    if outcome.accepted > 0 {
        shared.stats.deposited.fetch_add(u64::from(outcome.accepted), Ordering::Relaxed);
    }
    let ended = outcome.gap || bad.is_some();
    if let Some(e) = bad {
        // The frames that preceded the bad one are delivered; the link
        // fails loudly.
        shared.inbox.close(peer, format!("bad frame: {e}"));
    }
    let due = outcome.accepted > 0 && {
        let since = conn.link.accepted.fetch_add(outcome.accepted, Ordering::Relaxed);
        since + outcome.accepted >= ACK_EVERY && conn.link.accepted.swap(0, Ordering::Relaxed) > 0
    };
    if acked.is_some() || ping.is_some() || due {
        let mut link = conn.link.lock();
        if let Some(next) = acked.filter(|&next| next <= link.next_seq) {
            link.acked = link.acked.max(next);
            let below = link.acked;
            prune_acked(&mut link, below);
            if link.sends_on(conn) {
                link.last_heard = Instant::now();
                link.pings_unanswered = 0;
            }
        }
        // An ack rides the link's next batch. One falling due while the
        // last is still unwritten, or a pong, means no batch is coming
        // soon: the supervisor writes it.
        let mut summon = false;
        if due {
            summon = link.owe_ack.replace(outcome.cursor).is_some();
        }
        if let Some(nonce) = ping {
            link.owe_pong = Some((nonce, outcome.cursor));
            summon = true;
        }
        if summon && link.needs_writer() {
            drop(link);
            shared.supervisor.summon();
        }
    }
    if ended {
        conn.end();
    }
    let mut mine_in = false;
    if let Some(at) = mine.and_then(|mine| fired.iter().position(|waker| waker.will_wake(mine))) {
        fired.swap_remove(at);
        mine_in = true;
    }
    // Wakers re-enqueue sessions into a scheduler queue; they run
    // outside every lock but the read state's.
    fired.drain(..).for_each(Waker::wake);
    if ended {
        Turn::Ended
    } else {
        Turn::Burst { mine: mine_in }
    }
}

/// Marks an ack owed for whatever the peer sent since the last one,
/// and calls the supervisor to write what the link owes if nobody is
/// writing: the link has been quiet for a read tick.
fn owe_idle_ack(shared: &Shared, conn: &Conn) {
    let link = conn.link.owe_accepted(&shared.inbox);
    if link.owes_control() && link.needs_writer() {
        drop(link);
        shared.supervisor.summon();
    }
}

/// A blocking receive's turn at the socket. Takes `conn`'s read role if
/// it is free and reads bursts until one fires `waker` (the frame the
/// receive waits for is in, or the link failed), the connection ends, a
/// read times out or `deadline` passes; then frees the role, and calls
/// the reader thread if mailboxes still wait. Returns `false` if
/// another thread holds the role: it deposits the frame and wakes
/// `waker`.
pub(super) fn read_until_woken(
    shared: &Shared,
    conn: &Arc<Conn>,
    waker: &Waker,
    deadline: Instant,
) -> bool {
    if !conn.try_take_role() {
        conn.wanted.store(true, Ordering::Relaxed);
        return false;
    }
    conn.takes.fetch_add(1, Ordering::Relaxed);
    {
        let mut state = conn.read.lock();
        while let Turn::Burst { mine: false } = read_burst(shared, conn, &mut state, Some(waker)) {
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    conn.release_role();
    if shared.inbox.waiting(conn.link.to) > 0 {
        conn.summons.summon();
    }
    true
}

/// A connection's reader thread: reads when no blocking receive does,
/// until the connection ends or the endpoint stops. Between bursts it
/// steps aside if a blocking receive wanted the role and no mailbox
/// waits, and comes back when summoned or when a whole read tick passes
/// with no blocking receive taking the role.
fn reader_loop(shared: Arc<Shared>, conn: Arc<Conn>) {
    let tick = shared.tuning.io_tick();
    let mut aside = false;
    let mut takes = 0;
    while !shared.stop.load(Ordering::Relaxed) && !conn.is_dead() {
        if aside {
            let summoned = conn.summons.wait(Instant::now() + tick);
            let now_takes = conn.takes.load(Ordering::Relaxed);
            if !summoned {
                owe_idle_ack(&shared, &conn);
            }
            aside = !summoned && now_takes != takes;
            takes = now_takes;
            continue;
        }
        if !conn.try_take_role() {
            // A blocking receive is reading.
            aside = true;
            takes = conn.takes.load(Ordering::Relaxed);
            continue;
        }
        let read = read_burst(&shared, &conn, &mut conn.read.lock(), None);
        conn.release_role();
        match read {
            Turn::Ended => return,
            // The link is quiet: timeout ticks keep shutdown prompt and
            // flush a sender trickling frames slower than the ack cadence.
            Turn::Tick => owe_idle_ack(&shared, &conn),
            Turn::Burst { .. } => {}
        }
        if conn.wanted.swap(false, Ordering::Relaxed) && shared.inbox.waiting(conn.link.to) == 0 {
            aside = true;
            takes = conn.takes.load(Ordering::Relaxed);
        }
    }
}

/// Starts `conn`'s reader thread.
pub(super) fn spawn_reader(shared: &Arc<Shared>, conn: &Arc<Conn>) -> std::io::Result<()> {
    let (shared, conn) = (Arc::clone(shared), Arc::clone(conn));
    std::thread::Builder::new()
        .name("chorus-tcp-read".into())
        .spawn(move || reader_loop(shared, conn))
        .map(drop)
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

/// Accepts connectors until `stop`, each on a thread that becomes the
/// connection's reader. `accept` blocks, so an idle acceptor sleeps;
/// the endpoint's drop sets `stop` and then connects once to wake it.
pub(super) fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    // A hello is the version byte and a census name; nothing longer is
    // read from a connector that has not yet named itself.
    let hello_max = 1 + shared.peers.iter().map(|name| name.len()).max().unwrap_or(0);
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let Ok((stream, _)) = accepted else {
            // Transient accept failures (e.g. ECONNABORTED when a
            // queued peer resets before we accept) must not kill the
            // listener for everyone else.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        let shared = Arc::clone(&shared);
        // A thread the OS refuses takes only this connection with it:
        // the acceptor keeps accepting, and the connector retries
        // within its budget.
        let reader = std::thread::Builder::new().name("chorus-tcp-read".into());
        let _ = reader.spawn(move || {
            if let Some(conn) = accept_conn(&shared, stream, hello_max) {
                reader_loop(shared, conn);
            }
        });
    }
}

/// The accepting half of the handshake. Vets the hello (the version,
/// then the peer's location, resolved to the interned census name once
/// so every later frame routes without allocating), answers with this
/// endpoint's resume cursor for the peer's frames and, for a version-2
/// hello, reads the dialer's own cursor and adopts the connection as
/// this endpoint's link to the peer. Anything malformed closes the
/// connection.
///
/// Two dials that cross are settled by name: the connection the smaller
/// name dialed wins. An endpoint with the smaller name whose dial is in
/// flight, or that sends on a connection it dialed, closes the peer's;
/// the other adopts it, and its own dial, when it completes, finds the
/// link up and closes its connection unused. A new dial from the peer
/// otherwise supersedes the connection the link had (the peer dials
/// only when its own end of that connection is gone), and ends a
/// backoff between this endpoint's own attempts.
fn accept_conn(shared: &Arc<Shared>, mut stream: TcpStream, hello_max: usize) -> Option<Arc<Conn>> {
    stream.set_nodelay(true).ok();
    // A connector that never says hello must not pin this thread past
    // `stop`.
    stream.set_read_timeout(Some(shared.tuning.handshake_timeout())).ok();
    let hello = read_hello(&mut stream, hello_max).ok()?;
    let (&version, name_bytes) = hello.split_first()?;
    if version != LINK_VERSION && version != SEND_ONLY_VERSION {
        return None;
    }
    let name = shared.peers.get(std::str::from_utf8(name_bytes).ok()?).copied()?;
    // Timeout ticks keep shutdown prompt and drive idle acks.
    stream.set_read_timeout(Some(shared.tuning.io_tick())).ok();
    // Tell the (re)connecting sender exactly where to replay from.
    let next = shared.inbox.link_cursor(name);
    write_control(&stream, &ControlFrame::Resume { next }).ok()?;
    let mut acc = FrameAccumulator::default();
    let resume = match version {
        LINK_VERSION => Some(await_resume(shared, &stream, &mut acc).ok()?),
        _ => None,
    };
    let conn = Conn::new(stream, shared.link(name), false, acc);
    if let Some(next) = resume {
        let mut link = conn.link.lock();
        let ours_wins = shared.me < name
            && (link.dialing || link.stream.as_ref().is_some_and(|held| held.dialed));
        if ours_wins || next > link.next_seq {
            drop(link);
            conn.shut_down();
            return None;
        }
        if link.down.is_none() {
            if let Some(old) = link.stream.take() {
                old.shut_down();
            }
            adopt(shared, &mut link, &conn, next);
            if link.needs_writer() {
                // The replay: a failure leaves the link to the
                // supervisor's reconnect.
                drop(take_writer_role(shared, &conn.link, link));
            }
        }
    }
    shared.inbox.carry_data_on(name, &conn, true);
    Some(conn)
}
