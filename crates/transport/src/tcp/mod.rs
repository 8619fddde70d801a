//! TCP transport: length-prefixed link frames over sockets, on links
//! that survive their connections.
//!
//! Each endpoint binds a listener at its configured address. Two
//! endpoints share one connection, which carries both directions' data
//! and control frames. The first to send dials (lazily, with jittered
//! backoff — see [`LinkTuning`]) and says hello: the link-protocol
//! version (2) and its location name. The acceptor answers with a
//! `Resume { next }` cursor for the dialer's frames, the dialer answers
//! with its own for the acceptor's, and the acceptor adopts the
//! connection as its own link to the dialer; each end replays its
//! unacknowledged tail from the other's cursor. After that, every frame
//! is a `u32` little-endian length followed by a
//! [`chorus_wire::LinkFrame`]: either a data frame (per-link sequence
//! number + session [`chorus_wire::Envelope`]) or an
//! ack/heartbeat/resume control frame. Dials that cross are settled by
//! name: the connection the smaller name dialed wins, and the other
//! closes. A version-1 hello (a connector that only sends) is still
//! read, and never adopted.
//!
//! There is one link protocol and one way to tune it: the four setters
//! of [`TcpConfigBuilder`], whose defaults are [`LinkTuning`]'s
//! constants. Whatever the tuning, an endpoint runs three thread roles:
//! the acceptor, the link supervisor, and one reader per connection.
//!
//! # The link layer
//!
//! Any TCP connection can die and come back at any moment without a
//! session observing anything but latency:
//!
//! * **Retention + replay.** A send queue retains every encoded frame
//!   (refcounted, so retention is cheap) until the receiver's
//!   cumulative ack covers it. On reconnect each end tells the other
//!   its cursor and the sender replays exactly the unacknowledged tail,
//!   in both directions.
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
//!   typed [`TransportError::LinkDown`] instead of hanging. One thread
//!   dials at a time, with no lock held: other senders leave their
//!   frames retained and return.
//!
//! # The batched data plane
//!
//! Sends are self-clocked. A sender holds its link's lock only to
//! retain its frame. If no write is in progress it becomes the link's
//! writer: it assembles every retained frame not yet on the current
//! connection into one batch (the fixed 33-byte headers in a reused
//! per-link buffer, the refcounted payloads as their own slices, never
//! copied), writes it with the lock released, and repeats for whatever
//! queued meanwhile. A sender that finds a write in progress returns at
//! once, and its frame leaves on the writer's thread. A sender on a
//! pool worker of the session runtime records the link in the worker's
//! pass ([`chorus_core::park::defer_write`]) instead, and the worker
//! takes the writer role for it when the pass ends. A batch is thus the
//! new frame alone on an idle link, what queued during the last write
//! on a busy one, a worker pass's frames on the link, and the
//! unacknowledged tail (up to 256 frames per write) after a reconnect.
//! The writer role is the only way onto an established connection: the
//! acks, pongs and heartbeat pings the endpoint owes lead the link's
//! next batch, so no control frame lands inside a batch, and the
//! supervisor writes them when no sender does.
//!
//! # The read role
//!
//! Each connection has a read role, held by at most one thread, which
//! reads the socket: it drains the whole buffered burst per read,
//! deposits it into the per-(session, sender) FIFO mailboxes under one
//! inbox lock, wakes each stored waker once per burst instead of once
//! per frame, prunes this endpoint's retention on the peer's acks, and
//! owes the peer acks and pongs — preserving the per-sender ordering
//! guarantee the λN model assumes *within* each session while letting
//! sessions interleave freely on the socket. A thread never writes on a
//! connection while it holds its read role, so two ends streaming at
//! each other always keep reading.
//!
//! A blocking receive whose mailbox is empty takes the read role of the
//! connection its sender's data arrives on and reads until its own
//! frame is in ([`SessionTransport::poll_receive_blocking`]), so the
//! frame crosses no thread. The connection's reader thread reads when
//! nobody else does (pool tasks, one-way streams, an idle link): it
//! steps aside while blocking receives keep taking the role, and is
//! summoned back when a mailbox holds a waker no thread reads for.
//!
//! Retention is bounded: a link whose unacknowledged tail reaches the
//! [`TcpConfigBuilder::retain_max`] watermark parks further senders
//! until acks prune it (a worker writes its own pass first, as the
//! frames it would wait behind may be its own), and surfaces
//! [`TransportError::RetentionExceeded`] if the link resolves down
//! while they wait — a peer that stays dead cannot grow a sender's
//! retention queue without bound.

mod config;
mod connect;
mod inbox;
mod recv;
mod send;
mod supervise;
#[cfg(test)]
mod tests;

pub use self::config::{free_local_addrs, TcpConfig, TcpConfigBuilder};
pub use crate::link::TcpLinkStats;

use self::inbox::Inbox;
use self::recv::{accept_loop, read_until_woken, Summons};
use self::send::{
    kill_stream, link_down_error, take_writer_role, wait_for_retention_room, write_or_leave, Shared,
};
use self::supervise::supervisor_loop;
use crate::link::LinkStats;
use chorus_core::sync::Mutex;
use chorus_core::{
    locate, park, ChoreographyLocation, LocationSet, SessionId, SessionTransport, Transport,
    TransportError, RAW_SESSION,
};
use chorus_wire::{data_frame_wire_len, Envelope};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

/// One endpoint of a TCP-connected choreography.
pub struct TcpTransport<L: LocationSet, Target: ChoreographyLocation> {
    shared: Arc<Shared>,
    /// Sequence counters for the raw (sessionless) compatibility path.
    raw_seqs: Mutex<HashMap<&'static str, u64>>,
    /// This endpoint's own listener, connected to once on drop so the
    /// acceptor's blocking `accept` returns and sees `stop`.
    wake_addr: SocketAddr,
    system: PhantomData<(L, Target)>,
}

impl<L: LocationSet, Target: ChoreographyLocation> TcpTransport<L, Target> {
    /// Binds `target`'s listener and starts its acceptor and link
    /// supervisor threads.
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
        // Where the endpoint's drop connects to wake its acceptor.
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(Ipv4Addr::LOCALHOST.into());
        }

        let shared = Arc::new(Shared {
            me: Target::NAME,
            peers: L::names().into_iter().filter(|n| *n != Target::NAME).collect(),
            addrs: config.addrs.clone(),
            tuning: config.tuning,
            stats: LinkStats::default(),
            stop: AtomicBool::new(false),
            links: Mutex::new(HashMap::new()),
            inbox: Inbox::default(),
            supervisor: Summons::default(),
        });
        let acceptor_shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("chorus-tcp-accept".into())
            .spawn(move || accept_loop(listener, acceptor_shared))
            .map_err(|e| {
                TransportError::Io(std::io::Error::other(format!("spawning acceptor: {e}")))
            })?;
        let supervisor_shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("chorus-tcp-supervisor".into())
            .spawn(move || supervisor_loop(supervisor_shared))
            .map_err(|e| {
                TransportError::Io(std::io::Error::other(format!("spawning link supervisor: {e}")))
            })?;

        Ok(TcpTransport {
            shared,
            raw_seqs: Mutex::new(HashMap::new()),
            wake_addr,
            system: PhantomData,
        })
    }

    /// A snapshot of this endpoint's link-layer activity: reconnects,
    /// replayed and deduplicated frames, heartbeats, downed links.
    pub fn link_stats(&self) -> TcpLinkStats {
        self.shared.stats.snapshot()
    }

    /// Chaos/test hook: hard-kills every currently established
    /// connection (as a crashed middlebox would), returning how many
    /// were torn down. The links replay their retained tails on
    /// reconnect, both ways; sessions observe only latency.
    pub fn break_established_links(&self) -> usize {
        let mut killed = 0;
        for handle in self.shared.all_links() {
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
        let Ok((_, to)) = locate::<L>(to) else {
            return (0, 0);
        };
        let handle = self.shared.links.lock().get(to).map(Arc::clone);
        handle.map_or((0, 0), |handle| {
            let link = handle.lock();
            (link.unacked.len(), link.retained_bytes)
        })
    }

    /// Resolves a sender for the receive side: a census member other
    /// than this endpoint.
    fn sender(from: &str) -> Result<&'static str, TransportError> {
        let (_, from) = locate::<L>(from)?;
        if from == Target::NAME {
            return Err(TransportError::UnknownLocation(from.to_string()));
        }
        Ok(from)
    }
}

impl<L: LocationSet, Target: ChoreographyLocation> Drop for TcpTransport<L, Target> {
    fn drop(&mut self) {
        let shared = &self.shared;
        // Frames this thread's pass still holds are among those the
        // linger below waits for.
        park::flush_pass();
        let handles = shared.all_links();
        // The peer's own drop lingers until what it sent is
        // acknowledged, and nobody else will ever tell it about the
        // frames this endpoint accepted: pay the acks owed before going.
        for handle in &handles {
            let link = handle.owe_accepted(&shared.inbox);
            if link.owes_control() && link.needs_writer() {
                drop(take_writer_role(shared, handle, link));
            }
        }
        // A participant can finish its role (and drop its endpoint)
        // while a slower peer is still owed retained frames — perhaps
        // on a connection that just died. Linger briefly so the
        // supervisor finishes reconnecting and replaying; leaving
        // immediately would strand the tail and starve the peer.
        let cap =
            (shared.tuning.dead_after() * 3).clamp(Duration::from_secs(1), Duration::from_secs(3));
        let deadline = Instant::now() + cap;
        // A link still owed acks keeps this thread's waker and wakes it
        // when it prunes or goes down. A link another thread holds is
        // not waited on but looked at again, so no wait outlasts an I/O
        // tick. A link whose last connection attempt was refused owes
        // nothing: its peer is gone.
        let tick = shared.tuning.io_tick();
        while Instant::now() < deadline {
            let drained = park::wait(Some(deadline.min(Instant::now() + tick)), |waker| {
                let mut owed = false;
                for handle in &handles {
                    let Some(mut link) = handle.try_lock() else {
                        owed = true;
                        continue;
                    };
                    if link.owes_peer() {
                        link.wake_on_settle(waker);
                        owed = true;
                    }
                }
                if owed {
                    Poll::Pending
                } else {
                    Poll::Ready(())
                }
            });
            if drained.is_some() {
                break;
            }
        }
        shared.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        shared.supervisor.summon();
        // Shut every connection down so reader threads notice promptly
        // instead of waiting out their timeout ticks; taking them also
        // frees each link from its connection.
        for handle in handles {
            if let Some(conn) = handle.lock().stream.take() {
                conn.shut_down();
            }
        }
        for conn in shared.inbox.take_conns() {
            conn.shut_down();
        }
    }
}

impl<L: LocationSet, Target: ChoreographyLocation> SessionTransport<L, Target>
    for TcpTransport<L, Target>
{
    fn send_frame(&self, to: &str, frame: Envelope) -> Result<(), TransportError> {
        let (_, to_static) = locate::<L>(to)?;
        let handle = self.shared.link(to_static);
        let mut link = handle.lock();
        if let Some((elapsed, attempts)) = link.down {
            return Err(link_down_error(self.shared.me, to_static, elapsed, attempts));
        }
        let wire_len = data_frame_wire_len(&frame);
        let limit = self.shared.tuning.retain_max;
        if limit > 0 && !link.unacked.is_empty() && link.retained_bytes + wire_len > limit {
            // The frames this park would wait behind may be this
            // thread's own, left to the end of its pass: write them
            // first, or no ack ever frees room.
            drop(link);
            park::flush_pass();
            link = wait_for_retention_room(self.shared.me, to_static, &handle, wire_len, limit)?;
        }
        // Retain first (the sequence is assigned *after* any watermark
        // park, so queue order always matches sequence order): whatever
        // happens to the connection from here on, the frame is queued
        // and will reach the peer (or the link goes down loudly).
        let seq = link.next_seq;
        link.next_seq += 1;
        link.retained_bytes += wire_len;
        link.unacked.push_back((seq, frame));
        if link.stream.is_some() && !link.writing && park::defer_write(&handle) {
            // A pool worker: the frame leaves when the worker's pass
            // ends, in one batch with the rest of the pass's frames on
            // this link.
            return Ok(());
        }
        write_or_leave(&self.shared, &handle, link)
    }

    fn poll_receive_frame(
        &self,
        session: SessionId,
        from: &str,
        cx: &mut Context<'_>,
    ) -> Poll<Result<Envelope, TransportError>> {
        let from = Self::sender(from)?;
        let (polled, conn) = self.shared.inbox.poll(session, from, cx.waker());
        if let Some(conn) = conn {
            // A task's waker: whoever reads the connection must know.
            conn.summon_if_unread();
        }
        polled
    }

    /// A blocking receive reads the socket itself: with its mailbox
    /// empty, it takes the read role of the connection its sender's
    /// data arrives on and reads until its frame is in, so the frame
    /// crosses no thread. If another thread holds the role, it parks
    /// until that thread deposits the frame.
    fn poll_receive_blocking(
        &self,
        session: SessionId,
        from: &str,
        cx: &mut Context<'_>,
        deadline: Instant,
    ) -> Poll<Result<Envelope, TransportError>> {
        let from = Self::sender(from)?;
        loop {
            let (polled, conn) = self.shared.inbox.poll(session, from, cx.waker());
            let Some(conn) = conn.filter(|conn| !conn.is_dead()) else {
                return polled;
            };
            if Instant::now() >= deadline
                || !read_until_woken(&self.shared, &conn, cx.waker(), deadline)
            {
                return Poll::Pending;
            }
        }
    }

    fn close_session(&self, session: SessionId) {
        self.shared.inbox.close_session(session);
    }
}

impl<L: LocationSet, Target: ChoreographyLocation> Transport<L, Target>
    for TcpTransport<L, Target>
{
    fn send(&self, to: &str, data: &[u8]) -> Result<(), TransportError> {
        let seq = {
            let (_, to_static) = locate::<L>(to)?;
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
