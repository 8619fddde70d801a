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
//! There is one link protocol and one way to tune it: the four setters
//! of [`TcpConfigBuilder`], whose defaults are [`LinkTuning`]'s
//! constants. Whatever the tuning, an endpoint runs four thread roles:
//! the acceptor, the link supervisor, one reader per inbound connection
//! and one ack reader per outbound link.
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
//! The supervisor skips its heartbeat while a write is in flight, so no
//! control frame lands inside a batch.
//!
//! A reader thread per accepted connection drains the whole buffered
//! burst per wakeup, deposits it into the per-(session, sender) FIFO
//! mailboxes under one inbox lock, and wakes each stored waker once per
//! drain instead of once per frame — preserving the per-sender ordering
//! guarantee the λN model assumes *within* each session while letting
//! sessions interleave freely on the socket.
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
use self::recv::accept_loop;
use self::send::{
    kill_stream, link_down_error, wait_for_retention_room, write_or_leave, LinkCell, SendShared,
};
use self::supervise::supervisor_loop;
use crate::link::LinkStats;
use chorus_core::sync::Mutex;
use chorus_core::{
    locate, park, ChoreographyLocation, LocationSet, SessionId, SessionTransport, Transport,
    TransportError, RAW_SESSION,
};
use chorus_wire::{data_frame_wire_len, Envelope};
use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

/// One endpoint of a TCP-connected choreography.
pub struct TcpTransport<L: LocationSet, Target: ChoreographyLocation> {
    send: Arc<SendShared>,
    inbox: Arc<Inbox>,
    /// Sequence counters for the raw (sessionless) compatibility path.
    raw_seqs: Mutex<HashMap<&'static str, u64>>,
    stop: Arc<AtomicBool>,
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

        let peers: HashSet<&'static str> =
            L::names().into_iter().filter(|n| *n != Target::NAME).collect();
        let tuning = config.tuning;
        let stats = Arc::new(LinkStats::default());
        let inbox = Arc::new(Inbox::default());
        let stop = Arc::new(AtomicBool::new(false));

        let acceptor_inbox = Arc::clone(&inbox);
        let acceptor_stats = Arc::clone(&stats);
        let acceptor_stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("chorus-tcp-accept".into())
            .spawn(move || {
                accept_loop(listener, peers, acceptor_inbox, acceptor_stats, tuning, acceptor_stop);
            })
            .map_err(|e| {
                TransportError::Io(std::io::Error::other(format!("spawning acceptor: {e}")))
            })?;

        let send = Arc::new(SendShared {
            me: Target::NAME,
            addrs: config.addrs.clone(),
            tuning,
            stats,
            stop: Arc::clone(&stop),
            links: Mutex::new(HashMap::new()),
        });
        let supervisor_shared = Arc::clone(&send);
        std::thread::Builder::new()
            .name("chorus-tcp-supervisor".into())
            .spawn(move || supervisor_loop(supervisor_shared))
            .map_err(|e| {
                TransportError::Io(std::io::Error::other(format!("spawning link supervisor: {e}")))
            })?;

        Ok(TcpTransport {
            send,
            inbox,
            raw_seqs: Mutex::new(HashMap::new()),
            stop,
            wake_addr,
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
        let Ok((_, to)) = locate::<L>(to) else {
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
        let shared = Arc::downgrade(&self.send);
        Arc::clone(links.entry(to).or_insert_with(|| Arc::new(LinkCell::new(to, shared))))
    }
}

impl<L: LocationSet, Target: ChoreographyLocation> Drop for TcpTransport<L, Target> {
    fn drop(&mut self) {
        // Frames this thread's pass still holds are among those the
        // linger below waits for.
        park::flush_pass();
        // A participant can finish its role (and drop its endpoint)
        // while a slower peer is still owed retained frames — perhaps
        // on a connection that just died. Linger briefly so the
        // supervisor finishes reconnecting and replaying; leaving
        // immediately would strand the tail and starve the peer.
        let cap = (self.send.tuning.dead_after() * 3)
            .clamp(Duration::from_secs(1), Duration::from_secs(3));
        let deadline = Instant::now() + cap;
        let handles: Vec<Arc<LinkCell>> = self.send.links.lock().values().map(Arc::clone).collect();
        // A link still owed acks keeps this thread's waker and wakes it
        // when it prunes or goes down. A link another thread holds (a
        // reconnect can hold it past the cap) is not waited on but
        // looked at again, so no wait outlasts an I/O tick. A link whose
        // last connection attempt was refused owes nothing: its peer is
        // gone.
        let tick = self.send.tuning.io_tick();
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
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        // Shut established streams down so reader/supervisor threads
        // notice promptly instead of waiting out their timeout ticks.
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
        let (_, to_static) = locate::<L>(to)?;
        let handle = self.link_handle(to_static);
        let mut link = handle.lock();
        if let Some((elapsed, attempts)) = link.down {
            return Err(link_down_error(self.send.me, to_static, elapsed, attempts));
        }
        let wire_len = data_frame_wire_len(&frame);
        let limit = self.send.tuning.retain_max;
        if limit > 0 && !link.unacked.is_empty() && link.retained_bytes + wire_len > limit {
            // The frames this park would wait behind may be this
            // thread's own, left to the end of its pass: write them
            // first, or no ack ever frees room.
            drop(link);
            park::flush_pass();
            link = wait_for_retention_room(self.send.me, to_static, &handle, wire_len, limit)?;
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
        write_or_leave(&self.send, to_static, &handle, link)
    }

    fn poll_receive_frame(
        &self,
        session: SessionId,
        from: &str,
        cx: &mut Context<'_>,
    ) -> Poll<Result<Envelope, TransportError>> {
        let (_, from) = locate::<L>(from)?;
        if from == Target::NAME {
            return Poll::Ready(Err(TransportError::UnknownLocation(from.to_string())));
        }
        self.inbox.poll(session, from, cx.waker())
    }

    fn close_session(&self, session: SessionId) {
        self.inbox.close_session(session);
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
