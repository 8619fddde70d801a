//! Retention-bound regression tests for the resilient TCP link.
//!
//! These tests speak the raw wire protocol from a hand-rolled peer so
//! they can put the link into states a healthy [`TcpTransport`] never
//! volunteers: a peer that receives but never acknowledges (retention
//! grows without bound unless the watermark parks the sender), and a
//! peer that dies for good while a sender is parked (the park must
//! surface [`TransportError::RetentionExceeded`], not hang). The third
//! test pins the batch-boundary ack: a burst that ends between ack
//! cadence points must still drain the sender's retention tail promptly
//! instead of waiting for a heartbeat. The fourth pins the ack a reader
//! owes when its endpoint is dropped, without which the peer's own drop
//! lingers its full cap.

use chorus_core::{SessionTransport, Transport, TransportError, RAW_SESSION};
use chorus_transport::{free_local_addrs, TcpConfigBuilder, TcpTransport};
use chorus_wire::{ControlFrame, LinkFrame};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::task::{Context, Wake, Waker};
use std::time::{Duration, Instant};

chorus_core::locations! { Alice, Bob }
type System = chorus_core::LocationSet!(Alice, Bob);

/// Reads one outer length-prefixed frame (blocking).
fn read_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body)?;
    Ok(body)
}

/// Writes one outer length-prefixed frame.
fn write_frame(stream: &mut TcpStream, body: &[u8]) -> std::io::Result<()> {
    stream.write_all(&(body.len() as u32).to_le_bytes())?;
    stream.write_all(body)
}

/// A fake resilient receiver: accepts one connection, answers the
/// hello with `Resume { next: 0 }`, then counts every data frame it
/// reads into `data_seen` — and never acks on its own. The write half
/// of the socket is handed back so the test decides when (or whether)
/// acknowledgements flow.
fn fake_peer(listener: TcpListener, data_seen: Arc<AtomicU64>) -> TcpStream {
    let (mut stream, _) = listener.accept().expect("sender never connected");
    read_frame(&mut stream).expect("no hello frame");
    write_frame(&mut stream, &ControlFrame::Resume { next: 0 }.encode())
        .expect("resume write failed");
    let write_half = stream.try_clone().expect("socket clone failed");
    std::thread::spawn(move || {
        while let Ok(body) = read_frame(&mut stream) {
            if matches!(LinkFrame::decode(&body), Ok(LinkFrame::Data { .. })) {
                data_seen.fetch_add(1, Ordering::SeqCst);
            }
        }
    });
    write_half
}

/// The watermark must park a sender whose peer stops acking — bounded
/// retention instead of unbounded queue growth — and an ack must wake
/// the parked sender so the stream finishes.
#[test]
fn dead_peer_cannot_oom_a_sender() {
    const LIMIT: usize = 2048;
    const MESSAGES: u64 = 120;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let bob_addr = listener.local_addr().unwrap();
    let addrs = free_local_addrs(1).unwrap();
    let cfg = TcpConfigBuilder::new()
        .location(Alice, addrs[0])
        .location(Bob, bob_addr)
        // Heartbeats play no part here; park purely on the watermark.
        .heartbeat(Duration::from_secs(60))
        .retain_max(LIMIT)
        .build::<System>()
        .unwrap();
    let data_seen = Arc::new(AtomicU64::new(0));
    let peer = {
        let data_seen = Arc::clone(&data_seen);
        std::thread::spawn(move || fake_peer(listener, data_seen))
    };
    let alice = TcpTransport::<System, _>::bind(Alice, cfg).unwrap();
    let alice = Arc::new(alice);
    let sender = {
        let alice = Arc::clone(&alice);
        std::thread::spawn(move || {
            for i in 0..MESSAGES {
                alice.send("Bob", &[0x5a; 64]).map_err(|e| (i, e)).unwrap();
            }
        })
    };
    let mut write_half = peer.join().unwrap();

    // Phase 1: no acks flow. Retention must climb to the watermark and
    // stop there — never past it — while the sender parks.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_frames, bytes) = alice.retention("Bob");
        assert!(bytes <= LIMIT, "retention {bytes} burst past the {LIMIT}-byte watermark");
        // 64-byte payload + 33 bytes of framing = 97 wire bytes; once
        // another frame no longer fits, the sender is parked.
        if bytes + 97 > LIMIT {
            break;
        }
        assert!(Instant::now() < deadline, "sender never reached the watermark ({bytes} bytes)");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(!sender.is_finished(), "sender should be parked at the watermark, not done");

    // Phase 2: start acking what actually arrived. Each prune must wake
    // the parked sender, so the whole stream completes.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sender.is_finished() {
        assert!(Instant::now() < deadline, "acks failed to wake the parked sender");
        let next = data_seen.load(Ordering::SeqCst);
        write_frame(&mut write_half, &ControlFrame::Ack { next }.encode()).unwrap();
        let (_, bytes) = alice.retention("Bob");
        assert!(bytes <= LIMIT, "retention {bytes} burst past the watermark mid-drain");
        std::thread::sleep(Duration::from_millis(5));
    }
    sender.join().unwrap();

    // Final ack covers the tail; retention accounting returns to zero.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        write_frame(
            &mut write_half,
            &ControlFrame::Ack { next: data_seen.load(Ordering::SeqCst) }.encode(),
        )
        .unwrap();
        let (frames, bytes) = alice.retention("Bob");
        if frames == 0 && bytes == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "retention tail never drained: {frames} frames");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A sender parked on the watermark whose link then dies for good must
/// get the typed [`TransportError::RetentionExceeded`] — naming the
/// edge and the watermark — not hang until the watchdog.
#[test]
fn parked_sender_surfaces_retention_exceeded_when_the_link_dies() {
    const LIMIT: usize = 1024;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let bob_addr = listener.local_addr().unwrap();
    let addrs = free_local_addrs(1).unwrap();
    let cfg = TcpConfigBuilder::new()
        .location(Alice, addrs[0])
        .location(Bob, bob_addr)
        // Fast failure detection: the connection's reader sees the
        // socket die, and the reconnect budget burns out in a few
        // milliseconds.
        .heartbeat(Duration::from_millis(50))
        .retry_limit(3)
        .retry_base(Duration::from_millis(2))
        .retain_max(LIMIT)
        .build::<System>()
        .unwrap();
    let data_seen = Arc::new(AtomicU64::new(0));
    let peer = {
        let data_seen = Arc::clone(&data_seen);
        std::thread::spawn(move || fake_peer(listener, data_seen))
    };
    let alice = TcpTransport::<System, _>::bind(Alice, cfg).unwrap();
    let alice = Arc::new(alice);
    let sender = {
        let alice = Arc::clone(&alice);
        std::thread::spawn(move || {
            for _ in 0..64u32 {
                alice.send("Bob", &[0x5a; 64])?;
            }
            Ok::<(), TransportError>(())
        })
    };
    let write_half = peer.join().unwrap();

    // Wait until the sender is parked at the watermark.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, bytes) = alice.retention("Bob");
        if bytes + 97 > LIMIT {
            break;
        }
        assert!(Instant::now() < deadline, "sender never reached the watermark");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Kill the peer for good: both socket halves gone, listener closed,
    // nothing left to reconnect to.
    write_half.shutdown(std::net::Shutdown::Both).ok();
    drop(write_half);

    let err =
        sender.join().unwrap().expect_err("a parked sender on a dead link must error, not finish");
    match err {
        TransportError::RetentionExceeded { edge, retained_bytes, limit } => {
            assert_eq!(edge, "Alice->Bob");
            assert_eq!(limit, LIMIT);
            assert!(retained_bytes <= LIMIT, "accounted {retained_bytes} past the watermark");
            assert!(retained_bytes > 0, "the retained tail is what the error reports");
        }
        other => panic!("expected RetentionExceeded, got: {other}"),
    }
}

/// Regression for the ack-stall bug: a burst whose final frames land
/// *between* ack-cadence points must still be pruned promptly (the
/// receiver acks at the batch drain boundary and again on its idle
/// tick), not sit in the sender's retention queue until a heartbeat.
#[test]
fn retention_drains_after_a_final_partial_batch() {
    let addrs = free_local_addrs(2).unwrap();
    let cfg = TcpConfigBuilder::new()
        .location(Alice, addrs[0])
        .location(Bob, addrs[1])
        // Heartbeats far beyond the test horizon: if pruning needed a
        // heartbeat, this test would time out.
        .heartbeat(Duration::from_secs(60))
        .build::<System>()
        .unwrap();
    let a_cfg = cfg.clone();
    let b_cfg = cfg;
    let _bob = TcpTransport::<System, _>::bind(Bob, b_cfg).unwrap();
    let alice = TcpTransport::<System, _>::bind(Alice, a_cfg).unwrap();
    // ACK_EVERY is 16; 19 frames leave a 3-frame tail past the last
    // cadence point. Bob's application never receives — draining is
    // entirely the link layer's job.
    for i in 0..19u32 {
        alice.send("Bob", &i.to_le_bytes()).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (frames, bytes) = alice.retention("Bob");
        if frames == 0 && bytes == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "retention tail stalled past the ack cadence: {frames} frames, {bytes} bytes"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A waker that holds the reader thread that wakes it until released.
struct HoldReader {
    deposited: mpsc::Sender<()>,
    released: Mutex<mpsc::Receiver<()>>,
}

impl Wake for HoldReader {
    fn wake(self: Arc<Self>) {
        self.deposited.send(()).unwrap();
        self.released.lock().unwrap().recv().unwrap();
    }
}

/// Regression for the stranded drop: an endpoint's drop lingers (up to
/// 3 s) until its retained frames are acknowledged, and the peer owes
/// those acks on its side of the shared connection, carried by its
/// link's next batch or written by its supervisor — so an endpoint
/// dropped just after its reader accepted a frame must still get the
/// ack it owes written, or the peer waits for an ack nobody is left to
/// send.
///
/// The interleaving that strands the peer is forced, not raced: a
/// mailbox waker runs on Bob's reader thread between the deposit and
/// the reader's next look at `stop`, and holds it there until Bob has
/// been dropped. The mirror order (the sender drops first, while the
/// receiver is alive to ack on its idle tick) must be as quick.
#[test]
fn a_dropped_endpoint_still_acks_what_it_accepted() {
    for receiver_drops_first in [true, false] {
        let addrs = free_local_addrs(2).unwrap();
        let cfg = TcpConfigBuilder::new()
            .location(Alice, addrs[0])
            .location(Bob, addrs[1])
            .build::<System>()
            .unwrap();
        let bob = TcpTransport::<System, _>::bind(Bob, cfg.clone()).unwrap();
        let alice = TcpTransport::<System, _>::bind(Alice, cfg).unwrap();

        let (deposited_tx, deposited) = mpsc::channel::<()>();
        let (release, released) = mpsc::channel::<()>();
        let waker = Waker::from(Arc::new(HoldReader {
            deposited: deposited_tx,
            released: Mutex::new(released),
        }));
        let polled = bob.poll_receive_frame(RAW_SESSION, "Alice", &mut Context::from_waker(&waker));
        assert!(polled.is_pending(), "nothing has been sent yet");
        alice.send("Bob", b"owed an ack").unwrap();
        deposited.recv().unwrap();

        let started = Instant::now();
        if receiver_drops_first {
            drop(bob);
            release.send(()).unwrap();
            drop(alice);
        } else {
            release.send(()).unwrap();
            drop(alice);
            drop(bob);
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "dropping both ends took {took:?} (receiver first: {receiver_drops_first})"
        );
    }
}
