use super::*;
use std::collections::HashSet;
use std::sync::atomic::AtomicU64;
use std::task::Waker;

/// Counts connect attempts that failed and went into the retry
/// loop, so `connect_retries_until_peer_binds` can *force* the
/// retry path instead of hoping a race exercises it.
pub(super) static FAILED_CONNECT_ATTEMPTS: AtomicU64 = AtomicU64::new(0);

chorus_core::locations! { Alice, Bob }
type System = chorus_core::LocationSet!(Alice, Bob);

fn config() -> TcpConfig<System> {
    let addrs = free_local_addrs(2).unwrap();
    TcpConfigBuilder::new()
        .location(Alice, addrs[0])
        .location(Bob, addrs[1])
        .build::<System>()
        .unwrap()
}

#[test]
fn config_requires_every_location() {
    let addrs = free_local_addrs(1).unwrap();
    let result = TcpConfigBuilder::new().location(Alice, addrs[0]).build::<System>();
    assert_eq!(result.unwrap_err(), vec!["Bob"]);
}

#[test]
fn concurrent_callers_never_share_an_address() {
    let barrier = std::sync::Barrier::new(32);
    let addrs: Vec<std::net::SocketAddr> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..32)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    free_local_addrs(4).unwrap()
                })
            })
            .collect();
        callers.into_iter().flat_map(|c| c.join().unwrap()).collect()
    });
    let distinct: HashSet<_> = addrs.iter().collect();
    assert_eq!(distinct.len(), 128, "an address was handed out twice: {addrs:?}");
    assert!(addrs.iter().all(|a| a.port() < 32768), "a port inside the ephemeral window");
}

#[test]
fn messages_cross_sockets_in_order() {
    let config = config();
    let a_cfg = config.clone();
    let b_cfg = config;
    let bob = std::thread::spawn(move || {
        let t = TcpTransport::bind(Bob, b_cfg).unwrap();
        let one = t.receive("Alice").unwrap();
        let two = t.receive("Alice").unwrap();
        t.send("Alice", b"ack").unwrap();
        (one, two)
    });
    let alice = TcpTransport::bind(Alice, a_cfg).unwrap();
    alice.send("Bob", b"first").unwrap();
    alice.send("Bob", b"second").unwrap();
    assert_eq!(alice.receive("Bob").unwrap(), b"ack");
    let (one, two) = bob.join().unwrap();
    assert_eq!(one, b"first");
    assert_eq!(two, b"second");
}

#[test]
fn connect_retries_until_peer_binds() {
    let config = config();
    let a_cfg = config.clone();
    let b_cfg = config;
    // Alice starts sending before Bob has bound its listener, and
    // Bob binds only after observing at least one *failed* connect
    // attempt — so the retry path is exercised deterministically,
    // with no wall-clock sleep. (The counter is global across this
    // test binary, so a concurrent test's failed connect could in
    // principle satisfy the gate early; the test then degrades to
    // racing the bind, never to flaking.)
    let before = FAILED_CONNECT_ATTEMPTS.load(Ordering::Relaxed);
    let alice = std::thread::spawn(move || {
        let t = TcpTransport::bind(Alice, a_cfg).unwrap();
        t.send("Bob", b"early").unwrap();
    });
    while FAILED_CONNECT_ATTEMPTS.load(Ordering::Relaxed) == before {
        std::thread::yield_now();
    }
    let bob = TcpTransport::bind(Bob, b_cfg).unwrap();
    assert_eq!(bob.receive("Alice").unwrap(), b"early");
    alice.join().unwrap();
}

#[test]
fn empty_payloads_are_delivered() {
    let config = config();
    let a_cfg = config.clone();
    let b_cfg = config;
    let bob = std::thread::spawn(move || {
        let t = TcpTransport::bind(Bob, b_cfg).unwrap();
        t.receive("Alice").unwrap()
    });
    let alice = TcpTransport::bind(Alice, a_cfg).unwrap();
    alice.send("Bob", b"").unwrap();
    assert_eq!(bob.join().unwrap(), b"");
}

#[test]
fn sessions_demultiplex_on_one_socket() {
    let config = config();
    let a_cfg = config.clone();
    let b_cfg = config;
    let bob = std::thread::spawn(move || {
        let t = TcpTransport::bind(Bob, b_cfg).unwrap();
        // Read the later session first; the earlier one must be intact.
        let s2 = t.receive_frame(2, "Alice").unwrap();
        let s1a = t.receive_frame(1, "Alice").unwrap();
        let s1b = t.receive_frame(1, "Alice").unwrap();
        (s2.payload, s1a.payload, s1b.payload)
    });
    let alice = TcpTransport::bind(Alice, a_cfg).unwrap();
    alice.send_frame("Bob", Envelope::new(1, 0, b"s1-first".to_vec())).unwrap();
    alice.send_frame("Bob", Envelope::new(1, 1, b"s1-second".to_vec())).unwrap();
    alice.send_frame("Bob", Envelope::new(2, 0, b"s2-only".to_vec())).unwrap();
    let (s2, s1a, s1b) = bob.join().unwrap();
    assert_eq!(s2, b"s2-only");
    assert_eq!(s1a, b"s1-first");
    assert_eq!(s1b, b"s1-second");
}

#[test]
fn killed_connections_replay_the_unacked_tail() {
    // Fast heartbeat so the test's reconnect window is tight.
    let addrs = free_local_addrs(2).unwrap();
    let cfg = TcpConfigBuilder::new()
        .location(Alice, addrs[0])
        .location(Bob, addrs[1])
        .heartbeat(Duration::from_millis(50))
        .retry_base(Duration::from_millis(2))
        .build::<System>()
        .unwrap();
    let a_cfg = cfg.clone();
    let b_cfg = cfg;
    let bob = std::thread::spawn(move || {
        let t = TcpTransport::bind(Bob, b_cfg).unwrap();
        let mut got = Vec::new();
        for _ in 0..6 {
            got.push(t.receive("Alice").unwrap());
        }
        t.send("Alice", b"done").unwrap();
        got
    });
    let alice = TcpTransport::bind(Alice, a_cfg).unwrap();
    for i in 0..3u8 {
        alice.send("Bob", &[i]).unwrap();
    }
    // Hard-kill the established connection mid-session; the next
    // sends re-establish and the link replays anything unacked.
    assert!(alice.break_established_links() >= 1);
    for i in 3..6u8 {
        alice.send("Bob", &[i]).unwrap();
    }
    assert_eq!(alice.receive("Bob").unwrap(), b"done");
    let got = bob.join().unwrap();
    assert_eq!(got, vec![vec![0], vec![1], vec![2], vec![3], vec![4], vec![5]]);
    let stats = alice.link_stats();
    assert!(stats.reconnects >= 1, "kill must force a reconnect: {stats:?}");
}

#[test]
fn exhausted_retry_budget_surfaces_link_down() {
    // Bob's address is reserved but never bound: every connect is
    // refused, so the budget drains deterministically and fast.
    let addrs = free_local_addrs(2).unwrap();
    let cfg = TcpConfigBuilder::new()
        .location(Alice, addrs[0])
        .location(Bob, addrs[1])
        .retry_limit(3)
        .retry_base(Duration::from_millis(1))
        .build::<System>()
        .unwrap();
    let alice = TcpTransport::<System, _>::bind(Alice, cfg).unwrap();
    let err = alice.send("Bob", b"void").unwrap_err();
    match &err {
        TransportError::LinkDown { edge, attempts, .. } => {
            assert_eq!(edge, "Alice->Bob");
            assert_eq!(*attempts, 3);
        }
        other => panic!("expected LinkDown, got {other:?}"),
    }
    // The link is terminally down: later sends fail immediately.
    let again = alice.send("Bob", b"still void").unwrap_err();
    assert!(matches!(again, TransportError::LinkDown { .. }), "got {again:?}");
    assert_eq!(alice.link_stats().links_down, 1);
}

#[test]
fn drop_does_not_linger_on_a_peer_that_is_gone() {
    let config = config();
    let alice = TcpTransport::bind(Alice, config.clone()).unwrap();
    let bob = TcpTransport::bind(Bob, config).unwrap();
    alice.send("Bob", b"hello").unwrap();
    assert_eq!(bob.receive("Alice").unwrap(), b"hello");
    drop(bob);
    // A frame whose ack died with the connection: the link still
    // retains it, and the supervisor's reconnects to Bob are refused.
    {
        let handle = alice.shared.link("Bob");
        let mut link = handle.lock();
        kill_stream(&mut link);
        let frame = Envelope::new(RAW_SESSION, 1, b"unacked".to_vec());
        let seq = link.next_seq;
        link.next_seq += 1;
        link.retained_bytes += data_frame_wire_len(&frame);
        link.unacked.push_back((seq, frame));
    }
    let cap = Duration::from_secs(3);
    let started = Instant::now();
    drop(alice);
    let lingered = started.elapsed();
    assert!(lingered < cap / 2, "the drop lingered {lingered:?} of its {cap:?} cap on a gone peer");
}

#[test]
fn single_frame_larger_than_watermark_still_sends() {
    // A watermark below one frame's wire footprint must admit the
    // frame when the queue is empty — otherwise it could never be
    // sent at all.
    let addrs = free_local_addrs(2).unwrap();
    let cfg = TcpConfigBuilder::new()
        .location(Alice, addrs[0])
        .location(Bob, addrs[1])
        .retain_max(64)
        .build::<System>()
        .unwrap();
    let a_cfg = cfg.clone();
    let b_cfg = cfg;
    let bob = std::thread::spawn(move || {
        let t = TcpTransport::bind(Bob, b_cfg).unwrap();
        t.receive("Alice").unwrap()
    });
    let alice = TcpTransport::bind(Alice, a_cfg).unwrap();
    let oversized = vec![7u8; 4096];
    alice.send("Bob", &oversized).unwrap();
    assert_eq!(bob.join().unwrap(), oversized);
}

#[test]
fn a_links_first_failure_stays_its_failure() {
    let inbox = Inbox::default();
    let take = |session| match inbox.poll(session, "Alice", Waker::noop()).0 {
        Poll::Ready(frame) => frame,
        Poll::Pending => panic!("session {session}'s mailbox is empty"),
    };
    let mut batch =
        vec![(0, Envelope::new(1, 0, b"ok".to_vec())), (1, Envelope::new(1, 2, b"gap".to_vec()))];
    inbox.deposit_batch("Alice", None, &mut batch, &mut Vec::new());
    assert_eq!(take(1).unwrap().payload, b"ok");
    let first = take(1).unwrap_err().to_string();
    assert!(first.contains("frame from Alice in session 1 arrived out of order"), "got: {first}");
    assert_eq!(first.matches("session protocol violation").count(), 1, "got: {first}");
    // A later batch skips link frames 2..9: a second failure, which must
    // not replace the first.
    let mut later = vec![(9, Envelope::new(2, 0, b"late".to_vec()))];
    assert!(inbox.deposit_batch("Alice", None, &mut later, &mut Vec::new()).gap);
    assert_eq!(take(1).unwrap_err().to_string(), first);
    assert_eq!(take(2).unwrap_err().to_string(), first);
}

#[test]
fn retention_reports_and_drains() {
    let addrs = free_local_addrs(2).unwrap();
    let cfg = TcpConfigBuilder::new()
        .location(Alice, addrs[0])
        .location(Bob, addrs[1])
        .heartbeat(Duration::from_millis(50))
        .build::<System>()
        .unwrap();
    let a_cfg = cfg.clone();
    let b_cfg = cfg;
    let _bob = TcpTransport::<System, _>::bind(Bob, b_cfg).unwrap();
    let alice = TcpTransport::<System, _>::bind(Alice, a_cfg).unwrap();
    alice.send("Bob", b"tracked").unwrap();
    // Acks prune the retention queue without the application ever
    // receiving: the watermark accounting must return to zero.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (frames, bytes) = alice.retention("Bob");
        if frames == 0 && bytes == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "retention never drained: {frames} frames");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_heartbeat_never_splits_a_batch() {
    // A 1 ms heartbeat against 256 KiB frames from four threads: each
    // batch spans several kernel writes, and the supervisor sweeps
    // every few milliseconds throughout. A ping landing between two
    // writes of one batch would reach the reader as a corrupt frame.
    const SENDERS: u64 = 4;
    const FRAMES: u64 = 64;
    let addrs = free_local_addrs(2).unwrap();
    let cfg = TcpConfigBuilder::new()
        .location(Alice, addrs[0])
        .location(Bob, addrs[1])
        .heartbeat(Duration::from_millis(1))
        .build::<System>()
        .unwrap();
    let bob = TcpTransport::<System, _>::bind(Bob, cfg.clone()).unwrap();
    let alice = TcpTransport::<System, _>::bind(Alice, cfg).unwrap();
    // One shared payload: retention and the batches hold handles to it.
    let template = Envelope::new(0, 0, vec![0x5a; 256 * 1024]);
    std::thread::scope(|scope| {
        for session in 1..=SENDERS {
            let (alice, bob, template) = (&alice, &bob, &template);
            scope.spawn(move || {
                for seq in 0..FRAMES {
                    let frame = Envelope { session, seq, ..template.clone() };
                    alice.send_frame("Bob", frame).unwrap();
                }
            });
            scope.spawn(move || {
                for seq in 0..FRAMES {
                    let frame = bob.receive_frame(session, "Alice").unwrap_or_else(|e| {
                        panic!("session {session} frame {seq}: {e}");
                    });
                    assert_eq!(frame.seq, seq);
                    assert_eq!(frame.payload.len(), 256 * 1024);
                }
            });
        }
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    while alice.link_stats().heartbeats == 0 {
        assert!(Instant::now() < deadline, "the supervisor never pinged the link");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Eight threads, each on its own session, send 500 frames of 8 KiB
/// apiece over Alice's one link to Bob, starting together; with
/// `break_mid_stream`, the first thread kills the connection halfway,
/// while other threads' batches may be mid-write. Returns Alice's link
/// stats once every frame arrived.
fn concurrent_senders(break_mid_stream: bool) -> TcpLinkStats {
    const SENDERS: u64 = 8;
    const FRAMES: u32 = 500;
    let start = std::sync::Barrier::new(SENDERS as usize);
    let addrs = free_local_addrs(2).unwrap();
    let cfg = TcpConfigBuilder::new()
        .location(Alice, addrs[0])
        .location(Bob, addrs[1])
        .retry_base(Duration::from_millis(2))
        .build::<System>()
        .unwrap();
    let bob = TcpTransport::<System, _>::bind(Bob, cfg.clone()).unwrap();
    let alice = TcpTransport::<System, _>::bind(Alice, cfg).unwrap();
    // Connected first: a send during a dial leaves its frame retained
    // and returns, so a kill at once could find no connection to kill.
    alice.send_frame("Bob", Envelope::new(SENDERS + 1, 0, Vec::new())).unwrap();
    std::thread::scope(|scope| {
        for session in 1..=SENDERS {
            let (alice, bob, start) = (&alice, &bob, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..FRAMES {
                    if break_mid_stream && session == 1 && i == FRAMES / 2 {
                        alice.break_established_links();
                    }
                    let mut payload = vec![0; 8 * 1024];
                    payload[..4].copy_from_slice(&i.to_le_bytes());
                    alice.send_frame("Bob", Envelope::new(session, u64::from(i), payload)).unwrap();
                }
            });
            scope.spawn(move || {
                // The mailbox rejects a frame out of session order, and
                // the payload names the frame: a gap, a duplicate or a
                // reordering fails here.
                for i in 0..FRAMES {
                    let frame = bob.receive_frame(session, "Alice").unwrap();
                    assert_eq!(frame.payload[..4], i.to_le_bytes(), "session {session} frame {i}");
                }
            });
        }
    });
    alice.link_stats()
}

#[test]
fn concurrent_senders_keep_order_and_share_batches() {
    let stats = concurrent_senders(false);
    assert!(
        stats.batch_histogram[1..].iter().sum::<u64>() > 0,
        "no write carried a frame another sender queued: {stats:?}"
    );
}

#[test]
fn concurrent_senders_survive_a_connection_replaced_mid_write() {
    let stats = concurrent_senders(true);
    assert!(stats.reconnects >= 1, "the kill must force a reconnect: {stats:?}");
}

/// A `Write` that records every call it receives.
#[derive(Default)]
struct CountingWrite {
    calls: usize,
    bytes: Vec<u8>,
}

impl std::io::Write for CountingWrite {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_control_frame_is_one_write() {
    use chorus_wire::ControlFrame;
    let frames = [
        ControlFrame::Ack { next: 7 },
        ControlFrame::Ping { nonce: 3 },
        ControlFrame::Pong { nonce: 3, next: 9 },
        ControlFrame::Resume { next: 1 << 40 },
    ];
    for frame in frames {
        let mut out = CountingWrite::default();
        connect::write_control(&mut out, &frame).unwrap();
        let body = frame.encode();
        let mut expected = u32::try_from(body.len()).unwrap().to_le_bytes().to_vec();
        expected.extend_from_slice(&body);
        assert_eq!(out.calls, 1, "{frame:?} took {} writes", out.calls);
        assert_eq!(out.bytes, expected, "{frame:?}");
    }
}

#[test]
fn a_dial_backing_off_holds_up_neither_retention_nor_other_senders() {
    // Bob's address is reserved but never bound: every dial is refused,
    // and the first sender backs off 50 ms and more between attempts.
    let addrs = free_local_addrs(2).unwrap();
    let cfg = TcpConfigBuilder::new()
        .location(Alice, addrs[0])
        .location(Bob, addrs[1])
        .retry_limit(5)
        .retry_base(Duration::from_millis(50))
        .build::<System>()
        .unwrap();
    let alice = TcpTransport::<System, _>::bind(Alice, cfg).unwrap();
    std::thread::scope(|scope| {
        let dialer = scope.spawn(|| alice.send("Bob", b"first"));
        // Past the first refusal, inside its backoff.
        std::thread::sleep(Duration::from_millis(25));
        let started = Instant::now();
        assert_eq!(alice.retention("Bob").0, 1, "the first frame is retained");
        let looked = started.elapsed();
        let started = Instant::now();
        alice.send_frame("Bob", Envelope::new(1, 0, b"second".to_vec())).unwrap();
        let sent = started.elapsed();
        assert!(looked < Duration::from_millis(20), "retention waited {looked:?} on the dial");
        assert!(sent < Duration::from_millis(20), "a second send waited {sent:?} on the dial");
        assert_eq!(alice.retention("Bob").0, 2, "the second frame is retained too");
        let err = dialer.join().unwrap().unwrap_err();
        assert!(matches!(err, TransportError::LinkDown { attempts: 5, .. }), "got {err:?}");
    });
}
