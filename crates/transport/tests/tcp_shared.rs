//! One TCP connection carries both directions between two endpoints.
//! These tests pin what sharing must not break: two ends streaming at
//! each other with nobody receiving (each end keeps reading its
//! connection while it writes, so neither end's writes block for good),
//! a connection killed mid-exchange (both directions resume from their
//! cursors, and nothing is delivered twice), and first sends that race
//! (whether one connection or two results, delivery is right).

use chorus_core::{ChoreographyLocation, SessionTransport};
use chorus_transport::{free_local_addrs, TcpConfig, TcpConfigBuilder, TcpTransport};
use chorus_wire::Envelope;
use std::sync::Barrier;
use std::time::{Duration, Instant};

chorus_core::locations! { LA, LB }
type Duo = chorus_core::LocationSet!(LA, LB);

fn config(heartbeat: Duration) -> TcpConfig<Duo> {
    let addrs = free_local_addrs(2).expect("loopback addrs");
    TcpConfigBuilder::new()
        .location(LA, addrs[0])
        .location(LB, addrs[1])
        .heartbeat(heartbeat)
        .retry_base(Duration::from_millis(2))
        .build::<Duo>()
        .expect("complete census")
}

/// A 4 KiB payload that names its frame.
fn payload(seq: u64) -> Vec<u8> {
    let mut payload = vec![0x5a; 4096];
    payload[..8].copy_from_slice(&seq.to_le_bytes());
    payload
}

/// Receives `frames` frames of session 1 from `from`, checking each
/// names its place in the stream.
fn drain<T: SessionTransport<Duo, R>, R: ChoreographyLocation>(at: &T, from: &str, frames: u64) {
    for seq in 0..frames {
        let frame = at.receive_frame(1, from).unwrap_or_else(|e| panic!("frame {seq}: {e}"));
        assert_eq!(frame.payload[..8], seq.to_le_bytes(), "frame {seq} from {from}");
    }
}

#[test]
fn both_ends_stream_at_each_other_with_nobody_receiving() {
    // 8 MiB each way: more than the socket buffers hold while nobody
    // reads them, so the streams finish only if each end keeps reading
    // while it writes.
    const FRAMES: u64 = 2048;
    let config = config(Duration::from_secs(1));
    let la = TcpTransport::bind(LA, config.clone()).expect("bind LA");
    let lb = TcpTransport::bind(LB, config).expect("bind LB");
    std::thread::scope(|scope| {
        let senders = [
            scope.spawn(|| {
                for seq in 0..FRAMES {
                    la.send_frame("LB", Envelope::new(1, seq, payload(seq))).expect("LA sends");
                }
            }),
            scope.spawn(|| {
                for seq in 0..FRAMES {
                    lb.send_frame("LA", Envelope::new(1, seq, payload(seq))).expect("LB sends");
                }
            }),
        ];
        // Neither side receives for two seconds.
        std::thread::sleep(Duration::from_secs(2));
        let deadline = Instant::now() + Duration::from_secs(30);
        while !senders.iter().all(|sender| sender.is_finished()) {
            if Instant::now() >= deadline {
                // A panic here would wait for the stuck senders forever.
                eprintln!("the streams never finished: a write blocked for good");
                std::process::abort();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for sender in senders {
            sender.join().expect("no sender panicked");
        }
        scope.spawn(|| drain(&la, "LB", FRAMES));
        scope.spawn(|| drain(&lb, "LA", FRAMES));
    });
    for stats in [la.link_stats(), lb.link_stats()] {
        assert_eq!(stats.deposited_frames, FRAMES, "every frame arrives once: {stats:?}");
        assert_eq!(stats.links_down, 0, "{stats:?}");
    }
}

#[test]
fn a_shared_connection_killed_mid_exchange_resumes_both_ways() {
    const FRAMES: u64 = 400;
    let config = config(Duration::from_millis(50));
    let la = TcpTransport::bind(LA, config.clone()).expect("bind LA");
    let lb = TcpTransport::bind(LB, config).expect("bind LB");
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for seq in 0..FRAMES {
                if seq == FRAMES / 2 {
                    assert_eq!(la.break_established_links(), 1, "one connection to kill");
                }
                la.send_frame("LB", Envelope::new(1, seq, payload(seq))).expect("LA sends");
            }
        });
        scope.spawn(|| {
            for seq in 0..FRAMES {
                lb.send_frame("LA", Envelope::new(1, seq, payload(seq))).expect("LB sends");
            }
        });
        scope.spawn(|| drain(&la, "LB", FRAMES));
        scope.spawn(|| drain(&lb, "LA", FRAMES));
    });
    let (a, b) = (la.link_stats(), lb.link_stats());
    assert!(a.reconnects + b.reconnects >= 1, "the kill must force a reconnect: {a:?} {b:?}");
    // The mailboxes reject a duplicate or a gap outright; the link
    // cursor accepted each frame exactly once.
    assert_eq!((a.deposited_frames, b.deposited_frames), (FRAMES, FRAMES), "{a:?} {b:?}");
}

#[test]
fn first_sends_that_race_deliver_either_way() {
    for round in 0..20u64 {
        let config = config(Duration::from_millis(50));
        let la = TcpTransport::bind(LA, config.clone()).expect("bind LA");
        let lb = TcpTransport::bind(LB, config).expect("bind LB");
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for seq in 0..3 {
                    la.send_frame("LB", Envelope::new(round, seq, payload(seq))).expect("LA");
                }
                for seq in 0..3 {
                    assert_eq!(la.receive_frame(round, "LB").expect("at LA").seq, seq);
                }
            });
            scope.spawn(|| {
                start.wait();
                for seq in 0..3 {
                    lb.send_frame("LA", Envelope::new(round, seq, payload(seq))).expect("LB");
                }
                for seq in 0..3 {
                    assert_eq!(lb.receive_frame(round, "LA").expect("at LB").seq, seq);
                }
            });
        });
        let (a, b) = (la.link_stats(), lb.link_stats());
        assert_eq!((a.deposited_frames, b.deposited_frames), (3, 3), "round {round}: {a:?} {b:?}");
        assert_eq!((a.links_down, b.links_down), (0, 0), "round {round}");
    }
}
