//! The batched data plane's regression floor: on a saturated loopback
//! link, coalesced vectored batches must stay at least 2× faster than
//! the same link flushing frame-at-a-time (a zero flush window: every
//! frame is its own vectored write, retained and acked individually).
//!
//! The test asserts wall-clock throughput, so it is `#[ignore]`d: tier-1
//! `cargo test -q` never runs it on a shared host. CI runs it with
//! `cargo test --release -p chorus-transport --test saturated_floor --
//! --ignored --nocapture`.

use chorus_core::SessionTransport;
use chorus_transport::{free_local_addrs, TcpConfigBuilder, TcpTransport};
use chorus_wire::Envelope;
use std::time::{Duration, Instant};

chorus_core::locations! { LA, LB }
type Duo = chorus_core::LocationSet!(LA, LB);

const MSGS: u64 = 40_000;
const SESSIONS: u64 = 4;

/// One saturated one-way run: `SESSIONS` sender threads each pump
/// `MSGS / SESSIONS` 32-byte frames on their own session. The timed
/// region is the *data plane*: it ends when the receiving transport has
/// deposited every frame into its mailboxes, not when application
/// threads have popped them — mailbox pops cost the same in every mode
/// and would otherwise mask the wire-side difference. The mailboxes are
/// drained (and FIFO asserted) outside the timed window. Returns
/// msgs/sec.
fn saturated_link_run(flush: Duration) -> f64 {
    let addrs = free_local_addrs(2).expect("loopback addrs");
    let config = TcpConfigBuilder::new()
        .location(LA, addrs[0])
        .location(LB, addrs[1])
        .flush_delay(flush)
        .build::<Duo>()
        .expect("complete census");
    let a = TcpTransport::bind(LA, config.clone()).expect("bind LA");
    let b = TcpTransport::bind(LB, config).expect("bind LB");
    let per_session = MSGS / SESSIONS;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for session in 1..=SESSIONS {
            let a = &a;
            scope.spawn(move || {
                for seq in 0..per_session {
                    let envelope = Envelope::new(session, seq, vec![0xB7u8; 32]);
                    a.send_frame("LB", envelope).expect("saturated send");
                }
            });
        }
    });
    // Senders are done offering; the clock stops when the last frame
    // lands in a mailbox on the receiving side.
    let deadline = Instant::now() + Duration::from_secs(120);
    while b.link_stats().deposited_frames < MSGS {
        assert!(Instant::now() < deadline, "saturated link never finished depositing");
        std::thread::yield_now();
    }
    let elapsed = start.elapsed().as_secs_f64().max(f64::EPSILON);
    for session in 1..=SESSIONS {
        for seq in 0..per_session {
            let got = b.receive_frame(session, "LA").expect("saturated receive");
            assert_eq!(got.seq, seq, "FIFO broke on the saturated link");
        }
    }
    MSGS as f64 / elapsed
}

/// Peak of three runs: throughput noise on a shared box is one-sided
/// (scheduling stalls only ever slow a run down), so the max is the
/// low-variance estimator — applied to both points alike.
fn peak_of_3(flush: Duration) -> f64 {
    (0..3).map(|_| saturated_link_run(flush)).fold(0.0, f64::max)
}

#[test]
#[ignore = "asserts wall-clock throughput; run with --release -- --ignored"]
fn windowed_batching_is_at_least_2x_frame_at_a_time() {
    let unbatched = peak_of_3(Duration::ZERO);
    let batched = peak_of_3(Duration::from_micros(200));
    let ratio = batched / unbatched;
    println!(
        "saturated link: frame-at-a-time {unbatched:.0} msgs/s, 200us window {batched:.0} msgs/s, \
         ratio {ratio:.2}x"
    );
    assert!(
        ratio >= 2.0,
        "saturated-link regression: batched/frame-at-a-time ratio {ratio:.2}x fell below 2x"
    );
}
