//! The transport conformance battery: generic test bodies asserting the
//! [`SessionTransport`] contract, instantiated per transport by the
//! `conformance_suite!` macro in `main.rs`.
//!
//! Every body is **event-driven** — no sleeps, no spin thresholds — so
//! the suite behaves identically on a 1-core CI runner and a laptop:
//! sends are buffered by the transport under test, and receives block
//! until the transport delivers or reports an error.

use chorus_core::{Endpoint, SessionTransport, TransportError};
use chorus_transport::TransportMetrics;
use chorus_wire::Envelope;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};

chorus_core::locations! { Alice, Bob, Carol }

/// The two-party census every conformance instance runs over.
pub type System = chorus_core::LocationSet!(Alice, Bob);
/// The three-party census of the cases about one receiver's several
/// links.
pub type Trio = chorus_core::LocationSet!(Alice, Bob, Carol);

/// Shorthand for the bounds a conformance transport pair must satisfy.
pub trait AliceTransport: SessionTransport<System, Alice> + Send + Sync + 'static {}
impl<T: SessionTransport<System, Alice> + Send + Sync + 'static> AliceTransport for T {}
/// Bob's half of the pair.
pub trait BobTransport: SessionTransport<System, Bob> + Send + Sync + 'static {}
impl<T: SessionTransport<System, Bob> + Send + Sync + 'static> BobTransport for T {}

fn frame(session: u64, seq: u64, payload: &[u8]) -> Envelope {
    Envelope::new(session, seq, payload.to_vec())
}

/// A waker's target that counts its fires and wakes whoever waits on
/// it — the same shape the pooled runtime's re-enqueue waker has,
/// counting so a case can tell "fired once" from "fired again".
#[derive(Default)]
struct Gate {
    fired: Mutex<usize>,
    changed: Condvar,
}

impl Gate {
    fn fires(&self) -> usize {
        *self.fired.lock().unwrap()
    }

    /// Parks until the gate has fired at least `count` times: waits for
    /// the waker, never for wall-clock time.
    fn wait_for(&self, count: usize) {
        let fired = self.fired.lock().unwrap();
        drop(self.changed.wait_while(fired, |fired| *fired < count).unwrap());
    }
}

impl Wake for Gate {
    fn wake(self: Arc<Self>) {
        *self.fired.lock().unwrap() += 1;
        self.changed.notify_all();
    }
}

/// A fresh gate and a waker that fires it.
fn gate() -> (Arc<Gate>, Waker) {
    let gate = Arc::new(Gate::default());
    (Arc::clone(&gate), Waker::from(gate))
}

/// Polls `bob`'s mailbox of `session` from `from` once, with `waker`.
fn poll<T: SessionTransport<L, Bob> + ?Sized, L: chorus_core::LocationSet>(
    bob: &T,
    session: u64,
    from: &str,
    waker: &Waker,
) -> Poll<Result<Envelope, TransportError>> {
    bob.poll_receive_frame(session, from, &mut Context::from_waker(waker))
}

/// Receives one frame through the *non-blocking* path only: polls, and
/// on a miss parks this thread on the gate the poll stored. Event-driven
/// — no sleeps, no spinning — so it works identically whether the
/// transport delivers synchronously (local, sim) or after real socket
/// latency (TCP). This is exactly the poll/park protocol the pooled
/// session runtime drives.
fn recv_eventually(
    bob: &impl BobTransport,
    session: u64,
    from: &str,
) -> Result<Envelope, TransportError> {
    let (gate, waker) = gate();
    loop {
        let fires = gate.fires();
        if let Poll::Ready(frame) = poll(bob, session, from, &waker) {
            return frame;
        }
        gate.wait_for(fires + 1);
    }
}

/// Within one session, frames from one sender arrive in exactly the
/// order they were offered — the λN FIFO guarantee (§4.1).
pub fn per_sender_fifo(alice: impl AliceTransport, bob: impl BobTransport) {
    for i in 0..24u64 {
        alice.send_frame("Bob", frame(9, i, &i.to_le_bytes())).unwrap();
    }
    // The opposite direction shares no state with the first.
    for i in 0..24u64 {
        bob.send_frame("Alice", frame(9, i, &(1000 + i).to_le_bytes())).unwrap();
    }
    for i in 0..24u64 {
        assert_eq!(
            bob.receive_frame(9, "Alice").unwrap().payload,
            i.to_le_bytes().as_slice(),
            "frame {i} out of order at Bob"
        );
        assert_eq!(
            alice.receive_frame(9, "Bob").unwrap().payload,
            (1000 + i).to_le_bytes().as_slice(),
            "frame {i} out of order at Alice"
        );
    }
}

/// Two threads bounce frames on one session through the blocking
/// receive, so a receive that finds its mailbox empty parks and is woken
/// by the other thread's deposit: FIFO and payloads hold across 500
/// round trips of the park-and-wake path.
pub fn ping_pong_blocking(alice: impl AliceTransport, bob: impl BobTransport) {
    const SESSION: u64 = 4;
    const ROUNDS: u64 = 500;
    std::thread::scope(|s| {
        s.spawn(|| {
            for seq in 0..ROUNDS {
                let ping = bob.receive_frame(SESSION, "Alice").unwrap();
                assert_eq!(ping.seq, seq, "Bob's pings out of order");
                assert_eq!(ping.payload, seq.to_le_bytes().as_slice());
                bob.send_frame("Alice", frame(SESSION, seq, &(!seq).to_le_bytes())).unwrap();
            }
        });
        for seq in 0..ROUNDS {
            alice.send_frame("Bob", frame(SESSION, seq, &seq.to_le_bytes())).unwrap();
            let pong = alice.receive_frame(SESSION, "Bob").unwrap();
            assert_eq!(pong.seq, seq, "Alice's pongs out of order");
            assert_eq!(pong.payload, (!seq).to_le_bytes().as_slice());
        }
    });
}

/// Sessions multiplexed on one link deliver independently: draining one
/// session's mailbox out of arrival order never disturbs another's
/// FIFO.
pub fn cross_session_interleaving(alice: impl AliceTransport, bob: impl BobTransport) {
    const SESSIONS: u64 = 4;
    const FRAMES: u64 = 6;
    // Interleave the sessions frame-by-frame on the wire.
    for seq in 0..FRAMES {
        for session in 0..SESSIONS {
            let tag = format!("s{session}-f{seq}");
            alice.send_frame("Bob", frame(session, seq, tag.as_bytes())).unwrap();
        }
    }
    // Read the sessions in reverse, each to completion: every stream
    // must be intact regardless of drain order.
    for session in (0..SESSIONS).rev() {
        for seq in 0..FRAMES {
            let got = bob.receive_frame(session, "Alice").unwrap();
            assert_eq!(got.seq, seq);
            assert_eq!(
                got.payload,
                format!("s{session}-f{seq}").as_bytes(),
                "session {session} corrupted by its neighbors"
            );
        }
    }
}

/// Per-(session, sender) FIFO must hold across *batch* boundaries: the
/// sender offers session-major bursts sized exactly to the resilient
/// link's ack cadence (16 frames), so consecutive bursts land in
/// different wire batches and the final burst ends on a cadence
/// boundary — the shapes the batched data plane flushes, acks, and
/// prunes around. Every session's stream must still come out in
/// exactly its offered order, whatever the drain order.
pub fn fifo_across_batch_boundaries(alice: impl AliceTransport, bob: impl BobTransport) {
    const SESSIONS: u64 = 3;
    const BURST: u64 = 16;
    const ROUNDS: u64 = 5;
    for round in 0..ROUNDS {
        for session in 0..SESSIONS {
            for slot in 0..BURST {
                let seq = round * BURST + slot;
                let tag = format!("s{session}-r{round}-f{seq}");
                alice.send_frame("Bob", frame(session, seq, tag.as_bytes())).unwrap();
            }
        }
    }
    // Drain whole sessions in reverse id order, one via the blocking
    // path and the rest via the poll/park path, so batch delivery is
    // exercised under both receive protocols.
    for session in (0..SESSIONS).rev() {
        for seq in 0..ROUNDS * BURST {
            let got = if session == 0 {
                bob.receive_frame(session, "Alice").unwrap()
            } else {
                recv_eventually(&bob, session, "Alice").unwrap()
            };
            assert_eq!(got.seq, seq, "session {session} broke FIFO across a batch boundary");
            let round = seq / BURST;
            assert_eq!(
                got.payload,
                format!("s{session}-r{round}-f{seq}").as_bytes(),
                "session {session} delivered the wrong frame at seq {seq}"
            );
        }
    }
}

/// A sequence gap within a session is a protocol violation the receiver
/// must detect and report, not silently reorder around. Every transport
/// reports it in the same words, and says "session protocol violation"
/// once.
pub fn sequence_gap_detected(alice: impl AliceTransport, bob: impl BobTransport) {
    alice.send_frame("Bob", frame(1, 0, b"ok")).unwrap();
    alice.send_frame("Bob", frame(1, 2, b"gap")).unwrap();
    assert_eq!(bob.receive_frame(1, "Alice").unwrap().payload, b"ok");
    let err = bob.receive_frame(1, "Alice").unwrap_err();
    assert!(
        matches!(err, TransportError::Protocol(_)),
        "a sequence gap must surface as a protocol error, got {err:?}"
    );
    assert_eq!(
        err.to_string(),
        "session protocol violation: frame from Alice in session 1 arrived out of order: \
         expected seq 1, got 2"
    );
}

/// Once a link is poisoned by a violation, *valid* frames sent
/// afterwards — in any session — are withheld, so every session behind
/// the link observes the failure instead of a silently resumed stream.
pub fn poisoned_link_withholds(alice: impl AliceTransport, bob: impl BobTransport) {
    alice.send_frame("Bob", frame(1, 0, b"ok")).unwrap();
    // Poison the link with a sequence gap in session 1...
    alice.send_frame("Bob", frame(1, 2, b"gap")).unwrap();
    // ...then send a perfectly valid frame in session 2.
    alice.send_frame("Bob", frame(2, 0, b"late")).unwrap();
    assert_eq!(bob.receive_frame(1, "Alice").unwrap().payload, b"ok");
    let err = bob.receive_frame(2, "Alice").unwrap_err();
    assert!(
        matches!(err, TransportError::Protocol(_)),
        "a frame sent after the poison must be withheld, got {err:?}"
    );
}

/// A poll of an empty mailbox is `Pending` — merely-empty is not an
/// error — and traffic in *other* sessions leaves it empty.
pub fn try_receive_on_empty_mailbox_is_none(alice: impl AliceTransport, bob: impl BobTransport) {
    assert!(
        poll(&bob, 1, "Alice", Waker::noop()).is_pending(),
        "nothing was sent; the mailbox is merely empty"
    );
    // A frame in a *different* session must not surface in this one.
    alice.send_frame("Bob", frame(2, 0, b"other-session")).unwrap();
    assert!(poll(&bob, 1, "Alice", Waker::noop()).is_pending());
    assert_eq!(recv_eventually(&bob, 2, "Alice").unwrap().payload, b"other-session");
}

/// A poll that misses stores its waker, which fires when a frame is
/// deposited; the frame is then deliverable through the non-blocking
/// path.
pub fn waker_fires_on_deposit(alice: impl AliceTransport, bob: impl BobTransport) {
    let (gate, waker) = gate();
    assert!(poll(&bob, 7, "Alice", &waker).is_pending(), "nothing was sent; the poll must miss");
    alice.send_frame("Bob", frame(7, 0, b"wake")).unwrap();
    gate.wait_for(1);
    // A fired waker is a readiness *hint* (spurious wakes are legal), so
    // drain through the full poll/park protocol.
    assert_eq!(recv_eventually(&bob, 7, "Alice").unwrap().payload, b"wake");
}

/// A deposit wakes the session it is for and no other: a frame for one
/// session must not cost its neighbors on the link a spurious wake (and
/// the pooled runtime a scheduler requeue each), and a waker, once
/// fired, is spent.
pub fn deposit_wakes_only_its_own_session(alice: impl AliceTransport, bob: impl BobTransport) {
    let ((one, one_waker), (two, two_waker)) = (gate(), gate());
    assert!(poll(&bob, 1, "Alice", &one_waker).is_pending());
    assert!(poll(&bob, 2, "Alice", &two_waker).is_pending());
    alice.send_frame("Bob", frame(1, 0, b"for-one")).unwrap();
    one.wait_for(1);
    assert_eq!(two.fires(), 0, "session 2 gained no frame");
    // Session 1's waker is spent and session 2's still stored: of the
    // next two deposits only the second may fire anything. Deposits on
    // one link happen in send order, so once it has, both counts are
    // final.
    alice.send_frame("Bob", frame(1, 1, b"for-one-again")).unwrap();
    alice.send_frame("Bob", frame(2, 0, b"for-two")).unwrap();
    two.wait_for(1);
    assert_eq!(one.fires(), 1, "a fired waker must not fire again until a poll stores it");
    assert_eq!(two.fires(), 1);
    assert_eq!(recv_eventually(&bob, 1, "Alice").unwrap().payload, b"for-one");
    assert_eq!(recv_eventually(&bob, 1, "Alice").unwrap().payload, b"for-one-again");
    assert_eq!(recv_eventually(&bob, 2, "Alice").unwrap().payload, b"for-two");
}

/// A link failure is a state every session behind the link can
/// observe, so it wakes every parked session — not just the one whose
/// frame was bad — and each then reads the protocol error.
pub fn link_failure_wakes_every_parked_session(alice: impl AliceTransport, bob: impl BobTransport) {
    let gates: Vec<_> = (1..=3u64).map(|_| gate()).collect();
    for (session, (_, waker)) in (1..=3u64).zip(&gates) {
        assert!(poll(&bob, session, "Alice", waker).is_pending());
    }
    // A sequence gap in a session nobody is parked on.
    alice.send_frame("Bob", frame(9, 4, b"gap")).unwrap();
    for (session, (gate, waker)) in (1..=3u64).zip(&gates) {
        gate.wait_for(1);
        for _ in 0..2 {
            let polled = poll(&bob, session, "Alice", waker);
            assert!(
                matches!(polled, Poll::Ready(Err(TransportError::Protocol(_)))),
                "session {session} must read the failure, never park, got {polled:?}"
            );
        }
        assert_eq!(gate.fires(), 1, "session {session}'s waker fires once");
    }
}

/// A poll of a mailbox that is (or becomes) ready returns the frame
/// instead of storing the waker, so no wakeup is lost; once the mailbox
/// is drained, a poll misses and stores it again.
pub fn registration_reports_ready_mailbox(alice: impl AliceTransport, bob: impl BobTransport) {
    alice.send_frame("Bob", frame(3, 0, b"a")).unwrap();
    alice.send_frame("Bob", frame(3, 1, b"b")).unwrap();
    assert_eq!(recv_eventually(&bob, 3, "Alice").unwrap().payload, b"a");
    // With "b" still undelivered, a poll must eventually return it
    // rather than leave the caller parked forever.
    assert_eq!(recv_eventually(&bob, 3, "Alice").unwrap().payload, b"b");
    // Drained: the next poll misses and stores its waker, which the
    // next deposit fires.
    let (gate, waker) = gate();
    assert!(
        poll(&bob, 3, "Alice", &waker).is_pending(),
        "the mailbox was drained; the poll must miss"
    );
    alice.send_frame("Bob", frame(3, 2, b"c")).unwrap();
    gate.wait_for(1);
    assert_eq!(recv_eventually(&bob, 3, "Alice").unwrap().payload, b"c");
}

/// Many misses polled with one waker store it once: the deposit that
/// follows wakes it exactly once.
pub fn repeated_misses_with_one_waker_wake_once(
    alice: impl AliceTransport,
    bob: impl BobTransport,
) {
    let (gate, waker) = gate();
    for _ in 0..8 {
        assert!(poll(&bob, 1, "Alice", &waker).is_pending());
    }
    alice.send_frame("Bob", frame(1, 0, b"one")).unwrap();
    gate.wait_for(1);
    assert_eq!(recv_eventually(&bob, 1, "Alice").unwrap().payload, b"one");
    // A later frame on the link, sent after it: once it delivers, the
    // first deposit has woken all it ever will.
    alice.send_frame("Bob", frame(2, 0, b"marker")).unwrap();
    assert_eq!(bob.receive_frame(2, "Alice").unwrap().payload, b"marker");
    assert_eq!(gate.fires(), 1, "eight misses with one waker must cost one wake");
}

/// A mailbox holds one waker: a miss with a second waker replaces the
/// first, and the deposit that follows wakes only the second.
pub fn a_later_waker_replaces_the_earlier(alice: impl AliceTransport, bob: impl BobTransport) {
    let ((first, first_waker), (second, second_waker)) = (gate(), gate());
    assert!(poll(&bob, 1, "Alice", &first_waker).is_pending());
    assert!(poll(&bob, 1, "Alice", &second_waker).is_pending());
    alice.send_frame("Bob", frame(1, 0, b"one")).unwrap();
    second.wait_for(1);
    alice.send_frame("Bob", frame(2, 0, b"marker")).unwrap();
    assert_eq!(bob.receive_frame(2, "Alice").unwrap().payload, b"marker");
    assert_eq!(first.fires(), 0, "the replaced waker must not fire");
    assert_eq!(second.fires(), 1);
    assert_eq!(recv_eventually(&bob, 1, "Alice").unwrap().payload, b"one");
}

/// A failed link surfaces through the non-blocking path exactly as it
/// does through the blocking one: queued frames first, then the
/// protocol error.
pub fn try_receive_surfaces_link_failure(alice: impl AliceTransport, bob: impl BobTransport) {
    alice.send_frame("Bob", frame(1, 0, b"ok")).unwrap();
    // A sequence gap kills the link.
    alice.send_frame("Bob", frame(1, 2, b"gap")).unwrap();
    assert_eq!(recv_eventually(&bob, 1, "Alice").unwrap().payload, b"ok");
    let err = recv_eventually(&bob, 1, "Alice").unwrap_err();
    assert!(
        matches!(err, TransportError::Protocol(_)),
        "the failure must surface as a protocol error, got {err:?}"
    );
}

/// A link failure is final and reads the same everywhere: after a
/// sequence gap, every session behind the link reads the one error, with
/// the same text, on every read and through both receive paths — and a
/// valid frame sent afterwards changes none of it.
pub fn link_failure_is_final_and_shared(alice: impl AliceTransport, bob: impl BobTransport) {
    alice.send_frame("Bob", frame(1, 0, b"ok")).unwrap();
    alice.send_frame("Bob", frame(1, 2, b"gap")).unwrap();
    assert_eq!(bob.receive_frame(1, "Alice").unwrap().payload, b"ok");
    let failure = bob.receive_frame(1, "Alice").unwrap_err().to_string();
    let read_everywhere = |when: &str| {
        for session in 1..=3u64 {
            for read in 0..2 {
                let err = if read == 0 {
                    bob.receive_frame(session, "Alice").unwrap_err()
                } else {
                    recv_eventually(&bob, session, "Alice").unwrap_err()
                };
                assert_eq!(err.to_string(), failure, "session {session}, read {read}, {when}");
            }
        }
    };
    read_everywhere("before the valid frame");
    alice.send_frame("Bob", frame(2, 0, b"valid")).unwrap();
    alice.send_frame("Bob", frame(1, 1, b"valid")).unwrap();
    read_everywhere("after the valid frames");
}

/// A frame for a session the receiver has closed is late: dropped, never
/// a new mailbox and never a link failure. Session 2's frame is sent
/// after it on the same link, so once session 2 delivers the late frame
/// has been dealt with.
pub fn late_frame_after_close_is_dropped(alice: impl AliceTransport, bob: impl BobTransport) {
    alice.send_frame("Bob", frame(1, 0, b"first")).unwrap();
    assert_eq!(bob.receive_frame(1, "Alice").unwrap().payload, b"first");
    bob.close_session(1);
    alice.send_frame("Bob", frame(1, 1, b"late")).unwrap();
    alice.send_frame("Bob", frame(2, 0, b"next-session")).unwrap();
    assert_eq!(bob.receive_frame(2, "Alice").unwrap().payload, b"next-session");
    assert!(
        poll(&bob, 1, "Alice", Waker::noop()).is_pending(),
        "a late frame must not reopen its closed session"
    );
    assert!(
        poll(&bob, 3, "Alice", Waker::noop()).is_pending(),
        "a late frame must not fail the link"
    );
}

/// A closed session's id can run again: a seq-0 frame opens it afresh.
pub fn closed_session_id_is_reusable(alice: impl AliceTransport, bob: impl BobTransport) {
    alice.send_frame("Bob", frame(1, 0, b"run1")).unwrap();
    assert_eq!(bob.receive_frame(1, "Alice").unwrap().payload, b"run1");
    bob.close_session(1);
    alice.send_frame("Bob", frame(1, 0, b"run2-0")).unwrap();
    alice.send_frame("Bob", frame(1, 1, b"run2-1")).unwrap();
    assert_eq!(bob.receive_frame(1, "Alice").unwrap().payload, b"run2-0");
    assert_eq!(recv_eventually(&bob, 1, "Alice").unwrap().payload, b"run2-1");
}

/// Closing a session keeps what is already queued for it (a reused id's
/// restart can land before the old run's close): the frame, and the rest
/// of its stream, still deliver.
pub fn close_keeps_undrained_frames(alice: impl AliceTransport, bob: impl BobTransport) {
    let (gate, waker) = gate();
    assert!(poll(&bob, 1, "Alice", &waker).is_pending());
    alice.send_frame("Bob", frame(1, 0, b"queued")).unwrap();
    // The waker fires once the frame is queued, not popped.
    gate.wait_for(1);
    bob.close_session(1);
    alice.send_frame("Bob", frame(1, 1, b"after-close")).unwrap();
    // Sent after it on the same link: once this delivers, so has that.
    alice.send_frame("Bob", frame(2, 0, b"marker")).unwrap();
    assert_eq!(bob.receive_frame(2, "Alice").unwrap().payload, b"marker");
    let pop = || poll(&bob, 1, "Alice", Waker::noop()).map(|f| f.unwrap().payload.to_vec());
    assert_eq!(pop(), Poll::Ready(b"queued".to_vec()));
    assert_eq!(pop(), Poll::Ready(b"after-close".to_vec()));
}

/// One sender's failure is its own link's: with Alice→Bob poisoned by a
/// sequence gap, Carol→Bob keeps delivering in order, and a poll of a
/// Carol session still misses (`Pending`) and its waker fires on
/// Carol's next deposit.
pub fn failure_leaves_other_links_alone(
    alice: impl SessionTransport<Trio, Alice>,
    bob: impl SessionTransport<Trio, Bob>,
    carol: impl SessionTransport<Trio, Carol>,
) {
    carol.send_frame("Bob", frame(1, 0, b"carol-0")).unwrap();
    alice.send_frame("Bob", frame(1, 0, b"ok")).unwrap();
    alice.send_frame("Bob", frame(1, 2, b"gap")).unwrap();
    assert_eq!(bob.receive_frame(1, "Alice").unwrap().payload, b"ok");
    assert!(matches!(bob.receive_frame(1, "Alice"), Err(TransportError::Protocol(_))));
    carol.send_frame("Bob", frame(1, 1, b"carol-1")).unwrap();
    assert_eq!(bob.receive_frame(1, "Carol").unwrap().payload, b"carol-0");
    assert_eq!(bob.receive_frame(1, "Carol").unwrap().payload, b"carol-1");
    let (gate, waker) = gate();
    assert!(
        poll(&bob, 2, "Carol", &waker).is_pending(),
        "Carol's link is healthy and session 2 is empty: the poll must miss"
    );
    carol.send_frame("Bob", frame(2, 0, b"carol-s2")).unwrap();
    gate.wait_for(1);
    let carol_s2 = poll(&bob, 2, "Carol", Waker::noop());
    assert_eq!(carol_s2.map(|f| f.unwrap().payload.to_vec()), Poll::Ready(b"carol-s2".to_vec()));
    let alice_s2 = poll(&bob, 2, "Alice", Waker::noop());
    assert!(matches!(alice_s2, Poll::Ready(Err(TransportError::Protocol(_)))));
}

/// Per-(session, sender) FIFO holds when every receive goes through the
/// poll/park protocol instead of blocking receives.
pub fn fifo_preserved_under_try_polling(alice: impl AliceTransport, bob: impl BobTransport) {
    for i in 0..16u64 {
        alice.send_frame("Bob", frame(5, i, &i.to_le_bytes())).unwrap();
    }
    for i in 0..16u64 {
        let envelope = recv_eventually(&bob, 5, "Alice").unwrap();
        assert_eq!(envelope.seq, i, "frame {i} out of order under try-polling");
        assert_eq!(envelope.payload, i.to_le_bytes().as_slice());
    }
}

/// The adversarial-corruption contract, parameterized by which side of
/// it the instance is on. A `hostile` pair (sim under an always-on
/// [`Corruption`](chorus_transport::Corruption) plan) must deliver the
/// frame with *exactly one* payload bit flipped — tampering the payload
/// without touching framing, so sequence checks pass and only a
/// payload-level integrity check (sealed decode, commitment
/// verification) can catch it. An honest pair must deliver bit-exact.
pub fn corrupted_link_flips_exactly_one_payload_bit(
    alice: impl AliceTransport,
    bob: impl BobTransport,
    hostile: bool,
) {
    // All zeros: any flip anywhere is visible in the XOR popcount.
    let sent = [0u8; 8];
    alice.send_frame("Bob", frame(1, 0, &sent)).unwrap();
    let got = bob.receive_frame(1, "Alice").unwrap();
    assert_eq!((got.session, got.seq), (1, 0), "corruption must never touch framing");
    assert_eq!(got.payload.len(), sent.len(), "corruption must never truncate");
    let flipped: u32 = got.payload.iter().zip(sent.iter()).map(|(a, b)| (a ^ b).count_ones()).sum();
    if hostile {
        assert_eq!(flipped, 1, "an adversarial link flips exactly one payload bit");
    } else {
        assert_eq!(flipped, 0, "an honest link delivers bit-exact");
    }
}

/// The selective-silence contract: a `hostile` pair (sim with the
/// Alice→Bob link silenced) must fail *loudly* — a
/// [`TransportError::Protocol`] naming the silenced peer, produced by
/// the link watchdog — rather than parking the receiver forever. An
/// honest pair simply delivers.
pub fn silenced_link_fails_loud(alice: impl AliceTransport, bob: impl BobTransport, hostile: bool) {
    alice.send_frame("Bob", frame(1, 0, b"probe")).unwrap();
    if hostile {
        let err = bob.receive_frame(1, "Alice").unwrap_err();
        match err {
            TransportError::Protocol(message) => assert!(
                message.contains("Alice"),
                "the watchdog must name the silenced edge, got {message:?}"
            ),
            other => panic!("selective silence must surface as a protocol error, got {other:?}"),
        }
    } else {
        assert_eq!(bob.receive_frame(1, "Alice").unwrap().payload, b"probe");
    }
}

/// N sessions over one shared pair produce exactly N× the per-edge
/// metrics of a single session — sessions share links but never
/// double- or under-count.
pub fn multi_session_metrics_parity<TA: AliceTransport, TB: BobTransport>(
    make: impl Fn() -> (TA, TB),
) {
    const SESSIONS: u64 = 6;

    // Count one session's traffic on a fresh pair.
    let run = |sessions: u64, pair: (TA, TB)| -> chorus_transport::MetricsSnapshot {
        let metrics = Arc::new(TransportMetrics::new());
        let alice = Endpoint::builder(Alice).transport(pair.0).layer(Arc::clone(&metrics)).build();
        let bob = Endpoint::builder(Bob).transport(pair.1).layer(Arc::clone(&metrics)).build();
        for id in 0..sessions {
            let sa = alice.session_with_id(id);
            sa.send_bytes("Bob", format!("ping-{id}").as_bytes()).unwrap();
        }
        for id in 0..sessions {
            let sb = bob.session_with_id(id);
            let got = sb.receive_bytes("Alice").unwrap();
            assert_eq!(got, format!("ping-{id}").into_bytes());
            sb.send_bytes("Alice", format!("pong-{id}").as_bytes()).unwrap();
        }
        for id in 0..sessions {
            let sa = alice.session_with_id(id);
            assert_eq!(sa.receive_bytes("Bob").unwrap(), format!("pong-{id}").into_bytes());
        }
        metrics.snapshot()
    };

    let baseline = run(1, make());
    let multi = run(SESSIONS, make());

    assert_eq!(
        multi.keys().collect::<Vec<_>>(),
        baseline.keys().collect::<Vec<_>>(),
        "same edges in both runs"
    );
    for (edge, base) in &baseline {
        let got = multi[edge];
        assert_eq!(
            got.messages,
            base.messages * SESSIONS,
            "edge {edge:?}: {SESSIONS} sessions must count {SESSIONS}× the messages"
        );
        assert_eq!(
            got.bytes,
            base.bytes * SESSIONS,
            "edge {edge:?}: {SESSIONS} sessions must count {SESSIONS}× the bytes"
        );
    }
}

/// Sequential session reuse survives a link disruption: a session id
/// whose first run completed is reused (sequence restarting at zero,
/// per the receive side's restart rule) and keeps working even though the
/// underlying connection was dropped and re-established in between —
/// and again with frames in flight, so the resilient TCP link must
/// replay its unacked tail across the reconnect. `disrupt` is
/// transport-specific: on TCP it hard-kills every established
/// connection; on local/sim (no connections to kill) it is a no-op and
/// the case pins plain sequential-reuse semantics.
pub fn session_reuse_after_link_disruption<TA: AliceTransport, TB: BobTransport>(
    alice: TA,
    bob: TB,
    disrupt: impl Fn(&TA, &TB),
) {
    const SESSION: u64 = 7;
    const FRAMES: u64 = 4;
    for seq in 0..FRAMES {
        alice.send_frame("Bob", frame(SESSION, seq, format!("run1-{seq}").as_bytes())).unwrap();
    }
    for seq in 0..FRAMES {
        assert_eq!(
            bob.receive_frame(SESSION, "Alice").unwrap().payload,
            format!("run1-{seq}").as_bytes(),
            "first run broke before any disruption"
        );
    }
    // The link dies between the runs.
    disrupt(&alice, &bob);
    for seq in 0..FRAMES {
        alice.send_frame("Bob", frame(SESSION, seq, format!("run2-{seq}").as_bytes())).unwrap();
    }
    // …and again with the second run's frames potentially still in
    // flight (unacknowledged), forcing a replay on transports with real
    // connections.
    disrupt(&alice, &bob);
    for seq in 0..FRAMES {
        assert_eq!(
            bob.receive_frame(SESSION, "Alice").unwrap().payload,
            format!("run2-{seq}").as_bytes(),
            "reused session lost or reordered frames across the disruption"
        );
    }
}
