//! The one receive watchdog, on every transport: a blocking
//! `receive_frame` that no sender answers fails once the workspace
//! deadline has passed, with an error naming the session and the peer,
//! and a frame sent while the receiver is parked is delivered, not timed
//! out.
//!
//! The deadline (`CHORUS_WATCHDOG_MS`) is read once per process, so this
//! file holds one test, and the test sets the variable before anything
//! reads it.

use chorus_core::{SessionTransport, TransportError};
use chorus_transport::{
    free_local_addrs, FaultPlan, LocalTransport, LocalTransportChannel, SimNet, SimTransport,
    TcpConfigBuilder, TcpTransport,
};
use chorus_wire::Envelope;
use std::time::{Duration, Instant};

chorus_core::locations! { Alice, Bob }
type System = chorus_core::LocationSet!(Alice, Bob);

const DEADLINE: Duration = Duration::from_millis(200);

fn check(
    transport: &str,
    alice: impl SessionTransport<System, Alice> + Sync,
    bob: impl SessionTransport<System, Bob> + Sync,
) {
    // Nobody sends: the receive fails after the deadline, not never.
    let started = Instant::now();
    let err = bob.receive_frame(41, "Alice").unwrap_err();
    let waited = started.elapsed();
    assert!(matches!(err, TransportError::Protocol(_)), "{transport}: got {err:?}");
    let text = err.to_string();
    assert!(
        text.contains("receive watchdog") && text.contains("session 41") && text.contains("Alice"),
        "{transport}: the error must name the session and the peer, got {text:?}"
    );
    assert!(
        waited >= DEADLINE && waited < 5 * DEADLINE,
        "{transport}: failed after {waited:?}, deadline {DEADLINE:?}"
    );

    // A frame sent while the receiver is parked wakes it in time.
    std::thread::scope(|s| {
        let receiver = s.spawn(|| bob.receive_frame(42, "Alice"));
        std::thread::sleep(DEADLINE / 4);
        alice.send_frame("Bob", Envelope::new(42, 0, b"in time".to_vec())).unwrap();
        let got = receiver.join().unwrap().unwrap_or_else(|e| panic!("{transport}: {e}"));
        assert_eq!(got.payload, b"in time", "{transport}");
    });
}

#[test]
fn every_transport_has_the_one_receive_watchdog() {
    std::env::set_var("CHORUS_WATCHDOG_MS", DEADLINE.as_millis().to_string());

    let channel = LocalTransportChannel::<System>::new();
    check("local", LocalTransport::new(Alice, channel.clone()), LocalTransport::new(Bob, channel));

    let net = SimNet::<System>::new(FaultPlan::ideal());
    check("sim", SimTransport::new(Alice, net.clone()), SimTransport::new(Bob, net));

    let addrs = free_local_addrs(2).unwrap();
    let config = TcpConfigBuilder::new()
        .location(Alice, addrs[0])
        .location(Bob, addrs[1])
        .build::<System>()
        .unwrap();
    check(
        "tcp",
        TcpTransport::bind(Alice, config.clone()).unwrap(),
        TcpTransport::bind(Bob, config).unwrap(),
    );
}
