//! The transport conformance suite: one macro-driven battery asserting
//! the [`chorus_core::SessionTransport`] contract — per-(session,
//! sender) FIFO, independent cross-session interleaving, sequence-gap
//! detection, poisoned-link withholding, one final failure every session
//! reads alike, closed sessions (late frames dropped, ids reusable,
//! queued frames kept), and multi-session metrics parity — instantiated against
//! every transport in the workspace:
//!
//! * [`LocalTransport`] — in-process queues;
//! * [`TcpTransport`] — real sockets on loopback;
//! * [`SimTransport`] — the deterministic simulated network, run under
//!   a *hostile* fault plan (jitter, drops, duplicates) to show the
//!   contract survives adverse schedules, not just quiet ones.
//!
//! `three_party` runs the one case that needs a receiver with two
//! inbound links: a failure on one leaves the other alone. The sim-only
//! module at the bottom pins the determinism guarantee: one seed, one
//! delivery schedule, bit for bit.

mod cases;

use chorus_transport::{
    free_local_addrs, Corruption, FaultPlan, LocalTransport, LocalTransportChannel, Silence,
    SimNet, SimTransport, TcpConfigBuilder, TcpTransport,
};

use cases::{Alice, Bob, System};

/// Instantiates the whole battery for one transport; `$make` is an
/// expression producing a fresh, independent `(alice, bob)` pair each
/// time it is evaluated.
///
/// The two **adversarial** cases run on every transport, but only the
/// sim instantiates them with actually-hostile pairs (`$corrupt` under
/// an always-on corruption plan, `$silent` with the Alice→Bob link
/// silenced) and `$hostile = true`; local and TCP reuse `$make` with
/// `$hostile = false`, pinning the honest side of the same contract —
/// bit-exact delivery, no spurious watchdog errors.
macro_rules! conformance_suite {
    ($name:ident, $make:expr) => {
        conformance_suite!($name, $make, $make, $make, false, (|_, _| {}));
    };
    ($name:ident, $make:expr, $corrupt:expr, $silent:expr, $hostile:expr) => {
        conformance_suite!($name, $make, $corrupt, $silent, $hostile, (|_, _| {}));
    };
    ($name:ident, $make:expr, $corrupt:expr, $silent:expr, $hostile:expr, $disrupt:expr) => {
        mod $name {
            use super::*;

            #[test]
            fn per_sender_fifo() {
                let (alice, bob) = $make;
                cases::per_sender_fifo(alice, bob);
            }

            #[test]
            fn ping_pong_blocking() {
                let (alice, bob) = $make;
                cases::ping_pong_blocking(alice, bob);
            }

            #[test]
            fn cross_session_interleaving() {
                let (alice, bob) = $make;
                cases::cross_session_interleaving(alice, bob);
            }

            #[test]
            fn fifo_across_batch_boundaries() {
                let (alice, bob) = $make;
                cases::fifo_across_batch_boundaries(alice, bob);
            }

            #[test]
            fn sequence_gap_detected() {
                let (alice, bob) = $make;
                cases::sequence_gap_detected(alice, bob);
            }

            #[test]
            fn poisoned_link_withholds() {
                let (alice, bob) = $make;
                cases::poisoned_link_withholds(alice, bob);
            }

            #[test]
            fn multi_session_metrics_parity() {
                cases::multi_session_metrics_parity(|| $make);
            }

            #[test]
            fn try_receive_on_empty_mailbox_is_none() {
                let (alice, bob) = $make;
                cases::try_receive_on_empty_mailbox_is_none(alice, bob);
            }

            #[test]
            fn waker_fires_on_deposit() {
                let (alice, bob) = $make;
                cases::waker_fires_on_deposit(alice, bob);
            }

            #[test]
            fn deposit_wakes_only_its_own_session() {
                let (alice, bob) = $make;
                cases::deposit_wakes_only_its_own_session(alice, bob);
            }

            #[test]
            fn link_failure_wakes_every_parked_session() {
                let (alice, bob) = $make;
                cases::link_failure_wakes_every_parked_session(alice, bob);
            }

            #[test]
            fn registration_reports_ready_mailbox() {
                let (alice, bob) = $make;
                cases::registration_reports_ready_mailbox(alice, bob);
            }

            #[test]
            fn repeated_misses_with_one_waker_wake_once() {
                let (alice, bob) = $make;
                cases::repeated_misses_with_one_waker_wake_once(alice, bob);
            }

            #[test]
            fn a_later_waker_replaces_the_earlier() {
                let (alice, bob) = $make;
                cases::a_later_waker_replaces_the_earlier(alice, bob);
            }

            #[test]
            fn link_failure_is_final_and_shared() {
                let (alice, bob) = $make;
                cases::link_failure_is_final_and_shared(alice, bob);
            }

            #[test]
            fn try_receive_surfaces_link_failure() {
                let (alice, bob) = $make;
                cases::try_receive_surfaces_link_failure(alice, bob);
            }

            #[test]
            fn fifo_preserved_under_try_polling() {
                let (alice, bob) = $make;
                cases::fifo_preserved_under_try_polling(alice, bob);
            }

            #[test]
            fn late_frame_after_close_is_dropped() {
                let (alice, bob) = $make;
                cases::late_frame_after_close_is_dropped(alice, bob);
            }

            #[test]
            fn closed_session_id_is_reusable() {
                let (alice, bob) = $make;
                cases::closed_session_id_is_reusable(alice, bob);
            }

            #[test]
            fn close_keeps_undrained_frames() {
                let (alice, bob) = $make;
                cases::close_keeps_undrained_frames(alice, bob);
            }

            #[test]
            fn corrupted_link_flips_exactly_one_payload_bit() {
                let (alice, bob) = $corrupt;
                cases::corrupted_link_flips_exactly_one_payload_bit(alice, bob, $hostile);
            }

            #[test]
            fn silenced_link_fails_loud() {
                let (alice, bob) = $silent;
                cases::silenced_link_fails_loud(alice, bob, $hostile);
            }

            #[test]
            fn session_reuse_after_link_disruption() {
                let (alice, bob) = $make;
                cases::session_reuse_after_link_disruption(alice, bob, $disrupt);
            }
        }
    };
}

conformance_suite!(local, {
    let channel = LocalTransportChannel::<System>::new();
    (LocalTransport::new(Alice, channel.clone()), LocalTransport::new(Bob, channel))
});

macro_rules! tcp_pair {
    () => {{
        let addrs = free_local_addrs(2).unwrap();
        let config = TcpConfigBuilder::new()
            .location(Alice, addrs[0])
            .location(Bob, addrs[1])
            .build::<System>()
            .unwrap();
        (
            TcpTransport::bind(Alice, config.clone()).unwrap(),
            TcpTransport::bind(Bob, config).unwrap(),
        )
    }};
}

conformance_suite!(
    tcp,
    tcp_pair!(),
    tcp_pair!(),
    tcp_pair!(),
    false,
    // The TCP disruption is real: hard-kill every established
    // connection on both sides; the resilient link layer must
    // reconnect and replay without a session noticing.
    |alice: &TcpTransport<System, Alice>, bob: &TcpTransport<System, Bob>| {
        alice.break_established_links();
        bob.break_established_links();
    }
);

conformance_suite!(
    sim,
    {
        // A hostile schedule, not a quiet one: reordering jitter, drops
        // (with retransmission), and duplicates. The contract must hold
        // anyway.
        let plan =
            FaultPlan::ideal().with_seed(11).with_jitter(6).with_drop(0.15).with_duplicate(0.1);
        let net = SimNet::<System>::new(plan);
        (SimTransport::new(Alice, net.clone()), SimTransport::new(Bob, net))
    },
    {
        // Every Alice→Bob frame has one payload bit flipped.
        let plan =
            FaultPlan::ideal().with_seed(12).with_corruption(Corruption::link("Alice", "Bob", 1.0));
        let net = SimNet::<System>::new(plan);
        (SimTransport::new(Alice, net.clone()), SimTransport::new(Bob, net))
    },
    {
        // Alice's frames to Bob never arrive; the watchdog must report
        // the dead edge instead of letting Bob hang.
        let plan = FaultPlan::ideal().with_seed(13).with_silence(Silence::link("Alice", "Bob"));
        let net = SimNet::<System>::new(plan);
        (SimTransport::new(Alice, net.clone()), SimTransport::new(Bob, net))
    },
    true
);

/// The cases that need a receiver with more than one inbound link, over
/// the three-party census `Trio`, on every transport.
mod three_party {
    use super::*;
    use cases::{Carol, Trio};

    #[test]
    fn local_failure_leaves_other_links_alone() {
        let channel = LocalTransportChannel::<Trio>::new();
        cases::failure_leaves_other_links_alone(
            LocalTransport::new(Alice, channel.clone()),
            LocalTransport::new(Bob, channel.clone()),
            LocalTransport::new(Carol, channel),
        );
    }

    #[test]
    fn tcp_failure_leaves_other_links_alone() {
        let addrs = free_local_addrs(3).unwrap();
        let config = TcpConfigBuilder::new()
            .location(Alice, addrs[0])
            .location(Bob, addrs[1])
            .location(Carol, addrs[2])
            .build::<Trio>()
            .unwrap();
        cases::failure_leaves_other_links_alone(
            TcpTransport::bind(Alice, config.clone()).unwrap(),
            TcpTransport::bind(Bob, config.clone()).unwrap(),
            TcpTransport::bind(Carol, config).unwrap(),
        );
    }

    #[test]
    fn sim_failure_leaves_other_links_alone() {
        let plan =
            FaultPlan::ideal().with_seed(14).with_jitter(6).with_drop(0.15).with_duplicate(0.1);
        let net = SimNet::<Trio>::new(plan);
        cases::failure_leaves_other_links_alone(
            SimTransport::new(Alice, net.clone()),
            SimTransport::new(Bob, net.clone()),
            SimTransport::new(Carol, net),
        );
    }
}

/// Determinism pins for the simulated network — the property the chaos
/// tests and CI replay workflow stand on.
mod sim_determinism {
    use super::*;
    use chorus_core::Endpoint;
    use chorus_transport::Trace;
    use std::sync::Arc;

    /// One fixed driver script over endpoints with a shared `Trace`
    /// layer: two sessions per direction, interleaved.
    fn run(seed: u64) -> (String, Vec<chorus_transport::TraceEvent>) {
        let (net, trace) = drive(seed);
        (net.schedule_dump(), trace.events())
    }

    /// [`run`]'s script, returning the net and the shared layer.
    fn drive(seed: u64) -> (SimNet<System>, Arc<Trace>) {
        let plan =
            FaultPlan::ideal().with_seed(seed).with_jitter(9).with_drop(0.25).with_duplicate(0.2);
        let net = SimNet::<System>::new(plan);
        let trace = Arc::new(Trace::new());
        let alice = Endpoint::builder(Alice)
            .transport(SimTransport::new(Alice, net.clone()))
            .layer(Arc::clone(&trace))
            .build();
        let bob = Endpoint::builder(Bob)
            .transport(SimTransport::new(Bob, net.clone()))
            .layer(Arc::clone(&trace))
            .build();
        for id in 0..2u64 {
            let sa = alice.session_with_id(id);
            let sb = bob.session_with_id(id);
            for i in 0..16u32 {
                sa.send_bytes("Bob", &(i + id as u32).to_le_bytes()).unwrap();
                sb.send_bytes("Alice", &i.to_le_bytes()).unwrap();
            }
        }
        for id in 0..2u64 {
            let sa = alice.session_with_id(id);
            let sb = bob.session_with_id(id);
            for i in 0..16u32 {
                assert_eq!(sb.receive_bytes("Alice").unwrap(), (i + id as u32).to_le_bytes());
                assert_eq!(sa.receive_bytes("Bob").unwrap(), i.to_le_bytes());
            }
        }
        (net, trace)
    }

    #[test]
    fn same_seed_reproduces_the_delivery_trace_bit_for_bit() {
        let (dump_a, trace_a) = run(2024);
        let (dump_b, trace_b) = run(2024);
        assert_eq!(dump_a, dump_b, "schedule dumps must be identical");
        assert_eq!(trace_a, trace_b, "layer-observed traces must be identical");
        assert!(dump_a.contains("== Alice -> Bob") && dump_a.contains("== Bob -> Alice"));
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        let (dump_a, _) = run(1);
        let (dump_b, _) = run(2);
        assert_ne!(dump_a, dump_b);
    }

    #[test]
    fn sim_trace_events_interoperate_with_the_trace_layer_format() {
        let plan = FaultPlan::ideal().with_seed(5);
        let net = SimNet::<System>::new(plan);
        let alice = SimTransport::new(Alice, net.clone());
        let bob = SimTransport::new(Bob, net.clone());
        use chorus_core::Transport as _;
        alice.send("Bob", b"one").unwrap();
        bob.receive("Alice").unwrap();
        let events = net.trace_events();
        let sends =
            events.iter().filter(|e| e.direction == chorus_transport::Direction::Send).count();
        let receives =
            events.iter().filter(|e| e.direction == chorus_transport::Direction::Receive).count();
        assert_eq!((sends, receives), (1, 1));

        // Over endpoints, the sim's sends are the layer's sends, payload
        // lengths included.
        let (net, trace) = drive(5);
        let sends = |events: Vec<chorus_transport::TraceEvent>| {
            let mut sends: Vec<_> = events
                .into_iter()
                .filter(|e| e.direction == chorus_transport::Direction::Send)
                .map(|e| (e.session, e.seq, e.from, e.to, e.bytes))
                .collect();
            sends.sort();
            sends
        };
        let layer = sends(trace.events());
        assert_eq!(layer.len(), 64);
        assert_eq!(sends(net.trace_events()), layer);
    }
}
