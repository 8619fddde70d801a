//! Pins what a *fresh* session costs the in-process data plane: a
//! counting global allocator measures, per session pair of one request
//! and one reply over `LocalTransport`, how many allocations are made
//! and how many (and how many bytes) are still live once both
//! `Session`s are dropped.
//!
//! `alloc_budget.rs` pins the steady state of one long-lived session;
//! this is the other end — every session new, which is how the KVS
//! workloads run. A session that ends closes its receive-side state on
//! every inbound link, so a finished pair retains nothing.
//!
//! A pair costs its two payloads and nothing else: opening a session,
//! resolving names, stamping sequence numbers, serializing (into the
//! thread's scratch buffer) and queueing a session's first frame (into
//! a queue a closed session left behind) allocate nothing.
//!
//! This file contains exactly one `#[test]`: the default test harness
//! runs tests on concurrent threads, and a second test would perturb
//! the counters.

use chorus_core::Endpoint;
use chorus_transport::{LocalTransport, LocalTransportChannel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Forwards to the system allocator, counting every allocation and
/// tracking how many allocations (and bytes) are live.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

fn count_new(layout: Layout) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    LIVE.fetch_add(1, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_new(layout);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_new(layout);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

chorus_core::locations! { Alice, Bob }
type System2 = chorus_core::LocationSet!(Alice, Bob);

#[test]
fn a_fresh_session_pair_stays_within_its_allocation_budget() {
    // Both endpoints live on this thread, as in `alloc_budget.rs`, so
    // the counts are deterministic.
    let channel = LocalTransportChannel::<System2>::new();
    let alice = Endpoint::new(LocalTransport::new(Alice, channel.clone()));
    let bob = Endpoint::new(LocalTransport::new(Bob, channel));
    let run = |id: u64| {
        let alice_session = alice.session_with_id(id);
        let bob_session = bob.session_with_id(id);
        alice_session.send_value("Bob", &id).unwrap();
        assert_eq!(bob_session.receive_payload("Alice").unwrap().len(), 8);
        bob_session.send_value("Alice", &id).unwrap();
        assert_eq!(alice_session.receive_payload("Bob").unwrap().len(), 8);
    };

    const WARM_UP: u64 = 5_000;
    const SESSIONS: u64 = 1_000;
    for id in 0..WARM_UP {
        run(id);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let live = LIVE.load(Ordering::Relaxed);
    let live_bytes = LIVE_BYTES.load(Ordering::Relaxed);
    for id in WARM_UP..WARM_UP + SESSIONS {
        run(id);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let retained = LIVE.load(Ordering::Relaxed) - live;
    let retained_bytes = LIVE_BYTES.load(Ordering::Relaxed) - live_bytes;
    println!(
        "fresh session pair: {:.3} allocations, {:.3} retained ({:.1} B)",
        allocations as f64 / SESSIONS as f64,
        retained as f64 / SESSIONS as f64,
        retained_bytes as f64 / SESSIONS as f64
    );

    // The same constant slack as `alloc_budget.rs` absorbs what the
    // harness's own threads allocate meanwhile; anything a session pair
    // costs scales with SESSIONS.
    const ALLOCATIONS_PER_PAIR: usize = 2;
    const RETAINED_PER_PAIR: isize = 0;
    const RETAINED_BYTES_PER_PAIR: isize = 0;
    const SLACK: usize = 8;
    const SLACK_BYTES: isize = 1024;
    assert!(
        allocations <= SESSIONS as usize * ALLOCATIONS_PER_PAIR + SLACK,
        "{SESSIONS} fresh session pairs allocated {allocations} times \
         (budget: {ALLOCATIONS_PER_PAIR} per pair + {SLACK} constant slack)"
    );
    assert!(
        retained <= SESSIONS as isize * RETAINED_PER_PAIR + SLACK as isize,
        "{SESSIONS} finished session pairs left {retained} allocations live \
         (budget: {RETAINED_PER_PAIR} per pair + {SLACK} constant slack)"
    );
    assert!(
        retained_bytes <= SESSIONS as isize * RETAINED_BYTES_PER_PAIR + SLACK_BYTES,
        "{SESSIONS} finished session pairs left {retained_bytes} bytes live \
         (budget: {RETAINED_BYTES_PER_PAIR} per pair + {SLACK_BYTES} B constant slack)"
    );
}
