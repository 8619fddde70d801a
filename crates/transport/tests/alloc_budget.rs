//! Pins the zero-copy property of the in-process data plane: a counting
//! global allocator asserts the per-message allocation budget on the
//! `LocalTransport` send+receive hot path.
//!
//! The budget is **one allocation per message**: the shared payload
//! buffer created when the value's bytes leave the session's reusable
//! scratch space. Everything downstream — framing, demultiplexing,
//! mailbox delivery, the receiver's view of the payload — must share
//! that buffer, not copy it.
//!
//! This file contains exactly one `#[test]`: the default test harness
//! runs tests on concurrent threads, and a second test would perturb
//! the counter.

use chorus_core::Endpoint;
use chorus_transport::{LocalTransport, LocalTransportChannel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, counting every allocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

chorus_core::locations! { Alice, Bob }
type System2 = chorus_core::LocationSet!(Alice, Bob);

#[test]
fn local_hot_path_stays_within_one_allocation_per_message() {
    // Both endpoints live on this thread: `LocalTransport` never needs
    // a peer thread, which makes the allocation count deterministic.
    let channel = LocalTransportChannel::<System2>::new();
    let alice = Endpoint::new(LocalTransport::new(Alice, channel.clone()));
    let bob = Endpoint::new(LocalTransport::new(Bob, channel));
    let alice_session = alice.session_with_id(1);
    let bob_session = bob.session_with_id(1);

    // Warm-up: grow the scratch buffer, the sequence trackers, the
    // mailbox map and its queue to steady-state capacity.
    for i in 0..64u64 {
        alice_session.send_value("Bob", &i).unwrap();
        let got = bob_session.receive_payload("Alice").unwrap();
        assert_eq!(got.len(), 8);
    }

    const MESSAGES: usize = 100;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..MESSAGES as u64 {
        // Typed send: serialize into the thread scratch (no
        // allocation at steady state), copy once into the shared
        // payload buffer (THE allocation), deposit the structured
        // frame, pop it at the receiver — nothing else.
        alice_session.send_value("Bob", &i).unwrap();
        let payload = bob_session.receive_payload("Alice").unwrap();
        assert_eq!(payload.len(), 8);
    }
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;

    // The counter is process-global, and the test harness's own threads
    // (plus any lazily-ticking runtime thread) can allocate a handful of
    // times while the measured loop runs — more likely when the machine
    // is loaded by the rest of the suite. A small *constant* slack
    // absorbs that without weakening the per-message pin: anything the
    // hot path allocated per message would scale with MESSAGES.
    const SLACK: usize = 8;
    assert!(
        spent <= MESSAGES + SLACK,
        "local send+receive hot path allocated {spent} times for {MESSAGES} messages \
         (budget: 1 per message + {SLACK} constant slack)"
    );

    // Batched phase: the whole burst is queued before the first
    // receive, the shape the batched TCP data plane flushes as one
    // vectored write. The budget is unchanged — one allocation per
    // message — because batching reuses the same shared payload
    // buffers; only the mailbox queue's capacity growth is new, and the
    // warm-up burst pays for that once.
    for i in 0..MESSAGES as u64 {
        alice_session.send_value("Bob", &i).unwrap();
    }
    for _ in 0..MESSAGES {
        bob_session.receive_payload("Alice").unwrap();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..MESSAGES as u64 {
        alice_session.send_value("Bob", &i).unwrap();
    }
    for _ in 0..MESSAGES {
        let payload = bob_session.receive_payload("Alice").unwrap();
        assert_eq!(payload.len(), 8);
    }
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        spent <= MESSAGES + SLACK,
        "batched send burst allocated {spent} times for {MESSAGES} messages \
         (budget: 1 per message + {SLACK} constant slack)"
    );
}
