//! Pins that sessions end: a counting global allocator samples the
//! process's live bytes while one `LocalTransport` endpoint pair runs a
//! million one-request-one-reply sessions through `Endpoint`/`Session`,
//! and the live bytes must not grow with the session count. Each
//! `Session` closes its receive-side state when dropped, so what a
//! finished session leaves behind is nothing, not a mailbox per link.
//!
//! This file contains exactly one `#[test]`: the default test harness
//! runs tests on concurrent threads, and a second test would perturb
//! the counter.

use chorus_core::Endpoint;
use chorus_transport::{LocalTransport, LocalTransportChannel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Forwards to the system allocator, tracking how many bytes are live.
struct CountingAllocator;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

chorus_core::locations! { Alice, Bob }
type System2 = chorus_core::LocationSet!(Alice, Bob);

#[test]
fn live_bytes_do_not_grow_with_sessions() {
    // Both endpoints live on this thread, as in `alloc_budget*.rs`.
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

    const SESSIONS: u64 = 1_000_000;
    const SAMPLE_EVERY: u64 = 100_000;
    // Room for what the harness's own threads hold meanwhile. A session
    // that left even one byte behind would cross it within a sample.
    const CEILING_BYTES: isize = 4096;
    let mut samples = Vec::with_capacity((SESSIONS / SAMPLE_EVERY) as usize);
    for id in 0..SESSIONS {
        run(id);
        if (id + 1) % SAMPLE_EVERY == 0 {
            samples.push(LIVE_BYTES.load(Ordering::Relaxed));
        }
    }
    let first = samples[0];
    println!("live bytes every {SAMPLE_EVERY} sessions, from {first} B: {:?}", {
        samples.iter().map(|sample| sample - first).collect::<Vec<_>>()
    });
    for (index, sample) in samples.iter().enumerate() {
        let sessions = (index as u64 + 1) * SAMPLE_EVERY;
        assert!(
            sample - first <= CEILING_BYTES,
            "after {sessions} sessions {} B more are live than after {SAMPLE_EVERY} \
             (ceiling {CEILING_BYTES} B)",
            sample - first
        );
    }
}
