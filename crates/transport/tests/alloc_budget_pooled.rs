//! Pins the allocation budget of the *pooled* session runtime's hot
//! path: a counting global allocator asserts that driving a parked
//! session through a receive→send round costs O(1) allocations per
//! message at steady state — and in particular that waking a session
//! does **not** box anything per wakeup.
//!
//! Steady-state accounting for one echoed message pair:
//!
//! * client send: serialize into reusable scratch (0), copy once into
//!   the shared payload buffer (1);
//! * deposit + wake: mailbox push into retained capacity (0), waker
//!   taken out of the map by key (0), run-queue push of a cloned
//!   pre-allocated `Arc` (0);
//! * pooled resume: pop frame (0), decode (0), reply through the
//!   worker thread's scratch into one shared payload buffer (1);
//! * re-park: waker re-registered into a map slot already at capacity
//!   (0), park bookkeeping in place (0).
//!
//! That is 1 allocation per message. The assertion allows 2 per message
//! for cross-platform allocator noise — still O(1), still no per-wakeup
//! boxing (boxing even one waker per wake would double the count).
//!
//! This file contains exactly one `#[test]`: the default test harness
//! runs tests on concurrent threads, and a second test would perturb
//! the counter.

use chorus_core::{Endpoint, RoleProgram, SessionCx, SessionRuntime, Step, TransportError};
use chorus_transport::{LocalTransport, LocalTransportChannel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
type Census = chorus_core::LocationSet!(Alice, Bob);

/// Echoes `remaining` integers back to Alice, parking between frames —
/// every round exercises the full yield/wake/resume cycle.
struct PooledEcho {
    remaining: u32,
}

impl RoleProgram for PooledEcho {
    type Output = ();

    fn resume(&mut self, cx: &mut SessionCx<'_>) -> Result<Step<()>, TransportError> {
        while self.remaining > 0 {
            let Some(value) = cx.try_receive_value::<u64>("Alice")? else {
                return Ok(Step::Pending);
            };
            cx.send_value("Alice", &value)?;
            self.remaining -= 1;
        }
        Ok(Step::Done(()))
    }
}

const WARMUP: u32 = 64;
const MESSAGES: u32 = 100;

#[test]
fn pooled_wakeup_path_stays_within_budget() {
    let channel = LocalTransportChannel::<Census>::new();
    let alice = Endpoint::new(LocalTransport::new(Alice, channel.clone()));
    let bob = Arc::new(Endpoint::new(LocalTransport::new(Bob, channel)));

    let runtime = SessionRuntime::new(1);
    let server = runtime.spawn(&bob, 1, PooledEcho { remaining: WARMUP + MESSAGES });
    let session = alice.session_with_id(1);

    // Warm-up: grow the scratch buffers, sequence trackers, mailbox
    // map, waker map, and run queue to steady-state capacity.
    for i in 0..u64::from(WARMUP) {
        session.send_value("Bob", &i).unwrap();
        assert_eq!(session.receive_payload("Bob").unwrap().len(), 8);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..u64::from(MESSAGES) {
        session.send_value("Bob", &i).unwrap();
        assert_eq!(session.receive_payload("Bob").unwrap().len(), 8);
    }
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;

    server.join().unwrap();

    // 2 messages per round; measured cost is 1 allocation per message
    // (the shared payload buffer). Budget 2× for allocator noise.
    let budget = (MESSAGES as usize) * 2 * 2;
    assert!(
        spent <= budget,
        "pooled echo round-trips allocated {spent} times for {MESSAGES} rounds \
         (budget: {budget}; anything per-wakeup would blow this)"
    );
}
