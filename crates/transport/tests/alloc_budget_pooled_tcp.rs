//! Pins the allocation budget of the pooled session runtime over TCP:
//! a counting global allocator asserts that a pooled echo over a
//! loopback `TcpTransport` pair costs O(1) allocations per message at
//! steady state. `alloc_budget_pooled.rs` pins the runtime's own path
//! over `LocalTransport`; this file adds the TCP link under it — the
//! retention queue, the batch writer, a pool worker's end-of-pass
//! flush and the reader's deposit.
//!
//! Steady-state accounting for one echoed round trip: four shared
//! payload buffers (Alice's request, the frame Bob's reader decodes,
//! Bob's pooled reply, the frame Alice's reader decodes), and nothing
//! else. A reader gathers the wakers a burst fires in a list it keeps
//! from burst to burst, and writes the cumulative acks it owes every 16
//! frames from a stack buffer; recording a link in a worker's pass
//! clones an `Arc` the link already owns, into a list that keeps its
//! capacity. Measured: 803 to 804 allocations for 200 rounds, release
//! and debug alike (6.4 per round trip while each burst that woke
//! someone built a fresh waker list and each ack was encoded into two
//! vectors). The budget is that measurement plus 10 %, which one
//! allocation per burst, per send or per pass (200 more) would blow.
//!
//! This file contains exactly one `#[test]`: the default test harness
//! runs tests on concurrent threads, and a second test would perturb
//! the counter.

use chorus_core::{Endpoint, RoleProgram, SessionCx, SessionRuntime, Step, TransportError};
use chorus_transport::{free_local_addrs, TcpConfigBuilder, TcpTransport};
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

/// Echoes `remaining` integers back to Alice, parking between frames.
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
const MESSAGES: u32 = 200;

#[test]
fn pooled_echo_over_tcp_stays_within_budget() {
    let addrs = free_local_addrs(2).unwrap();
    let config = TcpConfigBuilder::new()
        .location(Alice, addrs[0])
        .location(Bob, addrs[1])
        .build::<Census>()
        .unwrap();
    let alice = Endpoint::new(TcpTransport::bind(Alice, config.clone()).unwrap());
    let bob = Arc::new(Endpoint::new(TcpTransport::bind(Bob, config).unwrap()));

    let runtime = SessionRuntime::new(1);
    let server = runtime.spawn(&bob, 1, PooledEcho { remaining: WARMUP + MESSAGES });
    let session = alice.session_with_id(1);

    // Warm-up: open both links and grow the batch buffers, mailboxes,
    // the run queue and the worker's pass list to steady-state size.
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

    println!("{spent} allocations for {MESSAGES} pooled round trips over TCP");
    let budget = (MESSAGES as usize) * 22 / 5;
    assert!(
        spent <= budget,
        "pooled echo round-trips over TCP allocated {spent} times for {MESSAGES} rounds \
         (budget: {budget}; anything per send, per burst or per pass would blow this)"
    );
}
