//! Pins what the census-polymorphic operators cost per run: a counting
//! global allocator measures one run of a 4-party choreography that
//! uses `multicast`, `broadcast`, `conclave` and `fanin` over
//! `LocalTransport`, each run a fresh session at every role.
//!
//! The roles run one after another on this thread, in census order, and
//! each receives only from roles that ran before it, so every receive
//! finds its frame queued and the counts are deterministic. What a run
//! allocates is its six payloads (one per encode: the multicast, the
//! broadcast, the conclave's send, and the three fan-in sends) plus the
//! recipient's fan-in result, a `Quire` keyed by `String` (three keys
//! and one map node). Walking the census, opening a session, stamping
//! sequence numbers and queueing a frame allocate nothing.
//!
//! This file contains exactly one test: the default test harness runs
//! tests on concurrent threads, and a second test would perturb the
//! counters.

use chorus_core::{
    ChoreoOp, Choreography, ChoreographyLocation, Endpoint, FanInChoreography, Located,
    LocationSet, Member, MultiplyLocated, Quire, Subset,
};
use chorus_transport::{LocalTransport, LocalTransportChannel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Forwards to the system allocator, counting every allocation and
/// tracking how many are live.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

chorus_core::locations! { A, B, C, D }
type Census = chorus_core::LocationSet!(A, B, C, D);
type Pair = chorus_core::LocationSet!(B, C);
type Senders = chorus_core::LocationSet!(A, B, C);
type Recipient = chorus_core::LocationSet!(D);

/// B passes a value to C, inside the conclave of the two.
struct Whisper;

impl Choreography<Located<u64, C>> for Whisper {
    type L = Pair;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<u64, C> {
        let at_b = op.locally(B, |_| 3);
        op.comm(B, C, &at_b)
    }
}

/// Every sender sends its name's length plus ten to the recipient.
struct Gather;

impl FanInChoreography<u64> for Gather {
    type L = Census;
    type QS = Senders;
    type RS = Recipient;

    fn run<Q: ChoreographyLocation, QSSubsetL, RSSubsetL, QMemberL, QMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> MultiplyLocated<u64, Self::RS>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Self::RS: Subset<Self::L, RSSubsetL>,
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>,
    {
        let at_q = op.locally(Q::new(), |_| Q::NAME.len() as u64 + 10);
        op.multicast(Q::new(), Recipient::new(), &at_q)
    }
}

/// Returns the broadcast value; C checks the multicast and the
/// conclave's value, D the fan-in.
struct Everything;

impl Choreography<u64> for Everything {
    type L = Census;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> u64 {
        let at_a = op.locally(A, |_| 1_u64);
        let pair: MultiplyLocated<u64, Pair> = op.multicast(A, Pair::new(), &at_a);
        let heard = op.broadcast(A, op.locally(A, |_| 2_u64));
        let whispered = op.conclave(Whisper);
        let gathered: MultiplyLocated<Quire<u64, Senders>, Recipient> =
            op.fanin(Senders::new(), Gather);
        op.locally(C, |un| {
            let at_c = un.unwrap_ref(&whispered);
            assert_eq!((un.unwrap(&pair), un.unwrap(at_c)), (1, 3));
        });
        op.locally(D, |un| assert_eq!(un.unwrap_ref(&gathered).values().sum::<u64>(), 33));
        heard
    }
}

#[test]
fn a_census_polymorphic_run_allocates_only_its_payloads() {
    let channel = LocalTransportChannel::<Census>::new();
    let a = Endpoint::new(LocalTransport::new(A, channel.clone()));
    let b = Endpoint::new(LocalTransport::new(B, channel.clone()));
    let c = Endpoint::new(LocalTransport::new(C, channel.clone()));
    let d = Endpoint::new(LocalTransport::new(D, channel));
    let run = |id: u64| {
        let observed = [
            a.session_with_id(id).epp_and_run(Everything),
            b.session_with_id(id).epp_and_run(Everything),
            c.session_with_id(id).epp_and_run(Everything),
            d.session_with_id(id).epp_and_run(Everything),
        ];
        assert_eq!(observed, [2; 4]);
    };

    const WARM_UP: u64 = 1_000;
    const RUNS: u64 = 1_000;
    for id in 0..WARM_UP {
        run(id);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let live = LIVE.load(Ordering::Relaxed);
    for id in WARM_UP..WARM_UP + RUNS {
        run(id);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let retained = LIVE.load(Ordering::Relaxed) - live;
    println!(
        "census run: {:.3} allocations, {:.3} retained",
        allocations as f64 / RUNS as f64,
        retained as f64 / RUNS as f64
    );

    // Six payloads and the fan-in's quire (three `String` keys, one map
    // node). The constant slack absorbs what the harness's own threads
    // allocate meanwhile, as in `alloc_budget.rs`.
    const ALLOCATIONS_PER_RUN: usize = 10;
    const SLACK: usize = 8;
    assert!(
        allocations <= RUNS as usize * ALLOCATIONS_PER_RUN + SLACK,
        "{RUNS} runs allocated {allocations} times \
         (budget: {ALLOCATIONS_PER_RUN} per run + {SLACK} constant slack)"
    );
    assert!(
        retained <= SLACK as isize,
        "{RUNS} finished runs left {retained} allocations live (budget: {SLACK} constant slack)"
    );
}
