//! Pins what a steady-state `SimCluster` op allocates: a counting
//! global allocator measures puts and gets on an ideal 4-node cluster
//! (4 shards, RF 3), the client's role on this thread and the node
//! roles on the cluster's `N1` … `N4` threads, all counted.
//!
//! An op is one fresh session over the key's replica set: the request,
//! the replies and their `Quire` at the client, the replicas' stores
//! and the consistency model. The round borrows the client's config
//! view, so no op copies the census or the shard table; a change that
//! makes the count move has added per-op work. Run with
//! `-- --nocapture` to see the measured figure.
//!
//! This file contains exactly one test: the default test harness runs
//! tests on concurrent threads, and a second test would perturb the
//! counters.

use chorus_kvs::cluster::{SimCluster, NODE_NAMES};
use chorus_transport::FaultPlan;
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

const KEYS: usize = 64;

/// `pairs` put-then-get pairs over the `KEYS` keys, each read checked.
/// Keys and values are built by the caller, outside the count.
fn workload(cluster: &mut SimCluster, keys: &[String], values: &[String], pairs: usize) {
    for i in 0..pairs {
        let (key, value) = (&keys[i % KEYS], &values[i % values.len()]);
        cluster.put(key, value).expect("put commits on an ideal net");
        let found = cluster.get(key).expect("get succeeds").expect("key present");
        assert_eq!(&found.value, value);
    }
}

#[test]
fn a_steady_state_cluster_op_allocates_within_budget() {
    let mut cluster = SimCluster::new(FaultPlan::ideal(), &NODE_NAMES, 4);
    let keys: Vec<String> = (0..KEYS).map(|i| format!("key-{i}")).collect();
    let warm: Vec<String> = (0..KEYS).map(|i| format!("warm-{i}")).collect();
    let values: Vec<String> = (0..KEYS).map(|i| format!("value-{i}")).collect();
    // Warm-up: every key is stored, every node has served sessions and
    // every queue has grown to its steady-state size.
    workload(&mut cluster, &keys, &warm, 4 * KEYS);

    const PAIRS: usize = 500;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    workload(&mut cluster, &keys, &values, PAIRS);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let ops = 2 * PAIRS;
    let per_op = allocations as f64 / ops as f64;
    println!("cluster op: {per_op:.2} allocations per op over {ops} steady-state ops");

    // 37.2 measured, plus 10 %.
    const BUDGET_PER_OP: f64 = 40.9;
    assert!(
        per_op <= BUDGET_PER_OP,
        "{ops} ops allocated {allocations} times, {per_op:.2} per op (budget: {BUDGET_PER_OP})"
    );
}
