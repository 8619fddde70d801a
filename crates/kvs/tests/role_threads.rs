//! `SimCluster` owns one thread per candidate node for its whole life:
//! no session spawns a thread, and none outlives the cluster. One test
//! in a file of its own, so that no test running in parallel moves the
//! process's thread count (like `alloc_budget*.rs`).

use chorus_kvs::cluster::{SimCluster, NODE_NAMES};
use chorus_transport::FaultPlan;
use std::time::{Duration, Instant};

/// The process's thread count, from `/proc/self/status` (Linux only).
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| line.strip_prefix("Threads:"))?.trim().parse().ok()
}

/// The thread count once it reaches `want`, or after a few seconds: a
/// joined thread can still be counted for a moment after `join`
/// returns.
fn settled_threads(want: usize) -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let count = threads();
        if count == Some(want) || Instant::now() > deadline {
            return count;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn the_cluster_owns_one_thread_per_candidate_node() {
    let Some(baseline) = threads() else {
        return; // no /proc: not Linux
    };
    let mut cluster = SimCluster::new(FaultPlan::ideal(), &["N1", "N2", "N3"], 4);
    let owned = baseline + NODE_NAMES.len();
    assert_eq!(threads(), Some(owned), "one role thread per candidate node");

    for i in 0..100 {
        let key = format!("k{i}");
        cluster.put(&key, "v").expect("put commits");
        assert!(cluster.get(&key).expect("get succeeds").is_some());
    }
    let shard = cluster.config().shards[0].id;
    assert!(cluster.split_shard(shard), "split commits");
    cluster.crash("N2");
    assert!(cluster.recover("N2") > 0, "recovery pulled entries");
    assert_eq!(threads(), Some(owned), "sessions neither spawn nor leak threads");

    drop(cluster);
    assert_eq!(settled_threads(baseline), Some(baseline), "drop joins every role thread");
}
