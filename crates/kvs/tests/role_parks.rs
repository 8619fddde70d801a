//! A `SimCluster` op hands work to its node threads and back without
//! putting them to sleep: a node thread waits for its next job, and a
//! simulated receive for its frame, through a bounded yield before it
//! parks, and at steady state the next job or frame arrives within it.
//! Counted through the voluntary context switches (a thread blocking)
//! that `/proc/self/task/*/status` reports for the threads `N1` … `N4`
//! (Linux only); a yield is no voluntary switch. One test in a file of
//! its own, so that no test running in parallel competes for the cores
//! these threads yield to (like `tcp_idle_acceptor.rs`).

use chorus_kvs::cluster::{SimCluster, NODE_NAMES};
use chorus_transport::FaultPlan;

/// Voluntary context switches summed over the node threads, and how
/// many node threads there are.
fn node_switches() -> (u64, usize) {
    let (mut switches, mut nodes) = (0, 0);
    let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten().flatten();
    for task in tasks {
        let is_node = std::fs::read_to_string(task.path().join("comm"))
            .is_ok_and(|comm| NODE_NAMES.contains(&comm.trim_end()));
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else { continue };
        if !is_node {
            continue;
        }
        nodes += 1;
        switches += status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|count| count.trim().parse::<u64>().ok())
            .unwrap_or(0);
    }
    (switches, nodes)
}

/// `pairs` put-then-get pairs over 64 keys, each read checked.
fn workload(cluster: &mut SimCluster, round: u64, pairs: u64) {
    for i in 0..pairs {
        let key = format!("key-{}", i % 64);
        let value = format!("r{round}-{i}");
        cluster.put(&key, &value).expect("put commits on an ideal net");
        let found = cluster.get(&key).expect("get succeeds").expect("key present");
        assert_eq!(found.value, value);
    }
}

const PAIRS: u64 = 150;

/// Windows of `2 * PAIRS` ops measured before the test fails. Another
/// process busy on the same cores can push one window over the bar (a
/// node thread's yields find no runnable peer's frame and it parks);
/// the regression this test exists for, node threads that park on
/// every hand-off, parks several times per op in every window.
const WINDOWS: u64 = 3;

#[test]
fn steady_state_ops_do_not_park_the_node_threads() {
    if !std::path::Path::new("/proc/self/task").exists() {
        return; // not Linux
    }
    let mut cluster = SimCluster::new(FaultPlan::ideal(), &NODE_NAMES, 4);
    // Warm-up: every node has served sessions and every queue has grown
    // to its steady-state size.
    workload(&mut cluster, 0, 64);

    let ops = 2 * PAIRS;
    let mut counts = Vec::new();
    for window in 1..=WINDOWS {
        let (before, nodes) = node_switches();
        assert_eq!(nodes, NODE_NAMES.len(), "one thread per candidate node");
        workload(&mut cluster, window, PAIRS);
        let (after, _) = node_switches();
        let parked = after - before;
        println!("window {window}: {ops} steady-state ops, {parked} voluntary switches on the node threads");
        if parked < ops {
            return;
        }
        counts.push(parked);
    }
    panic!(
        "every window of {ops} steady-state ops parked the node threads at least once per op: \
         {counts:?} switches (the bar is under 1 per op)"
    );
}
