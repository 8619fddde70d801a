//! A session runtime is its pool workers and nothing else: the workers
//! find stalled sessions themselves, so there is no watchdog thread,
//! and an idle runtime with no live session makes no timed wakeups.
//! Counted by thread name and voluntary context switches from
//! `/proc/self/task` (Linux only). In a file of their own, and run one
//! at a time, so that no other runtime's workers are counted.

use chorus_core::SessionRuntime;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Serializes the tests: each counts threads by name.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The process's threads whose name starts with `prefix` (the kernel
/// keeps 15 bytes of a name), as their voluntary context switches.
fn threads_named(prefix: &str) -> Vec<u64> {
    let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten().flatten();
    tasks
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| comm.starts_with(prefix))
        })
        .filter_map(|task| std::fs::read_to_string(task.path().join("status")).ok())
        .map(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|count| count.trim().parse::<u64>().ok())
                .unwrap_or(0)
        })
        .collect()
}

/// Waits (up to 5 s) until `workers` threads have named themselves as
/// pool workers: a worker names its thread once it starts.
fn wait_for_workers(workers: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads_named("chorus-pool-").len() < workers && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Voluntary context switches summed over the runtime's threads: its
/// workers, and a watchdog thread if there is one.
fn runtime_switches() -> u64 {
    ["chorus-pool-", "chorus-watchdog"].iter().flat_map(|name| threads_named(name)).sum()
}

#[test]
fn a_runtime_owns_only_its_workers() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    if !std::path::Path::new("/proc/self/task").exists() {
        return; // not Linux
    }
    let runtime = SessionRuntime::with_watchdog(3, Duration::from_millis(40));
    wait_for_workers(3);
    assert_eq!(threads_named("chorus-pool-").len(), runtime.pool_size(), "one thread per worker");
    assert_eq!(threads_named("chorus-watchdog").len(), 0, "no watchdog thread");
}

#[test]
fn an_idle_runtime_makes_no_timed_wakeups() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    if !std::path::Path::new("/proc/self/task").exists() {
        return; // not Linux
    }
    let _runtime = SessionRuntime::with_watchdog(2, Duration::from_millis(40));
    wait_for_workers(2);
    // Let the workers reach their first park.
    std::thread::sleep(Duration::from_millis(50));
    let before = runtime_switches();
    std::thread::sleep(Duration::from_millis(500));
    let woke = runtime_switches() - before;
    eprintln!("idle runtime: {woke} voluntary switches in 500ms");
    assert!(woke <= 5, "an idle runtime with no session woke {woke} times in 500ms");
}
