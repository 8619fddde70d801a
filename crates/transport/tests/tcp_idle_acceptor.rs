//! An idle TCP endpoint's acceptor sleeps in a blocking `accept` until
//! a connector arrives (or the endpoint's drop wakes it to stop): it
//! does not poll its listener. Counted through the voluntary context
//! switches `/proc/self/task/*/status` reports for the acceptor
//! threads (Linux only). One test in a file of its own, so that no
//! test running in parallel adds acceptors or wakes these.

use chorus_core::Transport as _;
use chorus_transport::{free_local_addrs, TcpConfigBuilder, TcpTransport};
use std::time::Duration;

chorus_core::locations! { LA, LB }
type Duo = chorus_core::LocationSet!(LA, LB);

/// Voluntary context switches summed over the process's threads whose
/// name starts with the 15 bytes the kernel keeps of the acceptor's,
/// and how many such threads there are.
fn acceptor_switches() -> (u64, usize) {
    let (mut switches, mut acceptors) = (0, 0);
    let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten().flatten();
    for task in tasks {
        let is_acceptor = std::fs::read_to_string(task.path().join("comm"))
            .is_ok_and(|comm| comm.starts_with("chorus-tcp-acce"));
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else { continue };
        if !is_acceptor {
            continue;
        }
        acceptors += 1;
        switches += status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|count| count.trim().parse::<u64>().ok())
            .unwrap_or(0);
    }
    (switches, acceptors)
}

#[test]
fn an_idle_acceptor_does_not_poll() {
    if !std::path::Path::new("/proc/self/task").exists() {
        return; // not Linux
    }
    let addrs = free_local_addrs(2).expect("loopback addrs");
    let config = TcpConfigBuilder::new()
        .location(LA, addrs[0])
        .location(LB, addrs[1])
        .build::<Duo>()
        .expect("complete census");
    let la = TcpTransport::bind(LA, config.clone()).expect("bind LA");
    let lb = TcpTransport::bind(LB, config).expect("bind LB");
    // One link each way, so each acceptor has accepted a connection.
    la.send("LB", b"ping").expect("send LA->LB");
    assert_eq!(lb.receive("LA").expect("receive at LB"), b"ping");
    lb.send("LA", b"pong").expect("send LB->LA");
    assert_eq!(la.receive("LB").expect("receive at LA"), b"pong");

    let (before, acceptors) = acceptor_switches();
    assert_eq!(acceptors, 2, "one acceptor per endpoint");
    std::thread::sleep(Duration::from_millis(500));
    let (after, _) = acceptor_switches();
    let woke = after - before;
    assert!(woke <= 5, "two idle acceptors woke {woke} times in 500ms");
}
