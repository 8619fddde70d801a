//! A TCP endpoint runs a fixed set of threads whatever its traffic: an
//! acceptor and a supervisor from `bind`, then one reader per
//! connection, and two endpoints share one connection both ways. Sends
//! write on the sending threads, so more frames never add a thread:
//! inline on the caller's, on another sender's if that one is
//! mid-write, or on a pool worker's at the end of its pass. Each role is
//! counted by its thread name as well as in the total. One test in a
//! file of its own, so that no test running in parallel moves the
//! process's thread count (like `role_threads.rs`).

use chorus_core::{SessionTransport as _, Transport as _};
use chorus_transport::{free_local_addrs, TcpConfigBuilder, TcpTransport};
use chorus_wire::Envelope;
use std::time::{Duration, Instant};

chorus_core::locations! { LA, LB }
type Duo = chorus_core::LocationSet!(LA, LB);

/// The process's thread count, from `/proc/self/status` (Linux only).
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| line.strip_prefix("Threads:"))?.trim().parse().ok()
}

/// An endpoint's thread roles, by the 15 bytes of a thread's name the
/// kernel keeps: acceptor, supervisor, reader.
const ROLES: [&str; 3] = ["chorus-tcp-acce", "chorus-tcp-supe", "chorus-tcp-read"];

/// How many of the process's threads run each of [`ROLES`], from
/// `/proc/self/task/*/comm`.
fn roles() -> [usize; 3] {
    let mut counts = [0; 3];
    let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten().flatten();
    for comm in tasks.filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok()) {
        if let Some(role) = ROLES.iter().position(|prefix| comm.starts_with(prefix)) {
            counts[role] += 1;
        }
    }
    counts
}

/// What `read` returns once it returns `want`, or after a few seconds:
/// a new thread names itself only once it runs, and a thread that has
/// seen its endpoint stop can still be counted for a moment.
fn settled<T: PartialEq>(want: T, read: impl Fn() -> T) -> T {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let got = read();
        if got == want || Instant::now() > deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Two endpoints linked both ways over one connection: every role on
/// both.
const LINKED: [usize; 3] = [2, 2, 2];

#[test]
fn a_tcp_endpoint_runs_three_threads_whatever_its_traffic() {
    let Some(baseline) = threads() else {
        return; // no /proc: not Linux
    };
    let addrs = free_local_addrs(2).expect("loopback addrs");
    let config = TcpConfigBuilder::new()
        .location(LA, addrs[0])
        .location(LB, addrs[1])
        .build::<Duo>()
        .expect("complete census");
    let la = TcpTransport::bind(LA, config.clone()).expect("bind LA");
    let lb = TcpTransport::bind(LB, config).expect("bind LB");
    assert_eq!(threads(), Some(baseline + 4), "an acceptor and a supervisor per endpoint");
    assert_eq!(settled([2, 2, 0], roles), [2, 2, 0], "acceptor, supervisor, reader");

    la.send("LB", b"ping").expect("send LA->LB");
    assert_eq!(lb.receive("LA").expect("receive at LB"), b"ping");
    lb.send("LA", b"pong").expect("send LB->LA");
    assert_eq!(la.receive("LB").expect("receive at LA"), b"pong");
    let linked = baseline + 6;
    assert_eq!(threads(), Some(linked), "each endpoint adds one reader, for the one connection");
    assert_eq!(settled(LINKED, roles), LINKED, "acceptor, supervisor, reader");

    for seq in 0..200 {
        la.send_frame("LB", Envelope::new(1, seq, vec![0xC3; 32])).expect("session send");
    }
    for seq in 0..200 {
        assert_eq!(lb.receive_frame(1, "LA").expect("session receive").seq, seq);
    }
    assert_eq!(threads(), Some(linked), "more frames add no thread");
    assert_eq!(roles(), LINKED, "acceptor, supervisor, reader");

    drop(la);
    drop(lb);
    assert_eq!(settled(Some(baseline), threads), Some(baseline), "drop stops every link thread");
    assert_eq!(roles(), [0; 3]);
}
