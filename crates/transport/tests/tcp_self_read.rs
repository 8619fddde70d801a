//! A blocking receive over TCP reads its frame off the socket on its own
//! thread: the connection's reader thread steps aside while blocking
//! receives keep taking the read role, so a request/response exchange
//! wakes no reader thread per frame. Counted through the voluntary
//! context switches (a thread blocking) that `/proc/self/task/*/status`
//! reports for the `chorus-tcp-read` threads (Linux only): a reader that
//! handed each frame across would block in `read` once per frame per
//! side, about two per round trip. One test in a file of its own, so
//! that no test running in parallel adds readers or wakes these (like
//! `role_parks.rs`).

use chorus_core::SessionTransport as _;
use chorus_transport::{free_local_addrs, TcpConfigBuilder, TcpTransport};
use chorus_wire::Envelope;

chorus_core::locations! { LA, LB }
type Duo = chorus_core::LocationSet!(LA, LB);

/// Voluntary context switches summed over the process's reader
/// threads, and how many there are.
fn reader_switches() -> (u64, usize) {
    let (mut switches, mut readers) = (0, 0);
    let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten().flatten();
    for task in tasks {
        let is_reader = std::fs::read_to_string(task.path().join("comm"))
            .is_ok_and(|comm| comm.starts_with("chorus-tcp-read"));
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else { continue };
        if !is_reader {
            continue;
        }
        readers += 1;
        switches += status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|count| count.trim().parse::<u64>().ok())
            .unwrap_or(0);
    }
    (switches, readers)
}

const WARM_UP: u64 = 200;
const ROUNDS: u64 = 2_000;

#[test]
fn blocking_round_trips_do_not_wake_the_reader_threads() {
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
    let payload = vec![0xC3u8; 32];

    std::thread::scope(|scope| {
        scope.spawn(|| {
            for seq in 0..WARM_UP + ROUNDS {
                let frame = lb.receive_frame(1, "LA").expect("echo receive");
                assert_eq!(frame.seq, seq);
                lb.send_frame("LA", Envelope::new(1, seq, frame.payload)).expect("echo send");
            }
        });
        let round_trip = |seq| {
            la.send_frame("LB", Envelope::new(1, seq, payload.clone())).expect("ping send");
            assert_eq!(la.receive_frame(1, "LB").expect("ping receive").seq, seq);
        };
        (0..WARM_UP).for_each(round_trip);
        let (before, readers) = reader_switches();
        assert_eq!(readers, 2, "one connection, one reader on each end");
        (WARM_UP..WARM_UP + ROUNDS).for_each(round_trip);
        let (after, _) = reader_switches();
        let per_round_trip = (after - before) as f64 / ROUNDS as f64;
        println!(
            "{ROUNDS} round trips: {} voluntary switches on the reader threads",
            after - before
        );
        assert!(
            per_round_trip < 0.05,
            "{ROUNDS} blocking round trips switched the reader threads {} times \
             ({per_round_trip:.3} per round trip; the bar is under 0.05)",
            after - before
        );
    });
}
