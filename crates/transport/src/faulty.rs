//! A seeded fault injector for *real* TCP sockets.
//!
//! The simulated transport's `FaultPlan` stresses delivery schedules;
//! this module stresses the operating system's actual byte streams. A
//! [`FaultyTcp`] sits between a connecting endpoint and its peer as a
//! per-edge loopback proxy and, on a seed-derived schedule, kills
//! established connections mid-stream, delays accepts, and blackholes
//! one direction (relaying nothing while keeping the socket open — the
//! half-dead link a failing middlebox or dying NAT produces).
//!
//! Determinism: every decision for connection `k` of an edge derives
//! from `(plan.seed, edge label, k)` alone, so a failing chaos seed
//! replays exactly. Faults are drawn from a pattern that leaves a
//! bounded prefix of each edge's connections faulty and everything
//! after it clean, so a resilient link always eventually gets a
//! connection that lives — sessions finish under chaos rather than
//! merely surviving it.
//!
//! The proxy is transparent to the transport under test: the
//! `TcpTransport` connects to the proxy's address believing it is the
//! peer, and the peer sees an ordinary inbound connection. No transport
//! code paths are test-only.

use chorus_core::sync::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// After this many connections on one edge, the proxy stops injecting
/// faults: the edge is guaranteed clean connections from then on.
const CLEAN_AFTER: u64 = 5;

/// The seed-derived shape of the chaos a [`FaultyTcp`] injects,
/// mirroring `FaultPlan`'s chaos constructor for the simulated
/// transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultyPlan {
    /// Root seed; every per-connection decision derives from it.
    pub seed: u64,
    /// A killed connection dies after relaying between this many bytes…
    pub kill_after_lo: u64,
    /// …and this many (inclusive range sampled per connection).
    pub kill_after_hi: u64,
    /// Maximum artificial delay before an accepted connection is
    /// bridged to the upstream peer (must stay below the link layer's
    /// minimum handshake timeout of 500ms, or connects never succeed).
    pub accept_delay_ms: u64,
    /// Probability that a faulty connection blackholes one direction
    /// instead of dying outright.
    pub blackhole: f64,
    /// How long a blackholed direction stays silent before the proxy
    /// kills the connection (silently resuming the relay would splice
    /// the frame stream and is never done).
    pub blackhole_ttl_ms: u64,
}

impl FaultyPlan {
    /// Derives a chaos plan from a seed, the same way
    /// [`crate::FaultPlan::chaos`] seeds the simulated network.
    pub fn chaos(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED);
        // Low enough that even a terse protocol (a single request /
        // response pair per edge) gets its connection cut mid-stream —
        // the handshake plus resume cursor is ~24 bytes, so triggers
        // land between the first data frames; high enough that chatty
        // protocols also see kills deep into their streams.
        let kill_after_lo = 48 + rng.gen_range(0u64..64);
        FaultyPlan {
            seed,
            kill_after_lo,
            kill_after_hi: kill_after_lo + 32 + rng.gen_range(0u64..2048),
            accept_delay_ms: rng.gen_range(0u64..120),
            blackhole: rng.gen_range(0u64..40) as f64 / 100.0,
            blackhole_ttl_ms: 150 + rng.gen_range(0u64..250),
        }
    }
}

/// What the schedule decided for one accepted connection.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Relay faithfully forever.
    Clean,
    /// Relay until `after` bytes (both directions combined) have
    /// crossed, then hard-kill both legs.
    Kill { after: u64 },
    /// Relay until `after` bytes, then silently discard one direction
    /// (`to_upstream` chooses which) for `ttl`, then kill.
    Blackhole { after: u64, to_upstream: bool, ttl: Duration },
}

/// FNV-1a over the root seed, the edge label, and the connection index:
/// the per-connection decision seed.
fn connection_seed(seed: u64, edge: &str, k: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for byte in edge.bytes().chain(k.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn schedule(plan: &FaultyPlan, edge: &str, k: u64) -> (Fault, Duration) {
    let mut rng = StdRng::seed_from_u64(connection_seed(plan.seed, edge, k));
    let delay = Duration::from_millis(rng.gen_range(0..=plan.accept_delay_ms.max(1)));
    if k >= CLEAN_AFTER {
        return (Fault::Clean, Duration::ZERO);
    }
    // Fault-count pattern {0,1,1,1}: 3 in 4 of the early connections
    // are faulty; the occasional clean one keeps kill-timing diverse.
    if rng.gen_range(0u64..4) == 0 {
        return (Fault::Clean, delay);
    }
    let after = rng.gen_range(plan.kill_after_lo..=plan.kill_after_hi.max(plan.kill_after_lo));
    let fault = if rng.gen_bool(plan.blackhole) {
        Fault::Blackhole {
            after,
            to_upstream: rng.gen_bool(0.5),
            ttl: Duration::from_millis(plan.blackhole_ttl_ms),
        }
    } else {
        Fault::Kill { after }
    };
    (fault, delay)
}

/// Shared by the two pump threads of one proxied connection.
struct Conn {
    /// Bytes relayed so far, both directions combined — the fault
    /// trigger odometer.
    relayed: AtomicU64,
    /// Set once either leg dies or a fault fires; both pumps exit.
    dead: AtomicBool,
}

/// A per-edge TCP fault-injecting proxy.
///
/// [`route`](FaultyTcp::route) allocates a loopback listener per
/// directed edge; point the *connecting* side's `TcpConfig` at the
/// returned address and the proxy forwards to the real peer, applying
/// the seeded fault schedule connection by connection.
pub struct FaultyTcp {
    plan: FaultyPlan,
    stop: Arc<AtomicBool>,
    /// Human-readable schedule log for failing-seed artifacts.
    log: Arc<Mutex<Vec<String>>>,
}

impl FaultyTcp {
    /// Creates an injector applying `plan`.
    pub fn new(plan: FaultyPlan) -> Self {
        FaultyTcp {
            plan,
            stop: Arc::new(AtomicBool::new(false)),
            log: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Starts a proxy for one directed edge and returns its address.
    ///
    /// Every connection accepted there is bridged to `upstream` under
    /// the fault schedule derived from `(plan.seed, edge)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the loopback listener cannot bind.
    pub fn route(&self, edge: &str, upstream: SocketAddr) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let plan = self.plan;
        let edge = edge.to_string();
        let stop = Arc::clone(&self.stop);
        let log = Arc::clone(&self.log);
        std::thread::Builder::new().name(format!("faulty-tcp-{edge}")).spawn(move || {
            let mut k = 0u64;
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((downstream, _)) => {
                        let (fault, delay) = schedule(&plan, &edge, k);
                        log.lock().push(format!(
                            "{edge} conn#{k}: {fault:?}, accept_delay={}ms",
                            delay.as_millis()
                        ));
                        k += 1;
                        let stop = Arc::clone(&stop);
                        std::thread::spawn(move || {
                            bridge(downstream, upstream, fault, delay, stop);
                        });
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => {
                        // A transient accept failure (e.g. a reset in
                        // the backlog) must not silently close this
                        // edge's proxy for the rest of the run.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            }
        })?;
        Ok(addr)
    }

    /// The schedule every proxied connection actually ran, one line per
    /// connection, prefixed with replay instructions — the artifact to
    /// dump when a chaos seed fails.
    pub fn scenario_dump(&self) -> String {
        let lines = self.log.lock();
        let mut out = format!(
            "# FaultyTcp scenario (seed {})\n# replay: rerun the failing test with \
             CHORUS_TCP_SEED_BASE pinned so this seed recurs\n# plan: {:?}\n",
            self.plan.seed, self.plan
        );
        for line in lines.iter() {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Total connections accepted across every routed edge.
    pub fn connection_count(&self) -> usize {
        self.log.lock().len()
    }

    /// Distinct edges that accepted at least one connection.
    pub fn edge_count(&self) -> usize {
        let lines = self.log.lock();
        let mut edges: Vec<&str> = lines.iter().filter_map(|l| l.split(" conn#").next()).collect();
        edges.sort_unstable();
        edges.dedup();
        edges.len()
    }

    /// Stops accepting new connections on every routed edge. Existing
    /// bridges die with their sockets.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

impl Drop for FaultyTcp {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bridges one accepted connection to the upstream peer under `fault`.
fn bridge(
    downstream: TcpStream,
    upstream: SocketAddr,
    fault: Fault,
    delay: Duration,
    stop: Arc<AtomicBool>,
) {
    if !delay.is_zero() {
        std::thread::sleep(delay);
    }
    let Ok(up) = TcpStream::connect_timeout(&upstream, Duration::from_secs(1)) else {
        let _ = downstream.shutdown(std::net::Shutdown::Both);
        return;
    };
    downstream.set_nodelay(true).ok();
    up.set_nodelay(true).ok();
    let conn = Arc::new(Conn { relayed: AtomicU64::new(0), dead: AtomicBool::new(false) });
    let (down_r, down_w) = match (downstream.try_clone(), downstream) {
        (Ok(r), w) => (r, w),
        (Err(_), w) => {
            let _ = w.shutdown(std::net::Shutdown::Both);
            return;
        }
    };
    let (up_r, up_w) = match (up.try_clone(), up) {
        (Ok(r), w) => (r, w),
        (Err(_), w) => {
            let _ = w.shutdown(std::net::Shutdown::Both);
            let _ = down_w.shutdown(std::net::Shutdown::Both);
            return;
        }
    };
    let c2s = {
        let conn = Arc::clone(&conn);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || pump(down_r, up_w, fault, true, conn, stop))
    };
    pump(up_r, down_w, fault, false, conn, stop);
    let _ = c2s.join();
}

/// Copies one direction of a bridged connection, byte-counting against
/// the fault odometer. `to_upstream` is true on the downstream→upstream
/// leg.
fn pump(
    mut from: TcpStream,
    to: TcpStream,
    fault: Fault,
    to_upstream: bool,
    conn: Arc<Conn>,
    stop: Arc<AtomicBool>,
) {
    from.set_read_timeout(Some(Duration::from_millis(25))).ok();
    let mut to = to;
    let mut buf = [0u8; 4096];
    // While blackholed: the instant silence began (bytes are read and
    // discarded so the sender never blocks on a full kernel buffer —
    // exactly what a half-dead link looks like from the outside).
    let mut silent_since: Option<Instant> = None;
    loop {
        if stop.load(Ordering::Relaxed) || conn.dead.load(Ordering::Relaxed) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if let (Some(since), Fault::Blackhole { ttl, .. }) = (silent_since, fault) {
                    if since.elapsed() >= ttl {
                        conn.dead.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                continue;
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let total = conn.relayed.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
        match fault {
            Fault::Clean => {}
            Fault::Kill { after } => {
                if total >= after {
                    // Relay the tail up to the trigger so the cut lands
                    // mid-stream, then die.
                    let _ = to.write_all(&buf[..n]);
                    conn.dead.store(true, Ordering::Relaxed);
                    break;
                }
            }
            Fault::Blackhole { after, to_upstream: hole_dir, ttl } => {
                if total >= after && hole_dir == to_upstream {
                    // Discard: the direction goes dark but the socket
                    // stays open, until the ttl elapses.
                    let since = *silent_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= ttl {
                        conn.dead.store(true, Ordering::Relaxed);
                        break;
                    }
                    continue;
                }
            }
        }
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    conn.dead.store(true, Ordering::Relaxed);
    let _ = from.shutdown(std::net::Shutdown::Both);
    let _ = to.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        assert_eq!(FaultyPlan::chaos(7), FaultyPlan::chaos(7));
        assert_ne!(FaultyPlan::chaos(7), FaultyPlan::chaos(8));
    }

    #[test]
    fn schedules_are_deterministic_and_eventually_clean() {
        let plan = FaultyPlan::chaos(3);
        for k in 0..CLEAN_AFTER + 4 {
            let (a, da) = schedule(&plan, "Alice->Bob", k);
            let (b, db) = schedule(&plan, "Alice->Bob", k);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_eq!(da, db);
            if k >= CLEAN_AFTER {
                assert!(matches!(a, Fault::Clean), "conn#{k} must be clean, got {a:?}");
            }
        }
        // Distinct edges draw distinct schedules (overwhelmingly).
        let ab: Vec<String> =
            (0..CLEAN_AFTER).map(|k| format!("{:?}", schedule(&plan, "Alice->Bob", k).0)).collect();
        let ba: Vec<String> =
            (0..CLEAN_AFTER).map(|k| format!("{:?}", schedule(&plan, "Bob->Alice", k).0)).collect();
        assert_ne!(ab, ba);
    }

    #[test]
    fn clean_connections_relay_faithfully() {
        // An upstream echo server; a clean proxied connection must be
        // byte-transparent in both directions.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 5];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
        });
        // A plan whose schedule cannot fire: no faults once past the
        // pattern (use a huge kill threshold and no blackholes).
        let plan = FaultyPlan {
            seed: 1,
            kill_after_lo: u64::MAX / 2,
            kill_after_hi: u64::MAX / 2,
            accept_delay_ms: 1,
            blackhole: 0.0,
            blackhole_ttl_ms: 100,
        };
        let proxy = FaultyTcp::new(plan);
        let addr = proxy.route("echo", upstream_addr).unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"hello").unwrap();
        let mut back = [0u8; 5];
        client.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"hello");
        assert!(proxy.scenario_dump().contains("echo conn#0"));
    }

    #[test]
    fn kill_faults_sever_the_connection() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut sink = Vec::new();
            let _ = s.read_to_end(&mut sink);
        });
        let plan = FaultyPlan {
            seed: 2,
            kill_after_lo: 16,
            kill_after_hi: 16,
            accept_delay_ms: 1,
            blackhole: 0.0,
            blackhole_ttl_ms: 100,
        };
        let proxy = FaultyTcp::new(plan);
        // Find a connection index whose schedule is a kill; with the
        // {0,1,1,1} pattern one exists in the faulty prefix for any seed.
        assert!(
            (0..CLEAN_AFTER).any(|k| matches!(schedule(&plan, "sink", k).0, Fault::Kill { .. })),
            "seed 2 must schedule at least one kill"
        );
        let addr = proxy.route("sink", upstream_addr).unwrap();
        let mut died = false;
        for _ in 0..CLEAN_AFTER {
            let Ok(mut client) = TcpStream::connect(addr) else { continue };
            client.set_read_timeout(Some(Duration::from_millis(50))).ok();
            let mut wrote = 0usize;
            for _ in 0..64 {
                match client.write_all(&[0u8; 8]).and_then(|()| client.flush()) {
                    Ok(()) => wrote += 8,
                    Err(_) => break,
                }
                // A severed proxy leg eventually surfaces as EOF/reset
                // on read or a write error.
                let mut probe = [0u8; 1];
                match client.read(&mut probe) {
                    Ok(0) => break,
                    Err(ref e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    _ => break,
                }
            }
            if wrote < 64 * 8 {
                died = true;
                break;
            }
        }
        assert!(died, "a kill-scheduled connection never died");
    }
}
