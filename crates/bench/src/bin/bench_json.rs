//! Bench-trajectory emitter: runs the headline microbenchmarks with a
//! simple calibrated wall-clock loop and writes `BENCH_results.json`
//! (bench name → ns/iter + per-iteration message/byte counts), so the
//! perf trajectory of the wire path is recorded per PR and diffable in
//! CI.
//!
//! Run with: `cargo run --release -p chorus-bench --bin bench_json`
//!
//! Flags:
//! * `--quick`  — 1 warm-up + short measurement; the CI smoke mode that
//!   keeps the bins from rotting without burning minutes.
//! * `--sim`    — also run the simulated-network benches, reporting
//!   wall time *and* virtual-time throughput (messages per virtual
//!   tick) under a seeded hostile schedule.
//! * `--out <path>` — where to write the JSON (default
//!   `BENCH_results.json` in the current directory).

use chorus_core::{Endpoint, RoleProgram, Runner, SessionCx, SessionRuntime, Step, TransportError};
use chorus_kvs::cluster::SimCluster;
use chorus_protocols::kvs_simple::{PooledKvsClient, PooledKvsServer, SimpleKvs, SimpleKvsCensus};
use chorus_protocols::roles::{Client, Primary};
use chorus_protocols::store::{Request, Response, SharedStore};
use chorus_transport::{
    FaultPlan, LocalTransport, LocalTransportChannel, SimNet, SimTransport, TransportMetrics,
};
use chorus_wire::{Bytes, BytesMut, Envelope};
use std::hint::black_box;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One emitted measurement.
struct BenchResult {
    name: &'static str,
    ns_per_iter: u128,
    iters: u64,
    /// Messages one iteration puts on the wire (0 for in-memory-only
    /// benches).
    messages: u64,
    /// Payload bytes one iteration puts on the wire.
    bytes: u64,
    /// Simulated-network benches only: total frames delivered and the
    /// final virtual tick, for a wall-clock-free throughput figure.
    sim: Option<(u64, u64)>,
}

/// Times `f` over a warm-up plus a budgeted measurement loop.
fn measure<F: FnMut()>(quick: bool, mut f: F) -> (u128, u64) {
    let (warmup, budget, min_iters) = if quick {
        (1u32, Duration::from_millis(30), 3u64)
    } else {
        (10, Duration::from_millis(500), 30)
    };
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    let deadline = start + budget;
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        if (iters >= min_iters && Instant::now() >= deadline) || iters >= 1_000_000 {
            break;
        }
    }
    (start.elapsed().as_nanos() / iters as u128, iters)
}

/// One kvs get over the session shape with a metrics layer, to count
/// the per-iteration wire traffic.
fn count_kvs_traffic() -> (u64, u64) {
    let channel = LocalTransportChannel::<SimpleKvsCensus>::new();
    let metrics = Arc::new(TransportMetrics::new());
    let ch = channel.clone();
    let m = Arc::clone(&metrics);
    let server = std::thread::spawn(move || {
        let endpoint =
            Endpoint::builder(Primary).transport(LocalTransport::new(Primary, ch)).layer(m).build();
        let session = endpoint.session_with_id(0);
        let store = SharedStore::new();
        store.put("k", "v");
        session.epp_and_run(SimpleKvs {
            request: session.remote(Client),
            state: session.local(store),
        });
    });
    let endpoint = Endpoint::builder(Client)
        .transport(LocalTransport::new(Client, channel))
        .layer(Arc::clone(&metrics))
        .build();
    let session = endpoint.session_with_id(0);
    let out = session.epp_and_run(SimpleKvs {
        request: session.local(Request::Get("k".into())),
        state: session.remote(Primary),
    });
    server.join().unwrap();
    assert_eq!(session.unwrap(out), Response::Found("v".into()));
    (metrics.total_messages(), metrics.total_bytes())
}

/// The headline number: one long-lived endpoint pair, one session per
/// run (mirrors `benches/kvs_simple.rs` `get_round_trip_shared_endpoint`).
fn bench_shared_endpoint(quick: bool) -> BenchResult {
    let (messages, bytes) = count_kvs_traffic();
    let channel = LocalTransportChannel::<SimpleKvsCensus>::new();
    let (id_tx, id_rx) = std::sync::mpsc::channel::<u64>();
    let ch = channel.clone();
    let server = std::thread::spawn(move || {
        let endpoint = Endpoint::new(LocalTransport::new(Primary, ch));
        let store = SharedStore::new();
        store.put("k", "v");
        for id in id_rx {
            let session = endpoint.session_with_id(id);
            session.epp_and_run(SimpleKvs {
                request: session.remote(Client),
                state: session.local(store.clone()),
            });
        }
    });
    let endpoint = Endpoint::new(LocalTransport::new(Client, channel));
    let mut next_id = 0u64;
    let (ns_per_iter, iters) = measure(quick, || {
        let id = next_id;
        next_id += 1;
        id_tx.send(id).expect("server thread alive");
        let session = endpoint.session_with_id(id);
        let out = session.epp_and_run(SimpleKvs {
            request: session.local(Request::Get("k".into())),
            state: session.remote(Primary),
        });
        assert_eq!(session.unwrap(out), Response::Found("v".into()));
    });
    drop(id_tx);
    server.join().unwrap();
    BenchResult {
        name: "kvs_simple/get_round_trip_shared_endpoint",
        ns_per_iter,
        iters,
        messages,
        bytes,
        sim: None,
    }
}

/// The legacy shape: fresh fabric, endpoints, and server thread per run.
fn bench_fresh_endpoint(quick: bool) -> BenchResult {
    let (messages, bytes) = count_kvs_traffic();
    let (ns_per_iter, iters) = measure(quick, || {
        let channel = LocalTransportChannel::<SimpleKvsCensus>::new();
        let ch = channel.clone();
        let server = std::thread::spawn(move || {
            let endpoint = Endpoint::new(LocalTransport::new(Primary, ch));
            let session = endpoint.session();
            let store = SharedStore::new();
            store.put("k", "v");
            session.epp_and_run(SimpleKvs {
                request: session.remote(Client),
                state: session.local(store),
            });
        });
        let endpoint = Endpoint::new(LocalTransport::new(Client, channel));
        let session = endpoint.session();
        let out = session.epp_and_run(SimpleKvs {
            request: session.local(Request::Get("k".into())),
            state: session.remote(Primary),
        });
        server.join().unwrap();
        assert_eq!(session.unwrap(out), Response::Found("v".into()));
    });
    BenchResult {
        name: "kvs_simple/get_round_trip_fresh_endpoint",
        ns_per_iter,
        iters,
        messages,
        bytes,
        sim: None,
    }
}

/// Centralized (no transport) baseline.
fn bench_centralized(quick: bool) -> BenchResult {
    let runner: Runner<SimpleKvsCensus> = Runner::new();
    let store = SharedStore::new();
    store.put("k", "v");
    let (ns_per_iter, iters) = measure(quick, || {
        let out = runner.run(SimpleKvs {
            request: runner.local(Request::Get("k".into())),
            state: runner.local(store.clone()),
        });
        black_box(runner.unwrap_located(out));
    });
    BenchResult {
        name: "kvs_simple/centralized_get",
        ns_per_iter,
        iters,
        messages: 0,
        bytes: 0,
        sim: None,
    }
}

/// Encode-once fan-out: one multicast of a 1 KiB value from A to three
/// peers over one fabric, all endpoints on this thread (receives are
/// drained inside the iteration so mailboxes stay bounded).
fn bench_multicast_fanout(quick: bool) -> BenchResult {
    chorus_core::locations! { A, B, C, D }
    type Census = chorus_core::LocationSet!(A, B, C, D);

    let channel = LocalTransportChannel::<Census>::new();
    let a = Endpoint::new(LocalTransport::new(A, channel.clone()));
    let b = Endpoint::new(LocalTransport::new(B, channel.clone()));
    let c = Endpoint::new(LocalTransport::new(C, channel.clone()));
    let d = Endpoint::new(LocalTransport::new(D, channel));
    let sa = a.session_with_id(1);
    let sb = b.session_with_id(1);
    let sc = c.session_with_id(1);
    let sd = d.session_with_id(1);
    let value = "x".repeat(1024);
    let payload_len = chorus_wire::to_bytes(&value).unwrap().len() as u64;
    let (ns_per_iter, iters) = measure(quick, || {
        sa.multicast_value(["B", "C", "D"], &value).unwrap();
        black_box(sb.receive_payload("A").unwrap());
        black_box(sc.receive_payload("A").unwrap());
        black_box(sd.receive_payload("A").unwrap());
    });
    BenchResult {
        name: "fanout/multicast_1k_to_3",
        ns_per_iter,
        iters,
        messages: 3,
        bytes: 3 * payload_len,
        sim: None,
    }
}

/// Frame codec micro: encode into a reused buffer and decode by
/// slicing shared storage, for a 1 KiB payload.
fn bench_envelope_codec(quick: bool) -> BenchResult {
    let payload = Bytes::copy_from_slice(&vec![0xA5u8; 1024]);
    let envelope = Envelope::new(7, 42, payload);
    let frame = Bytes::from(envelope.encode());
    let mut buf = BytesMut::with_capacity(envelope.encoded_len());
    let (ns_per_iter, iters) = measure(quick, || {
        buf.clear();
        envelope.encode_into(&mut buf);
        black_box(buf.len());
        black_box(Envelope::decode_shared(&frame).unwrap());
    });
    BenchResult {
        name: "wire/envelope_encode_into_plus_decode_shared_1k",
        ns_per_iter,
        iters,
        messages: 1,
        bytes: 1024,
        sim: None,
    }
}

/// Simulated-network mode: the kvs round trip over [`SimTransport`]
/// under a seeded hostile schedule (jitter, drops with retransmission,
/// duplicates). Wall time measures simulator overhead; the virtual
/// figure — messages per virtual tick — measures protocol efficiency
/// against the modeled network, independent of the host's clock, so it
/// is comparable across machines and CI runners.
fn bench_sim_chaos_kvs(quick: bool) -> BenchResult {
    let (messages, bytes) = count_kvs_traffic();
    let plan = FaultPlan::ideal().with_seed(7).with_jitter(8).with_drop(0.15).with_duplicate(0.1);
    let net = SimNet::<SimpleKvsCensus>::new(plan);
    let (id_tx, id_rx) = std::sync::mpsc::channel::<u64>();
    let server_net = net.clone();
    let server = std::thread::spawn(move || {
        let endpoint = Endpoint::new(SimTransport::new(Primary, server_net));
        let store = SharedStore::new();
        store.put("k", "v");
        for id in id_rx {
            let session = endpoint.session_with_id(id);
            session.epp_and_run(SimpleKvs {
                request: session.remote(Client),
                state: session.local(store.clone()),
            });
        }
    });
    let endpoint = Endpoint::new(SimTransport::new(Client, net.clone()));
    let mut next_id = 0u64;
    let (ns_per_iter, iters) = measure(quick, || {
        let id = next_id;
        next_id += 1;
        id_tx.send(id).expect("server thread alive");
        let session = endpoint.session_with_id(id);
        let out = session.epp_and_run(SimpleKvs {
            request: session.local(Request::Get("k".into())),
            state: session.remote(Primary),
        });
        assert_eq!(session.unwrap(out), Response::Found("v".into()));
    });
    drop(id_tx);
    server.join().unwrap();
    BenchResult {
        name: "sim/kvs_simple_chaos_round_trip",
        ns_per_iter,
        iters,
        messages,
        bytes,
        sim: Some((net.messages_received(), net.virtual_now())),
    }
}

/// The hardened-vs-plain overhead record for the `patterns` section:
/// one full distributed DPrio lottery (3 clients, 3 servers, analyst,
/// all honest) per iteration, plain and then hardened with the
/// Byzantine-robust building blocks (preflight heartbeat, commit-reveal
/// verdict exchange) layered on.
struct PatternsResult {
    plain_ns: u128,
    plain_iters: u64,
    plain_messages: u64,
    hardened_ns: u128,
    hardened_iters: u64,
    hardened_messages: u64,
}

impl PatternsResult {
    /// The pinned headline: wall-clock cost of the hardening, as a
    /// ratio over the plain protocol on the same census and fabric.
    fn ratio(&self) -> f64 {
        self.hardened_ns as f64 / self.plain_ns.max(1) as f64
    }
}

/// One full distributed run of the hardened lottery (3 clients, 3
/// servers, analyst, all honest) over an in-process fabric, one thread
/// per participant; returns whether the analyst reconstructed a client
/// secret plus the total frames on the wire.
fn run_hardened_lottery_once(epoch: u64) -> (bool, u64) {
    use chorus_core::{ChoreographyLocation as _, LocationSet as _};
    use chorus_mpc::field::FLOTTERY;
    use chorus_protocols::hardened::HardenedLottery;
    use chorus_protocols::roles::{Analyst, C1, C2, C3, S1, S2, S3};
    use chorus_transport::{LocalTransport, LocalTransportChannel};
    use std::marker::PhantomData;

    type Clients = chorus_core::LocationSet!(C1, C2, C3);
    type Servers = chorus_core::LocationSet!(S1, S2, S3);
    type Census = chorus_core::LocationSet!(Analyst, C1, C2, C3, S1, S2, S3);

    let channel = LocalTransportChannel::<Census>::new();
    let metrics = Arc::new(TransportMetrics::new());
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();

    macro_rules! node {
        ($role:ty, $secrets:expr, $cheaters:expr) => {{
            let c = channel.clone();
            let m = Arc::clone(&metrics);
            handles.push(std::thread::spawn(move || {
                let endpoint = Endpoint::builder(<$role>::new())
                    .transport(LocalTransport::new(<$role>::new(), c))
                    .layer(m)
                    .build();
                let session = endpoint.session();
                let _ = session.epp_and_run(HardenedLottery::<
                    Clients,
                    Servers,
                    Census,
                    _,
                    _,
                    _,
                    _,
                    _,
                    _,
                    _,
                > {
                    secrets: &$secrets(&session),
                    tau: 300,
                    epoch,
                    cheaters: &$cheaters(&session),
                    phantom: PhantomData,
                });
            }));
        }};
    }
    macro_rules! client {
        ($role:ty, $secret:expr) => {
            node!(
                $role,
                |s: &chorus_core::Session<_, $role, _>| s.local_faceted(FLOTTERY::new($secret)),
                |s: &chorus_core::Session<_, $role, _>| s.remote_faceted(Servers::new())
            )
        };
    }
    macro_rules! server {
        ($role:ty) => {
            node!(
                $role,
                |s: &chorus_core::Session<_, $role, _>| s.remote_faceted(Clients::new()),
                |s: &chorus_core::Session<_, $role, _>| s.local_faceted(false)
            )
        };
    }

    client!(C1, 111);
    client!(C2, 222);
    client!(C3, 333);
    server!(S1);
    server!(S2);
    server!(S3);

    let analyst = {
        let c = channel.clone();
        let m = Arc::clone(&metrics);
        std::thread::spawn(move || {
            let endpoint = Endpoint::builder(Analyst)
                .transport(LocalTransport::new(Analyst, c))
                .layer(m)
                .build();
            let session = endpoint.session();
            let out = session.epp_and_run(HardenedLottery::<
                Clients,
                Servers,
                Census,
                _,
                _,
                _,
                _,
                _,
                _,
                _,
            > {
                secrets: &session.remote_faceted(Clients::new()),
                tau: 300,
                epoch,
                cheaters: &session.remote_faceted(Servers::new()),
                phantom: PhantomData,
            });
            session.unwrap(out)
        })
    };

    for h in handles {
        h.join().expect("hardened lottery endpoint");
    }
    let result = analyst.join().expect("analyst endpoint");
    (matches!(result, Ok(v) if [111, 222, 333].contains(&v)), metrics.total_messages())
}

/// Measures the hardened-vs-plain lottery overhead on identical
/// censuses and fabrics. Every iteration is a complete multi-threaded
/// system run, so the ratio prices the extra protocol rounds (and their
/// frames), not just local compute.
fn bench_patterns_lottery(quick: bool) -> PatternsResult {
    use chorus_protocols::roles::{C1, C2, C3, S1, S2, S3};
    let secrets = || -> std::collections::BTreeMap<String, u64> {
        [("C1", 111u64), ("C2", 222), ("C3", 333)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    };
    let honest = || -> std::collections::BTreeMap<String, bool> {
        ["S1", "S2", "S3"].into_iter().map(|s| (s.to_string(), false)).collect()
    };

    let run_plain = || {
        let (result, metrics) = chorus_bench::run_lottery!(
            clients = [C1, C2, C3],
            servers = [S1, S2, S3],
            secrets = secrets(),
            tau = 300,
            cheaters = honest()
        );
        assert!(matches!(result, Ok(v) if [111, 222, 333].contains(&v)));
        metrics.total_messages()
    };
    let run_hardened = |epoch: u64| {
        let (ok, messages) = run_hardened_lottery_once(epoch);
        assert!(ok, "honest hardened lottery must pay out a client secret");
        messages
    };

    let plain_messages = run_plain();
    let hardened_messages = run_hardened(0);
    let (plain_ns, plain_iters) = measure(quick, || {
        black_box(run_plain());
    });
    let mut epoch = 0u64;
    let (hardened_ns, hardened_iters) = measure(quick, || {
        epoch += 1;
        black_box(run_hardened(epoch));
    });
    PatternsResult {
        plain_ns,
        plain_iters,
        plain_messages,
        hardened_ns,
        hardened_iters,
        hardened_messages,
    }
}

/// One concurrency-scenario measurement: `n_sessions` complete KVS
/// round trips driven to completion, with per-session latency from
/// spawn to the client observing the response.
struct ConcurrencyResult {
    name: &'static str,
    n_sessions: u64,
    /// OS threads dedicated to session execution: the worker-pool size
    /// for the pooled runtime, `2 × n_sessions` for thread-per-role.
    pool_size: usize,
    host_cores: usize,
    elapsed_ms: f64,
    sessions_per_sec: f64,
    msgs_per_sec: f64,
    p50_us: u128,
    p99_us: u128,
}

/// Messages per KVS session: one request, one response.
const MSGS_PER_SESSION: u64 = 2;

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn percentile_us(sorted: &[Duration], p: f64) -> u128 {
    match sorted.len() {
        0 => 0,
        len => sorted[(((len - 1) as f64) * p).round() as usize].as_micros(),
    }
}

/// Wraps a role program to stamp elapsed-since-spawn when it resolves,
/// giving per-session completion latency without touching the handles.
struct Timed<P: RoleProgram> {
    inner: P,
    started: Instant,
    latency: Arc<OnceLock<Duration>>,
}

impl<P: RoleProgram> RoleProgram for Timed<P> {
    type Output = P::Output;

    fn resume(&mut self, cx: &mut SessionCx<'_>) -> Result<Step<Self::Output>, TransportError> {
        match self.inner.resume(cx)? {
            Step::Done(value) => {
                let _ = self.latency.set(self.started.elapsed());
                Ok(Step::Done(value))
            }
            Step::Pending => Ok(Step::Pending),
        }
    }
}

/// `n` concurrent KVS sessions (client and server roles both pooled) on
/// a worker pool sized to the host.
fn bench_pooled_sessions(n: u64) -> ConcurrencyResult {
    let pool = host_cores();
    let runtime = SessionRuntime::new(pool);
    let channel = LocalTransportChannel::<SimpleKvsCensus>::new();
    let client = Arc::new(Endpoint::new(LocalTransport::new(Client, channel.clone())));
    let server = Arc::new(Endpoint::new(LocalTransport::new(Primary, channel)));
    let store = SharedStore::new();
    store.put("k", "v");

    let mut latencies = Vec::with_capacity(n as usize);
    let mut servers = Vec::with_capacity(n as usize);
    let mut clients = Vec::with_capacity(n as usize);
    let start = Instant::now();
    for id in 0..n {
        let latency = Arc::new(OnceLock::new());
        latencies.push(Arc::clone(&latency));
        servers.push(runtime.spawn(&server, id, PooledKvsServer::new(store.clone())));
        let timed = Timed {
            inner: PooledKvsClient::new(Request::Get("k".into())),
            started: Instant::now(),
            latency,
        };
        clients.push(runtime.spawn(&client, id, timed));
    }
    for handle in clients {
        assert_eq!(handle.join().unwrap(), Response::Found("v".into()));
    }
    for handle in servers {
        handle.join().unwrap();
    }
    let elapsed = start.elapsed();

    let mut sorted: Vec<Duration> =
        latencies.iter().map(|slot| *slot.get().expect("client resolved")).collect();
    sorted.sort_unstable();
    let secs = elapsed.as_secs_f64().max(f64::EPSILON);
    ConcurrencyResult {
        name: "concurrency/pooled_kvs",
        n_sessions: n,
        pool_size: pool,
        host_cores: host_cores(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        sessions_per_sec: n as f64 / secs,
        msgs_per_sec: (n * MSGS_PER_SESSION) as f64 / secs,
        p50_us: percentile_us(&sorted, 0.50),
        p99_us: percentile_us(&sorted, 0.99),
    }
}

/// The pre-pool execution model at the same session count: one OS
/// thread per role (2n threads), each running the blocking
/// `Session::epp_and_run` path.
fn bench_thread_per_role_sessions(n: u64) -> ConcurrencyResult {
    let channel = LocalTransportChannel::<SimpleKvsCensus>::new();
    let client = Arc::new(Endpoint::new(LocalTransport::new(Client, channel.clone())));
    let server = Arc::new(Endpoint::new(LocalTransport::new(Primary, channel)));
    let store = SharedStore::new();
    store.put("k", "v");

    let latencies = Arc::new(Mutex::new(Vec::with_capacity(n as usize)));
    let mut threads = Vec::with_capacity(2 * n as usize);
    let start = Instant::now();
    for id in 0..n {
        let server = Arc::clone(&server);
        let store = store.clone();
        threads.push(std::thread::spawn(move || {
            let session = server.session_with_id(id);
            session.epp_and_run(SimpleKvs {
                request: session.remote(Client),
                state: session.local(store),
            });
        }));
        let client = Arc::clone(&client);
        let latencies = Arc::clone(&latencies);
        threads.push(std::thread::spawn(move || {
            let started = Instant::now();
            let session = client.session_with_id(id);
            let out = session.epp_and_run(SimpleKvs {
                request: session.local(Request::Get("k".into())),
                state: session.remote(Primary),
            });
            assert_eq!(session.unwrap(out), Response::Found("v".into()));
            latencies.lock().unwrap().push(started.elapsed());
        }));
    }
    for thread in threads {
        thread.join().unwrap();
    }
    let elapsed = start.elapsed();

    let mut sorted = std::mem::take(&mut *latencies.lock().unwrap());
    sorted.sort_unstable();
    let secs = elapsed.as_secs_f64().max(f64::EPSILON);
    ConcurrencyResult {
        name: "concurrency/thread_per_role_kvs",
        n_sessions: n,
        pool_size: 2 * n as usize,
        host_cores: host_cores(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        sessions_per_sec: n as f64 / secs,
        msgs_per_sec: (n * MSGS_PER_SESSION) as f64 / secs,
        p50_us: percentile_us(&sorted, 0.50),
        p99_us: percentile_us(&sorted, 0.99),
    }
}

/// The sharded-KVS live-reshard record: client op throughput in steady
/// state vs *during* a live shard split, plus the freeze window's cost.
/// The driver is sequential, so throughput is measured over the summed
/// wall time of the client operations themselves — migration work
/// (pre-copy chunks, final deltas, the commit round) runs interleaved
/// between them, and the claim under test is that it never imposes a
/// full-cluster stop-the-world on the data path.
struct KvsClusterResult {
    steady_ops_per_sec: f64,
    migrating_ops_per_sec: f64,
    after_ops_per_sec: f64,
    freeze_frames: u64,
    freeze_wall_ms: f64,
}

impl KvsClusterResult {
    /// How much slower an op is mid-reshard (1.0 = no slowdown).
    fn slowdown(&self) -> f64 {
        self.steady_ops_per_sec / self.migrating_ops_per_sec.max(1e-9)
    }
}

fn bench_kvs_cluster(quick: bool) -> KvsClusterResult {
    let per_round: u64 = if quick { 16 } else { 64 };
    let mut cluster = SimCluster::new(FaultPlan::ideal(), &["N1", "N2", "N3", "N4"], 4);
    cluster.set_chunk(16);
    for i in 0..per_round {
        cluster.put(&format!("key-{i}"), "seed").expect("seed put");
    }

    // Summed per-op wall time of one mixed round (the probe used for
    // both phases).
    let timed_round = |cluster: &mut SimCluster, tag: &str| -> (u64, Duration) {
        let mut ops = 0u64;
        let mut spent = Duration::ZERO;
        for i in 0..per_round {
            let key = format!("key-{i}");
            let t = Instant::now();
            cluster.put(&key, tag).expect("put commits");
            spent += t.elapsed();
            ops += 1;
            let t = Instant::now();
            black_box(cluster.get(&key).expect("get succeeds"));
            spent += t.elapsed();
            ops += 1;
        }
        (ops, spent)
    };

    // Steady state.
    let (steady_ops, steady_spent) = timed_round(&mut cluster, "steady");

    // During a live reshard: the same probe interleaved with the
    // pre-copy and finalized under the moving range's freeze. Pick the
    // first split that actually moves a replica (rendezvous can keep a
    // fresh shard on its parent's set); fall back to an explicit
    // migration, which always moves one.
    let split = cluster
        .config()
        .shards
        .iter()
        .map(|s| s.id)
        .map(|id| cluster.config().with_split(id))
        .map(|next| {
            let transfers = cluster.plan_transfers(&next);
            (next, transfers)
        })
        .find(|(_, transfers)| !transfers.is_empty());
    let (next, transfers) = split.unwrap_or_else(|| {
        let shard = &cluster.config().shards[0];
        let spare = cluster
            .config()
            .census
            .iter()
            .find(|m| !shard.replicas.contains(m))
            .expect("a non-replica member exists at RF 3 of 4");
        let mut replicas: Vec<&str> = shard.replicas.iter().skip(1).map(|s| s.as_str()).collect();
        replicas.push(spare);
        let next = cluster.config().with_migrate(shard.id, &replicas);
        let transfers = cluster.plan_transfers(&next);
        (next, transfers)
    });
    let mut migrating_ops = 0u64;
    let mut migrating_spent = Duration::ZERO;
    for transfer in &transfers {
        cluster.precopy(transfer);
        let (ops, spent) = timed_round(&mut cluster, "migrating");
        migrating_ops += ops;
        migrating_spent += spent;
    }
    assert!(cluster.finalize(&next, &transfers), "split commits");
    let window = cluster.last_freeze_window().expect("freeze window recorded");
    let (after_ops, after_spent) = timed_round(&mut cluster, "after");

    KvsClusterResult {
        steady_ops_per_sec: steady_ops as f64 / steady_spent.as_secs_f64().max(1e-9),
        migrating_ops_per_sec: migrating_ops as f64 / migrating_spent.as_secs_f64().max(1e-9),
        after_ops_per_sec: after_ops as f64 / after_spent.as_secs_f64().max(1e-9),
        freeze_frames: window.frames,
        freeze_wall_ms: window.wall.as_secs_f64() * 1e3,
    }
}

/// The TCP link's steady-state and recovery figures for the
/// `tcp_resilience` section: round-trip cost over real loopback
/// sockets, plus throughput while every established connection is
/// repeatedly hard-killed mid-stream (the reconnect storm).
struct TcpResilienceResult {
    round_trip_ns: u128,
    round_trip_iters: u64,
    storm_msgs: u64,
    storm_msgs_per_sec: f64,
    storm_kills: u64,
    storm_reconnects: u64,
}

/// One bidirectional round trip per iteration over real loopback
/// sockets.
fn tcp_round_trip_ns(quick: bool) -> (u128, u64) {
    use chorus_core::Transport as _;
    chorus_core::locations! { RA, RB }
    type Duo = chorus_core::LocationSet!(RA, RB);

    let addrs = chorus_transport::free_local_addrs(2).expect("loopback addrs");
    let config = chorus_transport::TcpConfigBuilder::new()
        .location(RA, addrs[0])
        .location(RB, addrs[1])
        .build::<Duo>()
        .expect("complete census");
    let a = chorus_transport::TcpTransport::bind(RA, config.clone()).expect("bind RA");
    let b = chorus_transport::TcpTransport::bind(RB, config).expect("bind RB");
    let payload = [0xC3u8; 64];
    measure(quick, || {
        a.send("RB", &payload).expect("send");
        black_box(b.receive("RA").expect("receive"));
        b.send("RA", &payload).expect("send");
        black_box(a.receive("RB").expect("receive"));
    })
}

fn bench_tcp_link(quick: bool) -> TcpResilienceResult {
    use chorus_core::Transport as _;
    chorus_core::locations! { SA, SB }
    type Duo = chorus_core::LocationSet!(SA, SB);

    let (round_trip_ns, round_trip_iters) = tcp_round_trip_ns(quick);

    // The reconnect storm: a one-way stream with every established
    // connection hard-killed at a fixed cadence; throughput includes
    // the reconnect + replay stalls, and every message must still
    // arrive in order.
    let (storm_msgs, kill_every) = if quick { (400u64, 40u64) } else { (4000, 50) };
    let addrs = chorus_transport::free_local_addrs(2).expect("loopback addrs");
    let config = chorus_transport::TcpConfigBuilder::new()
        .location(SA, addrs[0])
        .location(SB, addrs[1])
        .heartbeat(Duration::from_millis(50))
        .retry_base(Duration::from_millis(2))
        .build::<Duo>()
        .expect("complete census");
    let a = chorus_transport::TcpTransport::bind(SA, config.clone()).expect("bind SA");
    let b = chorus_transport::TcpTransport::bind(SB, config).expect("bind SB");
    let payload = [0x5Au8; 64];
    let mut kills = 0u64;
    let start = Instant::now();
    for i in 0..storm_msgs {
        if i > 0 && i % kill_every == 0 {
            kills += a.break_established_links() as u64;
        }
        a.send("SB", &payload).expect("storm send");
    }
    for _ in 0..storm_msgs {
        black_box(b.receive("SA").expect("storm receive"));
    }
    let elapsed = start.elapsed().as_secs_f64().max(f64::EPSILON);
    let reconnects = a.link_stats().reconnects;

    TcpResilienceResult {
        round_trip_ns,
        round_trip_iters,
        storm_msgs,
        storm_msgs_per_sec: storm_msgs as f64 / elapsed,
        storm_kills: kills,
        storm_reconnects: reconnects,
    }
}

/// Throughput on a saturated loopback link for the `saturated_link`
/// section: several sessions pump small frames one way as fast as they
/// can offer them, through the same link with coalesced vectored
/// batches (swept over flush windows) vs frame-at-a-time (a zero flush
/// window: every frame is its own vectored write, acked and retained
/// individually).
struct SaturatedLinkResult {
    msgs: u64,
    sessions: u64,
    payload_bytes: usize,
    unbatched_msgs_per_sec: f64,
    /// `(flush window in µs, msgs/sec)` for every swept window,
    /// including the frame-at-a-time `0` point.
    sweep: Vec<(u64, f64)>,
    batched_flush_us: u64,
    batched_msgs_per_sec: f64,
    batches: u64,
    batched_frames: u64,
    batch_histogram: [u64; 7],
}

impl SaturatedLinkResult {
    /// Batched speedup over the frame-at-a-time data plane (the
    /// regression floor in CI guards this ratio).
    fn ratio(&self) -> f64 {
        self.batched_msgs_per_sec / self.unbatched_msgs_per_sec.max(f64::EPSILON)
    }
}

/// One saturated one-way run: `sessions` sender threads each pump
/// `msgs / sessions` 32-byte frames on their own session. The timed
/// region is the *data plane*: it ends when the receiving transport
/// has deposited every frame into its mailboxes
/// ([`deposited_frames`]), not when application threads have popped
/// them — mailbox pops cost the same in every mode and would otherwise
/// mask the wire-side difference. The mailboxes are drained (and FIFO
/// asserted) outside the timed window. Returns msgs/sec and the
/// sender's link stats (batch counters).
///
/// [`deposited_frames`]: chorus_transport::TcpLinkStats::deposited_frames
fn saturated_link_run(
    msgs: u64,
    sessions: u64,
    flush: Duration,
) -> (f64, chorus_transport::TcpLinkStats) {
    use chorus_core::SessionTransport as _;
    chorus_core::locations! { LA, LB }
    type Duo = chorus_core::LocationSet!(LA, LB);

    let addrs = chorus_transport::free_local_addrs(2).expect("loopback addrs");
    let config = chorus_transport::TcpConfigBuilder::new()
        .location(LA, addrs[0])
        .location(LB, addrs[1])
        .flush_delay(flush)
        .build::<Duo>()
        .expect("complete census");
    let a = Arc::new(chorus_transport::TcpTransport::bind(LA, config.clone()).expect("bind LA"));
    let b = Arc::new(chorus_transport::TcpTransport::bind(LB, config).expect("bind LB"));
    let per_session = msgs / sessions;
    let start = Instant::now();
    let senders: Vec<_> = (0..sessions)
        .map(|session| {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                for seq in 0..per_session {
                    let envelope = Envelope::new(session + 1, seq, vec![0xB7u8; 32]);
                    a.send_frame("LB", envelope).expect("saturated send");
                }
            })
        })
        .collect();
    for t in senders {
        t.join().expect("sender thread");
    }
    // Senders are done offering; the clock stops when the last frame
    // lands in a mailbox on the receiving side.
    let deadline = Instant::now() + Duration::from_secs(120);
    while b.link_stats().deposited_frames < msgs {
        assert!(Instant::now() < deadline, "saturated link never finished depositing");
        std::thread::yield_now();
    }
    let elapsed = start.elapsed().as_secs_f64().max(f64::EPSILON);
    // Untimed correctness sweep: everything arrived, in order.
    for session in 0..sessions {
        for seq in 0..per_session {
            let got = b.receive_frame(session + 1, "LA").expect("saturated receive");
            assert_eq!(got.seq, seq, "FIFO broke on the saturated link");
        }
    }
    (msgs as f64 / elapsed, a.link_stats())
}

fn bench_saturated_link(quick: bool) -> SaturatedLinkResult {
    let msgs: u64 = if quick { 40_000 } else { 120_000 };
    let sessions: u64 = 4;
    // Every point is peak-of-3: throughput noise on a shared box is
    // one-sided (scheduling stalls only ever slow a run down), so the
    // max is the low-variance estimator — applied to baseline and
    // batched points alike.
    const REPS: u32 = 3;
    let peak_of = |flush: Duration| {
        let mut peak: Option<(f64, chorus_transport::TcpLinkStats)> = None;
        for _ in 0..REPS {
            let (rate, stats) = saturated_link_run(msgs, sessions, flush);
            if peak.as_ref().is_none_or(|(r, _)| rate > *r) {
                peak = Some((rate, stats));
            }
        }
        peak.expect("at least one rep")
    };
    // The frame-at-a-time baseline: the identical data plane with no
    // coalescing window, so every offered frame is flushed (and
    // retained, and acked) on its own.
    let (unbatched_rate, _) = peak_of(Duration::ZERO);
    let mut sweep = vec![(0u64, unbatched_rate)];
    let mut best: Option<(u64, f64, chorus_transport::TcpLinkStats)> = None;
    for &us in &[50u64, 200, 500] {
        let (rate, stats) = peak_of(Duration::from_micros(us));
        sweep.push((us, rate));
        if best.as_ref().is_none_or(|(_, r, _)| rate > *r) {
            best = Some((us, rate, stats));
        }
    }
    let (batched_flush_us, batched_msgs_per_sec, stats) = best.expect("non-empty sweep");
    SaturatedLinkResult {
        msgs,
        sessions,
        payload_bytes: 32,
        unbatched_msgs_per_sec: unbatched_rate,
        sweep,
        batched_flush_us,
        batched_msgs_per_sec,
        batches: stats.batches,
        batched_frames: stats.batched_frames,
        batch_histogram: stats.batch_histogram,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let sim = args.iter().any(|a| a == "--sim");
    let saturated_floor = args.iter().position(|a| a == "--assert-saturated-floor").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse::<f64>().ok())
            .expect("--assert-saturated-floor takes a ratio, e.g. 2.0")
    });
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_results.json".to_string());

    let mut results = vec![
        bench_shared_endpoint(quick),
        bench_fresh_endpoint(quick),
        bench_centralized(quick),
        bench_multicast_fanout(quick),
        bench_envelope_codec(quick),
    ];
    if sim {
        results.push(bench_sim_chaos_kvs(quick));
    }

    // The Byzantine-hardening price tag: plain vs hardened lottery on
    // identical censuses, with the overhead ratio pinned in the JSON so
    // a pattern-layer perf regression is diffable per commit.
    let patterns = bench_patterns_lottery(quick);

    // The sharded-KVS live-reshard figures: the data path must not pay
    // a stop-the-world for a shard split.
    let kvs_cluster = bench_kvs_cluster(quick);

    // The TCP link's figures: a real socket round trip (acks and
    // retention included), and throughput through a reconnect storm.
    let tcp_resilience = bench_tcp_link(quick);

    // The batched-data-plane payoff: msgs/sec on a saturated loopback
    // link, coalesced vectored batches vs one write per frame, with the
    // realized batch-size histogram and the flush-window sweep.
    let saturated = bench_saturated_link(quick);

    // The pooled-runtime concurrency scenarios: N sessions to
    // completion on a fixed pool, against the thread-per-role blocking
    // model at N=1k. Quick mode (the CI scale smoke) trims the 10k
    // point to keep the job inside its time box.
    let pooled_ns: &[u64] = if quick { &[100, 1_000] } else { &[100, 1_000, 10_000] };
    let mut concurrency: Vec<ConcurrencyResult> =
        pooled_ns.iter().map(|&n| bench_pooled_sessions(n)).collect();
    concurrency.push(bench_thread_per_role_sessions(1_000));

    let mut json = String::from("{\n  \"schema\": 1,\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sim_fields = match r.sim {
            Some((delivered, ticks)) => format!(
                ", \"sim_messages\": {delivered}, \"sim_virtual_ticks\": {ticks}, \
                 \"sim_messages_per_tick\": {:.4}",
                delivered as f64 / ticks.max(1) as f64
            ),
            None => String::new(),
        };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {}, \"iters\": {}, \
             \"messages\": {}, \"bytes\": {}{}}}{}\n",
            r.name,
            r.ns_per_iter,
            r.iters,
            r.messages,
            r.bytes,
            sim_fields,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"patterns\": {{\"plain_lottery_ns\": {}, \"plain_lottery_iters\": {}, \
         \"plain_lottery_messages\": {}, \"hardened_lottery_ns\": {}, \
         \"hardened_lottery_iters\": {}, \"hardened_lottery_messages\": {}, \
         \"hardened_over_plain_ratio\": {:.3}}},\n",
        patterns.plain_ns,
        patterns.plain_iters,
        patterns.plain_messages,
        patterns.hardened_ns,
        patterns.hardened_iters,
        patterns.hardened_messages,
        patterns.ratio()
    ));
    json.push_str(&format!(
        "  \"kvs_cluster\": {{\"steady_ops_per_sec\": {:.1}, \
         \"migrating_ops_per_sec\": {:.1}, \"after_ops_per_sec\": {:.1}, \
         \"migrating_over_steady_slowdown\": {:.3}, \"freeze_frames\": {}, \
         \"freeze_wall_ms\": {:.3}}},\n",
        kvs_cluster.steady_ops_per_sec,
        kvs_cluster.migrating_ops_per_sec,
        kvs_cluster.after_ops_per_sec,
        kvs_cluster.slowdown(),
        kvs_cluster.freeze_frames,
        kvs_cluster.freeze_wall_ms,
    ));
    json.push_str(&format!(
        "  \"tcp_resilience\": {{\"resilient_round_trip_ns\": {}, \"resilient_iters\": {}, \
         \"storm_msgs\": {}, \"storm_msgs_per_sec\": {:.1}, \"storm_kills\": {}, \
         \"storm_reconnects\": {}}},\n",
        tcp_resilience.round_trip_ns,
        tcp_resilience.round_trip_iters,
        tcp_resilience.storm_msgs,
        tcp_resilience.storm_msgs_per_sec,
        tcp_resilience.storm_kills,
        tcp_resilience.storm_reconnects,
    ));
    let sweep_json = saturated
        .sweep
        .iter()
        .map(|(us, rate)| format!("{{\"flush_us\": {us}, \"msgs_per_sec\": {rate:.1}}}"))
        .collect::<Vec<_>>()
        .join(", ");
    json.push_str(&format!(
        "  \"saturated_link\": {{\"msgs\": {}, \"sessions\": {}, \"payload_bytes\": {}, \
         \"unbatched_msgs_per_sec\": {:.1}, \
         \"batched_msgs_per_sec\": {:.1}, \"batched_over_unbatched_ratio\": {:.3}, \
         \"batched_flush_us\": {}, \"batches\": {}, \"batched_frames\": {}, \
         \"batch_histogram\": {:?}, \"flush_sweep\": [{}]}},\n",
        saturated.msgs,
        saturated.sessions,
        saturated.payload_bytes,
        saturated.unbatched_msgs_per_sec,
        saturated.batched_msgs_per_sec,
        saturated.ratio(),
        saturated.batched_flush_us,
        saturated.batches,
        saturated.batched_frames,
        saturated.batch_histogram,
        sweep_json,
    ));
    json.push_str("  \"concurrency\": [\n");
    for (i, c) in concurrency.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"n_sessions\": {}, \"pool_size\": {}, \
             \"host_cores\": {}, \"elapsed_ms\": {:.3}, \"sessions_per_sec\": {:.1}, \
             \"msgs_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}}}{}\n",
            c.name,
            c.n_sessions,
            c.pool_size,
            c.host_cores,
            c.elapsed_ms,
            c.sessions_per_sec,
            c.msgs_per_sec,
            c.p50_us,
            c.p99_us,
            if i + 1 < concurrency.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    for r in &results {
        print!(
            "{:<48} {:>10} ns/iter (n = {:>6})  {} msgs  {} bytes",
            r.name, r.ns_per_iter, r.iters, r.messages, r.bytes
        );
        if let Some((delivered, ticks)) = r.sim {
            print!(
                "  [sim: {delivered} frames / {ticks} vticks = {:.4} msgs/vtick]",
                delivered as f64 / ticks.max(1) as f64
            );
        }
        println!();
    }
    println!(
        "{:<48} plain {} ns/iter (n = {}, {} msgs)  hardened {} ns/iter (n = {}, {} msgs)  \
         ratio {:.2}x",
        "patterns/lottery_hardening_overhead",
        patterns.plain_ns,
        patterns.plain_iters,
        patterns.plain_messages,
        patterns.hardened_ns,
        patterns.hardened_iters,
        patterns.hardened_messages,
        patterns.ratio()
    );
    println!(
        "{:<48} steady {:.0} ops/s  migrating {:.0} ops/s  after {:.0} ops/s  \
         slowdown {:.2}x  freeze {} frames / {:.2} ms",
        "kvs_cluster/live_reshard",
        kvs_cluster.steady_ops_per_sec,
        kvs_cluster.migrating_ops_per_sec,
        kvs_cluster.after_ops_per_sec,
        kvs_cluster.slowdown(),
        kvs_cluster.freeze_frames,
        kvs_cluster.freeze_wall_ms,
    );
    println!(
        "{:<48} round trip {} ns/iter (n = {})  storm {:.0} msgs/s ({} kills, {} reconnects)",
        "tcp_resilience/round_trip_and_storm",
        tcp_resilience.round_trip_ns,
        tcp_resilience.round_trip_iters,
        tcp_resilience.storm_msgs_per_sec,
        tcp_resilience.storm_kills,
        tcp_resilience.storm_reconnects,
    );
    println!(
        "{:<48} unbatched {:.0} msgs/s  batched {:.0} msgs/s \
         (flush {}us)  ratio {:.2}x  {} batches / {} frames  hist {:?}",
        "saturated_link/batched_vs_frame_at_a_time",
        saturated.unbatched_msgs_per_sec,
        saturated.batched_msgs_per_sec,
        saturated.batched_flush_us,
        saturated.ratio(),
        saturated.batches,
        saturated.batched_frames,
        saturated.batch_histogram,
    );
    for c in &concurrency {
        println!(
            "{:<48} N={:<6} threads={:<5} cores={}  {:>9.1} sessions/s  {:>9.1} msgs/s  \
             p50={}us p99={}us",
            c.name,
            c.n_sessions,
            c.pool_size,
            c.host_cores,
            c.sessions_per_sec,
            c.msgs_per_sec,
            c.p50_us,
            c.p99_us
        );
    }
    std::fs::write(&out_path, &json).expect("write BENCH_results.json");
    println!("\nwrote {out_path}");

    if let Some(floor) = saturated_floor {
        let ratio = saturated.ratio();
        if ratio < floor {
            eprintln!(
                "saturated-link regression: batched/frame-at-a-time ratio {ratio:.2}x \
                 fell below the {floor:.2}x floor"
            );
            std::process::exit(1);
        }
        println!("saturated-link floor ok: {ratio:.2}x >= {floor:.2}x");
    }
}
