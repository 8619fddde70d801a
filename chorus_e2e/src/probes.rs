//! Per-layer probes: each times calls into one crate's public
//! functions from outside, in isolation. Nothing here instruments the
//! crates themselves. A traced pass runs the probes of the layers its
//! workload exercises ([`for_workload`]) and no others.

use crate::affinity::{place, Place};
use crate::alloc;
use crate::gen::{key_name, KvsModel, SplitMix64, KVS_KEYS, LARGE_VALUE, SMALL_VALUE};
use crate::stats::{self, time_ns};
use crate::workloads::{
    add_link_stats, run_cluster, run_pooled, tcp_pair, BlockingRig, Budget, Census, Fabric,
    LocalFabric, RunCfg, TcpFabric,
};
use chorus_core::{
    CommFailure, Endpoint, Layer, Runner, SessionTransport as _, Transport as _, TransportError,
};
use chorus_kvs::{ClusterConfig, KvsOp, NodeCtx, NodeReply, StampedRequest};
use chorus_protocols::kvs_simple::{handle_request, SimpleKvs};
use chorus_protocols::roles::{Client, Primary};
use chorus_protocols::store::{Request, Response, SharedStore};
use chorus_transport::{LocalTransport, LocalTransportChannel, TcpLinkStats, TransportMetrics};
use chorus_wire::{Bytes, BytesMut, Envelope};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Probe results by per-layer metric name.
pub type Values = BTreeMap<&'static str, f64>;

fn small() -> String {
    "s".repeat(SMALL_VALUE)
}

fn large() -> String {
    "l".repeat(LARGE_VALUE)
}

/// `chorus_wire`: serialize a request, deserialize a response, and the
/// frame codec, at both value sizes.
fn wire(scale: f64, out: &mut Values) {
    let mut scratch = Vec::with_capacity(2 * LARGE_VALUE);
    let mut frame_buf = BytesMut::with_capacity(2 * LARGE_VALUE);
    for (value, ser, de, codec) in [
        (small(), "wire.ser_request_ns", "wire.de_response_ns", "wire.envelope_codec_ns"),
        (large(), "wire.ser_request_4k_ns", "wire.de_response_4k_ns", "wire.envelope_codec_4k_ns"),
    ] {
        let request = Request::Put(key_name(7), value.clone());
        out.insert(
            ser,
            time_ns(scale, || {
                scratch.clear();
                chorus_wire::to_bytes_into(&request, &mut scratch).expect("request encodes");
                scratch.len()
            }),
        );
        let response = chorus_wire::to_bytes(&Response::Found(value)).expect("response encodes");
        out.insert(
            de,
            time_ns(scale, || {
                chorus_wire::from_bytes::<Response>(&response).expect("response decodes")
            }),
        );
        let envelope = Envelope::new(7, 42, Bytes::copy_from_slice(&response));
        let frame = Bytes::from(envelope.encode());
        out.insert(
            codec,
            time_ns(scale, || {
                frame_buf.clear();
                envelope.encode_into(&mut frame_buf);
                Envelope::decode_shared(&frame).expect("frame decodes")
            }),
        );
    }
}

struct NoopLayer;
impl Layer for NoopLayer {}

/// A same-thread endpoint pair over `LocalTransport` with `layer()`
/// installed on each side, and the cost of one `send_value` +
/// `receive_payload` across it: serialize, layer hooks, sequence
/// stamping and tracking, deposit and pop, with no thread to wake.
/// With `fresh_sessions` both ends open a new session per message, as
/// the workloads do, which adds what a session's first message costs
/// inside the transport (its mailbox and sequence entries).
fn send_recv_same_thread<L: Layer + 'static>(
    scale: f64,
    fresh_sessions: bool,
    layer: impl Fn() -> Option<L>,
) -> f64 {
    let channel = LocalTransportChannel::<Census>::new();
    let mut client =
        Endpoint::builder(Client).transport(LocalTransport::new(Client, channel.clone()));
    let mut server = Endpoint::builder(Primary).transport(LocalTransport::new(Primary, channel));
    if let (Some(a), Some(b)) = (layer(), layer()) {
        client = client.layer(a);
        server = server.layer(b);
    }
    let (client, server) = (client.build(), server.build());
    let request = Request::Put(key_name(7), small());
    if fresh_sessions {
        let mut id = 0;
        return time_ns(scale, || {
            id += 1;
            let (sending, receiving) = (client.session_with_id(id), server.session_with_id(id));
            sending.send_value("Primary", &request).expect("local send");
            receiving.receive_payload("Client").expect("local receive")
        });
    }
    let (sending, receiving) = (client.session_with_id(1), server.session_with_id(1));
    time_ns(scale, || {
        sending.send_value("Primary", &request).expect("local send");
        receiving.receive_payload("Client").expect("local receive")
    })
}

/// `chorus_core`: session bookkeeping, layer hooks, projection
/// dispatch, the cross-thread hand-off and the allocation profile.
fn core(scale: f64, out: &mut Values) {
    let (client, _server, _) = LocalFabric::connect();
    let endpoint = Endpoint::new(client);
    let mut id = 0u64;
    out.insert(
        "core.session_open_ns",
        time_ns(scale, || {
            id += 1;
            endpoint.session_with_id(id).id()
        }),
    );

    let bare = send_recv_same_thread(scale, false, || None::<NoopLayer>);
    out.insert("core.send_recv_same_thread_ns", bare);
    out.insert(
        "core.layer_hook_ns",
        send_recv_same_thread(scale, false, || Some(NoopLayer)) - bare,
    );
    let metrics = Arc::new(TransportMetrics::new());
    out.insert(
        "core.metrics_layer_ns",
        send_recv_same_thread(scale, false, || Some(Arc::clone(&metrics))) - bare,
    );
    out.insert(
        "core.send_recv_fresh_session_ns",
        send_recv_same_thread(scale, true, || None::<NoopLayer>),
    );

    let runner: Runner<Census> = Runner::new();
    let store = SharedStore::new();
    KvsModel::new().preload(&store);
    let key = key_name(7);
    out.insert(
        "core.epp_dispatch_ns",
        time_ns(scale, || {
            let reply = runner.run(SimpleKvs {
                request: runner.local(Request::Get(key.clone())),
                state: runner.local(store.clone()),
            });
            runner.unwrap_located(reply)
        }),
    );

    out.insert("core.park_handoff_ns", park_handoff(scale));

    // Allocation profile of the `kvs_rt_local` path, both threads, on
    // gets only so neither the store nor the driver's model grows. The
    // driver's own key clone (one allocation, freed in the window) is
    // subtracted.
    let ops = ((20_000.0 * scale) as u64).max(500);
    let mut rig = BlockingRig::<LocalFabric>::set_up(false);
    let names: Vec<String> = (0..KVS_KEYS).map(key_name).collect();
    let mut rng = SplitMix64::new(1);
    let mut run = |rig: &mut BlockingRig<LocalFabric>, n: u64| {
        for _ in 0..n {
            let key = &names[rng.next_u64() as usize % KVS_KEYS];
            std::hint::black_box(rig.op::<false>(Request::Get(key.clone())));
        }
    };
    run(&mut rig, ops / 10);
    let (allocations, retained) = alloc::counted(|| run(&mut rig, ops));
    rig.shut_down();
    out.insert("core.allocs_per_op", allocations as f64 / ops as f64 - 1.0);
    out.insert("core.session_retained_bytes", retained as f64 / ops as f64);
}

/// Two threads ping-pong 32 bytes with `send_bytes`/`receive_bytes` on
/// one long-lived session each; half a round trip is one hand-off: the
/// send-side bookkeeping, waking the parked peer, and its pop.
fn park_handoff(scale: f64) -> f64 {
    let (client, server, _) = LocalFabric::connect();
    let (client, server) = (Endpoint::new(client), Endpoint::new(server));
    let batches = ((15.0 * scale) as usize).max(3);
    const PER_BATCH: usize = 2000;
    let payload = [0xA5u8; 32];
    std::thread::scope(|scope| {
        scope.spawn(|| {
            place(Place::ServerSide);
            let session = server.session_with_id(1);
            for _ in 0..batches * PER_BATCH {
                let got = session.receive_bytes("Client").expect("echo receive");
                session.send_bytes("Client", &got).expect("echo send");
            }
        });
        let session = client.session_with_id(1);
        let mut samples = Vec::with_capacity(batches);
        for _ in 0..batches {
            let start = Instant::now();
            for _ in 0..PER_BATCH {
                session.send_bytes("Primary", &payload).expect("ping send");
                std::hint::black_box(session.receive_bytes("Primary").expect("ping receive"));
            }
            samples.push(start.elapsed().as_nanos() as f64 / (2 * PER_BATCH) as f64);
        }
        stats::median_f64(&mut samples)
    })
}

/// The hand-written control (DESIGN invariant 4): the same request and
/// response, one session per op, written directly against
/// `Session::send_value`/`receive_payload` with no choreography.
struct HandwrittenRig<F: Fabric> {
    client: Endpoint<Census, Client, F::C>,
    server: std::thread::JoinHandle<()>,
    next_id: u64,
}

impl<F: Fabric> HandwrittenRig<F> {
    fn set_up(store: SharedStore) -> Self {
        let (client, server, _) = F::connect();
        let metrics = Arc::new(TransportMetrics::new());
        let client =
            Endpoint::builder(Client).transport(client).layer(Arc::clone(&metrics)).build();
        let server = Endpoint::builder(Primary).transport(server).layer(metrics).build();
        let server = std::thread::spawn(move || {
            place(Place::ServerSide);
            for id in 0.. {
                let session = server.session_with_id(id);
                let payload = session.receive_payload("Client").expect("request arrives");
                let request: Request = chorus_wire::from_bytes(&payload).expect("request decodes");
                let response = handle_request(&request, &store);
                session.send_value("Client", &response).expect("response leaves");
                if request == Request::Stop {
                    break;
                }
            }
        });
        HandwrittenRig { client, server, next_id: 0 }
    }

    fn op(&mut self, request: &Request) -> Result<Response, TransportError> {
        let session = self.client.session_with_id(self.next_id);
        self.next_id += 1;
        session.send_value("Primary", request)?;
        let payload = session.receive_payload("Primary")?;
        Ok(chorus_wire::from_bytes(&payload)?)
    }

    fn shut_down(mut self) {
        self.op(&Request::Stop).expect("stop is answered");
        self.server.join().expect("hand-written server panicked");
    }
}

/// Median round trip (ns) of the library path and of the hand-written
/// path over `F`, on alternating blocks of the same gets.
fn library_vs_handwritten<F: Fabric>(scale: f64) -> (f64, f64) {
    const ROUNDS: usize = 4;
    let per_block = ((5_000.0 * scale) as usize).max(200);
    let mut library = BlockingRig::<F>::set_up(false);
    let store = SharedStore::new();
    KvsModel::new().preload(&store);
    let mut handwritten = HandwrittenRig::<F>::set_up(store);
    let names: Vec<String> = (0..KVS_KEYS).map(key_name).collect();
    let mut rng = SplitMix64::new(2);
    let (mut lib_ns, mut hand_ns) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        for _ in 0..per_block {
            let request = Request::Get(names[rng.next_u64() as usize % KVS_KEYS].clone());
            let start = Instant::now();
            std::hint::black_box(library.op::<false>(request));
            lib_ns.push(start.elapsed().as_nanos() as u64);
        }
        for _ in 0..per_block {
            let request = Request::Get(names[rng.next_u64() as usize % KVS_KEYS].clone());
            let start = Instant::now();
            std::hint::black_box(handwritten.op(&request).expect("hand-written op"));
            hand_ns.push(start.elapsed().as_nanos() as u64);
        }
    }
    library.shut_down();
    handwritten.shut_down();
    lib_ns.sort_unstable();
    hand_ns.sort_unstable();
    (stats::percentile(&lib_ns, 0.5) as f64, stats::percentile(&hand_ns, 0.5) as f64)
}

fn baseline_local(scale: f64, out: &mut Values) {
    let (library, handwritten) = library_vs_handwritten::<LocalFabric>(scale);
    out.insert("baseline.handwritten_rt_p50_us", handwritten / 1e3);
    out.insert("core.epp_overhead_ns", library - handwritten);
    out.insert("baseline.library_over_handwritten_ratio", library / handwritten);
}

fn baseline_tcp(scale: f64, out: &mut Values) {
    let (_, handwritten) = library_vs_handwritten::<TcpFabric>(scale);
    out.insert("baseline.handwritten_tcp_rt_p50_us", handwritten / 1e3);
}

/// The link layer as `kvs_rt_tcp` uses it: bare `Transport::send`/
/// `receive` round trips, connection set-up and threads.
fn tcp_latency(scale: f64, out: &mut Values, links: &mut TcpLinkStats) {
    let threads_before = stats::thread_count();
    let connect_start = Instant::now();
    let (client, server, _) = tcp_pair();
    let rounds = ((20_000.0 * scale) as usize).max(500);
    let sizes = [("tcp.raw_rt_p50_us", 32usize), ("tcp.raw_rt_4k_p50_us", LARGE_VALUE)];
    std::thread::scope(|scope| {
        scope.spawn(|| {
            place(Place::ServerSide);
            for _ in 0..rounds * sizes.len() {
                let got = server.receive("Client").expect("echo receive");
                server.send("Client", &got).expect("echo send");
            }
        });
        for (name, size) in sizes {
            let payload = vec![0xC3u8; size];
            let mut rtt_ns = Vec::with_capacity(rounds);
            for round in 0..rounds {
                let start = Instant::now();
                client.send("Primary", &payload).expect("ping send");
                std::hint::black_box(client.receive("Primary").expect("ping receive"));
                rtt_ns.push(start.elapsed().as_nanos() as u64);
                if round == 0 && size == 32 {
                    // Both directions are now connected.
                    out.insert(
                        "tcp.connect_setup_us",
                        connect_start.elapsed().as_nanos() as f64 / 1e3,
                    );
                    out.insert(
                        "tcp.threads_per_endpoint",
                        (stats::thread_count() - threads_before - 1) as f64 / 2.0,
                    );
                }
            }
            rtt_ns.sort_unstable();
            out.insert(name, stats::percentile(&rtt_ns, 0.5) as f64 / 1e3);
        }
    });
    *links = add_link_stats(*links, client.link_stats());
    *links = add_link_stats(*links, server.link_stats());
}

/// The link layer as `kvs_pooled_tcp` uses it: one thread pumping
/// frames one way, timed to deposit.
fn tcp_throughput(scale: f64, out: &mut Values, links: &mut TcpLinkStats) {
    for (name, size, frames) in [
        ("tcp.oneway_msgs_per_s", 32usize, 200_000.0),
        ("tcp.oneway_4k_mb_per_s", LARGE_VALUE, 8_000.0),
    ] {
        let frames = ((frames * scale) as u64).max(1000);
        let (client, server, _) = tcp_pair();
        let payload = Bytes::copy_from_slice(&vec![0xB7u8; size]);
        let start = Instant::now();
        for seq in 0..frames {
            client
                .send_frame("Primary", Envelope::new(1, seq, payload.clone()))
                .expect("one-way send");
        }
        // The clock stops when the last frame is in a mailbox on the
        // receiving side (`deposited_frames`), not when it is popped.
        while server.link_stats().deposited_frames < frames {
            assert!(start.elapsed().as_secs() < 60, "one-way stream never finished depositing");
            std::thread::yield_now();
        }
        let per_s = frames as f64 / start.elapsed().as_secs_f64();
        out.insert(name, if size == 32 { per_s } else { per_s * size as f64 / 1e6 });
        *links = add_link_stats(*links, client.link_stats());
        *links = add_link_stats(*links, server.link_stats());
    }
}

/// The pooled runtime, from inside a wrapper around the client
/// programs, over TCP and with TCP bypassed.
fn runtime(seed: u64, scale: f64, out: &mut Values, links: &mut TcpLinkStats) {
    let cfg = |seconds: f64| RunCfg {
        seed,
        budget: Budget::Seconds(seconds * scale.max(0.1)),
        extra_setups: 0,
        max_ops: 200_000,
    };
    let over_tcp = run_pooled::<TcpFabric, true, false>("probe", &cfg(1.5));
    let polls = over_tcp.pooled.clone().unwrap_or_default();
    out.insert("runtime.spawn_to_first_poll_us", polls.spawn_to_first_poll_us_p50);
    out.insert("runtime.pending_to_resume_us", polls.pending_to_resume_us_p50);
    out.insert("runtime.resumes_per_session", polls.resumes_per_session);
    out.insert("runtime.spurious_resume_share", polls.spurious_resume_share);
    let link = over_tcp.link.unwrap_or_default();
    out.insert("tcp.frames_per_batch", link.batched_frames as f64 / link.batches.max(1) as f64);
    out.insert("tcp.batches_per_op", link.batches as f64 / over_tcp.attempted as f64);
    *links = add_link_stats(*links, link);
    let bypassed = run_pooled::<LocalFabric, false, false>("probe", &cfg(1.0));
    out.insert("runtime.local_pooled_ops_per_s", bypassed.sliced.ops_per_s);
}

fn protocols(scale: f64, out: &mut Values) {
    let store = SharedStore::new();
    KvsModel::new().preload(&store);
    let requests = [Request::Get(key_name(7)), Request::Put(key_name(7), small())];
    let mut turn = 0;
    out.insert(
        "protocols.store_op_ns",
        time_ns(scale, || {
            turn ^= 1;
            handle_request(&requests[turn], &store)
        }),
    );
}

/// `chorus_kvs` and the simulator: a fixed-op-count pass through a live
/// reshard (so frame and tick counts repeat exactly per seed), plus the
/// client's quorum resolution and a replica's apply in isolation.
fn kvs(seed: u64, scale: f64, out: &mut Values) -> (u64, u64) {
    let ops = ((3_000.0 * scale) as u64).max(100);
    let pass = run_cluster(
        "probe",
        &RunCfg { seed, budget: Budget::Ops(ops), extra_setups: 0, max_ops: ops },
    );
    let cluster = pass.cluster.clone().unwrap_or_default();
    let per_op = |count: u64| count as f64 / pass.measured_ops.max(1) as f64;
    out.insert("sim.ticks_per_op", per_op(cluster.ticks));
    out.insert("sim.frames_per_op", per_op(cluster.frames));
    out.insert("kvs.steady_ops_per_s", cluster.steady_ops_per_s);
    out.insert("kvs.migrating_ops_per_s", cluster.migrating_ops_per_s);
    out.insert(
        "kvs.reshard_slowdown",
        cluster.steady_ops_per_s / cluster.migrating_ops_per_s.max(1e-9),
    );
    out.insert("kvs.freeze_frames", cluster.freeze_frames as f64);
    out.insert("kvs.freeze_wall_ms", cluster.freeze_wall_ms);
    out.insert("kvs.stale_epoch_retries", cluster.stale_epoch_retries as f64);

    let mut probe = chorus_kvs::SimCluster::new(
        chorus_transport::FaultPlan::ideal(),
        &chorus_kvs::NODE_NAMES,
        4,
    );
    let frames = |c: &chorus_kvs::SimCluster| c.net().messages_received();
    let before = frames(&probe);
    probe.put("key-0007", "value").expect("probe put commits");
    let after_put = frames(&probe);
    probe.get("key-0007").expect("probe get succeeds");
    out.insert("kvs.msgs_per_put", (after_put - before) as f64);
    out.insert("kvs.msgs_per_get", (frames(&probe) - after_put) as f64);

    let config = ClusterConfig::bootstrap(&chorus_kvs::NODE_NAMES, 4);
    let key = key_name(7);
    let put = StampedRequest {
        epoch: config.epoch,
        version: 1,
        op: KvsOp::Put { key: key.clone(), value: small() },
    };
    let replies: Vec<(&str, Result<NodeReply, CommFailure>)> =
        chorus_kvs::NODE_NAMES.iter().map(|name| (*name, Ok(NodeReply::Applied))).collect();
    out.insert(
        "kvs.resolve_ns",
        time_ns(scale, || {
            chorus_kvs::data_plane::resolve(&config, &put, replies.iter().map(|(n, r)| (*n, r)))
        }),
    );
    let replica = config.shard_of(&key).replicas[0].clone();
    let name = chorus_kvs::NODE_NAMES
        .iter()
        .copied()
        .find(|n| *n == replica)
        .expect("replicas are census members");
    let node = NodeCtx::new(name);
    node.install_config(&config);
    let get = StampedRequest { epoch: config.epoch, version: 2, op: KvsOp::Get { key } };
    let mut turn = false;
    out.insert(
        "kvs.node_apply_ns",
        time_ns(scale, || {
            turn = !turn;
            node.apply(if turn { &put } else { &get })
        }),
    );

    let spawn_join_ns = time_ns(scale, || {
        let threads: Vec<_> = (0..5).map(|_| std::thread::spawn(|| ())).collect();
        for thread in threads {
            thread.join().expect("no-op thread");
        }
    });
    out.insert("kvs.thread_spawn_share", spawn_join_ns / (pass.sliced.p50_us * 1e3).max(1.0));
    (pass.attempted, pass.failed)
}

/// What the probes of one traced pass produced.
pub struct Probed {
    pub values: Values,
    /// Summed link counters of every TCP endpoint a probe used.
    pub links: TcpLinkStats,
    /// Checked ops the probes ran (the cluster probe's), and how many
    /// of them failed.
    pub attempted: u64,
    pub failed: u64,
}

/// Runs the probes of the layers `workload` exercises, which are the
/// metrics whose `on` in the catalog names it.
pub fn for_workload(workload: &str, seed: u64, scale: f64) -> Probed {
    let mut out = Values::new();
    let mut links = TcpLinkStats::default();
    let (mut attempted, mut failed) = (0, 0);
    place(Place::ClientSide);
    match workload {
        "kvs_rt_local" => {
            wire(scale, &mut out);
            core(scale, &mut out);
            protocols(scale, &mut out);
            baseline_local(scale, &mut out);
        }
        "kvs_rt_tcp" => {
            // Before any other TCP endpoint exists: threads of dropped
            // endpoints exit on their own tick and would disturb the
            // thread count.
            tcp_latency(scale, &mut out, &mut links);
            wire(scale, &mut out);
            core(scale, &mut out);
            protocols(scale, &mut out);
            baseline_tcp(scale, &mut out);
        }
        "kvs_pooled_tcp" => {
            wire(scale, &mut out);
            runtime(seed, scale, &mut out, &mut links);
            tcp_throughput(scale, &mut out, &mut links);
        }
        "cluster_sim_reshard" => (attempted, failed) = kvs(seed, scale, &mut out),
        other => unreachable!("{other} is not in the catalog"),
    }
    Probed { values: out, links, attempted, failed }
}
