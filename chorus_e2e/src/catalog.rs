//! Every workload and metric the binary can emit, with what each
//! per-layer metric is expected to move. `BENCHMARK.json` lists the same
//! names; `--check-names` fails when the two disagree.

pub struct Workload {
    pub name: &'static str,
    /// What it stresses and what it bypasses.
    pub why: &'static str,
    /// Set-ups timed besides the measured one; `setup_s` is the median.
    pub extra_setups: usize,
    /// Ceiling on measured ops per run, at least twice what this host
    /// does in the 10 s a gated run measures: at today's per-session
    /// retention that keeps RSS under 2 GB even if a later change
    /// doubles the rate.
    pub max_ops: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kvs_rt_local",
        why: "SimpleKvs, one blocking session per op over LocalTransport: \
              session bookkeeping, EPP dispatch, park hand-off and wire do all the work, TCP none",
        extra_setups: 100,
        max_ops: 3_000_000,
    },
    Workload {
        name: "kvs_rt_tcp",
        why: "the identical op stream and code over a loopback TcpTransport pair, one frame in \
              flight: the latency use of the link, where a coalescing window hurts",
        extra_setups: 30,
        max_ops: 800_000,
    },
    Workload {
        name: "kvs_pooled_tcp",
        why: "PooledKvsClient/Server on SessionRuntime(2), 32 sessions in flight over one TCP \
              pair: the throughput use of the link (batched writev, run queue, wake-to-poll)",
        extra_setups: 30,
        max_ops: 1_200_000,
    },
    Workload {
        name: "cluster_sim_reshard",
        why: "chorus_kvs SimCluster (4 nodes, 4 shards, RF 3) through a live split: the \
              census-polymorphic path in virtual time, five thread spawns and fresh endpoints per op",
        extra_setups: 10,
        max_ops: 110_000,
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
}

/// The gated metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s" },
    EndToEnd { name: "op_p50_us", unit: "us" },
    EndToEnd { name: "op_p90_us", unit: "us" },
    EndToEnd { name: "ops_per_s", unit: "1/s" },
    EndToEnd { name: "cpu_us_per_op", unit: "us" },
    EndToEnd { name: "msgs_per_op", unit: "count" },
    EndToEnd { name: "rss_growth_bytes_per_op", unit: "bytes" },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// The workloads whose traced pass measures it; the others report 0.
    pub on: &'static [&'static str],
    /// The end-to-end metric and workload this is expected to move.
    pub moves: &'static str,
}

const LOCAL: &[&str] = &["kvs_rt_local"];
const TCP: &[&str] = &["kvs_rt_tcp"];
const BLOCKING: &[&str] = &["kvs_rt_local", "kvs_rt_tcp"];
const POOLED: &[&str] = &["kvs_pooled_tcp"];
const BOTH_TCP: &[&str] = &["kvs_rt_tcp", "kvs_pooled_tcp"];
const KVS: &[&str] = &["kvs_rt_local", "kvs_rt_tcp", "kvs_pooled_tcp"];
const CLUSTER: &[&str] = &["cluster_sim_reshard"];

const WIRE: &str = "cpu_us_per_op everywhere; op_p50_us on kvs_rt_local (small share)";
const WIRE_4K: &str = "cpu_us_per_op everywhere; ops_per_s on kvs_pooled_tcp";
const CORE: &str = "op_p50_us, cpu_us_per_op on kvs_rt_local";
const CONTROL: &str = "the control for op_p50_us on kvs_rt_local / kvs_rt_tcp";
const RUNTIME: &str = "ops_per_s, op_p50_us on kvs_pooled_tcp only";
const TCP_LATENCY: &str = "op_p50_us on kvs_rt_tcp";
const TCP_THROUGHPUT: &str = "ops_per_s on kvs_pooled_tcp; predicted no change on kvs_rt_tcp";
const TCP_SETUP: &str = "setup_s, cpu_us_per_op on the tcp workloads";
const DISTURBED: &str = "nothing: must be 0, non-zero marks a disturbed run";
const CLUSTER_ONLY: &str = "ops_per_s, op_p50_us, msgs_per_op on cluster_sim_reshard only";
const BUDGET: &str = "ROADMAP item 1's budget: probe sum against the untraced op_p50_us";
const TRACE: &str = "where op_p50_us goes on the traced workload";

/// The metrics of single layers, reported with `--trace 1`.
pub const PER_LAYER: [PerLayer; 64] = [
    PerLayer { name: "wire.ser_request_ns", unit: "ns", on: KVS, moves: WIRE },
    PerLayer { name: "wire.ser_request_4k_ns", unit: "ns", on: KVS, moves: WIRE_4K },
    PerLayer { name: "wire.de_response_ns", unit: "ns", on: KVS, moves: WIRE },
    PerLayer { name: "wire.de_response_4k_ns", unit: "ns", on: KVS, moves: WIRE_4K },
    PerLayer { name: "wire.envelope_codec_ns", unit: "ns", on: KVS, moves: WIRE },
    PerLayer { name: "wire.envelope_codec_4k_ns", unit: "ns", on: KVS, moves: WIRE_4K },
    PerLayer { name: "core.session_open_ns", unit: "ns", on: BLOCKING, moves: CORE },
    PerLayer { name: "core.send_recv_same_thread_ns", unit: "ns", on: BLOCKING, moves: CORE },
    PerLayer { name: "core.send_recv_fresh_session_ns", unit: "ns", on: BLOCKING, moves: CORE },
    PerLayer { name: "core.layer_hook_ns", unit: "ns", on: BLOCKING, moves: CORE },
    PerLayer { name: "core.metrics_layer_ns", unit: "ns", on: BLOCKING, moves: CORE },
    PerLayer { name: "core.epp_dispatch_ns", unit: "ns", on: BLOCKING, moves: CORE },
    PerLayer { name: "core.park_handoff_ns", unit: "ns", on: BLOCKING, moves: CORE },
    PerLayer { name: "core.allocs_per_op", unit: "count", on: BLOCKING, moves: CORE },
    PerLayer {
        name: "core.session_retained_bytes",
        unit: "bytes",
        on: BLOCKING,
        moves: "rss_growth_bytes_per_op on all three kvs_* workloads",
    },
    PerLayer { name: "core.epp_overhead_ns", unit: "ns", on: LOCAL, moves: CONTROL },
    PerLayer { name: "baseline.handwritten_rt_p50_us", unit: "us", on: LOCAL, moves: CONTROL },
    PerLayer { name: "baseline.handwritten_tcp_rt_p50_us", unit: "us", on: TCP, moves: CONTROL },
    PerLayer {
        name: "baseline.library_over_handwritten_ratio",
        unit: "ratio",
        on: LOCAL,
        moves: CONTROL,
    },
    PerLayer { name: "runtime.spawn_to_first_poll_us", unit: "us", on: POOLED, moves: RUNTIME },
    PerLayer { name: "runtime.pending_to_resume_us", unit: "us", on: POOLED, moves: RUNTIME },
    PerLayer { name: "runtime.resumes_per_session", unit: "count", on: POOLED, moves: RUNTIME },
    PerLayer { name: "runtime.spurious_resume_share", unit: "ratio", on: POOLED, moves: RUNTIME },
    PerLayer { name: "runtime.local_pooled_ops_per_s", unit: "1/s", on: POOLED, moves: RUNTIME },
    PerLayer { name: "tcp.raw_rt_p50_us", unit: "us", on: TCP, moves: TCP_LATENCY },
    PerLayer { name: "tcp.raw_rt_4k_p50_us", unit: "us", on: TCP, moves: TCP_LATENCY },
    PerLayer { name: "tcp.oneway_msgs_per_s", unit: "1/s", on: POOLED, moves: TCP_THROUGHPUT },
    PerLayer { name: "tcp.oneway_4k_mb_per_s", unit: "MB/s", on: POOLED, moves: TCP_THROUGHPUT },
    PerLayer { name: "tcp.frames_per_batch", unit: "count", on: POOLED, moves: TCP_THROUGHPUT },
    PerLayer { name: "tcp.batches_per_op", unit: "count", on: POOLED, moves: TCP_THROUGHPUT },
    PerLayer { name: "tcp.connect_setup_us", unit: "us", on: TCP, moves: TCP_SETUP },
    PerLayer { name: "tcp.threads_per_endpoint", unit: "count", on: TCP, moves: TCP_SETUP },
    PerLayer { name: "tcp.reconnects", unit: "count", on: BOTH_TCP, moves: DISTURBED },
    PerLayer { name: "tcp.replayed_frames", unit: "count", on: BOTH_TCP, moves: DISTURBED },
    PerLayer { name: "tcp.duplicate_frames", unit: "count", on: BOTH_TCP, moves: DISTURBED },
    PerLayer {
        name: "protocols.store_op_ns",
        unit: "ns",
        on: BLOCKING,
        moves: "nothing: application work, the same on every path",
    },
    PerLayer {
        name: "comm.payload_bytes_per_op",
        unit: "bytes",
        on: KVS,
        moves: "the paper's communication cost on the kvs_* workloads (exact per seed)",
    },
    PerLayer { name: "sim.ticks_per_op", unit: "count", on: CLUSTER, moves: CLUSTER_ONLY },
    PerLayer { name: "sim.frames_per_op", unit: "count", on: CLUSTER, moves: CLUSTER_ONLY },
    PerLayer { name: "kvs.msgs_per_put", unit: "count", on: CLUSTER, moves: CLUSTER_ONLY },
    PerLayer { name: "kvs.msgs_per_get", unit: "count", on: CLUSTER, moves: CLUSTER_ONLY },
    PerLayer { name: "kvs.steady_ops_per_s", unit: "1/s", on: CLUSTER, moves: CLUSTER_ONLY },
    PerLayer { name: "kvs.migrating_ops_per_s", unit: "1/s", on: CLUSTER, moves: CLUSTER_ONLY },
    PerLayer { name: "kvs.reshard_slowdown", unit: "ratio", on: CLUSTER, moves: CLUSTER_ONLY },
    PerLayer { name: "kvs.freeze_frames", unit: "count", on: CLUSTER, moves: CLUSTER_ONLY },
    PerLayer { name: "kvs.freeze_wall_ms", unit: "ms", on: CLUSTER, moves: CLUSTER_ONLY },
    PerLayer { name: "kvs.stale_epoch_retries", unit: "count", on: CLUSTER, moves: CLUSTER_ONLY },
    PerLayer { name: "kvs.resolve_ns", unit: "ns", on: CLUSTER, moves: CLUSTER_ONLY },
    PerLayer { name: "kvs.node_apply_ns", unit: "ns", on: CLUSTER, moves: CLUSTER_ONLY },
    PerLayer { name: "kvs.thread_spawn_share", unit: "ratio", on: CLUSTER, moves: CLUSTER_ONLY },
    PerLayer { name: "budget.local_sum_ns", unit: "ns", on: LOCAL, moves: BUDGET },
    PerLayer { name: "budget.local_unexplained_share", unit: "ratio", on: LOCAL, moves: BUDGET },
    PerLayer { name: "budget.tcp_sum_ns", unit: "ns", on: TCP, moves: BUDGET },
    PerLayer { name: "budget.tcp_unexplained_share", unit: "ratio", on: TCP, moves: BUDGET },
    PerLayer { name: "trace.client_pre_send_ns", unit: "ns", on: KVS, moves: TRACE },
    PerLayer { name: "trace.req_transit_ns", unit: "ns", on: KVS, moves: TRACE },
    PerLayer { name: "trace.server_handle_ns", unit: "ns", on: KVS, moves: TRACE },
    PerLayer { name: "trace.resp_transit_ns", unit: "ns", on: KVS, moves: TRACE },
    PerLayer { name: "trace.client_post_recv_ns", unit: "ns", on: KVS, moves: TRACE },
    PerLayer { name: "trace.ops", unit: "count", on: KVS, moves: TRACE },
    PerLayer { name: "trace.events_per_op", unit: "count", on: KVS, moves: TRACE },
    PerLayer { name: "trace.dropped_events", unit: "count", on: KVS, moves: DISTURBED },
    PerLayer {
        name: "trace.overhead_share",
        unit: "ratio",
        on: KVS,
        moves: "traced / untraced op_p50_us - 1 on the traced workload",
    },
    PerLayer {
        name: "trace.untraced_op_p50_us",
        unit: "us",
        on: KVS,
        moves: "the untraced reference the budget and the overhead are taken against",
    },
];

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `"name"` (and, for metrics, `"unit"`) pairs of one top-level
/// array of `BENCHMARK.json`. A scanner, not a parser: enough for a
/// flat array of flat objects.
fn section(text: &str, key: &str) -> Vec<(String, String)> {
    let Some(at) = text.find(&format!("\"{key}\"")) else { return Vec::new() };
    let Some(open) = text[at..].find('[') else { return Vec::new() };
    let body = &text[at + open..];
    let end = body.find(']').unwrap_or(body.len());
    let field = |object: &str, field: &str| -> String {
        object
            .split_once(&format!("\"{field}\""))
            .and_then(|(_, rest)| rest.split('"').nth(1))
            .unwrap_or_default()
            .to_string()
    };
    body[..end].split('}').map(|object| (field(object, "name"), field(object, "unit"))).collect()
}

/// `--check-names`: every workload and metric this binary emits is in
/// `BENCHMARK.json` under the same name and unit, nothing there is
/// unknown here, and every name is made of allowed characters.
pub fn check_names(benchmark_json: &str) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let mut compare = |key: &str, ours: Vec<(&str, &str)>| {
        let theirs: Vec<(String, String)> =
            section(benchmark_json, key).into_iter().filter(|(name, _)| !name.is_empty()).collect();
        for (name, unit) in &ours {
            if !valid_name(name) {
                problems
                    .push(format!("{key}: {name:?} has characters outside letters, digits, _ . -"));
            }
            match theirs.iter().find(|(theirs, _)| theirs == name) {
                None => {
                    problems.push(format!("{key}: {name} is emitted but not in BENCHMARK.json"))
                }
                Some((_, theirs)) if theirs != unit => {
                    problems.push(format!("{key}: {name} has unit {unit} here, {theirs} there"))
                }
                Some(_) => {}
            }
        }
        for (name, _) in &theirs {
            if !ours.iter().any(|(ours, _)| ours == name) {
                problems.push(format!("{key}: {name} is in BENCHMARK.json but never emitted"));
            }
        }
    };
    compare("workloads", WORKLOADS.iter().map(|w| (w.name, "")).collect());
    compare("end_to_end", END_TO_END.iter().map(|m| (m.name, m.unit)).collect());
    compare("per_layer", PER_LAYER.iter().map(|m| (m.name, m.unit)).collect());
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}
