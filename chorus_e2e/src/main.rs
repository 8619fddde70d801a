//! `chorus_e2e`: the repo benchmark.
//!
//! Four closed-loop KVS workloads measured end to end with tracing off,
//! then a separate traced pass that times each layer from outside (the
//! probes), records spans through a bench-owned `Layer`, and sums the
//! probes into ROADMAP item 1's latency budget. See the package's
//! `README.md`.
//!
//! ```text
//! chorus_e2e [--seed N] [--seconds S] [--workload NAME] [--no-trace] [--quick]
//!            [--out FILE] [--trace-out FILE]      report: every metric, by name
//! chorus_e2e --workload NAME --seed N --seconds S --trace 0|1
//!                                                 one run; last line is the result JSON
//! chorus_e2e --check-names                        compare names with BENCHMARK.json
//! ```

mod affinity;
mod alloc;
mod catalog;
mod gen;
mod probes;
mod stats;
mod trace;
mod workloads;

use affinity::{place, Place};
use catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use probes::{Probed, Values};
use std::io::Write as _;
use trace::TraceSummary;
use workloads::{
    add_link_stats, run_blocking, run_cluster, run_pooled, Budget, Fabric as _, LocalFabric,
    RunCfg, RunResult, TcpFabric, POOLED_WINDOW, POOL_SIZE,
};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 20_250_729;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// Ops per workload whose spans are written to the trace file.
const TRACE_OPS_WRITTEN: usize = 20_000;

struct Args {
    seed: u64,
    seconds: f64,
    workload: Option<&'static catalog::Workload>,
    /// `--trace 0|1`: a single run whose last line is the result JSON.
    single_run: Option<bool>,
    no_trace: bool,
    quick: bool,
    out: Option<String>,
    trace_out: String,
    check_names: bool,
    /// CPUs this process may run on at start, and the two the client
    /// and the server side are confined to (`affinity.rs`).
    host_cores: usize,
    sides: Option<(usize, usize)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        workload: None,
        single_run: None,
        no_trace: false,
        quick: false,
        out: None,
        trace_out: "trace.jsonl".into(),
        check_names: false,
        host_cores: stats::host_cores(),
        sides: affinity::init(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| w.name == name);
                args.workload = Some(known.ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--trace" => {
                args.single_run = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--no-trace" => args.no_trace = true,
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?),
            "--trace-out" => args.trace_out = value()?,
            "--check-names" => args.check_names = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.single_run.is_some() && args.workload.is_none() {
        return Err("--trace 0|1 needs --workload".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("chorus_e2e: {problem}");
            std::process::exit(2);
        }
    };
    if args.check_names {
        check_names();
        return;
    }
    // `LocalTransport` sizes its spin budget from `available_parallelism`
    // when the first one is built, and keeps it. Build that one now: once
    // the driver thread is confined to its side's CPU it would read 1,
    // and no `LocalTransport` of this run would ever spin.
    drop(LocalFabric::connect());
    println!(
        "# chorus_e2e  seed={}  seconds={}{}  host_cores={}  placement={}  pool_size={POOL_SIZE}  \
         window={POOLED_WINDOW}  loopback only, closed loop, one driver thread",
        args.seed,
        args.seconds,
        if args.quick { " (quick: x0.02)" } else { "" },
        args.host_cores,
        match args.sides {
            Some((client, server)) => format!("client side cpu {client}, server side cpu {server}"),
            None => "none (fewer than two CPUs allowed)".to_string(),
        },
    );
    match args.single_run {
        Some(false) => single_untraced(&args),
        Some(true) => single_traced(&args),
        None => report(&args),
    }
}

fn check_names() {
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => text,
        Err(e) => {
            eprintln!("chorus_e2e: reading BENCHMARK.json from the current directory: {e}");
            std::process::exit(1);
        }
    };
    match catalog::check_names(&text) {
        Ok(()) => println!(
            "names agree: {} workloads, {} end-to-end and {} per-layer metrics",
            WORKLOADS.len(),
            END_TO_END.len(),
            PER_LAYER.len()
        ),
        Err(problems) => {
            for problem in problems {
                eprintln!("chorus_e2e: {problem}");
            }
            std::process::exit(1);
        }
    }
}

/// `--quick` runs the same code on about 2 % of the work.
fn scale(args: &Args) -> f64 {
    if args.quick {
        0.02
    } else {
        1.0
    }
}

/// Measured ops of a pass inside the traced run: four events per op on
/// the driver thread must fit its trace buffer, and the untraced
/// references stop at the same count so that they compare.
const TRACED_MAX_OPS: u64 = 250_000;

fn run_workload<const TRACED: bool>(
    workload: &catalog::Workload,
    seed: u64,
    seconds: f64,
    extra_setups: usize,
    in_traced_run: bool,
) -> RunResult {
    let max_ops = if in_traced_run { TRACED_MAX_OPS } else { workload.max_ops };
    let cfg = RunCfg { seed, budget: Budget::Seconds(seconds), extra_setups, max_ops };
    match workload.name {
        "kvs_rt_local" => run_blocking::<LocalFabric, TRACED>(workload.name, &cfg),
        "kvs_rt_tcp" => run_blocking::<TcpFabric, TRACED>(workload.name, &cfg),
        "kvs_pooled_tcp" => run_pooled::<TcpFabric, false, TRACED>(workload.name, &cfg),
        "cluster_sim_reshard" => run_cluster(workload.name, &cfg),
        other => unreachable!("{other} is not in the catalog"),
    }
}

/// The end-to-end metrics of a pass, in catalog order.
fn end_to_end(run: &RunResult) -> Vec<f64> {
    vec![
        run.setup_median_s(),
        run.sliced.p50_us,
        run.sliced.p90_us,
        run.sliced.ops_per_s,
        run.cpu_us_per_op,
        run.msgs_per_op,
        run.rss_growth_bytes_per_op,
    ]
}

fn print_end_to_end(run: &RunResult) {
    let w = run.workload;
    let why = WORKLOADS.iter().find(|known| known.name == w).map_or("", |known| known.why);
    println!("## {w}: {why}");
    println!(
        "## {w}: end to end (untraced), {} measured ops in {:.2} s",
        run.measured_ops, run.measured_s
    );
    for (metric, value) in END_TO_END.iter().zip(end_to_end(run)) {
        let samples = match metric.name {
            "setup_s" => format!("median of {} set-ups", run.setup_s.len()),
            "op_p50_us" | "op_p90_us" | "ops_per_s" => {
                format!("median of 10 equal op-count slices, n={}", run.measured_ops)
            }
            "rss_growth_bytes_per_op" => {
                format!("(RSS at end - RSS after warm-up) / {} ops", run.measured_ops)
            }
            _ => format!("n={}", run.measured_ops),
        };
        println!("{w} {:<30} {value:>14.4} {:<6} ({samples})", metric.name, metric.unit);
    }
    match run.payload_bytes_per_op {
        Some(bytes) => {
            println!("{w} {:<30} {bytes:>14.4} bytes  (TransportMetrics)", "payload_bytes_per_op")
        }
        None => println!(
            "{w} {:<30} {:>14} bytes  (SimCluster exposes no byte counter)",
            "payload_bytes_per_op", "n/a"
        ),
    }
    println!(
        "{w} {:<30} {:>14.6} ratio  ({} failed of {} attempted)",
        "failed_ops_share",
        run.failed as f64 / run.attempted as f64,
        run.failed,
        run.attempted
    );
    // Diagnostics, not gated: the tail moved 2x between identical runs.
    println!("{w} {:<30} {:>14.4} us     (whole phase)", "driver.op_p50_us", run.lat_us(0.5));
    println!("{w} {:<30} {:>14.4} us     (whole phase)", "driver.op_p90_us", run.lat_us(0.9));
    println!("{w} {:<30} {:>14.4} us", "driver.op_p99_us", run.lat_us(0.99));
    println!("{w} {:<30} {:>14.4} us", "driver.op_p999_us", run.lat_us(0.999));
    println!("{w} {:<30} {:>14} count", "driver.port_retries", run.port_retries);
    if let Some(cluster) = &run.cluster {
        for (name, rate) in [
            ("driver.steady_ops_per_s", cluster.steady_ops_per_s),
            ("driver.migrating_ops_per_s", cluster.migrating_ops_per_s),
            ("driver.after_ops_per_s", cluster.after_ops_per_s),
        ] {
            println!("{w} {name:<30} {rate:>14.4} 1/s    (ops over summed op time)");
        }
    }
    if let Some(link) = run.link {
        println!("{w} {:<30} {:>14} count", "driver.tcp_reconnects", link.reconnects);
        println!("{w} {:<30} {:>14} count", "driver.tcp_replayed_frames", link.replayed_frames);
        println!("{w} {:<30} {:>14} count", "driver.tcp_duplicate_frames", link.duplicate_frames);
    }
}

/// A value that is not a number (a ratio over a pass that measured no
/// op, say) is written as 0, which JSON can hold; [`print_result`] then
/// reports the run as incorrect.
fn metric_json((name, unit, value): &(&str, &str, f64)) -> String {
    let value = if value.is_finite() { *value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// The last line of a single run: exactly the keys the driver reads.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) {
    let correct = correct && metrics.iter().all(|(_, _, value)| value.is_finite());
    let metrics: Vec<String> = metrics.iter().map(metric_json).collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}

fn single_untraced(args: &Args) {
    let workload = args.workload.expect("checked by parse_args");
    let extra_setups = if args.quick { 2 } else { workload.extra_setups };
    let seconds = args.seconds * scale(args);
    let run = run_workload::<false>(workload, args.seed, seconds, extra_setups, false);
    print_end_to_end(&run);
    let metrics: Vec<(&str, &str, f64)> =
        END_TO_END.iter().zip(end_to_end(&run)).map(|(m, v)| (m.name, m.unit, v)).collect();
    print_result(run.failed == 0, run.attempted, run.failed, &metrics);
}

/// The per-layer metrics of one workload's traced pass.
struct Traced {
    values: Values,
    attempted: u64,
    failed: u64,
}

/// Seconds of the untraced reference and of the traced pass that is
/// compared with it.
///
/// The reference is taken here, not from a full end-to-end run: an
/// endpoint's latency rises with the number of sessions it has seen
/// (see the README), so only passes of the same length compare.
fn pass_seconds(args: &Args) -> f64 {
    (args.seconds * scale(args) * 0.25).clamp(0.2, 5.0)
}

/// The traced pass of `workload`: the probes of its layers, then, where
/// a layer can be installed on the endpoints from outside, an untraced
/// reference and the same pass traced.
fn traced_pass(
    workload: &catalog::Workload,
    args: &Args,
    trace_file: &mut std::io::BufWriter<std::fs::File>,
) -> Traced {
    let Probed { mut values, mut links, mut attempted, mut failed } =
        probes::for_workload(workload.name, args.seed, scale(args));
    // SimCluster builds its endpoints itself: there is nothing to trace
    // or count, and its `trace.*` and `comm.*` stay at 0.
    if workload.name != "cluster_sim_reshard" {
        let seconds = pass_seconds(args);
        let reference = run_workload::<false>(workload, args.seed, seconds, 0, true);
        let run = run_workload::<true>(workload, args.seed, seconds, 0, true);
        let ids = run.measured_ids.clone();
        let spans = trace::finish(workload.name, ids, trace_file, TRACE_OPS_WRITTEN)
            .unwrap_or_else(|e| {
                eprintln!("chorus_e2e: writing the trace: {e}");
                std::process::exit(1);
            });
        for pass in [&reference, &run] {
            attempted += pass.attempted;
            failed += pass.failed;
            links = pass.link.map_or(links, |link| add_link_stats(links, link));
        }
        let reference_p50_us = reference.sliced.p50_us;
        insert_spans(&mut values, &spans);
        values.insert("comm.payload_bytes_per_op", run.payload_bytes_per_op.unwrap_or_default());
        values.insert("trace.untraced_op_p50_us", reference_p50_us);
        values.insert("trace.overhead_share", run.sliced.p50_us / reference_p50_us - 1.0);
        if workload.name != "kvs_rt_local" {
            values.insert("tcp.reconnects", links.reconnects as f64);
            values.insert("tcp.replayed_frames", links.replayed_frames as f64);
            values.insert("tcp.duplicate_frames", links.duplicate_frames as f64);
        }
        if workload.name != "kvs_pooled_tcp" {
            budget(&mut values, workload.name, reference_p50_us * 1e3);
        }
    }
    Traced { values, attempted, failed }
}

fn insert_spans(values: &mut Values, spans: &TraceSummary) {
    values.insert("trace.client_pre_send_ns", spans.client_pre_send_ns);
    values.insert("trace.req_transit_ns", spans.req_transit_ns);
    values.insert("trace.server_handle_ns", spans.server_handle_ns);
    values.insert("trace.resp_transit_ns", spans.resp_transit_ns);
    values.insert("trace.client_post_recv_ns", spans.client_post_recv_ns);
    values.insert("trace.ops", spans.ops as f64);
    values.insert("trace.events_per_op", spans.events as f64 / spans.ops.max(1) as f64);
    values.insert("trace.dropped_events", spans.dropped as f64);
}

/// ROADMAP item 1's budget for one of the two blocking paths: the
/// probes along one op, summed against the untraced median. Printed as
/// a table.
fn budget(values: &mut Values, path: &str, p50_ns: f64) {
    let v = |name: &str| values.get(name).copied().unwrap_or_default();
    let ser = v("wire.ser_request_ns");
    let de = v("wire.de_response_ns");
    let open = v("core.session_open_ns");
    // Each op's two messages are the first of their session at the
    // receiving end, so the fresh-session probe is the one that applies;
    // it contains one serialization and two session opens.
    let send_recv = v("core.send_recv_fresh_session_ns") - ser - 2.0 * open;
    let first_message =
        v("core.send_recv_fresh_session_ns") - 2.0 * open - v("core.send_recv_same_thread_ns");
    let crossing = v("core.park_handoff_ns") - (v("core.send_recv_same_thread_ns") - ser);
    let (crossing, sum_name, share_name) = match path {
        "kvs_rt_local" => (
            ("2 x thread crossing (park hand-off - same-thread send/recv)", 2.0 * crossing),
            "budget.local_sum_ns",
            "budget.local_unexplained_share",
        ),
        _ => (
            ("2 x raw TCP half-trip", v("tcp.raw_rt_p50_us") * 1e3),
            "budget.tcp_sum_ns",
            "budget.tcp_unexplained_share",
        ),
    };
    let lines = [
        // The server opens its next session while the client checks the
        // reply and issues the next op: only the client's is on the path.
        ("1 x session open (the client's)", open),
        (
            "1 x EPP dispatch (Runner::run - store op)",
            v("core.epp_dispatch_ns") - v("protocols.store_op_ns"),
        ),
        ("1 x store op", v("protocols.store_op_ns")),
        ("2 x serialize", 2.0 * ser),
        ("2 x deserialize", 2.0 * de),
        (
            "2 x send/recv bookkeeping on a fresh session (same thread, ser excluded)",
            2.0 * send_recv,
        ),
        ("2 x counter layer (TransportMetrics hooks)", 2.0 * v("core.metrics_layer_ns")),
        crossing,
    ];
    println!("## budget: {path}, probes along one op's blocking path");
    let mut sum = 0.0;
    for (line, ns) in lines {
        println!("  {ns:>10.1} ns  {:>5.1} %  {line}", 100.0 * ns / p50_ns);
        sum += ns;
    }
    println!("  {sum:>10.1} ns  {:>5.1} %  sum of probes", 100.0 * sum / p50_ns);
    println!("  {p50_ns:>10.1} ns  100.0 %  untraced op_p50_us");
    println!(
        "  {:>10.1} ns  {:>5.1} %  unexplained",
        p50_ns - sum,
        100.0 * (p50_ns - sum) / p50_ns
    );
    println!(
        "  (of the send/recv line, a session's first message costs {first_message:.1} ns more \
         than a later one)"
    );
    values.insert(sum_name, sum);
    values.insert(share_name, (p50_ns - sum) / p50_ns);
}

/// Every per-layer metric in catalog order: the value `workload`'s
/// traced pass measured, or 0 for a metric of a layer it does not
/// exercise (`on` in the catalog). One it should have measured and did
/// not is a bug here.
fn per_layer(workload: &str, values: &Values) -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|m| {
            let value = match values.get(m.name) {
                Some(value) => *value,
                None if !m.on.contains(&workload) => 0.0,
                None => panic!("{} was never measured on {workload}", m.name),
            };
            (m.name, m.unit, value)
        })
        .collect()
}

fn print_per_layer(workload: &str, values: &Values) {
    println!("## {workload}: per layer (traced pass; the other layers' metrics read 0 here)");
    for metric in PER_LAYER.iter().filter(|m| m.on.contains(&workload)) {
        let value = values.get(metric.name).copied().unwrap_or_default();
        println!(
            "{workload} {:<40} {value:>16.4} {:<6} -> {}",
            metric.name, metric.unit, metric.moves
        );
    }
}

fn open_trace(args: &Args) -> std::io::BufWriter<std::fs::File> {
    trace::create(&args.trace_out, args.seed).unwrap_or_else(|e| {
        eprintln!("chorus_e2e: creating {}: {e}", args.trace_out);
        std::process::exit(1);
    })
}

fn close_trace(mut file: std::io::BufWriter<std::fs::File>, args: &Args) {
    if let Err(e) = file.flush() {
        eprintln!("chorus_e2e: writing {}: {e}", args.trace_out);
        std::process::exit(1);
    }
}

fn single_traced(args: &Args) {
    let workload = args.workload.expect("checked by parse_args");
    let mut trace_file = open_trace(args);
    let traced = traced_pass(workload, args, &mut trace_file);
    close_trace(trace_file, args);
    print_per_layer(workload.name, &traced.values);
    let metrics = per_layer(workload.name, &traced.values);
    print_result(traced.failed == 0, traced.attempted, traced.failed, &metrics);
}

/// One untraced workload run in a process of its own, exactly as a
/// gated run is: what one workload retains must not slow the next.
struct ChildRun {
    workload: &'static str,
    /// The child's result line.
    json: String,
}

impl ChildRun {
    /// The `"failed"` count of the result line.
    fn failed(&self) -> u64 {
        let count = self
            .json
            .split_once("\"failed\": ")
            .and_then(|(_, rest)| rest[..rest.find(',')?].parse().ok());
        count.expect("a result line has a failed count")
    }
}

fn untraced_child(workload: &catalog::Workload, args: &Args) -> ChildRun {
    // A child starts on the CPUs of the thread that spawns it.
    place(Place::Anywhere);
    let mut command = std::process::Command::new(std::env::current_exe().expect("own path"));
    command.args(["--workload", workload.name, "--trace", "0"]).args([
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]);
    if args.quick {
        command.arg("--quick");
    }
    let output = command.stderr(std::process::Stdio::inherit()).output().unwrap_or_else(|e| {
        eprintln!("chorus_e2e: running {}: {e}", workload.name);
        std::process::exit(1);
    });
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, json) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", ""));
    // The child's header line repeats ours.
    for line in report.lines().filter(|line| !line.starts_with("# ")) {
        println!("{line}");
    }
    if !output.status.success() || !json.starts_with('{') {
        eprintln!("chorus_e2e: the {} run failed ({})", workload.name, output.status);
        std::process::exit(1);
    }
    ChildRun { workload: workload.name, json: json.to_string() }
}

/// The report: every selected workload untraced, each in its own
/// process, then the traced pass in this one.
fn report(args: &Args) {
    let selected: Vec<&catalog::Workload> =
        WORKLOADS.iter().filter(|w| args.workload.is_none_or(|only| only.name == w.name)).collect();
    let runs: Vec<ChildRun> = selected.iter().map(|w| untraced_child(w, args)).collect();
    let mut traced: Vec<(&str, Traced)> = Vec::new();
    if !args.no_trace {
        let mut trace_file = open_trace(args);
        for workload in &selected {
            let pass = traced_pass(workload, args, &mut trace_file);
            print_per_layer(workload.name, &pass.values);
            traced.push((workload.name, pass));
        }
        close_trace(trace_file, args);
        println!(
            "# spans of the first {TRACE_OPS_WRITTEN} measured ops per traced workload: {}",
            args.trace_out
        );
    }
    let failed = runs.iter().map(ChildRun::failed).sum::<u64>()
        + traced.iter().map(|(_, t)| t.failed).sum::<u64>();
    if let Some(path) = &args.out {
        if let Err(e) = write_out(path, args, &runs, &traced) {
            eprintln!("chorus_e2e: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("# results: {path}");
    }
    if failed > 0 {
        eprintln!("chorus_e2e: {failed} ops failed or were answered wrongly");
        std::process::exit(1);
    }
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `--out`: the whole report as one JSON document.
fn write_out(
    path: &str,
    args: &Args,
    runs: &[ChildRun],
    traced: &[(&str, Traced)],
) -> std::io::Result<()> {
    let workloads: Vec<String> = runs
        .iter()
        .map(|run| {
            let per_layer: Vec<String> = traced
                .iter()
                .filter(|(name, _)| *name == run.workload)
                .flat_map(|(name, pass)| per_layer(name, &pass.values))
                .map(|metric| metric_json(&metric))
                .collect();
            format!(
                "    {{\"name\": \"{}\",\n     \"untraced\": {},\n     \"per_layer\": {{{}}}}}",
                run.workload,
                run.json,
                per_layer.join(", ")
            )
        })
        .collect();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\n  \"benchmark\": \"chorus_e2e\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"quick\": {},\n  \
         \"host_cores\": {},\n  \"client_and_server_side_cpu\": {},\n  \"pool_size\": {POOL_SIZE},\n  \
         \"window\": {POOLED_WINDOW},\n  \"git_revision\": \"{}\",\n  \"workloads\": [\n{}\n  ]\n}}",
        args.seed,
        args.seconds,
        args.quick,
        args.host_cores,
        args.sides.map_or("null".to_string(), |(client, server)| format!("[{client}, {server}]")),
        git_revision(),
        workloads.join(",\n")
    )?;
    out.flush()
}
