//! The four closed-loop workloads and the rigs they run on.
//!
//! Load shape, all workloads: one driver thread; the next op is issued
//! when the previous one (for `kvs_pooled_tcp`, the oldest of
//! [`POOLED_WINDOW`]) has completed and been checked. Loopback only.

use crate::affinity::{place, Place};
use crate::gen::{key_name, Issued, KvsModel, Op, OpStream, CLUSTER_KEYS};
use crate::stats;
use crate::trace::{self, Point, Side, SpanLayer};
use chorus_core::{
    Endpoint, RoleProgram, SessionCx, SessionRuntime, SessionTransport, Step, TransportError,
};
use chorus_kvs::{KvsError, KvsOp, OpOutcome, SimCluster};
use chorus_protocols::kvs_simple::{PooledKvsClient, PooledKvsServer, SimpleKvs, SimpleKvsCensus};
use chorus_protocols::roles::{Client, Primary};
use chorus_protocols::store::{Request, Response, SharedStore};
use chorus_transport::{
    FaultPlan, LocalTransport, LocalTransportChannel, TcpConfigBuilder, TcpLinkStats, TcpTransport,
    TransportMetrics,
};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub type Census = SimpleKvsCensus;

/// Sessions in flight on `kvs_pooled_tcp`.
pub const POOLED_WINDOW: usize = 32;
/// Workers of the pooled runtime: one per core of this host. They are
/// not pinned (see `affinity.rs`).
pub const POOL_SIZE: usize = 2;
/// Share of `--seconds` run before measuring starts, excluded from
/// every metric.
const WARMUP_SHARE: f64 = 0.05;

/// How long a pass runs: the end-to-end runs are timed, the cluster
/// probe counts ops so its frame and tick counts repeat exactly.
#[derive(Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Ops(u64),
}

#[derive(Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub budget: Budget,
    /// Set-ups timed before the measured one (`setup_s` is their median
    /// together with it).
    pub extra_setups: usize,
    /// Ceiling on measured ops, so retained per-session state cannot
    /// exhaust memory if a later change makes ops much faster.
    pub max_ops: u64,
}

/// What one pass of one workload measured.
pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub measured_ops: u64,
    pub setup_s: Vec<f64>,
    /// Ascending per-op latencies of the measured phase.
    pub lat_ns: Vec<u32>,
    pub sliced: stats::Sliced,
    pub cpu_us_per_op: f64,
    pub msgs_per_op: f64,
    /// `None` where no byte counter can be reached from outside.
    pub payload_bytes_per_op: Option<f64>,
    /// (RSS at end − RSS after warm-up) ÷ measured ops. The driver's
    /// own sample buffers (12 B per op, touched as they fill) are in it.
    pub rss_growth_bytes_per_op: f64,
    pub measured_s: f64,
    /// Session ids of the measured ops, for the trace.
    pub measured_ids: std::ops::Range<u64>,
    pub link: Option<TcpLinkStats>,
    pub port_retries: u64,
    pub pooled: Option<PooledStats>,
    pub cluster: Option<ClusterStats>,
}

impl RunResult {
    /// A whole-phase latency percentile (the gated p50 and p90 are the
    /// sliced ones).
    pub fn lat_us(&self, p: f64) -> f64 {
        f64::from(stats::percentile(&self.lat_ns, p)) / 1e3
    }

    pub fn setup_median_s(&self) -> f64 {
        stats::median_f64(&mut self.setup_s.clone())
    }
}

/// The counters a measured phase starts from.
struct Baseline {
    start: Instant,
    rss: u64,
    cpu_us: u64,
    msgs: u64,
    bytes: u64,
}

impl Baseline {
    /// Reads the process counters now, beside the given traffic totals.
    fn take(msgs: u64, bytes: u64) -> Self {
        Baseline {
            start: Instant::now(),
            rss: stats::rss_bytes(),
            cpu_us: stats::cpu_us(),
            msgs,
            bytes,
        }
    }
}

/// Per-op samples of the measured phase.
struct Samples {
    lat_ns: Vec<u32>,
    done_ns: Vec<u64>,
}

impl Samples {
    fn with_capacity(ops: u64) -> Self {
        Samples {
            lat_ns: Vec::with_capacity(ops as usize),
            done_ns: Vec::with_capacity(ops as usize),
        }
    }

    fn push(&mut self, issued: Instant, done: Instant, phase_start: Instant) {
        self.lat_ns.push(u32::try_from((done - issued).as_nanos()).unwrap_or(u32::MAX));
        self.done_ns.push((done - phase_start).as_nanos() as u64);
    }
}

/// Turns a pass's raw samples and counter deltas into a [`RunResult`].
#[allow(clippy::too_many_arguments)]
fn summarize(
    workload: &'static str,
    attempted: u64,
    failed: u64,
    setup_s: Vec<f64>,
    baseline: &Baseline,
    mut samples: Samples,
    msgs_end: u64,
    bytes_end: Option<u64>,
    measured_ids: std::ops::Range<u64>,
) -> RunResult {
    let measured_ops = samples.lat_ns.len() as u64;
    let per_op = |total: u64| total as f64 / measured_ops.max(1) as f64;
    let rss_growth = stats::rss_bytes().saturating_sub(baseline.rss);
    let measured_s = samples.done_ns.last().copied().unwrap_or(0) as f64 / 1e9;
    let sliced = stats::sliced(&samples.done_ns, &samples.lat_ns);
    samples.lat_ns.sort_unstable();
    RunResult {
        workload,
        attempted,
        failed,
        measured_ops,
        setup_s,
        lat_ns: samples.lat_ns,
        sliced,
        cpu_us_per_op: per_op(stats::cpu_us() - baseline.cpu_us),
        msgs_per_op: per_op(msgs_end - baseline.msgs),
        payload_bytes_per_op: bytes_end.map(|end| per_op(end - baseline.bytes)),
        // Gated metrics must never read 0, hence the floor.
        rss_growth_bytes_per_op: per_op(rss_growth).max(1.0),
        measured_s,
        measured_ids,
        link: None,
        port_retries: 0,
        pooled: None,
        cluster: None,
    }
}

/// Warm-up duration, measured duration (timed passes) and the most ops
/// a pass may measure.
fn phases(cfg: &RunCfg) -> (Duration, Option<Duration>, u64) {
    match cfg.budget {
        Budget::Seconds(s) => (
            Duration::from_secs_f64((s * WARMUP_SHARE).max(0.05)),
            Some(Duration::from_secs_f64(s)),
            cfg.max_ops,
        ),
        Budget::Ops(n) => (Duration::ZERO, None, n.min(cfg.max_ops)),
    }
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

/// A way to connect a client and a server endpoint.
pub trait Fabric {
    type C: SessionTransport<Census, Client> + Send + Sync + 'static;
    type S: SessionTransport<Census, Primary> + Send + Sync + 'static;

    /// Connects a fresh pair; the count is set-up retries after a
    /// stolen port.
    fn connect() -> (Self::C, Self::S, u64);

    /// Link-layer counters of both ends, summed (`None`: no link layer).
    fn link_stats(client: &Self::C, server: &Self::S) -> Option<TcpLinkStats>;

    /// Waits until neither end is owed an acknowledgement, so that
    /// dropping the pair does not linger.
    fn quiesce(_client: &Self::C, _server: &Self::S) {}
}

pub struct LocalFabric;

impl Fabric for LocalFabric {
    type C = LocalTransport<Census, Client>;
    type S = LocalTransport<Census, Primary>;

    fn connect() -> (Self::C, Self::S, u64) {
        let channel = LocalTransportChannel::<Census>::new();
        (LocalTransport::new(Client, channel.clone()), LocalTransport::new(Primary, channel), 0)
    }

    fn link_stats(_: &Self::C, _: &Self::S) -> Option<TcpLinkStats> {
        None
    }
}

pub struct TcpFabric;

/// Binds a loopback TCP pair in resilient mode with the default flush.
///
/// Addresses are picked in this one place. The OS hands out two free
/// ports, which another process may take before `bind` reaches them:
/// that costs a retry inside the timed set-up, never a failed run.
///
/// Each end is bound from its own side's CPU, so that the threads it
/// spawns stay there; the caller is left on the client side.
pub fn tcp_pair() -> (TcpTransport<Census, Client>, TcpTransport<Census, Primary>, u64) {
    const ATTEMPTS: u64 = 16;
    let mut retries = 0;
    loop {
        let addrs = chorus_transport::free_local_addrs(2).expect("loopback has free ports");
        let config = TcpConfigBuilder::new()
            .location(Client, addrs[0])
            .location(Primary, addrs[1])
            .build::<Census>()
            .expect("both locations have an address");
        place(Place::ServerSide);
        let server = TcpTransport::bind(Primary, config.clone());
        place(Place::ClientSide);
        let bound = server.and_then(|server| Ok((TcpTransport::bind(Client, config)?, server)));
        match bound {
            Ok((client, server)) => return (client, server, retries),
            Err(TransportError::Io(e))
                if e.kind() == std::io::ErrorKind::AddrInUse && retries < ATTEMPTS =>
            {
                retries += 1;
            }
            Err(e) => panic!("binding a loopback TCP pair: {e}"),
        }
    }
}

pub fn add_link_stats(a: TcpLinkStats, b: TcpLinkStats) -> TcpLinkStats {
    TcpLinkStats {
        reconnects: a.reconnects + b.reconnects,
        replayed_frames: a.replayed_frames + b.replayed_frames,
        duplicate_frames: a.duplicate_frames + b.duplicate_frames,
        heartbeats: a.heartbeats + b.heartbeats,
        links_down: a.links_down + b.links_down,
        batches: a.batches + b.batches,
        batched_frames: a.batched_frames + b.batched_frames,
        deposited_frames: a.deposited_frames + b.deposited_frames,
        batch_histogram: std::array::from_fn(|i| a.batch_histogram[i] + b.batch_histogram[i]),
    }
}

impl Fabric for TcpFabric {
    type C = TcpTransport<Census, Client>;
    type S = TcpTransport<Census, Primary>;

    fn connect() -> (Self::C, Self::S, u64) {
        tcp_pair()
    }

    fn link_stats(client: &Self::C, server: &Self::S) -> Option<TcpLinkStats> {
        Some(add_link_stats(client.link_stats(), server.link_stats()))
    }

    /// A resilient endpoint lingers on drop (up to 3 s) while frames it
    /// sent are unacknowledged, and the peer's readers, which owe those
    /// acks on their next idle tick (100 ms), die with the peer. Waiting
    /// here for both retention queues to drain keeps tear-down short
    /// whichever end drops first.
    fn quiesce(client: &Self::C, server: &Self::S) {
        let deadline = Instant::now() + Duration::from_secs(1);
        while (client.retention("Primary").0 > 0 || server.retention("Client").0 > 0)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Builds both endpoints over a fresh pair of `F`, with the shared
/// message counter and, when `traced`, the span layer.
fn endpoints<F: Fabric>(
    traced: bool,
) -> (Endpoint<Census, Client, F::C>, Endpoint<Census, Primary, F::S>, Arc<TransportMetrics>, u64) {
    let (client, server, retries) = F::connect();
    let metrics = Arc::new(TransportMetrics::new());
    let mut client = Endpoint::builder(Client).transport(client).layer(Arc::clone(&metrics));
    let mut server = Endpoint::builder(Primary).transport(server).layer(Arc::clone(&metrics));
    if traced {
        client = client.layer(SpanLayer(Side::Client));
        server = server.layer(SpanLayer(Side::Server));
    }
    (client.build(), server.build(), metrics, retries)
}

// ---------------------------------------------------------------------
// kvs_rt_local / kvs_rt_tcp: one blocking session per op
// ---------------------------------------------------------------------

/// One long-lived endpoint pair with a server thread that answers one
/// `SimpleKvs` session per op, in session-id order.
pub struct BlockingRig<F: Fabric> {
    pub client: Endpoint<Census, Client, F::C>,
    server: JoinHandle<Endpoint<Census, Primary, F::S>>,
    /// The id of the last session the server should answer.
    last_id: Arc<AtomicU64>,
    pub metrics: Arc<TransportMetrics>,
    pub model: KvsModel,
    pub next_id: u64,
    pub port_retries: u64,
}

impl<F: Fabric> BlockingRig<F> {
    /// Builds the endpoints, starts the server thread, pre-loads the
    /// store and completes one checked op. The caller becomes the
    /// client side's driver thread.
    pub fn set_up(traced: bool) -> Self {
        place(Place::ClientSide);
        let (client, server, metrics, port_retries) = endpoints::<F>(traced);
        let model = KvsModel::new();
        let store = SharedStore::new();
        model.preload(&store);
        let last_id = Arc::new(AtomicU64::new(u64::MAX));
        let last = Arc::clone(&last_id);
        let server = std::thread::Builder::new()
            .name("e2e-server".into())
            .spawn(move || {
                place(Place::ServerSide);
                if traced {
                    trace::init_thread();
                }
                let mut id = 0;
                loop {
                    let session = server.session_with_id(id);
                    session.epp_and_run(SimpleKvs {
                        request: session.remote(Client),
                        state: session.local(store.clone()),
                    });
                    drop(session);
                    // Set before the client issues its final op, so it
                    // is visible once that op has been answered.
                    if last.load(Ordering::SeqCst) == id {
                        return server;
                    }
                    id += 1;
                }
            })
            .expect("spawn server thread");
        let mut rig =
            BlockingRig { client, server, last_id, metrics, model, next_id: 0, port_retries };
        let (request, issued) = rig.model.issue(Op::Get(0));
        let reply = rig.op::<false>(request);
        assert!(rig.model.check(&issued, &reply), "set-up op answered {reply:?}");
        rig
    }

    /// One op: open a session, run the choreography, unwrap the reply.
    pub fn op<const TRACED: bool>(&mut self, request: Request) -> Response {
        let id = self.next_id;
        self.next_id += 1;
        if TRACED {
            trace::record(Point::OpStart, id);
        }
        let session = self.client.session_with_id(id);
        if TRACED {
            trace::record(Point::SessionOpened, id);
        }
        let out = session.epp_and_run(SimpleKvs {
            request: session.local(request),
            state: session.remote(Primary),
        });
        if TRACED {
            trace::record(Point::EppDone, id);
        }
        session.unwrap(out)
    }

    /// Issues a final op, which stops the server, and returns both
    /// ends' link counters.
    pub fn shut_down(mut self) -> Option<TcpLinkStats> {
        self.last_id.store(self.next_id, Ordering::SeqCst);
        let (request, _) = self.model.issue(Op::Get(0));
        self.op::<false>(request);
        let server = self.server.join().expect("server thread panicked");
        F::quiesce(self.client.transport(), server.transport());
        F::link_stats(self.client.transport(), server.transport())
    }
}

/// Times `extra + 1` set-ups and keeps the last rig.
fn timed_set_ups<R, T>(
    extra: usize,
    set_up: impl Fn() -> R,
    tear_down: impl Fn(R) -> T,
) -> (R, Vec<f64>) {
    let mut times = Vec::with_capacity(extra + 1);
    for _ in 0..extra {
        let start = Instant::now();
        let rig = set_up();
        times.push(start.elapsed().as_secs_f64());
        tear_down(rig);
    }
    let start = Instant::now();
    let rig = set_up();
    times.push(start.elapsed().as_secs_f64());
    (rig, times)
}

/// `kvs_rt_local` (`F = LocalFabric`) and `kvs_rt_tcp` (`F = TcpFabric`).
pub fn run_blocking<F: Fabric, const TRACED: bool>(
    workload: &'static str,
    cfg: &RunCfg,
) -> RunResult {
    let (mut rig, setup_s) = timed_set_ups(
        cfg.extra_setups,
        || BlockingRig::<F>::set_up(TRACED),
        BlockingRig::shut_down,
    );
    if TRACED {
        trace::init_thread();
    }
    let mut stream = OpStream::kvs(cfg.seed);
    let (warmup, measure, max_ops) = phases(cfg);
    let mut attempted = 1;
    let mut failed = 0;

    // One op of the stream: when it was issued and completed, and
    // whether the reply was right. `None` means the transport failed
    // under it (`epp_and_run` panics on a typed transport error), after
    // which the server may never answer again.
    let mut one_op = |rig: &mut BlockingRig<F>| -> (Instant, Instant, Option<bool>) {
        let (request, issued) = rig.model.issue(stream.next_op());
        let issued_at = Instant::now();
        let reply = catch_unwind(AssertUnwindSafe(|| rig.op::<TRACED>(request))).ok();
        let right = reply.map(|reply| rig.model.check(&issued, &reply));
        if TRACED {
            trace::record(Point::OpEnd, rig.next_id - 1);
        }
        (issued_at, Instant::now(), right)
    };

    let mut broken = false;
    let warmup_end = Instant::now() + warmup;
    while !broken && Instant::now() < warmup_end {
        attempted += 1;
        let right = one_op(&mut rig).2;
        failed += u64::from(right != Some(true));
        broken = right.is_none();
    }

    let baseline = Baseline::take(rig.metrics.total_messages(), rig.metrics.total_bytes());
    let first_id = rig.next_id;
    let mut samples = Samples::with_capacity(max_ops);
    let deadline = measure.map(|m| baseline.start + m);
    while !broken && (samples.lat_ns.len() as u64) < max_ops {
        attempted += 1;
        let (issued_at, done, right) = one_op(&mut rig);
        failed += u64::from(right != Some(true));
        broken = right.is_none();
        samples.push(issued_at, done, baseline.start);
        if deadline.is_some_and(|d| done >= d) {
            break;
        }
    }
    let mut result = summarize(
        workload,
        attempted,
        failed,
        setup_s,
        &baseline,
        samples,
        rig.metrics.total_messages(),
        Some(rig.metrics.total_bytes()),
        first_id..rig.next_id,
    );
    result.port_retries = rig.port_retries;
    if !broken {
        result.link = rig.shut_down();
    }
    result
}

// ---------------------------------------------------------------------
// kvs_pooled_tcp: W sessions in flight on the pooled runtime
// ---------------------------------------------------------------------

/// What the runtime did to one client program, seen from inside a
/// wrapper around it.
#[derive(Default, Clone, Copy)]
pub struct PollStats {
    pub spawn_to_first_poll_ns: u64,
    pub resumes: u32,
    pub pending_resumes: u32,
    /// Summed time between returning `Pending` and the next resume.
    pub pending_to_resume_ns: u64,
}

/// Wraps a role program to stamp when it resolves (the `Timed` shape of
/// `bench_json.rs`) and, with `PROBE`, what the runtime did to it.
struct Stamped<P, const PROBE: bool, const TRACED: bool> {
    inner: P,
    id: u64,
    spawned: Instant,
    pending_since: Option<Instant>,
    polls: PollStats,
}

impl<P, const PROBE: bool, const TRACED: bool> Stamped<P, PROBE, TRACED> {
    fn new(inner: P, id: u64) -> Self {
        Stamped {
            inner,
            id,
            spawned: Instant::now(),
            pending_since: None,
            polls: PollStats::default(),
        }
    }
}

impl<P: RoleProgram, const PROBE: bool, const TRACED: bool> RoleProgram
    for Stamped<P, PROBE, TRACED>
{
    type Output = (P::Output, Instant, PollStats);

    fn resume(&mut self, cx: &mut SessionCx<'_>) -> Result<Step<Self::Output>, TransportError> {
        if PROBE {
            let now = Instant::now();
            if self.polls.resumes == 0 {
                self.polls.spawn_to_first_poll_ns = (now - self.spawned).as_nanos() as u64;
            }
            if let Some(since) = self.pending_since.take() {
                self.polls.pending_to_resume_ns += (now - since).as_nanos() as u64;
            }
            self.polls.resumes += 1;
        }
        match self.inner.resume(cx)? {
            Step::Done(value) => {
                if TRACED {
                    trace::record(Point::OpEnd, self.id);
                }
                Ok(Step::Done((value, Instant::now(), self.polls)))
            }
            Step::Pending => {
                if PROBE {
                    self.polls.pending_resumes += 1;
                    self.pending_since = Some(Instant::now());
                }
                Ok(Step::Pending)
            }
        }
    }
}

/// Runtime figures of a pooled pass (probe passes only).
#[derive(Default, Clone)]
pub struct PooledStats {
    pub spawn_to_first_poll_us_p50: f64,
    pub pending_to_resume_us_p50: f64,
    pub resumes_per_session: f64,
    pub spurious_resume_share: f64,
}

struct PooledRig<F: Fabric> {
    runtime: SessionRuntime,
    client: Arc<Endpoint<Census, Client, F::C>>,
    server: Arc<Endpoint<Census, Primary, F::S>>,
    store: SharedStore,
    metrics: Arc<TransportMetrics>,
    model: KvsModel,
    next_id: u64,
    port_retries: u64,
}

struct InFlight {
    client: chorus_core::SessionHandle<(Response, Instant, PollStats)>,
    server: chorus_core::SessionHandle<()>,
    issued: Issued,
    issued_at: Instant,
}

impl<F: Fabric> PooledRig<F> {
    fn set_up(traced: bool) -> Self {
        place(Place::Anywhere);
        let runtime = SessionRuntime::new(POOL_SIZE);
        place(Place::ClientSide);
        let (client, server, metrics, port_retries) = endpoints::<F>(traced);
        let model = KvsModel::new();
        let store = SharedStore::new();
        model.preload(&store);
        let mut rig = PooledRig {
            runtime,
            client: Arc::new(client),
            server: Arc::new(server),
            store,
            metrics,
            model,
            next_id: 0,
            port_retries,
        };
        let (request, issued) = rig.model.issue(Op::Get(0));
        let first = rig.spawn::<false, false>(request, issued);
        let (_, _, ok) = rig.complete(first);
        assert!(ok.is_some_and(|(ok, _)| ok), "set-up op failed");
        rig
    }

    fn spawn<const PROBE: bool, const TRACED: bool>(
        &mut self,
        request: Request,
        issued: Issued,
    ) -> InFlight {
        let id = self.next_id;
        self.next_id += 1;
        let issued_at = Instant::now();
        if TRACED {
            trace::record(Point::OpStart, id);
        }
        let server = self.runtime.spawn(&self.server, id, PooledKvsServer::new(self.store.clone()));
        let client = self.runtime.spawn(
            &self.client,
            id,
            Stamped::<_, PROBE, TRACED>::new(PooledKvsClient::new(request), id),
        );
        InFlight { client, server, issued, issued_at }
    }

    fn shut_down(self) -> Option<TcpLinkStats> {
        F::quiesce(self.client.transport(), self.server.transport());
        F::link_stats(self.client.transport(), self.server.transport())
    }

    /// Joins both roles of an op and checks the reply. Returns issue
    /// and completion times and, unless a typed error resolved either
    /// handle, whether the reply was right plus the client's poll stats.
    fn complete(&self, op: InFlight) -> (Instant, Instant, Option<(bool, PollStats)>) {
        let client = op.client.join();
        let server = op.server.join();
        match (client, server) {
            (Ok((reply, done, polls)), Ok(())) => {
                (op.issued_at, done, Some((self.model.check(&op.issued, &reply), polls)))
            }
            _ => (op.issued_at, Instant::now(), None),
        }
    }
}

/// `kvs_pooled_tcp` (`F = TcpFabric`) and the TCP-bypassing probe
/// (`F = LocalFabric`).
pub fn run_pooled<F: Fabric, const PROBE: bool, const TRACED: bool>(
    workload: &'static str,
    cfg: &RunCfg,
) -> RunResult {
    let (mut rig, setup_s) =
        timed_set_ups(cfg.extra_setups, || PooledRig::<F>::set_up(TRACED), PooledRig::shut_down);
    if TRACED {
        trace::init_thread();
    }
    let mut stream = OpStream::kvs(cfg.seed);
    let (warmup, measure, max_ops) = phases(cfg);
    let mut attempted = 1u64;
    let mut failed = 0u64;
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(POOLED_WINDOW);
    let mut samples = Samples::with_capacity(max_ops);
    let mut polls: Vec<PollStats> = Vec::new();
    let mut baseline: Option<Baseline> = None;
    let mut first_id = 0;
    let warmup_end = Instant::now() + warmup;
    let mut deadline = None;
    let mut issuing = true;

    loop {
        // Issue the next op once the window has room and no op on the
        // same key is in flight (the per-key model needs them ordered).
        let next = issuing.then(|| stream.next_op());
        let conflict = |q: &VecDeque<InFlight>, key: usize| q.iter().any(|f| f.issued.key() == key);
        while in_flight.len() == POOLED_WINDOW
            || next.as_ref().is_some_and(|op| conflict(&in_flight, op.key()))
            || (next.is_none() && !in_flight.is_empty())
        {
            let oldest = in_flight.pop_front().expect("window is not empty");
            let (issued_at, done, outcome) = rig.complete(oldest);
            match outcome {
                Some((true, stats)) if PROBE => polls.push(stats),
                Some((true, _)) => {}
                _ => failed += 1,
            }
            if let Some(base) = baseline.as_ref().filter(|b| issued_at >= b.start) {
                samples.push(issued_at, done, base.start);
            }
        }
        let Some(op) = next else { break };
        if baseline.is_none() && Instant::now() >= warmup_end {
            let taken = Baseline::take(rig.metrics.total_messages(), rig.metrics.total_bytes());
            first_id = rig.next_id;
            deadline = measure.map(|m| taken.start + m);
            baseline = Some(taken);
        }
        let (request, issued) = rig.model.issue(op);
        attempted += 1;
        in_flight.push_back(rig.spawn::<PROBE, TRACED>(request, issued));
        let issued_measured = baseline.as_ref().map_or(0, |_| rig.next_id - first_id);
        if failed > 0 || issued_measured >= max_ops || deadline.is_some_and(|d| Instant::now() >= d)
        {
            issuing = false;
        }
    }

    let baseline = baseline
        .unwrap_or_else(|| Baseline::take(rig.metrics.total_messages(), rig.metrics.total_bytes()));
    let mut result = summarize(
        workload,
        attempted,
        failed,
        setup_s,
        &baseline,
        samples,
        rig.metrics.total_messages(),
        Some(rig.metrics.total_bytes()),
        first_id..rig.next_id,
    );
    // Up to a window of ops straddles the start of the measured phase,
    // so count traffic over the rig's whole life, where it is exact.
    result.msgs_per_op = rig.metrics.total_messages() as f64 / attempted as f64;
    result.payload_bytes_per_op = Some(rig.metrics.total_bytes() as f64 / attempted as f64);
    result.port_retries = rig.port_retries;
    result.link = rig.shut_down();
    if PROBE && !polls.is_empty() {
        let mut first_poll: Vec<u64> = polls.iter().map(|p| p.spawn_to_first_poll_ns).collect();
        let mut resume_gap: Vec<u64> = polls
            .iter()
            .filter(|p| p.pending_resumes > 0)
            .map(|p| p.pending_to_resume_ns / u64::from(p.pending_resumes))
            .collect();
        first_poll.sort_unstable();
        resume_gap.sort_unstable();
        let resumes: u64 = polls.iter().map(|p| u64::from(p.resumes)).sum();
        let pending: u64 = polls.iter().map(|p| u64::from(p.pending_resumes)).sum();
        result.pooled = Some(PooledStats {
            spawn_to_first_poll_us_p50: stats::percentile(&first_poll, 0.5) as f64 / 1e3,
            pending_to_resume_us_p50: stats::percentile(&resume_gap, 0.5) as f64 / 1e3,
            resumes_per_session: resumes as f64 / polls.len() as f64,
            spurious_resume_share: pending as f64 / resumes.max(1) as f64,
        });
    }
    result
}

// ---------------------------------------------------------------------
// cluster_sim_reshard: chorus_kvs::SimCluster through a live split
// ---------------------------------------------------------------------

/// Figures only the cluster pass produces.
#[derive(Default, Clone)]
pub struct ClusterStats {
    /// Per phase: ops over the summed wall time of the ops themselves
    /// (reconfiguration calls run between ops and are not in it).
    pub steady_ops_per_s: f64,
    pub migrating_ops_per_s: f64,
    pub after_ops_per_s: f64,
    pub freeze_frames: u64,
    pub freeze_wall_ms: f64,
    pub stale_epoch_retries: u64,
    /// Virtual ticks and frames of the measured phase, reconfiguration
    /// included.
    pub ticks: u64,
    pub frames: u64,
}

struct ClusterRig {
    cluster: SimCluster,
    names: Vec<String>,
    /// Data-plane rounds run, stale-epoch retries included: what the
    /// cluster's consistency model must have checked.
    rounds: u64,
    stale_epoch_retries: u64,
}

impl ClusterRig {
    /// N1–N4, 4 shards, RF 3, ideal network, every key pre-loaded.
    fn set_up() -> Self {
        // The cluster spawns five threads per op from this one.
        place(Place::Anywhere);
        let cluster = SimCluster::new(FaultPlan::ideal(), &chorus_kvs::NODE_NAMES, 4);
        let names = (0..CLUSTER_KEYS).map(key_name).collect();
        let mut rig = ClusterRig { cluster, names, rounds: 0, stale_epoch_retries: 0 };
        for key in 0..CLUSTER_KEYS {
            assert!(rig.op(&Op::Put(key, "preloaded-value-".into())), "pre-load put failed");
        }
        assert!(rig.op(&Op::Get(0)), "set-up op failed");
        rig
    }

    /// One client op with the stale-epoch refresh-and-retry of
    /// `SimCluster::put`/`get`, checked by the cluster's own
    /// consistency model; a typed error or a model violation returns
    /// `false` where those methods would panic.
    fn op(&mut self, op: &Op) -> bool {
        let key = self.names[op.key()].as_str();
        for _attempt in 0..3 {
            self.rounds += 1;
            let error = match op {
                Op::Put(_, value) => {
                    let request = KvsOp::Put { key: key.to_string(), value: value.clone() };
                    let (stamped, result) = self.cluster.raw_op(request);
                    match result {
                        Ok(OpOutcome::Put { version }) => {
                            self.cluster.model.put_committed(key, version, value);
                            return true;
                        }
                        other => {
                            self.cluster.model.put_failed(key, stamped, value);
                            other.err()
                        }
                    }
                }
                Op::Get(_) => match self.cluster.raw_op(KvsOp::Get { key: key.to_string() }).1 {
                    Ok(OpOutcome::Get { found }) => {
                        return self.cluster.model.get_ok(key, &found).is_ok();
                    }
                    other => {
                        self.cluster.model.get_failed(key);
                        other.err()
                    }
                },
            };
            if !matches!(error, Some(KvsError::StaleEpoch { .. })) {
                return false;
            }
            self.stale_epoch_retries += 1;
            self.cluster.refresh_config();
        }
        false
    }

    /// The live reshard: the first split that moves a replica, or,
    /// where rendezvous hashing keeps every fresh shard on its parent's
    /// set, an explicit migration (which always moves one).
    fn plan_reshard(&self) -> (chorus_kvs::ClusterConfig, Vec<chorus_kvs::Transfer>) {
        let config = self.cluster.config();
        let split = config
            .shards
            .iter()
            .map(|shard| config.with_split(shard.id))
            .map(|next| {
                let transfers = self.cluster.plan_transfers(&next);
                (next, transfers)
            })
            .find(|(_, transfers)| !transfers.is_empty());
        split.unwrap_or_else(|| {
            let shard = &config.shards[0];
            let spare = config
                .census
                .iter()
                .find(|m| !shard.replicas.contains(m))
                .expect("RF 3 of 4 leaves a non-replica");
            let mut replicas: Vec<&str> =
                shard.replicas.iter().skip(1).map(String::as_str).collect();
            replicas.push(spare);
            let next = config.with_migrate(shard.id, &replicas);
            let transfers = self.cluster.plan_transfers(&next);
            (next, transfers)
        })
    }
}

/// `cluster_sim_reshard`: steady 40 %, ops interleaved with the
/// pre-copy and finalize of a live split 20 %, after 40 %.
pub fn run_cluster(workload: &'static str, cfg: &RunCfg) -> RunResult {
    let (mut rig, setup_s) = timed_set_ups(cfg.extra_setups, ClusterRig::set_up, drop);
    let mut stream = OpStream::cluster(cfg.seed);
    let (warmup, measure, max_ops) = phases(cfg);
    let mut attempted = CLUSTER_KEYS as u64 + 1;
    let mut failed = 0u64;

    let warmup_end = Instant::now() + warmup;
    while Instant::now() < warmup_end {
        attempted += 1;
        failed += u64::from(!rig.op(&stream.next_op()));
    }

    let frames_start = rig.cluster.net().messages_received();
    let ticks_start = rig.cluster.net().virtual_now();
    let baseline = Baseline::take(frames_start, 0);
    let mut samples = Samples::with_capacity(max_ops);
    let mut reshard_frames = 0;

    // Runs ops until `share` of the budget (time or op count) is used;
    // returns the phase's ops per second of op time.
    let mut used_share = 0.0;
    let mut phase = |rig: &mut ClusterRig, samples: &mut Samples, share: f64| -> f64 {
        used_share += share;
        let ops_end = (max_ops as f64 * used_share.min(1.0)) as u64;
        let time_end = measure.map(|m| baseline.start + m.mul_f64(used_share));
        let mut ops = 0u64;
        let mut busy = Duration::ZERO;
        while (samples.lat_ns.len() as u64) < ops_end
            && time_end.is_none_or(|end| Instant::now() < end)
        {
            let op = stream.next_op();
            attempted += 1;
            let issued_at = Instant::now();
            failed += u64::from(!rig.op(&op));
            let done = Instant::now();
            samples.push(issued_at, done, baseline.start);
            busy += done - issued_at;
            ops += 1;
        }
        ops as f64 / busy.as_secs_f64().max(1e-9)
    };

    let steady_ops_per_s = phase(&mut rig, &mut samples, 0.4);
    let (next, transfers) = rig.plan_reshard();
    let mut migrating = Vec::with_capacity(transfers.len());
    for transfer in &transfers {
        let before = rig.cluster.net().messages_received();
        rig.cluster.precopy(transfer);
        reshard_frames += rig.cluster.net().messages_received() - before;
        migrating.push(phase(&mut rig, &mut samples, 0.2 / transfers.len() as f64));
    }
    let before = rig.cluster.net().messages_received();
    let committed = rig.cluster.finalize(&next, &transfers);
    reshard_frames += rig.cluster.net().messages_received() - before;
    let window = rig.cluster.last_freeze_window();
    let after_ops_per_s = phase(&mut rig, &mut samples, 0.4);

    // The reshard must commit and the cluster's model must have seen
    // every round the driver ran; either failing fails the run.
    if !committed || rig.cluster.model.checked() != rig.rounds {
        failed += 1;
    }
    let frames_end = rig.cluster.net().messages_received();
    let mut result = summarize(
        workload,
        attempted,
        failed,
        setup_s,
        &baseline,
        samples,
        frames_end - reshard_frames,
        None,
        0..0,
    );
    result.cluster = Some(ClusterStats {
        steady_ops_per_s,
        migrating_ops_per_s: stats::median_f64(&mut migrating),
        after_ops_per_s,
        freeze_frames: window.as_ref().map_or(0, |w| w.frames),
        freeze_wall_ms: window.map_or(0.0, |w| w.wall.as_secs_f64() * 1e3),
        stale_epoch_retries: rig.stale_epoch_retries,
        ticks: rig.cluster.net().virtual_now() - ticks_start,
        frames: frames_end - frames_start,
    });
    result
}
