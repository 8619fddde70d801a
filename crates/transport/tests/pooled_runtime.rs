//! The pooled session runtime, end to end over real transports: ten
//! thousand concurrent KVS sessions on a fixed worker pool, thread
//! count bounded by the pool (never by the session count), stalls
//! surfaced by the watchdog, panics contained, chaos schedules
//! survived, pooled/blocking interop, and no waker left behind by a
//! resolved session.

use chorus_core::{
    ChoreographyLocation, Endpoint, LocationSet, RoleProgram, SessionCx, SessionId, SessionRuntime,
    SessionTransport, Step, TransportError,
};
use chorus_protocols::kvs_simple::{PooledKvsClient, PooledKvsServer, SimpleKvs, SimpleKvsCensus};
use chorus_protocols::roles::{Client, Primary};
use chorus_protocols::store::{Request, Response, SharedStore};
use chorus_transport::{
    free_local_addrs, FaultPlan, LocalTransport, LocalTransportChannel, SimNet, SimTransport,
    TcpConfigBuilder, TcpTransport,
};
use chorus_wire::Envelope;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

type ClientEndpoint = Endpoint<SimpleKvsCensus, Client, LocalTransport<SimpleKvsCensus, Client>>;
type ServerEndpoint = Endpoint<SimpleKvsCensus, Primary, LocalTransport<SimpleKvsCensus, Primary>>;

fn local_pair() -> (Arc<ClientEndpoint>, Arc<ServerEndpoint>) {
    let channel = LocalTransportChannel::<SimpleKvsCensus>::new();
    let client = Arc::new(Endpoint::new(LocalTransport::new(Client, channel.clone())));
    let server = Arc::new(Endpoint::new(LocalTransport::new(Primary, channel)));
    (client, server)
}

/// The acceptance bar: 10k concurrent sessions complete on a pool sized
/// by the machine's parallelism — not by the session count.
/// Thread-per-role would need 20 000 threads here; the runtime owns
/// its workers, which also find stalls (`crates/core/tests/idle_runtime.rs`
/// counts them as OS threads).
#[test]
fn ten_thousand_sessions_on_a_fixed_pool() {
    const SESSIONS: u64 = 10_000;
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let runtime = SessionRuntime::new(parallelism);
    assert_eq!(runtime.pool_size(), parallelism);

    let (client, server) = local_pair();
    let store = SharedStore::new();
    let mut servers = Vec::with_capacity(SESSIONS as usize);
    let mut clients = Vec::with_capacity(SESSIONS as usize);
    for id in 0..SESSIONS {
        servers.push(runtime.spawn(&server, id, PooledKvsServer::new(store.clone())));
        clients.push(runtime.spawn(
            &client,
            id,
            PooledKvsClient::new(Request::Put(format!("k{id}"), format!("v{id}"))),
        ));
    }
    for (id, handle) in clients.into_iter().enumerate() {
        assert_eq!(handle.join().unwrap(), Response::NotFound, "client {id} saw a stale key");
    }
    for handle in servers {
        handle.join().unwrap();
    }
    assert_eq!(runtime.live_sessions(), 0, "every task slot must be reclaimed");
    assert_eq!(store.get("k0"), Response::Found("v0".into()));
    assert_eq!(store.get("k9999"), Response::Found("v9999".into()));
}

/// A session whose peer never answers resolves with the watchdog's
/// protocol error (naming the awaited edge) instead of hanging — and
/// leaves the pool healthy for later sessions.
#[test]
fn watchdog_surfaces_a_stalled_session() {
    let runtime = SessionRuntime::with_watchdog(2, Duration::from_millis(200));
    let (client, server) = local_pair();
    // No server role is spawned: the client's receive can never be
    // satisfied.
    let stalled = runtime.spawn(&client, 1, PooledKvsClient::new(Request::Get("k".into())));
    let err = stalled.join().unwrap_err();
    assert!(matches!(err, TransportError::Protocol(_)));
    let message = err.to_string();
    assert!(message.contains("watchdog"), "got: {message}");
    assert!(message.contains("Primary"), "the stalled edge should be named, got: {message}");

    // The pool survived: a well-formed session still completes.
    let store = SharedStore::new();
    let s = runtime.spawn(&server, 2, PooledKvsServer::new(store));
    let c = runtime.spawn(&client, 2, PooledKvsClient::new(Request::Get("k".into())));
    assert_eq!(c.join().unwrap(), Response::NotFound);
    s.join().unwrap();
}

/// Receives every frame Primary sends and never finishes.
struct ReceivesForever;

impl RoleProgram for ReceivesForever {
    type Output = ();

    fn resume(&mut self, cx: &mut SessionCx<'_>) -> Result<Step<()>, TransportError> {
        while cx.try_receive_value::<Response>(Primary::NAME)?.is_some() {}
        Ok(Step::Pending)
    }
}

/// A stall error counts the wait from the role's last park, not from
/// its first park on the same peer: three frames 150 ms apart, then
/// silence, reads about one deadline, not the whole session.
#[test]
fn a_stall_reports_the_wait_since_the_last_frame() {
    let runtime = SessionRuntime::with_watchdog(2, Duration::from_millis(200));
    let (client, server) = local_pair();
    let stalled = runtime.spawn(&client, 31, ReceivesForever);
    let peer = server.session_with_id(31);
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(150));
        peer.send_value(Client::NAME, &Response::NotFound).unwrap();
    }
    let message = stalled.join().unwrap_err().to_string();
    let waited: u64 = message
        .split("no frame arrived in ")
        .nth(1)
        .and_then(|rest| rest.split("ms").next())
        .and_then(|millis| millis.parse().ok())
        .unwrap_or_else(|| panic!("no wait in the stall error: {message}"));
    assert!(waited < 450, "the wait was counted from before the last frame: {message}");
}

/// A worker that never runs out of work still finds stalls: it sweeps
/// when it ends a pass, not only when it idles. One worker serves a
/// stream of good sessions, 32 in flight, for three deadlines while a
/// client with no server waits; by then the client has resolved with
/// the watchdog's error.
#[test]
fn a_busy_worker_still_surfaces_a_stall() {
    let deadline = Duration::from_millis(200);
    let runtime = SessionRuntime::with_watchdog(1, deadline);
    let (client, server) = local_pair();
    let stalled = runtime.spawn(&client, 0, PooledKvsClient::new(Request::Get("k".into())));
    let store = SharedStore::new();
    let mut in_flight = VecDeque::new();
    let started = Instant::now();
    for id in 1.. {
        if started.elapsed() >= 3 * deadline {
            break;
        }
        let s = runtime.spawn(&server, id, PooledKvsServer::new(store.clone()));
        let c = runtime.spawn(&client, id, PooledKvsClient::new(Request::Get("k".into())));
        in_flight.push_back((s, c));
        if in_flight.len() == 32 {
            let (s, c) = in_flight.pop_front().unwrap();
            assert_eq!(c.join().unwrap(), Response::NotFound);
            s.join().unwrap();
        }
    }
    assert!(stalled.is_finished(), "the stall went unnoticed for three deadlines");
    for (s, c) in in_flight {
        assert_eq!(c.join().unwrap(), Response::NotFound);
        s.join().unwrap();
    }
    let message = stalled.join().unwrap_err().to_string();
    assert!(message.contains("pooled runtime watchdog"), "got: {message}");
    assert!(message.contains("Primary"), "the stalled edge should be named, got: {message}");
}

/// Counts the fires of every waker stored through it; everything else
/// goes straight to the wrapped transport.
struct CountingWakes<T> {
    inner: T,
    fires: Arc<AtomicUsize>,
}

/// A polled waker, wrapped to count its fires.
struct Counted {
    fires: Arc<AtomicUsize>,
    waker: Waker,
}

impl Wake for Counted {
    fn wake(self: Arc<Self>) {
        self.fires.fetch_add(1, Ordering::SeqCst);
        self.waker.wake_by_ref();
    }
}

impl<L: LocationSet, R: ChoreographyLocation, T: SessionTransport<L, R>> SessionTransport<L, R>
    for CountingWakes<T>
{
    fn send_frame(&self, to: &str, frame: Envelope) -> Result<(), TransportError> {
        self.inner.send_frame(to, frame)
    }

    fn poll_receive_frame(
        &self,
        session: SessionId,
        from: &str,
        cx: &mut Context<'_>,
    ) -> Poll<Result<Envelope, TransportError>> {
        let fires = Arc::clone(&self.fires);
        let counted = Waker::from(Arc::new(Counted { fires, waker: cx.waker().clone() }));
        self.inner.poll_receive_frame(session, from, &mut Context::from_waker(&counted))
    }

    fn close_session(&self, session: SessionId) {
        self.inner.close_session(session);
    }
}

/// A session the watchdog resolves never got its frame, so its waker is
/// still parked on the mailbox; resolving closes the session, which
/// takes the waker with it. A frame deposited there later fires nothing.
#[test]
fn a_watchdog_resolved_session_leaves_no_waker_behind() {
    let runtime = SessionRuntime::with_watchdog(2, Duration::from_millis(100));
    let channel = LocalTransportChannel::<SimpleKvsCensus>::new();
    let fires = Arc::new(AtomicUsize::new(0));
    let client = Arc::new(Endpoint::new(CountingWakes {
        inner: LocalTransport::new(Client, channel.clone()),
        fires: Arc::clone(&fires),
    }));
    let server = LocalTransport::new(Primary, channel);
    // No server role: the client parks on Primary until the watchdog.
    let stalled = runtime.spawn(&client, 1, PooledKvsClient::new(Request::Get("k".into())));
    let err = stalled.join().unwrap_err();
    assert!(err.to_string().contains("watchdog"), "got: {err}");
    server.send_frame("Client", Envelope::new(1, 0, b"too late".to_vec())).unwrap();
    assert_eq!(fires.load(Ordering::SeqCst), 0, "the resolved session's waker fired");
}

struct PanicsOnResume;

impl RoleProgram for PanicsOnResume {
    type Output = ();

    fn resume(&mut self, _cx: &mut SessionCx<'_>) -> Result<Step<()>, TransportError> {
        panic!("deliberate test panic");
    }
}

/// A panicking program resolves its own handle with a protocol error;
/// the worker that caught it keeps serving other sessions.
#[test]
fn panic_is_contained_to_its_session() {
    let runtime = SessionRuntime::new(2);
    let (client, server) = local_pair();
    let crashed = runtime.spawn(&client, 7, PanicsOnResume);
    let err = crashed.join().unwrap_err();
    assert!(err.to_string().contains("panicked"), "got: {err}");
    assert!(err.to_string().contains("deliberate test panic"), "got: {err}");

    let store = SharedStore::new();
    let s = runtime.spawn(&server, 8, PooledKvsServer::new(store));
    let c = runtime.spawn(&client, 8, PooledKvsClient::new(Request::Get("k".into())));
    assert_eq!(c.join().unwrap(), Response::NotFound);
    s.join().unwrap();
}

/// Pooled sessions run over the deterministic sim under a hostile
/// schedule (jitter, drops, duplicates): every session still completes
/// with the right answer, because the polled receive pops the same
/// mailboxes blocking receivers do, filled in offer order at the send
/// site whatever the schedule.
#[test]
fn pooled_sessions_survive_sim_chaos() {
    const SESSIONS: u64 = 64;
    let plan = FaultPlan::ideal().with_seed(77).with_jitter(8).with_drop(0.2).with_duplicate(0.15);
    let net = SimNet::<SimpleKvsCensus>::new(plan);
    let client = Arc::new(Endpoint::new(SimTransport::new(Client, net.clone())));
    let server = Arc::new(Endpoint::new(SimTransport::new(Primary, net)));
    let runtime = SessionRuntime::new(4);
    let store = SharedStore::new();
    let mut handles = Vec::new();
    for id in 0..SESSIONS {
        handles.push(runtime.spawn(&server, id, PooledKvsServer::new(store.clone())));
    }
    let clients: Vec<_> = (0..SESSIONS)
        .map(|id| {
            runtime.spawn(
                &client,
                id,
                PooledKvsClient::new(Request::Put(format!("k{id}"), format!("v{id}"))),
            )
        })
        .collect();
    for (id, handle) in clients.into_iter().enumerate() {
        assert_eq!(handle.join().unwrap(), Response::NotFound, "client {id}");
    }
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(store.get("k63"), Response::Found("v63".into()));
}

/// A pooled server answers a *blocking* client running the unchanged
/// `Session::epp_and_run` path — the two execution models speak the
/// same frames and mix freely within one session.
#[test]
fn pooled_server_answers_blocking_client() {
    let runtime = SessionRuntime::new(2);
    let (client, server) = local_pair();
    let store = SharedStore::new();
    store.put("lang", "rust");
    let pooled = runtime.spawn(&server, 3, PooledKvsServer::new(store));

    let session = client.session_with_id(3);
    let result = session.epp_and_run(SimpleKvs {
        request: session.local(Request::Get("lang".into())),
        state: session.remote(Primary),
    });
    assert_eq!(session.unwrap(result), Response::Found("rust".into()));
    pooled.join().unwrap();
}

/// A program with several receives re-parks on each edge in turn: each
/// miss stores the task's waker on the mailbox it missed. This pins the
/// multi-yield resume contract with a two-round ping/pong.
struct TwoRoundClient {
    sent_first: bool,
    got_first: bool,
    sent_second: bool,
}

impl RoleProgram for TwoRoundClient {
    type Output = (Response, Response);

    fn resume(&mut self, cx: &mut SessionCx<'_>) -> Result<Step<Self::Output>, TransportError> {
        if !self.sent_first {
            cx.send_value(Primary::NAME, &Request::Put("round".into(), "one".into()))?;
            self.sent_first = true;
        }
        if !self.got_first {
            match cx.try_receive_value::<Response>(Primary::NAME)? {
                Some(_) => self.got_first = true,
                None => return Ok(Step::Pending),
            }
        }
        if !self.sent_second {
            cx.send_value(Primary::NAME, &Request::Get("round".into()))?;
            self.sent_second = true;
        }
        match cx.try_receive_value::<Response>(Primary::NAME)? {
            Some(second) => Ok(Step::Done((Response::NotFound, second))),
            None => Ok(Step::Pending),
        }
    }
}

struct TwoRoundServer {
    store: SharedStore,
    answered: u8,
}

impl RoleProgram for TwoRoundServer {
    type Output = ();

    fn resume(&mut self, cx: &mut SessionCx<'_>) -> Result<Step<()>, TransportError> {
        while self.answered < 2 {
            let Some(request) = cx.try_receive_value::<Request>(Client::NAME)? else {
                return Ok(Step::Pending);
            };
            let response = chorus_protocols::kvs_simple::handle_request(&request, &self.store);
            cx.send_value(Client::NAME, &response)?;
            self.answered += 1;
        }
        Ok(Step::Done(()))
    }
}

#[test]
fn multi_round_programs_repark_per_edge() {
    let runtime = SessionRuntime::new(2);
    let (client, server) = local_pair();
    let store = SharedStore::new();
    let s = runtime.spawn(&server, 21, TwoRoundServer { store, answered: 0 });
    let c = runtime.spawn(
        &client,
        21,
        TwoRoundClient { sent_first: false, got_first: false, sent_second: false },
    );
    let (_, second) = c.join().unwrap();
    assert_eq!(second, Response::Found("one".into()));
    s.join().unwrap();
}

/// Fairness smoke: a session that must wait for many peers does not
/// starve them — all sessions make progress through the FIFO run queue
/// even when one pool worker would suffice.
#[test]
fn single_worker_pool_still_drives_many_sessions() {
    const SESSIONS: u64 = 128;
    let runtime = SessionRuntime::new(1);
    let (client, server) = local_pair();
    let store = SharedStore::new();
    let handles: Vec<_> = (0..SESSIONS)
        .flat_map(|id| {
            let s = runtime.spawn(&server, id, PooledKvsServer::new(store.clone()));
            let c = runtime.spawn(
                &client,
                id,
                PooledKvsClient::new(Request::Put(format!("k{id}"), "v".into())),
            );
            [
                Box::new(move || {
                    s.join().unwrap();
                }) as Box<dyn FnOnce()>,
                Box::new(move || {
                    assert_eq!(c.join().unwrap(), Response::NotFound);
                }),
            ]
        })
        .collect();
    for join in handles {
        join();
    }
}

/// One role's resume counts, shared with the test that spawned it.
#[derive(Default)]
struct ResumeCounts {
    resumes: AtomicUsize,
    /// Resumes that followed a `Pending` and ended in `Pending` again:
    /// the role was woken for its edge and found nothing there.
    missed_again: AtomicUsize,
}

/// Runs `program`, counting its resumes into `counts`.
struct CountedResumes<P> {
    program: P,
    counts: Arc<ResumeCounts>,
    parked: bool,
}

impl<P> CountedResumes<P> {
    fn new(program: P, counts: &Arc<ResumeCounts>) -> Self {
        CountedResumes { program, counts: Arc::clone(counts), parked: false }
    }
}

impl<P: RoleProgram> RoleProgram for CountedResumes<P> {
    type Output = P::Output;

    fn resume(&mut self, cx: &mut SessionCx<'_>) -> Result<Step<P::Output>, TransportError> {
        let step = self.program.resume(cx)?;
        self.counts.resumes.fetch_add(1, Ordering::SeqCst);
        let pending = matches!(step, Step::Pending);
        if pending && self.parked {
            self.counts.missed_again.fetch_add(1, Ordering::SeqCst);
        }
        self.parked = pending;
        Ok(step)
    }
}

/// With one worker the resume order is fixed, so a KVS pair's resumes
/// can be counted exactly. Server spawned first: it parks on the
/// request, the client's send wakes it, the client parks on the
/// response, the server's reply wakes it: two resumes a role. Client
/// first: the request is queued before the server's first resume, so
/// the server needs one. No role is ever woken for an edge that still
/// has nothing for it.
#[test]
fn one_worker_resumes_a_kvs_pair_a_pinned_number_of_times() {
    const OPS: u64 = 50;
    let runtime = SessionRuntime::new(1);
    let (client, server) = local_pair();
    let store = SharedStore::new();
    for server_first in [true, false] {
        let (client_counts, server_counts) = (Arc::default(), Arc::default());
        for op in 0..OPS {
            let id = op + if server_first { 0 } else { OPS };
            let serve = || {
                let program = PooledKvsServer::new(store.clone());
                runtime.spawn(&server, id, CountedResumes::new(program, &server_counts))
            };
            let request = Request::Put(format!("k{id}"), "v".into());
            let ask = || {
                let program = PooledKvsClient::new(request.clone());
                runtime.spawn(&client, id, CountedResumes::new(program, &client_counts))
            };
            let (s, c) = if server_first {
                let s = serve();
                (s, ask())
            } else {
                let c = ask();
                (serve(), c)
            };
            assert_eq!(c.join().unwrap(), Response::NotFound);
            s.join().unwrap();
        }
        let count = |counts: &ResumeCounts| {
            (counts.resumes.load(Ordering::SeqCst), counts.missed_again.load(Ordering::SeqCst))
        };
        let server_resumes = if server_first { 2 } else { 1 } * OPS as usize;
        assert_eq!(count(&client_counts), (2 * OPS as usize, 0), "server first: {server_first}");
        assert_eq!(count(&server_counts), (server_resumes, 0), "server first: {server_first}");
    }
}

/// The handle works from any thread — a spawner can hand it off and the
/// completion propagates through the cell's own park/wake.
#[test]
fn handles_join_across_threads() {
    let runtime = Arc::new(SessionRuntime::new(2));
    let (client, server) = local_pair();
    let store = SharedStore::new();
    let s = runtime.spawn(&server, 5, PooledKvsServer::new(store));
    let c = runtime.spawn(&client, 5, PooledKvsClient::new(Request::Get("x".into())));
    let (published, response) = mpsc::channel();
    let publisher = std::thread::spawn(move || published.send(c.join().unwrap()).unwrap());
    assert_eq!(response.recv().unwrap(), Response::NotFound);
    publisher.join().unwrap();
    s.join().unwrap();
}

/// Holds its worker inside `resume` until the test opens the gate, so
/// the tasks spawned meanwhile queue up behind it.
struct Gate {
    entered: mpsc::Sender<()>,
    open: mpsc::Receiver<()>,
}

impl RoleProgram for Gate {
    type Output = ();

    fn resume(&mut self, _cx: &mut SessionCx<'_>) -> Result<Step<()>, TransportError> {
        self.entered.send(()).unwrap();
        self.open.recv().unwrap();
        Ok(Step::Done(()))
    }
}

/// A pool worker's sends leave at the end of its pass, one batch per
/// 256 frames on each link; a send on any other thread still writes
/// before it returns. One worker is held by a gate while `CLIENTS`
/// client roles queue behind it; its next pass polls all of them, and
/// their requests leave in ⌈CLIENTS/256⌉ batches.
#[test]
fn a_workers_pass_batches_its_sends_and_only_its_pass() {
    const CLIENTS: u64 = 300;
    let addrs = free_local_addrs(2).unwrap();
    let config = TcpConfigBuilder::new()
        .location(Client, addrs[0])
        .location(Primary, addrs[1])
        .build::<SimpleKvsCensus>()
        .unwrap();
    let client = Arc::new(Endpoint::new(TcpTransport::bind(Client, config.clone()).unwrap()));
    let server = Arc::new(Endpoint::new(TcpTransport::bind(Primary, config).unwrap()));
    let runtime = SessionRuntime::new(1);
    let servers = SessionRuntime::new(1);
    let store = SharedStore::new();

    // One op opens the link both ways.
    let s = servers.spawn(&server, 0, PooledKvsServer::new(store.clone()));
    let c = runtime.spawn(&client, 0, PooledKvsClient::new(Request::Get("k".into())));
    assert_eq!(c.join().unwrap(), Response::NotFound);
    s.join().unwrap();

    let before = client.transport().link_stats();
    let (entered, entered_rx) = mpsc::channel();
    let (open, open_rx) = mpsc::channel();
    let gate = runtime.spawn(&client, CLIENTS + 1, Gate { entered, open: open_rx });
    entered_rx.recv().unwrap();
    let handles: Vec<_> = (1..=CLIENTS)
        .map(|id| {
            let s = servers.spawn(&server, id, PooledKvsServer::new(store.clone()));
            let request = Request::Put(format!("k{id}"), "v".into());
            (s, runtime.spawn(&client, id, PooledKvsClient::new(request)))
        })
        .collect();
    open.send(()).unwrap();
    gate.join().unwrap();
    for (s, c) in handles {
        assert_eq!(c.join().unwrap(), Response::NotFound);
        s.join().unwrap();
    }
    let after = client.transport().link_stats();
    assert_eq!(after.batched_frames - before.batched_frames, CLIENTS);
    assert_eq!(after.batches - before.batches, CLIENTS.div_ceil(256), "one batch per 256 frames");
    let histogram: Vec<u64> =
        after.batch_histogram.iter().zip(&before.batch_histogram).map(|(a, b)| a - b).collect();
    assert_eq!(histogram, [0, 0, 0, 0, 0, 1, 1], "a batch of 256 and one of 44");

    // The test's own thread has no pass: its send is written before it
    // returns.
    let tcp = client.transport();
    let before = tcp.link_stats().batches;
    tcp.send_frame("Primary", Envelope::new(CLIENTS + 2, 0, b"inline")).unwrap();
    assert_eq!(tcp.link_stats().batches, before + 1, "a blocking send writes inline");
}
