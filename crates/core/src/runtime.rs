//! The pooled session runtime: many in-flight choreography sessions
//! driven by a fixed worker pool.
//!
//! The blocking execution model ([`Session::epp_and_run`]) parks one OS
//! thread per role per session in the one blocking receive
//! ([`park`](crate::park)) whenever a receive would block. That is the
//! right shape for a handful of long-lived runs and the wrong shape for
//! ten thousand concurrent ones: tens of thousands of parked threads
//! exhaust memory and scheduler capacity long before the network does.
//! This module keeps the thread count **O(pool size)** instead of
//! O(sessions): each role runs as a *resumable*
//! [`RoleProgram`] that yields on a would-block receive, and a
//! [`SessionRuntime`] — a FIFO run queue drained by a fixed pool of
//! workers — re-enqueues exactly the sessions whose mailboxes became
//! ready, through the [`Waker`] every session-native transport's
//! [`poll_receive_frame`](crate::SessionTransport::poll_receive_frame)
//! stores on a miss.
//!
//! # The yield point
//!
//! A [`RoleProgram`] is the explicit-state-machine rendering of one
//! role's projected choreography (the resumable form rumpsteak-style
//! FSM projection produces, and the form a future projection macro
//! would emit). Its [`resume`](RoleProgram::resume) method drives the
//! role as far as it can: sends never block (transports buffer, and a
//! TCP frame leaves at the end of the worker's pass, below), and a
//! receive is attempted with
//! [`SessionCx::try_receive_value`], which polls the awaited
//! per-(session, sender) mailbox with the task's waker. A miss leaves
//! the waker stored there and makes the program return
//! [`Step::Pending`], and the pool thread moves on to the next runnable
//! session — **runnable work never waits behind a parked pool thread**.
//!
//! There is no lost-wakeup window: the poll pops or stores the waker
//! under the lock a sender deposits under, so the deposit that follows
//! a miss wakes the task even if it lands before the task is parked (a
//! wake mid-poll re-enqueues the task as soon as it yields). Each task
//! has one waker, an `Arc` allocated at spawn, and a mailbox that
//! already holds it keeps it, so re-parking allocates nothing.
//!
//! # Passes and wakes
//!
//! A worker polls in *passes*. A pass ends when the run queue is empty
//! or the worker has polled as many tasks as the queue held when its
//! previous pass ended. Sends on a link whose frames would be written
//! now ([`park::defer_write`]) are left to the end of the pass, where
//! the worker writes each recorded link once: the requests of a
//! queue's worth of sessions leave in one batch, not one write each.
//!
//! A worker that ends a pass with nothing to run pushes its thread's
//! waker onto the queue's stack of idle workers and parks. Making a
//! task runnable (a spawn, a wake, a wake that landed mid-poll) pushes
//! it and pops at most one idle waker under the queue lock, then wakes
//! that worker outside it, so a wake costs a system call only when a
//! worker sleeps. [`SessionHandle::join`] parks the same way on a
//! one-shot cell that holds the result and the joiner's waker.
//!
//! # Fairness and the watchdog
//!
//! Woken sessions go to the *back* of the FIFO run queue, so a chatty
//! session cannot starve its neighbors. A worker that ends a pass at or
//! after the next sweep time wakes every task parked longer than the
//! runtime's deadline (default [`park::default_watchdog`],
//! env-overridable via `CHORUS_WATCHDOG_MS`), whose next poll resolves
//! it with a [`TransportError::Protocol`] — the same
//! surface-the-stall-instead-of-hanging contract every blocking
//! receive's watchdog keeps.
//!
//! ```ignore
//! let runtime = SessionRuntime::new(4);
//! let server = runtime.spawn(&server_endpoint, 7, PooledKvsServer::new(store));
//! let client = runtime.spawn(&client_endpoint, 7, PooledKvsClient::new(Request::Get("k".into())));
//! assert_eq!(client.join()?, Response::Found("v".into()));
//! server.join()?;
//! ```

use crate::choreography::Portable;
use crate::endpoint::Endpoint;
use crate::location::{ChoreographyLocation, LocationSet};
use crate::park;
use crate::session::{encode_payload, SeqCounters};
use crate::sync::Mutex;
use crate::transport::{locate, SessionId, SessionTransport, TransportError};
use chorus_wire::Bytes;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What one [`RoleProgram::resume`] call produced.
#[derive(Debug)]
pub enum Step<V> {
    /// The role ran to completion with this output.
    Done(V),
    /// The role is blocked on a receive recorded in the [`SessionCx`];
    /// the runtime parks the session and resumes it when the awaited
    /// mailbox becomes ready.
    Pending,
}

/// One role of one session, as a resumable state machine.
///
/// The contract: `resume` is called repeatedly by pool workers (never
/// concurrently). Each call must make all progress it can — send
/// whatever is sendable, receive whatever is receivable — and return
/// [`Step::Pending`] only after a [`SessionCx::try_receive_value`] came
/// up empty. State that must survive across yields (what has been sent,
/// what is still awaited) lives in the implementor. Because a resume
/// can be retried after any `Pending`, the program must not repeat
/// side effects: guard sends with "already sent" state, exactly as a
/// hand-rolled protocol FSM would.
pub trait RoleProgram: Send + 'static {
    /// The role's result, surfaced through [`SessionHandle::join`].
    type Output: Send + 'static;

    /// Drives the role until it completes or would block.
    ///
    /// # Errors
    ///
    /// Returns an error if the transport fails or a peer violates the
    /// protocol; the error resolves the session's handle.
    fn resume(&mut self, cx: &mut SessionCx<'_>) -> Result<Step<Self::Output>, TransportError>;
}

/// The operations a [`RoleProgram`] performs against its session,
/// handed to every [`resume`](RoleProgram::resume) call.
///
/// A `SessionCx` is the pooled counterpart of a blocking
/// [`Session`](crate::Session): sends stamp per-edge sequence numbers
/// and pass the layer stack exactly like [`Session::send_value`]
/// (one serialization into the worker thread's reusable scratch buffer,
/// one shared payload allocation), and receives are **non-blocking** — a
/// miss stores the task's waker on the awaited mailbox and records the
/// edge for the stall watchdog.
pub struct SessionCx<'a> {
    ops: &'a mut dyn CxOps,
    /// The task's waker, stored on every mailbox a receive misses.
    waker: &'a Waker,
    /// The edge the program is blocked on, set by a failed receive.
    waiting: Option<&'static str>,
}

impl SessionCx<'_> {
    /// Serializes `value` and sends it to the location named `to`
    /// within this session. Sends never block: transports buffer.
    ///
    /// # Errors
    ///
    /// Returns an error if `to` is unknown, the value fails to encode,
    /// or the link fails.
    pub fn send_value<V: Portable>(&mut self, to: &str, value: &V) -> Result<(), TransportError> {
        let payload = encode_payload(value)?;
        self.ops.send_payload(to, payload)
    }

    /// Attempts to receive and decode a value from the location named
    /// `from`, without blocking.
    ///
    /// On `Ok(None)` the task's waker is stored on the mailbox: the
    /// program should return [`Step::Pending`] (after finishing any
    /// other progress it can make) and will be resumed when that
    /// mailbox gains a frame or its link fails. A program that polls
    /// several edges in one resume leaves the waker on each mailbox it
    /// missed, so a frame on any of them resumes it; a resume that
    /// finds nothing new is harmless and just returns `Pending` again.
    ///
    /// # Errors
    ///
    /// Returns an error if `from` is unknown, the link has failed, or
    /// the payload fails to decode.
    pub fn try_receive_value<V: Portable>(
        &mut self,
        from: &str,
    ) -> Result<Option<V>, TransportError> {
        match self.ops.try_receive_payload(from, self.waker)? {
            Some(payload) => Ok(Some(chorus_wire::from_bytes(&payload)?)),
            None => {
                self.waiting = Some(self.ops.intern(from)?);
                Ok(None)
            }
        }
    }
}

/// Object-safe bridge between the untyped scheduler and one session's
/// typed endpoint. Implemented by [`TypedOps`], which owns the per-task
/// sequence counters — tasks are polled by one worker at a time, so no
/// locking is needed around them.
trait CxOps: Send {
    fn intern(&self, name: &str) -> Result<&'static str, TransportError>;
    fn send_payload(&mut self, to: &str, payload: Bytes) -> Result<(), TransportError>;
    fn try_receive_payload(
        &mut self,
        from: &str,
        waker: &Waker,
    ) -> Result<Option<Bytes>, TransportError>;
    fn close(&self);
}

struct TypedOps<TL, Target, T>
where
    TL: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<TL, Target>,
{
    endpoint: Arc<Endpoint<TL, Target, T>>,
    id: SessionId,
    seqs: SeqCounters,
}

impl<TL, Target, T> CxOps for TypedOps<TL, Target, T>
where
    TL: LocationSet + 'static,
    Target: ChoreographyLocation + 'static,
    T: SessionTransport<TL, Target> + Send + Sync + 'static,
{
    fn intern(&self, name: &str) -> Result<&'static str, TransportError> {
        locate::<TL>(name).map(|(_, name)| name)
    }

    fn send_payload(&mut self, to: &str, payload: Bytes) -> Result<(), TransportError> {
        let to = locate::<TL>(to)?;
        self.endpoint.stamp_and_send(self.id, &mut self.seqs, to, payload)
    }

    fn try_receive_payload(
        &mut self,
        from: &str,
        waker: &Waker,
    ) -> Result<Option<Bytes>, TransportError> {
        let mut cx = Context::from_waker(waker);
        match self.endpoint.transport().poll_receive_frame(self.id, from, &mut cx) {
            Poll::Ready(envelope) => Ok(Some(self.endpoint.deliver(self.id, from, envelope?))),
            Poll::Pending => Ok(None),
        }
    }

    fn close(&self) {
        self.endpoint.transport().close_session(self.id);
    }
}

/// What a [`JoinCell`] holds: the session's result once it resolves,
/// and the waker of a thread parked in [`SessionHandle::join`].
struct Joined<V> {
    result: Option<Result<V, TransportError>>,
    joiner: Option<Waker>,
}

/// A session's one-shot result cell.
struct JoinCell<V>(Mutex<Joined<V>>);

impl<V> JoinCell<V> {
    fn new() -> Self {
        JoinCell(Mutex::new(Joined { result: None, joiner: None }))
    }

    /// Stores the result and wakes the joiner, if one is parked.
    fn resolve(&self, result: Result<V, TransportError>) {
        let joiner = {
            let mut joined = self.0.lock();
            joined.result = Some(result);
            joined.joiner.take()
        };
        if let Some(joiner) = joiner {
            joiner.wake();
        }
    }
}

/// Handle to one spawned session role; resolves when the role
/// completes, fails, panics, or trips the stall watchdog.
pub struct SessionHandle<V> {
    cell: Arc<JoinCell<V>>,
    id: SessionId,
}

impl<V> SessionHandle<V> {
    /// The session id this handle belongs to.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Whether the session has already resolved (without consuming the
    /// result).
    pub fn is_finished(&self) -> bool {
        self.cell.0.lock().result.is_some()
    }

    /// Blocks the *calling* thread until the session resolves.
    ///
    /// Join from outside the pool (the spawner's thread); joining from
    /// inside a [`RoleProgram`] would park a pool worker, which is
    /// exactly what the runtime exists to avoid.
    ///
    /// # Errors
    ///
    /// Returns the transport/protocol error that failed the session, a
    /// `Protocol` error naming the awaited edge if the stall watchdog
    /// fired, or a `Protocol` error if the program panicked.
    pub fn join(self) -> Result<V, TransportError> {
        park::wait(None, |waker| {
            let mut joined = self.cell.0.lock();
            match joined.result.take() {
                Some(result) => Poll::Ready(result),
                None => {
                    joined.joiner.get_or_insert_with(|| waker.clone());
                    Poll::Pending
                }
            }
        })
        .expect("a wait with no deadline ends only when ready")
    }
}

/// Task lifecycle states (see `wake_task` / the worker loop).
///
/// The invariant the little state machine maintains: a task is in the
/// run queue **at most once**, and is polled by **at most one** worker
/// at a time. A wake during a poll does not re-enter the queue — it
/// flips RUNNING to NOTIFIED and the polling worker re-enqueues on the
/// way out.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// What one poll of a task produced, as seen by the worker loop.
enum PollOutcome {
    /// The task resolved (completed, failed, panicked, or timed out).
    /// The worker frees the slab slot first and *then* runs the carried
    /// completion thunk, so by the time `SessionHandle::join` returns
    /// the session no longer counts as live.
    Done(Option<Box<dyn FnOnce() + Send>>),
    /// The task parked at this instant, and wrote its [`Parked`]
    /// record; its waker, stored on the mailbox by the receive that
    /// missed, will re-enqueue it.
    Parked(Instant),
}

/// Where and since when a task waits: written once per park, judged by
/// the stall sweep, quoted by the stall error.
#[derive(Clone, Copy)]
struct Parked {
    since: Instant,
    edge: &'static str,
}

type PollFn = Box<dyn FnMut(&TaskEntry, &mut Option<Parked>) -> PollOutcome + Send>;

struct TaskEntry {
    /// Lifecycle state; see the constants above.
    state: AtomicU8,
    /// The type-erased resumable role and its last park. The mutex is
    /// uncontended (the state machine admits one poller, and the sweep
    /// only tries it); it makes the entry `Sync`.
    task: Mutex<(PollFn, Option<Parked>)>,
    /// The one waker this task ever allocates, created at spawn and
    /// stored (by cheap `Arc` clone, or not at all where the mailbox
    /// already holds it) on every miss — steady-state scheduling never
    /// boxes anything per wakeup.
    waker: Waker,
    /// Set by the stall sweep; the next poll resolves the session
    /// with a stall error instead of resuming the program (unless the
    /// program can in fact complete on that final resume).
    timed_out: AtomicBool,
    /// This task's slot in the slab, freed on completion.
    index: usize,
}

#[derive(Default)]
struct RunQueue {
    ready: VecDeque<Arc<TaskEntry>>,
    /// The wakers of workers parked with nothing to run: a stack, so
    /// the worker that parked last, the one most likely still warm,
    /// wakes first.
    idle: Vec<Waker>,
    /// When a worker ending its pass next sweeps for stalls.
    next_sweep: Option<Instant>,
    /// An idle worker is parked with a timeout until `next_sweep`.
    timer: bool,
    shutdown: bool,
}

#[derive(Default)]
struct TaskSlab {
    slots: Vec<Option<Arc<TaskEntry>>>,
    free: Vec<usize>,
}

impl TaskSlab {
    fn insert(&mut self, make: impl FnOnce(usize) -> Arc<TaskEntry>) -> Arc<TaskEntry> {
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let entry = make(index);
        self.slots[index] = Some(Arc::clone(&entry));
        entry
    }

    fn remove(&mut self, index: usize) {
        if self.slots[index].take().is_some() {
            self.free.push(index);
        }
    }
}

struct RuntimeShared {
    queue: Mutex<RunQueue>,
    tasks: Mutex<TaskSlab>,
    /// Sessions spawned and not yet resolved. It publishes nothing
    /// else: a spawn counts before it enqueues, so a worker that read 0
    /// and parked without a timeout is woken by that enqueue.
    live: AtomicUsize,
    /// Stall deadline for parked sessions.
    watchdog: Duration,
    /// How often a worker sweeps for stalls: a stall surfaces within
    /// about 1.25 deadlines, and sweeps come at most every 10 ms.
    sweep_every: Duration,
}

impl RuntimeShared {
    /// Queues a runnable task and wakes one idle worker, if one sleeps.
    /// A task needs one worker, and a worker that is not parked finds
    /// the task when its pass ends.
    fn enqueue(&self, entry: Arc<TaskEntry>) {
        let sleeper = {
            let mut queue = self.queue.lock();
            queue.ready.push_back(entry);
            queue.idle.pop()
        };
        if let Some(sleeper) = sleeper {
            sleeper.wake();
        }
    }

    /// Flags every task parked longer than the deadline at `now` and
    /// wakes it, so its next poll resolves it with the stall error.
    fn sweep(&self, now: Instant) {
        let slab = self.tasks.lock();
        for entry in slab.slots.iter().flatten() {
            let stalled = entry.state.load(Ordering::Acquire) == IDLE
                && entry.task.try_lock().is_some_and(|task| {
                    task.1.is_some_and(|last| {
                        now.saturating_duration_since(last.since) >= self.watchdog
                    })
                });
            if stalled {
                entry.timed_out.store(true, Ordering::Release);
                wake_task(self, entry);
            }
        }
    }
}

/// Re-enqueues a task if (and only if) it is idle; coalesces duplicate
/// wakes; defers wakes that land mid-poll to the polling worker.
fn wake_task(shared: &RuntimeShared, entry: &Arc<TaskEntry>) {
    loop {
        match entry.state.load(Ordering::Acquire) {
            IDLE => {
                if entry
                    .state
                    .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    shared.enqueue(Arc::clone(entry));
                    return;
                }
            }
            RUNNING => {
                if entry
                    .state
                    .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return;
                }
            }
            // Already queued, already notified, or done: nothing to do.
            _ => return,
        }
    }
}

/// A task's waker. Both references are weak, so a waker left on a
/// mailbox keeps neither the task nor the runtime alive.
struct TaskWaker {
    shared: Weak<RuntimeShared>,
    entry: Weak<TaskEntry>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        if let (Some(shared), Some(entry)) = (self.shared.upgrade(), self.entry.upgrade()) {
            wake_task(&shared, &entry);
        }
    }
}

fn worker_loop(shared: Arc<RuntimeShared>) {
    park::open_pass();
    let waker = park::thread_waker();
    // Polls left in this pass.
    let mut left = 0;
    // When a task this pass polled last parked: the pass end's clock.
    let mut clock = None;
    // This worker parked with the sweep's timeout.
    let mut timer = false;
    loop {
        let entry = if left > 0 { shared.queue.lock().ready.pop_front() } else { None };
        let Some(entry) = entry else {
            // The pass ends: write what its sends left, sweep if due,
            // then size the next pass by the queue, or park if it is
            // empty.
            park::flush_pass();
            let now = clock.take().unwrap_or_else(Instant::now);
            let mut queue = shared.queue.lock();
            // A wake pops this worker's waker; drop one that a spurious
            // or timed-out park left behind, so wakes go to sleepers.
            queue.idle.retain(|idle| !idle.will_wake(&waker));
            if std::mem::take(&mut timer) {
                queue.timer = false;
            }
            if queue.next_sweep.is_none_or(|next| now >= next) {
                queue.next_sweep = Some(now + shared.sweep_every);
                drop(queue);
                shared.sweep(now);
                queue = shared.queue.lock();
            }
            left = queue.ready.len();
            if left == 0 {
                if queue.shutdown {
                    return;
                }
                // While sessions are live, one idle worker wakes for
                // the next sweep.
                timer = !queue.timer && shared.live.load(Ordering::Acquire) > 0;
                queue.timer |= timer;
                let timeout = queue.next_sweep.filter(|_| timer).map(|next| next - now);
                queue.idle.push(waker.clone());
                drop(queue);
                match timeout {
                    Some(timeout) => std::thread::park_timeout(timeout),
                    None => std::thread::park(),
                }
            }
            continue;
        };
        left -= 1;
        entry.state.store(RUNNING, Ordering::Release);
        let outcome = {
            let mut task = entry.task.lock();
            let (poll, parked) = &mut *task;
            poll(&entry, parked)
        };
        match outcome {
            PollOutcome::Done(finish) => {
                entry.state.store(DONE, Ordering::Release);
                shared.tasks.lock().remove(entry.index);
                shared.live.fetch_sub(1, Ordering::AcqRel);
                // Resolve the handle only after the slot is reclaimed
                // (and outside the poll lock).
                if let Some(finish) = finish {
                    finish();
                }
            }
            PollOutcome::Parked(since) => {
                clock = Some(since);
                if entry
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // A waker fired mid-poll (state became NOTIFIED):
                    // the deposit already happened, so re-enqueue now.
                    entry.state.store(QUEUED, Ordering::Release);
                    shared.enqueue(Arc::clone(&entry));
                }
            }
        }
    }
}

/// A fixed pool of worker threads driving any number of concurrent
/// sessions — across any number of endpoints — as resumable
/// [`RoleProgram`]s.
///
/// Total OS threads: the `pool_size` workers, which also find stalled
/// sessions, independent of how many sessions are in flight.
pub struct SessionRuntime {
    shared: Arc<RuntimeShared>,
    workers: Vec<JoinHandle<()>>,
}

impl SessionRuntime {
    /// Creates a runtime with `pool_size` workers (clamped to ≥ 1) and
    /// the workspace default stall deadline
    /// ([`park::default_watchdog`]).
    pub fn new(pool_size: usize) -> Self {
        Self::with_watchdog(pool_size, park::default_watchdog())
    }

    /// Creates a runtime with an explicit stall deadline.
    pub fn with_watchdog(pool_size: usize, watchdog: Duration) -> Self {
        let pool_size = pool_size.max(1);
        let shared = Arc::new(RuntimeShared {
            queue: Mutex::new(RunQueue::default()),
            tasks: Mutex::new(TaskSlab::default()),
            live: AtomicUsize::new(0),
            watchdog,
            sweep_every: (watchdog / 4).clamp(Duration::from_millis(10), Duration::from_secs(1)),
        });
        let workers = (0..pool_size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("chorus-pool-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        SessionRuntime { shared, workers }
    }

    /// The number of pool workers.
    pub fn pool_size(&self) -> usize {
        self.workers.len()
    }

    /// Sessions spawned and not yet resolved.
    pub fn live_sessions(&self) -> usize {
        self.shared.live.load(Ordering::Acquire)
    }

    /// Spawns one role of session `id` over `endpoint` onto the pool.
    ///
    /// All participants of the session must agree on `id`, exactly as
    /// with [`Endpoint::session_with_id`]; pooled and blocking roles of
    /// one session may be mixed freely (a pooled server can serve a
    /// blocking client). The returned handle resolves when the program
    /// completes, errors, panics, or stalls past the watchdog deadline.
    pub fn spawn<TL, Target, T, P>(
        &self,
        endpoint: &Arc<Endpoint<TL, Target, T>>,
        id: SessionId,
        program: P,
    ) -> SessionHandle<P::Output>
    where
        TL: LocationSet + 'static,
        Target: ChoreographyLocation + 'static,
        T: SessionTransport<TL, Target> + Send + Sync + 'static,
        P: RoleProgram,
    {
        let cell = Arc::new(JoinCell::new());
        let mut ops = TypedOps { endpoint: Arc::clone(endpoint), id, seqs: SeqCounters::new() };
        let mut program = program;
        let result_cell = Arc::clone(&cell);
        let complete = move |result| result_cell.resolve(result);
        let mut complete = Some(complete);
        let watchdog = self.shared.watchdog;

        // Resolves the task: closes the session on its transport, so
        // neither its mailboxes nor a parked waker outlive it, and
        // packages the one-shot completion as a deferred thunk, which
        // the worker runs after reclaiming the task's slab slot.
        fn resolve<V, F>(
            ops: &dyn CxOps,
            complete: &mut Option<F>,
            result: Result<V, TransportError>,
        ) -> PollOutcome
        where
            V: Send + 'static,
            F: FnOnce(Result<V, TransportError>) + Send + 'static,
        {
            ops.close();
            PollOutcome::Done(
                complete.take().map(|c| Box::new(move || c(result)) as Box<dyn FnOnce() + Send>),
            )
        }

        let poll: PollFn = Box::new(move |entry: &TaskEntry, parked: &mut Option<Parked>| {
            let mut cx = SessionCx { ops: &mut ops, waker: &entry.waker, waiting: None };
            let resumed = catch_unwind(AssertUnwindSafe(|| program.resume(&mut cx)));
            let waiting = cx.waiting;
            match resumed {
                Ok(Ok(Step::Done(value))) => resolve(&ops, &mut complete, Ok(value)),
                Ok(Err(e)) => resolve(&ops, &mut complete, Err(e)),
                Err(panic) => resolve(
                    &ops,
                    &mut complete,
                    Err(TransportError::Protocol(format!(
                        "session {id} role program panicked: {}",
                        crate::panic_message(&*panic)
                    ))),
                ),
                Ok(Ok(Step::Pending)) => {
                    // The program could not finish. If the watchdog has
                    // already flagged the stall, this resume was its
                    // grace attempt — resolve with the stall error.
                    if entry.timed_out.load(Ordering::Acquire) {
                        let (edge, waited) = parked.map_or(("<unknown>", watchdog), |last| {
                            (last.edge, last.since.elapsed())
                        });
                        return resolve(
                            &ops,
                            &mut complete,
                            Err(TransportError::Protocol(format!(
                                "pooled runtime watchdog: session {id} stalled waiting on \
                                 {edge}: no frame arrived in {}ms (configured deadline \
                                 {}ms)",
                                waited.as_millis(),
                                watchdog.as_millis()
                            ))),
                        );
                    }
                    let Some(edge) = waiting else {
                        // Pending without a recorded receive would park
                        // forever: surface the bug instead of hanging.
                        return resolve(
                            &ops,
                            &mut complete,
                            Err(TransportError::Protocol(format!(
                                "session {id} yielded without a pending receive \
                                 (RoleProgram returned Step::Pending but no \
                                 try_receive_* came up empty)"
                            ))),
                        );
                    };
                    let since = Instant::now();
                    *parked = Some(Parked { since, edge });
                    PollOutcome::Parked(since)
                }
            }
        });

        let entry = {
            let mut slab = self.shared.tasks.lock();
            let shared = Arc::downgrade(&self.shared);
            slab.insert(|index| {
                Arc::new_cyclic(|entry: &Weak<TaskEntry>| TaskEntry {
                    state: AtomicU8::new(QUEUED),
                    task: Mutex::new((poll, None)),
                    waker: Waker::from(Arc::new(TaskWaker { shared, entry: entry.clone() })),
                    timed_out: AtomicBool::new(false),
                    index,
                })
            })
        };
        self.shared.live.fetch_add(1, Ordering::AcqRel);
        self.shared.enqueue(entry);
        SessionHandle { cell, id }
    }
}

impl Drop for SessionRuntime {
    fn drop(&mut self) {
        let sleepers = {
            let mut queue = self.shared.queue.lock();
            queue.shutdown = true;
            std::mem::take(&mut queue.idle)
        };
        for sleeper in sleepers {
            sleeper.wake();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}
