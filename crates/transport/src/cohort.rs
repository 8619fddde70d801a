//! One way to run a census: a [`Cohort`] runs each session's roles,
//! one per location, over a net the caller supplies.
//!
//! The paper's portability claim (§2.1) is that one choreography runs
//! unchanged over any transport, because the caller injects it. A
//! cohort is where tests, tables and examples inject it: any
//! [`MakeTransport`] — an in-process channel, a [`SimNet`], a
//! [`TcpConfig`], or a local wrapper around one — and the same roles
//! run over it.
//!
//! What a cohort guarantees:
//!
//! * **One thread and one endpoint per location, for the cohort's
//!   life.** A location's thread is named after it and starts at its
//!   first [`spawn`](Cohort::spawn) or [`role`](Cohort::role); its
//!   endpoint, with the cohort's layers, is built once and owned by
//!   that thread. No run spawns a thread, and dropping the cohort
//!   closes every thread's queue and joins them all. A thread waits for
//!   its next job as an in-process receive waits for a frame
//!   ([`park::poll_before_park`]): a bounded yield, then it blocks. So
//!   a run that closely follows the last finds its threads awake.
//! * **A run ends only when every role has returned.** [`Cohort::run`]
//!   hands each role to its location's thread, runs one more role inline
//!   on the caller's thread (over an endpoint from
//!   [`endpoint`](Cohort::endpoint)), and waits for all of them — even
//!   after one has panicked.
//! * **The first panic is re-raised with its own payload**: the roles in
//!   the order given, then the inline one. The threads survive it and
//!   serve the next run.
//!
//! ```ignore
//! let cohort = Cohort::over(LocalTransportChannel::<Census>::new()).layer(metrics);
//! let server = cohort.role(Server, |endpoint| {
//!     let session = endpoint.session();
//!     session.epp_and_run(Greet { name: session.remote(Client) });
//! });
//! let (_, reply) = cohort.run(vec![server], || {
//!     let endpoint = cohort.endpoint(Client);
//!     let session = endpoint.session();
//!     let reply = session.epp_and_run(Greet { name: session.local("world".into()) });
//!     session.unwrap(reply)
//! });
//! ```

use crate::{LocalTransport, LocalTransportChannel, SimNet, SimTransport, TcpConfig, TcpTransport};
use chorus_core::sync::Mutex;
use chorus_core::{park, ChoreographyLocation, Endpoint, Layer, LocationSet, SessionTransport};
use std::any::Any;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::task::Poll;
use std::thread;

/// A net every location of census `L` can build its transport from.
pub trait MakeTransport<L: LocationSet> {
    /// Location `R`'s transport.
    type Transport<R: ChoreographyLocation>: SessionTransport<L, R> + Send + 'static;

    /// Builds `location`'s transport over this net.
    fn transport<R: ChoreographyLocation>(&self, location: R) -> Self::Transport<R>;
}

impl<L: LocationSet> MakeTransport<L> for LocalTransportChannel<L> {
    type Transport<R: ChoreographyLocation> = LocalTransport<L, R>;

    fn transport<R: ChoreographyLocation>(&self, location: R) -> LocalTransport<L, R> {
        LocalTransport::new(location, self.clone())
    }
}

impl<L: LocationSet> MakeTransport<L> for SimNet<L> {
    type Transport<R: ChoreographyLocation> = SimTransport<L, R>;

    fn transport<R: ChoreographyLocation>(&self, location: R) -> SimTransport<L, R> {
        SimTransport::new(location, self.clone())
    }
}

impl<L: LocationSet> MakeTransport<L> for TcpConfig<L> {
    type Transport<R: ChoreographyLocation> = TcpTransport<L, R>;

    /// # Panics
    ///
    /// Panics if `location`'s listener cannot bind.
    fn transport<R: ChoreographyLocation>(&self, location: R) -> TcpTransport<L, R> {
        TcpTransport::bind(location, self.clone())
            .unwrap_or_else(|e| panic!("binding {}'s listener: {e}", R::NAME))
    }
}

/// Location `R`'s endpoint in a cohort over `N`.
pub type CohortEndpoint<L, R, N> = Endpoint<L, R, <N as MakeTransport<L>>::Transport<R>>;

/// Work for a location's thread. It gets the thread's endpoint as
/// `&dyn Any`, so every thread has this one type; [`Cohort::role`] is
/// the one place that recovers the endpoint's type.
type Job = Box<dyn FnOnce(&dyn Any) + Send>;

/// The next job on `queue`: a bounded yield, then a blocking `recv`.
/// `None` once the queue has closed.
fn next_job(queue: &mpsc::Receiver<Job>) -> Option<Job> {
    let polled = park::poll_before_park(|| match queue.try_recv() {
        Err(TryRecvError::Empty) => Poll::Pending,
        polled => Poll::Ready(polled.ok()),
    });
    match polled {
        Poll::Ready(job) => job,
        Poll::Pending => queue.recv().ok(),
    }
}

/// One location's thread, serving jobs until its queue closes.
struct RoleThread {
    jobs: mpsc::Sender<Job>,
    handle: thread::JoinHandle<()>,
}

/// One location's part of a run, bound for that location's thread.
pub struct Role<T> {
    location: &'static str,
    run: Box<dyn FnOnce(&dyn Any) -> T + Send>,
}

/// A census run over one net: a long-lived thread and endpoint per
/// location, and runs that end when every role has returned. See the
/// [module docs](self).
pub struct Cohort<L: LocationSet, N: MakeTransport<L>> {
    net: N,
    layers: Vec<Arc<dyn Layer>>,
    threads: Mutex<BTreeMap<&'static str, RoleThread>>,
    phantom: PhantomData<fn() -> L>,
}

impl<L: LocationSet, N: MakeTransport<L>> Cohort<L, N> {
    /// A cohort over `net`, with no threads yet.
    pub fn over(net: N) -> Self {
        Cohort {
            net,
            layers: Vec::new(),
            threads: Mutex::new(BTreeMap::new()),
            phantom: PhantomData,
        }
    }

    /// Installs `layer` on every endpoint the cohort builds from now on.
    pub fn layer(mut self, layer: Arc<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// The net every endpoint is built over.
    pub fn net(&self) -> &N {
        &self.net
    }

    /// Builds an endpoint for `location` over the net, with the cohort's
    /// layers, for a role run on the caller's thread.
    pub fn endpoint<R: ChoreographyLocation>(&self, location: R) -> CohortEndpoint<L, R, N> {
        let builder = Endpoint::builder(location).transport(self.net.transport(location));
        self.layers.iter().fold(builder, |builder, layer| builder.layer(Arc::clone(layer))).build()
    }

    /// Starts `location`'s thread and endpoint, unless it is running.
    pub fn spawn<R: ChoreographyLocation>(&self, location: R) {
        let mut threads = self.threads.lock();
        if threads.contains_key(R::NAME) {
            return;
        }
        let endpoint = self.endpoint(location);
        let (jobs, queue) = mpsc::channel::<Job>();
        let handle = thread::Builder::new()
            .name(R::NAME.to_string())
            .spawn(move || {
                while let Some(job) = next_job(&queue) {
                    job(&endpoint);
                }
            })
            .expect("spawning a role thread");
        threads.insert(R::NAME, RoleThread { jobs, handle });
    }

    /// `location`'s part of a run: `run` gets the location's endpoint on
    /// its own thread, which starts here if it is not running yet.
    pub fn role<R, T>(
        &self,
        location: R,
        run: impl FnOnce(&CohortEndpoint<L, R, N>) -> T + Send + 'static,
    ) -> Role<T>
    where
        R: ChoreographyLocation,
    {
        self.spawn(location);
        Role {
            location: R::NAME,
            run: Box::new(move |endpoint: &dyn Any| {
                run(endpoint.downcast_ref().expect("a role runs on its own location's thread"))
            }),
        }
    }

    /// Runs one session: each of `roles` on its location's thread, and
    /// `inline` on this one. Returns the roles' results in order and the
    /// inline one's, once every role has returned; if any panicked, the
    /// first — `roles` in order, then `inline` — is re-raised here with
    /// its own payload.
    pub fn run<T: Send + 'static, C>(
        &self,
        roles: Vec<Role<T>>,
        inline: impl FnOnce() -> C,
    ) -> (Vec<T>, C) {
        let (done, reports) = mpsc::channel();
        {
            let threads = self.threads.lock();
            for (index, Role { location, run }) in roles.into_iter().enumerate() {
                let done = done.clone();
                let job: Job = Box::new(move |endpoint| {
                    let outcome = catch_unwind(AssertUnwindSafe(|| run(endpoint)));
                    // The caller holds the receiver until every job reports.
                    let _ = done.send((index, outcome));
                });
                threads[location].jobs.send(job).expect("role threads live as long as the cohort");
            }
        }
        drop(done);
        let inline = catch_unwind(AssertUnwindSafe(inline));
        // Ends when the last job has reported and dropped its sender.
        let mut reports: Vec<(usize, thread::Result<T>)> = reports.into_iter().collect();
        reports.sort_by_key(|(index, _)| *index);
        let outputs = reports
            .into_iter()
            .map(|(_, outcome)| outcome.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect();
        (outputs, inline.unwrap_or_else(|payload| resume_unwind(payload)))
    }
}

impl<L: LocationSet, N: MakeTransport<L>> Drop for Cohort<L, N> {
    /// Closes every thread's queue, so the endpoints close together,
    /// then joins the threads.
    fn drop(&mut self) {
        let handles: Vec<_> = std::mem::take(&mut *self.threads.lock())
            .into_values()
            .map(|RoleThread { jobs, handle }| {
                drop(jobs);
                handle
            })
            .collect();
        for handle in handles {
            // Jobs catch their roles' panics, so a thread only ends when
            // its queue closes.
            let _ = handle.join();
        }
    }
}
