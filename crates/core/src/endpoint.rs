//! Long-lived, session-multiplexed execution endpoints.
//!
//! An [`Endpoint`] is built **once per process** over a
//! [`SessionTransport`] and then hands out cheap [`Session`]s, each of
//! which runs one choreography. Sessions share the endpoint's links and
//! interleave freely on the wire; the transport demultiplexes incoming
//! frames into per-(session, sender) FIFO mailboxes, so concurrent runs
//! never corrupt each other (the failure mode of binding one raw
//! transport per run).
//!
//! Cross-cutting concerns — metrics, tracing — are [`Layer`]s installed
//! at build time and invoked on every send and receive:
//!
//! ```ignore
//! let metrics = Arc::new(TransportMetrics::new());
//! let endpoint = Endpoint::builder(Alice)
//!     .transport(tcp)
//!     .layer(Arc::clone(&metrics))
//!     .build();
//! let session = endpoint.session();
//! let result = session.epp_and_run(MyChoreography { .. });
//! ```

use crate::location::{ChoreographyLocation, LocationSet};
use crate::session::Session;
use crate::transport::{SessionId, SessionTransport};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Metadata describing one message as it passes through the [`Layer`]
/// stack.
#[derive(Debug, Clone, Copy)]
pub struct MessageCtx<'a> {
    /// The session the message belongs to.
    pub session: SessionId,
    /// The message's per-(session, sender → receiver) sequence number.
    pub seq: u64,
    /// Name of the sending location.
    pub from: &'a str,
    /// Name of the receiving location.
    pub to: &'a str,
}

/// Composable middleware observing every message an endpoint sends or
/// receives.
///
/// Layers replace the old `InstrumentedTransport` wrapper: instead of
/// wrapping a transport per concern, any number of layers are installed
/// at [`Endpoint`] build time and see every session's traffic with full
/// context (session id, sequence number, edge). `TransportMetrics` in
/// `chorus-transport` is the canonical example.
///
/// Both hooks default to no-ops, so a layer only implements the side it
/// cares about. Hooks run on the thread performing the send/receive and
/// should be cheap; `on_send` runs before the frame reaches the
/// transport, `on_receive` after a frame has been delivered from the
/// mailbox.
pub trait Layer: Send + Sync {
    /// Observes one outgoing payload.
    fn on_send(&self, ctx: &MessageCtx<'_>, payload: &[u8]) {
        let _ = (ctx, payload);
    }

    /// Observes one incoming payload.
    fn on_receive(&self, ctx: &MessageCtx<'_>, payload: &[u8]) {
        let _ = (ctx, payload);
    }
}

impl<L: Layer + ?Sized> Layer for std::sync::Arc<L> {
    fn on_send(&self, ctx: &MessageCtx<'_>, payload: &[u8]) {
        (**self).on_send(ctx, payload);
    }

    fn on_receive(&self, ctx: &MessageCtx<'_>, payload: &[u8]) {
        (**self).on_receive(ctx, payload);
    }
}

/// One process's long-lived execution endpoint: a transport plus a layer
/// stack, multiplexing any number of concurrent [`Session`]s.
///
/// `TL` is the census the transport can reach and `Target` the location
/// this process plays. The endpoint is `Sync` whenever its transport is:
/// share it by reference across threads and give each concurrent
/// choreography its own session.
pub struct Endpoint<TL, Target, T> {
    transport: T,
    layers: Vec<Box<dyn Layer>>,
    next_session: AtomicU64,
    phantom: PhantomData<fn() -> (TL, Target)>,
}

impl<Target: ChoreographyLocation> Endpoint<crate::HNil, Target, ()> {
    /// Starts building an endpoint for `target`.
    ///
    /// The census and transport type are fixed by the later
    /// [`transport`](EndpointBuilder::transport) call:
    ///
    /// ```ignore
    /// let endpoint = Endpoint::builder(Alice)
    ///     .transport(transport)
    ///     .layer(metrics)
    ///     .build();
    /// ```
    pub fn builder(target: Target) -> EndpointBuilder<Target> {
        let _ = target;
        EndpointBuilder { layers: Vec::new(), target: PhantomData }
    }
}

impl<TL, Target, T> Endpoint<TL, Target, T>
where
    TL: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<TL, Target>,
{
    /// Builds an endpoint over `transport` with no layers — the common
    /// case for tests and examples that do not need instrumentation.
    pub fn new(transport: T) -> Self {
        Endpoint {
            transport,
            layers: Vec::new(),
            next_session: AtomicU64::new(0),
            phantom: PhantomData,
        }
    }

    /// Opens a session with a fresh id.
    ///
    /// Ids are allocated sequentially from zero, so endpoints that open
    /// their sessions in the same order agree on ids without
    /// coordination. When the orders can differ (e.g. sessions spawned
    /// from a thread pool), assign ids explicitly with
    /// [`session_with_id`](Endpoint::session_with_id).
    pub fn session(&self) -> Session<'_, TL, Target, T> {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        Session::new(self, id)
    }

    /// Opens a session with an explicit id.
    ///
    /// All participants of one choreography run must use the same id.
    /// Running two simultaneous sessions with the same id over one
    /// endpoint corrupts both; sequential reuse is fine. Dropping the
    /// session closes it: its receive-side state is reclaimed, and the
    /// id's next run starts a fresh stream at seq 0.
    pub fn session_with_id(&self, id: SessionId) -> Session<'_, TL, Target, T> {
        Session::new(self, id)
    }

    /// The underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    pub(crate) fn notify_send(&self, ctx: &MessageCtx<'_>, payload: &[u8]) {
        for layer in &self.layers {
            layer.on_send(ctx, payload);
        }
    }

    pub(crate) fn notify_receive(&self, ctx: &MessageCtx<'_>, payload: &[u8]) {
        for layer in &self.layers {
            layer.on_receive(ctx, payload);
        }
    }
}

/// First stage of the endpoint builder: layers may be installed, the
/// transport is still missing.
pub struct EndpointBuilder<Target: ChoreographyLocation> {
    layers: Vec<Box<dyn Layer>>,
    target: PhantomData<Target>,
}

impl<Target: ChoreographyLocation> EndpointBuilder<Target> {
    /// Installs a layer. Layers run in installation order on sends and
    /// receives alike.
    pub fn layer(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Supplies the transport, fixing the census `TL`.
    pub fn transport<TL, T>(self, transport: T) -> EndpointBuilderWithTransport<TL, Target, T>
    where
        TL: LocationSet,
        T: SessionTransport<TL, Target>,
    {
        EndpointBuilderWithTransport { transport, layers: self.layers, phantom: PhantomData }
    }
}

/// Second stage of the endpoint builder: transport fixed, more layers
/// may be installed.
pub struct EndpointBuilderWithTransport<TL, Target, T>
where
    TL: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<TL, Target>,
{
    transport: T,
    layers: Vec<Box<dyn Layer>>,
    phantom: PhantomData<fn() -> (TL, Target)>,
}

impl<TL, Target, T> EndpointBuilderWithTransport<TL, Target, T>
where
    TL: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<TL, Target>,
{
    /// Installs a layer. Layers run in installation order on sends and
    /// receives alike.
    pub fn layer(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Finishes the endpoint.
    pub fn build(self) -> Endpoint<TL, Target, T> {
        Endpoint {
            transport: self.transport,
            layers: self.layers,
            next_session: AtomicU64::new(0),
            phantom: PhantomData,
        }
    }
}
