//! The choreography traits: the paper's Fig. 6 API.
//!
//! A [`Choreography`] is a struct whose `run` method describes the behavior
//! of *all* participants; it receives its choreographic operators through
//! the [`ChoreoOp`] trait. Endpoint projection as dependency injection
//! (§5.2) means "EPP is done by executing the choreography function with
//! concrete implementations of the operators": a
//! [`Session`](crate::Session) injects per-endpoint operator
//! implementations, while the [`Runner`](crate::Runner) injects the
//! centralized semantics.

use crate::faceted::Faceted;
use crate::fold::{LocationSetFoldable, LocationSetFolder};
use crate::located::{Located, MultiplyLocated, Unwrapper};
use crate::location::{ChoreographyLocation, LocationSet};
use crate::member::{Member, Subset, SubsetCons, SubsetNil};
use crate::quire::Quire;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::marker::PhantomData;

/// A value that can cross the network: serializable on the way out,
/// deserializable on the way in.
///
/// Blanket-implemented for every type that implements the serde traits; the
/// wire format is [`chorus_wire`].
pub trait Portable: Serialize + DeserializeOwned {}

impl<T: Serialize + DeserializeOwned> Portable for T {}

/// Why a fallible communication failed, as observed by one endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommFailureKind {
    /// The transport could not deliver or produce a frame (link dead,
    /// poisoned, silenced, or the receive watchdog fired).
    Transport(String),
    /// A frame arrived but its payload did not decode as the expected
    /// type — a corrupted or forged message.
    Decode(String),
}

/// A failed communication attributed to the peer it involved.
///
/// Returned by [`ChoreoOp::try_multicast`] so robust choreographies
/// (the `chorus_patterns` crate) can convert transport-level trouble
/// into typed, culprit-naming protocol errors instead of panicking the
/// endpoint. `peer` is the remote side of the failed exchange: the
/// sender when receiving failed, the destination when sending failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommFailure {
    /// The remote location the failure involves.
    pub peer: String,
    /// What went wrong.
    pub kind: CommFailureKind,
}

impl std::fmt::Display for CommFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            CommFailureKind::Transport(msg) => {
                write!(f, "communication with {} failed: {msg}", self.peer)
            }
            CommFailureKind::Decode(msg) => {
                write!(f, "message from {} did not decode: {msg}", self.peer)
            }
        }
    }
}

impl std::error::Error for CommFailure {}

impl CommFailure {
    /// Panics the way the panicking operators report a failure of their
    /// send from `sender`: at a receiver (where `peer` is `sender`) as
    /// "failed to receive from {peer}: …" or "failed to decode message
    /// from {peer}: …", at the sender as "failed to {op}: …".
    pub(crate) fn raise(self, op: &str, sender: &str) -> ! {
        match self.kind {
            CommFailureKind::Transport(e) | CommFailureKind::Decode(e) if self.peer != sender => {
                panic!("failed to {op}: {e}")
            }
            CommFailureKind::Transport(e) => panic!("failed to receive from {}: {e}", self.peer),
            CommFailureKind::Decode(e) => {
                panic!("failed to decode message from {}: {e}", self.peer)
            }
        }
    }
}

/// A choreography: one global program describing every participant's
/// behavior (§2).
///
/// `L` is the census — the set of locations eligible to participate
/// (§3.2). `R` is the type the choreography evaluates to at every endpoint
/// (typically containing located values so each party keeps only its own
/// view).
pub trait Choreography<R = ()> {
    /// The census of this choreography.
    type L: LocationSet;

    /// Runs the choreography against an injected set of operators.
    fn run(self, op: &impl ChoreoOp<Self::L>) -> R;
}

/// A loop body for [`ChoreoOp::fanout`] (§3.4, §5.5).
///
/// Rust closures cannot be generic, so the body of a census-polymorphic
/// loop is a struct whose `run` method is generic over the current location
/// `Q`, with membership proofs relating `Q` to the census `L` and the
/// looped-over set `QS`.
pub trait FanOutChoreography<V> {
    /// The census in scope for the loop body.
    type L: LocationSet;
    /// The locations being looped over.
    type QS: LocationSet;

    /// One iteration of the loop, producing a value located at `Q`.
    fn run<Q: ChoreographyLocation, QSSubsetL, QMemberL, QMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> Located<V, Q>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>;
}

/// A loop body for [`ChoreoOp::fanin`] (§3.4, §5.5).
///
/// Like [`FanOutChoreography`], but every iteration produces a value at the
/// fixed recipient set `RS`; the results are aggregated into a
/// multiply-located [`Quire`].
pub trait FanInChoreography<V> {
    /// The census in scope for the loop body.
    type L: LocationSet;
    /// The locations being looped over (the senders).
    type QS: LocationSet;
    /// The recipients that end up owning every iteration's value.
    type RS: LocationSet;

    /// One iteration of the loop, producing a value owned by `RS`.
    fn run<Q: ChoreographyLocation, QSSubsetL, RSSubsetL, QMemberL, QMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> MultiplyLocated<V, Self::RS>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Self::RS: Subset<Self::L, RSSubsetL>,
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>;
}

/// The choreographic operators available inside a choreography with census
/// `ChoreoLS` (paper Fig. 6).
///
/// The required methods are the primitives ([`locally`],
/// [`try_multicast`], [`broadcast`], [`agree`], [`conclave`]); the rest
/// are derived, mirroring §5.5's observation that `scatter`, `gather`,
/// and `parallel` are definable from `fanout`/`fanin`. The panicking
/// [`multicast`] and `comm` are `try_multicast` with its failure raised,
/// and `fanin` learns whether this endpoint is a recipient by running
/// its collector as a conclave of the recipients.
///
/// [`locally`]: ChoreoOp::locally
/// [`try_multicast`]: ChoreoOp::try_multicast
/// [`multicast`]: ChoreoOp::multicast
/// [`broadcast`]: ChoreoOp::broadcast
/// [`agree`]: ChoreoOp::agree
/// [`conclave`]: ChoreoOp::conclave
pub trait ChoreoOp<ChoreoLS: LocationSet> {
    /// Performs a local computation at `location`.
    ///
    /// The computation receives an [`Unwrapper`] scoped to `location`, with
    /// which it can read located and faceted values owned by `location`.
    /// All other participants skip the computation. Returns the result as a
    /// value located at `location`.
    fn locally<V, L1: ChoreographyLocation, Index>(
        &self,
        location: L1,
        computation: impl Fn(Unwrapper<L1>) -> V,
    ) -> Located<V, L1>
    where
        L1: Member<ChoreoLS, Index>;

    /// Sends a value from `src` to every location in `destination`,
    /// returning a multiply-located value owned by `destination` (§3.3).
    ///
    /// If `src` is itself in `destination` it keeps its copy without a
    /// network round trip.
    ///
    /// # Panics
    ///
    /// Panics if the underlying transport fails, with the failure
    /// [`try_multicast`](ChoreoOp::try_multicast) reports.
    fn multicast<Sender: ChoreographyLocation, V: Portable, D: LocationSet, Index1, Index2>(
        &self,
        src: Sender,
        destination: D,
        data: &Located<V, Sender>,
    ) -> MultiplyLocated<V, D>
    where
        Sender: Member<ChoreoLS, Index1>,
        D: Subset<ChoreoLS, Index2>,
    {
        self.try_multicast(src, destination, data)
            .unwrap_or_else(|failure| failure.raise("multicast", Sender::NAME))
    }

    /// Fallible [`multicast`](ChoreoOp::multicast): communication
    /// trouble surfaces as a [`CommFailure`] naming the peer instead of
    /// panicking the endpoint.
    ///
    /// At the sender, `Err` means some destination could not be reached
    /// (`peer` is that destination). At a receiver, `Err` means the
    /// frame from `src` never arrived or did not decode (`peer` is
    /// `src`). Endpoints outside `destination` (other than `src`)
    /// always observe `Ok` of a remote value.
    fn try_multicast<Sender: ChoreographyLocation, V: Portable, D: LocationSet, Index1, Index2>(
        &self,
        src: Sender,
        destination: D,
        data: &Located<V, Sender>,
    ) -> Result<MultiplyLocated<V, D>, CommFailure>
    where
        Sender: Member<ChoreoLS, Index1>,
        D: Subset<ChoreoLS, Index2>;

    /// Sends a value from `src` to the *entire census* and returns it bare:
    /// after a broadcast everyone knows the value, so everyone may branch on
    /// it. Broadcasting inside a [`conclave`](ChoreoOp::conclave) is the
    /// paper's efficient knowledge-of-choice mechanism (§3.2): the message
    /// only goes to the conclave's census, not the whole system.
    ///
    /// # Panics
    ///
    /// Panics if the underlying transport fails.
    fn broadcast<Sender: ChoreographyLocation, V: Portable, Index>(
        &self,
        src: Sender,
        data: Located<V, Sender>,
    ) -> V
    where
        Sender: Member<ChoreoLS, Index>;

    /// Unwraps a multiply-located value owned by a superset of the census.
    ///
    /// Everyone present is an owner, so the value may be used bare;
    /// subsequent computation on it is actively replicated (§5.2).
    fn naked<S: LocationSet, V, Index>(&self, data: MultiplyLocated<V, S>) -> V
    where
        ChoreoLS: Subset<S, Index>,
    {
        let _ = self;
        data.into_inner_option().expect("naked: census-owned value must be present at every member")
    }

    /// Collapses a faceted value into a bare one under the caller's
    /// assertion that every owner holds an *equal* facet — knowledge of
    /// choice for failure handling.
    ///
    /// The robust patterns end their verdict-exchange rounds with every
    /// participant holding the same resolution (honest majorities outvote
    /// a culprit's counter-accusations); `agree` is how a protocol then
    /// branches on that resolution — e.g. skipping an inner protocol whose
    /// links are known-bad — without a trusted broadcaster.
    ///
    /// Returns `Some` of the facet at owners and `None` at census members
    /// outside `S`. The centralized [`Runner`](crate::Runner) sees every
    /// facet and *checks* the assertion, panicking on divergence; a
    /// projected endpoint sees only its own facet and must trust the
    /// protocol. A protocol that calls `agree` on facets that can diverge
    /// gets diverging control flow — which transport watchdogs turn into
    /// an error at the stranded endpoints, never a silent wrong result.
    fn agree<V, S: LocationSet, Index>(&self, locations: S, data: &Faceted<V, S>) -> Option<V>
    where
        V: Clone + PartialEq,
        S: Subset<ChoreoLS, Index>;

    /// Runs a sub-choreography among the sub-census `S` (§3.2).
    ///
    /// Endpoints outside `S` skip the body entirely — no communication, no
    /// computation — and the result comes back as a value owned by `S`, so
    /// knowledge-of-choice decisions made inside the conclave can be reused
    /// afterwards (§3.3).
    fn conclave<R, S: LocationSet, C: Choreography<R, L = S>, Index>(
        &self,
        choreo: C,
    ) -> MultiplyLocated<R, S>
    where
        S: Subset<ChoreoLS, Index>;

    /// Point-to-point communication: the `~>` operator of Fig. 1.
    ///
    /// # Panics
    ///
    /// Panics if the underlying transport fails.
    fn comm<
        Sender: ChoreographyLocation,
        Receiver: ChoreographyLocation,
        V: Portable,
        Index1,
        Index2,
    >(
        &self,
        from: Sender,
        to: Receiver,
        data: &Located<V, Sender>,
    ) -> Located<V, Receiver>
    where
        Sender: Member<ChoreoLS, Index1>,
        Receiver: Member<ChoreoLS, Index2>,
        Self: Sized,
    {
        let _ = to;
        self.multicast::<Sender, V, crate::LocationSet!(Receiver), Index1, SubsetCons<Index2, SubsetNil>>(
            from,
            LocationSet::new(),
            data,
        )
    }

    /// Runs `c` once for every location in `locations`, collecting each
    /// iteration's located result into a [`Faceted`] value (§3.4).
    ///
    /// The loop does **not** conclave its body: the entire census may
    /// participate in every iteration. Call
    /// [`conclave`](ChoreoOp::conclave) inside the body if that is not
    /// desired.
    fn fanout<V, QS, FOC, QSSubsetL, QSFoldable>(&self, locations: QS, c: FOC) -> Faceted<V, QS>
    where
        QS: LocationSet + Subset<ChoreoLS, QSSubsetL>,
        FOC: FanOutChoreography<V, L = ChoreoLS, QS = QS>,
        QS: LocationSetFoldable<ChoreoLS, QS, QSFoldable>,
        Self: Sized,
    {
        let _ = locations;
        let folder: FanOutFolder<'_, Self, FOC, V, ChoreoLS, QS, QSSubsetL> =
            FanOutFolder { op: self, choreo: &c, phantom: PhantomData };
        QS::foldr(&folder, Faceted::none())
    }

    /// Runs `c` once for every location in `locations`, aggregating the
    /// iterations' results — each owned by the fixed recipient set `RS` —
    /// into a [`Quire`] owned by `RS` (§3.4).
    fn fanin<V, QS, RS, FIC, QSSubsetL, RSSubsetL, QSFoldable>(
        &self,
        locations: QS,
        c: FIC,
    ) -> MultiplyLocated<Quire<V, QS>, RS>
    where
        QS: LocationSet + Subset<ChoreoLS, QSSubsetL>,
        RS: LocationSet + Subset<ChoreoLS, RSSubsetL>,
        FIC: FanInChoreography<V, L = ChoreoLS, QS = QS, RS = RS>,
        QS: LocationSetFoldable<ChoreoLS, QS, QSFoldable>,
        Self: Sized,
    {
        let _ = locations;
        let folder: FanInFolder<'_, Self, FIC, V, ChoreoLS, QS, RS, QSSubsetL, RSSubsetL> =
            FanInFolder { op: self, choreo: &c, phantom: PhantomData };
        let values = QS::foldr(&folder, Vec::new());
        self.conclave::<_, RS, _, _>(Collect::<V, QS, RS> { values, phantom: PhantomData })
    }

    /// Divergent, actively-parallel local computation (§3.4): every
    /// location in `locations` evaluates `computation` independently, and
    /// each keeps its own result as its facet.
    fn parallel<V, S, F, Index, SFoldable>(&self, locations: S, computation: F) -> Faceted<V, S>
    where
        S: LocationSet + Subset<ChoreoLS, Index>,
        S: LocationSetFoldable<ChoreoLS, S, SFoldable>,
        F: Fn() -> V,
        Self: Sized,
    {
        self.parallel_named(locations, |_| computation())
    }

    /// Like [`parallel`](ChoreoOp::parallel), but the computation also
    /// receives the name of the location executing it.
    fn parallel_named<V, S, F, Index, SFoldable>(
        &self,
        locations: S,
        computation: F,
    ) -> Faceted<V, S>
    where
        S: LocationSet + Subset<ChoreoLS, Index>,
        S: LocationSetFoldable<ChoreoLS, S, SFoldable>,
        F: Fn(&'static str) -> V,
        Self: Sized,
    {
        self.fanout(
            locations,
            ParallelBody::<'_, F, V, ChoreoLS, S> {
                computation: &computation,
                phantom: PhantomData,
            },
        )
    }

    /// Divergent local computation over an existing [`Faceted`] value:
    /// every owner applies `f` to its own facet, producing a new faceted
    /// value. No communication happens.
    fn map_facets<W, V, S, F, Index, SFoldable>(
        &self,
        locations: S,
        data: &Faceted<W, S>,
        f: F,
    ) -> Faceted<V, S>
    where
        S: LocationSet + Subset<ChoreoLS, Index>,
        S: LocationSetFoldable<ChoreoLS, S, SFoldable>,
        F: Fn(&W) -> V,
        Self: Sized,
    {
        self.fanout(
            locations,
            MapFacetsBody::<'_, F, W, V, ChoreoLS, S> { data, f: &f, phantom: PhantomData },
        )
    }

    /// Like [`map_facets`](ChoreoOp::map_facets) but over two faceted
    /// values with the same owners: each owner combines its two facets.
    fn map_facets2<W1, W2, V, S, F, Index, SFoldable>(
        &self,
        locations: S,
        left: &Faceted<W1, S>,
        right: &Faceted<W2, S>,
        f: F,
    ) -> Faceted<V, S>
    where
        S: LocationSet + Subset<ChoreoLS, Index>,
        S: LocationSetFoldable<ChoreoLS, S, SFoldable>,
        F: Fn(&W1, &W2) -> V,
        Self: Sized,
    {
        self.fanout(
            locations,
            MapFacets2Body::<'_, F, W1, W2, V, ChoreoLS, S> {
                left,
                right,
                f: &f,
                phantom: PhantomData,
            },
        )
    }

    /// Distributes the entries of a sender-held [`Quire`] so that each
    /// location in `to` receives its own entry, as a [`Faceted`] value.
    ///
    /// Derived from [`fanout`](ChoreoOp::fanout), as §5.5 prescribes.
    ///
    /// # Panics
    ///
    /// Panics if the underlying transport fails.
    fn scatter<Sender, V, QS, SenderIndex, QSSubset, QSFoldable>(
        &self,
        from: Sender,
        to: QS,
        data: &Located<Quire<V, QS>, Sender>,
    ) -> Faceted<V, QS>
    where
        Sender: ChoreographyLocation + Member<ChoreoLS, SenderIndex>,
        V: Portable + Clone,
        QS: LocationSet + Subset<ChoreoLS, QSSubset>,
        QS: LocationSetFoldable<ChoreoLS, QS, QSFoldable>,
        Self: Sized,
    {
        let _ = from;
        self.fanout(to, crate::ops::Scatter::<'_, V, Sender, QS, ChoreoLS, SenderIndex>::new(data))
    }

    /// Collects every sender's facet of a [`Faceted`] value into a
    /// [`Quire`] owned by the recipient set `to`.
    ///
    /// Derived from [`fanin`](ChoreoOp::fanin), as §5.5 prescribes.
    ///
    /// # Panics
    ///
    /// Panics if the underlying transport fails.
    fn gather<V, QS, RS, QSSubset, RSSubset, QSFoldable>(
        &self,
        from: QS,
        to: RS,
        data: &Faceted<V, QS>,
    ) -> MultiplyLocated<Quire<V, QS>, RS>
    where
        V: Portable + Clone,
        QS: LocationSet + Subset<ChoreoLS, QSSubset>,
        RS: LocationSet + Subset<ChoreoLS, RSSubset>,
        QS: LocationSetFoldable<ChoreoLS, QS, QSFoldable>,
        Self: Sized,
    {
        let _ = from;
        let _ = to;
        self.fanin(QS::new(), crate::ops::Gather::<'_, V, QS, RS, ChoreoLS>::new(data))
    }
}

struct FanOutFolder<'a, Op, FOC, V, L, QS, QSSubsetL> {
    op: &'a Op,
    choreo: &'a FOC,
    phantom: PhantomData<fn() -> (V, L, QS, QSSubsetL)>,
}

impl<Op, FOC, V, L, QS, QSSubsetL> LocationSetFolder<Faceted<V, QS>>
    for FanOutFolder<'_, Op, FOC, V, L, QS, QSSubsetL>
where
    Op: ChoreoOp<L>,
    L: LocationSet,
    QS: LocationSet + Subset<L, QSSubsetL>,
    FOC: FanOutChoreography<V, L = L, QS = QS>,
{
    type L = L;
    type QS = QS;

    fn f<Q: ChoreographyLocation, QMemberL, QMemberQS>(
        &self,
        mut acc: Faceted<V, QS>,
    ) -> Faceted<V, QS>
    where
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>,
    {
        let result = self.choreo.run::<Q, QSSubsetL, QMemberL, QMemberQS>(self.op);
        if let Some(v) = result.into_inner_option() {
            acc.insert(Q::NAME, v);
        }
        acc
    }
}

struct FanInFolder<'a, Op, FIC, V, L, QS, RS, QSSubsetL, RSSubsetL> {
    op: &'a Op,
    choreo: &'a FIC,
    phantom: PhantomData<fn() -> (V, L, QS, RS, QSSubsetL, RSSubsetL)>,
}

impl<Op, FIC, V, L, QS, RS, QSSubsetL, RSSubsetL> LocationSetFolder<Vec<V>>
    for FanInFolder<'_, Op, FIC, V, L, QS, RS, QSSubsetL, RSSubsetL>
where
    Op: ChoreoOp<L>,
    L: LocationSet,
    QS: LocationSet + Subset<L, QSSubsetL>,
    RS: LocationSet + Subset<L, RSSubsetL>,
    FIC: FanInChoreography<V, L = L, QS = QS, RS = RS>,
{
    type L = L;
    type QS = QS;

    /// Pushes the iteration's value, if this endpoint is a recipient:
    /// the fold visits `QS` in census order, so a recipient's values
    /// end up in census order too.
    fn f<Q: ChoreographyLocation, QMemberL, QMemberQS>(&self, mut acc: Vec<V>) -> Vec<V>
    where
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>,
    {
        let result = self.choreo.run::<Q, QSSubsetL, RSSubsetL, QMemberL, QMemberQS>(self.op);
        if let Some(v) = result.into_inner_option() {
            acc.reserve_exact(QS::LENGTH - acc.len());
            acc.push(v);
        }
        acc
    }
}

/// The end of a [`ChoreoOp::fanin`]: the recipients `RS` assemble the
/// iterations' results into a [`Quire`], and everyone else skips it.
struct Collect<V, QS, RS> {
    values: Vec<V>,
    phantom: PhantomData<fn() -> (QS, RS)>,
}

impl<V, QS: LocationSet, RS: LocationSet> Choreography<Quire<V, QS>> for Collect<V, QS, RS> {
    type L = RS;

    fn run(self, _op: &impl ChoreoOp<RS>) -> Quire<V, QS> {
        Quire::from_values(self.values)
            .unwrap_or_else(|_| panic!("fanin: missing iteration results at a recipient"))
    }
}

struct MapFacetsBody<'a, F, W, V, L, QS> {
    data: &'a Faceted<W, QS>,
    f: &'a F,
    phantom: PhantomData<fn() -> (V, L)>,
}

impl<F, W, V, L, QS> FanOutChoreography<V> for MapFacetsBody<'_, F, W, V, L, QS>
where
    F: Fn(&W) -> V,
    L: LocationSet,
    QS: LocationSet,
{
    type L = L;
    type QS = QS;

    fn run<Q: ChoreographyLocation, QSSubsetL, QMemberL, QMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> Located<V, Q>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>,
    {
        op.locally(Q::new(), |un| (self.f)(un.unwrap_faceted_ref::<W, QS, QMemberQS>(self.data)))
    }
}

struct MapFacets2Body<'a, F, W1, W2, V, L, QS> {
    left: &'a Faceted<W1, QS>,
    right: &'a Faceted<W2, QS>,
    f: &'a F,
    phantom: PhantomData<fn() -> (V, L)>,
}

impl<F, W1, W2, V, L, QS> FanOutChoreography<V> for MapFacets2Body<'_, F, W1, W2, V, L, QS>
where
    F: Fn(&W1, &W2) -> V,
    L: LocationSet,
    QS: LocationSet,
{
    type L = L;
    type QS = QS;

    fn run<Q: ChoreographyLocation, QSSubsetL, QMemberL, QMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> Located<V, Q>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>,
    {
        op.locally(Q::new(), |un| {
            (self.f)(
                un.unwrap_faceted_ref::<W1, QS, QMemberQS>(self.left),
                un.unwrap_faceted_ref::<W2, QS, QMemberQS>(self.right),
            )
        })
    }
}

struct ParallelBody<'a, F, V, L, QS> {
    computation: &'a F,
    phantom: PhantomData<fn() -> (V, L, QS)>,
}

impl<F, V, L, QS> FanOutChoreography<V> for ParallelBody<'_, F, V, L, QS>
where
    F: Fn(&'static str) -> V,
    L: LocationSet,
    QS: LocationSet,
{
    type L = L;
    type QS = QS;

    fn run<Q: ChoreographyLocation, QSSubsetL, QMemberL, QMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> Located<V, Q>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>,
    {
        op.locally(Q::new(), |_| (self.computation)(Q::NAME))
    }
}
