//! Sessions: one choreography run over a shared [`Endpoint`].
//!
//! A [`Session`] is a cheap handle carrying a session id and per-peer
//! sequence counters. `session.epp_and_run(choreo)` performs endpoint
//! projection as dependency injection (§5.2), and every message travels
//! in a [`chorus_wire::Envelope`] tagged with the session id, so any
//! number of sessions can run concurrently over one transport.
//!
//! A fresh session pays for its payloads and nothing else. Opening one
//! allocates nothing: its counters are an inline array indexed by
//! census position ([`SeqCounters`]), names resolve by a walk over the
//! census type ([`locate`]), and values serialize into the running
//! thread's scratch buffer ([`encode_payload`]), which both execution
//! models share. A send allocates the shared payload buffer only.

use crate::choreography::{ChoreoOp, Choreography, CommFailure, CommFailureKind, Portable};
use crate::endpoint::{Endpoint, MessageCtx};
use crate::faceted::Faceted;
use crate::located::{Located, MultiplyLocated, Unwrapper};
use crate::location::{ChoreographyLocation, LocationSet};
use crate::member::{Member, Subset};
use crate::sync::Mutex;
use crate::transport::{locate, SessionId, SessionTransport, TransportError};
use chorus_wire::{Bytes, Envelope};
use std::cell::RefCell;
use std::marker::PhantomData;

/// One session's per-destination sequence counters, indexed by the
/// destination's census position.
///
/// A census of up to [`INLINE`](Self::INLINE) names (every census in
/// this workspace) fits in the inline array, so a session's counters
/// allocate nothing; positions past it spill into a vector grown on
/// first use.
pub(crate) struct SeqCounters {
    inline: [u64; Self::INLINE],
    spill: Vec<u64>,
}

impl SeqCounters {
    const INLINE: usize = 16;

    pub(crate) const fn new() -> Self {
        SeqCounters { inline: [0; Self::INLINE], spill: Vec::new() }
    }

    /// Hands out the next sequence number of the edge to the
    /// destination at census `position`.
    fn next(&mut self, position: usize) -> u64 {
        let counter = match position.checked_sub(Self::INLINE) {
            None => &mut self.inline[position],
            Some(spilled) => {
                if self.spill.len() <= spilled {
                    self.spill.resize(spilled + 1, 0);
                }
                &mut self.spill[spilled]
            }
        };
        let seq = *counter;
        *counter += 1;
        seq
    }
}

/// Serializes `value` into the running thread's scratch buffer and
/// copies the bytes once into the shared payload buffer that travels in
/// the frame: the payload is the send's one allocation.
///
/// The scratch buffer belongs to the thread, not to a session, so a
/// fresh session starts with a warm one; its capacity is the largest
/// value the thread has serialized.
pub(crate) fn encode_payload<V: Portable>(value: &V) -> Result<Bytes, chorus_wire::WireError> {
    thread_local! {
        static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.clear();
        chorus_wire::to_bytes_into(value, scratch)?;
        Ok(Bytes::copy_from_slice(scratch))
    })
}

/// The names of the census `S` in declaration order, walked without
/// allocating.
fn census<S: LocationSet>() -> impl Iterator<Item = &'static str> {
    (0..S::LENGTH).filter_map(S::name_at)
}

/// The two steps every message takes between a session (blocking or
/// pooled) and its endpoint's transport.
impl<TL, Target, T> Endpoint<TL, Target, T>
where
    TL: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<TL, Target>,
{
    /// Stamps `payload` with the next sequence number of the edge to
    /// `to`, a census entry from [`locate`] (`seqs` holds one counter
    /// per destination of `session`), shows it to the layer stack and
    /// puts the frame on the wire.
    pub(crate) fn stamp_and_send(
        &self,
        session: SessionId,
        seqs: &mut SeqCounters,
        (position, to): (usize, &'static str),
        payload: Bytes,
    ) -> Result<(), TransportError> {
        let seq = seqs.next(position);
        self.notify_send(&MessageCtx { session, seq, from: Target::NAME, to }, &payload);
        self.transport().send_frame(to, Envelope::new(session, seq, payload))
    }

    /// Shows a frame received from `from` to the layer stack and yields
    /// its payload.
    pub(crate) fn deliver(&self, session: SessionId, from: &str, envelope: Envelope) -> Bytes {
        let ctx = MessageCtx { session, seq: envelope.seq, from, to: Target::NAME };
        self.notify_receive(&ctx, &envelope.payload);
        envelope.payload
    }
}

/// One choreography run multiplexed over an [`Endpoint`].
///
/// Obtained from [`Endpoint::session`] or
/// [`Endpoint::session_with_id`]; all participants of a run must agree
/// on the session id. A session is not `Sync` in spirit — it represents
/// one sequential run — but creating many sessions from one endpoint
/// and running them on separate threads is the intended concurrency
/// model.
pub struct Session<'e, TL, Target, T>
where
    TL: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<TL, Target>,
{
    endpoint: &'e Endpoint<TL, Target, T>,
    id: SessionId,
    seqs: Mutex<SeqCounters>,
}

impl<'e, TL, Target, T> Session<'e, TL, Target, T>
where
    TL: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<TL, Target>,
{
    pub(crate) fn new(endpoint: &'e Endpoint<TL, Target, T>, id: SessionId) -> Self {
        Session { endpoint, id, seqs: Mutex::new(SeqCounters::new()) }
    }

    /// Puts `payload` on the wire as this session's next frame to `to`,
    /// a census entry from [`locate`].
    fn send_payload(
        &self,
        to: (usize, &'static str),
        payload: Bytes,
    ) -> Result<(), TransportError> {
        // Hold the counter lock across the transport send: a session is
        // one sequential run, but `Session` is `Sync`, and a session
        // shared across threads must still put frames on the wire in
        // sequence order or the receiver's sequence check fails the link for
        // every session behind that sender.
        let mut seqs = self.seqs.lock();
        self.endpoint.stamp_and_send(self.id, &mut seqs, to, payload)
    }

    /// This session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The endpoint this session runs over.
    pub fn endpoint(&self) -> &'e Endpoint<TL, Target, T> {
        self.endpoint
    }

    /// Wraps a value this endpoint holds into a located value at
    /// `Target`, for use as a choreography argument.
    pub fn local<V>(&self, value: V) -> Located<V, Target> {
        MultiplyLocated::local(value)
    }

    /// Produces the placeholder for a located value owned by some
    /// *other* location, for use as a choreography argument.
    ///
    /// # Panics
    ///
    /// The returned placeholder panics if unwrapped, which can only
    /// happen if `at` is this session's own target — pass values this
    /// endpoint actually holds through [`Session::local`] instead.
    pub fn remote<V, L2, Index>(&self, at: L2) -> Located<V, L2>
    where
        L2: ChoreographyLocation + Member<TL, Index>,
    {
        let _ = at;
        MultiplyLocated::remote()
    }

    /// Wraps a value this endpoint holds as its facet of a faceted
    /// value, for use as a choreography argument.
    pub fn local_faceted<V, S, Index>(&self, value: V) -> crate::Faceted<V, S>
    where
        S: LocationSet,
        Target: Member<S, Index>,
    {
        let mut faceted = crate::Faceted::none();
        faceted.insert(Target::NAME, value);
        faceted
    }

    /// Produces the placeholder view of a faceted value owned by other
    /// locations, for use as a choreography argument.
    pub fn remote_faceted<V, S: LocationSet>(&self, at: S) -> crate::Faceted<V, S> {
        let _ = at;
        crate::Faceted::none()
    }

    /// Extracts a value this endpoint owns from a choreography result.
    ///
    /// The `Member` bound makes this type-safe: only values `Target`
    /// actually owns can be unwrapped.
    pub fn unwrap<V, S, Index>(&self, data: MultiplyLocated<V, S>) -> V
    where
        S: LocationSet,
        Target: Member<S, Index>,
    {
        data.into_inner_option()
            .expect("located value absent at an owner: value escaped its executor")
    }

    /// Extracts this endpoint's facet from a faceted choreography result.
    ///
    /// The counterpart of [`unwrap`](Self::unwrap) for [`Faceted`]
    /// outcomes (e.g. the per-participant verdicts of the robust
    /// patterns): only a member of `S` can extract, and it gets exactly
    /// its own facet.
    ///
    /// [`Faceted`]: crate::Faceted
    pub fn unwrap_faceted<V, S, Index>(&self, data: crate::Faceted<V, S>) -> V
    where
        S: LocationSet,
        Target: Member<S, Index>,
    {
        data.take(Target::NAME).expect("facet absent at its owner: value escaped its executor")
    }

    /// Performs endpoint projection of `choreo` to `Target` and runs the
    /// projected program to completion within this session.
    ///
    /// # Panics
    ///
    /// Panics if the transport fails mid-choreography. (Deadlock freedom
    /// holds only under reliable communication; see §4.1.)
    pub fn epp_and_run<V, L, C, LSubsetTL, TargetInL>(&self, choreo: C) -> V
    where
        L: LocationSet + Subset<TL, LSubsetTL>,
        Target: Member<L, TargetInL>,
        C: Choreography<V, L = L>,
    {
        let op: SessionEppOp<'_, 'e, L, TL, Target, T> =
            SessionEppOp { session: self, phantom: PhantomData };
        choreo.run(&op)
    }

    /// Sends raw payload bytes to the location named `to` within this
    /// session, passing them through the endpoint's layer stack.
    ///
    /// This is the low-level hook alternative projection engines (e.g.
    /// `chorus-baseline`) build on; `epp_and_run` is the normal entry.
    ///
    /// # Errors
    ///
    /// Returns an error if `to` is unknown or the link fails.
    pub fn send_bytes(&self, to: &str, payload: &[u8]) -> Result<(), TransportError> {
        let to = locate::<TL>(to)?;
        self.send_payload(to, Bytes::copy_from_slice(payload))
    }

    /// Serializes `value` and sends it to the location named `to`
    /// within this session — the allocation-lean path `epp_and_run`'s
    /// communication operators use: one serialization into the
    /// thread's reusable scratch buffer, one shared payload buffer,
    /// no further copies on in-process transports.
    ///
    /// # Errors
    ///
    /// Returns an error if `to` is unknown, the value fails to encode,
    /// or the link fails.
    pub fn send_value<V: Portable>(&self, to: &str, value: &V) -> Result<(), TransportError> {
        let to = locate::<TL>(to)?;
        let payload = encode_payload(value)?;
        self.send_payload(to, payload)
    }

    /// Blocks until payload bytes from the location named `from` arrive
    /// in this session's mailbox, passing them through the endpoint's
    /// layer stack.
    ///
    /// The returned [`Bytes`] shares the frame's payload buffer — on
    /// in-process transports these are the very bytes the sender
    /// serialized, never copied in between.
    ///
    /// # Errors
    ///
    /// Returns an error if `from` is unknown or the link fails before a
    /// frame arrives.
    pub fn receive_payload(&self, from: &str) -> Result<Bytes, TransportError> {
        let envelope = self.endpoint.transport().receive_frame(self.id, from)?;
        Ok(self.endpoint.deliver(self.id, from, envelope))
    }

    /// Like [`receive_payload`](Session::receive_payload), but copies
    /// the payload into an owned `Vec<u8>`. Kept for callers that need
    /// ownership of plain bytes; hot paths should prefer the shared
    /// buffer.
    ///
    /// # Errors
    ///
    /// Returns an error if `from` is unknown or the link fails before a
    /// frame arrives.
    pub fn receive_bytes(&self, from: &str) -> Result<Vec<u8>, TransportError> {
        self.receive_payload(from).map(|payload| payload.to_vec())
    }
}

impl<TL, Target, T> Drop for Session<'_, TL, Target, T>
where
    TL: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<TL, Target>,
{
    /// The run is over: the transport reclaims its receive-side state.
    fn drop(&mut self) {
        self.endpoint.transport().close_session(self.id);
    }
}

/// The injected operator implementations for session-scoped endpoint
/// projection.
struct SessionEppOp<'a, 'e, ChoreoLS, TL, Target, T>
where
    ChoreoLS: LocationSet,
    TL: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<TL, Target>,
{
    session: &'a Session<'e, TL, Target, T>,
    phantom: PhantomData<fn() -> ChoreoLS>,
}

impl<ChoreoLS, TL, Target, T> SessionEppOp<'_, '_, ChoreoLS, TL, Target, T>
where
    ChoreoLS: LocationSet,
    TL: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<TL, Target>,
{
    /// Serializes `value` **exactly once** and sends a clone of the one
    /// payload buffer to each of `dests`, in order, returning the
    /// payload so a sender that is also a recipient can decode its copy
    /// from the very bytes the others got. Each destination still gets
    /// its own sequence number and its own pass through the layer stack.
    ///
    /// A failed send names its destination, and the destinations before
    /// it have been sent to. A value that fails to encode is reported
    /// against the first destination, or against this endpoint if there
    /// is none.
    fn send<V: Portable>(
        &self,
        dests: impl Iterator<Item = &'static str>,
        value: &V,
    ) -> Result<Bytes, CommFailure> {
        let mut dests = dests.peekable();
        let payload = encode_payload(value)
            .map_err(|e| comm_failure(dests.peek().copied().unwrap_or(Target::NAME), e.into()))?;
        for dest in dests {
            locate::<TL>(dest)
                .and_then(|to| self.session.send_payload(to, payload.clone()))
                .map_err(|e| comm_failure(dest, e))?;
        }
        Ok(payload)
    }

    /// Receives this session's next frame from `from` and decodes it,
    /// failures naming `from`.
    fn receive<V: Portable>(&self, from: &str) -> Result<V, CommFailure> {
        let bytes = self.session.receive_payload(from).map_err(|e| comm_failure(from, e))?;
        decode_from(from, &bytes)
    }
}

/// A transport failure on the edge to or from `peer`, as the robust
/// operators report it.
fn comm_failure(peer: &str, e: TransportError) -> CommFailure {
    CommFailure {
        peer: peer.to_string(),
        kind: match &e {
            TransportError::Codec(_) => CommFailureKind::Decode(e.to_string()),
            _ => CommFailureKind::Transport(e.to_string()),
        },
    }
}

/// Decodes a payload `peer` sent, reporting trouble as a failure of
/// that peer.
fn decode_from<V: Portable>(peer: &str, bytes: &[u8]) -> Result<V, CommFailure> {
    chorus_wire::from_bytes(bytes).map_err(|e| CommFailure {
        peer: peer.to_string(),
        kind: CommFailureKind::Decode(e.to_string()),
    })
}

impl<ChoreoLS, TL, Target, T> ChoreoOp<ChoreoLS> for SessionEppOp<'_, '_, ChoreoLS, TL, Target, T>
where
    ChoreoLS: LocationSet,
    TL: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<TL, Target>,
{
    fn locally<V, L1: ChoreographyLocation, Index>(
        &self,
        _location: L1,
        computation: impl Fn(Unwrapper<L1>) -> V,
    ) -> Located<V, L1>
    where
        L1: Member<ChoreoLS, Index>,
    {
        if L1::NAME == Target::NAME {
            MultiplyLocated::local(computation(Unwrapper::new()))
        } else {
            MultiplyLocated::remote()
        }
    }

    fn try_multicast<Sender: ChoreographyLocation, V: Portable, D: LocationSet, Index1, Index2>(
        &self,
        _src: Sender,
        _destination: D,
        data: &Located<V, Sender>,
    ) -> Result<MultiplyLocated<V, D>, CommFailure>
    where
        Sender: Member<ChoreoLS, Index1>,
        D: Subset<ChoreoLS, Index2>,
    {
        if Sender::NAME == Target::NAME {
            let value =
                data.as_inner_option().expect("multicast: sender must hold the value it sends");
            let payload = self.send(census::<D>().filter(|dest| *dest != Sender::NAME), value)?;
            if D::contains(Sender::NAME) {
                // The sender keeps its copy via an in-memory round trip
                // over the *same* encoded bytes the recipients got, so
                // that `V` needs no `Clone` bound and serialization bugs
                // surface identically at every owner.
                decode_from(Sender::NAME, &payload).map(MultiplyLocated::local)
            } else {
                Ok(MultiplyLocated::remote())
            }
        } else if D::contains(Target::NAME) {
            self.receive(Sender::NAME).map(MultiplyLocated::local)
        } else {
            Ok(MultiplyLocated::remote())
        }
    }

    fn broadcast<Sender: ChoreographyLocation, V: Portable, Index>(
        &self,
        _src: Sender,
        data: Located<V, Sender>,
    ) -> V
    where
        Sender: Member<ChoreoLS, Index>,
    {
        let known = if Sender::NAME == Target::NAME {
            let value =
                data.into_inner_option().expect("broadcast: sender must hold the value it sends");
            self.send(census::<ChoreoLS>().filter(|dest| *dest != Sender::NAME), &value)
                .map(|_| value)
        } else {
            self.receive(Sender::NAME)
        };
        known.unwrap_or_else(|failure| failure.raise("broadcast", Sender::NAME))
    }

    fn agree<V, S: LocationSet, Index>(&self, _locations: S, data: &Faceted<V, S>) -> Option<V>
    where
        V: Clone + PartialEq,
        S: Subset<ChoreoLS, Index>,
    {
        // An endpoint holds only its own facet (absent entirely when the
        // endpoint is outside `S`); the equality assertion is the
        // protocol's to uphold — see the trait docs.
        data.facet(Target::NAME).cloned()
    }

    fn conclave<R, S: LocationSet, C: Choreography<R, L = S>, Index>(
        &self,
        choreo: C,
    ) -> MultiplyLocated<R, S>
    where
        S: Subset<ChoreoLS, Index>,
    {
        if S::contains(Target::NAME) {
            let sub_op: SessionEppOp<'_, '_, S, TL, Target, T> =
                SessionEppOp { session: self.session, phantom: PhantomData };
            MultiplyLocated::local(choreo.run(&sub_op))
        } else {
            MultiplyLocated::remote()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::SeqCounters;

    #[test]
    fn counters_number_each_position_from_zero_inline_and_spilled() {
        let mut seqs = SeqCounters::new();
        let positions = [0, SeqCounters::INLINE - 1, SeqCounters::INLINE, SeqCounters::INLINE + 3];
        for round in 0..3 {
            for position in positions {
                assert_eq!(seqs.next(position), round, "position {position}");
            }
        }
        // Only the positions past the inline array spilled, and only as
        // far as the highest one used.
        assert_eq!(seqs.spill, [3, 0, 0, 3]);
        assert_eq!(seqs.next(SeqCounters::INLINE + 1), 0);
    }
}
