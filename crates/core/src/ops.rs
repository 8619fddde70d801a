//! Reusable fan-out/fan-in bodies: `Scatter` and `Gather`.
//!
//! These are the library-provided versions of the paper's Fig. 11 `Gather`
//! (a census-polymorphic fan-in) and its dual. They also serve as worked
//! examples of implementing [`FanOutChoreography`] /
//! [`FanInChoreography`] by hand.

use crate::choreography::{ChoreoOp, FanInChoreography, FanOutChoreography, Portable};
use crate::faceted::Faceted;
use crate::located::{Located, MultiplyLocated};
use crate::location::{ChoreographyLocation, LocationSet};
use crate::member::{Member, Subset};
use crate::quire::Quire;
use std::marker::PhantomData;

/// Fan-out body that distributes the entries of a sender-held [`Quire`] to
/// their respective locations: each iteration sends one entry from `Sender`
/// to the current loop location.
///
/// Used by [`ChoreoOp::scatter`]; public so choreographies can embed or
/// adapt it.
pub struct Scatter<'a, V, Sender, QS: LocationSet, L, SenderMemberL> {
    data: &'a Located<Quire<V, QS>, Sender>,
    phantom: PhantomData<fn() -> (L, SenderMemberL)>,
}

impl<'a, V, Sender, QS: LocationSet, L, SenderMemberL>
    Scatter<'a, V, Sender, QS, L, SenderMemberL>
{
    /// Wraps a sender-held quire for scattering.
    pub fn new(data: &'a Located<Quire<V, QS>, Sender>) -> Self {
        Scatter { data, phantom: PhantomData }
    }
}

impl<V, Sender, QS, L, SenderMemberL> FanOutChoreography<V>
    for Scatter<'_, V, Sender, QS, L, SenderMemberL>
where
    V: Portable + Clone,
    Sender: ChoreographyLocation + Member<L, SenderMemberL>,
    QS: LocationSet,
    L: LocationSet,
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
        let entry: Located<V, Sender> = op.locally(Sender::new(), |un| {
            // The ownership set and index are pinned explicitly: the
            // `Sender: Member<L, _>` bound in scope would otherwise win
            // candidate selection and misdirect inference.
            un.unwrap_ref::<Quire<V, QS>, crate::LocationSet!(Sender), crate::Here>(self.data)
                .get::<Q, QMemberQS>(Q::new())
                .clone()
        });
        op.comm(Sender::new(), Q::new(), &entry)
    }
}

/// Fan-in body that sends each loop location's facet to the fixed recipient
/// set `RS` — the paper's Fig. 11 `Gather`, generalized.
///
/// Used by [`ChoreoOp::gather`]; public so choreographies can embed or
/// adapt it.
pub struct Gather<'a, V, QS, RS, L> {
    data: &'a Faceted<V, QS>,
    phantom: PhantomData<fn() -> (RS, L)>,
}

impl<'a, V, QS, RS, L> Gather<'a, V, QS, RS, L> {
    /// Wraps a faceted value for gathering.
    pub fn new(data: &'a Faceted<V, QS>) -> Self {
        Gather { data, phantom: PhantomData }
    }
}

impl<V, QS, RS, L> FanInChoreography<V> for Gather<'_, V, QS, RS, L>
where
    V: Portable + Clone,
    QS: LocationSet,
    RS: LocationSet,
    L: LocationSet,
{
    type L = L;
    type QS = QS;
    type RS = RS;

    fn run<Q: ChoreographyLocation, QSSubsetL, RSSubsetL, QMemberL, QMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> MultiplyLocated<V, Self::RS>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Self::RS: Subset<Self::L, RSSubsetL>,
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>,
    {
        let facet: Located<V, Q> = op.locally(Q::new(), |un| un.unwrap_faceted(self.data));
        op.multicast(Q::new(), RS::new(), &facet)
    }
}
