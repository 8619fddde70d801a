//! The centralized runner.
//!
//! Running a choreography directly — without projection — gives the
//! paper's centralized semantics (§4.1, Fig. 18): every located value is
//! present, `conclave` "doesn't do anything at all besides run the
//! sub-choreography", and communication is the identity (modulo a codec
//! round trip, kept so that serialization bugs surface in tests).
//!
//! The runner is the workhorse for unit-testing choreographies: the
//! soundness/completeness theorems (§4, Theorems 4–5) guarantee that what
//! it computes agrees with what the projected endpoints jointly compute.

use crate::choreography::{ChoreoOp, Choreography, CommFailure, Portable};
use crate::faceted::Faceted;
use crate::located::{Located, MultiplyLocated, Unwrapper};
use crate::location::{ChoreographyLocation, LocationSet};
use crate::member::{Member, Subset};
use crate::quire::Quire;
use std::marker::PhantomData;

/// Executes choreographies under the centralized semantics.
///
/// # Examples
///
/// ```
/// use chorus_core::{ChoreoOp, Choreography, Located, Runner};
///
/// chorus_core::locations! { Alice, Bob }
///
/// struct AddOne {
///     input: Located<u32, Alice>,
/// }
///
/// impl Choreography<Located<u32, Bob>> for AddOne {
///     type L = chorus_core::LocationSet!(Alice, Bob);
///     fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<u32, Bob> {
///         let at_bob = op.comm(Alice, Bob, &self.input);
///         op.locally(Bob, |un| un.unwrap(&at_bob) + 1)
///     }
/// }
///
/// let runner = Runner::new();
/// let out = runner.run(AddOne { input: runner.local(41) });
/// assert_eq!(runner.unwrap_located(out), 42);
/// ```
pub struct Runner<L: LocationSet> {
    census: PhantomData<L>,
}

impl<L: LocationSet> Runner<L> {
    /// Creates a runner for choreographies with census `L`.
    pub fn new() -> Self {
        Runner { census: PhantomData }
    }

    /// Wraps a value as a located value at any location — the centralized
    /// semantics holds everyone's data.
    pub fn local<V, L1: ChoreographyLocation>(&self, value: V) -> Located<V, L1> {
        MultiplyLocated::local(value)
    }

    /// Extracts the value from a located result. Only the runner can do
    /// this: at projected endpoints located values are opaque.
    pub fn unwrap_located<V, S: LocationSet>(&self, data: MultiplyLocated<V, S>) -> V {
        data.into_inner_option().expect("centralized runner always holds located values")
    }

    /// Builds a faceted value from every owner's facet — the centralized
    /// semantics holds everyone's data.
    pub fn faceted<V, S: LocationSet>(&self, facets: Quire<V, S>) -> Faceted<V, S> {
        Faceted::every(facets)
    }

    /// Extracts every owner's facet from a faceted result.
    pub fn unwrap_faceted<V, S: LocationSet>(&self, data: Faceted<V, S>) -> Quire<V, S> {
        data.into_quire().expect("centralized runner holds every facet")
    }

    /// Runs a choreography to completion under the centralized semantics.
    pub fn run<V, C: Choreography<V, L = L>>(&self, choreo: C) -> V {
        let op: RunOp<L> = RunOp(PhantomData);
        choreo.run(&op)
    }
}

impl<L: LocationSet> Default for Runner<L> {
    fn default() -> Self {
        Self::new()
    }
}

struct RunOp<L: LocationSet>(PhantomData<L>);

fn codec_round_trip<V: Portable>(value: &V) -> V {
    let bytes =
        chorus_wire::to_bytes(value).unwrap_or_else(|e| panic!("failed to encode message: {e}"));
    chorus_wire::from_bytes(&bytes).unwrap_or_else(|e| panic!("failed to decode message: {e}"))
}

impl<ChoreoLS: LocationSet> ChoreoOp<ChoreoLS> for RunOp<ChoreoLS> {
    fn locally<V, L1: ChoreographyLocation, Index>(
        &self,
        _location: L1,
        computation: impl Fn(Unwrapper<L1>) -> V,
    ) -> Located<V, L1>
    where
        L1: Member<ChoreoLS, Index>,
    {
        MultiplyLocated::local(computation(Unwrapper::new()))
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
        let value = data.as_inner_option().expect("multicast: sender must hold the value it sends");
        Ok(MultiplyLocated::local(codec_round_trip(value)))
    }

    fn broadcast<Sender: ChoreographyLocation, V: Portable, Index>(
        &self,
        _src: Sender,
        data: Located<V, Sender>,
    ) -> V
    where
        Sender: Member<ChoreoLS, Index>,
    {
        data.into_inner_option().expect("broadcast: sender must hold the value it sends")
    }

    fn agree<V, S: LocationSet, Index>(&self, _locations: S, data: &Faceted<V, S>) -> Option<V>
    where
        V: Clone + PartialEq,
        S: Subset<ChoreoLS, Index>,
    {
        // The centralized runner holds every facet, so the caller's
        // equality assertion is actually checkable here.
        let mut facets = data.present();
        let first = facets.next()?;
        for facet in facets {
            assert!(
                facet == first,
                "agree: facets diverge across owners — the protocol branched on unagreed state"
            );
        }
        Some(first.clone())
    }

    fn conclave<R, S: LocationSet, C: Choreography<R, L = S>, Index>(
        &self,
        choreo: C,
    ) -> MultiplyLocated<R, S>
    where
        S: Subset<ChoreoLS, Index>,
    {
        let sub_op: RunOp<S> = RunOp(PhantomData);
        MultiplyLocated::local(choreo.run(&sub_op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::locations! { Alice, Bob }
    type Duo = crate::LocationSet!(Alice, Bob);

    struct Agreeing {
        values: Quire<u32, Duo>,
    }

    impl Choreography<Option<u32>> for Agreeing {
        type L = Duo;
        fn run(self, op: &impl ChoreoOp<Duo>) -> Option<u32> {
            let faceted: Faceted<u32, Duo> = op.parallel_named(Duo::new(), |name| {
                *self.values.get_by_name(name).expect("facet for every location")
            });
            op.agree(Duo::new(), &faceted)
        }
    }

    fn values(alice: u32, bob: u32) -> Quire<u32, Duo> {
        Quire::build(|name| if name == "Alice" { alice } else { bob })
    }

    #[test]
    fn agree_collapses_equal_facets() {
        let runner: Runner<Duo> = Runner::new();
        assert_eq!(runner.run(Agreeing { values: values(7, 7) }), Some(7));
    }

    #[test]
    #[should_panic(expected = "facets diverge")]
    fn agree_checks_the_equality_assertion() {
        let runner: Runner<Duo> = Runner::new();
        let _ = runner.run(Agreeing { values: values(7, 8) });
    }
}
