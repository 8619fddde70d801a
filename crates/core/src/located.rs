//! Multiply-located values (§3.3).
//!
//! A [`MultiplyLocated<V, S>`] is "a choreographic data type annotated with
//! a list of owners. EPP to any of the owners will result in a normal value.
//! Critically, all of the owners will arrive at the same value. EPP to
//! anyone else will result in a placeholder."
//!
//! At an endpoint, the placeholder is represented by an absent value; the
//! type system guarantees that only owners can unwrap, so the placeholder is
//! never observed by well-typed programs.

use crate::faceted::Faceted;
use crate::location::{ChoreographyLocation, LocationSet};
use crate::member::{Member, Subset};
use std::marker::PhantomData;

/// A value of type `V` owned by every location in the set `S`.
///
/// All owners hold the *same* `V` (the MLV invariant); non-owners hold a
/// placeholder. Values of this type are created by choreographic operators
/// ([`ChoreoOp::locally`], [`ChoreoOp::multicast`], [`ChoreoOp::conclave`],
/// ...) and consumed through [`Unwrapper`] inside `locally`, or through
/// [`ChoreoOp::naked`]/[`ChoreoOp::broadcast`] when ownership spans the
/// census.
///
/// [`ChoreoOp::locally`]: crate::ChoreoOp::locally
/// [`ChoreoOp::multicast`]: crate::ChoreoOp::multicast
/// [`ChoreoOp::conclave`]: crate::ChoreoOp::conclave
/// [`ChoreoOp::naked`]: crate::ChoreoOp::naked
/// [`ChoreoOp::broadcast`]: crate::ChoreoOp::broadcast
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiplyLocated<V, S> {
    value: Option<V>,
    owners: PhantomData<S>,
}

/// A value located at a single location: the paper's `t @ l` (Fig. 1), i.e.
/// an MLV with a singleton ownership set.
pub type Located<V, L> = MultiplyLocated<V, crate::LocationSet!(L)>;

impl<V, S> MultiplyLocated<V, S> {
    /// Creates an MLV holding a value: the projection at one of the owners.
    pub(crate) fn local(value: V) -> Self {
        MultiplyLocated { value: Some(value), owners: PhantomData }
    }

    /// Creates the placeholder: the projection at a non-owner.
    pub(crate) fn remote() -> Self {
        MultiplyLocated { value: None, owners: PhantomData }
    }

    /// Extracts the value, if present at this endpoint.
    pub(crate) fn into_inner_option(self) -> Option<V> {
        self.value
    }

    /// References the value, if present at this endpoint.
    pub(crate) fn as_inner_option(&self) -> Option<&V> {
        self.value.as_ref()
    }
}

impl<V, S2, S> MultiplyLocated<Faceted<V, S2>, S> {
    /// Flattens a conclave-returned faceted value.
    ///
    /// A conclave whose body produces a `Faceted<V, S2>` wraps it in an MLV
    /// owned by the conclave's census; peeling the wrapper yields each
    /// owner's view of the facets. Non-owners get an empty view, which is
    /// sound because they hold no membership proof with which to read it.
    pub fn flatten<Index>(self) -> Faceted<V, S2>
    where
        S2: Subset<S, Index> + LocationSet,
        S: LocationSet,
    {
        match self.value {
            Some(faceted) => faceted,
            None => Faceted::none(),
        }
    }
}

impl<V, S2, S> MultiplyLocated<MultiplyLocated<V, S2>, S> {
    /// Flattens a nested MLV, narrowing ownership to the inner set.
    ///
    /// This is MultiChor's `flatten` (§5.1): a value known by `S` whose
    /// content is known by `S2 ⊆ S` is just a value known by `S2`. Used
    /// when a conclave returns a located value, e.g.
    /// `op.conclave(sub_choreo).flatten()` in the paper's Fig. 10.
    pub fn flatten<Index>(self) -> MultiplyLocated<V, S2>
    where
        S2: Subset<S, Index> + LocationSet,
        S: LocationSet,
    {
        match self.value {
            Some(inner) => inner,
            None => MultiplyLocated::remote(),
        }
    }
}

/// The capability to read located values at a specific location.
///
/// A computation passed to [`ChoreoOp::locally`] receives an
/// `Unwrapper<L1>`; because the unwrap methods demand a [`Member`] proof
/// that `L1` owns the value, projections can never touch another
/// endpoint's data (§5.1: "the projection of a choreography to any given
/// party will not use any other party's located values").
///
/// [`ChoreoOp::locally`]: crate::ChoreoOp::locally
#[derive(Debug, Clone, Copy)]
pub struct Unwrapper<L: ChoreographyLocation> {
    location: PhantomData<L>,
}

impl<L1: ChoreographyLocation> Unwrapper<L1> {
    pub(crate) fn new() -> Self {
        Unwrapper { location: PhantomData }
    }

    /// Returns a clone of a located value owned by `L1`.
    ///
    /// # Panics
    ///
    /// Panics if the value was produced by a different executor than the one
    /// running this choreography (impossible through the public API).
    pub fn unwrap<V: Clone, S: LocationSet, Index>(&self, mlv: &MultiplyLocated<V, S>) -> V
    where
        L1: Member<S, Index>,
    {
        self.unwrap_ref(mlv).clone()
    }

    /// Returns a reference to a located value owned by `L1`.
    ///
    /// # Panics
    ///
    /// See [`Unwrapper::unwrap`].
    pub fn unwrap_ref<'a, V, S: LocationSet, Index>(&self, mlv: &'a MultiplyLocated<V, S>) -> &'a V
    where
        L1: Member<S, Index>,
    {
        mlv.value.as_ref().expect("located value absent at an owner: value escaped its executor")
    }

    /// Returns a clone of `L1`'s facet of a faceted value.
    ///
    /// # Panics
    ///
    /// See [`Unwrapper::unwrap`].
    pub fn unwrap_faceted<V: Clone, S: LocationSet, Index>(&self, faceted: &Faceted<V, S>) -> V
    where
        L1: Member<S, Index>,
    {
        self.unwrap_faceted_ref(faceted).clone()
    }

    /// Returns a reference to `L1`'s facet of a faceted value.
    ///
    /// # Panics
    ///
    /// See [`Unwrapper::unwrap`].
    pub fn unwrap_faceted_ref<'a, V, S: LocationSet, Index>(
        &self,
        faceted: &'a Faceted<V, S>,
    ) -> &'a V
    where
        L1: Member<S, Index>,
    {
        faceted.facet(L1::NAME).expect("facet absent at an owner: value escaped its executor")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::locations! { Alice, Bob }

    #[test]
    fn local_values_unwrap_at_owners() {
        let mlv: MultiplyLocated<u32, crate::LocationSet!(Alice, Bob)> = MultiplyLocated::local(7);
        let un: Unwrapper<Alice> = Unwrapper::new();
        assert_eq!(un.unwrap(&mlv), 7);
        assert_eq!(*un.unwrap_ref(&mlv), 7);
    }

    #[test]
    #[should_panic(expected = "located value absent")]
    fn remote_values_panic_on_forced_unwrap() {
        let mlv: Located<u32, Alice> = MultiplyLocated::remote();
        let un: Unwrapper<Alice> = Unwrapper::new();
        let _ = un.unwrap(&mlv);
    }

    #[test]
    fn clone_preserves_presence() {
        let mlv: Located<String, Alice> = MultiplyLocated::local("x".into());
        let copy = mlv.clone();
        assert_eq!(copy.as_inner_option(), Some(&"x".to_string()));
        let empty: Located<String, Alice> = MultiplyLocated::remote();
        assert_eq!(empty.clone().into_inner_option(), None);
    }
}
