//! Faceted values (§3.4).
//!
//! A [`Faceted<V, S>`] is "a choreographic data type annotated with a list
//! of owners. EPP to any of the owners will result in a normal value
//! specific to that party; there is no expectation for the owners to have
//! the same value, or for them to know each other's values."
//!
//! Faceted values are what make census polymorphism useful: they are the
//! argument type of `gather`, the return type of `scatter` and `parallel`,
//! and the result of `fanout`.
//!
//! The facets are slots indexed by census position, like a [`Quire`]'s
//! values: the facet of the location at position `i` of `S` (as
//! [`LocationSet::position`] finds it) sits in slot `i`. A view with no
//! facet holds no slots and allocates nothing. A faceted value never
//! crosses the wire; its facets do, one message each.

use crate::location::LocationSet;
use crate::quire::Quire;
use std::marker::PhantomData;

/// A per-location value: each owner in `S` holds its own, possibly
/// different, facet of type `V`.
///
/// At a projected endpoint it holds exactly the endpoint's own facet;
/// under the centralized [`Runner`](crate::Runner) it holds every facet.
/// Either way, unwrapping through
/// [`Unwrapper::unwrap_faceted`](crate::Unwrapper::unwrap_faceted) yields
/// the facet of the location doing the unwrapping, so user code cannot
/// observe the difference.
///
/// The representation is hidden (§5.5: "the implementation of `Faceted` ...
/// is not [safe to expose]"); facets can only be created by choreographic
/// operators and read through an [`Unwrapper`](crate::Unwrapper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Faceted<V, S> {
    /// Empty, or one slot per location of `S` in census order.
    facets: Vec<Option<V>>,
    owners: PhantomData<S>,
}

impl<V, S: LocationSet> Faceted<V, S> {
    /// The view that holds no facet: an endpoint outside `S`, or one
    /// that has not produced its facet yet.
    pub(crate) fn none() -> Self {
        Faceted { facets: Vec::new(), owners: PhantomData }
    }

    /// Every owner's facet, as the centralized semantics holds them.
    pub(crate) fn every(quire: Quire<V, S>) -> Self {
        Faceted { facets: quire.into_values().into_iter().map(Some).collect(), owners: PhantomData }
    }

    /// Sets the facet of the location named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in `S`.
    pub(crate) fn insert(&mut self, name: &str, value: V) {
        let position = S::position(name).expect("a facet belongs to a member of its owner set");
        if self.facets.is_empty() {
            self.facets.resize_with(S::LENGTH, || None);
        }
        self.facets[position] = Some(value);
    }

    /// Looks up the facet belonging to `name`, if present at this endpoint.
    pub(crate) fn facet(&self, name: &str) -> Option<&V> {
        self.facets.get(S::position(name)?)?.as_ref()
    }

    /// Takes the facet belonging to `name`, if present at this endpoint.
    pub(crate) fn take(mut self, name: &str) -> Option<V> {
        self.facets.get_mut(S::position(name)?)?.take()
    }

    /// The facets present at this endpoint, in census order.
    pub(crate) fn present(&self) -> impl Iterator<Item = &V> {
        self.facets.iter().flatten()
    }

    /// Every owner's facet as a quire, or `None` if one is absent.
    pub(crate) fn into_quire(self) -> Option<Quire<V, S>> {
        let values = self.facets.into_iter().collect::<Option<Vec<V>>>()?;
        Quire::from_values(values).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::locations! { Alice, Bob }

    type Duo = crate::LocationSet!(Alice, Bob);

    #[test]
    fn facets_are_per_owner() {
        let faceted: Faceted<i32, Duo> = Faceted::every(Quire::build(|name| name.len() as i32));
        assert_eq!(faceted.facet("Alice"), Some(&5));
        assert_eq!(faceted.facet("Bob"), Some(&3));
        assert_eq!(faceted.facet("Carol"), None);
        assert_eq!(faceted.present().count(), 2);
        assert_eq!(faceted.into_quire().map(|quire| *quire.get(Bob)), Some(3));
    }

    #[test]
    fn endpoint_view_may_hold_a_single_facet() {
        let mut faceted: Faceted<i32, Duo> = Faceted::none();
        assert_eq!(faceted.facet("Bob"), None);
        faceted.insert("Bob", 9);
        assert_eq!(faceted.facet("Alice"), None);
        assert_eq!(faceted.facet("Bob"), Some(&9));
        assert_eq!(faceted.present().count(), 1);
        assert_eq!(faceted.clone().into_quire(), None);
        assert_eq!(faceted.take("Bob"), Some(9));
    }
}
