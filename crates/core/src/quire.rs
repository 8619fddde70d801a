//! Quires (§3.4).
//!
//! A *quire* is "a vector of values, all of the same type, indexed by the
//! type-level party with which each value is associated". Unlike located or
//! faceted values, "a quire is not a choreographic data type; EPP has no
//! effect on it" — it is ordinary data that can be stored, mapped over, and
//! sent. Quires appear as the return type of `gather`/`fanin` and the
//! argument of `scatter`.
//!
//! A `Quire<V, S>` is exactly `S::LENGTH` values in census order: the
//! value of the location at position `i` of `S` (declaration order, as
//! [`LocationSet::name_at`] counts it) is the `i`-th. Lookups by location
//! go through [`LocationSet::position`], and iteration is census order,
//! which is name order only where `S` is declared alphabetically. On the
//! wire a quire is its value sequence, names left out; decoding rejects
//! a sequence of any length but `S::LENGTH`.

use crate::location::LocationSet;
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::marker::PhantomData;

use crate::member::Member;
use crate::ChoreographyLocation;

/// A complete, party-indexed vector: one `V` for every location in `S`.
///
/// # Examples
///
/// ```
/// use chorus_core::Quire;
///
/// chorus_core::locations! { Alice, Bob }
/// type Duo = chorus_core::LocationSet!(Alice, Bob);
///
/// let quire: Quire<u32, Duo> = Quire::build(|name| name.len() as u32);
/// assert_eq!(*quire.get(Alice), 5);
/// assert_eq!(quire.values().sum::<u32>(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quire<V, S> {
    values: Vec<V>,
    index: PhantomData<S>,
}

impl<V, S: LocationSet> Quire<V, S> {
    /// Builds a quire by invoking `f` once per location name in `S`, in
    /// census order.
    pub fn build(f: impl FnMut(&'static str) -> V) -> Self {
        let values = (0..S::LENGTH).filter_map(S::name_at).map(f).collect();
        Quire { values, index: PhantomData }
    }

    /// Takes `values` as the quire's values in census order, or returns
    /// them unchanged if there are not exactly `S::LENGTH` of them.
    pub(crate) fn from_values(values: Vec<V>) -> Result<Self, Vec<V>> {
        if values.len() == S::LENGTH {
            Ok(Quire { values, index: PhantomData })
        } else {
            Err(values)
        }
    }

    /// Returns the value associated with a member location.
    pub fn get<L: ChoreographyLocation, Index>(&self, _location: L) -> &V
    where
        L: Member<S, Index>,
    {
        self.get_by_name(L::NAME).expect("a member of the index set has a position in it")
    }

    /// Returns the value associated with a location name, if the name is in
    /// the index set.
    pub fn get_by_name(&self, name: &str) -> Option<&V> {
        S::position(name).map(|position| &self.values[position])
    }

    /// Iterates over `(name, value)` pairs in census order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        (0..S::LENGTH).filter_map(|position| S::name_at(position)).zip(&self.values)
    }

    /// Iterates over the values in census order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.values.iter()
    }

    /// Maps a function over every entry, preserving the index set.
    pub fn map<W>(self, f: impl FnMut(V) -> W) -> Quire<W, S> {
        Quire { values: self.values.into_iter().map(f).collect(), index: PhantomData }
    }

    /// The number of entries (equal to `S::LENGTH`).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the quire is empty (true only for the empty location set).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values in census order.
    pub(crate) fn into_values(self) -> Vec<V> {
        self.values
    }
}

impl<V: Serialize, S: LocationSet> Serialize for Quire<V, S> {
    fn serialize<Ser: Serializer>(&self, serializer: Ser) -> Result<Ser::Ok, Ser::Error> {
        self.values.serialize(serializer)
    }
}

impl<'de, V: Deserialize<'de>, S: LocationSet> Deserialize<'de> for Quire<V, S> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Quire::from_values(Vec::deserialize(deserializer)?).map_err(|values| {
            D::Error::invalid_length(values.len(), &format_args!("{} quire values", S::LENGTH))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::locations! { Alice, Bob, Carol }

    type Trio = crate::LocationSet!(Alice, Bob, Carol);

    #[test]
    fn build_visits_every_location() {
        let quire: Quire<String, Trio> = Quire::build(|name| name.to_lowercase());
        assert_eq!(quire.len(), 3);
        assert_eq!(*quire.get(Alice), "alice");
        assert_eq!(*quire.get(Carol), "carol");
        assert_eq!(quire.get_by_name("Bob").map(String::as_str), Some("bob"));
        assert_eq!(quire.get_by_name("Dave"), None);
    }

    #[test]
    fn map_preserves_index() {
        let quire: Quire<u32, Trio> = Quire::build(|name| name.len() as u32);
        let doubled = quire.map(|v| v * 2);
        assert_eq!(*doubled.get(Alice), 10);
    }

    #[test]
    fn serde_round_trip() {
        let quire: Quire<u32, Trio> = Quire::build(|name| name.len() as u32);
        let bytes = chorus_wire::to_bytes(&quire).unwrap();
        assert_eq!(bytes, chorus_wire::to_bytes(&vec![5u32, 3, 5]).unwrap());
        let back: Quire<u32, Trio> = chorus_wire::from_bytes(&bytes).unwrap();
        assert_eq!(quire, back);
    }

    #[test]
    fn decoding_rejects_a_sequence_of_any_other_length() {
        for values in [vec![1u32, 2], vec![1, 2, 3, 4], vec![]] {
            let bytes = chorus_wire::to_bytes(&values).unwrap();
            let err = chorus_wire::from_bytes::<Quire<u32, Trio>>(&bytes)
                .expect_err("a quire of Trio has exactly three values");
            assert!(err.to_string().contains("expected 3 quire values"), "{err}");
        }
    }

    #[test]
    fn iteration_is_in_census_order() {
        type Backwards = crate::LocationSet!(Carol, Alice, Bob);
        let quire: Quire<usize, Backwards> = Quire::build(|name| name.len());
        let names: Vec<&str> = quire.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["Carol", "Alice", "Bob"]);
        assert_eq!(quire.values().copied().collect::<Vec<_>>(), [5, 5, 3]);
        assert_eq!(*quire.get(Bob), 3);
    }
}
