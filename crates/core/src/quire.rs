//! Quires (§3.4).
//!
//! A *quire* is "a vector of values, all of the same type, indexed by the
//! type-level party with which each value is associated". Unlike located or
//! faceted values, "a quire is not a choreographic data type; EPP has no
//! effect on it" — it is ordinary data that can be stored, mapped over, and
//! sent. Quires appear as the return type of `gather`/`fanin` and the
//! argument of `scatter`.

use crate::location::LocationSet;
use serde::de::{self, MapAccess, Visitor};
use serde::ser::SerializeMap;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::BTreeMap;
use std::fmt;
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
    entries: BTreeMap<String, V>,
    index: PhantomData<S>,
}

impl<V, S: LocationSet> Quire<V, S> {
    /// Builds a quire by invoking `f` once per location name in `S`.
    pub fn build(mut f: impl FnMut(&'static str) -> V) -> Self {
        let entries = S::names().into_iter().map(|name| (name.to_string(), f(name))).collect();
        Quire { entries, index: PhantomData }
    }

    /// Builds a quire from a name-keyed map.
    ///
    /// # Errors
    ///
    /// Returns the map unchanged if its key set is not exactly the names of
    /// `S`.
    pub fn from_map(map: BTreeMap<String, V>) -> Result<Self, BTreeMap<String, V>> {
        // Keys are distinct, so `LENGTH` of them, all in `S`, are `S`.
        if map.len() == S::LENGTH && map.keys().all(|name| S::contains(name)) {
            Ok(Quire { entries: map, index: PhantomData })
        } else {
            Err(map)
        }
    }

    /// Returns the value associated with a member location.
    pub fn get<L: ChoreographyLocation, Index>(&self, _location: L) -> &V
    where
        L: Member<S, Index>,
    {
        &self.entries[L::NAME]
    }

    /// Returns the value associated with a location name, if the name is in
    /// the index set.
    pub fn get_by_name(&self, name: &str) -> Option<&V> {
        self.entries.get(name)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates over the values in name order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.values()
    }

    /// Maps a function over every entry, preserving the index set.
    pub fn map<W>(self, mut f: impl FnMut(V) -> W) -> Quire<W, S> {
        Quire {
            entries: self.entries.into_iter().map(|(k, v)| (k, f(v))).collect(),
            index: PhantomData,
        }
    }

    /// The number of entries (equal to `S::LENGTH`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the quire is empty (true only for the empty location set).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<V: Serialize, S: LocationSet> Serialize for Quire<V, S> {
    fn serialize<Ser: Serializer>(&self, serializer: Ser) -> Result<Ser::Ok, Ser::Error> {
        let mut map = serializer.serialize_map(Some(self.entries.len()))?;
        for (k, v) in &self.entries {
            map.serialize_entry(k, v)?;
        }
        map.end()
    }
}

impl<'de, V: Deserialize<'de>, S: LocationSet> Deserialize<'de> for Quire<V, S> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct QuireVisitor<V, S>(PhantomData<(V, S)>);

        impl<'de, V: Deserialize<'de>, S: LocationSet> Visitor<'de> for QuireVisitor<V, S> {
            type Value = Quire<V, S>;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "a map keyed by the location names {:?}", S::names())
            }

            fn visit_map<A: MapAccess<'de>>(self, mut access: A) -> Result<Self::Value, A::Error> {
                let mut entries = BTreeMap::new();
                while let Some((key, value)) = access.next_entry::<String, V>()? {
                    entries.insert(key, value);
                }
                Quire::from_map(entries).map_err(|bad| {
                    de::Error::custom(format!(
                        "quire keys {:?} do not match location set {:?}",
                        bad.keys().collect::<Vec<_>>(),
                        S::names()
                    ))
                })
            }
        }

        deserializer.deserialize_map(QuireVisitor(PhantomData))
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
    }

    #[test]
    fn from_map_validates_keys() {
        let mut good = BTreeMap::new();
        good.insert("Alice".into(), 1);
        good.insert("Bob".into(), 2);
        good.insert("Carol".into(), 3);
        assert!(Quire::<i32, Trio>::from_map(good).is_ok());

        let mut missing = BTreeMap::new();
        missing.insert("Alice".into(), 1);
        assert!(Quire::<i32, Trio>::from_map(missing).is_err());

        let mut wrong = BTreeMap::new();
        wrong.insert("Alice".into(), 1);
        wrong.insert("Bob".into(), 2);
        wrong.insert("Dave".into(), 3);
        assert!(Quire::<i32, Trio>::from_map(wrong).is_err());
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
        let back: Quire<u32, Trio> = chorus_wire::from_bytes(&bytes).unwrap();
        assert_eq!(quire, back);
    }

    #[test]
    fn serde_rejects_wrong_keys() {
        crate::locations! { Dave }
        let _ = Dave;
        let mut map = BTreeMap::new();
        map.insert("Dave".to_string(), 1u32);
        let bytes = chorus_wire::to_bytes(&map).unwrap();
        assert!(chorus_wire::from_bytes::<Quire<u32, Trio>>(&bytes).is_err());
    }

    #[test]
    fn iteration_is_in_name_order() {
        let quire: Quire<u32, Trio> = Quire::build(|_| 0);
        let names: Vec<&str> = quire.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["Alice", "Bob", "Carol"]);
    }
}
