//! Locations and type-level location sets.
//!
//! A *location* (the paper says "party" or "role") is an empty struct whose
//! type identifies a participant and whose value is a term-level witness for
//! it (§5.3: "a `ChoreographyLocation` in ChoRus is an empty struct type
//! whose inhabitants can be used as term-level identifiers").
//!
//! A *location set* is a type-level list of locations built from [`HCons`]
//! and [`HNil`]; the census of a choreography (§3.2) is such a set.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;

/// A participant in a choreography.
///
/// Implement this by declaring locations with the [`locations!`] macro
/// rather than by hand; the macro generates the unit struct and this impl.
///
/// [`locations!`]: crate::locations
///
/// # Examples
///
/// ```
/// use chorus_core::ChoreographyLocation;
///
/// chorus_core::locations! { Alice }
/// assert_eq!(Alice::NAME, "Alice");
/// let _witness: Alice = Alice::new();
/// ```
pub trait ChoreographyLocation: Copy + Default + Send + Sync + 'static {
    /// The unique, human-readable name of this location. Transports route
    /// messages by this name.
    const NAME: &'static str;

    /// Returns the term-level witness for this location.
    fn new() -> Self {
        Self::default()
    }

    /// Returns [`Self::NAME`]; convenient in generic code.
    fn name() -> &'static str {
        Self::NAME
    }
}

/// Declares one or more choreography locations.
///
/// Each identifier becomes a unit struct implementing
/// [`ChoreographyLocation`] with `NAME` equal to the identifier's text.
///
/// # Examples
///
/// ```
/// chorus_core::locations! { Alice, Bob, Carol }
///
/// use chorus_core::ChoreographyLocation;
/// assert_eq!(Bob::NAME, "Bob");
/// ```
#[macro_export]
macro_rules! locations {
    ($($(#[$meta:meta])* $name:ident),+ $(,)?) => {
        $(
            $(#[$meta])*
            #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
            pub struct $name;

            impl $crate::ChoreographyLocation for $name {
                const NAME: &'static str = stringify!($name);
            }

            impl ::std::fmt::Display for $name {
                fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                    f.write_str(stringify!($name))
                }
            }
        )+
    };
}

/// The empty location set.
pub struct HNil;

/// A location set with head `Head` and tail `Tail`.
///
/// Build these with the `LocationSet!` macro instead of writing the nested
/// type by hand.
pub struct HCons<Head, Tail>(PhantomData<(Head, Tail)>);

/// Builds a location-set type from a comma-separated list of locations.
///
/// # Examples
///
/// ```
/// use chorus_core::{LocationSet, LocationSet as _};
///
/// chorus_core::locations! { Alice, Bob }
/// type Pair = chorus_core::LocationSet!(Alice, Bob);
/// assert_eq!(<Pair as chorus_core::LocationSet>::names(), vec!["Alice", "Bob"]);
/// ```
#[macro_export]
#[allow(non_snake_case)]
macro_rules! LocationSet {
    () => { $crate::HNil };
    ($head:ty $(,)?) => { $crate::HCons<$head, $crate::HNil> };
    ($head:ty, $($tail:tt)*) => { $crate::HCons<$head, $crate::LocationSet!($($tail)*)> };
}

/// A type-level list of locations: the census of a choreography or the
/// ownership set of a multiply-located value.
///
/// This trait is sealed: the only implementors are [`HNil`] and
/// [`HCons`], as produced by the `LocationSet!` macro. Locations and
/// their sets are names, so both traits require `Send` and `Sync`, and
/// anything holding one only as a type parameter is `Send` and `Sync`.
pub trait LocationSet: Copy + Default + Send + Sync + sealed::Sealed + 'static {
    /// The number of locations in the set.
    const LENGTH: usize;

    /// Returns the term-level witness for this set.
    fn new() -> Self {
        Self::default()
    }

    /// The name of the location at `index`, in declaration order, or
    /// `None` past the end. Allocates nothing.
    fn name_at(index: usize) -> Option<&'static str>;

    /// The index of the location named `name`, or `None` if the set has
    /// no such location. Allocates nothing.
    fn position(name: &str) -> Option<usize>;

    /// Whether the set has a location named `name`.
    fn contains(name: &str) -> bool {
        Self::position(name).is_some()
    }

    /// Returns the names of the locations, in declaration order.
    ///
    /// Allocates: a per-session or per-message path walks the set with
    /// [`name_at`](Self::name_at) instead.
    fn names() -> Vec<&'static str> {
        (0..Self::LENGTH).filter_map(Self::name_at).collect()
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::HNil {}
    impl<Head, Tail> Sealed for super::HCons<Head, Tail> {}
}

impl LocationSet for HNil {
    const LENGTH: usize = 0;

    fn name_at(_index: usize) -> Option<&'static str> {
        None
    }

    fn position(_name: &str) -> Option<usize> {
        None
    }
}

impl<Head: ChoreographyLocation, Tail: LocationSet> LocationSet for HCons<Head, Tail> {
    const LENGTH: usize = 1 + Tail::LENGTH;

    fn name_at(index: usize) -> Option<&'static str> {
        match index {
            0 => Some(Head::NAME),
            _ => Tail::name_at(index - 1),
        }
    }

    fn position(name: &str) -> Option<usize> {
        if name == Head::NAME {
            Some(0)
        } else {
            Tail::position(name).map(|index| index + 1)
        }
    }
}

// Manual impls so that `HCons<H, T>` is Copy/Default/etc. without requiring
// anything of `H`/`T` (the derive would add spurious bounds).
impl Clone for HNil {
    fn clone(&self) -> Self {
        *self
    }
}
impl Copy for HNil {}
impl Default for HNil {
    fn default() -> Self {
        HNil
    }
}
impl fmt::Debug for HNil {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HNil")
    }
}
impl PartialEq for HNil {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}
impl Eq for HNil {}
impl Hash for HNil {
    fn hash<H: Hasher>(&self, state: &mut H) {
        0u8.hash(state);
    }
}

impl<Head, Tail> Clone for HCons<Head, Tail> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<Head, Tail> Copy for HCons<Head, Tail> {}
impl<Head, Tail> Default for HCons<Head, Tail> {
    fn default() -> Self {
        HCons(PhantomData)
    }
}
impl<Head: ChoreographyLocation, Tail: LocationSet> fmt::Debug for HCons<Head, Tail> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LocationSet!{:?}", Self::names())
    }
}
impl<Head, Tail> PartialEq for HCons<Head, Tail> {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}
impl<Head, Tail> Eq for HCons<Head, Tail> {}
impl<Head, Tail> Hash for HCons<Head, Tail> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        1u8.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::locations! { Alice, Bob, Carol }

    #[test]
    fn names_are_in_declaration_order() {
        type Trio = crate::LocationSet!(Alice, Bob, Carol);
        assert_eq!(<Trio as LocationSet>::names(), vec!["Alice", "Bob", "Carol"]);
        assert_eq!(<Trio as LocationSet>::LENGTH, 3);
    }

    #[test]
    fn empty_set_has_no_names() {
        assert_eq!(<HNil as LocationSet>::names(), Vec::<&str>::new());
        assert_eq!(<HNil as LocationSet>::LENGTH, 0);
    }

    #[test]
    fn location_name_matches_identifier() {
        assert_eq!(Alice::NAME, "Alice");
        assert_eq!(Alice::name(), "Alice");
        assert_eq!(Alice.to_string(), "Alice");
    }

    #[test]
    fn sets_are_copy_and_comparable() {
        type Duo = crate::LocationSet!(Alice, Bob);
        let a: Duo = LocationSet::new();
        let b = a;
        assert_eq!(a, b);
        assert!(!format!("{a:?}").is_empty());
    }

    #[test]
    fn the_empty_set_has_no_positions() {
        assert_eq!(<HNil as LocationSet>::name_at(0), None);
        assert_eq!(<HNil as LocationSet>::position("Alice"), None);
        assert!(!<HNil as LocationSet>::contains("Alice"));
    }

    #[test]
    fn name_at_and_position_walk_a_five_name_set() {
        crate::locations! { Dave, Erin }
        type Five = crate::LocationSet!(Alice, Bob, Carol, Dave, Erin);
        let names = ["Alice", "Bob", "Carol", "Dave", "Erin"];
        for (index, name) in names.into_iter().enumerate() {
            assert_eq!(<Five as LocationSet>::name_at(index), Some(name));
            assert_eq!(<Five as LocationSet>::position(name), Some(index));
            assert!(<Five as LocationSet>::contains(name));
        }
        assert_eq!(<Five as LocationSet>::name_at(5), None);
        assert_eq!(<Five as LocationSet>::name_at(usize::MAX), None);
        for stranger in ["Mallory", "", "alice", "Alice "] {
            assert_eq!(<Five as LocationSet>::position(stranger), None);
            assert!(!<Five as LocationSet>::contains(stranger));
        }
        assert_eq!(<Five as LocationSet>::names(), names);
    }

    #[test]
    fn singleton_set_macro_form() {
        type Solo = crate::LocationSet!(Alice);
        assert_eq!(<Solo as LocationSet>::names(), vec!["Alice"]);
    }
}
