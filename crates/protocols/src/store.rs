//! The key-value store state shared by the KVS choreographies.
//!
//! The storage plumbing every KVS variant needs — a keyed map behind a
//! shared lock — lives here exactly once: [`KeyValueStore`] is the
//! abstraction, [`MapStore`] the canonical implementation. The Fig. 2
//! protocols use [`SharedStore`] (a `MapStore<String>` with the paper's
//! deterministic corruption injection on top), the Appendix B ChoRus
//! listing uses `MapStore<i32>` directly, and the `chorus_kvs` subsystem
//! implements [`KeyValueStore`] for its versioned shard stores.
//!
//! Mirrors the paper's Fig. 2 setup: each server holds a mutable `State`
//! (`Map String String`) behind a reference, and `updateState` "has a
//! small chance of randomly saving the wrong value" — here corruption is
//! injected deterministically through [`SharedStore::corrupt_next_put`]
//! so tests and benchmarks control when the resynch path fires.

use chorus_core::sync::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A request against the store (Fig. 2: `Put | Get | Stop`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Request {
    /// Associate a value with a key; responds with the previous value.
    Put(String, String),
    /// Look up a key.
    Get(String),
    /// Shut the system down.
    Stop,
}

/// A response from the store (Fig. 2: `Found | NotFound | Stopped`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Response {
    /// The (previous) value associated with the key.
    Found(String),
    /// No value is associated with the key.
    NotFound,
    /// The system acknowledged a `Stop`.
    Stopped,
}

/// The in-memory store abstraction every KVS variant backs onto.
///
/// Implementors are cheap shared handles: cloning shares state, so a
/// test can keep a handle on a replica's store while a choreography
/// runs against it from another thread.
pub trait KeyValueStore {
    /// The stored value type.
    type Value: Clone;

    /// Associates `value` with `key`, returning the previous value.
    fn put(&self, key: &str, value: Self::Value) -> Option<Self::Value>;

    /// Looks up `key`.
    fn get(&self, key: &str) -> Option<Self::Value>;

    /// Number of stored entries.
    fn len(&self) -> usize;

    /// Whether the store holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the full contents, for resynch and assertions.
    fn snapshot(&self) -> BTreeMap<String, Self::Value>;

    /// Replaces the contents wholesale (the resynch step).
    fn overwrite(&self, map: BTreeMap<String, Self::Value>);
}

/// The canonical [`KeyValueStore`]: a `BTreeMap` behind a shared lock.
///
/// Cloning shares the underlying state (it is an `Arc`), which is how a
/// test keeps a handle on a server's store while the choreography runs.
#[derive(Debug)]
pub struct MapStore<V> {
    inner: Arc<Mutex<BTreeMap<String, V>>>,
}

impl<V> Clone for MapStore<V> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<V> Default for MapStore<V> {
    fn default() -> Self {
        Self { inner: Arc::new(Mutex::new(BTreeMap::new())) }
    }
}

impl<V> MapStore<V> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with the locked map, for bulk operations (hashes,
    /// merges) that should not clone the whole contents.
    pub fn with_map<R>(&self, f: impl FnOnce(&mut BTreeMap<String, V>) -> R) -> R {
        f(&mut self.inner.lock())
    }
}

impl<V: Clone> KeyValueStore for MapStore<V> {
    type Value = V;

    fn put(&self, key: &str, value: V) -> Option<V> {
        self.inner.lock().insert(key.to_string(), value)
    }

    fn get(&self, key: &str) -> Option<V> {
        self.inner.lock().get(key).cloned()
    }

    fn len(&self) -> usize {
        self.inner.lock().len()
    }

    fn snapshot(&self) -> BTreeMap<String, V> {
        self.inner.lock().clone()
    }

    fn overwrite(&self, map: BTreeMap<String, V>) {
        *self.inner.lock() = map;
    }
}

/// One Fig. 2 server's copy of the store: shared, mutable, and
/// corruptible. A [`MapStore<String>`] plus deterministic fault
/// injection.
#[derive(Debug, Clone, Default)]
pub struct SharedStore {
    map: MapStore<String>,
    corrupt_next_put: Arc<AtomicBool>,
}

impl SharedStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms fault injection: the next `Put` on this replica stores a
    /// corrupted value (the paper's "small chance of randomly saving the
    /// wrong value", made deterministic).
    pub fn corrupt_next_put(&self) {
        self.corrupt_next_put.store(true, Ordering::SeqCst);
    }

    /// Applies a `Put`, returning the previous value (Fig. 2's
    /// `updateState`).
    pub fn put(&self, key: &str, value: &str) -> Response {
        let stored = if self.corrupt_next_put.swap(false, Ordering::SeqCst) {
            format!("{value}\u{fffd}corrupt")
        } else {
            value.to_string()
        };
        match KeyValueStore::put(&self.map, key, stored) {
            Some(previous) => Response::Found(previous),
            None => Response::NotFound,
        }
    }

    /// Looks up a key (Fig. 2's `lookupState`).
    pub fn get(&self, key: &str) -> Response {
        match KeyValueStore::get(&self.map, key) {
            Some(value) => Response::Found(value),
            None => Response::NotFound,
        }
    }

    /// A content hash of the whole store (Fig. 2's `hashState`), used to
    /// detect replica divergence. FNV-1a over the sorted entries.
    pub fn content_hash(&self) -> u64 {
        self.map.with_map(|map| {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            let mut absorb = |bytes: &[u8]| {
                for b in bytes {
                    hash ^= u64::from(*b);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            for (k, v) in map.iter() {
                absorb(k.as_bytes());
                absorb(&[0]);
                absorb(v.as_bytes());
                absorb(&[1]);
            }
            hash
        })
    }

    /// A copy of the full contents, for resynch and assertions.
    pub fn snapshot(&self) -> BTreeMap<String, String> {
        KeyValueStore::snapshot(&self.map)
    }

    /// Replaces the contents wholesale (the resynch step).
    pub fn overwrite(&self, map: BTreeMap<String, String>) {
        KeyValueStore::overwrite(&self.map, map)
    }
}

impl KeyValueStore for SharedStore {
    type Value = String;

    fn put(&self, key: &str, value: String) -> Option<String> {
        match SharedStore::put(self, key, &value) {
            Response::Found(previous) => Some(previous),
            _ => None,
        }
    }

    fn get(&self, key: &str) -> Option<String> {
        match SharedStore::get(self, key) {
            Response::Found(value) => Some(value),
            _ => None,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn snapshot(&self) -> BTreeMap<String, String> {
        SharedStore::snapshot(self)
    }

    fn overwrite(&self, map: BTreeMap<String, String>) {
        SharedStore::overwrite(self, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_returns_previous_value() {
        let store = SharedStore::new();
        assert_eq!(store.put("k", "v1"), Response::NotFound);
        assert_eq!(store.put("k", "v2"), Response::Found("v1".into()));
        assert_eq!(store.get("k"), Response::Found("v2".into()));
        assert_eq!(store.get("missing"), Response::NotFound);
    }

    #[test]
    fn corruption_fires_once() {
        let store = SharedStore::new();
        store.corrupt_next_put();
        store.put("k", "v");
        assert_ne!(store.get("k"), Response::Found("v".into()));
        store.put("k", "v");
        assert_eq!(store.get("k"), Response::Found("v".into()));
    }

    #[test]
    fn content_hash_detects_divergence() {
        let a = SharedStore::new();
        let b = SharedStore::new();
        assert_eq!(a.content_hash(), b.content_hash());
        a.put("k", "v");
        b.put("k", "v");
        assert_eq!(a.content_hash(), b.content_hash());
        b.put("k", "w");
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn overwrite_resynchronizes() {
        let a = SharedStore::new();
        let b = SharedStore::new();
        a.put("k", "v");
        b.corrupt_next_put();
        b.put("k", "v");
        assert_ne!(a.content_hash(), b.content_hash());
        b.overwrite(a.snapshot());
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn clones_share_state() {
        let a = SharedStore::new();
        let b = a.clone();
        a.put("k", "v");
        assert_eq!(b.get("k"), Response::Found("v".into()));
    }

    #[test]
    fn map_store_is_a_key_value_store() {
        let store: MapStore<i32> = MapStore::new();
        assert!(store.is_empty());
        assert_eq!(KeyValueStore::put(&store, "k", 1), None);
        assert_eq!(KeyValueStore::put(&store, "k", 2), Some(1));
        assert_eq!(KeyValueStore::get(&store, "k"), Some(2));
        assert_eq!(store.len(), 1);
        let other: MapStore<i32> = MapStore::new();
        other.overwrite(store.snapshot());
        assert_eq!(KeyValueStore::get(&other, "k"), Some(2));
    }

    #[test]
    fn shared_store_implements_the_trait() {
        let store = SharedStore::new();
        assert_eq!(KeyValueStore::put(&store, "k", "v".to_string()), None);
        assert_eq!(KeyValueStore::get(&store, "k"), Some("v".to_string()));
        assert_eq!(KeyValueStore::len(&store), 1);
    }
}
