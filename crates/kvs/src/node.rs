//! Per-node replica state: a versioned shard store with epoch fencing,
//! write-freeze windows, and dirty-key tracking for live migration.
//!
//! A [`NodeCtx`] is the handle a node's threads share across sessions:
//! the scenario harness spawns one short-lived choreography session per
//! client operation, and the node's store, installed config, and
//! freeze/tracking state persist here in between. It implements the
//! shared [`KeyValueStore`] abstraction from `chorus_protocols` (the
//! satellite extraction), with [`Versioned`] values merged by version so
//! replication, migration, and recovery are all idempotent max-merges.

use crate::config::{fnv1a, ClusterConfig, ShardId};
use chorus_core::sync::Mutex;
use chorus_protocols::store::KeyValueStore;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A value plus its monotonically increasing version stamp; replicas
/// merge by keeping the higher version.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Versioned {
    /// Driver-assigned, globally monotonic write version.
    pub version: u64,
    /// The stored value.
    pub value: String,
}

/// A client operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvsOp {
    /// Store `value` under `key` with the stamped version.
    Put {
        /// Target key.
        key: String,
        /// Value to store.
        value: String,
    },
    /// Look up `key`.
    Get {
        /// Target key.
        key: String,
    },
}

impl KvsOp {
    /// The key this operation targets.
    pub fn key(&self) -> &str {
        match self {
            KvsOp::Put { key, .. } | KvsOp::Get { key } => key,
        }
    }
}

/// An operation stamped with the client's config epoch and a unique
/// version — the unit the data plane routes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StampedRequest {
    /// The client's view of the config epoch; replicas fence on it.
    pub epoch: u64,
    /// Globally unique, monotonically increasing operation id; doubles
    /// as the write version for `Put`s.
    pub version: u64,
    /// The operation itself.
    pub op: KvsOp,
}

/// One replica's typed answer to a stamped request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeReply {
    /// A `Put` was applied at this replica.
    Applied,
    /// A `Get` hit this replica; `found` is its best version.
    Value {
        /// The replica's current version for the key, if any.
        found: Option<Versioned>,
    },
    /// The request's epoch disagrees with this replica's installed
    /// config — the client must refresh and retry.
    StaleEpoch {
        /// The replica's installed epoch.
        current: u64,
    },
    /// The key's shard is inside a migration freeze window; writes are
    /// briefly rejected (reads still serve).
    Frozen,
    /// This member does not replicate the key's shard. The data plane
    /// routes only to the key's replicas, so a node answers this only
    /// to a request routed by another config of its own epoch.
    NotReplica,
    /// The node is crashed (fail-stop); it answers nothing useful.
    Down,
    /// The request never reached this member (chaos ate the frame).
    NoRequest,
}

/// Fail-stop mode of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeMode {
    /// Serving normally.
    Up,
    /// Crashed: replies [`NodeReply::Down`] until recovered.
    Down,
}

#[derive(Debug)]
struct Tracking {
    start: u64,
    end: u64,
    dirty: BTreeSet<String>,
}

#[derive(Debug)]
struct NodeInner {
    config: Option<ClusterConfig>,
    data: BTreeMap<String, Versioned>,
    /// Write-frozen hash ranges (final-delta windows of in-flight
    /// handoffs), keyed by the *target* shard id. Ranges, not ids,
    /// because a split's fresh shard id does not exist in this node's
    /// installed config yet — only the range identifies the writes to
    /// hold back.
    frozen: BTreeMap<ShardId, (u64, u64)>,
    /// Dirty-key tracking per in-flight handoff, keyed by target shard
    /// id with the hash range captured when tracking began.
    tracking: BTreeMap<ShardId, Tracking>,
    mode: NodeMode,
}

fn in_range(hash: u64, start: u64, end: u64) -> bool {
    (start..end).contains(&hash) || (end == u64::MAX && hash == u64::MAX)
}

/// A node's persistent state handle; clones share state.
#[derive(Debug, Clone)]
pub struct NodeCtx {
    name: &'static str,
    inner: Arc<Mutex<NodeInner>>,
}

impl NodeCtx {
    /// A fresh node with no installed config.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            inner: Arc::new(Mutex::new(NodeInner {
                config: None,
                data: BTreeMap::new(),
                frozen: BTreeMap::new(),
                tracking: BTreeMap::new(),
                mode: NodeMode::Up,
            })),
        }
    }

    /// The installed config, if any.
    pub fn config(&self) -> Option<ClusterConfig> {
        self.inner.lock().config.clone()
    }

    /// The installed epoch (0 before any config).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().config.as_ref().map(|c| c.epoch).unwrap_or(0)
    }

    /// Whether the node is serving.
    pub fn is_up(&self) -> bool {
        self.inner.lock().mode == NodeMode::Up
    }

    /// Fail-stop the node: it keeps answering sessions (the simulated
    /// process is still scheduled) but every answer is
    /// [`NodeReply::Down`] and no state changes.
    pub fn crash(&self) {
        self.inner.lock().mode = NodeMode::Down;
    }

    /// Crash *with state loss*: the store is wiped, modeling a replica
    /// whose disk is gone and must be rebuilt by recovery.
    pub fn crash_and_wipe(&self) {
        let mut inner = self.inner.lock();
        inner.mode = NodeMode::Down;
        inner.data.clear();
        inner.frozen.clear();
        inner.tracking.clear();
    }

    /// Brings a crashed node back up (after recovery repopulated it).
    pub fn restart(&self) {
        self.inner.lock().mode = NodeMode::Up;
    }

    /// Installs a committed config: bumps the fencing epoch, lifts every
    /// freeze window, drops handoff tracking, and garbage-collects keys
    /// this member no longer replicates.
    pub fn install_config(&self, config: &ClusterConfig) {
        let mut inner = self.inner.lock();
        if inner.mode == NodeMode::Down {
            return;
        }
        if let Some(current) = &inner.config {
            if current.epoch >= config.epoch {
                return;
            }
        }
        inner.frozen.clear();
        inner.tracking.clear();
        let name = self.name;
        inner.data.retain(|key, _| config.is_replica(name, fnv1a(key.as_bytes())));
        inner.config = Some(config.clone());
    }

    /// Validation hook for the config-change `ProposeAck` round: accept
    /// exactly the next epoch over a census that still contains a
    /// quorum-capable membership.
    pub fn validate_config(&self, proposed: &ClusterConfig) -> Result<(), String> {
        let inner = self.inner.lock();
        if inner.mode == NodeMode::Down {
            return Err("node is down".to_string());
        }
        let current = inner.config.as_ref().map(|c| c.epoch).unwrap_or(0);
        if proposed.epoch <= current {
            return Err(format!("stale epoch {} (installed {})", proposed.epoch, current));
        }
        if proposed.census.is_empty() {
            return Err("empty census".to_string());
        }
        Ok(())
    }

    /// Applies a stamped request, producing this replica's typed reply.
    /// This is the entire data-plane state machine: fail-stop mode,
    /// epoch fencing, replica-set membership, freeze windows, versioned
    /// merge, and dirty tracking — in that order.
    pub fn apply(&self, request: &StampedRequest) -> NodeReply {
        let mut guard = self.inner.lock();
        // Reborrowed so the installed config and the data it guards are
        // borrowed as disjoint fields, not cloned.
        let inner = &mut *guard;
        if inner.mode == NodeMode::Down {
            return NodeReply::Down;
        }
        let Some(config) = &inner.config else {
            return NodeReply::StaleEpoch { current: 0 };
        };
        if config.epoch != request.epoch {
            return NodeReply::StaleEpoch { current: config.epoch };
        }
        let hash = fnv1a(request.op.key().as_bytes());
        let shard = config.shard_at(hash);
        if !shard.replicas.iter().any(|r| r == self.name) {
            return NodeReply::NotReplica;
        }
        match &request.op {
            KvsOp::Get { key } => NodeReply::Value { found: inner.data.get(key).cloned() },
            KvsOp::Put { key, value } => {
                if inner.frozen.values().any(|&(start, end)| in_range(hash, start, end)) {
                    return NodeReply::Frozen;
                }
                let versioned = Versioned { version: request.version, value: value.clone() };
                merge_entry(&mut inner.data, key, versioned);
                let key = key.clone();
                for tracking in inner.tracking.values_mut() {
                    if in_range(hash, tracking.start, tracking.end) {
                        tracking.dirty.insert(key.clone());
                    }
                }
                NodeReply::Applied
            }
        }
    }

    /// Starts dirty-key tracking for a handoff of the hash range
    /// `[start, end)` (shard `id`): writes landing in the range from now
    /// on are recorded so the final delta ships them.
    pub fn begin_handoff(&self, id: ShardId, start: u64, end: u64) {
        self.inner.lock().tracking.insert(id, Tracking { start, end, dirty: BTreeSet::new() });
    }

    /// Enters the freeze window for the hash range `[start, end)`
    /// (target shard `id`): writes landing in it are rejected with
    /// [`NodeReply::Frozen`] until a config installs or the handoff
    /// aborts.
    pub fn freeze(&self, id: ShardId, start: u64, end: u64) {
        self.inner.lock().frozen.insert(id, (start, end));
    }

    /// Aborts a handoff: lifts the freeze and drops tracking.
    pub fn abort_handoff(&self, id: ShardId) {
        let mut inner = self.inner.lock();
        inner.frozen.remove(&id);
        inner.tracking.remove(&id);
    }

    /// Drains the dirty set of a tracked handoff, returning the current
    /// versioned entries of every key written since tracking began.
    pub fn take_dirty(&self, id: ShardId) -> Vec<(String, Versioned)> {
        let mut inner = self.inner.lock();
        let Some(tracking) = inner.tracking.get_mut(&id) else {
            return Vec::new();
        };
        let keys: Vec<String> = std::mem::take(&mut tracking.dirty).into_iter().collect();
        keys.into_iter().filter_map(|k| inner.data.get(&k).cloned().map(|v| (k, v))).collect()
    }

    /// Snapshot of the entries whose key hash falls in `[start, end)`
    /// (`end == u64::MAX` is inclusive at the top), for chunked
    /// transfer.
    pub fn extract_range(&self, start: u64, end: u64) -> Vec<(String, Versioned)> {
        let inner = self.inner.lock();
        inner
            .data
            .iter()
            .filter(|(k, _)| in_range(fnv1a(k.as_bytes()), start, end))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Merges transferred entries by max version — idempotent, so
    /// re-sent chunks and overlapping recovery pulls are harmless.
    pub fn merge_entries(&self, entries: &[(String, Versioned)]) {
        let mut inner = self.inner.lock();
        for (key, versioned) in entries {
            merge_entry(&mut inner.data, key, versioned.clone());
        }
    }

    /// Number of stored entries (assertion helper).
    pub fn entry_count(&self) -> usize {
        self.inner.lock().data.len()
    }
}

fn merge_entry(data: &mut BTreeMap<String, Versioned>, key: &str, incoming: Versioned) {
    match data.get_mut(key) {
        Some(existing) if existing.version >= incoming.version => {}
        Some(existing) => *existing = incoming,
        None => {
            data.insert(key.to_string(), incoming);
        }
    }
}

impl KeyValueStore for NodeCtx {
    type Value = Versioned;

    fn put(&self, key: &str, value: Versioned) -> Option<Versioned> {
        let mut inner = self.inner.lock();
        let previous = inner.data.get(key).cloned();
        merge_entry(&mut inner.data, key, value);
        previous
    }

    fn get(&self, key: &str) -> Option<Versioned> {
        self.inner.lock().data.get(key).cloned()
    }

    fn len(&self) -> usize {
        self.entry_count()
    }

    fn snapshot(&self) -> BTreeMap<String, Versioned> {
        self.inner.lock().data.clone()
    }

    fn overwrite(&self, map: BTreeMap<String, Versioned>) {
        self.inner.lock().data = map;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(epoch: u64, version: u64, key: &str, value: &str) -> StampedRequest {
        StampedRequest { epoch, version, op: KvsOp::Put { key: key.into(), value: value.into() } }
    }

    #[test]
    fn epoch_fencing_rejects_mismatches() {
        let node = NodeCtx::new("N1");
        let config = ClusterConfig::bootstrap(&["N1", "N2"], 2);
        node.install_config(&config);
        assert_eq!(node.apply(&put(2, 1, "k", "v")), NodeReply::StaleEpoch { current: 1 });
        assert_eq!(node.apply(&put(1, 1, "k", "v")), NodeReply::Applied);
    }

    #[test]
    fn a_same_epoch_request_for_a_shard_it_does_not_hold_is_not_replica() {
        let node = NodeCtx::new("N1");
        let config = ClusterConfig::bootstrap(&["N1", "N2", "N3", "N4"], 4);
        node.install_config(&config);
        let key = (0..)
            .map(|i| format!("k{i}"))
            .find(|key| !config.is_replica("N1", fnv1a(key.as_bytes())))
            .expect("RF 3 of 4 leaves N1 some shard it does not replicate");
        let get = StampedRequest { epoch: 1, version: 2, op: KvsOp::Get { key: key.clone() } };
        assert_eq!(node.apply(&put(1, 1, &key, "v")), NodeReply::NotReplica);
        assert_eq!(node.apply(&get), NodeReply::NotReplica);
        assert_eq!(node.entry_count(), 0, "a non-replica stores nothing");
    }

    #[test]
    fn versioned_merge_keeps_the_winner() {
        let node = NodeCtx::new("N1");
        let config = ClusterConfig::bootstrap(&["N1"], 1);
        node.install_config(&config);
        node.apply(&put(1, 5, "k", "new"));
        node.apply(&put(1, 3, "k", "old"));
        assert_eq!(
            KeyValueStore::get(&node, "k"),
            Some(Versioned { version: 5, value: "new".into() })
        );
    }

    #[test]
    fn freeze_rejects_writes_but_serves_reads() {
        let node = NodeCtx::new("N1");
        let config = ClusterConfig::bootstrap(&["N1"], 1);
        node.install_config(&config);
        node.apply(&put(1, 1, "k", "v"));
        let shard = config.shard_of("k").id;
        let (start, end) = config.shard_range(shard).unwrap();
        node.freeze(shard, start, end);
        assert_eq!(node.apply(&put(1, 2, "k", "w")), NodeReply::Frozen);
        let get = StampedRequest { epoch: 1, version: 3, op: KvsOp::Get { key: "k".into() } };
        assert!(matches!(node.apply(&get), NodeReply::Value { found: Some(_) }));
        node.install_config(&config.with_migrate(shard, &["N1"]));
        assert_eq!(node.apply(&put(2, 4, "k", "w")), NodeReply::Applied);
    }

    #[test]
    fn dirty_tracking_captures_writes_in_range() {
        let node = NodeCtx::new("N1");
        let config = ClusterConfig::bootstrap(&["N1"], 1);
        node.install_config(&config);
        let shard = config.shards[0].id;
        let (start, end) = config.shard_range(shard).unwrap();
        node.begin_handoff(shard, start, end);
        node.apply(&put(1, 1, "k", "v"));
        let dirty = node.take_dirty(shard);
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].0, "k");
        assert!(node.take_dirty(shard).is_empty(), "drained");
    }

    #[test]
    fn install_gc_drops_foreign_shards() {
        let node = NodeCtx::new("N1");
        let config = ClusterConfig::bootstrap(&["N1"], 1);
        node.install_config(&config);
        for i in 0..32 {
            node.apply(&put(1, i + 1, &format!("k{i}"), "v"));
        }
        let migrated = {
            // Move every shard away from N1.
            let grown = config.with_join("N2");
            let mut next = grown.clone();
            next.epoch += 1;
            for shard in &mut next.shards {
                shard.replicas = vec!["N2".to_string()];
            }
            node.install_config(&grown);
            next
        };
        node.install_config(&migrated);
        assert_eq!(node.entry_count(), 0, "GC removed every foreign key");
    }
}
