//! The in-driver per-key consistency model.
//!
//! The scenario harness drives one logical operation at a time, so the
//! checkable contract is per-key quorum consistency: a read that
//! succeeds must return either the latest *committed* write (one that
//! reached its write quorum — quorum intersection makes it visible to
//! every read quorum) or a newer *pending* write (one that failed at
//! the client but may have landed on some replicas — a failed put is
//! indeterminate, exactly like a timed-out write in a real quorum
//! store). Anything else — a lost committed write, a resurrected old
//! version, a fabricated value — is a checker violation, which the
//! chaos matrix turns into a failing seed with a dumped schedule.

use crate::node::Versioned;
use std::collections::BTreeMap;

/// Per-key state the checker tracks.
#[derive(Debug, Default)]
struct KeyModel {
    /// The latest write known to have reached its write quorum.
    committed: Option<Versioned>,
    /// Failed (indeterminate) writes that may still surface in reads,
    /// keyed by version.
    pending: BTreeMap<u64, String>,
}

/// The checker: feed it every operation result; it panics-by-Err on the
/// first inconsistency.
#[derive(Debug, Default)]
pub struct ConsistencyModel {
    keys: BTreeMap<String, KeyModel>,
    checked: u64,
}

impl ConsistencyModel {
    /// A fresh model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Operations checked so far.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// The model of `key`, tracked from its first check on. The key is
    /// looked up before its name is copied, so a check of a tracked key
    /// allocates nothing for it.
    fn key(&mut self, key: &str) -> &mut KeyModel {
        if !self.keys.contains_key(key) {
            self.keys.insert(key.to_string(), KeyModel::default());
        }
        self.keys.get_mut(key).expect("the key was inserted above")
    }

    /// Records a put the client saw succeed (write quorum reached).
    pub fn put_committed(&mut self, key: &str, version: u64, value: &str) {
        self.checked += 1;
        let entry = self.key(key);
        if entry.committed.as_ref().map(|c| c.version < version).unwrap_or(true) {
            entry.committed = Some(Versioned { version, value: value.to_string() });
        }
        // Quorum intersection: every later read quorum sees at least
        // this version, so older pending writes can never surface again.
        entry.pending.retain(|&v, _| v > version);
    }

    /// Records a put the client saw fail — indeterminate: it may have
    /// landed on some replicas and surface in later reads.
    pub fn put_failed(&mut self, key: &str, version: u64, value: &str) {
        self.checked += 1;
        let entry = self.key(key);
        let committed = entry.committed.as_ref().map(|c| c.version).unwrap_or(0);
        if version > committed {
            entry.pending.insert(version, value.to_string());
        }
    }

    /// Checks a get the client saw succeed. `found` is the quorum-max
    /// value returned.
    pub fn get_ok(&mut self, key: &str, found: &Option<Versioned>) -> Result<(), String> {
        self.checked += 1;
        let entry = self.key(key);
        match found {
            None => {
                if let Some(committed) = &entry.committed {
                    return Err(format!(
                        "get({key}) returned NotFound but version {} (\"{}\") is committed",
                        committed.version, committed.value
                    ));
                }
                Ok(())
            }
            Some(v) => {
                if let Some(committed) = &entry.committed {
                    if v.version < committed.version {
                        return Err(format!(
                            "get({key}) returned stale version {} < committed {}",
                            v.version, committed.version
                        ));
                    }
                    if v.version == committed.version {
                        return if v.value == committed.value {
                            Ok(())
                        } else {
                            Err(format!(
                                "get({key}) returned \"{}\" at committed version {}, expected \"{}\"",
                                v.value, v.version, committed.value
                            ))
                        };
                    }
                }
                match entry.pending.get(&v.version) {
                    Some(value) if *value == v.value => Ok(()),
                    Some(value) => Err(format!(
                        "get({key}) returned \"{}\" at version {}, but that write was \"{}\"",
                        v.value, v.version, value
                    )),
                    None => Err(format!(
                        "get({key}) fabricated version {} (\"{}\"): never written",
                        v.version, v.value
                    )),
                }
            }
        }
    }

    /// Records a get the client saw fail (typed error). Nothing to
    /// learn — failed reads carry no consistency obligation.
    pub fn get_failed(&mut self, _key: &str) {
        self.checked += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(version: u64, value: &str) -> Option<Versioned> {
        Some(Versioned { version, value: value.to_string() })
    }

    #[test]
    fn committed_writes_must_be_visible() {
        let mut model = ConsistencyModel::new();
        model.put_committed("k", 1, "a");
        assert!(model.get_ok("k", &v(1, "a")).is_ok());
        assert!(model.get_ok("k", &None).is_err(), "lost committed write");
        assert!(model.get_ok("k", &v(1, "b")).is_err(), "wrong value");
    }

    #[test]
    fn pending_writes_may_or_may_not_surface() {
        let mut model = ConsistencyModel::new();
        model.put_committed("k", 1, "a");
        model.put_failed("k", 2, "b");
        assert!(model.get_ok("k", &v(1, "a")).is_ok(), "pending may be invisible");
        assert!(model.get_ok("k", &v(2, "b")).is_ok(), "pending may surface");
        assert!(model.get_ok("k", &v(2, "x")).is_err(), "but not with a forged value");
        assert!(model.get_ok("k", &v(3, "c")).is_err(), "never-written version");
    }

    #[test]
    fn a_commit_buries_older_pending_writes() {
        let mut model = ConsistencyModel::new();
        model.put_failed("k", 1, "a");
        model.put_committed("k", 2, "b");
        assert!(model.get_ok("k", &v(1, "a")).is_err(), "quorum intersection buries v1");
        assert!(model.get_ok("k", &v(2, "b")).is_ok());
    }
}
