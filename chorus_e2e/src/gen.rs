//! The driver's op stream and its per-key model.
//!
//! Everything a workload sends is generated here from `--seed`; the
//! crates under test see only the resulting [`Request`]s. The three
//! `kvs_*` workloads consume the same stream, so their numbers differ by
//! what carries the ops, never by the ops.

use chorus_protocols::store::{Request, Response, SharedStore};

/// Keys in the `kvs_*` working set.
pub const KVS_KEYS: usize = 1024;
/// Keys in the `cluster_sim_reshard` working set.
pub const CLUSTER_KEYS: usize = 256;
/// Small value size: nine puts in ten.
pub const SMALL_VALUE: usize = 16;
/// Large value size: one put in ten.
pub const LARGE_VALUE: usize = 4096;

/// SplitMix64 (Steele, Lea & Flood), kept in-file so the stream depends
/// on nothing but the seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One generated operation, by key index.
pub enum Op {
    Get(usize),
    Put(usize, String),
}

impl Op {
    pub fn key(&self) -> usize {
        match self {
            Op::Get(key) | Op::Put(key, _) => *key,
        }
    }
}

/// Uniform keys, 50 % get / 50 % put, values of [`SMALL_VALUE`] bytes
/// with p = 0.9 and [`LARGE_VALUE`] bytes with p = 0.1.
pub struct OpStream {
    rng: SplitMix64,
    keys: usize,
    large_values: bool,
    filler: String,
}

impl OpStream {
    pub fn kvs(seed: u64) -> Self {
        OpStream::new(seed, KVS_KEYS, true)
    }

    /// The cluster stream: same shape, small values only.
    pub fn cluster(seed: u64) -> Self {
        OpStream::new(seed, CLUSTER_KEYS, false)
    }

    fn new(seed: u64, keys: usize, large_values: bool) -> Self {
        OpStream { rng: SplitMix64::new(seed), keys, large_values, filler: "v".repeat(LARGE_VALUE) }
    }

    pub fn next_op(&mut self) -> Op {
        let r = self.rng.next_u64();
        let key = (r >> 32) as usize % self.keys;
        if r & 1 == 0 {
            return Op::Get(key);
        }
        // Every put carries a distinct value, so a lost, reordered or
        // misrouted write is visible to the model.
        let mut value = format!("{:016x}", self.rng.next_u64());
        if self.large_values && (r >> 1).is_multiple_of(10) {
            value.push_str(&self.filler[SMALL_VALUE..]);
        }
        Op::Put(key, value)
    }
}

pub fn key_name(key: usize) -> String {
    format!("key-{key:04}")
}

fn initial_value(key: usize) -> String {
    format!("init-{key:011}")
}

/// What the driver remembers about an op between issue and reply.
pub struct Issued {
    key: usize,
    /// For a put, the value it replaced: the store answers a put with
    /// the previous value.
    replaced: Option<String>,
}

impl Issued {
    pub fn key(&self) -> usize {
        self.key
    }
}

/// The driver-side model of the `kvs_*` store: one current value per
/// key. Exact as long as no two ops on one key are in flight together,
/// which the drivers guarantee.
pub struct KvsModel {
    names: Vec<String>,
    values: Vec<String>,
}

impl KvsModel {
    /// A model of a store pre-loaded by [`KvsModel::preload`].
    pub fn new() -> Self {
        KvsModel {
            names: (0..KVS_KEYS).map(key_name).collect(),
            values: (0..KVS_KEYS).map(initial_value).collect(),
        }
    }

    /// Loads every key into `store` (set-up; not part of the stream).
    pub fn preload(&self, store: &SharedStore) {
        for (name, value) in self.names.iter().zip(&self.values) {
            store.put(name, value);
        }
    }

    /// Turns `op` into the request to send and records its effect.
    pub fn issue(&mut self, op: Op) -> (Request, Issued) {
        match op {
            Op::Get(key) => (Request::Get(self.names[key].clone()), Issued { key, replaced: None }),
            Op::Put(key, value) => {
                let replaced = std::mem::replace(&mut self.values[key], value.clone());
                (
                    Request::Put(self.names[key].clone(), value),
                    Issued { key, replaced: Some(replaced) },
                )
            }
        }
    }

    /// Whether `reply` is the answer the model expects for `issued`.
    pub fn check(&self, issued: &Issued, reply: &Response) -> bool {
        let expected = issued.replaced.as_ref().unwrap_or(&self.values[issued.key]);
        matches!(reply, Response::Found(found) if found == expected)
    }
}
