//! The KVS reconfiguration chaos matrix: a mixed `Get`/`Put` workload
//! driven through every reconfiguration kind — join, leave, shard
//! split, shard migration, and crash-recovery — over `SimTransport`
//! chaos schedules with an *extra* partition window injected to span
//! the reconfiguration itself. Every client operation must either
//! succeed consistently with the in-driver per-key model or fail with a
//! typed stale-epoch/unavailable error — never a hang, never a silently
//! wrong read — and the whole run is deterministic per seed.
//!
//! Seeds come from `CHORUS_SIM_SEED_BASE` (decimal, default `49374`),
//! matching `sim_chaos`. On failure each link's recent schedule (its
//! last 1024 frames, plus a digest line for any earlier ones) is dumped
//! to `target/sim-traces/kvs-<op>-seed-<seed>.log` and the panic names
//! the env value whose sweep replays the failing seed.

use chorus_repro::core::panic_message;
use chorus_repro::kvs::cluster::{SimCluster, Universe};
use chorus_repro::kvs::data_plane::KvsError;
use chorus_repro::transport::{FaultPlan, Partition, SimNet};

/// Seeds per reconfiguration kind; five kinds × this many seeds, plus
/// the partition axis baked into every plan.
const PER_OP: u64 = 8;

/// This suite's offset in the shared seed space (sim_chaos uses
/// 1_000..5_000).
const SEED_OFFSET: u64 = 6_000;

fn seed_base() -> u64 {
    std::env::var("CHORUS_SIM_SEED_BASE").ok().and_then(|s| s.parse().ok()).unwrap_or(49374)
}

/// The seeds lane `lane` of the matrix sweeps from seed base `base`.
fn lane_seeds(base: u64, lane: u64) -> std::ops::Range<u64> {
    let first = base + SEED_OFFSET + lane * 100;
    first..first + PER_OP
}

/// The seed base whose sweep of `lane` starts at `seed`.
fn replay_base(seed: u64, lane: u64) -> u64 {
    seed - lane_seeds(0, lane).start
}

/// Runs `body` and, if it panics, dumps each link's recent schedule to
/// `target/sim-traces/` and re-panics naming the seed and the seed base
/// that replays it — same contract as `sim_chaos::with_schedule_dump`.
fn with_cluster_dump(op: &str, lane: u64, seed: u64, net: &SimNet<Universe>, body: impl FnOnce()) {
    if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        let message = panic_message(&*payload);
        let dir = std::path::Path::new("target").join("sim-traces");
        std::fs::create_dir_all(&dir).ok();
        let path = dir.join(format!("kvs-{op}-seed-{seed}.log"));
        std::fs::write(&path, net.schedule_dump()).ok();
        panic!(
            "kvs {op} failed under fault-plan seed {seed}: {message}\n\
             schedule dumped to {} — replay with \
             CHORUS_SIM_SEED_BASE={} cargo test --test kvs_reconfig",
            path.display(),
            replay_base(seed, lane),
        );
    }
}

/// The hostile plan for one run: a seeded chaos schedule (latency
/// jitter, drops with retransmission, duplication, maybe its own early
/// partition) plus a second, wide partition window timed to overlap the
/// reconfiguration sessions mid-scenario.
fn hostile_plan(seed: u64) -> FaultPlan {
    let start = 16 + seed % 24;
    FaultPlan::chaos(seed).with_partition(Partition::everywhere(start, start + 48))
}

/// One mixed workload round; every success is model-checked inside
/// `put`/`get`, every failure must be a typed error.
fn workload(cluster: &mut SimCluster, round: u64, keys: u64) {
    for i in 0..keys {
        let key = format!("key-{i}");
        match cluster.put(&key, &format!("r{round}-{i}")) {
            Ok(_) => {}
            Err(KvsError::StaleEpoch { .. } | KvsError::Frozen | KvsError::Unavailable { .. }) => {}
        }
        match cluster.get(&key) {
            Ok(_) => {}
            Err(KvsError::StaleEpoch { .. } | KvsError::Frozen | KvsError::Unavailable { .. }) => {}
        }
    }
}

/// Drives one full scenario for a reconfiguration kind, the matrix's
/// lane `lane`, under one seed. Returns the model's checked-op count.
fn run_scenario(op: &str, lane: u64, seed: u64) -> u64 {
    let census: &[&str] =
        if op == "join" { &["N1", "N2", "N3"] } else { &["N1", "N2", "N3", "N4"] };
    let mut cluster = SimCluster::new(hostile_plan(seed), census, 4);
    cluster.set_chunk(8);
    let net = cluster.net().clone();
    let body = || {
        let cluster = &mut cluster;
        workload(cluster, 0, 8);
        match op {
            "join" => {
                assert!(cluster.join("N4"), "join must commit on a healing network");
            }
            "leave" => {
                assert!(cluster.leave("N4"), "leave must commit on a healing network");
            }
            "split" => {
                let victim = cluster.config().shard_of("key-0").id;
                assert!(cluster.split_shard(victim), "split must commit");
            }
            "migrate" => {
                let target = cluster.config().shards[0].id;
                assert!(cluster.migrate_shard(target, &["N2", "N3", "N4"]), "migrate commits");
            }
            "recover" => {
                cluster.crash("N2");
                workload(cluster, 1, 8);
                let recovered = cluster.recover("N2");
                assert!(recovered > 0, "recovery must pull entries from survivors");
            }
            other => panic!("unknown op {other}"),
        }
        workload(cluster, 2, 8);
        // Every committed key must still read consistently (the model
        // check runs inside `get`).
        for i in 0..8 {
            let _ = cluster.get(&format!("key-{i}"));
        }
    };
    with_cluster_dump(op, lane, seed, &net, body);
    cluster.model.checked()
}

fn sweep(op: &str, lane: u64) {
    for seed in lane_seeds(seed_base(), lane) {
        run_scenario(op, lane, seed);
    }
}

/// A failing seed's hint must replay that seed: every seed of every
/// lane lies in the sweep its replay base runs.
#[test]
fn replay_hints_replay_the_failing_seed() {
    for lane in 0..5 {
        for seed in lane_seeds(seed_base(), lane) {
            let replayed = lane_seeds(replay_base(seed, lane), lane);
            assert!(replayed.contains(&seed), "lane {lane}: {seed} not in {replayed:?}");
        }
    }
}

#[test]
fn join_survives_the_seed_matrix() {
    sweep("join", 0);
}

#[test]
fn leave_survives_the_seed_matrix() {
    sweep("leave", 1);
}

#[test]
fn split_survives_the_seed_matrix() {
    sweep("split", 2);
}

#[test]
fn migrate_survives_the_seed_matrix() {
    sweep("migrate", 3);
}

#[test]
fn recover_survives_the_seed_matrix() {
    sweep("recover", 4);
}

/// The determinism pin: the same seed must produce the same run —
/// checked-op count for the driver and, more strictly, identical
/// per-link delivery schedules for the net.
#[test]
fn runs_are_deterministic_per_seed() {
    let seed = seed_base() + SEED_OFFSET + 999;
    let trace = |_| {
        let mut cluster = SimCluster::new(hostile_plan(seed), &["N1", "N2", "N3"], 4);
        cluster.set_chunk(8);
        workload(&mut cluster, 0, 8);
        assert!(cluster.join("N4"));
        workload(&mut cluster, 1, 8);
        (cluster.model.checked(), cluster.net().schedule_dump())
    };
    let (checked_a, dump_a) = trace(0);
    let (checked_b, dump_b) = trace(1);
    assert_eq!(checked_a, checked_b, "driver took a different path on the same seed");
    assert_eq!(dump_a, dump_b, "net delivered a different schedule on the same seed");
}
