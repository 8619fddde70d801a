//! End-to-end scenario on an ideal network: a mixed workload flows
//! through a join, a live shard split (ops interleaved with the
//! pre-copy), a migration, a crash + quorum-served degraded window,
//! replica recovery, and a leave — with every read checked against the
//! in-driver per-key model.

use chorus_kvs::cluster::SimCluster;
use chorus_kvs::data_plane::KvsError;
use chorus_kvs::node::KvsOp;
use chorus_transport::FaultPlan;

fn workload(cluster: &mut SimCluster, round: u64, keys: u64) {
    for i in 0..keys {
        let key = format!("key-{i}");
        cluster.put(&key, &format!("r{round}-{i}")).expect("put commits on ideal net");
        let found = cluster.get(&key).expect("get succeeds").expect("key present");
        assert_eq!(found.value, format!("r{round}-{i}"));
    }
}

#[test]
fn lifecycle_join_split_migrate_crash_recover_leave() {
    let mut cluster = SimCluster::new(FaultPlan::ideal(), &["N1", "N2", "N3"], 4);
    cluster.set_chunk(8);

    // Steady state.
    workload(&mut cluster, 0, 32);

    // Join: the fourth node takes over its rendezvous winners.
    assert!(cluster.join("N4"), "join commits");
    assert_eq!(cluster.config().epoch, 2);
    workload(&mut cluster, 1, 32);

    // Live split with ops interleaved between pre-copy and finalize:
    // writes to every shard keep committing during the tracked
    // snapshot phase, including to the shard being split.
    let victim = cluster.config().shard_of("key-0").id;
    let next = cluster.config().with_split(victim);
    let transfers = cluster.plan_transfers(&next);
    for transfer in &transfers {
        cluster.precopy(transfer);
        workload(&mut cluster, 2, 16);
    }
    assert!(cluster.finalize(&next, &transfers), "split commits");
    assert_eq!(cluster.config().epoch, 3);
    let window = cluster.last_freeze_window().expect("freeze window recorded");
    // On an ideal network every count below is an exact integer per
    // build (no clock, no seed), so a change to the sim's frame
    // accounting or to the protocol's message pattern fails here.
    assert_eq!(window.frames, 9, "frames moved by the final deltas and the commit round");
    workload(&mut cluster, 3, 32);

    // Migrate one shard onto an explicit replica set.
    let target = cluster.config().shards[0].id;
    assert!(cluster.migrate_shard(target, &["N2", "N3", "N4"]), "migrate commits");
    workload(&mut cluster, 4, 32);

    // Crash a node; quorums keep serving.
    cluster.crash("N1");
    for i in 0..32 {
        let key = format!("key-{i}");
        match cluster.get(&key) {
            Ok(found) => assert!(found.is_some(), "{key} survives the crash"),
            Err(KvsError::Unavailable { .. }) => {} // typed, never a hang
            Err(other) => panic!("unexpected error during crash window: {other}"),
        }
    }

    // Recover it from the survivors and verify it serves again.
    let recovered = cluster.recover("N1");
    assert!(recovered > 0, "recovery pulled entries from survivors");
    assert!(cluster.node("N1").is_up());
    workload(&mut cluster, 5, 32);

    // Leave: shrink back to three members.
    assert!(cluster.leave("N2"), "leave commits");
    assert!(!cluster.config().census.contains(&"N2".to_string()));
    workload(&mut cluster, 6, 32);

    // Overall coverage: every op above went through the checker, and
    // the whole lifecycle moved exactly this many frames in this much
    // virtual time.
    assert_eq!(cluster.model.checked(), 416, "ops checked by the model");
    assert_eq!(cluster.net().messages_received(), 3236, "frames handed to receivers");
    assert_eq!(cluster.net().virtual_now(), 416, "largest arrival tick on any link");
}

#[test]
fn stale_epoch_is_fenced_not_hung() {
    let mut cluster = SimCluster::new(FaultPlan::ideal(), &["N1", "N2", "N3"], 2);
    cluster.put("pivot", "v1").expect("put");

    // Reconfigure behind the client's back, then issue an op with the
    // old stamp: every replica must fence it.
    let next = cluster.config().with_join("N4");
    assert!(cluster.reconfigure(&next));
    cluster_force_stale(&mut cluster);
    let (_, result) = cluster.raw_op(KvsOp::Get { key: "pivot".into() });
    assert!(matches!(result, Err(KvsError::StaleEpoch { .. })), "got {result:?}");

    // The public path refreshes and retries transparently.
    cluster_force_stale(&mut cluster);
    assert_eq!(cluster.get("pivot").expect("get").expect("present").value, "v1");
}

/// Rewinds the client's cached epoch so its next stamp is stale.
fn cluster_force_stale(cluster: &mut SimCluster) {
    let mut config = cluster.config().clone();
    config.epoch -= 1;
    cluster.set_config_for_test(config);
}
