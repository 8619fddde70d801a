//! End-to-end scenario on an ideal network: a mixed workload flows
//! through a join, a live shard split (ops interleaved with the
//! pre-copy), a migration, a crash + quorum-served degraded window,
//! replica recovery, and a leave — with every read checked against the
//! in-driver per-key model.

use chorus_kvs::cluster::{SimCluster, NODE_NAMES};
use chorus_kvs::config::ClusterConfig;
use chorus_kvs::data_plane::KvsError;
use chorus_kvs::node::KvsOp;
use chorus_transport::{FaultPlan, SimEventKind};
use std::collections::BTreeMap;

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
    assert_eq!(cluster.net().messages_received(), 2660, "frames handed to receivers");
    assert_eq!(cluster.net().virtual_now(), 352, "largest arrival tick on any link");
}

/// Frames delivered so far, per `(from, to)` link.
fn delivered(cluster: &SimCluster) -> BTreeMap<(&'static str, &'static str), u64> {
    let mut links = BTreeMap::new();
    for event in cluster.net().events() {
        if event.kind == SimEventKind::Delivered {
            *links.entry((event.from, event.to)).or_insert(0) += 1;
        }
    }
    links
}

/// The frames `op` delivers, per link.
fn round_frames(
    cluster: &mut SimCluster,
    op: impl FnOnce(&mut SimCluster),
) -> BTreeMap<(&'static str, &'static str), u64> {
    let before = delivered(cluster);
    op(cluster);
    let mut frames = delivered(cluster);
    for (link, count) in &mut frames {
        *count -= before.get(link).copied().unwrap_or(0);
    }
    frames.retain(|_, count| *count > 0);
    frames
}

#[test]
fn a_round_messages_only_the_keys_replicas() {
    let mut cluster = SimCluster::new(FaultPlan::ideal(), &NODE_NAMES, 4);
    let key = "key-7";
    let replicas = cluster.config().shard_of(key).replicas.clone();
    assert_eq!(replicas.len(), 3, "RF 3 over four members");
    // One request to and one reply from each replica, and nothing else.
    let expected: BTreeMap<_, _> = NODE_NAMES
        .iter()
        .filter(|node| replicas.iter().any(|r| r == *node))
        .flat_map(|node| [(("Client", *node), 1), ((*node, "Client"), 1)])
        .collect();

    let put = round_frames(&mut cluster, |c| {
        c.put(key, "v").expect("put commits on an ideal net");
    });
    assert_eq!(put, expected, "a put's frames");
    let before = cluster.net().messages_received();
    let get = round_frames(&mut cluster, |c| {
        assert_eq!(c.get(key).expect("get succeeds").expect("present").value, "v");
    });
    assert_eq!(get, expected, "a get's frames");
    assert_eq!(cluster.net().messages_received() - before, 2 * replicas.len() as u64);
}

#[test]
fn stale_epoch_is_fenced_not_hung() {
    type Reshard = fn(&ClusterConfig, &str) -> ClusterConfig;
    let join: Reshard = |config, _| config.with_join("N4");
    let split: Reshard = |config, key| config.with_split(config.shard_of(key).id);
    // Onto a replica set that drops one of the key's old replicas.
    let migrate: Reshard = |config, key| {
        let old = &config.shard_of(key).replicas;
        let outsider = NODE_NAMES.iter().find(|n| !old.iter().any(|r| r == *n)).unwrap();
        config.with_migrate(config.shard_of(key).id, &[old[1].as_str(), old[2].as_str(), outsider])
    };
    let cases: [(&str, &[&str], u32, Reshard); 3] = [
        ("join", &["N1", "N2", "N3"], 2, join),
        // Four members, RF 3: the stale round reaches only the key's
        // replicas, so they alone can fence it.
        ("split", &NODE_NAMES, 4, split),
        ("migrate", &NODE_NAMES, 4, migrate),
    ];
    for (kind, census, shards, reshard) in cases {
        let mut cluster = SimCluster::new(FaultPlan::ideal(), census, shards);
        let key = "pivot";
        cluster.put(key, "v1").expect("put");

        // Reconfigure behind the client's back, then issue ops with the
        // old stamp: every replica the stale view routes to was in the
        // install round and must fence them.
        let stale = cluster.config().clone();
        let next = reshard(&stale, key);
        assert!(cluster.reconfigure(&next), "{kind} commits");
        cluster.set_config_for_test(stale.clone());
        for op in
            [KvsOp::Get { key: key.into() }, KvsOp::Put { key: key.into(), value: "v2".into() }]
        {
            let (_, result) = cluster.raw_op(op);
            assert_eq!(result, Err(KvsError::StaleEpoch { observed: next.epoch }), "{kind}");
        }

        // The public path refreshes and retries transparently.
        cluster.set_config_for_test(stale);
        assert_eq!(cluster.get(key).expect("get").expect("present").value, "v1", "{kind}");
        assert_eq!(cluster.config().epoch, next.epoch, "{kind}: the client refreshed");
    }
}
