//! Model-based property test: random request sequences against the
//! replicated KVS (Fig. 2) must behave exactly like a plain map, and
//! replicas must stay convergent — resynching precisely when corruption
//! was injected.

use chorus_core::{Faceted, Quire, Runner};
use chorus_protocols::kvs_backup::{KvsCensus, ReplicatedKvs, Servers};
use chorus_protocols::roles::{Backup1, Backup2, Backup3, Primary};
use chorus_protocols::store::{Request, Response, SharedStore};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::marker::PhantomData;

type Backups = chorus_core::LocationSet!(Backup1, Backup2, Backup3);
type Census = KvsCensus<Backups>;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8),
    Get(u8),
    CorruptThenPut(u8, u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 8, v)),
        any::<u8>().prop_map(|k| Op::Get(k % 8)),
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::CorruptThenPut(k % 8, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kvs_behaves_like_a_map_and_replicas_converge(ops in prop::collection::vec(arb_op(), 1..24)) {
        let runner: Runner<Census> = Runner::new();
        let stores: Quire<SharedStore, Servers<Backups>> = Quire::build(|_| SharedStore::new());
        let states: Faceted<SharedStore, Servers<Backups>> = runner.faceted(stores.clone());
        let mut model: BTreeMap<String, String> = BTreeMap::new();

        for op in ops {
            let (request, corrupted) = match op {
                Op::Put(k, v) => (Request::Put(format!("k{k}"), format!("v{v}")), false),
                Op::Get(k) => (Request::Get(format!("k{k}")), false),
                Op::CorruptThenPut(k, v) => {
                    stores.get(Backup2).corrupt_next_put();
                    (Request::Put(format!("k{k}"), format!("v{v}")), true)
                }
            };
            let outcome = runner.run(ReplicatedKvs::<Backups, _, _, _> {
                request: runner.local(request.clone()),
                states: states.clone(),
                phantom: PhantomData,
            });
            let response = runner.unwrap_located(outcome.response);
            let resynched = runner.unwrap_located(outcome.resynched);

            // The response matches a plain map.
            match request {
                Request::Put(k, v) => {
                    let expected = match model.insert(k, v) {
                        Some(prev) => Response::Found(prev),
                        None => Response::NotFound,
                    };
                    prop_assert_eq!(response, expected);
                    // Resynch fires exactly when corruption was injected.
                    prop_assert_eq!(resynched, corrupted);
                }
                Request::Get(k) => {
                    let expected = match model.get(&k) {
                        Some(v) => Response::Found(v.clone()),
                        None => Response::NotFound,
                    };
                    prop_assert_eq!(response, expected);
                    prop_assert!(!resynched);
                }
                Request::Stop => unreachable!(),
            }

            // Replicas converge after every request.
            let reference = stores.get(Primary).snapshot();
            for (name, store) in stores.iter() {
                prop_assert_eq!(
                    store.snapshot(),
                    reference.clone(),
                    "replica {} diverged",
                    name
                );
            }
            prop_assert_eq!(reference, model.clone(), "primary diverged from the model");
        }
    }
}
