//! Centralized-semantics tests exercising the full operator surface:
//! locally/comm/multicast/broadcast, conclaves, MLVs, fanout/fanin,
//! parallel, scatter/gather, and census polymorphism.

use chorus_core::{
    ChoreoOp, Choreography, Faceted, FanInChoreography, FanOutChoreography, Located, LocationSet,
    LocationSetFoldable, Member, MultiplyLocated, Quire, Runner, Subset,
};
use std::marker::PhantomData;

chorus_core::locations! { Client, Primary, Backup1, Backup2 }

type Census = chorus_core::LocationSet!(Client, Primary, Backup1, Backup2);
type Servers = chorus_core::LocationSet!(Primary, Backup1, Backup2);

#[test]
fn comm_moves_a_value_between_locations() {
    struct Comm {
        input: Located<String, Client>,
    }
    impl Choreography<Located<String, Primary>> for Comm {
        type L = Census;
        fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<String, Primary> {
            op.comm(Client, Primary, &self.input)
        }
    }
    let runner: Runner<Census> = Runner::new();
    let out = runner.run(Comm { input: runner.local("payload".to_string()) });
    assert_eq!(runner.unwrap_located(out), "payload");
}

#[test]
fn multicast_produces_a_multiply_located_value() {
    struct Cast {
        input: Located<u64, Client>,
    }
    impl Choreography<MultiplyLocated<u64, Servers>> for Cast {
        type L = Census;
        fn run(self, op: &impl ChoreoOp<Self::L>) -> MultiplyLocated<u64, Servers> {
            op.multicast(Client, Servers::new(), &self.input)
        }
    }
    let runner: Runner<Census> = Runner::new();
    let out = runner.run(Cast { input: runner.local(99) });
    assert_eq!(runner.unwrap_located(out), 99);
}

#[test]
fn broadcast_returns_a_naked_value_everywhere() {
    struct Cast {
        input: Located<i32, Primary>,
    }
    impl Choreography<i32> for Cast {
        type L = Census;
        fn run(self, op: &impl ChoreoOp<Self::L>) -> i32 {
            op.broadcast(Primary, self.input) * 2
        }
    }
    let runner: Runner<Census> = Runner::new();
    assert_eq!(runner.run(Cast { input: runner.local(21) }), 42);
}

#[test]
fn conclave_runs_a_sub_choreography_and_returns_an_mlv() {
    struct Inner;
    impl Choreography<u8> for Inner {
        type L = Servers;
        fn run(self, _op: &impl ChoreoOp<Self::L>) -> u8 {
            7
        }
    }
    struct Outer;
    impl Choreography<MultiplyLocated<u8, Servers>> for Outer {
        type L = Census;
        fn run(self, op: &impl ChoreoOp<Self::L>) -> MultiplyLocated<u8, Servers> {
            op.conclave(Inner)
        }
    }
    let runner: Runner<Census> = Runner::new();
    let out = runner.run(Outer);
    assert_eq!(runner.unwrap_located(out), 7);
}

#[test]
fn conclave_broadcast_reuses_knowledge_of_choice() {
    // The §3.3 pattern: a value broadcast inside a conclave of the servers
    // is branched on in two *sequential* conclaves with no additional
    // communication, and the decision is returned as an MLV.
    #[derive(serde::Serialize, serde::Deserialize, Clone, PartialEq, Debug)]
    enum Req {
        Put,
        Get,
    }

    struct Outer {
        request: Located<Req, Client>,
    }
    impl Choreography<String> for Outer {
        type L = Census;
        fn run(self, op: &impl ChoreoOp<Self::L>) -> String {
            let at_primary = op.comm(Client, Primary, &self.request);
            // First conclave: servers decide how to handle the request.
            let decision: MultiplyLocated<bool, Servers> =
                op.conclave(Decide { request: at_primary }).flatten();
            // Second conclave: servers *reuse* the decision without any new
            // communication.
            let outcome: Located<String, Primary> =
                op.conclave(Act { was_put: decision }).flatten().flatten();
            let label = op.comm(Primary, Client, &outcome);
            op.broadcast(Client, label)
        }
    }

    struct Decide {
        request: Located<Req, Primary>,
    }
    impl Choreography<MultiplyLocated<bool, Servers>> for Decide {
        type L = Servers;
        fn run(self, op: &impl ChoreoOp<Self::L>) -> MultiplyLocated<bool, Servers> {
            let shared = op.multicast(Primary, Servers::new(), &self.request);
            let req = op.naked(shared);
            let was_put = matches!(req, Req::Put);
            // All servers replicate the decision as an MLV.
            let at_primary = op.locally(Primary, |_| was_put);
            op.multicast(Primary, Servers::new(), &at_primary)
        }
    }

    struct Act {
        was_put: MultiplyLocated<bool, Servers>,
    }
    impl Choreography<MultiplyLocated<Located<String, Primary>, Servers>> for Act {
        type L = Servers;
        fn run(
            self,
            op: &impl ChoreoOp<Self::L>,
        ) -> MultiplyLocated<Located<String, Primary>, Servers> {
            // Branch on the reused MLV: no communication happens here.
            let was_put = op.naked(self.was_put);
            let label = if was_put { "handled-put" } else { "handled-get" };
            op.conclave(Finish(label))
        }
    }
    struct Finish(&'static str);
    impl Choreography<Located<String, Primary>> for Finish {
        type L = Servers;
        fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<String, Primary> {
            op.locally(Primary, |_| self.0.to_string())
        }
    }

    let runner: Runner<Census> = Runner::new();
    let out = runner.run(Outer { request: runner.local(Req::Put) });
    assert_eq!(out, "handled-put");
    let out = runner.run(Outer { request: runner.local(Req::Get) });
    assert_eq!(out, "handled-get");
}

#[test]
fn parallel_computes_divergent_facets() {
    struct Par;
    impl Choreography<Faceted<String, Servers>> for Par {
        type L = Census;
        fn run(self, op: &impl ChoreoOp<Self::L>) -> Faceted<String, Servers> {
            op.parallel_named(Servers::new(), |name| format!("facet-of-{name}"))
        }
    }
    let runner: Runner<Census> = Runner::new();
    let facets = runner.unwrap_faceted(runner.run(Par));
    assert_eq!(facets.len(), 3);
    assert_eq!(*facets.get(Primary), "facet-of-Primary");
    assert_eq!(*facets.get(Backup1), "facet-of-Backup1");
    assert_eq!(*facets.get(Backup2), "facet-of-Backup2");
}

#[test]
fn scatter_then_gather_round_trips_a_quire() {
    struct Round;
    impl Choreography<MultiplyLocated<Quire<u32, Servers>, chorus_core::LocationSet!(Client)>>
        for Round
    {
        type L = Census;
        fn run(
            self,
            op: &impl ChoreoOp<Self::L>,
        ) -> MultiplyLocated<Quire<u32, Servers>, chorus_core::LocationSet!(Client)> {
            let quire: Located<Quire<u32, Servers>, Client> =
                op.locally(Client, |_| Quire::build(|name| name.len() as u32));
            let shares: Faceted<u32, Servers> = op.scatter(Client, Servers::new(), &quire);
            op.gather(Servers::new(), <chorus_core::LocationSet!(Client)>::new(), &shares)
        }
    }
    let runner: Runner<Census> = Runner::new();
    let quire = runner.unwrap_located(runner.run(Round));
    assert_eq!(*quire.get(Primary), "Primary".len() as u32);
    assert_eq!(*quire.get(Backup1), "Backup1".len() as u32);
    assert_eq!(*quire.get(Backup2), "Backup2".len() as u32);
}

#[test]
fn fanout_and_fanin_support_custom_bodies() {
    // fanout: every server announces its name-length; fanin: all servers
    // send their facet to the primary.
    struct Announce<L, QS>(PhantomData<(L, QS)>);
    impl<L: LocationSet, QS: LocationSet> FanOutChoreography<u32> for Announce<L, QS> {
        type L = L;
        type QS = QS;
        fn run<Q: chorus_core::ChoreographyLocation, QSSubsetL, QMemberL, QMemberQS>(
            &self,
            op: &impl ChoreoOp<Self::L>,
        ) -> Located<u32, Q>
        where
            Self::QS: Subset<Self::L, QSSubsetL>,
            Q: Member<Self::L, QMemberL>,
            Q: Member<Self::QS, QMemberQS>,
        {
            op.locally(Q::new(), |_| Q::NAME.len() as u32)
        }
    }

    struct FanOutDemo;
    impl Choreography<Faceted<u32, Servers>> for FanOutDemo {
        type L = Census;
        fn run(self, op: &impl ChoreoOp<Self::L>) -> Faceted<u32, Servers> {
            op.fanout(Servers::new(), Announce::<Census, Servers>(PhantomData))
        }
    }

    let runner: Runner<Census> = Runner::new();
    let facets = runner.unwrap_faceted(runner.run(FanOutDemo));
    assert_eq!(*facets.get(Primary), 7);
    assert_eq!(*facets.get(Backup1), 7);

    struct SendAll<'a, L, QS, RS> {
        data: &'a Faceted<u32, QS>,
        phantom: PhantomData<(L, RS)>,
    }
    impl<L: LocationSet, QS: LocationSet, RS: LocationSet> FanInChoreography<u32>
        for SendAll<'_, L, QS, RS>
    {
        type L = L;
        type QS = QS;
        type RS = RS;
        fn run<Q: chorus_core::ChoreographyLocation, QSSubsetL, RSSubsetL, QMemberL, QMemberQS>(
            &self,
            op: &impl ChoreoOp<Self::L>,
        ) -> MultiplyLocated<u32, Self::RS>
        where
            Self::QS: Subset<Self::L, QSSubsetL>,
            Self::RS: Subset<Self::L, RSSubsetL>,
            Q: Member<Self::L, QMemberL>,
            Q: Member<Self::QS, QMemberQS>,
        {
            let facet = op.locally(Q::new(), |un| un.unwrap_faceted(self.data));
            op.multicast(Q::new(), RS::new(), &facet)
        }
    }

    struct FanInDemo;
    impl Choreography<MultiplyLocated<Quire<u32, Servers>, chorus_core::LocationSet!(Primary)>>
        for FanInDemo
    {
        type L = Census;
        fn run(
            self,
            op: &impl ChoreoOp<Self::L>,
        ) -> MultiplyLocated<Quire<u32, Servers>, chorus_core::LocationSet!(Primary)> {
            let facets = op.parallel_named(Servers::new(), |name| name.len() as u32);
            op.fanin(
                Servers::new(),
                SendAll::<Census, Servers, chorus_core::LocationSet!(Primary)> {
                    data: &facets,
                    phantom: PhantomData,
                },
            )
        }
    }

    let quire = runner.unwrap_located(runner.run(FanInDemo));
    assert_eq!(quire.values().copied().collect::<Vec<_>>(), vec![7, 7, 7]);
}

#[test]
fn census_polymorphic_choreography_instantiates_at_different_sizes() {
    // A choreography generic over the set of workers: each worker computes
    // its name length; the results are gathered at the client.
    struct Sum<Workers, WSubset, WFold, ClientIdx> {
        phantom: PhantomData<(Workers, WSubset, WFold, ClientIdx)>,
    }

    impl<Workers, WSubset, WFold, ClientIdx> Choreography<Located<u32, Client>>
        for Sum<Workers, WSubset, WFold, ClientIdx>
    where
        Workers:
            LocationSet + Subset<Census, WSubset> + LocationSetFoldable<Census, Workers, WFold>,
        Client: Member<Census, ClientIdx>,
    {
        type L = Census;
        fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<u32, Client> {
            let facets = op.parallel_named(Workers::new(), |name| name.len() as u32);
            let gathered: MultiplyLocated<Quire<u32, Workers>, chorus_core::LocationSet!(Client)> =
                op.gather(Workers::new(), <chorus_core::LocationSet!(Client)>::new(), &facets);
            op.locally(Client, |un| {
                // Explicit turbofish, exactly as the paper's Fig. 10 needs
                // `un.unwrap::<Quire<Response, Backups>, _, _>(&gathered)`:
                // in census-polymorphic contexts the membership proof for
                // the unwrap must be pinned.
                un.unwrap_ref::<Quire<u32, Workers>, chorus_core::LocationSet!(Client), chorus_core::Here>(
                    &gathered,
                )
                .values()
                .sum()
            })
        }
    }

    let runner: Runner<Census> = Runner::new();

    let one =
        runner.run(Sum::<chorus_core::LocationSet!(Primary), _, _, _> { phantom: PhantomData });
    assert_eq!(runner.unwrap_located(one), 7);

    let three = runner.run(Sum::<Servers, _, _, _> { phantom: PhantomData });
    assert_eq!(runner.unwrap_located(three), 21);
}

#[test]
fn flatten_narrows_nested_ownership() {
    struct Nest;
    impl Choreography<Located<u8, Primary>> for Nest {
        type L = Census;
        fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<u8, Primary> {
            let nested: MultiplyLocated<Located<u8, Primary>, Servers> = op.conclave(Inner);
            nested.flatten()
        }
    }
    struct Inner;
    impl Choreography<Located<u8, Primary>> for Inner {
        type L = Servers;
        fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<u8, Primary> {
            op.locally(Primary, |_| 5)
        }
    }
    let runner: Runner<Census> = Runner::new();
    assert_eq!(runner.unwrap_located(runner.run(Nest)), 5);
}
