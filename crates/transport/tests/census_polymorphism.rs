//! Census polymorphism, distributed: one gather choreography instantiated
//! at two census sizes over real channels, with message accounting
//! confirming the n-messages-to-recipient shape.

use chorus_core::{
    ChoreoOp, Choreography, Located, LocationSet, LocationSetFoldable, Member, MultiplyLocated,
    Quire, Subset,
};
use chorus_transport::{Cohort, LocalTransportChannel, TransportMetrics};
use std::marker::PhantomData;
use std::sync::Arc;

chorus_core::locations! { Boss, W1, W2, W3 }
type Census = chorus_core::LocationSet!(Boss, W1, W2, W3);

/// Workers announce their name lengths; the boss sums them. Generic over
/// the worker set.
struct Tally<Workers, WSub, WFold, BossIdx> {
    phantom: PhantomData<(Workers, WSub, WFold, BossIdx)>,
}

impl<Workers, WSub, WFold, BossIdx> Choreography<Located<u32, Boss>>
    for Tally<Workers, WSub, WFold, BossIdx>
where
    Workers: LocationSet + Subset<Census, WSub> + LocationSetFoldable<Census, Workers, WFold>,
    Boss: Member<Census, BossIdx>,
{
    type L = Census;
    fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<u32, Boss> {
        let facets = op.parallel_named(Workers::new(), |name| name.len() as u32);
        let gathered: MultiplyLocated<Quire<u32, Workers>, chorus_core::LocationSet!(Boss)> =
            op.gather(Workers::new(), <chorus_core::LocationSet!(Boss)>::new(), &facets);
        op.locally(Boss, |un| {
            un.unwrap_ref::<Quire<u32, Workers>, chorus_core::LocationSet!(Boss), chorus_core::Here>(
                &gathered,
            )
            .values()
            .sum()
        })
    }
}

fn run_tally<Workers, WSub, WFold, BossIdx>() -> (u32, Arc<TransportMetrics>)
where
    Workers: LocationSet + Subset<Census, WSub> + LocationSetFoldable<Census, Workers, WFold>,
    Boss: Member<Census, BossIdx>,
    Tally<Workers, WSub, WFold, BossIdx>: Send + 'static,
{
    let metrics = Arc::new(TransportMetrics::new());
    let cohort = Cohort::over(LocalTransportChannel::<Census>::new()).layer(metrics.clone());
    macro_rules! worker {
        ($loc:ident) => {
            cohort.role($loc, |endpoint| {
                let session = endpoint.session();
                let _ = session
                    .epp_and_run(Tally::<Workers, WSub, WFold, BossIdx> { phantom: PhantomData });
            })
        };
    }
    let workers = vec![worker!(W1), worker!(W2), worker!(W3)];
    let (_, sum) = cohort.run(workers, || {
        let endpoint = cohort.endpoint(Boss);
        let session = endpoint.session();
        let out =
            session.epp_and_run(Tally::<Workers, WSub, WFold, BossIdx> { phantom: PhantomData });
        session.unwrap::<u32, chorus_core::LocationSet!(Boss), chorus_core::Here>(out)
    });
    (sum, metrics)
}

#[test]
fn one_choreography_two_census_sizes() {
    // Two workers.
    let (sum, metrics) = run_tally::<chorus_core::LocationSet!(W1, W2), _, _, _>();
    assert_eq!(sum, 4);
    assert_eq!(metrics.messages_to("Boss"), 2, "one gather message per worker");

    // Three workers — same choreography type, larger census.
    let (sum, metrics) = run_tally::<chorus_core::LocationSet!(W1, W2, W3), _, _, _>();
    assert_eq!(sum, 6);
    assert_eq!(metrics.messages_to("Boss"), 3);
    // Workers never message each other in this protocol.
    for w in ["W1", "W2", "W3"] {
        assert_eq!(metrics.messages_to(w), 0);
    }
}
