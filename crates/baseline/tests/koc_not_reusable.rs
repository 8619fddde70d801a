//! The structural cost of the baseline model, measured: without MLVs,
//! branching twice on the same data broadcasts it twice (§3.3's claim
//! in the negative), and every broadcast reaches bystanders.

use chorus_baseline::{BaselineChoreography, BaselineProjector, HasChorOp, Located};
use chorus_transport::{Cohort, LocalTransportChannel, TransportMetrics};
use std::sync::Arc;

chorus_core::locations! { Decider, Worker, Bystander }
type Census = chorus_core::LocationSet!(Decider, Worker, Bystander);

/// Branches twice on the same flag. HasChor-style `cond` must broadcast
/// the scrutinee each time.
struct DoubleBranch {
    flag: Located<bool, Decider>,
}

impl BaselineChoreography<(u32, u32)> for DoubleBranch {
    type L = Census;
    fn run(self, op: &impl HasChorOp<Self::L>) -> (u32, u32) {
        let first = op.cond(Decider, &self.flag, |f| u32::from(*f));
        let second = op.cond(Decider, &self.flag, |f| u32::from(*f) * 10);
        (first, second)
    }
}

fn run_double_branch() -> ((u32, u32), Arc<TransportMetrics>) {
    let metrics = Arc::new(TransportMetrics::new());
    let cohort = Cohort::over(LocalTransportChannel::<Census>::new()).layer(metrics.clone());
    macro_rules! role {
        ($loc:ident, $mk_flag:expr) => {
            cohort.role($loc, |endpoint| {
                let session = endpoint.session();
                let projector = BaselineProjector::new($loc, &session);
                let flag: Located<bool, Decider> = $mk_flag(&projector);
                projector.epp_and_run(DoubleBranch { flag })
            })
        };
    }
    let roles = vec![
        role!(Decider, |p: &BaselineProjector<Census, Decider, _, _>| p.local(true)),
        role!(Worker, |p: &BaselineProjector<Census, Worker, _, _>| p.remote(Decider)),
        role!(Bystander, |p: &BaselineProjector<Census, Bystander, _, _>| p.remote(Decider)),
    ];
    let (results, ()) = cohort.run(roles, || ());
    let first = results[0];
    assert!(results.iter().all(|r| *r == first), "replicated results must agree");
    (first, metrics)
}

#[test]
fn every_branch_rebroadcasts_to_everyone() {
    let ((first, second), metrics) = run_double_branch();
    assert_eq!((first, second), (1, 10));
    // Two conds × two non-owner recipients each = 4 messages; the MLV
    // library needs 2 (one multicast) and zero to true bystanders.
    assert_eq!(metrics.total_messages(), 4);
    assert_eq!(metrics.messages_to("Worker"), 2);
    assert_eq!(metrics.messages_to("Bystander"), 2);
}
