//! The patterns against a genuinely hostile wire: three endpoints on
//! real threads over [`SimTransport`] with adversarial fault modes
//! (selective silence, frame corruption, an equivocating sender),
//! asserting detection with the correct culprit named and — crucially —
//! no hangs: every endpoint resolves.

use chorus_core::{ChoreographyLocation, Quire};
use chorus_patterns::{BroadcastGather, Misbehavior, MisbehaviorKind, VerifyConsistent};
use chorus_transport::{
    Cohort, Corruption, Equivocator, FaultPlan, MakeTransport, Silence, SimNet, SimTransport,
};
use std::collections::BTreeMap;
use std::marker::PhantomData;

chorus_core::locations! { A, B, C }
type Trio = chorus_core::LocationSet!(A, B, C);

type GatherOutcome = Result<Quire<u64, Trio>, Misbehavior>;

/// Runs one `BroadcastGather` round at every endpoint and collects each
/// endpoint's own outcome.
fn run_gather(plan: FaultPlan) -> BTreeMap<String, GatherOutcome> {
    let cohort = Cohort::over(SimNet::<Trio>::new(plan));
    macro_rules! node {
        ($loc:ident, $value:expr) => {
            cohort.role($loc, |endpoint| {
                let session = endpoint.session();
                // The validation hook knows the protocol's value space
                // (multiples of ten up to thirty), so a tampered payload
                // that still decodes is rejected rather than adopted.
                let out = session.epp_and_run(BroadcastGather::<'_, u64, Trio, _, _, _> {
                    values: &session.local_faceted($value),
                    epoch: 3,
                    validate: &|_: &'static str, v: &u64| {
                        if *v % 10 == 0 && *v <= 30 {
                            Ok(())
                        } else {
                            Err(format!("{v} is outside the value space"))
                        }
                    },
                    phantom: PhantomData,
                });
                ($loc::NAME.to_string(), session.unwrap_faceted(out))
            })
        };
    }
    let (outcomes, ()) = cohort.run(vec![node!(A, 10), node!(B, 20), node!(C, 30)], || ());
    outcomes.into_iter().collect()
}

#[test]
fn clean_network_gathers_everywhere() {
    let outcomes = run_gather(FaultPlan::ideal().with_seed(1));
    for (name, outcome) in outcomes {
        let quire = outcome.unwrap_or_else(|m| panic!("{name} saw a fault: {m}"));
        assert_eq!(quire.get_by_name("A"), Some(&10));
        assert_eq!(quire.get_by_name("B"), Some(&20));
        assert_eq!(quire.get_by_name("C"), Some(&30));
    }
}

#[test]
fn silenced_link_is_detected_by_its_receiver_only() {
    let plan = FaultPlan::ideal().with_seed(2).with_silence(Silence::link("A", "B"));
    let outcomes = run_gather(plan);
    let m = outcomes["B"].as_ref().expect_err("B never hears from A");
    assert_eq!(m.culprit, "A", "the silent edge's sender is the culprit");
    assert!(matches!(m.kind, MisbehaviorKind::Silent { .. }), "got {m}");
    assert_eq!(m.epoch, 3);
    // The fault is one-directional and link-local: everyone else
    // completes, including A itself.
    assert!(outcomes["A"].is_ok() && outcomes["C"].is_ok());
}

#[test]
fn corrupted_link_is_detected_and_attributed() {
    let plan = FaultPlan::ideal().with_seed(3).with_corruption(Corruption::link("C", "A", 1.0));
    let outcomes = run_gather(plan);
    let m = outcomes["A"].as_ref().expect_err("every frame C -> A is tampered");
    assert_eq!(m.culprit, "C");
    assert!(
        matches!(
            m.kind,
            MisbehaviorKind::Garbled { .. }
                | MisbehaviorKind::Rejected { .. }
                | MisbehaviorKind::WrongEpoch { .. }
        ),
        "a flipped bit must surface as garbled/rejected/wrong-epoch, got {m}"
    );
    assert!(outcomes["B"].is_ok() && outcomes["C"].is_ok());
}

/// The sim net with one equivocating location: `culprit`'s frames to
/// `victims` are tampered with, and every other transport passes its
/// frames through untouched.
#[derive(Clone)]
struct Equivocating {
    net: SimNet<Trio>,
    seed: u64,
    culprit: &'static str,
    victims: Vec<&'static str>,
}

impl MakeTransport<Trio> for Equivocating {
    type Transport<R: ChoreographyLocation> = Equivocator<SimTransport<Trio, R>>;

    fn transport<R: ChoreographyLocation>(&self, location: R) -> Self::Transport<R> {
        let victims = if R::NAME == self.culprit { self.victims.clone() } else { Vec::new() };
        Equivocator::new(self.net.transport(location), self.seed, victims)
    }
}

/// An equivocating sender caught by commit-reveal verification: B runs
/// behind an [`Equivocator`] that tampers with every payload it sends
/// to its victim A, so A's view of B's opening contradicts B's
/// commitment (or decodes to a different value), and A accuses B. The
/// verdict exchange spreads the accusation: every endpoint converges on
/// culprit B.
#[test]
fn equivocating_sender_is_caught_by_verify_consistent() {
    let cohort = Cohort::over(Equivocating {
        net: SimNet::<Trio>::new(FaultPlan::ideal().with_seed(4)),
        seed: 0xB0B,
        culprit: "B",
        victims: vec!["A"],
    });
    macro_rules! node {
        ($loc:ident) => {
            cohort.role($loc, |endpoint| {
                let session = endpoint.session();
                let out = session.epp_and_run(VerifyConsistent::<'_, u64, Trio, _, _> {
                    values: &session.local_faceted(777u64),
                    epoch: 5,
                    phantom: PhantomData,
                });
                ($loc::NAME.to_string(), session.unwrap_faceted(out))
            })
        };
    }
    let (outcomes, ()) = cohort.run(vec![node!(A), node!(B), node!(C)], || ());
    for (name, outcome) in outcomes {
        let m = outcome.expect_err("equivocation must be detected everywhere");
        assert_eq!(m.culprit, "B", "{name} must converge on the equivocator");
    }
}
