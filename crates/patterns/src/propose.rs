//! Propose-and-acknowledge with quorum tracking.
//!
//! One distinguished proposer pushes an epoch-sealed proposal to the
//! whole census; every participant validates it and sends back a
//! [`Verdict`]; the proposer commits if the acknowledgement quorum is
//! reached and otherwise aborts with the blame-count winner among the
//! reported faults (falling back to [`NoQuorum`]). The decision is then
//! pushed to everyone, so the round ends with every reachable
//! participant holding either the committed value or a [`Misbehavior`]
//! naming the offender — never hanging on a silent peer, thanks to
//! [`ChoreoOp::try_multicast`] underneath.
//!
//! [`NoQuorum`]: crate::MisbehaviorKind::NoQuorum

use crate::broadcast_gather::resolve_verdicts;
use crate::misbehavior::{Decision, Misbehavior, MisbehaviorKind, Sealed, Verdict};
use chorus_core::{
    ChoreoOp, Choreography, ChoreographyLocation, CommFailure, Faceted, Located, LocationSet,
    LocationSetFoldable, Member, MultiplyLocated, Portable, Quire, Subset, SubsetCons, SubsetNil,
};
use std::marker::PhantomData;

/// The propose-and-acknowledge pattern.
///
/// `Proposer` must be a member of the census `P`; `quorum` counts the
/// proposer's own (self-validated) acknowledgement. The `validate` hook
/// runs at every participant, including the proposer.
pub struct ProposeAck<'a, V, Proposer, P: LocationSet, F, ProposerIdx, PRefl, PFold> {
    /// The proposer's proposal.
    pub proposal: &'a Located<V, Proposer>,
    /// The anti-replay epoch for the whole round.
    pub epoch: u64,
    /// Acknowledgements required to commit (including the proposer's).
    pub quorum: usize,
    /// Proposal validation hook.
    pub validate: &'a F,
    /// Inferred proof indices; pass `PhantomData`.
    pub phantom: PhantomData<(P, ProposerIdx, PRefl, PFold)>,
}

impl<V, Proposer, P, F, ProposerIdx, PRefl, PFold> Choreography<Faceted<Result<V, Misbehavior>, P>>
    for ProposeAck<'_, V, Proposer, P, F, ProposerIdx, PRefl, PFold>
where
    V: Portable + Clone,
    Proposer: ChoreographyLocation + Member<P, ProposerIdx>,
    P: LocationSet + Subset<P, PRefl> + LocationSetFoldable<P, P, PFold>,
    F: Fn(&V) -> Result<(), String>,
{
    type L = P;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Faceted<Result<V, Misbehavior>, P> {
        let epoch = self.epoch;
        let quorum = self.quorum;

        // 1. The proposer seals and pushes the proposal to everyone.
        let sealed: Located<Sealed<V>, Proposer> =
            op.locally::<_, Proposer, ProposerIdx>(Proposer::new(), |un| Sealed {
                epoch,
                value: un
                    .unwrap_ref::<V, chorus_core::LocationSet!(Proposer), chorus_core::Here>(
                        self.proposal,
                    )
                    .clone(),
            });
        let pushed = op.try_multicast::<Proposer, Sealed<V>, P, ProposerIdx, PRefl>(
            Proposer::new(),
            P::new(),
            &sealed,
        );

        // 2. Every participant independently validates its receipt.
        let receipts: Faceted<Result<V, Misbehavior>, P> = op.fanout(
            P::new(),
            Receipt::<'_, V, P, F> {
                pushed: &pushed,
                epoch,
                validate: self.validate,
                proposer: Proposer::NAME,
            },
        );

        // 3. Acknowledgements fan in to the proposer.
        let acks: MultiplyLocated<Quire<Verdict, P>, chorus_core::LocationSet!(Proposer)> = op
            .fanin::<Verdict, P, chorus_core::LocationSet!(Proposer), _, PRefl, SubsetCons<ProposerIdx, SubsetNil>, PFold>(
                P::new(),
                AckSend::<'_, V, P, Proposer, ProposerIdx> {
                    receipts: &receipts,
                    epoch,
                    phantom: PhantomData,
                },
            );

        // 4. The proposer rules: commit on quorum, otherwise adopt the
        // blame-count winner among the reported faults.
        let ruling: Located<Sealed<Decision>, Proposer> =
            op.locally::<_, Proposer, ProposerIdx>(Proposer::new(), |un| {
                let quire = un
                    .unwrap_ref::<Quire<Verdict, P>, chorus_core::LocationSet!(Proposer), chorus_core::Here>(
                        &acks,
                    );
                let oks = quire.values().filter(|v| matches!(v, Verdict::Ok)).count();
                let decision = if oks >= quorum {
                    Decision::Commit
                } else {
                    match resolve_verdicts(quire) {
                        Err(m) => Decision::Abort(m),
                        Ok(()) => Decision::Abort(Misbehavior::new(
                            Proposer::NAME,
                            MisbehaviorKind::NoQuorum { acks: oks as u64, quorum: quorum as u64 },
                            epoch,
                        )),
                    }
                };
                Sealed { epoch, value: decision }
            });

        // 5. The decision goes back out; each participant folds it with
        // its own receipt.
        let decided = op.try_multicast::<Proposer, Sealed<Decision>, P, ProposerIdx, PRefl>(
            Proposer::new(),
            P::new(),
            &ruling,
        );
        op.fanout(
            P::new(),
            Outcome::<'_, V, P> {
                decided: &decided,
                receipts: &receipts,
                epoch,
                proposer: Proposer::NAME,
            },
        )
    }
}

/// Per-participant validation of the pushed proposal.
struct Receipt<'a, V, P: LocationSet, F> {
    pushed: &'a Result<MultiplyLocated<Sealed<V>, P>, CommFailure>,
    epoch: u64,
    validate: &'a F,
    proposer: &'static str,
}

impl<V, P, F> chorus_core::FanOutChoreography<Result<V, Misbehavior>> for Receipt<'_, V, P, F>
where
    V: Portable + Clone,
    P: LocationSet,
    F: Fn(&V) -> Result<(), String>,
{
    type L = P;
    type QS = P;

    fn run<Q: ChoreographyLocation, QSSubsetL, QMemberL, QMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> Located<Result<V, Misbehavior>, Q>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>,
    {
        let epoch = self.epoch;
        op.locally::<_, Q, QMemberL>(Q::new(), |un| match self.pushed {
            Err(failure) => Err(Misbehavior::from_comm_failure(failure, epoch)),
            Ok(delivered) => {
                let sealed = un.unwrap_ref::<Sealed<V>, P, QMemberL>(delivered);
                if sealed.epoch != epoch {
                    return Err(Misbehavior::new(
                        self.proposer,
                        MisbehaviorKind::WrongEpoch { got: sealed.epoch },
                        epoch,
                    ));
                }
                if let Err(reason) = (self.validate)(&sealed.value) {
                    return Err(Misbehavior::new(
                        self.proposer,
                        MisbehaviorKind::Rejected { reason },
                        epoch,
                    ));
                }
                Ok(sealed.value.clone())
            }
        })
    }
}

/// Fan-in of acknowledgements to the proposer; an unreachable or
/// garbled acknowledger is recorded as its own fault.
struct AckSend<'a, V, P: LocationSet, Proposer, ProposerIdx> {
    receipts: &'a Faceted<Result<V, Misbehavior>, P>,
    epoch: u64,
    phantom: PhantomData<(Proposer, ProposerIdx)>,
}

impl<V, P, Proposer, ProposerIdx> chorus_core::FanInChoreography<Verdict>
    for AckSend<'_, V, P, Proposer, ProposerIdx>
where
    V: Portable + Clone,
    P: LocationSet,
    Proposer: ChoreographyLocation + Member<P, ProposerIdx>,
{
    type L = P;
    type QS = P;
    type RS = chorus_core::LocationSet!(Proposer);

    fn run<Qi: ChoreographyLocation, QSSubsetL, RSSubsetL, QiMemberL, QiMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> MultiplyLocated<Verdict, Self::RS>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Self::RS: Subset<Self::L, RSSubsetL>,
        Qi: Member<Self::L, QiMemberL>,
        Qi: Member<Self::QS, QiMemberQS>,
    {
        let epoch = self.epoch;
        let verdict_of = |receipt: &Result<V, Misbehavior>| match receipt {
            Ok(_) => Verdict::Ok,
            Err(m) => Verdict::Fault(m.clone()),
        };
        if Qi::NAME == Proposer::NAME {
            return op.locally::<_, Proposer, ProposerIdx>(Proposer::new(), |un| {
                verdict_of(
                    un.unwrap_faceted_ref::<Result<V, Misbehavior>, P, ProposerIdx>(self.receipts),
                )
            });
        }
        let ack: Located<Sealed<Verdict>, Qi> =
            op.locally::<_, Qi, QiMemberL>(Qi::new(), |un| Sealed {
                epoch,
                value: verdict_of(
                    un.unwrap_faceted_ref::<Result<V, Misbehavior>, P, QiMemberL>(self.receipts),
                ),
            });
        match op.try_multicast::<Qi, Sealed<Verdict>, Self::RS, QiMemberL, RSSubsetL>(
            Qi::new(),
            <Self::RS>::new(),
            &ack,
        ) {
            Ok(delivered) => op.locally::<_, Proposer, ProposerIdx>(Proposer::new(), |un| {
                let sealed =
                    un.unwrap_ref::<Sealed<Verdict>, Self::RS, chorus_core::Here>(&delivered);
                if sealed.epoch != epoch {
                    Verdict::Fault(Misbehavior::new(
                        Qi::NAME,
                        MisbehaviorKind::WrongEpoch { got: sealed.epoch },
                        epoch,
                    ))
                } else {
                    sealed.value.clone()
                }
            }),
            Err(failure) => op.locally::<_, Proposer, ProposerIdx>(Proposer::new(), move |_| {
                Verdict::Fault(Misbehavior::from_comm_failure(&failure, epoch))
            }),
        }
    }
}

/// Per-participant fold of the proposer's decision with the local
/// receipt.
struct Outcome<'a, V, P: LocationSet> {
    decided: &'a Result<MultiplyLocated<Sealed<Decision>, P>, CommFailure>,
    receipts: &'a Faceted<Result<V, Misbehavior>, P>,
    epoch: u64,
    proposer: &'static str,
}

impl<V, P> chorus_core::FanOutChoreography<Result<V, Misbehavior>> for Outcome<'_, V, P>
where
    V: Portable + Clone,
    P: LocationSet,
{
    type L = P;
    type QS = P;

    fn run<Q: ChoreographyLocation, QSSubsetL, QMemberL, QMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> Located<Result<V, Misbehavior>, Q>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>,
    {
        let epoch = self.epoch;
        op.locally::<_, Q, QMemberL>(Q::new(), |un| {
            // Local knowledge first: a participant whose own receipt
            // failed reports that failure — the decision arrived over
            // the same suspect link and a tampered `Abort` could
            // otherwise smuggle in a fabricated culprit.
            if let Err(m) =
                un.unwrap_faceted_ref::<Result<V, Misbehavior>, P, QMemberL>(self.receipts)
            {
                return Err(m.clone());
            }
            match self.decided {
                Err(failure) => Err(Misbehavior::from_comm_failure(failure, epoch)),
                Ok(delivered) => {
                    let sealed = un.unwrap_ref::<Sealed<Decision>, P, QMemberL>(delivered);
                    if sealed.epoch != epoch {
                        return Err(Misbehavior::new(
                            self.proposer,
                            MisbehaviorKind::WrongEpoch { got: sealed.epoch },
                            epoch,
                        ));
                    }
                    match &sealed.value {
                        Decision::Abort(m) => Err(m.clone()),
                        Decision::Commit => un
                            .unwrap_faceted_ref::<Result<V, Misbehavior>, P, QMemberL>(
                                self.receipts,
                            )
                            .clone(),
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_core::Runner;

    chorus_core::locations! { Leader, F1, F2 }
    type Cluster = chorus_core::LocationSet!(Leader, F1, F2);

    struct Round<'a, F> {
        proposal: &'a Located<String, Leader>,
        quorum: usize,
        validate: &'a F,
    }

    impl<F> Choreography<Faceted<Result<String, Misbehavior>, Cluster>> for Round<'_, F>
    where
        F: Fn(&String) -> Result<(), String>,
    {
        type L = Cluster;
        fn run(self, op: &impl ChoreoOp<Cluster>) -> Faceted<Result<String, Misbehavior>, Cluster> {
            ProposeAck::<'_, String, Leader, Cluster, F, _, _, _> {
                proposal: self.proposal,
                epoch: 6,
                quorum: self.quorum,
                validate: self.validate,
                phantom: PhantomData,
            }
            .run(op)
        }
    }

    fn run<F: Fn(&String) -> Result<(), String>>(
        quorum: usize,
        validate: F,
    ) -> Quire<Result<String, Misbehavior>, Cluster> {
        let runner: Runner<Cluster> = Runner::new();
        let proposal = runner.local("cfg-v2".to_string());
        let out = runner.run(Round { proposal: &proposal, quorum, validate: &validate });
        runner.unwrap_faceted(out)
    }

    #[test]
    fn unanimous_acks_commit_everywhere() {
        let facets = run(3, |_| Ok(()));
        for (name, outcome) in facets.iter() {
            assert_eq!(*outcome, Ok("cfg-v2".to_string()), "{name} must adopt the proposal");
        }
    }

    #[test]
    fn rejected_proposal_aborts_with_the_proposer_named() {
        let facets = run(2, |_: &String| Err("policy violation".to_string()));
        for (name, outcome) in facets.iter() {
            let m = outcome.as_ref().expect_err("a rejected proposal must abort");
            assert_eq!(m.culprit, "Leader", "{name} must blame the proposer");
            assert!(matches!(m.kind, MisbehaviorKind::Rejected { .. }));
            assert_eq!(m.epoch, 6);
        }
    }

    #[test]
    fn unreachable_quorum_aborts_with_no_quorum() {
        // Everyone validates, but the quorum is impossible to reach.
        let facets = run(4, |_| Ok(()));
        for (name, outcome) in facets.iter() {
            let m = outcome.as_ref().expect_err("an unreachable quorum must abort");
            assert_eq!(m.culprit, "Leader", "{name}: NoQuorum falls back to the proposer");
            assert!(matches!(m.kind, MisbehaviorKind::NoQuorum { acks: 3, quorum: 4 }));
        }
    }
}
