//! Commit-reveal consistent-result verification.
//!
//! After a protocol computes a value that *should* be identical at
//! every participant (a revealed MPC output, a replicated decision),
//! this pattern has everyone prove it: each participant commits to its
//! wire-encoded value with a salted hash
//! ([`Commitment::commit_bytes`]), the commitments circulate first, the
//! openings second — so nobody can choose its "result" after seeing the
//! others' — and everyone judges every opening. A participant whose
//! opening contradicts its commitment is a [`BadCommitment`]; one whose
//! opened value differs from the judge's own is [`Inconsistent`]. A
//! final verdict exchange makes every honest participant agree on the
//! outcome.
//!
//! [`Commitment::commit_bytes`]: chorus_mpc::commit::Commitment::commit_bytes
//! [`BadCommitment`]: crate::MisbehaviorKind::BadCommitment
//! [`Inconsistent`]: crate::MisbehaviorKind::Inconsistent

use crate::broadcast_gather::{exchange_verdicts, BroadcastGather};
use crate::misbehavior::{Misbehavior, MisbehaviorKind, Opening, Verdict};
use chorus_core::{
    ChoreoOp, Choreography, ChoreographyLocation, Faceted, Located, LocationSet,
    LocationSetFoldable, Member, Portable, Quire, Subset,
};
use chorus_mpc::commit::Commitment;
use rand::{thread_rng, Rng};
use std::marker::PhantomData;

/// The consistent-result verification pattern.
///
/// `values` holds each participant's claimed result. Returns, per
/// participant, `Ok` of its own value if every participant provably
/// holds the same one, otherwise the agreed accusation.
pub struct VerifyConsistent<'a, V, P: LocationSet, PRefl, PFold> {
    /// Each participant's claimed result (its facet).
    pub values: &'a Faceted<V, P>,
    /// The anti-replay epoch for all three rounds.
    pub epoch: u64,
    /// Inferred proof indices; pass `PhantomData`.
    pub phantom: PhantomData<(PRefl, PFold)>,
}

impl<V, P, PRefl, PFold> Choreography<Faceted<Result<V, Misbehavior>, P>>
    for VerifyConsistent<'_, V, P, PRefl, PFold>
where
    V: Portable + Clone + PartialEq,
    P: LocationSet + Subset<P, PRefl> + LocationSetFoldable<P, P, PFold>,
{
    type L = P;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Faceted<Result<V, Misbehavior>, P> {
        let epoch = self.epoch;

        // Each participant encodes its value and salts a commitment.
        let openings: Faceted<Opening, P> = op.map_facets(P::new(), self.values, |v| Opening {
            bytes: chorus_wire::to_bytes(v).expect("wire encoding is total"),
            salt: thread_rng().gen(),
        });
        let commitments: Faceted<Commitment, P> =
            op.map_facets(P::new(), &openings, |o| Commitment::commit_bytes(&o.bytes, o.salt));

        // Round 1: commitments circulate. Round 2: openings. Program
        // order at each endpoint guarantees its openings are not sent
        // until it has finished gathering commitments.
        let accept_commit = |_: &'static str, _: &Commitment| Ok(());
        let commit_round = BroadcastGather::<'_, Commitment, P, _, PRefl, PFold> {
            values: &commitments,
            epoch,
            validate: &accept_commit,
            phantom: PhantomData,
        }
        .run(op);
        let accept_open = |_: &'static str, _: &Opening| Ok(());
        let open_round = BroadcastGather::<'_, Opening, P, _, PRefl, PFold> {
            values: &openings,
            epoch,
            validate: &accept_open,
            phantom: PhantomData,
        }
        .run(op);

        // Every participant judges every sender's opening against the
        // commitment and against its own value.
        let verdicts: Faceted<Verdict, P> = op.fanout(
            P::new(),
            Judge::<'_, V, P> {
                values: self.values,
                commit_round: &commit_round,
                open_round: &open_round,
                epoch,
            },
        );

        // Round 3: verdicts circulate so honest participants converge.
        let resolved = exchange_verdicts::<P, _, PRefl, PFold>(op, &verdicts, epoch);
        op.map_facets2(P::new(), &resolved, self.values, |outcome, own| {
            outcome.clone().map(|()| own.clone())
        })
    }
}

/// Per-participant judgement of one commit-reveal exchange.
struct Judge<'a, V, P: LocationSet> {
    values: &'a Faceted<V, P>,
    commit_round: &'a Faceted<Result<Quire<Commitment, P>, Misbehavior>, P>,
    open_round: &'a Faceted<Result<Quire<Opening, P>, Misbehavior>, P>,
    epoch: u64,
}

impl<V, P> chorus_core::FanOutChoreography<Verdict> for Judge<'_, V, P>
where
    V: Portable + Clone + PartialEq,
    P: LocationSet,
{
    type L = P;
    type QS = P;

    fn run<Q: ChoreographyLocation, QSSubsetL, QMemberL, QMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> Located<Verdict, Q>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>,
    {
        let epoch = self.epoch;
        op.locally::<_, Q, QMemberL>(Q::new(), |un| {
            let commits = match un
                .unwrap_faceted_ref::<Result<Quire<Commitment, P>, Misbehavior>, P, QMemberL>(
                    self.commit_round,
                ) {
                Ok(q) => q,
                Err(m) => return Verdict::Fault(m.clone()),
            };
            let opens = match un
                .unwrap_faceted_ref::<Result<Quire<Opening, P>, Misbehavior>, P, QMemberL>(
                    self.open_round,
                ) {
                Ok(q) => q,
                Err(m) => return Verdict::Fault(m.clone()),
            };
            let own = un.unwrap_faceted_ref::<V, P, QMemberL>(self.values);
            for (name, opening) in opens.iter() {
                let commitment = commits.get_by_name(name).expect("rounds share the census");
                if !commitment.verify_bytes(&opening.bytes, opening.salt) {
                    return Verdict::Fault(Misbehavior::new(
                        name,
                        MisbehaviorKind::BadCommitment,
                        epoch,
                    ));
                }
                match chorus_wire::from_bytes::<V>(&opening.bytes) {
                    Err(e) => {
                        return Verdict::Fault(Misbehavior::new(
                            name,
                            MisbehaviorKind::Garbled { reason: e.to_string() },
                            epoch,
                        ))
                    }
                    Ok(theirs) => {
                        if theirs != *own {
                            return Verdict::Fault(Misbehavior::new(
                                name,
                                MisbehaviorKind::Inconsistent,
                                epoch,
                            ));
                        }
                    }
                }
            }
            Verdict::Ok
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_core::Runner;

    chorus_core::locations! { A, B, C }
    type Trio = chorus_core::LocationSet!(A, B, C);

    struct Verify<'a> {
        values: &'a Faceted<u64, Trio>,
    }

    impl Choreography<Faceted<Result<u64, Misbehavior>, Trio>> for Verify<'_> {
        type L = Trio;
        fn run(self, op: &impl ChoreoOp<Trio>) -> Faceted<Result<u64, Misbehavior>, Trio> {
            VerifyConsistent::<'_, u64, Trio, _, _> {
                values: self.values,
                epoch: 4,
                phantom: PhantomData,
            }
            .run(op)
        }
    }

    fn run(values: [u64; 3]) -> Quire<Result<u64, Misbehavior>, Trio> {
        let runner: Runner<Trio> = Runner::new();
        let mut values = values.into_iter();
        let faceted = runner.faceted(Quire::build(|_| values.next().expect("one per member")));
        let out = runner.run(Verify { values: &faceted });
        runner.unwrap_faceted(out)
    }

    #[test]
    fn consistent_results_verify_everywhere() {
        let facets = run([99, 99, 99]);
        for (name, outcome) in facets.iter() {
            assert_eq!(*outcome, Ok(99), "{name} must keep its verified value");
        }
    }

    #[test]
    fn a_divergent_participant_is_named_by_everyone() {
        // C computed something else; A and B accuse C, C's counter-
        // accusation (of A) is outvoted, so all three — including C —
        // resolve culprit C.
        let facets = run([7, 7, 8]);
        for (name, outcome) in facets.iter() {
            let m = outcome.as_ref().expect_err("divergence must be detected");
            assert_eq!(m.culprit, "C", "{name} must converge on the actual culprit");
            assert!(matches!(m.kind, MisbehaviorKind::Inconsistent));
            assert_eq!(m.epoch, 4);
        }
    }
}
