//! All-to-all broadcast-and-gather with per-message validation.
//!
//! Every participant sends its facet to every other participant; every
//! participant ends up with either the full [`Quire`] of everyone's
//! values or a [`Misbehavior`] naming the first sender whose message
//! was missing, garbled, replayed, or rejected by the validation hook.
//!
//! Structurally this is the paper's nested fan-out/fan-in idiom (§3.4):
//! an outer [`FanOutChoreography`] over receivers, an inner
//! [`FanInChoreography`] over senders, with the pairwise exchange going
//! through [`ChoreoOp::try_multicast`] so transport- and decode-level
//! trouble surfaces as data instead of a panic. Each message is wrapped
//! in an epoch-tagged [`Sealed`] envelope for anti-replay.
//!
//! [`FanOutChoreography`]: chorus_core::FanOutChoreography
//! [`FanInChoreography`]: chorus_core::FanInChoreography

use crate::misbehavior::{Misbehavior, MisbehaviorKind, Sealed, Verdict};
use chorus_core::{
    ChoreoOp, Choreography, ChoreographyLocation, Faceted, Located, LocationSet,
    LocationSetFoldable, Member, MultiplyLocated, Portable, Quire, Subset, SubsetCons, SubsetNil,
};
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// The broadcast-and-gather pattern.
///
/// `P` is the (census-polymorphic) participant set; `PRefl` and `PFold`
/// are inferred proof indices. The `validate` hook runs at every
/// *receiver* for every *remote* sender (a participant's own value is
/// taken on trust) and rejects a message by returning `Err(reason)`.
///
/// Returns, per participant, `Ok` of everyone's values or the
/// participant's first accusation in census order (`P`'s declaration
/// order).
pub struct BroadcastGather<'a, V, P: LocationSet, F, PRefl, PFold> {
    /// Each participant's value to broadcast (its facet).
    pub values: &'a Faceted<V, P>,
    /// The anti-replay epoch every message is tagged with.
    pub epoch: u64,
    /// Per-message validation hook: `(sender name, value)`.
    pub validate: &'a F,
    /// Inferred proof indices; pass `PhantomData`.
    pub phantom: PhantomData<(PRefl, PFold)>,
}

impl<V, P, F, PRefl, PFold> Choreography<Faceted<Result<Quire<V, P>, Misbehavior>, P>>
    for BroadcastGather<'_, V, P, F, PRefl, PFold>
where
    V: Portable + Clone,
    P: LocationSet + Subset<P, PRefl> + LocationSetFoldable<P, P, PFold>,
    F: Fn(&'static str, &V) -> Result<(), String>,
{
    type L = P;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Faceted<Result<Quire<V, P>, Misbehavior>, P> {
        op.fanout(
            P::new(),
            GatherAt::<'_, V, P, F, PFold> {
                values: self.values,
                epoch: self.epoch,
                validate: self.validate,
                phantom: PhantomData,
            },
        )
    }
}

/// Outer fan-out over receivers: each receiver collects one sealed
/// value from every sender, then folds its quire of per-sender results
/// into one verdict.
struct GatherAt<'a, V, P: LocationSet, F, PFold> {
    values: &'a Faceted<V, P>,
    epoch: u64,
    validate: &'a F,
    phantom: PhantomData<PFold>,
}

impl<V, P, F, PFold> chorus_core::FanOutChoreography<Result<Quire<V, P>, Misbehavior>>
    for GatherAt<'_, V, P, F, PFold>
where
    V: Portable + Clone,
    P: LocationSet + LocationSetFoldable<P, P, PFold>,
    F: Fn(&'static str, &V) -> Result<(), String>,
{
    type L = P;
    type QS = P;

    fn run<Qj: ChoreographyLocation, QSSubsetL, QjMemberL, QjMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> Located<Result<Quire<V, P>, Misbehavior>, Qj>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Qj: Member<Self::L, QjMemberL>,
        Qj: Member<Self::QS, QjMemberQS>,
    {
        let fan_in = SealedSend::<'_, V, P, F, Qj, QjMemberL> {
            values: self.values,
            epoch: self.epoch,
            validate: self.validate,
            phantom: PhantomData,
        };
        let gathered: MultiplyLocated<
            Quire<Result<V, Misbehavior>, P>,
            chorus_core::LocationSet!(Qj),
        > = op
            .fanin::<Result<V, Misbehavior>, P, chorus_core::LocationSet!(Qj), _, QSSubsetL, SubsetCons<QjMemberL, SubsetNil>, PFold>(
                P::new(),
                fan_in,
            );
        op.locally::<_, Qj, QjMemberL>(Qj::new(), |un| {
            let quire = un
                .unwrap_ref::<Quire<Result<V, Misbehavior>, P>, chorus_core::LocationSet!(Qj), chorus_core::Here>(
                    &gathered,
                );
            // First accusation in census order wins: deterministic
            // across replays of the same schedule.
            match quire.values().find_map(|result| result.as_ref().err()) {
                Some(m) => Err(m.clone()),
                None => Ok(quire.clone().map(|result| result.expect("no accusation is left"))),
            }
        })
    }
}

/// Inner fan-in over senders with a fixed receiver `Qj`: the self-pair
/// is a local copy; every remote pair seals, sends fallibly, and
/// validates on arrival.
struct SealedSend<'a, V, P: LocationSet, F, Qj, QjMemberL> {
    values: &'a Faceted<V, P>,
    epoch: u64,
    validate: &'a F,
    phantom: PhantomData<(Qj, QjMemberL)>,
}

impl<V, P, F, Qj, QjMemberL> chorus_core::FanInChoreography<Result<V, Misbehavior>>
    for SealedSend<'_, V, P, F, Qj, QjMemberL>
where
    V: Portable + Clone,
    P: LocationSet,
    F: Fn(&'static str, &V) -> Result<(), String>,
    Qj: ChoreographyLocation + Member<P, QjMemberL>,
{
    type L = P;
    type QS = P;
    type RS = chorus_core::LocationSet!(Qj);

    fn run<Qi: ChoreographyLocation, QSSubsetL, RSSubsetL, QiMemberL, QiMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> MultiplyLocated<Result<V, Misbehavior>, Self::RS>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Self::RS: Subset<Self::L, RSSubsetL>,
        Qi: Member<Self::L, QiMemberL>,
        Qi: Member<Self::QS, QiMemberQS>,
    {
        let epoch = self.epoch;
        if Qi::NAME == Qj::NAME {
            // Self-delivery: no wire, no validation — a participant
            // trusts its own value.
            return op.locally(Qj::new(), |un| {
                Ok(un.unwrap_faceted_ref::<V, P, QjMemberL>(self.values).clone())
            });
        }
        let sealed: Located<Sealed<V>, Qi> = op.locally::<_, Qi, QiMemberL>(Qi::new(), |un| {
            Sealed { epoch, value: un.unwrap_faceted_ref::<V, P, QiMemberL>(self.values).clone() }
        });
        // The endpoints diverge on this match (the sender sees its send
        // result, the receiver its receive result), which is safe
        // because both arms are purely local computation.
        match op.try_multicast::<Qi, Sealed<V>, Self::RS, QiMemberL, RSSubsetL>(
            Qi::new(),
            <Self::RS>::new(),
            &sealed,
        ) {
            Ok(delivered) => op.locally::<_, Qj, QjMemberL>(Qj::new(), |un| {
                let sealed = un.unwrap_ref::<Sealed<V>, Self::RS, chorus_core::Here>(&delivered);
                if sealed.epoch != epoch {
                    return Err(Misbehavior::new(
                        Qi::NAME,
                        MisbehaviorKind::WrongEpoch { got: sealed.epoch },
                        epoch,
                    ));
                }
                if let Err(reason) = (self.validate)(Qi::NAME, &sealed.value) {
                    return Err(Misbehavior::new(
                        Qi::NAME,
                        MisbehaviorKind::Rejected { reason },
                        epoch,
                    ));
                }
                Ok(sealed.value.clone())
            }),
            Err(failure) => op.locally::<_, Qj, QjMemberL>(Qj::new(), move |_| {
                Err(Misbehavior::from_comm_failure(&failure, epoch))
            }),
        }
    }
}

/// Folds a quire of [`Verdict`]s into one accusation (or none) by blame
/// count: the culprit accused by the most participants wins, ties
/// breaking toward the lexicographically smaller name. The accusation
/// returned is the winner's first in census order (`P`'s declaration
/// order), so every participant that resolves the same quire returns
/// the same [`Misbehavior`].
///
/// Counting (rather than "first fault wins") matters when the culprit
/// *also* accuses: a participant that equivocated or computed a
/// divergent result typically files a counter-accusation against some
/// honest party, and with at most one faulty participant the honest
/// majority always outvotes it — so every honest participant resolves
/// the *same* culprit, keeping post-verdict control flow aligned.
pub fn resolve_verdicts<P: LocationSet>(quire: &Quire<Verdict, P>) -> Result<(), Misbehavior> {
    let mut blame: BTreeMap<&str, (u32, &Misbehavior)> = BTreeMap::new();
    for (_, verdict) in quire.iter() {
        if let Some(m) = verdict.fault() {
            let entry = blame.entry(m.culprit.as_str()).or_insert((0, m));
            entry.0 += 1;
        }
    }
    match blame.iter().max_by(|(n1, (c1, _)), (n2, (c2, _))| c1.cmp(c2).then_with(|| n2.cmp(n1))) {
        None => Ok(()),
        Some((_, (_, m))) => Err((*m).clone()),
    }
}

/// Exchanges per-participant [`Verdict`]s all-to-all and resolves them
/// with [`resolve_verdicts`], so that (absent new faults during the
/// exchange itself) every honest participant agrees on the outcome —
/// the knowledge-of-choice step that lets robust protocols *branch* on
/// a detection without diverging.
///
/// A participant whose own exchange round fails keeps its local
/// accusation; everyone else adopts the blame-count winner.
pub fn exchange_verdicts<P, Op, PRefl, PFold>(
    op: &Op,
    verdicts: &Faceted<Verdict, P>,
    epoch: u64,
) -> Faceted<Result<(), Misbehavior>, P>
where
    Op: ChoreoOp<P>,
    P: LocationSet + Subset<P, PRefl> + LocationSetFoldable<P, P, PFold>,
{
    // A verdict is almost free-form data, so give the hook teeth: an
    // accusation naming someone outside the census can only be a
    // tampered frame, and rejecting it attributes the tampering to the
    // frame's sender instead of adopting a fabricated culprit.
    let accept = |_: &'static str, v: &Verdict| match v {
        Verdict::Fault(m) if !P::contains(&m.culprit) => {
            Err(format!("accuses {:?}, which is not in the census", m.culprit))
        }
        _ => Ok(()),
    };
    let gathered = BroadcastGather::<'_, Verdict, P, _, PRefl, PFold> {
        values: verdicts,
        epoch,
        validate: &accept,
        phantom: PhantomData,
    }
    .run(op);
    op.map_facets(P::new(), &gathered, |round| match round {
        Err(m) => Err(m.clone()),
        Ok(quire) => resolve_verdicts(quire),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_core::Runner;

    chorus_core::locations! { A, B, C }
    type Trio = chorus_core::LocationSet!(A, B, C);

    /// A quire of `Trio` from its values in census order.
    fn quire_of<V>(values: Vec<V>) -> Quire<V, Trio> {
        let mut values = values.into_iter();
        Quire::build(|_| values.next().expect("one value per member of Trio"))
    }

    struct Exchange<'a, F> {
        values: &'a Faceted<u64, Trio>,
        epoch: u64,
        validate: &'a F,
    }

    impl<F> Choreography<Faceted<Result<Quire<u64, Trio>, Misbehavior>, Trio>> for Exchange<'_, F>
    where
        F: Fn(&'static str, &u64) -> Result<(), String>,
    {
        type L = Trio;
        fn run(
            self,
            op: &impl ChoreoOp<Trio>,
        ) -> Faceted<Result<Quire<u64, Trio>, Misbehavior>, Trio> {
            BroadcastGather::<'_, u64, Trio, F, _, _> {
                values: self.values,
                epoch: self.epoch,
                validate: self.validate,
                phantom: PhantomData,
            }
            .run(op)
        }
    }

    #[test]
    fn honest_exchange_gives_everyone_the_full_quire() {
        let runner: Runner<Trio> = Runner::new();
        let faceted = runner.faceted(quire_of(vec![1, 2, 3]));
        let ok = |_: &'static str, _: &u64| Ok(());
        let out = runner.run(Exchange { values: &faceted, epoch: 1, validate: &ok });
        for (name, result) in runner.unwrap_faceted(out).iter() {
            let quire = result.as_ref().unwrap_or_else(|m| panic!("{name} saw a fault: {m}"));
            assert_eq!(quire.get_by_name("A"), Some(&1));
            assert_eq!(quire.get_by_name("B"), Some(&2));
            assert_eq!(quire.get_by_name("C"), Some(&3));
        }
    }

    #[test]
    fn validation_rejects_remote_senders_but_not_self() {
        let runner: Runner<Trio> = Runner::new();
        let faceted = runner.faceted(quire_of(vec![1, 2, 3]));
        // Reject B's value (2) wherever it is *received*.
        let no_twos = |_: &'static str, v: &u64| {
            if *v == 2 {
                Err("two is forbidden".into())
            } else {
                Ok(())
            }
        };
        let out = runner.run(Exchange { values: &faceted, epoch: 1, validate: &no_twos });
        let facets = runner.unwrap_faceted(out);
        for m in [facets.get(A), facets.get(C)] {
            let m = m.as_ref().expect_err("receivers of 2 must accuse B");
            assert_eq!(m.culprit, "B");
            assert!(matches!(m.kind, MisbehaviorKind::Rejected { .. }));
            assert_eq!(m.epoch, 1);
        }
        // B trusts its own value, and everyone else's passes the hook.
        assert!(facets.get(B).is_ok(), "self-delivery skips validation");
    }

    fn fault(culprit: &str) -> Verdict {
        Verdict::Fault(Misbehavior::new(culprit, MisbehaviorKind::Inconsistent, 1))
    }

    #[test]
    fn resolve_is_ok_when_nobody_accuses() {
        let quire = quire_of(vec![Verdict::Ok, Verdict::Ok, Verdict::Ok]);
        assert!(resolve_verdicts(&quire).is_ok());
    }

    #[test]
    fn resolve_lets_the_majority_outvote_a_counter_accusation() {
        // C (the actual culprit) accuses A; A and B accuse C.
        let quire = quire_of(vec![fault("C"), fault("C"), fault("A")]);
        let m = resolve_verdicts(&quire).expect_err("two accusations must resolve");
        assert_eq!(m.culprit, "C");
    }

    #[test]
    fn resolve_breaks_ties_toward_the_smaller_name() {
        let quire = quire_of(vec![fault("C"), fault("B"), Verdict::Ok]);
        let m = resolve_verdicts(&quire).expect_err("accusations present");
        assert_eq!(m.culprit, "B", "1–1 tie breaks lexicographically");
    }
}
