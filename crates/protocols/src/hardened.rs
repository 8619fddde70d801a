//! Byzantine-hardened variants of the case studies, built on
//! `chorus_patterns`.
//!
//! Each hardened protocol follows the *preflight → inner → postflight*
//! shape the patterns crate prescribes:
//!
//! 1. **Preflight** — a [`preflight`] heartbeat round probes every link
//!    with a fixed value (the epoch) and converges, via the verdict
//!    exchange, on either "all clear" or a culprit. Always-on link
//!    faults — silence, corruption, an equivocating peer — are caught
//!    *here*, deterministically, before the inner protocol risks a
//!    panic on a bad link.
//! 2. **Inner** — the unmodified paper choreography, entered only when
//!    [`agreed_culprit`] says the links are clean; the
//!    [`agree`](chorus_core::ChoreoOp::agree) collapse is what lets
//!    every participant take the same branch.
//! 3. **Postflight** — a robust check on the inner result itself:
//!    commit-reveal consistency ([`VerifyConsistent`]) for GMW, the
//!    commitment openings re-run through [`BroadcastGather`] plus a
//!    verdict exchange for the lottery.
//!
//! The result type changes from the plain variants' bare values (or bare
//! booleans) to `Result<_, Misbehavior>`: a run either completes with a
//! verified-consistent result or names the offending role — it never
//! hangs and never silently adopts a wrong value.

use crate::lottery::{additive_share_quire, CollectShares};
use crate::roles::Analyst;
use chorus_core::{
    ChoreoOp, Choreography, Faceted, Located, LocationSet, LocationSetFoldable, Member, Quire,
    Subset,
};
use chorus_mpc::circuit::Circuit;
use chorus_mpc::commit::Commitment;
use chorus_mpc::field::FLOTTERY;
use chorus_patterns::{
    agreed_culprit, exchange_verdicts, preflight, resolve_verdicts, BroadcastGather, Misbehavior,
    MisbehaviorKind, ProposeAck, Verdict, VerifyConsistent,
};
use rand::{thread_rng, Rng};
use std::marker::PhantomData;

use crate::gmw::Gmw;

/// Turns a preflight resolution facet into the misbehavior to report,
/// substituting the agreed culprit where the local facet has no
/// accusation of its own (possible only outside the supported fault
/// model, but a named abort beats an `unreachable!`).
fn abort_with(culprit: &str, resolution: &Result<(), Misbehavior>, epoch: u64) -> Misbehavior {
    match resolution {
        Err(m) => m.clone(),
        Ok(()) => Misbehavior::new(
            culprit,
            MisbehaviorKind::Rejected { reason: "aborted by preflight agreement".to_string() },
            epoch,
        ),
    }
}

/// GMW with link probing before and commit-reveal verification after:
/// the inner [`Gmw`] is unchanged, but a faulted link or an equivocating
/// party yields `Err(Misbehavior)` at every endpoint instead of a panic
/// mid-protocol or a silently divergent "revealed" bit.
pub struct HardenedGmw<'a, P: LocationSet, PRefl, PFold> {
    /// The publicly known circuit to evaluate.
    pub circuit: &'a Circuit,
    /// Each party's private input bits (facet = that party's inputs).
    pub inputs: &'a Faceted<Vec<bool>, P>,
    /// Anti-replay epoch; the postflight round uses `epoch + 1`.
    pub epoch: u64,
    /// Inferred proof indices; pass `PhantomData`.
    pub phantom: PhantomData<(PRefl, PFold)>,
}

impl<P, PRefl, PFold> Choreography<Faceted<Result<bool, Misbehavior>, P>>
    for HardenedGmw<'_, P, PRefl, PFold>
where
    P: LocationSet + Subset<P, PRefl> + LocationSetFoldable<P, P, PFold>,
{
    type L = P;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Faceted<Result<bool, Misbehavior>, P> {
        let epoch = self.epoch;
        let resolution = preflight::<P, _, PRefl, PFold>(op, epoch);
        if let Some(culprit) = agreed_culprit::<P, _, PRefl, PFold>(op, &resolution) {
            return op
                .map_facets(P::new(), &resolution, move |r| Err(abort_with(&culprit, r, epoch)));
        }

        // Links are clean: run the unmodified inner protocol. Its
        // revealed bit is a *bare* value — per endpoint under EPP — so
        // re-facet it and let commit-reveal prove everyone got the same
        // answer (an equivocator can show different parties different
        // shares without tripping any transport-level check).
        let revealed = Gmw::<P, PRefl, PFold> {
            circuit: self.circuit,
            inputs: self.inputs,
            phantom: PhantomData,
        }
        .run(op);
        let refaceted: Faceted<bool, P> = op.parallel(P::new(), move || revealed);
        VerifyConsistent::<'_, bool, P, PRefl, PFold> {
            values: &refaceted,
            epoch: epoch + 1,
            phantom: PhantomData,
        }
        .run(op)
    }
}

/// The DPrio lottery with a hardened server conclave: the heartbeat
/// probes the server links, the commit/open rounds go through
/// [`BroadcastGather`] (attributing silence, corruption, replay, and
/// equivocation to the offending server), and a verdict exchange makes
/// the servers — and then the analyst — converge on any culprit.
///
/// The analyst's result is `Err(Misbehavior)` naming the offending
/// server instead of the plain variant's anonymous
/// `LotteryError::CommitmentFailed`.
pub struct HardenedLottery<
    'a,
    Clients: LocationSet,
    Servers: LocationSet,
    Census: LocationSet,
    CSub,
    SSub,
    AIdx,
    CFold,
    SFold,
    SRefl,
    SSelfFold,
> {
    /// Each client's secret (its private facet).
    pub secrets: &'a Faceted<FLOTTERY, Clients>,
    /// Upper bound for the servers' random draws.
    pub tau: u64,
    /// Anti-replay epoch for the conclave's robust rounds.
    pub epoch: u64,
    /// Fault injection: servers whose facet is `true` open a value
    /// different from their commitment (they cheat).
    pub cheaters: &'a Faceted<bool, Servers>,
    /// Inferred proof indices; pass `PhantomData`.
    pub phantom: PhantomData<(Census, CSub, SSub, AIdx, CFold, SFold, SRefl, SSelfFold)>,
}

impl<Clients, Servers, Census, CSub, SSub, AIdx, CFold, SFold, SRefl, SSelfFold>
    Choreography<Located<Result<u64, Misbehavior>, Analyst>>
    for HardenedLottery<
        '_,
        Clients,
        Servers,
        Census,
        CSub,
        SSub,
        AIdx,
        CFold,
        SFold,
        SRefl,
        SSelfFold,
    >
where
    Clients: LocationSet + Subset<Census, CSub> + LocationSetFoldable<Census, Clients, CFold>,
    Servers: LocationSet
        + Subset<Census, SSub>
        + Subset<Servers, SRefl>
        + LocationSetFoldable<Census, Servers, SFold>
        + LocationSetFoldable<Servers, Servers, SSelfFold>,
    Census: LocationSet,
    Analyst: Member<Census, AIdx>,
{
    type L = Census;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<Result<u64, Misbehavior>, Analyst> {
        assert!(Clients::LENGTH > 0, "the lottery needs at least one client");
        assert!(Servers::LENGTH > 0, "the lottery needs at least one server");
        assert!(self.tau >= Clients::LENGTH as u64, "tau must be at least the number of clients");

        // Share distribution is identical to the plain lottery: clients
        // cut additive shares, servers collect them.
        let client_shares: Faceted<Quire<FLOTTERY, Servers>, Clients> =
            op.map_facets(Clients::new(), self.secrets, |secret| {
                additive_share_quire::<Servers>(*secret)
            });
        let server_shares: Faceted<Quire<FLOTTERY, Clients>, Servers> = op.fanout(
            Servers::new(),
            CollectShares::<'_, Clients, Servers, Census, CSub, CFold> {
                client_shares: &client_shares,
                phantom: PhantomData,
            },
        );

        // The hardened conclave: every server ends up with the winning
        // client's share plus a verdict about the run.
        let outcome: Faceted<(FLOTTERY, Verdict), Servers> = op
            .conclave(HardenedConclave::<'_, Clients, Servers, SRefl, SSelfFold> {
                server_shares: &server_shares,
                cheaters: self.cheaters,
                tau: self.tau,
                epoch: self.epoch,
                phantom: PhantomData,
            })
            .flatten();

        let all_shares =
            op.gather(Servers::new(), <chorus_core::LocationSet!(Analyst)>::new(), &outcome);

        // The analyst resolves the servers' verdicts exactly like the
        // servers did among themselves — blame count, ties toward the
        // smaller name — so its culprit matches theirs.
        op.locally(Analyst, |un| {
            let quire = un.unwrap_ref::<Quire<(FLOTTERY, Verdict), Servers>, chorus_core::LocationSet!(Analyst), chorus_core::Here>(
                &all_shares,
            );
            resolve_verdicts(&quire.clone().map(|(_, verdict)| verdict))?;
            let sum: FLOTTERY = quire.values().map(|(share, _)| *share).sum();
            Ok(sum.value())
        })
    }
}

/// The servers' hardened conclave: heartbeat, then commit and open over
/// robust broadcast rounds, then a verdict exchange.
struct HardenedConclave<'a, Clients: LocationSet, Servers: LocationSet, SRefl, SSelfFold> {
    server_shares: &'a Faceted<Quire<FLOTTERY, Clients>, Servers>,
    cheaters: &'a Faceted<bool, Servers>,
    tau: u64,
    epoch: u64,
    phantom: PhantomData<(Clients, SRefl, SSelfFold)>,
}

impl<Clients, Servers, SRefl, SSelfFold> Choreography<Faceted<(FLOTTERY, Verdict), Servers>>
    for HardenedConclave<'_, Clients, Servers, SRefl, SSelfFold>
where
    Clients: LocationSet,
    Servers:
        LocationSet + Subset<Servers, SRefl> + LocationSetFoldable<Servers, Servers, SSelfFold>,
{
    type L = Servers;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Faceted<(FLOTTERY, Verdict), Servers> {
        let servers = Servers::new();
        let tau = self.tau;
        let epoch = self.epoch;

        // Preflight: probe the server links before any value-dependent
        // message. An always-on fault (silence, corruption, an
        // equivocating server) is caught and attributed here.
        let resolution = preflight::<Servers, _, SRefl, SSelfFold>(op, epoch);
        if let Some(culprit) = agreed_culprit::<Servers, _, SRefl, SSelfFold>(op, &resolution) {
            return op.map_facets(servers, &resolution, move |r| {
                (FLOTTERY::new(0), Verdict::Fault(abort_with(&culprit, r, epoch)))
            });
        }

        // Commit-then-open, as in the plain lottery, but both rounds go
        // through `BroadcastGather`: a server that garbles, replays, or
        // withholds a message is named, and program order still
        // guarantees nobody's ρ travels before all commitments are in.
        let rho: Faceted<u64, Servers> =
            op.parallel(servers, move || thread_rng().gen_range(1..=tau));
        let psi: Faceted<u64, Servers> = op.parallel(servers, || thread_rng().gen::<u64>());
        let alpha: Faceted<Commitment, Servers> =
            op.map_facets2(servers, &rho, &psi, |r, p| Commitment::commit(*r, *p));

        let accept_commitment = |_: &'static str, _: &Commitment| Ok(());
        let commit_round = BroadcastGather::<'_, Commitment, Servers, _, SRefl, SSelfFold> {
            values: &alpha,
            epoch,
            validate: &accept_commitment,
            phantom: PhantomData,
        }
        .run(op);

        // A cheater opens ρ+1 — a value it did not commit to.
        let opening: Faceted<(u64, u64), Servers> = {
            let rho_opened: Faceted<u64, Servers> =
                op.map_facets2(servers, &rho, self.cheaters, |r, cheat| r + u64::from(*cheat));
            op.map_facets2(servers, &rho_opened, &psi, |r, p| (*r, *p))
        };
        let accept_opening = move |_: &'static str, o: &(u64, u64)| {
            if (1..=tau + 1).contains(&o.0) {
                Ok(())
            } else {
                Err(format!("opened ρ = {} is outside [1, τ]", o.0))
            }
        };
        let open_round = BroadcastGather::<'_, (u64, u64), Servers, _, SRefl, SSelfFold> {
            values: &opening,
            epoch,
            validate: &accept_opening,
            phantom: PhantomData,
        }
        .run(op);

        // Every server verifies every commitment against its opening; a
        // mismatch accuses the opener by name (the plain lottery only
        // records an anonymous boolean here).
        let verdicts: Faceted<Verdict, Servers> =
            op.map_facets2(servers, &commit_round, &open_round, move |commits, opens| {
                let (commits, opens) = match (commits, opens) {
                    (Err(m), _) | (_, Err(m)) => return Verdict::Fault(m.clone()),
                    (Ok(c), Ok(o)) => (c, o),
                };
                for (name, commitment) in commits.iter() {
                    let (r, p) = opens.get_by_name(name).expect("rounds share the census");
                    if !commitment.verify(*r, *p) {
                        return Verdict::Fault(Misbehavior::new(
                            name,
                            MisbehaviorKind::BadCommitment,
                            epoch,
                        ));
                    }
                }
                Verdict::Ok
            });
        let ruled = exchange_verdicts::<Servers, _, SRefl, SSelfFold>(op, &verdicts, epoch);

        // Winner selection from the opened ρs, or the agreed culprit.
        let winner: Faceted<Result<String, Misbehavior>, Servers> =
            op.map_facets2(servers, &ruled, &open_round, |ruling, opens| match (ruling, opens) {
                (Err(m), _) | (_, Err(m)) => Err(m.clone()),
                (Ok(()), Ok(opens)) => {
                    let total: u64 = opens.values().map(|(r, _)| *r).sum();
                    let omega = (total % Clients::LENGTH as u64) as usize;
                    Ok(Clients::names()[omega].to_string())
                }
            });
        op.map_facets2(servers, &winner, self.server_shares, move |winner, quire| match winner {
            Err(m) => (FLOTTERY::new(0), Verdict::Fault(m.clone())),
            Ok(name) => {
                (*quire.get_by_name(name).expect("shares are keyed by the clients"), Verdict::Ok)
            }
        })
    }
}

/// A deterministic configuration-change round: the proposer pushes a
/// version bump through [`ProposeAck`]; acceptors validate that the new
/// version is the successor of the current one, and the proposer needs
/// `quorum` acknowledgements (its own included) to commit.
///
/// Deliberately free of randomness — same seed, same schedule, same
/// verdict — which makes it the replay-determinism canary in the
/// byzantine chaos matrix.
pub struct ConfigChange<
    'a,
    Proposer: chorus_core::ChoreographyLocation,
    P,
    ProposerIdx,
    PRefl,
    PFold,
> {
    /// The proposed new version, held by the proposer.
    pub new_version: &'a Located<u64, Proposer>,
    /// The version every participant currently agrees on.
    pub current_version: u64,
    /// Anti-replay epoch.
    pub epoch: u64,
    /// Acknowledgements required to commit (the proposer's own counts).
    pub quorum: usize,
    /// Inferred proof indices; pass `PhantomData`.
    pub phantom: PhantomData<(P, ProposerIdx, PRefl, PFold)>,
}

impl<Proposer, P, ProposerIdx, PRefl, PFold> Choreography<Faceted<Result<u64, Misbehavior>, P>>
    for ConfigChange<'_, Proposer, P, ProposerIdx, PRefl, PFold>
where
    Proposer: chorus_core::ChoreographyLocation + Member<P, ProposerIdx>,
    P: LocationSet + Subset<P, PRefl> + LocationSetFoldable<P, P, PFold>,
{
    type L = P;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Faceted<Result<u64, Misbehavior>, P> {
        let current = self.current_version;
        let validate = move |v: &u64| {
            if *v == current + 1 {
                Ok(())
            } else {
                Err(format!("proposed version {v} is not the successor of {current}"))
            }
        };
        ProposeAck::<'_, u64, Proposer, P, _, ProposerIdx, PRefl, PFold> {
            proposal: self.new_version,
            epoch: self.epoch,
            quorum: self.quorum,
            validate: &validate,
            phantom: PhantomData,
        }
        .run(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::{C1, C2, C3, P1, P2, P3, S1, S2, S3};
    use chorus_core::Runner;

    type Parties = chorus_core::LocationSet!(P1, P2, P3);

    #[test]
    fn hardened_gmw_agrees_with_the_plain_evaluation() {
        let circuit =
            Circuit::input("P1", 0).and(Circuit::input("P2", 0)).xor(Circuit::input("P3", 0));
        for bits in 0..8u8 {
            let inputs: Quire<Vec<bool>, Parties> =
                Quire::build(|name| vec![bits & (1 << Parties::position(name).unwrap()) != 0]);
            let expected =
                circuit.eval_plain(&inputs.iter().map(|(k, v)| (k, v.clone())).collect());
            let runner: Runner<Parties> = Runner::new();
            let faceted = runner.faceted(inputs);
            let out = runner.run(HardenedGmw::<Parties, _, _> {
                circuit: &circuit,
                inputs: &faceted,
                epoch: 1,
                phantom: PhantomData,
            });
            for (name, result) in runner.unwrap_faceted(out).iter() {
                assert_eq!(*result, Ok(expected), "{name} under input bits {bits:03b}");
            }
        }
    }

    type Clients = chorus_core::LocationSet!(C1, C2, C3);
    type Servers = chorus_core::LocationSet!(S1, S2, S3);
    type Census = chorus_core::LocationSet!(Analyst, C1, C2, C3, S1, S2, S3);

    fn run_hardened_lottery(cheater: Option<&str>) -> Result<u64, Misbehavior> {
        let runner: Runner<Census> = Runner::new();
        let mut secrets = [111, 222, 333].into_iter();
        let secrets: Faceted<FLOTTERY, Clients> =
            runner.faceted(Quire::build(|_| FLOTTERY::new(secrets.next().expect("three clients"))));
        let cheaters: Faceted<bool, Servers> =
            runner.faceted(Quire::build(|name| Some(name) == cheater));
        let out = runner.run(HardenedLottery::<Clients, Servers, Census, _, _, _, _, _, _, _> {
            secrets: &secrets,
            tau: 300,
            epoch: 7,
            cheaters: &cheaters,
            phantom: PhantomData,
        });
        runner.unwrap_located(out)
    }

    #[test]
    fn honest_hardened_lottery_pays_out_a_secret() {
        for _ in 0..10 {
            let got = run_hardened_lottery(None).expect("honest run");
            assert!([111, 222, 333].contains(&got), "analyst got {got}");
        }
    }

    #[test]
    fn a_cheating_server_is_named() {
        let m = run_hardened_lottery(Some("S2")).expect_err("cheater must abort the lottery");
        assert_eq!(m.culprit, "S2", "the verdict names the cheating server");
        assert_eq!(m.kind, MisbehaviorKind::BadCommitment);
        assert_eq!(m.epoch, 7);
    }

    #[test]
    fn config_change_commits_with_a_full_quorum() {
        let runner: Runner<Parties> = Runner::new();
        let out = runner.run(ConfigChange::<P1, Parties, _, _, _> {
            new_version: &runner.local(4),
            current_version: 3,
            epoch: 11,
            quorum: 3,
            phantom: PhantomData,
        });
        for (name, result) in runner.unwrap_faceted(out).iter() {
            assert_eq!(*result, Ok(4), "{name} must adopt the new version");
        }
    }

    #[test]
    fn config_change_rejects_a_version_skip() {
        let runner: Runner<Parties> = Runner::new();
        let out = runner.run(ConfigChange::<P1, Parties, _, _, _> {
            new_version: &runner.local(9),
            current_version: 3,
            epoch: 11,
            quorum: 3,
            phantom: PhantomData,
        });
        for result in runner.unwrap_faceted(out).values() {
            let m = result.as_ref().expect_err("a skip must be rejected");
            assert_eq!(m.culprit, "P1", "the proposer is to blame");
            assert!(matches!(m.kind, MisbehaviorKind::Rejected { .. }));
        }
    }
}
