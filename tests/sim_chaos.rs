//! The chaos matrix: the paper's case-study choreographies executed
//! end-to-end over [`SimTransport`] under a matrix of hostile seeded
//! schedules — latency jitter, drops (with retransmission),
//! duplication, and partitions — asserting that every run completes
//! with the *same* result a quiet network produces. This is the
//! portability claim (§2.1) under test: deadlock-freedom and
//! knowledge-of-choice must survive adverse networks, not just
//! well-behaved ones.
//!
//! The **byzantine axis** extends the matrix with adversarial fault
//! modes — selective silence, always-on frame corruption, an
//! equivocating participant, and (for the lottery) a commitment
//! cheater — run against the *hardened* protocols. There the assertion
//! flips: every endpoint must resolve (no hangs), and either complete
//! with a verified-consistent result or return a `Misbehavior` naming
//! exactly the injected culprit — never a silently wrong value.
//!
//! Seeds are taken from `CHORUS_SIM_SEED_BASE` (decimal, default
//! `49374`), so the nightly CI job can sweep fresh schedules while PR
//! runs stay reproducible. When a seed fails, each link's recent
//! delivery schedule (its last 1024 frames, plus a digest line for any
//! earlier ones) is written to `target/sim-traces/` and the panic names
//! the seed: re-run locally with
//! `CHORUS_SIM_SEED_BASE=<base> cargo test --test sim_chaos` to replay
//! bit-for-bit.

use chorus_repro::core::{panic_message, ChoreographyLocation, LocationSet};
use chorus_repro::mpc::field::FLOTTERY;
use chorus_repro::mpc::Circuit;
use chorus_repro::patterns::Misbehavior;
use chorus_repro::protocols::gmw::Gmw;
use chorus_repro::protocols::hardened::{ConfigChange, HardenedGmw, HardenedLottery};
use chorus_repro::protocols::kvs_backup::{KvsCensus, ReplicatedKvs, Servers};
use chorus_repro::protocols::lottery::Lottery;
use chorus_repro::protocols::roles::{
    Analyst, Backup1, Backup2, Client, Primary, C1, C2, C3, P1, P2, P3, S1, S2, S3,
};
use chorus_repro::protocols::store::{Request, Response, SharedStore};
use chorus_repro::transport::{
    Cohort, Corruption, Equivocator, FaultPlan, MakeTransport, Silence, SimNet, SimTransport,
};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Distinct seeds per protocol; the three matrices are disjoint, so one
/// full run covers `3 × PER_PROTOCOL ≥ 100` distinct fault plans.
const PER_PROTOCOL: u64 = 48;

fn seed_base() -> u64 {
    std::env::var("CHORUS_SIM_SEED_BASE").ok().and_then(|s| s.parse().ok()).unwrap_or(49374)
}

/// Runs `body` and, if it panics, writes each link's recent schedule
/// (its last 1024 frames and a digest of the rest) to
/// `target/sim-traces/<protocol>-seed-<seed>.log` before re-panicking
/// with the seed in the message — everything CI needs for a local
/// replay.
fn with_schedule_dump<L: LocationSet>(
    protocol: &str,
    seed: u64,
    net: &SimNet<L>,
    body: impl FnOnce(),
) {
    if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(body)) {
        let message = panic_message(&*payload);
        let dir = std::path::Path::new("target").join("sim-traces");
        std::fs::create_dir_all(&dir).ok();
        let path = dir.join(format!("{protocol}-seed-{seed}.log"));
        std::fs::write(&path, net.schedule_dump()).ok();
        // The per-protocol matrices are offset from the base, so name
        // the exact env value that replays this seed locally.
        let base = seed - seed_offset(protocol);
        panic!(
            "{protocol} failed under fault-plan seed {seed}: {message}\n\
             schedule dumped to {} — replay with \
             CHORUS_SIM_SEED_BASE={base} cargo test --test sim_chaos",
            path.display()
        );
    }
}

/// Where each protocol's matrix starts relative to the seed base; keep
/// in sync with the `*_survives_the_seed_matrix` tests so the replay
/// instructions in failure messages stay accurate.
fn seed_offset(protocol: &str) -> u64 {
    match protocol {
        "gmw" => 1_000,
        "lottery" => 2_000,
        "hardened_gmw" => 3_000,
        "hardened_lottery" => 4_000,
        "config_change" => 5_000,
        _ => 0,
    }
}

// ---------------------------------------------------------------------
// kvs_backup: client + primary + two backups, with state-corruption
// fault injection *inside* the choreography on top of the network
// faults underneath it.
// ---------------------------------------------------------------------

type Backups = chorus_repro::core::LocationSet!(Backup1, Backup2);
type KvsSystem = KvsCensus<Backups>;

fn run_kvs_backup(net: &SimNet<KvsSystem>) {
    let cohort = Cohort::over(net.clone());
    macro_rules! server {
        ($loc:ident, $corrupt:expr) => {{
            let store = SharedStore::new();
            if $corrupt {
                store.corrupt_next_put();
            }
            cohort.role($loc, move |endpoint| {
                let session = endpoint.session();
                let outcome = session.epp_and_run(ReplicatedKvs::<Backups, _, _, _> {
                    request: session.remote(Client),
                    states: session.local_faceted(store.clone()),
                    phantom: PhantomData,
                });
                (session.unwrap(outcome.resynched), store.snapshot())
            })
        }};
    }
    let servers = vec![server!(Primary, false), server!(Backup1, true), server!(Backup2, false)];
    let (results, response) = cohort.run(servers, || {
        let endpoint = cohort.endpoint(Client);
        let session = endpoint.session();
        let outcome = session.epp_and_run(ReplicatedKvs::<Backups, _, _, _> {
            request: session.local(Request::Put("k".into(), "v".into())),
            states: session.remote_faceted(<Servers<Backups>>::new()),
            phantom: PhantomData,
        });
        session.unwrap(outcome.response)
    });

    assert_eq!(response, Response::NotFound);
    assert!(results.iter().all(|(resynched, _)| *resynched), "every server saw the resynch");
    let reference = &results[0].1;
    assert!(results.iter().all(|(_, snapshot)| snapshot == reference), "replicas converged");
    assert_eq!(reference.get("k").map(String::as_str), Some("v"));
}

#[test]
fn kvs_backup_survives_the_seed_matrix() {
    let base = seed_base();
    for seed in base..base + PER_PROTOCOL {
        let net = SimNet::<KvsSystem>::new(FaultPlan::chaos(seed));
        with_schedule_dump("kvs_backup", seed, &net, || run_kvs_backup(&net));
    }
}

/// The schedule of a full multi-threaded protocol run is reproducible:
/// each link has a single sending thread, so per-link frame order — and
/// with it every seeded fault decision — is independent of OS
/// scheduling.
#[test]
fn kvs_backup_schedule_is_deterministic_across_runs() {
    let seed = seed_base() ^ 0xD57;
    let dump = |_: u32| {
        let net = SimNet::<KvsSystem>::new(FaultPlan::chaos(seed));
        run_kvs_backup(&net);
        net.schedule_dump()
    };
    assert_eq!(dump(0), dump(1), "same seed, same multi-threaded run, same schedule");
}

// ---------------------------------------------------------------------
// gmw: three-party secure computation of majority(a, b, c).
// ---------------------------------------------------------------------

type Parties = chorus_repro::core::LocationSet!(P1, P2, P3);

/// majority(P1, P2, P3) = P1·P2 ⊕ P1·P3 ⊕ P2·P3 over GF(2).
fn majority() -> Arc<Circuit> {
    Arc::new(
        Circuit::input("P1", 0)
            .and(Circuit::input("P2", 0))
            .xor(Circuit::input("P1", 0).and(Circuit::input("P3", 0)))
            .xor(Circuit::input("P2", 0).and(Circuit::input("P3", 0))),
    )
}

fn run_gmw(net: &SimNet<Parties>) {
    let cohort = Cohort::over(net.clone());
    let circuit = majority();
    macro_rules! party {
        ($loc:ident, $input:expr) => {{
            let circuit = Arc::clone(&circuit);
            cohort.role($loc, move |endpoint| {
                let session = endpoint.session();
                session.epp_and_run(Gmw::<Parties, _, _> {
                    circuit: &circuit,
                    inputs: &session.local_faceted(vec![$input]),
                    phantom: PhantomData,
                })
            })
        }};
    }
    let (results, ()) =
        cohort.run(vec![party!(P1, true), party!(P2, true), party!(P3, false)], || ());
    assert_eq!(results, vec![true, true, true], "majority(t, t, f) = t at every party");
}

#[test]
fn gmw_survives_the_seed_matrix() {
    let base = seed_base() + 1_000;
    for seed in base..base + PER_PROTOCOL {
        let net = SimNet::<Parties>::new(FaultPlan::chaos(seed));
        with_schedule_dump("gmw", seed, &net, || run_gmw(&net));
    }
}

// ---------------------------------------------------------------------
// lottery: three clients, two servers, one analyst; commit-then-open
// fairness on top of a network that reorders the opens.
// ---------------------------------------------------------------------

type Clients = chorus_repro::core::LocationSet!(C1, C2, C3);
type LotteryServers = chorus_repro::core::LocationSet!(S1, S2);
type LotteryCensus = chorus_repro::core::LocationSet!(Analyst, C1, C2, C3, S1, S2);

fn run_lottery(net: &SimNet<LotteryCensus>) {
    const SECRETS: [u64; 3] = [1001, 2002, 3003];
    let cohort = Cohort::over(net.clone());
    macro_rules! lottery {
        ($secrets:expr, $cheaters:expr) => {
            Lottery::<Clients, LotteryServers, LotteryCensus, _, _, _, _, _, _, _> {
                secrets: $secrets,
                tau: 300,
                cheaters: $cheaters,
                phantom: PhantomData,
            }
        };
    }
    macro_rules! client {
        ($loc:ident, $secret:expr) => {
            cohort.role($loc, |endpoint| {
                let session = endpoint.session();
                let _ = session.epp_and_run(lottery!(
                    &session.local_faceted(FLOTTERY::new($secret)),
                    &session.remote_faceted(LotteryServers::new())
                ));
            })
        };
    }
    macro_rules! server {
        ($loc:ident) => {
            cohort.role($loc, |endpoint| {
                let session = endpoint.session();
                let _ = session.epp_and_run(lottery!(
                    &session.remote_faceted(Clients::new()),
                    &session.local_faceted(false)
                ));
            })
        };
    }
    let roles = vec![
        client!(C1, SECRETS[0]),
        client!(C2, SECRETS[1]),
        client!(C3, SECRETS[2]),
        server!(S1),
        server!(S2),
    ];
    let (_, verdict) = cohort.run(roles, || {
        let endpoint = cohort.endpoint(Analyst);
        let session = endpoint.session();
        let out = session.epp_and_run(lottery!(
            &session.remote_faceted(Clients::new()),
            &session.remote_faceted(LotteryServers::new())
        ));
        session.unwrap(out)
    });

    let value = verdict.expect("honest servers, so the lottery must not abort");
    assert!(
        SECRETS.contains(&value),
        "the analyst must reconstruct one of the client secrets, got {value}"
    );
}

#[test]
fn lottery_survives_the_seed_matrix() {
    let base = seed_base() + 2_000;
    for seed in base..base + PER_PROTOCOL {
        let net = SimNet::<LotteryCensus>::new(FaultPlan::chaos(seed));
        with_schedule_dump("lottery", seed, &net, || run_lottery(&net));
    }
}

// ---------------------------------------------------------------------
// The byzantine axis: hardened protocols under adversarial fault modes.
// Each seed deterministically derives a fault mode plus a culprit and a
// victim among the pattern-protected roles; the assertions then demand
// the *exact* injected culprit back (or a clean, correct completion on
// the clean seeds) — at every endpoint, with no hangs.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Adversary {
    /// One-directional link silence: the culprit's frames to the victim
    /// never arrive.
    Silence,
    /// Always-on link corruption: every culprit→victim frame has one
    /// payload bit flipped.
    Corruption,
    /// The culprit equivocates: frames it sends the victim are tampered
    /// with, while everyone else hears the honest story.
    Equivocation,
    /// Lottery only: the culprit server opens a value it never
    /// committed to.
    Cheat,
    /// No fault — the hardened protocol must complete with the correct,
    /// verified result.
    Clean,
}

#[derive(Clone, Copy, Debug)]
struct Injection {
    mode: Adversary,
    culprit: &'static str,
    victim: &'static str,
}

/// Derives the seed's injection over three `roles`: the culprit cycles
/// fastest, then the victim (one of the two others), then the mode.
fn injection(seed: u64, roles: [&'static str; 3], modes: &[Adversary]) -> Injection {
    let ci = (seed % 3) as usize;
    let vi = (ci + 1 + ((seed / 3) % 2) as usize) % 3;
    Injection {
        mode: modes[((seed / 6) as usize) % modes.len()],
        culprit: roles[ci],
        victim: roles[vi],
    }
}

fn adversarial_plan(seed: u64, inj: &Injection) -> FaultPlan {
    let plan = FaultPlan::ideal().with_seed(seed);
    match inj.mode {
        Adversary::Silence => plan.with_silence(Silence::link(inj.culprit, inj.victim)),
        Adversary::Corruption => {
            plan.with_corruption(Corruption::link(inj.culprit, inj.victim, 1.0))
        }
        _ => plan,
    }
}

/// The seed's sim net as the byzantine matrix runs it: the injected
/// culprit equivocates against its victim when the mode is
/// equivocation, and every other transport passes its frames through
/// untouched — so the transport type is uniform across the matrix.
struct Equivocating<L: LocationSet> {
    net: SimNet<L>,
    seed: u64,
    culprit: &'static str,
    victims: Vec<&'static str>,
}

impl<L: LocationSet> Equivocating<L> {
    fn new(net: &SimNet<L>, seed: u64, inj: Injection) -> Self {
        let victims =
            if inj.mode == Adversary::Equivocation { vec![inj.victim] } else { Vec::new() };
        Equivocating { net: net.clone(), seed, culprit: inj.culprit, victims }
    }
}

impl<L: LocationSet> MakeTransport<L> for Equivocating<L> {
    type Transport<R: ChoreographyLocation> = Equivocator<SimTransport<L, R>>;

    fn transport<R: ChoreographyLocation>(&self, location: R) -> Self::Transport<R> {
        let victims = if R::NAME == self.culprit { self.victims.clone() } else { Vec::new() };
        Equivocator::new(self.net.transport(location), self.seed, victims)
    }
}

// ---------------------------------------------------------------------
// hardened_gmw: majority(t, t, f) with preflight link probing and
// commit-reveal output verification; faults target the party links.
// ---------------------------------------------------------------------

fn run_hardened_gmw(seed: u64, net: &SimNet<Parties>, inj: Injection) {
    let cohort = Cohort::over(Equivocating::new(net, seed, inj));
    let circuit = majority();
    macro_rules! party {
        ($loc:ident, $input:expr) => {{
            let circuit = Arc::clone(&circuit);
            cohort.role($loc, move |endpoint| {
                let session = endpoint.session();
                let out = session.epp_and_run(HardenedGmw::<Parties, _, _> {
                    circuit: &circuit,
                    inputs: &session.local_faceted(vec![$input]),
                    epoch: seed,
                    phantom: PhantomData,
                });
                ($loc::NAME, session.unwrap_faceted(out))
            })
        }};
    }
    let (results, ()) =
        cohort.run(vec![party!(P1, true), party!(P2, true), party!(P3, false)], || ());
    for (name, result) in results {
        match inj.mode {
            Adversary::Clean => {
                assert_eq!(result, Ok(true), "{name}: majority(t, t, f) under a clean net")
            }
            _ => {
                let m = match result {
                    Ok(got) => {
                        panic!("{name} accepted {got} despite {inj:?} — silent wrong result")
                    }
                    Err(m) => m,
                };
                assert_eq!(
                    m.culprit, inj.culprit,
                    "{name} must name the injected culprit under {inj:?}, got {m}"
                );
            }
        }
    }
}

#[test]
fn hardened_gmw_names_the_culprit_across_the_byzantine_matrix() {
    let base = seed_base() + seed_offset("hardened_gmw");
    let modes =
        [Adversary::Silence, Adversary::Corruption, Adversary::Equivocation, Adversary::Clean];
    for seed in base..base + PER_PROTOCOL {
        let inj = injection(seed, ["P1", "P2", "P3"], &modes);
        let net = SimNet::<Parties>::new(adversarial_plan(seed, &inj));
        with_schedule_dump("hardened_gmw", seed, &net, || run_hardened_gmw(seed, &net, inj));
    }
}

// ---------------------------------------------------------------------
// hardened_lottery: three clients, three servers (an honest majority
// among the conclave), one analyst; faults target the server↔server
// links the patterns protect, plus the in-protocol commitment cheat.
// ---------------------------------------------------------------------

type HardenedServers = chorus_repro::core::LocationSet!(S1, S2, S3);
type HardenedLotteryCensus = chorus_repro::core::LocationSet!(Analyst, C1, C2, C3, S1, S2, S3);

fn run_hardened_lottery(seed: u64, net: &SimNet<HardenedLotteryCensus>, inj: Injection) {
    const SECRETS: [u64; 3] = [1001, 2002, 3003];
    let cohort = Cohort::over(Equivocating::new(net, seed, inj));
    macro_rules! lottery {
        ($secrets:expr, $cheaters:expr) => {
            HardenedLottery::<Clients, HardenedServers, HardenedLotteryCensus, _, _, _, _, _, _, _> {
                secrets: $secrets,
                tau: 300,
                epoch: seed,
                cheaters: $cheaters,
                phantom: PhantomData,
            }
        };
    }
    macro_rules! client {
        ($loc:ident, $secret:expr) => {
            cohort.role($loc, move |endpoint| {
                let session = endpoint.session();
                let _ = session.epp_and_run(lottery!(
                    &session.local_faceted(FLOTTERY::new($secret)),
                    &session.remote_faceted(HardenedServers::new())
                ));
            })
        };
    }
    macro_rules! server {
        ($loc:ident) => {
            cohort.role($loc, move |endpoint| {
                let session = endpoint.session();
                let cheats = inj.mode == Adversary::Cheat && inj.culprit == $loc::NAME;
                let _ = session.epp_and_run(lottery!(
                    &session.remote_faceted(Clients::new()),
                    &session.local_faceted(cheats)
                ));
            })
        };
    }
    let roles = vec![
        client!(C1, SECRETS[0]),
        client!(C2, SECRETS[1]),
        client!(C3, SECRETS[2]),
        server!(S1),
        server!(S2),
        server!(S3),
    ];
    // Every endpoint resolves — a hang would park a thread forever and
    // the watchdog turns that into a panic instead.
    let (_, verdict) = cohort.run(roles, || {
        let endpoint = cohort.endpoint(Analyst);
        let session = endpoint.session();
        let out = session.epp_and_run(lottery!(
            &session.remote_faceted(Clients::new()),
            &session.remote_faceted(HardenedServers::new())
        ));
        session.unwrap(out)
    });
    match inj.mode {
        Adversary::Clean => {
            let value = verdict.expect("a clean net must pay out");
            assert!(SECRETS.contains(&value), "payout {value} is not a client secret");
        }
        _ => {
            let m = match verdict {
                Ok(got) => {
                    panic!("analyst accepted {got} despite {inj:?} — silent wrong result")
                }
                Err(m) => m,
            };
            assert_eq!(
                m.culprit, inj.culprit,
                "the analyst must name the injected culprit under {inj:?}, got {m}"
            );
        }
    }
}

#[test]
fn hardened_lottery_names_the_culprit_across_the_byzantine_matrix() {
    let base = seed_base() + seed_offset("hardened_lottery");
    let modes = [
        Adversary::Silence,
        Adversary::Corruption,
        Adversary::Equivocation,
        Adversary::Cheat,
        Adversary::Clean,
    ];
    for seed in base..base + PER_PROTOCOL {
        let inj = injection(seed, ["S1", "S2", "S3"], &modes);
        let net = SimNet::<HardenedLotteryCensus>::new(adversarial_plan(seed, &inj));
        with_schedule_dump("hardened_lottery", seed, &net, || {
            run_hardened_lottery(seed, &net, inj)
        });
    }
}

// ---------------------------------------------------------------------
// config_change: a deterministic ProposeAck round (no randomness at
// all), the replay-determinism canary. ProposeAck's traffic is a star
// around the proposer P1, so faults on the P2↔P3 chord are invisible
// and those seeds must *commit* — tolerance, not detection.
// ---------------------------------------------------------------------

fn run_config_change(
    seed: u64,
    net: &SimNet<Parties>,
    inj: Injection,
) -> BTreeMap<&'static str, Result<u64, Misbehavior>> {
    let cohort = Cohort::over(Equivocating::new(net, seed, inj));
    macro_rules! party {
        ($loc:ident, |$session:ident| $version:expr) => {
            cohort.role($loc, move |endpoint| {
                let $session = endpoint.session();
                let out = $session.epp_and_run(ConfigChange::<P1, Parties, _, _, _> {
                    new_version: &$version,
                    current_version: 3,
                    epoch: seed,
                    quorum: 3,
                    phantom: PhantomData,
                });
                ($loc::NAME, $session.unwrap_faceted(out))
            })
        };
    }
    let parties = vec![
        party!(P1, |session| session.local(4u64)),
        party!(P2, |session| session.remote(P1)),
        party!(P3, |session| session.remote(P1)),
    ];
    let (results, ()) = cohort.run(parties, || ());
    results.into_iter().collect()
}

fn assert_config_change_outcome(
    inj: Injection,
    results: &BTreeMap<&'static str, Result<u64, Misbehavior>>,
) {
    // Only the proposer's links carry traffic: a fault must involve P1
    // to be observable at all.
    let observable = inj.mode != Adversary::Clean && (inj.culprit == "P1" || inj.victim == "P1");
    for (name, result) in results {
        if observable {
            let m = match result {
                Ok(got) => {
                    panic!("{name} committed {got} despite {inj:?} — silent wrong result")
                }
                Err(m) => m,
            };
            assert_eq!(
                m.culprit, inj.culprit,
                "{name} must name the injected culprit under {inj:?}, got {m}"
            );
        } else {
            assert_eq!(
                result.as_ref().ok(),
                Some(&4),
                "{name} must commit under {inj:?} (fault off the proposer star)"
            );
        }
    }
}

#[test]
fn config_change_names_the_culprit_across_the_byzantine_matrix() {
    let base = seed_base() + seed_offset("config_change");
    let modes =
        [Adversary::Silence, Adversary::Corruption, Adversary::Equivocation, Adversary::Clean];
    for seed in base..base + PER_PROTOCOL {
        let inj = injection(seed, ["P1", "P2", "P3"], &modes);
        let net = SimNet::<Parties>::new(adversarial_plan(seed, &inj));
        with_schedule_dump("config_change", seed, &net, || {
            let results = run_config_change(seed, &net, inj);
            assert_config_change_outcome(inj, &results);
        });
    }
}

/// The adversarial modes keep the replay guarantee: the same seed
/// replays the same schedule — fault decisions included — and the same
/// per-party verdicts, even with the fault plan corrupting frames.
#[test]
fn byzantine_schedule_and_verdict_are_deterministic_across_runs() {
    let seed = seed_base() + seed_offset("config_change") + 777;
    let inj = Injection { mode: Adversary::Corruption, culprit: "P1", victim: "P2" };
    let run = |_: u32| {
        let net = SimNet::<Parties>::new(adversarial_plan(seed, &inj));
        let results = run_config_change(seed, &net, inj);
        assert_config_change_outcome(inj, &results);
        (net.schedule_dump(), results)
    };
    assert_eq!(run(0), run(1), "same seed, same adversarial schedule, same verdicts");
}
