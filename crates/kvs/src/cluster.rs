//! The scenario harness: a whole simulated cluster — four candidate
//! nodes plus a client — driven one logical operation at a time over a
//! single [`SimNet`], so chaos schedules (and partitions) span
//! reconfigurations.
//!
//! **Dynamic census over static location sets.** Choreographies here are
//! census-polymorphic (generic over a `LocationSet`), but Rust resolves
//! location sets at compile time. The bridge is `bind_census!` below:
//! the runtime census — a list of live member names out of the candidate
//! universe `N1..N4` — selects a path through one walk of the candidates
//! that binds the corresponding type-level set and instantiates the
//! *same generic choreography text* at it. Membership changes between
//! sessions simply select different paths; this is the paper's "the
//! caller picks the census" (§3.4) driven by runtime data.
//!
//! Every client operation, config round, and shard pull is one
//! short-lived choreography session under a fresh session id, run by a
//! [`Cohort`] over the shared net: it owns one thread and endpoint per
//! candidate node (`N1` … `N4`) for the cluster's life, and the client's
//! role runs on the caller's thread over one endpoint the cluster holds.
//! A session ends when every one of its roles has returned; then the
//! first role that panicked — nodes in census order, then the client —
//! is re-raised on the caller with its own payload, and the node threads
//! serve the next session. Node state persists across sessions in
//! [`NodeCtx`] handles. The driver is sequential and each link has a
//! single sending thread per session, so runs are deterministic per
//! fault-plan seed.

use crate::config::{ClusterConfig, ShardId};
use crate::data_plane::{ClusterOp, KvsError, OpOutcome};
use crate::model::ConsistencyModel;
use crate::node::{KvsOp, NodeCtx, StampedRequest, Versioned};
use crate::reconfig::{InstallConfig, PullMode, PullReport, ShardPull};
use chorus_core::{ChoreographyLocation, LocationSet, Session, SessionId};
use chorus_patterns::Misbehavior;
use chorus_protocols::roles::Client;
use chorus_transport::{Cohort, CohortEndpoint, FaultPlan, Role, SimNet, SimTransport};
use std::collections::BTreeMap;
use std::marker::PhantomData;

chorus_core::locations! { N1, N2, N3, N4 }

/// The transport universe: every session in the harness runs over this
/// set, with each choreography's census a subset of it.
pub type Universe = chorus_core::LocationSet!(Client, N1, N2, N3, N4);

/// The candidate node names, in binding order.
pub const NODE_NAMES: [&str; 4] = ["N1", "N2", "N3", "N4"];

/// Binds runtime names to type-level locations in one walk of the
/// candidate nodes, branching at each on whether the census holds it:
/// every census (and every proposer in it) is one path through the
/// expansion, instantiating `$cb` once.
///
/// * `members(names) => cb` expands `cb!(Role, ...)`, in candidate order;
/// * `round(proposer, names) => cb` expands `cb!(Proposer; Role, ...)`;
/// * `pair(donor, recipient) => cb` expands `cb!(Donor, Recipient)` for
///   two distinct candidates;
/// * `candidates => cb` expands `cb!(N1, ..., N4)`, every candidate.
macro_rules! bind_census {
    (candidates => $cb:ident) => { bind_census!(@candidates @all $cb) };
    (@all $cb:ident [$($node:ident)+]) => { $cb!($($node),+) };
    (members($names:expr) => $cb:ident) => {{
        let names = assert_candidates($names);
        bind_census!(@candidates @walk names (members $cb) [])
    }};
    (round($proposer:expr, $names:expr) => $cb:ident) => {{
        let (proposer, names): (&str, _) = ($proposer, assert_candidates($names));
        bind_census!(@candidates @walk names (round proposer $cb) [])
    }};
    (pair($donor:expr, $recipient:expr) => $cb:ident) => {{
        let pair: (&str, &str) = ($donor, $recipient);
        bind_census!(@candidates @donor pair $cb [])
    }};

    // The candidate nodes, appended to whatever step comes first. A new
    // node is added here (and to `locations!`, `Universe`, `NODE_NAMES`).
    (@candidates $($step:tt)*) => { bind_census!($($step)* [N1 N2 N3 N4]) };

    // Accumulate into `[bound]` the candidates the census holds.
    (@walk $names:ident $then:tt [$($bound:ident)*] [$head:ident $($rest:ident)*]) => {
        if $names.iter().any(|name| AsRef::<str>::as_ref(name) == <$head>::NAME) {
            bind_census!(@walk $names $then [$($bound)* $head] [$($rest)*])
        } else {
            bind_census!(@walk $names $then [$($bound)*] [$($rest)*])
        }
    };
    (@walk $names:ident $then:tt [] []) => {
        panic!("census {:?} outside the candidate universe", $names)
    };
    (@walk $names:ident (members $cb:ident) [$($bound:ident)+] []) => { $cb!($($bound),+) };
    (@walk $names:ident (round $proposer:ident $cb:ident) $bound:tt []) => {
        bind_census!(@proposer $proposer $names $cb $bound $bound)
    };

    // The proposer is whichever bound role carries its name.
    (@proposer $proposer:ident $names:ident $cb:ident
     [$($bound:ident)+] [$head:ident $($rest:ident)*]) => {
        if $proposer == <$head>::NAME {
            $cb!($head; $($bound),+)
        } else {
            bind_census!(@proposer $proposer $names $cb [$($bound)+] [$($rest)*])
        }
    };
    (@proposer $proposer:ident $names:ident $cb:ident $bound:tt []) => {
        panic!("proposer {:?} not dispatchable in census {:?}", $proposer, $names)
    };

    // The donor is some candidate; the recipient one of the others.
    (@donor $pair:ident $cb:ident [$($before:ident)*] [$head:ident $($after:ident)*]) => {
        if $pair.0 == <$head>::NAME {
            bind_census!(@recipient $pair $cb $head [$($before)* $($after)*])
        } else {
            bind_census!(@donor $pair $cb [$($before)* $head] [$($after)*])
        }
    };
    (@recipient $pair:ident $cb:ident $donor:ident [$head:ident $($rest:ident)*]) => {
        if $pair.1 == <$head>::NAME {
            $cb!($donor, $head)
        } else {
            bind_census!(@recipient $pair $cb $donor [$($rest)*])
        }
    };
    (@donor $pair:ident $cb:ident $before:tt []) => {
        panic!("transfer pair {:?} outside the candidate universe", $pair)
    };
    (@recipient $pair:ident $cb:ident $donor:ident []) => {
        panic!("transfer pair {:?} outside the candidate universe", $pair)
    };
}

/// A census naming a node outside [`NODE_NAMES`] must not bind to the
/// members it does recognise. Returns the census, names as given.
fn assert_candidates<S: AsRef<str> + std::fmt::Debug>(names: &[S]) -> &[S] {
    assert!(
        names.iter().all(|name| NODE_NAMES.contains(&name.as_ref())),
        "census {names:?} outside the candidate universe"
    );
    names
}

/// One planned state transfer of a reconfiguration: `recipient` gains
/// the range `[start, end)` of `shard`, sourced from every live current
/// replica (the union of donors covers every write-quorum-committed
/// entry).
#[derive(Debug, Clone)]
pub struct Transfer {
    /// Target shard id under the successor config.
    pub shard: ShardId,
    /// Range lower bound (inclusive).
    pub start: u64,
    /// Range upper bound (exclusive; `u64::MAX` is inclusive-top).
    pub end: u64,
    /// The member gaining the replica.
    pub recipient: String,
    /// Live current replicas to pull from.
    pub donors: Vec<String>,
}

/// What the final, frozen step of a live handoff cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreezeWindow {
    /// Frames delivered on the sim fabric during the window
    /// (deterministic per seed).
    pub frames: u64,
    /// Wall-clock span of the window (informational).
    pub wall: std::time::Duration,
}

/// A role's endpoint over the net, built once for the cluster's life.
type SimEndpoint<R> = CohortEndpoint<Universe, R, SimNet<Universe>>;

/// A role's session on its [`SimEndpoint`].
type SimSession<'e, R> = Session<'e, Universe, R, SimTransport<Universe, R>>;

/// The simulated cluster.
pub struct SimCluster {
    /// One role thread and endpoint per candidate node, for the
    /// cluster's life.
    cohort: Cohort<Universe, SimNet<Universe>>,
    nodes: BTreeMap<&'static str, NodeCtx>,
    /// The client's endpoint; its role runs on the caller's thread.
    client: SimEndpoint<Client>,
    client_config: ClusterConfig,
    next_version: u64,
    next_session: u64,
    chunk: usize,
    /// The per-key consistency checker fed by [`SimCluster::put`] /
    /// [`SimCluster::get`].
    pub model: ConsistencyModel,
    last_freeze_window: Option<FreezeWindow>,
}

impl SimCluster {
    /// Boots a cluster over `plan` with the given initial census (a
    /// subset of [`NODE_NAMES`]) and shard count.
    pub fn new(plan: FaultPlan, census: &[&str], shards: u32) -> Self {
        let cohort = Cohort::over(SimNet::<Universe>::new(plan));
        let nodes: BTreeMap<&'static str, NodeCtx> =
            NODE_NAMES.iter().map(|n| (*n, NodeCtx::new(n))).collect();
        let config = ClusterConfig::bootstrap(census, shards);
        for member in &config.census {
            nodes[member.as_str()].install_config(&config);
        }
        macro_rules! spawn_role_threads {
            ($($node:ident),+) => { $(cohort.spawn($node);)+ };
        }
        bind_census!(candidates => spawn_role_threads);
        Self {
            client: cohort.endpoint(Client),
            cohort,
            nodes,
            client_config: config,
            next_version: 0,
            next_session: 0,
            chunk: 16,
            model: ConsistencyModel::new(),
            last_freeze_window: None,
        }
    }

    /// The underlying net (for schedule dumps and virtual time).
    pub fn net(&self) -> &SimNet<Universe> {
        self.cohort.net()
    }

    /// A node's state handle.
    pub fn node(&self, name: &str) -> &NodeCtx {
        &self.nodes[name]
    }

    /// The client's cached config view.
    pub fn config(&self) -> &ClusterConfig {
        &self.client_config
    }

    /// Cost of the last freeze window (final deltas + config commit):
    /// frames delivered on the sim fabric while writes to the moving
    /// range were frozen, plus the wall-clock span. Frames are
    /// deterministic per seed; wall time is informational.
    pub fn last_freeze_window(&self) -> Option<FreezeWindow> {
        self.last_freeze_window.clone()
    }

    /// Sets the transfer chunk size (entries per frame).
    pub fn set_chunk(&mut self, chunk: usize) {
        self.chunk = chunk.max(1);
    }

    /// Overrides the client's cached config view — test hook for
    /// forcing stale-epoch stamps.
    pub fn set_config_for_test(&mut self, config: ClusterConfig) {
        self.client_config = config;
    }

    fn next_version(&mut self) -> u64 {
        self.next_version += 1;
        self.next_version
    }

    fn next_session_id(&mut self) -> u64 {
        self.next_session += 1;
        self.next_session
    }

    /// Node `R`'s part of session `sid`: `run` gets the session, opened
    /// on `R`'s own endpoint, and `R`'s state.
    fn role<R, T>(
        &self,
        sid: SessionId,
        run: impl FnOnce(SimSession<'_, R>, NodeCtx) -> T + Send + 'static,
    ) -> Role<T>
    where
        R: ChoreographyLocation + 'static,
    {
        let ctx = self.nodes[R::NAME].clone();
        self.cohort.role(R::default(), move |endpoint| run(endpoint.session_with_id(sid), ctx))
    }

    /// Re-reads the config from the freshest live node, modeling config
    /// discovery (a client that got a stale-epoch rejection asks the
    /// cluster for the current config before retrying).
    pub fn refresh_config(&mut self) {
        let freshest = self
            .nodes
            .values()
            .filter(|n| n.is_up())
            .filter_map(|n| n.config())
            .max_by_key(|c| c.epoch);
        if let Some(config) = freshest {
            if config.epoch > self.client_config.epoch {
                self.client_config = config;
            }
        }
    }

    /// One data-plane round against the key's replica set under the
    /// client's config view: the round's census is the client and those
    /// replicas, so a member that holds no copy of the key is neither
    /// messaged nor woken (a conclave, §3.4). A replica that is down is
    /// still contacted and answers `Down`. The round borrows the view;
    /// it copies no part of it. Returns the stamped version alongside
    /// the outcome so callers can feed the consistency model.
    pub fn raw_op(&mut self, op: KvsOp) -> (u64, Result<OpOutcome, KvsError>) {
        let version = self.next_version();
        let sid = self.next_session_id();
        let config = &self.client_config;
        let replicas = &config.shard_of(op.key()).replicas;
        let request = StampedRequest { epoch: config.epoch, version, op };

        macro_rules! run_op {
            ($($role:ident),+) => {{
                type M = chorus_core::LocationSet!($($role),+);
                let nodes = vec![$(
                    self.role(sid, |session: SimSession<'_, $role>, ctx| {
                        let _ = session.epp_and_run(ClusterOp::<M, _, _> {
                            request: session.remote(Client),
                            nodes: session.local_faceted(ctx),
                            config: session.remote(Client),
                            phantom: PhantomData,
                        });
                    })
                ),+];
                let (_, out) = self.cohort.run(nodes, || {
                    let session = self.client.session_with_id(sid);
                    let out = session.epp_and_run(ClusterOp::<M, _, _> {
                        request: session.local(request),
                        nodes: session.remote_faceted(<M>::new()),
                        config: session.local(config),
                        phantom: PhantomData,
                    });
                    session.unwrap(out)
                });
                out
            }};
        }
        let result = bind_census!(members(replicas) => run_op);
        (version, result)
    }

    /// A client `Put` with stale-epoch refresh-and-retry, feeding the
    /// consistency model. Returns the committed version or the last
    /// typed error.
    pub fn put(&mut self, key: &str, value: &str) -> Result<u64, KvsError> {
        let mut last = None;
        for _attempt in 0..3 {
            let (version, result) =
                self.raw_op(KvsOp::Put { key: key.to_string(), value: value.to_string() });
            match result {
                Ok(OpOutcome::Put { version }) => {
                    self.model.put_committed(key, version, value);
                    return Ok(version);
                }
                Ok(other) => panic!("put answered with {other:?}"),
                Err(err) => {
                    self.model.put_failed(key, version, value);
                    let retry = matches!(err, KvsError::StaleEpoch { .. });
                    last = Some(err);
                    if retry {
                        self.refresh_config();
                        continue;
                    }
                    break;
                }
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// A client `Get` with stale-epoch refresh-and-retry, checked
    /// against the consistency model.
    ///
    /// # Panics
    ///
    /// Panics on a model violation (a lost committed write, stale or
    /// fabricated value) — the chaos matrix turns this into a failing
    /// seed with a dumped schedule.
    pub fn get(&mut self, key: &str) -> Result<Option<Versioned>, KvsError> {
        let mut last = None;
        for _attempt in 0..3 {
            let (_, result) = self.raw_op(KvsOp::Get { key: key.to_string() });
            match result {
                Ok(OpOutcome::Get { found }) => {
                    if let Err(violation) = self.model.get_ok(key, &found) {
                        panic!("consistency violation: {violation}");
                    }
                    return Ok(found);
                }
                Ok(other) => panic!("get answered with {other:?}"),
                Err(err) => {
                    self.model.get_failed(key);
                    let retry = matches!(err, KvsError::StaleEpoch { .. });
                    last = Some(err);
                    if retry {
                        self.refresh_config();
                        continue;
                    }
                    break;
                }
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// One two-party shard pull session.
    fn pull(
        &mut self,
        donor: &str,
        recipient: &str,
        shard: ShardId,
        range: (u64, u64),
        mode: PullMode,
    ) -> PullReport {
        let sid = self.next_session_id();
        let chunk = self.chunk;
        macro_rules! run_pull {
            ($d:ident, $r:ident) => { run_pull!($d, $r; $d, $r) };
            ($d:ident, $r:ident; $($side:ident),+) => {{
                let sides = vec![$(
                    self.role(sid, move |session: SimSession<'_, $side>, ctx| {
                        session.epp_and_run(ShardPull::<'_, $d, $r> {
                            shard,
                            range,
                            mode,
                            chunk,
                            ctx: &ctx,
                            phantom: PhantomData,
                        })
                    })
                ),+];
                let (reports, ()) = self.cohort.run(sides, || ());
                assert_eq!(reports[0], reports[1], "pull sides agree on the report");
                reports.into_iter().next().unwrap()
            }};
        }
        bind_census!(pair(donor, recipient) => run_pull)
    }

    /// One config-agreement round over `census` (must be sorted) with
    /// the given proposer; every member validates, installs on commit.
    /// Returns each member's outcome.
    fn install_round(
        &mut self,
        proposer: &str,
        census: &[String],
        proposed: &ClusterConfig,
    ) -> BTreeMap<&'static str, Result<ClusterConfig, Misbehavior>> {
        let sid = self.next_session_id();
        let quorum = census.len() / 2 + 1;
        macro_rules! run_install {
            ($p:ident; $($role:ident),+) => {{
                type M = chorus_core::LocationSet!($($role),+);
                let members = vec![$({
                    let proposed = proposed.clone();
                    self.role(sid, move |session: SimSession<'_, $role>, ctx| {
                        let out = session.epp_and_run(InstallConfig::<'_, $p, M, _, _, _> {
                            proposed,
                            quorum,
                            ctx: &ctx,
                            phantom: PhantomData,
                        });
                        (<$role>::NAME, session.unwrap_faceted(out))
                    })
                }),+];
                let (outcomes, ()) = self.cohort.run(members, || ());
                outcomes.into_iter().collect::<BTreeMap<_, _>>()
            }};
        }
        bind_census!(round(proposer, census) => run_install)
    }

    /// Plans the state transfers of the transition `current → next`:
    /// every `(shard, member)` gaining a replica pulls the range from
    /// all live current replicas.
    pub fn plan_transfers(&self, next: &ClusterConfig) -> Vec<Transfer> {
        let current = &self.client_config;
        current
            .gained_replicas(next)
            .into_iter()
            .map(|(shard, recipient)| {
                let (start, end) =
                    next.shard_range(shard).expect("gained shard exists in the successor");
                let donors = current
                    .shard_at(start)
                    .replicas
                    .iter()
                    .filter(|r| **r != recipient && self.nodes[r.as_str()].is_up())
                    .cloned()
                    .collect();
                Transfer { shard, start, end, recipient, donors }
            })
            .collect()
    }

    /// Phase 1 of a live handoff: snapshot pulls with dirty-key
    /// tracking armed at the donors. Writes keep flowing; the driver is
    /// free to interleave [`SimCluster::put`]/[`SimCluster::get`]
    /// between calls. Returns entries shipped.
    pub fn precopy(&mut self, transfer: &Transfer) -> u64 {
        let mut shipped = 0;
        for donor in transfer.donors.clone() {
            shipped += self
                .pull(
                    &donor,
                    &transfer.recipient.clone(),
                    transfer.shard,
                    (transfer.start, transfer.end),
                    PullMode::Snapshot { track: true },
                )
                .entries;
        }
        shipped
    }

    /// Phase 2: freeze windows + final deltas + the config-commit
    /// round. Returns whether the new epoch committed; on abort, every
    /// donor lifts its freeze. The freeze window (virtual time) is
    /// recorded for the bench.
    pub fn finalize(&mut self, next: &ClusterConfig, transfers: &[Transfer]) -> bool {
        let frames_start = self.net().messages_received();
        let wall_start = std::time::Instant::now();
        for transfer in transfers.iter().cloned() {
            for donor in &transfer.donors {
                self.pull(
                    donor,
                    &transfer.recipient,
                    transfer.shard,
                    (transfer.start, transfer.end),
                    PullMode::FreezeDelta,
                );
            }
        }
        let round_census = round_census(&self.client_config, next);
        let proposer = round_census
            .iter()
            .find(|m| self.nodes[m.as_str()].is_up())
            .cloned()
            .expect("a live member must exist to propose");
        let outcomes = self.install_round(&proposer, &round_census, next);
        let committed =
            outcomes.iter().any(|(name, outcome)| self.nodes[*name].is_up() && outcome.is_ok());
        self.last_freeze_window = Some(FreezeWindow {
            frames: self.net().messages_received() - frames_start,
            wall: wall_start.elapsed(),
        });
        if committed {
            self.client_config = next.clone();
        } else {
            for transfer in transfers {
                for donor in &transfer.donors {
                    self.nodes[donor.as_str()].abort_handoff(transfer.shard);
                }
            }
        }
        committed
    }

    /// A full reconfiguration, both phases back-to-back (no interleaved
    /// workload; use [`SimCluster::plan_transfers`] /
    /// [`SimCluster::precopy`] / [`SimCluster::finalize`] to interleave).
    pub fn reconfigure(&mut self, next: &ClusterConfig) -> bool {
        let transfers = self.plan_transfers(next);
        for transfer in &transfers {
            self.precopy(transfer);
        }
        self.finalize(next, &transfers)
    }

    /// Grows the census: pre-copies the joiner's shards, commits the
    /// next epoch.
    pub fn join(&mut self, member: &str) -> bool {
        self.refresh_config();
        let next = self.client_config.with_join(member);
        self.reconfigure(&next)
    }

    /// Shrinks the census: re-replicates the leaver's shards onto the
    /// survivors, commits the next epoch (the leaver participates in the
    /// round if it is still up).
    pub fn leave(&mut self, member: &str) -> bool {
        self.refresh_config();
        let next = self.client_config.with_leave(member);
        self.reconfigure(&next)
    }

    /// Splits a shard's range at its midpoint, transferring the upper
    /// half to its (possibly new) replica set.
    pub fn split_shard(&mut self, shard: ShardId) -> bool {
        self.refresh_config();
        let next = self.client_config.with_split(shard);
        self.reconfigure(&next)
    }

    /// Migrates a shard onto an explicit replica set.
    pub fn migrate_shard(&mut self, shard: ShardId, replicas: &[&str]) -> bool {
        self.refresh_config();
        let next = self.client_config.with_migrate(shard, replicas);
        self.reconfigure(&next)
    }

    /// Fail-stops a node and wipes its store (disk loss).
    pub fn crash(&mut self, member: &str) {
        self.nodes[member].crash_and_wipe();
    }

    /// Rebuilds a crashed replica from the surviving replicas of every
    /// shard it owns, then brings it back up. The union of survivor
    /// pulls covers every write-quorum-committed entry (quorum
    /// intersection: each committed write lives on at least one
    /// survivor). Returns entries recovered.
    pub fn recover(&mut self, member: &str) -> u64 {
        self.refresh_config();
        let config = self.client_config.clone();
        let mut recovered = 0;
        for shard in &config.shards {
            if !shard.replicas.iter().any(|r| r == member) {
                continue;
            }
            let (start, end) = config.shard_range(shard.id).expect("shard in own config");
            for donor in &shard.replicas {
                if donor == member || !self.nodes[donor.as_str()].is_up() {
                    continue;
                }
                recovered += self
                    .pull(
                        donor,
                        member,
                        shard.id,
                        (start, end),
                        PullMode::Snapshot { track: false },
                    )
                    .entries;
            }
        }
        let node = &self.nodes[member];
        node.restart();
        node.install_config(&config);
        recovered
    }
}

/// The census of a config round: old ∪ new members, sorted — a leaver
/// still votes on its own departure, a joiner already votes on its
/// arrival.
fn round_census(current: &ClusterConfig, next: &ClusterConfig) -> Vec<String> {
    let mut census: Vec<String> =
        current.census.iter().chain(next.census.iter()).cloned().collect();
    census.sort();
    census.dedup();
    census
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn bound_members(names: &[&str]) -> Vec<&'static str> {
        macro_rules! names_of {
            ($($role:ident),+) => { <chorus_core::LocationSet!($($role),+)>::names() };
        }
        bind_census!(members(names) => names_of)
    }

    fn bound_round(proposer: &str, names: &[&str]) -> (&'static str, Vec<&'static str>) {
        macro_rules! names_of {
            ($p:ident; $($role:ident),+) => {
                (<$p>::NAME, <chorus_core::LocationSet!($($role),+)>::names())
            };
        }
        bind_census!(round(proposer, names) => names_of)
    }

    fn bound_pair(donor: &str, recipient: &str) -> (&'static str, &'static str) {
        macro_rules! names_of {
            ($d:ident, $r:ident) => {
                (<$d>::NAME, <$r>::NAME)
            };
        }
        bind_census!(pair(donor, recipient) => names_of)
    }

    #[test]
    fn binder_binds_every_census_proposer_and_pair_to_itself() {
        for mask in 1u32..(1 << NODE_NAMES.len()) {
            let census: Vec<&str> = (0..NODE_NAMES.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| NODE_NAMES[i])
                .collect();
            assert_eq!(bound_members(&census), census);
            for proposer in &census {
                assert_eq!(bound_round(proposer, &census), (*proposer, census.clone()));
            }
        }
        for donor in NODE_NAMES {
            for recipient in NODE_NAMES.into_iter().filter(|r| *r != donor) {
                assert_eq!(bound_pair(donor, recipient), (donor, recipient));
            }
        }
    }

    #[test]
    #[should_panic(expected = "census [] outside the candidate universe")]
    fn binder_rejects_an_empty_census() {
        bound_members(&[]);
    }

    #[test]
    #[should_panic(expected = "census [\"N5\"] outside the candidate universe")]
    fn binder_rejects_a_name_outside_the_candidates() {
        bound_members(&["N5"]);
    }

    #[test]
    #[should_panic(expected = "proposer \"N3\" not dispatchable in census [\"N1\", \"N2\"]")]
    fn binder_rejects_a_proposer_outside_the_census() {
        bound_round("N3", &["N1", "N2"]);
    }

    #[test]
    fn quiet_cluster_serves_quorum_ops() {
        let mut cluster = SimCluster::new(FaultPlan::ideal(), &["N1", "N2", "N3"], 4);
        let version = cluster.put("alpha", "1").expect("put commits");
        assert!(version > 0);
        let found = cluster.get("alpha").expect("get succeeds").expect("value present");
        assert_eq!(found.value, "1");
        assert_eq!(cluster.get("missing").expect("get succeeds"), None);
    }

    #[test]
    fn join_bumps_the_epoch_and_keeps_data() {
        let mut cluster = SimCluster::new(FaultPlan::ideal(), &["N1", "N2", "N3"], 4);
        for i in 0..24 {
            cluster.put(&format!("k{i}"), &format!("v{i}")).expect("put commits");
        }
        assert!(cluster.join("N4"), "join commits");
        assert_eq!(cluster.config().epoch, 2);
        assert!(cluster.config().census.contains(&"N4".to_string()));
        for i in 0..24 {
            let found = cluster.get(&format!("k{i}")).expect("get").expect("survives join");
            assert_eq!(found.value, format!("v{i}"));
        }
    }

    #[test]
    fn stale_client_gets_a_typed_error_then_recovers() {
        let mut cluster = SimCluster::new(FaultPlan::ideal(), &["N1", "N2", "N3"], 4);
        cluster.put("k", "v").expect("put");
        let next = cluster.config().with_join("N4");
        let transfers = cluster.plan_transfers(&next);
        for t in &transfers {
            cluster.precopy(t);
        }
        assert!(cluster.finalize(&next, &transfers));
        // The client's cached view was refreshed by finalize, so force
        // a stale stamp to observe the typed rejection.
        cluster.client_config.epoch -= 1;
        let (_, result) = cluster.raw_op(KvsOp::Get { key: "k".into() });
        assert!(
            matches!(result, Err(KvsError::StaleEpoch { observed: 2 })),
            "stale stamp must be fenced, got {result:?}"
        );
        cluster.refresh_config();
        assert_eq!(cluster.get("k").expect("get").expect("value").value, "v");
    }

    #[test]
    fn a_role_panic_surfaces_with_its_own_message_and_the_cluster_serves_on() {
        let plan = FaultPlan::ideal().with_silence(chorus_transport::Silence::link("N1", "N2"));
        let mut cluster = SimCluster::new(plan, &["N1", "N2", "N3"], 4);
        let config = cluster.config().clone();
        let shard = config.shards[0].id;
        let (start, end) = config.shard_range(shard).expect("shard in own config");
        let transfer =
            Transfer { shard, start, end, recipient: "N2".into(), donors: vec!["N1".into()] };
        // The shard is empty, so the donor sends only the count and
        // returns; the recipient cannot hear it.
        let payload = catch_unwind(AssertUnwindSafe(|| cluster.precopy(&transfer)))
            .expect_err("the recipient's receive from N1 fails");
        let message = payload.downcast_ref::<String>().expect("the role's formatted message");
        assert!(
            message.starts_with("failed to receive from N1:")
                && message.contains("link N1 -> N2 silenced"),
            "got {message:?}"
        );
        // Both node threads survived the session: a put over N1 and N2
        // (whose links to and from the client are clean) commits.
        cluster.put("after", "v").expect("put commits");
        assert_eq!(cluster.get("after").expect("get").expect("present").value, "v");
    }

    #[test]
    fn crash_then_recover_rebuilds_the_replica() {
        let mut cluster = SimCluster::new(FaultPlan::ideal(), &["N1", "N2", "N3"], 4);
        for i in 0..16 {
            cluster.put(&format!("k{i}"), "v").expect("put");
        }
        cluster.crash("N2");
        assert_eq!(cluster.node("N2").entry_count(), 0);
        // The cluster keeps serving on the survivors.
        for i in 0..16 {
            assert!(cluster.get(&format!("k{i}")).expect("get").is_some());
        }
        let recovered = cluster.recover("N2");
        assert!(recovered > 0, "recovery pulled entries");
        assert!(cluster.node("N2").entry_count() > 0);
        for i in 0..16 {
            assert!(cluster.get(&format!("k{i}")).expect("get").is_some());
        }
    }
}
