//! A faithful HasChor-style baseline: library-level choreographic
//! programming with **broadcast-based knowledge of choice** (§2.2).
//!
//! HasChor "solves the KoC problem in what Shen et al. describe as an
//! 'admittedly heavy-handed' way: by broadcasting the chosen branch of
//! each conditional to all parties". This crate reproduces exactly that
//! programming model so the benchmark harness can measure what
//! conclaves-&-MLVs save:
//!
//! * [`Located<V, L>`] values have **one** owner — there are no
//!   multiply-located values.
//! * The only conditional is [`HasChorOp::cond`], which broadcasts the
//!   scrutinee to **every** member of the census, including parties that
//!   do nothing in either branch.
//! * There are no conclaves, so no sub-census can branch privately, and
//!   no KoC decision can be reused: branching on the same data twice
//!   broadcasts it twice.
//! * There is no census polymorphism: choreographies enumerate their
//!   participants exactly (the `baseline_replicated_kvs!` macro in
//!   `chorus-protocols` unrolls one choreography per backup count).
//!
//! The crate shares locations, location sets, membership proofs, and
//! transports with `chorus-core`, so both libraries run over identical
//! plumbing and message counts are directly comparable.

use chorus_core::{ChoreographyLocation, LocationSet, Member, Portable, Session, SessionTransport};
use std::marker::PhantomData;

/// A value of type `V` owned by the single location `L` — HasChor's
/// `t @ l` (paper Fig. 1).
#[derive(Debug, Clone)]
pub struct Located<V, L> {
    value: Option<V>,
    owner: PhantomData<L>,
}

impl<V, L> Located<V, L> {
    fn local(value: V) -> Self {
        Located { value: Some(value), owner: PhantomData }
    }

    fn remote() -> Self {
        Located { value: None, owner: PhantomData }
    }
}

/// The capability to read values located at `L1` (HasChor's `un`).
#[derive(Debug, Clone, Copy)]
pub struct Unwrapper<L: ChoreographyLocation> {
    location: PhantomData<L>,
}

impl<L1: ChoreographyLocation> Unwrapper<L1> {
    /// Returns a reference to a located value owned by `L1`.
    ///
    /// # Panics
    ///
    /// Panics if the value escaped its executor (impossible through the
    /// public API).
    pub fn unwrap_ref<'a, V>(&self, located: &'a Located<V, L1>) -> &'a V {
        located.value.as_ref().expect("located value absent at its owner")
    }

    /// Returns a clone of a located value owned by `L1`.
    pub fn unwrap<V: Clone>(&self, located: &Located<V, L1>) -> V {
        self.unwrap_ref(located).clone()
    }
}

/// A HasChor-style choreography over census `L`.
pub trait BaselineChoreography<R = ()> {
    /// The exact, enumerated set of participants.
    type L: LocationSet;

    /// Runs the choreography against injected operators.
    fn run(self, op: &impl HasChorOp<Self::L>) -> R;
}

/// HasChor's three operators: `locally`, `~>` (comm), and `cond`.
pub trait HasChorOp<Census: LocationSet> {
    /// Performs a local computation at `location` (HasChor's `locally`).
    fn locally<V, L1: ChoreographyLocation, Index>(
        &self,
        location: L1,
        computation: impl Fn(Unwrapper<L1>) -> V,
    ) -> Located<V, L1>
    where
        L1: Member<Census, Index>;

    /// Point-to-point communication (HasChor's `~>`).
    ///
    /// # Panics
    ///
    /// Panics if the underlying transport fails.
    fn comm<S: ChoreographyLocation, R: ChoreographyLocation, V: Portable, I1, I2>(
        &self,
        from: S,
        to: R,
        data: &Located<V, S>,
    ) -> Located<V, R>
    where
        S: Member<Census, I1>,
        R: Member<Census, I2>;

    /// Conditional execution (HasChor's `cond`): broadcasts the scrutinee
    /// owned by `at` to **the entire census**, then every participant
    /// runs the continuation on the (now shared) value.
    ///
    /// # Panics
    ///
    /// Panics if the underlying transport fails.
    fn cond<S: ChoreographyLocation, V: Portable, R, Index>(
        &self,
        at: S,
        scrutinee: &Located<V, S>,
        continuation: impl FnOnce(&V) -> R,
    ) -> R
    where
        S: Member<Census, Index>;
}

/// Projects baseline choreographies to one endpoint over a
/// [`Session`], mirroring `chorus_core::Session::epp_and_run`.
///
/// The projector runs inside one session of a shared endpoint, so the
/// baseline and the conclaves-&-MLVs library execute over identical
/// plumbing (same envelopes, same layers, same demultiplexing) and
/// their message counts stay directly comparable.
pub struct BaselineProjector<'a, 'e, TL, Target, T, TargetIndex>
where
    TL: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<TL, Target>,
{
    session: &'a Session<'e, TL, Target, T>,
    phantom: PhantomData<fn() -> TargetIndex>,
}

impl<'a, 'e, TL, Target, T, TargetIndex> BaselineProjector<'a, 'e, TL, Target, T, TargetIndex>
where
    TL: LocationSet,
    Target: ChoreographyLocation + Member<TL, TargetIndex>,
    T: SessionTransport<TL, Target>,
{
    /// Creates a projector for `target` running inside `session`.
    pub fn new(target: Target, session: &'a Session<'e, TL, Target, T>) -> Self {
        let _ = target;
        BaselineProjector { session, phantom: PhantomData }
    }

    /// Wraps a value this endpoint holds.
    pub fn local<V>(&self, value: V) -> Located<V, Target> {
        Located::local(value)
    }

    /// The placeholder for another endpoint's value.
    pub fn remote<V, L2, I>(&self, at: L2) -> Located<V, L2>
    where
        L2: ChoreographyLocation + Member<TL, I>,
    {
        let _ = at;
        Located::remote()
    }

    /// Extracts a value this endpoint owns from a result.
    ///
    /// # Panics
    ///
    /// Panics if the value escaped its executor.
    pub fn unwrap<V>(&self, data: Located<V, Target>) -> V {
        data.value.expect("located value absent at its owner")
    }

    /// Projects and runs `choreo` at this endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the transport fails mid-choreography.
    pub fn epp_and_run<V, L, C, LSubsetTL, TargetInL>(&self, choreo: C) -> V
    where
        L: LocationSet + chorus_core::Subset<TL, LSubsetTL>,
        Target: Member<L, TargetInL>,
        C: BaselineChoreography<V, L = L>,
    {
        let op: BaselineEppOp<'a, 'e, L, TL, Target, T> =
            BaselineEppOp { session: self.session, phantom: PhantomData };
        choreo.run(&op)
    }
}

struct BaselineEppOp<'a, 'e, Census, TL, Target, T>
where
    Census: LocationSet,
    TL: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<TL, Target>,
{
    session: &'a Session<'e, TL, Target, T>,
    phantom: PhantomData<fn() -> (Census, TL, Target)>,
}

impl<Census, TL, Target, T> BaselineEppOp<'_, '_, Census, TL, Target, T>
where
    Census: LocationSet,
    TL: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<TL, Target>,
{
    fn send_to<V: Portable>(&self, to: &str, value: &V) {
        self.session
            .send_value(to, value)
            .unwrap_or_else(|e| panic!("failed to send to {to}: {e}"));
    }

    fn receive_from<V: Portable>(&self, from: &str) -> V {
        let bytes = self
            .session
            .receive_payload(from)
            .unwrap_or_else(|e| panic!("failed to receive from {from}: {e}"));
        chorus_wire::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("failed to decode message from {from}: {e}"))
    }
}

impl<Census, TL, Target, T> HasChorOp<Census> for BaselineEppOp<'_, '_, Census, TL, Target, T>
where
    Census: LocationSet,
    TL: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<TL, Target>,
{
    fn locally<V, L1: ChoreographyLocation, Index>(
        &self,
        _location: L1,
        computation: impl Fn(Unwrapper<L1>) -> V,
    ) -> Located<V, L1>
    where
        L1: Member<Census, Index>,
    {
        if L1::NAME == Target::NAME {
            Located::local(computation(Unwrapper { location: PhantomData }))
        } else {
            Located::remote()
        }
    }

    fn comm<S: ChoreographyLocation, R: ChoreographyLocation, V: Portable, I1, I2>(
        &self,
        _from: S,
        _to: R,
        data: &Located<V, S>,
    ) -> Located<V, R>
    where
        S: Member<Census, I1>,
        R: Member<Census, I2>,
    {
        if S::NAME == Target::NAME && R::NAME == Target::NAME {
            let value = data.value.as_ref().expect("sender holds its value");
            let bytes = chorus_wire::to_bytes(value).expect("encode self-send");
            Located::local(chorus_wire::from_bytes(&bytes).expect("decode self-send"))
        } else if S::NAME == Target::NAME {
            self.send_to(R::NAME, data.value.as_ref().expect("sender holds its value"));
            Located::remote()
        } else if R::NAME == Target::NAME {
            Located::local(self.receive_from(S::NAME))
        } else {
            Located::remote()
        }
    }

    fn cond<S: ChoreographyLocation, V: Portable, R, Index>(
        &self,
        _at: S,
        scrutinee: &Located<V, S>,
        continuation: impl FnOnce(&V) -> R,
    ) -> R
    where
        S: Member<Census, Index>,
    {
        // HasChor semantics: the scrutinee goes to EVERYONE in the
        // census, whether or not they participate in the branches.
        if S::NAME == Target::NAME {
            let value = scrutinee.value.as_ref().expect("scrutinee owner holds its value");
            for name in Census::names() {
                if name != Target::NAME {
                    self.send_to(name, value);
                }
            }
            continuation(value)
        } else {
            let value: V = self.receive_from(S::NAME);
            continuation(&value)
        }
    }
}

/// Centralized runner for baseline choreographies, mirroring
/// `chorus_core::Runner`.
pub struct BaselineRunner<L: LocationSet> {
    census: PhantomData<L>,
}

impl<L: LocationSet> BaselineRunner<L> {
    /// Creates a runner.
    pub fn new() -> Self {
        BaselineRunner { census: PhantomData }
    }

    /// Wraps a value as located at any location.
    pub fn local<V, L1: ChoreographyLocation>(&self, value: V) -> Located<V, L1> {
        Located::local(value)
    }

    /// Extracts the value from a located result.
    pub fn unwrap_located<V, L1>(&self, data: Located<V, L1>) -> V {
        data.value.expect("centralized runner always holds located values")
    }

    /// Runs a choreography under the centralized semantics.
    pub fn run<V, C: BaselineChoreography<V, L = L>>(&self, choreo: C) -> V {
        let op: BaselineRunOp<L> = BaselineRunOp(PhantomData);
        choreo.run(&op)
    }
}

impl<L: LocationSet> Default for BaselineRunner<L> {
    fn default() -> Self {
        Self::new()
    }
}

struct BaselineRunOp<L: LocationSet>(PhantomData<L>);

impl<Census: LocationSet> HasChorOp<Census> for BaselineRunOp<Census> {
    fn locally<V, L1: ChoreographyLocation, Index>(
        &self,
        _location: L1,
        computation: impl Fn(Unwrapper<L1>) -> V,
    ) -> Located<V, L1>
    where
        L1: Member<Census, Index>,
    {
        Located::local(computation(Unwrapper { location: PhantomData }))
    }

    fn comm<S: ChoreographyLocation, R: ChoreographyLocation, V: Portable, I1, I2>(
        &self,
        _from: S,
        _to: R,
        data: &Located<V, S>,
    ) -> Located<V, R>
    where
        S: Member<Census, I1>,
        R: Member<Census, I2>,
    {
        let value = data.value.as_ref().expect("sender holds its value");
        let bytes = chorus_wire::to_bytes(value).expect("encode");
        Located::local(chorus_wire::from_bytes(&bytes).expect("decode"))
    }

    fn cond<S: ChoreographyLocation, V: Portable, R, Index>(
        &self,
        _at: S,
        scrutinee: &Located<V, S>,
        continuation: impl FnOnce(&V) -> R,
    ) -> R
    where
        S: Member<Census, Index>,
    {
        continuation(scrutinee.value.as_ref().expect("scrutinee owner holds its value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_transport::{Cohort, LocalTransportChannel, TransportMetrics};
    use std::sync::Arc;

    chorus_core::locations! { Alice, Bob, Carol }
    type Census = chorus_core::LocationSet!(Alice, Bob, Carol);

    struct PingPong {
        n: Located<u32, Alice>,
    }

    impl BaselineChoreography<Located<u32, Alice>> for PingPong {
        type L = Census;
        fn run(self, op: &impl HasChorOp<Self::L>) -> Located<u32, Alice> {
            let at_bob = op.comm(Alice, Bob, &self.n);
            let doubled = op.locally(Bob, |un| un.unwrap(&at_bob) * 2);
            op.comm(Bob, Alice, &doubled)
        }
    }

    #[test]
    fn runner_executes_comm_and_locally() {
        let runner: BaselineRunner<Census> = BaselineRunner::new();
        let out = runner.run(PingPong { n: runner.local(21) });
        assert_eq!(runner.unwrap_located(out), 42);
    }

    struct Branchy {
        flag: Located<bool, Alice>,
    }

    impl BaselineChoreography<u32> for Branchy {
        type L = Census;
        fn run(self, op: &impl HasChorOp<Self::L>) -> u32 {
            // Carol does nothing in either branch — yet cond sends her
            // the flag anyway. That is the inefficiency the paper fixes.
            op.cond(Alice, &self.flag, |flag| if *flag { 1 } else { 0 })
        }
    }

    #[test]
    fn cond_broadcasts_to_every_party() {
        let metrics = Arc::new(TransportMetrics::new());
        let cohort = Cohort::over(LocalTransportChannel::<Census>::new()).layer(metrics.clone());
        macro_rules! role {
            ($loc:ident, $flag:expr) => {
                cohort.role($loc, |endpoint| {
                    let session = endpoint.session();
                    let projector = BaselineProjector::new($loc, &session);
                    let flag: Located<bool, Alice> = $flag(&projector);
                    projector.epp_and_run(Branchy { flag })
                })
            };
        }
        let roles = vec![
            role!(Alice, |p: &BaselineProjector<Census, Alice, _, _>| p.local(true)),
            role!(Bob, |p: &BaselineProjector<Census, Bob, _, _>| p.remote(Alice)),
            role!(Carol, |p: &BaselineProjector<Census, Carol, _, _>| p.remote(Alice)),
        ];
        let (branches, ()) = cohort.run(roles, || ());
        assert_eq!(branches, [1, 1, 1]);
        // The broadcast reached BOTH Bob and Carol even though Carol is
        // irrelevant to the branch.
        assert_eq!(metrics.messages_to("Bob"), 1);
        assert_eq!(metrics.messages_to("Carol"), 1);
        assert_eq!(metrics.total_messages(), 2);
    }

    #[test]
    fn centralized_cond_runs_the_continuation() {
        let runner: BaselineRunner<Census> = BaselineRunner::new();
        assert_eq!(runner.run(Branchy { flag: runner.local(false) }), 0);
    }
}
