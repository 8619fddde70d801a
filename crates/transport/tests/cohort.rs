//! A `Cohort` run ends only when every role has returned, re-raises the
//! first role's panic with its own payload, and keeps its threads for
//! the next run.

use chorus_core::{panic_message, ChoreoOp, Choreography, Located};
use chorus_transport::{Cohort, LocalTransportChannel};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

chorus_core::locations! { Alice, Bob }
type Duo = chorus_core::LocationSet!(Alice, Bob);

/// Alice hands Bob a number.
struct Hand(Located<u32, Alice>);

impl Choreography<Located<u32, Bob>> for Hand {
    type L = Duo;
    fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<u32, Bob> {
        op.comm(Alice, Bob, &self.0)
    }
}

/// The other role of a run whose first role panics. It waits for the
/// panic, then for word that the run has returned, for far longer than
/// an early return takes; it marks that it returned only if no word
/// came.
fn outlasts(
    panicking: mpsc::Receiver<()>,
    run_returned: mpsc::Receiver<()>,
    returned: &Arc<AtomicBool>,
) -> impl FnOnce() + Send {
    let returned = Arc::clone(returned);
    move || {
        panicking.recv().expect("the panicking role signals before it panics");
        let early = run_returned.recv_timeout(Duration::from_millis(100)).is_ok();
        returned.store(!early, Ordering::SeqCst);
    }
}

/// One session over the same cohort: Bob on his thread, Alice inline.
fn hand_over(cohort: &Cohort<Duo, LocalTransportChannel<Duo>>, n: u32) -> u32 {
    let bob = cohort.role(Bob, |endpoint| {
        let session = endpoint.session();
        let got = session.epp_and_run(Hand(session.remote(Alice)));
        session.unwrap(got)
    });
    let (got, ()) = cohort.run(vec![bob], || {
        let endpoint = cohort.endpoint(Alice);
        let session = endpoint.session();
        session.epp_and_run(Hand(session.local(n)));
    });
    got[0]
}

#[test]
fn a_threaded_roles_panic_is_re_raised_after_the_inline_role_returns() {
    let cohort = Cohort::over(LocalTransportChannel::<Duo>::new());
    let (panicking, signal) = mpsc::channel();
    let (run_returned, word) = mpsc::channel();
    let returned = Arc::new(AtomicBool::new(false));
    let inline = outlasts(signal, word, &returned);
    let bob = cohort.role(Bob, move |_| {
        panicking.send(()).expect("the inline role is waiting");
        panic!("boom")
    });
    let payload = catch_unwind(AssertUnwindSafe(|| cohort.run(vec![bob], inline)))
        .expect_err("Bob's panic reaches the caller");
    let _ = run_returned.send(());
    assert_eq!(panic_message(&*payload), "boom");
    assert!(returned.load(Ordering::SeqCst), "the run waited for the inline role");
    assert_eq!(hand_over(&cohort, 7), 7, "Bob's thread serves the next session");
}

#[test]
fn the_inline_roles_panic_is_re_raised_after_the_threaded_role_returns() {
    let cohort = Cohort::over(LocalTransportChannel::<Duo>::new());
    let (panicking, signal) = mpsc::channel();
    let (run_returned, word) = mpsc::channel();
    let returned = Arc::new(AtomicBool::new(false));
    let bob = outlasts(signal, word, &returned);
    let payload = catch_unwind(AssertUnwindSafe(|| {
        cohort.run(vec![cohort.role(Bob, move |_| bob())], || {
            panicking.send(()).expect("Bob is waiting");
            panic!("boom")
        })
    }))
    .expect_err("the inline panic reaches the caller");
    let _ = run_returned.send(());
    assert_eq!(panic_message(&*payload), "boom");
    assert!(returned.load(Ordering::SeqCst), "the run waited for Bob");
    assert_eq!(hand_over(&cohort, 9), 9, "Bob's thread serves the next session");
}
