//! In-tree, API-compatible subset of the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this shim
//! reimplements the property-testing surface the workspace uses:
//! [`Strategy`] with `prop_map`/`prop_recursive`/`boxed`, [`any`],
//! ranges and `&str` patterns as strategies, [`collection`] and
//! [`option`] combinators, and the [`proptest!`]/`prop_assert*` macros.
//!
//! Unlike the real crate there is **no shrinking**: a failing case is
//! reported with its seed so it can be replayed by fixing
//! `PROPTEST_SEED`, but it is not minimized. Cases are generated from a
//! fresh random seed per run (override with the `PROPTEST_SEED`
//! environment variable for reproduction).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

pub mod arbitrary;
pub mod collection;
pub mod option;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub use strategy::{BoxedStrategy, Just, Strategy, Union};
pub use test_runner::{ProptestConfig, TestCaseError, TestRng};

/// Everything a test module usually imports.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// The `prop::` module alias (e.g. `prop::collection::vec`).
    pub use crate as prop;
}

pub use crate as prop;

/// Runs one property: `cases` random inputs drawn from `strategy`, each
/// passed to `test`. Called by the [`proptest!`] macro expansion.
///
/// A case that panics (a plain `assert!`/`unwrap()` in the body) rather
/// than returning `Err` unwinds with its own payload, after the replay
/// line has gone to stderr.
pub fn run_property<S: Strategy>(
    name: &str,
    config: &ProptestConfig,
    strategy: S,
    mut test: impl FnMut(S::Value) -> Result<(), TestCaseError>,
) {
    let base_seed = config.resolve_seed();
    for case in 0..config.cases {
        let mut rng = <TestRng as SeedableRng>::seed_from_u64(base_seed.wrapping_add(case as u64));
        let input = strategy.generate(&mut rng);
        let replay = || format!("at case {case} (replay with PROPTEST_SEED={base_seed})");
        match catch_unwind(AssertUnwindSafe(|| test(input))) {
            Ok(Ok(())) => {}
            Ok(Err(err)) => panic!("property `{name}` failed {}: {err}", replay()),
            Err(payload) => {
                eprintln!("property `{name}` panicked {}", replay());
                resume_unwind(payload);
            }
        }
    }
}

/// Returns a per-run base seed: `PROPTEST_SEED` if set, otherwise random.
pub(crate) fn entropy_seed() -> u64 {
    match std::env::var("PROPTEST_SEED") {
        Ok(s) => s.parse().unwrap_or_else(|_| panic!("PROPTEST_SEED must be a u64, got {s:?}")),
        Err(_) => rand::thread_rng().gen::<u64>(),
    }
}

/// Internal: boxes a strategy into a clonable trait object.
pub(crate) fn boxed_from<S: Strategy + 'static>(strategy: S) -> BoxedStrategy<S::Value> {
    BoxedStrategy { inner: Rc::new(move |rng: &mut StdRng| strategy.generate(rng)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "boom")]
    fn panicking_property_unwinds_with_its_own_payload() {
        run_property("boom_property", &ProptestConfig::with_cases(4), 0u8..8, |_| panic!("boom"));
    }

    /// Reruns the test above alone in a child process with output
    /// uncaptured, and reads the replay line off its stderr.
    #[test]
    fn panicking_property_reports_its_seed() {
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "tests::panicking_property_unwinds_with_its_own_payload"])
            .arg("--nocapture")
            .env("PROPTEST_SEED", "4242")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&child.stderr);
        let line = "property `boom_property` panicked at case 0 (replay with PROPTEST_SEED=4242)";
        assert!(stderr.contains(line), "no replay line on stderr:\n{stderr}");
    }
}
