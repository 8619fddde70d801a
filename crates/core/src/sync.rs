//! The workspace's one lock type.
//!
//! Every lock under `crates/*/src` is a [`Mutex`]: std's, with
//! poisoning absorbed. A holder that panics leaves its state sound
//! (every critical section in the workspace moves its queues and
//! counters together), so passing the panic on to the next locker would
//! only wedge every sender, receiver and worker behind that lock. The
//! panic itself still surfaces where it happened: a session's is caught
//! and resolves its handle, a thread's fails its join.

use std::sync::{PoisonError, TryLockError};

pub use std::sync::MutexGuard;

/// A mutual-exclusion lock that a panicking holder does not poison.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A lock holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is free and takes it.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the lock if it is free now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn try_lock_fails_only_while_held() {
        let m = Mutex::new(0);
        let held = m.lock();
        assert!(m.try_lock().is_none());
        drop(held);
        assert_eq!(m.try_lock().map(|v| *v), Some(0));
    }

    #[test]
    fn panicking_holder_does_not_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = 7;
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 7);
        assert_eq!(m.try_lock().map(|v| *v), Some(7));
    }
}
