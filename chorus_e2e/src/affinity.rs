//! Where a run's threads go: the client side on one CPU, the server
//! side on another.
//!
//! On the 2-vCPU guest this benchmark was sized on, a run left to the
//! scheduler lands in one of two placements, chosen when the threads
//! are created and kept for the run: every thread on one vCPU
//! (`kvs_rt_tcp` p50 ≈ 27 µs) or spread over both, where each hand-off
//! between the sides wakes the other vCPU (≈ 85 µs). Which one a run
//! gets is a coin toss, so its figures cannot be compared between runs.
//! Pinning everything to one CPU would settle it, but the code under
//! test would then never spin, contend or run in parallel. So the toss
//! is settled the other way: as two hosts would be, the client's
//! threads (the driver and the link threads of its transport) share
//! one CPU and the server's another.
//!
//! A thread inherits the mask of the thread that spawns it, which is
//! how the crates' own threads are placed from outside: the rigs call
//! [`place`] before they build each end.

use std::sync::OnceLock;

#[derive(Clone, Copy)]
pub enum Place {
    /// The driver, and what the client's transport spawns.
    ClientSide,
    /// The server thread, and what the server's transport spawns.
    ServerSide,
    /// Every CPU the process started with: pool workers, and the
    /// threads `SimCluster` spawns per op, go where the scheduler likes.
    Anywhere,
}

const WORDS: usize = 16;
type Mask = [u64; WORDS];

struct Cpus {
    all: Mask,
    client: usize,
    server: usize,
}

static CPUS: OnceLock<Option<Cpus>> = OnceLock::new();

#[cfg(target_os = "linux")]
mod sys {
    // glibc's wrappers of the two syscalls; `std` already links libc.
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

#[cfg(target_os = "linux")]
fn allowed() -> Option<Mask> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let status =
        unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (status == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set(mask: &Mask) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed; it
    // is a subset of the mask the kernel reported at start. A refusal
    // leaves the thread where it was, which only costs steadiness.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn allowed() -> Option<Mask> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &Mask) {}

/// Reads the CPUs this process may use and picks the two sides' CPUs.
/// Call once, first thing, from the main thread. Returns (client CPU,
/// server CPU), or `None` where fewer than two CPUs are allowed (or off
/// Linux): every [`place`] is then a no-op.
pub fn init() -> Option<(usize, usize)> {
    let cpus = CPUS.get_or_init(|| {
        let all = allowed()?;
        let mut set_bits = (0..WORDS * 64).rev().filter(|cpu| all[cpu / 64] >> (cpu % 64) & 1 == 1);
        // The highest two: CPU 0 tends to take the interrupts, so the
        // server side gets it only on a two-CPU host.
        let client = set_bits.next()?;
        let server = set_bits.next()?;
        Some(Cpus { all, client, server })
    });
    cpus.as_ref().map(|cpus| (cpus.client, cpus.server))
}

/// Moves the calling thread; threads it spawns from now on follow it.
pub fn place(place: Place) {
    let Some(Some(cpus)) = CPUS.get() else { return };
    let one = |cpu: usize| {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        mask
    };
    match place {
        Place::ClientSide => set(&one(cpus.client)),
        Place::ServerSide => set(&one(cpus.server)),
        Place::Anywhere => set(&cpus.all),
    }
}
