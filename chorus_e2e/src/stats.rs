//! Small numeric helpers, `/proc` readers and the micro-probe timer.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The `p`-quantile of an ascending slice (nearest rank).
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    match sorted.len() {
        0 => T::default(),
        len => sorted[(((len - 1) as f64) * p).round() as usize],
    }
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// The timing figures of a measured phase, each the median over ten
/// equal op-count slices: a disturbance that lasts a second (this is a
/// shared host) spoils one slice, not the figure.
pub struct Sliced {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
}

/// `done_ns[i]` is when op `i` completed (ns since the phase began),
/// `lat_ns[i]` how long it took.
pub fn sliced(done_ns: &[u64], lat_ns: &[u32]) -> Sliced {
    const SLICES: usize = 10;
    let per_slice = (done_ns.len() / SLICES).max(1);
    let (mut rates, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    let mut slice_start = 0u64;
    for (done, lat) in done_ns.chunks_exact(per_slice).zip(lat_ns.chunks_exact(per_slice)) {
        let slice_end = done[per_slice - 1];
        rates.push(per_slice as f64 * 1e9 / (slice_end - slice_start).max(1) as f64);
        slice_start = slice_end;
        let mut lat = lat.to_vec();
        lat.sort_unstable();
        p50s.push(f64::from(percentile(&lat, 0.5)) / 1e3);
        p90s.push(f64::from(percentile(&lat, 0.9)) / 1e3);
    }
    Sliced {
        ops_per_s: median_f64(&mut rates),
        p50_us: median_f64(&mut p50s),
        p90_us: median_f64(&mut p90s),
    }
}

fn proc_status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Resident set size of this process, in bytes.
pub fn rss_bytes() -> u64 {
    proc_status_kb("VmRSS:") * 1024
}

/// OS threads in this process.
pub fn thread_count() -> u64 {
    proc_status_kb("Threads:")
}

/// User + system CPU time of this process (all threads), in µs, from
/// `/proc/self/stat` at the kernel's 100 Hz accounting tick.
pub fn cpu_us() -> u64 {
    const US_PER_TICK: u64 = 10_000;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields follow the parenthesised command name, which may itself
    // contain spaces: utime and stime are the 12th and 13th after it.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime + stime) * US_PER_TICK
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median ns per call of `f`, over batches sized to a few milliseconds.
/// `scale` shrinks the batch count for `--quick`.
pub fn time_ns<R>(scale: f64, mut f: impl FnMut() -> R) -> f64 {
    const BATCH: Duration = Duration::from_millis(4);
    let batches = ((25.0 * scale) as usize).max(3);
    // Calibrate the batch size on a doubling run, which also warms up.
    let mut per_batch = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..per_batch {
            black_box(f());
        }
        if start.elapsed() >= BATCH || per_batch >= 1 << 24 {
            break;
        }
        per_batch *= 2;
    }
    let mut samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..per_batch {
            black_box(f());
        }
        samples.push(start.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median_f64(&mut samples)
}
