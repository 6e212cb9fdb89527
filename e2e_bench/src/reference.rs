//! Reference work: a fixed piece of computation, independent of the
//! advisor, run after every measured interval to read how fast the
//! host's CPUs ran at that moment.
//!
//! On a shared virtual machine the same code runs at different speeds
//! from second to second. Two things change. The hypervisor steals
//! time from a CPU that has work; the tick counters show that, and
//! [`crate::harness::corrected_ms`] scales it out. And the physical
//! core is shared with other guests, so the instructions this process
//! retires per second of its own CPU time rise and fall with their
//! load; no counter shows that. On the 2-vCPU host this benchmark was
//! built on, op times of one unchanged input moved between 0.6× and
//! 1.6× of their median within a run, in stretches of several ops,
//! with user CPU time moving as much as wall time.
//!
//! The reference work is of the same kind as the advisor's — sorting,
//! hashing into a map, formatting and parsing numbers through the
//! heap — and slows down in the same stretches (latency-bound work such
//! as a pointer chase did not, so it is left out). It is timed in the
//! CPU time of the threads that ran it, so stolen time, which the steal
//! correction already removes, is not counted twice. It touches nothing
//! in the repository, so a change to the advisor moves the op times and
//! not the reference.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// CPU time of [`UNITS_PER_THREAD`] units of work on one thread of
/// the 2-vCPU x86-64 guest the benchmark was tuned on, running alone,
/// ms: corrected op times read as milliseconds at that speed.
pub const NOMINAL_MS: f64 = 1.2;

/// Units of [`work`] per reference thread in one [`run`].
const UNITS_PER_THREAD: usize = 4;

/// Keys sorted per unit.
const SORT_KEYS: u64 = 4_500;

/// Map updates per unit.
const MAP_UPDATES: u64 = 2_250;

/// Numbers formatted and parsed back per unit.
const TEXT_NUMBERS: u64 = 1_500;

/// One unit of the work: sort pseudo-random keys, fold keys into a hash
/// map, then format numbers into a heap string and parse them back.
/// Returns a checksum so none of it is optimised away.
pub fn work() -> u64 {
    let mut keys: Vec<u64> = (0..SORT_KEYS)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7)
        .collect();
    keys.sort_unstable();
    let mut map = HashMap::new();
    for i in 0..MAP_UPDATES {
        *map.entry(i.wrapping_mul(2_654_435_761) % 1024)
            .or_insert(0u64) += i;
    }
    let folded = map.values().fold(0u64, |x, y| x.wrapping_add(*y));
    let mut text = String::new();
    for k in 0..TEXT_NUMBERS {
        let _ = write!(text, "{}\t", keys[(k as usize) % keys.len()] ^ k);
    }
    let parsed = text
        .split('\t')
        .filter_map(|s| s.parse::<u64>().ok())
        .fold(0u64, u64::wrapping_add);
    keys[SORT_KEYS as usize / 3] ^ folded ^ parsed
}

/// Threads the reference work runs on: as many as the workload's
/// advisor threads (`WASLA_THREADS`), so an op that fans out and its
/// reference share the same CPUs.
fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("WASLA_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1usize)
            .max(1)
    })
}

/// `struct timespec` of 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time this thread has run for, ns, from the thread's CPU-time
/// clock, which leaves out time stolen by the hypervisor; `None` where
/// it cannot be read. (`/proc/thread-self/schedstat` holds the same
/// figure but only as of the last scheduler tick, too coarse here.)
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> Option<u64> {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call,
    // and the C library that std links provides `clock_gettime`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> Option<u64> {
    None
}

/// Runs [`UNITS_PER_THREAD`] units of work per reference thread and
/// returns their CPU time per [`UNITS_PER_THREAD`] units, in ms (wall
/// time where CPU time cannot be read). The threads pull units from a
/// shared counter, as the advisor's parallel map pulls tasks.
pub fn run() -> f64 {
    let threads = threads();
    let units = threads * UNITS_PER_THREAD;
    let next = AtomicUsize::new(0);
    let pull = || {
        let (cpu0, wall0) = (thread_cpu_ns(), Instant::now());
        let mut done = 0;
        while next.fetch_add(1, Ordering::Relaxed) < units {
            black_box(work());
            done += 1;
        }
        let ms = match (cpu0, thread_cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e6,
            _ => wall0.elapsed().as_secs_f64() * 1e3,
        };
        (ms, done)
    };
    let (ms, done) = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(pull)).collect();
        others
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .fold(pull(), |(ms, done), (m, d)| (ms + m, done + d))
    });
    ms / done.max(1) as f64 * UNITS_PER_THREAD as f64
}

/// Share of a measured interval's length for which [`sample`] runs
/// the reference work after it.
const SAMPLE_SHARE: f64 = 0.02;

/// Runs the reference work after an interval of length `measured`:
/// once, and again until the runs have taken [`SAMPLE_SHARE`] of
/// `measured`, so a long interval such as a set-up repetition has its
/// speed read from more than one run. Returns the mean of [`run`].
pub fn sample(measured: Duration) -> f64 {
    let start = Instant::now();
    let (mut sum, mut runs) = (run(), 1);
    while start.elapsed().as_secs_f64() < SAMPLE_SHARE * measured.as_secs_f64() {
        sum += run();
        runs += 1;
    }
    sum / runs as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_deterministic() {
        assert_eq!(work(), work());
    }

    #[test]
    fn run_reports_a_positive_time() {
        let ms = run();
        assert!(ms.is_finite() && ms > 0.0, "{ms}");
    }
}
