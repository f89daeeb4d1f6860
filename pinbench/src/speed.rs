//! The host's speed, sampled while the program is measured, and the
//! placement of threads on the sandbox's cores.
//!
//! The sandbox's cores are shared with other tenants of the host: for
//! seconds or minutes at a time a core executes the same instructions up
//! to 40 % slower, each core on its own schedule (README.md, "Noise").
//! Wall and CPU time of the program carry that factor in full, and no
//! statistic taken inside a run removes a slow spell longer than the run.
//! So the program runs on one core, a sampler thread on the same core
//! executes a fixed piece of work every [`PERIOD`] and notes what it cost
//! in CPU time, and every timed sample is scaled by what that work costs
//! on a quiet core over what it cost while the sample was taken: the
//! metrics read as milliseconds on a quiet core of the sandbox. The
//! sampler takes about 2 % of the core.
//!
//! Linux only (`sched_setaffinity`, `CLOCK_THREAD_CPUTIME_ID`).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the sampler runs its work.
const PERIOD: Duration = Duration::from_millis(50);

/// Size of the sampler's work: about a millisecond.
const INSERTIONS: u64 = 20_000;

/// CPU time of the sampler's work on a quiet core of the sandbox, in
/// milliseconds: the quiet quartile of a run's costs lies between 0.86 and
/// 0.95. On another machine it scales every timed metric by one constant.
const QUIET_COST_MS: f64 = 0.92;

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// Words of a CPU mask: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used, in milliseconds.
fn thread_cpu_ms() -> f64 {
    let mut time = Timespec::default();
    // SAFETY: `time` is live, writable and of the layout clock_gettime(2)
    // documents for 64-bit Linux.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    time.sec as f64 * 1e3 + time.nsec as f64 / 1e6
}

/// The CPUs the calling thread may run on, in increasing order.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is live and writable and its size in bytes is passed;
    // pid 0 is the calling thread.
    let failed = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0;
    if failed {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Confines the calling thread, and what it spawns from now on, to `cpu`.
/// Where the kernel refuses, the thread stays where it may be.
fn pin_to(cpu: usize) {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is live and its size in bytes is passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) };
}

/// Moves the calling thread to the core the program does not run on:
/// for the load generators of `serve_edit`, which must not take the
/// program's core. With one core there is no other.
pub fn pin_beside_program() {
    if let Some(&first) = allowed_cpus().first() {
        pin_to(first);
    }
}

/// The sampler's work: a fixed sequence of hash-map insertions, vector
/// growth and small string allocations, which is what the analyzer spends
/// its time on. The work must slow down as the program does: over 340
/// pairs taken while the core's speed wandered by 60 %, the logarithm of a
/// `pinpoint check`'s time rose 0.99 per unit of the logarithm of the cost
/// of a shorter version of this work (correlation 0.88); a loop over a table that fits the
/// first-level cache hardly noticed the same spells (2.9 per unit).
fn work() -> u64 {
    // Fixed hash keys: the default `RandomState` would make every map cost
    // something else.
    let mut map: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x: u64 = 88_172_645_463_325_252;
    for _ in 0..INSERTIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(x & 4095).or_default().push(x);
    }
    let text: String = (0..INSERTIONS / 32).map(|i| i.to_string()).collect();
    map.values().map(|v| v.len() as u64).sum::<u64>() + text.len() as u64
}

/// A running sampler; dropping it stops and joins the thread.
#[derive(Debug)]
pub struct Speed {
    /// When each sample was taken and what the work cost, in milliseconds
    /// of CPU time.
    samples: Arc<Mutex<Vec<(Instant, f64)>>>,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
}

impl Speed {
    /// Confines the calling thread — and so every child process and thread
    /// it starts — to the last core it may use, and starts the sampler
    /// there.
    pub fn start() -> Speed {
        if let Some(&last) = allowed_cpus().last() {
            pin_to(last);
        }
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let samples = Arc::clone(&samples);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // The flag publishes no other data.
                while !stop.load(Ordering::Relaxed) {
                    let before = thread_cpu_ms();
                    std::hint::black_box(work());
                    let cost = thread_cpu_ms() - before;
                    samples
                        .lock()
                        .expect("no thread panics holding the samples")
                        .push((Instant::now(), cost));
                    std::thread::sleep(PERIOD);
                }
            })
        };
        Speed {
            samples,
            stop,
            sampler: Some(sampler),
        }
    }

    /// What to multiply a time measured over `wall` from `from` by to read
    /// it as time on a quiet core: the quiet cost of the sampler's work
    /// over its mean cost in that interval (reaching back two periods, so
    /// that the shortest interval has a sample).
    pub fn factor(&self, from: Instant, wall: Duration) -> f64 {
        let to = from + wall;
        let samples = self
            .samples
            .lock()
            .expect("no thread panics holding the samples");
        let within: Vec<f64> = samples
            .iter()
            .filter(|(at, _)| *at + 2 * PERIOD >= from && *at <= to)
            .map(|(_, cost)| *cost)
            .collect();
        if within.is_empty() {
            return 1.0;
        }
        QUIET_COST_MS * within.len() as f64 / within.iter().sum::<f64>()
    }

    /// Every sample's cost so far, for the run's log.
    pub fn costs(&self) -> Vec<f64> {
        let samples = self
            .samples
            .lock()
            .expect("no thread panics holding the samples");
        samples.iter().map(|(_, cost)| *cost).collect()
    }
}

impl Drop for Speed {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(sampler) = self.sampler.take() {
            // A sampler that panicked has nothing to report here.
            let _ = sampler.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_fixed_and_costs_time() {
        let before = thread_cpu_ms();
        assert_eq!(work(), work());
        assert!(thread_cpu_ms() > before);
    }

    #[test]
    fn factor_is_defined_with_and_without_samples() {
        let speed = Speed::start();
        let start = Instant::now();
        assert_eq!(speed.factor(start + PERIOD * 100, PERIOD), 1.0);
        while speed.costs().len() < 3 {
            std::thread::sleep(PERIOD);
        }
        let factor = speed.factor(start, start.elapsed());
        assert!(factor.is_finite() && factor > 0.0);
    }
}
