//! Machine-speed calibration.
//!
//! The benchmark runs on small shared hosts whose speed drifts by a
//! third or more within a minute. A sampler thread runs a fixed kernel
//! of the benchmark's own (no code of the program, no heap allocation)
//! every [`PERIOD`] from the start of the process to its end, and
//! records how long each run took. Every timed interval is then
//! rescaled by `REF_US` over the median kernel time measured during it
//! (or next to it, for intervals shorter than a few periods). The
//! end-to-end times are therefore times at the reference speed, at
//! which the kernel takes [`REF_US`]: a change to the program moves them
//! as it moves wall time, and a change of the host's speed cancels.
//!
//! The kernel only sees the speed of the processor it runs on, so
//! `run.py` pins the benchmark process, sampler included, to one CPU.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::{stats, Rng};

/// The kernel's time at the reference speed, in microseconds.
pub const REF_US: f64 = 80.0;

/// Time between the end of one kernel run and the start of the next.
pub const PERIOD: Duration = Duration::from_millis(10);

/// Kernel samples an interval's speed is the median of, at least.
const MIN_SAMPLES: usize = 5;

/// Keys the kernel sorts, hashes and looks up.
const KERNEL_KEYS: usize = 1500;

/// Slots of the kernel's open-addressing table (a power of two).
const TABLE_SLOTS: usize = 4096;

/// Samples reserved up front (ten minutes' worth), so the sampler does
/// not allocate while a traced run counts allocations.
const RESERVED_SAMPLES: usize = 60_000;

/// Seconds since the benchmark's clock started (its first use).
pub fn now() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// A timed interval on the benchmark's clock, in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    /// Start.
    pub start: f64,
    /// End.
    pub end: f64,
}

impl Interval {
    /// Wall seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// Wall milliseconds.
    pub fn ms(&self) -> f64 {
        self.secs() * 1e3
    }
}

/// Runs `f` and returns its result with the interval it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Interval) {
    let start = now();
    let out = f();
    (out, Interval { start, end: now() })
}

/// Sorts pseudo-random keys, inserts them into an open-addressing table
/// and looks each one's successor up; returns the wall microseconds.
fn kernel_us(keys: &mut [u64], table: &mut [u64]) -> f64 {
    let t = Instant::now();
    let mut rng = Rng::new(12345, 9);
    for k in keys.iter_mut() {
        *k = 1 + rng.next_u64() % 100_000;
    }
    keys.sort_unstable();
    table.fill(0);
    let mask = table.len() - 1;
    for &k in keys.iter() {
        let mut slot = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask;
        while table[slot] != 0 && table[slot] != k {
            slot = (slot + 1) & mask;
        }
        table[slot] = k;
    }
    let hits = keys
        .iter()
        .filter(|&&k| keys.binary_search(&(k + 1)).is_ok())
        .count();
    std::hint::black_box((hits, &table));
    t.elapsed().as_secs_f64() * 1e6
}

/// One kernel run: when it started and how long it took.
#[derive(Clone, Copy, Debug)]
struct Sample {
    at: f64,
    us: f64,
}

/// The running sampler thread. Dropping it stops the thread and waits
/// for it.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Vec<Sample>>>,
}

impl Sampler {
    /// Starts the sampler thread.
    pub fn start() -> Sampler {
        now();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut keys = vec![0u64; KERNEL_KEYS];
            let mut table = vec![0u64; TABLE_SLOTS];
            let mut samples = Vec::with_capacity(RESERVED_SAMPLES);
            kernel_us(&mut keys, &mut table);
            while !flag.load(Ordering::Relaxed) {
                let at = now();
                let us = kernel_us(&mut keys, &mut table);
                samples.push(Sample { at, us });
                std::thread::sleep(PERIOD);
            }
            samples
        });
        Sampler {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the sampler and returns what it measured.
    pub fn finish(mut self) -> Speed {
        Speed {
            samples: self.join(),
        }
    }

    fn join(&mut self) -> Vec<Sample> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .take()
            .map(|t| t.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.join();
    }
}

/// The host's speed over a run, as the sampler measured it.
#[derive(Debug)]
pub struct Speed {
    /// In order of `at`.
    samples: Vec<Sample>,
}

impl Speed {
    /// Seconds `iv` would have taken at the reference speed.
    pub fn secs(&self, iv: Interval) -> f64 {
        iv.secs() * self.factor(iv)
    }

    /// Milliseconds `iv` would have taken at the reference speed.
    pub fn ms(&self, iv: Interval) -> f64 {
        self.secs(iv) * 1e3
    }

    /// `REF_US` over the median kernel time of the samples taken during
    /// `iv`, widened around it to at least [`MIN_SAMPLES`]; 1 when there
    /// are no samples.
    fn factor(&self, iv: Interval) -> f64 {
        let s = &self.samples;
        if s.is_empty() {
            return 1.0;
        }
        let mut lo = s.partition_point(|x| x.at < iv.start);
        let mut hi = s.partition_point(|x| x.at <= iv.end);
        while hi - lo < MIN_SAMPLES.min(s.len()) {
            // Widen towards the nearer neighbour on either side.
            let before = lo.checked_sub(1).map(|i| iv.start - s[i].at);
            let after = s.get(hi).map(|x| x.at - iv.end);
            match (before, after) {
                (Some(b), Some(a)) if b <= a => lo -= 1,
                (Some(_), None) => lo -= 1,
                _ => hi += 1,
            }
        }
        let mut us: Vec<f64> = s[lo..hi].iter().map(|x| x.us).collect();
        REF_US / stats::median(&mut us)
    }

    /// Median kernel time over the whole run, in microseconds.
    pub fn kernel_p50_us(&self) -> f64 {
        let mut us: Vec<f64> = self.samples.iter().map(|x| x.us).collect();
        stats::median(&mut us)
    }

    /// Kernel samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed(us: &[f64]) -> Speed {
        let samples = us
            .iter()
            .enumerate()
            .map(|(i, &us)| Sample { at: i as f64, us })
            .collect();
        Speed { samples }
    }

    #[test]
    fn rescales_by_the_samples_during_an_interval() {
        let s = speed(&[
            40.0, 40.0, 40.0, 160.0, 160.0, 160.0, 160.0, 160.0, 40.0, 40.0,
        ]);
        // Samples 3..=7 ran during the interval, on a host at half the
        // reference speed: it would have taken half as long.
        let iv = Interval {
            start: 2.5,
            end: 7.5,
        };
        assert_eq!(s.secs(iv), 2.5);
    }

    #[test]
    fn widens_a_short_interval_to_its_nearest_samples() {
        let s = speed(&[160.0, 160.0, 40.0, 40.0, 40.0, 40.0, 40.0, 160.0]);
        // No sample ran during it; the five nearest are 2..=6.
        let iv = Interval {
            start: 4.1,
            end: 4.2,
        };
        assert!((s.factor(iv) - 2.0).abs() < 1e-12);
        assert_eq!(speed(&[]).factor(iv), 1.0);
    }
}
