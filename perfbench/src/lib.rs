//! End-to-end and per-layer benchmark for the multichip-hls workspace.
//!
//! One process runs one named workload for a fixed number of seconds in
//! a closed loop, checks every distinct result outside the timed loop,
//! and prints each metric by name with its unit. The last line of
//! standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//!
//! The benchmark drives the program only through its public entry
//! points. Untraced runs (`--trace 0`) report the end-to-end metrics;
//! traced runs (`--trace 1`, the `perfbench-traced` binary with its
//! counting allocator) report the per-layer metrics. See `README.md`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub mod calib;
pub mod check;
pub mod connect_cold;
pub mod layers;
pub mod pin_sweep;
pub mod serve_mix;
pub mod stats;
pub mod trace;

use calib::{Interval, Speed};

/// Set by the traced binary's allocator while a traced phase runs.
pub static ALLOC_COUNTING: AtomicBool = AtomicBool::new(false);
/// Heap allocations counted while [`ALLOC_COUNTING`] was set.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocations counted so far (always 0 in the untraced binary).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["connect-cold", "pin-sweep", "serve-mix"];

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Set-ups repeat until they have taken this long in total.
pub const SETUP_SECONDS: f64 = 0.25;
/// Most set-ups per run.
pub const SETUP_MAX_REPS: usize = 1000;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A usage message naming the bad or missing flag.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed".to_string())?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0 && s.is_finite())
                            .ok_or("bad --seconds")?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (expected one of {})",
                WORKLOADS.join(", ")
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Sums of the paper's quality-of-result measures over the verified
/// feasible results of one pass over a workload's distinct jobs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Qor {
    /// Verified feasible results.
    pub feasible: u64,
    /// Sum of pipe lengths (control steps).
    pub pipe_steps: u64,
    /// Sum of chip pins used (environment excluded).
    pub pins: u64,
    /// Sum of interchip buses.
    pub buses: u64,
}

impl Qor {
    /// Adds one feasible result.
    pub fn add(&mut self, pipe: i64, pins: u32, buses: u32) {
        self.feasible += 1;
        self.pipe_steps += pipe.max(0) as u64;
        self.pins += u64::from(pins);
        self.buses += u64::from(buses);
    }

    /// Adds another set of results.
    pub fn absorb(&mut self, other: &Qor) {
        self.feasible += other.feasible;
        self.pipe_steps += other.pipe_steps;
        self.pins += other.pins;
        self.buses += other.buses;
    }
}

/// Everything one workload run measured. Times are kept as intervals
/// on the benchmark's clock; the end-to-end metrics rescale them to the
/// reference speed (see [`calib`]).
#[derive(Debug, Default)]
pub struct Report {
    /// Every set-up; `setup_s` is their median.
    pub setups: Vec<Interval>,
    /// The measured rounds; `jobs_per_s` is the median of their rates.
    pub rounds: Vec<Round>,
    /// The percentile `latency_tail_ms` reports, in tenths of a percent.
    pub tail_permille: usize,
    /// Every attempted job.
    pub latencies: Vec<Interval>,
    /// Serve responses tagged `"cache":"hit"` (serve-mix).
    pub hits: Vec<Interval>,
    /// Serve responses tagged `cold` or `warm` (serve-mix).
    pub misses: Vec<Interval>,
    /// Jobs attempted in the measured rounds.
    pub attempted: u64,
    /// Jobs that failed: error, rejection, panic, timeout or a failed
    /// correctness check.
    pub failed: u64,
    /// Quality of result over the distinct jobs.
    pub qor: Qor,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one job: the interval it took and whether it failed.
    pub fn job(&mut self, iv: Interval, ok: bool) {
        self.latencies.push(iv);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Wall seconds of the measured rounds.
    pub fn wall_s(&self) -> f64 {
        self.rounds.iter().map(Round::wall_secs).sum()
    }
}

/// Runs `setup` at least [`SETUP_REPS`] times and until the set-ups
/// have taken [`SETUP_SECONDS`], and returns the last result with the
/// interval of every set-up. The window spans many set-ups, so one slow
/// moment of the machine does not decide the figure.
pub fn measure_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<Interval>) {
    let mut setups: Vec<Interval> = Vec::new();
    let mut last = None;
    loop {
        let total: f64 = setups.iter().map(Interval::secs).sum();
        if setups.len() >= SETUP_REPS && (total >= SETUP_SECONDS || setups.len() >= SETUP_MAX_REPS)
        {
            break;
        }
        drop(last.take());
        let (out, iv) = calib::timed(&mut setup);
        last = Some(out);
        setups.push(iv);
    }
    (last.expect("SETUP_REPS is positive"), setups)
}

/// One measured round: the jobs it ran and the intervals it measured.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Jobs the round ran.
    pub jobs: u64,
    /// The timed parts of the round: its jobs, or for concurrent jobs
    /// the phases that ran them.
    pub busy: Vec<Interval>,
}

impl Round {
    /// Wall seconds of the round.
    pub fn wall_secs(&self) -> f64 {
        self.busy.iter().map(Interval::secs).sum()
    }
}

/// Runs whole rounds until `seconds` of wall time have been measured (at
/// least one round) and returns them. Each call of `round` runs one
/// round; its timed parts may leave out untimed work such as generating
/// the round's requests or checking responses.
pub fn run_rounds(seconds: f64, mut round: impl FnMut() -> Round) -> Vec<Round> {
    let mut rounds = vec![round()];
    while rounds.iter().map(Round::wall_secs).sum::<f64>() < seconds {
        rounds.push(round());
    }
    rounds
}

/// The two halves of a traced run: the first untraced, the second with
/// tracing and the counting allocator on.
pub struct TracedRun {
    /// The traced half.
    pub traced: Report,
    /// The untraced half.
    pub untraced: Report,
    /// Heap allocations during the traced half.
    pub allocs: u64,
    /// Benchmark-side spans of the traced half.
    pub tracer: trace::Tracer,
}

/// Runs `half` untraced for half of `args.seconds`, then traced for the
/// other half. `half` gets the seconds to run, the report to fill and,
/// in the traced half, the span store.
///
/// # Errors
///
/// The first error `half` returns.
pub fn run_traced(
    args: &Args,
    mut half: impl FnMut(f64, &mut Report, Option<&trace::Tracer>) -> Result<(), String>,
) -> Result<TracedRun, String> {
    let seconds = args.seconds / 2.0;
    let mut untraced = Report::default();
    half(seconds, &mut untraced, None)?;
    let tracer = trace::Tracer::default();
    let mut traced = Report::default();
    let before = allocs();
    ALLOC_COUNTING.store(true, Ordering::Relaxed);
    let outcome = half(seconds, &mut traced, Some(&tracer));
    ALLOC_COUNTING.store(false, Ordering::Relaxed);
    outcome?;
    Ok(TracedRun {
        traced,
        untraced,
        allocs: allocs() - before,
        tracer,
    })
}

impl TracedRun {
    /// Jobs the traced half ran.
    pub fn jobs(&self) -> f64 {
        self.traced.attempted as f64
    }

    /// Adds `trace.overhead_ratio` and `connect.allocs_per_node` to
    /// `layers`, writes the spans, and folds both halves into one report:
    /// jobs and failures of both, latencies of the traced half, and the
    /// serve hit/miss latencies of the untraced half.
    ///
    /// # Errors
    ///
    /// Failure to write the span file.
    pub fn finish(
        self,
        args: &Args,
        mut layers: BTreeMap<&'static str, f64>,
    ) -> Result<Report, String> {
        let per_job = |r: &Report| r.wall_s() / r.attempted.max(1) as f64;
        layers.insert(
            "trace.overhead_ratio",
            per_job(&self.traced) / per_job(&self.untraced) - 1.0,
        );
        let nodes = layers.get("connect.nodes").copied().unwrap_or(0.0) * self.jobs();
        if nodes > 0.0 {
            layers.insert("connect.allocs_per_node", self.allocs as f64 / nodes);
        }
        let path = trace::spans_path(&args.workload, args.seed);
        self.tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let mut report = self.traced;
        report.layers = layers;
        report.attempted += self.untraced.attempted;
        report.failed += self.untraced.failed;
        report.notes.extend(self.untraced.notes);
        report.hits = self.untraced.hits;
        report.misses = self.untraced.misses;
        Ok(report)
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's only source of generated randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One metric line of the result.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn end_to_end(r: &Report, speed: &Speed) -> (Vec<Metric>, Vec<String>) {
    let ms = |ivs: &[Interval]| -> Vec<f64> { ivs.iter().map(|&iv| speed.ms(iv)).collect() };
    let mut lat = ms(&r.latencies);
    let p50 = stats::median(&mut lat);
    let tail = stats::tail(&lat, r.tail_permille);
    let mut rates: Vec<f64> = r
        .rounds
        .iter()
        .map(|round| {
            let secs: f64 = round.busy.iter().map(|&iv| speed.secs(iv)).sum();
            round.jobs as f64 / secs
        })
        .collect();
    let mut setups: Vec<f64> = r.setups.iter().map(|&iv| speed.secs(iv)).collect();
    let mut notes = vec![
        format!(
            "times are at the reference speed: the calibration kernel's median was {:.1} us over {} samples (reference {} us)",
            speed.kernel_p50_us(),
            speed.samples(),
            calib::REF_US
        ),
        format!(
            "latency_tail_ms is p{} over {} jobs ({} beyond it)",
            tail.percentile, tail.samples, tail.beyond
        ),
        format!(
            "jobs_per_s is the median of {} rounds ({} jobs in {:.3} s of wall time)",
            rates.len(),
            r.attempted,
            r.wall_s()
        ),
        format!("setup_s is the median of {} set-ups", setups.len()),
    ];
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: stats::median(&mut setups),
            unit: "s",
        },
        Metric {
            name: "jobs_per_s",
            value: stats::median(&mut rates),
            unit: "1/s",
        },
        Metric {
            name: "latency_p50_ms",
            value: p50,
            unit: "ms",
        },
        Metric {
            name: "latency_tail_ms",
            value: tail.value,
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MiB",
        },
        Metric {
            name: "qor_feasible",
            value: r.qor.feasible as f64,
            unit: "count",
        },
        Metric {
            name: "qor_pipe_steps",
            value: r.qor.pipe_steps as f64,
            unit: "count",
        },
        Metric {
            name: "qor_pins",
            value: r.qor.pins as f64,
            unit: "count",
        },
        Metric {
            name: "qor_buses",
            value: r.qor.buses as f64,
            unit: "count",
        },
    ];
    // The serve-only latencies and the failure ratio are printed for
    // every run but are not in the result object: they are not defined
    // (or are 0) on some workloads. See README.md.
    for (name, samples) in [("hit", &r.hits), ("miss", &r.misses)] {
        if samples.is_empty() {
            notes.push(format!("{name}_p50_ms n/a ms\n{name}_tail_ms n/a ms"));
        } else {
            let mut s = ms(samples);
            let t = stats::tail(&s, r.tail_permille);
            notes.push(format!(
                "{name}_p50_ms {} ms\n{name}_tail_ms {} ms (p{} over {} responses, {} beyond)",
                stats::median(&mut s),
                t.value,
                t.percentile,
                t.samples,
                t.beyond
            ));
        }
    }
    notes.push(format!(
        "failed_ratio {} ratio ({} of {} jobs)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    ));
    (metrics, notes)
}

/// Prints the human-readable lines and the final JSON result line.
pub fn print_result(r: &Report, speed: &Speed, traced: bool) {
    for n in &r.notes {
        println!("{n}");
    }
    let metrics: Vec<Metric> = if traced {
        layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                // `+ 0.0` turns the -0.0 an empty float sum gives into 0.
                value: r.layers.get(name).copied().unwrap_or(0.0) + 0.0,
                unit,
            })
            .collect()
    } else {
        let (m, notes) = end_to_end(r, speed);
        for n in notes {
            println!("{n}");
        }
        m
    };
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        body.join(",")
    );
}

/// JSON has no NaN or infinity; report them as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The benchmark's entry point; `traced_binary` says whether the
/// counting allocator is installed.
pub fn main_with(traced_binary: bool) -> std::process::ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return std::process::ExitCode::from(2);
        }
    };
    if args.trace && !traced_binary {
        eprintln!("perfbench: traced runs use the perfbench-traced binary");
        return std::process::ExitCode::from(2);
    }
    let sampler = calib::Sampler::start();
    let report = match args.workload.as_str() {
        "connect-cold" => connect_cold::run(&args),
        "pin-sweep" => pin_sweep::run(&args),
        "serve-mix" => serve_mix::run(&args),
        _ => unreachable!("Args::parse checks the workload name"),
    };
    let speed = sampler.finish();
    match report {
        Ok(r) => {
            print_result(&r, &speed, args.trace);
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::ExitCode::FAILURE
        }
    }
}
