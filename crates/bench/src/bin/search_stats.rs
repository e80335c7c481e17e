//! Emits a BENCH json line comparing the classic single-worker
//! connection search with the 8-plan portfolio on the adversarial fan-in
//! design: wall time, nodes expanded, nodes/second and the measured
//! speedup, plus the exact-fallback count of a probe sweep over the same
//! design (how often the incremental Gomory tableau overflowed and fell
//! back to the exact solver, and the batched-probing counters of the
//! same sweep). The output is one JSON object on stdout,
//! suitable for machine-diffing runs before and after search changes.
//! The line's fields are declared in
//! [`mcs_bench::compare::SEARCH_STATS`] and filled by
//! [`mcs_bench::search_side`] and [`mcs_bench::search_probe`].

use std::time::Instant;

use mcs_bench::compare::SEARCH_STATS;
use mcs_bench::{search_probe, search_side, Line};
use mcs_cdfg::{designs::synthetic, PortMode};
use mcs_connect::{synthesize_with_stats, SearchConfig};
use mcs_pinalloc::PinChecker;

/// Runs the search with `workers` and fills the line's `side` fields.
fn run(line: &mut Line, side: &str, workers: usize) {
    let d = synthetic::portfolio_adversarial(6);
    let cfg = SearchConfig::new(2).with_workers(workers);
    let t0 = Instant::now();
    let (ic, stats) = synthesize_with_stats(d.cdfg(), PortMode::Unidirectional, &cfg);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    search_side(line, side, ic.is_ok(), &stats, wall_ms);
}

/// Probes every transfer of the same design into every control-step
/// group through one batched call and reports the sweep's cache stats:
/// how many probes overflowed the incremental tableau and fell back to
/// the exact solver, plus the batched-path counters.
fn probe_sweep_stats() -> mcs_pinalloc::ProbeCacheStats {
    let d = synthetic::portfolio_adversarial(6);
    let Ok(mut checker) = PinChecker::new(d.cdfg(), 2) else {
        return mcs_pinalloc::ProbeCacheStats::default();
    };
    let slate: Vec<_> = d
        .cdfg()
        .io_ops()
        .flat_map(|op| (0..2i64).map(move |k| (op, k)))
        .collect();
    let _ = checker.probe_candidates(&slate);
    checker.probe_stats()
}

fn main() {
    let mut line = Line::new(&SEARCH_STATS);
    line.set("bench", "portfolio_adversarial")
        .set("senders", 6u32);
    run(&mut line, "before", 1);
    run(&mut line, "after", 8);
    search_probe(&mut line, &probe_sweep_stats());
    println!("{}", line.finish());
}
