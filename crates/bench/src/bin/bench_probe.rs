//! Emits BENCH json lines (one per design) comparing three probe
//! engines on the same pin-allocation tableau: the adaptive-i64 trail
//! engine, the trail engine forced onto the i128 representation from
//! the first pivot, and the legacy clone-per-probe path — wall time,
//! heap allocations and a verdict digest each. All three engines must
//! agree on every verdict and probe count — the process exits nonzero
//! when the line's `agree` is false, which is the differential gate CI
//! runs. The line's fields are declared in [`mcs_bench::compare::PROBE`].

use std::time::Instant;

use mcs_bench::compare::PROBE;
use mcs_bench::{verdict_digest, CountingAlloc, Line};
use mcs_cdfg::designs::{ar_filter, synthetic, Design};
use mcs_cdfg::OpId;
use mcs_pinalloc::PinChecker;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Probes each of the design's transfers into every control-step group,
/// `rounds` times, through one engine. The checker is warm (one unmeasured
/// round) so one-time arena growth does not count against either engine.
/// Fills the line's `side` fields.
fn sweep(
    line: &mut Line,
    side: &str,
    checker: &mut PinChecker,
    ops: &[OpId],
    rate: u32,
    rounds: usize,
    via_clone: bool,
) {
    let mut verdicts: Vec<bool> = Vec::with_capacity(rounds * ops.len() * rate as usize);
    for &op in ops {
        for k in 0..rate as i64 {
            let _ = checker.probe_uncached(op, k, via_clone);
        }
    }
    let allocs0 = CountingAlloc::allocations();
    let bytes0 = CountingAlloc::bytes();
    let t0 = Instant::now();
    for _ in 0..rounds {
        for &op in ops {
            for k in 0..rate as i64 {
                verdicts.push(checker.probe_uncached(op, k, via_clone));
            }
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (allocations, bytes) = (CountingAlloc::allocations(), CountingAlloc::bytes());
    let feasible = verdicts.iter().filter(|&&v| v).count();
    line.set(&format!("{side}.probes"), verdicts.len())
        .set(&format!("{side}.feasible"), feasible)
        .set(&format!("{side}.allocations"), allocations - allocs0)
        .set(&format!("{side}.alloc_bytes"), bytes - bytes0)
        .set(&format!("{side}.wall_ms"), wall_ms)
        .set(&format!("{side}.verdict_digest"), verdict_digest(&verdicts));
}

fn run(name: &str, design: &Design, rate: u32, rounds: usize) -> bool {
    let cdfg = design.cdfg();
    let mut checker = match PinChecker::new(cdfg, rate) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{name}: pin checker infeasible at rate {rate}: {e}");
            return false;
        }
    };
    let ops: Vec<OpId> = cdfg.io_ops().collect();
    let mut line = Line::new(&PROBE);
    line.set("design", name).set("rate", rate);
    sweep(&mut line, "trail", &mut checker, &ops, rate, rounds, false);
    sweep(&mut line, "clone", &mut checker, &ops, rate, rounds, true);
    // Third engine: the same trail machinery pinned to the i128
    // representation from the first pivot. Its digest certifies that
    // the adaptive-i64 fast path changes nothing but speed.
    let mut wide_checker = match PinChecker::new(cdfg, rate) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{name}: wide pin checker infeasible at rate {rate}: {e}");
            return false;
        }
    };
    wide_checker.force_wide_words();
    sweep(
        &mut line,
        "wide",
        &mut wide_checker,
        &ops,
        rate,
        rounds,
        false,
    );
    let line = line.finish();
    println!("{line}");
    if !line.passed() {
        eprintln!("{name}: trail, wide and clone probe engines disagree");
    }
    line.passed()
}

fn main() -> std::process::ExitCode {
    // 40 rounds puts each measured sweep in the tens-of-milliseconds
    // range: long enough that the speedup ratio is stable run to run,
    // which the bench_compare regression gate depends on.
    let mut ok = true;
    ok &= run("ch3_simple", &ar_filter::simple(), 2, 40);
    ok &= run(
        "portfolio_adversarial",
        &synthetic::portfolio_adversarial(6),
        2,
        40,
    );
    // The 8-chip mesh is the scale row: 64+ ops over 6+ chips with a
    // pin-tight ring that makes roughly half the naive placements
    // infeasible, so the solver does real cutting-plane work per probe.
    ok &= run("large_mesh", &synthetic::large_mesh(8), 2, 10);
    if ok {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
