//! Emits BENCH json lines (one per design) comparing the connection
//! search, which keeps one state and backtracks through an undo log,
//! with the clone-per-step reference
//! ([`mcs_connect::oracle::clone_search`]) on the heavy rows of the
//! classic sequential search: the 6/7/8-chip meshes at rate 4 and the
//! adversarial fan-in designs with 4/5/6 senders at rate 2. Each side
//! reports node counts, the node-sequence digest, the connection's buses
//! and pins, heap allocations and its best wall time. The two must agree
//! on every deterministic field — the process exits nonzero when the
//! line's `agree` is false, which is the differential gate CI runs. The
//! reference shares the per-node rules with the production search, so
//! agreement checks only the undo log; `bench_compare connect` pins the
//! node counts and digests against the committed baseline, and
//! `integration_portfolio` pins the counts recorded before the undo log
//! existed. The line's fields are declared in
//! [`mcs_bench::compare::CONNECT`].

use std::time::Instant;

use mcs_bench::compare::CONNECT;
use mcs_bench::{CountingAlloc, Line};
use mcs_cdfg::designs::{synthetic, Design};
use mcs_cdfg::{PartitionId, PortMode};
use mcs_connect::{synthesize_with_stats, ConnectError, Interconnect, SearchConfig, SearchStats};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

type Search = fn(
    &mcs_cdfg::Cdfg,
    PortMode,
    &SearchConfig,
) -> (Result<Interconnect, ConnectError>, SearchStats);

/// Runs `search` `reps` times and fills the line's `side` fields; every
/// run must be identical, so the counts come from the first and the wall
/// time is the best.
fn measure(line: &mut Line, side: &str, design: &Design, rate: u32, search: Search, reps: usize) {
    let cdfg = design.cdfg();
    let cfg = SearchConfig::new(rate);
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let allocs0 = CountingAlloc::allocations();
        let t0 = Instant::now();
        let (ic, stats) = search(cdfg, PortMode::Unidirectional, &cfg);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let allocations = CountingAlloc::allocations() - allocs0;
        best = best.min(wall_ms);
        let (buses, pins) = ic.map_or((0, 0), |ic| {
            let pins = (0..cdfg.partition_count())
                .map(|p| ic.pins_used(PartitionId::new(p as u32)))
                .sum();
            (ic.buses.len() as u32, pins)
        });
        if rep == 0 {
            line.set(&format!("{side}.nodes"), stats.nodes)
                .set(&format!("{side}.prunes"), stats.prunes)
                .set(&format!("{side}.backtracks"), stats.backtracks)
                .set(&format!("{side}.sequence_digest"), stats.sequence_digest())
                .set(&format!("{side}.buses"), buses)
                .set(&format!("{side}.pins"), pins)
                .set(&format!("{side}.allocations"), allocations);
        }
    }
    line.set(&format!("{side}.wall_ms"), best);
}

fn run(name: &str, design: &Design, rate: u32) -> bool {
    let mut line = Line::new(&CONNECT);
    line.set("design", name).set("rate", rate);
    measure(&mut line, "trail", design, rate, synthesize_with_stats, 9);
    let clone = mcs_connect::oracle::clone_search;
    measure(&mut line, "clone", design, rate, clone, 5);
    let line = line.finish();
    println!("{line}");
    if !line.passed() {
        eprintln!("{name}: the trail search and the clone reference disagree");
    }
    line.passed()
}

fn main() -> std::process::ExitCode {
    let mut ok = true;
    for chips in [6usize, 7, 8] {
        ok &= run(&format!("mesh{chips}"), &synthetic::large_mesh(chips), 4);
    }
    for senders in [4usize, 5, 6] {
        ok &= run(
            &format!("adversarial{senders}"),
            &synthetic::portfolio_adversarial(senders),
            2,
        );
    }
    if ok {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
