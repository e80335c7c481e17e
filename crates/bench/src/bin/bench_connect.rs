//! Emits BENCH json lines (one per design) comparing the connection
//! search, which keeps one state and backtracks through an undo log,
//! with the clone-per-step reference
//! ([`mcs_connect::oracle::clone_search`]) on the heavy rows of the
//! classic sequential search: the 6/7/8-chip meshes at rate 4 and the
//! adversarial fan-in designs with 4/5/6 senders at rate 2. Each side
//! reports node counts, the node-sequence digest, the connection's buses
//! and pins, heap allocations and its best wall time. The two must agree
//! on every deterministic field — the process exits nonzero when they do
//! not, which is the differential gate CI runs. The reference shares the
//! per-node rules with the production search, so agreement checks only
//! the undo log; `bench_compare connect` pins the node counts and digests
//! against the committed baseline, and `integration_portfolio` pins the
//! counts recorded before the undo log existed. The rendering lives in
//! [`mcs_bench::connect_bench_line`], where it is golden-tested.

use std::time::Instant;

use mcs_bench::{connect_bench_line, CountingAlloc, MeasuredConnect};
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

/// Runs `search` `reps` times; every run must be identical, so the
/// counts come from the first and the wall time is the best.
fn measure(design: &Design, rate: u32, search: Search, reps: usize) -> MeasuredConnect {
    let cdfg = design.cdfg();
    let cfg = SearchConfig::new(rate);
    let mut best = f64::INFINITY;
    let mut first: Option<MeasuredConnect> = None;
    for _ in 0..reps {
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
        first.get_or_insert(MeasuredConnect {
            nodes: stats.nodes,
            prunes: stats.prunes,
            backtracks: stats.backtracks,
            sequence_digest: stats.sequence_digest(),
            buses,
            pins,
            allocations,
            wall_ms,
        });
    }
    let mut m = first.expect("at least one repetition");
    m.wall_ms = best;
    m
}

fn run(name: &str, design: &Design, rate: u32) -> bool {
    let trail = measure(design, rate, synthesize_with_stats, 9);
    let clone = measure(design, rate, mcs_connect::oracle::clone_search, 5);
    let line = connect_bench_line(name, rate, &trail, &clone);
    println!("{line}");
    let agree = line.contains("\"agree\":true");
    if !agree {
        eprintln!("{name}: the trail search and the clone reference disagree");
    }
    agree
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
