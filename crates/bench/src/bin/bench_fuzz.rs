//! Emits the `BENCH_fuzz` json line: a seeded fuzzing sweep of the
//! synthesis pipeline — random CDFGs through the three-way flow
//! differential, a subset additionally through the engine-vs-reference
//! simulation oracle, plus one shrink-on-failure demonstration against
//! the corpus's known finding. Every divergence is a bug; the process
//! exits nonzero when the line's `agree` is false or its
//! `shrink.to_ops` is 0 (the shrink demonstration no longer reproduces),
//! which is what CI runs. The line's fields are declared in
//! [`mcs_bench::compare::FUZZ`].

use std::time::Instant;

use mcs_bench::compare::FUZZ;
use mcs_bench::Line;
use mcs_cdfg::fuzz::{build_design, design_from_seed, genome_from_seed, genomes, FuzzConfig};
use mcs_cdfg::timing;
use multichip_hls::differential::{flow_differential, sim_differential};
use multichip_hls::flows::{simple_flow, FlowError};

const FLOW_SEEDS: u64 = 200;
const SIM_CHECKS: u64 = 50;

fn main() -> std::process::ExitCode {
    let config = FuzzConfig::default();
    let t0 = Instant::now();

    let (mut agreed, mut any_feasible, mut sim_checked, mut sim_mismatched) =
        (0u64, 0u64, 0u64, 0u64);
    let mut first_failures = Vec::new();
    for seed in 0..FLOW_SEEDS {
        let design = design_from_seed(&config, seed);
        let d = flow_differential(design.cdfg());
        if d.agreed() {
            agreed += 1;
        } else {
            first_failures.push(format!("seed {seed}: {:?}", d.disagreements));
        }
        if d.any_feasible() {
            any_feasible += 1;
        }
        if sim_checked < SIM_CHECKS {
            if let Some(sd) = sim_differential(design.cdfg(), 3, seed ^ 0x5eed) {
                sim_checked += 1;
                if !sd.mismatches.is_empty() {
                    sim_mismatched += 1;
                    first_failures.push(format!("seed {seed} sim: {:?}", sd.mismatches));
                }
            }
        }
    }
    let mut line = Line::new(&FUZZ);
    line.set("config", "default")
        .set("seeds", FLOW_SEEDS)
        .set("agreed", agreed)
        .set("disagreed", FLOW_SEEDS - agreed)
        .set("any_feasible", any_feasible)
        .set("sim_checked", sim_checked)
        .set("sim_mismatched", sim_mismatched);

    // Shrink demonstration: the corpus's finding 2 (postsyn gives up on a
    // budget the pin checker admitted) minimizes from seed 170.
    let gives_up = |g: &mcs_cdfg::fuzz::Genome| {
        let design = build_design(g, &config);
        let rate = timing::min_initiation_rate(design.cdfg()).max(1);
        matches!(simple_flow(design.cdfg(), rate), Err(FlowError::Connect(_)))
    };
    let genome = genome_from_seed(&config, 170);
    line.set("shrink.from_ops", genome.ops.len());
    let (steps, to_ops) = if gives_up(&genome) {
        let (min, steps) = proptest::minimize(&genomes(&config), genome, gives_up);
        (steps, min.ops.len())
    } else {
        eprintln!("bench_fuzz: seed 170 no longer reproduces the shrink demonstration");
        (0, 0)
    };
    line.set("shrink.steps", steps)
        .set("shrink.to_ops", to_ops)
        .set("wall_ms", t0.elapsed().as_secs_f64() * 1e3);
    let line = line.finish();
    println!("{line}");
    for f in &first_failures {
        eprintln!("bench_fuzz: {f}");
    }
    if line.passed() && line.num("shrink.to_ops") > 0.0 {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
