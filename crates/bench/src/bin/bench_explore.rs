//! Emits the `BENCH_explore` json line: one design-space sweep of the
//! elliptic filter run twice — with dominance pruning and exhaustively —
//! comparing wall time, warm-start hit counts and the Pareto frontier.
//! The two frontiers must be identical (pruning only skips points whose
//! infeasibility is already proven: the line's `frontier_agree`) and the
//! pruned sweep must show warm-start reuse (a nonzero
//! `warm_start_hit_rate`); the process exits nonzero
//! when either gate fails, which is what CI runs. The line's fields are
//! declared in [`mcs_bench::compare::EXPLORE`]; `bench_compare explore`
//! additionally pins every count against `BENCH_explore.json`.

use std::time::Instant;

use mcs_bench::compare::EXPLORE;
use mcs_bench::{frontier_digest, Line};
use mcs_cdfg::designs::elliptic;
use mcs_explore::{FlowVariant, SweepOptions, SweepSpec};
use mcs_obs::RecorderHandle;
use multichip_hls::explore::run_sweep;

/// The sweep CI measures: the paper's headline benchmark across the
/// feasibility boundary. The budget ladder descends from Table 4.14's
/// rate-6 budgets to a uniformly starved vector, so certificate
/// transfer between waves has somewhere to land and the tightest wave
/// is provably pin-infeasible — which is what dominance pruning skips.
fn spec() -> SweepSpec {
    SweepSpec {
        design: "elliptic".into(),
        flow: FlowVariant::ConnectFirst,
        rates: (4..=8).collect(),
        budgets: vec![
            vec![48, 48, 64, 48, 48],
            vec![32, 48, 64, 48, 48],
            vec![24, 32, 48, 32, 32],
            vec![16, 16, 16, 16, 16],
        ],
    }
}

/// Runs the sweep and fills the line's `side` fields.
fn run(line: &mut Line, side: &str, prune: bool) {
    let design = elliptic::partitioned();
    let opts = SweepOptions {
        jobs: 2,
        prune,
        ..SweepOptions::default()
    };
    let t0 = Instant::now();
    let report = run_sweep(design.cdfg(), &spec(), &opts, &RecorderHandle::default())
        .expect("elliptic sweep spec is well-formed");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let st = &report.stats;
    line.set(&format!("{side}.points"), st.points)
        .set(&format!("{side}.run"), st.run)
        .set(&format!("{side}.pruned"), st.pruned)
        .set(&format!("{side}.feasible"), st.feasible)
        .set(&format!("{side}.frontier"), report.frontier.len())
        .set(&format!("{side}.probe_seed_hits"), st.probe_seed_hits)
        .set(&format!("{side}.cert_seed_hits"), st.cert_seed_hits)
        .set(
            &format!("{side}.frontier_digest"),
            frontier_digest(&report.frontier),
        )
        .set(&format!("{side}.wall_ms"), wall_ms);
}

fn main() -> std::process::ExitCode {
    let mut line = Line::new(&EXPLORE);
    line.set("design", "elliptic")
        .set("flow", FlowVariant::ConnectFirst.as_str());
    run(&mut line, "pruned", true);
    run(&mut line, "exhaustive", false);
    let line = line.finish();
    println!("{line}");
    let mut ok = line.passed();
    if !ok {
        eprintln!("elliptic: pruned and exhaustive sweeps disagree on the Pareto frontier");
    }
    if line.num("warm_start_hit_rate") == 0.0 {
        eprintln!("elliptic: pruned sweep shows no warm-start reuse");
        ok = false;
    }
    if ok {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
