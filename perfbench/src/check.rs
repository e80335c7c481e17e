//! Correctness checks, run outside the timed loop.
//!
//! A result passes when the schedule validates, the final interconnect
//! carries every transfer within the pin budgets, and the cycle-accurate
//! engine computes the same outputs as the untimed reference
//! interpreter on seeded stimulus.

use mcs_cdfg::{Cdfg, PartitionId, PortMode};
use mcs_connect::Interconnect;
use mcs_explore::{FlowVariant, PointStatus, SweepReport};
use mcs_sched::{validate, Schedule, ScheduleViolation};
use mcs_sim::Violation;
use multichip_hls::flows::{
    connect_first_flow, schedule_first_flow, simple_flow, ConnectFirstOptions, FlowError,
    SynthesisResult,
};

use crate::Qor;

/// Portfolio size `mcs-serve` and `explore` pin for connect-first jobs.
pub const SERVICE_PORTFOLIO: usize = 4;

/// Execution instances the simulator drives per check.
const SIM_INSTANCES: u32 = 4;

/// Checks one synthesis result of `cdfg`.
///
/// Schedule-first results are held to what the Chapter 5 flow and the
/// sweep promise. The flow reports resources and pins instead of
/// obeying them, so unit-count violations (static and simulated) are
/// not counted, as the flow itself does not count the static ones. A
/// sweep calls a point feasible only when every chip fits its budget,
/// so chip budgets are checked, but the environment's is not (see
/// [`env_overrun`]).
///
/// # Errors
///
/// The first check that failed, with its findings.
pub fn verify_result(
    cdfg: &Cdfg,
    result: &SynthesisResult,
    schedule_first: bool,
    seed: u64,
) -> Result<(), String> {
    let violations: Vec<_> = validate(cdfg, &result.schedule)
        .into_iter()
        .filter(|v| !(schedule_first && matches!(v, ScheduleViolation::Resources { .. })))
        .collect();
    if !violations.is_empty() {
        return Err(format!("schedule: {violations:?}"));
    }
    let ic = result.final_interconnect();
    let problems = if schedule_first {
        chip_budget_problems(cdfg, &result.schedule, &ic)
    } else {
        mcs_postsyn::verify_against_schedule_with_budgets(cdfg, &result.schedule, &ic)
    };
    if !problems.is_empty() {
        return Err(format!("interconnect: {}", problems.join("; ")));
    }
    let stim = mcs_sim::Stimulus::random(cdfg, SIM_INSTANCES, seed);
    let violations: Vec<_> = match mcs_sim::verify(
        cdfg,
        &result.schedule,
        Some(&ic),
        &mcs_sim::Semantics::new(),
        &stim,
    ) {
        Ok(_) => Vec::new(),
        Err(v) => v
            .into_iter()
            .filter(|v| !(schedule_first && matches!(v, Violation::ResourceOveruse { .. })))
            .collect(),
    };
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("simulation: {violations:?}"))
    }
}

/// Connection problems plus chip (not environment) pin-budget overruns.
fn chip_budget_problems(cdfg: &Cdfg, schedule: &Schedule, ic: &Interconnect) -> Vec<String> {
    let mut problems = mcs_postsyn::verify_against_schedule(cdfg, schedule, ic);
    for p in 1..cdfg.partition_count() {
        let pid = PartitionId::new(p as u32);
        let (used, budget) = (ic.pins_used(pid), cdfg.partition(pid).total_pins);
        if used > budget {
            problems.push(format!("chip {pid} uses {used} pins but has only {budget}"));
        }
    }
    problems
}

/// Whether a result uses more environment pins than the environment
/// declares. Schedule-first sweep points can: the sweep checks chip
/// budgets only. The benchmark reports these points on every run.
pub fn env_overrun(cdfg: &Cdfg, result: &SynthesisResult) -> bool {
    let env = PartitionId::new(0);
    result.final_interconnect().pins_used(env) > cdfg.partition(env).total_pins
}

/// `(pipe length, chip pins, buses)` of a result, the quantities the
/// paper's tables report and every response carries.
pub fn measures(result: &SynthesisResult) -> (i64, u32, u32) {
    (
        result.pipe_length,
        result.pins_used.iter().skip(1).sum(),
        result.interconnect.buses.len() as u32,
    )
}

/// `cdfg` with each chip's pin budget replaced by `budget` (entry `i`
/// is chip `i + 1`) and any fixed split cleared, as a sweep point or a
/// serve `pin_budget` applies it.
pub fn with_budget(cdfg: &Cdfg, budget: &[u32]) -> Cdfg {
    let mut c = cdfg.clone();
    for (i, &pins) in budget.iter().enumerate() {
        let p = c.partition_mut(PartitionId::new(i as u32 + 1));
        p.total_pins = pins;
        p.fixed_split = None;
    }
    c
}

/// The schedule-first pipe length a sweep uses: ASAP critical path plus
/// one initiation interval.
pub fn default_pipe_length(cdfg: &Cdfg, rate: u32) -> i64 {
    mcs_cdfg::timing::asap(cdfg)
        .map(|t| {
            Schedule {
                rate,
                start: t.start,
            }
            .pipe_length(cdfg)
                + i64::from(rate)
        })
        .unwrap_or(3 * i64::from(rate))
}

/// Runs one lattice point from scratch, with the flow settings the
/// sweep runner uses but no warm-start seeds.
///
/// # Errors
///
/// The flow's failure.
pub fn run_point(cdfg: &Cdfg, flow: FlowVariant, rate: u32) -> Result<SynthesisResult, FlowError> {
    match flow {
        FlowVariant::Simple => simple_flow(cdfg, rate),
        FlowVariant::ScheduleFirst => schedule_first_flow(
            cdfg,
            rate,
            default_pipe_length(cdfg, rate),
            PortMode::Unidirectional,
        ),
        FlowVariant::ConnectFirst => {
            let mut opts = ConnectFirstOptions::new(rate);
            opts.portfolio = Some(SERVICE_PORTFOLIO);
            connect_first_flow(cdfg, &opts)
        }
    }
}

/// Checks every feasible point of a sweep: the point re-run from
/// scratch must reproduce the reported latency, pins and buses, and its
/// result must pass [`verify_result`]. Returns the QoR of the feasible
/// points and how many of them overrun the environment's pins.
///
/// # Errors
///
/// The first point that failed.
pub fn verify_sweep(cdfg: &Cdfg, report: &SweepReport, seed: u64) -> Result<(Qor, u64), String> {
    let mut qor = Qor::default();
    let mut env_over = 0;
    for o in &report.outcomes {
        if o.status != PointStatus::Feasible {
            continue;
        }
        let rate = o.coord.rate;
        let point = with_budget(cdfg, &report.spec.budgets[o.coord.budget_ix]);
        let result = run_point(&point, report.spec.flow, rate).map_err(|e| {
            format!(
                "point (rate {rate}, budget {}): re-run failed: {e}",
                o.coord.budget_ix
            )
        })?;
        let (pipe, pins, buses) = measures(&result);
        if (Some(pipe), Some(pins), Some(buses))
            != (o.outcome.latency, o.outcome.total_pins, o.outcome.buses)
        {
            return Err(format!(
                "point (rate {rate}, budget {}): report says {:?}/{:?}/{:?}, re-run gives {pipe}/{pins}/{buses}",
                o.coord.budget_ix, o.outcome.latency, o.outcome.total_pins, o.outcome.buses
            ));
        }
        verify_result(
            &point,
            &result,
            report.spec.flow == FlowVariant::ScheduleFirst,
            seed,
        )
        .map_err(|e| format!("point (rate {rate}, budget {}): {e}", o.coord.budget_ix))?;
        qor.add(pipe, pins, buses);
        env_over += u64::from(env_overrun(&point, &result));
    }
    Ok((qor, env_over))
}
