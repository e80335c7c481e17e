//! Design-space exploration: the concrete [`mcs_explore::PointRunner`]
//! that maps one sweep lattice point to a synthesis run.
//!
//! The generic engine in `mcs-explore` knows nothing about synthesis;
//! this module supplies the binding:
//!
//! * A lattice point `(rate, budget vector)` is realized by cloning the
//!   design and overriding each chip partition's `total_pins` (budget
//!   vector entry `i` maps to partition `i + 1`; partition 0 is the
//!   environment). Any `fixed_split` is cleared — the sweep explores
//!   total budgets, not fixed input/output splits.
//! * Every flow runs behind the exact pin-feasibility gate
//!   ([`Run::gate`]): `InfeasibleFromTheStart` is the *only*
//!   verdict reported as [`PointStatus::PinInfeasible`], because it is
//!   the only one sound to lift to dominated points. Incomplete-search
//!   failures are [`PointStatus::SearchFailed`] and never prune.
//! * Warm starts transfer two payloads between points at the same rate:
//!   `false` epoch-0 probe verdicts (a probe infeasible under a looser
//!   budget stays infeasible under a tighter one — the `true` direction
//!   does not transfer and is filtered out) and connection-search
//!   refutation certificates (exhaustive-failure proofs, valid for any
//!   same-or-tighter budget; see [`mcs_connect::synthesize_seeded`]).

use mcs_cdfg::{Cdfg, PartitionId};
use mcs_ctl::Budget;
use mcs_explore::{
    sweep, FlowVariant, PointCoord, PointOutcome, PointRunner, PointStatus, SweepError,
    SweepOptions, SweepReport, SweepSpec,
};
use mcs_metrics::MetricsHandle;
use mcs_obs::RecorderHandle;

use crate::flows::{
    synthesize, ConnectFirstOptions, FlowSpec, Run, ScheduleFirstOptions, SimpleOptions, WarmStart,
};

/// Portfolio size for connect-first points, in sweeps and serve jobs
/// alike. Pinned (rather than derived from thread count) so the search —
/// and therefore the report — is identical however many sweep workers or
/// daemon workers run.
const POINT_PORTFOLIO: usize = 4;

/// The flow one sweep point (or one serve synth job) runs: `flow` at
/// `rate`, charging `budget` and reporting into `metrics`. Connect-first
/// points use a single-threaded search over a pinned portfolio;
/// schedule-first points take the default pipe length.
pub fn point_spec(
    flow: FlowVariant,
    rate: u32,
    budget: Option<Budget>,
    metrics: MetricsHandle,
) -> FlowSpec {
    match flow {
        FlowVariant::Simple => FlowSpec::Simple(SimpleOptions {
            budget,
            metrics,
            ..SimpleOptions::new(rate)
        }),
        FlowVariant::ConnectFirst => FlowSpec::ConnectFirst(ConnectFirstOptions {
            workers: 1,
            portfolio: Some(POINT_PORTFOLIO),
            budget,
            metrics,
            ..ConnectFirstOptions::new(rate)
        }),
        FlowVariant::ScheduleFirst => FlowSpec::ScheduleFirst(ScheduleFirstOptions {
            budget,
            metrics,
            ..ScheduleFirstOptions::new(rate)
        }),
    }
}

/// Anything [`run_sweep`] can fail with before synthesis starts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExploreError {
    /// A budget vector's length does not match the design's chip count.
    BudgetArity {
        /// Index of the offending vector in [`SweepSpec::budgets`].
        index: usize,
        /// Chips in the design (partitions minus the environment).
        expected: usize,
        /// Entries the vector actually has.
        got: usize,
    },
    /// The sweep spec itself is malformed.
    Sweep(SweepError),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::BudgetArity {
                index,
                expected,
                got,
            } => write!(
                f,
                "pin-budget vector {index} has {got} entries but the design has {expected} chips"
            ),
            ExploreError::Sweep(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<SweepError> for ExploreError {
    fn from(e: SweepError) -> Self {
        ExploreError::Sweep(e)
    }
}

/// The concrete lattice-point runner: clones the design, applies the
/// budget override, runs the configured flow behind the pin gate, and
/// passes the warm-start exports on. Per-point synthesis runs untraced —
/// the sweep's own telemetry is deterministic counters, not wall-clock
/// spans.
pub struct DesignRunner<'a> {
    cdfg: &'a Cdfg,
    flow: FlowVariant,
    budget: Option<Budget>,
    metrics: MetricsHandle,
}

impl<'a> DesignRunner<'a> {
    /// A runner for `cdfg` executing `flow` at every point. The sweep's
    /// execution budget and metrics sink are shared with every point's
    /// flow: the pin gate's construction-time solve, pin probes, Gomory
    /// pivots, search nodes and scheduling steps all charge the budget,
    /// so the sweep driver observes a mid-wave trip at the next wave
    /// barrier (an interrupted point reports [`PointStatus::Error`] and
    /// never prunes), and per-point probe latencies, solver pivots and
    /// search epochs aggregate into the registry under `explore.*`.
    pub fn new(cdfg: &'a Cdfg, flow: FlowVariant, opts: &SweepOptions) -> Self {
        DesignRunner {
            cdfg,
            flow,
            budget: opts.budget.clone(),
            metrics: opts.metrics.clone(),
        }
    }
}

/// Applies one budget vector: entry `i` becomes chip partition `i + 1`'s
/// `total_pins` (partition 0 is the environment), and any `fixed_split`
/// is cleared.
pub fn apply_pin_budgets(cdfg: &mut Cdfg, budget: &[u32]) {
    for (i, &pins) in budget.iter().enumerate() {
        let p = cdfg.partition_mut(PartitionId::new(i as u32 + 1));
        p.total_pins = pins;
        p.fixed_split = None;
    }
}

impl PointRunner for DesignRunner<'_> {
    type Export = WarmStart;

    fn run(
        &self,
        coord: PointCoord,
        budget: &[u32],
        seeds: &[(PointCoord, std::sync::Arc<WarmStart>)],
    ) -> (PointOutcome, Option<WarmStart>) {
        let mut cdfg = self.cdfg.clone();
        apply_pin_budgets(&mut cdfg, budget);
        // Only `false` verdicts transfer from looser-budget donors: an
        // infeasible probe stays infeasible with fewer pins, but a
        // feasible one may not.
        let warm = WarmStart {
            memo: seeds
                .iter()
                .flat_map(|(_, e)| e.memo.iter())
                .filter(|&&(_, verdict)| !verdict)
                .copied()
                .collect(),
            certs: seeds
                .iter()
                .flat_map(|(_, e)| e.certs.iter().cloned())
                .collect(),
        };
        let spec = point_spec(
            self.flow,
            coord.rate,
            self.budget.clone(),
            self.metrics.clone(),
        );
        let run = Run {
            warm,
            gate: true,
            ..Run::default()
        };
        let out = synthesize(&cdfg, &spec, &run);

        let mut point = PointOutcome {
            status: Some(out.status()),
            detail: out.detail(),
            ..PointOutcome::default()
        };
        if let Some(p) = &out.probe_stats {
            point.solver_probes = p.solver_probes;
            point.probe_memo_hits = p.memo_hits;
            point.probe_seed_hits = p.seed_hits;
        }
        if let Some(s) = &out.search_stats {
            point.search_nodes = s.nodes;
            point.search_cache_hits = s.cache_hits;
            point.cert_seed_hits = s.seed_hits;
        }
        if let Ok(result) = &out.result {
            // The Chapter 5 flow reports pins instead of constraining
            // them; budgets are checked after the fact. An over-budget
            // result is a search failure, NOT a liftable infeasibility —
            // the flow never consulted the budget, so the verdict carries
            // no dominance information.
            let over: Vec<String> = if self.flow == FlowVariant::ScheduleFirst {
                result
                    .pins_used
                    .iter()
                    .enumerate()
                    .skip(1)
                    .filter(|&(i, &used)| used > budget[i - 1])
                    .map(|(i, &used)| format!("chip {} uses {} > {}", i, used, budget[i - 1]))
                    .collect()
            } else {
                Vec::new()
            };
            if !over.is_empty() {
                point.status = Some(PointStatus::SearchFailed);
                point.detail = format!("over budget: {}", over.join(", "));
            } else {
                let qor = result.qor(&cdfg);
                point.latency = Some(qor.latency);
                point.total_pins = Some(qor.total_pins);
                point.buses = Some(qor.buses);
                point.registers = Some(qor.registers);
            }
        }
        (point, out.exports)
    }
}

/// Runs a full design-space sweep over `cdfg`, wrapped in an `explore`
/// phase span with the sweep's aggregate counters mirrored into
/// `recorder` (`explore.points`, `explore.pruned`, `explore.cache_hits`,
/// `explore.cache_entries`, `explore.frontier`).
///
/// # Errors
///
/// [`ExploreError::BudgetArity`] when a budget vector does not have one
/// entry per chip; [`ExploreError::Sweep`] for a malformed lattice.
pub fn run_sweep(
    cdfg: &Cdfg,
    spec: &SweepSpec,
    opts: &SweepOptions,
    recorder: &RecorderHandle,
) -> Result<SweepReport, ExploreError> {
    let chips = cdfg.partition_count().saturating_sub(1);
    for (index, b) in spec.budgets.iter().enumerate() {
        if b.len() != chips {
            return Err(ExploreError::BudgetArity {
                index,
                expected: chips,
                got: b.len(),
            });
        }
    }
    let runner = DesignRunner::new(cdfg, spec.flow, opts);
    let report = {
        let _phase = recorder.phase("explore");
        sweep(spec, &runner, opts)?
    };
    if recorder.enabled() {
        recorder.counter("explore.points", report.stats.points as i64);
        recorder.counter("explore.pruned", report.stats.pruned as i64);
        recorder.counter("explore.cache_hits", report.stats.seed_hits() as i64);
        recorder.counter("explore.cache_entries", report.stats.cache_entries as i64);
        recorder.counter("explore.frontier", report.frontier.len() as i64);
    }
    Ok(report)
}
