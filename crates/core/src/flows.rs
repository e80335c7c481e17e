//! End-to-end synthesis flows combining the workspace crates, one per
//! chapter of the paper's methodology.

use std::collections::BTreeMap;

use mcs_cdfg::{BusId, Cdfg, OpId, OperatorClass, PartitionId, PortMode};
use mcs_connect::{
    share_pass, synthesize_seeded, ConnectError, Interconnect, RefutationCert, SearchConfig,
    SearchStats,
};
use mcs_ctl::{Budget, Termination};
use mcs_metrics::MetricsHandle;
use mcs_obs::{Event, RecorderHandle};
use mcs_pinalloc::{
    check_simple, PinAllocError, PinChecker, ProbeCacheStats, SimplicityViolation,
    DEFAULT_PIVOT_BUDGET,
};
use mcs_postsyn::{
    connect_after_scheduling, connect_packed, verify_against_schedule, PostsynConfig,
};
use mcs_sched::{
    fds_schedule, list_schedule, validate, BusPolicy, FdsConfig, ListConfig, PinPolicy, SchedError,
    Schedule, ScheduleViolation, SlotPlacement,
};

pub use crate::resynth::{resynth_flow, resynth_flow_traced, ResynthOutcome, ResynthPath};

/// Anything a flow can fail with.
#[derive(Clone, Debug, PartialEq)]
pub enum FlowError {
    /// The partitioning is not simple (Definition 3.2) but the Chapter 3
    /// flow was requested.
    NotSimple(SimplicityViolation),
    /// Pin allocation failed (Chapter 3).
    PinAllocation(PinAllocError),
    /// Connection synthesis failed (Chapter 4/6).
    Connect(ConnectError),
    /// Scheduling failed.
    Schedule(SchedError),
    /// A produced schedule violated validation — a bug, reported loudly.
    InvalidSchedule(Vec<ScheduleViolation>),
    /// The post-scheduling connection conflicts with the schedule.
    InvalidConnection(Vec<String>),
    /// The flow's execution [`Budget`] tripped (or its cancel token
    /// fired) before a verdict was reached. Not a property of the
    /// design: rerunning with a larger budget may succeed.
    Interrupted(Termination),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::NotSimple(v) => write!(f, "partitioning is not simple: {v}"),
            FlowError::PinAllocation(e) => write!(f, "pin allocation failed: {e}"),
            FlowError::Connect(e) => write!(f, "connection synthesis failed: {e}"),
            FlowError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            FlowError::InvalidSchedule(v) => {
                write!(f, "schedule failed validation ({} violations)", v.len())
            }
            FlowError::InvalidConnection(v) => {
                write!(f, "connection failed validation ({} problems)", v.len())
            }
            FlowError::Interrupted(t) => write!(f, "synthesis interrupted ({t})"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<PinAllocError> for FlowError {
    fn from(e: PinAllocError) -> Self {
        match e {
            PinAllocError::Interrupted(t) => FlowError::Interrupted(t),
            e => FlowError::PinAllocation(e),
        }
    }
}

impl From<ConnectError> for FlowError {
    fn from(e: ConnectError) -> Self {
        match e {
            ConnectError::Interrupted(t) => FlowError::Interrupted(t),
            e => FlowError::Connect(e),
        }
    }
}

impl From<SchedError> for FlowError {
    fn from(e: SchedError) -> Self {
        match e {
            SchedError::Interrupted(t) => FlowError::Interrupted(t),
            e => FlowError::Schedule(e),
        }
    }
}

/// Common result pieces every flow produces.
#[derive(Clone, Debug)]
pub struct SynthesisResult {
    /// The schedule of functional operations and I/O transfers.
    pub schedule: Schedule,
    /// The interchip connection structure.
    pub interconnect: Interconnect,
    /// Pins used per partition (index = partition id).
    pub pins_used: Vec<u32>,
    /// Pipe length in control steps.
    pub pipe_length: i64,
    /// Final per-transfer slot placements when the flow allocates buses
    /// during scheduling (Chapter 4/6 flows).
    pub placements: BTreeMap<OpId, SlotPlacement>,
    /// Transfers that changed bus relative to the initial assignment.
    pub reassigned: usize,
    /// Connection-search telemetry, for flows that run the Chapter 4
    /// portfolio search (`None` for schedule-first flows).
    pub search_stats: Option<SearchStats>,
}

/// The cost figures a design-space point or a serve response reports
/// for one feasible result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Qor {
    /// Pipe length in control steps.
    pub latency: i64,
    /// Pins used across the chips (the environment partition excluded).
    pub total_pins: u32,
    /// Interchip buses.
    pub buses: u32,
    /// Register copies in the structural netlist.
    pub registers: u32,
}

impl SynthesisResult {
    pub(crate) fn common(cdfg: &Cdfg, schedule: Schedule, interconnect: Interconnect) -> Self {
        let pins_used = (0..cdfg.partition_count())
            .map(|p| interconnect.pins_used(PartitionId::new(p as u32)))
            .collect();
        let pipe_length = schedule.pipe_length(cdfg);
        SynthesisResult {
            schedule,
            interconnect,
            pins_used,
            pipe_length,
            placements: BTreeMap::new(),
            reassigned: 0,
            search_stats: None,
        }
    }

    /// Resource usage per `(partition, class)` (Tables 5.1/5.3).
    pub fn resources(&self, cdfg: &Cdfg) -> BTreeMap<(PartitionId, OperatorClass), u32> {
        self.schedule.resource_usage(cdfg)
    }

    /// Latency, chip pins, buses and netlist registers. Builds the
    /// structural netlist once to count the registers.
    pub fn qor(&self, cdfg: &Cdfg) -> Qor {
        let nl = crate::netlist::build(cdfg, &self.schedule, &self.interconnect);
        Qor {
            latency: self.pipe_length,
            total_pins: self.pins_used.iter().skip(1).sum(),
            buses: self.interconnect.buses.len() as u32,
            registers: nl
                .chips
                .values()
                .flat_map(|c| c.registers.iter())
                .map(|r| r.copies)
                .sum(),
        }
    }

    /// The interconnect with every transfer at its *final* bus and range.
    ///
    /// Flows that allocate buses during scheduling (Section 4.2 dynamic
    /// reassignment) may move a transfer off its initial assignment; the
    /// moves are recorded in `placements`. Execution-level tools (the
    /// cycle-accurate simulator, RTL emission) must read this view, not
    /// the initial `interconnect`.
    pub fn final_interconnect(&self) -> Interconnect {
        let mut ic = self.interconnect.clone();
        for (op, p) in &self.placements {
            if let Some(a) = ic.assignment.get_mut(op) {
                a.bus = p.bus;
                a.range = p.range;
            }
        }
        ic
    }
}

/// Records the final pin-budget verdict per partition under a
/// `pin-check` phase span: one [`Event::PinCheck`] per partition, with
/// `group` carrying the partition id and `cap` its declared pin budget.
/// No-op when the recorder is disabled.
fn record_pin_budget(
    cdfg: &Cdfg,
    result: &SynthesisResult,
    recorder: &RecorderHandle,
    metrics: &MetricsHandle,
) {
    let _span = metrics.span("pin-check");
    if !recorder.enabled() {
        return;
    }
    let _phase = recorder.phase("pin-check");
    let ic = result.final_interconnect();
    for p in 0..cdfg.partition_count() {
        let pid = PartitionId::new(p as u32);
        let used = ic.pins_used(pid);
        let cap = cdfg.partition(pid).total_pins;
        recorder.record(Event::PinCheck {
            group: p as u32,
            pins_used: used,
            cap,
            verdict: used <= cap,
        });
    }
}

/// Options for the Chapter 3 flow (pin-checked list scheduling).
#[derive(Clone, Debug)]
pub struct SimpleOptions {
    /// Initiation rate `L`.
    pub rate: u32,
    /// Pivot budget per pin-feasibility solve; `None` keeps
    /// [`mcs_pinalloc::DEFAULT_PIVOT_BUDGET`]. Any value — including 0 —
    /// is sound: the exact branch-and-bound fallback decides when the
    /// budget runs out.
    pub pivot_budget: Option<usize>,
    /// Cross-check every trail-based probe against the legacy clone-based
    /// path, panicking on divergence (differential testing; roughly
    /// doubles probe cost).
    pub probe_differential: bool,
    /// Optional execution budget shared by the pin checker (attached
    /// before its construction-time solve, then charged by probes and
    /// Gomory pivots) and the list scheduler (control-step boundaries).
    /// A tripped budget surfaces as [`FlowError::Interrupted`].
    pub budget: Option<Budget>,
    /// Metrics sink threaded through every layer the flow touches: the
    /// pin checker's probe histograms, the embedded ILP solver's
    /// counters, the list scheduler's placement attempts, and the
    /// flow's own `flow/...` phase span tree. Disconnected by default
    /// (one branch per instrumentation point).
    pub metrics: MetricsHandle,
}

impl SimpleOptions {
    /// The production configuration: stock pivot budget, no
    /// differential cross-checking, no execution budget.
    pub fn new(rate: u32) -> Self {
        SimpleOptions {
            rate,
            pivot_budget: None,
            probe_differential: false,
            budget: None,
            metrics: MetricsHandle::default(),
        }
    }
}

/// Options for the connection-before-scheduling flow (Chapters 4 and 6).
#[derive(Clone, Debug)]
pub struct ConnectFirstOptions {
    /// Initiation rate `L`.
    pub rate: u32,
    /// Port directionality (Section 4.3).
    pub mode: PortMode,
    /// Enable Chapter 6 sub-bus sharing.
    pub sharing: bool,
    /// Enable dynamic bus reassignment during scheduling (Section 4.2);
    /// `false` reproduces the static-assignment baseline.
    pub reassign: bool,
    /// Threads expanding the connection-search portfolio.
    pub workers: usize,
    /// Portfolio size, when pinned independently of `workers`.
    pub portfolio: Option<usize>,
    /// Override of the search branching factor (`None` keeps the
    /// default).
    pub branching_factor: Option<usize>,
    /// Override of the per-worker node budget (`None` keeps the
    /// default).
    pub node_budget: Option<usize>,
    /// Optional execution budget shared by the connection search (epoch
    /// barriers) and the bus-slot scheduler (control-step boundaries).
    /// A tripped budget surfaces as [`FlowError::Interrupted`]; the
    /// [`Outcome`] of [`synthesize`] also carries the partial progress.
    pub budget: Option<Budget>,
    /// Metrics sink threaded through the connection search, the bus
    /// allocator and the flow's own `flow/...` phase span tree.
    /// Disconnected by default.
    pub metrics: MetricsHandle,
}

impl ConnectFirstOptions {
    /// Defaults: unidirectional, no sharing, with reassignment, a
    /// single-worker (classic) connection search.
    pub fn new(rate: u32) -> Self {
        ConnectFirstOptions {
            rate,
            mode: PortMode::Unidirectional,
            sharing: false,
            reassign: true,
            workers: 1,
            portfolio: None,
            branching_factor: None,
            node_budget: None,
            budget: None,
            metrics: MetricsHandle::default(),
        }
    }

    /// The [`SearchConfig`] these options describe.
    pub fn search_config(&self) -> SearchConfig {
        let mut cfg = SearchConfig::new(self.rate).with_workers(self.workers);
        if self.sharing {
            cfg = cfg.with_sharing();
        }
        if let Some(p) = self.portfolio {
            cfg = cfg.with_portfolio(p);
        }
        if let Some(bf) = self.branching_factor {
            cfg.branching_factor = bf.max(1);
        }
        if let Some(b) = self.node_budget {
            cfg.node_budget = b;
        }
        if let Some(b) = &self.budget {
            cfg = cfg.with_budget(b.clone());
        }
        cfg.with_metrics(self.metrics.clone())
    }
}

/// Options for the schedule-before-connection flow (Chapter 5).
#[derive(Clone, Debug)]
pub struct ScheduleFirstOptions {
    /// Initiation rate `L`.
    pub rate: u32,
    /// Pipe-length constraint for force-directed scheduling; `None`
    /// takes the ASAP critical path plus one initiation interval.
    pub pipe_length: Option<i64>,
    /// Port directionality of the constructed connection.
    pub mode: PortMode,
    /// Execution budget for the pin gate ([`Run::gate`]);
    /// force-directed scheduling itself has no interruption points.
    pub budget: Option<Budget>,
    /// Metrics sink for the flow's `flow/...` phase span tree.
    /// Disconnected by default.
    pub metrics: MetricsHandle,
}

impl ScheduleFirstOptions {
    /// Defaults: unidirectional ports, the default pipe length.
    pub fn new(rate: u32) -> Self {
        ScheduleFirstOptions {
            rate,
            pipe_length: None,
            mode: PortMode::Unidirectional,
            budget: None,
            metrics: MetricsHandle::default(),
        }
    }

    /// The pipe-length constraint these options give for `cdfg`.
    pub fn pipe_length(&self, cdfg: &Cdfg) -> i64 {
        let (rate, l) = (self.rate, i64::from(self.rate));
        self.pipe_length.unwrap_or_else(|| {
            mcs_cdfg::timing::asap(cdfg).map_or(3 * l, |t| {
                Schedule {
                    rate,
                    start: t.start,
                }
                .pipe_length(cdfg)
                    + l
            })
        })
    }
}

/// Which flow [`synthesize`] runs, with its options.
#[derive(Clone, Debug)]
pub enum FlowSpec {
    /// The Chapter 3 flow for simple partitionings.
    Simple(SimpleOptions),
    /// The Chapter 4/6 connection-first flow.
    ConnectFirst(ConnectFirstOptions),
    /// The Chapter 5 schedule-first flow.
    ScheduleFirst(ScheduleFirstOptions),
}

/// Warm-start payload carried between runs of the same design and rate:
/// seeds going into [`synthesize`] through [`Run::warm`], exports coming
/// out through [`Outcome::exports`].
#[derive(Clone, Debug, Default)]
pub struct WarmStart {
    /// Epoch-0 pin-probe verdicts ([`PinChecker::initial_probe_memo`]).
    /// As a seed, only `false` verdicts from runs with componentwise
    /// larger pin budgets are sound; the caller filters.
    pub memo: Vec<((usize, i64), bool)>,
    /// Refutation certificates learned by the connection search (see
    /// [`mcs_connect::synthesize_seeded`] for the transfer rule).
    pub certs: Vec<RefutationCert>,
}

/// How [`synthesize`] runs a flow, apart from the flow's own options.
#[derive(Clone, Debug, Default)]
pub struct Run {
    /// Trace sink: every pipeline decision is mirrored into it as phase
    /// spans, placement verdicts, probes and counters.
    pub recorder: RecorderHandle,
    /// Seeds adopted before the run: the probe memo by the simple flow's
    /// pin checker, the certificates by the connection search.
    pub warm: WarmStart,
    /// Run the exact pin-feasibility gate ([`PinChecker`] construction,
    /// with the flow's budget attached) before the connect-first and
    /// schedule-first flows, so a pin budget no schedule can meet is
    /// reported as [`mcs_explore::PointStatus::PinInfeasible`]. The
    /// simple flow's own checker is its gate.
    pub gate: bool,
}

impl Run {
    /// A run that only records into `recorder`.
    pub fn traced(recorder: &RecorderHandle) -> Self {
        Run {
            recorder: recorder.clone(),
            ..Run::default()
        }
    }
}

/// What one [`synthesize`] call produced. Every run returns one — an
/// interruption or a failure is reported here, never as a hang or abort.
///
/// ```
/// use mcs_cdfg::designs::elliptic;
/// use multichip_hls::flows::{synthesize, ConnectFirstOptions, FlowSpec, Run};
/// use mcs_ctl::{Budget, BudgetSpec, Termination};
///
/// let d = elliptic::partitioned();
/// // A one-node ceiling trips at the first epoch barrier.
/// let mut opts = ConnectFirstOptions::new(6);
/// opts.budget = Some(Budget::new(BudgetSpec::default().max_nodes(1)));
/// let out = synthesize(d.cdfg(), &FlowSpec::ConnectFirst(opts), &Run::default());
/// if out.termination == Termination::BudgetExhausted {
///     assert!(out.interrupted().is_some());
///     assert!(out.best_depth > 0, "partial progress is still reported");
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The full synthesis result, or why there is none.
    /// [`FlowError::Interrupted`] means the budget tripped first — not
    /// evidence of infeasibility.
    pub result: Result<SynthesisResult, FlowError>,
    /// How the run ended. [`Termination::Complete`] means the flow ran
    /// to its natural verdict (success *or* a definitive failure); a
    /// result with another termination is degraded (e.g. a portfolio
    /// worker panicked).
    pub termination: Termination,
    /// Deepest partial connection the search reached — transfers placed
    /// on buses — even when no complete connection was found. 0 for
    /// flows without a connection search.
    pub best_depth: u64,
    /// Bus count of that deepest partial connection.
    pub best_buses: u32,
    /// Pin-checker probe counters, when the simple flow succeeded.
    pub probe_stats: Option<ProbeCacheStats>,
    /// Portfolio telemetry, whenever the connection search ran.
    pub search_stats: Option<SearchStats>,
    /// What later runs may adopt ([`Run::warm`]): the simple flow's
    /// epoch-0 probe memo on success, the connection search's learned
    /// certificates even on failure (failed searches produce the most
    /// valuable proofs). `None` when the run produced nothing to share.
    pub exports: Option<WarmStart>,
}

impl Outcome {
    fn new(result: Result<SynthesisResult, FlowError>, search_stats: Option<SearchStats>) -> Self {
        let termination = match &result {
            Err(FlowError::Interrupted(t)) => *t,
            _ => search_stats
                .as_ref()
                .map_or(Termination::Complete, |s| s.termination),
        };
        let (best_depth, best_buses) = search_stats
            .as_ref()
            .map_or((0, 0), |s| (s.deepest, s.deepest_buses));
        Outcome {
            result,
            termination,
            best_depth,
            best_buses,
            probe_stats: None,
            search_stats,
            exports: None,
        }
    }

    /// The budget verdict when the run was interrupted before reaching
    /// one of its own.
    pub fn interrupted(&self) -> Option<Termination> {
        match self.result {
            Err(FlowError::Interrupted(t)) => Some(t),
            _ => None,
        }
    }

    /// The point-status taxonomy shared by sweeps and the serve daemon.
    /// Only the gate's exact `InfeasibleFromTheStart` is an infeasibility
    /// proof (sound to lift to dominated points); an unsimple design, any
    /// other pin-allocation failure and an interruption are errors;
    /// everything downstream of the gate is an incomplete search.
    pub fn status(&self) -> mcs_explore::PointStatus {
        use mcs_explore::PointStatus;
        match &self.result {
            Ok(_) => PointStatus::Feasible,
            Err(FlowError::PinAllocation(PinAllocError::InfeasibleFromTheStart)) => {
                PointStatus::PinInfeasible
            }
            Err(
                FlowError::NotSimple(_) | FlowError::PinAllocation(_) | FlowError::Interrupted(_),
            ) => PointStatus::Error,
            Err(_) => PointStatus::SearchFailed,
        }
    }

    /// The failure text sweep points and serve responses carry (empty on
    /// success). A pin-gate rejection reports the checker's own message.
    pub fn detail(&self) -> String {
        match &self.result {
            Ok(_) => String::new(),
            Err(FlowError::PinAllocation(e)) => e.to_string(),
            Err(e) => e.to_string(),
        }
    }
}

/// Runs one synthesis flow: the one entry point behind the CLI, the
/// design-space explorer, the serve daemon and the resynthesis cold
/// fallback. With [`Run::gate`] set, the exact pin gate runs first; its
/// failure ends the run with no exports.
pub fn synthesize(cdfg: &Cdfg, spec: &FlowSpec, run: &Run) -> Outcome {
    // The simple flow's own checker is its gate.
    let gate = match spec {
        FlowSpec::ConnectFirst(o) if run.gate => Some((o.rate, &o.budget)),
        FlowSpec::ScheduleFirst(o) if run.gate => Some((o.rate, &o.budget)),
        _ => None,
    };
    if let Some((rate, budget)) = gate {
        if let Err(e) = PinChecker::with_budgets(cdfg, rate, DEFAULT_PIVOT_BUDGET, budget.clone()) {
            return Outcome::new(Err(e.into()), None);
        }
    }
    match spec {
        FlowSpec::Simple(opts) => match simple(cdfg, opts, run) {
            Ok((result, stats, exports)) => Outcome {
                probe_stats: Some(stats),
                exports: Some(exports),
                ..Outcome::new(Ok(result), None)
            },
            Err(e) => Outcome::new(Err(e), None),
        },
        FlowSpec::ConnectFirst(opts) => {
            let (result, stats, learned) = connect_first(cdfg, opts, run);
            Outcome {
                exports: Some(WarmStart {
                    memo: Vec::new(),
                    certs: learned,
                }),
                ..Outcome::new(result, Some(stats))
            }
        }
        FlowSpec::ScheduleFirst(opts) => {
            Outcome::new(schedule_first(cdfg, opts, &run.recorder), None)
        }
    }
}

/// The Chapter 3 flow for simple partitionings: verify Definition 3.2,
/// list-schedule under the incremental pin-allocation feasibility checker,
/// then build the interchip connection from the finished schedule (the
/// constructive guarantee of Theorem 3.1).
///
/// # Errors
///
/// [`FlowError::NotSimple`], [`FlowError::PinAllocation`], or any
/// scheduling failure.
pub fn simple_flow(cdfg: &Cdfg, rate: u32) -> Result<SynthesisResult, FlowError> {
    synthesize(
        cdfg,
        &FlowSpec::Simple(SimpleOptions::new(rate)),
        &Run::default(),
    )
    .result
}

/// The Chapter 4 (and 6) flow: synthesize the interchip connection first,
/// then list-schedule with bus slot allocation and dynamic reassignment.
///
/// # Errors
///
/// Connection or scheduling failures; validation failures indicate bugs.
pub fn connect_first_flow(
    cdfg: &Cdfg,
    opts: &ConnectFirstOptions,
) -> Result<SynthesisResult, FlowError> {
    synthesize(cdfg, &FlowSpec::ConnectFirst(opts.clone()), &Run::default()).result
}

/// The Chapter 5 flow: force-directed scheduling under a pipe-length
/// constraint, then interchip connection synthesis by clique partitioning.
/// Resource and pin numbers are *reported*, not constrained — exactly how
/// Tables 5.1 and 5.3 are produced.
///
/// # Errors
///
/// Scheduling failures (e.g. the pipe length is infeasible).
pub fn schedule_first_flow(
    cdfg: &Cdfg,
    rate: u32,
    pipe_length: i64,
    mode: PortMode,
) -> Result<SynthesisResult, FlowError> {
    let opts = ScheduleFirstOptions {
        pipe_length: Some(pipe_length),
        mode,
        ..ScheduleFirstOptions::new(rate)
    };
    synthesize(cdfg, &FlowSpec::ScheduleFirst(opts), &Run::default()).result
}

/// The simple flow's body. Trace: a `schedule` phase carrying the list
/// scheduler's placement verdicts and the pin checker's feasibility
/// probes (Gomory pivots included), a `postsyn` phase for the
/// clique-partitioning connection construction, and a closing
/// `pin-check` budget audit. On success also returns the checker's probe
/// counters and its epoch-0 verdict export.
fn simple(
    cdfg: &Cdfg,
    opts: &SimpleOptions,
    run: &Run,
) -> Result<(SynthesisResult, ProbeCacheStats, WarmStart), FlowError> {
    let rate = opts.rate;
    let (recorder, metrics) = (&run.recorder, &opts.metrics);
    // The checker doubles as the pin gate; the budget attaches before its
    // construction-time solve, which on adversarial designs can exceed
    // any deadline on its own.
    let mut checker = PinChecker::with_budgets(
        cdfg,
        rate,
        opts.pivot_budget.unwrap_or(DEFAULT_PIVOT_BUDGET),
        opts.budget.clone(),
    )?;
    checker.set_differential(opts.probe_differential);
    checker.seed_initial_memo(&run.warm.memo);
    let _flow_span = metrics.span("flow");
    check_simple(cdfg).map_err(FlowError::NotSimple)?;
    checker.set_metrics(metrics);
    let mut policy = PinPolicy::new(checker);
    policy.set_recorder(recorder.clone());
    let mut lc = ListConfig::new(rate);
    lc.recorder = recorder.clone();
    lc.metrics = metrics.clone();
    // Share the checker's budget (if any) with the scheduler so both
    // layers charge one ledger and trip at the same ceiling.
    lc.budget = opts.budget.clone();
    let schedule = {
        let _phase = recorder.phase("schedule");
        let _span = metrics.span("schedule");
        list_schedule(cdfg, &lc, &mut policy)?
    };
    let stats = policy.checker().probe_stats();
    let exports = WarmStart {
        memo: policy.checker().initial_probe_memo(),
        certs: Vec::new(),
    };
    // Probe counters go to the trace and, except the rollback depth (a
    // maximum, not a count), to the metrics registry.
    let counters = [
        ("probe.memo_hits", stats.memo_hits, true),
        ("probe.seed_hits", stats.seed_hits, true),
        ("probe.surrogate_rejects", stats.surrogate_rejects, true),
        ("probe.solver", stats.solver_probes, true),
        ("probe.exact_fallbacks", stats.exact_fallbacks, true),
        ("probe.max_rollback_depth", stats.max_rollback_depth, false),
        ("probe.batched", stats.batched_probes, true),
        (
            "probe.batch_checkpoints",
            stats.batch_shared_checkpoints,
            true,
        ),
    ];
    for (name, value, metered) in counters {
        recorder.counter(name, value as i64);
        if metered {
            metrics.add(name, value);
        }
    }
    let violations = validate(cdfg, &schedule);
    if !violations.is_empty() {
        return Err(FlowError::InvalidSchedule(violations));
    }
    // Theorem 3.1: a conflict-free connection within the pin budgets
    // exists for this schedule. Construct one by clique partitioning,
    // escalating the weighting factor of any partition whose budget the
    // heuristic overruns (Section 5.2's wf_i knob) until everything fits.
    let postsyn_phase = recorder.phase("postsyn");
    let postsyn_span = metrics.span("postsyn");
    let mut weights: BTreeMap<PartitionId, i64> = BTreeMap::new();
    let mut ic = None;
    for _round in 0..8 {
        let mut cfg = PostsynConfig::new(rate);
        cfg.weights = weights.clone();
        cfg.recorder = recorder.clone();
        let candidate = connect_after_scheduling(cdfg, &schedule, PortMode::Unidirectional, &cfg);
        let mut over = Vec::new();
        for p in 0..cdfg.partition_count() {
            let pid = PartitionId::new(p as u32);
            if candidate.pins_used(pid) > cdfg.partition(pid).total_pins {
                over.push(pid);
            }
        }
        if over.is_empty() {
            ic = Some(candidate);
            break;
        }
        for pid in over {
            let w = weights.entry(pid).or_insert(1);
            *w *= 4;
        }
    }
    if ic.is_none() {
        // The matching heuristic missed every budget-respecting cover.
        // Try the deterministic widest-first packer before giving up.
        let mut cfg = PostsynConfig::new(rate);
        cfg.weights = weights;
        cfg.recorder = recorder.clone();
        let candidate = connect_packed(cdfg, &schedule, PortMode::Unidirectional, &cfg);
        let fits = (0..cdfg.partition_count()).all(|p| {
            let pid = PartitionId::new(p as u32);
            candidate.pins_used(pid) <= cdfg.partition(pid).total_pins
        });
        if fits {
            ic = Some(candidate);
        }
    }
    drop(postsyn_span);
    drop(postsyn_phase);
    let Some(ic) = ic else {
        // Not a verifier-grade contradiction: the checker's per-group load
        // bound treats pins as bit-splittable, so a budget it admits may
        // still have no bus cover that carries each transfer whole. Report
        // a heuristic give-up, matching the Chapter 4 search's semantics.
        return Err(FlowError::Connect(ConnectError::NoConnectionFound));
    };
    let problems = verify_against_schedule(cdfg, &schedule, &ic);
    if !problems.is_empty() {
        return Err(FlowError::InvalidConnection(problems));
    }
    let result = SynthesisResult::common(cdfg, schedule, ic);
    record_pin_budget(cdfg, &result, recorder, metrics);
    Ok((result, stats, exports))
}

/// The connect-first flow's body, seeded from [`Run::warm`]'s
/// certificates. Trace: a `connect` phase carrying per-worker-epoch
/// [`Event::SearchNode`] telemetry from the portfolio search, a
/// `schedule` phase carrying placement verdicts and bus reassignments
/// from every scheduling attempt (including hold-back retries that lose),
/// a `postsyn` phase auditing the final connection against the winning
/// schedule, and a closing `pin-check` budget audit. Returns the search
/// telemetry and the certificates this run learned alongside the result.
fn connect_first(
    cdfg: &Cdfg,
    opts: &ConnectFirstOptions,
    run: &Run,
) -> (
    Result<SynthesisResult, FlowError>,
    SearchStats,
    Vec<RefutationCert>,
) {
    let recorder = &run.recorder;
    let _flow_span = opts.metrics.span("flow");
    let cfg = opts.search_config().with_recorder(recorder.clone());
    let (ic, search_stats, learned) = {
        let _phase = recorder.phase("connect");
        let _span = opts.metrics.span("connect");
        synthesize_seeded(cdfg, opts.mode, &cfg, &run.warm.certs)
    };
    let result = match ic {
        Ok(ic) => connect_first_schedule(cdfg, opts, ic, search_stats.clone(), recorder),
        Err(e) => Err(e.into()),
    };
    (result, search_stats, learned)
}

/// The scheduling half of the connect-first flow: bus-slot list
/// scheduling with hold-back retries over a fixed interconnect.
fn connect_first_schedule(
    cdfg: &Cdfg,
    opts: &ConnectFirstOptions,
    ic: Interconnect,
    search_stats: SearchStats,
    recorder: &RecorderHandle,
) -> Result<SynthesisResult, FlowError> {
    let (schedule, policy) = schedule_ladder(
        cdfg,
        opts.rate,
        &ic,
        opts.reassign,
        opts.budget.as_ref(),
        recorder,
        &opts.metrics,
    )?;
    let violations = validate(cdfg, &schedule);
    if !violations.is_empty() {
        return Err(FlowError::InvalidSchedule(violations));
    }
    let mut result = SynthesisResult::common(cdfg, schedule, ic);
    result.placements = policy.placements().clone();
    result.reassigned = policy.reassigned_count();
    result.search_stats = Some(search_stats);
    if recorder.enabled() {
        // Audit the winning schedule against the *final* connection (the
        // checks the schedule-first flows run inline), purely for the
        // trace — a clean run records zero problems.
        let _phase = recorder.phase("postsyn");
        let problems =
            verify_against_schedule(cdfg, &result.schedule, &result.final_interconnect());
        recorder.counter("postsyn.verify_problems", problems.len() as i64);
        recorder.counter("flow.reassigned", result.reassigned as i64);
        let rm = policy.rematch_stats();
        recorder.counter("rematch.rounds", rm.rounds as i64);
        recorder.counter("rematch.seeded", rm.seeded as i64);
        recorder.counter("rematch.augmentations", rm.augmentations as i64);
    }
    if opts.metrics.enabled() {
        opts.metrics
            .add("flow.reassigned", result.reassigned as u64);
        let rm = policy.rematch_stats();
        opts.metrics.add("rematch.rounds", rm.rounds);
        opts.metrics.add("rematch.seeded", rm.seeded);
        opts.metrics.add("rematch.augmentations", rm.augmentations);
    }
    record_pin_budget(cdfg, &result, recorder, &opts.metrics);
    Ok(result)
}

/// Bus-slot list scheduling over a fixed interconnect with the
/// connect-first retry ladder, under one `schedule` phase and span.
///
/// With `reassign`, dynamic allocation is an *addition* to static
/// allocation: both run and the shorter schedule wins, so enabling
/// reassignment can only help — the relation the paper's Tables
/// 4.2/4.10 report. When a composite maximum time constraint proves too
/// tight, the consumers of feedback transfers are held back a few steps
/// and the run repeated (the paper's "constrain some of the operations
/// and rerun"). Returns the last scheduling error when no attempt
/// succeeds.
pub(crate) fn schedule_ladder(
    cdfg: &Cdfg,
    rate: u32,
    ic: &Interconnect,
    reassign: bool,
    budget: Option<&Budget>,
    recorder: &RecorderHandle,
    metrics: &MetricsHandle,
) -> Result<(Schedule, BusPolicy), SchedError> {
    let attempts: &[bool] = if reassign { &[true, false] } else { &[false] };
    let holdable = mcs_sched::feedback_consumers(cdfg);
    let mut best: Option<(Schedule, BusPolicy)> = None;
    let mut last_err = SchedError::StepLimit;
    let _phase = recorder.phase("schedule");
    let _span = metrics.span("schedule");
    for &reassign in attempts {
        for hold in [0i64, 2, 4, 6, 8] {
            let mut lc = ListConfig::new(rate);
            lc.recorder = recorder.clone();
            lc.metrics = metrics.clone();
            lc.budget = budget.cloned();
            for &op in &holdable {
                lc.hold_back.insert(op, hold);
            }
            let mut policy = BusPolicy::new(ic.clone(), rate, reassign);
            policy.set_recorder(recorder.clone());
            policy.set_metrics(metrics);
            match list_schedule(cdfg, &lc, &mut policy) {
                Ok(s) => {
                    let better = best
                        .as_ref()
                        .is_none_or(|(b, _)| s.pipe_length(cdfg) < b.pipe_length(cdfg));
                    if better {
                        best = Some((s, policy));
                    }
                    break; // larger holds only lengthen this variant
                }
                Err(e) => {
                    let retryable = matches!(
                        e,
                        SchedError::DeadlineMissed { .. } | SchedError::NoWindowSlot { .. }
                    ) && !holdable.is_empty();
                    last_err = e;
                    if !retryable {
                        break;
                    }
                }
            }
        }
    }
    best.ok_or(last_err)
}

/// The schedule-first flow's body. Trace and metrics: a `schedule`
/// phase around force-directed scheduling, a `postsyn` phase carrying
/// the clique-partitioning counters, and a closing `pin-check` budget
/// audit, all under one `flow` span.
fn schedule_first(
    cdfg: &Cdfg,
    opts: &ScheduleFirstOptions,
    recorder: &RecorderHandle,
) -> Result<SynthesisResult, FlowError> {
    let _flow_span = opts.metrics.span("flow");
    let rate = opts.rate;
    let pipe_length = opts.pipe_length(cdfg);
    let schedule = {
        let _phase = recorder.phase("schedule");
        let _span = opts.metrics.span("schedule");
        let schedule = fds_schedule(cdfg, &FdsConfig { rate, pipe_length })?;
        recorder.counter("sched.pipe_length", schedule.pipe_length(cdfg));
        schedule
    };
    let violations: Vec<_> = validate(cdfg, &schedule)
        .into_iter()
        // FDS reports the resources it needs instead of obeying declared
        // unit counts.
        .filter(|v| !matches!(v, ScheduleViolation::Resources { .. }))
        .collect();
    if !violations.is_empty() {
        return Err(FlowError::InvalidSchedule(violations));
    }
    let ic = {
        let _phase = recorder.phase("postsyn");
        let _span = opts.metrics.span("postsyn");
        let mut cfg = PostsynConfig::new(rate);
        cfg.recorder = recorder.clone();
        connect_after_scheduling(cdfg, &schedule, opts.mode, &cfg)
    };
    let problems = verify_against_schedule(cdfg, &schedule, &ic);
    if !problems.is_empty() {
        return Err(FlowError::InvalidConnection(problems));
    }
    let result = SynthesisResult::common(cdfg, schedule, ic);
    record_pin_budget(cdfg, &result, recorder, &opts.metrics);
    Ok(result)
}

/// Applies the Chapter 6 sharing pass to an existing interconnect and
/// reports the pin totals before and after (Table 6.4's comparison).
///
/// The returned interconnect has its buses in canonical order — sorted
/// by (chip pair, then position among the pair's buses) — so rows
/// derived from it (explore CSV, reports) are stable regardless of the
/// order `share_pass` merged buses in.
pub fn sharing_improvement(cdfg: &Cdfg, ic: &Interconnect, rate: u32) -> (u32, u32, Interconnect) {
    let total = |ic: &Interconnect| {
        (0..cdfg.partition_count())
            .map(|p| ic.pins_used(PartitionId::new(p as u32)))
            .sum()
    };
    let before = total(ic);
    let mut shared = ic.clone();
    share_pass(cdfg, &mut shared, rate);
    sort_buses_canonically(&mut shared);
    let after = total(&shared);
    (before, after, shared)
}

/// Sorts `ic.buses` by (source partitions, sink partitions, original
/// index) and remaps every assignment to the new bus indices. The
/// original index as final tie-break keeps the sort stable, so equal
/// chip pairs preserve their relative order.
fn sort_buses_canonically(ic: &mut Interconnect) {
    let pair = |bus: &mcs_connect::Bus| {
        let src = bus
            .out_ports
            .keys()
            .chain(bus.bi_ports.keys())
            .min()
            .copied();
        let snk = bus
            .in_ports
            .keys()
            .chain(bus.bi_ports.keys())
            .min()
            .copied();
        (src, snk)
    };
    let mut order: Vec<usize> = (0..ic.buses.len()).collect();
    order.sort_by_key(|&i| (pair(&ic.buses[i]), i));
    let mut remap = vec![0u32; ic.buses.len()];
    for (new_ix, &old_ix) in order.iter().enumerate() {
        remap[old_ix] = new_ix as u32;
    }
    ic.buses = order.iter().map(|&i| ic.buses[i].clone()).collect();
    for a in ic.assignment.values_mut() {
        a.bus = BusId::new(remap[a.bus.index()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_cdfg::designs::elliptic;

    #[test]
    fn sharing_improvement_returns_canonically_sorted_buses() {
        let d = elliptic::partitioned();
        let opts = ConnectFirstOptions::new(6);
        let r = connect_first_flow(d.cdfg(), &opts).unwrap();

        // Scramble the bus order; the sharing pass must undo it.
        let mut scrambled = r.interconnect.clone();
        scrambled.buses.reverse();
        let n = scrambled.buses.len() as u32;
        for a in scrambled.assignment.values_mut() {
            a.bus = BusId::new(n - 1 - a.bus.index() as u32);
        }
        assert!(scrambled.verify(d.cdfg()).is_empty());

        let (_, _, sorted) = sharing_improvement(d.cdfg(), &scrambled, 6);
        let (b1, a1, from_original) = sharing_improvement(d.cdfg(), &r.interconnect, 6);
        assert!(sorted.verify(d.cdfg()).is_empty());
        assert!(a1 <= b1);

        let pairs = |ic: &Interconnect| -> Vec<(Option<PartitionId>, Option<PartitionId>)> {
            ic.buses
                .iter()
                .map(|b| {
                    (
                        b.out_ports.keys().chain(b.bi_ports.keys()).min().copied(),
                        b.in_ports.keys().chain(b.bi_ports.keys()).min().copied(),
                    )
                })
                .collect()
        };
        let sorted_pairs = pairs(&sorted);
        let mut expect = sorted_pairs.clone();
        expect.sort();
        assert_eq!(sorted_pairs, expect, "buses must sort by chip pair");
        // Scrambled and original inputs converge to the same bus order.
        assert_eq!(pairs(&from_original), sorted_pairs);
    }
}
