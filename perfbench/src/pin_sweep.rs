//! `pin-sweep`: rate x pin-budget sweeps through `run_sweep`, the way
//! `mcs-hls explore` runs them, with one sweep worker.
//!
//! Designs are parsed from `.mcs` text: the simple AR filter, the
//! example designs, the elliptic benchmark and fuzz designs. Every
//! design is swept with the Chapter 5 schedule-first flow, and each of
//! the fixed designs with a simple partitioning also with the Chapter 3
//! simple flow. Lattices run from the design's minimum initiation rate
//! upward and from 1.5x its declared pins down to a quarter, so they
//! straddle the feasibility boundary. One job is one sweep; the
//! connection search never runs.

use std::collections::BTreeMap;
use std::sync::Arc;

use mcs_cdfg::designs::ar_filter;
use mcs_cdfg::fuzz::{design_from_seed, FuzzConfig};
use mcs_cdfg::{format, Cdfg, PartitionId, PortMode};
use mcs_explore::{FlowVariant, PointStatus, SweepOptions, SweepReport, SweepSpec};
use mcs_metrics::{MetricsHandle, Registry};
use multichip_hls::explore::run_sweep;
use multichip_hls::obs::RecorderHandle;

use crate::calib::timed;
use crate::trace::Tracer;
use crate::{check, layers, measure_setup, run_rounds, run_traced, Args, Report, Rng, Round};

/// The example designs, as committed `.mcs` text.
const EXAMPLES: [(&str, &str); 5] = [
    ("conditional", include_str!("../designs/conditional.mcs")),
    ("pipeline", include_str!("../designs/pipeline.mcs")),
    (
        "recursive_filter",
        include_str!("../designs/recursive_filter.mcs"),
    ),
    ("tdm_wide", include_str!("../designs/tdm_wide.mcs")),
    ("wide_sweep", include_str!("../designs/wide_sweep.mcs")),
];

/// The elliptic filter benchmark, as committed `.mcs` text.
const ELLIPTIC: &str = include_str!("../designs/elliptic.mcs");

/// Fuzz generator seeds whose sweeps finish in milliseconds and have
/// feasible points. Every run sweeps all of them, so every seed
/// measures the same mix.
const FUZZ_POOL: [u64; 13] = [6, 13, 42, 76, 85, 88, 105, 107, 108, 112, 118, 126, 134];

/// A sweep lattice: `rates` rates from the design's minimum initiation
/// rate, crossed with budget vectors at `fractions` of the declared pins.
struct Lattice {
    rates: u32,
    fractions: &'static [f64],
}

/// The lattice of the AR filter, the elliptic filter and the fuzz
/// designs (whose points were vetted at this size).
const BASE: Lattice = Lattice {
    rates: 4,
    fractions: &[1.5, 1.0, 0.75, 0.5, 0.375, 0.25],
};

/// The lattice of the small example designs: more points per wave, so
/// that their sweeps spend their time synthesizing rather than starting
/// a wave's worker threads.
const WIDE: Lattice = Lattice {
    rates: 8,
    fractions: &[1.5, 1.25, 1.0, 0.875, 0.75, 0.625, 0.5, 0.375, 0.25],
};

/// One sweep job.
struct Job {
    cdfg: Arc<Cdfg>,
    spec: SweepSpec,
}

/// One design the program receives as `.mcs` text.
struct Input {
    name: String,
    text: String,
    /// Also sweep with the simple flow when the partitioning is simple.
    simple_flow: bool,
    lattice: &'static Lattice,
}

/// The fixed designs, then the fuzz designs. The fuzz designs are swept
/// with the schedule-first flow only, which keeps a round at 26 sweeps.
fn inputs() -> Vec<Input> {
    let input = |name: &str, text: String, simple_flow, lattice| Input {
        name: name.to_string(),
        text,
        simple_flow,
        lattice,
    };
    let mut out = vec![input(
        "ar_filter_simple",
        format::write(ar_filter::simple().cdfg()),
        true,
        &BASE,
    )];
    for (name, text) in EXAMPLES {
        out.push(input(name, text.to_string(), true, &WIDE));
    }
    out.push(input("elliptic", ELLIPTIC.to_string(), true, &BASE));
    let config = FuzzConfig::default();
    for s in FUZZ_POOL {
        let text = format::write(design_from_seed(&config, s).cdfg());
        out.push(input(&format!("fuzz{s}"), text, false, &BASE));
    }
    out
}

fn lattice(cdfg: &Cdfg, lattice: &Lattice) -> (Vec<u32>, Vec<Vec<u32>>) {
    let r0 = mcs_cdfg::timing::min_initiation_rate(cdfg).max(1);
    let budgets = lattice
        .fractions
        .iter()
        .map(|f| {
            (1..cdfg.partition_count())
                .map(|i| {
                    let pins = cdfg.partition(PartitionId::new(i as u32)).total_pins;
                    ((f64::from(pins) * f).round() as u32).max(1)
                })
                .collect()
        })
        .collect();
    ((r0..r0 + lattice.rates).collect(), budgets)
}

/// Parses every design and builds the sweep jobs.
fn setup(inputs: &[Input], tracer: Option<&Tracer>) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    for input in inputs {
        let parse = || format::parse(&input.text);
        let design = match tracer {
            Some(t) => t.time("cdfg.parse", None, 0, parse),
            None => parse(),
        }
        .map_err(|e| format!("{}: {e}", input.name))?;
        let cdfg = Arc::new(design.into_cdfg());
        let (rates, budgets) = lattice(&cdfg, input.lattice);
        let mut flows = vec![FlowVariant::ScheduleFirst];
        if input.simple_flow && mcs_pinalloc::is_simple(&cdfg) {
            flows.insert(0, FlowVariant::Simple);
        }
        for flow in flows {
            jobs.push(Job {
                cdfg: cdfg.clone(),
                spec: SweepSpec {
                    design: input.name.clone(),
                    flow,
                    rates: rates.clone(),
                    budgets: budgets.clone(),
                },
            });
        }
    }
    Ok(jobs)
}

/// Sweep workers. One: on a small shared machine a second worker
/// measures the scheduler more than the sweep.
const SWEEP_WORKERS: usize = 1;

/// `latency_tail_ms` is p95: a run of 30 seconds completes some thirty
/// rounds of 26 sweeps, which leaves about forty sweeps beyond it.
const TAIL_PERMILLE: usize = 950;

/// Per-job bookkeeping across rounds.
struct Log {
    first: Vec<Option<(SweepReport, String)>>,
    runs: Vec<u64>,
    failed: Vec<u64>,
    ms: Vec<Vec<f64>>,
    seed_hits: u64,
}

fn measure(
    jobs: &[Job],
    args: &Args,
    seconds: f64,
    report: &mut Report,
    log: &mut Log,
    traced: Option<(&MetricsHandle, &Tracer)>,
) {
    let mut rng = Rng::new(args.seed, 3);
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    let mut job_id = report.attempted;
    let rounds = run_rounds(seconds, || {
        rng.shuffle(&mut order);
        let mut round = Round::default();
        for &i in &order {
            let job = &jobs[i];
            job_id += 1;
            let mut opts = SweepOptions {
                jobs: SWEEP_WORKERS,
                ..SweepOptions::default()
            };
            let recorder = RecorderHandle::default();
            let (out, iv) = match traced {
                None => timed(|| run_sweep(&job.cdfg, &job.spec, &opts, &recorder)),
                Some((metrics, tracer)) => {
                    opts.metrics = metrics.clone();
                    timed(|| {
                        let span = tracer.span("job", None, job_id);
                        tracer.time("core.run_sweep", Some(span.id()), job_id, || {
                            run_sweep(&job.cdfg, &job.spec, &opts, &recorder)
                        })
                    })
                }
            };
            round.jobs += 1;
            round.busy.push(iv);
            log.runs[i] += 1;
            log.ms[i].push(iv.ms());
            let ok = match out {
                Ok(r) => {
                    if traced.is_some() {
                        log.seed_hits += r.stats.seed_hits();
                    }
                    let clean = r.stats.errors == 0 && r.stats.panics == 0;
                    let json = r.to_json();
                    match &log.first[i] {
                        None => {
                            log.first[i] = Some((r, json));
                            clean
                        }
                        Some((_, first)) => clean && *first == json,
                    }
                }
                Err(e) => {
                    report
                        .notes
                        .push(format!("{}: sweep failed: {e}", job.spec.design));
                    false
                }
            };
            if !ok {
                log.failed[i] += 1;
            }
            report.job(iv, ok);
        }
        round
    });
    report.rounds.extend(rounds);
}

/// Replays the layer calls of every schedule-first point that ran
/// (force-directed scheduling, then clique-partitioning connection
/// synthesis) inside spans, since the schedule-first flow carries no
/// metrics handle. Returns `(fds µs, postsyn µs)` for one pass.
fn replay_schedule_first(jobs: &[Job], log: &Log, tracer: &Tracer) -> (f64, f64) {
    let before_fds = tracer.total_us("sched.fds_schedule");
    let before_post = tracer.total_us("postsyn.connect_after_scheduling");
    for (i, job) in jobs.iter().enumerate() {
        let Some((report, _)) = &log.first[i] else {
            continue;
        };
        if job.spec.flow != FlowVariant::ScheduleFirst {
            continue;
        }
        for o in &report.outcomes {
            if !matches!(o.status, PointStatus::Feasible | PointStatus::SearchFailed) {
                continue;
            }
            let rate = o.coord.rate;
            let point = check::with_budget(&job.cdfg, &job.spec.budgets[o.coord.budget_ix]);
            let cfg = mcs_sched::FdsConfig {
                rate,
                pipe_length: check::default_pipe_length(&point, rate),
            };
            let job_id = i as u64;
            let fds = tracer.time("sched.fds_schedule", None, job_id, || {
                mcs_sched::fds_schedule(&point, &cfg)
            });
            if let Ok(schedule) = fds {
                tracer.time("postsyn.connect_after_scheduling", None, job_id, || {
                    mcs_postsyn::connect_after_scheduling(
                        &point,
                        &schedule,
                        PortMode::Unidirectional,
                        &mcs_postsyn::PostsynConfig::new(rate),
                    )
                });
            }
        }
    }
    (
        tracer.total_us("sched.fds_schedule") - before_fds,
        tracer.total_us("postsyn.connect_after_scheduling") - before_post,
    )
}

/// Runs the workload.
///
/// # Errors
///
/// A design that does not parse, or failure to write the span file.
pub fn run(args: &Args) -> Result<Report, String> {
    let setup_tracer = Tracer::default();
    let (jobs, setups) = measure_setup(|| {
        let inputs = inputs();
        setup(&inputs, args.trace.then_some(&setup_tracer))
    });
    let jobs = jobs?;
    let mut log = Log {
        first: (0..jobs.len()).map(|_| None).collect(),
        runs: vec![0; jobs.len()],
        failed: vec![0; jobs.len()],
        ms: vec![Vec::new(); jobs.len()],
        seed_hits: 0,
    };
    let mut report = if args.trace {
        let registry = Arc::new(Registry::new());
        let metrics = MetricsHandle::new(registry.clone());
        let run = run_traced(args, |seconds, report, tracer| {
            let traced = tracer.map(|t| (&metrics, t));
            measure(&jobs, args, seconds, report, &mut log, traced);
            Ok(())
        })?;
        let n = run.jobs();
        let mut l = layers::from_registry(&registry.snapshot(), n, run.tracer.total_us("job"));
        l.insert("explore.cache_hits", log.seed_hits as f64 / n);
        let (fds_us, post_us) = replay_schedule_first(&jobs, &log, &run.tracer);
        let per_round = jobs.len() as f64;
        l.insert("sched.fds_us", fds_us / per_round);
        *l.entry("postsyn.us").or_default() += post_us / per_round;
        insert_parse_layers(&setup_tracer, jobs.iter().map(|j| &*j.cdfg), &mut l);
        run.finish(args, l)?
    } else {
        let mut report = Report::default();
        measure(&jobs, args, args.seconds, &mut report, &mut log, None);
        report
    };
    report.setups = setups;
    report.tail_permille = TAIL_PERMILLE;
    for (job, ms) in jobs.iter().zip(&mut log.ms) {
        report.notes.push(format!(
            "sweep {} ({}) median {:.3} ms of wall time over {} runs",
            job.spec.design,
            job.spec.flow.as_str(),
            crate::stats::median(ms),
            ms.len()
        ));
    }
    let mut env_over = 0;
    for (i, job) in jobs.iter().enumerate() {
        let verdict = match &log.first[i] {
            Some((r, _)) => check::verify_sweep(&job.cdfg, r, args.seed),
            None => Err("no result".into()),
        };
        match verdict {
            Ok((q, over)) => {
                env_over += over;
                report.qor.absorb(&q);
            }
            Err(e) => {
                report.notes.push(format!(
                    "{} ({}): check failed: {e}",
                    job.spec.design,
                    job.spec.flow.as_str()
                ));
                report.failed += log.runs[i] - log.failed[i];
            }
        }
    }
    report.notes.push(format!(
        "schedule-first feasible points over the environment pin budget: {env_over}"
    ));
    if args.trace {
        report.layers.extend(layers::client(&report));
    }
    Ok(report)
}

/// `cdfg.parse_us` from set-up parse spans and `cdfg.ops_parsed` from
/// the op counts of the parsed designs.
pub fn insert_parse_layers<'a>(
    setup_tracer: &Tracer,
    designs: impl Iterator<Item = &'a Cdfg>,
    l: &mut BTreeMap<&'static str, f64>,
) {
    if let Some(&(calls, total_us, _)) = setup_tracer.summary().get("cdfg.parse") {
        l.insert("cdfg.parse_us", total_us / calls as f64);
    }
    let (n, ops) = designs.fold((0usize, 0usize), |(n, ops), c| {
        (n + 1, ops + c.op_ids().count())
    });
    if n > 0 {
        l.insert("cdfg.ops_parsed", ops as f64 / n as f64);
    }
}
