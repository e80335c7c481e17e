//! `connect-cold`: the Chapter 4 connect-first flow with CLI defaults
//! (one worker, no portfolio), run by one in-process caller.
//!
//! Heavy rows are the synthetic 6/7/8-chip meshes at rate 4 and the
//! portfolio-adversarial designs with 4/5/6 senders at rate 2; cheap
//! rows are the elliptic filter and the general AR filter in both port
//! modes, with and without Chapter 6 sharing. Each round runs every row
//! once in a seeded order. The connection search takes nearly all the
//! time; no pin checker runs on this path.

use std::sync::Arc;

use mcs_cdfg::designs::{ar_filter, elliptic, synthetic, Design};
use mcs_cdfg::{Cdfg, PortMode};
use mcs_metrics::{MetricsHandle, Registry};
use multichip_hls::flows::{connect_first_flow, ConnectFirstOptions, SynthesisResult};

use crate::calib::timed;
use crate::trace::Tracer;
use crate::{check, layers, measure_setup, run_rounds, run_traced, Args, Report, Rng, Round};

/// One row: a design handed to the program as `.mcs` text, and the
/// flow options.
struct Row {
    name: String,
    cdfg: Cdfg,
    opts: ConnectFirstOptions,
}

fn generated() -> Vec<(String, Design, u32, PortMode, bool)> {
    let mut rows = Vec::new();
    for chips in [6, 7, 8] {
        let d = synthetic::large_mesh(chips);
        rows.push((
            format!("mesh{chips}"),
            d,
            4,
            PortMode::Unidirectional,
            false,
        ));
    }
    for senders in [4, 5, 6] {
        let d = synthetic::portfolio_adversarial(senders);
        rows.push((
            format!("adversarial{senders}"),
            d,
            2,
            PortMode::Unidirectional,
            false,
        ));
    }
    for mode in [PortMode::Unidirectional, PortMode::Bidirectional] {
        for sharing in [false, true] {
            let tag = format!(
                "{}{}",
                if mode == PortMode::Bidirectional {
                    "bidir"
                } else {
                    "uni"
                },
                if sharing { "-shared" } else { "" }
            );
            let d = elliptic::partitioned_with(6, mode);
            rows.push((format!("elliptic-{tag}"), d, 6, mode, sharing));
            let d = ar_filter::general(2, mode);
            rows.push((format!("ar-general-{tag}"), d, 2, mode, sharing));
        }
    }
    rows
}

/// Generates the rows. The synthetic designs are built in process:
/// their canonical `.mcs` text does not parse back (the writer repeats
/// value names), so they cannot travel as text.
fn setup() -> Vec<Row> {
    generated()
        .into_iter()
        .map(|(name, design, rate, mode, sharing)| {
            let mut opts = ConnectFirstOptions::new(rate);
            opts.mode = mode;
            opts.sharing = sharing;
            Row {
                name,
                cdfg: design.into_cdfg(),
                opts,
            }
        })
        .collect()
}

/// `latency_tail_ms` is p75: a run of 30 seconds completes some seven
/// rounds of 14 jobs, which leaves about 25 jobs beyond it.
const TAIL_PERMILLE: usize = 750;

/// Per-row bookkeeping across rounds.
#[derive(Default)]
struct Log {
    first: Vec<Option<SynthesisResult>>,
    runs: Vec<u64>,
    failed: Vec<u64>,
    ms: Vec<Vec<f64>>,
    backtracks: u64,
    prunes: u64,
}

/// Runs rounds for `seconds`; with a registry and tracer the rounds are
/// traced.
fn measure(
    rows: &[Row],
    args: &Args,
    seconds: f64,
    report: &mut Report,
    log: &mut Log,
    traced: Option<(&MetricsHandle, &Tracer)>,
) {
    let mut rng = Rng::new(args.seed, 1);
    let mut order: Vec<usize> = (0..rows.len()).collect();
    let mut job_id = report.attempted;
    let rounds = run_rounds(seconds, || {
        rng.shuffle(&mut order);
        let mut round = Round::default();
        for &i in &order {
            let row = &rows[i];
            job_id += 1;
            let (out, iv) = match traced {
                None => timed(|| connect_first_flow(&row.cdfg, &row.opts)),
                Some((metrics, tracer)) => {
                    let mut opts = row.opts.clone();
                    opts.metrics = metrics.clone();
                    timed(|| {
                        let job = tracer.span("job", None, job_id);
                        tracer.time("core.connect_first_flow", Some(job.id()), job_id, || {
                            connect_first_flow(&row.cdfg, &opts)
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
                    if let (Some(s), Some(_)) = (&r.search_stats, traced) {
                        log.backtracks += s.backtracks;
                        log.prunes += s.prunes;
                    }
                    match &log.first[i] {
                        None => {
                            log.first[i] = Some(r);
                            true
                        }
                        Some(first) => check::measures(first) == check::measures(&r),
                    }
                }
                Err(e) => {
                    report.notes.push(format!("{}: flow failed: {e}", row.name));
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

/// Runs the workload.
///
/// # Errors
///
/// Failure to write the span file of a traced run.
pub fn run(args: &Args) -> Result<Report, String> {
    let (rows, setups) = measure_setup(setup);
    let mut log = Log {
        first: vec![None; rows.len()],
        runs: vec![0; rows.len()],
        failed: vec![0; rows.len()],
        ms: vec![Vec::new(); rows.len()],
        ..Log::default()
    };
    let mut report = if args.trace {
        let registry = Arc::new(Registry::new());
        let metrics = MetricsHandle::new(registry.clone());
        let run = run_traced(args, |seconds, report, tracer| {
            let traced = tracer.map(|t| (&metrics, t));
            measure(&rows, args, seconds, report, &mut log, traced);
            Ok(())
        })?;
        let jobs = run.jobs();
        let mut l = layers::from_registry(&registry.snapshot(), jobs, run.tracer.total_us("job"));
        l.insert("connect.backtracks", log.backtracks as f64 / jobs);
        l.insert("connect.prunes", log.prunes as f64 / jobs);
        run.finish(args, l)?
    } else {
        let mut report = Report::default();
        measure(&rows, args, args.seconds, &mut report, &mut log, None);
        report
    };
    report.setups = setups;
    report.tail_permille = TAIL_PERMILLE;
    for (row, ms) in rows.iter().zip(&mut log.ms) {
        report.notes.push(format!(
            "row {} median {:.3} ms of wall time over {} runs",
            row.name,
            crate::stats::median(ms),
            ms.len()
        ));
    }
    // Correctness: every distinct result, checked once, outside the loop.
    for (i, row) in rows.iter().enumerate() {
        let verdict = match &log.first[i] {
            Some(r) => check::verify_result(&row.cdfg, r, false, args.seed).map(|()| {
                let (pipe, pins, buses) = check::measures(r);
                report.qor.add(pipe, pins, buses);
            }),
            None => Err("no result".into()),
        };
        if let Err(e) = verdict {
            report
                .notes
                .push(format!("{}: check failed: {e}", row.name));
            report.failed += log.runs[i] - log.failed[i];
        }
    }
    if args.trace {
        report.layers.extend(layers::client(&report));
    }
    Ok(report)
}
