//! Cross-crate metrics contracts: the always-on registry under
//! multi-threaded hammering, and the determinism guarantee that metric
//! exports are byte-identical however many sweep workers run.

use std::sync::Arc;

use mcs_cdfg::delta::DesignDelta;
use mcs_cdfg::format;
use mcs_ctl::{json, ManualClock};
use multichip_hls::explore::run_sweep;
use multichip_hls::explore_engine::{FlowVariant, SweepOptions, SweepSpec};
use multichip_hls::flows::{
    resynth_flow_traced, simple_flow, synthesize, FlowSpec, ResynthPath, Run, ScheduleFirstOptions,
};
use multichip_hls::metrics::{export as metrics_export, MetricsHandle, Registry};
use multichip_hls::obs::{export as obs_export, BufferingRecorder, Event, RecorderHandle};

/// 8 threads hammer one registry and one recorder concurrently. Counter
/// totals must be exact (no lost updates), histogram counts must account
/// for every observation, and both trace export formats must still pass
/// the strict in-tree JSON validator.
#[test]
fn stress_eight_threads_exact_totals_and_valid_exports() {
    const THREADS: u64 = 8;
    const ROUNDS: u64 = 10_000;

    let reg = Arc::new(Registry::new());
    let metrics = MetricsHandle::new(reg.clone());
    let buf = Arc::new(BufferingRecorder::with_capacity(1 << 20));
    let rec = RecorderHandle::new(buf.clone());

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let metrics = metrics.clone();
            let rec = rec.clone();
            scope.spawn(move || {
                // Resolved handles, the hot-loop pattern.
                let pivots = metrics.counter("ilp.pivots");
                let latency = metrics.histogram("probe.latency_us.solver");
                let depth = metrics.gauge("stress.depth");
                for i in 0..ROUNDS {
                    pivots.inc();
                    latency.observe(t * ROUNDS + i);
                    depth.set(i as i64);
                    let _span = metrics.span("stress");
                    if i % 64 == 0 {
                        rec.counter("stress.events", 1);
                    }
                }
            });
        }
    });

    let snap = reg.snapshot();
    assert_eq!(snap.counters["ilp.pivots"], THREADS * ROUNDS);
    let h = &snap.histograms["probe.latency_us.solver"];
    assert_eq!(h.count, THREADS * ROUNDS);
    assert_eq!(h.min, 0);
    assert_eq!(h.max, THREADS * ROUNDS - 1);
    // Sum of 0..N-1 exactly, no lost observations.
    let n = THREADS * ROUNDS;
    assert_eq!(h.sum, n * (n - 1) / 2);
    assert!((0..ROUNDS as i64).contains(&snap.gauges["stress.depth"]));
    let spans: u64 = snap
        .profile
        .iter()
        .filter(|p| p.path == "stress")
        .map(|p| p.calls)
        .sum();
    assert_eq!(spans, THREADS * ROUNDS);

    // The recorder took the same hammering; both export formats must
    // still be strict JSON, and no events may have been dropped.
    assert_eq!(buf.dropped(), 0);
    let recorded: i64 = buf
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Counter { name, value } if *name == "stress.events" => Some(*value),
            _ => None,
        })
        .sum();
    assert_eq!(recorded as u64, THREADS * ROUNDS.div_ceil(64));
    let timed = buf.timed_events();
    json::parse(&obs_export::chrome_trace(&timed)).expect("chrome export valid");
    for (i, line) in obs_export::jsonl(&timed).lines().enumerate() {
        json::parse(line).unwrap_or_else(|e| panic!("jsonl line {i}: {e}"));
    }

    // The metrics JSON export survives the same validator.
    metrics_export::to_json(&snap);
}

/// The acceptance determinism gate: sweeping the elliptic benchmark at
/// `--jobs 1/2/8` under a manual clock produces byte-identical metric
/// exports — counter totals, histogram percentiles, gauges and the span
/// profile — in both the JSON and the Prometheus text format.
#[test]
fn elliptic_sweep_metrics_identical_across_jobs() {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/benchmarks/elliptic.mcs"),
    )
    .expect("elliptic benchmark present");
    let design = format::parse(&text).expect("benchmark parses");
    let cdfg = design.cdfg();

    let spec = SweepSpec {
        design: "elliptic".into(),
        flow: FlowVariant::ConnectFirst,
        rates: vec![5, 6],
        budgets: vec![vec![48, 48, 64, 48, 48], vec![32, 48, 64, 48, 48]],
    };

    let export_at = |jobs: usize| -> (String, String) {
        let reg = Arc::new(Registry::with_clock(Arc::new(ManualClock::new())));
        let opts = SweepOptions {
            jobs,
            metrics: MetricsHandle::new(reg.clone()),
            ..SweepOptions::default()
        };
        run_sweep(cdfg, &spec, &opts, &RecorderHandle::default()).expect("sweep runs");
        let snap = reg.snapshot();
        (
            metrics_export::to_json(&snap),
            metrics_export::to_prometheus(&snap),
        )
    };

    let (json1, prom1) = export_at(1);
    let (json2, prom2) = export_at(2);
    let (json8, prom8) = export_at(8);
    assert_eq!(json1, json2, "JSON export differs between jobs 1 and 2");
    assert_eq!(json1, json8, "JSON export differs between jobs 1 and 8");
    assert_eq!(
        prom1, prom2,
        "Prometheus export differs between jobs 1 and 2"
    );
    assert_eq!(
        prom1, prom8,
        "Prometheus export differs between jobs 1 and 8"
    );

    // Sanity: the run actually aggregated synthesis metrics.
    assert!(prom1.contains("explore_points"), "{prom1}");
    assert!(prom1.contains("connect_epoch_us_count"), "{prom1}");
    assert!(prom1.contains("profile_wall_us"), "{prom1}");
}

/// The schedule-first flow and the simple-flow resynthesis cold fallback
/// report their phases into the metrics span profile. Each row runs on a
/// fresh registry and must show `flow/schedule` and `flow/postsyn` spans
/// (nested under `resynth/` for the cold fallback).
#[test]
fn flows_record_schedule_and_postsyn_spans() {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/designs/pipeline.mcs"),
    )
    .expect("pipeline design present");
    let design = format::parse(&text).expect("design parses");
    let cdfg = design.cdfg();

    type Row<'a> = (&'static str, Box<dyn Fn(&MetricsHandle) + 'a>);
    let rows: Vec<Row> = vec![
        (
            "schedule-first",
            Box::new(|m| {
                let opts = ScheduleFirstOptions {
                    metrics: m.clone(),
                    ..ScheduleFirstOptions::new(2)
                };
                let out = synthesize(cdfg, &FlowSpec::ScheduleFirst(opts), &Run::default());
                out.result.expect("schedule-first flow succeeds");
            }),
        ),
        (
            "resynth-cold-simple",
            Box::new(|m| {
                let prev = simple_flow(cdfg, 2).expect("simple flow succeeds");
                let delta = DesignDelta::parse("width:p1=16").expect("delta parses");
                let out = resynth_flow_traced(cdfg, &prev, &delta, &RecorderHandle::default(), m)
                    .expect("resynthesis succeeds");
                assert_eq!(
                    out.path,
                    ResynthPath::Cold,
                    "the row must take the cold fallback"
                );
            }),
        ),
    ];
    for (name, run) in rows {
        let reg = Arc::new(Registry::new());
        run(&MetricsHandle::new(reg.clone()));
        let paths: Vec<String> = reg
            .snapshot()
            .profile
            .iter()
            .map(|s| s.path.clone())
            .collect();
        for span in ["flow/schedule", "flow/postsyn"] {
            assert!(
                paths.iter().any(|p| p.ends_with(span)),
                "{name}: no {span} span in {paths:?}"
            );
        }
    }
}
