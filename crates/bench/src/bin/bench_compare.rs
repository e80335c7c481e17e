//! Diffs a fresh BENCH json file against a committed baseline and exits
//! nonzero on any regression — the CI perf gate.
//!
//! ```text
//! bench_compare probe <baseline.json> <fresh.json>
//! bench_compare connect <baseline.json> <fresh.json>
//! bench_compare fuzz  <baseline.json> <fresh.json>
//! bench_compare serve <baseline.json> <fresh.json>
//! bench_compare resynth <baseline.json> <fresh.json>
//! bench_compare --self-test
//! ```
//!
//! Deterministic fields (probe counts, verdict digests, search node
//! counts and sequence digests, differential agreement, fuzz outcomes,
//! shrink results) hard-fail on any change. Within-run performance
//! ratios (trail-vs-clone speedup, trail allocations) fail past a
//! tolerance. Absolute wall times are never compared — they belong to
//! the machine, not the code. The field policy lives in
//! [`mcs_bench::compare`], where it is unit-tested; `--self-test`
//! additionally proves, in-process, for both the probe and the
//! connection-search families, that an injected 2x wall-time slowdown
//! trips the gate and that a byte-identical run passes.

use std::process::ExitCode;

use mcs_bench::compare::{
    compare_connect, compare_fuzz, compare_probe, compare_resynth, compare_serve, render_findings,
    Finding,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_compare <probe|connect|fuzz|serve|resynth> <baseline.json> <fresh.json> \
         | --self-test"
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("bench_compare: {path}: {e}");
        ExitCode::FAILURE
    })
}

fn gate(findings: Vec<Finding>) -> ExitCode {
    println!("{}", render_findings(&findings));
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Checks one family: the unmodified line must produce no finding and
/// the slowed one at least one. Returns the tripped findings, or `None`
/// (after reporting) when the gate misbehaves.
fn trips(
    family: &str,
    compare: fn(&str, &str) -> Result<Vec<Finding>, String>,
    baseline: &str,
    slowed: &str,
) -> Option<Vec<Finding>> {
    let clean = compare(baseline, baseline).expect("baseline parses");
    if !clean.is_empty() {
        eprintln!("bench_compare: self-test FAILED: identical {family} runs produced findings");
        return None;
    }
    let tripped = compare(baseline, slowed).expect("slowed line parses");
    if tripped.is_empty() {
        eprintln!("bench_compare: self-test FAILED: 2x {family} slowdown did not trip the gate");
        return None;
    }
    Some(tripped)
}

/// Proves the gate trips: a synthetic 2x slowdown of the trail probe
/// engine and of the trail connection search (doubled wall time, halved
/// within-run speedup) must each produce at least one finding, and the
/// unmodified lines must produce none.
fn self_test() -> ExitCode {
    let probe = "{\"bench\":\"probe\",\"design\":\"selftest\",\"rate\":2,\
        \"trail\":{\"probes\":64,\"feasible\":48,\"allocations\":0,\
        \"alloc_bytes\":0,\"wall_ms\":5.000,\"verdict_digest\":42},\
        \"wide\":{\"probes\":64,\"feasible\":48,\"allocations\":0,\
        \"alloc_bytes\":0,\"wall_ms\":9.000,\"verdict_digest\":42},\
        \"clone\":{\"probes\":64,\"feasible\":48,\"allocations\":600,\
        \"alloc_bytes\":819200,\"wall_ms\":40.000,\"verdict_digest\":42},\
        \"agree\":true,\"alloc_ratio\":600.00,\"speedup\":8.00,\
        \"wide_ratio\":1.80}";
    // The injected regression: trail wall time 5ms -> 10ms, so the
    // within-run speedup drops from 8.00 to 4.00.
    let probe_slowed = probe
        .replace("\"wall_ms\":5.000", "\"wall_ms\":10.000")
        .replace("\"speedup\":8.00", "\"speedup\":4.00");
    let connect = "{\"bench\":\"connect\",\"design\":\"selftest\",\"rate\":4,\
        \"trail\":{\"nodes\":1000,\"prunes\":20,\"backtracks\":990,\
        \"sequence_digest\":42,\"buses\":9,\"pins\":180,\"allocations\":100,\
        \"allocs_per_node\":0.100,\"wall_ms\":10.000},\
        \"clone\":{\"nodes\":1000,\"prunes\":20,\"backtracks\":990,\
        \"sequence_digest\":42,\"buses\":9,\"pins\":180,\"allocations\":20000,\
        \"allocs_per_node\":20.000,\"wall_ms\":45.000},\
        \"agree\":true,\"speedup\":4.50}";
    // Trail search 10ms -> 20ms: the speedup drops from 4.50 to 2.25.
    let connect_slowed = connect
        .replace("\"wall_ms\":10.000", "\"wall_ms\":20.000")
        .replace("\"speedup\":4.50", "\"speedup\":2.25");

    let (Some(probe_trips), Some(connect_trips)) = (
        trips("probe", compare_probe, probe, &probe_slowed),
        trips("connect", compare_connect, connect, &connect_slowed),
    ) else {
        return ExitCode::FAILURE;
    };
    println!(
        "bench_compare: self-test OK (identical runs pass; 2x slowdowns trip: {})",
        probe_trips
            .iter()
            .chain(&connect_trips)
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--self-test") => self_test(),
        Some(mode @ ("probe" | "connect" | "fuzz" | "serve" | "resynth")) => {
            let (Some(baseline), Some(fresh)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let (baseline, fresh) = match (read(baseline), read(fresh)) {
                (Ok(b), Ok(f)) => (b, f),
                (Err(c), _) | (_, Err(c)) => return c,
            };
            let result = match mode {
                "probe" => compare_probe(&baseline, &fresh),
                "connect" => compare_connect(&baseline, &fresh),
                "fuzz" => compare_fuzz(&baseline, &fresh),
                "resynth" => compare_resynth(&baseline, &fresh),
                _ => compare_serve(&baseline, &fresh),
            };
            match result {
                Ok(findings) => gate(findings),
                Err(e) => {
                    eprintln!("bench_compare: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
