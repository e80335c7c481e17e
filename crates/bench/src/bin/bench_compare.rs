//! Diffs a fresh BENCH json file against a committed baseline and exits
//! nonzero on any regression — the CI perf gate.
//!
//! ```text
//! bench_compare <family> <baseline.json> <fresh.json>
//! bench_compare --self-test
//! ```
//!
//! `<family>` is one of [`mcs_bench::compare::FAMILIES`]: `probe`,
//! `connect`, `fuzz`, `serve`, `resynth` or `explore`. Each field is
//! judged as its family's table in [`mcs_bench::compare`] declares:
//! deterministic fields (probe counts, verdict digests, search node
//! counts and sequence digests, differential agreement, fuzz outcomes,
//! shrink results) hard-fail on any change, within-run performance
//! ratios (trail-vs-clone speedup, trail allocations) fail past a
//! tolerance, and absolute wall times are never compared — they belong
//! to the machine, not the code. `--self-test` proves, in-process, that
//! an identical run of every family passes and that an injected 2x
//! slowdown trips every family with a speedup floor.

use std::process::ExitCode;

use mcs_bench::compare::{compare, family, render_findings, FAMILIES};

fn usage() -> ExitCode {
    let names: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
    eprintln!(
        "usage: bench_compare <{}> <baseline.json> <fresh.json> | --self-test",
        names.join("|")
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("bench_compare: {path}: {e}");
        ExitCode::FAILURE
    })
}

fn self_test() -> ExitCode {
    let mut tripped = Vec::new();
    for family in FAMILIES {
        match family.self_test() {
            Ok(findings) => tripped.extend(findings),
            Err(e) => {
                eprintln!("bench_compare: self-test FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "bench_compare: self-test OK (identical runs pass; 2x slowdowns trip: {})",
        tripped
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--self-test") {
        return self_test();
    }
    let (Some(family), Some(baseline), Some(fresh)) = (
        args.first().and_then(|name| family(name)),
        args.get(1),
        args.get(2),
    ) else {
        return usage();
    };
    let (baseline, fresh) = match (read(baseline), read(fresh)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(c), _) | (_, Err(c)) => return c,
    };
    match compare(family, &baseline, &fresh) {
        Ok(findings) => {
            println!("{}", render_findings(&findings));
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench_compare: {e}");
            ExitCode::FAILURE
        }
    }
}
