//! End-to-end tests of the incremental-resynthesis ladder: the
//! zero-transfer reuse guarantee as a property over random local edits,
//! a seeded differential sweep of the incremental-vs-cold oracle over
//! fuzzed designs, the `mcs-hls synth --out-result` / `resynth --prev`
//! command-line round trip (including the saved-result digest guard and
//! the `explain --metrics-in` compatibility diagnostic), and the
//! `mcs-serve` `resynth` request keyed on `(parent, prev, delta)`.

use std::path::Path;
use std::process::Command;

use proptest::prelude::*;

use mcs_cdfg::delta::DesignDelta;
use mcs_cdfg::designs::{ar_filter, elliptic};
use mcs_cdfg::fuzz::{design_digest, design_from_seed, FuzzConfig};
use mcs_cdfg::{format, Cdfg, OpId};
use mcs_serve::json::escape;
use mcs_serve::{ServeConfig, Server};
use multichip_hls::flows::{connect_first_flow, simple_flow, ConnectFirstOptions};
use multichip_hls::resynth::{classify, differential, result_to_json, resynth_flow, ResynthPath};

const BIN: &str = env!("CARGO_BIN_EXE_mcs-hls");

fn example(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

fn run_cli(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("mcs-hls binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Names of functional operations whose result value feeds only
/// same-chip functional consumers — the ops a width edit can touch
/// without dirtying any transfer.
fn local_func_ops(cdfg: &Cdfg) -> Vec<String> {
    cdfg.ops()
        .iter()
        .enumerate()
        .filter_map(|(i, op)| {
            let id = OpId::new(i as u32);
            let is_func = op.io_endpoints().is_none() && op.result.is_some();
            let local = cdfg.succs(id).iter().all(|&e| {
                let to = cdfg.edge(e).to;
                cdfg.op(to).io_endpoints().is_none() && cdfg.op(to).partition == op.partition
            });
            (is_func && local).then(|| op.name.clone())
        })
        .collect()
}

proptest! {
    /// The zero-transfer guarantee as a property: *any* width edit on
    /// *any* chip-local operation produces an empty dirty region, takes
    /// the `identical` rung, and reuses the previous result
    /// byte-identically under the saved-result codec.
    #[test]
    fn local_width_edits_reuse_byte_identically(op_ix in 0usize..64, bits in 2u32..33) {
        let d = ar_filter::simple();
        let prev = simple_flow(d.cdfg(), 2).unwrap();
        let locals = local_func_ops(d.cdfg());
        prop_assert!(!locals.is_empty(), "ar filter has chip-local operations");
        let name = &locals[op_ix % locals.len()];
        let delta = DesignDelta::parse(&format!("width:{name}={bits}")).unwrap();
        let applied = delta.apply(d.cdfg()).unwrap();
        let dirty = classify(d.cdfg(), &prev, &applied);
        prop_assert!(dirty.is_empty(), "dirty region for width:{name}={bits}: {dirty:?}");
        let out = resynth_flow(d.cdfg(), &prev, &delta).unwrap();
        prop_assert_eq!(out.path, ResynthPath::Identical);
        let digest = design_digest(&out.cdfg);
        prop_assert_eq!(
            result_to_json(digest, &out.result),
            result_to_json(digest, &prev),
            "identical reuse must be byte-identical"
        );
    }
}

/// Seeded differential sweep: for every fuzz design the simple flow can
/// synthesize at its minimum initiation rate, a derived single-operation
/// width edit and a rate bump must keep the incremental ladder in
/// *agreement* with cold resynthesis (the oracle errors on any
/// divergence: incremental failing where cold succeeds, or an
/// incremental result that is not verifier-clean). 200 seeds,
/// deterministic, no flake. The rate mirrors `flow_differential`'s
/// choice — forcing a fixed rate below a design's minimum makes the
/// scheduler thrash instead of testing anything.
#[test]
fn differential_oracle_agrees_across_a_200_seed_edit_sweep() {
    let config = FuzzConfig::default();
    let mut synthesized = 0u32;
    for seed in 0..200u64 {
        let design = design_from_seed(&config, seed);
        let cdfg = design.cdfg();
        let rate = mcs_cdfg::timing::min_initiation_rate(cdfg).max(1);
        let Ok(prev) = simple_flow(cdfg, rate) else {
            continue;
        };
        synthesized += 1;
        let funcs: Vec<OpId> = cdfg.func_ops().collect();
        if let Some(&op) = funcs.get(seed as usize % funcs.len().max(1)) {
            let op = cdfg.op(op);
            if let Some(v) = op.result {
                let bits = cdfg.value(v).bits;
                let target = if bits > 2 { bits - 1 } else { bits + 1 };
                let delta = DesignDelta::parse(&format!("width:{}={target}", op.name)).unwrap();
                if delta.apply(cdfg).is_ok() {
                    differential(cdfg, &prev, &delta)
                        .unwrap_or_else(|e| panic!("seed {seed} width edit: {e}"));
                }
            }
        }
        let bump = DesignDelta::parse(&format!("rate:{}", prev.schedule.rate + 1)).unwrap();
        differential(cdfg, &prev, &bump).unwrap_or_else(|e| panic!("seed {seed} rate bump: {e}"));
    }
    assert!(
        synthesized >= 20,
        "sweep is vacuous: only {synthesized}/200 seeds synthesized"
    );
}

/// Narrowing a value that crosses chips dirties its transfer but leaves
/// the previous schedule legal: the patched rung keeps that schedule
/// instead of re-running list scheduling, and the result stays
/// verifier-clean against the cold oracle. A rate change invalidates
/// every start time, so there the rung schedules afresh.
#[test]
fn narrowed_transfer_keeps_the_previous_schedule() {
    let d = elliptic::partitioned();
    let prev = connect_first_flow(d.cdfg(), &ConnectFirstOptions::new(6)).unwrap();
    let narrow = DesignDelta::parse("width:e2=15").unwrap();
    let out = resynth_flow(d.cdfg(), &prev, &narrow).unwrap();
    assert_eq!(out.path, ResynthPath::Patched);
    assert_eq!(out.dirty.transfers.len(), 1);
    assert!(out.stats.reused_schedule);
    assert_eq!(out.result.schedule, prev.schedule);
    assert_eq!(out.result.pipe_length, prev.pipe_length);
    differential(d.cdfg(), &prev, &narrow).unwrap();

    let slower = DesignDelta::parse("rate:7").unwrap();
    let out = resynth_flow(d.cdfg(), &prev, &slower).unwrap();
    assert!(!out.stats.reused_schedule, "path {}", out.path);
    differential(d.cdfg(), &prev, &slower).unwrap();
}

#[test]
fn cli_round_trips_a_saved_result_and_guards_its_digest() {
    let dir = std::env::temp_dir().join("mcs_resynth_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let saved = dir
        .join("elliptic.result.json")
        .to_string_lossy()
        .into_owned();
    let ell = example("benchmarks/elliptic.mcs");

    let (ok, _, stderr) = run_cli(&["synth", &ell, "--rate", "6", "--out-result", &saved]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("result:"), "{stderr}");

    // A chip-local width edit revalidates the saved result unchanged.
    let (ok, stdout, stderr) =
        run_cli(&["resynth", &ell, "--prev", &saved, "--edit", "width:a1=8"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("resynth path: identical"), "{stdout}");
    assert!(stdout.contains("reuse:"), "{stdout}");

    // The digest guard: the same saved result against a different
    // design must be refused with both digests spelled out.
    let other = example("designs/pipeline.mcs");
    let (ok, _, stderr) = run_cli(&["resynth", &other, "--prev", &saved, "--edit", "width:a1=8"]);
    assert!(!ok);
    assert!(stderr.contains("digest"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_explain_diagnoses_foreign_metrics_files() {
    let dir = std::env::temp_dir().join("mcs_resynth_explain_test");
    std::fs::create_dir_all(&dir).unwrap();
    let design = example("designs/pipeline.mcs");

    // A metrics file whose counters all predate (or postdate) this
    // binary's families must be named as the problem — not rendered as
    // an empty table.
    let reg = std::sync::Arc::new(mcs_metrics::Registry::new());
    let m = mcs_metrics::MetricsHandle::new(reg.clone());
    m.add("legacy.commits", 3);
    m.add("legacy.rollbacks", 1);
    let foreign = dir
        .join("foreign.metrics.json")
        .to_string_lossy()
        .into_owned();
    std::fs::write(&foreign, mcs_metrics::export::to_json(&reg.snapshot())).unwrap();
    let (ok, _, stderr) = run_cli(&["explain", &design, "--metrics-in", &foreign]);
    assert!(!ok, "foreign metrics must fail, not render empty");
    assert!(stderr.contains("legacy.commits"), "{stderr}");
    assert!(stderr.contains("different mcs-hls version"), "{stderr}");

    // A file with known families renders without resynthesizing.
    let reg = std::sync::Arc::new(mcs_metrics::Registry::new());
    let m = mcs_metrics::MetricsHandle::new(reg.clone());
    m.add("resynth.path.identical", 1);
    let known = dir
        .join("known.metrics.json")
        .to_string_lossy()
        .into_owned();
    std::fs::write(&known, mcs_metrics::export::to_json(&reg.snapshot())).unwrap();
    let (ok, stdout, stderr) = run_cli(&["explain", &design, "--metrics-in", &known]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("resynth.path.identical"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_resynth_replays_exact_repeats_and_keys_on_the_delta() {
    let server = Server::new(ServeConfig::default());
    let design = elliptic::partitioned();
    let text = format::write(design.cdfg());
    let prev = connect_first_flow(design.cdfg(), &ConnectFirstOptions::new(6)).unwrap();
    let prev_json = result_to_json(design_digest(design.cdfg()), &prev);

    let line = |edit: &str| {
        format!(
            "{{\"cmd\":\"resynth\",\"design\":\"{}\",\"prev\":\"{}\",\"edit\":\"{edit}\"}}",
            escape(&text),
            escape(&prev_json)
        )
    };

    let cold = server.handle_line(&line("width:a1=8"));
    assert!(cold.contains("\"ok\":true"), "{cold}");
    assert!(cold.contains("\"path\":\"identical\""), "{cold}");
    assert!(cold.contains("\"cache\":\"cold\""), "{cold}");

    // Byte-identical replay on the same (parent, prev, delta) key.
    let hit = server.handle_line(&line("width:a1=8"));
    assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
    assert_eq!(
        cold.rsplit_once(",\"cache\":").unwrap().0,
        hit.rsplit_once(",\"cache\":").unwrap().0,
        "replayed body must match the cold body"
    );

    // A different delta digest is a different key.
    let other = server.handle_line(&line("width:a1=9"));
    assert!(other.contains("\"cache\":\"cold\""), "{other}");

    // A prev for some other design is refused up front.
    let digest = design_digest(design.cdfg());
    let mangled = prev_json.replacen(&format!("\"design\":{digest}"), "\"design\":12345", 1);
    let bad = server.handle_line(&format!(
        "{{\"cmd\":\"resynth\",\"design\":\"{}\",\"prev\":\"{}\",\"edit\":\"width:a1=8\"}}",
        escape(&text),
        escape(&mangled)
    ));
    assert!(bad.contains("\"ok\":false"), "{bad}");
    assert!(bad.contains("digest"), "{bad}");
}

/// A saved result whose assignment names a bus it does not define is a
/// malformed file: the CLI reports it and exits 1 (not a panic's 101),
/// and `mcs-serve` answers `bad-request` rather than `worker-panicked`.
#[test]
fn saved_result_with_an_unknown_bus_is_refused_not_a_panic() {
    let dir = std::env::temp_dir().join("mcs_resynth_bad_bus_test");
    std::fs::create_dir_all(&dir).unwrap();
    let saved = dir.join("pipeline.result.json");
    let design = example("designs/pipeline.mcs");
    let saved_path = saved.to_string_lossy().into_owned();
    let (ok, _, stderr) = run_cli(&["synth", &design, "--rate", "2", "--out-result", &saved_path]);
    assert!(ok, "{stderr}");

    // Point the first assignment row, `[op, bus, lo, hi]`, at bus 99.
    let text = std::fs::read_to_string(&saved).unwrap();
    let (head, rows) = text.split_once("\"assignment\":[[").unwrap();
    let (op, rest) = rows.split_once(',').unwrap();
    let (_, rest) = rest.split_once(',').unwrap();
    let bad = format!("{head}\"assignment\":[[{op},99,{rest}");
    std::fs::write(&saved, &bad).unwrap();

    let out = Command::new(BIN)
        .args([
            "resynth",
            &design,
            "--prev",
            &saved_path,
            "--edit",
            "rate:3",
        ])
        .output()
        .expect("mcs-hls binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("not a saved result"), "{stderr}");
    assert!(stderr.contains("bus 99"), "{stderr}");

    let server = Server::new(ServeConfig::default());
    let response = server.handle_line(&format!(
        "{{\"cmd\":\"resynth\",\"design\":\"{}\",\"prev\":\"{}\",\"edit\":\"rate:3\"}}",
        escape(&std::fs::read_to_string(&design).unwrap()),
        escape(&bad)
    ));
    assert!(response.contains("\"kind\":\"bad-request\""), "{response}");
    assert!(response.contains("bus 99"), "{response}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A saved result whose sub-bus widths overflow `u32` when summed used to
/// reach `Bus::range_width` (an overflow panic in a debug build, a silent
/// wrap in release) or pass through the `identical` rung as verified.
/// The reader now refuses it: the CLI exits 1 for every edit and
/// `mcs-serve` answers `bad-request`.
#[test]
fn saved_result_with_oversized_sub_bus_widths_is_refused_not_a_panic() {
    let dir = std::env::temp_dir().join("mcs_resynth_wide_bus_test");
    std::fs::create_dir_all(&dir).unwrap();
    let saved_path = dir
        .join("elliptic.result.json")
        .to_string_lossy()
        .into_owned();
    let ell = example("benchmarks/elliptic.mcs");
    let (ok, _, stderr) = run_cli(&["synth", &ell, "--rate", "6", "--out-result", &saved_path]);
    assert!(ok, "{stderr}");

    // Every bus's `widths` becomes `[u32::MAX, 2]`.
    let text = std::fs::read_to_string(&saved_path).unwrap();
    let mut parts = text.split("\"widths\":[");
    let mut bad = parts.next().unwrap().to_string();
    for part in parts {
        let (_, rest) = part.split_once(']').unwrap();
        bad.push_str(&format!("\"widths\":[4294967295,2]{rest}"));
    }
    std::fs::write(&saved_path, &bad).unwrap();

    for edit in ["width:e2=15", "rate:7", "width:a1=8"] {
        let out = Command::new(BIN)
            .args(["resynth", &ell, "--prev", &saved_path, "--edit", edit])
            .output()
            .expect("mcs-hls binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{edit}: {stderr}");
        assert!(stderr.contains("overflow u32"), "{edit}: {stderr}");
    }

    let server = Server::new(ServeConfig::default());
    let response = server.handle_line(&format!(
        "{{\"cmd\":\"resynth\",\"design\":\"{}\",\"prev\":\"{}\",\"edit\":\"rate:7\"}}",
        escape(&std::fs::read_to_string(&ell).unwrap()),
        escape(&bad)
    ));
    assert!(response.contains("\"kind\":\"bad-request\""), "{response}");

    std::fs::remove_dir_all(&dir).ok();
}
