//! End-to-end tests of `mcs-serve` and the warm-start round trips it is
//! built on: probe-memo and refutation-certificate exports must seed
//! follow-up runs to *verdict-identical* results (never merely similar
//! ones), exact repeats must replay byte-identical bodies, near-repeats
//! must run donor-seeded, interrupted runs must never publish, and the
//! error taxonomy must surface as structured responses rather than
//! dropped connections.

use mcs_cdfg::designs;
use mcs_cdfg::format;
use std::collections::BTreeSet;

use mcs_serve::json::{self, escape, Json};
use mcs_serve::{ServeConfig, Server};
use multichip_hls::explore::run_sweep;
use multichip_hls::explore_engine::{FlowVariant, SweepOptions, SweepSpec};
use multichip_hls::flows::{synthesize, ConnectFirstOptions, FlowSpec, Run, SimpleOptions};
use multichip_hls::obs::RecorderHandle;

/// The elliptic-filter benchmark's text form plus a feasible serve
/// request regime (rate and per-chip budgets from the explore suite's
/// known-good lattice).
fn elliptic_text() -> String {
    format::write(designs::elliptic::partitioned().cdfg())
}
const ELLIPTIC_RATE: u32 = 6;
const ELLIPTIC_BUDGETS: [u32; 5] = [48, 48, 64, 48, 48];

fn synth_line(design: &str, rate: u32, budgets: &[u32], budget_member: &str) -> String {
    let budgets = budgets
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"cmd\":\"synth\",\"design\":\"{}\",\"rate\":{rate},\"flow\":\"connect\",\"pin_budget\":[{budgets}]{budget_member}}}",
        escape(design)
    )
}

/// Strips the `,"cache":"..."}` provenance suffix, returning the
/// canonical body all provenance variants must share.
fn body(line: &str) -> &str {
    let tag = line
        .rfind(",\"cache\":\"")
        .unwrap_or_else(|| panic!("no provenance tag in {line}"));
    &line[..tag]
}

fn provenance(line: &str) -> &str {
    for tag in ["hit", "warm", "cold"] {
        if line.ends_with(&format!(",\"cache\":\"{tag}\"}}")) {
            return tag;
        }
    }
    panic!("no provenance tag in {line}");
}

/// The simple flow's epoch-0 probe memo round trip: exporting the memo
/// from a cold run and seeding a fresh checker with its `false`
/// verdicts (the cache's transfer rule) must reproduce the identical
/// synthesis result — seeding changes which probes reach the solver,
/// never what they conclude.
#[test]
fn probe_memo_roundtrip_is_verdict_identical() {
    let d = designs::ar_filter::simple();
    let spec = FlowSpec::Simple(SimpleOptions::new(2));
    let cold = synthesize(d.cdfg(), &spec, &Run::default());
    let seeds: Vec<_> = cold
        .exports
        .expect("a successful simple run exports its memo")
        .memo
        .iter()
        .copied()
        .filter(|&(_, verdict)| !verdict)
        .collect();
    let cold = cold.result.expect("the chapter 3 experiment succeeds");

    let mut seeded = Run::default();
    seeded.warm.memo = seeds;
    let warm = synthesize(d.cdfg(), &spec, &seeded)
        .result
        .expect("the seeded rerun succeeds");

    assert_eq!(cold.pipe_length, warm.pipe_length);
    assert_eq!(cold.pins_used, warm.pins_used);
    assert_eq!(cold.reassigned, warm.reassigned);
    assert_eq!(cold.interconnect.buses.len(), warm.interconnect.buses.len());
}

/// The connect search's refutation-certificate round trip: certs
/// learned by a cold run, fed back through `Run::warm`,
/// must leave the result identical — and when anything was learned, the
/// seeded run must actually consume it (`seed_hits`).
#[test]
fn refutation_cert_roundtrip_is_verdict_identical() {
    let d = designs::elliptic::partitioned();
    let mut opts = ConnectFirstOptions::new(ELLIPTIC_RATE);
    opts.workers = 1;
    opts.portfolio = Some(4);
    let spec = FlowSpec::ConnectFirst(opts);

    let cold = synthesize(d.cdfg(), &spec, &Run::default());
    let learned = cold.exports.expect("the search exports").certs;
    let cold = cold.result.expect("the chapter 6 benchmark synthesizes");

    let mut seeded = Run::default();
    seeded.warm.certs = learned.clone();
    let warm = synthesize(d.cdfg(), &spec, &seeded);
    let warm_stats = warm.search_stats.expect("the search ran");
    let warm = warm.result.expect("the seeded rerun synthesizes");

    assert_eq!(cold.pipe_length, warm.pipe_length);
    assert_eq!(cold.pins_used, warm.pins_used);
    assert_eq!(cold.interconnect.buses.len(), warm.interconnect.buses.len());
    if !learned.is_empty() {
        assert!(
            warm_stats.seed_hits > 0,
            "certs were exported but the seeded run never consumed them"
        );
    }
}

#[test]
fn repeat_requests_replay_byte_identical_bodies() {
    let server = Server::new(ServeConfig::default());
    let text = elliptic_text();
    let request = synth_line(&text, ELLIPTIC_RATE, &ELLIPTIC_BUDGETS, "");

    let cold = server.handle_line(&request);
    assert_eq!(provenance(&cold), "cold", "{cold}");
    assert!(cold.contains("\"ok\":true"), "{cold}");

    let hit = server.handle_line(&request);
    assert_eq!(provenance(&hit), "hit", "{hit}");
    assert_eq!(body(&cold), body(&hit), "replay must be byte-identical");

    let stats = server.handle_line("{\"cmd\":\"cache\"}");
    assert!(stats.contains("\"entries\":1"), "{stats}");
}

#[test]
fn near_repeat_budgets_run_donor_seeded() {
    let server = Server::new(ServeConfig::default());
    let text = elliptic_text();
    server.handle_line(&synth_line(&text, ELLIPTIC_RATE, &ELLIPTIC_BUDGETS, ""));

    // One pin poorer on the roomiest chip: the resident donor dominates
    // this vector, so the run must go out warm-seeded, and its own
    // repeat must then be an exact hit.
    let near = [48, 48, 63, 48, 48];
    let request = synth_line(&text, ELLIPTIC_RATE, &near, "");
    let warm = server.handle_line(&request);
    assert_eq!(provenance(&warm), "warm", "{warm}");
    let hit = server.handle_line(&request);
    assert_eq!(provenance(&hit), "hit", "{hit}");
    assert_eq!(body(&warm), body(&hit));
}

/// A tripped budget must surface as a structured `interrupted` response
/// and must never publish to the cache: rerunning the identical request
/// stays cold instead of replaying an interruption.
#[test]
fn interrupted_runs_answer_anytime_and_never_publish() {
    let server = Server::new(ServeConfig::default());
    let text = elliptic_text();
    // Two pivots starve even the gate's construction-time solve, so
    // this exercises the budgeted-gate interruption path.
    let request = synth_line(
        &text,
        ELLIPTIC_RATE,
        &ELLIPTIC_BUDGETS,
        ",\"budget\":{\"max_pivots\":2}",
    );

    for _ in 0..2 {
        let line = server.handle_line(&request);
        assert_eq!(provenance(&line), "cold", "{line}");
        assert!(line.contains("\"status\":\"interrupted\""), "{line}");
        assert!(
            line.contains("\"termination\":\"budget-exhausted\""),
            "{line}"
        );
    }
    let stats = server.handle_line("{\"cmd\":\"cache\"}");
    assert!(stats.contains("\"entries\":0"), "{stats}");
}

#[test]
fn error_taxonomy_is_structured() {
    let server = Server::new(ServeConfig::default());
    let text = elliptic_text();

    let parse = server.handle_line("this is not json");
    assert!(parse.contains("\"ok\":false"), "{parse}");
    assert!(parse.contains("\"kind\":\"parse\""), "{parse}");

    // Right shape, wrong arity: the design has five chips.
    let arity = server.handle_line(&synth_line(&text, ELLIPTIC_RATE, &[48, 48], ""));
    assert!(arity.contains("\"kind\":\"bad-request\""), "{arity}");
    assert!(arity.contains("5 chips"), "{arity}");

    let unknown = server.handle_line("{\"cmd\":\"frobnicate\"}");
    assert!(unknown.contains("\"ok\":false"), "{unknown}");

    // Errors never publish.
    let stats = server.handle_line("{\"cmd\":\"cache\"}");
    assert!(stats.contains("\"entries\":0"), "{stats}");
}

#[test]
fn lru_eviction_bounds_the_cache_and_reports_it() {
    let server = Server::new(ServeConfig {
        cache_entries: 1,
        ..ServeConfig::default()
    });
    let text = elliptic_text();
    server.handle_line(&synth_line(&text, ELLIPTIC_RATE, &ELLIPTIC_BUDGETS, ""));
    server.handle_line(&synth_line(&text, ELLIPTIC_RATE, &[48, 48, 63, 48, 48], ""));

    let stats = server.handle_line("{\"cmd\":\"cache\"}");
    assert!(stats.contains("\"entries\":1"), "{stats}");
    assert!(stats.contains("\"capacity\":1"), "{stats}");
    assert!(stats.contains("\"evictions\":1"), "{stats}");
}

#[test]
fn stdio_scripts_run_to_shutdown() {
    let server = Server::new(ServeConfig::default());
    let script = b"{\"cmd\":\"ping\"}\n{\"cmd\":\"shutdown\"}\n{\"cmd\":\"ping\"}\n" as &[u8];
    let mut out = Vec::new();
    server
        .serve_stdio(script, &mut out)
        .expect("stdio loop runs");
    let out = String::from_utf8(out).expect("utf8 responses");
    let lines: Vec<&str> = out.lines().collect();
    // The loop stops at the shutdown request; the trailing ping is
    // never answered.
    assert_eq!(
        lines,
        [
            "{\"ok\":true,\"cmd\":\"ping\"}",
            "{\"ok\":true,\"cmd\":\"shutdown\"}"
        ]
    );
    assert!(server.stop_requested());
}

#[test]
fn metrics_request_reports_the_serve_counters() {
    let server = Server::new(ServeConfig::default());
    let text = elliptic_text();
    let request = synth_line(&text, ELLIPTIC_RATE, &ELLIPTIC_BUDGETS, "");
    server.handle_line(&request);
    server.handle_line(&request);

    let json = server.handle_line("{\"cmd\":\"metrics\"}");
    assert!(json.contains("\"format\":\"json\""), "{json}");
    for counter in ["serve.requests", "serve.jobs.synth", "serve.hits.exact"] {
        assert!(json.contains(counter), "missing {counter} in {json}");
    }

    let prom = server.handle_line("{\"cmd\":\"metrics\",\"format\":\"prometheus\"}");
    assert!(prom.contains("\"format\":\"prometheus\""), "{prom}");
    assert!(prom.contains("serve"), "{prom}");
}

/// Serve's `synth` and a sweep point share one flow entry point, pin
/// gate, status split and QoR measure: over an elliptic lattice that
/// straddles the feasibility boundary, both report the same status,
/// latency, pins, buses and registers for every (flow, rate, budget
/// vector).
#[test]
fn serve_synth_agrees_with_explore_points() {
    let design = designs::elliptic::partitioned();
    let text = elliptic_text();
    let server = Server::new(ServeConfig::default());
    let budgets = vec![
        vec![48, 48, 64, 48, 48],
        vec![24, 32, 48, 32, 32],
        vec![16, 16, 16, 16, 16],
    ];
    let mut statuses = BTreeSet::new();
    for (flow, job) in [
        (FlowVariant::Simple, "simple"),
        (FlowVariant::ConnectFirst, "connect"),
    ] {
        let spec = SweepSpec {
            design: "elliptic".into(),
            flow,
            rates: vec![5, 6],
            budgets: budgets.clone(),
        };
        let opts = SweepOptions {
            prune: false,
            ..SweepOptions::default()
        };
        let report = run_sweep(design.cdfg(), &spec, &opts, &RecorderHandle::default())
            .expect("the lattice is well-formed");
        for point in &report.outcomes {
            let budget = &budgets[point.coord.budget_ix];
            let pins: Vec<String> = budget.iter().map(u32::to_string).collect();
            let line = format!(
                "{{\"cmd\":\"synth\",\"design\":\"{}\",\"rate\":{},\"flow\":\"{job}\",\"pin_budget\":[{}]}}",
                escape(&text),
                point.coord.rate,
                pins.join(",")
            );
            let response = server.handle_line(&line);
            let resp = json::parse(&response).expect("the response is JSON");
            let num = |key: &str| resp.get(key).and_then(Json::as_u64);
            let served = (
                resp.get("status").and_then(Json::as_str),
                [
                    num("latency"),
                    num("total_pins"),
                    num("buses"),
                    num("registers"),
                ],
            );
            let o = &point.outcome;
            let swept = (
                Some(point.status.as_str()),
                [
                    o.latency.map(|v| v as u64),
                    o.total_pins.map(u64::from),
                    o.buses.map(u64::from),
                    o.registers.map(u64::from),
                ],
            );
            assert_eq!(
                served, swept,
                "{job} rate {} budget {budget:?}: {response}",
                point.coord.rate
            );
            statuses.insert(point.status.as_str());
        }
    }
    assert!(
        statuses.contains("feasible") && statuses.len() > 1,
        "the lattice must straddle the feasibility boundary: {statuses:?}"
    );
}

/// Hostile nesting is a structured error, not a crash: a request line of
/// 100,000 nested arrays answers `parse`, a `resynth` whose `prev` nests
/// as deep answers `bad-request`, and the daemon keeps answering. Runs
/// on a thread with the 2 MiB default stack of a connection thread.
#[test]
fn deeply_nested_requests_are_errors_not_aborts() {
    let server = std::sync::Arc::new(Server::new(ServeConfig::default()));
    let worker = server.clone();
    let answers = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let deep = "[".repeat(100_000);
            let nested_line = worker.handle_line(&deep);
            let resynth = format!(
                "{{\"cmd\":\"resynth\",\"design\":\"{}\",\"prev\":\"{deep}\",\"edit\":\"rate:7\"}}",
                escape(&elliptic_text())
            );
            let nested_prev = worker.handle_line(&resynth);
            (
                nested_line,
                nested_prev,
                worker.handle_line("{\"cmd\":\"ping\"}"),
            )
        })
        .expect("spawn a connection-sized thread")
        .join()
        .expect("nested requests must not overflow the stack");
    let (nested_line, nested_prev, ping) = answers;
    assert!(nested_line.contains("\"kind\":\"parse\""), "{nested_line}");
    assert!(
        nested_prev.contains("\"kind\":\"bad-request\""),
        "{nested_prev}"
    );
    assert!(nested_prev.contains("prev: "), "{nested_prev}");
    assert_eq!(ping, "{\"ok\":true,\"cmd\":\"ping\"}");
    assert_eq!(server.handle_line("{\"cmd\":\"ping\"}"), ping);
}
