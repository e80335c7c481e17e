//! The per-layer table of the traced run.
//!
//! Counts and times are per job: the layer's total over the traced
//! phase divided by the jobs that phase ran, so rows from runs of
//! different length compare directly. Ratios and percentiles are not
//! divided.

use std::collections::BTreeMap;

use mcs_metrics::Snapshot;

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("connect.search_us", "us/job"),
    ("connect.share_of_job", "ratio"),
    ("connect.nodes", "count/job"),
    ("connect.us_per_node", "us/node"),
    ("connect.allocs_per_node", "allocs/node"),
    ("connect.backtracks", "count/job"),
    ("connect.prunes", "count/job"),
    ("connect.cache_hits", "count/job"),
    ("connect.seed_hits", "count/job"),
    ("pinalloc.probes", "count/job"),
    ("pinalloc.solver_probes", "count/job"),
    ("pinalloc.memo_hit_ratio", "ratio"),
    ("pinalloc.surrogate_reject_ratio", "ratio"),
    ("pinalloc.seed_hits", "count/job"),
    ("pinalloc.solver_p50_us", "us"),
    ("pinalloc.solver_p99_us", "us"),
    ("ilp.pivots", "count/job"),
    ("ilp.pivots_per_solver_probe", "ratio"),
    ("ilp.exact_fallbacks", "count/job"),
    ("ilp.promotions", "count/job"),
    ("sched.list_us", "us/job"),
    ("sched.place_attempts", "count/job"),
    ("sched.fds_us", "us/job"),
    ("sched.rematch_rounds", "count/job"),
    ("matching.augmentations", "count/job"),
    ("postsyn.us", "us/job"),
    ("explore.points", "count/job"),
    ("explore.run", "count/job"),
    ("explore.prune_ratio", "ratio"),
    ("explore.cache_hits", "count/job"),
    ("explore.point_p50_us", "us"),
    ("cdfg.parse_us", "us/design"),
    ("cdfg.ops_parsed", "count/design"),
    ("serve.parse_request_us", "us/request"),
    ("serve.digest_us", "us/request"),
    ("serve.request_p50_us", "us"),
    ("serve.request_p99_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.seed_ratio", "ratio"),
    ("serve.rejected", "count/job"),
    ("serve.errors", "count/job"),
    ("serve.panics", "count/job"),
    ("core.flow_self_us", "us/job"),
    ("resynth.us", "us/job"),
    ("resynth.path_identical", "count/job"),
    ("resynth.path_patched", "count/job"),
    ("resynth.path_cold", "count/job"),
    ("resynth.reuse_ratio", "ratio"),
    ("resynth.replayed_commits", "count/job"),
    ("trace.overhead_ratio", "ratio"),
    ("client.hit_p50_ms", "ms"),
    ("client.hit_tail_ms", "ms"),
    ("client.miss_p50_ms", "ms"),
    ("client.miss_tail_ms", "ms"),
    ("bench.failed_ratio", "ratio"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Wall µs summed over profile nodes whose path ends in `suffix`
/// (`flow/connect` matches under any root, e.g. inside `resynth`).
fn profile_us(snap: &Snapshot, suffix: &str) -> f64 {
    snap.profile
        .iter()
        .filter(|n| n.path == suffix || n.path.ends_with(&format!("/{suffix}")))
        .map(|n| n.wall_us as f64)
        .sum()
}

/// Self µs of every `flow` span: its wall time minus its direct
/// children's.
fn flow_self_us(snap: &Snapshot) -> f64 {
    let mut total = 0.0;
    for n in &snap.profile {
        if n.path != "flow" && !n.path.ends_with("/flow") {
            continue;
        }
        let prefix = format!("{}/", n.path);
        let children: f64 = snap
            .profile
            .iter()
            .filter(|c| {
                c.path
                    .strip_prefix(&prefix)
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .map(|c| c.wall_us as f64)
            .sum();
        total += n.wall_us as f64 - children;
    }
    total
}

/// Layer metrics the program's own metrics registry provides, for a
/// traced phase that ran `jobs` jobs taking `job_us` µs in total.
pub fn from_registry(snap: &Snapshot, jobs: f64, job_us: f64) -> BTreeMap<&'static str, f64> {
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let per_job = |v: f64| ratio(v, jobs);
    let hist_q = |name: &str, q: f64| {
        snap.histograms
            .get(name)
            .map_or(0.0, |h| h.quantile(q) as f64)
    };
    let mut m = BTreeMap::new();
    let connect_us = profile_us(snap, "flow/connect");
    let nodes = c("connect.nodes");
    m.insert("connect.search_us", per_job(connect_us));
    m.insert("connect.share_of_job", ratio(connect_us, job_us));
    m.insert("connect.nodes", per_job(nodes));
    m.insert("connect.us_per_node", ratio(connect_us, nodes));
    m.insert("connect.cache_hits", per_job(c("connect.cache_hits")));
    m.insert("connect.seed_hits", per_job(c("connect.seed_hits")));

    let memo = c("probe.memo_hits");
    let surrogate = c("probe.surrogate_rejects");
    let solver = c("probe.solver");
    let probes = memo + surrogate + solver;
    m.insert("pinalloc.probes", per_job(probes));
    m.insert("pinalloc.solver_probes", per_job(solver));
    m.insert("pinalloc.memo_hit_ratio", ratio(memo, probes));
    m.insert("pinalloc.surrogate_reject_ratio", ratio(surrogate, probes));
    m.insert("pinalloc.seed_hits", per_job(c("probe.seed_hits")));
    m.insert(
        "pinalloc.solver_p50_us",
        hist_q("probe.latency_us.solver", 0.5),
    );
    m.insert(
        "pinalloc.solver_p99_us",
        hist_q("probe.latency_us.solver", 0.99),
    );
    m.insert("ilp.pivots", per_job(c("ilp.pivots")));
    m.insert(
        "ilp.pivots_per_solver_probe",
        ratio(c("ilp.pivots"), solver),
    );
    m.insert("ilp.exact_fallbacks", per_job(c("probe.exact_fallbacks")));
    m.insert("ilp.promotions", per_job(c("ilp.promotions")));

    m.insert("sched.list_us", per_job(profile_us(snap, "flow/schedule")));
    m.insert("sched.place_attempts", per_job(c("sched.place_attempts")));
    m.insert("sched.rematch_rounds", per_job(c("rematch.rounds")));
    m.insert(
        "matching.augmentations",
        per_job(c("rematch.augmentations")),
    );
    m.insert("postsyn.us", per_job(profile_us(snap, "flow/postsyn")));

    let points = c("explore.points");
    m.insert("explore.points", per_job(points));
    m.insert("explore.run", per_job(c("explore.run")));
    m.insert("explore.prune_ratio", ratio(c("explore.pruned"), points));
    m.insert("explore.point_p50_us", hist_q("explore.point_us", 0.5));

    let serve_jobs = c("serve.jobs.synth") + c("serve.jobs.explore") + c("serve.jobs.resynth");
    m.insert("serve.request_p50_us", hist_q("serve.request_us", 0.5));
    m.insert("serve.request_p99_us", hist_q("serve.request_us", 0.99));
    m.insert("serve.hit_ratio", ratio(c("serve.hits.exact"), serve_jobs));
    m.insert("serve.seed_ratio", ratio(c("serve.hits.seed"), serve_jobs));
    m.insert("serve.rejected", per_job(c("serve.rejected")));
    m.insert("serve.errors", per_job(c("serve.errors")));
    m.insert("serve.panics", per_job(c("serve.panics")));

    m.insert("core.flow_self_us", per_job(flow_self_us(snap)));
    let resynth_us: f64 = snap
        .profile
        .iter()
        .filter(|n| n.path == "resynth")
        .map(|n| n.wall_us as f64)
        .sum();
    m.insert("resynth.us", per_job(resynth_us));
    m.insert(
        "resynth.path_identical",
        per_job(c("resynth.path.identical")),
    );
    m.insert("resynth.path_patched", per_job(c("resynth.path.patched")));
    m.insert("resynth.path_cold", per_job(c("resynth.path.cold")));
    let reused = c("resynth.reused_assignments");
    m.insert(
        "resynth.reuse_ratio",
        ratio(reused, reused + c("resynth.fresh_assignments")),
    );
    m.insert(
        "resynth.replayed_commits",
        per_job(c("resynth.replayed_commits")),
    );
    m
}

/// Client-side hit/miss wall latencies (the untraced half's, see
/// [`crate::TracedRun::finish`]) and the failure ratio of the run.
pub fn client(report: &crate::Report) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    for (samples, p50, tail) in [
        (&report.hits, "client.hit_p50_ms", "client.hit_tail_ms"),
        (&report.misses, "client.miss_p50_ms", "client.miss_tail_ms"),
    ] {
        if !samples.is_empty() {
            let mut s: Vec<f64> = samples.iter().map(|iv| iv.ms()).collect();
            m.insert(tail, crate::stats::tail(&s, report.tail_permille).value);
            m.insert(p50, crate::stats::median(&mut s));
        }
    }
    m.insert(
        "bench.failed_ratio",
        ratio(report.failed as f64, report.attempted as f64),
    );
    m
}
