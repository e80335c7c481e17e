//! Snapshot exporters: strict-valid JSON and a Prometheus-style text
//! exposition format. Both iterate ordered maps, so equal snapshots
//! render byte-identically — the property the `--jobs 1/2/8`
//! determinism tests and the golden tests lock. [`from_json`] is the
//! matching importer, used by `mcs-hls explain --metrics-in` to render
//! a metrics file written by an earlier run (possibly an earlier
//! binary).

use mcs_ctl::json::{self, escape, Json};

use crate::{bucket_index, HistogramSnapshot, ProfileNode, Snapshot, HISTOGRAM_BUCKETS};

/// Escapes a Prometheus label value: `"`, `\\` and newline only, as the
/// text exposition format specifies.
fn label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Sanitizes a metric name for Prometheus: `[a-zA-Z0-9_]` pass through,
/// everything else (the workspace uses `.` and `-`) becomes `_`.
pub fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders a snapshot as one JSON object:
///
/// ```json
/// {"counters":{...},"gauges":{...},
///  "histograms":{"name":{"count":N,"sum":N,"min":N,"max":N,
///                        "p50":N,"p90":N,"p99":N}},
///  "profile":[{"path":"flow/connect","calls":N,"wall_us":N}]}
/// ```
///
/// Keys are sorted; the output always passes [`mcs_ctl::json::parse`].
pub fn to_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{v}", escape(name)));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{v}", escape(name)));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            escape(name),
            h.count,
            h.sum,
            h.min,
            h.max,
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99),
        ));
    }
    out.push_str("},\"profile\":[");
    for (i, node) in snap.profile.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"path\":\"{}\",\"calls\":{},\"wall_us\":{}}}",
            escape(&node.path),
            node.calls,
            node.wall_us
        ));
    }
    out.push_str("]}");
    out
}

/// Renders a snapshot in the Prometheus text exposition format:
/// counters and gauges as single samples, histograms as summaries
/// (`{quantile="0.5|0.9|0.99"}` plus `_count`/`_sum`/`_max`), and the
/// span profile as two labelled families (`profile_calls`,
/// `profile_wall_us`). Families are sorted by name, so equal snapshots
/// render byte-identically.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = sanitize(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        let n = sanitize(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
    }
    for (name, h) in &snap.histograms {
        let n = sanitize(name);
        out.push_str(&format!("# TYPE {n} summary\n"));
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            out.push_str(&format!("{n}{{quantile=\"{label}\"}} {}\n", h.quantile(q)));
        }
        out.push_str(&format!("{n}_count {}\n", h.count));
        out.push_str(&format!("{n}_sum {}\n", h.sum));
        out.push_str(&format!("{n}_max {}\n", h.max));
    }
    if !snap.profile.is_empty() {
        out.push_str("# TYPE profile_calls counter\n");
        for node in &snap.profile {
            out.push_str(&format!(
                "profile_calls{{path=\"{}\"}} {}\n",
                label_escape(&node.path),
                node.calls
            ));
        }
        out.push_str("# TYPE profile_wall_us counter\n");
        for node in &snap.profile {
            out.push_str(&format!(
                "profile_wall_us{{path=\"{}\"}} {}\n",
                label_escape(&node.path),
                node.wall_us
            ));
        }
    }
    out
}

/// Parses a snapshot previously rendered by [`to_json`].
///
/// Counters, gauges and the span profile round-trip exactly. Histograms
/// are rebuilt at bucket resolution from the exported quantiles: the
/// per-bucket counts are synthesized so that `quantile(0.5/0.9/0.99)`
/// and `max` reproduce the exported values (within the same ~25% bucket
/// width the live histogram already had). `count`, `sum`, `min` and
/// `max` are exact.
///
/// # Errors
///
/// A description of the first malformed construct. Unknown top-level
/// keys are rejected — a file that does not parse here was not written
/// by [`to_json`].
pub fn from_json(text: &str) -> Result<Snapshot, String> {
    let Json::Obj(sections) = json::parse(text)? else {
        return Err("expected `{`: a metrics snapshot is one JSON object".into());
    };
    let mut snap = Snapshot::default();
    for (key, section) in &sections {
        match key.as_str() {
            "counters" => {
                for (name, v) in members(section, "counters")? {
                    let v = u64::try_from(int(v, name)?)
                        .map_err(|_| format!("counter `{name}` < 0"))?;
                    snap.counters.insert(name.clone(), v);
                }
            }
            "gauges" => {
                for (name, v) in members(section, "gauges")? {
                    let v = i64::try_from(int(v, name)?)
                        .map_err(|_| format!("gauge `{name}` overflows"))?;
                    snap.gauges.insert(name.clone(), v);
                }
            }
            "histograms" => {
                for (name, h) in members(section, "histograms")? {
                    let get = |k: &str| -> Result<u64, String> {
                        h.get(k)
                            .and_then(Json::as_u64)
                            .ok_or_else(|| format!("histogram `{name}` lacks `{k}`"))
                    };
                    snap.histograms.insert(
                        name.clone(),
                        rebuild_histogram(
                            get("count")?,
                            get("sum")?,
                            get("min")?,
                            get("max")?,
                            [get("p50")?, get("p90")?, get("p99")?],
                        ),
                    );
                }
            }
            "profile" => {
                let nodes = section.as_arr().ok_or("`profile` is not an array")?;
                for node in nodes {
                    snap.profile.push(profile_node(node)?);
                }
            }
            other => return Err(format!("unknown top-level key `{other}`")),
        }
    }
    Ok(snap)
}

/// The members of an object-valued section.
fn members<'a>(v: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    match v {
        Json::Obj(m) => Ok(m),
        _ => Err(format!("`{what}` is not an object")),
    }
}

/// An integer value (exported counts are integers, never floats).
fn int(v: &Json, what: &str) -> Result<i128, String> {
    match v {
        Json::Num(raw) => raw.parse().ok(),
        _ => None,
    }
    .ok_or_else(|| format!("`{what}` is not an integer"))
}

fn profile_node(node: &Json) -> Result<ProfileNode, String> {
    let Json::Obj(fields) = node else {
        return Err("profile node is not an object".into());
    };
    let mut path = None;
    let mut calls = None;
    let mut wall_us = None;
    for (key, v) in fields {
        match key.as_str() {
            "path" => path = Some(v.as_str().ok_or("profile `path` is not a string")?),
            "calls" => calls = v.as_u64(),
            "wall_us" => wall_us = v.as_u64(),
            other => return Err(format!("unknown profile key `{other}`")),
        }
    }
    Ok(ProfileNode {
        path: path.ok_or("profile node lacks `path`")?.to_string(),
        calls: calls.ok_or("profile node lacks `calls`")?,
        wall_us: wall_us.ok_or("profile node lacks `wall_us`")?,
    })
}

/// Synthesizes bucket counts reproducing the exported quantiles: the
/// rank-mass up to each exported percentile lands in that percentile's
/// bucket, the remainder in `max`'s bucket.
fn rebuild_histogram(
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    [p50, p90, p99]: [u64; 3],
) -> HistogramSnapshot {
    let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
    if count > 0 {
        let rank = |q: f64| ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut placed = 0;
        for (value, r) in [
            (p50, rank(0.5)),
            (p90, rank(0.9)),
            (p99, rank(0.99)),
            (max, count),
        ] {
            let add = r.saturating_sub(placed);
            buckets[bucket_index(value)] += add;
            placed += add;
        }
    }
    HistogramSnapshot {
        count,
        sum,
        min,
        max,
        buckets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsHandle, Registry};
    use mcs_ctl::ManualClock;
    use std::sync::Arc;

    /// A small registry with one of everything, on a hand-cranked clock
    /// so every duration is exact.
    fn sample() -> Snapshot {
        let clock = Arc::new(ManualClock::new());
        let reg = Arc::new(Registry::with_clock(clock.clone()));
        let m = MetricsHandle::new(reg.clone());
        m.counter("ilp.pivots").add(42);
        m.gauge("explore.frontier").set(3);
        let h = m.histogram("probe.latency_us.solver");
        for v in [2u64, 3, 3, 90] {
            h.observe(v);
        }
        {
            let _flow = m.span("flow");
            clock.advance_us(7);
            let _c = m.span("connect");
            clock.advance_us(5);
        }
        reg.snapshot()
    }

    #[test]
    fn json_is_strict_valid_and_golden() {
        let line = to_json(&sample());
        json::parse(&line).expect("metrics JSON parses");
        assert_eq!(
            line,
            "{\"counters\":{\"ilp.pivots\":42},\
             \"gauges\":{\"explore.frontier\":3},\
             \"histograms\":{\"probe.latency_us.solver\":{\"count\":4,\"sum\":98,\"min\":2,\"max\":90,\"p50\":3,\"p90\":90,\"p99\":90}},\
             \"profile\":[{\"path\":\"flow\",\"calls\":1,\"wall_us\":12},{\"path\":\"flow/connect\",\"calls\":1,\"wall_us\":5}]}"
        );
    }

    #[test]
    fn prometheus_text_is_golden() {
        assert_eq!(
            to_prometheus(&sample()),
            "# TYPE ilp_pivots counter\n\
             ilp_pivots 42\n\
             # TYPE explore_frontier gauge\n\
             explore_frontier 3\n\
             # TYPE probe_latency_us_solver summary\n\
             probe_latency_us_solver{quantile=\"0.5\"} 3\n\
             probe_latency_us_solver{quantile=\"0.9\"} 90\n\
             probe_latency_us_solver{quantile=\"0.99\"} 90\n\
             probe_latency_us_solver_count 4\n\
             probe_latency_us_solver_sum 98\n\
             probe_latency_us_solver_max 90\n\
             # TYPE profile_calls counter\n\
             profile_calls{path=\"flow\"} 1\n\
             profile_calls{path=\"flow/connect\"} 1\n\
             # TYPE profile_wall_us counter\n\
             profile_wall_us{path=\"flow\"} 12\n\
             profile_wall_us{path=\"flow/connect\"} 5\n"
        );
    }

    #[test]
    fn empty_snapshot_renders_cleanly() {
        let snap = Snapshot::default();
        let json = to_json(&snap);
        json::parse(&json).expect("empty JSON parses");
        assert_eq!(
            json,
            "{\"counters\":{},\"gauges\":{},\"histograms\":{},\"profile\":[]}"
        );
        assert_eq!(to_prometheus(&snap), "");
    }

    #[test]
    fn sanitize_maps_workspace_names() {
        assert_eq!(sanitize("probe.latency_us.memo"), "probe_latency_us_memo");
        assert_eq!(sanitize("pin-check"), "pin_check");
    }

    #[test]
    fn json_round_trips_through_from_json() {
        let snap = sample();
        let loaded = from_json(&to_json(&snap)).unwrap();
        assert_eq!(loaded.counters, snap.counters);
        assert_eq!(loaded.gauges, snap.gauges);
        assert_eq!(loaded.profile, snap.profile);
        // Histograms round-trip at bucket resolution: the summary stats
        // and every exported quantile agree, so a re-export is golden.
        assert_eq!(to_json(&loaded), to_json(&snap));
        let h = &loaded.histograms["probe.latency_us.solver"];
        let orig = &snap.histograms["probe.latency_us.solver"];
        assert_eq!((h.count, h.sum, h.min, h.max), (4, 98, 2, 90));
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(h.quantile(q), orig.quantile(q));
        }
    }

    #[test]
    fn non_ascii_names_round_trip() {
        let reg = Arc::new(Registry::with_clock(Arc::new(ManualClock::new())));
        let m = MetricsHandle::new(reg.clone());
        m.counter("serve.jobs.résumé").add(2);
        m.gauge("größe").set(-1);
        m.histogram("latency.日本").observe(7);
        {
            let _span = m.span("phase 😀");
        }
        let snap = reg.snapshot();
        let text = to_json(&snap);
        let loaded = from_json(&text).unwrap();
        assert_eq!(loaded.counters, snap.counters);
        assert_eq!(loaded.gauges, snap.gauges);
        assert_eq!(loaded.profile, snap.profile);
        assert_eq!(to_json(&loaded), text);
    }

    #[test]
    fn from_json_rejects_malformed_input_with_context() {
        for (text, needle) in [
            ("", "expected `{`"),
            ("{\"bogus\":{}}", "unknown top-level key"),
            ("{\"counters\":{\"x\":-1}}", "< 0"),
            ("{\"counters\":{}} junk", "trailing garbage"),
            ("{\"histograms\":{\"h\":{\"count\":1}}}", "lacks `sum`"),
        ] {
            let err = from_json(text).unwrap_err();
            assert!(err.contains(needle), "`{text}` -> `{err}`");
        }
    }
}
