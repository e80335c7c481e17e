//! Measures what the metrics registry costs the pipeline: the
//! connect-first flow on the AR filter with (a) the default disconnected
//! handle — one dead `Option` branch per instrumentation site, (b) a
//! live registry aggregating counters, histograms and the span profile,
//! and (c) the raw baseline through options that never carried a handle.
//! The design target is that (a) is indistinguishable from (c) — the
//! cached-off fast path — and (b) stays within a few percent.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcs_cdfg::{designs::ar_filter, PortMode};
use multichip_hls::flows::{connect_first_flow, ConnectFirstOptions};
use multichip_hls::metrics::{MetricsHandle, Registry};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics_overhead");
    g.sample_size(20);
    let rate = 3;
    let d = ar_filter::general(rate, PortMode::Unidirectional);
    let opts = ConnectFirstOptions::new(rate);

    g.bench_function(BenchmarkId::new("connect_first", "baseline"), |b| {
        b.iter(|| connect_first_flow(d.cdfg(), &opts).expect("flow succeeds"))
    });
    g.bench_function(BenchmarkId::new("connect_first", "disconnected"), |b| {
        let mut opts = ConnectFirstOptions::new(rate);
        opts.metrics = MetricsHandle::default();
        b.iter(|| connect_first_flow(d.cdfg(), &opts).expect("flow succeeds"))
    });
    g.bench_function(BenchmarkId::new("connect_first", "connected"), |b| {
        b.iter(|| {
            let reg = Arc::new(Registry::new());
            let mut opts = ConnectFirstOptions::new(rate);
            opts.metrics = MetricsHandle::new(reg.clone());
            let r = connect_first_flow(d.cdfg(), &opts).expect("flow succeeds");
            let snap = reg.snapshot();
            assert!(!snap.counters.is_empty());
            assert!(!snap.profile.is_empty());
            r
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
