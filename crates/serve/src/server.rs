//! The daemon: request dispatch, the worker pool, and the serve loops.
//!
//! `handle_line` is the whole protocol — both the TCP loop and the
//! `--stdio` loop feed it one line at a time, so every behavior is
//! testable without a socket. Control requests (`ping`, `metrics`,
//! `cache`, `shutdown`) and exact cache hits answer inline on the
//! connection thread; `synth`/`explore` jobs go through the two-lane
//! pool ([`crate::pool`]) with admission control.
//!
//! Response bodies are deterministic functions of the request and the
//! cache state: no wall times, thread counts or node counters appear in
//! them, which is what makes responses byte-identical across
//! `--workers` values (the CI gate) and exact-hit replay sound. Timing
//! lives in the metrics registry, scraped via the `metrics` request.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mcs_cdfg::{format, Cdfg};
use mcs_ctl::{json, Budget, BudgetSpec, Termination};
use mcs_explore::{SweepOptions, SweepSpec};
use mcs_metrics::export::{to_json, to_prometheus};
use mcs_metrics::{MetricsHandle, Registry};
use mcs_obs::RecorderHandle;
use multichip_hls::explore::{apply_pin_budgets, point_spec, run_sweep};
use multichip_hls::flows::{synthesize, Run, SynthesisResult, WarmStart};
use multichip_hls::resynth;

use crate::cache::{
    effective_budgets, fnv1a, normalized_digest, Lookup, Seeds, ServeCache, ServeEntry, ServeKey,
};
use crate::pool::{Lane, WorkerPool};
use crate::proto::{
    error_response, parse_request, with_provenance, ErrorKind, ExploreRequest, JobFlow, Request,
    ResynthRequest, SynthRequest,
};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads in the job pool.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before admission control
    /// rejects with `overloaded`.
    pub queue_cap: usize,
    /// Warm-start cache bound, in entries.
    pub cache_entries: usize,
    /// Server-side budget ceilings; every request's budget is
    /// intersected with these ([`BudgetSpec::intersect`]), so a client
    /// cannot ask for more runtime than the operator allows.
    pub caps: BudgetSpec,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_cap: 64,
            cache_entries: 256,
            caps: BudgetSpec::default(),
        }
    }
}

/// The daemon state shared by every connection.
pub struct Server {
    pool: WorkerPool,
    cache: Arc<ServeCache>,
    registry: Arc<Registry>,
    metrics: MetricsHandle,
    caps: BudgetSpec,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Builds a daemon from `cfg` with its own metrics registry.
    pub fn new(cfg: ServeConfig) -> Server {
        let registry = Arc::new(Registry::new());
        let metrics = MetricsHandle::new(registry.clone());
        Server {
            pool: WorkerPool::new(cfg.workers, cfg.queue_cap, &metrics),
            cache: Arc::new(ServeCache::new(cfg.cache_entries)),
            registry,
            metrics,
            caps: cfg.caps,
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The warm-start cache (exposed for tests and the bench harness).
    pub fn cache(&self) -> &ServeCache {
        &self.cache
    }

    /// The daemon's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// `true` once a `shutdown` request was accepted.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Handles one request line and returns the response line.
    pub fn handle_line(&self, line: &str) -> String {
        let started = self.registry.now_us();
        self.metrics.add("serve.requests", 1);
        let req = match parse_request(line) {
            Ok(r) => r,
            Err((kind, detail)) => {
                self.metrics.add("serve.errors", 1);
                return error_response(kind, &detail);
            }
        };
        let response = match req {
            Request::Ping => "{\"ok\":true,\"cmd\":\"ping\"}".to_string(),
            Request::Metrics(prometheus) => self.metrics_response(prometheus),
            Request::CacheStats => self.cache_response(),
            Request::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                "{\"ok\":true,\"cmd\":\"shutdown\"}".to_string()
            }
            Request::Synth(req) => self.synth_response(req),
            Request::Explore(req) => self.explore_response(req),
            Request::Resynth(req) => self.resynth_response(req),
        };
        self.metrics
            .observe("serve.request_us", self.registry.now_us() - started);
        response
    }

    fn metrics_response(&self, prometheus: bool) -> String {
        self.metrics
            .gauge_set("serve.cache.entries", self.cache.len() as i64);
        self.metrics
            .gauge_set("serve.cache.evictions", self.cache.evictions() as i64);
        let snap = self.registry.snapshot();
        if prometheus {
            format!(
                "{{\"ok\":true,\"cmd\":\"metrics\",\"format\":\"prometheus\",\"registry\":\"{}\"}}",
                json::escape(&to_prometheus(&snap))
            )
        } else {
            format!(
                "{{\"ok\":true,\"cmd\":\"metrics\",\"format\":\"json\",\"registry\":{}}}",
                to_json(&snap)
            )
        }
    }

    fn cache_response(&self) -> String {
        format!(
            "{{\"ok\":true,\"cmd\":\"cache\",\"entries\":{},\"capacity\":{},\"evictions\":{}}}",
            self.cache.len(),
            self.cache.capacity(),
            self.cache.evictions()
        )
    }

    /// Parses the design text and applies a per-chip budget override.
    fn prepare_design(
        design: &str,
        pin_budget: Option<&[u32]>,
    ) -> Result<Cdfg, (ErrorKind, String)> {
        let parsed =
            format::parse(design).map_err(|e| (ErrorKind::BadRequest, format!("design: {e}")))?;
        let mut cdfg = parsed.cdfg().clone();
        if let Some(budget) = pin_budget {
            let chips = cdfg.partition_count().saturating_sub(1);
            if budget.len() != chips {
                return Err((
                    ErrorKind::BadRequest,
                    format!(
                        "pin_budget has {} entries but the design has {chips} chips",
                        budget.len()
                    ),
                ));
            }
            apply_pin_budgets(&mut cdfg, budget);
        }
        Ok(cdfg)
    }

    /// The per-request execution budget: the client's ask clamped by
    /// the server caps. Each job gets its own ledger (and with it its
    /// own deadline clock and cancel token).
    fn job_budget(&self, requested: &BudgetSpec) -> Option<Budget> {
        let effective = self.caps.intersect(requested);
        if effective.is_unlimited() {
            None
        } else {
            Some(Budget::new(effective))
        }
    }

    fn synth_response(&self, req: SynthRequest) -> String {
        self.metrics.add("serve.jobs.synth", 1);
        let cdfg = match Self::prepare_design(&req.design, req.pin_budget.as_deref()) {
            Ok(c) => c,
            Err((kind, detail)) => {
                self.metrics.add("serve.errors", 1);
                return error_response(kind, &detail);
            }
        };
        let digest = normalized_digest(&cdfg);
        let key = ServeKey::synth(digest, req.flow, req.rate, effective_budgets(&cdfg));
        let seeds = match self.cache.lookup(&key) {
            Lookup::Hit(body) => {
                self.metrics.add("serve.hits.exact", 1);
                return with_provenance(&body, "hit");
            }
            Lookup::Seeds(seeds) => {
                self.metrics.add("serve.hits.seed", 1);
                seeds
            }
            Lookup::Cold => {
                self.metrics.add("serve.misses", 1);
                Seeds::default()
            }
        };
        let provenance = if seeds.donors > 0 { "warm" } else { "cold" };
        let budget = self.job_budget(&req.budget);
        let cache = self.cache.clone();
        let metrics = self.metrics.clone();
        let job = Box::new(move || {
            let (core, termination, warm) = run_synth(
                &cdfg, digest, req.rate, req.flow, budget, seeds.warm, &metrics,
            );
            if termination == Termination::Complete {
                cache.insert(
                    key,
                    ServeEntry {
                        warm,
                        body: core.clone(),
                    },
                );
            }
            with_provenance(&core, provenance)
        });
        self.run_job(Lane::Cheap, job)
    }

    fn explore_response(&self, req: ExploreRequest) -> String {
        self.metrics.add("serve.jobs.explore", 1);
        let cdfg = match Self::prepare_design(&req.design, None) {
            Ok(c) => c,
            Err((kind, detail)) => {
                self.metrics.add("serve.errors", 1);
                return error_response(kind, &detail);
            }
        };
        let digest = normalized_digest(&cdfg);
        let key = ServeKey::explore(digest, req.flow, &req.rates, &req.pin_budgets);
        match self.cache.lookup(&key) {
            Lookup::Hit(body) => {
                self.metrics.add("serve.hits.exact", 1);
                return with_provenance(&body, "hit");
            }
            Lookup::Seeds(_) | Lookup::Cold => self.metrics.add("serve.misses", 1),
        }
        let budget = self.job_budget(&req.budget);
        let cache = self.cache.clone();
        let metrics = self.metrics.clone();
        let job = Box::new(move || {
            let (core, termination) = match run_explore(&cdfg, digest, &req, budget, &metrics) {
                Ok(r) => r,
                // Lattice validation failed; the error line is final.
                Err(line) => return line,
            };
            if termination == Termination::Complete {
                cache.insert(
                    key,
                    ServeEntry {
                        warm: WarmStart::default(),
                        body: core.clone(),
                    },
                );
            }
            with_provenance(&core, "cold")
        });
        self.run_job(Lane::Expensive, job)
    }

    /// A resynth job: validate the `(design, prev, edit)` triple on the
    /// connection thread, then run the incremental ladder in the cheap
    /// lane. The cache key is `(parent digest, prev digest, delta
    /// digest)`, where the prev digest is taken over the *canonical*
    /// re-rendering of the saved result — two textually different but
    /// semantically identical `prev` bodies share an entry.
    fn resynth_response(&self, req: ResynthRequest) -> String {
        self.metrics.add("serve.jobs.resynth", 1);
        let bad = |metrics: &MetricsHandle, detail: String| {
            metrics.add("serve.errors", 1);
            error_response(ErrorKind::BadRequest, &detail)
        };
        let cdfg = match Self::prepare_design(&req.design, None) {
            Ok(c) => c,
            Err((kind, detail)) => {
                self.metrics.add("serve.errors", 1);
                return error_response(kind, &detail);
            }
        };
        let saved = match resynth::result_from_json(&req.prev) {
            Ok(s) => s,
            Err(e) => return bad(&self.metrics, format!("prev: {e}")),
        };
        let digest = mcs_cdfg::fuzz::design_digest(&cdfg);
        if saved.design_digest != digest {
            return bad(
                &self.metrics,
                format!(
                    "prev: saved result is for design digest {:#018x}, \
                     but the submitted design has digest {digest:#018x}",
                    saved.design_digest
                ),
            );
        }
        let delta = match mcs_cdfg::delta::DesignDelta::parse(&req.edit) {
            Ok(d) => d,
            Err(e) => return bad(&self.metrics, format!("edit: {e}")),
        };
        let prev_canon = resynth::result_to_json(digest, &saved.result);
        let key = ServeKey::resynth(digest, fnv1a(prev_canon.as_bytes()), delta.digest());
        match self.cache.lookup(&key) {
            Lookup::Hit(body) => {
                self.metrics.add("serve.hits.exact", 1);
                return with_provenance(&body, "hit");
            }
            Lookup::Seeds(_) | Lookup::Cold => self.metrics.add("serve.misses", 1),
        }
        let cache = self.cache.clone();
        let metrics = self.metrics.clone();
        let job = Box::new(move || {
            let core = run_resynth(&cdfg, digest, &saved.result, &delta, &metrics);
            // Resynthesis is budget-free and deterministic, so every
            // outcome (including a definitive failure) is cacheable.
            cache.insert(
                key,
                ServeEntry {
                    warm: WarmStart::default(),
                    body: core.clone(),
                },
            );
            with_provenance(&core, "cold")
        });
        self.run_job(Lane::Cheap, job)
    }

    fn run_job(&self, lane: Lane, job: crate::pool::Job) -> String {
        match self.pool.submit(lane, job) {
            Ok(rx) => rx.recv().unwrap_or_else(|_| {
                error_response(ErrorKind::ShuttingDown, "daemon stopped before the job ran")
            }),
            Err(line) => {
                self.metrics.add("serve.rejected", 1);
                line
            }
        }
    }

    /// Serves newline-delimited requests from `input` to `output` until
    /// EOF or a `shutdown` request — the `--stdio` sandbox mode, also
    /// the deterministic harness the integration tests script against.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures on either stream.
    pub fn serve_stdio<R: BufRead, W: Write>(&self, input: R, mut output: W) -> io::Result<()> {
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            writeln!(output, "{}", self.handle_line(line.trim()))?;
            output.flush()?;
            if self.stop_requested() {
                break;
            }
        }
        self.pool.shutdown();
        Ok(())
    }

    /// Accept loop: one thread per connection, shared dispatch. Returns
    /// after a `shutdown` request has been accepted and every
    /// connection thread has exited.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.stop_requested() {
            match listener.accept() {
                Ok((stream, _)) => {
                    let server = self.clone();
                    connections.push(std::thread::spawn(move || server.serve_connection(stream)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => {}
            }
            connections.retain(|h| !h.is_finished());
        }
        for h in connections {
            let _ = h.join();
        }
        self.pool.shutdown();
        Ok(())
    }

    fn serve_connection(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .is_err()
        {
            return;
        }
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        let mut buf = String::new();
        loop {
            if self.stop_requested() {
                return;
            }
            match reader.read_line(&mut buf) {
                Ok(0) => return,
                Ok(_) => {
                    let line = buf.trim().to_string();
                    buf.clear();
                    if line.is_empty() {
                        continue;
                    }
                    let response = self.handle_line(&line);
                    if writeln!(writer, "{response}").is_err() || writer.flush().is_err() {
                        return;
                    }
                }
                // Timeout: poll the stop flag and keep waiting. A
                // partially read line stays in `buf` and completes on
                // the next pass.
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => return,
            }
        }
    }
}

fn flow_label(digest: u64) -> String {
    format!("{digest:016x}")
}

fn synth_core(
    digest: u64,
    rate: u32,
    flow: JobFlow,
    status: &str,
    termination: Termination,
    extra: &str,
) -> String {
    format!(
        "{{\"ok\":true,\"cmd\":\"synth\",\"design\":\"{}\",\"rate\":{rate},\"flow\":\"{}\",\"status\":\"{status}\",\"termination\":\"{}\"{extra}}}",
        flow_label(digest),
        flow.as_str(),
        termination.name()
    )
}

fn detail_extra(detail: &str) -> String {
    format!(",\"detail\":\"{}\"", json::escape(detail))
}

/// Runs one synth job through the same flow, pin gate and status split
/// as a sweep point. Returns the canonical response core, how the run
/// terminated (only [`Termination::Complete`] results are cacheable),
/// and the warm-start exports to publish.
fn run_synth(
    cdfg: &Cdfg,
    digest: u64,
    rate: u32,
    flow: JobFlow,
    budget: Option<Budget>,
    warm: WarmStart,
    metrics: &MetricsHandle,
) -> (String, Termination, WarmStart) {
    let spec = point_spec(flow.variant(), rate, budget, metrics.clone());
    let run = Run {
        warm,
        gate: true,
        ..Run::default()
    };
    let out = synthesize(cdfg, &spec, &run);
    let (status, termination, extra) = match (out.interrupted(), &out.result) {
        (Some(t), _) => (
            "interrupted",
            t,
            format!(
                ",\"best_depth\":{},\"best_buses\":{}",
                out.best_depth, out.best_buses
            ),
        ),
        (None, Ok(result)) => {
            let q = result.qor(cdfg);
            let extra = format!(
                ",\"latency\":{},\"total_pins\":{},\"buses\":{},\"registers\":{},\"reassigned\":{}",
                q.latency, q.total_pins, q.buses, q.registers, result.reassigned
            );
            (out.status().as_str(), Termination::Complete, extra)
        }
        (None, Err(_)) => (
            out.status().as_str(),
            Termination::Complete,
            detail_extra(&out.detail()),
        ),
    };
    let core = synth_core(digest, rate, flow, status, termination, &extra);
    (core, termination, out.exports.unwrap_or_default())
}

/// Runs one resynth job: the incremental ladder, with the path taken,
/// the dirty-region size and the reuse telemetry in the response body.
/// All of those are deterministic functions of the inputs, so the body
/// stays exact-replay-sound.
fn run_resynth(
    cdfg: &Cdfg,
    digest: u64,
    prev: &SynthesisResult,
    delta: &mcs_cdfg::delta::DesignDelta,
    metrics: &MetricsHandle,
) -> String {
    let recorder = RecorderHandle::default();
    let head = format!(
        "{{\"ok\":true,\"cmd\":\"resynth\",\"design\":\"{}\",\"delta\":\"{:016x}\"",
        flow_label(digest),
        delta.digest()
    );
    match resynth::resynth_flow_traced(cdfg, prev, delta, &recorder, metrics) {
        Ok(out) => {
            let total_pins: u32 = out.result.pins_used.iter().skip(1).sum();
            format!(
                "{head},\"status\":\"feasible\",\"path\":\"{}\",\"rate\":{},\"latency\":{},\
                 \"total_pins\":{total_pins},\"buses\":{},\"dirty_ops\":{},\
                 \"dirty_transfers\":{},\"reused\":{},\"fresh\":{},\
                 \"replayed_commits\":{},\"rollbacks\":{}}}",
                out.path,
                out.result.schedule.rate,
                out.result.pipe_length,
                out.result.interconnect.buses.len(),
                out.dirty.ops.len(),
                out.dirty.transfers.len(),
                out.stats.reused_assignments,
                out.stats.fresh_assignments,
                out.stats.replayed_commits,
                out.stats.rollbacks,
            )
        }
        Err(e) => format!(
            "{head},\"status\":\"error\"{}}}",
            detail_extra(&e.to_string())
        ),
    }
}

/// Runs one explore job: a single-worker sweep (request concurrency
/// comes from the pool, point determinism from `jobs: 1`).
///
/// # Errors
///
/// The `bad-request` response line, when the lattice is invalid.
fn run_explore(
    cdfg: &Cdfg,
    digest: u64,
    req: &ExploreRequest,
    budget: Option<Budget>,
    metrics: &MetricsHandle,
) -> Result<(String, Termination), String> {
    let recorder = RecorderHandle::default();
    let spec = SweepSpec {
        design: flow_label(digest),
        flow: req.flow.variant(),
        rates: req.rates.clone(),
        budgets: req.pin_budgets.clone(),
    };
    let opts = SweepOptions {
        jobs: 1,
        prune: true,
        budget,
        recorder: recorder.clone(),
        metrics: metrics.clone(),
    };
    match run_sweep(cdfg, &spec, &opts, &recorder) {
        Ok(report) => {
            let termination = report.stats.termination;
            let core = format!(
                "{{\"ok\":true,\"cmd\":\"explore\",\"design\":\"{}\",\"flow\":\"{}\",\"termination\":\"{}\",\"points\":{},\"feasible\":{},\"frontier\":{},\"report\":{}}}",
                flow_label(digest),
                req.flow.as_str(),
                termination.name(),
                report.stats.points,
                report.stats.feasible,
                report.frontier.len(),
                report.to_json()
            );
            Ok((core, termination))
        }
        Err(e) => Err(error_response(ErrorKind::BadRequest, &e.to_string())),
    }
}
