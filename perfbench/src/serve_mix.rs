//! `serve-mix`: an in-process `mcs-serve` daemon on 127.0.0.1 with two
//! workers, driven by two closed-loop client connections.
//!
//! Each round sends a seeded mix in three phases, each phase finishing
//! before the next starts:
//!
//! 1. cold: `synth` requests (the connect flow at serve's portfolio and
//!    the simple flow), `resynth` edits over saved results, and a few
//!    small `explore` sweeps;
//! 2. warm: near-repeats of some synth requests under a dominated
//!    `pin_budget`, seeded from phase 1's cache entries;
//! 3. hits: exact repeats of every key of phases 1 and 2.
//!
//! Every round renames one partition of each design, so its keys are
//! new to the cache while the work stays the same. The cache holds
//! every key of a round, so the cold/warm/hit counts follow the plan
//! exactly; a response with another provenance fails the run.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

use mcs_cdfg::designs::{ar_filter, elliptic};
use mcs_cdfg::{format, Cdfg, OpId, PartitionId, PortMode};
use mcs_explore::{FlowVariant, SweepOptions, SweepSpec};
use mcs_serve::json::{self, Json};
use mcs_serve::{JobFlow, ServeConfig, Server};
use multichip_hls::explore::run_sweep;
use multichip_hls::flows::{
    connect_first_flow, simple_flow, ConnectFirstOptions, FlowError, SynthesisResult,
};
use multichip_hls::obs::RecorderHandle;
use multichip_hls::resynth::{result_to_json, resynth_flow};

use crate::calib::{timed, Interval};
use crate::trace::Tracer;
use crate::{check, layers, measure_setup, run_rounds, run_traced, Args, Report, Rng, Round};

/// Client connections, each a closed loop.
const CLIENTS: usize = 2;
/// Exact repeats of every key in phase 3.
const HIT_REPEATS: usize = 3;
/// Daemon workers.
const WORKERS: usize = 2;
/// `latency_tail_ms` is p99: a run completes hundreds of rounds of 72
/// requests, which leaves hundreds of requests beyond it.
const TAIL_PERMILLE: usize = 990;
/// First round number of a traced half: its partition names, and so
/// its cache keys, differ from every untraced round's.
const TRACED_ROUND_BASE: usize = 1_000_000;

/// The example designs the stream sends, besides the generated ones.
const PIPELINE: &str = include_str!("../designs/pipeline.mcs");
const WIDE_SWEEP: &str = include_str!("../designs/wide_sweep.mcs");
const TDM_WIDE: &str = include_str!("../designs/tdm_wide.mcs");
const RECURSIVE: &str = include_str!("../designs/recursive_filter.mcs");

#[derive(Clone, Debug)]
enum Kind {
    Synth {
        flow: JobFlow,
        rate: u32,
        /// Fraction of the declared pins per chip; `None` sends no
        /// `pin_budget`.
        budget: Option<f64>,
    },
    Resynth {
        prev: usize,
        edit: String,
    },
    Explore {
        rates: Vec<u32>,
        fractions: Vec<f64>,
    },
}

/// One distinct key of the plan.
#[derive(Clone, Debug)]
struct Item {
    design: usize,
    kind: Kind,
    /// 0 cold, 1 warm.
    phase: usize,
}

/// A result saved before the run, for resynth requests.
struct Prev {
    design: usize,
    result: SynthesisResult,
}

/// What set-up builds: the daemon, the designs and the saved results.
struct Setup {
    daemon: Daemon,
    designs: Vec<Cdfg>,
    prevs: Vec<Prev>,
    items: Vec<Item>,
}

/// An in-process daemon serving on a loopback port.
struct Daemon {
    addr: SocketAddr,
    server: Arc<Server>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn boot() -> Result<Daemon, String> {
        let server = Arc::new(Server::new(ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
        let s = server.clone();
        let thread = std::thread::spawn(move || s.serve_tcp(listener));
        Ok(Daemon {
            addr,
            server,
            thread: Some(thread),
        })
    }

    /// Sends `shutdown` and waits for the accept loop to end.
    fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let reply = self.server.handle_line("{\"cmd\":\"shutdown\"}");
        if !reply.contains("\"ok\":true") {
            return Err(format!("shutdown refused: {reply}"));
        }
        thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// A client connection: no Nagle delay, one write per request line,
/// buffered reads.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client { writer, reader })
    }

    /// Sends one newline-terminated request and reads the response line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut out = String::new();
        match self.reader.read_line(&mut out) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(out.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// The first functional operation feeding an interchip transfer, and
/// the transfer's width: narrowing it dirties exactly that transfer.
fn transfer_producer(cdfg: &Cdfg) -> Option<(String, u32)> {
    cdfg.io_ops().find_map(|xfer: OpId| {
        cdfg.preds(xfer)
            .iter()
            .map(|&e| cdfg.edge(e).from)
            .find(|&op| cdfg.op(op).io_endpoints().is_none())
            .map(|p| (cdfg.op(p).name.clone(), cdfg.io_bits(xfer)))
    })
}

fn parse_design(text: &str) -> Result<Cdfg, String> {
    format::parse(text)
        .map(|d| d.into_cdfg())
        .map_err(|e| format!("design: {e}"))
}

fn setup() -> Result<Setup, String> {
    let mut designs = vec![
        elliptic::partitioned_with(6, PortMode::Unidirectional).into_cdfg(),
        ar_filter::general(2, PortMode::Unidirectional).into_cdfg(),
        ar_filter::simple().into_cdfg(),
    ];
    for text in [PIPELINE, WIDE_SWEEP, TDM_WIDE, RECURSIVE] {
        designs.push(parse_design(text)?);
    }
    let (ell, ar_general, ar_simple, pipeline, wide, tdm, recursive) = (0, 1, 2, 3, 4, 5, 6);

    let ell_prev = connect_first_flow(&designs[ell], &ConnectFirstOptions::new(6))
        .map_err(|e| format!("elliptic prev: {e}"))?;
    let ar_prev =
        simple_flow(&designs[ar_simple], 2).map_err(|e| format!("ar filter prev: {e}"))?;
    let prevs = vec![
        Prev {
            design: ell,
            result: ell_prev,
        },
        Prev {
            design: ar_simple,
            result: ar_prev,
        },
    ];
    let narrow = |d: usize| -> Result<String, String> {
        let (op, bits) = transfer_producer(&designs[d]).ok_or("no transfer to edit")?;
        Ok(format!("width:{op}={}", bits.max(2) - 1))
    };

    let synth = |design, flow, rate, budget, phase| Item {
        design,
        kind: Kind::Synth { flow, rate, budget },
        phase,
    };
    let mut items = vec![
        synth(ell, JobFlow::Connect, 6, None, 0),
        synth(ar_general, JobFlow::Connect, 2, None, 0),
        synth(ar_simple, JobFlow::Simple, 2, None, 0),
        synth(pipeline, JobFlow::Simple, 2, None, 0),
        synth(pipeline, JobFlow::Connect, 2, None, 0),
        synth(wide, JobFlow::Simple, 2, None, 0),
        synth(wide, JobFlow::Connect, 2, None, 0),
        synth(tdm, JobFlow::Simple, 2, None, 0),
        synth(recursive, JobFlow::Connect, 2, None, 0),
        synth(ell, JobFlow::Connect, 6, Some(0.9), 1),
        synth(ar_general, JobFlow::Connect, 2, Some(0.9), 1),
        synth(ar_simple, JobFlow::Simple, 2, Some(0.9), 1),
        synth(wide, JobFlow::Simple, 2, Some(0.75), 1),
    ];
    for (prev, edit) in [
        (0, "width:a1=8".to_string()),
        (0, narrow(ell)?),
        (1, narrow(ar_simple)?),
    ] {
        items.push(Item {
            design: prevs[prev].design,
            kind: Kind::Resynth { prev, edit },
            phase: 0,
        });
    }
    items.push(Item {
        design: pipeline,
        kind: Kind::Explore {
            rates: vec![2, 3],
            fractions: vec![1.0, 0.5],
        },
        phase: 0,
    });
    items.push(Item {
        design: wide,
        kind: Kind::Explore {
            rates: vec![2, 3, 4],
            fractions: vec![1.0, 0.5, 0.25],
        },
        phase: 0,
    });
    Ok(Setup {
        daemon: Daemon::boot()?,
        designs,
        prevs,
        items,
    })
}

fn budget_of(cdfg: &Cdfg, fraction: f64) -> Vec<u32> {
    (1..cdfg.partition_count())
        .map(|i| {
            let pins = cdfg.partition(PartitionId::new(i as u32)).total_pins;
            ((f64::from(pins) * fraction).floor() as u32).max(1)
        })
        .collect()
}

fn json_u32s(v: &[u32]) -> String {
    let parts: Vec<String> = v.iter().map(u32::to_string).collect();
    format!("[{}]", parts.join(","))
}

/// One round's request for one item.
struct Request {
    line: String,
    /// Hex digests naming this round's design in the response.
    scrub: Vec<String>,
}

/// `cdfg` with partition 1 renamed for `round`: a new cache key for the
/// same work.
fn renamed(cdfg: &Cdfg, round: usize) -> Cdfg {
    let mut c = cdfg.clone();
    let p = c.partition_mut(PartitionId::new(1));
    p.name = format!("R{round}x{}", p.name);
    c
}

fn requests(s: &Setup, round: usize) -> Vec<Request> {
    let texts: Vec<(String, Cdfg)> = s
        .designs
        .iter()
        .map(|c| {
            let r = renamed(c, round);
            (format::write(&r), r)
        })
        .collect();
    s.items
        .iter()
        .map(|item| {
            let (text, cdfg) = &texts[item.design];
            let design = json::escape(text);
            let scrub = vec![
                format!("{:016x}", mcs_serve::cache::normalized_digest(cdfg)),
                format!("{:016x}", mcs_cdfg::fuzz::design_digest(cdfg)),
            ];
            let line = match &item.kind {
                Kind::Synth { flow, rate, budget } => {
                    let budget = budget.map_or(String::new(), |f| {
                        format!(",\"pin_budget\":{}", json_u32s(&budget_of(cdfg, f)))
                    });
                    format!(
                        "{{\"cmd\":\"synth\",\"design\":\"{design}\",\"rate\":{rate},\"flow\":\"{}\"{budget}}}\n",
                        flow.as_str()
                    )
                }
                Kind::Resynth { prev, edit } => {
                    let prev_json =
                        result_to_json(mcs_cdfg::fuzz::design_digest(cdfg), &s.prevs[*prev].result);
                    format!(
                        "{{\"cmd\":\"resynth\",\"design\":\"{design}\",\"prev\":\"{}\",\"edit\":\"{}\"}}\n",
                        json::escape(&prev_json),
                        json::escape(edit)
                    )
                }
                Kind::Explore { rates, fractions } => {
                    let budgets: Vec<String> = fractions
                        .iter()
                        .map(|&f| json_u32s(&budget_of(cdfg, f)))
                        .collect();
                    format!(
                        "{{\"cmd\":\"explore\",\"design\":\"{design}\",\"rates\":{},\"pin_budgets\":[{}],\"flow\":\"simple\"}}\n",
                        json_u32s(rates),
                        budgets.join(",")
                    )
                }
            };
            Request { line, scrub }
        })
        .collect()
}

/// Splits `body` into the response core and its `cache` provenance.
fn split_provenance(body: &str) -> Option<(&str, &str)> {
    let at = body.rfind(",\"cache\":\"")?;
    let tag = body[at + 10..].strip_suffix("\"}")?;
    Some((&body[..at], tag))
}

/// One sent request: which item, the interval it took and the response.
struct Sent {
    item: usize,
    iv: Interval,
    response: Result<String, String>,
}

/// Sends `work` (item indices) over the clients, alternating, each
/// client in a closed loop. Returns the phase's interval.
fn phase(
    clients: &mut [Client],
    reqs: &[Request],
    work: &[usize],
    sent: &mut Vec<Sent>,
) -> Interval {
    let (results, iv) = timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(ci, client)| {
                    let mine: Vec<usize> = work.iter().copied().skip(ci).step_by(CLIENTS).collect();
                    scope.spawn(move || {
                        mine.into_iter()
                            .map(|item| {
                                let (response, iv) = timed(|| client.call(&reqs[item].line));
                                Sent { item, iv, response }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<Vec<Sent>>>()
        })
    });
    sent.extend(results.into_iter().flatten());
    iv
}

/// Round-0 responses, kept for the checks.
struct Log {
    /// Per item: round-0 request line and response core.
    first: Vec<Option<(String, String)>>,
    /// Per item: the scrubbed core every later round must repeat.
    scrubbed: Vec<Option<String>>,
    /// Per item: latencies of its cold or warm responses.
    miss_ms: Vec<Vec<f64>>,
}

fn scrub(core: &str, digests: &[String]) -> String {
    digests
        .iter()
        .fold(core.to_string(), |c, d| c.replace(d, "D"))
}

/// Runs rounds for `seconds` against `daemon`.
fn measure(
    s: &Setup,
    daemon: &Daemon,
    args: &Args,
    seconds: f64,
    report: &mut Report,
    log: &mut Log,
    round_base: usize,
) -> Result<(), String> {
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(daemon.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rng = Rng::new(args.seed, 4);
    let mut round_ix = round_base;
    let rounds = run_rounds(seconds, || {
        let reqs = requests(s, round_ix);
        round_ix += 1;
        let mut phases: [Vec<usize>; 3] = Default::default();
        for (i, item) in s.items.iter().enumerate() {
            phases[item.phase].push(i);
            phases[2].extend(std::iter::repeat_n(i, HIT_REPEATS));
        }
        let mut sent = Vec::new();
        let mut donors = vec![None; s.items.len()];
        let mut busy = Vec::new();
        for (p, work) in phases.iter_mut().enumerate() {
            rng.shuffle(work);
            let start = sent.len();
            busy.push(phase(&mut clients, &reqs, work, &mut sent));
            for rec in &sent[start..] {
                let expected = ["cold", "warm", "hit"][p];
                let ok = judge(log, &mut donors, &reqs, rec, expected, report);
                report.job(rec.iv, ok);
                match p {
                    2 => report.hits.push(rec.iv),
                    _ => {
                        report.misses.push(rec.iv);
                        log.miss_ms[rec.item].push(rec.iv.ms());
                    }
                }
            }
        }
        Round {
            jobs: sent.len() as u64,
            busy,
        }
    });
    report.rounds.extend(rounds);
    Ok(())
}

/// Checks one response against the plan: its provenance, and its body.
/// A hit must repeat this round's donor byte for byte; a cold or warm
/// response must repeat round 0's, with the renamed design's digest
/// masked.
fn judge(
    log: &mut Log,
    donors: &mut [Option<String>],
    reqs: &[Request],
    rec: &Sent,
    expected: &str,
    report: &mut Report,
) -> bool {
    let mut fail = |why: String| {
        if report.notes.len() < 20 {
            report.notes.push(format!("request {}: {why}", rec.item));
        }
        false
    };
    let body = match &rec.response {
        Ok(b) => b,
        Err(e) => return fail(e.clone()),
    };
    let Some((core, tag)) = split_provenance(body) else {
        return fail(format!("no provenance: {body}"));
    };
    if tag != expected {
        return fail(format!("provenance `{tag}`, plan says `{expected}`"));
    }
    if !core.starts_with("{\"ok\":true") {
        return fail(format!("error response: {body}"));
    }
    if expected == "hit" {
        return match &donors[rec.item] {
            Some(donor) if donor == core => true,
            Some(_) => fail(format!("hit differs from its donor: {core}")),
            None => fail("hit without a donor".into()),
        };
    }
    donors[rec.item] = Some(core.to_string());
    let scrubbed = scrub(core, &reqs[rec.item].scrub);
    match &log.scrubbed[rec.item] {
        None => {
            log.scrubbed[rec.item] = Some(scrubbed);
            log.first[rec.item] = Some((reqs[rec.item].line.clone(), core.to_string()));
            true
        }
        Some(want) if *want == scrubbed => true,
        Some(_) => fail(format!("response differs from round 0's: {core}")),
    }
}

fn field_u64(v: &Json, key: &str) -> Option<u64> {
    v.get(key).and_then(Json::as_u64)
}

/// In-process reference for one synth request: the same flow settings
/// `mcs-serve` uses, without warm-start seeds.
fn reference_synth(cdfg: &Cdfg, flow: JobFlow, rate: u32) -> Result<SynthesisResult, FlowError> {
    match flow {
        JobFlow::Simple => simple_flow(cdfg, rate),
        JobFlow::Connect => {
            let mut opts = ConnectFirstOptions::new(rate);
            opts.portfolio = Some(check::SERVICE_PORTFOLIO);
            connect_first_flow(cdfg, &opts)
        }
    }
}

/// Checks round 0's response to `item` against the in-process program
/// and verifies the in-process result. Returns the QoR it adds and the
/// connect search's backtracks and prunes.
fn verify_item(
    s: &Setup,
    item: &Item,
    line: &str,
    core: &str,
    seed: u64,
) -> Result<(crate::Qor, u64, u64), String> {
    let req = json::parse(line.trim_end()).map_err(|e| format!("request: {e}"))?;
    // The core is the response without its closing `,"cache":..}`.
    let resp = json::parse(&format!("{core}}}")).map_err(|e| format!("response: {e}"))?;
    let design = req
        .get("design")
        .and_then(Json::as_str)
        .ok_or("no design")?;
    let mut cdfg = parse_design(design)?;
    let mut qor = crate::Qor::default();
    let (mut backtracks, mut prunes) = (0, 0);
    let measures_match = |r: &SynthesisResult| -> Result<(), String> {
        let (pipe, pins, buses) = check::measures(r);
        let got = (
            field_u64(&resp, "latency"),
            field_u64(&resp, "total_pins"),
            field_u64(&resp, "buses"),
        );
        if got
            != (
                Some(pipe as u64),
                Some(u64::from(pins)),
                Some(u64::from(buses)),
            )
        {
            return Err(format!("served {got:?}, in-process {pipe}/{pins}/{buses}"));
        }
        Ok(())
    };
    match &item.kind {
        Kind::Synth { flow, rate, .. } => {
            if let Some(b) = req.get("pin_budget").and_then(Json::as_arr) {
                let b: Vec<u32> = b
                    .iter()
                    .filter_map(|v| v.as_u64())
                    .map(|v| v as u32)
                    .collect();
                cdfg = check::with_budget(&cdfg, &b);
            }
            let status = resp.get("status").and_then(Json::as_str).unwrap_or("");
            match reference_synth(&cdfg, *flow, *rate) {
                Ok(r) => {
                    if status != "feasible" {
                        return Err(format!("served `{status}`, in-process feasible"));
                    }
                    measures_match(&r)?;
                    check::verify_result(&cdfg, &r, false, seed)?;
                    if let Some(st) = &r.search_stats {
                        backtracks = st.backtracks;
                        prunes = st.prunes;
                    }
                    let (pipe, pins, buses) = check::measures(&r);
                    qor.add(pipe, pins, buses);
                }
                Err(e) => {
                    if status == "feasible" {
                        return Err(format!("served feasible, in-process failed: {e}"));
                    }
                }
            }
        }
        Kind::Resynth { prev, edit } => {
            let delta = mcs_cdfg::delta::DesignDelta::parse(edit).map_err(|e| e.to_string())?;
            let out = resynth_flow(&cdfg, &s.prevs[*prev].result, &delta)
                .map_err(|e| format!("in-process resynth: {e}"))?;
            let path = resp.get("path").and_then(Json::as_str).unwrap_or("");
            if path != out.path.to_string() {
                return Err(format!("served path `{path}`, in-process `{}`", out.path));
            }
            measures_match(&out.result)?;
            check::verify_result(&out.cdfg, &out.result, false, seed)?;
            let (pipe, pins, buses) = check::measures(&out.result);
            qor.add(pipe, pins, buses);
        }
        Kind::Explore { .. } => {
            let u32s = |v: &Json| -> Vec<u32> {
                v.as_arr()
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|x| x.as_u64())
                    .map(|x| x as u32)
                    .collect()
            };
            let spec = SweepSpec {
                design: format!("{:016x}", mcs_serve::cache::normalized_digest(&cdfg)),
                flow: FlowVariant::Simple,
                rates: req.get("rates").map(u32s).unwrap_or_default(),
                budgets: req
                    .get("pin_budgets")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(u32s)
                    .collect(),
            };
            let opts = SweepOptions {
                jobs: 1,
                ..SweepOptions::default()
            };
            let report = run_sweep(&cdfg, &spec, &opts, &RecorderHandle::default())
                .map_err(|e| format!("in-process sweep: {e}"))?;
            if !core.contains(&format!("\"report\":{}", report.to_json())) {
                return Err("served sweep report differs from the in-process sweep".into());
            }
            qor = check::verify_sweep(&cdfg, &report, seed)?.0;
        }
    }
    Ok((qor, backtracks, prunes))
}

/// Scrapes the daemon's registry through its `metrics` command.
fn scrape(daemon: &Daemon) -> Result<mcs_metrics::Snapshot, String> {
    let mut c = Client::connect(daemon.addr)?;
    let body = c.call("{\"cmd\":\"metrics\"}\n")?;
    let start = body.find("\"registry\":").ok_or("no registry in metrics")? + 11;
    let registry = body[start..]
        .strip_suffix('}')
        .ok_or("malformed metrics response")?;
    mcs_metrics::export::from_json(registry)
}

/// Times the daemon's per-request parse work on one round's lines:
/// request parsing, design parsing and digesting.
fn replay_parse(s: &Setup, tracer: &Tracer, l: &mut std::collections::BTreeMap<&'static str, f64>) {
    let reqs = requests(s, 0);
    let mut designs = 0usize;
    let mut ops = 0usize;
    for (i, r) in reqs.iter().enumerate() {
        let job = i as u64;
        let line = r.line.trim_end();
        let Ok(req) = tracer.time("serve.parse_request", None, job, || {
            mcs_serve::proto::parse_request(line)
        }) else {
            continue;
        };
        let text = match &req {
            mcs_serve::Request::Synth(r) => &r.design,
            mcs_serve::Request::Explore(r) => &r.design,
            mcs_serve::Request::Resynth(r) => &r.design,
            _ => continue,
        };
        if let Ok(d) = tracer.time("cdfg.parse", None, job, || format::parse(text)) {
            designs += 1;
            ops += d.cdfg().op_ids().count();
            tracer.time("serve.digest", None, job, || {
                mcs_serve::cache::normalized_digest(d.cdfg())
            });
        }
    }
    let summary = tracer.summary();
    let mean = |name: &str| summary.get(name).map_or(0.0, |e| e.1 / e.0.max(1) as f64);
    l.insert("serve.parse_request_us", mean("serve.parse_request"));
    l.insert("serve.digest_us", mean("serve.digest"));
    l.insert("cdfg.parse_us", mean("cdfg.parse"));
    if designs > 0 {
        l.insert("cdfg.ops_parsed", ops as f64 / designs as f64);
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up, socket or daemon failures.
pub fn run(args: &Args) -> Result<Report, String> {
    let (setup, setups) = measure_setup(setup);
    let mut s = setup?;
    let mut log = Log {
        first: vec![None; s.items.len()],
        scrubbed: vec![None; s.items.len()],
        miss_ms: vec![Vec::new(); s.items.len()],
    };
    let mut report = if args.trace {
        // The traced half gets a daemon of its own, so that daemon's
        // registry holds only the traced half.
        let mut traced = Daemon::boot()?;
        let run = run_traced(args, |seconds, report, tracer| {
            let (daemon, round_base) = match tracer {
                None => (&s.daemon, 0),
                Some(_) => (&traced, TRACED_ROUND_BASE),
            };
            measure(&s, daemon, args, seconds, report, &mut log, round_base)
        })?;
        let snap = scrape(&traced)?;
        traced.stop()?;
        let job_us: f64 = run.traced.latencies.iter().map(|iv| iv.secs()).sum::<f64>() * 1e6;
        let mut l = layers::from_registry(&snap, run.jobs(), job_us);
        replay_parse(&s, &run.tracer, &mut l);
        run.finish(args, l)?
    } else {
        let mut report = Report::default();
        measure(&s, &s.daemon, args, args.seconds, &mut report, &mut log, 0)?;
        report
    };
    report.setups = setups;
    report.tail_permille = TAIL_PERMILLE;
    s.daemon.stop()?;
    for (i, ms) in log.miss_ms.iter_mut().enumerate() {
        let kind = match &s.items[i].kind {
            Kind::Synth { flow, rate, .. } => format!("synth {} rate {rate}", flow.as_str()),
            Kind::Resynth { edit, .. } => format!("resynth {edit}"),
            Kind::Explore { .. } => "explore".to_string(),
        };
        report.notes.push(format!(
            "request {i} ({kind}, design {}) median {:.3} ms of wall time over {} misses",
            s.items[i].design,
            crate::stats::median(ms),
            ms.len()
        ));
    }
    let (mut backtracks, mut prunes) = (0u64, 0u64);
    for (i, item) in s.items.iter().enumerate() {
        let verdict = match &log.first[i] {
            Some((line, core)) => verify_item(&s, item, line, core, args.seed),
            None => Err("no response".into()),
        };
        match verdict {
            Ok((q, b, p)) => {
                report.qor.absorb(&q);
                backtracks += b;
                prunes += p;
            }
            Err(e) => {
                report.notes.push(format!("request {i}: check failed: {e}"));
                // Every response to this key repeated the failed result.
                report.failed += report.attempted / s.items.len() as u64;
            }
        }
    }
    if args.trace {
        // One unseeded reference run per distinct key stands for one
        // round of the daemon's searches.
        let jobs_per_round = (s.items.len() * (1 + HIT_REPEATS)) as f64;
        report
            .layers
            .insert("connect.backtracks", backtracks as f64 / jobs_per_round);
        report
            .layers
            .insert("connect.prunes", prunes as f64 / jobs_per_round);
        report.layers.extend(layers::client(&report));
    }
    Ok(report)
}
