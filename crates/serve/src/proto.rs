//! Wire protocol: newline-delimited JSON requests and responses.
//!
//! One request object per line, one response object per line, in order.
//! The full schema (every request and response member, plus the error
//! taxonomy and how it maps onto `docs/ERRORS.md`) is specified in
//! `docs/SERVE.md`; this module is the single point where the wire
//! shapes are parsed and rendered.

use mcs_ctl::json::{self, Json};
use mcs_ctl::BudgetSpec;
use mcs_explore::FlowVariant;

/// Which synthesis flow a job runs. The daemon exposes the two
/// budget-constrained flows; the schedule-first flow reports pins
/// instead of constraining them and stays a CLI-only experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobFlow {
    /// Chapter 3 simple partitioning behind the pin-probe gate.
    Simple,
    /// Chapter 4 connect-first search (the default).
    Connect,
}

impl JobFlow {
    /// Stable lower-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobFlow::Simple => "simple",
            JobFlow::Connect => "connect",
        }
    }

    /// The sweep flow this job flow runs.
    pub fn variant(self) -> FlowVariant {
        match self {
            JobFlow::Simple => FlowVariant::Simple,
            JobFlow::Connect => FlowVariant::ConnectFirst,
        }
    }

    /// Inverse of [`JobFlow::as_str`] (also accepts the sweep spelling
    /// `connect-first`).
    pub fn parse(s: &str) -> Option<JobFlow> {
        match s {
            "simple" => Some(JobFlow::Simple),
            "connect" | "connect-first" => Some(JobFlow::Connect),
            _ => None,
        }
    }
}

/// A `synth` job: one design at one rate through one flow.
#[derive(Clone, Debug)]
pub struct SynthRequest {
    /// Design source in the `.mcs` text format.
    pub design: String,
    /// Initiation rate `L`.
    pub rate: u32,
    /// Flow to run.
    pub flow: JobFlow,
    /// Per-chip pin-budget override (one entry per chip); `None` keeps
    /// the budgets written in the design text.
    pub pin_budget: Option<Vec<u32>>,
    /// Per-request execution budget; intersected with the server caps.
    pub budget: BudgetSpec,
}

/// An `explore` job: a design-space sweep over a rate × budget lattice.
#[derive(Clone, Debug)]
pub struct ExploreRequest {
    /// Design source in the `.mcs` text format.
    pub design: String,
    /// Initiation rates of the lattice.
    pub rates: Vec<u32>,
    /// Per-chip pin-budget vectors of the lattice.
    pub pin_budgets: Vec<Vec<u32>>,
    /// Flow run at every point.
    pub flow: JobFlow,
    /// Per-request execution budget; intersected with the server caps.
    pub budget: BudgetSpec,
}

/// A `resynth` job: incremental resynthesis of an edited design from a
/// previously saved result (the `mcs-hls synth --out-result` format).
#[derive(Clone, Debug)]
pub struct ResynthRequest {
    /// Design source in the `.mcs` text format — the *pre-edit* design
    /// the saved result was synthesized from.
    pub design: String,
    /// The saved-result JSON for `design` (digest-checked).
    pub prev: String,
    /// Design-delta spec, e.g. `width:a1=8; rate:7`
    /// ([`mcs_cdfg::delta::DesignDelta::parse`]).
    pub edit: String,
}

/// One parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness check, answered inline.
    Ping,
    /// Registry snapshot; `true` requests Prometheus text exposition.
    Metrics(bool),
    /// Warm-start cache statistics, answered inline.
    CacheStats,
    /// Graceful shutdown: drain workers, then stop accepting.
    Shutdown,
    /// A synthesis job (pool-scheduled, cheap lane).
    Synth(SynthRequest),
    /// A sweep job (pool-scheduled, expensive lane).
    Explore(ExploreRequest),
    /// An incremental resynthesis job (pool-scheduled, cheap lane).
    Resynth(ResynthRequest),
}

/// Protocol-level error kinds (`docs/SERVE.md` maps these onto the
/// repo-wide taxonomy in `docs/ERRORS.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line is not a well-formed request object.
    Parse,
    /// The request is well-formed but semantically invalid.
    BadRequest,
    /// Admission control rejected the job: the queue is full.
    Overloaded,
    /// The daemon is shutting down and no longer accepts jobs.
    ShuttingDown,
    /// The job panicked and was quarantined; the daemon survives.
    WorkerPanicked,
}

impl ErrorKind {
    /// Stable kebab-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::WorkerPanicked => "worker-panicked",
        }
    }
}

/// Renders the error response line for `kind` with a human detail.
pub fn error_response(kind: ErrorKind, detail: &str) -> String {
    format!(
        "{{\"ok\":false,\"error\":{{\"kind\":\"{}\",\"detail\":\"{}\"}}}}",
        kind.as_str(),
        json::escape(detail)
    )
}

fn field_u64(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn field_str<'j>(obj: &'j Json, key: &str) -> Result<&'j str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("`{key}` must be a string"))
}

fn field_u32_vec(value: &Json, what: &str) -> Result<Vec<u32>, String> {
    value
        .as_arr()
        .ok_or_else(|| format!("{what} must be an array of integers"))?
        .iter()
        .map(|j| {
            j.as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| format!("{what} entries must be u32 integers"))
        })
        .collect()
}

fn budget_spec(obj: &Json) -> Result<BudgetSpec, String> {
    let Some(b) = obj.get("budget") else {
        return Ok(BudgetSpec::default());
    };
    if !matches!(b, Json::Obj(_)) {
        return Err("`budget` must be an object".into());
    }
    Ok(BudgetSpec {
        deadline_ms: field_u64(b, "deadline_ms")?,
        max_pivots: field_u64(b, "max_pivots")?,
        max_nodes: field_u64(b, "max_nodes")?,
        max_probes: field_u64(b, "max_probes")?,
    })
}

fn job_flow(obj: &Json) -> Result<JobFlow, String> {
    match obj.get("flow") {
        None => Ok(JobFlow::Connect),
        Some(v) => {
            let s = v.as_str().ok_or("`flow` must be a string")?;
            JobFlow::parse(s).ok_or_else(|| format!("unknown flow `{s}`"))
        }
    }
}

/// Parses one request line.
///
/// # Errors
///
/// [`ErrorKind::Parse`] for malformed JSON, [`ErrorKind::BadRequest`]
/// for a well-formed object that is not a valid request.
pub fn parse_request(line: &str) -> Result<Request, (ErrorKind, String)> {
    let obj = json::parse(line).map_err(|e| (ErrorKind::Parse, e))?;
    let bad = |msg: String| (ErrorKind::BadRequest, msg);
    let cmd = field_str(&obj, "cmd").map_err(bad)?;
    match cmd {
        "ping" => Ok(Request::Ping),
        "metrics" => {
            let prometheus = match obj.get("format").and_then(Json::as_str) {
                None | Some("json") => false,
                Some("prometheus") | Some("prom") => true,
                Some(other) => return Err(bad(format!("unknown metrics format `{other}`"))),
            };
            Ok(Request::Metrics(prometheus))
        }
        "cache" => Ok(Request::CacheStats),
        "shutdown" => Ok(Request::Shutdown),
        "synth" => {
            let rate = field_u64(&obj, "rate")
                .map_err(bad)?
                .ok_or_else(|| bad("`rate` is required".into()))?;
            let rate = u32::try_from(rate)
                .ok()
                .filter(|&r| r > 0)
                .ok_or_else(|| bad("`rate` must be a positive u32".into()))?;
            let pin_budget = match obj.get("pin_budget") {
                None | Some(Json::Null) => None,
                Some(v) => Some(field_u32_vec(v, "`pin_budget`").map_err(bad)?),
            };
            Ok(Request::Synth(SynthRequest {
                design: field_str(&obj, "design").map_err(bad)?.to_string(),
                rate,
                flow: job_flow(&obj).map_err(bad)?,
                pin_budget,
                budget: budget_spec(&obj).map_err(bad)?,
            }))
        }
        "explore" => {
            let rates = field_u32_vec(
                obj.get("rates")
                    .ok_or_else(|| bad("`rates` is required".into()))?,
                "`rates`",
            )
            .map_err(bad)?;
            let budgets = obj
                .get("pin_budgets")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("`pin_budgets` must be an array of arrays".into()))?
                .iter()
                .map(|v| field_u32_vec(v, "`pin_budgets`"))
                .collect::<Result<Vec<_>, _>>()
                .map_err(bad)?;
            Ok(Request::Explore(ExploreRequest {
                design: field_str(&obj, "design").map_err(bad)?.to_string(),
                rates,
                pin_budgets: budgets,
                flow: job_flow(&obj).map_err(bad)?,
                budget: budget_spec(&obj).map_err(bad)?,
            }))
        }
        "resynth" => Ok(Request::Resynth(ResynthRequest {
            design: field_str(&obj, "design").map_err(bad)?.to_string(),
            prev: field_str(&obj, "prev").map_err(bad)?.to_string(),
            edit: field_str(&obj, "edit").map_err(bad)?.to_string(),
        })),
        other => Err(bad(format!("unknown cmd `{other}`"))),
    }
}

/// Appends the cache-provenance member to a stored response core.
/// Response cores are rendered without the `cache` member so one cached
/// body can be replayed under any provenance (`cold`, `warm`, `hit`).
pub fn with_provenance(core: &str, provenance: &str) -> String {
    debug_assert!(core.ends_with('}'));
    format!("{},\"cache\":\"{provenance}\"}}", &core[..core.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_synth_request() {
        let line = r#"{"cmd":"synth","design":"chip a 8","rate":4,"flow":"simple",
                       "pin_budget":[48,64],"budget":{"deadline_ms":250,"max_nodes":1000}}"#
            .replace('\n', " ");
        let Request::Synth(req) = parse_request(&line).expect("parses") else {
            panic!("not a synth request");
        };
        assert_eq!(req.design, "chip a 8");
        assert_eq!(req.rate, 4);
        assert_eq!(req.flow, JobFlow::Simple);
        assert_eq!(req.pin_budget, Some(vec![48, 64]));
        assert_eq!(req.budget.deadline_ms, Some(250));
        assert_eq!(req.budget.max_nodes, Some(1000));
        assert_eq!(req.budget.max_pivots, None);
    }

    #[test]
    fn defaults_are_connect_flow_and_unlimited_budget() {
        let Request::Synth(req) =
            parse_request(r#"{"cmd":"synth","design":"x","rate":2}"#).expect("parses")
        else {
            panic!("not a synth request");
        };
        assert_eq!(req.flow, JobFlow::Connect);
        assert!(req.budget.is_unlimited());
        assert_eq!(req.pin_budget, None);
    }

    #[test]
    fn parses_an_explore_request() {
        let line =
            r#"{"cmd":"explore","design":"x","rates":[4,5],"pin_budgets":[[48,64],[32,32]]}"#;
        let Request::Explore(req) = parse_request(line).expect("parses") else {
            panic!("not an explore request");
        };
        assert_eq!(req.rates, vec![4, 5]);
        assert_eq!(req.pin_budgets, vec![vec![48, 64], vec![32, 32]]);
        assert_eq!(req.flow, JobFlow::Connect);
    }

    #[test]
    fn parses_a_resynth_request() {
        let line = r#"{"cmd":"resynth","design":"x","prev":"{\"design\":1}","edit":"rate:7"}"#;
        let Request::Resynth(req) = parse_request(line).expect("parses") else {
            panic!("not a resynth request");
        };
        assert_eq!(req.design, "x");
        assert_eq!(req.prev, "{\"design\":1}");
        assert_eq!(req.edit, "rate:7");
        // All three members are required.
        assert_eq!(
            parse_request(r#"{"cmd":"resynth","design":"x","edit":"rate:7"}"#)
                .unwrap_err()
                .0,
            ErrorKind::BadRequest
        );
    }

    #[test]
    fn rejects_malformed_and_invalid_lines() {
        assert_eq!(parse_request("not json").unwrap_err().0, ErrorKind::Parse);
        assert_eq!(
            parse_request(r#"{"cmd":"warp"}"#).unwrap_err().0,
            ErrorKind::BadRequest
        );
        assert_eq!(
            parse_request(r#"{"cmd":"synth","design":"x"}"#)
                .unwrap_err()
                .0,
            ErrorKind::BadRequest
        );
        assert_eq!(
            parse_request(r#"{"cmd":"synth","design":"x","rate":0}"#)
                .unwrap_err()
                .0,
            ErrorKind::BadRequest
        );
    }

    #[test]
    fn provenance_is_appended_inside_the_object() {
        assert_eq!(
            with_provenance(r#"{"ok":true,"cmd":"synth"}"#, "hit"),
            r#"{"ok":true,"cmd":"synth","cache":"hit"}"#
        );
    }

    #[test]
    fn error_responses_escape_details() {
        let line = error_response(ErrorKind::Parse, "bad \"quote\"");
        assert_eq!(
            line,
            r#"{"ok":false,"error":{"kind":"parse","detail":"bad \"quote\""}}"#
        );
    }
}
