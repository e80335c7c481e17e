//! The BENCH line schema: one table per family (`probe`, `connect`,
//! `fuzz`, `serve`, `resynth`, `explore`, `search_stats`) declaring each
//! field once — its JSON path, its number format and its regression
//! gate. The line writer ([`Line`]) and the baseline comparator
//! ([`compare`]) both read that table, so a field's format and the way
//! `bench_compare` judges it cannot drift apart.
//!
//! Gates ([`Gate`]):
//!
//! * **Hard** — deterministic results (probe counts, verdict digests,
//!   search node counts and sequence digests, differential agreement,
//!   fuzz outcome counts, shrink results). Any change is a regression:
//!   these do not depend on the machine, only on the code, so a diff
//!   means behavior changed without the baseline being re-recorded.
//! * **Floor** and **Ceiling** — performance figures measured *within*
//!   one run (trail-vs-clone speedup, trail allocation counts), compared
//!   with a tolerance ([`SPEEDUP_RATIO_FLOOR`], [`ALLOC_SLACK`],
//!   [`ALLOCS_PER_NODE_SLACK`]) so scheduler noise does not flake the
//!   gate.
//! * **Observed** — written for the reader, never compared: absolute
//!   wall times belong to the machine, and some tallies (serve storm
//!   provenance) depend on thread scheduling.
//!
//! Lines are read with [`mcs_ctl::json`], which keeps numbers as raw
//! text: `verdict_digest` values exceed `i64::MAX` and must be compared
//! exactly, not as lossy `f64`.

use std::fmt::{self, Write as _};

use mcs_ctl::json::{self, Json};

use Derive::{PerSec, PerUnit, Ratio, Same, With};
use Fmt::{Bool, Fixed, Int, Str};
use Gate::{Ceiling, Floor, Hard, Observed};

/// Fresh speedup must be at least this fraction of the baseline speedup.
pub const SPEEDUP_RATIO_FLOOR: f64 = 0.6;

/// Allowed absolute growth in trail-engine heap allocations per sweep.
pub const ALLOC_SLACK: u64 = 16;

/// Allowed absolute growth in the connection search's heap allocations
/// per expanded node.
pub const ALLOCS_PER_NODE_SLACK: f64 = 0.25;

/// Repeat-design (warm-tier) p50 latency must be at least this many
/// times below cold-path p50 — part of the `serve` line's `pass`.
pub const SERVE_SPEEDUP_FLOOR: f64 = 10.0;

/// Incremental resynthesis must beat cold resynthesis by at least this
/// factor on untouched-majority edits — the `resynth` line's default
/// `pass` floor (see [`Line::require_speedup`]).
pub const RESYNTH_SPEEDUP_FLOOR: f64 = 5.0;

/// How a field's value is written.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fmt {
    /// An integer (or `null`).
    Int,
    /// A float with this many decimals (`{:.3}` is `Fixed(3)`).
    Fixed(usize),
    /// `true` / `false`.
    Bool,
    /// A JSON string.
    Str,
}

/// How `bench_compare` judges a field against the baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// Any change fails.
    Hard,
    /// Fails below [`SPEEDUP_RATIO_FLOOR`] × baseline (skipped when the
    /// baseline is ≈ 0, where the ratio is all noise).
    Floor,
    /// Fails above baseline + this slack.
    Ceiling(f64),
    /// Never compared.
    Observed,
}

/// One field of a BENCH family.
#[derive(Clone, Copy, Debug)]
pub struct Field {
    /// Dotted JSON path (`trail.probes`), at most one level deep; the
    /// table order is the written order.
    path: &'static str,
    /// Number format.
    fmt: Fmt,
    /// Regression gate.
    gate: Gate,
    /// For a derived field, how its value follows from the fields
    /// before it.
    derive: Option<Derive>,
}

/// How a derived field is computed.
#[derive(Clone, Copy, Debug)]
enum Derive {
    /// The first path over the second, or 0 when the second is not
    /// positive (a within-run speedup).
    Ratio(&'static str, &'static str),
    /// The first path over the second floored at 1 (allocations per
    /// node, hit-over-cold latency).
    PerUnit(&'static str, &'static str),
    /// The first path per second of the second, a wall time in ms (0
    /// for a zero wall time).
    PerSec(&'static str, &'static str),
    /// Whether every side reports the same value for each field.
    Same(&'static [&'static str], &'static [&'static str]),
    /// Any other rule.
    With(fn(&Line) -> Value),
}

/// A measured field: the bench sets it.
const fn f(path: &'static str, fmt: Fmt, gate: Gate) -> Field {
    Field {
        path,
        fmt,
        gate,
        derive: None,
    }
}

impl Field {
    /// The same field, derived by [`Line::finish`] from earlier fields.
    const fn derived(self, rule: Derive) -> Field {
        Field {
            derive: Some(rule),
            ..self
        }
    }
}

/// One BENCH family: the table both the writer and the comparator read.
#[derive(Debug)]
pub struct Family {
    /// Family name: the `bench` member's default and `bench_compare`'s
    /// mode argument.
    pub name: &'static str,
    /// The member that identifies a line within a file.
    pub key: &'static str,
    /// The boolean field that carries the bench's own pass/fail verdict.
    verdict: Option<&'static str>,
    /// Every field, in written order.
    fields: &'static [Field],
}

/// A field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null` (an absent integer).
    Null,
    /// An integer; `i128` holds every `u64` digest exactly.
    Int(i128),
    /// A float.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
}

macro_rules! value_from {
    ($($t:ty: |$x:ident| $value:expr;)*) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Value {
                $value
            }
        }
    )*};
}

value_from! {
    u32: |n| Value::Int(n.into());
    u64: |n| Value::Int(n.into());
    i64: |n| Value::Int(n.into());
    usize: |n| Value::Int(n as i128);
    f64: |x| Value::Num(x);
    bool: |b| Value::Bool(b);
    &str: |s| Value::Str(s.into());
    String: |s| Value::Str(s);
    Option<usize>: |n| n.map_or(Value::Null, Value::from);
}

/// `bench_probe`: three probe engines on one design — the adaptive-i64
/// trail engine, the same trail machinery forced onto the i128
/// representation from the first pivot, and the legacy clone-per-probe
/// path. `agree` is the differential gate: all three verdict digests and
/// probe counts must match.
pub static PROBE: Family = Family {
    name: "probe",
    key: "design",
    verdict: Some("agree"),
    fields: &[
        f("bench", Str, Observed),
        f("design", Str, Hard),
        f("rate", Int, Hard),
        f("trail.probes", Int, Hard),
        f("trail.feasible", Int, Hard),
        f("trail.allocations", Int, Ceiling(ALLOC_SLACK as f64)),
        f("trail.alloc_bytes", Int, Observed),
        f("trail.wall_ms", Fixed(3), Observed),
        f("trail.verdict_digest", Int, Hard),
        f("wide.probes", Int, Hard),
        f("wide.feasible", Int, Hard),
        f("wide.allocations", Int, Observed),
        f("wide.alloc_bytes", Int, Observed),
        f("wide.wall_ms", Fixed(3), Observed),
        f("wide.verdict_digest", Int, Hard),
        f("clone.probes", Int, Hard),
        f("clone.feasible", Int, Hard),
        f("clone.allocations", Int, Observed),
        f("clone.alloc_bytes", Int, Observed),
        f("clone.wall_ms", Fixed(3), Observed),
        f("clone.verdict_digest", Int, Hard),
        f("agree", Bool, Hard).derived(Same(
            &["trail", "wide", "clone"],
            &["verdict_digest", "probes"],
        )),
        f("alloc_ratio", Fixed(2), Observed)
            .derived(PerUnit("clone.allocations", "trail.allocations")),
        f("speedup", Fixed(2), Floor).derived(Ratio("clone.wall_ms", "trail.wall_ms")),
        f("wide_ratio", Fixed(2), Observed).derived(Ratio("wide.wall_ms", "trail.wall_ms")),
    ],
};

/// `bench_connect`: the trail connection search against the
/// clone-per-step reference on one design. `agree` is the differential
/// gate: node counts, sequence digests and the connection's buses and
/// pins must all match. `speedup` is the reference's wall time over the
/// trail search's.
pub static CONNECT: Family = Family {
    name: "connect",
    key: "design",
    verdict: Some("agree"),
    fields: &[
        f("bench", Str, Observed),
        f("design", Str, Hard),
        f("rate", Int, Hard),
        f("trail.nodes", Int, Hard),
        f("trail.prunes", Int, Hard),
        f("trail.backtracks", Int, Hard),
        f("trail.sequence_digest", Int, Hard),
        f("trail.buses", Int, Hard),
        f("trail.pins", Int, Hard),
        f("trail.allocations", Int, Observed),
        f(
            "trail.allocs_per_node",
            Fixed(3),
            Ceiling(ALLOCS_PER_NODE_SLACK),
        )
        .derived(PerUnit("trail.allocations", "trail.nodes")),
        f("trail.wall_ms", Fixed(3), Observed),
        f("clone.nodes", Int, Hard),
        f("clone.prunes", Int, Hard),
        f("clone.backtracks", Int, Hard),
        f("clone.sequence_digest", Int, Hard),
        f("clone.buses", Int, Hard),
        f("clone.pins", Int, Hard),
        f("clone.allocations", Int, Observed),
        f("clone.allocs_per_node", Fixed(3), Observed)
            .derived(PerUnit("clone.allocations", "clone.nodes")),
        f("clone.wall_ms", Fixed(3), Observed),
        f("agree", Bool, Hard).derived(Same(
            &["trail", "clone"],
            &[
                "nodes",
                "prunes",
                "backtracks",
                "sequence_digest",
                "buses",
                "pins",
            ],
        )),
        f("speedup", Fixed(2), Floor).derived(Ratio("clone.wall_ms", "trail.wall_ms")),
    ],
};

/// `bench_fuzz`: a seeded fuzzing sweep. Every count is a function of
/// the seeds, so all of them gate hard; `agree` is the differential
/// gate (no flow or simulation divergence).
pub static FUZZ: Family = Family {
    name: "fuzz",
    key: "config",
    verdict: Some("agree"),
    fields: &[
        f("bench", Str, Observed),
        f("config", Str, Hard),
        f("seeds", Int, Hard),
        f("agreed", Int, Hard),
        f("disagreed", Int, Hard),
        f("any_feasible", Int, Hard),
        f("sim_checked", Int, Hard),
        f("sim_mismatched", Int, Hard),
        f("shrink.steps", Int, Hard),
        f("shrink.from_ops", Int, Hard),
        f("shrink.to_ops", Int, Hard),
        f("wall_ms", Fixed(3), Observed),
        f("designs_per_sec", Fixed(1), Observed).derived(PerSec("seeds", "wall_ms")),
        f("agree", Bool, Hard).derived(With(|l| {
            Value::Bool(l.num("disagreed") == 0.0 && l.num("sim_mismatched") == 0.0)
        })),
    ],
};

/// `bench_serve`: one load scenario against the daemon. `pass` is the
/// load gate: a nonzero exact-hit count, byte-identical responses
/// across worker counts, and warm-tier p50 at least
/// [`SERVE_SPEEDUP_FLOOR`]x below cold p50. The storm's hit/warm/cold
/// tallies depend on which racing near-repeat publishes first, so they
/// are observed only; `response_digest` is the deterministic field.
pub static SERVE: Family = Family {
    name: "serve",
    key: "config",
    verdict: Some("pass"),
    fields: &[
        f("bench", Str, Observed),
        f("config", Str, Hard),
        f("clients", Int, Hard),
        f("workers", Int, Hard),
        f("designs", Int, Hard),
        f("cold_requests", Int, Hard),
        f("storm_requests", Int, Hard),
        f("hits", Int, Observed),
        f("warm", Int, Observed),
        f("storm_cold", Int, Observed),
        f("response_digest", Int, Hard),
        f("workers_identical", Bool, Hard),
        f("hits_nonzero", Bool, Hard).derived(With(|l| Value::Bool(l.num("hits") > 0.0))),
        f("cold_p50_us", Fixed(1), Observed),
        f("cold_p99_us", Fixed(1), Observed),
        f("hit_p50_us", Fixed(1), Observed),
        f("hit_p99_us", Fixed(1), Observed),
        f("wall_ms", Fixed(3), Observed),
        f("requests_per_sec", Fixed(1), Observed).derived(PerSec("storm_requests", "wall_ms")),
        f("hit_speedup", Fixed(2), Floor).derived(PerUnit("cold_p50_us", "hit_p50_us")),
        f("pass", Bool, Hard).derived(With(|l| {
            Value::Bool(
                l.flag("hits_nonzero")
                    && l.flag("workers_identical")
                    && l.num("hit_speedup") >= SERVE_SPEEDUP_FLOOR,
            )
        })),
    ],
};

/// `bench_resynth`: one incremental-vs-cold resynthesis scenario.
/// `warm` is whether the incremental run avoided the cold rung; `pass`
/// is the gate: verifier agreement, a warm path, and a
/// cold-over-incremental speedup of at least [`RESYNTH_SPEEDUP_FLOOR`]
/// or the scenario's own floor ([`Line::require_speedup`]).
pub static RESYNTH: Family = Family {
    name: "resynth",
    key: "config",
    verdict: Some("pass"),
    fields: &[
        f("bench", Str, Observed),
        f("config", Str, Hard),
        f("design", Str, Hard),
        f("edit", Str, Hard),
        f("path", Str, Hard),
        f("dirty_ops", Int, Hard),
        f("dirty_transfers", Int, Hard),
        f("reused", Int, Hard),
        f("fresh", Int, Hard),
        f("incr_latency", Int, Hard),
        f("cold_latency", Int, Hard),
        f("verifier_ok", Bool, Hard),
        f("incr_wall_ms", Fixed(3), Observed),
        f("cold_wall_ms", Fixed(3), Observed),
        f("speedup", Fixed(2), Floor).derived(Ratio("cold_wall_ms", "incr_wall_ms")),
        f("warm", Bool, Hard).derived(With(|l| Value::Bool(*l.get("path") != Value::from("cold")))),
        f("pass", Bool, Hard).derived(With(|l| {
            let floor = l.speedup_floor.unwrap_or(RESYNTH_SPEEDUP_FLOOR);
            Value::Bool(l.flag("verifier_ok") && l.flag("warm") && l.num("speedup") >= floor)
        })),
    ],
};

/// `bench_explore`: a dominance-pruned design-space sweep against the
/// exhaustive sweep of the same lattice. `frontier_agree` is the
/// differential gate; `warm_start_hit_rate` is warm-start hits per
/// synthesized point of the pruned sweep. Every count is a function of
/// the lattice, so all of them gate hard; the speedup of two
/// multi-threaded sweeps is too noisy to gate.
pub static EXPLORE: Family = Family {
    name: "explore",
    key: "design",
    verdict: Some("frontier_agree"),
    fields: &[
        f("bench", Str, Observed),
        f("design", Str, Hard),
        f("flow", Str, Hard),
        f("pruned.points", Int, Hard),
        f("pruned.run", Int, Hard),
        f("pruned.pruned", Int, Hard),
        f("pruned.feasible", Int, Hard),
        f("pruned.frontier", Int, Hard),
        f("pruned.probe_seed_hits", Int, Hard),
        f("pruned.cert_seed_hits", Int, Hard),
        f("pruned.frontier_digest", Int, Hard),
        f("pruned.wall_ms", Fixed(3), Observed),
        f("exhaustive.points", Int, Hard),
        f("exhaustive.run", Int, Hard),
        f("exhaustive.pruned", Int, Hard),
        f("exhaustive.feasible", Int, Hard),
        f("exhaustive.frontier", Int, Hard),
        f("exhaustive.probe_seed_hits", Int, Hard),
        f("exhaustive.cert_seed_hits", Int, Hard),
        f("exhaustive.frontier_digest", Int, Hard),
        f("exhaustive.wall_ms", Fixed(3), Observed),
        f("frontier_agree", Bool, Hard).derived(Same(
            &["pruned", "exhaustive"],
            &["frontier_digest", "frontier"],
        )),
        f("warm_start_hit_rate", Fixed(3), Hard).derived(With(|l| {
            let hits = l.num("pruned.probe_seed_hits") + l.num("pruned.cert_seed_hits");
            Value::Num(hits / l.num("pruned.run").max(1.0))
        })),
        f("speedup", Fixed(2), Observed).derived(Ratio("exhaustive.wall_ms", "pruned.wall_ms")),
    ],
};

/// `search_stats`: the single-worker connection search against the
/// portfolio on one design, plus a probe sweep's exact-fallback and
/// batching counters. No baseline is committed (portfolio counts depend
/// on thread timing), so nothing gates; `bench` names the design.
pub static SEARCH_STATS: Family = Family {
    name: "search_stats",
    key: "bench",
    verdict: None,
    fields: &[
        f("bench", Str, Observed),
        f("senders", Int, Observed),
        f("before.ok", Bool, Observed),
        f("before.nodes", Int, Observed),
        f("before.nodes_per_sec", Fixed(0), Observed),
        f("before.epochs", Int, Observed),
        f("before.threads", Int, Observed),
        f("before.cache_hits", Int, Observed),
        f("before.prunes", Int, Observed),
        f("before.backtracks", Int, Observed),
        f("before.wall_ms", Fixed(3), Observed),
        f("before.winner", Int, Observed),
        f("after.ok", Bool, Observed),
        f("after.nodes", Int, Observed),
        f("after.nodes_per_sec", Fixed(0), Observed),
        f("after.epochs", Int, Observed),
        f("after.threads", Int, Observed),
        f("after.cache_hits", Int, Observed),
        f("after.prunes", Int, Observed),
        f("after.backtracks", Int, Observed),
        f("after.wall_ms", Fixed(3), Observed),
        f("after.winner", Int, Observed),
        f("probe.exact_fallbacks", Int, Observed),
        f("probe.batched", Int, Observed),
        f("probe.batch_checkpoints", Int, Observed),
        f("speedup", Fixed(2), Observed).derived(Ratio("before.wall_ms", "after.wall_ms")),
    ],
};

/// The families `bench_compare` gates, each with a committed
/// `BENCH_<name>.json` baseline.
pub static FAMILIES: [&Family; 6] = [&PROBE, &CONNECT, &FUZZ, &SERVE, &RESYNTH, &EXPLORE];

/// The gated family called `name`.
pub fn family(name: &str) -> Option<&'static Family> {
    FAMILIES.iter().copied().find(|f| f.name == name)
}

/// One BENCH line being written: [`Line::set`] the measured fields,
/// [`Line::finish`] to derive the rest, then print it (`Display`).
#[derive(Clone, Debug)]
pub struct Line {
    family: &'static Family,
    values: Vec<Option<Value>>,
    speedup_floor: Option<f64>,
}

impl Line {
    /// An empty line of `family`, with `bench` preset to the family name.
    pub fn new(family: &'static Family) -> Line {
        let mut line = Line {
            family,
            values: vec![None; family.fields.len()],
            speedup_floor: None,
        };
        line.set("bench", family.name);
        line
    }

    fn index(&self, path: &str) -> usize {
        let fields = self.family.fields;
        fields
            .iter()
            .position(|f| f.path == path)
            .unwrap_or_else(|| panic!("BENCH family {} has no field `{path}`", self.family.name))
    }

    /// Sets one measured field; panics when the family has no `path`.
    pub fn set(&mut self, path: &str, value: impl Into<Value>) -> &mut Line {
        let i = self.index(path);
        self.values[i] = Some(value.into());
        self
    }

    /// Replaces [`RESYNTH_SPEEDUP_FLOOR`] in a `resynth` line's `pass`
    /// verdict, for a scenario whose honest win is smaller than the
    /// headline's; other families ignore it.
    pub fn require_speedup(&mut self, floor: f64) -> &mut Line {
        self.speedup_floor = Some(floor);
        self
    }

    /// Computes the derived fields, in table order.
    pub fn finish(mut self) -> Line {
        for (i, field) in self.family.fields.iter().enumerate() {
            if let Some(derive) = field.derive {
                self.values[i] = Some(derive.value(&self));
            }
        }
        self
    }

    /// The value at `path`; panics when it does not exist or is unset.
    fn get(&self, path: &str) -> &Value {
        self.values[self.index(path)]
            .as_ref()
            .unwrap_or_else(|| panic!("BENCH field `{path}` is not set"))
    }

    /// The value at `path` as a number; panics when the field does not
    /// exist, is unset or is not a number.
    pub fn num(&self, path: &str) -> f64 {
        match self.get(path) {
            Value::Int(n) => *n as f64,
            Value::Num(x) => *x,
            other => panic!("BENCH field `{path}` is {other:?}, not a number"),
        }
    }

    /// The value at `path` as a boolean; panics when the field does not
    /// exist, is unset or is not a boolean.
    fn flag(&self, path: &str) -> bool {
        match self.get(path) {
            Value::Bool(b) => *b,
            other => panic!("BENCH field `{path}` is {other:?}, not a boolean"),
        }
    }

    /// The line's own verdict field (`agree`, `frontier_agree`, `pass`);
    /// `true` for a family without one.
    pub fn passed(&self) -> bool {
        self.family.verdict.is_none_or(|v| self.flag(v))
    }
}

impl Derive {
    fn value(self, l: &Line) -> Value {
        let (num, den) = match self {
            Derive::Ratio(num, den) | Derive::PerUnit(num, den) | Derive::PerSec(num, den) => {
                (l.num(num), l.num(den))
            }
            Derive::Same(sides, fields) => {
                return Value::Bool(fields.iter().all(|f| {
                    let value = |side: &str| l.get(&format!("{side}.{f}"));
                    sides.windows(2).all(|w| value(w[0]) == value(w[1]))
                }))
            }
            Derive::With(rule) => return rule(l),
        };
        Value::Num(match self {
            Derive::PerUnit(..) => num / den.max(1.0),
            Derive::PerSec(..) if den > 0.0 => num / (den / 1e3),
            Derive::Ratio(..) if den > 0.0 => num / den,
            _ => 0.0,
        })
    }
}

impl Field {
    fn write(&self, value: &Value, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.fmt, value) {
            (Int, Value::Int(n)) => write!(out, "{n}"),
            (Int, Value::Null) => out.write_str("null"),
            (Fixed(decimals), Value::Num(x)) => write!(out, "{x:.decimals$}"),
            (Bool, Value::Bool(b)) => write!(out, "{b}"),
            (Str, Value::Str(s)) => write!(out, "\"{}\"", json::escape(s)),
            (fmt, v) => panic!("BENCH field `{}`: {v:?} is not {fmt:?}", self.path),
        }
    }
}

/// Writes the line as one JSON object in table order; a dotted path
/// (`trail.probes`) writes a member of a nested object. Panics when a
/// field is unset (a derived one before [`Line::finish`]).
impl fmt::Display for Line {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut group = None;
        let mut sep = "{";
        for (field, value) in self.family.fields.iter().zip(&self.values) {
            let value = value
                .as_ref()
                .unwrap_or_else(|| panic!("BENCH field `{}` is not set", field.path));
            let (parent, leaf) = match field.path.split_once('.') {
                Some((parent, leaf)) => (Some(parent), leaf),
                None => (None, field.path),
            };
            if parent != group {
                if group.is_some() {
                    out.write_char('}')?;
                }
                if let Some(parent) = parent {
                    write!(out, "{sep}\"{parent}\":")?;
                    sep = "{";
                }
                group = parent;
            }
            write!(out, "{sep}\"{leaf}\":")?;
            field.write(value, out)?;
            sep = ",";
        }
        if group.is_some() {
            out.write_char('}')?;
        }
        out.write_char('}')
    }
}

/// Renders a scalar for keys and findings: numbers as their exact
/// source text, strings unquoted.
fn scalar_text(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(raw) => raw.clone(),
        Json::Str(s) => s.clone(),
        Json::Arr(_) => "<array>".into(),
        Json::Obj(_) => "<object>".into(),
    }
}

/// How a diverging field fails the gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Deterministic field changed: always a gate failure.
    Hard,
    /// Performance field regressed past its tolerance.
    Threshold,
}

/// One baseline-vs-fresh divergence.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which BENCH line (by its `design`/`config` key).
    pub line: String,
    /// Dotted path of the diverging field.
    pub field: String,
    /// Hard or threshold failure.
    pub severity: Severity,
    /// Human-readable explanation with both values.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Hard => "HARD",
            Severity::Threshold => "THRESHOLD",
        };
        write!(f, "[{sev}] {} {}: {}", self.line, self.field, self.detail)
    }
}

fn lookup<'a>(root: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(root, |node, part| node.get(part))
}

/// A parsed BENCH file: `(key, object)` per line, in file order.
type Lines = Vec<(String, Json)>;

/// Parses a BENCH file (one JSON object per line) into `(key, object)`
/// pairs, keyed by the given member (`design` or `config`).
fn parse_lines(text: &str, key: &str) -> Result<Lines, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let k = v
            .get(key)
            .map(scalar_text)
            .ok_or_else(|| format!("line {}: no `{key}` member", i + 1))?;
        out.push((k, v));
    }
    Ok(out)
}

/// Diffs a fresh BENCH file of `family` against the committed baseline.
///
/// Lines pair up by the family's key; a key missing from either side,
/// or repeated within one, is a hard finding. Each pair is then judged
/// field by field as the family's table says: every hard field first,
/// then the thresholds.
///
/// # Errors
///
/// A parse error on malformed input in either file.
pub fn compare(family: &Family, baseline: &str, fresh: &str) -> Result<Vec<Finding>, String> {
    Ok(family.diff(
        &parse_lines(baseline, family.key)?,
        &parse_lines(fresh, family.key)?,
    ))
}

impl Family {
    fn diff(&self, base: &Lines, fresh: &Lines) -> Vec<Finding> {
        let hard = |line: &str, field: &str, detail: String| Finding {
            line: line.into(),
            field: field.into(),
            severity: Severity::Hard,
            detail,
        };
        let mut out = Vec::new();
        for (file, lines) in [("baseline", base), ("fresh run", fresh)] {
            for (i, (k, _)) in lines.iter().enumerate() {
                if lines[..i].iter().any(|(earlier, _)| earlier == k) {
                    let detail = format!("line key repeated in the {file}");
                    out.push(hard(k, self.key, detail));
                }
            }
        }
        for (k, _) in base {
            if first(fresh, k).is_none() {
                let detail = "baseline line missing from fresh run".into();
                out.push(hard(k, self.key, detail));
            }
        }
        for (k, _) in fresh {
            if first(base, k).is_none() {
                let detail = "fresh line not present in baseline (re-record the baseline)".into();
                out.push(hard(k, self.key, detail));
            }
        }
        let (hard_fields, thresholds): (Vec<&Field>, Vec<&Field>) = self
            .fields
            .iter()
            .filter(|field| field.gate != Observed)
            .partition(|field| field.gate == Hard);
        for (i, (k, b)) in base.iter().enumerate() {
            let repeated = base[..i].iter().any(|(earlier, _)| earlier == k);
            let Some(f) = first(fresh, k).filter(|_| !repeated) else {
                continue;
            };
            for field in hard_fields.iter().chain(&thresholds) {
                out.extend(field.judge(k, b, f));
            }
        }
        out
    }

    /// Proves the gate can fail before it is trusted to pass. A sample
    /// line (every measured field set, the rest derived) must compare
    /// clean against itself; when the family has a [`Gate::Floor`]
    /// field, a copy with every floor-gated ratio halved — what a 2x
    /// slowdown of the faster side does — must trip it. Returns the
    /// tripped findings.
    ///
    /// # Errors
    ///
    /// A description of the misbehaving gate.
    pub fn self_test(&'static self) -> Result<Vec<Finding>, String> {
        let mut line = Line::new(self);
        for (i, field) in self.fields.iter().enumerate() {
            if field.derive.is_some() || line.values[i].is_some() {
                continue;
            }
            line.values[i] = Some(match field.fmt {
                Int => Value::Int(1),
                Fixed(_) => Value::Num(1.0),
                Bool => Value::Bool(true),
                Str => Value::from(self.name),
            });
        }
        let base = parse_lines(&line.finish().to_string(), self.key)?;
        let clean = self.diff(&base, &base);
        if !clean.is_empty() {
            return Err(format!("identical {} runs produced findings", self.name));
        }
        let floors: Vec<&Field> = self.fields.iter().filter(|f| f.gate == Floor).collect();
        if floors.is_empty() {
            return Ok(Vec::new());
        }
        let mut slowed = base.clone();
        for (_, v) in &mut slowed {
            for field in &floors {
                let node = lookup_mut(v, field.path).ok_or("sample line lacks a floor field")?;
                let halved = node.as_f64().ok_or("floor field is not a number")? / 2.0;
                *node = Json::Num(format!("{halved:.2}"));
            }
        }
        let tripped = self.diff(&base, &slowed);
        if tripped.is_empty() {
            return Err(format!("2x {} slowdown did not trip the gate", self.name));
        }
        Ok(tripped)
    }
}

/// The first line keyed `k`.
fn first<'a>(lines: &'a Lines, k: &str) -> Option<&'a Json> {
    lines.iter().find(|(lk, _)| lk == k).map(|(_, v)| v)
}

fn lookup_mut<'a>(root: &'a mut Json, path: &str) -> Option<&'a mut Json> {
    path.split('.').try_fold(root, |node, part| match node {
        Json::Obj(members) => members.iter_mut().find(|(k, _)| k == part).map(|(_, v)| v),
        _ => None,
    })
}

impl Field {
    /// This field's finding on one baseline/fresh pair, if any.
    fn judge(&self, line: &str, base: &Json, fresh: &Json) -> Option<Finding> {
        let finding = |severity, detail| {
            Some(Finding {
                line: line.into(),
                field: self.path.into(),
                severity,
                detail,
            })
        };
        let (b, f) = (lookup(base, self.path), lookup(fresh, self.path));
        if self.gate == Hard {
            return match (b, f) {
                (Some(b), Some(f)) if b == f => None,
                (Some(b), Some(f)) => finding(
                    Severity::Hard,
                    format!("baseline {} != fresh {}", scalar_text(b), scalar_text(f)),
                ),
                _ => finding(
                    Severity::Hard,
                    format!(
                        "field present in baseline: {}, in fresh: {}",
                        b.is_some(),
                        f.is_some()
                    ),
                ),
            };
        }
        let (Some(b), Some(f)) = (b.and_then(Json::as_f64), f.and_then(Json::as_f64)) else {
            return finding(Severity::Hard, "field missing or non-numeric".into());
        };
        match self.gate {
            // A tiny baseline means the measurement is all noise; skip.
            Floor if b > 0.01 && f < b * SPEEDUP_RATIO_FLOOR => finding(
                Severity::Threshold,
                format!(
                    "fresh {f:.2} is below {:.2} ({}x baseline {b:.2})",
                    b * SPEEDUP_RATIO_FLOOR,
                    SPEEDUP_RATIO_FLOOR
                ),
            ),
            Ceiling(slack) if f > b + slack => finding(
                Severity::Threshold,
                format!("fresh {f} allocations exceed baseline {b} + slack {slack}"),
            ),
            _ => None,
        }
    }
}

/// Renders findings as the `bench_compare` report; empty input renders
/// the all-clear line.
pub fn render_findings(findings: &[Finding]) -> String {
    if findings.is_empty() {
        return "bench_compare: OK, fresh run matches the baseline".into();
    }
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "bench_compare: {f}");
    }
    let _ = write!(
        out,
        "bench_compare: {} regression(s) against the baseline",
        findings.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROBE_BASE: &str = "{\"bench\":\"probe\",\"design\":\"d\",\"rate\":2,\
        \"trail\":{\"probes\":64,\"feasible\":48,\"allocations\":0,\
        \"alloc_bytes\":0,\"wall_ms\":5.000,\"verdict_digest\":12501005524302218597},\
        \"wide\":{\"probes\":64,\"feasible\":48,\"allocations\":0,\
        \"alloc_bytes\":0,\"wall_ms\":9.000,\"verdict_digest\":12501005524302218597},\
        \"clone\":{\"probes\":64,\"feasible\":48,\"allocations\":600,\
        \"alloc_bytes\":819200,\"wall_ms\":40.000,\"verdict_digest\":12501005524302218597},\
        \"agree\":true,\"alloc_ratio\":600.00,\"speedup\":8.00,\"wide_ratio\":1.80}";

    #[test]
    fn identical_probe_lines_produce_no_findings() {
        let findings = compare(&PROBE, PROBE_BASE, PROBE_BASE).unwrap();
        assert!(findings.is_empty(), "{findings:?}");
        assert!(render_findings(&findings).contains("OK"));
    }

    #[test]
    fn digest_beyond_i64_compares_exactly() {
        // 12501005524302218597 and 12501005524302218598 collide as f64;
        // the raw-text comparison must still separate them.
        let fresh = PROBE_BASE.replace("12501005524302218597", "12501005524302218598");
        let findings = compare(&PROBE, PROBE_BASE, &fresh).unwrap();
        assert!(
            findings
                .iter()
                .any(|f| f.field.ends_with("verdict_digest") && f.severity == Severity::Hard),
            "{findings:?}"
        );
    }

    #[test]
    fn halved_speedup_trips_the_threshold() {
        // A 2x wall-time slowdown of the trail engine halves the
        // within-run speedup: 8.00 -> 4.00, below the 0.6 floor.
        let fresh = PROBE_BASE.replace("\"speedup\":8.00", "\"speedup\":4.00");
        let findings = compare(&PROBE, PROBE_BASE, &fresh).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, Severity::Threshold);
        assert_eq!(findings[0].field, "speedup");
    }

    #[test]
    fn small_speedup_noise_passes() {
        let fresh = PROBE_BASE.replace("\"speedup\":8.00", "\"speedup\":6.50");
        assert!(compare(&PROBE, PROBE_BASE, &fresh).unwrap().is_empty());
    }

    #[test]
    fn allocation_growth_trips_the_threshold() {
        let fresh = PROBE_BASE.replace(
            "\"allocations\":0,\"alloc_bytes\":0",
            "\"allocations\":500,\"alloc_bytes\":64000",
        );
        let findings = compare(&PROBE, PROBE_BASE, &fresh).unwrap();
        assert!(
            findings
                .iter()
                .any(|f| f.field == "trail.allocations" && f.severity == Severity::Threshold),
            "{findings:?}"
        );
    }

    #[test]
    fn missing_design_line_is_hard() {
        let findings = compare(&PROBE, PROBE_BASE, "").unwrap();
        assert!(findings.iter().any(|f| f.severity == Severity::Hard));
    }

    const CONNECT_BASE: &str = "{\"bench\":\"connect\",\"design\":\"mesh6\",\"rate\":4,\
        \"trail\":{\"nodes\":1000,\"prunes\":20,\"backtracks\":990,\
        \"sequence_digest\":12501005524302218597,\"buses\":9,\"pins\":180,\
        \"allocations\":100,\"allocs_per_node\":0.100,\"wall_ms\":10.000},\
        \"clone\":{\"nodes\":1000,\"prunes\":20,\"backtracks\":990,\
        \"sequence_digest\":12501005524302218597,\"buses\":9,\"pins\":180,\
        \"allocations\":20000,\"allocs_per_node\":20.000,\"wall_ms\":45.000},\
        \"agree\":true,\"speedup\":4.50}";

    #[test]
    fn identical_connect_lines_produce_no_findings() {
        assert!(compare(&CONNECT, CONNECT_BASE, CONNECT_BASE)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn connect_node_sequence_change_is_hard() {
        let fresh = CONNECT_BASE.replacen("12501005524302218597", "12501005524302218598", 1);
        let findings = compare(&CONNECT, CONNECT_BASE, &fresh).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].field, "trail.sequence_digest");
        assert_eq!(findings[0].severity, Severity::Hard);
        let fresh = CONNECT_BASE.replace("\"backtracks\":990", "\"backtracks\":991");
        let findings = compare(&CONNECT, CONNECT_BASE, &fresh).unwrap();
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.severity == Severity::Hard));
    }

    #[test]
    fn connect_wall_time_is_ignored_but_regressions_trip() {
        let fresh = CONNECT_BASE
            .replace("\"wall_ms\":10.000", "\"wall_ms\":30.000")
            .replace("\"wall_ms\":45.000", "\"wall_ms\":120.000")
            .replace("\"speedup\":4.50", "\"speedup\":4.00");
        assert!(compare(&CONNECT, CONNECT_BASE, &fresh).unwrap().is_empty());
        let slowed = CONNECT_BASE.replace("\"speedup\":4.50", "\"speedup\":2.25");
        let findings = compare(&CONNECT, CONNECT_BASE, &slowed).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, Severity::Threshold);
        assert_eq!(findings[0].field, "speedup");
        let churn = CONNECT_BASE.replace(
            "\"allocations\":100,\"allocs_per_node\":0.100",
            "\"allocations\":1000,\"allocs_per_node\":1.000",
        );
        let findings = compare(&CONNECT, CONNECT_BASE, &churn).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, Severity::Threshold);
        assert_eq!(findings[0].field, "trail.allocs_per_node");
    }

    const FUZZ_BASE: &str = "{\"bench\":\"fuzz\",\"config\":\"default\",\"seeds\":200,\
        \"agreed\":200,\"disagreed\":0,\"any_feasible\":30,\
        \"sim_checked\":50,\"sim_mismatched\":0,\
        \"shrink\":{\"steps\":104,\"from_ops\":8,\"to_ops\":4},\
        \"wall_ms\":4000.000,\"designs_per_sec\":50.0,\"agree\":true}";

    #[test]
    fn fuzz_agreement_change_is_hard() {
        let fresh = FUZZ_BASE
            .replace("\"disagreed\":0", "\"disagreed\":1")
            .replace("\"agreed\":200", "\"agreed\":199")
            .replace("\"agree\":true", "\"agree\":false");
        let findings = compare(&FUZZ, FUZZ_BASE, &fresh).unwrap();
        assert!(findings.iter().all(|f| f.severity == Severity::Hard));
        assert_eq!(findings.len(), 3, "{findings:?}");
    }

    #[test]
    fn fuzz_wall_time_is_ignored() {
        let fresh = FUZZ_BASE
            .replace("\"wall_ms\":4000.000", "\"wall_ms\":9999.000")
            .replace("\"designs_per_sec\":50.0", "\"designs_per_sec\":2.0");
        assert!(compare(&FUZZ, FUZZ_BASE, &fresh).unwrap().is_empty());
    }

    const SERVE_BASE: &str = "{\"bench\":\"serve\",\"config\":\"clients_8\",\"clients\":8,\
        \"workers\":4,\"designs\":5,\"cold_requests\":5,\"storm_requests\":64,\
        \"hits\":50,\"warm\":14,\"storm_cold\":0,\
        \"response_digest\":12501005524302218597,\"workers_identical\":true,\
        \"hits_nonzero\":true,\"cold_p50_us\":650000.0,\"cold_p99_us\":1300000.0,\
        \"hit_p50_us\":400.0,\"hit_p99_us\":47000.0,\"wall_ms\":11139.507,\
        \"requests_per_sec\":5.7,\"hit_speedup\":16.16,\"pass\":true}";

    #[test]
    fn identical_serve_lines_produce_no_findings() {
        assert!(compare(&SERVE, SERVE_BASE, SERVE_BASE).unwrap().is_empty());
    }

    #[test]
    fn serve_transcript_digest_change_is_hard() {
        let fresh = SERVE_BASE.replace("12501005524302218597", "12501005524302218598");
        let findings = compare(&SERVE, SERVE_BASE, &fresh).unwrap();
        assert!(
            findings
                .iter()
                .any(|f| f.field == "response_digest" && f.severity == Severity::Hard),
            "{findings:?}"
        );
    }

    #[test]
    fn serve_storm_tallies_and_latencies_are_ignored() {
        // Scheduling-dependent tallies and machine-dependent latencies
        // drift freely; only the deterministic surface gates.
        let fresh = SERVE_BASE
            .replace("\"hits\":50,\"warm\":14", "\"hits\":60,\"warm\":4")
            .replace("\"hit_p50_us\":400.0", "\"hit_p50_us\":900.0")
            .replace("\"wall_ms\":11139.507", "\"wall_ms\":99999.000");
        assert!(compare(&SERVE, SERVE_BASE, &fresh).unwrap().is_empty());
    }

    #[test]
    fn serve_collapsed_hit_speedup_trips_the_threshold() {
        let fresh = SERVE_BASE.replace("\"hit_speedup\":16.16", "\"hit_speedup\":6.00");
        let findings = compare(&SERVE, SERVE_BASE, &fresh).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, Severity::Threshold);
        assert_eq!(findings[0].field, "hit_speedup");
    }

    #[test]
    fn serve_lost_worker_identity_is_hard() {
        let fresh = SERVE_BASE
            .replace("\"workers_identical\":true", "\"workers_identical\":false")
            .replace("\"pass\":true", "\"pass\":false");
        let findings = compare(&SERVE, SERVE_BASE, &fresh).unwrap();
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.severity == Severity::Hard));
    }

    const RESYNTH_BASE: &str = "{\"bench\":\"resynth\",\"config\":\"elliptic_local_width\",\
        \"design\":\"elliptic\",\"edit\":\"width:a1=8\",\"path\":\"identical\",\
        \"dirty_ops\":1,\"dirty_transfers\":0,\"reused\":0,\"fresh\":0,\
        \"incr_latency\":30,\"cold_latency\":30,\"verifier_ok\":true,\
        \"incr_wall_ms\":2.000,\"cold_wall_ms\":40.000,\"speedup\":20.00,\
        \"warm\":true,\"pass\":true}";

    #[test]
    fn identical_resynth_lines_produce_no_findings() {
        assert!(compare(&RESYNTH, RESYNTH_BASE, RESYNTH_BASE)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn resynth_path_or_latency_change_is_hard() {
        let fresh = RESYNTH_BASE.replace("\"path\":\"identical\"", "\"path\":\"patched\"");
        let findings = compare(&RESYNTH, RESYNTH_BASE, &fresh).unwrap();
        assert!(
            findings
                .iter()
                .any(|f| f.field == "path" && f.severity == Severity::Hard),
            "{findings:?}"
        );
        let fresh = RESYNTH_BASE.replace("\"incr_latency\":30", "\"incr_latency\":32");
        let findings = compare(&RESYNTH, RESYNTH_BASE, &fresh).unwrap();
        assert!(
            findings
                .iter()
                .any(|f| f.field == "incr_latency" && f.severity == Severity::Hard),
            "{findings:?}"
        );
    }

    #[test]
    fn resynth_wall_time_is_ignored_but_speedup_collapse_trips() {
        let fresh = RESYNTH_BASE
            .replace("\"incr_wall_ms\":2.000", "\"incr_wall_ms\":9.000")
            .replace("\"cold_wall_ms\":40.000", "\"cold_wall_ms\":180.000");
        assert!(compare(&RESYNTH, RESYNTH_BASE, &fresh).unwrap().is_empty());
        let slowed = RESYNTH_BASE.replace("\"speedup\":20.00", "\"speedup\":6.00");
        let findings = compare(&RESYNTH, RESYNTH_BASE, &slowed).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, Severity::Threshold);
        assert_eq!(findings[0].field, "speedup");
    }

    #[test]
    fn repeated_key_is_hard() {
        // A second fresh mesh6 line with regressed node counts must not
        // hide behind the first, which matches the baseline.
        let regressed = CONNECT_BASE.replace("\"backtracks\":990", "\"backtracks\":991");
        let doubled = format!("{CONNECT_BASE}\n{regressed}");
        for (baseline, fresh) in [(CONNECT_BASE, doubled.as_str()), (&doubled, CONNECT_BASE)] {
            let findings = compare(&CONNECT, baseline, fresh).unwrap();
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert_eq!(findings[0].field, "design");
            assert_eq!(findings[0].severity, Severity::Hard);
            assert!(findings[0].detail.contains("repeated"), "{findings:?}");
        }
    }

    #[test]
    fn every_family_self_tests() {
        for family in FAMILIES.iter().copied().chain([&SEARCH_STATS]) {
            let tripped = family.self_test().unwrap();
            let floors = family.fields.iter().filter(|f| f.gate == Floor).count();
            assert_eq!(tripped.len(), floors, "{}: {tripped:?}", family.name);
            assert!(tripped.iter().all(|f| f.severity == Severity::Threshold));
        }
    }

    /// The field lists the per-family comparators carried before the
    /// table existed, written out as the reference: hard paths,
    /// floor-gated paths and ceiling-gated `(path, slack)` pairs. Every
    /// other field is observed.
    struct Reference {
        family: &'static Family,
        baseline: &'static str,
        hard: &'static [&'static str],
        floor: &'static [&'static str],
        ceiling: &'static [(&'static str, f64)],
    }

    const REFERENCE: [Reference; 6] = [
        Reference {
            family: &PROBE,
            baseline: include_str!("../../../BENCH_probe.json"),
            hard: &[
                "rate",
                "trail.probes",
                "trail.feasible",
                "trail.verdict_digest",
                "wide.probes",
                "wide.feasible",
                "wide.verdict_digest",
                "clone.probes",
                "clone.feasible",
                "clone.verdict_digest",
                "agree",
            ],
            floor: &["speedup"],
            ceiling: &[("trail.allocations", 16.0)],
        },
        Reference {
            family: &CONNECT,
            baseline: include_str!("../../../BENCH_connect.json"),
            hard: &[
                "rate",
                "trail.nodes",
                "trail.prunes",
                "trail.backtracks",
                "trail.sequence_digest",
                "trail.buses",
                "trail.pins",
                "clone.nodes",
                "clone.prunes",
                "clone.backtracks",
                "clone.sequence_digest",
                "clone.buses",
                "clone.pins",
                "agree",
            ],
            floor: &["speedup"],
            ceiling: &[("trail.allocs_per_node", 0.25)],
        },
        Reference {
            family: &FUZZ,
            baseline: include_str!("../../../BENCH_fuzz.json"),
            hard: &[
                "seeds",
                "agreed",
                "disagreed",
                "any_feasible",
                "sim_checked",
                "sim_mismatched",
                "shrink.steps",
                "shrink.from_ops",
                "shrink.to_ops",
                "agree",
            ],
            floor: &[],
            ceiling: &[],
        },
        Reference {
            family: &SERVE,
            baseline: include_str!("../../../BENCH_serve.json"),
            hard: &[
                "clients",
                "workers",
                "designs",
                "cold_requests",
                "storm_requests",
                "response_digest",
                "workers_identical",
                "hits_nonzero",
                "pass",
            ],
            floor: &["hit_speedup"],
            ceiling: &[],
        },
        Reference {
            family: &RESYNTH,
            baseline: include_str!("../../../BENCH_resynth.json"),
            hard: &[
                "design",
                "edit",
                "path",
                "dirty_ops",
                "dirty_transfers",
                "reused",
                "fresh",
                "incr_latency",
                "cold_latency",
                "verifier_ok",
                "warm",
                "pass",
            ],
            floor: &["speedup"],
            ceiling: &[],
        },
        // New with the table: every count of both sweeps, the frontier
        // verdict and the hit rate those counts determine.
        Reference {
            family: &EXPLORE,
            baseline: include_str!("../../../BENCH_explore.json"),
            hard: &[
                "flow",
                "pruned.points",
                "pruned.run",
                "pruned.pruned",
                "pruned.feasible",
                "pruned.frontier",
                "pruned.probe_seed_hits",
                "pruned.cert_seed_hits",
                "pruned.frontier_digest",
                "exhaustive.points",
                "exhaustive.run",
                "exhaustive.pruned",
                "exhaustive.feasible",
                "exhaustive.frontier",
                "exhaustive.probe_seed_hits",
                "exhaustive.cert_seed_hits",
                "exhaustive.frontier_digest",
                "frontier_agree",
                "warm_start_hit_rate",
            ],
            floor: &[],
            ceiling: &[],
        },
    ];

    type Key = (String, String, Severity);

    impl Reference {
        /// The reference verdict on one baseline/fresh pair.
        fn judge(&self, line: &str, base: &Json, fresh: &Json) -> Vec<Key> {
            let mut out = Vec::new();
            let mut push = |path: &str, sev| out.push((line.to_string(), path.to_string(), sev));
            for path in self.hard {
                match (lookup(base, path), lookup(fresh, path)) {
                    (Some(b), Some(f)) if b == f => {}
                    _ => push(path, Severity::Hard),
                }
            }
            let num = |v: &Json, path| lookup(v, path).and_then(Json::as_f64);
            for path in self.floor {
                match (num(base, path), num(fresh, path)) {
                    (Some(b), Some(f)) if b > 0.01 && f < b * 0.6 => {
                        push(path, Severity::Threshold)
                    }
                    (Some(_), Some(_)) => {}
                    _ => push(path, Severity::Hard),
                }
            }
            for &(path, slack) in self.ceiling {
                match (num(base, path), num(fresh, path)) {
                    (Some(b), Some(f)) if f > b + slack => push(path, Severity::Threshold),
                    (Some(_), Some(_)) => {}
                    _ => push(path, Severity::Hard),
                }
            }
            out
        }

        /// Replacement values for one field: a change the reference
        /// gates on (or, for an observed field, an arbitrary one), the
        /// threshold's edges on both sides, and a change of type.
        fn variants(&self, path: &str, value: &Json) -> Vec<Json> {
            let changed = match value {
                Json::Num(raw) if self.hard.contains(&path) => Json::Num(format!("{raw}7")),
                Json::Num(_) => Json::Num("987654.321".into()),
                Json::Bool(b) => Json::Bool(!b),
                Json::Str(s) => Json::Str(format!("{s}x")),
                other => other.clone(),
            };
            let mut out = vec![changed, Json::Str("x".into())];
            let b = value.as_f64().unwrap_or(0.0);
            let edges = if self.floor.contains(&path) {
                vec![b * 0.6 * 0.99, b * 0.6 * 1.01]
            } else if let Some(&(_, slack)) = self.ceiling.iter().find(|(p, _)| *p == path) {
                vec![b + slack + 0.01, b + slack - 0.01]
            } else {
                Vec::new()
            };
            out.extend(edges.into_iter().map(|x| Json::Num(format!("{x:.6}"))));
            out
        }
    }

    fn leaves(v: &Json, prefix: &str, out: &mut Vec<(String, Json)>) {
        let Json::Obj(members) = v else {
            out.push((prefix.to_string(), v.clone()));
            return;
        };
        for (k, child) in members {
            let path = match prefix {
                "" => k.clone(),
                _ => format!("{prefix}.{k}"),
            };
            leaves(child, &path, out);
        }
    }

    fn remove(root: &mut Json, path: &str) {
        let (parent, leaf) = path.rsplit_once('.').map_or(("", path), |(p, l)| (p, l));
        let node = if parent.is_empty() {
            Some(root)
        } else {
            lookup_mut(root, parent)
        };
        if let Some(Json::Obj(members)) = node {
            members.retain(|(k, _)| k != leaf);
        }
    }

    /// Differential oracle: every field of every committed baseline line
    /// is perturbed in turn, and the table-driven comparator must report
    /// exactly the `(line, field, severity)` findings the reference
    /// lists give.
    #[test]
    fn table_gates_match_the_reference_field_lists() {
        let mut checked = 0;
        for r in &REFERENCE {
            let family = r.family;
            let base = parse_lines(r.baseline, family.key).unwrap();
            assert!(!base.is_empty(), "{}: empty baseline", family.name);
            assert!(family.diff(&base, &base).is_empty());
            for (i, (k, line)) in base.iter().enumerate() {
                let mut fields = Vec::new();
                leaves(line, "", &mut fields);
                for (path, value) in fields {
                    let mut perturbed: Vec<Json> = r
                        .variants(&path, &value)
                        .into_iter()
                        .map(|new| {
                            let mut v = line.clone();
                            *lookup_mut(&mut v, &path).unwrap() = new;
                            v
                        })
                        .collect();
                    if path != family.key {
                        let mut v = line.clone();
                        remove(&mut v, &path);
                        perturbed.push(v);
                    }
                    for v in perturbed {
                        let fresh_key = scalar_text(v.get(family.key).unwrap());
                        let mut fresh = base.clone();
                        fresh[i] = (fresh_key.clone(), v.clone());
                        let mut got: Vec<Key> = family
                            .diff(&base, &fresh)
                            .into_iter()
                            .map(|f| (f.line, f.field, f.severity))
                            .collect();
                        let mut want = if fresh_key == *k {
                            r.judge(k, line, &v)
                        } else {
                            let key = family.key.to_string();
                            vec![
                                (k.clone(), key.clone(), Severity::Hard),
                                (fresh_key, key, Severity::Hard),
                            ]
                        };
                        got.sort();
                        want.sort();
                        assert_eq!(got, want, "{} line {k}: {path}", family.name);
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000, "{checked} perturbations");
    }

    #[test]
    fn parser_round_trips_the_committed_baseline_shape() {
        let v = json::parse(PROBE_BASE).unwrap();
        assert_eq!(
            v.get("trail").unwrap().get("verdict_digest"),
            Some(&Json::Num("12501005524302218597".into()))
        );
        assert_eq!(v.get("agree"), Some(&Json::Bool(true)));
        assert_eq!(v.get("design").map(scalar_text), Some("d".to_string()));
    }

    #[test]
    fn parser_rejects_trailing_garbage_and_bad_numbers() {
        assert!(json::parse("{\"a\":1} x").is_err());
        assert!(json::parse("{\"a\":1.2.3}").is_err());
        assert!(json::parse("{\"a\":}").is_err());
        assert!(json::parse("[1,2").is_err());
    }
}
