//! # mcs-bench
//!
//! The experiment harness: one function per table/figure family of the
//! paper's evaluation (see `DESIGN.md`'s experiment index). The `tables`
//! binary prints them; the Criterion benches measure the synthesis run
//! time of the same experiments.
//!
//! The `bench_*` and `search_stats` binaries print BENCH lines. Every
//! family's fields — JSON path, number format and regression gate — are
//! declared once, in [`compare`]; the binaries fill a [`Line`] from that
//! table and take their exit verdict from it, and `bench_compare` gates a
//! fresh run against the committed `BENCH_*.json` baseline with
//! [`compare::compare`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
mod counting_alloc;

pub use compare::{Line, RESYNTH_SPEEDUP_FLOOR, SERVE_SPEEDUP_FLOOR};
pub use counting_alloc::CountingAlloc;

use std::fmt::Write as _;

use mcs_cdfg::{designs, timing, PartitionId, PortMode};
use mcs_conditional::{conditional_sharing_sets, CondShareConfig};
use mcs_connect::{Bus, BusAssignment, Interconnect, SubRange};
use mcs_sched::{list_schedule, AllocationWheel, BusPolicy, ListConfig};
use multichip_hls::flows::{
    connect_first_flow, schedule_first_flow, simple_flow, ConnectFirstOptions, SynthesisResult,
};
use multichip_hls::report::{
    render_bus_allocation, render_bus_assignment, render_interconnect, render_schedule, Table,
};

/// All experiment ids, in presentation order.
pub const EXPERIMENTS: &[&str] = &[
    "e3_1",
    "e4_uni",
    "e4_uni_detail",
    "e4_bi",
    "e4_bi_detail",
    "e4_ewf_uni",
    "e4_ewf_bi",
    "e5_ar",
    "e5_ar_ch4",
    "e5_ewf",
    "e5_ewf_ch4",
    "e6_detail",
    "e6_compare",
    "e7_recursive",
    "e7_conditional",
    "e7_wheel",
    "e7_tdm",
];

/// Runs one experiment by id and returns its report.
///
/// # Panics
///
/// Panics on an unknown experiment id.
pub fn run_experiment(id: &str) -> String {
    match id {
        "e3_1" => e3_1(),
        "e4_uni" => e4_summary(PortMode::Unidirectional),
        "e4_uni_detail" => e4_detail(PortMode::Unidirectional),
        "e4_bi" => e4_summary(PortMode::Bidirectional),
        "e4_bi_detail" => e4_detail(PortMode::Bidirectional),
        "e4_ewf_uni" => e4_ewf(PortMode::Unidirectional),
        "e4_ewf_bi" => e4_ewf(PortMode::Bidirectional),
        "e5_ar" => e5_ar(),
        "e5_ar_ch4" => e5_ar_ch4(),
        "e5_ewf" => e5_ewf(),
        "e5_ewf_ch4" => e5_ewf_ch4(),
        "e6_detail" => e6_detail(),
        "e6_compare" => e6_compare(),
        "e7_recursive" => e7_recursive(),
        "e7_conditional" => e7_conditional(),
        "e7_wheel" => e7_wheel(),
        "e7_tdm" => e7_tdm(),
        other => panic!("unknown experiment id {other}; see EXPERIMENTS"),
    }
}

fn real_pins(r: &SynthesisResult) -> u32 {
    r.pins_used[1..].iter().sum()
}

/// E3.1 — Figures 3.6/3.7: the simple-partition AR filter at L = 2.
pub fn e3_1() -> String {
    let d = designs::ar_filter::simple();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E3.1 (Figures 3.6/3.7): simple-partition AR filter, L = 2"
    );
    match simple_flow(d.cdfg(), 2) {
        Ok(r) => {
            let _ = writeln!(
                out,
                "pins used per partition: {:?}  pipe length: {}\n",
                &r.pins_used[1..],
                r.pipe_length
            );
            let _ = writeln!(out, "schedule (Figure 3.6 analogue):");
            let _ = writeln!(out, "{}", render_schedule(d.cdfg(), &r.schedule));
            let _ = writeln!(out, "interchip connection (Figure 3.7 analogue):");
            let _ = writeln!(out, "{}", render_interconnect(d.cdfg(), &r.interconnect));
        }
        Err(e) => {
            let _ = writeln!(out, "FAILED: {e}");
        }
    }
    out
}

fn ar_flow(rate: u32, mode: PortMode, reassign: bool, sharing: bool) -> Option<SynthesisResult> {
    let d = designs::ar_filter::general(rate, mode);
    let mut opts = ConnectFirstOptions::new(rate);
    opts.mode = mode;
    opts.reassign = reassign;
    opts.sharing = sharing;
    connect_first_flow(d.cdfg(), &opts).ok()
}

/// E4.1/E4.3 — Tables 4.2 and 4.10: AR filter pins and control steps with
/// and without bus reassignment.
pub fn e4_summary(mode: PortMode) -> String {
    let mut t = Table::new([
        "L",
        "P0",
        "P1",
        "P2",
        "P3",
        "steps w/ reassign",
        "steps w/o reassign",
    ]);
    for rate in [3u32, 4, 5] {
        let dynamic = ar_flow(rate, mode, true, false);
        let fixed = ar_flow(rate, mode, false, false);
        let cell = |r: &Option<SynthesisResult>, f: &dyn Fn(&SynthesisResult) -> String| {
            r.as_ref().map(f).unwrap_or_else(|| "-".into())
        };
        t.row([
            rate.to_string(),
            cell(&dynamic, &|r| r.pins_used[1].to_string()),
            cell(&dynamic, &|r| r.pins_used[2].to_string()),
            cell(&dynamic, &|r| r.pins_used[3].to_string()),
            cell(&dynamic, &|r| r.pins_used[4].to_string()),
            cell(&dynamic, &|r| r.pipe_length.to_string()),
            cell(&fixed, &|r| r.pipe_length.to_string()),
        ]);
    }
    format!("E4 summary ({mode:?}; Tables 4.2/4.10 analogue): AR filter\n{t}")
}

/// E4.2/E4.4 — Tables 4.3-4.8 and 4.11-4.13: bus assignments (initial vs
/// final) and per-step bus allocation.
pub fn e4_detail(mode: PortMode) -> String {
    let mut out = String::new();
    for rate in [3u32, 4, 5] {
        let d = designs::ar_filter::general(rate, mode);
        let Some(r) = ar_flow(rate, mode, true, false) else {
            let _ = writeln!(out, "L={rate}: flow failed");
            continue;
        };
        let _ = writeln!(
            out,
            "== {mode:?} L = {rate}: bus assignment (initial vs final) =="
        );
        let _ = writeln!(
            out,
            "{}",
            render_bus_assignment(d.cdfg(), &r.interconnect, &r.placements)
        );
        let _ = writeln!(
            out,
            "== {mode:?} L = {rate}: bus allocation by step group =="
        );
        let _ = writeln!(
            out,
            "{}",
            render_bus_allocation(d.cdfg(), &r.schedule, &r.placements)
        );
    }
    out
}

/// E4.5/E4.6 — Tables 4.14-4.19: the elliptic filter, including the
/// expected list-scheduling failure at the minimum rate 5.
pub fn e4_ewf(mode: PortMode) -> String {
    let mut t = Table::new(["L", "P1", "P2", "P3", "P4", "P5", "steps", "outcome"]);
    for rate in [5u32, 6, 7] {
        let d = designs::elliptic::partitioned_with(rate, mode);
        let mut opts = ConnectFirstOptions::new(rate);
        opts.mode = mode;
        match connect_first_flow(d.cdfg(), &opts) {
            Ok(r) => {
                t.row([
                    rate.to_string(),
                    r.pins_used[1].to_string(),
                    r.pins_used[2].to_string(),
                    r.pins_used[3].to_string(),
                    r.pins_used[4].to_string(),
                    r.pins_used[5].to_string(),
                    r.pipe_length.to_string(),
                    "ok".into(),
                ]);
            }
            Err(e) => {
                t.row([
                    rate.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("failed: {e}"),
                ]);
            }
        }
    }
    format!("E4 elliptic filter ({mode:?}; Tables 4.14-4.19 analogue)\n{t}")
}

/// E5.1 — Table 5.1: AR filter resources required over (L, pipe length).
pub fn e5_ar() -> String {
    let mut t = Table::new(["L", "pipe", "pins P0..P3", "adders", "multipliers"]);
    for rate in [3u32, 4, 5] {
        for pipe in [8i64, 9, 10, 11, 12] {
            let d = designs::ar_filter::general(rate, PortMode::Unidirectional);
            match schedule_first_flow(d.cdfg(), rate, pipe, PortMode::Unidirectional) {
                Ok(r) => {
                    let res = r.resources(d.cdfg());
                    let sum = |class: &mcs_cdfg::OperatorClass| -> u32 {
                        res.iter()
                            .filter(|((_, c), _)| c == class)
                            .map(|(_, &n)| n)
                            .sum()
                    };
                    t.row([
                        rate.to_string(),
                        pipe.to_string(),
                        format!("{:?}", &r.pins_used[1..]),
                        sum(&mcs_cdfg::OperatorClass::Add).to_string(),
                        sum(&mcs_cdfg::OperatorClass::Mul).to_string(),
                    ]);
                }
                Err(e) => {
                    t.row([
                        rate.to_string(),
                        pipe.to_string(),
                        format!("failed: {e}"),
                        "-".into(),
                        "-".into(),
                    ]);
                }
            }
        }
    }
    format!("E5.1 (Table 5.1 analogue): AR filter, schedule-first flow\n{t}")
}

/// E5.2 — Table 5.2: the Chapter 4 technique on the same AR filter.
pub fn e5_ar_ch4() -> String {
    let mut t = Table::new(["L", "pins P0..P3", "pipe length"]);
    for rate in [3u32, 4, 5] {
        match ar_flow(rate, PortMode::Unidirectional, true, false) {
            Some(r) => {
                t.row([
                    rate.to_string(),
                    format!("{:?}", &r.pins_used[1..]),
                    r.pipe_length.to_string(),
                ]);
            }
            None => {
                t.row([rate.to_string(), "failed".into(), "-".into()]);
            }
        }
    }
    format!("E5.2 (Table 5.2 analogue): AR filter, connect-first flow\n{t}")
}

/// E5.3 — Table 5.3: elliptic filter resources and in-out delay over
/// (L, pipe length).
pub fn e5_ewf() -> String {
    let mut t = Table::new([
        "L",
        "pipe",
        "pins P1..P5",
        "adders",
        "multipliers",
        "in-out delay",
    ]);
    // Our reconstructed netlist's critical path is 26 steps (the paper's
    // sweep starts at 22 for its own netlist).
    for rate in [5u32, 6, 7] {
        for pipe in [26i64, 28, 30] {
            let d = designs::elliptic::partitioned_with(rate, PortMode::Unidirectional);
            match schedule_first_flow(d.cdfg(), rate, pipe, PortMode::Unidirectional) {
                Ok(r) => {
                    let res = r.resources(d.cdfg());
                    let sum = |class: &mcs_cdfg::OperatorClass| -> u32 {
                        res.iter()
                            .filter(|((_, c), _)| c == class)
                            .map(|(_, &n)| n)
                            .sum()
                    };
                    let delay =
                        r.schedule.of(d.op_named("Op")).step - r.schedule.of(d.op_named("Ia")).step;
                    t.row([
                        rate.to_string(),
                        pipe.to_string(),
                        format!("{:?}", &r.pins_used[1..]),
                        sum(&mcs_cdfg::OperatorClass::Add).to_string(),
                        sum(&mcs_cdfg::OperatorClass::Mul).to_string(),
                        delay.to_string(),
                    ]);
                }
                Err(e) => {
                    t.row([
                        rate.to_string(),
                        pipe.to_string(),
                        format!("failed: {e}"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                }
            }
        }
    }
    format!("E5.3 (Table 5.3 analogue): elliptic filter, schedule-first flow\n{t}")
}

/// E5.4 — Table 5.4: the Chapter 4 technique on the elliptic filter,
/// including the failure rows.
pub fn e5_ewf_ch4() -> String {
    let mut t = Table::new(["L", "pins P1..P5", "pipe length", "outcome"]);
    for rate in [5u32, 6, 7] {
        let d = designs::elliptic::partitioned_with(rate, PortMode::Unidirectional);
        match connect_first_flow(d.cdfg(), &ConnectFirstOptions::new(rate)) {
            Ok(r) => {
                t.row([
                    rate.to_string(),
                    format!("{:?}", &r.pins_used[1..]),
                    r.pipe_length.to_string(),
                    "ok".into(),
                ]);
            }
            Err(e) => {
                t.row([
                    rate.to_string(),
                    "-".into(),
                    "-".into(),
                    format!("failed: {e}"),
                ]);
            }
        }
    }
    format!("E5.4 (Table 5.4 analogue): elliptic filter, connect-first flow\n{t}")
}

/// E6.1 — Tables 6.1-6.3 / Figures 6.2-6.7: shared interconnects.
pub fn e6_detail() -> String {
    let mut out = String::new();
    for rate in [3u32, 4, 5] {
        let d = designs::ar_filter::general(rate, PortMode::Bidirectional);
        match ar_flow(rate, PortMode::Bidirectional, true, true) {
            Some(r) => {
                let split = r
                    .interconnect
                    .buses
                    .iter()
                    .filter(|b| b.sub_count() > 1)
                    .count();
                let _ = writeln!(
                    out,
                    "== L = {rate}: shared interconnect ({split} split buses) =="
                );
                let _ = writeln!(out, "{}", render_interconnect(d.cdfg(), &r.interconnect));
                let _ = writeln!(out, "bus allocation:");
                let _ = writeln!(
                    out,
                    "{}",
                    render_bus_allocation(d.cdfg(), &r.schedule, &r.placements)
                );
            }
            None => {
                let _ = writeln!(out, "L={rate}: sharing flow failed");
            }
        }
    }
    out
}

/// E6.2 — Table 6.4: pins and pipe length, sharing vs no sharing.
pub fn e6_compare() -> String {
    let mut t = Table::new([
        "L",
        "pins (no sharing)",
        "pipe (no sharing)",
        "pins (sharing)",
        "pipe (sharing)",
    ]);
    for rate in [3u32, 4, 5] {
        let plain = ar_flow(rate, PortMode::Bidirectional, true, false);
        let shared = ar_flow(rate, PortMode::Bidirectional, true, true);
        let cell = |r: &Option<SynthesisResult>, f: &dyn Fn(&SynthesisResult) -> String| {
            r.as_ref().map(f).unwrap_or_else(|| "-".into())
        };
        t.row([
            rate.to_string(),
            cell(&plain, &|r| real_pins(r).to_string()),
            cell(&plain, &|r| r.pipe_length.to_string()),
            cell(&shared, &|r| real_pins(r).to_string()),
            cell(&shared, &|r| r.pipe_length.to_string()),
        ]);
    }
    format!("E6.2 (Table 6.4 analogue): AR filter, bidirectional ports\n{t}")
}

/// E7.1 — Figure 7.4: forcing the forward and feedback transfers of a
/// recursive loop onto one shared bus destroys schedulability.
pub fn e7_recursive() -> String {
    // chain_len = 1 makes the feasible X-to-Y gap exactly one value (3
    // steps) at the minimum rate 3 — a multiple of L, so X and Y are
    // forced into the same step group and cannot share a bus.
    let d = designs::synthetic::fig_7_4(1, 2, 2);
    let cdfg = d.cdfg();
    let rate = timing::min_initiation_rate(cdfg);
    let x = d.op_named("X");
    let y = d.op_named("Y");
    let p1 = PartitionId::new(1);
    let p2 = PartitionId::new(2);

    let mk_bus = |pairs: &[(PartitionId, PartitionId)]| -> Bus {
        let mut bus = Bus::new();
        bus.sub_widths = vec![2];
        for &(f, t) in pairs {
            let e = bus.out_ports.entry(f).or_insert(0);
            *e = (*e).max(2);
            let e = bus.in_ports.entry(t).or_insert(0);
            *e = (*e).max(2);
        }
        bus
    };
    let whole = SubRange { lo: 0, hi: 0 };
    // Shared structure: X and Y on one bus.
    let shared = Interconnect {
        mode: PortMode::Unidirectional,
        buses: vec![mk_bus(&[(p1, p2), (p2, p1)])],
        assignment: [
            (
                x,
                BusAssignment {
                    bus: mcs_cdfg::BusId::new(0),
                    range: whole,
                },
            ),
            (
                y,
                BusAssignment {
                    bus: mcs_cdfg::BusId::new(0),
                    range: whole,
                },
            ),
        ]
        .into_iter()
        .collect(),
    };
    // Separate structure: one bus each.
    let separate = Interconnect {
        mode: PortMode::Unidirectional,
        buses: vec![mk_bus(&[(p1, p2)]), mk_bus(&[(p2, p1)])],
        assignment: [
            (
                x,
                BusAssignment {
                    bus: mcs_cdfg::BusId::new(0),
                    range: whole,
                },
            ),
            (
                y,
                BusAssignment {
                    bus: mcs_cdfg::BusId::new(1),
                    range: whole,
                },
            ),
        ]
        .into_iter()
        .collect(),
    };
    let run = |ic: Interconnect| -> String {
        let mut policy = BusPolicy::new(ic, rate, false);
        match list_schedule(cdfg, &ListConfig::new(rate), &mut policy) {
            Ok(s) => format!("schedulable, pipe length {}", s.pipe_length(cdfg)),
            Err(e) => format!("unschedulable ({e})"),
        }
    };
    format!(
        "E7.1 (Figure 7.4): recursive loop at minimum rate {rate}\n\
         X and Y on one shared bus:  {}\n\
         X and Y on separate buses:  {}\n",
        run(shared),
        run(separate)
    )
}

/// E7.2 — Section 7.2: conditional I/O sharing.
pub fn e7_conditional() -> String {
    let (d, _) = designs::synthetic::conditional_example();
    let sets = conditional_sharing_sets(d.cdfg(), &CondShareConfig::new(8));
    let mut out = String::from("E7.2 (Section 7.2): conditional I/O sharing\n");
    for set in &sets {
        let names: Vec<&str> = set
            .ops
            .iter()
            .map(|&op| d.cdfg().op(op).name.as_str())
            .collect();
        let _ = writeln!(
            out,
            "sharing set {{{}}} in frame {}..={}: saves {} pins",
            names.join(", "),
            set.frame.0,
            set.frame.1,
            set.saved_pins
        );
    }
    let total: u32 = sets.iter().map(|s| s.saved_pins).sum();
    let _ = writeln!(out, "total pins saved: {total}");
    out
}

/// E7.3 — Figure 7.10: allocation-wheel fragmentation and the safety
/// check.
pub fn e7_wheel() -> String {
    let mut naive = AllocationWheel::new(1, 6, 2).expect("positive rate and cycles");
    naive.place(0);
    let fragmented = naive.place(3).is_some() && !naive.can_place(2) && !naive.can_place(4);
    let mut safe = AllocationWheel::new(1, 6, 2).expect("positive rate and cycles");
    safe.place(0);
    let checked = safe.is_safe(3, 1);
    let d = designs::synthetic::multicycle_example();
    let scheduled =
        list_schedule(d.cdfg(), &ListConfig::new(6), &mut mcs_sched::NullPolicy).is_ok();
    format!(
        "E7.3 (Figure 7.10): three 2-cycle ops, one unit, L = 6\n\
         Eq. 7.5 lower bound: {:?} unit(s)\n\
         naive placement at steps 0 and 3 strands op3: {fragmented}\n\
         safety check rejects the fragmenting placement: {}\n\
         list scheduling with the safety check finds a schedule: {scheduled}\n",
        AllocationWheel::lower_bound(3, 6, 2),
        !checked,
    )
}

/// E7.4 — Section 7.3: time-division I/O multiplexing trade-off.
pub fn e7_tdm() -> String {
    let mut t = Table::new(["variant", "widest transfer", "cross pins", "pipe length"]);
    for split in [false, true] {
        let d = designs::synthetic::tdm_example(split);
        let r = connect_first_flow(d.cdfg(), &ConnectFirstOptions::new(2));
        match r {
            Ok(r) => {
                let widest = d
                    .cdfg()
                    .io_ops()
                    .filter(|&op| {
                        let (_, f, to) = d.cdfg().op(op).io_endpoints().unwrap();
                        !f.is_environment() && !to.is_environment()
                    })
                    .map(|op| d.cdfg().io_bits(op))
                    .max()
                    .unwrap_or(0);
                t.row([
                    if split {
                        "split (2 x 16)"
                    } else {
                        "whole (32)"
                    }
                    .to_string(),
                    widest.to_string(),
                    real_pins(&r).to_string(),
                    r.pipe_length.to_string(),
                ]);
            }
            Err(e) => {
                t.row([
                    if split { "split" } else { "whole" }.to_string(),
                    "-".into(),
                    format!("failed: {e}"),
                    "-".into(),
                ]);
            }
        }
    }
    format!("E7.4 (Section 7.3): TDM trade-off\n{t}")
}

/// FNV-1a over a probe-verdict sequence: the `verdict_digest` of a
/// [`compare::PROBE`] line. Two engines agree iff their digests are
/// equal.
pub fn verdict_digest(verdicts: &[bool]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in verdicts {
        h ^= v as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over a Pareto frontier's `(rate, budget_ix, latency, pins,
/// buses)` tuples: the `frontier_digest` of a [`compare::EXPLORE`]
/// line. Two sweeps agree on the frontier iff their digests are equal.
pub fn frontier_digest(frontier: &[mcs_explore::FrontierPoint]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for p in frontier {
        mix(p.coord.rate as u64);
        mix(p.coord.budget_ix as u64);
        mix(p.latency as u64);
        mix(p.total_pins as u64);
        mix(p.buses as u64);
    }
    h
}

/// Fills the `side` fields (`before`/`after`) of a
/// [`compare::SEARCH_STATS`] line from one connection search: `ok` is
/// whether it found a connection, `wall_ms` the caller's own timing of
/// the call, while `nodes_per_sec` follows the search's internal clock.
pub fn search_side<'l>(
    line: &'l mut Line,
    side: &str,
    ok: bool,
    stats: &mcs_connect::SearchStats,
    wall_ms: f64,
) -> &'l mut Line {
    line.set(&format!("{side}.ok"), ok)
        .set(&format!("{side}.nodes"), stats.nodes)
        .set(&format!("{side}.nodes_per_sec"), stats.nodes_per_sec())
        .set(&format!("{side}.epochs"), stats.epochs)
        .set(&format!("{side}.threads"), stats.threads)
        .set(&format!("{side}.cache_hits"), stats.cache_hits)
        .set(&format!("{side}.prunes"), stats.prunes)
        .set(&format!("{side}.backtracks"), stats.backtracks)
        .set(&format!("{side}.wall_ms"), wall_ms)
        .set(&format!("{side}.winner"), stats.winner)
}

/// Fills the `probe` fields of a [`compare::SEARCH_STATS`] line from a
/// probe sweep's cache stats.
pub fn search_probe<'l>(line: &'l mut Line, probe: &mcs_pinalloc::ProbeCacheStats) -> &'l mut Line {
    line.set("probe.exact_fallbacks", probe.exact_fallbacks)
        .set("probe.batched", probe.batched_probes)
        .set("probe.batch_checkpoints", probe.batch_shared_checkpoints)
}

/// FNV-1a digest of newline-joined response lines: the deterministic
/// `response_digest` of a [`compare::SERVE`] line.
pub fn response_digest(lines: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in lines {
        for &b in line.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= u64::from(b'\n');
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use compare::{Value, CONNECT, EXPLORE, FUZZ, PROBE, RESYNTH, SEARCH_STATS, SERVE};

    /// `(field, value)` pairs, under `prefix.` unless `prefix` is empty.
    fn at(prefix: &str, fields: &[(&str, Value)]) -> Vec<(String, Value)> {
        let path = |f: &str| match prefix {
            "" => f.to_string(),
            _ => format!("{prefix}.{f}"),
        };
        fields.iter().map(|(f, v)| (path(f), v.clone())).collect()
    }

    /// A finished line of `family` from groups of `(path, value)` pairs.
    fn line(family: &'static compare::Family, groups: &[Vec<(String, Value)>]) -> Line {
        let mut line = Line::new(family);
        for (path, value) in groups.iter().flatten() {
            line.set(path, value.clone());
        }
        line.finish()
    }

    fn v(x: impl Into<Value>) -> Value {
        x.into()
    }

    #[test]
    fn search_stats_line_matches_golden_output() {
        use mcs_connect::SearchStats;
        use std::time::Duration;
        let stats = |nodes: u64, winner| SearchStats {
            workers: Vec::new(),
            winner,
            epochs: 12,
            threads: 4,
            nodes,
            cache_hits: 7,
            seed_hits: 0,
            cache_entries: 3,
            prunes: 5,
            backtracks: 2,
            wall: Duration::from_millis(250),
            termination: mcs_ctl::Termination::Complete,
            deepest: 0,
            deepest_buses: 0,
        };
        let probe = mcs_pinalloc::ProbeCacheStats {
            exact_fallbacks: 3,
            batched_probes: 40,
            batch_shared_checkpoints: 2,
            ..Default::default()
        };
        let mut line = Line::new(&SEARCH_STATS);
        line.set("bench", "portfolio_adversarial")
            .set("senders", 6u32);
        search_side(&mut line, "before", true, &stats(1000, Some(0)), 250.0);
        search_side(&mut line, "after", true, &stats(4000, None), 125.0);
        search_probe(&mut line, &probe);
        let line = line.finish().to_string();
        assert_eq!(
            line,
            "{\"bench\":\"portfolio_adversarial\",\"senders\":6,\
             \"before\":{\"ok\":true,\"nodes\":1000,\"nodes_per_sec\":4000,\
             \"epochs\":12,\"threads\":4,\"cache_hits\":7,\"prunes\":5,\
             \"backtracks\":2,\"wall_ms\":250.000,\"winner\":0},\
             \"after\":{\"ok\":true,\"nodes\":4000,\"nodes_per_sec\":16000,\
             \"epochs\":12,\"threads\":4,\"cache_hits\":7,\"prunes\":5,\
             \"backtracks\":2,\"wall_ms\":125.000,\"winner\":null},\
             \"probe\":{\"exact_fallbacks\":3,\"batched\":40,\
             \"batch_checkpoints\":2},\"speedup\":2.00}"
        );
        mcs_ctl::json::parse(&line).expect("BENCH line is strict JSON");
    }

    fn sweep(run: u64, pruned: u64, wall_ms: f64) -> Vec<(&'static str, Value)> {
        vec![
            ("points", v(10u64)),
            ("run", v(run)),
            ("pruned", v(pruned)),
            ("feasible", v(5u64)),
            ("frontier", v(2u64)),
            ("probe_seed_hits", v(4u64)),
            ("cert_seed_hits", v(10u64)),
            ("frontier_digest", v(99u64)),
            ("wall_ms", v(wall_ms)),
        ]
    }

    #[test]
    fn explore_bench_line_matches_golden_output() {
        let head = [("design", v("elliptic")), ("flow", v("connect-first"))];
        let line = line(
            &EXPLORE,
            &[
                at("", &head),
                at("pruned", &sweep(7, 3, 80.0)),
                at("exhaustive", &sweep(10, 0, 120.0)),
            ],
        );
        assert!(line.passed());
        let line = line.to_string();
        assert_eq!(
            line,
            "{\"bench\":\"explore\",\"design\":\"elliptic\",\"flow\":\"connect-first\",\
             \"pruned\":{\"points\":10,\"run\":7,\"pruned\":3,\"feasible\":5,\
             \"frontier\":2,\"probe_seed_hits\":4,\"cert_seed_hits\":10,\
             \"frontier_digest\":99,\"wall_ms\":80.000},\
             \"exhaustive\":{\"points\":10,\"run\":10,\"pruned\":0,\"feasible\":5,\
             \"frontier\":2,\"probe_seed_hits\":4,\"cert_seed_hits\":10,\
             \"frontier_digest\":99,\"wall_ms\":120.000},\
             \"frontier_agree\":true,\"warm_start_hit_rate\":2.000,\
             \"speedup\":1.50}"
        );
        mcs_ctl::json::parse(&line).expect("BENCH line is strict JSON");
    }

    #[test]
    fn frontier_digest_separates_different_frontiers() {
        use mcs_explore::{FrontierPoint, PointCoord};
        let p = |rate, latency| FrontierPoint {
            coord: PointCoord { rate, budget_ix: 0 },
            latency,
            total_pins: 100,
            buses: 3,
        };
        assert_eq!(frontier_digest(&[p(4, 10)]), frontier_digest(&[p(4, 10)]));
        assert_ne!(frontier_digest(&[p(4, 10)]), frontier_digest(&[p(5, 10)]));
        assert_ne!(frontier_digest(&[]), frontier_digest(&[p(4, 10)]));
    }

    fn search(digest: u64, allocations: u64, wall_ms: f64) -> Vec<(&'static str, Value)> {
        vec![
            ("nodes", v(1000u64)),
            ("prunes", v(20u64)),
            ("backtracks", v(990u64)),
            ("sequence_digest", v(digest)),
            ("buses", v(9u32)),
            ("pins", v(180u32)),
            ("allocations", v(allocations)),
            ("wall_ms", v(wall_ms)),
        ]
    }

    fn connect_line(clone_digest: u64) -> Line {
        let head = [("design", v("mesh6")), ("rate", v(4u32))];
        line(
            &CONNECT,
            &[
                at("", &head),
                at("trail", &search(12501005524302218597, 250, 10.0)),
                at("clone", &search(clone_digest, 9000, 45.0)),
            ],
        )
    }

    #[test]
    fn connect_bench_line_matches_golden_output() {
        let line = connect_line(12501005524302218597).to_string();
        assert_eq!(
            line,
            "{\"bench\":\"connect\",\"design\":\"mesh6\",\"rate\":4,\
             \"trail\":{\"nodes\":1000,\"prunes\":20,\"backtracks\":990,\
             \"sequence_digest\":12501005524302218597,\"buses\":9,\"pins\":180,\
             \"allocations\":250,\"allocs_per_node\":0.250,\"wall_ms\":10.000},\
             \"clone\":{\"nodes\":1000,\"prunes\":20,\"backtracks\":990,\
             \"sequence_digest\":12501005524302218597,\"buses\":9,\"pins\":180,\
             \"allocations\":9000,\"allocs_per_node\":9.000,\"wall_ms\":45.000},\
             \"agree\":true,\"speedup\":4.50}"
        );
        mcs_ctl::json::parse(&line).expect("BENCH line is strict JSON");
        let diverged = connect_line(1);
        assert!(diverged.to_string().contains("\"agree\":false"));
        assert!(!diverged.passed());
    }

    fn probe(
        probes: u64,
        allocations: u64,
        bytes: u64,
        wall_ms: f64,
        digest: u64,
    ) -> Vec<(&'static str, Value)> {
        vec![
            ("probes", v(probes)),
            ("feasible", v(probes * 3 / 4)),
            ("allocations", v(allocations)),
            ("alloc_bytes", v(bytes)),
            ("wall_ms", v(wall_ms)),
            ("verdict_digest", v(digest)),
        ]
    }

    fn probe_line(
        trail: Vec<(&'static str, Value)>,
        wide: Vec<(&'static str, Value)>,
        clone: Vec<(&'static str, Value)>,
    ) -> Line {
        let head = [("design", v("ch3_simple")), ("rate", v(2u32))];
        line(
            &PROBE,
            &[
                at("", &head),
                at("trail", &trail),
                at("wide", &wide),
                at("clone", &clone),
            ],
        )
    }

    #[test]
    fn probe_bench_line_matches_golden_output() {
        let line = probe_line(
            probe(64, 10, 2048, 5.0, 42),
            probe(64, 10, 2048, 10.0, 42),
            probe(64, 600, 819200, 40.0, 42),
        )
        .to_string();
        assert_eq!(
            line,
            "{\"bench\":\"probe\",\"design\":\"ch3_simple\",\"rate\":2,\
             \"trail\":{\"probes\":64,\"feasible\":48,\"allocations\":10,\
             \"alloc_bytes\":2048,\"wall_ms\":5.000,\"verdict_digest\":42},\
             \"wide\":{\"probes\":64,\"feasible\":48,\"allocations\":10,\
             \"alloc_bytes\":2048,\"wall_ms\":10.000,\"verdict_digest\":42},\
             \"clone\":{\"probes\":64,\"feasible\":48,\"allocations\":600,\
             \"alloc_bytes\":819200,\"wall_ms\":40.000,\"verdict_digest\":42},\
             \"agree\":true,\"alloc_ratio\":60.00,\"speedup\":8.00,\
             \"wide_ratio\":2.00}"
        );
        mcs_ctl::json::parse(&line).expect("BENCH line is strict JSON");
    }

    #[test]
    fn probe_bench_line_flags_verdict_disagreement() {
        let m = |probes: u64, digest: u64| probe(probes, 0, 0, 1.0, digest);
        // Any one engine diverging from the other two must flip the gate,
        // on the verdict digest or on the probe count.
        for line in [
            probe_line(m(8, 1), m(8, 1), m(8, 2)),
            probe_line(m(8, 1), m(8, 2), m(8, 1)),
            probe_line(m(8, 1), m(8, 1), m(9, 1)),
        ] {
            assert!(!line.passed(), "{line}");
            assert!(line.to_string().contains("\"agree\":false"), "{line}");
        }
        assert!(probe_line(m(8, 1), m(8, 1), m(8, 1)).passed());
    }

    fn fuzz_line(disagreed: u64, sim_mismatched: u64) -> Line {
        line(
            &FUZZ,
            &[at(
                "",
                &[
                    ("config", v("default")),
                    ("seeds", v(200u64)),
                    ("agreed", v(200 - disagreed)),
                    ("disagreed", v(disagreed)),
                    ("any_feasible", v(30u64)),
                    ("sim_checked", v(50u64)),
                    ("sim_mismatched", v(sim_mismatched)),
                    ("shrink.steps", v(104u64)),
                    ("shrink.from_ops", v(8u64)),
                    ("shrink.to_ops", v(4u64)),
                    ("wall_ms", v(4000.0)),
                ],
            )],
        )
    }

    #[test]
    fn fuzz_bench_line_matches_golden_output() {
        let line = fuzz_line(0, 0).to_string();
        assert_eq!(
            line,
            "{\"bench\":\"fuzz\",\"config\":\"default\",\"seeds\":200,\
             \"agreed\":200,\"disagreed\":0,\"any_feasible\":30,\
             \"sim_checked\":50,\"sim_mismatched\":0,\
             \"shrink\":{\"steps\":104,\"from_ops\":8,\"to_ops\":4},\
             \"wall_ms\":4000.000,\"designs_per_sec\":50.0,\"agree\":true}"
        );
        mcs_ctl::json::parse(&line).expect("BENCH line is strict JSON");
    }

    #[test]
    fn fuzz_bench_line_flags_any_divergence() {
        assert!(!fuzz_line(1, 0).passed());
        assert!(!fuzz_line(0, 1).passed());
        assert!(fuzz_line(0, 0).passed());
        assert!(fuzz_line(1, 0).to_string().contains("\"agree\":false"));
    }

    fn serve_line(hits: u64, workers_identical: bool, hit_p50_us: f64) -> Line {
        line(
            &SERVE,
            &[at(
                "",
                &[
                    ("config", v("clients_8")),
                    ("clients", v(8u64)),
                    ("workers", v(2u64)),
                    ("designs", v(6u64)),
                    ("cold_requests", v(6u64)),
                    ("storm_requests", v(64u64)),
                    ("hits", v(hits)),
                    ("warm", v(18u64)),
                    ("storm_cold", v(6u64)),
                    ("response_digest", v(1234567890123456789u64)),
                    ("workers_identical", v(workers_identical)),
                    ("cold_p50_us", v(5000.0)),
                    ("cold_p99_us", v(9000.0)),
                    ("hit_p50_us", v(hit_p50_us)),
                    ("hit_p99_us", v(400.0)),
                    ("wall_ms", v(250.0)),
                ],
            )],
        )
    }

    #[test]
    fn serve_bench_line_matches_golden_output() {
        let line = serve_line(40, true, 80.0).to_string();
        assert_eq!(
            line,
            "{\"bench\":\"serve\",\"config\":\"clients_8\",\"clients\":8,\
             \"workers\":2,\"designs\":6,\"cold_requests\":6,\
             \"storm_requests\":64,\"hits\":40,\"warm\":18,\"storm_cold\":6,\
             \"response_digest\":1234567890123456789,\"workers_identical\":true,\
             \"hits_nonzero\":true,\
             \"cold_p50_us\":5000.0,\"cold_p99_us\":9000.0,\
             \"hit_p50_us\":80.0,\"hit_p99_us\":400.0,\
             \"wall_ms\":250.000,\"requests_per_sec\":256.0,\
             \"hit_speedup\":62.50,\"pass\":true}"
        );
        mcs_ctl::json::parse(&line).expect("BENCH line is strict JSON");
    }

    #[test]
    fn serve_bench_line_gates_on_hits_identity_and_speedup() {
        assert!(!serve_line(0, true, 80.0).passed());
        assert!(!serve_line(40, false, 80.0).passed());
        assert!(!serve_line(40, true, 4000.0).passed());
        assert!(serve_line(40, true, 80.0).passed());
        assert!(serve_line(0, true, 80.0)
            .to_string()
            .contains("\"pass\":false"));
    }

    #[test]
    fn response_digest_is_order_sensitive_and_stable() {
        let a = vec!["x".to_string(), "y".to_string()];
        let b = vec!["y".to_string(), "x".to_string()];
        assert_eq!(response_digest(&a), response_digest(&a));
        assert_ne!(response_digest(&a), response_digest(&b));
        // Joining must not be ambiguous: ["xy"] != ["x","y"].
        assert_ne!(response_digest(&["xy".to_string()]), response_digest(&a));
    }

    #[test]
    fn verdict_digest_separates_sequences() {
        assert_eq!(
            verdict_digest(&[true, false]),
            verdict_digest(&[true, false])
        );
        assert_ne!(
            verdict_digest(&[true, false]),
            verdict_digest(&[false, true])
        );
        assert_ne!(verdict_digest(&[]), verdict_digest(&[false]));
    }

    fn resynth_line(path: &str, verifier_ok: bool, incr_wall_ms: f64, floor: Option<f64>) -> Line {
        let mut line = Line::new(&RESYNTH);
        line.set("config", "elliptic_local_width")
            .set("design", "elliptic")
            .set("edit", "width:a1=8")
            .set("path", path)
            .set("dirty_ops", 1u64)
            .set("dirty_transfers", 0u64)
            .set("reused", 0u64)
            .set("fresh", 0u64)
            .set("incr_latency", 30i64)
            .set("cold_latency", 30i64)
            .set("verifier_ok", verifier_ok)
            .set("incr_wall_ms", incr_wall_ms)
            .set("cold_wall_ms", 40.0);
        if let Some(floor) = floor {
            line.require_speedup(floor);
        }
        line.finish()
    }

    #[test]
    fn resynth_bench_line_matches_golden_output() {
        let line = resynth_line("identical", true, 2.0, None).to_string();
        assert_eq!(
            line,
            "{\"bench\":\"resynth\",\"config\":\"elliptic_local_width\",\
             \"design\":\"elliptic\",\"edit\":\"width:a1=8\",\
             \"path\":\"identical\",\"dirty_ops\":1,\"dirty_transfers\":0,\
             \"reused\":0,\"fresh\":0,\"incr_latency\":30,\"cold_latency\":30,\
             \"verifier_ok\":true,\"incr_wall_ms\":2.000,\
             \"cold_wall_ms\":40.000,\"speedup\":20.00,\"warm\":true,\
             \"pass\":true}"
        );
        mcs_ctl::json::parse(&line).expect("BENCH line is strict JSON");
    }

    #[test]
    fn resynth_bench_line_gates_on_verifier_path_and_speedup() {
        assert!(!resynth_line("identical", false, 2.0, None).passed());
        assert!(!resynth_line("cold", true, 2.0, None).passed());
        let slow = resynth_line("identical", true, 20.0, None);
        assert!(!slow.passed());
        assert!(slow.to_string().contains("\"pass\":false"));
        // The same 2x win passes under a scenario-chosen floor.
        assert!(resynth_line("identical", true, 20.0, Some(1.5)).passed());
        assert!(resynth_line("identical", true, 2.0, None).passed());
    }

    #[test]
    fn every_experiment_runs() {
        for &id in EXPERIMENTS {
            let out = run_experiment(id);
            assert!(!out.is_empty(), "{id} produced no output");
        }
    }
}
