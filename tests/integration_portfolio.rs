//! Determinism and differential tests for the parallel portfolio
//! connection search: the `workers` knob must never change *what* is
//! synthesized (only how fast), and the Chapter 4 connection-first flow
//! must agree with the Chapter 3 simple flow on designs both can handle.

use mcs_cdfg::{designs, Cdfg, PartitionId, PortMode};
use mcs_connect::{synthesize_with_stats, SearchConfig};
use mcs_postsyn::{pin_budget_report, verify_against_schedule_with_budgets};
use mcs_sched::validate;
use mcs_sim::{verify, Semantics, Stimulus};
use multichip_hls::flows::{connect_first_flow, simple_flow, ConnectFirstOptions};

/// Portfolio size pinned for the determinism runs: the result is defined
/// by the portfolio, so thread counts {1, 2, 8} must all reproduce it.
const PORTFOLIO: usize = 4;
const REPS: usize = 20;

fn assert_deterministic(name: &str, cdfg: &Cdfg, rate: u32) {
    let cfg = SearchConfig::new(rate).with_portfolio(PORTFOLIO);
    let (reference, _) = synthesize_with_stats(cdfg, PortMode::Unidirectional, &cfg);
    let reference = reference.unwrap_or_else(|e| panic!("{name}: reference run failed: {e}"));
    for workers in [1usize, 2, 8] {
        for rep in 0..REPS {
            let cfg = SearchConfig::new(rate)
                .with_workers(workers)
                .with_portfolio(PORTFOLIO);
            let (ic, stats) = synthesize_with_stats(cdfg, PortMode::Unidirectional, &cfg);
            let ic =
                ic.unwrap_or_else(|e| panic!("{name}: workers={workers} rep={rep} failed: {e}"));
            assert_eq!(
                ic, reference,
                "{name}: workers={workers} rep={rep} synthesized a different interconnect"
            );
            assert_eq!(
                stats.threads,
                workers.clamp(1, PORTFOLIO),
                "{name}: thread provenance mismatch"
            );
            assert_eq!(stats.workers.len(), PORTFOLIO);
            assert!(stats.winner.is_some(), "{name}: no winner recorded");
        }
    }
}

#[test]
fn elliptic_connection_is_identical_across_thread_counts() {
    let d = designs::elliptic::partitioned();
    assert_deterministic(d.name(), d.cdfg(), 6);
}

#[test]
fn ar_filter_connection_is_identical_across_thread_counts() {
    let d = designs::ar_filter::general(3, PortMode::Unidirectional);
    assert_deterministic(d.name(), d.cdfg(), 3);
}

/// The observability contract on the whole pipeline: event *payloads*
/// carry no wall-clock data, and every instrumented decision is recorded
/// from a deterministic point, so the full event stream of a traced
/// connect-first run is byte-identical across thread counts.
#[test]
fn traced_flow_event_stream_is_identical_across_thread_counts() {
    use multichip_hls::flows::{synthesize, FlowSpec, Run};
    use multichip_hls::obs::{BufferingRecorder, Event, RecorderHandle};
    use std::sync::Arc;

    let d = designs::ar_filter::general(3, PortMode::Unidirectional);
    let trace = |workers: usize| -> Vec<Event> {
        let buf = Arc::new(BufferingRecorder::new());
        let rec = RecorderHandle::new(buf.clone());
        let mut opts = ConnectFirstOptions::new(3);
        opts.workers = workers;
        opts.portfolio = Some(PORTFOLIO);
        synthesize(d.cdfg(), &FlowSpec::ConnectFirst(opts), &Run::traced(&rec))
            .result
            .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
        buf.events()
    };
    let reference = trace(1);
    assert!(!reference.is_empty());
    assert!(reference
        .iter()
        .any(|e| matches!(e, Event::SearchNode { .. })));
    assert!(reference
        .iter()
        .any(|e| matches!(e, Event::ScheduleDecision { .. })));
    for workers in [2usize, 8] {
        assert_eq!(
            trace(workers),
            reference,
            "workers={workers} changed the recorded event stream"
        );
    }
}

/// Chapter 3 vs Chapter 4 on designs with simple partitionings: both
/// flows must validate, the connection-first result must respect every
/// chip's pin budget, and the simulator must accept both schedules.
#[test]
fn chapter3_and_chapter4_flows_agree_on_simple_partitions() {
    // Rates where both flows succeed: the chapter 4 heuristic cannot
    // connect the AR filter's fixed pin split at rate 2, so the shared
    // point is rate 3.
    let shared = [
        (designs::ar_filter::simple(), 3u32),
        (designs::synthetic::tdm_example(true), 2u32),
        (designs::synthetic::fig_7_4(2, 2, 2), 4u32),
    ];
    for (d, rate) in &shared {
        let cdfg = d.cdfg();
        let r3 = simple_flow(cdfg, *rate)
            .unwrap_or_else(|e| panic!("{}: chapter 3 flow failed: {e}", d.name()));
        let mut opts = ConnectFirstOptions::new(*rate);
        opts.workers = 8;
        let r4 = connect_first_flow(cdfg, &opts)
            .unwrap_or_else(|e| panic!("{}: chapter 4 flow failed: {e}", d.name()));

        assert_eq!(validate(cdfg, &r3.schedule), vec![], "{}: ch3", d.name());
        assert_eq!(validate(cdfg, &r4.schedule), vec![], "{}: ch4", d.name());

        // Only the connection-first flow reports search telemetry.
        assert!(r3.search_stats.is_none(), "{}", d.name());
        let stats = r4
            .search_stats
            .as_ref()
            .unwrap_or_else(|| panic!("{}: chapter 4 lost its search stats", d.name()));
        assert!(stats.nodes > 0, "{}: empty search", d.name());

        // The chapter 4 connection must fit every chip's pin budget.
        let ic4 = r4.final_interconnect();
        for (pid, used, budget) in pin_budget_report(cdfg, &ic4) {
            assert!(
                used <= budget,
                "{}: partition {pid} uses {used} of {budget} pins",
                d.name()
            );
        }
        assert_eq!(
            verify_against_schedule_with_budgets(cdfg, &r4.schedule, &ic4),
            Vec::<String>::new(),
            "{}",
            d.name()
        );

        // Both synthesized machines execute the same function: identical
        // stimulus, cycle-accurate simulation, checked primary outputs.
        let stim = Stimulus::random(cdfg, 4, 0xD1FF ^ *rate as u64);
        let sem = Semantics::new();
        verify(
            cdfg,
            &r3.schedule,
            Some(&r3.final_interconnect()),
            &sem,
            &stim,
        )
        .unwrap_or_else(|v| panic!("{}: ch3 violations: {v:?}", d.name()));
        verify(cdfg, &r4.schedule, Some(&ic4), &sem, &stim)
            .unwrap_or_else(|v| panic!("{}: ch4 violations: {v:?}", d.name()));
    }
}

/// The portfolio and the classic search agree bus-for-bus when the
/// portfolio is pinned to one plan — the compatibility guarantee that
/// lets `workers = 1` reproduce the pre-portfolio engine exactly.
#[test]
fn portfolio_of_one_reproduces_the_classic_search() {
    for (d, rate) in [
        (designs::elliptic::partitioned(), 6u32),
        (designs::ar_filter::general(4, PortMode::Unidirectional), 4),
    ] {
        let cdfg = d.cdfg();
        let classic =
            mcs_connect::synthesize(cdfg, PortMode::Unidirectional, &SearchConfig::new(rate))
                .expect("classic search connects");
        let (pinned, stats) = synthesize_with_stats(
            cdfg,
            PortMode::Unidirectional,
            &SearchConfig::new(rate).with_workers(8).with_portfolio(1),
        );
        assert_eq!(pinned.expect("pinned portfolio connects"), classic);
        assert_eq!(stats.threads, 1, "portfolio of one needs one thread");
        assert_eq!(stats.cache_hits, 0, "cache is disabled for a lone plan");
    }
}

/// Pin accounting helper sanity on a concrete design: every reported
/// entry is a partition the interconnect actually touches.
#[test]
fn pin_budget_report_covers_exactly_the_used_partitions() {
    let d = designs::ar_filter::general(3, PortMode::Unidirectional);
    let cdfg = d.cdfg();
    let (ic, _) = synthesize_with_stats(cdfg, PortMode::Unidirectional, &SearchConfig::new(3));
    let ic = ic.expect("connects");
    let report = pin_budget_report(cdfg, &ic);
    for &(pid, used, _) in &report {
        assert_eq!(used, ic.pins_used(pid));
        assert!(used > 0);
    }
    let reported: std::collections::BTreeSet<PartitionId> =
        report.iter().map(|&(p, _, _)| p).collect();
    for p in 0..cdfg.partition_count() {
        let pid = PartitionId::new(p as u32);
        assert_eq!(reported.contains(&pid), ic.pins_used(pid) > 0);
    }
}

/// Runs the trail search and the clone-per-step reference on one
/// problem and requires the same node sequence and the same result.
fn assert_trail_matches_clone(name: &str, cdfg: &Cdfg, mode: PortMode, cfg: &SearchConfig) {
    let (trail, ts) = synthesize_with_stats(cdfg, mode, cfg);
    let (clone, cs) = mcs_connect::oracle::clone_search(cdfg, mode, cfg);
    let what = format!("{name} {mode:?} sharing={}", cfg.allow_split);
    assert_eq!(
        (ts.nodes, ts.prunes, ts.backtracks),
        (cs.nodes, cs.prunes, cs.backtracks),
        "{what}: node counts"
    );
    assert_eq!(
        ts.sequence_digest(),
        cs.sequence_digest(),
        "{what}: node sequence"
    );
    assert_eq!(trail, clone, "{what}: result");
}

/// The undo log is a pure refactor of clone-per-step backtracking: on
/// every named design, in both port modes, with and without Chapter 6
/// sharing, and on a fixed set of generated designs, the two searches
/// expand, prune and backtrack identically and return the same
/// connection. The node budget caps the two largest families, whose
/// runs then also agree on where the budget ran out.
#[test]
fn trail_search_matches_the_clone_reference() {
    use designs::{ar_filter, elliptic, synthetic};
    let mut named = vec![
        (ar_filter::simple(), 3u32),
        (elliptic::partitioned(), 6),
        (synthetic::fig_2_3(), 2),
        (synthetic::fig_2_5(), 2),
        (synthetic::fig_7_4(2, 2, 2), 4),
        (synthetic::conditional_example().0, 2),
        (synthetic::tdm_example(true), 2),
        (synthetic::tdm_example(false), 2),
        (synthetic::multicycle_example(), 2),
        (synthetic::quickstart(), 1),
    ];
    for mode in [PortMode::Unidirectional, PortMode::Bidirectional] {
        for rate in [2u32, 3, 4, 5] {
            named.push((ar_filter::general(rate, mode), rate));
        }
        for rate in [6u32, 7] {
            named.push((elliptic::partitioned_with(rate, mode), rate));
        }
    }
    for senders in [4usize, 5, 6] {
        named.push((synthetic::portfolio_adversarial(senders), 2));
    }
    for chips in [6usize, 7, 8] {
        named.push((synthetic::large_mesh(chips), 4));
    }
    for (d, rate) in &named {
        for mode in [PortMode::Unidirectional, PortMode::Bidirectional] {
            for sharing in [false, true] {
                let mut cfg = SearchConfig::new(*rate);
                cfg.allow_split = sharing;
                cfg.node_budget = 10_000;
                assert_trail_matches_clone(d.name(), d.cdfg(), mode, &cfg);
            }
        }
    }
    let fuzz = mcs_cdfg::fuzz::FuzzConfig::default();
    for seed in 0..40u64 {
        let d = mcs_cdfg::fuzz::design_from_seed(&fuzz, seed);
        let rate = mcs_cdfg::timing::min_initiation_rate(d.cdfg()).max(1);
        for mode in [PortMode::Unidirectional, PortMode::Bidirectional] {
            let cfg = SearchConfig::new(rate);
            assert_trail_matches_clone(&format!("fuzz seed {seed}"), d.cdfg(), mode, &cfg);
        }
    }
}

/// Sequential search counts and result digests recorded from the
/// clone-per-step search before the undo log replaced it. The clone
/// reference above shares its per-node rules (candidate moves, scoring,
/// deduplication, the feasibility test) with the trail search, so it
/// only checks the undo log; these constants also pin the node rules.
#[test]
fn sequential_search_matches_counts_pinned_before_the_undo_log() {
    for (d, rate, mode, sharing, counts, digest) in pinned_sequential_rows() {
        let mut cfg = SearchConfig::new(rate);
        cfg.allow_split = sharing;
        let (ic, stats) = synthesize_with_stats(d.cdfg(), mode, &cfg);
        let what = format!("{} {mode:?} sharing={sharing}", d.name());
        assert_eq!(
            [stats.nodes, stats.prunes, stats.backtracks],
            counts,
            "{what}: node counts"
        );
        assert_eq!(
            ic.ok().map(|ic| debug_digest(&ic)),
            digest,
            "{what}: result"
        );
    }
}

/// `(design, rate, port mode, sharing, [nodes, prunes, backtracks],
/// Debug digest of the connection)`.
type PinnedRow = (designs::Design, u32, PortMode, bool, [u64; 3], Option<u64>);

/// The `bench_connect` designs, a few in the other port mode and with
/// Chapter 6 sharing, and small named designs in both port modes, one of
/// which has no unidirectional connection.
#[rustfmt::skip]
fn pinned_sequential_rows() -> Vec<PinnedRow> {
    use designs::{ar_filter, elliptic, synthetic};
    use PortMode::{Bidirectional as Bi, Unidirectional as Uni};
    let mesh = synthetic::large_mesh;
    let adversarial = synthetic::portfolio_adversarial;
    vec![
        (mesh(6), 4, Uni, false, [15_565, 0, 15_523], Some(5_374_593_390_478_569_944)),
        (mesh(7), 4, Uni, false, [31_084, 0, 31_035], Some(16_118_884_023_108_319_932)),
        (mesh(8), 4, Uni, false, [173_268, 0, 173_212], Some(388_614_364_917_081_024)),
        (adversarial(4), 2, Uni, false, [1480, 356, 1458], Some(16_535_528_300_667_208_631)),
        (adversarial(5), 2, Uni, false, [35_717, 4794, 35_690], Some(14_115_635_363_881_995_299)),
        (adversarial(6), 2, Uni, false, [111_208, 9573, 111_176], Some(6_606_691_537_306_789_880)),
        (mesh(6), 4, Bi, false, [5842, 0, 5800], Some(5_966_403_273_402_473_938)),
        (adversarial(4), 2, Bi, false, [2143, 0, 2121], Some(994_009_732_195_302_382)),
        (mesh(6), 4, Uni, true, [15_565, 0, 15_523], Some(18_096_063_526_680_268_475)),
        (adversarial(5), 2, Uni, true, [35_717, 4794, 35_690], Some(7_852_360_333_048_436_425)),
        (elliptic::partitioned(), 6, Uni, false, [18, 0, 2], Some(17_201_073_129_138_433_620)),
        (elliptic::partitioned(), 6, Bi, false, [16, 0, 0], Some(8_904_144_001_910_222_124)),
        (elliptic::partitioned_with(7, Uni), 7, Uni, false, [36, 7, 20], Some(7_712_625_605_438_842_881)),
        (elliptic::partitioned_with(7, Uni), 7, Bi, false, [16, 0, 0], Some(16_489_283_103_676_968_278)),
        (elliptic::partitioned_with(6, Bi), 6, Uni, false, [7, 5, 7], None),
        (elliptic::partitioned_with(6, Bi), 6, Bi, false, [16, 0, 0], Some(11_777_273_506_966_985_448)),
        (ar_filter::simple(), 3, Uni, false, [34, 0, 0], Some(17_152_662_166_648_974_640)),
        (ar_filter::simple(), 3, Bi, false, [34, 0, 0], Some(4_018_850_064_621_396_327)),
        (ar_filter::simple(), 3, Uni, true, [34, 0, 0], Some(2_023_733_299_128_792_874)),
        (synthetic::fig_2_5(), 2, Uni, false, [15, 0, 4], Some(17_657_194_100_624_212_170)),
        (synthetic::fig_2_5(), 2, Bi, false, [15, 0, 4], Some(18_339_003_398_494_804_263)),
    ]
}

/// A cache-enabled portfolio of four, and a rerun seeded with the
/// first run's failure proofs, reproduce the counts and the connection
/// recorded before the search kept its state in place.
#[test]
fn portfolio_of_four_matches_pinned_counts() {
    use mcs_connect::synthesize_seeded;
    let d = designs::synthetic::portfolio_adversarial(6);
    let cfg = SearchConfig::new(2).with_portfolio(4);
    let (ic, stats, learned) = synthesize_seeded(d.cdfg(), PortMode::Unidirectional, &cfg, &[]);
    assert_eq!((stats.nodes, stats.prunes, stats.backtracks), (608, 1, 496));
    assert_eq!(
        (
            stats.cache_hits,
            stats.cache_entries,
            stats.epochs,
            stats.winner
        ),
        (0, 496, 1, Some(1))
    );
    assert_eq!(learned.len(), 496);
    let ic = ic.expect("the portfolio connects");
    let pins: u32 = (0..d.cdfg().partition_count())
        .map(|p| ic.pins_used(PartitionId::new(p as u32)))
        .sum();
    assert_eq!((ic.buses.len(), pins), (16, 288));
    assert_eq!(debug_digest(&ic), 8_895_038_492_873_116_976);

    let (again, seeded, _) = synthesize_seeded(d.cdfg(), PortMode::Unidirectional, &cfg, &learned);
    assert_eq!(
        (seeded.nodes, seeded.cache_hits, seeded.seed_hits),
        (608, 6, 6)
    );
    assert_eq!(again.expect("the seeded rerun connects"), ic);
}

/// FNV-1a over the `Debug` rendering: pins a whole connection structure
/// in one number.
fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}
