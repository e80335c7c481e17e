//! Byte-mutation fuzzing of every untrusted-input reader: `.mcs` design
//! text, `DesignDelta` specs, serve wire requests, saved results,
//! imported metrics snapshots and raw JSON. Each mutated input goes
//! through every reader, and each reader must return `Ok` or `Err` —
//! never panic, never overflow the stack. Whatever a reader accepts is
//! then driven past it: a saved result through `resynth_flow` on its
//! design under a fixed set of edits, a delta through
//! `DesignDelta::apply` on every named design, with the same rule.
//!
//! Seeds are the shipped designs, the fuzz corpus, the committed BENCH
//! lines, real saved results and metrics snapshots, a few delta specs
//! and serve requests, and a deep-nesting family. Mutations are drawn by
//! the in-tree proptest shim from fixed per-case seeds, so a failure
//! replays exactly and is shrunk to a short mutation list.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use mcs_cdfg::delta::DesignDelta;
use mcs_cdfg::designs::{ar_filter, elliptic, Design};
use mcs_cdfg::format;
use mcs_cdfg::fuzz::design_digest;
use mcs_ctl::json::{self, MAX_DEPTH};
use mcs_metrics::{export as metrics_export, MetricsHandle, Registry};
use mcs_serve::proto::parse_request;
use multichip_hls::flows::{connect_first_flow, simple_flow, ConnectFirstOptions};
use multichip_hls::resynth::{result_from_json, result_to_json, resynth_flow};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.mcs` file directly under `dir`, sorted by name.
fn mcs_files(dir: &Path) -> Vec<String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "mcs"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect()
}

fn metrics_sample() -> String {
    let reg = std::sync::Arc::new(Registry::new());
    let m = MetricsHandle::new(reg.clone());
    m.add("ilp.pivots", 42);
    m.add("serve.jobs.résumé", 1);
    m.gauge("explore.frontier").set(-3);
    let h = m.histogram("probe.latency_us.solver");
    for v in [2u64, 3, 3, 90, 4096] {
        h.observe(v);
    }
    {
        let _flow = m.span("flow");
        let _c = m.span("connect");
    }
    metrics_export::to_json(&reg.snapshot())
}

/// The designs the saved-result seeds come from, each with the edits a
/// mutated saved result is replayed under: a rate change, a transfer
/// narrowing and a chip-local widening.
fn designs() -> &'static [(Design, [&'static str; 3])] {
    static DESIGNS: OnceLock<Vec<(Design, [&'static str; 3])>> = OnceLock::new();
    DESIGNS.get_or_init(|| {
        vec![
            (
                ar_filter::simple(),
                ["rate:3", "width:b2s=7", "width:m1=16"],
            ),
            (
                elliptic::partitioned(),
                ["rate:7", "width:e2=15", "width:a1=8"],
            ),
        ]
    })
}

/// The seed inputs, built once.
fn seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let mut seeds = Vec::new();
        for dir in ["examples/designs", "examples/benchmarks", "tests/corpus"] {
            seeds.extend(mcs_files(&repo().join(dir)));
        }
        for bench in ["probe", "fuzz", "serve", "resynth"] {
            let text = std::fs::read_to_string(repo().join(format!("BENCH_{bench}.json")))
                .expect("committed BENCH file");
            seeds.extend(text.lines().map(str::to_string));
        }
        let [(ar, _), (ell, _)] = designs() else {
            unreachable!("two designs")
        };
        let ar_result = simple_flow(ar.cdfg(), 2).expect("the chapter 3 experiment succeeds");
        let ar_saved = result_to_json(design_digest(ar.cdfg()), &ar_result);
        let ell_result = connect_first_flow(ell.cdfg(), &ConnectFirstOptions::new(6))
            .expect("the elliptic benchmark synthesizes at rate 6");
        let ell_saved = result_to_json(design_digest(ell.cdfg()), &ell_result);
        let ar_text = format::write(ar.cdfg());
        seeds.push(format!(
            "{{\"cmd\":\"synth\",\"design\":\"{}\",\"rate\":2,\"flow\":\"simple\",\
             \"pin_budget\":[48,64],\"budget\":{{\"deadline_ms\":250,\"max_nodes\":1000}}}}",
            json::escape(&ar_text)
        ));
        seeds.push(format!(
            "{{\"cmd\":\"resynth\",\"design\":\"{}\",\"prev\":\"{}\",\"edit\":\"rate:3\"}}",
            json::escape(&ar_text),
            json::escape(&ar_saved)
        ));
        seeds.push(
            "{\"cmd\":\"explore\",\"design\":\"x\",\"rates\":[4,5],\"pin_budgets\":[[48,64],[32,32]]}"
                .into(),
        );
        seeds.push(ar_saved);
        seeds.push(ell_saved);
        seeds.push(metrics_sample());
        for spec in [
            "width:m1=16",
            "rate:7",
            "move:a1=2; drop:o1",
            "add:n9=mul,1,16,m1,a1;width:a1=8",
        ] {
            seeds.push(spec.into());
        }
        for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
            seeds.push(format!("{}{}", "[".repeat(depth), "]".repeat(depth)));
            seeds.push(format!("{}0{}", "{\"a\":".repeat(depth), "}".repeat(depth)));
        }
        seeds.push(format!(
            "{{\"cmd\":\"resynth\",\"design\":\"chip a 8\",\"prev\":\"{}\",\"edit\":\"rate:3\"}}",
            "[".repeat(10_000)
        ));
        seeds
    })
}

/// Token fragments worth splicing in: structure, escapes, number edges.
const TOKENS: [&str; 16] = [
    "[",
    "{",
    "\"",
    "\\",
    "\\u",
    "\\ud83d",
    ",",
    ":",
    "-",
    "e",
    "0",
    ".",
    "18446744073709551616",
    "-9223372036854775809",
    "\u{0}",
    "é",
];

/// Applies one `(position, kind, byte)` mutation.
fn mutate(bytes: &mut Vec<u8>, (pos, kind, byte): (u32, u8, u8)) {
    let at = |n: usize| pos as usize % (n + 1);
    match kind {
        0 if !bytes.is_empty() => {
            let i = at(bytes.len() - 1);
            bytes[i] ^= 1 << (byte % 8);
        }
        1 if !bytes.is_empty() => {
            let i = at(bytes.len() - 1);
            bytes[i] = byte;
        }
        2 if !bytes.is_empty() => {
            let i = at(bytes.len() - 1);
            let end = (i + 1 + byte as usize % 16).min(bytes.len());
            bytes.drain(i..end);
        }
        3 => {
            let i = at(bytes.len());
            let token = TOKENS[byte as usize % TOKENS.len()].as_bytes();
            bytes.splice(i..i, token.iter().copied());
        }
        4 if !bytes.is_empty() => {
            // Duplicate a span in place: repeats structure and escapes.
            let i = at(bytes.len() - 1);
            let end = (i + 1 + byte as usize % 64).min(bytes.len());
            let span = bytes[i..end].to_vec();
            bytes.splice(i..i, span);
        }
        _ => {
            let i = at(bytes.len());
            bytes.insert(i, byte);
        }
    }
}

/// A reader under test: its name and a call that discards the result.
type Reader = (&'static str, fn(&str));

const READERS: [Reader; 6] = [
    ("json::parse", |t| drop(json::parse(t))),
    ("serve::proto::parse_request", |t| drop(parse_request(t))),
    ("resynth::result_from_json", |t| drop(result_from_json(t))),
    ("metrics::export::from_json", |t| {
        drop(metrics_export::from_json(t))
    }),
    ("DesignDelta::parse", |t| drop(DesignDelta::parse(t))),
    ("cdfg::format::parse", |t| drop(format::parse(t))),
];

/// Runs every reader on `text`; names the first one that panicked.
fn panicking_reader(text: &str) -> Option<&'static str> {
    READERS
        .into_iter()
        .find(|(_, read)| catch_unwind(AssertUnwindSafe(|| read(text))).is_err())
        .map(|(name, _)| name)
}

/// Drives what the readers accept past them. A saved result runs
/// through `resynth_flow` under its design's edits, on the design its
/// seed was synthesized from (`seed`, before mutation); a delta is
/// applied to every design. Names the first consumer that panicked.
fn panicking_consumer(seed: &str, text: &str) -> Option<String> {
    let panics = |run: &dyn Fn()| catch_unwind(AssertUnwindSafe(run)).is_err();
    if let (Ok(saved), Ok(origin)) = (result_from_json(text), result_from_json(seed)) {
        let home = designs()
            .iter()
            .find(|(d, _)| design_digest(d.cdfg()) == origin.design_digest);
        if let Some((design, edits)) = home {
            for edit in edits {
                let delta = DesignDelta::parse(edit).expect("fixed edits parse");
                if panics(&|| drop(resynth_flow(design.cdfg(), &saved.result, &delta))) {
                    return Some(format!("resynth_flow under `{edit}`"));
                }
            }
        }
    }
    if let Ok(delta) = DesignDelta::parse(text) {
        for (design, _) in designs() {
            if panics(&|| drop(delta.apply(design.cdfg()))) {
                return Some(format!("DesignDelta::apply on {}", design.name()));
            }
        }
    }
    None
}

/// Every seed is accepted by the reader it was written for, so the
/// mutations start from inputs that reach deep into each reader.
#[test]
fn seeds_parse_before_mutation() {
    let seeds = seeds();
    let json_seeds = seeds.iter().filter(|s| json::parse(s).is_ok()).count();
    let designs = seeds.iter().filter(|s| format::parse(s).is_ok()).count();
    let deltas = seeds
        .iter()
        .filter(|s| !s.starts_with(['[', '{']) && DesignDelta::parse(s).is_ok())
        .count();
    let saved = seeds.iter().filter(|s| result_from_json(s).is_ok()).count();
    let requests = seeds.iter().filter(|s| parse_request(s).is_ok()).count();
    let metrics = seeds
        .iter()
        .filter(|s| metrics_export::from_json(s).is_ok())
        .count();
    assert!(json_seeds >= 20, "{json_seeds} JSON seeds");
    assert!(designs >= 9, "{designs} design seeds");
    assert!(deltas >= 4, "{deltas} delta seeds");
    assert_eq!((saved, requests, metrics), (2, 4, 1));
    assert_eq!(panicking_reader(&seeds[0]), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6000))]

    #[test]
    fn mutated_inputs_never_panic_a_reader(
        pick in any::<u32>(),
        mutations in prop::collection::vec((any::<u32>(), 0u8..6, any::<u8>()), 1..8),
    ) {
        let seeds = seeds();
        let seed = &seeds[pick as usize % seeds.len()];
        let mut bytes = seed.clone().into_bytes();
        for &m in &mutations {
            mutate(&mut bytes, m);
        }
        let text = String::from_utf8_lossy(&bytes);
        let panicked = panicking_reader(&text);
        prop_assert!(panicked.is_none(), "{panicked:?} panicked on {text:?}");
        let panicked = panicking_consumer(seed, &text);
        prop_assert!(panicked.is_none(), "{panicked:?} panicked on {text:?}");
    }
}
