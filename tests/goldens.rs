//! The paper's figures and deterministic claims, pinned as text.
//!
//! Every entry of `colock_bench::paper::PAPER` must print exactly
//! `tests/golden/<name>.txt`, and the single-threaded prelude of the
//! contention demo must match `tests/golden/demo_prelude.txt`. On a
//! mismatch a test writes `tests/golden/<name>.actual` beside the golden
//! and fails; a change that means to alter a text replaces the golden with
//! that file and says why. `EXPERIMENTS.md` quotes the experiment texts,
//! and each quote must equal its golden.

use colock::trace::{Event, EventKind};
use colock_bench::paper::PAPER;
use std::path::{Path, PathBuf};

/// The golden file that is not a `PAPER` entry.
const DEMO_PRELUDE: &str = "demo_prelude";

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(golden_dir().join(format!("{name}.txt"))).unwrap_or_default()
}

/// Whether `actual` equals the golden of `name`; if not, writes it to
/// `<name>.actual` and prints the first differing line.
fn matches_golden(name: &str, actual: &str) -> bool {
    let expected = golden(name);
    if expected == actual {
        return true;
    }
    std::fs::write(golden_dir().join(format!("{name}.actual")), actual).unwrap();
    let first = expected
        .lines()
        .zip(actual.lines())
        .position(|(g, a)| g != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    eprintln!("{name}: differs from tests/golden/{name}.txt at line {}", first + 1);
    false
}

#[test]
fn every_paper_text_matches_its_golden() {
    // A text whose own assertion fails (Fig. 7's "Q3 must not block")
    // counts as a mismatch, so every other text is still compared.
    let text = |name: &str, render| {
        std::panic::catch_unwind(render).unwrap_or_else(|_| format!("{name} panicked\n"))
    };
    let differ: Vec<&str> = PAPER
        .iter()
        .filter(|(name, render)| !matches_golden(name, &text(name, *render)))
        .map(|(name, _)| *name)
        .collect();
    assert!(differ.is_empty(), "texts differ from their goldens (see tests/golden/*.actual): {differ:?}");
}

#[test]
fn every_golden_file_has_a_table_entry() {
    for entry in std::fs::read_dir(golden_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "txt") {
            let stem = path.file_stem().unwrap().to_str().unwrap();
            assert!(
                stem == DEMO_PRELUDE || PAPER.iter().any(|(name, _)| *name == stem),
                "{} has no entry in colock_bench::paper::PAPER",
                path.display()
            );
        }
    }
}

/// The contention demo up to its third `begin` — the reader and the updater,
/// before the two racing threads — as lines without the seq, timestamp and
/// shard columns (the shard follows the placement hash). A transaction's
/// run of `release` lines is sorted where its own `commit`/`abort` comes
/// next: those EOT releases come in inventory-map order, also the hash's
/// (rule 5 allows any release order at EOT). An early release run keeps
/// its leaf-to-root order, as does every other line.
fn demo_prelude(events: &[Event]) -> String {
    let third_begin = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == EventKind::TxnBegin)
        .nth(2)
        .map_or(events.len(), |(i, _)| i);
    let events = &events[..third_begin];
    let mut lines: Vec<String> = events
        .iter()
        .map(|e| {
            let line = e.to_line();
            let cols: Vec<&str> = line.split('\t').collect();
            [&cols[2..4], &cols[5..]].concat().join("\t")
        })
        .collect();
    let mut start = 0;
    while start < events.len() {
        let txn = events[start].txn;
        let run = events[start..].iter().take_while(|e| e.kind == EventKind::Release && e.txn == txn);
        let end = start + run.count();
        let at_eot = events.get(end).is_some_and(|e| {
            e.txn == txn && matches!(e.kind, EventKind::TxnCommit | EventKind::TxnAbort)
        });
        if end > start && at_eot {
            lines[start..end].sort();
        }
        start = end.max(start + 1);
    }
    lines.iter().map(|l| format!("{l}\n")).collect()
}

#[test]
fn the_contention_demo_prelude_matches_its_golden() {
    let (events, dots) = colock_bench::contention_demo();
    assert!(!dots.is_empty(), "the demo's forced deadlock exported no waits-for graph");
    assert!(matches_golden(DEMO_PRELUDE, &demo_prelude(&events)), "demo prelude differs");
}

/// The fenced blocks of `markdown`, each without its fences.
fn fenced_blocks(markdown: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut open: Option<String> = None;
    for line in markdown.lines() {
        match (&mut open, line.starts_with("```")) {
            (None, true) => open = Some(String::new()),
            (Some(_), true) => blocks.extend(open.take()),
            (Some(block), false) => {
                block.push_str(line);
                block.push('\n');
            }
            (None, false) => {}
        }
    }
    blocks
}

#[test]
fn experiments_md_quotes_every_experiment_golden() {
    let doc = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md"))
        .unwrap();
    let blocks = fenced_blocks(&doc);
    let stale: Vec<&str> = PAPER
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| name.starts_with("exp"))
        .filter(|name| {
            let expected = golden(name);
            let title = expected.lines().next().unwrap();
            let quoted = blocks.iter().find(|b| b.lines().next() == Some(title));
            *quoted.unwrap_or_else(|| panic!("EXPERIMENTS.md quotes no block starting {title:?}"))
                != expected
        })
        .collect();
    assert!(stale.is_empty(), "EXPERIMENTS.md's blocks differ from their goldens: {stale:?}");
}
