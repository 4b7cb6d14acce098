//! `colock-check` — offline conformance checker and trace explainer.
//!
//! Modes:
//!
//! * **`colock_check <file>`** — parses a trace previously dumped in the
//!   tab-separated [`colock_trace::Event`] line format (one event per line,
//!   as produced by `Event::to_line`) and runs the §4.4.2 protocol linter
//!   over it. Malformed lines are reported with their typed parse error and
//!   line number. Exits non-zero if any violation (or parse failure) is
//!   found.
//! * **`colock_check --certify <file>`** — parses the same line format and
//!   runs the conflict-serializability certifier instead: the trace's
//!   conflict graph (r/w, semantic-mode, and MVCC reads-from edges over
//!   committed transactions) is rebuilt and checked for cycles. Any cycle
//!   is rendered with its per-transaction timeline and a DOT export, and
//!   the exit code is non-zero.
//! * **`colock_check --explain <file>|demo`** — replays a trace into
//!   per-transaction timelines, each lock annotated with the §4.4.2 rule
//!   that caused it. `demo` runs the shared contention demo (two
//!   read/update transactions, then a forced two-transaction deadlock),
//!   explains its trace and prints the waits-for DOT graph the detector
//!   exported.
//! * **`colock_check --self-test`** — exercises the whole checking stack
//!   end to end: static analysis of the derived cells lock graph and the
//!   compatibility matrix, a live traced run of the contention demo (which
//!   must detect at least one deadlock, resolve every one of them, lint
//!   clean, and certify conflict-serializable), a dump/re-parse/re-lint
//!   round trip through the line format, and a seeded write-skew trace that
//!   the linter passes but the certifier must flag.
//! * **`colock_check --dump demo|skew <file>`** — writes a reference trace
//!   in the line format: `demo` is the live contention demo (lints clean
//!   and certifies), `skew` is the seeded write-skew (lints clean, must
//!   fail `--certify`). Used by `scripts/check.sh` to exercise the file
//!   modes end to end.
//!
//! ```text
//! cargo run --release --bin colock_check -- /tmp/run.trace
//! cargo run --release --bin colock_check -- --certify /tmp/run.trace
//! cargo run --release --bin colock_check -- --explain demo
//! cargo run --release --bin colock_check -- --self-test
//! ```

use colock_bench::contention_demo;
use colock_check::{check_graph, check_matrix, Certifier, Linter};
use colock_core::graph::derive_lock_graph;
use colock_sim::{build_cells_store, CellsConfig};
use colock_trace::explain::{render_timeline, timeline};
use colock_trace::{Event, EventKind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--self-test") => self_test(),
        Some("--certify") => match args.get(1) {
            Some(path) => certify_file(path),
            None => {
                eprintln!("usage: colock_check --certify <trace-file>");
                std::process::exit(2);
            }
        },
        Some("--explain") => match args.get(1).map(String::as_str) {
            Some("demo") => explain_demo(),
            Some(path) => explain_file(path),
            None => {
                eprintln!("usage: colock_check --explain <trace-file>|demo");
                std::process::exit(2);
            }
        },
        Some("--dump") => match (args.get(1).map(String::as_str), args.get(2)) {
            (Some(which @ ("demo" | "skew")), Some(path)) => dump_trace(which, path),
            _ => {
                eprintln!("usage: colock_check --dump demo|skew <trace-file>");
                std::process::exit(2);
            }
        },
        Some(path) => check_file(path),
        None => {
            eprintln!(
                "usage: colock_check <trace-file> | colock_check --certify <trace-file> | \
                 colock_check --explain <trace-file>|demo | \
                 colock_check --dump demo|skew <trace-file> | colock_check --self-test"
            );
            std::process::exit(2);
        }
    }
}

/// Writes a reference trace in the `Event::to_line` format: the live
/// contention demo (clean) or the seeded write-skew (non-serializable).
fn dump_trace(which: &str, path: &str) {
    let events = match which {
        "demo" => contention_demo().0,
        _ => write_skew_trace(),
    };
    let dump: String = events.iter().map(|e| e.to_line() + "\n").collect();
    if let Err(e) = std::fs::write(path, &dump) {
        eprintln!("colock-check: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("colock-check: wrote {} {which} events to {path}", events.len());
}

/// Reads `path` as one `Event::to_line` record per line; parse failures are
/// reported with their line number and counted.
fn parse_trace(path: &str) -> (Vec<Event>, usize) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("colock-check: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let mut events: Vec<Event> = Vec::new();
    let mut bad_lines = 0usize;
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Event::parse_line(line) {
            Ok(ev) => events.push(ev),
            Err(e) => {
                eprintln!("colock-check: {path}:{}: {e}", no + 1);
                bad_lines += 1;
            }
        }
    }
    (events, bad_lines)
}

/// Parses `path` as one `Event::to_line` record per line and lints the
/// resulting stream. Without a schema at hand the relation-level entry-point
/// placement check is skipped; everything else runs.
fn check_file(path: &str) {
    let (events, bad_lines) = parse_trace(path);
    let report = Linter::new().lint(&events);
    println!(
        "colock-check: {} events from {path} ({bad_lines} malformed lines)",
        events.len()
    );
    print!("{}", report.render_with_context(&events));
    if !report.is_clean() || bad_lines > 0 {
        std::process::exit(1);
    }
}

/// Parses `path` and renders its per-transaction timelines.
fn explain_file(path: &str) {
    let (events, bad_lines) = parse_trace(path);
    println!("colock-check: {} events from {path} ({bad_lines} malformed lines)\n", events.len());
    print!("{}", render_timeline(&timeline(&events)));
}

/// Runs the contention demo and explains it: timelines, then the waits-for
/// graph the detector saw.
fn explain_demo() {
    println!("colock-check — built-in contention demo (tracing enabled)\n");
    let (events, dots) = contention_demo();
    println!("captured {} events; per-transaction timelines:\n", events.len());
    print!("{}", render_timeline(&timeline(&events)));
    if dots.is_empty() {
        println!("\n(no waits-for graph exported — detector never found a cycle)");
    } else {
        println!("\nwaits-for graph at detection time (render with `dot -Tsvg`):\n");
        for dot in &dots {
            println!("{dot}");
        }
    }
}

/// Rebuilds the conflict graph from `path` and reports whether the trace is
/// conflict-serializable. Cycles are rendered with their member timelines
/// and a DOT export of the cyclic subgraph.
fn certify_file(path: &str) {
    let (events, bad_lines) = parse_trace(path);
    let report = Certifier::new().certify(&events);
    println!(
        "colock-check: certifying {} events from {path} ({bad_lines} malformed lines)",
        events.len()
    );
    print!("{}", report.render_with_context(&events));
    if report.is_clean() {
        println!(
            "certify: {} committed txn(s), {} edge(s), conflict graph acyclic",
            report.txns_committed, report.edges
        );
    }
    if !report.is_clean() || bad_lines > 0 {
        std::process::exit(1);
    }
}

fn fail(what: &str, detail: impl std::fmt::Display) -> ! {
    eprintln!("colock-check self-test FAILED: {what}\n{detail}");
    std::process::exit(1)
}

/// End-to-end exercise of static analysis, live linting, and the trace file
/// round trip. Exits 0 only if every stage passes.
fn self_test() {
    // Stage 1: the derived cells lock graph and the compatibility matrix
    // must pass the static analyzer.
    let store = build_cells_store(&CellsConfig::default());
    let catalog = store.catalog();
    let graph = derive_lock_graph(catalog);
    let report = check_graph(&graph, catalog);
    if !report.is_clean() {
        fail("static analysis of the cells lock graph", report.render());
    }
    println!(
        "static: {} nodes / {} relations checked, clean",
        report.nodes_checked, report.relations_checked
    );
    let matrix_errors = check_matrix();
    if !matrix_errors.is_empty() {
        let rendered: Vec<String> = matrix_errors.iter().map(|e| e.to_string()).collect();
        fail("compatibility-matrix laws", rendered.join("\n"));
    }
    println!("static: compatibility-matrix laws hold");

    // Stage 2: a live traced run of the contention demo must detect at
    // least one deadlock, resolve every one of them, and lint clean.
    let (events, _) = contention_demo();
    let detected = events.iter().filter(|e| e.kind == EventKind::DeadlockDetected).count();
    let victims = events.iter().filter(|e| e.kind == EventKind::VictimChosen).count();
    if detected == 0 || victims == 0 {
        fail(
            "contention demo",
            format!("expected a detected+resolved deadlock, saw {detected} detections / {victims} victims"),
        );
    }
    let linter = Linter::with_catalog(catalog);
    let report = linter.lint(&events);
    if !report.is_clean() {
        fail("lint of the contention demo", report.render_with_context(&events));
    }
    println!(
        "lint: {} events, {} grants, {} deadlocks checked, clean",
        report.events_seen, report.grants_checked, report.deadlocks_checked
    );
    // The same trace must also certify: the deadlock victim aborted, so the
    // surviving committed transactions form an acyclic conflict graph.
    let cert = Certifier::new().certify(&events);
    if !cert.is_clean() {
        fail("certify of the contention demo", cert.render_with_context(&events));
    }
    println!(
        "certify: {} committed txn(s), {} edge(s), conflict graph acyclic",
        cert.txns_committed, cert.edges
    );

    // Stage 3: round trip through the on-disk line format — dump, re-parse,
    // re-lint. The re-parsed stream must be lossless and equally clean.
    let path = std::env::temp_dir().join(format!("colock_check_selftest_{}.trace", std::process::id()));
    let dump: String = events.iter().map(|e| e.to_line() + "\n").collect();
    if let Err(e) = std::fs::write(&path, &dump) {
        fail("writing round-trip trace file", e);
    }
    let (reparsed, bad_lines) = parse_trace(&path.to_string_lossy());
    if bad_lines > 0 {
        fail("round-trip parse", format!("{bad_lines} malformed lines"));
    }
    let _ = std::fs::remove_file(&path);
    if reparsed != events {
        fail("round trip", "re-parsed stream differs from the captured one");
    }
    let report = linter.lint(&reparsed);
    if !report.is_clean() {
        fail("lint of the round-tripped trace", report.render_with_context(&reparsed));
    }
    println!("round-trip: {} events dumped, re-parsed, re-linted, clean", reparsed.len());

    // Stage 4: the certifier must be strictly stronger than the linter.
    // A seeded write-skew trace — each transaction reads one container (S)
    // and inserts into the one the other is reading, with all four grants
    // co-held — satisfies every per-transaction rule (the linter passes)
    // but is not conflict-serializable (the certifier must flag the cycle).
    let skew = write_skew_trace();
    let lint = Linter::new().lint(&skew);
    if !lint.is_clean() {
        fail(
            "seeded write-skew must pass the per-transaction linter",
            lint.render_with_context(&skew),
        );
    }
    let cert = Certifier::new().certify(&skew);
    if cert.is_clean() {
        fail(
            "seeded write-skew must NOT certify",
            "the certifier reported the non-serializable trace as clean",
        );
    }
    let rendered = cert.render_with_context(&skew);
    if !rendered.contains("digraph conflict_cycle") {
        fail("write-skew cycle rendering", format!("missing DOT export:\n{rendered}"));
    }
    println!("mutation: seeded write-skew passes the linter, flagged by the certifier");
    println!("colock-check self-test OK");
}

/// Builds the seeded non-serializable trace for stage 4: two transactions,
/// each holding `S` on one object while inserting (`IN` + element `X`) into
/// the container attribute of the object the *other* one is reading, all
/// grants co-held, both committing. Proper 2PL per transaction — only the
/// cross-transaction conflict graph shows the cycle.
fn write_skew_trace() -> Vec<Event> {
    let obj_c = "db:d/seg:s/rel:r/obj:c";
    let obj_d = "db:d/seg:s/rel:r/obj:d";
    let cs = format!("{obj_c}/items");
    let ds = format!("{obj_d}/items");
    let ce = format!("{cs}/[k1]");
    let de = format!("{ds}/[k2]");
    let mut seq = 0u64;
    let mut ev = |kind: EventKind, txn: u64| {
        let mut e = Event::new(kind, txn);
        e.seq = seq;
        e.t_us = seq;
        seq += 1;
        e
    };
    vec![
        ev(EventKind::TxnBegin, 1).detail("short"),
        ev(EventKind::TxnBegin, 2).detail("short"),
        ev(EventKind::Grant, 1).mode("S").resource(obj_c).detail("immediate"),
        ev(EventKind::Grant, 2).mode("S").resource(obj_d).detail("immediate"),
        ev(EventKind::Grant, 1).mode("IN").resource(&ds).detail("immediate"),
        ev(EventKind::Grant, 2).mode("IN").resource(&cs).detail("immediate"),
        ev(EventKind::Grant, 1).mode("X").resource(&de).detail("immediate"),
        ev(EventKind::Grant, 2).mode("X").resource(&ce).detail("immediate"),
        ev(EventKind::Release, 1).mode("X").resource(&de),
        ev(EventKind::Release, 1).mode("IN").resource(&ds),
        ev(EventKind::Release, 1).mode("S").resource(obj_c),
        ev(EventKind::TxnCommit, 1),
        ev(EventKind::Release, 2).mode("X").resource(&ce),
        ev(EventKind::Release, 2).mode("IN").resource(&cs),
        ev(EventKind::Release, 2).mode("S").resource(obj_d),
        ev(EventKind::TxnCommit, 2),
    ]
}
