//! With one client and no timers, the counts a run produces are a function
//! of the seed alone.

use colock_benchmark::gen::{self, Class, Targets};
use colock_benchmark::run::embedded_counts;

const TXNS: u64 = 20_000;

#[test]
fn same_seed_same_counts() {
    let first = embedded_counts(42, TXNS).expect("embedded run");
    let second = embedded_counts(42, TXNS).expect("embedded run");
    let names: Vec<&str> = first.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        [
            "core.locks_per_txn",
            "lockmgr.requests_per_txn",
            "lockmgr.conflict_tests_per_txn",
            "lockmgr.journal_appends_per_txn",
            "storage.versions_installed_per_txn",
        ]
    );
    // Bit-identical, not merely close: these are counts.
    assert_eq!(first, second);
    // And they are counts of something: a transaction takes locks.
    assert!(first[0].1 > 1.0 && first[1].1 > 1.0, "{first:?}");

    let other = embedded_counts(43, TXNS).expect("embedded run");
    assert_ne!(first, other, "another seed is another stream");
}

#[test]
fn another_seed_changes_the_stream_but_not_the_mix() {
    let targets = Targets::new(&gen::mix_cells());
    let cells: Vec<usize> = (0..gen::mix_cells().n_cells).collect();
    let shares = |seed: u64| -> [f64; 3] {
        let stream = gen::mix_stream(seed, 0, TXNS as usize, &targets, &cells, gen::MIX_SKEW_PCT);
        Class::ALL
            .map(|c| stream.iter().filter(|t| t.class == c).count() as f64 / stream.len() as f64)
    };
    let want = [
        gen::MIX_READONLY_PCT as f64 / 100.0,
        1.0 - (gen::MIX_READONLY_PCT + gen::MIX_LONG_PCT) as f64 / 100.0,
        gen::MIX_LONG_PCT as f64 / 100.0,
    ];
    for seed in [42, 43, 7_777] {
        for (got, want) in shares(seed).iter().zip(want) {
            assert!(
                (got - want).abs() <= 0.01,
                "seed {seed}: share {got} vs {want}"
            );
        }
    }
    let a = gen::mix_stream(42, 0, 1000, &targets, &cells, gen::MIX_SKEW_PCT);
    let b = gen::mix_stream(43, 0, 1000, &targets, &cells, gen::MIX_SKEW_PCT);
    assert_ne!(a, b);

    // The Fig. 7 generator keeps its shares too.
    let cfg = gen::fig7_cells();
    for seed in [42, 43] {
        let stream = gen::fig7_stream(seed, 0, TXNS as usize, &cfg);
        let long = stream.iter().filter(|t| t.class == Class::Long).count() as f64;
        let read = stream.iter().filter(|t| t.class == Class::Read).count() as f64;
        assert!(
            (long / TXNS as f64 - 0.10).abs() <= 0.01,
            "seed {seed}: long share"
        );
        assert!(
            (read / TXNS as f64 - 0.45).abs() <= 0.01,
            "seed {seed}: read share"
        );
    }
}
