//! `BENCHMARK.json` at the repo root and `src/spec.rs` name the same
//! workloads and metrics with the same units, directions and bounds.

use colock_benchmark::spec::{benchmark_json, Workload, END_TO_END, PER_LAYER};

#[test]
fn committed_contract_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with: benchmark/run.sh --print-contract > BENCHMARK.json"
    );
}

#[test]
fn names_and_limits_fit_the_contract() {
    let ok_name = |n: &str| {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let ok_unit = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(ok_name(m.name), "{}", m.name);
        assert!(ok_unit(m.unit), "{} unit {:?}", m.name, m.unit);
        names.push(m.name);
    }
    for m in &END_TO_END {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{} bound {}",
            m.name,
            m.bound
        );
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!((2..=8).contains(&Workload::ALL.len()));
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    for w in Workload::ALL {
        assert!(ok_name(w.name()) && w.why().len() <= 200 && !w.why().contains('\n'));
    }
    assert!(benchmark_json().len() <= 64 * 1024);
}
