//! Nested common data: assemblies reference parts, parts reference
//! materials ("common data may again contain common data", §2). Shows
//! transitive downward propagation and the authorization-aware rule 4′ over
//! two levels of inner units.
//!
//! Run with: `cargo run --example part_library`
//!
//! With `COLOCK_TRACE=1` the run also captures a structured lock-event trace
//! and closes with a trace-explain timeline of every transaction, each lock
//! annotated with the §4.4.2 rule that caused it (see README "Tracing a
//! run").

use colock::core::authorization::{Authorization, Right};
use colock::core::{AccessMode, InstanceTarget};
use colock::lockmgr::LockMode;
use colock::sim::workload::partlib::{assembly_key, build_partlib_store, PartLibConfig};
use colock::trace::explain::{render_timeline, timeline};
use colock::txn::{ProtocolKind, TransactionManager, TxnKind};

fn main() {
    let tracing = colock::trace::enable_from_env();
    let mark = colock::trace::current_seq();
    let cfg = PartLibConfig {
        n_assemblies: 4,
        parts_per_assembly: 3,
        n_parts: 10,
        n_materials: 3,
        seed: 11,
    };
    let store = build_partlib_store(&cfg);
    println!(
        "built {} assemblies over a library of {} parts and {} materials\n",
        store.len("assemblies").unwrap(),
        store.len("parts").unwrap(),
        store.len("materials").unwrap(),
    );

    // Designers may update assemblies; the part and material libraries are
    // curated elsewhere and read-only here.
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("parts", Right::Read);
    authz.set_relation_default("materials", Right::Read);
    let mgr = TransactionManager::over_store(store, authz, ProtocolKind::Proposed);

    // Updating an assembly X-locks it and — via downward propagation across
    // TWO superunit boundaries — S-locks its parts and their materials.
    let t = mgr.begin(TxnKind::Short);
    let target = InstanceTarget::object("assemblies", assembly_key(0));
    let counts = t.lock(&target, AccessMode::Update).unwrap();
    let mut held = mgr.lock_manager().locks_of(t.id());
    held.sort();
    println!("locks held after X on assembly a1:");
    for (resource, mode, _) in &held {
        println!("{resource}: {mode}");
    }
    println!(
        "\nentry points locked transitively (parts + materials): {}",
        counts.entry_points_locked
    );

    // A second designer updates another assembly sharing parts: concurrent.
    let t2 = mgr.begin(TxnKind::Short);
    let ok = t2
        .try_lock(&InstanceTarget::object("assemblies", assembly_key(1)), AccessMode::Update)
        .is_ok();
    println!("second designer works concurrently on a2: {ok}");
    assert!(ok, "updaters of assemblies sharing parts must not conflict");

    // A librarian WITH update rights on parts tries to modify a part both
    // assemblies use — properly blocked by the S entry-point locks.
    let librarian_mgr = mgr.lock_manager();
    let part = held
        .iter()
        .find(|(r, m, _)| r.relation_name() == Some("parts") && *m == LockMode::S)
        .map(|(r, _, _)| r.clone())
        .expect("a part entry lock");
    let holders = librarian_mgr.holders(&part);
    println!(
        "entry-point {} currently held by {} transaction(s) in S — an X would wait",
        part,
        holders.len()
    );
    assert!(holders.contains(&(t.id(), LockMode::S)), "the designer holds the part's entry lock");

    t.commit().unwrap();
    t2.commit().unwrap();

    // The §4.5 semantic exploitation: deleting an assembly never reads its
    // parts, so no locks on the libraries are taken at all.
    let t3 = mgr.begin(TxnKind::Short);
    t3.lock_no_deref(&InstanceTarget::object("assemblies", assembly_key(2)), AccessMode::Update)
        .unwrap();
    let lib_locks = (mgr.lock_manager().locks_of(t3.id()).iter())
        .filter(|(r, _, _)| matches!(r.relation_name(), Some("parts") | Some("materials")))
        .count();
    println!("\ndelete-style access to a3 took {lib_locks} locks on the libraries (semantics exploited)");
    assert_eq!(lib_locks, 0, "an access that never dereferences locks no library entry");
    t3.commit().unwrap();

    if tracing {
        println!("\n--- trace-explain (COLOCK_TRACE was set) ---\n");
        print!("{}", render_timeline(&timeline(&colock::trace::events_since(mark))));
    }
}

/// `cargo test` runs the example (its `[[example]]` entry sets `test`), so
/// the claims it prints are checked, not only shown.
#[test]
fn the_part_library_walkthrough_holds_its_claims() {
    main();
}
