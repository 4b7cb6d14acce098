//! Allocation ledger: exact heap-allocation counts for the resource-identity
//! operations on the lock path, pinned as budgets.
//!
//! A count is the same on every host and every run, so a change that adds
//! an allocation to one of these operations fails here on any machine. The
//! budgets are a ratchet: lower one when a change removes allocations;
//! raise one only with the reason recorded in `CHANGES.md`.
//!
//! The counting allocator needs `unsafe` (`GlobalAlloc` is an unsafe
//! trait). An integration test is its own crate, so the library crates keep
//! their `#![forbid(unsafe_code)]`.

use colock::core::fixtures::fig1_catalog;
use colock::core::{InstanceTarget, ProtocolEngine, ResourcePath};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// [`System`], counting the allocations of the thread being measured (the
/// harness runs tests on several threads; only the caller's count).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the count is a const-initialised
// thread-local `Cell` without a destructor, so bumping it neither allocates
// nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) `f` makes on this thread;
/// its result is dropped outside the count.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The mixes' write target: `cells[c1].robots[r1].trajectory`, seven steps
/// from the database down.
fn trajectory() -> InstanceTarget {
    InstanceTarget::object("cells", "c1").elem("robots", "r1").attr("trajectory")
}

#[test]
fn resource_views_allocate_nothing_but_the_ancestor_list() {
    let engine = ProtocolEngine::new(Arc::new(fig1_catalog()));
    let path: ResourcePath = engine.resource_for(&trajectory()).unwrap();
    assert_eq!(path.len(), 7);

    assert_eq!(allocations(|| path.clone()).0, 0, "clone");
    assert_eq!(allocations(|| path.parent()).0, 0, "parent");
    assert_eq!(allocations(|| path.object_prefix()).0, 0, "object_prefix");
    let (n, ancestors) = allocations(|| path.ancestors());
    assert_eq!(ancestors.len(), 6);
    assert_eq!(n, 1, "ancestors: the returned Vec only");
}

/// Resolving the trajectory target: one `String` per named step (database,
/// segment, relation, object key, `robots`, element key, `trajectory`),
/// the step vector, the spine's `Arc` and its prefix-hash slice.
const RESOLVE_TRAJECTORY_BUDGET: u64 = 10;

#[test]
fn resolving_a_trajectory_target_stays_within_budget() {
    let engine = ProtocolEngine::new(Arc::new(fig1_catalog()));
    let target = trajectory();
    engine.resource_for(&target).unwrap();
    let (n, path) = allocations(|| engine.resource_for(&target).unwrap());
    assert_eq!(path.to_string(), "db:db1/seg:seg1/rel:cells/obj:c1/robots/[r1]/trajectory");
    assert_eq!(n, RESOLVE_TRAJECTORY_BUDGET, "resource_for allocations changed: edit the budget");
}
