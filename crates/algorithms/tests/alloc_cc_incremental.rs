//! Counting-allocator bound on incremental Connected Components: with
//! two-field records kept inline, a workset run allocates per superstep and
//! per sealed page, not per candidate record.
//!
//! This file holds exactly one `#[test]` so no sibling test can run
//! concurrently inside the process and pollute the allocation counters.

use algorithms::{cc_incremental, oracles, ComponentsConfig};
use graphdata::DatasetProfile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator and counts every allocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn cc_incremental_allocates_less_than_once_per_twenty_candidates() {
    // A Webbase stand-in: a power-law core plus a long chain, so the run
    // has both heavy early supersteps and a long tail of near-empty ones.
    let graph = DatasetProfile::webbase().generate(16_384);
    let config = ComponentsConfig::new(2);

    // The first run starts the worker pool; only the second is counted.
    cc_incremental(&graph, &config).unwrap();
    let start = allocations();
    let result = cc_incremental(&graph, &config).unwrap();
    let allocated = allocations() - start;

    assert!(result.converged);
    let oracle: Vec<i64> = oracles::connected_components(&graph)
        .into_iter()
        .map(i64::from)
        .collect();
    assert_eq!(result.components, oracle);
    let candidates: usize = result
        .stats
        .per_iteration
        .iter()
        .map(|s| s.workset_size)
        .sum();
    assert!(
        allocated * 20 < candidates,
        "{allocated} allocations for {candidates} candidates over {} supersteps \
         (bound: fewer than one per 20 candidates)",
        result.iterations
    );
}
