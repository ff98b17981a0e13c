//! Counting-allocator proof that small records never touch the heap: a
//! record of at most two fields keeps its values inline, so building,
//! cloning and reviving one from page bytes allocates nothing.
//!
//! This file holds exactly one `#[test]` so no sibling test can run
//! concurrently inside the process and pollute the allocation counters.

use dataflow::page::PageWriter;
use dataflow::prelude::Record;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
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
fn two_field_records_build_clone_and_revive_without_allocating() {
    const RECORDS: i64 = 10_000;

    let mut writer = PageWriter::new();
    for i in 0..RECORDS {
        if i % 2 == 0 {
            writer.push(&Record::pair(i, -i));
        } else {
            writer.push(&Record::long_double(i, i as f64 * 0.5));
        }
    }
    let pages = writer.finish();

    let start = allocations();
    let mut checksum = 0i64;
    for i in 0..RECORDS {
        let pair = black_box(Record::pair(i, i + 1));
        let rank = black_box(Record::long_double(i, 0.25));
        let copy = black_box(pair.clone());
        checksum = checksum.wrapping_add(copy.long(1) + rank.long(0));
    }
    let build_allocations = allocations() - start;

    let mut scratch = Record::empty();
    let start = allocations();
    for page in &pages {
        for view in page.reader() {
            view.read_into(&mut scratch);
            let copy = black_box(scratch.clone());
            checksum = checksum.wrapping_add(copy.long(0));
        }
    }
    let revive_allocations = allocations() - start;

    assert_ne!(checksum, 0);
    assert_eq!(
        build_allocations, 0,
        "building or cloning two-field records allocated"
    );
    assert_eq!(
        revive_allocations, 0,
        "reviving two-field page records into a scratch record allocated"
    );
}
