//! Allocation-count guard for the copy-on-write write path.
//!
//! A counting [`GlobalAlloc`] wrapper tracks every heap allocation made by
//! the test thread. One autocommit `put` that overwrites a record of a
//! loaded database path-copies one node per level. Each copy costs three
//! allocations: the node itself, its key vector, and its value or child
//! vector. The new value costs one more. Keys and values are shared by
//! reference count, so no copy duplicates the bytes of an entry it did not
//! write. A tree that deep-copied its entries would make about two
//! allocations per entry in every copied node instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hat_kvdb::{Database, DbConfig, SyncMode};

/// Pass-through allocator that counts allocation events (alloc, zeroed
/// alloc, and growth reallocs) on threads that opted into tracking.
struct CountingAlloc;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with` keeps allocations during thread teardown (after TLS
    // destruction) from panicking inside the allocator.
    let _ = TRACKING.try_with(|t| {
        if t.get() {
            let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn tracked_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOC_EVENTS.with(|c| c.get());
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    let after = ALLOC_EVENTS.with(|c| c.get());
    (out, after - before)
}

const RECORDS: u32 = 10_000;
const VALUE_LEN: usize = 1000;

fn key(i: u32) -> Vec<u8> {
    format!("user{i:020}").into_bytes()
}

#[test]
fn autocommit_put_allocates_per_level_not_per_entry() {
    let db = Database::new(DbConfig { sync_mode: SyncMode::NoSync, ..Default::default() });
    let mut txn = db.begin_write().unwrap();
    for i in 0..RECORDS {
        txn.put(&key(i), &[i as u8; VALUE_LEN]);
    }
    txn.commit();
    let depth = db.depth() as u64;
    assert!(depth >= 3, "a 10k-record tree has branches above its leaves (depth {depth})");

    // Everything the measured puts touch is allocated up front.
    let value = vec![0x5Au8; VALUE_LEN];
    let targets: Vec<Vec<u8>> = (0..RECORDS).step_by(997).map(key).collect();
    db.put(&targets[0], &value); // warm every first-use path once

    // Sanity: the counter itself works (a boxed value is one event).
    let (_, counted) = tracked_allocs(|| std::hint::black_box(Box::new(17u64)));
    assert!(counted >= 1, "counting allocator saw {counted} events for a Box::new");

    let bound = 3 * depth + 2;
    for target in &targets {
        let ((), allocs) = tracked_allocs(|| db.put(target, &value));
        assert!(
            allocs <= bound,
            "put of {:?} made {allocs} allocations, over 3 x depth + 2 = {bound} \
             at depth {depth}",
            String::from_utf8_lossy(target)
        );
    }
    for target in &targets {
        assert_eq!(db.get(target).as_deref(), Some(&value[..]));
    }
    assert_eq!(db.len(), RECORDS as usize);
}
