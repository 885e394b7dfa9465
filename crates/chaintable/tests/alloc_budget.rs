//! Allocation budgets for the MigratingTable harness.
//!
//! The harness's test doubles — the in-memory backend tables, the reference
//! model and the handlers that move rows between them — used to dominate a
//! MigratingTable execution: every single-row write cloned a whole table,
//! every read allocated its start key, every query start cloned the model's
//! per-key version map and handlers cloned rows out of events they owned.
//! Then every row copy still allocated its key, a property-map node and a
//! property name. Rows are now shared immutable values, so a copy is a
//! reference-count increment. These tests pin what is left: pooled
//! executions of three named bugs stay under a per-execution allocation
//! budget, and a point read, hit or miss, allocates nothing.
//!
//! The counting `#[global_allocator]` is armed per thread, so other test
//! threads' allocations never land in a measurement window, and windows
//! serialize on a mutex because the counter is process-global (the same
//! design as `psharp`'s own `alloc_budget` test).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use chaintable::harness::{build_harness, ChainConfig};
use chaintable::table::{ChainTableExt, InMemoryTable, Row, TableOperation};
use psharp::prelude::*;

/// Counts every allocation (and growth `realloc`) the armed thread makes.
struct CountingAllocator;

thread_local! {
    /// Whether *this thread* is inside a measurement window (`const`-
    /// initialized, so reading it inside the allocator never allocates).
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Serializes measurement windows: the counter is process-global.
static MEASURE: Mutex<()> = Mutex::new(());

/// Runs `body` with the counter armed and returns how many allocations it
/// made.
fn count_allocations<R>(body: impl FnOnce() -> R) -> (u64, R) {
    let _window = MEASURE.lock().expect("measurement lock poisoned");
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.with(|armed| armed.set(true));
    let result = body();
    ARMED.with(|armed| armed.set(false));
    (ALLOCATIONS.load(Ordering::SeqCst), result)
}

const MAX_STEPS: usize = 10_000;
const EXECUTIONS: u64 = 200;

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        max_steps: MAX_STEPS,
        ..RuntimeConfig::default()
    }
}

/// Mean allocations of one pooled execution of the named bug's harness:
/// [`Runtime::reset`] under a fresh random scheduler, [`build_harness`] and
/// [`Runtime::run`] — the engines' cross-iteration path, bug reports
/// included. One warm-up execution first grows the runtime's pooled buffers.
fn pooled_allocations_per_execution(bug: &str, seed: u64) -> f64 {
    let config = ChainConfig::for_named_bug(bug).expect("known bug");
    let mut rt = Runtime::new(
        SchedulerKind::Random.build(seed, MAX_STEPS),
        runtime_config(),
        seed,
    );
    build_harness(&mut rt, &config);
    rt.run();
    let (allocations, ()) = count_allocations(|| {
        for execution in 1..=EXECUTIONS {
            let seed = seed.wrapping_add(execution);
            rt.reset(
                SchedulerKind::Random.build(seed, MAX_STEPS),
                runtime_config(),
                seed,
            );
            build_harness(&mut rt, &config);
            rt.run();
        }
    });
    allocations as f64 / EXECUTIONS as f64
}

/// Pooled executions stay under a pinned per-execution budget. Measured the
/// same way, the three harnesses allocated 464, 541 and 285 times per
/// execution while a write cloned its table and handlers cloned rows out of
/// events, then 237, 279 and 154 times while each row copy allocated. With
/// shared rows they allocate 99.5, 118.4 and 70.3 times: about one
/// `Event::new` box per message and monitor notification, plus the
/// harness's set-up. Each budget is that figure plus 5 %, under half the
/// previous one.
#[test]
fn pooled_migrating_table_executions_stay_under_budget() {
    for (bug, seed, budget) in [
        ("QueryStreamedBackUpNewStream", 3, 104.0),
        ("DeletePrimaryKey", 5, 124.0),
        ("MigrateSkipUseNewWithTombstones", 7, 74.0),
    ] {
        let per_execution = pooled_allocations_per_execution(bug, seed);
        assert!(
            per_execution <= budget,
            "{bug}: {per_execution:.1} allocations per pooled execution, budget {budget}"
        );
    }
}

/// A point read shares the row it returns, so neither the read nor a copy of
/// the row allocates, and a miss allocates nothing, even when a later key is
/// stored.
#[test]
fn point_reads_allocate_only_the_row_they_return() {
    let mut table = InMemoryTable::new();
    for key in ["a", "c"] {
        table
            .execute(TableOperation::Insert(Row::with_int(key, "v", 1)))
            .expect("insert");
    }
    let (allocations, present) = count_allocations(|| table.read("a"));
    let present = present.expect("a is stored");
    let (row_allocations, _copy) = count_allocations(|| present.row.clone());
    assert_eq!(row_allocations, 0, "a row copy allocates nothing");
    assert_eq!(allocations, 0, "a hit allocates nothing");

    let (allocations, absent) = count_allocations(|| table.read("b"));
    assert!(absent.is_none());
    assert_eq!(allocations, 0, "a miss allocates nothing");
}
