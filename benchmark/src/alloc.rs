//! A global allocator that forwards to the system allocator and, while a
//! thread has counting switched on, counts that thread's calls and bytes. Off
//! (the default, and the state of every untraced run) it adds one thread-local
//! load to each allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers: reading these never allocates, which an allocator
    // must not do on its own behalf.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAllocator;

impl CountingAllocator {
    #[inline]
    fn note(size: usize) {
        // `try_with`: a thread that is being torn down has no counters left
        // and is not being counted.
        let _ = COUNTING.try_with(|counting| {
            if counting.get() {
                CALLS.with(|calls| calls.set(calls.get() + 1));
                BYTES.with(|bytes| bytes.set(bytes.get() + size as u64));
            }
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are thread-local cells
// with constant initialisers and do not allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `work` with this thread's allocations counted and returns
/// `(result, calls, bytes)`.
pub fn counted<R>(work: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = (CALLS.get(), BYTES.get());
    COUNTING.set(true);
    let result = work();
    COUNTING.set(false);
    (result, CALLS.get() - before.0, BYTES.get() - before.1)
}
