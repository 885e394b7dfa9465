//! Pinning the process to one CPU, for the runs that use one worker.
//!
//! `ParallelTestEngine::run` spawns a thread per call even for one worker, and
//! the kernel places a new thread on the idlest CPU — the other one — so a
//! 0.8 ms hunt hops CPU twice. What a hop costs is the host's business: on the
//! two-CPU virtual machine this was built on, `bug_hunt` read 35 % slower for
//! tens of minutes at a time, then fast again, while every run pinned to one
//! CPU read fast. On one CPU the new thread runs where its parent blocks. That
//! is the program's cost without the host's mood, and it is what is reported.

/// Restricts this process to the lowest-numbered CPU it may run on. Returns
/// whether it did; off Linux it does nothing.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> bool {
    // From the C library std already links against; declared here because the
    // standard library has no call for either.
    unsafe extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // Room for 1,024 CPUs, the size of glibc's cpu_set_t.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is valid for writes of `bytes` bytes, pid 0 is this
    // process, and the call writes at most `bytes` bytes.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|&bits| bits != 0) else {
        return false;
    };
    let lowest = mask[word] & mask[word].wrapping_neg();
    mask = [0u64; 16];
    mask[word] = lowest;
    // SAFETY: `mask` is valid for reads of `bytes` bytes and names one CPU
    // this process was already allowed on.
    unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> bool {
    false
}
