//! Timing a short, single-threaded set-up on every CPU in turn.
//!
//! A set-up that takes microseconds runs on whichever CPU the scheduler
//! left the calling thread on, and on a small virtual machine the CPUs
//! can differ in speed by half or more (one shares its core with another
//! tenant, or takes the interrupts). The run's set-up time would then
//! depend on that placement. Pinning the thread to each allowed CPU in
//! turn and averaging the CPUs' medians removes the placement from the
//! number.

use std::time::Instant;

use crate::stats;

/// Words of a Linux `cpu_set_t` (1024 CPUs).
const SET_WORDS: usize = 16;

type CpuSet = [u64; SET_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's allowed CPUs, or `None` when they cannot be read.
fn affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; SET_WORDS];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

/// Restricts the calling thread to `set`; false when refused.
fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// The CPU numbers in `set`.
fn members(set: &CpuSet) -> Vec<usize> {
    (0..SET_WORDS * 64)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Runs `setup` `reps` times on the calling thread, a block of reps pinned
/// to each CPU it may use in turn, and returns the mean over those CPUs
/// of each CPU's median seconds (dropping the value is not timed). The
/// thread's affinity is restored before returning. Where affinity cannot
/// be read, the reps run unpinned and their median is returned.
pub fn time_on_each_cpu<T>(reps: usize, mut setup: impl FnMut() -> T) -> f64 {
    let mut time = || {
        let start = Instant::now();
        let value = setup();
        let seconds = start.elapsed().as_secs_f64();
        drop(value);
        seconds
    };
    let Some(allowed) = affinity().filter(|set| set.iter().any(|&w| w != 0)) else {
        let times: Vec<f64> = (0..reps.max(1)).map(|_| time()).collect();
        return stats::median(&times).unwrap_or(0.0);
    };
    let cpus = members(&allowed);
    let per_cpu = reps.div_ceil(cpus.len()).max(1);
    let mut medians = Vec::with_capacity(cpus.len());
    for cpu in cpus {
        let mut only: CpuSet = [0; SET_WORDS];
        only[cpu / 64] |= 1 << (cpu % 64);
        // Should pinning be refused, the block still counts, unpinned.
        set_affinity(&only);
        let times: Vec<f64> = (0..per_cpu).map(|_| time()).collect();
        medians.extend(stats::median(&times));
    }
    set_affinity(&allowed);
    medians.iter().sum::<f64>() / medians.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_visits_each_cpu_and_restores_the_affinity() {
        let before = affinity().expect("affinity is readable on Linux");
        let mut seen = std::collections::BTreeSet::new();
        let s = time_on_each_cpu(2 * members(&before).len(), || {
            seen.insert(affinity().map(|a| members(&a)));
        });
        assert!(s >= 0.0);
        // Every rep ran pinned to a single CPU, and every CPU was used.
        let pinned: Vec<Vec<usize>> = seen.into_iter().flatten().collect();
        assert!(pinned.iter().all(|cpus| cpus.len() == 1));
        assert_eq!(pinned.concat(), members(&before));
        assert_eq!(affinity(), Some(before));
    }
}
