//! Host-side measurements: heap use through a counting allocator, and
//! the scheduler noise (run-queue wait, steal) around a timed phase.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation-counting wrapper around the system allocator. Only the
/// binary that installs it as `#[global_allocator]` counts anything.
pub struct CountingAlloc;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters never affect the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let old = layout.size() as u64;
        let new = new_size as u64;
        let live = if new >= old {
            LIVE.fetch_add(new - old, Ordering::Relaxed) + (new - old)
        } else {
            LIVE.fetch_sub(old - new, Ordering::Relaxed) - (old - new)
        };
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocator readings across one measured region.
#[derive(Clone, Copy, Debug)]
pub struct HeapUse {
    /// Allocations (and reallocations) made in the region.
    pub allocs: u64,
    /// Highest live heap in the region, bytes (including what was live
    /// when it began).
    pub peak_bytes: u64,
}

/// Run `f`, recording its allocations and peak live heap.
pub fn heap_use<R>(f: impl FnOnce() -> R) -> (R, HeapUse) {
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let r = f();
    let usage = HeapUse {
        allocs: ALLOCS.load(Ordering::Relaxed) - allocs0,
        peak_bytes: PEAK.load(Ordering::Relaxed),
    };
    (r, usage)
}

/// Counters read at the edges of a timed phase.
#[derive(Clone, Copy, Debug)]
pub struct NoiseSample {
    at: std::time::Instant,
    /// Nanoseconds this thread waited on a run queue
    /// (`/proc/self/schedstat`, field 2).
    runqueue_wait_ns: Option<u64>,
    /// `(steal, total)` jiffies of the aggregate `cpu` line of
    /// `/proc/stat`.
    cpu_jiffies: Option<(u64, u64)>,
}

impl NoiseSample {
    /// Read the counters now; missing files read as `None`.
    pub fn now() -> Self {
        let runqueue_wait_ns = std::fs::read_to_string("/proc/self/schedstat")
            .ok()
            .and_then(|s| s.split_whitespace().nth(1)?.parse().ok());
        let cpu_jiffies = std::fs::read_to_string("/proc/stat").ok().and_then(|s| {
            let fields: Vec<u64> = s
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .map(|f| f.parse().ok())
                .collect::<Option<_>>()?;
            // user nice system idle iowait irq softirq steal [guest…]
            // (guest time is already counted in user).
            let steal = *fields.get(7)?;
            Some((steal, fields.iter().take(8).sum()))
        });
        NoiseSample {
            at: std::time::Instant::now(),
            runqueue_wait_ns,
            cpu_jiffies,
        }
    }

    /// Share of the wall time between `self` and `later` this thread spent
    /// runnable but waiting for a CPU.
    pub fn runqueue_wait_share(&self, later: &NoiseSample) -> Option<f64> {
        let wall = later.at.duration_since(self.at).as_nanos() as f64;
        let waited = later
            .runqueue_wait_ns?
            .checked_sub(self.runqueue_wait_ns?)?;
        (wall > 0.0).then(|| waited as f64 / wall)
    }

    /// Share of all CPU time between `self` and `later` stolen by the
    /// hypervisor.
    pub fn steal_share(&self, later: &NoiseSample) -> Option<f64> {
        let (s0, t0) = self.cpu_jiffies?;
        let (s1, t1) = later.cpu_jiffies?;
        let total = t1.checked_sub(t0)?;
        (total > 0).then(|| s1.saturating_sub(s0) as f64 / total as f64)
    }
}

/// The commit being measured, when run from a git checkout.
pub fn git_revision() -> Option<String> {
    // Without this guard git would search parent directories and could
    // report an unrelated repository.
    if !std::path::Path::new(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Usable CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
