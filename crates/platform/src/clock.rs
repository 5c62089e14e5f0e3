//! The scheduling clock: a cheap host tick counter that times scheduler
//! callbacks into `sched_wall`.
//!
//! The engine reads the clock twice around every scheduler callback, a few
//! million times per large run, so the read must be cheap. On x86-64 a
//! tick is one increment of the CPU's time-stamp counter (`rdtsc`): on a
//! 2-vCPU x86-64 VM a pair of counter reads costs about 45 ns, against
//! about 90 ns for a pair of `Instant::now` calls. CPUs flagged
//! `constant_tsc` and `nonstop_tsc` (which the kernel's `tsc` clocksource
//! relies on) run the counter at a fixed rate, in step across cores and
//! through idle states. The ratio of nanoseconds to ticks is measured once
//! per process against `Instant`, with a ~1 ms spin on the first
//! conversion. On other targets a tick is a nanosecond read from
//! `Instant`.
//!
//! Callers add up tick deltas and convert the totals with
//! [`ticks_to_ns`]; a delta that reads backwards counts as zero.

use crate::spec::Nanos;

/// A reading, or an interval, of the scheduling clock.
pub(crate) type Ticks = u64;

/// The current reading of the scheduling clock.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn ticks() -> Ticks {
    // SAFETY: `rdtsc` is in the x86-64 baseline instruction set, has no
    // preconditions and only reads the time-stamp counter.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Convert a tick interval to nanoseconds.
#[cfg(target_arch = "x86_64")]
pub(crate) fn ticks_to_ns(ticks: Ticks) -> Nanos {
    (ticks as f64 * ns_per_tick()) as Nanos
}

/// Nanoseconds per time-stamp-counter tick, measured on first use by
/// spinning for ~1 ms against `Instant`.
#[cfg(target_arch = "x86_64")]
fn ns_per_tick() -> f64 {
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};
    static RATIO: OnceLock<f64> = OnceLock::new();
    *RATIO.get_or_init(|| {
        let c0 = ticks();
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(1) {
            std::hint::spin_loop();
        }
        let ns = t0.elapsed().as_nanos() as f64;
        let dc = ticks().saturating_sub(c0).max(1);
        ns / dc as f64
    })
}

/// The current reading of the scheduling clock: nanoseconds since the
/// process first read it.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub(crate) fn ticks() -> Ticks {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as Ticks
}

/// Convert a tick interval to nanoseconds (the identity off x86-64).
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn ticks_to_ns(ticks: Ticks) -> Nanos {
    ticks
}
