//! Trace capture modes, the projection from observed events onto the
//! engine trace, and the streaming trace checksum.
//!
//! The engine emits one [`ObsEvent`] per site. [`TraceEvent::from_obs`]
//! projects that stream onto the engine trace the goldens and checksums
//! pin, so the two streams can never disagree.
//!
//! A million-task run emits a few million [`TraceEvent`]s; materializing
//! them costs hundreds of megabytes. [`TraceMode::Checksum`] streams every
//! event into a rolling 64-bit FNV-1a hash instead, so determinism stays
//! checkable (`RunReport::trace_checksum` pins same-seed runs byte-for-byte)
//! at O(1) memory. [`trace_checksum`] computes the identical value from a
//! fully materialized trace, which is how the tests cross-check the two
//! modes against each other.

use crate::report::TraceEvent;
use memsched_obs::{ObsEvent, TraceSink};

/// How a run records its [`TraceEvent`] stream (`RunConfig::trace`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Record nothing (fastest; the default).
    #[default]
    Off,
    /// Materialize the full `Vec<TraceEvent>` returned by
    /// `run_with_config` — what tests and golden snapshots use.
    Full,
    /// Stream every event into a rolling FNV-1a checksum: the run returns
    /// no events, but `RunReport::trace_checksum` is set. The checksum
    /// equals [`trace_checksum`] over the `Full` trace of the same run.
    Checksum,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Seed of the rolling checksum (the FNV-1a offset basis).
const CHECKSUM_SEED: u64 = FNV_OFFSET;

#[inline]
fn word(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one event into the rolling checksum: a discriminant tag plus the
/// canonical little-endian encoding of every field, floats via `to_bits`,
/// so the fold is bit-exact and platform-independent.
fn fold_event(h: u64, ev: &TraceEvent) -> u64 {
    match *ev {
        TraceEvent::LoadIssued {
            at,
            gpu,
            data,
            done_at,
        } => word(word(word(word(word(h, 0), at), gpu as u64), data as u64), done_at),
        TraceEvent::LoadDone { at, gpu, data } => {
            word(word(word(word(h, 1), at), gpu as u64), data as u64)
        }
        TraceEvent::Evicted { at, gpu, data } => {
            word(word(word(word(h, 2), at), gpu as u64), data as u64)
        }
        TraceEvent::TaskStarted { at, gpu, task } => {
            word(word(word(word(h, 3), at), gpu as u64), task as u64)
        }
        TraceEvent::TaskFinished { at, gpu, task } => {
            word(word(word(word(h, 4), at), gpu as u64), task as u64)
        }
        TraceEvent::GpuFailed { at, gpu } => word(word(word(h, 5), at), gpu as u64),
        TraceEvent::TransferRetry {
            at,
            gpu,
            data,
            attempt,
        } => word(
            word(word(word(word(h, 6), at), gpu as u64), data as u64),
            attempt as u64,
        ),
        TraceEvent::CapacityShrunk { at, gpu, capacity } => {
            word(word(word(word(h, 7), at), gpu as u64), capacity)
        }
        TraceEvent::GpuSlowed { at, gpu, factor } => {
            word(word(word(word(h, 8), at), gpu as u64), factor.to_bits())
        }
        TraceEvent::TaskArrived { at, task } => word(word(word(h, 9), at), task as u64),
        TraceEvent::TaskAdmitted { at, task } => word(word(word(h, 10), at), task as u64),
        TraceEvent::TaskDeferred { at, task } => word(word(word(h, 11), at), task as u64),
        TraceEvent::TaskShed { at, task } => word(word(word(h, 12), at), task as u64),
        TraceEvent::DeadlineExpired { at, task } => word(word(word(h, 13), at), task as u64),
    }
}

/// Checksum of a materialized trace; equals the rolling checksum a
/// [`TraceMode::Checksum`] run of the same execution reports.
pub fn trace_checksum(trace: &[TraceEvent]) -> u64 {
    trace.iter().fold(CHECKSUM_SEED, fold_event)
}

impl TraceEvent {
    /// The engine-trace view of one observed event: a first transfer
    /// attempt is `LoadIssued` (issued at `t - bus_wait`), a delivered
    /// transfer `LoadDone`, an uninterrupted compute span
    /// `TaskStarted`/`TaskFinished`, and fault and admission instants map
    /// one to one. `None` for what the trace never carried: decisions,
    /// steals, gauges, cache accesses, retried or undelivered transfer
    /// attempts, and interrupted computes.
    pub fn from_obs(ev: &ObsEvent) -> Option<TraceEvent> {
        Some(match *ev {
            ObsEvent::TransferBegin {
                t,
                gpu,
                data,
                bus_wait,
                attempt: 1,
                done_at,
                ..
            } => TraceEvent::LoadIssued {
                at: t - bus_wait,
                gpu: gpu as usize,
                data: data as usize,
                done_at,
            },
            ObsEvent::TransferEnd {
                t,
                gpu,
                data,
                delivered: true,
                ..
            } => TraceEvent::LoadDone {
                at: t,
                gpu: gpu as usize,
                data: data as usize,
            },
            ObsEvent::Eviction { t, gpu, data, .. } => TraceEvent::Evicted {
                at: t,
                gpu: gpu as usize,
                data: data as usize,
            },
            ObsEvent::ComputeBegin { t, gpu, task } => TraceEvent::TaskStarted {
                at: t,
                gpu: gpu as usize,
                task: task as usize,
            },
            ObsEvent::ComputeEnd {
                t,
                gpu,
                task,
                interrupted: false,
            } => TraceEvent::TaskFinished {
                at: t,
                gpu: gpu as usize,
                task: task as usize,
            },
            ObsEvent::GpuFailed { t, gpu } => TraceEvent::GpuFailed {
                at: t,
                gpu: gpu as usize,
            },
            ObsEvent::TransferRetry {
                t,
                gpu,
                data,
                attempt,
            } => TraceEvent::TransferRetry {
                at: t,
                gpu: gpu as usize,
                data: data as usize,
                attempt,
            },
            ObsEvent::CapacityShrunk { t, gpu, capacity } => TraceEvent::CapacityShrunk {
                at: t,
                gpu: gpu as usize,
                capacity,
            },
            ObsEvent::GpuSlowed { t, gpu, factor } => TraceEvent::GpuSlowed {
                at: t,
                gpu: gpu as usize,
                factor,
            },
            ObsEvent::TaskArrived { t, task } => TraceEvent::TaskArrived {
                at: t,
                task: task as usize,
            },
            ObsEvent::TaskAdmitted { t, task, .. } => TraceEvent::TaskAdmitted {
                at: t,
                task: task as usize,
            },
            ObsEvent::TaskDeferred { t, task } => TraceEvent::TaskDeferred {
                at: t,
                task: task as usize,
            },
            ObsEvent::TaskShed { t, task } => TraceEvent::TaskShed {
                at: t,
                task: task as usize,
            },
            ObsEvent::DeadlineExpired { t, task } => TraceEvent::DeadlineExpired {
                at: t,
                task: task as usize,
            },
            ObsEvent::TransferBegin { .. }
            | ObsEvent::TransferEnd { .. }
            | ObsEvent::ComputeEnd { .. }
            | ObsEvent::Decision { .. }
            | ObsEvent::Steal { .. }
            | ObsEvent::Gauge { .. }
            | ObsEvent::CacheAccess { .. } => return None,
        })
    }
}

/// The run's trace under its [`TraceMode`]: every recorded event is
/// projected ([`TraceEvent::from_obs`]) and then kept, folded into the
/// checksum, or dropped.
pub(crate) enum TraceLog {
    Off,
    Full(Vec<TraceEvent>),
    Checksum(u64),
}

impl TraceLog {
    pub(crate) fn new(mode: TraceMode, expected_events: usize) -> Self {
        match mode {
            TraceMode::Off => Self::Off,
            TraceMode::Full => Self::Full(Vec::with_capacity(expected_events)),
            TraceMode::Checksum => Self::Checksum(CHECKSUM_SEED),
        }
    }

    /// `(materialized trace, rolling checksum)` — at most one is non-empty.
    pub(crate) fn finish(self) -> (Vec<TraceEvent>, Option<u64>) {
        match self {
            Self::Off => (Vec::new(), None),
            Self::Full(v) => (v, None),
            Self::Checksum(h) => (Vec::new(), Some(h)),
        }
    }
}

impl TraceSink for TraceLog {
    #[inline]
    fn record(&mut self, ev: &ObsEvent) {
        match self {
            Self::Off => {}
            Self::Full(v) => v.extend(TraceEvent::from_obs(ev)),
            Self::Checksum(h) => {
                if let Some(te) = TraceEvent::from_obs(ev) {
                    *h = fold_event(*h, &te);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sinks_keep_only_the_projection() {
        let evs = [
            ObsEvent::TransferBegin {
                t: 4,
                gpu: 0,
                data: 3,
                bytes: 8,
                bus_wait: 3,
                bus: 0,
                peer: None,
                attempt: 1,
                done_at: 10,
            },
            ObsEvent::Decision {
                t: 5,
                gpu: 0,
                task: Some(7),
                wall_ns: 90,
            },
            ObsEvent::TransferEnd {
                t: 9,
                gpu: 1,
                data: 2,
                bytes: 8,
                bus: 0,
                peer: None,
                attempt: 1,
                delivered: false,
            },
            ObsEvent::ComputeBegin {
                t: 10,
                gpu: 0,
                task: 7,
            },
            ObsEvent::GpuSlowed {
                t: 12,
                gpu: 1,
                factor: 0.5,
            },
        ];
        let want = vec![
            TraceEvent::LoadIssued {
                at: 1,
                gpu: 0,
                data: 3,
                done_at: 10,
            },
            TraceEvent::TaskStarted {
                at: 10,
                gpu: 0,
                task: 7,
            },
            TraceEvent::GpuSlowed {
                at: 12,
                gpu: 1,
                factor: 0.5,
            },
        ];
        let mut full = TraceLog::new(TraceMode::Full, 0);
        let mut sum = TraceLog::new(TraceMode::Checksum, 0);
        for ev in &evs {
            full.record(ev);
            sum.record(ev);
        }
        assert_eq!(full.finish(), (want.clone(), None));
        assert_eq!(sum.finish(), (Vec::new(), Some(trace_checksum(&want))));
    }

    #[test]
    fn distinct_variants_hash_differently() {
        // Same field values, different discriminants.
        let a = trace_checksum(&[TraceEvent::TaskArrived { at: 5, task: 1 }]);
        let b = trace_checksum(&[TraceEvent::TaskAdmitted { at: 5, task: 1 }]);
        let c = trace_checksum(&[TraceEvent::TaskDeferred { at: 5, task: 1 }]);
        let d = trace_checksum(&[TraceEvent::TaskShed { at: 5, task: 1 }]);
        let e = trace_checksum(&[TraceEvent::DeadlineExpired { at: 5, task: 1 }]);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(c, d);
        assert_ne!(d, e);
        assert_eq!(trace_checksum(&[]), super::CHECKSUM_SEED);
    }
}
