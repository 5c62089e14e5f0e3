//! Numbers derived from a run's `TraceEvent` stream: event counts per
//! kind, `MissingCache` upkeep, re-fetched loads and batch completion
//! times.

use crate::stats::nearest_rank;
use memsched_model::{DataId, TaskSet};
use memsched_platform::{trace_checksum, Nanos, TraceEvent};
use std::collections::HashSet;

/// What the benchmark keeps of one cell's event log (the log itself is
/// dropped, so a rep over many cells holds one log at a time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Events of each kind in [`EVENT_KINDS`].
    pub counts: [u64; 10],
    /// All events, fault events included.
    pub events: u64,
    /// Counter updates of the engine's `MissingCache`.
    pub missing_cache_updates: u64,
    /// Loads issued.
    pub loads: u64,
    /// Loads of a (GPU, datum) pair that was loaded before.
    pub refetches: u64,
    /// Median task completion time (batch runs).
    pub completion_p50: Nanos,
    /// 99th-percentile task completion time (batch runs).
    pub completion_p99: Nanos,
    /// `trace_checksum` of the log.
    pub checksum: u64,
}

/// Digest `trace`, the event log of a run over `ts`.
pub fn digest(ts: &TaskSet, trace: &[TraceEvent]) -> Digest {
    let (loads, refetches) = refetches(trace);
    let (completion_p50, completion_p99) = completion_quantiles(trace);
    Digest {
        counts: event_counts(trace),
        events: trace.len() as u64,
        missing_cache_updates: missing_cache_updates(ts, trace),
        loads,
        refetches,
        completion_p50,
        completion_p99,
        checksum: trace_checksum(trace),
    }
}

/// Metric-name suffixes of [`Digest::counts`], in its order.
pub const EVENT_KINDS: [&str; 10] = [
    "load_issued",
    "load_done",
    "evicted",
    "task_started",
    "task_finished",
    "arrived",
    "admitted",
    "deferred",
    "shed",
    "expired",
];

/// How many events of each kind in [`EVENT_KINDS`] the trace holds
/// (fault events are not counted; the workloads inject none).
fn event_counts(trace: &[TraceEvent]) -> [u64; 10] {
    let mut n = [0u64; 10];
    for ev in trace {
        let kind = match ev {
            TraceEvent::LoadIssued { .. } => 0,
            TraceEvent::LoadDone { .. } => 1,
            TraceEvent::Evicted { .. } => 2,
            TraceEvent::TaskStarted { .. } => 3,
            TraceEvent::TaskFinished { .. } => 4,
            TraceEvent::TaskArrived { .. } => 5,
            TraceEvent::TaskAdmitted { .. } => 6,
            TraceEvent::TaskDeferred { .. } => 7,
            TraceEvent::TaskShed { .. } => 8,
            TraceEvent::DeadlineExpired { .. } => 9,
            _ => continue,
        };
        n[kind] += 1;
    }
    n
}

/// Counter updates the engine's `MissingCache` made: each issued load and
/// each eviction of `d` touches one counter per consumer of `d`.
fn missing_cache_updates(ts: &TaskSet, trace: &[TraceEvent]) -> u64 {
    trace
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::LoadIssued { data, .. } | TraceEvent::Evicted { data, .. } => {
                Some(ts.consumers(DataId(data as u32)).len() as u64)
            }
            _ => None,
        })
        .sum()
}

/// `(loads, refetches)`: loads issued, and those of a (GPU, datum) pair
/// that was loaded before.
fn refetches(trace: &[TraceEvent]) -> (u64, u64) {
    let mut seen = HashSet::new();
    let (mut loads, mut again) = (0, 0);
    for ev in trace {
        if let TraceEvent::LoadIssued { gpu, data, .. } = *ev {
            loads += 1;
            again += u64::from(!seen.insert((gpu, data)));
        }
    }
    (loads, again)
}

/// `(p50, p99)` task completion times of a batch run (every batch task
/// arrives at 0, so these are its latencies).
fn completion_quantiles(trace: &[TraceEvent]) -> (Nanos, Nanos) {
    let mut done: Vec<Nanos> = trace
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::TaskFinished { at, .. } => Some(at),
            _ => None,
        })
        .collect();
    done.sort_unstable();
    (nearest_rank(&done, 0.5), nearest_rank(&done, 0.99))
}
