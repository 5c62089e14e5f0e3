//! Derived timeline analyses: where did each GPU's time go, and how
//! loaded was the bus?
//!
//! The per-GPU breakdown splits `[0, makespan]` into three disjoint
//! buckets:
//! - **busy** — a task was executing;
//! - **stall** — no task was executing but at least one transfer
//!   destined for the GPU was in flight (queued or on the wire): the
//!   GPU is starved by data movement, the situation the paper's
//!   Obj. 2 (#Loads) only captures in aggregate;
//! - **idle** — everything else (no work, or dead after a fault).
//!
//! A transfer is "in flight" from its *issue* time (`begin − bus_wait`,
//! when the engine committed to the load) to its completion, so time
//! queued behind other transfers on the shared bus counts as stall —
//! that queue is exactly what bus contention looks like from a GPU.

use crate::event::{Nanos, ObsEvent, Track};
use crate::wellformed::{check_well_formed, SpanKind, WellFormedError};

/// Disjoint time split for one GPU; the three fields sum to the
/// `makespan` passed to [`gpu_breakdowns`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GpuBreakdown {
    /// Time executing tasks.
    pub busy: Nanos,
    /// Time starved: not executing, but waiting on at least one
    /// in-flight transfer.
    pub stall: Nanos,
    /// Remaining time (no runnable work, or dead).
    pub idle: Nanos,
}

/// Merge intervals and return both the merged list and total coverage.
fn merge(mut iv: Vec<(Nanos, Nanos)>) -> (Vec<(Nanos, Nanos)>, Nanos) {
    iv.retain(|(a, b)| b > a);
    iv.sort_unstable();
    let mut merged: Vec<(Nanos, Nanos)> = Vec::with_capacity(iv.len());
    for (a, b) in iv {
        match merged.last_mut() {
            Some((_, e)) if a <= *e => *e = (*e).max(b),
            _ => merged.push((a, b)),
        }
    }
    let total = merged.iter().map(|(a, b)| b - a).sum();
    (merged, total)
}

/// Total overlap between two merged (sorted, disjoint) interval lists.
fn intersection(xs: &[(Nanos, Nanos)], ys: &[(Nanos, Nanos)]) -> Nanos {
    let (mut i, mut j, mut total) = (0, 0, 0);
    while i < xs.len() && j < ys.len() {
        let lo = xs[i].0.max(ys[j].0);
        let hi = xs[i].1.min(ys[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if xs[i].1 <= ys[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Per-GPU busy/stall/idle split over `[0, makespan]`, derived purely
/// from the recorded spans. The three buckets sum to `makespan` for
/// every GPU (the engine's always-on accounting in
/// `RunReport.per_gpu[g].{busy,stall,idle}` computes the same split
/// online; the two are cross-checked in the integration tests).
pub fn gpu_breakdowns(
    events: &[ObsEvent],
    num_gpus: usize,
    makespan: Nanos,
) -> Result<Vec<GpuBreakdown>, WellFormedError> {
    let timeline = check_well_formed(events)?;
    let mut compute: Vec<Vec<(Nanos, Nanos)>> = vec![Vec::new(); num_gpus];
    let mut pending: Vec<Vec<(Nanos, Nanos)>> = vec![Vec::new(); num_gpus];
    for span in &timeline.spans {
        let g = span.gpu as usize;
        if g >= num_gpus {
            continue;
        }
        match span.kind {
            SpanKind::Compute { .. } => {
                compute[g].push((span.begin.min(makespan), span.end.min(makespan)));
            }
            SpanKind::Transfer { bus_wait, .. } => {
                let issue = span.begin.saturating_sub(bus_wait);
                pending[g].push((issue.min(makespan), span.end.min(makespan)));
            }
        }
    }
    let mut out = Vec::with_capacity(num_gpus);
    for g in 0..num_gpus {
        let (comp, busy) = merge(std::mem::take(&mut compute[g]));
        let (pend, covered) = merge(std::mem::take(&mut pending[g]));
        let stall = covered - intersection(&comp, &pend);
        let idle = makespan.saturating_sub(busy + stall);
        out.push(GpuBreakdown { busy, stall, idle });
    }
    Ok(out)
}

/// Bus occupancy per time bucket: `buckets` equal slices of
/// `[0, makespan]`, each value the fraction of that slice the PCI bus
/// spent moving data (0..=1). NVLink traffic is excluded — it does not
/// contend with the host bus.
pub fn bus_utilization(
    events: &[ObsEvent],
    buckets: usize,
    makespan: Nanos,
) -> Result<Vec<f64>, WellFormedError> {
    bus_utilization_on(events, 0, buckets, makespan)
}

/// [`bus_utilization`] for one specific PCI bus of a multi-bus platform
/// (`bus` 0 is [`Track::Bus`], higher indices [`Track::BusN`]).
pub fn bus_utilization_on(
    events: &[ObsEvent],
    bus: u32,
    buckets: usize,
    makespan: Nanos,
) -> Result<Vec<f64>, WellFormedError> {
    let timeline = check_well_formed(events)?;
    let n = buckets.max(1);
    if makespan == 0 {
        return Ok(vec![0.0; n]);
    }
    let track = if bus == 0 { Track::Bus } else { Track::BusN(bus) };
    let busy: Vec<(Nanos, Nanos)> = timeline
        .spans_on(track)
        .map(|s| (s.begin.min(makespan), s.end.min(makespan)))
        .collect();
    let (merged, _) = merge(busy);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = makespan * i as u64 / n as u64;
        let hi = makespan * (i as u64 + 1) / n as u64;
        let width = hi.saturating_sub(lo);
        if width == 0 {
            out.push(0.0);
            continue;
        }
        let overlap = intersection(&merged, &[(lo, hi)]);
        out.push(overlap as f64 / width as f64);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transfer(gpu: u32, data: u32, issue: Nanos, grant: Nanos, done: Nanos) -> [ObsEvent; 2] {
        [
            ObsEvent::TransferBegin {
                t: grant,
                gpu,
                data,
                bytes: 8,
                bus_wait: grant - issue,
                bus: 0,
                peer: None,
                attempt: 1,
                done_at: done,
            },
            ObsEvent::TransferEnd {
                t: done,
                gpu,
                data,
                bytes: 8,
                bus: 0,
                peer: None,
                attempt: 1,
                delivered: true,
            },
        ]
    }

    fn compute(gpu: u32, task: u32, b: Nanos, e: Nanos) -> [ObsEvent; 2] {
        [
            ObsEvent::ComputeBegin { t: b, gpu, task },
            ObsEvent::ComputeEnd { t: e, gpu, task, interrupted: false },
        ]
    }

    #[test]
    fn breakdown_sums_to_makespan_and_counts_queue_wait_as_stall() {
        // GPU0: transfer issued at 0, queued until 50, delivered at
        // 100, then computes 100..300. GPU1 does nothing.
        let mut evs = Vec::new();
        evs.extend(transfer(0, 0, 0, 50, 100));
        evs.extend(compute(0, 0, 100, 300));
        let bd = gpu_breakdowns(&evs, 2, 300).unwrap();
        assert_eq!(bd[0], GpuBreakdown { busy: 200, stall: 100, idle: 0 });
        assert_eq!(bd[1], GpuBreakdown { busy: 0, stall: 0, idle: 300 });
        for g in &bd {
            assert_eq!(g.busy + g.stall + g.idle, 300);
        }
    }

    #[test]
    fn overlapping_transfer_under_compute_is_not_stall() {
        // Prefetch arrives while the GPU is busy: no stall.
        let mut evs = Vec::new();
        evs.extend(compute(0, 0, 0, 100));
        evs.extend(transfer(0, 1, 20, 20, 80));
        let bd = gpu_breakdowns(&evs, 1, 100).unwrap();
        assert_eq!(bd[0], GpuBreakdown { busy: 100, stall: 0, idle: 0 });
    }

    #[test]
    fn bus_utilization_fractions() {
        // Bus busy 0..100 out of a 200ns makespan, two buckets.
        let evs: Vec<ObsEvent> = transfer(0, 0, 0, 0, 100).into();
        let u = bus_utilization(&evs, 2, 200).unwrap();
        assert_eq!(u, vec![1.0, 0.0]);
        let u4 = bus_utilization(&evs, 4, 200).unwrap();
        assert_eq!(u4, vec![1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn per_bus_utilization_separates_traffic() {
        // Bus 1 busy 100..200; bus 0 idle throughout.
        let mut evs: Vec<ObsEvent> = transfer(4, 0, 100, 100, 200).into();
        for ev in &mut evs {
            match ev {
                ObsEvent::TransferBegin { bus, .. } | ObsEvent::TransferEnd { bus, .. } => {
                    *bus = 1;
                }
                _ => {}
            }
        }
        assert_eq!(bus_utilization_on(&evs, 0, 2, 200).unwrap(), vec![0.0, 0.0]);
        assert_eq!(bus_utilization_on(&evs, 1, 2, 200).unwrap(), vec![0.0, 1.0]);
    }
}
