//! Derived timeline analyses: how loaded was the bus, how much of the
//! transfer time hid behind computation, and what did each lane do
//! over time?
//!
//! Every function here is a fold over the span [`Timeline`] of a
//! well-formed event stream. Counts and per-GPU time splits are not:
//! they are the run report's (`RunReport.per_gpu[g].{busy,stall,idle}`,
//! checked against the trace by `memsched_platform::validate`).
//!
//! [`Timeline`]: crate::wellformed::Timeline

use crate::event::{Nanos, ObsEvent, Track};
use crate::wellformed::{check_well_formed, SpanKind, WellFormedError};

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

/// Time with transfers in flight, time with tasks computing, and time
/// with both at once: the overlap the paper credits for DARTS+LUF's
/// lead even where it moves more bytes than DMDAR (§V-C, "the overlap
/// between calculations and transfers is effective").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Overlap {
    /// Nanoseconds with at least one transfer on an interconnect.
    pub transfer: Nanos,
    /// Nanoseconds with at least one GPU computing.
    pub compute: Nanos,
    /// Nanoseconds with both.
    pub both: Nanos,
}

impl Overlap {
    /// Share of the transfer time hidden behind computation (0 without
    /// transfers).
    pub fn ratio(&self) -> f64 {
        if self.transfer == 0 {
            0.0
        } else {
            self.both as f64 / self.transfer as f64
        }
    }
}

/// [`Overlap`] of a run: the transfer spans of every interconnect and
/// the compute spans of every GPU, each merged before they are
/// intersected, so queued transfers and concurrent GPUs count once.
pub fn overlap(events: &[ObsEvent]) -> Result<Overlap, WellFormedError> {
    let timeline = check_well_formed(events)?;
    let (mut transfers, mut computes) = (Vec::new(), Vec::new());
    for s in &timeline.spans {
        match s.kind {
            SpanKind::Transfer { .. } => transfers.push((s.begin, s.end)),
            SpanKind::Compute { .. } => computes.push((s.begin, s.end)),
        }
    }
    let (transfers, transfer) = merge(transfers);
    let (computes, compute) = merge(computes);
    let both = intersection(&transfers, &computes);
    Ok(Overlap { transfer, compute, both })
}

/// An ASCII Gantt chart of `[0, makespan]` in `width` columns (clamped
/// to 10..=500): one lane per GPU (`#` = computing, `.` = not) plus a
/// bus lane (`=` = a transfer in flight).
pub fn render_gantt(
    events: &[ObsEvent],
    num_gpus: usize,
    makespan: Nanos,
    width: usize,
) -> Result<String, WellFormedError> {
    let timeline = check_well_formed(events)?;
    if makespan == 0 {
        return Ok(String::from("(empty trace)\n"));
    }
    let width = width.clamp(10, 500);
    let col = |t: Nanos| {
        let c = u128::from(t.min(makespan)) * width as u128 / u128::from(makespan);
        (c as usize).min(width - 1)
    };
    let mut lanes = vec![vec![b'.'; width]; num_gpus];
    let mut bus = vec![b' '; width];
    for s in &timeline.spans {
        let (lane, mark) = match s.kind {
            SpanKind::Transfer { .. } => (&mut bus, b'='),
            SpanKind::Compute { .. } => match lanes.get_mut(s.gpu as usize) {
                Some(lane) => (lane, b'#'),
                None => continue,
            },
        };
        lane[col(s.begin)..=col(s.end)].fill(mark);
    }
    let mut out = String::new();
    for (g, lane) in lanes.iter().enumerate() {
        out.push_str(&format!("GPU{g:<2} |{}|\n", String::from_utf8_lossy(lane)));
    }
    out.push_str(&format!("bus   |{}|\n", String::from_utf8_lossy(&bus)));
    let end = format!("{:.1} ms", makespan as f64 / 1e6);
    out.push_str(&format!("0{end:>width$}\n"));
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
    fn gantt_renders_lanes() {
        let mut evs: Vec<ObsEvent> = transfer(0, 0, 0, 0, 50).into();
        evs.extend(compute(0, 0, 50, 100));
        let chart = render_gantt(&evs, 2, 100, 20).unwrap();
        assert!(chart.contains("GPU0"));
        assert!(chart.contains("GPU1"));
        assert!(chart.contains("bus"));
        assert!(chart.contains('#'), "compute lane should be drawn");
        assert!(chart.contains('='), "bus lane should be drawn");
        // GPU1 never works: its lane is all idle dots.
        let gpu1_line = chart.lines().nth(1).unwrap();
        assert!(!gpu1_line.contains('#'));
    }

    #[test]
    fn gantt_empty_trace() {
        assert_eq!(render_gantt(&[], 1, 0, 40).unwrap(), "(empty trace)\n");
    }

    #[test]
    fn covered_merges_overlaps() {
        assert_eq!(merge(vec![(0, 10), (5, 15), (20, 30)]).1, 25);
        assert_eq!(merge(vec![]).1, 0);
        assert_eq!(merge(vec![(3, 3)]).1, 0);
    }

    #[test]
    fn intersection_of_interval_sets() {
        assert_eq!(intersection(&[(0, 10), (20, 30)], &[(5, 25)]), 10); // [5,10) + [20,25)
        assert_eq!(intersection(&[(0, 5)], &[(5, 9)]), 0);
    }

    #[test]
    fn analyze_counts_and_ratios() {
        // A load, then a task under which a second load hides.
        let mut evs: Vec<ObsEvent> = transfer(0, 0, 0, 0, 100).into();
        evs.extend(compute(0, 0, 100, 300));
        evs.extend(transfer(0, 1, 100, 100, 180));
        let o = overlap(&evs).unwrap();
        assert_eq!(o, Overlap { transfer: 180, compute: 200, both: 80 });
        assert!((o.ratio() - 80.0 / 180.0).abs() < 1e-12);
        assert_eq!(bus_utilization(&evs, 1, 300).unwrap(), vec![0.6]);
    }

    #[test]
    fn queued_transfers_under_one_task_overlap_once() {
        // Loads [0,100) and [50→200) (queued until 100) under one task
        // [0,200): 200 ns of bus time, all of it hidden. Intersecting
        // the unmerged [issue, done) lists counts [50,100) twice.
        let mut evs: Vec<ObsEvent> = compute(0, 0, 0, 200).into();
        evs.extend(transfer(0, 0, 0, 0, 100));
        evs.extend(transfer(0, 1, 50, 100, 200));
        let o = overlap(&evs).unwrap();
        assert_eq!(o.transfer, 200);
        assert_eq!(o.both, 200);
        assert_eq!(o.ratio(), 1.0);
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
