//! Post-mortem analysis of execution traces: bus utilization, per-GPU
//! occupancy, and how much transfer time was hidden behind computation —
//! the overlap the paper credits for DARTS+LUF's throughput lead even
//! when its raw transfer volume exceeds DMDAR's (§V-C: "This confirms
//! that the overlap between calculations and transfers is effective").

use crate::report::TraceEvent;
use crate::spec::Nanos;

/// Aggregated view of a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceAnalysis {
    /// Makespan covered by the trace (last event timestamp).
    pub makespan: Nanos,
    /// Nanoseconds during which at least one transfer was in flight.
    pub bus_busy: Nanos,
    /// Nanoseconds during which at least one GPU was computing.
    pub any_compute: Nanos,
    /// Nanoseconds during which transfers and computation proceeded
    /// simultaneously (the overlap that hides communication).
    pub overlap: Nanos,
    /// Per-GPU busy time (computing).
    pub gpu_busy: Vec<Nanos>,
}

impl TraceAnalysis {
    /// Fraction of the makespan with a transfer in flight.
    pub fn bus_utilization(&self) -> f64 {
        ratio(self.bus_busy, self.makespan)
    }

    /// Fraction of transfer time hidden behind computation.
    pub fn overlap_ratio(&self) -> f64 {
        ratio(self.overlap, self.bus_busy)
    }

    /// Mean GPU occupancy (busy time over makespan, averaged over GPUs).
    pub fn mean_gpu_occupancy(&self) -> f64 {
        if self.gpu_busy.is_empty() {
            return 0.0;
        }
        self.gpu_busy
            .iter()
            .map(|&b| ratio(b, self.makespan))
            .sum::<f64>()
            / self.gpu_busy.len() as f64
    }
}

fn ratio(a: Nanos, b: Nanos) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Interval-union helper: total covered length of `[start, end)` pairs.
fn covered(mut iv: Vec<(Nanos, Nanos)>) -> Nanos {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(Nanos, Nanos)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
                let _ = cs;
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Intersection length of two interval sets.
fn intersection(mut a: Vec<(Nanos, Nanos)>, mut b: Vec<(Nanos, Nanos)>) -> Nanos {
    a.sort_unstable();
    b.sort_unstable();
    let (mut i, mut j) = (0, 0);
    let mut total = 0;
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Analyse a trace produced by [`crate::run_with_config`] under
/// [`crate::TraceMode::Full`]. `num_gpus` must match the run's platform.
///
/// Only the interval math lives here (overlap, busy time); event counts
/// are the report's (`RunReport::total_loads`, …).
pub fn analyze(trace: &[TraceEvent], num_gpus: usize) -> TraceAnalysis {
    let mut transfers: Vec<(Nanos, Nanos)> = Vec::new();
    let mut compute: Vec<(Nanos, Nanos)> = Vec::new();
    let mut gpu_busy = vec![0; num_gpus];
    let mut started: Vec<Option<Nanos>> = vec![None; num_gpus];
    let mut makespan = 0;

    for ev in trace {
        match *ev {
            TraceEvent::LoadIssued { at, done_at, .. } => {
                transfers.push((at, done_at));
                makespan = makespan.max(done_at);
            }
            TraceEvent::TaskStarted { at, gpu, .. } => {
                started[gpu] = Some(at);
            }
            // A fail-stop cuts the running task short: close its compute
            // interval at the failure (matching the engine's busy-time
            // refund).
            TraceEvent::TaskFinished { at, gpu, .. } | TraceEvent::GpuFailed { at, gpu } => {
                makespan = makespan.max(at);
                if let Some(s) = started[gpu].take() {
                    compute.push((s, at));
                    gpu_busy[gpu] += at - s;
                }
            }
            TraceEvent::LoadDone { at, .. }
            | TraceEvent::Evicted { at, .. }
            | TraceEvent::TransferRetry { at, .. }
            | TraceEvent::CapacityShrunk { at, .. }
            | TraceEvent::GpuSlowed { at, .. }
            | TraceEvent::TaskArrived { at, .. }
            | TraceEvent::TaskAdmitted { at, .. }
            | TraceEvent::TaskDeferred { at, .. }
            | TraceEvent::TaskShed { at, .. }
            | TraceEvent::DeadlineExpired { at, .. } => {
                makespan = makespan.max(at);
            }
        }
    }

    TraceAnalysis {
        makespan,
        bus_busy: covered(transfers.clone()),
        any_compute: covered(compute.clone()),
        overlap: intersection(transfers, compute),
        gpu_busy,
    }
}

/// Render an ASCII Gantt chart of a trace: one lane per GPU (`#` =
/// computing, `.` = idle) plus a bus lane (`=` = transfer in flight).
/// `width` is the number of character columns the makespan is scaled to.
pub fn render_gantt(trace: &[TraceEvent], num_gpus: usize, width: usize) -> String {
    let width = width.clamp(10, 500);
    let a = analyze(trace, num_gpus);
    if a.makespan == 0 {
        return String::from("(empty trace)\n");
    }
    let col_of = |t: Nanos| ((t as u128 * width as u128 / a.makespan as u128) as usize).min(width - 1);

    let mut lanes = vec![vec![b'.'; width]; num_gpus];
    let mut bus = vec![b' '; width];
    let mut started: Vec<Option<Nanos>> = vec![None; num_gpus];
    for ev in trace {
        match *ev {
            TraceEvent::LoadIssued { at, done_at, .. } => {
                bus[col_of(at)..=col_of(done_at)].fill(b'=');
            }
            TraceEvent::TaskStarted { at, gpu, .. } => started[gpu] = Some(at),
            TraceEvent::TaskFinished { at, gpu, .. } => {
                if let Some(s) = started[gpu].take() {
                    lanes[gpu][col_of(s)..=col_of(at)].fill(b'#');
                }
            }
            _ => {}
        }
    }
    let mut out = String::new();
    for (g, lane) in lanes.iter().enumerate() {
        out.push_str(&format!("GPU{g:<2} |{}|\n", String::from_utf8_lossy(lane)));
    }
    out.push_str(&format!("bus   |{}|\n", String::from_utf8_lossy(&bus)));
    out.push_str(&format!(
        "0{:>width$}\n",
        format!("{:.1} ms", a.makespan as f64 / 1e6),
        width = width
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gantt_renders_lanes() {
        let trace = vec![
            TraceEvent::LoadIssued {
                at: 0,
                gpu: 0,
                data: 0,
                done_at: 50,
            },
            TraceEvent::TaskStarted {
                at: 50,
                gpu: 0,
                task: 0,
            },
            TraceEvent::TaskFinished {
                at: 100,
                gpu: 0,
                task: 0,
            },
        ];
        let chart = render_gantt(&trace, 2, 20);
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
        assert_eq!(render_gantt(&[], 1, 40), "(empty trace)\n");
    }

    #[test]
    fn covered_merges_overlaps() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(covered(vec![]), 0);
        assert_eq!(covered(vec![(3, 3)]), 0);
    }

    #[test]
    fn intersection_of_interval_sets() {
        let a = vec![(0, 10), (20, 30)];
        let b = vec![(5, 25)];
        assert_eq!(intersection(a, b), 10); // [5,10) + [20,25)
        assert_eq!(intersection(vec![(0, 5)], vec![(5, 9)]), 0);
    }

    #[test]
    fn analyze_counts_and_ratios() {
        let trace = vec![
            TraceEvent::LoadIssued {
                at: 0,
                gpu: 0,
                data: 0,
                done_at: 100,
            },
            TraceEvent::LoadDone {
                at: 100,
                gpu: 0,
                data: 0,
            },
            TraceEvent::TaskStarted {
                at: 100,
                gpu: 0,
                task: 0,
            },
            TraceEvent::LoadIssued {
                at: 100,
                gpu: 0,
                data: 1,
                done_at: 180,
            },
            TraceEvent::LoadDone {
                at: 180,
                gpu: 0,
                data: 1,
            },
            TraceEvent::TaskFinished {
                at: 300,
                gpu: 0,
                task: 0,
            },
        ];
        let a = analyze(&trace, 1);
        assert_eq!(a.makespan, 300);
        assert_eq!(a.bus_busy, 180);
        assert_eq!(a.any_compute, 200);
        assert_eq!(a.overlap, 80, "second transfer hides behind the task");
        assert!((a.overlap_ratio() - 80.0 / 180.0).abs() < 1e-12);
        assert!((a.bus_utilization() - 0.6).abs() < 1e-12);
        assert!((a.mean_gpu_occupancy() - 200.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_overlap_is_high_for_good_schedulers() {
        use crate::{run_with_config, PlatformSpec, RunConfig, TraceMode};
        use memsched_model::TaskSetBuilder;

        // A chain of tasks on distinct data: with pipeline depth 2, every
        // transfer after the first should hide behind computation.
        let mut b = TaskSetBuilder::new();
        for _ in 0..10 {
            let d = b.add_data(1000);
            b.add_task(&[d], 100_000.0);
        }
        let ts = b.build();
        struct Fifo(u32);
        impl crate::Scheduler for Fifo {
            fn name(&self) -> String {
                "fifo".into()
            }
            fn pop_task(
                &mut self,
                _: memsched_model::GpuId,
                v: &crate::RuntimeView<'_>,
            ) -> Option<memsched_model::TaskId> {
                if self.0 < v.task_set().num_tasks() as u32 {
                    self.0 += 1;
                    Some(memsched_model::TaskId(self.0 - 1))
                } else {
                    None
                }
            }
        }
        let spec = PlatformSpec {
            num_gpus: 1,
            memory_bytes: 10_000,
            bus_bandwidth: 1e9,
            transfer_latency: 0,
            gpu_gflops: 1.0,
            pipeline_depth: 2,
            gpu_gflops_override: None,
            nvlink_bandwidth: None,
            bus_groups: None,
        };
        let (report, trace) = run_with_config(
            &ts,
            &spec,
            &mut Fifo(0),
            &RunConfig {
                trace: TraceMode::Full,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.per_gpu[0].tasks, 10);
        let a = analyze(&trace, 1);
        // 9 of 10 transfers hide behind compute (first one cannot).
        assert!(a.overlap_ratio() > 0.85, "overlap = {}", a.overlap_ratio());
    }
}
