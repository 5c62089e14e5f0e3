//! Output checks run on every rep: conservation laws of a report, the
//! compulsory-traffic lower bound, the serving ledger, and determinism.

use crate::workloads::Cell;
use memsched_model::bounds;
use memsched_platform::RunReport;
use std::fmt;

/// A failed check: which one, and what it saw.
#[derive(Debug)]
pub struct Failure {
    /// Short check name.
    pub check: &'static str,
    /// The values that broke it.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.check, self.detail)
    }
}

fn fail(check: &'static str, detail: String) -> Result<(), Failure> {
    Err(Failure { check, detail })
}

/// `report` with its host wall-clock fields and the trace checksum
/// (present in `Checksum` mode only) cleared: what must be identical
/// between two runs of the same cell.
pub fn fingerprint(report: &RunReport) -> RunReport {
    let mut f = report.clone();
    f.prepare_wall = 0;
    f.sched_wall = 0;
    f.trace_checksum = None;
    for g in &mut f.per_gpu {
        g.sched_wall = 0;
    }
    f
}

/// `got` must equal `want` once wall-clock fields are ignored.
pub fn same_outcome(what: &'static str, want: &RunReport, got: &RunReport) -> Result<(), Failure> {
    if fingerprint(want) != fingerprint(got) {
        return fail(
            what,
            format!(
                "makespan {} vs {}, bytes {} vs {}",
                want.makespan, got.makespan, want.total_load_bytes, got.total_load_bytes
            ),
        );
    }
    Ok(())
}

/// The conservation laws every successful run of `cell` obeys.
pub fn check_report(cell: &Cell, r: &RunReport) -> Result<(), Failure> {
    let arrivals = cell.ts.num_tasks() as u64;
    let executed: usize = r.per_gpu.iter().map(|g| g.tasks).sum();
    let mut dropped = 0;
    let expected = match &r.online {
        Some(o) => {
            dropped = o.tasks_shed + o.deadline_expired;
            if o.tasks_admitted + dropped != arrivals {
                return fail(
                    "ledger",
                    format!(
                        "admitted {} + shed {} + expired {} != arrivals {arrivals}",
                        o.tasks_admitted, o.tasks_shed, o.deadline_expired
                    ),
                );
            }
            o.tasks_admitted
        }
        None => arrivals,
    };
    if executed as u64 != expected {
        return fail("tasks", format!("executed {executed}, expected {expected}"));
    }
    for (g, s) in r.per_gpu.iter().enumerate() {
        if s.busy + s.stall + s.idle != r.makespan {
            return fail(
                "lanes",
                format!(
                    "GPU {g}: busy {} + stall {} + idle {} != makespan {}",
                    s.busy, s.stall, s.idle, r.makespan
                ),
            );
        }
    }
    let per_gpu_bytes: u64 = r.per_gpu.iter().map(|g| g.load_bytes).sum();
    if per_gpu_bytes != r.total_load_bytes {
        return fail(
            "bytes",
            format!(
                "per-GPU sum {per_gpu_bytes} != total {}",
                r.total_load_bytes
            ),
        );
    }
    // The bound counts every task's inputs, so it holds only when every
    // task ran.
    let floor = bounds::min_total_load_bytes(&cell.ts);
    if dropped == 0 && r.total_load_bytes < floor {
        return fail(
            "compulsory",
            format!("moved {} B, below the bound {floor} B", r.total_load_bytes),
        );
    }
    Ok(())
}
