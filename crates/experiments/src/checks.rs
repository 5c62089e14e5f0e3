//! Programmatic shape checks: the paper's qualitative claims, encoded as
//! assertions over a figure's measured rows. The figure binaries print
//! these verdicts after their tables, and the test suite runs them on
//! reduced sweeps — so a regression that flips a published comparison
//! fails loudly instead of silently producing a wrong curve.

use crate::harness::Row;

/// Outcome of one shape check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckResult {
    /// What was checked, in words.
    pub claim: String,
    /// Whether the measured rows satisfy it.
    pub pass: bool,
    /// Supporting detail (measured values).
    pub detail: String,
}

impl CheckResult {
    fn new(claim: &str, pass: bool, detail: String) -> Self {
        Self {
            claim: claim.to_string(),
            pass,
            detail,
        }
    }
}

fn metric(rows: &[Row], scheduler: &str, ws: f64) -> Option<f64> {
    rows.iter()
        .find(|r| r.scheduler == scheduler && r.ws_mb == ws)
        .map(|r| r.gflops_with_sched)
}

fn sizes(rows: &[Row]) -> Vec<f64> {
    let mut s: Vec<f64> = rows.iter().map(|r| r.ws_mb).collect();
    s.sort_by(f64::total_cmp);
    s.dedup();
    s
}

/// At the largest working set where both ran, `a` achieves at least
/// `factor ×` the throughput of `b`.
pub fn check_dominates_at_largest(rows: &[Row], a: &str, b: &str, factor: f64) -> CheckResult {
    let claim = format!("{a} ≥ {factor:.2}× {b} at the largest common working set");
    let common: Vec<f64> = sizes(rows)
        .into_iter()
        .filter(|&ws| metric(rows, a, ws).is_some() && metric(rows, b, ws).is_some())
        .collect();
    let Some(&ws) = common.last() else {
        return CheckResult::new(&claim, false, "no common working set".into());
    };
    let (va, vb) = (metric(rows, a, ws).unwrap(), metric(rows, b, ws).unwrap());
    CheckResult::new(
        &claim,
        va >= factor * vb,
        format!("at {ws:.0} MB: {a} = {va:.0}, {b} = {vb:.0}"),
    )
}

/// `scheduler` loses at least `drop_fraction` of its small-size
/// throughput by the largest size (a collapse check, e.g. EAGER past the
/// "B fits" line).
pub fn check_collapses(rows: &[Row], scheduler: &str, drop_fraction: f64) -> CheckResult {
    let claim = format!(
        "{scheduler} collapses by ≥ {:.0}% from its peak",
        drop_fraction * 100.0
    );
    let mine: Vec<&Row> = rows.iter().filter(|r| r.scheduler == scheduler).collect();
    let Some(peak) = mine
        .iter()
        .map(|r| r.gflops_with_sched)
        .max_by(f64::total_cmp)
    else {
        return CheckResult::new(&claim, false, "scheduler absent".into());
    };
    let Some(last) = mine.last().map(|r| r.gflops_with_sched) else {
        return CheckResult::new(&claim, false, "scheduler absent".into());
    };
    CheckResult::new(
        &claim,
        last <= (1.0 - drop_fraction) * peak,
        format!("peak {peak:.0}, final {last:.0}"),
    )
}

/// `scheduler` stays within `tolerance` of the roofline at every size it
/// ran (the DARTS+LUF "near optimal" claim).
pub fn check_near_roofline(
    rows: &[Row],
    scheduler: &str,
    roofline: f64,
    tolerance: f64,
) -> CheckResult {
    let claim = format!(
        "{scheduler} stays within {:.0}% of the roofline on its worst point past warm-up",
        tolerance * 100.0
    );
    // Skip the smallest size: startup transfer latency dominates there.
    let all = sizes(rows);
    let mine: Vec<&Row> = rows
        .iter()
        .filter(|r| r.scheduler == scheduler && Some(&r.ws_mb) != all.first())
        .collect();
    if mine.is_empty() {
        return CheckResult::new(&claim, false, "scheduler absent".into());
    }
    let worst = mine
        .iter()
        .map(|r| r.gflops_with_sched)
        .min_by(f64::total_cmp)
        .unwrap();
    CheckResult::new(
        &claim,
        worst >= (1.0 - tolerance) * roofline,
        format!("worst {worst:.0} vs roofline {roofline:.0}"),
    )
}

/// The paper's headline shape checks per figure id (GFlop/s figures
/// only). Thresholds are generous: they catch inversions, not noise.
pub fn shape_checks(figure_id: &str, rows: &[Row], roofline: f64) -> Vec<CheckResult> {
    match figure_id {
        "fig03" => vec![
            check_collapses(rows, "EAGER", 0.3),
            check_near_roofline(rows, "DARTS+LUF", roofline, 0.35),
            check_dominates_at_largest(rows, "DARTS+LUF", "EAGER", 1.3),
            check_dominates_at_largest(rows, "DARTS+LUF", "DMDAR", 1.0),
        ],
        "fig05" | "fig06" => vec![
            check_collapses(rows, "EAGER", 0.5),
            check_dominates_at_largest(rows, "DARTS+LUF", "DMDAR", 1.0),
            check_dominates_at_largest(rows, "DARTS+LUF", "hMETIS+R", 1.2),
        ],
        "fig08" => vec![
            check_collapses(rows, "EAGER", 0.4),
            check_collapses(rows, "hMETIS+R", 0.4),
        ],
        "fig09" => vec![
            check_collapses(rows, "DMDAR", 0.3),
            check_dominates_at_largest(rows, "DARTS+LUF", "DMDAR", 1.2),
        ],
        "fig10" => vec![check_dominates_at_largest(
            rows,
            "DARTS+LUF-3inputs",
            "DMDAR",
            1.1,
        )],
        "fig11" => vec![check_dominates_at_largest(
            rows,
            "DARTS+LUF+OPTI-3inputs",
            "hMETIS+R",
            1.4,
        )],
        "fig12" | "fig13" => vec![check_dominates_at_largest(rows, "DARTS+LUF", "DMDAR", 1.1)],
        _ => Vec::new(),
    }
}

/// Render check results as lines prefixed with PASS/FAIL.
pub fn render(results: &[CheckResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!(
            "# {} — {} ({})\n",
            if r.pass { "PASS" } else { "FAIL" },
            r.claim,
            r.detail
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(scheduler: &str, ws: f64, gflops: f64) -> Row {
        Row {
            figure: "t".into(),
            workload: "w".into(),
            ws_mb: ws,
            gpus: 1,
            scheduler: scheduler.into(),
            gflops,
            gflops_with_sched: gflops,
            transfers_mb: 0.0,
            loads: 0,
            evictions: 0,
            makespan_ms: 0.0,
            prepare_ms: 0.0,
            sched_ms: 0.0,
            max_load: 0,
            retries: 0,
            redispatched: 0,
            busy_ms: 0.0,
            stall_ms: 0.0,
            idle_ms: 0.0,
        }
    }

    #[test]
    fn dominates_at_largest_common_size() {
        let rows = vec![
            row("A", 100.0, 10.0),
            row("B", 100.0, 10.0),
            row("A", 200.0, 10.0),
            row("B", 200.0, 4.0),
        ];
        let r = check_dominates_at_largest(&rows, "A", "B", 2.0);
        assert!(r.pass, "{}", r.detail);
        let r = check_dominates_at_largest(&rows, "B", "A", 1.0);
        assert!(!r.pass);
    }

    #[test]
    fn collapse_detects_drop() {
        let rows = vec![row("E", 1.0, 100.0), row("E", 2.0, 40.0)];
        assert!(check_collapses(&rows, "E", 0.5).pass);
        assert!(!check_collapses(&rows, "E", 0.7).pass);
    }

    #[test]
    fn near_roofline_skips_first_point() {
        let rows = vec![
            row("D", 1.0, 10.0), // warm-up point, ignored
            row("D", 2.0, 95.0),
            row("D", 3.0, 90.0),
        ];
        assert!(check_near_roofline(&rows, "D", 100.0, 0.15).pass);
        assert!(!check_near_roofline(&rows, "D", 100.0, 0.05).pass);
    }

    #[test]
    fn unknown_figure_has_no_checks() {
        assert!(shape_checks("fig99", &[], 1.0).is_empty());
    }

    #[test]
    fn render_formats_verdicts() {
        let r = vec![CheckResult::new("c", true, "d".into())];
        assert_eq!(render(&r), "# PASS — c (d)\n");
    }
}
