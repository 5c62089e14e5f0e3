//! Paje trace exporter (ViTE-compatible, the StarPU-native format).
//!
//! Emits the classic self-describing header (`%EventDef` blocks) and
//! then one line per state change / event / variable sample, in
//! non-decreasing time order as ViTE requires. The container hierarchy
//! mirrors the Chrome track layout:
//!
//! ```text
//! platform "p"
//! ├── g0, g1, ...   (one per GPU: Computing state, eviction/fault events)
//! ├── bus           (PCI bus: Transferring state)
//! ├── nvlink        (only when peer transfers occurred)
//! └── s0, s1, ...   (scheduler contexts: decision/steal events, gauges)
//! ```
//!
//! Times are seconds with nanosecond resolution, printed in fixed
//! notation so every Paje consumer parses them.

use crate::event::{GaugeKind, Nanos, ObsEvent, Track};
use crate::wellformed::{check_well_formed, SpanKind, WellFormedError};
use std::collections::BTreeSet;
use std::fmt::Write as _;

fn secs(t: Nanos) -> String {
    format!("{}.{:09}", t / 1_000_000_000, t % 1_000_000_000)
}

const HEADER: &str = "\
%EventDef PajeDefineContainerType 0
% Alias string
% Type string
% Name string
%EndEventDef
%EventDef PajeDefineStateType 1
% Alias string
% Type string
% Name string
%EndEventDef
%EventDef PajeDefineEventType 2
% Alias string
% Type string
% Name string
%EndEventDef
%EventDef PajeDefineVariableType 3
% Alias string
% Type string
% Name string
%EndEventDef
%EventDef PajeDefineEntityValue 4
% Alias string
% Type string
% Name string
% Color color
%EndEventDef
%EventDef PajeCreateContainer 5
% Time date
% Alias string
% Type string
% Container string
% Name string
%EndEventDef
%EventDef PajeDestroyContainer 6
% Time date
% Name string
% Type string
%EndEventDef
%EventDef PajePushState 7
% Time date
% Type string
% Container string
% Value string
%EndEventDef
%EventDef PajePopState 8
% Time date
% Type string
% Container string
%EndEventDef
%EventDef PajeNewEvent 9
% Time date
% Type string
% Container string
% Value string
%EndEventDef
%EventDef PajeSetVariable 10
% Time date
% Type string
% Container string
% Value double
%EndEventDef
";

/// A body line with its sort key: `(time, rank, emission index)`.
/// Pops sort before events before variables before pushes at equal
/// timestamps, so back-to-back states never nest.
struct Line {
    t: Nanos,
    rank: u8,
    seq: usize,
    text: String,
}

fn state_type(track: Track) -> &'static str {
    match track {
        Track::Gpu(_) => "ST",
        Track::Bus | Track::BusN(_) | Track::NvLink => "LT",
        // The admission track only carries instants; the arm exists for
        // exhaustiveness.
        Track::Sched(_) | Track::Global | Track::Admission => "ST",
    }
}

fn gauge_type(kind: GaugeKind) -> &'static str {
    match kind {
        GaugeKind::Occupancy => "VO",
        GaugeKind::ReadyQueueDepth => "VQ",
        GaugeKind::NbFreeTasks => "VF",
    }
}

/// Instant rendering: `(event type alias, value string)`.
fn instant_value(ev: &ObsEvent) -> Option<(&'static str, String)> {
    match *ev {
        ObsEvent::Eviction {
            data, by_scheduler, ..
        } => Some((
            "EV",
            format!(
                "evict_d{data}_{}",
                if by_scheduler { "sched" } else { "lru" }
            ),
        )),
        ObsEvent::Decision { task, .. } => Some((
            "DE",
            match task {
                Some(t) => format!("pop_t{t}"),
                None => "pop_none".to_string(),
            },
        )),
        ObsEvent::Steal { from, tasks, .. } => Some(("SL", format!("steal_{tasks}_from_g{from}"))),
        ObsEvent::TransferRetry { data, attempt, .. } => {
            Some(("FA", format!("retry_d{data}_a{attempt}")))
        }
        ObsEvent::GpuFailed { .. } => Some(("FA", "gpu_failed".to_string())),
        ObsEvent::CapacityShrunk { capacity, .. } => Some(("FA", format!("shrunk_to_{capacity}"))),
        ObsEvent::GpuSlowed { factor, .. } => Some(("FA", format!("slowed_x{factor}"))),
        ObsEvent::TaskArrived { task, .. } => Some(("AD", format!("arrive_t{task}"))),
        ObsEvent::TaskAdmitted { task, .. } => Some(("AD", format!("admit_t{task}"))),
        ObsEvent::TaskDeferred { task, .. } => Some(("AD", format!("defer_t{task}"))),
        ObsEvent::TaskShed { task, .. } => Some(("AD", format!("shed_t{task}"))),
        ObsEvent::DeadlineExpired { task, .. } => Some(("AD", format!("expire_t{task}"))),
        ObsEvent::CacheAccess {
            task,
            hit_bytes,
            miss_bytes,
            ..
        } => Some(("CH", format!("cache_t{task}_h{hit_bytes}_m{miss_bytes}"))),
        _ => None,
    }
}

/// Export the event stream as a Paje `.trace` string. Validates
/// well-formedness first (ViTE is unforgiving about unbalanced
/// push/pop).
pub fn paje_trace(events: &[ObsEvent]) -> Result<String, WellFormedError> {
    let timeline = check_well_formed(events)?;
    let tracks: BTreeSet<Track> = events.iter().map(ObsEvent::track).collect();
    let horizon = timeline.horizon();

    let mut out = String::from(HEADER);
    // Type hierarchy.
    out.push_str("0 CP 0 \"platform\"\n");
    out.push_str("0 CG CP \"gpu\"\n");
    out.push_str("0 CB CP \"interconnect\"\n");
    out.push_str("0 CS CP \"scheduler\"\n");
    out.push_str("0 CA CP \"admission\"\n");
    out.push_str("1 ST CG \"gpu state\"\n");
    out.push_str("1 LT CB \"link state\"\n");
    out.push_str("2 EV CG \"eviction\"\n");
    out.push_str("2 FA CG \"fault\"\n");
    out.push_str("2 DE CS \"decision\"\n");
    out.push_str("2 SL CS \"steal\"\n");
    out.push_str("2 CH CS \"cache access\"\n");
    out.push_str("2 AD CA \"admission event\"\n");
    out.push_str("3 VO CS \"occupancy\"\n");
    out.push_str("3 VQ CS \"ready queue depth\"\n");
    out.push_str("3 VF CS \"nb free tasks\"\n");
    out.push_str("4 C ST \"Computing\" \"0.2 0.8 0.2\"\n");
    out.push_str("4 T LT \"Transferring\" \"0.2 0.4 0.9\"\n");

    // Containers.
    out.push_str("5 0.000000000 p CP 0 \"platform\"\n");
    for track in &tracks {
        let ctype = match track {
            Track::Gpu(_) => "CG",
            Track::Bus | Track::BusN(_) | Track::NvLink => "CB",
            Track::Sched(_) | Track::Global => "CS",
            Track::Admission => "CA",
        };
        let _ = writeln!(
            out,
            "5 0.000000000 {} {} p \"{}\"",
            track.paje_alias(),
            ctype,
            track.label()
        );
    }

    // Body lines, time-sorted with pop-before-push at equal stamps.
    let mut lines: Vec<Line> = Vec::new();
    let mut seq = 0usize;
    let mut push = |lines: &mut Vec<Line>, t: Nanos, rank: u8, text: String| {
        lines.push(Line { t, rank, seq, text });
        seq += 1;
    };
    for span in &timeline.spans {
        let st = state_type(span.track);
        let alias = span.track.paje_alias();
        let value = match span.kind {
            SpanKind::Transfer { .. } => "T",
            SpanKind::Compute { .. } => "C",
        };
        push(
            &mut lines,
            span.begin,
            3,
            format!("7 {} {st} {alias} {value}", secs(span.begin)),
        );
        push(
            &mut lines,
            span.end,
            0,
            format!("8 {} {st} {alias}", secs(span.end)),
        );
    }
    for ev in &timeline.instants {
        let alias = ev.track().paje_alias();
        if let ObsEvent::Gauge { t, kind, value, .. } = ev {
            push(
                &mut lines,
                *t,
                2,
                format!("10 {} {} {alias} {value:?}", secs(*t), gauge_type(*kind)),
            );
        } else if let Some((etype, value)) = instant_value(ev) {
            push(
                &mut lines,
                ev.t(),
                1,
                format!("9 {} {etype} {alias} {value}", secs(ev.t())),
            );
        }
    }
    lines.sort_by_key(|a| (a.t, a.rank, a.seq));
    for line in &lines {
        out.push_str(&line.text);
        out.push('\n');
    }

    // Tear down containers at the horizon.
    for track in &tracks {
        let ctype = match track {
            Track::Gpu(_) => "CG",
            Track::Bus | Track::BusN(_) | Track::NvLink => "CB",
            Track::Sched(_) | Track::Global => "CS",
            Track::Admission => "CA",
        };
        let _ = writeln!(out, "6 {} {} {ctype}", secs(horizon), track.paje_alias());
    }
    let _ = writeln!(out, "6 {} p CP", secs(horizon));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_balance_and_time_order() {
        let evs = vec![
            ObsEvent::TransferBegin {
                t: 0,
                gpu: 0,
                data: 0,
                bytes: 8,
                bus_wait: 0,
                bus: 0,
                peer: None,
                attempt: 1,
                done_at: 100,
            },
            ObsEvent::TransferBegin {
                t: 100,
                gpu: 1,
                data: 1,
                bytes: 8,
                bus_wait: 100,
                bus: 0,
                peer: None,
                attempt: 1,
                done_at: 200,
            },
            ObsEvent::TransferEnd {
                t: 100,
                gpu: 0,
                data: 0,
                bytes: 8,
                bus: 0,
                peer: None,
                attempt: 1,
                delivered: true,
            },
            ObsEvent::TransferEnd {
                t: 200,
                gpu: 1,
                data: 1,
                bytes: 8,
                bus: 0,
                peer: None,
                attempt: 1,
                delivered: true,
            },
        ];
        let trace = paje_trace(&evs).unwrap();
        let pushes = trace.lines().filter(|l| l.starts_with("7 ")).count();
        let pops = trace.lines().filter(|l| l.starts_with("8 ")).count();
        assert_eq!(pushes, 2);
        assert_eq!(pops, 2);
        // At t=100 the pop (code 8) must precede the push (code 7) so
        // the bus state never nests.
        let body: Vec<&str> = trace
            .lines()
            .filter(|l| l.starts_with("7 0.000000100") || l.starts_with("8 0.000000100"))
            .collect();
        assert_eq!(body.len(), 2);
        assert!(
            body[0].starts_with("8 "),
            "pop first at equal stamps: {body:?}"
        );
        // Containers are destroyed at the horizon.
        assert!(trace.contains("6 0.000000200 bus CB"));
        assert!(trace.ends_with("6 0.000000200 p CP\n"));
    }

    #[test]
    fn times_are_fixed_point_seconds() {
        assert_eq!(secs(0), "0.000000000");
        assert_eq!(secs(1_500_000_000), "1.500000000");
        assert_eq!(secs(42), "0.000000042");
    }
}
