//! Chrome Trace Event Format exporter (`chrome://tracing`, Perfetto).
//!
//! Produces the JSON object form: `{"displayTimeUnit": "ns",
//! "traceEvents": [...]}` with one `tid` per [`Track`] inside a single
//! `pid` 0. Spans become `"ph": "X"` complete events (ts/dur in
//! microseconds, as the format requires), instants become `"ph": "i"`
//! thread-scoped events, gauges become `"ph": "C"` counter events, and
//! each track gets `thread_name` / `thread_sort_index` metadata so
//! GPUs, the PCI bus and the scheduler contexts stack in a stable
//! order.

use crate::event::{ObsEvent, Track};
use crate::wellformed::{check_well_formed, Span, SpanKind, WellFormedError};
use serde_json::{Number, Value};
use std::collections::BTreeSet;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

fn u(v: u64) -> Value {
    Value::Num(Number::U(v))
}

fn f(v: f64) -> Value {
    Value::Num(Number::F(v))
}

/// Nanoseconds to the format's microsecond doubles.
fn us(t: u64) -> Value {
    f(t as f64 / 1000.0)
}

fn sort_index(track: Track) -> u64 {
    match track {
        Track::Gpu(g) => u64::from(g),
        Track::Bus => 100,
        Track::NvLink => 101,
        Track::BusN(n) => 110 + u64::from(n),
        Track::Sched(g) => 200 + u64::from(g),
        Track::Global => 300,
        Track::Admission => 400,
    }
}

fn metadata(track: Track) -> Vec<Value> {
    let head = |name: &str| {
        vec![
            ("name", s(name)),
            ("ph", s("M")),
            ("pid", u(0)),
            ("tid", u(track.tid())),
        ]
    };
    let mut name_entry = head("thread_name");
    name_entry.push(("args", obj(vec![("name", s(track.label()))])));
    let mut sort_entry = head("thread_sort_index");
    sort_entry.push(("args", obj(vec![("sort_index", u(sort_index(track)))])));
    vec![obj(name_entry), obj(sort_entry)]
}

fn span_event(span: &Span) -> Value {
    let (name, cat, args) = match &span.kind {
        SpanKind::Transfer {
            data,
            bytes,
            bus_wait,
            peer,
            attempt,
            delivered,
        } => (
            format!("D{data}"),
            "transfer",
            obj(vec![
                ("gpu", u(u64::from(span.gpu))),
                ("data", u(u64::from(*data))),
                ("bytes", u(*bytes)),
                ("bus_wait_ns", u(*bus_wait)),
                ("peer", peer.map(|p| u(u64::from(p))).unwrap_or(Value::Null)),
                ("attempt", u(u64::from(*attempt))),
                ("delivered", Value::Bool(*delivered)),
            ]),
        ),
        SpanKind::Compute { task, interrupted } => (
            format!("T{task}"),
            "compute",
            obj(vec![
                ("task", u(u64::from(*task))),
                ("interrupted", Value::Bool(*interrupted)),
            ]),
        ),
    };
    obj(vec![
        ("name", s(name)),
        ("cat", s(cat)),
        ("ph", s("X")),
        ("pid", u(0)),
        ("tid", u(span.track.tid())),
        ("ts", us(span.begin)),
        ("dur", us(span.end - span.begin)),
        ("args", args),
    ])
}

/// Instant / counter payload: `(name, cat, args)`; `None` for span
/// events (handled elsewhere).
fn instant_payload(ev: &ObsEvent) -> Option<(String, &'static str, Value)> {
    match *ev {
        ObsEvent::Eviction {
            gpu,
            data,
            bytes,
            by_scheduler,
            ..
        } => Some((
            format!("evict D{data}"),
            "eviction",
            obj(vec![
                ("gpu", u(u64::from(gpu))),
                ("data", u(u64::from(data))),
                ("bytes", u(bytes)),
                ("by_scheduler", Value::Bool(by_scheduler)),
            ]),
        )),
        ObsEvent::Decision {
            gpu, task, wall_ns, ..
        } => Some((
            match task {
                Some(t) => format!("pop T{t}"),
                None => "pop (none)".to_string(),
            },
            "decision",
            obj(vec![
                ("gpu", u(u64::from(gpu))),
                ("task", task.map(|t| u(u64::from(t))).unwrap_or(Value::Null)),
                ("wall_ns", u(wall_ns)),
            ]),
        )),
        ObsEvent::Steal {
            from, to, tasks, ..
        } => Some((
            format!("steal {tasks} from GPU {from}"),
            "steal",
            obj(vec![
                ("from", u(u64::from(from))),
                ("to", u(u64::from(to))),
                ("tasks", u(u64::from(tasks))),
            ]),
        )),
        ObsEvent::TransferRetry {
            gpu, data, attempt, ..
        } => Some((
            format!("retry D{data}"),
            "retry",
            obj(vec![
                ("gpu", u(u64::from(gpu))),
                ("data", u(u64::from(data))),
                ("attempt", u(u64::from(attempt))),
            ]),
        )),
        ObsEvent::GpuFailed { gpu, .. } => Some((
            format!("GPU {gpu} failed"),
            "fault",
            obj(vec![("gpu", u(u64::from(gpu)))]),
        )),
        ObsEvent::CapacityShrunk { gpu, capacity, .. } => Some((
            format!("GPU {gpu} shrunk"),
            "fault",
            obj(vec![("gpu", u(u64::from(gpu))), ("capacity", u(capacity))]),
        )),
        ObsEvent::GpuSlowed { gpu, factor, .. } => Some((
            format!("GPU {gpu} slowed"),
            "fault",
            obj(vec![("gpu", u(u64::from(gpu))), ("factor", f(factor))]),
        )),
        ObsEvent::TaskArrived { task, .. } => Some((
            format!("arrive T{task}"),
            "admission",
            obj(vec![("task", u(u64::from(task)))]),
        )),
        ObsEvent::TaskAdmitted { task, wait, .. } => Some((
            format!("admit T{task}"),
            "admission",
            obj(vec![("task", u(u64::from(task))), ("wait_ns", u(wait))]),
        )),
        ObsEvent::TaskDeferred { task, .. } => Some((
            format!("defer T{task}"),
            "admission",
            obj(vec![("task", u(u64::from(task)))]),
        )),
        ObsEvent::TaskShed { task, .. } => Some((
            format!("shed T{task}"),
            "admission",
            obj(vec![("task", u(u64::from(task)))]),
        )),
        ObsEvent::DeadlineExpired { task, .. } => Some((
            format!("expire T{task}"),
            "admission",
            obj(vec![("task", u(u64::from(task)))]),
        )),
        ObsEvent::CacheAccess {
            gpu,
            task,
            hit_bytes,
            miss_bytes,
            ..
        } => Some((
            format!("cache T{task}"),
            "cache",
            obj(vec![
                ("gpu", u(u64::from(gpu))),
                ("task", u(u64::from(task))),
                ("hit_bytes", u(hit_bytes)),
                ("miss_bytes", u(miss_bytes)),
            ]),
        )),
        _ => None,
    }
}

/// Build the Chrome trace as a [`Value`] tree. Validates
/// well-formedness first, so a malformed stream is an error here
/// rather than a broken file in the viewer.
pub fn chrome_trace(events: &[ObsEvent]) -> Result<Value, WellFormedError> {
    let timeline = check_well_formed(events)?;
    let tracks: BTreeSet<Track> = events.iter().map(ObsEvent::track).collect();
    let mut out: Vec<Value> = Vec::new();
    out.push(obj(vec![
        ("name", s("process_name")),
        ("ph", s("M")),
        ("pid", u(0)),
        ("tid", u(0)),
        ("args", obj(vec![("name", s("memsched simulation"))])),
    ]));
    for track in &tracks {
        out.extend(metadata(*track));
    }
    for span in &timeline.spans {
        out.push(span_event(span));
    }
    for ev in &timeline.instants {
        if let ObsEvent::Gauge {
            t,
            gpu,
            kind,
            value,
        } = ev
        {
            let name = match gpu {
                Some(g) => format!("{} gpu{g}", kind.name()),
                None => kind.name().to_string(),
            };
            out.push(obj(vec![
                ("name", s(name)),
                ("ph", s("C")),
                ("pid", u(0)),
                ("tid", u(ev.track().tid())),
                ("ts", us(*t)),
                ("args", obj(vec![("value", f(*value))])),
            ]));
        } else if let Some((name, cat, args)) = instant_payload(ev) {
            out.push(obj(vec![
                ("name", s(name)),
                ("cat", s(cat)),
                ("ph", s("i")),
                ("s", s("t")),
                ("pid", u(0)),
                ("tid", u(ev.track().tid())),
                ("ts", us(ev.t())),
                ("args", args),
            ]));
        }
    }
    Ok(obj(vec![
        ("displayTimeUnit", s("ns")),
        ("traceEvents", Value::Arr(out)),
    ]))
}

/// [`chrome_trace`] rendered to a JSON string.
pub fn chrome_trace_json(events: &[ObsEvent]) -> Result<String, WellFormedError> {
    Ok(serde_json::to_string(&chrome_trace(events)?).expect("a JSON value prints"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::GaugeKind;

    fn sample() -> Vec<ObsEvent> {
        vec![
            ObsEvent::Decision {
                t: 0,
                gpu: 0,
                task: Some(0),
                wall_ns: 50,
            },
            ObsEvent::TransferBegin {
                t: 0,
                gpu: 0,
                data: 1,
                bytes: 64,
                bus_wait: 0,
                bus: 0,
                peer: None,
                attempt: 1,
                done_at: 80,
            },
            ObsEvent::TransferEnd {
                t: 80,
                gpu: 0,
                data: 1,
                bytes: 64,
                bus: 0,
                peer: None,
                attempt: 1,
                delivered: true,
            },
            ObsEvent::Gauge {
                t: 80,
                gpu: Some(0),
                kind: GaugeKind::Occupancy,
                value: 0.25,
            },
            ObsEvent::ComputeBegin {
                t: 80,
                gpu: 0,
                task: 0,
            },
            ObsEvent::Eviction {
                t: 90,
                gpu: 0,
                data: 1,
                bytes: 64,
                by_scheduler: true,
            },
            ObsEvent::ComputeEnd {
                t: 100,
                gpu: 0,
                task: 0,
                interrupted: false,
            },
        ]
    }

    fn count_ph(json: &Value, ph: &str) -> usize {
        json.field("traceEvents", "trace")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.field("ph", "event").unwrap().as_str() == Some(ph))
            .count()
    }

    #[test]
    fn export_round_trips_through_serde_json() {
        let text = chrome_trace_json(&sample()).unwrap();
        let parsed = serde_json::parse_value(&text).expect("valid JSON");
        assert_eq!(count_ph(&parsed, "X"), 2, "one transfer + one compute");
        assert_eq!(count_ph(&parsed, "i"), 2, "decision + eviction instants");
        assert_eq!(count_ph(&parsed, "C"), 1, "one gauge counter");
        // ts/dur are microsecond doubles: the 80ns transfer is 0.08us.
        assert!(text.contains("0.08"), "{text}");
    }

    #[test]
    fn malformed_stream_is_an_error_not_a_file() {
        let evs = vec![ObsEvent::ComputeBegin {
            t: 0,
            gpu: 0,
            task: 0,
        }];
        assert!(chrome_trace(&evs).is_err());
    }
}
