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
use serde_json::Value;
use std::collections::BTreeSet;

/// Nanoseconds to the format's microsecond doubles.
fn us(t: u64) -> Value {
    (t as f64 / 1000.0).into()
}

/// The track's `thread_name` and `thread_sort_index` entries; the sort
/// index is the track's `tid`.
fn metadata(track: Track) -> [Value; 2] {
    let entry = |name: &str, args: Value| {
        Value::from_iter([
            ("name", name.into()),
            ("ph", "M".into()),
            ("pid", 0u64.into()),
            ("tid", track.tid().into()),
            ("args", args),
        ])
    };
    [
        entry(
            "thread_name",
            Value::from_iter([("name", track.label().into())]),
        ),
        entry(
            "thread_sort_index",
            Value::from_iter([("sort_index", track.tid().into())]),
        ),
    ]
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
            Value::from_iter([
                ("gpu", u64::from(span.gpu).into()),
                ("data", u64::from(*data).into()),
                ("bytes", (*bytes).into()),
                ("bus_wait_ns", (*bus_wait).into()),
                ("peer", peer.map_or(Value::Null, |p| u64::from(p).into())),
                ("attempt", u64::from(*attempt).into()),
                ("delivered", (*delivered).into()),
            ]),
        ),
        SpanKind::Compute { task, interrupted } => (
            format!("T{task}"),
            "compute",
            Value::from_iter([
                ("task", u64::from(*task).into()),
                ("interrupted", (*interrupted).into()),
            ]),
        ),
    };
    Value::from_iter([
        ("name", name.into()),
        ("cat", cat.into()),
        ("ph", "X".into()),
        ("pid", 0u64.into()),
        ("tid", span.track.tid().into()),
        ("ts", us(span.begin)),
        ("dur", us(span.end - span.begin)),
        ("args", args),
    ])
}

/// Instant / counter payload: `(name, cat, args)`; `None` for span
/// events (handled elsewhere).
fn instant_payload(ev: &ObsEvent) -> Option<(String, &'static str, Value)> {
    let task_only = |task: u32| Value::from_iter([("task", u64::from(task).into())]);
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
            Value::from_iter([
                ("gpu", u64::from(gpu).into()),
                ("data", u64::from(data).into()),
                ("bytes", bytes.into()),
                ("by_scheduler", by_scheduler.into()),
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
            Value::from_iter([
                ("gpu", u64::from(gpu).into()),
                ("task", task.map_or(Value::Null, |t| u64::from(t).into())),
                ("wall_ns", wall_ns.into()),
            ]),
        )),
        ObsEvent::Steal {
            from, to, tasks, ..
        } => Some((
            format!("steal {tasks} from GPU {from}"),
            "steal",
            Value::from_iter([
                ("from", u64::from(from).into()),
                ("to", u64::from(to).into()),
                ("tasks", u64::from(tasks).into()),
            ]),
        )),
        ObsEvent::TransferRetry {
            gpu, data, attempt, ..
        } => Some((
            format!("retry D{data}"),
            "retry",
            Value::from_iter([
                ("gpu", u64::from(gpu).into()),
                ("data", u64::from(data).into()),
                ("attempt", u64::from(attempt).into()),
            ]),
        )),
        ObsEvent::GpuFailed { gpu, .. } => Some((
            format!("GPU {gpu} failed"),
            "fault",
            Value::from_iter([("gpu", u64::from(gpu).into())]),
        )),
        ObsEvent::CapacityShrunk { gpu, capacity, .. } => Some((
            format!("GPU {gpu} shrunk"),
            "fault",
            Value::from_iter([
                ("gpu", u64::from(gpu).into()),
                ("capacity", capacity.into()),
            ]),
        )),
        ObsEvent::GpuSlowed { gpu, factor, .. } => Some((
            format!("GPU {gpu} slowed"),
            "fault",
            Value::from_iter([("gpu", u64::from(gpu).into()), ("factor", factor.into())]),
        )),
        ObsEvent::TaskArrived { task, .. } => {
            Some((format!("arrive T{task}"), "admission", task_only(task)))
        }
        ObsEvent::TaskAdmitted { task, wait, .. } => Some((
            format!("admit T{task}"),
            "admission",
            Value::from_iter([("task", u64::from(task).into()), ("wait_ns", wait.into())]),
        )),
        ObsEvent::TaskDeferred { task, .. } => {
            Some((format!("defer T{task}"), "admission", task_only(task)))
        }
        ObsEvent::TaskShed { task, .. } => {
            Some((format!("shed T{task}"), "admission", task_only(task)))
        }
        ObsEvent::DeadlineExpired { task, .. } => {
            Some((format!("expire T{task}"), "admission", task_only(task)))
        }
        ObsEvent::CacheAccess {
            gpu,
            task,
            hit_bytes,
            miss_bytes,
            ..
        } => Some((
            format!("cache T{task}"),
            "cache",
            Value::from_iter([
                ("gpu", u64::from(gpu).into()),
                ("task", u64::from(task).into()),
                ("hit_bytes", hit_bytes.into()),
                ("miss_bytes", miss_bytes.into()),
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
    out.push(Value::from_iter([
        ("name", "process_name".into()),
        ("ph", "M".into()),
        ("pid", 0u64.into()),
        ("tid", 0u64.into()),
        (
            "args",
            Value::from_iter([("name", "memsched simulation".into())]),
        ),
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
            out.push(Value::from_iter([
                ("name", name.into()),
                ("ph", "C".into()),
                ("pid", 0u64.into()),
                ("tid", ev.track().tid().into()),
                ("ts", us(*t)),
                ("args", Value::from_iter([("value", (*value).into())])),
            ]));
        } else if let Some((name, cat, args)) = instant_payload(ev) {
            out.push(Value::from_iter([
                ("name", name.into()),
                ("cat", cat.into()),
                ("ph", "i".into()),
                ("s", "t".into()),
                ("pid", 0u64.into()),
                ("tid", ev.track().tid().into()),
                ("ts", us(ev.t())),
                ("args", args),
            ]));
        }
    }
    Ok(Value::from_iter([
        ("displayTimeUnit", "ns".into()),
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

    /// Every track of a 128-GPU stream (GPU, scheduler, bus, NVLink,
    /// global and admission tracks) gets its own sort index.
    #[test]
    fn sort_indices_are_distinct_past_100_gpus() {
        let mut evs = vec![ObsEvent::TaskArrived { t: 0, task: 0 }];
        for (bus, peer) in [(0, None), (1, None), (0, Some(1))] {
            let (gpu, data, bytes, attempt) = (0, 1, 64, 1);
            evs.push(ObsEvent::TransferBegin {
                t: 0,
                gpu,
                data,
                bytes,
                bus_wait: 0,
                bus,
                peer,
                attempt,
                done_at: 10,
            });
            evs.push(ObsEvent::TransferEnd {
                t: 10,
                gpu,
                data,
                bytes,
                bus,
                peer,
                attempt,
                delivered: true,
            });
        }
        for gpu in 0..128 {
            evs.push(ObsEvent::GpuFailed { t: 20, gpu });
            evs.push(ObsEvent::Decision {
                t: 20,
                gpu,
                task: None,
                wall_ns: 1,
            });
        }
        evs.push(ObsEvent::Gauge {
            t: 20,
            gpu: None,
            kind: GaugeKind::NbFreeTasks,
            value: 0.0,
        });
        let doc = chrome_trace(&evs).unwrap();
        let indices: Vec<&Value> = doc
            .field("traceEvents", "trace")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.field("name", "event").unwrap().as_str() == Some("thread_sort_index"))
            .map(|e| e.field("args", "event").unwrap())
            .collect();
        assert_eq!(indices.len(), 2 * 128 + 5, "one per track");
        for (i, a) in indices.iter().enumerate() {
            assert!(!indices[..i].contains(a), "sort index {a:?} repeats");
        }
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
