//! Span pairing and well-formedness checks over a raw event stream.
//!
//! The recorder stores events in **emission** order, which is not
//! timestamp order: the engine emits a `TransferBegin` at issue time
//! stamped with its future bus-grant time, so a begin can precede the
//! end of the transfer currently on the wire. What *is* guaranteed —
//! and what [`build_timeline`] verifies — is FIFO pairing per track:
//! the bus serves transfers in grant order and each GPU computes one
//! task at a time, so on every track the first span begun is the first
//! to end. Pairing by that rule turns the stream into non-overlapping
//! [`Span`]s per track plus a list of instants, the canonical form the
//! Chrome exporter and the derived analyses consume.

use crate::event::{Nanos, ObsEvent, Track};
use std::collections::BTreeMap;

/// A violation of the trace contract, with a human-readable reason.
#[derive(Clone, Debug, PartialEq)]
pub struct WellFormedError {
    /// What went wrong and where.
    pub message: String,
}

impl WellFormedError {
    fn new(message: impl Into<String>) -> Self {
        WellFormedError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WellFormedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed trace: {}", self.message)
    }
}

impl std::error::Error for WellFormedError {}

/// What a paired span was doing.
#[derive(Clone, Debug, PartialEq)]
pub enum SpanKind {
    /// A data transfer over the bus or NVLink.
    Transfer {
        /// Data id moved.
        data: u32,
        /// Payload size.
        bytes: u64,
        /// Queue wait before the grant (from the begin event).
        bus_wait: Nanos,
        /// Source GPU for peer-to-peer transfers.
        peer: Option<u32>,
        /// Attempt number (1-based).
        attempt: u32,
        /// False when the attempt was killed by an injected fault.
        delivered: bool,
    },
    /// A task execution.
    Compute {
        /// Task id.
        task: u32,
        /// True when cut short by a GPU failure.
        interrupted: bool,
    },
}

/// A matched begin/end pair on one track.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The track the span occupies.
    pub track: Track,
    /// Destination/executing GPU.
    pub gpu: u32,
    /// Span start (begin-event timestamp).
    pub begin: Nanos,
    /// Span end (end-event timestamp).
    pub end: Nanos,
    /// Payload.
    pub kind: SpanKind,
}

/// The canonical, order-normalized view of a trace.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// All spans, sorted by `(track, begin, end)`; per track they are
    /// non-overlapping.
    pub spans: Vec<Span>,
    /// All instants, in emission order (non-decreasing per track).
    pub instants: Vec<ObsEvent>,
}

impl Timeline {
    /// Spans on one track, in begin order.
    pub fn spans_on(&self, track: Track) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.track == track)
    }

    /// Largest timestamp in the timeline (0 when empty).
    pub fn horizon(&self) -> Nanos {
        let span_max = self.spans.iter().map(|s| s.end).max().unwrap_or(0);
        let inst_max = self.instants.iter().map(ObsEvent::t).max().unwrap_or(0);
        span_max.max(inst_max)
    }
}

/// Matching key of a span event: transfers pair on (data, attempt),
/// computes on task id.
fn span_key(ev: &ObsEvent) -> (u32, u32) {
    match *ev {
        ObsEvent::TransferBegin { data, attempt, .. }
        | ObsEvent::TransferEnd { data, attempt, .. } => (data, attempt),
        ObsEvent::ComputeBegin { task, .. } => (task, 0),
        ObsEvent::ComputeEnd { task, .. } => (task, 0),
        _ => unreachable!("span_key on instant"),
    }
}

/// Pair begin/end events FIFO per track and split out the instants.
/// Errors on an end without a begin, a key mismatch (FIFO order
/// violated), an end earlier than its begin, or an unclosed begin.
pub fn build_timeline(events: &[ObsEvent]) -> Result<Timeline, WellFormedError> {
    let mut open: BTreeMap<Track, Vec<&ObsEvent>> = BTreeMap::new();
    let mut spans = Vec::new();
    let mut instants = Vec::new();
    for ev in events {
        if ev.is_begin() {
            open.entry(ev.track()).or_default().push(ev);
        } else if ev.is_end() {
            let track = ev.track();
            let queue = open.entry(track).or_default();
            if queue.is_empty() {
                return Err(WellFormedError::new(format!(
                    "end without begin on {}: {ev:?}",
                    track.label()
                )));
            }
            let begin = queue.remove(0);
            if span_key(begin) != span_key(ev) {
                return Err(WellFormedError::new(format!(
                    "FIFO pairing violated on {}: begin {begin:?} closed by {ev:?}",
                    track.label()
                )));
            }
            if ev.t() < begin.t() {
                return Err(WellFormedError::new(format!(
                    "span ends before it begins on {}: {begin:?} .. {ev:?}",
                    track.label()
                )));
            }
            spans.push(make_span(begin, ev));
        } else {
            instants.push(ev.clone());
        }
    }
    for (track, queue) in &open {
        if let Some(first) = queue.first() {
            return Err(WellFormedError::new(format!(
                "{} unclosed begin(s) on {}, first: {first:?}",
                queue.len(),
                track.label()
            )));
        }
    }
    spans.sort_by_key(|a| (a.track, a.begin, a.end));
    Ok(Timeline { spans, instants })
}

fn make_span(begin: &ObsEvent, end: &ObsEvent) -> Span {
    match (begin, end) {
        (
            &ObsEvent::TransferBegin {
                t: b,
                gpu,
                data,
                bytes,
                bus_wait,
                bus: _,
                peer,
                attempt,
                done_at: _,
            },
            &ObsEvent::TransferEnd {
                t: e, delivered, ..
            },
        ) => Span {
            track: begin.track(),
            gpu,
            begin: b,
            end: e,
            kind: SpanKind::Transfer {
                data,
                bytes,
                bus_wait,
                peer,
                attempt,
                delivered,
            },
        },
        (
            &ObsEvent::ComputeBegin { t: b, gpu, task },
            &ObsEvent::ComputeEnd {
                t: e, interrupted, ..
            },
        ) => Span {
            track: begin.track(),
            gpu,
            begin: b,
            end: e,
            kind: SpanKind::Compute { task, interrupted },
        },
        _ => unreachable!("mismatched span pair survived key check"),
    }
}

/// Full well-formedness check: FIFO pairing succeeds, spans do not
/// overlap within a track, and instant timestamps are non-decreasing
/// per track in emission order. Returns the timeline on success.
pub fn check_well_formed(events: &[ObsEvent]) -> Result<Timeline, WellFormedError> {
    let timeline = build_timeline(events)?;
    let mut prev: Option<&Span> = None;
    for span in &timeline.spans {
        if let Some(p) = prev {
            if p.track == span.track && span.begin < p.end {
                return Err(WellFormedError::new(format!(
                    "overlapping spans on {}: {p:?} and {span:?}",
                    p.track.label()
                )));
            }
        }
        prev = Some(span);
    }
    let mut last: BTreeMap<Track, Nanos> = BTreeMap::new();
    for inst in &timeline.instants {
        let track = inst.track();
        let t = inst.t();
        if let Some(&p) = last.get(&track) {
            if t < p {
                return Err(WellFormedError::new(format!(
                    "instant timestamps regress on {}: {p} then {t} ({inst:?})",
                    track.label()
                )));
            }
        }
        last.insert(track, t);
    }
    Ok(timeline)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb(t: Nanos, data: u32) -> ObsEvent {
        ObsEvent::TransferBegin {
            t,
            gpu: 0,
            data,
            bytes: 10,
            bus_wait: 0,
            bus: 0,
            peer: None,
            attempt: 1,
            done_at: t,
        }
    }

    fn te(t: Nanos, data: u32) -> ObsEvent {
        ObsEvent::TransferEnd {
            t,
            gpu: 0,
            data,
            bytes: 10,
            bus: 0,
            peer: None,
            attempt: 1,
            delivered: true,
        }
    }

    #[test]
    fn bus_tracks_pair_and_check_independently() {
        // Overlapping-in-time transfers on two different buses are fine:
        // pairing and the overlap check are per track.
        let on_bus = |mut ev: ObsEvent, b: u32| {
            match &mut ev {
                ObsEvent::TransferBegin { bus, gpu, .. }
                | ObsEvent::TransferEnd { bus, gpu, .. } => {
                    *bus = b;
                    *gpu = b;
                }
                _ => unreachable!(),
            }
            ev
        };
        let evs = vec![
            on_bus(tb(0, 0), 0),
            on_bus(tb(2, 1), 1),
            on_bus(te(8, 0), 0),
            on_bus(te(9, 1), 1),
        ];
        let tl = check_well_formed(&evs).unwrap();
        assert_eq!(tl.spans_on(Track::Bus).count(), 1);
        assert_eq!(tl.spans_on(Track::BusN(1)).count(), 1);
        // The same two spans on one bus DO overlap and must be rejected.
        let evs = vec![tb(0, 0), tb(2, 1), te(8, 0), te(9, 1)];
        // FIFO pairing yields spans (0,8) and (2,9) on Track::Bus.
        let err = check_well_formed(&evs).unwrap_err();
        assert!(err.message.contains("overlapping"), "{err}");
    }

    #[test]
    fn pairs_out_of_order_emission_fifo() {
        // Issue order: begin d0 at 0, begin d1 stamped at 5 (future
        // grant), then both ends. FIFO pairing must produce two
        // back-to-back bus spans.
        let evs = vec![tb(0, 0), tb(5, 1), te(5, 0), te(9, 1)];
        let tl = check_well_formed(&evs).unwrap();
        assert_eq!(tl.spans.len(), 2);
        assert_eq!((tl.spans[0].begin, tl.spans[0].end), (0, 5));
        assert_eq!((tl.spans[1].begin, tl.spans[1].end), (5, 9));
        assert_eq!(tl.horizon(), 9);
    }

    #[test]
    fn rejects_fifo_violation() {
        // d1's end arrives while d0 is the open head: key mismatch.
        let evs = vec![tb(0, 0), tb(5, 1), te(9, 1), te(5, 0)];
        let err = build_timeline(&evs).unwrap_err();
        assert!(err.message.contains("FIFO"), "{err}");
    }

    #[test]
    fn rejects_unclosed_and_orphan_ends() {
        assert!(build_timeline(&[tb(0, 0)])
            .unwrap_err()
            .message
            .contains("unclosed"));
        assert!(build_timeline(&[te(0, 0)])
            .unwrap_err()
            .message
            .contains("end without begin"));
    }

    #[test]
    fn rejects_overlap_within_track() {
        // Two compute spans on one GPU that overlap in time.
        let evs = vec![
            ObsEvent::ComputeBegin {
                t: 0,
                gpu: 0,
                task: 0,
            },
            ObsEvent::ComputeEnd {
                t: 10,
                gpu: 0,
                task: 0,
                interrupted: false,
            },
            ObsEvent::ComputeBegin {
                t: 5,
                gpu: 0,
                task: 1,
            },
            ObsEvent::ComputeEnd {
                t: 15,
                gpu: 0,
                task: 1,
                interrupted: false,
            },
        ];
        let err = check_well_formed(&evs).unwrap_err();
        assert!(err.message.contains("overlapping"), "{err}");
    }

    #[test]
    fn rejects_regressing_instants_per_track() {
        let evs = vec![
            ObsEvent::GpuFailed { t: 10, gpu: 0 },
            ObsEvent::GpuFailed { t: 5, gpu: 0 },
        ];
        let err = check_well_formed(&evs).unwrap_err();
        assert!(err.message.contains("regress"), "{err}");
    }
}
