//! Event sinks: the [`TraceSink`] trait, the ring-buffered
//! [`Recorder`], and the [`Probe`] handle the engine and schedulers
//! share.

use crate::event::ObsEvent;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Anything that consumes a stream of [`ObsEvent`]s: the in-memory
/// [`Recorder`], the [`crate::Metrics`] registry, or a test double.
pub trait TraceSink {
    /// Consume one event.
    fn record(&mut self, ev: &ObsEvent);
}

/// A bounded in-memory event buffer. When full, the **oldest** events
/// are dropped (the tail of a run usually matters most) and the drop is
/// counted so exporters can flag a truncated timeline.
#[derive(Clone, Debug)]
pub struct Recorder {
    buf: VecDeque<ObsEvent>,
    capacity: usize,
    dropped: u64,
}

impl Recorder {
    /// A recorder that keeps at most `capacity` events (oldest dropped).
    pub fn new(capacity: usize) -> Self {
        Recorder {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// A recorder that never drops.
    pub fn unbounded() -> Self {
        Recorder::new(usize::MAX)
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of events dropped to the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Snapshot the buffered events in recording order.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.buf.iter().cloned().collect()
    }

    /// Consume the recorder, returning the buffered events.
    pub fn into_events(self) -> Vec<ObsEvent> {
        self.buf.into_iter().collect()
    }
}

impl TraceSink for Recorder {
    fn record(&mut self, ev: &ObsEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev.clone());
    }
}

/// The handle the engine and the schedulers write through: a cheaply
/// cloneable, shared [`Recorder`]. The engine holds one clone, each
/// scheduler that wants to emit (decision gauges, steals) holds
/// another; events interleave in emission order.
///
/// The simulation itself is single-threaded, so the mutex is
/// uncontended — its cost is one atomic pair per event, and only when a
/// probe is attached at all (the disabled path never touches it).
#[derive(Clone, Debug)]
pub struct Probe {
    inner: Arc<Mutex<Recorder>>,
}

impl Probe {
    /// A probe over a bounded recorder (oldest events dropped on
    /// overflow).
    pub fn new(capacity: usize) -> Self {
        Probe {
            inner: Arc::new(Mutex::new(Recorder::new(capacity))),
        }
    }

    /// A probe that never drops events.
    pub fn unbounded() -> Self {
        Probe {
            inner: Arc::new(Mutex::new(Recorder::unbounded())),
        }
    }

    /// Lock the shared recorder. Each `record` leaves the buffer whole,
    /// so a lock poisoned by a panicking holder is recovered, not
    /// propagated.
    fn recorder(&self) -> MutexGuard<'_, Recorder> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one event.
    pub fn emit(&self, ev: ObsEvent) {
        self.recorder().record(&ev);
    }

    /// Snapshot the recorded events in emission order.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.recorder().events()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.recorder().len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.recorder().is_empty()
    }

    /// Number of events dropped to the ring bound.
    pub fn dropped(&self) -> u64 {
        self.recorder().dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant(t: u64) -> ObsEvent {
        ObsEvent::GpuFailed { t, gpu: 0 }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = Recorder::new(3);
        for t in 0..5 {
            r.record(&instant(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let ts: Vec<u64> = r.events().iter().map(ObsEvent::t).collect();
        assert_eq!(ts, vec![2, 3, 4], "oldest two dropped");
    }

    #[test]
    fn probe_clones_share_one_buffer() {
        let p = Probe::unbounded();
        let q = p.clone();
        p.emit(instant(1));
        q.emit(instant(2));
        assert_eq!(p.len(), 2);
        assert_eq!(q.dropped(), 0);
        let ts: Vec<u64> = p.events().iter().map(ObsEvent::t).collect();
        assert_eq!(ts, vec![1, 2]);
    }
}
