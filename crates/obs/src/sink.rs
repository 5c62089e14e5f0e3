//! Event sinks: the [`TraceSink`] trait, the in-memory [`Recorder`],
//! and the [`Probe`] handle the engine and schedulers share.

use crate::event::ObsEvent;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Anything that consumes a stream of [`ObsEvent`]s: the engine's trace
/// log, the [`crate::Metrics`] registry, or a test double.
pub trait TraceSink {
    /// Consume one event.
    fn record(&mut self, ev: &ObsEvent);
}

/// The in-memory event buffer: every event, in recording order. The
/// exporter pairs each span's begin with its end, so a buffer that
/// dropped events would not export.
pub type Recorder = Vec<ObsEvent>;

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
    /// A probe over an empty recorder; it keeps every event.
    pub fn unbounded() -> Self {
        Probe {
            inner: Arc::default(),
        }
    }

    /// Lock the shared recorder. Each `push` leaves the buffer whole,
    /// so a lock poisoned by a panicking holder is recovered, not
    /// propagated.
    fn recorder(&self) -> MutexGuard<'_, Recorder> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one event.
    pub fn emit(&self, ev: ObsEvent) {
        self.recorder().push(ev);
    }

    /// Snapshot the recorded events in emission order.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.recorder().clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.recorder().len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.recorder().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant(t: u64) -> ObsEvent {
        ObsEvent::GpuFailed { t, gpu: 0 }
    }

    #[test]
    fn probe_clones_share_one_buffer() {
        let p = Probe::unbounded();
        let q = p.clone();
        p.emit(instant(1));
        q.emit(instant(2));
        assert_eq!(p.len(), 2);
        let ts: Vec<u64> = p.events().iter().map(ObsEvent::t).collect();
        assert_eq!(ts, vec![1, 2]);
    }
}
