//! The metrics registry: counters, last-value gauges, log₂-bucketed
//! histograms, and periodic timeseries snapshots — all fed from the
//! same [`ObsEvent`] stream the exporters consume, so aggregate numbers
//! and timelines can never disagree.
//!
//! It keeps only what the event stream alone can tell. Loads,
//! evictions, completed tasks, faults, admission outcomes and cache
//! bytes are facts of the run report, which `memsched_platform::validate`
//! checks against the trace; the registry does not count them again.

use crate::event::{GaugeKind, Nanos, ObsEvent};
use crate::sink::TraceSink;
use serde::{Number, Value};
use std::collections::{BTreeMap, HashMap};

/// Monotone counters tracked by [`Metrics`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Work-stealing operations.
    Steals,
    /// Tasks moved by stealing (one steal moves half a tail).
    StolenTasks,
    /// `pop_task` calls observed.
    Decisions,
}

impl Counter {
    /// All counters, in stable serialization order.
    pub const ALL: [Counter; 3] = [Counter::Steals, Counter::StolenTasks, Counter::Decisions];

    /// Stable metric name.
    pub fn name(&self) -> &'static str {
        match self {
            Counter::Steals => "steals",
            Counter::StolenTasks => "stolen_tasks",
            Counter::Decisions => "decisions",
        }
    }

    fn index(&self) -> usize {
        Counter::ALL.iter().position(|c| c == self).unwrap()
    }
}

/// A log₂-bucketed histogram of non-negative values (durations in ns).
/// Bucket `i` holds values in `[2^(i-1), 2^i)`, bucket 0 holds zero —
/// coarse, allocation-free, and enough to tell a 2µs decision from a
/// 200µs one.
#[derive(Clone, Debug)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let bucket = if v == 0 {
            0
        } else {
            64 - (v.leading_zeros() as usize)
        };
        self.buckets[bucket] += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper edge of the bucket containing quantile `q` (0..=1). A
    /// bucket-resolution approximation: right for "which power of two",
    /// not for exact percentiles.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i.min(63) };
            }
        }
        self.max
    }

    /// JSON summary (count/sum/min/mean/p50/p99/max).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("count".into(), Value::Num(Number::U(self.count))),
            ("sum".into(), Value::Num(Number::U(self.sum))),
            ("min".into(), Value::Num(Number::U(self.min()))),
            ("mean".into(), Value::Num(Number::F(self.mean()))),
            ("p50".into(), Value::Num(Number::U(self.quantile(0.5)))),
            ("p99".into(), Value::Num(Number::U(self.quantile(0.99)))),
            ("max".into(), Value::Num(Number::U(self.max))),
        ])
    }
}

/// One periodic sample of the registry state.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Simulated time of the sample (a multiple of the interval).
    pub t: Nanos,
    /// Counter values at `t`, indexed like [`Counter::ALL`].
    pub counters: [u64; Counter::ALL.len()],
    /// Last-seen gauge values at `t`, by stable name.
    pub gauges: Vec<(String, f64)>,
}

fn gauge_name(kind: GaugeKind, gpu: Option<u32>) -> String {
    match gpu {
        Some(g) => format!("{}/gpu{g}", kind.name()),
        None => kind.name().to_string(),
    }
}

/// The registry. Implements [`TraceSink`], so it can sit directly on a
/// probe stream or be fed after the fact from a [`crate::Recorder`].
#[derive(Clone, Debug)]
pub struct Metrics {
    counters: [u64; Counter::ALL.len()],
    gauges: BTreeMap<String, f64>,
    transfer_ns: Histogram,
    decision_ns: Histogram,
    /// Task latency (completion − arrival) of online runs.
    task_latency_ns: Histogram,
    /// Queueing delay (compute start − arrival) of online runs.
    queueing_ns: Histogram,
    /// Open transfer begin times, keyed by (gpu, data, attempt).
    open_transfers: HashMap<(u32, u32, u32), Nanos>,
    /// Arrival times of online tasks, for latency accounting (lookup
    /// only — never iterated, so the map's order cannot leak).
    arrival_ns: HashMap<u32, Nanos>,
    snapshot_every: Nanos,
    next_snapshot: Nanos,
    /// Periodic samples (empty unless built with
    /// [`Metrics::with_snapshots`]).
    pub timeseries: Vec<Snapshot>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// A registry without periodic snapshotting.
    pub fn new() -> Self {
        Metrics {
            counters: [0; Counter::ALL.len()],
            gauges: BTreeMap::new(),
            transfer_ns: Histogram::new(),
            decision_ns: Histogram::new(),
            task_latency_ns: Histogram::new(),
            queueing_ns: Histogram::new(),
            open_transfers: HashMap::new(),
            arrival_ns: HashMap::new(),
            snapshot_every: 0,
            next_snapshot: 0,
            timeseries: Vec::new(),
        }
    }

    /// A registry that snapshots every `every` simulated nanoseconds
    /// (on the first event at or past each interval boundary).
    pub fn with_snapshots(every: Nanos) -> Self {
        Metrics {
            snapshot_every: every.max(1),
            next_snapshot: every.max(1),
            ..Metrics::new()
        }
    }

    /// Feed a whole recorded stream.
    pub fn ingest(&mut self, events: &[ObsEvent]) {
        for ev in events {
            self.record(ev);
        }
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Last-seen value of a gauge, if it was ever sampled.
    pub fn gauge(&self, kind: GaugeKind, gpu: Option<u32>) -> Option<f64> {
        self.gauges.get(&gauge_name(kind, gpu)).copied()
    }

    /// Transfer wire-time histogram (delivered transfers only).
    pub fn transfer_duration(&self) -> &Histogram {
        &self.transfer_ns
    }

    /// Scheduler decision latency histogram (host wall time).
    pub fn decision_latency(&self) -> &Histogram {
        &self.decision_ns
    }

    /// Task latency histogram (completion − arrival; online runs only).
    pub fn task_latency(&self) -> &Histogram {
        &self.task_latency_ns
    }

    /// Queueing-delay histogram (compute start − arrival; online runs
    /// only).
    pub fn queueing_delay(&self) -> &Histogram {
        &self.queueing_ns
    }

    fn maybe_snapshot(&mut self, t: Nanos) {
        if self.snapshot_every == 0 {
            return;
        }
        while t >= self.next_snapshot {
            self.timeseries.push(Snapshot {
                t: self.next_snapshot,
                counters: self.counters,
                gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            });
            self.next_snapshot += self.snapshot_every;
        }
    }

    fn bump(&mut self, c: Counter) {
        self.counters[c.index()] += 1;
    }

    /// Full JSON rendering: counters, gauges, histograms, timeseries.
    pub fn to_value(&self) -> Value {
        let counters = Value::Obj(
            Counter::ALL
                .iter()
                .map(|c| {
                    (
                        c.name().to_string(),
                        Value::Num(Number::U(self.counter(*c))),
                    )
                })
                .collect(),
        );
        let gauges = Value::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Value::Num(Number::F(*v))))
                .collect(),
        );
        let histograms = Value::Obj(vec![
            ("transfer_duration_ns".into(), self.transfer_ns.to_value()),
            ("decision_latency_ns".into(), self.decision_ns.to_value()),
            ("task_latency_ns".into(), self.task_latency_ns.to_value()),
            ("queueing_delay_ns".into(), self.queueing_ns.to_value()),
        ]);
        let timeseries = Value::Arr(
            self.timeseries
                .iter()
                .map(|s| {
                    let mut entries = vec![("t".to_string(), Value::Num(Number::U(s.t)))];
                    entries.extend(Counter::ALL.iter().enumerate().map(|(i, c)| {
                        (c.name().to_string(), Value::Num(Number::U(s.counters[i])))
                    }));
                    entries.extend(
                        s.gauges
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::Num(Number::F(*v)))),
                    );
                    Value::Obj(entries)
                })
                .collect(),
        );
        Value::Obj(vec![
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
            ("timeseries".into(), timeseries),
        ])
    }

    /// [`Metrics::to_value`] rendered as pretty JSON.
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value())
            .unwrap_or_else(|e| format!("{{\"error\": \"metrics serialization failed: {e}\"}}"))
    }
}

impl TraceSink for Metrics {
    fn record(&mut self, ev: &ObsEvent) {
        self.maybe_snapshot(ev.t());
        match *ev {
            ObsEvent::TransferBegin {
                t,
                gpu,
                data,
                attempt,
                ..
            } => {
                self.open_transfers.insert((gpu, data, attempt), t);
            }
            ObsEvent::TransferEnd {
                t,
                gpu,
                data,
                attempt,
                delivered,
                ..
            } => {
                let begun = self.open_transfers.remove(&(gpu, data, attempt));
                if let (true, Some(b)) = (delivered, begun) {
                    self.transfer_ns.record(t.saturating_sub(b));
                }
            }
            ObsEvent::ComputeBegin { t, task, .. } => {
                if let Some(&arrived) = self.arrival_ns.get(&task) {
                    self.queueing_ns.record(t.saturating_sub(arrived));
                }
            }
            ObsEvent::ComputeEnd {
                t,
                task,
                interrupted,
                ..
            } => {
                if !interrupted {
                    if let Some(arrived) = self.arrival_ns.remove(&task) {
                        self.task_latency_ns.record(t.saturating_sub(arrived));
                    }
                }
            }
            ObsEvent::Decision { wall_ns, .. } => {
                self.bump(Counter::Decisions);
                self.decision_ns.record(wall_ns);
            }
            ObsEvent::Steal { tasks, .. } => {
                self.bump(Counter::Steals);
                self.counters[Counter::StolenTasks.index()] += u64::from(tasks);
            }
            ObsEvent::Gauge {
                gpu, kind, value, ..
            } => {
                self.gauges.insert(gauge_name(kind, gpu), value);
            }
            ObsEvent::TaskArrived { t, task } => {
                self.arrival_ns.insert(task, t);
            }
            // Dropped tasks never complete: forget their arrival so the
            // latency histogram keeps counting completions only.
            ObsEvent::TaskShed { task, .. } | ObsEvent::DeadlineExpired { task, .. } => {
                self.arrival_ns.remove(&task);
            }
            ObsEvent::Eviction { .. }
            | ObsEvent::TransferRetry { .. }
            | ObsEvent::GpuFailed { .. }
            | ObsEvent::CapacityShrunk { .. }
            | ObsEvent::GpuSlowed { .. }
            | ObsEvent::TaskAdmitted { .. }
            | ObsEvent::TaskDeferred { .. }
            | ObsEvent::CacheAccess { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1_000_000);
        assert!(h.mean() > 0.0);
        assert_eq!(h.quantile(0.0), 0, "lowest value is in the zero bucket");
        assert!(h.quantile(1.0) >= 1_000_000, "p100 covers the max");
        assert!(h.quantile(0.5) <= 4, "median is tiny");
    }

    /// A value below `2^bits` of any magnitude: shifting a uniform draw
    /// right by a uniform amount reaches every log₂ bucket, where uniform
    /// draws alone land almost all in the top two.
    fn any_magnitude(bits: u32) -> impl Strategy<Value = u64> {
        (0u64..1 << bits, 0..=bits).prop_map(|(v, shift)| v >> shift)
    }

    proptest! {
        /// Quantiles are bucket upper edges: ordered, covering the max,
        /// and never past twice the max. Up to three values below 2^62
        /// and 64 below 2^56 keep the u64 `sum` in range
        /// (3·2^62 + 64·2^56 = 2^64).
        #[test]
        fn quantiles_are_ordered_and_within_twice_the_max(
            wide in collection::vec(any_magnitude(62), 0..4),
            narrow in collection::vec(any_magnitude(56), 0..=64),
        ) {
            prop_assume!(!wide.is_empty() || !narrow.is_empty());
            let mut h = Histogram::new();
            for &v in wide.iter().chain(&narrow) {
                h.record(v);
            }
            let (min, max) = (h.min(), h.max());
            let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
            prop_assert!(
                min <= p50 && p50 <= p99 && p99 <= 2 * max,
                "min {} p50 {} p99 {} max {}", min, p50, p99, max
            );
            prop_assert!(h.quantile(1.0) >= max);
        }
    }

    #[test]
    fn counters_and_transfer_durations() {
        let mut m = Metrics::new();
        m.ingest(&[
            ObsEvent::TransferBegin {
                t: 0,
                gpu: 0,
                data: 7,
                bytes: 64,
                bus_wait: 0,
                bus: 0,
                peer: None,
                attempt: 1,
                done_at: 500,
            },
            ObsEvent::TransferEnd {
                t: 500,
                gpu: 0,
                data: 7,
                bytes: 64,
                bus: 0,
                peer: None,
                attempt: 1,
                delivered: false,
            },
            ObsEvent::TransferRetry {
                t: 500,
                gpu: 0,
                data: 7,
                attempt: 2,
            },
            ObsEvent::TransferBegin {
                t: 600,
                gpu: 0,
                data: 7,
                bytes: 64,
                bus_wait: 100,
                bus: 0,
                peer: None,
                attempt: 2,
                done_at: 1100,
            },
            ObsEvent::TransferEnd {
                t: 1100,
                gpu: 0,
                data: 7,
                bytes: 64,
                bus: 0,
                peer: None,
                attempt: 2,
                delivered: true,
            },
            ObsEvent::Steal {
                t: 1200,
                from: 0,
                to: 1,
                tasks: 3,
            },
            ObsEvent::ComputeBegin {
                t: 1200,
                gpu: 1,
                task: 4,
            },
            ObsEvent::ComputeEnd {
                t: 1300,
                gpu: 1,
                task: 4,
                interrupted: false,
            },
        ]);
        assert_eq!(m.counter(Counter::Steals), 1);
        assert_eq!(m.counter(Counter::StolenTasks), 3);
        assert_eq!(m.transfer_duration().count(), 1, "only delivered timed");
        assert_eq!(m.transfer_duration().max(), 500);
    }

    #[test]
    fn snapshots_fire_on_interval_boundaries() {
        let mut m = Metrics::with_snapshots(100);
        m.record(&ObsEvent::Steal {
            t: 50,
            from: 0,
            to: 1,
            tasks: 2,
        });
        m.record(&ObsEvent::Gauge {
            t: 90,
            gpu: Some(0),
            kind: GaugeKind::Occupancy,
            value: 0.5,
        });
        m.record(&ObsEvent::Steal {
            t: 250,
            from: 1,
            to: 0,
            tasks: 2,
        });
        assert_eq!(m.timeseries.len(), 2, "boundaries at 100 and 200");
        assert_eq!(m.timeseries[0].t, 100);
        assert_eq!(
            m.timeseries[0].counters[Counter::Steals.index()],
            1,
            "second steal is after the 100ns sample"
        );
        assert_eq!(
            m.timeseries[0].gauges,
            vec![("occupancy/gpu0".to_string(), 0.5)]
        );
        assert_eq!(m.timeseries[1].t, 200);
        assert_eq!(m.counter(Counter::Steals), 2);
    }

    #[test]
    fn json_rendering_is_parseable() {
        let mut m = Metrics::with_snapshots(1000);
        m.record(&ObsEvent::Decision {
            t: 1500,
            gpu: 0,
            task: Some(1),
            wall_ns: 800,
        });
        let text = m.render_json();
        let v = serde_json::parse_value(&text).expect("valid JSON");
        let counters = v.field("counters", "metrics").unwrap();
        assert!(counters.field("decisions", "counters").is_ok());
        assert_eq!(
            v.field("timeseries", "metrics")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            1
        );
    }
}
