//! Deterministic fault injection: the [`FaultPlan`] describes what goes
//! wrong during a run, and when.
//!
//! Four fault kinds are modelled, all driven by the simulated clock so a
//! plan replays identically on every run:
//!
//! * **fail-stop GPU death** ([`GpuFailure`]) — at virtual time `at` the
//!   GPU stops executing; its pipelined tasks are handed back to the
//!   scheduler ([`crate::Scheduler::on_gpu_failed`]) for re-dispatch on
//!   the survivors;
//! * **transient transfer faults** ([`TransferFaultSpec`]) — each
//!   completing transfer fails with probability `fault_ppm / 1e6`,
//!   decided by a seeded hash of the completion serial; failed transfers
//!   retry over the PCI bus with exponential backoff up to
//!   `max_attempts`, then the run aborts with
//!   [`crate::RunError::TransferFailed`];
//! * **capacity shrink** ([`CapacityShrink`]) — mid-run loss of GPU
//!   memory (ECC page retirement): resident data is evicted until the
//!   new bound holds, creating eviction pressure;
//! * **straggler slowdown** ([`Straggler`]) — from time `at` the GPU's
//!   effective GFlop/s is multiplied by `factor` (< 1 slows it down),
//!   affecting tasks started after that point.
//!
//! An empty plan ([`FaultPlan::none`]) is the default and provably
//! zero-impact: the engine pushes no fault events, so event sequence
//! numbers, traces and reports are byte-identical to a build without the
//! subsystem (enforced by the golden-trace tests).

use crate::spec::Nanos;

/// Fail-stop death of one GPU at a chosen virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuFailure {
    /// Index of the GPU that dies.
    pub gpu: usize,
    /// Simulated time of death in nanoseconds.
    pub at: Nanos,
}

/// Mid-run reduction of one GPU's memory capacity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CapacityShrink {
    /// Index of the affected GPU.
    pub gpu: usize,
    /// Simulated time the shrink takes effect.
    pub at: Nanos,
    /// New capacity in bytes. If pinned or in-flight data prevents the
    /// engine from evicting down to this bound immediately, the capacity
    /// tightens as pins release (each step emits
    /// [`crate::TraceEvent::CapacityShrunk`]).
    pub new_capacity: u64,
}

/// Per-GPU slowdown from a chosen virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Straggler {
    /// Index of the affected GPU.
    pub gpu: usize,
    /// Simulated time the slowdown starts.
    pub at: Nanos,
    /// Multiplier applied to the GPU's GFlop/s (0 < factor; < 1 slows it
    /// down). Affects tasks started after `at`.
    pub factor: f64,
}

/// Seeded transient transfer faults with bounded retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferFaultSpec {
    /// Seed of the fault stream; the same seed reproduces the same faults.
    pub seed: u64,
    /// Fault probability per completing transfer, in parts per million
    /// (1_000_000 = every transfer fails).
    pub fault_ppm: u32,
    /// Transfer attempts before the run aborts with
    /// [`crate::RunError::TransferFailed`]. Must be at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent attempt.
    pub backoff_base: Nanos,
}

impl Default for TransferFaultSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            fault_ppm: 0,
            max_attempts: 4,
            backoff_base: 1_000,
        }
    }
}

impl TransferFaultSpec {
    /// Deterministic fault decision for the `serial`-th completion check.
    pub(crate) fn faulty(&self, serial: u64) -> bool {
        if self.fault_ppm == 0 {
            return false;
        }
        splitmix64(self.seed ^ serial.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1_000_000
            < self.fault_ppm as u64
    }

    /// Exponential backoff before retry number `attempt + 1` (the shift is
    /// clamped so large attempt counts cannot overflow).
    pub(crate) fn backoff(&self, attempt: u32) -> Nanos {
        self.backoff_base
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
    }
}

/// SplitMix64 finalizer: a well-distributed 64-bit mix, dependency-free.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Everything that goes wrong during one run. Part of
/// [`crate::RunConfig`]; the default is the empty plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Fail-stop GPU deaths.
    pub gpu_failures: Vec<GpuFailure>,
    /// Transient transfer faults (None disables the fault stream).
    pub transfer_faults: Option<TransferFaultSpec>,
    /// Mid-run capacity shrinks.
    pub capacity_shrinks: Vec<CapacityShrink>,
    /// Straggler slowdowns.
    pub stragglers: Vec<Straggler>,
}

impl FaultPlan {
    /// The empty plan: nothing is injected and the engine behaves
    /// byte-identically to a fault-free build.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.gpu_failures.is_empty()
            && self.transfer_faults.is_none()
            && self.capacity_shrinks.is_empty()
            && self.stragglers.is_empty()
    }

    /// Add a fail-stop GPU death.
    pub fn with_gpu_failure(mut self, gpu: usize, at: Nanos) -> Self {
        self.gpu_failures.push(GpuFailure { gpu, at });
        self
    }

    /// Enable the transient transfer-fault stream.
    pub fn with_transfer_faults(mut self, spec: TransferFaultSpec) -> Self {
        self.transfer_faults = Some(spec);
        self
    }

    /// Add a capacity shrink.
    pub fn with_capacity_shrink(mut self, gpu: usize, at: Nanos, new_capacity: u64) -> Self {
        self.capacity_shrinks.push(CapacityShrink {
            gpu,
            at,
            new_capacity,
        });
        self
    }

    /// Add a straggler slowdown.
    pub fn with_straggler(mut self, gpu: usize, at: Nanos, factor: f64) -> Self {
        self.stragglers.push(Straggler { gpu, at, factor });
        self
    }

    /// Check the plan against a platform of `num_gpus` GPUs.
    pub fn validate(&self, num_gpus: usize) -> Result<(), String> {
        for f in &self.gpu_failures {
            if f.gpu >= num_gpus {
                return Err(format!("fail: GPU {} out of range (< {num_gpus})", f.gpu));
            }
        }
        for s in &self.capacity_shrinks {
            if s.gpu >= num_gpus {
                return Err(format!("shrink: GPU {} out of range (< {num_gpus})", s.gpu));
            }
        }
        for s in &self.stragglers {
            if s.gpu >= num_gpus {
                return Err(format!("slow: GPU {} out of range (< {num_gpus})", s.gpu));
            }
            if s.factor <= 0.0 || !s.factor.is_finite() {
                return Err(format!("slow: factor {} must be finite and > 0", s.factor));
            }
        }
        if let Some(tf) = &self.transfer_faults {
            if tf.max_attempts == 0 {
                return Err("flaky: attempts must be at least 1".into());
            }
            if tf.fault_ppm > 1_000_000 {
                return Err(format!("flaky: ppm {} exceeds 1e6", tf.fault_ppm));
            }
        }
        Ok(())
    }

    /// Parse a fault specification string (the CLI's `--faults` argument).
    ///
    /// Semicolon-separated clauses:
    ///
    /// * `fail:<gpu>@<time>` — fail-stop death, e.g. `fail:1@5ms`;
    /// * `slow:<gpu>@<time>x<factor>` — straggler, e.g. `slow:0@1msx0.5`;
    /// * `shrink:<gpu>@<time>=<size>` — capacity shrink, e.g.
    ///   `shrink:0@2ms=250mb`;
    /// * `flaky:ppm=<n>[,seed=<n>][,attempts=<n>][,backoff=<time>]` —
    ///   transient transfer faults.
    ///
    /// Times take `ns`, `us`, `ms` or `s` suffixes (plain numbers are
    /// nanoseconds); sizes take `b`, `kb`, `mb` or `gb` (decimal).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (kind, rest) = clause
                .split_once(':')
                .ok_or_else(|| format!("clause {clause:?} has no `kind:` prefix"))?;
            match kind {
                "fail" => {
                    let (gpu, at) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("fail clause {rest:?}: expected <gpu>@<time>"))?;
                    plan.gpu_failures.push(GpuFailure {
                        gpu: parse_gpu(gpu)?,
                        at: parse_time(at)?,
                    });
                }
                "slow" => {
                    let (gpu, rest) = rest.split_once('@').ok_or_else(|| {
                        format!("slow clause {rest:?}: expected <gpu>@<time>x<factor>")
                    })?;
                    let (at, factor) = rest
                        .split_once('x')
                        .ok_or_else(|| format!("slow clause {rest:?}: expected <time>x<factor>"))?;
                    plan.stragglers.push(Straggler {
                        gpu: parse_gpu(gpu)?,
                        at: parse_time(at)?,
                        factor: factor
                            .parse::<f64>()
                            .map_err(|e| format!("slow factor {factor:?}: {e}"))?,
                    });
                }
                "shrink" => {
                    let (gpu, rest) = rest.split_once('@').ok_or_else(|| {
                        format!("shrink clause {rest:?}: expected <gpu>@<time>=<size>")
                    })?;
                    let (at, size) = rest
                        .split_once('=')
                        .ok_or_else(|| format!("shrink clause {rest:?}: expected <time>=<size>"))?;
                    plan.capacity_shrinks.push(CapacityShrink {
                        gpu: parse_gpu(gpu)?,
                        at: parse_time(at)?,
                        new_capacity: parse_size(size)?,
                    });
                }
                "flaky" => {
                    let mut tf = TransferFaultSpec::default();
                    for kv in rest.split(',') {
                        let (key, val) = kv
                            .split_once('=')
                            .ok_or_else(|| format!("flaky option {kv:?}: expected key=value"))?;
                        match key.trim() {
                            "ppm" => {
                                tf.fault_ppm =
                                    val.parse().map_err(|e| format!("flaky ppm {val:?}: {e}"))?
                            }
                            "seed" => {
                                tf.seed = val
                                    .parse()
                                    .map_err(|e| format!("flaky seed {val:?}: {e}"))?
                            }
                            "attempts" => {
                                tf.max_attempts = val
                                    .parse()
                                    .map_err(|e| format!("flaky attempts {val:?}: {e}"))?
                            }
                            "backoff" => tf.backoff_base = parse_time(val)?,
                            other => return Err(format!("flaky: unknown option {other:?}")),
                        }
                    }
                    plan.transfer_faults = Some(tf);
                }
                other => {
                    return Err(format!(
                        "unknown fault kind {other:?} (expected fail, slow, shrink or flaky)"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

fn parse_gpu(s: &str) -> Result<usize, String> {
    s.trim()
        .parse::<usize>()
        .map_err(|e| format!("GPU index {s:?}: {e}"))
}

/// `"5ms"` → 5_000_000 ns; plain numbers are nanoseconds.
fn parse_time(s: &str) -> Result<Nanos, String> {
    let s = s.trim();
    let (num, mult) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e9)
    } else {
        (s, 1.0)
    };
    let v: f64 = num.trim().parse().map_err(|e| format!("time {s:?}: {e}"))?;
    if v < 0.0 {
        return Err(format!("time {s:?} must be non-negative"));
    }
    Ok((v * mult) as Nanos)
}

/// `"250mb"` → 250_000_000 bytes (decimal units); plain numbers are bytes.
fn parse_size(s: &str) -> Result<u64, String> {
    let lower = s.trim().to_ascii_lowercase();
    let (num, mult) = if let Some(n) = lower.strip_suffix("gb") {
        (n.to_string(), 1e9)
    } else if let Some(n) = lower.strip_suffix("mb") {
        (n.to_string(), 1e6)
    } else if let Some(n) = lower.strip_suffix("kb") {
        (n.to_string(), 1e3)
    } else if let Some(n) = lower.strip_suffix('b') {
        (n.to_string(), 1.0)
    } else {
        (lower, 1.0)
    };
    let v: f64 = num.trim().parse().map_err(|e| format!("size {s:?}: {e}"))?;
    if v < 0.0 {
        return Err(format!("size {s:?} must be non-negative"));
    }
    Ok((v * mult) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::default(), FaultPlan::none());
        assert!(!FaultPlan::none().with_gpu_failure(0, 10).is_empty());
        assert!(!FaultPlan::none()
            .with_transfer_faults(TransferFaultSpec::default())
            .is_empty());
    }

    #[test]
    fn parse_every_clause_kind() {
        let plan = FaultPlan::parse(
            "fail:1@5ms; slow:0@1msx0.5; shrink:0@2ms=250mb; \
             flaky:ppm=1000,seed=7,attempts=6,backoff=2us",
        )
        .unwrap();
        assert_eq!(
            plan.gpu_failures,
            vec![GpuFailure {
                gpu: 1,
                at: 5_000_000
            }]
        );
        assert_eq!(
            plan.stragglers,
            vec![Straggler {
                gpu: 0,
                at: 1_000_000,
                factor: 0.5
            }]
        );
        assert_eq!(
            plan.capacity_shrinks,
            vec![CapacityShrink {
                gpu: 0,
                at: 2_000_000,
                new_capacity: 250_000_000
            }]
        );
        assert_eq!(
            plan.transfer_faults,
            Some(TransferFaultSpec {
                seed: 7,
                fault_ppm: 1000,
                max_attempts: 6,
                backoff_base: 2_000
            })
        );
        assert!(plan.validate(2).is_ok());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("boom:1@5ms").is_err());
        assert!(FaultPlan::parse("fail:1").is_err());
        assert!(FaultPlan::parse("slow:0@1ms").is_err());
        assert!(FaultPlan::parse("shrink:0@1ms").is_err());
        assert!(FaultPlan::parse("flaky:zzz=1").is_err());
        assert!(FaultPlan::parse("fail:x@5ms").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn validate_bounds_the_plan() {
        assert!(FaultPlan::none()
            .with_gpu_failure(4, 0)
            .validate(2)
            .is_err());
        assert!(FaultPlan::none()
            .with_capacity_shrink(3, 0, 100)
            .validate(2)
            .is_err());
        assert!(FaultPlan::none()
            .with_straggler(0, 0, 0.0)
            .validate(2)
            .is_err());
        assert!(FaultPlan::none()
            .with_transfer_faults(TransferFaultSpec {
                max_attempts: 0,
                ..Default::default()
            })
            .validate(2)
            .is_err());
        assert!(FaultPlan::none()
            .with_transfer_faults(TransferFaultSpec {
                fault_ppm: 2_000_000,
                ..Default::default()
            })
            .validate(2)
            .is_err());
    }

    #[test]
    fn fault_stream_is_deterministic_and_calibrated() {
        let tf = TransferFaultSpec {
            seed: 42,
            fault_ppm: 250_000,
            ..Default::default()
        };
        let a: Vec<bool> = (0..1000).map(|i| tf.faulty(i)).collect();
        let b: Vec<bool> = (0..1000).map(|i| tf.faulty(i)).collect();
        assert_eq!(a, b, "same seed, same stream");
        let hits = a.iter().filter(|&&x| x).count();
        // 25 % nominal rate over 1000 draws: accept a generous band.
        assert!((150..350).contains(&hits), "hits = {hits}");
        // Different seed, different stream.
        let other = TransferFaultSpec { seed: 43, ..tf };
        assert_ne!(a, (0..1000).map(|i| other.faulty(i)).collect::<Vec<_>>());
        // ppm = 0 never faults.
        let off = TransferFaultSpec { fault_ppm: 0, ..tf };
        assert!((0..1000).all(|i| !off.faulty(i)));
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let tf = TransferFaultSpec {
            backoff_base: 100,
            ..Default::default()
        };
        assert_eq!(tf.backoff(1), 100);
        assert_eq!(tf.backoff(2), 200);
        assert_eq!(tf.backoff(3), 400);
        // Clamped shift: huge attempt counts do not overflow.
        assert_eq!(tf.backoff(1000), 100 * (1 << 20));
    }

    #[test]
    fn time_and_size_suffixes() {
        assert_eq!(parse_time("1500").unwrap(), 1500);
        assert_eq!(parse_time("2us").unwrap(), 2_000);
        assert_eq!(parse_time("1.5ms").unwrap(), 1_500_000);
        assert_eq!(parse_time("1s").unwrap(), 1_000_000_000);
        assert_eq!(parse_size("123").unwrap(), 123);
        assert_eq!(parse_size("4kb").unwrap(), 4_000);
        assert_eq!(parse_size("0.5GB").unwrap(), 500_000_000);
        assert!(parse_time("abc").is_err());
        assert!(parse_size("xyz").is_err());
    }
}
